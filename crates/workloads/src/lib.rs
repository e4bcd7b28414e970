//! # workloads — loop-iteration workloads with exact per-iteration cost
//!
//! The paper evaluates two computationally-intensive applications whose
//! single dominant parallel loop is irregular:
//!
//! * **Mandelbrot** ([`mandelbrot::Mandelbrot`]) — escape-time iteration
//!   over a complex-plane region; high algorithmic imbalance (pixels in
//!   the set cost `max_iter`, pixels far outside cost a handful).
//! * **PSIA** ([`psia::Psia`]) — the parallel spin-image algorithm: one
//!   loop iteration generates the spin-image of one oriented point of a
//!   3-D cloud; moderate imbalance from density variation in the cloud.
//!   The paper's proprietary 3-D object datasets are replaced by
//!   synthetic clouds ([`psia::cloud`]) with the same density-driven
//!   cost structure.
//!
//! Every workload implements [`Workload`]: a *real* computation per
//! iteration ([`Workload::execute`], used by the thread-backed runtime
//! and correctness tests) and an *exact virtual cost* per iteration
//! ([`Workload::cost`], used by the discrete-event simulator). The
//! virtual cost is derived from the real operation count of the same
//! kernel, so both backends schedule identical irregularity profiles:
//! Mandelbrot's from the escape count, PSIA's from the kernel's own
//! count of the points an image bins ([`psia::image::contributing`],
//! the support test [`psia::image::spin_image`] bins by), taken without
//! building the image.
//!
//! [`synthetic`] adds distribution-shaped workloads (constant, uniform,
//! gaussian, exponential, bimodal, linear ramps) for tests, property
//! checks and ablations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod adjoint;
pub mod mandelbrot;
pub mod phased;
pub mod psia;
pub mod spin;
pub mod stats;
pub mod synthetic;

pub use adjoint::AdjointConvolution;
pub use mandelbrot::{Mandelbrot, Traversal};
pub use phased::PhasedSpin;
pub use psia::{Psia, PsiaStream};
pub use spin::Spin;
pub use stats::WorkloadStats;
use std::collections::BTreeMap;

/// A parallel loop whose iterations are independent, with a real
/// computation and an exact virtual cost per iteration.
pub trait Workload: Send + Sync {
    /// Number of loop iterations `N`.
    fn n_iters(&self) -> u64;

    /// Short display name (e.g. `"Mandelbrot"`).
    fn name(&self) -> &'static str;

    /// Perform iteration `i`'s real computation, returning an
    /// application checksum (escape count, accumulated bins, ...) that
    /// correctness tests compare against a serial execution.
    fn execute(&self, i: u64) -> u64;

    /// Exact virtual cost of iteration `i` in nanoseconds, derived from
    /// the kernel's real operation count.
    fn cost(&self, i: u64) -> u64;

    /// [`Workload::cost`] of every iteration, each [`CostSink::put`]
    /// once, in any order — what [`CostTable::build`] stores. A workload overrides it when it can
    /// produce the whole table faster than one `cost` call at a time;
    /// the values must be the same.
    fn costs(&self, sink: &mut CostSink) {
        for i in 0..self.n_iters() {
            sink.put(i, self.cost(i));
        }
    }
}

/// The narrow slot of a cost that does not fit below it: its exact
/// value is in [`CostSink`]'s side map.
const WIDE: u32 = u32::MAX;

/// A [`CostTable`]'s storage, filled by [`Workload::costs`]: four bytes
/// per iteration. A cost of `u32::MAX` or more keeps that sentinel in
/// its slot and its exact value in a side map, so every `u64` cost
/// round-trips; the figure workloads' costs stay 60x below it and never
/// touch the map.
pub struct CostSink {
    narrow: Vec<u32>,
    wide: BTreeMap<u64, u64>,
}

impl CostSink {
    /// Store `cost` as iteration `i`'s.
    // Out of line: inlined, it slowed `Mandelbrot::costs`' lane loop by
    // ~6 % (DESIGN, "What the sim hot path costs").
    #[inline(never)]
    pub fn put(&mut self, i: u64, cost: u64) {
        match u32::try_from(cost) {
            Ok(c) if c != WIDE => self.narrow[i as usize] = c,
            _ => self.put_wide(i, cost),
        }
    }

    #[cold]
    fn put_wide(&mut self, i: u64, cost: u64) {
        self.narrow[i as usize] = WIDE;
        self.wide.insert(i, cost);
    }
}

/// A precomputed cost table: evaluates [`Workload::cost`] once per
/// iteration and serves lookups from memory afterwards. Build one per
/// workload and share it across the dozens of simulator runs of a
/// figure sweep.
pub struct CostTable {
    costs: CostSink,
    name: &'static str,
}

impl CostTable {
    /// Precompute all iteration costs of `w`.
    pub fn build(w: &dyn Workload) -> Self {
        let n = usize::try_from(w.n_iters()).expect("a cost table fits in memory");
        let mut costs = CostSink { narrow: vec![0; n], wide: BTreeMap::new() };
        w.costs(&mut costs);
        Self { costs, name: w.name() }
    }

    /// Cost of iteration `i`.
    #[inline]
    pub fn cost(&self, i: u64) -> u64 {
        self.widen(i, self.costs.narrow[i as usize])
    }

    /// The cost a narrow slot `c` of iteration `i` stands for.
    #[inline]
    fn widen(&self, i: u64, c: u32) -> u64 {
        if c == WIDE {
            self.costs.wide[&i]
        } else {
            u64::from(c)
        }
    }

    /// Number of iterations.
    pub fn n_iters(&self) -> u64 {
        self.costs.narrow.len() as u64
    }

    /// Workload name the table was built from.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sum of costs over `[start, end)` — the compute time of a chunk.
    /// Each wide cost is summed as its sentinel and then topped up, so the
    /// sum overflows exactly when the costs' own sum does.
    #[inline]
    pub fn range_cost(&self, start: u64, end: u64) -> u64 {
        let narrow: u64 =
            self.costs.narrow[start as usize..end as usize].iter().map(|&c| u64::from(c)).sum();
        if self.costs.wide.is_empty() {
            return narrow;
        }
        self.costs.wide.range(start..end).fold(narrow, |sum, (_, &c)| sum + (c - u64::from(WIDE)))
    }

    /// Every cost, in iteration order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u64> + Clone + '_ {
        self.costs.narrow.iter().enumerate().map(|(i, &c)| self.widen(i as u64, c))
    }

    /// Statistical summary of the iteration costs.
    pub fn stats(&self) -> WorkloadStats {
        WorkloadStats::from_costs(self.iter())
    }

    /// A `dls::LoopSpec` for this workload over `p` workers, with the
    /// measured mean/sigma attached — what FAC and FSC need to apply
    /// their probabilistic chunk formulas.
    pub fn loop_spec(&self, p: u32) -> dls::LoopSpec {
        let s = self.stats();
        dls::LoopSpec::new(self.n_iters(), p).with_stats(s.mean, s.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synthetic::Synthetic;

    #[test]
    fn cost_table_matches_workload() {
        let w = Synthetic::linear_increasing(100, 10, 1000);
        let t = CostTable::build(&w);
        assert_eq!(t.n_iters(), 100);
        for i in [0, 1, 50, 99] {
            assert_eq!(t.cost(i), w.cost(i));
        }
    }

    #[test]
    fn range_cost_sums() {
        let w = Synthetic::constant(10, 7);
        let t = CostTable::build(&w);
        assert_eq!(t.range_cost(2, 6), 28);
        assert_eq!(t.range_cost(0, 10), 70);
        assert_eq!(t.range_cost(3, 3), 0);
    }

    #[test]
    fn loop_spec_carries_measured_stats() {
        let w = Synthetic::uniform(1_000, 10, 100, 3);
        let t = CostTable::build(&w);
        let spec = t.loop_spec(8);
        assert_eq!(spec.n_iters, 1_000);
        assert_eq!(spec.n_workers, 8);
        let s = t.stats();
        assert_eq!(spec.mean_iter_time, s.mean);
        assert_eq!(spec.sigma_iter_time, s.sigma);
    }
}
