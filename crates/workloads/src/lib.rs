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

    /// [`Workload::cost`] of every iteration, in iteration order — what
    /// [`CostTable::build`] stores. A workload overrides it when it can
    /// produce the whole table faster than one `cost` call at a time;
    /// the values must be the same.
    fn costs(&self) -> Vec<u64> {
        (0..self.n_iters()).map(|i| self.cost(i)).collect()
    }
}

/// A precomputed cost table: evaluates [`Workload::cost`] once per
/// iteration and serves lookups from memory afterwards. Build one per
/// workload and share it across the dozens of simulator runs of a
/// figure sweep.
pub struct CostTable {
    costs: Vec<u64>,
    name: &'static str,
}

impl CostTable {
    /// Precompute all iteration costs of `w`.
    pub fn build(w: &dyn Workload) -> Self {
        Self { costs: w.costs(), name: w.name() }
    }

    /// Cost of iteration `i`.
    #[inline]
    pub fn cost(&self, i: u64) -> u64 {
        self.costs[i as usize]
    }

    /// Number of iterations.
    pub fn n_iters(&self) -> u64 {
        self.costs.len() as u64
    }

    /// Workload name the table was built from.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sum of costs over `[start, end)` — the compute time of a chunk.
    pub fn range_cost(&self, start: u64, end: u64) -> u64 {
        self.costs[start as usize..end as usize].iter().sum()
    }

    /// All costs.
    pub fn costs(&self) -> &[u64] {
        &self.costs
    }

    /// Statistical summary of the iteration costs.
    pub fn stats(&self) -> WorkloadStats {
        WorkloadStats::from_costs(&self.costs)
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
