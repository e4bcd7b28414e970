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

/// The four-byte slot of a cost that does not fit below it: its exact
/// value is in [`CostSink`]'s side map.
const WIDE: u32 = u32::MAX;

/// The two-byte slot of a cost that does not fit on its table's grid
/// below it: its exact value is in the side map.
const PACKED_WIDE: u32 = u16::MAX as u32;

/// What one side-map entry costs in bytes, rounded up: a
/// `BTreeMap<u64, u64>` leaf holds 11 pairs in 192 bytes and is about
/// half full when filled in order, and the inner nodes add a little.
const SIDE_ENTRY_BYTES: u64 = 48;

/// A [`CostTable`]'s storage while [`Workload::costs`] fills it: four
/// bytes per iteration. A cost of `u32::MAX` or more keeps that sentinel
/// in its slot and its exact value in a side map, so every `u64` cost
/// round-trips. [`CostTable::build`] then packs the slots to two bytes
/// where the costs allow it.
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
///
/// Slot `s` of iteration `i` stands for the cost `base + step · s`. Where
/// the costs lie on a grid whose `(cost − base) / step` fits two bytes
/// for all but a few of them, the table keeps two slots in each `u32`
/// word (`base` the least cost, `step` the gcd of every cost's distance
/// from it); otherwise one slot a word with `base` 0 and `step` 1. Either
/// way a slot at its layout's largest value is a sentinel whose exact
/// cost is in a side map, so every `u64` cost round-trips.
pub struct CostTable {
    /// The slots, two a word when `packed` (iteration `2j` the low half
    /// of word `j`), else one.
    words: Vec<u32>,
    /// The exact cost of every iteration whose slot is the sentinel.
    wide: BTreeMap<u64, u64>,
    n: u64,
    packed: bool,
    base: u64,
    step: u64,
    name: &'static str,
}

impl CostTable {
    /// Precompute all iteration costs of `w`.
    pub fn build(w: &dyn Workload) -> Self {
        let n = usize::try_from(w.n_iters()).expect("a cost table fits in memory");
        let mut sink = CostSink { narrow: vec![0; n], wide: BTreeMap::new() };
        w.costs(&mut sink);
        let CostSink { narrow: mut words, mut wide } = sink;
        let (packed, base, step) = match pack(&mut words, &mut wide) {
            Some((base, step)) => (true, base, step),
            None => (false, 0, 1),
        };
        Self { words, wide, n: n as u64, packed, base, step, name: w.name() }
    }

    /// The sentinel slot of this table's layout.
    #[inline]
    fn sentinel(&self) -> u32 {
        if self.packed {
            PACKED_WIDE
        } else {
            WIDE
        }
    }

    /// Iteration `i`'s slot.
    #[inline]
    fn slot(&self, i: u64) -> u32 {
        if self.packed {
            (self.words[(i / 2) as usize] >> (i % 2 * 16)) & PACKED_WIDE
        } else {
            self.words[i as usize]
        }
    }

    /// Cost of iteration `i`.
    #[inline]
    pub fn cost(&self, i: u64) -> u64 {
        assert!(i < self.n, "iteration {i} of {}", self.n);
        self.widen(i, self.slot(i))
    }

    /// The cost slot `s` of iteration `i` stands for.
    #[inline]
    fn widen(&self, i: u64, s: u32) -> u64 {
        if s == self.sentinel() {
            self.wide[&i]
        } else {
            self.base + self.step * u64::from(s)
        }
    }

    /// Number of iterations.
    pub fn n_iters(&self) -> u64 {
        self.n
    }

    /// Bytes the table keeps per iteration besides its side map: 2 where
    /// the costs lie on a grid, else 4.
    pub fn bytes_per_iteration(&self) -> u32 {
        if self.packed {
            2
        } else {
            4
        }
    }

    /// The iterations whose cost is kept in the side map, with their
    /// costs, in iteration order.
    pub fn side_costs(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        self.wide.iter().map(|(&i, &c)| (i, c))
    }

    /// Workload name the table was built from.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sum of costs over `[start, end)` — the compute time of a chunk.
    /// A sentinel slot is summed as the least cost it can stand for and
    /// its side-map cost tops it up, so the sum overflows exactly when
    /// the costs' own sum does.
    #[inline]
    pub fn range_cost(&self, start: u64, end: u64) -> u64 {
        // The SS cells of a figure sweep ask for one iteration at a time.
        if end.wrapping_sub(start) == 1 {
            return self.cost(start);
        }
        assert!(start <= end && end <= self.n, "iterations {start}..{end} of {}", self.n);
        let slots = if !self.packed {
            self.words[start as usize..end as usize].iter().map(|&w| u64::from(w)).sum()
        } else {
            let (mut lo, mut hi, mut edges) = (start, end, 0);
            if lo % 2 == 1 && lo < hi {
                edges += self.slot(lo);
                lo += 1;
            }
            if hi % 2 == 1 && lo < hi {
                hi -= 1;
                edges += self.slot(hi);
            }
            // Whole words, both halves at once, so the sum vectorises.
            let words = &self.words[(lo / 2) as usize..(hi / 2) as usize];
            words.iter().map(|&w| u64::from((w & 0xFFFF) + (w >> 16))).sum::<u64>()
                + u64::from(edges)
        };
        let sum = (end - start) * self.base + self.step * slots;
        if self.wide.is_empty() {
            return sum;
        }
        let floor = self.base + self.step * u64::from(self.sentinel());
        self.wide.range(start..end).fold(sum, |sum, (_, &c)| sum + (c - floor))
    }

    /// Every cost, in iteration order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u64> + Clone + '_ {
        (0..self.n as usize).map(|i| self.widen(i as u64, self.slot(i as u64)))
    }

    /// Statistical summary of the iteration costs.
    pub fn stats(&self) -> WorkloadStats {
        WorkloadStats::from_costs(self.iter())
    }
}

/// Pack `words`, one cost slot each as [`CostSink`] filled them, to two
/// `u16` slots a word in place, on the grid `base + step · slot`, and
/// return `(base, step)`; or leave both untouched and return `None` when
/// the slots off the grid's two-byte range would cost more in the side
/// map than the packing saves. On return `wide` holds exactly the costs
/// of the sentinel slots.
fn pack(words: &mut Vec<u32>, wide: &mut BTreeMap<u64, u64>) -> Option<(u64, u64)> {
    let n = words.len();
    let (base, step, max) = grid(words, wide)?;
    // The least cost whose slot would not fit, if there is one.
    let limit = step.checked_mul(u64::from(PACKED_WIDE)).and_then(|s| s.checked_add(base));
    let oversize = match limit {
        Some(limit) if max >= limit => {
            let narrow = words.iter().filter(|&&c| c != WIDE && u64::from(c) >= limit).count();
            narrow + wide.values().filter(|&&c| c >= limit).count()
        }
        _ => 0,
    };
    if oversize as u64 * SIDE_ENTRY_BYTES >= 2 * n as u64 {
        return None;
    }
    let four_byte = std::mem::take(wide);
    let mut slot = |i: usize, raw: u32| {
        let c = if raw == WIDE { four_byte[&(i as u64)] } else { u64::from(raw) };
        match (c - base) / step {
            s if s < u64::from(PACKED_WIDE) => s as u32,
            _ => {
                wide.insert(i as u64, c);
                PACKED_WIDE
            }
        }
    };
    // Word `j` is written after words `2j` and `2j + 1` are read.
    for j in 0..n / 2 {
        let lo = slot(2 * j, words[2 * j]);
        words[j] = lo | slot(2 * j + 1, words[2 * j + 1]) << 16;
    }
    if n % 2 == 1 {
        words[n / 2] = slot(n - 1, words[n - 1]);
    }
    words.truncate(n.div_ceil(2));
    // A copy into a fresh `Vec<u16>` would hold both tables at once;
    // shrinking hands the tail back.
    words.shrink_to_fit();
    Some((base, step))
}

/// The grid the costs of `narrow` (with those of `wide` at its
/// sentinels) lie on, and the largest cost: `(base, step, max)`, `base`
/// the least cost and `step` the gcd of every cost's distance from it,
/// 1 when all are equal. `None` when there are no costs.
fn grid(narrow: &[u32], wide: &BTreeMap<u64, u64>) -> Option<(u64, u64, u64)> {
    let mut costs =
        narrow.iter().filter(|&&c| c != WIDE).map(|&c| u64::from(c)).chain(wide.values().copied());
    // Distances from the first cost have the same gcd as from the least.
    let first = costs.next()?;
    let (min, max, step) = costs.fold((first, first, 0), |(min, max, step), c| {
        let d = c.abs_diff(first);
        let step = if d.checked_rem(step) == Some(0) { step } else { gcd(step, d) };
        (min.min(c), max.max(c), step)
    });
    Some((min, step.max(1), max))
}

pub(crate) fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
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
}
