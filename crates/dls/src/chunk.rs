//! Core data types shared by every technique: loop specification, shared
//! scheduling state, and the chunk handed to a worker.

use crate::technique::{ChunkCalculator, WorkerCtx};
use std::fmt;

/// A half-open range `[start, start + len)` of loop iterations assigned to
/// one worker at one scheduling step.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Chunk {
    /// First iteration index of the chunk.
    pub start: u64,
    /// Number of iterations in the chunk. Always non-zero for a chunk
    /// returned by a scheduler.
    pub len: u64,
    /// The scheduling step at which this chunk was obtained (0-based,
    /// global across all workers of the level that produced it).
    pub step: u64,
}

impl Chunk {
    /// One-past-the-end iteration index. Saturates at `u64::MAX`: a
    /// scheduler never produces `start + len > n_iters`, but a
    /// hand-built chunk must not wrap into a *smaller* end than its
    /// start (see [`crate::verify::PartitionError::Overflow`]).
    #[inline]
    pub fn end(&self) -> u64 {
        self.start.saturating_add(self.len)
    }

    /// Iterator over the iteration indices contained in the chunk.
    #[inline]
    pub fn iter(&self) -> std::ops::Range<u64> {
        self.start..self.end()
    }

    /// True if `index` falls inside this chunk.
    #[inline]
    pub fn contains(&self, index: u64) -> bool {
        index >= self.start && index < self.end()
    }
}

impl fmt::Debug for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Chunk[{}..{}) @step {}", self.start, self.end(), self.step)
    }
}

/// Immutable description of the loop being scheduled, fixed before
/// execution starts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoopSpec {
    /// Total number of loop iterations `N`.
    pub n_iters: u64,
    /// Number of workers `P` the technique divides work across. At the
    /// inter-node level this is the number of compute nodes; at the
    /// intra-node level it is the number of ranks/threads in the node.
    pub n_workers: u32,
    /// Mean per-iteration execution time, `mu`. Only FAC and FSC consult
    /// it; expressed in arbitrary but consistent time units.
    pub mean_iter_time: f64,
    /// Standard deviation of per-iteration execution time, `sigma`. Only
    /// FAC and FSC consult it.
    pub sigma_iter_time: f64,
    /// Per-chunk scheduling overhead `h`, used by FSC.
    pub overhead: f64,
}

impl LoopSpec {
    /// A specification with the statistical parameters defaulted
    /// (`mu = 1`, `sigma = 0`, `h = 0`); sufficient for every technique
    /// except FAC and FSC, which degrade gracefully to FAC2-like and
    /// STATIC-like behaviour respectively.
    pub fn new(n_iters: u64, n_workers: u32) -> Self {
        Self { n_iters, n_workers, mean_iter_time: 1.0, sigma_iter_time: 0.0, overhead: 0.0 }
    }

    /// Attach measured iteration-time statistics (used by FAC, FSC).
    pub fn with_stats(mut self, mean: f64, sigma: f64) -> Self {
        self.mean_iter_time = mean;
        self.sigma_iter_time = sigma;
        self
    }

    /// Attach the per-chunk scheduling overhead (used by FSC).
    pub fn with_overhead(mut self, h: f64) -> Self {
        self.overhead = h;
        self
    }

    /// Number of workers as `u64`, never zero (clamped to 1).
    #[inline]
    pub fn p(&self) -> u64 {
        u64::from(self.n_workers.max(1))
    }
}

/// The shared scheduling state every worker reads and advances atomically.
///
/// This is exactly the pair the paper stores in the global and local work
/// queues: *"information regarding the latest scheduling step and the total
/// scheduled loop iterations"*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedState {
    /// The next scheduling step to be handed out (0-based).
    pub step: u64,
    /// Total iterations assigned so far; the next chunk starts here.
    pub scheduled: u64,
}

impl SchedState {
    /// Fresh state at loop start.
    pub const START: SchedState = SchedState { step: 0, scheduled: 0 };

    /// Iterations not yet assigned.
    #[inline]
    pub fn remaining(&self, spec: &LoopSpec) -> u64 {
        spec.n_iters.saturating_sub(self.scheduled)
    }

    /// True once every iteration has been assigned.
    #[inline]
    pub fn exhausted(&self, spec: &LoopSpec) -> bool {
        self.scheduled >= spec.n_iters
    }

    /// Advance the state by a chunk of `size` iterations and return the
    /// chunk. `size` is clamped to the remaining iterations; returns
    /// `None` when the loop is exhausted.
    #[inline]
    pub fn take(&mut self, spec: &LoopSpec, size: u64) -> Option<Chunk> {
        let remaining = self.remaining(spec);
        if remaining == 0 {
            return None;
        }
        let len = size.clamp(1, remaining);
        let chunk = Chunk { start: self.scheduled, len, step: self.step };
        // `len <= remaining` keeps `scheduled <= n_iters`; `step` counts
        // chunks, each of length >= 1, so it stays <= n_iters too. The
        // saturating forms encode that neither counter can wrap.
        self.step = self.step.saturating_add(1);
        self.scheduled = self.scheduled.saturating_add(len);
        Some(chunk)
    }

    /// One unweighted scheduling step of `calc`: size the chunk at this
    /// state and [`take`](SchedState::take) it, or `None` once every
    /// iteration is assigned. The step every single-queue schedule is
    /// a loop over.
    #[inline]
    pub fn next_chunk<C: ChunkCalculator + ?Sized>(
        &mut self,
        spec: &LoopSpec,
        calc: &C,
    ) -> Option<Chunk> {
        if self.exhausted(spec) {
            return None;
        }
        let size = calc.chunk_size(spec, *self, WorkerCtx::default());
        self.take(spec, size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_end_and_contains() {
        let c = Chunk { start: 10, len: 5, step: 3 };
        assert_eq!(c.end(), 15);
        assert!(c.contains(10));
        assert!(c.contains(14));
        assert!(!c.contains(15));
        assert!(!c.contains(9));
        assert_eq!(c.iter().count(), 5);
    }

    #[test]
    fn chunk_debug_format() {
        let c = Chunk { start: 0, len: 4, step: 0 };
        assert_eq!(format!("{c:?}"), "Chunk[0..4) @step 0");
    }

    #[test]
    fn spec_defaults() {
        let s = LoopSpec::new(100, 4);
        assert_eq!(s.n_iters, 100);
        assert_eq!(s.p(), 4);
        assert_eq!(s.mean_iter_time, 1.0);
        assert_eq!(s.sigma_iter_time, 0.0);
    }

    #[test]
    fn spec_zero_workers_clamped() {
        let s = LoopSpec::new(100, 0);
        assert_eq!(s.p(), 1);
    }

    #[test]
    fn state_take_clamps_and_advances() {
        let spec = LoopSpec::new(10, 2);
        let mut st = SchedState::START;
        let c = st.take(&spec, 7).unwrap();
        assert_eq!((c.start, c.len, c.step), (0, 7, 0));
        let c = st.take(&spec, 7).unwrap();
        assert_eq!((c.start, c.len, c.step), (7, 3, 1));
        assert!(st.exhausted(&spec));
        assert!(st.take(&spec, 7).is_none());
    }

    #[test]
    fn state_take_zero_size_becomes_one() {
        let spec = LoopSpec::new(3, 2);
        let mut st = SchedState::START;
        let c = st.take(&spec, 0).unwrap();
        assert_eq!(c.len, 1);
    }

    #[test]
    fn state_remaining() {
        let spec = LoopSpec::new(5, 1);
        let mut st = SchedState::START;
        assert_eq!(st.remaining(&spec), 5);
        st.take(&spec, 2);
        assert_eq!(st.remaining(&spec), 3);
    }
}
