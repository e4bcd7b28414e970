//! The local work queue: pure state-machine logic shared by the
//! thread-backed and virtual-time backends.
//!
//! A node's local queue holds the chunks its workers fetched from the
//! global queue but have not fully executed yet. Each deposited chunk
//! keeps its own intra-node scheduling state — the intra technique
//! treats every deposited chunk as a fresh (small) loop of `len` i
//! iterations over the node's `p` workers, which is exactly what an
//! OpenMP worksharing region over the chunk would see on the baseline
//! side.
//!
//! Usually the queue holds at most one chunk (workers only refill on
//! empty), but when several workers observe emptiness simultaneously
//! each may fetch a chunk, so the queue is a FIFO of ranges rather than
//! a single slot.

use dls::{ChunkCalculator, LoopSpec, SchedState, Technique};
use std::borrow::Borrow;

/// One deposited chunk with its intra-node scheduling progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedRange {
    /// First iteration of the deposited chunk.
    pub lo: u64,
    /// One past the last iteration of the deposited chunk.
    pub hi: u64,
    /// Intra-node scheduling step within this chunk.
    pub step: u64,
    /// Iterations of this chunk already handed out as sub-chunks.
    pub taken: u64,
}

impl QueuedRange {
    /// A fresh deposit covering `[lo, hi)`.
    pub fn new(lo: u64, hi: u64) -> Self {
        debug_assert!(lo < hi);
        Self { lo, hi, step: 0, taken: 0 }
    }

    /// Chunk length.
    pub fn len(&self) -> u64 {
        self.hi - self.lo
    }

    /// Iterations not yet handed out.
    pub fn remaining(&self) -> u64 {
        self.len() - self.taken
    }

    /// True when fully handed out.
    pub fn is_empty(&self) -> bool {
        self.taken >= self.len()
    }
}

/// A sub-chunk handed to a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubChunk {
    /// First iteration.
    pub start: u64,
    /// One past the last iteration.
    pub end: u64,
}

impl SubChunk {
    /// Number of iterations.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when empty (never returned by the queue).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Check that a run's executed ledger (`&LiveResult::executed`,
/// `&SimResult::executed`, or any other source of sub-chunks tagged
/// with the worker that ran them, in any order) covers `0..n` exactly
/// once.
pub fn exactly_once<I>(executed: I, n: u64) -> Result<(), dls::verify::PartitionError>
where
    I: IntoIterator,
    I::Item: Borrow<(u32, SubChunk)>,
{
    let chunks: Vec<dls::Chunk> = executed
        .into_iter()
        .map(|e| {
            let (_, s) = e.borrow();
            dls::Chunk { start: s.start, len: s.len(), step: 0 }
        })
        .collect();
    dls::verify::check_exactly_once(&chunks, n)
}

/// The node-local work queue state machine. Both backends wrap this in
/// their own storage/synchronisation (window slots + `MPI_Win_lock` in
/// `live`, a [`cluster_sim::ContendedLock`]-guarded struct in `sim`).
///
/// ```
/// use hier::queue::LocalQueue;
/// use dls::Technique;
///
/// let mut q = LocalQueue::new();
/// q.deposit(100, 200); // a chunk fetched from the global queue
/// let sub = q.take_sub_chunk(&Technique::static_(), 4).unwrap();
/// assert_eq!((sub.start, sub.end), (100, 125)); // 1/4 of the deposit
/// ```
#[derive(Clone, Debug, Default)]
pub struct LocalQueue {
    ranges: std::collections::VecDeque<QueuedRange>,
    /// Total sub-chunks handed out (intra-level scheduling steps).
    pub sub_chunks: u64,
    /// Total chunks deposited.
    pub deposits: u64,
}

impl LocalQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no un-taken iterations remain.
    pub fn is_empty(&self) -> bool {
        self.ranges.iter().all(|r| r.is_empty())
    }

    /// Iterations currently queued and not handed out.
    pub fn remaining(&self) -> u64 {
        self.ranges.iter().map(|r| r.remaining()).sum()
    }

    /// Deposit a chunk fetched from the global queue.
    pub fn deposit(&mut self, lo: u64, hi: u64) {
        debug_assert!(lo < hi, "empty deposit");
        self.ranges.push_back(QueuedRange::new(lo, hi));
        self.deposits += 1;
    }

    /// Take the next sub-chunk using `intra` over a node of `p` workers,
    /// or `None` when the queue is empty. The intra technique sees each
    /// deposited chunk as a loop of `range.len()` iterations.
    pub fn take_sub_chunk(&mut self, intra: &Technique, p: u32) -> Option<SubChunk> {
        self.take_sub_chunk_for(intra, p, dls::technique::WorkerCtx::default())
    }

    /// Like [`LocalQueue::take_sub_chunk`] but with an explicit worker
    /// context — weighted techniques (WF) scale the sub-chunk by
    /// `ctx.weight`.
    pub fn take_sub_chunk_for(
        &mut self,
        intra: &Technique,
        p: u32,
        ctx: dls::technique::WorkerCtx,
    ) -> Option<SubChunk> {
        // Drop exhausted ranges from the front.
        while self.ranges.front().is_some_and(|r| r.is_empty()) {
            self.ranges.pop_front();
        }
        let range = self.ranges.front_mut()?;
        let spec = LoopSpec::new(range.len(), p);
        let state = SchedState { step: range.step, scheduled: range.taken };
        let size = intra.chunk_size(&spec, state, ctx).clamp(1, range.remaining());
        let start = range.lo + range.taken;
        range.taken += size;
        range.step += 1;
        self.sub_chunks += 1;
        Some(SubChunk { start, end: start + size })
    }

    /// Remove and return every not-yet-handed-out iteration range —
    /// the un-taken tail of each deposited chunk. Used by the recovery
    /// layer when a node loses its last live worker: the stranded
    /// ranges migrate to a surviving node's queue for re-execution.
    pub fn drain_remaining(&mut self) -> Vec<(u64, u64)> {
        let out =
            self.ranges.iter().filter(|r| !r.is_empty()).map(|r| (r.lo + r.taken, r.hi)).collect();
        self.ranges.clear();
        out
    }
}

/// Sub-chunk size for a deposited chunk of `range_len` iterations over
/// `p` workers at intra state `(step, taken)` — the raw form of
/// [`LocalQueue::take_sub_chunk`] used where the queue lives in window
/// slots rather than a Rust struct (the `live` backend).
pub fn sub_chunk_size(intra: &Technique, range_len: u64, p: u32, step: u64, taken: u64) -> u64 {
    sub_chunk_size_for(intra, range_len, p, step, taken, dls::technique::WorkerCtx::default())
}

/// [`sub_chunk_size`] with an explicit worker context (weighted and
/// adaptive techniques).
pub fn sub_chunk_size_for(
    intra: &Technique,
    range_len: u64,
    p: u32,
    step: u64,
    taken: u64,
    ctx: dls::technique::WorkerCtx,
) -> u64 {
    // Callers may race past the end of a range (two workers observing the
    // same slot before either CAS lands); an exhausted range yields 0
    // rather than underflowing `range_len - taken`.
    let remaining = range_len.saturating_sub(taken);
    if remaining == 0 {
        return 0;
    }
    let spec = LoopSpec::new(range_len, p);
    let state = SchedState { step, scheduled: taken };
    intra.chunk_size(&spec, state, ctx).clamp(1, remaining)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls::Technique;

    #[test]
    fn empty_queue_yields_nothing() {
        let mut q = LocalQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.take_sub_chunk(&Technique::gss(), 4), None);
    }

    #[test]
    fn static_intra_divides_chunk_evenly() {
        let mut q = LocalQueue::new();
        q.deposit(100, 200); // chunk of 100 over 4 workers -> 4 x 25
        let t = Technique::static_();
        let subs: Vec<_> = std::iter::from_fn(|| q.take_sub_chunk(&t, 4)).collect();
        assert_eq!(subs.len(), 4);
        assert!(subs.iter().all(|s| s.len() == 25));
        assert_eq!(subs[0], SubChunk { start: 100, end: 125 });
        assert_eq!(subs[3], SubChunk { start: 175, end: 200 });
        assert!(q.is_empty());
    }

    #[test]
    fn ss_intra_one_iteration_each() {
        let mut q = LocalQueue::new();
        q.deposit(0, 5);
        let t = Technique::ss();
        let subs: Vec<_> = std::iter::from_fn(|| q.take_sub_chunk(&t, 8)).collect();
        assert_eq!(subs.len(), 5);
        assert!(subs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn gss_intra_decreasing_within_chunk() {
        let mut q = LocalQueue::new();
        q.deposit(0, 100);
        let t = Technique::gss();
        let sizes: Vec<u64> =
            std::iter::from_fn(|| q.take_sub_chunk(&t, 4)).map(|s| s.len()).collect();
        assert_eq!(sizes[0], 25); // ceil(100/4)
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(sizes.iter().sum::<u64>(), 100);
    }

    #[test]
    fn sub_chunks_cover_deposits_exactly() {
        let mut q = LocalQueue::new();
        q.deposit(10, 60);
        q.deposit(200, 230);
        let t = Technique::fac2();
        let mut covered = Vec::new();
        while let Some(s) = q.take_sub_chunk(&t, 3) {
            covered.extend(s.start..s.end);
        }
        let mut expected: Vec<u64> = (10..60).chain(200..230).collect();
        expected.sort_unstable();
        covered.sort_unstable();
        assert_eq!(covered, expected);
        assert_eq!(q.deposits, 2);
    }

    #[test]
    fn ranges_served_fifo() {
        let mut q = LocalQueue::new();
        q.deposit(0, 10);
        q.deposit(100, 110);
        let t = Technique::static_();
        let first = q.take_sub_chunk(&t, 1).unwrap();
        assert_eq!(first, SubChunk { start: 0, end: 10 });
        let second = q.take_sub_chunk(&t, 1).unwrap();
        assert_eq!(second, SubChunk { start: 100, end: 110 });
    }

    #[test]
    fn each_deposit_gets_fresh_intra_state() {
        // STATIC over p=2: each deposit of 10 splits 5+5, not carried over.
        let mut q = LocalQueue::new();
        q.deposit(0, 10);
        q.deposit(10, 20);
        let t = Technique::static_();
        let sizes: Vec<u64> =
            std::iter::from_fn(|| q.take_sub_chunk(&t, 2)).map(|s| s.len()).collect();
        assert_eq!(sizes, vec![5, 5, 5, 5]);
    }

    #[test]
    fn sub_chunk_size_exhausted_range_returns_zero() {
        // Regression: `taken >= range_len` used to underflow
        // `range_len - taken` (debug panic) and feed `clamp(1, 0)`
        // (release panic). An exhausted range must yield 0.
        let t = Technique::ss();
        assert_eq!(sub_chunk_size(&t, 100, 4, 100, 100), 0);
        assert_eq!(sub_chunk_size(&t, 100, 4, 101, 150), 0);
        assert_eq!(sub_chunk_size(&t, 0, 4, 0, 0), 0);
        // A live range is unaffected.
        assert_eq!(sub_chunk_size(&t, 100, 4, 0, 99), 1);
        assert!(sub_chunk_size(&Technique::gss(), 100, 4, 0, 0) > 0);
    }

    #[test]
    fn drain_remaining_returns_untaken_tails() {
        let mut q = LocalQueue::new();
        q.deposit(0, 10);
        q.deposit(50, 60);
        q.take_sub_chunk(&Technique::static_(), 2).unwrap(); // takes [0, 5)
        assert_eq!(q.drain_remaining(), vec![(5, 10), (50, 60)]);
        assert!(q.is_empty());
        assert_eq!(q.drain_remaining(), Vec::new());
    }

    #[test]
    fn remaining_tracks_progress() {
        let mut q = LocalQueue::new();
        q.deposit(0, 8);
        assert_eq!(q.remaining(), 8);
        q.take_sub_chunk(&Technique::static_(), 4).unwrap();
        assert_eq!(q.remaining(), 6);
    }
}
