//! The local work queue as a Rust value: the storage the virtual-time
//! executors and the master-worker models keep a node's deposits in.
//! What a sub-chunk *is* — the take, the empty probe, the deposit —
//! is decided in [`crate::protocol`]; [`LocalQueue`] is one of its
//! [`NodeQueue`](crate::protocol::NodeQueue)s, beside the live
//! executor's window slots.
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

use dls::Technique;
use std::borrow::Borrow;
use std::convert::Infallible;

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

/// A node's deposits as a FIFO, guarded in `sim` by a
/// [`cluster_sim::ContendedLock`]; its takes go through
/// [`crate::protocol::take`].
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

    /// Deposit a chunk fetched from the global queue.
    pub fn deposit(&mut self, lo: u64, hi: u64) {
        debug_assert!(lo < hi, "empty deposit");
        self.ranges.push_back(QueuedRange::new(lo, hi));
    }

    /// [`crate::protocol::take`] for an unweighted worker: the next
    /// sub-chunk using `intra` over a node of `p` workers, or `None`
    /// when the queue is empty.
    pub fn take_sub_chunk(&mut self, intra: &Technique, p: u32) -> Option<SubChunk> {
        let Ok(sub) = crate::protocol::take(self, intra, p, dls::technique::WorkerCtx::default());
        sub
    }

    /// Remove and return every not-yet-handed-out iteration range —
    /// the un-taken tail of each deposited chunk. Used by the recovery
    /// layer when a node loses its last live worker: the stranded
    /// ranges migrate to a surviving node's queue for re-execution.
    pub(crate) fn drain_remaining(&mut self) -> Vec<(u64, u64)> {
        let out =
            self.ranges.iter().filter(|r| !r.is_empty()).map(|r| (r.lo + r.taken, r.hi)).collect();
        self.ranges.clear();
        out
    }
}

impl crate::protocol::NodeQueue for LocalQueue {
    type Error = Infallible;

    fn front(&mut self) -> Result<Option<QueuedRange>, Infallible> {
        while self.ranges.front().is_some_and(|r| r.is_empty()) {
            self.ranges.pop_front();
        }
        Ok(self.ranges.front().copied())
    }

    fn advance(&mut self, front: QueuedRange) -> Result<(), Infallible> {
        *self.ranges.front_mut().expect("advance behind a front range") = front;
        Ok(())
    }

    fn push(&mut self, lo: u64, hi: u64) -> Result<(), Infallible> {
        self.deposit(lo, hi);
        Ok(())
    }
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
    fn drain_remaining_returns_untaken_tails() {
        let mut q = LocalQueue::new();
        q.deposit(0, 10);
        q.deposit(50, 60);
        q.take_sub_chunk(&Technique::static_(), 2).unwrap(); // takes [0, 5)
        assert_eq!(q.drain_remaining(), vec![(5, 10), (50, 60)]);
        assert!(q.is_empty());
        assert_eq!(q.drain_remaining(), Vec::new());
    }
}
