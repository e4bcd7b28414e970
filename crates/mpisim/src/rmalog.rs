//! RMA access logging — the raw material of the `rma-check` crate's
//! epoch-discipline and happens-before analyses.
//!
//! A [`Window`](crate::Window) put into recording mode with
//! [`Window::record_to`](crate::Window::record_to) appends one
//! [`RmaRecord`] per passive-target operation (lock/unlock of either
//! kind, `lock_all`/`unlock_all`, `sync`, `flush`, get/put including
//! ranges, `fetch_and_op`) to a shared [`RmaLog`].
//! Records carry the acting rank, the window id, and a *global* sequence
//! number drawn from one atomic counter, so logs from every rank of
//! every window interleave into a single totally-ordered trace.
//!
//! Sequencing discipline (what makes the log checkable):
//!
//! * lock events are stamped **after** the lock is granted;
//! * unlock events are stamped **before** the lock is released;
//!
//! so for a correctly-synchronized run the `[lock.seq, unlock.seq]`
//! intervals of an exclusive lock never overlap another rank's interval
//! on the same target — exactly the invariant the checker verifies.
//!
//! Recording is per handle: each rank attaches its own handle, which is
//! what backends do when their config asks for an RMA log.

use crate::window::LockKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Which read-modify-write primitive an [`RmaEvent::Atomic`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomicOpKind {
    /// `MPI_Fetch_and_op` (also logged for `MPI_Accumulate`, which the
    /// runtime implements as fetch-and-op with the result dropped).
    FetchAndOp,
    /// `MPI_Compare_and_swap`.
    CompareAndSwap,
}

/// One logged window operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmaEvent {
    /// Emitted once per rank when its handle enters recording mode;
    /// declares the window's shape to the checker.
    Attach {
        /// Window created with `MPI_Win_allocate_shared`.
        shared: bool,
        /// Size of the communicator the window spans.
        comm_size: u32,
    },
    /// `MPI_Win_lock` granted (also logged for a *successful*
    /// `try_lock_exclusive`; failed attempts are not access events).
    Lock {
        /// Lock kind requested.
        kind: LockKind,
        /// Target rank whose region the epoch covers.
        target: u32,
    },
    /// `MPI_Win_unlock` issued (stamped before the release).
    Unlock {
        /// Lock kind released.
        kind: LockKind,
        /// Target rank.
        target: u32,
    },
    /// `MPI_Win_lock_all` granted (a shared epoch on every region).
    LockAll,
    /// `MPI_Win_unlock_all` issued.
    UnlockAll,
    /// `MPI_Win_sync` — the unified-model memory barrier.
    Sync,
    /// `MPI_Win_flush(target)`.
    Flush {
        /// Target rank.
        target: u32,
    },
    /// A barrier over the window's communicator, reported by the
    /// application via [`Window::note_barrier`](crate::Window::note_barrier).
    Barrier,
    /// `MPI_Get` of `len` elements at (`target`, `disp`).
    Get {
        /// Target rank.
        target: u32,
        /// First displacement read.
        disp: usize,
        /// Elements read.
        len: usize,
    },
    /// `MPI_Put` of `len` elements at (`target`, `disp`).
    Put {
        /// Target rank.
        target: u32,
        /// First displacement written.
        disp: usize,
        /// Elements written.
        len: usize,
    },
    /// An RMA atomic on a single element.
    Atomic {
        /// Target rank.
        target: u32,
        /// Displacement operated on.
        disp: usize,
        /// Which primitive.
        op: AtomicOpKind,
    },
}

/// One entry of the access log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RmaRecord {
    /// Id of the window the operation targeted (unique per allocation
    /// within the process).
    pub win: u64,
    /// Rank of the origin process *within the window's communicator*.
    pub rank: u32,
    /// Global sequence number: a total order consistent with real time
    /// across all ranks and windows sharing one [`RmaLog`].
    pub seq: u64,
    /// The operation.
    pub event: RmaEvent,
}

#[derive(Default)]
struct Inner {
    seq: AtomicU64,
    events: Mutex<Vec<RmaRecord>>,
}

/// A shared, append-only RMA access log. Cloning is cheap and clones
/// append to the same log; the handle is `Send + Sync`, so one log can
/// collect every rank of a [`Universe::run`](crate::Universe::run).
#[derive(Clone, Default)]
pub struct RmaLog {
    inner: Arc<Inner>,
}

impl RmaLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event for (`win`, `rank`), stamping the next global
    /// sequence number. Used by instrumented [`Window`](crate::Window)
    /// handles; applications normally never call this directly, but
    /// tests may, to hand-build protocol traces.
    pub fn push(&self, win: u64, rank: u32, event: RmaEvent) {
        let seq = self.inner.seq.fetch_add(1, Ordering::SeqCst);
        let record = RmaRecord { win, rank, seq, event };
        self.inner.events.lock().unwrap_or_else(PoisonError::into_inner).push(record);
    }

    /// Snapshot of all records so far, sorted by sequence number.
    pub fn records(&self) -> Vec<RmaRecord> {
        let mut v = self.inner.events.lock().unwrap_or_else(PoisonError::into_inner).clone();
        v.sort_by_key(|r| r.seq);
        v
    }

    /// Number of records logged so far.
    pub fn len(&self) -> usize {
        self.inner.events.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for RmaLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RmaLog").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_assigns_increasing_seqs() {
        let log = RmaLog::new();
        log.push(0, 0, RmaEvent::Sync);
        log.push(0, 1, RmaEvent::Sync);
        let r = log.records();
        assert_eq!(r.len(), 2);
        assert!(r[0].seq < r[1].seq);
        assert_eq!(r[0].rank, 0);
        assert_eq!(r[1].rank, 1);
    }

    #[test]
    fn clones_share_the_log() {
        let log = RmaLog::new();
        let clone = log.clone();
        clone.push(3, 2, RmaEvent::LockAll);
        assert_eq!(log.len(), 1);
        assert_eq!(log.records()[0].win, 3);
    }
}
