//! RMA windows: passive-target one-sided operations and MPI-3
//! shared-memory windows.
//!
//! A window is a buffer of `i64` elements contributed per rank (the only
//! element type the hierarchical DLS queues need — scheduling step and
//! scheduled-iteration counters). An epoch pays for the barriers MPI
//! asks for and no others: `lock`/`unlock` acquire and release through
//! the lock words, `sync` and `flush` are the full fences of the unified
//! memory model, `fetch_and_op` is a sequentially consistent
//! read-modify-write, and `put`/`get` are release stores and acquire
//! loads that order nothing by themselves (the contract is on
//! [`Window`]; DESIGN.md "What the live hot path costs" has the table of
//! every atomic, the edge that carries it and the test that pins it).

use crate::comm::{Comm, TAG_WIN};
use crate::error::{Error, Result};
use crate::rmalog::{AtomicOpKind, RmaEvent, RmaLog};
use crate::sync::QueuedLock;
use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide window id source, so every allocation (across all
/// universes a test binary runs) gets a distinct id in RMA logs.
static NEXT_WIN_ID: AtomicU64 = AtomicU64::new(0);

/// `MPI_Win_lock` lock type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// `MPI_LOCK_EXCLUSIVE`.
    Exclusive,
    /// `MPI_LOCK_SHARED`.
    Shared,
}

/// Predefined op for `MPI_Fetch_and_op`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmaOp {
    /// `MPI_SUM` — fetch-and-add.
    Sum,
    /// `MPI_REPLACE` — atomic swap.
    Replace,
    /// `MPI_MIN`.
    Min,
    /// `MPI_MAX`.
    Max,
    /// `MPI_NO_OP` — atomic read.
    NoOp,
}

struct WinState {
    /// Process-unique id, stamped into RMA log records.
    id: u64,
    data: Vec<AtomicI64>,
    /// `(offset, len)` of each rank's region within `data`.
    regions: Vec<(usize, usize)>,
    /// One passive-target lock per rank region.
    locks: Vec<QueuedLock>,
    /// Comm rank of each region lock's current *exclusive* holder, or
    /// -1. Recovery code uses this to decide whether a stuck lock is
    /// held by a dead rank before revoking it.
    holders: Vec<AtomicI64>,
    shared: bool,
}

/// Snapshot of one rank's window activity counters — the per-rank view
/// of the contention the paper attributes `X+SS` slowdowns to. Taken
/// with [`Window::rank_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankWinStats {
    /// Successful `MPI_Win_lock` epochs this rank opened (shared and
    /// exclusive, including `try_lock` successes and one per target of a
    /// `lock_all`). Exact, like every count here.
    pub lock_acquisitions: u64,
    /// Failed poll attempts: looks at a lock (spinning, after a wake-up,
    /// or one `try_lock` failure) that found it unavailable or an earlier
    /// ticket still queued — this rank's share of the lock-attempt
    /// message traffic, counted as [`LockStats::polls`](crate::LockStats)
    /// counts it. A [`Window::compare_and_swap`] that found another
    /// value than the one it compared against counts too: it is a
    /// lock-free take that lost its race to a peer and must retry
    /// against the value found, the lock-free queue's share of the same
    /// contention. It counts the same whether the compared value came
    /// from a read or from the caller's own last compare-and-swap.
    pub failed_polls: u64,
    /// Nanoseconds this rank spent blocked *acquiring* window locks,
    /// from its first failed poll to the grant; an acquire that never
    /// polls adds nothing. Exact: every blocked acquire is timed.
    pub lock_wait_ns: u64,
    /// Nanoseconds this rank spent *inside* `lock`→`unlock` epochs:
    /// measured for each of the handle's first 64 epochs, then estimated
    /// from every 16th, whose duration counts 16 times — an uncontended
    /// epoch is shorter than the two clock reads that would time it.
    /// `lock_all`→`unlock_all` is an access epoch that excludes nobody
    /// but exclusive lockers and may span a whole run; it is never
    /// timed.
    pub lock_held_ns: u64,
    /// RMA atomic operations issued (`MPI_Fetch_and_op`,
    /// `MPI_Compare_and_swap`).
    pub rma_atomic_ops: u64,
    /// `MPI_Put` operations issued (a multi-element put counts once).
    pub puts: u64,
    /// `MPI_Get` operations issued (a multi-element get counts once).
    pub gets: u64,
    /// Recovery actions this rank performed: expired leases it
    /// reclaimed plus dead-holder locks it repaired
    /// ([`Window::note_reclaim`] / [`Window::repair_lock`]).
    pub reclaims: u64,
}

/// Epochs a handle times exactly before it starts sampling: short runs
/// and tests read a true `lock_held_ns`.
const EXACT_EPOCHS: u64 = 64;

/// Past the exact prefix one epoch in this many reads the clock, and its
/// duration stands for all of them. Two clock reads cost about as much
/// as the rest of an uncontended epoch, so at 16 the estimate costs a
/// few percent of what it measures (DESIGN.md, "What the live hot path
/// costs").
const SAMPLE_EVERY: u64 = 16;

/// `held_since` value of an open epoch nobody stamped.
const UNTIMED: u64 = 1;

/// Advance a counter only its owning rank's thread writes: a plain load
/// and store where `fetch_add` would be a locked read-modify-write.
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed).wrapping_add(by), Ordering::Relaxed);
}

/// This rank's cumulative counters plus the open-epoch bookkeeping the
/// held-time measurement needs. One per rank per window, shared by
/// clones of the same handle and written by that rank's thread alone
/// (the contract on [`Window`]).
struct RankLocal {
    /// Also the index of the next epoch, which decides whether it is
    /// stamped.
    lock_acquisitions: AtomicU64,
    failed_polls: AtomicU64,
    lock_wait_ns: AtomicU64,
    lock_held_ns: AtomicU64,
    rma_atomic_ops: AtomicU64,
    puts: AtomicU64,
    gets: AtomicU64,
    reclaims: AtomicU64,
    /// Zero of the `held_since` clock.
    base: Instant,
    /// One slot per target: 0 while this rank holds no epoch there,
    /// [`UNTIMED`] for an open epoch that read no clock, otherwise
    /// `(grant time in ns since base + 1) << 1`, low bit set when the
    /// epoch stands for [`SAMPLE_EVERY`] of them. The slot is also how
    /// `unlock` tells an epoch this handle opened from somebody else's.
    held_since: Box<[AtomicU64]>,
}

impl RankLocal {
    fn new(targets: usize) -> Self {
        Self {
            lock_acquisitions: AtomicU64::new(0),
            failed_polls: AtomicU64::new(0),
            lock_wait_ns: AtomicU64::new(0),
            lock_held_ns: AtomicU64::new(0),
            rma_atomic_ops: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            reclaims: AtomicU64::new(0),
            base: Instant::now(),
            held_since: (0..targets).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Account a granted epoch on `target`; `waited` is what
    /// [`QueuedLock::acquire`] returned. A `timed` epoch is stamped when
    /// its index is in the exact prefix or on the sampling stride; the
    /// clock is read only for a stamp or to close a blocked wait.
    fn granted(&self, target: usize, (polls, blocked_at): (u64, Option<Instant>), timed: bool) {
        let n = self.lock_acquisitions.load(Ordering::Relaxed);
        self.lock_acquisitions.store(n.wrapping_add(1), Ordering::Relaxed);
        if let Some(since) = blocked_at {
            bump(&self.failed_polls, polls);
            bump(&self.lock_wait_ns, since.elapsed().as_nanos() as u64);
        }
        let sampled = n >= EXACT_EPOCHS;
        let slot = if timed && (!sampled || n % SAMPLE_EVERY == 0) {
            let at = self.base.elapsed().as_nanos() as u64;
            (at + 1) << 1 | u64::from(sampled)
        } else {
            UNTIMED
        };
        self.held_since[target].store(slot, Ordering::Relaxed);
    }

    /// Whether this rank holds an epoch on `target`.
    fn holds(&self, target: usize) -> bool {
        self.held_since[target].load(Ordering::Relaxed) != 0
    }

    /// Close the epoch on `target` and, if it was stamped, account its
    /// held time at the weight it stands for.
    fn released(&self, target: usize) {
        let slot = self.held_since[target].load(Ordering::Relaxed);
        self.held_since[target].store(0, Ordering::Relaxed);
        if slot > UNTIMED {
            let granted = (slot >> 1) - 1;
            let weight = if slot & 1 == 1 { SAMPLE_EVERY } else { 1 };
            let now = self.base.elapsed().as_nanos() as u64;
            bump(&self.lock_held_ns, weight * now.saturating_sub(granted));
        }
    }

    fn snapshot(&self) -> RankWinStats {
        RankWinStats {
            lock_acquisitions: self.lock_acquisitions.load(Ordering::Relaxed),
            failed_polls: self.failed_polls.load(Ordering::Relaxed),
            lock_wait_ns: self.lock_wait_ns.load(Ordering::Relaxed),
            lock_held_ns: self.lock_held_ns.load(Ordering::Relaxed),
            rma_atomic_ops: self.rma_atomic_ops.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            reclaims: self.reclaims.load(Ordering::Relaxed),
        }
    }
}

/// A window handle held by one rank. Cloning is cheap, and clones stay
/// on the creating rank: a handle and its clones are used by one thread
/// at a time. The per-rank counters behind [`Window::rank_stats`] are
/// advanced with plain loads and stores on that contract — atomics, so
/// a handle misused from two threads loses counts, nothing else. The
/// locks, the data and the RMA log are shared between ranks and make no
/// such assumption.
///
/// # Visibility
///
/// As in MPI, [`Window::put`] and [`Window::get`] are defined inside an
/// access epoch and are ordered against other ranks by what delimits or
/// punctuates it — [`Window::lock`]/[`Window::unlock`] on the same
/// target, [`Window::sync`], [`Window::flush`], or a barrier on the
/// communicator — never by the call itself. Between two ranks that
/// synchronise in one of those ways, puts and gets are sequentially
/// consistent. A `put` is a release store and a `get` an acquire load, so
/// a rank that *observes* a value also observes everything its writer
/// put before it (flag-then-data works without the lock); two ranks that
/// each `put` and then `get` the other's slot need a `sync` or `flush` in
/// between, or both may read the old value. [`Window::fetch_and_op`] is
/// a sequentially consistent read-modify-write wherever it is called.
///
/// ```
/// use mpisim::{RmaOp, Topology, Universe, Window};
///
/// let totals = Universe::run(Topology::single_node(4), |p| {
///     let w = p.world();
///     let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
///     win.fetch_and_op(0, 0, 1, RmaOp::Sum).unwrap(); // everyone increments
///     w.barrier();
///     win.get(0, 0).unwrap()
/// });
/// assert_eq!(totals, vec![4; 4]);
/// ```
#[derive(Clone)]
pub struct Window {
    state: Arc<WinState>,
    comm: Comm,
    rank: Arc<RankLocal>,
    /// Recording mode: when set, every passive-target operation appends
    /// an [`RmaEvent`] for this rank to the log. Clones of a recording
    /// handle keep recording to the same log.
    log: Option<RmaLog>,
}

impl Window {
    /// `MPI_Win_create`-style collective allocation: every rank
    /// contributes `local_len` elements (may differ per rank), zeroed.
    pub fn allocate(comm: &Comm, local_len: usize) -> Result<Window> {
        Self::build(comm, local_len, false)
    }

    /// `MPI_Win_allocate_shared`: like [`Window::allocate`] but requires
    /// the communicator to be confined to one compute node.
    pub fn allocate_shared(comm: &Comm, local_len: usize) -> Result<Window> {
        if comm.node_scope().is_none() {
            return Err(Error::NotShared);
        }
        Self::build(comm, local_len, true)
    }

    fn build(comm: &Comm, local_len: usize, shared: bool) -> Result<Window> {
        let lens: Vec<usize> = comm.allgather(local_len)?;
        let state = if comm.rank() == 0 {
            let mut regions = Vec::with_capacity(lens.len());
            let mut offset = 0usize;
            for &len in &lens {
                regions.push((offset, len));
                offset += len;
            }
            let state = Arc::new(WinState {
                id: NEXT_WIN_ID.fetch_add(1, Ordering::Relaxed),
                data: (0..offset).map(|_| AtomicI64::new(0)).collect(),
                locks: (0..lens.len()).map(|_| QueuedLock::new()).collect(),
                holders: (0..lens.len()).map(|_| AtomicI64::new(-1)).collect(),
                regions,
                shared,
            });
            for dest in 1..comm.size() {
                comm.send(dest, TAG_WIN, Arc::clone(&state))?;
            }
            state
        } else {
            let (_, _, state): (_, _, Arc<WinState>) = comm.recv(Some(0), Some(TAG_WIN))?;
            state
        };
        let rank = Arc::new(RankLocal::new(lens.len()));
        Ok(Window { state, comm: comm.clone(), rank, log: None })
    }

    /// The communicator the window was created over.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Enter recording mode: append every subsequent passive-target
    /// operation of *this rank's handle* (and its clones) to `log`.
    /// Emits one [`RmaEvent::Attach`] declaring the window's shape.
    /// Every rank that should appear in the log must call this on its
    /// own handle, normally right after allocation.
    pub fn record_to(&mut self, log: &RmaLog) {
        self.log = Some(log.clone());
        self.rec(RmaEvent::Attach { shared: self.state.shared, comm_size: self.comm.size() });
    }

    /// Report an application-level barrier over the window's
    /// communicator to the RMA log (no-op when not recording), marking
    /// a collective synchronization point; call it right after
    /// `comm().barrier()`.
    pub fn note_barrier(&self) {
        self.rec(RmaEvent::Barrier);
    }

    #[inline]
    fn rec(&self, event: RmaEvent) {
        if let Some(log) = &self.log {
            log.push(self.state.id, self.comm.rank(), event);
        }
    }

    #[inline]
    fn region(&self, target: u32) -> Result<(usize, usize)> {
        self.state
            .regions
            .get(target as usize)
            .copied()
            .ok_or(Error::RankOutOfRange { rank: target, size: self.comm.size() })
    }

    #[inline]
    fn slot(&self, target: u32, disp: usize) -> Result<&AtomicI64> {
        let (offset, len) = self.region(target)?;
        if disp >= len {
            return Err(Error::OffsetOutOfRange { offset: disp, len });
        }
        Ok(&self.state.data[offset + disp])
    }

    /// ULFM-style failure guard: on a non-shared window, an operation
    /// targeting a dead rank's region reports [`Error::RankFailed`]
    /// instead of proceeding (real one-sided traffic to a failed
    /// process would error or hang). Shared windows stay fully
    /// accessible — the OS keeps the segment mapped while any node peer
    /// lives, which is exactly what makes node-local lease recovery
    /// possible.
    #[inline]
    fn check_alive(&self, target: u32) -> Result<()> {
        if !self.state.shared && self.comm.is_failed(target) {
            return Err(Error::RankFailed { rank: target });
        }
        Ok(())
    }

    /// `MPI_Win_lock(kind, target)`: begin a passive-target access epoch
    /// on `target`'s region. Blocks until granted.
    pub fn lock(&self, kind: LockKind, target: u32) -> Result<()> {
        self.check_alive(target)?;
        let lock = self
            .state
            .locks
            .get(target as usize)
            .ok_or(Error::RankOutOfRange { rank: target, size: self.comm.size() })?;
        let waited = lock.acquire(kind == LockKind::Shared);
        if kind == LockKind::Exclusive {
            // Release, paired with the acquire loads of
            // `exclusive_holder` / `repair_lock`: whoever reads this rank
            // here also sees what it did before it asked for the lock.
            self.state.holders[target as usize]
                .store(i64::from(self.comm.rank()), Ordering::Release);
        }
        self.rank.granted(target as usize, waited, true);
        // Stamped after the grant: a correctly-disciplined exclusive
        // epoch's [Lock.seq, Unlock.seq] interval cannot overlap another
        // rank's on the same target.
        self.rec(RmaEvent::Lock { kind, target });
        Ok(())
    }

    /// Nonblocking exclusive lock attempt (an extension real MPI lacks;
    /// useful for tests and backoff schemes). Returns `true` when the
    /// lock was acquired — the caller must then
    /// `unlock(LockKind::Exclusive, target)`.
    pub fn try_lock_exclusive(&self, target: u32) -> Result<bool> {
        self.check_alive(target)?;
        let lock = self
            .state
            .locks
            .get(target as usize)
            .ok_or(Error::RankOutOfRange { rank: target, size: self.comm.size() })?;
        if lock.try_lock_exclusive() {
            self.state.holders[target as usize]
                .store(i64::from(self.comm.rank()), Ordering::Release);
            self.rank.granted(target as usize, (0, None), true);
            self.rec(RmaEvent::Lock { kind: LockKind::Exclusive, target });
            Ok(true)
        } else {
            bump(&self.rank.failed_polls, 1);
            Ok(false)
        }
    }

    /// `MPI_Win_unlock(target)`: end the epoch begun by [`Window::lock`].
    pub fn unlock(&self, kind: LockKind, target: u32) -> Result<()> {
        let lock = self
            .state
            .locks
            .get(target as usize)
            .ok_or(Error::RankOutOfRange { rank: target, size: self.comm.size() })?;
        // Stamped before the release (even if the release turns out to
        // be mismatched — the log shows the attempt).
        self.rec(RmaEvent::Unlock { kind, target });
        if !self.rank.holds(target as usize) {
            // Not this handle's epoch: the lock, and whoever does hold
            // it, are left alone.
            return Err(Error::NotLocked);
        }
        if kind == LockKind::Exclusive {
            // Cleared before the release so an observer never sees a
            // stale holder on an already-free lock: the release below is
            // a `SeqCst` read-modify-write, which no earlier store of
            // this thread can pass, and the next holder's store follows
            // it in the slot's modification order.
            self.state.holders[target as usize].store(-1, Ordering::Release);
        }
        let ok = match kind {
            LockKind::Exclusive => lock.unlock_exclusive(),
            LockKind::Shared => lock.unlock_shared(),
        };
        if ok {
            // No fence: the release above is a `SeqCst` read-modify-write
            // and every operation of the epoch completed when it was
            // issued, so there is nothing left to order.
            self.rank.released(target as usize);
            Ok(())
        } else {
            Err(Error::NotLocked)
        }
    }

    /// `MPI_Fetch_and_op`: atomically apply `op` with `operand` to the
    /// element at (`target`, `disp`) and return the previous value.
    pub fn fetch_and_op(&self, target: u32, disp: usize, operand: i64, op: RmaOp) -> Result<i64> {
        self.check_alive(target)?;
        let slot = self.slot(target, disp)?;
        bump(&self.rank.rma_atomic_ops, 1);
        self.rec(RmaEvent::Atomic { target, disp, op: AtomicOpKind::FetchAndOp });
        let prev = match op {
            RmaOp::Sum => slot.fetch_add(operand, Ordering::SeqCst),
            RmaOp::Replace => slot.swap(operand, Ordering::SeqCst),
            RmaOp::Min => slot.fetch_min(operand, Ordering::SeqCst),
            RmaOp::Max => slot.fetch_max(operand, Ordering::SeqCst),
            RmaOp::NoOp => slot.load(Ordering::SeqCst),
        };
        Ok(prev)
    }

    /// `MPI_Compare_and_swap`: atomically replace the element at
    /// (`target`, `disp`) with `value` if it equals `compare`, and return
    /// the previous value either way; the swap happened iff that is
    /// `compare`. Sequentially consistent like
    /// [`Window::fetch_and_op`]. A failed compare counts as one failed
    /// poll in [`Window::rank_stats`].
    #[inline]
    pub fn compare_and_swap(
        &self,
        target: u32,
        disp: usize,
        compare: i64,
        value: i64,
    ) -> Result<i64> {
        self.check_alive(target)?;
        let slot = self.slot(target, disp)?;
        bump(&self.rank.rma_atomic_ops, 1);
        self.rec(RmaEvent::Atomic { target, disp, op: AtomicOpKind::CompareAndSwap });
        match slot.compare_exchange(compare, value, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(prev) => Ok(prev),
            Err(prev) => {
                bump(&self.rank.failed_polls, 1);
                Ok(prev)
            }
        }
    }

    /// `MPI_Get` of one element: an acquire load (see "Visibility" on
    /// [`Window`]).
    pub fn get(&self, target: u32, disp: usize) -> Result<i64> {
        self.check_alive(target)?;
        let slot = self.slot(target, disp)?;
        bump(&self.rank.gets, 1);
        self.rec(RmaEvent::Get { target, disp });
        Ok(slot.load(Ordering::Acquire))
    }

    /// `MPI_Put` of one element: a release store (see "Visibility" on
    /// [`Window`]).
    pub fn put(&self, target: u32, disp: usize, value: i64) -> Result<()> {
        self.check_alive(target)?;
        let slot = self.slot(target, disp)?;
        bump(&self.rank.puts, 1);
        self.rec(RmaEvent::Put { target, disp });
        slot.store(value, Ordering::Release);
        Ok(())
    }

    /// `MPI_Win_lock_all`: shared-lock every rank's region (ascending
    /// rank order, so concurrent `lock_all` calls cannot deadlock). Each
    /// target counts as a lock acquisition and a blocked grant as wait
    /// time; the epoch adds nothing to `lock_held_ns`.
    pub fn lock_all(&self) {
        for (target, lock) in self.state.locks.iter().enumerate() {
            self.rank.granted(target, lock.acquire(true), false);
        }
        self.rec(RmaEvent::LockAll);
    }

    /// `MPI_Win_unlock_all`: release the epoch begun by
    /// [`Window::lock_all`].
    pub fn unlock_all(&self) -> Result<()> {
        self.rec(RmaEvent::UnlockAll);
        for (target, lock) in self.state.locks.iter().enumerate() {
            if !self.rank.holds(target) || !lock.unlock_shared() {
                return Err(Error::NotLocked);
            }
            self.rank.released(target);
        }
        Ok(())
    }

    /// `MPI_Win_flush`: complete outstanding operations at `target`.
    /// Every operation here completes when it is issued, so nothing is
    /// outstanding; what is left of the call is its ordering. The
    /// sequentially consistent fence puts this rank's earlier puts and
    /// atomics before its later gets in the one order all fences and
    /// atomics agree on — the store-to-load ordering a release `put` and
    /// an acquire `get` do not have — so of two ranks that each write,
    /// flush and read, one sees the other. Flushing towards a dead rank
    /// on a non-shared window reports [`Error::RankFailed`], as
    /// completing operations at a failed process is impossible.
    pub fn flush(&self, target: u32) -> Result<()> {
        self.check_alive(target)?;
        fence(Ordering::SeqCst);
        self.rec(RmaEvent::Flush { target });
        Ok(())
    }

    /// `MPI_Win_sync`: memory barrier for the unified window model — a
    /// sequentially consistent fence, the same ordering as
    /// [`Window::flush`] without a target.
    pub fn sync(&self) {
        fence(Ordering::SeqCst);
        self.rec(RmaEvent::Sync);
    }

    /// Contention statistics of `target`'s lock:
    /// `(acquisitions, contended, polls)`.
    pub fn lock_stats(&self, target: u32) -> Result<(u64, u64, u64)> {
        let lock = self
            .state
            .locks
            .get(target as usize)
            .ok_or(Error::RankOutOfRange { rank: target, size: self.comm.size() })?;
        Ok(lock.stats().snapshot())
    }

    /// This rank's cumulative window activity: lock acquisitions, failed
    /// poll attempts, time blocked acquiring and time spent inside lock
    /// epochs, one-sided operation counts, and recovery actions.
    /// Counters are per handle lineage — clones of this handle share
    /// them, other ranks' handles do not.
    pub fn rank_stats(&self) -> RankWinStats {
        self.rank.snapshot()
    }

    /// Comm rank currently holding `target`'s lock exclusively, if any.
    pub fn exclusive_holder(&self, target: u32) -> Result<Option<u32>> {
        self.region(target)?;
        let h = self.state.holders[target as usize].load(Ordering::Acquire);
        Ok(u32::try_from(h).ok())
    }

    /// Count one lease reclamation performed by this rank into
    /// [`Window::rank_stats`].
    pub fn note_reclaim(&self) {
        bump(&self.rank.reclaims, 1);
    }

    /// Lock repair: revoke an exclusive hold left on `target`'s lock by
    /// a *dead* rank. Refuses to touch a live holder's epoch. Returns
    /// `true` when this call performed the revocation; concurrent
    /// repair attempts race on the holder slot and exactly one wins.
    /// The FIFO ticket queue is preserved, so surviving waiters are
    /// admitted in arrival order afterwards.
    pub fn repair_lock(&self, target: u32) -> Result<bool> {
        let lock = self
            .state
            .locks
            .get(target as usize)
            .ok_or(Error::RankOutOfRange { rank: target, size: self.comm.size() })?;
        let holder = self.state.holders[target as usize].load(Ordering::Acquire);
        let Ok(holder_rank) = u32::try_from(holder) else {
            return Ok(false); // not exclusively held
        };
        if !self.comm.is_failed(holder_rank) {
            return Ok(false); // holder alive: not ours to revoke
        }
        // CAS elects a single repairer; the loser backs off. A
        // read-modify-write acts on the slot's latest value, so a
        // repairer whose acquire load above was stale can only lose.
        if self.state.holders[target as usize]
            .compare_exchange(holder, -1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return Ok(false);
        }
        let revoked = lock.revoke_exclusive();
        if revoked {
            bump(&self.rank.reclaims, 1);
            // The repairer closes the corpse's epoch in the log so the
            // revocation is attributed on the timeline.
            self.rec(RmaEvent::Unlock { kind: LockKind::Exclusive, target });
        }
        Ok(revoked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Topology, Universe};

    #[test]
    fn fetch_and_add_is_atomic_across_ranks() {
        let out = Universe::run(Topology::new(2, 4), |p| {
            let w = p.world();
            let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
            // Every rank increments rank 0's counter 100 times.
            let mut last = 0;
            for _ in 0..100 {
                last = win.fetch_and_op(0, 0, 1, RmaOp::Sum).unwrap();
            }
            w.barrier();
            let total = win.get(0, 0).unwrap();
            assert_eq!(total, 800);
            last
        });
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn shared_window_requires_single_node_comm() {
        Universe::run(Topology::new(2, 2), |p| {
            let w = p.world();
            assert!(matches!(Window::allocate_shared(w, 1), Err(Error::NotShared)));
            let node = w.split_shared().unwrap();
            Window::allocate_shared(&node, 2).unwrap();
        });
    }

    #[test]
    fn shared_window_visible_to_node_peers() {
        Universe::run(Topology::new(2, 2), |p| {
            let node = p.world().split_shared().unwrap();
            let win = Window::allocate_shared(&node, 1).unwrap();
            if node.rank() == 0 {
                win.put(0, 0, 1000 + i64::from(p.node_id())).unwrap();
            }
            node.barrier();
            let v = win.get(0, 0).unwrap();
            assert_eq!(v, 1000 + i64::from(p.node_id()));
        });
    }

    #[test]
    fn exclusive_lock_serialises_read_modify_write() {
        let out = Universe::run(Topology::new(1, 8), |p| {
            let w = p.world();
            let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
            for _ in 0..50 {
                win.lock(LockKind::Exclusive, 0).unwrap();
                // Unprotected get+put would race; the lock must make it safe.
                let v = win.get(0, 0).unwrap();
                win.put(0, 0, v + 1).unwrap();
                win.unlock(LockKind::Exclusive, 0).unwrap();
            }
            w.barrier();
            win.get(0, 0).unwrap()
        });
        assert_eq!(out[0], 400);
    }

    #[test]
    fn unlock_without_lock_is_error() {
        Universe::run(Topology::new(1, 1), |p| {
            let win = Window::allocate(p.world(), 1).unwrap();
            assert_eq!(win.unlock(LockKind::Exclusive, 0).unwrap_err(), Error::NotLocked);
        });
    }

    #[test]
    fn offset_out_of_range() {
        Universe::run(Topology::new(1, 1), |p| {
            let win = Window::allocate(p.world(), 2).unwrap();
            assert!(matches!(win.get(0, 2), Err(Error::OffsetOutOfRange { offset: 2, len: 2 })));
        });
    }

    #[test]
    fn regions_are_per_rank() {
        Universe::run(Topology::new(1, 3), |p| {
            let w = p.world();
            let win = Window::allocate(w, 1).unwrap();
            win.put(w.rank(), 0, i64::from(w.rank()) * 7).unwrap();
            w.barrier();
            for r in 0..3 {
                assert_eq!(win.get(r, 0).unwrap(), i64::from(r) * 7);
            }
        });
    }

    #[test]
    fn min_max_noop_ops() {
        Universe::run(Topology::new(1, 1), |p| {
            let win = Window::allocate(p.world(), 1).unwrap();
            win.put(0, 0, 10).unwrap();
            assert_eq!(win.fetch_and_op(0, 0, 3, RmaOp::Min).unwrap(), 10);
            assert_eq!(win.get(0, 0).unwrap(), 3);
            assert_eq!(win.fetch_and_op(0, 0, 50, RmaOp::Max).unwrap(), 3);
            assert_eq!(win.get(0, 0).unwrap(), 50);
            assert_eq!(win.fetch_and_op(0, 0, 123, RmaOp::NoOp).unwrap(), 50);
            assert_eq!(win.get(0, 0).unwrap(), 50);
            assert_eq!(win.fetch_and_op(0, 0, -7, RmaOp::Replace).unwrap(), 50);
            assert_eq!(win.get(0, 0).unwrap(), -7);
        });
    }

    #[test]
    fn compare_and_swap_swaps_only_on_a_match() {
        Universe::run(Topology::new(1, 1), |p| {
            let win = Window::allocate(p.world(), 1).unwrap();
            win.put(0, 0, 10).unwrap();
            // Success: the previous value is the one compared against.
            assert_eq!(win.compare_and_swap(0, 0, 10, 11).unwrap(), 10);
            assert_eq!(win.get(0, 0).unwrap(), 11);
            assert_eq!(win.rank_stats().failed_polls, 0);
            // Failure: the slot is left alone and its value returned.
            assert_eq!(win.compare_and_swap(0, 0, 10, 12).unwrap(), 11);
            assert_eq!(win.get(0, 0).unwrap(), 11);
            let s = win.rank_stats();
            assert_eq!((s.rma_atomic_ops, s.failed_polls), (2, 1));
        });
    }

    #[test]
    fn compare_and_swap_elects_one_winner_per_value() {
        // Every rank tries to advance the counter from each value it
        // reads: a value is claimed once, so the wins sum to the final
        // count and the losses are the failed polls.
        let out = Universe::run(Topology::new(1, 4), |p| {
            let w = p.world();
            let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
            let (mut wins, mut lost) = (0, 0);
            loop {
                let v = win.fetch_and_op(0, 0, 0, RmaOp::NoOp).unwrap();
                if v >= 200 {
                    break;
                }
                if win.compare_and_swap(0, 0, v, v + 1).unwrap() == v {
                    wins += 1;
                } else {
                    lost += 1;
                }
            }
            assert_eq!(win.rank_stats().failed_polls, lost);
            w.barrier();
            (wins, win.get(0, 0).unwrap())
        });
        assert_eq!(out.iter().map(|o| o.0).sum::<i64>(), 200);
        assert!(out.iter().all(|o| o.1 == 200));
    }

    #[test]
    fn lock_stats_counted() {
        Universe::run(Topology::new(1, 4), |p| {
            let w = p.world();
            let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
            for _ in 0..25 {
                win.lock(LockKind::Exclusive, 0).unwrap();
                win.unlock(LockKind::Exclusive, 0).unwrap();
            }
            w.barrier();
            let (acq, _, _) = win.lock_stats(0).unwrap();
            assert_eq!(acq, 100);
        });
    }

    #[test]
    fn range_put_get_roundtrip() {
        // Puts to a run of slots in a peer's region, read back by every
        // rank across a barrier; the slots either side stay untouched.
        Universe::run(Topology::new(1, 2), |p| {
            let w = p.world();
            let win = Window::allocate(w, 5).unwrap();
            if w.rank() == 0 {
                for (disp, v) in (1..4).zip([10, 20, 30]) {
                    win.put(1, disp, v).unwrap();
                }
            }
            w.barrier();
            let read: Vec<i64> = (0..5).map(|disp| win.get(1, disp).unwrap()).collect();
            assert_eq!(read, vec![0, 10, 20, 30, 0]);
        });
    }

    #[test]
    fn lock_all_excludes_exclusive() {
        Universe::run(Topology::new(1, 2), |p| {
            let w = p.world();
            let win = Window::allocate(w, 1).unwrap();
            if w.rank() == 0 {
                win.lock_all();
                w.send(1, 0, ()).unwrap();
                let (_, _, ()) = w.recv(Some(1), Some(1)).unwrap();
                win.unlock_all().unwrap();
            } else {
                let (_, _, ()) = w.recv(Some(0), Some(0)).unwrap();
                // While rank 0 holds the shared lock_all, an exclusive
                // try-lock cannot succeed (QueuedLock semantics).
                assert!(!win.try_lock_exclusive(0).unwrap());
                w.send(0, 1, ()).unwrap();
            }
        });
    }

    #[test]
    fn unlock_all_without_lock_errors() {
        Universe::run(Topology::new(1, 1), |p| {
            let win = Window::allocate(p.world(), 1).unwrap();
            assert!(win.unlock_all().is_err());
        });
    }

    #[test]
    fn rank_stats_count_this_ranks_activity() {
        let snaps = Universe::run(Topology::new(1, 4), |p| {
            let w = p.world();
            let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
            for _ in 0..10 {
                win.lock(LockKind::Exclusive, 0).unwrap();
                let v = win.get(0, 0).unwrap();
                win.put(0, 0, v + 1).unwrap();
                win.unlock(LockKind::Exclusive, 0).unwrap();
            }
            win.fetch_and_op(0, 0, 1, RmaOp::Sum).unwrap();
            w.barrier();
            win.rank_stats()
        });
        for s in &snaps {
            // Counters are per rank, not per window: every rank did
            // exactly 10 epochs, 10 gets/puts and 1 atomic op.
            assert_eq!(s.lock_acquisitions, 10);
            assert_eq!(s.gets, 10);
            assert_eq!(s.puts, 10);
            assert_eq!(s.rma_atomic_ops, 1);
            assert!(s.lock_held_ns > 0, "held time must accumulate");
        }
    }

    #[test]
    fn blocked_acquire_records_failed_polls_and_wait_time() {
        Universe::run(Topology::new(1, 2), |p| {
            let w = p.world();
            let win = Window::allocate(w, 1).unwrap();
            if w.rank() == 0 {
                win.lock(LockKind::Exclusive, 0).unwrap();
                w.send(1, 0, ()).unwrap();
                // Hold until rank 1 is provably blocked in its acquire
                // (its first failed poll shows up in the lock stats).
                while win.lock_stats(0).unwrap().2 == 0 {
                    std::thread::yield_now();
                }
                win.unlock(LockKind::Exclusive, 0).unwrap();
            } else {
                let (_, _, ()) = w.recv(Some(0), Some(0)).unwrap();
                win.lock(LockKind::Exclusive, 0).unwrap();
                win.unlock(LockKind::Exclusive, 0).unwrap();
                let s = win.rank_stats();
                assert!(s.failed_polls >= 1, "blocked acquire must poll");
                assert!(s.lock_wait_ns > 0, "blocked acquire must wait");
            }
            w.barrier();
        });
    }

    #[test]
    fn try_lock_failure_counts_as_failed_poll() {
        Universe::run(Topology::new(1, 2), |p| {
            let w = p.world();
            let win = Window::allocate(w, 1).unwrap();
            if w.rank() == 0 {
                win.lock(LockKind::Exclusive, 0).unwrap();
                w.send(1, 0, ()).unwrap();
                let (_, _, ()) = w.recv(Some(1), Some(1)).unwrap();
                win.unlock(LockKind::Exclusive, 0).unwrap();
            } else {
                let (_, _, ()) = w.recv(Some(0), Some(0)).unwrap();
                assert!(!win.try_lock_exclusive(0).unwrap());
                assert_eq!(win.rank_stats().failed_polls, 1);
                assert_eq!(win.rank_stats().lock_acquisitions, 0);
                w.send(0, 1, ()).unwrap();
            }
        });
    }

    #[test]
    fn recording_mode_logs_every_op_with_rank_provenance() {
        let log = RmaLog::new();
        let outer = log.clone();
        Universe::run(Topology::new(1, 2), move |p| {
            let w = p.world();
            let mut win = Window::allocate(w, 2).unwrap();
            win.record_to(&log);
            win.lock(LockKind::Exclusive, 0).unwrap();
            win.put(0, 0, i64::from(w.rank())).unwrap();
            let _ = win.get(0, 1).unwrap();
            win.unlock(LockKind::Exclusive, 0).unwrap();
            win.fetch_and_op(1, 0, 1, RmaOp::Sum).unwrap();
            w.barrier();
            win.note_barrier();
        });
        let records = outer.records();
        // Per rank: Attach, Lock, Put, Get, Unlock, Atomic, Barrier.
        assert_eq!(records.len(), 14);
        for rank in 0..2 {
            let mine: Vec<_> = records.iter().filter(|r| r.rank == rank).map(|r| r.event).collect();
            assert!(matches!(mine[0], RmaEvent::Attach { shared: false, comm_size: 2 }));
            assert!(mine.contains(&RmaEvent::Put { target: 0, disp: 0 }));
            assert!(mine.contains(&RmaEvent::Atomic {
                target: 1,
                disp: 0,
                op: AtomicOpKind::FetchAndOp
            }));
            assert_eq!(mine.last(), Some(&RmaEvent::Barrier));
        }
        // Exclusive epochs must not interleave: between one rank's Lock
        // and Unlock seqs there is no other rank's Lock on target 0.
        let locks: Vec<_> = records
            .iter()
            .filter(|r| matches!(r.event, RmaEvent::Lock { .. } | RmaEvent::Unlock { .. }))
            .collect();
        for pair in locks.chunks(2) {
            assert_eq!(pair[0].rank, pair[1].rank, "epochs interleaved: {locks:?}");
        }
    }

    #[test]
    fn non_recording_window_logs_nothing() {
        let log = RmaLog::new();
        let outer = log.clone();
        Universe::run(Topology::new(1, 1), move |p| {
            let win = Window::allocate(p.world(), 1).unwrap();
            win.put(0, 0, 7).unwrap();
            let _ = log.len(); // log moved in but never attached
        });
        assert!(outer.is_empty());
    }
}
