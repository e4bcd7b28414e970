//! The MPI+MPI node-queue protocol, once: every decision a rank makes in
//! its node window's critical sections, and the passive-target RMA
//! transaction each decision stands for.
//!
//! A free rank locks its node window and either [`take`]s a sub-chunk
//! or, finding the queue drained, makes the [`empty_probe`] decision:
//! retire, become the refiller, or back off behind a peer's refill. A
//! refiller takes one chunk off the global queue (one
//! `MPI_Fetch_and_op`, [`GLOBAL_FAA`], or both counters under an
//! exclusive epoch) and, under the lock again, [`deposit`]s what it
//! [`Fetched`]. The hand-off happens under that one grant: a refiller
//! that deposits a chunk takes its first sub-chunk in the same epoch
//! ([`DEPOSIT_TAKE`]), and one that marks the node done on a drained
//! queue retires without another. `take` and `empty_probe` are separate
//! on purpose: recovery (lease reclaim, refill failover) sits between
//! them.
//!
//! Both MPI+MPI executors run these functions: the live rank loop over
//! its node window's slots and the virtual-time executor over a
//! `LocalQueue`. The sim writes the returned shapes to its RMA log; the
//! live window records them as it issues them. Each slot is a
//! displacement of the crate's window layout.
//!
//! That is the paper's locked queue, which the simulator models and
//! [`NodeQueueMode::Locked`](crate::config::NodeQueueMode::Locked)
//! runs live. [`counter`] is the same queue without the lock — the
//! same sub-chunks per deposit, taken by compare-and-swap on one packed
//! word — which live runs use where the arithmetic allows.

pub mod counter;

use crate::config::GlobalQueueMode;
use crate::layout::{
    node_win, GLOBAL_DONE, GLOBAL_WIN, GSCHED, GSTEP, HI, LO, REFILLING, STEP, TAKEN,
};
use crate::queue::{QueuedRange, SubChunk};
use dls::technique::WorkerCtx;
use dls::{ChunkCalculator, LoopSpec, SchedState, Technique};
use mpisim::{AtomicOpKind, LockKind, RmaEvent};

const LOCK: RmaEvent = RmaEvent::Lock { kind: LockKind::Exclusive, target: 0 };
const UNLOCK: RmaEvent = RmaEvent::Unlock { kind: LockKind::Exclusive, target: 0 };
const SYNC: RmaEvent = RmaEvent::Sync;

const fn get(disp: usize) -> RmaEvent {
    RmaEvent::Get { target: 0, disp }
}

const fn put(disp: usize) -> RmaEvent {
    RmaEvent::Put { target: 0, disp }
}

/// Node window: lock, sync, read the front range, advance it, sync,
/// unlock.
pub const TAKE: &[RmaEvent] =
    &[LOCK, SYNC, get(LO), get(HI), get(STEP), get(TAKEN), put(STEP), put(TAKEN), SYNC, UNLOCK];
/// Node window: the 8-op empty probe (range and both flags read), then
/// release — to retire or to back off behind a peer's refill.
pub const PROBE_RELEASE: &[RmaEvent] = &[
    LOCK,
    SYNC,
    get(LO),
    get(HI),
    get(STEP),
    get(TAKEN),
    get(GLOBAL_DONE),
    get(REFILLING),
    UNLOCK,
];
/// Node window: the empty probe, then publish the `refilling` flag.
pub const PROBE_REFILL: &[RmaEvent] = &[
    LOCK,
    SYNC,
    get(LO),
    get(HI),
    get(STEP),
    get(TAKEN),
    get(GLOBAL_DONE),
    get(REFILLING),
    put(REFILLING),
    SYNC,
    UNLOCK,
];
/// Node window: write a fetched chunk as the fresh range, clear
/// `refilling`, and take the range's first sub-chunk (the range is the
/// one just written, so nothing is read back).
pub const DEPOSIT_TAKE: &[RmaEvent] = &[
    LOCK,
    SYNC,
    put(LO),
    put(HI),
    put(STEP),
    put(TAKEN),
    put(REFILLING),
    put(STEP),
    put(TAKEN),
    SYNC,
    UNLOCK,
];
/// Node window: mark the global queue exhausted and clear `refilling`.
pub const DEPOSIT_DONE: &[RmaEvent] = &[LOCK, SYNC, put(GLOBAL_DONE), put(REFILLING), SYNC, UNLOCK];
/// Node window: clear `refilling` with nothing deposited, because the
/// global queue answered [`Fetched::Pending`].
pub const RELEASE: &[RmaEvent] = &[LOCK, SYNC, put(REFILLING), SYNC, UNLOCK];
/// Global window: one `MPI_Fetch_and_op` on the step counter, flushed,
/// inside the rank's run-long `lock_all` epoch.
pub const GLOBAL_FAA: &[RmaEvent] = &[
    RmaEvent::Atomic { target: 0, disp: GSTEP, op: AtomicOpKind::FetchAndOp },
    RmaEvent::Flush { target: 0 },
];
/// Global window: both counters read under an exclusive epoch, found
/// exhausted.
pub const GLOBAL_LOCKED_READ: &[RmaEvent] = &[LOCK, get(GSTEP), get(GSCHED), UNLOCK];
/// Global window: both counters read and advanced under an exclusive
/// epoch.
pub const GLOBAL_LOCKED_ADVANCE: &[RmaEvent] =
    &[LOCK, get(GSTEP), get(GSCHED), put(GSTEP), put(GSCHED), UNLOCK];

/// The global-window transaction of one refill under `mode`; `chunk`
/// says whether it obtained one.
#[inline]
pub(crate) fn global_fetch(mode: GlobalQueueMode, chunk: bool) -> &'static [RmaEvent] {
    match mode {
        GlobalQueueMode::SingleAtomic => GLOBAL_FAA,
        GlobalQueueMode::LockedCounters if chunk => GLOBAL_LOCKED_ADVANCE,
        GlobalQueueMode::LockedCounters => GLOBAL_LOCKED_READ,
    }
}

/// Worker `w`'s records at t = 0, as `(window, rank, event)`: it
/// attaches the global window (rank `w` of `workers`) and its node's
/// shared window (rank `w % wpn` of `wpn`), then, when `lock_all`,
/// opens the run-long epoch bare `fetch_and_op` calls need.
pub(crate) fn attach(
    w: u32,
    workers: u32,
    wpn: u32,
    lock_all: bool,
) -> impl Iterator<Item = (u64, u32, RmaEvent)> {
    let node = node_win((w / wpn) as usize);
    [
        (GLOBAL_WIN, w, RmaEvent::Attach { shared: false, comm_size: workers }),
        (node, w % wpn, RmaEvent::Attach { shared: true, comm_size: wpn }),
    ]
    .into_iter()
    .chain(lock_all.then_some((GLOBAL_WIN, w, RmaEvent::LockAll)))
}

/// A node's local work queue as the protocol sees it: a FIFO of
/// deposited ranges, each with its own intra-node scheduling state.
pub trait NodeQueue {
    /// A window's [`mpisim::Error`] live, `Infallible` in memory.
    type Error;
    /// The front range that still has work, after dropping exhausted
    /// ones; `None` when the queue is drained.
    fn front(&mut self) -> Result<Option<QueuedRange>, Self::Error>;
    /// Store the front range's new intra state: `front` is what
    /// [`NodeQueue::front`] returned, one step and one sub-chunk on.
    fn advance(&mut self, front: QueuedRange) -> Result<(), Self::Error>;
    /// Deposit `[lo, hi)` behind what is queued.
    fn push(&mut self, lo: u64, hi: u64) -> Result<(), Self::Error>;
}

/// What one refill obtained from the global queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fetched {
    /// The next inter-level chunk `[lo, hi)`.
    Chunk(u64, u64),
    /// Nothing to hand out now, but another node holds an unsettled
    /// lease whose range may come back: poll again (service only).
    Pending,
    /// Every iteration is scheduled.
    Done,
}

/// A node window's two flags (two slots locked, two bits of
/// [`counter::Word`] lock-free).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Flags {
    /// A rank of the node is fetching from the global queue.
    pub refilling: bool,
    /// The global queue was observed exhausted.
    pub global_done: bool,
}

/// The sub-chunk decision: the next sub-chunk of `q`'s front range for
/// worker `ctx` of `p`, or `None` when the queue is drained. The intra
/// technique sees each deposit as a fresh loop of its own length. A
/// take is a [`TAKE`] transaction.
#[inline]
pub fn take<Q: NodeQueue + ?Sized>(
    q: &mut Q,
    technique: &Technique,
    p: u32,
    ctx: WorkerCtx,
) -> Result<Option<SubChunk>, Q::Error> {
    let Some(mut r) = q.front()? else { return Ok(None) };
    let size = sub_chunk_size_for(technique, &r, p, ctx);
    let start = r.lo + r.taken;
    r.step += 1;
    r.taken += size;
    q.advance(r)?;
    Ok(Some(SubChunk { start, end: start + size }))
}

/// Sub-chunk size for the deposited range `r` over `p` workers at its
/// intra state; 0 for an exhausted range rather than an underflow.
fn sub_chunk_size_for(intra: &Technique, r: &QueuedRange, p: u32, ctx: WorkerCtx) -> u64 {
    let remaining = r.len().saturating_sub(r.taken);
    if remaining == 0 {
        return 0;
    }
    let state = SchedState { step: r.step, scheduled: r.taken };
    intra.chunk_size(&LoopSpec::new(r.len(), p), state, ctx).clamp(1, remaining)
}

/// What a rank does after finding its node's queue drained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Empty {
    /// The global queue is exhausted: leave the loop.
    Retire,
    /// No refill in flight: this rank fetches the next chunk.
    Refill,
    /// A refill is in flight, or this rank may not refill: re-probe.
    PeerRefilling,
}

impl Empty {
    /// The node-window transaction this outcome stands for.
    #[inline]
    pub fn tx(self) -> &'static [RmaEvent] {
        match self {
            Empty::Refill => PROBE_REFILL,
            Empty::Retire | Empty::PeerRefilling => PROBE_RELEASE,
        }
    }
}

/// The empty-probe decision, raising `refilling` when this rank becomes
/// the refiller. `may_refill` is false for a rank the refill policy
/// bars (the dedicated-master ablation).
#[inline]
pub fn empty_probe(flags: &mut Flags, may_refill: bool) -> Empty {
    if flags.global_done {
        Empty::Retire
    } else if !flags.refilling && may_refill {
        flags.refilling = true;
        Empty::Refill
    } else {
        Empty::PeerRefilling
    }
}

/// The refiller's deposit: queue a fetched chunk or mark the node done;
/// either way the refill is over. Returns the node-window transaction:
/// [`DEPOSIT_TAKE`] (the refiller [`take`]s the chunk's first sub-chunk
/// before it releases the lock), [`DEPOSIT_DONE`] or [`RELEASE`].
pub fn deposit<Q: NodeQueue + ?Sized>(
    q: &mut Q,
    flags: &mut Flags,
    fetched: Fetched,
) -> Result<&'static [RmaEvent], Q::Error> {
    flags.refilling = false;
    Ok(match fetched {
        Fetched::Chunk(lo, hi) => {
            q.push(lo, hi)?;
            DEPOSIT_TAKE
        }
        Fetched::Done => {
            flags.global_done = true;
            DEPOSIT_DONE
        }
        Fetched::Pending => RELEASE,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::LocalQueue;

    #[test]
    fn probe_decisions_in_protocol_order() {
        let mut flags = Flags::default();
        assert_eq!(empty_probe(&mut flags, false), Empty::PeerRefilling);
        assert!(!flags.refilling);
        assert_eq!(empty_probe(&mut flags, true), Empty::Refill);
        assert!(flags.refilling);
        assert_eq!(empty_probe(&mut flags, true), Empty::PeerRefilling);
        let mut q = LocalQueue::new();
        assert_eq!(deposit(&mut q, &mut flags, Fetched::Pending), Ok(RELEASE));
        assert_eq!(flags, Flags::default());
        assert_eq!(empty_probe(&mut flags, true), Empty::Refill);
        assert_eq!(deposit(&mut q, &mut flags, Fetched::Done), Ok(DEPOSIT_DONE));
        assert_eq!(flags, Flags { refilling: false, global_done: true });
        assert_eq!(empty_probe(&mut flags, true), Empty::Retire);
    }

    #[test]
    fn deposit_then_take_hands_out_the_chunk() {
        let (mut q, mut flags) = (LocalQueue::new(), Flags { refilling: true, global_done: false });
        assert_eq!(deposit(&mut q, &mut flags, Fetched::Chunk(10, 14)), Ok(DEPOSIT_TAKE));
        assert!(!flags.refilling);
        let ss = Technique::ss();
        let subs: Vec<_> =
            std::iter::from_fn(|| take(&mut q, &ss, 2, WorkerCtx::default()).ok()?).collect();
        assert_eq!(subs.iter().map(|s| s.start).collect::<Vec<_>>(), [10, 11, 12, 13]);
        assert!(subs.iter().all(|s| s.len() == 1));
    }

    fn sub_chunk_size(intra: &Technique, range_len: u64, p: u32, step: u64, taken: u64) -> u64 {
        let r = QueuedRange { lo: 0, hi: range_len, step, taken };
        sub_chunk_size_for(intra, &r, p, WorkerCtx::default())
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
}
