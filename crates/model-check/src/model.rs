//! The abstract transition system of the two-level queue protocol.
//!
//! Every MPI process is modelled as a small program counter ([`Pc`])
//! over a compact, hashable [`State`]: the global queue's scheduling
//! pair, one [`NodeSt`] per node (an FCFS lock, the `refilling` /
//! `global_done` [`Flags`] and a [`Fifo`] of deposited ranges), and
//! two coverage bitmaps (`executed`, `deposited`) that turn
//! exactly-once into a local check.
//!
//! The protocol is *not* re-modelled: every critical section calls
//! [`hier::protocol`] — `take`, `empty_probe`, `deposit` — over the
//! node's `Fifo` (a [`NodeQueue`] on `u8` fields), every global fetch
//! is [`SchedState::next_chunk`], and the RMA events a transition
//! synthesizes are the protocol's transaction shapes. The explorer
//! therefore checks the decisions the virtual-time executor runs. The
//! seeded bugs ([`Variant`]) are those same calls and shapes with their
//! lock bracket dropped.
//!
//! ## Atomicity granularity
//!
//! Lock-protected critical sections execute as one atomic transition
//! (mutual exclusion makes every interleaving inside the section
//! equivalent to it running alone), but lock *acquisition* is a
//! separate transition — while a process is between acquire and its
//! critical section, peers can arrive and enqueue, which is exactly
//! the contention the FCFS bounded-bypass bound is about. The global
//! `MPI_Fetch_and_op` is a single atomic transition in the correct
//! model and split into a stale read + blind write under
//! [`Variant::NonAtomicFaa`].
//!
//! Each process has at most one enabled transition per state, so a
//! transition is identified by the process id that takes it.
//!
//! ## Bounded crashes
//!
//! [`Config::with_crashes`] gives an adversary a budget of crash
//! transitions, exposed as *pseudo process ids* `n_procs + q` (so the
//! explorer and trace machinery need no special cases): stepping one
//! kills process `q` at its current protocol point. What a crash may
//! wedge — and which [`Recovery`] level un-wedges it — is the
//! subsystem the `resilience` crate implements; the model pins its
//! necessity (the lease-free protocol provably loses iterations) and
//! its sufficiency at small scope.

use dls::technique::WorkerCtx;
use dls::{Kind, LoopSpec, SchedState, Technique};
use hier::protocol::{self, Empty, Fetched, Flags, NodeQueue};
use hier::queue::QueuedRange;
use hier::sim::layout::{node_win, GLOBAL_WIN};
use mpisim::RmaEvent;
use std::convert::Infallible;

/// Most nodes a config may use (the paper-scale sweep needs 2).
pub const MAX_NODES: usize = 2;
/// Most ranks per node a config may use.
pub const MAX_RANKS_PER_NODE: usize = 3;
/// Most processes overall.
pub const MAX_PROCS: usize = MAX_NODES * MAX_RANKS_PER_NODE;
/// Most deposited-but-unfinished ranges a node queue can hold. In the
/// correct protocol it is 1 (refills start only on an empty queue);
/// broken variants can stack one in-flight deposit per rank.
pub const MAX_RANGES: usize = 4;
/// Most loop iterations (the coverage bitmaps are `u32`).
pub const MAX_N: u8 = 24;

/// `NodeSt::holder` value meaning "lock not held".
pub const FREE: u8 = 0xFF;
/// `Pc::Deposit` payload meaning "global queue observed exhausted".
pub const NONE_PAYLOAD: u8 = 0xFF;

/// How much of the crash-recovery protocol the model includes — the
/// knob separating the unpatched protocol's failure modes from the
/// patched protocol's exactly-once guarantee.
///
/// Crashes themselves are enabled by [`Config::with_crashes`]: each
/// crashable process gets a *pseudo process id* `n_procs + q` whose
/// single transition kills process `q` at its current protocol point
/// (crashes are adversarial — the explorer's fairness filter never
/// assumes one must happen). Whole-node death is outside the model's
/// recovery scope: the node queue lives in the node's shared segment,
/// which dies with its last rank (the simulator's node-drain
/// migration covers that case).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recovery {
    /// No recovery: a crash wedges whatever the victim held. A dead
    /// lock holder deadlocks its node; a dead refiller livelocks it.
    None,
    /// Lock repair and refill failover, but fetched chunks are not
    /// leased: a refiller dying between its global `MPI_Fetch_and_op`
    /// and its deposit silently loses the chunk — the pinned
    /// [`Violation::LostIterations`] counterexample.
    LeaseFree,
    /// The full patch: the fetched chunk is published as a lease
    /// atomically with the FAA that claimed it, and probing peers
    /// reclaim a dead owner's lease back into the local queue.
    Leases,
}

/// Which protocol to explore: the faithful one or a seeded bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The protocol as implemented by `hier::sim::simulate_mpi_mpi`.
    Correct,
    /// The refill decision (queue empty? refill in flight?) is made
    /// *without* holding the local lock, so two ranks can both elect
    /// themselves refiller — the bug the `refilling` flag plus lock
    /// exists to prevent.
    RefillWithoutLock,
    /// The global `MPI_Fetch_and_op` is "optimised" into a plain get
    /// followed by a put: two concurrent fetchers read the same
    /// scheduling pair and both claim the same chunk (lost update).
    NonAtomicFaa,
    /// A rank that takes a sub-chunk forgets `MPI_Win_unlock`: the
    /// local lock is never released again.
    LostUnlock,
}

/// One deposited chunk with its intra-node scheduling progress — the
/// model's [`hier::queue::QueuedRange`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Range {
    /// First iteration of the deposit.
    pub lo: u8,
    /// One past the last iteration.
    pub hi: u8,
    /// Intra-node scheduling step within the deposit.
    pub step: u8,
    /// Iterations already handed out as sub-chunks.
    pub taken: u8,
}

impl Range {
    fn is_empty(&self) -> bool {
        self.taken >= self.hi - self.lo
    }
}

/// A node's deposited ranges: the model's [`hier::queue::LocalQueue`],
/// handed to [`hier::protocol`] as its [`NodeQueue`]. Exhausted fronts
/// are popped eagerly, so outside critical sections the front is never
/// empty.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Fifo {
    /// The ranges, oldest first.
    pub ranges: [Range; MAX_RANGES],
    /// Number of live entries in `ranges` (slots past it stay zeroed so
    /// equal states hash equally).
    pub n_ranges: u8,
}

impl Fifo {
    /// Pop exhausted ranges off the front (only the front can be
    /// exhausted: ranges are consumed FIFO).
    fn canon(&mut self) {
        while self.n_ranges > 0 && self.ranges[0].is_empty() {
            for i in 1..self.n_ranges as usize {
                self.ranges[i - 1] = self.ranges[i];
            }
            self.n_ranges -= 1;
            self.ranges[self.n_ranges as usize] = Range::default();
        }
    }
}

impl NodeQueue for Fifo {
    type Error = Infallible;

    fn front(&mut self) -> Result<Option<QueuedRange>, Infallible> {
        self.canon();
        let r = self.ranges[0];
        Ok((self.n_ranges > 0).then(|| QueuedRange {
            lo: r.lo.into(),
            hi: r.hi.into(),
            step: r.step.into(),
            taken: r.taken.into(),
        }))
    }

    fn advance(&mut self, front: QueuedRange) -> Result<(), Infallible> {
        let r = &mut self.ranges[0];
        r.taken = u8c(front.taken);
        r.step = u8c(front.step);
        self.canon();
        Ok(())
    }

    fn push(&mut self, lo: u64, hi: u64) -> Result<(), Infallible> {
        assert!((self.n_ranges as usize) < MAX_RANGES, "range FIFO overflow (model bound)");
        self.ranges[self.n_ranges as usize] = Range { lo: u8c(lo), hi: u8c(hi), step: 0, taken: 0 };
        self.n_ranges += 1;
        Ok(())
    }
}

/// Per-node shared state: the FCFS window lock and the local queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeSt {
    /// Process currently holding the window lock, or [`FREE`].
    pub holder: u8,
    /// FIFO of processes waiting for the lock (slots past `n_waiters`
    /// are kept zeroed so equal states hash equally).
    pub waiters: [u8; MAX_PROCS],
    /// Number of live entries in `waiters`.
    pub n_waiters: u8,
    /// The node window's `refilling` / `global_done` flags.
    pub flags: Flags,
    /// The deposited ranges.
    pub queue: Fifo,
}

impl NodeSt {
    fn fresh() -> Self {
        NodeSt {
            holder: FREE,
            waiters: [0; MAX_PROCS],
            n_waiters: 0,
            flags: Flags::default(),
            queue: Fifo::default(),
        }
    }

    fn push_waiter(&mut self, pid: u8) -> u8 {
        let depth = 1 + self.n_waiters;
        self.waiters[self.n_waiters as usize] = pid;
        self.n_waiters += 1;
        depth
    }
}

/// A process's program counter. Payloads are iteration indices
/// (`u8`, since `n_iters <= MAX_N`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Pc {
    /// Free: wants the local lock to probe the queue.
    #[default]
    Probe,
    /// Enqueued on the local lock for a probe.
    WaitProbe,
    /// Holds the local lock; probe critical section pending.
    CritProbe,
    /// Elected refiller: about to hit the global queue.
    Fetch,
    /// [`Variant::NonAtomicFaa`] only: holds a stale copy of the
    /// global scheduling pair, about to blind-write the advance.
    FaaWrite {
        /// Stale `step` read by the first half of the broken FAA.
        step: u8,
        /// Stale `scheduled` read by the first half.
        sched: u8,
    },
    /// Has a fetched chunk `[lo, hi)` (or [`NONE_PAYLOAD`] for
    /// "global exhausted"); wants the local lock to deposit.
    Deposit {
        /// Chunk start, or [`NONE_PAYLOAD`].
        lo: u8,
        /// Chunk end, or [`NONE_PAYLOAD`].
        hi: u8,
    },
    /// Enqueued on the local lock for a deposit.
    WaitDeposit {
        /// Chunk start, or [`NONE_PAYLOAD`].
        lo: u8,
        /// Chunk end, or [`NONE_PAYLOAD`].
        hi: u8,
    },
    /// Holds the local lock; deposit critical section pending.
    CritDeposit {
        /// Chunk start, or [`NONE_PAYLOAD`].
        lo: u8,
        /// Chunk end, or [`NONE_PAYLOAD`].
        hi: u8,
    },
    /// [`Variant::RefillWithoutLock`] only: observed the queue empty
    /// with no refill in flight — without the lock — and will commit
    /// to refilling next.
    ObservedEmpty,
    /// Crashed. Under [`Recovery::Leases`] a refiller that died
    /// between its global FAA and its deposit leaves the claimed
    /// chunk `[lo, hi)` behind as a readable lease; otherwise the
    /// payload is [`NONE_PAYLOAD`] (nothing recoverable — under
    /// [`Recovery::LeaseFree`] the chunk evaporates with the victim,
    /// which is exactly the FAA-publish recoverability boundary).
    Crashed {
        /// Leased chunk start, or [`NONE_PAYLOAD`].
        lo: u8,
        /// Leased chunk end, or [`NONE_PAYLOAD`].
        hi: u8,
    },
    /// Terminated.
    Done,
}

/// A global protocol state. `Copy`, ~100 bytes, hashable — the
/// explorer stores millions of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct State {
    /// The global queue's `(step, scheduled)` pair.
    pub g_step: u8,
    /// Total iterations scheduled at the inter level.
    pub g_sched: u8,
    /// Bitmap of iterations handed out as sub-chunks (exactly-once).
    pub executed: u32,
    /// Bitmap of iterations deposited into some local queue.
    pub deposited: u32,
    /// Program counters, one per process (unused slots stay `Done`).
    pub procs: [Pc; MAX_PROCS],
    /// Per-node shared state (unused slots stay fresh).
    pub nodes: [NodeSt; MAX_NODES],
    /// Crashes injected so far (bounded by [`Config::crash_budget`]).
    pub crashes_used: u8,
}

/// A safety or liveness violation. Safety violations are returned by
/// [`Config::step`]; deadlock / livelock / coverage are found by the
/// explorer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// An iteration was handed out as a sub-chunk twice.
    DoubleExecution {
        /// The doubly-executed iteration index.
        iter: u8,
        /// Process taking it the second time.
        pid: u8,
    },
    /// A chunk was deposited whose iterations were already deposited —
    /// the observable symptom of a lost global-counter update.
    DepositOverlap {
        /// Start of the overlapping deposit.
        lo: u8,
        /// End of the overlapping deposit.
        hi: u8,
        /// Depositing process.
        pid: u8,
    },
    /// A process committed to refilling while a peer's refill was
    /// already in flight.
    ConcurrentRefill {
        /// Node it happened on.
        node: u8,
        /// The second refiller.
        pid: u8,
    },
    /// A process committed to refilling while the queue held work —
    /// the "refill only when observed empty" rule.
    RefillWhileNonEmpty {
        /// Node it happened on.
        node: u8,
        /// The offending process.
        pid: u8,
    },
    /// All processes terminated but some iterations were never
    /// executed (the bitmap shows which).
    LostIterations {
        /// Bitmap of iterations never handed out.
        missing: u32,
    },
    /// No process can move but work (or a non-terminated process)
    /// remains.
    Deadlock {
        /// Processes not yet `Done`.
        stuck: Vec<u8>,
    },
    /// A weakly-fair cycle with no scheduling progress: the processes
    /// on the cycle can spin forever while every process that stays
    /// enabled is one of them.
    Livelock {
        /// Processes stepping inside the cycle.
        spinners: Vec<u8>,
    },
    /// A process waited behind more lock grants than the FCFS
    /// bounded-bypass bound allows.
    WaitBoundExceeded {
        /// The enqueued process.
        pid: u8,
        /// Observed grants-ahead depth.
        depth: u8,
        /// The configured bound.
        bound: u8,
    },
}

/// What a transition did — returned by [`Config::step`] so traces can
/// be rendered and wait depths tracked without re-deriving state
/// diffs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Acquired the free local lock (probe or deposit).
    Acquire,
    /// Enqueued on the held local lock; `depth` grants are ahead.
    Enqueue {
        /// Holder plus earlier waiters at enqueue time.
        depth: u8,
    },
    /// Took sub-chunk `[lo, hi)` from the local queue.
    TakeSub {
        /// Sub-chunk start.
        lo: u8,
        /// Sub-chunk end.
        hi: u8,
    },
    /// Probed an empty queue and became the refiller.
    BecomeRefiller,
    /// Probed an empty queue while a peer's refill is in flight.
    PeerRefilling,
    /// Probed an empty queue with the global queue exhausted:
    /// terminated.
    ProbeDone,
    /// Atomically fetched chunk `[lo, hi)` from the global queue.
    FetchChunk {
        /// Chunk start.
        lo: u8,
        /// Chunk end.
        hi: u8,
    },
    /// Atomically observed the global queue exhausted.
    FetchExhausted,
    /// [`Variant::NonAtomicFaa`]: read the global pair (first half).
    FaaRead,
    /// [`Variant::NonAtomicFaa`]: blind-wrote the advance computed
    /// from the stale pair, claiming `[lo, hi)`.
    FaaWriteChunk {
        /// Claimed chunk start.
        lo: u8,
        /// Claimed chunk end.
        hi: u8,
    },
    /// [`Variant::NonAtomicFaa`]: stale pair was already exhausted.
    FaaWriteExhausted,
    /// Deposited `[lo, hi)` and immediately took `[sub_lo, sub_hi)`.
    DepositChunk {
        /// Deposit start.
        lo: u8,
        /// Deposit end.
        hi: u8,
        /// Immediately-taken sub-chunk start.
        sub_lo: u8,
        /// Immediately-taken sub-chunk end.
        sub_hi: u8,
    },
    /// Deposited "global exhausted"; `done` if the queue was empty so
    /// the refiller terminated too.
    DepositExhausted {
        /// Whether the refiller terminated.
        done: bool,
    },
    /// [`Variant::RefillWithoutLock`]: unlocked read saw an empty
    /// queue and no refill in flight.
    ObserveEmpty,
    /// [`Variant::RefillWithoutLock`]: unlocked read saw a peer's
    /// refill in flight (self-loop).
    ObservePeer,
    /// [`Variant::RefillWithoutLock`]: unlocked read saw
    /// `global_done`: terminated.
    ObserveDone,
    /// [`Variant::RefillWithoutLock`]: committed the refill decision
    /// made without the lock.
    CommitRefill,
    /// A crash pseudo-transition killed `victim` at its current
    /// protocol point.
    Crash {
        /// The process that died.
        victim: u8,
        /// Whether it died holding its node's window lock.
        holding_lock: bool,
    },
    /// Seized the window lock abandoned by a dead holder (the model's
    /// bounded-grant timeout plus `repair_lock`).
    RepairLock {
        /// The dead holder the lock was revoked from.
        dead: u8,
    },
    /// Cleared the `refilling` flag abandoned by a dead refiller so a
    /// live rank can re-elect itself.
    RefillFailover {
        /// The dead refiller.
        dead: u8,
    },
    /// Re-deposited a dead owner's leased chunk into the local queue
    /// ([`Recovery::Leases`] only).
    Reclaim {
        /// The dead lease owner.
        owner: u8,
        /// Reclaimed chunk start.
        lo: u8,
        /// Reclaimed chunk end.
        hi: u8,
    },
}

/// Events synthesized by a transition, in the executor's tape
/// vocabulary: `(window, rank-in-window's-communicator, event)`.
pub type EventSink = Vec<(u64, u32, RmaEvent)>;

/// A bounded protocol configuration to explore.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of nodes (1..=[`MAX_NODES`]).
    pub nodes: u8,
    /// MPI ranks per node (1..=[`MAX_RANKS_PER_NODE`]).
    pub ranks_per_node: u8,
    /// Loop iterations (1..=[`MAX_N`]).
    pub n_iters: u8,
    /// Inter-node (global queue) technique.
    pub inter: Kind,
    /// Intra-node (local queue) technique.
    pub intra: Kind,
    /// Protocol variant.
    pub variant: Variant,
    /// Most crashes the adversary may inject (0 = fault-free).
    pub crash_budget: u8,
    /// How much of the recovery protocol is modelled.
    pub recovery: Recovery,
    inter_t: Technique,
    intra_t: Technique,
}

fn u8c(x: u64) -> u8 {
    u8::try_from(x).expect("model value exceeds u8 (config bounds enforce n <= 24)")
}

/// Append transaction `tx`, issued by `rank` on window `win`, to `sink`.
fn emit(sink: &mut Option<&mut EventSink>, win: u64, rank: u32, tx: &[RmaEvent]) {
    if let Some(sink) = sink.as_deref_mut() {
        sink.extend(tx.iter().map(|&e| (win, rank, e)));
    }
}

impl Config {
    /// A correct-variant configuration; panics if the bounds are
    /// exceeded.
    pub fn new(nodes: u8, ranks_per_node: u8, n_iters: u8, inter: Kind, intra: Kind) -> Self {
        assert!((1..=MAX_NODES as u8).contains(&nodes), "nodes out of model bounds");
        assert!(
            (1..=MAX_RANKS_PER_NODE as u8).contains(&ranks_per_node),
            "ranks_per_node out of model bounds"
        );
        assert!((1..=MAX_N).contains(&n_iters), "n_iters out of model bounds");
        Config {
            nodes,
            ranks_per_node,
            n_iters,
            inter,
            intra,
            variant: Variant::Correct,
            crash_budget: 0,
            recovery: Recovery::None,
            inter_t: Technique::from_kind(inter),
            intra_t: Technique::from_kind(intra),
        }
    }

    /// Same configuration with a different [`Variant`].
    pub fn with_variant(mut self, variant: Variant) -> Self {
        assert!(
            self.crash_budget == 0 || variant == Variant::Correct,
            "crash modelling only composes with the correct variant"
        );
        self.variant = variant;
        self
    }

    /// Allow the adversary up to `budget` crashes (correct variant
    /// only — the seeded bugs' counterexamples don't need an
    /// adversary on top).
    pub fn with_crashes(mut self, budget: u8) -> Self {
        assert!(self.variant == Variant::Correct, "crash modelling requires the correct variant");
        assert!(budget >= 1, "a zero crash budget is the default");
        self.crash_budget = budget;
        self
    }

    /// Select how much of the recovery protocol to model.
    pub fn with_recovery(mut self, recovery: Recovery) -> Self {
        self.recovery = recovery;
        self
    }

    /// Total process count.
    pub fn n_procs(&self) -> u8 {
        self.nodes * self.ranks_per_node
    }

    /// Node index of a process.
    pub fn node_of(&self, pid: u8) -> u8 {
        pid / self.ranks_per_node
    }

    /// Rank of a process within its node's communicator.
    pub fn local_of(&self, pid: u8) -> u8 {
        pid % self.ranks_per_node
    }

    /// Bitmap with every iteration set.
    pub fn full_mask(&self) -> u32 {
        if self.n_iters == 32 {
            u32::MAX
        } else {
            (1u32 << self.n_iters) - 1
        }
    }

    /// The FCFS bounded-bypass bound: at most `ranks_per_node - 1`
    /// grants can be ahead of an enqueuing rank (the holder plus
    /// every other rank of the node already waiting).
    pub fn wait_bound(&self) -> u8 {
        self.ranks_per_node - 1
    }

    /// The initial state: every process free, every queue empty.
    pub fn initial(&self) -> State {
        let mut procs = [Pc::Done; MAX_PROCS];
        for p in procs.iter_mut().take(self.n_procs() as usize) {
            *p = Pc::Probe;
        }
        State {
            g_step: 0,
            g_sched: 0,
            executed: 0,
            deposited: 0,
            procs,
            nodes: [NodeSt::fresh(); MAX_NODES],
            crashes_used: 0,
        }
    }

    fn inter_spec(&self) -> LoopSpec {
        LoopSpec::new(u64::from(self.n_iters), u32::from(self.nodes))
    }

    /// Protocol points a crash may land on. Waiters are excluded (an
    /// enqueued rank holds nothing a peer can't already see), as are
    /// variant-only states — crashes are discretized to the protocol
    /// points the live executor's triggers fire at.
    fn crashable(pc: Pc) -> bool {
        matches!(pc, Pc::Probe | Pc::CritProbe | Pc::Fetch | Pc::Deposit { .. })
    }

    /// Whether `pid` has an enabled transition in `s`. Crashed and
    /// terminated processes never move; waiters are passive unless
    /// they are the FIFO front behind a dead holder (the repair
    /// transition); everything else can always move (lock arrivals
    /// enqueue rather than block). Pseudo-ids `n_procs + q` are the
    /// adversary's crash transitions against process `q`.
    pub fn enabled(&self, s: &State, pid: u8) -> bool {
        let np = self.n_procs();
        if pid >= np {
            let q = pid - np;
            return q < np
                && s.crashes_used < self.crash_budget
                && Self::crashable(s.procs[q as usize]);
        }
        match s.procs[pid as usize] {
            Pc::Done | Pc::Crashed { .. } => false,
            Pc::WaitProbe | Pc::WaitDeposit { .. } => {
                if self.recovery == Recovery::None {
                    return false;
                }
                let node = &s.nodes[usize::from(self.node_of(pid))];
                node.n_waiters > 0
                    && node.waiters[0] == pid
                    && node.holder != FREE
                    && matches!(s.procs[node.holder as usize], Pc::Crashed { .. })
            }
            _ => true,
        }
    }

    /// Enabled process ids, ascending (crash pseudo-ids last).
    pub fn enabled_pids(&self, s: &State) -> Vec<u8> {
        let hi = if self.crash_budget > 0 { 2 * self.n_procs() } else { self.n_procs() };
        (0..hi).filter(|&p| self.enabled(s, p)).collect()
    }

    /// The node-local lease left by a dead rank of node `ni`, if any
    /// ([`Recovery::Leases`] only): `(owner, lo, hi)`.
    fn leased_corpse(&self, procs: &[Pc; MAX_PROCS], ni: usize) -> Option<(u8, u8, u8)> {
        if self.recovery != Recovery::Leases {
            return None;
        }
        (0..self.n_procs()).filter(|&p| usize::from(self.node_of(p)) == ni).find_map(
            |p| match procs[p as usize] {
                Pc::Crashed { lo, hi } if lo != NONE_PAYLOAD => Some((p, lo, hi)),
                _ => None,
            },
        )
    }

    /// Whether node `ni`'s in-flight refill belongs to a corpse: the
    /// `refilling` flag is up but no live rank of the node is anywhere
    /// in the fetch → deposit chain. Returns the corpse to blame.
    fn dead_refiller(&self, procs: &[Pc; MAX_PROCS], ni: usize, refilling: bool) -> Option<u8> {
        if self.recovery == Recovery::None || !refilling {
            return None;
        }
        let mut corpse = None;
        for p in (0..self.n_procs()).filter(|&p| usize::from(self.node_of(p)) == ni) {
            match procs[p as usize] {
                Pc::Fetch
                | Pc::FaaWrite { .. }
                | Pc::Deposit { .. }
                | Pc::WaitDeposit { .. }
                | Pc::CritDeposit { .. }
                | Pc::ObservedEmpty => return None,
                Pc::Crashed { .. } => corpse = Some(p),
                _ => {}
            }
        }
        corpse
    }

    /// Release the node lock: grant to the FIFO head, or free it.
    fn release(node: &mut NodeSt, procs: &mut [Pc; MAX_PROCS]) {
        if node.n_waiters == 0 {
            node.holder = FREE;
            return;
        }
        let h = node.waiters[0];
        for i in 1..node.n_waiters as usize {
            node.waiters[i - 1] = node.waiters[i];
        }
        node.n_waiters -= 1;
        node.waiters[node.n_waiters as usize] = 0;
        node.holder = h;
        procs[h as usize] = match procs[h as usize] {
            Pc::WaitProbe => Pc::CritProbe,
            Pc::WaitDeposit { lo, hi } => Pc::CritDeposit { lo, hi },
            other => unreachable!("lock granted to non-waiting pc {other:?}"),
        };
    }

    /// Set bits `[lo, hi)` of a coverage bitmap; `Err` names the first
    /// iteration already set.
    fn mark(bits: &mut u32, lo: u8, hi: u8) -> Result<(), u8> {
        for i in lo..hi {
            let bit = 1u32 << i;
            if *bits & bit != 0 {
                return Err(i);
            }
            *bits |= bit;
        }
        Ok(())
    }

    /// Mark `[lo, hi)` deposited, detecting a chunk handed out twice.
    fn mark_deposited(deposited: &mut u32, lo: u8, hi: u8, pid: u8) -> Result<(), Violation> {
        Self::mark(deposited, lo, hi).map_err(|_| Violation::DepositOverlap { lo, hi, pid })
    }

    /// Append `tx`, issued by `pid` on its node's window, to `sink`.
    fn node_tx(&self, sink: &mut Option<&mut EventSink>, pid: u8, tx: &[RmaEvent]) {
        let win = node_win(usize::from(self.node_of(pid)));
        emit(sink, win, u32::from(self.local_of(pid)), tx);
    }

    /// `pid` takes its next sub-chunk through [`protocol::take`], issues
    /// `tx` (a [`protocol::TAKE`], short of its unlock under
    /// [`Variant::LostUnlock`]) and executes it; `None`, with nothing
    /// issued, when the node's queue is drained.
    fn take(
        &self,
        node: &mut NodeSt,
        executed: &mut u32,
        pid: u8,
        sink: &mut Option<&mut EventSink>,
        tx: &[RmaEvent],
    ) -> Result<Option<(u8, u8)>, Violation> {
        let ctx = WorkerCtx::worker(u32::from(self.local_of(pid)));
        let p = u32::from(self.ranks_per_node);
        let Ok(Some(sub)) = protocol::take(&mut node.queue, &self.intra_t, p, ctx) else {
            return Ok(None);
        };
        self.node_tx(sink, pid, tx);
        let (lo, hi) = (u8c(sub.start), u8c(sub.end));
        Self::mark(executed, lo, hi).map_err(|iter| Violation::DoubleExecution { iter, pid })?;
        Ok(Some((lo, hi)))
    }

    /// One step of the inter technique from the global pair `st`, as
    /// every executor's global queue takes it: advance `t`'s pair and
    /// leave `pid` holding the chunk to deposit (or "exhausted").
    /// Returns the chunk.
    fn fetch(&self, t: &mut State, pid: u8, mut st: SchedState) -> Option<(u8, u8)> {
        let chunk = st.next_chunk(&self.inter_spec(), &self.inter_t).map(|c| {
            t.g_step = u8c(st.step);
            t.g_sched = u8c(st.scheduled);
            (u8c(c.start), u8c(c.end()))
        });
        let (lo, hi) = chunk.unwrap_or((NONE_PAYLOAD, NONE_PAYLOAD));
        t.procs[pid as usize] = Pc::Deposit { lo, hi };
        chunk
    }

    /// Apply `pid`'s (unique) enabled transition to `s`. Events the
    /// real executor would issue are appended to `sink` when given.
    ///
    /// Panics if `pid` is not enabled.
    pub fn step(
        &self,
        s: &State,
        pid: u8,
        mut sink: Option<&mut EventSink>,
    ) -> Result<(State, Action), Violation> {
        let mut t = *s;
        let np = self.n_procs();
        if pid >= np {
            // Crash pseudo-transition: kill `victim` where it stands.
            // A crash is silent — no RMA events; locks, flags and the
            // claimed-but-undeposited chunk stay exactly as the
            // victim left them.
            let victim = pid - np;
            assert!(
                victim < np
                    && t.crashes_used < self.crash_budget
                    && Self::crashable(t.procs[victim as usize]),
                "crash step on non-crashable target {victim}"
            );
            let holding_lock = t.nodes[usize::from(self.node_of(victim))].holder == victim;
            let (lo, hi) = match t.procs[victim as usize] {
                // The lease was published atomically with the FAA, so
                // it survives the crash — only under the patch.
                Pc::Deposit { lo, hi }
                    if self.recovery == Recovery::Leases && lo != NONE_PAYLOAD =>
                {
                    (lo, hi)
                }
                _ => (NONE_PAYLOAD, NONE_PAYLOAD),
            };
            t.crashes_used += 1;
            t.procs[victim as usize] = Pc::Crashed { lo, hi };
            return Ok((t, Action::Crash { victim, holding_lock }));
        }
        let ni = usize::from(self.node_of(pid));
        let pc = t.procs[pid as usize];
        let action = match pc {
            Pc::Done | Pc::Crashed { .. } => {
                panic!("step on disabled process {pid} ({pc:?})")
            }

            Pc::WaitProbe | Pc::WaitDeposit { .. } => {
                // Front-waiter lock repair: the bounded-grant timeout
                // fired and the holder is provably dead, so the FIFO
                // head revokes the grant and takes the lock itself.
                let node = &mut t.nodes[ni];
                let dead = node.holder;
                assert!(
                    self.recovery != Recovery::None
                        && node.n_waiters > 0
                        && node.waiters[0] == pid
                        && dead != FREE
                        && matches!(t.procs[dead as usize], Pc::Crashed { .. }),
                    "step on passive waiter {pid} ({pc:?})"
                );
                for i in 1..node.n_waiters as usize {
                    node.waiters[i - 1] = node.waiters[i];
                }
                node.n_waiters -= 1;
                node.waiters[node.n_waiters as usize] = 0;
                node.holder = pid;
                t.procs[pid as usize] = match pc {
                    Pc::WaitProbe => Pc::CritProbe,
                    Pc::WaitDeposit { lo, hi } => Pc::CritDeposit { lo, hi },
                    other => unreachable!("non-waiting pc {other:?}"),
                };
                Action::RepairLock { dead }
            }

            Pc::Probe => {
                let node = &mut t.nodes[ni];
                if self.variant == Variant::RefillWithoutLock && node.queue.n_ranges == 0 {
                    // The bug: the empty probe's reads without its lock
                    // and sync, and its decision made on a copy of the
                    // flags — the `refilling` write is a later step.
                    self.node_tx(&mut sink, pid, &protocol::PROBE_REFILL[2..8]);
                    let mut seen = node.flags;
                    match protocol::empty_probe(&mut seen, true) {
                        Empty::Retire => {
                            t.procs[pid as usize] = Pc::Done;
                            Action::ObserveDone
                        }
                        Empty::PeerRefilling => Action::ObservePeer,
                        Empty::Refill => {
                            t.procs[pid as usize] = Pc::ObservedEmpty;
                            Action::ObserveEmpty
                        }
                    }
                } else if node.holder == FREE {
                    debug_assert_eq!(node.n_waiters, 0, "free lock with waiters");
                    node.holder = pid;
                    t.procs[pid as usize] = Pc::CritProbe;
                    Action::Acquire
                } else if self.recovery != Recovery::None
                    && node.n_waiters == 0
                    && matches!(t.procs[node.holder as usize], Pc::Crashed { .. })
                {
                    // No queue to repair from: the arriving prober
                    // detects the dead holder and seizes directly.
                    let dead = node.holder;
                    node.holder = pid;
                    t.procs[pid as usize] = Pc::CritProbe;
                    Action::RepairLock { dead }
                } else {
                    let depth = node.push_waiter(pid);
                    t.procs[pid as usize] = Pc::WaitProbe;
                    Action::Enqueue { depth }
                }
            }

            Pc::CritProbe => {
                let node = &mut t.nodes[ni];
                debug_assert_eq!(node.holder, pid);
                let lost_unlock = self.variant == Variant::LostUnlock;
                let take = if lost_unlock {
                    // The bug: the take's transaction without its unlock.
                    &protocol::TAKE[..protocol::TAKE.len() - 1]
                } else {
                    protocol::TAKE
                };
                if let Some((lo, hi)) = self.take(node, &mut t.executed, pid, &mut sink, take)? {
                    if !lost_unlock {
                        Self::release(node, &mut t.procs);
                    }
                    t.procs[pid as usize] = Pc::Probe;
                    Action::TakeSub { lo, hi }
                } else if let Some((owner, lo, hi)) = self.leased_corpse(&t.procs, ni) {
                    // Reclaim, folded into the probe critical section
                    // exactly like the live executor's empty-branch
                    // lease scan: re-deposit the dead owner's chunk
                    // and settle its lease. The prober keeps the lock
                    // and takes a sub-chunk on its next step.
                    Self::mark_deposited(&mut t.deposited, lo, hi, pid)?;
                    let Ok(()) = node.queue.push(lo.into(), hi.into());
                    node.flags.refilling = false;
                    t.procs[owner as usize] = Pc::Crashed { lo: NONE_PAYLOAD, hi: NONE_PAYLOAD };
                    Action::Reclaim { owner, lo, hi }
                } else if let Some(dead) = self.dead_refiller(&t.procs, ni, node.flags.refilling) {
                    // Refill failover: the in-flight refill belongs to
                    // a corpse, so clear the flag and let the decision
                    // below re-elect on the next step.
                    node.flags.refilling = false;
                    Action::RefillFailover { dead }
                } else {
                    let probe = protocol::empty_probe(&mut node.flags, true);
                    self.node_tx(&mut sink, pid, probe.tx());
                    Self::release(node, &mut t.procs);
                    let (next, action) = match probe {
                        Empty::Retire => (Pc::Done, Action::ProbeDone),
                        Empty::Refill => (Pc::Fetch, Action::BecomeRefiller),
                        Empty::PeerRefilling => (Pc::Probe, Action::PeerRefilling),
                    };
                    t.procs[pid as usize] = next;
                    action
                }
            }

            Pc::ObservedEmpty => {
                let node = &mut t.nodes[ni];
                if node.flags.refilling {
                    return Err(Violation::ConcurrentRefill { node: self.node_of(pid), pid });
                }
                if node.queue.n_ranges > 0 {
                    return Err(Violation::RefillWhileNonEmpty { node: self.node_of(pid), pid });
                }
                // The unlocked probe's deferred `refilling` write.
                node.flags.refilling = true;
                self.node_tx(&mut sink, pid, &protocol::PROBE_REFILL[8..9]);
                t.procs[pid as usize] = Pc::Fetch;
                Action::CommitRefill
            }

            Pc::Fetch if self.variant == Variant::NonAtomicFaa => {
                // The bug: the locked advance's reads without its lock;
                // the blind writes are the next step.
                emit(&mut sink, GLOBAL_WIN, pid.into(), &protocol::GLOBAL_LOCKED_ADVANCE[1..3]);
                t.procs[pid as usize] = Pc::FaaWrite { step: t.g_step, sched: t.g_sched };
                Action::FaaRead
            }

            Pc::Fetch => {
                emit(&mut sink, GLOBAL_WIN, pid.into(), protocol::GLOBAL_FAA);
                let st = SchedState { step: t.g_step.into(), scheduled: t.g_sched.into() };
                match self.fetch(&mut t, pid, st) {
                    Some((lo, hi)) => Action::FetchChunk { lo, hi },
                    None => Action::FetchExhausted,
                }
            }

            Pc::FaaWrite { step, sched } => {
                // The blind write: overwrites any advance a concurrent
                // fetcher made since the stale read.
                let st = SchedState { step: step.into(), scheduled: sched.into() };
                match self.fetch(&mut t, pid, st) {
                    Some((lo, hi)) => {
                        let writes = &protocol::GLOBAL_LOCKED_ADVANCE[3..5];
                        emit(&mut sink, GLOBAL_WIN, pid.into(), writes);
                        Action::FaaWriteChunk { lo, hi }
                    }
                    None => Action::FaaWriteExhausted,
                }
            }

            Pc::Deposit { lo, hi } => {
                let node = &mut t.nodes[ni];
                if node.holder == FREE {
                    debug_assert_eq!(node.n_waiters, 0, "free lock with waiters");
                    node.holder = pid;
                    t.procs[pid as usize] = Pc::CritDeposit { lo, hi };
                    Action::Acquire
                } else if self.recovery != Recovery::None
                    && node.n_waiters == 0
                    && matches!(t.procs[node.holder as usize], Pc::Crashed { .. })
                {
                    let dead = node.holder;
                    node.holder = pid;
                    t.procs[pid as usize] = Pc::CritDeposit { lo, hi };
                    Action::RepairLock { dead }
                } else {
                    let depth = node.push_waiter(pid);
                    t.procs[pid as usize] = Pc::WaitDeposit { lo, hi };
                    Action::Enqueue { depth }
                }
            }

            Pc::CritDeposit { lo, hi } => {
                let node = &mut t.nodes[ni];
                debug_assert_eq!(node.holder, pid);
                let chunk = (lo != NONE_PAYLOAD).then(|| (lo.into(), hi.into()));
                let fetched = chunk.map_or(Fetched::Done, |(lo, hi)| Fetched::Chunk(lo, hi));
                let Ok(tx) = protocol::deposit(&mut node.queue, &mut node.flags, fetched);
                self.node_tx(&mut sink, pid, tx);
                if chunk.is_none() {
                    let done = node.queue.front() == Ok(None);
                    Self::release(node, &mut t.procs);
                    t.procs[pid as usize] = if done { Pc::Done } else { Pc::Probe };
                    Action::DepositExhausted { done }
                } else {
                    Self::mark_deposited(&mut t.deposited, lo, hi, pid)?;
                    // The refiller immediately takes its own first
                    // sub-chunk under the same lock grant (the
                    // executor's deposit path calls `execute_sub`).
                    let (sub_lo, sub_hi) = self
                        .take(node, &mut t.executed, pid, &mut sink, protocol::TAKE)?
                        .expect("the deposit is in the queue");
                    Self::release(node, &mut t.procs);
                    t.procs[pid as usize] = Pc::Probe;
                    Action::DepositChunk { lo, hi, sub_lo, sub_hi }
                }
            }
        };
        Ok((t, action))
    }

    /// Terminal-state coverage check: if every process is `Done` (or
    /// crashed — a corpse is terminated, not stuck), every iteration
    /// must have been executed. This is where a lease-free crash
    /// surfaces as [`Violation::LostIterations`].
    pub fn check_terminal(&self, s: &State) -> Result<(), Violation> {
        let all_done = (0..self.n_procs())
            .all(|p| matches!(s.procs[p as usize], Pc::Done | Pc::Crashed { .. }));
        if all_done {
            let missing = self.full_mask() & !s.executed;
            if missing != 0 {
                return Err(Violation::LostIterations { missing });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(inter: Kind, intra: Kind) -> Config {
        Config::new(2, 2, 12, inter, intra)
    }

    #[test]
    fn initial_state_everyone_probing() {
        let c = cfg(Kind::GSS, Kind::SS);
        let s = c.initial();
        assert_eq!(c.enabled_pids(&s), vec![0, 1, 2, 3]);
        assert_eq!(s.executed, 0);
        assert_eq!(c.full_mask(), 0xFFF);
    }

    #[test]
    fn serial_run_covers_exactly_once() {
        // Always stepping the lowest enabled pid is one legal
        // schedule; it must terminate with full coverage.
        for inter in Kind::PAPER {
            for intra in Kind::PAPER {
                let c = cfg(inter, intra);
                let mut s = c.initial();
                let mut steps = 0;
                loop {
                    let en = c.enabled_pids(&s);
                    let Some(&pid) = en.first() else { break };
                    let (next, _) = c
                        .step(&s, pid, None)
                        .unwrap_or_else(|v| panic!("{inter}/{intra}: unexpected violation {v:?}"));
                    // The peer-refilling probe is the only self-loop,
                    // and the serial schedule never creates one (the
                    // refiller always runs first).
                    s = next;
                    steps += 1;
                    assert!(steps < 10_000, "{inter}/{intra}: serial run diverged");
                }
                assert_eq!(s.executed, c.full_mask(), "{inter}/{intra}");
                c.check_terminal(&s).expect("coverage");
                assert_eq!(s.deposited, c.full_mask(), "{inter}/{intra}");
            }
        }
    }

    #[test]
    fn model_take_matches_local_queue() {
        // Both queues go through `protocol::take`; the model's `u8`
        // `Fifo` must hand out exactly what `LocalQueue` does.
        for intra in Kind::PAPER {
            let c = Config::new(1, 3, 17, Kind::STATIC, intra);
            let mut s = c.initial();
            let Ok(()) = s.nodes[0].queue.push(0, 17);
            s.deposited = (1 << 17) - 1;
            let mut q = hier::queue::LocalQueue::new();
            q.deposit(0, 17);

            // Drive pid 0 only: Probe -> CritProbe -> TakeSub.
            let mut model_subs = Vec::new();
            loop {
                let (s1, a) = c.step(&s, 0, None).expect("no violation");
                s = s1;
                match a {
                    Action::Acquire => {}
                    Action::TakeSub { lo, hi } => model_subs.push((u64::from(lo), u64::from(hi))),
                    Action::BecomeRefiller => break, // queue drained
                    other => panic!("unexpected action {other:?}"),
                }
            }
            let mut queue_subs = Vec::new();
            let t = Technique::from_kind(intra);
            while let Ok(Some(sub)) = protocol::take(&mut q, &t, 3, WorkerCtx::worker(0)) {
                queue_subs.push((sub.start, sub.end));
            }
            assert_eq!(model_subs, queue_subs, "{intra}");
        }
    }

    #[test]
    fn fetch_chunks_match_dls_sequence() {
        // The model's global fetches must walk the same chunk
        // sequence as driving dls directly.
        let c = Config::new(2, 1, 20, Kind::TSS, Kind::SS);
        let mut s = c.initial();
        let mut fetched = Vec::new();
        'outer: loop {
            for pid in 0..c.n_procs() {
                if c.enabled(&s, pid) {
                    let (s1, a) = c.step(&s, pid, None).expect("no violation");
                    s = s1;
                    if let Action::FetchChunk { lo, hi } = a {
                        fetched.push((u64::from(lo), u64::from(hi)));
                    }
                    continue 'outer;
                }
            }
            break;
        }
        let spec = LoopSpec::new(20, 2);
        let expect: Vec<_> = dls::sequence::ChunkSequence::new(&spec, &Technique::tss())
            .map(|ch| (ch.start, ch.end()))
            .collect();
        assert_eq!(fetched, expect);
    }

    #[test]
    fn waiters_fifo_and_bounded() {
        let c = Config::new(1, 3, 8, Kind::STATIC, Kind::SS);
        let mut s = c.initial();
        // pid 0 acquires; pids 1, 2 enqueue in order.
        let (s1, a) = c.step(&s, 0, None).expect("ok");
        assert_eq!(a, Action::Acquire);
        s = s1;
        let (s1, a) = c.step(&s, 1, None).expect("ok");
        assert_eq!(a, Action::Enqueue { depth: 1 });
        s = s1;
        let (s1, a) = c.step(&s, 2, None).expect("ok");
        assert_eq!(a, Action::Enqueue { depth: 2 });
        s = s1;
        assert!(u32::from(s.nodes[0].n_waiters) == 2);
        // pid 0 finishes its critical section: the lock must hand to
        // pid 1 (FIFO), not pid 2.
        let (s1, _) = c.step(&s, 0, None).expect("ok");
        assert_eq!(s1.nodes[0].holder, 1);
        assert_eq!(s1.procs[1], Pc::CritProbe);
        assert_eq!(s1.procs[2], Pc::WaitProbe);
    }
}
