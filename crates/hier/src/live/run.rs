//! What every real-thread executor does once it holds a sub-chunk —
//! run the iterations, count them, time them — and how the workers'
//! records become a [`LiveResult`], each once. The executors keep their
//! own protocols (window lock, team barrier, request/assign) and write
//! into a [`Ledger`]; [`assemble`] is the only place that reads one.
//! The wall-clock mirror of `sim::run`.
//!
//! A ledger keeps what its worker executed as [`Runs`]: back-to-back
//! sub-chunks of one length cost one entry between them, so a rank that
//! drains a deposit one iteration at a time (the X+SS regime) records
//! the deposit, not its iterations. A sequence that never merges — ranks
//! of one node interleaving single iterations — costs 16 bytes per
//! sub-chunk, as a flat list of them would.

use super::{LiveResult, RunConfig};
use crate::queue::SubChunk;
use crate::stats::RunStats;
use cluster_sim::trace::{SegmentKind, Trace};
use mpisim::{RankWinStats, RmaRecord};
use resilience::RecoveryEvent;
use std::slice;
use std::time::Instant;
use workloads::Workload;

/// The checksum fold of the executors and of the serial reference:
/// `acc` plus `Workload::execute` over `lo..hi`, wrapping.
pub(super) fn fold_checksum(workload: &dyn Workload, lo: u64, hi: u64, mut acc: u64) -> u64 {
    for i in lo..hi {
        acc = acc.wrapping_add(workload.execute(i));
    }
    acc
}

/// One worker's record of a run: what it executed, its timeline, and
/// the scheduling counters of whichever protocol drove it.
pub(super) struct Ledger {
    worker: u32,
    /// The node whose shared local queue this worker draws from. `None`
    /// under the message-passing models, which have no such queue: their
    /// `NodeStats` stay zero.
    node: Option<u32>,
    checksum: u64,
    iterations: u64,
    sub_chunks: u64,
    /// In execution order; [`assemble`] moves it into the result's
    /// [`Executed`] beside `worker`.
    executed: Runs,
    trace: Trace,
    // The worker's wall clock, cut into back-to-back timeline segments.
    // It is read once per segment boundary, and only when somebody uses
    // the value (`timed`): the trace, AWF's rate history or a
    // straggler's busy-wait. Otherwise a boundary costs nothing and
    // reports 0.
    epoch: Instant,
    timed: bool,
    /// Where the open segment began, in ns since `epoch`.
    open: u64,
    /// When this worker left its loop, in ns since the run epoch.
    finish_ns: u64,
    // ---- filled by the executors whose protocol has them ----
    pub(super) global_fetches: u64,
    pub(super) deposits: u64,
    pub(super) global_accesses: u64,
    /// Recovery actions this worker performed (lease reclaims + lock
    /// repairs).
    pub(super) reclaims: u64,
    /// `(acquisitions, contended, polls)` of the node's queue lock,
    /// reported by one worker per node to avoid double counting.
    pub(super) lock_stats: Option<(u64, u64, u64)>,
    /// This worker's window counters, every window it touched summed.
    pub(super) win_stats: RankWinStats,
    lock_revocations: u64,
    /// Crash / detection / repair events this worker observed.
    pub(super) recovery: Vec<RecoveryEvent>,
}

impl Ledger {
    /// The ledger of global worker `worker`. Segment boundaries are
    /// stamped relative to `epoch`, into the trace when `traced`; they
    /// read the clock only when `timed`.
    pub(super) fn new(
        worker: u32,
        node: Option<u32>,
        epoch: Instant,
        traced: bool,
        timed: bool,
    ) -> Self {
        Self {
            worker,
            node,
            checksum: 0,
            iterations: 0,
            sub_chunks: 0,
            executed: Runs::default(),
            trace: if traced { Trace::recording() } else { Trace::disabled() },
            epoch,
            timed,
            open: epoch.elapsed().as_nanos() as u64,
            finish_ns: 0,
            global_fetches: 0,
            deposits: 0,
            global_accesses: 0,
            reclaims: 0,
            lock_stats: None,
            win_stats: RankWinStats::default(),
            lock_revocations: 0,
            recovery: Vec::new(),
        }
    }

    /// A ledger that keeps no timeline (the message-passing models are
    /// comparison baselines and record none).
    pub(super) fn untimed(worker: u32) -> Self {
        Self::new(worker, None, Instant::now(), false, false)
    }

    /// Sub-chunks executed so far.
    pub(super) fn sub_chunks(&self) -> u64 {
        self.sub_chunks
    }

    /// The kernel loop: run `sub`'s iterations and account them.
    pub(super) fn execute(&mut self, workload: &dyn Workload, sub: SubChunk) {
        self.checksum = fold_checksum(workload, sub.start, sub.end, self.checksum);
        self.iterations += sub.len();
        self.sub_chunks += 1;
        self.executed.push(sub);
    }

    /// Nanoseconds since the run epoch.
    pub(super) fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Where the open timeline segment began, in ns since the run epoch.
    pub(super) fn opened(&self) -> u64 {
        self.open
    }

    /// Close the open timeline segment as `kind` and open the next one
    /// at the same instant, which is returned.
    pub(super) fn cut(&mut self, kind: SegmentKind) -> u64 {
        if !self.timed {
            return 0;
        }
        let at = self.now();
        self.trace.record(self.worker, self.open, at, kind);
        self.open = at;
        at
    }

    /// This worker revoked the node-queue lock from `dead_holder`.
    pub(super) fn lock_repaired(&mut self, dead_holder: u32) {
        self.reclaims += 1;
        self.lock_revocations += 1;
        self.recovery.push(RecoveryEvent::LockRepair {
            node: self.node.expect("only a node's shared queue has a lock to repair"),
            dead_holder,
            by: self.worker,
            at_ns: self.now(),
        });
    }

    /// This worker re-deposited dead `owner`'s leased range `[lo, hi)`.
    pub(super) fn reclaimed(&mut self, owner: u32, lo: u64, hi: u64) {
        self.reclaims += 1;
        self.deposits += 1;
        let at_ns = self.now();
        self.recovery.push(RecoveryEvent::LeaseExpired { owner, lo, hi, at_ns });
        self.recovery.push(RecoveryEvent::Reclaim { by: self.worker, owner, lo, hi, at_ns });
    }

    /// This worker dies now (fault injection).
    pub(super) fn crashed(&mut self, holding_lock: bool) {
        self.recovery.push(RecoveryEvent::Crash {
            rank: self.worker,
            at_ns: self.now(),
            holding_lock,
        });
    }

    /// This worker left its loop.
    pub(super) fn finish(&mut self) {
        self.finish_ns = self.now();
    }
}

/// The first sub-chunk of a run, `start..start + len`; the run's other
/// sub-chunks follow it back to back, each `len` long.
#[derive(Clone, Copy, Debug)]
struct Run {
    start: u64,
    len: u64,
}

/// One worker's executed sub-chunks in execution order, as runs of
/// back-to-back sub-chunks of one length. A run costs its head, plus one
/// `repeats` entry when it holds more than one sub-chunk: never more
/// than 16 bytes per sub-chunk.
#[derive(Clone, Debug, Default)]
struct Runs {
    heads: Vec<Run>,
    /// `(index into heads, sub-chunks after the head)` of every run
    /// longer than one, in head order.
    repeats: Vec<(usize, u64)>,
    /// One past the last iteration pushed.
    end: u64,
}

impl Runs {
    /// Record `sub` after everything pushed so far: it extends the last
    /// run when it starts where that run ends and has its length.
    #[inline]
    fn push(&mut self, sub: SubChunk) {
        let len = sub.len();
        match self.heads.last() {
            Some(run) if run.len == len && sub.start == self.end => {
                let open = self.heads.len() - 1;
                match self.repeats.last_mut() {
                    Some((head, extra)) if *head == open => *extra += 1,
                    _ => self.repeats.push((open, 1)),
                }
            }
            _ => self.heads.push(Run { start: sub.start, len }),
        }
        self.end = sub.end;
    }

    fn len(&self) -> usize {
        self.heads.len() + self.repeats.iter().map(|&(_, extra)| extra as usize).sum::<usize>()
    }

    fn iter(&self) -> Subs<'_> {
        Subs { heads: self.heads.iter(), repeats: &self.repeats, ..Subs::default() }
    }
}

/// The sub-chunks of one [`Runs`], run by run.
#[derive(Clone, Debug, Default)]
struct Subs<'a> {
    heads: slice::Iter<'a, Run>,
    /// The `repeats` entries not yet reached.
    repeats: &'a [(usize, u64)],
    /// Index of the next head.
    head: usize,
    /// The open run's next sub-chunk start, its length, and how many of
    /// its sub-chunks are still to come.
    start: u64,
    len: u64,
    left: u64,
}

impl Iterator for Subs<'_> {
    type Item = SubChunk;

    #[inline]
    fn next(&mut self) -> Option<SubChunk> {
        if self.left == 0 {
            let run = self.heads.next()?;
            self.left = 1;
            if let [(head, extra), rest @ ..] = self.repeats {
                if *head == self.head {
                    self.left += extra;
                    self.repeats = rest;
                }
            }
            self.head += 1;
            (self.start, self.len) = (run.start, run.len);
        }
        self.left -= 1;
        // Every sub-chunk yielded was pushed, so its end does not overflow.
        let sub = SubChunk { start: self.start, end: self.start + self.len };
        self.start = sub.end;
        Some(sub)
    }
}

/// Every sub-chunk a live run executed, tagged with the global id of the
/// worker that ran it: the workers' own ledgers, moved into the result
/// by [`assemble`] and never copied. Each ledger holds its sub-chunks as
/// runs of back-to-back equal-length ones and expands them only when
/// iterated, so a worker that executes a deposit one iteration at a time
/// stores the deposit, not its iterations.
///
/// Iteration order is ledger by ledger, in the order the executor
/// handed its workers' records over, and within one ledger the order
/// that worker executed them. Only the within-worker order means
/// anything: live workers race, so there is no run-wide timeline to
/// keep. `SimResult::executed` stays one flat `Vec` because a simulated
/// run has one — the virtual-time event order, which `sim_golden` hashes.
#[derive(Clone, Debug, Default)]
pub struct Executed {
    ledgers: Vec<(u32, Runs)>,
}

/// The iterator of [`Executed::iter`].
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    ledgers: slice::Iter<'a, (u32, Runs)>,
    worker: u32,
    subs: Subs<'a>,
}

impl Iterator for Iter<'_> {
    type Item = (u32, SubChunk);

    #[inline]
    fn next(&mut self) -> Option<(u32, SubChunk)> {
        loop {
            if let Some(sub) = self.subs.next() {
                return Some((self.worker, sub));
            }
            let (worker, runs) = self.ledgers.next()?;
            (self.worker, self.subs) = (*worker, runs.iter());
        }
    }
}

impl Executed {
    /// `(worker, sub_chunk)` pairs, ledger by ledger.
    pub fn iter(&self) -> Iter<'_> {
        Iter { ledgers: self.ledgers.iter(), worker: 0, subs: Subs::default() }
    }

    /// Number of executed sub-chunks.
    pub fn len(&self) -> usize {
        self.ledgers.iter().map(|(_, runs)| runs.len()).sum()
    }

    /// True when no worker executed anything.
    pub fn is_empty(&self) -> bool {
        self.ledgers.iter().all(|(_, runs)| runs.heads.is_empty())
    }
}

impl<'a> IntoIterator for &'a Executed {
    type Item = (u32, SubChunk);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Turn the workers' ledgers into the run's result: the one writer of
/// [`RunStats`] and the one constructor of [`LiveResult`].
pub(super) fn assemble(cfg: &RunConfig, ledgers: Vec<Ledger>, rma: Vec<RmaRecord>) -> LiveResult {
    let total_workers = cfg.topology.total_workers() as usize;
    let mut stats = RunStats::new(total_workers, cfg.topology.nodes as usize);
    let mut executed = Executed { ledgers: Vec::with_capacity(ledgers.len()) };
    let mut trace = if cfg.trace { Trace::recording() } else { Trace::disabled() };
    let mut recovery = Vec::new();
    let makespan_ns = ledgers.iter().map(|l| l.finish_ns).max().unwrap_or(0);
    for l in ledgers {
        let w = &mut stats.workers[l.worker as usize];
        w.iterations = l.iterations;
        w.sub_chunks = l.sub_chunks;
        w.global_fetches = l.global_fetches;
        w.lock_polls = l.win_stats.failed_polls;
        w.lock_time_ns = l.win_stats.lock_wait_ns + l.win_stats.lock_held_ns;
        w.rma_ops = l.win_stats.rma_atomic_ops;
        w.reclaims = l.reclaims;
        if let Some(node) = l.node {
            let node = &mut stats.nodes[node as usize];
            node.deposits += l.deposits;
            node.sub_chunks += l.sub_chunks;
            node.lock_revocations += l.lock_revocations;
            if let Some((acquisitions, contended, polls)) = l.lock_stats {
                node.lock_acquisitions = acquisitions;
                node.lock_contended = contended;
                node.lock_polls = polls;
            }
        }
        stats.global_accesses += l.global_accesses;
        stats.total_iterations += l.iterations;
        stats.checksum = stats.checksum.wrapping_add(l.checksum);
        executed.ledgers.push((l.worker, l.executed));
        for s in l.trace.segments() {
            trace.record(s.worker, s.start, s.end, s.kind);
        }
        // Pad the tail so every worker's timeline spans the makespan.
        trace.record(l.worker, l.finish_ns, makespan_ns, SegmentKind::Idle);
        recovery.extend(l.recovery);
    }
    recovery.sort_by_key(RecoveryEvent::at_ns);
    LiveResult { checksum: stats.checksum, stats, executed, trace, rma, recovery }
}

#[cfg(test)]
mod tests {
    use super::{assemble, Executed, Ledger, Run, Runs};
    use crate::config::{Approach, HierSpec};
    use crate::live::{assert_exact, run_live, serial_checksum, RunConfig};
    use crate::queue::{exactly_once, SubChunk};
    use proptest::prelude::*;
    use std::mem::size_of;
    use workloads::synthetic::Synthetic;
    use workloads::{CostTable, Workload};

    /// Three workers' shares of `0..30`, one of them empty and one a
    /// run of three sub-chunks, handed over out of worker order.
    const SHARES: [(u32, &[(u64, u64)]); 3] =
        [(2, &[(0, 10), (25, 30)]), (0, &[]), (1, &[(10, 15), (15, 20), (20, 25)])];

    fn ledgers() -> Vec<Ledger> {
        SHARES
            .iter()
            .map(|&(worker, subs)| {
                let mut l = Ledger::untimed(worker);
                for &(start, end) in subs {
                    l.executed.push(SubChunk { start, end });
                }
                l
            })
            .collect()
    }

    fn cfg() -> RunConfig {
        RunConfig::new(1, 3, HierSpec::new(dls::Kind::GSS, dls::Kind::SS), Approach::MpiMpi)
    }

    /// Where a ledger's two buffers live.
    fn buffers(runs: &Runs) -> (*const Run, *const (usize, u64)) {
        (runs.heads.as_ptr(), runs.repeats.as_ptr())
    }

    #[test]
    fn assemble_moves_every_ledger_buffer_into_the_result() {
        let ledgers = ledgers();
        assert_eq!(ledgers[2].executed.repeats.len(), 1, "the fixture has a run to move");
        let before: Vec<_> = ledgers.iter().map(|l| (l.worker, buffers(&l.executed))).collect();
        let r = assemble(&cfg(), ledgers, Vec::new());
        let kept: Vec<_> = r.executed.ledgers.iter().map(|(w, runs)| (*w, buffers(runs))).collect();
        assert_eq!(kept, before, "a ledger was copied on its way into the result");
    }

    #[test]
    fn iter_is_the_flat_tagging_of_the_ledgers() {
        let flat: Vec<(u32, SubChunk)> = SHARES
            .iter()
            .flat_map(|&(w, subs)| {
                subs.iter().map(move |&(start, end)| (w, SubChunk { start, end }))
            })
            .collect();
        let r = assemble(&cfg(), ledgers(), Vec::new());
        assert!(r.executed.iter().eq(flat.iter().copied()));
        assert!((&r.executed).into_iter().eq(flat.iter().copied()));
        assert_eq!(r.executed.len(), flat.len());
        exactly_once(&r.executed, 30).expect("the three ledgers partition 0..30");
    }

    #[test]
    fn len_and_is_empty_count_sub_chunks_not_ledgers() {
        assert_eq!(assemble(&cfg(), ledgers(), Vec::new()).executed.len(), 5);
        let none = Executed::default();
        assert_eq!((none.len(), none.is_empty(), none.iter().next()), (0, true, None));
        let idle = assemble(&cfg(), (0..3).map(Ledger::untimed).collect(), Vec::new()).executed;
        assert_eq!(idle.ledgers.len(), 3);
        assert_eq!((idle.len(), idle.is_empty(), idle.iter().next()), (0, true, None));
    }

    #[test]
    fn exactly_once_takes_a_sim_and_a_live_result_of_one_schedule() {
        let w = Synthetic::uniform(500, 1, 100, 5);
        let spec = HierSpec::new(dls::Kind::FAC2, dls::Kind::GSS);
        let mut cfg = RunConfig::new(2, 2, spec, Approach::MpiMpi);
        cfg.record_chunks = true;
        let sim = crate::sim::simulate(&cfg, &CostTable::build(&w));
        let live = run_live(&cfg, &w).expect("live run");
        exactly_once(&sim.executed, w.n_iters()).expect("sim");
        exactly_once(&live.executed, w.n_iters()).expect("live");
    }

    /// Every iteration is worth `u64::MAX`: any two of them overflow.
    struct Saturated(u64);

    impl Workload for Saturated {
        fn n_iters(&self) -> u64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "Saturated"
        }
        fn execute(&self, _: u64) -> u64 {
            u64::MAX
        }
        fn cost(&self, _: u64) -> u64 {
            1
        }
    }

    #[test]
    fn serial_checksum_wraps_like_the_executors() {
        let w = Saturated(50);
        let serial = serial_checksum(&w);
        assert_eq!(serial, u64::MAX.wrapping_mul(50));
        let spec = HierSpec::new(dls::Kind::GSS, dls::Kind::SS);
        for approach in [Approach::MpiMpi, Approach::MpiOpenMp] {
            let r = run_live(&RunConfig::new(2, 2, spec, approach), &w).expect("live run");
            assert_eq!((r.checksum, r.stats.checksum), (serial, serial));
        }
    }

    /// The sequence `steps` describes from `base`, each step relative to
    /// the sub-chunk before it: `0` the next one of the same length, `1`
    /// the next one `len` long, `2` one `len` long after a `gap`, `3`
    /// the same one again, `4` an empty one where it ends. Ends saturate
    /// at `u64::MAX`.
    fn sequence(base: u64, steps: &[(u8, u64, u64)]) -> impl Iterator<Item = SubChunk> + '_ {
        steps.iter().scan(SubChunk { start: base, end: base }, |prev, &(kind, len, gap)| {
            let (start, len) = match kind {
                0 => (prev.end, prev.len()),
                1 => (prev.end, len),
                2 => (prev.end.saturating_add(gap), len),
                3 => (prev.start, prev.len()),
                _ => (prev.end, 0),
            };
            *prev = SubChunk { start, end: start.saturating_add(len) };
            Some(*prev)
        })
    }

    /// The bytes `runs` keeps on the heap, counted by length.
    fn heap_bytes(runs: &Runs) -> usize {
        runs.heads.len() * size_of::<Run>() + runs.repeats.len() * size_of::<(usize, u64)>()
    }

    proptest! {
        #[test]
        fn runs_yield_every_push_in_order_within_16_bytes_each(
            base in prop_oneof![Just(0u64), 0u64..1 << 40, Just(u64::MAX - 100), Just(u64::MAX - (3 << 32))],
            steps in prop::collection::vec(
                (0u8..5, prop_oneof![0u64..4, Just(1u64 << 32), (1u64 << 32)..1 << 33], 1u64..4),
                0..64,
            ),
        ) {
            let pushed: Vec<_> = sequence(base, &steps).collect();
            let mut runs = Runs::default();
            for &sub in &pushed {
                runs.push(sub);
            }
            prop_assert!(runs.iter().eq(pushed.iter().copied()));
            prop_assert_eq!(runs.len(), pushed.len());
            prop_assert!(heap_bytes(&runs) <= 16 * pushed.len());
        }
    }

    #[test]
    fn a_gss_ss_two_by_one_run_holds_at_most_one_run_per_deposit() {
        let w = Synthetic::constant(200_000, 0);
        let spec = HierSpec::new(dls::Kind::GSS, dls::Kind::SS);
        let r = run_live(&RunConfig::new(2, 1, spec, Approach::MpiMpi), &w).expect("live run");
        assert_exact(&r, serial_checksum(&w), w.n_iters());
        for (worker, runs) in &r.executed.ledgers {
            // One rank per node: worker `w` made every deposit of node `w`.
            let deposits = r.stats.nodes[*worker as usize].deposits;
            assert!(deposits > 0, "worker {worker} refilled its node");
            assert!(
                runs.heads.len() as u64 <= deposits,
                "worker {worker}: {} runs for {deposits} deposits",
                runs.heads.len()
            );
        }
    }
}
