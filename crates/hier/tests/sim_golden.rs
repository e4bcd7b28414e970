//! Golden digests of the virtual-time executors' complete output.
//!
//! `hier::sim` is deterministic, and every figure of the paper is read
//! off it — so a refactor of the executors must reproduce the same
//! bytes, not just the same shapes. For each entry point this sweeps
//! the 25 paper technique pairs × five schedule perturbations × a set
//! of fault plans (none, the seeded crash/straggler/message plans of
//! `resilience/tests/chaos_sim.rs`, whole-node crashes, a crash inside
//! the window critical section, a crash as refiller) with tracing,
//! chunk recording and RMA synthesis on, and folds everything a
//! [`SimResult`] carries into one FNV-1a digest.
//!
//! A digest that moves means the schedule, a counter, the timeline, the
//! RMA log or the recovery trace changed for at least one run. If that
//! is intended, say so in the PR and re-pin; if not, it is a bug.

use cluster_sim::trace::SegmentKind;
use cluster_sim::{MachineParams, SimTopology};
use dls::adaptive::AwfVariant;
use dls::Kind;
use hier::config::{Approach, GlobalQueueMode, HierSpec};
use hier::sim::{
    simulate, simulate_flat_master_worker, simulate_master_worker, Perturbation, RefillPolicy,
    SimConfig, SimResult,
};
use mpisim::{AtomicOpKind, LockKind, RmaEvent};
use resilience::{FaultKind, FaultPlan, RecoveryEvent};
use workloads::synthetic::Synthetic;
use workloads::CostTable;

#[path = "support/fnv.rs"]
mod fnv;
use fnv::Fnv;

const KINDS: [Kind; 5] = [Kind::STATIC, Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC2];
const NODES: u32 = 2;
const WPN: u32 = 3;
// Same cost range as chaos_sim's table, so the seeded crash times
// (20k-200k virtual ns) land mid-run.
const N_ITERS: u64 = 300;

fn fold_rma_event(h: &mut Fnv, ev: &RmaEvent) {
    let kind = |k: LockKind| match k {
        LockKind::Exclusive => 0,
        LockKind::Shared => 1,
    };
    match *ev {
        RmaEvent::Attach { shared, comm_size } => {
            h.words(&[1, u64::from(shared), u64::from(comm_size)]);
        }
        RmaEvent::Lock { kind: k, target } => h.words(&[2, kind(k), u64::from(target)]),
        RmaEvent::Unlock { kind: k, target } => h.words(&[3, kind(k), u64::from(target)]),
        RmaEvent::LockAll => h.word(4),
        RmaEvent::UnlockAll => h.word(5),
        RmaEvent::Sync => h.word(6),
        RmaEvent::Flush { target } => h.words(&[7, u64::from(target)]),
        RmaEvent::Barrier => h.word(8),
        RmaEvent::Get { target, disp, len } => {
            h.words(&[9, u64::from(target), disp as u64, len as u64]);
        }
        RmaEvent::Put { target, disp, len } => {
            h.words(&[10, u64::from(target), disp as u64, len as u64]);
        }
        RmaEvent::Atomic { target, disp, op } => {
            let op = match op {
                AtomicOpKind::FetchAndOp => 0,
                AtomicOpKind::CompareAndSwap => 1,
            };
            h.words(&[11, u64::from(target), disp as u64, op]);
        }
    }
}

fn fold_recovery_event(h: &mut Fnv, ev: &RecoveryEvent) {
    match *ev {
        RecoveryEvent::Crash { rank, at_ns, holding_lock } => {
            h.words(&[1, u64::from(rank), at_ns, u64::from(holding_lock)]);
        }
        RecoveryEvent::LeaseExpired { owner, lo, hi, at_ns } => {
            h.words(&[2, u64::from(owner), lo, hi, at_ns]);
        }
        RecoveryEvent::Reclaim { by, owner, lo, hi, at_ns } => {
            h.words(&[3, u64::from(by), u64::from(owner), lo, hi, at_ns]);
        }
        RecoveryEvent::RefillFailover { node, from, at_ns } => {
            h.words(&[4, u64::from(node), u64::from(from), at_ns]);
        }
        RecoveryEvent::LockRepair { node, dead_holder, by, at_ns } => {
            h.words(&[5, u64::from(node), u64::from(dead_holder), u64::from(by), at_ns]);
        }
    }
}

/// Fold every observable of one run, in a fixed order, length-prefixed
/// so adjacent sections cannot alias.
fn fold(h: &mut Fnv, r: &SimResult) {
    h.words(&[r.makespan, r.lock_poll_penalty]);
    let s = &r.stats;
    h.words(&[s.total_iterations, s.checksum, s.global_accesses]);
    h.word(s.workers.len() as u64);
    for w in &s.workers {
        h.words(&[
            w.iterations,
            w.sub_chunks,
            w.global_fetches,
            w.lock_polls,
            w.lock_time_ns,
            w.rma_ops,
            w.reclaims,
        ]);
    }
    h.word(s.nodes.len() as u64);
    for n in &s.nodes {
        h.words(&[
            n.deposits,
            n.sub_chunks,
            n.lock_acquisitions,
            n.lock_contended,
            n.lock_polls,
            n.lock_revocations,
        ]);
    }
    h.word(r.executed.len() as u64);
    for (w, sub) in &r.executed {
        h.words(&[u64::from(*w), sub.start, sub.end]);
    }
    let segments = r.trace.segments();
    h.word(segments.len() as u64);
    for seg in segments {
        let kind = match seg.kind {
            SegmentKind::Compute => 0,
            SegmentKind::Sched => 1,
            SegmentKind::Sync => 2,
            SegmentKind::Idle => 3,
        };
        h.words(&[u64::from(seg.worker), seg.start, seg.end, kind]);
    }
    h.word(r.rma.len() as u64);
    for rec in &r.rma {
        h.words(&[rec.win, u64::from(rec.rank), rec.seq]);
        fold_rma_event(h, &rec.event);
    }
    h.word(r.recovery.len() as u64);
    for ev in &r.recovery {
        fold_recovery_event(h, ev);
    }
}

fn perturbations() -> Vec<Perturbation> {
    let mut out = vec![Perturbation::None];
    out.extend((1..=3).map(|seed| Perturbation::Seeded { seed, max_ns: 2_000 }));
    out.push(Perturbation::AdversarialHandoff);
    out
}

fn fault_plans() -> Vec<FaultPlan> {
    let crash = |at_ns| FaultKind::Crash { at_ns, after_sub_chunks: 1 };
    let holding = |at_ns| FaultKind::CrashHoldingLock { at_ns, after_sub_chunks: 1 };
    let mut out = vec![FaultPlan::none()];
    // The seeded plans chaos_sim.rs sweeps (its widest seed range).
    out.extend((0..6).map(|seed| FaultPlan::seeded(seed, NODES * WPN)));
    // chaos_sim's message faults.
    out.push(FaultPlan::none().with(2, FaultKind::MessageDrop { at_ns: 10_000 }));
    out.push(
        FaultPlan::none().with(3, FaultKind::MessageDelay { extra_ns: 20_000, from_ns: 5_000 }),
    );
    // Whole-node crashes: node 1 loses its ranks one by one to plain
    // crashes; node 0 loses one rank to each crash kind, so the "last
    // worker of the node died, strand its queue" branch is reached from
    // every role a rank can die in.
    out.push(
        FaultPlan::none().with(3, crash(30_000)).with(4, crash(70_000)).with(5, crash(110_000)),
    );
    out.push(
        FaultPlan::none()
            .with(0, crash(90_000))
            .with(1, holding(60_000))
            .with(2, FaultKind::CrashAsRefiller { after_global_fetches: 2 }),
    );
    out.push(
        FaultPlan::none()
            .with(0, holding(25_000))
            .with(1, holding(50_000))
            .with(2, holding(75_000)),
    );
    // chaos_sim's targeted single faults.
    out.push(FaultPlan::none().with(1, holding(40_000)));
    out.push(FaultPlan::none().with(4, FaultKind::CrashAsRefiller { after_global_fetches: 1 }));
    out
}

/// One digest over the whole sweep for one entry point: `tweak` selects
/// the configuration, `run` the executor.
fn sweep(tweak: impl Fn(&mut SimConfig), run: impl Fn(&SimConfig, &CostTable) -> SimResult) -> u64 {
    let table = CostTable::build(&Synthetic::uniform(N_ITERS, 2_000, 20_000, 11));
    let perturbations = perturbations();
    let plans = fault_plans();
    let mut h = Fnv::new();
    for inter in KINDS {
        for intra in KINDS {
            for perturb in &perturbations {
                for plan in &plans {
                    let mut cfg = SimConfig::new(
                        SimTopology::new(NODES, WPN),
                        MachineParams::default(),
                        HierSpec::new(inter, intra),
                        Approach::MpiMpi,
                    );
                    cfg.trace = true;
                    cfg.record_chunks = true;
                    cfg.record_rma = true;
                    cfg.perturb = *perturb;
                    cfg.faults = plan.clone();
                    tweak(&mut cfg);
                    let r = run(&cfg, &table);
                    assert_eq!(
                        r.stats.total_iterations, N_ITERS,
                        "{inter:?}+{intra:?} {perturb:?} {plan:?}: iterations lost or repeated"
                    );
                    if cfg.refill == RefillPolicy::Dedicated {
                        // The refill role fails over to the node's
                        // lowest live rank, so also the plans that kill
                        // a first rank finish, exactly once, and in a
                        // bounded number of events: every probe and
                        // deposit event acquires its node's lock once
                        // (the largest count in this sweep is 3,889).
                        let chunks: Vec<dls::Chunk> = r
                            .executed
                            .iter()
                            .map(|(_, s)| dls::Chunk { start: s.start, len: s.len(), step: 0 })
                            .collect();
                        dls::verify::check_exactly_once(&chunks, N_ITERS).unwrap_or_else(|e| {
                            panic!("{inter:?}+{intra:?} {perturb:?} {plan:?}: {e:?}")
                        });
                        let events: u64 = r.stats.nodes.iter().map(|n| n.lock_acquisitions).sum();
                        assert!(
                            events <= 100 * N_ITERS,
                            "{inter:?}+{intra:?} {perturb:?} {plan:?}: {events} probe events"
                        );
                    }
                    fold(&mut h, &r);
                }
            }
        }
    }
    h.0
}

fn mpi_mpi(mode: GlobalQueueMode, refill: RefillPolicy) -> u64 {
    sweep(
        |cfg| {
            cfg.global_mode = mode;
            cfg.refill = refill;
        },
        simulate,
    )
}

#[track_caller]
fn assert_digest(got: u64, want: u64) {
    assert_eq!(got, want, "digest moved: got {got:#018x}, pinned {want:#018x}");
}

#[test]
fn mpi_mpi_single_atomic_fastest() {
    assert_digest(
        mpi_mpi(GlobalQueueMode::SingleAtomic, RefillPolicy::Fastest),
        0x3acb_7413_4a73_d203,
    );
}

#[test]
fn mpi_mpi_single_atomic_dedicated() {
    assert_digest(
        mpi_mpi(GlobalQueueMode::SingleAtomic, RefillPolicy::Dedicated),
        0xd151_73ae_6781_b30a,
    );
}

#[test]
fn mpi_mpi_locked_counters_fastest() {
    assert_digest(
        mpi_mpi(GlobalQueueMode::LockedCounters, RefillPolicy::Fastest),
        0xde98_9339_bcdb_4667,
    );
}

#[test]
fn mpi_mpi_locked_counters_dedicated() {
    assert_digest(
        mpi_mpi(GlobalQueueMode::LockedCounters, RefillPolicy::Dedicated),
        0x174b_55b4_3882_ab6a,
    );
}

#[test]
fn mpi_mpi_awf_c() {
    assert_digest(sweep(|cfg| cfg.awf = Some(AwfVariant::C), simulate), 0x9fb7_6b7f_0e8d_6291);
}

#[test]
fn mpi_omp() {
    assert_digest(sweep(|cfg| cfg.approach = Approach::MpiOpenMp, simulate), 0x8dfe_2a5f_f1fd_4a13);
}

#[test]
fn mpi_omp_nowait() {
    assert_digest(
        sweep(
            |cfg| {
                cfg.approach = Approach::MpiOpenMp;
                cfg.omp_nowait = true;
            },
            simulate,
        ),
        0x35bc_9bcf_b3e7_c171,
    );
}

#[test]
fn master_worker() {
    assert_digest(sweep(|_| {}, simulate_master_worker), 0x4ee3_a091_7c9b_a3c6);
}

#[test]
fn flat_master_worker() {
    assert_digest(sweep(|_| {}, simulate_flat_master_worker), 0xa59f_de39_914b_3f18);
}
