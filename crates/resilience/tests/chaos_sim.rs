//! End-to-end chaos sweep over the virtual-time executors: seeded
//! fault plans (every one contains at least one rank crash, a third of
//! them a crash *inside* the node-window critical section) crossed
//! with inter×intra technique pairs and all four simulated backends.
//!
//! Every run must (a) terminate — the event queue drains, no deadlock;
//! (b) pass the exactly-once ledger: each iteration of the loop
//! executed exactly once despite lost chunks being re-executed from
//! leases; (c) attribute every reclaim to a surviving rank in the
//! recovery trace.

use cluster_sim::{MachineParams, SimTopology};
use dls::Kind;
use hier::config::{Approach, GlobalQueueMode, HierSpec};
use hier::sim::{
    simulate, simulate_flat_master_worker, simulate_master_worker, SimConfig, SimResult,
};
use resilience::{FaultPlan, RecoveryEvent};
use workloads::synthetic::Synthetic;
use workloads::CostTable;

const KINDS: [Kind; 5] = [Kind::STATIC, Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC2];
const NODES: u32 = 2;
const WPN: u32 = 3;
// Iterations costly enough that seeded crash times (20k-200k virtual
// ns) land mid-run rather than after the loop already finished.
const N_ITERS: u64 = 600;

fn table() -> CostTable {
    CostTable::build(&Synthetic::uniform(N_ITERS, 2_000, 20_000, 11))
}

fn base_cfg(spec: HierSpec, approach: Approach, plan: FaultPlan) -> SimConfig {
    let mut cfg =
        SimConfig::new(SimTopology::new(NODES, WPN), MachineParams::default(), spec, approach);
    cfg.record_chunks = true;
    cfg.faults = plan;
    cfg
}

/// Each of the `n` iterations was executed exactly once.
fn check_exactly_once(r: &SimResult, n: u64, label: &str) {
    hier::queue::exactly_once(&r.executed, n)
        .unwrap_or_else(|e| panic!("{label}: exactly-once ledger failed: {e:?}"));
    assert_eq!(r.stats.total_iterations, n, "{label}: iteration total");
}

/// The ledger plus recovery-trace attribution checks shared by every
/// backend: exactly-once coverage, reclaim counters consistent with
/// the recovery events, reclaims performed by live ranks only.
fn check(r: &SimResult, label: &str) {
    check_exactly_once(r, N_ITERS, label);

    let crashed: Vec<u32> = r
        .recovery
        .iter()
        .filter_map(|e| match *e {
            RecoveryEvent::Crash { rank, .. } => Some(rank),
            _ => None,
        })
        .collect();
    let mut trace_reclaims = 0u64;
    for ev in &r.recovery {
        match *ev {
            RecoveryEvent::Reclaim { by, owner, lo, hi, .. } => {
                trace_reclaims += 1;
                assert!(lo < hi, "{label}: empty reclaimed range");
                assert!(!crashed.contains(&by), "{label}: dead rank {by} performed a reclaim");
                assert!(crashed.contains(&owner), "{label}: reclaim from live owner {owner}");
            }
            RecoveryEvent::LockRepair { by, dead_holder, .. } => {
                trace_reclaims += 1;
                assert!(!crashed.contains(&by), "{label}: dead rank {by} repaired a lock");
                assert!(crashed.contains(&dead_holder), "{label}: repaired a live holder");
            }
            _ => {}
        }
    }
    let counted: u64 = r.stats.workers.iter().map(|w| w.reclaims).sum();
    assert_eq!(counted, trace_reclaims, "{label}: reclaim counters vs recovery trace");
}

#[test]
fn seeded_faults_mpi_mpi_all_technique_pairs() {
    let table = table();
    let mut total_reclaims = 0u64;
    let mut crash_runs = 0u32;
    for inter in KINDS {
        for intra in KINDS {
            for seed in 0..4u64 {
                let plan = FaultPlan::seeded(seed, NODES * WPN);
                let cfg = base_cfg(HierSpec::new(inter, intra), Approach::MpiMpi, plan);
                let r = simulate(&cfg, &table);
                let label = format!("mpi_mpi {inter:?}+{intra:?} seed {seed}");
                check(&r, &label);
                if r.recovery.iter().any(|e| matches!(e, RecoveryEvent::Crash { .. })) {
                    crash_runs += 1;
                }
                total_reclaims += r.stats.workers.iter().map(|w| w.reclaims).sum::<u64>();
            }
        }
    }
    // The sweep must actually exercise the recovery machinery, not
    // vacuously pass on runs that finished before the fault fired.
    assert!(crash_runs > 50, "only {crash_runs} runs saw a crash");
    assert!(total_reclaims > 0, "no run lost and reclaimed a chunk");
}

#[test]
fn seeded_faults_mpi_mpi_locked_counters_mode() {
    let table = table();
    for seed in 0..6u64 {
        let plan = FaultPlan::seeded(seed, NODES * WPN);
        let mut cfg = base_cfg(HierSpec::new(Kind::GSS, Kind::FAC2), Approach::MpiMpi, plan);
        cfg.global_mode = GlobalQueueMode::LockedCounters;
        let r = simulate(&cfg, &table);
        check(&r, &format!("mpi_mpi locked-counters seed {seed}"));
    }
}

#[test]
fn seeded_faults_mpi_omp_all_technique_pairs() {
    let table = table();
    let mut crash_runs = 0u32;
    for inter in KINDS {
        for intra in KINDS {
            for seed in 0..3u64 {
                let plan = FaultPlan::seeded(seed, NODES * WPN);
                let cfg = base_cfg(HierSpec::new(inter, intra), Approach::MpiOpenMp, plan);
                let r = simulate(&cfg, &table);
                check(&r, &format!("mpi_omp {inter:?}+{intra:?} seed {seed}"));
                if !r.recovery.is_empty() {
                    crash_runs += 1;
                }
            }
        }
    }
    assert!(crash_runs > 20, "only {crash_runs} mpi_omp runs saw recovery activity");
}

#[test]
fn seeded_faults_master_worker_both_shapes() {
    let table = table();
    let mut reclaims = 0u64;
    for inter in KINDS {
        for intra in [Kind::STATIC, Kind::SS, Kind::GSS, Kind::FAC2] {
            for seed in 0..3u64 {
                let plan = FaultPlan::seeded(seed, NODES * WPN);
                let cfg = base_cfg(HierSpec::new(inter, intra), Approach::MpiMpi, plan);
                let hier_r = simulate_master_worker(&cfg, &table);
                check(&hier_r, &format!("hier-mw {inter:?}+{intra:?} seed {seed}"));
                let flat_r = simulate_flat_master_worker(&cfg, &table);
                check(&flat_r, &format!("flat-mw {inter:?}+{intra:?} seed {seed}"));
                reclaims += hier_r.stats.workers.iter().map(|w| w.reclaims).sum::<u64>()
                    + flat_r.stats.workers.iter().map(|w| w.reclaims).sum::<u64>();
            }
        }
    }
    assert!(reclaims > 0, "master-worker sweeps never exercised a reclaim");
}

#[test]
fn crash_holding_lock_is_repaired_not_deadlocked() {
    let table = table();
    for &(inter, intra) in &[(Kind::GSS, Kind::SS), (Kind::FAC2, Kind::GSS)] {
        // Rank 1 dies inside the critical section of its node window at
        // t=40us: the lock must be revoked and the run must finish.
        let plan = FaultPlan::none().with(
            1,
            resilience::FaultKind::CrashHoldingLock { at_ns: 40_000, after_sub_chunks: 1 },
        );
        let cfg = base_cfg(HierSpec::new(inter, intra), Approach::MpiMpi, plan);
        let r = simulate(&cfg, &table);
        check(&r, &format!("holding-lock {inter:?}+{intra:?}"));
        assert!(
            r.recovery.iter().any(|e| matches!(e, RecoveryEvent::Crash { holding_lock: true, .. })),
            "the holding-lock crash must appear in the trace"
        );
        assert!(
            r.recovery.iter().any(|e| matches!(e, RecoveryEvent::LockRepair { .. })),
            "the seized lock must be repaired"
        );
        let revocations: u64 = r.stats.nodes.iter().map(|n| n.lock_revocations).sum();
        assert_eq!(revocations, 1, "exactly one grant revoked");
    }
}

#[test]
fn dead_refiller_fails_over() {
    let table = table();
    // Rank 4 dies right after its first global fetch-and-op lands: the
    // fetched chunk is leased, the refill role fails over.
    let plan = FaultPlan::none()
        .with(4, resilience::FaultKind::CrashAsRefiller { after_global_fetches: 1 });
    let cfg = base_cfg(HierSpec::new(Kind::FAC2, Kind::GSS), Approach::MpiMpi, plan);
    let r = simulate(&cfg, &table);
    check(&r, "dead-refiller");
    assert!(
        r.recovery.iter().any(|e| matches!(e, RecoveryEvent::RefillFailover { from: 4, .. })),
        "refill failover missing from trace: {:?}",
        r.recovery
    );
    assert!(
        r.recovery.iter().any(|e| matches!(e, RecoveryEvent::Reclaim { owner: 4, .. })),
        "the dead refiller's chunk must be reclaimed: {:?}",
        r.recovery
    );
}

#[test]
fn inert_plan_reproduces_fault_free_run_exactly() {
    let table = table();
    for approach in [Approach::MpiMpi, Approach::MpiOpenMp] {
        let plain = base_cfg(HierSpec::new(Kind::GSS, Kind::GSS), approach, FaultPlan::none());
        let a = simulate(&plain, &table);
        let b = simulate(&plain, &table);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.executed, b.executed);
        assert!(a.recovery.is_empty());
    }
}

#[test]
fn message_faults_do_not_break_the_ledger() {
    let table = table();
    let drop_plan = FaultPlan::none().with(2, resilience::FaultKind::MessageDrop { at_ns: 10_000 });
    let delay_plan = FaultPlan::none()
        .with(3, resilience::FaultKind::MessageDelay { extra_ns: 20_000, from_ns: 5_000 });
    for plan in [drop_plan, delay_plan] {
        let cfg = base_cfg(HierSpec::new(Kind::TSS, Kind::FAC2), Approach::MpiMpi, plan);
        let r = simulate(&cfg, &table);
        check(&r, "message-faults");
    }
}

/// What surviving a fault costs: GSS+SS on 2x4 over 8,000 exponential
/// iterations. One crash on 8 workers must stay under 1.5x the
/// fault-free makespan (losing an eighth of the machine outright costs
/// 1.14x), and the dead rank's lost range must be back in a queue
/// within 1 ms — a crash mid-run hides a slow reclaim from the
/// makespan, one near the end of the loop would not. A 4x straggler
/// loses nothing.
#[test]
fn one_crash_and_one_straggler_cost_a_bounded_makespan() {
    const N: u64 = 8_000;
    let table = CostTable::build(&Synthetic::exponential(N, 50_000.0, 42));
    let run = |plan: FaultPlan, label: &str| {
        let mut cfg = base_cfg(HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi, plan);
        cfg.topology = SimTopology::new(2, 4);
        let r = simulate(&cfg, &table);
        check_exactly_once(&r, N, label);
        r
    };
    let clean = run(FaultPlan::none(), "fault-free");
    let crash = run(FaultPlan::crash(5, 20_000_000), "one crash");
    run(FaultPlan::straggler(3, 4.0), "one 4x straggler");
    assert!(
        (crash.makespan as f64) < clean.makespan as f64 * 1.5,
        "1-crash overhead out of bounds: {} ns -> {} ns",
        clean.makespan,
        crash.makespan
    );
    let died = crash.recovery.iter().find_map(|e| match *e {
        RecoveryEvent::Crash { at_ns, .. } => Some(at_ns),
        _ => None,
    });
    let reclaimed = crash.recovery.iter().find_map(|e| match *e {
        RecoveryEvent::Reclaim { at_ns, .. } => Some(at_ns),
        _ => None,
    });
    let (died, reclaimed) = died.zip(reclaimed).expect("the crash plan exercised no recovery");
    assert!(reclaimed - died <= 1_000_000, "lost range reclaimed {} ns late", reclaimed - died);
}
