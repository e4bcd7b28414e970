//! Golden output of the real-thread executors on the shapes where a
//! live run is deterministic: one worker, so no interleaving.
//!
//! `hier::live` measures wall-clock time and races real threads, so a
//! multi-worker run has no bytes to pin. With a single worker the
//! protocol, the chunk sequence and every counter are fixed, and a
//! refactor of the executors' shared bookkeeping must reproduce them:
//! for each of the five entry points this renders the executed ledger,
//! the checksum, every `RunStats` counter that is not a duration, and
//! the kinds of the recovery events, and compares the text with what
//! the executors printed when this file was written.
//!
//! Two fields are asserted on their own at the bottom, because the PR
//! that introduced this file fixes them: `RunStats::checksum` and
//! `NodeStats::lock_revocations`.

use dls::Kind;
use dls_service::{Server, ServiceConfig};
use hier::config::{Approach, GlobalQueueMode, HierSpec};
use hier::live::{
    run_live_flat_master_worker, run_live_master_worker, run_live_mpi_mpi, run_live_mpi_omp,
    run_live_net, serial_checksum, LiveConfig, LiveResult,
};
use resilience::{FaultKind, FaultPlan, RecoveryEvent};
use std::fmt::Write;
use workloads::synthetic::Synthetic;
use workloads::Spin;

const N: u64 = 40;

fn workload() -> Synthetic {
    Synthetic::uniform(N, 1, 100, 3)
}

/// Everything a run reports that does not depend on the clock.
fn render(r: &LiveResult) -> String {
    let mut s = String::new();
    write!(s, "executed").unwrap();
    for (w, sub) in &r.executed {
        write!(s, " {w}:{}..{}", sub.start, sub.end).unwrap();
    }
    write!(s, "\nchecksum {}", r.checksum).unwrap();
    write!(s, "\ntotal {} global_accesses {}", r.stats.total_iterations, r.stats.global_accesses)
        .unwrap();
    for (i, w) in r.stats.workers.iter().enumerate() {
        write!(
            s,
            "\nworker {i}: iterations {} sub_chunks {} global_fetches {} lock_polls {} rma_ops {} \
             reclaims {}",
            w.iterations, w.sub_chunks, w.global_fetches, w.lock_polls, w.rma_ops, w.reclaims
        )
        .unwrap();
    }
    for (i, n) in r.stats.nodes.iter().enumerate() {
        write!(
            s,
            "\nnode {i}: deposits {} sub_chunks {} lock_acquisitions {} lock_contended {} \
             lock_polls {}",
            n.deposits, n.sub_chunks, n.lock_acquisitions, n.lock_contended, n.lock_polls
        )
        .unwrap();
    }
    write!(s, "\nrecovery").unwrap();
    for e in &r.recovery {
        let kind = match e {
            RecoveryEvent::Crash { holding_lock: false, .. } => "Crash",
            RecoveryEvent::Crash { holding_lock: true, .. } => "CrashHoldingLock",
            RecoveryEvent::LeaseExpired { .. } => "LeaseExpired",
            RecoveryEvent::Reclaim { .. } => "Reclaim",
            RecoveryEvent::RefillFailover { .. } => "RefillFailover",
            RecoveryEvent::LockRepair { .. } => "LockRepair",
        };
        write!(s, " {kind}").unwrap();
    }
    write!(s, "\nrma {}", r.rma.len()).unwrap();
    s
}

fn mpi_mpi(mode: GlobalQueueMode, faults: FaultPlan) -> LiveResult {
    let mut cfg = LiveConfig::new(1, 1, HierSpec::new(Kind::FAC2, Kind::FAC2), Approach::MpiMpi);
    cfg.global_mode = mode;
    cfg.faults = faults;
    run_live_mpi_mpi(&cfg, &workload()).expect("live run")
}

#[test]
fn mpi_mpi_single_atomic() {
    let r = mpi_mpi(GlobalQueueMode::SingleAtomic, FaultPlan::none());
    assert_eq!(r.checksum, serial_checksum(&workload()));
    assert_eq!(render(&r), MPI_MPI_SINGLE_ATOMIC);
}

#[test]
fn mpi_mpi_locked_counters() {
    let r = mpi_mpi(GlobalQueueMode::LockedCounters, FaultPlan::none());
    assert_eq!(r.checksum, serial_checksum(&workload()));
    assert_eq!(render(&r), MPI_MPI_LOCKED_COUNTERS);
}

/// The only worker dies with a sub-chunk taken and not executed; with
/// nobody left to reclaim it the run ends short, and says so.
#[test]
fn mpi_mpi_lone_rank_crash_after_take() {
    let plan = FaultPlan::none().with(0, FaultKind::Crash { at_ns: 0, after_sub_chunks: 3 });
    let r = mpi_mpi(GlobalQueueMode::SingleAtomic, plan);
    assert_eq!(render(&r), MPI_MPI_LONE_RANK_CRASH_AFTER_TAKE);
}

/// The only worker dies inside the window's critical section.
#[test]
fn mpi_mpi_lone_rank_crash_holding_lock() {
    let plan =
        FaultPlan::none().with(0, FaultKind::CrashHoldingLock { at_ns: 0, after_sub_chunks: 2 });
    let r = mpi_mpi(GlobalQueueMode::SingleAtomic, plan);
    assert_eq!(render(&r), MPI_MPI_LONE_RANK_CRASH_HOLDING_LOCK);
}

#[test]
fn mpi_omp_team_of_one() {
    let cfg = LiveConfig::new(1, 1, HierSpec::new(Kind::FAC2, Kind::GSS), Approach::MpiOpenMp);
    let r = run_live_mpi_omp(&cfg, &workload()).expect("live run");
    assert_eq!(r.checksum, serial_checksum(&workload()));
    assert_eq!(render(&r), MPI_OMP_TEAM_OF_ONE);
}

#[test]
fn net_single_rank() {
    let srv = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
    let cfg = LiveConfig::new(1, 1, HierSpec::new(Kind::FAC2, Kind::FAC2), Approach::MpiMpi);
    let r = run_live_net(&cfg, &workload(), srv.addr()).expect("net run");
    srv.shutdown();
    assert_eq!(r.checksum, serial_checksum(&workload()));
    assert_eq!(render(&r), NET_SINGLE_RANK);
}

#[test]
fn flat_master_worker_one_worker() {
    let cfg = LiveConfig::new(1, 2, HierSpec::new(Kind::FAC2, Kind::FAC2), Approach::MpiMpi);
    let r = run_live_flat_master_worker(&cfg, &workload());
    assert_eq!(r.checksum, serial_checksum(&workload()));
    assert_eq!(render(&r), FLAT_MASTER_WORKER_ONE_WORKER);
}

#[test]
fn hierarchical_master_worker_one_local_master() {
    let cfg = LiveConfig::new(1, 2, HierSpec::new(Kind::FAC2, Kind::FAC2), Approach::MpiMpi);
    let r = run_live_master_worker(&cfg, &workload());
    assert_eq!(r.checksum, serial_checksum(&workload()));
    assert_eq!(render(&r), HIERARCHICAL_MASTER_WORKER_ONE_LOCAL_MASTER);
}

/// A traced, RMA-recorded run keeps its deterministic part too: the
/// counters, and the number of log records of a one-rank run. (How
/// many timeline segments survive depends on the clock: empty ones are
/// dropped.)
#[test]
fn mpi_mpi_traced_and_recorded() {
    let mut cfg = LiveConfig::new(1, 1, HierSpec::new(Kind::FAC2, Kind::FAC2), Approach::MpiMpi);
    cfg.trace = true;
    cfg.record_rma = true;
    let r = run_live_mpi_mpi(&cfg, &workload()).expect("live run");
    assert!(r.trace.totals().compute > 0);
    assert_eq!(render(&r), MPI_MPI_TRACED_AND_RECORDED);
}

#[test]
fn mpi_omp_traced_and_recorded() {
    let mut cfg = LiveConfig::new(1, 1, HierSpec::new(Kind::FAC2, Kind::GSS), Approach::MpiOpenMp);
    cfg.trace = true;
    cfg.record_rma = true;
    let r = run_live_mpi_omp(&cfg, &workload()).expect("live run");
    assert!(r.trace.totals().compute > 0);
    assert_eq!(render(&r), MPI_OMP_TRACED_AND_RECORDED);
}

// ---- what the executors printed when this file was written ----

const MPI_MPI_SINGLE_ATOMIC: &str = "\
executed 0:0..10 0:10..15 0:15..18 0:18..19 0:19..20 0:20..25 0:25..28 0:28..29 0:29..30 0:30..33 0:33..34 0:34..35 0:35..37 0:37..38 0:38..39 0:39..40
checksum 1873
total 40 global_accesses 7
worker 0: iterations 40 sub_chunks 16 global_fetches 6 lock_polls 0 rma_ops 7 reclaims 0
node 0: deposits 6 sub_chunks 16 lock_acquisitions 31 lock_contended 0 lock_polls 0
recovery
rma 0";

const MPI_MPI_LOCKED_COUNTERS: &str = "\
executed 0:0..10 0:10..15 0:15..18 0:18..19 0:19..20 0:20..25 0:25..28 0:28..29 0:29..30 0:30..33 0:33..34 0:34..35 0:35..37 0:37..38 0:38..39 0:39..40
checksum 1873
total 40 global_accesses 7
worker 0: iterations 40 sub_chunks 16 global_fetches 6 lock_polls 0 rma_ops 0 reclaims 0
node 0: deposits 6 sub_chunks 16 lock_acquisitions 31 lock_contended 0 lock_polls 0
recovery
rma 0";

const MPI_MPI_LONE_RANK_CRASH_AFTER_TAKE: &str = "\
executed 0:0..10 0:10..15
checksum 747
total 15 global_accesses 1
worker 0: iterations 15 sub_chunks 2 global_fetches 1 lock_polls 0 rma_ops 1 reclaims 0
node 0: deposits 1 sub_chunks 2 lock_acquisitions 5 lock_contended 0 lock_polls 0
recovery Crash
rma 0";

const MPI_MPI_LONE_RANK_CRASH_HOLDING_LOCK: &str = "\
executed 0:0..10 0:10..15
checksum 747
total 15 global_accesses 1
worker 0: iterations 15 sub_chunks 2 global_fetches 1 lock_polls 0 rma_ops 1 reclaims 0
node 0: deposits 1 sub_chunks 2 lock_acquisitions 5 lock_contended 0 lock_polls 0
recovery CrashHoldingLock
rma 0";

const MPI_OMP_TEAM_OF_ONE: &str = "\
executed 0:0..20 0:20..30 0:30..35 0:35..38 0:38..39 0:39..40
checksum 1873
total 40 global_accesses 7
worker 0: iterations 40 sub_chunks 6 global_fetches 6 lock_polls 0 rma_ops 0 reclaims 0
node 0: deposits 6 sub_chunks 6 lock_acquisitions 7 lock_contended 0 lock_polls 0
recovery
rma 0";

const NET_SINGLE_RANK: &str = "\
executed 0:0..10 0:10..15 0:15..18 0:18..19 0:19..20 0:20..25 0:25..28 0:28..29 0:29..30 0:30..33 0:33..34 0:34..35 0:35..37 0:37..38 0:38..39 0:39..40
checksum 1873
total 40 global_accesses 7
worker 0: iterations 40 sub_chunks 16 global_fetches 6 lock_polls 0 rma_ops 0 reclaims 0
node 0: deposits 6 sub_chunks 16 lock_acquisitions 31 lock_contended 0 lock_polls 0
recovery
rma 0";

const FLAT_MASTER_WORKER_ONE_WORKER: &str = "\
executed 1:0..20 1:20..30 1:30..35 1:35..38 1:38..39 1:39..40
checksum 1873
total 40 global_accesses 0
worker 0: iterations 0 sub_chunks 0 global_fetches 0 lock_polls 0 rma_ops 0 reclaims 0
worker 1: iterations 40 sub_chunks 6 global_fetches 0 lock_polls 0 rma_ops 0 reclaims 0
node 0: deposits 0 sub_chunks 0 lock_acquisitions 0 lock_contended 0 lock_polls 0
recovery
rma 0";

const HIERARCHICAL_MASTER_WORKER_ONE_LOCAL_MASTER: &str = "\
executed 1:0..5 1:5..10 1:10..13 1:13..16 1:16..17 1:17..18 1:18..19 1:19..20 1:20..23 1:23..26 1:26..27 1:27..28 1:28..29 1:29..30 1:30..32 1:32..34 1:34..35 1:35..36 1:36..37 1:37..38 1:38..39 1:39..40
checksum 1873
total 40 global_accesses 0
worker 0: iterations 0 sub_chunks 0 global_fetches 0 lock_polls 0 rma_ops 0 reclaims 0
worker 1: iterations 40 sub_chunks 22 global_fetches 0 lock_polls 0 rma_ops 0 reclaims 0
node 0: deposits 0 sub_chunks 0 lock_acquisitions 0 lock_contended 0 lock_polls 0
recovery
rma 0";

const MPI_MPI_TRACED_AND_RECORDED: &str = "\
executed 0:0..10 0:10..15 0:15..18 0:18..19 0:19..20 0:20..25 0:25..28 0:28..29 0:29..30 0:30..33 0:33..34 0:34..35 0:35..37 0:37..38 0:38..39 0:39..40
checksum 1873
total 40 global_accesses 7
worker 0: iterations 40 sub_chunks 16 global_fetches 6 lock_polls 0 rma_ops 7 reclaims 0
node 0: deposits 6 sub_chunks 16 lock_acquisitions 31 lock_contended 0 lock_polls 0
recovery
rma 321";

const MPI_OMP_TRACED_AND_RECORDED: &str = "\
executed 0:0..20 0:20..30 0:30..35 0:35..38 0:38..39 0:39..40
checksum 1873
total 40 global_accesses 7
worker 0: iterations 40 sub_chunks 6 global_fetches 6 lock_polls 0 rma_ops 0 reclaims 0
node 0: deposits 6 sub_chunks 6 lock_acquisitions 7 lock_contended 0 lock_polls 0
recovery
rma 42";

// ---- the two fields this PR fixes, asserted apart from the text ----

/// `RunStats::checksum` is documented as the application checksum.
#[test]
fn run_stats_carry_the_checksum() {
    let r = mpi_mpi(GlobalQueueMode::SingleAtomic, FaultPlan::none());
    // Before the fix: never written, 0.
    assert_eq!(r.stats.checksum, r.checksum);
    assert_eq!(r.stats.checksum, serial_checksum(&workload()));
}

/// A lock revoked from a dead holder is counted on the holder's node.
/// Needs a survivor, hence two ranks and a retry until the scheduler
/// lets the victim reach its trigger.
#[test]
fn a_repaired_lock_is_a_revocation_on_its_node() {
    let w = Spin(Synthetic::uniform(200, 5_000, 40_000, 7));
    let mut cfg = LiveConfig::new(1, 2, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
    cfg.faults =
        FaultPlan::none().with(1, FaultKind::CrashHoldingLock { at_ns: 0, after_sub_chunks: 1 });
    for _ in 0..6 {
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        assert_eq!(r.stats.total_iterations, 200);
        if r.recovery.iter().any(|e| matches!(e, RecoveryEvent::LockRepair { .. })) {
            // Before the fix: repaired, reported as an event, counted 0.
            assert_eq!(r.stats.nodes[0].lock_revocations, 1);
            return;
        }
    }
    panic!("the injected crash never fired");
}
