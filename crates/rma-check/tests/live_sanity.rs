//! Recorded live logs pass `rma_check::check`: MPI+MPI with both node
//! queues, with the locked-counters global queue and with AWF, and
//! MPI+OpenMP. In the mutation census (DESIGN §11) it catches rows L1
//! and G1 deterministically; the interleaving sweep, `live_shapes` and
//! `live_golden` catch both as well.

use hier::config::{Approach, HierSpec, NodeQueueMode};
use hier::live::{run_live_mpi_mpi, run_live_mpi_omp, LiveConfig};
use workloads::synthetic::Synthetic;

/// Both node queues: the lock-free default, whose every node-window
/// access is an atomic under `lock_all`, and the paper's locked one.
#[test]
fn live_mpi_mpi_log_is_clean() {
    let w = Synthetic::uniform(400, 1, 100, 7);
    for node_mode in [NodeQueueMode::Counter, NodeQueueMode::Locked] {
        let mut cfg =
            LiveConfig::new(2, 3, HierSpec::new(dls::Kind::GSS, dls::Kind::SS), Approach::MpiMpi);
        cfg.node_mode = node_mode;
        cfg.record_rma = true;
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        let report = rma_check::check(&r.rma);
        assert!(report.is_clean(), "{node_mode:?}: {}", report.render());
    }
}

#[test]
fn live_mpi_mpi_locked_counters_log_is_clean() {
    let w = Synthetic::uniform(400, 1, 100, 7);
    let mut cfg =
        LiveConfig::new(2, 3, HierSpec::new(dls::Kind::TSS, dls::Kind::GSS), Approach::MpiMpi);
    cfg.global_mode = hier::config::GlobalQueueMode::LockedCounters;
    cfg.record_rma = true;
    let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
    let report = rma_check::check(&r.rma);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn live_mpi_mpi_awf_log_is_clean() {
    let w = Synthetic::uniform(400, 1, 100, 7);
    let mut cfg =
        LiveConfig::new(2, 3, HierSpec::new(dls::Kind::GSS, dls::Kind::SS), Approach::MpiMpi);
    cfg.awf = Some(dls::adaptive::AwfVariant::C);
    cfg.record_rma = true;
    let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
    let report = rma_check::check(&r.rma);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn live_mpi_omp_log_is_clean() {
    let w = Synthetic::uniform(400, 1, 100, 7);
    let mut cfg =
        LiveConfig::new(2, 3, HierSpec::new(dls::Kind::GSS, dls::Kind::SS), Approach::MpiOpenMp);
    cfg.record_rma = true;
    let r = run_live_mpi_omp(&cfg, &w).expect("live run");
    let report = rma_check::check(&r.rma);
    assert!(report.is_clean(), "{}", report.render());
}
