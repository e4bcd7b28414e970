//! The fifth backend: the paper's two-level hierarchy with a **real
//! network at the inter-node level**.
//!
//! The global work queue is no longer an RMA window on rank 0 — it is
//! a `dls-service` server reached over TCP. Each node keeps exactly
//! one *node-agent connection*; the node's ranks run the very rank
//! loop of [`super::run_live_mpi_mpi`], self-scheduling sub-chunks out
//! of the `mpisim` shared-memory window. When a rank drains the local
//! queue and wins the refill role, its global-queue handle locks the
//! node's agent and performs one `FetchChunk` round trip instead of one
//! `MPI_Fetch_and_op` — the paper's structure, with the top level
//! crossing a socket.
//!
//! Fetched chunks carry leases; the agent settles each lease right
//! after depositing the chunk (the ranks of one process cannot die
//! independently, so the in-process backend has no use for revocation
//! — multi-process recovery is exercised by the `net-worker` smoke
//! tests in `dls-service`).

use super::{LiveConfig, LiveResult};
use dls_service::Client;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::Duration;
use workloads::Workload;

/// Run the hierarchy with the global queue behind `addr`.
///
/// The server is multi-tenant: this call creates its own job and
/// leaves unrelated jobs untouched, so many `run_live_net` invocations
/// (or entirely different tenants) can share one server. Network
/// failures panic — this backend asserts a reachable server the same
/// way the RMA backends assert allocatable windows; scheduling-level
/// errors surface as `Err` like the other live executors.
///
/// Fault injection and AWF are not supported here: crashes of in-
/// process ranks are the RMA backends' story, and the multi-process
/// lease recovery path is exercised end-to-end by the `dls-service`
/// smoke tests.
pub fn run_live_net(
    cfg: &LiveConfig,
    workload: &(dyn Workload + Sync),
    addr: SocketAddr,
) -> mpisim::Result<LiveResult> {
    assert!(!cfg.faults.is_active(), "run_live_net does not inject faults");
    assert!(cfg.awf.is_none(), "run_live_net does not support AWF");

    // One connection per node — the node agent. The job itself is
    // created over a separate setup connection.
    let mut setup = Client::connect(addr).expect("connect to dls-service");
    let inter_kind: dls::SchedKind = cfg.net_inter.unwrap_or_else(|| cfg.spec.inter.kind().into());
    let job = setup
        .create_job(
            workload.n_iters(),
            inter_kind,
            &node_weights(&cfg.weights, cfg.nodes, cfg.workers_per_node),
        )
        .expect("create job");
    // A bounded reply wait per agent call: a wedged server surfaces as
    // a typed TimedOut error instead of hanging every rank on the node.
    let agents: Vec<Mutex<Client>> = (0..cfg.nodes)
        .map(|_| {
            let mut agent = Client::connect(addr).expect("connect node agent");
            agent
                .set_read_deadline(Some(Duration::from_secs(30)))
                .expect("set agent read deadline");
            Mutex::new(agent)
        })
        .collect();

    super::mpi_mpi::run_ranks(cfg, workload, Some((&agents, job)))
}

/// Weights for the *inter-node* level: the service schedules chunks
/// per node, so per-worker weights collapse to their per-node means
/// (missing entries are unit weights, so an empty table is all ones).
/// Always one entry per node: the table's length is the `p` the server
/// sizes inter-level chunks for, which must be `nodes` exactly as for
/// the RMA queues.
fn node_weights(weights: &[f64], nodes: u32, wpn: u32) -> Vec<f64> {
    (0..nodes)
        .map(|node| {
            (0..wpn)
                .map(|w| weights.get((node * wpn + w) as usize).copied().unwrap_or(1.0))
                .sum::<f64>()
                / f64::from(wpn)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HierSpec};
    use crate::live::{assert_exact, serial_checksum};
    use dls::Kind;
    use dls_service::{Server, ServiceConfig};
    use workloads::synthetic::Synthetic;

    fn run(spec: HierSpec, nodes: u32, wpn: u32, n: u64) -> (LiveResult, u64) {
        let srv = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
        let w = Synthetic::uniform(n, 1, 100, 3);
        let cfg = LiveConfig::new(nodes, wpn, spec, Approach::MpiMpi);
        let serial = serial_checksum(&w);
        let r = run_live_net(&cfg, &w, srv.addr()).expect("net run");
        let snap = srv.shutdown();
        // The job this run created must have completed exactly.
        let job = &snap.jobs[0];
        assert!(job.done);
        assert_eq!(job.completed, n);
        assert_eq!(job.leases_granted, job.leases_completed);
        (r, serial)
    }

    #[test]
    fn paper_pairs_execute_exactly_once_over_tcp() {
        for inter in [Kind::GSS, Kind::FAC2] {
            for intra in [Kind::STATIC, Kind::SS, Kind::TSS] {
                let (r, serial) = run(HierSpec::new(inter, intra), 2, 3, 400);
                assert_exact(&r, serial, 400);
            }
        }
    }

    #[test]
    fn single_node_single_worker() {
        let (r, serial) = run(HierSpec::new(Kind::GSS, Kind::SS), 1, 1, 120);
        assert_exact(&r, serial, 120);
    }

    #[test]
    fn tiny_loop_fewer_iterations_than_workers() {
        let (r, serial) = run(HierSpec::new(Kind::GSS, Kind::GSS), 2, 4, 5);
        assert_exact(&r, serial, 5);
    }

    #[test]
    fn one_agent_connection_per_node() {
        let srv = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
        let w = Synthetic::uniform(300, 1, 100, 3);
        let cfg = LiveConfig::new(3, 2, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        let r = run_live_net(&cfg, &w, srv.addr()).expect("net run");
        let snap = srv.shutdown();
        // 1 setup connection + one agent per node, all closed now.
        assert_eq!(snap.totals.conns_total, 1 + 3);
        assert_eq!(snap.totals.conns_active, 0);
        assert!(snap.conns.is_empty(), "closed connections leave no row");
        // Every chunk the nodes fetched was granted over those agents.
        let fetched: u64 = r.stats.workers.iter().map(|w| w.global_fetches).sum();
        assert_eq!(snap.totals.chunks_granted, fetched);
    }

    #[test]
    fn trace_records_compute_and_sched() {
        let srv = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
        let w = Synthetic::uniform(400, 1, 100, 3);
        let mut cfg = LiveConfig::new(2, 2, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        cfg.trace = true;
        let r = run_live_net(&cfg, &w, srv.addr()).expect("net run");
        srv.shutdown();
        let totals = r.trace.totals();
        assert!(totals.compute > 0);
        assert!(totals.sched > 0);
    }
}
