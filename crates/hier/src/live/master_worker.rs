//! Real-thread master-worker executors over `mpisim` two-sided
//! messaging — the execution models of the paper's related work
//! (DLB-tool, HDSS), implemented with actual `send`/`recv` so the
//! protocol (request, serve, terminate) runs for real.
//!
//! * **Flat**: world rank 0 is a dedicated master serving every other
//!   rank; chunk calculus spans all workers.
//! * **Hierarchical**: world rank 0 is the dedicated global master;
//!   each node's rank 0 is a *local master* that forwards to the global
//!   master when its node queue drains. Local masters also work —
//!   matching the DLB tool's "non-dedicated master" at the node level —
//!   by serving requests between their own iterations.
//!
//! For simplicity and determinism of termination, the hierarchical
//! variant's local master interleaves serving and computing in a simple
//! loop: it first answers all queued requests, then takes a sub-chunk
//! for itself.

use super::run::{assemble, Ledger};
use super::{LiveResult, RunConfig};
use crate::queue::{LocalQueue, SubChunk};
use dls::{LoopSpec, SchedState};
use mpisim::{Comm, Topology, Universe};
use workloads::Workload;

/// Tags of the master-worker protocol.
const TAG_REQUEST: i32 = 100;
const TAG_ASSIGN: i32 = 101;

/// A work assignment or the termination notice.
type Assignment = Option<(u64, u64)>;

/// Run the flat (single dedicated master) model for real. World rank 0
/// serves; ranks `1..` work. `workers_per_node * nodes` ranks are
/// launched, so the worker count is one less than the other executors —
/// the dedicated master is exactly the resource this model burns.
pub fn run_live_flat_master_worker(
    cfg: &RunConfig,
    workload: &(dyn Workload + Sync),
) -> LiveResult {
    let topology = Topology::new(cfg.topology.nodes, cfg.topology.workers_per_node);
    let n = workload.n_iters();
    let total = topology.world_size();
    assert!(total >= 2, "flat master-worker needs at least one worker");
    let spec = cfg.spec;
    // Chunk calculus over the actual workers (everyone but the master).
    let calc_spec = LoopSpec::new(n, total - 1);

    let outcomes = Universe::run(topology, move |p| {
        let world = p.world();
        if world.rank() == 0 {
            master_serve(world, &spec.inter, &calc_spec, total - 1);
            Ledger::untimed(0)
        } else {
            worker_loop(world, 0, workload)
        }
    });
    assemble(cfg, outcomes, Vec::new())
}

/// The dedicated master: serve requests until every worker has been
/// sent the termination notice.
fn master_serve(world: &Comm, technique: &dls::Technique, spec: &LoopSpec, workers: u32) {
    let mut state = SchedState::START;
    let mut terminated = 0u32;
    while terminated < workers {
        let (src, _, ()) = world.recv(None, Some(TAG_REQUEST)).expect("request");
        let assignment: Assignment = state.next_chunk(spec, technique).map(|c| (c.start, c.end()));
        if assignment.is_none() {
            terminated += 1;
        }
        world.send(src, TAG_ASSIGN, assignment).expect("assign");
    }
}

/// A worker: request from `master`, execute, repeat until the
/// termination notice.
fn worker_loop(world: &Comm, master: u32, workload: &dyn Workload) -> Ledger {
    let mut out = Ledger::untimed(world.rank());
    loop {
        world.send(master, TAG_REQUEST, ()).expect("request");
        let (_, _, assignment): (_, _, Assignment) =
            world.recv(Some(master), Some(TAG_ASSIGN)).expect("assignment");
        match assignment {
            Some((lo, hi)) => out.execute(workload, SubChunk { start: lo, end: hi }),
            None => return out,
        }
    }
}

/// Run the hierarchical master-worker model for real: rank 0 is the
/// dedicated global master (inter technique over nodes); each node's
/// first rank is a working local master that owns the node queue and
/// serves its node's other ranks; plain workers request from their
/// local master.
pub fn run_live_master_worker(cfg: &RunConfig, workload: &(dyn Workload + Sync)) -> LiveResult {
    let topology = Topology::new(cfg.topology.nodes, cfg.topology.workers_per_node);
    let n = workload.n_iters();
    let wpn = cfg.topology.workers_per_node;
    assert!(
        wpn >= 2,
        "hierarchical master-worker needs >= 2 ranks per node (node 0 \
         hosts the dedicated global master)"
    );
    let spec = cfg.spec;
    let inter_spec = LoopSpec::new(n, cfg.topology.nodes);

    let outcomes = Universe::run(topology, move |p| {
        let world = p.world();
        let me = world.rank();
        if me == 0 {
            // Global master: serve the local masters. Each node sends
            // exactly one final request that returns None.
            master_serve(world, &spec.inter, &inter_spec, cfg.topology.nodes);
            Ledger::untimed(0)
        } else if p.local_rank() == local_master_rank(p.node_id()) {
            local_master_loop(world, p.node_id(), wpn, &spec.intra, workload)
        } else {
            let lm = p.node_id() * wpn + local_master_rank(p.node_id());
            worker_loop(world, lm, workload)
        }
    });
    assemble(cfg, outcomes, Vec::new())
}

/// Local rank of the node's local master: rank 1 on node 0 (whose rank
/// 0 is the dedicated global master), rank 0 elsewhere.
fn local_master_rank(node: u32) -> u32 {
    u32::from(node == 0)
}

/// The working local master: pulls chunks from the global master into a
/// queue, serves its node's requests (held in an explicit pending list
/// while a refill is needed), and executes sub-chunks itself in
/// between.
fn local_master_loop(
    world: &Comm,
    node: u32,
    wpn: u32,
    intra: &dls::Technique,
    workload: &dyn Workload,
) -> Ledger {
    let mut queue = LocalQueue::new();
    let mut pending: std::collections::VecDeque<u32> = Default::default();
    let mut global_done = false;
    // Peers: every rank of this node except the local master itself
    // (and except the dedicated global master on node 0).
    let my_world = node * wpn + local_master_rank(node);
    let mut out = Ledger::untimed(my_world);
    let mut active_peers =
        (node * wpn..(node + 1) * wpn).filter(|&r| r != my_world && r != 0).count() as u32;

    loop {
        if queue.is_empty() && !global_done {
            world.send(0, TAG_REQUEST, ()).expect("request global");
            let (_, _, assignment): (_, _, Assignment) =
                world.recv(Some(0), Some(TAG_ASSIGN)).expect("global assign");
            match assignment {
                Some((lo, hi)) => queue.deposit(lo, hi),
                None => global_done = true,
            }
        }
        // Absorb every arrived request, then serve as many as possible.
        while world.probe(None, Some(TAG_REQUEST)) {
            let (src, _, ()) = world.recv(None, Some(TAG_REQUEST)).expect("peer request");
            pending.push_back(src);
        }
        while let Some(&src) = pending.front() {
            if let Some(sub) = queue.take_sub_chunk(intra, wpn) {
                world.send(src, TAG_ASSIGN, Some((sub.start, sub.end))).expect("assign peer");
                pending.pop_front();
            } else if global_done {
                world.send(src, TAG_ASSIGN, None::<(u64, u64)>).expect("terminate peer");
                pending.pop_front();
                active_peers -= 1;
            } else {
                break; // refill first, keep the request pending
            }
        }
        // One sub-chunk of our own between serving rounds.
        if let Some(sub) = queue.take_sub_chunk(intra, wpn) {
            out.execute(workload, sub);
        } else if global_done {
            if active_peers == 0 && pending.is_empty() {
                break;
            }
            // Nothing left to compute: block for the next peer request
            // and terminate it.
            let (src, _, ()) = world.recv(None, Some(TAG_REQUEST)).expect("final request");
            world.send(src, TAG_ASSIGN, None::<(u64, u64)>).expect("terminate");
            active_peers -= 1;
        }
        // Otherwise loop back to refill.
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HierSpec};
    use crate::live::{assert_exact, serial_checksum};
    use dls::Kind;
    use workloads::synthetic::Synthetic;

    #[test]
    fn flat_master_worker_exactly_once() {
        for tech in [Kind::SS, Kind::GSS, Kind::FAC2] {
            let w = Synthetic::uniform(700, 1, 80, 4);
            let cfg = RunConfig::new(2, 3, HierSpec::new(tech, tech), Approach::MpiMpi);
            let serial = serial_checksum(&w);
            let r = run_live_flat_master_worker(&cfg, &w);
            assert_exact(&r, serial, 700);
        }
    }

    #[test]
    fn flat_master_does_not_compute() {
        let w = Synthetic::constant(500, 10);
        let cfg = RunConfig::new(2, 2, HierSpec::new(Kind::GSS, Kind::GSS), Approach::MpiMpi);
        let r = run_live_flat_master_worker(&cfg, &w);
        assert_eq!(r.stats.workers[0].iterations, 0, "rank 0 is dedicated");
        assert_eq!(r.stats.total_iterations, 500);
    }

    #[test]
    fn hierarchical_master_worker_exactly_once() {
        for (inter, intra) in
            [(Kind::GSS, Kind::STATIC), (Kind::FAC2, Kind::SS), (Kind::TSS, Kind::GSS)]
        {
            let w = Synthetic::uniform(900, 1, 80, 8);
            let cfg = RunConfig::new(2, 3, HierSpec::new(inter, intra), Approach::MpiMpi);
            let serial = serial_checksum(&w);
            let r = run_live_master_worker(&cfg, &w);
            assert_exact(&r, serial, 900);
        }
    }

    #[test]
    fn hierarchical_global_master_dedicated_local_masters_work() {
        let w = Synthetic::constant(1_200, 10);
        let cfg = RunConfig::new(3, 3, HierSpec::new(Kind::GSS, Kind::GSS), Approach::MpiMpi);
        let r = run_live_master_worker(&cfg, &w);
        assert_eq!(r.stats.workers[0].iterations, 0, "global master is dedicated");
        // Local masters (rank 1 on node 0; ranks 3 and 6 otherwise) do
        // participate in the loop.
        let local_masters = [1usize, 3, 6];
        assert!(
            local_masters.iter().any(|&m| r.stats.workers[m].iterations > 0),
            "local masters should compute too"
        );
        assert_eq!(r.stats.total_iterations, 1_200);
    }

    #[test]
    #[should_panic(expected = ">= 2 ranks per node")]
    fn hierarchical_rejects_single_rank_nodes() {
        let w = Synthetic::constant(10, 1);
        let cfg = RunConfig::new(2, 1, HierSpec::new(Kind::GSS, Kind::GSS), Approach::MpiMpi);
        run_live_master_worker(&cfg, &w);
    }

    #[test]
    fn single_node_flat() {
        let w = Synthetic::uniform(300, 1, 50, 5);
        let cfg = RunConfig::new(1, 4, HierSpec::new(Kind::GSS, Kind::GSS), Approach::MpiMpi);
        let serial = serial_checksum(&w);
        let r = run_live_flat_master_worker(&cfg, &w);
        assert_exact(&r, serial, 300);
    }
}
