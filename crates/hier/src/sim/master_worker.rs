//! The master-worker execution models the paper's related work builds
//! on — implemented as virtual-time executors so the paper's motivation
//! ("for a large number of workers, the master becomes a performance
//! bottleneck") is reproducible, not just cited.
//!
//! * **Flat master-worker** (DLB-tool style, Cariño & Banicescu): every
//!   worker requests its next chunk directly from one global master
//!   over the network; the chunk calculus runs at the master with the
//!   technique spanning *all* workers.
//! * **Hierarchical master-worker** (HDSS style, Chronopoulos et al.):
//!   a dedicated global master hands chunks to per-node local masters
//!   (inter-node technique over nodes); workers request sub-chunks from
//!   their local master over intra-node messages (intra technique over
//!   the node's workers).
//!
//! Both masters are *dedicated* processes: they serve requests
//! serially ([`Resource`]) but do not execute iterations — exactly the
//! serialization the distributed chunk-calculation approach and the
//! paper's shared work queues remove.

use super::run::{Run, Step};
use super::{SimConfig, SimResult};
use crate::queue::{LocalQueue, SubChunk};
use cluster_sim::trace::SegmentKind;
use cluster_sim::{Resource, Time};
use workloads::CostTable;

enum Event {
    /// Worker `w`'s request reaches its serving master.
    RequestArrive(u32),
    /// A local master's forwarded request reaches the global master
    /// (hierarchical only); `u32` is the node.
    GlobalArrive(u32),
    /// The global master's chunk (or exhaustion notice) reaches node
    /// `u32`'s local master.
    ChunkArrive(u32, Option<(u64, u64)>),
    /// A reply with a sub-chunk (or exhaustion) reaches worker `w`.
    Reply(u32, Option<(u64, u64)>),
}

struct MasterState {
    queue: LocalQueue,
    service: Resource,
    /// Workers whose requests wait for a chunk in flight from the
    /// global master.
    pending: std::collections::VecDeque<u32>,
    refilling: bool,
    global_done: bool,
}

/// Run the flat (single-master) model: chunk calculus at the global
/// master with the *inter* technique over all workers.
pub fn simulate_flat_master_worker(cfg: &SimConfig, table: &CostTable) -> SimResult {
    simulate_master_worker_inner(cfg, table, true)
}

/// Run the hierarchical master-worker model (HDSS style).
pub fn simulate_master_worker(cfg: &SimConfig, table: &CostTable) -> SimResult {
    simulate_master_worker_inner(cfg, table, false)
}

fn simulate_master_worker_inner(cfg: &SimConfig, table: &CostTable, flat: bool) -> SimResult {
    let nodes = cfg.topology.nodes;
    let wpn = cfg.topology.workers_per_node;
    let total_workers = cfg.topology.total_workers();
    let m = &cfg.machine;

    // Flat: one level, technique over all workers. Hierarchical: inter
    // over nodes feeding per-node local queues.
    let mut run = Run::new(cfg, table, if flat { total_workers } else { nodes });
    let mut locals: Vec<MasterState> = (0..nodes)
        .map(|_| MasterState {
            queue: LocalQueue::new(),
            service: Resource::new(),
            pending: std::collections::VecDeque::new(),
            refilling: false,
            global_done: false,
        })
        .collect();
    let mut request_sent = vec![0 as Time; total_workers as usize];

    // Fault-injection state: only workers crash (the masters are
    // modelled reliable — the paper's related-work schemes assume a
    // living master). A chunk replied to a worker that dies before
    // completing it is leased and re-issued by the master once the
    // lease times out.
    let plan_active = cfg.faults.is_active();
    let mut reclaim_pool: Vec<(u64, u64)> = Vec::new();

    for w in 0..total_workers {
        request_sent[w as usize] = 0;
        let lat = if flat { m.net.latency_ns } else { m.intra_msg_latency_ns };
        run.push(lat, Event::RequestArrive(w));
    }

    while let Some((t, step)) = run.pop() {
        let ev = match step {
            Step::Exec(ev) => ev,
            Step::LeaseExpired(lease) => {
                let Some(owner) = run.lease_owner(lease) else {
                    continue;
                };
                // Elect the surviving worker the re-issued chunk goes
                // to; only the hierarchical model has a node to prefer.
                let Some(by) = run.survivor((!flat).then_some(owner)) else {
                    continue; // nobody left alive to reclaim
                };
                let (lo, hi) = run.expire(lease, by, t);
                if flat {
                    reclaim_pool.push((lo, hi));
                    if run.done[by as usize] {
                        run.done[by as usize] = false;
                        request_sent[by as usize] = t;
                        run.push(t + m.net.latency_ns, Event::RequestArrive(by));
                    }
                } else {
                    let target = (by / wpn) as usize;
                    locals[target].queue.deposit(lo, hi);
                    run.stats.nodes[target].deposits += 1;
                    for l in 0..wpn {
                        let u = target as u32 * wpn + l;
                        if !run.dead[u as usize] && run.done[u as usize] {
                            run.done[u as usize] = false;
                            request_sent[u as usize] = t;
                            run.push(t + m.intra_msg_latency_ns, Event::RequestArrive(u));
                        }
                    }
                }
                continue;
            }
        };
        // Fault layer: drop events of dead workers (leasing any chunk
        // still in flight to the corpse) and kill workers whose crash
        // time has passed.
        if plan_active {
            let actor = match ev {
                Event::RequestArrive(w) | Event::Reply(w, _) => Some(w),
                _ => None,
            };
            if let Some(w) = actor {
                // The master detects an undeliverable reply and leases
                // the chunk for re-issue.
                let in_flight = match ev {
                    Event::Reply(_, payload) => payload,
                    _ => None,
                };
                if run.dead[w as usize] {
                    run.lease_out(w, in_flight, t, t);
                    continue;
                }
                if let Some(ct) = cfg.crash_time(w).filter(|&ct| ct <= t) {
                    run.crash(w, ct, false);
                    run.lease_out(w, in_flight, ct, ct);
                    // Last live worker of a node: the local master's
                    // remaining queue has nobody to serve — lease it
                    // out for migration (hierarchical only).
                    if !flat {
                        run.strand(w, &mut locals[(w / wpn) as usize].queue, ct);
                    }
                    continue;
                }
            }
        }
        match ev {
            Event::RequestArrive(w) if flat => {
                // Served directly by the global master. Reclaimed
                // chunks are re-issued before fresh ones.
                let served = run.request_global(t, m.master_service_ns);
                let payload = reclaim_pool.pop().or_else(|| run.fetch(Some(w)));
                run.push(served + m.net.latency_ns, Event::Reply(w, payload));
            }
            Event::RequestArrive(w) => {
                let node = (w / wpn) as usize;
                let lm = &mut locals[node];
                let (_, served) = lm.service.request(t, m.master_service_ns);
                match lm.queue.take_sub_chunk(&cfg.spec.intra, wpn) {
                    Some(sub) => {
                        run.push(
                            served + m.intra_msg_latency_ns,
                            Event::Reply(w, Some((sub.start, sub.end))),
                        );
                        run.stats.nodes[node].sub_chunks += 1;
                    }
                    None if lm.global_done => {
                        run.push(served + m.intra_msg_latency_ns, Event::Reply(w, None));
                    }
                    None => {
                        lm.pending.push_back(w);
                        if !lm.refilling {
                            lm.refilling = true;
                            run.push(served + m.net.latency_ns, Event::GlobalArrive(node as u32));
                        }
                    }
                }
            }
            Event::GlobalArrive(node) => {
                // Fetched by the local master, a dedicated process: no
                // worker is credited with the global fetch.
                let served = run.request_global(t, m.master_service_ns);
                let payload = run.fetch(None);
                run.push(served + m.net.latency_ns, Event::ChunkArrive(node, payload));
            }
            Event::ChunkArrive(node, payload) => {
                let node_idx = node as usize;
                let lm = &mut locals[node_idx];
                lm.refilling = false;
                match payload {
                    Some((lo, hi)) => {
                        lm.queue.deposit(lo, hi);
                        run.stats.nodes[node_idx].deposits += 1;
                        // Serve the waiting workers in arrival order;
                        // each reply is one more master service.
                        let mut reply_t = t;
                        while let Some(w) = lm.pending.pop_front() {
                            let (_, served) = lm.service.request(reply_t, m.master_service_ns);
                            reply_t = served;
                            match lm.queue.take_sub_chunk(&cfg.spec.intra, wpn) {
                                Some(sub) => {
                                    run.stats.nodes[node_idx].sub_chunks += 1;
                                    run.push(
                                        served + m.intra_msg_latency_ns,
                                        Event::Reply(w, Some((sub.start, sub.end))),
                                    );
                                }
                                None => {
                                    // Chunk already drained: the
                                    // remaining waiters trigger another
                                    // refill round.
                                    lm.pending.push_front(w);
                                    if !lm.refilling && !lm.global_done {
                                        lm.refilling = true;
                                        run.push(
                                            served + m.net.latency_ns,
                                            Event::GlobalArrive(node),
                                        );
                                    }
                                    break;
                                }
                            }
                        }
                    }
                    None => {
                        lm.global_done = true;
                        while let Some(w) = lm.pending.pop_front() {
                            let (_, served) = lm.service.request(t, m.master_service_ns);
                            run.push(served + m.intra_msg_latency_ns, Event::Reply(w, None));
                        }
                    }
                }
            }
            Event::Reply(w, payload) => {
                run.trace.record(w, request_sent[w as usize], t, SegmentKind::Sched);
                match payload {
                    Some((lo, hi)) => {
                        let sub = SubChunk { start: lo, end: hi };
                        let cost = run.cost(w, t, sub);
                        if plan_active {
                            if let Some(ct) = cfg.crash_time(w).filter(|&ct| ct < t + cost) {
                                // Took the chunk, died before finishing
                                // it: lease it so the master re-issues
                                // the whole range after the timeout.
                                run.trace.record(w, t, ct, SegmentKind::Compute);
                                run.crash(w, ct, false);
                                run.lease_out(w, [(lo, hi)], t, ct);
                                if !flat {
                                    run.strand(w, &mut locals[(w / wpn) as usize].queue, ct);
                                }
                                continue;
                            }
                        }
                        run.compute(w, t, cost, sub);
                        let fin = t + cost;
                        request_sent[w as usize] = fin;
                        let lat = if flat { m.net.latency_ns } else { m.intra_msg_latency_ns };
                        run.push(
                            fin + lat + cfg.faults.message_delay(w, fin),
                            Event::RequestArrive(w),
                        );
                    }
                    None => run.retire(w, t),
                }
            }
        }
    }

    run.finish(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HierSpec};
    use crate::sim::assert_covers;
    use cluster_sim::{MachineParams, SimTopology};
    use dls::Kind;
    use workloads::synthetic::Synthetic;

    fn cfg(spec: HierSpec, nodes: u32, wpn: u32) -> SimConfig {
        let mut c = SimConfig::new(
            SimTopology::new(nodes, wpn),
            MachineParams::default(),
            spec,
            Approach::MpiMpi, // unused by these executors
        );
        c.record_chunks = true;
        c
    }

    #[test]
    fn hierarchical_covers_exactly_once() {
        for inter in [Kind::STATIC, Kind::GSS, Kind::FAC2] {
            for intra in [Kind::STATIC, Kind::SS, Kind::GSS] {
                let w = Synthetic::uniform(2_000, 20, 300, 3);
                let table = CostTable::build(&w);
                let r = simulate_master_worker(&cfg(HierSpec::new(inter, intra), 3, 4), &table);
                assert_covers(&r, 2_000);
            }
        }
    }

    #[test]
    fn flat_covers_exactly_once() {
        for tech in [Kind::SS, Kind::GSS, Kind::FAC2] {
            let w = Synthetic::uniform(2_000, 20, 300, 3);
            let table = CostTable::build(&w);
            let r = simulate_flat_master_worker(&cfg(HierSpec::new(tech, tech), 3, 4), &table);
            assert_covers(&r, 2_000);
        }
    }

    #[test]
    fn flat_master_bottlenecks_at_scale() {
        // Cheap iterations + SS: the flat master serializes every
        // single-iteration request from 256 workers.
        let w = Synthetic::constant(100_000, 2_000);
        let table = CostTable::build(&w);
        let flat =
            simulate_flat_master_worker(&cfg(HierSpec::new(Kind::SS, Kind::SS), 16, 16), &table);
        let hier = simulate_master_worker(&cfg(HierSpec::new(Kind::GSS, Kind::SS), 16, 16), &table);
        // The flat master handles one request per iteration, serially.
        let serialized = 100_000 * MachineParams::default().master_service_ns;
        assert!(flat.makespan >= serialized);
        assert!(
            flat.makespan > 2 * hier.makespan,
            "flat {} should be far worse than hierarchical {}",
            flat.makespan,
            hier.makespan
        );
    }

    #[test]
    fn hierarchical_close_to_mpi_mpi_but_not_better() {
        // The dedicated-master model pays message latency per sub-chunk;
        // the paper's shared-queue approach avoids the middleman.
        let w = Synthetic::uniform(20_000, 5_000, 50_000, 9);
        let table = CostTable::build(&w);
        let c = cfg(HierSpec::new(Kind::GSS, Kind::GSS), 4, 8);
        let mw = simulate_master_worker(&c, &table);
        let mpi = super::super::simulate_mpi_mpi(&c, &table);
        assert_covers(&mw, 20_000);
        assert!(
            mw.makespan as f64 >= 0.95 * mpi.makespan as f64,
            "master-worker ({}) should not beat the shared queue ({})",
            mw.makespan,
            mpi.makespan
        );
    }

    #[test]
    fn deterministic() {
        let w = Synthetic::uniform(1_000, 10, 100, 1);
        let table = CostTable::build(&w);
        let c = cfg(HierSpec::new(Kind::TSS, Kind::GSS), 2, 3);
        let a = simulate_master_worker(&c, &table);
        let b = simulate_master_worker(&c, &table);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn single_worker_cluster() {
        let w = Synthetic::constant(50, 1_000);
        let table = CostTable::build(&w);
        let r = simulate_master_worker(&cfg(HierSpec::new(Kind::GSS, Kind::GSS), 1, 1), &table);
        assert_covers(&r, 50);
    }
}
