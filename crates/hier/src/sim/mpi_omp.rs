//! Virtual-time executor for the baseline hybrid MPI+OpenMP approach.
//!
//! One MPI process per node. Its main thread (thread 0) fetches chunks
//! from the global queue; an OpenMP worksharing region executes each
//! chunk over the team with `schedule(static|dynamic|guided)` and an
//! **implicit barrier at the end of the region**: every thread waits for
//! the slowest one before the next chunk can be fetched — the idle time
//! the paper's Figure 2 illustrates and its MPI+MPI approach removes.

use super::{Jitter, RmaTape, SimConfig, SimResult};
use crate::layout::{GSCHED, GSTEP};
use crate::queue::{LocalQueue, SubChunk};
use crate::stats::RunStats;
use cluster_sim::trace::SegmentKind;
use cluster_sim::{EventQueue, Resource, Time, Trace};
use dls::{ChunkCalculator, LoopSpec, SchedState};
use mpisim::{LockKind, RmaEvent};
use workloads::CostTable;

fn get(disp: usize) -> RmaEvent {
    RmaEvent::Get { target: 0, disp, len: 1 }
}

fn put(disp: usize) -> RmaEvent {
    RmaEvent::Put { target: 0, disp, len: 1 }
}

enum Event {
    /// Node `n`'s master thread's RMA request reaches the global
    /// queue's host.
    FetchArrive(u32),
    /// A dead node's chunk lease timed out (fault injection only).
    Reclaim { lease: resilience::LeaseId },
}

/// Run the MPI+OpenMP approach in virtual time.
pub fn simulate_mpi_omp(cfg: &SimConfig, table: &CostTable) -> SimResult {
    let nodes = cfg.topology.nodes;
    let threads = cfg.topology.workers_per_node;
    let total_workers = cfg.topology.total_workers();
    let n_iters = table.n_iters();
    let inter_spec = LoopSpec::new(n_iters, nodes);
    let m = &cfg.machine;

    let mut global_state = SchedState::START;
    let mut global_q = Resource::new();
    let mut stats = RunStats::new(total_workers as usize, nodes as usize);
    let mut trace = if cfg.trace { Trace::recording() } else { Trace::disabled() };
    let mut executed: Vec<(u32, SubChunk)> = Vec::new();
    let mut events = EventQueue::new();
    let mut node_finish = vec![0 as Time; nodes as usize];
    // End of each node's previous worksharing region, for attributing
    // the fetch gap as Sync time on the non-master threads.
    let mut region_ends = vec![0 as Time; nodes as usize];
    let mut jitter = Jitter::new(cfg.perturb, threads, total_workers);
    let mut tape = RmaTape::new(cfg.record_rma);

    // Fault-injection state. Under MPI+OpenMP a crash of *any* thread
    // kills its whole node — the OpenMP team dies with the MPI process.
    // Crashes take effect at protocol-step boundaries (fetch, deposit,
    // end of region), the same discretization the model checker uses.
    let plan_active = cfg.faults.is_active();
    let rp = cfg.faults.recovery;
    let mut dead_node = vec![false; nodes as usize];
    let mut reclaim_queue: Vec<(u64, u64)> = Vec::new();
    let mut leases = resilience::LeaseTable::new();
    let mut recovery: Vec<resilience::RecoveryEvent> = Vec::new();
    // Earliest crash fault on any of the node's threads.
    let node_crash = |node: u32| -> Option<(Time, u32)> {
        (0..threads)
            .filter_map(|i| {
                let w = node * threads + i;
                let c = match (cfg.faults.crash_at(w), cfg.faults.crash_holding_lock_at(w)) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }?;
                Some((c, w))
            })
            .min()
    };

    if cfg.record_rma {
        // Window ranks are the node masters (one MPI process per node).
        for node in 0..nodes {
            tape.tx(0, 0, node, &[RmaEvent::Attach { shared: false, comm_size: nodes }]);
        }
    }

    for node in 0..nodes {
        events.push(m.net.latency_ns + jitter.delay(node * threads), Event::FetchArrive(node));
    }

    while let Some((t, ev)) = events.pop() {
        let node = match ev {
            Event::FetchArrive(n) => n,
            Event::Reclaim { lease } => {
                let Some(&resilience::Lease { owner, .. }) = leases.get(lease) else {
                    continue;
                };
                // Hand the expired lease's range to the first surviving
                // node's master and wake it.
                let Some(target) = (0..nodes).find(|&n| !dead_node[n as usize]) else {
                    continue; // nobody left alive to reclaim
                };
                let by = target * threads;
                let resilience::Lease { lo, hi, .. } =
                    leases.reclaim(lease).expect("lease checked active");
                recovery.push(resilience::RecoveryEvent::LeaseExpired { owner, lo, hi, at_ns: t });
                recovery.push(resilience::RecoveryEvent::Reclaim { by, owner, lo, hi, at_ns: t });
                stats.workers[by as usize].reclaims += 1;
                reclaim_queue.push((lo, hi));
                events.push(t + m.net.latency_ns, Event::FetchArrive(target));
                continue;
            }
        };
        if plan_active {
            if dead_node[node as usize] {
                continue;
            }
            if let Some((c, rank)) = node_crash(node).filter(|&(c, _)| c <= t) {
                // Died at (or before) this fetch boundary: regions
                // completed earlier are counted, nothing is in hand.
                let at = c.max(region_ends[node as usize]);
                dead_node[node as usize] = true;
                node_finish[node as usize] = at;
                recovery.push(resilience::RecoveryEvent::Crash {
                    rank,
                    at_ns: at,
                    holding_lock: false,
                });
                continue;
            }
        }
        let (_, served) = global_q.request(t, m.rma_service_ns);
        stats.global_accesses += 1;
        let master = node * threads;
        let fetched_at =
            served + m.net.latency_ns + m.chunk_calc_ns + cfg.faults.message_delay(master, served);
        trace.record(master, t - m.net.latency_ns, fetched_at, SegmentKind::Sched);

        let lock = RmaEvent::Lock { kind: LockKind::Exclusive, target: 0 };
        let unlock = RmaEvent::Unlock { kind: LockKind::Exclusive, target: 0 };
        // Reclaimed ranges take priority over fresh global chunks.
        let reclaimed = if plan_active { reclaim_queue.pop() } else { None };
        if reclaimed.is_none() && global_state.exhausted(&inter_spec) {
            tape.tx(served, 0, node, &[lock, get(GSTEP), get(GSCHED), unlock]);
            node_finish[node as usize] = fetched_at;
            continue;
        }
        let (c_lo, c_hi) = match reclaimed {
            Some(range) => range,
            None => {
                tape.tx(
                    served,
                    0,
                    node,
                    &[lock, get(GSTEP), get(GSCHED), put(GSTEP), put(GSCHED), unlock],
                );
                let size = cfg.spec.inter.chunk_size(
                    &inter_spec,
                    global_state,
                    dls::technique::WorkerCtx::default(),
                );
                let chunk = global_state.take(&inter_spec, size).expect("not exhausted");
                stats.workers[master as usize].global_fetches += 1;
                (chunk.start, chunk.end())
            }
        };
        stats.nodes[node as usize].deposits += 1;

        if plan_active {
            // Died with the fetched chunk in hand (before the team
            // starts the region), or on the fetch that a CrashAsRefiller
            // fault targets: the chunk is lost until its lease expires.
            let in_hand = node_crash(node).filter(|&(c, _)| c <= fetched_at).or_else(|| {
                cfg.faults.crash_as_refiller_after(master).and_then(|k| {
                    (stats.workers[master as usize].global_fetches >= u64::from(k))
                        .then_some((served, master))
                })
            });
            if let Some((c, rank)) = in_hand {
                let at = c.max(region_ends[node as usize]);
                dead_node[node as usize] = true;
                node_finish[node as usize] = at;
                recovery.push(resilience::RecoveryEvent::Crash {
                    rank,
                    at_ns: at,
                    holding_lock: false,
                });
                let id = leases.grant(rank, c_lo, c_hi, served);
                events.push(at + rp.lease_timeout_ns, Event::Reclaim { lease: id });
                continue;
            }
        }

        // While the master is in MPI, the rest of the team sits at the
        // region boundary.
        for i in 1..threads {
            let w = node * threads + i;
            trace.record(w, region_ends[node as usize], fetched_at, SegmentKind::Sync);
        }

        // ---- OpenMP worksharing region over [c_lo, c_hi) ----
        let region_start = fetched_at;
        let finishes = run_team(
            cfg,
            table,
            node,
            threads,
            c_lo,
            c_hi,
            region_start,
            &mut stats,
            &mut executed,
            &mut trace,
            &mut jitter,
        );
        // Implicit barrier: everyone advances to the slowest thread.
        let slowest = finishes.iter().copied().max().expect("non-empty team");
        let region_end = slowest + m.omp_barrier(threads);
        for (i, &f) in finishes.iter().enumerate() {
            let w = node * threads + i as u32;
            trace.record(w, f, region_end, SegmentKind::Sync);
        }
        region_ends[node as usize] = region_end;
        events.push(region_end + m.net.latency_ns + jitter.delay(master), Event::FetchArrive(node));
    }

    let makespan = node_finish.iter().copied().max().unwrap_or(0);
    for node in 0..nodes {
        for i in 0..threads {
            let w = node * threads + i;
            trace.record(w, node_finish[node as usize], makespan, SegmentKind::Idle);
        }
    }
    stats.total_iterations = stats.workers.iter().map(|w| w.iterations).sum();

    SimResult {
        makespan,
        stats,
        trace,
        lock_poll_penalty: 0,
        executed,
        rma: tape.finish(),
        recovery,
    }
}

/// Execute one chunk over the team; returns each thread's finish time.
#[allow(clippy::too_many_arguments)]
fn run_team(
    cfg: &SimConfig,
    table: &CostTable,
    node: u32,
    threads: u32,
    lo: u64,
    hi: u64,
    start: Time,
    stats: &mut RunStats,
    executed: &mut Vec<(u32, SubChunk)>,
    trace: &mut Trace,
    jitter: &mut Jitter,
) -> Vec<Time> {
    let m = &cfg.machine;
    let intra = &cfg.spec.intra;
    let len = hi - lo;

    if !intra.is_dynamic() {
        // schedule(static): contiguous blocks of ceil(len/threads),
        // assigned round-robin by thread id; no dispatch cost.
        let block = len.div_ceil(u64::from(threads));
        let mut finishes = Vec::with_capacity(threads as usize);
        for i in 0..threads {
            let w = node * threads + i;
            let s = lo + u64::from(i) * block;
            let e = (s + block).min(hi);
            let mut finish = start;
            if s < e {
                let cost = cfg.cost_at(w, start, table.range_cost(s, e));
                trace.record(w, start, start + cost, SegmentKind::Compute);
                stats.workers[w as usize].iterations += e - s;
                stats.workers[w as usize].sub_chunks += 1;
                stats.nodes[node as usize].sub_chunks += 1;
                if cfg.record_chunks {
                    executed.push((w, SubChunk { start: s, end: e }));
                }
                finish += cost;
            }
            finishes.push(finish);
        }
        return finishes;
    }

    // schedule(dynamic,k) / schedule(guided,k) (and, under MPI+MPI-only
    // combinations that tests exercise directly, any dynamic technique):
    // threads pull sub-chunks from a shared dispatcher; each dispatch is
    // one atomic in the OpenMP runtime, serialized per node.
    let mut queue = LocalQueue::new();
    queue.deposit(lo, hi);
    let mut dispatcher = Resource::new();
    // Perturbation staggers each thread's arrival at the dispatcher,
    // reshuffling which thread wins each pull.
    let mut clocks: Vec<Time> =
        (0..threads).map(|i| start + jitter.delay(node * threads + i)).collect();
    loop {
        // The earliest-free thread grabs the next sub-chunk.
        let (i, _) =
            clocks.iter().enumerate().min_by_key(|&(i, &c)| (c, i)).expect("non-empty team");
        let w = node * threads + i as u32;
        let (_, dispatched) = dispatcher.request(clocks[i], m.omp_dispatch_ns);
        let Some(sub) = queue.take_sub_chunk(intra, threads) else {
            break;
        };
        trace.record(w, clocks[i], dispatched, SegmentKind::Sched);
        let cost = cfg.cost_at(w, dispatched, table.range_cost(sub.start, sub.end));
        trace.record(w, dispatched, dispatched + cost, SegmentKind::Compute);
        stats.workers[w as usize].iterations += sub.len();
        stats.workers[w as usize].sub_chunks += 1;
        stats.nodes[node as usize].sub_chunks += 1;
        if cfg.record_chunks {
            executed.push((w, sub));
        }
        clocks[i] = dispatched + cost;
    }
    clocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HierSpec};
    use cluster_sim::{MachineParams, SimTopology};
    use dls::verify::check_exactly_once;
    use dls::Kind;
    use workloads::synthetic::Synthetic;

    fn run(spec: HierSpec, nodes: u32, wpn: u32, n: u64) -> SimResult {
        let w = Synthetic::uniform(n, 50, 500, 7);
        let table = CostTable::build(&w);
        let mut cfg = SimConfig::new(
            SimTopology::new(nodes, wpn),
            MachineParams::default(),
            spec,
            Approach::MpiOpenMp,
        );
        cfg.record_chunks = true;
        simulate_mpi_omp(&cfg, &table)
    }

    fn assert_covers(result: &SimResult, n: u64) {
        let chunks: Vec<dls::Chunk> = result
            .executed
            .iter()
            .map(|(_, s)| dls::Chunk { start: s.start, len: s.len(), step: 0 })
            .collect();
        check_exactly_once(&chunks, n).expect("every iteration exactly once");
        assert_eq!(result.stats.total_iterations, n);
    }

    #[test]
    fn executes_every_iteration_exactly_once() {
        for inter in [Kind::STATIC, Kind::GSS, Kind::TSS, Kind::FAC2] {
            for intra in [Kind::STATIC, Kind::SS, Kind::GSS] {
                let r = run(HierSpec::new(inter, intra), 4, 4, 3000);
                assert_covers(&r, 3000);
            }
        }
    }

    #[test]
    fn only_masters_fetch() {
        let r = run(HierSpec::new(Kind::GSS, Kind::GSS), 4, 4, 5000);
        for (w, ws) in r.stats.workers.iter().enumerate() {
            if w % 4 != 0 {
                assert_eq!(ws.global_fetches, 0, "worker {w} is not a master");
            }
        }
        let fetches: u64 = r.stats.workers.iter().map(|w| w.global_fetches).sum();
        assert!(fetches >= 4);
    }

    #[test]
    fn deterministic() {
        let a = run(HierSpec::new(Kind::TSS, Kind::GSS), 4, 4, 2000);
        let b = run(HierSpec::new(Kind::TSS, Kind::GSS), 4, 4, 2000);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.executed, b.executed);
    }

    #[test]
    fn static_intra_has_barrier_idle_time() {
        // Imbalanced costs + static intra => threads wait at each
        // end-of-chunk barrier (the paper's Figure 2).
        let w = Synthetic::linear_increasing(2000, 10, 2000);
        let table = CostTable::build(&w);
        let mut cfg = SimConfig::new(
            SimTopology::new(2, 4),
            MachineParams::default(),
            HierSpec::new(Kind::GSS, Kind::STATIC),
            Approach::MpiOpenMp,
        );
        cfg.trace = true;
        let r = simulate_mpi_omp(&cfg, &table);
        let totals = r.trace.totals();
        assert!(
            totals.sync > totals.compute / 20,
            "expected visible barrier idle time, sync = {} compute = {}",
            totals.sync,
            totals.compute
        );
    }

    #[test]
    fn more_nodes_faster() {
        let slow = run(HierSpec::new(Kind::GSS, Kind::GSS), 2, 4, 20_000);
        let fast = run(HierSpec::new(Kind::GSS, Kind::GSS), 8, 4, 20_000);
        assert!(fast.makespan < slow.makespan);
    }

    #[test]
    fn single_thread_team() {
        let r = run(HierSpec::new(Kind::GSS, Kind::STATIC), 2, 1, 500);
        assert_covers(&r, 500);
    }
}
