//! Virtual-time executor for the baseline hybrid MPI+OpenMP approach.
//!
//! One MPI process per node. Its main thread (thread 0) fetches chunks
//! from the global queue; an OpenMP worksharing region executes each
//! chunk over the team with `schedule(static|dynamic|guided)` and an
//! **implicit barrier at the end of the region**: every thread waits for
//! the slowest one before the next chunk can be fetched — the idle time
//! the paper's Figure 2 illustrates and its MPI+MPI approach removes.

use super::run::{Run, Step};
use super::{RunConfig, SimResult};
use crate::protocol::{GLOBAL_LOCKED_ADVANCE, GLOBAL_LOCKED_READ};
use crate::queue::{LocalQueue, SubChunk};
use cluster_sim::trace::SegmentKind;
use cluster_sim::{Resource, Time};
use dls::openmp::static_blocks;
use dls::ChunkCalculator;
use mpisim::RmaEvent;
use workloads::CostTable;

enum Event {
    /// Node `n`'s master thread's RMA request reaches the global
    /// queue's host.
    FetchArrive(u32),
}

/// Run the MPI+OpenMP approach in virtual time.
pub fn simulate_mpi_omp(cfg: &RunConfig, table: &CostTable) -> SimResult {
    let nodes = cfg.topology.nodes;
    let threads = cfg.topology.workers_per_node;
    let m = &cfg.machine;

    let mut run = Run::new(cfg, table, nodes);
    // End of each node's previous worksharing region, for attributing
    // the fetch gap as Sync time on the non-master threads.
    let mut region_ends = vec![0 as Time; nodes as usize];

    // Fault-injection state. Under MPI+OpenMP a crash of *any* thread
    // kills its whole node — the OpenMP team dies with the MPI process
    // — so a node is down as soon as one of its threads is dead.
    // Crashes take effect at protocol-step boundaries (fetch, deposit,
    // end of region), as `resilience::FaultKind::Crash` specifies for
    // every virtual-time executor.
    let plan_active = cfg.faults.is_active();
    let mut reclaim_queue: Vec<(u64, u64)> = Vec::new();
    let team = |node: u32| node * threads..(node + 1) * threads;
    // Earliest crash fault on any of the node's threads.
    let node_crash = |node: u32| -> Option<(Time, u32)> {
        team(node).filter_map(|w| Some((cfg.crash_time(w)?, w))).min()
    };

    if cfg.record_rma {
        // Window ranks are the node masters (one MPI process per node).
        for node in 0..nodes {
            run.tape.tx(0, 0, node, &[RmaEvent::Attach { shared: false, comm_size: nodes }]);
        }
    }

    for node in 0..nodes {
        let arrive = m.net_latency_ns + run.jitter.delay(node * threads);
        run.push(arrive, Event::FetchArrive(node));
    }

    while let Some((t, step)) = run.pop() {
        let node = match step {
            Step::Exec(Event::FetchArrive(n)) => n,
            Step::LeaseExpired(lease) => {
                if run.lease_owner(lease).is_none() {
                    continue;
                }
                // Hand the expired lease's range to the first surviving
                // node's master and wake it.
                let Some(target) = (0..nodes).find(|&n| !team(n).any(|w| run.dead[w as usize]))
                else {
                    continue; // nobody left alive to reclaim
                };
                reclaim_queue.push(run.expire(lease, target * threads, t));
                run.push(t + m.net_latency_ns, Event::FetchArrive(target));
                continue;
            }
        };
        let master = node * threads;
        if plan_active {
            if team(node).any(|w| run.dead[w as usize]) {
                continue;
            }
            if let Some((c, rank)) = node_crash(node).filter(|&(c, _)| c <= t) {
                // Died at (or before) this fetch boundary: regions
                // completed earlier are counted, nothing is in hand.
                let at = c.max(region_ends[node as usize]);
                run.crash(rank, at, false);
                team(node).for_each(|w| run.finish_time[w as usize] = at);
                continue;
            }
        }
        let served = run.request_global(t, m.rma_service_ns);
        let fetched_at =
            served + m.net_latency_ns + m.chunk_calc_ns + cfg.faults.message_delay(master, served);
        run.trace.record(master, t - m.net_latency_ns, fetched_at, SegmentKind::Sched);

        // Reclaimed ranges take priority over fresh global chunks.
        let reclaimed = reclaim_queue.pop();
        let Some((c_lo, c_hi)) = reclaimed.or_else(|| run.fetch(Some(master))) else {
            run.tape.tx(served, 0, node, GLOBAL_LOCKED_READ);
            team(node).for_each(|w| run.retire(w, fetched_at));
            continue;
        };
        if reclaimed.is_none() {
            run.tape.tx(served, 0, node, GLOBAL_LOCKED_ADVANCE);
        }
        run.stats.nodes[node as usize].deposits += 1;

        if plan_active {
            // Died with the fetched chunk in hand (before the team
            // starts the region), or on the fetch that a CrashAsRefiller
            // fault targets: the chunk is lost until its lease expires.
            let in_hand = node_crash(node).filter(|&(c, _)| c <= fetched_at).or_else(|| {
                cfg.faults.crash_as_refiller_after(master).and_then(|k| {
                    (run.stats.workers[master as usize].global_fetches >= u64::from(k))
                        .then_some((served, master))
                })
            });
            if let Some((c, rank)) = in_hand {
                let at = c.max(region_ends[node as usize]);
                run.crash(rank, at, false);
                team(node).for_each(|w| run.finish_time[w as usize] = at);
                run.lease_out(rank, [(c_lo, c_hi)], served, at);
                continue;
            }
        }

        // While the master is in MPI, the rest of the team sits at the
        // region boundary.
        for i in 1..threads {
            let w = node * threads + i;
            run.trace.record(w, region_ends[node as usize], fetched_at, SegmentKind::Sync);
        }

        // ---- OpenMP worksharing region over [c_lo, c_hi) ----
        let region_start = fetched_at;
        let finishes = run_team(&mut run, node, c_lo, c_hi, region_start);
        // Implicit barrier: everyone advances to the slowest thread.
        let slowest = finishes.iter().copied().max().expect("non-empty team");
        let region_end = slowest + m.omp_barrier(threads);
        for (i, &f) in finishes.iter().enumerate() {
            let w = node * threads + i as u32;
            run.trace.record(w, f, region_end, SegmentKind::Sync);
        }
        region_ends[node as usize] = region_end;
        let arrive = region_end + m.net_latency_ns + run.jitter.delay(master);
        run.push(arrive, Event::FetchArrive(node));
    }

    run.finish(0)
}

/// Execute the chunk `[lo, hi)` over `node`'s team from `start` on;
/// returns each thread's finish time.
fn run_team(run: &mut Run<Event>, node: u32, lo: u64, hi: u64, start: Time) -> Vec<Time> {
    let cfg = run.cfg;
    let threads = cfg.topology.workers_per_node;
    let m = &cfg.machine;
    let intra = &cfg.spec.intra;

    if !intra.is_dynamic() {
        // schedule(static): one contiguous block per thread, fixed up
        // front; no dispatch cost.
        let mut finishes = Vec::with_capacity(threads as usize);
        for i in 0..threads {
            let w = node * threads + i;
            let mut finish = start;
            for block in static_blocks(lo..hi, None, i, threads) {
                let sub = SubChunk { start: block.start, end: block.end };
                let cost = run.cost(w, finish, sub);
                run.compute(w, finish, cost, sub);
                run.stats.nodes[node as usize].sub_chunks += 1;
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
    let mut team = WinnerTree::new(
        (0..threads).map(|i| start + run.jitter.delay(node * threads + i)).collect(),
    );
    loop {
        // The earliest-free thread grabs the next sub-chunk; among
        // equals, the lowest thread id.
        let (i, earliest) = team.winner();
        let w = node * threads + i as u32;
        let (_, dispatched) = dispatcher.request(earliest, m.omp_dispatch_ns);
        let Some(sub) = queue.take_sub_chunk(intra, threads) else {
            break;
        };
        run.trace.record(w, earliest, dispatched, SegmentKind::Sched);
        let cost = run.cost(w, dispatched, sub);
        run.compute(w, dispatched, cost, sub);
        run.stats.nodes[node as usize].sub_chunks += 1;
        team.set(i, dispatched + cost);
    }
    team.into_clocks()
}

/// The team's clocks under a winner tree: the earliest-free thread in
/// one leaf-to-root replay per update instead of a scan of every clock.
struct WinnerTree {
    /// The clocks, padded to a power of two with `Time::MAX` (never
    /// free).
    clocks: Vec<Time>,
    /// Node 1 is the root, node `k`'s children are `2k` and `2k + 1`,
    /// and leaf `clocks.len() + i` is thread `i`. Each node holds the
    /// thread winning its subtree: the earliest clock, a tie going to
    /// the left subtree, the lowest thread id.
    win: Vec<u32>,
    threads: usize,
}

impl WinnerTree {
    fn new(mut clocks: Vec<Time>) -> Self {
        let threads = clocks.len();
        let leaves = threads.next_power_of_two();
        clocks.resize(leaves, Time::MAX);
        let mut win = vec![0; leaves];
        win.extend(0..leaves as u32);
        let mut tree = Self { clocks, win, threads };
        for k in (1..leaves).rev() {
            tree.replay(k);
        }
        tree
    }

    /// Node `k` plays its children's winners.
    fn replay(&mut self, k: usize) {
        let (l, r) = (self.win[2 * k], self.win[2 * k + 1]);
        self.win[k] = if self.clocks[r as usize] < self.clocks[l as usize] { r } else { l };
    }

    /// The earliest-free thread and its clock.
    fn winner(&self) -> (usize, Time) {
        let i = self.win[1] as usize;
        (i, self.clocks[i])
    }

    /// Thread `i` is next free at `clock`.
    fn set(&mut self, i: usize, clock: Time) {
        self.clocks[i] = clock;
        let mut k = (self.clocks.len() + i) / 2;
        while k > 0 {
            self.replay(k);
            k /= 2;
        }
    }

    /// Each thread's clock, by thread id.
    fn into_clocks(mut self) -> Vec<Time> {
        self.clocks.truncate(self.threads);
        self.clocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HierSpec};
    use crate::sim::assert_covers;
    use dls::Kind;
    use workloads::synthetic::Synthetic;

    fn run(spec: HierSpec, nodes: u32, wpn: u32, n: u64) -> SimResult {
        let w = Synthetic::uniform(n, 50, 500, 7);
        let table = CostTable::build(&w);
        let mut cfg = RunConfig::new(nodes, wpn, spec, Approach::MpiOpenMp);
        cfg.record_chunks = true;
        simulate_mpi_omp(&cfg, &table)
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
        let mut cfg =
            RunConfig::new(2, 4, HierSpec::new(Kind::GSS, Kind::STATIC), Approach::MpiOpenMp);
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
    fn winner_tree_picks_the_first_earliest_clock() {
        // Few distinct clocks, so most picks break a tie.
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) % 4
        };
        for threads in 1..=17 {
            let mut clocks: Vec<Time> = (0..threads).map(|_| next()).collect();
            let mut tree = WinnerTree::new(clocks.clone());
            for _ in 0..200 {
                let earliest = *clocks.iter().min().unwrap();
                let first = clocks.iter().position(|&c| c == earliest).unwrap();
                assert_eq!(tree.winner(), (first, earliest), "{threads} threads");
                clocks[first] += next();
                tree.set(first, clocks[first]);
            }
            assert_eq!(tree.into_clocks(), clocks);
        }
    }

    #[test]
    fn single_thread_team() {
        let r = run(HierSpec::new(Kind::GSS, Kind::STATIC), 2, 1, 500);
        assert_covers(&r, 500);
    }
}
