//! Real-thread MPI+OpenMP executor: the baseline hybrid on the `mpisim`
//! runtime, with the intra-node level running on the `openmp-sim`
//! worksharing runtime.
//!
//! One MPI rank per node. Inside each rank, an OpenMP-style team
//! executes chunks: thread 0 (the main thread — the only one allowed to
//! call MPI, as the paper notes) fetches chunks from the global RMA
//! window; every worksharing region over a chunk ends in the **implicit
//! team barrier** `openmp_sim::TeamCtx::for_each` provides, so fast
//! threads wait for the slowest one before the next chunk can be
//! fetched.
//!
//! As on the paper's testbed (Intel OpenMP), only `schedule(static)`,
//! `schedule(dynamic,k)` and `schedule(guided,k)` exist at this level.
//! Which clause the intra technique is, parameter included, is
//! `dls::openmp`'s Table 1; requesting TSS/FAC2/... intra-node under
//! MPI+OpenMP panics with the same limitation message the paper gives
//! for skipping those combinations.

use super::global_queue::GlobalQueue;
use super::run::{assemble, Ledger};
use super::{LiveResult, RunConfig};
use crate::config::GlobalQueueMode;
use crate::protocol::Fetched;
use crate::queue::SubChunk;
use cluster_sim::trace::SegmentKind;
use dls::openmp::{omp_equivalent, OmpSchedule};
use mpisim::{RmaLog, Topology, Universe};
use openmp_sim::{Team, TeamCtx};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use workloads::Workload;

/// The intra technique's `schedule` clause, or the paper's limitation
/// message.
fn omp_schedule(intra: &dls::Technique) -> OmpSchedule {
    omp_equivalent(intra).unwrap_or_else(|| {
        panic!(
            "the Intel OpenMP runtime only supports schedule(static|dynamic|guided); \
             {} at the intra-node level requires Approach::MpiMpi",
            intra.kind()
        )
    })
}

/// Run the MPI+OpenMP approach with real threads.
///
/// Allocation or RMA failures from any node's master thread surface as
/// `Err`.
pub fn run_live_mpi_omp(
    cfg: &RunConfig,
    workload: &(dyn Workload + Sync),
) -> mpisim::Result<LiveResult> {
    // One MPI process per node; the team provides the node's parallelism.
    let topology = Topology::new(cfg.topology.nodes, 1);
    let n = workload.n_iters();
    assert!(n <= i64::MAX as u64, "loop too large for i64 window slots");
    let inter_spec = dls::LoopSpec::new(n, cfg.topology.nodes);
    let schedule = omp_schedule(&cfg.spec.intra);
    let team_size = cfg.topology.workers_per_node;
    let spec = cfg.spec;
    let do_trace = cfg.trace;
    let rma_log = cfg.record_rma.then(RmaLog::new);
    let log_for_ranks = rma_log.clone();
    // Timeline epoch: every thread stamps segments relative to this.
    let epoch = Instant::now();

    let outcomes = Universe::run(topology, move |p| -> mpisim::Result<Vec<Ledger>> {
        let world = p.world();
        let node = world.rank();
        // The baseline keeps both counters in the window, under a lock.
        let queue = GlobalQueue::open_rma(
            world,
            GlobalQueueMode::LockedCounters,
            spec.inter,
            inter_spec,
            log_for_ranks.as_ref(),
        )?;
        world.barrier();
        queue.note_barrier();

        let chunk_slot: Mutex<Option<(u64, u64)>> = Mutex::new(None);
        // First RMA error the master thread hit (it cannot return a
        // Result through the worksharing closure); reported after the
        // team joins.
        let fetch_err: Mutex<Option<mpisim::Error>> = Mutex::new(None);

        let mut threads = Team::new(team_size).parallel(|ctx| {
            let worker = node * team_size + ctx.thread_num();
            let out = Ledger::new(worker, Some(node), epoch, do_trace, do_trace);
            team_thread(ctx, out, workload, &queue, &chunk_slot, &fetch_err, schedule)
        });

        if let Some(e) = fetch_err.into_inner().unwrap_or_else(PoisonError::into_inner) {
            return Err(e);
        }
        // Only thread 0 touches the global window, so the rank's window
        // counters are the master worker's, and the global window's lock
        // is the only one this node takes.
        let win_stats = queue.rank_stats();
        threads[0].lock_stats = Some((win_stats.lock_acquisitions, 0, win_stats.failed_polls));
        threads[0].win_stats = win_stats;
        Ok(threads)
    });

    let teams = outcomes.into_iter().collect::<mpisim::Result<Vec<_>>>()?;
    let rma = rma_log.map(|l| l.records()).unwrap_or_default();
    Ok(assemble(cfg, teams.into_iter().flatten().collect(), rma))
}

/// One team thread's life: thread 0 fetches chunks over MPI; everyone
/// executes worksharing regions with the implicit end barrier.
fn team_thread(
    ctx: &TeamCtx,
    mut out: Ledger,
    workload: &dyn Workload,
    queue: &GlobalQueue,
    chunk_slot: &Mutex<Option<(u64, u64)>>,
    fetch_err: &Mutex<Option<mpisim::Error>>,
    schedule: OmpSchedule,
) -> Ledger {
    loop {
        // Only the main thread calls MPI. An RMA failure parks its
        // error in `fetch_err` and posts `None` so the whole team
        // drains out of the loop.
        ctx.master(|| {
            out.global_accesses += 1;
            *chunk_slot.lock().unwrap_or_else(PoisonError::into_inner) = match queue.fetch() {
                Ok(Fetched::Chunk(lo, hi)) => {
                    out.global_fetches += 1;
                    out.deposits += 1;
                    Some((lo, hi))
                }
                Ok(Fetched::Done) => None,
                Ok(Fetched::Pending) => unreachable!("only the service queue defers"),
                Err(e) => {
                    fetch_err.lock().unwrap_or_else(PoisonError::into_inner).get_or_insert(e);
                    None
                }
            };
            // The master's MPI round-trip is scheduling overhead.
            out.cut(SegmentKind::Sched);
        });
        // Region start: the team waits for the fetch.
        ctx.barrier();
        out.cut(SegmentKind::Sync);
        let Some((lo, hi)) = *chunk_slot.lock().unwrap_or_else(PoisonError::into_inner) else {
            break;
        };
        // The worksharing region; `for_each_dispatch` ends in the
        // implicit barrier the paper's Figure 2 illustrates.
        ctx.for_each_dispatch(lo..hi, schedule, |r| {
            // Obtaining the range from the runtime is scheduling overhead.
            out.cut(SegmentKind::Sched);
            out.execute(workload, SubChunk { start: r.start, end: r.end });
            out.cut(SegmentKind::Compute);
        });
        // Fast threads sit in the region's implicit end barrier until
        // the slowest one drains its share.
        out.cut(SegmentKind::Sync);
    }
    out.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HierSpec};
    use crate::live::{assert_exact, serial_checksum};
    use dls::{Kind, Technique};
    use workloads::synthetic::Synthetic;

    fn run(spec: HierSpec, nodes: u32, wpn: u32, n: u64) -> (LiveResult, u64) {
        let w = Synthetic::uniform(n, 1, 100, 3);
        let cfg = RunConfig::new(nodes, wpn, spec, Approach::MpiOpenMp);
        let serial = serial_checksum(&w);
        (run_live_mpi_omp(&cfg, &w).expect("live run"), serial)
    }

    #[test]
    fn openmp_supported_combinations_execute_exactly_once() {
        for inter in [Kind::STATIC, Kind::GSS, Kind::TSS, Kind::FAC2] {
            for intra in [Kind::STATIC, Kind::SS, Kind::GSS] {
                let (r, serial) = run(HierSpec::new(inter, intra), 2, 3, 600);
                assert_exact(&r, serial, 600);
            }
        }
    }

    #[test]
    fn only_thread_zero_fetches() {
        let (r, _) = run(HierSpec::new(Kind::GSS, Kind::GSS), 2, 4, 800);
        for (w, ws) in r.stats.workers.iter().enumerate() {
            if w % 4 != 0 {
                assert_eq!(ws.global_fetches, 0);
            }
        }
    }

    #[test]
    fn static_intra_splits_blocks() {
        let (r, serial) = run(HierSpec::new(Kind::STATIC, Kind::STATIC), 2, 4, 800);
        assert_exact(&r, serial, 800);
        // STATIC+STATIC: two inter chunks of 400, each split into one
        // block of 100 per thread.
        assert_eq!(r.executed.len(), 8);
        assert!(r.executed.iter().all(|(_, sub)| sub.len() == 100));
        // Which master fetches which chunk is a race — one node may win
        // both — so a node runs zero, one or two regions, and its four
        // threads share every region evenly.
        for team in r.stats.workers.chunks(4) {
            let regions = team[0].sub_chunks;
            assert!(regions <= 2);
            for ws in team {
                assert_eq!((ws.sub_chunks, ws.iterations), (regions, 100 * regions));
            }
        }
    }

    #[test]
    fn tiny_loop() {
        let (r, serial) = run(HierSpec::new(Kind::GSS, Kind::SS), 2, 4, 3);
        assert_exact(&r, serial, 3);
    }

    #[test]
    fn single_node_single_thread() {
        let (r, serial) = run(HierSpec::new(Kind::FAC2, Kind::GSS), 1, 1, 200);
        assert_exact(&r, serial, 200);
    }

    #[test]
    fn trace_covers_every_team_thread() {
        let w = Synthetic::uniform(600, 1, 100, 3);
        let mut cfg = RunConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiOpenMp);
        cfg.trace = true;
        let r = run_live_mpi_omp(&cfg, &w).expect("live run");
        let totals = r.trace.totals();
        assert!(totals.compute > 0, "compute segments must be recorded");
        assert!(totals.sched > 0, "the master's fetches are sched time");
        assert!(totals.sync > 0, "region barriers are sync time");
        for w in 0..6 {
            assert!(r.trace.worker_totals(w).total() > 0, "worker {w} has an empty timeline");
        }
        // Only the master thread of each node touches MPI, so only it
        // can accumulate window counters.
        for (w, ws) in r.stats.workers.iter().enumerate() {
            if w % 3 == 0 {
                assert!(ws.rma_ops == 0, "chunk fetches use put/get, not atomics");
                assert!(ws.lock_time_ns > 0, "the master holds the global lock");
            } else {
                assert_eq!(ws.lock_time_ns, 0);
                assert_eq!(ws.lock_polls, 0);
            }
        }
        for node in &r.stats.nodes {
            assert!(node.lock_acquisitions > 0);
        }
    }

    #[test]
    fn trace_disabled_by_default() {
        let (r, _) = run(HierSpec::new(Kind::GSS, Kind::SS), 1, 2, 100);
        assert!(r.trace.segments().is_empty());
    }

    #[test]
    #[should_panic(expected = "Intel OpenMP runtime only supports")]
    fn unsupported_intra_technique_rejected() {
        let w = Synthetic::constant(10, 1);
        let cfg = RunConfig::new(1, 2, HierSpec::new(Kind::GSS, Kind::TSS), Approach::MpiOpenMp);
        let _ = run_live_mpi_omp(&cfg, &w);
    }

    #[test]
    fn parameterised_intra_technique_is_honoured() {
        // GSS:4 is schedule(guided,4), not guided,1: one node, one
        // region of 100 over 2 threads, no dispatch below 4 but the tail.
        let w = Synthetic::constant(100, 1);
        let spec = HierSpec { inter: Technique::static_(), intra: "GSS:4".parse().unwrap() };
        let r = run_live_mpi_omp(&RunConfig::new(1, 2, spec, Approach::MpiOpenMp), &w)
            .expect("live run");
        let mut subs: Vec<_> = r.executed.iter().map(|(_, sub)| sub).collect();
        subs.sort_by_key(|sub| sub.start);
        assert_eq!(subs.iter().map(SubChunk::len).collect::<Vec<_>>(), [50, 25, 13, 6, 4, 2]);
    }

    #[test]
    fn every_inexpressible_intra_technique_gets_the_limitation_message() {
        for kind in [Kind::TSS, Kind::FAC, Kind::FAC2, Kind::TFSS, Kind::WF, Kind::RND, Kind::FSC] {
            let panic = std::panic::catch_unwind(|| omp_schedule(&Technique::from_kind(kind)))
                .expect_err("no clause for this technique");
            let msg = panic.downcast_ref::<String>().expect("formatted panic message");
            assert!(msg.contains("Intel OpenMP runtime only supports"), "{kind}: {msg}");
        }
        assert_eq!(omp_schedule(&"FSC:8".parse().unwrap()), OmpSchedule::Dynamic { chunk: 8 });
    }

    #[test]
    fn rma_log_records_master_protocol() {
        let w = Synthetic::uniform(400, 1, 100, 3);
        let mut cfg = RunConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiOpenMp);
        cfg.record_rma = true;
        let r = run_live_mpi_omp(&cfg, &w).expect("live run");
        assert!(!r.rma.is_empty());
        // Only masters call MPI: every non-barrier record comes from a
        // lock/get/put/unlock fetch cycle on the one global window.
        let wins: std::collections::HashSet<u64> = r.rma.iter().map(|rec| rec.win).collect();
        assert_eq!(wins.len(), 1);
    }
}
