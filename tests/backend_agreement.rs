//! Backend agreement: the real-thread executor and the virtual-time
//! executor implement the *same protocols*, so structural quantities —
//! iterations executed, exactly-once coverage, who is allowed to fetch
//! from the global queue, which techniques OpenMP supports — must
//! agree. (Timing-dependent quantities like chunk interleavings
//! legitimately differ.)

use hdls::prelude::*;
use hier::queue::SubChunk;
use std::borrow::Borrow;

fn schedule(inter: Kind, intra: Kind, approach: Approach) -> HierSchedule {
    HierSchedule::builder()
        .inter(inter)
        .intra(intra)
        .approach(approach)
        .nodes(2)
        .workers_per_node(3)
        .record_chunks(true)
        .build()
}

fn coverage(chunks: impl IntoIterator<Item = impl Borrow<(u32, SubChunk)>>, n: u64) {
    hier::queue::exactly_once(chunks, n).expect("exactly-once coverage");
}

/// The executed ranges in iteration order, whoever ran them.
fn sorted_ranges(
    executed: impl IntoIterator<Item = impl Borrow<(u32, SubChunk)>>,
) -> Vec<(u64, u64)> {
    let mut ranges: Vec<_> = executed
        .into_iter()
        .map(|e| {
            let (_, s) = e.borrow();
            (s.start, s.end)
        })
        .collect();
    ranges.sort_unstable();
    ranges
}

#[test]
fn both_backends_cover_exactly_once() {
    let w = Synthetic::uniform(1_000, 10, 200, 4);
    let table = CostTable::build(&w);
    for approach in Approach::ALL {
        for (inter, intra) in [(Kind::GSS, Kind::STATIC), (Kind::FAC2, Kind::SS)] {
            let s = schedule(inter, intra, approach);
            let sim = s.simulate(&table);
            coverage(&sim.executed, w.n_iters());
            let live = s.run_live(&w);
            coverage(&live.executed, w.n_iters());
            assert_eq!(sim.stats.total_iterations, live.stats.total_iterations);
        }
    }
}

#[test]
fn net_backend_agrees_with_live_rma_for_all_pairs() {
    // The fifth backend replaces the RMA global queue with the TCP
    // service; the schedule it produces must keep every structural
    // invariant of the in-process MPI+MPI executor for *every*
    // {STATIC, SS, GSS, TSS, FAC2}^2 combination: exactly-once
    // coverage, the serial checksum, total iterations, and deposits ==
    // global fetches (one deposit per chunk crossing the wire). Both
    // global queues size the inter level for `p = nodes`, so the number
    // of fetches is the technique's step count on either side.
    const KINDS: [Kind; 5] = [Kind::STATIC, Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC2];
    let w = Synthetic::uniform(400, 1, 100, 4);
    for inter in KINDS {
        for intra in KINDS {
            let s = schedule(inter, intra, Approach::MpiMpi);
            let live = s.run_live(&w);
            let (net, snap) = s.run_live_net(&w);
            let pair = format!("{inter:?}+{intra:?}");
            coverage(&net.executed, w.n_iters());
            assert_eq!(net.checksum, live.checksum, "{pair} checksum");
            assert_eq!(
                net.stats.total_iterations, live.stats.total_iterations,
                "{pair} iterations"
            );
            let fetches: u64 = net.stats.workers.iter().map(|w| w.global_fetches).sum();
            let deposits: u64 = net.stats.nodes.iter().map(|n| n.deposits).sum();
            assert_eq!(fetches, deposits, "{pair} deposit discipline");
            let live_fetches: u64 = live.stats.workers.iter().map(|w| w.global_fetches).sum();
            // `schedule` builds two nodes.
            let steps = dls::sequence::step_count(
                &LoopSpec::new(w.n_iters(), 2),
                &Technique::from_kind(inter),
            );
            assert_eq!(fetches, steps, "{pair} net fetches == inter steps for p = nodes");
            assert_eq!(live_fetches, steps, "{pair} live fetches == inter steps");
            assert_eq!(snap.jobs[0].step, steps, "{pair} server-side step counter");
            // The server's ledger saw the same run: job complete, every
            // lease settled by its owner, chunks granted == deposits.
            let job = &snap.jobs[0];
            assert!(job.done, "{pair} job finished");
            assert_eq!(job.completed, w.n_iters(), "{pair} server-side completion");
            assert_eq!(job.leases_granted, job.leases_completed, "{pair} ledger");
            assert_eq!(job.chunks_granted, deposits, "{pair} grants == deposits");
        }
    }
}

#[test]
fn adaptive_inter_kinds_agree_over_tcp() {
    // The measurement-driven kinds (AF, the AWF variants, and the
    // self-switching AUTO mode) size inter chunks from observed
    // latencies, so their chunk *boundaries* legitimately differ from
    // any fixed technique and from run to run. Every timing-independent
    // quantity must still agree with the RMA executor: the serial
    // checksum, exactly-once coverage, total iterations, the
    // deposit-per-fetch discipline, and a fully settled server ledger.
    let w = Synthetic::uniform(400, 1, 100, 4);
    let live = schedule(Kind::GSS, Kind::SS, Approach::MpiMpi).run_live(&w);
    let adaptive = dls::SchedKind::ADAPTIVE.into_iter().chain([dls::SchedKind::Auto]);
    for kind in adaptive {
        let s = HierSchedule::builder()
            .inter(Kind::GSS)
            .intra(Kind::SS)
            .approach(Approach::MpiMpi)
            .nodes(2)
            .workers_per_node(3)
            .record_chunks(true)
            .net_inter(kind)
            .build();
        let (net, snap) = s.run_live_net(&w);
        let label = kind.name();
        coverage(&net.executed, w.n_iters());
        assert_eq!(net.checksum, live.checksum, "{label} checksum");
        assert_eq!(net.stats.total_iterations, live.stats.total_iterations, "{label} iterations");
        let fetches: u64 = net.stats.workers.iter().map(|w| w.global_fetches).sum();
        let deposits: u64 = net.stats.nodes.iter().map(|n| n.deposits).sum();
        assert_eq!(fetches, deposits, "{label} deposit discipline");
        let job = &snap.jobs[0];
        assert!(job.done, "{label} job finished");
        assert_eq!(job.completed, w.n_iters(), "{label} server-side completion");
        assert_eq!(job.leases_granted, job.leases_completed, "{label} ledger");
        assert_eq!(job.chunks_granted, deposits, "{label} grants == deposits");
        // The snapshot reports the mode the job was created with; only
        // AUTO may accrete switch decisions.
        assert_eq!(job.mode, Some(kind), "{label} mode");
        if kind != dls::SchedKind::Auto {
            assert!(job.decisions.is_empty(), "{label} must not switch");
            assert_eq!(job.kind, Some(kind), "{label} active kind");
        }
    }
}

#[test]
fn static_static_produces_identical_partitions() {
    // Fully static scheduling is timing-independent: both backends must
    // produce the *same* sub-chunk boundaries.
    let w = Synthetic::constant(960, 100);
    let table = CostTable::build(&w);
    let s = schedule(Kind::STATIC, Kind::STATIC, Approach::MpiMpi);
    let sim = s.simulate(&table);
    let live = s.run_live(&w);
    assert_eq!(sorted_ranges(&sim.executed), sorted_ranges(&live.executed));
}

#[test]
fn mpi_openmp_ranges_are_the_dls_sequence_on_both_backends() {
    // One node, so STATIC inter deposits the whole loop as one
    // worksharing region over the team. Which thread wins a claim is a
    // race, but a cursor-driven claim's *range* depends on the cursor
    // only: the sorted ranges of a live run, of a sim run and of the
    // `dls` sequence for the intra technique must be equal — Table 1,
    // parameters included, read the same way by all three.
    let check = |n: u64, threads: u32, intra: &str| {
        let w = Synthetic::constant(n, 100);
        let intra_t: Technique = intra.parse().unwrap();
        let s = HierSchedule::builder()
            .inter(Kind::STATIC)
            .intra_technique(intra_t)
            .approach(Approach::MpiOpenMp)
            .nodes(1)
            .workers_per_node(threads)
            .record_chunks(true)
            .build();
        let expected: Vec<(u64, u64)> =
            dls::sequence::schedule_all(&LoopSpec::new(n, threads), &intra_t)
                .iter()
                .map(|c| (c.start, c.end()))
                .collect();
        assert_eq!(sorted_ranges(&s.run_live(&w).executed), expected, "live, intra {intra}");
        let sim = s.simulate(&CostTable::build(&w));
        assert_eq!(sorted_ranges(&sim.executed), expected, "sim, intra {intra}");
        expected.iter().map(|(lo, hi)| hi - lo).collect::<Vec<_>>()
    };
    for intra in ["STATIC", "SS", "GSS", "GSS:4", "FSC:8"] {
        check(1_000, 4, intra);
    }
    // The shape that used to disagree: live ran guided,1 and ended
    // [.., 6, 3, 2, 1] where the sim ran guided,4.
    assert_eq!(check(100, 2, "GSS:4"), [50, 25, 13, 6, 4, 2]);
}

#[test]
fn global_fetch_discipline_matches() {
    // Under MPI+OpenMP only node masters fetch; under MPI+MPI any rank
    // may. Both backends must agree on that discipline.
    let w = Synthetic::uniform(2_000, 10, 100, 8);
    let table = CostTable::build(&w);
    let check = |stats: &hier::RunStats, approach: Approach| {
        for (i, ws) in stats.workers.iter().enumerate() {
            if approach == Approach::MpiOpenMp && i % 3 != 0 {
                assert_eq!(ws.global_fetches, 0, "{approach} worker {i}");
            }
        }
        let total: u64 = stats.workers.iter().map(|w| w.global_fetches).sum();
        assert!(total > 0);
    };
    for approach in Approach::ALL {
        let s = schedule(Kind::GSS, Kind::GSS, approach);
        check(&s.simulate(&table).stats, approach);
        check(&s.run_live(&w).stats, approach);
    }
}

#[test]
fn deposits_equal_global_fetches_everywhere() {
    let w = Synthetic::uniform(3_000, 5, 80, 2);
    let table = CostTable::build(&w);
    for approach in Approach::ALL {
        let s = schedule(Kind::TSS, Kind::GSS, approach);
        for stats in [s.simulate(&table).stats, s.run_live(&w).stats] {
            let fetches: u64 = stats.workers.iter().map(|w| w.global_fetches).sum();
            let deposits: u64 = stats.nodes.iter().map(|n| n.deposits).sum();
            assert_eq!(fetches, deposits, "{approach}");
        }
    }
}
