//! End-to-end checks of the observability layer: traces and lock
//! counters must carry the signal the paper reads off Figures 2-4 —
//! self-scheduling at the intra-node level under MPI+MPI pays for its
//! per-iteration lock traffic, and the virtual-time traces that show it
//! are deterministic.

use hdls::prelude::*;

fn workload_table() -> CostTable {
    CostTable::build(&Synthetic::uniform(20_000, 1_000, 50_000, 3))
}

fn sim(intra: Kind, table: &CostTable) -> SimResult {
    HierSchedule::builder()
        .inter(Kind::GSS)
        .intra(intra)
        .approach(Approach::MpiMpi)
        .nodes(2)
        .workers_per_node(8)
        .trace(true)
        .build()
        .simulate(table)
}

fn total_lock_polls(r: &SimResult) -> u64 {
    r.stats.nodes.iter().map(|n| n.lock_polls).sum()
}

#[test]
fn intra_ss_pays_more_sched_time_and_lock_polls_than_static() {
    let table = workload_table();
    let ss = sim(Kind::SS, &table);
    let st = sim(Kind::STATIC, &table);
    assert!(
        ss.trace.totals().sched > st.trace.totals().sched,
        "per-iteration self-scheduling must record strictly more Sched \
         time than one STATIC split ({} vs {})",
        ss.trace.totals().sched,
        st.trace.totals().sched
    );
    assert!(
        total_lock_polls(&ss) > total_lock_polls(&st),
        "SS must generate more failed lock polls than STATIC"
    );
}

#[test]
fn intra_ss_records_the_highest_lock_poll_count() {
    let table = workload_table();
    let polls: Vec<(Kind, u64)> = [Kind::STATIC, Kind::SS, Kind::GSS]
        .into_iter()
        .map(|k| (k, total_lock_polls(&sim(k, &table))))
        .collect();
    let ss = polls.iter().find(|(k, _)| *k == Kind::SS).unwrap().1;
    for (k, p) in &polls {
        if *k != Kind::SS {
            assert!(ss > *p, "intra-SS must poll the local lock most (SS {ss} vs {k} {p})");
        }
    }
}

#[test]
fn identical_sim_runs_produce_identical_traces() {
    let table = workload_table();
    let a = sim(Kind::SS, &table);
    let b = sim(Kind::SS, &table);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.trace.segments(), b.trace.segments());
    for (na, nb) in a.stats.nodes.iter().zip(&b.stats.nodes) {
        assert_eq!(na.lock_polls, nb.lock_polls);
        assert_eq!(na.lock_acquisitions, nb.lock_acquisitions);
    }
}

#[test]
fn activity_report_reflects_the_simulated_run() {
    let table = workload_table();
    let r = sim(Kind::SS, &table);
    let report = ActivityReport::build("GSS+SS (MPI+MPI)", &r.trace, &r.stats, 16);
    assert_eq!(report.workers.len(), 16);
    assert_eq!(report.nodes.len(), 2);
    assert_eq!(report.makespan_ns, r.trace.makespan());
    assert!(report.compute_cov >= 0.0);
    // Every worker computed something, and no worker's activity can
    // exceed the run's makespan.
    for w in &report.workers {
        assert!(w.totals.compute > 0, "worker {} never computed", w.worker);
        assert!(w.totals.total() <= report.makespan_ns);
    }
    let buckets: u64 = report.lock_poll_histogram.iter().sum();
    assert_eq!(buckets, 16, "each worker lands in exactly one bucket");
    let json = report.to_json();
    assert!(json.contains("\"label\":\"GSS+SS (MPI+MPI)\""));
    let chrome = chrome_trace(&r.trace, 8, &[], &[]);
    assert_eq!(chrome.matches("\"ph\":\"X\"").count(), r.trace.segments().len());
}

#[test]
fn live_trace_flag_flows_through_the_builder() {
    let w = Synthetic::uniform(600, 1, 100, 3);
    for approach in [Approach::MpiMpi, Approach::MpiOpenMp] {
        let r = HierSchedule::builder()
            .inter(Kind::GSS)
            .intra(Kind::SS)
            .approach(approach)
            .nodes(2)
            .workers_per_node(3)
            .trace(true)
            .build()
            .run_live(&w);
        assert!(
            !r.trace.segments().is_empty(),
            "{approach}: builder trace(true) must reach the live backend"
        );
        assert!(r.trace.totals().compute > 0);
    }
}
