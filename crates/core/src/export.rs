//! Observability exports, both JSON written by [`dls_service::json`]:
//!
//! * [`ActivityReport`] — what the paper's Figures 2/3 break down per
//!   worker: [`ActivityTotals`] from a [`cluster_sim::Trace`] (virtual
//!   or wall-clock time), the lock/RMA counters of
//!   [`hier::stats::RunStats`] behind the `X+SS` pathology, compute-time
//!   imbalance and c.o.v., a log2 histogram of failed lock polls, and
//!   a service campaign's tuner-decision timeline.
//!   [`service_report`] fills one from a `dls-service` snapshot.
//! * [`chrome_trace`] — the same timeline as a chrome://tracing /
//!   Perfetto event array: one track per worker, grouped by node, with
//!   recovery events and tuner decisions overlaid as instants.

use cluster_sim::trace::{ActivityTotals, SegmentKind, Trace};
use dls_service::protocol::decision_fields;
use dls_service::{json, json_fields};
use dls_service::{JournalTotals, StatsSnapshot};
use hier::stats::RunStats;
use resilience::RecoveryEvent;

/// One worker's row of an [`ActivityReport`].
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerActivity {
    /// Global worker id.
    pub worker: u32,
    /// Time per activity kind from the trace.
    pub totals: ActivityTotals,
    /// Iterations executed.
    pub iterations: u64,
    /// Sub-chunks obtained from the node-local queue.
    pub sub_chunks: u64,
    /// Global chunks fetched.
    pub global_fetches: u64,
    /// Failed lock-poll attempts at RMA window locks.
    pub lock_polls: u64,
    /// Nanoseconds spent acquiring or holding RMA window locks.
    pub lock_time_ns: u64,
    /// RMA atomic operations issued.
    pub rma_ops: u64,
    /// Recovery actions performed on behalf of dead peers (lease
    /// reclaims and lock repairs).
    pub reclaims: u64,
}

/// One node's lock-activity row of an [`ActivityReport`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeActivity {
    /// Node id.
    pub node: u32,
    /// Chunks deposited into the node-local queue.
    pub deposits: u64,
    /// Sub-chunks handed out by the node-local queue.
    pub sub_chunks: u64,
    /// Local-queue lock acquisitions.
    pub lock_acquisitions: u64,
    /// Acquisitions that found the lock contended.
    pub lock_contended: u64,
    /// Failed lock-poll attempts at the local-queue lock.
    pub lock_polls: u64,
    /// Window-lock grants revoked from dead holders.
    pub lock_revocations: u64,
}

/// Everything the paper's Figures 2/3 break down per worker, in one
/// exportable structure.
#[derive(Clone, Debug, Default)]
pub struct ActivityReport {
    /// Configuration label, e.g. `"GSS+SS (MPI+MPI)"`.
    pub label: String,
    /// Parallel loop time (latest segment end), in nanoseconds.
    pub makespan_ns: u64,
    /// Compute-time load imbalance: `max/mean - 1` (0.0 = balanced).
    pub compute_imbalance: f64,
    /// Coefficient of variation of per-worker compute time
    /// (population standard deviation / mean; 0.0 when mean is 0).
    pub compute_cov: f64,
    /// Per-worker rows, indexed by global worker id.
    pub workers: Vec<WorkerActivity>,
    /// Per-node lock-activity rows.
    pub nodes: Vec<NodeActivity>,
    /// Log2 histogram of per-worker `lock_polls`: bucket 0 counts
    /// workers with zero failed polls, bucket `i >= 1` counts workers
    /// with `2^(i-1) <= polls < 2^i`.
    pub lock_poll_histogram: Vec<u64>,
    /// Journal counters when the run was a `dls-service` campaign
    /// ([`service_report`] copies the snapshot's); `None` for backends
    /// without a durability layer.
    pub journal: Option<JournalTotals>,
    /// Tuner decision timeline of an AUTO-mode campaign, dense by
    /// `seq` ([`service_report`] collects it across the snapshot's
    /// jobs in job order). Empty for fixed-technique runs and for
    /// backends without the service tuner.
    pub decisions: Vec<dls::Decision>,
}

/// Log2 histogram over `values` (see [`ActivityReport::lock_poll_histogram`]).
pub fn log2_histogram(values: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut buckets = Vec::new();
    for v in values {
        // 0 for zero, `i` for `2^(i-1) <= v < 2^i`.
        let b = (u64::BITS - v.leading_zeros()) as usize;
        if buckets.len() <= b {
            buckets.resize(b + 1, 0);
        }
        buckets[b] += 1;
    }
    buckets
}

/// Load imbalance of per-worker `values`: `(max/mean - 1, population
/// standard deviation / mean)`, both 0.0 when the mean is 0.
fn imbalance_and_cov(values: impl Iterator<Item = u64>) -> (f64, f64) {
    let values: Vec<f64> = values.map(|v| v as f64).collect();
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    if mean <= 0.0 {
        return (0.0, 0.0);
    }
    let max = values.iter().copied().fold(0.0, f64::max);
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    (max / mean - 1.0, var.sqrt() / mean)
}

impl ActivityReport {
    /// Build a report from a run's trace and counters. `workers` is the
    /// total worker count (trace worker ids must be `0..workers`).
    pub fn build(label: &str, trace: &Trace, stats: &RunStats, workers: u32) -> ActivityReport {
        let worker_rows: Vec<WorkerActivity> = (0..workers)
            .map(|w| {
                let counters = stats.workers.get(w as usize).copied().unwrap_or_default();
                WorkerActivity {
                    worker: w,
                    totals: trace.worker_totals(w),
                    iterations: counters.iterations,
                    sub_chunks: counters.sub_chunks,
                    global_fetches: counters.global_fetches,
                    lock_polls: counters.lock_polls,
                    lock_time_ns: counters.lock_time_ns,
                    rma_ops: counters.rma_ops,
                    reclaims: counters.reclaims,
                }
            })
            .collect();
        let node_rows: Vec<NodeActivity> = stats
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeActivity {
                node: u32::try_from(i).unwrap_or(u32::MAX),
                deposits: n.deposits,
                sub_chunks: n.sub_chunks,
                lock_acquisitions: n.lock_acquisitions,
                lock_contended: n.lock_contended,
                lock_polls: n.lock_polls,
                lock_revocations: n.lock_revocations,
            })
            .collect();
        let (compute_imbalance, compute_cov) =
            imbalance_and_cov(worker_rows.iter().map(|w| w.totals.compute));
        ActivityReport {
            label: label.to_string(),
            makespan_ns: trace.makespan(),
            compute_imbalance,
            compute_cov,
            lock_poll_histogram: log2_histogram(worker_rows.iter().map(|w| w.lock_polls)),
            workers: worker_rows,
            nodes: node_rows,
            ..ActivityReport::default()
        }
    }

    /// Serialise as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("label", self.label.as_str());
            json_fields!(o, self; makespan_ns, compute_imbalance, compute_cov);
            o.rows("workers", &self.workers, |o, w| {
                let t = &w.totals;
                o.field("worker", w.worker).field("compute_ns", t.compute);
                o.field("sched_ns", t.sched).field("sync_ns", t.sync).field("idle_ns", t.idle);
                json_fields!(o, w; iterations, sub_chunks, global_fetches, lock_polls,
                    lock_time_ns, rma_ops, reclaims);
            });
            o.rows("nodes", &self.nodes, |o, n| {
                json_fields!(o, n; node, deposits, sub_chunks, lock_acquisitions, lock_contended,
                    lock_polls, lock_revocations);
            });
            o.array("lock_poll_histogram", |a| {
                self.lock_poll_histogram.iter().for_each(|&b| a.value(b));
            });
            o.rows("decisions", &self.decisions, decision_fields);
            if let Some(j) = &self.journal {
                o.object("journal", |o| j.json_fields(o));
            }
        })
    }
}

/// Re-shape a `dls-service` [`StatsSnapshot`] into the same
/// [`ActivityReport`] every other backend exports, so the networked
/// scheduler's metrics flow through one JSON pipeline.
///
/// The mapping follows the service's topology: each *connection* is a
/// worker row (iterations it acknowledged, chunks it was granted, its
/// fetch round trips), each *job* is a node row (its granted chunks as
/// deposits, its scheduling steps as sub-chunk hand-outs, its fetches
/// as acquisitions, empty polls as contended ones, reclaimed leases as
/// revocations). `makespan_ns` is the server's uptime, and the
/// imbalance metrics are computed over per-connection acknowledged
/// iterations — the service cannot see client compute time, but the
/// iteration spread is the same Figure-2 story one level up. Trace-
/// derived fields ([`ActivityTotals`], the poll histogram) stay empty.
pub fn service_report(label: &str, snap: &StatsSnapshot) -> ActivityReport {
    let workers: Vec<WorkerActivity> = snap
        .conns
        .iter()
        .map(|c| WorkerActivity {
            worker: if c.worker == u32::MAX {
                u32::try_from(c.conn).unwrap_or(u32::MAX)
            } else {
                c.worker
            },
            iterations: c.iterations,
            sub_chunks: c.chunks,
            global_fetches: c.fetches,
            rma_ops: c.requests,
            ..WorkerActivity::default()
        })
        .collect();
    let nodes: Vec<NodeActivity> = snap
        .jobs
        .iter()
        .map(|j| NodeActivity {
            node: u32::try_from(j.job).unwrap_or(u32::MAX),
            deposits: j.chunks_granted,
            sub_chunks: j.step,
            lock_acquisitions: j.fetches,
            lock_contended: j.empty_polls,
            lock_polls: j.empty_polls,
            lock_revocations: j.leases_reclaimed,
        })
        .collect();
    let (compute_imbalance, compute_cov) = imbalance_and_cov(workers.iter().map(|w| w.iterations));
    ActivityReport {
        label: label.to_string(),
        makespan_ns: snap.uptime_ns,
        compute_imbalance,
        compute_cov,
        workers,
        nodes,
        journal: Some(snap.journal),
        decisions: snap.jobs.iter().flat_map(|j| j.decisions.iter().copied()).collect(),
        ..ActivityReport::default()
    }
}

/// A chrome://tracing (Perfetto) JSON event array, in one pass:
///
/// * a complete event (`"ph":"X"`) per segment, times in µs, `pid` =
///   node (from `workers_per_node`), `tid` = global worker id;
/// * a thread instant (`"ph":"i"`, `"s":"t"`) per `recovery` event, on
///   the victim's track for crashes and lease expiries and on the acting
///   survivor's for reclaims, failovers and lock repairs;
/// * a process instant (`"s":"p"`) per tuner decision on its own track
///   (`pid = u32::MAX`) whose time axis is the **iteration domain**:
///   decisions carry counters, not clocks, so each sits at
///   `ts = scheduled` ("switched from X to Y after Z iterations").
pub fn chrome_trace(
    trace: &Trace,
    workers_per_node: u32,
    recovery: &[RecoveryEvent],
    decisions: &[dls::Decision],
) -> String {
    let wpn = workers_per_node.max(1);
    json::array(|a| {
        for s in trace.segments() {
            let name = match s.kind {
                SegmentKind::Compute => "compute",
                SegmentKind::Sched => "sched",
                SegmentKind::Sync => "sync",
                SegmentKind::Idle => "idle",
            };
            a.object(|o| {
                o.field("name", name).field("cat", name).field("ph", "X");
                o.field("ts", s.start as f64 / 1e3).field("dur", s.duration() as f64 / 1e3);
                o.field("pid", s.worker / wpn).field("tid", s.worker);
            });
        }
        for e in recovery {
            a.object(|o| {
                o.field("name", e.label()).field("cat", "recovery");
                o.field("ph", "i").field("s", "t").field("ts", e.at_ns() as f64 / 1e3);
                o.field("pid", e.rank() / wpn).field("tid", e.rank()).object("args", |o| {
                    o.field("detail", e.to_string().as_str());
                });
            });
        }
        for d in decisions {
            a.object(|o| {
                o.field("name", format!("switch {}->{}", d.from.name(), d.to.name()).as_str());
                o.field("cat", "tuner").field("ph", "i").field("s", "p").field("ts", d.scheduled);
                o.field("pid", u32::MAX).field("tid", 0u32).object("args", |o| {
                    json_fields!(o, d; seq, step, scheduled);
                    o.field("reason", d.reason.name());
                });
            });
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::trace::SegmentKind;

    fn sample() -> (Trace, RunStats) {
        let mut tr = Trace::recording();
        tr.record(0, 0, 100, SegmentKind::Compute);
        tr.record(0, 100, 120, SegmentKind::Sched);
        tr.record(1, 0, 60, SegmentKind::Compute);
        tr.record(1, 60, 120, SegmentKind::Idle);
        let mut stats = RunStats::new(2, 1);
        stats.workers[0].lock_polls = 5;
        stats.workers[1].lock_polls = 0;
        stats.workers[0].iterations = 10;
        stats.nodes[0].lock_acquisitions = 7;
        (tr, stats)
    }

    #[test]
    fn report_aggregates_trace_and_counters() {
        let (tr, stats) = sample();
        let r = ActivityReport::build("GSS+SS (MPI+MPI)", &tr, &stats, 2);
        assert_eq!(r.makespan_ns, 120);
        assert_eq!(r.workers.len(), 2);
        assert_eq!(r.workers[0].totals.compute, 100);
        assert_eq!(r.workers[0].lock_polls, 5);
        assert_eq!(r.nodes[0].lock_acquisitions, 7);
        // mean 80, max 100 -> imbalance 0.25; stddev 20 -> cov 0.25.
        assert!((r.compute_imbalance - 0.25).abs() < 1e-12);
        assert!((r.compute_cov - 0.25).abs() < 1e-12);
        // Polls 5 -> bucket 3 ([4, 8)); polls 0 -> bucket 0.
        assert_eq!(r.lock_poll_histogram, vec![1, 0, 0, 1]);
    }

    #[test]
    fn json_is_well_formed() {
        let (tr, stats) = sample();
        let json = ActivityReport::build("a \"quoted\" label", &tr, &stats, 2).to_json();
        assert!(json.contains("\"label\":\"a \\\"quoted\\\" label\""));
        assert!(json.contains("\"lock_polls\":5"));
        assert!(json.contains("\"lock_poll_histogram\":[1,0,0,1]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_emits_one_event_per_segment() {
        let (tr, _) = sample();
        let out = chrome_trace(&tr, 1, &[], &[]);
        assert!(out.trim_start().starts_with('['));
        assert!(out.trim_end().ends_with(']'));
        assert_eq!(out.matches("\"ph\":\"X\"").count(), tr.segments().len());
        // Worker 1 on 1 worker/node is pid 1.
        assert!(out.contains("\"pid\":1,\"tid\":1"));
        // 100 ns -> 0.1 us.
        assert!(out.contains("\"ts\":0.1"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn log2_histogram_buckets() {
        assert_eq!(log2_histogram([0, 1, 2, 3, 4, 7, 8]), vec![1, 1, 2, 2, 1]);
        assert!(log2_histogram([]).is_empty());
    }

    #[test]
    fn recovery_rows_serialise() {
        // A run's recovery shows in its counters: reclaims per worker,
        // revocations per node (the events go to `chrome_trace`).
        let (tr, mut stats) = sample();
        stats.workers[0].reclaims = 1;
        stats.nodes[0].lock_revocations = 1;
        let r = ActivityReport::build("chaos", &tr, &stats, 2);
        assert_eq!(r.workers[0].reclaims, 1);
        assert_eq!(r.nodes[0].lock_revocations, 1);
        let json = r.to_json();
        assert!(json.contains("\"reclaims\":1"));
        assert!(json.contains("\"lock_revocations\":1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_overlays_recovery_instants() {
        let (tr, _) = sample();
        let events = [
            RecoveryEvent::Crash { rank: 1, at_ns: 50, holding_lock: false },
            RecoveryEvent::Reclaim { by: 0, owner: 1, lo: 4, hi: 8, at_ns: 110 },
        ];
        let out = chrome_trace(&tr, 1, &events, &[]);
        assert_eq!(out.matches("\"ph\":\"X\"").count(), tr.segments().len());
        assert_eq!(out.matches("\"ph\":\"i\"").count(), 2);
        assert!(out.contains("\"name\":\"reclaim\""));
        // The reclaim marker sits on the reclaimer's track.
        assert!(out.contains("\"ph\":\"i\",\"s\":\"t\",\"ts\":0.11,\"pid\":0,\"tid\":0"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        assert_eq!(out.matches('[').count(), out.matches(']').count());
        // The overlay only appends: the segment events come first, unchanged.
        assert!(out.starts_with(chrome_trace(&tr, 1, &[], &[]).trim_end_matches(']')));
    }

    #[test]
    fn service_report_reshapes_snapshot() {
        let mut snap = StatsSnapshot { uptime_ns: 5_000, ..Default::default() };
        snap.journal = dls_service::JournalTotals {
            enabled: true,
            epoch: 2,
            journal_records: 40,
            journal_bytes: 1_024,
            fsyncs: 5,
            snapshots: 1,
            segments: 2,
        };
        snap.conns.push(dls_service::ConnSnapshot {
            conn: 0,
            worker: 2,
            fetches: 4,
            chunks: 6,
            iterations: 300,
            requests: 11,
            ..Default::default()
        });
        snap.conns.push(dls_service::ConnSnapshot {
            conn: 1,
            worker: u32::MAX, // never identified itself -> falls back to conn id
            iterations: 100,
            ..Default::default()
        });
        snap.jobs.push(dls_service::JobSnapshot {
            job: 7,
            chunks_granted: 6,
            step: 6,
            fetches: 4,
            empty_polls: 2,
            leases_reclaimed: 1,
            ..Default::default()
        });
        let r = service_report("net GSS", &snap);
        assert_eq!(r.makespan_ns, 5_000);
        assert_eq!(r.workers.len(), 2);
        assert_eq!(r.workers[0].worker, 2);
        assert_eq!(r.workers[1].worker, 1);
        assert_eq!(r.workers[0].sub_chunks, 6);
        assert_eq!(r.nodes[0].node, 7);
        assert_eq!(r.nodes[0].lock_revocations, 1);
        // iterations 300/100: mean 200, max 300 -> imbalance 0.5, cov 0.5.
        assert!((r.compute_imbalance - 0.5).abs() < 1e-12);
        assert!((r.compute_cov - 0.5).abs() < 1e-12);
        // Journal counters ride through unchanged.
        let j = r.journal.expect("service reports carry journal stats");
        assert!(j.enabled);
        assert_eq!(j.epoch, 2);
        assert_eq!(j.journal_records, 40);
        assert_eq!(j.fsyncs, 5);
        let json = r.to_json();
        assert!(json.contains("\"label\":\"net GSS\""));
        assert!(json.contains(
            "\"journal\":{\"enabled\":true,\"epoch\":2,\"journal_records\":40,\
             \"journal_bytes\":1024,\"fsyncs\":5,\"snapshots\":1,\"segments\":2}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    fn decisions() -> Vec<dls::Decision> {
        use dls::{Kind, SchedKind, SwitchReason};
        vec![
            dls::Decision {
                seq: 0,
                step: 8,
                scheduled: 8,
                from: SchedKind::Fixed(Kind::SS),
                to: SchedKind::Fixed(Kind::GSS),
                reason: SwitchReason::Overhead,
            },
            dls::Decision {
                seq: 1,
                step: 24,
                scheduled: 350,
                from: SchedKind::Fixed(Kind::GSS),
                to: SchedKind::Af,
                reason: SwitchReason::Imbalance,
            },
        ]
    }

    #[test]
    fn decision_rows_serialise() {
        let (tr, stats) = sample();
        let mut r = ActivityReport::build("AUTO", &tr, &stats, 2);
        r.decisions = decisions();
        let json = r.to_json();
        assert!(json.contains(
            "{\"seq\":0,\"step\":8,\"scheduled\":8,\"from\":\"SS\",\
             \"to\":\"GSS\",\"reason\":\"overhead\"}"
        ));
        assert!(json.contains("\"to\":\"AF\",\"reason\":\"imbalance\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn service_report_collects_decision_timeline() {
        let mut snap = StatsSnapshot::default();
        snap.jobs.push(dls_service::JobSnapshot {
            job: 0,
            mode: Some(dls::SchedKind::Auto),
            kind: Some(dls::SchedKind::Af),
            decisions: decisions(),
            ..Default::default()
        });
        let r = service_report("net AUTO", &snap);
        assert_eq!(r.decisions, decisions());
        let json = r.to_json();
        assert!(json.contains("\"decisions\":[{\"seq\":0"));
    }

    #[test]
    fn chrome_trace_overlays_decision_instants() {
        let (tr, _) = sample();
        let out = chrome_trace(&tr, 1, &[], &decisions());
        assert_eq!(out.matches("\"ph\":\"X\"").count(), tr.segments().len());
        assert_eq!(out.matches("\"ph\":\"i\"").count(), 2);
        assert!(out.contains("\"name\":\"switch SS->GSS\""));
        assert!(out.contains("\"cat\":\"tuner\""));
        // The tuner track is its own process group, iteration-domain ts.
        assert!(out.contains(&format!("\"ts\":350,\"pid\":{},\"tid\":0", u32::MAX)));
        assert!(out.contains("\"reason\":\"imbalance\""));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        assert_eq!(out.matches('[').count(), out.matches(']').count());
        // The overlay only appends: the segment events come first, unchanged.
        assert!(out.starts_with(chrome_trace(&tr, 1, &[], &[]).trim_end_matches(']')));
    }

    #[test]
    fn chrome_trace_overlays_recovery_and_decisions_in_one_array() {
        let (tr, _) = sample();
        let events = [RecoveryEvent::Crash { rank: 1, at_ns: 50, holding_lock: false }];
        let out = chrome_trace(&tr, 1, &events, &decisions());
        assert!(out.starts_with('[') && out.ends_with(']'));
        assert_eq!(out.matches("\"ph\":\"X\"").count(), tr.segments().len());
        assert_eq!(out.matches("\"s\":\"t\"").count(), 1);
        assert_eq!(out.matches("\"s\":\"p\"").count(), 2);
        // Segments, then the recovery instant, then the decisions.
        let at = |needle: &str| out.find(needle).expect(needle);
        assert!(at("\"ph\":\"X\"") < at("\"cat\":\"recovery\""));
        assert!(at("\"cat\":\"recovery\"") < at("\"cat\":\"tuner\""));
        assert!(out.contains("},{\"name\":\"crash\""), "{out}");
        assert!(out.contains("}},{\"name\":\"switch SS->GSS\""), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        assert_eq!(out.matches('[').count(), out.matches(']').count());
    }
}
