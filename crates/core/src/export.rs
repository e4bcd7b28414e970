//! Observability exports: per-worker activity reports as JSON and
//! chrome://tracing event files.
//!
//! Both backends can record a [`cluster_sim::Trace`] (virtual time in
//! the simulator, wall-clock time in the live executors) and per-worker
//! lock/RMA counters in [`hier::stats::RunStats`]. This module turns
//! those into two machine-readable artefacts:
//!
//! * [`ActivityReport`] — per-worker [`ActivityTotals`] plus the lock
//!   counters behind the paper's `X+SS` pathology, the compute-time
//!   load-imbalance metrics (max/mean − 1 and the coefficient of
//!   variation), and a log2 histogram of per-worker failed lock polls,
//!   serialised with [`ActivityReport::to_json`].
//! * [`chrome_trace`] — the same timeline as a chrome://tracing /
//!   Perfetto-compatible JSON event array (`ph: "X"` complete events,
//!   one track per worker, grouped by node).
//!
//! Faulted runs additionally carry a recovery timeline
//! ([`resilience::RecoveryEvent`]): attach it to a report with
//! [`ActivityReport::with_recovery`] and overlay it on a timeline with
//! [`chrome_trace_with_recovery`] (`ph: "i"` instant markers).
//!
//! AUTO-mode `dls-service` campaigns additionally carry the tuner's
//! decision timeline ([`dls::Decision`]): [`service_report`] collects
//! it from the snapshot, [`ActivityReport::with_decisions`] attaches
//! one explicitly, and [`chrome_trace_with_decisions`] overlays the
//! switches on a dedicated track.

use cluster_sim::trace::{ActivityTotals, SegmentKind, Trace};
use dls_service::StatsSnapshot;
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

/// Durability counters of a journaled `dls-service` run, re-exported
/// through the same report pipeline (zeroed/absent for in-memory runs
/// and for the simulator backends, which have no journal).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceJournal {
    /// True when the server ran with `--journal-dir`.
    pub enabled: bool,
    /// Server epoch (increments on every journaled restart).
    pub epoch: u32,
    /// Records group-committed this incarnation.
    pub records: u64,
    /// Journal bytes written this incarnation.
    pub bytes: u64,
    /// Fsyncs issued this incarnation — `records / fsyncs` is the
    /// group-commit amortisation the BENCH_9 gate measures.
    pub fsyncs: u64,
    /// Snapshots installed this incarnation.
    pub snapshots: u64,
    /// Live segment files at snapshot time.
    pub segments: u64,
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
    /// Recovery timeline of the run (crashes, lease expiries,
    /// reclaims, failovers, lock repairs), time-ordered. Empty for
    /// fault-free runs. Attach with [`ActivityReport::with_recovery`].
    pub recovery: Vec<RecoveryEvent>,
    /// Journal counters when the run was a journaled `dls-service`
    /// campaign ([`service_report`] fills this from the snapshot);
    /// `None` for backends without a durability layer.
    pub journal: Option<ServiceJournal>,
    /// Tuner decision timeline of an AUTO-mode campaign, dense by
    /// `seq` ([`service_report`] collects it across the snapshot's
    /// jobs in job order; attach one explicitly with
    /// [`ActivityReport::with_decisions`]). Empty for fixed-technique
    /// runs and for backends without the service tuner.
    pub decisions: Vec<dls::Decision>,
}

/// Place `value` in its log2 bucket (0 for zero, `i` for
/// `2^(i-1) <= value < 2^i`).
fn log2_bucket(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Log2 histogram over `values` (see [`ActivityReport::lock_poll_histogram`]).
pub fn log2_histogram(values: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut buckets = Vec::new();
    for v in values {
        let b = log2_bucket(v);
        if buckets.len() <= b {
            buckets.resize(b + 1, 0);
        }
        buckets[b] += 1;
    }
    buckets
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
        let compute: Vec<f64> = worker_rows.iter().map(|w| w.totals.compute as f64).collect();
        let mean = if compute.is_empty() {
            0.0
        } else {
            compute.iter().sum::<f64>() / compute.len() as f64
        };
        let compute_cov = if mean > 0.0 {
            let var =
                compute.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / compute.len() as f64;
            var.sqrt() / mean
        } else {
            0.0
        };
        ActivityReport {
            label: label.to_string(),
            makespan_ns: trace.makespan(),
            compute_imbalance: trace.compute_imbalance(workers),
            compute_cov,
            lock_poll_histogram: log2_histogram(worker_rows.iter().map(|w| w.lock_polls)),
            workers: worker_rows,
            nodes: node_rows,
            recovery: Vec::new(),
            journal: None,
            decisions: Vec::new(),
        }
    }

    /// Attach a run's recovery timeline (e.g. `SimResult::recovery` or
    /// `LiveResult::recovery`) so the report and its JSON carry the
    /// fault story alongside the activity totals.
    pub fn with_recovery(mut self, events: &[RecoveryEvent]) -> Self {
        self.recovery = events.to_vec();
        self
    }

    /// Attach a tuner decision timeline (e.g. `JobProgress::decisions`
    /// or a STATS job row's history) so the report and its JSON carry
    /// the technique-switch story of an AUTO campaign.
    pub fn with_decisions(mut self, decisions: &[dls::Decision]) -> Self {
        self.decisions = decisions.to_vec();
        self
    }

    /// Serialise as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"label\": \"{}\",\n", escape(&self.label)));
        out.push_str(&format!("  \"makespan_ns\": {},\n", self.makespan_ns));
        out.push_str(&format!("  \"compute_imbalance\": {},\n", fmt_f64(self.compute_imbalance)));
        out.push_str(&format!("  \"compute_cov\": {},\n", fmt_f64(self.compute_cov)));
        out.push_str("  \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"worker\": {}, \"compute_ns\": {}, \"sched_ns\": {}, \
                 \"sync_ns\": {}, \"idle_ns\": {}, \"iterations\": {}, \
                 \"sub_chunks\": {}, \"global_fetches\": {}, \"lock_polls\": {}, \
                 \"lock_time_ns\": {}, \"rma_ops\": {}, \"reclaims\": {}}}{}\n",
                w.worker,
                w.totals.compute,
                w.totals.sched,
                w.totals.sync,
                w.totals.idle,
                w.iterations,
                w.sub_chunks,
                w.global_fetches,
                w.lock_polls,
                w.lock_time_ns,
                w.rma_ops,
                w.reclaims,
                comma(i, self.workers.len())
            ));
        }
        out.push_str("  ],\n  \"nodes\": [\n");
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"node\": {}, \"deposits\": {}, \"sub_chunks\": {}, \
                 \"lock_acquisitions\": {}, \"lock_contended\": {}, \
                 \"lock_polls\": {}, \"lock_revocations\": {}}}{}\n",
                n.node,
                n.deposits,
                n.sub_chunks,
                n.lock_acquisitions,
                n.lock_contended,
                n.lock_polls,
                n.lock_revocations,
                comma(i, self.nodes.len())
            ));
        }
        out.push_str("  ],\n  \"lock_poll_histogram\": [");
        for (i, b) in self.lock_poll_histogram.iter().enumerate() {
            out.push_str(&format!("{}{}", b, comma(i, self.lock_poll_histogram.len())));
        }
        out.push_str("],\n  \"recovery\": [\n");
        for (i, e) in self.recovery.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"at_ns\": {}, \"rank\": {}, \"kind\": \"{}\", \"detail\": \"{}\"}}{}\n",
                e.at_ns(),
                e.rank(),
                e.label(),
                escape(&e.to_string()),
                comma(i, self.recovery.len())
            ));
        }
        out.push_str("  ],\n  \"decisions\": [\n");
        for (i, d) in self.decisions.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"seq\": {}, \"step\": {}, \"scheduled\": {}, \"from\": \"{}\", \
                 \"to\": \"{}\", \"reason\": \"{}\"}}{}\n",
                d.seq,
                d.step,
                d.scheduled,
                d.from.name(),
                d.to.name(),
                d.reason.name(),
                comma(i, self.decisions.len())
            ));
        }
        match &self.journal {
            None => out.push_str("  ]\n}\n"),
            Some(j) => {
                out.push_str("  ],\n");
                out.push_str(&format!(
                    "  \"journal\": {{\"enabled\": {}, \"epoch\": {}, \"records\": {}, \
                     \"bytes\": {}, \"fsyncs\": {}, \"snapshots\": {}, \"segments\": {}}}\n}}\n",
                    j.enabled, j.epoch, j.records, j.bytes, j.fsyncs, j.snapshots, j.segments
                ));
            }
        }
        out
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
            totals: ActivityTotals::default(),
            iterations: c.iterations,
            sub_chunks: c.chunks,
            global_fetches: c.fetches,
            lock_polls: 0,
            lock_time_ns: 0,
            rma_ops: c.requests,
            reclaims: 0,
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
    let iters: Vec<f64> = workers.iter().map(|w| w.iterations as f64).collect();
    let mean = if iters.is_empty() { 0.0 } else { iters.iter().sum::<f64>() / iters.len() as f64 };
    let (imbalance, cov) = if mean > 0.0 {
        let max = iters.iter().cloned().fold(0.0f64, f64::max);
        let var = iters.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / iters.len() as f64;
        (max / mean - 1.0, var.sqrt() / mean)
    } else {
        (0.0, 0.0)
    };
    ActivityReport {
        label: label.to_string(),
        makespan_ns: snap.uptime_ns,
        compute_imbalance: imbalance,
        compute_cov: cov,
        workers,
        nodes,
        lock_poll_histogram: Vec::new(),
        recovery: Vec::new(),
        journal: Some(ServiceJournal {
            enabled: snap.journal.enabled,
            epoch: snap.journal.epoch,
            records: snap.journal.journal_records,
            bytes: snap.journal.journal_bytes,
            fsyncs: snap.journal.fsyncs,
            snapshots: snap.journal.snapshots,
            segments: snap.journal.segments,
        }),
        decisions: snap.jobs.iter().flat_map(|j| j.decisions.iter().copied()).collect(),
    }
}

/// Serialise a trace as a chrome://tracing (about://tracing, Perfetto)
/// JSON array of complete (`"ph": "X"`) events: one event per segment,
/// timestamps and durations in microseconds, `pid` = node (from
/// `workers_per_node`), `tid` = global worker id.
pub fn chrome_trace(trace: &Trace, workers_per_node: u32) -> String {
    let wpn = workers_per_node.max(1);
    let mut out = String::from("[\n");
    let segments = trace.segments();
    for (i, s) in segments.iter().enumerate() {
        let name = match s.kind {
            SegmentKind::Compute => "compute",
            SegmentKind::Sched => "sched",
            SegmentKind::Sync => "sync",
            SegmentKind::Idle => "idle",
        };
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \
             \"dur\": {}, \"pid\": {}, \"tid\": {}}}{}\n",
            name,
            name,
            fmt_f64(s.start as f64 / 1e3),
            fmt_f64(s.duration() as f64 / 1e3),
            s.worker / wpn,
            s.worker,
            comma(i, segments.len())
        ));
    }
    out.push_str("]\n");
    out
}

/// Like [`chrome_trace`], with a run's recovery timeline overlaid as
/// Perfetto *instant* events (`"ph": "i"`, thread scope): a marker on
/// the victim's track for crashes and lease expiries, on the acting
/// survivor's track for reclaims, failovers and lock repairs — so the
/// timeline shows who reclaimed what, when, amid the activity
/// segments.
pub fn chrome_trace_with_recovery(
    trace: &Trace,
    workers_per_node: u32,
    recovery: &[RecoveryEvent],
) -> String {
    let wpn = workers_per_node.max(1);
    let mut out = chrome_trace(trace, workers_per_node);
    if recovery.is_empty() {
        return out;
    }
    // Splice the instant events into the existing JSON array.
    let tail = out.rfind("]\n").unwrap_or(out.len());
    out.truncate(tail);
    if trace.segments().is_empty() {
        // No trailing comma to add after an empty segment list.
    } else {
        // The last segment line has no trailing comma; add one.
        let last_line = out.trim_end().len();
        out.truncate(last_line);
        out.push_str(",\n");
    }
    for (i, e) in recovery.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"recovery\", \"ph\": \"i\", \"s\": \"t\", \
             \"ts\": {}, \"pid\": {}, \"tid\": {}, \
             \"args\": {{\"detail\": \"{}\"}}}}{}\n",
            e.label(),
            fmt_f64(e.at_ns() as f64 / 1e3),
            e.rank() / wpn,
            e.rank(),
            escape(&e.to_string()),
            comma(i, recovery.len())
        ));
    }
    out.push_str("]\n");
    out
}

/// Like [`chrome_trace`], with a tuner decision timeline overlaid as
/// Perfetto *instant* events (`"ph": "i"`, process scope) on a
/// dedicated track (`pid = u32::MAX`, shown as its own group above the
/// worker lanes). Decisions are journaled with the job's counters, not
/// wall clocks, so the track's time axis is the **iteration domain**:
/// each marker sits at `ts = scheduled` (iterations handed out when
/// the switch happened), with the counter pair and both techniques in
/// `args`. Read it as "the job switched from X to Y after Z
/// iterations", not as a wall-clock instant.
pub fn chrome_trace_with_decisions(
    trace: &Trace,
    workers_per_node: u32,
    decisions: &[dls::Decision],
) -> String {
    let mut out = chrome_trace(trace, workers_per_node);
    if decisions.is_empty() {
        return out;
    }
    // Splice the instant events into the existing JSON array.
    let tail = out.rfind("]\n").unwrap_or(out.len());
    out.truncate(tail);
    if !trace.segments().is_empty() {
        // The last segment line has no trailing comma; add one.
        let last_line = out.trim_end().len();
        out.truncate(last_line);
        out.push_str(",\n");
    }
    for (i, d) in decisions.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\": \"switch {}->{}\", \"cat\": \"tuner\", \"ph\": \"i\", \"s\": \"p\", \
             \"ts\": {}, \"pid\": {}, \"tid\": 0, \
             \"args\": {{\"seq\": {}, \"step\": {}, \"scheduled\": {}, \"reason\": \"{}\"}}}}{}\n",
            d.from.name(),
            d.to.name(),
            d.scheduled,
            u32::MAX,
            d.seq,
            d.step,
            d.scheduled,
            d.reason.name(),
            comma(i, decisions.len())
        ));
    }
    out.push_str("]\n");
    out
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// A float literal that is always valid JSON (no NaN/inf, always a
/// fractional part so readers parse it as a number, not an integer).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// `s` as the body of a JSON string (RFC 8259 §7): quote, backslash and
/// every control character escaped.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out
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
        assert!(json.contains("\"label\": \"a \\\"quoted\\\" label\""));
        assert!(json.contains("\"lock_polls\": 5"));
        assert!(json.contains("\"lock_poll_histogram\": [1,0,0,1]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn control_characters_are_escaped_inside_strings() {
        let (tr, stats) = sample();
        let json = ActivityReport::build("a\tb\nc\u{1}", &tr, &stats, 2).to_json();
        assert!(json.contains(r#""label": "a\tb\nc\u0001""#), "{json}");
        // RFC 8259: no raw control character inside a string literal.
        let (mut in_string, mut escaped) = (false, false);
        for b in json.bytes() {
            if in_string {
                assert!(b >= 0x20, "raw control byte {b:#04x} in a string:\n{json}");
                match (escaped, b) {
                    (true, _) => escaped = false,
                    (false, b'\\') => escaped = true,
                    (false, b'"') => in_string = false,
                    _ => {}
                }
            } else {
                in_string = b == b'"';
            }
        }
        assert!(!in_string);
    }

    #[test]
    fn chrome_trace_emits_one_event_per_segment() {
        let (tr, _) = sample();
        let out = chrome_trace(&tr, 1);
        assert!(out.trim_start().starts_with('['));
        assert!(out.trim_end().ends_with(']'));
        assert_eq!(out.matches("\"ph\": \"X\"").count(), tr.segments().len());
        // Worker 1 on 1 worker/node is pid 1.
        assert!(out.contains("\"pid\": 1, \"tid\": 1"));
        // 100 ns -> 0.1 us.
        assert!(out.contains("\"ts\": 0.1"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn log2_histogram_buckets() {
        assert_eq!(log2_histogram([0, 1, 2, 3, 4, 7, 8]), vec![1, 1, 2, 2, 1]);
        assert!(log2_histogram([]).is_empty());
    }

    #[test]
    fn recovery_rows_serialise() {
        let (tr, mut stats) = sample();
        stats.workers[0].reclaims = 1;
        stats.nodes[0].lock_revocations = 1;
        let events = [
            RecoveryEvent::Crash { rank: 1, at_ns: 40, holding_lock: true },
            RecoveryEvent::LockRepair { node: 0, dead_holder: 1, by: 0, at_ns: 90 },
        ];
        let r = ActivityReport::build("chaos", &tr, &stats, 2).with_recovery(&events);
        assert_eq!(r.workers[0].reclaims, 1);
        assert_eq!(r.nodes[0].lock_revocations, 1);
        let json = r.to_json();
        assert!(json.contains("\"kind\": \"crash-holding-lock\""));
        assert!(json.contains("\"kind\": \"lock-repair\""));
        assert!(json.contains("\"reclaims\": 1"));
        assert!(json.contains("\"lock_revocations\": 1"));
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
        let out = chrome_trace_with_recovery(&tr, 1, &events);
        assert_eq!(out.matches("\"ph\": \"X\"").count(), tr.segments().len());
        assert_eq!(out.matches("\"ph\": \"i\"").count(), 2);
        assert!(out.contains("\"name\": \"reclaim\""));
        // The reclaim marker sits on the reclaimer's track.
        assert!(out.contains("\"ph\": \"i\", \"s\": \"t\", \"ts\": 0.11, \"pid\": 0, \"tid\": 0"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        assert_eq!(out.matches('[').count(), out.matches(']').count());
        // Without events the output is exactly the plain trace.
        assert_eq!(chrome_trace_with_recovery(&tr, 1, &[]), chrome_trace(&tr, 1));
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
        assert_eq!(j.records, 40);
        assert_eq!(j.fsyncs, 5);
        let json = r.to_json();
        assert!(json.contains("\"label\": \"net GSS\""));
        assert!(json.contains(
            "\"journal\": {\"enabled\": true, \"epoch\": 2, \"records\": 40, \
             \"bytes\": 1024, \"fsyncs\": 5, \"snapshots\": 1, \"segments\": 2}"
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
        let r = ActivityReport::build("AUTO", &tr, &stats, 2).with_decisions(&decisions());
        assert_eq!(r.decisions.len(), 2);
        let json = r.to_json();
        assert!(json.contains(
            "{\"seq\": 0, \"step\": 8, \"scheduled\": 8, \"from\": \"SS\", \
             \"to\": \"GSS\", \"reason\": \"overhead\"}"
        ));
        assert!(json.contains("\"to\": \"AF\", \"reason\": \"imbalance\""));
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
        assert!(json.contains("\"decisions\": [\n    {\"seq\": 0"));
    }

    #[test]
    fn chrome_trace_overlays_decision_instants() {
        let (tr, _) = sample();
        let out = chrome_trace_with_decisions(&tr, 1, &decisions());
        assert_eq!(out.matches("\"ph\": \"X\"").count(), tr.segments().len());
        assert_eq!(out.matches("\"ph\": \"i\"").count(), 2);
        assert!(out.contains("\"name\": \"switch SS->GSS\""));
        assert!(out.contains("\"cat\": \"tuner\""));
        // The tuner track is its own process group, iteration-domain ts.
        assert!(out.contains(&format!("\"ts\": 350, \"pid\": {}, \"tid\": 0", u32::MAX)));
        assert!(out.contains("\"reason\": \"imbalance\""));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        assert_eq!(out.matches('[').count(), out.matches(']').count());
        // Without decisions the output is exactly the plain trace.
        assert_eq!(chrome_trace_with_decisions(&tr, 1, &[]), chrome_trace(&tr, 1));
    }

    #[test]
    fn floats_always_json_numbers() {
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(3.0), "3.0");
        assert_eq!(fmt_f64(f64::NAN), "0.0");
    }
}
