//! The benchmark's vocabulary: workload names, metric names with unit,
//! direction and regression bound, and the small statistics and JSON
//! helpers every other module reports through.
//!
//! `BENCHMARK.json` at the repo root is generated from the tables here
//! (`hdls-bench --manifest`), so a name is spelled in exactly one place.

use std::collections::BTreeMap;

/// One benchmark workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the benchmark driver runs it and
    /// holds later changes to its bounds. The driver's hour has room
    /// for four workloads of 30 seconds; the other two run by name.
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "svc_b1",
        why: "one chunk per round trip: syscalls, event-loop cycle and frame codec dominate, calculators and ledger do almost nothing",
        gated: false,
    },
    Workload {
        name: "svc_b64",
        why: "64 chunks per round trip: calculator step, LeaseTable grant/settle and Chunks encoding under the shard lock dominate; also the memory workload",
        gated: true,
    },
    Workload {
        name: "svc_journal",
        why: "same server path with journal writes, snapshots and a SIGKILL-restart recovery beside the reads",
        gated: true,
    },
    Workload {
        name: "hier_sched",
        why: "live MPI+MPI with a free kernel and one iteration per sub-chunk: window lock, sub-chunk calculation and put/get are all the work",
        gated: true,
    },
    Workload {
        name: "hier_compute",
        why: "live MPI+MPI on Mandelbrot with ~230 sub-chunks: the bypass workload, every scheduling-path optimisation predicts no change",
        gated: false,
    },
    Workload {
        name: "sim_figures",
        why: "figures --quick in virtual time: single-threaded event queue, hier::sim and replay-heavy calculators, no sockets or disk",
        gated: true,
    },
];

/// An end-to-end metric: reported by every workload on every untraced
/// run, with the share of the parent's median it may worsen by.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The time and rate bounds sit at the contract's ceiling, not at the
/// issue's 10%: the box is a few vCPUs of a shared host, and README.md
/// has the spreads measured on it. `wall_s` is `chunks_per_s` upside
/// down, so it is reported as a per-layer metric: gating both would
/// only toss the same coin twice.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "chunks_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.05 },
];

/// A per-layer metric: reported on traced runs, no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "higher" }
}

pub const PER_LAYER: [PerLayer; 72] = [
    // Seconds of the timed section, speed-corrected like the
    // end-to-end times.
    lower("wall_s", "s"),
    // What the clock read before the speed correction (see `calib`),
    // and the machine speed the correction used (1 = the reference).
    lower("raw.setup_s", "s"),
    higher("raw.chunks_per_s", "1/s"),
    lower("raw.wall_s", "s"),
    higher("machine.speed", "ratio"),
    // Client-visible service numbers that only `svc_*` workloads have,
    // so they cannot be end-to-end metrics under the driver contract.
    lower("fetch_p50_us", "us"),
    lower("fetch_p99_us", "us"),
    lower("recover_s", "s"),
    // dls
    lower("dls.next_size_ns.STATIC", "ns"),
    lower("dls.next_size_ns.SS", "ns"),
    lower("dls.next_size_ns.GSS", "ns"),
    lower("dls.next_size_ns.TSS", "ns"),
    lower("dls.next_size_ns.FAC2", "ns"),
    lower("dls.next_size_ns.AF", "ns"),
    lower("dls.seek_ns.SS", "ns"),
    lower("dls.seek_ns.GSS", "ns"),
    lower("dls.seek_ns.TSS", "ns"),
    lower("dls.seek_ns.FAC2", "ns"),
    lower("dls.seek_fast_ns.SS", "ns"),
    lower("dls.seek_fast_ns.GSS", "ns"),
    lower("dls.seek_fast_ns.TSS", "ns"),
    lower("dls.seek_fast_ns.FAC2", "ns"),
    lower("dls.restore_ns", "ns"),
    // resilience
    lower("resilience.grant_settle_ns", "ns"),
    lower("resilience.bytes_per_lease", "B"),
    lower("resilience.serialize_ns_per_lease", "ns"),
    // dls-service, protocol
    lower("protocol.encode_fetch_ns", "ns"),
    lower("protocol.decode_fetch_ns", "ns"),
    lower("protocol.encode_chunks_ns.b1", "ns"),
    lower("protocol.encode_chunks_ns.b64", "ns"),
    lower("protocol.decode_chunks_ns.b1", "ns"),
    lower("protocol.decode_chunks_ns.b64", "ns"),
    lower("protocol.encode_report_ns.b1", "ns"),
    lower("protocol.encode_report_ns.b64", "ns"),
    // dls-service, server process (svc_* workloads)
    lower("server.cpu_user_us_per_chunk", "us"),
    lower("server.cpu_sys_us_per_chunk", "us"),
    lower("server.busy_share", "ratio"),
    lower("server.fetch_requests", "count"),
    lower("server.leases_granted", "count"),
    lower("server.leases_reclaimed", "count"),
    lower("driver.cpu_us_per_chunk", "us"),
    higher("driver.idle_poll_share", "ratio"),
    // socket
    lower("net.echo_rtt_p50_us", "us"),
    lower("net.echo_rtt_p99_us", "us"),
    // durability
    lower("durability.append_commit_ns.never", "ns"),
    lower("durability.append_commit_ns.every512", "ns"),
    lower("durability.append_commit_ns.always", "ns"),
    lower("durability.record_encode_ns", "ns"),
    higher("durability.replay_records_per_s", "1/s"),
    lower("durability.bytes_per_chunk", "B"),
    lower("durability.snapshots", "count"),
    lower("durability.fsyncs", "count"),
    lower("durability.flusher_cpu_us_per_chunk", "us"),
    // mpisim
    lower("mpisim.win_lock_unlock_ns", "ns"),
    lower("mpisim.faa_flush_ns", "ns"),
    lower("mpisim.put_get_ns", "ns"),
    // hier (hier_* workloads)
    lower("hier.ns_per_subchunk", "ns"),
    lower("hier.sub_chunks", "count"),
    lower("hier.global_fetches", "count"),
    lower("hier.lock_polls", "count"),
    higher("hier.efficiency", "ratio"),
    lower("hier.sched_share", "ratio"),
    higher("hier.compute_share", "ratio"),
    lower("hier.idle_share", "ratio"),
    // cluster-sim / hier::sim
    lower("cluster-sim.push_pop_ns", "ns"),
    higher("hier-sim.subchunks_per_s", "1/s"),
    lower("hier-sim.costtable_build_s", "s"),
    // workloads
    lower("workloads.mandelbrot_ns_per_iter", "ns"),
    lower("workloads.psia_ns_per_iter", "ns"),
    // autotune
    lower("autotune.observe_settle_ns", "ns"),
    // derived
    higher("svc_b1.p50_explained_share", "ratio"),
    lower("trace_overhead_pct", "%"),
];

/// The unit of a metric name, wherever it is declared.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Every value a metric took, in the order measured. The reported
/// value is the median; the rest is kept for `BENCH.json`.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    map: BTreeMap<String, Vec<f64>>,
    /// Observations behind a value when that is not the number of
    /// values kept (a percentile's sample count).
    counts: BTreeMap<String, u64>,
}

impl Samples {
    pub fn push(&mut self, name: &str, value: f64) {
        self.map.entry(name.to_string()).or_default().push(value);
    }

    /// Replace whatever was recorded under `name` with one value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.map.insert(name.to_string(), vec![value]);
    }

    /// Record how many observations stand behind `name`'s values.
    pub fn add_count(&mut self, name: &str, observations: u64) {
        *self.counts.entry(name.to_string()).or_default() += observations;
    }

    /// Observations behind `name`: as recorded, else the values kept.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(self.values(name).len() as u64)
    }

    /// Turn the clock readings of one repetition into reference
    /// seconds: the machine ran the calibration kernel in `cal_s` around
    /// it, the reference machine runs it in `calib::NOMINAL_S`. The
    /// readings stay under `raw.<name>`.
    pub fn correct(&mut self, cal_s: f64) {
        let speed = crate::calib::NOMINAL_S / cal_s;
        for (name, factor) in [("setup_s", speed), ("wall_s", speed), ("chunks_per_s", 1.0 / speed)]
        {
            if let Some(raw) = self.map.get(name).cloned() {
                self.map.insert(name.to_string(), raw.iter().map(|v| v * factor).collect());
                self.map.insert(format!("raw.{name}"), raw);
            }
        }
        self.push("machine.speed", speed);
    }

    pub fn merge(&mut self, other: &Samples) {
        for (k, v) in &other.map {
            self.map.entry(k.clone()).or_default().extend_from_slice(v);
        }
        for (k, c) in &other.counts {
            self.add_count(k, *c);
        }
    }

    pub fn values(&self, name: &str) -> &[f64] {
        self.map.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the recorded values, `None` when there are none.
    pub fn median(&self, name: &str) -> Option<f64> {
        let v = self.values(name);
        (!v.is_empty()).then(|| median(v))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Vec<f64>)> {
        self.map.iter()
    }
}

/// Outcome of one repetition: metric values plus the operation counts
/// behind `fail_ratio`.
pub struct Rep {
    pub values: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice of nanoseconds, in µs.
pub fn percentile_us(sorted_ns: &[u32], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_ns.len() - 1) as f64).round() as usize;
    f64::from(sorted_ns[rank.min(sorted_ns.len() - 1)]) / 1e3
}

/// A JSON number with every digit the measurement has.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for the result line.
pub fn metrics_object(values: &[(&str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit_of(name))
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The contents of `BENCHMARK.json`.
pub fn manifest(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(w.why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                json_num(m.bound)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
