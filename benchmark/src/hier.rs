//! The `hier_*` and `sim_figures` workloads. Every repetition is a
//! fresh child process — this binary re-executed with `--child` for a
//! live `HierSchedule::run_live`, or `figures --quick` — so `VmHWM` and
//! CPU time belong to exactly one repetition.

use crate::metrics::{Rep, Samples};
use crate::proc;
use crate::trace::Tracer;
use hdls::prelude::*;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Which live run a `hier_*` workload makes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `C` nodes x 1 rank, GSS+SS on a free kernel: one iteration per
    /// sub-chunk, so window lock/unlock, sub-chunk calculation and
    /// put/get are all the work. One rank per node keeps the local lock
    /// uncontended (see the README for the contended shape).
    Sched,
    /// 1 node x `C` ranks sharing one local queue, FAC2+GSS on
    /// Mandelbrot: ~230 sub-chunks, so the kernel and load balance set
    /// the time.
    Compute,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::Sched => "sched",
            Shape::Compute => "compute",
        }
    }

    /// The size parameter for `seed`: iterations for `Sched`, image
    /// height for `Compute`. The seed moves `n` by under 1%, so GSS and
    /// FAC2 chunk boundaries differ between seeds.
    pub fn size(self, seed_mix: u64) -> u64 {
        match self {
            Shape::Sched => 3_000_000 - seed_mix % 30_000,
            // Height stays a multiple of 3 so the 48-pixel shuffle tile
            // still divides the pixel count.
            Shape::Compute => 768 - 3 * (seed_mix % 3),
        }
    }

    /// The 1/20-size warm-up of `size`.
    pub fn warmup_size(self, size: u64) -> u64 {
        match self {
            Shape::Sched => size / 20,
            Shape::Compute => (size / 20 / 3).max(1) * 3,
        }
    }

    fn workload(self, size: u64) -> Box<dyn Workload + Sync> {
        match self {
            Shape::Sched => Box::new(Synthetic::constant(size, 0)),
            Shape::Compute => Box::new(Mandelbrot { height: size as u32, ..Mandelbrot::paper() }),
        }
    }

    fn schedule(self, cores: u32, trace: bool) -> HierSchedule {
        let b = HierSchedule::builder().approach(Approach::MpiMpi).trace(trace);
        match self {
            Shape::Sched => b.inter(Kind::GSS).intra(Kind::SS).nodes(cores).workers_per_node(1),
            Shape::Compute => b.inter(Kind::FAC2).intra(Kind::GSS).nodes(1).workers_per_node(cores),
        }
        .build()
    }
}

/// The serial reference a live run must reproduce, and how long one
/// core takes for it.
pub struct Reference {
    pub n: u64,
    pub checksum: u64,
    pub serial_s: f64,
}

pub fn serial_reference(shape: Shape, size: u64) -> Reference {
    let w = shape.workload(size);
    let start = Instant::now();
    let checksum = hier::live::serial_checksum(&*w);
    Reference { n: w.n_iters(), checksum, serial_s: start.elapsed().as_secs_f64() }
}

/// `--child hier <shape> <size> <cores> <trace>`: one live run, one
/// `RESULT` line. Runs in its own process so that its memory high-water
/// mark and CPU time are this run's alone.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let [shape, size, cores, trace] = args else {
        return Err("usage: --child hier <sched|compute> <size> <cores> <0|1>".into());
    };
    let shape = match shape.as_str() {
        "sched" => Shape::Sched,
        "compute" => Shape::Compute,
        other => return Err(format!("unknown shape {other:?}")),
    };
    let size: u64 = size.parse().map_err(|e| format!("size: {e}"))?;
    let cores: u32 = cores.parse().map_err(|e| format!("cores: {e}"))?;
    let trace = trace == "1";

    let w = shape.workload(size);
    let schedule = shape.schedule(cores, trace);
    let start = Instant::now();
    let r = schedule.run_live(&*w);
    let wall_s = start.elapsed().as_secs_f64();
    let rss = proc::peak_rss_mb("self").unwrap_or(0.0);

    // Exactly-once from the executed sub-chunks themselves: with a free
    // kernel the checksum is 0 and proves nothing.
    let n = w.n_iters();
    let mut bitmap = vec![0u64; n.div_ceil(64) as usize];
    let mut duplicates = 0u64;
    for (_, sub) in &r.executed {
        for i in sub.start..sub.end.min(n) {
            let (word, bit) = ((i / 64) as usize, 1u64 << (i % 64));
            duplicates += u64::from(bitmap[word] & bit != 0);
            bitmap[word] |= bit;
        }
    }
    let covered: u64 = bitmap.iter().map(|w| u64::from(w.count_ones())).sum();

    let t = r.trace.totals();
    let total = t.total().max(1) as f64;
    println!(
        "RESULT wall_s={wall_s} peak_rss_mb={rss} checksum={} total_iterations={} \
         covered={covered} duplicates={duplicates} sub_chunks={} global_fetches={} \
         lock_polls={} sched_share={} compute_share={} idle_share={}",
        r.checksum,
        r.stats.total_iterations,
        r.stats.workers.iter().map(|w| w.sub_chunks).sum::<u64>(),
        r.stats.workers.iter().map(|w| w.global_fetches).sum::<u64>(),
        r.stats.workers.iter().map(|w| w.lock_polls).sum::<u64>(),
        t.sched as f64 / total,
        t.compute as f64 / total,
        (t.sync + t.idle) as f64 / total,
    );
    Ok(())
}

/// Look one `key=value` up in a child's `RESULT` line.
fn field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
        .and_then(|v| v.parse().ok())
        .ok_or(format!("child result has no usable {key}: {line:?}"))
}

/// One repetition of a `hier_*` workload in a child process.
pub fn run_hier_rep(
    shape: Shape,
    size: u64,
    cores: u32,
    reference: &Reference,
    tracer: Option<&mut Tracer>,
    rep_id: u64,
) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let out = Command::new(exe)
        .args(["--child", "hier", shape.name(), &size.to_string(), &cores.to_string()])
        .arg(if tracer.is_some() { "1" } else { "0" })
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot spawn child: {e}"))?;
    let ended = Instant::now();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.starts_with("RESULT ")).ok_or(format!(
        "child failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    ))?;

    let wall_s: f64 = field(line, "wall_s")?;
    let sub_chunks: f64 = field(line, "sub_chunks")?;
    let ranks = f64::from(cores);
    let mut v = Samples::default();
    v.push("wall_s", wall_s);
    v.push("chunks_per_s", sub_chunks / wall_s);
    v.push("peak_rss_mb", field(line, "peak_rss_mb")?);
    v.push("hier.ns_per_subchunk", wall_s * 1e9 * ranks / sub_chunks.max(1.0));
    v.push("hier.sub_chunks", sub_chunks);
    v.push("hier.global_fetches", field(line, "global_fetches")?);
    v.push("hier.lock_polls", field(line, "lock_polls")?);
    v.push("hier.efficiency", reference.serial_s / (ranks * wall_s));
    if let Some(tr) = tracer {
        v.push("hier.sched_share", field(line, "sched_share")?);
        v.push("hier.compute_share", field(line, "compute_share")?);
        v.push("hier.idle_share", field(line, "idle_share")?);
        let rep = tr.span("hier.rep", started, ended, None, rep_id, 0);
        let run_start = ended.checked_sub(Duration::from_secs_f64(wall_s)).unwrap_or(started);
        tr.span("hier.run_live", run_start.max(started), ended, Some(rep), rep_id, 0);
    }

    let checks = [
        (out.status.success(), "child exit code".to_string()),
        (
            field::<u64>(line, "checksum")? == reference.checksum,
            format!("checksum != serial reference {}", reference.checksum),
        ),
        (
            field::<u64>(line, "total_iterations")? == reference.n,
            format!("total_iterations != {}", reference.n),
        ),
        (
            field::<u64>(line, "covered")? == reference.n && field::<u64>(line, "duplicates")? == 0,
            "executed sub-chunks do not cover [0, n) exactly once".to_string(),
        ),
    ];
    let problems: Vec<String> =
        checks.iter().filter(|(ok, _)| !ok).map(|(_, what)| format!("{what}: {line}")).collect();
    Ok(Rep { values: v, attempted: checks.len() as u64, failed: problems.len() as u64, problems })
}

/// What one `figures` run printed and cost.
pub struct FiguresRun {
    pub stdout: Vec<u8>,
    pub rep: Rep,
}

/// One repetition of `sim_figures`: run `figures <args>`, time it from
/// spawn to exit, and take `setup_s` as the time until the workload
/// cost tables are reported (the line the figure sweeps start after).
pub fn run_figures_rep(
    figures: &Path,
    args: &[&str],
    cpu: u32,
    tracer: Option<&mut Tracer>,
    rep_id: u64,
) -> Result<FiguresRun, String> {
    let started = Instant::now();
    // `figures` inherits the one CPU this thread is on when it spawns
    // it; the reader and the sampler below go back to where they were.
    let all = proc::allowed_cpus();
    proc::pin_thread(&[cpu]);
    let child = Command::new(figures)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", figures.display()));
    proc::pin_thread(&all);
    let mut child = child?;
    let pipe = child.stdout.take().expect("stdout was piped");
    let pid = child.id().to_string();

    let (status, stdout, tables_at, rss) = std::thread::scope(|scope| {
        // Rust's stdout is line-buffered even into a pipe, so the time
        // a line arrives is the time it was printed.
        let reader = scope.spawn(move || {
            let mut all = Vec::new();
            let mut tables_at = None;
            let mut lines = BufReader::new(pipe);
            let mut line = Vec::new();
            while lines.read_until(b'\n', &mut line).is_ok_and(|k| k > 0) {
                if tables_at.is_none() && line.starts_with(b"  PSIA:") {
                    tables_at = Some(Instant::now());
                }
                all.append(&mut line);
            }
            (all, tables_at)
        });
        // `VmHWM` vanishes with the process, so sample it while it runs;
        // it only grows, so the last sample stands.
        let mut rss = 0.0f64;
        let status = loop {
            if let Some(mb) = proc::peak_rss_mb(&pid) {
                rss = rss.max(mb);
            }
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => break Err(e.to_string()),
            }
        };
        let (stdout, tables_at) = reader.join().expect("stdout reader panicked");
        (status, stdout, tables_at, rss)
    });
    let status = status?;
    let ended = Instant::now();
    let wall_s = (ended - started).as_secs_f64();

    // One simulated schedule per printed timing cell (`0.97s`): the
    // unit of work `figures` completes.
    let text = String::from_utf8_lossy(&stdout);
    let cells = text
        .split_whitespace()
        .filter(|t| t.strip_suffix('s').is_some_and(|num| num.parse::<f64>().is_ok()))
        .count();

    let mut v = Samples::default();
    v.push("wall_s", wall_s);
    v.push("setup_s", tables_at.map_or(wall_s, |t| (t - started).as_secs_f64()));
    v.push("chunks_per_s", cells as f64 / wall_s);
    v.push("peak_rss_mb", rss);
    if let Some(tr) = tracer {
        let root = tr.span("sim.figures", started, ended, None, rep_id, 0);
        if let Some(at) = tables_at {
            tr.span("setup.costtable", started, at, Some(root), rep_id, 0);
        }
    }
    let mut problems = Vec::new();
    if !status.success() {
        problems.push(format!("figures exited with {status}"));
    }
    if cells == 0 {
        problems.push("figures printed no timings".to_string());
    }
    let rep = Rep { values: v, attempted: 2, failed: problems.len() as u64, problems };
    Ok(FiguresRun { stdout, rep })
}
