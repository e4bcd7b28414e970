//! `hdls-bench` — the repo's benchmark: six fixed-work, closed-loop
//! workloads over the three product surfaces (`dls-serverd` over
//! loopback TCP, a live `HierSchedule::run_live`, the `figures` sweep),
//! named end-to-end and per-layer metrics, an exactly-once correctness
//! gate, and a traced layer breakdown. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--selfcheck]
//! ```
//!
//! With `--workload` the last stdout line is the one JSON object the
//! driver contract asks for; without it all six workloads run in turn
//! (`BENCHMARK.json` lists the four the driver gates). Either way every
//! metric is printed by name with its unit and `benchmark/out/BENCH.json`
//! keeps every repetition's value. Reported times are speed-corrected
//! (see `calib`); the clock readings stay beside them as `raw.*`.

mod calib;
mod hier;
mod layers;
mod metrics;
mod proc;
mod svc;
mod trace;

use hier::Shape;
use metrics::{json_num, json_str, median, Rep, Samples, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Default and `BENCHMARK.json` measuring time per run, in seconds.
const RUN_SECONDS: u64 = 30;
/// Fewest serial references a `hier_*` run computes for `setup_s`.
const SETUP_SAMPLES: usize = 3;

struct Options {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: hdls-bench [--workload {}] [--seed S] [--seconds N] [--trace 0|1] \
         [--selfcheck] [--manifest]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        selfcheck: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{}", usage()));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let known = WORKLOADS.iter().find(|w| w.name == v);
                o.workload =
                    Some(known.ok_or(format!("unknown workload {v:?}\n{}", usage()))?.name);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--selfcheck" => o.selfcheck = true,
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(o)
}

/// SplitMix64 of the seed and the workload name: the only randomness
/// there is. The product only ever sees the inputs derived from it.
fn seed_mix(seed: u64, name: &str) -> u64 {
    let tag = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut z = (seed ^ tag).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Env {
    bins: proc::Binaries,
    /// The CPUs the benchmark keeps to: the first `cores` it may use.
    cpus: Vec<u32>,
    /// `min(nproc, 4)`: connections, ranks and busy threads per workload.
    cores: u32,
    nproc: u32,
    seed: u64,
    seconds: f64,
}

impl Env {
    /// Where a service workload runs: the daemon on the first CPU, the
    /// driver thread on the last.
    fn svc_cpus(&self) -> Vec<u32> {
        let mut pair = vec![self.cpus[0], self.last_cpu()];
        pair.dedup();
        pair
    }

    /// Where single-threaded work runs.
    fn last_cpu(&self) -> u32 {
        self.cpus[self.cpus.len() - 1]
    }
}

/// Everything one workload produced.
struct Outcome {
    name: &'static str,
    /// Values of the untraced repetitions (and the isolated layers).
    values: Samples,
    /// Values of the traced repetitions.
    traced: Samples,
    /// Traced runs only: layers this workload never touches, priced by
    /// a warm-up-size repetition of a workload that does.
    probed: Samples,
    reps: usize,
    traced_reps: usize,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    warnings: Vec<String>,
    /// `(span name, count, total_s, self_s)` of the traced pass.
    self_times: Vec<(&'static str, u64, f64, f64)>,
    trace_file: Option<std::path::PathBuf>,
}

impl Outcome {
    fn absorb(&mut self, rep: Rep, traced: bool) {
        self.absorb_checks(&rep);
        if traced {
            self.traced.merge(&rep.values);
            self.traced_reps += 1;
        } else {
            self.values.merge(&rep.values);
            self.reps += 1;
        }
    }

    /// The reported value of a metric: from the untraced repetitions
    /// where they have it, else from the traced ones (span-derived
    /// shares), else from a probe of another workload.
    fn value(&self, name: &str) -> Option<f64> {
        self.sources().into_iter().find_map(|(s, _)| s.median(name))
    }

    /// Where values come from, in order of preference, with the label
    /// the output gives each.
    fn sources(&self) -> [(&Samples, &'static str); 3] {
        [(&self.values, "untraced"), (&self.traced, "traced"), (&self.probed, "probe")]
    }

    fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn absorb_checks(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.problems.extend(rep.problems.iter().cloned());
    }
}

/// Fixed-work repetitions until `budget_s` is used: another one starts
/// only while it is expected to overshoot by less than half of itself.
/// A repetition is timed whole, with its set-up, its teardown and the
/// calibration after it, so the budget bounds the run and not just the
/// timed sections. `cpus` are the CPUs the workload keeps busy.
fn repeat(
    budget_s: f64,
    traced: bool,
    cpus: &[u32],
    outcome: &mut Outcome,
    mut rep: impl FnMut(u64) -> Result<Rep, String>,
) -> Result<(), String> {
    let mut spent = 0.0;
    let mut before = calib::measure(cpus);
    for k in 0.. {
        let started = Instant::now();
        let mut r = rep(k)?;
        // The machine's speed during a repetition: the mean of the
        // calibrations on either side of it.
        let after = calib::measure(cpus);
        r.values.correct((before + after) / 2.0);
        before = after;
        outcome.absorb(r, traced);
        let took = started.elapsed().as_secs_f64();
        spent += took;
        if spent + took / 2.0 > budget_s {
            break;
        }
    }
    Ok(())
}

/// The measured part of a workload: untraced repetitions for the whole
/// budget, or, on a traced run, for half of it, followed by traced
/// repetitions (the driver recording spans) for the other half.
fn measure(
    env: &Env,
    trace: bool,
    cpus: &[u32],
    o: &mut Outcome,
    mut rep: impl FnMut(Option<&mut Tracer>, u64) -> Result<Rep, String>,
) -> Result<(), String> {
    let budget_s = if trace { env.seconds / 2.0 } else { env.seconds };
    repeat(budget_s, false, cpus, o, |k| rep(None, k))?;
    if trace {
        let mut tracer = Tracer::new();
        repeat(budget_s, true, cpus, o, |k| rep(Some(&mut tracer), k))?;
        finish_trace(o, &tracer)?;
    }
    Ok(())
}

/// The seeded size of a service job: `spec.n` less up to 1%.
fn svc_n(env: &Env, spec: &svc::SvcSpec) -> u64 {
    spec.n - seed_mix(env.seed, spec.name) % (spec.n / 100)
}

fn run_svc(env: &Env, spec: &svc::SvcSpec, trace: bool, o: &mut Outcome) -> Result<(), String> {
    let n = svc_n(env, spec);
    let rep = |n: u64, tracer: Option<&mut Tracer>| {
        svc::run_rep(&env.bins.serverd, spec, n, env.cores, &env.cpus, tracer)
    };
    // Untimed warm-up at 1/20 size; it must still be correct.
    o.absorb_checks(&rep(n / 20, None)?);
    measure(env, trace, &env.svc_cpus(), o, |tracer, _| rep(n, tracer))?;

    // Generator honesty: is the server or the load generator the limit?
    let idle = o.value("driver.idle_poll_share").unwrap_or(0.0);
    let busy = o.value("server.busy_share").unwrap_or(0.0);
    if idle < 0.05 && busy < 0.5 {
        o.warnings.push(format!(
            "driver thread saturated (idle poll share {idle:.3}) while the server is {:.0}% busy: \
             this workload is measuring the generator",
            busy * 100.0
        ));
    }
    Ok(())
}

fn run_hier(env: &Env, shape: Shape, trace: bool, o: &mut Outcome) -> Result<(), String> {
    let size = shape.size(seed_mix(env.seed, o.name));
    // Set-up is the serial reference a live run is checked against,
    // computed on one CPU with a calibration on either side. A 10 ms
    // reference is repeated until it has had a quarter second, a
    // one-second reference three times, so the median is steady.
    let one = [env.last_cpu()];
    let mut setup = Samples::default();
    proc::pin_thread(&one);
    let before = calib::measure(&one);
    let mut spent_s = 0.0;
    let mut reference = loop {
        let reference = hier::serial_reference(shape, size);
        setup.push("setup_s", reference.serial_s);
        spent_s += reference.serial_s;
        if setup.values("setup_s").len() >= SETUP_SAMPLES && spent_s >= 0.25 {
            break reference;
        }
    };
    let after = calib::measure(&one);
    proc::pin_thread(&env.cpus);
    // Efficiency and ns per iteration compare clock readings with clock
    // readings, so they take the uncorrected median.
    reference.serial_s = setup.median("setup_s").unwrap_or(reference.serial_s);
    setup.correct((before + after) / 2.0);
    o.values.merge(&setup);
    if shape == Shape::Compute {
        o.values
            .set("workloads.mandelbrot_ns_per_iter", reference.serial_s * 1e9 / reference.n as f64);
    }

    let warm_size = shape.warmup_size(size);
    let warm_ref = hier::serial_reference(shape, warm_size);
    o.absorb_checks(&hier::run_hier_rep(shape, warm_size, env.cores, &warm_ref, None, 0)?);

    measure(env, trace, &env.cpus, o, |tracer, k| {
        hier::run_hier_rep(shape, size, env.cores, &reference, tracer, k)
    })
}

fn run_sim(env: &Env, trace: bool, o: &mut Outcome) -> Result<(), String> {
    let figures = &env.bins.figures;
    o.absorb_checks(
        &hier::run_figures_rep(
            figures,
            &["--quick", "--table1", "--fig2"],
            env.last_cpu(),
            None,
            0,
        )?
        .rep,
    );

    // Same inputs, single-threaded, virtual time: every repetition must
    // print the same bytes.
    let mut first: Option<Vec<u8>> = None;
    measure(env, trace, &[env.last_cpu()], o, |tracer, k| {
        let mut run = hier::run_figures_rep(figures, &["--quick"], env.last_cpu(), tracer, k)?;
        run.rep.attempted += 1;
        match &first {
            Some(expected) if *expected != run.stdout => {
                run.rep.failed += 1;
                run.rep.problems.push("figures stdout differs between repetitions".to_string());
            }
            Some(_) => {}
            None => first = Some(run.stdout),
        }
        Ok(run.rep)
    })
}

/// Write the chrome-trace, keep the self times, and price the tracing:
/// traced over untraced time per unit of work.
fn finish_trace(o: &mut Outcome, tracer: &Tracer) -> Result<(), String> {
    let dir = proc::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace.{}.json", o.name));
    std::fs::write(&path, tracer.chrome_trace()).map_err(|e| format!("{}: {e}", path.display()))?;
    o.trace_file = Some(path);
    o.self_times = tracer.self_times();
    if let (Some(plain), Some(traced)) =
        (o.values.median("chunks_per_s"), o.traced.median("chunks_per_s"))
    {
        o.values.set("trace_overhead_pct", (plain / traced - 1.0) * 100.0);
    }
    Ok(())
}

/// Run one workload. `layers` is the isolated layer pass of a traced
/// run; its presence is what makes the run traced.
fn run_workload(
    env: &Env,
    name: &'static str,
    layers: Option<&Samples>,
) -> Result<Outcome, String> {
    let trace = layers.is_some();
    let mut o = Outcome {
        name,
        values: Samples::default(),
        traced: Samples::default(),
        probed: Samples::default(),
        reps: 0,
        traced_reps: 0,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        warnings: Vec::new(),
        self_times: Vec::new(),
        trace_file: None,
    };
    if let Some(layers) = layers {
        o.values.merge(layers);
    }
    match name {
        "svc_b1" => run_svc(env, &svc::SVC_B1, trace, &mut o)?,
        "svc_b64" => run_svc(env, &svc::SVC_B64, trace, &mut o)?,
        "svc_journal" => run_svc(env, &svc::SVC_JOURNAL, trace, &mut o)?,
        "hier_sched" => run_hier(env, Shape::Sched, trace, &mut o)?,
        "hier_compute" => run_hier(env, Shape::Compute, trace, &mut o)?,
        "sim_figures" => run_sim(env, trace, &mut o)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    if trace {
        probe_other_layers(env, &mut o)?;
    }
    if name == "svc_b1" && trace {
        explain_p50(&mut o);
    }
    Ok(o)
}

/// A traced run reports every layer. The server, journal and live-hier
/// counters exist only on the workloads that run those programs, so
/// elsewhere they come from one warm-up-size repetition of
/// `svc_journal` and of a traced `hier_sched`: real measurements of the
/// same code, at 1/20 size, instead of a column of zeros.
fn probe_other_layers(env: &Env, o: &mut Outcome) -> Result<(), String> {
    let mut probes = Vec::new();
    if o.name != "svc_journal" {
        let spec = &svc::SVC_JOURNAL;
        probes.push(svc::run_rep(
            &env.bins.serverd,
            spec,
            svc_n(env, spec) / 20,
            env.cores,
            &env.cpus,
            None,
        )?);
    }
    if !o.name.starts_with("hier_") {
        let shape = Shape::Sched;
        let size = shape.warmup_size(shape.size(seed_mix(env.seed, "hier_sched")));
        let reference = hier::serial_reference(shape, size);
        let mut spans = Tracer::new();
        probes.push(hier::run_hier_rep(shape, size, env.cores, &reference, Some(&mut spans), 0)?);
    }
    for rep in probes {
        o.absorb_checks(&rep);
        // Only what the workload itself could not measure.
        for (name, values) in rep.values.iter() {
            if o.value(name).is_none() {
                values.iter().for_each(|v| o.probed.push(name, *v));
            }
        }
    }
    Ok(())
}

/// `svc_b1.p50_explained_share`: how much of the median fetch latency
/// the separately priced layers add up to. The server's user CPU
/// already contains its side of the codec, so only the client's side is
/// added from the protocol micro-benches.
fn explain_p50(o: &mut Outcome) {
    let get = |o: &Outcome, name: &str| o.value(name).unwrap_or(0.0);
    let echo = get(o, "net.echo_rtt_p50_us");
    let codec = (get(o, "protocol.encode_fetch_ns")
        + get(o, "protocol.encode_report_ns.b1")
        + get(o, "protocol.decode_chunks_ns.b1"))
        / 1e3;
    let server = get(o, "server.cpu_user_us_per_chunk");
    let p50 = get(o, "fetch_p50_us");
    if p50 > 0.0 {
        o.values.set("svc_b1.p50_explained_share", (echo + codec + server) / p50);
        o.warnings.push(format!(
            "svc_b1.p50_explained_share = (net.echo_rtt_p50_us {echo:.3} + client codec {codec:.3} \
             + server.cpu_user_us_per_chunk {server:.3}) / fetch_p50_us {p50:.3}"
        ));
    }
}

/// Print every metric the workload produced, by name, with its unit.
fn print_report(o: &Outcome) {
    println!("== {} ({} repetitions, {} traced)", o.name, o.reps, o.traced_reps);
    let declared = END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name));
    for name in declared {
        let Some((source, from)) =
            o.sources().into_iter().find(|(s, _)| !s.values(name).is_empty())
        else {
            continue;
        };
        let samples = source.values(name);
        let all: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "  {name:<36} {:>16.4} {:<6} n={} {from} [{}]",
            median(samples),
            metrics::unit_of(name),
            source.count(name),
            all.join(" ")
        );
    }
    println!(
        "  {:<36} {:>16.4} {:<6} ({} failed of {} attempted)",
        "fail_ratio",
        o.fail_ratio(),
        "ratio",
        o.failed,
        o.attempted
    );
    for (name, count, total_s, self_s) in &o.self_times {
        println!(
            "  span {name:<31} {count:>10} spans  total {total_s:>9.4} s  self {self_s:>9.4} s"
        );
    }
    if let Some(path) = &o.trace_file {
        println!("  trace written to {}", path.display());
    }
    if o.name.starts_with("svc_") {
        println!("  traffic crossed the host loopback interface (127.0.0.1), not a real link");
    }
    for w in &o.warnings {
        println!("  note: {w}");
    }
    for p in &o.problems {
        println!("  FAILED: {p}");
    }
}

fn outcome_json(o: &Outcome) -> String {
    let mut metrics = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for (source, from) in o.sources() {
        for (name, values) in source.iter().filter(|(name, _)| seen.insert(name.as_str())) {
            let all: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
            metrics.push(format!(
                "      {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"from\": \"{from}\", \"values\": [{}]}}",
                json_str(name),
                json_num(median(values)),
                json_str(metrics::unit_of(name)),
                source.count(name),
                all.join(", ")
            ));
        }
    }
    let spans: Vec<String> = o
        .self_times
        .iter()
        .map(|(name, count, total_s, self_s)| {
            format!(
                "{}: {{\"count\": {count}, \"total_s\": {}, \"self_s\": {}}}",
                json_str(name),
                json_num(*total_s),
                json_num(*self_s)
            )
        })
        .collect();
    let list = |items: &[String]| items.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ");
    format!(
        "    {}: {{\n      \"reps\": {}, \"traced_reps\": {}, \"attempted\": {}, \"failed\": {}, \
         \"fail_ratio\": {},\n      \"span_self_time\": {{{}}},\n      \"warnings\": [{}],\n      \
         \"problems\": [{}],\n      \"metrics\": {{\n  {}\n      }}\n    }}",
        json_str(o.name),
        o.reps,
        o.traced_reps,
        o.attempted,
        o.failed,
        json_num(o.fail_ratio()),
        spans.join(", "),
        list(&o.warnings),
        list(&o.problems),
        metrics.join(",\n  ")
    )
}

fn write_bench_json(env: &Env, trace: bool, outcomes: &[Outcome]) -> Result<(), String> {
    let dir = proc::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let body: Vec<String> = outcomes.iter().map(outcome_json).collect();
    let json = format!(
        "{{\n  \"bench\": \"hdls-bench\",\n  \"git_rev\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"cores\": {},\n  \"nproc\": {},\n  \"trace\": {trace},\n  \"network\": \"host loopback\",\n  \
         \"workloads\": {{\n{}\n  }}\n}}\n",
        json_str(&proc::git_rev()),
        env.seed,
        json_num(env.seconds),
        env.cores,
        env.nproc,
        body.join(",\n")
    );
    let path = dir.join("BENCH.json");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// The driver contract's result line.
fn result_line(o: &Outcome, trace: bool) -> String {
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    // A layer the workload does not touch reports 0.
    let values: Vec<(&str, f64)> = names.iter().map(|n| (*n, o.value(n).unwrap_or(0.0))).collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics::metrics_object(&values)
    )
}

/// One full set: every workload (or the one asked for), reported and
/// written to `BENCH.json`.
fn run_set(env: &Env, only: Option<&'static str>, trace: bool) -> Result<Vec<Outcome>, String> {
    let layers = if trace { Some(layers::run(seed_mix(env.seed, "layers"))?) } else { None };
    let mut outcomes = Vec::new();
    for w in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == w.name)) {
        let o = run_workload(env, w.name, layers.as_ref())?;
        print_report(&o);
        outcomes.push(o);
    }
    write_bench_json(env, trace, &outcomes)?;
    Ok(outcomes)
}

/// Two sets back to back: do the medians of the same code agree within
/// the bounds the benchmark itself fixes?
fn selfcheck(env: &Env, only: Option<&'static str>) -> Result<bool, String> {
    let first = run_set(env, only, false)?;
    let second = run_set(env, only, false)?;
    let mut ok = first.iter().chain(&second).all(|o| o.failed == 0);
    println!("== selfcheck: two sets of the same code");
    println!(
        "  {:<13} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (x, y) = (a.value(m.name).unwrap_or(0.0), b.value(m.name).unwrap_or(0.0));
            let diff = if x == 0.0 { f64::INFINITY } else { (y - x).abs() / x };
            let verdict = if diff <= m.bound { "" } else { "  DISAGREE" };
            ok &= diff <= m.bound;
            println!(
                "  {:<13} {:<14} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                a.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn real_main(args: &[String]) -> Result<bool, String> {
    if args.first().is_some_and(|a| a == "--child") {
        return match args.get(1).map(String::as_str) {
            Some("hier") => hier::child_main(&args[2..]).map(|()| true),
            other => Err(format!("unknown child kind {other:?}")),
        };
    }
    if args.first().is_some_and(|a| a == "--manifest") {
        print!("{}", metrics::manifest(RUN_SECONDS));
        return Ok(true);
    }
    let opts = parse(args)?;
    let (cpus, nproc) = proc::cpus()?;
    let cores = cpus.len() as u32;
    let bins = proc::build_product()?;
    // Everything from here on, children included, keeps to those CPUs.
    proc::pin_thread(&cpus);
    let env = Env { bins, cpus, cores, nproc, seed: opts.seed, seconds: opts.seconds };
    println!(
        "hdls-bench: seed {} seconds {} cores {cores} (nproc {nproc}) trace {}",
        env.seed, env.seconds, opts.trace
    );
    if opts.selfcheck {
        return selfcheck(&env, opts.workload);
    }
    let outcomes = run_set(&env, opts.workload, opts.trace)?;
    let correct = outcomes.iter().all(|o| o.failed == 0);
    match (opts.workload, outcomes.first()) {
        (Some(_), Some(o)) => println!("{}", result_line(o, opts.trace)),
        _ => {
            let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
            let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}}}"
            );
        }
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hdls-bench: correctness or agreement check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("hdls-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
