//! Regenerate every table and figure of the paper, plus ablations,
//! scaling reports and custom sweeps.
//!
//! ```text
//! figures [--quick] [--table1] [--fig2] [--fig3] [--fig4] [--fig5]
//!         [--fig6] [--fig7] [--ablations] [--speedup] [--csv DIR]
//!         [--trace DIR] [--all]
//! figures --run inter=GSS intra=SS nodes=2,4,8 wpn=16 \
//!               workload=mandelbrot-quick
//! ```
//!
//! `--trace DIR` runs both approaches with intra-node STATIC/SS/GSS for
//! real (OS threads) with tracing enabled and writes per-worker
//! activity JSON plus chrome://tracing event files into `DIR`.
//!
//! With no figure flag, `--all` is assumed. `--quick` shrinks the
//! workloads (fewer pixels / points, rescaled per-iteration cost) so a
//! full sweep finishes in seconds; the qualitative shapes survive.
//!
//! `--run` accepts `key=value` pairs: `inter`/`intra` (technique names,
//! optionally parameterised like `GSS:4`, `TSS:100:2`, `FSC:64`),
//! `nodes` (comma list), `wpn`, and `workload` (one of
//! `mandelbrot-paper`, `mandelbrot-quick`, `psia-paper`, `psia-quick`,
//! `adjoint:<n>`, `uniform:<n>:<min>:<max>:<seed>`,
//! `constant:<n>:<cost>`).

use dls::openmp::table1;
use hdls::figures::{figure_grid, point, render_grid, NODE_COUNTS, WORKERS_PER_NODE};
use hdls::prelude::*;
use workloads::PsiaStream;

struct Args {
    quick: bool,
    table1: bool,
    fig2: bool,
    fig3: bool,
    fig4: bool,
    fig5: bool,
    fig6: bool,
    fig7: bool,
    ablations: bool,
    speedup: bool,
    /// Also write each figure grid as CSV into this directory.
    csv_dir: Option<std::path::PathBuf>,
    /// Write per-worker activity JSON + chrome-trace files here.
    trace_dir: Option<std::path::PathBuf>,
    /// `key=value` pairs following `--run`.
    custom: Vec<String>,
}

/// PSIA instance for `--quick` runs: 16x fewer frames with 16x the
/// per-frame cost.
fn psia_quick() -> PsiaStream {
    let mut base = Psia::single_object();
    base.ns_scan *= 16;
    base.ns_accum *= 16;
    PsiaStream::new(base, 96, 0.1)
}

fn parse_args() -> Args {
    let mut a = Args {
        quick: false,
        table1: false,
        fig2: false,
        fig3: false,
        fig4: false,
        fig5: false,
        fig6: false,
        fig7: false,
        ablations: false,
        speedup: false,
        csv_dir: None,
        trace_dir: None,
        custom: Vec::new(),
    };
    let mut any = false;
    let mut args_iter = std::env::args().skip(1);
    while let Some(arg) = args_iter.next() {
        match arg.as_str() {
            "--csv" => {
                let dir = args_iter.next().unwrap_or_else(|| {
                    eprintln!("--csv requires a directory argument");
                    std::process::exit(2);
                });
                a.csv_dir = Some(dir.into());
            }
            "--trace" => {
                let dir = args_iter.next().unwrap_or_else(|| {
                    eprintln!("--trace requires a directory argument");
                    std::process::exit(2);
                });
                a.trace_dir = Some(dir.into());
                any = true;
            }
            "--quick" => a.quick = true,
            "--table1" => {
                a.table1 = true;
                any = true;
            }
            "--fig2" => {
                a.fig2 = true;
                any = true;
            }
            "--fig3" => {
                a.fig3 = true;
                any = true;
            }
            "--fig4" => {
                a.fig4 = true;
                any = true;
            }
            "--fig5" => {
                a.fig5 = true;
                any = true;
            }
            "--fig6" => {
                a.fig6 = true;
                any = true;
            }
            "--fig7" => {
                a.fig7 = true;
                any = true;
            }
            "--ablations" => {
                a.ablations = true;
                any = true;
            }
            "--speedup" => {
                a.speedup = true;
                any = true;
            }
            "--run" => {
                a.custom = args_iter.by_ref().collect();
                any = true;
            }
            "--all" => any = false,
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if !any {
        a.table1 = true;
        a.fig2 = true;
        a.fig3 = true;
        a.fig4 = true;
        a.fig5 = true;
        a.fig6 = true;
        a.fig7 = true;
        a.ablations = true;
        a.speedup = true;
    }
    a
}

fn main() {
    let args = parse_args();
    let machine = MachineParams::default();

    // One Mandelbrot table per process, built by the first section that
    // needs it and shared by all of them.
    let mandel = std::cell::OnceCell::new();
    let mandel = || {
        mandel.get_or_init(|| {
            CostTable::build(&if args.quick { Mandelbrot::quick() } else { Mandelbrot::paper() })
        })
    };

    if args.table1 {
        print_table1();
    }
    if args.fig2 || args.fig3 {
        print_trace_figures(args.fig2, args.fig3, mandel(), machine);
    }

    let figs = [
        (args.fig4, 4u32, Kind::STATIC),
        (args.fig5, 5, Kind::GSS),
        (args.fig6, 6, Kind::TSS),
        (args.fig7, 7, Kind::FAC2),
    ];
    if figs.iter().any(|f| f.0) {
        println!("\nBuilding workload cost tables...");
        let psia = CostTable::build(&if args.quick { psia_quick() } else { PsiaStream::paper() });
        report_workload(mandel());
        report_workload(&psia);
        for (enabled, fig_no, inter) in figs {
            if !enabled {
                continue;
            }
            run_figure(fig_no, inter, mandel(), &psia, machine, args.csv_dir.as_deref());
        }
    }
    if let Some(dir) = args.trace_dir.as_deref() {
        run_trace_export(dir, args.quick);
    }
    if args.ablations {
        run_ablations(mandel());
    }
    if args.speedup {
        run_speedup(mandel());
    }
    if !args.custom.is_empty() {
        run_custom(&args.custom, machine);
    }
}

/// Real-thread runs with tracing on, exported as per-worker activity
/// JSON plus chrome://tracing event files — the paper's Figure 2/3
/// breakdowns measured on actual executions instead of the simulator.
fn run_trace_export(dir: &std::path::Path, quick: bool) {
    println!("\n#############################################################");
    println!("Per-worker activity export (live runs, wall-clock traces)");
    let n = if quick { 4_000 } else { 20_000 };
    let workload = Synthetic::uniform(n, 1_000, 50_000, 3);
    std::fs::create_dir_all(dir).expect("create trace dir");
    let (nodes, wpn) = (2u32, 4u32);
    for approach in [Approach::MpiMpi, Approach::MpiOpenMp] {
        for intra in [Kind::STATIC, Kind::SS, Kind::GSS] {
            let r = HierSchedule::builder()
                .inter(Kind::FAC2)
                .intra(intra)
                .approach(approach)
                .nodes(nodes)
                .workers_per_node(wpn)
                .trace(true)
                .build()
                .run_live(&workload);
            let label = format!("FAC2+{intra} ({approach})");
            let report = ActivityReport::build(&label, &r.trace, &r.stats, nodes * wpn);
            let slug = format!(
                "{}_{}",
                match approach {
                    Approach::MpiMpi => "mpi_mpi",
                    Approach::MpiOpenMp => "mpi_omp",
                },
                format!("{intra}").to_lowercase()
            );
            let activity = dir.join(format!("activity_{slug}.json"));
            std::fs::write(&activity, report.to_json()).expect("write activity json");
            let chrome = dir.join(format!("chrome_{slug}.json"));
            std::fs::write(&chrome, chrome_trace(&r.trace, wpn, &[], &[]))
                .expect("write chrome trace");
            let polls: u64 = report.workers.iter().map(|w| w.lock_polls).sum();
            println!(
                "  {label:<22} makespan {:>7.3}ms  compute-cov {:.3}  failed lock polls {:>6}  \
                 -> {}, {}",
                report.makespan_ns as f64 / 1e6,
                report.compute_cov,
                polls,
                activity.display(),
                chrome.display()
            );
        }
    }
    println!("  open the chrome_*.json files in chrome://tracing or https://ui.perfetto.dev");
}

/// A user-specified sweep: both approaches over the given grid.
fn run_custom(pairs: &[String], machine: MachineParams) {
    let mut inter: Technique = Technique::gss();
    let mut intra: Technique = Technique::gss();
    let mut nodes: Vec<u32> = vec![2, 4, 8, 16];
    let mut wpn: u32 = 16;
    let mut workload = String::from("mandelbrot-quick");
    for pair in pairs {
        let Some((key, value)) = pair.split_once('=') else {
            eprintln!("--run arguments must be key=value, got {pair:?}");
            std::process::exit(2);
        };
        let fail = |e: String| -> ! {
            eprintln!("bad {key}: {e}");
            std::process::exit(2);
        };
        match key {
            "inter" => inter = value.parse().unwrap_or_else(|e| fail(e)),
            "intra" => intra = value.parse().unwrap_or_else(|e| fail(e)),
            "wpn" => {
                wpn = value.parse().unwrap_or_else(|e: std::num::ParseIntError| fail(e.to_string()))
            }
            "nodes" => {
                nodes = value
                    .split(',')
                    .map(|v| v.parse().unwrap_or_else(|e| fail(format!("{e}"))))
                    .collect()
            }
            "workload" => workload = value.to_string(),
            other => {
                eprintln!("unknown --run key {other:?}");
                std::process::exit(2);
            }
        }
    }
    let table = build_workload(&workload);
    report_workload(&table);
    let spec = hier::HierSpec { inter, intra };
    println!("\ncustom sweep: {} over {nodes:?} nodes x {wpn} workers/node", spec.label());
    println!(
        "    {:<12}{}",
        "approach",
        nodes.iter().map(|n| format!("{n:>6} nodes  ")).collect::<String>()
    );
    for approach in Approach::ALL {
        if approach == Approach::MpiOpenMp && !spec.supported_by_openmp() {
            println!("    {:<12}(not supported by the Intel OpenMP runtime)", approach.name());
            continue;
        }
        print!("    {:<12}", approach.name());
        for &n in &nodes {
            let s = HierSchedule::builder()
                .inter_technique(inter)
                .intra_technique(intra)
                .approach(approach)
                .nodes(n)
                .workers_per_node(wpn)
                .machine(machine)
                .build()
                .simulate(&table)
                .seconds();
            print!("{s:>10.3}s  ");
        }
        println!();
    }
}

fn build_workload(name: &str) -> CostTable {
    let mut parts = name.split(':');
    let head = parts.next().unwrap_or_default();
    let nums: Vec<u64> = parts
        .map(|p| {
            p.parse().unwrap_or_else(|e| {
                eprintln!("bad workload: {e}");
                std::process::exit(2);
            })
        })
        .collect();
    match (head, nums.as_slice()) {
        ("mandelbrot-paper", []) => CostTable::build(&Mandelbrot::paper()),
        ("mandelbrot-quick", []) => CostTable::build(&Mandelbrot::quick()),
        ("psia-paper", []) => CostTable::build(&PsiaStream::paper()),
        ("psia-quick", []) => CostTable::build(&psia_quick()),
        ("adjoint", [n]) => {
            CostTable::build(&workloads::AdjointConvolution::new(*n as usize, 0xADC0))
        }
        ("uniform", [n, min, max, seed]) => {
            CostTable::build(&Synthetic::uniform(*n, *min, *max, *seed))
        }
        ("constant", [n, cost]) => CostTable::build(&Synthetic::constant(*n, *cost)),
        _ => {
            eprintln!("unknown workload {name:?}");
            std::process::exit(2);
        }
    }
}

/// Speedup / parallel-efficiency tables for the headline combinations —
/// the derived metrics readers compute from Figures 5 and 7 by hand.
fn run_speedup(table: &CostTable) {
    println!("\n#############################################################");
    println!("Scaling study (Mandelbrot, 16 workers/node)");
    for (inter, intra) in [(Kind::GSS, Kind::STATIC), (Kind::FAC2, Kind::GSS)] {
        for approach in Approach::ALL {
            let study = hdls::report::ScalingStudy::run(
                inter,
                intra,
                approach,
                &NODE_COUNTS,
                WORKERS_PER_NODE,
                MachineParams::default(),
                table,
            );
            println!("\n{}", study.render());
        }
    }
}

/// Ablations of the design choices DESIGN.md calls out, on the
/// Mandelbrot workload at 4 nodes x 16 workers.
fn run_ablations(table: &CostTable) {
    println!("\n#############################################################");
    println!("Ablations (Mandelbrot, 4 nodes x 16 workers)");
    let base = |inter: Kind, intra: Kind, approach: Approach| {
        HierSchedule::builder()
            .inter(inter)
            .intra(intra)
            .approach(approach)
            .nodes(4)
            .workers_per_node(16)
    };

    // 1. Lock polling on/off: the X+SS pathology is the lock model.
    let on = base(Kind::STATIC, Kind::SS, Approach::MpiMpi).build().simulate(table);
    let off = base(Kind::STATIC, Kind::SS, Approach::MpiMpi)
        .machine(MachineParams::default().without_lock_polling())
        .build()
        .simulate(table);
    println!("\n  lock polling (STATIC+SS, MPI+MPI):");
    println!("    penalty on : {:>8.2}s", on.seconds());
    println!("    penalty off: {:>8.2}s", off.seconds());

    // 2. Fastest-worker refill vs dedicated refiller. TSS+FAC2 refills
    // often enough for the policy to matter.
    let fastest = base(Kind::TSS, Kind::FAC2, Approach::MpiMpi).build().simulate(table);
    let dedicated = base(Kind::TSS, Kind::FAC2, Approach::MpiMpi)
        .refill(hier::sim::RefillPolicy::Dedicated)
        .build()
        .simulate(table);
    println!("\n  local-queue refill policy (TSS+FAC2, MPI+MPI):");
    println!("    fastest worker (paper): {:>8.2}s", fastest.seconds());
    println!("    dedicated refiller    : {:>8.2}s", dedicated.seconds());

    // 3. Global queue realisation: the PDP'19 single-atomic distributed
    // chunk calculation vs lock-guarded counters (two extra round trips
    // per fetch).
    let atomic = base(Kind::FAC2, Kind::GSS, Approach::MpiMpi).build().simulate(table);
    let locked = base(Kind::FAC2, Kind::GSS, Approach::MpiMpi)
        .global_queue(hier::GlobalQueueMode::LockedCounters)
        .build()
        .simulate(table);
    println!("\n  global queue realisation (FAC2+GSS, MPI+MPI):");
    println!("    single fetch_and_op (paper [15]): {:>8.3}s", atomic.seconds());
    println!("    lock-guarded counters           : {:>8.3}s", locked.seconds());

    // 4. OpenMP nowait (the paper's future work).
    let barrier = base(Kind::GSS, Kind::STATIC, Approach::MpiOpenMp).build().simulate(table);
    let nowait =
        base(Kind::GSS, Kind::STATIC, Approach::MpiOpenMp).omp_nowait(true).build().simulate(table);
    let proposed = base(Kind::GSS, Kind::STATIC, Approach::MpiMpi).build().simulate(table);
    println!("\n  OpenMP nowait (GSS+STATIC):");
    println!("    MPI+OpenMP, barrier: {:>8.2}s", barrier.seconds());
    println!("    MPI+OpenMP, nowait : {:>8.2}s", nowait.seconds());
    println!("    MPI+MPI (proposed) : {:>8.2}s", proposed.seconds());
}

fn print_table1() {
    println!("Table 1: mapping between the DLS techniques and the OpenMP schedule clause");
    println!("---------------------------------------------------------------------------");
    println!("  {:<12}  OpenMP schedule clause", "DLS technique");
    for row in table1() {
        match row.omp {
            Some(omp) => println!("  {:<12}  {omp}", row.technique.name()),
            None => println!("  {:<12}  (none in the OpenMP standard)", row.technique.name()),
        }
    }
}

fn report_workload(t: &CostTable) {
    let s = t.stats();
    println!(
        "  {}: N = {}, serial = {:.1}s, cov = {:.2}, max/mean = {:.1}",
        t.name(),
        s.n,
        s.total as f64 / 1e9,
        s.cov(),
        s.imbalance_factor()
    );
}

fn print_trace_figures(fig2: bool, fig3: bool, table: &CostTable, machine: MachineParams) {
    // Figures 2 and 3: one node, 8 workers, an imbalanced loop; compare
    // the per-worker timelines of the two approaches. FAC2 at the
    // (single-node) global level produces the multi-chunk structure the
    // paper's illustrations show.
    let runs = [
        (
            fig2,
            "Figure 2: MPI+OpenMP at the shared-memory level (implicit synchronization)",
            Approach::MpiOpenMp,
        ),
        (
            fig3,
            "Figure 3: MPI+MPI at the shared-memory level (no implicit synchronization)",
            Approach::MpiMpi,
        ),
    ];
    for (enabled, title, approach) in runs {
        if !enabled {
            continue;
        }
        let schedule = HierSchedule::builder()
            .inter(Kind::FAC2)
            .intra(Kind::STATIC)
            .approach(approach)
            .nodes(1)
            .workers_per_node(8)
            .machine(machine)
            .trace(true)
            .build();
        let r = schedule.simulate(table);
        println!("\n{title}");
        println!("  loop time: {:.3}s", r.seconds());
        println!("{}", r.trace.gantt(8, 64));
        println!("  worker   compute(s)   sched(s)   sync+idle(s)");
        for (w, compute, sched, idle) in r.trace.figure_rows(8) {
            println!("  {w:>6}   {compute:>10.3}   {sched:>8.3}   {idle:>12.3}");
        }
    }
}

fn run_figure(
    fig_no: u32,
    inter: Kind,
    mandel: &CostTable,
    psia: &CostTable,
    machine: MachineParams,
    csv_dir: Option<&std::path::Path>,
) {
    println!("\n#############################################################");
    println!(
        "Figure {fig_no}: {inter} at the inter-node level, 16 workers/node, nodes = {NODE_COUNTS:?}"
    );
    for (sub, table) in [("a", mandel), ("b", psia)] {
        let grid = figure_grid(inter, table, machine, WORKERS_PER_NODE);
        let title = format!("Figure {fig_no}{sub}: {} / {} inter-node", table.name(), inter);
        println!("\n{}", render_grid(&title, &grid));
        // Qualitative checks the paper's text makes for this figure.
        summarize(inter, &grid);
        if let Some(dir) = csv_dir {
            let mut csv = String::from("inter,intra,approach,nodes,seconds\n");
            for p in &grid {
                csv.push_str(&format!(
                    "{},{},{},{},{:.6}\n",
                    p.inter, p.intra, p.approach, p.nodes, p.seconds
                ));
            }
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(format!("fig{fig_no}{sub}.csv"));
            std::fs::write(&path, csv).expect("write csv");
            println!("    wrote {}", path.display());
        }
    }
}

fn summarize(inter: Kind, grid: &[hdls::figures::FigurePoint]) {
    let get = |intra, approach, nodes| point(grid, intra, approach, nodes);
    if inter == Kind::STATIC {
        if let (Some(mm), Some(mo)) =
            (get(Kind::SS, Approach::MpiMpi, 16), get(Kind::SS, Approach::MpiOpenMp, 16))
        {
            println!(
                "    check: STATIC+SS at 16 nodes -> MPI+MPI {mm:.1}s vs MPI+OpenMP {mo:.1}s \
                 (paper: MPI+MPI poorest; here {})",
                if mm > 1.3 * mo {
                    "reproduced"
                } else if mm > mo {
                    "weakly reproduced"
                } else {
                    "NOT reproduced"
                }
            );
        }
    } else if let (Some(mm), Some(mo)) =
        (get(Kind::STATIC, Approach::MpiMpi, 2), get(Kind::STATIC, Approach::MpiOpenMp, 2))
    {
        println!(
            "    check: {inter}+STATIC at 2 nodes -> MPI+MPI {mm:.1}s vs MPI+OpenMP {mo:.1}s \
             (paper: MPI+MPI faster on Mandelbrot, near-equal on PSIA; here {})",
            if mo > 1.1 * mm {
                "clearly faster"
            } else if mo >= mm * 0.999 {
                "equal-or-faster"
            } else {
                "NOT reproduced"
            }
        );
    }
}
