//! Reproduce the paper's Figures 2 and 3 as timelines: the implicit
//! end-of-chunk synchronization of MPI+OpenMP vs. the wait-free MPI+MPI
//! execution, on one shared-memory node.
//!
//! ```text
//! cargo run --release --example trace_timelines [--svg DIR] [--export DIR]
//! ```
//!
//! With `--svg DIR`, also writes `figure2.svg` / `figure3.svg` and the
//! raw segment CSVs into `DIR`. With `--export DIR`, writes each run's
//! per-worker activity report (`figureN_activity.json`) and a
//! chrome://tracing event file (`figureN_chrome.json`) into `DIR`.

use hdls::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(std::path::PathBuf::from)
    };
    let svg_dir = dir_after("--svg");
    let export_dir = dir_after("--export");
    // Mostly-cheap iterations with scattered expensive ones: under
    // schedule(static) some thread of every chunk draws the long straw
    // and the rest of the team waits at the implicit barrier.
    let workload = Synthetic::bimodal(6_000, 100_000, 8_000_000, 3, 11);
    let table = CostTable::build(&workload);

    for (fig, title, approach) in [
        (2, "Figure 2 — MPI+OpenMP: implicit synchronization at chunk ends", Approach::MpiOpenMp),
        (3, "Figure 3 — MPI+MPI: the fastest worker refills, nobody waits", Approach::MpiMpi),
    ] {
        // FAC2 at the (single-node) global level hands out a halving
        // sequence of chunks, so the intra level sees many worksharing
        // regions — the structure Figures 2/3 illustrate.
        let r = HierSchedule::builder()
            .inter(Kind::FAC2)
            .intra(Kind::STATIC)
            .approach(approach)
            .nodes(1)
            .workers_per_node(8)
            .trace(true)
            .build()
            .simulate(&table);
        let totals = r.trace.totals();
        println!("\n{title}");
        println!(
            "  t_end = {:.3}s | compute {:.3}s, scheduling {:.3}s, sync+idle {:.3}s",
            r.seconds(),
            cluster_sim::time::to_secs(totals.compute),
            cluster_sim::time::to_secs(totals.sched),
            cluster_sim::time::to_secs(totals.sync + totals.idle),
        );
        print!("{}", r.trace.gantt(8, 70));
        println!("  legend: '#' compute   's' obtain chunk   '.' wait/idle");
        if let Some(dir) = &svg_dir {
            std::fs::create_dir_all(dir).expect("create svg dir");
            let svg_path = dir.join(format!("figure{fig}.svg"));
            std::fs::write(&svg_path, r.trace.to_svg(8, 900)).expect("write svg");
            let csv_path = dir.join(format!("figure{fig}.csv"));
            std::fs::write(&csv_path, r.trace.to_csv()).expect("write csv");
            println!("  wrote {} and {}", svg_path.display(), csv_path.display());
        }
        if let Some(dir) = &export_dir {
            std::fs::create_dir_all(dir).expect("create export dir");
            let label = format!("FAC2+STATIC ({approach})");
            let report = ActivityReport::build(&label, &r.trace, &r.stats, 8);
            let json_path = dir.join(format!("figure{fig}_activity.json"));
            std::fs::write(&json_path, report.to_json()).expect("write activity json");
            let chrome_path = dir.join(format!("figure{fig}_chrome.json"));
            std::fs::write(&chrome_path, hdls::export::chrome_trace(&r.trace, 8, &[], &[]))
                .expect("write chrome trace");
            println!(
                "  wrote {} and {} (compute c.o.v. {:.3})",
                json_path.display(),
                chrome_path.display(),
                report.compute_cov
            );
        }
    }
}
