//! Calibration check tool: prints the imbalance structure of the
//! paper-scale workloads and the key figure ratios the reproduction
//! hinges on. Run after changing `Mandelbrot::paper()`,
//! `PsiaStream::paper()` or `MachineParams::default()` to confirm the
//! shapes still hold. Not part of the reproduction surface, but kept
//! in-tree so the calibration is repeatable.

use hdls::prelude::*;

fn block_ratio(table: &CostTable, blocks: u64) -> f64 {
    let n = table.n_iters();
    let block = n.div_ceil(blocks);
    let sums: Vec<u64> = (0..n)
        .step_by(block as usize)
        .map(|lo| table.range_cost(lo, (lo + block).min(n)))
        .collect();
    let max = *sums.iter().max().unwrap() as f64;
    let mean = sums.iter().sum::<u64>() as f64 / sums.len() as f64;
    max / mean
}

fn report(name: &str, table: &CostTable) {
    let s = table.stats();
    println!(
        "{name}: N={} serial={:.1}s mean={:.1}us cov={:.2} max/mean={:.0}",
        s.n,
        s.total as f64 / 1e9,
        s.mean / 1e3,
        s.cov(),
        s.imbalance_factor()
    );
    for blocks in [32, 64, 256, 1024, 4096] {
        println!("  blocks={blocks:<5} max/mean={:.2}", block_ratio(table, blocks));
    }
}

fn key_ratios(table: &CostTable, label: &str) {
    let run = |inter: Kind, intra: Kind, approach: Approach, nodes: u32| -> f64 {
        HierSchedule::builder()
            .inter(inter)
            .intra(intra)
            .approach(approach)
            .nodes(nodes)
            .workers_per_node(16)
            .build()
            .simulate(table)
            .seconds()
    };
    let mm_gs2 = run(Kind::GSS, Kind::STATIC, Approach::MpiMpi, 2);
    let mo_gs2 = run(Kind::GSS, Kind::STATIC, Approach::MpiOpenMp, 2);
    let mm_gs16 = run(Kind::GSS, Kind::STATIC, Approach::MpiMpi, 16);
    let mo_gs16 = run(Kind::GSS, Kind::STATIC, Approach::MpiOpenMp, 16);
    let mm_ss2 = run(Kind::STATIC, Kind::SS, Approach::MpiMpi, 2);
    let mo_ss2 = run(Kind::STATIC, Kind::SS, Approach::MpiOpenMp, 2);
    let mm_gg2 = run(Kind::GSS, Kind::GSS, Approach::MpiMpi, 2);
    let mo_gg2 = run(Kind::GSS, Kind::GSS, Approach::MpiOpenMp, 2);
    let mm_st2 = run(Kind::STATIC, Kind::STATIC, Approach::MpiMpi, 2);
    let mo_st2 = run(Kind::STATIC, Kind::STATIC, Approach::MpiOpenMp, 2);
    println!("{label}:");
    println!(
        "  GSS+STATIC @2:  MPI+MPI {mm_gs2:.2}s  MPI+OpenMP {mo_gs2:.2}s  (paper 19.6 vs 61.5)"
    );
    println!(
        "  GSS+STATIC @16: MPI+MPI {mm_gs16:.2}s  MPI+OpenMP {mo_gs16:.2}s  (paper 3.1 vs 4.5)"
    );
    println!(
        "  STATIC+SS @2:   MPI+MPI {mm_ss2:.2}s  MPI+OpenMP {mo_ss2:.2}s  (paper: MPI+MPI poorest)"
    );
    println!(
        "  GSS+GSS @2:     MPI+MPI {mm_gg2:.2}s  MPI+OpenMP {mo_gg2:.2}s  (paper: MPI+MPI better)"
    );
    println!("  STATIC+STATIC @2: MPI+MPI {mm_st2:.2}s  MPI+OpenMP {mo_st2:.2}s  (paper: equal)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");

    if which == "mandel" || which == "all" {
        let table = CostTable::build(&Mandelbrot::paper());
        report("mandelbrot-paper", &table);
        key_ratios(&table, "mandelbrot-paper");
    }
    if which == "quick" || which == "all" {
        let table = CostTable::build(&Mandelbrot::quick());
        report("mandelbrot-quick", &table);
        key_ratios(&table, "mandelbrot-quick");
    }
    if which == "psia" || which == "all" {
        let table = CostTable::build(&workloads::PsiaStream::paper());
        report("psia-paper", &table);
        key_ratios(&table, "psia-paper");
    }
}
