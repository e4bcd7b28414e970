//! Adaptive weighted factoring (AWF) at the intra-node level: the
//! scheduler *learns* which workers are slow from measured rates and
//! shrinks their future sub-chunks — the adaptive extension the paper's
//! related-work section traces to Banicescu et al.
//!
//! ```text
//! cargo run --release --example awf_adaptive
//! ```

use dls::adaptive::AwfVariant;
use hdls::prelude::*;

fn main() {
    // A regular loop on an irregular *machine*: two workers per node
    // run 3x slower (e.g. thermally throttled cores).
    let workload = Synthetic::constant(400_000, 8_000);
    let table = CostTable::build(&workload);
    let stragglers = (0..16)
        .filter(|w| w % 8 < 2)
        .fold(FaultPlan::none(), |p, w| p.with(w, FaultKind::Straggle { factor: 3.0, from_ns: 0 }));

    // Fine-grained global chunks give the adaptive scheme rounds to
    // learn in.
    let inter = Technique::Fsc(dls::nonadaptive::FixedSizeChunking::with_chunk(4_000));

    println!("2 nodes x 8 workers; workers 0,1 of each node are 3x slower\n");
    println!("{:<22} {:>9} {:>24}", "intra-node scheduling", "time", "slow-worker iterations");

    let run = |label: &str, awf: Option<AwfVariant>| {
        let mut b = HierSchedule::builder()
            .inter_technique(inter)
            .intra(Kind::FAC2)
            .approach(Approach::MpiMpi)
            .nodes(2)
            .workers_per_node(8)
            .faults(stragglers.clone());
        if let Some(v) = awf {
            b = b.awf(v);
        }
        let r = b.build().simulate(&table);
        let slow: u64 = r
            .stats
            .workers
            .iter()
            .enumerate()
            .filter(|(w, _)| w % 8 < 2)
            .map(|(_, s)| s.iterations)
            .sum();
        println!("{label:<22} {:>8.3}s {:>24}", r.seconds(), slow / 4);
        r.seconds()
    };

    let plain = run("FAC2 (non-adaptive)", None);
    let mut best = plain;
    for v in AwfVariant::ALL {
        best = best.min(run(v.name(), Some(v)));
    }

    println!(
        "\nAWF converges the slow workers to their fair share (10000\n\
         iterations = 1/3 of a fast worker's 30000) instead of\n\
         overshooting, and trims the makespan by {:.1}% here. The gain is\n\
         modest because factoring's shrinking tail already self-corrects;\n\
         AWF's value grows with scheduling overhead and chunk coarseness.",
        (1.0 - best / plain) * 100.0
    );
}
