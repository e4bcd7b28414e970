//! Systemic imbalance (failure injection): slow down some workers and
//! watch how each intra-node technique copes — dynamic techniques shift
//! iterations away from slow workers, STATIC cannot.
//!
//! ```text
//! cargo run --release --example heterogeneous_cluster
//! ```

use hdls::prelude::*;

fn main() {
    // A perfectly regular loop: all imbalance here is *systemic*.
    let workload = Synthetic::constant(100_000, 50_000); // 50us per iteration
    let table = CostTable::build(&workload);

    // 2 nodes x 8 workers; one node's first two workers run 3x slower
    // (e.g. sharing their cores with another job).
    let stragglers =
        FaultPlan::straggler(0, 3.0).with(1, FaultKind::Straggle { factor: 3.0, from_ns: 0 });

    println!("2 nodes x 8 workers; workers 0 and 1 are 3x slower\n");
    println!(
        "{:<14} {:>10} {:>22} {:>14}",
        "intra-node", "time", "iters (slow workers)", "iters (median)"
    );
    for intra in [Kind::STATIC, Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC2] {
        let schedule = HierSchedule::builder()
            .inter(Kind::GSS)
            .intra(intra)
            .approach(Approach::MpiMpi)
            .nodes(2)
            .workers_per_node(8)
            .faults(stragglers.clone())
            .build();
        let r = schedule.simulate(&table);
        let mut iters: Vec<u64> = r.stats.workers.iter().map(|w| w.iterations).collect();
        let slow = iters[0] + iters[1];
        iters.sort_unstable();
        println!("{:<14} {:>9.2}s {:>22} {:>14}", intra.name(), r.seconds(), slow / 2, iters[8]);
    }

    println!(
        "\nDynamic intra-node techniques give the slow workers fewer\n\
         iterations and finish sooner; STATIC hands every worker an equal\n\
         share and waits for the stragglers."
    );
}
