//! Chaos demo: inject rank crashes and stragglers into a hierarchical
//! schedule and watch the lease-based recovery protocol survive them —
//! lock repair, refill failover and exactly-once chunk reclamation,
//! with the full recovery timeline printed and makespans compared.
//!
//! ```text
//! cargo run --release --example chaos
//! ```

use hdls::prelude::*;

fn schedule_with(faults: FaultPlan) -> HierSchedule {
    HierSchedule::builder()
        .inter(Kind::GSS)
        .intra(Kind::SS)
        .approach(Approach::MpiMpi)
        .nodes(2)
        .workers_per_node(4)
        .trace(true)
        .faults(faults)
        .build()
}

fn main() {
    // An irregular loop: 8k iterations, exponential costs, 50us mean.
    let workload = Synthetic::exponential(8_000, 50_000.0, 42);
    let table = CostTable::build(&workload);

    // --- Baseline: the fault-free run. ----------------------------------
    let clean = schedule_with(FaultPlan::none()).simulate(&table);
    println!("fault-free          : {:.6}s (virtual)", clean.seconds());
    assert_eq!(clean.stats.total_iterations, 8_000);

    // --- One rank dies mid-run. -----------------------------------------
    // Rank 5 crashes at t=20ms, whatever it is doing — possibly holding
    // its node's window lock or an undeposited global chunk. Survivors
    // repair the lock, fail the refill over and reclaim the lease.
    let crashed = schedule_with(FaultPlan::crash(5, 20_000_000)).simulate(&table);
    println!("1 crash (rank 5)    : {:.6}s (virtual)", crashed.seconds());
    assert_eq!(crashed.stats.total_iterations, 8_000, "no iteration may be lost");

    println!("\nrecovery timeline:");
    for e in &crashed.recovery {
        println!("  [{:>14}] {e}", e.label());
    }
    let reclaims: u64 = crashed.stats.workers.iter().map(|w| w.reclaims).sum();
    let repairs: u64 = crashed.stats.nodes.iter().map(|n| n.lock_revocations).sum();
    println!("\n  reclaims performed  : {reclaims}");
    println!("  locks repaired      : {repairs}");

    // The recovery events overlay the Perfetto timeline as instant
    // markers ("ph": "i") on the victim's and the reclaimer's tracks.
    // Pass a directory argument to write the trace for ui.perfetto.dev.
    let trace_json = chrome_trace(&crashed.trace, 4, &crashed.recovery, &[]);
    if let Some(dir) = std::env::args().nth(1) {
        let path = std::path::Path::new(&dir).join("chaos_trace.json");
        std::fs::write(&path, &trace_json).expect("write chrome trace");
        println!("  chrome trace        : {} (load in ui.perfetto.dev)", path.display());
    } else {
        println!("  chrome trace        : {} bytes (load in ui.perfetto.dev)", trace_json.len());
    }

    // --- One rank merely limps. -----------------------------------------
    // Rank 3 runs 8x slower from the start; dynamic self-scheduling
    // routes work around it, so the hit is far less than 8x.
    let limping = schedule_with(FaultPlan::straggler(3, 8.0)).simulate(&table);
    println!("\n1 straggler (8x)    : {:.6}s (virtual)", limping.seconds());
    assert_eq!(limping.stats.total_iterations, 8_000);

    // --- A seeded random plan: reproducible chaos. -----------------------
    let plan = FaultPlan::seeded(7, 8);
    let chaotic = schedule_with(plan.clone()).simulate(&table);
    println!(
        "seeded plan (seed 7): {:.6}s (virtual), {} faults, {} recovery events",
        chaotic.seconds(),
        plan.faults().len(),
        chaotic.recovery.len()
    );
    assert_eq!(chaotic.stats.total_iterations, 8_000);

    println!(
        "\ncrash overhead      : {:+.2}%",
        (crashed.seconds() / clean.seconds() - 1.0) * 100.0
    );
    println!("straggler overhead  : {:+.2}%", (limping.seconds() / clean.seconds() - 1.0) * 100.0);
}
