//! PSIA: generate real spin images for a synthetic 3-D scene with the
//! hierarchical scheduler, verify the parallel result against a serial
//! run, and render one spin image.
//!
//! ```text
//! cargo run --release --example psia_scan
//! ```

use hdls::prelude::*;

fn main() {
    let psia = Psia::single_object();
    println!(
        "scene: {} oriented points, {}x{} spin images, bin size {}",
        psia.cloud().len(),
        psia.params().image_width,
        psia.params().image_width,
        psia.params().bin_size,
    );

    // Serial reference.
    let serial: u64 = (0..psia.n_iters()).map(|i| psia.execute(i)).sum();

    // Hierarchical parallel run (real threads, real kernel):
    // FAC2 across 2 nodes, GSS within each node.
    let schedule = HierSchedule::builder()
        .inter(Kind::FAC2)
        .intra(Kind::GSS)
        .approach(Approach::MpiMpi)
        .nodes(2)
        .workers_per_node(4)
        .build();
    let live = schedule.run_live(&psia);
    println!(
        "parallel checksum {:#x} — {}",
        live.checksum,
        if live.checksum == serial { "matches serial" } else { "MISMATCH" }
    );
    assert_eq!(live.checksum, serial);

    println!("\nper-worker spin images generated:");
    for (w, ws) in live.stats.workers.iter().enumerate() {
        println!("  worker {w}: {:>5} images in {:>3} sub-chunks", ws.iterations, ws.sub_chunks);
    }

    // Render the spin image of the densest point.
    let densest = {
        let counts = psia.contributing_all();
        (0..psia.n_iters()).max_by_key(|&i| counts[i as usize]).expect("non-empty scene")
    };
    let img = psia.image(densest);
    println!("\nspin image of point {densest} ({} contributing points):", img.contributing);
    let max = img.bins.iter().cloned().fold(0.0f32, f32::max).max(1e-9);
    let shades = [' ', '.', ':', '+', '*', '#', '@'];
    for row in 0..img.width {
        let line: String = (0..img.width)
            .map(|col| {
                let v = img.bins[row * img.width + col] / max;
                shades[((v * (shades.len() - 1) as f32).round() as usize).min(shades.len() - 1)]
            })
            .collect();
        println!("  |{line}|");
    }
}
