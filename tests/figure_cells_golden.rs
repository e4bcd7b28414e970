//! Exact pins of the figure-scale SS cells.
//!
//! `sim_golden` digests every observable of small synthetic runs (2
//! nodes × 3 workers, 300 iterations); this file pins the cells of
//! Figures 4–7 that carry almost all of the simulated sub-chunks: SS
//! within each node, at 16 workers per node on 2 and 16 nodes, for both
//! approaches and the four inter-node techniques, over the same
//! quick Mandelbrot table `figures --quick` uses. At that scale the
//! event queue holds up to 256 pending events and the MPI+OpenMP team
//! has 16 threads, so these are the runs that prove the simulator's
//! queue and team dispatch reproduce the figures to the nanosecond.
//!
//! Each cell folds the makespan, the lock-polling penalty, the run
//! totals and every per-worker and per-node counter into one FNV-1a
//! digest. A figure cell records no trace, RMA tape, executed
//! sub-chunks or recovery events; the test checks that they are empty.
//!
//! A digest that moves means a figure's schedule or a counter changed.
//! If that is intended, say so in the PR and re-pin; if not, it is a
//! bug.

use hdls::prelude::*;

#[path = "../crates/hier/tests/support/fnv.rs"]
mod fnv;
use fnv::Fnv;

/// The quick Mandelbrot table of `figures --quick`, built once for the
/// whole binary.
fn mandelbrot_quick() -> &'static CostTable {
    static TABLE: std::sync::OnceLock<CostTable> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| CostTable::build(&Mandelbrot::quick()))
}

/// The digest of one figure cell: `inter`+SS over `nodes` × 16.
fn cell(inter: Kind, approach: Approach, nodes: u32) -> u64 {
    let r = HierSchedule::builder()
        .inter(inter)
        .intra(Kind::SS)
        .approach(approach)
        .nodes(nodes)
        .workers_per_node(16)
        .machine(MachineParams::default())
        .build()
        .simulate(mandelbrot_quick());
    assert!(r.trace.segments().is_empty(), "a figure cell records no trace");
    assert!(r.rma.is_empty(), "a figure cell records no RMA tape");
    assert!(r.executed.is_empty(), "a figure cell records no sub-chunks");
    assert!(r.recovery.is_empty(), "a figure cell injects no faults");

    let mut h = Fnv::new();
    h.words(&[r.makespan, r.lock_poll_penalty]);
    let s = &r.stats;
    h.words(&[s.total_iterations, s.checksum, s.global_accesses]);
    h.word(s.workers.len() as u64);
    for w in &s.workers {
        h.words(&[
            w.iterations,
            w.sub_chunks,
            w.global_fetches,
            w.lock_polls,
            w.lock_time_ns,
            w.rma_ops,
            w.reclaims,
        ]);
    }
    h.word(s.nodes.len() as u64);
    for n in &s.nodes {
        h.words(&[
            n.deposits,
            n.sub_chunks,
            n.lock_acquisitions,
            n.lock_contended,
            n.lock_polls,
            n.lock_revocations,
        ]);
    }
    h.0
}

/// Every cell of `approach`, checked against `pins` (inter, nodes,
/// digest); all mismatches are reported at once.
fn check(approach: Approach, pins: &[(Kind, u32, u64)]) {
    let mismatches: Vec<String> = pins
        .iter()
        .filter_map(|&(inter, nodes, want)| {
            let got = cell(inter, approach, nodes);
            (got != want).then(|| format!("{inter}+SS {approach} @{nodes}: {got:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "digests moved:\n{}", mismatches.join("\n"));
}

#[test]
fn mpi_mpi_ss_cells_are_pinned() {
    check(
        Approach::MpiMpi,
        &[
            (Kind::STATIC, 2, 0x85d3_703d_8a5d_808a),
            (Kind::STATIC, 16, 0x91d8_30d5_3a6e_5acf),
            (Kind::GSS, 2, 0x070b_3b09_0402_dcdf),
            (Kind::GSS, 16, 0xa744_1a0e_9d6f_6142),
            (Kind::TSS, 2, 0xb405_54ce_7737_667f),
            (Kind::TSS, 16, 0x7112_063b_a962_964f),
            (Kind::FAC2, 2, 0x43e9_8183_6cf7_1f83),
            (Kind::FAC2, 16, 0xf3b3_ca5a_3a0d_c066),
        ],
    );
}

#[test]
fn mpi_openmp_ss_cells_are_pinned() {
    check(
        Approach::MpiOpenMp,
        &[
            (Kind::STATIC, 2, 0x5f73_f125_2080_adb1),
            (Kind::STATIC, 16, 0x406f_bc45_90e1_7e09),
            (Kind::GSS, 2, 0x5120_63de_fedf_21bc),
            (Kind::GSS, 16, 0xf5d5_8eb8_fcab_ace1),
            (Kind::TSS, 2, 0x8695_9e4d_fa6d_f106),
            (Kind::TSS, 16, 0x7d94_d1dc_4d9e_eb09),
            (Kind::FAC2, 2, 0x1f1b_7d18_8949_9ce8),
            (Kind::FAC2, 16, 0x0367_e2f0_86e1_5ea4),
        ],
    );
}
