//! Qualitative figure-shape tests: the orderings the paper's evaluation
//! reports must hold on reduced instances of the same workloads. These
//! are the guardrails that keep the reproduction honest when anything
//! in the executors or cost models changes.

use hdls::prelude::*;

/// A reduced boundary-zoom Mandelbrot with the paper instance's cost
/// structure (sparse heavy clusters, shuffled tiles, mean pixel cost a
/// few times a lock acquisition). Built once for the whole binary.
fn mandelbrot_small() -> &'static CostTable {
    static TABLE: std::sync::OnceLock<CostTable> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| CostTable::build(&Mandelbrot::quick()))
}

fn run(table: &CostTable, inter: Kind, intra: Kind, approach: Approach, nodes: u32) -> f64 {
    HierSchedule::builder()
        .inter(inter)
        .intra(intra)
        .approach(approach)
        .nodes(nodes)
        .workers_per_node(16)
        .build()
        .simulate(table)
        .seconds()
}

#[test]
fn fig4_static_inter_approaches_equal_except_ss() {
    let t = mandelbrot_small();
    for intra in [Kind::STATIC, Kind::GSS] {
        let mm = run(t, Kind::STATIC, intra, Approach::MpiMpi, 4);
        let mo = run(t, Kind::STATIC, intra, Approach::MpiOpenMp, 4);
        let ratio = mm / mo;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "STATIC+{intra}: expected parity, got {mm:.3} vs {mo:.3}"
        );
    }
}

#[test]
fn fig4_ss_intra_mpi_mpi_poorest() {
    let t = mandelbrot_small();
    let mm = run(t, Kind::STATIC, Kind::SS, Approach::MpiMpi, 4);
    let mo = run(t, Kind::STATIC, Kind::SS, Approach::MpiOpenMp, 4);
    assert!(mm > 1.5 * mo, "MPI+MPI with SS intra must be clearly poorest: {mm:.3} vs {mo:.3}");
    // ...and poorer than every other MPI+MPI combination.
    for intra in [Kind::STATIC, Kind::GSS, Kind::TSS, Kind::FAC2] {
        let other = run(t, Kind::STATIC, intra, Approach::MpiMpi, 4);
        assert!(mm > other, "SS ({mm:.3}) must beat {intra} ({other:.3}) in badness");
    }
}

#[test]
fn fig5_gss_static_mpi_mpi_wins_at_small_scale() {
    let t = mandelbrot_small();
    let mm = run(t, Kind::GSS, Kind::STATIC, Approach::MpiMpi, 2);
    let mo = run(t, Kind::GSS, Kind::STATIC, Approach::MpiOpenMp, 2);
    assert!(
        mo > 1.15 * mm,
        "GSS+STATIC at 2 nodes: MPI+OpenMP ({mo:.3}) must clearly exceed MPI+MPI ({mm:.3})"
    );
}

#[test]
fn fig5_to_7_dynamic_inter_static_intra_mpi_mpi_never_slower() {
    let t = mandelbrot_small();
    for inter in [Kind::GSS, Kind::TSS, Kind::FAC2] {
        for nodes in [2, 4, 8, 16] {
            let mm = run(t, inter, Kind::STATIC, Approach::MpiMpi, nodes);
            let mo = run(t, inter, Kind::STATIC, Approach::MpiOpenMp, nodes);
            assert!(
                mm <= mo * 1.02,
                "{inter}+STATIC @{nodes}: MPI+MPI {mm:.3} vs MPI+OpenMP {mo:.3}"
            );
        }
    }
}

#[test]
fn scaling_reduces_time() {
    let t = mandelbrot_small();
    for approach in Approach::ALL {
        let small = run(t, Kind::GSS, Kind::GSS, approach, 2);
        let big = run(t, Kind::GSS, Kind::GSS, approach, 16);
        assert!(big < small, "{approach}: {big:.3} !< {small:.3}");
    }
}

#[test]
fn psia_less_imbalanced_and_approaches_closer() {
    // PSIA (balanced, fine-grained) shows smaller approach differences
    // than Mandelbrot for GSS+STATIC — the paper's PSIA observation.
    let psia = CostTable::build(&workloads::PsiaStream::new(Psia::tiny(), 64, 0.1));
    let mandel = mandelbrot_small();
    let gap = |t: &CostTable| {
        let mm = run(t, Kind::GSS, Kind::STATIC, Approach::MpiMpi, 2);
        let mo = run(t, Kind::GSS, Kind::STATIC, Approach::MpiOpenMp, 2);
        mo / mm
    };
    let psia_gap = gap(&psia);
    let mandel_gap = gap(mandel);
    assert!(
        psia_gap < mandel_gap,
        "PSIA approach gap ({psia_gap:.3}) must be smaller than Mandelbrot's ({mandel_gap:.3})"
    );
}

#[test]
fn ablation_lock_polling_drives_the_ss_pathology() {
    // With the polling penalty disabled, the X+SS MPI+MPI slowdown
    // shrinks substantially — the paper's explanation (lock-attempt
    // message storms) is what our model encodes.
    let t = mandelbrot_small();
    let with_poll = run(t, Kind::STATIC, Kind::SS, Approach::MpiMpi, 4);
    let machine = MachineParams::default().without_lock_polling();
    let without_poll = HierSchedule::builder()
        .inter(Kind::STATIC)
        .intra(Kind::SS)
        .approach(Approach::MpiMpi)
        .nodes(4)
        .workers_per_node(16)
        .machine(machine)
        .build()
        .simulate(t)
        .seconds();
    assert!(with_poll > 1.3 * without_poll, "polling on {with_poll:.3} vs off {without_poll:.3}");
}

#[test]
fn deterministic_across_repeats() {
    let t = mandelbrot_small();
    let a = run(t, Kind::FAC2, Kind::GSS, Approach::MpiMpi, 8);
    let b = run(t, Kind::FAC2, Kind::GSS, Approach::MpiMpi, 8);
    assert_eq!(a, b);
}
