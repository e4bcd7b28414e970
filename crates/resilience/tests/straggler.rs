//! Deterministic straggler resilience: under a 4× injected slowdown on
//! one rank, the adaptive techniques (GSS, FAC2) lose strictly less
//! makespan than STATIC — on both hierarchies. This is the paper's
//! load-imbalance argument replayed as a fault-injection scenario: the
//! dynamic techniques route work away from the slow rank, the static
//! pre-partition cannot.

use dls::Kind;
use hier::config::{Approach, HierSpec, RunConfig};
use hier::sim::simulate;
use resilience::FaultPlan;
use workloads::synthetic::Synthetic;
use workloads::CostTable;

const N_ITERS: u64 = 800;

/// Makespan of `kind`+`kind` under `plan`, compute-dominated so the
/// scheduling (not lock service) decides the outcome.
fn makespan(approach: Approach, kind: Kind, plan: FaultPlan) -> u64 {
    let table = CostTable::build(&Synthetic::constant(N_ITERS, 50_000));
    let mut cfg = RunConfig::new(2, 4, HierSpec::new(kind, kind), approach);
    cfg.faults = plan;
    simulate(&cfg, &table).makespan
}

#[test]
fn adaptive_techniques_absorb_a_4x_straggler_better_than_static() {
    for approach in [Approach::MpiMpi, Approach::MpiOpenMp] {
        // Degradation ratio: straggler makespan / healthy makespan.
        let degrade = |kind: Kind| {
            let healthy = makespan(approach, kind, FaultPlan::none());
            let slowed = makespan(approach, kind, FaultPlan::straggler(1, 4.0));
            assert!(slowed >= healthy, "{approach:?} {kind:?}: straggler sped the run up");
            (slowed as f64 / healthy as f64, healthy, slowed)
        };
        let (d_static, ..) = degrade(Kind::STATIC);
        let (d_gss, ..) = degrade(Kind::GSS);
        let (d_fac2, ..) = degrade(Kind::FAC2);
        assert!(
            d_gss < d_static,
            "{approach:?}: GSS degraded {d_gss:.2}x, not better than STATIC {d_static:.2}x"
        );
        assert!(
            d_fac2 < d_static,
            "{approach:?}: FAC2 degraded {d_fac2:.2}x, not better than STATIC {d_static:.2}x"
        );
        // STATIC pays close to the full 4x on the straggler's share; the
        // adaptive schedules must shed a substantial part of that.
        assert!(d_static > 2.0, "{approach:?}: STATIC degraded only {d_static:.2}x");
    }
}

#[test]
fn straggler_runs_are_deterministic() {
    let a = makespan(Approach::MpiMpi, Kind::FAC2, FaultPlan::straggler(1, 4.0));
    let b = makespan(Approach::MpiMpi, Kind::FAC2, FaultPlan::straggler(1, 4.0));
    assert_eq!(a, b);
}
