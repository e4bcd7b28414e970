//! Chaos sweep over the *real-thread* MPI+MPI executor: rank crashes
//! (plain, holding-lock, as-refiller) injected into actual threads over
//! `mpisim` windows. Recovery here is the real protocol — leases in the
//! shared window, heartbeats piggybacked on queue polls, bounded-poll
//! lock repair, refill failover — not a virtual-time model of it.
//!
//! World rank 0 hosts the global-queue window and is modelled reliable
//! (its death would take the global queue with it, the distributed
//! analogue of losing the whole job launcher), so seeded plans that
//! crash rank 0 are skipped here; the `sim` sweep covers them.
//!
//! Count-based triggers need the victim *thread* to reach its k-th
//! take before the loop drains; on an oversubscribed host the OS may
//! simply not schedule it in time. Correctness (ledger, checksum) is
//! asserted on every run; the *trigger actually fired* assertions
//! retry a few times so one unlucky scheduling round does not fail CI.

use dls::Kind;
use hier::config::{Approach, HierSpec};
use hier::live::{run_live_mpi_mpi, serial_checksum, LiveConfig, LiveResult};
use resilience::{FaultKind, FaultPlan, RecoveryEvent};
use workloads::synthetic::Synthetic;
use workloads::Spin;

const NODES: u32 = 2;
const WPN: u32 = 2;
const N_ITERS: u64 = 400;
const ATTEMPTS: u32 = 6;

fn run(spec: HierSpec, plan: FaultPlan) -> (LiveResult, u64) {
    // Spin-burned microsecond kernels so scheduling is observable: a
    // free-running kernel lets one thread drain the loop before its
    // peers even start. The serial reference checksum comes from the
    // un-burned inner workload (same checksum, no wasted wall-clock).
    let w = Spin(Synthetic::uniform(N_ITERS, 5_000, 40_000, 7));
    let serial = serial_checksum(&Synthetic::uniform(N_ITERS, 5_000, 40_000, 7));
    let mut cfg = LiveConfig::new(NODES, WPN, spec, Approach::MpiMpi);
    cfg.faults = plan;
    (run_live_mpi_mpi(&cfg, &w).expect("live faulted run"), serial)
}

fn check(r: &LiveResult, serial: u64, label: &str) {
    assert_eq!(r.checksum, serial, "{label}: checksum diverged from serial");
    assert_eq!(r.stats.total_iterations, N_ITERS, "{label}: iterations lost or duplicated");
    hier::queue::exactly_once(&r.executed, N_ITERS)
        .unwrap_or_else(|e| panic!("{label}: exactly-once ledger failed: {e:?}"));
}

/// Run until the injected crash actually fires (correctness asserted on
/// every attempt, fired-or-not), then return the faulted result.
fn run_until_crash(spec: HierSpec, plan: &FaultPlan, label: &str) -> LiveResult {
    for _ in 0..ATTEMPTS {
        let (r, serial) = run(spec, plan.clone());
        check(&r, serial, label);
        if r.recovery.iter().any(|e| matches!(e, RecoveryEvent::Crash { .. })) {
            return r;
        }
    }
    panic!("{label}: injected crash never fired in {ATTEMPTS} attempts");
}

#[test]
fn crash_after_take_is_reclaimed_exactly_once() {
    for &(inter, intra) in
        &[(Kind::GSS, Kind::SS), (Kind::FAC2, Kind::GSS), (Kind::TSS, Kind::FAC2)]
    {
        let plan = FaultPlan::none().with(1, FaultKind::Crash { at_ns: 0, after_sub_chunks: 1 });
        let label = format!("live crash {inter:?}+{intra:?}");
        let r = run_until_crash(HierSpec::new(inter, intra), &plan, &label);
        assert!(
            r.recovery
                .iter()
                .any(|e| matches!(e, RecoveryEvent::Crash { rank: 1, holding_lock: false, .. })),
            "{label}: wrong crash event: {:?}",
            r.recovery
        );
        assert!(
            r.recovery.iter().any(|e| matches!(e, RecoveryEvent::Reclaim { owner: 1, .. })),
            "{label}: the dead rank's lease was never reclaimed: {:?}",
            r.recovery
        );
        let reclaims: u64 = r.stats.workers.iter().map(|w| w.reclaims).sum();
        assert!(reclaims > 0, "{label}: reclaim counters empty");
        assert_eq!(r.stats.workers[1].reclaims, 0, "{label}: the corpse reclaimed something");
    }
}

#[test]
fn crash_holding_lock_is_detected_and_repaired() {
    let plan =
        FaultPlan::none().with(3, FaultKind::CrashHoldingLock { at_ns: 0, after_sub_chunks: 1 });
    let r = run_until_crash(HierSpec::new(Kind::GSS, Kind::SS), &plan, "live holding-lock");
    assert!(
        r.recovery
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Crash { rank: 3, holding_lock: true, .. })),
        "holding-lock crash missing: {:?}",
        r.recovery
    );
    assert!(
        r.recovery.iter().any(|e| matches!(e, RecoveryEvent::LockRepair { dead_holder: 3, .. })),
        "abandoned lock never repaired: {:?}",
        r.recovery
    );
    // Rank 3 lives on node 1: the one revocation is counted there.
    let revocations: Vec<u64> = r.stats.nodes.iter().map(|n| n.lock_revocations).collect();
    assert_eq!(revocations, [0, 1]);
}

#[test]
fn crash_as_refiller_fails_the_role_over() {
    let plan = FaultPlan::none().with(2, FaultKind::CrashAsRefiller { after_global_fetches: 1 });
    let r = run_until_crash(HierSpec::new(Kind::FAC2, Kind::GSS), &plan, "live dead-refiller");
    assert!(
        r.recovery.iter().any(|e| matches!(e, RecoveryEvent::Crash { rank: 2, .. })),
        "refiller crash missing: {:?}",
        r.recovery
    );
    // The fetched-but-undeposited chunk lives only in the corpse's
    // lease; the ledger proves it was re-executed. The stalled refill
    // flag must have been failed over for the node to finish.
    assert!(
        r.recovery.iter().any(|e| matches!(e, RecoveryEvent::RefillFailover { from: 2, .. })),
        "refill role never failed over: {:?}",
        r.recovery
    );
    assert!(
        r.recovery.iter().any(|e| matches!(e, RecoveryEvent::Reclaim { owner: 2, .. })),
        "fetched chunk never reclaimed: {:?}",
        r.recovery
    );
}

#[test]
fn seeded_plans_survive_on_live_threads() {
    // Every seeded plan whose crash avoids the reliable rank 0. The
    // ledger and checksum must hold whether or not the scheduler let
    // the victim reach its trigger; across the sweep at least one
    // crash must actually have been exercised.
    let mut ran = 0;
    let mut crashed = 0;
    for seed in 0..16u64 {
        let plan = FaultPlan::seeded(seed, NODES * WPN);
        if plan.crashes(0) {
            continue;
        }
        let spec = match seed % 3 {
            0 => HierSpec::new(Kind::GSS, Kind::SS),
            1 => HierSpec::new(Kind::FAC2, Kind::GSS),
            _ => HierSpec::new(Kind::TSS, Kind::FAC2),
        };
        let (r, serial) = run(spec, plan);
        check(&r, serial, &format!("live seeded {seed}"));
        if r.recovery.iter().any(|e| matches!(e, RecoveryEvent::Crash { .. })) {
            crashed += 1;
        }
        ran += 1;
    }
    assert!(ran >= 8, "only {ran} seeded live runs executed");
    assert!(crashed > 0, "no seeded live run exercised a crash");
}

#[test]
fn straggler_slows_but_does_not_corrupt() {
    let (r, serial) = run(HierSpec::new(Kind::GSS, Kind::GSS), FaultPlan::straggler(3, 4.0));
    check(&r, serial, "live straggler");
    assert!(r.recovery.is_empty(), "a straggler is slow, not dead");
}

#[test]
fn inert_plan_matches_fault_free_run() {
    let (r, serial) = run(HierSpec::new(Kind::GSS, Kind::SS), FaultPlan::none());
    check(&r, serial, "live inert plan");
    assert!(r.recovery.is_empty());
    assert!(r.stats.workers.iter().all(|w| w.reclaims == 0));
}
