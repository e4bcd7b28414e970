//! The explored switch space, pinned exactly. The unit tests in
//! `switch.rs` assert verdicts and floors; these pins catch any change
//! to what the adversary explores — the job kernel's AF sizing, its
//! reclaim-pool order or its `re_arm`, or the driver's batch window —
//! as a moved count, counterexample or settled range. Re-pin only for
//! an intended change of the kernel or the driver, and say so.

use dls::{Decision, Kind, SchedKind, SwitchReason};
use model_check::switch::{
    crash_sweep, explore_switch_plans, run_plan, SwitchConfig, SwitchPlan, SwitchVariant,
    SwitchViolation,
};

const SS: SchedKind = SchedKind::Fixed(Kind::SS);
const GSS: SchedKind = SchedKind::Fixed(Kind::GSS);
const FAC2: SchedKind = SchedKind::Fixed(Kind::FAC2);
const AF: SchedKind = SchedKind::Af;

/// `(n, workers, batch)`, the DFS's `(leaves, switches)` and the crash
/// sweep's `(leaves, crashes, switches)`.
type Pin = ((u64, u32, u32), (u64, u64), (u64, u64, u64));

/// The module's two scopes and one wider DFS scope.
const SCOPES: [Pin; 3] = [
    ((16, 2, 3), (625, 624), (33, 32, 112)),
    ((24, 2, 4), (1365, 1364), (43, 42, 150)),
    ((20, 3, 2), (175_625, 175_624), (42, 41, 277)),
];

#[test]
fn correct_variant_explores_the_pinned_space() {
    for ((n, workers, batch), dfs_pin, sweep_pin) in SCOPES {
        let cfg = SwitchConfig::new(n, workers, batch);
        let dfs = explore_switch_plans(&cfg);
        assert!(dfs.violation.is_none(), "n{n}/w{workers}/b{batch}: {:?}", dfs.violation);
        assert_eq!((dfs.leaves, dfs.switches), dfs_pin, "n{n}/w{workers}/b{batch}");
        let sweep = crash_sweep(&cfg);
        assert!(sweep.violation.is_none(), "n{n}/w{workers}/b{batch}: {:?}", sweep.violation);
        assert_eq!((sweep.leaves, sweep.crashes, sweep.switches), sweep_pin, "n{n}");
    }
}

fn decision(seq: u32, step: u64, scheduled: u64, from: SchedKind, to: SchedKind) -> Decision {
    Decision { seq, step, scheduled, from, to, reason: SwitchReason::Manual }
}

/// Each seeded variant's first counterexample: the overrunning grant,
/// the decisions behind it, and how far the search got before it.
#[test]
fn seeded_counterexamples_are_pinned() {
    // DFS finds the switch bypass after two clean leaves: SS up to
    // iteration 13 of 16, then GSS sized against the whole loop.
    let cfg = SwitchConfig::new(16, 2, 3).with_variant(SwitchVariant::ForgottenSwitchOrigin);
    let dfs = explore_switch_plans(&cfg);
    assert_eq!(
        dfs.violation,
        Some(SwitchViolation::Overrun {
            lo: 15,
            hi: 17,
            decisions: vec![decision(0, 13, 13, SS, GSS)]
        })
    );
    assert_eq!((dfs.leaves, dfs.switches), (2, 16));

    // The restore bypass never shows without a crash ...
    let cfg = SwitchConfig::new(24, 2, 4).with_variant(SwitchVariant::ForgottenRestoreOrigin);
    let dfs = explore_switch_plans(&cfg);
    assert!(dfs.violation.is_none(), "{:?}", dfs.violation);
    assert_eq!((dfs.leaves, dfs.switches), (1365, 1364));

    // ... and the sweep's 18th crash placement is the first to expose
    // it: recovered after the first switch, GSS re-sized against the
    // whole loop overruns the tail.
    let sweep = crash_sweep(&cfg);
    assert_eq!(
        sweep.violation,
        Some(SwitchViolation::Overrun {
            lo: 23,
            hi: 25,
            decisions: vec![decision(0, 5, 5, SS, GSS)]
        })
    );
    assert_eq!((sweep.leaves, sweep.crashes, sweep.switches), (18, 17, 55));
}

/// One crash campaign, chunk for chunk. The crash after event 9
/// strands two leases; recovery re-serves them oldest first, ahead of
/// fresh grants, so the settled ranges stay in iteration order.
#[test]
fn a_crash_campaign_settles_the_pinned_ranges() {
    let plan = SwitchPlan { choices: vec![Some(GSS), Some(FAC2), Some(AF)], crash_at: Some(9) };
    let r = run_plan(&SwitchConfig::new(16, 2, 3), &plan).expect("the kernel covers");
    assert_eq!((r.events, r.leases), (33, (16, 14, 2)));
    let decisions = vec![
        decision(0, 4, 4, SS, GSS),
        decision(1, 7, 9, GSS, FAC2),
        decision(2, 10, 12, FAC2, AF),
    ];
    assert_eq!(r.decisions, decisions);
    let mut settled = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 6), (6, 8)];
    settled.extend((8..16).map(|i| (i, i + 1)));
    assert_eq!(r.settled, settled);
}
