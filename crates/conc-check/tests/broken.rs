//! Every seeded-broken variant must produce a counterexample, the
//! counterexample must be preemption-minimal and deterministically
//! replayable, and its failure message must name the violated
//! invariant. These tests pin the checker's detection power: a refactor
//! that stops finding any of these bugs is a checker regression.

use conc_check::models::{admission_model, drain_model, reclaim_model, Variant};
use conc_check::{check_minimal, replay, Config, ViolationKind};
use dls::Kind;

fn property_message(kind: &ViolationKind) -> &str {
    match kind {
        ViolationKind::Property(msg) => msg,
        other => panic!("expected a property violation, got {other:?}"),
    }
}

#[test]
fn check_then_act_admission_breaches_the_cap() {
    let cfg = Config::default();
    let outcome = check_minimal(&cfg, admission_model(Variant::CheckThenActAdmission, 2, 1));
    let cx = outcome.expect_fail("check-then-act admission");
    let msg = property_message(&cx.kind);
    assert!(msg.contains("admission cap breached"), "unexpected failure message: {msg}");
    // The bug needs exactly two preemptions: the second accept's load
    // slips into the first accept's load/add window, and control must
    // then return to the first accept while the second is still inside.
    // Iterative deepening guarantees no simpler schedule exists.
    assert_eq!(cx.preemptions, 2, "counterexample is not preemption-minimal:\n{cx}");

    // Pinned replay: the recorded decision vector reproduces the exact
    // violation deterministically.
    let (kind, _trace) =
        replay(&cfg, admission_model(Variant::CheckThenActAdmission, 2, 1), &cx.choices);
    let replayed = kind.expect("replay lost the violation");
    assert!(property_message(&replayed).contains("admission cap breached"));
}

#[test]
fn load_store_peak_loses_an_update() {
    let cfg = Config::default();
    let outcome = check_minimal(&cfg, admission_model(Variant::LoadStorePeak, 3, 2));
    let cx = outcome.expect_fail("load/store peak tracking");
    let msg = property_message(&cx.kind);
    assert!(msg.contains("conns_peak lost an update"), "unexpected failure message: {msg}");
    assert!(cx.preemptions <= 1, "expected a <=1-preemption counterexample:\n{cx}");

    let (kind, _) = replay(&cfg, admission_model(Variant::LoadStorePeak, 3, 2), &cx.choices);
    assert!(property_message(&kind.expect("replay lost the violation"))
        .contains("conns_peak lost an update"));
}

#[test]
fn relaxed_shutdown_flag_goes_stale() {
    let cfg = Config::default();
    let outcome = check_minimal(&cfg, drain_model(Variant::RelaxedShutdown));
    let cx = outcome.expect_fail("relaxed drain flag");
    let msg = property_message(&cx.kind);
    assert!(msg.contains("drain flag reads stale"), "unexpected failure message: {msg}");
    // A memory-ordering bug, not a scheduling bug: the weak behaviour
    // needs no preemption at all, only a stale read.
    assert_eq!(cx.preemptions, 0, "counterexample is not preemption-minimal:\n{cx}");
    // The trace must show the stale read the `Relaxed` ordering admits.
    assert!(
        cx.trace.iter().any(|s| s.text.contains("stale")),
        "trace does not surface the stale load:\n{cx}"
    );

    let (kind, _) = replay(&cfg, drain_model(Variant::RelaxedShutdown), &cx.choices);
    assert!(property_message(&kind.expect("replay lost the violation"))
        .contains("drain flag reads stale"));
}

#[test]
fn reclaim_without_ledger_double_grants() {
    let cfg = Config::default();
    let outcome = check_minimal(&cfg, reclaim_model(Variant::ReclaimWithoutLedger, Kind::SS, 2));
    let cx = outcome.expect_fail("reclaim without ledger");
    let msg = property_message(&cx.kind);
    assert!(
        msg.contains("double settlement: 3 iterations credited of 2"),
        "unexpected failure message: {msg}"
    );
    assert!(cx.preemptions <= 2, "expected a small counterexample:\n{cx}");

    let (kind, _) =
        replay(&cfg, reclaim_model(Variant::ReclaimWithoutLedger, Kind::SS, 2), &cx.choices);
    kind.expect("replay lost the violation");
}

#[test]
fn deadlocks_are_reported_with_a_trace() {
    // ABBA lock ordering: the checker must call it out as a deadlock,
    // not hang.
    use conc_check::sync::{Arc, Mutex};
    use conc_check::thread;
    let cfg = Config::default();
    let outcome = check_minimal(&cfg, move || {
        let a = Arc::new(Mutex::new(0u32).named("A"));
        let b = Arc::new(Mutex::new(0u32).named("B"));
        let t1 = {
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            thread::spawn(move || {
                let ga = a.lock().unwrap();
                let gb = b.lock().unwrap();
                drop((ga, gb));
            })
        };
        let t2 = {
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            thread::spawn(move || {
                let gb = b.lock().unwrap();
                let ga = a.lock().unwrap();
                drop((gb, ga));
            })
        };
        let _ = t1.join();
        let _ = t2.join();
    });
    let cx = outcome.expect_fail("ABBA deadlock");
    assert_eq!(cx.kind, ViolationKind::Deadlock, "expected a deadlock:\n{cx}");
    assert!(!cx.trace.is_empty(), "deadlock reported without a trace");
}
