//! The explored state graph, pinned exactly. `sweep.rs` and `broken.rs`
//! assert verdicts and upper bounds; these pins catch any change to the
//! transition system itself — a refactor of `model::Config::step` that
//! keeps every verdict but adds, drops or merges a transition moves a
//! count here. Re-pin only for an intended change of the model, and say
//! so.

use dls::Kind;
use model_check::explore::{explore, Options};
use model_check::model::{Config, Recovery, Variant};

/// `(inter, intra, states, transitions, por_states, por_transitions)`
/// at 2 nodes x 2 ranks, n = 12, with the FCFS bypass bound enforced.
const PAIRS_2X2X12: [(Kind, Kind, usize, u64, usize, u64); 25] = [
    (Kind::STATIC, Kind::STATIC, 2898, 9120, 2126, 4414),
    (Kind::STATIC, Kind::SS, 7178, 22688, 5493, 11164),
    (Kind::STATIC, Kind::GSS, 3818, 12032, 2867, 5902),
    (Kind::STATIC, Kind::TSS, 5958, 18816, 4540, 9255),
    (Kind::STATIC, Kind::FAC2, 4838, 15264, 3662, 7488),
    (Kind::SS, Kind::STATIC, 32388, 105408, 23101, 52070),
    (Kind::SS, Kind::SS, 32388, 105408, 23101, 52070),
    (Kind::SS, Kind::GSS, 32388, 105408, 23101, 52070),
    (Kind::SS, Kind::TSS, 32388, 105408, 23101, 52070),
    (Kind::SS, Kind::FAC2, 32388, 105408, 23101, 52070),
    (Kind::GSS, Kind::STATIC, 7410, 23736, 5454, 11824),
    (Kind::GSS, Kind::SS, 12070, 38752, 8953, 19221),
    (Kind::GSS, Kind::GSS, 8320, 26672, 6177, 13395),
    (Kind::GSS, Kind::TSS, 11110, 35656, 8250, 17763),
    (Kind::GSS, Kind::FAC2, 10150, 32560, 7553, 16286),
    (Kind::TSS, Kind::STATIC, 20294, 65784, 15110, 34040),
    (Kind::TSS, Kind::SS, 21964, 71216, 16441, 37104),
    (Kind::TSS, Kind::GSS, 20294, 65784, 15110, 34040),
    (Kind::TSS, Kind::TSS, 21964, 71216, 16441, 37104),
    (Kind::TSS, Kind::FAC2, 21964, 71216, 16441, 37104),
    (Kind::FAC2, Kind::STATIC, 14162, 45696, 10511, 23334),
    (Kind::FAC2, Kind::SS, 16802, 54240, 12606, 28003),
    (Kind::FAC2, Kind::GSS, 14162, 45696, 10511, 23334),
    (Kind::FAC2, Kind::TSS, 16802, 54240, 12606, 28003),
    (Kind::FAC2, Kind::FAC2, 16802, 54240, 12606, 28003),
];

#[test]
fn every_paper_pair_explores_the_pinned_graph_at_2x2x12() {
    for (inter, intra, states, transitions, por_states, por_transitions) in PAIRS_2X2X12 {
        let cfg = Config::new(2, 2, 12, inter, intra);
        let bound = Some(cfg.wait_bound());
        let full = explore(&cfg, &Options { wait_bound: bound, ..Options::default() });
        let por = explore(&cfg, &Options { por: true, wait_bound: bound, ..Options::default() });
        assert!(full.violation.is_none() && por.violation.is_none(), "{inter}/{intra}");
        assert_eq!((full.states, full.transitions), (states, transitions), "{inter}/{intra}");
        assert_eq!((por.states, por.transitions), (por_states, por_transitions), "{inter}/{intra}");
    }
}

#[test]
fn ss_ss_at_2x3x16_explores_the_pinned_graph() {
    let cfg = Config::new(2, 3, 16, Kind::SS, Kind::SS);
    let out = explore(
        &cfg,
        &Options { por: true, wait_bound: Some(cfg.wait_bound()), ..Options::default() },
    );
    assert!(out.violation.is_none(), "{:?}", out.violation);
    assert_eq!((out.states, out.transitions), (912_021, 2_524_608));
}

/// Each seeded bug's minimal counterexample, step for step: the trace
/// (process ids from the initial state) and the number of states BFS
/// visited before it.
#[test]
fn seeded_counterexamples_are_pinned() {
    let cases: [(Config, &[u8], usize); 4] = [
        (
            Config::new(1, 3, 8, Kind::SS, Kind::SS).with_variant(Variant::RefillWithoutLock),
            &[0, 1, 0, 1],
            22,
        ),
        (
            Config::new(2, 1, 12, Kind::SS, Kind::SS).with_variant(Variant::NonAtomicFaa),
            &[0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1],
            98,
        ),
        (
            Config::new(1, 2, 4, Kind::STATIC, Kind::SS).with_variant(Variant::LostUnlock),
            &[0, 0, 0, 0, 0, 0, 0, 0, 1],
            34,
        ),
        (
            Config::new(1, 2, 4, Kind::STATIC, Kind::SS)
                .with_crashes(1)
                .with_recovery(Recovery::LeaseFree),
            &[0, 0, 0, 1, 2, 1, 1, 1, 1, 1],
            95,
        ),
    ];
    for (cfg, trace, states) in cases {
        let out = explore(&cfg, &Options::default());
        let cex = out.violation.unwrap_or_else(|| panic!("{:?}: no counterexample", cfg.variant));
        assert_eq!(cex.trace.len(), trace.len(), "{:?}: {:?}", cfg.variant, cex.violation);
        assert_eq!(cex.trace, trace, "{:?}", cfg.variant);
        assert_eq!(out.states, states, "{:?}", cfg.variant);
    }
}
