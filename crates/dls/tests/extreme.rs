//! Extreme-scale regression sweep: the chunk formulas must stay
//! panic-free (this workspace builds tests with `overflow-checks = on`)
//! and well-behaved with `n_iters` near `u64::MAX`, for every worker
//! count the paper's clusters imply and a pathological one. Golden
//! small-N sequences pin the formulas so the overflow fixes cannot have
//! changed any schedule.

use dls::adaptive::{AwfScheduler, AwfVariant};
use dls::analysis::step_bound;
use dls::nonadaptive::Trapezoid;
use dls::sequence::ChunkSequence;
use dls::verify::{check_partition, PartitionError};
use dls::{Chunk, ChunkCalculator, Kind, LoopSpec, SchedState, Technique};

const EXTREME_N: [u64; 2] = [u64::MAX / 2, u64::MAX - 1];
const WORKERS: [u32; 3] = [1, 3, 1024];

/// Kinds whose chunk sizes are nonincreasing along the schedule
/// (RND is random by design; FSC is constant but clamps oddly only at
/// the tail, which the prefix never reaches at these scales).
const MONOTONE: [Kind; 7] =
    [Kind::STATIC, Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC, Kind::FAC2, Kind::TFSS];

/// Walk the first `steps` scheduling steps exactly as an executor
/// would, returning the clamped chunks.
fn prefix(spec: &LoopSpec, t: &Technique, steps: usize) -> Vec<Chunk> {
    let mut st = SchedState::START;
    let mut out = Vec::new();
    for _ in 0..steps {
        let size = t.chunk_size(spec, st, Default::default());
        assert!(size >= 1, "{t}: zero chunk at step {}", st.step);
        match st.take(spec, size) {
            Some(c) => out.push(c),
            None => break,
        }
    }
    out
}

#[test]
fn every_kind_survives_extreme_n() {
    for n in EXTREME_N {
        for p in WORKERS {
            let spec = LoopSpec::new(n, p);
            for kind in Kind::ALL {
                let t = Technique::from_kind(kind);
                let chunks = prefix(&spec, &t, 64);
                assert!(!chunks.is_empty(), "{kind} n={n} p={p}");
                // Contiguity of what was handed out.
                let mut next = 0u64;
                for c in &chunks {
                    assert_eq!(c.start, next, "{kind} n={n} p={p}");
                    assert!(c.len <= n, "{kind} n={n} p={p}");
                    next = c.start.checked_add(c.len).expect("no range wrap");
                }
            }
        }
    }
}

#[test]
fn monotone_kinds_stay_nonincreasing_at_extreme_n() {
    for n in EXTREME_N {
        for p in WORKERS {
            let spec = LoopSpec::new(n, p);
            for kind in MONOTONE {
                let chunks = prefix(&spec, &Technique::from_kind(kind), 64);
                assert!(
                    chunks.windows(2).all(|w| w[0].len >= w[1].len),
                    "{kind} n={n} p={p}: {:?}",
                    chunks.iter().map(|c| c.len).collect::<Vec<_>>()
                );
            }
        }
    }
}

#[test]
fn step_bound_survives_extreme_n_for_every_kind() {
    for n in EXTREME_N {
        for p in WORKERS {
            for kind in Kind::ALL {
                match step_bound(kind, n, p) {
                    Some(b) => assert!(b >= 1, "{kind} n={n} p={p}"),
                    None => assert!(
                        matches!(kind, Kind::FAC | Kind::FSC | Kind::RND),
                        "{kind} lost its bound"
                    ),
                }
            }
        }
    }
    // SS's bound is exact even at the edge.
    assert_eq!(step_bound(Kind::SS, u64::MAX - 1, 3), Some(u64::MAX - 1));
}

#[test]
fn tss_params_at_extreme_n_and_explicit_bounds() {
    for n in EXTREME_N {
        for p in WORKERS {
            let params = Trapezoid::default().params(&LoopSpec::new(n, p));
            assert!(params.first >= params.last && params.last >= 1, "n={n} p={p}");
            assert!(params.steps >= 1);
            assert!(params.delta.is_finite() && params.delta >= 0.0);
        }
    }
    // Explicit F near u64::MAX exercises the F + L widening; the former
    // u64 sum wrapped here.
    let t = Trapezoid::with_bounds(u64::MAX, u64::MAX - 1);
    let params = t.params(&LoopSpec::new(u64::MAX - 1, 4));
    assert_eq!(params.steps, 1);
    assert_eq!(params.delta, 0.0);
    let spec = LoopSpec::new(u64::MAX - 1, 4);
    let first = Technique::Tss(t).chunk_size(&spec, SchedState::START, Default::default());
    assert_eq!(first, u64::MAX); // clamped into [L, F], no i64 wrap
}

#[test]
fn tfss_chunk_exceeding_i64_does_not_wrap() {
    // first > i64::MAX: the old i64 clamp round-trip produced garbage.
    let spec = LoopSpec::new(u64::MAX - 1, 1);
    let first = Technique::tfss().chunk_size(&spec, SchedState::START, Default::default());
    let params = Trapezoid::default().params(&spec);
    assert!(first >= params.last && first <= params.first, "{first}");
    assert!(first > u64::MAX / 4, "suspiciously small first chunk: {first}");
}

#[test]
fn tss_and_tfss_above_two_to_the_53() {
    // Past 2^53 the f64 interpolation no longer holds F exactly: the
    // first TSS size is F rounded to a double. The trapezoid ends at
    // L = 1, so the iterations the rounding leaves over go out one at a
    // time: 14 steps where S = 12 were planned.
    let n = (1u64 << 60) + 3;
    let spec = LoopSpec::new(n, 3);
    assert_eq!(Trapezoid::default().params(&spec).first, 192_153_584_101_141_164);
    let lens =
        |t: &Technique| -> Vec<u64> { ChunkSequence::new(&spec, t).map(|c| c.len).collect() };
    let tss = lens(&Technique::tss());
    assert_eq!(
        tss[..3],
        [192_153_584_101_141_152, 174_685_076_455_582_880, 157_216_568_810_024_576]
    );
    assert_eq!(tss.len(), 14);
    assert_eq!(tss[10..], [17_468_507_645_558_304, 1, 1, 1]);
    let tfss = lens(&Technique::tfss());
    assert_eq!(tfss[..3], [174_685_076_455_582_880; 3]);
    assert_eq!((*tfss.last().unwrap(), tfss.len()), (17_468_507_645_558_275, 12));
    for s in [&tss, &tfss] {
        assert_eq!(s.iter().sum::<u64>(), n);
    }
}

#[test]
fn awf_variants_survive_extreme_n() {
    for n in EXTREME_N {
        for p in WORKERS {
            for variant in AwfVariant::ALL {
                let mut sched = AwfScheduler::new(LoopSpec::new(n, p), variant);
                let mut prev = u64::MAX;
                for w in 0..p.min(8) {
                    let c = sched.next_chunk(w).expect("work remains");
                    assert!(c.len >= 1 && c.len <= prev, "{} n={n} p={p}", variant.name());
                    prev = c.len;
                }
            }
        }
    }
}

#[test]
fn check_partition_reports_overflowing_chunk() {
    // A chunk whose range wraps past u64::MAX is rejected as Overflow,
    // not silently truncated by the saturating `Chunk::end()`.
    let chunks = [
        Chunk { start: 0, len: u64::MAX - 1, step: 0 },
        Chunk { start: u64::MAX - 1, len: 5, step: 1 },
    ];
    assert_eq!(check_partition(&chunks, u64::MAX), Err(PartitionError::Overflow { index: 1 }));
    // The same shape without the wrap is a fine partition.
    let ok = [
        Chunk { start: 0, len: u64::MAX - 1, step: 0 },
        Chunk { start: u64::MAX - 1, len: 1, step: 1 },
    ];
    assert_eq!(check_partition(&ok, u64::MAX), Ok(()));
}

#[test]
fn golden_gss_sequence_n100_p4() {
    let spec = LoopSpec::new(100, 4);
    let sizes: Vec<u64> = ChunkSequence::new(&spec, &Technique::gss()).map(|c| c.len).collect();
    assert_eq!(sizes, vec![25, 19, 14, 11, 8, 6, 5, 3, 3, 2, 1, 1, 1, 1]);
}

#[test]
fn golden_fac2_sequence_n1024_p4() {
    let spec = LoopSpec::new(1024, 4);
    let sizes: Vec<u64> =
        ChunkSequence::new(&spec, &Technique::fac2()).map(|c| c.len).take(8).collect();
    assert_eq!(sizes, vec![128, 128, 128, 128, 64, 64, 64, 64]);
}

#[test]
fn golden_tss_sequence_n1000_p4() {
    let spec = LoopSpec::new(1000, 4);
    let sizes: Vec<u64> =
        ChunkSequence::new(&spec, &Technique::tss()).map(|c| c.len).take(6).collect();
    // F = ceil(1000/8) = 125, S = ceil(2000/126) = 16, delta = 124/15.
    assert_eq!(sizes, vec![125, 116, 108, 100, 91, 83]);
}
