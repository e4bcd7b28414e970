//! The single-shared-counter formulation of the distributed
//! chunk-calculation approach (Eleliemy & Ciorba, PDP 2019 — the
//! paper's reference [15]).
//!
//! Instead of a work queue holding *two* values (step and scheduled)
//! updated under a lock, the shared state is **one counter**: the
//! latest scheduling step. A worker atomically fetch-and-increments it
//! and then computes its chunk's start *and* size locally, as a pure
//! function of the step index — no lock, no master, one atomic.
//!
//! [`assignment`] is that pure function for every technique in this
//! crate: the closed form the PDP paper derives where one exists
//! ([`assignment_fast`]: O(1), or O(log n) batch by batch for FAC2),
//! else exact replay of the deterministic schedule.
//! [`assignment_from`] is the same function for a worker that keeps the
//! state of its last draw and so never replays.

use crate::chunk::{LoopSpec, SchedState};
use crate::nonadaptive::{Factoring2, FixedSizeChunking};
use crate::technique::Technique;

/// The closed form of the fixed-chunk techniques (STATIC, SS, FSC; O(1))
/// and of FAC2 (O(batches) = O(log n)): the assignment of `step`, or
/// outer `None` for any other technique.
fn closed_form(technique: &Technique, spec: &LoopSpec, step: u64) -> Option<Option<(u64, u64)>> {
    let n = spec.n_iters;
    // `step` is chunk `index` of equal `chunk`s laid end to end from `base`.
    let (base, index, chunk) = match technique {
        Technique::Ss(_) => (0, step, 1),
        Technique::Static(_) => (0, step, n.div_ceil(spec.p()).max(1)),
        Technique::Fsc(fsc) => (0, step, FixedSizeChunking::resolved(fsc, spec).max(1)),
        // Every batch before `step`'s handed out `P` whole chunks, or the
        // loop ended there and `R` is 0.
        Technique::Fac2(_) => {
            let (r, chunk) = Factoring2::batch_at_step(spec, step);
            (n - r, step % spec.p(), chunk)
        }
        _ => return None,
    };
    let start = index.checked_mul(chunk).and_then(|off| base.checked_add(off));
    let start = start.filter(|&start| start < n);
    Some(start.map(|start| (start, chunk.min(n - start))))
}

/// The chunk assigned to scheduling step `step`, as `(start, len)`, or
/// `None` when the schedule has fewer steps. Pure in `step`: any worker
/// computes the same assignment from the same counter value.
///
/// Exact for every technique: the closed form where one exists, else
/// deterministic replay of the preceding steps — `O(step)` worst case.
pub fn assignment(technique: &Technique, spec: &LoopSpec, step: u64) -> Option<(u64, u64)> {
    if let Some(closed) = closed_form(technique, spec, step) {
        return closed;
    }
    let mut state = SchedState::START;
    for _ in 0..step {
        state.next_chunk(spec, technique)?;
    }
    let chunk = state.next_chunk(spec, technique)?;
    Some((chunk.start, chunk.len))
}

/// [`assignment`] for a caller whose steps only increase — one rank's
/// draws from the shared counter do. `cursor` is the schedule state an
/// earlier call left behind ([`SchedState::START`] before the first) and
/// is advanced to just past `step`, so a run of calls costs one
/// calculator step per schedule step in all instead of a replay from
/// step 0 each: exact, amortised `O(1)`. A `step` behind the cursor
/// starts the replay over.
pub fn assignment_from(
    technique: &Technique,
    spec: &LoopSpec,
    cursor: &mut SchedState,
    step: u64,
) -> Option<(u64, u64)> {
    if let Some(closed) = closed_form(technique, spec, step) {
        return closed;
    }
    if step < cursor.step {
        *cursor = SchedState::START;
    }
    loop {
        let chunk = cursor.next_chunk(spec, technique)?;
        if chunk.step == step {
            return Some((chunk.start, chunk.len));
        }
    }
}

/// Closed-form assignment where one exists: `O(1)` for STATIC, SS and
/// FSC, `O(log n)` for FAC2, no step-by-step replay. Returns `None` for
/// techniques without a practical closed form — callers fall back to
/// [`assignment`].
pub fn assignment_fast(technique: &Technique, spec: &LoopSpec, step: u64) -> Option<(u64, u64)> {
    closed_form(technique, spec, step).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{step_count, ChunkSequence};
    use crate::technique::Kind;
    use crate::verify::check_exactly_once;

    #[test]
    fn assignment_matches_sequence_for_every_technique() {
        let spec = LoopSpec::new(1_000, 4).with_stats(1.0, 0.4).with_overhead(0.02);
        for kind in Kind::ALL {
            let t = Technique::from_kind(kind);
            for (s, chunk) in ChunkSequence::new(&spec, &t).enumerate() {
                let (start, len) =
                    assignment(&t, &spec, s as u64).unwrap_or_else(|| panic!("{kind} step {s}"));
                assert_eq!((start, len), (chunk.start, chunk.len), "{kind} step {s}");
            }
        }
    }

    #[test]
    fn assignment_none_past_schedule_end() {
        let spec = LoopSpec::new(100, 4);
        for kind in Kind::ALL {
            let t = Technique::from_kind(kind);
            let steps = step_count(&spec, &t);
            assert!(assignment(&t, &spec, steps).is_none(), "{kind}");
            assert!(assignment(&t, &spec, steps + 7).is_none(), "{kind}");
        }
    }

    #[test]
    fn fast_matches_exact_where_defined() {
        let spec = LoopSpec::new(997, 6);
        for kind in [Kind::STATIC, Kind::SS, Kind::FSC] {
            let t = Technique::from_kind(kind);
            for step in 0..step_count(&spec, &t) + 3 {
                assert_eq!(
                    assignment_fast(&t, &spec, step),
                    assignment(&t, &spec, step),
                    "{kind} step {step}"
                );
            }
        }
    }

    #[test]
    fn closed_form_steps_do_not_replay() {
        // Seeking ~2^64 steps by replay would never finish.
        let spec = LoopSpec::new(u64::MAX, 4);
        assert_eq!(assignment(&Technique::ss(), &spec, u64::MAX - 1), Some((u64::MAX - 1, 1)));
        assert_eq!(assignment(&Technique::ss(), &spec, u64::MAX), None);
        let block = u64::MAX.div_ceil(4);
        let last = Some((3 * block, u64::MAX - 3 * block));
        assert_eq!(assignment(&Technique::static_(), &spec, 3), last);
        assert_eq!(assignment(&Technique::static_(), &spec, 4), None);
        assert_eq!(assignment(&Technique::static_(), &spec, u64::MAX), None);
    }

    #[test]
    fn cursor_matches_replay_on_increasing_gappy_steps() {
        // One rank of several draws an increasing subsequence of the
        // steps. Every step to exhaustion for the small loops, the first
        // 10 000 for the large one (replay is O(step) per check).
        for t in [Technique::gss(), Technique::tss(), Technique::fac2(), Technique::ss()] {
            for n in [1, 1_000, 1u64 << 40] {
                for p in [1, 3, 1024] {
                    let spec = LoopSpec::new(n, p);
                    let large = n > 1_000;
                    let horizon = if large { 10_000 } else { u64::MAX };
                    let mut cursor = SchedState::START;
                    let mut lcg = 0x9E37_79B9_7F4A_7C15u64 ^ n ^ u64::from(p);
                    let mut step = 0;
                    while step < horizon {
                        let expected = assignment(&t, &spec, step);
                        assert_eq!(
                            assignment_from(&t, &spec, &mut cursor, step),
                            expected,
                            "{t:?} n={n} p={p} step={step}"
                        );
                        if expected.is_none() {
                            break;
                        }
                        // Gaps of 1..=16 on the large loop keep the
                        // oracle's replays affordable; 1..=4 otherwise.
                        lcg =
                            lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        step += 1 + (lcg >> 33) % if large { 16 } else { 4 };
                    }
                    // Far past the end both say `None`, wherever the
                    // cursor stopped (at 2^40 the replaying techniques
                    // have under 50 k steps; SS answers in closed form).
                    assert_eq!(assignment(&t, &spec, u64::MAX), None);
                    assert_eq!(assignment_from(&t, &spec, &mut cursor, u64::MAX), None);
                }
            }
        }
    }

    #[test]
    fn cursor_behind_a_step_replays_from_the_start() {
        let spec = LoopSpec::new(1_000, 4);
        let t = Technique::gss();
        let mut cursor = SchedState::START;
        let late = assignment_from(&t, &spec, &mut cursor, 9);
        assert_eq!(late, assignment(&t, &spec, 9));
        assert_eq!(assignment_from(&t, &spec, &mut cursor, 2), assignment(&t, &spec, 2));
        assert_eq!(assignment_from(&t, &spec, &mut cursor, 9), late);
    }

    #[test]
    fn fast_declines_dynamic_remainder_techniques() {
        let spec = LoopSpec::new(100, 4);
        assert!(assignment_fast(&Technique::gss(), &spec, 0).is_none());
        assert!(assignment_fast(&Technique::tss(), &spec, 0).is_none());
    }

    #[test]
    fn fac2_closed_form_is_the_stepped_schedule() {
        // The oracle is `ChunkSequence`, the stepping calculator: every
        // step for the small loops, the first 10 000 and the last 1 000
        // for the large ones, and `None` one step past the end.
        let t = Technique::fac2();
        for n in [1, 1_000, 1u64 << 40, u64::MAX - 1] {
            for p in [1, 3, 1024] {
                let spec = LoopSpec::new(n, p);
                let check = |c: crate::Chunk| {
                    let at = Some((c.start, c.len));
                    assert_eq!(assignment_fast(&t, &spec, c.step), at, "n={n} p={p} {c:?}");
                    assert_eq!(assignment(&t, &spec, c.step), at, "n={n} p={p} {c:?}");
                };
                let (mut steps, mut tail) = (0, std::collections::VecDeque::new());
                for c in ChunkSequence::new(&spec, &t) {
                    if n <= 1_000 || c.step < 10_000 {
                        check(c);
                    }
                    tail.push_back(c);
                    if tail.len() > 1_000 {
                        tail.pop_front();
                    }
                    steps += 1;
                }
                tail.into_iter().for_each(check);
                assert_eq!(assignment_fast(&t, &spec, steps), None, "n={n} p={p}");
                assert_eq!(assignment(&t, &spec, steps), None, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn out_of_order_steps_still_partition() {
        // Workers may observe counter values in any order; the union of
        // assignments must still partition the loop.
        let spec = LoopSpec::new(500, 3);
        let t = Technique::fac2();
        let steps = step_count(&spec, &t);
        let mut order: Vec<u64> = (0..steps).collect();
        order.reverse();
        order.swap(0, steps as usize / 2);
        let chunks: Vec<crate::Chunk> = order
            .iter()
            .map(|&s| {
                let (start, len) = assignment(&t, &spec, s).unwrap();
                crate::Chunk { start, len, step: s }
            })
            .collect();
        check_exactly_once(&chunks, 500).unwrap();
    }
}
