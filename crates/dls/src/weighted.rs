//! WF: weighted factoring (Flynn Hummel et al., 1996) — FAC2-style
//! batches, but each worker's chunk within the batch is scaled by the
//! worker's relative speed weight. Weights are fixed before execution
//! (the adaptive variants live in [`crate::adaptive`]).

use crate::chunk::{LoopSpec, SchedState};
use crate::technique::{ChunkCalculator, WorkerCtx};

/// Weighted factoring.
///
/// The batch chunk is `ceil(R_j / (2P))` as in FAC2 (computed by exact
/// replay with unit weights); the requesting worker receives
/// `ceil(weight * batch_chunk)` iterations. Weights are mean-normalised,
/// so the batch still assigns about half the remainder in total.
#[derive(Clone, Copy, Debug, Default)]
pub struct WeightedFactoring;

impl ChunkCalculator for WeightedFactoring {
    #[inline]
    fn chunk_size(&self, spec: &LoopSpec, state: SchedState, ctx: WorkerCtx) -> u64 {
        let base = crate::nonadaptive::Factoring2::chunk_at_step(spec, state.step);
        let w = if ctx.weight.is_finite() && ctx.weight > 0.0 { ctx.weight } else { 1.0 };
        // f64 -> u64 `as` saturates; an oversized weighted chunk is
        // clamped to the remaining iterations by `SchedState::take`.
        #[allow(clippy::cast_possible_truncation)]
        let scaled = (base as f64 * w).ceil() as u64;
        scaled.max(1)
    }

    fn name(&self) -> &'static str {
        "WF"
    }
}

/// Normalise raw speed scores so their mean is 1.0 (the convention
/// [`WorkerCtx::weight`] expects). Zero or negative scores are clamped to
/// the smallest positive score.
pub fn normalize_weights(scores: &[f64]) -> Vec<f64> {
    if scores.is_empty() {
        return Vec::new();
    }
    let min_pos = scores.iter().copied().filter(|s| *s > 0.0).fold(f64::INFINITY, f64::min);
    let floor = if min_pos.is_finite() { min_pos } else { 1.0 };
    let cleaned: Vec<f64> =
        scores.iter().map(|&s| if s > 0.0 && s.is_finite() { s } else { floor }).collect();
    let mean = cleaned.iter().sum::<f64>() / cleaned.len() as f64;
    cleaned.iter().map(|s| s / mean).collect()
}

/// AWF's weight rule: from each worker's measured `(iterations, time)`,
/// its rate `iterations / time` is its score, a worker without a
/// measurement scores the mean rate of those with one, and the scores
/// are normalised ([`normalize_weights`]). No measurement at all gives
/// unit weights.
pub fn rate_weights(hist: impl IntoIterator<Item = (u64, f64)>) -> Vec<f64> {
    let rates: Vec<f64> = hist
        .into_iter()
        .map(|(iters, time)| if time > 0.0 && iters > 0 { iters as f64 / time } else { 0.0 })
        .collect();
    let measured = rates.iter().filter(|r| **r > 0.0);
    let count = measured.clone().count();
    if count == 0 {
        return vec![1.0; rates.len()];
    }
    let mean = measured.sum::<f64>() / count as f64;
    let scores: Vec<f64> = rates.iter().map(|&r| if r > 0.0 { r } else { mean }).collect();
    normalize_weights(&scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technique::Technique;

    #[test]
    fn rate_weights_give_the_unmeasured_the_mean_rate() {
        assert_eq!(rate_weights([(0, 0.0), (5, 0.0), (0, 3.0)]), vec![1.0; 3]);
        // Rates 2 and 1; the unmeasured third scores their mean, 1.5.
        let w = rate_weights([(4, 2.0), (2, 2.0), (0, 0.0)]);
        assert_eq!(w, normalize_weights(&[2.0, 1.0, 1.5]));
        assert_eq!(w, [2.0 / 1.5, 1.0 / 1.5, 1.0]);
    }

    #[test]
    fn unit_weight_equals_fac2() {
        let spec = LoopSpec::new(1024, 4);
        let wf = Technique::wf();
        let fac2 = Technique::fac2();
        for step in 0..12 {
            let st = SchedState { step, scheduled: 0 };
            assert_eq!(
                wf.chunk_size(&spec, st, WorkerCtx::default()),
                fac2.chunk_size(&spec, st, WorkerCtx::default())
            );
        }
    }

    #[test]
    fn faster_worker_gets_bigger_chunk() {
        let spec = LoopSpec::new(1024, 4);
        let wf = WeightedFactoring;
        let slow = wf.chunk_size(&spec, SchedState::START, WorkerCtx { worker: 0, weight: 0.5 });
        let fast = wf.chunk_size(&spec, SchedState::START, WorkerCtx { worker: 1, weight: 2.0 });
        assert!(fast > slow);
        assert_eq!(fast, 256); // 128 * 2
        assert_eq!(slow, 64); // 128 * 0.5
    }

    #[test]
    fn bogus_weight_falls_back_to_unit() {
        let spec = LoopSpec::new(1024, 4);
        let wf = WeightedFactoring;
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = wf.chunk_size(&spec, SchedState::START, WorkerCtx { worker: 0, weight: w });
            assert_eq!(c, 128, "weight {w}");
        }
    }

    #[test]
    fn normalize_weights_mean_one() {
        let w = normalize_weights(&[1.0, 2.0, 3.0, 4.0]);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        assert!((mean - 1.0).abs() < 1e-12);
        assert!(w[3] > w[0]);
    }

    #[test]
    fn normalize_weights_handles_zeros() {
        let w = normalize_weights(&[0.0, 2.0]);
        assert!(w.iter().all(|x| *x > 0.0));
    }

    #[test]
    fn normalize_weights_empty() {
        assert!(normalize_weights(&[]).is_empty());
    }
}
