//! RND: random self-scheduling — chunk sizes drawn uniformly from a
//! configurable range, deterministically keyed by the scheduling step so
//! the distributed chunk-calculation property still holds (any worker
//! computes the same size for the same step).

use super::div_ceil;
use crate::chunk::{LoopSpec, SchedState};
use crate::technique::{ChunkCalculator, WorkerCtx};

/// Random chunking with step-keyed deterministic sizes.
///
/// Default range is `[ceil(N/(100P)), ceil(N/(2P))]`, following the
/// LaPeSD-libGOMP RND implementation.
#[derive(Clone, Copy, Debug)]
pub struct RandomChunking {
    /// Seed mixed into the per-step hash.
    pub seed: u64,
    /// Explicit inclusive size range; `None` selects the default range.
    pub range: Option<(u64, u64)>,
}

impl RandomChunking {
    /// RND with the default range and the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, range: None }
    }

    /// RND with an explicit inclusive chunk-size range.
    pub fn with_range(seed: u64, min: u64, max: u64) -> Self {
        let min = min.max(1);
        Self { seed, range: Some((min, max.max(min))) }
    }

    /// The resolved inclusive range for a given loop.
    fn resolved_range(&self, spec: &LoopSpec) -> (u64, u64) {
        self.range.unwrap_or_else(|| {
            // 100P <= 100 * 2^32 — the saturating products cannot
            // actually saturate, they just encode the bound.
            let min = div_ceil(spec.n_iters, spec.p().saturating_mul(100)).max(1);
            let max = div_ceil(spec.n_iters, spec.p().saturating_mul(2)).max(min);
            (min, max)
        })
    }
}

/// SplitMix64 — tiny, high-quality 64-bit mixer; enough for chunk sizing
/// and dependency-free.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChunkCalculator for RandomChunking {
    #[inline]
    fn chunk_size(&self, spec: &LoopSpec, state: SchedState, _ctx: WorkerCtx) -> u64 {
        let (min, max) = self.resolved_range(spec);
        // min >= 1 and max >= min (both constructors enforce it), so the
        // inclusive span fits u64 and is never zero.
        let span = max.saturating_sub(min).saturating_add(1);
        let draw = splitmix64(self.seed ^ state.step.wrapping_mul(0xA24B_AED4_963E_E407))
            .checked_rem(span)
            .unwrap_or(0);
        min.saturating_add(draw)
    }

    fn name(&self) -> &'static str {
        "RND"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::ChunkSequence;
    use crate::technique::Technique;
    use crate::verify::assert_partition;

    #[test]
    fn deterministic_per_step() {
        let spec = LoopSpec::new(10_000, 4);
        let rnd = RandomChunking::new(7);
        let st = SchedState { step: 5, scheduled: 100 };
        let a = rnd.chunk_size(&spec, st, WorkerCtx::default());
        let b = rnd.chunk_size(&spec, st, WorkerCtx::worker(3));
        assert_eq!(a, b, "size must not depend on the requesting worker");
    }

    #[test]
    fn sizes_within_range() {
        let spec = LoopSpec::new(10_000, 4);
        let rnd = RandomChunking::with_range(42, 10, 50);
        for step in 0..200 {
            let s = rnd.chunk_size(&spec, SchedState { step, scheduled: 0 }, WorkerCtx::default());
            assert!((10..=50).contains(&s), "step {step}: {s}");
        }
    }

    #[test]
    fn default_range_sane() {
        let spec = LoopSpec::new(10_000, 4);
        let (min, max) = RandomChunking::new(0).resolved_range(&spec);
        assert_eq!(min, 25); // ceil(10000/400)
        assert_eq!(max, 1250); // ceil(10000/8)
    }

    #[test]
    fn covers_loop() {
        let spec = LoopSpec::new(12_345, 6);
        let chunks: Vec<_> = ChunkSequence::new(&spec, &Technique::rnd(99)).collect();
        assert_partition(&chunks, 12_345);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = LoopSpec::new(100_000, 4);
        let a: Vec<_> = ChunkSequence::new(&spec, &Technique::rnd(1)).take(10).collect();
        let b: Vec<_> = ChunkSequence::new(&spec, &Technique::rnd(2)).take(10).collect();
        assert_ne!(
            a.iter().map(|c| c.len).collect::<Vec<_>>(),
            b.iter().map(|c| c.len).collect::<Vec<_>>()
        );
    }
}
