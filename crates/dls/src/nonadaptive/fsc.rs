//! FSC: fixed-size chunking (Kruskal & Weiss, 1985) — every chunk has the
//! same, statically computed size that balances scheduling overhead `h`
//! against load-imbalance cost derived from `sigma`.

use super::div_ceil;
use crate::chunk::{LoopSpec, SchedState};
use crate::technique::{ChunkCalculator, WorkerCtx};

/// Fixed-size chunking.
///
/// The optimal chunk size per Kruskal & Weiss is
///
/// ```text
/// chunk = ( sqrt(2) * N * h / (sigma * P * sqrt(ln P)) )^(2/3)
/// ```
///
/// If the statistical parameters are degenerate (`sigma = 0`, `h = 0`, or
/// `P = 1`) the formula is undefined; we fall back to `ceil(N / (k * P))`
/// with `k = 8` sub-chunks per worker, a common engineering default.
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedSizeChunking {
    /// Explicit chunk size, overriding the formula entirely.
    pub explicit: Option<u64>,
}

/// Fallback sub-chunks per worker when the formula is undefined.
const FALLBACK_K: u64 = 8;

impl FixedSizeChunking {
    /// Fixed chunking with an explicit chunk size.
    pub fn with_chunk(chunk: u64) -> Self {
        Self { explicit: Some(chunk.max(1)) }
    }

    /// The resolved chunk size for a given loop.
    pub fn resolved(&self, spec: &LoopSpec) -> u64 {
        if let Some(c) = self.explicit {
            return c;
        }
        let n = spec.n_iters as f64;
        let p = spec.p() as f64;
        let sigma = spec.sigma_iter_time;
        let h = spec.overhead;
        if sigma > 0.0 && h > 0.0 && p > 1.0 {
            let ln_p = p.ln();
            let raw = (2.0_f64.sqrt() * n * h / (sigma * p * ln_p.sqrt())).powf(2.0 / 3.0);
            // f64 -> u64 `as` saturates; the clamp bounds it by the loop.
            #[allow(clippy::cast_possible_truncation)]
            let chunk = raw.ceil() as u64;
            chunk.clamp(1, spec.n_iters.max(1))
        } else {
            // P < 2^32, so k * P never saturates.
            div_ceil(spec.n_iters, FALLBACK_K.saturating_mul(spec.p())).max(1)
        }
    }
}

impl ChunkCalculator for FixedSizeChunking {
    #[inline]
    fn chunk_size(&self, spec: &LoopSpec, _state: SchedState, _ctx: WorkerCtx) -> u64 {
        self.resolved(spec)
    }

    fn name(&self) -> &'static str {
        "FSC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::ChunkSequence;
    use crate::technique::Technique;
    use crate::verify::assert_partition;

    #[test]
    fn fallback_when_degenerate() {
        let spec = LoopSpec::new(1024, 4);
        let fsc = FixedSizeChunking::default();
        assert_eq!(fsc.resolved(&spec), 32); // 1024 / (8*4)
    }

    #[test]
    fn explicit_chunk_wins() {
        let spec = LoopSpec::new(1024, 4).with_stats(1.0, 1.0).with_overhead(0.1);
        let fsc = FixedSizeChunking::with_chunk(10);
        assert_eq!(fsc.resolved(&spec), 10);
    }

    #[test]
    fn formula_used_with_stats() {
        let spec = LoopSpec::new(100_000, 16).with_stats(1.0, 2.0).with_overhead(0.5);
        let c = FixedSizeChunking::default().resolved(&spec);
        // (sqrt(2)*1e5*0.5 / (2*16*sqrt(ln 16)))^(2/3) ~= (1326.8)^(2/3) ~= 120.9
        assert!((100..150).contains(&c), "chunk = {c}");
    }

    #[test]
    fn all_chunks_same_size() {
        let spec = LoopSpec::new(100, 4);
        let chunks: Vec<_> =
            ChunkSequence::new(&spec, &Technique::Fsc(FixedSizeChunking::with_chunk(7))).collect();
        assert_partition(&chunks, 100);
        for c in &chunks[..chunks.len() - 1] {
            assert_eq!(c.len, 7);
        }
        assert_eq!(chunks.last().unwrap().len, 100 % 7);
    }

    #[test]
    fn higher_overhead_means_bigger_chunks() {
        let lo = LoopSpec::new(100_000, 16).with_stats(1.0, 2.0).with_overhead(0.1);
        let hi = LoopSpec::new(100_000, 16).with_stats(1.0, 2.0).with_overhead(10.0);
        let fsc = FixedSizeChunking::default();
        assert!(fsc.resolved(&hi) > fsc.resolved(&lo));
    }
}
