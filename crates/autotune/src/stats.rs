//! Streaming chunk-latency statistics: Welford mean/variance per worker,
//! coefficient of variation, and straggler skew.
//!
//! Latencies arrive as `u64` nanoseconds (the service computes them as
//! `report_time - lease.granted_ns`) and are folded into `f64`
//! accumulators immediately: near-`u64::MAX` values lose precision but
//! can never wrap, and every `u64` counter below advances saturating.

/// Welford's online algorithm for mean and variance. Numerically stable
/// for long streams; a single sample reports zero variance.
#[derive(Clone, Copy, Debug, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fold one observation into the stream.
    pub fn push(&mut self, x: f64) {
        self.count = self.count.saturating_add(1);
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the stream (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation, `sigma / mu` (0 when the mean is not
    /// positive — latencies are non-negative, so a zero mean means no
    /// signal, not infinite spread).
    pub fn cov(&self) -> f64 {
        let mu = self.mean();
        if mu > 0.0 {
            self.stddev() / mu
        } else {
            0.0
        }
    }

    /// Drop all state (used at observation-window boundaries).
    pub fn reset(&mut self) {
        *self = Welford::default();
    }
}

/// One completed chunk, as observed by the monitor.
#[derive(Clone, Copy, Debug)]
pub struct ChunkSample {
    /// Reporting worker id (mapped into `0..p` by the monitor).
    pub worker: u32,
    /// Chunk length in iterations (clamped to at least 1).
    pub len: u64,
    /// Wall latency of the chunk in nanoseconds: grant to report.
    pub latency_ns: u64,
}

/// Per-job streaming statistics: lifetime per-worker per-iteration
/// latency (for imbalance signals) plus a resettable window of whole
/// chunk latencies (for the overhead signal).
#[derive(Clone, Debug)]
pub struct JobStats {
    /// Lifetime per-iteration latency per worker slot.
    per_worker: Vec<Welford>,
    /// Per-chunk wall latency within the current observation window.
    window: Welford,
    /// Per-iteration latency within the current observation window.
    window_iter: Welford,
    chunks: u64,
    iters: u64,
}

impl JobStats {
    /// New monitor for `p` worker slots (clamped to at least 1).
    pub fn new(p: u32) -> Self {
        Self {
            per_worker: vec![Welford::default(); p.max(1) as usize],
            window: Welford::default(),
            window_iter: Welford::default(),
            chunks: 0,
            iters: 0,
        }
    }

    /// Fold one completed chunk into the stream.
    pub fn observe(&mut self, sample: ChunkSample) {
        let len = sample.len.max(1);
        let per_iter = sample.latency_ns as f64 / len as f64;
        let slots = self.per_worker.len();
        // `slots >= 1` by construction, so the remainder is total.
        let slot = (sample.worker as usize).checked_rem(slots).unwrap_or(0);
        if let Some(w) = self.per_worker.get_mut(slot) {
            w.push(per_iter);
        }
        self.window.push(sample.latency_ns as f64);
        self.window_iter.push(per_iter);
        self.chunks = self.chunks.saturating_add(1);
        self.iters = self.iters.saturating_add(len);
    }

    /// Chunks observed over the job's lifetime.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Iterations observed over the job's lifetime.
    pub fn iters(&self) -> u64 {
        self.iters
    }

    /// Chunks in the current observation window.
    pub fn window_chunks(&self) -> u64 {
        self.window.count()
    }

    /// Mean whole-chunk latency in the current window, nanoseconds.
    pub fn mean_chunk_latency_ns(&self) -> f64 {
        self.window.mean()
    }

    /// Coefficient of variation of per-iteration latency within the
    /// current window (irregularity of the workload right now).
    pub fn window_iter_cov(&self) -> f64 {
        self.window_iter.cov()
    }

    /// Straggler skew: slowest worker's mean per-iteration latency over
    /// the across-worker mean (1.0 = perfectly balanced; needs at least
    /// two measured workers to be meaningful).
    pub fn straggler_skew(&self) -> f64 {
        let means: Vec<f64> =
            self.per_worker.iter().filter(|w| w.count() > 0).map(Welford::mean).collect();
        if means.len() < 2 {
            return 1.0;
        }
        let max = means.iter().copied().fold(0.0f64, f64::max);
        let mean = means.iter().sum::<f64>() / means.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Reset the observation window (lifetime per-worker state stays).
    pub fn reset_window(&mut self) {
        self.window.reset();
        self.window_iter.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [3.0f64, 7.0, 7.0, 19.0, 2.0, 11.0];
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.variance() - var).abs() < 1e-9);
        assert!((w.cov() - var.sqrt() / mean).abs() < 1e-9);
    }

    #[test]
    fn single_sample_variance_is_zero() {
        let mut w = Welford::default();
        w.push(42.0);
        assert_eq!(w.count(), 1);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.stddev(), 0.0);
        assert_eq!(w.cov(), 0.0);
    }

    #[test]
    fn empty_stream_reports_zeroes() {
        let w = Welford::default();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.cov(), 0.0);
    }

    #[test]
    fn latencies_near_u64_max_do_not_wrap() {
        // Extreme-value audit: the largest representable latencies fold
        // into finite f64 statistics and saturating counters.
        let mut s = JobStats::new(2);
        for w in 0..2u32 {
            s.observe(ChunkSample { worker: w, len: 1, latency_ns: u64::MAX });
            s.observe(ChunkSample { worker: w, len: u64::MAX, latency_ns: u64::MAX });
        }
        assert!(s.mean_chunk_latency_ns().is_finite());
        assert!(s.straggler_skew().is_finite());
        assert_eq!(s.chunks(), 4);
        assert_eq!(s.iters(), u64::MAX, "iteration counter saturates, not wraps");
    }

    #[test]
    fn zero_len_chunk_clamped() {
        let mut s = JobStats::new(1);
        s.observe(ChunkSample { worker: 0, len: 0, latency_ns: 100 });
        assert_eq!(s.iters(), 1);
        assert!((s.mean_chunk_latency_ns() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn straggler_skew_identifies_slow_worker() {
        let mut s = JobStats::new(4);
        for w in 0..4u32 {
            let per_iter = if w == 3 { 400 } else { 100 };
            for _ in 0..8 {
                s.observe(ChunkSample { worker: w, len: 10, latency_ns: per_iter * 10 });
            }
        }
        // Means: 100,100,100,400 -> mean 175, max 400 -> skew ~2.29.
        assert!((s.straggler_skew() - 400.0 / 175.0).abs() < 1e-9);
    }

    #[test]
    fn balanced_workers_have_unit_skew() {
        let mut s = JobStats::new(4);
        for w in 0..4u32 {
            s.observe(ChunkSample { worker: w, len: 5, latency_ns: 500 });
        }
        assert!((s.straggler_skew() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skew_defaults_before_two_workers_measured() {
        let mut s = JobStats::new(8);
        assert_eq!(s.straggler_skew(), 1.0);
        s.observe(ChunkSample { worker: 2, len: 1, latency_ns: 10 });
        assert_eq!(s.straggler_skew(), 1.0);
    }

    #[test]
    fn window_resets_but_lifetime_persists() {
        let mut s = JobStats::new(2);
        s.observe(ChunkSample { worker: 0, len: 1, latency_ns: 100 });
        s.observe(ChunkSample { worker: 1, len: 1, latency_ns: 300 });
        assert_eq!(s.window_chunks(), 2);
        s.reset_window();
        assert_eq!(s.window_chunks(), 0);
        assert_eq!(s.mean_chunk_latency_ns(), 0.0);
        assert_eq!(s.chunks(), 2, "lifetime counters survive the reset");
        assert!(s.straggler_skew() > 1.0, "per-worker history survives the reset");
    }

    #[test]
    fn out_of_range_worker_maps_into_slots() {
        let mut s = JobStats::new(3);
        s.observe(ChunkSample { worker: 3, len: 1, latency_ns: 90 });
        s.observe(ChunkSample { worker: 4, len: 1, latency_ns: 90 });
        assert_eq!(s.chunks(), 2);
        // Worker 3 lands in slot 0, worker 4 in slot 1: two measured.
        assert!((s.straggler_skew() - 1.0).abs() < 1e-9);
    }
}
