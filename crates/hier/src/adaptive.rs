//! Adaptive weighted factoring (AWF) at the intra-node level.
//!
//! The non-adaptive techniques fix their chunk calculus before the loop
//! starts; AWF (Banicescu et al.) measures each worker's rate *during*
//! the loop and scales future sub-chunks by the learned relative speed.
//! At the intra-node level this composes naturally with the paper's
//! shared local queue: the measurement history lives next to the queue
//! counters (in the same shared-memory window under `MPI_Win_lock` on
//! the live backend), and every sub-chunk request reads the requesting
//! worker's current weight.
//!
//! The update rule follows the chunk-updating variants (AWF-C/-E): the
//! history advances at every chunk completion; -D/-E additionally charge
//! the scheduling time to the worker.

use dls::adaptive::AwfVariant;
use dls::weighted::rate_weights;

/// Per-worker measurement history of one node: `(iterations, time_ns)`.
#[derive(Clone, Debug)]
pub struct AwfHistory {
    variant: AwfVariant,
    hist: Vec<(u64, u64)>,
}

impl AwfHistory {
    /// Fresh history for `workers` workers.
    pub fn new(variant: AwfVariant, workers: u32) -> Self {
        Self { variant, hist: vec![(0, 0); workers as usize] }
    }

    /// Record a completed sub-chunk for `local` worker.
    pub fn record(&mut self, local: u32, iters: u64, compute_ns: u64, sched_ns: u64) {
        let time =
            if self.variant.includes_overhead() { compute_ns + sched_ns } else { compute_ns };
        if let Some(h) = self.hist.get_mut(local as usize) {
            h.0 += iters;
            h.1 += time;
        }
    }

    /// Current mean-normalised weight of `local` worker.
    pub fn weight(&self, local: u32) -> f64 {
        let hist = self.hist.iter().map(|&(iters, time)| (iters, time as f64));
        rate_weights(hist).get(local as usize).copied().unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_history_gives_unit_weights() {
        let h = AwfHistory::new(AwfVariant::C, 4);
        for w in 0..4 {
            assert_eq!(h.weight(w), 1.0);
        }
    }

    #[test]
    fn slow_worker_weight_drops() {
        let mut h = AwfHistory::new(AwfVariant::C, 3);
        h.record(0, 100, 1_000, 0); // 0.1 iters/ns
        h.record(1, 100, 1_000, 0);
        h.record(2, 100, 4_000, 0); // 4x slower
        assert!(h.weight(2) < h.weight(0));
        assert!(h.weight(2) < 1.0);
        assert!(h.weight(0) > 1.0);
    }

    #[test]
    fn weights_mean_normalised() {
        let mut h = AwfHistory::new(AwfVariant::C, 4);
        for w in 0..4 {
            h.record(w, 50, u64::from(w + 1) * 500, 0);
        }
        let ws: Vec<f64> = (0..4).map(|w| h.weight(w)).collect();
        let mean = ws.iter().sum::<f64>() / 4.0;
        assert!((mean - 1.0).abs() < 1e-9, "{ws:?}");
    }

    #[test]
    fn d_variant_charges_sched_time() {
        let mut fast_sched = AwfHistory::new(AwfVariant::C, 2);
        let mut slow_sched = AwfHistory::new(AwfVariant::D, 2);
        for h in [&mut fast_sched, &mut slow_sched] {
            h.record(0, 100, 1_000, 9_000); // lots of scheduling time
            h.record(1, 100, 1_000, 0);
        }
        // Under -C the sched time is ignored: equal weights.
        assert!((fast_sched.weight(0) - fast_sched.weight(1)).abs() < 1e-9);
        // Under -D worker 0 looks 10x slower.
        assert!(slow_sched.weight(0) < slow_sched.weight(1));
    }

    #[test]
    fn unmeasured_worker_gets_mean_rate() {
        let mut h = AwfHistory::new(AwfVariant::E, 3);
        h.record(0, 100, 1_000, 0);
        h.record(1, 100, 2_000, 0);
        // Worker 2 never reported: its weight sits between the others.
        let w2 = h.weight(2);
        assert!(w2 < h.weight(0) && w2 > h.weight(1), "{w2}");
    }
}
