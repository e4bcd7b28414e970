//! A deterministic workload whose per-iteration cost *distribution*
//! shifts mid-run — the adversary the `autotune` tuner exists for.
//!
//! A fixed technique picks its chunk-size curve for one cost regime: a
//! regime change mid-loop (dense head of expensive, irregular
//! iterations followed by a long uniform cheap tail, or the reverse)
//! leaves it either over-synchronising (chunks far too small for the
//! cheap phase) or load-imbalanced (chunks far too big for the
//! expensive phase). [`PhasedSpin`] makes that shift exact and
//! reproducible: the loop is a sequence of [`Phase`]s, each an interval
//! of iterations with its own base cost and deterministic jitter; no
//! randomness, no wall-clock — `cost(i)` is a pure function of `i`.
//!
//! Wrap it in [`crate::Spin`] to burn the virtual cost for real on the
//! thread-backed runtime, or feed the cost profile straight to the
//! discrete-event simulator / the virtual-time loop of
//! `autotune/tests/auto_vs_fixed.rs`.

use crate::Workload;

/// One cost regime: iterations `[.., until)` cost `base_ns` plus a
/// deterministic jitter in `[0, spread_ns)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Phase {
    /// One past the last iteration of this phase (phases are listed in
    /// increasing `until`; the last `until` is the loop size `n`).
    pub until: u64,
    /// Cost floor of every iteration in the phase, nanoseconds.
    pub base_ns: u64,
    /// Jitter span: iteration `i` adds `hash(i) % spread_ns` (0 for a
    /// perfectly uniform phase).
    pub spread_ns: u64,
}

/// Multi-phase deterministic workload (see module docs).
pub struct PhasedSpin {
    phases: Vec<Phase>,
}

/// Fibonacci-hash mix — cheap, deterministic, avalanche enough to make
/// per-iteration jitter look irregular to a scheduler.
fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_right(23).wrapping_mul(0x2545_f491_4f6c_dd1d)
}

impl PhasedSpin {
    /// Build from explicit phases. Panics if `phases` is empty or the
    /// `until` boundaries are not strictly increasing.
    pub fn new(phases: Vec<Phase>) -> PhasedSpin {
        assert!(!phases.is_empty(), "PhasedSpin needs at least one phase");
        assert!(
            phases.windows(2).all(|w| w[0].until < w[1].until),
            "phase boundaries must strictly increase"
        );
        PhasedSpin { phases }
    }

    /// The canonical regime-shift loop: the first quarter is expensive
    /// and irregular (base 40 µs, ±40 µs jitter — stragglers), the
    /// remaining three quarters are uniform and ~80× cheaper (1 µs
    /// flat) so per-chunk scheduling overhead dominates unless the
    /// technique coarsens.
    pub fn shifting(n: u64) -> PhasedSpin {
        let head = (n / 4).max(1);
        PhasedSpin::new(vec![
            Phase { until: head.min(n), base_ns: 40_000, spread_ns: 40_000 },
            Phase { until: n.max(1), base_ns: 1_000, spread_ns: 0 },
        ])
    }

    /// A single-regime control loop: mildly irregular throughout, no
    /// shift — a fixed technique matched to it should be near-optimal,
    /// and the tuner must not lose more than a few percent to it.
    pub fn steady(n: u64) -> PhasedSpin {
        PhasedSpin::new(vec![Phase { until: n.max(1), base_ns: 8_000, spread_ns: 4_000 }])
    }

    /// The phase table.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    fn phase_of(&self, i: u64) -> &Phase {
        let idx = self.phases.partition_point(|p| p.until <= i);
        self.phases
            .get(idx)
            .unwrap_or_else(|| self.phases.last().expect("PhasedSpin has at least one phase"))
    }
}

impl Workload for PhasedSpin {
    fn n_iters(&self) -> u64 {
        self.phases.last().map_or(0, |p| p.until)
    }

    fn name(&self) -> &'static str {
        "phased-spin"
    }

    fn execute(&self, i: u64) -> u64 {
        // Checksum folds the iteration's cost so a misrouted or
        // double-executed iteration shifts the application total.
        self.cost(i) ^ mix(i)
    }

    fn cost(&self, i: u64) -> u64 {
        let p = self.phase_of(i);
        let jitter = if p.spread_ns == 0 { 0 } else { mix(i) % p.spread_ns };
        p.base_ns.saturating_add(jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_deterministic_and_phase_bound() {
        let w = PhasedSpin::shifting(1_000);
        assert_eq!(w.n_iters(), 1_000);
        for i in 0..1_000 {
            assert_eq!(w.cost(i), w.cost(i), "pure function of i");
        }
        // Head phase: every iteration at least the expensive base.
        for i in 0..250 {
            assert!(w.cost(i) >= 40_000, "head iteration {i} costs {}", w.cost(i));
        }
        // Tail phase: exactly the flat cheap cost.
        for i in 250..1_000 {
            assert_eq!(w.cost(i), 1_000, "tail iteration {i}");
        }
    }

    #[test]
    fn distribution_actually_shifts() {
        let w = PhasedSpin::shifting(2_000);
        let head = w.phases()[0].until;
        let head_mean: u64 = (0..head).map(|i| w.cost(i)).sum::<u64>() / head;
        let tail_mean: u64 = (head..2_000).map(|i| w.cost(i)).sum::<u64>() / (2_000 - head);
        assert!(
            head_mean > 20 * tail_mean,
            "regime shift must be drastic: head {head_mean} vs tail {tail_mean}"
        );
    }

    #[test]
    fn steady_has_one_regime() {
        let w = PhasedSpin::steady(500);
        assert_eq!(w.phases().len(), 1);
        for i in 0..500 {
            let c = w.cost(i);
            assert!((8_000..12_000).contains(&c));
        }
    }

    #[test]
    fn checksums_are_stable() {
        let a = PhasedSpin::shifting(100);
        let b = PhasedSpin::shifting(100);
        let sum_a: u64 = (0..100).fold(0, |s, i| s.wrapping_add(a.execute(i)));
        let sum_b: u64 = (0..100).fold(0, |s, i| s.wrapping_add(b.execute(i)));
        assert_eq!(sum_a, sum_b);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn unordered_phases_are_rejected() {
        let _ = PhasedSpin::new(vec![
            Phase { until: 10, base_ns: 1, spread_ns: 0 },
            Phase { until: 10, base_ns: 2, spread_ns: 0 },
        ]);
    }
}
