//! Distribution-shaped synthetic workloads for tests, property checks,
//! failure injection and ablations. Costs are *pure functions* of the
//! iteration index (hash-based sampling), so any scheduler backend sees
//! the exact same irregularity profile.

use crate::Workload;

/// Per-index deterministic synthetic workload.
#[derive(Clone, Debug)]
pub struct Synthetic {
    n: u64,
    name: &'static str,
    shape: Shape,
    seed: u64,
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    Constant { cost: u64 },
    Uniform { min: u64, max: u64 },
    Gaussian { mean: f64, sigma: f64 },
    Exponential { mean: f64 },
    Bimodal { low: u64, high: u64, high_percent: u64 },
    Linear { first: u64, last: u64 },
}

/// SplitMix64 mixer (same construction as `dls`' RND technique).
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform f64 in `[0, 1)` from a hash.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl Synthetic {
    /// Every iteration costs `cost` ns.
    pub fn constant(n: u64, cost: u64) -> Self {
        Self { n, name: "constant", shape: Shape::Constant { cost }, seed: 0 }
    }

    /// Uniform in `[min, max]`.
    pub fn uniform(n: u64, min: u64, max: u64, seed: u64) -> Self {
        assert!(min <= max);
        Self { n, name: "uniform", shape: Shape::Uniform { min, max }, seed }
    }

    /// Gaussian with `mean`/`sigma`, truncated at 1 ns.
    pub fn gaussian(n: u64, mean: f64, sigma: f64, seed: u64) -> Self {
        Self { n, name: "gaussian", shape: Shape::Gaussian { mean, sigma }, seed }
    }

    /// Exponential with the given mean — heavy tail, strong imbalance.
    pub fn exponential(n: u64, mean: f64, seed: u64) -> Self {
        Self { n, name: "exponential", shape: Shape::Exponential { mean }, seed }
    }

    /// `high_percent`% of iterations cost `high`, the rest `low` —
    /// models a few expensive outliers.
    pub fn bimodal(n: u64, low: u64, high: u64, high_percent: u64, seed: u64) -> Self {
        assert!(high_percent <= 100);
        Self { n, name: "bimodal", shape: Shape::Bimodal { low, high, high_percent }, seed }
    }

    /// Linearly increasing from `first` to `last` — the front-loaded /
    /// back-loaded shapes classic DLS papers sweep.
    pub fn linear_increasing(n: u64, first: u64, last: u64) -> Self {
        Self { n, name: "linear-inc", shape: Shape::Linear { first, last }, seed: 0 }
    }
}

impl Workload for Synthetic {
    fn n_iters(&self) -> u64 {
        self.n
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn execute(&self, i: u64) -> u64 {
        // Synthetic workloads have no real kernel; the checksum is the
        // cost itself, which still verifies exactly-once execution.
        self.cost(i)
    }

    fn cost(&self, i: u64) -> u64 {
        let h = mix(self.seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        match self.shape {
            Shape::Constant { cost } => cost,
            Shape::Uniform { min, max } => min + h % (max - min + 1),
            Shape::Gaussian { mean, sigma } => {
                let u1 = unit(h).max(f64::MIN_POSITIVE);
                let u2 = unit(mix(h));
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (mean + sigma * z).max(1.0) as u64
            }
            Shape::Exponential { mean } => {
                let u = unit(h).max(f64::MIN_POSITIVE);
                ((-u.ln()) * mean).max(1.0) as u64
            }
            Shape::Bimodal { low, high, high_percent } => {
                if h % 100 < high_percent {
                    high
                } else {
                    low
                }
            }
            Shape::Linear { first, last } => {
                if self.n <= 1 {
                    return first;
                }
                let f = first as f64;
                let l = last as f64;
                (f + (l - f) * i as f64 / (self.n - 1) as f64).round().max(1.0) as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostTable;

    #[test]
    fn constant_is_constant() {
        let w = Synthetic::constant(100, 42);
        assert!((0..100).all(|i| w.cost(i) == 42));
    }

    #[test]
    fn uniform_within_bounds() {
        let w = Synthetic::uniform(1000, 10, 20, 1);
        assert!((0..1000).all(|i| (10..=20).contains(&w.cost(i))));
    }

    #[test]
    fn uniform_mean_near_midpoint() {
        let s = CostTable::build(&Synthetic::uniform(10_000, 0, 100, 7)).stats();
        assert!((s.mean - 50.0).abs() < 3.0, "mean {}", s.mean);
    }

    #[test]
    fn gaussian_statistics() {
        let s = CostTable::build(&Synthetic::gaussian(20_000, 1000.0, 100.0, 3)).stats();
        assert!((s.mean - 1000.0).abs() < 10.0, "mean {}", s.mean);
        assert!((s.sigma - 100.0).abs() < 10.0, "sigma {}", s.sigma);
    }

    #[test]
    fn exponential_heavy_tail() {
        let s = CostTable::build(&Synthetic::exponential(20_000, 500.0, 5)).stats();
        assert!((s.cov() - 1.0).abs() < 0.1, "exponential cov ~ 1, got {}", s.cov());
    }

    #[test]
    fn bimodal_fraction() {
        let w = Synthetic::bimodal(10_000, 1, 1000, 10, 11);
        let highs = (0..10_000).filter(|&i| w.cost(i) == 1000).count();
        assert!((800..1200).contains(&highs), "high count {highs}");
    }

    #[test]
    fn linear_endpoints() {
        let inc = Synthetic::linear_increasing(100, 10, 1000);
        assert_eq!(inc.cost(0), 10);
        assert_eq!(inc.cost(99), 1000);
    }

    #[test]
    fn deterministic_per_index() {
        let w = Synthetic::exponential(100, 50.0, 9);
        let a: Vec<u64> = (0..100).map(|i| w.cost(i)).collect();
        let b: Vec<u64> = (0..100).map(|i| w.cost(i)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn single_iteration_linear() {
        let w = Synthetic::linear_increasing(1, 5, 50);
        assert_eq!(w.cost(0), 5);
    }
}
