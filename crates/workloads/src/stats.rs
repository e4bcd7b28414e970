//! Summary statistics of per-iteration costs — `mu` and `sigma` feed
//! FAC/FSC, and the imbalance metrics quantify the paper's observation
//! that Mandelbrot is more imbalanced than PSIA.

/// Summary statistics of a cost vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadStats {
    /// Number of iterations.
    pub n: u64,
    /// Sum of costs.
    pub total: u64,
    /// Mean cost.
    pub mean: f64,
    /// Population standard deviation.
    pub sigma: f64,
    /// Maximum cost.
    pub max: u64,
    /// Minimum cost.
    pub min: u64,
}

impl WorkloadStats {
    /// Compute statistics from raw costs, read in order twice: once for
    /// the total and the extremes, once for the variance.
    pub fn from_costs<I>(costs: I) -> Self
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let costs = costs.into_iter();
        let n = costs.len() as u64;
        if n == 0 {
            return Self { n: 0, total: 0, mean: 0.0, sigma: 0.0, max: 0, min: 0 };
        }
        let (total, max, min) = costs
            .clone()
            .fold((0u64, 0, u64::MAX), |(t, max, min), c| (t + c, max.max(c), min.min(c)));
        let mean = total as f64 / n as f64;
        let var = costs.map(|c| (c as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        Self { n, total, mean, sigma: var.sqrt(), max, min }
    }

    /// Coefficient of variation `sigma / mean` — the scale-free
    /// irregularity measure.
    pub fn cov(&self) -> f64 {
        if self.mean > 0.0 {
            self.sigma / self.mean
        } else {
            0.0
        }
    }

    /// `max / mean` — how much a single worst iteration can stall one
    /// worker relative to the average.
    pub fn imbalance_factor(&self) -> f64 {
        if self.mean > 0.0 {
            self.max as f64 / self.mean
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_costs_have_zero_sigma() {
        let s = WorkloadStats::from_costs([5, 5, 5, 5]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.sigma, 0.0);
        assert_eq!(s.cov(), 0.0);
        assert_eq!(s.imbalance_factor(), 1.0);
    }

    #[test]
    fn known_distribution() {
        let s = WorkloadStats::from_costs([2, 4, 4, 4, 5, 5, 7, 9]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.sigma, 2.0); // classic example
        assert_eq!(s.total, 40);
        assert_eq!((s.min, s.max), (2, 9));
    }

    #[test]
    fn empty_is_all_zero() {
        let s = WorkloadStats::from_costs([]);
        assert_eq!(s.n, 0);
        assert_eq!(s.cov(), 0.0);
    }
}
