//! Virtual time: integer nanoseconds.

/// Virtual time / duration in nanoseconds. `u64` gives ~584 years of
/// simulated time — ample.
pub type Time = u64;

/// One second in [`Time`] units.
pub const SEC: Time = 1_000_000_000;

/// Render a time as seconds with millisecond precision, e.g. `"19.600s"`.
pub fn fmt_secs(t: Time) -> String {
    format!("{:.3}s", t as f64 / SEC as f64)
}

/// Convert to floating-point seconds.
pub fn to_secs(t: Time) -> f64 {
    t as f64 / SEC as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_consistent() {
        assert_eq!(SEC, 1_000_000_000);
        assert_eq!(fmt_secs(SEC), "1.000s");
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(19_600_000_000), "19.600s");
        assert_eq!(fmt_secs(0), "0.000s");
    }

    #[test]
    fn to_secs_roundtrip() {
        assert!((to_secs(SEC) - 1.0).abs() < 1e-12);
        assert!((to_secs(1_000_000) - 0.001).abs() < 1e-12);
    }
}
