//! The spin-image kernel (Johnson, 1997): bin the cloud into a 2-D
//! histogram in cylindrical coordinates around one oriented point.

use super::cloud::PointCloud;

/// Spin-image generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SpinImageParams {
    /// Image width (and height) in bins, `W`.
    pub image_width: usize,
    /// Side length of one bin in model units.
    pub bin_size: f64,
    /// Support-angle filter: candidates whose normal deviates from the
    /// oriented point's normal by more than this cosine are skipped.
    pub support_angle_cos: f64,
}

impl Default for SpinImageParams {
    fn default() -> Self {
        Self { image_width: 16, bin_size: 0.05, support_angle_cos: -1.0 }
    }
}

/// A generated spin image plus its kernel statistics.
#[derive(Clone, Debug)]
pub struct SpinImage {
    /// Row-major `W x W` histogram (bilinear-weighted counts).
    pub bins: Vec<f32>,
    /// Image width `W`.
    pub width: usize,
    /// Number of cloud points that fell inside the support and were
    /// binned — the quantity that drives per-iteration cost.
    pub contributing: u64,
}

impl SpinImage {
    /// Quantised total mass of the histogram, for checksums.
    pub(crate) fn mass_checksum(&self) -> u64 {
        (self.bins.iter().map(|&b| f64::from(b)).sum::<f64>() * 16.0).round() as u64
    }
}

/// The support of a spin image: which cloud points the image of an
/// oriented point bins. [`spin_image`] and [`contributing`] run its one
/// test.
struct Support {
    alpha_max: f64,
    beta_max: f64,
    cos: f64,
}

impl Support {
    fn new(params: &SpinImageParams) -> Self {
        let w = params.image_width as f64;
        Self {
            alpha_max: w * params.bin_size,
            beta_max: (w / 2.0) * params.bin_size,
            cos: params.support_angle_cos,
        }
    }

    /// Whether the point `x` with normal `nx` falls inside the support
    /// of the oriented point `(p, n)`, with its `(alpha, beta)` (see
    /// [`spin_image`]). A point is outside when its normal fails the
    /// support-angle filter, `alpha^2` is negative (numerical noise),
    /// `alpha >= W*bin` or `|beta| >= (W/2)*bin`. The conditions are
    /// joined with the non-short-circuit `|`, so the test compiles
    /// without a branch (a branch per condition made the count about
    /// 2x slower).
    #[inline]
    fn test(&self, p: [f64; 3], n: [f64; 3], x: [f64; 3], nx: [f64; 3]) -> (bool, f64, f64) {
        let cos = n[0] * nx[0] + n[1] * nx[1] + n[2] * nx[2];
        let d = [x[0] - p[0], x[1] - p[1], x[2] - p[2]];
        let beta = n[0] * d[0] + n[1] * d[1] + n[2] * d[2];
        let dist2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        let alpha2 = dist2 - beta * beta;
        let alpha = alpha2.sqrt();
        let outside = (cos < self.cos)
            | (alpha2 < 0.0)
            | (alpha >= self.alpha_max)
            | (beta.abs() >= self.beta_max);
        (!outside, alpha, beta)
    }

    /// How many of `points`/`normals` fall inside the support of
    /// `(p, n)`.
    fn count(&self, p: [f64; 3], n: [f64; 3], points: &[[f64; 3]], normals: &[[f64; 3]]) -> u64 {
        points.iter().zip(normals).map(|(&x, &nx)| u64::from(self.test(p, n, x, nx).0)).sum()
    }
}

/// Generate the spin image of oriented point `idx`.
///
/// For every other point `x`, with `p` the oriented point and `n` its
/// normal: `beta = n . (x - p)` (elevation along the normal) and
/// `alpha = sqrt(|x - p|^2 - beta^2)` (radial distance). Points whose
/// normal is within the support angle, with `0 <= alpha < W*bin` and
/// `|beta| < (W/2)*bin`, are accumulated bilinearly into the `W x W`
/// histogram.
pub fn spin_image(cloud: &PointCloud, idx: usize, params: &SpinImageParams) -> SpinImage {
    let w = params.image_width;
    let mut bins = vec![0.0f32; w * w];
    let p = cloud.points[idx];
    let n = cloud.normals[idx];
    let support = Support::new(params);
    let mut contributing = 0u64;

    for j in 0..cloud.len() {
        if j == idx {
            continue;
        }
        let (inside, alpha, beta) = support.test(p, n, cloud.points[j], cloud.normals[j]);
        if !inside {
            continue;
        }
        // Continuous bin coordinates; beta = 0 maps to the vertical centre.
        let a = alpha / params.bin_size;
        let b = (support.beta_max - beta) / params.bin_size;
        let ai = (a.floor() as usize).min(w - 1);
        let bi = (b.floor() as usize).min(w - 1);
        let fa = (a - ai as f64).clamp(0.0, 1.0);
        let fb = (b - bi as f64).clamp(0.0, 1.0);
        // Bilinear accumulation into up to four bins.
        let mut add = |row: usize, col: usize, weight: f64| {
            if row < w && col < w {
                bins[row * w + col] += weight as f32;
            }
        };
        add(bi, ai, (1.0 - fa) * (1.0 - fb));
        add(bi, ai + 1, fa * (1.0 - fb));
        add(bi + 1, ai, (1.0 - fa) * fb);
        add(bi + 1, ai + 1, fa * fb);
        contributing += 1;
    }

    SpinImage { bins, width: w, contributing }
}

/// [`SpinImage::contributing`] of oriented point `idx` without building
/// the image: how many other cloud points pass the support test
/// [`spin_image`] bins by.
pub fn contributing(cloud: &PointCloud, idx: usize, params: &SpinImageParams) -> u64 {
    let support = Support::new(params);
    let (points, normals) = (&cloud.points, &cloud.normals);
    let (p, n) = (points[idx], normals[idx]);
    support.count(p, n, &points[..idx], &normals[..idx])
        + support.count(p, n, &points[idx + 1..], &normals[idx + 1..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_point_cloud(offset: [f64; 3]) -> PointCloud {
        PointCloud {
            points: vec![[0.0, 0.0, 0.0], offset],
            normals: vec![[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
        }
    }

    #[test]
    fn neighbour_within_support_is_binned() {
        let cloud = two_point_cloud([0.1, 0.0, 0.1]);
        let img = spin_image(&cloud, 0, &SpinImageParams::default());
        assert_eq!(img.contributing, 1);
        let mass: f32 = img.bins.iter().sum();
        assert!((mass - 1.0).abs() < 1e-5, "bilinear weights must sum to 1, got {mass}");
    }

    #[test]
    fn far_point_is_outside_support() {
        let cloud = two_point_cloud([10.0, 0.0, 0.0]);
        let img = spin_image(&cloud, 0, &SpinImageParams::default());
        assert_eq!(img.contributing, 0);
        assert!(img.bins.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn beta_outside_vertical_support_skipped() {
        // alpha = 0, beta = 10 bins above centre but W/2 = 8.
        let cloud = two_point_cloud([0.0, 0.0, 0.5]);
        let img = spin_image(&cloud, 0, &SpinImageParams::default());
        assert_eq!(img.contributing, 0);
    }

    #[test]
    fn support_angle_filter() {
        let cloud = PointCloud {
            points: vec![[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]],
            normals: vec![[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
        };
        // Require normals within 90 degrees.
        let mut params = SpinImageParams { support_angle_cos: 0.0, ..Default::default() };
        let img = spin_image(&cloud, 0, &params);
        assert_eq!(img.contributing, 0);
        params.support_angle_cos = -1.0;
        let img = spin_image(&cloud, 0, &params);
        assert_eq!(img.contributing, 1);
    }

    #[test]
    fn self_point_excluded() {
        let cloud = two_point_cloud([100.0, 100.0, 100.0]);
        let img = spin_image(&cloud, 0, &SpinImageParams::default());
        assert_eq!(img.contributing, 0);
    }

    #[test]
    fn beta_sign_maps_to_rows() {
        // Above the tangent plane (beta > 0) lands in the upper half.
        let above = two_point_cloud([0.05, 0.0, 0.2]);
        let img = spin_image(&above, 0, &SpinImageParams::default());
        let w = img.width;
        let top_half: f32 = img.bins[..w * w / 2].iter().sum();
        let bottom_half: f32 = img.bins[w * w / 2..].iter().sum();
        assert!(top_half > bottom_half);
    }
}
