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
    /// `alpha_max^2`, rounded so that comparing `alpha^2` with it
    /// decides `alpha >= alpha_max` exactly (see [`alpha2_threshold`]).
    alpha2_max: f64,
    beta_max: f64,
    cos: f64,
}

impl Support {
    fn new(params: &SpinImageParams) -> Self {
        let w = params.image_width as f64;
        Self {
            alpha2_max: alpha2_threshold(w * params.bin_size),
            beta_max: (w / 2.0) * params.bin_size,
            cos: params.support_angle_cos,
        }
    }

    /// Whether the point `x` with normal `nx` falls inside the support
    /// of the oriented point `(p, n)`, with its `(alpha^2, beta)` (see
    /// [`spin_image`]). A point is outside when its normal fails the
    /// support-angle filter, `alpha^2` is negative (numerical noise),
    /// `alpha >= W*bin` or `|beta| >= (W/2)*bin`. The conditions are
    /// joined with the non-short-circuit `|`, so the test compiles
    /// without a branch (a branch per condition made the count about
    /// 2x slower), and no pair pays for a square root.
    #[inline]
    fn test(&self, p: [f64; 3], n: [f64; 3], x: [f64; 3], nx: [f64; 3]) -> (bool, f64, f64) {
        let cos = n[0] * nx[0] + n[1] * nx[1] + n[2] * nx[2];
        let d = [x[0] - p[0], x[1] - p[1], x[2] - p[2]];
        let beta = n[0] * d[0] + n[1] * d[1] + n[2] * d[2];
        let dist2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        let alpha2 = dist2 - beta * beta;
        let outside = (cos < self.cos)
            | (alpha2 < 0.0)
            | (alpha2 >= self.alpha2_max)
            | (beta.abs() >= self.beta_max);
        (!outside, alpha2, beta)
    }
}

/// The least `t` with `t.sqrt() >= alpha_max`, so that for every `f64`
/// `x`, NaN, -0.0 and +inf included, `x >= t` exactly when
/// `x.sqrt() >= alpha_max`. IEEE `sqrt` is correctly rounded, hence
/// monotone, so the `x` that pass form a ray that starts at `t`.
/// `alpha_max * alpha_max` is within an ulp or two of `t` but need not
/// be it (`0.8 * 0.8` is `0.6400000000000001`, `t` is `0.64`), so `t`
/// is found by stepping ulps from it.
fn alpha2_threshold(alpha_max: f64) -> f64 {
    if alpha_max.is_nan() {
        // `x.sqrt() >= NaN` never holds, nor does `x >= NaN`.
        return f64::NAN;
    }
    if alpha_max <= 0.0 {
        // Every `x.sqrt()` that is a number is at least -0.0.
        return 0.0;
    }
    let passes = |t: f64| t.sqrt() >= alpha_max;
    let mut t = alpha_max * alpha_max;
    // Positive and not NaN, so the bits count ulps.
    while t > 0.0 && passes(f64::from_bits(t.to_bits() - 1)) {
        t = f64::from_bits(t.to_bits() - 1);
    }
    while !passes(t) {
        t = f64::from_bits(t.to_bits() + 1);
    }
    t
}

/// A cloud's points and normals as six coordinate columns, `x`, `y`,
/// `z`, then the normal's: the support count reads each as a run of
/// `f64`s and runs across points at vector width. One allocation: for
/// a cloud large enough to matter it is above the allocator's mmap
/// threshold, so its pages go back to the system with it instead of
/// staying resident in the heap.
struct Columns {
    len: usize,
    data: Vec<f64>,
}

impl Columns {
    fn new(cloud: &PointCloud) -> Self {
        let len = cloud.len();
        let mut data = Vec::with_capacity(6 * len);
        for of in [&cloud.points, &cloud.normals] {
            for k in 0..3 {
                data.extend(of.iter().map(|v| v[k]));
            }
        }
        Self { len, data }
    }

    /// Column `k` over the points `from..to`.
    fn column(&self, k: usize, from: usize, to: usize) -> &[f64] {
        &self.data[k * self.len..][from..to]
    }

    fn point(&self, j: usize) -> ([f64; 3], [f64; 3]) {
        let c = |k: usize| self.data[k * self.len + j];
        ([c(0), c(1), c(2)], [c(3), c(4), c(5)])
    }

    /// How many points other than `idx` fall inside the support of
    /// point `idx`.
    fn contributing(&self, support: &Support, idx: usize) -> u64 {
        let (p, n) = self.point(idx);
        let count = |from: usize, to: usize| -> u64 {
            let [x0, x1, x2, n0, n1, n2] = [0, 1, 2, 3, 4, 5].map(|k| self.column(k, from, to));
            let mut count = 0;
            for j in 0..to - from {
                let inside = support.test(p, n, [x0[j], x1[j], x2[j]], [n0[j], n1[j], n2[j]]).0;
                count += u64::from(inside);
            }
            count
        };
        count(0, idx) + count(idx + 1, self.len)
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
        let (inside, alpha2, beta) = support.test(p, n, cloud.points[j], cloud.normals[j]);
        if !inside {
            continue;
        }
        let alpha = alpha2.sqrt();
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
/// [`spin_image`] bins by. For every point of a cloud, use
/// [`contributing_all`], which copies the cloud into columns once.
pub fn contributing(cloud: &PointCloud, idx: usize, params: &SpinImageParams) -> u64 {
    Columns::new(cloud).contributing(&Support::new(params), idx)
}

/// [`contributing`] of every point of `cloud`, in order. The column
/// copy of the cloud is dropped before this returns.
pub fn contributing_all(cloud: &PointCloud, params: &SpinImageParams) -> Vec<u64> {
    let (columns, support) = (Columns::new(cloud), Support::new(params));
    (0..cloud.len()).map(|idx| columns.contributing(&support, idx)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// At the default parameters `alpha_max` is `0.8`, whose square
    /// rounds to `0.6400000000000001`; the least `alpha^2` whose root
    /// reaches `0.8` is `0.64`. A neighbour at `(0.48, 0.64, 0)` has
    /// `alpha^2` exactly `0.64`, so `alpha` is `0.8` and it is outside;
    /// one at `(0.8 - ulp, 0, 0)` has `alpha^2` one ulp below, and it
    /// is inside. Both counts agree with the image's and with `sqrt`.
    #[test]
    fn the_support_edge_is_where_the_root_reaches_alpha_max() {
        let params = SpinImageParams::default();
        let alpha_max = params.image_width as f64 * params.bin_size;
        assert_eq!((alpha_max, alpha_max * alpha_max), (0.8, 0.640_000_000_000_000_1));
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        for (offset, alpha2, binned) in
            [([0.48, 0.64, 0.0], 0.64, 0), ([below(0.8), 0.0, 0.0], below(0.64), 1)]
        {
            let cloud = two_point_cloud(offset);
            assert_eq!(u64::from(alpha2.sqrt() < alpha_max), binned, "{offset:?}");
            assert_eq!(contributing(&cloud, 0, &params), binned, "{offset:?}");
            assert_eq!(spin_image(&cloud, 0, &params).contributing, binned, "{offset:?}");
            let (p, n) = (cloud.points[0], cloud.normals[0]);
            let tested = Support::new(&params).test(p, n, cloud.points[1], cloud.normals[1]);
            assert_eq!(tested, (binned == 1, alpha2, 0.0), "{offset:?}");
        }
        assert_eq!(Support::new(&params).alpha2_max, 0.64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // Image widths and bin sizes as `psia_count_matches_the_spin_image`
        // draws them: every `f64` within 64 ulps of `alpha_max^2`, and
        // the values outside the positive numbers, is on the same side
        // of the threshold as its root is of `alpha_max`.
        #[test]
        fn the_threshold_decides_alpha_exactly(
            image_width in 1usize..33,
            bin_size in prop_oneof![0.001f64..0.05, 0.05f64..0.5],
        ) {
            let params = SpinImageParams { image_width, bin_size, ..Default::default() };
            let alpha2_max = Support::new(&params).alpha2_max;
            let alpha_max = image_width as f64 * bin_size;
            let square = (alpha_max * alpha_max).to_bits();
            let near = (square - 64..=square + 64).map(f64::from_bits);
            for x in near.chain([f64::NAN, -0.0, 0.0, -1.0, f64::INFINITY]) {
                prop_assert_eq!(x.sqrt() >= alpha_max, x >= alpha2_max, "x = {:e}", x);
            }
        }
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
