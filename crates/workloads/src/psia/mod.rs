//! PSIA — the parallel spin-image algorithm (Eleliemy et al., 2016).
//!
//! The spin-image algorithm (Johnson, 1997) converts a 3-D object into a
//! set of 2-D images: for each *oriented point* (point + surface normal)
//! it bins every other point of the cloud into a 2-D histogram in
//! cylindrical coordinates `(alpha, beta)` around the point's normal.
//! One loop iteration of PSIA generates the spin-image of one oriented
//! point; the cost varies with the local point density (how many cloud
//! points fall into the image support), giving the *moderate* load
//! imbalance the paper contrasts with Mandelbrot's extreme one.
//!
//! The paper's 3-D scan datasets are proprietary; [`cloud`] generates
//! synthetic clouds with controlled density variation instead, which
//! preserves the cost structure the scheduler sees.

pub mod cloud;
pub mod image;

use crate::Workload;
use cloud::PointCloud;
use image::{spin_image, SpinImageParams};

/// The PSIA workload: iteration `i` computes the spin-image of oriented
/// point `i` of the cloud.
pub struct Psia {
    cloud: PointCloud,
    params: SpinImageParams,
    /// Virtual cost per candidate point scanned (ns).
    pub ns_scan: u64,
    /// Virtual cost per contributing (binned) point (ns).
    pub ns_accum: u64,
    /// Fixed virtual cost per spin-image (allocation, setup; ns).
    pub ns_base: u64,
}

impl Psia {
    /// PSIA over an explicit cloud with explicit parameters.
    ///
    /// The default virtual-cost coefficients weight the accumulation
    /// path (bilinear binning of contributing points) more heavily than
    /// the scan path, as in the real algorithm where binning dominates;
    /// this is also what gives PSIA its moderate per-iteration cost
    /// variation (the contributing count varies with local density).
    pub fn new(cloud: PointCloud, params: SpinImageParams) -> Self {
        Self { cloud, params, ns_scan: 4, ns_accum: 40, ns_base: 2_000 }
    }

    /// A single-object instance: a clustered cloud of 4096 points
    /// (density variation -> moderate imbalance). For the figure-sweep
    /// scale, see [`PsiaStream::paper`].
    pub fn single_object() -> Self {
        Self::new(PointCloud::clustered(4096, 24, 0x951A), SpinImageParams::default())
    }

    /// The paper-scale instance for the figure sweeps; see
    /// [`PsiaStream::paper`].
    pub fn paper() -> PsiaStream {
        PsiaStream::paper()
    }

    /// A small instance for unit tests.
    pub fn tiny() -> Self {
        Self::new(PointCloud::clustered(192, 6, 0x951A), SpinImageParams::default())
    }

    /// The underlying cloud.
    pub fn cloud(&self) -> &PointCloud {
        &self.cloud
    }

    /// Spin-image generation parameters.
    pub fn params(&self) -> &SpinImageParams {
        &self.params
    }

    /// Generate the full spin-image of oriented point `i`.
    pub fn image(&self, i: u64) -> image::SpinImage {
        spin_image(&self.cloud, i as usize, &self.params)
    }

    /// How many cloud points the spin-image of oriented point `i` bins,
    /// its [`image::SpinImage::contributing`], counted without building
    /// the image.
    pub fn contributing(&self, i: u64) -> u64 {
        image::contributing(&self.cloud, i as usize, &self.params)
    }

    /// [`Psia::contributing`] of every oriented point, in order, from
    /// one column copy of the cloud.
    pub fn contributing_all(&self) -> Vec<u64> {
        image::contributing_all(&self.cloud, &self.params)
    }

    /// The cost of a spin image that bins `contributing` points.
    fn cost_of(&self, contributing: u64) -> u64 {
        self.ns_base + self.ns_scan * self.cloud.len() as u64 + self.ns_accum * contributing
    }
}

impl Workload for Psia {
    fn n_iters(&self) -> u64 {
        self.cloud.len() as u64
    }

    fn name(&self) -> &'static str {
        "PSIA"
    }

    fn execute(&self, i: u64) -> u64 {
        let img = self.image(i);
        // Checksum: contributing count plus quantised mass, so tests
        // detect both missed points and wrong binning.
        img.contributing + img.mass_checksum()
    }

    /// From the kernel's own count of the points the image bins
    /// ([`Psia::contributing`]), without building the image.
    fn cost(&self, i: u64) -> u64 {
        self.cost_of(self.contributing(i))
    }
}

/// PSIA over a *stream of frames*: the object-recognition pipeline the
/// spin-image papers motivate matches a scene against a library frame
/// after frame, so the parallel loop generates spin-images for every
/// oriented point of every frame. One loop iteration = one spin image.
///
/// The per-point kernel costs are counted once by the real kernel's
/// support test on the base cloud; successive frames see the same
/// scene under small seeded per-frame cost jitter (sensor noise,
/// +-10%), which keeps the moderate, fine-grained imbalance the paper
/// describes without large-scale structure.
pub struct PsiaStream {
    base: Psia,
    /// Number of frames in the stream.
    pub frames: u64,
    /// Per-frame multiplicative cost jitter amplitude (0.1 = +-10%).
    pub jitter: f64,
    point_costs: Vec<u64>,
}

impl PsiaStream {
    /// Stream over `frames` frames of `base`'s scene.
    pub fn new(base: Psia, frames: u64, jitter: f64) -> Self {
        let point_costs = base.contributing_all().into_iter().map(|c| base.cost_of(c)).collect();
        Self { base, frames, jitter, point_costs }
    }

    /// The paper-scale instance: a 4096-point clustered scene over 1536
    /// frames — 6,291,456 loop iterations whose mean cost (~80 us) is a
    /// few times an `MPI_Win_lock` acquisition, matching the regime in
    /// which the paper observes the `X+SS` overhead to be *more*
    /// visible for PSIA than for Mandelbrot.
    pub fn paper() -> Self {
        Self::new(Psia::single_object(), 1536, 0.1)
    }

    /// The single-frame scene.
    pub fn base(&self) -> &Psia {
        &self.base
    }

    fn jitter_factor(&self, i: u64) -> f64 {
        // splitmix64-style hash -> [1-jitter, 1+jitter]
        let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.jitter * (2.0 * unit - 1.0)
    }
}

impl Workload for PsiaStream {
    fn n_iters(&self) -> u64 {
        self.base.n_iters() * self.frames
    }

    fn name(&self) -> &'static str {
        "PSIA"
    }

    fn execute(&self, i: u64) -> u64 {
        self.base.execute(i % self.base.n_iters())
    }

    fn cost(&self, i: u64) -> u64 {
        let point = (i % self.base.n_iters()) as usize;
        let raw = self.point_costs[point] as f64;
        (raw * self.jitter_factor(i)).round().max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostTable;

    #[test]
    fn moderate_imbalance_less_than_mandelbrot() {
        let psia = Psia::tiny();
        let mandel = crate::Mandelbrot::tiny();
        let ps = CostTable::build(&psia).stats();
        let ms = CostTable::build(&mandel).stats();
        assert!(ps.cov() > 0.01, "PSIA should be irregular, cov = {}", ps.cov());
        assert!(
            ps.cov() < ms.cov(),
            "PSIA (cov {}) must be less imbalanced than Mandelbrot (cov {})",
            ps.cov(),
            ms.cov()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Psia::tiny();
        let b = Psia::tiny();
        for i in [0u64, 7, 100] {
            assert_eq!(a.execute(i), b.execute(i));
            assert_eq!(a.cost(i), b.cost(i));
        }
    }

    #[test]
    fn cost_scales_with_contributing_points() {
        let p = Psia::tiny();
        let costs: Vec<u64> = (0..p.n_iters()).map(|i| p.cost(i)).collect();
        let min = *costs.iter().min().unwrap();
        let max = *costs.iter().max().unwrap();
        assert!(max > min, "density variation must produce cost variation");
        // Every iteration at least scans the whole cloud.
        assert!(min >= p.ns_base + p.ns_scan * p.n_iters());
    }

    #[test]
    fn images_have_mass() {
        let p = Psia::tiny();
        let img = p.image(0);
        assert!(img.contributing > 0, "point 0 should see neighbours");
        assert!(img.bins.iter().copied().sum::<f32>() > 0.0);
    }

    #[test]
    fn stream_multiplies_iterations() {
        let s = PsiaStream::new(Psia::tiny(), 7, 0.0);
        assert_eq!(s.n_iters(), 7 * s.base().n_iters());
    }

    #[test]
    fn stream_without_jitter_repeats_frame_costs() {
        let s = PsiaStream::new(Psia::tiny(), 3, 0.0);
        let n = s.base().n_iters();
        for i in 0..n {
            assert_eq!(s.cost(i), s.cost(i + n));
            assert_eq!(s.cost(i), s.base().cost(i));
        }
    }

    #[test]
    fn stream_jitter_bounded() {
        let s = PsiaStream::new(Psia::tiny(), 4, 0.1);
        let n = s.base().n_iters();
        for i in 0..s.n_iters() {
            let raw = s.base().cost(i % n) as f64;
            let c = s.cost(i) as f64;
            assert!(c >= (raw * 0.9).floor() && c <= (raw * 1.1).ceil(), "i={i}");
        }
    }

    #[test]
    fn stream_execute_matches_base_frame() {
        let s = PsiaStream::new(Psia::tiny(), 2, 0.1);
        let n = s.base().n_iters();
        assert_eq!(s.execute(3), s.execute(3 + n));
    }
}
