//! The Mandelbrot workload: one loop iteration computes the escape-time
//! of one pixel. The classic DLS stress test — the paper selects it
//! "due to high algorithmic load imbalance".

use crate::Workload;

/// How loop-iteration indices map onto image pixels.
///
/// Parallel Mandelbrot implementations typically iterate over *work
/// items* — contiguous pixel runs (tiles) — rather than raw row-major
/// pixels, and the tile visit order is an implementation choice. The
/// traversal matters to scheduling: row-major order concentrates the
/// expensive boundary structure into long contiguous index ranges,
/// while a shuffled tile order spreads it across the iteration space
/// (keeping only tile-local cost clusters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traversal {
    /// Iteration `i` is pixel `i` (row-major).
    RowMajor,
    /// Pixels grouped into contiguous runs of `tile` pixels; runs are
    /// visited in a multiplicative-permutation order.
    TiledShuffle {
        /// Pixels per tile; must divide `width * height`.
        tile: u32,
    },
}

/// Mandelbrot escape-time workload over a rectangular complex region.
#[derive(Clone, Debug)]
pub struct Mandelbrot {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Escape-iteration cap.
    pub max_iter: u32,
    /// Real-axis range `(min, max)`.
    pub re: (f64, f64),
    /// Imaginary-axis range `(min, max)`.
    pub im: (f64, f64),
    /// Virtual cost per escape iteration (ns).
    pub ns_per_iter: u64,
    /// Fixed virtual cost per pixel (loop setup etc., ns).
    pub ns_base: u64,
    /// Iteration-to-pixel mapping.
    pub traversal: Traversal,
}

impl Mandelbrot {
    /// The paper-scale instance used for the figure sweeps: a deep-zoom
    /// boundary region ("seahorse valley") at high iteration cap, with
    /// a shuffled tile traversal. Calibrated (see `bench/bin/calibrate`)
    /// so the three properties the paper's figures hinge on hold:
    /// sparse, very expensive pixel clusters scattered through the
    /// iteration space (strong fine-grained imbalance), near-uniform
    /// cost at large block scales, and a mean pixel cost a few times an
    /// `MPI_Win_lock` acquisition.
    pub fn paper() -> Self {
        Self {
            width: 4096,
            height: 3072,
            max_iter: 200_000,
            re: (-0.7485, -0.7445),
            im: (0.1290, 0.1330),
            ns_per_iter: 320,
            ns_base: 500,
            traversal: Traversal::TiledShuffle { tile: 48 },
        }
    }

    /// A reduced instance (1/16 of the paper's pixels) whose cost
    /// structure is rescaled so the figure shapes survive: spikes and
    /// mean pixel cost shrink with the pixel count, keeping their
    /// ratios to the ideal makespan and to a lock acquisition. Used by
    /// quick figure sweeps and the shape tests.
    pub fn quick() -> Self {
        Self {
            width: 1024,
            height: 768,
            max_iter: 50_000,
            re: (-0.7485, -0.7445),
            im: (0.1290, 0.1330),
            ns_per_iter: 450,
            ns_base: 500,
            traversal: Traversal::TiledShuffle { tile: 48 },
        }
    }

    /// A small instance for unit tests (completes in microseconds).
    pub fn tiny() -> Self {
        Self {
            width: 32,
            height: 24,
            max_iter: 256,
            re: (-2.0, 0.6),
            im: (-1.1, 1.1),
            ns_per_iter: 8,
            ns_base: 60,
            traversal: Traversal::RowMajor,
        }
    }

    /// Map an iteration index to a pixel index through the traversal.
    pub fn pixel_of(&self, i: u64) -> u64 {
        match self.traversal {
            Traversal::RowMajor => i,
            Traversal::TiledShuffle { tile } => {
                let tile = u64::from(tile);
                let n = self.n_iters();
                debug_assert_eq!(n % tile, 0, "tile must divide the pixel count");
                let tiles = n / tile;
                let (t, off) = (i / tile, i % tile);
                // Multiplicative permutation; the factor is made coprime
                // with the tile count so the map is a bijection.
                let mut a = 0x9E37_79B9u64 | 1;
                while gcd(a, tiles) != 1 {
                    a += 2;
                }
                (t.wrapping_mul(a) % tiles) * tile + off
            }
        }
    }

    /// Map iteration index to pixel centre in the complex plane.
    fn point(&self, i: u64) -> (f64, f64) {
        self.centre(self.pixel_of(i))
    }

    /// Centre of pixel `p` in the complex plane.
    fn centre(&self, p: u64) -> (f64, f64) {
        let x = (p % u64::from(self.width)) as f64;
        let y = (p / u64::from(self.width)) as f64;
        let cr = self.re.0 + (x + 0.5) / f64::from(self.width) * (self.re.1 - self.re.0);
        let ci = self.im.0 + (y + 0.5) / f64::from(self.height) * (self.im.1 - self.im.0);
        (cr, ci)
    }

    /// Escape iterations of pixel `i` (the real kernel): iterate
    /// `z <- z^2 + c` until `|z| > 2` or `max_iter`.
    pub fn escape_iterations(&self, i: u64) -> u32 {
        let (cr, ci) = self.point(i);
        let (mut zr, mut zi) = (0.0f64, 0.0f64);
        let mut it = 0u32;
        while it < self.max_iter {
            let zr2 = zr * zr;
            let zi2 = zi * zi;
            if zr2 + zi2 > 4.0 {
                break;
            }
            zi = 2.0 * zr * zi + ci;
            zr = zr2 - zi2 + cr;
            it += 1;
        }
        it
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Workload for Mandelbrot {
    fn n_iters(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    fn name(&self) -> &'static str {
        "Mandelbrot"
    }

    fn execute(&self, i: u64) -> u64 {
        u64::from(self.escape_iterations(i))
    }

    fn cost(&self, i: u64) -> u64 {
        self.ns_base + u64::from(self.escape_iterations(i)) * self.ns_per_iter
    }

    /// The whole table with [`LANES`] pixels in flight at once. One
    /// escape loop is a serial dependency chain (`z` feeds the next
    /// `z`), so a core runs it at a fraction of its floating-point
    /// throughput; independent pixels fill the gaps. Every pixel still
    /// sees exactly the operations of [`Mandelbrot::escape_iterations`],
    /// in the same order, so the counts are the same.
    fn costs(&self) -> Vec<u64> {
        let n = self.n_iters();
        if n < LANES as u64 {
            return (0..n).map(|i| self.cost(i)).collect();
        }
        let cost_of = |it: u32| self.ns_base + u64::from(it) * self.ns_per_iter;
        let mut out = vec![0u64; n as usize];

        // The traversal maps contiguous runs of iterations onto
        // contiguous pixels: one `pixel_of` per run, not per pixel.
        let run = match self.traversal {
            Traversal::RowMajor => n,
            Traversal::TiledShuffle { tile } => u64::from(tile),
        };
        let (mut next, mut base) = (0u64, 0u64);
        // The next iteration to compute and its point, in order.
        let mut feed = || {
            let i = next;
            if i == n {
                return None;
            }
            if i % run == 0 {
                base = self.pixel_of(i);
            }
            next += 1;
            Some((i, self.centre(base + i % run)))
        };

        // (Filling the array with `std::array::from_fn` instead was
        // measured: the quick table takes 0.124 s, not 0.094 s.)
        let mut lanes = [Lane::default(); LANES];
        for lane in &mut lanes {
            *lane = Lane::start(feed().expect("n >= LANES"));
        }
        'lanes: loop {
            let mut finished = false;
            for lane in &mut lanes {
                lane.zr2 = lane.zr * lane.zr;
                lane.zi2 = lane.zi * lane.zi;
                finished |= lane.finished(self.max_iter);
            }
            if finished {
                for lane in &mut lanes {
                    if lane.finished(self.max_iter) {
                        out[lane.i as usize] = cost_of(lane.it);
                        let Some(fresh) = feed() else {
                            // Nothing left to refill with: the pixels
                            // still in flight start over below.
                            lane.i = n;
                            break 'lanes;
                        };
                        *lane = Lane::start(fresh);
                    }
                }
                continue;
            }
            for lane in &mut lanes {
                lane.zi = 2.0 * lane.zr * lane.zi + lane.ci;
                lane.zr = lane.zr2 - lane.zi2 + lane.cr;
                lane.it += 1;
            }
        }
        for i in lanes.iter().map(|lane| lane.i).filter(|&i| i < n) {
            out[i as usize] = self.cost(i);
        }
        out
    }
}

/// Pixels [`Mandelbrot::costs`] keeps in flight.
const LANES: usize = 4;

/// One pixel in flight: iteration `i` at point `c`, `it` steps in, with
/// the squares the escape test and the next step share.
#[derive(Clone, Copy, Default)]
struct Lane {
    i: u64,
    cr: f64,
    ci: f64,
    zr: f64,
    zi: f64,
    zr2: f64,
    zi2: f64,
    it: u32,
}

impl Lane {
    fn start((i, (cr, ci)): (u64, (f64, f64))) -> Self {
        Self { i, cr, ci, ..Self::default() }
    }

    fn finished(&self, max_iter: u32) -> bool {
        self.it >= max_iter || self.zr2 + self.zi2 > 4.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostTable;

    #[test]
    fn interior_point_hits_max_iter() {
        let m = Mandelbrot::tiny();
        // Find the pixel closest to the origin (inside the set).
        let i = (0..m.n_iters())
            .min_by(|&a, &b| {
                let pa = m.point(a);
                let pb = m.point(b);
                let da = pa.0 * pa.0 + pa.1 * pa.1;
                let db = pb.0 * pb.0 + pb.1 * pb.1;
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        assert_eq!(m.escape_iterations(i), m.max_iter);
    }

    #[test]
    fn corner_escapes_fast() {
        let m = Mandelbrot::tiny();
        assert!(m.escape_iterations(0) < 10);
    }

    #[test]
    fn high_imbalance() {
        let m = Mandelbrot::tiny();
        let stats = CostTable::build(&m).stats();
        // Interior pixels cost ~max_iter * ns_per_iter; exterior pixels
        // almost nothing: imbalance factor must be large.
        assert!(stats.imbalance_factor() > 3.0, "imbalance {}", stats.imbalance_factor());
        assert!(stats.cov() > 0.5, "cov {}", stats.cov());
    }

    #[test]
    fn cost_derived_from_escape_count() {
        let m = Mandelbrot::tiny();
        for i in [0, 5, 100, 700] {
            assert_eq!(m.cost(i), 60 + m.execute(i) * 8);
        }
    }

    #[test]
    fn deterministic() {
        let m = Mandelbrot::tiny();
        let a: Vec<u64> = (0..m.n_iters()).map(|i| m.execute(i)).collect();
        let b: Vec<u64> = (0..m.n_iters()).map(|i| m.execute(i)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn paper_instance_shape() {
        let m = Mandelbrot::paper();
        assert_eq!(m.n_iters(), 4096 * 3072);
        assert!(matches!(m.traversal, Traversal::TiledShuffle { tile: 48 }));
    }

    #[test]
    fn tiled_shuffle_is_a_bijection() {
        let mut m = Mandelbrot::tiny();
        m.traversal = Traversal::TiledShuffle { tile: 16 };
        let n = m.n_iters();
        let mut seen = vec![false; n as usize];
        for i in 0..n {
            let p = m.pixel_of(i);
            assert!(p < n);
            assert!(!seen[p as usize], "pixel {p} visited twice");
            seen[p as usize] = true;
        }
    }

    #[test]
    fn tiled_shuffle_preserves_tile_contiguity() {
        let mut m = Mandelbrot::tiny();
        m.traversal = Traversal::TiledShuffle { tile: 16 };
        for t in 0..m.n_iters() / 16 {
            let base = m.pixel_of(t * 16);
            for off in 1..16 {
                assert_eq!(m.pixel_of(t * 16 + off), base + off);
            }
        }
    }

    #[test]
    fn shuffle_keeps_the_multiset_of_costs() {
        let a = Mandelbrot::tiny();
        let mut b = Mandelbrot::tiny();
        b.traversal = Traversal::TiledShuffle { tile: 16 };
        let mut ca: Vec<u64> = (0..a.n_iters()).map(|i| a.cost(i)).collect();
        let mut cb: Vec<u64> = (0..b.n_iters()).map(|i| b.cost(i)).collect();
        // Different order...
        assert_ne!(ca, cb);
        ca.sort_unstable();
        cb.sort_unstable();
        // ...same work.
        assert_eq!(ca, cb);
    }
}
