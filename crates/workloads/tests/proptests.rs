//! Property tests for the workloads: determinism, cost/execute
//! consistency, traversal bijectivity, stream semantics, and the cost
//! tables' fast paths against the kernels they stand for.

use proptest::prelude::*;
use std::sync::OnceLock;
use workloads::psia::cloud::PointCloud;
use workloads::psia::image::{contributing, contributing_all, spin_image, SpinImageParams};
use workloads::synthetic::Synthetic;
use workloads::{
    CostSink, CostTable, Mandelbrot, Psia, PsiaStream, Traversal, Workload, WorkloadStats,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synthetic_cost_is_pure(n in 1u64..2_000, seed in any::<u64>(), idx in 0u64..2_000) {
        prop_assume!(idx < n);
        let w = Synthetic::exponential(n, 250.0, seed);
        prop_assert_eq!(w.cost(idx), w.cost(idx));
        prop_assert_eq!(w.execute(idx), w.execute(idx));
    }

    #[test]
    fn cost_table_total_matches_sum(n in 1u64..1_500, seed in any::<u64>()) {
        let w = Synthetic::uniform(n, 5, 500, seed);
        let t = CostTable::build(&w);
        let direct: u64 = (0..n).map(|i| w.cost(i)).sum();
        prop_assert_eq!(t.stats().total, direct);
        prop_assert_eq!(t.range_cost(0, n), direct);
    }

    #[test]
    fn range_cost_is_additive(n in 2u64..1_000, split in 1u64..999, seed in any::<u64>()) {
        prop_assume!(split < n);
        let w = Synthetic::gaussian(n, 200.0, 30.0, seed);
        let t = CostTable::build(&w);
        prop_assert_eq!(
            t.range_cost(0, split) + t.range_cost(split, n),
            t.range_cost(0, n)
        );
    }

    #[test]
    fn mandelbrot_tile_shuffle_bijective(tile_pow in 0u32..5) {
        let mut m = Mandelbrot::tiny();
        let tile = 1u32 << tile_pow; // powers of two divide 32*24
        m.traversal = Traversal::TiledShuffle { tile };
        let n = m.n_iters();
        let mut seen = vec![false; n as usize];
        for i in 0..n {
            let p = m.pixel_of(i);
            prop_assert!(p < n);
            prop_assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    #[test]
    fn psia_stream_frame_periodic_checksums(frames in 1u64..5, idx in 0u64..192) {
        let s = PsiaStream::new(Psia::tiny(), frames, 0.1);
        let n = s.base().n_iters();
        prop_assume!(idx < n);
        for f in 1..frames {
            prop_assert_eq!(s.execute(idx), s.execute(idx + f * n));
        }
    }

    #[test]
    fn stats_bounds(n in 1u64..2_000, lo in 1u64..100, span in 0u64..400, seed in any::<u64>()) {
        let w = Synthetic::uniform(n, lo, lo + span, seed);
        let s = CostTable::build(&w).stats();
        prop_assert!(s.min >= lo);
        prop_assert!(s.max <= lo + span);
        prop_assert!(s.mean >= s.min as f64 && s.mean <= s.max as f64);
        prop_assert!(s.imbalance_factor() >= 1.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // The lane-interleaved table build against the scalar kernel. About
    // two cases in five have fewer pixels than the 8 lanes, most have a
    // count the lanes do not divide; `max_iter` 0 and 1 finish every
    // pixel at once. 7 and 9 straddle a batch of 8 steps, so a bounded
    // pixel's count passes `max_iter` inside the batch; 2,047 and 2,049
    // straddle the 2,048 steps after which the tail takes a pixel over.
    #[test]
    fn mandelbrot_costs_match_the_scalar_kernel(
        width in prop_oneof![1u32..4, 1u32..48],
        height in prop_oneof![Just(1u32), 1u32..10],
        max_iter in prop::sample::select(vec![0u32, 1, 7, 9, 256, 2_047, 2_049]),
        re_min in -2.2f64..0.6,
        re_span in 0.001f64..2.8,
        im_min in -1.3f64..1.3,
        im_span in 0.001f64..2.6,
        tile_pick in any::<u32>(),
    ) {
        let n = width * height;
        // Row-major, or a tile size that divides the pixel count.
        let tiles: Vec<u32> = (1..=n).filter(|t| n % t == 0).collect();
        let traversal = match tile_pick as usize % (tiles.len() + 1) {
            0 => Traversal::RowMajor,
            k => Traversal::TiledShuffle { tile: tiles[k - 1] },
        };
        let m = Mandelbrot {
            width,
            height,
            max_iter,
            re: (re_min, re_min + re_span),
            im: (im_min, im_min + im_span),
            traversal,
            ..Mandelbrot::tiny()
        };
        let scalar: Vec<u64> = (0..m.n_iters()).map(|i| m.cost(i)).collect();
        prop_assert_eq!(table_costs(&m), scalar);
    }
}

/// Every cost of `w`'s table, as its `Workload::costs` put them.
fn table_costs(w: &dyn Workload) -> Vec<u64> {
    CostTable::build(w).iter().collect()
}

/// `Mandelbrot::quick()`'s table, built once per test binary.
fn quick_mandelbrot() -> &'static CostTable {
    static TABLE: OnceLock<CostTable> = OnceLock::new();
    TABLE.get_or_init(|| CostTable::build(&Mandelbrot::quick()))
}

/// The instance the figure sweeps and the benchmark build: every one of
/// its 786 432 costs, lanes against the scalar kernel.
#[test]
fn mandelbrot_quick_costs_match_the_scalar_kernel() {
    let m = Mandelbrot::quick();
    let table = quick_mandelbrot();
    assert_eq!(table.n_iters(), m.n_iters());
    for (i, c) in table.iter().enumerate() {
        assert_eq!(c, m.cost(i as u64), "iteration {i}");
    }
}

/// Its costs are `12,200 + 450 k` with every `k` below 0xFFFF, so the
/// table keeps two bytes an iteration and nothing on the side.
#[test]
fn quick_mandelbrot_packs_completely() {
    let table = quick_mandelbrot();
    assert_eq!(table.bytes_per_iteration(), 2);
    assert_eq!(table.side_costs().len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // The support count, of one point and of all, against the image's
    // own `contributing`, at every point of small sphere, torus and
    // clustered clouds. Copying points over others makes duplicates
    // (alpha = beta = 0 pairs); a cosine of exactly 1 keeps only normals
    // whose dot product rounds to 1.
    #[test]
    fn psia_count_matches_the_spin_image(
        shape in 0u8..3,
        n in 1usize..48,
        seed in any::<u64>(),
        copies in prop::collection::vec((any::<u32>(), any::<u32>()), 0..6),
        image_width in 1usize..33,
        bin_size in prop_oneof![0.001f64..0.05, 0.05f64..0.5],
        support_angle_cos in prop_oneof![Just(-1.0f64), Just(1.0f64), -1.0f64..1.0],
    ) {
        let mut cloud = match shape {
            0 => PointCloud::sphere(n, seed),
            1 => PointCloud::torus(n, 1.0, 0.3, seed),
            _ => PointCloud::clustered(n, 1 + seed as usize % 4, seed),
        };
        for (from, to) in copies {
            let (from, to) = (from as usize % n, to as usize % n);
            cloud.points[to] = cloud.points[from];
            cloud.normals[to] = cloud.normals[from];
        }
        let params = SpinImageParams { image_width, bin_size, support_angle_cos };
        let all = contributing_all(&cloud, &params);
        prop_assert_eq!(all.len(), n);
        for (idx, &counted) in all.iter().enumerate() {
            let binned = spin_image(&cloud, idx, &params).contributing;
            prop_assert_eq!(contributing(&cloud, idx, &params), binned);
            prop_assert_eq!(counted, binned);
        }
    }
}

/// `contributing` of every point of `Psia::single_object()`, from the
/// full spin images: the oracle the cost's count must equal.
fn single_object_images() -> &'static [u64] {
    static IMAGES: OnceLock<Vec<u64>> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let p = Psia::single_object();
        (0..p.n_iters()).map(|i| p.image(i).contributing).collect()
    })
}

/// A point's cost as `Psia::cost` defines it, from the image's count.
fn cost_from_image(p: &Psia, binned: u64) -> u64 {
    p.ns_base + p.ns_scan * p.n_iters() + p.ns_accum * binned
}

#[test]
fn psia_costs_count_what_the_images_bin_at_all_4096_points() {
    let p = Psia::single_object();
    let images = single_object_images();
    assert_eq!(images.len(), 4096);
    let counts = p.contributing_all();
    for (i, &binned) in images.iter().enumerate() {
        assert_eq!(counts[i], binned, "point {i}");
        assert_eq!(p.cost(i as u64), cost_from_image(&p, binned), "point {i}");
    }
}

/// The scene of the stream the quick figure sweeps build: 16x the
/// per-point cost.
fn quick_psia_base() -> Psia {
    let mut base = Psia::single_object();
    base.ns_scan *= 16;
    base.ns_accum *= 16;
    base
}

/// The quick stream's table (96 frames, +-10 % jitter), built once per
/// test binary.
fn quick_psia() -> &'static CostTable {
    static TABLE: OnceLock<CostTable> = OnceLock::new();
    TABLE.get_or_init(|| CostTable::build(&PsiaStream::new(quick_psia_base(), 96, 0.1)))
}

/// Every one of the quick stream's 393,216 costs against the per-point
/// costs of the images, jittered as `PsiaStream::cost` does.
#[test]
fn psia_quick_stream_costs_come_from_the_images() {
    let base = quick_psia_base();
    let point_costs: Vec<u64> =
        single_object_images().iter().map(|&binned| cost_from_image(&base, binned)).collect();
    let table = quick_psia();
    assert_eq!(table.n_iters(), 96 * 4096);
    for (i, c) in table.iter().enumerate() {
        let i = i as u64;
        // splitmix64-style hash -> [0.9, 1.1], as `PsiaStream` jitters.
        let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        let jitter = 1.0 + 0.1 * (2.0 * ((z >> 11) as f64 / (1u64 << 53) as f64) - 1.0);
        let raw = point_costs[(i % 4096) as usize] as f64;
        assert_eq!(c, (raw * jitter).round().max(1.0) as u64, "iteration {i}");
    }
}

/// The jitter puts the quick stream's costs on no grid coarser than
/// 1 ns, and they span 838,161 ns: most would not fit two bytes, so the
/// table keeps four.
#[test]
fn quick_psia_stays_at_four_bytes() {
    let table = quick_psia();
    assert_eq!(table.bytes_per_iteration(), 4);
    assert_eq!(table.side_costs().len(), 0);
}

/// The paper-scale tables, too slow for a debug build: CI runs this in
/// release with `--include-ignored`. Both pack; Mandelbrot's 3,176
/// pixels whose escape count lies 0xFFFF or more above the least keep
/// their costs on the side. Every side cost, and every 97th cost, is
/// the scalar kernel's.
#[test]
#[ignore = "paper scale: run in release with --include-ignored"]
fn paper_tables_pack_to_two_bytes() {
    let mandelbrot = Mandelbrot::paper();
    let psia = PsiaStream::paper();
    for (w, side) in [(&mandelbrot as &dyn Workload, 3_176), (&psia, 0)] {
        let table = CostTable::build(w);
        assert_eq!(table.bytes_per_iteration(), 2, "{}", w.name());
        assert_eq!(table.side_costs().len(), side, "{}", w.name());
        for (i, c) in table.side_costs() {
            let want = w.cost(i);
            assert_eq!((table.cost(i), c), (want, want), "{} iteration {i}", w.name());
        }
        for i in (0..w.n_iters()).step_by(97) {
            assert_eq!(table.cost(i), w.cost(i), "{} iteration {i}", w.name());
        }
    }
}

/// A window just off the real axis around the cusp of the main
/// cardioid at `c = 1/4`. Left of the cusp the pixels are interior, the
/// deeper ones settling on a cycle the table's tail detects and the
/// ones nearest the cusp converging too slowly to repeat bit for bit
/// within `max_iter`; right of it they escape after about
/// `pi / sqrt(Re c - 1/4)` steps, 2,000-6,000 for the closest.
fn cusp(width: u32, height: u32, re_min: f64, im_half: f64, max_iter: u32) -> Mandelbrot {
    Mandelbrot {
        width,
        height,
        max_iter,
        re: (re_min, 0.250_003),
        im: (-im_half, im_half),
        traversal: Traversal::RowMajor,
        ..Mandelbrot::tiny()
    }
}

/// `max_iter` above the steps a pixel takes in the lanes: the table's
/// tail and its cycle test against the scalar kernel, on a window where
/// pixels escape after the lanes hand them over and others never do.
#[test]
fn mandelbrot_costs_past_the_lanes_match_the_scalar_kernel() {
    let m = cusp(32, 5, 0.249_95, 1e-9, 6_000);
    let escapes: Vec<u32> = (0..m.n_iters()).map(|i| m.escape_iterations(i)).collect();
    let interior = escapes.iter().filter(|&&it| it == m.max_iter).count();
    let slow = escapes.iter().filter(|&&it| (2_049..m.max_iter).contains(&it)).count();
    assert!(interior >= 100 && slow >= 5, "{interior} interior and {slow} slow pixels");
    let scalar: Vec<u64> = (0..m.n_iters()).map(|i| m.cost(i)).collect();
    assert_eq!(table_costs(&m), scalar);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mandelbrot_tail_matches_the_scalar_kernel(
        width in 1u32..33,
        height in 1u32..6,
        re_min in 0.2499f64..0.24999,
        im_half in prop_oneof![Just(1.0f64), 1e-9f64..1e-7],
        max_iter in 2_040u32..6_000,
        tile in prop::sample::select(vec![0u32, 2, 4]),
    ) {
        let mut m = cusp(width, height, re_min, im_half, max_iter);
        // One row with `im_half` 1 lies on the real axis itself.
        if im_half == 1.0 {
            m.height = 1;
        }
        if tile > 0 && m.n_iters() % u64::from(tile) == 0 {
            m.traversal = Traversal::TiledShuffle { tile };
        }
        let scalar: Vec<u64> = (0..m.n_iters()).map(|i| m.cost(i)).collect();
        prop_assert_eq!(table_costs(&m), scalar);
    }
}

/// A loop whose costs are listed, put into the table in reverse order.
struct Listed(Vec<u64>);

impl Workload for Listed {
    fn n_iters(&self) -> u64 {
        self.0.len() as u64
    }

    fn name(&self) -> &'static str {
        "Listed"
    }

    fn execute(&self, i: u64) -> u64 {
        self.cost(i)
    }

    fn cost(&self, i: u64) -> u64 {
        self.0[i as usize]
    }

    fn costs(&self, sink: &mut CostSink) {
        for (i, &c) in self.0.iter().enumerate().rev() {
            sink.put(i as u64, c);
        }
    }
}

/// A cost on either side of the table's four-byte slot: its edges, the
/// largest a loop of `n` can sum without overflow and just below it,
/// and anything in between, capped so that `n` of them still sum.
fn straddling(pick: u8, r: u64, n: u64) -> u64 {
    let edge = u64::from(u32::MAX);
    let top = u64::MAX / n;
    let c = match pick % 8 {
        0 => edge - 1,
        1 => edge,
        2 => edge + 1,
        3 => top,
        4 => top - r % 1024,
        5 => r % edge,
        6 => r % top,
        _ => 0,
    };
    c.min(top)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Four bytes a slot, and no cost clamped: every cost, every range
    // sum and the statistics of a loop whose costs straddle 2^32 come
    // back exactly as the `u64` costs give them.
    #[test]
    fn costs_past_four_bytes_round_trip(
        picks in prop::collection::vec((any::<u8>(), any::<u64>()), 1..48),
    ) {
        let n = picks.len() as u64;
        let costs: Vec<u64> = picks.iter().map(|&(pick, r)| straddling(pick, r, n)).collect();
        let w = Listed(costs.clone());
        let t = CostTable::build(&w);
        prop_assert_eq!(t.n_iters(), n);
        for (i, &c) in costs.iter().enumerate() {
            prop_assert_eq!(t.cost(i as u64), c);
        }
        prop_assert_eq!(t.iter().collect::<Vec<_>>(), costs.clone());
        for start in 0..=n {
            for end in start..=n {
                let sum: u64 = costs[start as usize..end as usize].iter().sum();
                prop_assert_eq!(t.range_cost(start, end), sum);
            }
        }
        let (got, want) = (t.stats(), WorkloadStats::from_costs(costs.iter().copied()));
        prop_assert_eq!(
            (got.n, got.total, got.mean.to_bits(), got.sigma.to_bits(), got.max, got.min),
            (want.n, want.total, want.mean.to_bits(), want.sigma.to_bits(), want.max, want.min)
        );
    }
}

/// A slot on a cost grid: at, just below and just above the two-byte
/// sentinel 0xFFFF, far above it, or anywhere below it; `r` picks where.
fn grid_slot(pick: u8, r: u64) -> u64 {
    match pick % 16 {
        0 => 0xFFFE,
        1 => 0xFFFF,
        2 => 0x1_0000,
        3 => 0x1_0000 + r % (1 << 20),
        4 => 0,
        _ => r % 0xFFFF,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Costs `base + step · k`: the table packs them to two bytes where
    // few `k` reach 0xFFFF, keeping those on the side, and whatever it
    // keeps, every cost, range sum and statistic equals the plain `u64`
    // costs'. The bases and steps put some costs past 2^32; `same` makes
    // every cost equal.
    #[test]
    fn grid_costs_round_trip(
        base in prop_oneof![Just(0u64), 1u64..100_000, Just(u64::from(u32::MAX) - 3), Just(1u64 << 40)],
        step in prop_oneof![Just(1u64), Just(2), Just(450), 1u64..5_000, Just(1u64 << 32)],
        slots in prop::collection::vec((any::<u8>(), any::<u64>()), 0..300),
        odd in any::<bool>(),
        same in any::<bool>(),
        ranges in prop::collection::vec((any::<u16>(), any::<u16>()), 64),
    ) {
        // n = 0, 1, 2 and odd lengths all come up.
        let mut slots = slots;
        if odd && slots.len() % 2 == 0 && !slots.is_empty() {
            slots.pop();
        }
        let mut ks: Vec<u64> = slots.iter().map(|&(pick, r)| grid_slot(pick, r)).collect();
        if same {
            let k = ks.first().copied().unwrap_or(0);
            ks.iter_mut().for_each(|x| *x = k);
        }
        let costs: Vec<u64> = ks.iter().map(|k| base + step * k).collect();
        let n = costs.len() as u64;
        let t = CostTable::build(&Listed(costs.clone()));
        prop_assert_eq!(t.n_iters(), n);
        if n > 0 && ks.iter().all(|&k| k < 0xFFFF) {
            prop_assert_eq!(t.bytes_per_iteration(), 2);
            prop_assert_eq!(t.side_costs().len(), 0);
        }
        for (i, c) in t.side_costs() {
            prop_assert_eq!(c, costs[i as usize]);
        }
        for (i, &c) in costs.iter().enumerate() {
            prop_assert_eq!(t.cost(i as u64), c);
            prop_assert_eq!(t.range_cost(i as u64, i as u64 + 1), c);
        }
        prop_assert_eq!(t.iter().collect::<Vec<_>>(), costs.clone());
        let ends = [(0, n), (0, 0), (n, n)];
        let random = ranges.iter().map(|&(a, b)| {
            let (a, b) = (u64::from(a) % (n + 1), u64::from(b) % (n + 1));
            (a.min(b), a.max(b))
        });
        for (start, end) in ends.into_iter().chain(random) {
            let sum: u64 = costs[start as usize..end as usize].iter().sum();
            prop_assert_eq!(t.range_cost(start, end), sum, "range {}..{}", start, end);
        }
        let (got, want) = (t.stats(), WorkloadStats::from_costs(costs.iter().copied()));
        prop_assert_eq!(
            (got.n, got.total, got.mean.to_bits(), got.sigma.to_bits(), got.max, got.min),
            (want.n, want.total, want.mean.to_bits(), want.sigma.to_bits(), want.max, want.min)
        );
    }
}
