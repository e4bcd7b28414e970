//! Property tests for the workloads: determinism, cost/execute
//! consistency, traversal bijectivity, and stream semantics.

use proptest::prelude::*;
use workloads::synthetic::Synthetic;
use workloads::{CostTable, Mandelbrot, Psia, PsiaStream, Traversal, Workload};

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
    // a quarter of the cases have fewer pixels than lanes, most have a
    // count the lanes do not divide; `max_iter` 0 and 1 finish every
    // pixel at once.
    #[test]
    fn mandelbrot_costs_match_the_scalar_kernel(
        width in prop_oneof![1u32..4, 1u32..48],
        height in prop_oneof![Just(1u32), 1u32..10],
        max_iter in prop::sample::select(vec![0u32, 1, 7, 256]),
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
        prop_assert_eq!(m.costs(), scalar);
    }
}

/// The instance the figure sweeps and the benchmark build: every one of
/// its 786 432 costs, lanes against the scalar kernel.
#[test]
fn mandelbrot_quick_costs_match_the_scalar_kernel() {
    let m = Mandelbrot::quick();
    let table = CostTable::build(&m);
    assert_eq!(table.n_iters(), m.n_iters());
    for (i, &c) in table.costs().iter().enumerate() {
        assert_eq!(c, m.cost(i as u64), "iteration {i}");
    }
}
