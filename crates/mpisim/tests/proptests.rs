//! Property tests for the simulated MPI runtime: collectives must match
//! their sequential reference semantics for arbitrary world sizes,
//! values, and roots; windows must serialize arbitrary op mixes.

use mpisim::{RmaOp, Topology, Universe, Window};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bcast_from_any_root(nodes in 1u32..3, rpn in 1u32..4, root_seed in 0u32..100, payload in any::<u64>()) {
        let topo = Topology::new(nodes, rpn);
        let root = root_seed % topo.world_size();
        let out = Universe::run(topo, move |p| {
            let w = p.world();
            w.bcast(root, if w.rank() == root { payload } else { 0 }).unwrap()
        });
        prop_assert!(out.into_iter().all(|v| v == payload));
    }

    #[test]
    fn gather_preserves_rank_order(nodes in 1u32..3, rpn in 1u32..4, root_seed in 0u32..100) {
        let topo = Topology::new(nodes, rpn);
        let root = root_seed % topo.world_size();
        let out = Universe::run(topo, move |p| {
            let w = p.world();
            w.gather(root, w.rank() * 3).unwrap()
        });
        let expected: Vec<u32> = (0..topo.world_size()).map(|r| r * 3).collect();
        prop_assert_eq!(&out[root as usize], &expected);
    }

    #[test]
    fn fetch_and_op_mix_conserves_sum(rpn in 2u32..6, adds in prop::collection::vec(1i64..100, 5)) {
        let topo = Topology::single_node(rpn);
        let adds2 = adds.clone();
        let out = Universe::run(topo, move |p| {
            let w = p.world();
            let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
            let mut mine = 0i64;
            for &a in &adds2 {
                win.fetch_and_op(0, 0, a, RmaOp::Sum).unwrap();
                mine += a;
            }
            w.barrier();
            (mine, win.get(0, 0).unwrap())
        });
        let per_rank: i64 = adds.iter().sum();
        let expected = per_rank * i64::from(rpn);
        prop_assert!(out.iter().all(|&(mine, total)| mine == per_rank && total == expected));
    }

    #[test]
    fn split_partitions_world(nodes in 1u32..4, rpn in 1u32..4, colors in 1u32..4) {
        let topo = Topology::new(nodes, rpn);
        let out = Universe::run(topo, move |p| {
            let w = p.world();
            let sub = w.split(w.rank() % colors, w.rank()).unwrap();
            (w.rank() % colors, sub.rank(), sub.size())
        });
        // Sizes per color must sum to world size; ranks within each
        // color must be 0..size.
        let mut per_color: std::collections::HashMap<u32, Vec<u32>> = Default::default();
        for (color, rank, size) in out {
            let v = per_color.entry(color).or_default();
            v.push(rank);
            prop_assert!(rank < size);
        }
        let total: usize = per_color.values().map(Vec::len).sum();
        prop_assert_eq!(total as u32, topo.world_size());
        for ranks in per_color.values_mut() {
            ranks.sort_unstable();
            for (i, r) in ranks.iter().enumerate() {
                prop_assert_eq!(*r, i as u32);
            }
        }
    }
}
