//! Property tests: every schedule must execute every iteration exactly
//! once for arbitrary team sizes and ranges, across consecutive
//! regions, with and without `nowait`.

use dls::openmp::OmpSchedule;
use openmp_sim::Team;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn arb_schedule() -> impl Strategy<Value = OmpSchedule> {
    prop_oneof![
        Just(OmpSchedule::static_block()),
        (1u64..20).prop_map(|k| OmpSchedule::Static { chunk: Some(k) }),
        (1u64..20).prop_map(|k| OmpSchedule::Dynamic { chunk: k }),
        (1u64..20).prop_map(|k| OmpSchedule::Guided { chunk: k }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn exactly_once_any_schedule(
        threads in 1u32..9,
        start in 0u64..1000,
        len in 0u64..800,
        schedule in arb_schedule(),
    ) {
        let hits: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        Team::new(threads).parallel(|ctx| {
            ctx.for_each(start..start + len, schedule, |i| {
                hits[(i - start) as usize].fetch_add(1, Ordering::SeqCst);
            });
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn nowait_counts_sum_to_len(
        threads in 1u32..9,
        len in 0u64..500,
        schedule in arb_schedule(),
    ) {
        let out = Team::new(threads).parallel(|ctx| {
            let n = ctx.for_each_nowait(0..len, schedule, |_| {});
            ctx.barrier();
            n
        });
        prop_assert_eq!(out.iter().sum::<u64>(), len);
    }

    #[test]
    fn back_to_back_regions(
        threads in 1u32..6,
        lens in prop::collection::vec(0u64..200, 1..5),
        schedule in arb_schedule(),
    ) {
        let total = AtomicU64::new(0);
        Team::new(threads).parallel(|ctx| {
            for &len in &lens {
                ctx.for_each(0..len, schedule, |_| {
                    total.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        prop_assert_eq!(total.load(Ordering::SeqCst), lens.iter().sum::<u64>());
    }

    #[test]
    fn reduce_matches_fold(threads in 1u32..9, base in 0u64..1000) {
        let out = Team::new(threads).parallel(|ctx| {
            ctx.reduce(base + u64::from(ctx.thread_num()), |a, b| a.max(b))
        });
        let expected = base + u64::from(threads) - 1;
        prop_assert!(out.into_iter().all(|v| v == expected));
    }
}
