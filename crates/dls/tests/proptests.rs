//! Property-based tests for the DLS techniques: for *any* loop size and
//! worker count, every technique must produce a terminating chunk
//! sequence that exactly partitions the iteration space, and techniques
//! with documented monotonicity must honour it.

use dls::openmp::{omp_equivalent, static_blocks, OmpSchedule};
use dls::sequence::{schedule_all, step_count};
use dls::verify::{check_partition, is_nonincreasing};
use dls::{Kind, LoopSpec, Technique};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = LoopSpec> {
    (1u64..200_000, 1u32..128, 0.0f64..4.0, 0.0f64..2.0)
        .prop_map(|(n, p, sigma, h)| LoopSpec::new(n, p).with_stats(1.0, sigma).with_overhead(h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_technique_partitions_the_loop(spec in arb_spec(), kind_idx in 0usize..Kind::ALL.len()) {
        let t = Technique::from_kind(Kind::ALL[kind_idx]);
        let chunks = schedule_all(&spec, &t);
        prop_assert!(check_partition(&chunks, spec.n_iters).is_ok(),
            "{} failed on n={} p={}", t, spec.n_iters, spec.n_workers);
    }

    #[test]
    fn step_count_never_exceeds_n(spec in arb_spec(), kind_idx in 0usize..Kind::ALL.len()) {
        let t = Technique::from_kind(Kind::ALL[kind_idx]);
        prop_assert!(step_count(&spec, &t) <= spec.n_iters);
    }

    #[test]
    fn decreasing_techniques_are_nonincreasing(spec in arb_spec()) {
        for kind in [Kind::GSS, Kind::TSS, Kind::FAC, Kind::FAC2, Kind::TFSS] {
            let t = Technique::from_kind(kind);
            let chunks = schedule_all(&spec, &t);
            prop_assert!(is_nonincreasing(&chunks), "{kind} increased on n={} p={}",
                spec.n_iters, spec.n_workers);
        }
    }

    #[test]
    fn ss_always_n_steps(n in 1u64..5_000, p in 1u32..64) {
        let spec = LoopSpec::new(n, p);
        prop_assert_eq!(step_count(&spec, &Technique::ss()), n);
    }

    #[test]
    fn static_step_count_closed_form(n in 1u64..100_000, p in 1u32..128) {
        // STATIC hands out ceil(n/p) per step, so it needs
        // ceil(n / ceil(n/p)) steps — at most p, and at most n.
        let spec = LoopSpec::new(n, p);
        let chunk = n.div_ceil(u64::from(p));
        let expected = n.div_ceil(chunk);
        let steps = step_count(&spec, &Technique::static_());
        prop_assert_eq!(steps, expected);
        prop_assert!(steps <= u64::from(p));
    }

    #[test]
    fn gss_first_chunk_is_ceil_n_over_p(n in 1u64..1_000_000, p in 1u32..256) {
        let spec = LoopSpec::new(n, p);
        let chunks = schedule_all(&spec, &Technique::gss());
        prop_assert_eq!(chunks[0].len, n.div_ceil(u64::from(p)));
    }

    #[test]
    fn fac2_first_batch_is_half(n in 16u64..1_000_000, p in 1u32..64) {
        let spec = LoopSpec::new(n, p);
        let chunks = schedule_all(&spec, &Technique::fac2());
        let pp = u64::from(p) as usize;
        let batch0: u64 = chunks.iter().take(pp).map(|c| c.len).sum();
        // First batch assigns about half the loop (up to ceil rounding per chunk).
        prop_assert!(batch0 >= n / 2);
        prop_assert!(batch0 <= n / 2 + u64::from(p));
    }

    #[test]
    fn theoretical_step_bounds_hold(spec in arb_spec(), kind_idx in 0usize..Kind::ALL.len()) {
        let kind = Kind::ALL[kind_idx];
        if let Some(bound) = dls::analysis::step_bound(kind, spec.n_iters, spec.n_workers) {
            let steps = step_count(&spec, &Technique::from_kind(kind));
            prop_assert!(steps <= bound,
                "{} needed {} steps, bound {} (n={} p={})",
                kind, steps, bound, spec.n_iters, spec.n_workers);
        }
    }

    #[test]
    fn steps_strictly_ordered(spec in arb_spec(), kind_idx in 0usize..Kind::ALL.len()) {
        let t = Technique::from_kind(Kind::ALL[kind_idx]);
        let chunks = schedule_all(&spec, &t);
        for (i, c) in chunks.iter().enumerate() {
            prop_assert_eq!(c.step, i as u64);
        }
    }

    #[test]
    fn omp_equivalent_sizes_every_step_like_its_technique(spec in arb_spec(), k in 1u64..64) {
        // Table 1, parameters included: the clause of an expressible
        // technique sizes every step like the technique itself.
        for t in [
            Technique::static_(),
            Technique::ss(),
            Technique::gss(),
            format!("GSS:{k}").parse().unwrap(),
            format!("FSC:{k}").parse().unwrap(),
        ] {
            let clause = omp_equivalent(&t);
            prop_assert!(clause.is_some(), "{} has a clause", t);
            let via_clause = clause.map(OmpSchedule::to_technique).unwrap();
            prop_assert_eq!(schedule_all(&spec, &via_clause), schedule_all(&spec, &t),
                "{:?} vs {:?} on n={} p={}", clause, t, spec.n_iters, spec.n_workers);
        }
        // ... and nothing else has one.
        for kind in Kind::ALL {
            let expressible = matches!(kind, Kind::STATIC | Kind::SS | Kind::GSS);
            prop_assert_eq!(omp_equivalent(&Technique::from_kind(kind)).is_some(), expressible,
                "{}", kind);
        }
    }

    #[test]
    fn static_blocks_are_the_static_schedule(n in 0u64..100_000, p in 1u32..128, lo in 0u64..1000) {
        // schedule(static) hands thread `tid` the chunk STATIC hands out
        // at step `tid`.
        let blocks: Vec<_> =
            (0..p).flat_map(|tid| static_blocks(lo..lo + n, None, tid, p)).collect();
        let chunks = schedule_all(&LoopSpec::new(n, p), &Technique::static_());
        prop_assert_eq!(blocks, chunks.iter().map(|c| lo + c.start..lo + c.end()).collect::<Vec<_>>());
    }
}
