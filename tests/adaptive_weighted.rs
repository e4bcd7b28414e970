//! Integration tests for weighted (WF) and adaptive (AWF) scheduling at
//! the intra-node level — the extension techniques beyond the paper's
//! evaluated four, on both backends.

use dls::adaptive::AwfVariant;
use hdls::prelude::*;
use hier::live::serial_checksum;

#[test]
fn static_weights_scale_sub_chunk_sizes() {
    // Constant workload, WF intra, worker 0 weighted 2.5x: with equal
    // worker speeds any work-conserving scheme equalises *iterations*,
    // but the weighted worker must reach its share in clearly fewer,
    // larger sub-chunks.
    let w = Synthetic::constant(50_000, 50_000);
    let table = CostTable::build(&w);
    let mut weights = vec![1.0; 4];
    weights[0] = 2.5;
    let weights = dls::weighted::normalize_weights(&weights);
    let r = HierSchedule::builder()
        .inter(Kind::GSS)
        .intra(Kind::WF)
        .nodes(1)
        .workers_per_node(4)
        .weights(weights)
        .build()
        .simulate(&table);
    assert_eq!(r.stats.total_iterations, 50_000);
    let subs: Vec<u64> = r.stats.workers.iter().map(|w| w.sub_chunks).collect();
    let iters: Vec<u64> = r.stats.workers.iter().map(|w| w.iterations).collect();
    let avg_size = |i: usize| iters[i] as f64 / subs[i] as f64;
    assert!(
        avg_size(0) > 1.8 * avg_size(1),
        "weighted worker's sub-chunks should be ~2.2x larger: sizes {:?}",
        (avg_size(0), avg_size(1))
    );
}

#[test]
fn weights_match_speeds_bound_straggler_exposure() {
    // Workers 0/1 are 2x slower. A work-conserving dynamic tail lets
    // both weightings reach the same makespan on a constant workload,
    // but speed-matched weights must (a) never be slower and (b) cap
    // the *wall time of the slow workers' largest sub-chunk* — the
    // straggler exposure WF is designed to bound.
    let w = Synthetic::constant(100_000, 50_000);
    let table = CostTable::build(&w);
    let stragglers =
        FaultPlan::straggler(0, 2.0).with(1, FaultKind::Straggle { factor: 2.0, from_ns: 0 });
    let run = |weights: Vec<f64>| {
        HierSchedule::builder()
            .inter(Kind::GSS)
            .intra(Kind::WF)
            .nodes(1)
            .workers_per_node(8)
            .faults(stragglers.clone())
            .weights(weights)
            .record_chunks(true)
            .build()
            .simulate(&table)
    };
    let matched = run(dls::weighted::normalize_weights(&[0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]));
    let uniform = run(Vec::new());
    assert!(matched.seconds() <= uniform.seconds() * 1.001);
    let max_slow_sub = |r: &hier::sim::SimResult| {
        r.executed.iter().filter(|(w, _)| *w < 2).map(|(_, s)| s.len()).max().unwrap_or(0)
    };
    let m = max_slow_sub(&matched);
    let u = max_slow_sub(&uniform);
    assert!(
        m * 3 < u * 2,
        "matched weights should cap the slow workers' largest sub-chunk: {m} vs {u}"
    );
}

#[test]
fn awf_learns_slow_worker_in_sim() {
    for variant in AwfVariant::ALL {
        let w = Synthetic::constant(100_000, 50_000);
        let table = CostTable::build(&w);
        let r = HierSchedule::builder()
            .inter(Kind::GSS)
            .intra(Kind::FAC2)
            .nodes(1)
            .workers_per_node(4)
            .awf(variant)
            .faults(FaultPlan::straggler(0, 4.0))
            .build()
            .simulate(&table);
        assert_eq!(r.stats.total_iterations, 100_000, "{}", variant.name());
        let iters: Vec<u64> = r.stats.workers.iter().map(|w| w.iterations).collect();
        assert!(
            iters[0] * 2 < iters[1],
            "{}: AWF should starve the 4x-slower worker: {iters:?}",
            variant.name()
        );
    }
}

#[test]
fn awf_beats_plain_fac2_under_systemic_imbalance() {
    // Fine-grained global chunks (FSC inter with an explicit chunk
    // size) give AWF many scheduling rounds to learn in; a 4x-slow
    // worker then stops straggling the node. With one giant chunk the
    // cold-start sub-chunk would bind both variants equally — AWF's
    // documented warm-up limitation.
    let w = Synthetic::constant(100_000, 50_000);
    let table = CostTable::build(&w);
    let inter = Technique::Fsc(dls::nonadaptive::FixedSizeChunking::with_chunk(2_000));
    let run = |awf: Option<AwfVariant>| {
        let mut b = HierSchedule::builder()
            .inter_technique(inter)
            .intra(Kind::FAC2)
            .nodes(2)
            .workers_per_node(8)
            .faults(
                FaultPlan::straggler(0, 4.0)
                    .with(8, FaultKind::Straggle { factor: 4.0, from_ns: 0 }),
            );
        if let Some(v) = awf {
            b = b.awf(v);
        }
        b.build().simulate(&table).seconds()
    };
    let plain = run(None);
    let adaptive = run(Some(AwfVariant::C));
    assert!(
        adaptive < plain,
        "AWF ({adaptive:.4}s) should beat plain FAC2 ({plain:.4}s) with slow workers"
    );
}

#[test]
fn awf_live_exactly_once() {
    let w = Synthetic::uniform(2_000, 10, 100, 6);
    let serial = serial_checksum(&w);
    for variant in [AwfVariant::B, AwfVariant::C] {
        let r = HierSchedule::builder()
            .inter(Kind::GSS)
            .intra(Kind::FAC2)
            .nodes(2)
            .workers_per_node(3)
            .awf(variant)
            .build()
            .run_live(&w);
        assert_eq!(r.checksum, serial, "{}", variant.name());
        assert_eq!(r.stats.total_iterations, 2_000);
    }
}

#[test]
fn wf_live_exactly_once_with_weights() {
    let w = Synthetic::uniform(1_500, 10, 100, 2);
    let serial = serial_checksum(&w);
    let mut cfg = hier::RunConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::WF), Approach::MpiMpi);
    cfg.weights = dls::weighted::normalize_weights(&[2.0, 1.0, 0.5, 2.0, 1.0, 0.5]);
    let r = hier::live::run_live(&cfg, &w).expect("live run");
    assert_eq!(r.checksum, serial);
}
