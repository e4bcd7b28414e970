//! Golden-sequence tests: the exact chunk sequences the original DLS
//! papers tabulate (or that follow directly from their formulas), as
//! regression anchors for the chunk calculus.

use dls::sequence::schedule_all;
use dls::{LoopSpec, Technique};

fn sizes(n: u64, p: u32, t: &Technique) -> Vec<u64> {
    schedule_all(&LoopSpec::new(n, p), t).iter().map(|c| c.len).collect()
}

#[test]
fn gss_polychronopoulos_kuck_example() {
    // GSS on N=100, P=4: the classic ceil(R/P) cascade.
    assert_eq!(
        sizes(100, 4, &Technique::gss()),
        vec![25, 19, 14, 11, 8, 6, 5, 3, 3, 2, 1, 1, 1, 1]
    );
}

#[test]
fn gss_n1000_p4_head() {
    let s = sizes(1000, 4, &Technique::gss());
    assert_eq!(&s[..8], &[250, 188, 141, 106, 79, 59, 45, 33]);
}

#[test]
fn tss_tzen_ni_defaults_n1000_p4() {
    // F = ceil(1000/8) = 125, L = 1, S = ceil(2000/126) = 16,
    // delta = 124/15 ~= 8.27, floor interpolation: 125, 116, 108, ...
    let s = sizes(1000, 4, &Technique::tss());
    assert_eq!(&s[..6], &[125, 116, 108, 100, 91, 83]);
    assert_eq!(s.iter().sum::<u64>(), 1000);
}

#[test]
fn tss_and_tfss_with_a_fractional_delta_n1000_p3() {
    // F = ceil(1000/6) = 167, L = 1, S = ceil(2000/168) = 12,
    // delta = 166/11 ~= 15.09: floor(F - s * delta) drops 16, then 15s.
    assert_eq!(
        sizes(1000, 3, &Technique::tss()),
        vec![167, 151, 136, 121, 106, 91, 76, 61, 46, 31, 14]
    );
    // TFSS: P = 3 chunks per batch, each the mean of the next three TSS
    // sizes; the last batch is cut by the loop's end.
    assert_eq!(
        sizes(1000, 3, &Technique::tfss()),
        vec![151, 151, 151, 106, 106, 106, 61, 61, 61, 16, 16, 14]
    );
}

#[test]
fn tss_and_tfss_with_a_fractional_delta_n1e6_p16() {
    // F = ceil(10^6/32) = 31250, L = 1, S = ceil(2*10^6/31251) = 64,
    // delta = 31249/63 ~= 496.016: the steps alternate 497 and 496.
    assert_eq!(
        sizes(1_000_000, 16, &Technique::tss()),
        vec![
            31250, 30753, 30257, 29761, 29265, 28769, 28273, 27777, 27281, 26785, 26289, 25793,
            25297, 24801, 24305, 23809, 23313, 22817, 22321, 21825, 21329, 20833, 20337, 19841,
            19345, 18849, 18353, 17857, 17361, 16865, 16369, 15873, 15377, 14881, 14385, 13889,
            13393, 12897, 12401, 11905, 11409, 10913, 10417, 9921, 9425, 8929, 8433, 7937, 7441,
            6945, 6449, 5953, 5457, 4961, 4465, 3969, 3473, 2977, 2481, 1985, 1489, 993, 497
        ]
    );
    let batches: Vec<u64> = [27529, 19593, 11657, 3721].iter().flat_map(|&b| [b; 16]).collect();
    assert_eq!(sizes(1_000_000, 16, &Technique::tfss()), batches);
}

#[test]
fn fac2_power_of_two_batches() {
    assert_eq!(
        sizes(1024, 4, &Technique::fac2())[..12],
        [128, 128, 128, 128, 64, 64, 64, 64, 32, 32, 32, 32]
    );
}

#[test]
fn fac2_odd_n_keeps_halving_with_ceil() {
    // N=1000, P=4: R0=1000 -> 125; R1=500 -> 63; R2=248 -> 31; ...
    let s = sizes(1000, 4, &Technique::fac2());
    assert_eq!(&s[..8], &[125, 125, 125, 125, 63, 63, 63, 63]);
    assert_eq!(s[8], 31);
}

#[test]
fn fac_with_hummel_parameters() {
    // FAC on N=1000, P=4, sigma/mu = 0.5:
    // b0 = (4 / (2*sqrt(1000))) * 0.5 = 0.0316...,
    // x0 = 1 + b0^2 + b0*sqrt(b0^2 + 2) = 1.0457, chunk0 = ceil(1000/4.183) = 240.
    let spec = LoopSpec::new(1000, 4).with_stats(1.0, 0.5);
    let chunks = schedule_all(&spec, &Technique::fac());
    assert_eq!(chunks[0].len, 240);
    // Full batch of equal chunks.
    assert!(chunks[..4].iter().all(|c| c.len == 240));
    assert_eq!(chunks.iter().map(|c| c.len).sum::<u64>(), 1000);
}

#[test]
fn static_even_and_uneven() {
    assert_eq!(sizes(1000, 4, &Technique::static_()), vec![250; 4]);
    assert_eq!(sizes(1001, 4, &Technique::static_()), vec![251, 251, 251, 248]);
}

#[test]
fn ss_is_all_ones() {
    assert_eq!(sizes(7, 3, &Technique::ss()), vec![1; 7]);
}

#[test]
fn tfss_batch_means_decrease_linearly() {
    // TFSS batches are the mean of the next P TSS sizes; consecutive
    // batch sizes differ by ~P*delta.
    let s = sizes(10_000, 4, &Technique::tfss());
    let batch_sizes: Vec<u64> = s.chunks(4).map(|b| b[0]).collect();
    let diffs: Vec<i64> =
        batch_sizes.windows(2).map(|w| w[0] as i64 - w[1] as i64).take(5).collect();
    // delta = (F - L)/(S - 1) with F = 1250, S = ceil(20000/1251) = 16:
    // delta ~= 83.3, so batch diffs ~= 333.
    for d in diffs {
        assert!((330..=337).contains(&d), "batch diff {d}");
    }
}

#[test]
fn wf_scales_fac2_linearly_in_weight() {
    use dls::technique::WorkerCtx;
    use dls::{ChunkCalculator, SchedState};
    let spec = LoopSpec::new(4096, 8);
    let wf = Technique::wf();
    let base = wf.chunk_size(&spec, SchedState::START, WorkerCtx::default());
    for (w, expected) in [(0.25, base / 4), (0.5, base / 2), (2.0, base * 2)] {
        let got = wf.chunk_size(&spec, SchedState::START, WorkerCtx { worker: 0, weight: w });
        assert_eq!(got, expected, "weight {w}");
    }
}
