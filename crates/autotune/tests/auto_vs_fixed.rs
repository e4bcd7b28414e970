//! AUTO against every fixed technique in deterministic virtual time.
//!
//! 8 virtual workers each carry a `free_at` watermark, every fetch
//! costs a fixed overhead `h`, and a chunk's compute time is the exact
//! sum of [`PhasedSpin`]'s per-iteration costs scaled by a seeded
//! 0–10 % jitter — so technique quality is a pure function of chunk
//! geometry, on any machine. The AUTO runs drive the production pieces:
//! the [`Tuner`] the service embeds (`overhead_ns` pinned to `h`)
//! switching a real [`SwitchableScheduler`] mid-job.

use autotune::{ChunkSample, Tuner, TunerConfig};
use dls::technique::WorkerCtx;
use dls::{Kind, LoopSpec, SchedKind, SchedState, SwitchableScheduler};
use workloads::{PhasedSpin, Workload};

const N: u64 = 4_096;
const WORKERS: u32 = 8;
/// Virtual per-fetch scheduling overhead `h`, nanoseconds.
const OVERHEAD_NS: u64 = 5_000;
const FIXED: [Kind; 5] = [Kind::STATIC, Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC2];

/// Same avalanche mix as `PhasedSpin`'s jitter, for the per-chunk seed
/// stream.
fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_right(23).wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// One virtual-time run of `kind` over the cost prefix sums:
/// `(makespan_ns, switches)`.
fn simulate(kind: SchedKind, prefix: &[u64], seed: u64) -> (u64, u32) {
    let n = (prefix.len() - 1) as u64;
    let mut sched = SwitchableScheduler::new(LoopSpec::new(n, WORKERS), kind);
    let mut tuner = (kind == SchedKind::Auto).then(|| {
        let mut cfg = TunerConfig::new(WORKERS);
        cfg.overhead_ns = OVERHEAD_NS;
        Tuner::new(WORKERS, cfg)
    });
    let mut free = [0u64; WORKERS as usize];
    let (mut step, mut scheduled, mut switches) = (0u64, 0u64, 0u32);
    while scheduled < n {
        // The earliest-free worker fetches next (ties to the lowest id).
        let worker = (0..WORKERS as usize).min_by_key(|&w| (free[w], w)).expect("a worker");
        let size = sched.next_size(WorkerCtx::worker(worker as u32)).clamp(1, n - scheduled);
        let base = prefix[(scheduled + size) as usize] - prefix[scheduled as usize];
        step += 1;
        scheduled += size;
        let compute = (base as f64 * (1.0 + (mix(seed ^ step) % 100) as f64 / 1_000.0)) as u64;
        free[worker] += OVERHEAD_NS + compute;
        sched.record(worker as u32, size, compute, OVERHEAD_NS);
        if let Some(t) = tuner.as_mut() {
            let latency_ns = OVERHEAD_NS + compute;
            t.observe(ChunkSample { worker: worker as u32, len: size, latency_ns });
            let global = SchedState { step, scheduled };
            if let Some(d) = t.on_settle(sched.active(), global) {
                sched.switch(d.to, global);
                switches += 1;
            }
        }
    }
    (free.into_iter().max().expect("a worker"), switches)
}

/// Best of 5 jitter seeds for AUTO and for the best fixed technique:
/// `(auto_makespan, auto_switches, best_fixed_makespan)`.
fn auto_and_best_fixed(w: &PhasedSpin) -> (u64, u32, u64) {
    let mut prefix = vec![0u64];
    for i in 0..w.n_iters() {
        prefix.push(prefix[i as usize] + w.cost(i));
    }
    let best =
        |kind| (1..=5u64).map(|s| simulate(kind, &prefix, s * 0x9e37)).min().expect("five seeds");
    let (auto, switches) = best(SchedKind::Auto);
    let fixed = FIXED.map(|k| best(SchedKind::Fixed(k)).0).into_iter().min().expect("five kinds");
    (auto, switches, fixed)
}

/// An expensive irregular head, then a uniform cheap tail: every fixed
/// technique loses one regime, AUTO must climb the ladder mid-job.
#[test]
fn auto_beats_the_best_fixed_technique_on_a_regime_shift() {
    let (auto, switches, fixed) = auto_and_best_fixed(&PhasedSpin::shifting(N));
    assert!(switches >= 1, "AUTO never switched on the shifting workload: the tuner is inert");
    let speedup = fixed as f64 / auto as f64;
    assert!(speedup >= 1.1, "AUTO is {speedup:.3}x the best fixed technique (floor 1.1x)");
}

/// One mild regime, nothing to win: the tuner must not thrash.
#[test]
fn auto_stays_within_five_percent_where_there_is_nothing_to_win() {
    let (auto, _, fixed) = auto_and_best_fixed(&PhasedSpin::steady(N));
    let loss = auto as f64 / fixed as f64 - 1.0;
    assert!(loss <= 0.05, "AUTO lost {:.1}% to the best fixed technique (budget 5%)", loss * 100.0);
}
