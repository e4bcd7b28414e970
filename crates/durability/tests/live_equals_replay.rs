//! Live state equals replayed state, byte for byte.
//!
//! The server mutates a [`JobCore`] through `fetch`/`settle`/`reclaim`/
//! `switch` and journals one record per transition; recovery folds
//! [`RecoveredState::apply`] over those records. Both run the same
//! kernel, so for any operation stream the live kernel's canonical
//! image must equal the image replayed from the records it journaled —
//! from an empty state, and on top of a mid-stream snapshot whose
//! journal tail overlaps it. The one thing the journal does not carry
//! is the clock reading of a grant (replayed grants are stamped 0), so
//! the stream grants at `now_ns = 0` and settles at arbitrary later
//! times.
//!
//! Seeded and deterministic: every wire `SchedKind` including `AUTO`,
//! several workers, fetch bursts of 1..=64, partial settles,
//! connection deaths, and (for `AUTO` jobs) technique switches.

use dls::switchable::{Decision, SchedKind, SwitchReason};
use durability::record::JournalRecord;
use durability::{JobCore, RecoveredState};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const JOB: u64 = 7;
const WORKERS: usize = 4;

/// The server-level state around one live kernel.
fn state_of(job: &JobCore) -> RecoveredState {
    let mut st = RecoveredState::new();
    st.epoch = 1;
    st.jobs_created = JOB + 1;
    st.jobs.insert(JOB, job.clone());
    st
}

fn replay(mut base: RecoveredState, records: &[JournalRecord]) -> RecoveredState {
    for rec in records {
        base.apply(rec).expect("a journal of live transitions replays cleanly");
    }
    base
}

fn assert_same(live: &RecoveredState, replayed: &RecoveredState, what: &str) {
    assert_eq!(live.serialize(), replayed.serialize(), "{what}: images differ");
    assert_eq!(live.digest(), replayed.digest(), "{what}: digests differ");
}

/// Drive one job for up to `ops` operations and check the equality.
fn run(kind: SchedKind, seed: u64, ops: u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(200..3_200u64);
    let weights: Vec<f64> = if rng.gen_bool(0.5) {
        Vec::new()
    } else {
        (0..WORKERS).map(|_| rng.gen_range(0.5..4.0)).collect()
    };
    let mut live = JobCore::new(n, kind, weights.clone());
    let mut records = vec![
        JournalRecord::ServerStart { epoch: 1 },
        JournalRecord::JobCreated { job: JOB, n, kind, weights },
    ];
    // Leases each worker's connection currently holds.
    let mut held: Vec<Vec<u64>> = vec![Vec::new(); WORKERS];
    let mut now_ns = 0u64;
    let snapshot_at = rng.gen_range(0..ops);
    let mut snapshot = None;

    for op in 0..ops {
        if live.done {
            break;
        }
        if op == snapshot_at {
            // A snapshot of live state, and a journal tail that starts
            // anywhere at or before it: the overlap must be a no-op.
            let tail_from = rng.gen_range(0..=records.len());
            snapshot = Some((state_of(&live).serialize(), tail_from));
        }
        now_ns += rng.gen_range(0..50_000u64);
        let w = rng.gen_range(0..WORKERS);
        match rng.gen_range(0..10u32) {
            0..=4 => {
                let batch = rng.gen_range(1..=64u32);
                let grants = live.fetch(w as u32, batch, 0);
                if !grants.is_empty() {
                    held[w].extend(grants.iter().map(|g| g.lease));
                    records.push(JournalRecord::Granted {
                        job: JOB,
                        step: live.step,
                        scheduled: live.scheduled,
                        grants,
                    });
                }
            }
            5..=8 => {
                let take = rng.gen_range(0..=held[w].len());
                let leases: Vec<u64> = held[w].drain(..take).collect();
                if leases.is_empty() {
                    continue;
                }
                for &lease in &leases {
                    live.settle(lease, now_ns).expect("held lease settles once");
                }
                records.push(JournalRecord::Settled { job: JOB, leases });
                if kind == SchedKind::Auto && !live.done && rng.gen_bool(0.3) {
                    let to = SchedKind::CONCRETE[rng.gen_range(0..SchedKind::CONCRETE.len())];
                    let decision = Decision {
                        seq: live.decisions.len() as u32,
                        step: live.step,
                        scheduled: live.scheduled,
                        from: live.active(),
                        to,
                        reason: SwitchReason::Manual,
                    };
                    live.switch(decision);
                    records.push(JournalRecord::TechniqueSwitched { job: JOB, decision });
                }
                if live.done {
                    records.push(JournalRecord::JobFinished { job: JOB });
                }
            }
            _ => {
                let leases: Vec<u64> = held[w].drain(..).collect();
                if leases.is_empty() {
                    continue;
                }
                for &lease in &leases {
                    live.reclaim(lease).expect("held lease reclaims once");
                }
                records.push(JournalRecord::Reclaimed { job: JOB, leases });
            }
        }
    }

    let what = format!("{kind} seed {seed}");
    let mut expected = state_of(&live);
    let mut replayed = replay(RecoveredState::new(), &records);
    assert_same(&expected, &replayed, &what);
    if let Some((image, tail_from)) = snapshot {
        let base = RecoveredState::deserialize(&image).expect("own image decodes");
        let over = replay(base, &records[tail_from..]);
        assert_same(&expected, &over, &format!("{what}, snapshot + tail from {tail_from}"));
    }
    // And they stay equal through the crash hand-over.
    assert_eq!(expected.re_arm(), replayed.re_arm(), "{what}: re-armed lease count");
    assert_same(&expected, &replayed, &format!("{what}, re-armed"));
}

#[test]
fn live_kernel_image_equals_replayed_image() {
    for kind in SchedKind::CONCRETE.into_iter().chain([SchedKind::Auto]) {
        for seed in 0..24u64 {
            // Short runs end mid-job with leases in flight; long ones
            // run to `JobFinished`.
            let ops = if seed % 3 == 0 { 40 } else { 2_000 };
            run(kind, seed, ops);
        }
    }
}
