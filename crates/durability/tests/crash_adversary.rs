//! Crash-at-record-boundary adversary: a SIGKILL can land between any
//! two journal appends. For **every** such boundary of a realistic
//! campaign — three workers, settle lag, one mid-campaign client death
//! — recovery (replay + re-arm) followed by a resumed campaign must
//! settle every iteration **exactly once against the sequential spec**:
//! the union of all acknowledged ranges, pre-crash and post-crash,
//! covers `[0, n)` with multiplicity one.
//!
//! The acknowledgement rule mirrors the service's journal-before-ack
//! barrier: a settle is acked to its worker only once its `Settled`
//! record is durable, so a crash-truncated journal never strands an
//! acked range. The seeded-broken variant severs exactly that link —
//! it acks settles but "forgets" to journal them (the service-level
//! analogue of the `LostIterations` refiller bug the model checker
//! pins) — and is pinned to its counterexample: recovery re-arms the
//! already-acked lease and the range is executed and acked **twice**.
//!
//! Swept for every technique the service journals chunk watermarks
//! for: {SS, GSS, TSS, FAC2}, all with leases.

use dls::Kind;
use durability::frame::{encode_record, segment_header};
use durability::journal::{Journal, JournalOptions, SyncPolicy};
use durability::record::{GrantEntry, JournalRecord};
use durability::JobCore;
use std::fs;
use std::path::{Path, PathBuf};

const JOB: u64 = 0;
const N: u64 = 24;
const KINDS: [Kind; 4] = [Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC2];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("durability-adv-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The campaign's server: the job kernel itself, driven one chunk at a
/// time (the adversary measures state, so every clock reading is 0).
struct Sim {
    job: JobCore,
}

impl Sim {
    /// Grant one chunk to `worker`.
    fn fetch_one(&mut self, worker: u32) -> Option<GrantEntry> {
        self.job.fetch(worker, 1, 0).pop()
    }

    /// Settle a lease; returns its range.
    fn settle(&mut self, lease: u64) -> (u64, u64) {
        let l = *self.job.leases.get(lease).expect("held lease is in the ledger");
        self.job.settle(lease, 0).expect("settle active lease");
        (l.lo, l.hi)
    }

    /// Kill a client: reclaim its active leases into the pool.
    fn disconnect(&mut self, worker: u32) -> Vec<u64> {
        let ids: Vec<u64> = self.job.leases.active(Some(worker)).map(|l| l.id).collect();
        for &id in &ids {
            self.job.reclaim(id).expect("reclaim active");
        }
        ids
    }

    fn granted(&self, grants: Vec<GrantEntry>) -> JournalRecord {
        JournalRecord::Granted {
            job: JOB,
            step: self.job.step,
            scheduled: self.job.scheduled,
            grants,
        }
    }
}

/// One journal-visible event of the fault-free campaign: the record
/// the server would append (None = the seeded bug swallowed it) plus
/// the range acked to a worker, if the event was a settle.
struct Step {
    rec: Option<JournalRecord>,
    ack: Option<(u64, u64)>,
}

/// Run the fault-free campaign and log every step. Three workers fetch
/// round-robin with a settle lag of one chunk; worker 1 dies in round
/// 2 and its leases are reclaimed. `journal_settles = false` seeds the
/// broken variant: settles are acked but never journaled.
fn campaign(kind: Kind, journal_settles: bool) -> Vec<Step> {
    let mut sim = Sim { job: JobCore::new(N, kind.into(), vec![]) };
    let mut steps = Vec::new();
    let mut held: Vec<Vec<u64>> = vec![Vec::new(); 3];
    let mut dead = [false; 3];
    let mut round = 0u32;
    while !sim.job.done {
        for w in 0..3u32 {
            if dead[w as usize] {
                continue;
            }
            if round == 2 && w == 1 {
                // Client death mid-campaign: server reclaims.
                dead[1] = true;
                let ids = sim.disconnect(1);
                if !ids.is_empty() {
                    steps.push(Step {
                        rec: Some(JournalRecord::Reclaimed { job: JOB, leases: ids }),
                        ack: None,
                    });
                }
                continue;
            }
            // Settle the oldest held lease (lag 1), then fetch.
            if let Some(lease) = held[w as usize].first().copied() {
                held[w as usize].remove(0);
                let range = sim.settle(lease);
                let rec = journal_settles
                    .then(|| JournalRecord::Settled { job: JOB, leases: vec![lease] });
                steps.push(Step { rec, ack: Some(range) });
                if sim.job.done {
                    break;
                }
            }
            if let Some(g) = sim.fetch_one(w) {
                held[w as usize].push(g.lease);
                let rec = sim.granted(vec![g]);
                steps.push(Step { rec: Some(rec), ack: None });
            }
        }
        round += 1;
        assert!(round < 10_000, "campaign must terminate");
    }
    steps.push(Step { rec: Some(JournalRecord::JobFinished { job: JOB }), ack: None });
    steps
}

/// Write a journal dir whose single segment holds the epoch-1 preamble
/// plus every journaled record of `steps[..k]` — byte-exact what a
/// SIGKILL after the k-th append leaves behind.
fn write_prefix(dir: &Path, kind: Kind, steps: &[Step], k: usize) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("mkdir");
    let mut bytes = segment_header(1).to_vec();
    let preamble = [
        JournalRecord::ServerStart { epoch: 1 },
        JournalRecord::JobCreated { job: JOB, n: N, kind: kind.into(), weights: vec![] },
    ];
    for rec in preamble.iter().chain(steps[..k].iter().filter_map(|s| s.rec.as_ref())) {
        encode_record(&rec.encode(), &mut bytes);
    }
    fs::write(dir.join(format!("wal-{:020}.log", 1u64)), &bytes).expect("write segment");
}

/// Recover from `dir` and drive the campaign to completion with a
/// fresh worker, journaling normally. Returns the post-crash acked
/// ranges and the final completed count.
fn recover_and_finish(dir: &Path) -> (Vec<(u64, u64)>, u64) {
    let mut opts = JournalOptions::new(dir);
    opts.sync = SyncPolicy::Never; // the adversary measures state, not fsyncs
    let (mut journal, mut state) = Journal::open(opts).expect("recover");
    assert_eq!(state.epoch, 2, "restart bumps the epoch");
    state.re_arm();
    let job = state.jobs.remove(&JOB).expect("job survived the journal");
    let mut sim = Sim { job };
    let mut acked = Vec::new();
    while let Some(g) = sim.fetch_one(7) {
        journal.append(&sim.granted(vec![g]));
        let range = sim.settle(g.lease);
        journal.append(&JournalRecord::Settled { job: JOB, leases: vec![g.lease] });
        acked.push(range);
    }
    if sim.job.done {
        journal.append(&JournalRecord::JobFinished { job: JOB });
    }
    journal.commit().expect("commit resume");
    (acked, sim.job.completed)
}

/// Count how often each iteration was acked across both epochs.
fn multiplicity(pre: &[(u64, u64)], post: &[(u64, u64)]) -> Vec<u32> {
    let mut counts = vec![0u32; N as usize];
    for &(lo, hi) in pre.iter().chain(post) {
        for i in lo..hi {
            counts[i as usize] += 1;
        }
    }
    counts
}

#[test]
fn every_crash_boundary_recovers_exactly_once() {
    for kind in KINDS {
        let steps = campaign(kind, true);
        assert!(steps.len() >= 10, "{kind:?}: campaign is non-trivial");
        let dir = tmpdir(&format!("clean-{kind:?}"));
        for k in 0..=steps.len() {
            write_prefix(&dir, kind, &steps, k);
            // Journal-before-ack: only settles whose record survived
            // the crash were ever acked to a worker.
            let pre: Vec<(u64, u64)> =
                steps[..k].iter().filter(|s| s.rec.is_some()).filter_map(|s| s.ack).collect();
            let (post, completed) = recover_and_finish(&dir);
            assert_eq!(completed, N, "{kind:?} crash@{k}: iterations lost");
            for (i, &c) in multiplicity(&pre, &post).iter().enumerate() {
                assert_eq!(
                    c, 1,
                    "{kind:?} crash@{k}: iteration {i} acked {c} times (exactly-once violated)"
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn seeded_settle_skip_is_pinned_to_double_execution() {
    for kind in KINDS {
        let steps = campaign(kind, false);
        // Crash immediately after the first settle ack. Its record was
        // never journaled, so recovery sees an *active* lease, re-arms
        // the range, and the resumed campaign executes and acks it a
        // second time — the durability analogue of the model checker's
        // LostIterations counterexample, surfacing as a linearizability
        // violation of the acked history.
        let first_settle =
            steps.iter().position(|s| s.ack.is_some()).expect("campaign settles something");
        let k = first_settle + 1;
        let doubled_range = steps[first_settle].ack.expect("settle step has a range");

        let dir = tmpdir(&format!("broken-{kind:?}"));
        write_prefix(&dir, kind, &steps, k);
        // The broken server acked the settle even though the journal
        // never heard of it.
        let pre: Vec<(u64, u64)> = steps[..k].iter().filter_map(|s| s.ack).collect();
        assert_eq!(pre, vec![doubled_range]);

        let (post, completed) = recover_and_finish(&dir);
        assert_eq!(completed, N, "the resumed campaign itself still finishes");
        let counts = multiplicity(&pre, &post);
        let doubled: Vec<u64> = (0..N).filter(|&i| counts[i as usize] == 2).collect();
        let expected: Vec<u64> = (doubled_range.0..doubled_range.1).collect();
        assert_eq!(
            doubled, expected,
            "{kind:?}: exactly the forgotten settle's range must be double-executed"
        );
        assert!(
            counts.iter().all(|&c| (1..=2).contains(&c)),
            "{kind:?}: nothing may be lost outright"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
