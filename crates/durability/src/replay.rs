//! Deterministic, idempotent replay of a journal record stream.
//!
//! [`RecoveredState`] is the journal's view of the service: the epoch
//! fence plus one [`JobCore`] per job. Two properties carry the whole
//! recovery design:
//!
//! * **Determinism** — applying the same record stream to the same
//!   base always yields a byte-identical [`RecoveredState::serialize`]
//!   image (jobs live in a `BTreeMap`, every encoding is canonical
//!   little-endian), so "replay twice, compare digests" is a real
//!   test, and the snapshot is just the serialized state.
//! * **Idempotence** — re-applying a record the state already
//!   reflects is a no-op: `JobCreated` inserts only if absent, and
//!   [`JobCore::apply`] is idempotent per record. This lets a snapshot
//!   be taken from *live* state that may already include transitions
//!   whose records sit after the snapshot boundary; replaying the
//!   overlap changes nothing.
//!
//! Replay and the live server run the same kernel, so "live state ==
//! replayed state" is an equality of serialized bytes, up to the one
//! thing the journal deliberately does not carry: the clock reading a
//! lease was granted at (replayed grants are stamped 0).

use std::collections::BTreeMap;

use crate::job::JobCore;
use crate::record::{JournalRecord, Reader};

/// A record that cannot be applied to the current state — always
/// corruption or a journaling bug, never a normal outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// `Granted`/`Settled`/... names a job with no `JobCreated`.
    UnknownJob(u64),
    /// A grant's lease id skips ahead of the ledger (ids are dense).
    NonDenseLease {
        /// Offending job.
        job: u64,
        /// Lease id in the record.
        lease: u64,
        /// Ledger length it should have matched.
        ledger: u64,
    },
    /// `Settled`/`Reclaimed` names a lease id never granted.
    UnknownLease {
        /// Offending job.
        job: u64,
        /// Lease id in the record.
        lease: u64,
    },
    /// A `TechniqueSwitched` record's sequence number skips ahead of
    /// the job's decision history (seqs are dense).
    NonDenseDecision {
        /// Offending job.
        job: u64,
        /// Sequence number in the record.
        seq: u32,
        /// History length it should have matched.
        have: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::UnknownJob(job) => write!(f, "record references unknown job {job}"),
            ReplayError::NonDenseLease { job, lease, ledger } => {
                write!(f, "job {job}: grant of lease {lease} skips ledger length {ledger}")
            }
            ReplayError::UnknownLease { job, lease } => {
                write!(f, "job {job}: settlement of unknown lease {lease}")
            }
            ReplayError::NonDenseDecision { job, seq, have } => {
                write!(f, "job {job}: switch decision seq {seq} skips history length {have}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// The service state a journal replays into.
#[derive(Clone, Debug, Default)]
pub struct RecoveredState {
    /// Highest epoch seen in a `ServerStart` record (0 = none).
    pub epoch: u32,
    /// Jobs by id, in id order.
    pub jobs: BTreeMap<u64, JobCore>,
    /// Jobs ever created (monotone; job ids are allocated densely so
    /// this doubles as the next job id to hand out).
    pub jobs_created: u64,
    /// True when the stream ends in a clean `Drained` record for the
    /// latest epoch.
    pub drained: bool,
}

impl RecoveredState {
    /// Empty state (no journal yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one record. Idempotent: records the state already
    /// reflects are no-ops.
    pub fn apply(&mut self, rec: &JournalRecord) -> Result<(), ReplayError> {
        match rec {
            JournalRecord::ServerStart { epoch } => {
                self.epoch = self.epoch.max(*epoch);
                self.drained = false;
            }
            JournalRecord::JobCreated { job, n, kind, weights } => {
                self.jobs_created = self.jobs_created.max(job + 1);
                self.jobs.entry(*job).or_insert_with(|| JobCore::new(*n, *kind, weights.clone()));
            }
            JournalRecord::Drained { epoch } => {
                if *epoch == self.epoch {
                    self.drained = true;
                }
            }
            JournalRecord::Granted { job, .. }
            | JournalRecord::Settled { job, .. }
            | JournalRecord::Reclaimed { job, .. }
            | JournalRecord::JobFinished { job }
            | JournalRecord::TechniqueSwitched { job, .. } => {
                self.jobs.get_mut(job).ok_or(ReplayError::UnknownJob(*job))?.apply(rec)?;
            }
        }
        Ok(())
    }

    /// Re-arm every job after a crash ([`JobCore::re_arm`]). Returns
    /// the number of leases re-armed.
    pub fn re_arm(&mut self) -> u64 {
        self.jobs.values_mut().map(JobCore::re_arm).sum()
    }

    /// Canonical serialization — the snapshot body, and the input to
    /// [`RecoveredState::digest`].
    pub fn serialize(&self) -> Vec<u8> {
        let mut w = ImageWriter::new(self.epoch, self.drained, self.jobs_created);
        for (&id, job) in &self.jobs {
            w.job(id, job);
        }
        w.finish()
    }

    /// Inverse of [`RecoveredState::serialize`]. `None` on malformed
    /// input.
    pub fn deserialize(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader { bytes, off: 0 };
        let epoch = r.u32()?;
        let drained = r.u8()? != 0;
        let jobs_created = r.u64()?;
        let mut jobs = BTreeMap::new();
        for _ in 0..r.count64(8)? {
            let id = r.u64()?;
            jobs.insert(id, JobCore::deserialize(&mut r)?);
        }
        r.done()?;
        Some(Self { epoch, jobs, jobs_created, drained })
    }

    /// FNV-1a over the canonical serialization — a cheap, stable
    /// fingerprint for replay-determinism checks.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.serialize() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// Streaming writer of the [`RecoveredState::serialize`] image: the
/// header, then one entry per job. It exists so a live server can
/// snapshot its kernels one shard lock at a time without first cloning
/// them into a `RecoveredState`; jobs must be added in ascending id
/// order for the image to be canonical.
pub struct ImageWriter {
    buf: Vec<u8>,
    jobs: u64,
}

/// Offset of the job count in the image header (`epoch: u32`,
/// `drained: u8`, `jobs_created: u64` precede it).
const JOB_COUNT_AT: usize = 4 + 1 + 8;

impl ImageWriter {
    /// Start an image with the given header fields.
    pub fn new(epoch: u32, drained: bool, jobs_created: u64) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&epoch.to_le_bytes());
        buf.push(drained as u8);
        buf.extend_from_slice(&jobs_created.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // job count, patched by `finish`
        ImageWriter { buf, jobs: 0 }
    }

    /// Append one job.
    pub fn job(&mut self, id: u64, job: &JobCore) {
        self.buf.extend_from_slice(&id.to_le_bytes());
        job.serialize_into(&mut self.buf);
        self.jobs += 1;
    }

    /// The finished image.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[JOB_COUNT_AT..JOB_COUNT_AT + 8].copy_from_slice(&self.jobs.to_le_bytes());
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::GrantEntry;
    use dls::switchable::{Decision, SchedKind, SwitchReason};

    fn granted(job: u64, step: u64, scheduled: u64, grants: Vec<GrantEntry>) -> JournalRecord {
        JournalRecord::Granted { job, step, scheduled, grants }
    }

    fn small_run() -> Vec<JournalRecord> {
        vec![
            JournalRecord::ServerStart { epoch: 1 },
            JournalRecord::JobCreated { job: 0, n: 100, kind: SchedKind::Auto, weights: vec![] },
            granted(
                0,
                2,
                2,
                vec![
                    GrantEntry { lease: 0, worker: 1, lo: 0, hi: 1, from_pool: false },
                    GrantEntry { lease: 1, worker: 2, lo: 1, hi: 2, from_pool: false },
                ],
            ),
            JournalRecord::Settled { job: 0, leases: vec![0] },
            JournalRecord::Reclaimed { job: 0, leases: vec![1] },
            granted(
                0,
                2,
                2,
                vec![GrantEntry { lease: 2, worker: 3, lo: 1, hi: 2, from_pool: true }],
            ),
            JournalRecord::TechniqueSwitched { job: 0, decision: decision(0) },
            JournalRecord::TechniqueSwitched { job: 0, decision: decision(1) },
        ]
    }

    fn decision(seq: u32) -> Decision {
        Decision {
            seq,
            step: 2 + u64::from(seq),
            scheduled: 2,
            from: if seq == 0 { dls::Kind::SS.into() } else { dls::Kind::GSS.into() },
            to: if seq == 0 { dls::Kind::GSS.into() } else { SchedKind::Af },
            reason: SwitchReason::Overhead,
        }
    }

    fn apply_all(recs: &[JournalRecord]) -> RecoveredState {
        let mut st = RecoveredState::new();
        for r in recs {
            st.apply(r).unwrap();
        }
        st
    }

    #[test]
    fn replay_basic_run() {
        let st = apply_all(&small_run());
        assert_eq!(st.epoch, 1);
        assert_eq!(st.jobs_created, 1);
        let img = &st.jobs[&0];
        assert_eq!((img.step, img.scheduled, img.completed), (2, 2, 1));
        assert_eq!(img.leases.counts(), (3, 1, 1));
        assert!(img.reclaim_pool.is_empty(), "pool-served grant must drain the pool");
        assert!(!img.done);
        assert_eq!(img.decisions, vec![decision(0), decision(1)]);
        assert_eq!(img.active_kind(), SchedKind::Af);
    }

    #[test]
    fn active_kind_falls_back_to_creation_kind() {
        let st = apply_all(&small_run()[..2]);
        assert_eq!(st.jobs[&0].active_kind(), SchedKind::Auto);
    }

    #[test]
    fn non_dense_decision_is_an_error() {
        let mut st = apply_all(&small_run());
        assert_eq!(
            st.apply(&JournalRecord::TechniqueSwitched { job: 0, decision: decision(5) }),
            Err(ReplayError::NonDenseDecision { job: 0, seq: 5, have: 2 })
        );
    }

    #[test]
    fn replay_is_idempotent_per_record() {
        // Applying every record twice in place must match the single
        // application byte for byte.
        let once = apply_all(&small_run());
        let mut st = RecoveredState::new();
        for r in small_run() {
            st.apply(&r).unwrap();
            st.apply(&r).unwrap();
        }
        assert_eq!(st.serialize(), once.serialize());
        assert_eq!(st.digest(), once.digest());
    }

    #[test]
    fn replay_over_snapshot_overlap_is_noop() {
        // Serialize mid-stream state, then replay the *whole* stream on
        // top of it — the prefix overlap must change nothing.
        let recs = small_run();
        let mid = apply_all(&recs[..4]);
        let mut st = RecoveredState::deserialize(&mid.serialize()).unwrap();
        for r in &recs {
            st.apply(r).unwrap();
        }
        assert_eq!(st.serialize(), apply_all(&recs).serialize());
    }

    #[test]
    fn re_arm_reclaims_only_active() {
        let mut st = apply_all(&small_run());
        assert_eq!(st.re_arm(), 1); // lease 2 was still active
        let img = &st.jobs[&0];
        assert_eq!(img.reclaim_pool, vec![(1, 2)]);
        assert_eq!(img.leases.counts(), (3, 1, 2));
        assert_eq!(st.re_arm(), 0, "second re-arm is a no-op");
    }

    #[test]
    fn serialization_roundtrip() {
        let mut st = apply_all(&small_run());
        st.apply(&JournalRecord::JobFinished { job: 0 }).unwrap();
        st.apply(&JournalRecord::Drained { epoch: 1 }).unwrap();
        let bytes = st.serialize();
        let back = RecoveredState::deserialize(&bytes).unwrap();
        assert_eq!(back.serialize(), bytes);
        assert!(back.drained);
        assert!(back.jobs[&0].done);
        for cut in 0..bytes.len() {
            assert!(RecoveredState::deserialize(&bytes[..cut]).is_none(), "cut {cut}");
        }
    }

    /// `small_run()` + `JobFinished` + `Drained`: the on-disk snapshot
    /// body (layout 2, behind the `DLSSNAP2` magic) must not drift.
    const GOLDEN_DIGEST: u64 = 0x0174_bc08_ed6c_4f45;
    const GOLDEN_HEX: &str = "\
        0100000001010000000000000001000000000000000000000000000000640000\
        00000000000f0000000002000000000000000200000000000000010000000000\
        0000010000000000000000020000000000000002000000000000000200000000\
        0000000102000100000003000000000000000200000000000000020a00030000\
        0000000000010000000000000001000000000000000100000000000000020000\
        0000000000030000000100000000000000020000000000000000000000000000\
        00";

    #[test]
    fn on_disk_format_is_pinned() {
        let mut st = apply_all(&small_run());
        st.apply(&JournalRecord::JobFinished { job: 0 }).unwrap();
        st.apply(&JournalRecord::Drained { epoch: 1 }).unwrap();
        let bytes = st.serialize();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_HEX);
        assert_eq!(st.digest(), GOLDEN_DIGEST);

        // The ledger closes the job entry. Of three leases granted only
        // the unsettled one has a row; the other two are the counters.
        let mut r = Reader { bytes: &bytes, off: bytes.len() - (4 * 8 + 36) };
        assert_eq!(r.u64(), Some(3), "granted");
        assert_eq!(r.u64(), Some(1), "completed");
        assert_eq!(r.u64(), Some(1), "reclaimed");
        assert_eq!(r.u64(), Some(1), "unsettled rows");
        assert_eq!(r.u64(), Some(2), "id");
        assert_eq!(r.u32(), Some(3), "owner");
        assert_eq!(r.u64(), Some(1), "lo");
        assert_eq!(r.u64(), Some(2), "hi");
        assert_eq!(r.u64(), Some(0), "granted_ns (replayed grants are stamped 0)");
        assert_eq!(r.done(), Some(()));
    }

    #[test]
    fn image_without_a_technique_is_malformed() {
        // Byte 0xFF in the mode slot used to decode as "no technique"
        // and was silently served as SS; it is a corrupt image.
        let mut bytes = apply_all(&small_run()).serialize();
        let mode_at = 4 + 1 + 8 + 8 + 8 + 8; // header, job id, n
        assert_eq!(bytes[mode_at], SchedKind::Auto.to_byte());
        bytes[mode_at] = u8::MAX;
        assert!(RecoveredState::deserialize(&bytes).is_none());
    }

    #[test]
    fn errors_on_corrupt_streams() {
        let mut st = RecoveredState::new();
        assert_eq!(st.apply(&granted(7, 1, 1, vec![])), Err(ReplayError::UnknownJob(7)));
        st.apply(&JournalRecord::JobCreated {
            job: 0,
            n: 10,
            kind: dls::Kind::SS.into(),
            weights: vec![],
        })
        .unwrap();
        assert_eq!(
            st.apply(&granted(
                0,
                1,
                1,
                vec![GrantEntry { lease: 5, worker: 0, lo: 0, hi: 1, from_pool: false }]
            )),
            Err(ReplayError::NonDenseLease { job: 0, lease: 5, ledger: 0 })
        );
        assert_eq!(
            st.apply(&JournalRecord::Settled { job: 0, leases: vec![3] }),
            Err(ReplayError::UnknownLease { job: 0, lease: 3 })
        );
    }

    #[test]
    fn stale_epoch_drain_does_not_mark_drained() {
        let mut st = RecoveredState::new();
        st.apply(&JournalRecord::ServerStart { epoch: 2 }).unwrap();
        st.apply(&JournalRecord::Drained { epoch: 1 }).unwrap();
        assert!(!st.drained);
        st.apply(&JournalRecord::Drained { epoch: 2 }).unwrap();
        assert!(st.drained);
    }
}
