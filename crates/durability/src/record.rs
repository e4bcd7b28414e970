//! Typed journal records and their little-endian wire form.
//!
//! One record per *exactly-once-relevant* state transition, and
//! nothing else. A granted lease is recorded with its range (a
//! [`GrantEntry`] is 29 bytes on the wire) and replay grants that range
//! verbatim; what replay re-derives through the real `dls` calculators
//! is the chunks not yet granted, from the counter watermarks. Grants
//! are batched — one [`JournalRecord::Granted`] per fetch burst carries
//! every lease the burst produced plus the post-burst watermarks, which
//! is what keeps the hot path at one buffered append per burst.

use dls::switchable::{Decision, SchedKind, SwitchReason};

/// One grant inside a [`JournalRecord::Granted`] burst.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GrantEntry {
    /// Dense lease id within the job's ledger.
    pub lease: u64,
    /// Worker rank the range was granted to.
    pub worker: u32,
    /// First iteration of the range.
    pub lo: u64,
    /// One past the last iteration.
    pub hi: u64,
    /// True when the range was served from the reclaim pool rather
    /// than by advancing the fresh-chunk counters. Replay uses this to
    /// remove the matching pool entry instead of guessing by range.
    pub from_pool: bool,
}

/// A durable state transition of the scheduling service.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// The server opened the journal; `epoch` fences all leases
    /// granted by earlier incarnations.
    ServerStart {
        /// New server epoch (monotone across restarts, first is 1).
        epoch: u32,
    },
    /// A job was admitted.
    JobCreated {
        /// Job id.
        job: u64,
        /// Total iterations.
        n: u64,
        /// Scheduling technique (or the AUTO meta-mode).
        kind: SchedKind,
        /// Per-worker weights (empty for unweighted techniques).
        weights: Vec<f64>,
    },
    /// One fetch burst: post-burst counter watermarks plus every lease
    /// the burst granted.
    Granted {
        /// Job id.
        job: u64,
        /// Chunk-index counter after the burst.
        step: u64,
        /// Scheduled-iterations counter after the burst.
        scheduled: u64,
        /// Leases granted by the burst, in ledger order.
        grants: Vec<GrantEntry>,
    },
    /// Leases settled as completed by their owner.
    Settled {
        /// Job id.
        job: u64,
        /// Lease ids, each previously granted.
        leases: Vec<u64>,
    },
    /// Leases reclaimed from a dead owner; their ranges returned to
    /// the reclaim pool.
    Reclaimed {
        /// Job id.
        job: u64,
        /// Lease ids, each previously granted.
        leases: Vec<u64>,
    },
    /// Every iteration of the job settled exactly once.
    JobFinished {
        /// Job id.
        job: u64,
    },
    /// Graceful drain: the journal was flushed and fsynced before a
    /// clean exit. Purely informational at replay.
    Drained {
        /// Epoch that drained.
        epoch: u32,
    },
    /// An AUTO job's tuner switched the active technique. Journaled
    /// *before* the switch takes effect on the grant path, so replay
    /// reproduces the decision history — and therefore the active
    /// technique at every watermark — bit-identically without ever
    /// re-running the policy.
    TechniqueSwitched {
        /// Job id.
        job: u64,
        /// The switch: dense sequence number, global watermarks at the
        /// re-basing origin, from/to techniques, and the reason.
        decision: Decision,
    },
}

const T_SERVER_START: u8 = 1;
const T_JOB_CREATED: u8 = 2;
const T_GRANTED: u8 = 3;
const T_SETTLED: u8 = 4;
const T_RECLAIMED: u8 = 5;
const T_JOB_FINISHED: u8 = 6;
const T_DRAINED: u8 = 7;
const T_TECHNIQUE_SWITCHED: u8 = 8;

/// Bounds-checked little-endian cursor shared by the record decoder
/// and the snapshot-image decoder.
pub(crate) struct Reader<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) off: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.off)?;
        self.off += 1;
        Some(b)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let s = self.bytes.get(self.off..self.off + 4)?;
        self.off += 4;
        Some(u32::from_le_bytes(s.try_into().ok()?))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let s = self.bytes.get(self.off..self.off + 8)?;
        self.off += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A count that the remaining bytes could plausibly hold, given a
    /// minimum per-element size — rejects garbage counts before any
    /// allocation.
    pub(crate) fn count(&mut self, min_elem: usize) -> Option<usize> {
        let c = self.u32()? as usize;
        self.fits(c, min_elem)
    }

    /// [`Reader::count`] for the image fields that carry a 64-bit count.
    pub(crate) fn count64(&mut self, min_elem: usize) -> Option<usize> {
        let c = usize::try_from(self.u64()?).ok()?;
        self.fits(c, min_elem)
    }

    fn fits(&self, c: usize, min_elem: usize) -> Option<usize> {
        (c <= (self.bytes.len() - self.off) / min_elem.max(1)).then_some(c)
    }

    /// One [`Decision`] in its 27-byte form (see [`encode_decision`]).
    pub(crate) fn decision(&mut self) -> Option<Decision> {
        Some(Decision {
            seq: self.u32()?,
            step: self.u64()?,
            scheduled: self.u64()?,
            from: SchedKind::from_byte(self.u8()?)?,
            to: SchedKind::from_byte(self.u8()?)?,
            reason: SwitchReason::from_byte(self.u8()?)?,
        })
    }

    pub(crate) fn done(self) -> Option<()> {
        (self.off == self.bytes.len()).then_some(())
    }
}

impl JournalRecord {
    /// Serialize to the payload that goes inside one journal frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32);
        self.encode_into(&mut b);
        b
    }

    /// [`JournalRecord::encode`] into a caller-owned buffer — the
    /// hot-path variant: the journal appends thousands of records per
    /// second and reuses one scratch buffer instead of allocating per
    /// record.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            JournalRecord::ServerStart { epoch } => {
                b.push(T_SERVER_START);
                b.extend_from_slice(&epoch.to_le_bytes());
            }
            JournalRecord::JobCreated { job, n, kind, weights } => {
                b.push(T_JOB_CREATED);
                b.extend_from_slice(&job.to_le_bytes());
                b.extend_from_slice(&n.to_le_bytes());
                b.push(kind.to_byte());
                b.extend_from_slice(&(weights.len() as u32).to_le_bytes());
                for w in weights {
                    b.extend_from_slice(&w.to_bits().to_le_bytes());
                }
            }
            JournalRecord::Granted { job, step, scheduled, grants } => {
                b.push(T_GRANTED);
                b.extend_from_slice(&job.to_le_bytes());
                b.extend_from_slice(&step.to_le_bytes());
                b.extend_from_slice(&scheduled.to_le_bytes());
                b.extend_from_slice(&(grants.len() as u32).to_le_bytes());
                for g in grants {
                    b.extend_from_slice(&g.lease.to_le_bytes());
                    b.extend_from_slice(&g.worker.to_le_bytes());
                    b.extend_from_slice(&g.lo.to_le_bytes());
                    b.extend_from_slice(&g.hi.to_le_bytes());
                    b.push(g.from_pool as u8);
                }
            }
            JournalRecord::Settled { job, leases } => {
                b.push(T_SETTLED);
                encode_lease_list(b, *job, leases);
            }
            JournalRecord::Reclaimed { job, leases } => {
                b.push(T_RECLAIMED);
                encode_lease_list(b, *job, leases);
            }
            JournalRecord::JobFinished { job } => {
                b.push(T_JOB_FINISHED);
                b.extend_from_slice(&job.to_le_bytes());
            }
            JournalRecord::Drained { epoch } => {
                b.push(T_DRAINED);
                b.extend_from_slice(&epoch.to_le_bytes());
            }
            JournalRecord::TechniqueSwitched { job, decision } => {
                b.push(T_TECHNIQUE_SWITCHED);
                b.extend_from_slice(&job.to_le_bytes());
                encode_decision(b, decision);
            }
        }
    }

    /// Inverse of [`JournalRecord::encode`]. `None` on any malformed
    /// payload (unknown tag, truncation, trailing bytes).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader { bytes, off: 0 };
        let rec = match r.u8()? {
            T_SERVER_START => JournalRecord::ServerStart { epoch: r.u32()? },
            T_JOB_CREATED => {
                let job = r.u64()?;
                let n = r.u64()?;
                let kind = SchedKind::from_byte(r.u8()?)?;
                let count = r.count(8)?;
                let mut weights = Vec::with_capacity(count);
                for _ in 0..count {
                    weights.push(r.f64()?);
                }
                JournalRecord::JobCreated { job, n, kind, weights }
            }
            T_GRANTED => {
                let job = r.u64()?;
                let step = r.u64()?;
                let scheduled = r.u64()?;
                let count = r.count(29)?;
                let mut grants = Vec::with_capacity(count);
                for _ in 0..count {
                    grants.push(GrantEntry {
                        lease: r.u64()?,
                        worker: r.u32()?,
                        lo: r.u64()?,
                        hi: r.u64()?,
                        from_pool: r.u8()? != 0,
                    });
                }
                JournalRecord::Granted { job, step, scheduled, grants }
            }
            T_SETTLED => {
                let (job, leases) = decode_lease_list(&mut r)?;
                JournalRecord::Settled { job, leases }
            }
            T_RECLAIMED => {
                let (job, leases) = decode_lease_list(&mut r)?;
                JournalRecord::Reclaimed { job, leases }
            }
            T_JOB_FINISHED => JournalRecord::JobFinished { job: r.u64()? },
            T_DRAINED => JournalRecord::Drained { epoch: r.u32()? },
            T_TECHNIQUE_SWITCHED => {
                let job = r.u64()?;
                JournalRecord::TechniqueSwitched { job, decision: r.decision()? }
            }
            _ => return None,
        };
        r.done()?;
        Some(rec)
    }
}

/// The 27-byte decision form shared by `TechniqueSwitched` records and
/// the snapshot image: `seq, step, scheduled, from, to, reason`.
pub(crate) fn encode_decision(b: &mut Vec<u8>, d: &Decision) {
    b.extend_from_slice(&d.seq.to_le_bytes());
    b.extend_from_slice(&d.step.to_le_bytes());
    b.extend_from_slice(&d.scheduled.to_le_bytes());
    b.push(d.from.to_byte());
    b.push(d.to.to_byte());
    b.push(d.reason.to_byte());
}

fn encode_lease_list(b: &mut Vec<u8>, job: u64, leases: &[u64]) {
    b.extend_from_slice(&job.to_le_bytes());
    b.extend_from_slice(&(leases.len() as u32).to_le_bytes());
    for l in leases {
        b.extend_from_slice(&l.to_le_bytes());
    }
}

fn decode_lease_list(r: &mut Reader<'_>) -> Option<(u64, Vec<u64>)> {
    let job = r.u64()?;
    let count = r.count(8)?;
    let mut leases = Vec::with_capacity(count);
    for _ in 0..count {
        leases.push(r.u64()?);
    }
    Some((job, leases))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<JournalRecord> {
        vec![
            JournalRecord::ServerStart { epoch: 3 },
            JournalRecord::JobCreated {
                job: 1,
                n: 4096,
                kind: dls::Kind::GSS.into(),
                weights: vec![],
            },
            JournalRecord::JobCreated {
                job: 2,
                n: 10,
                kind: dls::Kind::WF.into(),
                weights: vec![1.0, 0.5, 2.25],
            },
            JournalRecord::JobCreated { job: 3, n: 64, kind: SchedKind::Auto, weights: vec![] },
            JournalRecord::JobCreated { job: 4, n: 64, kind: SchedKind::Af, weights: vec![] },
            JournalRecord::TechniqueSwitched {
                job: 3,
                decision: Decision {
                    seq: 0,
                    step: 12,
                    scheduled: 777,
                    from: dls::Kind::SS.into(),
                    to: dls::Kind::GSS.into(),
                    reason: SwitchReason::Overhead,
                },
            },
            JournalRecord::Granted {
                job: 1,
                step: 7,
                scheduled: 900,
                grants: vec![
                    GrantEntry { lease: 5, worker: 2, lo: 512, hi: 700, from_pool: false },
                    GrantEntry { lease: 6, worker: 2, lo: 0, hi: 64, from_pool: true },
                ],
            },
            JournalRecord::Granted { job: 9, step: 0, scheduled: 0, grants: vec![] },
            JournalRecord::Settled { job: 1, leases: vec![5, 6, 7] },
            JournalRecord::Reclaimed { job: 1, leases: vec![0] },
            JournalRecord::JobFinished { job: 1 },
            JournalRecord::Drained { epoch: 3 },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for rec in samples() {
            let bytes = rec.encode();
            assert_eq!(JournalRecord::decode(&bytes).as_ref(), Some(&rec), "{rec:?}");
        }
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        for rec in samples() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                assert!(JournalRecord::decode(&bytes[..cut]).is_none(), "{rec:?} cut {cut}");
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes_and_unknown_tag() {
        let mut bytes = JournalRecord::JobFinished { job: 4 }.encode();
        bytes.push(0);
        assert!(JournalRecord::decode(&bytes).is_none());
        assert!(JournalRecord::decode(&[0xEE, 1, 2, 3]).is_none());
        assert!(JournalRecord::decode(&[]).is_none());
    }

    #[test]
    fn kind_mapping_total() {
        // The journal shares the canonical SchedKind byte map: pure
        // kinds keep their historical bytes 0–9, adaptive kinds and
        // AUTO occupy 10–15, and everything above is rejected.
        for kind in SchedKind::CONCRETE.into_iter().chain([SchedKind::Auto]) {
            assert_eq!(SchedKind::from_byte(kind.to_byte()), Some(kind));
        }
        for kind in dls::Kind::ALL {
            assert!(SchedKind::from(kind).to_byte() <= 9, "pure kinds keep v1 bytes");
        }
        assert_eq!(SchedKind::from_byte(16), None);
    }

    #[test]
    fn switch_record_rejects_bad_bytes() {
        let good = JournalRecord::TechniqueSwitched {
            job: 3,
            decision: Decision {
                seq: 1,
                step: 2,
                scheduled: 3,
                from: SchedKind::Af,
                to: dls::Kind::FAC2.into(),
                reason: SwitchReason::Imbalance,
            },
        }
        .encode();
        assert_eq!(JournalRecord::decode(&good).as_ref().map(|r| r.encode()), Some(good.clone()));
        // Corrupt each of the three trailing kind/reason bytes.
        for (idx, bad) in [(good.len() - 3, 16u8), (good.len() - 2, 255), (good.len() - 1, 4)] {
            let mut b = good.clone();
            b[idx] = bad;
            assert!(JournalRecord::decode(&b).is_none(), "byte {idx} = {bad}");
        }
    }
}
