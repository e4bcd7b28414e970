//! Typed journal records and their wire form.
//!
//! One record per *exactly-once-relevant* state transition, and
//! nothing else. Grants are batched — one [`JournalRecord::Granted`]
//! per fetch burst carries every lease the burst produced plus the
//! post-burst watermarks, which is what keeps the hot path at one
//! buffered append per burst.
//!
//! The three hot-path records are compact (segment magic `DLSWAL02`);
//! the rest keep fixed-width little-endian fields. `job`, `step`,
//! `scheduled`, counts, workers, sizes and explicit `lo`s are LEB128
//! varints, and lease ids are a first id followed by zig-zag deltas
//! from `prev + 1`:
//!
//! ```text
//! Granted   3 | job | step | scheduled | count
//!             | shape u8 | first lease | worker (unless WORKERS)
//!             | per grant: [lease delta] [worker] [from_pool u8] [lo] size
//! Settled   4 | job | count | first lease | count - 1 lease deltas
//! Reclaimed 5 | the same
//! ```
//!
//! A fresh grant carries only its size: the paper's global queue is
//! the two counters, so a burst's fresh ranges are the contiguous chain
//! of sizes that ends at the post-burst `scheduled` — exactly what
//! `JobCore::fetch` produces — and decode re-derives their `lo`. Sizes,
//! not steps, keep adaptive kinds exact (their sizes depend on settle
//! latencies the journal does not carry). The `shape` bits name how a
//! burst departs from that common case, and each makes every grant
//! carry one more field: `LEASES` (ids not dense), `WORKERS` (more than
//! one worker), `POOL` (a reclaim-pool re-grant in the burst; those
//! always carry `lo`) and `EXPLICIT` (the fresh chain does not end at
//! `scheduled`; every grant carries `lo`). So `decode(encode(r)) == r`
//! for every value.
//!
//! On `svc_journal` (SS, batch 8, ids and counters under 2^21) an
//! 8-lease burst is 30 bytes framed (8 header + 14 record head + 8 × 1
//! size) and its `Settled` 21, 6.4 bytes per chunk; v1's fixed 29-byte
//! `GrantEntry` made it 269 + 85, 44.25 per chunk.

use dls::switchable::{Decision, SchedKind};

use crate::codec::{self, Malformed, Reader, Writer};

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

// `Granted` shape bits: each makes every grant of the burst carry one
// more field (see the module docs).
const LEASES: u8 = 1;
const WORKERS: u8 = 2;
const POOL: u8 = 4;
const EXPLICIT: u8 = 8;
const SHAPE_BITS: u8 = LEASES | WORKERS | POOL | EXPLICIT;

/// The zig-zag form of the wrapping difference `got - want`: a small
/// step either way is a small varint.
fn zigzag(got: u64, want: u64) -> u64 {
    let d = got.wrapping_sub(want) as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64, want: u64) -> u64 {
    want.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
}

impl JournalRecord {
    /// Serialize to the payload that goes inside one journal frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32);
        self.encode_into(&mut b);
        b
    }

    /// [`JournalRecord::encode`] appended to a caller-owned buffer — the
    /// hot-path variant: the journal encodes each record straight into
    /// its commit buffer.
    pub fn encode_into(&self, b: &mut Vec<u8>) {
        let w = &mut Writer::new(b);
        match self {
            JournalRecord::ServerStart { epoch } => {
                w.u8(T_SERVER_START).u32(*epoch);
            }
            JournalRecord::JobCreated { job, n, kind, weights } => {
                w.u8(T_JOB_CREATED).u64(*job).u64(*n).kind(*kind).u32(weights.len() as u32);
                for &x in weights {
                    w.f64(x);
                }
            }
            JournalRecord::Granted { job, step, scheduled, grants } => {
                encode_grants(b, *job, *step, *scheduled, grants);
            }
            JournalRecord::Settled { job, leases } => encode_lease_list(w, T_SETTLED, *job, leases),
            JournalRecord::Reclaimed { job, leases } => {
                encode_lease_list(w, T_RECLAIMED, *job, leases)
            }
            JournalRecord::JobFinished { job } => {
                w.u8(T_JOB_FINISHED).u64(*job);
            }
            JournalRecord::Drained { epoch } => {
                w.u8(T_DRAINED).u32(*epoch);
            }
            JournalRecord::TechniqueSwitched { job, decision } => {
                w.u8(T_TECHNIQUE_SWITCHED).u64(*job).decision(*decision);
            }
        }
    }

    /// Inverse of [`JournalRecord::encode`]. `None` on any malformed
    /// payload (unknown tag or shape bit, truncation, an over-long
    /// varint, trailing bytes).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        Self::read(&mut Reader::new(bytes)).ok()
    }

    fn read(r: &mut Reader<'_>) -> codec::Result<Self> {
        let rec = match r.u8()? {
            T_SERVER_START => JournalRecord::ServerStart { epoch: r.u32()? },
            T_JOB_CREATED => {
                let (job, n, kind, count) = (r.u64()?, r.u64()?, r.kind()?, r.u32()?);
                JournalRecord::JobCreated {
                    job,
                    n,
                    kind,
                    weights: r.items(count.into(), 8, Reader::f64)?,
                }
            }
            T_GRANTED => decode_grants(r)?,
            T_SETTLED => {
                let (job, leases) = decode_lease_list(r)?;
                JournalRecord::Settled { job, leases }
            }
            T_RECLAIMED => {
                let (job, leases) = decode_lease_list(r)?;
                JournalRecord::Reclaimed { job, leases }
            }
            T_JOB_FINISHED => JournalRecord::JobFinished { job: r.u64()? },
            T_DRAINED => JournalRecord::Drained { epoch: r.u32()? },
            T_TECHNIQUE_SWITCHED => {
                JournalRecord::TechniqueSwitched { job: r.u64()?, decision: r.decision()? }
            }
            _ => return Err(Malformed("unknown record tag")),
        };
        r.done()?;
        Ok(rec)
    }
}

/// Which optional per-grant fields a burst needs (see the module docs).
fn shape(scheduled: u64, grants: &[GrantEntry]) -> u8 {
    let first = &grants[0];
    let mut shape = 0;
    // Walk the fresh chain back from `scheduled`: each fresh range must
    // end where the next one starts.
    let mut end = scheduled;
    for (i, g) in grants.iter().enumerate().rev() {
        if g.lease != first.lease.wrapping_add(i as u64) {
            shape |= LEASES;
        }
        if g.worker != first.worker {
            shape |= WORKERS;
        }
        if g.from_pool {
            shape |= POOL;
        } else {
            if g.hi != end || g.lo > g.hi {
                shape |= EXPLICIT;
            }
            end = g.lo;
        }
    }
    shape
}

fn encode_grants(b: &mut Vec<u8>, job: u64, step: u64, scheduled: u64, grants: &[GrantEntry]) {
    let w = &mut Writer::new(b);
    w.u8(T_GRANTED).varint(job).varint(step).varint(scheduled).varint(grants.len() as u64);
    if grants.is_empty() {
        return;
    }
    // Guess shape 0, the burst `JobCore::fetch` produces: only a burst
    // that turns out not to be one pays for `shape` and a second pass.
    let start = b.len();
    if put_grants(&mut Writer::new(b), 0, scheduled, grants) != 0 {
        b.truncate(start);
        put_grants(&mut Writer::new(b), shape(scheduled, grants), scheduled, grants);
    }
}

/// Write a non-empty burst's grants in `shape`'s form. Returns zero iff
/// the burst has shape 0: dense leases, one worker, no pool grant, and
/// a chain of ranges from the first `lo` to `scheduled`. Inlined so the
/// guessing pass is compiled for shape 0 with its branches folded.
#[inline(always)]
fn put_grants(w: &mut Writer<'_>, shape: u8, scheduled: u64, grants: &[GrantEntry]) -> u64 {
    let first = &grants[0];
    w.u8(shape).varint(first.lease);
    if shape & WORKERS == 0 {
        w.varint(u64::from(first.worker));
    }
    let (mut odd, mut end, mut want) = (0, first.lo, first.lease);
    for g in grants {
        odd |= (g.lease ^ want)
            | u64::from(g.worker ^ first.worker)
            | u64::from(g.from_pool)
            | (g.lo ^ end)
            | u64::from(g.lo > g.hi);
        if shape & LEASES != 0 {
            w.varint(zigzag(g.lease, want));
        }
        (want, end) = (g.lease.wrapping_add(1), g.hi);
        if shape & WORKERS != 0 {
            w.varint(u64::from(g.worker));
        }
        if shape & POOL != 0 {
            w.bool(g.from_pool);
        }
        if g.from_pool || shape & EXPLICIT != 0 {
            w.varint(g.lo);
        }
        w.varint(g.hi.wrapping_sub(g.lo));
    }
    odd | (end ^ scheduled)
}

fn decode_grants(r: &mut Reader<'_>) -> codec::Result<JournalRecord> {
    let (job, step, scheduled, count) = (r.varint()?, r.varint()?, r.varint()?, r.varint()?);
    if count == 0 {
        return Ok(JournalRecord::Granted { job, step, scheduled, grants: Vec::new() });
    }
    let shape = r.u8()?;
    if shape & !SHAPE_BITS != 0 {
        return Err(Malformed("unknown grant shape bit"));
    }
    let mut want = r.varint()?;
    let worker = if shape & WORKERS == 0 { r.varint_u32()? } else { 0 };
    // Total size of the grants whose `lo` the chain re-derives.
    let mut chained = 0u64;
    let mut grants = r.items(count, 1, |r| {
        let lease = if shape & LEASES != 0 { unzigzag(r.varint()?, want) } else { want };
        want = lease.wrapping_add(1);
        let worker = if shape & WORKERS != 0 { r.varint_u32()? } else { worker };
        let from_pool = shape & POOL != 0
            && match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(Malformed("from_pool is neither 0 nor 1")),
            };
        let explicit = from_pool || shape & EXPLICIT != 0;
        let lo = if explicit { r.varint()? } else { 0 };
        let size = r.varint()?;
        if !explicit {
            chained = chained.checked_add(size).ok_or(OVERRUN)?;
        }
        Ok(GrantEntry { lease, worker, lo, hi: lo.wrapping_add(size), from_pool })
    })?;
    if shape & EXPLICIT == 0 {
        // The fresh chain ends at `scheduled`: lay it out forwards
        // from where it must start. Sums stay below `scheduled`.
        let mut lo = scheduled.checked_sub(chained).ok_or(OVERRUN)?;
        for g in grants.iter_mut().filter(|g| !g.from_pool) {
            (g.lo, g.hi) = (lo, lo + g.hi);
            lo = g.hi;
        }
    }
    Ok(JournalRecord::Granted { job, step, scheduled, grants })
}

/// A fresh chain longer than the `scheduled` it must end at.
const OVERRUN: Malformed = Malformed("fresh grants past scheduled");

fn encode_lease_list(w: &mut Writer<'_>, tag: u8, job: u64, leases: &[u64]) {
    w.u8(tag).varint(job).varint(leases.len() as u64);
    let Some((&first, rest)) = leases.split_first() else { return };
    w.varint(first);
    let mut want = first.wrapping_add(1);
    for &l in rest {
        w.varint(zigzag(l, want));
        want = l.wrapping_add(1);
    }
}

fn decode_lease_list(r: &mut Reader<'_>) -> codec::Result<(u64, Vec<u64>)> {
    let (job, count) = (r.varint()?, r.varint()?);
    let mut want = None;
    let leases = r.items(count, 1, |r| {
        let l = r.varint()?;
        let l = want.map_or(l, |want| unzigzag(l, want));
        want = Some(l.wrapping_add(1));
        Ok(l)
    })?;
    Ok((job, leases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dls::switchable::SwitchReason;

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

    #[test]
    fn varints_are_shortest_form_and_64_bit() {
        let read = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            r.varint().ok().filter(|_| r.done().is_ok())
        };
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let mut b = Vec::new();
            Writer::new(&mut b).varint(v);
            assert_eq!(read(&b), Some(v), "{v}");
        }
        assert_eq!(read(&[0x80, 0x00]), None, "redundant zero byte");
        assert_eq!(read(&[0xFF; 9].iter().copied().chain([0x02]).collect::<Vec<_>>()), None);
        assert_eq!(read(&[0x80; 11]), None, "past ten bytes");
        for (got, want) in [(5, 5), (4, 5), (6, 5), (0, u64::MAX), (u64::MAX, 0)] {
            assert_eq!(unzigzag(zigzag(got, want), want), got);
        }
        assert_eq!(zigzag(7, 8), 1, "one step back is one byte");
    }
}
