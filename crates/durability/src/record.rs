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

// `Granted` shape bits: each makes every grant of the burst carry one
// more field (see the module docs).
const LEASES: u8 = 1;
const WORKERS: u8 = 2;
const POOL: u8 = 4;
const EXPLICIT: u8 = 8;
const SHAPE_BITS: u8 = LEASES | WORKERS | POOL | EXPLICIT;

/// Bounds-checked cursor shared by the record decoder and the
/// snapshot-image decoder.
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

    /// One LEB128 varint in its shortest form: a value past 64 bits or
    /// a redundant trailing zero byte is malformed.
    fn varint(&mut self) -> Option<u64> {
        let first = self.u8()?;
        if first < 0x80 {
            return Some(u64::from(first));
        }
        let (mut v, mut shift) = (u64::from(first & 0x7F), 7);
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return None;
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                return (byte != 0).then_some(v);
            }
            shift += 7;
        }
    }

    fn varint_u32(&mut self) -> Option<u32> {
        u32::try_from(self.varint()?).ok()
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

    /// [`Reader::count`] for the varint counts of the compact records,
    /// whose elements take at least a byte.
    fn varint_count(&mut self) -> Option<usize> {
        let c = usize::try_from(self.varint()?).ok()?;
        self.fits(c, 1)
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

fn put_varint(b: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        b.push(v as u8 | 0x80);
        v >>= 7;
    }
    b.push(v as u8);
}

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
                encode_grants(b, *job, *step, *scheduled, grants);
            }
            JournalRecord::Settled { job, leases } => encode_lease_list(b, T_SETTLED, *job, leases),
            JournalRecord::Reclaimed { job, leases } => {
                encode_lease_list(b, T_RECLAIMED, *job, leases)
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
    /// payload (unknown tag or shape bit, truncation, an over-long
    /// varint, trailing bytes).
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
            T_GRANTED => decode_grants(&mut r)?,
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
    b.push(T_GRANTED);
    put_varint(b, job);
    put_varint(b, step);
    put_varint(b, scheduled);
    put_varint(b, grants.len() as u64);
    if grants.is_empty() {
        return;
    }
    // Guess shape 0, the burst `JobCore::fetch` produces: only a burst
    // that turns out not to be one pays for `shape` and a second pass.
    let start = b.len();
    if put_grants(b, 0, scheduled, grants) != 0 {
        b.truncate(start);
        put_grants(b, shape(scheduled, grants), scheduled, grants);
    }
}

/// Write a non-empty burst's grants in `shape`'s form. Returns zero iff
/// the burst has shape 0: dense leases, one worker, no pool grant, and
/// a chain of ranges from the first `lo` to `scheduled`. Inlined so the
/// guessing pass is compiled for shape 0 with its branches folded.
#[inline(always)]
fn put_grants(b: &mut Vec<u8>, shape: u8, scheduled: u64, grants: &[GrantEntry]) -> u64 {
    let first = &grants[0];
    b.push(shape);
    put_varint(b, first.lease);
    if shape & WORKERS == 0 {
        put_varint(b, u64::from(first.worker));
    }
    let (mut odd, mut end, mut want) = (0, first.lo, first.lease);
    for g in grants {
        odd |= (g.lease ^ want)
            | u64::from(g.worker ^ first.worker)
            | u64::from(g.from_pool)
            | (g.lo ^ end)
            | u64::from(g.lo > g.hi);
        if shape & LEASES != 0 {
            put_varint(b, zigzag(g.lease, want));
        }
        (want, end) = (g.lease.wrapping_add(1), g.hi);
        if shape & WORKERS != 0 {
            put_varint(b, u64::from(g.worker));
        }
        if shape & POOL != 0 {
            b.push(g.from_pool as u8);
        }
        if g.from_pool || shape & EXPLICIT != 0 {
            put_varint(b, g.lo);
        }
        put_varint(b, g.hi.wrapping_sub(g.lo));
    }
    odd | (end ^ scheduled)
}

fn decode_grants(r: &mut Reader<'_>) -> Option<JournalRecord> {
    let job = r.varint()?;
    let step = r.varint()?;
    let scheduled = r.varint()?;
    let count = r.varint_count()?;
    let mut grants = Vec::with_capacity(count);
    if count > 0 {
        let shape = r.u8()?;
        if shape & !SHAPE_BITS != 0 {
            return None;
        }
        let mut want = r.varint()?;
        let worker = if shape & WORKERS == 0 { r.varint_u32()? } else { 0 };
        // Total size of the grants whose `lo` the chain re-derives.
        let mut chained = 0u64;
        for _ in 0..count {
            let lease = if shape & LEASES != 0 { unzigzag(r.varint()?, want) } else { want };
            want = lease.wrapping_add(1);
            let worker = if shape & WORKERS != 0 { r.varint_u32()? } else { worker };
            let from_pool = shape & POOL != 0 && r.u8().filter(|&b| b <= 1)? == 1;
            let explicit = from_pool || shape & EXPLICIT != 0;
            let lo = if explicit { r.varint()? } else { 0 };
            let size = r.varint()?;
            if !explicit {
                chained = chained.checked_add(size)?;
            }
            grants.push(GrantEntry { lease, worker, lo, hi: lo.wrapping_add(size), from_pool });
        }
        if shape & EXPLICIT == 0 {
            // The fresh chain ends at `scheduled`: lay it out forwards
            // from where it must start. Sums stay below `scheduled`.
            let mut lo = scheduled.checked_sub(chained)?;
            for g in grants.iter_mut().filter(|g| !g.from_pool) {
                (g.lo, g.hi) = (lo, lo + g.hi);
                lo = g.hi;
            }
        }
    }
    Some(JournalRecord::Granted { job, step, scheduled, grants })
}

fn encode_lease_list(b: &mut Vec<u8>, tag: u8, job: u64, leases: &[u64]) {
    b.push(tag);
    put_varint(b, job);
    put_varint(b, leases.len() as u64);
    let Some((&first, rest)) = leases.split_first() else { return };
    put_varint(b, first);
    let mut want = first.wrapping_add(1);
    for &l in rest {
        put_varint(b, zigzag(l, want));
        want = l.wrapping_add(1);
    }
}

fn decode_lease_list(r: &mut Reader<'_>) -> Option<(u64, Vec<u64>)> {
    let job = r.varint()?;
    let count = r.varint_count()?;
    let mut leases = Vec::with_capacity(count);
    if count > 0 {
        let mut prev = r.varint()?;
        leases.push(prev);
        for _ in 1..count {
            prev = unzigzag(r.varint()?, prev.wrapping_add(1));
            leases.push(prev);
        }
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

    #[test]
    fn varints_are_shortest_form_and_64_bit() {
        let read = |bytes: &[u8]| {
            let mut r = Reader { bytes, off: 0 };
            r.varint().filter(|_| r.off == bytes.len())
        };
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let mut b = Vec::new();
            put_varint(&mut b, v);
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
