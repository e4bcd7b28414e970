//! Chunk leases: revocable work grants.
//!
//! The paper's protocol treats a chunk grant as irrevocable — once the
//! global counters advance (or a sub-chunk is taken from the node
//! queue), the iterations belong to the grantee forever. Under
//! failures that is exactly wrong: a grant must be a *lease* that the
//! owner either completes or loses to a survivor. The [`LeaseTable`]
//! is the bookkeeping half of that idea; the windows carry the same
//! `(owner, range, epoch)` triple for the real-thread executors.
//!
//! The critical invariant is **single settlement**: a lease is settled
//! — completed or reclaimed — exactly once. The table holds a row for
//! as long as its lease is unsettled and drops it at the settlement,
//! which hands the row back; what outlives it are three counters. Ids
//! are dense, so an id below the grant counter with no row is a lease
//! already settled: completing or reclaiming it again — the
//! double-reclaim that would re-execute iterations — is a
//! [`LeaseError`], not a silent no-op, so executors cannot paper over
//! a race in the recovery path.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use cluster_sim::Time;

/// Identifier of a lease within one [`LeaseTable`] (dense, 0-based).
pub type LeaseId = u64;

/// One granted, not yet settled range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lease {
    /// Identifier within the table.
    pub id: LeaseId,
    /// Rank the range was granted to.
    pub owner: u32,
    /// First iteration of the range.
    pub lo: u64,
    /// One past the last iteration.
    pub hi: u64,
    /// Virtual time of the grant.
    pub granted_ns: Time,
}

/// Misuse of the lease lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaseError {
    /// The id was never granted.
    Unknown(LeaseId),
    /// The lease was already completed or reclaimed — settling it again
    /// would credit or re-pool its range twice.
    Settled(LeaseId),
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::Unknown(id) => write!(f, "lease {id} was never granted"),
            LeaseError::Settled(id) => write!(f, "lease {id} already settled"),
        }
    }
}

impl std::error::Error for LeaseError {}

/// Fibonacci (multiplicative) hashing of a lease id. Ids are dense and
/// assigned by the table itself, never attacker-chosen, so SipHash's
/// collision resistance buys nothing. The multiplier is odd: the low
/// bits that pick the bucket are a bijection of the id's low bits (a
/// window of consecutive ids no wider than the table never collides)
/// and the high bits that tag the slot are well mixed.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(self.0 ^ u64::from(b)));
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The unsettled leases of one run, and how many were ever granted,
/// completed and reclaimed. Memory and image size follow the leases in
/// flight, not the leases ever granted: ids settle in near-grant order
/// but one may stay unsettled while millions behind it come and go, so
/// the rows live in a map keyed by id rather than behind a watermark.
/// A grant and a settlement are one hash probe each; what is ordered is
/// the *view* — [`LeaseTable::active`] and the image sort by id, and
/// they run at snapshot, re-arm and in checkers, never per chunk.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LeaseTable {
    live: HashMap<LeaseId, Lease, BuildHasherDefault<IdHasher>>,
    /// Leases ever granted — the next id.
    granted: u64,
    completed: u64,
    reclaimed: u64,
}

/// Encoded size of the counters and the live count.
const IMAGE_HEADER: usize = 4 * 8;
/// Encoded size of one live row.
const IMAGE_ROW: usize = 8 + 4 + 8 + 8 + 8;

impl LeaseTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a grant of `[lo, hi)` to `owner` at `now`.
    pub fn grant(&mut self, owner: u32, lo: u64, hi: u64, now: Time) -> LeaseId {
        debug_assert!(lo < hi, "empty lease [{lo}, {hi})");
        let id = self.granted;
        self.granted += 1;
        self.live.insert(id, Lease { id, owner, lo, hi, granted_ns: now });
        id
    }

    /// The single settlement: drop the row and hand it back.
    fn settle(&mut self, id: LeaseId) -> Result<Lease, LeaseError> {
        match self.live.remove(&id) {
            Some(lease) => Ok(lease),
            None if id < self.granted => Err(LeaseError::Settled(id)),
            None => Err(LeaseError::Unknown(id)),
        }
    }

    /// The owner finished the range. Returns the settled lease.
    pub fn complete(&mut self, id: LeaseId) -> Result<Lease, LeaseError> {
        let lease = self.settle(id)?;
        self.completed += 1;
        Ok(lease)
    }

    /// The range is taken back after the owner's death. Returns the
    /// settled lease, whose range is to be re-executed. Reclaiming a
    /// settled lease is an error: recovery code must hold whatever
    /// mutual exclusion makes the first reclaim win before calling this.
    pub fn reclaim(&mut self, id: LeaseId) -> Result<Lease, LeaseError> {
        let lease = self.settle(id)?;
        self.reclaimed += 1;
        Ok(lease)
    }

    /// Look up an unsettled lease.
    pub fn get(&self, id: LeaseId) -> Option<&Lease> {
        self.live.get(&id)
    }

    /// The unsettled leases (granted to `owner` if given), in id order.
    pub fn active(&self, owner: Option<u32>) -> impl Iterator<Item = &Lease> {
        // Ids beside the pointers: the sort compares without chasing them.
        let mut rows: Vec<(LeaseId, &Lease)> = self
            .live
            .iter()
            .filter(|(_, l)| owner.is_none_or(|o| l.owner == o))
            .map(|(&id, l)| (id, l))
            .collect();
        rows.sort_unstable_by_key(|&(id, _)| id);
        rows.into_iter().map(|(_, l)| l)
    }

    /// Number of leases ever granted.
    pub fn len(&self) -> u64 {
        self.granted
    }

    /// True when no lease has been granted.
    pub fn is_empty(&self) -> bool {
        self.granted == 0
    }

    /// `(granted, completed, reclaimed)` totals.
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.granted, self.completed, self.reclaimed)
    }

    /// Append the ledger's canonical little-endian serialization to
    /// `out`: `granted, completed, reclaimed`, the number of unsettled
    /// leases, then per unsettled lease in ascending id order
    /// `id, owner, lo, hi, granted_ns`.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.reserve(IMAGE_HEADER + self.live.len() * IMAGE_ROW);
        for v in [self.granted, self.completed, self.reclaimed, self.live.len() as u64] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for l in self.active(None) {
            out.extend_from_slice(&l.id.to_le_bytes());
            out.extend_from_slice(&l.owner.to_le_bytes());
            out.extend_from_slice(&l.lo.to_le_bytes());
            out.extend_from_slice(&l.hi.to_le_bytes());
            out.extend_from_slice(&l.granted_ns.to_le_bytes());
        }
    }

    /// Inverse of [`LeaseTable::serialize_into`]. Reads one ledger from
    /// the front of `bytes` and returns it with the number of bytes
    /// consumed, or `None` on truncated or malformed input: ids out of
    /// order or not below `granted`, an empty range, or counters that
    /// do not add up to `granted == completed + reclaimed + unsettled`.
    pub fn deserialize(bytes: &[u8]) -> Option<(Self, usize)> {
        fn u32_at(b: &[u8], off: &mut usize) -> Option<u32> {
            let s = b.get(*off..*off + 4)?;
            *off += 4;
            Some(u32::from_le_bytes(s.try_into().ok()?))
        }
        fn u64_at(b: &[u8], off: &mut usize) -> Option<u64> {
            let s = b.get(*off..*off + 8)?;
            *off += 8;
            Some(u64::from_le_bytes(s.try_into().ok()?))
        }
        let mut off = 0;
        let granted = u64_at(bytes, &mut off)?;
        let completed = u64_at(bytes, &mut off)?;
        let reclaimed = u64_at(bytes, &mut off)?;
        let count = u64_at(bytes, &mut off)?;
        // A real ledger is bounded by what fits in the input; reject
        // counts the remaining bytes cannot possibly hold.
        if count > ((bytes.len() - off) / IMAGE_ROW) as u64
            || completed.checked_add(reclaimed)?.checked_add(count)? != granted
        {
            return None;
        }
        let mut live = HashMap::with_capacity_and_hasher(count as usize, Default::default());
        let mut next = 0;
        for _ in 0..count {
            let id = u64_at(bytes, &mut off)?;
            let owner = u32_at(bytes, &mut off)?;
            let lo = u64_at(bytes, &mut off)?;
            let hi = u64_at(bytes, &mut off)?;
            let granted_ns = u64_at(bytes, &mut off)?;
            if id < next || id >= granted || lo >= hi {
                return None;
            }
            next = id + 1;
            live.insert(id, Lease { id, owner, lo, hi, granted_ns });
        }
        Some((Self { live, granted, completed, reclaimed }, off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_complete_lifecycle() {
        let mut t = LeaseTable::new();
        let id = t.grant(3, 10, 20, 100);
        let row = Lease { id, owner: 3, lo: 10, hi: 20, granted_ns: 100 };
        assert_eq!(t.get(id), Some(&row));
        assert_eq!(t.active(Some(3)).count(), 1);
        assert_eq!(t.active(Some(4)).count(), 0);
        assert_eq!(t.complete(id), Ok(row));
        assert_eq!(t.get(id), None, "the row is dropped at settlement");
        assert_eq!(t.active(None).count(), 0);
        assert_eq!(t.counts(), (1, 1, 0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reclaim_returns_range_once() {
        let mut t = LeaseTable::new();
        let id = t.grant(0, 5, 9, 0);
        let l = t.reclaim(id).unwrap();
        assert_eq!((l.owner, l.lo, l.hi), (0, 5, 9));
        // Double reclaim is the bug this table exists to catch.
        assert_eq!(t.reclaim(id), Err(LeaseError::Settled(id)));
        // And the dead owner cannot complete it post-mortem either.
        assert_eq!(t.complete(id), Err(LeaseError::Settled(id)));
        assert_eq!(t.counts(), (1, 0, 1));
    }

    #[test]
    fn completed_lease_cannot_be_reclaimed() {
        let mut t = LeaseTable::new();
        let id = t.grant(1, 0, 4, 0);
        t.complete(id).unwrap();
        assert_eq!(t.reclaim(id), Err(LeaseError::Settled(id)));
        assert_eq!(t.complete(id), Err(LeaseError::Settled(id)));
        assert_eq!(t.counts(), (1, 1, 0));
    }

    #[test]
    fn unknown_ids_rejected() {
        let mut t = LeaseTable::new();
        assert_eq!(t.complete(7), Err(LeaseError::Unknown(7)));
        assert_eq!(t.reclaim(7), Err(LeaseError::Unknown(7)));
        t.grant(0, 0, 1, 0);
        assert_eq!(t.complete(1), Err(LeaseError::Unknown(1)), "the next id is not granted yet");
        assert_eq!(t.counts(), (1, 0, 0));
    }

    fn image(t: &LeaseTable) -> Vec<u8> {
        let mut bytes = Vec::new();
        t.serialize_into(&mut bytes);
        bytes
    }

    /// Three grants, the first completed and the second reclaimed.
    fn one_live_of_three() -> LeaseTable {
        let mut t = LeaseTable::new();
        let a = t.grant(0, 0, 10, 5);
        let b = t.grant(1, 10, 25, 6);
        t.grant(2, 25, 30, 7);
        t.complete(a).unwrap();
        t.reclaim(b).unwrap();
        t
    }

    #[test]
    fn serialization_roundtrip() {
        let t = one_live_of_three();
        let mut bytes = vec![0xAA]; // prefix noise: serialization must append
        t.serialize_into(&mut bytes);
        assert_eq!(bytes.len(), 1 + IMAGE_HEADER + IMAGE_ROW, "settled leases cost no bytes");
        bytes.extend_from_slice(b"suffix");
        let (back, used) = LeaseTable::deserialize(&bytes[1..]).unwrap();
        assert_eq!(used, bytes.len() - 1 - 6);
        assert_eq!(back, t);
        assert_eq!(back.counts(), (3, 1, 1));
        assert_eq!(back.active(None).map(|l| l.id).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn deserialize_rejects_truncation_and_absurd_counts() {
        let bytes = image(&one_live_of_three());
        for cut in 0..bytes.len() {
            assert!(LeaseTable::deserialize(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        // A live count with no bytes behind it must not allocate/loop.
        let mut absurd = Vec::new();
        for v in [u64::MAX, 0, 0, u64::MAX] {
            absurd.extend_from_slice(&v.to_le_bytes());
        }
        assert!(LeaseTable::deserialize(&absurd).is_none());
    }

    #[test]
    fn deserialize_rejects_inconsistent_ledgers() {
        let mut t = LeaseTable::new();
        for i in 0..4 {
            t.grant(i, u64::from(i), u64::from(i) + 1, 0);
        }
        t.complete(0).unwrap();
        let good = image(&t); // granted 4, completed 1, live ids 1, 2, 3
        assert!(LeaseTable::deserialize(&good).is_some());
        let patched = |at: usize, v: u64| {
            let mut bytes = good.clone();
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
            LeaseTable::deserialize(&bytes)
        };
        let row = |i: usize| IMAGE_HEADER + i * IMAGE_ROW;
        assert!(patched(0, 5).is_none(), "granted != completed + reclaimed + live");
        assert!(patched(8, 2).is_none(), "completed does not add up");
        assert!(patched(16, u64::MAX).is_none(), "counter sum overflows");
        assert!(patched(row(1), 1).is_none(), "duplicate id");
        assert!(patched(row(2), 1).is_none(), "descending ids");
        assert!(patched(row(2), 4).is_none(), "live id not below granted");
        assert!(patched(row(0) + 8 + 4 + 8, 1).is_none(), "empty range hi == lo");
    }

    #[test]
    fn errors_render() {
        assert!(LeaseError::Settled(3).to_string().contains("already settled"));
        assert!(LeaseError::Unknown(9).to_string().contains('9'));
    }
}
