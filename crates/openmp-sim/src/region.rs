//! Shared state of one worksharing region: a cursor all threads of the
//! team pull dispatch units from.
//!
//! OpenMP requires every thread of a team to encounter worksharing
//! constructs in the same order, so regions are identified by a
//! per-thread sequence number and looked up (or created by the first
//! arriver) in a team-wide registry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

pub(crate) struct Region {
    /// Next un-dispatched iteration (relative to the region's range).
    pub cursor: AtomicU64,
}

impl Region {
    fn new() -> Self {
        Self { cursor: AtomicU64::new(0) }
    }

    /// Claim `want` iterations from `len`; returns the claimed
    /// sub-range, or `None` when the cursor is exhausted. `want` is
    /// recomputed by the caller per attempt (guided).
    pub fn claim(&self, len: u64, want: impl Fn(u64) -> u64) -> Option<(u64, u64)> {
        loop {
            let cur = self.cursor.load(Ordering::SeqCst);
            if cur >= len {
                return None;
            }
            let take = want(len - cur).clamp(1, len - cur);
            if self
                .cursor
                .compare_exchange(cur, cur + take, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some((cur, cur + take));
            }
        }
    }
}

/// Team-wide registry mapping region sequence numbers to shared state.
#[derive(Default)]
pub(crate) struct RegionRegistry {
    /// Live regions by construct sequence number.
    pub regions: Mutex<HashMap<u64, Arc<Region>>>,
}

impl RegionRegistry {
    pub fn get(&self, seq: u64) -> Arc<Region> {
        let mut regions = self.regions.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(regions.entry(seq).or_insert_with(|| Arc::new(Region::new())))
    }

    /// Drop a finished region's state (called after its barrier, by the
    /// master) to keep the registry small.
    pub fn retire(&self, seq: u64) {
        self.regions.lock().unwrap_or_else(PoisonError::into_inner).remove(&seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_covers_range() {
        let r = Region::new();
        let mut total = 0;
        while let Some((lo, hi)) = r.claim(100, |rem| rem.min(7)) {
            total += hi - lo;
        }
        assert_eq!(total, 100);
        assert!(r.claim(100, |_| 1).is_none());
    }

    #[test]
    fn registry_shares_state() {
        let reg = RegionRegistry::default();
        let a = reg.get(3);
        let b = reg.get(3);
        a.cursor.store(5, Ordering::SeqCst);
        assert_eq!(b.cursor.load(Ordering::SeqCst), 5);
        reg.retire(3);
        let c = reg.get(3);
        assert_eq!(c.cursor.load(Ordering::SeqCst), 0);
    }
}
