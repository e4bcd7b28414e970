//! Happens-before race detection over one window's access log.
//!
//! Classic vector-clock detection adapted to MPI RMA:
//!
//! * each origin rank carries a clock, advanced on synchronisation;
//! * window locks are sync objects — acquiring joins the lock's clock,
//!   releasing publishes the holder's clock into it (`lock_all` /
//!   `unlock_all` do this for every target's lock);
//! * an RMA atomic is a sync object *per displacement*: atomics on one
//!   slot are totally ordered (`MPI_Fetch_and_op` semantics), so each
//!   joins the slot clock and republishes;
//! * a barrier joins every rank's clock. Because `mpisim` stamps a
//!   rank's barrier record after the real barrier returns, every
//!   participant's pre-barrier records precede the round's first
//!   barrier record in the log — so the detector performs the collective
//!   join exactly when that first record arrives;
//! * two accesses to the same (target, displacement) conflict when at
//!   least one writes and they are not both atomics; unordered
//!   conflicting accesses are reported as [`ViolationKind::DataRace`]
//!   (a write-write pair is the queue-counter *lost update*).
//!
//! Shared locks are modelled like exclusive ones (join on acquire,
//! publish on release), which over-synchronises concurrent shared
//! holders; the repo's protocols only run atomics under shared epochs,
//! so no real race is masked.

use crate::report::{Violation, ViolationKind};
use crate::vc::VectorClock;
use mpisim::{RmaEvent, RmaRecord};
use std::collections::HashMap;

/// One recorded access to a slot, reduced to the FastTrack epoch test:
/// it happens-before a later access by rank `r` iff `clock <=
/// C_r[rank]`.
#[derive(Clone, Copy, Debug)]
struct Access {
    /// The accessing rank's own clock component at access time.
    clock: u64,
    /// Log sequence of the access (for reporting).
    seq: u64,
    /// Issued by an RMA atomic (coherent against other atomics).
    atomic: bool,
}

#[derive(Default)]
struct Detector {
    clocks: Vec<VectorClock>,
    lock_vc: HashMap<u32, VectorClock>,
    slot_vc: HashMap<(u32, usize), VectorClock>,
    /// Per slot: each rank's latest write / read.
    writes: HashMap<(u32, usize), HashMap<u32, Access>>,
    reads: HashMap<(u32, usize), HashMap<u32, Access>>,
    /// Barrier bookkeeping: per-rank rounds recorded, rounds joined.
    barrier_counts: Vec<u64>,
    rounds_done: u64,
    comm_size: usize,
}

impl Detector {
    fn ensure_rank(&mut self, r: u32) {
        let need = (r as usize + 1).max(self.comm_size);
        while self.clocks.len() < need {
            // Each rank's own component starts at 1, so an access by a
            // rank nobody has synchronised with yet tests as unordered
            // (a fresh clock knows 0 of everyone).
            let i = self.clocks.len();
            let mut c = VectorClock::new();
            c.tick(i);
            self.clocks.push(c);
            self.barrier_counts.push(0);
        }
    }

    fn ordered(&self, a: &Access, a_rank: u32, current_rank: u32) -> bool {
        self.clocks[current_rank as usize].get(a_rank as usize) >= a.clock
    }

    fn access(&self, rank: u32, seq: u64, atomic: bool) -> Access {
        Access { clock: self.clocks[rank as usize].get(rank as usize), seq, atomic }
    }

    /// Report the first conflicting unordered prior access to `slot`,
    /// if any. `is_write` / `atomic` describe the current access.
    fn find_race(
        &self,
        slot: (u32, usize),
        rank: u32,
        is_write: bool,
        atomic: bool,
    ) -> Option<(u32, Access, &'static str)> {
        // Any unordered prior *write* by another rank conflicts (unless
        // both sides are atomics).
        if let Some(ws) = self.writes.get(&slot) {
            for (&r2, a) in ws {
                if r2 != rank && !(atomic && a.atomic) && !self.ordered(a, r2, rank) {
                    let label = if is_write { "write-write (lost update)" } else { "write-read" };
                    return Some((r2, *a, label));
                }
            }
        }
        // A write additionally conflicts with unordered prior reads.
        if is_write {
            if let Some(rs) = self.reads.get(&slot) {
                for (&r2, a) in rs {
                    if r2 != rank && !(atomic && a.atomic) && !self.ordered(a, r2, rank) {
                        return Some((r2, *a, "read-write"));
                    }
                }
            }
        }
        None
    }
}

/// Run race detection over one window's records (same `win`, sorted by
/// `seq`), appending violations.
pub fn check_races(records: &[RmaRecord], out: &mut Vec<Violation>) {
    let mut d = Detector::default();

    for r in records {
        d.ensure_rank(r.rank);
        let rank = r.rank as usize;
        match r.event {
            RmaEvent::Attach { comm_size, .. } => {
                d.comm_size = d.comm_size.max(comm_size as usize);
                d.ensure_rank(comm_size.saturating_sub(1));
            }
            RmaEvent::Lock { target, .. } => {
                if let Some(l) = d.lock_vc.get(&target) {
                    let l = l.clone();
                    d.clocks[rank].join(&l);
                }
            }
            RmaEvent::Unlock { target, .. } => {
                let c = d.clocks[rank].clone();
                d.lock_vc.entry(target).or_default().join(&c);
                d.clocks[rank].tick(rank);
            }
            RmaEvent::LockAll => {
                for l in d.lock_vc.values() {
                    // Joining every target's lock mirrors lock_all
                    // acquiring them all.
                    let l = l.clone();
                    d.clocks[rank].join(&l);
                }
            }
            RmaEvent::UnlockAll => {
                let c = d.clocks[rank].clone();
                for t in 0..d.comm_size as u32 {
                    d.lock_vc.entry(t).or_default().join(&c);
                }
                d.clocks[rank].tick(rank);
            }
            RmaEvent::Barrier => {
                d.barrier_counts[rank] += 1;
                if d.barrier_counts[rank] == d.rounds_done + 1 {
                    // First record of a new round: every participant's
                    // pre-barrier history is already processed (their
                    // barrier records can only come later), so the
                    // collective join is exact here.
                    let mut joined = VectorClock::new();
                    for c in &d.clocks {
                        joined.join(c);
                    }
                    for (i, c) in d.clocks.iter_mut().enumerate() {
                        *c = joined.clone();
                        c.tick(i);
                    }
                    d.rounds_done += 1;
                }
            }
            RmaEvent::Sync | RmaEvent::Flush { .. } => {
                // Memory fences order this rank's own accesses (already
                // ordered by program order); no cross-rank edge.
            }
            RmaEvent::Get { target, disp, len } => {
                let mut reported = false;
                for dsp in disp..disp + len {
                    let slot = (target, dsp);
                    if !reported {
                        if let Some((r2, a, label)) = d.find_race(slot, r.rank, false, false) {
                            out.push(race(r, dsp, r2, a, label));
                            reported = true;
                        }
                    }
                    let acc = d.access(r.rank, r.seq, false);
                    d.reads.entry(slot).or_default().insert(r.rank, acc);
                }
            }
            RmaEvent::Put { target, disp, len } => {
                let mut reported = false;
                for dsp in disp..disp + len {
                    let slot = (target, dsp);
                    if !reported {
                        if let Some((r2, a, label)) = d.find_race(slot, r.rank, true, false) {
                            out.push(race(r, dsp, r2, a, label));
                            reported = true;
                        }
                    }
                    let acc = d.access(r.rank, r.seq, false);
                    d.writes.entry(slot).or_default().insert(r.rank, acc);
                }
            }
            RmaEvent::Atomic { target, disp, .. } => {
                let slot = (target, disp);
                // Acquire side: atomics on one slot are totally ordered.
                if let Some(s) = d.slot_vc.get(&slot) {
                    let s = s.clone();
                    d.clocks[rank].join(&s);
                }
                if let Some((r2, a, label)) = d.find_race(slot, r.rank, true, true) {
                    out.push(race(r, disp, r2, a, label));
                }
                let acc = d.access(r.rank, r.seq, true);
                d.writes.entry(slot).or_default().insert(r.rank, acc);
                d.reads.entry(slot).or_default().insert(r.rank, acc);
                // Release side: publish into the slot clock.
                let c = d.clocks[rank].clone();
                d.slot_vc.insert(slot, c);
                d.clocks[rank].tick(rank);
            }
        }
    }
}

fn race(r: &RmaRecord, disp: usize, other: u32, a: Access, label: &str) -> Violation {
    Violation {
        kind: ViolationKind::DataRace,
        win: r.win,
        rank: r.rank,
        seq: r.seq,
        detail: format!(
            "{label} race on disp {disp}: concurrent with rank {other}'s access @ seq {}",
            a.seq
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{AtomicOpKind, LockKind, RmaLog};

    fn check(log: &RmaLog) -> Vec<Violation> {
        let mut out = Vec::new();
        check_races(&log.records(), &mut out);
        out
    }

    fn attach(log: &RmaLog, ranks: u32) {
        for r in 0..ranks {
            log.push(0, r, RmaEvent::Attach { shared: false, comm_size: ranks });
        }
    }

    fn locked_rmw(log: &RmaLog, rank: u32, disp: usize) {
        log.push(0, rank, RmaEvent::Lock { kind: LockKind::Exclusive, target: 0 });
        log.push(0, rank, RmaEvent::Get { target: 0, disp, len: 1 });
        log.push(0, rank, RmaEvent::Put { target: 0, disp, len: 1 });
        log.push(0, rank, RmaEvent::Unlock { kind: LockKind::Exclusive, target: 0 });
    }

    #[test]
    fn lock_ordered_rmws_are_clean() {
        let log = RmaLog::new();
        attach(&log, 3);
        for round in 0..3 {
            for rank in 0..3 {
                locked_rmw(&log, (rank + round) % 3, 0);
            }
        }
        assert!(check(&log).is_empty());
    }

    #[test]
    fn unlocked_write_write_is_lost_update() {
        let log = RmaLog::new();
        attach(&log, 2);
        log.push(0, 0, RmaEvent::Put { target: 0, disp: 0, len: 1 });
        log.push(0, 1, RmaEvent::Put { target: 0, disp: 0, len: 1 });
        let v = check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::DataRace);
        assert!(v[0].detail.contains("lost update"), "{}", v[0].detail);
    }

    #[test]
    fn unlocked_read_vs_write_races() {
        let log = RmaLog::new();
        attach(&log, 2);
        log.push(0, 0, RmaEvent::Get { target: 0, disp: 2, len: 1 });
        log.push(0, 1, RmaEvent::Put { target: 0, disp: 2, len: 1 });
        let v = check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::DataRace);
    }

    #[test]
    fn disjoint_displacements_do_not_race() {
        let log = RmaLog::new();
        attach(&log, 2);
        log.push(0, 0, RmaEvent::Put { target: 0, disp: 0, len: 1 });
        log.push(0, 1, RmaEvent::Put { target: 0, disp: 1, len: 1 });
        assert!(check(&log).is_empty());
    }

    #[test]
    fn atomics_are_exempt_from_each_other() {
        let log = RmaLog::new();
        attach(&log, 4);
        for i in 0..12 {
            log.push(
                0,
                i % 4,
                RmaEvent::Atomic { target: 0, disp: 0, op: AtomicOpKind::FetchAndOp },
            );
        }
        assert!(check(&log).is_empty());
    }

    #[test]
    fn non_atomic_rmw_races_with_atomics() {
        let log = RmaLog::new();
        attach(&log, 2);
        // Rank 0 uses the atomic; rank 1 "optimises" it into a plain
        // get+put — the seeded-broken queue-head variant.
        log.push(0, 0, RmaEvent::Atomic { target: 0, disp: 0, op: AtomicOpKind::FetchAndOp });
        log.push(0, 1, RmaEvent::Get { target: 0, disp: 0, len: 1 });
        log.push(0, 1, RmaEvent::Put { target: 0, disp: 0, len: 1 });
        log.push(0, 0, RmaEvent::Atomic { target: 0, disp: 0, op: AtomicOpKind::FetchAndOp });
        let v = check(&log);
        assert!(!v.is_empty());
        assert!(v.iter().all(|v| v.kind == ViolationKind::DataRace));
    }

    /// A lock-free take on a node word: three atomic reads and a
    /// compare-and-swap, every rank inside its run-long `lock_all`.
    fn counter_take(log: &RmaLog, rank: u32, cas: bool) {
        for disp in [2, 0, 1] {
            log.push(0, rank, RmaEvent::Atomic { target: 0, disp, op: AtomicOpKind::FetchAndOp });
        }
        if cas {
            log.push(
                0,
                rank,
                RmaEvent::Atomic { target: 0, disp: 2, op: AtomicOpKind::CompareAndSwap },
            );
        } else {
            log.push(0, rank, RmaEvent::Get { target: 0, disp: 2, len: 1 });
            log.push(0, rank, RmaEvent::Put { target: 0, disp: 2, len: 1 });
        }
    }

    #[test]
    fn compare_and_swap_takes_under_lock_all_pass_every_rule() {
        let log = RmaLog::new();
        attach(&log, 2);
        for r in 0..2 {
            log.push(0, r, RmaEvent::LockAll);
        }
        for i in 0..6 {
            counter_take(&log, i % 2, true);
        }
        for r in 0..2 {
            log.push(0, r, RmaEvent::UnlockAll);
        }
        let report = crate::check(&log.records());
        assert!(report.violations.is_empty(), "{}", report.render());
    }

    #[test]
    fn compare_and_swap_as_get_and_put_races_with_atomics() {
        let log = RmaLog::new();
        attach(&log, 2);
        for r in 0..2 {
            log.push(0, r, RmaEvent::LockAll);
        }
        // Rank 1 "optimises" its CAS of the word into a plain get+put.
        counter_take(&log, 0, true);
        counter_take(&log, 1, false);
        counter_take(&log, 0, true);
        let v = check(&log);
        assert!(!v.is_empty());
        assert!(v.iter().all(|v| v.kind == ViolationKind::DataRace && v.detail.contains("disp 2")));
    }

    #[test]
    fn barrier_orders_pre_and_post_accesses() {
        let log = RmaLog::new();
        attach(&log, 2);
        log.push(0, 0, RmaEvent::Put { target: 0, disp: 0, len: 1 });
        log.push(0, 0, RmaEvent::Barrier);
        log.push(0, 1, RmaEvent::Barrier);
        log.push(0, 1, RmaEvent::Get { target: 0, disp: 0, len: 1 });
        assert!(check(&log).is_empty());
    }

    #[test]
    fn post_barrier_access_before_other_ranks_barrier_record_is_ordered() {
        // The stamping argument: rank 1's post-barrier get may appear in
        // the log *before* rank 0's barrier record of the same round —
        // the round join must already have happened at rank 1's record.
        let log = RmaLog::new();
        attach(&log, 2);
        log.push(0, 0, RmaEvent::Put { target: 0, disp: 0, len: 1 });
        log.push(0, 1, RmaEvent::Barrier);
        log.push(0, 1, RmaEvent::Get { target: 0, disp: 0, len: 1 });
        log.push(0, 0, RmaEvent::Barrier);
        assert!(check(&log).is_empty());
    }

    #[test]
    fn lock_all_epochs_order_against_exclusive() {
        let log = RmaLog::new();
        attach(&log, 2);
        log.push(0, 0, RmaEvent::Lock { kind: LockKind::Exclusive, target: 0 });
        log.push(0, 0, RmaEvent::Put { target: 0, disp: 0, len: 1 });
        log.push(0, 0, RmaEvent::Unlock { kind: LockKind::Exclusive, target: 0 });
        log.push(0, 1, RmaEvent::LockAll);
        log.push(0, 1, RmaEvent::Get { target: 0, disp: 0, len: 1 });
        log.push(0, 1, RmaEvent::UnlockAll);
        assert!(check(&log).is_empty());
    }
}
