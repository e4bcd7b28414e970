//! A FIFO ticket reader/writer lock with *manual* acquire/release (MPI's
//! `MPI_Win_lock` / `MPI_Win_unlock` are separate calls, so a guard-based
//! lock cannot model them) and contention accounting.
//!
//! Acquisition order is strict arrival order: every acquirer — shared or
//! exclusive — draws a ticket, and a ticket is admitted only after every
//! earlier ticket has been admitted. A reader queued behind a writer
//! waits for that writer even while other readers hold the lock, so a
//! writer can be bypassed by at most the readers that arrived before it.
//! Arrival order is pinned by `tests::{fifo_grant_order,
//! reader_queued_behind_writer_waits, trylock_cannot_barge_past_queue}`
//! and, across the park path, by `lock_handoff`'s
//! `parked_waiters_are_woken_in_ticket_order`.
//!
//! The lock is three atomic words — `next_ticket`, `now_serving` and a
//! `holders` word (an exclusive hold or a shared count) — so an
//! uncontended epoch is a handful of atomic operations and no system
//! call. A waiter goes through three phases: it spins with back-off
//! ([`SPIN_ROUNDS`]), then gives its CPU away with `yield_now`
//! ([`YIELD_ROUNDS`]), and only then parks on a condvar, which a release
//! touches only while somebody is parked. (With a condvar alone every
//! hand-off to a queued ticket was a futex wake, and two ranks sharing
//! one window on two CPUs took 20–60× as long as two ranks on two
//! windows.) An arrival that sees a waiter in the yield phase yields
//! once itself *before* it draws a ticket: see [`QueuedLock::acquire`].
//!
//! The contention counters matter: the paper attributes the poor
//! performance of `X+SS` under MPI+MPI to `MPI_Win_lock`'s *lock-polling*
//! implementation, where each blocked process repeatedly issues
//! lock-attempt messages (Zhao, Balaji & Gropp, ISPDC 2016). The
//! `cluster-sim` crate turns these counts into virtual time; here they
//! are exposed as statistics.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// `holders` value of an exclusive hold; any smaller non-zero value is a
/// count of shared holds.
const EXCLUSIVE: u32 = 1 << 31;

/// Failed checks a waiter answers by spinning, `2^round` pause
/// instructions each: 255 in all, 3.6 µs on the 2.1 GHz Xeon the budget
/// was measured on, where a hand-off between two running threads takes
/// 0.2–0.4 µs. Covers any holder that is running on another CPU.
const SPIN_ROUNDS: u32 = 8;

/// Further failed checks a waiter answers with `yield_now` before it
/// parks: 60 µs on an idle CPU (0.3 µs each), against 3 µs (median) to
/// 14 µs (p90) for a parked thread to come back from a futex wake — so
/// whoever woke a parked peer is still around when that peer releases,
/// and one park does not turn every later hand-off into a wake-up. On a
/// busy CPU every yield runs somebody else (the holder, if it was
/// preempted), and the budget lasts as long as they take.
const YIELD_ROUNDS: u32 = 200;

/// Cumulative lock statistics, updated atomically.
///
/// The number of successful acquisitions (shared + exclusive) is
/// *derived*, not counted: every admission advances the ticket at the
/// head of the queue by exactly one, so [`LockStats::snapshot`] reports
/// that word and an acquire that does not block writes no statistic.
#[derive(Debug, Default)]
pub struct LockStats {
    /// The ticket at the head of the queue: [`QueuedLock`]'s
    /// `now_serving` word, which doubles as the acquisition count.
    /// `next_ticket - now_serving` acquirers have drawn a ticket and are
    /// not admitted yet. Written by the lock alone, always `SeqCst`.
    now_serving: AtomicU64,
    /// Acquisitions that had to block at least once.
    pub contended: AtomicU64,
    /// Total failed admission checks: one per look at the lock that found
    /// it unavailable or an earlier ticket still queued — while spinning,
    /// after a wake-up, or in a failed `try_lock_exclusive`. A proxy for
    /// the number of lock-attempt polls an MPI implementation would
    /// send. A blocked acquire's first poll is counted at once (so a
    /// holder can see that somebody waits); the rest are added when it is
    /// admitted.
    pub polls: AtomicU64,
    /// Acquisitions that exhausted the spin budget and blocked on the
    /// condvar.
    pub parks: AtomicU64,
    /// Exclusive holds revoked from dead holders via
    /// [`QueuedLock::revoke_exclusive`] (lock repair after a
    /// crash-while-holding-lock).
    pub revocations: AtomicU64,
}

impl LockStats {
    /// Snapshot `(acquisitions, contended, polls)`. `acquisitions` is
    /// the number of tickets admitted so far — never behind a holder
    /// that is already inside its epoch, and non-decreasing from one
    /// snapshot to the next.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.now_serving.load(Ordering::Relaxed),
            self.contended.load(Ordering::Relaxed),
            self.polls.load(Ordering::Relaxed),
        )
    }
}

/// Manual-release reader/writer lock with strict FIFO admission and
/// contention statistics.
///
/// Every access to the lock words and to `parked` is `SeqCst`: a
/// releaser changes `holders` (or `now_serving`) and then reads
/// `parked`, a parker bumps `parked` and then reads those words, and one
/// of the two must see the other's write.
#[derive(Default)]
pub struct QueuedLock {
    /// Next ticket to hand to an arriving acquirer. The ticket at the
    /// head of the queue, `now_serving`, is the third lock word; it lives
    /// in `stats` because it is also the acquisition count.
    next_ticket: AtomicU64,
    /// [`EXCLUSIVE`], or the number of shared holds. Only the thread at
    /// the head of the queue adds a hold.
    holders: AtomicU32,
    /// Acquirers whose first admission check failed and that are not
    /// admitted yet, for [`QueuedLock::waiters`]. `SeqCst`, so that
    /// whoever reads a count also sees the tickets behind it as drawn.
    waiting: AtomicU32,
    /// Waiters in the yield phase. Only a hint to arrivals (it orders
    /// nothing), hence `Relaxed`.
    yielding: AtomicU32,
    /// Waiters inside the `park` critical section.
    parked: AtomicU32,
    park: Mutex<()>,
    cv: Condvar,
    stats: LockStats,
}

impl QueuedLock {
    /// New unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire exclusively, blocking until this caller reaches the head
    /// of the ticket queue *and* no holder remains. Returns the number
    /// of failed poll attempts — the caller's share of the lock-attempt
    /// traffic recorded in [`LockStats::polls`].
    pub fn lock_exclusive(&self) -> u64 {
        self.acquire(false).0
    }

    /// Acquire shared, blocking until this caller reaches the head of
    /// the ticket queue and no exclusive holder exists. Consecutive
    /// shared tickets admit each other in turn, so a batch of readers
    /// still overlaps — but a reader queued behind a writer waits for
    /// it. Returns the caller's failed poll attempts, as
    /// [`QueuedLock::lock_exclusive`] does.
    pub fn lock_shared(&self) -> u64 {
        self.acquire(true).0
    }

    /// Draw a ticket and wait to be admitted. Returns the failed polls
    /// and, when there were any, the instant the wait began — the clock
    /// is not read on an acquire that does not block.
    pub(crate) fn acquire(&self, shared: bool) -> (u64, Option<Instant>) {
        if self.yielding.load(Ordering::Relaxed) > 0 {
            // A yielding waiter has no CPU of its own, or it would have
            // been admitted while it was spinning. Lend it ours now,
            // while we hold no ticket: an arrival that queues up behind
            // that waiter stalls until the waiter is scheduled, and from
            // then on the two trade the CPU at every epoch (1 node × 2
            // ranks on one CPU: 17 s instead of 1 s).
            std::thread::yield_now();
        }
        let ticket = self.next_ticket.fetch_add(1, Ordering::SeqCst);
        let admissible = || {
            self.stats.now_serving.load(Ordering::SeqCst) == ticket && {
                let holders = self.holders.load(Ordering::SeqCst);
                if shared {
                    holders != EXCLUSIVE
                } else {
                    holders == 0
                }
            }
        };
        let mut waited = (0, None);
        if !admissible() {
            let since = Instant::now();
            waited = (self.wait(admissible), Some(since));
        }
        // At the head of the queue nobody else can add a hold, and the
        // holds that remain are compatible: the admission cannot fail.
        if shared {
            self.holders.fetch_add(1, Ordering::SeqCst);
        } else {
            self.holders.store(EXCLUSIVE, Ordering::SeqCst);
        }
        self.stats.now_serving.store(ticket + 1, Ordering::SeqCst);
        if shared {
            // The ticket behind us may be another reader that can now enter.
            self.wake_parked();
        }
        waited
    }

    /// Poll `admissible` until it holds — spinning, then yielding, then
    /// parked — and return the number of polls that failed, the one
    /// that sent the caller here included.
    fn wait(&self, admissible: impl Fn() -> bool) -> u64 {
        self.stats.contended.fetch_add(1, Ordering::Relaxed);
        self.stats.polls.fetch_add(1, Ordering::Relaxed);
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let polls = self.spin_then_park(admissible);
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        // Added in one go: a spinning waiter that counted every poll as
        // it made it would keep writing to the cache line the holder
        // needs for its release.
        self.stats.polls.fetch_add(polls - 1, Ordering::Relaxed);
        polls
    }

    fn spin_then_park(&self, admissible: impl Fn() -> bool) -> u64 {
        let mut polls = 1;
        for round in 0..SPIN_ROUNDS {
            for _ in 0..1u32 << round {
                std::hint::spin_loop();
            }
            if admissible() {
                return polls;
            }
            polls += 1;
        }
        self.yielding.fetch_add(1, Ordering::Relaxed);
        for _ in 0..YIELD_ROUNDS {
            std::thread::yield_now();
            if admissible() {
                self.yielding.fetch_sub(1, Ordering::Relaxed);
                return polls;
            }
            polls += 1;
        }
        self.yielding.fetch_sub(1, Ordering::Relaxed);
        self.stats.parks.fetch_add(1, Ordering::Relaxed);
        // The mutex guards no data, so a poisoned one is as good as new.
        let mut guard = self.park.lock().unwrap_or_else(PoisonError::into_inner);
        self.parked.fetch_add(1, Ordering::SeqCst);
        while !admissible() {
            polls += 1;
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
        polls
    }

    /// Wake the parked waiters, if any, after a change that may admit
    /// one of them.
    fn wake_parked(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            // A parker checks the lock words under this mutex, so the
            // notification cannot fall between its check and its wait.
            let _guard = self.park.lock().unwrap_or_else(PoisonError::into_inner);
            self.cv.notify_all();
        }
    }

    /// Release an exclusive hold. Returns `false` (and does nothing) if
    /// the lock is not exclusively held.
    pub fn unlock_exclusive(&self) -> bool {
        let released =
            self.holders.compare_exchange(EXCLUSIVE, 0, Ordering::SeqCst, Ordering::SeqCst).is_ok();
        if released {
            self.wake_parked();
        }
        released
    }

    /// Forcibly release an exclusive hold on behalf of a *dead* holder
    /// (lock repair). The ticket queue is untouched: the next queued
    /// acquirer is admitted normally, preserving FIFO order for the
    /// survivors. Returns `false` if no exclusive hold exists. Counts
    /// into [`LockStats::revocations`].
    pub fn revoke_exclusive(&self) -> bool {
        let revoked = self.unlock_exclusive();
        if revoked {
            self.stats.revocations.fetch_add(1, Ordering::Relaxed);
        }
        revoked
    }

    /// Release one shared hold. Returns `false` if no shared hold exists.
    pub fn unlock_shared(&self) -> bool {
        let before = self.holders.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |holders| {
            (holders != EXCLUSIVE && holders != 0).then(|| holders - 1)
        });
        if before == Ok(1) {
            // The last reader left: a queued writer can enter.
            self.wake_parked();
        }
        before.is_ok()
    }

    /// Try to acquire exclusively without blocking. Fails if the lock is
    /// held *or* any acquirer is queued ahead — a trylock may not barge
    /// past the ticket line.
    pub fn try_lock_exclusive(&self) -> bool {
        // Every ticket before `head` has been admitted. If all their
        // holds are gone too, the lock stays free until ticket `head` is
        // admitted — so drawing exactly that ticket admits us at once,
        // and losing the draw means somebody is queued ahead.
        let head = self.stats.now_serving.load(Ordering::SeqCst);
        let won = self.holders.load(Ordering::SeqCst) == 0
            && self
                .next_ticket
                .compare_exchange(head, head + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
        if !won {
            self.stats.polls.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.holders.store(EXCLUSIVE, Ordering::SeqCst);
        self.stats.now_serving.store(head + 1, Ordering::SeqCst);
        true
    }

    /// Acquirers currently queued: ticket drawn, found the lock
    /// unavailable or an earlier ticket ahead, not yet admitted.
    pub fn waiters(&self) -> u32 {
        self.waiting.load(Ordering::SeqCst)
    }

    /// Contention statistics.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn exclusive_excludes() {
        let lock = Arc::new(QueuedLock::new());
        lock.lock_exclusive();
        assert!(!lock.try_lock_exclusive());
        assert!(lock.unlock_exclusive());
        assert!(lock.try_lock_exclusive());
        assert!(lock.unlock_exclusive());
    }

    #[test]
    fn shared_allows_readers_blocks_writer() {
        let lock = QueuedLock::new();
        lock.lock_shared();
        lock.lock_shared();
        assert!(!lock.try_lock_exclusive());
        assert!(lock.unlock_shared());
        assert!(lock.unlock_shared());
        assert!(lock.try_lock_exclusive());
    }

    #[test]
    fn unlock_without_lock_rejected() {
        let lock = QueuedLock::new();
        assert!(!lock.unlock_exclusive());
        assert!(!lock.unlock_shared());
    }

    #[test]
    fn revoke_frees_dead_hold_and_counts() {
        let lock = Arc::new(QueuedLock::new());
        // No hold: nothing to revoke.
        assert!(!lock.revoke_exclusive());
        lock.lock_exclusive();
        // A peer revokes the (dead) holder's lock; the queue drains
        // normally afterwards.
        assert!(lock.revoke_exclusive());
        assert!(lock.try_lock_exclusive());
        assert!(lock.unlock_exclusive());
        assert_eq!(lock.stats().revocations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn contention_counted() {
        let lock = Arc::new(QueuedLock::new());
        lock.lock_exclusive();
        let l2 = Arc::clone(&lock);
        let t = thread::spawn(move || {
            l2.lock_exclusive();
            l2.unlock_exclusive();
        });
        // Give the second thread a chance to block.
        while lock.waiters() == 0 {
            thread::yield_now();
        }
        lock.unlock_exclusive();
        t.join().unwrap();
        let (acq, contended, polls) = lock.stats().snapshot();
        assert_eq!(acq, 2);
        assert!(contended >= 1);
        assert!(polls >= 1);
    }

    #[test]
    fn fifo_grant_order() {
        // Writers queued one at a time must acquire in arrival order.
        let lock = Arc::new(QueuedLock::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        lock.lock_exclusive();
        let mut handles = Vec::new();
        for id in 0..4u32 {
            let l = Arc::clone(&lock);
            let o = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                l.lock_exclusive();
                o.lock().unwrap().push(id);
                l.unlock_exclusive();
            }));
            // Wait until this waiter has drawn its ticket before
            // spawning the next, pinning the arrival order.
            while lock.waiters() < id + 1 {
                thread::yield_now();
            }
        }
        lock.unlock_exclusive();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn trylock_cannot_barge_past_queue() {
        let lock = Arc::new(QueuedLock::new());
        lock.lock_exclusive();
        let l2 = Arc::clone(&lock);
        // The writer holds the lock, once granted, until the trylock has
        // been tried: otherwise it may take and release it first, and the
        // trylock would rightly succeed on a free lock.
        let (tried, wait) = std::sync::mpsc::channel::<()>();
        let t = thread::spawn(move || {
            l2.lock_exclusive();
            wait.recv().unwrap();
            l2.unlock_exclusive();
        });
        while lock.waiters() == 0 {
            thread::yield_now();
        }
        // The queued writer is ahead of us even the instant we release:
        // the trylock must not jump the line.
        lock.unlock_exclusive();
        assert!(!lock.try_lock_exclusive());
        tried.send(()).unwrap();
        t.join().unwrap();
        // Queue drained: now it succeeds.
        lock.lock_exclusive();
        assert!(lock.unlock_exclusive());
    }

    #[test]
    fn reader_queued_behind_writer_waits() {
        // r1 holds shared; w queued; r2 arrives after w. FIFO means r2
        // must not overlap with r1 — it enters only after w finishes.
        let lock = Arc::new(QueuedLock::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        lock.lock_shared();

        let (lw, ow) = (Arc::clone(&lock), Arc::clone(&order));
        let w = thread::spawn(move || {
            lw.lock_exclusive();
            ow.lock().unwrap().push("w");
            lw.unlock_exclusive();
        });
        while lock.waiters() == 0 {
            thread::yield_now();
        }

        let (lr, or) = (Arc::clone(&lock), Arc::clone(&order));
        let r2 = thread::spawn(move || {
            lr.lock_shared();
            or.lock().unwrap().push("r2");
            lr.unlock_shared();
        });
        while lock.waiters() < 2 {
            thread::yield_now();
        }

        lock.unlock_shared();
        w.join().unwrap();
        r2.join().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["w", "r2"]);
    }

    #[test]
    fn mutual_exclusion_under_stress() {
        let lock = Arc::new(QueuedLock::new());
        let counter = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..200 {
                    lock.lock_exclusive();
                    // Non-atomic read-modify-write protected by our lock.
                    let v = *counter.lock().unwrap();
                    *counter.lock().unwrap() = v + 1;
                    lock.unlock_exclusive();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock().unwrap(), 8 * 200);
    }
}
