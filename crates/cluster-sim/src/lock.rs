//! The `MPI_Win_lock` contention model.
//!
//! Zhao, Balaji & Gropp (ISPDC 2016) describe the lock-polling scheme
//! most MPI one-sided implementations use for passive-target locks: a
//! blocked origin repeatedly sends lock-attempt messages to the target
//! until the lock is granted. The paper under reproduction attributes
//! the poor `X+SS` performance of its MPI+MPI approach to exactly this:
//! *"the number of lock-attempt messages increases when multiple
//! processes try to acquire the same lock at the same time, and more
//! overhead is introduced."*
//!
//! [`ContendedLock`] models this: each acquisition costs a base hold
//! time plus a penalty proportional to the number of requests already
//! queued when it arrives — the extra lock-attempt traffic every waiter
//! injects into the target.

use crate::time::Time;

/// Result of one lock acquisition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockGrant {
    /// When the lock was granted (critical section begins).
    pub start: Time,
    /// When the lock was released (grant + hold + penalties).
    pub end: Time,
    /// Requests that were queued ahead of this one on arrival.
    pub queued_ahead: u64,
}

/// FCFS exclusive lock with a per-waiter polling penalty.
#[derive(Clone, Debug)]
pub struct ContendedLock {
    /// Extra service time added per request queued ahead of an
    /// acquisition (models lock-attempt message storms).
    pub poll_penalty: Time,
    free_at: Time,
    /// Ends of recent grants, pruned lazily; used to compute the queue
    /// depth seen by a new arrival.
    recent: std::collections::VecDeque<Time>,
    polls: u64,
    total_penalty: Time,
    revocations: u64,
}

impl ContendedLock {
    /// New lock with the given per-waiter polling penalty.
    pub fn new(poll_penalty: Time) -> Self {
        Self {
            poll_penalty,
            free_at: 0,
            recent: std::collections::VecDeque::new(),
            polls: 0,
            total_penalty: 0,
            revocations: 0,
        }
    }

    /// Acquire at `arrive`, holding the lock for `hold` (the critical
    /// section: the queue update the paper performs under
    /// `MPI_Win_lock`). Returns the grant interval including penalties.
    pub fn acquire(&mut self, arrive: Time, hold: Time) -> LockGrant {
        // Queue depth = earlier grants still unfinished when we arrive.
        while let Some(&end) = self.recent.front() {
            if end <= arrive {
                self.recent.pop_front();
            } else {
                break;
            }
        }
        let queued_ahead = self.recent.len() as u64;
        let penalty = self.poll_penalty * queued_ahead;
        let start = arrive.max(self.free_at);
        let end = start + hold + penalty;
        self.free_at = end;
        self.recent.push_back(end);
        self.polls += queued_ahead;
        self.total_penalty += penalty;
        LockGrant { start, end, queued_ahead }
    }

    /// Total failed lock-poll attempts: the sum of queue depths seen by
    /// arriving acquisitions — each request queued ahead of an arrival
    /// corresponds to one more round of lock-attempt messages the
    /// arrival must send before being granted.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Cumulative polling penalty added across all acquisitions.
    pub fn total_penalty(&self) -> Time {
        self.total_penalty
    }

    /// When the lock next becomes free.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// A holder died inside its critical section: the lock stays held
    /// (nobody releases it) until a survivor's bounded-grant timeout
    /// fires and revokes it at `until`. Extends the current grant to
    /// `until` — acquisitions arriving in between queue behind the
    /// corpse exactly as real `MPI_Win_lock` pollers would — and counts
    /// one revocation.
    pub fn seize_until(&mut self, until: Time) {
        if until > self.free_at {
            if let Some(back) = self.recent.back_mut() {
                *back = until;
            } else {
                self.recent.push_back(until);
            }
            self.free_at = until;
        }
        self.revocations += 1;
    }

    /// Grants revoked from dead holders by [`ContendedLock::seize_until`].
    pub fn revocations(&self) -> u64 {
        self.revocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_acquire_costs_base_hold() {
        let mut l = ContendedLock::new(100);
        let g = l.acquire(1000, 50);
        assert_eq!(g, LockGrant { start: 1000, end: 1050, queued_ahead: 0 });
        assert_eq!(l.polls(), 0);
    }

    #[test]
    fn waiters_pay_polling_penalty() {
        let mut l = ContendedLock::new(100);
        l.acquire(0, 50); // holds [0, 50)
        let g1 = l.acquire(10, 50); // 1 ahead -> +100
        assert_eq!(g1.queued_ahead, 1);
        assert_eq!(g1.start, 50);
        assert_eq!(g1.end, 200);
        let g2 = l.acquire(20, 50); // 2 ahead -> +200
        assert_eq!(g2.queued_ahead, 2);
        assert_eq!(g2.end, 200 + 50 + 200);
        assert_eq!(l.polls(), 3);
        assert_eq!(l.total_penalty(), 300);
    }

    #[test]
    fn polls_counted_even_without_penalty() {
        // With the polling penalty ablated away the *count* of failed
        // poll attempts must still be observable.
        let mut l = ContendedLock::new(0);
        l.acquire(0, 50);
        l.acquire(0, 50); // 1 ahead
        l.acquire(0, 50); // 2 ahead
        assert_eq!(l.polls(), 3);
        assert_eq!(l.total_penalty(), 0);
    }

    #[test]
    fn storm_cost_grows_superlinearly() {
        // P simultaneous requesters: total completion grows ~P^2 with
        // polling, ~P without. This is the X+SS failure mode.
        let finish = |penalty: Time, p: u64| {
            let mut l = ContendedLock::new(penalty);
            (0..p).map(|_| l.acquire(0, 50).end).max().unwrap()
        };
        let no_poll_8 = finish(0, 8);
        let poll_8 = finish(100, 8);
        let no_poll_16 = finish(0, 16);
        let poll_16 = finish(100, 16);
        assert_eq!(no_poll_8, 8 * 50);
        assert!(poll_8 > no_poll_8);
        // Doubling P doubles the no-poll time but more than doubles the
        // polling time.
        assert_eq!(no_poll_16 / no_poll_8, 2);
        assert!(poll_16 > 2 * poll_8);
    }

    #[test]
    fn seized_lock_queues_arrivals_until_revocation() {
        let mut l = ContendedLock::new(0);
        // Holder acquires at 0 and dies in its critical section; the
        // survivor's bounded-grant timeout revokes the lock at 500.
        let g = l.acquire(0, 50);
        assert_eq!(g.end, 50);
        l.seize_until(500);
        assert_eq!(l.free_at(), 500);
        assert_eq!(l.revocations(), 1);
        // An arrival during the dead hold waits out the seizure.
        let g2 = l.acquire(100, 50);
        assert_eq!(g2.start, 500);
        assert_eq!(g2.queued_ahead, 1);
        // After repair the lock behaves normally again.
        let g3 = l.acquire(1000, 50);
        assert_eq!(g3, LockGrant { start: 1000, end: 1050, queued_ahead: 0 });
    }

    #[test]
    fn seize_on_idle_lock_blocks_until_deadline() {
        let mut l = ContendedLock::new(0);
        l.seize_until(300);
        let g = l.acquire(10, 5);
        assert_eq!(g.start, 300);
    }

    #[test]
    fn lock_frees_up_after_quiet_period() {
        let mut l = ContendedLock::new(100);
        l.acquire(0, 50);
        let g = l.acquire(1000, 50);
        assert_eq!(g.queued_ahead, 0);
        assert_eq!(g.start, 1000);
    }
}
