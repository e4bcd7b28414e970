//! Deterministic, seeded fault plans.
//!
//! A [`FaultPlan`] is pure data: a list of [`Fault`]s plus the
//! [`RecoveryParams`] the survivors use to detect and repair them.
//! Executors *query* the plan (`crash_at`, `straggle_factor`, ...);
//! all nondeterminism lives in [`FaultPlan::seeded`], which expands a
//! `u64` seed into a concrete plan with splitmix64 — the same run with
//! the same seed always fails the same way.

use cluster_sim::Time;

/// Tunables for failure detection and repair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryParams {
    /// Virtual-time delay between a failure and its detection by a
    /// survivor (heartbeat staleness bound). Expired leases are
    /// reclaimed this long after the owner's death.
    pub lease_timeout_ns: Time,
    /// Bounded-grant timeout for the node-window lock: if a grant is
    /// not released within this bound the holder is presumed dead and
    /// the FIFO ticket lock is revoked/repaired.
    pub lock_grant_timeout_ns: Time,
    /// Real-thread executors have no virtual clock: a lock holder is
    /// presumed dead after this many consecutive failed `try_lock`
    /// attempts, if the node communicator also marks it failed.
    pub detect_polls: u32,
}

impl Default for RecoveryParams {
    fn default() -> Self {
        Self { lease_timeout_ns: 50_000, lock_grant_timeout_ns: 25_000, detect_polls: 64 }
    }
}

/// One injected failure mode for one rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The rank dies. Virtual-time executors kill it at the first
    /// protocol step at or after `at_ns` (whatever it was doing —
    /// computing a sub-chunk, fetching from the global queue, carrying
    /// a chunk to deposit — is lost). Real-thread executors kill it
    /// right after it *takes* its `after_sub_chunks`-th sub-chunk,
    /// before executing it.
    Crash {
        /// Virtual-time trigger.
        at_ns: Time,
        /// Real-thread trigger: die after taking this many sub-chunks.
        after_sub_chunks: u32,
    },
    /// The rank dies inside the node-window critical section, still
    /// holding the exclusive lock. Triggered at the first lock
    /// acquisition at or after `at_ns` (sim) / after completing
    /// `after_sub_chunks` sub-chunks (live).
    CrashHoldingLock {
        /// Virtual-time trigger (first lock grant at/after this).
        at_ns: Time,
        /// Real-thread trigger.
        after_sub_chunks: u32,
    },
    /// Real-thread MPI+MPI: the rank wins the refiller role, performs
    /// the global fetch, publishes the fetched chunk to its lease
    /// slots, and dies before depositing it. (The virtual-time
    /// executors cover this role via `Crash` timing alone.)
    CrashAsRefiller {
        /// Die at the `after_global_fetches`-th global fetch (1-based).
        after_global_fetches: u32,
    },
    /// Straggler: the rank's compute cost is multiplied by `factor`
    /// from `from_ns` on (live executors apply it from the start).
    Straggle {
        /// Slowdown multiplier (≥ 1.0).
        factor: f64,
        /// Virtual time the slowdown begins.
        from_ns: Time,
    },
    /// Every message/RMA request this rank issues at or after `from_ns`
    /// takes `extra_ns` longer (virtual-time executors only).
    MessageDelay {
        /// Added one-way latency.
        extra_ns: Time,
        /// Virtual time the delay begins.
        from_ns: Time,
    },
    /// The first message this rank issues at or after `at_ns` is lost.
    /// The protocol survives by timeout-and-retry: the issuer re-sends
    /// after [`RecoveryParams::lease_timeout_ns`].
    MessageDrop {
        /// Virtual time after which the next message is dropped.
        at_ns: Time,
    },
}

/// A [`FaultKind`] bound to a global rank (worker index).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fault {
    /// Global worker/rank index the fault applies to.
    pub rank: u32,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic set of faults plus the recovery tunables.
///
/// The default plan is empty (`is_active() == false`); executors must
/// behave bit-identically to their fault-free selves under it.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Detection/repair tunables used by survivors.
    pub recovery: RecoveryParams,
    faults: Vec<Fault>,
}

/// splitmix64 — the same tiny deterministic generator the executors use
/// for jitter; good enough to scatter fault choices from a seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty (fault-free) plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when at least one fault is injected.
    pub fn is_active(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Builder: add one fault.
    #[must_use]
    pub fn with(mut self, rank: u32, kind: FaultKind) -> Self {
        self.faults.push(Fault { rank, kind });
        self
    }

    /// Convenience: a single plain crash.
    pub fn crash(rank: u32, at_ns: Time) -> Self {
        Self::none().with(rank, FaultKind::Crash { at_ns, after_sub_chunks: 1 })
    }

    /// Convenience: a single straggler active from t=0.
    pub fn straggler(rank: u32, factor: f64) -> Self {
        Self::none().with(rank, FaultKind::Straggle { factor, from_ns: 0 })
    }

    /// Expand `seed` into a concrete plan for a cluster of `ranks`
    /// workers: always one crash (plain or holding-lock, chosen by the
    /// seed), plus — each with seed-dependent probability — one
    /// straggler and one message delay/drop on *other* ranks. All
    /// choices are pure functions of `seed`, so chaos runs replay.
    pub fn seeded(seed: u64, ranks: u32) -> Self {
        assert!(ranks > 0);
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xc0de;
        let mut plan = Self::none();
        let crash_rank = (splitmix64(&mut s) % u64::from(ranks)) as u32;
        // Crash somewhere in the early-to-mid run: the queues still
        // hold work, so there is something to lose and reclaim.
        let at_ns = 20_000 + splitmix64(&mut s) % 180_000;
        let after_sub_chunks = 1 + (splitmix64(&mut s) % 4) as u32;
        let kind = if splitmix64(&mut s) % 3 == 0 {
            FaultKind::CrashHoldingLock { at_ns, after_sub_chunks }
        } else {
            FaultKind::Crash { at_ns, after_sub_chunks }
        };
        plan = plan.with(crash_rank, kind);
        if ranks > 1 && splitmix64(&mut s) % 2 == 0 {
            let mut r = (splitmix64(&mut s) % u64::from(ranks)) as u32;
            if r == crash_rank {
                r = (r + 1) % ranks;
            }
            let factor = 2.0 + (splitmix64(&mut s) % 5) as f64;
            plan = plan.with(r, FaultKind::Straggle { factor, from_ns: 0 });
        }
        if ranks > 1 && splitmix64(&mut s) % 3 == 0 {
            let mut r = (splitmix64(&mut s) % u64::from(ranks)) as u32;
            if r == crash_rank {
                r = (r + 1) % ranks;
            }
            let at = splitmix64(&mut s) % 100_000;
            let kind = if splitmix64(&mut s) % 2 == 0 {
                FaultKind::MessageDrop { at_ns: at }
            } else {
                FaultKind::MessageDelay { extra_ns: 2_000, from_ns: at }
            };
            plan = plan.with(r, kind);
        }
        plan
    }

    /// All faults in the plan.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Earliest plain-crash time for `rank`, if any.
    pub fn crash_at(&self, rank: u32) -> Option<Time> {
        self.faults
            .iter()
            .filter(|f| f.rank == rank)
            .filter_map(|f| match f.kind {
                FaultKind::Crash { at_ns, .. } => Some(at_ns),
                _ => None,
            })
            .min()
    }

    /// Earliest crash-while-holding-lock time for `rank`, if any.
    pub fn crash_holding_lock_at(&self, rank: u32) -> Option<Time> {
        self.faults
            .iter()
            .filter(|f| f.rank == rank)
            .filter_map(|f| match f.kind {
                FaultKind::CrashHoldingLock { at_ns, .. } => Some(at_ns),
                _ => None,
            })
            .min()
    }

    /// Real-thread plain-crash trigger: die after taking this many
    /// sub-chunks.
    pub fn crash_after_sub_chunks(&self, rank: u32) -> Option<u32> {
        self.faults
            .iter()
            .filter(|f| f.rank == rank)
            .filter_map(|f| match f.kind {
                FaultKind::Crash { after_sub_chunks, .. } => Some(after_sub_chunks),
                _ => None,
            })
            .min()
    }

    /// Real-thread crash-holding-lock trigger.
    pub fn crash_holding_lock_after(&self, rank: u32) -> Option<u32> {
        self.faults
            .iter()
            .filter(|f| f.rank == rank)
            .filter_map(|f| match f.kind {
                FaultKind::CrashHoldingLock { after_sub_chunks, .. } => Some(after_sub_chunks),
                _ => None,
            })
            .min()
    }

    /// Real-thread crash-as-refiller trigger (1-based fetch count).
    pub fn crash_as_refiller_after(&self, rank: u32) -> Option<u32> {
        self.faults
            .iter()
            .filter(|f| f.rank == rank)
            .filter_map(|f| match f.kind {
                FaultKind::CrashAsRefiller { after_global_fetches } => Some(after_global_fetches),
                _ => None,
            })
            .min()
    }

    /// True if `rank` dies at some point under this plan (any crash
    /// variant).
    pub fn crashes(&self, rank: u32) -> bool {
        self.faults.iter().any(|f| {
            f.rank == rank
                && matches!(
                    f.kind,
                    FaultKind::Crash { .. }
                        | FaultKind::CrashHoldingLock { .. }
                        | FaultKind::CrashAsRefiller { .. }
                )
        })
    }

    /// Compute-cost multiplier for `rank` at virtual time `now`
    /// (product of all active straggler factors; `1.0` when healthy).
    pub fn straggle_factor(&self, rank: u32, now: Time) -> f64 {
        self.faults
            .iter()
            .filter(|f| f.rank == rank)
            .filter_map(|f| match f.kind {
                FaultKind::Straggle { factor, from_ns } if now >= from_ns => Some(factor),
                _ => None,
            })
            .product()
    }

    /// Extra message latency for `rank` at virtual time `now`.
    pub fn message_delay(&self, rank: u32, now: Time) -> Time {
        self.faults
            .iter()
            .filter(|f| f.rank == rank)
            .filter_map(|f| match f.kind {
                FaultKind::MessageDelay { extra_ns, from_ns } if now >= from_ns => Some(extra_ns),
                _ => None,
            })
            .sum()
    }

    /// Virtual time at/after which `rank`'s next message is dropped
    /// (one message per `MessageDrop` fault; the executor tracks
    /// consumption).
    pub fn message_drop_at(&self, rank: u32) -> Option<Time> {
        self.faults
            .iter()
            .filter(|f| f.rank == rank)
            .filter_map(|f| match f.kind {
                FaultKind::MessageDrop { at_ns } => Some(at_ns),
                _ => None,
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert_eq!(p.crash_at(0), None);
        assert_eq!(p.straggle_factor(0, 1_000_000), 1.0);
        assert_eq!(p.message_delay(3, 99), 0);
    }

    #[test]
    fn queries_are_rank_and_time_scoped() {
        let p = FaultPlan::crash(2, 500)
            .with(1, FaultKind::Straggle { factor: 4.0, from_ns: 100 })
            .with(1, FaultKind::MessageDelay { extra_ns: 7, from_ns: 50 });
        assert_eq!(p.crash_at(2), Some(500));
        assert_eq!(p.crash_at(1), None);
        assert!(p.crashes(2));
        assert!(!p.crashes(1));
        assert_eq!(p.straggle_factor(1, 99), 1.0);
        assert_eq!(p.straggle_factor(1, 100), 4.0);
        assert_eq!(p.message_delay(1, 49), 0);
        assert_eq!(p.message_delay(1, 50), 7);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_always_crash_someone() {
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed, 6);
            let b = FaultPlan::seeded(seed, 6);
            assert_eq!(a, b);
            assert!(a.is_active());
            assert!(
                (0..6).any(|r| a.crashes(r)),
                "seed {seed} produced no crash: {:?}",
                a.faults()
            );
            // Straggler and crash never land on the same rank.
            for f in a.faults() {
                if let FaultKind::Straggle { factor, .. } = f.kind {
                    assert!(factor >= 2.0);
                    assert!(!a.crashes(f.rank));
                }
            }
        }
    }

    #[test]
    fn seeded_plans_vary_with_seed() {
        let distinct: std::collections::HashSet<String> =
            (0..32).map(|s| format!("{:?}", FaultPlan::seeded(s, 6).faults())).collect();
        assert!(distinct.len() > 8, "only {} distinct plans", distinct.len());
    }

    #[test]
    fn stragglers_multiply() {
        let p =
            FaultPlan::straggler(0, 2.0).with(0, FaultKind::Straggle { factor: 3.0, from_ns: 10 });
        assert_eq!(p.straggle_factor(0, 0), 2.0);
        assert_eq!(p.straggle_factor(0, 10), 6.0);
    }
}
