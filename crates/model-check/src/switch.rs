//! Technique-switch adversary: small-scope checking of the AUTO mode's
//! **re-basing invariant** (see [`dls::switchable`]).
//!
//! The `dls-service` AUTO job mode switches the active DLS technique at
//! batch boundaries while two global counters (`step`, `scheduled`)
//! guarantee exactly-once chunk placement. A switch must re-base only
//! the *sizing view*; the counters are never rewound. This module
//! drives the job kernel itself, [`durability::JobCore`], created as the
//! server creates an unweighted AUTO job: every grant, settlement,
//! switch and recovery is a kernel call, and the driver keeps only what
//! a client population has (whose turn it is, what is in flight, what
//! was executed). It checks the kernel three ways:
//!
//! * [`explore_switch_plans`] — DFS over *every* ladder switch choice
//!   at *every* batch boundary, proving every grant inside `[0, n)` and
//!   exactly-once coverage with a fully settled ledger at every leaf;
//! * [`crash_sweep`] — a deterministic switching campaign crashed
//!   after **every** event (grant, settlement, switch), recovering
//!   through [`durability::JobCore::re_arm`], with the same checks —
//!   this includes the switch-then-immediately-crash placements;
//! * seeded-broken [`SwitchVariant`]s — the counters hidden from one
//!   kernel call, so it re-bases the sizing view onto
//!   [`dls::SchedState::START`]. The calculator then sizes against the
//!   whole loop while the kernel places at `scheduled`, and the
//!   adversary must find the grant that runs past `n`.

use std::collections::VecDeque;

use dls::{Decision, Kind, SchedKind, SwitchReason};
use durability::JobCore;

/// The tuner's ladder, as switch targets for the adversary (plus
/// "stay", expressed as `None` in a plan).
pub const LADDER: [SchedKind; 4] = [
    SchedKind::Fixed(Kind::SS),
    SchedKind::Fixed(Kind::GSS),
    SchedKind::Fixed(Kind::FAC2),
    SchedKind::Af,
];

/// Which kernel calls the driver makes as written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchVariant {
    /// Correct: every call sees the live counters.
    Correct,
    /// Seeded bug: `JobCore::switch` runs with the counters zeroed, so
    /// the new calculator re-bases onto the whole loop.
    ForgottenSwitchOrigin,
    /// Seeded bug: `JobCore::re_arm` runs with the counters zeroed, so
    /// the recovered calculator re-bases onto the whole loop.
    ForgottenRestoreOrigin,
}

/// Scope of one adversary run.
#[derive(Clone, Copy, Debug)]
pub struct SwitchConfig {
    /// Loop iterations.
    pub n: u64,
    /// Driving clients (also the number of chunks kept in flight).
    pub workers: u32,
    /// Settlements between decision points (the tuner batch).
    pub batch: u32,
    /// Which kernel calls are bypassed.
    pub variant: SwitchVariant,
}

impl SwitchConfig {
    /// Correct-variant scope.
    pub fn new(n: u64, workers: u32, batch: u32) -> Self {
        Self { n, workers, batch, variant: SwitchVariant::Correct }
    }

    /// The same scope driving `variant`.
    pub fn with_variant(self, variant: SwitchVariant) -> Self {
        Self { variant, ..self }
    }
}

/// One deterministic campaign: which ladder rung to switch to at each
/// batch boundary (`None` = stay), and an optional crash placement.
#[derive(Clone, Debug, Default)]
pub struct SwitchPlan {
    /// Per-boundary switch target; boundaries beyond the list stay.
    pub choices: Vec<Option<SchedKind>>,
    /// Crash (and recover) right after this event (the first is 1).
    pub crash_at: Option<u64>,
}

/// A counterexample found by the adversary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwitchViolation {
    /// A grant reached past `n` (checked at every grant).
    Overrun {
        /// First iteration of the grant.
        lo: u64,
        /// One past its last iteration (`> n`).
        hi: u64,
        /// Decision history at the grant.
        decisions: Vec<Decision>,
    },
    /// Terminal coverage was not exactly-once.
    Coverage {
        /// Iterations settled more than once (duplicate execution).
        duplicated: Vec<u64>,
        /// Iterations never settled (lost work).
        lost: Vec<u64>,
        /// Decision history of the run.
        decisions: Vec<Decision>,
    },
    /// The run stopped making progress before completion.
    Stuck {
        /// Events executed before the livelock.
        events: u64,
    },
}

/// Aggregate result of an exploration.
#[derive(Clone, Debug, Default)]
pub struct SwitchOutcome {
    /// Complete runs checked.
    pub leaves: u64,
    /// Technique switches performed across all runs.
    pub switches: u64,
    /// Crashes injected across all runs.
    pub crashes: u64,
    /// First counterexample, if any.
    pub violation: Option<SwitchViolation>,
}

/// Statistics of one complete, violation-free campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Events executed (grants + settlements + switches).
    pub events: u64,
    /// Decision history (dense `seq`, chained `from`/`to`).
    pub decisions: Vec<Decision>,
    /// Lease ledger totals `(granted, completed, reclaimed)`.
    pub leases: (u64, u64, u64),
    /// Settled ranges in settlement order.
    pub settled: Vec<(u64, u64)>,
}

/// A client population driving one kernel. The event counter is the
/// clock the kernel sees.
#[derive(Clone, Debug)]
struct Driver {
    cfg: SwitchConfig,
    core: JobCore,
    /// In-flight lease ids, settled oldest-first.
    outstanding: VecDeque<u64>,
    /// Settled ranges in settlement order.
    settled: Vec<(u64, u64)>,
    settles_in_window: u32,
    events: u64,
    crash_at: Option<u64>,
    next_worker: u32,
}

/// What [`Driver::advance`] stopped on.
enum Step {
    /// `batch` settlements accrued and work remains: a decision point.
    Boundary,
    /// The loop completed.
    Done,
}

impl Driver {
    fn new(cfg: SwitchConfig, crash_at: Option<u64>) -> Self {
        Self {
            cfg,
            core: JobCore::new(cfg.n, SchedKind::Auto, vec![]),
            outstanding: VecDeque::new(),
            settled: Vec::new(),
            settles_in_window: 0,
            events: 0,
            crash_at,
            next_worker: 0,
        }
    }

    /// Make one kernel call; if `bug` is the variant under test, with
    /// the counters hidden from it and restored afterwards.
    fn call<T>(&mut self, bug: SwitchVariant, f: impl FnOnce(&mut JobCore) -> T) -> T {
        if self.cfg.variant != bug {
            return f(&mut self.core);
        }
        let (step, scheduled) = (self.core.step, self.core.scheduled);
        (self.core.step, self.core.scheduled) = (0, 0);
        let out = f(&mut self.core);
        (self.core.step, self.core.scheduled) = (step, scheduled);
        out
    }

    /// Count one event and inject the planned crash behind it.
    fn event(&mut self) {
        self.events += 1;
        if self.crash_at == Some(self.events) {
            self.crash();
        }
    }

    /// Grant one chunk to the next worker.
    fn fetch(&mut self) -> Result<(), SwitchViolation> {
        let worker = self.next_worker;
        self.next_worker = (worker + 1) % self.cfg.workers.max(1);
        let Some(g) = self.core.fetch(worker, 1, self.events).pop() else {
            return Err(SwitchViolation::Stuck { events: self.events });
        };
        if g.hi > self.cfg.n {
            let decisions = self.core.decisions.clone();
            return Err(SwitchViolation::Overrun { lo: g.lo, hi: g.hi, decisions });
        }
        self.outstanding.push_back(g.lease);
        self.event();
        Ok(())
    }

    /// Settle the oldest in-flight lease.
    fn settle(&mut self) {
        let id = self.outstanding.pop_front().expect("settle with nothing in flight");
        let lease = *self.core.leases.get(id).expect("in-flight lease is in the ledger");
        self.core.settle(id, self.events).expect("single settlement");
        self.settled.push((lease.lo, lease.hi));
        self.settles_in_window += 1;
        self.event();
    }

    /// Switch the active technique at a batch boundary. The decision
    /// carries the true counters in every variant; only what the
    /// kernel call sees is seeded bad.
    fn switch_to(&mut self, to: SchedKind) {
        let decision = Decision {
            seq: u32::try_from(self.core.decisions.len()).expect("small-scope decision count"),
            step: self.core.step,
            scheduled: self.core.scheduled,
            from: self.core.active(),
            to,
            reason: SwitchReason::Manual,
        };
        self.call(SwitchVariant::ForgottenSwitchOrigin, |core| core.switch(decision));
        self.settles_in_window = 0;
        self.event();
    }

    /// Crash and recover: the clients' in-flight chunks are lost, and
    /// the kernel — counters, ledger and decisions are journaled —
    /// re-arms every active lease into the pool and re-bases.
    fn crash(&mut self) {
        self.outstanding.clear();
        self.call(SwitchVariant::ForgottenRestoreOrigin, JobCore::re_arm);
        self.settles_in_window = 0;
    }

    /// Drive grants and settlements until the next batch boundary (if
    /// work remains) or completion. Keeps `cfg.workers` chunks in
    /// flight; settles oldest-first.
    fn advance(&mut self) -> Result<Step, SwitchViolation> {
        // Generous progress bound: every iteration is granted and
        // settled at most a few times.
        let bound = 16 * self.cfg.n + 64;
        loop {
            if self.core.done {
                return Ok(Step::Done);
            }
            if self.events > bound {
                return Err(SwitchViolation::Stuck { events: self.events });
            }
            let can_grant = |c: &JobCore| !c.reclaim_pool.is_empty() || c.scheduled < c.n;
            if can_grant(&self.core) && self.outstanding.len() < self.cfg.workers as usize {
                self.fetch()?;
            } else if !self.outstanding.is_empty() {
                self.settle();
                if self.settles_in_window >= self.cfg.batch && can_grant(&self.core) {
                    self.settles_in_window = 0;
                    return Ok(Step::Boundary);
                }
            } else {
                return Err(SwitchViolation::Stuck { events: self.events });
            }
        }
    }

    /// Leaf invariants: exactly-once coverage, ledger fully settled,
    /// decision history dense and chained.
    fn check_leaf(&self) -> Result<(), SwitchViolation> {
        let mut counts = vec![0u32; usize::try_from(self.cfg.n).expect("small-scope n")];
        for &(lo, hi) in &self.settled {
            (lo..hi).for_each(|i| counts[i as usize] += 1);
        }
        let iters = |f: fn(u32) -> bool| -> Vec<u64> {
            (0..self.cfg.n).filter(|&i| f(counts[i as usize])).collect()
        };
        let (duplicated, lost) = (iters(|c| c > 1), iters(|c| c == 0));
        if !duplicated.is_empty() || !lost.is_empty() {
            let decisions = self.core.decisions.clone();
            return Err(SwitchViolation::Coverage { duplicated, lost, decisions });
        }
        assert_eq!(self.core.leases.active(None).count(), 0, "no dangling lease at completion");
        let (granted, completed, reclaimed) = self.core.leases.counts();
        assert_eq!(granted, completed + reclaimed, "every lease settled exactly once");
        for (i, d) in self.core.decisions.iter().enumerate() {
            assert_eq!(d.seq as usize, i, "dense decision seq");
            if let Some(prev) = i.checked_sub(1).map(|j| self.core.decisions[j]) {
                assert_eq!(d.from, prev.to, "chained decision history");
                assert!(d.scheduled >= prev.scheduled, "monotone decision watermarks");
            }
        }
        Ok(())
    }
}

/// Run one deterministic campaign to completion.
pub fn run_plan(cfg: &SwitchConfig, plan: &SwitchPlan) -> Result<CampaignReport, SwitchViolation> {
    let mut d = Driver::new(*cfg, plan.crash_at);
    let mut boundary = 0usize;
    while let Step::Boundary = d.advance()? {
        if let Some(Some(to)) = plan.choices.get(boundary) {
            d.switch_to(*to);
        }
        boundary += 1;
    }
    d.check_leaf()?;
    Ok(CampaignReport {
        events: d.events,
        leases: d.core.leases.counts(),
        decisions: d.core.decisions,
        settled: d.settled,
    })
}

/// DFS over every ladder switch choice (including "stay") at every
/// batch boundary; every leaf must be exactly-once with a fully
/// settled ledger.
pub fn explore_switch_plans(cfg: &SwitchConfig) -> SwitchOutcome {
    let mut out = SwitchOutcome::default();
    dfs(Driver::new(*cfg, None), &mut out);
    out
}

fn dfs(mut d: Driver, out: &mut SwitchOutcome) {
    if out.violation.is_some() {
        return;
    }
    match d.advance() {
        Err(v) => out.violation = Some(v),
        Ok(Step::Done) => {
            out.violation = d.check_leaf().err();
            out.leaves += 1;
        }
        Ok(Step::Boundary) => {
            // "Stay" first, then every ladder rung (skipping a rung
            // equal to the active kind would prune real re-switches —
            // re-basing onto the same technique is a distinct path).
            dfs(d.clone(), out);
            for to in LADDER {
                let mut c = d.clone();
                c.switch_to(to);
                out.switches += 1;
                dfs(c, out);
            }
        }
    }
}

/// A deterministic always-switching campaign (cycling the ladder at
/// every boundary) crashed after every event index in turn, each run
/// recovering and driving to completion with full leaf checks.
pub fn crash_sweep(cfg: &SwitchConfig) -> SwitchOutcome {
    let mut out = SwitchOutcome::default();
    let choices: Vec<Option<SchedKind>> =
        (0..64).map(|i| Some(LADDER[(i + 1) % LADDER.len()])).collect();
    // One campaign: its event count, or `None` once a violation is found.
    let mut run = |crash_at: Option<u64>| match run_plan(
        cfg,
        &SwitchPlan { choices: choices.clone(), crash_at },
    ) {
        Ok(r) => {
            out.leaves += 1;
            out.crashes += u64::from(crash_at.is_some());
            out.switches += r.decisions.len() as u64;
            Some(r.events)
        }
        Err(v) => {
            out.violation = Some(v);
            None
        }
    };
    if let Some(events) = run(None) {
        for k in 1..=events {
            if run(Some(k)).is_none() {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_variant_survives_every_switch_plan() {
        let out = explore_switch_plans(&SwitchConfig::new(16, 2, 3));
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.leaves > 100, "exploration must branch (got {} leaves)", out.leaves);
        assert!(out.switches > 100, "switch paths explored (got {})", out.switches);
    }

    #[test]
    fn correct_variant_survives_every_crash_placement() {
        let out = crash_sweep(&SwitchConfig::new(24, 2, 4));
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.crashes > 20, "sweep must cover many placements");
    }

    /// Run `plan` on the kernel as written (must complete) and with
    /// `bug` seeded (must overrun `n`); returns the overrunning grant.
    fn overrun(cfg: SwitchConfig, bug: SwitchVariant, plan: &SwitchPlan) -> (u64, u64) {
        run_plan(&cfg, plan).expect("the kernel as written covers");
        match run_plan(&cfg.with_variant(bug), plan) {
            Err(SwitchViolation::Overrun { lo, hi, .. }) => (lo, hi),
            other => panic!("{bug:?}: expected an overrun, got {other:?}"),
        }
    }

    #[test]
    fn broken_rebase_duplicates_prefix_and_loses_tail() {
        // SS up to iteration 13 of 16, then GSS: re-based onto the whole
        // loop, GSS sizes two iterations where one remains.
        let mut choices = vec![None; 3];
        choices.push(Some(SchedKind::Fixed(Kind::GSS)));
        let plan = SwitchPlan { choices, crash_at: None };
        let bug = SwitchVariant::ForgottenSwitchOrigin;
        assert_eq!(overrun(SwitchConfig::new(16, 2, 3), bug, &plan), (15, 17));
    }

    #[test]
    fn broken_restore_after_crash_is_caught_too() {
        let plan =
            SwitchPlan { choices: vec![Some(SchedKind::Fixed(Kind::GSS))], crash_at: Some(11) };
        let bug = SwitchVariant::ForgottenRestoreOrigin;
        assert_eq!(overrun(SwitchConfig::new(24, 2, 4), bug, &plan), (23, 25));
    }
}
