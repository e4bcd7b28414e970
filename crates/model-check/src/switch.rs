//! Technique-switch adversary: small-scope checking of the AUTO mode's
//! **re-basing invariant** (see [`dls::switchable`]).
//!
//! The `dls-service` AUTO job mode switches the active DLS technique at
//! batch boundaries while two global counters (`step`, `scheduled`)
//! guarantee exactly-once chunk placement. A switch must re-base only
//! the *sizing view*; the counters are never rewound. This module
//! models that contract at the service level — a
//! [`dls::SwitchableScheduler`] for sizing, a
//! [`resilience::LeaseTable`] for the grant ledger, and the two global
//! counters for placement — and checks it three ways:
//!
//! * [`explore_switch_plans`] — DFS over *every* ladder switch choice
//!   at *every* batch boundary, proving exactly-once coverage and the
//!   placement identity `origin.scheduled + segment_consumed ==
//!   global.scheduled` at every leaf;
//! * [`crash_sweep`] — a deterministic switching campaign crashed
//!   after **every** event (grant, settlement, switch, recovery),
//!   recovering via [`dls::SwitchableScheduler::restore`] plus lease
//!   re-arming, with the same leaf checks — this includes the
//!   switch-then-immediately-crash placements;
//! * [`SwitchVariant::ForgottenOrigin`] — a seeded-broken re-basing
//!   (the global counters are *not* carried into `switch`/`restore`,
//!   so the rebuilt calculator places from iteration 0 again). The
//!   adversary must find its counterexample: a duplicated prefix and a
//!   lost tail of equal length, i.e. re-executed iterations.
//!
//! Placement in the model is *derived from the re-basing origin*
//! (`lo = origin.scheduled + consumed_in_segment`) rather than read
//! off the global counter, precisely so the broken variant's
//! misplacement is observable; the correct variant proves the derived
//! placement equal to the global counter at every grant, which is the
//! invariant the real server relies on when it places chunks straight
//! from `scheduled`.

use std::collections::VecDeque;

use dls::technique::WorkerCtx;
use dls::{Decision, Kind, LoopSpec, SchedKind, SchedState, SwitchReason, SwitchableScheduler};
use resilience::LeaseTable;

/// The tuner's ladder, as switch targets for the adversary (plus
/// "stay", expressed as `None` in a plan).
pub const LADDER: [SchedKind; 4] = [
    SchedKind::Fixed(Kind::SS),
    SchedKind::Fixed(Kind::GSS),
    SchedKind::Fixed(Kind::FAC2),
    SchedKind::Af,
];

/// Which re-basing implementation the model drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchVariant {
    /// Correct: `switch` and `restore` receive the live global
    /// counters as the re-basing origin.
    Correct,
    /// Seeded bug: the counters are **not carried over** — `switch`
    /// and `restore` receive [`SchedState::START`], so the rebuilt
    /// calculator believes the whole loop is still ahead and places
    /// from iteration 0 again.
    ForgottenOrigin,
}

/// Scope of one adversary run.
#[derive(Clone, Copy, Debug)]
pub struct SwitchConfig {
    /// Loop iterations.
    pub n: u64,
    /// Workers in the loop specification (calculator slots).
    pub p: u32,
    /// Driving clients (also the number of chunks kept in flight).
    pub workers: u32,
    /// Settlements between decision points (the tuner batch).
    pub batch: u32,
    /// Which re-basing implementation to drive.
    pub variant: SwitchVariant,
}

impl SwitchConfig {
    /// Correct-variant scope.
    pub fn new(n: u64, p: u32, workers: u32, batch: u32) -> Self {
        Self { n, p, workers, batch, variant: SwitchVariant::Correct }
    }

    /// The same scope driving the seeded-broken re-basing.
    pub fn broken(self) -> Self {
        Self { variant: SwitchVariant::ForgottenOrigin, ..self }
    }
}

/// One deterministic campaign: which ladder rung to switch to at each
/// batch boundary (`None` = stay), and an optional crash placement.
#[derive(Clone, Debug, Default)]
pub struct SwitchPlan {
    /// Per-boundary switch target; boundaries beyond the list stay.
    pub choices: Vec<Option<SchedKind>>,
    /// Crash (and recover) immediately after this 0-based event index.
    pub crash_at: Option<u64>,
}

/// A counterexample found by the adversary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwitchViolation {
    /// A grant's origin-derived placement diverged from the global
    /// `scheduled` counter (correct variant only — this is the
    /// re-basing invariant, checked at every grant).
    Misplaced {
        /// The global counter (where the server would place).
        expected_lo: u64,
        /// Where the segment view placed.
        got_lo: u64,
        /// Decision history at the divergence.
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
    /// Events executed (grants + settlements + switches + recoveries).
    pub events: u64,
    /// Decision history (dense `seq`, chained `from`/`to`).
    pub decisions: Vec<Decision>,
    /// Lease ledger totals `(granted, completed, reclaimed)`.
    pub leases: (u64, u64, u64),
}

/// The service-level model: sizing via [`SwitchableScheduler`], the
/// grant ledger via [`LeaseTable`], placement via the re-basing origin.
#[derive(Clone, Debug)]
struct JobModel {
    cfg: SwitchConfig,
    sched: SwitchableScheduler,
    /// Global counters — the service ledger. Never rewound.
    step: u64,
    scheduled: u64,
    completed: u64,
    /// Re-basing origin actually handed to the scheduler (equals the
    /// global counters in the correct variant; `START` in the broken
    /// one) plus the iterations consumed in the current segment.
    origin_scheduled: u64,
    seg_consumed: u64,
    leases: LeaseTable,
    /// Reclaimed ranges to re-serve before fresh grants.
    pool: Vec<(u64, u64)>,
    /// In-flight lease ids, settled oldest-first.
    outstanding: VecDeque<u64>,
    /// Per-iteration settlement multiplicity.
    counts: Vec<u32>,
    decisions: Vec<Decision>,
    settles_in_window: u32,
    events: u64,
    crash_at: Option<u64>,
    crashes: u64,
    next_worker: u32,
}

/// What [`JobModel::advance`] stopped on.
enum Step {
    /// `batch` settlements accrued and work remains: a decision point.
    Boundary,
    /// The loop completed.
    Done,
}

impl JobModel {
    fn new(cfg: SwitchConfig, crash_at: Option<u64>) -> Self {
        let spec = LoopSpec::new(cfg.n, cfg.p);
        Self {
            cfg,
            sched: SwitchableScheduler::new(spec, SchedKind::Auto),
            step: 0,
            scheduled: 0,
            completed: 0,
            origin_scheduled: 0,
            seg_consumed: 0,
            leases: LeaseTable::new(),
            pool: Vec::new(),
            outstanding: VecDeque::new(),
            counts: vec![0; usize::try_from(cfg.n).expect("small-scope n")],
            decisions: Vec::new(),
            settles_in_window: 0,
            events: 0,
            crash_at,
            crashes: 0,
            next_worker: 0,
        }
    }

    /// The origin the variant under test hands to `switch`/`restore`.
    fn carried_origin(&self) -> SchedState {
        match self.cfg.variant {
            SwitchVariant::Correct => SchedState { step: self.step, scheduled: self.scheduled },
            SwitchVariant::ForgottenOrigin => SchedState::START,
        }
    }

    /// Count one event and inject the planned crash behind it.
    fn event(&mut self) {
        self.events += 1;
        if self.crash_at == Some(self.events) {
            self.crash();
        }
    }

    /// Grant one chunk to the next worker: reclaimed ranges first,
    /// then a fresh grant sized by the active technique and placed at
    /// `origin.scheduled + consumed_in_segment`.
    fn fetch(&mut self) -> Result<(), SwitchViolation> {
        let worker = self.next_worker;
        self.next_worker = (self.next_worker + 1) % self.cfg.workers.max(1);
        let (lo, hi) = if let Some(range) = self.pool.pop() {
            range
        } else {
            let ctx = WorkerCtx::worker(worker);
            let size = self.sched.next_size(ctx).clamp(1, self.cfg.n - self.scheduled);
            let lo = self.origin_scheduled + self.seg_consumed;
            if self.cfg.variant == SwitchVariant::Correct && lo != self.scheduled {
                return Err(SwitchViolation::Misplaced {
                    expected_lo: self.scheduled,
                    got_lo: lo,
                    decisions: self.decisions.clone(),
                });
            }
            self.seg_consumed += size;
            self.step += 1;
            self.scheduled += size;
            (lo, lo + size)
        };
        let id = self.leases.grant(worker, lo, hi, self.events);
        self.outstanding.push_back(id);
        self.event();
        Ok(())
    }

    /// Settle the oldest in-flight lease.
    fn settle(&mut self) -> Result<(), SwitchViolation> {
        let id = self.outstanding.pop_front().expect("settle with nothing in flight");
        let lease = self.leases.complete(id).expect("single settlement");
        for i in lease.lo..lease.hi.min(self.cfg.n) {
            self.counts[usize::try_from(i).expect("small-scope n")] += 1;
        }
        self.completed += lease.hi - lease.lo;
        self.settles_in_window += 1;
        self.sched.record(lease.owner, lease.hi - lease.lo, 100, 10);
        self.event();
        Ok(())
    }

    /// Switch the active technique at a batch boundary, journaling the
    /// decision with the true global counters (the journal is correct
    /// in both variants — only the scheduler's origin is seeded bad).
    fn switch_to(&mut self, to: SchedKind, reason: SwitchReason) {
        let seq = u32::try_from(self.decisions.len()).expect("small-scope decision count");
        self.decisions.push(Decision {
            seq,
            step: self.step,
            scheduled: self.scheduled,
            from: self.sched.active(),
            to,
            reason,
        });
        let origin = self.carried_origin();
        self.sched.switch(to, origin);
        self.origin_scheduled = origin.scheduled;
        self.seg_consumed = 0;
        self.settles_in_window = 0;
        self.event();
    }

    /// Crash and recover: in-flight leases are re-armed into the
    /// reclaim pool, the scheduler is rebuilt with
    /// [`SwitchableScheduler::restore`] at the kind named by the last
    /// journaled decision, and driving resumes. The global counters
    /// and the decision history survive (they are journaled); whether
    /// they are *carried into* `restore` is the variant under test.
    fn crash(&mut self) {
        self.crashes += 1;
        self.outstanding.clear();
        let ids: Vec<u64> = self.leases.active(None).map(|l| l.id).collect();
        for id in ids {
            let lease = self.leases.reclaim(id).expect("re-arm active lease");
            self.pool.push((lease.lo, lease.hi));
        }
        // Deterministic re-serve order: lowest range first (popped last).
        self.pool.sort_unstable_by(|a, b| b.cmp(a));
        let active = self.decisions.last().map_or(SchedKind::Auto, |d| d.to);
        let origin = self.carried_origin();
        let switches = u32::try_from(self.decisions.len()).expect("small-scope decision count");
        self.sched = SwitchableScheduler::restore(*self.sched.spec(), active, origin, switches);
        assert_eq!(self.sched.switch_count(), switches, "switch count survives recovery");
        self.origin_scheduled = origin.scheduled;
        self.seg_consumed = 0;
        self.settles_in_window = 0;
    }

    /// Drive grants and settlements until the next batch boundary (if
    /// work remains) or completion. Keeps `cfg.workers` chunks in
    /// flight; settles oldest-first.
    fn advance(&mut self) -> Result<Step, SwitchViolation> {
        // Generous progress bound: every iteration is granted and
        // settled at most a few times even in the broken variant.
        let bound = 16 * self.cfg.n + 64;
        loop {
            if self.completed >= self.cfg.n {
                return Ok(Step::Done);
            }
            if self.events > bound {
                return Err(SwitchViolation::Stuck { events: self.events });
            }
            let can_grant = !self.pool.is_empty() || self.scheduled < self.cfg.n;
            if can_grant && (self.outstanding.len() as u64) < u64::from(self.cfg.workers) {
                self.fetch()?;
            } else if !self.outstanding.is_empty() {
                self.settle()?;
                if self.settles_in_window >= self.cfg.batch
                    && (self.scheduled < self.cfg.n || !self.pool.is_empty())
                {
                    self.settles_in_window = 0;
                    return Ok(Step::Boundary);
                }
            } else {
                return Err(SwitchViolation::Stuck { events: self.events });
            }
        }
    }

    /// Terminal exactly-once check.
    fn check_coverage(&self) -> Result<(), SwitchViolation> {
        let duplicated: Vec<u64> = (0..self.cfg.n)
            .filter(|&i| self.counts[usize::try_from(i).expect("small-scope n")] > 1)
            .collect();
        let lost: Vec<u64> = (0..self.cfg.n)
            .filter(|&i| self.counts[usize::try_from(i).expect("small-scope n")] == 0)
            .collect();
        if duplicated.is_empty() && lost.is_empty() {
            Ok(())
        } else {
            Err(SwitchViolation::Coverage { duplicated, lost, decisions: self.decisions.clone() })
        }
    }

    /// Leaf invariants beyond coverage: ledger fully settled, decision
    /// history dense and chained.
    fn check_leaf(&self) -> Result<(), SwitchViolation> {
        self.check_coverage()?;
        assert_eq!(self.leases.active(None).count(), 0, "no dangling lease at completion");
        let (granted, completed, reclaimed) = self.leases.counts();
        assert_eq!(granted, completed + reclaimed, "every lease settled exactly once");
        let mut prev_to: Option<SchedKind> = None;
        let mut prev_scheduled = 0u64;
        for (i, d) in self.decisions.iter().enumerate() {
            assert_eq!(d.seq as usize, i, "dense decision seq");
            if let Some(p) = prev_to {
                assert_eq!(d.from, p, "chained decision history");
            }
            assert!(d.scheduled >= prev_scheduled, "monotone decision watermarks");
            prev_to = Some(d.to);
            prev_scheduled = d.scheduled;
        }
        Ok(())
    }
}

/// Run one deterministic campaign to completion.
pub fn run_plan(cfg: &SwitchConfig, plan: &SwitchPlan) -> Result<CampaignReport, SwitchViolation> {
    let mut m = JobModel::new(*cfg, plan.crash_at);
    let mut boundary = 0usize;
    loop {
        match m.advance()? {
            Step::Done => {
                m.check_leaf()?;
                return Ok(CampaignReport {
                    events: m.events,
                    decisions: m.decisions,
                    leases: m.leases.counts(),
                });
            }
            Step::Boundary => {
                if let Some(Some(to)) = plan.choices.get(boundary) {
                    m.switch_to(*to, SwitchReason::Manual);
                }
                boundary += 1;
            }
        }
    }
}

/// DFS over every ladder switch choice (including "stay") at every
/// batch boundary; every leaf must be exactly-once with a fully
/// settled ledger.
pub fn explore_switch_plans(cfg: &SwitchConfig) -> SwitchOutcome {
    let mut out = SwitchOutcome::default();
    let m = JobModel::new(*cfg, None);
    dfs(m, &mut out);
    out
}

fn dfs(mut m: JobModel, out: &mut SwitchOutcome) {
    if out.violation.is_some() {
        return;
    }
    match m.advance() {
        Err(v) => out.violation = Some(v),
        Ok(Step::Done) => {
            if let Err(v) = m.check_leaf() {
                out.violation = Some(v);
            }
            out.leaves += 1;
        }
        Ok(Step::Boundary) => {
            // "Stay" first, then every ladder rung (skipping a rung
            // equal to the active kind would prune real re-switches —
            // re-basing onto the same technique is a distinct path).
            dfs(m.clone(), out);
            for to in LADDER {
                let mut c = m.clone();
                c.switch_to(to, SwitchReason::Manual);
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
    let cycling: Vec<Option<SchedKind>> =
        (0..64).map(|i| Some(LADDER[(i + 1) % LADDER.len()])).collect();
    let baseline = match run_plan(cfg, &SwitchPlan { choices: cycling.clone(), crash_at: None }) {
        Ok(r) => r,
        Err(v) => {
            out.violation = Some(v);
            return out;
        }
    };
    out.leaves += 1;
    out.switches += baseline.decisions.len() as u64;
    for k in 1..=baseline.events {
        let plan = SwitchPlan { choices: cycling.clone(), crash_at: Some(k) };
        match run_plan(cfg, &plan) {
            Ok(r) => {
                out.leaves += 1;
                out.crashes += 1;
                out.switches += r.decisions.len() as u64;
            }
            Err(v) => {
                out.violation = Some(v);
                return out;
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
        let out = explore_switch_plans(&SwitchConfig::new(16, 4, 2, 3));
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.leaves > 100, "exploration must branch (got {} leaves)", out.leaves);
        assert!(out.switches > 100, "switch paths explored (got {})", out.switches);
    }

    #[test]
    fn correct_variant_survives_every_crash_placement() {
        let out = crash_sweep(&SwitchConfig::new(24, 4, 2, 4));
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.crashes > 20, "sweep must cover many placements");
    }

    #[test]
    fn broken_rebase_duplicates_prefix_and_loses_tail() {
        let cfg = SwitchConfig::new(24, 4, 2, 4).broken();
        let plan = SwitchPlan { choices: vec![Some(SchedKind::Fixed(Kind::GSS))], crash_at: None };
        // The identical plan is clean under the correct re-basing.
        run_plan(&SwitchConfig::new(24, 4, 2, 4), &plan).expect("correct variant covers");
        let v = run_plan(&cfg, &plan).expect_err("forgotten origin must be caught");
        match v {
            SwitchViolation::Coverage { duplicated, lost, decisions } => {
                assert_eq!(decisions.len(), 1);
                assert!(!duplicated.is_empty() && !lost.is_empty());
                assert_eq!(duplicated.len(), lost.len(), "re-served prefix displaces the tail");
                assert_eq!(duplicated[0], 0, "duplication restarts at iteration 0");
                assert_eq!(*lost.last().expect("non-empty"), cfg.n - 1, "tail is lost");
            }
            other => panic!("expected a coverage counterexample, got {other:?}"),
        }
    }

    #[test]
    fn broken_restore_after_crash_is_caught_too() {
        let cfg = SwitchConfig::new(24, 4, 2, 4).broken();
        let plan = SwitchPlan { choices: vec![], crash_at: Some(9) };
        run_plan(&SwitchConfig::new(24, 4, 2, 4), &plan).expect("correct restore covers");
        let v = run_plan(&cfg, &plan).expect_err("forgotten restore origin must be caught");
        assert!(
            matches!(v, SwitchViolation::Coverage { ref duplicated, .. } if !duplicated.is_empty()),
            "expected duplicate execution, got {v:?}"
        );
    }
}
