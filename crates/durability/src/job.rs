//! The job kernel: the one copy of the exactly-once job state machine.
//!
//! A job is the paper's global queue — the two counters
//! `(step, scheduled)` driven by a `dls` calculator — plus what makes
//! grants revocable: the lease ledger and the reclaim pool. [`JobCore`]
//! owns all of it and exposes each transition once. It is sequential,
//! lock-free and clock-free (time only ever arrives as a `now_ns`
//! argument), so every caller wraps the same code:
//!
//! * `dls-service` puts it under a shard lock and adds what only a
//!   live server has (connection indices, quotas, the tuner);
//! * [`RecoveredState`](crate::RecoveredState) folds
//!   [`JobCore::apply`] over the journal — the record *is* the event —
//!   and snapshots are [`JobCore::serialize_into`] of the live kernel;
//! * `conc-check` uses it as the sequential specification, and the
//!   crash adversary drives it directly.
//!
//! Fields are public for the checkers and tools that inspect them;
//! state changes go through the transitions (a seeded-broken test
//! driver bypassing one on purpose is the only exception).

use std::collections::VecDeque;

use dls::switchable::{Decision, SchedKind, SwitchableScheduler};
use dls::technique::WorkerCtx;
use dls::{LoopSpec, SchedState};
use resilience::lease::{Lease, LeaseError, LeaseId, LeaseTable};

use crate::record::{encode_decision, GrantEntry, JournalRecord, Reader};
use crate::replay::ReplayError;

/// What one [`JobCore::settle`] credited, and the measurement the
/// monitor layers (adaptive scheduler, tuner) feed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Settlement {
    /// Worker the lease was granted to.
    pub worker: u32,
    /// Iterations credited.
    pub len: u64,
    /// Grant-to-settle latency.
    pub latency_ns: u64,
}

/// One job's scheduling state and its transitions.
#[derive(Clone, Debug)]
pub struct JobCore {
    /// Total iterations.
    pub n: u64,
    /// Mode the job was created with (`AUTO` stays `AUTO` here while
    /// the active technique moves through the ladder).
    pub mode: SchedKind,
    /// Per-worker weights (empty = unweighted).
    pub weights: Vec<f64>,
    /// Chunk-index counter — the first global counter.
    pub step: u64,
    /// Scheduled-iterations counter — the second global counter.
    pub scheduled: u64,
    /// Iterations settled exactly once.
    pub completed: u64,
    /// True once every iteration settled.
    pub done: bool,
    /// Ranges reclaimed from dead owners, served oldest first and
    /// ahead of fresh counter advances.
    pub reclaim_pool: VecDeque<(u64, u64)>,
    /// Technique switches in dense `seq` order.
    pub decisions: Vec<Decision>,
    /// Lease ledger: the unsettled leases and the settlement totals.
    pub leases: LeaseTable,
    /// Sizing view of the counters. In lockstep with them on the live
    /// path; [`JobCore::apply`] moves the counters without it, and
    /// [`JobCore::re_arm`] re-bases it before service resumes.
    sched: SwitchableScheduler,
}

impl JobCore {
    /// A fresh job. The calculators' worker count `p` is the weight
    /// table's length, else 8 — the service has no worker census, so
    /// this plays the role `nodes` plays for the inter level in `hier`.
    pub fn new(n: u64, mode: SchedKind, weights: Vec<f64>) -> Self {
        let p = if weights.is_empty() { 8 } else { weights.len() as u32 };
        JobCore {
            n,
            mode,
            step: 0,
            scheduled: 0,
            completed: 0,
            done: n == 0,
            reclaim_pool: VecDeque::new(),
            decisions: Vec::new(),
            leases: LeaseTable::new(),
            sched: SwitchableScheduler::new(LoopSpec::new(n, p), mode),
            weights,
        }
    }

    /// The loop specification the calculators size against.
    pub fn spec(&self) -> &LoopSpec {
        self.sched.spec()
    }

    /// The two global counters.
    pub fn counters(&self) -> SchedState {
        SchedState { step: self.step, scheduled: self.scheduled }
    }

    /// The concrete technique sizing chunks right now.
    pub fn active(&self) -> SchedKind {
        self.sched.active()
    }

    /// The journal's view of the same: the last switch's target, else
    /// the creation mode (which may be `AUTO`).
    pub fn active_kind(&self) -> SchedKind {
        self.decisions.last().map_or(self.mode, |d| d.to)
    }

    /// Grant up to `batch` chunks to `worker`: reclaimed ranges first,
    /// then fresh advances of the two counters. The entries are what a
    /// `Granted` record carries; `step`/`scheduled` afterwards are its
    /// watermarks.
    pub fn fetch(&mut self, worker: u32, batch: u32, now_ns: u64) -> Vec<GrantEntry> {
        let weight = self.weights.get(worker as usize).copied().unwrap_or(1.0);
        let ctx = WorkerCtx { worker, weight };
        // One allocation per burst: it cannot grant more than the pool
        // holds plus one chunk per unscheduled iteration.
        let room =
            (self.reclaim_pool.len() as u64).saturating_add(self.n.saturating_sub(self.scheduled));
        let mut out = Vec::with_capacity(u64::from(batch).min(room) as usize);
        for _ in 0..batch {
            let (lo, hi, from_pool) = if let Some((lo, hi)) = self.reclaim_pool.pop_front() {
                (lo, hi, true)
            } else if self.scheduled < self.n {
                // `next_size` consumes the size from the scheduler's
                // segment view; the counters must advance by exactly
                // what it returned (lockstep contract).
                let size = self.sched.next_size(ctx);
                if size == 0 {
                    break;
                }
                let lo = self.scheduled;
                self.step += 1;
                self.scheduled += size;
                (lo, lo + size, false)
            } else {
                break;
            };
            let lease = self.leases.grant(worker, lo, hi, now_ns);
            out.push(GrantEntry { lease, worker, lo, hi, from_pool });
        }
        out
    }

    /// Settle `lease` as completed by its owner. A second settlement —
    /// or one racing a reclaim — is a [`LeaseError`], never a second
    /// credit.
    pub fn settle(&mut self, lease: LeaseId, now_ns: u64) -> Result<Settlement, LeaseError> {
        let l = self.credit(lease)?;
        let s = Settlement {
            worker: l.owner,
            len: l.hi - l.lo,
            latency_ns: now_ns.saturating_sub(l.granted_ns),
        };
        self.sched.record(s.worker, s.len, s.latency_ns, 0);
        Ok(s)
    }

    /// The ledger half of a settlement (all that replay needs).
    fn credit(&mut self, lease: LeaseId) -> Result<Lease, LeaseError> {
        let l = self.leases.complete(lease)?;
        self.completed += l.hi - l.lo;
        self.done |= self.completed == self.n;
        Ok(l)
    }

    /// Take `lease` back from a dead owner — a dead connection or a
    /// dead epoch: only the ledger's single settlement re-pools the
    /// range, so a lease settled first is an error here and its range
    /// is never served twice. Returns the reclaimed lease.
    pub fn reclaim(&mut self, lease: LeaseId) -> Result<Lease, LeaseError> {
        let l = self.leases.reclaim(lease)?;
        self.reclaim_pool.push_back((l.lo, l.hi));
        Ok(l)
    }

    /// Switch technique: the new calculator is re-based onto the
    /// unscheduled remainder, the counters carry over untouched.
    pub fn switch(&mut self, decision: Decision) {
        self.sched.switch(decision.to, self.counters());
        self.decisions.push(decision);
    }

    /// Make a replayed kernel servable again. Every lease still active
    /// belonged to a client of a dead epoch and can never be settled —
    /// reclaim it, oldest grant first — and re-base the scheduler onto
    /// the replayed counters with the replayed technique (journaled,
    /// never re-derived). Returns the number of leases re-armed.
    pub fn re_arm(&mut self) -> u64 {
        let active: Vec<LeaseId> = self.leases.active(None).map(|l| l.id).collect();
        for &id in &active {
            let _ = self.reclaim(id);
        }
        self.rebase();
        active.len() as u64
    }

    /// Rebuild the scheduler at the current counters, active technique
    /// and switch count.
    fn rebase(&mut self) {
        self.sched = SwitchableScheduler::restore(
            *self.spec(),
            self.active_kind(),
            self.counters(),
            self.decisions.len() as u32,
        );
    }

    /// Apply one journal record addressed to this job. Idempotent: a
    /// record the state already reflects is a no-op — counters advance
    /// by max-watermark, lease ids the ledger already granted are skipped,
    /// and so are settlements of leases already settled — which is what
    /// lets a snapshot taken from *live* state run ahead of its journal
    /// position.
    pub fn apply(&mut self, rec: &JournalRecord) -> Result<(), ReplayError> {
        match rec {
            JournalRecord::Granted { job, step, scheduled, grants } => {
                self.step = self.step.max(*step);
                self.scheduled = self.scheduled.max(*scheduled);
                for g in grants {
                    let ledger = self.leases.len();
                    if g.lease < ledger {
                        continue;
                    }
                    if g.lease > ledger {
                        return Err(ReplayError::NonDenseLease {
                            job: *job,
                            lease: g.lease,
                            ledger,
                        });
                    }
                    self.leases.grant(g.worker, g.lo, g.hi, 0);
                    if g.from_pool {
                        let served = self.reclaim_pool.iter().position(|&r| r == (g.lo, g.hi));
                        if let Some(pos) = served {
                            self.reclaim_pool.remove(pos);
                        }
                    }
                }
            }
            JournalRecord::Settled { job, leases } => {
                for &lease in leases {
                    if let Err(LeaseError::Unknown(_)) = self.credit(lease) {
                        return Err(ReplayError::UnknownLease { job: *job, lease });
                    }
                }
            }
            JournalRecord::Reclaimed { job, leases } => {
                for &lease in leases {
                    if let Err(LeaseError::Unknown(_)) = self.reclaim(lease) {
                        return Err(ReplayError::UnknownLease { job: *job, lease });
                    }
                }
            }
            JournalRecord::JobFinished { .. } => self.done = true,
            JournalRecord::TechniqueSwitched { job, decision } => {
                let have = self.decisions.len() as u64;
                match u64::from(decision.seq) {
                    seq if seq < have => {}
                    seq if seq == have => self.switch(*decision),
                    _ => {
                        return Err(ReplayError::NonDenseDecision {
                            job: *job,
                            seq: decision.seq,
                            have,
                        })
                    }
                }
            }
            JournalRecord::ServerStart { .. }
            | JournalRecord::JobCreated { .. }
            | JournalRecord::Drained { .. } => {}
        }
        Ok(())
    }

    /// Append the canonical little-endian image of this job — one job
    /// entry of a snapshot body, minus its id.
    pub fn serialize_into(&self, b: &mut Vec<u8>) {
        b.extend_from_slice(&self.n.to_le_bytes());
        b.push(self.mode.to_byte());
        b.extend_from_slice(&(self.weights.len() as u32).to_le_bytes());
        for w in &self.weights {
            b.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        b.extend_from_slice(&self.step.to_le_bytes());
        b.extend_from_slice(&self.scheduled.to_le_bytes());
        b.extend_from_slice(&self.completed.to_le_bytes());
        b.push(self.done as u8);
        b.extend_from_slice(&(self.reclaim_pool.len() as u64).to_le_bytes());
        for &(lo, hi) in &self.reclaim_pool {
            b.extend_from_slice(&lo.to_le_bytes());
            b.extend_from_slice(&hi.to_le_bytes());
        }
        b.extend_from_slice(&(self.decisions.len() as u32).to_le_bytes());
        for d in &self.decisions {
            encode_decision(b, d);
        }
        self.leases.serialize_into(b);
    }

    /// Inverse of [`JobCore::serialize_into`], reading at the cursor.
    /// `None` on malformed input — including the mode byte `0xFF` that
    /// older images used for "no technique": a job always has one.
    pub(crate) fn deserialize(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.u64()?;
        let mode = SchedKind::from_byte(r.u8()?)?;
        let wcount = r.count(8)?;
        let mut weights = Vec::with_capacity(wcount);
        for _ in 0..wcount {
            weights.push(r.f64()?);
        }
        let mut job = JobCore::new(n, mode, weights);
        job.step = r.u64()?;
        job.scheduled = r.u64()?;
        job.completed = r.u64()?;
        job.done |= r.u8()? != 0;
        for _ in 0..r.count64(16)? {
            job.reclaim_pool.push_back((r.u64()?, r.u64()?));
        }
        for _ in 0..r.count(27)? {
            job.decisions.push(r.decision()?);
        }
        let (leases, used) = LeaseTable::deserialize(&r.bytes[r.off..])?;
        r.off += used;
        job.leases = leases;
        job.rebase();
        Some(job)
    }
}
