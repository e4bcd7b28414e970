//! Counterexample replay: turn an abstract model trace into the RMA
//! access log the real executor would have produced, and run it
//! through the `rma-check` epoch / race pipeline.
//!
//! The mapping reuses [`hier::sim::layout`] — the same window ids and
//! displacements `hier::sim`'s `RmaTape` stamps — so a replayed
//! counterexample reads exactly like a recorded run of the virtual-
//! time executor, and the `rma-check` report names the protocol slots
//! (`LO`, `HI`, `REFILLING`, …) a developer already knows from the
//! simulator. Each seeded bug lands on its own checker diagnosis:
//!
//! * [`Variant::RefillWithoutLock`] — the unlocked flag reads/writes
//!   surface as [`rma_check::ViolationKind::AccessOutsideEpoch`];
//! * [`Variant::NonAtomicFaa`] — the get/put pair on the global
//!   counter races across fetchers:
//!   [`rma_check::ViolationKind::DataRace`];
//! * [`Variant::LostUnlock`] — the never-released window lock is an
//!   [`rma_check::ViolationKind::EpochLeak`] at end of log.
//!
//! [`Variant::RefillWithoutLock`]: crate::model::Variant::RefillWithoutLock
//! [`Variant::NonAtomicFaa`]: crate::model::Variant::NonAtomicFaa
//! [`Variant::LostUnlock`]: crate::model::Variant::LostUnlock

use crate::model::{Action, Config, EventSink, State, Violation};
use hier::sim::layout::GLOBAL_WIN;
use mpisim::{RmaEvent, RmaLog};

/// One rendered trace step.
#[derive(Clone, Debug)]
pub struct ReplayStep {
    /// Process that moved.
    pub pid: u8,
    /// What it did.
    pub action: Action,
}

/// A fully replayed trace: the synthesized access log, the rendered
/// steps, and the violation the final step raised (if the trace ends
/// in one).
#[derive(Debug)]
pub struct Replay {
    /// The access log, in the executor's tape vocabulary.
    pub log: RmaLog,
    /// The interpreted steps.
    pub steps: Vec<ReplayStep>,
    /// The state after the last successful step.
    pub final_state: State,
    /// The safety violation raised by the last step, if any.
    pub violation: Option<Violation>,
}

impl Replay {
    /// Run the `rma-check` epoch + race pipeline over the log.
    pub fn check(&self) -> rma_check::Report {
        rma_check::check_log(&self.log)
    }

    /// Human-readable rendering of the counterexample.
    pub fn render(&self, cfg: &Config) -> String {
        let mut out = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            // Crash steps carry a pseudo process id; attribute them
            // to the victim so the rendered trace reads naturally.
            let pid = match step.action {
                Action::Crash { victim, .. } => victim,
                _ => step.pid,
            };
            let node = cfg.node_of(pid);
            out.push_str(&format!("{i:3}. p{pid}@n{node}: {}\n", describe(step.action)));
        }
        if let Some(v) = &self.violation {
            out.push_str(&format!("     => violation: {v:?}\n"));
        }
        out
    }
}

fn describe(a: Action) -> String {
    match a {
        Action::Acquire => "acquire local window lock".into(),
        Action::Enqueue { depth } => format!("enqueue on local lock ({depth} grants ahead)"),
        Action::TakeSub { lo, hi } => format!("take sub-chunk [{lo}, {hi}) from local queue"),
        Action::BecomeRefiller => "probe empty queue; become refiller".into(),
        Action::PeerRefilling => "probe empty queue; peer refill in flight".into(),
        Action::ProbeDone => "probe empty queue; global done -> terminate".into(),
        Action::FetchChunk { lo, hi } => format!("atomic global fetch -> chunk [{lo}, {hi})"),
        Action::FetchExhausted => "atomic global fetch -> exhausted".into(),
        Action::FaaRead => "BROKEN non-atomic FAA: read global pair".into(),
        Action::FaaWriteChunk { lo, hi } => {
            format!("BROKEN non-atomic FAA: blind write, claims [{lo}, {hi})")
        }
        Action::FaaWriteExhausted => "BROKEN non-atomic FAA: stale pair exhausted".into(),
        Action::DepositChunk { lo, hi, sub_lo, sub_hi } => {
            format!("deposit [{lo}, {hi}); take sub-chunk [{sub_lo}, {sub_hi})")
        }
        Action::DepositExhausted { done: true } => {
            "deposit global-done; queue empty -> terminate".into()
        }
        Action::DepositExhausted { done: false } => "deposit global-done; queue non-empty".into(),
        Action::ObserveEmpty => "BROKEN unlocked probe: queue empty, no refill".into(),
        Action::ObservePeer => "BROKEN unlocked probe: peer refill in flight".into(),
        Action::ObserveDone => "BROKEN unlocked probe: global done -> terminate".into(),
        Action::CommitRefill => "BROKEN unlocked refill commit".into(),
        Action::Crash { holding_lock: true, .. } => "CRASH while holding the window lock".into(),
        Action::Crash { holding_lock: false, .. } => "CRASH".into(),
        Action::RepairLock { dead } => format!("repair window lock abandoned by dead p{dead}"),
        Action::RefillFailover { dead } => {
            format!("clear refill flag abandoned by dead p{dead}")
        }
        Action::Reclaim { owner, lo, hi } => {
            format!("reclaim dead p{owner}'s lease [{lo}, {hi})")
        }
    }
}

/// Re-execute `trace` from the initial state, synthesizing the RMA
/// events each transition stands for. A trailing step may raise a
/// safety violation (that is what counterexample traces end in); its
/// events up to the violating access are kept.
pub fn replay(cfg: &Config, trace: &[u8]) -> Replay {
    let mut sink: EventSink = Vec::new();
    let total = u32::from(cfg.n_procs());
    let rpn = u32::from(cfg.ranks_per_node);
    // The executor's t=0 block: every worker attaches both windows
    // and opens its run-long lock_all epoch on the global window.
    for w in 0..total {
        sink.extend(hier::protocol::attach(w, total, rpn, true));
    }

    let mut s = cfg.initial();
    let mut steps = Vec::new();
    let mut violation = None;
    for &pid in trace {
        match cfg.step(&s, pid, Some(&mut sink)) {
            Ok((ns, action)) => {
                steps.push(ReplayStep { pid, action });
                s = ns;
            }
            Err(v) => {
                violation = Some(v);
                break;
            }
        }
    }

    // Close the run-long global epochs (the executor does this as each
    // worker finishes); a leaked *node* lock stays leaked.
    for w in 0..total {
        sink.push((GLOBAL_WIN, w, RmaEvent::UnlockAll));
    }

    let log = RmaLog::new();
    for (win, rank, ev) in sink {
        log.push(win, rank, ev);
    }
    Replay { log, steps, final_state: s, violation }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::run_serial;
    use crate::model::Variant;
    use dls::Kind;

    #[test]
    fn clean_serial_trace_replays_clean() {
        // A full correct run, replayed, must pass the same checker the
        // executor's own tapes pass — proving the synthesized event
        // blocks match the protocol the checker expects.
        for (inter, intra) in [(Kind::GSS, Kind::SS), (Kind::TSS, Kind::FAC2)] {
            let cfg = Config::new(2, 2, 12, inter, intra);
            let (trace, _) = run_serial(&cfg).expect("correct model");
            let replay = replay(&cfg, &trace);
            assert!(replay.violation.is_none());
            let report = replay.check();
            assert!(report.is_clean(), "{inter}/{intra}:\n{}", report.render());
        }
    }

    #[test]
    fn render_names_processes_and_actions() {
        let cfg = Config::new(1, 2, 4, Kind::STATIC, Kind::SS);
        let (trace, _) = run_serial(&cfg).expect("correct model");
        let r = replay(&cfg, &trace);
        let text = r.render(&cfg);
        assert!(text.contains("p0@n0"), "{text}");
        assert!(text.contains("become refiller"), "{text}");
        assert!(text.contains("take sub-chunk"), "{text}");
    }

    #[test]
    fn replay_stops_at_the_violation() {
        let cfg = Config::new(1, 2, 6, Kind::SS, Kind::SS).with_variant(Variant::RefillWithoutLock);
        let out = crate::explore::explore(&cfg, &crate::explore::Options::default());
        let cex = out.violation.expect("broken variant");
        let r = replay(&cfg, &cex.trace);
        assert_eq!(r.violation.as_ref(), Some(&cex.violation));
        assert_eq!(r.steps.len(), cex.trace.len() - 1);
    }
}
