//! The schedule explorer: stateless depth-first search over every
//! nondeterministic decision a model run can take.
//!
//! Each run of a model under [`crate::sched::Execution`] records its
//! decision vector (which thread stepped at each contended point). The
//! explorer re-runs the model with a replayed prefix and one decision
//! flipped, walking the whole decision tree depth-first.
//!
//! **Sleep sets** (a classic partial-order reduction) keep that
//! tractable: once the subtree starting with thread `t` has been fully
//! explored from a state, sibling branches need not re-run `t` from
//! that state until a *dependent* transition (same object, at least one
//! write) invalidates the equivalence. Sound for safety properties:
//! every Mazurkiewicz trace keeps at least one representative.

use crate::sched::{DecisionRec, DepInfo, Execution, Step, Tid, ViolationKind};
use std::sync::Arc;

/// Hard cap on executed schedules; exceeding it yields a pass with
/// `complete == false` rather than running forever.
const MAX_SCHEDULES: usize = 200_000;

/// Statistics from a completed (or capped) exploration.
#[derive(Clone, Debug)]
pub struct Stats {
    /// Schedules executed.
    pub schedules: usize,
    /// Whether the decision tree was exhausted (false = the schedule
    /// cap was hit; the pass is then only a bounded smoke result).
    pub complete: bool,
}

/// A failing schedule.
#[derive(Clone, Debug)]
pub struct Counterexample {
    kind: ViolationKind,
    /// The failing schedule's visible ops, in execution order.
    trace: Vec<Step>,
    /// Schedules executed before the failure was found.
    schedules: usize,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ViolationKind::Property(msg) => writeln!(f, "property violation: {msg}")?,
            ViolationKind::Deadlock => writeln!(f, "deadlock: all live threads blocked")?,
            ViolationKind::TooManySteps => writeln!(f, "run exceeded the step limit")?,
        }
        writeln!(f, "schedule (found after {} schedules):", self.schedules)?;
        for (i, s) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:3}  {s}")?;
        }
        Ok(())
    }
}

/// Result of exploring one model.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// No schedule violated the model's assertions.
    Pass(Stats),
    /// Some schedule did.
    Fail(Counterexample),
}

// ---------------------------------------------------------------------------
// DFS frames
// ---------------------------------------------------------------------------

struct Frame {
    enabled: Vec<(Tid, DepInfo)>,
    at_step: usize,
    /// Index currently being explored.
    chosen: usize,
    /// Alternatives already descended into.
    explored: Vec<bool>,
    /// Sleep set (inherited + accumulated), by `enabled` index.
    sleep: Vec<bool>,
}

/// Exhaustive check of every schedule of `model`, with sleep-set
/// reduction.
pub fn check<F>(model: F) -> Outcome
where
    F: Fn() + Send + Sync + 'static,
{
    explore(Arc::new(model), true)
}

/// The DFS. `sleep_sets: false` is the unpruned reference search that
/// the tests compare the reduction against.
fn explore(model: Arc<dyn Fn() + Send + Sync>, sleep_sets: bool) -> Outcome {
    let mut stack: Vec<Frame> = Vec::new();
    let mut schedules = 0usize;

    loop {
        let replay: Vec<usize> = stack.iter().map(|f| f.chosen).collect();
        let result = Execution::new(replay).run(Arc::clone(&model));
        schedules += 1;

        if let Some(v) = result.violation {
            return Outcome::Fail(Counterexample { kind: v.kind, trace: v.trace, schedules });
        }
        if schedules >= MAX_SCHEDULES {
            return Outcome::Pass(Stats { schedules, complete: false });
        }

        // Extend the stack with the decisions this run took beyond the
        // replayed prefix, inheriting sleep sets frame to frame.
        for DecisionRec { enabled, chosen, at_step } in result.decisions.iter().skip(stack.len()) {
            let mut explored = vec![false; enabled.len()];
            explored[*chosen] = true;
            let mut sleep = vec![false; enabled.len()];
            if let Some(parent) = stack.last() {
                let (p_tid, p_dep) = parent.enabled[parent.chosen];
                // Sleep inheritance is only sound across a single
                // transition: require that every step between the two
                // decisions was executed by the parent's chosen thread
                // (otherwise an unrecorded intermediate transition might
                // be dependent with a sleeping op).
                let single_transition =
                    result.trace[parent.at_step..*at_step].iter().all(|s| s.tid == p_tid);
                if sleep_sets && single_transition {
                    for (u_idx, &(u_tid, u_dep)) in enabled.iter().enumerate() {
                        if u_tid == p_tid {
                            continue;
                        }
                        let was_asleep = parent
                            .enabled
                            .iter()
                            .position(|&(t, _)| t == u_tid)
                            .is_some_and(|i| parent.sleep[i] && parent.enabled[i].1 == u_dep);
                        if was_asleep && !u_dep.dependent(&p_dep) {
                            sleep[u_idx] = true;
                        }
                    }
                }
            }
            stack.push(Frame {
                enabled: enabled.clone(),
                at_step: *at_step,
                chosen: *chosen,
                explored,
                sleep,
            });
        }

        // Backtrack: advance the deepest frame with an untried,
        // unpruned alternative; pop frames that are exhausted.
        let advanced = loop {
            let Some(Frame { enabled, chosen, explored, sleep, .. }) = stack.last_mut() else {
                break false;
            };
            // The just-finished subtree's thread goes to sleep for the
            // remaining siblings.
            sleep[*chosen] = true;
            let next = (0..enabled.len()).find(|&c| !(explored[c] || (sleep_sets && sleep[c])));
            if let Some(c) = next {
                explored[c] = true;
                *chosen = c;
                break true;
            }
            stack.pop();
        };
        if !advanced {
            return Outcome::Pass(Stats { schedules, complete: true });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicU64, Ordering};
    use crate::sync::Mutex;
    use crate::thread;
    use std::collections::BTreeSet;
    use std::sync::Mutex as StdMutex;

    fn counterexample(outcome: Outcome, what: &str) -> Counterexample {
        match outcome {
            Outcome::Fail(cx) => cx,
            Outcome::Pass(st) => {
                panic!("expected {what} to fail, but {} schedules passed", st.schedules)
            }
        }
    }

    /// Inside a model: two threads race for one slot, and each returns
    /// the count it saw before its increment, or `None` if refused.
    /// `cas` takes the slot in one `fetch_update`; otherwise a load is
    /// followed by a `fetch_add`, and both threads can pass the check
    /// before either adds.
    fn race(cas: bool) -> [Option<u64>; 2] {
        let active = Arc::new(AtomicU64::new(0));
        let racers = [(); 2].map(|()| {
            let active = Arc::clone(&active);
            thread::spawn(move || {
                if cas {
                    active
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                            (c < 1).then_some(c + 1)
                        })
                        .ok()
                } else if active.load(Ordering::SeqCst) < 1 {
                    Some(active.fetch_add(1, Ordering::SeqCst))
                } else {
                    None
                }
            })
        });
        racers.map(|r| r.join().expect("racer panicked"))
    }

    #[test]
    fn deadlocks_are_reported_with_a_trace() {
        // ABBA lock ordering: the checker must call it out as a
        // deadlock, not hang.
        let outcome = check(|| {
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            let t1 = {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                thread::spawn(move || {
                    let ga = a.lock().unwrap();
                    let gb = b.lock().unwrap();
                    drop((ga, gb));
                })
            };
            let t2 = {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                thread::spawn(move || {
                    let gb = b.lock().unwrap();
                    let ga = a.lock().unwrap();
                    drop((gb, ga));
                })
            };
            let _ = t1.join();
            let _ = t2.join();
        });
        let cx = counterexample(outcome, "ABBA deadlock");
        assert_eq!(cx.kind, ViolationKind::Deadlock, "expected a deadlock:\n{cx}");
        assert!(!cx.trace.is_empty(), "deadlock reported without a trace");
    }

    #[test]
    fn sleep_sets_agree_with_full_exploration() {
        // Verdicts: the check-then-act counter fails and the CAS counter
        // passes, with and without the reduction.
        let capped = |cas: bool| -> Arc<dyn Fn() + Send + Sync> {
            Arc::new(move || {
                let admitted = race(cas).iter().flatten().count();
                assert!(admitted <= 1, "admission cap breached");
            })
        };
        for sleep_sets in [false, true] {
            let cx = counterexample(explore(capped(false), sleep_sets), "check-then-act");
            assert_eq!(cx.kind, ViolationKind::Property("admission cap breached".into()), "{cx}");
            if let Outcome::Fail(cx) = explore(capped(true), sleep_sets) {
                panic!("the CAS counter failed (sleep sets {sleep_sets}):\n{cx}");
            }
        }
        // Stronger: every result the full search reaches, the pruned one
        // reaches too, and in fewer schedules. An unsound reduction
        // loses the breach `[Some(0), Some(1)]` here; a disabled one
        // runs as many schedules as the full search.
        for cas in [false, true] {
            let [full, pruned] = [false, true].map(|sleep_sets| {
                let seen: Arc<StdMutex<BTreeSet<[Option<u64>; 2]>>> = Arc::default();
                let record = Arc::clone(&seen);
                let model = Arc::new(move || {
                    let results = race(cas);
                    record.lock().expect("results").insert(results);
                });
                match explore(model, sleep_sets) {
                    Outcome::Pass(st) if st.complete => {
                        (st.schedules, std::mem::take(&mut *seen.lock().expect("results")))
                    }
                    other => panic!("recording the results did not exhaust: {other:?}"),
                }
            });
            assert_eq!(pruned.1, full.1, "sleep sets changed the reachable results (cas {cas})");
            assert!(
                pruned.0 < full.0,
                "sleep sets ran {} schedules, the full search {} (cas {cas})",
                pruned.0,
                full.0
            );
        }
    }
}
