//! The deterministic cooperative scheduler underneath every model run.
//!
//! A model is a closure that spawns a handful of *model threads*
//! ([`crate::thread::spawn`]) touching shared state built from the
//! instrumented primitives in [`crate::sync`]. Each model thread is a
//! real OS thread, but only one ever runs at a time: a baton is passed
//! at every *visible operation* (atomic load/store/RMW, lock
//! acquire/release, condvar wait/notify, join), so one execution is a
//! total order of visible ops chosen by the explorer. Everything a run
//! decides — which thread steps next, which store a `Relaxed` load
//! observes — is recorded as a [`DecisionRec`], and a recorded decision
//! vector replays the exact execution, which is what lets the explorer
//! backtrack depth-first through the schedule space.
//!
//! Memory-ordering model (a deliberately bounded subset of C11, the
//! loom approach scaled to what `dls-service` uses):
//!
//! * every atomic carries its full modification order (a store list);
//! * an RMW always reads the *latest* store — C11 guarantees RMWs read
//!   the last value in modification order, which is exactly why
//!   `fetch_add`/`fetch_max` counters never lose updates even when
//!   `Relaxed`;
//! * a `SeqCst` load reads the latest store (the scheduler's execution
//!   order is the SC total order);
//! * an `Acquire`/`Relaxed` load may read any store newer than both the
//!   newest store that happens-before it and the newest store this
//!   thread has already observed (per-thread coherence floor), bounded
//!   by a staleness window of [`STALE_WINDOW`] stores — each extra
//!   candidate is a branch point the explorer enumerates;
//! * `Release` stores carry the writer's vector clock; an acquiring
//!   read of a release store joins it (happens-before edges); mutexes
//!   carry a clock the same way.
//!
//! The model is *sound for the protocols checked here* (it can only
//! miss weak behaviours, never invent impossible ones): it
//! under-approximates staleness (bounded window, no IRIW-style
//! SC-fence subtleties) and never reorders a thread's own operations.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};

/// Model-thread identifier (dense, 0 = the model's root closure).
pub(crate) type Tid = usize;

/// Panic payload used to unwind model threads when a run is aborted
/// (violation found or replay finished); never reported as a failure.
struct Aborted;

/// Hard cap on model threads per run (models are meant to be tiny).
const MAX_THREADS: usize = 16;

/// Per-run visible-op cap; a run past it is reported as
/// [`ViolationKind::TooManySteps`].
const MAX_STEPS: usize = 2_000;

/// How many stores back a `Relaxed`/`Acquire` load may observe.
const STALE_WINDOW: usize = 2;

// ---------------------------------------------------------------------------
// Decisions, traces, violations
// ---------------------------------------------------------------------------

/// Dependence information for one declared pending operation — what the
/// sleep-set pruner needs to decide whether two transitions commute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DepInfo {
    /// Object the op touches (`None` = thread-local: start/join).
    pub obj: Option<usize>,
    /// Mutating (store/RMW/lock/unlock/notify) vs pure read.
    pub write: bool,
}

impl DepInfo {
    /// Two ops are dependent iff they touch the same object and at
    /// least one mutates it. Ops without an object commute with
    /// everything.
    pub(crate) fn dependent(&self, other: &DepInfo) -> bool {
        match (self.obj, other.obj) {
            (Some(a), Some(b)) => a == b && (self.write || other.write),
            _ => false,
        }
    }
}

/// One nondeterministic decision taken during a run.
#[derive(Clone, Debug)]
pub(crate) enum DecisionRec {
    /// Which thread performs its pending op next. Only recorded when
    /// more than one thread was enabled.
    Sched {
        /// Enabled threads, ascending tid, with their pending op info.
        enabled: Vec<(Tid, DepInfo)>,
        /// Index into `enabled`.
        chosen: usize,
        /// Trace length when the decision was taken (lets the explorer
        /// see which threads executed between two decision points).
        at_step: usize,
    },
    /// Which of `arity` legal stores a stale-capable load observed.
    /// `chosen == arity - 1` is the newest (SC-consistent) store.
    Value {
        /// Number of legal candidate stores.
        arity: usize,
        /// Index into the candidate list (oldest first).
        chosen: usize,
    },
}

/// One executed visible op, for counterexample traces.
#[derive(Clone, Debug)]
pub(crate) struct Step {
    /// Thread that performed the op.
    pub tid: Tid,
    /// Human-readable description ("lock #2", "load #0 -> 3"; `#n` is
    /// the object's registration order in the run).
    pub text: String,
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{} {}", self.tid, self.text)
    }
}

/// Why a run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ViolationKind {
    /// A model assertion fired (message captured from the panic).
    Property(String),
    /// No thread was enabled while some had not finished.
    Deadlock,
    /// The run exceeded [`MAX_STEPS`] — a livelocked or unbounded model.
    TooManySteps,
}

#[derive(Clone, Debug)]
pub(crate) struct Violation {
    pub kind: ViolationKind,
    pub trace: Vec<Step>,
}

/// Everything the explorer needs from one finished run.
pub(crate) struct RunResult {
    pub decisions: Vec<DecisionRec>,
    pub trace: Vec<Step>,
    pub violation: Option<Violation>,
}

// ---------------------------------------------------------------------------
// Shared objects
// ---------------------------------------------------------------------------

type VClock = Vec<u64>;

fn clock_join(into: &mut VClock, from: &VClock) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (i, &v) in from.iter().enumerate() {
        if into[i] < v {
            into[i] = v;
        }
    }
}

#[derive(Clone, Debug)]
struct AtomicStore {
    val: u64,
    writer: Tid,
    /// Writer's clock component at the store (happens-before test).
    writer_time: u64,
    /// Full clock carried when the store had release semantics.
    release: Option<VClock>,
}

struct AtomicObj {
    /// Modification order, oldest first. Never empty (holds the init).
    stores: Vec<AtomicStore>,
    /// Per-thread index of the newest store already observed
    /// (read-read coherence floor).
    seen: Vec<usize>,
}

struct LockObj {
    held_by: Option<Tid>,
    /// Clock released with the lock (happens-before through critical
    /// sections).
    clock: VClock,
}

enum Obj {
    Atomic(AtomicObj),
    Lock(LockObj),
    Cv,
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// What a parked thread will do once scheduled — drives enabledness.
#[derive(Clone, Copy, Debug)]
enum PendingKind {
    /// First scheduling of a freshly spawned thread.
    Start,
    /// A plain visible op on `DepInfo.obj` (runs unconditionally).
    Op,
    /// Acquire the lock; enabled only while it is free.
    LockAcquire(usize),
    /// Wait for `Tid` to finish.
    Join(Tid),
    /// Parked in a condvar wait; enabled when notified, or any time if
    /// the wait carries a timeout (timeout and spurious wakeups are the
    /// same transition).
    CvWake { cv: usize, timeout_ok: bool },
}

#[derive(Clone, Debug)]
struct Pending {
    kind: PendingKind,
    dep: DepInfo,
}

struct ThreadSlot {
    parked: Option<Pending>,
    finished: bool,
    /// Set while parked in a condvar wait and a notify arrived.
    cv_notified: bool,
    clock: VClock,
    final_clock: Option<VClock>,
    /// Synthetic object representing this thread's completion, so the
    /// sleep-set pruner sees a `join` and the joinee's final `finish`
    /// op as dependent (a join's enabledness flips when it runs).
    end_obj: usize,
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

struct ExecState {
    threads: Vec<ThreadSlot>,
    objs: Vec<Obj>,
    baton: Option<Tid>,
    last_scheduled: Option<Tid>,
    live: usize,
    replay: VecDeque<usize>,
    decisions: Vec<DecisionRec>,
    trace: Vec<Step>,
    violation: Option<Violation>,
    abort: bool,
    done: bool,
}

/// One deterministic execution of a model under a replayed decision
/// prefix. Shared between the model threads and the harness.
pub(crate) struct Execution {
    m: Mutex<ExecState>,
    cv: Condvar,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Execution>, Tid)>> = const { RefCell::new(None) };
    static IN_MODEL: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with the calling thread's execution context, if any. Model
/// threads have one; production threads (the plain-`std` fallback of
/// the instrumented primitives) do not.
pub(crate) fn with_ctx<R>(f: impl FnOnce(Option<&(Arc<Execution>, Tid)>) -> R) -> R {
    CTX.with(|c| f(c.borrow().as_ref()))
}

fn in_model() -> bool {
    IN_MODEL.with(|f| f.get())
}

/// Install (once per process) a panic hook that keeps model-thread
/// panics quiet: every counterexample the explorer finds is a panic
/// first, and printing thousands of backtraces during a search would
/// drown the real report.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !in_model() {
                prev(info);
            }
        }));
    });
}

fn lock_recover<'a>(m: &'a Mutex<ExecState>) -> MutexGuard<'a, ExecState> {
    // Model threads unwind through this mutex on aborts; poisoning is
    // expected and harmless (state is only read after `done`).
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn panic_msg(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model panicked with a non-string payload".to_string()
    }
}

impl Execution {
    pub(crate) fn new(replay: Vec<usize>) -> Arc<Execution> {
        Arc::new(Execution {
            m: Mutex::new(ExecState {
                threads: Vec::new(),
                objs: Vec::new(),
                baton: None,
                last_scheduled: None,
                live: 0,
                replay: replay.into(),
                decisions: Vec::new(),
                trace: Vec::new(),
                violation: None,
                abort: false,
                done: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Spawn the model's root closure as thread 0 and run the whole
    /// execution to completion (all threads finished or aborted).
    pub(crate) fn run(self: &Arc<Self>, model: Arc<dyn Fn() + Send + Sync>) -> RunResult {
        install_quiet_hook();
        let root = self.add_thread(None);
        debug_assert_eq!(root, 0);
        {
            let mut st = lock_recover(&self.m);
            st.baton = Some(0);
        }
        self.start_os_thread(root, move || model());
        let mut st = lock_recover(&self.m);
        while !st.done {
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        RunResult {
            decisions: std::mem::take(&mut st.decisions),
            trace: std::mem::take(&mut st.trace),
            violation: st.violation.clone(),
        }
    }

    fn add_thread(self: &Arc<Self>, parent: Option<Tid>) -> Tid {
        let mut st = lock_recover(&self.m);
        let tid = st.threads.len();
        assert!(tid < MAX_THREADS, "model spawned more than {MAX_THREADS} threads");
        let clock = match parent {
            // Spawn edge: the child starts with (a bumped copy of) the
            // parent's clock, so everything the parent did
            // happens-before the child.
            Some(p) => st.threads[p].clock.clone(),
            None => Vec::new(),
        };
        let end_obj = st.objs.len();
        st.objs.push(Obj::Cv);
        st.threads.push(ThreadSlot {
            parked: Some(Pending {
                kind: PendingKind::Start,
                dep: DepInfo { obj: None, write: false },
            }),
            finished: false,
            cv_notified: false,
            clock,
            final_clock: None,
            end_obj,
        });
        st.live += 1;
        tid
    }

    /// Spawn a model thread running `f`; it parks until first scheduled.
    pub(crate) fn spawn_model<T, F>(self: &Arc<Self>, f: F) -> crate::thread::JoinHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let me = with_ctx(|c| c.map(|(_, tid)| *tid)).expect("spawn outside a model run");
        let tid = self.add_thread(Some(me));
        let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&result);
        self.start_os_thread(tid, move || {
            let r = f();
            *slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(r);
        });
        crate::thread::JoinHandle::new(Arc::clone(self), tid, result)
    }

    fn start_os_thread(self: &Arc<Self>, tid: Tid, f: impl FnOnce() + Send + 'static) {
        let exec = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("model-{tid}"))
            .spawn(move || {
                CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), tid)));
                IN_MODEL.with(|m| m.set(true));
                // The first scheduling of this thread is a decision like
                // any other: park on the synthetic `Start` op; completion
                // is a visible `finish` op on the thread's end-object so
                // pending joins observe it as a dependent transition.
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    exec.wait_for_baton(tid);
                    f();
                    exec.finish_op(tid);
                }));
                match outcome {
                    Ok(()) => exec.thread_finished(tid, None),
                    Err(p) if p.is::<Aborted>() => exec.thread_finished(tid, None),
                    Err(p) => exec.thread_finished(tid, Some(panic_msg(p.as_ref()))),
                }
                CTX.with(|c| *c.borrow_mut() = None);
            })
            .expect("spawn model OS thread");
    }

    // ---- scheduling core --------------------------------------------------

    fn enabled(st: &ExecState) -> Vec<(Tid, DepInfo)> {
        let mut out = Vec::new();
        for (tid, t) in st.threads.iter().enumerate() {
            if t.finished {
                continue;
            }
            let Some(p) = &t.parked else { continue };
            let runnable = match p.kind {
                PendingKind::Start | PendingKind::Op => true,
                PendingKind::LockAcquire(l) => match &st.objs[l] {
                    Obj::Lock(lk) => lk.held_by.is_none(),
                    _ => unreachable!("lock id points at a non-lock"),
                },
                PendingKind::Join(target) => st.threads[target].finished,
                PendingKind::CvWake { timeout_ok, .. } => t.cv_notified || timeout_ok,
            };
            if runnable {
                out.push((tid, p.dep));
            }
        }
        out
    }

    /// Pick the next baton holder. Called with no thread running (the
    /// caller parked itself or finished).
    fn schedule(&self, st: &mut ExecState) {
        if st.abort {
            self.cv.notify_all();
            return;
        }
        let enabled = Self::enabled(st);
        if enabled.is_empty() {
            if st.live > 0 {
                // Every unfinished thread is blocked: deadlock.
                st.violation =
                    Some(Violation { kind: ViolationKind::Deadlock, trace: st.trace.clone() });
                st.abort = true;
            }
            self.cv.notify_all();
            return;
        }
        let chosen_idx = if enabled.len() == 1 {
            0
        } else if let Some(forced) = st.replay.pop_front() {
            assert!(
                forced < enabled.len(),
                "replay divergence: decision {} of {} enabled",
                forced,
                enabled.len()
            );
            forced
        } else {
            // Default policy: keep running the previous thread when it
            // is still enabled (no preemption), else the lowest tid.
            // Low-preemption defaults make first counterexamples short.
            st.last_scheduled
                .and_then(|prev| enabled.iter().position(|&(t, _)| t == prev))
                .unwrap_or(0)
        };
        if enabled.len() > 1 {
            st.decisions.push(DecisionRec::Sched {
                enabled: enabled.clone(),
                chosen: chosen_idx,
                at_step: st.trace.len(),
            });
        }
        let tid = enabled[chosen_idx].0;
        st.last_scheduled = Some(tid);
        st.baton = Some(tid);
        self.cv.notify_all();
    }

    fn wait_for_baton(&self, me: Tid) {
        let mut st = lock_recover(&self.m);
        while st.baton != Some(me) {
            if st.abort {
                drop(st);
                panic::panic_any(Aborted);
            }
            st = self.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if st.abort {
            drop(st);
            panic::panic_any(Aborted);
        }
        st.threads[me].parked = None;
    }

    /// Park at a visible op, wait to be scheduled, then run `effect`
    /// atomically (under the execution mutex, baton in hand).
    fn visible_op<R>(
        &self,
        me: Tid,
        pending: Pending,
        effect: impl FnOnce(&mut ExecState) -> R,
    ) -> R {
        {
            let mut st = lock_recover(&self.m);
            if st.abort {
                drop(st);
                panic::panic_any(Aborted);
            }
            if st.trace.len() >= MAX_STEPS {
                st.violation =
                    Some(Violation { kind: ViolationKind::TooManySteps, trace: st.trace.clone() });
                st.abort = true;
                self.cv.notify_all();
                drop(st);
                panic::panic_any(Aborted);
            }
            st.threads[me].parked = Some(pending);
            st.baton = None;
            self.schedule(&mut st);
        }
        self.wait_for_baton(me);
        let mut st = lock_recover(&self.m);
        // Each visible op advances the thread's clock component.
        if st.threads[me].clock.len() <= me {
            st.threads[me].clock.resize(me + 1, 0);
        }
        st.threads[me].clock[me] += 1;
        effect(&mut st)
    }

    fn thread_finished(self: &Arc<Self>, me: Tid, panic_message: Option<String>) {
        let mut st = lock_recover(&self.m);
        if let Some(msg) = panic_message {
            if !st.abort {
                st.violation =
                    Some(Violation { kind: ViolationKind::Property(msg), trace: st.trace.clone() });
                st.abort = true;
            }
        }
        let clock = st.threads[me].clock.clone();
        st.threads[me].final_clock = Some(clock);
        st.threads[me].finished = true;
        st.threads[me].parked = None;
        st.live -= 1;
        if st.live == 0 {
            st.done = true;
        } else if st.baton == Some(me) || st.baton.is_none() {
            st.baton = None;
            self.schedule(&mut st);
        }
        self.cv.notify_all();
    }

    /// Record a value decision (which of `arity` candidates a stale
    /// load observes). Runs inside a visible op's effect.
    fn choose_inner(st: &mut ExecState, arity: usize) -> usize {
        if arity <= 1 {
            return 0;
        }
        let chosen = match st.replay.pop_front() {
            Some(forced) => {
                assert!(forced < arity, "replay divergence: value {forced} of {arity}");
                forced
            }
            // Default: the newest store (the SC-consistent execution).
            None => arity - 1,
        };
        st.decisions.push(DecisionRec::Value { arity, chosen });
        chosen
    }

    fn push_step(st: &mut ExecState, tid: Tid, text: String) {
        st.trace.push(Step { tid, text });
    }

    // ---- object registration ---------------------------------------------

    pub(crate) fn register_atomic(&self, init: u64) -> usize {
        let mut st = lock_recover(&self.m);
        let id = st.objs.len();
        st.objs.push(Obj::Atomic(AtomicObj {
            stores: vec![AtomicStore { val: init, writer: 0, writer_time: 0, release: None }],
            seen: Vec::new(),
        }));
        id
    }

    pub(crate) fn register_lock(&self) -> usize {
        let mut st = lock_recover(&self.m);
        let id = st.objs.len();
        st.objs.push(Obj::Lock(LockObj { held_by: None, clock: Vec::new() }));
        id
    }

    pub(crate) fn register_cv(&self) -> usize {
        let mut st = lock_recover(&self.m);
        let id = st.objs.len();
        st.objs.push(Obj::Cv);
        id
    }

    // ---- atomics ----------------------------------------------------------

    fn atomic_mut(st: &mut ExecState, id: usize) -> &mut AtomicObj {
        match &mut st.objs[id] {
            Obj::Atomic(a) => a,
            _ => unreachable!("atomic id points at a non-atomic"),
        }
    }

    fn is_acquire(ord: Ordering) -> bool {
        matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
    }

    fn is_release(ord: Ordering) -> bool {
        matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
    }

    pub(crate) fn atomic_load(&self, me: Tid, id: usize, ord: Ordering) -> u64 {
        let pending =
            Pending { kind: PendingKind::Op, dep: DepInfo { obj: Some(id), write: false } };
        self.visible_op(me, pending, move |st| {
            let my_clock = st.threads[me].clock.clone();
            let a = Self::atomic_mut(st, id);
            let len = a.stores.len();
            if a.seen.len() <= me {
                a.seen.resize(me + 1, 0);
            }
            // Oldest store this load may legally observe:
            //  - nothing older than the newest store that happens-before
            //    the load (write-read coherence),
            //  - nothing older than what this thread already read
            //    (read-read coherence),
            //  - nothing outside the staleness window.
            let mut floor = a.seen[me];
            for (i, s) in a.stores.iter().enumerate().rev() {
                let seen_of_writer = my_clock.get(s.writer).copied().unwrap_or(0);
                if seen_of_writer >= s.writer_time {
                    floor = floor.max(i);
                    break;
                }
            }
            floor = floor.max((len - 1).saturating_sub(STALE_WINDOW));
            let idx = if ord == Ordering::SeqCst || floor == len - 1 {
                len - 1
            } else {
                let choice = Self::choose_inner(st, len - floor);
                let idx = floor + choice;
                if idx != len - 1 {
                    let val = Self::atomic_mut(st, id).stores[idx].val;
                    Self::push_step(
                        st,
                        me,
                        format!("load #{id} -> {val} (stale: {} newer)", len - 1 - idx),
                    );
                }
                idx
            };
            let a = Self::atomic_mut(st, id);
            a.seen[me] = idx;
            let val = a.stores[idx].val;
            let release = a.stores[idx].release.clone();
            if idx == a.stores.len() - 1 {
                Self::push_step(st, me, format!("load #{id} -> {val}"));
            }
            if Self::is_acquire(ord) {
                if let Some(rc) = release {
                    clock_join(&mut st.threads[me].clock, &rc);
                }
            }
            val
        })
    }

    pub(crate) fn atomic_store(&self, me: Tid, id: usize, val: u64, ord: Ordering) {
        let pending =
            Pending { kind: PendingKind::Op, dep: DepInfo { obj: Some(id), write: true } };
        self.visible_op(me, pending, move |st| {
            let clock = st.threads[me].clock.clone();
            let time = clock[me];
            let release = Self::is_release(ord).then(|| clock.clone());
            let a = Self::atomic_mut(st, id);
            a.stores.push(AtomicStore { val, writer: me, writer_time: time, release });
            let idx = a.stores.len() - 1;
            if a.seen.len() <= me {
                a.seen.resize(me + 1, 0);
            }
            a.seen[me] = idx;
            Self::push_step(st, me, format!("store #{id} = {val}"));
        })
    }

    /// Atomic read-modify-write: always reads the newest store in
    /// modification order (the C11 RMW guarantee), writes back whatever
    /// `f` returns. `f` returning `None` makes it a failed
    /// `fetch_update` (a pure read).
    pub(crate) fn atomic_rmw(
        &self,
        me: Tid,
        id: usize,
        ord: Ordering,
        label: &'static str,
        f: impl FnOnce(u64) -> Option<u64>,
    ) -> (u64, bool) {
        let pending =
            Pending { kind: PendingKind::Op, dep: DepInfo { obj: Some(id), write: true } };
        self.visible_op(me, pending, move |st| {
            let clock = st.threads[me].clock.clone();
            let time = clock[me];
            let a = Self::atomic_mut(st, id);
            let old = a.stores.last().expect("init store").val;
            let old_release = a.stores.last().expect("init store").release.clone();
            let new = f(old);
            let wrote = new.is_some();
            if let Some(new) = new {
                let release = Self::is_release(ord).then(|| clock.clone());
                a.stores.push(AtomicStore { val: new, writer: me, writer_time: time, release });
                let idx = a.stores.len() - 1;
                if a.seen.len() <= me {
                    a.seen.resize(me + 1, 0);
                }
                a.seen[me] = idx;
                Self::push_step(st, me, format!("{label} #{id}: {old} -> {new}"));
            } else {
                if a.seen.len() <= me {
                    a.seen.resize(me + 1, 0);
                }
                a.seen[me] = a.stores.len() - 1;
                Self::push_step(st, me, format!("{label} #{id}: {old} (no write)"));
            }
            if Self::is_acquire(ord) {
                if let Some(rc) = old_release {
                    clock_join(&mut st.threads[me].clock, &rc);
                }
            }
            (old, wrote)
        })
    }

    // ---- locks ------------------------------------------------------------

    pub(crate) fn lock_acquire(&self, me: Tid, id: usize) {
        let pending = Pending {
            kind: PendingKind::LockAcquire(id),
            dep: DepInfo { obj: Some(id), write: true },
        };
        self.visible_op(me, pending, move |st| {
            let clock = match &mut st.objs[id] {
                Obj::Lock(lk) => {
                    // Enabledness guaranteed the lock was free when this
                    // thread was scheduled, and nothing ran since.
                    assert!(lk.held_by.is_none(), "scheduled a lock acquire on a held lock");
                    lk.held_by = Some(me);
                    lk.clock.clone()
                }
                _ => unreachable!("lock id points at a non-lock"),
            };
            clock_join(&mut st.threads[me].clock, &clock);
            Self::push_step(st, me, format!("lock #{id}"));
        })
    }

    pub(crate) fn lock_release(&self, me: Tid, id: usize) {
        // Guard drops run during abort unwinding; never re-panic here,
        // just mark the lock free so nothing wedges.
        {
            let mut st = lock_recover(&self.m);
            if st.abort {
                if let Obj::Lock(lk) = &mut st.objs[id] {
                    lk.held_by = None;
                }
                return;
            }
        }
        let pending =
            Pending { kind: PendingKind::Op, dep: DepInfo { obj: Some(id), write: true } };
        self.visible_op(me, pending, move |st| {
            let my_clock = st.threads[me].clock.clone();
            match &mut st.objs[id] {
                Obj::Lock(lk) => {
                    debug_assert_eq!(lk.held_by, Some(me), "unlock by non-holder");
                    lk.held_by = None;
                    lk.clock = my_clock;
                }
                _ => unreachable!("lock id points at a non-lock"),
            }
            Self::push_step(st, me, format!("unlock #{id}"));
        })
    }

    // ---- condvars ---------------------------------------------------------

    /// Release `lock`, park on `cv`, and once woken (notify, or timeout
    /// when `timeout_ok`) reacquire `lock`. Returns whether the wake
    /// was a notification.
    pub(crate) fn cv_wait(&self, me: Tid, cv: usize, lock: usize, timeout_ok: bool) -> bool {
        // The wait's visible half: atomically release the lock and park.
        // Its dependence is the *lock* (releasing it is what enables
        // other threads); the parked half below depends on the cv.
        let pending =
            Pending { kind: PendingKind::Op, dep: DepInfo { obj: Some(lock), write: true } };
        self.visible_op(me, pending, move |st| {
            let my_clock = st.threads[me].clock.clone();
            match &mut st.objs[lock] {
                Obj::Lock(lk) => {
                    debug_assert_eq!(lk.held_by, Some(me));
                    lk.held_by = None;
                    lk.clock = my_clock;
                }
                _ => unreachable!("cv wait on a non-lock"),
            }
            st.threads[me].cv_notified = false;
            Self::push_step(st, me, format!("wait #{cv}"));
        });
        // Park until notified or (if allowed) timed out, as one
        // scheduling decision.
        let pending = Pending {
            kind: PendingKind::CvWake { cv, timeout_ok },
            dep: DepInfo { obj: Some(cv), write: false },
        };
        let notified = self.visible_op(me, pending, move |st| {
            let n = st.threads[me].cv_notified;
            st.threads[me].cv_notified = false;
            Self::push_step(st, me, format!("wake ({})", if n { "notified" } else { "timeout" }));
            n
        });
        self.lock_acquire(me, lock);
        notified
    }

    pub(crate) fn cv_notify_all(&self, me: Tid, cv: usize) {
        let pending =
            Pending { kind: PendingKind::Op, dep: DepInfo { obj: Some(cv), write: true } };
        self.visible_op(me, pending, move |st| {
            for t in &mut st.threads {
                if let Some(p) = &t.parked {
                    if let PendingKind::CvWake { cv: waiting_on, .. } = p.kind {
                        if waiting_on == cv {
                            t.cv_notified = true;
                        }
                    }
                }
            }
            Self::push_step(st, me, format!("notify_all #{cv}"));
        })
    }

    // ---- joins ------------------------------------------------------------

    /// Final visible op of every model thread: flips the thread's
    /// end-object so joins become enabled through a recorded, dependent
    /// transition.
    fn finish_op(&self, me: Tid) {
        let end_obj = lock_recover(&self.m).threads[me].end_obj;
        let pending =
            Pending { kind: PendingKind::Op, dep: DepInfo { obj: Some(end_obj), write: true } };
        self.visible_op(me, pending, move |st| {
            Self::push_step(st, me, "finish".to_string());
        })
    }

    pub(crate) fn join_thread(&self, me: Tid, target: Tid) {
        let end_obj = lock_recover(&self.m).threads[target].end_obj;
        let pending = Pending {
            kind: PendingKind::Join(target),
            dep: DepInfo { obj: Some(end_obj), write: false },
        };
        self.visible_op(me, pending, move |st| {
            // Join edge: everything the child did happens-before the
            // joiner's continuation.
            let child = st.threads[target].final_clock.clone().unwrap_or_default();
            clock_join(&mut st.threads[me].clock, &child);
            Self::push_step(st, me, format!("join T{target}"));
        })
    }
}
