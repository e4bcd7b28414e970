//! The deterministic cooperative scheduler underneath every model run.
//!
//! A model is a closure that spawns a handful of *model threads*
//! ([`crate::thread::spawn`]) touching shared state built from the
//! instrumented primitives in [`crate::sync`]. Each model thread is a
//! real OS thread, but only one ever runs at a time: a baton is passed
//! at every *visible operation* (atomic load/store/RMW, lock
//! acquire/release, condvar wait/notify, join), so one execution is a
//! total order of visible ops chosen by the explorer. Every choice of
//! the next thread is recorded as a [`DecisionRec`], and a recorded
//! decision vector replays the exact execution, which is what lets the
//! explorer backtrack depth-first through the schedule space.
//!
//! The memory model is sequential consistency: every load and every
//! read-modify-write reads the latest store, whatever its declared
//! `Ordering`. The races the models look for are check-then-act races
//! over interleavings, which SC exposes; a weak-memory behaviour (a
//! `Relaxed` load reading a stale store) is out of scope.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
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

/// Which thread performs its pending op next: the one nondeterministic
/// decision of a run. Only recorded when more than one thread was
/// enabled.
#[derive(Clone, Debug)]
pub(crate) struct DecisionRec {
    /// Enabled threads, ascending tid, with their pending op info.
    pub enabled: Vec<(Tid, DepInfo)>,
    /// Index into `enabled`.
    pub chosen: usize,
    /// Trace length when the decision was taken (lets the explorer see
    /// which threads executed between two decision points).
    pub at_step: usize,
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

enum Obj {
    /// An atomic's current value.
    Atomic(u64),
    /// A lock and its holder.
    Lock(Option<Tid>),
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
        let root = self.add_thread();
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

    fn add_thread(self: &Arc<Self>) -> Tid {
        let mut st = lock_recover(&self.m);
        let tid = st.threads.len();
        assert!(tid < MAX_THREADS, "model spawned more than {MAX_THREADS} threads");
        let end_obj = st.objs.len();
        st.objs.push(Obj::Cv);
        st.threads.push(ThreadSlot {
            parked: Some(Pending {
                kind: PendingKind::Start,
                dep: DepInfo { obj: None, write: false },
            }),
            finished: false,
            cv_notified: false,
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
        let tid = self.add_thread();
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
                    Obj::Lock(held_by) => held_by.is_none(),
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
            st.decisions.push(DecisionRec {
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
        effect(&mut lock_recover(&self.m))
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

    fn push_step(st: &mut ExecState, tid: Tid, text: String) {
        st.trace.push(Step { tid, text });
    }

    // ---- object registration ---------------------------------------------

    pub(crate) fn register_atomic(&self, init: u64) -> usize {
        let mut st = lock_recover(&self.m);
        let id = st.objs.len();
        st.objs.push(Obj::Atomic(init));
        id
    }

    pub(crate) fn register_lock(&self) -> usize {
        let mut st = lock_recover(&self.m);
        let id = st.objs.len();
        st.objs.push(Obj::Lock(None));
        id
    }

    pub(crate) fn register_cv(&self) -> usize {
        let mut st = lock_recover(&self.m);
        let id = st.objs.len();
        st.objs.push(Obj::Cv);
        id
    }

    // ---- atomics ----------------------------------------------------------

    fn atomic_mut(st: &mut ExecState, id: usize) -> &mut u64 {
        match &mut st.objs[id] {
            Obj::Atomic(val) => val,
            _ => unreachable!("atomic id points at a non-atomic"),
        }
    }

    pub(crate) fn atomic_load(&self, me: Tid, id: usize) -> u64 {
        let pending =
            Pending { kind: PendingKind::Op, dep: DepInfo { obj: Some(id), write: false } };
        self.visible_op(me, pending, move |st| {
            let val = *Self::atomic_mut(st, id);
            Self::push_step(st, me, format!("load #{id} -> {val}"));
            val
        })
    }

    pub(crate) fn atomic_store(&self, me: Tid, id: usize, val: u64) {
        let pending =
            Pending { kind: PendingKind::Op, dep: DepInfo { obj: Some(id), write: true } };
        self.visible_op(me, pending, move |st| {
            *Self::atomic_mut(st, id) = val;
            Self::push_step(st, me, format!("store #{id} = {val}"));
        })
    }

    /// Atomic read-modify-write: reads the current value and writes
    /// back whatever `f` returns. `f` returning `None` makes it a
    /// failed `fetch_update` (a pure read).
    pub(crate) fn atomic_rmw(
        &self,
        me: Tid,
        id: usize,
        label: &'static str,
        f: impl FnOnce(u64) -> Option<u64>,
    ) -> (u64, bool) {
        let pending =
            Pending { kind: PendingKind::Op, dep: DepInfo { obj: Some(id), write: true } };
        self.visible_op(me, pending, move |st| {
            let old = *Self::atomic_mut(st, id);
            let new = f(old);
            if let Some(new) = new {
                *Self::atomic_mut(st, id) = new;
                Self::push_step(st, me, format!("{label} #{id}: {old} -> {new}"));
            } else {
                Self::push_step(st, me, format!("{label} #{id}: {old} (no write)"));
            }
            (old, new.is_some())
        })
    }

    // ---- locks ------------------------------------------------------------

    pub(crate) fn lock_acquire(&self, me: Tid, id: usize) {
        let pending = Pending {
            kind: PendingKind::LockAcquire(id),
            dep: DepInfo { obj: Some(id), write: true },
        };
        self.visible_op(me, pending, move |st| {
            match &mut st.objs[id] {
                Obj::Lock(held_by) => {
                    // Enabledness guaranteed the lock was free when this
                    // thread was scheduled, and nothing ran since.
                    assert!(held_by.is_none(), "scheduled a lock acquire on a held lock");
                    *held_by = Some(me);
                }
                _ => unreachable!("lock id points at a non-lock"),
            }
            Self::push_step(st, me, format!("lock #{id}"));
        })
    }

    pub(crate) fn lock_release(&self, me: Tid, id: usize) {
        // Guard drops run during abort unwinding; never re-panic here,
        // just mark the lock free so nothing wedges.
        {
            let mut st = lock_recover(&self.m);
            if st.abort {
                if let Obj::Lock(held_by) = &mut st.objs[id] {
                    *held_by = None;
                }
                return;
            }
        }
        let pending =
            Pending { kind: PendingKind::Op, dep: DepInfo { obj: Some(id), write: true } };
        self.visible_op(me, pending, move |st| {
            match &mut st.objs[id] {
                Obj::Lock(held_by) => {
                    debug_assert_eq!(*held_by, Some(me), "unlock by non-holder");
                    *held_by = None;
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
            match &mut st.objs[lock] {
                Obj::Lock(held_by) => {
                    debug_assert_eq!(*held_by, Some(me));
                    *held_by = None;
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
            Self::push_step(st, me, format!("join T{target}"));
        })
    }
}
