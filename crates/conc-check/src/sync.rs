//! Instrumented drop-in replacements for the `std::sync` subset the
//! `dls-service` core uses.
//!
//! Inside a model run every operation is a visible op of the
//! deterministic scheduler ([`crate::sched`]): loads, stores and RMWs
//! are sequentially consistent whatever their declared
//! [`atomic::Ordering`], `Mutex` acquisition blocks
//! virtually (the scheduler never runs a thread into a held lock), and
//! `Condvar` waits model timeouts and spurious wakeups as explorable
//! transitions.
//!
//! Outside a model run — e.g. `dls-service` built with its `conc-check`
//! feature but executed as a normal server — every primitive degrades
//! to its plain `std::sync` equivalent, so the instrumented build still
//! works end to end.
//!
//! Only what `dls-service` calls is here; a primitive or method the
//! server starts to use is added in both halves of its facade.

use crate::sched::{with_ctx, Execution, Tid};
use std::sync::OnceLock;
use std::time::Duration;

pub use std::sync::Arc;

fn ctx() -> Option<(Arc<Execution>, Tid)> {
    with_ctx(|c| c.map(|(e, t)| (Arc::clone(e), *t)))
}

/// Result of a timed condvar wait. It stands in for
/// `std::sync::WaitTimeoutResult` (which has no public constructor) and
/// carries nothing: the server does not ask why a wait ended.
#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult;

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Instrumented atomics; re-exports [`std::sync::atomic::Ordering`].
pub mod atomic {
    use super::*;
    pub use std::sync::atomic::Ordering;

    /// Instrumented `AtomicU64`.
    #[derive(Debug)]
    pub struct AtomicU64 {
        real: std::sync::atomic::AtomicU64,
        vid: OnceLock<usize>,
    }

    impl AtomicU64 {
        /// New atomic with `init` as the initial store.
        pub fn new(init: u64) -> AtomicU64 {
            AtomicU64 { real: std::sync::atomic::AtomicU64::new(init), vid: OnceLock::new() }
        }

        fn vid(&self, exec: &Execution) -> usize {
            *self.vid.get_or_init(|| exec.register_atomic(self.real.load(Ordering::Relaxed)))
        }

        /// Atomic load (the latest store, inside a model).
        pub fn load(&self, ord: Ordering) -> u64 {
            match ctx() {
                Some((exec, me)) => {
                    let id = self.vid(&exec);
                    exec.atomic_load(me, id)
                }
                None => self.real.load(ord),
            }
        }

        /// Atomic store.
        pub fn store(&self, val: u64, ord: Ordering) {
            match ctx() {
                Some((exec, me)) => {
                    let id = self.vid(&exec);
                    exec.atomic_store(me, id, val);
                }
                None => self.real.store(val, ord),
            }
        }

        fn rmw(&self, label: &'static str, f: impl FnOnce(u64) -> Option<u64>) -> (u64, bool) {
            let (exec, me) = ctx().expect("rmw fallback handled by callers");
            let id = self.vid(&exec);
            exec.atomic_rmw(me, id, label, f)
        }

        /// Atomic add; returns the previous value.
        pub fn fetch_add(&self, v: u64, ord: Ordering) -> u64 {
            match ctx() {
                Some(_) => self.rmw("fetch_add", |old| Some(old.wrapping_add(v))).0,
                None => self.real.fetch_add(v, ord),
            }
        }

        /// Atomic subtract; returns the previous value.
        pub fn fetch_sub(&self, v: u64, ord: Ordering) -> u64 {
            match ctx() {
                Some(_) => self.rmw("fetch_sub", |old| Some(old.wrapping_sub(v))).0,
                None => self.real.fetch_sub(v, ord),
            }
        }

        /// Atomic max; returns the previous value.
        pub fn fetch_max(&self, v: u64, ord: Ordering) -> u64 {
            match ctx() {
                Some(_) => self.rmw("fetch_max", |old| Some(old.max(v))).0,
                None => self.real.fetch_max(v, ord),
            }
        }

        /// CAS loop with a pure update function; `Ok(prev)` when `f`
        /// returned `Some` and the write was applied.
        pub fn fetch_update(
            &self,
            set_order: Ordering,
            fetch_order: Ordering,
            mut f: impl FnMut(u64) -> Option<u64>,
        ) -> Result<u64, u64> {
            match ctx() {
                // Under the scheduler an RMW is one visible op reading
                // the current value, so a single application of `f`
                // decides success or failure.
                Some(_) => {
                    let (old, wrote) = self.rmw("fetch_update", &mut f);
                    if wrote {
                        Ok(old)
                    } else {
                        Err(old)
                    }
                }
                None => self.real.fetch_update(set_order, fetch_order, f),
            }
        }
    }

    /// Instrumented `AtomicBool` (modelled as a 0/1 `AtomicU64`).
    #[derive(Debug)]
    pub struct AtomicBool {
        inner: AtomicU64,
    }

    impl AtomicBool {
        /// New atomic flag.
        pub fn new(init: bool) -> AtomicBool {
            AtomicBool { inner: AtomicU64::new(u64::from(init)) }
        }

        /// Atomic load.
        pub fn load(&self, ord: Ordering) -> bool {
            self.inner.load(ord) != 0
        }

        /// Atomic store.
        pub fn store(&self, val: bool, ord: Ordering) {
            self.inner.store(u64::from(val), ord)
        }
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Instrumented mutex. Inside a model, acquisition is a scheduling
/// decision and can never deadlock silently (an all-blocked state is
/// reported with a trace); data is still carried by an inner
/// `std::sync::Mutex`, which the virtual protocol keeps uncontended.
#[derive(Debug)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    vid: OnceLock<usize>,
}

/// RAII guard for [`Mutex`]; releases the virtual lock on drop.
pub struct MutexGuard<'a, T> {
    // `Option` so drop order can be controlled: the inner std guard is
    // released *before* the virtual unlock yields to the scheduler.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    mutex: &'a Mutex<T>,
    model: Option<(Arc<Execution>, Tid, usize)>,
}

impl<T> Mutex<T> {
    /// New mutex owning `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex { inner: std::sync::Mutex::new(value), vid: OnceLock::new() }
    }

    fn vid(&self, exec: &Execution) -> usize {
        *self.vid.get_or_init(|| exec.register_lock())
    }

    fn std_lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Acquire the lock (a blocking visible op inside a model). Never
    /// actually poisons; the `LockResult` shape matches `std`.
    #[allow(clippy::type_complexity)]
    pub fn lock(&self) -> Result<MutexGuard<'_, T>, std::sync::PoisonError<MutexGuard<'_, T>>> {
        match ctx() {
            Some((exec, me)) => {
                let id = self.vid(&exec);
                exec.lock_acquire(me, id);
                Ok(MutexGuard {
                    inner: Some(self.std_lock()),
                    mutex: self,
                    model: Some((exec, me, id)),
                })
            }
            None => Ok(MutexGuard { inner: Some(self.std_lock()), mutex: self, model: None }),
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard already released")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard already released")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first: the virtual unlock passes the
        // baton, and the next holder re-locks the inner mutex
        // immediately.
        drop(self.inner.take());
        if let Some((exec, me, id)) = self.model.take() {
            exec.lock_release(me, id);
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Instrumented condition variable. Timed waits model the timeout (and
/// spurious wakeups) as an always-enabled transition, so properties
/// must hold whether or not the notification ever arrives — exactly the
/// contract of `Condvar::wait_timeout_while`.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    vid: OnceLock<usize>,
}

impl Condvar {
    /// New condvar.
    pub fn new() -> Condvar {
        Condvar { inner: std::sync::Condvar::new(), vid: OnceLock::new() }
    }

    fn vid(&self, exec: &Execution) -> usize {
        *self.vid.get_or_init(|| exec.register_cv())
    }

    /// Wait until `condition` returns false or the timeout fires.
    #[allow(clippy::type_complexity)]
    pub fn wait_timeout_while<'a, T, F>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: Duration,
        mut condition: F,
    ) -> Result<
        (MutexGuard<'a, T>, WaitTimeoutResult),
        std::sync::PoisonError<(MutexGuard<'a, T>, WaitTimeoutResult)>,
    >
    where
        F: FnMut(&mut T) -> bool,
    {
        match guard.model.clone() {
            Some((exec, me, lock_vid)) => {
                let cv = self.vid(&exec);
                loop {
                    if !condition(&mut guard) {
                        return Ok((guard, WaitTimeoutResult));
                    }
                    // Drop the real guard, park virtually (release +
                    // wait + virtual reacquire), then re-take the real
                    // lock the protocol has just granted us.
                    drop(guard.inner.take());
                    let notified = exec.cv_wait(me, cv, lock_vid, true);
                    guard.inner = Some(guard.mutex.std_lock());
                    if !notified {
                        return Ok((guard, WaitTimeoutResult));
                    }
                }
            }
            None => {
                let inner = guard.inner.take().expect("guard already released");
                let (g, _) = match self.inner.wait_timeout_while(inner, dur, |t| condition(t)) {
                    Ok(woken) => woken,
                    Err(p) => p.into_inner(),
                };
                guard.inner = Some(g);
                Ok((guard, WaitTimeoutResult))
            }
        }
    }

    /// Wake every waiter (a visible op inside a model).
    pub fn notify_all(&self) {
        if let Some((exec, me)) = ctx() {
            let cv = self.vid(&exec);
            exec.cv_notify_all(me, cv);
        }
        self.inner.notify_all();
    }
}
