//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the *subset* of the `parking_lot` API it actually uses as a
//! thin wrapper over `std::sync`. Semantics match `parking_lot` where
//! the workspace relies on them:
//!
//! - `Mutex::lock` returns the guard directly (no `Result`); a poisoned
//!   std mutex is recovered via [`std::sync::PoisonError::into_inner`],
//!   mirroring `parking_lot`'s lack of poisoning.
//! - `Condvar::wait` takes `&mut MutexGuard` and reacquires the same
//!   mutex before returning, like `parking_lot`.

// A pure-std shim has no business holding unsafe code.
#![forbid(unsafe_code)]

use std::sync;

/// A mutual-exclusion primitive with `parking_lot`-style (non-poisoning)
/// `lock()` that returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
///
/// The std guard is held in an `Option` so that [`Condvar::wait`] can
/// move it out and back in without unsafe code; it is `None` only for
/// the duration of a wait, during which the guard is not accessible.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self { inner: sync::Mutex::new(value) }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())) }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(sync::TryLockError::Poisoned(e)) => {
                Some(MutexGuard { inner: Some(e.into_inner()) })
            }
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard absent outside wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("guard absent outside wait")
    }
}

/// Condition variable compatible with [`Mutex`]/[`MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Self { inner: sync::Condvar::new() }
    }

    /// Blocks until notified. The guard is atomically released while
    /// waiting and reacquired before this returns.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let owned = guard.inner.take().expect("guard absent outside wait");
        let reacquired = self.inner.wait(owned).unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(reacquired);
    }

    pub fn notify_one(&self) -> bool {
        self.inner.notify_one();
        // parking_lot reports whether a thread was woken; std cannot.
        true
    }

    pub fn notify_all(&self) -> usize {
        self.inner.notify_all();
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_counts_across_threads() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let waiter = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        waiter.join().unwrap();
    }
}
