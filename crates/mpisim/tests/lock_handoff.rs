//! Hand-off tests for `mpisim::QueuedLock`: the paths a waiter takes
//! once the lock is *not* free — spinning, yielding, parked — and the
//! releases that must reach it there. Every wait below is on a counter
//! the lock publishes (`waiters()`, `LockStats::parks`), never on time.

use mpisim::QueuedLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

fn parks(lock: &QueuedLock) -> u64 {
    lock.stats().parks.load(Ordering::Relaxed)
}

fn wait_until(what: impl Fn() -> bool) {
    while !what() {
        thread::yield_now();
    }
}

#[test]
fn mixed_epochs_keep_a_two_word_invariant() {
    // Writers bump two counters with plain load/store pairs; readers
    // must never see them apart. Only the lock makes that true.
    let lock = QueuedLock::new();
    let (a, b) = (AtomicU64::new(0), AtomicU64::new(0));
    const EPOCHS: u64 = 400;
    thread::scope(|s| {
        for t in 0..8u64 {
            let (lock, a, b) = (&lock, &a, &b);
            s.spawn(move || {
                for i in 0..EPOCHS {
                    if (i + t) % 3 == 0 {
                        lock.lock_shared();
                        assert_eq!(a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
                        assert!(lock.unlock_shared());
                    } else {
                        lock.lock_exclusive();
                        let v = a.load(Ordering::Relaxed);
                        a.store(v + 1, Ordering::Relaxed);
                        thread::yield_now();
                        assert_eq!(b.load(Ordering::Relaxed), v, "another writer got in");
                        b.store(v + 1, Ordering::Relaxed);
                        assert!(lock.unlock_exclusive());
                    }
                }
            });
        }
    });
    let writes = (0..8u64).map(|t| (0..EPOCHS).filter(|i| (i + t) % 3 != 0).count() as u64).sum();
    assert_eq!(a.load(Ordering::Relaxed), writes);
    assert_eq!(b.load(Ordering::Relaxed), writes);
    let (acquisitions, ..) = lock.stats().snapshot();
    assert_eq!(acquisitions, 8 * EPOCHS);
    assert!(!lock.unlock_exclusive() && !lock.unlock_shared(), "a hold leaked");
}

#[test]
fn parked_waiters_are_woken_in_ticket_order() {
    // The holder outlasts both waiters' spin budgets, so each release
    // below has to find its successor on the condvar. Repeated, because
    // `parks` is bumped just before a waiter blocks: the release lands
    // on either side of the wait, and both must wake it.
    for _ in 0..20 {
        let lock = Arc::new(QueuedLock::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        lock.lock_exclusive();

        let (l, o) = (Arc::clone(&lock), Arc::clone(&order));
        let writer = thread::spawn(move || {
            let polls = l.lock_exclusive();
            o.lock().unwrap().push("writer");
            assert!(l.unlock_exclusive());
            polls
        });
        wait_until(|| lock.waiters() == 1);
        let (l, o) = (Arc::clone(&lock), Arc::clone(&order));
        let reader = thread::spawn(move || {
            let polls = l.lock_shared();
            o.lock().unwrap().push("reader");
            assert!(l.unlock_shared());
            polls
        });
        wait_until(|| lock.waiters() == 2 && parks(&lock) == 2);

        assert!(lock.unlock_exclusive());
        let polls = writer.join().unwrap() + reader.join().unwrap();
        assert_eq!(*order.lock().unwrap(), ["writer", "reader"]);
        let (acquisitions, contended, counted) = lock.stats().snapshot();
        assert_eq!((acquisitions, contended), (3, 2));
        assert_eq!(counted, polls, "every failed poll is in the lock's total");
        assert_eq!(lock.waiters(), 0);
    }
}

#[test]
fn revoking_a_dead_holder_admits_the_parked_waiter() {
    let lock = Arc::new(QueuedLock::new());
    lock.lock_exclusive(); // the "dead" holder: never unlocks
    let l = Arc::clone(&lock);
    let waiter = thread::spawn(move || {
        l.lock_exclusive();
        assert!(l.unlock_exclusive());
    });
    wait_until(|| parks(&lock) == 1);
    assert!(lock.revoke_exclusive());
    waiter.join().unwrap();
    assert_eq!(lock.stats().revocations.load(Ordering::Relaxed), 1);
    assert!(lock.try_lock_exclusive(), "the queue drained");
}

#[test]
fn trylock_never_wins_while_a_ticket_is_queued() {
    // A barger hammers `try_lock_exclusive` from before the release to
    // after it: whatever the interleaving, the queued writer goes first.
    for _ in 0..100 {
        let lock = Arc::new(QueuedLock::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        lock.lock_exclusive();
        let (l, o) = (Arc::clone(&lock), Arc::clone(&order));
        let queued = thread::spawn(move || {
            l.lock_exclusive();
            o.lock().unwrap().push("queued");
            assert!(l.unlock_exclusive());
        });
        wait_until(|| lock.waiters() == 1);
        let (l, o) = (Arc::clone(&lock), Arc::clone(&order));
        let barger = thread::spawn(move || {
            let mut failed = 0u64;
            while !l.try_lock_exclusive() {
                failed += 1;
                thread::yield_now();
            }
            o.lock().unwrap().push("barger");
            assert!(l.unlock_exclusive());
            failed
        });
        // Let the barger fail at least once against the held lock.
        wait_until(|| lock.stats().snapshot().2 >= 2);
        assert!(lock.unlock_exclusive());
        queued.join().unwrap();
        assert!(barger.join().unwrap() >= 1);
        assert_eq!(*order.lock().unwrap(), ["queued", "barger"]);
    }
}

#[test]
fn two_running_threads_hand_off_without_parking() {
    // The convoy regression: with a CPU each, two threads that do
    // nothing but take and release the lock must pass it to each other
    // while spinning. One futex wake per hand-off is what made 1 node x
    // 2 ranks take 20-60x as long as 2 nodes x 1 rank.
    if thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return;
    }
    const EPOCHS: u64 = 200_000;
    let lock = QueuedLock::new();
    thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..EPOCHS {
                    lock.lock_exclusive();
                    assert!(lock.unlock_exclusive());
                }
            });
        }
    });
    let (acquisitions, ..) = lock.stats().snapshot();
    assert_eq!(acquisitions, 2 * EPOCHS);
    assert!(
        parks(&lock) * 100 <= acquisitions,
        "{} of {acquisitions} acquisitions parked",
        parks(&lock)
    );
}
