//! `Window::rank_stats` under the bookkeeping the hot path ships with:
//! counters a rank advances with a plain load and store, and a held
//! time that is measured for a handle's first 64 epochs and estimated
//! from every 16th after. CI runs this file in `--release` as well —
//! the plain increments and the sampling branch are optimised code.

use mpisim::{Error, LockKind, RmaOp, Topology, Universe, Window};
use std::time::{Duration, Instant};

fn single_rank<T: Send>(f: impl Fn(&mpisim::Process) -> T + Send + Sync) -> T {
    Universe::run(Topology::new(1, 1), f).pop().expect("one rank")
}

fn busy_wait(hold: Duration) {
    let started = Instant::now();
    while started.elapsed() < hold {
        std::hint::spin_loop();
    }
}

/// One exclusive epoch on target 0 held for at least `hold` by the clock.
fn held_epoch(win: &Window, hold: Duration) {
    win.lock(LockKind::Exclusive, 0).expect("lock");
    busy_wait(hold);
    win.unlock(LockKind::Exclusive, 0).expect("unlock");
}

#[test]
fn counts_are_exact_over_a_long_mixed_run() {
    let s = single_rank(|p| {
        let win = Window::allocate(p.world(), 4).expect("allocate");
        for i in 0..200_000i64 {
            win.lock(LockKind::Exclusive, 0).expect("lock");
            let v = win.get(0, 0).expect("get");
            win.put(0, 0, v + 1).expect("put");
            if i % 4 == 0 {
                win.get_range(0, 1, 3).expect("get_range");
                win.put_range(0, 1, &[i, i, i]).expect("put_range");
            }
            if i % 5 == 0 {
                win.fetch_and_op(0, 1, 1, RmaOp::Sum).expect("fetch_and_op");
            }
            win.unlock(LockKind::Exclusive, 0).expect("unlock");
        }
        assert_eq!(win.get(0, 0).expect("get"), 200_000);
        win.rank_stats()
    });
    assert_eq!(s.lock_acquisitions, 200_000);
    assert_eq!(s.gets, 200_000 + 50_000 + 1);
    assert_eq!(s.puts, 200_000 + 50_000);
    assert_eq!(s.rma_atomic_ops, 40_000);
    assert_eq!((s.failed_polls, s.lock_wait_ns, s.reclaims), (0, 0, 0));
}

#[test]
fn the_first_64_epochs_are_timed_exactly() {
    single_rank(|p| {
        let win = Window::allocate(p.world(), 1).expect("allocate");
        let hold = Duration::from_micros(50);
        // The window's stamps enclose the busy-wait and sit inside the
        // outer pair, so the two bounds hold on any machine.
        let mut outer = Duration::ZERO;
        for epoch in 1..=64u32 {
            let started = Instant::now();
            held_epoch(&win, hold);
            outer += started.elapsed();
            let held = Duration::from_nanos(win.rank_stats().lock_held_ns);
            assert!(held >= hold * epoch, "epoch {epoch}: {held:?} measured, {hold:?} each");
            assert!(held <= outer, "epoch {epoch}: {held:?} inside {outer:?}");
        }
    });
}

#[test]
fn sampled_held_time_estimates_the_true_held_time() {
    single_rank(|p| {
        let (epochs, hold) = (20_000u32, Duration::from_micros(2));
        // A stamped epoch past the prefix counts 16-fold, a pre-emption
        // inside one included: a loaded machine can only inflate the
        // estimate, so the upper bound gets a few attempts.
        let mut attempts = Vec::new();
        for _ in 0..5 {
            let win = Window::allocate(p.world(), 1).expect("allocate");
            let started = Instant::now();
            for _ in 0..epochs {
                held_epoch(&win, hold);
            }
            let wall = started.elapsed();
            let s = win.rank_stats();
            assert_eq!(s.lock_acquisitions, u64::from(epochs));
            let held = Duration::from_nanos(s.lock_held_ns);
            // Every stamped epoch lasted at least `hold` and the stamps
            // stand for exactly `epochs` epochs.
            assert!(held.mul_f64(1.15) >= hold * epochs, "{held:?} for {epochs} x {hold:?}");
            if held <= wall.mul_f64(1.15) {
                return;
            }
            attempts.push((held, wall));
        }
        panic!("held-time estimate above the loop's wall time every time: {attempts:?}");
    });
}

#[test]
fn an_unstamped_epoch_is_still_this_handles_to_close() {
    Universe::run(Topology::new(1, 2), |p| {
        let w = p.world();
        let win = Window::allocate(w, 1).expect("allocate");
        if w.rank() == 0 {
            // Epochs 0..=64 are stamped (the exact prefix, then the first
            // sample); epoch 65 reads no clock.
            for _ in 0..65 {
                held_epoch(&win, Duration::ZERO);
            }
            let before = win.rank_stats();
            win.lock(LockKind::Exclusive, 0).expect("lock");
            w.barrier(); // rank 1 misbehaves between the barriers
            w.barrier();
            win.unlock(LockKind::Exclusive, 0).expect("the epoch is still rank 0's to close");
            assert!(matches!(win.unlock(LockKind::Exclusive, 0), Err(Error::NotLocked)));
            let after = win.rank_stats();
            assert_eq!(after.lock_acquisitions, before.lock_acquisitions + 1);
            assert_eq!(after.lock_held_ns, before.lock_held_ns, "epoch 65 is not a sample");
        } else {
            w.barrier();
            assert!(matches!(win.unlock(LockKind::Exclusive, 0), Err(Error::NotLocked)));
            assert!(matches!(win.unlock_all(), Err(Error::NotLocked)));
            assert_eq!(win.exclusive_holder(0).expect("holder"), Some(0));
            assert!(!win.try_lock_exclusive(0).expect("try_lock"), "rank 0's lock was released");
            w.barrier();
        }
        w.barrier();
        assert_eq!(win.exclusive_holder(0).expect("holder"), None);
    });
}

#[test]
fn lock_all_counts_its_targets_and_is_never_timed() {
    Universe::run(Topology::new(1, 2), |p| {
        let win = Window::allocate(p.world(), 1).expect("allocate");
        win.lock_all();
        busy_wait(Duration::from_millis(2));
        win.unlock_all().expect("unlock_all");
        assert!(matches!(win.unlock_all(), Err(Error::NotLocked)));
        let s = win.rank_stats();
        assert_eq!((s.lock_acquisitions, s.lock_held_ns), (2, 0));
    });
}
