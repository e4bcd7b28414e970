//! Negative-path tests for `mpisim::Window`: misuse must surface as
//! structured `Err` values a caller can match on, never as panics —
//! that is what lets the live executors propagate window failures out
//! of worker closures, and what `rma-check`'s broken variants rely on
//! to keep running after the refused operation.

use mpisim::{Error, LockKind, Topology, Universe, Window};

fn single_rank<T: Send>(f: impl Fn(&mpisim::Process) -> T + Send + Sync) -> T {
    Universe::run(Topology::new(1, 1), f).pop().expect("one rank")
}

#[test]
fn double_unlock_is_not_locked_error() {
    single_rank(|p| {
        let win = Window::allocate(p.world(), 4).expect("allocate");
        win.lock(LockKind::Exclusive, 0).expect("lock");
        win.unlock(LockKind::Exclusive, 0).expect("first unlock");
        assert!(matches!(win.unlock(LockKind::Exclusive, 0), Err(Error::NotLocked)));
    });
}

#[test]
fn unlock_without_lock_is_not_locked_error() {
    single_rank(|p| {
        let win = Window::allocate(p.world(), 4).expect("allocate");
        assert!(matches!(win.unlock(LockKind::Exclusive, 0), Err(Error::NotLocked)));
        assert!(matches!(win.unlock(LockKind::Shared, 0), Err(Error::NotLocked)));
    });
}

#[test]
fn lock_out_of_range_target_is_rank_error() {
    single_rank(|p| {
        let win = Window::allocate(p.world(), 4).expect("allocate");
        assert!(matches!(
            win.lock(LockKind::Exclusive, 5),
            Err(Error::RankOutOfRange { rank: 5, size: 1 })
        ));
        assert!(matches!(
            win.unlock(LockKind::Exclusive, 5),
            Err(Error::RankOutOfRange { rank: 5, size: 1 })
        ));
        assert!(matches!(
            win.try_lock_exclusive(9),
            Err(Error::RankOutOfRange { rank: 9, size: 1 })
        ));
    });
}

#[test]
fn get_put_past_region_is_offset_error() {
    single_rank(|p| {
        let win = Window::allocate(p.world(), 4).expect("allocate");
        assert_eq!(win.len_of(0).expect("len"), 4);
        win.lock(LockKind::Exclusive, 0).expect("lock");
        assert!(matches!(win.get(0, 4), Err(Error::OffsetOutOfRange { offset: 4, len: 4 })));
        assert!(matches!(win.put(0, 7, 1), Err(Error::OffsetOutOfRange { offset: 7, len: 4 })));
        assert!(matches!(
            win.fetch_and_op(0, 4, 1, mpisim::RmaOp::Sum),
            Err(Error::OffsetOutOfRange { .. })
        ));
        // In-range accesses on the same epoch still work afterwards.
        win.put(0, 3, 11).expect("in-range put");
        assert_eq!(win.get(0, 3).expect("in-range get"), 11);
        win.unlock(LockKind::Exclusive, 0).expect("unlock");
    });
}

#[test]
fn range_ops_past_region_are_offset_errors() {
    single_rank(|p| {
        let win = Window::allocate(p.world(), 4).expect("allocate");
        win.lock(LockKind::Exclusive, 0).expect("lock");
        assert!(win.get_range(0, 2, 3).is_err());
        assert!(win.put_range(0, 3, &[1, 2]).is_err());
        // `disp + len` wraps: still the offset error, not a panic.
        let wrapped = Error::OffsetOutOfRange { offset: usize::MAX, len: 4 };
        assert_eq!(win.get_range(0, usize::MAX, 2), Err(wrapped.clone()));
        assert_eq!(win.put_range(0, usize::MAX, &[1, 2]), Err(wrapped));
        win.unlock(LockKind::Exclusive, 0).expect("unlock");
    });
}

#[test]
fn stats_for_out_of_range_target_are_errors() {
    single_rank(|p| {
        let win = Window::allocate(p.world(), 4).expect("allocate");
        assert!(win.len_of(3).is_err());
        assert!(win.lock_stats(3).is_err());
    });
}

#[test]
fn stray_unlock_from_another_rank_leaves_the_epoch_alone() {
    Universe::run(Topology::new(1, 2), |p| {
        let w = p.world();
        let win = Window::allocate(w, 1).expect("allocate");
        if w.rank() == 0 {
            win.lock(LockKind::Exclusive, 0).expect("lock");
            w.barrier(); // rank 1 misbehaves between the barriers
            w.barrier();
            win.unlock(LockKind::Exclusive, 0).expect("the epoch is still rank 0's to close");
        } else {
            w.barrier();
            // Rank 1 holds no epoch on target 0: each refusal must leave
            // the lock held and rank 0 on record as its holder.
            assert!(matches!(win.unlock(LockKind::Exclusive, 0), Err(Error::NotLocked)));
            assert!(matches!(win.unlock(LockKind::Shared, 0), Err(Error::NotLocked)));
            assert!(matches!(win.unlock_all(), Err(Error::NotLocked)));
            assert_eq!(win.exclusive_holder(0).expect("holder"), Some(0));
            assert!(!win.try_lock_exclusive(0).expect("try_lock"), "rank 0's lock was released");
            assert!(!win.repair_lock(0).expect("repair"), "a live holder is not evicted");
            w.barrier();
        }
        w.barrier();
        assert_eq!(win.exclusive_holder(0).expect("holder"), None);
        assert_eq!(win.lock_stats(0).expect("stats").0, 1, "one epoch was ever opened");
    });
}
