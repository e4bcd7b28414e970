//! Failure-path tests for the simulated runtime: once a rank is
//! declared dead via `Comm::mark_failed`, every operation a peer aims
//! at it must come back as a structured `Error::RankFailed` — never a
//! hang — mirroring ULFM's `MPI_ERR_PROC_FAILED` semantics. Shared
//! (node-local) windows are the deliberate exception: the OS keeps the
//! segment mapped after the owning process dies, which is exactly what
//! makes node-local lease recovery possible, so those stay readable and
//! repairable.

use mpisim::{Error, LockKind, Topology, Universe, Window};

/// Every op targeting a dead rank on a *non-shared* window errors with
/// `RankFailed` instead of blocking: lock, try-lock, flush, atomics,
/// and plain get/put.
#[test]
fn post_crash_window_ops_return_rank_failed() {
    Universe::run(Topology::new(2, 1), |p| {
        let w = p.world();
        let win = Window::allocate(w, 2).expect("allocate");
        if w.rank() == 1 {
            w.mark_failed();
            w.barrier();
        } else {
            w.barrier();
            assert!(matches!(win.lock(LockKind::Exclusive, 1), Err(Error::RankFailed { rank: 1 })));
            assert!(matches!(win.try_lock_exclusive(1), Err(Error::RankFailed { rank: 1 })));
            assert!(matches!(win.flush(1), Err(Error::RankFailed { rank: 1 })));
            assert!(matches!(
                win.fetch_and_op(1, 0, 1, mpisim::RmaOp::Sum),
                Err(Error::RankFailed { rank: 1 })
            ));
            assert!(matches!(win.get(1, 0), Err(Error::RankFailed { rank: 1 })));
            assert!(matches!(win.put(1, 0, 3), Err(Error::RankFailed { rank: 1 })));
            // The survivor's own region is untouched by the peer death.
            win.lock(LockKind::Exclusive, 0).expect("own lock");
            win.put(0, 0, 42).expect("own put");
            win.unlock(LockKind::Exclusive, 0).expect("own unlock");
        }
        w.barrier();
    });
}

/// Point-to-point: sending to a dead rank errors; a sourced receive
/// from a dead rank errors *unless* a matching message was buffered
/// before the death — pre-death messages stay deliverable.
#[test]
fn send_recv_against_dead_rank() {
    Universe::run(Topology::new(1, 2), |p| {
        let w = p.world();
        if w.rank() == 1 {
            w.send(0, 7, 99u32).expect("pre-death send");
            w.mark_failed();
            w.barrier();
        } else {
            w.barrier();
            assert!(matches!(w.send(1, 0, 1u8), Err(Error::RankFailed { rank: 1 })));
            // The message buffered before the crash is still there...
            let (_, _, v): (_, _, u32) = w.recv(Some(1), Some(7)).expect("buffered msg");
            assert_eq!(v, 99);
            // ...but once drained, a sourced recv errors instead of hanging.
            assert!(matches!(w.recv::<u32>(Some(1), Some(7)), Err(Error::RankFailed { rank: 1 })));
        }
        w.barrier();
    });
}

/// Shared windows survive peer death: the node-local segment stays
/// mapped, so a survivor can still read the dead rank's region — the
/// property the lease-reclaim protocol depends on.
#[test]
fn shared_window_readable_after_peer_death() {
    let out = Universe::run(Topology::new(1, 2), |p| {
        let w = p.world();
        let win = Window::allocate_shared(w, 1).expect("allocate_shared");
        if w.rank() == 1 {
            win.lock(LockKind::Exclusive, 1).expect("lock");
            win.put(1, 0, 123).expect("put");
            win.unlock(LockKind::Exclusive, 1).expect("unlock");
            w.mark_failed();
            w.barrier();
            0
        } else {
            w.barrier();
            win.lock(LockKind::Shared, 1).expect("shared win lock survives death");
            let v = win.get(1, 0).expect("read dead rank's region");
            win.unlock(LockKind::Shared, 1).expect("unlock");
            v
        }
    });
    assert_eq!(out[0], 123);
}

/// A dead exclusive holder is evicted by `repair_lock`: the repairer
/// sees `Ok(true)`, the lock becomes acquirable again, and the repair
/// is counted as a reclaim in the repairer's window stats.
#[test]
fn repair_lock_revokes_dead_holder() {
    Universe::run(Topology::new(1, 2), |p| {
        let w = p.world();
        let win = Window::allocate_shared(w, 2).expect("allocate_shared");
        if w.rank() == 1 {
            win.lock(LockKind::Exclusive, 0).expect("lock");
            w.mark_failed(); // dies holding target 0's exclusive lock
            w.barrier();
            w.barrier();
        } else {
            w.barrier();
            assert_eq!(win.exclusive_holder(0).expect("holder"), Some(1));
            assert!(!win.try_lock_exclusive(0).expect("held by corpse"));
            assert!(win.repair_lock(0).expect("repair"));
            // Exactly one repair happened and the lock works again.
            assert_eq!(win.exclusive_holder(0).expect("holder"), None);
            win.lock(LockKind::Exclusive, 0).expect("re-acquire after repair");
            win.unlock(LockKind::Exclusive, 0).expect("unlock");
            assert_eq!(win.rank_stats().reclaims, 1);
            // Second repair attempt is a no-op: nothing left to evict.
            assert!(!win.repair_lock(0).expect("idempotent"));
            w.barrier();
        }
    });
}

/// `repair_lock` refuses to evict a *live* holder — only death
/// justifies revocation, so a slow-but-alive critical section is safe.
#[test]
fn repair_lock_refuses_live_holder() {
    Universe::run(Topology::new(1, 2), |p| {
        let w = p.world();
        let win = Window::allocate_shared(w, 1).expect("allocate_shared");
        if w.rank() == 1 {
            win.lock(LockKind::Exclusive, 0).expect("lock");
            w.barrier(); // holder alive and inside its critical section
            w.barrier(); // peer has finished probing
            win.unlock(LockKind::Exclusive, 0).expect("unlock");
        } else {
            w.barrier();
            assert!(!win.repair_lock(0).expect("live holder must not be evicted"));
            assert_eq!(win.rank_stats().reclaims, 0);
            w.barrier();
        }
        w.barrier();
    });
}

/// The lease-settlement idiom the live executor uses: a lease's epoch
/// slot is advanced with compare-and-swap, so when two survivors race
/// to reclaim the same dead rank's lease, exactly one wins and the
/// other observes it as already settled — a double reclaim cannot
/// double-deposit the range.
#[test]
fn double_reclaim_of_same_lease_has_one_winner() {
    let wins = Universe::run(Topology::new(1, 3), |p| {
        let w = p.world();
        let win = Window::allocate_shared(w, 1).expect("allocate_shared");
        if w.rank() == 0 {
            // Publish an active lease (odd epoch), then die mid-chunk.
            win.lock(LockKind::Exclusive, 0).expect("lock");
            win.put(0, 0, 1).expect("publish lease epoch");
            win.unlock(LockKind::Exclusive, 0).expect("unlock");
            w.mark_failed();
            w.barrier();
            false
        } else {
            w.barrier();
            // Both survivors race to settle epoch 1 -> 2.
            let prev = win.fetch_and_op(0, 0, 2, mpisim::RmaOp::Max).expect("settle");
            if prev == 1 {
                win.note_reclaim();
            }
            prev == 1
        }
    });
    assert_eq!(wins.iter().filter(|&&won| won).count(), 1, "exactly one reclaimer may win");
}
