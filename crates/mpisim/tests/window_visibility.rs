//! The visibility contract of `mpisim::Window` and what `LockStats`
//! derives from the lock words: `put` is a release store, `get` an
//! acquire load, and ranks are ordered against each other by
//! lock/unlock, `sync`, `flush` or a barrier — never by the call itself.
//! Every wait below is on a value the other side publishes through the
//! window, never on time.
//!
//! x86 cannot reorder a release store or an acquire load the way the
//! language allows, so most tests here pin behaviour, not orderings.
//! The two `put_sync_get_*` store-buffering tests are different: with
//! the fence in `sync` weakened to `AcqRel` or deleted, a store buffer
//! shows "both read early" on x86 within the first rounds of a
//! `--release` run (a debug build puts enough code between the store
//! and the load to hide it — CI runs both). The two-window one failed
//! every run with the fence deleted on 2 vCPUs.

use mpisim::{LockKind, QueuedLock, RmaOp, Topology, Universe, Window};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

const ROUNDS: i64 = 100_000;
const DATA: usize = 0;
const FLAG: usize = 1;
const ACK: usize = 2;

/// What round `r` carries; anything but `r` itself.
fn payload(r: i64) -> i64 {
    r.wrapping_mul(0x9E37_79B9) ^ 0x5555
}

/// Poll `ready`, lending the CPU away now and then so one CPU is enough.
fn spin_until(mut ready: impl FnMut() -> bool) {
    let mut polls = 0u32;
    while !ready() {
        polls += 1;
        if polls % 64 == 0 {
            thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

#[test]
fn data_put_before_a_flag_is_read_after_it_under_exclusive_epochs() {
    Universe::run(Topology::new(1, 2), |p| {
        let w = p.world();
        let win = Window::allocate_shared(w, if w.rank() == 0 { 3 } else { 0 }).unwrap();
        let mut round = 1;
        while round <= ROUNDS {
            win.lock(LockKind::Exclusive, 0).unwrap();
            if w.rank() == 0 {
                // Send round `round` once the previous one is acknowledged.
                if win.get(0, ACK).unwrap() == round - 1 {
                    win.put(0, DATA, payload(round)).unwrap();
                    win.put(0, FLAG, round).unwrap();
                    round += 1;
                }
            } else if win.get(0, FLAG).unwrap() == round {
                assert_eq!(win.get(0, DATA).unwrap(), payload(round), "round {round}");
                win.put(0, ACK, round).unwrap();
                round += 1;
            }
            win.unlock(LockKind::Exclusive, 0).unwrap();
        }
    });
}

#[test]
fn data_put_before_a_flag_is_read_after_it_under_lock_all_and_flush() {
    Universe::run(Topology::new(1, 2), |p| {
        let w = p.world();
        let win = Window::allocate_shared(w, if w.rank() == 0 { 3 } else { 0 }).unwrap();
        // Two shared access epochs side by side: nothing excludes
        // anybody, the flag alone says when the data may be read.
        win.lock_all();
        for round in 1..=ROUNDS {
            if w.rank() == 0 {
                win.put(0, DATA, payload(round)).unwrap();
                win.flush(0).unwrap();
                win.put(0, FLAG, round).unwrap();
                win.flush(0).unwrap();
                spin_until(|| win.get(0, ACK).unwrap() == round);
            } else {
                spin_until(|| win.get(0, FLAG).unwrap() == round);
                win.flush(0).unwrap();
                assert_eq!(win.get(0, DATA).unwrap(), payload(round), "round {round}");
                win.put(0, ACK, round).unwrap();
                win.flush(0).unwrap();
            }
        }
        win.unlock_all().unwrap();
    });
}

#[test]
fn put_sync_get_never_lets_both_ranks_read_the_old_value() {
    // Store buffering: each rank puts its own slot, syncs, and gets the
    // other's. Values are round numbers, so "stale" is "below my round".
    // Whichever `sync` fence comes second in the one order fences have
    // reads the other rank's put, or a later one.
    let seen = Universe::run(Topology::new(1, 2), |p| {
        let w = p.world();
        let win = Window::allocate_shared(w, if w.rank() == 0 { 2 } else { 0 }).unwrap();
        let (mine, theirs) = (w.rank() as usize, 1 - w.rank() as usize);
        win.lock_all();
        let seen: Vec<i64> = (1..=ROUNDS)
            .map(|round| {
                win.put(0, mine, round).unwrap();
                win.sync();
                let saw = win.get(0, theirs).unwrap();
                // Start the next round together: that is the
                // interleaving in which both could read early.
                spin_until(|| win.get(0, theirs).unwrap() >= round);
                saw
            })
            .collect();
        win.unlock_all().unwrap();
        seen
    });
    for (round, (a, b)) in (1..=ROUNDS).zip(seen[0].iter().zip(&seen[1])) {
        assert!(*a >= round || *b >= round, "round {round}: both ranks read early ({a}, {b})");
    }
}

#[test]
fn put_sync_get_over_two_windows_never_lets_both_ranks_read_the_old_value() {
    // The same store-buffering litmus with each rank's slot in a window
    // of its own, so the two slots share no cache line: a rank's put
    // then waits in its store buffer for the line the other rank just
    // read, and "both read early" shows several times as often as with
    // one window once `sync`'s fence is gone.
    let seen = Universe::run(Topology::new(1, 2), |p| {
        let w = p.world();
        let wins = [0, 1].map(|_| Window::allocate_shared(w, usize::from(w.rank() == 0)).unwrap());
        let (mine, theirs) = (&wins[w.rank() as usize], &wins[1 - w.rank() as usize]);
        mine.lock_all();
        theirs.lock_all();
        let seen: Vec<i64> = (1..=ROUNDS)
            .map(|round| {
                mine.put(0, 0, round).unwrap();
                mine.sync();
                let saw = theirs.get(0, 0).unwrap();
                spin_until(|| theirs.get(0, 0).unwrap() >= round);
                saw
            })
            .collect();
        mine.unlock_all().unwrap();
        theirs.unlock_all().unwrap();
        seen
    });
    for (round, (a, b)) in (1..=ROUNDS).zip(seen[0].iter().zip(&seen[1])) {
        assert!(*a >= round || *b >= round, "round {round}: both ranks read early ({a}, {b})");
    }
}

#[test]
fn acquisitions_are_the_tickets_admitted() {
    const THREADS: u64 = 8;
    const OPS: u64 = 50_000;
    let lock = QueuedLock::new();
    let done = AtomicBool::new(false);
    let admitted: u64 = thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut last = 0;
            while !done.load(Ordering::Acquire) {
                let (acquisitions, ..) = lock.stats().snapshot();
                assert!(acquisitions >= last, "went back from {last} to {acquisitions}");
                last = acquisitions;
                thread::yield_now();
            }
        });
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let lock = &lock;
                s.spawn(move || {
                    let mut admitted = 0;
                    for i in 0..OPS {
                        match (i + t) % 3 {
                            0 => {
                                lock.lock_exclusive();
                                // Our own ticket is already counted.
                                assert!(lock.stats().snapshot().0 > admitted);
                                assert!(lock.unlock_exclusive());
                            }
                            1 => {
                                lock.lock_shared();
                                assert!(lock.unlock_shared());
                            }
                            _ => {
                                if !lock.try_lock_exclusive() {
                                    continue;
                                }
                                assert!(lock.unlock_exclusive());
                            }
                        }
                        admitted += 1;
                    }
                    admitted
                })
            })
            .collect();
        let admitted = workers.into_iter().map(|h| h.join().unwrap()).sum();
        done.store(true, Ordering::Release);
        sampler.join().unwrap();
        admitted
    });
    let (acquisitions, ..) = lock.stats().snapshot();
    assert_eq!(acquisitions, admitted);
    // Two thirds of the operations cannot fail.
    assert!(admitted >= THREADS * OPS / 3 * 2);
    assert!(!lock.unlock_exclusive() && !lock.unlock_shared(), "a hold leaked");
}

#[test]
fn racing_repairers_elect_one_and_spare_a_live_holder() {
    const REPAIRERS: u32 = 8;
    const RACES: i64 = 200;
    let wins = Universe::run(Topology::new(1, REPAIRERS + 1), |p| {
        let w = p.world();
        let win = Window::allocate_shared(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
        let corpse = REPAIRERS;
        if w.rank() == corpse {
            w.mark_failed();
        }
        let mut wins = 0;
        for race in 1..=RACES {
            if w.rank() == corpse {
                // Dies holding the lock, again: a failed rank's thread
                // keeps running here, only its peers treat it as dead.
                win.lock(LockKind::Exclusive, 0).unwrap();
            }
            w.barrier();
            if w.rank() != corpse && win.repair_lock(0).unwrap() {
                wins += 1;
                win.fetch_and_op(0, 0, 1, RmaOp::Sum).unwrap();
            }
            w.barrier();
            // One repair per race, and the lock is free again.
            assert_eq!(win.fetch_and_op(0, 0, 0, RmaOp::NoOp).unwrap(), race);
            assert_eq!(win.exclusive_holder(0).unwrap(), None);
            w.barrier();
        }
        // A live holder is nobody's to evict, however many ask.
        if w.rank() == 0 {
            win.lock(LockKind::Exclusive, 0).unwrap();
        }
        w.barrier();
        if w.rank() != 0 {
            assert!(!win.repair_lock(0).unwrap(), "evicted a live holder");
            assert_eq!(win.exclusive_holder(0).unwrap(), Some(0));
        }
        w.barrier();
        if w.rank() == 0 {
            win.unlock(LockKind::Exclusive, 0).unwrap();
        }
        (wins, win.rank_stats().reclaims)
    });
    assert_eq!(wins.iter().map(|&(wins, _)| wins).sum::<i64>(), RACES);
    assert!(wins.iter().all(|&(wins, reclaims)| reclaims == wins as u64));
}
