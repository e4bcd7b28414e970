//! Property tests for the simulation primitives: the event queue must
//! be a stable priority queue, resources must serialize without losing
//! or inventing time, and the contended lock must be FCFS with
//! monotone penalties.

use cluster_sim::{ContendedLock, EventQueue, Resource};
use proptest::prelude::*;

proptest! {
    #[test]
    fn event_queue_matches_stable_sort(events in prop::collection::vec((0u64..1000, 0u32..100), 0..200)) {
        let mut q = EventQueue::new();
        for &(t, payload) in &events {
            q.push(t, payload);
        }
        let mut expected: Vec<(u64, u32)> = events.clone();
        // Stable sort by time preserves insertion order for ties —
        // exactly the promised pop order.
        expected.sort_by_key(|&(t, _)| t);
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped, expected);
    }

    #[test]
    fn interleaved_pushes_and_pops_match_a_stable_reference(
        ops in prop::collection::vec((0u8..3, 0u64..4), 0..300)
    ) {
        // One op in three pops; pushes draw from four timestamps, so
        // most pops break a tie, and every pop frees a slot that the
        // next push reuses.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        for (i, &(op, t)) in ops.iter().enumerate() {
            if op == 0 {
                // Earliest time, then earliest insertion: the first
                // minimum of a vector kept in insertion order.
                let first = (0..reference.len()).min_by_key(|&j| reference[j].0);
                let expected = first.map(|j| reference.remove(j));
                prop_assert_eq!(q.pop(), expected);
            } else {
                q.push(t, i);
                reference.push((t, i));
            }
            prop_assert_eq!(q.len(), reference.len());
        }
        reference.sort_by_key(|&(t, _)| t);
        let mut rest = Vec::new();
        while let Some(e) = q.pop() {
            rest.push(e);
        }
        prop_assert_eq!(rest, reference);
    }

    #[test]
    fn resource_serializes_without_overlap(reqs in prop::collection::vec((0u64..10_000, 1u64..500), 1..100)) {
        let mut reqs = reqs;
        reqs.sort_by_key(|&(arrive, _)| arrive);
        let mut r = Resource::new();
        let mut last_end = 0u64;
        for &(arrive, service) in &reqs {
            let (start, end) = r.request(arrive, service);
            prop_assert!(start >= arrive);
            prop_assert!(start >= last_end, "intervals must not overlap");
            prop_assert_eq!(end - start, service);
            last_end = end;
        }
        prop_assert_eq!(r.free_at(), last_end);
    }

    #[test]
    fn resource_work_conserving(reqs in prop::collection::vec((0u64..1_000, 1u64..100), 1..50)) {
        // The server never idles while requests are queued: final
        // free_at <= max(arrive) + total service.
        let mut reqs = reqs;
        reqs.sort_by_key(|&(a, _)| a);
        let total: u64 = reqs.iter().map(|&(_, s)| s).sum();
        let max_arrive = reqs.iter().map(|&(a, _)| a).max().unwrap();
        let mut r = Resource::new();
        for &(a, s) in &reqs {
            r.request(a, s);
        }
        prop_assert!(r.free_at() <= max_arrive + total);
    }

    #[test]
    fn lock_grants_fcfs_and_disjoint(reqs in prop::collection::vec((0u64..5_000, 1u64..200), 1..60), penalty in 0u64..500) {
        let mut reqs = reqs;
        reqs.sort_by_key(|&(a, _)| a);
        let mut lock = ContendedLock::new(penalty);
        let mut last = None::<(u64, u64)>;
        for &(arrive, hold) in &reqs {
            let g = lock.acquire(arrive, hold);
            prop_assert!(g.start >= arrive);
            prop_assert!(g.end >= g.start + hold);
            if let Some((_, prev_end)) = last {
                prop_assert!(g.start >= prev_end, "FCFS grants must not overlap");
            }
            last = Some((g.start, g.end));
        }
        prop_assert_eq!(last.map(|(_, end)| end), Some(lock.free_at()));
    }

    #[test]
    fn zero_penalty_lock_equals_resource(reqs in prop::collection::vec((0u64..2_000, 1u64..100), 1..50)) {
        let mut reqs = reqs;
        reqs.sort_by_key(|&(a, _)| a);
        let mut lock = ContendedLock::new(0);
        let mut res = Resource::new();
        for &(a, h) in &reqs {
            let g = lock.acquire(a, h);
            let (s, e) = res.request(a, h);
            prop_assert_eq!((g.start, g.end), (s, e));
        }
    }

    #[test]
    fn penalties_only_increase_completion(reqs in prop::collection::vec((0u64..2_000, 1u64..100), 1..50)) {
        let mut reqs = reqs;
        reqs.sort_by_key(|&(a, _)| a);
        let finish = |penalty: u64| {
            let mut lock = ContendedLock::new(penalty);
            reqs.iter().map(|&(a, h)| lock.acquire(a, h).end).max().unwrap()
        };
        prop_assert!(finish(100) >= finish(0));
        prop_assert!(finish(500) >= finish(100));
    }
}
