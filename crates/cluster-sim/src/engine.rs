//! A deterministic discrete-event queue.
//!
//! Events with equal timestamps pop in insertion order (a monotone
//! sequence number breaks ties), so a simulation built on this queue is
//! reproducible regardless of hash seeds or platform.

use crate::time::Time;
use std::collections::BinaryHeap;

/// Deterministic time-ordered event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

struct Entry<E> {
    /// `time << 64 | seq`: one integer compare orders by time, then by
    /// insertion.
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    fn time(&self) -> Time {
        (self.key >> 64) as Time
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    /// Reversed: `BinaryHeap` is a max-heap and the earliest key pops
    /// first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedule `event` at time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { key: u128::from(at) << 64 | u128::from(seq), event });
    }

    /// Remove and return the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| (e.time(), e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(7, ());
        q.push(3, ());
        assert!(!q.is_empty());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((3, ())));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(10, 1);
        q.push(5, 0);
        assert_eq!(q.pop(), Some((5, 0)));
        q.push(7, 2);
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((10, 1)));
    }
}
