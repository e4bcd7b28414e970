//! A deterministic discrete-event queue.
//!
//! Events with equal timestamps pop in insertion order (a monotone
//! sequence number breaks ties), so a simulation built on this queue is
//! reproducible regardless of hash seeds or platform.
//!
//! The heap orders 16-byte keys only; each event waits in a slab slot
//! the key names, so a sift moves a key, not the payload.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bits of a key below the sequence number: the event's slab slot.
const SLOT_BITS: u32 = 24;
/// Bits of a key between the time and the slot: the sequence number.
const SEQ_BITS: u32 = 64 - SLOT_BITS;

/// Deterministic time-ordered event queue.
///
/// Panics past 2^40 pushes or 2^24 pending events rather than let a
/// key field wrap.
pub struct EventQueue<E> {
    /// Min-heap of `time << 64 | seq << 24 | slot`: one integer compare
    /// orders by time, then by insertion; `seq` is unique, so `slot`
    /// never decides.
    heap: BinaryHeap<Reverse<u128>>,
    /// Pending events by slot; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slots, reused before the slab grows.
    free: Vec<u32>,
    seq: u64,
}

/// The heap key of an event pushed at `at` as push number `seq` into
/// slab `slot`.
fn pack(at: Time, seq: u64, slot: usize) -> u128 {
    assert!(seq < 1 << SEQ_BITS, "EventQueue: more than 2^40 pushes");
    assert!(slot < 1 << SLOT_BITS, "EventQueue: more than 2^24 pending events");
    u128::from(at) << 64 | u128::from(seq) << SLOT_BITS | slot as u128
}

/// A key's time and slab slot.
fn unpack(key: u128) -> (Time, usize) {
    ((key >> 64) as Time, (key as usize) & ((1 << SLOT_BITS) - 1))
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), slab: Vec::new(), free: Vec::new(), seq: 0 }
    }

    /// Schedule `event` at time `at`.
    #[inline]
    pub fn push(&mut self, at: Time, event: E) {
        let slot = self.free.pop().map_or(self.slab.len(), |slot| slot as usize);
        let key = pack(at, self.seq, slot);
        self.seq += 1;
        if slot == self.slab.len() {
            self.slab.push(Some(event));
        } else {
            self.slab[slot] = Some(event);
        }
        self.heap.push(Reverse(key));
    }

    /// Remove and return the earliest event as `(time, event)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let (at, slot) = unpack(self.heap.pop()?.0);
        let event = self.slab[slot].take().expect("a queued key names a full slot");
        self.free.push(slot as u32);
        Some((at, event))
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

    #[test]
    fn keys_pack_and_unpack_at_the_field_limits() {
        let (seq_max, slot_max) = ((1 << SEQ_BITS) - 1, (1 << SLOT_BITS) - 1);
        for (at, seq, slot) in [(0, 0, 0), (Time::MAX, seq_max, slot_max), (7, seq_max, 0)] {
            assert_eq!(unpack(pack(at, seq, slot)), (at, slot));
        }
        // Time outranks the sequence number, which outranks the slot.
        assert!(pack(1, 0, 0) > pack(0, seq_max, slot_max));
        assert!(pack(0, 1, 0) > pack(0, 0, slot_max));
    }

    #[test]
    #[should_panic(expected = "more than 2^40 pushes")]
    fn the_sequence_number_never_wraps() {
        let mut q = EventQueue::new();
        q.seq = (1 << SEQ_BITS) - 1;
        q.push(0, ());
        q.push(0, ());
    }

    #[test]
    #[should_panic(expected = "more than 2^24 pending events")]
    fn the_slot_field_never_overflows() {
        pack(0, 0, 1 << SLOT_BITS);
    }

    #[test]
    fn heap_entries_are_sixteen_bytes_whatever_the_payload() {
        fn entry_size<T>(_: &BinaryHeap<T>) -> usize {
            std::mem::size_of::<T>()
        }
        let q = EventQueue::<[u64; 8]>::new();
        assert_eq!(entry_size(&q.heap), 16);
    }

    #[test]
    fn popped_slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..10 {
            q.push(round, round);
            q.push(round, round + 100);
            assert_eq!(q.pop(), Some((round, round)));
            assert_eq!(q.pop(), Some((round, round + 100)));
        }
        assert_eq!(q.slab.len(), 2);
    }
}
