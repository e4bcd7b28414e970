//! A serialized service centre: requests are processed one at a time in
//! arrival order. Models any shared resource whose accesses serialize —
//! an atomic counter's cache line, the memory-side handler of RMA
//! atomics, an OpenMP dispatcher's critical section.

use crate::time::Time;

/// First-come-first-served single server.
///
/// `request(arrive, service)` returns the interval `(start, end)` the
/// request occupies the server: `start = max(arrive, server_free)`,
/// `end = start + service`. Requests must be issued in non-decreasing
/// causal order by the simulation driver (an event-driven executor does
/// this naturally); the struct itself only tracks when the server frees
/// up.
#[derive(Clone, Debug, Default)]
pub struct Resource {
    free_at: Time,
    ops: u64,
    busy: Time,
    queued_ops: u64,
    total_wait: Time,
}

impl Resource {
    /// A fresh, idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serve a request arriving at `arrive` that needs `service` time.
    /// Returns `(start, end)`.
    #[inline]
    pub fn request(&mut self, arrive: Time, service: Time) -> (Time, Time) {
        let start = arrive.max(self.free_at);
        let end = start + service;
        self.free_at = end;
        self.ops += 1;
        self.busy += service;
        if start > arrive {
            self.queued_ops += 1;
            self.total_wait += start - arrive;
        }
        (start, end)
    }

    /// When the server next becomes idle.
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Total requests served.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Requests that had to queue.
    pub fn queued_ops(&self) -> u64 {
        self.queued_ops
    }

    /// Cumulative queueing delay across all requests.
    pub fn total_wait(&self) -> Time {
        self.total_wait
    }

    /// Cumulative service (busy) time.
    pub fn busy_time(&self) -> Time {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut r = Resource::new();
        assert_eq!(r.request(100, 10), (100, 110));
        assert_eq!(r.free_at(), 110);
    }

    #[test]
    fn busy_server_queues() {
        let mut r = Resource::new();
        r.request(0, 100);
        let (start, end) = r.request(10, 5);
        assert_eq!((start, end), (100, 105));
        assert_eq!(r.queued_ops(), 1);
        assert_eq!(r.total_wait(), 90);
    }

    #[test]
    fn serialization_of_simultaneous_arrivals() {
        let mut r = Resource::new();
        let mut ends = Vec::new();
        for _ in 0..4 {
            ends.push(r.request(0, 10).1);
        }
        assert_eq!(ends, vec![10, 20, 30, 40]);
        assert_eq!(r.busy_time(), 40);
        assert_eq!(r.ops(), 4);
    }

    #[test]
    fn gap_lets_server_idle() {
        let mut r = Resource::new();
        r.request(0, 10);
        let (start, _) = r.request(50, 10);
        assert_eq!(start, 50);
        assert_eq!(r.queued_ops(), 0);
    }
}
