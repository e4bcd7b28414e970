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
        (start, end)
    }

    /// When the server next becomes idle.
    pub fn free_at(&self) -> Time {
        self.free_at
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
        assert_eq!(r.free_at(), 105);
    }

    #[test]
    fn serialization_of_simultaneous_arrivals() {
        let mut r = Resource::new();
        let mut ends = Vec::new();
        for _ in 0..4 {
            ends.push(r.request(0, 10).1);
        }
        assert_eq!(ends, vec![10, 20, 30, 40]);
    }

    #[test]
    fn gap_lets_server_idle() {
        let mut r = Resource::new();
        r.request(0, 10);
        let (start, _) = r.request(50, 10);
        assert_eq!(start, 50);
    }
}
