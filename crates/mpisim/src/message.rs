//! Typed message envelopes and per-rank mailboxes.
//!
//! Each rank of a communicator owns one [`Mailbox`]. `send` pushes an
//! envelope into the destination's mailbox; `recv` scans the mailbox
//! front-to-back for the first envelope matching `(source, tag)` and
//! blocks on a condition variable otherwise. Scanning in arrival order
//! gives MPI's non-overtaking guarantee for messages with the same
//! source and tag.

use crate::error::{Error, Result};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// First tag value reserved for internal collective traffic. User tags
/// must stay below this value.
pub const INTERNAL_TAG_BASE: i32 = i32::MAX - 64;

pub(crate) struct Envelope {
    pub src: u32,
    pub tag: i32,
    pub payload: Box<dyn Any + Send>,
}

/// A rank's incoming-message queue.
#[derive(Default)]
pub struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
    cv: Condvar,
}

impl Mailbox {
    /// New empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn push(&self, env: Envelope) {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).push_back(env);
        self.cv.notify_all();
    }

    /// Blocking matched receive. Returns `(src, tag, payload)` of the
    /// first queued envelope whose source and tag match; the payload is
    /// downcast to `T`.
    pub(crate) fn recv<T: Send + 'static>(
        &self,
        src: Option<u32>,
        tag: Option<i32>,
    ) -> Result<(u32, i32, T)> {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let pos = queue
                .iter()
                .position(|e| src.is_none_or(|s| s == e.src) && tag.is_none_or(|t| t == e.tag));
            if let Some(pos) = pos {
                let env = queue.remove(pos).expect("position just found");
                let (esrc, etag) = (env.src, env.tag);
                return match env.payload.downcast::<T>() {
                    Ok(b) => Ok((esrc, etag, *b)),
                    Err(_) => Err(Error::TypeMismatch { src: esrc, tag: etag }),
                };
            }
            queue = self.cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking probe: does a matching message exist?
    pub(crate) fn probe(&self, src: Option<u32>, tag: Option<i32>) -> bool {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .any(|e| src.is_none_or(|s| s == e.src) && tag.is_none_or(|t| t == e.tag))
    }

    /// Number of queued messages (diagnostics).
    pub fn len(&self) -> usize {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_per_source_and_tag() {
        let mb = Mailbox::new();
        mb.push(Envelope { src: 1, tag: 0, payload: Box::new(10u32) });
        mb.push(Envelope { src: 1, tag: 0, payload: Box::new(20u32) });
        let (_, _, a) = mb.recv::<u32>(Some(1), Some(0)).unwrap();
        let (_, _, b) = mb.recv::<u32>(Some(1), Some(0)).unwrap();
        assert_eq!((a, b), (10, 20));
    }

    #[test]
    fn matching_skips_other_tags() {
        let mb = Mailbox::new();
        mb.push(Envelope { src: 1, tag: 7, payload: Box::new("seven") });
        mb.push(Envelope { src: 1, tag: 3, payload: Box::new("three") });
        let (_, tag, s) = mb.recv::<&str>(Some(1), Some(3)).unwrap();
        assert_eq!((tag, s), (3, "three"));
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn any_source_matches_first_arrival() {
        let mb = Mailbox::new();
        mb.push(Envelope { src: 5, tag: 0, payload: Box::new(1i64) });
        mb.push(Envelope { src: 2, tag: 0, payload: Box::new(2i64) });
        let (src, _, v) = mb.recv::<i64>(None, Some(0)).unwrap();
        assert_eq!((src, v), (5, 1));
    }

    #[test]
    fn type_mismatch_reported() {
        let mb = Mailbox::new();
        mb.push(Envelope { src: 0, tag: 1, payload: Box::new(1u8) });
        let err = mb.recv::<String>(Some(0), Some(1)).unwrap_err();
        assert_eq!(err, Error::TypeMismatch { src: 0, tag: 1 });
    }

    #[test]
    fn probe_does_not_consume() {
        let mb = Mailbox::new();
        assert!(!mb.probe(None, None));
        mb.push(Envelope { src: 0, tag: 0, payload: Box::new(()) });
        assert!(mb.probe(Some(0), None));
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn blocking_recv_wakes_on_push() {
        use std::sync::Arc;
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let t = std::thread::spawn(move || mb2.recv::<u32>(Some(0), Some(0)).unwrap().2);
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.push(Envelope { src: 0, tag: 0, payload: Box::new(99u32) });
        assert_eq!(t.join().unwrap(), 99);
    }
}
