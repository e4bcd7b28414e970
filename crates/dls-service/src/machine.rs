//! The per-connection protocol state machine.
//!
//! One [`ConnMachine`] owns everything about a connection that is not
//! the socket itself: the receive ring buffer, frame extraction over
//! the length-prefixed wire format, the pending-write buffer, and the
//! close-after-flush flag. It is deliberately I/O-free — the event
//! loop feeds it bytes and drains its writes, and the unit tests feed
//! it the same bytes split at every awkward boundary (mid-prefix,
//! exactly at the 4-byte length boundary, many frames coalesced into
//! one read) without a socket in sight.

use crate::ring::RingBuf;

/// What the front of the receive buffer holds.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FramePeek<'a> {
    /// A complete frame's payload (version + tag + body), decodable in
    /// place — call [`ConnMachine::consume_frame`] once done with it.
    Payload(&'a [u8]),
    /// A length prefix of zero or above `max_frame`: a framing
    /// violation; the stream cannot be resynchronised.
    BadLength(u32),
    /// No complete frame buffered yet.
    Incomplete,
}

/// Per-connection protocol state: receive ring, write queue, lifecycle
/// flags.
#[derive(Debug, Default)]
pub(crate) struct ConnMachine {
    rx: RingBuf,
    tx: Vec<u8>,
    tx_head: usize,
    /// Close the connection once the write buffer is fully flushed
    /// (set on framing violations and version mismatches).
    pub(crate) close_after_flush: bool,
    /// Drain bookkeeping: readiness cycles without receive progress.
    pub(crate) idle_cycles: u32,
}

impl ConnMachine {
    pub(crate) fn new() -> ConnMachine {
        ConnMachine::default()
    }

    // ---- receive side -----------------------------------------------------

    /// Feed raw stream bytes (tests; the event loop uses
    /// [`ConnMachine::rx_mut`] to read straight off the socket).
    #[cfg(test)]
    pub(crate) fn ingest(&mut self, bytes: &[u8]) {
        self.rx.extend(bytes);
    }

    /// Direct access to the receive ring for socket reads.
    pub(crate) fn rx_mut(&mut self) -> &mut RingBuf {
        &mut self.rx
    }

    /// Bytes currently buffered on the receive side.
    pub(crate) fn rx_len(&self) -> usize {
        self.rx.len()
    }

    /// Inspect the front of the receive buffer.
    pub(crate) fn peek_frame(&self, max_frame: u32) -> FramePeek<'_> {
        let live = self.rx.as_slice();
        if live.len() < 4 {
            return FramePeek::Incomplete;
        }
        let len = u32::from_le_bytes([live[0], live[1], live[2], live[3]]);
        if len == 0 || len > max_frame {
            return FramePeek::BadLength(len);
        }
        let total = 4 + len as usize;
        if live.len() < total {
            return FramePeek::Incomplete;
        }
        FramePeek::Payload(&live[4..total])
    }

    /// Discard the complete frame at the front (after a successful
    /// [`ConnMachine::peek_frame`]). Returns its total wire size.
    pub(crate) fn consume_frame(&mut self) -> usize {
        let live = self.rx.as_slice();
        debug_assert!(live.len() >= 4);
        let len = u32::from_le_bytes([live[0], live[1], live[2], live[3]]);
        let total = 4 + len as usize;
        debug_assert!(live.len() >= total);
        self.rx.consume(total);
        total
    }

    // ---- send side --------------------------------------------------------

    /// The write buffer, for framing a response in place at its end.
    pub(crate) fn tx_mut(&mut self) -> &mut Vec<u8> {
        // Compact the flushed prefix before growing.
        if self.tx_head > 0 && self.tx_head >= self.tx.len() - self.tx_head {
            self.tx.copy_within(self.tx_head.., 0);
            let live = self.tx.len() - self.tx_head;
            self.tx.truncate(live);
            self.tx_head = 0;
        }
        &mut self.tx
    }

    /// Unflushed outgoing bytes.
    pub(crate) fn tx_pending(&self) -> &[u8] {
        &self.tx[self.tx_head..]
    }

    /// Record `n` bytes as written to the socket.
    pub(crate) fn tx_advance(&mut self, n: usize) {
        debug_assert!(n <= self.tx.len() - self.tx_head);
        self.tx_head += n;
        if self.tx_head == self.tx.len() {
            self.tx.clear();
            self.tx_head = 0;
        }
    }

    pub(crate) fn tx_is_empty(&self) -> bool {
        self.tx_head == self.tx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{frame, ErrorCode, Request, Response, MAX_FRAME};

    fn fetch_frame() -> Vec<u8> {
        frame(&Request::FetchChunk { job: 1, worker: 2, batch: 3 }.encode())
    }

    /// Extract and decode every complete frame currently buffered.
    fn drain_requests(m: &mut ConnMachine) -> Vec<Request> {
        let mut out = Vec::new();
        loop {
            let decoded = match m.peek_frame(MAX_FRAME) {
                FramePeek::Payload(p) => Request::decode(p).expect("decode"),
                FramePeek::Incomplete => break,
                FramePeek::BadLength(len) => panic!("unexpected bad length {len}"),
            };
            m.consume_frame();
            out.push(decoded);
        }
        out
    }

    #[test]
    fn partial_frame_across_readiness_events() {
        let wire = fetch_frame();
        let mut m = ConnMachine::new();
        // Three readiness events deliver the frame in ragged pieces.
        m.ingest(&wire[..3]); // not even a full length prefix
        assert_eq!(m.peek_frame(MAX_FRAME), FramePeek::Incomplete);
        m.ingest(&wire[3..7]); // prefix complete, body partial
        assert_eq!(m.peek_frame(MAX_FRAME), FramePeek::Incomplete);
        m.ingest(&wire[7..]);
        assert_eq!(
            drain_requests(&mut m),
            vec![Request::FetchChunk { job: 1, worker: 2, batch: 3 }]
        );
        assert_eq!(m.rx_len(), 0);
    }

    #[test]
    fn frame_split_exactly_at_length_boundary() {
        let wire = fetch_frame();
        let mut m = ConnMachine::new();
        // First event ends exactly after the 4-byte length prefix.
        m.ingest(&wire[..4]);
        assert_eq!(m.peek_frame(MAX_FRAME), FramePeek::Incomplete);
        m.ingest(&wire[4..]);
        assert_eq!(
            drain_requests(&mut m),
            vec![Request::FetchChunk { job: 1, worker: 2, batch: 3 }]
        );
    }

    #[test]
    fn coalesced_frames_in_one_read() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&frame(&Request::Heartbeat { worker: 9 }.encode()));
        wire.extend_from_slice(&fetch_frame());
        wire.extend_from_slice(&frame(&Request::Stats.encode()));
        // ...plus the first half of a fourth frame.
        let tail = frame(&Request::Shutdown.encode());
        wire.extend_from_slice(&tail[..3]);

        let mut m = ConnMachine::new();
        m.ingest(&wire);
        assert_eq!(
            drain_requests(&mut m),
            vec![
                Request::Heartbeat { worker: 9 },
                Request::FetchChunk { job: 1, worker: 2, batch: 3 },
                Request::Stats,
            ],
            "one read, three complete frames, in order"
        );
        // The partial fourth frame survives until its bytes arrive.
        assert_eq!(m.rx_len(), 3);
        m.ingest(&tail[3..]);
        assert_eq!(drain_requests(&mut m), vec![Request::Shutdown]);
    }

    #[test]
    fn zero_and_oversized_lengths_are_violations() {
        let mut m = ConnMachine::new();
        m.ingest(&0u32.to_le_bytes());
        assert_eq!(m.peek_frame(MAX_FRAME), FramePeek::BadLength(0));

        let mut m = ConnMachine::new();
        m.ingest(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(m.peek_frame(MAX_FRAME), FramePeek::BadLength(MAX_FRAME + 1));
    }

    /// Replies framed in place behind a partially flushed one: the
    /// pending bytes are exactly the unflushed tail plus the new frames.
    #[test]
    fn write_queue_tracks_partial_flushes() {
        let ack = frame(&Response::Ack.encode());
        let err = Response::Error { code: ErrorCode::StaleLease, detail: "lease 7".into() };
        let mut m = ConnMachine::new();
        Response::Ack.frame_into(m.tx_mut());
        err.frame_into(m.tx_mut());
        let both = [ack.clone(), frame(&err.encode())].concat();
        assert_eq!(m.tx_pending(), both, "framing in place is encode + frame");
        let cut = both.len() - 3;
        m.tx_advance(cut); // short write, mid-frame
        assert_eq!(m.tx_pending(), &both[cut..]);
        Response::Ack.frame_into(m.tx_mut()); // compacts the flushed prefix
        assert_eq!(m.tx_head, 0);
        assert_eq!(m.tx_pending(), [&both[cut..], &ack[..]].concat());
        m.tx_advance(m.tx_pending().len());
        assert!(m.tx_is_empty());
    }
}
