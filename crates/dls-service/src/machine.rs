//! The per-connection protocol state.
//!
//! One [`ConnMachine`] owns everything about a connection that is not
//! the socket itself: the receive and transmit buffers (two
//! [`RingBuf`]s: frames are decoded in place from `rx`, replies framed
//! in place at `tx`'s tail) and the lifecycle flags. It is
//! deliberately I/O-free — the event loop feeds it bytes and drains
//! its writes, and the unit tests feed it the same bytes split at
//! every awkward boundary (mid-prefix, exactly at the 4-byte length
//! boundary, many frames coalesced into one read) without a socket in
//! sight.

use crate::ring::RingBuf;

/// Per-connection protocol state: the two byte buffers and the
/// lifecycle flags.
#[derive(Debug, Default)]
pub(crate) struct ConnMachine {
    /// Received bytes: complete frames wait here until they are served.
    pub(crate) rx: RingBuf,
    /// Replies not yet written to the socket.
    pub(crate) tx: RingBuf,
    /// Close the connection once the write buffer is fully flushed
    /// (set on framing violations and version mismatches).
    pub(crate) close_after_flush: bool,
    /// Drain bookkeeping: cycles without a byte read or a frame served.
    pub(crate) idle_cycles: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{frame, ErrorCode, Request, Response, MAX_FRAME};
    use crate::ring::FramePeek;

    fn fetch_frame() -> Vec<u8> {
        frame(&Request::FetchChunk { job: 1, worker: 2, batch: 3 }.encode())
    }

    /// Extract and decode every complete frame currently buffered.
    fn drain_requests(m: &mut ConnMachine) -> Vec<Request> {
        let mut out = Vec::new();
        loop {
            let decoded = match m.rx.peek_frame(MAX_FRAME) {
                FramePeek::Payload(p) => Request::decode(p).expect("decode"),
                FramePeek::Incomplete => break,
                FramePeek::BadLength(len) => panic!("unexpected bad length {len}"),
            };
            m.rx.consume_frame();
            out.push(decoded);
        }
        out
    }

    #[test]
    fn partial_frame_across_readiness_events() {
        let wire = fetch_frame();
        let mut m = ConnMachine::default();
        // Three readiness events deliver the frame in ragged pieces.
        m.rx.extend(&wire[..3]); // not even a full length prefix
        assert_eq!(m.rx.peek_frame(MAX_FRAME), FramePeek::Incomplete);
        m.rx.extend(&wire[3..7]); // prefix complete, body partial
        assert_eq!(m.rx.peek_frame(MAX_FRAME), FramePeek::Incomplete);
        m.rx.extend(&wire[7..]);
        assert_eq!(
            drain_requests(&mut m),
            vec![Request::FetchChunk { job: 1, worker: 2, batch: 3 }]
        );
        assert_eq!(m.rx.len(), 0);
    }

    #[test]
    fn frame_split_exactly_at_length_boundary() {
        let wire = fetch_frame();
        let mut m = ConnMachine::default();
        // First event ends exactly after the 4-byte length prefix.
        m.rx.extend(&wire[..4]);
        assert_eq!(m.rx.peek_frame(MAX_FRAME), FramePeek::Incomplete);
        m.rx.extend(&wire[4..]);
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

        let mut m = ConnMachine::default();
        m.rx.extend(&wire);
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
        assert_eq!(m.rx.len(), 3);
        m.rx.extend(&tail[3..]);
        assert_eq!(drain_requests(&mut m), vec![Request::Shutdown]);
    }

    #[test]
    fn zero_and_oversized_lengths_are_violations() {
        let mut m = ConnMachine::default();
        m.rx.extend(&0u32.to_le_bytes());
        assert_eq!(m.rx.peek_frame(MAX_FRAME), FramePeek::BadLength(0));

        let mut m = ConnMachine::default();
        m.rx.extend(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(m.rx.peek_frame(MAX_FRAME), FramePeek::BadLength(MAX_FRAME + 1));
    }

    /// Replies framed in place behind a partially flushed one: the
    /// pending bytes are exactly the unflushed tail plus the new frames.
    #[test]
    fn write_queue_tracks_partial_flushes() {
        let ack = frame(&Response::Ack.encode());
        let err = Response::Error { code: ErrorCode::StaleLease, detail: "lease 7".into() };
        let mut m = ConnMachine::default();
        Response::Ack.frame_into(m.tx.tail());
        err.frame_into(m.tx.tail());
        let both = [ack.clone(), frame(&err.encode())].concat();
        assert_eq!(m.tx.as_slice(), both, "framing in place is encode + frame");
        let cut = both.len() - 3;
        m.tx.consume(cut); // short write, mid-frame
        assert_eq!(m.tx.as_slice(), &both[cut..]);
        Response::Ack.frame_into(m.tx.tail()); // compacts the flushed prefix
        assert_eq!(m.tx.as_slice(), [&both[cut..], &ack[..]].concat());
        m.tx.consume(m.tx.len());
        assert!(m.tx.is_empty());
    }
}
