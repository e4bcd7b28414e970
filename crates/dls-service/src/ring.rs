//! The one sliding byte buffer: every byte stream of the service —
//! the server's receive and transmit sides and the [`crate::Client`]'s
//! receive side — is a [`RingBuf`].
//!
//! Socket reads land straight in the buffer's spare tail and frames
//! are decoded *in place* from the contiguous live region — no
//! intermediate stack chunk, no per-frame `Vec` allocation, no
//! per-frame `drain` shifting the whole buffer. Replies are framed in
//! place at the tail ([`RingBuf::tail`]) and written from the live
//! region. Consumed bytes advance a head offset; the live region is
//! memmoved to the front only when the dead prefix outgrows the live
//! suffix, so compaction cost is amortised O(1) per byte.

use std::io::Read;

/// Spare capacity offered to each socket read.
pub(crate) const READ_CHUNK: usize = 4096;

/// What the front of a receive buffer holds.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FramePeek<'a> {
    /// A complete frame's payload (version + tag + body), decodable in
    /// place — call [`RingBuf::consume_frame`] once done with it.
    Payload(&'a [u8]),
    /// A length prefix of zero or above the reader's bound: a framing
    /// violation; the stream cannot be resynchronised.
    BadLength(u32),
    /// No complete frame buffered yet.
    Incomplete,
}

/// A contiguous sliding buffer (head-offset "ring": the live bytes are
/// always one contiguous slice, which is what zero-copy frame decode
/// and a single `write` of the pending bytes need).
#[derive(Debug, Default)]
pub(crate) struct RingBuf {
    buf: Vec<u8>,
    head: usize,
}

impl RingBuf {
    /// The live (unconsumed) bytes.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    /// Number of live bytes.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Drop `n` bytes from the front of the live region.
    pub(crate) fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len());
        self.head += n;
        if self.is_empty() {
            // Everything consumed: reset without deallocating.
            self.buf.clear();
            self.head = 0;
        }
    }

    /// The buffer to append at: the live region ends where the returned
    /// `Vec` ends. Compacts first, so appends stay amortised.
    pub(crate) fn tail(&mut self) -> &mut Vec<u8> {
        if self.head > 0 && self.head >= self.len() {
            // The dead prefix dominates: memmove the live region.
            self.buf.copy_within(self.head.., 0);
            let live = self.len();
            self.buf.truncate(live);
            self.head = 0;
        }
        &mut self.buf
    }

    /// Append bytes (test harness; production reads use
    /// [`RingBuf::read_from`]).
    #[cfg(test)]
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.tail().extend_from_slice(bytes);
    }

    /// Read once from `r` directly into the spare tail. Returns the
    /// byte count (0 = EOF); errors pass through untouched.
    pub(crate) fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        let buf = self.tail();
        let old = buf.len();
        buf.resize(old + READ_CHUNK, 0);
        let got = r.read(&mut buf[old..]);
        buf.truncate(old + got.as_ref().map_or(0, |&k| k));
        got
    }

    /// Inspect the front for a length-prefixed frame whose payload may
    /// be at most `max` bytes.
    pub(crate) fn peek_frame(&self, max: u32) -> FramePeek<'_> {
        let live = self.as_slice();
        let Some(prefix) = live.first_chunk::<4>() else { return FramePeek::Incomplete };
        let len = u32::from_le_bytes(*prefix);
        if len == 0 || len > max {
            return FramePeek::BadLength(len);
        }
        match live.get(4..4 + len as usize) {
            Some(payload) => FramePeek::Payload(payload),
            None => FramePeek::Incomplete,
        }
    }

    /// Discard the complete frame at the front (after a
    /// [`RingBuf::peek_frame`] that found one). Returns its wire size.
    pub(crate) fn consume_frame(&mut self) -> usize {
        let live = self.as_slice();
        let len = u32::from_le_bytes(*live.first_chunk::<4>().expect("a frame is buffered"));
        let total = 4 + len as usize;
        self.consume(total);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_resets_when_empty() {
        let mut r = RingBuf::default();
        r.extend(&[1, 2, 3]);
        r.consume(3);
        assert!(r.is_empty());
        assert_eq!(r.head, 0, "full consumption resets the head");
    }

    #[test]
    fn compaction_preserves_live_bytes() {
        let mut r = RingBuf::default();
        r.extend(&[0; 100]);
        r.consume(90);
        r.extend(&[7; 4]); // dead prefix (90) > live (10) → memmove
        assert_eq!(r.head, 0);
        assert_eq!(r.len(), 14);
        assert_eq!(&r.as_slice()[10..], &[7; 4]);
    }

    /// A length-prefixed frame whose bytes arrive in two reads split
    /// either side of a compaction: the memmove must leave the partial
    /// frame contiguous and intact for in-place decode.
    #[test]
    fn frame_spanning_compaction_boundary_stays_contiguous() {
        let mut r = RingBuf::default();
        // 90 bytes of already-decoded traffic, then the first half of a
        // 12-byte frame: 4-byte length prefix (8) + 2 of 8 body bytes.
        r.extend(&[0xAA; 90]);
        let body: Vec<u8> = (1..=8).collect();
        r.extend(&8u32.to_le_bytes());
        r.extend(&body[..2]);
        r.consume(90); // dead prefix (90) > live (6): next append compacts
        r.extend(&body[2..]);
        assert_eq!(r.head, 0, "compaction moved the partial frame to the front");
        assert_eq!(r.len(), 12);
        let slice = r.as_slice();
        assert_eq!(u32::from_le_bytes(slice[..4].try_into().unwrap()), 8);
        assert_eq!(&slice[4..], &body[..], "frame body survived the mid-frame memmove");
    }

    /// Exactly-full buffer: a source that delivers precisely one
    /// `READ_CHUNK`, consumed to the last byte — the reset-on-empty
    /// path must fire from the completely full state too.
    #[test]
    fn exactly_full_buffer_consumes_to_reset() {
        let mut r = RingBuf::default();
        let data = vec![0x5C; READ_CHUNK];
        let mut src: &[u8] = &data;
        assert_eq!(r.read_from(&mut src).unwrap(), READ_CHUNK);
        assert_eq!(r.len(), READ_CHUNK);
        r.consume(READ_CHUNK - 1);
        assert_eq!(r.as_slice(), &[0x5C], "one live byte left at the very end");
        r.consume(1);
        assert!(r.is_empty());
        assert_eq!(r.head, 0, "exact-boundary consumption resets the head");
        assert_eq!(r.buf.len(), 0, "reset reclaims the logical length");
    }

    /// A zero-length body directly after a compaction: the frame is
    /// nothing but its length prefix, and consuming it from the
    /// freshly-compacted front must behave like any other frame.
    #[test]
    fn zero_length_body_after_compaction() {
        let mut r = RingBuf::default();
        r.extend(&[0xEE; 64]);
        r.consume(64); // empties → reset path
        r.extend(&0u32.to_le_bytes()); // zero-length frame: prefix only
        assert_eq!(r.head, 0);
        assert_eq!(u32::from_le_bytes(r.as_slice().try_into().unwrap()), 0);
        r.consume(4);
        assert!(r.is_empty(), "a prefix-only frame consumes cleanly");
    }

    /// The compaction trigger is `dead >= live`: at exact equality the
    /// memmove must fire and preserve the live half.
    #[test]
    fn compaction_fires_at_exact_dead_live_tie() {
        let mut r = RingBuf::default();
        r.extend(&[1, 2, 3, 4, 5, 6]);
        r.consume(3); // dead 3 == live 3
        r.extend(&[7]);
        assert_eq!(r.head, 0, "tie triggers compaction");
        assert_eq!(r.as_slice(), &[4, 5, 6, 7]);
    }

    #[test]
    fn read_from_appends_and_reports_eof() {
        let mut r = RingBuf::default();
        let mut src: &[u8] = &[9, 8, 7];
        assert_eq!(r.read_from(&mut src).unwrap(), 3);
        assert_eq!(r.as_slice(), &[9, 8, 7]);
        assert_eq!(r.read_from(&mut src).unwrap(), 0, "EOF is 0");
        assert_eq!(r.len(), 3, "EOF read leaves the buffer untouched");
    }
}
