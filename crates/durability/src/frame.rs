//! On-disk layout of the journal's two file kinds: record framing
//! `len u32 LE | crc32 u32 LE | payload`, and the 16-byte header that
//! opens both kinds, an 8-byte magic followed by a `u64` LE sequence
//! number.
//!
//! A segment is an append-only file: its header ([`SEGMENT_MAGIC`], the
//! segment's own seq), then zero or more framed records. A snapshot is
//! its header ([`SNAPSHOT_MAGIC`], the boundary seq), then exactly one
//! framed record holding the serialized state. The CRC covers the
//! payload only; the length prefix is implicitly validated by the
//! CRC check (a torn or garbled length either runs past the end of
//! the file or yields a payload whose CRC cannot match). One parser,
//! `record`, reads the frame in both kinds.
//!
//! The framing guarantees the journal's one crash invariant: a
//! process killed at an arbitrary instant can tear at most the *tail*
//! of the last segment. [`scan`] walks a segment and reports exactly
//! where the clean prefix ends, so the opener can truncate back to the
//! last complete record instead of refusing to start.

use crate::codec::Reader;

/// 8-byte magic at the start of every segment file; the digit versions
/// the record wire form. `DLSWAL01` segments carried fixed-width grants
/// and settle lists and are refused like any other magic.
pub const SEGMENT_MAGIC: &[u8; 8] = b"DLSWAL02";

/// 8-byte magic at the start of a snapshot file; the digit versions the
/// body layout. `DLSSNAP1` bodies carried a row per lease ever granted
/// and are refused like any other magic.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"DLSSNAP2";

/// Fixed size of a file header: magic + sequence number. Segments and
/// snapshots share it.
pub const SEGMENT_HEADER_LEN: usize = 16;

/// Per-record framing overhead: length prefix + CRC.
pub const RECORD_HEADER_LEN: usize = 8;

/// Hard cap on a single record's payload, checked when encoding.
/// Nothing the service journals comes close. Parsing needs no cap of
/// its own: a file is read whole first, so a torn length prefix that
/// reads as "huge" runs past the end of the bytes and is torn.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// CRC32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the
/// same polynomial zlib and gzip use, implemented with compile-time
/// tables so the crate stays dependency-free. Slicing-by-8: eight bytes
/// per step through eight tables (8 KiB), the tail byte by byte.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = crc32_tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// state after byte `b` and then `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Append one framed record to `out`. The payload is never empty: a
/// zero length prefix is what [`scan`] reads as a zero-filled tail.
pub fn encode_record(payload: &[u8], out: &mut Vec<u8>) {
    encode_record_with(out, |b| b.extend_from_slice(payload));
}

/// Append one framed record whose payload `write` appends to `out` in
/// place: the header is filled in afterwards, so the payload is never
/// staged and copied.
pub(crate) fn encode_record_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
    write(out);
    let payload = &out[start + RECORD_HEADER_LEN..];
    debug_assert!((1..=MAX_RECORD_LEN as u64).contains(&(payload.len() as u64)));
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + RECORD_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// The header of a file of kind `magic` and sequence number `seq`.
fn header(magic: &[u8; 8], seq: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[..8].copy_from_slice(magic);
    h[8..].copy_from_slice(&seq.to_le_bytes());
    h
}

/// The sequence number of a file that opens with `magic`, and the
/// bytes after its header; `None` for a short file or another magic.
fn read_header<'a>(bytes: &'a [u8], magic: &[u8; 8]) -> Option<(u64, &'a [u8])> {
    let mut r = Reader::new(bytes);
    if r.take(magic.len()).ok()? != magic {
        return None;
    }
    Some((r.u64().ok()?, r.rest()))
}

/// One frame at the front of `bytes`: its payload and the bytes after
/// it, or `None` when the frame is torn (short header, short payload,
/// CRC mismatch, or a zero length prefix).
fn record(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let mut r = Reader::new(bytes);
    let (len, crc) = (r.u32().ok()?, r.u32().ok()?);
    // The encoder never writes an empty payload, and an all-zero
    // header would pass the CRC check (`crc32(&[])` is 0): a
    // zero-filled tail, as some filesystems leave after a power cut,
    // is torn, not a run of empty records.
    if len == 0 {
        return None;
    }
    let payload = r.take(len as usize).ok()?;
    (crc32(payload) == crc).then(|| (payload, r.rest()))
}

/// Build a segment header for segment `seq`.
pub fn segment_header(seq: u64) -> [u8; SEGMENT_HEADER_LEN] {
    header(SEGMENT_MAGIC, seq)
}

/// A whole snapshot file: the header of `boundary`, then `body` as one
/// frame.
pub fn encode_snapshot(boundary: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN + RECORD_HEADER_LEN + body.len());
    out.extend_from_slice(&header(SNAPSHOT_MAGIC, boundary));
    encode_record(body, &mut out);
    out
}

/// The body of a snapshot file written by [`encode_snapshot`] for
/// `boundary`; `None` for another magic or boundary, a torn frame or
/// bytes past it.
pub fn decode_snapshot(bytes: &[u8], boundary: u64) -> Option<&[u8]> {
    let (seq, framed) = read_header(bytes, SNAPSHOT_MAGIC)?;
    let (body, rest) = record(framed)?;
    (seq == boundary && rest.is_empty()).then_some(body)
}

/// True when `bytes` are a segment cut inside its own header: a proper
/// prefix of [`segment_header`]`(seq)`, or nothing but zero bytes. A
/// rotation creates the file before it writes the header, so a kill
/// between the two — or a power cut before the header reached the
/// disk — leaves one. Only the last segment can be in that state.
pub(crate) fn torn_header(bytes: &[u8], seq: u64) -> bool {
    bytes.len() < SEGMENT_HEADER_LEN && segment_header(seq).starts_with(bytes)
        || bytes.iter().all(|&b| b == 0)
}

/// Outcome of scanning one segment's bytes.
#[derive(Debug)]
pub struct ScanResult<'a> {
    /// Segment sequence number from the header.
    pub seq: u64,
    /// Complete, CRC-clean payloads in append order.
    pub records: Vec<&'a [u8]>,
    /// Byte offset of the end of the clean prefix — the truncation
    /// point when `torn` is true, the file length otherwise.
    pub clean_len: usize,
    /// True if trailing bytes after `clean_len` failed to parse
    /// (short header, short payload, CRC mismatch, or a zero length
    /// prefix).
    pub torn: bool,
}

/// Errors from [`scan`] that mean the segment is unusable as a whole,
/// as opposed to merely having a torn tail.
#[derive(Debug, PartialEq, Eq)]
pub enum ScanError {
    /// File shorter than the segment header, or wrong magic.
    BadHeader,
    /// Header names a different sequence number than the filename.
    SeqMismatch {
        /// Sequence number expected from the filename.
        expected: u64,
        /// Sequence number found in the header.
        found: u64,
    },
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::BadHeader => write!(f, "bad segment header"),
            ScanError::SeqMismatch { expected, found } => {
                write!(f, "segment header seq {found} does not match filename seq {expected}")
            }
        }
    }
}

/// Walk a segment file's bytes, returning every clean record and the
/// offset where the clean prefix ends. `expect_seq` (when `Some`)
/// cross-checks the header against the filename.
pub fn scan(bytes: &[u8], expect_seq: Option<u64>) -> Result<ScanResult<'_>, ScanError> {
    let (seq, mut rest) = read_header(bytes, SEGMENT_MAGIC).ok_or(ScanError::BadHeader)?;
    if let Some(expected) = expect_seq {
        if seq != expected {
            return Err(ScanError::SeqMismatch { expected, found: seq });
        }
    }
    let mut records = Vec::new();
    while let Some((payload, after)) = record(rest) {
        records.push(payload);
        rest = after;
    }
    Ok(ScanResult { seq, records, clean_len: bytes.len() - rest.len(), torn: !rest.is_empty() })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32` replaced, kept as its oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        const TABLES: [[u32; 256]; 8] = crc32_tables();
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc32_is_the_bytewise_crc32() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let buf: Vec<u8> = (0..4096 + 8).map(|_| rng.gen::<u32>() as u8).collect();
        // Every short length, where head, body and tail all change shape,
        // at every alignment of the first byte.
        for align in 0..8usize {
            for len in 0..=64usize {
                let data = &buf[align..align + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "align {align} len {len}");
            }
            for _ in 0..64 {
                let len = rng.gen_range(0..=4096usize);
                let data = &buf[align..align + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "align {align} len {len}");
            }
        }
    }

    /// Known-answer test: CRC32("123456789") is the classic check value.
    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_multiple_records() {
        let mut buf = segment_header(7).to_vec();
        encode_record(b"alpha", &mut buf);
        encode_record(b"b", &mut buf);
        encode_record(&[0xFFu8; 300], &mut buf);
        let res = scan(&buf, Some(7)).unwrap();
        assert!(!res.torn);
        assert_eq!(res.clean_len, buf.len());
        assert_eq!(res.records.len(), 3);
        assert_eq!(res.records[0], b"alpha");
        assert_eq!(res.records[1], b"b");
        assert_eq!(res.records[2], &[0xFFu8; 300][..]);
    }

    #[test]
    fn zero_filled_tail_is_torn_not_empty_records() {
        let mut buf = segment_header(2).to_vec();
        encode_record(b"first", &mut buf);
        let keep = buf.len();
        buf.resize(keep + 4096, 0);
        let res = scan(&buf, Some(2)).unwrap();
        assert!(res.torn);
        assert_eq!(res.clean_len, keep);
        assert_eq!(res.records, vec![&b"first"[..]]);
    }

    #[test]
    fn truncation_at_every_offset_is_torn_not_panic() {
        let mut buf = segment_header(0).to_vec();
        encode_record(b"first", &mut buf);
        let keep = buf.len();
        encode_record(b"second-record-payload", &mut buf);
        for cut in keep + 1..buf.len() {
            let res = scan(&buf[..cut], Some(0)).unwrap();
            assert!(res.torn, "cut at {cut} should be torn");
            assert_eq!(res.clean_len, keep);
            assert_eq!(res.records.len(), 1);
            assert_eq!(res.records[0], b"first");
        }
    }

    #[test]
    fn bit_flip_in_payload_is_torn() {
        let mut buf = segment_header(3).to_vec();
        encode_record(b"first", &mut buf);
        let keep = buf.len();
        encode_record(b"second", &mut buf);
        let flip = keep + RECORD_HEADER_LEN + 2;
        buf[flip] ^= 0x40;
        let res = scan(&buf, Some(3)).unwrap();
        assert!(res.torn);
        assert_eq!(res.clean_len, keep);
        assert_eq!(res.records.len(), 1);
    }

    #[test]
    fn oversized_length_prefix_is_torn() {
        let mut buf = segment_header(1).to_vec();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let res = scan(&buf, Some(1)).unwrap();
        assert!(res.torn);
        assert_eq!(res.clean_len, SEGMENT_HEADER_LEN);
        assert!(res.records.is_empty());
    }

    #[test]
    fn snapshot_round_trips_and_refuses_what_it_did_not_write() {
        let file = encode_snapshot(9, b"image");
        assert_eq!(&file[..8], SNAPSHOT_MAGIC);
        assert_eq!(decode_snapshot(&file, 9), Some(&b"image"[..]));
        assert_eq!(decode_snapshot(&file, 8), None, "another boundary");
        let mut longer = file.clone();
        longer.push(0);
        assert_eq!(decode_snapshot(&longer, 9), None, "bytes past the frame");
        for cut in 0..file.len() {
            assert_eq!(decode_snapshot(&file[..cut], 9), None, "cut at {cut}");
        }
        assert_eq!(scan(&file, None).unwrap_err(), ScanError::BadHeader, "no segment");
    }

    #[test]
    fn header_checks() {
        assert_eq!(scan(b"short", None).unwrap_err(), ScanError::BadHeader);
        let mut buf = segment_header(4).to_vec();
        buf[0] = b'x';
        assert_eq!(scan(&buf, Some(4)).unwrap_err(), ScanError::BadHeader);
        let buf = segment_header(4).to_vec();
        assert_eq!(
            scan(&buf, Some(5)).unwrap_err(),
            ScanError::SeqMismatch { expected: 5, found: 4 }
        );
    }
}
