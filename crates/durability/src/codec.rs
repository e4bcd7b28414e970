//! The one byte codec under the service's three binary formats: the
//! wire protocol (`dls-service`'s `protocol`), the journal records
//! ([`record`](crate::record)) and the snapshot image
//! ([`job`](crate::job), [`replay`](crate::replay)).
//!
//! Integers are little-endian, `f64` travels as its IEEE-754 bits, and
//! the compact journal records add LEB128 varints. [`Writer`] appends
//! to a buffer it borrows — a fresh `Vec`, a connection's write buffer
//! or the journal's commit buffer — so encoding copies nothing and
//! allocates only what the buffer grows by. [`Reader`] is a
//! bounds-checked cursor: a read past the end, a count the remaining
//! bytes cannot hold and a byte that names no value are each a
//! [`Malformed`] with its reason.
//!
//! A technique travels as [`SchedKind::to_byte`], and a tuner
//! [`Decision`] has its one [`DECISION_LEN`]-byte form here, the same
//! on the wire, in a `TechniqueSwitched` record and in the image:
//! `seq u32 | step u64 | scheduled u64 | from u8 | to u8 | reason u8`.

use dls::switchable::{Decision, SchedKind, SwitchReason};

/// Why a read failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Malformed(pub &'static str);

/// What a [`Reader`] read, or why it could not.
pub type Result<T> = std::result::Result<T, Malformed>;

/// Bytes in a [`Decision`]'s form.
pub const DECISION_LEN: usize = 4 + 8 + 8 + 3;

const SHORT: Malformed = Malformed("body shorter than declared");

/// Appends little-endian fields to a borrowed buffer.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `buf`.
    #[inline]
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Writer { buf }
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// An `f64` as its bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// A flag as one byte, 0 or 1.
    #[inline]
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Raw bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// A LEB128 varint in its shortest form.
    #[inline]
    pub fn varint(&mut self, mut v: u64) -> &mut Self {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.u8(v as u8)
    }

    /// A technique as its [`SchedKind::to_byte`].
    #[inline]
    pub fn kind(&mut self, k: SchedKind) -> &mut Self {
        self.u8(k.to_byte())
    }

    /// A [`Decision`] in its [`DECISION_LEN`]-byte form.
    pub fn decision(&mut self, d: Decision) -> &mut Self {
        self.u32(d.seq).u64(d.step).u64(d.scheduled).kind(d.from).kind(d.to);
        self.u8(d.reason.to_byte())
    }
}

/// `u16`, `u32` and `u64`, little-endian, both ways.
macro_rules! le_ints {
    ($($ty:ident),+) => {
        impl Writer<'_> {$(
            #[doc = concat!("A `", stringify!($ty), "`.")]
            #[inline]
            pub fn $ty(&mut self, v: $ty) -> &mut Self {
                self.bytes(&v.to_le_bytes())
            }
        )+}
        impl Reader<'_> {$(
            #[doc = concat!("A `", stringify!($ty), "`.")]
            #[inline]
            pub fn $ty(&mut self) -> Result<$ty> {
                self.array().map($ty::from_le_bytes)
            }
        )+}
    };
}
le_ints!(u16, u32, u64);

/// A bounds-checked cursor over little-endian fields.
pub struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, off: 0 }
    }

    /// The bytes not read yet.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        &self.bytes[self.off..]
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let out = self.rest().get(..n).ok_or(SHORT)?;
        self.off += n;
        Ok(out)
    }

    // Always inlined: an out-of-line copy takes the cursor's address,
    // which keeps every caller's cursor in memory.
    #[inline(always)]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, _) = self.rest().split_first_chunk::<N>().ok_or(SHORT)?;
        self.off += N;
        Ok(*head)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        let b = *self.bytes.get(self.off).ok_or(SHORT)?;
        self.off += 1;
        Ok(b)
    }

    /// An `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A flag: any byte but 0 is set.
    #[inline]
    pub fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }

    /// One LEB128 varint in its shortest form: a value past 64 bits or
    /// a redundant trailing zero byte is malformed.
    #[inline]
    pub fn varint(&mut self) -> Result<u64> {
        const LONG: Malformed = Malformed("varint not in shortest 64-bit form");
        let first = self.u8()?;
        if first < 0x80 {
            return Ok(u64::from(first));
        }
        let (mut v, mut shift) = (u64::from(first & 0x7F), 7);
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(LONG);
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                return if byte != 0 { Ok(v) } else { Err(LONG) };
            }
            shift += 7;
        }
    }

    /// A varint that must fit a `u32`.
    #[inline]
    pub(crate) fn varint_u32(&mut self) -> Result<u32> {
        u32::try_from(self.varint()?).map_err(|_| Malformed("varint past u32"))
    }

    /// A technique from its [`SchedKind::to_byte`].
    #[inline]
    pub fn kind(&mut self) -> Result<SchedKind> {
        SchedKind::from_byte(self.u8()?).ok_or(Malformed("unknown technique"))
    }

    /// A [`Decision`] from its [`DECISION_LEN`]-byte form.
    pub fn decision(&mut self) -> Result<Decision> {
        Ok(Decision {
            seq: self.u32()?,
            step: self.u64()?,
            scheduled: self.u64()?,
            from: self.kind()?,
            to: self.kind()?,
            reason: SwitchReason::from_byte(self.u8()?).ok_or(Malformed("decision reason"))?,
        })
    }

    /// `count` as a `usize`, if the remaining bytes can hold that many
    /// items of at least `min_size` bytes: a garbage count is refused
    /// before anything is allocated for it.
    pub fn count(&self, count: u64, min_size: usize) -> Result<usize> {
        usize::try_from(count)
            .ok()
            .filter(|&c| c <= self.rest().len() / min_size.max(1))
            .ok_or(SHORT)
    }

    /// [`Reader::count`] items read by `item`.
    pub fn items<T>(
        &mut self,
        count: u64,
        min_size: usize,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let count = self.count(count, min_size)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Succeeds when every byte has been read.
    #[inline]
    pub fn done(&self) -> Result<()> {
        if self.rest().is_empty() {
            Ok(())
        } else {
            Err(Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_and_short_reads_are_malformed() {
        let d = Decision {
            seq: 7,
            step: 8,
            scheduled: 9,
            from: SchedKind::Auto,
            to: SchedKind::Af,
            reason: SwitchReason::Imbalance,
        };
        let mut buf = Vec::new();
        Writer::new(&mut buf).u8(1).u16(2).u32(3).u64(4).f64(0.5).bool(true).varint(300);
        Writer::new(&mut buf).decision(d);
        assert_eq!(buf.len(), 1 + 2 + 4 + 8 + 8 + 1 + 2 + DECISION_LEN);
        let mut r = Reader::new(&buf);
        assert_eq!((r.u8(), r.u16(), r.u32(), r.u64()), (Ok(1), Ok(2), Ok(3), Ok(4)));
        assert_eq!((r.f64(), r.bool(), r.varint()), (Ok(0.5), Ok(true), Ok(300)));
        assert_eq!(r.decision(), Ok(d));
        assert_eq!(r.done(), Ok(()));
        assert_eq!(r.u8(), Err(SHORT));
        let mut r = Reader::new(&buf[..3]);
        assert_eq!((r.u8(), r.u32(), r.u16()), (Ok(1), Err(SHORT), Ok(2)));
        assert_eq!(Reader::new(&[0]).done(), Err(Malformed("trailing bytes")));
    }

    #[test]
    fn an_item_count_the_bytes_cannot_hold_is_refused() {
        let bytes = [1, 2, 3, 4];
        assert_eq!(Reader::new(&bytes).items(4, 1, Reader::u8), Ok(bytes.to_vec()));
        assert_eq!(Reader::new(&bytes).items(2, 3, Reader::u8), Err(SHORT));
        assert_eq!(Reader::new(&bytes).items(u64::MAX, 1, Reader::u8), Err(SHORT));
    }
}
