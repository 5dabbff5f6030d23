//! Bit-level codes for the integer columns of index rows.
//!
//! A byte-aligned varint spends at least eight bits on every integer;
//! most columns of an eventlist or term row need far fewer — a kind tag
//! among the two a row uses, an index into a dictionary of sixty nodes,
//! a time gap of a few ticks. This module writes such a column as one
//! bit string:
//!
//! * **fixed-width codes** — `width` bits each, for values the row's
//!   own header bounds (a kind code, a dictionary index, a flag);
//! * **Rice codes** — for gaps: `v >> k` in unary (that many zero
//!   bits, then a one), then the low `k` bits of `v`. The parameter is
//!   chosen per column by [`rice_k`] and stored beside it.
//!
//! Bits are packed least-significant first; the last byte is padded
//! with zero bits. A reader refuses what a writer never produces: a
//! code past the end ([`CodecError::UnexpectedEof`]), a whole unread
//! byte at the end ([`CodecError::TrailingBytes`]), set padding bits,
//! and a unary run longer than the bits left. Every read is bounded by
//! the bits left, so no input makes a reader loop or allocate.

use bytes::{BufMut, BytesMut};

use crate::error::CodecError;

/// Bits needed to tell `n` values apart: `⌈log2 n⌉`, `0` for `n <= 1`.
#[inline]
pub(crate) fn width_for(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// Largest Rice parameter: a `u64` gap's low bits.
pub(crate) const MAX_RICE_K: u8 = 63;

/// The Rice parameter of a column of `n` gaps summing to `sum`:
/// `k = ⌊log2(mean · ln 2)⌋`, at least 0. With it, the unary parts of
/// the whole column take fewer than `2n / ln 2` bits, whatever the
/// spread of the gaps.
pub(crate) fn rice_k(sum: u128, n: usize) -> u8 {
    if n == 0 {
        return 0;
    }
    let scaled = sum as f64 / n as f64 * std::f64::consts::LN_2;
    if scaled < 2.0 {
        0
    } else {
        (scaled.log2().floor() as u8).min(MAX_RICE_K)
    }
}

/// Appends bits to a byte buffer, least-significant first.
pub(crate) struct BitWriter<'a> {
    out: &'a mut BytesMut,
    acc: u128,
    n: u32,
}

impl<'a> BitWriter<'a> {
    pub(crate) fn new(out: &'a mut BytesMut) -> BitWriter<'a> {
        BitWriter { out, acc: 0, n: 0 }
    }

    /// Write the low `width` bits of `v` (`width <= 64`).
    #[inline]
    pub(crate) fn put(&mut self, v: u64, width: u32) {
        debug_assert!(width <= 64 && (width == 64 || v >> width == 0));
        if width == 0 {
            return;
        }
        self.acc |= (v as u128) << self.n;
        self.n += width;
        while self.n >= 8 {
            self.out.put_u8(self.acc as u8);
            self.acc >>= 8;
            self.n -= 8;
        }
    }

    /// Write `v` as a Rice code with parameter `k`.
    pub(crate) fn put_rice(&mut self, v: u64, k: u8) {
        let mut q = v >> k;
        while q >= 32 {
            self.put(0, 32);
            q -= 32;
        }
        self.put(1 << q, q as u32 + 1);
        let k = u32::from(k);
        self.put(v & ((1u64 << k) - 1), k);
    }

    /// Pad the last byte with zero bits.
    pub(crate) fn finish(self) {
        if self.n > 0 {
            self.out.put_u8(self.acc as u8);
        }
    }
}

/// Reads the bits a [`BitWriter`] wrote.
///
/// The next bits wait in a 64-bit window refilled a word at a time,
/// so a code costs a mask and a shift, and a load only every few
/// bytes. Bits of the window above `nacc` are the stream's next bits
/// (or zero past its end), so a refill that ORs them in again changes
/// nothing.
pub(crate) struct BitReader<'a> {
    buf: &'a [u8],
    /// First byte not yet in the window.
    next: usize,
    acc: u64,
    /// Bits of `acc` not yet read.
    nacc: u32,
}

/// Widest code [`BitReader::get`] serves from one refilled window.
const WINDOW_BITS: u32 = 56;

impl<'a> BitReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> BitReader<'a> {
        let mut r = BitReader {
            buf,
            next: 0,
            acc: 0,
            nacc: 0,
        };
        r.refill();
        r
    }

    /// Top the window up to at least [`WINDOW_BITS`] bits, or to the
    /// end of the buffer.
    #[inline]
    fn refill(&mut self) {
        let mut word = [0u8; 8];
        match self.buf.get(self.next..self.next + 8) {
            // One unaligned load everywhere but the last 7 bytes.
            Some(whole) => word.copy_from_slice(whole),
            None => {
                let tail = &self.buf[self.next.min(self.buf.len())..];
                word[..tail.len()].copy_from_slice(tail);
            }
        }
        self.acc |= u64::from_le_bytes(word) << self.nacc;
        let bytes = ((63 - self.nacc) / 8).min((self.buf.len() - self.next) as u32);
        self.next += bytes as usize;
        self.nacc += bytes * 8;
    }

    #[inline]
    fn consume(&mut self, width: u32) {
        self.acc = self.acc.checked_shr(width).unwrap_or(0);
        self.nacc -= width;
    }

    /// Bits not yet read (padding included).
    #[inline]
    pub(crate) fn bits_left(&self) -> usize {
        (self.buf.len() - self.next) * 8 + self.nacc as usize
    }

    fn short(&self, needed_bits: usize) -> CodecError {
        CodecError::UnexpectedEof {
            needed: needed_bits.div_ceil(8),
            remaining: self.bits_left() / 8,
        }
    }

    /// Read a `width`-bit code (`width <= 64`).
    #[inline]
    pub(crate) fn get(&mut self, width: u32) -> Result<u64, CodecError> {
        if width > WINDOW_BITS {
            let lo = self.get(32)?;
            return Ok(lo | self.get(width - 32)? << 32);
        }
        if width as usize > self.bits_left() {
            return Err(self.short(width as usize));
        }
        Ok(self.take(width))
    }

    /// Read `count` codes of `width <= 56` bits each into `out`, after
    /// one check that the column holds them all.
    pub(crate) fn get_many(
        &mut self,
        count: usize,
        width: u32,
        mut out: impl FnMut(u64),
    ) -> Result<(), CodecError> {
        debug_assert!(width <= WINDOW_BITS);
        let bits = count.saturating_mul(width as usize);
        if bits > self.bits_left() {
            return Err(self.short(bits));
        }
        for _ in 0..count {
            out(self.take(width));
        }
        Ok(())
    }

    /// The next `width <= 56` bits, which the caller has checked are
    /// there.
    #[inline]
    fn take(&mut self, width: u32) -> u64 {
        if width > self.nacc {
            self.refill();
        }
        let v = self.acc & ((1u64 << width) - 1);
        self.consume(width);
        v
    }

    /// Read a Rice code with parameter `k`. The unary run is bounded by
    /// the bits left; a value past `u64::MAX` is an overflow.
    #[inline]
    pub(crate) fn get_rice(&mut self, k: u8) -> Result<u64, CodecError> {
        if self.nacc < WINDOW_BITS {
            self.refill();
        }
        // Fast path: the whole code lies in the window.
        let zeros = self.acc.trailing_zeros();
        let len = zeros + 1 + u32::from(k);
        if len <= self.nacc {
            let low = (self.acc >> (zeros + 1)) & ((1u64 << k) - 1);
            self.consume(len);
            return Ok(u64::from(zeros) << k | low);
        }
        self.get_rice_slow(k)
    }

    #[cold]
    fn get_rice_slow(&mut self, k: u8) -> Result<u64, CodecError> {
        let mut q = 0u64;
        loop {
            if self.nacc < WINDOW_BITS {
                self.refill();
            }
            if self.nacc == 0 {
                return Err(self.short(1));
            }
            let zeros = self.acc.trailing_zeros();
            if zeros < self.nacc {
                self.consume(zeros + 1);
                q += u64::from(zeros);
                break;
            }
            q += u64::from(self.nacc);
            self.consume(self.nacc);
        }
        if q > u64::MAX >> k {
            return Err(CodecError::VarintOverflow);
        }
        Ok(q << k | self.get(u32::from(k))?)
    }

    /// End of the column: only zero padding may remain.
    pub(crate) fn finish(mut self) -> Result<(), CodecError> {
        let left = self.bits_left();
        if left >= 8 {
            return Err(CodecError::TrailingBytes {
                remaining: left / 8,
            });
        }
        self.refill();
        match self.acc & ((1u64 << self.nacc) - 1) {
            0 => Ok(()),
            bits => Err(CodecError::BadTag {
                what: "padding",
                tag: bits as u8,
            }),
        }
    }
}

/// Read a stored Rice parameter, refusing one wider than a `u64`.
pub(crate) fn check_rice_k(k: u8) -> Result<u8, CodecError> {
    if k > MAX_RICE_K {
        return Err(CodecError::BadTag {
            what: "rice parameter",
            tag: k,
        });
    }
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(f: impl FnOnce(&mut BitWriter<'_>)) -> BytesMut {
        let mut out = BytesMut::new();
        let mut w = BitWriter::new(&mut out);
        f(&mut w);
        w.finish();
        out
    }

    #[test]
    fn widths_count_the_bits_a_value_set_needs() {
        let got: Vec<u32> = [0usize, 1, 2, 3, 4, 5, 8, 9, 65, 256, 257]
            .iter()
            .map(|&n| width_for(n))
            .collect();
        assert_eq!(got, [0, 0, 1, 2, 2, 3, 3, 4, 7, 8, 9]);
    }

    #[test]
    fn fixed_and_rice_codes_round_trip() {
        let values = [0u64, 1, 2, 3, 7, 100, 1 << 20, u64::MAX >> 1, u64::MAX];
        for k in [0u8, 1, 3, 17, 63] {
            let buf = written(|w| {
                for &v in &values {
                    w.put(v & 0x1f, 5);
                    w.put(v, 64);
                    if v >> k < 1 << 12 {
                        w.put_rice(v, k);
                    }
                }
            });
            let mut r = BitReader::new(&buf);
            for &v in &values {
                assert_eq!(r.get(5).unwrap(), v & 0x1f);
                assert_eq!(r.get(64).unwrap(), v);
                if v >> k < 1 << 12 {
                    assert_eq!(r.get_rice(k).unwrap(), v, "k {k}");
                }
            }
            r.finish().unwrap();
        }
    }

    #[test]
    fn rice_parameter_follows_the_mean_gap() {
        assert_eq!(rice_k(0, 0), 0);
        assert_eq!(rice_k(10, 10), 0);
        // mean 16: ⌊log2(16 · ln 2)⌋ = ⌊log2 11.09⌋ = 3.
        assert_eq!(rice_k(160, 10), 3);
        assert_eq!(rice_k(u128::from(u64::MAX) * 4, 2), MAX_RICE_K);
    }

    #[test]
    fn readers_refuse_what_no_writer_wrote() {
        // A unary run that never ends, however long the input.
        for len in [0usize, 1, 9, 100] {
            let zeros = vec![0u8; len];
            assert!(matches!(
                BitReader::new(&zeros).get_rice(0),
                Err(CodecError::UnexpectedEof { .. })
            ));
        }
        // A quotient that shifts past 64 bits.
        let buf = written(|w| w.put(1 << 2, 3));
        assert_eq!(
            BitReader::new(&buf).get_rice(63),
            Err(CodecError::VarintOverflow)
        );
        // Set padding, a whole unread byte, a code past the end.
        let buf = written(|w| w.put(0b100, 3));
        let mut r = BitReader::new(&buf);
        assert_eq!(r.get(2).unwrap(), 0);
        assert!(matches!(r.finish(), Err(CodecError::BadTag { .. })));
        let mut r = BitReader::new(&[0, 0]);
        r.get(3).unwrap();
        assert_eq!(r.finish(), Err(CodecError::TrailingBytes { remaining: 1 }));
        assert!(matches!(
            BitReader::new(&[0xff]).get(9),
            Err(CodecError::UnexpectedEof { .. })
        ));
        assert_eq!(
            check_rice_k(64),
            Err(CodecError::BadTag {
                what: "rice parameter",
                tag: 64
            })
        );
    }
}
