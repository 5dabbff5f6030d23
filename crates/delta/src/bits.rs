//! Bit-level codes for the integer columns of index rows — the
//! eventlist, delta, term and version-chain rows.
//!
//! A byte-aligned varint spends at least eight bits on every integer;
//! most columns of an eventlist or term row need far fewer — a kind tag
//! among the two a row uses, an index into a dictionary of sixty nodes,
//! a time gap of a few ticks. This module writes such a column as one
//! bit string, in one of four codings:
//!
//! * **fixed-width codes** — `width` bits each, for values the row's
//!   own header bounds (a kind code, a dictionary index, a flag);
//! * **Rice codes** — for counts and gaps: `v >> k` in unary (that many
//!   zero bits, then a one), then the low `k` bits of `v`;
//! * **rising columns** — a rising run of values as one Rice code per
//!   value ([`BitWriter::put_rising`], [`BitReader::get_rising`]): each
//!   value's rise over the one before it, less a `bias` the grammar
//!   fixes. The grammar spells the first value and the parameter as it
//!   likes: an eventlist or term row stores the parameter [`rising_k`]
//!   chose, a chain row derives its own from the span's chunk count;
//! * **Elias–Fano columns** — a rising column a point read seeks
//!   ([`put_elias_fano`], [`EliasFano`]): each value's low bits
//!   fixed-width, its high part a rising column of parameter 0, which a
//!   seek steps over by counting bits a word at a time
//!   ([`BitReader::skip_zeros`]).
//!
//! Bits are packed least-significant first; the last byte is padded
//! with zero bits. [`BitReader`] is the one reader of them all, and it
//! refuses what a writer never produces: a code past the end
//! ([`CodecError::UnexpectedEof`]), a whole unread byte at the end
//! ([`CodecError::TrailingBytes`]), set padding bits, a unary run
//! longer than the bits left, and a value past `u64::MAX`
//! ([`CodecError::VarintOverflow`]). Every read is bounded by the bits
//! left, so no input makes a reader loop or allocate.

use bytes::{BufMut, BytesMut};

use crate::codec::{get_u8, get_varint, put_varint};
use crate::error::CodecError;

/// Bits needed to tell `n` values apart: `⌈log2 n⌉`, `0` for `n <= 1`.
#[inline]
pub(crate) fn width_for(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// The bit length of `v`: what a fixed-width code of it needs.
pub(crate) fn bit_len(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
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

/// The Rice parameter of a rising column of `n` values from `from` to
/// `last` ([`BitWriter::put_rising`]): its codes telescope to
/// `last − from − bias · (n − 1)`.
pub(crate) fn rising_k(from: u64, last: u64, n: usize, bias: u64) -> u8 {
    let biases = u128::from(bias) * n.saturating_sub(1) as u128;
    rice_k(u128::from(last - from) - biases, n)
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

    /// Bits written so far, the buffer's own before this writer's
    /// included.
    pub(crate) fn written(&self) -> u64 {
        self.out.len() as u64 * 8 + u64::from(self.n)
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

    /// Write the codes of a rising column: each of `values` as its rise
    /// over the value before it (`from` before the first), less `bias`
    /// for every value but the first, in a Rice code of parameter `k`.
    pub(crate) fn put_rising(
        &mut self,
        from: u64,
        values: impl IntoIterator<Item = u64>,
        bias: u64,
        k: u8,
    ) {
        let (mut prev, mut less) = (from, 0);
        for v in values {
            self.put_rice(v - prev - less, k);
            (prev, less) = (v, bias);
        }
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

    /// The bits of `buf` from bit `bit` on.
    pub(crate) fn from_bit(buf: &'a [u8], bit: usize) -> Result<BitReader<'a>, CodecError> {
        let mut r = BitReader::new(buf.get(bit / 8..).ok_or(CodecError::UnexpectedEof {
            needed: bit.div_ceil(8),
            remaining: buf.len(),
        })?);
        r.get((bit % 8) as u32)?;
        Ok(r)
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

    /// Drop `width <= nacc` read bits. A refill leaves at most 63 bits
    /// in the window, so the shift never reaches 64.
    #[inline]
    fn consume(&mut self, width: u32) {
        debug_assert!(width <= self.nacc && self.nacc < 64);
        self.acc >>= width;
        self.nacc -= width;
    }

    /// Bits not yet read (padding included).
    #[inline]
    pub(crate) fn bits_left(&self) -> usize {
        (self.buf.len() - self.next) * 8 + self.nacc as usize
    }

    /// Whether every bit not yet read is zero: what a column without a
    /// count ends on. Every Rice code holds a one bit, so no code starts
    /// where this holds.
    pub(crate) fn at_padding(&self) -> bool {
        self.acc == 0 && self.buf[self.next..].iter().all(|&b| b == 0)
    }

    fn short(&self, needed_bits: usize) -> CodecError {
        CodecError::UnexpectedEof {
            needed: needed_bits.div_ceil(8),
            remaining: self.bits_left() / 8,
        }
    }

    /// Refuse a column of fewer than `bits` bits left.
    #[inline]
    pub(crate) fn check_left(&self, bits: usize) -> Result<(), CodecError> {
        if bits > self.bits_left() {
            Err(self.short(bits))
        } else {
            Ok(())
        }
    }

    /// Read a `width`-bit code (`width <= 64`).
    #[inline]
    pub(crate) fn get(&mut self, width: u32) -> Result<u64, CodecError> {
        self.check_left(width as usize)?;
        Ok(self.take(width))
    }

    /// Read `count` codes of `width <= 64` bits each into `out`, after
    /// one check that the column holds them all.
    pub(crate) fn get_many(
        &mut self,
        count: usize,
        width: u32,
        mut out: impl FnMut(u64),
    ) -> Result<(), CodecError> {
        self.check_left(count.saturating_mul(width as usize))?;
        for _ in 0..count {
            out(self.take(width));
        }
        Ok(())
    }

    /// The next `width <= 64` bits, which the caller has checked are
    /// there.
    #[inline]
    fn take(&mut self, width: u32) -> u64 {
        if width > WINDOW_BITS {
            return self.take_wide(width);
        }
        if width > self.nacc {
            self.refill();
        }
        let v = self.acc & ((1u64 << width) - 1);
        self.consume(width);
        v
    }

    /// A code wider than one refilled window holds, in two takes.
    #[cold]
    fn take_wide(&mut self, width: u32) -> u64 {
        let lo = self.take(32);
        lo | self.take(width - 32) << 32
    }

    /// Read a Rice code with parameter `k`. The unary run is bounded by
    /// the bits left; a value past `u64::MAX` is an overflow.
    #[inline(always)]
    pub(crate) fn get_rice(&mut self, k: u8) -> Result<u64, CodecError> {
        // Fast path: the whole code lies in the window, topped up only
        // when it does not.
        if let Some(v) = self.rice_in_window(k) {
            return Ok(v);
        }
        self.refill();
        if let Some(v) = self.rice_in_window(k) {
            return Ok(v);
        }
        self.get_rice_slow(k)
    }

    /// Read `n` codes of a rising column ([`BitWriter::put_rising`])
    /// and pass each value to `out`, in order, without a `Result` per
    /// value. Values are summed in a `u128` and checked once, at the
    /// end: a column that rises past `u64::MAX` is an overflow, and what
    /// `out` was passed is to be dropped.
    #[inline]
    pub(crate) fn get_rising(
        &mut self,
        n: usize,
        from: u64,
        bias: u64,
        k: u8,
        out: impl FnMut(u64),
    ) -> Result<(), CodecError> {
        // Unary codes, the common column, with the parameter folded in.
        let last = match k {
            0 => self.rising_run(n, from, bias, 0, out),
            k => self.rising_run(n, from, bias, k, out),
        }?;
        if last > u128::from(u64::MAX) {
            return Err(CodecError::VarintOverflow);
        }
        Ok(())
    }

    #[inline(always)]
    fn rising_run(
        &mut self,
        n: usize,
        from: u64,
        bias: u64,
        k: u8,
        mut out: impl FnMut(u64),
    ) -> Result<u128, CodecError> {
        let (mut v, mut less) = (u128::from(from), 0);
        for _ in 0..n {
            v += u128::from(self.get_rice(k)?) + less;
            less = u128::from(bias);
            out(v as u64);
        }
        Ok(v)
    }

    /// Read a Rice code of parameter `k` and, when it is not zero, a
    /// `width`-bit code after it: a delta row's edge count and first
    /// neighbour. One window check covers both where the window holds
    /// them, as it does for all but codes longer than 56 bits.
    #[inline]
    pub(crate) fn get_rice_then(&mut self, k: u8, width: u32) -> Result<(u64, u64), CodecError> {
        for _ in 0..2 {
            let zeros = self.acc.trailing_zeros();
            let len = zeros + 1 + u32::from(k);
            if len <= self.nacc {
                let v = u64::from(zeros) << k | (self.acc >> (zeros + 1)) & ((1u64 << k) - 1);
                let then = if v == 0 { 0 } else { width };
                if len + then <= self.nacc {
                    // `len + then <= nacc < 64`: neither shift reaches 64.
                    let w = (self.acc >> len) & ((1u64 << then) - 1);
                    self.consume(len + then);
                    return Ok((v, w));
                }
            }
            self.refill();
        }
        let v = self.get_rice_slow(k)?;
        Ok((v, if v == 0 { 0 } else { self.get(width)? }))
    }

    /// The Rice code at the front of the window, if all of it is
    /// there.
    #[inline]
    fn rice_in_window(&mut self, k: u8) -> Option<u64> {
        let zeros = self.acc.trailing_zeros();
        let len = zeros + 1 + u32::from(k);
        if len > self.nacc {
            return None;
        }
        let low = (self.acc >> (zeros + 1)) & ((1u64 << k) - 1);
        self.consume(len);
        Some(u64::from(zeros) << k | low)
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

    /// Read on past the `zeros`-th zero bit and return how many one
    /// bits lay before it, counting a window at a time. Past the end it
    /// stops, having read every bit.
    pub(crate) fn skip_zeros(&mut self, mut zeros: u64) -> u64 {
        let mut ones = 0u64;
        while zeros > 0 {
            self.refill();
            if self.nacc == 0 {
                break;
            }
            let window = self.acc & ((1u64 << self.nacc) - 1);
            let here = u64::from(self.nacc - window.count_ones());
            if here < zeros {
                ones += u64::from(window.count_ones());
                zeros -= here;
                self.consume(self.nacc);
                continue;
            }
            // The window holds the `zeros`-th zero: clear the zeros
            // before it, and read up to it.
            let mut unread = !window;
            for _ in 1..zeros {
                unread &= unread - 1;
            }
            let at = unread.trailing_zeros();
            ones += u64::from((window & ((1u64 << at) - 1)).count_ones());
            self.consume(at + 1);
            break;
        }
        ones
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

/// Read the head of a column of `n` values that spells its first as a
/// varint and, when more follow, a parameter byte: an eventlist
/// column's Rice parameter or an Elias–Fano column's low-part width.
pub(crate) fn get_head(b: &mut &[u8], n: usize) -> Result<(u64, u8), CodecError> {
    let first = if n > 0 { get_varint(b)? } else { 0 };
    let param = if n > 1 { check_rice_k(get_u8(b)?)? } else { 0 };
    Ok((first, param))
}

/// Append an Elias–Fano column of rising `values`: `varint first`,
/// then, when there are more, `u8 l` and each further value's offset
/// from the first in two parts: its low `l` bits, fixed-width, for
/// every value together (the last byte zero-padded), then its high
/// part, as a rising column of parameter 0 from 0 (zero-padded too).
/// `l = ⌊log2(last offset / (n − 1))⌋`, so the high parts take at most
/// two bits a value. Nothing at all for an empty column.
pub(crate) fn put_elias_fano(out: &mut BytesMut, values: &[u64]) {
    let Some((&first, rest)) = values.split_first() else {
        return;
    };
    put_varint(out, first);
    let Some(&last) = rest.last() else {
        return;
    };
    let l = ((last - first) / rest.len() as u64)
        .checked_ilog2()
        .unwrap_or(0);
    out.put_u8(l as u8);
    let mut bits = BitWriter::new(out);
    for &v in rest {
        bits.put((v - first) & ((1u64 << l) - 1), l);
    }
    bits.finish();
    let mut bits = BitWriter::new(out);
    bits.put_rising(0, rest.iter().map(|&v| (v - first) >> l), 0, 0);
    bits.finish();
}

/// An Elias–Fano column ([`put_elias_fano`]), read in full or sought.
/// Every value must rise over the one before it, and offsets are held
/// to a `u64`: a step that does not rise, or one that overflows, is an
/// error, never a value out of order.
pub(crate) struct EliasFano<'a> {
    n: usize,
    first: u64,
    l: u32,
    lows: &'a [u8],
    highs: &'a [u8],
}

impl<'a> EliasFano<'a> {
    /// Open a column of `n` values. `n` is held to the bits the column
    /// has before anything is read (every value past the first takes
    /// at least one in the high parts), so a caller may size by it.
    pub(crate) fn open(mut b: &'a [u8], n: usize) -> Result<EliasFano<'a>, CodecError> {
        let (first, l) = get_head(&mut b, n)?;
        let further = n.saturating_sub(1);
        let low_len = further.saturating_mul(usize::from(l)).div_ceil(8);
        BitReader::new(b).check_left(low_len.saturating_mul(8).saturating_add(further))?;
        let (lows, highs) = b.split_at(low_len);
        Ok(EliasFano {
            n,
            first,
            l: u32::from(l),
            lows,
            highs,
        })
    }

    /// The value of high part `high` and the next low part of `lows`,
    /// held to a `u64` and to rising over `prev`.
    #[inline]
    fn after(&self, prev: u64, high: u64, lows: &mut BitReader<'_>) -> Result<u64, CodecError> {
        let low = lows.get(self.l)?;
        let offset = (high <= u64::MAX >> self.l).then_some(high << self.l | low);
        match offset.and_then(|o| self.first.checked_add(o)) {
            None => Err(CodecError::VarintOverflow),
            Some(v) if v <= prev => Err(CodecError::BadRef {
                what: "node-id gap",
                id: 0,
            }),
            Some(v) => Ok(v),
        }
    }

    /// Every value, in order; only the zero padding of each part's last
    /// byte may remain.
    pub(crate) fn get_all(&self) -> Result<Vec<u64>, CodecError> {
        let mut out = Vec::with_capacity(self.n);
        let (mut lows, mut highs) = (BitReader::new(self.lows), BitReader::new(self.highs));
        if self.n > 0 {
            out.push(self.first);
            highs.get_rising(self.n - 1, 0, 0, 0, |high| out.push(high))?;
            let mut prev = self.first;
            for v in &mut out[1..] {
                prev = self.after(prev, *v, &mut lows)?;
                *v = prev;
            }
        }
        lows.finish()?;
        highs.finish()?;
        Ok(out)
    }

    /// Read on to the first value at or past `target`, and return its
    /// index if it is `target`. The values whose high part lies below
    /// `target`'s are stepped over by [`BitReader::skip_zeros`], not
    /// read.
    pub(crate) fn seek(&self, target: u64) -> Result<Option<usize>, CodecError> {
        let n = self.n;
        if n == 0 || target <= self.first {
            return Ok((n > 0 && target == self.first).then_some(0));
        }
        let mut high = (target - self.first) >> self.l;
        let mut highs = BitReader::new(self.highs);
        let below = highs.skip_zeros(high);
        let Some(from) = usize::try_from(below).ok().filter(|&b| b < n - 1) else {
            return Ok(None);
        };
        // Values `1 ..= from` are below `target`: read on from the
        // next, whose high part rises from `high`.
        let mut lows = BitReader::from_bit(self.lows, from * self.l as usize)?;
        let mut prev = self.first;
        for i in from + 1..n {
            highs.get_rising(1, high, 0, 0, |h| high = h)?;
            prev = self.after(prev, high, &mut lows)?;
            if prev >= target {
                return Ok((prev == target).then_some(i));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::xorshift;

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
    fn rising_columns_round_trip_at_every_parameter() {
        // Bias 0 and 1, parameters 0 to 20, columns of up to 200 values
        // rising about `2^k` a step, the odd ones from near `u64::MAX`.
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for (bias, k, n) in (0..2u64)
            .flat_map(|b| (0..=20u8).map(move |k| (b, k)))
            .flat_map(|(b, k)| [0usize, 1, 2, 7, 64, 200].map(|n| (b, k, n)))
        {
            let top = 1u64 << k;
            let from = if n % 2 == 1 {
                u64::MAX - 5 * top * n as u64
            } else {
                top
            };
            let gaps: Vec<u64> = (0..n).map(|_| next() % (2 * top)).collect();
            let values: Vec<u64> = (0..n)
                .scan(from, |v, i| {
                    *v += gaps[i] + if i > 0 { bias } else { 0 };
                    Some(*v)
                })
                .collect();
            let buf = written(|w| w.put_rising(from, values.iter().copied(), bias, k));
            let (mut r, mut got) = (BitReader::new(&buf), Vec::new());
            r.get_rising(n, from, bias, k, |v| got.push(v)).unwrap();
            r.finish().unwrap();
            assert_eq!(got, values, "bias {bias} k {k} n {n}");
            if let Some(&last) = values.last() {
                let sum = gaps.iter().map(|&g| u128::from(g)).sum();
                assert_eq!(rising_k(from, last, n, bias), rice_k(sum, n));
            }
        }
    }

    #[test]
    fn skip_zeros_counts_what_a_bit_walk_counts() {
        // Sparse, mixed and dense bits, from every start bit, for runs
        // of zeros within a window, across windows and past the end.
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        for (len, density) in [0usize, 1, 7, 9, 40]
            .into_iter()
            .flat_map(|l| [1, 4, 7].map(|d| (l, d)))
        {
            let buf: Vec<u8> = (0..len)
                .map(|_| (0..8).fold(0, |b, i| b | u8::from(next() % 8 < density) << i))
                .collect();
            let bit = |i: usize| buf[i / 8] >> (i % 8) & 1 == 1;
            for start in 0..=len * 8 {
                for zeros in [0u64, 1, 2, 17, 64, 65, 500] {
                    let (mut ones, mut left, mut at) = (0u64, zeros, start);
                    while left > 0 && at < len * 8 {
                        ones += u64::from(bit(at));
                        left -= u64::from(!bit(at));
                        at += 1;
                    }
                    let mut r = BitReader::from_bit(&buf, start).unwrap();
                    assert_eq!(
                        r.skip_zeros(zeros),
                        ones,
                        "len {len} start {start} zeros {zeros}"
                    );
                    assert_eq!(r.bits_left(), len * 8 - at);
                }
            }
        }
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
        // A rising column past `u64::MAX`, and one that ends on it: from
        // `u64::MAX − 2`, rises of 1 and then 1 (or 0) + bias 1.
        for (last, want) in [(1, Err(CodecError::VarintOverflow)), (0, Ok(()))] {
            let buf = written(|w| w.put_rising(0, [1, last + 2], 1, 0));
            let read = BitReader::new(&buf).get_rising(2, u64::MAX - 2, 1, 0, |_| {});
            assert_eq!(read, want, "last rise {last}");
        }
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
