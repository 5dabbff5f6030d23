//! The bit grammar of a version-chain row: one span's set of eventlist
//! chunks, spelled as one bit string (least-significant bit first, the
//! last byte zero-padded):
//!
//! ```text
//! chain := first:⌈log2 q⌉ Rice(gap − 1, k){n − 1}
//! ```
//!
//! where `q` is the span's chunk count, the gaps are a rising column
//! (`bits.rs`) from `first + 1` with bias 1, and `k = ⌊⌈log2 q⌉ / 3⌋`
//! (the Rice parameter the chunk gaps of the benchmark builds cost
//! least under), derived, not stored. There is no count: every Rice
//! code holds a one bit, so the zero padding never completes one, and
//! the row ends where only zero bits are left. The reader knows `q`
//! from the span's checkpoints; what else a chain entry carries is
//! `hgs-core`'s to derive.

use bytes::{Bytes, BytesMut};

use crate::bits::{width_for, BitReader, BitWriter};
use crate::error::CodecError;

/// The Rice parameter of the chunk gaps of a span of `chunk_count`
/// chunks.
fn chain_rice_k(chunk_count: usize) -> u8 {
    (width_for(chunk_count) / 3) as u8
}

/// Spell the chunks `chunks` (rising, the first below `chunk_count`)
/// of a span of `chunk_count` chunks. No chunk is no bytes.
pub fn encode_chunk_set(chunks: impl IntoIterator<Item = u32>, chunk_count: usize) -> Bytes {
    let mut chunks = chunks.into_iter();
    let mut buf = BytesMut::new();
    let Some(first) = chunks.next() else {
        return buf.freeze();
    };
    debug_assert!((first as usize) < chunk_count, "first chunk in the span");
    let k = chain_rice_k(chunk_count);
    let mut bits = BitWriter::new(&mut buf);
    bits.put(u64::from(first), width_for(chunk_count));
    bits.put_rising(u64::from(first) + 1, chunks.map(u64::from), 1, k);
    bits.finish();
    buf.freeze()
}

/// Read the chunks [`encode_chunk_set`] spelled for a span of
/// `chunk_count` chunks. A chunk at or past `chunk_count` is refused:
/// the row names chunks its span does not have. Chunks rise, so no
/// more than `chunk_count` are read, whatever the row's length; a code
/// the row's bits cannot complete, or a whole byte past the last code,
/// is refused too.
pub fn decode_chunk_set(buf: &[u8], chunk_count: usize) -> Result<Vec<u32>, CodecError> {
    let k = chain_rice_k(chunk_count);
    let mut bits = BitReader::new(buf);
    let mut chunk = bits.get(width_for(chunk_count))?;
    let mut out = Vec::new();
    loop {
        if chunk >= chunk_count as u64 {
            return Err(CodecError::BadRef {
                what: "chain chunk",
                id: chunk,
            });
        }
        out.push(chunk as u32);
        if bits.at_padding() {
            break;
        }
        bits.get_rising(1, chunk + 1, 1, k, |next| chunk = next)?;
    }
    bits.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_is_its_first_chunk_and_rice_coded_gaps() {
        // The first chunk in ⌈log2 q⌉ bits, then each gap − 1 as a
        // Rice code of parameter ⌊⌈log2 q⌉ / 3⌋, and nothing else: no
        // count. Here 9 bits, then at k = 3 four for gap − 1 = 0 and 41
        // for 297 = 37 · 8 + 1 (37 zeros, a one, three low bits): 54
        // bits in 7 bytes.
        let row = encode_chunk_set([1, 2, 300], 301);
        assert_eq!(chain_rice_k(301), 3);
        assert_eq!(row.len(), 7);
        assert_eq!(decode_chunk_set(&row, 301).unwrap(), [1, 2, 300]);
        // A span of one chunk: its one chunk takes no bits at all.
        let one = encode_chunk_set([0], 1);
        assert!(one.is_empty());
        assert_eq!(decode_chunk_set(&one, 1).unwrap(), [0]);
    }

    #[test]
    fn chain_rows_round_trip_every_chunk_set() {
        // Every chunk set of spans up to 9 chunks, and a run of sets of
        // a 40-chunk span (the default span's): each set is its row's
        // only reading, and its length is what its bits need.
        let mut sets: Vec<(usize, Vec<u32>)> = Vec::new();
        for q in 1..=9usize {
            for mask in 1u32..1 << q {
                sets.push((q, (0..q as u32).filter(|c| mask >> c & 1 == 1).collect()));
            }
        }
        let mut next = crate::tests::xorshift(0x2545_f491_4f6c_dd1d);
        for _ in 0..2000 {
            let x = next();
            let set: Vec<u32> = (0..40).filter(|c| x >> c & 1 == 1).collect();
            if !set.is_empty() {
                sets.push((40, set));
            }
        }
        for (q, set) in sets {
            let row = encode_chunk_set(set.iter().copied(), q);
            assert_eq!(decode_chunk_set(&row, q).unwrap(), set, "q {q}");
            let k = u64::from(chain_rice_k(q));
            let bits = u64::from(width_for(q))
                + set
                    .windows(2)
                    .map(|w| (u64::from(w[1] - w[0] - 1) >> k) + 1 + k)
                    .sum::<u64>();
            assert_eq!(row.len() as u64, bits.div_ceil(8), "q {q} {set:?}");
            // Cut short, the row is refused or names fewer chunks;
            // never more, never one past the span.
            for cut in 0..row.len() {
                if let Ok(got) = decode_chunk_set(&row[..cut], q) {
                    assert!(got.len() < set.len() && got.iter().all(|&c| (c as usize) < q));
                }
            }
        }
    }

    /// A row of `first` in `width` bits, then `codes` as Rice codes of
    /// parameter `k`.
    fn chain_row(first: u64, width: u32, k: u8, codes: &[u64]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        let mut bits = BitWriter::new(&mut buf);
        bits.put(first, width);
        for &c in codes {
            bits.put_rice(c, k);
        }
        bits.finish();
        buf.to_vec()
    }

    #[test]
    fn chunks_past_the_span_are_refused() {
        let bad = |what, id| Err(CodecError::BadRef { what, id });
        // A ten-chunk span: a 4-bit first chunk, gaps at k = 1.
        assert_eq!(chain_rice_k(10), 1);
        let row = |first, codes: &[u64]| chain_row(first, 4, 1, codes);
        // The last chunk of a ten-chunk span, and one past it.
        assert!(decode_chunk_set(&row(3, &[5]), 10).is_ok());
        assert_eq!(decode_chunk_set(&row(3, &[6]), 10), bad("chain chunk", 10));
        assert_eq!(decode_chunk_set(&row(10, &[]), 10), bad("chain chunk", 10));
        assert_eq!(decode_chunk_set(&row(15, &[]), 10), bad("chain chunk", 15));
        // A span of no chunks has no chain row to read.
        assert_eq!(decode_chunk_set(&[], 0), bad("chain chunk", 0));
        // A gap past a `u32` is out of the span, not back at its start.
        assert_eq!(
            decode_chunk_set(&row(1, &[u32::MAX as u64]), 10),
            bad("chain chunk", 2 + u32::MAX as u64)
        );
        // However long the row, no more entries than the span has
        // chunks: eight one-bit codes past the ninth chunk.
        let long = row(0, &[0; 17]);
        assert_eq!(decode_chunk_set(&long, 10), bad("chain chunk", 10));
    }

    #[test]
    fn arbitrary_bytes_read_as_a_chunk_set_or_refused() {
        // Byte strings with no relation to a row, read for spans of 1 to
        // 64 chunks: every `Ok` names chunks that rise and lie in the
        // span — so at most `q` of them — and nothing panics.
        let mut next = crate::tests::xorshift(0x853c_49e6_748f_ea9b);
        for _ in 0..20_000 {
            let len = (next() % 12) as usize;
            let row: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let q = 1 + (next() % 64) as usize;
            if let Ok(got) = decode_chunk_set(&row, q) {
                assert!(!got.is_empty() && got.len() <= q, "{row:02x?} q {q}");
                assert!(got.windows(2).all(|w| w[0] < w[1]));
                assert!(got.iter().all(|&c| (c as usize) < q));
            }
        }
    }

    #[test]
    fn rows_off_the_grammar_are_refused() {
        // A first chunk cut short.
        assert!(matches!(
            decode_chunk_set(&[], 10),
            Err(CodecError::UnexpectedEof { .. })
        ));
        // Set bits past the last code that begin a code the row cannot
        // complete: the zero padding never completes one, so a one bit
        // there starts a code, and its low bits are past the row's end.
        // A ten-chunk span: chunk 3, then `1` and one low bit missing.
        let mut row = chain_row(3, 4, 1, &[]);
        assert_eq!(row, [3]);
        row[0] |= 1 << 7;
        assert!(matches!(
            decode_chunk_set(&row, 10),
            Err(CodecError::UnexpectedEof { .. })
        ));
        // A whole byte past the last code, zero or not.
        for tail in [0u8, 0x80] {
            let mut row = chain_row(3, 4, 1, &[1]);
            row.push(tail);
            assert!(decode_chunk_set(&row, 10).is_err(), "tail {tail:#x}");
        }
        let mut row = chain_row(3, 4, 1, &[1]);
        row.push(0);
        assert_eq!(
            decode_chunk_set(&row, 10),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
        // A unary run that never ends.
        assert!(matches!(
            decode_chunk_set(&[0x03, 0, 0, 0, 0x80], 1 << 20),
            Err(CodecError::UnexpectedEof { .. }) | Err(CodecError::BadRef { .. })
        ));
    }
}
