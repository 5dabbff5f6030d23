//! In-house LZSS byte compression.
//!
//! The paper evaluates Cassandra's block compression on serialized
//! deltas (Fig. 13a) and finds the net latency effect negligible. To
//! reproduce that experiment without adding a compression dependency,
//! this module implements a small LZSS variant: greedy longest-match
//! search over a 32 KiB sliding window using a hash-chain index,
//! emitting varint-encoded (distance, length) matches and literal runs.
//!
//! Wire format: `[varint raw_len]` then a sequence of ops:
//! * `0x00 [varint n] [n bytes]` — literal run;
//! * `0x01 [varint dist] [varint len]` — copy `len` bytes from `dist`
//!   bytes back (overlapping copies allowed, as usual for LZ).
//!
//! Its one caller outside tests is the store's optional value
//! compression (`hgs_store`'s `StoreConfig::with_compression`): the
//! one compression layer, applied to whole stored values. Row-wise
//! serialized deltas, full of repeated attribute keys, compress well;
//! the index's columnar rows already spell each key, value and pair
//! once and leave it little to find (3.5 % of a labelled build's
//! value bytes, almost nothing on an attribute-free one).

use std::cell::RefCell;

use bytes::{BufMut, Bytes, BytesMut};

use crate::codec::{get_varint, put_varint, MAX_LEN};
use crate::error::CodecError;

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1024;
const MAX_CHAIN: usize = 32;
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Hash-chain match-finder state, kept per thread and **never
/// re-initialised between calls**: allocating and filling a fresh pair
/// of tables per call (512 KiB of `usize` entries, as the test oracle
/// still does) dwarfed the actual work on the ~50-byte column segments
/// the columnar codec compresses by the tens of thousands per build.
///
/// Positions are stored *biased*: data index `i` of the current call
/// is stored as `base + (i - origin)`, and each call starts its `base`
/// one above every value any earlier call stored. An entry below
/// `base` therefore reads as "empty", exactly like the `usize::MAX`
/// sentinel of a freshly filled table, so the output is byte-identical
/// to a fresh-table run for every input and every call sequence (the
/// differential tests below hold the old implementation as oracle).
/// Only when biased positions would reach `limit` are the tables
/// rebased ([`MatchFinder::rebase`]) — once per ~4 GiB compressed on a
/// thread.
struct MatchFinder {
    /// `head[h]` = biased position of the most recent occurrence of
    /// hash `h`.
    head: Vec<u32>,
    /// `prev[i % WINDOW]` = biased position before `i` in the same
    /// chain. Only slots of in-window positions of the current call
    /// are ever read, and those were written by the current call.
    prev: Vec<u32>,
    /// One above every biased position stored so far.
    next_base: u32,
    /// Biased positions stay below this (`u32::MAX`; tests lower it to
    /// force the rebase path).
    limit: u32,
}

thread_local! {
    static MATCH_FINDER: RefCell<MatchFinder> = RefCell::new(MatchFinder::new());
}

impl MatchFinder {
    fn new() -> MatchFinder {
        MatchFinder {
            head: vec![0; 1 << HASH_BITS],
            prev: vec![0; WINDOW],
            // 0 is the zero-initialised tables' "empty".
            next_base: 1,
            limit: u32::MAX,
        }
    }

    /// Make room for more biased positions at data index `i`: entries
    /// older than the match window (or from earlier calls) become
    /// empty, the rest shift down so the oldest kept position is
    /// biased 1. Dropping out-of-window entries changes no output —
    /// the search stops at the first candidate farther than `WINDOW`
    /// back either way. Returns the new `(base, origin)`.
    #[cold]
    fn rebase(&mut self, i: usize, base: u32, origin: usize) -> (u32, usize) {
        let keep_from = i.saturating_sub(WINDOW).max(origin);
        let shift = base + (keep_from - origin) as u32 - 1;
        for v in self.head.iter_mut().chain(self.prev.iter_mut()) {
            *v = v.saturating_sub(shift);
        }
        (1, keep_from)
    }

    fn compress(&mut self, data: &[u8]) -> Bytes {
        let mut out = BytesMut::with_capacity(data.len() / 2 + 16);
        put_varint(&mut out, data.len() as u64);
        if data.len() < MIN_MATCH {
            if !data.is_empty() {
                out.put_u8(0);
                put_varint(&mut out, data.len() as u64);
                out.put_slice(data);
            }
            return out.freeze();
        }

        // A rebase keeps one window of positions and must still free some.
        debug_assert!(self.limit as usize > WINDOW + 1 && self.next_base <= self.limit);
        // Data index `i` is stored as `base + (i - origin)`.
        let (mut base, mut origin) = (self.next_base, 0usize);
        // First data index whose biased position would reach `limit`.
        let mut rebase_at = origin + (self.limit - base) as usize;
        let mut lit_start = 0usize;
        let mut i = 0usize;

        macro_rules! flush_literals {
            ($upto:expr) => {
                if lit_start < $upto {
                    out.put_u8(0);
                    put_varint(&mut out, ($upto - lit_start) as u64);
                    out.put_slice(&data[lit_start..$upto]);
                }
            };
        }
        // Index position `i` (hash `$h`) at the front of its chain.
        macro_rules! insert {
            ($h:expr) => {
                if i >= rebase_at {
                    (base, origin) = self.rebase(i, base, origin);
                    rebase_at = origin + (self.limit - base) as usize;
                }
                let here = base + (i - origin) as u32;
                self.prev[i % WINDOW] = self.head[$h];
                self.head[$h] = here;
                self.next_base = here + 1;
            };
        }

        while i + MIN_MATCH <= data.len() {
            let h = hash4(&data[i..]);
            let here = base + (i - origin) as u32;
            let mut cand = self.head[h];
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            let max_len = (data.len() - i).min(MAX_MATCH);
            let mut chain = 0;
            while cand >= base && chain < MAX_CHAIN {
                let dist = (here - cand) as usize;
                if dist > WINDOW {
                    break;
                }
                let at = i - dist;
                let mut l = 0usize;
                while l < max_len && data[at + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l == max_len {
                        break;
                    }
                }
                let nxt = self.prev[at % WINDOW];
                if nxt < base || nxt >= cand {
                    break;
                }
                cand = nxt;
                chain += 1;
            }

            if best_len >= MIN_MATCH {
                flush_literals!(i);
                out.put_u8(1);
                put_varint(&mut out, best_dist as u64);
                put_varint(&mut out, best_len as u64);
                // Index all the positions the match covers.
                let end = i + best_len;
                while i < end && i + MIN_MATCH <= data.len() {
                    let h2 = hash4(&data[i..]);
                    insert!(h2);
                    i += 1;
                }
                i = end;
                lit_start = i;
            } else {
                insert!(h);
                i += 1;
            }
        }
        flush_literals!(data.len());
        out.freeze()
    }
}

/// Compress `data`. The output starts with the raw length, so
/// [`decompress`] can pre-allocate exactly.
pub fn compress(data: &[u8]) -> Bytes {
    MATCH_FINDER.with(|mf| mf.borrow_mut().compress(data))
}

/// Decompress data produced by [`compress`].
///
/// Any other input is an error, never a panic or an outsized
/// allocation: the raw-length prefix is held to the codec's `MAX_LEN`
/// cap and to what the ops after it can write — a match copies at
/// most `MAX_MATCH` bytes (longer ones, which [`compress`] never
/// emits, are refused) and a literal no more than its own bytes, so
/// every input byte yields at most `MAX_MATCH` output bytes.
///
/// The output buffer is allocated (zero-initialized) up front and
/// written through a cursor, so copy ops are plain slice-to-slice
/// moves with no per-op growth checks. Matches with `dist >= 8` use
/// an 8-byte "wild copy": whole words are copied even past the match
/// end when room remains, which turns the typical 8–20 byte match
/// into one or two word moves instead of a `memmove` call. Over-read
/// sources are always below the write cursor (`dist >= 8` guarantees
/// each word's source is fully written), and over-written tails are
/// re-written by the next op, so the result is exact.
pub fn decompress(data: &[u8]) -> Result<Bytes, CodecError> {
    let mut rest = data;
    let raw = get_varint(&mut rest)?;
    let most = (rest.len() as u64).saturating_mul(MAX_MATCH as u64);
    let raw_len = usize::try_from(raw)
        .ok()
        .filter(|_| raw <= MAX_LEN.min(most))
        .ok_or(CodecError::LengthOverflow {
            what: "lz-output",
            len: raw,
        })?;
    let mut out = vec![0u8; raw_len];
    let mut w = 0usize;
    while let Some((&tag, tail)) = rest.split_first() {
        rest = tail;
        match tag {
            0 => {
                let n = get_varint(&mut rest)?;
                if n > rest.len() as u64 {
                    return Err(CodecError::UnexpectedEof {
                        needed: n as usize,
                        remaining: rest.len(),
                    });
                }
                let n = n as usize;
                if n > raw_len - w {
                    return Err(CodecError::LengthOverflow {
                        what: "lz-output",
                        len: (w + n) as u64,
                    });
                }
                let (literal, tail) = rest.split_at(n);
                out[w..w + n].copy_from_slice(literal);
                rest = tail;
                w += n;
            }
            1 => {
                let dist = get_varint(&mut rest)?;
                let len = get_varint(&mut rest)?;
                if dist == 0 || dist > w as u64 {
                    return Err(CodecError::BadTag {
                        what: "lz-distance",
                        tag: 1,
                    });
                }
                if len > MAX_MATCH as u64 {
                    return Err(CodecError::LengthOverflow {
                        what: "lz-match",
                        len,
                    });
                }
                let (dist, len) = (dist as usize, len as usize);
                if len > raw_len - w {
                    return Err(CodecError::LengthOverflow {
                        what: "lz-output",
                        len: (w + len) as u64,
                    });
                }
                let start = w - dist;
                if dist >= 8 && w + len + 8 <= raw_len {
                    let mut copied = 0usize;
                    while copied < len {
                        let word = *out[start + copied..].first_chunk::<8>().ok_or(
                            CodecError::LengthOverflow {
                                what: "lz-output",
                                len: (start + copied + 8) as u64,
                            },
                        )?;
                        out[w + copied..w + copied + 8].copy_from_slice(&word);
                        copied += 8;
                    }
                } else if dist >= len {
                    out.copy_within(start..start + len, w);
                } else {
                    // Overlapping (run-length style) match with a
                    // period too short for word copies: copy in
                    // period-doubling chunks.
                    let mut filled = 0usize;
                    while filled < len {
                        let chunk = (dist + filled).min(len - filled);
                        out.copy_within(start..start + chunk, w + filled);
                        filled += chunk;
                    }
                }
                w += len;
            }
            t => {
                return Err(CodecError::BadTag {
                    what: "lz-op",
                    tag: t,
                })
            }
        }
    }
    if w != raw_len {
        return Err(CodecError::LengthOverflow {
            what: "lz-output",
            len: w as u64,
        });
    }
    Ok(Bytes::from(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The compressor as it was before the match-finder state became
    /// reusable: two freshly filled tables of absolute positions per
    /// call. Kept as the oracle — [`compress`] must reproduce it byte
    /// for byte for every input and every call sequence.
    fn compress_fresh_tables(data: &[u8]) -> Bytes {
        let mut out = BytesMut::with_capacity(data.len() / 2 + 16);
        put_varint(&mut out, data.len() as u64);
        if data.len() < MIN_MATCH {
            if !data.is_empty() {
                out.put_u8(0);
                put_varint(&mut out, data.len() as u64);
                out.put_slice(data);
            }
            return out.freeze();
        }

        // head[h] = most recent position with hash h; prev[i % WINDOW] = the
        // position before i in the same chain.
        let mut head = vec![usize::MAX; 1 << HASH_BITS];
        let mut prev = vec![usize::MAX; WINDOW];

        let mut lit_start = 0usize;
        let mut i = 0usize;

        macro_rules! flush_literals {
            ($upto:expr) => {
                if lit_start < $upto {
                    out.put_u8(0);
                    put_varint(&mut out, ($upto - lit_start) as u64);
                    out.put_slice(&data[lit_start..$upto]);
                }
            };
        }

        while i + MIN_MATCH <= data.len() {
            let h = hash4(&data[i..]);
            let mut cand = head[h];
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            let limit = (data.len() - i).min(MAX_MATCH);
            let mut chain = 0;
            while cand != usize::MAX && i - cand <= WINDOW && chain < MAX_CHAIN {
                if cand < i {
                    let mut l = 0usize;
                    let max = limit;
                    while l < max && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l == limit {
                            break;
                        }
                    }
                }
                let nxt = prev[cand % WINDOW];
                if nxt == usize::MAX || nxt >= cand {
                    break;
                }
                cand = nxt;
                chain += 1;
            }

            if best_len >= MIN_MATCH {
                flush_literals!(i);
                out.put_u8(1);
                put_varint(&mut out, best_dist as u64);
                put_varint(&mut out, best_len as u64);
                // Index all the positions the match covers.
                let end = i + best_len;
                while i < end && i + MIN_MATCH <= data.len() {
                    let h2 = hash4(&data[i..]);
                    prev[i % WINDOW] = head[h2];
                    head[h2] = i;
                    i += 1;
                }
                i = end;
                lit_start = i;
            } else {
                prev[i % WINDOW] = head[h];
                head[h] = i;
                i += 1;
            }
        }
        flush_literals!(data.len());
        out.freeze()
    }

    fn xorshift_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut next = crate::tests::xorshift(seed | 1);
        (0..n).map(|_| next() as u8).collect()
    }

    /// Inputs of the size classes the match finder distinguishes:
    /// empty, below `MIN_MATCH`, exactly `MIN_MATCH`, segment-sized,
    /// past one window and past three, each repetitive, incompressible
    /// and mixed — interleaved so that every call runs over state a
    /// different kind of input left behind.
    fn size_class_inputs() -> Vec<Vec<u8>> {
        let mut inputs: Vec<Vec<u8>> = Vec::new();
        for (k, &n) in [
            0usize,
            1,
            3,
            4,
            5,
            47,
            64,
            1_000,
            WINDOW - 1,
            WINDOW + 7,
            3 * WINDOW + 1_234,
        ]
        .iter()
        .enumerate()
        {
            let noise = xorshift_bytes(0x9E37_79B9 + k as u64, n);
            inputs.push(noise.clone());
            inputs.push(b"abcdabcd".iter().cycle().take(n).copied().collect());
            inputs.push(vec![7u8; n]);
            // Noise with a long-range repeat: matches near the window edge.
            let mut mixed = noise;
            let half = mixed.len() / 2;
            let (a, b) = mixed.split_at_mut(half);
            let m = a.len().min(b.len());
            b[..m].copy_from_slice(&a[..m]);
            inputs.push(mixed);
        }
        inputs
    }

    fn assert_matches_oracle(mf: &mut MatchFinder, data: &[u8], what: &str) {
        let got = mf.compress(data);
        assert_eq!(
            got,
            compress_fresh_tables(data),
            "{what}: len {} diverges from the fresh-table oracle",
            data.len()
        );
        assert_eq!(&decompress(&got).unwrap()[..], data, "{what}: roundtrip");
    }

    /// The stale-state hazard: one finder, many calls, every output
    /// equal to a fresh-table run.
    #[test]
    fn reused_state_matches_fresh_tables_over_call_sequences() {
        let inputs = size_class_inputs();
        let mut mf = MatchFinder::new();
        for round in 0..3 {
            for (k, data) in inputs.iter().enumerate() {
                assert_matches_oracle(&mut mf, data, &format!("round {round} input {k}"));
            }
            for (k, data) in inputs.iter().enumerate().rev() {
                assert_matches_oracle(&mut mf, data, &format!("round {round} input {k} (rev)"));
            }
        }
    }

    /// Force the rebase path: with `limit` a few windows, an input
    /// longer than 3×`WINDOW` rebases mid-call (several times), and
    /// the small inputs between hit the call-start rebase.
    #[test]
    fn forced_rebase_matches_fresh_tables() {
        let inputs = size_class_inputs();
        for limit in [2 * WINDOW as u32 + 5, 5 * WINDOW as u32] {
            let mut mf = MatchFinder::new();
            mf.limit = limit;
            for (k, data) in inputs.iter().enumerate() {
                assert_matches_oracle(&mut mf, data, &format!("limit {limit} input {k}"));
                assert!(
                    mf.next_base <= limit,
                    "biased positions stay below the limit"
                );
            }
        }
        // Next call starts exactly at the limit: nothing left to hand out.
        let mut mf = MatchFinder::new();
        mf.limit = 3 * WINDOW as u32;
        mf.next_base = mf.limit;
        for (k, data) in inputs.iter().enumerate() {
            assert_matches_oracle(&mut mf, data, &format!("at-limit input {k}"));
        }
    }

    /// The thread-local state behind the public entry point: several
    /// threads compressing interleaved sequences at once all agree
    /// with the oracle.
    #[test]
    fn public_compress_matches_oracle_from_several_threads() {
        let inputs = size_class_inputs();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let inputs = &inputs;
                s.spawn(move || {
                    for round in 0..2 {
                        for k in 0..inputs.len() {
                            let data = &inputs[(k * (t + 1) + round) % inputs.len()];
                            assert_eq!(
                                compress(data),
                                compress_fresh_tables(data),
                                "thread {t} round {round} call {k}"
                            );
                        }
                    }
                });
            }
        });
    }

    proptest! {
        /// Arbitrary call sequences on one finder (default limit and a
        /// forced-rebase one) equal the oracle call by call.
        #[test]
        fn arbitrary_call_sequences_match_oracle(
            calls in prop::collection::vec(
                (prop::collection::vec(any::<u8>(), 0..96), 1usize..40, any::<bool>()),
                1..24,
            ),
            small_limit in any::<bool>(),
        ) {
            let mut mf = MatchFinder::new();
            if small_limit {
                mf.limit = WINDOW as u32 + 2;
            }
            for (pattern, repeats, noisy) in calls {
                let mut data: Vec<u8> =
                    pattern.iter().cycle().take(pattern.len() * repeats).copied().collect();
                if noisy {
                    for (i, b) in data.iter_mut().enumerate().filter(|(i, _)| i % 11 == 3) {
                        *b = b.wrapping_add(i as u8);
                    }
                }
                let got = mf.compress(&data);
                prop_assert_eq!(&got, &compress_fresh_tables(&data));
                prop_assert_eq!(&decompress(&got).unwrap()[..], &data[..]);
            }
        }
    }

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(&d[..], data);
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
    }

    #[test]
    fn no_repeats() {
        let data: Vec<u8> = (0..=255u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn highly_repetitive_compresses() {
        let data = b"abcdabcdabcdabcdabcdabcdabcdabcdabcdabcd".repeat(50);
        let c = compress(&data);
        assert!(c.len() < data.len() / 4, "{} vs {}", c.len(), data.len());
        roundtrip(&data);
    }

    #[test]
    fn run_length_overlap() {
        let data = vec![7u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 100);
        roundtrip(&data);
    }

    #[test]
    fn pseudo_random_survives() {
        // xorshift noise: barely compressible; must still roundtrip.
        let mut next = crate::tests::xorshift(0x2545F4914F6CDD1D);
        let data: Vec<u8> = (0..50_000).map(|_| next() as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn serialized_delta_compresses() {
        use crate::{codec::encode_delta, Delta, EventKind};
        let mut d = Delta::new();
        for i in 0..500u64 {
            d.apply_event(&EventKind::AddEdge {
                src: i % 40,
                dst: (i * 7) % 40,
                weight: 1.0,
                directed: false,
            });
            d.apply_event(&EventKind::SetNodeAttr {
                id: i % 40,
                key: "entity_type".into(),
                value: crate::AttrValue::Text("Author".into()),
            });
        }
        let raw = encode_delta(&d);
        let c = compress(&raw);
        assert!(
            c.len() < raw.len(),
            "deltas should compress: {} vs {}",
            c.len(),
            raw.len()
        );
        assert_eq!(&decompress(&c).unwrap()[..], &raw[..]);
    }

    #[test]
    fn corrupt_input_is_an_error_not_a_panic() {
        assert!(decompress(&[0x05, 0x01, 0x09]).is_err());
        assert!(decompress(&[0x02, 0x01, 0xff, 0x10, 0x10]).is_err());
        // A raw length past the cap, or past what the ops could write.
        let mut huge = BytesMut::new();
        put_varint(&mut huge, u64::MAX);
        huge.put_slice(&[0, 1, 7]);
        assert!(decompress(&huge).is_err());
        // Lengths whose sums with the cursor would wrap.
        for op in [
            &[
                0x10, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
            ][..],
            &[
                0x10, 0, 1, 7, 1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
            ],
        ] {
            assert!(decompress(op).is_err());
        }
        // A match longer than the compressor ever writes.
        assert!(decompress(&[0x10, 0, 1, 7, 1, 1, 0x81, 0x08]).is_err());
    }

    /// Some data and `compress`'s output for it with one of five
    /// mutations: unchanged (`0`), a byte replaced, bytes inserted, cut
    /// short, or arbitrary bytes.
    fn arb_stream() -> impl Strategy<Value = (Vec<u8>, u8, Vec<u8>)> {
        (
            prop::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), any::<u8>()], 0..300),
            0u8..5,
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 1..5),
            prop::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(|(data, mutation, at, extra, arbitrary)| {
                let mut c = compress(&data).to_vec();
                let at = (at % (c.len() as u64 + 1)) as usize;
                match mutation {
                    1 if at < c.len() => c[at] = extra[0],
                    2 => drop(c.splice(at..at, extra)),
                    3 => c.truncate(at),
                    4 => c = arbitrary,
                    _ => {}
                }
                (data, mutation, c)
            })
    }

    proptest! {
        /// The store's one LZSS path reads whatever bytes a replica
        /// holds: any input decompresses or is refused, never panics,
        /// and never yields more than the cap or than its ops can
        /// write. Unchanged streams round-trip.
        #[test]
        fn decompress_refuses_or_answers_within_the_cap(
            (data, mutation, stream) in arb_stream()
        ) {
            let got = decompress(&stream);
            if let Ok(out) = &got {
                prop_assert!(out.len() as u64 <= MAX_LEN);
                prop_assert!(out.len() <= stream.len() * MAX_MATCH);
            }
            if mutation == 0 {
                prop_assert_eq!(&got.unwrap()[..], &data[..]);
            }
        }
    }
}
