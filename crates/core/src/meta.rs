//! Index metadata: the intersection-tree shape, timespan descriptors,
//! version chains, and their binary encodings (stored in the
//! `Timespans`, `Graph` and `Versions` tables).
//!
//! A version chain is a set of chunks: one `Versions` row per `(node,
//! span)` holds the span's eventlist chunks that hold the node's
//! events, as the first chunk index in the bits the span's chunk count
//! needs and then the gap to each next one as a Rice code — nothing
//! else. What a [`ChainEntry`] carries beyond
//! its chunk is derived by the reader: `tsid` from the row's key, `pid`
//! from the span's partition map, and when the entry's events happened
//! from the span's checkpoints ([`TimespanMeta::chunks_overlapping`]).

use std::sync::Arc;

use bytes::BytesMut;
use hgs_delta::codec::{get_varint, put_varint};
use hgs_delta::{
    decode_chunk_set, encode_chunk_set, CodecError, NodeId, PairTable, Time, TimeRange,
};
use hgs_store::SPAN_BLOCK;

/// Delta-id base for eventlist chunks: `did = ELIST_BASE + chunk`.
pub const ELIST_BASE: u64 = 1 << 40;
/// Delta-id base for auxiliary 1-hop replication deltas:
/// `did = AUX_BASE + leaf`.
pub const AUX_BASE: u64 = 1 << 41;

/// Shape of the k-ary intersection tree over the `q` leaf checkpoints
/// of one (timespan, horizontal partition).
///
/// Level 0 holds the leaves; the top level holds the root. The tree is
/// laid out **from the right**: it is the complete tree over
/// `arity^height` positions whose first [`pad`](TreeShape::pad) are
/// virtual, so leaf `j` sits at position `j + pad` and a node at level
/// `l` covers the leaves of `arity^l` consecutive positions. Every group
/// of siblings is full but the first of its level, which may hold fewer
/// than `arity` children. The height is that of any tree over `q`
/// leaves, `⌈log_arity q⌉`, and so is each level's size. Delta-ids are
/// assigned top-down: the root gets did 0, then each lower level
/// left-to-right, by the node's index in its level (its position less
/// the level's virtual nodes).
///
/// Why from the right: a component is stored once on every node of the
/// canonical cover of the leaves it lives through, and most of a
/// growing graph lives from the leaf it appears at to the span's end —
/// a suffix of the complete tree, covered by one node per nonzero digit
/// of its length in base `arity`, where a tree grouped from the left
/// adds a node under every ragged right edge. The price is more
/// nonempty rows on the paths to late leaves: on a growing span rows
/// per path plus copies per component stays the same.
///
/// Only the root delta and the `child − parent` derived deltas are
/// physically stored; leaves are reconstructed by summing along the
/// root-to-leaf path. Nothing of the shape is stored: it follows from
/// the leaf count and the descriptor's arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShape {
    /// Number of leaves (`q`).
    pub leaves: usize,
    /// Children per parent: the configured arity, clipped to the leaf
    /// count (a wider one builds the same flat tree).
    pub arity: usize,
    /// Virtual positions before leaf 0: `arity^height − leaves`.
    pub pad: usize,
    /// Node count per level; `level_sizes[0] == leaves`, last is 1.
    pub level_sizes: Vec<usize>,
    /// First did of each level (indexed like `level_sizes`).
    pub level_offsets: Vec<u64>,
}

impl TreeShape {
    /// Compute the shape for `leaves >= 1` checkpoints. The one shape
    /// of a span: the build and [`TimespanMeta::decode`] both derive it
    /// here, from the leaf count and the configured arity.
    pub fn new(leaves: usize, arity: usize) -> TreeShape {
        assert!(leaves >= 1 && arity >= 2);
        let arity = arity.min(leaves.max(2));
        let mut level_sizes = vec![leaves];
        // `arity^level`; with `arity <= leaves` it stays below
        // `leaves^2`, so it saturates only past 2^32 leaves.
        let mut width = 1usize;
        while width < leaves {
            width = width.saturating_mul(arity);
            level_sizes.push(leaves.div_ceil(width));
        }
        // dids: root level first (did 0), descending to leaves.
        let mut level_offsets = vec![0u64; level_sizes.len()];
        let mut next = 0u64;
        for lvl in (0..level_sizes.len()).rev() {
            level_offsets[lvl] = next;
            next += level_sizes[lvl] as u64;
        }
        TreeShape {
            leaves,
            arity,
            pad: width - leaves,
            level_sizes,
            level_offsets,
        }
    }

    /// Height of the tree (root level index); 0 when a single leaf is
    /// also the root.
    pub fn height(&self) -> usize {
        self.level_sizes.len() - 1
    }

    /// Total number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.level_sizes.iter().sum()
    }

    /// Delta-id of tree node `(level, idx)`.
    pub fn did(&self, level: usize, idx: usize) -> u64 {
        debug_assert!(idx < self.level_sizes[level]);
        self.level_offsets[level] + idx as u64
    }

    /// Virtual nodes before node 0 of `level`.
    fn level_pad(&self, level: usize) -> usize {
        (0..level).fold(self.pad, |pad, _| pad / self.arity)
    }

    /// Delta-ids along the root-to-leaf path for leaf `j` (root
    /// first). Summing the corresponding stored deltas reconstructs
    /// the leaf.
    pub fn path_to_leaf(&self, j: usize) -> Vec<u64> {
        debug_assert!(j < self.leaves);
        let mut path = vec![0; self.level_sizes.len()];
        let (mut pos, mut pad) = (j + self.pad, self.pad);
        for (level, did) in path.iter_mut().rev().enumerate() {
            *did = self.did(level, pos - pad);
            pos /= self.arity;
            pad /= self.arity;
        }
        path
    }

    /// Parent `(level, idx)` of a non-root node.
    pub fn parent(&self, level: usize, idx: usize) -> (usize, usize) {
        debug_assert!(level < self.height());
        let pad = self.level_pad(level);
        (level + 1, (idx + pad) / self.arity - pad / self.arity)
    }

    /// Whether node `(level, idx)` is the last child of its parent:
    /// the tree builder reduces a group when it arrives.
    pub(crate) fn closes_group(&self, level: usize, idx: usize) -> bool {
        (idx + self.level_pad(level)) % self.arity == self.arity - 1
    }
}

/// Metadata for one timespan, shared by all horizontal partitions.
///
/// A `Timespans` row stores only what its reader cannot derive (see
/// [`TimespanMeta::encode`]): the `tsid` is its key's, the end of the
/// range the next span's `c_0`, the tree shape follows from the
/// checkpoint count and the index's arity, and whether the span keeps
/// auxiliary 1-hop replicas from the index's partition strategy. What
/// it does store beside the partition counts and checkpoints is the
/// span's pair table, which every delta and eventlist row of the span
/// is encoded against.
#[derive(Debug, Clone, PartialEq)]
pub struct TimespanMeta {
    /// Timespan id.
    pub tsid: u32,
    /// Time range covered: from `c_0` to the next span's `c_0` (the
    /// last span extends to `Time::MAX`).
    pub range: TimeRange,
    /// Checkpoint times `c_0..c_{q-1}`: `c_j` is the state *before*
    /// eventlist chunk `j`; `c_0 == range.start`.
    pub checkpoints: Vec<Time>,
    /// Intersection-tree shape (leaves == checkpoints.len()), derived
    /// from the checkpoints and the index's arity, never stored.
    pub shape: TreeShape,
    /// Micro-partition counts per horizontal partition.
    pub pid_counts: Vec<u32>,
    /// The span's pair table: every attribute pair its rows name by id
    /// (see [`hgs_delta::columnar`]). Empty for a span without
    /// attributes.
    pub pairs: Arc<PairTable>,
}

impl TimespanMeta {
    /// The rows whose sum is leaf `leaf`'s checkpoint state, in summing
    /// order, as `(tsid, did)`: the roots of the span's
    /// [`root_bases`], block head first, then its own root-to-leaf
    /// path ([`TreeShape::path_to_leaf`]). The one tree path: every
    /// reader of a checkpoint walks it, so none can skip a base root.
    pub(crate) fn tree_path(&self, leaf: usize) -> Vec<(u32, u64)> {
        let own = self.shape.path_to_leaf(leaf).into_iter();
        root_bases(self.tsid)
            .into_iter()
            .map(|base| (base, 0))
            .chain(own.map(|did| (self.tsid, did)))
            .collect()
    }

    /// Leaf index whose checkpoint covers time `t` (the last `j` with
    /// `c_j <= t`).
    pub fn leaf_for_time(&self, t: Time) -> usize {
        debug_assert!(t >= self.range.start);
        self.checkpoints
            .partition_point(|&c| c <= t)
            .saturating_sub(1)
    }

    /// The eventlist chunks that can hold an event with
    /// `after < time < before` (`after = None`: from time 0 on): chunk
    /// `j` holds the span's events in `[c_j, c_{j+1})`, the last one up
    /// to `range.end`.
    pub(crate) fn chunks_overlapping(
        &self,
        after: Option<Time>,
        before: Time,
    ) -> impl Iterator<Item = u32> + '_ {
        (0..self.checkpoints.len() as u32).filter(move |&j| self.chunk_overlaps(j, after, before))
    }

    /// Whether eventlist chunk `j` is one of
    /// [`TimespanMeta::chunks_overlapping`]; a chunk the span does not
    /// have holds no event.
    pub(crate) fn chunk_overlaps(&self, j: u32, after: Option<Time>, before: Time) -> bool {
        let j = j as usize;
        let Some(&start) = self.checkpoints.get(j) else {
            return false;
        };
        let end = self
            .checkpoints
            .get(j + 1)
            .copied()
            .unwrap_or(self.range.end);
        start < before && after.is_none_or(|a| end > a)
    }

    /// Serialize for the `Timespans` table:
    ///
    /// ```text
    /// row := [0x00, varint table_len, pair_table]
    ///        varint pid_count{ns}, varint c_0, varint gap*
    /// ```
    ///
    /// The span's pair table, when it has one, opens the row behind a
    /// zero — no pid count is zero — and its byte length; then one pid
    /// count per horizontal partition, then `c_0` and the gap to each
    /// next checkpoint, ending with the row. A span without attributes
    /// spells no table, not an empty one.
    pub fn encode(&self) -> bytes::Bytes {
        let mut buf = BytesMut::new();
        if !self.pairs.is_empty() {
            let mut table = BytesMut::new();
            self.pairs.encode(&mut table);
            buf.extend_from_slice(&[0]);
            put_varint(&mut buf, table.len() as u64);
            buf.extend_from_slice(&table);
        }
        for &p in &self.pid_counts {
            put_varint(&mut buf, p as u64);
        }
        let mut prev = 0u64;
        for &c in &self.checkpoints {
            put_varint(&mut buf, c - prev);
            prev = c;
        }
        buf.freeze()
    }

    /// Decode the [`TimespanMeta::encode`] row of span `tsid` of an
    /// index of `ns` horizontal partitions built at `arity`, held to
    /// what the build writes: a pair table that fills exactly its
    /// length and holds something (`PairTable::decode` holds it to its
    /// own grammar), pid counts from 1 to `u32::MAX`, at least one
    /// checkpoint, and checkpoints that stay below `Time::MAX` (a gap
    /// that would pass it names no time). A row off these is refused by
    /// the field's name. The range runs from `c_0` to `Time::MAX`; the
    /// next span's row closes it ([`TimespanMeta::close_at`]).
    pub fn decode(
        mut buf: &[u8],
        tsid: u32,
        ns: u32,
        arity: usize,
    ) -> Result<TimespanMeta, CodecError> {
        if arity < 2 {
            return Err(CodecError::LengthOverflow {
                what: "arity",
                len: arity as u64,
            });
        }
        let b = &mut buf;
        let pairs = match b.split_first() {
            Some((0, rest)) => {
                *b = rest;
                Arc::new(decode_pair_table(b)?)
            }
            _ => Arc::default(),
        };
        // Every varint is a byte at least.
        let mut pid_counts = Vec::with_capacity(b.len().min(ns as usize));
        for _ in 0..ns {
            let p = get_varint(b)?;
            match u32::try_from(p) {
                Ok(p) if p > 0 => pid_counts.push(p),
                _ => {
                    return Err(CodecError::LengthOverflow {
                        what: "pid count",
                        len: p,
                    })
                }
            }
        }
        let mut c = get_varint(b)?;
        let mut checkpoints = Vec::with_capacity(b.len() + 1);
        checkpoints.push(c);
        while !b.is_empty() {
            let gap = get_varint(b)?;
            c = match c.checked_add(gap) {
                Some(next) if next < Time::MAX => next,
                _ => {
                    return Err(CodecError::BadRef {
                        what: "checkpoint",
                        id: gap,
                    })
                }
            };
            checkpoints.push(c);
        }
        Ok(TimespanMeta {
            tsid,
            range: TimeRange::new(checkpoints[0], Time::MAX),
            shape: TreeShape::new(checkpoints.len(), arity),
            checkpoints,
            pid_counts,
            pairs,
        })
    }

    /// End this span where the next one opens, at `next_start`, the
    /// next span's `c_0`, held to the one rule the build keeps across
    /// rows: span starts never fall, and this span's checkpoints after
    /// its `c_0` lie below the next span's `c_0`. A pair off it is
    /// refused as the next span's `timespan start`: a read at some time
    /// would land in the wrong span's rows.
    pub fn close_at(&mut self, next_start: Time) -> Result<(), CodecError> {
        let mut after_c0 = self.checkpoints.iter().skip(1);
        if next_start < self.range.start || after_c0.any(|&c| c >= next_start) {
            return Err(CodecError::BadRef {
                what: "timespan start",
                id: next_start,
            });
        }
        self.range.end = next_start;
        Ok(())
    }
}

/// Read a `Timespans` row's pair table from the cursor: its byte
/// length, then the table, which must fill exactly that length and
/// hold something (a span without pairs spells no table).
fn decode_pair_table(b: &mut &[u8]) -> Result<PairTable, CodecError> {
    let len = get_varint(b)?;
    let Some((mut spelled, rest)) = usize::try_from(len)
        .ok()
        .and_then(|n| b.split_at_checked(n))
    else {
        return Err(CodecError::UnexpectedEof {
            needed: usize::try_from(len).unwrap_or(usize::MAX),
            remaining: b.len(),
        });
    };
    *b = rest;
    let table = PairTable::decode(&mut spelled)?;
    if !spelled.is_empty() {
        return Err(CodecError::TrailingBytes {
            remaining: spelled.len(),
        });
    }
    if table.is_empty() {
        return Err(CodecError::LengthOverflow {
            what: "pair table",
            len: 0,
        });
    }
    Ok(table)
}

/// One version-chain entry: "eventlist chunk `chunk` of timespan
/// `tsid` holds events touching the node, at micro-partition `pid`" —
/// chunk `j` holds the span's events in `[c_j, c_{j+1})`.
///
/// A `Versions` row — one per `(node, timespan)`, keyed
/// [`chain_key`](hgs_store::chain_key) — **stores** only the set
/// of chunks: the first chunk in the bits the span's chunk count `q`
/// needs, then each gap less one as a Rice code (the grammar is
/// [`encode_chunk_set`]'s). Everything else is derived: `q` from the
/// span's checkpoints, `tsid` from the last four bytes of the row's
/// key, `pid` from where the span's partition map of the node's `sid`
/// assigns the node — the rule the build bucketed the node's events
/// by — and when an entry's events happened from its span's
/// checkpoints (`TimespanMeta::chunks_overlapping`), the same rule a
/// chain-less read locates chunks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainEntry {
    pub tsid: u32,
    pub chunk: u32,
    pub pid: u32,
}

/// Serialize one span's segment of a version chain, for a span of
/// `chunk_count` chunks: entries in increasing `chunk` order, the first
/// below `chunk_count`, spelled by [`encode_chunk_set`]. The entries'
/// `tsid` and `pid` are not written (see [`ChainEntry`]).
pub fn encode_chain(entries: &[ChainEntry], chunk_count: usize) -> bytes::Bytes {
    encode_chunk_set(entries.iter().map(|e| e.chunk), chunk_count)
}

/// Decode a chain row written by [`encode_chain`] for the `(node,
/// tsid)` of its key, whose events the span keeps at micro-partition
/// `pid` in eventlist chunks `0..chunk_count`. A chunk at or past
/// `chunk_count` is refused: the row names chunks its span does not
/// have. No more than `chunk_count` entries are read, whatever the
/// row's length (see [`decode_chunk_set`]).
pub(crate) fn decode_chain(
    buf: &[u8],
    tsid: u32,
    pid: u32,
    chunk_count: usize,
) -> Result<Vec<ChainEntry>, CodecError> {
    Ok(decode_chunk_set(buf, chunk_count)?
        .into_iter()
        .map(|chunk| ChainEntry { tsid, chunk, pid })
        .collect())
}

/// The spans whose roots span `tsid`'s root is stored against, block
/// head first: its **Fenwick bases** in its block of [`SPAN_BLOCK`]
/// spans. With `i` the span's index in its block, a block head (`i =
/// 0`) stores its root in full, and any other span's root is a signed
/// residual ([`hgs_delta::Residual`]) against the root of span `tsid −
/// lowbit(i)`, which is itself one against its own base: a root sums
/// the roots of the `popcount(i) ≤ 5` spans got by clearing `i`'s set
/// bits from the lowest, and never reads past its block, whose spans
/// share a placement ([`hgs_store::PlacementKey::of_span`]).
pub(crate) fn root_bases(tsid: u32) -> Vec<u32> {
    let head = tsid - tsid % SPAN_BLOCK;
    let mut i = tsid % SPAN_BLOCK;
    let mut bases = Vec::new();
    while i != 0 {
        i &= i - 1;
        bases.push(head + i);
    }
    bases.reverse();
    bases
}

/// The spans up to `tsid` whose roots a later span of `tsid`'s block
/// sums, ascending: what the writer keeps once `tsid` is built — some
/// of `tsid`'s own root bases, and `tsid` when its index in the block
/// is even (it is the next span's base); none after the block's last
/// span. Never more than five.
pub(crate) fn roots_named_after(tsid: u32) -> Vec<u32> {
    let block_end = tsid - tsid % SPAN_BLOCK + SPAN_BLOCK;
    let mut named: Vec<u32> = (tsid + 1..block_end)
        .flat_map(root_bases)
        .filter(|&base| base <= tsid)
        .collect();
    named.sort_unstable();
    named.dedup();
    named
}

/// Salt decorrelating `sid` hashing from micro-partition hashing.
const SID_SALT: u64 = 0x9027_3321_AB03_77F1;

/// Horizontal partition (`sid`) of a node: a pure hash (§4.4 point 2).
#[inline]
pub fn sid_of(nid: NodeId, ns: u32) -> u32 {
    (hgs_delta::hash_u64(nid ^ SID_SALT) % ns as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_binary_over_five_leaves() {
        let s = TreeShape::new(5, 2);
        assert_eq!(s.level_sizes, vec![5, 3, 2, 1]);
        assert_eq!(s.height(), 3);
        assert_eq!(s.pad, 3);
        assert_eq!(s.node_count(), 11);
        // root did 0; level 2 gets 1..=2; level 1 gets 3..=5; leaves 6..=10
        assert_eq!(s.did(3, 0), 0);
        assert_eq!(s.did(2, 0), 1);
        assert_eq!(s.did(1, 0), 3);
        assert_eq!(s.did(0, 0), 6);
    }

    #[test]
    fn path_walks_root_to_leaf() {
        // Leaves at positions 3..8 of an 8-position tree: leaf 0 alone
        // under its level-1 node, leaves 1..5 in full groups.
        let s = TreeShape::new(5, 2);
        let p = s.path_to_leaf(4);
        assert_eq!(p, vec![0, s.did(2, 1), s.did(1, 2), s.did(0, 4)]);
        let p1 = s.path_to_leaf(1);
        assert_eq!(p1, vec![0, s.did(2, 1), s.did(1, 1), s.did(0, 1)]);
        let p0 = s.path_to_leaf(0);
        assert_eq!(p0, vec![0, s.did(2, 0), s.did(1, 0), s.did(0, 0)]);
    }

    #[test]
    fn single_leaf_tree() {
        let s = TreeShape::new(1, 2);
        assert_eq!(s.height(), 0);
        assert_eq!(s.path_to_leaf(0), vec![0]);
    }

    #[test]
    fn parent_relation() {
        let s = TreeShape::new(8, 2);
        assert_eq!(s.parent(0, 5), (1, 2));
        assert_eq!(s.parent(1, 3), (2, 1));
        // Ragged: 40 leaves at positions 24..64, 3 | 2 under the root.
        let s = TreeShape::new(40, 2);
        assert_eq!((s.pad, s.level_sizes[4]), (24, 3));
        assert_eq!(s.parent(4, 0), (5, 0));
        assert_eq!(s.parent(4, 1), (5, 1));
        assert_eq!(s.parent(0, 39), (1, 19));
    }

    #[test]
    fn huge_arity_gives_flat_tree() {
        let s = TreeShape::new(10, usize::MAX / 2);
        assert_eq!(s.level_sizes, vec![10, 1]);
        assert_eq!(s.height(), 1);
        assert_eq!((s.arity, s.pad), (10, 0));
        assert_eq!(s.path_to_leaf(7).len(), 2);
    }

    /// Every shape over 1..=130 leaves at arity 2..=5: leaf ranges
    /// gathered through `parent` tile each level, each node's children
    /// tile its range, each path is root first with one node per level
    /// and every node on it holds its leaf, the dids number the nodes
    /// `0..node_count()`, and only a level's first group is ragged.
    #[test]
    fn every_shape_tiles_its_leaves_from_the_right() {
        for arity in 2..=5 {
            for q in 1..=130 {
                let s = TreeShape::new(q, arity);
                let what = format!("q {q}, arity {arity}");
                let a = s.arity;
                let h = s.height();
                assert_eq!(s.pad + q, a.pow(h as u32), "{what}");
                assert!(h == 0 || a.pow(h as u32 - 1) < q, "{what}: height");
                // Level 0 is the leaves in order.
                let mut ranges = vec![(0..q).map(|j| j..j + 1).collect::<Vec<_>>()];
                for level in 0..h {
                    let mut up: Vec<Option<std::ops::Range<usize>>> =
                        vec![None; s.level_sizes[level + 1]];
                    let mut children = vec![0usize; up.len()];
                    for (idx, r) in ranges[level].iter().enumerate() {
                        let (pl, p) = s.parent(level, idx);
                        assert_eq!(pl, level + 1, "{what}");
                        up[p] = Some(match up[p].take() {
                            None => r.clone(),
                            Some(u) => {
                                assert_eq!(u.end, r.start, "{what}: children tile");
                                u.start..r.end
                            }
                        });
                        children[p] += 1;
                        let last =
                            idx + 1 == s.level_sizes[level] || s.parent(level, idx + 1).1 != p;
                        assert_eq!(s.closes_group(level, idx), last, "{what}");
                    }
                    // Only the first group may be ragged.
                    assert!(children.iter().all(|&c| c >= 1), "{what}");
                    assert!(children[1..].iter().all(|&c| c == a), "{what}");
                    assert_eq!(
                        children.last(),
                        Some(&a.min(s.level_sizes[level])),
                        "{what}: last group"
                    );
                    ranges.push(up.into_iter().map(|r| r.expect("a child")).collect());
                }
                for (level, nodes) in ranges.iter().enumerate() {
                    assert_eq!(nodes.len(), s.level_sizes[level], "{what}");
                    assert_eq!(nodes[0].start, 0, "{what}");
                    assert_eq!(nodes.last().map(|r| r.end), Some(q), "{what}");
                    for w in nodes.windows(2) {
                        assert_eq!(w[0].end, w[1].start, "{what}: level {level} tiles");
                    }
                }
                for j in 0..q {
                    let path = s.path_to_leaf(j);
                    assert_eq!(path.len(), h + 1, "{what}");
                    for (depth, &did) in path.iter().enumerate() {
                        let level = h - depth;
                        let idx = (did - s.level_offsets[level]) as usize;
                        assert_eq!(s.did(level, idx), did, "{what}");
                        assert!(ranges[level][idx].contains(&j), "{what}: leaf {j}");
                    }
                }
                let mut dids: Vec<u64> = (0..=h)
                    .flat_map(|l| (0..s.level_sizes[l]).map(move |i| (l, i)))
                    .map(|(l, i)| s.did(l, i))
                    .collect();
                dids.sort_unstable();
                assert_eq!(dids, (0..s.node_count() as u64).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn meta_roundtrip() {
        let m = TimespanMeta {
            tsid: 3,
            range: TimeRange::new(100, Time::MAX),
            checkpoints: vec![100, 250, 430],
            shape: TreeShape::new(3, 2),
            pid_counts: vec![4, 7],
            pairs: Arc::default(),
        };
        // Two pid counts, `c_0`, two gaps: one varint each, and nothing
        // else — no tsid, no end, no counts, no aux flag.
        let row = m.encode();
        assert_eq!(row.len(), 1 + 1 + 1 + 2 + 2);
        let back = TimespanMeta::decode(&row, 3, 2, 2).unwrap();
        assert_eq!(back, m);
        // The row spells no arity: the shape follows the one passed.
        let flat = TimespanMeta::decode(&row, 3, 2, 5).unwrap();
        assert_eq!(flat.shape, TreeShape::new(3, 3));
        // Nor its partition count: read at one, the second pid count
        // is `c_0`, the span's times shift, and the next row's `c_0`
        // refuses them.
        let mut shifted = TimespanMeta::decode(&row, 3, 1, 2).unwrap();
        assert_eq!(shifted.checkpoints, vec![7, 107, 257, 437]);
        assert!(shifted.close_at(430).is_err());
    }

    /// A span with attribute pairs opens its row with its pair table —
    /// a zero, the table's length, the table — before the row an
    /// attribute-free span writes; a table spelled empty, or one that
    /// does not fill its length, is refused.
    #[test]
    fn a_span_with_pairs_spells_its_table_first() {
        let (one, text) = (
            hgs_delta::AttrValue::Int(1),
            hgs_delta::AttrValue::from("x"),
        );
        let m = TimespanMeta {
            tsid: 3,
            range: TimeRange::new(100, Time::MAX),
            checkpoints: vec![100, 250],
            shape: TreeShape::new(2, 2),
            pid_counts: vec![4, 7],
            pairs: Arc::new(PairTable::new([("k", &one), ("j", &text)], ["gone"])),
        };
        let row = m.encode();
        let bare = TimespanMeta {
            pairs: Arc::default(),
            ..m.clone()
        }
        .encode();
        let mut table = BytesMut::new();
        m.pairs.encode(&mut table);
        assert_eq!(row[..2], [0, table.len() as u8]);
        assert_eq!(row[2..2 + table.len()], table[..]);
        assert_eq!(row[2 + table.len()..], bare[..]);
        assert_eq!(TimespanMeta::decode(&row, 3, 2, 2), Ok(m));

        let spelled = |table: &[u8], len: usize| {
            let mut b = BytesMut::new();
            b.extend_from_slice(&[0]);
            put_varint(&mut b, len as u64);
            b.extend_from_slice(table);
            b.extend_from_slice(&bare);
            TimespanMeta::decode(&b, 3, 2, 2).map(drop)
        };
        let mut empty = BytesMut::new();
        PairTable::default().encode(&mut empty);
        assert_eq!(
            spelled(&empty, empty.len()),
            Err(CodecError::LengthOverflow {
                what: "pair table",
                len: 0
            })
        );
        // A length one short cuts the table; one long takes a byte of
        // the pid counts into it.
        assert!(matches!(
            spelled(&table[..table.len() - 1], table.len() - 1),
            Err(CodecError::UnexpectedEof { .. })
        ));
        assert_eq!(
            spelled(&table, table.len() + 1),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    /// A span ends where the next opens. Starts never fall, and the
    /// checkpoints after `c_0` lie below the next span's `c_0` — an
    /// empty span's lone `c_0` may equal it.
    #[test]
    fn close_at_holds_the_cross_row_rule() {
        let span = |checkpoints: Vec<Time>| TimespanMeta {
            tsid: 0,
            range: TimeRange::new(checkpoints[0], Time::MAX),
            shape: TreeShape::new(checkpoints.len(), 2),
            checkpoints,
            pid_counts: vec![1],
            pairs: Arc::default(),
        };
        let refused = |id| {
            Err(CodecError::BadRef {
                what: "timespan start",
                id,
            })
        };
        let mut m = span(vec![10, 20, 30]);
        assert_eq!(m.close_at(30), refused(30));
        assert_eq!(m.close_at(25), refused(25));
        assert_eq!(m.close_at(5), refused(5));
        assert_eq!(
            m.range.end,
            Time::MAX,
            "a refused close leaves the span open"
        );
        assert_eq!(m.close_at(31), Ok(()));
        assert_eq!(m.range, TimeRange::new(10, 31));
        let mut empty = span(vec![10]);
        assert_eq!(empty.close_at(9), refused(9));
        assert_eq!(empty.close_at(10), Ok(()));
        assert_eq!(empty.range, TimeRange::new(10, 10));
    }

    /// A `Timespans` row off its grammar is refused by the field's
    /// name, never a panic.
    #[test]
    fn timespan_rows_off_the_grammar_are_refused() {
        let row = |fields: &[u64]| {
            let mut buf = BytesMut::new();
            for &f in fields {
                put_varint(&mut buf, f);
            }
            buf.freeze()
        };
        let decode = |fields: &[u64]| TimespanMeta::decode(&row(fields), 0, 2, 2).map(drop);
        assert_eq!(decode(&[3, 4, 0, 10]), Ok(()));
        for p in [0, 1 << 32] {
            assert_eq!(
                decode(&[3, p, 0]),
                Err(CodecError::LengthOverflow {
                    what: "pid count",
                    len: p
                })
            );
        }
        // No checkpoint at all, or a varint cut short.
        for short in [&row(&[3, 4])[..], &[3, 4, 0x80]] {
            assert!(matches!(
                TimespanMeta::decode(short, 0, 2, 2),
                Err(CodecError::UnexpectedEof { .. })
            ));
        }
        // A checkpoint at or past `Time::MAX`.
        assert_eq!(
            decode(&[3, 4, 1, Time::MAX - 1]),
            Err(CodecError::BadRef {
                what: "checkpoint",
                id: Time::MAX - 1
            })
        );
        assert_eq!(
            decode(&[3, 4, 1, 1, u64::MAX]),
            Err(CodecError::BadRef {
                what: "checkpoint",
                id: u64::MAX
            })
        );
        assert!(matches!(
            TimespanMeta::decode(&row(&[3, 4, 0]), 0, 2, 1),
            Err(CodecError::LengthOverflow { what: "arity", .. })
        ));
    }

    #[test]
    fn leaf_for_time_picks_last_checkpoint() {
        let m = TimespanMeta {
            tsid: 0,
            range: TimeRange::new(0, 1000),
            checkpoints: vec![0, 100, 200],
            shape: TreeShape::new(3, 2),
            pid_counts: vec![1],
            pairs: Arc::default(),
        };
        assert_eq!(m.leaf_for_time(0), 0);
        assert_eq!(m.leaf_for_time(99), 0);
        assert_eq!(m.leaf_for_time(100), 1);
        assert_eq!(m.leaf_for_time(500), 2);
    }

    fn entry(chunk: u32) -> ChainEntry {
        ChainEntry {
            tsid: 7,
            chunk,
            pid: 3,
        }
    }

    #[test]
    fn chain_roundtrip() {
        // One row is one (node, span): what the entries share is not
        // stored, it comes back from the reader's `tsid` and `pid`.
        let entries = vec![entry(1), entry(2), entry(300)];
        let row = encode_chain(&entries, 301);
        assert_eq!(decode_chain(&row, 7, 3, 301).unwrap(), entries);
        assert_eq!(row, encode_chunk_set([1, 2, 300], 301));
        assert!(encode_chain(&[], 301).is_empty());
        // ...so entries differing only in `tsid` / `pid` encode alike.
        let elsewhere: Vec<ChainEntry> = entries
            .iter()
            .map(|e| ChainEntry {
                tsid: 9,
                pid: 0,
                ..*e
            })
            .collect();
        assert_eq!(encode_chain(&elsewhere, 301), row);
    }

    #[test]
    fn chain_rows_naming_chunks_their_span_lacks_are_refused() {
        // Rows of a 16-chunk span read as a ten-chunk span's: the same
        // 4-bit first chunk and Rice parameter, so what they name past
        // chunk 9 is what a ten-chunk span lacks.
        let row = |chunks: &[u32]| {
            encode_chain(&chunks.iter().map(|&c| entry(c)).collect::<Vec<_>>(), 16)
        };
        let bad = |id| {
            Err(CodecError::BadRef {
                what: "chain chunk",
                id,
            })
        };
        assert_eq!(
            decode_chain(&row(&[3, 9]), 7, 3, 10).unwrap(),
            [entry(3), entry(9)]
        );
        assert_eq!(decode_chain(&row(&[3, 10]), 7, 3, 10), bad(10));
        assert_eq!(decode_chain(&row(&[10]), 7, 3, 10), bad(10));
        assert_eq!(decode_chain(&row(&[15]), 7, 3, 10), bad(15));
    }

    /// Each span's root bases are its Fenwick prefixes inside its block:
    /// every one an earlier span of the block, the last the span less
    /// the lowest bit of its index, at most five; a block head has
    /// none. What the writer keeps after a span holds every root a later
    /// span of the block sums, and never more than five.
    #[test]
    fn root_bases_are_fenwick_prefixes_inside_the_block() {
        assert_eq!(root_bases(0), Vec::<u32>::new());
        assert_eq!(root_bases(5), [0, 4]);
        assert_eq!(root_bases(3), [0, 2]);
        assert_eq!(root_bases(23), [0, 16, 20, 22]);
        assert_eq!(root_bases(32 + 31), [32, 48, 56, 60, 62]);
        assert_eq!(roots_named_after(30), [0, 16, 24, 28, 30]);
        assert_eq!(roots_named_after(3), [0]);
        assert_eq!(roots_named_after(31), Vec::<u32>::new());
        assert_eq!(root_bases(64), Vec::<u32>::new());
        for tsid in 0..200u32 {
            let bases = root_bases(tsid);
            let i = tsid % SPAN_BLOCK;
            assert_eq!(bases.len(), i.count_ones() as usize, "{tsid}");
            assert!(bases
                .iter()
                .all(|&b| b < tsid && b / SPAN_BLOCK == tsid / SPAN_BLOCK));
            assert!(bases.windows(2).all(|w| w[0] < w[1]));
            if i != 0 {
                assert_eq!(bases.last(), Some(&(tsid - (1 << i.trailing_zeros()))));
                assert_eq!(bases.first(), Some(&(tsid - i)));
                // A base's bases are the span's, minus itself.
                let base = bases[bases.len() - 1];
                assert_eq!(root_bases(base), bases[..bases.len() - 1]);
            }
            let kept = roots_named_after(tsid);
            assert!(kept.len() <= 5, "{tsid}: {kept:?}");
            let block_end = (tsid / SPAN_BLOCK + 1) * SPAN_BLOCK;
            for later in tsid + 1..block_end {
                let mut need = root_bases(later);
                need.retain(|&b| b <= tsid);
                assert!(need.iter().all(|b| kept.contains(b)), "{tsid} → {later}");
            }
            for &k in &kept {
                let named = (tsid + 1..block_end).any(|later| root_bases(later).contains(&k));
                assert!(
                    named && k <= tsid,
                    "{tsid} keeps {k}, which no later span names"
                );
            }
        }
    }

    #[test]
    fn a_tree_path_sums_the_base_roots_first() {
        let meta = TimespanMeta {
            tsid: 38,
            range: TimeRange::new(100, Time::MAX),
            checkpoints: vec![100, 250, 430],
            shape: TreeShape::new(3, 2),
            pid_counts: vec![1],
            pairs: Arc::default(),
        };
        let own = meta.shape.path_to_leaf(2);
        let mut want = vec![(32, 0), (36, 0)];
        want.extend(own.iter().map(|&did| (38, did)));
        assert_eq!(meta.tree_path(2), want);
    }

    #[test]
    fn sid_spreads_nodes() {
        use std::collections::HashSet;
        let sids: HashSet<u32> = (0..100u64).map(|n| sid_of(n, 4)).collect();
        assert_eq!(sids.len(), 4);
        assert!(sids.iter().all(|&s| s < 4));
    }
}
