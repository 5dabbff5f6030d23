//! Composite keys and table namespaces.
//!
//! Mirrors the paper's Cassandra schema (§4.4 *Implementation*): five
//! tables, with the `Deltas` table keyed by the composite
//! `{tsid, sid, did, pid}` — and placed by `{block, sid}`, where the
//! paper places by `{tsid, sid}` (see [`PlacementKey`]).

use std::fmt;

/// The five TGI tables of the paper's implementation section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Table {
    /// `Deltas(tsid, sid, did, pid, dval)` — serialized micro-deltas.
    Deltas,
    /// `Versions(nid, vchain)` — per-node version chains.
    Versions,
    /// `Timespans(tsid, ...)` — timespan metadata.
    Timespans,
    /// `Graph(...)` — global graph/index metadata.
    Graph,
    /// `Micropartitions(nid, tsid, pid)` — node -> micro-partition map
    /// (only populated for locality partitioning).
    Micropartitions,
    /// `AttrIndex(kind, term, tsid)` — secondary temporal index rows:
    /// per-term change-point lists, which every index stores.
    AttrIndex,
}

impl Table {
    /// Namespace prefix byte for the machine-local ordered key space.
    #[inline]
    pub fn tag(self) -> u8 {
        match self {
            Table::Deltas => 0,
            Table::Versions => 1,
            Table::Timespans => 2,
            Table::Graph => 3,
            Table::Micropartitions => 4,
            Table::AttrIndex => 5,
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Table::Deltas => "Deltas",
            Table::Versions => "Versions",
            Table::Timespans => "Timespans",
            Table::Graph => "Graph",
            Table::Micropartitions => "Micropartitions",
            Table::AttrIndex => "AttrIndex",
        };
        f.write_str(s)
    }
}

/// Timespans per placement block: the spans `32b .. 32b + 32` of a
/// horizontal partition share one placement ([`PlacementKey::of_span`]).
/// A constant of the index's layout, not a knob: a span's root is
/// stored against roots of earlier spans of its block, which a read of
/// the span fetches beside its own rows.
pub const SPAN_BLOCK: u32 = 32;

/// The placement key `{block, sid}`: the unit of chunk placement across
/// machines. The paper (§4.4 point 4) places by `{tsid, sid}`; here the
/// rows of a horizontal partition's spans are placed together by
/// blocks of [`SPAN_BLOCK`] consecutive spans. A span's root is stored
/// as a residual against the roots of earlier spans of its block, so a
/// read of one span needs rows of several, and co-placing them keeps
/// that read one round trip, the same as the paper's. Combining the
/// block and the horizontal-partition id still spreads both snapshot
/// fetches (all `sid`s of one span) and version fetches (one `sid`
/// across many blocks) over the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlacementKey {
    pub block: u32,
    pub sid: u32,
}

impl PlacementKey {
    pub fn new(block: u32, sid: u32) -> PlacementKey {
        PlacementKey { block, sid }
    }

    /// The placement of span `tsid`'s rows of horizontal partition
    /// `sid`: its block's. The one rule every placed row of a span —
    /// `Deltas`, `Micropartitions` — and every read of one follow.
    #[inline]
    pub fn of_span(tsid: u32, sid: u32) -> PlacementKey {
        PlacementKey::new(tsid / SPAN_BLOCK, sid)
    }

    /// Stable 64-bit token for ring placement.
    #[inline]
    pub fn token(&self) -> u64 {
        hgs_delta::hash_u64(((self.block as u64) << 32) | self.sid as u64)
    }
}

/// The composite delta key `{tsid, sid, did, pid}` (§4.4 point 3).
///
/// The big-endian byte encoding preserves tuple ordering, so within a
/// machine all micro-partitions (`pid`) of one delta (`did`) are
/// contiguous — the clustering property the paper uses to make
/// snapshot scans cheap (§4.4 point 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeltaKey {
    /// Timespan id.
    pub tsid: u32,
    /// Horizontal partition id.
    pub sid: u32,
    /// Delta id within the (timespan, horizontal partition) tree.
    pub did: u64,
    /// Micro-partition id within the delta.
    pub pid: u32,
}

impl DeltaKey {
    pub fn new(tsid: u32, sid: u32, did: u64, pid: u32) -> DeltaKey {
        DeltaKey {
            tsid,
            sid,
            did,
            pid,
        }
    }

    /// Placement key of this delta key: its span's
    /// ([`PlacementKey::of_span`]).
    #[inline]
    pub fn placement(&self) -> PlacementKey {
        PlacementKey::of_span(self.tsid, self.sid)
    }

    /// Order-preserving byte encoding.
    pub fn encode(&self) -> [u8; 20] {
        let mut out = [0u8; 20];
        out[0..4].copy_from_slice(&self.tsid.to_be_bytes());
        out[4..8].copy_from_slice(&self.sid.to_be_bytes());
        out[8..16].copy_from_slice(&self.did.to_be_bytes());
        out[16..20].copy_from_slice(&self.pid.to_be_bytes());
        out
    }

    /// Decode from [`DeltaKey::encode`] bytes.
    pub fn decode(bytes: &[u8]) -> Option<DeltaKey> {
        if bytes.len() != 20 {
            return None;
        }
        Some(DeltaKey {
            tsid: u32::from_be_bytes(bytes[0..4].try_into().ok()?),
            sid: u32::from_be_bytes(bytes[4..8].try_into().ok()?),
            did: u64::from_be_bytes(bytes[8..16].try_into().ok()?),
            pid: u32::from_be_bytes(bytes[16..20].try_into().ok()?),
        })
    }

    /// Prefix matching every micro-partition of delta `did` — the scan
    /// unit for snapshot queries.
    pub fn delta_prefix(tsid: u32, sid: u32, did: u64) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&tsid.to_be_bytes());
        out[4..8].copy_from_slice(&sid.to_be_bytes());
        out[8..16].copy_from_slice(&did.to_be_bytes());
        out
    }
}

/// Encode a node-id key for the `Versions` / `Micropartitions` tables.
pub fn node_key(nid: u64) -> [u8; 8] {
    nid.to_be_bytes()
}

/// Key of one append-only chain-delta row in the `Versions` table:
/// `nid ++ tsid`, both big-endian, so a prefix scan by `nid` yields
/// the per-timespan chain segments in tsid (i.e. chronological) order.
/// The build path writes one such row per `(node, timespan)` instead
/// of read-modify-writing a whole-chain row.
pub fn chain_key(nid: u64, tsid: u32) -> [u8; 12] {
    let mut out = [0u8; 12];
    out[0..8].copy_from_slice(&nid.to_be_bytes());
    out[8..12].copy_from_slice(&tsid.to_be_bytes());
    out
}

/// Prefix matching every chain-delta row of one node. Nothing else
/// lives under it: a `Versions` key that is not a 12-byte
/// [`chain_key`] has no reader ([`chain_key_tsid`] is `None`).
pub fn chain_prefix(nid: u64) -> [u8; 8] {
    node_key(nid)
}

/// Timespan id of a [`chain_key`] — the half of a chain row its value
/// does not repeat. `None` for a key of any other length.
pub fn chain_key_tsid(key: &[u8]) -> Option<u32> {
    let key: &[u8; 12] = key.try_into().ok()?;
    let [.., a, b, c, d] = *key;
    Some(u32::from_be_bytes([a, b, c, d]))
}

/// Placement token for node-keyed tables (hash-spread over machines).
pub fn node_placement_token(nid: u64) -> u64 {
    hgs_delta::hash_u64(nid ^ 0xABCD_EF01_2345_6789)
}

/// Key of one secondary-index row in the `AttrIndex` table:
/// `kind ++ len(term) ++ term ++ tsid`, with the term length and tsid
/// big-endian. Leading with the kind and the length-prefixed term makes
/// a per-term prefix scan yield that term's rows for every timespan in
/// tsid (i.e. chronological) order, while distinct terms never shadow
/// each other byte-wise.
pub fn term_key(kind: u8, term: &[u8], tsid: u32) -> Vec<u8> {
    let mut out = term_prefix(kind, term);
    out.extend_from_slice(&tsid.to_be_bytes());
    out
}

/// Prefix matching every timespan's row of one `(kind, term)`.
pub(crate) fn term_prefix(kind: u8, term: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + term.len() + 4);
    out.push(kind);
    out.extend_from_slice(&(term.len() as u32).to_be_bytes());
    out.extend_from_slice(term);
    out
}

/// Placement token for secondary-index rows. All timespans of one term
/// share a token so a per-term prefix scan stays a single-placement
/// read, mirroring how a node's chain rows share
/// [`node_placement_token`].
pub fn term_token(kind: u8, term: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = hgs_delta::FxHasher::default();
    h.write_u8(kind);
    h.write(term);
    // Post-mix: ring placement buckets by low bits, which FxHash
    // leaves poorly mixed for short similar terms.
    hgs_delta::hash_u64(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_preserves_order() {
        let keys = [
            DeltaKey::new(0, 0, 0, 0),
            DeltaKey::new(0, 0, 0, 1),
            DeltaKey::new(0, 0, 1, 0),
            DeltaKey::new(0, 1, 0, 0),
            DeltaKey::new(1, 0, 0, 0),
            DeltaKey::new(1, 2, 3, 4),
        ];
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
            assert!(
                w[0].encode() < w[1].encode(),
                "byte order must match tuple order"
            );
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let k = DeltaKey::new(7, 3, u64::MAX - 5, 42);
        assert_eq!(DeltaKey::decode(&k.encode()), Some(k));
        assert_eq!(DeltaKey::decode(&[0u8; 3]), None);
    }

    #[test]
    fn delta_prefix_matches_all_pids() {
        let prefix = DeltaKey::delta_prefix(1, 2, 3);
        for pid in [0u32, 1, 500] {
            let enc = DeltaKey::new(1, 2, 3, pid).encode();
            assert!(enc.starts_with(&prefix));
        }
        let other = DeltaKey::new(1, 2, 4, 0).encode();
        assert!(!other.starts_with(&prefix));
    }

    #[test]
    fn a_blocks_spans_share_a_placement() {
        for sid in [0u32, 3] {
            let head = DeltaKey::new(64, sid, 0, 0).placement();
            assert_eq!(head, PlacementKey::new(2, sid));
            for tsid in 64..96 {
                assert_eq!(DeltaKey::new(tsid, sid, 7, 1).placement(), head);
            }
            assert_ne!(DeltaKey::new(96, sid, 0, 0).placement(), head);
            assert_ne!(DeltaKey::new(63, sid, 0, 0).placement(), head);
        }
        // The first block's tokens are the paper's first span's.
        assert_eq!(PlacementKey::of_span(31, 5), PlacementKey::new(0, 5));
    }

    #[test]
    fn placement_tokens_spread() {
        use std::collections::HashSet;
        let tokens: HashSet<u64> = (0..32u32)
            .map(|sid| PlacementKey::new(0, sid).token() % 4)
            .collect();
        assert!(tokens.len() >= 3, "placement should use most machines");
    }

    #[test]
    fn chain_keys_scan_in_tsid_order_under_node_prefix() {
        let keys: Vec<[u8; 12]> = [0u32, 1, 7, 300]
            .iter()
            .map(|&t| chain_key(42, t))
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "tsid order must match byte order");
        }
        for k in &keys {
            assert!(k.starts_with(&chain_prefix(42)));
        }
        assert!(!chain_key(43, 0).starts_with(&chain_prefix(42)));
        // The key gives the tsid back; a bare node key (which the
        // prefix also matches) or anything longer names no chain row.
        for &t in &[0u32, 1, 7, 300, u32::MAX] {
            assert_eq!(chain_key_tsid(&chain_key(42, t)), Some(t));
        }
        assert!(node_key(42).starts_with(&chain_prefix(42)));
        assert_eq!(chain_key_tsid(&node_key(42)), None);
        assert_eq!(chain_key_tsid(&[0u8; 13]), None);
    }

    #[test]
    fn table_tags_unique() {
        use std::collections::HashSet;
        let tags: HashSet<u8> = [
            Table::Deltas,
            Table::Versions,
            Table::Timespans,
            Table::Graph,
            Table::Micropartitions,
            Table::AttrIndex,
        ]
        .iter()
        .map(|t| t.tag())
        .collect();
        assert_eq!(tags.len(), 6);
    }

    #[test]
    fn term_keys_scan_in_tsid_order_under_term_prefix() {
        let term = b"EntityType\x02Author";
        let keys: Vec<Vec<u8>> = [0u32, 1, 7, 300]
            .iter()
            .map(|&t| term_key(0, term, t))
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "tsid order must match byte order");
        }
        let prefix = term_prefix(0, term);
        for (k, tsid) in keys.iter().zip([0u32, 1, 7, 300]) {
            assert!(k.starts_with(&prefix));
            assert_eq!(k[prefix.len()..], tsid.to_be_bytes());
        }
        // A term that extends another term's bytes must not match its
        // prefix (the length prefix disambiguates).
        assert!(!term_key(0, b"EntityType\x02AuthorX", 0).starts_with(&prefix));
        // Different kinds never share a prefix.
        assert!(!term_key(1, term, 0).starts_with(&prefix));
    }

    #[test]
    fn term_tokens_spread_terms_but_pin_timespans() {
        use std::collections::HashSet;
        let tokens: HashSet<u64> = (0..32u32)
            .map(|i| term_token(0, format!("label{i}").as_bytes()) % 4)
            .collect();
        assert!(tokens.len() >= 3, "terms should spread over machines");
    }
}
