//! Fundamental scalar types of the temporal graph model.

/// Unique identifier of a vertex. The paper's Definition 1 uses an
/// integer identifier; we use `u64` throughout.
pub type NodeId = u64;

/// A discrete timepoint. The paper works under "a discreet notion of
/// time": the history of the graph is a sequence of events at integer
/// timepoints. `Time` is also used as an event sequence number by the
/// generators (each event gets a distinct, monotonically non-decreasing
/// timestamp).
pub type Time = u64;

/// Direction of an edge relative to the node whose edge-list carries it.
///
/// The node-centric model stores each edge with both endpoints, so a
/// directed edge `u -> v` appears as `Out` in `u`'s list and `In` in
/// `v`'s list. Undirected edges appear as `Both` in both lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeDir {
    /// Edge leaves this node (this node is the source).
    Out,
    /// Edge enters this node (this node is the destination).
    In,
    /// Undirected edge.
    Both,
}

impl EdgeDir {
    /// Compact wire tag used by the binary codec.
    #[inline]
    pub fn tag(self) -> u8 {
        match self {
            EdgeDir::Out => 0,
            EdgeDir::In => 1,
            EdgeDir::Both => 2,
        }
    }

    /// Inverse of [`EdgeDir::tag`].
    #[inline]
    pub(crate) fn from_tag(t: u8) -> Option<EdgeDir> {
        match t {
            0 => Some(EdgeDir::Out),
            1 => Some(EdgeDir::In),
            2 => Some(EdgeDir::Both),
            _ => None,
        }
    }
}

/// A half-open time interval `[start, end)`.
///
/// All interval semantics in HGS are half-open: an event at time `t`
/// is *included* in a query over `[t, t')` and excluded from `[t'', t)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeRange {
    pub start: Time,
    pub end: Time,
}

impl TimeRange {
    /// Create `[start, end)`. `start <= end` is required.
    #[inline]
    pub fn new(start: Time, end: Time) -> TimeRange {
        assert!(start <= end, "TimeRange requires start <= end");
        TimeRange { start, end }
    }

    /// The full history `[0, Time::MAX)`.
    #[inline]
    pub fn all() -> TimeRange {
        TimeRange {
            start: 0,
            end: Time::MAX,
        }
    }

    /// Whether `t` lies in `[start, end)`.
    #[inline]
    pub fn contains(&self, t: Time) -> bool {
        t >= self.start && t < self.end
    }

    /// Length of the range.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the range is empty (`start == end`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_dir_tag_roundtrip() {
        for d in [EdgeDir::Out, EdgeDir::In, EdgeDir::Both] {
            assert_eq!(EdgeDir::from_tag(d.tag()), Some(d));
        }
        assert_eq!(EdgeDir::from_tag(7), None);
    }

    #[test]
    fn range_contains_half_open() {
        let r = TimeRange::new(5, 10);
        assert!(!r.contains(4));
        assert!(r.contains(5));
        assert!(r.contains(9));
        assert!(!r.contains(10));
    }

    #[test]
    #[should_panic]
    fn range_rejects_inverted_bounds() {
        let _ = TimeRange::new(10, 5);
    }
}
