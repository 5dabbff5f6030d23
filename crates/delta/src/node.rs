//! Static graph components: the state of a node (with its edge-list) at
//! one point in time — Definition 1 of the paper.
//!
//! A description is also the unit the component-level operators of
//! [`crate::delta`] work inside: its edge-list entries (keyed
//! `(nbr, dir)`) and attribute pairs (keyed by attribute key) are the
//! components, both held sorted by key, so intersecting, subtracting
//! and merging two descriptions is one lockstep walk of two sorted
//! runs.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::attr::{AttrValue, Attrs};
use crate::types::{EdgeDir, NodeId};

/// One entry of a node's edge-list: a reference to a neighbor, the edge
/// direction relative to the owning node, an edge weight, and optional
/// edge attributes.
///
/// The paper's node-centric model treats edges as attributes of their
/// endpoint nodes; an edge is stored with *both* endpoints so that any
/// single node's state is self-contained (this replication is also what
/// the vertex-centric baseline in Table 1 assumes).
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    /// The other endpoint.
    pub nbr: NodeId,
    /// Direction of the edge relative to the owning node.
    pub dir: EdgeDir,
    /// Edge weight; defaults to 1.0. Used by the locality-aware
    /// partitioner's Ω collapse.
    pub weight: f32,
    /// Edge attributes; boxed so the common attribute-free case costs
    /// one machine word.
    pub attrs: Option<Box<Attrs>>,
}

impl Neighbor {
    /// Unweighted, attribute-free neighbor entry.
    pub fn new(nbr: NodeId, dir: EdgeDir) -> Neighbor {
        Neighbor {
            nbr,
            dir,
            weight: 1.0,
            attrs: None,
        }
    }

    /// Weighted neighbor entry.
    pub fn weighted(nbr: NodeId, dir: EdgeDir, weight: f32) -> Neighbor {
        Neighbor {
            nbr,
            dir,
            weight,
            attrs: None,
        }
    }

    /// Set an edge attribute, allocating the attribute box on first use.
    pub fn set_attr(&mut self, key: impl Into<String>, value: crate::attr::AttrValue) {
        self.attrs
            .get_or_insert_with(Default::default)
            .set(key, value);
    }

    /// Remove an edge attribute.
    pub fn remove_attr(&mut self, key: &str) -> Option<crate::attr::AttrValue> {
        let out = self.attrs.as_mut().and_then(|a| a.remove(key));
        if self.attrs.as_ref().is_some_and(|a| a.is_empty()) {
            self.attrs = None;
        }
        out
    }
}

/// The state of a vertex at a specific time (Definition 1): node-id,
/// edge-list, attributes.
///
/// `PartialEq` is structural over the *sorted* edge-list, which is the
/// component-equality relation used by delta intersection (and hence by
/// the DeltaGraph-style temporal compression in TGI).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StaticNode {
    /// Unique identifier.
    pub id: NodeId,
    /// Edge-list, kept sorted by `(nbr, dir)`.
    pub edges: Vec<Neighbor>,
    /// Node attributes.
    pub attrs: Attrs,
}

impl StaticNode {
    /// A fresh node with no edges or attributes.
    pub fn new(id: NodeId) -> StaticNode {
        StaticNode {
            id,
            edges: Vec::new(),
            attrs: Attrs::new(),
        }
    }

    /// Number of edge-list entries (the node's degree in the stored
    /// representation; for undirected graphs this equals the degree).
    #[inline]
    pub fn degree(&self) -> usize {
        self.edges.len()
    }

    /// Binary-search the edge-list for `(nbr, dir)`.
    fn edge_pos(&self, nbr: NodeId, dir: EdgeDir) -> Result<usize, usize> {
        self.edges
            .binary_search_by(|e| (e.nbr, e.dir).cmp(&(nbr, dir)))
    }

    /// Look up an edge entry toward `nbr` with direction `dir`.
    pub fn edge(&self, nbr: NodeId, dir: EdgeDir) -> Option<&Neighbor> {
        self.edge_pos(nbr, dir).ok().map(|i| &self.edges[i])
    }

    /// Whether any edge (any direction) connects to `nbr`.
    pub fn has_neighbor(&self, nbr: NodeId) -> bool {
        // Partition point = first index with e.nbr > nbr; a match, if
        // any, sits immediately before it.
        let i = self.edges.partition_point(|e| e.nbr <= nbr);
        i > 0 && self.edges[i - 1].nbr == nbr
    }

    /// Insert an edge entry, keeping the list sorted. Returns `false`
    /// if an identical `(nbr, dir)` entry already existed (in which
    /// case it is replaced).
    pub fn insert_edge(&mut self, e: Neighbor) -> bool {
        match self.edge_pos(e.nbr, e.dir) {
            Ok(i) => {
                self.edges[i] = e;
                false
            }
            Err(i) => {
                self.edges.insert(i, e);
                true
            }
        }
    }

    /// Remove *all* entries that reference `nbr`, regardless of
    /// direction; returns how many were removed. Used when a neighbor
    /// node is deleted.
    pub fn remove_all_edges_to(&mut self, nbr: NodeId) -> usize {
        let before = self.edges.len();
        self.edges.retain(|e| e.nbr != nbr);
        before - self.edges.len()
    }

    /// Iterate over neighbor ids of out-going or undirected edges
    /// (i.e. nodes reachable *from* this node).
    pub fn out_neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.edges
            .iter()
            .filter(|e| matches!(e.dir, EdgeDir::Out | EdgeDir::Both))
            .map(|e| e.nbr)
    }

    /// Iterate over all neighbor ids (any direction), deduplicated
    /// thanks to the sort order.
    pub fn all_neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut last: Option<NodeId> = None;
        self.edges.iter().filter_map(move |e| {
            if last == Some(e.nbr) {
                None
            } else {
                last = Some(e.nbr);
                Some(e.nbr)
            }
        })
    }

    /// The components `a` and `b` have in common: the entries and
    /// pairs that are identical (key *and* value) in both. Shares a
    /// description instead of building one whenever it can — the same
    /// `Arc` on both sides, or one side contained in the other — which
    /// also keeps pointer equality alive for the next level of a tree.
    pub(crate) fn common(a: &Arc<StaticNode>, b: &Arc<StaticNode>) -> Arc<StaticNode> {
        if Arc::ptr_eq(a, b) {
            return Arc::clone(a);
        }
        let (mut edges, mut pairs) = (0usize, 0usize);
        walk(&a.edges, &b.edges, edge_key_cmp, |_, held| {
            edges += held as usize
        });
        walk(a.attrs.pairs(), b.attrs.pairs(), pair_key_cmp, |_, held| {
            pairs += held as usize
        });
        let is_all_of = |n: &StaticNode| edges == n.edges.len() && pairs == n.attrs.len();
        if is_all_of(a) {
            Arc::clone(a)
        } else if is_all_of(b) {
            Arc::clone(b)
        } else {
            Arc::new(StaticNode {
                id: a.id,
                edges: select(&a.edges, &b.edges, edge_key_cmp, true),
                attrs: Attrs::from_sorted(select(
                    a.attrs.pairs(),
                    b.attrs.pairs(),
                    pair_key_cmp,
                    true,
                )),
            })
        }
    }

    /// What is left of this description once the components of `held`
    /// — a description **contained** in it — are taken out, or `None`
    /// when that is nothing. Containment makes a section whose count
    /// equals `held`'s empty without looking at it.
    pub(crate) fn residual(&self, held: &StaticNode) -> Option<StaticNode> {
        debug_assert!(
            select(&held.edges, &self.edges, edge_key_cmp, false).is_empty()
                && select(held.attrs.pairs(), self.attrs.pairs(), pair_key_cmp, false).is_empty(),
            "difference needs a contained right-hand side (node {})",
            self.id
        );
        let edges = if self.edges.len() == held.edges.len() {
            Vec::new()
        } else {
            select(&self.edges, &held.edges, edge_key_cmp, false)
        };
        let pairs = if self.attrs.len() == held.attrs.len() {
            Vec::new()
        } else {
            select(self.attrs.pairs(), held.attrs.pairs(), pair_key_cmp, false)
        };
        (!edges.is_empty() || !pairs.is_empty()).then(|| StaticNode {
            id: self.id,
            edges,
            attrs: Attrs::from_sorted(pairs),
        })
    }

    /// This description against `base`, a description of the same node
    /// that need not be contained in it — the signed residual of one
    /// node: the entries and pairs this one holds that `base` does not
    /// hold identically (`None` when that is nothing), and the
    /// positions, in `base`'s edge-list and in its pairs, of those
    /// `base` holds that this one does not. An entry or pair whose
    /// value changed is on both sides.
    pub(crate) fn signed_residual(
        &self,
        base: &StaticNode,
    ) -> (Option<StaticNode>, Vec<u32>, Vec<u32>) {
        let edges = select(&self.edges, &base.edges, edge_key_cmp, false);
        let pairs = select(self.attrs.pairs(), base.attrs.pairs(), pair_key_cmp, false);
        let added = (!edges.is_empty() || !pairs.is_empty()).then(|| StaticNode {
            id: self.id,
            edges,
            attrs: Attrs::from_sorted(pairs),
        });
        (
            added,
            lacking_positions(&base.edges, &self.edges, edge_key_cmp),
            lacking_positions(base.attrs.pairs(), self.attrs.pairs(), pair_key_cmp),
        )
    }

    /// Take out the edge-list entries and the attribute pairs at these
    /// positions, each list strictly rising. Returns `false`, leaving
    /// the description unusable, when a list does not rise or names a
    /// position past the end: a removal of a component the node lacks.
    pub(crate) fn remove_positions(&mut self, edges: &[u32], pairs: &[u32]) -> bool {
        remove_positions(&mut self.edges, edges) && remove_positions(self.attrs.pairs_mut(), pairs)
    }

    /// Merge the entries appended past `sorted_len` — one stored piece
    /// of this node, parsed onto the end of its edge-list — into their
    /// sorted places. Everything that sorts before the whole piece
    /// stays put (all of the list, for a hub meeting new neighbors);
    /// only the tail from there on is (stably) sorted, which for the
    /// two ascending runs it consists of is one merge. Returns `false`
    /// when a `(nbr, dir)` key occurs twice; the list is then
    /// unusable.
    pub(crate) fn settle_appended_edges(&mut self, sorted_len: usize) -> bool {
        let (sorted, piece) = self.edges.split_at(sorted_len.min(self.edges.len()));
        let Some(least) = piece.iter().min_by(|a, b| edge_key_cmp(a, b)) else {
            return true;
        };
        let from = match sorted.last() {
            Some(last) if edge_key_cmp(last, least) == Ordering::Less => sorted_len,
            _ => sorted.partition_point(|e| edge_key_cmp(e, least) == Ordering::Less),
        };
        let Some(tail) = self.edges.get_mut(from..) else {
            return true;
        };
        let ascending = |tail: &[Neighbor]| {
            tail.windows(2)
                .all(|w| matches!(w, [a, b] if edge_key_cmp(a, b) == Ordering::Less))
        };
        ascending(tail) || {
            tail.sort_by(edge_key_cmp);
            ascending(tail)
        }
    }

    /// Approximate serialized footprint in bytes; this is the "size of
    /// a static node description" that the paper's Definition 3 counts.
    pub fn weight_bytes(&self) -> usize {
        let edges: usize = self
            .edges
            .iter()
            .map(|e| 8 + 1 + 4 + e.attrs.as_ref().map_or(0, |a| a.weight_bytes()))
            .sum();
        8 + edges + self.attrs.weight_bytes()
    }
}

fn edge_key_cmp(a: &Neighbor, b: &Neighbor) -> Ordering {
    (a.nbr, a.dir).cmp(&(b.nbr, b.dir))
}

fn pair_key_cmp(a: &(String, AttrValue), b: &(String, AttrValue)) -> Ordering {
    a.0.cmp(&b.0)
}

/// Walk two key-sorted runs in lockstep: `on(x, held)` for every `x`
/// of `a`, `held` saying whether `b` has an identical entry (same key,
/// same value).
fn walk<T: PartialEq>(
    a: &[T],
    mut b: &[T],
    key_cmp: impl Fn(&T, &T) -> Ordering,
    mut on: impl FnMut(&T, bool),
) {
    for x in a {
        while let [y, rest @ ..] = b {
            if key_cmp(y, x) != Ordering::Less {
                break;
            }
            b = rest;
        }
        on(x, b.first().is_some_and(|y| y == x));
    }
}

/// The positions in `a` of the entries `b` does not hold identically.
fn lacking_positions<T: PartialEq>(
    a: &[T],
    b: &[T],
    key_cmp: impl Fn(&T, &T) -> Ordering,
) -> Vec<u32> {
    let mut out = Vec::new();
    let mut at = 0u32;
    walk(a, b, key_cmp, |_, held| {
        if !held {
            out.push(at);
        }
        at += 1;
    });
    out
}

/// Remove the items of `v` at `at`, a strictly rising list of
/// positions in it; `false` when `at` does not rise or runs past `v`.
fn remove_positions<T>(v: &mut Vec<T>, at: &[u32]) -> bool {
    let rises = at.windows(2).all(|w| matches!(w, [a, b] if a < b));
    let in_range = at.last().is_none_or(|&last| (last as usize) < v.len());
    if !(rises && in_range) {
        return false;
    }
    let mut next = at.iter().peekable();
    let mut pos = 0u32;
    v.retain(|_| {
        let removed = next.next_if_eq(&&pos).is_some();
        pos += 1;
        !removed
    });
    true
}

/// The entries of `a` that `b` holds identically (`want_held`) or does
/// not (`!want_held`), in order.
fn select<T: PartialEq + Clone>(
    a: &[T],
    b: &[T],
    key_cmp: impl Fn(&T, &T) -> Ordering,
    want_held: bool,
) -> Vec<T> {
    let mut out = Vec::new();
    walk(a, b, key_cmp, |x, held| {
        if held == want_held {
            out.push(x.clone());
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_edges_keeps_sorted() {
        let mut n = StaticNode::new(1);
        assert!(n.insert_edge(Neighbor::new(5, EdgeDir::Both)));
        assert!(n.insert_edge(Neighbor::new(2, EdgeDir::Both)));
        assert!(n.insert_edge(Neighbor::new(9, EdgeDir::Out)));
        let ids: Vec<NodeId> = n.edges.iter().map(|e| e.nbr).collect();
        assert_eq!(ids, vec![2, 5, 9]);
        assert_eq!(n.remove_all_edges_to(5), 1);
        assert_eq!(n.remove_all_edges_to(5), 0);
        assert_eq!(n.degree(), 2);
    }

    #[test]
    fn duplicate_insert_replaces() {
        let mut n = StaticNode::new(1);
        n.insert_edge(Neighbor::weighted(2, EdgeDir::Both, 1.0));
        assert!(!n.insert_edge(Neighbor::weighted(2, EdgeDir::Both, 3.0)));
        assert_eq!(n.degree(), 1);
        assert_eq!(n.edge(2, EdgeDir::Both).unwrap().weight, 3.0);
    }

    #[test]
    fn has_neighbor_any_direction() {
        let mut n = StaticNode::new(1);
        n.insert_edge(Neighbor::new(4, EdgeDir::In));
        assert!(n.has_neighbor(4));
        assert!(!n.has_neighbor(5));
    }

    #[test]
    fn remove_all_edges_to_neighbor() {
        let mut n = StaticNode::new(1);
        n.insert_edge(Neighbor::new(4, EdgeDir::In));
        n.insert_edge(Neighbor::new(4, EdgeDir::Out));
        n.insert_edge(Neighbor::new(6, EdgeDir::Both));
        assert_eq!(n.remove_all_edges_to(4), 2);
        assert_eq!(n.degree(), 1);
    }

    #[test]
    fn out_neighbors_excludes_in_edges() {
        let mut n = StaticNode::new(1);
        n.insert_edge(Neighbor::new(2, EdgeDir::In));
        n.insert_edge(Neighbor::new(3, EdgeDir::Out));
        n.insert_edge(Neighbor::new(4, EdgeDir::Both));
        let out: Vec<NodeId> = n.out_neighbors().collect();
        assert_eq!(out, vec![3, 4]);
    }

    #[test]
    fn all_neighbors_dedups() {
        let mut n = StaticNode::new(1);
        n.insert_edge(Neighbor::new(2, EdgeDir::In));
        n.insert_edge(Neighbor::new(2, EdgeDir::Out));
        n.insert_edge(Neighbor::new(3, EdgeDir::Both));
        let all: Vec<NodeId> = n.all_neighbors().collect();
        assert_eq!(all, vec![2, 3]);
    }

    #[test]
    fn edge_attrs_lazily_boxed() {
        let mut e = Neighbor::new(2, EdgeDir::Both);
        assert!(e.attrs.is_none());
        e.set_attr("type", "friend".into());
        let attrs = e.attrs.as_deref().expect("boxed on first set");
        assert_eq!(attrs.get("type").and_then(|v| v.as_text()), Some("friend"));
        e.remove_attr("type");
        assert!(e.attrs.is_none(), "empty attr box should be dropped");
    }

    #[test]
    fn structural_equality() {
        let mut a = StaticNode::new(1);
        a.insert_edge(Neighbor::new(2, EdgeDir::Both));
        let mut b = StaticNode::new(1);
        b.insert_edge(Neighbor::new(2, EdgeDir::Both));
        assert_eq!(a, b);
        b.attrs.set("x", AttrsVal(1));
        assert_ne!(a, b);
    }

    // small helper to keep the test above terse
    #[allow(non_snake_case)]
    fn AttrsVal(v: i64) -> crate::attr::AttrValue {
        crate::attr::AttrValue::Int(v)
    }
}
