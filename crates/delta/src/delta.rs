//! The Δ algebra — Definitions 2–5 and Examples 4–5 of the paper.
//!
//! A [`Delta`] is a set of static graph **components**, held grouped by
//! node: a [`StaticNode`] description is the bundle of one node's
//! components — the bare existence of its id, one component per
//! edge-list entry (keyed `(nbr, dir)`, valued by its weight and edge
//! attributes) and one per node-attribute pair (keyed by attribute
//! key). The algebra has operators at two granularities, and both are
//! needed:
//!
//! * **Node-level** — **sum** (`+`, [`Delta::sum_assign`]): id-wise,
//!   right-biased overwrite, `∆1 + ∆2` keeps `∆2`'s *whole description*
//!   for every id in both. Non-commutative, associative, `∆ + ∅ = ∆`.
//!   **union** ([`Delta::union`]) is its left-biased twin. These
//!   combine deltas whose node sets are disjoint (the per-`sid` /
//!   per-`pid` partitions of one snapshot) or whose right side is known
//!   to be path-complete (a cached checkpoint state), where replacing a
//!   description wholesale is both correct and a pointer copy.
//! * **Component-level** — **intersection**
//!   ([`Delta::intersection`]): the nodes present on both sides, each
//!   holding exactly the entries and pairs that are *identical* on both
//!   sides; **difference** ([`Delta::difference`]): what is left of
//!   `self` once the components of a contained delta are taken out.
//!   These are the temporal-compression operators of DeltaGraph/TGI: a
//!   tree parent is the intersection of its children and each child is
//!   stored as `child − parent`, so a hub that gains one edge between
//!   two checkpoints costs one edge-list entry in the child, not its
//!   whole edge-list again. Their inverse is the component-wise *path
//!   sum* — a union of pieces in which no component may repeat —
//!   implemented straight on the stored bytes by
//!   [`ColumnarDelta::sum_into`](crate::columnar::ColumnarDelta::sum_into).
//!
//! The key reconstruction identity used throughout TGI, which follows
//! from these definitions and is property-tested in this crate:
//!
//! ```text
//! child = path-sum(parent, child − parent)   where parent = ∩ children
//! ```
//!
//! A *snapshot* (Example 4) is the delta of the graph state from the
//! empty graph; [`Delta`] therefore doubles as HGS's in-memory graph
//! state representation, with [`Delta::apply_event`] implementing the
//! event semantics.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use crate::event::{Event, EventKind};
use crate::hash::FxHashMap;
use crate::node::{Neighbor, StaticNode};
use crate::types::{EdgeDir, NodeId};

/// A set of static node descriptions, keyed by node-id.
///
/// Node descriptions are stored behind [`Arc`]s with copy-on-write
/// mutation: cloning a delta, summing one into another
/// ([`Delta::sum_assign`]) and the TGI planner's clone-at-divergence
/// materialization all share descriptions by reference count, and a
/// description is deep-copied only when a mutation actually touches it
/// ([`Arc::make_mut`]). The public API is value-oriented throughout —
/// the sharing is invisible except as speed.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    nodes: FxHashMap<NodeId, Arc<StaticNode>>,
}

impl PartialEq for Delta {
    fn eq(&self, other: &Delta) -> bool {
        self.nodes.len() == other.nodes.len()
            && self.nodes.iter().all(|(id, n)| {
                other
                    .nodes
                    .get(id)
                    .is_some_and(|m| Arc::ptr_eq(n, m) || n == m)
            })
    }
}

/// Unwrap a node out of its `Arc`, cloning only if it is shared.
fn unwrap_node(node: Arc<StaticNode>) -> StaticNode {
    Arc::try_unwrap(node).unwrap_or_else(|shared| (*shared).clone())
}

impl Delta {
    /// The empty delta (`∅`).
    pub fn new() -> Delta {
        Delta {
            nodes: FxHashMap::default(),
        }
    }

    /// Pre-sized empty delta.
    pub fn with_capacity(n: usize) -> Delta {
        let mut nodes = FxHashMap::default();
        nodes.reserve(n);
        Delta { nodes }
    }

    /// Make room for `n` more node descriptions.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.nodes.reserve(n);
    }

    /// Number of node descriptions — the paper's *cardinality* is the
    /// unique component count.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.nodes.len()
    }

    /// The paper's *size*: total number of static node or edge
    /// descriptions contained (each node counts 1 plus one per
    /// edge-list entry).
    pub fn size(&self) -> usize {
        self.nodes.values().map(|n| 1 + n.edges.len()).sum()
    }

    /// Approximate serialized footprint in bytes.
    pub fn weight_bytes(&self) -> usize {
        self.nodes.values().map(|n| n.weight_bytes()).sum()
    }

    /// True when no components are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Look up a node description.
    #[inline]
    pub fn node(&self, id: NodeId) -> Option<&StaticNode> {
        self.nodes.get(&id).map(|n| n.as_ref())
    }

    /// Mutable node lookup (copy-on-write: a shared description is
    /// deep-copied here, exactly once).
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut StaticNode> {
        self.nodes.get_mut(&id).map(Arc::make_mut)
    }

    /// The description of `id`, inserted bare when absent, for writing
    /// (copy-on-write, as [`Delta::node_mut`]).
    #[inline]
    pub fn node_or_insert(&mut self, id: NodeId) -> &mut StaticNode {
        Arc::make_mut(
            self.nodes
                .entry(id)
                .or_insert_with(|| Arc::new(StaticNode::new(id))),
        )
    }

    /// Whether a node description for `id` is present.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Insert (or replace) a node description.
    pub fn insert(&mut self, node: StaticNode) -> Option<StaticNode> {
        self.nodes.insert(node.id, Arc::new(node)).map(unwrap_node)
    }

    /// Insert (or replace) a description that is already shared.
    pub(crate) fn insert_shared(&mut self, node: Arc<StaticNode>) {
        self.nodes.insert(node.id, node);
    }

    /// The map slot of `id`, vacant or occupied, in one hash probe —
    /// the path sum's per-record step
    /// ([`ColumnarDelta::sum_into`](crate::columnar::ColumnarDelta::sum_into)).
    pub(crate) fn slot(&mut self, id: NodeId) -> Entry<'_, NodeId, Arc<StaticNode>> {
        self.nodes.entry(id)
    }

    /// Remove a node description.
    pub fn remove(&mut self, id: NodeId) -> Option<StaticNode> {
        self.nodes.remove(&id).map(unwrap_node)
    }

    /// Iterate over node descriptions (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &StaticNode> {
        self.nodes.values().map(|n| n.as_ref())
    }

    /// Iterate over node ids (arbitrary order).
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// Node ids in sorted order (deterministic walks for tests and
    /// partitioning).
    pub fn sorted_ids(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.nodes.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Node descriptions in sorted-id order: the walk of every
    /// encoder, whose rows spell ids as ascending gaps.
    pub(crate) fn sorted_nodes(&self) -> Vec<&StaticNode> {
        let mut v: Vec<&StaticNode> = self.iter().collect();
        v.sort_unstable_by_key(|n| n.id);
        v
    }

    /// Drain into a plain id-to-description map (shared descriptions
    /// are deep-copied out of their `Arc`s).
    pub fn into_nodes(self) -> FxHashMap<NodeId, StaticNode> {
        self.nodes
            .into_iter()
            .map(|(id, n)| (id, unwrap_node(n)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Algebra (Definitions 4 & 5)
    // ------------------------------------------------------------------

    /// `self ← self + other` (Definition 4): for ids in both, `other`'s
    /// description wins; ids present in only one side are kept.
    /// Descriptions are shared by reference count, not deep-copied.
    pub fn sum_assign(&mut self, other: &Delta) {
        self.nodes.reserve(other.nodes.len());
        for (id, n) in &other.nodes {
            self.nodes.insert(*id, Arc::clone(n));
        }
    }

    /// Owned variant of [`Delta::sum_assign`] that avoids cloning the
    /// right-hand side.
    pub fn sum_assign_owned(&mut self, other: Delta) {
        self.nodes.reserve(other.nodes.len());
        for (id, n) in other.nodes {
            self.nodes.insert(id, n);
        }
    }

    /// `self + other` (Definition 4).
    pub fn sum(&self, other: &Delta) -> Delta {
        let mut out = self.clone();
        out.sum_assign(other);
        out
    }

    /// `self − other`, component-wise, for an `other` **contained** in
    /// `self` (every component of `other` is a component of `self` —
    /// what a tree parent is to each of its children): the full
    /// description of a node `other` lacks, else only the entries and
    /// pairs `other`'s description lacks, and no description at all
    /// when that is nothing. `∆ − ∆ = ∅`, `∆ − ∅ = ∆`.
    ///
    /// Containment is what lets an unchanged section be skipped by
    /// comparing counts instead of entries; it is checked in debug
    /// builds only.
    pub fn difference(&self, other: &Delta) -> Delta {
        let mut out = Delta::new();
        for (id, n) in &self.nodes {
            match other.nodes.get(id) {
                None => {
                    out.nodes.insert(*id, Arc::clone(n));
                }
                Some(m) if Arc::ptr_eq(n, m) => {}
                Some(m) => {
                    if let Some(rest) = n.residual(m) {
                        out.nodes.insert(*id, Arc::new(rest));
                    }
                }
            }
        }
        out
    }

    /// Components present and identical in both (Definition 5): the
    /// nodes both sides hold, each with exactly the edge-list entries
    /// and attribute pairs that are equal on both sides (possibly
    /// none — the node's existence is itself a component).
    /// Commutative by value. Descriptions are shared, not rebuilt,
    /// whenever one side's is contained in the other's — the growth
    /// case that nearly every node of consecutive checkpoints is.
    pub fn intersection(&self, other: &Delta) -> Delta {
        // Iterate the smaller side.
        let (small, big) = if self.nodes.len() <= other.nodes.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Delta::with_capacity(small.nodes.len());
        for (id, n) in &small.nodes {
            if let Some(m) = big.nodes.get(id) {
                out.nodes.insert(*id, StaticNode::common(n, m));
            }
        }
        out
    }

    /// Intersection over many deltas; the parent construction of the
    /// TGI tree. Returns `∅` for an empty input.
    pub fn intersection_many(deltas: &[&Delta]) -> Delta {
        match deltas {
            [] => Delta::new(),
            [only] => (*only).clone(),
            [first, second, rest @ ..] => {
                let mut acc = first.intersection(second);
                for d in rest {
                    if acc.is_empty() {
                        break;
                    }
                    acc = acc.intersection(d);
                }
                acc
            }
        }
    }

    /// All components from both; on id conflicts with differing values,
    /// `self`'s description is kept (Definition 5 leaves the bias
    /// unspecified; TGI only unions disjoint partitions).
    pub fn union(&self, other: &Delta) -> Delta {
        let mut out = other.clone();
        for (id, n) in &self.nodes {
            out.nodes.insert(*id, Arc::clone(n));
        }
        out
    }

    /// Restrict to node ids selected by the predicate — the paper's
    /// *partitioned snapshot* (Example 5).
    pub fn restrict<F: Fn(NodeId) -> bool>(&self, keep: F) -> Delta {
        let mut out = Delta::new();
        for (id, n) in &self.nodes {
            if keep(*id) {
                out.nodes.insert(*id, Arc::clone(n));
            }
        }
        out
    }

    /// Split into one delta per `key(id)` in a single pass — what
    /// calling [`Delta::restrict`] once per distinct key would give.
    /// Descriptions are shared by reference count, not deep-copied.
    pub fn group_by<K, F>(&self, key: F) -> FxHashMap<K, Delta>
    where
        K: std::hash::Hash + Eq,
        F: Fn(NodeId) -> K,
    {
        let mut groups: FxHashMap<K, Delta> = FxHashMap::default();
        for (id, n) in &self.nodes {
            groups
                .entry(key(*id))
                .or_default()
                .nodes
                .insert(*id, Arc::clone(n));
        }
        groups
    }

    // ------------------------------------------------------------------
    // Event application (graph-state semantics)
    // ------------------------------------------------------------------

    /// Apply one event to this delta viewed as a graph state.
    ///
    /// The semantics are *forgiving* in the way real event traces
    /// require (the paper's Wikipedia trace contains, e.g., edges whose
    /// endpoints were never explicitly added): missing endpoints are
    /// implicitly created, duplicate additions are overwrites, and
    /// removals of absent components are no-ops.
    pub fn apply_event(&mut self, kind: &EventKind) {
        match kind {
            EventKind::AddNode { id } => {
                self.node_or_insert(*id);
            }
            EventKind::RemoveNode { id } => {
                if let Some(node) = self.nodes.remove(id) {
                    // Scrub reverse entries so no dangling edges remain.
                    for nbr in node.all_neighbors() {
                        if let Some(n) = self.nodes.get_mut(&nbr) {
                            Arc::make_mut(n).remove_all_edges_to(*id);
                        }
                    }
                }
            }
            EventKind::AddEdge {
                src,
                dst,
                weight,
                directed,
            } => {
                let (d_src, d_dst) = if *directed {
                    (EdgeDir::Out, EdgeDir::In)
                } else {
                    (EdgeDir::Both, EdgeDir::Both)
                };
                self.node_or_insert(*src)
                    .insert_edge(Neighbor::weighted(*dst, d_src, *weight));
                if src != dst {
                    self.node_or_insert(*dst)
                        .insert_edge(Neighbor::weighted(*src, d_dst, *weight));
                }
            }
            EventKind::RemoveEdge { src, dst } => {
                if let Some(n) = self.nodes.get_mut(src) {
                    Arc::make_mut(n).remove_all_edges_to(*dst);
                }
                if src != dst {
                    if let Some(n) = self.nodes.get_mut(dst) {
                        Arc::make_mut(n).remove_all_edges_to(*src);
                    }
                }
            }
            EventKind::SetEdgeWeight { src, dst, weight } => {
                for (a, b) in [(*src, *dst), (*dst, *src)] {
                    if let Some(n) = self.nodes.get_mut(&a) {
                        if n.edges.iter().any(|e| e.nbr == b) {
                            for e in Arc::make_mut(n).edges.iter_mut().filter(|e| e.nbr == b) {
                                e.weight = *weight;
                            }
                        }
                    }
                    if src == dst {
                        break;
                    }
                }
            }
            EventKind::SetNodeAttr { id, key, value } => {
                self.node_or_insert(*id)
                    .attrs
                    .set(key.clone(), value.clone());
            }
            EventKind::RemoveNodeAttr { id, key } => {
                if let Some(n) = self
                    .nodes
                    .get_mut(id)
                    .filter(|n| n.attrs.get(key).is_some())
                {
                    Arc::make_mut(n).attrs.remove(key);
                }
            }
            EventKind::SetEdgeAttr {
                src,
                dst,
                key,
                value,
            } => {
                for (a, b) in [(*src, *dst), (*dst, *src)] {
                    if let Some(n) = self.nodes.get_mut(&a) {
                        if n.edges.iter().any(|e| e.nbr == b) {
                            for e in Arc::make_mut(n).edges.iter_mut().filter(|e| e.nbr == b) {
                                e.set_attr(key.clone(), value.clone());
                            }
                        }
                    }
                    if src == dst {
                        break;
                    }
                }
            }
            EventKind::RemoveEdgeAttr { src, dst, key } => {
                for (a, b) in [(*src, *dst), (*dst, *src)] {
                    if let Some(n) = self.nodes.get_mut(&a) {
                        if n.edges.iter().any(|e| e.nbr == b && e.attrs.is_some()) {
                            for e in Arc::make_mut(n).edges.iter_mut().filter(|e| e.nbr == b) {
                                e.remove_attr(key);
                            }
                        }
                    }
                    if src == dst {
                        break;
                    }
                }
            }
        }
    }

    /// Apply a run of events in order.
    pub fn apply_events<'a, I: IntoIterator<Item = &'a Event>>(&mut self, events: I) {
        for e in events {
            self.apply_event(&e.kind);
        }
    }

    /// Replay a full event history into a snapshot at time `t`
    /// (events with `time <= t` are applied). This is the reference
    /// implementation every index in this repo is validated against.
    pub fn snapshot_by_replay(events: &[Event], t: crate::types::Time) -> Delta {
        let mut d = Delta::new();
        for e in events {
            if e.time > t {
                break;
            }
            d.apply_event(&e.kind);
        }
        d
    }

    /// Total number of edges in this delta viewed as a graph state
    /// (each undirected/directed edge counted once).
    pub fn edge_count(&self) -> usize {
        let twice: usize = self
            .nodes
            .values()
            .map(|n| {
                n.edges
                    .iter()
                    .filter(|e| e.nbr != n.id) // self loops handled below
                    .count()
                    + 2 * n.edges.iter().filter(|e| e.nbr == n.id).count()
            })
            .sum();
        twice / 2
    }
}

impl FromIterator<StaticNode> for Delta {
    fn from_iter<I: IntoIterator<Item = StaticNode>>(iter: I) -> Delta {
        let mut d = Delta::new();
        for n in iter {
            d.insert(n);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrValue;

    fn node_with_edge(id: NodeId, nbr: NodeId) -> StaticNode {
        let mut n = StaticNode::new(id);
        n.insert_edge(Neighbor::new(nbr, EdgeDir::Both));
        n
    }

    #[test]
    fn sum_right_bias_and_identity() {
        let mut d1: Delta = vec![node_with_edge(1, 2), StaticNode::new(3)]
            .into_iter()
            .collect();
        let d2: Delta = vec![node_with_edge(1, 9)].into_iter().collect();
        d1.sum_assign(&d2);
        assert_eq!(d1.node(1).unwrap().edges[0].nbr, 9, "right side wins");
        assert!(d1.contains(3));
        // identity
        let d = d1.clone();
        d1.sum_assign(&Delta::new());
        assert_eq!(d1, d);
    }

    #[test]
    fn sum_is_associative() {
        let a: Delta = vec![node_with_edge(1, 2)].into_iter().collect();
        let b: Delta = vec![node_with_edge(1, 3), StaticNode::new(2)]
            .into_iter()
            .collect();
        let c: Delta = vec![StaticNode::new(1)].into_iter().collect();
        let left = a.sum(&b).sum(&c);
        let right = a.sum(&b.sum(&c));
        assert_eq!(left, right);
    }

    #[test]
    fn difference_laws() {
        let d: Delta = vec![node_with_edge(1, 2), StaticNode::new(3)]
            .into_iter()
            .collect();
        assert!(d.difference(&d).is_empty(), "∆ − ∆ = ∅");
        assert_eq!(d.difference(&Delta::new()), d, "∆ − ∅ = ∆");
    }

    #[test]
    fn intersection_keeps_identical_components() {
        let a: Delta = vec![node_with_edge(1, 2), StaticNode::new(3)]
            .into_iter()
            .collect();
        let mut both = node_with_edge(3, 7);
        both.insert_edge(Neighbor::new(8, EdgeDir::Both));
        let mut reweighted = node_with_edge(1, 2);
        reweighted.insert_edge(Neighbor::weighted(4, EdgeDir::Both, 2.0));
        let b: Delta = vec![reweighted.clone(), both].into_iter().collect();
        let i = a.intersection(&b);
        assert_eq!(i.node(1), a.node(1), "the common entry is kept");
        assert_eq!(
            i.node(3),
            Some(&StaticNode::new(3)),
            "a node with nothing in common still exists in both"
        );
        // Same key, different weight: not a common component.
        let mut c = node_with_edge(1, 2);
        c.insert_edge(Neighbor::weighted(4, EdgeDir::Both, 3.0));
        let c: Delta = vec![c].into_iter().collect();
        assert_eq!(b.intersection(&c).node(1), a.node(1));
        assert!(a.intersection(&Delta::new()).is_empty(), "∆ ∩ ∅ = ∅");
    }

    #[test]
    fn intersection_shares_a_contained_description() {
        let small = Arc::new(node_with_edge(1, 2));
        let mut grown = (*small).clone();
        grown.insert_edge(Neighbor::new(5, EdgeDir::Both));
        let grown = Arc::new(grown);
        assert!(Arc::ptr_eq(&StaticNode::common(&small, &grown), &small));
        assert!(Arc::ptr_eq(&StaticNode::common(&grown, &small), &small));
    }

    #[test]
    fn difference_keeps_only_what_the_parent_lacks() {
        let mut hub = node_with_edge(1, 2);
        hub.attrs.set("label", AttrValue::Int(1));
        let parent: Delta = vec![hub.clone(), StaticNode::new(3)].into_iter().collect();
        hub.insert_edge(Neighbor::new(9, EdgeDir::Both));
        let child: Delta = vec![hub, StaticNode::new(3), node_with_edge(4, 1)]
            .into_iter()
            .collect();
        let rest = child.difference(&parent);
        assert_eq!(rest.node(1), Some(&node_with_edge(1, 9)), "one entry");
        assert!(!rest.contains(3), "nothing left: no description at all");
        assert_eq!(rest.node(4), child.node(4), "a new node in full");
    }

    #[test]
    fn reconstruction_identity() {
        // child = path-sum(parent, child − parent) for parent = ∩ children.
        let c1: Delta = vec![
            node_with_edge(1, 2),
            node_with_edge(2, 1),
            StaticNode::new(5),
        ]
        .into_iter()
        .collect();
        let mut c2 = c1.clone();
        c2.apply_event(&EventKind::AddEdge {
            src: 5,
            dst: 1,
            weight: 1.0,
            directed: false,
        });
        let parent = c1.intersection(&c2);
        assert_eq!(parent, c1, "growth: the earlier child is the parent");
        for child in [&c1, &c2] {
            let mut rebuilt = Delta::new();
            for piece in [&parent, &child.difference(&parent)] {
                crate::ColumnarDelta::parse(crate::columnar::encode_columnar_delta(piece))
                    .unwrap()
                    .sum_into(&mut rebuilt, None)
                    .unwrap();
            }
            assert_eq!(&rebuilt, child);
        }
    }

    #[test]
    fn union_keeps_both() {
        let a: Delta = vec![StaticNode::new(1)].into_iter().collect();
        let b: Delta = vec![StaticNode::new(2)].into_iter().collect();
        let u = a.union(&b);
        assert!(u.contains(1) && u.contains(2));
        assert_eq!(a.union(&Delta::new()), a, "∆ ∪ ∅ = ∆");
    }

    #[test]
    fn cardinality_and_size() {
        let d: Delta = vec![node_with_edge(1, 2), node_with_edge(2, 1)]
            .into_iter()
            .collect();
        assert_eq!(d.cardinality(), 2);
        assert_eq!(d.size(), 4, "2 nodes + 2 edge entries");
    }

    #[test]
    fn apply_add_edge_creates_both_entries() {
        let mut d = Delta::new();
        d.apply_event(&EventKind::AddNode { id: 1 });
        d.apply_event(&EventKind::AddNode { id: 2 });
        d.apply_event(&EventKind::AddEdge {
            src: 1,
            dst: 2,
            weight: 2.0,
            directed: false,
        });
        assert!(d.node(1).unwrap().has_neighbor(2));
        assert!(d.node(2).unwrap().has_neighbor(1));
        assert_eq!(d.edge_count(), 1);
    }

    #[test]
    fn apply_directed_edge_sets_directions() {
        let mut d = Delta::new();
        d.apply_event(&EventKind::AddEdge {
            src: 1,
            dst: 2,
            weight: 1.0,
            directed: true,
        });
        assert_eq!(d.node(1).unwrap().edges[0].dir, EdgeDir::Out);
        assert_eq!(d.node(2).unwrap().edges[0].dir, EdgeDir::In);
    }

    #[test]
    fn remove_node_scrubs_reverse_edges() {
        let mut d = Delta::new();
        d.apply_event(&EventKind::AddEdge {
            src: 1,
            dst: 2,
            weight: 1.0,
            directed: false,
        });
        d.apply_event(&EventKind::RemoveNode { id: 2 });
        assert!(!d.contains(2));
        assert_eq!(d.node(1).unwrap().degree(), 0, "dangling edge scrubbed");
    }

    #[test]
    fn self_loop_single_entry() {
        let mut d = Delta::new();
        d.apply_event(&EventKind::AddEdge {
            src: 3,
            dst: 3,
            weight: 1.0,
            directed: false,
        });
        assert_eq!(d.node(3).unwrap().degree(), 1);
        assert_eq!(d.edge_count(), 1);
        d.apply_event(&EventKind::RemoveEdge { src: 3, dst: 3 });
        assert_eq!(d.node(3).unwrap().degree(), 0);
    }

    #[test]
    fn attr_events() {
        let mut d = Delta::new();
        d.apply_event(&EventKind::AddNode { id: 1 });
        d.apply_event(&EventKind::SetNodeAttr {
            id: 1,
            key: "label".into(),
            value: AttrValue::Text("Author".into()),
        });
        assert_eq!(
            d.node(1)
                .unwrap()
                .attrs
                .get("label")
                .and_then(|v| v.as_text()),
            Some("Author")
        );
        d.apply_event(&EventKind::RemoveNodeAttr {
            id: 1,
            key: "label".into(),
        });
        assert!(d.node(1).unwrap().attrs.is_empty());
    }

    #[test]
    fn edge_attr_events_touch_both_entries() {
        let mut d = Delta::new();
        d.apply_event(&EventKind::AddEdge {
            src: 1,
            dst: 2,
            weight: 1.0,
            directed: false,
        });
        d.apply_event(&EventKind::SetEdgeAttr {
            src: 1,
            dst: 2,
            key: "kind".into(),
            value: AttrValue::Text("cites".into()),
        });
        for (a, b) in [(1, 2), (2, 1)] {
            let n = d.node(a).unwrap();
            let e = n.edges.iter().find(|e| e.nbr == b).unwrap();
            assert_eq!(e.attr("kind").and_then(|v| v.as_text()), Some("cites"));
        }
    }

    #[test]
    fn forgiving_mode_creates_endpoints() {
        let mut d = Delta::new();
        d.apply_event(&EventKind::AddEdge {
            src: 8,
            dst: 9,
            weight: 1.0,
            directed: false,
        });
        assert!(d.contains(8) && d.contains(9));
    }

    #[test]
    fn snapshot_by_replay_respects_time() {
        let events = vec![
            Event::new(1, EventKind::AddNode { id: 1 }),
            Event::new(5, EventKind::AddNode { id: 2 }),
        ];
        let s = Delta::snapshot_by_replay(&events, 3);
        assert!(s.contains(1) && !s.contains(2));
    }

    #[test]
    fn restrict_is_partitioned_snapshot() {
        let d: Delta = (0..10).map(StaticNode::new).collect();
        let p = d.restrict(|id| id % 2 == 0);
        assert_eq!(p.cardinality(), 5);
    }

    #[test]
    fn group_by_equals_restrict_per_key() {
        let d: Delta = (0..10).map(StaticNode::new).collect();
        let groups = d.group_by(|id| id % 3);
        assert_eq!(groups.len(), 3);
        for (k, g) in &groups {
            assert_eq!(g, &d.restrict(|id| id % 3 == *k));
        }
    }

    #[test]
    fn set_edge_weight_updates_both_sides() {
        let mut d = Delta::new();
        d.apply_event(&EventKind::AddEdge {
            src: 1,
            dst: 2,
            weight: 1.0,
            directed: false,
        });
        d.apply_event(&EventKind::SetEdgeWeight {
            src: 2,
            dst: 1,
            weight: 7.5,
        });
        assert_eq!(d.node(1).unwrap().edges[0].weight, 7.5);
        assert_eq!(d.node(2).unwrap().edges[0].weight, 7.5);
    }
}
