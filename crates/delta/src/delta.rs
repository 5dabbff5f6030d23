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
//!   It combines deltas whose node sets are disjoint (the per-`sid` /
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
//! * **Signed residual** ([`Delta::residual_against`]): `r ⊖ b` for
//!   any `b`, contained in `r` or not — what `r` holds that `b` does
//!   not hold identically, and what `b` holds that `r` does not, named
//!   by position in `b`'s records. An intersection-tree root is stored
//!   this way against an earlier span's root, and summed back removals
//!   first: `b ⊕ (r ⊖ b) = r`, `r ⊖ r = ∅`.
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
//! state representation, with [`Delta::apply_event_in`] implementing the
//! event semantics.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use crate::error::CodecError;
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
        Arc::make_mut(self.shared_or_insert(id))
    }

    /// The shared description of `id`, inserted bare when absent.
    fn shared_or_insert(&mut self, id: NodeId) -> &mut Arc<StaticNode> {
        self.nodes
            .entry(id)
            .or_insert_with(|| Arc::new(StaticNode::new(id)))
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

    /// The **signed residual** `self ⊖ base` for any `base`, contained
    /// in `self` or not — what an intersection-tree root is stored as
    /// against an earlier span's root: the components `self` holds
    /// that `base` does not hold identically ([`Residual::added`], in
    /// [`Delta::difference`]'s form), and what `base` holds that `self`
    /// does not ([`Residual::removed`]), named by position in `base`'s
    /// records. A component whose value changed is on both sides (an
    /// override is a removal plus an addition). `r ⊖ r = ∅` and
    /// `r ⊖ ∅` is `r` with nothing removed. Its inverse is the sum of
    /// the stored row ([`encode_columnar_residual_in`], then
    /// [`ColumnarDelta::sum_into`]), removals first: `b ⊕ (r ⊖ b) = r`.
    ///
    /// [`encode_columnar_residual_in`]: crate::columnar::encode_columnar_residual_in
    /// [`ColumnarDelta::sum_into`]: crate::columnar::ColumnarDelta::sum_into
    pub fn residual_against(&self, base: &Delta) -> Residual {
        let mut added = Delta::new();
        let mut removed = Vec::new();
        for (id, n) in &self.nodes {
            match base.nodes.get(id) {
                None => {
                    added.nodes.insert(*id, Arc::clone(n));
                }
                Some(b) if Arc::ptr_eq(n, b) => {}
                Some(b) => {
                    let (piece, edges, pairs) = n.signed_residual(b);
                    if let Some(piece) = piece {
                        added.nodes.insert(*id, Arc::new(piece));
                    }
                    if !edges.is_empty() || !pairs.is_empty() {
                        removed.push((*id, Removal::Parts { edges, pairs }));
                    }
                }
            }
        }
        removed.extend(
            base.ids()
                .filter(|id| !self.nodes.contains_key(id))
                .map(|id| (id, Removal::Node)),
        );
        removed.sort_unstable_by_key(|&(id, _)| id);
        Residual { added, removed }
    }

    /// Take what `removal` names out of node `id`'s description — the
    /// removal step of a residual row's sum
    /// ([`ColumnarDelta::sum_into`](crate::columnar::ColumnarDelta::sum_into)).
    /// Returns the description left, if any; a removal of a node or a
    /// position the delta lacks is [`CodecError::BadRef`].
    pub(crate) fn remove_part(
        &mut self,
        id: NodeId,
        removal: &Removal,
    ) -> Result<Option<&Arc<StaticNode>>, CodecError> {
        let absent = CodecError::BadRef {
            what: "removed component",
            id,
        };
        match removal {
            Removal::Node => self.nodes.remove(&id).map(|_| None).ok_or(absent),
            Removal::Parts { edges, pairs } => {
                let node = self.nodes.get_mut(&id).ok_or(absent.clone())?;
                if Arc::make_mut(node).remove_positions(edges, pairs) {
                    Ok(Some(node))
                } else {
                    Err(absent)
                }
            }
        }
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

    /// Apply one event to this delta viewed as a graph state: the
    /// everyone-in-scope case of [`Delta::apply_event_in`].
    pub fn apply_event(&mut self, kind: &EventKind) {
        self.apply_event_in(kind, |_| true);
    }

    /// Apply one event to this delta viewed as a graph state, touching
    /// only the descriptions whose id satisfies `in_scope`. This is the
    /// one routine that gives events their meaning.
    ///
    /// The semantics are *forgiving* in the way real event traces
    /// require (the paper's Wikipedia trace contains, e.g., edges whose
    /// endpoints were never explicitly added): missing endpoints are
    /// implicitly created, duplicate additions are overwrites, and
    /// removals of absent components are no-ops. An event that changes
    /// nothing copies no shared description, but for an `AddEdge` of
    /// an entry already held: it rewrites the entry, because checking
    /// first slowed a scoped replay of `wiki100k` by ~10 % (2 cores).
    ///
    /// Scopes keep TGI's partitioned snapshots (Example 5): each
    /// horizontal partition replays the span's events restricted to its
    /// own node set, and the union of the partitions' states is the
    /// full graph state. An out-of-scope endpoint is neither created
    /// nor modified, so an edge between two partitions updates each
    /// endpoint in its own partition only. A `RemoveNode` scrubs the
    /// edges of in-scope holders only: an out-of-scope holder belongs
    /// to another partition, whose own eventlist piece carries the
    /// normalized `RemoveEdge` copies. Scrubbing it here would make
    /// replays of several pieces into one shared state depend on piece
    /// order — a later piece's `RemoveNode` must not undo an earlier
    /// piece's re-added edge.
    pub fn apply_event_in(&mut self, kind: &EventKind, in_scope: impl Fn(NodeId) -> bool) {
        match kind {
            EventKind::AddNode { id } => {
                if in_scope(*id) {
                    self.shared_or_insert(*id);
                }
            }
            EventKind::RemoveNode { id } if in_scope(*id) => {
                if let Some(node) = self.nodes.remove(id) {
                    let holds = |n: &StaticNode| n.has_neighbor(*id);
                    for nbr in node.all_neighbors().filter(|&nbr| in_scope(nbr)) {
                        self.edit_present(nbr, holds, |n| n.remove_all_edges_to(*id));
                    }
                }
            }
            EventKind::RemoveNode { id } => {
                // Another partition's node: in-scope holders still lose
                // their edges to it.
                for n in self.nodes.values_mut() {
                    if in_scope(n.id) && n.has_neighbor(*id) {
                        Arc::make_mut(n).remove_all_edges_to(*id);
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
                if in_scope(*src) {
                    self.node_or_insert(*src)
                        .insert_edge(Neighbor::weighted(*dst, d_src, *weight));
                }
                if src != dst && in_scope(*dst) {
                    self.node_or_insert(*dst)
                        .insert_edge(Neighbor::weighted(*src, d_dst, *weight));
                }
            }
            EventKind::RemoveEdge { src, dst } => {
                for (a, b) in endpoint_pairs(*src, *dst) {
                    if in_scope(a) {
                        self.edit_present(a, |n| n.has_neighbor(b), |n| n.remove_all_edges_to(b));
                    }
                }
            }
            EventKind::SetEdgeWeight { src, dst, weight } => {
                let differs = |e: &Neighbor| e.weight != *weight;
                self.edit_edges(*src, *dst, &in_scope, differs, |e| e.weight = *weight);
            }
            EventKind::SetNodeAttr { id, key, value } => {
                if in_scope(*id) {
                    let n = self.shared_or_insert(*id);
                    if n.attrs.get(key) != Some(value) {
                        Arc::make_mut(n).attrs.set(key.clone(), value.clone());
                    }
                }
            }
            EventKind::RemoveNodeAttr { id, key } => {
                if in_scope(*id) {
                    let held = |n: &StaticNode| n.attrs.get(key).is_some();
                    self.edit_present(*id, held, |n| n.attrs.remove(key));
                }
            }
            EventKind::SetEdgeAttr {
                src,
                dst,
                key,
                value,
            } => {
                let held = |e: &Neighbor| e.attrs.as_ref().and_then(|a| a.get(key)) == Some(value);
                let set = |e: &mut Neighbor| e.set_attr(key.clone(), value.clone());
                self.edit_edges(*src, *dst, &in_scope, |e| !held(e), set);
            }
            EventKind::RemoveEdgeAttr { src, dst, key } => {
                let held = |e: &Neighbor| e.attrs.as_ref().is_some_and(|a| a.get(key).is_some());
                self.edit_edges(*src, *dst, &in_scope, held, |e| e.remove_attr(key));
            }
        }
    }

    /// Run `edit` on `id`'s description when it is present and
    /// `changes` says the edit would change it: a shared description
    /// is copied only then.
    fn edit_present<R>(
        &mut self,
        id: NodeId,
        changes: impl FnOnce(&StaticNode) -> bool,
        edit: impl FnOnce(&mut StaticNode) -> R,
    ) {
        if let Some(n) = self.nodes.get_mut(&id).filter(|n| changes(n)) {
            edit(Arc::make_mut(n));
        }
    }

    /// Run `edit` on every edge-list entry between `src` and `dst` held
    /// by an in-scope endpoint, on each endpoint where `changes` holds
    /// for one of those entries.
    fn edit_edges<R>(
        &mut self,
        src: NodeId,
        dst: NodeId,
        in_scope: &impl Fn(NodeId) -> bool,
        changes: impl Fn(&Neighbor) -> bool,
        edit: impl Fn(&mut Neighbor) -> R,
    ) {
        for (a, b) in endpoint_pairs(src, dst) {
            if in_scope(a) {
                let touched = |n: &StaticNode| n.edges.iter().any(|e| e.nbr == b && changes(e));
                self.edit_present(a, touched, |n| {
                    for e in n.edges.iter_mut().filter(|e| e.nbr == b) {
                        edit(e);
                    }
                });
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

/// What a signed residual takes out of one node of its base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Removal {
    /// The whole node: the base holds it, the residual's delta does
    /// not.
    Node,
    /// The edge-list entries and the attribute pairs at these
    /// positions of the node's base record — both lists strictly
    /// rising, not both empty. Positions, not keys: a removal needs
    /// nothing but the base record, not the pairs it held.
    Parts { edges: Vec<u32>, pairs: Vec<u32> },
}

/// A signed residual `r ⊖ b` ([`Delta::residual_against`]): what its
/// sum adds to and removes from `b` to give `r`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Residual {
    /// The components `r` holds that `b` does not hold identically: a
    /// node `b` lacks in full, else only the entries and pairs `b`'s
    /// record lacks.
    pub added: Delta,
    /// What `b` holds that `r` does not, by node id, ascending.
    pub removed: Vec<(NodeId, Removal)>,
}

impl Residual {
    /// Whether applying the residual changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// The `(endpoint, other end)` pairs an edge event touches: both
/// orders, or one for a self-loop.
fn endpoint_pairs(src: NodeId, dst: NodeId) -> impl Iterator<Item = (NodeId, NodeId)> {
    let second = (src != dst).then_some((dst, src));
    std::iter::once((src, dst)).chain(second)
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
            let kind = e.attrs.as_deref().and_then(|a| a.get("kind"));
            assert_eq!(kind.and_then(|v| v.as_text()), Some("cites"));
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

    fn scoped_union_equals_global(events: &[Event], parts: u64) {
        let mut global = Delta::new();
        let mut scoped: Vec<Delta> = (0..parts).map(|_| Delta::new()).collect();
        for e in events {
            global.apply_event(&e.kind);
            for (p, state) in (0..parts).zip(&mut scoped) {
                state.apply_event_in(&e.kind, |id| id % parts == p);
            }
        }
        let mut union = Delta::new();
        for s in &scoped {
            union.sum_assign(s);
        }
        assert_eq!(union, global);
    }

    #[test]
    fn union_invariant_on_mixed_history() {
        let mk = |t, kind| Event::new(t, kind);
        let events = vec![
            mk(
                1,
                EventKind::AddEdge {
                    src: 1,
                    dst: 2,
                    weight: 1.0,
                    directed: false,
                },
            ),
            mk(
                2,
                EventKind::AddEdge {
                    src: 2,
                    dst: 3,
                    weight: 1.0,
                    directed: true,
                },
            ),
            mk(
                3,
                EventKind::SetNodeAttr {
                    id: 1,
                    key: "a".into(),
                    value: 5i64.into(),
                },
            ),
            mk(
                4,
                EventKind::SetEdgeAttr {
                    src: 1,
                    dst: 2,
                    key: "k".into(),
                    value: true.into(),
                },
            ),
            mk(
                5,
                EventKind::SetEdgeWeight {
                    src: 1,
                    dst: 2,
                    weight: 9.0,
                },
            ),
            mk(6, EventKind::RemoveEdge { src: 2, dst: 3 }),
            mk(7, EventKind::RemoveNode { id: 2 }),
            mk(
                8,
                EventKind::AddEdge {
                    src: 3,
                    dst: 4,
                    weight: 1.0,
                    directed: false,
                },
            ),
            mk(
                9,
                EventKind::RemoveNodeAttr {
                    id: 1,
                    key: "a".into(),
                },
            ),
            mk(
                10,
                EventKind::RemoveEdgeAttr {
                    src: 3,
                    dst: 4,
                    key: "none".into(),
                },
            ),
        ];
        scoped_union_equals_global(&events, 2);
        scoped_union_equals_global(&events, 3);
    }

    #[test]
    fn cross_scope_edge_updates_one_side() {
        // Nodes 1 (odd scope) and 2 (even scope).
        let mut even = Delta::new();
        even.apply_event_in(
            &EventKind::AddEdge {
                src: 1,
                dst: 2,
                weight: 1.0,
                directed: false,
            },
            |id| id % 2 == 0,
        );
        assert!(!even.contains(1), "out-of-scope endpoint not created");
        assert!(even.node(2).unwrap().has_neighbor(1));
    }

    #[test]
    fn out_of_scope_node_removal_scrubs_in_scope_edges() {
        let mut even = Delta::new();
        even.apply_event_in(
            &EventKind::AddEdge {
                src: 1,
                dst: 2,
                weight: 1.0,
                directed: false,
            },
            |id| id % 2 == 0,
        );
        even.apply_event_in(&EventKind::RemoveNode { id: 1 }, |id| id % 2 == 0);
        assert_eq!(even.node(2).unwrap().degree(), 0);
    }

    #[test]
    fn a_no_op_event_copies_no_description() {
        let mut d = Delta::new();
        for kind in [
            EventKind::AddEdge {
                src: 1,
                dst: 2,
                weight: 2.0,
                directed: false,
            },
            EventKind::AddEdge {
                src: 2,
                dst: 4,
                weight: 1.0,
                directed: true,
            },
            EventKind::AddNode { id: 3 },
            EventKind::SetNodeAttr {
                id: 2,
                key: "a".into(),
                value: 1i64.into(),
            },
            EventKind::SetEdgeAttr {
                src: 1,
                dst: 2,
                key: "k".into(),
                value: true.into(),
            },
        ] {
            d.apply_event(&kind);
        }
        let no_ops = [
            EventKind::AddNode { id: 2 },
            EventKind::RemoveNode { id: 6 },
            EventKind::RemoveNode { id: 7 },
            EventKind::RemoveEdge { src: 2, dst: 3 },
            EventKind::SetEdgeWeight {
                src: 2,
                dst: 1,
                weight: 2.0,
            },
            EventKind::SetEdgeWeight {
                src: 3,
                dst: 4,
                weight: 5.0,
            },
            EventKind::SetNodeAttr {
                id: 2,
                key: "a".into(),
                value: 1i64.into(),
            },
            EventKind::RemoveNodeAttr {
                id: 2,
                key: "zz".into(),
            },
            EventKind::SetEdgeAttr {
                src: 2,
                dst: 1,
                key: "k".into(),
                value: true.into(),
            },
            EventKind::RemoveEdgeAttr {
                src: 1,
                dst: 2,
                key: "zz".into(),
            },
            EventKind::RemoveEdgeAttr {
                src: 2,
                dst: 4,
                key: "k".into(),
            },
        ];
        let scopes: [fn(NodeId) -> bool; 2] = [|_| true, |id| id % 2 == 0];
        for (kind, in_scope) in no_ops.iter().flat_map(|k| scopes.map(|s| (k, s))) {
            let before = d.clone();
            d.apply_event_in(kind, in_scope);
            assert_eq!(d.cardinality(), before.cardinality(), "{kind:?}");
            for (id, n) in &before.nodes {
                assert!(Arc::ptr_eq(n, &d.nodes[id]), "{kind:?} copied node {id}");
            }
        }
    }
}
