//! Property-based tests for the Δ algebra.
//!
//! These check the algebraic identities of Definitions 2–5 of the paper
//! on arbitrary generated histories — the node-level sum,
//! the component-level intersection and difference — plus the
//! reconstruction identity `child = path-sum(parent, child − parent)`
//! that TGI's derived-snapshot storage depends on.

use hgs_delta::columnar::{encode_columnar_delta, encode_columnar_residual_in};
use hgs_delta::{
    AttrValue, ColumnarDelta, Delta, Event, EventKind, PairTable, Removal, StaticNode,
};
use proptest::prelude::*;

/// Strategy: an arbitrary event over a small id universe so that
/// interactions (re-adds, removals of existing components) actually
/// happen.
fn arb_event_kind() -> impl Strategy<Value = EventKind> {
    let id = 0u64..24;
    prop_oneof![
        id.clone().prop_map(|id| EventKind::AddNode { id }),
        id.clone().prop_map(|id| EventKind::RemoveNode { id }),
        (0u64..24, 0u64..24, 0.0f32..4.0, any::<bool>()).prop_map(
            |(src, dst, weight, directed)| EventKind::AddEdge {
                src,
                dst,
                weight,
                directed
            }
        ),
        (0u64..24, 0u64..24).prop_map(|(src, dst)| EventKind::RemoveEdge { src, dst }),
        (0u64..24, 0u64..24, 0.0f32..4.0).prop_map(|(src, dst, weight)| EventKind::SetEdgeWeight {
            src,
            dst,
            weight
        }),
        (id.clone(), "[a-c]{1,3}", -50i64..50).prop_map(|(id, key, v)| EventKind::SetNodeAttr {
            id,
            key,
            value: AttrValue::Int(v)
        }),
        (id.clone(), "[a-c]{1,3}").prop_map(|(id, key)| EventKind::RemoveNodeAttr { id, key }),
        (0u64..24, 0u64..24, "[a-c]{1,3}", any::<bool>()).prop_map(|(src, dst, key, v)| {
            EventKind::SetEdgeAttr {
                src,
                dst,
                key,
                value: AttrValue::Bool(v),
            }
        }),
        (0u64..24, 0u64..24, "[a-c]{1,3}").prop_map(|(src, dst, key)| EventKind::RemoveEdgeAttr {
            src,
            dst,
            key
        }),
    ]
}

/// Strategy: a chronologically timestamped event history.
fn arb_history(max: usize) -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((arb_event_kind(), 0u64..4), 0..max).prop_map(|kinds| {
        let mut t = 0u64;
        kinds
            .into_iter()
            .map(|(kind, gap)| {
                t += gap;
                Event::new(t, kind)
            })
            .collect()
    })
}

/// Strategy: a delta reached by applying an arbitrary history.
fn arb_delta() -> impl Strategy<Value = Delta> {
    arb_history(60).prop_map(|events| {
        let mut d = Delta::new();
        for e in &events {
            d.apply_event(&e.kind);
        }
        d
    })
}

/// Strategy: three children of one tree parent — a common history,
/// then a few events of their own each, so that most nodes are shared
/// in full, some in part, and some differ in a single edge weight,
/// edge attribute or node attribute.
fn arb_family() -> impl Strategy<Value = [Delta; 3]> {
    let tail = || prop::collection::vec(arb_event_kind(), 0..6);
    (arb_history(60), tail(), tail(), tail()).prop_map(|(common, a, b, c)| {
        let base = Delta::snapshot_by_replay(&common, u64::MAX);
        [a, b, c].map(|tail| {
            let mut child = base.clone();
            for kind in &tail {
                child.apply_event(kind);
            }
            child
        })
    })
}

/// Every component of `part` — its existence, each edge-list entry,
/// each attribute pair — is a component of `whole`'s description of
/// the same node.
fn contained(part: &StaticNode, whole: Option<&StaticNode>) -> bool {
    whole.is_some_and(|whole| {
        part.edges
            .iter()
            .all(|e| whole.edge(e.nbr, e.dir) == Some(e))
            && part
                .attrs
                .iter()
                .all(|(k, v)| whole.attrs.get(k) == Some(v))
    })
}

/// The stored form of a path — each piece encoded as a tree row —
/// summed root first.
fn path_sum(pieces: &[&Delta]) -> Delta {
    let mut state = Delta::new();
    for piece in pieces {
        ColumnarDelta::parse(encode_columnar_delta(piece))
            .expect("just encoded")
            .sum_into(&mut state, None)
            .expect("pieces of one path never repeat a component");
    }
    state
}

/// `parent = ∩ children`, then every child rebuilt from the parent and
/// its own residual.
fn assert_family_reconstructs(children: &[&Delta]) -> Result<(), TestCaseError> {
    let parent = Delta::intersection_many(children);
    for child in children {
        for n in parent.iter() {
            prop_assert!(contained(n, child.node(n.id)), "parent ⊑ child at {}", n.id);
        }
        let derived = child.difference(&parent);
        for n in derived.iter() {
            // Disjoint from the parent: nothing is stored twice.
            if let Some(held) = parent.node(n.id) {
                prop_assert!(n.edges.iter().all(|e| held.edge(e.nbr, e.dir).is_none()));
                prop_assert!(n.attrs.iter().all(|(k, _)| held.attrs.get(k).is_none()));
                prop_assert!(n.degree() + n.attrs.len() > 0, "no empty residual record");
            }
        }
        prop_assert_eq!(&path_sum(&[&parent, &derived]), *child);
    }
    Ok(())
}

/// Strategy: a base state and a later one — a family's two children,
/// which share most of what they hold and differ by removals,
/// overrides of a weight or a pair, whole-node removals and self-loops
/// (the event strategy makes them all), or two unrelated states.
fn arb_state_pair() -> impl Strategy<Value = (Delta, Delta)> {
    prop_oneof![
        arb_family().prop_map(|[b, r, _]| (b, r)),
        (arb_delta(), arb_delta()),
    ]
}

/// The signed-delta laws of a residual `r ⊖ b`, stored as the row a
/// residual root is: `b ⊕ (r ⊖ b) = r` by the full sum and node by
/// node, a removal names a position of `b`'s record whose component
/// `r` does not hold, the row takes the residual magic only when it
/// removes something, and its path-complete form holds every node it
/// leaves changed.
fn assert_residual_laws(b: &Delta, r: &Delta) -> Result<(), TestCaseError> {
    let res = r.residual_against(b);
    for (id, removal) in &res.removed {
        let held = b.node(*id).expect("a removal names a node of the base");
        match removal {
            Removal::Node => prop_assert!(!r.contains(*id)),
            Removal::Parts { edges, pairs } => {
                let kept = r.node(*id).expect("a part removal keeps its node");
                prop_assert!(!edges.is_empty() || !pairs.is_empty());
                for &at in edges {
                    let e = &held.edges[at as usize];
                    prop_assert_ne!(kept.edge(e.nbr, e.dir), Some(e));
                }
                let held_pairs: Vec<_> = held.attrs.iter().collect();
                for &at in pairs {
                    let (k, v) = held_pairs[at as usize];
                    prop_assert_ne!(kept.attrs.get(k), Some(v));
                }
            }
        }
    }

    let row = encode_columnar_residual_in(&res, &PairTable::default());
    prop_assert_eq!(row[0], if res.removed.is_empty() { 0xCB } else { 0xCD });
    let col = ColumnarDelta::parse(row).expect("just encoded");
    let mut summed = b.clone();
    let mut completed = Delta::new();
    col.sum_into(&mut summed, Some(&mut completed))
        .expect("the row applies to its base");
    prop_assert_eq!(&summed, r);
    let mut replayed = b.clone();
    replayed.sum_assign(&completed);
    for (id, _) in res
        .removed
        .iter()
        .filter(|(_, rm)| matches!(rm, Removal::Node))
    {
        replayed.remove(*id);
    }
    prop_assert_eq!(&replayed, r, "the path-complete form replays the row");
    for id in b.ids().chain(r.ids()) {
        let mut one = b.restrict(|other| other == id);
        col.sum_node_into(id, &mut one)
            .expect("the row applies node by node");
        prop_assert_eq!(one.node(id), r.node(id), "node {}", id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `b ⊕ (r ⊖ b) = r`, through the stored row's full and
    /// node-scoped sums alike.
    #[test]
    fn a_residual_sums_back_to_its_state((b, r) in arb_state_pair()) {
        assert_residual_laws(&b, &r)?;
        assert_residual_laws(&r, &b)?;
    }

    /// `r ⊖ r = ∅`, and `r ⊖ ∅` is `r` with no removal segment: a block
    /// head's root, stored against nothing, is the row it always was.
    #[test]
    fn a_residual_against_itself_or_nothing(r in arb_delta()) {
        prop_assert!(r.residual_against(&r).is_empty());
        let res = r.residual_against(&Delta::new());
        prop_assert!(res.removed.is_empty());
        prop_assert_eq!(&res.added, &r);
        prop_assert_eq!(
            encode_columnar_residual_in(&res, &PairTable::default()),
            encode_columnar_delta(&r)
        );
    }

    #[test]
    fn sum_identity(d in arb_delta()) {
        prop_assert_eq!(d.sum(&Delta::new()), d.clone());
        prop_assert_eq!(Delta::new().sum(&d), d);
    }

    #[test]
    fn sum_associative(a in arb_delta(), b in arb_delta(), c in arb_delta()) {
        prop_assert_eq!(a.sum(&b).sum(&c), a.sum(&b.sum(&c)));
    }

    #[test]
    fn difference_self_is_empty(d in arb_delta()) {
        prop_assert!(d.difference(&d).is_empty());
        prop_assert_eq!(d.difference(&Delta::new()), d);
    }

    #[test]
    fn intersection_laws(a in arb_delta(), b in arb_delta()) {
        let i = a.intersection(&b);
        // commutative
        prop_assert_eq!(i.clone(), b.intersection(&a));
        // every component of the result is a component of both sides…
        for n in i.iter() {
            prop_assert!(contained(n, a.node(n.id)));
            prop_assert!(contained(n, b.node(n.id)));
        }
        // …and every component of both sides is in the result.
        for n in a.iter() {
            let Some(m) = b.node(n.id) else { continue };
            let Some(kept) = i.node(n.id) else {
                return Err(TestCaseError::fail(format!("node {} dropped", n.id)));
            };
            for e in n.edges.iter().filter(|e| m.edge(e.nbr, e.dir) == Some(e)) {
                prop_assert_eq!(kept.edge(e.nbr, e.dir), Some(e));
            }
            for (k, v) in n.attrs.iter().filter(|(k, v)| m.attrs.get(k) == Some(v)) {
                prop_assert_eq!(kept.attrs.get(k), Some(v));
            }
        }
        // ∆ ∩ ∆ = ∆, ∆ ∩ ∅ = ∅
        prop_assert_eq!(a.intersection(&a), a.clone());
        prop_assert!(a.intersection(&Delta::new()).is_empty());
    }

    /// The reconstruction identity TGI storage relies on: for any
    /// children c1..ck and parent = ∩ ci,
    /// ci == path-sum(parent, ci − parent) — for unrelated children
    /// (little in common) and for a family (nearly everything in
    /// common, differences down to one weight or one attribute).
    #[test]
    fn reconstruction_identity(a in arb_delta(), b in arb_delta(), c in arb_delta()) {
        assert_family_reconstructs(&[&a, &b, &c])?;
    }

    #[test]
    fn reconstruction_identity_of_a_family(family in arb_family()) {
        let [a, b, c] = &family;
        assert_family_reconstructs(&[a, b, c])?;
        assert_family_reconstructs(&[a, b])?;
    }

    /// Replay determinism: applying the same history twice yields
    /// identical states (no hidden iteration-order dependence).
    #[test]
    fn replay_deterministic(events in arb_history(80)) {
        let a = Delta::snapshot_by_replay(&events, u64::MAX);
        let b = Delta::snapshot_by_replay(&events, u64::MAX);
        prop_assert_eq!(a, b);
    }

    /// Replay is prefix-monotone in the cut point: replaying to t is the
    /// same as replaying the prefix of events with time <= t.
    #[test]
    fn replay_prefix_consistency(events in arb_history(60), cut in 0u64..200) {
        let direct = Delta::snapshot_by_replay(&events, cut);
        let prefix: Vec<Event> =
            events.iter().filter(|e| e.time <= cut).cloned().collect();
        let via_prefix = Delta::snapshot_by_replay(&prefix, u64::MAX);
        prop_assert_eq!(direct, via_prefix);
    }

    /// Edge symmetry invariant: after any history, node u lists v iff v
    /// lists u (the node-centric model replicates edges to both sides).
    #[test]
    fn edge_symmetry_invariant(events in arb_history(100)) {
        let d = Delta::snapshot_by_replay(&events, u64::MAX);
        for n in d.iter() {
            for e in &n.edges {
                let other = d.node(e.nbr);
                prop_assert!(other.is_some(), "dangling edge {} -> {}", n.id, e.nbr);
                prop_assert!(
                    other.unwrap().has_neighbor(n.id),
                    "asymmetric edge {} -> {}", n.id, e.nbr
                );
            }
        }
    }

    /// Scoped replay keeps partitioned snapshots (Example 5): for the
    /// scopes `id % k`, k = 1–4, each scoped replay holds only its own
    /// ids and the union of the k of them equals the global replay after
    /// every event, of every kind. The extra `RemoveNode`s name ids the
    /// history never adds, so removals of present, absent and
    /// out-of-scope nodes all occur.
    #[test]
    fn scoped_replays_union_to_the_global_replay(events in prop::collection::vec(
        prop_oneof![4 => arb_event_kind(), 1 => (24u64..32).prop_map(|id| EventKind::RemoveNode { id })],
        0..80,
    )) {
        for k in 1..=4u64 {
            let mut global = Delta::new();
            let mut scoped = vec![Delta::new(); k as usize];
            for kind in &events {
                global.apply_event(kind);
                let mut union = Delta::new();
                for (p, state) in (0..k).zip(&mut scoped) {
                    state.apply_event_in(kind, |id| id % k == p);
                    prop_assert!(state.ids().all(|id| id % k == p), "scope {} of {}", p, k);
                    union.sum_assign(state);
                }
                prop_assert_eq!(&union, &global, "{:?}, k = {}", kind, k);
            }
        }
    }
}
