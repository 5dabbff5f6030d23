//! Index size as a deterministic gate: stored bytes per event, by
//! table, of a default-config build of the two benchmark dataset
//! shapes (scaled down). Tree-delta rows are still the largest table,
//! and what they hold is decided by the intersection tree: a component
//! — one edge-list entry, one attribute pair — is stored once, on the
//! highest tree node whose leaves all agree on it. What trips their
//! bound first is therefore a parent that stops keeping
//! partially-common nodes (a hub that gains an edge per checkpoint
//! drops out of every ancestor and is re-stored in full in every
//! leaf — 28.39 and 45.41 B/event, more than twice the bound); an
//! un-factored edge-list grammar (`hgs_delta::codec` spelling `dir`,
//! weight and an attributes flag on every entry) trips it too.
//!
//! Thirteen encodings keep a row from spelling what its reader can
//! derive, and each has the bound it trips when it is undone:
//!
//! * the **record head** — an edge-list's shape and both counts, and
//!   nothing else, in front of each record's entries — is the
//!   tree-delta bound: most tree records are one edge or one pair, and
//!   with an `edge_count` varint, a shape byte and an `attr_count`
//!   varint in front of each the tree rows are 11.72 and 21.34
//!   B/event, over it;
//! * the **counts column** — every record's head as one bit-coded
//!   code in a column of the row's own (its edge count a Rice code,
//!   its attribute count and shape only when some record of the row
//!   needs them), beside an Elias–Fano-coded id column — is the tree-delta
//!   bound as well: with a head byte per record and a varint per id
//!   gap (the rows of magic `0xC8`) the tree rows are 7.48 and 10.52
//!   B/event, over it (the census prints the tree rows' ids, restarts,
//!   counts and records);
//! * the **first neighbour in the head code** — each tree record's
//!   first neighbour a fixed-width field of its code in the counts
//!   column, as wide as the row's largest first neighbour needs, so a
//!   single default edge is no record bytes at all, in every row where
//!   that is smaller than a varint in front of each record — is
//!   `skew21k`'s tree-delta bound: with the first neighbour a varint in
//!   front of every record (the rows of magic `0xCA`) its tree rows are
//!   8.88 B/event, over it (`wiki20k`'s first neighbours mostly fit
//!   varints narrower than its widest id, so few of its rows move them:
//!   6.54 B/event then, 6.51 now);
//! * the **row header** — the magic, the record count, a bitmap of the
//!   segments that are not empty and the length of each but the last,
//!   the row's length giving that one — is the row-header bound: with a
//!   segment count and every segment's length (the rows of magics
//!   `0xC9` and `0xCA`) the headers are 0.334 and 0.247 B/event, over
//!   it;
//! * the **restart column** — one window length per 16 records, where
//!   a point read starts skipping, instead of a byte length for every
//!   record — is the tree-delta bound as well: with a length per
//!   record (the rows of magic `0xC4`) the tree rows are 9.56 and
//!   18.31 B/event, over it;
//! * the **pair dictionary** — each distinct attribute pair of a delta
//!   row spelled once, a record's pair one varint index into it — is
//!   `skew21k`'s tree-delta and total bounds: with every pair spelled
//!   as a key index and a value (the rows of magic `0xC7`) its tree
//!   rows are 15.65 B/event and the index 24.27, over both;
//! * the **pair table** — a span's attribute keys, values and pairs
//!   spelled once in its `Timespans` row, which every row of the span
//!   names them from, so that no row spells a dictionary of its own —
//!   is `skew21k`'s tree-delta and total bounds too, and an assertion
//!   of its own (every row dictionary of the index is empty): with a
//!   dictionary per row (layout tag 9) its tree rows are 12.46 B/event
//!   and the index 20.85, over both;
//! * the **chain rows** — chunk gaps only: `tsid` from the key, `pid`
//!   from the partition map, when the events happened from the span's
//!   checkpoints, how many entries from the row's length — are the
//!   `Versions` bound: with a time gap per entry and an entry count in
//!   front (the rows before PR 25) they are 2.45 and 3.55 B/event, and
//!   with `tsid` and `pid` in every entry too (before PR 24) 3.95 and
//!   5.82;
//! * the **bit-coded chain rows** — the first chunk in the bits the
//!   span's chunk count needs, each further gap a Rice code — are the
//!   `Versions` bound too: with a varint per chunk gap (layout tag 11)
//!   they are 0.75 and 1.13 B/event;
//! * the **bit-coded eventlists** — Rice-coded node-id and time gaps,
//!   a kind code of as many bits as the row has kinds, node, key and
//!   value dictionary indexes of as many bits as each dictionary needs
//!   — are the
//!   eventlist bound: spelled in whole bytes (the rows of magic `0xC5`)
//!   they are 9.33 and 9.81 B/event;
//! * the **weightless eventlists** — no weights column when every
//!   weighted event is the default edge — have an assertion of their
//!   own (`wiki20k` has no other kind of edge, so no row of it may
//!   spell the column) and otherwise show in the eventlist bound;
//! * the **term rows** — a carry point spelled as its node-id gap
//!   alone, the `became` flags of the change points as one bitmap — are
//!   the `AttrIndex` bound: with a time gap, a node id and a flags byte
//!   per point (the rows of layout tag 3) `skew21k`'s rows are 1.99
//!   B/event;
//! * the **bit-coded term rows** — Rice-coded carry node-id gaps and
//!   change-point time gaps, change-point node ids as wide as the
//!   row's largest — are the `AttrIndex` bound too: in whole-byte
//!   varints (layout tag 11) `skew21k`'s rows are 1.42 B/event.
//!
//! The tree's **layout** is the tree-delta bound too. A component is
//! stored once on each node of the canonical cover of the leaves it
//! lives through, and most of a growing graph lives from the leaf it
//! appears at to the span's end: a suffix, which a tree laid out from
//! the right covers with the fewest nodes. Grouped from the left
//! (layout tag 5) the tree rows are 8.50 and 16.93 B/event, over the
//! bound; the level just below the roots held 1.71 and 2.25 of them,
//! against 0.37 and 0.76 now (the census prints each level's share).
//!
//! The bound on the total is there so that a regression in any other
//! table shows as well; the `AttrIndex` bound also holds the secondary
//! index to its one row kind — the bare-key rows it once carried beside
//! the value-term rows were 4.17 of its 6.16 B/event on `skew21k`, to
//! answer a question the version chain already answers.
//!
//! **Span-size sweep.** The same events built at `events_per_timespan`
//! ×1, ×½ and ×¼ (so twice and four times the spans) show the two
//! index terms that grow with the number of spans: each span's tree
//! roots re-store the graph common to the whole span, and each span's
//! term rows re-state every live term as carry points. Their bytes per
//! event are gated too (the census prints their shares of the index).
//!
//! **Every stored row.** Six builds — both datasets one-shot, and at
//! 40 % plus appends of 2 000 and of 100 events — are pinned by their
//! row count, their key-plus-value bytes and a digest of every row, so
//! a change that claims to leave the row grammar alone is held to
//! every byte; the table moves only with `LAYOUT_TAG`.
//!
//! **Small appends and what they read.** At 40 % plus appends of 500
//! and of 100 events, the index is held to a multiple of the one-shot
//! build's bytes, and the rows a cold recursive 1-hop reads — a span's
//! base roots among them — are pinned.
//!
//! Stored bytes are exact for a dataset and a config — no timing, no
//! thread-count dependence — so the bounds sit ~15 % above the
//! measured values printed by the test
//! (`cargo test --release -p hgs-core --test index_size -- --nocapture`),
//! the tree-delta bounds closer: below what the previous tree layout
//! stored.

mod common;

use std::hash::Hasher;

use common::{build_in_batches, skew21k, wiki20k};
use hgs_core::{KhopStrategy, PartitionStrategy, TgiConfig, TgiService, AUX_BASE, ELIST_BASE};
use hgs_datagen::augment_with_churn;
use hgs_delta::{
    decode_term_points, encode_term_points, Event, EventKind, FxHasher, TERM_KIND_VALUE,
};
use hgs_store::{DeltaKey, StoreConfig, Table};

/// Stored value bytes per event, by table; `Deltas` rows split by what
/// their `did` addresses, `AttrIndex` rows by the points they spell.
#[derive(Debug, Default)]
struct Census {
    /// Tree rows by their node's depth in its span's tree: the roots
    /// at 0, the non-root pieces below.
    tree_by_depth: Vec<f64>,
    eventlists: f64,
    aux_replicas: f64,
    versions: f64,
    /// `AttrIndex` bytes spent on carry points: a term row's span
    /// start, carry count and carry node-id gaps.
    attr_carry: f64,
    /// The rest of each term row: its change points and their flags.
    attr_change: f64,
    metadata: f64,
    total: f64,
    /// Eventlist rows, and how many of them spell a weights column.
    eventlist_rows: usize,
    weighted_eventlist_rows: usize,
    /// Bytes of the rows' own dictionaries: tree and aux rows' pair
    /// dictionaries, eventlist rows' attribute dictionaries.
    delta_dicts: f64,
    eventlist_dicts: f64,
    /// Tree rows' segments: ids, restarts, counts, records, and the
    /// removals of residual roots.
    tree_segs: [f64; 5],
    /// The headers of every delta and eventlist row: magic, count,
    /// presence bitmap and the spelled segment lengths.
    headers: f64,
}

impl Census {
    fn roots(&self) -> f64 {
        self.tree_by_depth.first().copied().unwrap_or(0.0)
    }

    fn tree_pieces(&self) -> f64 {
        self.tree_by_depth.iter().skip(1).sum()
    }

    fn tree_deltas(&self) -> f64 {
        self.tree_by_depth.iter().sum()
    }

    fn attr_index(&self) -> f64 {
        self.attr_carry + self.attr_change
    }

    fn share(&self, part: f64) -> f64 {
        part / self.total
    }
}

fn census(events: &[Event], cfg: TgiConfig) -> Census {
    let tgi = TgiService::try_build(cfg, StoreConfig::new(4, 1), events)
        .unwrap()
        .pin();
    let per_event = |bytes: usize| bytes as f64 / events.len() as f64;
    let mut c = Census {
        total: per_event(tgi.storage_bytes()),
        ..Census::default()
    };
    let metas = common::span_metas(&tgi);
    for (key, value) in tgi.store().content_rows().into_iter().flatten() {
        let slot = match key[0] {
            t if t == Table::Deltas.tag() => {
                let k = DeltaKey::decode(&key[1..]).unwrap();
                let segs = common::RowSegments::parse(&value).segs;
                c.headers += per_event(value.len() - segs.iter().map(Vec::len).sum::<usize>());
                if (ELIST_BASE..AUX_BASE).contains(&k.did) {
                    c.eventlist_dicts += per_event(segs[common::ELIST_SEG_ATTR_DICT].len());
                } else {
                    c.delta_dicts += per_event(segs[common::DELTA_SEG_PAIR_DICT].len());
                }
                if k.did >= AUX_BASE {
                    &mut c.aux_replicas
                } else if k.did >= ELIST_BASE {
                    &mut c.eventlists
                } else {
                    let shape = &metas[k.tsid as usize].shape;
                    let level = (0..=shape.height())
                        .find(|&l| {
                            let first = shape.level_offsets[l];
                            (first..first + shape.level_sizes[l] as u64).contains(&k.did)
                        })
                        .expect("a tree did");
                    let depth = shape.height() - level;
                    for (sum, seg) in c.tree_segs.iter_mut().zip([
                        common::DELTA_SEG_NODE_IDS,
                        common::DELTA_SEG_RESTARTS,
                        common::DELTA_SEG_COUNTS,
                        common::DELTA_SEG_RECORDS,
                        common::DELTA_SEG_REMOVALS,
                    ]) {
                        *sum += per_event(segs.get(seg).map_or(0, Vec::len));
                    }
                    if c.tree_by_depth.len() <= depth {
                        c.tree_by_depth.resize(depth + 1, 0.0);
                    }
                    &mut c.tree_by_depth[depth]
                }
            }
            t if t == Table::Versions.tag() => &mut c.versions,
            t if t == Table::AttrIndex.tag() => {
                // Term key: the kind tag, then the length-prefixed term.
                // Value-term rows are the only kind.
                assert_eq!(key[1], TERM_KIND_VALUE, "an index row of a retired kind");
                let points = decode_term_points(&value).unwrap();
                let carry: Vec<_> = points.into_iter().take_while(|p| p.carry).collect();
                // The carry points alone, less the change count of 0.
                let carry_bytes = encode_term_points(&carry).len() - 1;
                c.attr_carry += per_event(carry_bytes);
                c.attr_change += per_event(value.len() - carry_bytes);
                continue;
            }
            _ => &mut c.metadata,
        };
        *slot += per_event(value.len());
    }
    for (_, row) in common::stored_eventlist_rows(tgi.store()) {
        let weights = &common::RowSegments::parse(&row).segs[common::ELIST_SEG_WEIGHTS];
        c.eventlist_rows += 1;
        c.weighted_eventlist_rows += !weights.is_empty() as usize;
    }
    let parts =
        c.tree_deltas() + c.eventlists + c.aux_replicas + c.versions + c.attr_index() + c.metadata;
    assert!((parts - c.total).abs() < 1e-6, "census covers every row");
    c
}

fn print(name: &str, events: usize, c: &Census) {
    let by_depth: Vec<String> = c.tree_by_depth[1..]
        .iter()
        .enumerate()
        .map(|(d, b)| format!("{}: {b:.2}", d + 1))
        .collect();
    println!(
        "{name} ({events} events), stored bytes/event: tree deltas {:.2} (roots {:.2}, \
         non-root pieces {:.2}; by depth below the root {}), eventlists {:.2}, aux {:.2}, \
         Versions {:.2}, AttrIndex {:.2} (carry {:.2}, change {:.2}), metadata {:.2}, \
         total {:.2}; tree segments: ids {:.2}, restarts {:.2}, counts {:.2}, \
         records {:.2}, removals {:.3}; row dictionaries: tree and aux {:.2}, eventlists {:.2}; \
         row headers {:.3}; {} of {} eventlist rows spell weights",
        c.tree_deltas(),
        c.roots(),
        c.tree_pieces(),
        by_depth.join(", "),
        c.eventlists,
        c.aux_replicas,
        c.versions,
        c.attr_index(),
        c.attr_carry,
        c.attr_change,
        c.metadata,
        c.total,
        c.tree_segs[0],
        c.tree_segs[1],
        c.tree_segs[2],
        c.tree_segs[3],
        c.tree_segs[4],
        c.delta_dicts,
        c.eventlist_dicts,
        c.headers,
        c.weighted_eventlist_rows,
        c.eventlist_rows
    );
}

/// Upper bounds, in bytes per event.
struct Bounds {
    tree_deltas: f64,
    eventlists: f64,
    versions: f64,
    attr_index: f64,
    headers: f64,
    total: f64,
}

/// Build at the default config, print the per-table census and hold
/// each gated table to its bound.
fn gate(name: &str, events: &[Event], b: Bounds) -> Census {
    let c = census(events, TgiConfig::default());
    print(name, events.len(), &c);
    for (table, got, bound) in [
        ("tree-delta", c.tree_deltas(), b.tree_deltas),
        ("eventlist", c.eventlists, b.eventlists),
        ("Versions", c.versions, b.versions),
        ("AttrIndex", c.attr_index(), b.attr_index),
        ("row-header", c.headers, b.headers),
        ("all", c.total, b.total),
    ] {
        assert!(
            got <= bound,
            "{name}: {table} rows grew to {got:.2} B/event (bound {bound})"
        );
    }
    c
}

// Bounds: ~15 % above the measured bytes per event — eventlists 5.78
// and 5.01, `Versions` 0.42 and 0.53, `skew21k`'s `AttrIndex` rows
// 1.04, row headers 0.196 and 0.187; `wiki20k`'s total, 12.71, ~37 %
// — but for the tree deltas, 6.51 and 8.34, whose bounds sit below
// what the rows of magic `0xC8` stored (7.48 and 10.52), what trees
// grouped from the left stored (8.50 and 16.93), what the rows of
// magic `0xC4` stored (9.56 and 18.31) and, for `skew21k`, what the
// rows of magic `0xCA` stored (8.88), what rows with dictionaries of
// their own stored (12.46, total 20.85 — its total bound sits below
// that too, 36 % above the 14.96 it stores) and what the rows of
// magic `0xC7` stored (15.65, total 24.27): a head byte per record
// coming back, undoing the right alignment, a length per record
// growing back, a first neighbour spelled in its record, a dictionary
// per row, or pairs spelled in full again trips them.

/// `wiki20k` and 4 000 churn events, every 40th of which removes the
/// node it touched: the trace whose builds normalize `RemoveNode`s.
fn churn24k() -> Vec<Event> {
    let base = wiki20k();
    let mut trace = augment_with_churn(&base, 4_000, 0.4, 11);
    for e in trace[base.len()..].iter_mut().step_by(40) {
        let (id, _) = e.kind.touched();
        e.kind = EventKind::RemoveNode { id };
    }
    trace
}

#[test]
fn wiki_tree_delta_rows_stay_factored() {
    let events = wiki20k();
    let bounds = Bounds {
        tree_deltas: 7.3,
        eventlists: 6.8,
        versions: 0.48,
        attr_index: 0.0,
        headers: 0.23,
        total: 17.4,
    };
    let c = gate("wiki20k", &events, bounds);
    // Every edge of the trace is the default one.
    assert!(c.eventlist_rows > 0);
    assert_eq!(
        c.weighted_eventlist_rows, 0,
        "wiki20k: an eventlist row of default edges spells its weights"
    );
}

#[test]
fn skew_tree_delta_rows_stay_factored() {
    let events = skew21k();
    let bounds = Bounds {
        tree_deltas: 8.7,
        eventlists: 7.0,
        versions: 0.61,
        attr_index: 1.2,
        headers: 0.215,
        total: 20.4,
    };
    let c = gate("skew21k", &events, bounds);
    assert!(
        c.attr_index() > 0.0,
        "the labelled build carries index rows"
    );
    // Every pair a row names is in its span's pair table.
    assert_eq!(
        (c.delta_dicts, c.eventlist_dicts),
        (0.0, 0.0),
        "skew21k: a row spells a dictionary of its own"
    );
}

/// What grows with the number of spans, at ×1 / ×½ / ×¼ of the
/// default span size, in bytes per event: `(roots, carry points)`.
fn sweep(name: &str, events: &[Event]) -> Vec<(f64, f64)> {
    let full = TgiConfig::default().events_per_timespan;
    [1, 2, 4]
        .into_iter()
        .map(|div| {
            let cfg = TgiConfig {
                events_per_timespan: full / div,
                ..TgiConfig::default()
            };
            let c = census(events, cfg);
            print(&format!("{name} at 1/{div} span size"), events.len(), &c);
            println!(
                "  shares: roots + carry {:.4}: roots {:.3}, non-root pieces {:.3}, \
                 eventlists {:.3}, AttrIndex carry {:.3}, change {:.3}",
                c.share(c.roots() + c.attr_carry),
                c.share(c.roots()),
                c.share(c.tree_pieces()),
                c.share(c.eventlists),
                c.share(c.attr_carry),
                c.share(c.attr_change),
            );
            (c.roots(), c.attr_carry)
        })
        .collect()
}

/// Shorter spans mean more roots and more carry points; what the gate
/// holds is what they cost per event. At ×1 / ×½ / ×¼ of the default
/// span size, roots plus carry points are 0.00 / 0.94 / 2.86 B/event
/// of `wiki20k` (no labels, so no carry points) and 1.63 / 2.50 / 4.19
/// of `skew21k` (carry 0.06 / 0.12 / 0.23 of it): linear in the number
/// of spans, roots nearly all of it. The gate held their share of the
/// index until layout tag 12, with bounds 0.01 / 0.078 / 0.221 and
/// 0.106 / 0.164 / 0.288; a share rises as the rest of the index
/// shrinks, and the bit-coded chain and term rows and the first
/// neighbour in the head code shrank `skew21k`'s index from 16.54 to
/// 14.96 B/event while its roots held at 1.56, so its share rose from
/// 0.100 to 0.109 although roots plus carry points fell. The bounds are
/// the old ones in bytes: each share bound times the index it was
/// held to at layout tag 11 (13.22 / 12.75 / 13.53 and 16.54 / 16.45 /
/// 17.12 B/event), no looser than it was on those rows. They sat 4–5 %
/// above `wiki20k`'s roots and 7–18 % above `skew21k`'s roots plus
/// carry points. Since layout tag 14 a root is stored against the
/// roots of its Fenwick bases in its block: at ×½ the second span's
/// base is the first, whose root (the empty graph's, at time 0) holds
/// nothing, so nothing moves; at ×¼ span 3 is stored against span 2's
/// root, and the ×¼ bounds tightened to 5 % above `wiki20k`'s roots
/// (2.86 → 2.01 B/event) and 9 % above `skew21k`'s roots plus carry
/// points (4.19 → 3.63). Since layout tag 15 no base is span 0's empty
/// root: at ×¼ span 2 is stored against span 1's root and span 3
/// against both, and the ×¼ bounds tightened again to the same margins
/// (`wiki20k` 2.01 → 1.64, `skew21k` 3.63 → 3.43).
#[test]
fn shorter_spans_grow_roots_and_carry_points() {
    for (name, events, bounds) in [
        ("wiki20k", wiki20k(), [0.13, 0.99, 1.73]),
        ("skew21k", skew21k(), [1.75, 2.69, 3.74]),
    ] {
        let costs = sweep(name, &events);
        for (div, ((roots, carry), bound)) in [1, 2, 4].iter().zip(costs.iter().zip(bounds)) {
            assert!(
                roots + carry <= bound,
                "{name} at 1/{div} span size: roots and carry points are \
                 {:.3} B/event (bound {bound})",
                roots + carry
            );
        }
        // More spans, more roots.
        assert!(
            costs.windows(2).all(|w| w[1].0 > w[0].0),
            "{name}: {costs:?}"
        );
    }
}

/// Rows, key-plus-value bytes, and a digest of every row.
type Digest = (usize, usize, u64);

/// Direction 2, appends cost what they add: every append starts a
/// span, and every span stores a root. Stored in full, the roots of
/// 100-event appends made the index 13.6× (`wiki20k`, 172.60 B/event)
/// and 11.6× (`skew21k`, 173.61) the one-shot build; each stored as a
/// residual against its Fenwick base's root, 1.65× and 2.22× (500-event
/// appends: 1.19× and 1.21×). Since block 0's bases name span 1 where
/// they named the empty span 0 (layout tag 15), spans 2, 4, 8 and 16
/// store residuals too: 1.43× and 2.05× (0.98× and 1.07×), held
/// within 2.25× and 1.15×. Printed: whether the 2× target is met too.
#[test]
fn small_appends_cost_at_most_1_15x_at_500_and_2_25x_at_100_events() {
    for (name, events) in [("wiki20k", wiki20k()), ("skew21k", skew21k())] {
        let per_event = |batch| {
            let svc = build_in_batches(&events, TgiConfig::default(), batch);
            let tgi = svc.pin();
            (
                tgi.storage_bytes() as f64 / events.len() as f64,
                tgi.span_count(),
            )
        };
        let (one_shot, _) = per_event(None);
        for (batch, bound) in [(500, 1.15), (100, 2.25)] {
            let (bytes, spans) = per_event(Some(batch));
            let ratio = bytes / one_shot;
            println!(
                "{name}: one-shot {one_shot:.2} B/event; 40 % + {batch}-event appends \
                 {bytes:.2} B/event over {spans} spans, {ratio:.2}× (2× target met: {})",
                ratio <= 2.0
            );
            assert!(
                ratio <= bound,
                "{name}: {batch}-event appends store {ratio:.2}× the one-shot build (bound {bound}×)"
            );
        }
    }
}

/// Rows a cold recursive 1-hop reads, summed over 40 probes spread over
/// the second half of the trace, each centred on the first node its
/// event touches at the event's time, on `events` built at 40 % plus
/// appends of `batch` events.
fn recursive_hop_rows(events: &[Event], batch: usize) -> u64 {
    let svc = build_in_batches(events, TgiConfig::default(), Some(batch));
    svc.set_read_cache_budget(0);
    let tgi = svc.pin();
    let rows_read = || -> u64 {
        let stats = tgi.store().stats_snapshot();
        stats.iter().map(|m| m.rows_read).sum()
    };
    let before = rows_read();
    let half = events.len() / 2;
    for i in 0..40 {
        let e = &events[half + i * (events.len() - half) / 40];
        let (center, _) = e.kind.touched();
        tgi.try_khop_with(center, e.time, 1, KhopStrategy::Recursive)
            .unwrap();
    }
    rows_read() - before
}

/// What a recursive hop reads of its span's base roots, pinned: block
/// 0's spans sum span 1's root where they summed the empty span 0's,
/// which no row held, and a micro-partition fetch reads a base root
/// only in the parts that can hold its nodes — under hashing, when the
/// base's part count and those of the bases after it are multiples of
/// the span's, only the parts its nodes hash to. Rows per op at 2 000-, 500- and 100-event appends,
/// layout tag 14 → 15: `wiki20k` 17.85 / 17.02 / 23.93 → 20.30 / 17.55
/// / 18.15 (22.12 / 21.02 / 24.27 without the part rule), `skew21k`
/// 17.65 / 13.43 / 16.25 → 21.48 / 17.25 / 16.55 (one part per `sid`,
/// so the part rule reads what it read). A mismatch prints the new
/// table.
#[test]
fn recursive_hop_rows_are_pinned() {
    let pinned: [(&str, usize, u64); 6] = [
        ("wiki20k", 2_000, 812),
        ("wiki20k", 500, 702),
        ("wiki20k", 100, 726),
        ("skew21k", 2_000, 859),
        ("skew21k", 500, 690),
        ("skew21k", 100, 662),
    ];
    let (wiki, skew) = (wiki20k(), skew21k());
    let got: Vec<_> = pinned
        .iter()
        .map(|&(name, batch, _)| {
            let events = if name == "wiki20k" { &wiki } else { &skew };
            (name, batch, recursive_hop_rows(events, batch))
        })
        .collect();
    for (name, batch, rows) in &got {
        println!(
            "{name} at {batch}-event appends: {:.2} rows per recursive 1-hop",
            *rows as f64 / 40.0
        );
    }
    if got != pinned {
        for (name, batch, rows) in &got {
            println!("        ({name:?}, {batch}, {rows}),");
        }
        panic!("recursive 1-hop rows changed: the new table is above");
    }
}

/// Build as [`build_in_batches`] does and return the row count, the
/// key-plus-value bytes and a digest of every `(machine, key, value)`
/// the store holds.
fn row_digest(events: &[Event], cfg: TgiConfig, batch: Option<usize>) -> Digest {
    let svc = build_in_batches(events, cfg, batch);
    let (mut rows, mut bytes, mut h) = (0, 0, FxHasher::default());
    for (machine, content) in svc.store().content_rows().into_iter().enumerate() {
        for (key, value) in content {
            // Fed word by word, so the digest is of the bytes alone.
            h.write_u64(machine as u64);
            for part in [&key[..], &value[..]] {
                h.write_u64(part.len() as u64);
                h.write(part);
                bytes += part.len();
            }
            rows += 1;
        }
    }
    (rows, bytes, h.finish())
}

/// Every stored row, pinned: a change that claims to leave the row
/// grammar alone must leave this table alone, byte for byte. It moves
/// only with `LAYOUT_TAG`; a mismatch prints the new table. The
/// replicated builds are the ones whose span encoders each replay the
/// whole graph, other partitions' nodes included; the `churn24k`
/// builds are the ones that store normalized `RemoveNode`s.
#[test]
fn every_stored_row_is_pinned() {
    use PartitionStrategy::{Locality, Random};
    const REPL: PartitionStrategy = Locality {
        replicate_boundary: true,
    };
    #[rustfmt::skip]
    let pinned: [(&str, PartitionStrategy, Option<usize>, Digest); 11] = [
        ("wiki20k", Random, None, (3499, 304764, 0x3df4f5c3010cef58)),
        ("wiki20k", Random, Some(2000), (8491, 362699, 0x5ee4acfd70acac21)),
        ("wiki20k", Random, Some(100), (16617, 591080, 0x44e314a400a94e22)),
        ("skew21k", Random, None, (3213, 363817, 0x0068fa75f27473d0)),
        ("skew21k", Random, Some(2000), (11399, 462389, 0x243f5a287751cdda)),
        ("skew21k", Random, Some(100), (26691, 1077333, 0xfddda7a28c560e1f)),
        ("skew21k", REPL, None, (3365, 2319409, 0x369df1214f57ba2f)),
        ("skew21k", REPL, Some(2000), (11575, 2415020, 0x720abe7fca1bee24)),
        ("churn24k", Random, None, (6644, 509945, 0x4feb6d4ab36fec7e)),
        ("churn24k", Random, Some(2000), (13590, 616161, 0x3c65519f8999a593)),
        ("churn24k", REPL, Some(2000), (13977, 6088704, 0x703eb84d4c56d6ef)),
    ];
    let (wiki, skew, churn) = (wiki20k(), skew21k(), churn24k());
    let got: Vec<_> = pinned
        .iter()
        .map(|&(name, strategy, batch, _)| {
            let events = match name {
                "wiki20k" => &wiki,
                "skew21k" => &skew,
                _ => &churn,
            };
            let cfg = TgiConfig::default().with_strategy(strategy);
            (name, strategy, batch, row_digest(events, cfg, batch))
        })
        .collect();
    if got != pinned {
        for (name, strategy, batch, (rows, bytes, digest)) in &got {
            let strategy = if *strategy == Random {
                "Random"
            } else {
                "REPL"
            };
            println!(
                "        ({name:?}, {strategy}, {batch:?}, ({rows}, {bytes}, {digest:#018x})),"
            );
        }
        panic!("the stored rows changed: the new table is above");
    }
}
