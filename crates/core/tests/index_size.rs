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
//! Three encodings keep a row from spelling what its reader can derive,
//! and each has the bound it trips when it is undone:
//!
//! * the **record head** — one byte for an edge-list's shape and both
//!   counts — is the tree-delta bound: most tree records are one edge
//!   or one pair, and with an `edge_count` varint, a shape byte and an
//!   `attr_count` varint in front of each the tree rows are 11.72 and
//!   21.34 B/event, over it;
//! * the **chain rows** — chunk gaps only: `tsid` from the key, `pid`
//!   from the partition map, when the events happened from the span's
//!   checkpoints, how many entries from the row's length — are the
//!   `Versions` bound: with a time gap per entry and an entry count in
//!   front (the rows before PR 25) they are 2.45 and 3.55 B/event, and
//!   with `tsid` and `pid` in every entry too (before PR 24) 3.95 and
//!   5.82;
//! * the **weightless eventlists** — no weights column when every
//!   weighted event is the default edge — have an assertion of their
//!   own (`wiki20k` has no other kind of edge, so no row of it may
//!   spell the column) and otherwise show in the total.
//!
//! The bound on the total is there so that a regression in any other
//! table shows as well; the `AttrIndex` bound holds the secondary
//! index to its one row kind — the bare-key rows it once carried beside
//! the value-term rows were 4.17 of its 6.16 B/event on `skew21k`, to
//! answer a question the version chain already answers.
//!
//! Stored bytes are exact for a dataset and a config — no timing, no
//! thread-count dependence — so the bounds sit ~15 % above the
//! measured values printed by the test
//! (`cargo test --release -p hgs-core --test index_size -- --nocapture`).

mod common;

use hgs_core::meta::{AUX_BASE, ELIST_BASE};
use hgs_core::{Tgi, TgiConfig};
use hgs_datagen::{SkewedLabels, WikiGrowth};
use hgs_delta::{Event, TERM_KIND_VALUE};
use hgs_store::{StoreConfig, Table};

/// Stored value bytes per event, by table; `Deltas` rows split by what
/// their `did` addresses.
#[derive(Debug, Default)]
struct Census {
    tree_deltas: f64,
    eventlists: f64,
    aux_replicas: f64,
    versions: f64,
    attr_index: f64,
    metadata: f64,
    total: f64,
    /// Eventlist rows, and how many of them spell a weights column.
    eventlist_rows: usize,
    weighted_eventlist_rows: usize,
}

fn census(events: &[Event]) -> Census {
    let tgi = Tgi::try_build(TgiConfig::default(), StoreConfig::new(4, 1), events).unwrap();
    let per_event = |bytes: usize| bytes as f64 / events.len() as f64;
    let mut c = Census {
        total: per_event(tgi.storage_bytes()),
        ..Census::default()
    };
    for (key, value) in tgi.store().content_rows().into_iter().flatten() {
        // Namespaced key: table tag, then (for `Deltas`) the 20-byte
        // `DeltaKey` — tsid, sid, did (big-endian u64), pid.
        let slot = match key[0] {
            t if t == Table::Deltas.tag() => {
                let did = u64::from_be_bytes(key[9..17].try_into().unwrap());
                if did >= AUX_BASE {
                    &mut c.aux_replicas
                } else if did >= ELIST_BASE {
                    &mut c.eventlists
                } else {
                    &mut c.tree_deltas
                }
            }
            t if t == Table::Versions.tag() => &mut c.versions,
            t if t == Table::AttrIndex.tag() => &mut c.attr_index,
            _ => &mut c.metadata,
        };
        *slot += per_event(value.len());
        if key[0] == Table::AttrIndex.tag() {
            // Term key: the kind tag, then the length-prefixed term.
            // Value-term rows are the only kind (`TERM_KIND_KEY` rows
            // are no longer written).
            assert_eq!(key[1], TERM_KIND_VALUE, "an index row of a retired kind");
        }
    }
    for (_, row) in common::stored_eventlist_rows(tgi.store()) {
        let weights = &common::RowSegments::parse(&row).segs[common::ELIST_SEG_WEIGHTS].1;
        c.eventlist_rows += 1;
        c.weighted_eventlist_rows += !weights.is_empty() as usize;
    }
    let parts =
        c.tree_deltas + c.eventlists + c.aux_replicas + c.versions + c.attr_index + c.metadata;
    assert!((parts - c.total).abs() < 1e-6, "census covers every row");
    c
}

/// Build, print the per-table census and hold the tree-delta rows to
/// `bound`, the `Versions` rows to `versions_bound` and the whole index
/// to `total_bound` bytes per event.
fn gate(name: &str, events: &[Event], bound: f64, versions_bound: f64, total_bound: f64) -> Census {
    let c = census(events);
    println!(
        "{name} ({} events), stored bytes/event: tree deltas {:.2}, eventlists {:.2}, \
         aux {:.2}, Versions {:.2}, AttrIndex {:.2}, metadata {:.2}, total {:.2}; \
         {} of {} eventlist rows spell weights",
        events.len(),
        c.tree_deltas,
        c.eventlists,
        c.aux_replicas,
        c.versions,
        c.attr_index,
        c.metadata,
        c.total,
        c.weighted_eventlist_rows,
        c.eventlist_rows
    );
    assert!(
        c.tree_deltas <= bound,
        "{name}: tree-delta rows grew to {:.2} B/event (bound {bound})",
        c.tree_deltas
    );
    assert!(
        c.versions <= versions_bound,
        "{name}: Versions rows grew to {:.2} B/event (bound {versions_bound})",
        c.versions
    );
    assert!(
        c.total <= total_bound,
        "{name}: the index grew to {:.2} B/event (bound {total_bound})",
        c.total
    );
    c
}

// Bounds: ~15 % above the measured bytes per event — tree deltas 9.56
// and 18.31, `Versions` 0.75 and 1.13, totals 19.64 and 31.25,
// `skew21k`'s `AttrIndex` rows 1.99.

#[test]
fn wiki_tree_delta_rows_stay_factored() {
    let events = WikiGrowth::sized(20_000).generate();
    let c = gate("wiki20k", &events, 11.0, 0.87, 22.6);
    // Every edge of the trace is the default one.
    assert!(c.eventlist_rows > 0);
    assert_eq!(
        c.weighted_eventlist_rows, 0,
        "wiki20k: an eventlist row of default edges spells its weights"
    );
}

#[test]
fn skew_tree_delta_rows_stay_factored() {
    let events = SkewedLabels {
        nodes: 1_600,
        edge_events: 12_000,
        attr_churn: 6_000,
        ..SkewedLabels::default()
    }
    .generate();
    let c = gate("skew21k", &events, 21.1, 1.3, 35.9);
    assert!(c.attr_index > 0.0, "the labelled build carries index rows");
    assert!(
        c.attr_index <= 2.3,
        "skew21k: AttrIndex rows grew to {:.2} B/event (bound 2.3)",
        c.attr_index
    );
}
