//! `TgiHandler` — the TAF-side connection to a TGI (§5.2 *Data
//! Fetch*).
//!
//! Mirrors the paper's `TGIHandler` / lazy fetch design: a query is a
//! chain of specification calls (`timeslice`, `select_ids`, `khop`)
//! that build a retrieval plan; nothing touches the store until
//! `try_fetch()`, which executes the **parallel fetch
//! protocol** of Fig. 10 — each TAF worker pulls whole horizontal
//! partitions (or node groups) directly from the store shards, and
//! the results land partitioned across workers without a coordinator
//! bottleneck.
//!
//! Fetches follow the same error-handling contract as the TGI query
//! layer ([`hgs_core::query`]): `try_fetch()` surfaces
//! [`StoreError::Unavailable`] when every replica of a chunk the plan
//! needs is down, instead of panicking mid-analytics. It is the only
//! spelling of a fetch — a healthy-cluster caller that wants a panic
//! writes `.expect(..)` on the result.
//!
//! A handler binds a live [`TgiService`] ([`TgiHandler::serving`]):
//! every fetch pins the latest published watermark once at entry and
//! runs all of its sub-queries against that one [`TgiView`], so an
//! analytics answer never mixes two watermarks even while the service
//! ingests.

use std::sync::Arc;

use hgs_core::{NodeHistory, TgiService, TgiView};
use hgs_delta::{AttrValue, Delta, FxHashSet, NodeId, TimeRange};
use hgs_store::{parallel_steal, StoreError};

use crate::node_t::NodeT;
use crate::son::SoN;
use crate::sots::SoTS;
use crate::subgraph_t::SubgraphT;

/// Handle binding a TGI to a TAF worker pool.
#[derive(Clone)]
pub struct TgiHandler {
    service: Arc<TgiService>,
    workers: usize,
}

impl TgiHandler {
    /// Connect to a live [`TgiService`] with `workers` analytics
    /// workers (the paper's `ma`): every fetch pins the latest
    /// published watermark **once at entry** and runs all of its
    /// sub-queries against that one view, so an analytics answer is
    /// internally consistent even while the service ingests.
    pub fn serving(service: Arc<TgiService>, workers: usize) -> TgiHandler {
        TgiHandler {
            service,
            workers: workers.max(1),
        }
    }

    /// Pin a read view: the latest published watermark
    /// ([`TgiService::pin`]).
    pub fn pin(&self) -> Arc<TgiView> {
        self.service.pin()
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Start a lazy SoN query over the full indexed history.
    pub fn son(&self) -> SonQuery {
        SonQuery {
            handler: self.clone(),
            range: TimeRange::new(0, self.pin().end_time().max(1)),
            ids: None,
            attr_eq: None,
        }
    }

    /// Start a lazy SoTS query (k-hop subgraphs around roots).
    pub fn sots(&self, k: usize) -> SotsQuery {
        SotsQuery {
            handler: self.clone(),
            range: TimeRange::new(0, self.pin().end_time().max(1)),
            roots: None,
            roots_attr_eq: None,
            k,
        }
    }
}

/// Lazy SoN retrieval specification.
pub struct SonQuery {
    handler: TgiHandler,
    range: TimeRange,
    ids: Option<Vec<NodeId>>,
    attr_eq: Option<(String, String)>,
}

impl SonQuery {
    /// Restrict the temporal scope (Timeslice pushdown).
    pub fn timeslice(mut self, range: TimeRange) -> SonQuery {
        self.range = range;
        self
    }

    /// Restrict to an explicit node set (Select pushdown: only those
    /// nodes' micro-partitions are fetched).
    pub fn select_ids(mut self, ids: Vec<NodeId>) -> SonQuery {
        self.ids = Some(ids);
        self
    }

    /// Attribute-equality Selection pushdown: keep only nodes whose
    /// attribute `key` equals `value` at the range's last timepoint
    /// (the [`SoN::select_attr`] predicate, pushed into the fetch).
    /// [`TgiView::try_nodes_matching_at`](hgs_core::TgiView::try_nodes_matching_at)
    /// names the matching nodes — from one index row with secondary
    /// indexes on — and only their micro-partitions are fetched. When
    /// an explicit [`SonQuery::select_ids`] set is also given, that
    /// set is fetched and the predicate runs as a post-filter.
    pub fn select_attr_eq(mut self, key: &str, value: &str) -> SonQuery {
        self.attr_eq = Some((key.to_string(), value.to_string()));
        self
    }

    /// Execute the fetch (the first statement after the specification
    /// instructions, per §5.2). Every worker's store failure is
    /// propagated, so a degraded cluster yields
    /// [`StoreError::Unavailable`] instead of a partial SoN (or a
    /// worker panic).
    pub fn try_fetch(self) -> Result<SoN, StoreError> {
        // Pin ONCE at entry: every sub-fetch below answers from this
        // one watermarked view, so the SoN is internally consistent
        // even while a service-backed source keeps appending.
        let pinned = self.handler.pin();
        // The workers are the parallelism: each one's sub-queries read
        // at one client instead of nesting a second fan-out.
        let tgi = &pinned.with_clients(1);
        let workers = self.handler.workers;
        let range = self.range;
        let (ids, post_filter) = match (self.ids, self.attr_eq) {
            // An explicit id set stays authoritative for the fetch; the
            // predicate still applies, as a post-filter.
            (Some(ids), pred) => (Some(ids), pred),
            // Pushdown: the core names the matching nodes from one
            // secondary-index row, so only their rows are fetched.
            (None, Some((key, value))) => {
                let t = range.end.saturating_sub(1);
                let ids = tgi.try_nodes_matching_at(&key, &AttrValue::Text(value), t)?;
                (Some(ids), None)
            }
            (None, None) => (None, None),
        };
        let nodes: Vec<NodeT> = match ids {
            Some(ids) => {
                // Select pushdown: per-node history fetches, spread
                // over the workers.
                let fetched: Vec<Result<NodeT, StoreError>> = parallel_steal(ids, workers, |id| {
                    tgi.try_node_history(id, range).map(NodeT::new)
                });
                fetched.into_iter().collect::<Result<Vec<_>, _>>()?
            }
            None => {
                // Whole-graph fetch: one job per horizontal partition,
                // workers pulling directly from the store (Fig. 10).
                let sids: Vec<u32> = (0..tgi.config().horizontal_partitions).collect();
                let fetched: Vec<Result<Vec<NodeHistory>, StoreError>> =
                    parallel_steal(sids, workers, |sid| {
                        tgi.try_node_histories_for_sid(sid, range)
                    });
                let mut nodes = Vec::new();
                for hs in fetched {
                    nodes.extend(hs?.into_iter().map(NodeT::new));
                }
                nodes
            }
        };
        let son = SoN::new(nodes, range, workers);
        Ok(match post_filter {
            Some((key, value)) => son.select_attr(&key, &value),
            None => son,
        })
    }
}

/// Lazy SoTS retrieval specification.
pub struct SotsQuery {
    handler: TgiHandler,
    range: TimeRange,
    roots: Option<Vec<NodeId>>,
    roots_attr_eq: Option<(String, String)>,
    k: usize,
}

impl SotsQuery {
    /// Restrict the temporal scope.
    pub fn timeslice(mut self, range: TimeRange) -> SotsQuery {
        self.range = range;
        self
    }

    /// Choose the subgraph roots (default: every node alive at the
    /// range start).
    pub fn roots(mut self, roots: Vec<NodeId>) -> SotsQuery {
        self.roots = Some(roots);
        self
    }

    /// Root the subgraphs at the nodes whose attribute `key` equals
    /// `value` at the range start. The roots come from one index row
    /// instead of a materialized snapshot
    /// ([`TgiView::try_nodes_matching_at`](hgs_core::TgiView::try_nodes_matching_at)).
    /// An explicit [`SotsQuery::roots`] set takes precedence.
    pub fn roots_matching(mut self, key: &str, value: &str) -> SotsQuery {
        self.roots_attr_eq = Some((key.to_string(), value.to_string()));
        self
    }

    /// Execute: for each root, fetch its k-hop membership at the range
    /// start, the members' initial states, and the members' in-range
    /// events. Surfaces [`StoreError::Unavailable`] from any worker's
    /// k-hop or history fetch instead of panicking mid-analytics.
    pub fn try_fetch(self) -> Result<SoTS, StoreError> {
        // Pin ONCE at entry (same discipline as `SonQuery::try_fetch`).
        let pinned = self.handler.pin();
        let tgi = &pinned.with_clients(1);
        let workers = self.handler.workers;
        let range = self.range;
        let k = self.k;
        let roots: Vec<NodeId> = match (self.roots, self.roots_attr_eq) {
            (Some(r), _) => r,
            (None, Some((key, value))) => {
                tgi.try_nodes_matching_at(&key, &AttrValue::Text(value.clone()), range.start)?
            }
            // Not inside the worker fan-out: the root snapshot reads at
            // the pinned view's own width.
            (None, None) => pinned.try_snapshot(range.start)?.sorted_ids(),
        };
        let subs: Vec<Result<SubgraphT, StoreError>> = parallel_steal(roots, workers, |root| {
            // Strategy picked per root from the Table-1 cost
            // estimators (recursive for small k, via-snapshot
            // for deep neighborhoods).
            let initial: Delta = tgi.try_khop(root, range.start, k)?;
            let members: FxHashSet<NodeId> = initial.ids().collect();
            // Events touching two members are returned by both
            // members' histories; keep a single copy. An event
            // is a duplicate iff its *other* endpoint is a
            // member we already collected.
            let mut collected: FxHashSet<NodeId> = FxHashSet::default();
            let mut events = Vec::new();
            let mut member_list: Vec<NodeId> = members.iter().copied().collect();
            member_list.sort_unstable();
            for m in member_list {
                let h = tgi.try_node_history(m, range)?;
                for e in h.events {
                    let (a, b) = e.kind.touched();
                    let other = if a == m { b } else { Some(a) };
                    let dup = other.is_some_and(|o| members.contains(&o) && collected.contains(&o));
                    if !dup {
                        events.push(e);
                    }
                }
                collected.insert(m);
            }
            Ok(SubgraphT::new(root, members, initial, events, range))
        });
        let subs = subs.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(SoTS::new(subs, range, workers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_core::{TgiConfig, TgiService};
    use hgs_datagen::LabeledChurn;
    use hgs_delta::Delta;
    use hgs_store::StoreConfig;

    fn setup() -> (Vec<hgs_delta::Event>, TgiHandler) {
        let events = LabeledChurn {
            nodes: 120,
            edge_events: 900,
            label_flips: 300,
            seed: 9,
        }
        .generate();
        let tgi = TgiService::try_build(
            TgiConfig {
                events_per_timespan: 700,
                eventlist_size: 80,
                partition_size: 40,
                horizontal_partitions: 2,
                ..TgiConfig::default()
            },
            StoreConfig::new(2, 1),
            &events,
        )
        .unwrap();
        (events, TgiHandler::serving(tgi, 2))
    }

    #[test]
    fn full_son_fetch_covers_graph() {
        let (events, h) = setup();
        let end = events.last().unwrap().time;
        let son = h
            .son()
            .timeslice(TimeRange::new(0, end + 1))
            .try_fetch()
            .unwrap();
        let final_state = Delta::snapshot_by_replay(&events, end);
        assert_eq!(son.len(), final_state.cardinality());
        // Spot-check a node's final state through the SoN.
        let id = final_state.sorted_ids()[3];
        let got = son.get(id).unwrap().version_at(end).unwrap();
        assert_eq!(&got, final_state.node(id).unwrap());
    }

    #[test]
    fn select_pushdown_fetches_only_requested() {
        let (events, h) = setup();
        let end = events.last().unwrap().time;
        let before = h.pin().store().stats_snapshot();
        let son = h
            .son()
            .timeslice(TimeRange::new(end / 2, end + 1))
            .select_ids(vec![1, 2, 3])
            .try_fetch()
            .unwrap();
        let diff = hgs_store::SimStore::stats_since(&h.pin().store().stats_snapshot(), &before);
        let rows: u64 = diff.iter().map(|m| m.rows_read).sum();
        assert_eq!(son.len(), 3);
        assert!(
            rows < 200,
            "pushdown must avoid a full-graph read, rows={rows}"
        );
    }

    #[test]
    fn son_fetch_matches_per_node_histories() {
        let (events, h) = setup();
        let end = events.last().unwrap().time;
        let range = TimeRange::new(end / 3, end);
        let son = h.son().timeslice(range).try_fetch().unwrap();
        for id in [0u64, 5, 17, 40] {
            let direct = h.pin().try_node_history(id, range).unwrap();
            let via_son = son.get(id).expect("node in SoN");
            assert_eq!(via_son.initial(), direct.initial.as_ref(), "initial {id}");
            assert_eq!(via_son.events(), &direct.events[..], "events {id}");
        }
        let _ = events;
    }

    #[test]
    fn sots_fetch_builds_khop_subgraphs() {
        let (events, h) = setup();
        let end = events.last().unwrap().time;
        let range = TimeRange::new(end / 2, end);
        let sots = h
            .sots(1)
            .timeslice(range)
            .roots(vec![0, 1, 2])
            .try_fetch()
            .unwrap();
        assert_eq!(sots.len(), 3);
        let state = Delta::snapshot_by_replay(&events, range.start);
        for sub in sots.subgraphs() {
            let want: FxHashSet<NodeId> = state
                .node(sub.root)
                .map(|n| n.all_neighbors().chain(std::iter::once(sub.root)).collect())
                .unwrap_or_default();
            let got: FxHashSet<NodeId> = sub.initial().ids().collect();
            assert_eq!(got, want, "membership of root {}", sub.root);
        }
    }

    #[test]
    fn attr_pushdown_matches_full_fetch_filter() {
        let (events, h) = setup();
        let end = events.last().unwrap().time;
        let range = TimeRange::new(0, end + 1);
        for label in ["Author", "Paper", "Venue"] {
            let full = h
                .son()
                .timeslice(range)
                .try_fetch()
                .unwrap()
                .select_attr("EntityType", label);
            let pushed = h
                .son()
                .timeslice(range)
                .select_attr_eq("EntityType", label)
                .try_fetch()
                .unwrap();
            let want: Vec<NodeId> = full.nodes().iter().map(|n| n.id()).collect();
            let got: Vec<NodeId> = pushed.nodes().iter().map(|n| n.id()).collect();
            assert_eq!(got, want, "pushdown answer for {label}");
            assert!(!got.is_empty(), "degenerate: no {label} nodes at all");
        }
    }

    #[test]
    fn attr_pushdown_reads_fewer_bytes_than_full_fetch() {
        // A selective predicate — 5 "Rare" nodes out of 150 — is the
        // workload the pushdown targets: one index row plus the five
        // nodes' micro-partitions instead of the whole graph.
        let mut events = Vec::new();
        for id in 0..150u64 {
            events.push(hgs_delta::Event::new(
                id,
                hgs_delta::EventKind::AddNode { id },
            ));
            events.push(hgs_delta::Event::new(
                id,
                hgs_delta::EventKind::SetNodeAttr {
                    id,
                    key: "EntityType".into(),
                    value: hgs_delta::AttrValue::Text(
                        if id < 5 { "Rare" } else { "Common" }.into(),
                    ),
                },
            ));
        }
        for i in 0..1_000u64 {
            let (a, b) = ((i * 7) % 150, (i * 13 + 1) % 150);
            if a != b {
                events.push(hgs_delta::Event::new(
                    150 + i,
                    hgs_delta::EventKind::AddEdge {
                        src: a,
                        dst: b,
                        weight: 1.0,
                        directed: false,
                    },
                ));
            }
        }
        // Two identically built TGIs, each with a cold session cache,
        // so the byte counters compare the two plans fairly.
        let fetched_bytes = |pushdown: bool| {
            let tgi = TgiService::try_build(
                TgiConfig {
                    events_per_timespan: 700,
                    eventlist_size: 80,
                    partition_size: 40,
                    horizontal_partitions: 2,
                    ..TgiConfig::default()
                },
                StoreConfig::new(2, 1),
                &events,
            )
            .unwrap();
            let h = TgiHandler::serving(tgi, 2);
            let end = events.last().unwrap().time;
            let range = TimeRange::new(0, end + 1);
            let before = h.pin().store().stats_snapshot();
            let son = if pushdown {
                h.son()
                    .timeslice(range)
                    .select_attr_eq("EntityType", "Rare")
                    .try_fetch()
                    .unwrap()
            } else {
                h.son().timeslice(range).try_fetch().unwrap()
            };
            let diff = hgs_store::SimStore::stats_since(&h.pin().store().stats_snapshot(), &before);
            (son.len(), diff.iter().map(|m| m.bytes_read).sum::<u64>())
        };
        let (pushed_len, pushed_bytes) = fetched_bytes(true);
        let (full_len, full_bytes) = fetched_bytes(false);
        assert_eq!(pushed_len, 5, "exactly the Rare nodes");
        assert_eq!(full_len, 150);
        assert!(
            pushed_bytes < full_bytes,
            "pushdown read {pushed_bytes} bytes, full fetch {full_bytes}"
        );
    }

    #[test]
    fn attr_pushdown_respects_explicit_id_set() {
        let (events, h) = setup();
        let end = events.last().unwrap().time;
        let range = TimeRange::new(0, end + 1);
        let all = h
            .son()
            .timeslice(range)
            .select_attr_eq("EntityType", "Author")
            .try_fetch()
            .unwrap();
        let ids: Vec<NodeId> = (0..10).collect();
        let narrowed = h
            .son()
            .timeslice(range)
            .select_ids(ids.clone())
            .select_attr_eq("EntityType", "Author")
            .try_fetch()
            .unwrap();
        for n in narrowed.nodes() {
            assert!(ids.contains(&n.id()), "fetched outside the id set");
            assert!(all.get(n.id()).is_some(), "kept a non-Author node");
        }
    }

    #[test]
    fn sots_roots_matching_picks_labelled_roots() {
        let (events, h) = setup();
        let end = events.last().unwrap().time;
        let range = TimeRange::new(end / 2, end + 1);
        let state = Delta::snapshot_by_replay(&events, range.start);
        let mut want: Vec<NodeId> = state
            .iter()
            .filter(|n| {
                n.attrs
                    .get("EntityType")
                    .and_then(|v| v.as_text())
                    .is_some_and(|t| t == "Venue")
            })
            .map(|n| n.id)
            .collect();
        want.sort_unstable();
        let sots = h
            .sots(1)
            .timeslice(range)
            .roots_matching("EntityType", "Venue")
            .try_fetch()
            .unwrap();
        let mut got: Vec<NodeId> = sots.subgraphs().iter().map(|s| s.root).collect();
        got.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty(), "degenerate: no Venue roots at all");
    }

    #[test]
    fn attr_pushdown_surfaces_unavailability() {
        let (_, h) = setup();
        let end = h.pin().end_time();
        let range = TimeRange::new(0, end.max(2));
        for m in 0..h.pin().store().machine_count() {
            h.pin().store().fail_machine(m);
        }
        assert!(matches!(
            h.son()
                .timeslice(range)
                .select_attr_eq("EntityType", "Author")
                .try_fetch(),
            Err(StoreError::Unavailable { .. })
        ));
        assert!(matches!(
            h.sots(1)
                .timeslice(range)
                .roots_matching("EntityType", "Author")
                .try_fetch(),
            Err(StoreError::Unavailable { .. })
        ));
        for m in 0..h.pin().store().machine_count() {
            h.pin().store().heal_machine(m);
        }
        assert!(h
            .son()
            .timeslice(range)
            .select_attr_eq("EntityType", "Author")
            .try_fetch()
            .is_ok());
    }

    #[test]
    fn try_fetch_surfaces_unavailability_instead_of_panicking() {
        let (_, h) = setup();
        let end = h.pin().end_time();
        let range = TimeRange::new(0, end.max(2));
        for m in 0..h.pin().store().machine_count() {
            h.pin().store().fail_machine(m);
        }
        assert!(matches!(
            h.son().timeslice(range).try_fetch(),
            Err(StoreError::Unavailable { .. })
        ));
        assert!(matches!(
            h.son()
                .timeslice(range)
                .select_ids(vec![1, 2, 3])
                .try_fetch(),
            Err(StoreError::Unavailable { .. })
        ));
        assert!(matches!(
            h.sots(1).timeslice(range).roots(vec![0, 1]).try_fetch(),
            Err(StoreError::Unavailable { .. })
        ));
        // Default roots need a snapshot too: still an Err, not a panic.
        assert!(matches!(
            h.sots(1).timeslice(range).try_fetch(),
            Err(StoreError::Unavailable { .. })
        ));
        // Healed cluster serves the same fetch again.
        for m in 0..h.pin().store().machine_count() {
            h.pin().store().heal_machine(m);
        }
        assert!(h.son().timeslice(range).try_fetch().is_ok());
    }

    #[test]
    fn service_backed_fetch_pins_one_watermark_under_ingest() {
        let events = LabeledChurn {
            nodes: 120,
            edge_events: 900,
            label_flips: 300,
            seed: 9,
        }
        .generate();
        let split = events.len() / 2;
        // The service starts with the first half of the history...
        let svc = hgs_core::TgiService::try_build(
            TgiConfig {
                events_per_timespan: 400,
                eventlist_size: 80,
                partition_size: 40,
                horizontal_partitions: 2,
                ..TgiConfig::default()
            },
            StoreConfig::new(2, 1),
            &events[..split],
        )
        .unwrap();
        let h = TgiHandler::serving(Arc::clone(&svc), 2);
        let w0 = svc.watermark();
        let range = TimeRange::new(0, svc.pin().end_time() + 1);
        let before = h.son().timeslice(range).try_fetch().unwrap();
        // ...and keeps answering the same SoN for the same timeslice
        // while the second half streams in: each fetch pins whatever
        // watermark is current, and sealed history never changes.
        std::thread::scope(|s| {
            let svc = &svc;
            let events = &events;
            s.spawn(move || {
                for batch in events[split..].chunks(200) {
                    svc.try_append_events(batch).unwrap();
                }
            });
            for _ in 0..5 {
                let again = h.son().timeslice(range).try_fetch().unwrap();
                assert_eq!(again.len(), before.len());
                for n in before.nodes() {
                    let b = again.get(n.id()).expect("node vanished mid-ingest");
                    assert_eq!(b.events(), n.events(), "history of {}", n.id());
                }
                std::thread::yield_now();
            }
        });
        assert!(svc.watermark() > w0, "ingest advanced the watermark");
        // A fresh query (default timeslice re-reads the pinned end
        // time) now covers the full history.
        let full = h.son().try_fetch().unwrap();
        let final_state = Delta::snapshot_by_replay(&events, events.last().unwrap().time);
        assert_eq!(full.len(), final_state.cardinality());
    }

    #[test]
    fn worker_counts_agree() {
        let (_, h) = setup();
        let end = h.pin().end_time();
        let r = TimeRange::new(0, end);
        let son1 = SonQuery {
            handler: TgiHandler {
                workers: 1,
                ..h.clone()
            },
            range: r,
            ids: None,
            attr_eq: None,
        }
        .try_fetch()
        .unwrap();
        let son4 = SonQuery {
            handler: TgiHandler {
                workers: 4,
                ..h.clone()
            },
            range: r,
            ids: None,
            attr_eq: None,
        }
        .try_fetch()
        .unwrap();
        assert_eq!(son1.len(), son4.len());
        let d1 = son1.node_compute(|n| n.change_count());
        let d4 = son4.node_compute(|n| n.change_count());
        assert_eq!(d1, d4);
    }
}
