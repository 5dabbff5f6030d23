//! The one file that names product query functions.
//!
//! Everything else in the benchmark goes through these thin wrappers,
//! so a PR that collapses the query surface (ROADMAP direction 1) has
//! exactly one file to re-point. Only the surface that direction
//! intends to keep is used — see the list in `benchmark/README.md`.
//! Layer probes (`probes.rs`) call codec / store / partition functions
//! directly; those are layer internals, not the query surface.

use std::sync::Arc;

use hgs_core::{
    BuildError, CacheStats, NodeHistory, PlanSummary, TgiConfig, TgiService, TgiView, LABEL_KEY,
};
use hgs_delta::{AttrValue, Delta, Event, NodeId, StaticNode, Time, TimeRange};
use hgs_graph::algo;
use hgs_store::{SimStore, StoreConfig, StoreError};
use hgs_taf::{SoN, SoTS, TgiHandler};

pub const STORE_MACHINES: usize = 4;
pub const STORE_REPLICATION: usize = 1;
/// Samples of the `taf_compute` evolution series.
pub const EVOLUTION_POINTS: usize = 10;

/// A served index: the fixed environment is `StoreConfig::new(4, 1)`
/// and `TgiConfig::default()`.
#[derive(Clone)]
pub struct Index(Arc<TgiService>);

impl Index {
    pub fn build(events: &[Event]) -> Result<Index, BuildError> {
        TgiService::try_build(
            TgiConfig::default(),
            StoreConfig::new(STORE_MACHINES, STORE_REPLICATION),
            events,
        )
        .map(Index)
    }

    /// Append one batch; returns the watermark it published.
    pub fn append(&self, batch: &[Event]) -> Result<u64, BuildError> {
        self.0.try_append_events(batch)
    }

    pub fn pin(&self) -> View {
        View(self.0.pin())
    }

    pub fn watermark(&self) -> u64 {
        self.0.watermark()
    }

    pub fn set_cache_budget(&self, bytes: usize) {
        self.0.set_read_cache_budget(bytes);
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.0.cache_stats()
    }

    pub fn store(&self) -> Arc<SimStore> {
        self.0.store()
    }

    /// TAF handler over this index with `workers` fetch workers.
    pub fn taf(&self, workers: usize) -> Taf {
        Taf(TgiHandler::serving(Arc::clone(&self.0), workers))
    }
}

/// A pinned, immutable view of an [`Index`].
pub struct View(Arc<TgiView>);

impl View {
    pub fn snapshot(&self, t: Time) -> Result<Delta, StoreError> {
        self.0.try_snapshot(t)
    }

    pub fn snapshots(&self, times: &[Time]) -> Result<Vec<Delta>, StoreError> {
        self.0.try_snapshots(times)
    }

    pub fn node_at(&self, nid: NodeId, t: Time) -> Result<Option<StaticNode>, StoreError> {
        self.0.try_node_at(nid, t)
    }

    pub fn node_history(&self, nid: NodeId, range: TimeRange) -> Result<NodeHistory, StoreError> {
        self.0.try_node_history(nid, range)
    }

    pub fn khop(&self, center: NodeId, t: Time, k: usize) -> Result<Delta, StoreError> {
        self.0.try_khop(center, t, k)
    }

    pub fn label_at(&self, label: &str, t: Time) -> Result<Vec<NodeId>, StoreError> {
        self.0.try_nodes_with_label_at(label, t)
    }

    pub fn attr_history(
        &self,
        nid: NodeId,
        key: &str,
    ) -> Result<Vec<(Time, Option<AttrValue>)>, StoreError> {
        self.0.try_attr_history(nid, key)
    }

    pub fn plan_multipoint(&self, times: &[Time]) -> PlanSummary {
        self.0.plan_multipoint(times)
    }

    pub fn end_time(&self) -> Time {
        self.0.end_time()
    }

    pub fn span_count(&self) -> usize {
        self.0.span_count()
    }

    pub fn storage_bytes(&self) -> usize {
        self.0.storage_bytes()
    }
}

/// The TAF side: lazy SoN / SoTS fetches plus one compute operator.
pub struct Taf(TgiHandler);

impl Taf {
    /// `son().select_attr_eq(label).timeslice(range).try_fetch()`.
    pub fn son_fetch(&self, label: &str, range: TimeRange) -> Result<SoN, StoreError> {
        self.0
            .son()
            .select_attr_eq(LABEL_KEY, label)
            .timeslice(range)
            .try_fetch()
    }

    /// `sots(k).roots(roots).timeslice(range).try_fetch()`.
    pub fn sots_fetch(
        &self,
        k: usize,
        roots: Vec<NodeId>,
        range: TimeRange,
    ) -> Result<SoTS, StoreError> {
        self.0.sots(k).roots(roots).timeslice(range).try_fetch()
    }
}

/// The `taf_compute` operator: density evolution of a fetched SoN.
pub fn taf_compute(son: &SoN) -> Vec<(Time, f64)> {
    son.evolution(algo::density, EVOLUTION_POINTS)
}
