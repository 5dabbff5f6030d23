//! Spans and counter brackets recorded in the benchmark's own code.
//!
//! No product crate is instrumented yet (ROADMAP direction 2), so a
//! span here is opened around a call *into* a layer, and the layer's
//! work is read off the public counters bracketed around the call.
//! Spans stay in memory and are written out once, at exit.

use std::sync::Arc;
use std::time::Instant;

use hgs_core::CacheStats;
use hgs_delta::codec;
use hgs_store::machine::MachineStatsSnapshot;
use hgs_store::{CostModel, SimStore};

use crate::api::Index;
use crate::json::{obj, Json};

pub type SpanId = usize;
const OFF: SpanId = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Option<Counters>,
}

/// An in-memory span recorder. When disabled every call is a branch
/// and nothing else, so the untraced run carries no tracing cost.
pub struct Tracer {
    epoch: Instant,
    pub enabled: bool,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    /// Parent a fork's top-level spans get when merged (a second
    /// thread's spans hang off the workload span of the main tracer).
    root_parent: Option<SpanId>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            root_parent: None,
        }
    }

    /// A tracer for another thread, sharing this one's clock; its
    /// top-level spans become children of `parent` once merged.
    pub fn fork(&self, parent: SpanId) -> Tracer {
        Tracer {
            epoch: self.epoch,
            enabled: self.enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            root_parent: (parent != OFF).then_some(parent),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        if !self.enabled {
            return OFF;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            name,
            layer,
            start_ns: self.now(),
            end_ns: 0,
            counters: None,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: SpanId) {
        if id == OFF {
            return;
        }
        self.spans[id].end_ns = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    pub fn end_with(&mut self, id: SpanId, counters: Counters) {
        if id != OFF {
            self.spans[id].counters = Some(counters);
        }
        self.end(id);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Forget spans recorded after `len` (used by the overhead blocks,
    /// which pay for tracing but need not keep its output).
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(self.stack.iter().all(|&id| id < len));
        self.spans.truncate(len);
    }

    /// Adopt a forked tracer's spans, renumbering them after ours; its
    /// top-level spans take the parent the fork was given.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => other.root_parent,
            };
            self.spans.push(s);
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    let mut pairs = vec![
                        ("id", Json::from(id)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("name", Json::from(s.name)),
                        ("layer", Json::from(s.layer)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                    ];
                    if let Some(c) = &s.counters {
                        pairs.push(("counters", c.to_json()));
                    }
                    obj(pairs)
                })
                .collect(),
        )
    }
}

/// Work one bracketed call caused in the layers below it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Client round trips: `batches + gets + scans − batched_subrequests`.
    pub round_trips: u64,
    pub rows: u64,
    pub bytes: u64,
    /// `CostModel::estimate_seconds` over the per-machine deltas, c = 1.
    pub modeled_ms: f64,
    pub decoded_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_insertions: u64,
    pub cache_evictions: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.round_trips += o.round_trips;
        self.rows += o.rows;
        self.bytes += o.bytes;
        self.modeled_ms += o.modeled_ms;
        self.decoded_bytes += o.decoded_bytes;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_insertions += o.cache_insertions;
        self.cache_evictions += o.cache_evictions;
    }

    pub fn to_json(self) -> Json {
        obj([
            ("round_trips", Json::from(self.round_trips)),
            ("rows", Json::from(self.rows)),
            ("bytes", Json::from(self.bytes)),
            ("modeled_ms", Json::from(self.modeled_ms)),
            ("decoded_bytes", Json::from(self.decoded_bytes)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("cache_insertions", Json::from(self.cache_insertions)),
            ("cache_evictions", Json::from(self.cache_evictions)),
        ])
    }
}

pub fn round_trips(m: &MachineStatsSnapshot) -> u64 {
    m.batches + m.gets + m.scans - m.batched_subrequests
}

/// The public counters of one index, read before a call; `close`
/// reads them again and returns the difference.
pub struct Bracket {
    store: Arc<SimStore>,
    stats: Vec<MachineStatsSnapshot>,
    decoded: u64,
    cache: CacheStats,
}

impl Bracket {
    pub fn open(index: &Index) -> Bracket {
        let store = index.store();
        Bracket {
            stats: store.stats_snapshot(),
            store,
            decoded: codec::decoded_bytes(),
            cache: index.cache_stats(),
        }
    }

    pub fn close(self, index: &Index) -> Counters {
        let per_machine = SimStore::stats_since(&self.store.stats_snapshot(), &self.stats);
        let cache = index.cache_stats();
        Counters {
            round_trips: per_machine.iter().map(round_trips).sum(),
            rows: per_machine.iter().map(|m| m.rows_read).sum(),
            bytes: per_machine.iter().map(|m| m.bytes_read).sum(),
            modeled_ms: CostModel::default().estimate_seconds(&per_machine, 1) * 1e3,
            decoded_bytes: codec::decoded_bytes() - self.decoded,
            cache_hits: cache.hits - self.cache.hits,
            cache_misses: cache.misses - self.cache.misses,
            cache_insertions: cache.insertions - self.cache.insertions,
            cache_evictions: cache.evictions - self.cache.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_merge_with_every_parent_present() {
        let mut main = Tracer::new(true);
        let root = main.begin("workload", "benchmark");
        let op = main.begin("node_at", "core.query");
        let pin = main.begin("core.service.pin", "core.service");
        main.end(pin);
        main.end(op);
        let mut side = main.fork(root);
        let b = side.begin("core.build", "core.build");
        let inner = side.begin("store.put", "store");
        side.end(inner);
        side.end(b);
        let a = side.begin("core.service.append", "core.service");
        side.end_with(a, Counters::default());
        main.merge(side);
        main.end(root);

        let spans = &main.spans;
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(
            spans[3].parent,
            Some(root),
            "forked top-level span hangs off the root"
        );
        assert_eq!(
            spans[4].parent,
            Some(3),
            "forked child keeps its forked parent"
        );
        assert_eq!(spans[5].parent, Some(root));
        assert!(spans[5].counters.is_some());
        for s in spans {
            assert!(s.parent.is_none_or(|p| p < spans.len()));
            assert!(s.end_ns >= s.start_ns);
        }
        let parsed = Json::parse(&main.to_json().compact()).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", "y");
        t.end_with(id, Counters::default());
        assert_eq!(t.len(), 0);
    }
}
