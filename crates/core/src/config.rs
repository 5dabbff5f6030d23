//! TGI configuration — the tuning knobs of §4.4's construction
//! parameters, using the paper's notation.

use hgs_delta::StorageLayout;

/// Micro-delta partitioning strategy (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Node-id hash partitioning: zero bookkeeping, no locality.
    Random,
    /// Locality-aware (min-cut style) partitioning over the
    /// Ω-collapsed span graph; optionally replicate 1-hop boundary
    /// neighbors into auxiliary micro-deltas (Fig. 5d).
    Locality { replicate_boundary: bool },
}

/// TGI construction parameters. Paper notation in brackets.
///
/// Every field is stored in the index's `Graph/config` descriptor row,
/// so a re-opened index builds its appends under the same parameters.
/// Session state is not configuration: the store owns its retry policy
/// ([`hgs_store::SimStore::set_retry_policy`]) and the read cache its
/// budget ([`DEFAULT_READ_CACHE_BYTES`]).
#[derive(Debug, Clone, Copy)]
pub struct TgiConfig {
    /// Events per timespan `ts`: partitioning is recomputed at
    /// timespan boundaries.
    pub events_per_timespan: usize,
    /// Eventlist chunk size `l`: a snapshot checkpoint (tree leaf)
    /// is taken every `l` events within a span.
    pub eventlist_size: usize,
    /// Tree arity `k`: children per parent in the intersection tree.
    pub arity: usize,
    /// Micro-delta partition size `ps`: target number of node
    /// descriptions per micro-delta.
    pub partition_size: usize,
    /// Number of horizontal partitions `ns`: the node-id hash
    /// partitions that spread the index across placement chunks.
    pub horizontal_partitions: u32,
    /// Micro-partitioning strategy.
    pub strategy: PartitionStrategy,
    /// Maintain per-node version chains (the entity-centric side of
    /// TGI). Disabling converges the index to DeltaGraph.
    pub version_chains: bool,
    /// On-disk format tag of eventlist/delta rows: per-column
    /// segments decoded lazily. Not a knob — there is one format; the
    /// tag is persisted with the index (rows are not self-describing)
    /// and stamped into benchmark results.
    pub layout: StorageLayout,
    /// The secondary temporal indexes: per-term change-point rows in
    /// the `AttrIndex` table that answer label/attribute predicate
    /// queries without materializing a snapshot
    /// (`TgiView::try_nodes_with_label_at` and friends). Not a knob —
    /// every index stores them, and a build refuses `false`
    /// ([`BuildError::BadConfig`](crate::BuildError::BadConfig)); the
    /// flag is persisted with the index and stamped into benchmark
    /// results.
    pub secondary_indexes: bool,
}

impl Default for TgiConfig {
    fn default() -> TgiConfig {
        TgiConfig {
            events_per_timespan: 20_000,
            eventlist_size: 500,
            arity: 2,
            partition_size: 500,
            horizontal_partitions: 4,
            strategy: PartitionStrategy::Random,
            version_chains: true,
            layout: StorageLayout::Columnar,
            secondary_indexes: true,
        }
    }
}

/// Read-cache budget every built or opened index starts at: 64 MiB of
/// decoded rows and states. A session budget, not a construction
/// parameter: [`TgiService::set_read_cache_budget`] changes it (`0`
/// disables caching), and nothing persists it.
///
/// [`TgiService::set_read_cache_budget`]: crate::service::TgiService::set_read_cache_budget
pub const DEFAULT_READ_CACHE_BYTES: usize = 64 << 20;

impl TgiConfig {
    /// The first construction parameter outside its bounds, as
    /// `(field, value)`: the one list both the build path (which
    /// returns it as [`BuildError::BadConfig`](crate::BuildError::BadConfig))
    /// and the open path (the descriptor decoder) hold a configuration
    /// to — the query paths divide by these numbers, and every index
    /// stores its secondary indexes.
    pub(crate) fn out_of_bounds(&self) -> Option<(&'static str, u64)> {
        let (ts, l) = (self.events_per_timespan, self.eventlist_size);
        [
            ("events_per_timespan", ts, ts > 0),
            // An eventlist must fit within a timespan.
            ("eventlist_size", l, l > 0 && l <= ts),
            ("arity", self.arity, self.arity >= 2),
            (
                "partition_size",
                self.partition_size,
                self.partition_size > 0,
            ),
            (
                "horizontal_partitions",
                self.horizontal_partitions as usize,
                self.horizontal_partitions >= 1,
            ),
            (
                "secondary_indexes",
                self.secondary_indexes as usize,
                self.secondary_indexes,
            ),
        ]
        .into_iter()
        .find(|&(_, _, ok)| !ok)
        .map(|(field, v, _)| (field, v as u64))
    }

    /// Whether the build stores auxiliary 1-hop replicas of boundary
    /// neighbours (Fig. 5d) — in every span, so no span row says so.
    pub(crate) fn replicates_boundary(&self) -> bool {
        self.strategy
            == PartitionStrategy::Locality {
                replicate_boundary: true,
            }
    }

    /// A configuration that makes TGI equivalent to the DeltaGraph
    /// index of the authors' prior work: monolithic deltas (one
    /// horizontal partition, unbounded micro-partitions), no version
    /// chains.
    pub fn deltagraph() -> TgiConfig {
        TgiConfig {
            horizontal_partitions: 1,
            partition_size: usize::MAX,
            version_chains: false,
            ..TgiConfig::default()
        }
    }

    /// A configuration equivalent to Copy+Log: a flat (height-1) tree
    /// of full snapshots every `l` events. Achieved with arity so
    /// large every leaf is a root child; reconstruction cost is then
    /// root + one derived + eventlist.
    pub fn copy_log(eventlist_size: usize) -> TgiConfig {
        TgiConfig {
            eventlist_size,
            arity: usize::MAX / 2,
            horizontal_partitions: 1,
            partition_size: usize::MAX,
            version_chains: false,
            ..TgiConfig::default()
        }
    }

    /// Builder-style setters for the common sweep parameters.
    pub fn with_eventlist_size(mut self, l: usize) -> TgiConfig {
        self.eventlist_size = l;
        self
    }

    /// Set the micro-delta partition size (`ps`).
    pub fn with_partition_size(mut self, ps: usize) -> TgiConfig {
        self.partition_size = ps;
        self
    }

    /// Set the number of horizontal partitions (`ns`).
    pub fn with_horizontal(mut self, ns: u32) -> TgiConfig {
        self.horizontal_partitions = ns;
        self
    }

    /// Set the partitioning strategy.
    pub fn with_strategy(mut self, s: PartitionStrategy) -> TgiConfig {
        self.strategy = s;
        self
    }

    /// Set the events-per-timespan (`ts`).
    pub fn with_timespan(mut self, ts: usize) -> TgiConfig {
        self.events_per_timespan = ts;
        self
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hgs_store::{SimStore, StoreConfig};

    use super::*;
    use crate::{BuildError, TgiService};

    #[test]
    fn default_is_valid() {
        for cfg in [
            TgiConfig::default(),
            TgiConfig::deltagraph(),
            TgiConfig::copy_log(500),
        ] {
            assert_eq!(cfg.out_of_bounds(), None, "{cfg:?}");
        }
    }

    /// A configuration out of its bounds is an error naming the field
    /// and its value, returned before any row is written — never a
    /// panic.
    fn refused(cfg: TgiConfig, field: &'static str, value: u64) {
        let want = BuildError::BadConfig { field, value };
        let events = hgs_datagen::WikiGrowth::sized(200).generate();
        let built = TgiService::try_build(cfg, StoreConfig::new(2, 1), &events);
        assert_eq!(built.err(), Some(want.clone()));
        let store = Arc::new(SimStore::new(StoreConfig::new(2, 1)));
        let built = TgiService::try_build_on(cfg, Arc::clone(&store), &events, 1);
        assert_eq!(built.err(), Some(want));
        assert!(
            store.content_rows().iter().all(Vec::is_empty),
            "a row was written"
        );
    }

    #[test]
    fn rejects_zero_eventlist() {
        let cfg = TgiConfig {
            eventlist_size: 0,
            ..TgiConfig::default()
        };
        refused(cfg, "eventlist_size", 0);
    }

    #[test]
    fn rejects_eventlist_larger_than_span() {
        let cfg = TgiConfig {
            eventlist_size: 100,
            events_per_timespan: 50,
            ..TgiConfig::default()
        };
        refused(cfg, "eventlist_size", 100);
    }

    #[test]
    fn rejects_arity_one() {
        let cfg = TgiConfig {
            arity: 1,
            ..TgiConfig::default()
        };
        refused(cfg, "arity", 1);
    }

    #[test]
    fn rejects_an_index_without_secondary_indexes() {
        let cfg = TgiConfig {
            secondary_indexes: false,
            ..TgiConfig::default()
        };
        refused(cfg, "secondary_indexes", 0);
    }

    #[test]
    fn builder_setters() {
        let c = TgiConfig::default()
            .with_eventlist_size(100)
            .with_partition_size(50)
            .with_horizontal(2)
            .with_timespan(1000)
            .with_strategy(PartitionStrategy::Locality {
                replicate_boundary: true,
            });
        assert_eq!(c.eventlist_size, 100);
        assert_eq!(c.partition_size, 50);
        assert_eq!(c.horizontal_partitions, 2);
        assert_eq!(c.events_per_timespan, 1000);
        assert!(matches!(
            c.strategy,
            PartitionStrategy::Locality {
                replicate_boundary: true
            }
        ));
        assert!(c.secondary_indexes, "secondary indexes default on");
    }
}
