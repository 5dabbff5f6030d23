//! Analytic access-cost estimators — the formulas of the paper's
//! Table 1.
//!
//! For each index class and each retrieval primitive, Table 1 reports
//! two metrics: `∑∆ |∆|` (sum of delta cardinalities fetched) and
//! `∑∆ 1` (number of deltas fetched), plus the index storage size.
//! These estimators evaluate those closed forms for a concrete
//! workload profile. Two callers use them: the `table1_costs` harness
//! (`hgs_bench`'s `table1.rs`), which prints the paper's table with
//! real numbers next to the formulas, and `TgiView::try_khop`'s
//! strategy choice (`khop_strategy_for`), which compares the two k-hop
//! plans' estimates on the index's current shape. Nothing checks an
//! estimate against what a read measures: the unit tests below compare
//! formulas with formulas. Holding the TGI column to measured fetch
//! counts is ROADMAP direction 8.

/// Workload profile in the paper's notation.
#[derive(Debug, Clone, Copy)]
pub struct CostProfile {
    /// `|G|`: number of changes (events) in the graph's history.
    pub g: f64,
    /// `|S|`: size of a snapshot (node count).
    pub s: f64,
    /// `|E|`: eventlist size between checkpoints.
    pub e: f64,
    /// `h`: height of the DeltaGraph/TGI tree.
    pub h: f64,
    /// `|V|`: number of changes to the queried node.
    pub v: f64,
    /// `|R|`: number of neighbors of the queried node.
    pub r: f64,
    /// `p`: number of micro-partitions per delta in TGI.
    pub p: f64,
    /// `|C|`: per-node history size (node-centric index).
    pub c: f64,
}

/// Index classes compared in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    Log,
    Copy,
    CopyPlusLog,
    NodeCentric,
    DeltaGraph,
    Tgi,
}

impl IndexKind {
    /// All rows in the paper's order.
    pub const ALL: [IndexKind; 6] = [
        IndexKind::Log,
        IndexKind::Copy,
        IndexKind::CopyPlusLog,
        IndexKind::NodeCentric,
        IndexKind::DeltaGraph,
        IndexKind::Tgi,
    ];

    /// Display name as in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Log => "Log",
            IndexKind::Copy => "Copy",
            IndexKind::CopyPlusLog => "Copy+Log",
            IndexKind::NodeCentric => "Node Centric",
            IndexKind::DeltaGraph => "DeltaGraph",
            IndexKind::Tgi => "TGI",
        }
    }
}

/// Retrieval primitives (Table 1 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    Snapshot,
    StaticVertex,
    VertexVersions,
    OneHop,
    OneHopVersions,
}

impl QueryKind {
    /// All columns in the paper's order.
    pub const ALL: [QueryKind; 5] = [
        QueryKind::Snapshot,
        QueryKind::StaticVertex,
        QueryKind::VertexVersions,
        QueryKind::OneHop,
        QueryKind::OneHopVersions,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::Snapshot => "Snapshot",
            QueryKind::StaticVertex => "Static Vertex",
            QueryKind::VertexVersions => "Vertex Versions",
            QueryKind::OneHop => "1-hop",
            QueryKind::OneHopVersions => "1-hop Versions",
        }
    }
}

/// `(∑∆ |∆|, ∑∆ 1)` for one (index, query) cell of Table 1.
pub fn access_cost(index: IndexKind, query: QueryKind, w: &CostProfile) -> (f64, f64) {
    use IndexKind::*;
    use QueryKind::*;
    match (index, query) {
        // Log: everything requires replaying the single event log.
        (Log, _) => (w.g, w.g / w.e),

        // Copy: a full snapshot per change point.
        (Copy, Snapshot) | (Copy, StaticVertex) | (Copy, OneHop) => (w.s, 1.0),
        (Copy, VertexVersions) | (Copy, OneHopVersions) => (w.s * w.g, w.g),

        // Copy+Log: nearest snapshot + one eventlist.
        (CopyPlusLog, Snapshot) | (CopyPlusLog, StaticVertex) | (CopyPlusLog, OneHop) => {
            (w.s + w.e, 2.0)
        }
        (CopyPlusLog, VertexVersions) | (CopyPlusLog, OneHopVersions) => (w.g, w.g / w.e),

        // Vertex-centric: per-node logs; snapshots touch every node.
        (NodeCentric, Snapshot) => (2.0 * w.g, w.s),
        (NodeCentric, StaticVertex) | (NodeCentric, VertexVersions) => (w.c, 1.0),
        (NodeCentric, OneHop) | (NodeCentric, OneHopVersions) => (w.r * w.c, w.r),

        // DeltaGraph: root-to-leaf path of monolithic deltas.
        (DeltaGraph, Snapshot) | (DeltaGraph, StaticVertex) => (w.h * w.s + w.e, 2.0 * w.h),
        (DeltaGraph, VertexVersions) | (DeltaGraph, OneHopVersions) => (w.g, w.g / w.e),
        (DeltaGraph, OneHop) => (w.h * (w.s + w.e), 2.0 * w.h),

        // TGI: the path again, but only the relevant micro-partitions.
        (Tgi, Snapshot) => (w.h * w.s + w.e, 2.0 * w.h),
        (Tgi, StaticVertex) => ((w.h * w.s + w.e) / w.p, 2.0 * w.h),
        (Tgi, VertexVersions) | (Tgi, OneHopVersions) => (w.v * (1.0 + w.s / w.p), w.v + 1.0),
        (Tgi, OneHop) => (w.h * (w.s + w.e) / w.p, 2.0 * w.h),
    }
}

/// Index storage size column of Table 1.
pub fn storage_size(index: IndexKind, w: &CostProfile) -> f64 {
    match index {
        IndexKind::Log => w.g,
        IndexKind::Copy => w.g.powi(2).min(w.s * w.g), // |G|^2 upper bound; |S||G| realized
        IndexKind::CopyPlusLog => w.g * w.g / w.e,
        IndexKind::NodeCentric => 2.0 * w.g,
        IndexKind::DeltaGraph => w.g * (w.h + 1.0),
        IndexKind::Tgi => w.g * (2.0 * w.h + 3.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> CostProfile {
        CostProfile {
            g: 1e6,
            s: 1e5,
            e: 500.0,
            h: 4.0,
            v: 100.0,
            r: 30.0,
            p: 200.0,
            c: 150.0,
        }
    }

    #[test]
    fn tgi_static_vertex_beats_deltagraph() {
        let w = profile();
        let (tgi_sz, _) = access_cost(IndexKind::Tgi, QueryKind::StaticVertex, &w);
        let (dg_sz, _) = access_cost(IndexKind::DeltaGraph, QueryKind::StaticVertex, &w);
        assert!(
            tgi_sz < dg_sz / 10.0,
            "micro-partitioning wins: {tgi_sz} vs {dg_sz}"
        );
    }

    #[test]
    fn tgi_versions_beat_time_centric_indexes() {
        let w = profile();
        let (tgi, _) = access_cost(IndexKind::Tgi, QueryKind::VertexVersions, &w);
        for idx in [
            IndexKind::Log,
            IndexKind::CopyPlusLog,
            IndexKind::DeltaGraph,
        ] {
            let (other, _) = access_cost(idx, QueryKind::VertexVersions, &w);
            assert!(tgi < other, "{:?}: {tgi} vs {other}", idx);
        }
    }

    #[test]
    fn node_centric_is_bad_at_snapshots() {
        let w = profile();
        let (_, nc_deltas) = access_cost(IndexKind::NodeCentric, QueryKind::Snapshot, &w);
        let (_, tgi_deltas) = access_cost(IndexKind::Tgi, QueryKind::Snapshot, &w);
        assert!(nc_deltas > 100.0 * tgi_deltas);
    }

    #[test]
    fn copy_has_largest_storage() {
        let w = profile();
        let copy = storage_size(IndexKind::Copy, &w);
        for idx in [
            IndexKind::Log,
            IndexKind::NodeCentric,
            IndexKind::DeltaGraph,
            IndexKind::Tgi,
        ] {
            assert!(copy > storage_size(idx, &w), "{idx:?}");
        }
    }

    #[test]
    fn log_is_smallest_storage() {
        let w = profile();
        let log = storage_size(IndexKind::Log, &w);
        for idx in [
            IndexKind::Copy,
            IndexKind::CopyPlusLog,
            IndexKind::NodeCentric,
            IndexKind::DeltaGraph,
            IndexKind::Tgi,
        ] {
            assert!(log <= storage_size(idx, &w), "{idx:?}");
        }
    }

    #[test]
    fn all_cells_are_finite_and_positive() {
        let w = profile();
        for idx in IndexKind::ALL {
            for q in QueryKind::ALL {
                let (sz, n) = access_cost(idx, q, &w);
                assert!(sz.is_finite() && sz > 0.0, "{idx:?}/{q:?} size");
                assert!(n.is_finite() && n > 0.0, "{idx:?}/{q:?} count");
            }
        }
    }
}
