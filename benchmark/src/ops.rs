//! The query operation classes every workload is built from.

/// Consecutive ops timed as one sample for the classes that can drop
/// below 5 µs: group time ÷ 16 stays clear of timer quantisation.
pub const GROUP: u32 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Snapshot,
    Multipoint,
    NodeAt,
    NodeHistory,
    Khop,
    LabelAt,
    AttrHistory,
    SonFetch,
    SotsFetch,
    TafCompute,
}

pub const N_OPS: usize = 10;

impl Op {
    pub const ALL: [Op; N_OPS] = [
        Op::Snapshot,
        Op::Multipoint,
        Op::NodeAt,
        Op::NodeHistory,
        Op::Khop,
        Op::LabelAt,
        Op::AttrHistory,
        Op::SonFetch,
        Op::SotsFetch,
        Op::TafCompute,
    ];

    /// The classes whose store / decode counters are reported per op
    /// (the TAF classes are compositions of these).
    pub const COUNTED: [Op; 7] = [
        Op::Snapshot,
        Op::Multipoint,
        Op::NodeAt,
        Op::NodeHistory,
        Op::Khop,
        Op::LabelAt,
        Op::AttrHistory,
    ];

    pub fn idx(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Op::Snapshot => "snapshot",
            Op::Multipoint => "multipoint",
            Op::NodeAt => "node_at",
            Op::NodeHistory => "node_history",
            Op::Khop => "khop",
            Op::LabelAt => "label_at",
            Op::AttrHistory => "attr_history",
            Op::SonFetch => "son_fetch",
            Op::SotsFetch => "sots_fetch",
            Op::TafCompute => "taf_compute",
        }
    }

    /// Millisecond classes report `_p50_ms`, the rest `_p50_us`.
    pub fn is_ms(self) -> bool {
        matches!(
            self,
            Op::Snapshot | Op::Multipoint | Op::SonFetch | Op::SotsFetch | Op::TafCompute
        )
    }

    pub fn unit(self) -> &'static str {
        if self.is_ms() {
            "ms"
        } else {
            "us"
        }
    }

    /// Convert a latency in nanoseconds into the class's unit.
    pub fn in_unit(self, ns: f64) -> f64 {
        if self.is_ms() {
            ns / 1e6
        } else {
            ns / 1e3
        }
    }

    pub fn p50_metric(self) -> String {
        format!("{}_p50_{}", self.name(), self.unit())
    }

    /// Ops per timed sample.
    pub fn group(self) -> u32 {
        match self {
            Op::NodeAt | Op::LabelAt => GROUP,
            _ => 1,
        }
    }

    /// Name of the span around the class's call into the product.
    pub fn call_span(self) -> &'static str {
        match self {
            Op::Snapshot => "core.query.snapshot",
            Op::Multipoint => "core.query.multipoint",
            Op::NodeAt => "core.query.node_at",
            Op::NodeHistory => "core.query.node_history",
            Op::Khop => "core.query.khop",
            Op::LabelAt => "core.attr_index.label_at",
            Op::AttrHistory => "core.attr_index.attr_history",
            Op::SonFetch | Op::SotsFetch => "taf.fetch",
            Op::TafCompute => "taf.compute",
        }
    }

    /// Module the class's top-level call enters.
    pub fn layer(self) -> &'static str {
        match self {
            Op::LabelAt | Op::AttrHistory => "core.attr_index",
            Op::SonFetch | Op::SotsFetch | Op::TafCompute => "taf",
            _ => "core.query",
        }
    }

    /// Whether the class reads the skew (labelled) index.
    pub fn on_skew(self) -> bool {
        matches!(
            self,
            Op::LabelAt | Op::AttrHistory | Op::SonFetch | Op::SotsFetch | Op::TafCompute
        )
    }
}
