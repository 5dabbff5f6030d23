//! Inputs: the two generated datasets, the ingest batch cuts, and the
//! deterministic query-argument stream. Everything here is a pure
//! function of `--seed` and `--scale`; the program under test only
//! ever sees the resulting `Vec<Event>` and query arguments.

use hgs_core::LABEL_KEY;
use hgs_datagen::{SkewedLabels, WikiGrowth, DEAD_LABEL};
use hgs_delta::{AttrValue, Event, EventKind, FxHashMap, NodeId, Time};

/// Share of the wiki trace the initial build indexes; the rest arrives
/// as [`APPEND_BATCHES`] appends.
pub const BUILD_PREFIX: f64 = 0.4;
/// Appends after the initial build. With the default 20 000-event
/// timespan each batch of `wiki100k` seals exactly one span, so the
/// appended index has the same span structure as a one-shot build.
pub const APPEND_BATCHES: usize = 3;

/// Evenly spaced query timepoints over the wiki / skew histories.
pub const WIKI_GRID: u64 = 40;
pub const SKEW_GRID: u64 = 16;

/// `wiki100k` at scale 1: the paper's Dataset-1 analog.
pub fn wiki_cfg(seed: u64, scale: f64) -> WikiGrowth {
    WikiGrowth {
        events: scaled(100_000, scale),
        recency_bias: 0.6,
        seed: mix(seed, 0x77696b69),
        ..WikiGrowth::default()
    }
}

/// `skew106k` at scale 1: Zipf-labelled graph with attribute churn.
pub fn skew_cfg(seed: u64, scale: f64) -> SkewedLabels {
    SkewedLabels {
        nodes: scaled(8_000, scale),
        edge_events: scaled(60_000, scale),
        attr_churn: scaled(30_000, scale),
        seed: mix(seed, 0x736b6577),
        ..SkewedLabels::default()
    }
}

pub fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(1)
}

/// SplitMix64 step: the benchmark's only source of pseudo-randomness.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advance `i` to the next strict time boundary: an append must start
/// strictly after the indexed end (`try_append_events` panics on a
/// batch that starts inside the indexed prefix).
pub fn align(events: &[Event], mut i: usize) -> usize {
    while i > 0 && i < events.len() && events[i].time <= events[i - 1].time {
        i += 1;
    }
    i
}

/// Cut `events` into an initial build prefix plus `batches` appends,
/// every cut on a strict time boundary. `cuts[0]` is the build prefix
/// length, `cuts[k]` the prefix sealed after append `k`; the last cut
/// is `events.len()`. Fewer cuts come back when the trace is too short
/// to give every batch its own timestamp.
pub fn batch_cuts(events: &[Event], prefix: f64, batches: usize) -> Vec<usize> {
    let n = events.len();
    let first = align(events, ((n as f64 * prefix) as usize).clamp(1, n));
    let mut cuts = vec![first];
    for k in 1..=batches {
        let want = first + (n - first) * k / batches;
        let cut = if k == batches { n } else { align(events, want) };
        if cut > *cuts.last().expect("cuts is non-empty") {
            cuts.push(cut);
        }
    }
    if *cuts.last().expect("cuts is non-empty") != n {
        cuts.push(n);
    }
    cuts
}

/// Nodes created by `events` (both generators number nodes densely
/// from 0, so the count is also the id universe).
pub fn node_count(events: &[Event]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::AddNode { .. }))
        .count() as u64
}

/// The generated inputs of one run.
pub struct Inputs {
    pub wiki: Vec<Event>,
    pub skew: Vec<Event>,
    pub cuts: Vec<usize>,
    /// Ranked label vocabulary of the skew dataset plus the dead label.
    pub vocabulary: Vec<String>,
    pub wiki_nodes: u64,
    pub skew_nodes: u64,
}

impl Inputs {
    pub fn generate(seed: u64, scale: f64) -> Inputs {
        let wiki = wiki_cfg(seed, scale).generate();
        let skew_gen = skew_cfg(seed, scale);
        let skew = skew_gen.generate();
        let cuts = batch_cuts(&wiki, BUILD_PREFIX, APPEND_BATCHES);
        Inputs {
            wiki_nodes: node_count(&wiki),
            skew_nodes: node_count(&skew),
            cuts,
            vocabulary: skew_gen.vocabulary(),
            wiki,
            skew,
        }
    }

    /// The label whose population at the end of the skew trace is
    /// nearest `target` nodes (ties to the higher-ranked label): a
    /// selective predicate of about the same size under every seed.
    pub fn label_with_population(&self, target: usize) -> String {
        let mut current: FxHashMap<NodeId, &str> = FxHashMap::default();
        for e in &self.skew {
            if let EventKind::SetNodeAttr {
                id,
                key,
                value: AttrValue::Text(label),
            } = &e.kind
            {
                if key == LABEL_KEY {
                    current.insert(*id, label);
                }
            }
        }
        let mut population: FxHashMap<&str, usize> = FxHashMap::default();
        for label in current.values() {
            *population.entry(label).or_default() += 1;
        }
        self.vocabulary
            .iter()
            .min_by_key(|l| {
                population
                    .get(l.as_str())
                    .copied()
                    .unwrap_or(0)
                    .abs_diff(target)
            })
            .cloned()
            .unwrap_or_default()
    }

    pub fn wiki_end(&self) -> Time {
        self.wiki.last().map_or(0, |e| e.time)
    }
}

/// Timepoint `i` (0-based, wraps) of an evenly spaced `grid` over
/// `[0, end]`; the last point is `end` itself.
pub fn grid_time(end: Time, grid: u64, i: u64) -> Time {
    (end as u128 * (i % grid + 1) as u128 / grid as u128) as Time
}

/// Wiki timepoint `slot`: [`WIKI_GRID`] points evenly spaced over the
/// second half of `[0, horizon]`. The first half of a growth-only
/// trace is a small graph; sweeping it too would spread one class's
/// latencies over two orders of magnitude and leave its median at the
/// mercy of whichever half a disturbance hits.
pub fn wiki_time(horizon: Time, slot: u64) -> Time {
    let start = horizon / 2;
    start + grid_time(horizon - start, WIKI_GRID, slot)
}

/// Nodes existing at each wiki grid time (ids `0..alive[slot]`, since
/// the generator numbers nodes in arrival order).
pub fn wiki_alive(events: &[Event], horizon: Time) -> Vec<u64> {
    let mut alive = Vec::with_capacity(WIKI_GRID as usize);
    let (mut count, mut next) = (0u64, 0usize);
    for slot in 0..WIKI_GRID {
        let t = wiki_time(horizon, slot);
        while next < events.len() && events[next].time <= t {
            count += u64::from(matches!(events[next].kind, EventKind::AddNode { .. }));
            next += 1;
        }
        alive.push(count.max(1));
    }
    alive
}

/// A hot subset of the wiki query space: the `times` most recent grid
/// points and `nodes` fixed nodes.
#[derive(Debug, Clone, Copy)]
pub struct HotSet {
    pub times: u64,
    pub nodes: u64,
}

/// Deterministic query arguments: argument `seq` of class `class` is a
/// pure function of `(seed, class, seq)`, so the timed phase, the
/// traced phase and the oracle re-issue all see the same queries.
#[derive(Debug, Clone)]
pub struct QueryGen {
    pub seed: u64,
    /// End of the wiki history the queries range over: the indexed
    /// end, or — for a reader beside ingest — the end of the build
    /// prefix, which every published watermark contains.
    pub wiki_horizon: Time,
    /// [`wiki_alive`] at `wiki_horizon`.
    pub wiki_alive: Vec<u64>,
    pub skew_nodes: u64,
    pub hot: Option<HotSet>,
    pub labels: Vec<String>,
    /// Label the SoN fetch selects on.
    pub son_label: String,
    pub sots_roots: usize,
}

impl QueryGen {
    fn draw(&self, class: u64, seq: u64, salt: u64) -> u64 {
        mix(
            mix(self.seed, class),
            seq.wrapping_mul(4).wrapping_add(salt),
        )
    }

    /// Grid index of the `seq`-th round-robin wiki timepoint.
    pub fn wiki_slot(&self, seq: u64) -> u64 {
        match self.hot {
            // Adjacent points, so the hot snapshots are of nearly one
            // size: with points spread over the grid the class median
            // sits on the step between two sizes and flips between
            // them from run to run.
            Some(h) => WIKI_GRID - h.times + seq % h.times,
            None => seq % WIKI_GRID,
        }
    }

    /// A pseudo-random wiki grid index.
    pub fn wiki_random_slot(&self, class: u64, seq: u64) -> u64 {
        self.wiki_slot(self.draw(class, seq, 1))
    }

    pub fn wiki_time(&self, slot: u64) -> Time {
        wiki_time(self.wiki_horizon, slot)
    }

    /// A node that exists at grid time `slot`, so no query degenerates
    /// into a lookup of a node that has not arrived yet.
    pub fn wiki_node(&self, class: u64, seq: u64, slot: u64) -> NodeId {
        let r = self.draw(class, seq, 0);
        match self.hot {
            // The hot set is a fixed pseudo-random subset of the nodes
            // alive at the earliest hot time, not the oldest
            // (highest-degree) ids.
            Some(h) => {
                let alive = self.wiki_alive[self.wiki_slot(0) as usize];
                mix(self.seed, r % h.nodes.min(alive)) % alive
            }
            None => r % self.wiki_alive[(slot % WIKI_GRID) as usize],
        }
    }

    pub fn skew_slot(&self, class: u64, seq: u64) -> u64 {
        self.draw(class, seq, 1) % SKEW_GRID
    }

    pub fn skew_node(&self, class: u64, seq: u64) -> NodeId {
        self.draw(class, seq, 0) % self.skew_nodes.max(1)
    }

    /// Cycles Zipf head, tail and the dead label.
    pub fn label(&self, class: u64, seq: u64) -> &str {
        let ranked = self.labels.len() - 1;
        let r = self.draw(class, seq, 2) as usize;
        let idx = match seq % 3 {
            0 => r % 4.min(ranked),
            1 => ranked / 2 + r % (ranked - ranked / 2),
            _ => ranked,
        };
        &self.labels[idx]
    }

    pub fn roots(&self, class: u64, seq: u64) -> Vec<NodeId> {
        (0..self.sots_roots as u64)
            .map(|j| mix(self.draw(class, seq, 3), j) % self.skew_nodes.max(1))
            .collect()
    }
}

/// The label vocabulary the query stream draws from: ranked labels,
/// then the dead label last.
pub fn label_universe(vocabulary: &[String]) -> Vec<String> {
    let mut labels = vocabulary.to_vec();
    labels.push(DEAD_LABEL.to_string());
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: Time, id: NodeId) -> Event {
        Event::new(time, EventKind::AddNode { id })
    }

    #[test]
    fn cuts_fall_on_strict_time_boundaries() {
        // Runs of equal timestamps straddle every naive cut point.
        let events: Vec<Event> = (0..100).map(|i| ev(i / 7, i)).collect();
        let cuts = batch_cuts(&events, 0.4, 3);
        assert_eq!(*cuts.last().unwrap(), events.len());
        assert!(
            cuts.windows(2).all(|w| w[0] < w[1]),
            "cuts ascend: {cuts:?}"
        );
        for &c in &cuts[..cuts.len() - 1] {
            assert!(
                events[c].time > events[c - 1].time,
                "cut {c} splits timestamp {}",
                events[c].time
            );
        }
    }

    #[test]
    fn cuts_survive_a_trace_with_one_timestamp() {
        let events: Vec<Event> = (0..10).map(|i| ev(5, i)).collect();
        assert_eq!(batch_cuts(&events, 0.4, 3), vec![10]);
    }

    #[test]
    fn wiki100k_batches_seal_one_span_each() {
        let inputs = Inputs::generate(1, 1.0);
        assert_eq!(inputs.cuts.len(), APPEND_BATCHES + 1);
        for w in inputs.cuts.windows(2) {
            let len = w[1] - w[0];
            assert!((19_000..=21_000).contains(&len), "batch of {len} events");
        }
    }

    #[test]
    fn grid_ends_at_the_last_event() {
        assert_eq!(grid_time(1000, 40, 39), 1000);
        assert_eq!(grid_time(1000, 40, 0), 25);
        assert_eq!(grid_time(1000, 40, 40), 25);
        assert_eq!(wiki_time(1000, 0), 512);
        assert_eq!(wiki_time(1000, 39), 1000);
        let events: Vec<Event> = (0..100).map(|i| ev(i * 10, i)).collect();
        let alive = wiki_alive(&events, 1000);
        assert_eq!(alive.len(), WIKI_GRID as usize);
        assert_eq!((alive[0], alive[39]), (52, 100));
        assert!(alive.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn query_stream_is_a_function_of_the_seed() {
        let g = |seed| QueryGen {
            seed,
            wiki_horizon: 2000,
            wiki_alive: (1..=WIKI_GRID).map(|i| 500 + i * 10).collect(),
            skew_nodes: 500,
            hot: None,
            labels: label_universe(&["A".into(), "B".into(), "C".into(), "D".into()]),
            son_label: "A".into(),
            sots_roots: 4,
        };
        let (a, b, c) = (g(1), g(1), g(2));
        let stream = |q: &QueryGen| (0..50).map(|i| q.wiki_node(2, i, i)).collect::<Vec<_>>();
        assert_eq!(stream(&a), stream(&b));
        assert_ne!(stream(&a), stream(&c));
        assert_eq!(a.label(5, 2), DEAD_LABEL);
        let hot = QueryGen {
            hot: Some(HotSet {
                times: 8,
                nodes: 10,
            }),
            ..g(1)
        };
        let distinct: std::collections::BTreeSet<_> =
            (0..500).map(|i| hot.wiki_node(2, i, i)).collect();
        assert!(distinct.len() <= 10);
        let slots: std::collections::BTreeSet<_> = (0..100).map(|i| hot.wiki_slot(i)).collect();
        assert_eq!(
            slots.into_iter().collect::<Vec<_>>(),
            (32..40).collect::<Vec<_>>()
        );
    }
}
