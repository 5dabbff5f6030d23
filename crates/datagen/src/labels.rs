//! A DBLP-like labeled graph with attribute churn — the workload of
//! the paper's incremental-computation experiment (Figs. 8 and 17).
//!
//! Nodes carry an `EntityType` attribute (`Author` / `Paper` /
//! `Venue`); the trace interleaves structural growth with attribute
//! flips, so that "count nodes labeled Author in each 2-hop
//! neighborhood over time" has many version changes — the quantity
//! NodeComputeDelta updates in O(1) per event while
//! NodeComputeTemporal recomputes from scratch.

use hgs_delta::{AttrValue, Event, EventKind, NodeId, Time};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Entity labels used by the generator.
pub(crate) const LABELS: [&str; 3] = ["Author", "Paper", "Venue"];

/// Configuration for the labeled-churn generator.
#[derive(Debug, Clone, Copy)]
pub struct LabeledChurn {
    /// Number of nodes.
    pub nodes: usize,
    /// Structural edge events.
    pub edge_events: usize,
    /// Attribute flip events (spread over the whole trace).
    pub label_flips: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LabeledChurn {
    fn default() -> LabeledChurn {
        LabeledChurn {
            nodes: 1_000,
            edge_events: 5_000,
            label_flips: 2_000,
            seed: 0x5EED_0006,
        }
    }
}

impl LabeledChurn {
    /// Generate the trace.
    pub fn generate(&self) -> Vec<Event> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut events = Vec::with_capacity(self.nodes * 2 + self.edge_events + self.label_flips);
        let mut t: Time = 0;

        for id in 0..self.nodes as NodeId {
            events.push(Event::new(t, EventKind::AddNode { id }));
            let label = LABELS[rng.random_range(0..LABELS.len())];
            events.push(Event::new(
                t,
                EventKind::SetNodeAttr {
                    id,
                    key: "EntityType".into(),
                    value: AttrValue::Text(label.into()),
                },
            ));
            t += 1;
        }

        let total = self.edge_events + self.label_flips;
        let mut flips_left = self.label_flips;
        let mut edges_left = self.edge_events;
        for _ in 0..total {
            t += 1;
            let do_flip = if flips_left == 0 {
                false
            } else if edges_left == 0 {
                true
            } else {
                rng.random::<f64>() < flips_left as f64 / (flips_left + edges_left) as f64
            };
            if do_flip {
                flips_left -= 1;
                let id = rng.random_range(0..self.nodes) as NodeId;
                let label = LABELS[rng.random_range(0..LABELS.len())];
                events.push(Event::new(
                    t,
                    EventKind::SetNodeAttr {
                        id,
                        key: "EntityType".into(),
                        value: AttrValue::Text(label.into()),
                    },
                ));
            } else {
                edges_left -= 1;
                let a = rng.random_range(0..self.nodes) as NodeId;
                let b = rng.random_range(0..self.nodes) as NodeId;
                if a == b {
                    continue;
                }
                events.push(Event::new(
                    t,
                    EventKind::AddEdge {
                        src: a,
                        dst: b,
                        weight: 1.0,
                        directed: false,
                    },
                ));
            }
        }
        events
    }
}

/// Label attached to the dead-term cohort of [`SkewedLabels`] and
/// guaranteed churned away by the end of the trace — queries against
/// it at late timepoints must return the empty set.
pub const DEAD_LABEL: &str = "Deprecated";

/// Secondary attribute churned (set *and* removed) by
/// [`SkewedLabels`], so attribute histories hold `None` points.
pub const CHURN_KEY: &str = "Grade";

/// A Zipf-skewed labeled graph with attribute churn — the workload of
/// the secondary-index experiments.
///
/// Labels are drawn from a ranked vocabulary `Label00..` with
/// probability `∝ 1/rank^s`, so a few **hot terms** cover most nodes
/// while the tail terms stay rare. A cohort of nodes starts with the
/// [`DEAD_LABEL`] and is guaranteed to be relabeled before the trace
/// ends, leaving a **dead term**: its index rows exist in early spans
/// but match nothing at late timepoints. A secondary [`CHURN_KEY`]
/// attribute is repeatedly set and removed, so attribute histories
/// see `None` transitions too.
///
/// Every attribute event is stamped at `t >= 1`. (No reader needs
/// that any longer — an attribute history counts time-0 points like
/// any other — but `benchmark/`'s labelled dataset is this trace, so
/// the stamps stay as they are.)
#[derive(Debug, Clone, Copy)]
pub struct SkewedLabels {
    /// Number of nodes.
    pub nodes: usize,
    /// Label vocabulary size (ranked, Zipf-weighted).
    pub labels: usize,
    /// Zipf skew exponent (`1.0` ≈ classic Zipf; higher = hotter head).
    pub zipf_s: f64,
    /// Fraction of nodes seeded with the [`DEAD_LABEL`] (churned away
    /// before the trace ends).
    pub dead_fraction: f64,
    /// Structural edge events.
    pub edge_events: usize,
    /// Attribute churn events (label flips plus [`CHURN_KEY`]
    /// set/remove pairs), spread over the trace.
    pub attr_churn: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SkewedLabels {
    fn default() -> SkewedLabels {
        SkewedLabels {
            nodes: 1_000,
            labels: 32,
            zipf_s: 1.2,
            dead_fraction: 0.05,
            edge_events: 5_000,
            attr_churn: 2_000,
            seed: 0x5EED_0008,
        }
    }
}

impl SkewedLabels {
    /// The ranked label vocabulary.
    pub fn vocabulary(&self) -> Vec<String> {
        (0..self.labels.max(1))
            .map(|i| format!("Label{i:02}"))
            .collect()
    }

    fn zipf_cdf(&self) -> Vec<f64> {
        let n = self.labels.max(1);
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(self.zipf_s);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        cum
    }

    /// Generate the trace.
    pub fn generate(&self) -> Vec<Event> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let vocab = self.vocabulary();
        let cdf = self.zipf_cdf();
        let nlabels = vocab.len();
        let zipf = move |rng: &mut StdRng| {
            let x: f64 = rng.random();
            cdf.partition_point(|&c| c < x).min(nlabels - 1)
        };
        let set_label = |id: NodeId, t: Time, label: &str| {
            Event::new(
                t,
                EventKind::SetNodeAttr {
                    id,
                    key: "EntityType".into(),
                    value: AttrValue::Text(label.into()),
                },
            )
        };

        let mut events = Vec::new();
        let dead_count =
            ((self.nodes as f64 * self.dead_fraction).round() as usize).min(self.nodes);
        let mut deprecated: Vec<NodeId> = Vec::new();
        // Attribute events start at t = 1 (see the type-level doc).
        let mut t: Time = 1;
        for id in 0..self.nodes as NodeId {
            events.push(Event::new(t, EventKind::AddNode { id }));
            if (id as usize) < dead_count {
                events.push(set_label(id, t, DEAD_LABEL));
                deprecated.push(id);
            } else {
                let label = vocab[zipf(&mut rng)].clone();
                events.push(set_label(id, t, &label));
            }
            t += 1;
        }

        let total = self.edge_events + self.attr_churn;
        let mut churn_left = self.attr_churn;
        let mut edges_left = self.edge_events;
        let mut graded: Vec<NodeId> = Vec::new();
        for _ in 0..total {
            t += 1;
            let do_churn = if churn_left == 0 {
                false
            } else if edges_left == 0 {
                true
            } else {
                rng.random::<f64>() < churn_left as f64 / (churn_left + edges_left) as f64
            };
            if do_churn {
                churn_left -= 1;
                match rng.random_range(0..3u8) {
                    // Label flip (retiring a Deprecated node when any
                    // remain, so the dead term drains steadily).
                    0 => {
                        let id = match deprecated.pop() {
                            Some(id) => id,
                            None => rng.random_range(0..self.nodes) as NodeId,
                        };
                        let label = vocab[zipf(&mut rng)].clone();
                        events.push(set_label(id, t, &label));
                    }
                    // Grade set.
                    1 => {
                        let id = rng.random_range(0..self.nodes) as NodeId;
                        let grade = ["A", "B", "C"][rng.random_range(0..3)];
                        events.push(Event::new(
                            t,
                            EventKind::SetNodeAttr {
                                id,
                                key: CHURN_KEY.into(),
                                value: AttrValue::Text(grade.into()),
                            },
                        ));
                        graded.push(id);
                    }
                    // Grade removal (of a node known to hold one, when
                    // any does — removals of absent keys are no-ops).
                    _ => {
                        let id = match graded.pop() {
                            Some(id) => id,
                            None => rng.random_range(0..self.nodes) as NodeId,
                        };
                        events.push(Event::new(
                            t,
                            EventKind::RemoveNodeAttr {
                                id,
                                key: CHURN_KEY.into(),
                            },
                        ));
                    }
                }
            } else {
                edges_left -= 1;
                let a = rng.random_range(0..self.nodes) as NodeId;
                let b = rng.random_range(0..self.nodes) as NodeId;
                if a == b {
                    continue;
                }
                events.push(Event::new(
                    t,
                    EventKind::AddEdge {
                        src: a,
                        dst: b,
                        weight: 1.0,
                        directed: false,
                    },
                ));
            }
        }

        // Guarantee the dead term: relabel any Deprecated stragglers.
        for id in deprecated.drain(..) {
            t += 1;
            let label = vocab[zipf(&mut rng)].clone();
            events.push(set_label(id, t, &label));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgs_delta::Delta;

    #[test]
    fn every_node_has_a_label() {
        let ev = LabeledChurn {
            nodes: 300,
            ..Default::default()
        }
        .generate();
        let state = Delta::snapshot_by_replay(&ev, u64::MAX);
        for n in state.iter() {
            let l = n.attrs.get("EntityType").and_then(|v| v.as_text()).unwrap();
            assert!(LABELS.contains(&l));
        }
    }

    #[test]
    fn has_requested_flip_volume() {
        let cfg = LabeledChurn {
            nodes: 100,
            edge_events: 1_000,
            label_flips: 500,
            seed: 1,
        };
        let ev = cfg.generate();
        let flips = ev
            .iter()
            .skip(cfg.nodes * 2)
            .filter(|e| matches!(e.kind, EventKind::SetNodeAttr { .. }))
            .count();
        assert_eq!(flips, 500);
    }

    #[test]
    fn deterministic() {
        let cfg = LabeledChurn::default();
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn skewed_is_deterministic() {
        let cfg = SkewedLabels::default();
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn skewed_head_is_hot_and_tail_is_cold() {
        let cfg = SkewedLabels {
            nodes: 2_000,
            labels: 32,
            ..Default::default()
        };
        let state = Delta::snapshot_by_replay(&cfg.generate(), u64::MAX);
        let count = |label: &str| {
            state
                .iter()
                .filter(|n| {
                    n.attrs
                        .get("EntityType")
                        .and_then(|v| v.as_text())
                        .is_some_and(|t| t == label)
                })
                .count()
        };
        let head = count("Label00");
        let tail = count("Label31");
        assert!(
            head > 10 * tail.max(1),
            "head label should dominate, head={head} tail={tail}"
        );
        assert!(head > 0 && tail < cfg.nodes / 32);
    }

    #[test]
    fn dead_label_exists_early_and_is_gone_at_the_end() {
        let cfg = SkewedLabels {
            nodes: 400,
            ..Default::default()
        };
        let events = cfg.generate();
        // Present early: some node is labeled Deprecated at creation.
        let early = Delta::snapshot_by_replay(&events, cfg.nodes as u64);
        let dead_at = |state: &Delta| {
            state
                .iter()
                .filter(|n| {
                    n.attrs
                        .get("EntityType")
                        .and_then(|v| v.as_text())
                        .is_some_and(|t| t == DEAD_LABEL)
                })
                .count()
        };
        assert!(dead_at(&early) > 0, "dead-term cohort was seeded");
        // Gone at the end: the term is dead.
        let last = Delta::snapshot_by_replay(&events, u64::MAX);
        assert_eq!(dead_at(&last), 0, "dead term must be fully churned away");
    }

    #[test]
    fn grade_churn_includes_removals_and_attrs_stay_off_time_zero() {
        let events = SkewedLabels {
            nodes: 300,
            attr_churn: 1_000,
            ..Default::default()
        }
        .generate();
        let mut sets = 0;
        let mut removes = 0;
        for e in &events {
            match &e.kind {
                EventKind::SetNodeAttr { key, .. } => {
                    assert!(e.time >= 1, "attribute event at t=0");
                    if key == CHURN_KEY {
                        sets += 1;
                    }
                }
                EventKind::RemoveNodeAttr { key, .. } => {
                    assert!(e.time >= 1, "attribute event at t=0");
                    if key == CHURN_KEY {
                        removes += 1;
                    }
                }
                _ => {}
            }
        }
        assert!(sets > 100, "grade churn present, sets={sets}");
        assert!(removes > 100, "grade removals present, removes={removes}");
    }
}
