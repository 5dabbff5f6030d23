//! After the timed phase: re-issue a deterministic sample of each
//! class's queries (the first arguments of its stream), untimed, and
//! hand every answer to the oracle. An `Err` counts as a failed check.

use hgs_delta::{FxHashSet, NodeId};

use crate::api::Index;
use crate::data::Inputs;
use crate::ops::Op;
use crate::oracle::{
    attr_points, events_by_node, history_events_match, subgraph_event_count, Expect, Tally,
    TimedChecks,
};
use crate::trace::Tracer;
use crate::workloads::{Answer, Ctx, KHOP_K, SOTS_K};

/// Queries re-issued per class (at most 200 distinct ones each).
fn sample_size(op: Op) -> u64 {
    match op {
        Op::Snapshot => 16,
        Op::Multipoint => 2,
        Op::NodeAt | Op::LabelAt => 200,
        Op::NodeHistory | Op::AttrHistory => 100,
        Op::Khop => 50,
        Op::SonFetch => 2,
        Op::SotsFetch => 3,
        Op::TafCompute => 1,
    }
}

/// SoN members whose full history is compared, per fetch.
const SON_HISTORY_SAMPLE: usize = 20;

pub fn verify(ctx: &Ctx, wiki: &Index, inputs: &Inputs, tally: &mut Tally) {
    let mut off = Tracer::new(false);
    let mut answers = |op: Op, tally: &mut Tally| -> Vec<Answer> {
        // Multipoint windows start 13 slots apart so two of them cover
        // different spans.
        let stride = if op == Op::Multipoint { 13 } else { 1 };
        (0..sample_size(op))
            .filter_map(|i| match ctx.exec(op, i * stride, wiki, &mut off) {
                Ok(a) => Some(a),
                Err(e) => {
                    tally.record(op, false, || format!("re-issue #{i} failed: {e}"));
                    None
                }
            })
            .collect()
    };

    // --- wiki: structure classes -------------------------------------
    let mut checks = TimedChecks::default();
    let mut histories = Vec::new();
    for op in [
        Op::Snapshot,
        Op::Multipoint,
        Op::NodeAt,
        Op::NodeHistory,
        Op::Khop,
    ] {
        for answer in answers(op, tally) {
            match answer {
                Answer::Snapshot(t, d) => checks.add(op, t, Expect::State(d)),
                Answer::Multipoint(times, deltas) => {
                    tally.record(op, times.len() == deltas.len(), || {
                        format!("{} states for {} times", deltas.len(), times.len())
                    });
                    for (t, d) in times.into_iter().zip(deltas) {
                        checks.add(op, t, Expect::State(d));
                    }
                }
                Answer::NodeAt(nid, t, n) => checks.add(op, t, Expect::Node(nid, n)),
                Answer::NodeHistory(h) => {
                    checks.add(op, h.range.start, Expect::Node(h.id, h.initial.clone()));
                    histories.push(h);
                }
                Answer::Khop(center, t, got) => checks.add(
                    op,
                    t,
                    Expect::Khop {
                        center,
                        k: KHOP_K,
                        got,
                    },
                ),
                _ => unreachable!("exec returns its own class's answer"),
            }
        }
    }
    checks.verify(&inputs.wiki, tally);
    let nodes: FxHashSet<NodeId> = histories.iter().map(|h| h.id).collect();
    let by_node = events_by_node(&inputs.wiki, &nodes);
    for h in &histories {
        let ok = history_events_match(&inputs.wiki, &by_node, h.id, h.range, &h.events);
        tally.record(Op::NodeHistory, ok, || {
            format!("events of node {} differ from the trace", h.id)
        });
    }

    // --- skew: label, attribute and TAF classes ----------------------
    let mut checks = TimedChecks::default();
    let mut attr_answers = Vec::new();
    let mut sons = Vec::new();
    let mut subgraphs = Vec::new();
    for op in [
        Op::LabelAt,
        Op::AttrHistory,
        Op::SonFetch,
        Op::SotsFetch,
        Op::TafCompute,
    ] {
        for answer in answers(op, tally) {
            match answer {
                Answer::LabelAt(label, t, got) => {
                    checks.add(op, t, Expect::Labelled { label, got })
                }
                Answer::AttrHistory(nid, key, points) => attr_answers.push((nid, key, points)),
                Answer::Son(son) => {
                    let mut ids: Vec<NodeId> = son.nodes().iter().map(|n| n.id()).collect();
                    ids.sort_unstable();
                    checks.add(
                        op,
                        son.range().end - 1,
                        Expect::Labelled {
                            label: ctx.q.son_label.clone(),
                            got: ids,
                        },
                    );
                    for n in son.nodes().iter().take(SON_HISTORY_SAMPLE) {
                        checks.add(
                            op,
                            n.start_time(),
                            Expect::Node(n.id(), n.initial().cloned()),
                        );
                    }
                    sons.push(son);
                }
                Answer::Sots(sots) => {
                    for sub in sots.subgraphs() {
                        let ids: FxHashSet<NodeId> = sub.initial().ids().collect();
                        tally.record(op, &ids == sub.members(), || {
                            format!(
                                "members of subgraph {} differ from its initial state",
                                sub.root
                            )
                        });
                        checks.add(
                            op,
                            sub.range().start,
                            Expect::Khop {
                                center: sub.root,
                                k: SOTS_K,
                                got: sub.initial().clone(),
                            },
                        );
                    }
                    subgraphs.push(sots);
                }
                Answer::Taf(series) => {
                    let ids: Vec<NodeId> = ctx.half_son.nodes().iter().map(|n| n.id()).collect();
                    for (t, got) in series {
                        checks.add(
                            op,
                            t,
                            Expect::Density {
                                ids: ids.clone(),
                                got,
                            },
                        );
                    }
                }
                _ => unreachable!("exec returns its own class's answer"),
            }
        }
    }
    checks.verify(&inputs.skew, tally);
    let mut nodes: FxHashSet<NodeId> = attr_answers.iter().map(|(nid, _, _)| *nid).collect();
    for son in &sons {
        nodes.extend(son.nodes().iter().take(SON_HISTORY_SAMPLE).map(|n| n.id()));
    }
    let by_node = events_by_node(&inputs.skew, &nodes);
    for (nid, key, points) in &attr_answers {
        let ok = *points == attr_points(&inputs.skew, &by_node, *nid, key);
        tally.record(Op::AttrHistory, ok, || {
            format!("{key} points of node {nid} differ from the trace")
        });
    }
    for son in &sons {
        for n in son.nodes().iter().take(SON_HISTORY_SAMPLE) {
            let ok = history_events_match(&inputs.skew, &by_node, n.id(), n.range(), n.events());
            tally.record(Op::SonFetch, ok, || {
                format!("events of SoN node {} differ from the trace", n.id())
            });
        }
    }
    for sots in &subgraphs {
        for sub in sots.subgraphs() {
            let want = subgraph_event_count(&inputs.skew, sub.members(), sub.range());
            tally.record(Op::SotsFetch, sub.events().len() == want, || {
                format!(
                    "subgraph {}: {} events, trace has {want}",
                    sub.root,
                    sub.events().len()
                )
            });
        }
    }
}
