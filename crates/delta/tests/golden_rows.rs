//! Golden bytes: the encoding of one attributed delta and one
//! attributed eventlist, pinned. The one-argument encoders are the
//! empty-table case of the context forms, so these bytes are also what
//! every caller that encodes rows by themselves — the baseline indexes,
//! the benchmark's codec probes — writes. A change here is a change of
//! the row grammar: it moves a row magic and the index's layout tag.
//! These are the rows of delta magic `0xCB` and eventlist magic `0xCC`,
//! under layout tag 12.

use hgs_delta::columnar::{
    encode_columnar_delta, encode_columnar_delta_in, encode_columnar_eventlist,
    encode_columnar_eventlist_in, PairTable,
};
use hgs_delta::{AttrValue, Delta, EdgeDir, Event, EventKind, Eventlist, Neighbor, StaticNode};

fn attributed_delta() -> Delta {
    let mut hub = StaticNode::new(3);
    hub.insert_edge(Neighbor::new(5, EdgeDir::Both));
    let mut heavy = Neighbor::weighted(9, EdgeDir::Out, 2.5);
    heavy.set_attr("since", AttrValue::Int(1999));
    hub.insert_edge(heavy);
    hub.attrs
        .set("EntityType", AttrValue::Text("Person".into()));
    hub.attrs.set("Grade", AttrValue::Int(2));
    let mut leaf = StaticNode::new(5);
    leaf.insert_edge(Neighbor::new(3, EdgeDir::Both));
    leaf.attrs
        .set("EntityType", AttrValue::Text("Person".into()));
    leaf.attrs.set("score", AttrValue::Float(0.5));
    leaf.attrs.set("ok", AttrValue::Bool(true));
    [hub, leaf, StaticNode::new(40)].into_iter().collect()
}

fn attributed_eventlist() -> Eventlist {
    let set = |t, id, key: &str, value| {
        Event::new(
            t,
            EventKind::SetNodeAttr {
                id,
                key: key.into(),
                value,
            },
        )
    };
    Eventlist::from_sorted(vec![
        Event::new(1, EventKind::AddNode { id: 3 }),
        set(1, 3, "EntityType", AttrValue::Text("Person".into())),
        Event::new(
            2,
            EventKind::AddEdge {
                src: 3,
                dst: 5,
                weight: 1.0,
                directed: false,
            },
        ),
        set(2, 5, "Grade", AttrValue::Int(2)),
        set(4, 5, "EntityType", AttrValue::Text("Person".into())),
        Event::new(
            5,
            EventKind::SetEdgeAttr {
                src: 3,
                dst: 5,
                key: "since".into(),
                value: AttrValue::Int(1999),
            },
        ),
        Event::new(
            7,
            EventKind::RemoveNodeAttr {
                id: 3,
                key: "Grade".into(),
            },
        ),
        Event::new(9, EventKind::RemoveEdge { src: 3, dst: 5 }),
    ])
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

const GOLDEN_DELTA: &str = "cb031d043f0503045209050a456e7469747954797065054772616465026f6b0573636f72650573696e63650504009e1f000206506572736f6e0100040203010301000000000000e03fc00024c47f05020000803f00040000002040010100010203010304";
const GOLDEN_ELIST: &str = "cc08ef04040a0226020203000201004d490600020305060758b652b804030a456e74697479547970650547726164650573696e6365030206506572736f6e0004009e1f840184";

#[test]
fn the_empty_table_forms_write_the_pinned_bytes() {
    let d = attributed_delta();
    let el = attributed_eventlist();
    let empty = PairTable::default();
    assert_eq!(hex(&encode_columnar_delta(&d)), GOLDEN_DELTA);
    assert_eq!(hex(&encode_columnar_delta_in(&d, &empty)), GOLDEN_DELTA);
    assert_eq!(hex(&encode_columnar_eventlist(&el)), GOLDEN_ELIST);
    assert_eq!(
        hex(&encode_columnar_eventlist_in(&el, &empty)),
        GOLDEN_ELIST
    );
}
