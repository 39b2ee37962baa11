//! Snapshot codec round-trip battery for the model crate.
//!
//! Every `StateEncode` impl in `vne-model` must round-trip through its
//! `StateDecode` twin byte-exactly — this is the pairing the `vne-audit`
//! D5 rule (`snapshot-pairing`) checks: each encodable type is named in
//! a round-trip test here.

use vne_model::churn::{ChurnEvent, ChurnState};
use vne_model::embedding::{Embedding, Footprint};
use vne_model::ids::{AppId, ClassId, LinkId, NodeId, RequestId};
use vne_model::prelude::Decision;
use vne_model::request::{Request, SlotEvents};
use vne_model::state::{StateBlob, StateDecode, StateEncode, StateReader, StateWriter};
use vne_model::substrate::{SubstrateNetwork, Tier};

/// Encodes `value`, decodes it back, and checks the blob is fully
/// consumed and the value unchanged.
fn roundtrip<T>(value: &T) -> T
where
    T: StateEncode + StateDecode + PartialEq + std::fmt::Debug,
{
    let mut w = StateWriter::new();
    w.write(value);
    let blob = w.finish();
    let mut r = StateReader::new(&blob);
    let decoded: T = r.read().expect("decode");
    r.finish().expect("no trailing bytes");
    assert_eq!(&decoded, value);
    decoded
}

fn small_substrate() -> SubstrateNetwork {
    let mut s = SubstrateNetwork::new("rt");
    for (i, tier) in [Tier::Edge, Tier::Transport, Tier::Core].iter().enumerate() {
        s.add_node(format!("n{i}"), *tier, 100.0 + i as f64, 1.0)
            .unwrap();
    }
    s.add_link(NodeId::from_index(0), NodeId::from_index(1), 50.0, 1.0)
        .unwrap();
    s.add_link(NodeId::from_index(1), NodeId::from_index(2), 25.0, 2.0)
        .unwrap();
    s
}

fn sample_request(id: u64) -> Request {
    Request {
        id: RequestId::from_index(id as usize),
        arrival: 3,
        duration: 7,
        ingress: NodeId::from_index(1),
        app: AppId::from_index(2),
        demand: 1.5,
    }
}

#[test]
fn ids_and_class_roundtrip() {
    roundtrip(&NodeId::from_index(5));
    roundtrip(&LinkId::from_index(9));
    roundtrip(&AppId::from_index(3));
    roundtrip(&RequestId::from_index(123456));
    roundtrip(&ClassId::new(AppId::from_index(1), NodeId::from_index(4)));
}

#[test]
fn state_blob_roundtrip() {
    let blob = StateBlob::from_bytes(vec![1, 2, 3]);
    roundtrip(&vec![blob.clone(), StateBlob::default()]);
    // A nested blob is written as `write_blob` writes it: the length,
    // then the bytes.
    let mut w = StateWriter::new();
    w.write(&blob);
    let mut nested = 3u64.to_le_bytes().to_vec();
    nested.extend([1, 2, 3]);
    assert_eq!(w.finish().into_bytes(), nested);
}

#[test]
fn decision_roundtrip() {
    for d in [Decision::Accept, Decision::Reject, Decision::Shed] {
        roundtrip(&d);
    }
}

#[test]
fn request_roundtrip() {
    roundtrip(&sample_request(42));
}

#[test]
fn footprint_roundtrip() {
    let fp = Footprint::from_parts(
        vec![(NodeId::from_index(0), 0.25), (NodeId::from_index(2), 0.75)],
        vec![(LinkId::from_index(0), 1.0), (LinkId::from_index(1), 0.5)],
    );
    roundtrip(&fp);
    roundtrip(&Footprint::from_parts(Vec::new(), Vec::new()));
}

#[test]
fn embedding_roundtrip() {
    let emb = Embedding::new(
        vec![NodeId::from_index(0), NodeId::from_index(2)],
        vec![vec![LinkId::from_index(0), LinkId::from_index(1)], vec![]],
    );
    roundtrip(&emb);
}

#[test]
fn churn_event_roundtrip() {
    let events = [
        ChurnEvent::NodeDown(NodeId::from_index(1)),
        ChurnEvent::NodeUp(NodeId::from_index(2)),
        ChurnEvent::LinkDown(LinkId::from_index(0)),
        ChurnEvent::LinkUp(LinkId::from_index(1)),
        ChurnEvent::NodeDrain {
            node: NodeId::from_index(0),
            factor: 0.5,
        },
        ChurnEvent::LinkDrain {
            link: LinkId::from_index(1),
            factor: 0.25,
        },
    ];
    for e in events {
        roundtrip(&e);
    }
}

#[test]
fn churn_state_roundtrip() {
    let s = small_substrate();
    let mut churn = ChurnState::pristine(&s);
    churn.apply(&ChurnEvent::NodeDrain {
        node: NodeId::from_index(1),
        factor: 0.5,
    });
    churn.apply(&ChurnEvent::LinkDown(LinkId::from_index(0)));
    let decoded = roundtrip(&churn);
    // The folded factors survive, so effective capacities re-derive
    // identically after a resume.
    assert_eq!(decoded.effective(&s), churn.effective(&s));
}

#[test]
fn slot_events_roundtrip() {
    let ev = SlotEvents {
        slot: 11,
        arrivals: vec![sample_request(7), sample_request(8)],
        churn: vec![ChurnEvent::NodeUp(NodeId::from_index(0))],
    };
    roundtrip(&ev);
    roundtrip(&SlotEvents::empty(0));
}

#[test]
fn containers_roundtrip() {
    roundtrip(&vec![1u32, 2, 3]);
    roundtrip(&Some("text".to_string()));
    roundtrip(&Option::<u64>::None);
    let map: std::collections::BTreeMap<u32, String> =
        [(1, "a".to_string()), (2, "b".to_string())].into();
    roundtrip(&map);
    roundtrip(&(7u32, 2.5f64));
}
