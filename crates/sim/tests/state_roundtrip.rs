//! Snapshot codec round-trip battery for the simulator's encodable
//! types — the `vne-audit` D5 (`snapshot-pairing`) coverage for
//! `RequestStatus`, `RequestOutcome`, `SlotMetrics` and `StreamStats`.

use vne_model::ids::{AppId, ClassId, NodeId, RequestId};
use vne_model::state::{StateDecode, StateEncode, StateReader, StateWriter};
use vne_sim::engine::{RequestOutcome, RequestStatus, SlotMetrics, StreamStats};

fn roundtrip<T>(value: &T)
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
}

#[test]
fn request_status_roundtrip() {
    for status in [
        RequestStatus::Accepted,
        RequestStatus::Rejected,
        RequestStatus::Preempted(17),
    ] {
        roundtrip(&status);
    }
}

#[test]
fn request_outcome_roundtrip() {
    let outcome = RequestOutcome {
        id: RequestId::from_index(99),
        class: ClassId::new(AppId::from_index(1), NodeId::from_index(3)),
        arrival: 5,
        duration: 12,
        demand: 2.25,
        status: RequestStatus::Preempted(9),
    };
    roundtrip(&outcome);
}

#[test]
fn slot_metrics_roundtrip() {
    let metrics = SlotMetrics {
        requested_demand: 10.5,
        allocated_demand: 8.25,
        resource_cost: 123.0625,
    };
    roundtrip(&metrics);
    roundtrip(&SlotMetrics::default());
}

#[test]
fn stream_stats_roundtrip() {
    let stats = StreamStats {
        slots_run: 9,
        arrivals: 40,
        peak_active: 7,
        online_secs: 1.25,
        stopped_early: true,
    };
    roundtrip(&stats);
    roundtrip(&StreamStats::default());
}

#[test]
fn corrupt_status_tag_is_rejected() {
    let mut w = StateWriter::new();
    w.write_u8(250);
    let blob = w.finish();
    let mut r = StateReader::new(&blob);
    assert!(RequestStatus::decode(&mut r).is_err());
}
