//! Property-based tests for the simulation engine and metrics.

use proptest::prelude::*;
use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::cost::RejectionPenalty;
use vne_model::ids::{AppId, NodeId, RequestId};
use vne_model::policy::PlacementPolicy;
use vne_model::request::{slot_events, Request, Slot};
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_olive::algorithm::OnlineAlgorithm;
use vne_olive::olive::Olive;
use vne_sim::engine::{run_stream_with, ReembedAll, RequestStatus, RunResult, SimObserver};
use vne_sim::metrics::Summary;
use vne_sim::observe::{Recorder, Tee, WindowSummary};

fn world() -> (SubstrateNetwork, AppSet) {
    let mut s = SubstrateNetwork::new("w");
    let e0 = s.add_node("e0", Tier::Edge, 300.0, 50.0).unwrap();
    let e1 = s.add_node("e1", Tier::Edge, 300.0, 50.0).unwrap();
    let t = s.add_node("t", Tier::Transport, 900.0, 10.0).unwrap();
    let c = s.add_node("c", Tier::Core, 2700.0, 1.0).unwrap();
    s.add_link(e0, t, 1500.0, 1.0).unwrap();
    s.add_link(e1, t, 1500.0, 1.0).unwrap();
    s.add_link(t, c, 4500.0, 1.0).unwrap();
    let mut apps = AppSet::new();
    apps.push(
        "a",
        AppShape::Chain,
        shapes::uniform_chain(2, 10.0, 3.0).unwrap(),
    )
    .unwrap();
    apps.push(
        "b",
        AppShape::Tree,
        shapes::two_branch_tree(3, 6.0, 2.0).unwrap(),
    )
    .unwrap();
    (s, apps)
}

/// Streams `trace` for `slots` slots through `observer`.
fn stream(
    alg: &mut Olive,
    s: &SubstrateNetwork,
    trace: &[Request],
    slots: Slot,
    observer: &mut impl SimObserver,
) {
    run_stream_with(alg, s, slot_events(trace, slots), observer, &mut ReembedAll);
}

/// The full outcome log of `trace` over `slots` slots.
fn record(alg: &mut Olive, s: &SubstrateNetwork, trace: &[Request], slots: Slot) -> RunResult {
    let mut recorder = Recorder::new();
    stream(alg, s, trace, slots, &mut recorder);
    recorder.finish(alg.name(), &Default::default())
}

/// The summaries of `trace` over the windows `(10, 30)` and `(0, 50)`.
fn summaries(trace: &[Request]) -> (Summary, Summary) {
    let (s, apps) = world();
    let penalty = RejectionPenalty::uniform(&apps, 100.0);
    let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
    let mut small = WindowSummary::new((10, 30), penalty.clone());
    let mut large = WindowSummary::new((0, 50), penalty);
    stream(&mut alg, &s, trace, 50, &mut Tee(&mut small, &mut large));
    (
        small.finish(&Default::default()),
        large.finish(&Default::default()),
    )
}

fn arb_trace() -> impl Strategy<Value = Vec<Request>> {
    proptest::collection::vec(
        (0u8..40, 1u8..10, any::<bool>(), 0.5f64..15.0, any::<bool>()),
        0..80,
    )
    .prop_map(|raw| {
        let mut requests: Vec<Request> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (t, dur, node, demand, app))| Request {
                id: RequestId(i as u64),
                arrival: u32::from(t),
                duration: u32::from(dur),
                ingress: NodeId(u32::from(node)),
                app: AppId(u32::from(app)),
                demand,
            })
            .collect();
        requests.sort_by_key(|r| (r.arrival, r.id));
        requests
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every request gets exactly one outcome; accepted + denied =
    /// arrivals; the allocated series never exceeds the requested series.
    #[test]
    fn engine_conservation_laws(trace in arb_trace()) {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        let result = record(&mut alg, &s, &trace, 50);
        prop_assert_eq!(result.requests.len(), trace.len());
        let mut ids: Vec<_> = result.requests.iter().map(|r| r.id).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), trace.len());
        for slot in &result.slots {
            prop_assert!(slot.allocated_demand <= slot.requested_demand + 1e-9);
            prop_assert!(slot.allocated_demand >= -1e-9);
            prop_assert!(slot.resource_cost >= 0.0);
        }
    }

    /// The balance index is always within (0, 1].
    #[test]
    fn balance_index_bounds(trace in arb_trace()) {
        let idx = summaries(&trace).1.balance_index;
        prop_assert!(idx > 0.0 && idx <= 1.0 + 1e-12, "index {idx}");
    }

    /// Window monotonicity: a larger window never sees fewer arrivals,
    /// and costs are non-negative and additive.
    #[test]
    fn summary_window_monotonicity(trace in arb_trace()) {
        let (small, large) = summaries(&trace);
        prop_assert!(large.arrivals >= small.arrivals);
        prop_assert!(large.resource_cost >= small.resource_cost - 1e-9);
        prop_assert!(small.total_cost >= 0.0);
        prop_assert!(
            (small.total_cost - (small.resource_cost + small.rejection_cost)).abs() < 1e-9
        );
        prop_assert!(small.rejection_rate >= 0.0 && small.rejection_rate <= 1.0);
    }

    /// Departure slots free their capacity: after all requests expire,
    /// loads return to zero.
    #[test]
    fn loads_drain_after_departures(trace in arb_trace()) {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        // Horizon beyond every departure (max arrival 40 + max duration 10).
        stream(&mut alg, &s, &trace, 60, &mut vne_sim::observe::NullObserver);
        for n in s.node_ids() {
            prop_assert!(alg.loads().node_load(n).abs() < 1e-6);
        }
        for l in s.link_ids() {
            prop_assert!(alg.loads().link_load(l).abs() < 1e-6);
        }
    }

    /// Denied requests appear with a denied status and accepted ones
    /// stay accepted unless preempted (QUICKG never preempts).
    #[test]
    fn quickg_never_preempts(trace in arb_trace()) {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        let result = record(&mut alg, &s, &trace, 50);
        for r in &result.requests {
            prop_assert!(!matches!(r.status, RequestStatus::Preempted(_)));
        }
    }
}
