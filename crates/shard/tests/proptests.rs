//! Spanning reserve/commit properties (nightly CI runs this at
//! `PROPTEST_CASES=1024`):
//!
//! * **Determinism** — two coordinator runs built from the same inputs
//!   produce bit-identical window summaries and identical spanning
//!   counters, whatever the workload: the reserve/commit tie-break
//!   order (candidates by ascending request id, neighbors by ascending
//!   shard id) leaves nothing to scheduling.
//! * **Conservation** — every arrival is decided exactly once, and the
//!   spanning counters are internally consistent.
//! * **Checkpoint/resume** — for `k ∈ {1, 4}` × all four builtin
//!   algorithms × churn landing inside the run, killing the run at a
//!   random slot, resuming from the [`Checkpointer`]'s checkpoint, and
//!   finishing produces a summary fingerprint (churn counters included)
//!   byte-identical to the uninterrupted run.
//!
//! Plus a pinned deterministic case where a request overflows its tiny
//! home shard and must be adopted by the neighbor.
//!
//! [`Checkpointer`]: vne_sim::observe::Checkpointer

use proptest::prelude::*;
use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::churn::ChurnEvent;
use vne_model::ids::{AppId, LinkId, NodeId, RequestId};
use vne_model::policy::PlacementPolicy;
use vne_model::request::{slot_events, Request, Slot, SlotEvents};
use vne_model::shard::{PartitionAssignment, ShardId, ShardedSubstrate};
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_olive::algorithm::OnlineAlgorithm;
use vne_olive::colgen::PlanVneConfig;
use vne_olive::fullg::FullG;
use vne_olive::slotoff::SlotOff;
use vne_olive::{Olive, OliveConfig, Plan};
use vne_shard::{ShardCoordinator, SpanningStats};
use vne_sim::engine::{RequestOutcome, RequestStatus, SimObserver};
use vne_sim::observe::{Checkpointer, WindowSummary};
use vne_topology::params::TierParams;
use vne_topology::partition::{GreedyEdgeCut, Partitioner};
use vne_topology::random::{erdos_renyi_spec, TierFractions};

fn apps() -> AppSet {
    let mut apps = AppSet::new();
    apps.push(
        "chain",
        AppShape::Chain,
        shapes::uniform_chain(2, 10.0, 3.0).unwrap(),
    )
    .unwrap();
    apps
}

/// Builds a fresh coordinator over `sharded` running FULLG per shard.
fn fullg_coordinator(sharded: &ShardedSubstrate) -> ShardCoordinator {
    let apps = apps();
    ShardCoordinator::new(sharded.clone(), move |_, local| {
        Box::new(FullG::new(
            local.clone(),
            apps.clone(),
            PlacementPolicy::default(),
        ))
    })
}

/// A per-shard builder for the `alg`-th builtin (OLIVE runs an empty
/// plan — the plan is configuration, and identical configuration on
/// both sides is all resume determinism needs).
fn builtin_builder(
    alg: usize,
) -> impl FnMut(ShardId, &SubstrateNetwork) -> Box<dyn OnlineAlgorithm> {
    let apps = apps();
    move |_, local| {
        let policy = PlacementPolicy::default();
        match alg {
            0 => Box::new(Olive::new(
                local.clone(),
                apps.clone(),
                policy,
                Plan::empty(),
                OliveConfig::default(),
            )),
            1 => Box::new(Olive::quickg(local.clone(), apps.clone(), policy)),
            2 => Box::new(FullG::new(local.clone(), apps.clone(), policy)),
            _ => Box::new(SlotOff::new(
                local.clone(),
                apps.clone(),
                policy,
                PlanVneConfig::new(1e4),
            )),
        }
    }
}

/// Injects a churn window into the stream: a link Down/Up pair (which
/// lands on a *cut* link whenever the seed picks one) bracketing a node
/// drain, so resume points can fall before, inside, and after folded
/// churn.
fn churned_events(
    requests: &[Request],
    horizon: Slot,
    s: &SubstrateNetwork,
    seed: u64,
) -> Vec<SlotEvents> {
    let mut events: Vec<SlotEvents> = slot_events(requests, horizon).collect();
    let link = LinkId((seed % s.link_count() as u64) as u32);
    let node = NodeId(((seed >> 8) % s.node_count() as u64) as u32);
    events[horizon as usize / 3]
        .churn
        .push(ChurnEvent::LinkDown(link));
    events[horizon as usize / 2]
        .churn
        .push(ChurnEvent::NodeDrain { node, factor: 0.5 });
    events[horizon as usize * 2 / 3]
        .churn
        .push(ChurnEvent::LinkUp(link));
    events
}

/// Counts decided arrivals by status.
#[derive(Default)]
struct DecisionCount {
    accepted: usize,
    rejected: usize,
}

impl SimObserver for DecisionCount {
    fn on_arrival(&mut self, outcome: &RequestOutcome) {
        match outcome.status {
            RequestStatus::Accepted => self.accepted += 1,
            _ => self.rejected += 1,
        }
    }
}

/// A sharded random world plus an overload-biased request trace.
fn arb_case() -> impl Strategy<Value = (SubstrateNetwork, usize, u64, Vec<Request>)> {
    (
        12usize..32,
        0u64..200,
        2usize..5,
        proptest::collection::vec((0u8..10, 1u8..6, 0u8..32, 1.0f64..9.0), 1..40),
    )
        .prop_map(|(n, seed, k, raw)| {
            let m = n + n / 3;
            let s = erdos_renyi_spec(n, m, seed, TierFractions::default())
                .build(&TierParams::paper(), seed ^ 0xc0de)
                .unwrap();
            let requests: Vec<Request> = raw
                .into_iter()
                .enumerate()
                .map(|(i, (t, dur, node, demand))| Request {
                    id: RequestId(i as u64),
                    arrival: u32::from(t),
                    duration: u32::from(dur),
                    ingress: NodeId(u32::from(node) % n as u32),
                    app: AppId(0),
                    demand,
                })
                .collect();
            (s, k, seed, requests)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same inputs → bit-identical summary and spanning counters.
    #[test]
    fn sharded_runs_are_deterministic((s, k, seed, mut requests) in arb_case()) {
        requests.sort_by_key(|r| (r.arrival, r.id));
        let assignment = GreedyEdgeCut { seed }.partition(&s, k).unwrap();
        let sharded = ShardedSubstrate::new(&s, &assignment).unwrap();
        let events: Vec<SlotEvents> = slot_events(&requests, 12).collect();

        let mut prints = Vec::new();
        let mut spans: Vec<SpanningStats> = Vec::new();
        for _ in 0..2 {
            let mut coordinator = fullg_coordinator(&sharded);
            let mut window = WindowSummary::new((0, 12), penalty(&s));
            let stats = coordinator.run(events.iter().cloned(), &mut window);
            prints.push(window.finish(&stats).fingerprint());
            spans.push(coordinator.spanning_stats());
        }
        prop_assert_eq!(prints[0], prints[1], "summary fingerprint drifted between reruns");
        prop_assert_eq!(spans[0], spans[1], "spanning counters drifted between reruns");
    }

    /// Every arrival is decided exactly once; spanning counters add up.
    #[test]
    fn every_arrival_is_decided_once((s, k, seed, requests) in arb_case()) {
        let assignment = GreedyEdgeCut { seed }.partition(&s, k).unwrap();
        let sharded = ShardedSubstrate::new(&s, &assignment).unwrap();
        let mut coordinator = fullg_coordinator(&sharded);
        let mut count = DecisionCount::default();
        let stats = coordinator.run(slot_events(&requests, 12), &mut count);
        prop_assert_eq!(count.accepted + count.rejected, requests.len());
        prop_assert_eq!(stats.arrivals, requests.len());
        let span = coordinator.spanning_stats();
        prop_assert_eq!(span.granted + span.denied, span.candidates);
        prop_assert!(span.attempts >= span.candidates.min(1));
    }

    /// Kill a sharded run at a random slot, resume from the
    /// checkpoint, finish: the summary fingerprint (churn counters
    /// included) and the spanning counters are byte-identical to the
    /// uninterrupted run — for `k ∈ {1, 4}` and all four builtins,
    /// with churn (sometimes on cut links) landing inside the run.
    #[test]
    fn checkpoint_resume_is_byte_identical(
        (s, _, seed, mut requests) in arb_case(),
        k in any::<bool>().prop_map(|wide| if wide { 4usize } else { 1 }),
        alg in 0usize..4,
        cut in 0u32..12,
    ) {
        requests.sort_by_key(|r| (r.arrival, r.id));
        let assignment = if k == 1 {
            PartitionAssignment::single(s.node_count()).unwrap()
        } else {
            GreedyEdgeCut { seed }.partition(&s, k).unwrap()
        };
        let sharded = ShardedSubstrate::new(&s, &assignment).unwrap();
        let events = churned_events(&requests, 12, &s, seed);

        // Uninterrupted reference.
        let mut coordinator = ShardCoordinator::new(sharded.clone(), builtin_builder(alg));
        let mut window = WindowSummary::new((0, 12), penalty(&s));
        let stats = coordinator.run(events.iter().cloned(), &mut window);
        let reference = window.finish(&stats).fingerprint();
        let reference_span = coordinator.spanning_stats();

        // Kill at slot `cut`, keeping the checkpoint taken there.
        let mut cp = Checkpointer::every(cut + 1, WindowSummary::new((0, 12), penalty(&s)));
        let mut coordinator = ShardCoordinator::new(sharded.clone(), builtin_builder(alg));
        coordinator.run(events.iter().take(cut as usize + 1).cloned(), &mut cp);
        prop_assert_eq!(cp.checkpoints_taken(), 1, "checkpoint error: {:?}", cp.last_error());
        let checkpoint = cp.into_latest().unwrap();
        prop_assert_eq!(checkpoint.slot, cut);

        // Resume into fresh instances and finish the stream.
        let mut window = WindowSummary::new((0, 12), penalty(&s));
        let mut resumed = ShardCoordinator::resume_from(
            sharded.clone(),
            builtin_builder(alg),
            &checkpoint,
            &mut window,
        )
        .unwrap();
        prop_assert_eq!(resumed.next_slot(), u64::from(cut) + 1);
        let stats = resumed.run(
            events
                .iter()
                .filter(|ev| u64::from(ev.slot) > u64::from(cut))
                .cloned(),
            &mut window,
        );
        prop_assert_eq!(
            window.finish(&stats).fingerprint(),
            reference,
            "resumed fingerprint diverged from the uninterrupted run"
        );
        prop_assert_eq!(resumed.spanning_stats(), reference_span);
    }
}

fn penalty(s: &SubstrateNetwork) -> vne_model::cost::RejectionPenalty {
    vne_model::cost::RejectionPenalty::conservative(&apps(), s)
}

/// Two shards: a starved 2-node home and a roomy 2-node neighbor. A
/// demand-5 chain (50 CU per vnode) cannot fit the 30-CU home nodes but
/// fits the neighbor — the spanning path must adopt it, and the
/// observer must see it accepted under its *original* global class.
#[test]
fn overflowing_request_spans_to_the_neighbor_shard() {
    let mut s = SubstrateNetwork::new("span");
    let a0 = s.add_node("a0", Tier::Edge, 30.0, 1.0).unwrap();
    let a1 = s.add_node("a1", Tier::Edge, 30.0, 1.0).unwrap();
    let b0 = s.add_node("b0", Tier::Edge, 1000.0, 1.0).unwrap();
    let b1 = s.add_node("b1", Tier::Edge, 1000.0, 1.0).unwrap();
    s.add_link(a0, a1, 500.0, 1.0).unwrap();
    s.add_link(a1, b0, 500.0, 1.0).unwrap(); // the cut link
    s.add_link(b0, b1, 500.0, 1.0).unwrap();
    let assignment = PartitionAssignment::new(vec![0, 0, 1, 1]).unwrap();
    let sharded = ShardedSubstrate::new(&s, &assignment).unwrap();

    let mut coordinator = fullg_coordinator(&sharded);
    let request = Request {
        id: RequestId(0),
        arrival: 0,
        duration: 3,
        ingress: a0,
        app: AppId(0),
        demand: 5.0,
    };
    let mut probe = SpanProbe::default();
    coordinator.run(slot_events(&[request], 2), &mut probe);

    let span = coordinator.spanning_stats();
    assert_eq!(span.candidates, 1, "home shard must reject in reserve");
    assert_eq!(span.granted, 1, "the neighbor must adopt");
    assert_eq!(span.denied, 0);
    let (status, class) = probe.seen.expect("the arrival was observed");
    assert_eq!(status, RequestStatus::Accepted);
    assert_eq!(class.ingress, a0, "class reports the original ingress");
    assert_eq!(coordinator.active_count(), 1);
}

#[derive(Default)]
struct SpanProbe {
    seen: Option<(RequestStatus, vne_model::ids::ClassId)>,
}

impl SimObserver for SpanProbe {
    fn on_arrival(&mut self, outcome: &RequestOutcome) {
        assert!(self.seen.is_none(), "exactly one arrival expected");
        self.seen = Some((outcome.status, outcome.class));
    }
}
