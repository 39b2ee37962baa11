//! The reserve instance: each shard's scratch algorithm is built once
//! per slot and then decides one spanning candidate per offer.
//!
//! * **Work bound** — over a whole run the reserve instances are handed
//!   every stream arrival once plus one arrival per offer, not the
//!   neighbor's slot again for every offer; an idle shard's instance is
//!   built by its first offer, and not at all in a slot in which nobody
//!   offers it anything.
//! * **Staleness** — an instance whose rejected offer preempted, or
//!   whose shard had a preempting reject adopted away, is rebuilt from
//!   the live state before it decides again (a toy algorithm makes both
//!   cases deterministic).
//! * **Who gets one** — every shard of a `k > 1` coordinator whose
//!   algorithm can snapshot; a one-shard coordinator asks its factory
//!   for the primary alone, and an algorithm that cannot snapshot runs
//!   home-only: no spanning, no checkpoint, shards independent.

use std::sync::{Arc, Mutex};

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::churn::EffectiveCapacities;
use vne_model::embedding::Footprint;
use vne_model::ids::{AppId, NodeId, RequestId};
use vne_model::load::LoadLedger;
use vne_model::policy::PlacementPolicy;
use vne_model::request::{Request, Slot, SlotEvents};
use vne_model::shard::{PartitionAssignment, ShardId, ShardedSubstrate};
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_olive::algorithm::{OnlineAlgorithm, SlotOutcome};
use vne_olive::olive::Olive;
use vne_shard::{ShardCoordinator, SpanningStats};
use vne_sim::engine::{run_stream_with, ReembedAll, RequestOutcome, RequestStatus, SimObserver};
use vne_sim::observe::{Checkpointer, Recorder};
use vne_sim::scenario::{Scenario, ScenarioConfig};
use vne_sim::NullObserver;
use vne_topology::partition::{large_synthetic, GreedyEdgeCut, Partitioner};

/// `(slot, arrivals handed over)` per `process_slot` call.
type CallLog = Arc<Mutex<Vec<(Slot, usize)>>>;

/// Logs every `process_slot` call and forwards everything.
struct Counted {
    inner: Box<dyn OnlineAlgorithm>,
    calls: CallLog,
}

impl OnlineAlgorithm for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn process_slot(
        &mut self,
        t: Slot,
        departures: &[Request],
        arrivals: &[Request],
    ) -> SlotOutcome {
        self.calls.lock().unwrap().push((t, arrivals.len()));
        self.inner.process_slot(t, departures, arrivals)
    }

    fn loads(&self) -> &LoadLedger {
        self.inner.loads()
    }

    fn apply_churn(&mut self, effective: &EffectiveCapacities) {
        self.inner.apply_churn(effective);
    }

    fn footprint_of(&self, id: RequestId) -> Option<&Footprint> {
        self.inner.footprint_of(id)
    }

    fn snapshot_state(&self) -> Option<StateBlob> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        self.inner.restore_state(blob)
    }
}

/// A coordinator whose reserve instances (the second instance the
/// factory is asked for per shard) log their calls, one log per shard.
fn counted_coordinator(
    sharded: ShardedSubstrate,
    mut build: impl FnMut(ShardId, &SubstrateNetwork) -> Box<dyn OnlineAlgorithm>,
) -> (ShardCoordinator, Vec<CallLog>) {
    let logs: Vec<CallLog> = (0..sharded.shard_count())
        .map(|_| CallLog::default())
        .collect();
    let mut seen = vec![false; logs.len()];
    let coordinator = ShardCoordinator::new(sharded, |shard, local| {
        let inner = build(shard, local);
        if !std::mem::replace(&mut seen[shard.index()], true) {
            return inner;
        }
        Box::new(Counted {
            inner,
            calls: logs[shard.index()].clone(),
        })
    });
    (coordinator, logs)
}

/// `golden_parity`'s `large_scenario` (by copy): QUICKG's 300-node
/// world, loaded until it rejects and spans.
fn large_scenario() -> Scenario {
    let s = large_synthetic(300, 7).unwrap();
    let mut apps = AppSet::new();
    for (name, len) in [("chain2", 2), ("chain3", 3)] {
        let chain = shapes::uniform_chain(len, 10.0, 1.0).unwrap();
        apps.push(name, AppShape::Chain, chain).unwrap();
    }
    let mut config = ScenarioConfig::small(4.0).with_seed(11);
    config.test_slots = 40;
    config.measure_window = (4, 36);
    config.trace.mean_rate_per_node = 0.5;
    config.trace.duration_mean = 5.0;
    Scenario::new(s, apps, config)
}

/// The spanning counters of this run as printed before offers stopped
/// replaying the neighbor's slot (`GOLDEN_PRINT=1` on `golden_parity`'s
/// `LARGE_K4_QUICKG_GOLDEN` cell).
const LARGE_K4_QUICKG_SPAN: SpanningStats = SpanningStats {
    candidates: 1489,
    attempts: 3733,
    granted: 647,
    denied: 842,
};

#[test]
fn reserve_instances_see_each_arrival_once_plus_one_per_offer() {
    let scenario = large_scenario();
    let assignment = GreedyEdgeCut { seed: 7 }
        .partition(&scenario.substrate, 4)
        .unwrap();
    let sharded = ShardedSubstrate::new(&scenario.substrate, &assignment).unwrap();
    let (mut coordinator, logs) = counted_coordinator(sharded, |_, local| {
        Box::new(Olive::quickg(
            local.clone(),
            scenario.apps.clone(),
            PlacementPolicy::default(),
        ))
    });
    let stats = coordinator.run(scenario.online_events(), &mut NullObserver);

    let span = coordinator.spanning_stats();
    assert_eq!(span, LARGE_K4_QUICKG_SPAN);
    let handed: usize = logs
        .iter()
        .flat_map(|log| log.lock().unwrap().clone())
        .map(|(_, arrivals)| arrivals)
        .sum();
    assert_eq!(
        handed,
        stats.arrivals + span.attempts,
        "reserve instances were handed {handed} arrivals for {} stream arrivals and {} offers",
        stats.arrivals,
        span.attempts
    );

    // No instance is ever built ahead of having something to decide.
    for log in &logs {
        assert!(log
            .lock()
            .unwrap()
            .iter()
            .all(|&(_, arrivals)| arrivals > 0));
    }
}

/// Two 2-node shards joined by one cut link: a starved home (30 CU) and
/// a roomy neighbor (1000 CU).
fn span_world() -> (ShardedSubstrate, NodeId) {
    let mut s = SubstrateNetwork::new("span");
    let a0 = s.add_node("a0", Tier::Edge, 30.0, 1.0).unwrap();
    let a1 = s.add_node("a1", Tier::Edge, 30.0, 1.0).unwrap();
    let b0 = s.add_node("b0", Tier::Edge, 1000.0, 1.0).unwrap();
    let b1 = s.add_node("b1", Tier::Edge, 1000.0, 1.0).unwrap();
    s.add_link(a0, a1, 500.0, 1.0).unwrap();
    s.add_link(a1, b0, 500.0, 1.0).unwrap();
    s.add_link(b0, b1, 500.0, 1.0).unwrap();
    let assignment = PartitionAssignment::new(vec![0, 0, 1, 1]).unwrap();
    (ShardedSubstrate::new(&s, &assignment).unwrap(), a0)
}

fn request(id: u64, arrival: Slot, ingress: NodeId, demand: f64) -> Request {
    Request {
        id: RequestId(id),
        arrival,
        duration: 10,
        ingress,
        app: AppId(0),
        demand,
    }
}

fn slot(t: Slot, arrivals: Vec<Request>) -> SlotEvents {
    SlotEvents {
        slot: t,
        arrivals,
        churn: vec![],
    }
}

#[test]
fn an_idle_shard_is_reserved_by_its_first_offer_only() {
    let (sharded, a0) = span_world();
    let mut apps = AppSet::new();
    let chain = shapes::uniform_chain(2, 10.0, 3.0).unwrap();
    apps.push("chain", AppShape::Chain, chain).unwrap();
    let (mut coordinator, logs) = counted_coordinator(sharded, |_, local| {
        Box::new(Olive::quickg(
            local.clone(),
            apps.clone(),
            PlacementPolicy::default(),
        ))
    });
    let events = vec![
        // Overflows home (50 CU per VNF): offered to the idle neighbor.
        slot(0, vec![request(0, 0, a0, 5.0)]),
        // Fits home: the neighbor is idle and is offered nothing.
        slot(1, vec![request(1, 1, a0, 1.0)]),
    ];
    coordinator.run(events, &mut NullObserver);
    assert_eq!(coordinator.spanning_stats().granted, 1);
    assert_eq!(*logs[0].lock().unwrap(), [(0, 1), (1, 1)]);
    assert_eq!(*logs[1].lock().unwrap(), [(0, 1)]);
}

/// Holds up to `room` requests. An arrival finding the shard full is
/// rejected — and one with demand ≥ 100, a *bully*, first evicts
/// everything the shard holds and is rejected all the same (OLIVE's
/// preempt-then-fall-through, made unconditional).
struct Room {
    room: usize,
    held: Vec<RequestId>,
    loads: LoadLedger,
}

impl OnlineAlgorithm for Room {
    fn name(&self) -> &str {
        "ROOM"
    }

    fn process_slot(
        &mut self,
        _t: Slot,
        departures: &[Request],
        arrivals: &[Request],
    ) -> SlotOutcome {
        self.held
            .retain(|id| !departures.iter().any(|d| d.id == *id));
        let mut outcome = SlotOutcome::default();
        for r in arrivals {
            if self.held.len() < self.room {
                self.held.push(r.id);
                outcome.accepted.push(r.id);
                continue;
            }
            if r.demand >= 100.0 {
                outcome.preempted.append(&mut self.held);
            }
            outcome.rejected.push(r.id);
        }
        outcome
    }

    fn loads(&self) -> &LoadLedger {
        &self.loads
    }

    fn snapshot_state(&self) -> Option<StateBlob> {
        let mut w = StateWriter::new();
        w.write(&self.held);
        Some(w.finish())
    }

    fn restore_state(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        self.held = r.read()?;
        r.finish()
    }
}

/// Three single-node shards, every pair joined by a cut link, shard `i`
/// holding `rooms[i]` requests.
fn room_coordinator(rooms: [usize; 3]) -> (ShardCoordinator, [NodeId; 3]) {
    let mut s = SubstrateNetwork::new("triangle");
    let n = [0, 1, 2].map(|i| s.add_node(format!("n{i}"), Tier::Edge, 1.0, 1.0).unwrap());
    for (a, b) in [(0, 1), (0, 2), (1, 2)] {
        s.add_link(n[a], n[b], 1.0, 1.0).unwrap();
    }
    let assignment = PartitionAssignment::new(vec![0, 1, 2]).unwrap();
    let sharded = ShardedSubstrate::new(&s, &assignment).unwrap();
    let coordinator = ShardCoordinator::new(sharded, |shard, local| {
        Box::new(Room {
            room: rooms[shard.index()],
            held: Vec::new(),
            loads: LoadLedger::new(local),
        })
    });
    (coordinator, n)
}

/// Final status per request id.
#[derive(Default)]
struct Statuses(Vec<(RequestId, RequestStatus)>);

impl SimObserver for Statuses {
    fn on_arrival(&mut self, outcome: &RequestOutcome) {
        self.0.push((outcome.id, outcome.status));
    }
}

/// A bully offered to a full shard evicts its tenants inside the
/// reserve instance and is rejected anyway; commit will never see the
/// bully there, so the next offer must not find the room it made.
#[test]
fn a_rejected_offer_that_preempted_is_not_seen_by_the_next_offer() {
    let (mut coordinator, [a, b, _]) = room_coordinator([0, 2, 0]);
    let events = vec![
        slot(0, vec![request(0, 0, b, 1.0)]),
        slot(
            1,
            vec![
                request(1, 1, b, 1.0),   // fills shard 1 in its reserve step
                request(2, 1, a, 100.0), // bully: no room at home
                request(3, 1, a, 1.0),   // no room at home either
            ],
        ),
    ];
    let mut seen = Statuses::default();
    coordinator.run(events, &mut seen);

    let span = coordinator.spanning_stats();
    assert_eq!(span.candidates, 2);
    assert_eq!(span.attempts, 4, "both candidates try both neighbors");
    assert_eq!(span.granted, 0, "shard 1 is full at commit: {span:?}");
    assert_eq!(coordinator.active_count(), 2);
    assert_eq!(seen.0[3], (RequestId(3), RequestStatus::Rejected));
}

/// A bully rejected at home — after evicting home's tenant in the
/// reserve step — is adopted next door, so home's commit never sees it
/// and the tenant stays: an offer to home must not find the room.
#[test]
fn adopting_a_preempting_reject_away_resets_its_home() {
    let (mut coordinator, [a, _, c]) = room_coordinator([1, 5, 1]);
    let events = vec![
        slot(0, vec![request(0, 0, a, 1.0), request(1, 0, c, 1.0)]),
        slot(
            1,
            vec![
                request(2, 1, a, 100.0), // bully: evicts #0 in reserve, rejected
                request(3, 1, c, 1.0),   // shard 2 is full; asks 0, then 1
            ],
        ),
    ];
    let mut seen = Statuses::default();
    coordinator.run(events, &mut seen);

    let span = coordinator.spanning_stats();
    assert_eq!(span.candidates, 2);
    assert_eq!(span.granted, 2, "{span:?}");
    assert_eq!(span.attempts, 3, "#3 is turned down by shard 0 first");
    assert_eq!(coordinator.active_count(), 4);
    assert_eq!(seen.0[3], (RequestId(3), RequestStatus::Accepted));
}

fn quickg(local: &SubstrateNetwork) -> Box<dyn OnlineAlgorithm> {
    let mut apps = AppSet::new();
    let chain = shapes::uniform_chain(2, 10.0, 3.0).unwrap();
    apps.push("chain", AppShape::Chain, chain).unwrap();
    Box::new(Olive::quickg(
        local.clone(),
        apps,
        PlacementPolicy::default(),
    ))
}

/// One shard has nobody to span to and `step_single` never reserves, so
/// a second instance would be a second plan build for nothing.
#[test]
fn the_factory_is_asked_once_at_k1_and_twice_per_shard_beyond() {
    let (two, _) = span_world();
    let whole = two.source();
    for (assignment, calls) in [
        (PartitionAssignment::single(4).unwrap(), 1),
        (PartitionAssignment::new(vec![0, 1, 2, 3]).unwrap(), 8),
    ] {
        let sharded = ShardedSubstrate::new(whole, &assignment).unwrap();
        let mut asked = Vec::new();
        ShardCoordinator::new(sharded, |shard, local| {
            asked.push(shard);
            quickg(local)
        });
        assert_eq!(asked.len(), calls, "{asked:?}");
        // Primary, then reserve instance, shard by shard.
        assert!(asked.windows(2).all(|w| w[0] <= w[1]), "{asked:?}");
    }
}

/// QUICKG that cannot snapshot.
struct NoSnapshot(Box<dyn OnlineAlgorithm>);

impl OnlineAlgorithm for NoSnapshot {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn process_slot(
        &mut self,
        t: Slot,
        departures: &[Request],
        arrivals: &[Request],
    ) -> SlotOutcome {
        self.0.process_slot(t, departures, arrivals)
    }

    fn loads(&self) -> &LoadLedger {
        self.0.loads()
    }

    fn footprint_of(&self, id: RequestId) -> Option<&Footprint> {
        self.0.footprint_of(id)
    }
}

/// Without snapshots there is no reserve instance: nothing spans (the
/// overflow `an_idle_shard_is_reserved_by_its_first_offer_only` sees
/// adopted next door is rejected at home), each shard decides as an
/// engine of its own would, and a checkpoint is refused, not a panic.
#[test]
fn an_algorithm_without_snapshots_runs_home_only() {
    let (sharded, a0) = span_world();
    let b1 = NodeId(3);
    let events = vec![
        slot(0, vec![request(0, 0, a0, 5.0), request(1, 0, b1, 5.0)]),
        slot(1, vec![request(2, 1, b1, 1.0), request(3, 1, a0, 1.0)]),
    ];
    let mut coordinator = ShardCoordinator::new(sharded.clone(), |_, local| {
        Box::new(NoSnapshot(quickg(local)))
    });
    let mut cp = Checkpointer::every(1, Recorder::new());
    let stats = coordinator.run(events.clone(), &mut cp);

    assert_eq!(coordinator.spanning_stats(), SpanningStats::default());
    assert_eq!(cp.checkpoints_taken(), 0);
    assert!(
        matches!(cp.last_error(), Some(StateError::Unsupported(_))),
        "{:?}",
        cp.last_error()
    );
    let forced = coordinator.checkpoint(cp.inner().snapshot());
    assert!(
        matches!(forced, Err(StateError::Unsupported(_))),
        "{forced:?}"
    );

    let served = cp.inner().clone().finish("QUICKG", &stats).requests;
    assert_eq!(
        served[0].status,
        RequestStatus::Rejected,
        "#0 overflows home"
    );
    for (shard, local) in sharded.shards() {
        let routed = events.iter().map(|e| SlotEvents {
            slot: e.slot,
            arrivals: e
                .arrivals
                .iter()
                .filter(|r| sharded.home_of(r.ingress).shard == shard)
                .map(|r| Request {
                    ingress: sharded.home_of(r.ingress).local,
                    ..r.clone()
                })
                .collect(),
            churn: vec![],
        });
        let mut alone = Recorder::new();
        let stats = run_stream_with(
            &mut *quickg(local),
            local,
            routed,
            &mut alone,
            &mut ReembedAll,
        );
        let alone = alone.finish("QUICKG", &stats).requests;
        assert_eq!(alone.len(), 2);
        for o in alone {
            let same = served.iter().find(|s| s.id == o.id).unwrap();
            assert_eq!(same.status, o.status, "request {} in shard {shard:?}", o.id);
        }
    }
}
