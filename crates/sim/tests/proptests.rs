//! Property-based tests for the simulation engine and metrics.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::cost::RejectionPenalty;
use vne_model::ids::{AppId, NodeId, RequestId};
use vne_model::load::LoadLedger;
use vne_model::policy::PlacementPolicy;
use vne_model::request::{slot_events, Request, Slot, SlotEvents};
use vne_model::state::{Snapshot, StateWriter};
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_olive::algorithm::{OnlineAlgorithm, SlotOutcome};
use vne_olive::olive::Olive;
use vne_sim::engine::{run_stream_with, ReembedAll, RequestStatus, RunResult, SimObserver};
use vne_sim::metrics::Summary;
use vne_sim::observe::{Recorder, Tee, WindowSummary};
use vne_sim::{EngineState, NullObserver};

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

/// An algorithm that accepts exactly the ids in `accept`, places
/// nothing, and records every departure slice the engine hands it.
struct Decider {
    accept: BTreeSet<RequestId>,
    ledger: LoadLedger,
    released: Vec<RequestId>,
}

impl OnlineAlgorithm for Decider {
    fn name(&self) -> &str {
        "DECIDER"
    }

    fn process_slot(
        &mut self,
        _t: Slot,
        departures: &[Request],
        arrivals: &[Request],
    ) -> SlotOutcome {
        self.released.extend(departures.iter().map(|r| r.id));
        let mut outcome = SlotOutcome::default();
        for r in arrivals {
            if self.accept.contains(&r.id) {
                outcome.accepted.push(r.id);
            } else {
                outcome.rejected.push(r.id);
            }
        }
        outcome
    }

    fn loads(&self) -> &LoadLedger {
        &self.ledger
    }
}

/// The engine's calendar as two maps, `slot → departing ids` and
/// `slot → requested drop`, updated the way the engine updated them
/// before they became one calendar.
#[derive(Default)]
struct TwoMaps {
    alive: BTreeMap<RequestId, Request>,
    departures_at: BTreeMap<Slot, Vec<RequestId>>,
    requested_drop: BTreeMap<Slot, f64>,
    requested_active: f64,
    allocated_active: f64,
    next_slot: u64,
}

impl TwoMaps {
    /// Steps slot `t`: returns the ids released, in release order.
    fn step(
        &mut self,
        t: Slot,
        arrivals: &[Request],
        accept: &BTreeSet<RequestId>,
    ) -> Vec<RequestId> {
        self.next_slot = u64::from(t) + 1;
        let mut released = Vec::new();
        while let Some(entry) = self.departures_at.first_entry() {
            if *entry.key() > t {
                break;
            }
            for id in entry.remove() {
                if let Some(r) = self.alive.remove(&id) {
                    self.allocated_active -= r.demand;
                    released.push(id);
                }
            }
        }
        while let Some(entry) = self.requested_drop.first_entry() {
            if *entry.key() > t {
                break;
            }
            self.requested_active -= entry.remove();
        }
        for r in arrivals {
            self.requested_active += r.demand;
            *self.requested_drop.entry(r.departure()).or_insert(0.0) += r.demand;
        }
        for r in arrivals.iter().filter(|r| accept.contains(&r.id)) {
            self.allocated_active += r.demand;
            self.departures_at
                .entry(r.departure())
                .or_default()
                .push(r.id);
            self.alive.insert(r.id, r.clone());
        }
        released
    }

    fn release_early(&mut self, id: RequestId) -> bool {
        if !self.alive.contains_key(&id) {
            return false;
        }
        let slot = Slot::try_from(self.next_slot).unwrap_or(Slot::MAX);
        self.departures_at.entry(slot).or_default().push(id);
        true
    }

    /// The head of an engine snapshot: alive list, the two maps, the
    /// two demand counters.
    fn snapshot_head(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.write_seq(self.alive.values());
        w.write(&self.departures_at);
        w.write(&self.requested_drop);
        w.write_f64(self.requested_active);
        w.write_f64(self.allocated_active);
        w.finish().into_bytes()
    }
}

/// One stepped slot of a calendar run: the gap since the last slot
/// (kind 0 jumps past the calendar's dense window); the arrivals as
/// (duration kind, short duration, far duration, demand, accepted,
/// slots the arrival lies back — so a short stay can depart at or
/// before the slot it is booked in); an early release of the `n`-th
/// accepted id (kind 0); and whether to checkpoint and restore the
/// engine afterwards.
type CalendarStep = (
    u8,
    u32,
    Vec<(u8, u32, u32, f64, bool, u32)>,
    (u8, usize),
    bool,
);

fn arb_calendar_run() -> impl Strategy<Value = (Vec<CalendarStep>, bool)> {
    let arrival = (
        0u8..8,
        1u32..12,
        4000u32..12000,
        0.1f64..10.0,
        any::<bool>(),
        0u32..3,
    );
    let step = (
        0u8..10,
        1u32..4,
        proptest::collection::vec(arrival, 0..5),
        (0u8..3, 0usize..64),
        any::<bool>(),
    );
    (proptest::collection::vec(step, 1..40), any::<bool>())
}

proptest! {
    /// The engine's one calendar against the two maps it replaced, at
    /// every slot: the same release order, the same requested and
    /// allocated demand bits, the same snapshot head bytes. Runs skip
    /// quiet slots (some past the dense window), book departures at
    /// `Slot::MAX` and beyond the window, release early, checkpoint and
    /// restore mid-run, and may end by stepping `Slot::MAX - 1`.
    #[test]
    fn calendar_matches_the_two_maps((steps, to_the_end) in arb_calendar_run()) {
        let (s, _) = world();
        let mut alg = Decider {
            accept: BTreeSet::new(),
            ledger: LoadLedger::new(&s),
            released: Vec::new(),
        };
        let mut state = EngineState::fresh();
        let mut model = TwoMaps::default();
        let mut accepted: Vec<RequestId> = Vec::new();
        let mut next_id = 0u64;
        let mut t: Slot = 0;
        let last = steps.len() - 1;
        for (i, (gap_kind, gap, arrivals, (early_kind, early), restore)) in steps.into_iter().enumerate() {
            if i > 0 {
                let gap = if gap_kind == 0 { 4000 + gap * 1500 } else { gap };
                t += gap;
            }
            if to_the_end && i == last {
                // The last slot a run can step: `Slot::MAX` itself
                // would overflow `StreamStats::slots_run`.
                t = Slot::MAX - 1;
            }
            let arrivals: Vec<Request> = arrivals
                .into_iter()
                .map(|(kind, short, far, demand, accept, back)| {
                    let (arrival, duration) = match kind {
                        0 => (t, Slot::MAX - t),
                        // Around the dense window's reach, so a slot is
                        // often booked both from inside it and from out.
                        1 => (t, (4088 + far % 16).min(Slot::MAX - t)),
                        2 => (t, far.min(Slot::MAX - t)),
                        _ => {
                            let arrival = t - back.min(t);
                            (arrival, short.min(Slot::MAX - arrival))
                        }
                    };
                    let id = RequestId(next_id);
                    next_id += 1;
                    if accept {
                        alg.accept.insert(id);
                    }
                    Request {
                        id,
                        arrival,
                        duration,
                        ingress: NodeId(0),
                        app: AppId(0),
                        demand,
                    }
                })
                .collect();
            let expected = model.step(t, &arrivals, &alg.accept);
            accepted.extend(arrivals.iter().map(|r| r.id).filter(|id| alg.accept.contains(id)));
            alg.released.clear();
            let event = SlotEvents { slot: t, arrivals, churn: Vec::new() };
            let (step, _) = state.step(&mut alg, &s, event, &mut NullObserver, &mut ReembedAll);
            prop_assert_eq!(&alg.released, &expected, "release order at slot {}", t);
            prop_assert_eq!(step.metrics.requested_demand.to_bits(), model.requested_active.to_bits());
            prop_assert_eq!(step.metrics.allocated_demand.to_bits(), model.allocated_active.to_bits());
            if early_kind == 0 && !accepted.is_empty() {
                let id = accepted[early % accepted.len()];
                prop_assert_eq!(state.release_early(id), model.release_early(id));
            }
            let blob = state.snapshot();
            let head = model.snapshot_head();
            prop_assert!(blob.as_bytes().starts_with(&head), "snapshot head at slot {}", t);
            if restore {
                state = EngineState::fresh();
                state.restore(&blob).unwrap();
                prop_assert_eq!(state.snapshot(), blob);
            }
        }
    }
}
