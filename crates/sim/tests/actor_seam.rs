//! Parity for the public single-slot seam ([`EngineState::step`]):
//! driving the engine slot by slot from outside — the way the
//! `vne-serve` actor does — must be byte-identical to one
//! [`run_stream_with`] over the same events, for every builtin algorithm.
//! Also pins the [`EngineState::view`] commit hook: a
//! [`Checkpointer`] fed through the external driver captures the same
//! checkpoint bytes as one riding inside `run_stream_with`.

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::request::SlotEvents;
use vne_model::state::Snapshot;
use vne_model::state::StateBlob;
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_sim::engine::{run_stream_with, EngineState, ReembedAll, SimControl, SimObserver};
use vne_sim::observe::{Checkpointer, WindowSummary};
use vne_sim::registry::{AlgorithmSpec, BuildContext};
use vne_sim::scenario::{Algorithm, Scenario, ScenarioConfig};

/// The tiny 4-node world of the streaming-parity suite, fast enough for
/// the exact baselines in debug builds.
fn tiny_scenario(utilization: f64, seed: u64) -> Scenario {
    let mut s = SubstrateNetwork::new("tiny");
    let e0 = s.add_node("e0", Tier::Edge, 300.0, 50.0).unwrap();
    let e1 = s.add_node("e1", Tier::Edge, 300.0, 50.0).unwrap();
    let t = s.add_node("t", Tier::Transport, 900.0, 10.0).unwrap();
    let c = s.add_node("c", Tier::Core, 2700.0, 1.0).unwrap();
    s.add_link(e0, t, 1500.0, 1.0).unwrap();
    s.add_link(e1, t, 1500.0, 1.0).unwrap();
    s.add_link(t, c, 4500.0, 1.0).unwrap();
    let mut apps = AppSet::new();
    apps.push(
        "chain",
        AppShape::Chain,
        shapes::uniform_chain(2, 10.0, 3.0).unwrap(),
    )
    .unwrap();
    apps.push(
        "tree",
        AppShape::Tree,
        shapes::two_branch_tree(3, 6.0, 2.0).unwrap(),
    )
    .unwrap();
    let mut config = ScenarioConfig::small(utilization).with_seed(seed);
    config.history_slots = 60;
    config.test_slots = 25;
    config.measure_window = (2, 22);
    Scenario::new(s, apps, config)
}

fn check_step_parity(scenario: &Scenario, alg: Algorithm) {
    let events: Vec<SlotEvents> = scenario.online_events().collect();
    let spec = AlgorithmSpec::from(alg);
    let ctx = BuildContext::new(scenario);
    let penalty = scenario.penalty();
    let window = scenario.config.measure_window;

    // Reference: one run_stream_with over the whole stream.
    let mut reference_alg = scenario.registry().build(&spec, &ctx).unwrap().algorithm;
    let mut reference_summary = WindowSummary::new(window, penalty.clone());
    let reference_stats = run_stream_with(
        &mut *reference_alg,
        &scenario.substrate,
        events.clone(),
        &mut reference_summary,
        &mut ReembedAll,
    );

    // Actor-style: N external step() calls over the same slots, with
    // the commit hook driven from EngineState::view.
    let mut actor_alg = scenario.registry().build(&spec, &ctx).unwrap().algorithm;
    let mut actor_summary = WindowSummary::new(window, penalty);
    let mut state = EngineState::fresh();
    for event in events.clone() {
        let (_step, control) = state.step(
            &mut *actor_alg,
            &scenario.substrate,
            event,
            &mut actor_summary,
            &mut ReembedAll,
        );
        assert_eq!(control, SimControl::Continue, "{alg}: unexpected stop");
    }
    let actor_stats = state.stats();

    assert_eq!(
        reference_stats.slots_run, actor_stats.slots_run,
        "{alg}: slots_run"
    );
    assert_eq!(
        reference_stats.arrivals, actor_stats.arrivals,
        "{alg}: arrivals"
    );
    assert_eq!(
        reference_stats.peak_active, actor_stats.peak_active,
        "{alg}: peak_active"
    );
    let reference = reference_summary.finish(&reference_stats);
    let actor = actor_summary.finish(&actor_stats);
    assert_eq!(
        reference.fingerprint(),
        actor.fingerprint(),
        "{alg}: summary fingerprint"
    );
    // The observer state itself must match bit for bit, not only the
    // finished summary.
    assert_eq!(
        reference_summary.snapshot(),
        actor_summary.snapshot(),
        "{alg}: WindowSummary blobs"
    );
}

#[test]
fn external_steps_match_run_stream_for_all_algorithms() {
    let scenario = tiny_scenario(1.1, 11);
    for alg in Algorithm::ALL {
        check_step_parity(&scenario, alg);
    }
}

/// A Checkpointer driven through the external seam (step + view commit)
/// captures the same checkpoint bytes as one riding inside run_stream_with.
#[test]
fn external_commit_hook_feeds_checkpointer_identically() {
    let scenario = tiny_scenario(1.0, 5);
    let spec = AlgorithmSpec::from(Algorithm::Fullg);
    let ctx = BuildContext::new(&scenario);
    let events: Vec<SlotEvents> = scenario.online_events().collect();
    let penalty = scenario.penalty();
    let window = scenario.config.measure_window;

    let mut reference_alg = scenario.registry().build(&spec, &ctx).unwrap().algorithm;
    let mut reference_ckpt = Checkpointer::every(10, WindowSummary::new(window, penalty.clone()));
    run_stream_with(
        &mut *reference_alg,
        &scenario.substrate,
        events.clone(),
        &mut reference_ckpt,
        &mut ReembedAll,
    );

    let mut actor_alg = scenario.registry().build(&spec, &ctx).unwrap().algorithm;
    let mut actor_ckpt = Checkpointer::every(10, WindowSummary::new(window, penalty));
    let mut state = EngineState::fresh();
    for event in events {
        state.step(
            &mut *actor_alg,
            &scenario.substrate,
            event,
            &mut actor_ckpt,
            &mut ReembedAll,
        );
        actor_ckpt.on_slot_committed(&state.view(&*actor_alg));
    }

    let reference = reference_ckpt.into_latest().expect("reference checkpoint");
    let actor = actor_ckpt.into_latest().expect("actor checkpoint");
    assert_eq!(reference.slot, actor.slot);
    assert_eq!(reference.algorithm, actor.algorithm);
    assert_eq!(
        reference.algorithm_state, actor.algorithm_state,
        "algorithm blobs"
    );
    assert_eq!(
        reference.observer_state, actor.observer_state,
        "observer blobs"
    );
    // The engine blob embeds the wall-clock online_secs counter; it is
    // the only permitted difference between the two drivers.
    assert_eq!(
        normalized_engine(&reference.engine),
        normalized_engine(&actor.engine),
        "engine blobs (wall-clock normalized)"
    );
}

/// Re-snapshots an engine blob with its wall-clock counter zeroed.
fn normalized_engine(blob: &StateBlob) -> StateBlob {
    let mut state = EngineState::fresh();
    state.restore(blob).expect("engine blob restores");
    state.set_online_secs(0.0);
    state.snapshot()
}
