//! The acceptance property of the streaming engine: peak memory is
//! bounded by the number of *active* requests, independent of the trace
//! length.
//!
//! A 30 000-slot stream (two orders of magnitude beyond the paper's
//! 600-slot online phase) is driven end to end with the incremental
//! window-summary observer. Nothing on this path materializes the
//! trace: the generator is lazy (`O(edge nodes)` state), the engine
//! holds only active requests, and the observer keeps `O(classes)`
//! counters. `StreamStats::peak_active` — the engine's high-water mark
//! — must stay at the stationary active-set size (arrival rate ×
//! duration), orders of magnitude below the total number of requests.

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::policy::PlacementPolicy;
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_olive::olive::Olive;
use vne_sim::engine::{run_stream_with, ReembedAll};
use vne_sim::observe::WindowSummary;
use vne_sim::runner::default_apps;
use vne_sim::scenario::{Algorithm, Scenario, ScenarioConfig};
use vne_workload::rng::SeededRng;
use vne_workload::tracegen::{self, ArrivalKind, TraceConfig};

#[test]
fn peak_engine_state_is_independent_of_horizon() {
    // A small world with ample capacity so requests cycle through.
    let mut s = SubstrateNetwork::new("long");
    let e = s.add_node("e0", Tier::Edge, 10_000.0, 50.0).unwrap();
    let c = s.add_node("c0", Tier::Core, 50_000.0, 1.0).unwrap();
    s.add_link(e, c, 100_000.0, 1.0).unwrap();
    let mut apps = AppSet::new();
    apps.push(
        "chain",
        AppShape::Chain,
        shapes::uniform_chain(1, 10.0, 1.0).unwrap(),
    )
    .unwrap();

    let slots = 30_000;
    let config = TraceConfig {
        slots,
        mean_rate_per_node: 2.0,
        demand_mean: 1.0,
        demand_std: 0.2,
        duration_mean: 5.0,
        arrivals: ArrivalKind::Poisson,
        ..TraceConfig::default()
    };

    let mut alg = Olive::quickg(s.clone(), apps.clone(), PlacementPolicy::default());
    let events = tracegen::stream(&s, &apps, &config, SeededRng::new(42));
    let mut observer = WindowSummary::new(
        (0, slots),
        vne_model::cost::RejectionPenalty::uniform(&apps, 1.0),
    );
    let stats = run_stream_with(&mut alg, &s, events, &mut observer, &mut ReembedAll);
    let summary = observer.finish(&stats);

    assert_eq!(stats.slots_run, slots);
    // ~2 arrivals/slot over 30k slots.
    assert!(stats.arrivals > 40_000, "arrivals {}", stats.arrivals);
    assert_eq!(summary.arrivals, stats.arrivals);
    // Stationary active set: rate 2 × mean duration 5 = ~10 requests.
    // The engine's high-water mark must sit near that, not near the
    // 40k+ total — i.e. memory is O(active), not O(trace).
    assert!(
        stats.peak_active < 100,
        "peak_active {} should be orders of magnitude below {} arrivals",
        stats.peak_active,
        stats.arrivals
    );
}

#[test]
fn scenario_summary_path_streams_a_long_online_phase() {
    // The same property through the Scenario API: a 5000-slot online
    // phase (8× the paper's) summarized without an outcome log.
    let substrate = vne_topology::zoo::citta_studi().unwrap();
    let mut config = ScenarioConfig::small(0.8).with_seed(3);
    config.history_slots = 100;
    config.test_slots = 5_000;
    config.measure_window = (100, 4_900);
    config.aggregation.bootstrap_replicates = 10;
    let scenario = Scenario::new(substrate, default_apps(3), config);
    let summary = scenario.run_summary(Algorithm::Quickg).unwrap();
    assert!(summary.arrivals > 10_000, "arrivals {}", summary.arrivals);
    assert!((0.0..=1.0).contains(&summary.rejection_rate));
}
