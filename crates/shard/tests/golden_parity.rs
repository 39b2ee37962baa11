//! k=1 sharding parity: a single-shard [`ShardCoordinator`] run over
//! the golden-diamond world must produce a window summary
//! *fingerprint-identical* to the unsharded engine
//! ([`Scenario::run_summary`]) for all four builtin algorithms — the
//! coordinator's `k = 1` path is a byte-level pass-through of
//! [`EngineState::step`], not an approximation of it.
//!
//! Plus three pinned `k > 1` cells (summary fingerprint and spanning
//! counters): QUICKG at k = 4 on a 300-node world, where the greedy
//! search (unlike on the 4-node diamond) can end long before it has
//! seen every node; OLIVE with per-shard plans and preemption at k = 4
//! under 140 % load, where reserve steps and span offers preempt; and
//! FULLG at k = 2 with a cut link going down and up around a node
//! drain.
//!
//! [`EngineState::step`]: vne_sim::EngineState::step

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::churn::ChurnEvent;
use vne_model::policy::PlacementPolicy;
use vne_model::request::SlotEvents;
use vne_model::shard::{PartitionAssignment, ShardedSubstrate};
use vne_olive::fullg::FullG;
use vne_olive::olive::{Olive, OliveConfig};
use vne_shard::{shard_demands, shard_plans, ShardCoordinator, SpanningStats};
use vne_sim::observe::WindowSummary;
use vne_sim::registry::{AlgorithmSpec, BuildContext};
use vne_sim::scenario::{Algorithm, Scenario, ScenarioConfig};
use vne_topology::params::TierParams;
use vne_topology::partition::{large_synthetic, GreedyEdgeCut, Partitioner};
use vne_topology::random::{erdos_renyi_spec, TierFractions};
use vne_topology::zoo::golden_diamond;
use vne_workload::rng::SeededRng;

/// The `golden_fingerprints` fixture: the tiny 4-node golden world with
/// the seed-11 configuration whose fingerprints are pinned in
/// `vne-sim`'s golden table.
fn golden_scenario(utilization: f64) -> Scenario {
    let (s, apps) = golden_diamond().unwrap();
    let mut config = ScenarioConfig::small(utilization).with_seed(11);
    config.history_slots = 60;
    config.test_slots = 25;
    config.measure_window = (2, 22);
    config.aggregation.bootstrap_replicates = 10;
    config.trace.mean_rate_per_node = 2.0;
    Scenario::new(s, apps, config)
}

#[test]
fn single_shard_run_matches_unsharded_fingerprint_for_all_builtins() {
    for utilization in [1.0, 1.4] {
        let scenario = golden_scenario(utilization);
        let assignment = PartitionAssignment::single(scenario.substrate.node_count()).unwrap();
        let sharded = ShardedSubstrate::new(&scenario.substrate, &assignment).unwrap();
        for alg in Algorithm::ALL {
            let expected = scenario.run_summary(alg).unwrap();

            // The k=1 local substrate is a bit-exact copy of the
            // source, so the registry-built algorithm (constructed
            // against the source) is the per-shard instance.
            let mut coordinator = ShardCoordinator::new(sharded.clone(), |_, _| {
                scenario
                    .registry()
                    .build(&AlgorithmSpec::from(alg), &BuildContext::new(&scenario))
                    .unwrap()
                    .algorithm
            });
            let mut window = WindowSummary::new(scenario.config.measure_window, scenario.penalty());
            let stats = coordinator.run(scenario.online_events(), &mut window);
            let got = window.finish(&stats);

            assert_eq!(
                got.fingerprint(),
                expected.fingerprint(),
                "{alg} at u={utilization}: k=1 sharded fingerprint {:#018x} != unsharded {:#018x} \
                 (arrivals {}/{}, rejected {}/{})",
                got.fingerprint(),
                expected.fingerprint(),
                got.arrivals,
                expected.arrivals,
                got.rejected,
                expected.rejected,
            );
            // No spanning machinery may even engage at k=1.
            assert_eq!(coordinator.spanning_stats(), Default::default());
        }
    }
}

/// `vne-sim`'s `golden_fingerprints::large_scenario` (by copy): the
/// 300-node world on which QUICKG's greedy search usually ends a few
/// hops from the ingress, loaded until it rejects.
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

/// Captured from the full-Dijkstra-plus-host-scan `collocated_embed`;
/// re-capture with `GOLDEN_PRINT=1 cargo test -p vne-shard --test
/// golden_parity -- --nocapture` after an intentional change.
const LARGE_K4_QUICKG_GOLDEN: u64 = 0x7b8752e85a4bb07f;

/// The greedy-search pin at k = 4: every shard runs `collocated_embed`
/// on its local view, for commits and for every reserve trial, so a
/// search that drifts in host, path or tie-break moves this summary.
#[test]
fn four_shard_quickg_on_the_large_world_matches_golden_fingerprint() {
    let scenario = large_scenario();
    let assignment = GreedyEdgeCut { seed: 7 }
        .partition(&scenario.substrate, 4)
        .unwrap();
    let sharded = ShardedSubstrate::new(&scenario.substrate, &assignment).unwrap();
    let mut coordinator = ShardCoordinator::new(sharded, |_, local| {
        Box::new(Olive::quickg(
            local.clone(),
            scenario.apps.clone(),
            PlacementPolicy::default(),
        ))
    });
    let mut window = WindowSummary::new(scenario.config.measure_window, scenario.penalty());
    let stats = coordinator.run(scenario.online_events(), &mut window);
    let summary = window.finish(&stats);
    let got = summary.fingerprint();
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!(
            "const LARGE_K4_QUICKG_GOLDEN: u64 = {got:#018x}; // arrivals {} rejected {} span {:?}",
            summary.arrivals,
            summary.rejected,
            coordinator.spanning_stats()
        );
        return;
    }
    assert!(
        0 < summary.rejected && summary.rejected < summary.arrivals,
        "the load must saturate without starving: {} of {} rejected",
        summary.rejected,
        summary.arrivals
    );
    assert_eq!(
        got, LARGE_K4_QUICKG_GOLDEN,
        "k=4 large-world QUICKG summary drifted: {got:#018x} != {LARGE_K4_QUICKG_GOLDEN:#018x} \
         (arrivals {}, rejected {}, total cost {})",
        summary.arrivals, summary.rejected, summary.total_cost
    );
}

/// Two uniform chains on an edge-heavy random world (2 % core, 8 %
/// transport, so the whole substrate holds about 1.5× its edge
/// capacity) under a short online phase at `utilization`.
fn edge_heavy_scenario(nodes: usize, seed: u64, utilization: f64) -> Scenario {
    let fractions = TierFractions {
        core: 0.02,
        transport: 0.08,
    };
    let s = erdos_renyi_spec(nodes, nodes + nodes / 2, seed, fractions)
        .build(&TierParams::paper(), seed)
        .unwrap();
    let mut apps = AppSet::new();
    for (name, len) in [("chain2", 2), ("chain3", 3)] {
        let chain = shapes::uniform_chain(len, 10.0, 1.0).unwrap();
        apps.push(name, AppShape::Chain, chain).unwrap();
    }
    let mut config = ScenarioConfig::small(utilization).with_seed(11);
    config.history_slots = 80;
    config.test_slots = 40;
    config.measure_window = (4, 36);
    config.aggregation.bootstrap_replicates = 10;
    config.trace.mean_rate_per_node = 0.5;
    config.trace.duration_mean = 5.0;
    Scenario::new(s, apps, config)
}

/// Runs `coordinator` over `events` and returns what a `k > 1` cell
/// pins: the window-summary fingerprint and the spanning counters
/// (`GOLDEN_PRINT=1` prints them as the constant to paste).
fn pinned_run(
    name: &str,
    scenario: &Scenario,
    coordinator: &mut ShardCoordinator,
    events: Vec<SlotEvents>,
) -> (vne_sim::metrics::Summary, (u64, SpanningStats)) {
    let mut window = WindowSummary::new(scenario.config.measure_window, scenario.penalty());
    let stats = coordinator.run(events, &mut window);
    let summary = window.finish(&stats);
    let got = (summary.fingerprint(), coordinator.spanning_stats());
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!(
            "const {name}: (u64, SpanningStats) = ({:#018x}, {:?}); // arrivals {} rejected {} \
             preempted {} churn {:?}",
            got.0, got.1, summary.arrivals, summary.rejected, summary.preempted, summary.churn
        );
    }
    (summary, got)
}

/// Captured from the whole-slot-replay span offers (every offer a fresh
/// trial of the neighbor's slot); re-capture like the constant above.
const PLANNED_K4_OLIVE_GOLDEN: (u64, SpanningStats) = (
    0x1a85a8b4735ce64a,
    SpanningStats {
        candidates: 340,
        attempts: 716,
        granted: 252,
        denied: 88,
    },
);

/// OLIVE with one plan per shard ([`shard_plans`]) and preemption on,
/// at 140 % of the edge capacity: planned arrivals preempt borrowers
/// inside reserve steps and inside span offers, so this is the cell
/// that moves when an offer leaves a trace it should not.
#[test]
fn four_shard_planned_olive_under_overload_matches_golden_fingerprint() {
    let scenario = edge_heavy_scenario(60, 21, 1.4);
    let assignment = GreedyEdgeCut { seed: 21 }
        .partition(&scenario.substrate, 4)
        .unwrap();
    let sharded = ShardedSubstrate::new(&scenario.substrate, &assignment).unwrap();
    let config = &scenario.config;
    let demands = shard_demands(
        &sharded,
        scenario.history_events(),
        config.history_slots,
        config.aggregation,
        &mut SeededRng::new(9),
    );
    let policy = PlacementPolicy::default();
    let plans = shard_plans(
        &sharded,
        &scenario.apps,
        &policy,
        &demands,
        &scenario.plan_config(),
    );
    let mut coordinator = ShardCoordinator::new(sharded, |shard, local| {
        Box::new(Olive::new(
            local.clone(),
            scenario.apps.clone(),
            policy.clone(),
            plans[shard.index()].0.clone(),
            OliveConfig::default(),
        ))
    });
    let events = scenario.online_events().collect();
    let (summary, got) = pinned_run(
        "PLANNED_K4_OLIVE_GOLDEN",
        &scenario,
        &mut coordinator,
        events,
    );
    if std::env::var("GOLDEN_PRINT").is_ok() {
        return;
    }
    assert!(OliveConfig::default().preemption);
    assert!(summary.preempted > 0, "the overload must preempt");
    assert!(got.1.granted > 0 && got.1.denied > 0, "{:?}", got.1);
    assert_eq!(
        got, PLANNED_K4_OLIVE_GOLDEN,
        "k=4 planned OLIVE drifted (arrivals {}, rejected {}, preempted {})",
        summary.arrivals, summary.rejected, summary.preempted
    );
}

/// Captured like [`PLANNED_K4_OLIVE_GOLDEN`].
const CHURNED_K2_FULLG_GOLDEN: (u64, SpanningStats) = (
    0x2a6f3d539e1ae49f,
    SpanningStats {
        candidates: 78,
        attempts: 78,
        granted: 65,
        denied: 13,
    },
);

/// FULLG at k = 2 with a cut link going down at a third of the run and
/// up at two thirds, around a drain of one of its gateway nodes: reserve
/// steps strand and re-embed, and offers cross (or find dead) the cut.
#[test]
fn two_shard_fullg_under_cut_churn_matches_golden_fingerprint() {
    let scenario = edge_heavy_scenario(12, 5, 1.4);
    let assignment = GreedyEdgeCut { seed: 5 }
        .partition(&scenario.substrate, 2)
        .unwrap();
    let sharded = ShardedSubstrate::new(&scenario.substrate, &assignment).unwrap();
    let cut = sharded.cut_links()[0];
    let node = sharded.global_node(cut.b.shard, cut.b.local);
    let mut events: Vec<SlotEvents> = scenario.online_events().collect();
    let horizon = events.len();
    events[horizon / 3]
        .churn
        .push(ChurnEvent::LinkDown(cut.global));
    events[horizon / 2]
        .churn
        .push(ChurnEvent::NodeDrain { node, factor: 0.5 });
    events[horizon * 2 / 3]
        .churn
        .push(ChurnEvent::LinkUp(cut.global));
    let mut coordinator = ShardCoordinator::new(sharded, |_, local| {
        Box::new(FullG::new(
            local.clone(),
            scenario.apps.clone(),
            PlacementPolicy::default(),
        ))
    });
    let (summary, got) = pinned_run(
        "CHURNED_K2_FULLG_GOLDEN",
        &scenario,
        &mut coordinator,
        events,
    );
    if std::env::var("GOLDEN_PRINT").is_ok() {
        return;
    }
    assert!(summary.churn.stranded > 0, "the churn must strand");
    assert!(got.1.attempts > 0, "the load must span: {:?}", got.1);
    assert_eq!(
        got, CHURNED_K2_FULLG_GOLDEN,
        "k=2 churned FULLG drifted (arrivals {}, rejected {}, churn {:?})",
        summary.arrivals, summary.rejected, summary.churn
    );
}
