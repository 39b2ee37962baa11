//! k=1 sharding parity: a single-shard [`ShardCoordinator`] run over
//! the golden-diamond world must produce a window summary
//! *fingerprint-identical* to the unsharded engine
//! ([`Scenario::run_summary`]) for all four builtin algorithms — the
//! coordinator's `k = 1` path is a byte-level pass-through of
//! [`EngineState::step`], not an approximation of it.
//!
//! Plus one pinned k = 4 cell: QUICKG on a 300-node world, where the
//! greedy search (unlike on the 4-node diamond) can end long before it
//! has seen every node.
//!
//! [`EngineState::step`]: vne_sim::EngineState::step

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::policy::PlacementPolicy;
use vne_model::shard::{PartitionAssignment, ShardedSubstrate};
use vne_olive::olive::Olive;
use vne_shard::ShardCoordinator;
use vne_sim::observe::WindowSummary;
use vne_sim::registry::{AlgorithmSpec, BuildContext};
use vne_sim::scenario::{Algorithm, Scenario, ScenarioConfig};
use vne_topology::partition::{large_synthetic, GreedyEdgeCut, Partitioner};
use vne_topology::zoo::golden_diamond;

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
