//! Per-shard planning ([`shard_demands`] / [`shard_plans`]) against the
//! unsharded planning pipeline: one shard reproduces it bit for bit,
//! four shards split its classes without losing or duplicating any.

use std::collections::BTreeSet;

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::ids::ClassId;
use vne_model::policy::PlacementPolicy;
use vne_model::shard::{PartitionAssignment, ShardedSubstrate};
use vne_olive::aggregate::AggregateDemand;
use vne_olive::colgen::{solve_plan, PlanVneConfig};
use vne_shard::{shard_demands, shard_plans};
use vne_topology::partition::{large_synthetic, GreedyEdgeCut, Partitioner};
use vne_topology::zoo::golden_diamond;
use vne_workload::estimator::{AggregationConfig, ExactEstimator};
use vne_workload::rng::SeededRng;
use vne_workload::tracegen::{self, ArrivalKind, TraceConfig};

const HISTORY_SLOTS: u32 = 80;

fn trace_config(mean_rate_per_node: f64, demand_mean: f64) -> TraceConfig {
    TraceConfig {
        slots: HISTORY_SLOTS,
        mean_rate_per_node,
        demand_mean,
        demand_std: 0.2 * demand_mean,
        duration_mean: 5.0,
        arrivals: ArrivalKind::Poisson,
        ..TraceConfig::default()
    }
}

#[test]
fn single_shard_planning_equals_the_unsharded_pipeline() {
    let (s, apps) = golden_diamond().unwrap();
    let tc = trace_config(2.0, 10.0);
    let aggregation = AggregationConfig {
        bootstrap_replicates: 10,
        ..AggregationConfig::default()
    };
    let policy = PlacementPolicy::default();
    let config = PlanVneConfig::new(50.0);

    let expected = AggregateDemand::from_stream(
        tracegen::stream(&s, &apps, &tc, SeededRng::new(77)),
        &mut ExactEstimator::new(HISTORY_SLOTS, aggregation),
        &mut SeededRng::new(9),
    );
    assert!(!expected.is_empty(), "the history must produce demand");
    let (_, expected_stats) = solve_plan(&s, &apps, &policy, &expected, &config);

    let assignment = PartitionAssignment::single(s.node_count()).unwrap();
    let sharded = ShardedSubstrate::new(&s, &assignment).unwrap();
    let demands = shard_demands(
        &sharded,
        tracegen::stream(&s, &apps, &tc, SeededRng::new(77)),
        HISTORY_SLOTS,
        aggregation,
        &mut SeededRng::new(9),
    );
    assert_eq!(demands.len(), 1);
    assert_eq!(demands[0].requests(), expected.requests());

    let plans = shard_plans(&sharded, &apps, &policy, &demands, &config);
    assert_eq!(plans.len(), 1);
    assert_eq!(
        plans[0].1.objective.to_bits(),
        expected_stats.objective.to_bits()
    );
}

#[test]
fn four_shards_split_the_unsharded_classes_exactly() {
    let s = large_synthetic(120, 21).unwrap();
    let mut apps = AppSet::new();
    for (name, len) in [("chain2", 2), ("chain3", 3)] {
        apps.push(
            name,
            AppShape::Chain,
            shapes::uniform_chain(len, 10.0, 1.0).unwrap(),
        )
        .unwrap();
    }
    let tc = trace_config(0.3, 1.0);
    // At α = 100 a class's `P̂_α` is positive iff the history touched it
    // (short of all 100 replicates missing every busy slot), so which
    // classes carry demand does not depend on the bootstrap draws.
    let aggregation = AggregationConfig {
        alpha: 100.0,
        ..AggregationConfig::default()
    };

    let mut unsharded = ExactEstimator::new(HISTORY_SLOTS, aggregation);
    let expected = AggregateDemand::from_stream(
        tracegen::stream(&s, &apps, &tc, SeededRng::new(77)),
        &mut unsharded,
        &mut SeededRng::new(9),
    );
    assert!(!expected.is_empty(), "the history must produce demand");

    let assignment = GreedyEdgeCut { seed: 21 }.partition(&s, 4).unwrap();
    let sharded = ShardedSubstrate::new(&s, &assignment).unwrap();
    let demands = shard_demands(
        &sharded,
        tracegen::stream(&s, &apps, &tc, SeededRng::new(77)),
        HISTORY_SLOTS,
        aggregation,
        &mut SeededRng::new(9),
    );
    assert_eq!(demands.len(), 4);

    // The bootstrap draws follow shard order, so the k = 4 values differ
    // from the unsharded ones; the k = 4 values stay pinned bit for bit
    // by `PLANNED_K4_OLIVE_GOLDEN` in `golden_parity.rs`. Here: the same
    // classes, each on exactly one shard, each with positive demand.
    let mut merged = BTreeSet::new();
    for ((shard, _), demand) in sharded.shards().zip(&demands) {
        for r in demand.requests() {
            let global = ClassId::new(r.class.app, sharded.global_node(shard, r.class.ingress));
            assert!(
                merged.insert(global),
                "class {global:?} planned on more than one shard"
            );
            assert!(r.demand > 0.0, "class {global:?}: demand {}", r.demand);
        }
    }
    let expected_classes: BTreeSet<ClassId> = expected.requests().iter().map(|r| r.class).collect();
    assert_eq!(merged, expected_classes);

    let plans = shard_plans(
        &sharded,
        &apps,
        &PlacementPolicy::default(),
        &demands,
        &PlanVneConfig::new(50.0),
    );
    assert_eq!(plans.len(), 4);
    for (plan, _) in &plans {
        let rejected = plan.planned_rejection_fraction();
        assert!((0.0..=1.0).contains(&rejected), "{rejected}");
    }
}

#[test]
#[should_panic(expected = "one demand per shard required")]
fn shard_plans_rejects_a_demand_list_of_the_wrong_length() {
    let (s, apps) = golden_diamond().unwrap();
    let assignment = PartitionAssignment::single(s.node_count()).unwrap();
    let sharded = ShardedSubstrate::new(&s, &assignment).unwrap();
    shard_plans(
        &sharded,
        &apps,
        &PlacementPolicy::default(),
        &[],
        &PlanVneConfig::new(50.0),
    );
}

#[test]
#[should_panic(expected = "shard 0: PLAN-VNE master solve of round 0 ended limit reached")]
fn a_shard_plan_whose_master_stops_short_is_refused() {
    let (s, apps) = golden_diamond().unwrap();
    let demand = AggregateDemand::from_stream(
        tracegen::stream(&s, &apps, &trace_config(2.0, 10.0), SeededRng::new(77)),
        &mut ExactEstimator::new(HISTORY_SLOTS, AggregationConfig::default()),
        &mut SeededRng::new(9),
    );
    let assignment = PartitionAssignment::single(s.node_count()).unwrap();
    let sharded = ShardedSubstrate::new(&s, &assignment).unwrap();
    let mut config = PlanVneConfig::new(50.0);
    config.simplex.max_iterations = 0;
    shard_plans(
        &sharded,
        &apps,
        &PlacementPolicy::default(),
        &[demand],
        &config,
    );
}
