//! Per-shard plan builds, one [`ExactEstimator`] per shard.
//!
//! The unsharded planning pipeline observes the whole history stream
//! into one estimator and solves one PLAN-VNE over the full substrate —
//! `O(total classes)` memory and one big LP. Sharded planning splits
//! both axes: [`shard_demands`] routes the history stream so each
//! shard's estimator only ever sees the classes homed on it (planning
//! memory stays `O(classes per shard)`), and [`shard_plans`] solves one
//! independent PLAN-VNE per shard-local substrate on the
//! [`cell_map`] worker pool.

use vne_model::app::AppSet;
use vne_model::policy::PlacementPolicy;
use vne_model::pool::cell_map;
use vne_model::request::{Slot, SlotEvents};
use vne_model::shard::ShardedSubstrate;
use vne_olive::aggregate::AggregateDemand;
use vne_olive::colgen::{solve_plan, PlanSolveStats, PlanVneConfig};
use vne_olive::plan::Plan;
use vne_workload::estimator::{AggregationConfig, ExactEstimator};
use vne_workload::rng::SeededRng;

/// Routes a history stream through one [`ExactEstimator`] per shard —
/// each over a `slots`-slot window with `aggregation` — and finalizes
/// each into a shard-local [`AggregateDemand`].
///
/// Each arrival is observed only by the estimator of the shard owning
/// its ingress, with the class ingress remapped to the shard-local node
/// id (so the demands feed [`shard_plans`] directly). Every estimator
/// is built over the same `slots`-slot window and a slot with no
/// arrivals for a shard folds nothing, so a shard's series are the
/// unsharded fold's series of the classes homed on it, under local
/// ingress ids. Estimators are finalized in ascending shard order
/// against the single shared `rng`, making the whole routine
/// deterministic in `(stream, slots, aggregation, rng)`.
pub fn shard_demands(
    sharded: &ShardedSubstrate,
    history: impl IntoIterator<Item = SlotEvents>,
    slots: Slot,
    aggregation: AggregationConfig,
    rng: &mut SeededRng,
) -> Vec<AggregateDemand> {
    let k = sharded.shard_count();
    let mut estimators = vec![ExactEstimator::new(slots, aggregation); k];
    for event in history {
        let mut routed: Vec<SlotEvents> = (0..k).map(|_| SlotEvents::empty(event.slot)).collect();
        for r in &event.arrivals {
            let home = sharded.home_of(r.ingress);
            let mut local = r.clone();
            local.ingress = home.local;
            routed[home.shard.index()].arrivals.push(local);
        }
        for (estimator, ev) in estimators.iter_mut().zip(&routed) {
            estimator.observe_slot(ev);
        }
    }
    estimators
        .iter()
        .map(|estimator| AggregateDemand::from_demands(&estimator.finalize(rng)))
        .collect()
}

/// Solves one PLAN-VNE per shard over its local substrate and demand,
/// in parallel on the shard pool. Results are in shard order.
///
/// # Panics
///
/// Panics if `demands` does not hold one demand per shard, or if a
/// shard's master LP ends anywhere but `Optimal` (the message names the
/// shard, the round and the status; see
/// [`PlanSolveStats::ensure_optimal`]).
pub fn shard_plans(
    sharded: &ShardedSubstrate,
    apps: &AppSet,
    policy: &PlacementPolicy,
    demands: &[AggregateDemand],
    config: &PlanVneConfig,
) -> Vec<(Plan, PlanSolveStats)> {
    assert_eq!(
        demands.len(),
        sharded.shard_count(),
        "one demand per shard required"
    );
    let cells: Vec<usize> = (0..sharded.shard_count()).collect();
    let plans = cell_map(&cells, |&s| {
        let local = sharded.shard(vne_model::shard::ShardId::from_index(s));
        solve_plan(local, apps, policy, &demands[s], config)
    });
    for (s, (_, stats)) in plans.iter().enumerate() {
        if let Err(refusal) = stats.ensure_optimal() {
            panic!("shard {s}: {refusal}");
        }
    }
    plans
}
