//! Plan inspection: what PLAN-VNE actually computes.
//!
//! Builds the plan for a bursty edge workload and prints, per request
//! class, the expected demand, the guaranteed share, the rejected
//! fraction (the quantile water-filling at work) and the embedding
//! columns with their budgets — then cross-checks the column-generation
//! objective against the paper's direct arc LP (Fig. 4) on a reduced
//! instance.
//!
//! Run with: `cargo run --release --example plan_inspection`

use vne::prelude::*;
use vne_olive::planvne::solve_arc_lp;
use vne_workload::estimator::ExactEstimator;
use vne_workload::tracegen;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let substrate = vne::topology::zoo::citta_studi()?;
    let mut rng = SeededRng::new(11);
    let apps = paper_mix(&AppGenConfig::default(), &mut rng);

    // History at 140% utilization → aggregated expected demand (P̂80).
    let mut tc = TraceConfig::default().at_utilization(1.4, &substrate, &apps);
    tc.slots = 600;
    let mut requests = 0;
    let mut estimator = ExactEstimator::new(600, AggregationConfig::default());
    estimator.observe_all(
        tracegen::stream(&substrate, &apps, &tc, &mut rng)
            .inspect(|ev| requests += ev.arrivals.len()),
    );
    println!(
        "history: {requests} requests, {} classes",
        estimator.class_count()
    );
    let aggregate = AggregateDemand::from_demands(&estimator.finalize(&mut rng));

    // PLAN-VNE via column generation.
    let penalty = RejectionPenalty::conservative(&apps, &substrate);
    let config = PlanVneConfig::new(penalty.max_psi());
    let (plan, stats) = solve_plan(
        &substrate,
        &apps,
        &PlacementPolicy::default(),
        &aggregate,
        &config,
    );
    println!(
        "plan: objective {:.4e}, {} columns in {} pricing rounds ({} simplex iterations)",
        stats.objective, stats.columns, stats.rounds, stats.simplex_iterations
    );
    println!(
        "plan-level rejected fraction: {:.2}%\n",
        plan.planned_rejection_fraction() * 100.0
    );

    // The five most-loaded classes in detail.
    let mut classes: Vec<_> = plan.iter().collect();
    classes.sort_by(|a, b| b.expected_demand.total_cmp(&a.expected_demand));
    println!(
        "{:<10} {:>10} {:>11} {:>9}  columns (share → budget)",
        "class", "demand", "guaranteed", "rejected"
    );
    for cp in classes.iter().take(5) {
        let cols = cp
            .columns
            .iter()
            .map(|c| format!("{:.0}%→{:.0}", c.share * 100.0, c.budget))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{:<10} {:>10.1} {:>11.1} {:>8.1}%  [{}]",
            cp.class.to_string(),
            cp.expected_demand,
            cp.guaranteed_demand(),
            cp.rejected_fraction * 100.0,
            cols
        );
    }

    // Cross-check against the faithful Fig. 4 arc LP on a reduced
    // aggregate (the arc LP scales only to small instances).
    let reduced = AggregateDemand::from_demands(
        &aggregate
            .requests()
            .iter()
            .take(6)
            .map(|r| (r.class, r.demand))
            .collect(),
    );
    let (_, colgen_stats) = solve_plan(
        &substrate,
        &apps,
        &PlacementPolicy::default(),
        &reduced,
        &config,
    );
    let arc = solve_arc_lp(
        &substrate,
        &apps,
        &PlacementPolicy::default(),
        &reduced,
        &config,
    );
    println!(
        "\ncross-check on 6 classes: column generation {:.6e} vs arc LP {:.6e} (diff {:.2e})",
        colgen_stats.objective,
        arc.objective,
        (colgen_stats.objective - arc.objective).abs()
    );
    assert!(
        (colgen_stats.objective - arc.objective).abs() / arc.objective.max(1.0) < 1e-4,
        "the two PLAN-VNE solvers must agree"
    );
    Ok(())
}
