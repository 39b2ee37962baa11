//! Time-varying plans (the paper's §VI future-work extension).
//!
//! A diurnal workload alternates its hot spot between two halves of the
//! edge (think residential vs business districts). A single static plan
//! must reserve for the *union* of both phases; the time-varying plan
//! solves PLAN-VNE per phase and swaps plans at period boundaries,
//! following the demand.
//!
//! Run with: `cargo run --release --example diurnal_demand`

use vne::prelude::*;
use vne_model::ids::RequestId;
use vne_model::request::{slot_events, Request};
use vne_olive::timeplan::{TimeVaryingPlan, TimedOlive};
use vne_sim::engine::{run_stream_with, ReembedAll};
use vne_workload::dist::{Exponential, Normal, Poisson};
use vne_workload::estimator::ExactEstimator;

use rand::Rng;

const PERIOD: u32 = 50;
const HISTORY_SLOTS: u32 = 800;
const TEST_SLOTS: u32 = 200;

/// Alternating-hotspot trace: even periods load the first half of the
/// edge nodes, odd periods the second half.
fn diurnal_trace(
    substrate: &vne::model::substrate::SubstrateNetwork,
    apps: &AppSet,
    slots: u32,
    rate_hot: f64,
    rng: &mut SeededRng,
) -> Vec<Request> {
    let edge = substrate.edge_nodes();
    let half = edge.len() / 2;
    let demand = Normal::new(10.0, 2.0);
    let duration = Exponential::new(8.0);
    let mut requests = Vec::new();
    let mut id = 0u64;
    for t in 0..slots {
        let phase = (t / PERIOD) % 2;
        let (hot, cold): (&[_], &[_]) = if phase == 0 {
            (&edge[..half], &edge[half..])
        } else {
            (&edge[half..], &edge[..half])
        };
        for (nodes, rate) in [(hot, rate_hot), (cold, rate_hot * 0.1)] {
            for &node in nodes {
                let k = Poisson::new(rate).sample(rng);
                for _ in 0..k {
                    requests.push(Request {
                        id: RequestId(id),
                        arrival: t,
                        duration: duration.sample(rng).round().max(1.0) as u32,
                        ingress: node,
                        app: vne::model::ids::AppId::from_index(rng.gen_range(0..apps.len())),
                        demand: demand.sample_truncated(rng, 0.5),
                    });
                    id += 1;
                }
            }
        }
    }
    requests
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let substrate = vne::topology::zoo::citta_studi()?;
    let mut rng = SeededRng::new(17);
    let apps = paper_mix(&AppGenConfig::default(), &mut rng);
    let policy = PlacementPolicy::default();
    let penalty = RejectionPenalty::conservative(&apps, &substrate);
    let plan_config = PlanVneConfig::new(penalty.max_psi());
    let aggregation = AggregationConfig {
        alpha: 80.0,
        bootstrap_replicates: 40,
    };

    let history = diurnal_trace(&substrate, &apps, HISTORY_SLOTS, 14.0, &mut rng);
    let online = diurnal_trace(&substrate, &apps, TEST_SLOTS, 14.0, &mut rng);
    println!(
        "diurnal workload: {} history / {} online requests, period {PERIOD} slots",
        history.len(),
        online.len()
    );

    // Static plan: one aggregate over the whole history.
    let mut agg_rng = SeededRng::new(18);
    let aggregate = AggregateDemand::from_stream(
        slot_events(&history, HISTORY_SLOTS),
        &mut ExactEstimator::new(HISTORY_SLOTS, aggregation),
        &mut agg_rng,
    );
    let (static_plan, _) = solve_plan(&substrate, &apps, &policy, &aggregate, &plan_config);

    // Time-varying plan: one PLAN-VNE solution per phase.
    let schedule = TimeVaryingPlan::from_stream(
        &substrate,
        &apps,
        &policy,
        slot_events(&history, HISTORY_SLOTS),
        HISTORY_SLOTS,
        PERIOD,
        2,
        &plan_config,
        &aggregation,
        &mut agg_rng,
    );

    let mut static_olive = Olive::new(
        substrate.clone(),
        apps.clone(),
        policy.clone(),
        static_plan,
        OliveConfig::default(),
    );
    let mut timed_olive = TimedOlive::new(
        substrate.clone(),
        apps.clone(),
        policy.clone(),
        schedule,
        OliveConfig::default(),
    );

    println!("\n{:<10} {:>10} {:>14}", "plan", "rejection", "total cost");
    let algorithms: [&mut dyn OnlineAlgorithm; 2] = [&mut static_olive, &mut timed_olive];
    for algorithm in algorithms {
        let mut window = WindowSummary::new((20, TEST_SLOTS - 20), penalty.clone());
        let stats = run_stream_with(
            algorithm,
            &substrate,
            slot_events(&online, TEST_SLOTS),
            &mut window,
            &mut ReembedAll,
        );
        let summary = window.finish(&stats);
        println!(
            "{:<10} {:>9.2}% {:>14.3e}",
            algorithm.name(),
            summary.rejection_rate * 100.0,
            summary.total_cost
        );
    }
    Ok(())
}
