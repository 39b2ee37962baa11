//! Fig. 12: drill-down on the `Franklin` edge node in Iris (100%
//! utilization, one execution): per application, the active demand served
//! inside the guaranteed plan share vs the demand served by borrowing,
//! against the guaranteed (planned) threshold; plus denied arrivals.
//!
//! Expected shape (paper): demand above the per-app threshold is served
//! by borrowing unused budgets of other applications and is occasionally
//! preempted when those applications reclaim their share.

use std::collections::BTreeMap;

use vne_model::ids::ClassId;
use vne_model::request::Slot;
use vne_olive::algorithm::OnlineAlgorithm;
use vne_olive::olive::Olive;
use vne_sim::engine::{RequestStatus, SlotMetrics};
use vne_sim::observe::Inspect;
use vne_sim::runner::default_apps;
use vne_sim::scenario::{Algorithm, Scenario};

use vne_bench::BenchOpts;

fn main() {
    let opts = BenchOpts::parse_single_run();
    let seed = opts.seed_list()[0];
    let substrate = vne_topology::zoo::iris().expect("iris");
    let franklin = substrate.node_by_name("Franklin").expect("Franklin exists");
    let apps = default_apps(seed);
    let app_ids: Vec<_> = apps.ids().collect();
    let app_names: Vec<String> = apps.iter().map(|a| a.name.clone()).collect();
    let scenario = Scenario::new(substrate, apps, opts.config(1.0).with_seed(seed));

    // Record per-slot (planned, borrowed) active demand per app at Franklin.
    let mut series: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    let mut inspect = Inspect(|t: Slot, _: &SlotMetrics, alg: &dyn OnlineAlgorithm| {
        let olive = alg.as_any().and_then(|a| a.downcast_ref::<Olive>());
        let olive = olive.expect("the OLIVE spec builds an Olive");
        let row: Vec<(f64, f64)> = app_ids
            .iter()
            .map(|&a| olive.active_demand_by_class(ClassId::new(a, franklin)))
            .collect();
        series.insert(t, row);
    });
    let outcome = scenario.run_observed(Algorithm::Olive, &mut inspect);
    let plan = outcome.plan.as_ref().expect("OLIVE produces a plan");

    println!("# Fig. 12 — Franklin node (Iris, MMPP), OLIVE guaranteed vs actual");
    print!("{:>5}", "slot");
    for name in &app_names {
        print!(" {name:>10}.g {name:>10}.b");
    }
    println!();
    println!("# per-app guaranteed (planned) demand thresholds:");
    for (i, &a) in app_ids.iter().enumerate() {
        let g = plan
            .class(ClassId::new(a, franklin))
            .map(|cp| cp.guaranteed_demand())
            .unwrap_or(0.0);
        println!("#   {}: {:.2}", app_names[i], g);
    }
    for (t, row) in &series {
        print!("{t:>5}");
        for (planned, borrowed) in row {
            print!(" {planned:>12.2} {borrowed:>12.2}");
        }
        println!();
    }

    // Denied arrivals at Franklin per app.
    let mut denied: BTreeMap<usize, usize> = BTreeMap::new();
    let mut preempted: BTreeMap<usize, usize> = BTreeMap::new();
    for r in &outcome.result.requests {
        if r.class.ingress != franklin {
            continue;
        }
        match r.status {
            RequestStatus::Rejected => *denied.entry(r.class.app.index()).or_insert(0) += 1,
            RequestStatus::Preempted(_) => *preempted.entry(r.class.app.index()).or_insert(0) += 1,
            RequestStatus::Accepted => {}
        }
    }
    println!("# denied at Franklin by app (rejected / preempted):");
    for (i, name) in app_names.iter().enumerate() {
        println!(
            "#   {name}: {} / {}",
            denied.get(&i).unwrap_or(&0),
            preempted.get(&i).unwrap_or(&0)
        );
    }
}
