//! Burst compensation: OLIVE's borrowing and preemption in action
//! (the dynamics behind the paper's Figs. 8 and 12).
//!
//! Runs OLIVE through a bursty MMPP online phase and prints, for the
//! busiest edge datacenter, the per-slot demand served inside the
//! guaranteed plan share vs the demand served by borrowing unused
//! capacity of other classes, alongside OLIVE's service-mode counters.
//!
//! Run with: `cargo run --release --example burst_compensation`

use vne::prelude::*;
use vne::sim::engine::SlotMetrics;
use vne::sim::observe::Inspect;
use vne_model::ids::ClassId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let substrate = vne::topology::zoo::citta_studi()?;
    let mut rng = SeededRng::new(3);
    let apps = paper_mix(&AppGenConfig::default(), &mut rng);
    let app_ids: Vec<_> = apps.ids().collect();

    let mut config = ScenarioConfig::small(1.4).with_seed(3);
    config.history_slots = 600;
    config.test_slots = 120;
    config.measure_window = (20, 100);
    let scenario = Scenario::new(substrate.clone(), apps, config);

    // Find the busiest edge node from the online stream.
    let mut per_node = std::collections::HashMap::new();
    for r in scenario.online_events().flat_map(|ev| ev.arrivals) {
        *per_node.entry(r.ingress).or_insert(0usize) += 1;
    }
    let (&hot, &count) = per_node.iter().max_by_key(|(_, &c)| c).expect("non-empty");
    println!(
        "busiest edge datacenter: {} ({}) with {count} arrivals",
        substrate.node(hot).name,
        hot
    );

    // Run OLIVE, sampling the per-class split at the hot node each slot.
    let mut rows = Vec::new();
    let mut inspect = Inspect(|t: Slot, _: &SlotMetrics, alg: &dyn OnlineAlgorithm| {
        let olive = alg.as_any().and_then(|a| a.downcast_ref::<Olive>());
        let olive = olive.expect("the OLIVE spec builds an Olive");
        let mut planned = 0.0;
        let mut borrowed = 0.0;
        for &a in &app_ids {
            let (p, b) = olive.active_demand_by_class(ClassId::new(a, hot));
            planned += p;
            borrowed += b;
        }
        rows.push((t, planned, borrowed));
    });
    let outcome = scenario.run_observed(Algorithm::Olive, &mut inspect);

    let plan = outcome.plan.as_ref().expect("plan exists");
    let guaranteed: f64 = app_ids
        .iter()
        .filter_map(|&a| plan.class(ClassId::new(a, hot)))
        .map(|cp| cp.guaranteed_demand())
        .sum();
    println!("guaranteed (planned) demand at this node: {guaranteed:.1}\n");

    println!(
        "{:>5} {:>12} {:>12}   burst?",
        "slot", "planned", "borrowed"
    );
    for (t, planned, borrowed) in rows.iter().skip(20).take(40) {
        let marker = if *borrowed > 0.2 * guaranteed.max(1.0) {
            " <== borrowing"
        } else {
            ""
        };
        println!("{t:>5} {planned:>12.1} {borrowed:>12.1}{marker}");
    }

    println!(
        "\nsummary: {:.2}% rejected; resource cost {:.3e}, rejection cost {:.3e}",
        outcome.summary.rejection_rate * 100.0,
        outcome.summary.resource_cost,
        outcome.summary.rejection_cost
    );
    Ok(())
}
