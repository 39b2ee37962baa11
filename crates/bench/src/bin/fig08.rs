//! Fig. 8: zoom on the allocated demand per slot (scaled down by 100)
//! in Iris at 140% utilization, time slots 200–230, for OLIVE, QUICKG
//! and SLOTOFF against the total requested demand.
//!
//! Expected shape (paper): QUICKG loses a large share of demand even in
//! mild bursts; OLIVE tracks SLOTOFF except in the strongest bursts.

use vne_bench::BenchOpts;
use vne_sim::runner::default_apps;
use vne_sim::scenario::{Algorithm, Scenario, ScenarioConfig};

fn main() {
    let opts = BenchOpts::parse_single_run();
    // This figure needs slots 200–230 of the online phase: run the full
    // 600-slot paper phase regardless of scale flags (single seed).
    let seed = opts.seed_list()[0];
    let config = ScenarioConfig::paper(1.4).with_seed(seed);
    let substrate = vne_topology::zoo::iris().expect("iris");
    let apps = default_apps(seed);
    let scenario = Scenario::new(substrate, apps, config);

    let olive = scenario.run(Algorithm::Olive);
    let quickg = scenario.run(Algorithm::Quickg);
    let slotoff = scenario.run(Algorithm::SlotOff);

    println!("# Fig. 8 — Iris @140%, demand per slot (×100 CU), slots 200–230");
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12}",
        "slot", "requested", "OLIVE", "QUICKG", "SLOTOFF"
    );
    for t in 200..=230usize {
        println!(
            "{:>5} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            t,
            olive.result.slots[t].requested_demand / 100.0,
            olive.result.slots[t].allocated_demand / 100.0,
            quickg.result.slots[t].allocated_demand / 100.0,
            slotoff.result.slots[t].allocated_demand / 100.0,
        );
    }
}
