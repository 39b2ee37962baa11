//! Timing probe: calibrates default experiment scales (not a figure).

use std::time::Instant;

use vne_bench::BenchOpts;
use vne_sim::runner::default_apps;
use vne_sim::scenario::{Scenario, ScenarioConfig};

fn main() {
    let opts = BenchOpts::parse_single_run();
    let substrate = vne_topology::zoo::iris().expect("iris builds");
    let apps = default_apps(1);
    for (label, cfg) in [
        ("small(1.0)", ScenarioConfig::small(1.0)),
        ("paper(1.0)", ScenarioConfig::paper(1.0)),
    ] {
        let sc = Scenario::new(substrate.clone(), apps.clone(), cfg)
            .with_registry(opts.registry.clone());
        for alg in &opts.algs {
            let t = Instant::now();
            let out = sc.run(alg);
            println!(
                "{label:12} {:8} rej={:.4} cost={:.3e} arrivals={:6} plan={:.2}s online={:.2}s total={:.2}s",
                alg.name(),
                out.summary.rejection_rate,
                out.summary.total_cost,
                out.summary.arrivals,
                out.plan_secs,
                out.summary.online_secs,
                t.elapsed().as_secs_f64()
            );
        }
    }
}
