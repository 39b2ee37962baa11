//! Timing probe: calibrates default experiment scales (not a figure).

use std::time::Instant;

use vne_bench::BenchOpts;
use vne_model::request::Slot;
use vne_model::substrate::SearchStats;
use vne_olive::algorithm::OnlineAlgorithm;
use vne_olive::olive::Olive;
use vne_sim::engine::SlotMetrics;
use vne_sim::observe::Inspect;
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
            // The greedy-search counters of OLIVE/QUICKG as of the last
            // slot (FULLG and SLOTOFF do not search: they stay at zero).
            let mut search = SearchStats::default();
            let mut inspect = Inspect(|_: Slot, _: &SlotMetrics, alg: &dyn OnlineAlgorithm| {
                if let Some(olive) = alg.as_any().and_then(|a| a.downcast_ref::<Olive>()) {
                    search = olive.search_stats();
                }
            });
            let t = Instant::now();
            let out = sc.run_observed(alg, &mut inspect);
            println!(
                "{label:12} {:8} rej={:.4} cost={:.3e} arrivals={:6} plan={:.2}s online={:.2}s total={:.2}s \
                 searches={} settled/search={:.1} of {} nodes",
                alg.name(),
                out.summary.rejection_rate,
                out.summary.total_cost,
                out.summary.arrivals,
                out.plan_secs,
                out.summary.online_secs,
                t.elapsed().as_secs_f64(),
                search.searches,
                search.settled as f64 / search.searches.max(1) as f64,
                sc.substrate.node_count(),
            );
        }
    }
}
