//! Fig. 9: rejection rate by application type in Iris at 100%
//! utilization: four applications of a single type per run (chain, tree,
//! accelerator) plus the standard mix, for OLIVE, QUICKG, FULLG and
//! SLOTOFF.
//!
//! Expected shape (paper): QUICKG is insensitive to the type; FULLG ≈
//! QUICKG statistically but far slower; OLIVE is significantly lower and
//! close to SLOTOFF; the accelerator lowers rejection ('Acc'/'Mix').

use vne_model::app::AppShape;
use vne_sim::scenario::Algorithm;
use vne_workload::appgen::{paper_mix, uniform_shape_set, AppGenConfig};
use vne_workload::rng::SeededRng;

use vne_bench::experiments::sweep_groups;
use vne_bench::BenchOpts;

fn main() {
    let opts = BenchOpts::parse();
    let substrate = vne_topology::zoo::iris().expect("iris");
    let algorithms = [
        Algorithm::Olive,
        Algorithm::Quickg,
        Algorithm::Fullg,
        Algorithm::SlotOff,
    ];
    let app_sets: Vec<(&str, Option<AppShape>)> = vec![
        ("chain", Some(AppShape::Chain)),
        ("tree", Some(AppShape::Tree)),
        ("acc", Some(AppShape::Accelerator)),
        ("mix", None),
    ];

    println!("# Fig. 9 — Iris @100%, rejection rate by application type");
    println!(
        "{:>6} {:>9} {:>12} {:>10} {:>14}",
        "apps", "alg", "rejection", "±95ci", "runtime[s]"
    );
    // One sweep call per application set (a call has one application
    // generator); its four algorithms share one pool.
    let groups: Vec<_> = algorithms
        .iter()
        .map(|&alg| (alg.into(), opts.config(1.0)))
        .collect();
    for (label, shape) in &app_sets {
        let make_apps = |seed: u64| {
            let mut rng = SeededRng::new(seed).derive(0xF19);
            match shape {
                Some(s) => uniform_shape_set(*s, &AppGenConfig::default(), &mut rng),
                None => paper_mix(&AppGenConfig::default(), &mut rng),
            }
        };
        for row in sweep_groups(&substrate, make_apps, &opts, &groups) {
            println!(
                "{:>6} {:>9} {:>12.4} {:>10.4} {:>14.3}",
                label,
                row.algorithm,
                row.summary.rejection_rate.0,
                row.summary.rejection_rate.1,
                row.summary.online_secs.0,
            );
        }
    }
}
