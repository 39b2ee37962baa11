//! Fig. 13: effect of deviation from the plan — online demand at 140%
//! utilization with plans built for 60%, 100% and 140% expected
//! utilization, against QUICKG and SLOTOFF.
//!
//! Expected shape (paper): OLIVE(60%) and OLIVE(100%) lose only a few
//! points versus OLIVE(140%) and stay below QUICKG.
//!
//! All five variants are one sweep call, so they share one worker pool
//! and per-seed application draws (and any coinciding plans) are
//! derived once. Supports `--checkpoint-every N` / `--resume` like
//! fig06: the re-run rebuilds every variant's `plan_utilization` tweak
//! itself, so each cell resumes against its own tweaked scenario.

use vne_bench::experiments::sweep_groups;
use vne_bench::BenchOpts;
use vne_sim::runner::default_apps;
use vne_sim::scenario::Algorithm;

fn main() {
    let opts = BenchOpts::parse();
    let substrate = vne_topology::zoo::iris().expect("iris");
    let variants = [
        ("OLIVE(60%)", Algorithm::Olive, Some(0.6)),
        ("OLIVE(100%)", Algorithm::Olive, Some(1.0)),
        ("OLIVE(140%)", Algorithm::Olive, None),
        ("QUICKG", Algorithm::Quickg, None),
        ("SLOTOFF", Algorithm::SlotOff, None),
    ];
    // Fig. 13 is a single-utilization figure: online demand at 140%.
    let groups: Vec<_> = variants
        .iter()
        .map(|&(_, alg, plan_util)| {
            let mut config = opts.config(1.4);
            config.plan_utilization = plan_util;
            (alg.into(), config)
        })
        .collect();
    let rows = sweep_groups(&substrate, default_apps, &opts, &groups);

    println!("# Fig. 13 — Iris @140% online demand, plan built for lower utilization");
    println!("{:>14} {:>12} {:>10}", "variant", "rejection", "±95ci");
    for ((label, ..), row) in variants.iter().zip(&rows) {
        println!(
            "{:>14} {:>12.4} {:>10.4}",
            label, row.summary.rejection_rate.0, row.summary.rejection_rate.1
        );
    }
}
