//! Ablation study (beyond the paper): which of OLIVE's mechanisms —
//! borrowing, preemption, the greedy fallback — contribute how much to
//! the rejection rate, on Iris at 100% and 140% utilization.
//!
//! The full OLIVE row and the "no plan" row bracket the design space:
//! "no plan" with the greedy fallback only *is* QUICKG.
//!
//! The whole study is one sweep call: the ablation switches do not
//! change the plan inputs, so the offline plan for each (utilization,
//! seed) cell is derived **once** and reused across the five OLIVE
//! variants — the sweep costs one planning pass instead of five.
//! Supports `--checkpoint-every N` / `--resume` like fig06.

use vne_olive::olive::OliveConfig;
use vne_sim::runner::default_apps;
use vne_sim::scenario::Algorithm;

use vne_bench::experiments::sweep_groups;
use vne_bench::BenchOpts;

fn main() {
    let opts = BenchOpts::parse();
    let substrate = vne_topology::zoo::iris().expect("iris");

    let variants: Vec<(&str, OliveConfig)> = vec![
        ("full", OliveConfig::default()),
        (
            "no-borrowing",
            OliveConfig {
                borrowing: false,
                ..OliveConfig::default()
            },
        ),
        (
            "no-preemption",
            OliveConfig {
                preemption: false,
                ..OliveConfig::default()
            },
        ),
        (
            "no-greedy",
            OliveConfig {
                greedy_fallback: false,
                ..OliveConfig::default()
            },
        ),
        (
            "plan-only",
            OliveConfig {
                borrowing: false,
                preemption: false,
                greedy_fallback: false,
                quickg_fast_reject: false,
            },
        ),
    ];

    // Per utilization: the five variants, then the QUICKG reference.
    let mut labels = Vec::new();
    let mut groups = Vec::new();
    for util in [1.0, 1.4] {
        for (label, olive) in &variants {
            let mut config = opts.config(util);
            config.olive = *olive;
            labels.push(*label);
            groups.push((Algorithm::Olive.into(), config));
        }
        labels.push("QUICKG");
        groups.push((Algorithm::Quickg.into(), opts.config(util)));
    }
    let rows = sweep_groups(&substrate, default_apps, &opts, &groups);

    println!("# Ablation — Iris: OLIVE mechanism contributions");
    println!(
        "{:>5} {:>14} {:>12} {:>10} {:>14}",
        "util", "variant", "rejection", "±95ci", "total-cost"
    );
    for (label, row) in labels.iter().zip(&rows) {
        println!(
            "{:>4.0}% {:>14} {:>12.4} {:>10.4} {:>14.4e}",
            row.utilization * 100.0,
            label,
            row.summary.rejection_rate.0,
            row.summary.rejection_rate.1,
            row.summary.total_cost.0
        );
    }
}
