//! Fig. 13: effect of deviation from the plan — online demand at 140%
//! utilization with plans built for 60%, 100% and 140% expected
//! utilization, against QUICKG and SLOTOFF.
//!
//! Expected shape (paper): OLIVE(60%) and OLIVE(100%) lose only a few
//! points versus OLIVE(140%) and stay below QUICKG.
//!
//! All variants run through the sweep driver and share one
//! [`SweepContext`], so per-seed application draws (and any coinciding
//! plans) are derived once across the five variants.
//! `--checkpoint-every N` checkpoints every per-seed run — the
//! `plan_utilization` tweak is recorded inside the file — and
//! `--resume-from FILE` finishes one such run faithfully against the
//! tweaked scenario.

use std::sync::Arc;

use vne_bench::experiments::{resume_from, sweep_shared};
use vne_bench::BenchOpts;
use vne_sim::runner::SweepContext;
use vne_sim::scenario::Algorithm;

fn main() {
    let opts = BenchOpts::parse();
    if resume_from(&opts) {
        return;
    }
    let substrate = vne_topology::zoo::iris().expect("iris");
    // Fig. 13 is a single-utilization figure: online demand at 140%.
    let at_140 = BenchOpts {
        utils: vec![1.4],
        ..opts.clone()
    };
    let ctx = Arc::new(SweepContext::new());

    println!("# Fig. 13 — Iris @140% online demand, plan built for lower utilization");
    println!("{:>14} {:>12} {:>10}", "variant", "rejection", "±95ci");

    for (label, plan_util) in [
        ("OLIVE(60%)", Some(0.6)),
        ("OLIVE(100%)", Some(1.0)),
        ("OLIVE(140%)", None),
    ] {
        let rows = sweep_shared(&ctx, &substrate, &[Algorithm::Olive], &at_140, |c| {
            c.plan_utilization = plan_util
        });
        println!(
            "{:>14} {:>12.4} {:>10.4}",
            label, rows[0].summary.rejection_rate.0, rows[0].summary.rejection_rate.1
        );
    }
    for alg in [Algorithm::Quickg, Algorithm::SlotOff] {
        let rows = sweep_shared(&ctx, &substrate, &[alg], &at_140, |_| {});
        println!(
            "{:>14} {:>12.4} {:>10.4}",
            alg.label(),
            rows[0].summary.rejection_rate.0,
            rows[0].summary.rejection_rate.1
        );
    }
}
