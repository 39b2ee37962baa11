//! Fig. 14: spatial distribution change — the plan's history has every
//! request's ingress remapped to a random datacenter, in Iris.
//!
//! Expected shape (paper): even with a spatially wrong plan OLIVE's
//! rejection rate stays at or below QUICKG's, at similar cost.
//!
//! Checkpointable and resumable: `--checkpoint-every N` records the
//! `shift_plan_ingress` tweak inside every checkpoint file, and
//! `--resume-from FILE` finishes such a run faithfully against the
//! shifted-plan scenario. Both sweeps share one [`SweepContext`]: the
//! unshifted reference reuses the shifted sweep's application draws,
//! and OLIVE/QUICKG reference cells share the unshifted plans.

use std::sync::Arc;

use vne_bench::experiments::{print_rows, resume_from, sweep_shared};
use vne_bench::BenchOpts;
use vne_sim::runner::SweepContext;
use vne_sim::scenario::Algorithm;

fn main() {
    let opts = BenchOpts::parse();
    if resume_from(&opts) {
        return;
    }
    let substrate = vne_topology::zoo::iris().expect("iris");
    let ctx = Arc::new(SweepContext::new());

    // OLIVE with shifted plan input.
    let shifted = sweep_shared(&ctx, &substrate, &[Algorithm::Olive], &opts, |c| {
        c.shift_plan_ingress = true;
    });
    // References: unshifted OLIVE and QUICKG.
    let reference = sweep_shared(
        &ctx,
        &substrate,
        &[Algorithm::Olive, Algorithm::Quickg],
        &opts,
        |_| {},
    );

    println!("# Fig. 14a — Iris, shifted plan requests: rejection rate");
    print_rows("OLIVE (shifted plan)", &shifted, "rejection", |s| {
        s.rejection_rate
    });
    print_rows("references", &reference, "rejection", |s| s.rejection_rate);
    println!();
    println!("# Fig. 14b — Iris, shifted plan requests: total cost");
    print_rows("OLIVE (shifted plan)", &shifted, "total-cost", |s| {
        s.total_cost
    });
    print_rows("references", &reference, "total-cost", |s| s.total_cost);
}
