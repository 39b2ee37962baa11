//! Fig. 14: spatial distribution change — the plan's history has every
//! request's ingress remapped to a random datacenter, in Iris.
//!
//! Expected shape (paper): even with a spatially wrong plan OLIVE's
//! rejection rate stays at or below QUICKG's, at similar cost.
//!
//! The shifted cells and the unshifted references are one sweep call:
//! the references reuse the shifted cells' application draws, and
//! OLIVE/QUICKG reference cells share the unshifted plans. Supports
//! `--checkpoint-every N` / `--resume` like fig06: the re-run rebuilds
//! the `shift_plan_ingress` tweak itself, so a shifted cell resumes
//! against the shifted-plan scenario.

use vne_bench::experiments::{print_rows, sweep_groups};
use vne_bench::BenchOpts;
use vne_sim::runner::default_apps;
use vne_sim::scenario::Algorithm;

fn main() {
    let opts = BenchOpts::parse();
    let substrate = vne_topology::zoo::iris().expect("iris");
    let group = |u: f64, alg: Algorithm, shift: bool| {
        let mut config = opts.config(u);
        config.shift_plan_ingress = shift;
        (alg.into(), config)
    };

    // OLIVE with shifted plan input, then the references: unshifted
    // OLIVE and QUICKG.
    let mut groups = Vec::new();
    for &u in &opts.utils {
        groups.push(group(u, Algorithm::Olive, true));
    }
    for &u in &opts.utils {
        groups.push(group(u, Algorithm::Olive, false));
        groups.push(group(u, Algorithm::Quickg, false));
    }
    let rows = sweep_groups(&substrate, default_apps, &opts, &groups);
    let (shifted, reference) = rows.split_at(opts.utils.len());

    println!("# Fig. 14a — Iris, shifted plan requests: rejection rate");
    print_rows("OLIVE (shifted plan)", shifted, "rejection", |s| {
        s.rejection_rate
    });
    print_rows("references", reference, "rejection", |s| s.rejection_rate);
    println!();
    println!("# Fig. 14b — Iris, shifted plan requests: total cost");
    print_rows("OLIVE (shifted plan)", shifted, "total-cost", |s| {
        s.total_cost
    });
    print_rows("references", reference, "total-cost", |s| s.total_cost);
}
