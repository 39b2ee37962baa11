//! Fig. 11: rejection balance index (Eq. 20) by rejection quantile count
//! in Iris at 140% utilization: QUICKG (no quantiles) vs OLIVE with
//! P ∈ {1, 2, 10, 50}.
//!
//! Expected shape (paper): QUICKG ≈ 0.53; OLIVE rises from ≈ 0.65 (P=1)
//! to ≈ 0.84 (P=2) and ≈ 0.89 (P=10); P=50 adds nothing over P=10.

use vne_sim::runner::default_apps;
use vne_sim::scenario::Algorithm;

use vne_bench::experiments::sweep_groups;
use vne_bench::BenchOpts;

fn main() {
    let opts = BenchOpts::parse();
    let substrate = vne_topology::zoo::iris().expect("iris");

    let mut labels = vec!["QUICKG".to_string()];
    let mut groups = vec![(Algorithm::Quickg.into(), opts.config(1.4))];
    for p in [1usize, 2, 10, 50] {
        let mut config = opts.config(1.4);
        config.quantiles = p;
        labels.push(format!("OLIVE P={p}"));
        groups.push((Algorithm::Olive.into(), config));
    }
    let rows = sweep_groups(&substrate, default_apps, &opts, &groups);

    println!("# Fig. 11 — Iris @140%, rejection balance index by quantiles");
    println!("{:>12} {:>10} {:>10}", "variant", "balance", "±95ci");
    for (label, row) in labels.iter().zip(&rows) {
        println!(
            "{:>12} {:>10.4} {:>10.4}",
            label, row.summary.balance_index.0, row.summary.balance_index.1
        );
    }
}
