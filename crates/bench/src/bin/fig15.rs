//! Fig. 15: CAIDA-like real-demand trace in Iris — rejection rate and
//! total cost vs utilization for OLIVE, QUICKG and SLOTOFF.
//!
//! The trace substitutes the access-restricted CAIDA Equinix-NewYork
//! dataset with a synthetic heavy-tailed equivalent
//! (`vne_workload::caida`):
//! per-source lognormal demand scales, Zipf source-to-DC mapping and a
//! fixed ~495 requests/slot aggregate rate.
//!
//! Expected shape (paper): OLIVE ≈ SLOTOFF up to 100% utilization,
//! within ~4 points above; cost gaps smaller than the synthetic trace
//! but OLIVE consistently below QUICKG.

use vne_bench::experiments::{print_rows, sweep};
use vne_bench::BenchOpts;
use vne_workload::caida::CaidaConfig;

fn main() {
    let opts = BenchOpts::parse();
    let substrate = vne_topology::zoo::iris().expect("iris");
    let rows = sweep(&substrate, &opts.algs, &opts, |c| {
        c.caida = Some(CaidaConfig::default());
    });
    print_rows(
        "Fig. 15a — Iris, CAIDA-like demand: rejection rate",
        &rows,
        "rejection",
        |s| s.rejection_rate,
    );
    println!();
    print_rows(
        "Fig. 15b — Iris, CAIDA-like demand: total cost",
        &rows,
        "total-cost",
        |s| s.total_cost,
    );
}
