//! Fig. 7 (a–d): total embedding cost (resource + rejection, Eqs. 3–4)
//! vs edge utilization on the four topologies.
//!
//! Expected shape (paper): OLIVE's cost is close to SLOTOFF's and below
//! QUICKG's at every utilization.
//!
//! Supports `--checkpoint-every N` / `--resume` like fig06
//! (interruptible sweeps; see that binary's docs).

use vne_bench::experiments::{print_rows, sweep};
use vne_bench::BenchOpts;

fn main() {
    let opts = BenchOpts::parse();
    for substrate in opts.topologies() {
        let rows = sweep(&substrate, &opts.algs, &opts, |_| {});
        print_rows(
            &format!("Fig. 7 — total cost — {}", substrate.name()),
            &rows,
            "total-cost",
            |s| s.total_cost,
        );
        println!(
            "# breakdown ({}): resource vs rejection cost",
            substrate.name()
        );
        for row in &rows {
            println!(
                "{:<12} {:>5.0}% {:>9}   resource {:>14.4e}   rejection {:>14.4e}",
                row.topology,
                row.utilization * 100.0,
                row.algorithm,
                row.summary.resource_cost.0,
                row.summary.rejection_cost.0,
            );
        }
        println!();
    }
}
