//! Fig. 6 (a–d): request rejection rate vs edge utilization on the four
//! topologies, for OLIVE, QUICKG and SLOTOFF.
//!
//! Expected shape (paper): rejection grows with utilization everywhere;
//! OLIVE tracks SLOTOFF within a few points and stays far below QUICKG.
//!
//! Long sweeps are interruptible, like every sweeping binary's:
//! `--checkpoint-every N` keeps every cell's latest state in
//! `--checkpoint-dir` (default `checkpoints/`), and the same command
//! line with `--resume` finishes the sweep from those files — cells
//! whose file exists continue from it, the others run fresh — printing
//! the table the uninterrupted sweep would have:
//!
//! ```text
//! fig06 --topo citta --seeds 3 --checkpoint-every 100
//! fig06 --topo citta --seeds 3 --resume
//! ```

use vne_bench::experiments::{print_rows, sweep};
use vne_bench::BenchOpts;

fn main() {
    let opts = BenchOpts::parse();
    for substrate in opts.topologies() {
        let rows = sweep(&substrate, &opts.algs, &opts, |_| {});
        print_rows(
            &format!("Fig. 6 — rejection rate — {}", substrate.name()),
            &rows,
            "rejection",
            |s| s.rejection_rate,
        );
        println!();
    }
}
