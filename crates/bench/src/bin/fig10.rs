//! Fig. 10: the GPU scenario — Iris modified with GPU/non-GPU
//! datacenters (half the cores + four random edges are GPU sites,
//! non-GPU capacity −25%), four GPU-chain applications, at 100%
//! utilization, for FULLG, OLIVE and SLOTOFF.
//!
//! QUICKG is not applicable: its collocation restriction cannot host a
//! GPU VNF and standard VNFs on one datacenter.
//!
//! Expected shape (paper): OLIVE within a couple of points of SLOTOFF and
//! clearly below FULLG.

use vne_sim::scenario::Algorithm;
use vne_workload::appgen::{gpu_set, AppGenConfig};
use vne_workload::rng::SeededRng;

use vne_bench::experiments::sweep_groups;
use vne_bench::BenchOpts;

fn main() {
    let opts = BenchOpts::parse();
    let base = vne_topology::zoo::iris().expect("iris");
    let substrate = vne_topology::gpu::gpu_variant(&base, 0xF10);

    let groups: Vec<_> = [Algorithm::Fullg, Algorithm::Olive, Algorithm::SlotOff]
        .iter()
        .map(|&alg| (alg.into(), opts.config(1.0)))
        .collect();
    let make_apps = |seed: u64| {
        let mut rng = SeededRng::new(seed).derive(0xF10);
        gpu_set(&AppGenConfig::default(), &mut rng)
    };

    println!("# Fig. 10 — Iris GPU scenario @100%, rejection rate");
    println!("{:>9} {:>12} {:>10}", "alg", "rejection", "±95ci");
    for row in sweep_groups(&substrate, make_apps, &opts, &groups) {
        println!(
            "{:>9} {:>12.4} {:>10.4}",
            row.algorithm, row.summary.rejection_rate.0, row.summary.rejection_rate.1
        );
    }
}
