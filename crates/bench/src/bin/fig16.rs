//! Fig. 16: runtime scalability.
//!
//! * (a) Iris at 100% utilization with the per-node arrival rate swept
//!   (mean request size rescaled to hold utilization constant): OLIVE
//!   and QUICKG runtimes grow linearly with the rate.
//! * (b–e) runtime vs utilization per topology: OLIVE is faster than
//!   QUICKG by 1.2–7.8× (the gap shrinking as utilization grows, since a
//!   depleted residual plan pushes OLIVE into the greedy search while
//!   QUICKG starts fast-rejecting).
//!
//! Unlike the other figures this one submits one sweep call per
//! (x, algorithm) group: its columns are runtimes, so each group is
//! measured with only its own seeds running beside it.

use vne_sim::runner::default_apps;
use vne_sim::scenario::Algorithm;

use vne_bench::experiments::sweep_groups;
use vne_bench::BenchOpts;

fn main() {
    let opts = BenchOpts::parse();

    // (a) arrival-rate sweep on Iris @100%.
    let iris = vne_topology::zoo::iris().expect("iris");
    println!("# Fig. 16a — Iris @100%: online runtime vs arrival rate (per node per slot)");
    println!(
        "{:>6} {:>9} {:>12} {:>10} {:>14}",
        "rate", "alg", "runtime[s]", "±95ci", "req/s"
    );
    for rate in [2.0, 5.0, 10.0, 20.0, 40.0] {
        for alg in [Algorithm::Olive, Algorithm::Quickg] {
            let mut config = opts.config(1.0);
            config.trace.mean_rate_per_node = rate;
            let group = [(alg.into(), config)];
            let row = &sweep_groups(&iris, default_apps, &opts, &group)[0];
            let (summaries, agg) = (&row.per_seed, &row.summary);
            // Requests processed per wall-clock second (arrivals over the
            // whole online phase / online seconds).
            let mean_arrivals: f64 =
                summaries.iter().map(|s| s.arrivals as f64).sum::<f64>() / summaries.len() as f64;
            // `arrivals` counts only the window; scale to the full phase.
            let phase_fraction = {
                let c = opts.config(1.0);
                f64::from(c.measure_window.1 - c.measure_window.0) / f64::from(c.test_slots)
            };
            let throughput = mean_arrivals / phase_fraction / agg.online_secs.0.max(1e-9);
            println!(
                "{:>6.0} {:>9} {:>12.4} {:>10.4} {:>14.0}",
                rate,
                alg.label(),
                agg.online_secs.0,
                agg.online_secs.1,
                throughput
            );
        }
    }
    println!();

    // (b–e) runtime vs utilization per topology.
    for substrate in opts.topologies() {
        println!(
            "# Fig. 16b–e — {}: online runtime vs utilization",
            substrate.name()
        );
        println!(
            "{:>6} {:>12} {:>12} {:>10}",
            "util", "OLIVE[s]", "QUICKG[s]", "speedup"
        );
        for &u in &opts.utils {
            let mut times = Vec::new();
            for alg in [Algorithm::Olive, Algorithm::Quickg] {
                let group = [(alg.into(), opts.config(u))];
                let rows = sweep_groups(&substrate, default_apps, &opts, &group);
                times.push(rows[0].summary.online_secs.0);
            }
            println!(
                "{:>5.0}% {:>12.4} {:>12.4} {:>10.2}",
                u * 100.0,
                times[0],
                times[1],
                times[1] / times[0].max(1e-9)
            );
        }
        println!();
    }
}
