//! Adversarial & churn scenario suite: empirical competitive ratios of
//! all four builtin algorithms against the per-scenario offline LP
//! revenue bound, on the tiny exactly-solvable `GoldenDiamond` world.
//!
//! For every scenario (five adversarial workload profiles, three
//! substrate-churn schedules) the suite computes the offline bound from
//! the *same* arrival stream the online runs consume, runs each
//! algorithm with a revenue tracker, and writes one JSON document:
//!
//! ```text
//! fig_adversarial                       # full suite → BENCH_adversarial.json
//! fig_adversarial --seed 7 --out X.json
//! ```
//!
//! Every ratio lands in `(0, 1]`: the LP relaxes integrality and sees
//! pristine (unchurned) capacities, so it upper-bounds any online run.

use vne_bench::adversarial::{competitive_report, report_json, scenario_matrix};
use vne_sim::scenario::{Algorithm, ScenarioConfig};
use vne_topology::zoo::golden_diamond;

fn main() {
    let mut seed = 11u64;
    let mut out = String::from("BENCH_adversarial.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed N (u64)");
            }
            "--out" => out = args.next().expect("--out PATH"),
            other => panic!("unknown flag {other:?}; known: --seed N, --out PATH"),
        }
    }

    let (substrate, apps) = golden_diamond().expect("golden world");
    let mut base = ScenarioConfig::small(1.0).with_seed(seed);
    base.aggregation.bootstrap_replicates = 10;
    base.trace.mean_rate_per_node = 2.0;
    // Long enough that the lifetime-cliff boundary (slot 40) and every
    // churn period fall inside the measurement window — shorter horizons
    // can starve one algorithm's window revenue to zero, which the
    // (0, 1] assertion below rightly rejects.
    base.history_slots = 120;
    base.test_slots = 60;
    base.measure_window = (5, 55);

    let mut reports = Vec::new();
    println!(
        "{:<12} {:<16} {:>9} {:>12} {:>12} {:>7}",
        "kind", "scenario", "alg", "revenue", "lp_bound", "ratio"
    );
    for cell in scenario_matrix(&base) {
        let report = competitive_report(&substrate, &apps, &cell, &Algorithm::ALL);
        for row in &report.rows {
            assert!(
                row.competitive_ratio > 0.0 && row.competitive_ratio <= 1.0,
                "{}/{}: competitive ratio {} outside (0, 1]",
                cell.name,
                row.algorithm,
                row.competitive_ratio
            );
            println!(
                "{:<12} {:<16} {:>9} {:>12.2} {:>12.2} {:>7.3}",
                report.kind,
                report.name,
                row.algorithm,
                row.online_revenue,
                report.bound.revenue_bound,
                row.competitive_ratio
            );
        }
        reports.push(report);
    }

    let json = report_json(substrate.name(), &base, &reports);
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("# wrote {out}");
}
