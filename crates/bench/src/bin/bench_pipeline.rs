//! Sweep-execution macro-harness: measures what sharing one
//! [`SweepContext`] across a sweep buys on this host, and writes the row
//! to `BENCH_pipeline.json` — a machine-readable snapshot tracking the
//! perf trajectory across commits (diff with `jq`, like
//! `BENCH_plan.json`).
//!
//! **The 30k-slot long-horizon sweep** — six OLIVE cells (three
//! ablation variants × two seeds) whose plans fold a 30 000-slot
//! history each. The baseline derives every variant's artifacts
//! independently (a fresh [`SweepContext`] per variant); the shared
//! path passes one context to all of them, so the two *distinct* plans
//! are derived once and reused across all six cells. This is a genuine
//! work reduction, so the speedup holds on any core count. Summaries
//! are asserted byte-identical.
//!
//! Run with: `cargo run --release --bin bench_pipeline [-- --quick]`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use vne_model::substrate::SubstrateNetwork;
use vne_olive::olive::OliveConfig;
use vne_sim::metrics::Summary;
use vne_sim::registry::AlgorithmRegistry;
use vne_sim::runner::{default_apps, run_seeds_with, SweepContext};
use vne_sim::scenario::{Algorithm, ScenarioConfig};

const SEEDS: [u64; 2] = [1, 2];

fn sweep_config(history_slots: u32, test_slots: u32) -> impl Fn(u64) -> ScenarioConfig + Sync {
    move |seed| {
        let mut c = ScenarioConfig::small(1.0).with_seed(seed);
        c.history_slots = history_slots;
        c.test_slots = test_slots;
        c.measure_window = (test_slots / 10, test_slots - test_slots / 10);
        c.aggregation.bootstrap_replicates = 10;
        // Long horizon, moderate rate: the plan folds the whole history.
        c.trace.mean_rate_per_node = 1.0;
        c
    }
}

fn olive_variants() -> Vec<(&'static str, OliveConfig)> {
    vec![
        ("full", OliveConfig::default()),
        (
            "no-borrowing",
            OliveConfig {
                borrowing: false,
                ..OliveConfig::default()
            },
        ),
        (
            "no-preemption",
            OliveConfig {
                preemption: false,
                ..OliveConfig::default()
            },
        ),
    ]
}

/// Runs the variant sweep; `shared` shares artifacts across variants
/// when given, otherwise every variant gets a fresh context. Returns
/// per-variant summaries (seed order inside).
fn run_sweep(
    substrate: &SubstrateNetwork,
    shared: Option<&Arc<SweepContext>>,
    history_slots: u32,
    test_slots: u32,
) -> Vec<Summary> {
    let registry = AlgorithmRegistry::builtins();
    let configure = sweep_config(history_slots, test_slots);
    let mut all = Vec::new();
    for (_, olive) in olive_variants() {
        let per_variant = |seed: u64| {
            let mut c = configure(seed);
            c.olive = olive;
            c
        };
        let ctx = shared
            .cloned()
            .unwrap_or_else(|| Arc::new(SweepContext::new()));
        let (summaries, _) = run_seeds_with(
            &ctx,
            &registry,
            substrate,
            &Algorithm::Olive.into(),
            &SEEDS,
            default_apps,
            per_variant,
        );
        all.extend(summaries);
    }
    all
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (history_slots, test_slots) = if quick {
        (3_000u32, 500u32)
    } else {
        (30_000, 3_000)
    };
    let substrate = vne_topology::zoo::citta_studi().expect("citta studi");
    let variants = olive_variants().len();

    // The long-horizon sweep: independent vs shared artifacts.
    let started = Instant::now();
    let baseline = run_sweep(&substrate, None, history_slots, test_slots);
    let baseline_secs = started.elapsed().as_secs_f64();

    let ctx = Arc::new(SweepContext::new());
    let started = Instant::now();
    let shared = run_sweep(&substrate, Some(&ctx), history_slots, test_slots);
    let shared_secs = started.elapsed().as_secs_f64();

    let fingerprints_match = baseline
        .iter()
        .zip(&shared)
        .all(|(a, b)| a.fingerprint() == b.fingerprint());
    assert!(
        fingerprints_match,
        "SweepContext-backed sweep drifted from the independent path"
    );
    let sweep_speedup = baseline_secs / shared_secs;
    println!(
        "sweep    {history_slots}-slot history × {} cells: baseline {baseline_secs:.2}s, \
         shared-context {shared_secs:.2}s  ({sweep_speedup:.2}×, plans built {} → {})",
        variants * SEEDS.len(),
        variants * SEEDS.len(),
        ctx.plans_cached(),
    );

    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n  \"bench\": \"pipeline\",\n");
    let _ = writeln!(json, "  \"host_parallelism\": {parallelism},");
    let _ = writeln!(json, "  \"sweep\": {{");
    let _ = writeln!(
        json,
        "    \"history_slots\": {history_slots}, \"test_slots\": {test_slots}, \
         \"cells\": {}, \"seeds\": {},",
        variants * SEEDS.len(),
        SEEDS.len()
    );
    let _ = writeln!(
        json,
        "    \"baseline_secs\": {baseline_secs:.3}, \"shared_context_secs\": {shared_secs:.3}, \
         \"speedup\": {sweep_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "    \"plans_built_baseline\": {}, \"plans_built_shared\": {}, \
         \"fingerprints_match\": {fingerprints_match}",
        variants * SEEDS.len(),
        ctx.plans_cached()
    );
    let _ = writeln!(json, "  }}\n}}");
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("wrote BENCH_pipeline.json");
}
