//! Shard-count scaling macro-harness: partitions one large synthetic
//! substrate into `k ∈ {1, 4, 16, 64}` shards, runs the same online
//! trace through a [`ShardCoordinator`] per `k`, and writes the scaling
//! curve to `BENCH_shard.json` — a machine-readable snapshot tracking
//! the sharding PR's perf trajectory across commits (diff with `jq`,
//! like `BENCH_pipeline.json`).
//!
//! Four legs:
//!
//! 1. **The unsharded reference** — the plain engine over the full
//!    substrate. The `k = 1` coordinator row must reproduce its
//!    window-summary fingerprint *byte-identically* (asserted in-bin:
//!    the single-shard path is a pass-through, not an approximation).
//! 2. **The scaling sweep** — per `k`: greedy edge-cut partition
//!    (cut-link count and partition wall time recorded), QUICKG per
//!    shard, full trace replay, spanning counters, wall time.
//! 3. **The checkpoint leg** — the top-`k` run replayed under a
//!    [`Checkpointer`] firing every `--checkpoint-every N` slots
//!    (default 12, `0` disables): asserts the checkpointed run and the
//!    resumed tail are both fingerprint-identical to the plain run,
//!    records the checkpoint-overhead-per-slot, and optionally writes
//!    the checkpoint file (`--checkpoint PATH`) or resumes from an
//!    existing one (`--resume-from PATH`) for cross-process round
//!    trips.
//! 4. **The planning demo** — per-shard demand estimation and PLAN-VNE
//!    solves on a moderate world, recording how many demand classes
//!    each shard holds versus the unsharded total (the
//!    `O(classes per shard)` memory claim, measured).
//!
//! Run with: `cargo run --release --bin bench_shard [-- --tiny] [--out PATH]
//! [--checkpoint-every N] [--checkpoint PATH] [--resume-from PATH]`
//!
//! `--tiny` shrinks the world to CI-smoke size (seconds); the default
//! full mode runs the 100 000-node substrate in minutes.
//!
//! [`ShardCoordinator`]: vne_shard::ShardCoordinator
//! [`Checkpointer`]: vne_sim::observe::Checkpointer

use std::fmt::Write as _;
use std::time::Instant;

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::cost::RejectionPenalty;
use vne_model::policy::PlacementPolicy;
use vne_model::request::SlotEvents;
use vne_model::shard::ShardedSubstrate;
use vne_model::substrate::SubstrateNetwork;
use vne_olive::aggregate::AggregateDemand;
use vne_olive::algorithm::OnlineAlgorithm;
use vne_olive::colgen::PlanVneConfig;
use vne_olive::olive::Olive;
use vne_shard::{shard_demands, shard_plans, ShardCoordinator};
use vne_sim::engine::{run_stream, EngineCheckpoint};
use vne_sim::observe::{Checkpointer, WindowSummary};
use vne_topology::partition::{large_synthetic, GreedyEdgeCut, Partitioner};
use vne_workload::estimator::{AggregationConfig, ExactEstimator};
use vne_workload::rng::SeededRng;
use vne_workload::tracegen::{self, ArrivalKind, TraceConfig};

const WORLD_SEED: u64 = 7;
const TRACE_SEED: u64 = 42;

fn shard_apps() -> AppSet {
    let mut apps = AppSet::new();
    for (name, len) in [("chain2", 2), ("chain3", 3)] {
        apps.push(
            name,
            AppShape::Chain,
            shapes::uniform_chain(len, 10.0, 1.0).unwrap(),
        )
        .unwrap();
    }
    apps
}

/// The online trace: a low per-node rate — arrivals scale with the edge
/// tier (~60% of a `large_synthetic` world), so the 100k-node full mode
/// still sees thousands of requests over the horizon.
fn trace_config(slots: u32, mean_rate_per_node: f64) -> TraceConfig {
    TraceConfig {
        slots,
        mean_rate_per_node,
        demand_mean: 1.0,
        demand_std: 0.2,
        duration_mean: 5.0,
        arrivals: ArrivalKind::Poisson,
        ..TraceConfig::default()
    }
}

struct ScalingRow {
    k: usize,
    cut_links: usize,
    partition_secs: f64,
    run_secs: f64,
    mean_step_us: f64,
    fingerprint: u64,
    arrivals: usize,
    rejected: usize,
    peak_active: usize,
    span_candidates: usize,
    span_granted: usize,
    span_denied: usize,
}

/// One coordinator run of `events` over `s` cut into `k` shards.
fn run_sharded(
    s: &SubstrateNetwork,
    apps: &AppSet,
    events: &[SlotEvents],
    window_bounds: (u32, u32),
    k: usize,
) -> ScalingRow {
    let started = Instant::now();
    let assignment = GreedyEdgeCut { seed: WORLD_SEED }
        .partition(s, k)
        .expect("partition");
    let sharded = ShardedSubstrate::new(s, &assignment).expect("sharded view");
    let partition_secs = started.elapsed().as_secs_f64();

    let mut coordinator = ShardCoordinator::new(sharded, |_, local| {
        Box::new(Olive::quickg(
            local.clone(),
            apps.clone(),
            PlacementPolicy::default(),
        ))
    });
    let mut window = WindowSummary::new(window_bounds, RejectionPenalty::uniform(apps, 1.0));
    let started = Instant::now();
    let stats = coordinator.run(events.iter().cloned(), &mut window);
    let run_secs = started.elapsed().as_secs_f64();
    let summary = window.finish(&stats);
    let span = coordinator.spanning_stats();
    ScalingRow {
        k,
        cut_links: coordinator.sharded().cut_count(),
        partition_secs,
        run_secs,
        mean_step_us: run_secs / events.len().max(1) as f64 * 1e6,
        fingerprint: summary.fingerprint(),
        arrivals: summary.arrivals,
        rejected: summary.rejected,
        peak_active: stats.peak_active,
        span_candidates: span.candidates,
        span_granted: span.granted,
        span_denied: span.denied,
    }
}

struct CheckpointLeg {
    every: u32,
    k: usize,
    slot: u32,
    bytes: usize,
    taken: usize,
    run_secs: f64,
    overhead_us_per_slot: f64,
    resumed_from_file: bool,
}

/// The checkpoint/resume leg: replays the top-`k` run under a
/// [`Checkpointer`], asserts the checkpointed run and the resumed tail
/// both reproduce `reference_fp`, and measures the per-slot
/// checkpointing overhead against the plain run's `plain_secs`.
#[allow(clippy::too_many_arguments)]
fn checkpoint_leg(
    s: &SubstrateNetwork,
    apps: &AppSet,
    events: &[SlotEvents],
    window_bounds: (u32, u32),
    k: usize,
    every: u32,
    plain_secs: f64,
    reference_fp: u64,
    checkpoint_path: Option<&str>,
    resume_from: Option<&str>,
) -> CheckpointLeg {
    let assignment = GreedyEdgeCut { seed: WORLD_SEED }
        .partition(s, k)
        .expect("partition");
    let sharded = ShardedSubstrate::new(s, &assignment).expect("sharded view");
    let build = || {
        let apps = apps.clone();
        move |_: vne_model::shard::ShardId, local: &SubstrateNetwork| {
            Box::new(Olive::quickg(
                local.clone(),
                apps.clone(),
                PlacementPolicy::default(),
            )) as Box<dyn OnlineAlgorithm>
        }
    };
    let window = || WindowSummary::new(window_bounds, RejectionPenalty::uniform(apps, 1.0));

    // The checkpointed replay must not perturb the run. The sink keeps
    // the first checkpoint past the horizon's midpoint, so the resume
    // below replays a real tail rather than an empty one.
    let midpoint = events.len() as u32 / 2;
    let kept = std::sync::Arc::new(std::sync::Mutex::new(None::<EngineCheckpoint>));
    let sink = std::sync::Arc::clone(&kept);
    let mut coordinator = ShardCoordinator::new(sharded.clone(), build());
    let mut cp = Checkpointer::every(every, window()).with_sink(move |checkpoint| {
        let mut kept = sink.lock().unwrap();
        if kept.is_none() && checkpoint.slot >= midpoint {
            *kept = Some(checkpoint.clone());
        }
    });
    let started = Instant::now();
    let stats = coordinator.run(events.iter().cloned(), &mut cp);
    let run_secs = started.elapsed().as_secs_f64();
    assert_eq!(
        cp.inner().finish(&stats).fingerprint(),
        reference_fp,
        "checkpointing perturbed the sharded run"
    );
    let taken = cp.checkpoints_taken();
    assert!(taken > 0, "no checkpoint fired: {:?}", cp.last_error());
    let latest = kept
        .lock()
        .unwrap()
        .take()
        .or_else(|| cp.into_latest())
        .expect("a checkpoint was taken");
    if let Some(path) = checkpoint_path {
        std::fs::write(path, latest.to_bytes()).expect("write checkpoint file");
        println!("checkpoint (slot {}) written to {path}", latest.slot);
    }

    // Resume — from the file when asked (cross-process round trip),
    // from the in-memory checkpoint otherwise.
    let checkpoint = match resume_from {
        Some(path) => {
            let bytes = std::fs::read(path).expect("read checkpoint file");
            EngineCheckpoint::from_bytes(&bytes).expect("parse checkpoint file")
        }
        None => latest,
    };
    let bytes = checkpoint.to_bytes().len();
    let mut w = window();
    let mut resumed = ShardCoordinator::resume_from(sharded, build(), &checkpoint, &mut w)
        .expect("resume from checkpoint");
    let next = resumed.next_slot();
    let stats = resumed.run(
        events.iter().filter(|e| u64::from(e.slot) >= next).cloned(),
        &mut w,
    );
    assert_eq!(
        w.finish(&stats).fingerprint(),
        reference_fp,
        "resumed run drifted from the uninterrupted one"
    );

    let slots = events.len().max(1) as f64;
    CheckpointLeg {
        every,
        k,
        slot: checkpoint.slot,
        bytes,
        taken,
        run_secs,
        overhead_us_per_slot: ((run_secs - plain_secs) / slots).max(0.0) * 1e6,
        resumed_from_file: resume_from.is_some(),
    }
}

/// The planning demo: per-shard exact estimation + PLAN-VNE solves.
/// Returns a JSON object string.
fn plan_leg(tiny: bool) -> String {
    let (n, k, history_slots) = if tiny { (120, 4, 80u32) } else { (400, 8, 200) };
    let s = large_synthetic(n, 21).expect("plan world");
    let apps = shard_apps();
    let tc = trace_config(history_slots, 0.3);
    let assignment = GreedyEdgeCut { seed: 21 }
        .partition(&s, k)
        .expect("plan partition");
    let sharded = ShardedSubstrate::new(&s, &assignment).expect("plan sharded view");

    let mut rng = SeededRng::new(9);
    let started = Instant::now();
    let demands = shard_demands(
        &sharded,
        tracegen::stream(&s, &apps, &tc, SeededRng::new(77)),
        || {
            Box::new(ExactEstimator::new(
                history_slots,
                AggregationConfig::default(),
            ))
        },
        &mut rng,
    );
    let plans = shard_plans(
        &sharded,
        &apps,
        &PlacementPolicy::default(),
        &demands,
        &PlanVneConfig::new(50.0),
    );
    let secs = started.elapsed().as_secs_f64();

    // Classes partition exactly by home shard, so the unsharded
    // estimator's footprint is the sum and the sharded peak is the max.
    let total_classes: usize = demands.iter().map(AggregateDemand::len).sum();
    let widest_shard = demands.iter().map(AggregateDemand::len).max().unwrap_or(0);
    let columns: usize = plans.iter().map(|(_, st)| st.columns).sum();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{ \"nodes\": {n}, \"shards\": {k}, \"history_slots\": {history_slots}, \
         \"total_classes\": {total_classes}, \"widest_shard_classes\": {widest_shard}, \
         \"columns\": {columns}, \"secs\": {secs:.3} }}"
    );
    json
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_shard.json".to_string());
    let checkpoint_every: u32 = args
        .iter()
        .position(|a| a == "--checkpoint-every")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--checkpoint-every takes a slot count"))
        .unwrap_or(12);
    let checkpoint_path = args
        .iter()
        .position(|a| a == "--checkpoint")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let resume_from = args
        .iter()
        .position(|a| a == "--resume-from")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let (nodes, slots, rate, ks): (usize, u32, f64, &[usize]) = if tiny {
        (400, 36, 0.05, &[1, 4])
    } else {
        (100_000, 60, 0.002, &[1, 4, 16, 64])
    };
    let window_bounds = (slots / 10, slots - slots / 10);

    let started = Instant::now();
    let s = large_synthetic(nodes, WORLD_SEED).expect("large synthetic world");
    let build_secs = started.elapsed().as_secs_f64();
    let apps = shard_apps();
    let tc = trace_config(slots, rate);
    let events: Vec<SlotEvents> =
        tracegen::stream(&s, &apps, &tc, SeededRng::new(TRACE_SEED)).collect();
    let total_arrivals: usize = events.iter().map(|e| e.arrivals.len()).sum();
    println!(
        "world    {nodes} nodes / {} links (built in {build_secs:.2}s), \
         {total_arrivals} arrivals over {slots} slots",
        s.link_count()
    );

    // --- 1. The unsharded reference.
    let mut alg = Olive::quickg(s.clone(), apps.clone(), PlacementPolicy::default());
    let mut window = WindowSummary::new(window_bounds, RejectionPenalty::uniform(&apps, 1.0));
    let started = Instant::now();
    let stats = run_stream(&mut alg, &s, events.iter().cloned(), &mut window);
    let reference_secs = started.elapsed().as_secs_f64();
    let reference_fp = window.finish(&stats).fingerprint();
    println!("unsharded reference: {reference_secs:.2}s, fingerprint {reference_fp:#018x}");

    // --- 2. The scaling sweep.
    let mut rows = Vec::new();
    for &k in ks {
        let row = run_sharded(&s, &apps, &events, window_bounds, k);
        if k == 1 {
            assert_eq!(
                row.fingerprint, reference_fp,
                "k=1 sharded run drifted from the unsharded engine"
            );
        }
        println!(
            "k={:<3} cut {:>6} links, partition {:.2}s, run {:.2}s \
             ({:.0}µs/slot), span {}/{} granted, fingerprint {:#018x}",
            row.k,
            row.cut_links,
            row.partition_secs,
            row.run_secs,
            row.mean_step_us,
            row.span_granted,
            row.span_candidates,
            row.fingerprint,
        );
        rows.push(row);
    }
    let monotone = rows.windows(2).all(|w| w[1].run_secs <= w[0].run_secs);

    // --- 3. The checkpoint/resume leg on the top-k run.
    let checkpoint = (checkpoint_every > 0).then(|| {
        let top = rows.last().expect("at least one k ran");
        let leg = checkpoint_leg(
            &s,
            &apps,
            &events,
            window_bounds,
            top.k,
            checkpoint_every,
            top.run_secs,
            top.fingerprint,
            checkpoint_path.as_deref(),
            resume_from.as_deref(),
        );
        println!(
            "checkpoint k={} every {} slots: {} taken ({} bytes at slot {}), \
             {:.1}µs/slot overhead, resume identical",
            leg.k, leg.every, leg.taken, leg.bytes, leg.slot, leg.overhead_us_per_slot,
        );
        leg
    });

    // --- 4. The planning demo.
    let plan_json = plan_leg(tiny);

    let mut json = String::from("{\n  \"bench\": \"shard\",\n");
    let _ = writeln!(json, "  \"tiny\": {tiny},");
    let _ = writeln!(
        json,
        "  \"world\": {{ \"nodes\": {nodes}, \"links\": {}, \"slots\": {slots}, \
         \"arrivals\": {total_arrivals}, \"build_secs\": {build_secs:.3} }},",
        s.link_count()
    );
    let _ = writeln!(
        json,
        "  \"reference\": {{ \"serial_secs\": {reference_secs:.3}, \
         \"fingerprint\": \"{reference_fp:#018x}\" }},"
    );
    let _ = writeln!(json, "  \"scaling\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"k\": {}, \"cut_links\": {}, \"partition_secs\": {:.3}, \
             \"run_secs\": {:.3}, \"mean_step_us\": {:.1}, \"arrivals\": {}, \
             \"rejected\": {}, \"peak_active\": {}, \
             \"spanning\": {{ \"candidates\": {}, \"granted\": {}, \"denied\": {} }}, \
             \"fingerprint\": \"{:#018x}\" }}{comma}",
            r.k,
            r.cut_links,
            r.partition_secs,
            r.run_secs,
            r.mean_step_us,
            r.arrivals,
            r.rejected,
            r.peak_active,
            r.span_candidates,
            r.span_granted,
            r.span_denied,
            r.fingerprint,
        );
    }
    let _ = writeln!(json, "  ],");
    match &checkpoint {
        Some(leg) => {
            let _ = writeln!(
                json,
                "  \"checkpoint\": {{ \"every\": {}, \"k\": {}, \"slot\": {}, \
                 \"bytes\": {}, \"taken\": {}, \"run_secs\": {:.3}, \
                 \"overhead_us_per_slot\": {:.1}, \"resumed_from_file\": {}, \
                 \"resume_identical\": true }},",
                leg.every,
                leg.k,
                leg.slot,
                leg.bytes,
                leg.taken,
                leg.run_secs,
                leg.overhead_us_per_slot,
                leg.resumed_from_file,
            );
        }
        None => {
            let _ = writeln!(json, "  \"checkpoint\": null,");
        }
    }
    let _ = writeln!(json, "  \"monotone_decreasing_run_secs\": {monotone},");
    let _ = writeln!(json, "  \"k1_matches_unsharded\": true,");
    let _ = writeln!(json, "  \"plan\": {plan_json}\n}}");
    std::fs::write(&out, &json).expect("write BENCH_shard.json");
    println!("wrote {out}");
}
