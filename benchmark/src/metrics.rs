//! The metric tables: every end-to-end and per-layer metric by name,
//! with its unit, the direction that is better and — end to end — the
//! share of the parent's median by which it may worsen before a change
//! counts as a regression. `BENCHMARK.json` carries the same tables
//! (`tests/manifest.rs` fails when they drift apart).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
}

/// One metric of a single layer (no bound: it explains, it does not gate).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the prefix is the crate the layer lives in.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run of every
/// workload. None of them is ever 0.
pub const END_TO_END: [EndToEnd; 5] = [
    // Operations decided ÷ wall seconds of one replay, median over the
    // replays of a run. An operation is one arrival offered (one plan
    // class for `plan_build`); a rejection is a decision.
    EndToEnd {
        name: "decisions_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    // World + plan + event materialisation before the timed region,
    // median of the run's repeated set-ups.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    // 1 − `Summary::rejection_rate` of the measurement window.
    EndToEnd {
        name: "acceptance_rate",
        unit: "fraction",
        better: Higher,
        bound: 0.05,
    },
    // `Summary::total_cost` (resources + rejection penalties) per
    // arrival of the window.
    EndToEnd {
        name: "cost_per_decision",
        unit: "cost",
        better: Lower,
        bound: 0.25,
    },
    // `VmHWM` of the run's process: one workload per process.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics, reported by every traced run of every workload
/// (0 where a workload bypasses the layer). README.md says how each is
/// measured and which end-to-end metric it should move on which
/// workload.
pub const PER_LAYER: [PerLayer; 64] = [
    // The algorithm's decide call, through the `Timed` decorator.
    layer("core.decide.busy_s", "s", Lower),
    layer("core.decide.calls", "count", Lower),
    layer("core.decide.slot_us_p50", "us", Lower),
    layer("core.decide.slot_us_tail", "us", Lower),
    layer("core.apply_churn.busy_s", "s", Lower),
    // How OLIVE served its requests (`Olive::stats()`).
    layer("core.olive.planned_share", "fraction", Higher),
    layer("core.olive.borrowed_share", "fraction", Lower),
    layer("core.olive.greedy_share", "fraction", Lower),
    layer("core.olive.preempted", "count", Lower),
    // Sampled arrivals replayed through the greedy search.
    layer("core.greedy.embed_us_p50", "us", Lower),
    layer("core.greedy.embed_us_tail", "us", Lower),
    layer("model.substrate.dijkstra_us_p50", "us", Lower),
    // The engine's slot step, stepped from the benchmark.
    layer("sim.engine.step_us_p50", "us", Lower),
    layer("sim.engine.step_us_tail", "us", Lower),
    layer("sim.engine.self_s", "s", Lower),
    layer("sim.engine.churn_step_us_p50", "us", Lower),
    // Observer fan-out and checkpointing, through `TimedObserver`.
    layer("sim.observe.busy_s", "s", Lower),
    layer("sim.observe.checkpoint_s", "s", Lower),
    layer("sim.observe.checkpoints", "count", Lower),
    layer("sim.observe.checkpoint_bytes", "bytes", Lower),
    layer("model.state.encode_mb_per_s", "MB/s", Higher),
    layer("model.state.decode_mb_per_s", "MB/s", Higher),
    // The window summary's own counters.
    layer("sim.summary.rejection_rate", "fraction", Lower),
    layer("sim.churn.events", "count", Lower),
    layer("sim.churn.stranded", "count", Lower),
    layer("sim.churn.evicted", "count", Lower),
    layer("sim.churn.reembedded", "count", Higher),
    // The shard coordinator's slot step and its per-shard decide calls.
    layer("shard.coordinator.step_ms_p50", "ms", Lower),
    layer("shard.coordinator.step_ms_tail", "ms", Lower),
    layer("shard.coordinator.step_s_total", "s", Lower),
    layer("shard.coordinator.self_s", "s", Lower),
    layer("shard.decide.trial_busy_s", "s", Lower),
    layer("shard.decide.commit_busy_s", "s", Lower),
    layer("shard.decide.trial_calls", "count", Lower),
    layer("shard.decide.commit_calls", "count", Lower),
    layer("shard.decide.busy_s_max_shard", "s", Lower),
    layer("shard.pool.workers", "count", Higher),
    layer("shard.span.candidates", "count", Lower),
    layer("shard.span.granted", "count", Higher),
    layer("shard.span.denied", "count", Lower),
    layer("shard.cut_links", "count", Lower),
    layer("topology.partition_s", "s", Lower),
    layer("model.shard.view_s", "s", Lower),
    // Set-up: trace generation, demand estimation, column generation.
    layer("workload.tracegen.events_s", "s", Lower),
    layer("workload.tracegen.arrivals", "count", Higher),
    layer("workload.estimator.fold_s", "s", Lower),
    layer("workload.estimator.requests", "count", Higher),
    layer("core.colgen.solve_s", "s", Lower),
    layer("core.colgen.rounds", "count", Lower),
    layer("core.colgen.columns", "count", Lower),
    layer("core.colgen.simplex_iterations", "count", Lower),
    layer("core.plan.columns", "count", Lower),
    layer("core.plan.classes", "count", Higher),
    layer("core.pricing.min_cost_us_p50", "us", Lower),
    layer("lp.simplex.master_like_ms", "ms", Lower),
    // The traced run itself.
    layer("trace.wall_s", "s", Lower),
    layer("trace.best_replay_wall_s", "s", Lower),
    layer("trace.untraced_wall_s", "s", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.replays", "count", Higher),
    layer("trace.slot_samples", "count", Higher),
    layer("trace.slot_tail_pct", "%", Higher),
    layer("trace.sample_tail_pct", "%", Higher),
];
