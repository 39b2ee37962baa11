//! One run of one workload in this process — what the driver invokes
//! (`--workload W --seed N --seconds S --trace 0|1`) and what the suite
//! spawns once per repetition, so `peak_rss_mb` is per workload.
//!
//! Untraced: set up (several times, `setup_s` is the median), verify
//! once, then replay for `--seconds` and report the end-to-end metrics.
//! Traced: set up once, verify, then alternate plain and decorated
//! replays for `--seconds` and report the per-layer metrics; the ratio
//! of the two fastest walls is the tracing overhead. End-to-end metrics
//! never come from a traced replay.
//!
//! The replays of a run do identical work slot for slot, and the
//! sandbox host steals CPU in bursts of seconds (the same binary on the
//! same seed: median replay wall ±15 % between runs). Interference only
//! ever adds time, so a run's wall is taken as the sum over slots of
//! that slot's fastest time across the run's replays ([`floor_wall`]):
//! a burst has to hit the same slot in every replay to be counted.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::adapter::{self, Layers, MicroSamples, Quality, Replay};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, median_and_tail, tail_percentile};
use crate::trace::{self, layer_times, Span, Tracer};

/// Set-ups at the start of an untraced run; `setup_s` is the median of
/// these and of the blocks a cheap set-up adds between replays.
const SETUP_REPS: usize = 3;
/// A set-up under `CHEAP_SETUP_S` seconds is also repeated in a block
/// of this many after every replay, and the block's fastest counts as
/// one more sample. Three back-to-back timings of a few milliseconds
/// all fall into one of the host's CPU-steal bursts or none; samples
/// spread over the whole run put the median outside the bursts, and
/// the fastest of a block is in the warm-cache regime the first
/// set-up after a replay is not in.
const RESPREAD_REPS: usize = 5;
const CHEAP_SETUP_S: f64 = 0.1;
/// The traced replay may cost at most this much more than the plain
/// one. The suite fails on it; a single run only reports the ratio,
/// because its `correct` is about the program's outputs and a ratio of
/// two timings of a few replays can cross a line on host noise alone.
pub const MAX_TRACE_OVERHEAD: f64 = 1.10;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced (per-layer metrics) or plain (end-to-end metrics).
    pub trace: bool,
    /// A twentieth of the input size, one set-up.
    pub smoke: bool,
    /// Where a traced run writes `trace-<workload>.json`.
    pub out_dir: PathBuf,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Every output check passed.
    pub correct: bool,
    /// Operations offered over all replays.
    pub attempted: usize,
    /// Operations that failed (no decision, invariant violation, or a
    /// replay disagreeing with the run's fingerprint).
    pub failed: usize,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The fingerprint every replay of the run agreed on.
    pub fingerprint: u64,
    /// Replays measured (after the verification replay).
    pub replays: usize,
    /// Why `correct` is false.
    pub problems: Vec<String>,
}

impl RunReport {
    /// The result line the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|&(name, value, unit)| {
            let body = Json::object([("value", Json::from(value)), ("unit", Json::from(unit))]);
            (name, body)
        });
        Json::object([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::object(metrics)),
        ])
        .to_string()
    }
}

/// Folds replays into the run's tallies and checks each against the
/// first one's deterministic outcome.
struct Ledger {
    reference: Quality,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Ledger {
    fn new(first: &Replay) -> Self {
        let mut ledger = Self {
            reference: first.quality,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        };
        ledger.add(first, "verification replay");
        ledger
    }

    fn add(&mut self, replay: &Replay, what: &str) {
        self.attempted += replay.ops;
        self.failed += replay.failed;
        for problem in &replay.problems {
            self.problems.push(format!("{what}: {problem}"));
        }
        if replay.quality != self.reference {
            // Every operation of a replay that disagrees is suspect.
            self.failed += replay.ops - replay.failed;
            self.problems.push(format!(
                "{what}: fingerprint {:#018x} != {:#018x} of the run's first replay",
                replay.quality.fingerprint, self.reference.fingerprint
            ));
        }
    }
}

/// Runs one workload as `args` says.
///
/// # Errors
///
/// Returns a message when the workload is unknown, its world fails to
/// build, or the trace file cannot be written.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let setups = if args.trace || args.smoke {
        1
    } else {
        SETUP_REPS
    };
    let mut setup_secs = Vec::new();
    let mut prepared = None;
    for _ in 0..setups {
        // The previous world is dropped first: set-up is measured from
        // the same starting memory each time.
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(adapter::prepare(&args.workload, args.seed, args.smoke)?);
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up ran");

    let respread_setup = setups > 1 && median(&setup_secs) < CHEAP_SETUP_S;

    let first = prepared.verify();
    let mut ledger = Ledger::new(&first);
    let mut plain = Vec::new();
    let mut traced: Vec<(Replay, Vec<Span>)> = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds || plain.is_empty() {
        let replay = prepared.replay(None);
        ledger.add(&replay, "replay");
        plain.push(replay);
        if respread_setup {
            let mut fastest = f64::INFINITY;
            for _ in 0..RESPREAD_REPS {
                let started = Instant::now();
                drop(adapter::prepare(&args.workload, args.seed, args.smoke)?);
                fastest = fastest.min(started.elapsed().as_secs_f64());
            }
            setup_secs.push(fastest);
        }
        if args.trace {
            let tracer = Tracer::new();
            let root = tracer.enter("replay", 0);
            let replay = prepared.replay(Some(&tracer));
            tracer.exit(root);
            ledger.add(&replay, "traced replay");
            traced.push((replay, tracer.spans()));
        }
    }

    let plain_wall = floor_wall(plain.iter());
    let metrics = if args.trace {
        let checkpoint = first.checkpoint.as_deref();
        let (micro_layers, samples) = prepared.micro(checkpoint);
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        values.extend(prepared.setup_layers().iter().copied());
        values.extend(micro_layers);
        values.extend(sample_layers(&samples));
        let (best, spans) = traced
            .iter()
            .min_by(|a, b| a.0.wall_s().total_cmp(&b.0.wall_s()))
            .expect("a traced run traces a replay");
        values.extend(best.layers.iter().copied());
        let every: Vec<&[Span]> = traced.iter().map(|(_, s)| s.as_slice()).collect();
        values.extend(span_layers(spans, &every));
        let traced_wall = floor_wall(traced.iter().map(|(r, _)| r));
        let overhead = traced_wall / plain_wall;
        values.extend([
            ("trace.wall_s", traced_wall),
            ("trace.best_replay_wall_s", best.wall_s()),
            ("trace.untraced_wall_s", plain_wall),
            ("trace.overhead_ratio", overhead),
            ("trace.spans", spans.len() as f64),
            ("trace.replays", traced.len() as f64),
        ]);
        write_trace(args, spans)?;
        PER_LAYER
            .iter()
            .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect()
    } else {
        let values = [
            first.ops as f64 / plain_wall,
            median(&setup_secs),
            ledger.reference.acceptance_rate,
            ledger.reference.cost_per_decision,
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| (m.name, value, m.unit))
            .collect()
    };

    Ok(RunReport {
        correct: ledger.failed == 0 && ledger.problems.is_empty(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        fingerprint: ledger.reference.fingerprint,
        replays: plain.len(),
        problems: ledger.problems,
    })
}

/// The wall seconds of one replay with the host's interference taken
/// out: per slot, the fastest time any of `replays` needed for it.
fn floor_wall<'a>(replays: impl Iterator<Item = &'a Replay>) -> f64 {
    let mut floor: Vec<f64> = Vec::new();
    for replay in replays {
        if floor.is_empty() {
            floor.clone_from(&replay.slot_s);
        }
        for (best, &secs) in floor.iter_mut().zip(&replay.slot_s) {
            *best = best.min(secs);
        }
    }
    floor.iter().sum()
}

fn write_trace(args: &RunArgs, spans: &[Span]) -> Result<(), String> {
    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(&args.workload, spans).to_string()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Layer metrics of the per-call samples taken outside the replay.
fn sample_layers(samples: &MicroSamples) -> Layers {
    let (embed_p50, embed_pct, embed_tail) = median_and_tail(&samples.embed_us);
    vec![
        ("core.greedy.embed_us_p50", embed_p50),
        ("core.greedy.embed_us_tail", embed_tail),
        ("trace.sample_tail_pct", embed_pct),
        (
            "model.substrate.dijkstra_us_p50",
            median(&samples.dijkstra_us),
        ),
        ("core.pricing.min_cost_us_p50", median(&samples.pricing_us)),
    ]
}

/// Layer metrics derived from spans: sums and counts come from the
/// fastest traced replay `best` (so they add up against its wall),
/// percentiles pool the per-slot samples of `every` traced replay.
fn span_layers(best: &[Span], every: &[&[Span]]) -> Layers {
    let times = layer_times(best);
    let total = |name: &str| times.get(name).map_or(0.0, |l| l.total_s);
    let own = |name: &str| times.get(name).map_or(0.0, |l| l.self_s);
    let count = |name: &str| times.get(name).map_or(0.0, |l| l.count as f64);

    // Pooled per-call durations by name, in the metric's unit.
    let pooled = |name: &str, scale: f64| -> Vec<f64> {
        every
            .iter()
            .flat_map(|spans| spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.secs() * scale)
            .collect()
    };
    let decide = pooled("core.decide", 1e6);
    let step = pooled("sim.engine.step", 1e6);
    let coordinator = pooled("shard.coordinator.step", 1e3);
    // A churn step is an engine step that caused an `apply_churn` call.
    let churn_steps: Vec<f64> = every
        .iter()
        .flat_map(|spans| {
            let parents: std::collections::BTreeSet<usize> = spans
                .iter()
                .filter(|s| s.name == "core.apply_churn")
                .filter_map(|s| s.parent)
                .collect();
            parents.into_iter().map(|p| spans[p].secs() * 1e6)
        })
        .collect();
    // The busiest shard bounds a perfectly parallel step from below.
    let mut by_lane: BTreeMap<u32, f64> = BTreeMap::new();
    for s in best.iter().filter(|s| s.name.starts_with("shard.decide.")) {
        *by_lane.entry(s.lane).or_default() += s.secs();
    }
    let busiest_shard = by_lane.into_values().fold(0.0, f64::max);

    let slot_samples = decide.len().max(coordinator.len());
    let (decide_p50, _, decide_tail) = median_and_tail(&decide);
    let (step_p50, _, step_tail) = median_and_tail(&step);
    let (coordinator_p50, _, coordinator_tail) = median_and_tail(&coordinator);
    let observe = [
        "sim.observe.slot_start",
        "sim.observe.fanout",
        "sim.observe.checkpoint",
    ];
    vec![
        ("core.decide.busy_s", total("core.decide")),
        ("core.decide.calls", count("core.decide")),
        ("core.decide.slot_us_p50", decide_p50),
        ("core.decide.slot_us_tail", decide_tail),
        ("core.apply_churn.busy_s", total("core.apply_churn")),
        ("sim.engine.step_us_p50", step_p50),
        ("sim.engine.step_us_tail", step_tail),
        ("sim.engine.self_s", own("sim.engine.step")),
        ("sim.engine.churn_step_us_p50", median(&churn_steps)),
        ("sim.observe.busy_s", observe.into_iter().map(total).sum()),
        ("sim.observe.checkpoint_s", total("sim.observe.checkpoint")),
        ("shard.coordinator.step_ms_p50", coordinator_p50),
        ("shard.coordinator.step_ms_tail", coordinator_tail),
        (
            "shard.coordinator.step_s_total",
            total("shard.coordinator.step"),
        ),
        ("shard.coordinator.self_s", own("shard.coordinator.step")),
        ("shard.decide.trial_busy_s", total("shard.decide.trial")),
        ("shard.decide.commit_busy_s", total("shard.decide.commit")),
        ("shard.decide.trial_calls", count("shard.decide.trial")),
        ("shard.decide.commit_calls", count("shard.decide.commit")),
        ("shard.decide.busy_s_max_shard", busiest_shard),
        ("trace.slot_samples", slot_samples as f64),
        ("trace.slot_tail_pct", tail_percentile(slot_samples)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        lane: u32,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            slot: 0,
            lane,
        }
    }

    fn value(layers: &Layers, name: &str) -> f64 {
        layers.iter().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn engine_layers_come_from_step_decide_and_observer_spans() {
        let replay = [
            span("replay", 0, 10_000, None, 0),
            span("sim.engine.step", 0, 4_000, Some(0), 0),
            span("sim.observe.slot_start", 0, 100, Some(1), 0),
            span("core.apply_churn", 100, 600, Some(1), 0),
            span("core.decide", 600, 3_000, Some(1), 0),
            span("sim.observe.fanout", 3_000, 3_500, Some(1), 0),
            span("sim.observe.checkpoint", 4_000, 5_000, Some(0), 0),
            span("sim.engine.step", 5_000, 7_000, Some(0), 0),
            span("core.decide", 5_500, 6_500, Some(7), 0),
        ];
        let layers = span_layers(&replay, &[&replay]);
        let close = |name: &str, want: f64| {
            let got = value(&layers, name);
            assert!((got - want).abs() < 1e-12, "{name}: {got} != {want}");
        };
        close("core.decide.busy_s", 3_400e-9);
        close("core.decide.calls", 2.0);
        close("core.apply_churn.busy_s", 500e-9);
        // Step self time: 4000 − (100+500+2400+500) plus 2000 − 1000.
        close("sim.engine.self_s", 1_500e-9);
        close("sim.engine.churn_step_us_p50", 4.0);
        close("sim.observe.busy_s", 1_600e-9);
        close("sim.observe.checkpoint_s", 1_000e-9);
        close("trace.slot_samples", 2.0);
        close("shard.coordinator.step_s_total", 0.0);
    }

    #[test]
    fn shard_layers_split_trial_from_commit_and_find_the_busiest_shard() {
        let replay = [
            span("shard.coordinator.step", 0, 2_000_000, None, 0),
            span("shard.decide.trial", 0, 500_000, Some(0), 0),
            span("shard.decide.trial", 0, 300_000, Some(0), 1),
            span("shard.decide.commit", 1_000_000, 1_400_000, Some(0), 0),
            span("shard.decide.commit", 1_000_000, 1_900_000, Some(0), 1),
        ];
        let layers = span_layers(&replay, &[&replay]);
        assert_eq!(value(&layers, "shard.decide.trial_calls"), 2.0);
        assert!((value(&layers, "shard.decide.trial_busy_s") - 800e-6).abs() < 1e-12);
        assert!((value(&layers, "shard.decide.commit_busy_s") - 1_300e-6).abs() < 1e-12);
        assert!((value(&layers, "shard.decide.busy_s_max_shard") - 1_200e-6).abs() < 1e-12);
        assert_eq!(value(&layers, "shard.coordinator.step_ms_p50"), 2.0);
        // Cover is the union: [0, 0.5 ms) and [1.0, 1.9 ms).
        assert!((value(&layers, "shard.coordinator.self_s") - 600e-6).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_four_contract_keys() {
        let report = RunReport {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![("setup_s", 0.8127, "s")],
            fingerprint: 1,
            replays: 3,
            problems: vec![],
        };
        assert_eq!(
            report.result_line(),
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }

    #[test]
    fn peak_rss_reads_the_high_water_mark() {
        assert!(peak_rss_mb() > 0.0);
    }
}
