//! Shared experiment drivers for the figure binaries.
//!
//! Sweeps run *flattened*: every (utilization, algorithm, seed) cell of
//! a sweep feeds one worker pool ([`vne_sim::runner::cell_map`]), and
//! all cells share one [`SweepContext`] — per-seed application draws
//! and offline plans are derived once and reused wherever the plan
//! inputs coincide (e.g. plan-based algorithm variants). Results are
//! byte-identical to the cell-by-cell path.
//!
//! This module also carries the checkpoint/resume plumbing behind
//! `--checkpoint-every` / `--resume-from`: a sweep run with
//! checkpointing writes one [`BenchCheckpoint`] file per (topology,
//! algorithm, utilization, seed) cell — the engine checkpoint plus the
//! **complete scenario configuration** needed to rebuild the run — and
//! [`resume_from`] finishes any such file to the exact summary the
//! uninterrupted run would have produced.
//!
//! Checkpoint files serialize the full [`ScenarioConfig`], so config
//! tweaks applied by figure binaries (Fig. 13's `plan_utilization`,
//! Fig. 14's `shift_plan_ingress`, ablation switches, horizon changes)
//! are captured and replayed faithfully on resume. The only
//! unrepresentable tweak is a [`EstimatorKind::Custom`] factory (an
//! opaque closure); checkpointing such a sweep fails loudly. Legacy
//! `VNEBENC1` files — which recorded only the standard coordinates and
//! silently resumed tweaked runs against the wrong scenario — are
//! refused with an explicit error.

use std::sync::Arc;

use vne_model::state::{StateBlob, StateError, StateReader, StateWriter};
use vne_model::substrate::SubstrateNetwork;
use vne_olive::olive::OliveConfig;
use vne_sim::engine::EngineCheckpoint;
use vne_sim::engine::ReembedKind;
use vne_sim::metrics::{aggregate, AggregatedSummary, Summary};
use vne_sim::registry::{AlgorithmRegistry, AlgorithmSpec};
use vne_sim::runner::{cell_map, default_apps, SweepContext};
use vne_sim::scenario::{CheckpointSink, Scenario, ScenarioConfig};
use vne_workload::adversary::{AdversaryProfile, ChurnProfile};
use vne_workload::caida::CaidaConfig;
use vne_workload::estimator::EstimatorKind;
use vne_workload::tracegen::{ArrivalKind, TraceConfig};

use crate::cli::BenchOpts;

/// One row of a sweep result.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Topology name.
    pub topology: String,
    /// Utilization fraction.
    pub utilization: f64,
    /// Algorithm name.
    pub algorithm: String,
    /// Aggregated metrics across seeds.
    pub summary: AggregatedSummary,
}

/// Runs `algorithms × opts.utils` on one topology and returns rows.
///
/// Algorithms are anything resolvable by the options' registry
/// ([`BenchOpts::registry`]) — [`vne_sim::scenario::Algorithm`]
/// values, names, or custom algorithms a downstream binary registered
/// in that field. `tweak` customizes the scenario config after the
/// scale defaults are applied (e.g. Fig. 13's `plan_utilization`).
/// Creates a fresh [`SweepContext`] for the call; use [`sweep_shared`]
/// to share artifacts across several sweeps.
pub fn sweep<S, F>(
    substrate: &SubstrateNetwork,
    algorithms: &[S],
    opts: &BenchOpts,
    tweak: F,
) -> Vec<SweepRow>
where
    S: Clone + Into<AlgorithmSpec>,
    F: Fn(&mut ScenarioConfig) + Sync,
{
    sweep_shared(
        &Arc::new(SweepContext::new()),
        substrate,
        algorithms,
        opts,
        tweak,
    )
}

/// [`sweep`] sharing an explicit [`SweepContext`] — consecutive sweeps
/// over the same substrate and seeds (e.g. ablation variants) then
/// reuse each other's application draws and offline plans instead of
/// re-deriving them per cell. Results are byte-identical to independent
/// sweeps.
///
/// Under `--checkpoint-every` every cell runs with a
/// [`vne_sim::observe::Checkpointer`] that writes each capture to
/// `<checkpoint_dir>/ckpt-<topo>-<alg>-u<pct>-c<config>-s<seed>.bin`
/// (latest capture overwrites — the file is always the newest resume
/// point). Each cell owns its file, so the writes never contend. The
/// sweep's config tweak is serialized into every file (the full
/// [`ScenarioConfig`]), so Fig. 13/14-style tweaked cells resume
/// faithfully.
///
/// # Panics
///
/// Panics when checkpointing a tweaked config that uses a custom
/// estimator — the one tweak a checkpoint file cannot represent (see
/// [`uncheckpointable_config`]).
pub fn sweep_shared<S, F>(
    ctx: &Arc<SweepContext>,
    substrate: &SubstrateNetwork,
    algorithms: &[S],
    opts: &BenchOpts,
    tweak: F,
) -> Vec<SweepRow>
where
    S: Clone + Into<AlgorithmSpec>,
    F: Fn(&mut ScenarioConfig) + Sync,
{
    // An unconsumed --resume-from means the binary never called
    // [`resume_from`]: fail loudly rather than silently re-sweep the
    // run the user asked to finish.
    assert!(
        opts.resume_from.is_none(),
        "--resume-from is not supported by this binary's sweep; \
         use a binary that handles it (e.g. fig06, fig07, fig13, fig14)"
    );
    if opts.checkpoint_every.is_some() {
        std::fs::create_dir_all(&opts.checkpoint_dir).expect("create checkpoint directory");
    }

    // The shared sweep pool: every (utilization, algorithm, seed)
    // cell feeds one worker pool, so workers stay busy across cell
    // boundaries and memoized plans become available to later cells as
    // the first cell needing them derives them.
    let seeds = opts.seed_list();
    let specs: Vec<AlgorithmSpec> = algorithms.iter().cloned().map(Into::into).collect();
    let mut cells: Vec<(f64, AlgorithmSpec, ScenarioConfig)> = Vec::new();
    for &u in &opts.utils {
        for spec in &specs {
            for &seed in &seeds {
                let mut config = opts.config(u).with_seed(seed);
                tweak(&mut config);
                cells.push((u, spec.clone(), config));
            }
        }
    }
    let summaries: Vec<Summary> = cell_map(&cells, |(u, spec, config)| {
        let apps = ctx.apps(config.seed, default_apps);
        let scenario = Scenario::new(substrate.clone(), apps, config.clone())
            .with_registry(opts.registry.clone())
            .with_sweep_context(Arc::clone(ctx));
        match opts.checkpoint_every {
            None => scenario.run_summary(spec).unwrap_or_else(|e| panic!("{e}")),
            Some(every) => {
                let sink = checkpoint_file_sink(opts, substrate.name(), *u, spec, config);
                let (summary, _) = scenario
                    .run_summary_checkpointed(spec, every, Some(sink))
                    .unwrap_or_else(|e| panic!("{e}"));
                summary
            }
        }
    });
    summaries
        .chunks(seeds.len())
        .enumerate()
        .map(|(i, per_seed)| {
            let (u, spec, _) = &cells[i * seeds.len()];
            SweepRow {
                topology: substrate.name().to_string(),
                utilization: *u,
                algorithm: spec.name().to_string(),
                summary: aggregate(per_seed),
            }
        })
        .collect()
}

/// The `--checkpoint-every` sink of one sweep cell: every capture
/// replaces the cell's [`BenchCheckpoint`] file.
fn checkpoint_file_sink(
    opts: &BenchOpts,
    topology: &str,
    utilization: f64,
    spec: &AlgorithmSpec,
    config: &ScenarioConfig,
) -> CheckpointSink {
    if let Some(what) = uncheckpointable_config(config) {
        panic!(
            "--checkpoint-every is not supported by this binary's sweep: its config \
             uses {what}, which a checkpoint file cannot record, so resuming it \
             would rebuild the wrong scenario"
        );
    }
    // A fingerprint of the *complete* config joins the filename, so
    // variant sweeps over the same (topology, algorithm, utilization,
    // seed) cell — fig13's plan-utilization variants, ablation
    // switches, changed horizons — never overwrite each other's resume
    // points in a shared checkpoint directory.
    let path = opts.checkpoint_dir.join(format!(
        "ckpt-{topology}-{}-u{:.0}-c{:08x}-s{}.bin",
        spec.name(),
        utilization * 100.0,
        config_fingerprint(config) as u32,
        config.seed,
    ));
    let topology = topology.to_string();
    let config = config.clone();
    Box::new(move |cp: &EngineCheckpoint| {
        let full = BenchCheckpoint {
            topology: topology.clone(),
            config: config.clone(),
            checkpoint: cp.clone(),
        };
        vne_sim::persist::write_bytes_atomic(&path, &full.to_bytes())
            .expect("write checkpoint file");
    })
}

/// FNV-1a fingerprint of a serialized [`ScenarioConfig`] — the
/// discriminator in checkpoint filenames (`-c<8 hex>`), so sweeps that
/// differ in *any* recorded field (OLIVE ablation switches, horizons,
/// distortions) keep distinct resume points in a shared directory
/// instead of overwriting each other.
///
/// # Panics
///
/// Panics on a custom-estimator config (not serializable; the sweep
/// driver rejects those first).
pub fn config_fingerprint(config: &ScenarioConfig) -> u64 {
    assert!(
        uncheckpointable_config(config).is_none(),
        "custom-estimator configs have no checkpoint fingerprint"
    );
    let mut w = StateWriter::new();
    encode_config(config, &mut w);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in w.finish().as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The one configuration a [`BenchCheckpoint`] cannot represent:
/// a [`EstimatorKind::Custom`] factory (an opaque closure). Everything
/// else — horizons, windows, utilizations, the Fig. 13/14 distortions,
/// OLIVE ablation switches, trace and CAIDA parameters — serializes
/// into the file verbatim. Returns a description of the offending
/// field, or `None` when the config is fully representable.
pub fn uncheckpointable_config(config: &ScenarioConfig) -> Option<String> {
    if matches!(config.estimator, EstimatorKind::Custom(_)) {
        return Some("a custom estimator factory".to_string());
    }
    None
}

/// An [`EngineCheckpoint`] plus everything a figure-bin run needs to
/// rebuild it exactly: the topology name and the **complete**
/// [`ScenarioConfig`] (horizons, measurement window, utilizations, the
/// Fig. 13 `plan_utilization` and Fig. 14 `shift_plan_ingress` tweaks,
/// OLIVE ablation switches, aggregation, estimator kind, trace/CAIDA
/// parameters, seed). This is what `--checkpoint-every` writes and
/// `--resume-from` reads; because the config rides in the file, tweaked
/// sweep cells resume against the scenario they were captured from —
/// not a silently different standard one.
#[derive(Debug, Clone)]
pub struct BenchCheckpoint {
    /// The substrate's name (one of the four builtin topologies).
    pub topology: String,
    /// The complete scenario configuration of the checkpointed run.
    pub config: ScenarioConfig,
    /// The frozen engine/algorithm/observer state.
    pub checkpoint: EngineCheckpoint,
}

/// The legacy format prefix: recorded only (topology, utilization,
/// seed, scale), so tweaked cells resumed against the wrong scenario.
/// Files with this magic are refused.
const LEGACY_MAGIC_V1: [u8; 8] = *b"VNEBENC1";

/// The pre-scenario-suite format: recorded the full config but not the
/// adversary/churn/re-embed scenario fields, so an adversarial or
/// churned cell would silently resume as a benign one. Refused.
const LEGACY_MAGIC_V2: [u8; 8] = *b"VNEBENC2";

impl BenchCheckpoint {
    /// Magic + version prefix of the file format.
    pub const MAGIC: [u8; 8] = *b"VNEBENC3";

    /// The run's seed (from the embedded config).
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// The run's online utilization fraction (from the embedded config).
    pub fn utilization(&self) -> f64 {
        self.config.utilization
    }

    /// Serializes the file.
    ///
    /// # Panics
    ///
    /// Panics when the config is not representable (custom estimator) —
    /// the sweep driver rejects such configs before running.
    pub fn to_bytes(&self) -> Vec<u8> {
        if let Some(what) = uncheckpointable_config(&self.config) {
            panic!("cannot serialize a bench checkpoint for a scenario using {what}");
        }
        let mut w = StateWriter::new();
        for b in Self::MAGIC {
            w.write_u8(b);
        }
        w.write_str(&self.topology);
        encode_config(&self.config, &mut w);
        w.write_blob(&StateBlob::from_bytes(self.checkpoint.to_bytes()));
        w.finish().into_bytes()
    }

    /// Parses a file written by [`BenchCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on bad magic or malformed content, and
    /// a [`StateError::Mismatch`] for legacy `VNEBENC1` files — those
    /// omitted the config tweaks, so resuming them could silently
    /// rebuild the wrong scenario.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StateError> {
        let mut r = StateReader::from_bytes(bytes);
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = r.read_u8()?;
        }
        if magic == LEGACY_MAGIC_V1 {
            return Err(StateError::Mismatch {
                expected: "bench-checkpoint format VNEBENC3 (records the full scenario config)"
                    .to_string(),
                found: "legacy VNEBENC1 file, which omits config tweaks (Fig. 13 \
                        plan_utilization, Fig. 14 ingress shift) and would resume the wrong \
                        scenario; re-run the sweep to produce a v3 checkpoint"
                    .to_string(),
            });
        }
        if magic == LEGACY_MAGIC_V2 {
            return Err(StateError::Mismatch {
                expected: "bench-checkpoint format VNEBENC3 (records the scenario-suite \
                           fields: adversary, churn, re-embed policy)"
                    .to_string(),
                found: "legacy VNEBENC2 file, which predates the scenario suite and would \
                        silently resume an adversarial or churned cell as a benign one; \
                        re-run the sweep to produce a v3 checkpoint"
                    .to_string(),
            });
        }
        if magic != Self::MAGIC {
            return Err(StateError::Corrupt(format!(
                "bad bench-checkpoint magic {magic:02x?}"
            )));
        }
        let topology = r.read_str()?;
        let config = decode_config(&mut r)?;
        // read_blob bounds-checks the length against the remaining
        // bytes before allocating, so a corrupt length field errors
        // instead of attempting a huge allocation.
        let inner = r.read_blob()?;
        r.finish()?;
        Ok(Self {
            topology,
            config,
            checkpoint: EngineCheckpoint::from_bytes(inner.as_bytes())?,
        })
    }

    /// Rebuilds the scenario this checkpoint froze — same topology,
    /// application draw, and the **exact** recorded configuration,
    /// tweaks included — and resolves algorithms in `registry`.
    ///
    /// # Panics
    ///
    /// Panics when the topology name is not one of the four builtins.
    pub fn scenario(&self, registry: &AlgorithmRegistry) -> Scenario {
        let substrate = topology_named(&self.topology)
            .unwrap_or_else(|| panic!("unknown checkpoint topology {:?}", self.topology));
        Scenario::new(
            substrate,
            default_apps(self.config.seed),
            self.config.clone(),
        )
        .with_registry(registry.clone())
    }
}

/// Serializes a full [`ScenarioConfig`] (everything except a custom
/// estimator factory, which the caller must reject first).
fn encode_config(config: &ScenarioConfig, w: &mut StateWriter) {
    w.write_u32(config.history_slots);
    w.write_u32(config.test_slots);
    w.write_u32(config.measure_window.0);
    w.write_u32(config.measure_window.1);
    w.write_f64(config.utilization);
    match config.plan_utilization {
        Some(u) => {
            w.write_bool(true);
            w.write_f64(u);
        }
        None => w.write_bool(false),
    }
    w.write_bool(config.shift_plan_ingress);
    w.write_usize(config.quantiles);
    w.write_bool(config.olive.borrowing);
    w.write_bool(config.olive.preemption);
    w.write_bool(config.olive.greedy_fallback);
    w.write_bool(config.olive.quickg_fast_reject);
    w.write_f64(config.aggregation.alpha);
    w.write_usize(config.aggregation.bootstrap_replicates);
    w.write_u8(match config.estimator {
        EstimatorKind::Exact => 0,
        EstimatorKind::Sketch => 1,
        EstimatorKind::Custom(_) => unreachable!("custom estimators are rejected before encoding"),
    });
    w.write_u32(config.trace.slots);
    w.write_f64(config.trace.mean_rate_per_node);
    w.write_f64(config.trace.demand_mean);
    w.write_f64(config.trace.demand_std);
    w.write_f64(config.trace.duration_mean);
    w.write_f64(config.trace.zipf_alpha);
    w.write_u8(match config.trace.arrivals {
        ArrivalKind::Poisson => 0,
        ArrivalKind::Mmpp => 1,
    });
    w.write_u64(config.trace.popularity_seed);
    match &config.caida {
        Some(cc) => {
            w.write_bool(true);
            w.write_u32(cc.slots);
            w.write_f64(cc.total_rate);
            w.write_usize(cc.sources);
            w.write_f64(cc.demand_mean);
            w.write_f64(cc.tail_sigma);
            w.write_f64(cc.duration_mean);
            w.write_f64(cc.zipf_alpha);
            w.write_u64(cc.population_seed);
        }
        None => w.write_bool(false),
    }
    w.write_u64(config.seed);
    match config.adversary {
        Some(profile) => {
            w.write_bool(true);
            w.write_str(profile.label());
        }
        None => w.write_bool(false),
    }
    match config.churn {
        Some(ChurnProfile::LinkOutages { period, len, count }) => {
            w.write_bool(true);
            w.write_u8(0);
            w.write_u32(period);
            w.write_u32(len);
            w.write_usize(count);
        }
        Some(ChurnProfile::NodeMaintenance { period, len }) => {
            w.write_bool(true);
            w.write_u8(1);
            w.write_u32(period);
            w.write_u32(len);
        }
        Some(ChurnProfile::CapacityDrain {
            period,
            len,
            factor,
        }) => {
            w.write_bool(true);
            w.write_u8(2);
            w.write_u32(period);
            w.write_u32(len);
            w.write_f64(factor);
        }
        None => w.write_bool(false),
    }
    w.write_u8(match config.reembed {
        ReembedKind::Reembed => 0,
        ReembedKind::Evict => 1,
    });
}

/// Parses a config serialized by [`encode_config`].
fn decode_config(r: &mut StateReader<'_>) -> Result<ScenarioConfig, StateError> {
    let history_slots = r.read_u32()?;
    let test_slots = r.read_u32()?;
    let measure_window = (r.read_u32()?, r.read_u32()?);
    let utilization = r.read_f64()?;
    let plan_utilization = if r.read_bool()? {
        Some(r.read_f64()?)
    } else {
        None
    };
    let shift_plan_ingress = r.read_bool()?;
    let quantiles = r.read_usize()?;
    let olive = OliveConfig {
        borrowing: r.read_bool()?,
        preemption: r.read_bool()?,
        greedy_fallback: r.read_bool()?,
        quickg_fast_reject: r.read_bool()?,
    };
    let aggregation = vne_workload::estimator::AggregationConfig {
        alpha: r.read_f64()?,
        bootstrap_replicates: r.read_usize()?,
    };
    let estimator = match r.read_u8()? {
        0 => EstimatorKind::Exact,
        1 => EstimatorKind::Sketch,
        tag => {
            return Err(StateError::Corrupt(format!(
                "invalid estimator kind tag {tag}"
            )))
        }
    };
    let trace = TraceConfig {
        slots: r.read_u32()?,
        mean_rate_per_node: r.read_f64()?,
        demand_mean: r.read_f64()?,
        demand_std: r.read_f64()?,
        duration_mean: r.read_f64()?,
        zipf_alpha: r.read_f64()?,
        arrivals: match r.read_u8()? {
            0 => ArrivalKind::Poisson,
            1 => ArrivalKind::Mmpp,
            tag => {
                return Err(StateError::Corrupt(format!(
                    "invalid arrival kind tag {tag}"
                )))
            }
        },
        popularity_seed: r.read_u64()?,
    };
    let caida = if r.read_bool()? {
        Some(CaidaConfig {
            slots: r.read_u32()?,
            total_rate: r.read_f64()?,
            sources: r.read_usize()?,
            demand_mean: r.read_f64()?,
            tail_sigma: r.read_f64()?,
            duration_mean: r.read_f64()?,
            zipf_alpha: r.read_f64()?,
            population_seed: r.read_u64()?,
        })
    } else {
        None
    };
    let seed = r.read_u64()?;
    let adversary = if r.read_bool()? {
        let label = r.read_str()?;
        Some(AdversaryProfile::from_label(&label).ok_or_else(|| {
            StateError::Corrupt(format!("unknown adversary profile label {label:?}"))
        })?)
    } else {
        None
    };
    let churn = if r.read_bool()? {
        Some(match r.read_u8()? {
            0 => ChurnProfile::LinkOutages {
                period: r.read_u32()?,
                len: r.read_u32()?,
                count: r.read_usize()?,
            },
            1 => ChurnProfile::NodeMaintenance {
                period: r.read_u32()?,
                len: r.read_u32()?,
            },
            2 => ChurnProfile::CapacityDrain {
                period: r.read_u32()?,
                len: r.read_u32()?,
                factor: r.read_f64()?,
            },
            tag => {
                return Err(StateError::Corrupt(format!(
                    "invalid churn profile tag {tag}"
                )))
            }
        })
    } else {
        None
    };
    let reembed = match r.read_u8()? {
        0 => ReembedKind::Reembed,
        1 => ReembedKind::Evict,
        tag => {
            return Err(StateError::Corrupt(format!(
                "invalid re-embed policy tag {tag}"
            )))
        }
    };
    Ok(ScenarioConfig {
        history_slots,
        test_slots,
        measure_window,
        utilization,
        plan_utilization,
        shift_plan_ingress,
        quantiles,
        olive,
        aggregation,
        estimator,
        trace,
        caida,
        adversary,
        churn,
        reembed,
        seed,
    })
}

/// The builtin topology with the given [`SubstrateNetwork::name`], if
/// any (`Iris`, `CittaStudi`, `5GEN`, `100N150E`).
pub fn topology_named(name: &str) -> Option<SubstrateNetwork> {
    [
        vne_topology::zoo::iris().expect("iris"),
        vne_topology::zoo::citta_studi().expect("citta"),
        vne_topology::gen5g::five_gen().expect("5gen"),
        vne_topology::random::hundred_n_150e().expect("random"),
    ]
    .into_iter()
    .find(|s| s.name() == name)
}

/// Handles `--resume-from`: when the flag is present, loads the file,
/// finishes the checkpointed run (byte-identical to the uninterrupted
/// one) and prints its summary. Figure binaries call this first and
/// return when it reports `true`.
///
/// # Panics
///
/// Panics on unreadable/corrupt files or unknown topologies.
pub fn resume_from(opts: &BenchOpts) -> bool {
    let Some(path) = &opts.resume_from else {
        return false;
    };
    let bytes = std::fs::read(path)
        .unwrap_or_else(|e| panic!("cannot read checkpoint {}: {e}", path.display()));
    let bench = BenchCheckpoint::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("cannot parse checkpoint {}: {e}", path.display()));
    let scenario = bench.scenario(&opts.registry);
    let resumed_at = bench.checkpoint.slot;
    let summary = scenario
        .resume_summary(&bench.checkpoint)
        .unwrap_or_else(|e| panic!("cannot resume {}: {e}", path.display()));
    let mut tweaks = Vec::new();
    if let Some(u) = bench.config.plan_utilization {
        tweaks.push(format!("plan_utilization={:.0}%", u * 100.0));
    }
    if bench.config.shift_plan_ingress {
        tweaks.push("shifted plan ingress".to_string());
    }
    println!(
        "# resumed {} on {} at u={:.0}% (seed {}, config c{:08x}{}) from slot {} of {}",
        bench.checkpoint.algorithm,
        bench.topology,
        bench.utilization() * 100.0,
        bench.seed(),
        config_fingerprint(&bench.config) as u32,
        if tweaks.is_empty() {
            String::new()
        } else {
            format!(", {}", tweaks.join(", "))
        },
        resumed_at + 1,
        scenario.config.test_slots,
    );
    println!(
        "{:<12} {:>6} {:>9} {:>14} {:>14} {:>12}",
        "topology", "util", "alg", "rejection", "total_cost", "fingerprint"
    );
    println!(
        "{:<12} {:>5.0}% {:>9} {:>14.6} {:>14.3} {:>12x}",
        bench.topology,
        bench.utilization() * 100.0,
        bench.checkpoint.algorithm,
        summary.rejection_rate,
        summary.total_cost,
        summary.fingerprint(),
    );
    true
}

/// Prints sweep rows with a metric selector as an aligned table.
pub fn print_rows<F>(title: &str, rows: &[SweepRow], metric_name: &str, select: F)
where
    F: Fn(&AggregatedSummary) -> (f64, f64),
{
    println!("# {title}");
    println!(
        "{:<12} {:>6} {:>9} {:>14} {:>12}",
        "topology", "util", "alg", metric_name, "±95ci"
    );
    for row in rows {
        let (mean, ci) = select(&row.summary);
        println!(
            "{:<12} {:>5.0}% {:>9} {:>14.6} {:>12.6}",
            row.topology,
            row.utilization * 100.0,
            row.algorithm,
            mean,
            ci
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_rows() {
        let substrate = vne_topology::zoo::citta_studi().unwrap();
        let opts = BenchOpts {
            seeds: 1,
            utils: vec![1.0],
            ..BenchOpts::default()
        };
        let rows = sweep(
            &substrate,
            &[vne_sim::scenario::Algorithm::Quickg],
            &opts,
            |c| {
                // Shrink for the unit test.
                c.history_slots = 100;
                c.test_slots = 60;
                c.measure_window = (10, 50);
            },
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].algorithm, "QUICKG");
        assert!(rows[0].summary.rejection_rate.0 >= 0.0);
        print_rows("test", &rows, "rate", |s| s.rejection_rate);
    }

    #[test]
    fn topology_named_resolves_the_builtin_four() {
        for name in ["Iris", "CittaStudi", "5GEN", "100N150E"] {
            let s = topology_named(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(s.name(), name);
        }
        assert!(topology_named("Atlantis").is_none());
    }

    #[test]
    fn bench_checkpoint_bytes_roundtrip_and_reject_corruption() {
        let mut config = crate::cli::medium_config(1.2).with_seed(7);
        // Exercise every recorded tweak class.
        config.plan_utilization = Some(0.6);
        config.shift_plan_ingress = true;
        config.olive.borrowing = false;
        config.estimator = EstimatorKind::Sketch;
        config.caida = Some(CaidaConfig {
            total_rate: 100.0,
            sources: 300,
            ..CaidaConfig::default()
        });
        config.adversary = Some(AdversaryProfile::PlanAdversarial);
        config.churn = Some(ChurnProfile::LinkOutages {
            period: 25,
            len: 6,
            count: 2,
        });
        config.reembed = ReembedKind::Evict;
        let bench = BenchCheckpoint {
            topology: "CittaStudi".to_string(),
            config,
            checkpoint: EngineCheckpoint {
                slot: 42,
                algorithm: "QUICKG".to_string(),
                engine: vne_model::state::StateBlob::from_bytes(vec![1, 2, 3]),
                algorithm_state: vne_model::state::StateBlob::from_bytes(vec![4]),
                observer_state: vne_model::state::StateBlob::default(),
            },
        };
        let bytes = bench.to_bytes();
        let parsed = BenchCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.topology, bench.topology);
        assert_eq!(parsed.checkpoint, bench.checkpoint);
        // The full config rides in the file — Debug covers every field.
        assert_eq!(
            format!("{:?}", parsed.config),
            format!("{:?}", bench.config)
        );
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(BenchCheckpoint::from_bytes(&bad).is_err());
        assert!(BenchCheckpoint::from_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn legacy_v1_checkpoint_files_are_refused() {
        // A v1 file recorded only the standard coordinates; resuming a
        // tweaked cell through it would silently rebuild the wrong
        // scenario — the parser must refuse it with a clear error, not
        // guess.
        let mut w = StateWriter::new();
        for b in *b"VNEBENC1" {
            w.write_u8(b);
        }
        w.write_str("CittaStudi");
        w.write_f64(1.0);
        w.write_u64(1);
        w.write_bool(false);
        let bytes = w.finish().into_bytes();
        match BenchCheckpoint::from_bytes(&bytes) {
            Err(StateError::Mismatch { found, .. }) => {
                assert!(found.contains("VNEBENC1"), "{found}");
            }
            other => panic!("expected a legacy-format refusal, got {other:?}"),
        }
    }

    #[test]
    fn legacy_v2_checkpoint_files_are_refused() {
        // A v2 file predates the scenario-suite fields (adversary,
        // churn, re-embed policy); resuming an adversarial or churned
        // cell through it would silently rebuild a benign scenario.
        let mut w = StateWriter::new();
        for b in *b"VNEBENC2" {
            w.write_u8(b);
        }
        w.write_str("CittaStudi");
        let bytes = w.finish().into_bytes();
        match BenchCheckpoint::from_bytes(&bytes) {
            Err(StateError::Mismatch { found, .. }) => {
                assert!(found.contains("VNEBENC2"), "{found}");
            }
            other => panic!("expected a legacy-format refusal, got {other:?}"),
        }
    }

    #[test]
    fn custom_estimator_configs_cannot_be_checkpointed() {
        let mut config = crate::cli::medium_config(1.0);
        assert!(uncheckpointable_config(&config).is_none());
        config.estimator = EstimatorKind::custom(|slots, aggregation| {
            Box::new(vne_workload::estimator::ExactEstimator::new(
                slots,
                *aggregation,
            ))
        });
        let what = uncheckpointable_config(&config).expect("custom estimators are opaque");
        assert!(what.contains("custom estimator"), "{what}");
    }

    #[test]
    fn checkpointed_sweep_writes_resumable_files() {
        // End to end: a checkpointing sweep writes a file; resuming it
        // reproduces the uninterrupted run's fingerprint exactly.
        let dir = std::env::temp_dir().join(format!(
            "vne-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let substrate = vne_topology::zoo::citta_studi().unwrap();
        let opts = BenchOpts {
            seeds: 1,
            utils: vec![1.0],
            checkpoint_every: Some(130),
            checkpoint_dir: dir.clone(),
            ..BenchOpts::default()
        };
        let rows = sweep(
            &substrate,
            &[vne_sim::scenario::Algorithm::Quickg],
            &opts,
            |_| {},
        );
        assert_eq!(rows.len(), 1);
        // Medium scale = 300 online slots, every 130 ⇒ captures at
        // slots 129 and 259; the file holds the latest. The filename
        // carries the config fingerprint.
        let fp = config_fingerprint(&opts.config(1.0).with_seed(1)) as u32;
        let path = dir.join(format!("ckpt-CittaStudi-QUICKG-u100-c{fp:08x}-s1.bin"));
        let bench = BenchCheckpoint::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(bench.checkpoint.slot, 259);
        assert_eq!(bench.topology, "CittaStudi");
        assert_eq!(bench.seed(), 1);
        assert!((bench.utilization() - 1.0).abs() < 1e-12);
        let scenario = bench.scenario(&opts.registry);
        let resumed = scenario.resume_summary(&bench.checkpoint).unwrap();
        let straight = scenario
            .run_summary(vne_sim::scenario::Algorithm::Quickg)
            .unwrap();
        assert_eq!(resumed.fingerprint(), straight.fingerprint());
        // The --resume-from driver consumes the same file.
        let resume_opts = BenchOpts {
            resume_from: Some(path),
            ..BenchOpts::default()
        };
        assert!(resume_from(&resume_opts));
        assert!(!resume_from(&BenchOpts::default()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tweaked_fig13_and_fig14_cells_resume_faithfully() {
        // The regression of the tweaked-config checkpoint bug: a
        // checkpointed Fig. 13 cell (OLIVE with `plan_utilization`
        // below the online demand) and a Fig. 14 cell (shifted plan
        // ingress) must carry their tweak inside the file and resume to
        // the exact summary of the uninterrupted tweaked run. Before
        // the full-config capture, the resume silently rebuilt the
        // *standard* scenario and produced wrong numbers.
        let substrate = vne_topology::zoo::citta_studi().unwrap();
        let dir = std::env::temp_dir().join(format!(
            "vne-ckpt-tweak-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = BenchOpts {
            seeds: 1,
            utils: vec![1.2],
            checkpoint_every: Some(9),
            checkpoint_dir: dir.clone(),
            ..BenchOpts::default()
        };
        type Tweak = fn(&mut ScenarioConfig);
        let fig13: Tweak = |c| c.plan_utilization = Some(0.6);
        let fig14: Tweak = |c| c.shift_plan_ingress = true;
        for (name, tweak) in [("fig13", fig13), ("fig14", fig14)] {
            let rows = sweep(
                &substrate,
                &[vne_sim::scenario::Algorithm::Olive],
                &opts,
                |c: &mut ScenarioConfig| {
                    // Shrink the cell so the plan-based run stays fast;
                    // horizons are recorded in the file like any tweak.
                    c.history_slots = 80;
                    c.test_slots = 30;
                    c.measure_window = (4, 26);
                    c.aggregation.bootstrap_replicates = 10;
                    tweak(c);
                },
            );
            assert_eq!(rows.len(), 1, "{name}");
            // The config fingerprint is part of the filename, so
            // fig13/fig14-style variant cells keep distinct resume
            // points; rebuild the cell's config to predict it.
            let mut cell_config = opts.config(1.2).with_seed(1);
            cell_config.history_slots = 80;
            cell_config.test_slots = 30;
            cell_config.measure_window = (4, 26);
            cell_config.aggregation.bootstrap_replicates = 10;
            tweak(&mut cell_config);
            let fp = config_fingerprint(&cell_config) as u32;
            let path = dir.join(format!("ckpt-CittaStudi-OLIVE-u120-c{fp:08x}-s1.bin"));
            let bench = BenchCheckpoint::from_bytes(&std::fs::read(&path).unwrap())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            // The tweak rides in the file.
            match name {
                "fig13" => assert_eq!(bench.config.plan_utilization, Some(0.6)),
                _ => assert!(bench.config.shift_plan_ingress),
            }
            assert_eq!(bench.config.history_slots, 80);
            // Resuming rebuilds the tweaked scenario and lands on the
            // same fingerprint as never having stopped.
            let scenario = bench.scenario(&opts.registry);
            let resumed = scenario.resume_summary(&bench.checkpoint).unwrap();
            let straight = scenario
                .run_summary(vne_sim::scenario::Algorithm::Olive)
                .unwrap();
            assert_eq!(
                resumed.fingerprint(),
                straight.fingerprint(),
                "{name}: tweaked cell must resume faithfully"
            );
            std::fs::remove_file(&path).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_sweep_rejects_custom_estimators() {
        // The one tweak a checkpoint file cannot record: an opaque
        // estimator factory. It must fail loudly instead of writing
        // files that would resume into the wrong scenario.
        let substrate = vne_topology::zoo::citta_studi().unwrap();
        let dir = std::env::temp_dir().join(format!(
            "vne-ckpt-custom-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let opts = BenchOpts {
            seeds: 1,
            utils: vec![1.0],
            checkpoint_every: Some(50),
            checkpoint_dir: dir.clone(),
            ..BenchOpts::default()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sweep(
                &substrate,
                &[vne_sim::scenario::Algorithm::Quickg],
                &opts,
                |c| {
                    c.estimator = EstimatorKind::custom(|slots, aggregation| {
                        Box::new(vne_workload::estimator::ExactEstimator::new(
                            slots,
                            *aggregation,
                        ))
                    });
                },
            )
        }));
        assert!(
            result.is_err(),
            "custom-estimator checkpointing sweep must panic"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_resolves_custom_algorithms_through_the_opts_registry() {
        // The plugin path end to end: an extended registry assigned to
        // BenchOpts lets `sweep` run an algorithm vne-bench knows
        // nothing about.
        let mut registry = AlgorithmRegistry::builtins();
        registry.register("PLUGGED", |ctx| {
            vne_sim::registry::BuiltAlgorithm::plain(vne_olive::olive::Olive::quickg(
                ctx.substrate().clone(),
                ctx.apps().clone(),
                ctx.policy().clone(),
            ))
        });
        let substrate = vne_topology::zoo::citta_studi().unwrap();
        let opts = BenchOpts {
            seeds: 1,
            utils: vec![1.0],
            algs: vec![AlgorithmSpec::new("plugged")],
            registry,
            ..BenchOpts::default()
        };
        let rows = sweep(&substrate, &opts.algs, &opts, |c| {
            c.history_slots = 100;
            c.test_slots = 60;
            c.measure_window = (10, 50);
        });
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].algorithm, "PLUGGED");
    }
}
