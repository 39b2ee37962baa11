//! End-to-end experiment scenarios: trace → history → plan → online run.
//!
//! A [`Scenario`] reproduces the paper's pipeline for one seed: generate
//! a request history, aggregate it, solve PLAN-VNE, then stream the
//! online phase through the chosen algorithm and summarize the
//! measurement window. Algorithms are resolved by name through the
//! scenario's [`AlgorithmRegistry`] — the paper's four are built in,
//! and [`Scenario::with_registry`] swaps in a registry extended with new
//! ones without touching this crate. Every run — fresh or resumed,
//! checkpointing or not, observed or not — goes through the one driver
//! [`Scenario::drive`]. The online trace is *streamed* (one slot at a
//! time), so a run's memory is bounded by the active requests, not the
//! horizon. Variations used by the evaluation — plan built for a
//! different utilization (Fig. 13), spatially shifted plan input
//! (Fig. 14), CAIDA-like demand (Fig. 15), GPU scenario (Fig. 10) —
//! are configuration switches here.

use std::fmt;

use vne_model::app::AppSet;
use vne_model::cost::RejectionPenalty;
use vne_model::ids::RequestId;
use vne_model::policy::PlacementPolicy;
use vne_model::request::{Slot, SlotEvents};
use vne_model::state::StateError;
use vne_model::substrate::SubstrateNetwork;
use vne_olive::aggregate::AggregateDemand;
use vne_olive::colgen::{solve_plan, PlanVneConfig};
use vne_olive::olive::OliveConfig;
use vne_olive::plan::Plan;
use vne_workload::adversary::{self, AdversaryProfile, ChurnProfile, ChurnSchedule};
use vne_workload::caida::{self, CaidaConfig};
use vne_workload::estimator::{AggregationConfig, ExactEstimator};
use vne_workload::rng::SeededRng;
use vne_workload::tracegen::{self, TraceConfig};

use crate::engine::{
    restore_engine, EngineCheckpoint, EngineState, ReembedKind, RunResult, SimObserver, StreamStats,
};
use crate::metrics::Summary;
use crate::observe::{Checkpointer, NullObserver, Recorder, Tee, WindowSummary};
use crate::registry::{AlgorithmRegistry, AlgorithmSpec, BuildContext, UnknownAlgorithm};

/// The algorithms of the paper's evaluation — convenience handles whose
/// names resolve against [`AlgorithmRegistry::builtins`].
///
/// The simulator itself is open: any name registered in a scenario's
/// registry runs the same way. `Display` writes the canonical label
/// (`"OLIVE"`) that results are labeled with; a name given on a command
/// line is parsed as an [`AlgorithmSpec`] instead, which resolves
/// case-insensitively against the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's contribution: plan-based online embedding.
    Olive,
    /// Greedy collocated baseline (OLIVE with an empty plan).
    Quickg,
    /// Exact per-request baseline.
    Fullg,
    /// Per-slot offline re-optimization.
    SlotOff,
}

impl Algorithm {
    /// All four paper algorithms, in the paper's order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Olive,
        Algorithm::Quickg,
        Algorithm::Fullg,
        Algorithm::SlotOff,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Olive => "OLIVE",
            Algorithm::Quickg => "QUICKG",
            Algorithm::Fullg => "FULLG",
            Algorithm::SlotOff => "SLOTOFF",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Scenario parameters (defaults mirror Table III at reduced scale; use
/// [`ScenarioConfig::paper`] for the full-scale settings).
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// History (planning) window length in slots.
    pub history_slots: Slot,
    /// Online (test) phase length in slots.
    pub test_slots: Slot,
    /// Measurement window within the online phase.
    pub measure_window: (Slot, Slot),
    /// Edge utilization of the online demand (1.0 = 100%).
    pub utilization: f64,
    /// Utilization the *plan* is built for (Fig. 13); defaults to
    /// `utilization`.
    pub plan_utilization: Option<f64>,
    /// Remap history ingress nodes randomly before planning (Fig. 14).
    pub shift_plan_ingress: bool,
    /// Rejection quantile count `P` (Fig. 11).
    pub quantiles: usize,
    /// OLIVE mechanism switches (ablations).
    pub olive: OliveConfig,
    /// History aggregation (percentile α, bootstrap replicates).
    pub aggregation: AggregationConfig,
    /// Base synthetic trace parameters.
    pub trace: TraceConfig,
    /// Use the CAIDA-like trace instead of the synthetic one (Fig. 15).
    pub caida: Option<CaidaConfig>,
    /// Adversarial online-workload profile (scenario suite). `None`
    /// keeps the benign Table III trace; burst/cliff/plan-adversarial
    /// profiles *replace* the online generator, flash-crowd/diurnal
    /// profiles *modulate* it. The history (planning) phase is never
    /// affected — the adversary attacks the plan, not its derivation.
    pub adversary: Option<AdversaryProfile>,
    /// Substrate-churn schedule injected into the online phase (link
    /// outages, node maintenance, capacity drains). `None` keeps the
    /// substrate static.
    pub churn: Option<ChurnProfile>,
    /// What the engine does with requests stranded by churn: re-offer
    /// them to the algorithm (default) or evict them outright.
    pub reembed: ReembedKind,
    /// Master seed of this scenario instance.
    pub seed: u64,
}

impl ScenarioConfig {
    /// Fast, reduced-scale defaults for tests and quick runs.
    pub fn small(utilization: f64) -> Self {
        Self {
            history_slots: 300,
            test_slots: 120,
            measure_window: (20, 100),
            utilization,
            plan_utilization: None,
            shift_plan_ingress: false,
            quantiles: 10,
            olive: OliveConfig::default(),
            aggregation: AggregationConfig {
                alpha: 80.0,
                bootstrap_replicates: 30,
            },
            trace: TraceConfig {
                slots: 0, // set per phase
                ..TraceConfig::default()
            },
            caida: None,
            adversary: None,
            churn: None,
            reembed: ReembedKind::default(),
            seed: 1,
        }
    }

    /// The paper's full-scale settings (Table III): 5400 planning slots,
    /// 600 online slots, measurement window 100–500.
    pub fn paper(utilization: f64) -> Self {
        Self {
            history_slots: 5400,
            test_slots: 600,
            measure_window: (100, 500),
            aggregation: AggregationConfig::default(),
            ..Self::small(utilization)
        }
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Everything produced by one scenario run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Window summary — the [`WindowSummary`] fold, equal to what
    /// [`Scenario::run_summary`] returns for the same cell.
    pub summary: Summary,
    /// Full per-request / per-slot result.
    pub result: RunResult,
    /// The plan used (plan-based algorithms only).
    pub plan: Option<Plan>,
    /// Seconds spent building the plan (aggregation + PLAN-VNE).
    pub plan_secs: f64,
}

/// Everything one [`Scenario::drive`] call produces.
#[derive(Debug, Clone)]
pub struct Run {
    /// Window summary (the [`WindowSummary`] fold).
    pub summary: Summary,
    /// Engine counters, cumulative across resumed segments.
    pub stats: StreamStats,
    /// [`vne_olive::algorithm::OnlineAlgorithm::name`] of the algorithm
    /// that ran.
    pub algorithm: String,
    /// The plan used (plan-based algorithms only).
    pub plan: Option<Plan>,
    /// Seconds spent building the plan (aggregation + PLAN-VNE).
    pub plan_secs: f64,
    /// The latest checkpoint this call captured (`None` when none was
    /// asked for or the run ended before the first capture slot).
    pub checkpoint: Option<EngineCheckpoint>,
}

/// One phase's trace source (synthetic or CAIDA-like), calibrated for a
/// target utilization.
enum PhaseTrace {
    Synthetic(TraceConfig),
    Caida(CaidaConfig),
}

/// A fully wired experiment for one substrate, application set and seed.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The physical substrate.
    pub substrate: SubstrateNetwork,
    /// The application catalogue.
    pub apps: AppSet,
    /// Placement policy (η).
    pub policy: PlacementPolicy,
    /// Scenario parameters.
    pub config: ScenarioConfig,
    /// Algorithms runnable by name (builtins unless overridden).
    registry: AlgorithmRegistry,
    /// Shared per-sweep artifact cache (memoized offline plans); `None`
    /// outside sweeps.
    sweep: Option<std::sync::Arc<crate::runner::SweepContext>>,
}

impl Scenario {
    /// Creates a scenario with the default placement policy and the
    /// built-in algorithm registry.
    pub fn new(substrate: SubstrateNetwork, apps: AppSet, config: ScenarioConfig) -> Self {
        Self {
            substrate,
            apps,
            policy: PlacementPolicy::default(),
            config,
            registry: AlgorithmRegistry::builtins(),
            sweep: None,
        }
    }

    /// Replaces the algorithm registry (builder style).
    pub fn with_registry(mut self, registry: AlgorithmRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Attaches a shared [`crate::runner::SweepContext`] (builder
    /// style): [`Scenario::build_plan`] then memoizes the offline plan
    /// under the scenario's plan-input key, so sweeps running the same
    /// `(seed, plan inputs)` cell more than once (ablation variants,
    /// multiple plan-based algorithms) derive it exactly once. Cached
    /// plans are the identical `Plan` values a fresh derivation
    /// produces, so summaries stay byte-identical.
    pub fn with_sweep_context(
        mut self,
        sweep: std::sync::Arc<crate::runner::SweepContext>,
    ) -> Self {
        self.sweep = Some(sweep);
        self
    }

    /// The algorithm registry of this scenario.
    pub fn registry(&self) -> &AlgorithmRegistry {
        &self.registry
    }

    fn rng(&self, stream: u64) -> SeededRng {
        SeededRng::new(self.config.seed).derive(stream)
    }

    /// The calibrated trace source for one phase: utilization sets the
    /// mean demand, the popularity/population seed is a scenario
    /// property (history and online phases must agree on the hot
    /// nodes), and `slots` is the phase length.
    fn phase_trace(&self, utilization: f64, slots: Slot) -> PhaseTrace {
        match &self.config.caida {
            None => {
                let mut tc =
                    self.config
                        .trace
                        .at_utilization(utilization, &self.substrate, &self.apps);
                tc.slots = slots;
                // Popularity is a property of the scenario: history and
                // online phases must agree on the hot nodes.
                tc.popularity_seed = self.config.seed.wrapping_mul(0x9e37_79b9).wrapping_add(7);
                PhaseTrace::Synthetic(tc)
            }
            Some(caida_config) => {
                // Calibrate the CAIDA trace's mean demand the same way:
                // u · cap_edge = rate_per_edge · E[T] · E[d] · E[Σβ].
                let edge_nodes = self.substrate.edge_nodes().len() as f64;
                let rate_per_edge = caida_config.total_rate / edge_nodes;
                let cap_per_edge = self.substrate.total_edge_capacity() / edge_nodes;
                let mean_fp = self.apps.mean_total_node_size();
                let mut cc = caida_config.clone();
                cc.slots = slots;
                cc.demand_mean =
                    utilization * cap_per_edge / (rate_per_edge * cc.duration_mean * mean_fp);
                cc.population_seed = self.config.seed.wrapping_mul(0x517c_c1b7).wrapping_add(3);
                PhaseTrace::Caida(cc)
            }
        }
    }

    /// The online phase as a lazy slot-event stream — what
    /// [`Scenario::run`] feeds the engine. Yields exactly
    /// `config.test_slots` events; memory is `O(edge nodes)` /
    /// `O(sources)`, independent of the horizon. The stream is `Send`
    /// so a driver on another thread (the shard pool, the serve actor)
    /// can own it.
    ///
    /// The configured [`ScenarioConfig::adversary`] profile (if any)
    /// replaces or modulates the benign generator, and the configured
    /// [`ScenarioConfig::churn`] schedule injects its substrate events —
    /// both lazily. Debug builds additionally wrap the stream in a
    /// [`CheckedStream`] validator.
    pub fn online_events(&self) -> Box<dyn Iterator<Item = SlotEvents> + Send + '_> {
        self.online_stream(0)
    }

    /// The online phase from `from_slot` on — the resume path of
    /// checkpointed runs. The underlying lazy stream fast-forwards via
    /// its `skip_to` (replaying the RNG draws of the consumed slots, so
    /// the tail is identical to the tail of [`Scenario::online_events`])
    /// and yields events for slots `from_slot..test_slots` only.
    /// Adversary modulators and churn schedules are stateless per-slot
    /// maps, so they commute with the skip and the suffix stays
    /// byte-identical.
    pub fn online_events_from(
        &self,
        from_slot: Slot,
    ) -> Box<dyn Iterator<Item = SlotEvents> + Send + '_> {
        self.online_stream(from_slot)
    }

    /// The benign (non-adversarial) online trace stream, fast-forwarded
    /// to `from`.
    fn base_online_events(&self, from: Slot) -> Box<dyn Iterator<Item = SlotEvents> + Send + '_> {
        let rng = self.rng(2);
        match self.phase_trace(self.config.utilization, self.config.test_slots) {
            PhaseTrace::Synthetic(tc) => {
                let mut stream = tracegen::stream(&self.substrate, &self.apps, &tc, rng);
                stream.skip_to(from);
                Box::new(stream)
            }
            PhaseTrace::Caida(cc) => {
                let mut stream = caida::stream(&self.substrate, &self.apps, &cc, rng);
                stream.skip_to(from);
                Box::new(stream)
            }
        }
    }

    /// The single assembly point for every online stream (fresh and
    /// resumed): the benign trace or the adversary profile's stream
    /// ([`adversary::stream`]) from `from` on, optionally churned, and —
    /// in debug builds — validated by [`CheckedStream`].
    fn online_stream(&self, from: Slot) -> Box<dyn Iterator<Item = SlotEvents> + Send + '_> {
        let base = match self.config.adversary {
            None => self.base_online_events(from),
            Some(profile) => adversary::stream(
                profile,
                &self.substrate,
                &self.apps,
                from..self.config.test_slots,
                self.config.seed,
                |from| self.base_online_events(from),
                // Rank classes by the scenario's own (deterministic)
                // plan, so every algorithm faces the identical stream.
                || {
                    let (plan, _) = self.build_plan();
                    plan.iter()
                        .map(|cp| (cp.class, cp.guaranteed_demand()))
                        .collect()
                },
            ),
        };
        let stream: Box<dyn Iterator<Item = SlotEvents> + Send + '_> = match self.config.churn {
            Some(profile) => Box::new(adversary::with_churn(
                base,
                ChurnSchedule::new(profile, &self.substrate),
            )),
            None => base,
        };
        if cfg!(debug_assertions) {
            Box::new(CheckedStream::new(stream))
        } else {
            stream
        }
    }

    /// The history (planning) phase as a lazy slot-event stream — what
    /// [`Scenario::build_plan`] folds through the demand estimator.
    /// Yields exactly `config.history_slots` events with memory
    /// `O(edge nodes)` / `O(sources)`, independent of the horizon,
    /// honoring the Fig. 13/14 distortions: the Fig. 14
    /// `shift_plan_ingress` shift draws from a dedicated derived RNG
    /// stream (independent of the trace RNG) in request order, so the
    /// lazy [`tracegen::shift_stream`] wrapper applies it without
    /// collecting the history.
    pub fn history_events(&self) -> Box<dyn Iterator<Item = SlotEvents> + Send + '_> {
        let u = self
            .config
            .plan_utilization
            .unwrap_or(self.config.utilization);
        let rng = self.rng(1);
        let base: Box<dyn Iterator<Item = SlotEvents> + Send + '_> = match self
            .phase_trace(u, self.config.history_slots)
        {
            PhaseTrace::Synthetic(tc) => {
                Box::new(tracegen::stream(&self.substrate, &self.apps, &tc, rng))
            }
            PhaseTrace::Caida(cc) => Box::new(caida::stream(&self.substrate, &self.apps, &cc, rng)),
        };
        if self.config.shift_plan_ingress {
            Box::new(tracegen::shift_stream(base, &self.substrate, self.rng(5)))
        } else {
            base
        }
    }

    /// The rejection penalty used for both planning and cost accounting
    /// (the paper's conservative ψ).
    pub fn penalty(&self) -> RejectionPenalty {
        RejectionPenalty::conservative(&self.apps, &self.substrate)
    }

    /// The paper's demand-conformance check (§III-A): the fraction of
    /// classes whose online `P_α` demand falls inside the 95% bootstrap
    /// confidence interval of the history estimate. Close to 1 when the
    /// online demand is "drawn from the same distribution" as the
    /// history; low under the Fig. 13/14 distortions.
    pub fn demand_conformance(&self) -> f64 {
        let mut history = ExactEstimator::new(self.config.history_slots, self.config.aggregation);
        history.observe_all(self.history_events());
        let mut online = ExactEstimator::new(self.config.test_slots, self.config.aggregation);
        online.observe_all(self.online_events());
        let mut rng = self.rng(4);
        history.conformance(&online, &mut rng)
    }

    /// The PLAN-VNE solver configuration of this scenario (ψ from the
    /// conservative penalty, quantile count from the config).
    pub fn plan_config(&self) -> PlanVneConfig {
        PlanVneConfig::new(self.penalty().max_psi()).with_quantiles(self.config.quantiles)
    }

    /// Builds the OLIVE plan by *streaming* the history through an
    /// [`ExactEstimator`] — the trace is folded one slot at a time and
    /// never materialized (planning memory is the estimator's,
    /// `O(classes × slots)`). Returns the plan and the wall-clock
    /// seconds it took (fold + PLAN-VNE solve).
    ///
    /// When a [`crate::runner::SweepContext`] is attached
    /// ([`Scenario::with_sweep_context`]) the derivation is memoized
    /// under [`Scenario::plan_cache_key`]: cells sharing identical plan
    /// inputs (e.g. OLIVE ablation variants on one seed) reuse the
    /// first derivation — same `Plan` value, original build time.
    ///
    /// # Panics
    ///
    /// Panics if a PLAN-VNE master solve ends anywhere but `Optimal`,
    /// naming the round and the status
    /// ([`vne_olive::colgen::PlanSolveStats::ensure_optimal`]).
    pub fn build_plan(&self) -> (Plan, f64) {
        match &self.sweep {
            Some(sweep) => sweep.plan_for(self.plan_cache_key(), || self.build_plan_uncached()),
            None => self.build_plan_uncached(),
        }
    }

    fn build_plan_uncached(&self) -> (Plan, f64) {
        // audit:allow(D2, "plan-build cost probe reported in Outcome; never feeds embeddings")
        let started = std::time::Instant::now();
        let mut estimator = ExactEstimator::new(self.config.history_slots, self.config.aggregation);
        let mut rng = self.rng(3);
        let aggregate =
            AggregateDemand::from_stream(self.history_events(), &mut estimator, &mut rng);
        let (plan, stats) = solve_plan(
            &self.substrate,
            &self.apps,
            &self.policy,
            &aggregate,
            &self.plan_config(),
        );
        if let Err(refusal) = stats.ensure_optimal() {
            panic!("{refusal}");
        }
        (plan, started.elapsed().as_secs_f64())
    }

    /// A fingerprint of every input the offline plan depends on: the
    /// **full** substrate (nodes, capacities, links — two substrates
    /// sharing a name but differing in capacity must not share plans),
    /// application catalogue shape, placement policy, seed and the
    /// planning-relevant configuration (history horizon, plan
    /// utilization, Fig. 13/14 distortions, aggregation, quantiles,
    /// trace/CAIDA parameters). Deliberately
    /// *excludes* [`OliveConfig`] and the online phase — two scenarios
    /// with equal keys derive bit-identical plans.
    pub fn plan_cache_key(&self) -> u64 {
        let inputs = format!(
            "{:?};{:?};{:?};{};{};{:?};{:?};{};{:?};{:?};{:?};{:?}",
            self.substrate,
            self.apps,
            self.policy,
            self.config.seed,
            self.config.history_slots,
            self.config.plan_utilization,
            self.config.utilization,
            self.config.shift_plan_ingress,
            self.config.quantiles,
            self.config.aggregation,
            self.config.trace,
            self.config.caida,
        );
        fnv1a(&inputs)
    }

    /// A fingerprint of this scenario's **whole world** — substrate,
    /// application catalogue, placement policy and the complete
    /// [`ScenarioConfig`] (seed, online phase, OLIVE switches, adversary
    /// and churn included): two scenarios with equal keys run
    /// identically under any one algorithm. It is stable across
    /// processes of one build, which makes it the identity of a sweep
    /// cell's checkpoint file — a re-run finds the file its own cell
    /// wrote and no other.
    pub fn world_key(&self) -> u64 {
        fnv1a(&format!(
            "{:?};{:?};{:?};{:?}",
            self.substrate, self.apps, self.policy, self.config
        ))
    }

    /// The one way from this world to a [`Summary`]: builds `algorithm`
    /// from the scenario's registry, restores `from` (or starts fresh),
    /// streams the rest of the online phase through a [`WindowSummary`]
    /// and the caller's `observer` side by side, and summarizes the
    /// measurement window. [`Scenario::run`], [`Scenario::run_observed`]
    /// and [`Scenario::run_summary`] are sugar over it.
    ///
    /// * `from` — finish a checkpointed run instead of starting at slot
    ///   0: algorithm, engine and window state are restored and the
    ///   events from the slot after the checkpoint on are streamed. The
    ///   result is byte-identical (up to the wall-clock `online_secs`) to
    ///   the uninterrupted run — compare [`Summary::fingerprint`]s — and
    ///   one checkpoint may be resumed as many times as wanted (what-if
    ///   branches). `algorithm` must build the algorithm that wrote it.
    /// * `checkpoints` — `(every, sink)`: capture an
    ///   [`EngineCheckpoint`] every `every` slots (slots `every-1`,
    ///   `2·every-1`, …, also on a resumed run), hand each to `sink`, and
    ///   return the latest in [`Run::checkpoint`]. A fork at slot `at` is
    ///   `drive(alg, None, Some((at + 1, None)), &mut StopAfter::new(at + 1))`.
    /// * `observer` — sees every event of this call but lives outside
    ///   the checkpointed state: on a resume it observes the tail only.
    ///
    /// # Errors
    ///
    /// [`ResumeError::UnknownAlgorithm`] when the name is not registered;
    /// [`ResumeError::State`] when `from` does not restore (another
    /// algorithm's checkpoint is a [`StateError::Mismatch`]) or a
    /// checkpoint capture failed — an algorithm without snapshot support
    /// fails before the first slot, not after the whole simulation.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoints` asks for an interval of 0.
    pub fn drive<O: SimObserver + ?Sized>(
        &self,
        algorithm: impl Into<AlgorithmSpec>,
        from: Option<&EngineCheckpoint>,
        checkpoints: Option<(Slot, Option<CheckpointSink>)>,
        observer: &mut O,
    ) -> Result<Run, ResumeError> {
        let mut built = self
            .registry
            .build(&algorithm.into(), &BuildContext::new(self))?;
        let algorithm = built.algorithm.as_mut();
        if checkpoints.is_some() && algorithm.snapshot_state().is_none() {
            return Err(ResumeError::State(StateError::Unsupported(format!(
                "algorithm {}",
                algorithm.name()
            ))));
        }
        let mut window = WindowSummary::new(self.config.measure_window, self.penalty());
        let mut state = match from {
            Some(checkpoint) => {
                restore_engine(checkpoint, algorithm, &self.substrate, &mut window)?
            }
            None => EngineState::fresh(),
        };
        let events =
            self.online_events_from(Slot::try_from(state.next_slot()).unwrap_or(Slot::MAX));
        let mut policy = self.config.reembed.policy();
        let (stats, checkpoint) = match checkpoints {
            None => {
                let stats = state.run(
                    algorithm,
                    &self.substrate,
                    events,
                    &mut Tee(&mut window, observer),
                    policy.as_mut(),
                );
                (stats, None)
            }
            Some((every, sink)) => {
                let mut checkpointer = Checkpointer::every(every, &mut window);
                if let Some(sink) = sink {
                    checkpointer = checkpointer.with_sink(sink);
                }
                let stats = state.run(
                    algorithm,
                    &self.substrate,
                    events,
                    &mut Tee(&mut checkpointer, observer),
                    policy.as_mut(),
                );
                if let Some(error) = checkpointer.last_error() {
                    return Err(ResumeError::State(error.clone()));
                }
                (stats, checkpointer.into_latest())
            }
        };
        Ok(Run {
            summary: window.finish(&stats),
            stats,
            algorithm: built.algorithm.name().to_string(),
            plan: built.plan,
            plan_secs: built.plan_secs,
            checkpoint,
        })
    }

    /// Runs one algorithm through the online phase and keeps the full
    /// per-request / per-slot [`RunResult`] next to the window summary.
    ///
    /// # Panics
    ///
    /// Panics when the name does not resolve in this scenario's
    /// registry; [`Scenario::run_summary`] is the fallible form.
    pub fn run(&self, algorithm: impl Into<AlgorithmSpec>) -> Outcome {
        self.run_observed(algorithm, &mut NullObserver)
    }

    /// Like [`Scenario::run`], with an extra [`SimObserver`] attached to
    /// the engine (per-slot metrics, drill-down inspection, early stop).
    ///
    /// # Panics
    ///
    /// Panics like [`Scenario::run`] on an unregistered name.
    pub fn run_observed<O: SimObserver + ?Sized>(
        &self,
        algorithm: impl Into<AlgorithmSpec>,
        observer: &mut O,
    ) -> Outcome {
        let mut recorder = Recorder::new();
        let run = self
            .drive(algorithm, None, None, &mut Tee(&mut recorder, observer))
            .unwrap_or_else(|e| panic!("{e}"));
        Outcome {
            summary: run.summary,
            result: recorder.finish(&run.algorithm, &run.stats),
            plan: run.plan,
            plan_secs: run.plan_secs,
        }
    }

    /// Runs one algorithm and returns only the window [`Summary`] —
    /// without an outcome log memory is `O(classes)`: the pairing for
    /// multi-seed sweeps and long horizons.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownAlgorithm`] when the name is not registered.
    pub fn run_summary(
        &self,
        algorithm: impl Into<AlgorithmSpec>,
    ) -> Result<Summary, UnknownAlgorithm> {
        match self.drive(algorithm, None, None, &mut NullObserver) {
            Ok(run) => Ok(run.summary),
            Err(ResumeError::UnknownAlgorithm(e)) => Err(e),
            Err(ResumeError::State(e)) => unreachable!("nothing restored or captured: {e}"),
        }
    }
}

/// FNV-1a over the `Debug` rendering a scenario key is made of. Debug
/// formatting covers every field of the rendered structs, including
/// future additions, and is deterministic across processes (none of
/// them holds a hash-ordered container).
fn fnv1a(rendered: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in rendered.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A callback receiving every checkpoint a checkpointing
/// [`Scenario::drive`] captures (e.g. persist it to disk).
pub type CheckpointSink = Box<dyn FnMut(&EngineCheckpoint) + Send>;

/// Why a checkpointed run could not be created or resumed.
#[derive(Debug, Clone)]
pub enum ResumeError {
    /// The algorithm name does not resolve in the scenario's registry.
    UnknownAlgorithm(UnknownAlgorithm),
    /// A state blob failed to capture or restore.
    State(StateError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::UnknownAlgorithm(e) => e.fmt(f),
            ResumeError::State(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<UnknownAlgorithm> for ResumeError {
    fn from(e: UnknownAlgorithm) -> Self {
        Self::UnknownAlgorithm(e)
    }
}

impl From<StateError> for ResumeError {
    fn from(e: StateError) -> Self {
        Self::State(e)
    }
}

/// Debug-mode slot-stream validator: asserts the contract every
/// scenario stream must satisfy — slots contiguous relative to the
/// first yielded slot (so resumed suffixes pass), each arrival stamped
/// with its slot, and strictly ascending request ids across the whole
/// stream. Panics with a message naming the offending slot and ids on
/// the first violation.
///
/// [`Scenario::online_events`] wraps every online stream with this in
/// debug builds; release builds skip the wrapper. (Sparse streams —
/// slot gaps — are legal at the *engine* level, which is why this is a
/// scenario-layer adapter and not an engine assertion: the scenario
/// generators promise density, the engine does not require it.)
#[derive(Debug, Clone)]
pub struct CheckedStream<I> {
    inner: I,
    expected_slot: Option<Slot>,
    last_id: Option<RequestId>,
}

impl<I: Iterator<Item = SlotEvents>> CheckedStream<I> {
    /// Wraps a slot-event stream with the validator.
    pub fn new(inner: I) -> Self {
        Self {
            inner,
            expected_slot: None,
            last_id: None,
        }
    }
}

impl<I: Iterator<Item = SlotEvents>> Iterator for CheckedStream<I> {
    type Item = SlotEvents;

    fn next(&mut self) -> Option<SlotEvents> {
        let event = self.inner.next()?;
        if let Some(expected) = self.expected_slot {
            assert_eq!(
                event.slot, expected,
                "malformed slot stream: expected contiguous slot {expected}, got slot {}",
                event.slot
            );
        }
        self.expected_slot = Some(event.slot + 1);
        for r in &event.arrivals {
            assert_eq!(
                r.arrival, event.slot,
                "malformed slot stream: request {} stamped with arrival {} was yielded in slot {}",
                r.id.0, r.arrival, event.slot
            );
            if let Some(last) = self.last_id {
                assert!(
                    r.id > last,
                    "malformed slot stream: request ids must be strictly ascending, \
                     got {} after {} (slot {})",
                    r.id.0,
                    last.0,
                    event.slot
                );
            }
            self.last_id = Some(r.id);
        }
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::StopAfter;
    use crate::registry::BuiltAlgorithm;
    use std::sync::{Arc, Mutex};
    use vne_model::request::Request;
    use vne_olive::algorithm::OnlineAlgorithm;
    use vne_topology::zoo::citta_studi;
    use vne_workload::appgen::{paper_mix, AppGenConfig};

    fn scenario(utilization: f64, seed: u64) -> Scenario {
        let substrate = citta_studi().unwrap();
        let mut rng = SeededRng::new(seed);
        let apps = paper_mix(&AppGenConfig::default(), &mut rng);
        Scenario::new(
            substrate,
            apps,
            ScenarioConfig::small(utilization).with_seed(seed),
        )
    }

    /// Every deterministic field of a [`Summary`] as bit patterns (all
    /// but the wall-clock `online_secs`).
    fn summary_bits(s: &Summary) -> impl PartialEq + fmt::Debug {
        (
            (s.arrivals, s.rejected, s.preempted, s.churn),
            [
                s.rejection_rate.to_bits(),
                s.resource_cost.to_bits(),
                s.rejection_cost.to_bits(),
                s.total_cost.to_bits(),
                s.balance_index.to_bits(),
            ],
        )
    }

    #[test]
    fn olive_beats_quickg_at_high_load() {
        let sc = scenario(1.4, 11);
        let olive = sc.run(Algorithm::Olive);
        let quickg = sc.run(Algorithm::Quickg);
        assert!(olive.summary.arrivals > 100);
        assert_eq!(olive.summary.arrivals, quickg.summary.arrivals);
        // The paper's headline: OLIVE rejects significantly less.
        assert!(
            olive.summary.rejection_rate <= quickg.summary.rejection_rate + 0.02,
            "OLIVE {} vs QUICKG {}",
            olive.summary.rejection_rate,
            quickg.summary.rejection_rate
        );
        assert!(olive.plan.is_some());
        assert!(olive.plan_secs > 0.0);
    }

    #[test]
    fn low_load_everything_accepted() {
        let sc = scenario(0.3, 7);
        let olive = sc.run(Algorithm::Olive);
        assert!(
            olive.summary.rejection_rate < 0.05,
            "rate {}",
            olive.summary.rejection_rate
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let sc = scenario(1.0, 5);
        let a = sc.run(Algorithm::Olive);
        let b = sc.run(Algorithm::Olive);
        assert_eq!(a.summary.rejection_rate, b.summary.rejection_rate);
        assert_eq!(a.summary.total_cost, b.summary.total_cost);
    }

    #[test]
    fn different_seeds_differ() {
        let a = scenario(1.0, 5).run(Algorithm::Quickg);
        let b = scenario(1.0, 6).run(Algorithm::Quickg);
        assert_ne!(a.summary.arrivals, b.summary.arrivals);
    }

    #[test]
    fn algorithms_run_by_name() {
        let sc = scenario(1.0, 5);
        let by_enum = sc.run(Algorithm::Quickg);
        let by_name = sc.run("quickg");
        assert_eq!(
            by_enum.summary.rejection_rate,
            by_name.summary.rejection_rate
        );
        assert_eq!(by_enum.summary.total_cost, by_name.summary.total_cost);
        assert!(sc.run_summary("NOSUCH").is_err());
    }

    #[test]
    fn run_and_run_summary_are_one_fold() {
        // `Outcome::summary` and `run_summary` must agree on bit
        // patterns (all but the wall-clock `online_secs`), churn tallies
        // included — under churn and under preemption (OLIVE at 140%
        // preempts, pinned by the streaming-parity suite).
        let preempting = scenario(1.4, 11);
        let mut churned = scenario(1.4, 11);
        churned.config.churn = Some(ChurnProfile::CapacityDrain {
            period: 30,
            len: 5,
            factor: 0.2,
        });
        for alg in [Algorithm::Olive, Algorithm::Quickg] {
            for sc in [&preempting, &churned] {
                let full = sc.run(alg).summary;
                let streaming = sc.run_summary(alg).unwrap();
                assert_eq!(summary_bits(&full), summary_bits(&streaming), "{alg}");
                assert_eq!(full.fingerprint(), streaming.fingerprint(), "{alg}");
                if sc.config.churn.is_some() {
                    assert!(full.churn.events > 0, "{alg}: no churn in the window");
                } else if alg == Algorithm::Olive {
                    assert!(full.preempted > 0, "seed must exercise preemption");
                }
            }
        }
    }

    #[test]
    fn phase_streams_yield_one_event_per_slot() {
        for shift in [false, true] {
            let mut sc = scenario(1.0, 31);
            sc.config.shift_plan_ingress = shift;
            assert_eq!(
                sc.history_events().count(),
                sc.config.history_slots as usize
            );
        }
        let sc = scenario(1.0, 17);
        assert_eq!(sc.online_events().count(), sc.config.test_slots as usize);
    }

    #[test]
    fn custom_algorithm_registers_and_runs() {
        // An "algorithm" that rejects everything, registered in the
        // scenario's registry — the open-registry path end to end.
        struct RejectAll(vne_model::load::LoadLedger);
        impl OnlineAlgorithm for RejectAll {
            fn name(&self) -> &str {
                "REJECTALL"
            }
            fn process_slot(
                &mut self,
                _t: Slot,
                _departures: &[Request],
                arrivals: &[Request],
            ) -> vne_olive::algorithm::SlotOutcome {
                vne_olive::algorithm::SlotOutcome {
                    rejected: arrivals.iter().map(|r| r.id).collect(),
                    ..Default::default()
                }
            }
            fn loads(&self) -> &vne_model::load::LoadLedger {
                &self.0
            }
        }

        let mut registry = AlgorithmRegistry::builtins();
        registry.register("rejectall", |ctx| {
            BuiltAlgorithm::plain(RejectAll(vne_model::load::LoadLedger::new(ctx.substrate())))
        });
        let sc = scenario(1.0, 5).with_registry(registry);
        let outcome = sc.run("RejectAll");
        assert!(outcome.summary.arrivals > 0);
        assert_eq!(outcome.summary.rejection_rate, 1.0);
        assert_eq!(outcome.result.algorithm, "REJECTALL");
        assert!(outcome.plan.is_none());
    }

    #[test]
    fn plan_utilization_mismatch_still_works() {
        let mut sc = scenario(1.2, 9);
        sc.config.plan_utilization = Some(0.6);
        let out = sc.run(Algorithm::Olive);
        // Plan for 60%, demand at 120%: should still function.
        assert!(out.summary.rejection_rate < 1.0);
    }

    #[test]
    fn shifted_plan_ingress_works() {
        let mut sc = scenario(1.0, 13);
        sc.config.shift_plan_ingress = true;
        let out = sc.run(Algorithm::Olive);
        assert!(out.summary.arrivals > 0);
    }

    #[test]
    fn conformance_detects_distribution_shift() {
        // Note: the 95% CI is of the *estimator* (it tightens with
        // history length), not a prediction interval for the noisy
        // online statistic — so even same-distribution conformance is
        // well below 1 at small scale. The informative property is
        // relative: a demand shift must push conformance down hard.
        let sc = scenario(1.0, 21);
        let base = sc.demand_conformance();
        let mut shifted = scenario(1.0, 21);
        shifted.config.plan_utilization = Some(0.3); // history at 30%, online at 100%
        let low = shifted.demand_conformance();
        assert!(base > 0.05, "base conformance {base}");
        assert!(low < base, "shifted {low} vs base {base}");
        // 15 of 88 classes conform; pinned so a change to the bootstrap
        // under `ExactEstimator::conformance` cannot move a CI.
        assert_eq!(base.to_bits(), 0x3fc5_d174_5d17_45d1, "base {base}");
    }

    #[test]
    fn adversarial_profiles_run_and_are_deterministic() {
        for profile in AdversaryProfile::ALL {
            let mut sc = scenario(1.0, 5);
            sc.config.adversary = Some(profile);
            let a = sc.run_summary(Algorithm::Quickg).unwrap();
            let b = sc.run_summary(Algorithm::Quickg).unwrap();
            assert!(a.arrivals > 0, "{profile:?} produced no arrivals");
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "{profile:?} is not deterministic"
            );
        }
    }

    #[test]
    fn adversarial_stream_is_identical_across_algorithms() {
        // Every algorithm must face the same request sequence — the
        // plan-adversarial generator in particular derives its targets
        // from the scenario's plan, not the running algorithm's.
        let mut sc = scenario(1.0, 7);
        sc.config.adversary = Some(AdversaryProfile::PlanAdversarial);
        let olive = sc.run_summary(Algorithm::Olive).unwrap();
        let quickg = sc.run_summary(Algorithm::Quickg).unwrap();
        assert_eq!(olive.arrivals, quickg.arrivals);
    }

    #[test]
    fn churn_scenario_counts_window_churn() {
        let mut sc = scenario(1.0, 5);
        sc.config.churn = Some(ChurnProfile::NodeMaintenance { period: 30, len: 5 });
        let summary = sc.run_summary(Algorithm::Quickg).unwrap();
        // Windows at t=30,60,90 fall inside the (20,100) measure
        // window: a down and an up event each.
        assert!(summary.churn.events > 0, "no churn events in window");
    }

    #[test]
    fn evict_policy_never_reembeds() {
        let mut sc = scenario(1.4, 11);
        sc.config.churn = Some(ChurnProfile::CapacityDrain {
            period: 30,
            len: 5,
            factor: 0.2,
        });
        sc.config.reembed = crate::engine::ReembedKind::Evict;
        let evict = sc.run_summary(Algorithm::Quickg).unwrap();
        assert!(evict.churn.stranded > 0, "drain must strand requests");
        assert_eq!(evict.churn.reembedded, 0);
        assert_eq!(evict.churn.evicted, evict.churn.stranded);

        sc.config.reembed = crate::engine::ReembedKind::Reembed;
        let reembed = sc.run_summary(Algorithm::Quickg).unwrap();
        assert!(
            reembed.churn.reembedded > 0,
            "re-offering after a drain must succeed at least once"
        );
        assert_eq!(
            reembed.churn.reembedded + reembed.churn.evicted,
            reembed.churn.stranded
        );
    }

    #[test]
    fn churned_adversarial_run_resumes_byte_identically() {
        let mut sc = scenario(1.2, 9);
        sc.config.adversary = Some(AdversaryProfile::RevenueBurst);
        sc.config.churn = Some(ChurnProfile::LinkOutages {
            period: 25,
            len: 6,
            count: 2,
        });
        let full = sc.run_summary(Algorithm::Olive).unwrap();
        // Fork inside the second outage window (slot 52 ∈ [50, 56)).
        let fork = sc
            .drive(
                Algorithm::Olive,
                None,
                Some((53, None)),
                &mut StopAfter::new(53),
            )
            .unwrap()
            .checkpoint
            .expect("a checkpoint at slot 52");
        assert_eq!(fork.slot, 52);
        let resumed = sc
            .drive(Algorithm::Olive, Some(&fork), None, &mut NullObserver)
            .unwrap()
            .summary;
        assert_eq!(full.fingerprint(), resumed.fingerprint());
        assert_eq!(full.churn, resumed.churn);
    }

    /// Drives `alg` (from `from`, if given) with `observer` beside it,
    /// checkpointing every 25 slots, and returns the run plus every
    /// captured checkpoint in capture order.
    fn drive_collecting(
        sc: &Scenario,
        alg: Algorithm,
        from: Option<&EngineCheckpoint>,
        observer: &mut impl SimObserver,
    ) -> (Run, Vec<EngineCheckpoint>) {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let sink: CheckpointSink = Box::new(move |c: &EngineCheckpoint| {
            sink_seen.lock().unwrap().push(c.clone());
        });
        let run = sc.drive(alg, from, Some((25, Some(sink))), observer);
        let seen = seen.lock().unwrap().clone();
        (run.unwrap(), seen)
    }

    #[test]
    fn one_driver_composes() {
        // Resume + checkpointing + a caller's observer in ONE `drive`
        // call — under preemption (OLIVE at 140%) and under churn
        // (QUICKG with capacity drains) — must yield the uninterrupted
        // run's summary, the same tail of the outcome log, and later
        // checkpoints at the same slots (with the same algorithm and
        // window state) as an uninterrupted checkpointing run.
        let preempting = scenario(1.4, 11);
        let mut churned = scenario(1.4, 11);
        churned.config.churn = Some(ChurnProfile::CapacityDrain {
            period: 30,
            len: 5,
            factor: 0.2,
        });
        for (sc, alg) in [
            (&preempting, Algorithm::Olive),
            (&churned, Algorithm::Quickg),
        ] {
            let full = sc.run(alg);
            // 120 slots, every 25: captures at 24, 49, 74, 99.
            let (_, uninterrupted) = drive_collecting(sc, alg, None, &mut NullObserver);
            let slots: Vec<Slot> = uninterrupted.iter().map(|c| c.slot).collect();
            assert_eq!(slots, [24, 49, 74, 99], "{alg}");
            // Resume from the mid-run capture at slot 49 (inside the
            // measurement window), checkpointing on, a Recorder beside.
            let from = &uninterrupted[1];
            let mut recorder = Recorder::new();
            let (run, later) = drive_collecting(sc, alg, Some(from), &mut recorder);
            assert_eq!(later.len(), 2, "{alg}: later checkpoints");
            for (resumed, expected) in later.iter().zip(&uninterrupted[2..]) {
                // (The engine blob carries the wall-clock `online_secs`.)
                assert_eq!(resumed.slot, expected.slot, "{alg}");
                assert_eq!(resumed.algorithm_state, expected.algorithm_state, "{alg}");
                assert_eq!(resumed.observer_state, expected.observer_state, "{alg}");
            }
            assert_eq!(run.checkpoint.as_ref(), later.last(), "{alg}");
            assert_eq!(
                summary_bits(&run.summary),
                summary_bits(&full.summary),
                "{alg}"
            );
            assert_eq!(run.summary.fingerprint(), full.summary.fingerprint());
            assert_eq!(run.stats.slots_run, sc.config.test_slots);
            let tail = recorder.finish(&run.algorithm, &run.stats);
            let full_tail: Vec<_> = full
                .result
                .requests
                .iter()
                .filter(|r| r.arrival > from.slot)
                .cloned()
                .collect();
            assert!(!full_tail.is_empty());
            assert_eq!(tail.requests, full_tail, "{alg}: outcome-log tail");
            assert_eq!(
                tail.slots,
                full.result.slots[50..],
                "{alg}: slot series tail"
            );
            if alg == Algorithm::Olive {
                assert!(full.summary.preempted > 0, "seed must exercise preemption");
            } else {
                assert!(
                    full.summary.churn.stranded > 0,
                    "drain must strand requests"
                );
            }
        }
    }

    #[test]
    fn resume_builds_the_callers_spec() {
        // A registry whose "MY-OLIVE" factory builds an `Olive` that calls
        // itself "OLIVE" (borrowing off, so it is not the builtin): a
        // resume with spec "MY-OLIVE" must run *that* factory, not
        // whatever the name inside the checkpoint resolves to.
        let built = Arc::new(Mutex::new(0usize));
        let counter = Arc::clone(&built);
        let mut registry = AlgorithmRegistry::builtins();
        registry.register("MY-OLIVE", move |ctx| {
            *counter.lock().unwrap() += 1;
            let (plan, plan_secs) = ctx.build_plan();
            let config = OliveConfig {
                borrowing: false,
                ..ctx.config().olive
            };
            BuiltAlgorithm::planned(
                vne_olive::olive::Olive::new(
                    ctx.substrate().clone(),
                    ctx.apps().clone(),
                    ctx.policy().clone(),
                    plan.clone(),
                    config,
                ),
                plan,
                plan_secs,
            )
        });
        let sc = scenario(1.4, 11).with_registry(registry);
        let mine = sc.run_summary("MY-OLIVE").unwrap();
        let builtin = sc.run_summary(Algorithm::Olive).unwrap();
        assert_ne!(mine.fingerprint(), builtin.fingerprint());
        let fork = sc
            .drive("MY-OLIVE", None, Some((60, None)), &mut StopAfter::new(60))
            .unwrap()
            .checkpoint
            .expect("a checkpoint at slot 59");
        assert_eq!(fork.algorithm, "OLIVE");
        let before = *built.lock().unwrap();
        let resumed = sc
            .drive("MY-OLIVE", Some(&fork), None, &mut NullObserver)
            .unwrap()
            .summary;
        assert_eq!(
            *built.lock().unwrap(),
            before + 1,
            "the registered factory ran"
        );
        assert_eq!(resumed.fingerprint(), mine.fingerprint());

        // The checkpoint's own name only guards against a mix-up: another
        // algorithm's checkpoint is a mismatch, not a silent rebuild.
        let quickg = sc
            .drive(
                Algorithm::Quickg,
                None,
                Some((60, None)),
                &mut StopAfter::new(60),
            )
            .unwrap()
            .checkpoint
            .unwrap();
        match sc.drive(Algorithm::Olive, Some(&quickg), None, &mut NullObserver) {
            Err(ResumeError::State(StateError::Mismatch { .. })) => {}
            other => panic!("expected a mismatch, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "expected contiguous slot")]
    fn checked_stream_panics_on_slot_gap() {
        let events = vec![
            SlotEvents {
                slot: 0,
                arrivals: vec![],
                churn: vec![],
            },
            SlotEvents {
                slot: 2,
                arrivals: vec![],
                churn: vec![],
            },
        ];
        CheckedStream::new(events.into_iter()).count();
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn checked_stream_panics_on_descending_ids() {
        let req = |id: u64, slot: Slot| Request {
            id: vne_model::ids::RequestId(id),
            arrival: slot,
            duration: 1,
            ingress: vne_model::ids::NodeId(0),
            app: vne_model::ids::AppId(0),
            demand: 1.0,
        };
        let events = vec![
            SlotEvents {
                slot: 0,
                arrivals: vec![req(5, 0)],
                churn: vec![],
            },
            SlotEvents {
                slot: 1,
                arrivals: vec![req(3, 1)],
                churn: vec![],
            },
        ];
        CheckedStream::new(events.into_iter()).count();
    }

    #[test]
    #[should_panic(expected = "stamped with arrival")]
    fn checked_stream_panics_on_misstamped_arrival() {
        let events = vec![SlotEvents {
            slot: 4,
            arrivals: vec![Request {
                id: vne_model::ids::RequestId(0),
                arrival: 3,
                duration: 1,
                ingress: vne_model::ids::NodeId(0),
                app: vne_model::ids::AppId(0),
                demand: 1.0,
            }],
            churn: vec![],
        }];
        CheckedStream::new(events.into_iter()).count();
    }

    #[test]
    fn checked_stream_accepts_resumed_suffixes() {
        // Contiguity is relative to the first yielded slot, so a
        // skipped (resume-path) stream passes.
        let sc = scenario(1.0, 5);
        let n = CheckedStream::new(sc.online_events_from(40)).count();
        assert_eq!(n, (sc.config.test_slots - 40) as usize);
    }

    #[test]
    fn caida_trace_scenario() {
        let mut sc = scenario(1.0, 15);
        sc.config.caida = Some(CaidaConfig {
            total_rate: 100.0,
            sources: 300,
            ..CaidaConfig::default()
        });
        let out = sc.run(Algorithm::Olive);
        assert!(out.summary.arrivals > 0);
    }
}
