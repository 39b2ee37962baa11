//! The benchmark's only contact with the program it measures: this is
//! the one file that names a repo API (README.md lists that surface, so
//! a simplification PR knows which signatures to keep).
//!
//! It builds each workload's world in set-up, replays it through the
//! serial public entry points (`EngineState::step` and
//! `ShardCoordinator::step` slot by slot, `run_stream_with` and
//! `ShardCoordinator::run` for the verification replay,
//! `AggregateDemand::from_stream` + `solve_plan` offline) and measures
//! every layer *from outside*: by timing those calls and by wrapping
//! the algorithm and the observer in the decorators below. Nothing
//! here reads `VNE_PIPELINE` or calls an entry point ROADMAP slates
//! for deletion.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vne_lp::problem::{Problem, Relation};
use vne_lp::simplex::Simplex;
use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::churn::EffectiveCapacities;
use vne_model::cost::RejectionPenalty;
use vne_model::embedding::Footprint;
use vne_model::ids::RequestId;
use vne_model::invariant::audit_ledger;
use vne_model::load::LoadLedger;
use vne_model::policy::PlacementPolicy;
use vne_model::request::{Request, Slot, SlotEvents};
use vne_model::shard::{PartitionAssignment, ShardedSubstrate};
use vne_model::state::{StateBlob, StateError};
use vne_model::substrate::SubstrateNetwork;
use vne_olive::aggregate::AggregateDemand;
use vne_olive::algorithm::{OnlineAlgorithm, SlotOutcome};
use vne_olive::colgen::{solve_plan, PlanSolveStats, PlanVneConfig};
use vne_olive::greedy::collocated_embed;
use vne_olive::olive::{Olive, OliveConfig};
use vne_olive::plan::Plan;
use vne_olive::pricing::{min_cost_embedding, ElementCosts};
use vne_olive::slotoff::SlotOff;
use vne_shard::ShardCoordinator;
use vne_sim::engine::{
    run_stream_with, ChurnStats, EngineCheckpoint, EngineState, EngineView, ReembedKind,
    RequestOutcome, RequestStatus, SimControl, SimObserver, SlotMetrics, StreamStats,
};
use vne_sim::metrics::Summary;
use vne_sim::observe::{Checkpointer, Tee, WindowSummary};
use vne_sim::runner::default_apps;
use vne_topology::partition::{large_synthetic, GreedyEdgeCut, Partitioner};
use vne_workload::adversary::{with_churn, ChurnProfile, ChurnSchedule};
use vne_workload::estimator::{AggregationConfig, ExactEstimator};
use vne_workload::rng::SeededRng;
use vne_workload::tracegen::{self, ArrivalKind, TraceConfig};

use crate::stats::median;
use crate::trace::Tracer;

/// Named layer values, in report order.
pub type Layers = Vec<(&'static str, f64)>;

/// One workload: the name the command line takes and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    /// `--workload` value.
    pub name: &'static str,
    /// What it exercises and what it bypasses.
    pub why: &'static str,
}

/// The six workloads, in suite order (`BENCHMARK.json` lists the same).
pub const WORKLOADS: [WorkloadInfo; 6] = [
    WorkloadInfo {
        name: "online_iris",
        why: "paper headline: OLIVE with its plan on Iris; decisions are plan-ledger lookups, so engine bookkeeping and observer fan-out weigh most and greedy search least",
    },
    WorkloadInfo {
        name: "online_hostile",
        why: "same world and trace plus capacity-drain churn and a checkpoint every 10 slots: churn folding, stranding, re-embedding, preemption, checkpoint encode; control for online_iris",
    },
    WorkloadInfo {
        name: "online_large",
        why: "topology-size axis: QUICKG on a 1000-node world, all time in the per-request Dijkstra plus full host scan that Iris bypasses",
    },
    WorkloadInfo {
        name: "shard_k4",
        why: "same world and events as online_large through the 4-shard coordinator under a load that spans: trial step, span, commit; compare with online_large",
    },
    WorkloadInfo {
        name: "plan_build",
        why: "offline half: history stream to Plan on the 5G topology; the only workload where the estimator, the master LP and the pricing DP do the work",
    },
    WorkloadInfo {
        name: "online_slotoff",
        why: "SLOTOFF on Iris: hundreds of small warm-started LP solves, so basis reuse or a faster simplex shows here; bypasses greedy search and the plan ledger",
    },
];

// ---------------------------------------------------------------------
// Input sizes
// ---------------------------------------------------------------------

/// Input sizes of one run. The full sizes keep one replay well under
/// the measuring time, so a run takes several and reports their
/// median; the smoke sizes are about a twentieth, for `--smoke`.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    iris_history_slots: Slot,
    iris_test_slots: Slot,
    iris_window: (Slot, Slot),
    churn: ChurnProfile,
    large_nodes: usize,
    large_slots: Slot,
    plan_history_slots: Slot,
    slotoff_slots: Slot,
}

impl Sizes {
    fn of(smoke: bool) -> Self {
        if smoke {
            Self {
                iris_history_slots: 300,
                iris_test_slots: 60,
                iris_window: (10, 50),
                churn: ChurnProfile::CapacityDrain {
                    period: 20,
                    len: 5,
                    factor: 0.5,
                },
                large_nodes: 250,
                large_slots: 12,
                plan_history_slots: 60,
                slotoff_slots: 8,
            }
        } else {
            Self {
                iris_history_slots: 2700,
                iris_test_slots: 800,
                iris_window: (100, 700),
                churn: ChurnProfile::CapacityDrain {
                    period: 50,
                    len: 10,
                    factor: 0.5,
                },
                large_nodes: 1000,
                large_slots: 30,
                plan_history_slots: 1000,
                slotoff_slots: 100,
            }
        }
    }
}

/// Checkpoint cadence of `online_hostile`, in slots.
const CHECKPOINT_EVERY: Slot = 10;
/// Seed of everything that defines a workload rather than samples it:
/// the `online_large` / `shard_k4` topology and its partition, and the
/// arrival skeleton of every trace (see [`reseeded`]).
const WORLD_SEED: u64 = 7;
/// Shards of `shard_k4`.
const SHARDS: usize = 4;
/// Arrivals (and classes) sampled for the per-call layer timings.
const MICRO_SAMPLES: usize = 1000;

// ---------------------------------------------------------------------
// What a replay reports
// ---------------------------------------------------------------------

/// The deterministic outcome of one replay — equal on every repetition
/// of a seed, traced or not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// `Summary::fingerprint()` (a digest of the plan statistics for
    /// `plan_build`).
    pub fingerprint: u64,
    /// 1 − rejection rate of the measurement window (1 − the plan's
    /// demand-weighted rejected fraction for `plan_build`).
    pub acceptance_rate: f64,
    /// Total cost (resources + rejection penalties) per arrival of the
    /// window (plan objective per unit of expected demand for
    /// `plan_build`).
    pub cost_per_decision: f64,
}

/// The engine counters of a replay, without the wall-clock field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamCounts {
    /// Slots simulated.
    pub slots_run: Slot,
    /// Arrivals processed.
    pub arrivals: usize,
    /// High-water mark of simultaneously active requests.
    pub peak_active: usize,
    /// Whether an observer stopped the run early.
    pub stopped_early: bool,
}

impl From<StreamStats> for StreamCounts {
    fn from(s: StreamStats) -> Self {
        Self {
            slots_run: s.slots_run,
            arrivals: s.arrivals,
            peak_active: s.peak_active,
            stopped_early: s.stopped_early,
        }
    }
}

/// Everything one replay of a workload produced.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Operations offered: arrivals (plan classes for `plan_build`).
    pub ops: usize,
    /// Operations that failed: no decision, or an invariant violation.
    /// A rejection is a decision, not a failure.
    pub failed: usize,
    /// Wall seconds of each slot of the timed region, in slot order
    /// (the fold and the solve for `plan_build`; one entry, the whole
    /// run, for the verification replay, which is not stepped).
    pub slot_s: Vec<f64>,
    /// The deterministic outcome.
    pub quality: Quality,
    /// Engine counters.
    pub counts: StreamCounts,
    /// Counters read off the program after the run (not timings).
    pub layers: Layers,
    /// Serialized form of the last checkpoint taken, if any.
    pub checkpoint: Option<Vec<u8>>,
    /// Human-readable reasons behind `failed`.
    pub problems: Vec<String>,
}

impl Replay {
    /// Wall seconds of the timed region.
    pub fn wall_s(&self) -> f64 {
        self.slot_s.iter().sum()
    }
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// A workload after set-up: world, plan and materialised events.
pub enum Prepared {
    /// An online replay (engine or coordinator).
    Online(Box<Online>),
    /// The offline plan build.
    Plan(Box<PlanBuild>),
}

/// Which algorithm an online workload replays, with its fixed inputs.
enum AlgorithmKind {
    Olive(Plan, OliveConfig),
    Quickg,
    SlotOff(PlanVneConfig),
}

/// An online workload ready to replay.
pub struct Online {
    substrate: SubstrateNetwork,
    apps: AppSet,
    policy: PlacementPolicy,
    events: Vec<SlotEvents>,
    offered: usize,
    window: (Slot, Slot),
    penalty: RejectionPenalty,
    algorithm: AlgorithmKind,
    checkpoint_every: Option<Slot>,
    sharded: Option<ShardedSubstrate>,
    setup_layers: Layers,
}

/// The offline workload ready to replay.
pub struct PlanBuild {
    world: PaperWorld,
    history: Vec<SlotEvents>,
    setup_layers: Layers,
}

fn secs_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

fn count_arrivals(events: &[SlotEvents]) -> usize {
    events.iter().map(|e| e.arrivals.len()).sum()
}

/// The trace a seed stands for: the arrival skeleton of `skeleton` —
/// how many requests reach which node in which slot, generated from
/// [`WORLD_SEED`] — with each request's application, demand and
/// duration taken in order from `donor`, the same generator run from
/// `--seed` (the generator draws these three per request, independent
/// of node and slot).
///
/// The skeleton is part of a workload's definition, like its topology:
/// a few hundred slots of bursty arrivals on Zipf-ranked nodes are one
/// sample of a heavy-tailed process, and redrawing them moves the
/// rejection rate by ±5 % and the cost by ±18 % between seeds — wider
/// than any bound worth setting. Redrawing the request attributes
/// still gives every seed different inputs and different decisions.
fn reseeded(
    skeleton: impl Iterator<Item = SlotEvents>,
    donor: impl Iterator<Item = SlotEvents>,
) -> impl Iterator<Item = SlotEvents> {
    let mut attributes = donor
        .flat_map(|e| e.arrivals)
        .map(|r| (r.app, r.demand, r.duration));
    skeleton.map(move |mut event| {
        for request in &mut event.arrivals {
            // A donor that runs dry (its own skeleton was shorter)
            // leaves the tail as generated.
            if let Some((app, demand, duration)) = attributes.next() {
                (request.app, request.demand, request.duration) = (app, demand, duration);
            }
        }
        event
    })
}

/// The paper-scale scenario (`ScenarioConfig::paper(1.0)`: Table III
/// trace at 100 % edge utilization, exact estimator, α = 80 with 100
/// bootstrap replicates, P = 10 quantiles, conservative ψ) assembled
/// from the public pieces `Scenario` itself is made of. `Scenario`
/// derives the hot-node ranking from its seed, which moves rejection
/// rate and cost by tens of percent between seeds; here the world —
/// topology, application mix, hot-node ranking — is the workload's
/// definition and only the random draws follow `--seed`.
struct PaperWorld {
    substrate: SubstrateNetwork,
    apps: AppSet,
    policy: PlacementPolicy,
    penalty: RejectionPenalty,
    seed: u64,
    history_slots: Slot,
}

impl PaperWorld {
    fn new(substrate: SubstrateNetwork, seed: u64, history_slots: Slot) -> Self {
        let apps = default_apps(1);
        Self {
            penalty: RejectionPenalty::conservative(&apps, &substrate),
            policy: PlacementPolicy::default(),
            substrate,
            apps,
            seed,
            history_slots,
        }
    }

    /// One phase of the trace, lazily. `stream` numbers the derived RNG
    /// the way `Scenario` does: 1 history, 2 online, 3 bootstrap.
    fn events(&self, slots: Slot, stream: u64) -> impl Iterator<Item = SlotEvents> {
        let mut trace = TraceConfig::default().at_utilization(1.0, &self.substrate, &self.apps);
        trace.slots = slots;
        let generate = |seed: u64| {
            let rng = SeededRng::new(seed).derive(stream);
            tracegen::stream(&self.substrate, &self.apps, &trace, rng)
        };
        reseeded(generate(WORLD_SEED), generate(self.seed))
    }

    fn plan_config(&self) -> PlanVneConfig {
        PlanVneConfig::new(self.penalty.max_psi())
    }

    /// History stream → `Plan`, the two halves timed apart.
    fn build_plan(
        &self,
        history: impl Iterator<Item = SlotEvents>,
    ) -> (AggregateDemand, Plan, PlanSolveStats, f64, f64) {
        let mut estimator = ExactEstimator::new(self.history_slots, AggregationConfig::default());
        let mut rng = SeededRng::new(self.seed).derive(3);
        let (aggregate, fold_s) =
            secs_of(|| AggregateDemand::from_stream(history, &mut estimator, &mut rng));
        let ((plan, stats), solve_s) = secs_of(|| {
            solve_plan(
                &self.substrate,
                &self.apps,
                &self.policy,
                &aggregate,
                &self.plan_config(),
            )
        });
        (aggregate, plan, stats, fold_s, solve_s)
    }
}

/// Builds the named workload's inputs from `seed`. This is the whole of
/// `setup_s`: world, plan and event materialisation, so the generator
/// is never inside a timed region.
///
/// # Errors
///
/// Returns a message for an unknown workload name or a world that
/// fails to build.
pub fn prepare(workload: &str, seed: u64, smoke: bool) -> Result<Prepared, String> {
    let sizes = Sizes::of(smoke);
    match workload {
        "online_iris" | "online_hostile" | "online_slotoff" => {
            prepare_iris(workload, seed, &sizes).map(|o| Prepared::Online(Box::new(o)))
        }
        "online_large" | "shard_k4" => {
            prepare_large(workload, seed, &sizes).map(|o| Prepared::Online(Box::new(o)))
        }
        "plan_build" => prepare_plan(seed, &sizes).map(|p| Prepared::Plan(Box::new(p))),
        _ => {
            let known = WORKLOADS.map(|w| w.name).join(", ");
            Err(format!("unknown workload {workload:?}; known: {known}"))
        }
    }
}

fn prepare_iris(workload: &str, seed: u64, sizes: &Sizes) -> Result<Online, String> {
    let substrate = vne_topology::zoo::iris().map_err(|e| e.to_string())?;
    let world = PaperWorld::new(substrate, seed, sizes.iris_history_slots);
    let (slots, window) = if workload == "online_slotoff" {
        let slots = sizes.slotoff_slots;
        (slots, (slots / 10, slots * 9 / 10))
    } else {
        (sizes.iris_test_slots, sizes.iris_window)
    };

    let mut setup_layers = Layers::new();
    let algorithm = if workload == "online_slotoff" {
        AlgorithmKind::SlotOff(world.plan_config())
    } else {
        // The history is folded as it is generated, the way
        // `Scenario::build_plan` does: the fold time includes the
        // generator here, and set-up never holds the history.
        let mut requests = 0;
        let history = world
            .events(world.history_slots, 1)
            .inspect(|e| requests += e.arrivals.len());
        let (_, plan, stats, fold_s, solve_s) = world.build_plan(history);
        setup_layers.extend([
            ("workload.estimator.fold_s", fold_s),
            ("workload.estimator.requests", requests as f64),
            ("core.colgen.solve_s", solve_s),
        ]);
        setup_layers.extend(plan_layers(&plan, &stats));
        AlgorithmKind::Olive(plan, OliveConfig::default())
    };
    let (events, events_s) = secs_of(|| {
        let online = world.events(slots, 2);
        if workload == "online_hostile" {
            let schedule = ChurnSchedule::new(sizes.churn, &world.substrate);
            with_churn(online, schedule).collect()
        } else {
            online.collect::<Vec<_>>()
        }
    });
    let offered = count_arrivals(&events);
    setup_layers.extend([
        ("workload.tracegen.events_s", events_s),
        ("workload.tracegen.arrivals", offered as f64),
    ]);
    Ok(Online {
        window,
        checkpoint_every: (workload == "online_hostile").then_some(CHECKPOINT_EVERY),
        substrate: world.substrate,
        apps: world.apps,
        policy: world.policy,
        penalty: world.penalty,
        events,
        offered,
        algorithm,
        sharded: None,
        setup_layers,
    })
}

fn prepare_large(workload: &str, seed: u64, sizes: &Sizes) -> Result<Online, String> {
    let sharded_run = workload == "shard_k4";
    let substrate = large_synthetic(sizes.large_nodes, WORLD_SEED).map_err(|e| e.to_string())?;
    // The two chain applications of `bench_shard`.
    let mut apps = AppSet::new();
    for (name, len) in [("chain2", 2), ("chain3", 3)] {
        let chain = shapes::uniform_chain(len, 10.0, 1.0).map_err(|e| e.to_string())?;
        apps.push(name, AppShape::Chain, chain)
            .map_err(|e| e.to_string())?;
    }
    let trace = TraceConfig {
        slots: sizes.large_slots,
        mean_rate_per_node: 0.5,
        duration_mean: 5.0,
        arrivals: ArrivalKind::Poisson,
        ..TraceConfig::default()
    }
    .at_utilization(1.0, &substrate, &apps);
    let (events, events_s) = secs_of(|| {
        let generate = |seed| tracegen::stream(&substrate, &apps, &trace, SeededRng::new(seed));
        reseeded(generate(WORLD_SEED), generate(seed)).collect::<Vec<_>>()
    });
    let offered = count_arrivals(&events);
    let mut setup_layers: Layers = vec![
        ("workload.tracegen.events_s", events_s),
        ("workload.tracegen.arrivals", offered as f64),
    ];
    let sharded = if sharded_run {
        let (assignment, partition_s) =
            secs_of(|| GreedyEdgeCut { seed: WORLD_SEED }.partition(&substrate, SHARDS));
        let assignment = assignment.map_err(|e| e.to_string())?;
        let (view, view_s) = secs_of(|| ShardedSubstrate::new(&substrate, &assignment));
        let view = view.map_err(|e| e.to_string())?;
        setup_layers.extend([
            ("topology.partition_s", partition_s),
            ("model.shard.view_s", view_s),
            ("shard.cut_links", view.cut_count() as f64),
        ]);
        Some(view)
    } else {
        None
    };
    let slots = sizes.large_slots;
    Ok(Online {
        penalty: RejectionPenalty::conservative(&apps, &substrate),
        window: (slots / 10, slots - slots / 10),
        checkpoint_every: None,
        substrate,
        apps,
        policy: PlacementPolicy::default(),
        events,
        offered,
        algorithm: AlgorithmKind::Quickg,
        sharded,
        setup_layers,
    })
}

fn prepare_plan(seed: u64, sizes: &Sizes) -> Result<PlanBuild, String> {
    let substrate = vne_topology::gen5g::five_gen().map_err(|e| e.to_string())?;
    let world = PaperWorld::new(substrate, seed, sizes.plan_history_slots);
    let (history, events_s) = secs_of(|| world.events(world.history_slots, 1).collect::<Vec<_>>());
    let setup_layers = vec![
        ("workload.tracegen.events_s", events_s),
        (
            "workload.tracegen.arrivals",
            count_arrivals(&history) as f64,
        ),
    ];
    Ok(PlanBuild {
        world,
        history,
        setup_layers,
    })
}

fn plan_layers(plan: &Plan, stats: &PlanSolveStats) -> Layers {
    vec![
        ("core.colgen.rounds", stats.rounds as f64),
        ("core.colgen.columns", stats.columns as f64),
        (
            "core.colgen.simplex_iterations",
            stats.simplex_iterations as f64,
        ),
        ("core.plan.columns", plan.total_columns() as f64),
        ("core.plan.classes", plan.len() as f64),
    ]
}

impl Prepared {
    /// Layer values measured during set-up (trace generation, plan
    /// build, partitioning).
    pub fn setup_layers(&self) -> &Layers {
        match self {
            Prepared::Online(o) => &o.setup_layers,
            Prepared::Plan(p) => &p.setup_layers,
        }
    }

    /// Replays the workload once, stepped slot by slot from here
    /// (`EngineState::step` plus the commit hook, or
    /// `ShardCoordinator::step`) so every slot is timed on its own.
    /// With a tracer the algorithm and the observer are decorated too
    /// and a span is recorded at every layer boundary.
    pub fn replay(&self, tracer: Option<&Tracer>) -> Replay {
        match self {
            Prepared::Online(o) => o.replay(Drive::Stepped(tracer)),
            Prepared::Plan(p) => p.replay(tracer),
        }
    }

    /// The untimed first replay of a run, through the public loops
    /// (`run_stream_with`, `ShardCoordinator::run`): it warms the
    /// allocator and the caches, pins the fingerprint the stepped
    /// replays must reproduce, and checks what they cannot check
    /// without touching the measured path — every arrival decided
    /// exactly once, the last checkpoint surviving a round trip, the
    /// one-shard coordinator reproducing the plain engine.
    pub fn verify(&self) -> Replay {
        match self {
            Prepared::Online(o) => o.verify(),
            Prepared::Plan(p) => p.replay(None),
        }
    }

    /// Layer times sampled outside the replay: the greedy search and
    /// its Dijkstra on sampled arrivals, the pricing DP per class, the
    /// master-like LP, checkpoint encode/decode throughput.
    pub fn micro(&self, checkpoint: Option<&[u8]>) -> (Layers, MicroSamples) {
        let (substrate, apps, policy, events) = match self {
            Prepared::Online(o) => (&o.substrate, &o.apps, &o.policy, &o.events),
            Prepared::Plan(p) => (
                &p.world.substrate,
                &p.world.apps,
                &p.world.policy,
                &p.history,
            ),
        };
        let mut micro = MicroSamples::default();
        let ledger = LoadLedger::new(substrate);
        // Up to `MICRO_SAMPLES` arrivals spread evenly over the trace.
        let stride = count_arrivals(events).div_ceil(MICRO_SAMPLES).max(1);
        for r in events.iter().flat_map(|e| &e.arrivals).step_by(stride) {
            let started = Instant::now();
            black_box(collocated_embed(
                substrate,
                apps.vnet(r.app),
                policy,
                r.ingress,
                &ledger,
                r.demand,
            ));
            micro.embed_us.push(started.elapsed().as_secs_f64() * 1e6);
            let started = Instant::now();
            black_box(substrate.shortest_paths(r.ingress, |l| Some(substrate.link(l).cost)));
            micro
                .dijkstra_us
                .push(started.elapsed().as_secs_f64() * 1e6);
        }
        // One pricing call per class (ingress × application), strided
        // down to the sample budget on the large world.
        let costs = ElementCosts::from_substrate(substrate);
        let classes: Vec<_> = substrate
            .edge_nodes()
            .into_iter()
            .flat_map(|v| apps.ids().map(move |a| (v, a)))
            .collect();
        let stride = classes.len().div_ceil(MICRO_SAMPLES).max(1);
        for &(ingress, app) in classes.iter().step_by(stride) {
            let started = Instant::now();
            black_box(min_cost_embedding(
                substrate,
                apps.vnet(app),
                policy,
                ingress,
                &costs,
                None,
            ));
            micro.pricing_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        let lp = master_like(240, 1500);
        let lp_ms: Vec<f64> = (0..3)
            .map(|_| {
                let (solution, secs) = secs_of(|| Simplex::from_problem(&lp).solve());
                assert!(solution.status.is_optimal(), "master-like LP must solve");
                secs * 1e3
            })
            .collect();
        let mut layers: Layers = vec![("lp.simplex.master_like_ms", median(&lp_ms))];
        if let Some(bytes) = checkpoint {
            layers.extend(codec_throughput(bytes));
        }
        (layers, micro)
    }
}

/// Per-call timing samples of [`Prepared::micro`], microseconds.
#[derive(Debug, Clone, Default)]
pub struct MicroSamples {
    /// `collocated_embed` per sampled arrival.
    pub embed_us: Vec<f64>,
    /// `SubstrateNetwork::shortest_paths` per sampled arrival.
    pub dijkstra_us: Vec<f64>,
    /// `min_cost_embedding` per class.
    pub pricing_us: Vec<f64>,
}

/// Encode and decode throughput of the checkpoint codec on `bytes`.
fn codec_throughput(bytes: &[u8]) -> Layers {
    const ROUNDS: usize = 20;
    let Ok(checkpoint) = EngineCheckpoint::from_bytes(bytes) else {
        return Layers::new();
    };
    let mb = bytes.len() as f64 * ROUNDS as f64 / 1e6;
    let ((), encode_s) = secs_of(|| {
        for _ in 0..ROUNDS {
            black_box(checkpoint.to_bytes());
        }
    });
    let ((), decode_s) = secs_of(|| {
        for _ in 0..ROUNDS {
            black_box(EngineCheckpoint::from_bytes(bytes).is_ok());
        }
    });
    vec![
        ("model.state.encode_mb_per_s", mb / encode_s),
        ("model.state.decode_mb_per_s", mb / decode_s),
    ]
}

/// The master-like LP of `crates/bench/benches/lp_solver.rs`: `rows`
/// capacity rows, `cols` columns with ~4 nonzeros each, one convexity
/// row per 10 columns and a bounded rejection variable per convexity.
fn master_like(rows: usize, cols: usize) -> Problem {
    let mut p = Problem::new();
    let caps: Vec<_> = (0..rows)
        .map(|i| p.add_row(format!("cap{i}"), Relation::Le, 1000.0))
        .collect();
    let convs: Vec<_> = (0..cols / 10 + 1)
        .map(|i| p.add_row(format!("conv{i}"), Relation::Eq, 1.0))
        .collect();
    let mut state = 0x243f_6a88_85a3_08d3_u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for j in 0..cols {
        let v = p.add_var(format!("x{j}"), 1.0 + rng() * 10.0, 0.0, f64::INFINITY);
        for k in 0..4 {
            let row = caps[(j * 7 + k * 13) % rows];
            p.set_coeff(row, v, 10.0 + rng() * 100.0);
        }
        p.set_coeff(convs[j / 10], v, 1.0);
    }
    for (i, &c) in convs.iter().enumerate() {
        let v = p.add_var(format!("rej{i}"), 1e5, 0.0, 1.0);
        p.set_coeff(c, v, 1.0);
    }
    p
}

// ---------------------------------------------------------------------
// Online replay
// ---------------------------------------------------------------------

/// How a replay is driven.
#[derive(Clone, Copy)]
enum Drive<'a> {
    /// The public whole-run loop, timed as one interval.
    Public,
    /// Slot by slot from the benchmark, each slot timed; traced when a
    /// tracer is given.
    Stepped(Option<&'a Tracer>),
}

impl<'a> Drive<'a> {
    fn tracer(self) -> Option<&'a Tracer> {
        match self {
            Drive::Stepped(tracer) => tracer,
            Drive::Public => None,
        }
    }
}

/// What the checkpoint sink saw.
#[derive(Debug, Default)]
struct CheckpointTally {
    taken: usize,
    bytes: usize,
    last: Vec<u8>,
}

/// An observer the replay can read its summary back from.
trait Summarize: SimObserver {
    fn summary(&self, stats: &StreamStats) -> Summary;
    /// The error of a failed checkpoint capture, if any.
    fn capture_error(&self) -> Option<String> {
        None
    }
}

impl Summarize for WindowSummary {
    fn summary(&self, stats: &StreamStats) -> Summary {
        self.finish(stats)
    }
}

impl Summarize for Checkpointer<WindowSummary> {
    fn summary(&self, stats: &StreamStats) -> Summary {
        self.inner().finish(stats)
    }
    fn capture_error(&self) -> Option<String> {
        self.last_error().map(ToString::to_string)
    }
}

impl Online {
    fn build_algorithm(&self, local: &SubstrateNetwork) -> Box<dyn OnlineAlgorithm> {
        let (s, apps, policy) = (local.clone(), self.apps.clone(), self.policy.clone());
        match &self.algorithm {
            AlgorithmKind::Olive(plan, config) => {
                Box::new(Olive::new(s, apps, policy, plan.clone(), *config))
            }
            AlgorithmKind::Quickg => Box::new(Olive::quickg(s, apps, policy)),
            AlgorithmKind::SlotOff(config) => {
                Box::new(SlotOff::new(s, apps, policy, config.clone()))
            }
        }
    }

    fn window_summary(&self) -> WindowSummary {
        WindowSummary::new(self.window, self.penalty.clone())
    }

    fn checkpointer(
        &self,
        every: Slot,
        tally: &Arc<Mutex<CheckpointTally>>,
    ) -> Checkpointer<WindowSummary> {
        let tally = Arc::clone(tally);
        Checkpointer::every(every, self.window_summary()).with_sink(move |checkpoint| {
            let bytes = checkpoint.to_bytes();
            let mut tally = tally.lock().expect("checkpoint sink never panics");
            tally.taken += 1;
            tally.bytes += bytes.len();
            tally.last = bytes;
        })
    }

    fn replay(&self, drive: Drive<'_>) -> Replay {
        let tally = Arc::default();
        match (self.checkpoint_every, drive.tracer()) {
            (None, None) => self.replay_with(&mut self.window_summary(), drive, &tally),
            (None, Some(t)) => self.replay_with(
                &mut TimedObserver::new(self.window_summary(), t.clone()),
                drive,
                &tally,
            ),
            (Some(every), None) => {
                self.replay_with(&mut self.checkpointer(every, &tally), drive, &tally)
            }
            (Some(every), Some(t)) => self.replay_with(
                &mut TimedObserver::new(self.checkpointer(every, &tally), t.clone()),
                drive,
                &tally,
            ),
        }
    }

    /// One replay through `observer`: build the algorithm (or the
    /// coordinator) untimed, clone the events untimed, time the drive,
    /// then audit and read the counters.
    fn replay_with<O: Summarize>(
        &self,
        observer: &mut O,
        drive: Drive<'_>,
        tally: &Arc<Mutex<CheckpointTally>>,
    ) -> Replay {
        let events = self.events.clone();
        let mut layers = Layers::new();
        let mut problems = Vec::new();
        let tracer = drive.tracer();
        let (stats, slot_s) = match &self.sharded {
            None => {
                let mut algorithm = self.build_algorithm(&self.substrate);
                if let Some(t) = tracer {
                    algorithm = Box::new(Timed::new(algorithm, "core.decide", 0, t.clone()));
                }
                let driven = self.drive(algorithm.as_mut(), events, observer, drive);
                for violation in audit_ledger(algorithm.loads()) {
                    problems.push(format!("ledger audit: {violation:?}"));
                }
                let any = algorithm.as_any();
                if let Some(olive) = any.and_then(|a| a.downcast_ref::<Olive>()) {
                    layers.extend(olive_layers(olive));
                }
                if let Some(slotoff) = any.and_then(|a| a.downcast_ref::<SlotOff>()) {
                    layers.push(("core.colgen.rounds", slotoff.total_rounds as f64));
                }
                driven
            }
            Some(sharded) => {
                let mut roles = ShardRoles::default();
                let mut coordinator = ShardCoordinator::new(sharded.clone(), |shard, local| {
                    let algorithm = self.build_algorithm(local);
                    match tracer {
                        None => algorithm,
                        Some(t) => {
                            let span = roles.next(shard.0);
                            Box::new(Timed::new(algorithm, span, shard.0, t.clone()))
                        }
                    }
                });
                let driven = drive_sharded(&mut coordinator, events, observer, drive);
                for violation in coordinator.audit() {
                    problems.push(format!("coordinator audit: {violation:?}"));
                }
                let span = coordinator.spanning_stats();
                layers.extend([
                    ("shard.span.candidates", span.candidates as f64),
                    ("shard.span.granted", span.granted as f64),
                    ("shard.span.denied", span.denied as f64),
                    (
                        "shard.pool.workers",
                        std::thread::available_parallelism()
                            .map_or(1, |n| n.get())
                            .min(sharded.shard_count()) as f64,
                    ),
                ]);
                driven
            }
        };
        if let Some(error) = observer.capture_error() {
            problems.push(format!("checkpoint capture: {error}"));
        }
        let summary = observer.summary(&stats);
        let undecided = self.offered.abs_diff(stats.arrivals);
        if undecided > 0 {
            problems.push(format!(
                "{} arrivals offered, {} processed",
                self.offered, stats.arrivals
            ));
        }
        let tally = std::mem::take(&mut *tally.lock().expect("checkpoint sink never panics"));
        layers.extend([
            ("sim.summary.rejection_rate", summary.rejection_rate),
            ("sim.churn.events", summary.churn.events as f64),
            ("sim.churn.stranded", summary.churn.stranded as f64),
            ("sim.churn.evicted", summary.churn.evicted as f64),
            ("sim.churn.reembedded", summary.churn.reembedded as f64),
            ("sim.observe.checkpoints", tally.taken as f64),
            ("sim.observe.checkpoint_bytes", tally.bytes as f64),
        ]);
        Replay {
            ops: self.offered,
            failed: (undecided + problems.len()).min(self.offered),
            slot_s,
            quality: Quality {
                fingerprint: summary.fingerprint(),
                acceptance_rate: 1.0 - summary.rejection_rate,
                cost_per_decision: summary.total_cost / summary.arrivals.max(1) as f64,
            },
            counts: stats.into(),
            layers,
            checkpoint: (tally.taken > 0).then_some(tally.last),
            problems,
        }
    }

    /// The monolithic engine: the public `run_stream_with` loop timed
    /// as a whole, or the same loop stepped from here — `step`, then
    /// the commit hook — with each slot timed on its own. The stepped
    /// loop leaves `StreamStats::online_secs` unstamped (the one thing
    /// the public loop does besides): the field rides in every
    /// checkpoint, and unstamped the checkpoint bytes are a function of
    /// the seed, which is what lets the transparency test compare them.
    fn drive<O: SimObserver>(
        &self,
        algorithm: &mut dyn OnlineAlgorithm,
        events: Vec<SlotEvents>,
        observer: &mut O,
        drive: Drive<'_>,
    ) -> (StreamStats, Vec<f64>) {
        let mut policy = ReembedKind::default().policy();
        if let Drive::Public = drive {
            let (stats, wall_s) = secs_of(|| {
                run_stream_with(
                    algorithm,
                    &self.substrate,
                    events,
                    observer,
                    policy.as_mut(),
                )
            });
            return (stats, vec![wall_s]);
        }
        let tracer = drive.tracer();
        let mut state = EngineState::fresh();
        let mut slot_s = Vec::with_capacity(events.len());
        for event in events {
            let started = Instant::now();
            let span = tracer.map(|t| (t, t.enter("sim.engine.step", event.slot)));
            let (_, control) =
                state.step(algorithm, &self.substrate, event, observer, policy.as_mut());
            if let Some((t, span)) = span {
                t.exit(span);
            }
            observer.on_slot_committed(&state.view(&*algorithm));
            slot_s.push(started.elapsed().as_secs_f64());
            if control == SimControl::Stop {
                break;
            }
        }
        (state.stats(), slot_s)
    }

    fn verify(&self) -> Replay {
        let tally = Arc::default();
        let mut counting = Counting::new(self.offered);
        let mut replay = match self.checkpoint_every {
            None => {
                let mut observer = Tee(self.window_summary(), &mut counting);
                self.replay_with(&mut observer, Drive::Public, &tally)
            }
            Some(every) => {
                let mut observer = Tee(self.checkpointer(every, &tally), &mut counting);
                self.replay_with(&mut observer, Drive::Public, &tally)
            }
        };
        let mut problems = counting.problems();
        if let Some(bytes) = &replay.checkpoint {
            problems.extend(checkpoint_round_trip(bytes));
        }
        if self.sharded.is_some() {
            problems.extend(self.single_shard_parity());
        }
        replay.failed = (replay.failed + counting.failed() + problems.len()).min(replay.ops);
        replay.problems.extend(problems);
        replay
    }

    /// The one-shard coordinator over the first quarter of the events
    /// must reproduce the plain engine's fingerprint.
    fn single_shard_parity(&self) -> Option<String> {
        let head = &self.events[..self.events.len() / 4];
        let mut algorithm = self.build_algorithm(&self.substrate);
        let mut window = self.window_summary();
        let (stats, _) = self.drive(
            algorithm.as_mut(),
            head.to_vec(),
            &mut window,
            Drive::Public,
        );
        let plain = window.finish(&stats).fingerprint();

        let whole = PartitionAssignment::single(self.substrate.node_count())
            .and_then(|a| ShardedSubstrate::new(&self.substrate, &a));
        let whole = match whole {
            Ok(view) => view,
            Err(e) => return Some(format!("one-shard view: {e}")),
        };
        let mut coordinator = ShardCoordinator::new(whole, |_, local| self.build_algorithm(local));
        let mut window = self.window_summary();
        let stats = coordinator.run(head.to_vec(), &mut window);
        let sharded = window.finish(&stats).fingerprint();
        (plain != sharded).then(|| {
            format!("one-shard coordinator fingerprint {sharded:#018x} != engine {plain:#018x}")
        })
    }
}

fn drive_sharded<O: SimObserver>(
    coordinator: &mut ShardCoordinator,
    events: Vec<SlotEvents>,
    observer: &mut O,
    drive: Drive<'_>,
) -> (StreamStats, Vec<f64>) {
    if let Drive::Public = drive {
        let (stats, wall_s) = secs_of(|| coordinator.run(events, observer));
        return (stats, vec![wall_s]);
    }
    let tracer = drive.tracer();
    let mut slot_s = Vec::with_capacity(events.len());
    for event in events {
        let started = Instant::now();
        let span = tracer.map(|t| (t, t.enter("shard.coordinator.step", event.slot)));
        let control = coordinator.step(event, observer);
        if let Some((t, span)) = span {
            t.exit(span);
        }
        slot_s.push(started.elapsed().as_secs_f64());
        if control == SimControl::Stop {
            break;
        }
    }
    (coordinator.stats(), slot_s)
}

fn olive_layers(olive: &Olive) -> Layers {
    let s = olive.stats();
    let served = (s.planned + s.borrowed + s.greedy).max(1) as f64;
    vec![
        ("core.olive.planned_share", s.planned as f64 / served),
        ("core.olive.borrowed_share", s.borrowed as f64 / served),
        ("core.olive.greedy_share", s.greedy as f64 / served),
        ("core.olive.preempted", s.preempted as f64),
    ]
}

fn checkpoint_round_trip(bytes: &[u8]) -> Option<String> {
    match EngineCheckpoint::from_bytes(bytes) {
        Err(e) => Some(format!("last checkpoint does not decode: {e}")),
        Ok(checkpoint) if checkpoint.to_bytes() != bytes => {
            Some("last checkpoint changed in a to_bytes/from_bytes round trip".to_string())
        }
        Ok(_) => None,
    }
}

/// `ShardCoordinator::new` asks its factory for each shard's primary
/// instance first and, for snapshot-capable algorithms, its reserve-
/// trial scratch second (documented there): the first request for a
/// shard is the commit path, the second the trial path.
#[derive(Default)]
struct ShardRoles {
    seen: BTreeSet<u32>,
}

impl ShardRoles {
    fn next(&mut self, shard: u32) -> &'static str {
        if self.seen.insert(shard) {
            "shard.decide.commit"
        } else {
            "shard.decide.trial"
        }
    }
}

// ---------------------------------------------------------------------
// Offline replay
// ---------------------------------------------------------------------

impl PlanBuild {
    fn replay(&self, tracer: Option<&Tracer>) -> Replay {
        let history = self.history.clone();
        let root = tracer.map(|t| t.enter("core.plan.build", 0));
        let started = Instant::now();
        let (aggregate, plan, stats, fold_s, solve_s) = self.world.build_plan(history.into_iter());
        if let (Some(t), Some(root)) = (tracer, root) {
            let split = started + std::time::Duration::from_secs_f64(fold_s);
            t.leaf("workload.estimator.fold", 0, started, split);
            t.leaf(
                "core.colgen.solve",
                0,
                split,
                split + std::time::Duration::from_secs_f64(solve_s),
            );
            t.exit(root);
        }

        let mut problems = Vec::new();
        let unplanned = aggregate
            .requests()
            .iter()
            .filter(|r| plan.class(r.class).is_none())
            .count();
        if unplanned > 0 {
            problems.push(format!("{unplanned} demand classes got no class plan"));
        }
        let rejected = plan.planned_rejection_fraction();
        if !(0.0..=1.0).contains(&rejected) {
            problems.push(format!(
                "planned rejection fraction {rejected} outside [0, 1]"
            ));
        }
        let mut layers = vec![
            ("workload.estimator.fold_s", fold_s),
            (
                "workload.estimator.requests",
                count_arrivals(&self.history) as f64,
            ),
            ("core.colgen.solve_s", solve_s),
            ("sim.summary.rejection_rate", rejected),
        ];
        layers.extend(plan_layers(&plan, &stats));
        let mut fingerprint = 0xcbf2_9ce4_8422_2325_u64;
        for word in [
            stats.objective.to_bits(),
            rejected.to_bits(),
            stats.rounds as u64,
            stats.columns as u64,
            stats.simplex_iterations as u64,
            plan.total_columns() as u64,
        ] {
            fingerprint = (fingerprint ^ word).wrapping_mul(0x100_0000_01b3);
        }
        let ops = aggregate.len();
        Replay {
            ops,
            failed: (unplanned + problems.len()).min(ops),
            slot_s: vec![fold_s, solve_s],
            quality: Quality {
                fingerprint,
                acceptance_rate: 1.0 - rejected,
                cost_per_decision: stats.objective
                    / aggregate.total_demand().max(f64::MIN_POSITIVE),
            },
            counts: StreamCounts::default(),
            layers,
            checkpoint: None,
            problems,
        }
    }
}

// ---------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------

/// Times an algorithm's `process_slot` and `apply_churn` from outside
/// and forwards everything else untouched.
pub struct Timed {
    inner: Box<dyn OnlineAlgorithm>,
    span: &'static str,
    lane: u32,
    tracer: Tracer,
}

impl Timed {
    /// Wraps `inner`; its decide calls are recorded as `span` on `lane`.
    pub fn new(
        inner: Box<dyn OnlineAlgorithm>,
        span: &'static str,
        lane: u32,
        tracer: Tracer,
    ) -> Self {
        Self {
            inner,
            span,
            lane,
            tracer,
        }
    }
}

impl OnlineAlgorithm for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn process_slot(
        &mut self,
        t: Slot,
        departures: &[Request],
        arrivals: &[Request],
    ) -> SlotOutcome {
        let started = Instant::now();
        let outcome = self.inner.process_slot(t, departures, arrivals);
        self.tracer
            .leaf(self.span, self.lane, started, Instant::now());
        outcome
    }

    fn loads(&self) -> &LoadLedger {
        self.inner.loads()
    }

    fn apply_churn(&mut self, effective: &EffectiveCapacities) {
        let started = Instant::now();
        self.inner.apply_churn(effective);
        self.tracer
            .leaf("core.apply_churn", self.lane, started, Instant::now());
    }

    fn footprint_of(&self, id: RequestId) -> Option<&Footprint> {
        self.inner.footprint_of(id)
    }

    fn snapshot_state(&self) -> Option<StateBlob> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        self.inner.restore_state(blob)
    }
}

/// Times an observer's hooks from outside. Per slot it records three
/// spans — `on_slot_start`, the fan-out from the first outcome hook to
/// the end of `on_slot_end`, and `on_slot_committed` (the checkpoint
/// path) — so the clock is read a few times per slot, not per arrival.
pub struct TimedObserver<O> {
    inner: O,
    tracer: Tracer,
    fanout_started: Option<Instant>,
}

impl<O> TimedObserver<O> {
    /// Wraps `inner`.
    pub fn new(inner: O, tracer: Tracer) -> Self {
        Self {
            inner,
            tracer,
            fanout_started: None,
        }
    }

    fn fanout(&mut self) {
        self.fanout_started.get_or_insert_with(Instant::now);
    }
}

impl<O: SimObserver> SimObserver for TimedObserver<O> {
    fn on_slot_start(&mut self, t: Slot) {
        let started = Instant::now();
        self.inner.on_slot_start(t);
        self.tracer
            .leaf("sim.observe.slot_start", 0, started, Instant::now());
    }

    fn on_churn(&mut self, t: Slot, churn: &ChurnStats) {
        self.fanout();
        self.inner.on_churn(t, churn);
    }

    fn on_arrival(&mut self, outcome: &RequestOutcome) {
        self.fanout();
        self.inner.on_arrival(outcome);
    }

    fn on_preemption(&mut self, outcome: &RequestOutcome) {
        self.fanout();
        self.inner.on_preemption(outcome);
    }

    fn on_slot_end(
        &mut self,
        t: Slot,
        metrics: &SlotMetrics,
        algorithm: &dyn OnlineAlgorithm,
    ) -> SimControl {
        self.fanout();
        let control = self.inner.on_slot_end(t, metrics, algorithm);
        if let Some(started) = self.fanout_started.take() {
            self.tracer
                .leaf("sim.observe.fanout", 0, started, Instant::now());
        }
        control
    }

    fn on_slot_committed(&mut self, view: &EngineView<'_>) {
        let started = Instant::now();
        self.inner.on_slot_committed(view);
        self.tracer
            .leaf("sim.observe.checkpoint", 0, started, Instant::now());
    }
}

impl<O: Summarize> Summarize for TimedObserver<O> {
    fn summary(&self, stats: &StreamStats) -> Summary {
        self.inner.summary(stats)
    }
    fn capture_error(&self) -> Option<String> {
        self.inner.capture_error()
    }
}

/// Counts how often each offered request id was decided, for the
/// "exactly one outcome per arrival" check of the verification replay.
struct Counting {
    decided: Vec<u8>,
    accepted: usize,
    rejected: usize,
    foreign: usize,
}

impl Counting {
    fn new(offered: usize) -> Self {
        Self {
            decided: vec![0; offered],
            accepted: 0,
            rejected: 0,
            foreign: 0,
        }
    }

    /// Arrivals without exactly one outcome, plus outcomes for ids that
    /// were never offered.
    fn failed(&self) -> usize {
        self.decided.iter().filter(|&&n| n != 1).count() + self.foreign
    }

    fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.failed() > 0 {
            out.push(format!(
                "{} arrivals without exactly one outcome ({} outcomes for unknown ids)",
                self.failed() - self.foreign,
                self.foreign
            ));
        }
        if self.accepted + self.rejected != self.decided.len() + self.foreign {
            out.push(format!(
                "accepted {} + rejected {} != arrivals {}",
                self.accepted,
                self.rejected,
                self.decided.len()
            ));
        }
        out
    }
}

impl SimObserver for Counting {
    fn on_arrival(&mut self, outcome: &RequestOutcome) {
        match outcome.status {
            RequestStatus::Accepted => self.accepted += 1,
            _ => self.rejected += 1,
        }
        match self.decided.get_mut(outcome.id.0 as usize) {
            Some(n) => *n = n.saturating_add(1),
            None => self.foreign += 1,
        }
    }
}

/// The summarizing observer with the verification counter beside it.
impl<O: Summarize> Summarize for Tee<O, &mut Counting> {
    fn summary(&self, stats: &StreamStats) -> Summary {
        self.0.summary(stats)
    }
    fn capture_error(&self) -> Option<String> {
        self.0.capture_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hostile() -> Online {
        prepare_iris("online_hostile", 5, &Sizes::of(true)).expect("smoke world builds")
    }

    /// Records every hook it receives.
    #[derive(Default, PartialEq, Debug)]
    struct Log(Vec<(&'static str, Slot)>);

    impl SimObserver for Log {
        fn on_slot_start(&mut self, t: Slot) {
            self.0.push(("start", t));
        }
        fn on_churn(&mut self, t: Slot, _: &ChurnStats) {
            self.0.push(("churn", t));
        }
        fn on_arrival(&mut self, outcome: &RequestOutcome) {
            self.0.push(("arrival", outcome.arrival));
        }
        fn on_preemption(&mut self, outcome: &RequestOutcome) {
            self.0.push(("preemption", outcome.arrival));
        }
        fn on_slot_end(&mut self, t: Slot, _: &SlotMetrics, _: &dyn OnlineAlgorithm) -> SimControl {
            self.0.push(("end", t));
            SimControl::Continue
        }
        fn on_slot_committed(&mut self, view: &EngineView<'_>) {
            self.0.push(("committed", view.slot()));
        }
    }

    #[test]
    fn timed_observer_forwards_every_hook_in_order() {
        let world = hostile();
        let run = |observer: &mut dyn FnMut(&mut dyn OnlineAlgorithm, Vec<SlotEvents>)| {
            let mut algorithm = world.build_algorithm(&world.substrate);
            observer(algorithm.as_mut(), world.events.clone());
        };
        let mut plain = Log::default();
        run(&mut |algorithm, events| {
            world.drive(algorithm, events, &mut plain, Drive::Public);
        });
        let mut timed = TimedObserver::new(Log::default(), Tracer::new());
        run(&mut |algorithm, events| {
            world.drive(algorithm, events, &mut timed, Drive::Stepped(None));
        });
        assert_eq!(plain, timed.inner);
        for hook in [
            "start",
            "churn",
            "arrival",
            "preemption",
            "end",
            "committed",
        ] {
            assert!(
                plain.0.iter().any(|(h, _)| *h == hook),
                "the run never calls {hook}"
            );
        }
    }

    #[test]
    fn timed_algorithm_forwards_every_method() {
        let world = hostile();
        let mut plain = world.build_algorithm(&world.substrate);
        let tracer = Tracer::new();
        let mut timed = Timed::new(
            world.build_algorithm(&world.substrate),
            "core.decide",
            0,
            tracer.clone(),
        );
        assert_eq!(plain.name(), timed.name());

        let first = &world.events[0].arrivals;
        let a = plain.process_slot(0, &[], first);
        let b = timed.process_slot(0, &[], first);
        assert_eq!(a, b);
        let accepted = *a
            .accepted
            .first()
            .expect("an empty substrate accepts something");
        assert!(plain.footprint_of(accepted).is_some());
        assert_eq!(plain.footprint_of(accepted), timed.footprint_of(accepted));
        assert_eq!(plain.snapshot_state(), timed.snapshot_state());
        assert!(plain.snapshot_state().is_some());
        assert_eq!(
            plain.loads().cost_per_slot(&world.substrate),
            timed.loads().cost_per_slot(&world.substrate)
        );
        let stats = |a: &dyn OnlineAlgorithm| {
            let olive = a.as_any().and_then(|any| any.downcast_ref::<Olive>());
            olive.expect("as_any reaches the wrapped OLIVE").stats()
        };
        assert_eq!(stats(plain.as_ref()), stats(&timed));

        // Halving every capacity must reach the wrapped ledger.
        let node = world.substrate.node_ids().next().expect("a node");
        let before = timed.loads().node_capacity_of(node);
        let halved = EffectiveCapacities {
            node: world
                .substrate
                .nodes()
                .map(|(_, n)| n.capacity / 2.0)
                .collect(),
            link: world
                .substrate
                .links()
                .map(|(_, l)| l.capacity / 2.0)
                .collect(),
        };
        timed.apply_churn(&halved);
        assert_eq!(timed.loads().node_capacity_of(node), before / 2.0);

        // A fresh wrapped instance restores the plain one's state.
        let mut restored = Timed::new(
            world.build_algorithm(&world.substrate),
            "core.decide",
            0,
            tracer.clone(),
        );
        restored
            .restore_state(&plain.snapshot_state().expect("OLIVE snapshots"))
            .expect("restore through the decorator");
        assert_eq!(restored.snapshot_state(), plain.snapshot_state());

        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["core.decide", "core.apply_churn"]);
    }

    #[test]
    fn shard_roles_follow_the_factory_order() {
        let mut roles = ShardRoles::default();
        let asked: Vec<_> = [0, 0, 1, 1, 2].into_iter().map(|s| roles.next(s)).collect();
        assert_eq!(
            asked,
            [
                "shard.decide.commit",
                "shard.decide.trial",
                "shard.decide.commit",
                "shard.decide.trial",
                "shard.decide.commit"
            ]
        );
    }

    #[test]
    fn a_seed_redraws_request_attributes_on_a_fixed_arrival_skeleton() {
        let world = |seed| prepare_iris("online_iris", seed, &Sizes::of(true)).unwrap();
        let (a, b) = (world(5), world(6));
        assert_eq!(a.offered, b.offered);
        let skeleton = |o: &Online| -> Vec<_> {
            let requests = o.events.iter().flat_map(|e| e.arrivals.iter());
            requests.map(|r| (r.id, r.arrival, r.ingress)).collect()
        };
        assert_eq!(skeleton(&a), skeleton(&b));
        let demands = |o: &Online| -> Vec<u64> {
            let requests = o.events.iter().flat_map(|e| e.arrivals.iter());
            requests.map(|r| r.demand.to_bits()).collect()
        };
        assert_ne!(demands(&a), demands(&b));
        assert_eq!(demands(&a), demands(&world(5)));
    }

    #[test]
    fn counting_flags_missing_duplicate_and_foreign_outcomes() {
        let outcome = |id: u64, status| RequestOutcome {
            id: RequestId(id),
            class: Request {
                id: RequestId(id),
                arrival: 0,
                duration: 1,
                ingress: vne_model::ids::NodeId::from_index(0),
                app: vne_model::ids::AppId::from_index(0),
                demand: 1.0,
            }
            .class(),
            arrival: 0,
            duration: 1,
            demand: 1.0,
            status,
        };
        let mut counting = Counting::new(3);
        counting.on_arrival(&outcome(0, RequestStatus::Accepted));
        counting.on_arrival(&outcome(1, RequestStatus::Rejected));
        counting.on_arrival(&outcome(2, RequestStatus::Accepted));
        assert_eq!(counting.failed(), 0);
        assert!(counting.problems().is_empty());
        // Request 2 decided twice, request 9 never offered.
        counting.on_arrival(&outcome(2, RequestStatus::Rejected));
        counting.on_arrival(&outcome(9, RequestStatus::Accepted));
        assert_eq!(counting.failed(), 2);
        assert!(!counting.problems().is_empty());
        assert_eq!(Counting::new(2).failed(), 2);
    }
}
