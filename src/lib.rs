#![warn(missing_docs)]
//! # vne — Plan-Based Scalable Online Virtual Network Embedding
//!
//! Umbrella crate for the OLIVE reproduction (ICDCS 2025,
//! arXiv:2507.00237): re-exports the workspace crates and provides a
//! one-stop [`prelude`].
//!
//! * [`model`] — substrates, virtual networks, requests, embeddings;
//! * [`lp`] — the LP/MILP solver substrate (bounded-variable revised
//!   simplex + branch-and-bound, replacing CPLEX);
//! * [`topology`] — the four evaluation topologies with Table II tiering;
//! * [`workload`] — MMPP/Zipf/CAIDA-like traces and bootstrap statistics;
//! * [`olive`] — time-aggregation, PLAN-VNE, OLIVE and the baselines;
//! * [`sim`] — the streaming event-driven simulator: engine, observers,
//!   algorithm registry, metrics and multi-seed runner;
//! * [`serve`] — the embedding-as-a-service daemon: engine actor, line
//!   protocol, TCP server, durable serving state;
//! * [`shard`] — partitioned substrates: per-shard planning and
//!   admission behind a cross-shard coordinator;
//! * [`audit`] — the workspace determinism/robustness lint pass behind
//!   the `vne-audit` CI gate.
//!
//! ## Quickstart
//!
//! ```
//! use vne::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small real topology and the paper's application mix.
//! let substrate = vne::topology::zoo::citta_studi()?;
//! let mut rng = SeededRng::new(7);
//! let apps = paper_mix(&AppGenConfig::default(), &mut rng);
//!
//! // History → plan → online embedding at 100% edge utilization.
//! let mut config = ScenarioConfig::small(1.0);
//! config.history_slots = 150;
//! config.test_slots = 60;
//! config.measure_window = (10, 50);
//! let scenario = Scenario::new(substrate, apps, config);
//! let outcome = scenario.run(Algorithm::Olive);
//! assert!(outcome.summary.rejection_rate <= 1.0);
//! # Ok(())
//! # }
//! ```

pub use vne_audit as audit;
pub use vne_lp as lp;
pub use vne_model as model;
pub use vne_olive as olive;
pub use vne_serve as serve;
pub use vne_shard as shard;
pub use vne_sim as sim;
pub use vne_topology as topology;
pub use vne_workload as workload;

/// Commonly used types, re-exported for one-line imports.
pub mod prelude {
    pub use vne_model::prelude::*;
    pub use vne_olive::aggregate::AggregateDemand;
    pub use vne_olive::algorithm::{OnlineAlgorithm, SlotOutcome};
    pub use vne_olive::colgen::{solve_plan, PlanVneConfig};
    pub use vne_olive::olive::{Olive, OliveConfig};
    pub use vne_olive::plan::Plan;
    pub use vne_shard::{ShardCoordinator, SpanningStats};
    pub use vne_sim::engine::{SimControl, SimObserver, StreamStats};
    pub use vne_sim::observe::{NullObserver, Recorder, WindowSummary};
    pub use vne_sim::registry::{AlgorithmRegistry, AlgorithmSpec, BuildContext, BuiltAlgorithm};
    pub use vne_sim::runner::{default_apps, run_cells, SweepContext};
    pub use vne_sim::scenario::{Algorithm, Outcome, Scenario, ScenarioConfig};
    pub use vne_topology::partition::{GreedyEdgeCut, Partitioner};
    pub use vne_workload::appgen::{paper_mix, AppGenConfig};
    pub use vne_workload::estimator::AggregationConfig;
    pub use vne_workload::rng::SeededRng;
    pub use vne_workload::tracegen::TraceConfig;
}
