#![warn(missing_docs)]
//! # vne-sim — the streaming discrete-time online VNE simulator
//!
//! Drives the paper's evaluation (§IV) as an event-driven pipeline:
//!
//! * the [`engine`] streams `SlotEvents` (lazy, one slot at a time)
//!   against any [`vne_olive::algorithm::OnlineAlgorithm`], keeping
//!   only `O(active requests)` of state and reporting per-request and
//!   per-slot facts to a [`engine::SimObserver`]. There is one loop,
//!   [`engine::EngineState::run`]: [`engine::run_stream_with`] runs it
//!   from a fresh state, a resume is [`engine::restore_engine`] followed
//!   by `run` over the remaining events;
//! * [`observe`] has the ready-made observers: the `O(classes)`
//!   incremental [`observe::WindowSummary`] (the one summary fold), a
//!   full-log [`observe::Recorder`], a periodic
//!   [`observe::Checkpointer`] (checkpoint/resume for long-horizon
//!   runs), closure inspection and a tee;
//! * [`persist`] writes checkpoint files crash-safely (temp file +
//!   fsync + atomic rename) and refuses truncated blobs on read;
//! * the [`registry`] constructs algorithms by name
//!   (`Box<dyn OnlineAlgorithm>`): the paper's four are built in and
//!   third-party algorithms register without touching this crate;
//! * [`metrics`] defines the window [`metrics::Summary`] — rejection
//!   rate, costs (Eqs. 3–4), rejection balance index (Eq. 20) — and its
//!   cross-seed aggregation;
//! * [`scenario`] wires the full history → plan → online pipeline with
//!   all the evaluation's variations; [`scenario::Scenario::drive`] is
//!   the one way from a scenario to a summary (fresh or resumed,
//!   checkpointing or not), `run` / `run_observed` / `run_summary` are
//!   sugar over it, and [`scenario::Scenario::with_registry`] plugs in
//!   third-party algorithms;
//! * [`runner`] runs all cells of a sweep (algorithm × configuration ×
//!   seed) on one worker pool, sharing per-seed draws and plans.
//!
//! ## Example
//!
//! ```no_run
//! use vne_sim::scenario::{Algorithm, Scenario, ScenarioConfig};
//! use vne_workload::appgen::{paper_mix, AppGenConfig};
//! use vne_workload::rng::SeededRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let substrate = vne_topology::zoo::iris()?;
//! let mut rng = SeededRng::new(7);
//! let apps = paper_mix(&AppGenConfig::default(), &mut rng);
//! let scenario = Scenario::new(substrate, apps, ScenarioConfig::small(1.0));
//! // Algorithms resolve by name: `Algorithm::Olive` and `"OLIVE"` are
//! // interchangeable.
//! let outcome = scenario.run(Algorithm::Olive);
//! println!("rejection rate: {:.3}", outcome.summary.rejection_rate);
//! # Ok(())
//! # }
//! ```

mod calendar;
pub mod engine;
pub mod metrics;
pub mod observe;
pub mod persist;
pub mod registry;
pub mod runner;
pub mod scenario;

pub use engine::{
    restore_engine, EngineCheckpoint, EngineState, RequestStatus, RunResult, SimControl,
    SimObserver, SlotStep, StreamStats,
};
pub use metrics::{aggregate, AggregatedSummary, Summary};
pub use observe::{Checkpointer, NullObserver, Recorder, WindowSummary};
pub use persist::{read_checkpoint_file, write_checkpoint_file, PersistError};
pub use registry::{AlgorithmRegistry, AlgorithmSpec, BuildContext, BuiltAlgorithm};
pub use runner::{default_apps, run_cells};
pub use scenario::{Algorithm, Outcome, ResumeError, Run, Scenario, ScenarioConfig};
