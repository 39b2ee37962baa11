#![warn(missing_docs)]
//! # vne-workload — workload generation and statistics for online VNE
//!
//! Reproduces the paper's experimental workloads (Table III):
//!
//! * [`dist`] — normal, exponential, Zipf, Poisson and lognormal samplers
//!   built on uniform randomness;
//! * [`arrival`] — Poisson and bursty MMPP arrival processes;
//! * [`appgen`] — random application instances (chains, trees,
//!   accelerator chains, GPU chains);
//! * [`tracegen`] — the synthetic MMPP trace with Zipf node popularity
//!   and utilization calibration;
//! * [`caida`] — the CAIDA-like heavy-tailed trace (Fig. 15);
//! * [`adversary`] — adversarial workloads (revenue bursts, lifetime
//!   cliffs, plan-adversarial mixes), arrival modulators and
//!   substrate-churn schedules for the scenario suite;
//! * [`stats`] — ECDF, percentiles, bootstrap estimation (Eq. 6);
//! * [`estimator`] — [`estimator::ExactEstimator`], folding a slot-event
//!   stream into per-class concurrent-demand series, their bootstrap
//!   expected demands `P̂_α` (Eq. 6) and the demand conformance check;
//! * [`rng`] — seeded, replayable randomness.
//!
//! ## Example
//!
//! ```
//! use vne_workload::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let substrate = vne_topology::zoo::citta_studi()?;
//! let mut rng = SeededRng::new(7);
//! let apps = paper_mix(&AppGenConfig::default(), &mut rng);
//! let config = TraceConfig { slots: 100, ..TraceConfig::default() };
//! let history = vne_workload::tracegen::stream(&substrate, &apps, &config, &mut rng);
//! let mut estimator = ExactEstimator::new(100, AggregationConfig::default());
//! estimator.observe_all(history);
//! let demands = estimator.finalize(&mut rng);
//! assert!(!demands.is_empty());
//! # Ok(())
//! # }
//! ```

pub mod adversary;
pub mod appgen;
pub mod arrival;
pub mod caida;
pub mod dist;
pub mod estimator;
pub mod rng;
pub mod stats;
pub mod tracegen;

/// Commonly used types, re-exported for one-line imports.
pub mod prelude {
    pub use crate::adversary::{AdversaryProfile, ChurnProfile, ChurnSchedule};
    pub use crate::appgen::{gpu_set, paper_mix, uniform_shape_set, AppGenConfig};
    pub use crate::arrival::{ArrivalProcess, Mmpp, PoissonArrivals};
    pub use crate::caida::CaidaConfig;
    pub use crate::estimator::{AggregationConfig, ExactEstimator};
    pub use crate::rng::SeededRng;
    pub use crate::stats::{bootstrap_percentile, mean_and_ci, Ecdf};
    pub use crate::tracegen::{ArrivalKind, TraceConfig};
}
