#![warn(missing_docs)]
//! # vne-bench — figure and table binaries for the paper's evaluation
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation section (README, "Regenerating paper artifacts").
//! All binaries accept:
//!
//! * `--seeds N` — number of executions (paper: 30; default: 3);
//! * `--paper` — full paper scale (5400 history + 600 test slots;
//!   default is a 1800 + 300 slot medium scale with the same shape);
//! * `--utils 60,100,140` — utilization sweep override;
//! * `--topo iris|citta|5gen|100n150e` — restrict to one topology.
//!
//! The sweeping binaries (all but `fig08`, `fig12`, `probe` and the
//! tables) also accept `--checkpoint-every N`, `--checkpoint-dir DIR`
//! and `--resume`: a sweep is resumed by re-running its command line
//! with `--resume` (see [`experiments`]).
//!
//! Nothing here records or compares a timing (Fig. 16 and `probe`
//! print run times as figure content): the runtime claims are measured
//! by the standalone crate under `benchmark/` (see
//! `benchmark/README.md`).

pub mod adversarial;
pub mod cli;
pub mod experiments;

pub use cli::BenchOpts;
