//! The repo's benchmark: six named workloads over the engine, the shard
//! coordinator and the planner, end-to-end metrics from untraced
//! replays and per-layer metrics from a traced one. See `README.md`.

pub mod adapter;
pub mod json;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod suite;
pub mod trace;
