#![warn(missing_docs)]
//! # vne-shard — partitioned substrates behind one coordinator
//!
//! The paper's evaluation stops at topology-zoo scale because every
//! algorithm sees one monolithic substrate. This crate takes the
//! decomposition that is already latent in the planning layer — pricing
//! subproblems are per-region and embarrassingly parallel — to its
//! operational conclusion: partition the substrate into `k` shards, run
//! one engine + algorithm instance per shard, and coordinate admission
//! across them.
//!
//! * [`coordinator`] — the [`ShardCoordinator`]: routes each arriving
//!   request to the shard owning its classes, steps a reserve instance
//!   of each shard to find would-be rejects (reserve), offers them one
//!   at a time to the neighboring shards' reserve instances in
//!   deterministic order (span), then commits every shard through the
//!   engine's public single-slot seam. A `k = 1` run replays the
//!   unsharded engine byte-identically. Every slot ends as the engine
//!   loop ends it — stamp `online_secs`, commit hook, stop — for every
//!   `k`, so a [`Checkpointer`] checkpoints sharded runs unmodified,
//!   and [`ShardCoordinator::resume_from`] continues them
//!   byte-identically; churn on cut links is applied as idempotent
//!   endpoint drains on both gateway shards. It is the one driver
//!   behind the `vne-serve` daemon as well, which closes a slot with
//!   `run` over one event ([`ShardCoordinator::release_early`] and
//!   [`ShardCoordinator::checkpoint`] serve `DEPART` and `CHECKPOINT`).
//! * [`checkpoint`] — the one owner of a `k > 1` checkpoint's bytes:
//!   [`ShardCheckpoint`] holds the partition, every shard's engine and
//!   algorithm snapshot and the coordinator's own state, and encodes to
//!   and decodes from the two state blobs of the [`Checkpointer`]'s
//!   envelope. [`ShardCoordinator::resume_from`] refuses a decoded
//!   checkpoint whose shards disagree on the slot or whose coordinator
//!   state fails [`ShardCoordinator::audit`].
//! * [`plan`] — per-shard PLAN-VNE: [`shard_demands`] routes the
//!   history stream into one [`ExactEstimator`] per shard (planning
//!   memory `O(classes per shard)`), [`shard_plans`] solves the shard
//!   LPs in parallel.
//!
//! The partitioner that feeds this crate lives in `vne-topology`
//! (`Partitioner`, `GreedyEdgeCut`, `large_synthetic`);
//! the partitioned-substrate view ([`ShardedSubstrate`]) lives in
//! `vne-model`.
//!
//! ## Example
//!
//! ```
//! use vne_model::prelude::*;
//! use vne_shard::{ShardCoordinator, SpanningStats};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 4-node ring split into 2 shards of 2 nodes each.
//! let mut s = SubstrateNetwork::new("ring");
//! let n: Vec<_> = (0..4)
//!     .map(|i| s.add_node(format!("n{i}"), Tier::Edge, 100.0, 1.0).unwrap())
//!     .collect();
//! for i in 0..4 {
//!     s.add_link(n[i], n[(i + 1) % 4], 100.0, 1.0)?;
//! }
//! let assignment = PartitionAssignment::new(vec![0, 0, 1, 1])?;
//! let sharded = ShardedSubstrate::new(&s, &assignment)?;
//! assert_eq!(sharded.shard_count(), 2);
//! assert_eq!(sharded.cut_count(), 2); // the two ring edges crossing
//! # Ok(())
//! # }
//! ```
//!
//! [`ExactEstimator`]: vne_workload::estimator::ExactEstimator
//! [`ShardedSubstrate`]: vne_model::shard::ShardedSubstrate
//! [`Checkpointer`]: vne_sim::observe::Checkpointer

pub mod checkpoint;
pub mod coordinator;
pub mod plan;

pub use checkpoint::ShardCheckpoint;
pub use coordinator::{ShardCoordinator, SpanningStats};
pub use plan::{shard_demands, shard_plans};
