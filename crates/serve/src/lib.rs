#![warn(missing_docs)]
//! # vne-serve — embedding-as-a-service on the streaming engine
//!
//! The paper's setting is *online*: requests arrive one at a time and
//! must be admitted at decision time. This crate deploys the
//! reproduction in exactly that shape — a resident daemon answering
//! placement requests under live load:
//!
//! * [`actor`] — the single-writer engine actor: one thread owns a
//!   [`vne_shard::ShardCoordinator`] (over the one-shard view of the
//!   substrate: the monolithic engine; over any other partition: a
//!   sharded one), fed by an mpsc command queue through a cloneable
//!   [`actor::ServeHandle`]. Closing a slot is the coordinator's `run`
//!   over that slot. Submissions batch into slots on a configurable tick
//!   ([`actor::TickMode`]), decisions come back on oneshot replies,
//!   the pending queue sheds beyond its high-watermark, and a
//!   [`vne_sim::observe::Checkpointer`] makes the whole serving state
//!   durable on a cadence (crash-safe via [`vne_sim::persist`]);
//! * [`protocol`] — the line-delimited TCP text protocol
//!   (`SUBMIT`/`DEPART`/`ADVANCE`/`STATS`/`CHECKPOINT`/`SHUTDOWN`)
//!   with an incremental frame parser and exact encode/parse inverses;
//! * [`server`] — the TCP front end: per-connection handler threads,
//!   graceful drain on `SHUTDOWN`.
//!
//! The daemon binary (`vne-serve`) wires these to a scenario world
//! (topology, application mix, algorithm registry); `--resume-from`
//! restores a checkpoint byte-identically before serving. The `STATS`
//! fingerprint is the same [`vne_sim::metrics::Summary::fingerprint`]
//! batch runs report, so a served request sequence can be replayed
//! through `run_stream_with` and compared exactly — the daemon is an online
//! *view* of the engine, not a fork of it.

pub mod actor;
pub mod protocol;
pub mod server;

pub use actor::{
    spawn, ServeConfig, ServeError, ServeHandle, ServeMeta, ServeReport, ServeRuntime, ServeStats,
    SubmitReply, SubmitSpec, TickMode,
};
pub use protocol::{parse_command, parse_reply, Command, LineFramer, ProtocolError, Reply};
pub use server::Server;
