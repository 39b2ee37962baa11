//! Sharded checkpoint semantics: the typed coordinator cursors and the
//! conversions between the typed container and its serialized form.
//!
//! The wire container ([`ShardCheckpoint`]) lives in `vne_model::state`
//! next to the codec it is built from; this module owns what the blobs
//! *mean*. A sharded run checkpoints through the unmodified
//! [`Checkpointer`] path: the coordinator's commit hook hands out a
//! deferred [`EngineView`] whose capture packs the per-shard state into
//! the two blobs of a regular [`EngineCheckpoint`]
//! ([`ShardCheckpoint::pack`]), so checkpoint files, sinks and tooling
//! built for monolithic runs carry sharded state unchanged. The
//! conversions here move losslessly between that envelope and the typed
//! [`ShardCheckpoint`].
//!
//! [`Checkpointer`]: vne_sim::observe::Checkpointer
//! [`EngineView`]: vne_sim::engine::EngineView

use vne_model::ids::{NodeId, RequestId};
use vne_model::state::{ShardCheckpoint, StateBlob, StateError, StateReader, StateWriter};
use vne_sim::engine::{EngineCheckpoint, StreamStats};

use crate::coordinator::SpanningStats;

/// The coordinator's own mutable state, beyond the per-shard engines:
/// merged run counters, spanning-protocol counters, the pending
/// spanning bookkeeping (adopted request → original global ingress),
/// and the cut-link churn factors. Serialized into
/// [`ShardCheckpoint::coordinator`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoordinatorCursors {
    pub stats: StreamStats,
    pub spanning: SpanningStats,
    /// Sorted by request id (canonical order for the hash map).
    pub rerouted: Vec<(RequestId, NodeId)>,
    /// Churn factor per cut link, in cut-link order (1.0 = pristine).
    pub cut_factor: Vec<f64>,
    /// Own churn factor of each tracked cut-endpoint node (global id),
    /// sorted by node id.
    pub node_factor: Vec<(NodeId, f64)>,
}

impl CoordinatorCursors {
    pub fn encode(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write(&self.stats);
        w.write_usize(self.spanning.candidates);
        w.write_usize(self.spanning.attempts);
        w.write_usize(self.spanning.granted);
        w.write_usize(self.spanning.denied);
        w.write(&self.rerouted);
        w.write(&self.cut_factor);
        w.write(&self.node_factor);
        w.finish()
    }

    pub fn decode(blob: &StateBlob) -> Result<Self, StateError> {
        let mut r = StateReader::new(blob);
        let stats: StreamStats = r.read()?;
        let spanning = SpanningStats {
            candidates: r.read_usize()?,
            attempts: r.read_usize()?,
            granted: r.read_usize()?,
            denied: r.read_usize()?,
        };
        let rerouted: Vec<(RequestId, NodeId)> = r.read()?;
        let cut_factor: Vec<f64> = r.read()?;
        let node_factor: Vec<(NodeId, f64)> = r.read()?;
        r.finish()?;
        Ok(Self {
            stats,
            spanning,
            rerouted,
            cut_factor,
            node_factor,
        })
    }
}

/// Lifts the engine-checkpoint envelope a [`Checkpointer`] produced
/// over a `k > 1` coordinator into the typed [`ShardCheckpoint`].
///
/// # Errors
///
/// Returns a [`StateError`] when the checkpoint's engine blob is not a
/// packed shard composite (e.g. it came from a monolithic run or a
/// `k = 1` coordinator, both of which serialize plain engine state).
///
/// [`Checkpointer`]: vne_sim::observe::Checkpointer
pub fn shard_checkpoint(checkpoint: &EngineCheckpoint) -> Result<ShardCheckpoint, StateError> {
    ShardCheckpoint::unpack(
        checkpoint.slot,
        &checkpoint.algorithm,
        &checkpoint.engine,
        &checkpoint.algorithm_state,
        checkpoint.observer_state.clone(),
    )
}

/// Packs a typed [`ShardCheckpoint`] back into the engine-checkpoint
/// envelope — the inverse of [`shard_checkpoint`], byte-identical
/// round trip.
pub fn engine_checkpoint(checkpoint: &ShardCheckpoint) -> EngineCheckpoint {
    let (engine, algorithm_state) = checkpoint.pack();
    EngineCheckpoint {
        slot: checkpoint.slot,
        algorithm: checkpoint.algorithm.clone(),
        engine,
        algorithm_state,
        observer_state: checkpoint.observer_state.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursors_roundtrip_blob_equal() {
        let cursors = CoordinatorCursors {
            stats: StreamStats {
                slots_run: 9,
                arrivals: 40,
                peak_active: 7,
                online_secs: 1.25,
                stopped_early: false,
            },
            spanning: SpanningStats {
                candidates: 5,
                attempts: 11,
                granted: 3,
                denied: 2,
            },
            rerouted: vec![(RequestId(2), NodeId(17)), (RequestId(9), NodeId(1))],
            cut_factor: vec![1.0, 0.5, 0.0],
            node_factor: vec![(NodeId(3), 0.25)],
        };
        let blob = cursors.encode();
        let back = CoordinatorCursors::decode(&blob).unwrap();
        assert_eq!(back, cursors);
        assert_eq!(back.encode(), blob, "snapshot → restore → snapshot");
    }

    #[test]
    fn envelope_conversions_roundtrip() {
        let blob_of = |x: u64| {
            let mut w = StateWriter::new();
            w.write_u64(x);
            w.finish()
        };
        let typed = ShardCheckpoint {
            slot: 4,
            algorithm: "QUICKG".into(),
            partition: vec![0, 0, 1],
            engines: vec![blob_of(1), blob_of(2)],
            algorithms: vec![blob_of(3), blob_of(4)],
            coordinator: blob_of(5),
            observer_state: blob_of(6),
        };
        let envelope = engine_checkpoint(&typed);
        assert_eq!(envelope.slot, 4);
        assert_eq!(shard_checkpoint(&envelope).unwrap(), typed);
        // Envelope bytes survive the generic checkpoint codec too.
        let reparsed = EngineCheckpoint::from_bytes(&envelope.to_bytes()).unwrap();
        assert_eq!(shard_checkpoint(&reparsed).unwrap(), typed);
    }
}
