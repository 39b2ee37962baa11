//! The sharded checkpoint: everything a `k > 1` coordinator writes into
//! the two state blobs of an [`EngineCheckpoint`], as one typed struct.
//!
//! A sharded run checkpoints through the unmodified [`Checkpointer`]
//! path: the coordinator's commit hook hands out a deferred
//! [`EngineView`] whose capture encodes a [`ShardCheckpoint`] into the
//! envelope's `(engine, algorithm_state)` blob pair, so checkpoint
//! files, sinks and tooling built for monolithic runs carry sharded
//! state unchanged. The envelope keeps what it holds for every run (the
//! slot, the algorithm name, the observer state); this struct is the
//! rest. [`ShardCoordinator::resume_from`] decodes it and validates it
//! against the coordinator before the run goes on.
//!
//! [`Checkpointer`]: vne_sim::observe::Checkpointer
//! [`EngineView`]: vne_sim::engine::EngineView
//! [`ShardCoordinator::resume_from`]: crate::ShardCoordinator::resume_from

use vne_model::ids::{NodeId, RequestId};
use vne_model::state::{StateBlob, StateError, StateReader, StateWriter};
use vne_sim::engine::{EngineCheckpoint, StreamStats};

use crate::coordinator::SpanningStats;

/// The state of a `k > 1` coordinator after one slot, beyond the
/// envelope: the partition, every shard's engine and algorithm, and the
/// coordinator's own counters, spanning bookkeeping and cut-link churn
/// fold.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// The per-node shard assignment the run was partitioned under
    /// (index = global node index). A resume refuses any other:
    /// restoring shard-local state under a different cut would silently
    /// corrupt every id map.
    pub partition: Vec<u32>,
    /// One engine-state snapshot per shard, in shard order.
    pub engines: Vec<StateBlob>,
    /// One algorithm-state snapshot per shard, in shard order.
    pub algorithms: Vec<StateBlob>,
    /// The merged run counters.
    pub stats: StreamStats,
    /// The spanning-protocol counters.
    pub spanning: SpanningStats,
    /// Original global ingress of every active request a neighbouring
    /// shard adopted, sorted by request id.
    pub rerouted: Vec<(RequestId, NodeId)>,
    /// Churn factor per cut link, in cut-link order (1.0 = pristine).
    pub cut_factor: Vec<f64>,
    /// Own churn factor of each tracked cut-endpoint node (global id),
    /// sorted by node id.
    pub node_factor: Vec<(NodeId, f64)>,
}

impl ShardCheckpoint {
    /// Encodes the checkpoint into the envelope's `(engine,
    /// algorithm_state)` blob pair. The engine blob opens with
    /// [`EngineCheckpoint::SHARDED_TAG`], then the partition, the
    /// engine blobs and the coordinator's own state as one nested blob;
    /// the algorithm blob holds the algorithm blobs.
    pub fn encode(&self) -> (StateBlob, StateBlob) {
        let mut cursors = StateWriter::new();
        cursors.write(&self.stats);
        cursors.write_usize(self.spanning.candidates);
        cursors.write_usize(self.spanning.attempts);
        cursors.write_usize(self.spanning.granted);
        cursors.write_usize(self.spanning.denied);
        cursors.write(&self.rerouted);
        cursors.write(&self.cut_factor);
        cursors.write(&self.node_factor);
        let mut w = StateWriter::new();
        w.write_str(EngineCheckpoint::SHARDED_TAG);
        w.write(&self.partition);
        w.write(&self.engines);
        w.write_blob(&cursors.finish());
        let engine = w.finish();
        let mut w = StateWriter::new();
        w.write(&self.algorithms);
        (engine, w.finish())
    }

    /// Decodes the blob pair [`ShardCheckpoint::encode`] wrote. It
    /// checks the layout only; whether the state fits a coordinator is
    /// [`ShardCoordinator::resume_from`]'s to check.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] when the engine blob is not a sharded
    /// one (a monolithic or `k = 1` checkpoint holds one engine's
    /// state), when the shard counts of the two blobs disagree, or on
    /// malformed bytes.
    ///
    /// [`ShardCoordinator::resume_from`]: crate::ShardCoordinator::resume_from
    pub fn decode(engine: &StateBlob, algorithm_state: &StateBlob) -> Result<Self, StateError> {
        let mut r = StateReader::new(engine);
        if !r
            .read_str()
            .is_ok_and(|tag| tag == EngineCheckpoint::SHARDED_TAG)
        {
            return Err(StateError::Mismatch {
                expected: "a packed sharded engine blob".into(),
                found: "a monolithic (or foreign) engine blob".into(),
            });
        }
        let partition: Vec<u32> = r.read()?;
        let engines: Vec<StateBlob> = r.read()?;
        let cursors = r.read_blob()?;
        r.finish()?;
        let mut r = StateReader::new(algorithm_state);
        let algorithms: Vec<StateBlob> = r.read()?;
        r.finish()?;
        if algorithms.len() != engines.len() {
            return Err(StateError::Mismatch {
                expected: format!("{} per-shard algorithm blobs", engines.len()),
                found: format!("{}", algorithms.len()),
            });
        }
        let mut r = StateReader::new(&cursors);
        let checkpoint = Self {
            partition,
            engines,
            algorithms,
            stats: r.read()?,
            spanning: SpanningStats {
                candidates: r.read_usize()?,
                attempts: r.read_usize()?,
                granted: r.read_usize()?,
                denied: r.read_usize()?,
            },
            rerouted: r.read()?,
            cut_factor: r.read()?,
            node_factor: r.read()?,
        };
        r.finish()?;
        Ok(checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_encode_is_blob_equal() {
        let blob_of = |x: u64| {
            let mut w = StateWriter::new();
            w.write_u64(x);
            w.finish()
        };
        let checkpoint = ShardCheckpoint {
            partition: vec![0, 0, 1],
            engines: vec![blob_of(1), blob_of(2)],
            algorithms: vec![blob_of(3), blob_of(4)],
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
        let (engine, algorithm_state) = checkpoint.encode();
        let back = ShardCheckpoint::decode(&engine, &algorithm_state).unwrap();
        assert_eq!(back, checkpoint);
        assert_eq!(back.encode(), (engine.clone(), algorithm_state.clone()));
        // The pair survives the envelope's own codec, and the envelope
        // knows it for a sharded one.
        let envelope = EngineCheckpoint {
            slot: 8,
            algorithm: "QUICKG".into(),
            engine,
            algorithm_state,
            observer_state: blob_of(6),
        };
        assert!(envelope.is_sharded());
        let reparsed = EngineCheckpoint::from_bytes(&envelope.to_bytes()).unwrap();
        assert_eq!(
            ShardCheckpoint::decode(&reparsed.engine, &reparsed.algorithm_state).unwrap(),
            checkpoint
        );
        // A monolithic engine blob is refused with a Mismatch.
        assert!(!EngineCheckpoint {
            engine: blob_of(1),
            ..reparsed.clone()
        }
        .is_sharded());
        assert!(matches!(
            ShardCheckpoint::decode(&blob_of(1), &reparsed.algorithm_state),
            Err(StateError::Mismatch { .. })
        ));
    }
}
