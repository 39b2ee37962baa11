//! The interface between online embedding algorithms and the simulator.
//!
//! All four algorithms of the paper's evaluation (OLIVE, QUICKG, FULLG,
//! SLOTOFF) process the simulation slot by slot: the driver hands each
//! algorithm the departures and the arrivals of the slot (arrivals in
//! order, as required by ON-VNE), and receives the acceptance decisions
//! plus any preemptions of previously accepted requests.

use vne_model::churn::EffectiveCapacities;
use vne_model::embedding::Footprint;
use vne_model::ids::RequestId;
use vne_model::load::LoadLedger;
use vne_model::request::{Request, Slot};
use vne_model::state::{StateBlob, StateError};

/// Decisions made by an algorithm during one slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotOutcome {
    /// Newly arrived requests that were accepted (allocated).
    pub accepted: Vec<RequestId>,
    /// Newly arrived requests that were rejected.
    pub rejected: Vec<RequestId>,
    /// Previously accepted requests evicted this slot (they incur the
    /// rejection cost, like rejected requests).
    pub preempted: Vec<RequestId>,
}

impl SlotOutcome {
    /// Merges another outcome into this one.
    pub fn extend(&mut self, other: SlotOutcome) {
        self.accepted.extend(other.accepted);
        self.rejected.extend(other.rejected);
        self.preempted.extend(other.preempted);
    }
}

/// An online VNE algorithm driven slot by slot.
///
/// The trait is object-safe: simulation drivers hold algorithms as
/// `Box<dyn OnlineAlgorithm>`, which is what lets third-party
/// algorithms be registered by name without touching the simulator
/// (see `vne-sim`'s algorithm registry). `Send` is a supertrait so the
/// shard coordinator's worker pool and the `vne-serve` actor thread can
/// own algorithms; they are plain owned state, so this costs nothing.
pub trait OnlineAlgorithm: Send {
    /// A short display name (e.g. `"OLIVE"`).
    fn name(&self) -> &str;

    /// Typed self-access for drill-down inspection through a trait
    /// object (e.g. reading OLIVE's per-class planned/borrowed split
    /// from a per-slot observer). Implementations that want to expose
    /// their concrete state return `Some(self)`; the default hides it.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Processes one time slot: `departures` leave first (their resources
    /// are released), then `arrivals` are processed sequentially in the
    /// given order (the ON-VNE arrival order).
    ///
    /// Implementations must keep their internal [`LoadLedger`] feasible
    /// at all times.
    ///
    /// # What a spanning coordinator relies on
    ///
    /// A slot may reach an instance in more than one call with the same
    /// `t`: `vne-shard`'s coordinator steps a shard's *reserve instance*
    /// through the shard's slot once and then offers it spanning
    /// candidates one `process_slot(t, &[], &[candidate])` at a time.
    /// That answers what the whole slot would have answered for an
    /// algorithm of which two things are true:
    ///
    /// 1. *Arrivals are decided in order.* `process_slot(t, D, A ++ [c])`
    ///    leaves the same state and returns the same decisions as
    ///    `process_slot(t, D, A)` followed by `process_slot(t, &[], &[c])`.
    /// 2. *A plain rejection leaves no trace.* An arrival that is
    ///    rejected and preempts nothing changes nothing a later decision
    ///    reads (counters aside), so the slot decides every other
    ///    arrival, and the next slot, the same with or without it.
    ///
    /// OLIVE, QUICKG and FULLG have both properties (pinned by a
    /// proptest in `crates/core/tests/proptests.rs`). The observable
    /// exception to (2) — a call that rejects its arrival yet reports
    /// [`SlotOutcome::preempted`], as OLIVE's preempt-then-fall-through
    /// can — makes the coordinator rebuild the instance. SLOTOFF has
    /// neither (it re-solves the slot as a batch, see its module docs);
    /// for such an algorithm an offer is an approximation and the
    /// coordinator's commit step stays authoritative.
    fn process_slot(
        &mut self,
        t: Slot,
        departures: &[Request],
        arrivals: &[Request],
    ) -> SlotOutcome;

    /// The current substrate load ledger (used for cost accounting).
    fn loads(&self) -> &LoadLedger;

    /// Applies substrate churn: replaces the algorithm's view of usable
    /// capacities with externally computed effective capacities.
    ///
    /// Called by the engine at the start of a slot, before that slot's
    /// departures/arrivals are handed to [`OnlineAlgorithm::process_slot`],
    /// and again after a checkpoint restore (the capacities are absolute,
    /// so re-application is idempotent). Loads are *not* touched here;
    /// the engine evicts stranded requests through the regular departure
    /// path. The default ignores churn (a static-substrate algorithm).
    fn apply_churn(&mut self, effective: &EffectiveCapacities) {
        let _ = effective;
    }

    /// The substrate footprint currently allocated to an active request,
    /// or `None` when unknown.
    ///
    /// The engine uses this to find which requests are stranded by a
    /// capacity loss. Algorithms that return `None` (the default)
    /// self-heal instead: the engine skips eviction and relies on the
    /// algorithm to restore feasibility on its next
    /// [`OnlineAlgorithm::process_slot`].
    fn footprint_of(&self, id: RequestId) -> Option<&Footprint> {
        let _ = id;
        None
    }

    /// Serializes the algorithm's *mutable* state for checkpointing
    /// (construction inputs — substrate, applications, plan — are not
    /// included; a resume rebuilds them deterministically first).
    /// Returns `None` when the algorithm does not support snapshots —
    /// the default, so third-party algorithms opt in explicitly. All
    /// four builtin algorithms implement [`vne_model::state::Snapshot`]
    /// and forward to it here.
    fn snapshot_state(&self) -> Option<StateBlob> {
        None
    }

    /// Restores state produced by [`OnlineAlgorithm::snapshot_state`]
    /// into a freshly constructed instance of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Unsupported`] by default; implementations
    /// return decode/mismatch errors for incompatible blobs.
    fn restore_state(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let _ = blob;
        Err(StateError::Unsupported(format!(
            "algorithm {}",
            self.name()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_extend_concatenates() {
        let mut a = SlotOutcome {
            accepted: vec![RequestId(1)],
            rejected: vec![],
            preempted: vec![RequestId(2)],
        };
        a.extend(SlotOutcome {
            accepted: vec![RequestId(3)],
            rejected: vec![RequestId(4)],
            preempted: vec![],
        });
        assert_eq!(a.accepted, vec![RequestId(1), RequestId(3)]);
        assert_eq!(a.rejected, vec![RequestId(4)]);
        assert_eq!(a.preempted, vec![RequestId(2)]);
    }
}
