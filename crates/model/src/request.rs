//! Online embedding requests.
//!
//! A request `r` arrives at slot `t(r)` at ingress `v(r)` for application
//! `a(r)` with demand `d(r)`, and stays active for `T(r)` slots
//! (`t(r) ≤ t < t(r)+T(r)`). Durations are known to the system only upon
//! departure; the simulator carries them for bookkeeping.

use serde::{Deserialize, Serialize};

use crate::churn::ChurnEvent;
use crate::ids::{AppId, ClassId, NodeId, RequestId};
use crate::state::{StateDecode, StateEncode, StateError, StateReader, StateWriter};

/// A discrete time slot index (`t ∈ T`).
pub type Slot = u32;

/// An online request to embed an application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Unique id, also encoding arrival order (ids are assigned in
    /// non-decreasing arrival time by trace generators).
    pub id: RequestId,
    /// Arrival slot `t(r)`.
    pub arrival: Slot,
    /// Duration in slots `T(r) ≥ 1`; the request is active for
    /// `arrival ≤ t < arrival + duration`.
    pub duration: Slot,
    /// Ingress substrate node `v(r)` (the user's location).
    pub ingress: NodeId,
    /// Requested application `a(r)`.
    pub app: AppId,
    /// Demand size `d(r) > 0`.
    pub demand: f64,
}

/// The arrivals of one time slot, as produced by a (possibly lazy)
/// trace source and consumed by the simulation engine.
///
/// Streams of `SlotEvents` are the unit of the event-driven simulator:
/// a trace is an `Iterator<Item = SlotEvents>` yielding one item per
/// slot (empty `arrivals` for quiet slots), so a simulation only ever
/// materializes the requests of the slot being processed plus the
/// currently active ones — memory stays `O(active)` instead of
/// `O(trace length)`. Arrivals must be listed in the ON-VNE processing
/// order (ascending [`RequestId`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SlotEvents {
    /// The slot these events belong to. Streams yield strictly
    /// increasing, contiguous slots starting at 0.
    pub slot: Slot,
    /// The requests arriving in this slot, in processing order.
    pub arrivals: Vec<Request>,
    /// Substrate churn taking effect at the start of this slot, applied
    /// before `arrivals` are offered (empty on a static substrate).
    pub churn: Vec<ChurnEvent>,
}

impl SlotEvents {
    /// An empty slot (no arrivals, no churn).
    pub fn empty(slot: Slot) -> Self {
        Self {
            slot,
            arrivals: Vec::new(),
            churn: Vec::new(),
        }
    }
}

/// Adapts a pre-collected trace into a slot-event stream: arrivals
/// bucketed per slot (sorted by id within a slot, the ON-VNE order),
/// one event per slot in `0..slots`, arrivals at or past the horizon
/// dropped.
///
/// This is `O(trace)` memory by construction — it is the bridge from a
/// hand-written `&[Request]` to the stream format; lazy trace
/// generators yield [`SlotEvents`] directly.
pub fn slot_events(trace: &[Request], slots: Slot) -> impl Iterator<Item = SlotEvents> {
    let mut arrivals_at: Vec<Vec<Request>> = vec![Vec::new(); slots as usize];
    for r in trace {
        if r.arrival < slots {
            arrivals_at[r.arrival as usize].push(r.clone());
        }
    }
    for bucket in &mut arrivals_at {
        bucket.sort_by_key(|r| r.id);
    }
    arrivals_at
        .into_iter()
        .enumerate()
        .map(|(t, arrivals)| SlotEvents {
            slot: t as Slot,
            arrivals,
            churn: Vec::new(),
        })
}

impl StateEncode for SlotEvents {
    fn encode(&self, w: &mut StateWriter) {
        w.write_u32(self.slot);
        w.write(&self.arrivals);
        w.write(&self.churn);
    }
}

impl StateDecode for SlotEvents {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(Self {
            slot: r.read_u32()?,
            arrivals: r.read()?,
            churn: r.read()?,
        })
    }
}

impl Request {
    /// The slot at which the request departs (first slot it is inactive).
    pub fn departure(&self) -> Slot {
        self.arrival + self.duration
    }

    /// Whether the request is active at slot `t`.
    pub fn active_at(&self, t: Slot) -> bool {
        self.arrival <= t && t < self.departure()
    }

    /// The request's class `(a(r), v(r))` (Eq. 5).
    pub fn class(&self) -> ClassId {
        ClassId::new(self.app, self.ingress)
    }

    /// The rejection cost `Ψ(r) = ψ · d(r) · T(r)` for a penalty factor ψ.
    pub fn rejection_cost(&self, psi: f64) -> f64 {
        psi * self.demand * f64::from(self.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> Request {
        Request {
            id: RequestId(1),
            arrival: 10,
            duration: 4,
            ingress: NodeId(2),
            app: AppId(0),
            demand: 3.5,
        }
    }

    #[test]
    fn activity_window_is_half_open() {
        let r = req();
        assert!(!r.active_at(9));
        assert!(r.active_at(10));
        assert!(r.active_at(13));
        assert!(!r.active_at(14));
        assert_eq!(r.departure(), 14);
    }

    #[test]
    fn class_combines_app_and_ingress() {
        let r = req();
        assert_eq!(r.class(), ClassId::new(AppId(0), NodeId(2)));
    }

    #[test]
    fn rejection_cost_scales_with_demand_and_duration() {
        let r = req();
        assert_eq!(r.rejection_cost(2.0), 2.0 * 3.5 * 4.0);
        assert_eq!(r.rejection_cost(0.0), 0.0);
    }
}
