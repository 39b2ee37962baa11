//! Time-aggregation of the request history (§III-A, Eqs. 5–6).
//!
//! The history `R_HIST` is grouped by class `(application, ingress)` and
//! aggregated over time: the expected demand of a class is the
//! bootstrap-estimated `P̂_α` of its per-slot concurrent demand (α = 80
//! by default, trading peak coverage against over-provisioning). The
//! result is the input of PLAN-VNE.
//!
//! Aggregation is a *fold*: [`AggregateDemand::from_stream`] consumes a
//! slot-event stream through an [`ExactEstimator`], so the planning
//! phase never materializes the history. The estimator owns the series,
//! the bootstrap and its `AggregationConfig` (all in
//! [`vne_workload::estimator`]); this module only turns the finalized
//! per-class demands into PLAN-VNE's input.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use vne_model::ids::ClassId;
use vne_model::request::SlotEvents;
use vne_workload::estimator::ExactEstimator;
use vne_workload::rng::SeededRng;

/// One aggregated request `r̃_{a,v}` with its expected demand `d(r̃)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregateRequest {
    /// The class `(a, v)`.
    pub class: ClassId,
    /// Expected aggregated demand `d(r̃)` (splittable in the plan).
    pub demand: f64,
}

/// The aggregated expected demand `R̃` for PLAN-VNE.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AggregateDemand {
    requests: Vec<AggregateRequest>,
}

impl AggregateDemand {
    /// Aggregates a history *stream* through an [`ExactEstimator`]
    /// (Eq. 5–6) — the planning input is folded one slot at a time, so
    /// nothing on this path materializes the trace.
    ///
    /// Classes whose expected demand rounds to zero are dropped — they
    /// carry no plan and their requests fall through to the non-planned
    /// mechanisms online.
    pub fn from_stream<I>(events: I, estimator: &mut ExactEstimator, rng: &mut SeededRng) -> Self
    where
        I: IntoIterator<Item = SlotEvents>,
    {
        estimator.observe_all(events);
        Self::from_demands(&estimator.finalize(rng))
    }

    /// Builds the aggregate from explicit per-class demands.
    pub fn from_demands(demands: &BTreeMap<ClassId, f64>) -> Self {
        Self::from_class_order(demands.iter().map(|(&class, &demand)| (class, demand)))
    }

    /// [`AggregateDemand::from_demands`] of per-class demands given in
    /// strictly ascending class order.
    pub fn from_class_order(demands: impl IntoIterator<Item = (ClassId, f64)>) -> Self {
        let requests: Vec<AggregateRequest> = demands
            .into_iter()
            .filter(|&(_, d)| d > 1e-9)
            .map(|(class, demand)| AggregateRequest { class, demand })
            .collect();
        debug_assert!(
            requests.windows(2).all(|w| w[0].class < w[1].class),
            "classes must come in strictly ascending order"
        );
        Self { requests }
    }

    /// The aggregated requests, sorted by class.
    pub fn requests(&self) -> &[AggregateRequest] {
        &self.requests
    }

    /// Number of non-empty classes.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether no class has demand (the "empty plan" of QUICKG).
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The expected demand of a class (0 if absent).
    pub fn demand(&self, class: ClassId) -> f64 {
        self.requests
            .binary_search_by_key(&class, |r| r.class)
            .map(|i| self.requests[i].demand)
            .unwrap_or(0.0)
    }

    /// Total expected demand over all classes.
    pub fn total_demand(&self) -> f64 {
        self.requests.iter().map(|r| r.demand).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vne_model::ids::{AppId, NodeId, RequestId};
    use vne_model::request::{slot_events, Request, Slot};
    use vne_workload::estimator::AggregationConfig;
    use vne_workload::rng::SeededRng;

    fn req(id: u64, arrival: Slot, duration: Slot, node: u32, app: u32, demand: f64) -> Request {
        Request {
            id: RequestId(id),
            arrival,
            duration,
            ingress: NodeId(node),
            app: AppId(app),
            demand,
        }
    }

    /// The exact (dense + bootstrap) aggregate of a hand-written history.
    fn exact(history: &[Request], slots: Slot, seed: u64) -> AggregateDemand {
        AggregateDemand::from_stream(
            slot_events(history, slots),
            &mut ExactEstimator::new(slots, AggregationConfig::default()),
            &mut SeededRng::new(seed),
        )
    }

    #[test]
    fn constant_demand_aggregates_exactly() {
        // One class with constant concurrent demand 8 over all slots.
        let history = vec![req(0, 0, 100, 1, 0, 8.0)];
        let agg = exact(&history, 100, 1);
        assert_eq!(agg.len(), 1);
        let c = ClassId::new(AppId(0), NodeId(1));
        assert!((agg.demand(c) - 8.0).abs() < 1e-9);
        assert!((agg.total_demand() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_sits_between_low_and_peak() {
        // Demand alternates: 10 for 80% of slots (req active), 0 for 20%.
        let mut history = Vec::new();
        for i in 0..80 {
            history.push(req(i, i as Slot, 1, 1, 0, 10.0));
        }
        let agg = exact(&history, 100, 2);
        let d = agg.demand(ClassId::new(AppId(0), NodeId(1)));
        // P80 of a series that is 10 in 80 slots and 0 in 20: around the
        // jump point; bootstrap smooths it into (0, 10].
        assert!(d > 0.0 && d <= 10.0, "demand {d}");
    }

    #[test]
    fn classes_are_separated() {
        let history = vec![
            req(0, 0, 10, 1, 0, 3.0),
            req(1, 0, 10, 1, 1, 4.0),
            req(2, 0, 10, 2, 0, 5.0),
        ];
        let agg = exact(&history, 10, 3);
        assert_eq!(agg.len(), 3);
        assert!((agg.demand(ClassId::new(AppId(1), NodeId(1))) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_demand_classes_dropped() {
        let mut demands = BTreeMap::new();
        demands.insert(ClassId::new(AppId(0), NodeId(0)), 0.0);
        demands.insert(ClassId::new(AppId(0), NodeId(1)), 2.0);
        let agg = AggregateDemand::from_demands(&demands);
        assert_eq!(agg.len(), 1);
        assert!(!agg.is_empty());
        assert_eq!(agg.demand(ClassId::new(AppId(0), NodeId(0))), 0.0);
    }

    #[test]
    fn empty_history_gives_empty_plan_input() {
        let agg = exact(&[], 10, 4);
        assert!(agg.is_empty());
        assert_eq!(agg.total_demand(), 0.0);
    }
}
