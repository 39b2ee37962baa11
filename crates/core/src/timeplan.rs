//! Time-varying plans (the paper's §VI future-work extension).
//!
//! The base OLIVE plan is time-independent: one expected demand per
//! class, estimated over the whole history. When demand has a known
//! cyclic structure (e.g. commuter traffic alternating between
//! residential and business districts), a single plan over-provisions
//! both phases. A [`TimeVaryingPlan`] holds one PLAN-VNE solution per
//! *period* of a cycle; [`TimedOlive`] swaps the active plan at period
//! boundaries (carried-over allocations are demoted to borrowers, so the
//! incoming period's guarantees start intact).

use rand::Rng;
use vne_model::app::AppSet;
use vne_model::load::LoadLedger;
use vne_model::policy::PlacementPolicy;
use vne_model::request::{Request, Slot};
use vne_model::substrate::SubstrateNetwork;
use vne_workload::estimator::{DemandEstimator, ExactEstimator};

use crate::aggregate::{AggregateDemand, AggregationConfig};
use crate::algorithm::{OnlineAlgorithm, SlotOutcome};
use crate::colgen::{solve_plan, PlanVneConfig};
use crate::olive::{Olive, OliveConfig};
use crate::plan::Plan;

/// A cyclic schedule of plans: period `i` covers slots
/// `[i·period_length, (i+1)·period_length)` modulo the cycle.
#[derive(Debug, Clone)]
pub struct TimeVaryingPlan {
    period_length: Slot,
    plans: Vec<Plan>,
}

impl TimeVaryingPlan {
    /// Creates a schedule from explicit per-period plans.
    ///
    /// # Panics
    ///
    /// Panics if `plans` is empty or `period_length == 0`.
    pub fn new(period_length: Slot, plans: Vec<Plan>) -> Self {
        assert!(period_length > 0, "period length must be positive");
        assert!(!plans.is_empty(), "need at least one plan");
        Self {
            period_length,
            plans,
        }
    }

    /// Number of periods in the cycle.
    pub fn periods(&self) -> usize {
        self.plans.len()
    }

    /// Length of one period in slots.
    pub fn period_length(&self) -> Slot {
        self.period_length
    }

    /// The period index active at slot `t`.
    pub fn period_at(&self, t: Slot) -> usize {
        ((t / self.period_length) as usize) % self.plans.len()
    }

    /// The plan active at slot `t`.
    pub fn plan_at(&self, t: Slot) -> &Plan {
        &self.plans[self.period_at(t)]
    }

    /// Builds a schedule from a history *stream*: the slot events are
    /// folded through an [`ExactEstimator`] — the same estimator that
    /// drives single-plan construction — the demand series is sliced
    /// into phase-aligned periods (slot `t` of the history contributes
    /// to phase `(t / period_length) % periods`), and PLAN-VNE is solved
    /// per phase. Nothing on this path pre-collects the trace.
    #[allow(clippy::too_many_arguments)]
    pub fn from_stream<I, R>(
        substrate: &SubstrateNetwork,
        apps: &AppSet,
        policy: &PlacementPolicy,
        events: I,
        history_slots: Slot,
        period_length: Slot,
        periods: usize,
        plan_config: &PlanVneConfig,
        aggregation: &AggregationConfig,
        rng: &mut R,
    ) -> Self
    where
        I: IntoIterator<Item = vne_model::request::SlotEvents>,
        R: Rng + ?Sized,
    {
        assert!(periods >= 1, "need at least one period");
        let mut estimator = ExactEstimator::new(history_slots, *aggregation);
        for ev in events {
            estimator.observe_slot(&ev);
        }
        let mut plans = Vec::with_capacity(periods);
        for phase in 0..periods {
            let phase_series = estimator
                .series()
                .phase_slice(period_length, periods, phase);
            let aggregate = if phase_series.slots() == 0 {
                AggregateDemand::default()
            } else {
                AggregateDemand::from_demands(&phase_series.expected_demands(
                    aggregation.alpha,
                    aggregation.bootstrap_replicates,
                    rng,
                ))
            };
            let (plan, _) = solve_plan(substrate, apps, policy, &aggregate, plan_config);
            plans.push(plan);
        }
        Self::new(period_length, plans)
    }
}

/// OLIVE with a time-varying plan: at every period boundary the active
/// plan is swapped in via [`Olive::adopt_plan`].
#[derive(Debug, Clone)]
pub struct TimedOlive {
    inner: Olive,
    schedule: TimeVaryingPlan,
    current_period: usize,
}

impl TimedOlive {
    /// Creates a timed OLIVE starting in period 0.
    pub fn new(
        substrate: SubstrateNetwork,
        apps: AppSet,
        policy: PlacementPolicy,
        schedule: TimeVaryingPlan,
        config: OliveConfig,
    ) -> Self {
        let first = schedule.plan_at(0).clone();
        Self {
            inner: Olive::new(substrate, apps, policy, first, config),
            schedule,
            current_period: 0,
        }
    }

    /// The underlying OLIVE instance.
    pub fn inner(&self) -> &Olive {
        &self.inner
    }

    /// The period currently in force.
    pub fn current_period(&self) -> usize {
        self.current_period
    }
}

impl OnlineAlgorithm for TimedOlive {
    fn name(&self) -> &str {
        "OLIVE-T"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn process_slot(
        &mut self,
        t: Slot,
        departures: &[Request],
        arrivals: &[Request],
    ) -> SlotOutcome {
        let period = self.schedule.period_at(t);
        if period != self.current_period {
            self.inner.adopt_plan(self.schedule.plan_at(t).clone());
            self.current_period = period;
        }
        self.inner.process_slot(t, departures, arrivals)
    }

    fn loads(&self) -> &LoadLedger {
        self.inner.loads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vne_model::app::{shapes, AppShape};
    use vne_model::ids::{AppId, ClassId, NodeId, RequestId};
    use vne_model::substrate::Tier;

    fn world() -> (SubstrateNetwork, AppSet) {
        let mut s = SubstrateNetwork::new("pair");
        let e0 = s.add_node("e0", Tier::Edge, 500.0, 50.0).unwrap();
        let e1 = s.add_node("e1", Tier::Edge, 500.0, 50.0).unwrap();
        let c = s.add_node("c", Tier::Core, 400.0, 1.0).unwrap();
        s.add_link(e0, c, 5000.0, 1.0).unwrap();
        s.add_link(e1, c, 5000.0, 1.0).unwrap();
        let mut apps = AppSet::new();
        apps.push(
            "f",
            AppShape::Chain,
            shapes::uniform_chain(1, 10.0, 1.0).unwrap(),
        )
        .unwrap();
        (s, apps)
    }

    fn plan_for(s: &SubstrateNetwork, apps: &AppSet, node: u32, demand: f64) -> Plan {
        let mut m = BTreeMap::new();
        m.insert(ClassId::new(AppId(0), NodeId(node)), demand);
        let (plan, _) = solve_plan(
            s,
            apps,
            &PlacementPolicy::default(),
            &AggregateDemand::from_demands(&m),
            &PlanVneConfig::new(1e4),
        );
        plan
    }

    fn req(id: u64, t: Slot, node: u32, demand: f64) -> Request {
        Request {
            id: RequestId(id),
            arrival: t,
            duration: 5,
            ingress: NodeId(node),
            app: AppId(0),
            demand,
        }
    }

    #[test]
    fn schedule_cycles_through_periods() {
        let (s, apps) = world();
        let p0 = plan_for(&s, &apps, 0, 30.0);
        let p1 = plan_for(&s, &apps, 1, 30.0);
        let tv = TimeVaryingPlan::new(10, vec![p0, p1]);
        assert_eq!(tv.periods(), 2);
        assert_eq!(tv.period_at(0), 0);
        assert_eq!(tv.period_at(9), 0);
        assert_eq!(tv.period_at(10), 1);
        assert_eq!(tv.period_at(25), 0); // wraps around
    }

    #[test]
    fn timed_olive_swaps_plans_at_boundaries() {
        let (s, apps) = world();
        let p0 = plan_for(&s, &apps, 0, 30.0);
        let p1 = plan_for(&s, &apps, 1, 30.0);
        let tv = TimeVaryingPlan::new(10, vec![p0, p1]);
        let mut alg = TimedOlive::new(
            s,
            apps,
            PlacementPolicy::default(),
            tv,
            OliveConfig::default(),
        );
        assert_eq!(alg.current_period(), 0);
        // Slot 0: class (app0, e0) is planned in period 0.
        let out = alg.process_slot(0, &[], &[req(0, 0, 0, 5.0)]);
        assert_eq!(out.accepted.len(), 1);
        assert!(alg.inner().is_planned(RequestId(0)));
        // Slot 10: period 1 takes over; the old allocation is demoted.
        let out = alg.process_slot(10, &[], &[req(1, 10, 1, 5.0)]);
        assert_eq!(alg.current_period(), 1);
        assert_eq!(out.accepted.len(), 1);
        assert!(alg.inner().is_planned(RequestId(1)));
        assert!(!alg.inner().is_planned(RequestId(0)));
    }

    #[test]
    fn from_stream_builds_phase_specific_plans() {
        // Demand alternates between e0 (even periods) and e1 (odd):
        // the schedule should guarantee e0's class in phase 0 and e1's
        // in phase 1.
        let (s, apps) = world();
        let mut history = Vec::new();
        let mut id = 0;
        for t in 0..200u32 {
            let phase = (t / 10) % 2;
            let node = if phase == 0 { 0 } else { 1 };
            for _ in 0..3 {
                history.push(req(id, t, node, 8.0));
                id += 1;
            }
        }
        let mut rng = vne_workload::rng::SeededRng::new(1);
        let tv = TimeVaryingPlan::from_stream(
            &s,
            &apps,
            &PlacementPolicy::default(),
            vne_model::request::slot_events(&history, 200),
            200,
            10,
            2,
            &PlanVneConfig::new(1e4),
            &AggregationConfig {
                alpha: 80.0,
                bootstrap_replicates: 20,
            },
            &mut rng,
        );
        let c0 = ClassId::new(AppId(0), NodeId(0));
        let c1 = ClassId::new(AppId(0), NodeId(1));
        let g0_phase0 = tv
            .plan_at(0)
            .class(c0)
            .map(|c| c.guaranteed_demand())
            .unwrap_or(0.0);
        let g1_phase1 = tv
            .plan_at(10)
            .class(c1)
            .map(|c| c.guaranteed_demand())
            .unwrap_or(0.0);
        assert!(g0_phase0 > 20.0, "phase-0 guarantee for e0: {g0_phase0}");
        assert!(g1_phase1 > 20.0, "phase-1 guarantee for e1: {g1_phase1}");
        // Cross-phase demand is residual (active requests spill a few
        // slots across the boundary).
        let g0_phase1 = tv
            .plan_at(10)
            .class(c0)
            .map(|c| c.guaranteed_demand())
            .unwrap_or(0.0);
        assert!(
            g0_phase1 < g0_phase0 / 2.0,
            "cross-phase: {g0_phase1} vs {g0_phase0}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one plan")]
    fn empty_schedule_rejected() {
        TimeVaryingPlan::new(10, vec![]);
    }
}
