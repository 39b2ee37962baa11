//! SLOTOFF: per-slot offline re-optimization (§IV-A).
//!
//! SLOTOFF sequentially computes an allocation for each time slot by
//! solving a separate OFF-VNE instance over the *active* requests `R(t)`
//! — the paper uses PRANOS for this, a near-optimal scalable offline
//! solver built on LP relaxation of aggregated demand plus rounding.
//! PRANOS is closed source; this implementation follows its published
//! structure using our column-generation LP (§DESIGN.md §6):
//!
//! 1. aggregate the active requests per class with their *actual* total
//!    demands;
//! 2. solve the PLAN-VNE LP (warm-started with the previous slot's
//!    columns);
//! 3. round: first-fit-decreasing of individual requests into the
//!    integral columns' budgets, previously accepted requests first.
//!
//! Ongoing requests may receive a completely different allocation every
//! slot (the paper notes this gives SLOTOFF an inherent advantage);
//! rejected requests are never reconsidered. In rare rounding shortfalls
//! a previously accepted request can fail to re-place and is counted as
//! preempted.
//!
//! A per-slot master LP that ends anywhere but `Optimal` yields shares
//! that certify nothing, so the slot panics with its number, the round
//! and the status ([`crate::colgen::PlanSolveStats::ensure_optimal`])
//! instead of rounding them.
//!
//! A slot is decided as a *batch*: the LP sees all of its arrivals at
//! once and rounding goes largest demand first, so SLOTOFF does not have
//! the in-order property spelled out on
//! [`OnlineAlgorithm::process_slot`]. A second call for the same slot —
//! a sharded run's span offer, `process_slot(t, &[], &[candidate])` — is
//! an incremental re-solve in which everything the first call accepted
//! has priority over the candidate; the coordinator's commit step, which
//! hands each shard its final arrival list in one call, stays
//! authoritative.

use std::collections::BTreeMap;

use vne_model::app::AppSet;
use vne_model::embedding::Embedding;
use vne_model::ids::{ClassId, RequestId};
use vne_model::load::LoadLedger;
use vne_model::policy::PlacementPolicy;
use vne_model::request::{Request, Slot};
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};
use vne_model::substrate::SubstrateNetwork;

use crate::aggregate::AggregateDemand;
use crate::algorithm::{OnlineAlgorithm, SlotOutcome};
use crate::colgen::{solve_plan_with_columns, PlanVneConfig};

/// The SLOTOFF baseline.
#[derive(Debug, Clone)]
pub struct SlotOff {
    substrate: SubstrateNetwork,
    apps: AppSet,
    policy: PlacementPolicy,
    config: PlanVneConfig,
    loads: LoadLedger,
    /// Accepted, still-active requests.
    active: BTreeMap<RequestId, Request>,
    /// Column pool reused across slots (warm start).
    pool: Vec<(ClassId, Embedding)>,
    /// Cumulative LP statistics.
    pub total_rounds: usize,
}

impl SlotOff {
    /// Creates a SLOTOFF instance. `config.psi` should be the same
    /// rejection penalty used for cost accounting.
    pub fn new(
        substrate: SubstrateNetwork,
        apps: AppSet,
        policy: PlacementPolicy,
        config: PlanVneConfig,
    ) -> Self {
        let loads = LoadLedger::new(&substrate);
        Self {
            substrate,
            apps,
            policy,
            config,
            loads,
            active: BTreeMap::new(),
            pool: Vec::new(),
            total_rounds: 0,
        }
    }

    /// Number of active (accepted) requests.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }
}

/// Checkpointing: mutable state is the load ledger, the active
/// requests, the warm-start column pool *in its exact order* (the pool
/// seeds the next slot's LP, so resumed runs must price the same
/// columns in the same sequence to stay byte-identical) and the
/// cumulative round counter.
impl Snapshot for SlotOff {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write_blob(&self.loads.snapshot());
        // Ordered by request id (BTreeMap iteration order).
        w.write_seq(self.active.values());
        w.write_usize(self.pool.len());
        for (class, embedding) in &self.pool {
            w.write(class);
            w.write(embedding);
        }
        w.write_usize(self.total_rounds);
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let loads_blob = r.read_blob()?;
        let active_list: Vec<Request> = r.read_seq()?;
        let pool_len = r.read_usize()?;
        let mut pool = Vec::with_capacity(pool_len);
        for _ in 0..pool_len {
            let class: ClassId = r.read()?;
            let embedding: Embedding = r.read()?;
            pool.push((class, embedding));
        }
        let total_rounds = r.read_usize()?;
        r.finish()?;
        self.loads.restore(&loads_blob)?;
        self.active = active_list.into_iter().map(|r| (r.id, r)).collect();
        self.pool = pool;
        self.total_rounds = total_rounds;
        Ok(())
    }
}

impl OnlineAlgorithm for SlotOff {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn name(&self) -> &str {
        "SLOTOFF"
    }

    fn snapshot_state(&self) -> Option<StateBlob> {
        Some(Snapshot::snapshot(self))
    }

    fn restore_state(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        Snapshot::restore(self, blob)
    }

    fn process_slot(
        &mut self,
        t: Slot,
        departures: &[Request],
        arrivals: &[Request],
    ) -> SlotOutcome {
        for d in departures {
            self.active.remove(&d.id);
        }
        if self.active.is_empty() && arrivals.is_empty() {
            self.loads = LoadLedger::new(&self.substrate);
            return SlotOutcome::default();
        }

        // Candidates: ongoing accepted requests (priority) then arrivals.
        let mut old: Vec<Request> = self.active.values().cloned().collect();
        old.sort_by(|a, b| {
            b.demand
                .partial_cmp(&a.demand)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        let mut new: Vec<Request> = arrivals.to_vec();
        new.sort_by(|a, b| {
            b.demand
                .partial_cmp(&a.demand)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });

        // Per-class actual demand aggregation.
        let mut demands: BTreeMap<ClassId, f64> = BTreeMap::new();
        for r in old.iter().chain(new.iter()) {
            *demands.entry(r.class()).or_insert(0.0) += r.demand;
        }
        let aggregate = AggregateDemand::from_demands(&demands);

        // The per-slot OFF-VNE LP, warm-started from the column pool.
        let (plan, stats) = solve_plan_with_columns(
            &self.substrate,
            &self.apps,
            &self.policy,
            &aggregate,
            &self.config,
            &self.pool,
        );
        if let Err(refusal) = stats.ensure_optimal() {
            panic!("SLOTOFF slot {t}: {refusal}");
        }
        self.total_rounds += stats.rounds;
        self.pool = plan
            .iter()
            .flat_map(|cp| {
                cp.columns
                    .iter()
                    .map(move |c| (cp.class, c.embedding.clone()))
            })
            .collect();

        // Rounding: re-place everything from scratch.
        let mut ledger = LoadLedger::new(&self.substrate);
        let mut budgets: BTreeMap<ClassId, Vec<f64>> = plan
            .iter()
            .map(|cp| (cp.class, cp.columns.iter().map(|c| c.budget).collect()))
            .collect();

        let mut place = |r: &Request, ledger: &mut LoadLedger| -> bool {
            let class = r.class();
            let Some(cp) = plan.class(class) else {
                return false;
            };
            let class_budgets = budgets.get_mut(&class).expect("budgets mirror the plan");
            // First fit within budget.
            for (i, col) in cp.columns.iter().enumerate() {
                if class_budgets[i] + 1e-9 >= r.demand && ledger.fits(&col.footprint, r.demand) {
                    ledger.apply(&col.footprint, r.demand);
                    class_budgets[i] -= r.demand;
                    return true;
                }
            }
            // Over-budget fit: any column the substrate still carries
            // (the LP budget is fractional; rounding needs this slack).
            for col in cp.columns.iter() {
                if ledger.fits(&col.footprint, r.demand) {
                    ledger.apply(&col.footprint, r.demand);
                    return true;
                }
            }
            false
        };

        let mut outcome = SlotOutcome::default();
        for r in &old {
            if !place(r, &mut ledger) {
                self.active.remove(&r.id);
                outcome.preempted.push(r.id);
            }
        }
        for r in &new {
            if place(r, &mut ledger) {
                self.active.insert(r.id, r.clone());
                outcome.accepted.push(r.id);
            } else {
                outcome.rejected.push(r.id);
            }
        }
        self.loads = ledger;
        debug_assert!(self.loads.check_invariants());
        outcome
    }

    fn loads(&self) -> &LoadLedger {
        &self.loads
    }

    /// SLOTOFF re-optimizes from scratch every slot, so churn is applied
    /// by shrinking its private substrate copy: the next per-slot LP and
    /// rounding pass see the reduced capacities and preempt whatever no
    /// longer fits. [`OnlineAlgorithm::footprint_of`] stays `None` — the
    /// engine leaves stranded-request eviction to this self-healing.
    fn apply_churn(&mut self, effective: &vne_model::churn::EffectiveCapacities) {
        for (i, &cap) in effective.node.iter().enumerate() {
            self.substrate
                .node_mut(vne_model::ids::NodeId::from_index(i))
                .capacity = cap;
        }
        for (i, &cap) in effective.link.iter().enumerate() {
            self.substrate
                .link_mut(vne_model::ids::LinkId::from_index(i))
                .capacity = cap;
        }
        self.loads.set_capacities(&effective.node, &effective.link);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vne_model::app::{shapes, AppShape};
    use vne_model::ids::{AppId, NodeId};
    use vne_model::substrate::Tier;

    fn world() -> (SubstrateNetwork, AppSet) {
        let mut s = SubstrateNetwork::new("line");
        let e = s.add_node("e0", Tier::Edge, 100.0, 50.0).unwrap();
        let t = s.add_node("t1", Tier::Transport, 300.0, 10.0).unwrap();
        let c = s.add_node("c2", Tier::Core, 900.0, 1.0).unwrap();
        s.add_link(e, t, 600.0, 1.0).unwrap();
        s.add_link(t, c, 600.0, 1.0).unwrap();
        let mut apps = AppSet::new();
        apps.push(
            "chain",
            AppShape::Chain,
            shapes::uniform_chain(2, 10.0, 2.0).unwrap(),
        )
        .unwrap();
        (s, apps)
    }

    fn req(id: u64, t: Slot, dur: Slot, demand: f64) -> Request {
        Request {
            id: RequestId(id),
            arrival: t,
            duration: dur,
            ingress: NodeId(0),
            app: AppId(0),
            demand,
        }
    }

    #[test]
    fn accepts_feasible_requests() {
        let (s, apps) = world();
        let mut so = SlotOff::new(s, apps, PlacementPolicy::default(), PlanVneConfig::new(1e4));
        let out = so.process_slot(0, &[], &[req(0, 0, 5, 3.0), req(1, 0, 5, 4.0)]);
        assert_eq!(out.accepted.len(), 2);
        assert!(out.rejected.is_empty());
        assert_eq!(so.active_count(), 2);
        // The LP places on the cheap core node.
        assert!(so.loads().node_load(NodeId(2)) > 0.0);
    }

    #[test]
    fn rejects_overload_and_keeps_old_requests() {
        let (s, apps) = world();
        let mut so = SlotOff::new(s, apps, PlacementPolicy::default(), PlanVneConfig::new(1e4));
        // Slot 0: large request filling most of the substrate.
        let r0 = req(0, 0, 10, 40.0); // 800 CU on the core node
        let out0 = so.process_slot(0, &[], std::slice::from_ref(&r0));
        assert_eq!(out0.accepted.len(), 1);
        // Slot 1: another large one cannot fit; the old one must stay.
        let out1 = so.process_slot(1, &[], &[req(1, 1, 10, 40.0)]);
        assert!(out1.rejected.contains(&RequestId(1)));
        assert!(out1.preempted.is_empty());
        assert_eq!(so.active_count(), 1);
    }

    #[test]
    #[should_panic(
        expected = "SLOTOFF slot 7: PLAN-VNE master solve of round 0 ended limit reached"
    )]
    fn a_slot_master_that_stops_short_is_refused() {
        let (s, apps) = world();
        let mut config = PlanVneConfig::new(1e4);
        config.simplex.max_iterations = 0;
        let mut so = SlotOff::new(s, apps, PlacementPolicy::default(), config);
        so.process_slot(7, &[], &[req(0, 7, 5, 3.0)]);
    }

    #[test]
    fn departures_release_capacity() {
        let (s, apps) = world();
        let mut so = SlotOff::new(s, apps, PlacementPolicy::default(), PlanVneConfig::new(1e4));
        let r0 = req(0, 0, 2, 40.0);
        so.process_slot(0, &[], std::slice::from_ref(&r0));
        so.process_slot(2, std::slice::from_ref(&r0), &[]);
        let out = so.process_slot(3, &[], &[req(1, 3, 5, 40.0)]);
        assert_eq!(out.accepted.len(), 1);
    }

    #[test]
    fn reoptimizes_allocation_each_slot() {
        let (s, apps) = world();
        let mut so = SlotOff::new(s, apps, PlacementPolicy::default(), PlanVneConfig::new(1e4));
        // Many small requests over several slots; ledger is rebuilt each
        // slot and never violates capacity.
        let mut id = 0u64;
        for t in 0..5 {
            let arrivals: Vec<Request> = (0..6)
                .map(|_| {
                    id += 1;
                    req(id, t, 3, 2.0)
                })
                .collect();
            let departures: Vec<Request> = vec![];
            let out = so.process_slot(t, &departures, &arrivals);
            assert!(out.accepted.len() + out.rejected.len() == 6);
            assert!(so.loads().check_invariants());
        }
        // Warm-started pool keeps pricing rounds modest.
        assert!(so.total_rounds >= 5);
    }

    #[test]
    fn empty_slot_resets_loads() {
        let (s, apps) = world();
        let mut so = SlotOff::new(s, apps, PlacementPolicy::default(), PlanVneConfig::new(1e4));
        let r0 = req(0, 0, 1, 3.0);
        so.process_slot(0, &[], std::slice::from_ref(&r0));
        let out = so.process_slot(1, std::slice::from_ref(&r0), &[]);
        assert_eq!(out, SlotOutcome::default());
        assert_eq!(so.loads().node_load(NodeId(2)), 0.0);
    }
}
