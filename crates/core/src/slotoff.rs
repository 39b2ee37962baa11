//! SLOTOFF: per-slot offline re-optimization (§IV-A).
//!
//! SLOTOFF sequentially computes an allocation for each time slot by
//! solving a separate OFF-VNE instance over the *active* requests `R(t)`
//! — the paper uses PRANOS for this, a near-optimal scalable offline
//! solver built on LP relaxation of aggregated demand plus rounding.
//! PRANOS is closed source; this implementation follows its published
//! structure using our column-generation LP:
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
//!
//! # What a slot keeps and what it rebuilds
//!
//! The active set is kept in *rounding order* — demand descending, then
//! id ascending — the order step 3 places the previously accepted
//! requests in. A departure is found by its place in that order and
//! dropped in one pass over the set; the arrivals a slot accepts are
//! already in that order and are merged in from the back. Nothing is
//! cloned or sorted but the slot's own arrivals. Step 1 folds the active
//! requests and then the arrivals, in that same order, into a dense
//! `(app, ingress)` table, so every class's sum takes its terms in
//! rounding order. Rounding budgets are kept by plan
//! position. A snapshot still lists the active requests in id order, so
//! checkpoint bytes do not depend on how the set is kept; a restore
//! refuses a list that is not strictly ascending by id and sorts it back
//! into rounding order.
//!
//! The master problem and its solver live in a
//! [`MasterWorkspace`] that SLOTOFF keeps across slots: each slot refills
//! and reloads them in the stores the last slot left instead of
//! allocating them again, with the pivots and bits of a fresh solver. The
//! workspace holds no state: it is not in the snapshot, and a clone of
//! SLOTOFF starts with an empty one. The column pool moves into the
//! master and back out of the plan, so no embedding is cloned either.

use std::cmp::Ordering;

use vne_model::app::AppSet;
use vne_model::embedding::Embedding;
use vne_model::ids::{AppId, ClassId, NodeId};
use vne_model::load::LoadLedger;
use vne_model::policy::PlacementPolicy;
use vne_model::request::{Request, Slot};
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};
use vne_model::substrate::SubstrateNetwork;

use crate::aggregate::AggregateDemand;
use crate::algorithm::{OnlineAlgorithm, SlotOutcome};
use crate::colgen::{solve_plan_with_columns, MasterWorkspace, PlanVneConfig};

/// The SLOTOFF baseline.
#[derive(Debug, Clone)]
pub struct SlotOff {
    substrate: SubstrateNetwork,
    apps: AppSet,
    policy: PlacementPolicy,
    config: PlanVneConfig,
    loads: LoadLedger,
    /// Accepted, still-active requests, in rounding order.
    active: Vec<Request>,
    /// Column pool reused across slots (warm start).
    pool: Vec<(ClassId, Embedding)>,
    /// The per-slot master and its solver, kept for their buffers.
    master: MasterWorkspace,
    /// Cumulative LP statistics.
    pub total_rounds: usize,
}

/// Rounding order: demand descending, then id ascending.
fn rounding_order(a: &Request, b: &Request) -> Ordering {
    b.demand
        .partial_cmp(&a.demand)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.id.cmp(&b.id))
}

/// Merges `arrivals` into `active`, both in rounding order, from the back,
/// so that each request moves at most once.
fn merge_in_rounding_order(active: &mut Vec<Request>, arrivals: &[Request]) {
    let (mut i, mut j) = (active.len(), arrivals.len());
    active.extend_from_slice(arrivals);
    for k in (0..active.len()).rev() {
        if j == 0 {
            break;
        }
        if i > 0 && rounding_order(&active[i - 1], &arrivals[j - 1]).is_gt() {
            i -= 1;
            active[k] = active[i].clone();
        } else {
            j -= 1;
            active[k] = arrivals[j].clone();
        }
    }
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
            active: Vec::new(),
            pool: Vec::new(),
            master: MasterWorkspace::default(),
            total_rounds: 0,
        }
    }

    /// Number of active (accepted) requests.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Drops the departing requests from the active set in one pass.
    /// Each is found by its place in rounding order, or by id should its
    /// demand not match; an unknown id is ignored.
    fn depart(&mut self, departures: &[Request]) {
        if departures.is_empty() {
            return;
        }
        let active = &self.active;
        let mut gone: Vec<usize> = departures
            .iter()
            .filter_map(|d| {
                let at = active.partition_point(|r| rounding_order(r, d).is_lt());
                match active.get(at) {
                    Some(r) if r.id == d.id => Some(at),
                    _ => active.iter().position(|r| r.id == d.id),
                }
            })
            .collect();
        gone.sort_unstable();
        gone.dedup();
        let mut gone = gone.into_iter().peekable();
        let mut at = 0;
        self.active.retain(|_| {
            let departs = gone.next_if_eq(&at).is_some();
            at += 1;
            !departs
        });
    }

    /// The slot's actual demand per class: the active requests', then the
    /// arrivals', each in rounding order, summed into a dense
    /// `(app, ingress)` table and read out in class order.
    fn class_demands(&self, arrivals: &[Request]) -> AggregateDemand {
        let nodes = self.substrate.node_count();
        let mut demand = vec![0.0; self.apps.len() * nodes];
        for r in self.active.iter().chain(arrivals) {
            demand[r.app.index() * nodes + r.ingress.index()] += r.demand;
        }
        AggregateDemand::from_class_order(demand.into_iter().enumerate().map(|(i, d)| {
            let class = ClassId::new(AppId::from_index(i / nodes), NodeId::from_index(i % nodes));
            (class, d)
        }))
    }
}

/// Checkpointing: mutable state is the load ledger, the active
/// requests in id order, the warm-start column pool *in its exact order*
/// (the pool seeds the next slot's LP, so resumed runs must price the
/// same columns in the same sequence to stay byte-identical) and the
/// cumulative round counter. The master workspace holds no state and is
/// not written.
impl Snapshot for SlotOff {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write_blob(&self.loads.snapshot());
        let mut by_id: Vec<&Request> = self.active.iter().collect();
        by_id.sort_unstable_by_key(|r| r.id);
        w.write_seq(by_id.into_iter());
        w.write_usize(self.pool.len());
        for (class, embedding) in &self.pool {
            w.write(class);
            w.write(embedding);
        }
        w.write_usize(self.total_rounds);
        w.finish()
    }

    /// Refuses, before replacing anything, an active list that is not
    /// strictly ascending by id: out of order, or naming a request twice,
    /// which would place it twice.
    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let loads_blob = r.read_blob()?;
        let mut active: Vec<Request> = r.read_seq()?;
        let pool_len = r.read_usize()?;
        let mut pool = Vec::with_capacity(pool_len);
        for _ in 0..pool_len {
            let class: ClassId = r.read()?;
            let embedding: Embedding = r.read()?;
            pool.push((class, embedding));
        }
        let total_rounds = r.read_usize()?;
        r.finish()?;
        if let Some(pair) = active.windows(2).find(|pair| pair[0].id >= pair[1].id) {
            return Err(StateError::Corrupt(format!(
                "active requests not strictly ascending by id: {} then {}",
                pair[0].id, pair[1].id
            )));
        }
        self.loads.restore(&loads_blob)?;
        active.sort_by(rounding_order);
        self.active = active;
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
        self.depart(departures);
        if self.active.is_empty() && arrivals.is_empty() {
            self.loads = LoadLedger::new(&self.substrate);
            return SlotOutcome::default();
        }

        // Candidates: ongoing accepted requests (priority, already in
        // rounding order) then arrivals.
        let mut new: Vec<Request> = arrivals.to_vec();
        new.sort_by(rounding_order);
        let aggregate = self.class_demands(&new);

        // The per-slot OFF-VNE LP, warm-started from the column pool.
        let (plan, stats) = solve_plan_with_columns(
            &self.substrate,
            &self.apps,
            &self.policy,
            &aggregate,
            &self.config,
            std::mem::take(&mut self.pool),
            &mut self.master,
        );
        if let Err(refusal) = stats.ensure_optimal() {
            panic!("SLOTOFF slot {t}: {refusal}");
        }
        self.total_rounds += stats.rounds;

        // Rounding: re-place everything from scratch, against budgets
        // kept by plan position.
        let mut ledger = LoadLedger::new(&self.substrate);
        let mut offsets = Vec::with_capacity(plan.len() + 1);
        offsets.push(0);
        let mut budgets = Vec::with_capacity(plan.total_columns());
        for cp in plan.iter() {
            budgets.extend(cp.columns.iter().map(|c| c.budget));
            offsets.push(budgets.len());
        }

        let mut place = |r: &Request, ledger: &mut LoadLedger| -> bool {
            let Some(at) = plan.position(r.class()) else {
                return false;
            };
            let columns = &plan.class_at(at).columns;
            let class_budgets = &mut budgets[offsets[at]..offsets[at + 1]];
            // First fit within budget.
            for (i, col) in columns.iter().enumerate() {
                if class_budgets[i] + 1e-9 >= r.demand && ledger.fits(&col.footprint, r.demand) {
                    ledger.apply(&col.footprint, r.demand);
                    class_budgets[i] -= r.demand;
                    return true;
                }
            }
            // Over-budget fit: any column the substrate still carries
            // (the LP budget is fractional; rounding needs this slack).
            for col in columns {
                if ledger.fits(&col.footprint, r.demand) {
                    ledger.apply(&col.footprint, r.demand);
                    return true;
                }
            }
            false
        };

        let mut outcome = SlotOutcome::default();
        self.active.retain(|r| {
            let placed = place(r, &mut ledger);
            if !placed {
                outcome.preempted.push(r.id);
            }
            placed
        });
        new.retain(|r| {
            let placed = place(r, &mut ledger);
            if placed {
                outcome.accepted.push(r.id);
            } else {
                outcome.rejected.push(r.id);
            }
            placed
        });
        merge_in_rounding_order(&mut self.active, &new);
        debug_assert!(
            self.active
                .windows(2)
                .all(|pair| rounding_order(&pair[0], &pair[1]).is_lt()),
            "the active set is out of rounding order"
        );
        self.pool = plan
            .into_iter()
            .flat_map(|cp| {
                let class = cp.class;
                cp.columns.into_iter().map(move |c| (class, c.embedding))
            })
            .collect();
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
    use vne_model::ids::RequestId;
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

    /// Departures leave from anywhere in the rounding order, and the
    /// arrivals accepted each slot merge into it: after every slot the
    /// active set is exactly the accepted, undeparted requests, demand
    /// descending and then id ascending — the order the old per-slot
    /// clone and sort produced.
    #[test]
    fn the_active_set_stays_in_rounding_order() {
        let (s, apps) = world();
        let mut so = SlotOff::new(s, apps, PlacementPolicy::default(), PlanVneConfig::new(1e4));
        let mut expected: Vec<Request> = Vec::new();
        let mut departing: Vec<Vec<Request>> = vec![Vec::new(); 12];
        let mut id = 0;
        for t in 0..8 {
            let arrivals: Vec<Request> = (0..5)
                .map(|i| {
                    id += 1;
                    // Repeated demands, so ids break ties.
                    req(
                        id,
                        t,
                        1 + (id % 4) as Slot,
                        0.5 + f64::from((id * 7 + i) as u32 % 3),
                    )
                })
                .collect();
            let departures = std::mem::take(&mut departing[t as usize]);
            expected.retain(|r| !departures.iter().any(|d| d.id == r.id));
            let out = so.process_slot(t, &departures, &arrivals);
            expected.retain(|r| !out.preempted.contains(&r.id));
            for r in arrivals.iter().filter(|r| out.accepted.contains(&r.id)) {
                departing[r.departure() as usize].push(r.clone());
                expected.push(r.clone());
            }
            expected.sort_by(rounding_order);
            assert_eq!(so.active, expected, "slot {t}");
        }
        assert!(so.active_count() > 5);
    }

    /// The master workspace holds no state: a clone made mid-run starts
    /// with an empty one and decides every later slot as the original
    /// does, down to the snapshot bytes.
    #[test]
    fn a_clone_with_an_empty_workspace_decides_like_the_original() {
        let (s, apps) = world();
        let mut so = SlotOff::new(s, apps, PlacementPolicy::default(), PlanVneConfig::new(1e4));
        let slot = |t: Slot| -> Vec<Request> {
            (0..4)
                .map(|i| req(10 * u64::from(t) + i, t, 2, 1.0 + i as f64))
                .collect()
        };
        for t in 0..3 {
            so.process_slot(t, &[], &slot(t));
        }
        let mut clone = so.clone();
        for t in 3..6 {
            let departures = slot(t - 2);
            let ours = so.process_slot(t, &departures, &slot(t));
            assert_eq!(
                clone.process_slot(t, &departures, &slot(t)),
                ours,
                "slot {t}"
            );
            assert_eq!(
                Snapshot::snapshot(&clone).as_bytes(),
                Snapshot::snapshot(&so).as_bytes()
            );
        }
    }

    /// A copy of `blob` with its active list re-listed: entry `i` of
    /// `order` is the `i`-th request of the original list.
    fn relisted(blob: &StateBlob, order: &[usize]) -> StateBlob {
        let mut r = StateReader::new(blob);
        let loads = r.read_blob().unwrap();
        let active: Vec<Request> = r.read_seq().unwrap();
        let tail = &blob.as_bytes()[blob.len() - r.remaining()..];
        let mut w = StateWriter::new();
        w.write_blob(&loads);
        w.write_seq(order.iter().map(|&i| &active[i]));
        let mut bytes = w.finish().into_bytes();
        bytes.extend_from_slice(tail);
        StateBlob::from_bytes(bytes)
    }

    /// A checkpoint is outside input: an active list that names a
    /// request twice (it would be placed twice) or is out of id order is
    /// refused by name, and the instance is left as it was.
    #[test]
    fn restore_refuses_an_active_list_out_of_id_order() {
        let (s, apps) = world();
        let new = || {
            SlotOff::new(
                s.clone(),
                apps.clone(),
                PlacementPolicy::default(),
                PlanVneConfig::new(1e4),
            )
        };
        let mut so = new();
        so.process_slot(
            0,
            &[],
            &[req(0, 0, 5, 3.0), req(1, 0, 5, 4.0), req(2, 0, 5, 2.0)],
        );
        let blob = Snapshot::snapshot(&so);
        assert_eq!(relisted(&blob, &[0, 1, 2]).as_bytes(), blob.as_bytes());
        let mut other = new();
        other.process_slot(0, &[], &[req(7, 0, 5, 3.0)]);
        let before = Snapshot::snapshot(&other);
        for (order, named) in [
            (&[0, 1, 1, 2][..], "r1 then r1"),
            (&[2, 1, 0][..], "r2 then r1"),
        ] {
            match other.restore(&relisted(&blob, order)) {
                Err(StateError::Corrupt(why)) => assert!(why.contains(named), "{why}"),
                res => panic!("active list {order:?} was restored: {res:?}"),
            }
            assert_eq!(Snapshot::snapshot(&other).as_bytes(), before.as_bytes());
        }
        other.restore(&blob).unwrap();
        assert_eq!(Snapshot::snapshot(&other).as_bytes(), blob.as_bytes());
        // The restored set is in rounding order again: 4.0, 3.0, 2.0.
        let ids: Vec<u64> = other.active.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, [1, 0, 2]);
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
