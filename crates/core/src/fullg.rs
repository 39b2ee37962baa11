//! FULLG: the exact greedy baseline (§IV-A).
//!
//! FULLG solves, for every arriving request, an exact minimum-cost
//! embedding over the residual substrate — the paper does this with a
//! CPLEX ILP and notes it "is the best possible greedy algorithm, but it
//! does not scale well" (130× slower than QUICKG).
//!
//! Our implementation is two-stage:
//!
//! 1. the tree-DP of [`crate::pricing`] with per-element capacity
//!    filtering — exact whenever the returned embedding does not make
//!    several virtual elements jointly overload one substrate element
//!    (demands are ~10 against capacities ≥ 100K, so this is almost
//!    always the case); the joint footprint is verified explicitly;
//! 2. on verification failure, the paper's node-link ILP over the
//!    residual capacities, solved by branch-and-bound.

use std::collections::{BTreeMap, HashMap};

use vne_lp::branch_bound::{solve_mip, BranchBoundOptions};
use vne_lp::problem::{Problem, Relation, VarId};
use vne_lp::solution::SolveStatus;
use vne_model::app::AppSet;
use vne_model::embedding::{Embedding, Footprint};
use vne_model::ids::{LinkId, NodeId, RequestId};
use vne_model::load::LoadLedger;
use vne_model::policy::PlacementPolicy;
use vne_model::request::{Request, Slot};
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};
use vne_model::substrate::SubstrateNetwork;
use vne_model::vnet::VirtualNetwork;

use crate::algorithm::{OnlineAlgorithm, SlotOutcome};
use crate::pricing::{min_cost_embedding, CapacityFilter, ElementCosts};

/// Counters describing FULLG's solve paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullGStats {
    /// Requests solved by the tree-DP alone.
    pub dp_solved: usize,
    /// Requests solved by the inflated-filter DP repair.
    pub dp_repaired: usize,
    /// Requests that needed the ILP fallback.
    pub ilp_fallbacks: usize,
    /// Requests rejected.
    pub rejected: usize,
}

/// The FULLG baseline.
#[derive(Debug, Clone)]
pub struct FullG {
    substrate: SubstrateNetwork,
    apps: AppSet,
    policy: PlacementPolicy,
    loads: LoadLedger,
    active: BTreeMap<RequestId, (f64, Footprint)>,
    bb_options: BranchBoundOptions,
    stats: FullGStats,
}

impl FullG {
    /// Creates a FULLG instance.
    pub fn new(substrate: SubstrateNetwork, apps: AppSet, policy: PlacementPolicy) -> Self {
        let loads = LoadLedger::new(&substrate);
        Self {
            substrate,
            apps,
            policy,
            loads,
            active: BTreeMap::new(),
            bb_options: BranchBoundOptions {
                // Bounded effort: the fallback fires only on rare joint
                // self-interference after the DP repair stage; a tight
                // node budget keeps FULLG's worst case tractable (the
                // paper itself treats FULLG as an impractical reference).
                max_nodes: 50,
                ..BranchBoundOptions::default()
            },
            stats: FullGStats::default(),
        }
    }

    /// Solve-path counters.
    pub fn stats(&self) -> FullGStats {
        self.stats
    }

    fn handle_arrival(&mut self, r: &Request) -> bool {
        let vnet = self.apps.vnet(r.app).clone();
        let costs = ElementCosts::from_substrate(&self.substrate);
        // Stage 1: tree-DP with per-element filtering.
        match min_cost_embedding(
            &self.substrate,
            &vnet,
            &self.policy,
            r.ingress,
            &costs,
            Some(CapacityFilter {
                ledger: &self.loads,
                demand: r.demand,
            }),
        ) {
            Some((embedding, _)) => {
                let footprint = embedding.footprint(&vnet, &self.substrate, &self.policy);
                if self.loads.fits(&footprint, r.demand) {
                    self.loads.apply(&footprint, r.demand);
                    self.active.insert(r.id, (r.demand, footprint));
                    self.stats.dp_solved += 1;
                    return true;
                }
                // Joint self-interference: the DP optimum overloads a
                // shared element. Resolve by excluding, one at a time,
                // each conflicted (virtual node → substrate node)
                // assignment and re-running the DP; the cheapest
                // jointly-feasible result is taken. This recovers split
                // placements (e.g. two VNFs that cannot share one node)
                // at DP cost instead of ILP cost.
                if let Some((embedding, footprint)) =
                    self.resolve_conflict(&vnet, r, &embedding, &costs)
                {
                    let _ = embedding;
                    self.loads.apply(&footprint, r.demand);
                    self.active.insert(r.id, (r.demand, footprint));
                    self.stats.dp_repaired += 1;
                    return true;
                }
                // Bounded-effort exact fallback: the paper's node-link
                // ILP on residual capacities (a feasible incumbent is
                // accepted even if the node budget ran out first).
                self.stats.ilp_fallbacks += 1;
                if let Some(embedding) = self.solve_ilp(&vnet, r) {
                    let footprint = embedding.footprint(&vnet, &self.substrate, &self.policy);
                    if self.loads.fits(&footprint, r.demand) {
                        self.loads.apply(&footprint, r.demand);
                        self.active.insert(r.id, (r.demand, footprint));
                        return true;
                    }
                }
            }
            None => {
                // Per-element feasibility is *necessary* for any joint
                // embedding: the DP searched the superset of all jointly
                // feasible placements, so there is nothing for the ILP
                // to find. Reject outright.
            }
        }
        self.stats.rejected += 1;
        false
    }

    /// Resolves a joint self-interference conflict: for every virtual
    /// node hosted on a substrate element the joint check flagged,
    /// re-run the DP with that single assignment excluded and keep the
    /// cheapest jointly feasible alternative.
    fn resolve_conflict(
        &self,
        vnet: &VirtualNetwork,
        r: &Request,
        conflicted: &Embedding,
        costs: &ElementCosts,
    ) -> Option<(Embedding, Footprint)> {
        // Conflicted nodes: those whose aggregated load does not fit.
        let footprint = conflicted.footprint(vnet, &self.substrate, &self.policy);
        let mut bad_nodes: Vec<NodeId> = footprint
            .nodes()
            .iter()
            .filter(|&&(n, x)| x * r.demand > self.loads.node_residual(n))
            .map(|&(n, _)| n)
            .collect();
        bad_nodes.dedup();
        let mut best: Option<(Embedding, Footprint, f64)> = None;
        for (i, _) in vnet.vnodes() {
            let host = conflicted.node(i);
            if !bad_nodes.contains(&host) {
                continue;
            }
            let Some((embedding, _)) = crate::pricing::min_cost_embedding_with_exclusions(
                &self.substrate,
                vnet,
                &self.policy,
                r.ingress,
                costs,
                Some(CapacityFilter {
                    ledger: &self.loads,
                    demand: r.demand,
                }),
                &[(i, host)],
            ) else {
                continue;
            };
            let fp = embedding.footprint(vnet, &self.substrate, &self.policy);
            if !self.loads.fits(&fp, r.demand) {
                continue;
            }
            let cost = fp.cost(&self.substrate) * r.demand;
            match &best {
                Some((_, _, best_cost)) if cost >= *best_cost => {}
                _ => best = Some((embedding, fp, cost)),
            }
        }
        best.map(|(e, fp, _)| (e, fp))
    }

    /// The paper's node-link ILP for one request over residual capacity.
    fn solve_ilp(&self, vnet: &VirtualNetwork, r: &Request) -> Option<Embedding> {
        let s = &self.substrate;
        let mut p = Problem::new();
        let n_sub = s.node_count();

        // Binary placement vars; θ pinned to the ingress.
        let mut node_vars: Vec<Vec<Option<VarId>>> = vec![vec![None; n_sub]; vnet.node_count()];
        for (i, vnf) in vnet.vnodes() {
            for (v, snode) in s.nodes() {
                if i == VirtualNetwork::ROOT && v != r.ingress {
                    continue;
                }
                let Some(eta) = self.policy.node_eta(vnf, snode) else {
                    continue;
                };
                let load = r.demand * vnf.beta * eta;
                if load > 0.0 && self.loads.node_residual(v) < load {
                    continue;
                }
                let var = p.add_binary_var(format!("x-{i}-{v}"), load * snode.cost);
                node_vars[i.index()][v.index()] = Some(var);
            }
        }
        // Binary directed arc vars per virtual link.
        let mut arc_vars: Vec<Vec<(LinkId, bool, VarId)>> = vec![Vec::new(); vnet.link_count()];
        for (e, vlink) in vnet.vlinks() {
            for (l, slink) in s.links() {
                let load = r.demand * vlink.beta * self.policy.link_eta;
                if load > 0.0 && self.loads.link_residual(l) < load {
                    continue;
                }
                for forward in [true, false] {
                    let var = p.add_binary_var(
                        format!("f-{e}-{l}-{}", u8::from(forward)),
                        load * slink.cost,
                    );
                    arc_vars[e.index()].push((l, forward, var));
                }
            }
        }
        // Assignment rows.
        for (i, _) in vnet.vnodes() {
            let row = p.add_row(format!("asg-{i}"), Relation::Eq, 1.0);
            let mut any = false;
            for var in node_vars[i.index()].iter().flatten() {
                p.set_coeff(row, *var, 1.0);
                any = true;
            }
            if !any {
                return None; // some VNF has no feasible host at all
            }
        }
        // Flow conservation.
        for (e, vlink) in vnet.vlinks() {
            for v in s.node_ids() {
                let row = p.add_row(format!("cons-{e}-{v}"), Relation::Eq, 0.0);
                if let Some(yj) = node_vars[vlink.to.index()][v.index()] {
                    p.set_coeff(row, yj, 1.0);
                }
                if let Some(yi) = node_vars[vlink.from.index()][v.index()] {
                    p.set_coeff(row, yi, -1.0);
                }
                for &(l, forward, var) in &arc_vars[e.index()] {
                    let slink = s.link(l);
                    let (from, to) = if forward {
                        (slink.a, slink.b)
                    } else {
                        (slink.b, slink.a)
                    };
                    if to == v {
                        p.set_coeff(row, var, -1.0);
                    }
                    if from == v {
                        p.set_coeff(row, var, 1.0);
                    }
                }
            }
        }
        // Joint residual capacity rows.
        for (v, _) in s.nodes() {
            let row = p.add_row(
                format!("cap-{v}"),
                Relation::Le,
                self.loads.node_residual(v),
            );
            for (i, vnf) in vnet.vnodes() {
                if let Some(var) = node_vars[i.index()][v.index()] {
                    let eta = self.policy.node_eta(vnf, s.node(v)).expect("var exists");
                    let load = r.demand * vnf.beta * eta;
                    if load > 0.0 {
                        p.set_coeff(row, var, load);
                    }
                }
            }
        }
        for l in s.link_ids() {
            let row = p.add_row(
                format!("cap-{l}"),
                Relation::Le,
                self.loads.link_residual(l),
            );
            for (e, vlink) in vnet.vlinks() {
                let load = r.demand * vlink.beta * self.policy.link_eta;
                if load == 0.0 {
                    continue;
                }
                for &(al, _, var) in &arc_vars[e.index()] {
                    if al == l {
                        p.set_coeff(row, var, load);
                    }
                }
            }
        }

        let sol = solve_mip(&p, self.bb_options.clone());
        // A feasible incumbent found before the node budget ran out is
        // still a valid (if possibly non-optimal) embedding.
        let usable = sol.status == SolveStatus::Optimal
            || (sol.status == SolveStatus::Limit && !sol.x.is_empty());
        if !usable {
            return None;
        }
        // Extract the embedding.
        let mut node_map = vec![NodeId(0); vnet.node_count()];
        for (i, _) in vnet.vnodes() {
            let v = (0..n_sub).find(|&v| {
                node_vars[i.index()][v]
                    .map(|var| sol.x[var.0] > 0.5)
                    .unwrap_or(false)
            })?;
            node_map[i.index()] = NodeId::from_index(v);
        }
        let mut link_paths = vec![Vec::new(); vnet.link_count()];
        for (e, vlink) in vnet.vlinks() {
            let from = node_map[vlink.from.index()];
            let to = node_map[vlink.to.index()];
            // Walk selected arcs from `from` to `to`.
            let mut arcs: HashMap<NodeId, (NodeId, LinkId)> = HashMap::new();
            for &(l, forward, var) in &arc_vars[e.index()] {
                if sol.x[var.0] > 0.5 {
                    let slink = s.link(l);
                    let (a, b) = if forward {
                        (slink.a, slink.b)
                    } else {
                        (slink.b, slink.a)
                    };
                    arcs.insert(a, (b, l));
                }
            }
            let mut cur = from;
            let mut path = Vec::new();
            let mut guard = 0;
            while cur != to {
                let (next, l) = arcs.get(&cur)?;
                path.push(*l);
                cur = *next;
                guard += 1;
                if guard > s.node_count() {
                    return None; // malformed flow (should not happen)
                }
            }
            link_paths[e.index()] = path;
        }
        let embedding = Embedding::new(node_map, link_paths);
        embedding
            .validate(vnet, s, &self.policy)
            .ok()
            .map(|()| embedding)
    }
}

/// Checkpointing: mutable state is the load ledger, the active
/// allocations (demand + footprint per request) and the solve-path
/// counters; the branch-and-bound options are construction inputs.
impl Snapshot for FullG {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write_blob(&self.loads.snapshot());
        // Ordered by request id (BTreeMap iteration order).
        w.write_usize(self.active.len());
        for (id, (demand, footprint)) in &self.active {
            w.write(id);
            w.write_f64(*demand);
            w.write(footprint);
        }
        for count in [
            self.stats.dp_solved,
            self.stats.dp_repaired,
            self.stats.ilp_fallbacks,
            self.stats.rejected,
        ] {
            w.write_usize(count);
        }
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let loads_blob = r.read_blob()?;
        let count = r.read_usize()?;
        let mut active = BTreeMap::new();
        for _ in 0..count {
            let id: RequestId = r.read()?;
            let demand = r.read_f64()?;
            let footprint: Footprint = r.read()?;
            active.insert(id, (demand, footprint));
        }
        let stats = FullGStats {
            dp_solved: r.read_usize()?,
            dp_repaired: r.read_usize()?,
            ilp_fallbacks: r.read_usize()?,
            rejected: r.read_usize()?,
        };
        r.finish()?;
        self.loads.restore(&loads_blob)?;
        self.active = active;
        self.stats = stats;
        Ok(())
    }
}

impl OnlineAlgorithm for FullG {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn name(&self) -> &str {
        "FULLG"
    }

    fn snapshot_state(&self) -> Option<StateBlob> {
        Some(Snapshot::snapshot(self))
    }

    fn restore_state(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        Snapshot::restore(self, blob)
    }

    fn process_slot(
        &mut self,
        _t: Slot,
        departures: &[Request],
        arrivals: &[Request],
    ) -> SlotOutcome {
        let mut outcome = SlotOutcome::default();
        for d in departures {
            if let Some((demand, footprint)) = self.active.remove(&d.id) {
                self.loads.remove(&footprint, demand);
            }
        }
        for r in arrivals {
            if self.handle_arrival(r) {
                outcome.accepted.push(r.id);
            } else {
                outcome.rejected.push(r.id);
            }
        }
        debug_assert!(self.loads.check_invariants());
        outcome
    }

    fn loads(&self) -> &LoadLedger {
        &self.loads
    }

    fn apply_churn(&mut self, effective: &vne_model::churn::EffectiveCapacities) {
        self.loads.set_capacities(&effective.node, &effective.link);
    }

    fn footprint_of(&self, id: RequestId) -> Option<&Footprint> {
        self.active.get(&id).map(|(_, fp)| fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vne_model::app::{shapes, AppShape};
    use vne_model::ids::AppId;
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

    fn req(id: u64, demand: f64) -> Request {
        Request {
            id: RequestId(id),
            arrival: 0,
            duration: 10,
            ingress: NodeId(0),
            app: AppId(0),
            demand,
        }
    }

    #[test]
    fn accepts_and_places_optimally() {
        let (s, apps) = world();
        let mut fullg = FullG::new(s, apps, PlacementPolicy::default());
        let out = fullg.process_slot(0, &[], &[req(0, 3.0)]);
        assert_eq!(out.accepted.len(), 1);
        assert_eq!(fullg.stats().dp_solved, 1);
        // Optimal spot is c2 (cheapest): 2 VNFs × β10 × demand 3 = 60 CU.
        assert_eq!(fullg.loads().node_load(NodeId(2)), 60.0);
    }

    #[test]
    fn spreads_across_nodes_unlike_quickg() {
        // Make the cheap node too small for both VNFs but able to take
        // one; FULLG (no collocation constraint) splits, QUICKG cannot.
        let mut s = SubstrateNetwork::new("split");
        let e = s.add_node("e0", Tier::Edge, 500.0, 50.0).unwrap();
        let a = s.add_node("a", Tier::Core, 35.0, 1.0).unwrap();
        let b = s.add_node("b", Tier::Core, 35.0, 2.0).unwrap();
        s.add_link(e, a, 1000.0, 1.0).unwrap();
        s.add_link(a, b, 1000.0, 1.0).unwrap();
        let mut apps = AppSet::new();
        apps.push(
            "chain",
            AppShape::Chain,
            shapes::uniform_chain(2, 10.0, 1.0).unwrap(),
        )
        .unwrap();
        let mut fullg = FullG::new(s.clone(), apps.clone(), PlacementPolicy::default());
        // Demand 3: each VNF needs 30 CU; neither core node fits 60.
        let out = fullg.process_slot(0, &[], &[req(0, 3.0)]);
        assert_eq!(out.accepted.len(), 1);
        assert!(fullg.loads().node_load(NodeId(1)) > 0.0);
        assert!(fullg.loads().node_load(NodeId(2)) > 0.0);
        // QUICKG on the same instance places both VNFs on e0 (the only
        // node fitting 60 CU) at much higher cost.
        let mut quickg = crate::olive::Olive::quickg(s, apps, PlacementPolicy::default());
        let qout = quickg.process_slot(0, &[], &[req(0, 3.0)]);
        assert_eq!(qout.accepted.len(), 1);
        assert_eq!(quickg.loads().node_load(NodeId(0)), 60.0);
    }

    #[test]
    fn rejects_when_infeasible() {
        let (s, apps) = world();
        let mut fullg = FullG::new(s, apps, PlacementPolicy::default());
        // Demand 200 ⇒ 2000 CU per VNF pair: nothing fits.
        let out = fullg.process_slot(0, &[], &[req(0, 200.0)]);
        assert_eq!(out.rejected.len(), 1);
        assert_eq!(fullg.stats().rejected, 1);
    }

    #[test]
    fn departures_free_capacity() {
        let (s, apps) = world();
        let mut fullg = FullG::new(s, apps, PlacementPolicy::default());
        let r = req(0, 40.0); // 800 CU on c2: fills most of it
        fullg.process_slot(0, &[], std::slice::from_ref(&r));
        assert_eq!(fullg.loads().node_load(NodeId(2)), 800.0);
        let out = fullg.process_slot(1, &[], &[req(1, 40.0)]);
        // Second giant request cannot fit on c2 alongside the first.
        assert!(out.accepted.is_empty() || fullg.loads().node_load(NodeId(1)) > 0.0);
        fullg.process_slot(2, &[r], &[]);
        let out2 = fullg.process_slot(3, &[], &[req(2, 40.0)]);
        assert_eq!(out2.accepted.len(), 1);
    }

    #[test]
    fn gpu_requests_split_across_gpu_and_standard_nodes() {
        let (mut s, _) = world();
        s.node_mut(NodeId(1)).gpu = true;
        let mut apps = AppSet::new();
        apps.push(
            "gpu",
            AppShape::Gpu,
            shapes::gpu_chain(2, 10.0, 2.0, 1).unwrap(),
        )
        .unwrap();
        let mut fullg = FullG::new(s, apps, PlacementPolicy::default());
        let out = fullg.process_slot(0, &[], &[req(0, 2.0)]);
        assert_eq!(out.accepted.len(), 1);
        // GPU VNF on t1 (the GPU node): 20 CU there.
        assert_eq!(fullg.loads().node_load(NodeId(1)), 20.0);
    }
}
