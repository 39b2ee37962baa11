//! The direct arc formulation of PLAN-VNE (Fig. 4 of the paper).
//!
//! This is the LP exactly as published: per class, fractional placement
//! variables `y_v^i`, directed per-arc flow variables `y_{uv}^{ij}` with
//! flow conservation (14), root pinning (11)/(13), rejection quantiles
//! (12), and shared capacity rows (15). It scales to small instances only
//! (the row count grows with `|classes| · |G_a| · |V_S|`), so production
//! code uses [`crate::colgen`]; this module exists as the faithful
//! reference implementation and cross-validation oracle — both solvers
//! must agree on the optimal objective.

use std::collections::HashMap;

use vne_lp::problem::{Problem, Relation, VarId};
use vne_lp::simplex::{Simplex, SimplexOptions};
use vne_lp::solution::SolveStatus;
use vne_model::app::AppSet;
use vne_model::ids::{ClassId, LinkId, NodeId, VlinkId, VnodeId};
use vne_model::policy::PlacementPolicy;
use vne_model::substrate::SubstrateNetwork;
use vne_model::vnet::VirtualNetwork;

use crate::aggregate::AggregateDemand;
use crate::colgen::PlanVneConfig;

/// The fractional solution of one class in arc form.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcClassSolution {
    /// The class.
    pub class: ClassId,
    /// Expected demand `d(r̃)`.
    pub demand: f64,
    /// `node_fracs[i][v]` = `y_v^i`: fraction of the class demand placing
    /// virtual node `i` on substrate node `v`.
    pub node_fracs: Vec<Vec<f64>>,
    /// `arc_flows[e]`: directed flow of virtual link `e` per `(u, v)`
    /// substrate node pair (over an existing link).
    pub arc_flows: Vec<HashMap<(NodeId, NodeId), f64>>,
    /// Rejected fraction `Σ_p y_p`.
    pub rejected: f64,
}

/// The full arc-form PLAN-VNE solution.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcPlanSolution {
    /// Objective value (resource cost + quantile rejection cost).
    pub objective: f64,
    /// Per-class fractional solutions.
    pub classes: Vec<ArcClassSolution>,
}

/// Solves the Fig. 4 LP directly.
///
/// # Panics
///
/// Panics if the LP solver fails to prove optimality (the LP is always
/// feasible: full rejection satisfies every row).
pub fn solve_arc_lp(
    substrate: &SubstrateNetwork,
    apps: &AppSet,
    policy: &PlacementPolicy,
    aggregate: &AggregateDemand,
    config: &PlanVneConfig,
) -> ArcPlanSolution {
    let mut p = Problem::new();
    let n_sub = substrate.node_count();

    // Shared capacity rows (15).
    let node_rows: Vec<_> = substrate
        .nodes()
        .map(|(id, n)| p.add_row(format!("cap-{id}"), Relation::Le, n.capacity))
        .collect();
    let link_rows: Vec<_> = substrate
        .links()
        .map(|(id, l)| p.add_row(format!("cap-{id}"), Relation::Le, l.capacity))
        .collect();

    struct ClassVars {
        node_vars: Vec<Vec<Option<VarId>>>,
        // arc vars per vlink: (link, forward a→b?) → var
        arc_vars: Vec<Vec<(LinkId, bool, VarId)>>,
        quantile_vars: Vec<VarId>,
    }
    let mut class_vars: Vec<ClassVars> = Vec::new();

    for agg in aggregate.requests() {
        let vnet = apps.vnet(agg.class.app);
        let d = agg.demand;
        let ingress = agg.class.ingress;
        let cname = agg.class.to_string();

        // Placement variables (10) with (11): θ only at the ingress.
        let mut node_vars: Vec<Vec<Option<VarId>>> = vec![vec![None; n_sub]; vnet.node_count()];
        for (i, vnf) in vnet.vnodes() {
            for (v, snode) in substrate.nodes() {
                if i == VirtualNetwork::ROOT && v != ingress {
                    continue;
                }
                let Some(eta) = policy.node_eta(vnf, snode) else {
                    continue;
                };
                let load = d * vnf.beta * eta;
                let var = p.add_var(format!("y-{cname}-{i}-{v}"), load * snode.cost, 0.0, 1.0);
                if load > 0.0 {
                    p.set_coeff(node_rows[v.index()], var, load);
                }
                node_vars[i.index()][v.index()] = Some(var);
            }
        }

        // Arc flow variables, two directions per substrate link.
        let mut arc_vars: Vec<Vec<(LinkId, bool, VarId)>> = vec![Vec::new(); vnet.link_count()];
        for (e, vlink) in vnet.vlinks() {
            for (l, slink) in substrate.links() {
                let load = d * vlink.beta * policy.link_eta;
                for forward in [true, false] {
                    let var = p.add_var(
                        format!("f-{cname}-{e}-{l}-{}", if forward { "f" } else { "b" }),
                        load * slink.cost,
                        0.0,
                        f64::INFINITY,
                    );
                    if load > 0.0 {
                        p.set_coeff(link_rows[l.index()], var, load);
                    }
                    arc_vars[e.index()].push((l, forward, var));
                }
            }
        }

        // Quantiles (12) and the root convexity row (13).
        let quantile_vars: Vec<VarId> = (1..=config.quantiles)
            .map(|q| {
                p.add_var(
                    format!("rej-{cname}-q{q}"),
                    config.psi * d * q as f64,
                    0.0,
                    1.0 / config.quantiles as f64,
                )
            })
            .collect();
        let root_row = p.add_row(format!("root-{cname}"), Relation::Eq, 1.0);
        if let Some(theta) = node_vars[VirtualNetwork::ROOT.index()][ingress.index()] {
            p.set_coeff(root_row, theta, 1.0);
        }
        for &qv in &quantile_vars {
            p.set_coeff(root_row, qv, 1.0);
        }

        // Flow conservation (14): y_v^j − y_v^i − inflow(v) + outflow(v) = 0.
        for (e, vlink) in vnet.vlinks() {
            for v in substrate.node_ids() {
                let row = p.add_row(format!("cons-{cname}-{e}-{v}"), Relation::Eq, 0.0);
                if let Some(yj) = node_vars[vlink.to.index()][v.index()] {
                    p.set_coeff(row, yj, 1.0);
                }
                if let Some(yi) = node_vars[vlink.from.index()][v.index()] {
                    p.set_coeff(row, yi, -1.0);
                }
                for &(l, forward, var) in &arc_vars[e.index()] {
                    let slink = substrate.link(l);
                    let (from, to) = if forward {
                        (slink.a, slink.b)
                    } else {
                        (slink.b, slink.a)
                    };
                    if to == v {
                        p.set_coeff(row, var, -1.0); // inflow
                    }
                    if from == v {
                        p.set_coeff(row, var, 1.0); // outflow
                    }
                }
            }
        }

        class_vars.push(ClassVars {
            node_vars,
            arc_vars,
            quantile_vars,
        });
    }

    let mut simplex = Simplex::with_options(&p, SimplexOptions::default());
    let sol = simplex.solve();
    assert_eq!(
        sol.status,
        SolveStatus::Optimal,
        "arc PLAN-VNE must solve to optimality"
    );

    let mut classes = Vec::new();
    for (agg, vars) in aggregate.requests().iter().zip(&class_vars) {
        let vnet = apps.vnet(agg.class.app);
        let node_fracs: Vec<Vec<f64>> = vars
            .node_vars
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| v.map(|id| sol.x[id.0]).unwrap_or(0.0))
                    .collect()
            })
            .collect();
        let mut arc_flows = vec![HashMap::new(); vnet.link_count()];
        for (e, flows) in vars.arc_vars.iter().enumerate() {
            for &(l, forward, var) in flows {
                let x = sol.x[var.0];
                if x > 1e-9 {
                    let slink = substrate.link(l);
                    let key = if forward {
                        (slink.a, slink.b)
                    } else {
                        (slink.b, slink.a)
                    };
                    *arc_flows[e].entry(key).or_insert(0.0) += x;
                }
            }
        }
        let rejected: f64 = vars.quantile_vars.iter().map(|v| sol.x[v.0]).sum();
        classes.push(ArcClassSolution {
            class: agg.class,
            demand: agg.demand,
            node_fracs,
            arc_flows,
            rejected,
        });
    }
    ArcPlanSolution {
        objective: sol.objective,
        classes,
    }
}

/// Helpers for inspecting arc solutions in tests.
impl ArcClassSolution {
    /// The allocated fraction (`y^θ` at the ingress).
    pub fn allocated(&self) -> f64 {
        1.0 - self.rejected
    }

    /// Total fraction of virtual node `i` placed anywhere.
    pub fn placement_total(&self, i: VnodeId) -> f64 {
        self.node_fracs[i.index()].iter().sum()
    }

    /// Flow value of virtual link `e` over the directed pair `(u, v)`.
    pub fn flow(&self, e: VlinkId, u: NodeId, v: NodeId) -> f64 {
        self.arc_flows[e.index()]
            .get(&(u, v))
            .copied()
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colgen::solve_plan;
    use std::collections::BTreeMap;
    use vne_model::app::{shapes, AppShape};
    use vne_model::ids::AppId;
    use vne_model::substrate::Tier;

    fn world() -> (SubstrateNetwork, AppSet) {
        let mut s = SubstrateNetwork::new("line");
        let e = s.add_node("e0", Tier::Edge, 100.0, 50.0).unwrap();
        let t = s.add_node("t1", Tier::Transport, 300.0, 10.0).unwrap();
        let c = s.add_node("c2", Tier::Core, 900.0, 1.0).unwrap();
        s.add_link(e, t, 200.0, 1.0).unwrap();
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

    fn agg(demand: f64) -> AggregateDemand {
        let mut m = BTreeMap::new();
        m.insert(ClassId::new(AppId(0), NodeId(0)), demand);
        AggregateDemand::from_demands(&m)
    }

    #[test]
    fn arc_lp_fully_allocates_when_feasible() {
        let (s, apps) = world();
        let sol = solve_arc_lp(
            &s,
            &apps,
            &PlacementPolicy::default(),
            &agg(5.0),
            &PlanVneConfig::new(1e4),
        );
        let c = &sol.classes[0];
        assert!(c.rejected < 1e-6);
        assert!((c.allocated() - 1.0).abs() < 1e-6);
        // Flow conservation implies every virtual node is fully placed.
        assert!((c.placement_total(VnodeId(1)) - 1.0).abs() < 1e-6);
        assert!((c.placement_total(VnodeId(2)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn arc_lp_matches_column_generation_objective() {
        let (s, apps) = world();
        let policy = PlacementPolicy::default();
        for demand in [5.0, 40.0, 100.0] {
            let config = PlanVneConfig::new(1e4);
            let arc = solve_arc_lp(&s, &apps, &policy, &agg(demand), &config);
            let (plan, stats) = solve_plan(&s, &apps, &policy, &agg(demand), &config);
            assert!(
                (arc.objective - stats.objective).abs() / arc.objective.max(1.0) < 1e-5,
                "demand {demand}: arc {} vs colgen {}",
                arc.objective,
                stats.objective
            );
            let _ = plan;
        }
    }

    #[test]
    fn arc_lp_two_classes_balance() {
        let (s, apps) = world();
        let policy = PlacementPolicy::default();
        let mut m = BTreeMap::new();
        m.insert(ClassId::new(AppId(0), NodeId(0)), 70.0);
        m.insert(ClassId::new(AppId(0), NodeId(1)), 70.0);
        let aggregate = AggregateDemand::from_demands(&m);
        let sol = solve_arc_lp(&s, &apps, &policy, &aggregate, &PlanVneConfig::new(1e4));
        let r0 = sol.classes[0].rejected;
        let r1 = sol.classes[1].rejected;
        assert!((r0 - r1).abs() < 0.2, "r0 {r0} r1 {r1}");
        // And cross-check against column generation.
        let (_, stats) = solve_plan(&s, &apps, &policy, &aggregate, &PlanVneConfig::new(1e4));
        assert!(
            (sol.objective - stats.objective).abs() / sol.objective < 1e-5,
            "arc {} colgen {}",
            sol.objective,
            stats.objective
        );
    }

    #[test]
    fn gpu_class_rejected_in_arc_form() {
        let (s, _) = world();
        let mut apps = AppSet::new();
        apps.push(
            "gpu",
            AppShape::Gpu,
            shapes::gpu_chain(2, 10.0, 2.0, 0).unwrap(),
        )
        .unwrap();
        let sol = solve_arc_lp(
            &s,
            &apps,
            &PlacementPolicy::default(),
            &agg(5.0),
            &PlanVneConfig::new(1e4),
        );
        assert!((sol.classes[0].rejected - 1.0).abs() < 1e-6);
    }
}
