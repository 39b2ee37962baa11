//! PLAN-VNE solved by Dantzig-Wolfe column generation (§III-B).
//!
//! The arc formulation of Fig. 4 decomposes per class: constraints
//! (10)–(14) describe, for each aggregated request, the convex hull of
//! integral tree embeddings (plus the rejection quantiles). The master LP
//! therefore only needs the coupling capacity rows (15) and one convexity
//! row per class:
//!
//! ```text
//!   min  Σ_k d_k Σ_e cost_e λ_{k,e}  +  ψ Σ_k d_k Σ_p p · y_{k,p}
//!   s.t. Σ_k d_k Σ_e usage_e(s) λ_{k,e} ≤ cap(s)      ∀ element s
//!        Σ_e λ_{k,e} + Σ_p y_{k,p} = 1                 ∀ class k
//!        0 ≤ y_{k,p} ≤ 1/P,   λ ≥ 0
//! ```
//!
//! The pricing problem — a cheapest embedding under dual-adjusted element
//! costs `cost(s) − π_s` — is solved exactly by the tree-DP of
//! [`crate::pricing`]: a round builds one [`AppPricing`] table per
//! application and asks it for each of that application's ingresses,
//! because only the root's step of the DP depends on the ingress. That
//! step alone prices a class ([`AppPricing::root_cost`]); the embedding
//! is built only for a column whose reduced cost is negative. The
//! solution arrives directly as integral embedding columns with weights:
//! exactly the [`Plan`] OLIVE consumes. The rejection quantiles implement
//! the paper's water-filling: each extra `1/P` of rejected demand costs
//! progressively more (`p·ψ`), so the optimizer spreads rejection evenly
//! across classes instead of starving one of them.

use vne_lp::problem::{Problem, Relation, RowId};
use vne_lp::simplex::{Simplex, SimplexOptions};
use vne_lp::solution::SolveStatus;
use vne_model::app::AppSet;
use vne_model::embedding::{Embedding, Footprint};
use vne_model::ids::ClassId;
use vne_model::policy::PlacementPolicy;
use vne_model::substrate::SubstrateNetwork;

use crate::aggregate::AggregateDemand;
use crate::plan::{ClassPlan, Plan, PlannedColumn};
use crate::pricing::{AppPricing, ElementCosts};

/// Parameters of the PLAN-VNE solver.
#[derive(Debug, Clone)]
pub struct PlanVneConfig {
    /// Number of rejection quantiles `P` (the paper settles on 10).
    pub quantiles: usize,
    /// Base rejection penalty factor ψ.
    pub psi: f64,
    /// Maximum column-generation rounds.
    pub max_rounds: usize,
    /// Reduced-cost tolerance for accepting new columns.
    pub reduced_cost_tol: f64,
    /// Simplex options for the master LP.
    pub simplex: SimplexOptions,
}

impl PlanVneConfig {
    /// Default configuration with an explicit rejection penalty.
    pub fn new(psi: f64) -> Self {
        Self {
            quantiles: 10,
            psi,
            max_rounds: 200,
            reduced_cost_tol: 1e-6,
            simplex: SimplexOptions::default(),
        }
    }

    /// Overrides the quantile count (the Fig. 11 sensitivity study).
    pub fn with_quantiles(mut self, p: usize) -> Self {
        assert!(p >= 1, "need at least one quantile");
        self.quantiles = p;
        self
    }
}

/// Diagnostics of a PLAN-VNE solve.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSolveStats {
    /// Column-generation rounds executed.
    pub rounds: usize,
    /// Total embedding columns generated.
    pub columns: usize,
    /// Final master objective.
    pub objective: f64,
    /// Total simplex iterations across master solves.
    pub simplex_iterations: usize,
    /// The worst status any master solve ended with: `Optimal` unless
    /// some solve stopped short (see [`PlanSolveStats::ensure_optimal`]).
    pub status: SolveStatus,
    /// The round whose master solve first ended with `status` (0 is the
    /// solve before the first pricing round).
    pub status_round: usize,
}

impl PlanSolveStats {
    /// Records the status of the master solve that closed `round`,
    /// keeping the worst seen so far (the first on ties).
    fn record(&mut self, status: SolveStatus, round: usize) {
        let rank = |s: SolveStatus| match s {
            SolveStatus::Optimal => 0,
            SolveStatus::Limit => 1,
            SolveStatus::Unbounded => 2,
            SolveStatus::Infeasible => 3,
        };
        if rank(status) > rank(self.status) {
            self.status = status;
            self.status_round = round;
        }
    }

    /// `Ok` when every master solve ended `Optimal`; otherwise a message
    /// naming the round and the status. A master that stops short yields
    /// duals and shares that certify nothing, so a plan built from it
    /// must be refused, not used.
    ///
    /// # Errors
    ///
    /// Returns the message when [`PlanSolveStats::status`] is not
    /// `Optimal`.
    pub fn ensure_optimal(&self) -> Result<(), String> {
        if self.status.is_optimal() {
            return Ok(());
        }
        Err(format!(
            "PLAN-VNE master solve of round {} ended {}; refusing the plan",
            self.status_round, self.status
        ))
    }
}

/// The master problem and its solver, kept by a caller that solves one
/// master after another (SLOTOFF, every slot). Each
/// [`solve_plan_with_columns`] refills both through [`Problem::clear`]
/// and [`Simplex::reload`], so a workspace allocates its stores once and
/// returns a fresh one's bits: nothing of one solve reaches the next but
/// capacity. It holds no state, so a clone is an empty workspace.
#[derive(Default)]
pub struct MasterWorkspace {
    master: Problem,
    simplex: Simplex,
}

impl Clone for MasterWorkspace {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for MasterWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MasterWorkspace").finish_non_exhaustive()
    }
}

/// Solves PLAN-VNE and returns the plan.
///
/// Classes for which no feasible embedding exists (e.g. GPU applications
/// on a substrate without GPU sites) end up fully rejected: their
/// convexity is satisfied by the quantile variables alone.
pub fn solve_plan(
    substrate: &SubstrateNetwork,
    apps: &AppSet,
    policy: &PlacementPolicy,
    aggregate: &AggregateDemand,
    config: &PlanVneConfig,
) -> (Plan, PlanSolveStats) {
    let mut workspace = MasterWorkspace::default();
    solve_plan_with_columns(
        substrate,
        apps,
        policy,
        aggregate,
        config,
        Vec::new(),
        &mut workspace,
    )
}

/// [`solve_plan`] with warm-start columns, in a workspace kept across
/// calls (used by SLOTOFF, which re-optimizes every slot and reuses the
/// previous slot's embeddings to cut pricing rounds). The warm columns
/// are taken by value: a valid one's embedding moves into the plan.
pub fn solve_plan_with_columns(
    substrate: &SubstrateNetwork,
    apps: &AppSet,
    policy: &PlacementPolicy,
    aggregate: &AggregateDemand,
    config: &PlanVneConfig,
    warm: Vec<(ClassId, Embedding)>,
    workspace: &mut MasterWorkspace,
) -> (Plan, PlanSolveStats) {
    let n_nodes = substrate.node_count();
    let n_links = substrate.link_count();
    let classes = aggregate.requests();
    let mut stats = PlanSolveStats {
        rounds: 0,
        columns: 0,
        objective: 0.0,
        simplex_iterations: 0,
        status: SolveStatus::Optimal,
        status_round: 0,
    };
    if classes.is_empty() {
        return (Plan::empty(), stats);
    }
    assert!(config.quantiles >= 1, "need at least one quantile");

    // ---- Master problem skeleton: capacity rows (nodes, then links),
    // convexity rows, quantile variables. Rows and variables go unnamed:
    // nothing reads a name.
    let MasterWorkspace { master, simplex } = workspace;
    master.clear();
    for (_, n) in substrate.nodes() {
        master.add_row("", Relation::Le, n.capacity);
    }
    for (_, l) in substrate.links() {
        master.add_row("", Relation::Le, l.capacity);
    }
    let conv_row = |k: usize| n_nodes + n_links + k;
    for _ in classes {
        master.add_row("", Relation::Eq, 1.0);
    }
    let p = config.quantiles;
    for (k, agg) in classes.iter().enumerate() {
        for q in 1..=p {
            let obj = config.psi * agg.demand * q as f64;
            let v = master.add_var("", obj, 0.0, 1.0 / p as f64);
            master.set_coeff(RowId(conv_row(k)), v, 1.0);
        }
    }
    let n_quantile_vars = classes.len() * p;

    // Registry of generated columns: structural index → (class idx, data).
    struct ColumnInfo {
        class_idx: usize,
        embedding: Embedding,
        footprint: Footprint,
        unit_cost: f64,
        /// The class's previous column in the registry.
        prev_of_class: Option<usize>,
    }
    let mut registry: Vec<ColumnInfo> = Vec::new();
    // Per class, its last column in the registry: a class holds a
    // handful, so "already a column?" walks them back through
    // `prev_of_class`, and the registry stays the one owner of every
    // embedding.
    let mut last_of_class: Vec<Option<usize>> = vec![None; classes.len()];
    let is_column = |registry: &[ColumnInfo], last: Option<usize>, embedding: &Embedding| {
        std::iter::successors(last, |&i| registry[i].prev_of_class)
            .any(|i| registry[i].embedding == *embedding)
    };
    // A column's coefficients: d_k · usage on capacity rows, 1 on the
    // class convexity row.
    let mut coeffs: Vec<(usize, f64)> = Vec::new();
    let fill_coeffs = |coeffs: &mut Vec<(usize, f64)>, footprint: &Footprint, k: usize| {
        let demand = classes[k].demand;
        coeffs.clear();
        for &(node, x) in footprint.nodes() {
            coeffs.push((node.index(), demand * x));
        }
        for &(link, x) in footprint.links() {
            coeffs.push((n_nodes + link.index(), demand * x));
        }
        coeffs.push((conv_row(k), 1.0));
    };

    // Warm-start columns go straight into the master before the first
    // solve (deduplicated, invalid classes skipped).
    for (class, embedding) in warm {
        let Ok(k) = classes.binary_search_by_key(&class, |r| r.class) else {
            continue;
        };
        if is_column(&registry, last_of_class[k], &embedding) {
            continue;
        }
        let agg = &classes[k];
        let vnet = apps.vnet(agg.class.app);
        if embedding.validate(vnet, substrate, policy).is_err() {
            continue;
        }
        let footprint = embedding.footprint(vnet, substrate, policy);
        let unit_cost = footprint.cost(substrate);
        fill_coeffs(&mut coeffs, &footprint, k);
        let v = master.add_var("", agg.demand * unit_cost, 0.0, f64::INFINITY);
        for &(row, a) in &coeffs {
            master.set_coeff(RowId(row), v, a);
        }
        registry.push(ColumnInfo {
            class_idx: k,
            embedding,
            footprint,
            unit_cost,
            prev_of_class: last_of_class[k].replace(registry.len()),
        });
    }

    simplex.reload(master, config.simplex.clone());
    let mut sol = simplex.solve();
    stats.simplex_iterations += sol.iterations;
    stats.record(sol.status, 0);

    for round in 0..config.max_rounds {
        stats.rounds = round + 1;
        let duals = &sol.duals;
        let node_duals = &duals[..n_nodes];
        let link_duals = &duals[n_nodes..n_nodes + n_links];
        let adjusted = ElementCosts::from_duals(substrate, node_duals, link_duals);

        // One table per application, built when its first class is
        // priced and dropped with the round: the next duals change the
        // costs it was built under.
        let mut tables: Vec<Option<AppPricing<'_>>> = (0..apps.len()).map(|_| None).collect();

        let mut added = 0usize;
        for (k, agg) in classes.iter().enumerate() {
            let mu = duals[conv_row(k)];
            let vnet = apps.vnet(agg.class.app);
            let table = tables[agg.class.app.index()].get_or_insert_with(|| {
                AppPricing::new(substrate, vnet, policy, &adjusted, None, &[])
            });
            // The root's step prices the class; only a column that
            // prices out is built.
            let Some(adj_cost) = table.root_cost(agg.class.ingress) else {
                continue;
            };
            let reduced = agg.demand * adj_cost - mu;
            if reduced >= -config.reduced_cost_tol {
                continue;
            }
            let embedding = table.embedding_from(agg.class.ingress);
            if is_column(&registry, last_of_class[k], &embedding) {
                continue;
            }
            let footprint = embedding.footprint(vnet, substrate, policy);
            let unit_cost = footprint.cost(substrate);
            fill_coeffs(&mut coeffs, &footprint, k);
            simplex.add_column(agg.demand * unit_cost, 0.0, f64::INFINITY, &coeffs);
            registry.push(ColumnInfo {
                class_idx: k,
                embedding,
                footprint,
                unit_cost,
                prev_of_class: last_of_class[k].replace(registry.len()),
            });
            added += 1;
        }
        if added == 0 {
            break;
        }
        sol = simplex.reoptimize();
        stats.simplex_iterations += sol.iterations;
        stats.record(sol.status, round + 1);
    }
    stats.columns = registry.len();
    stats.objective = sol.objective;

    // ---- Extract the plan.
    let mut per_class_columns: Vec<Vec<PlannedColumn>> = vec![Vec::new(); classes.len()];
    for (i, info) in registry.into_iter().enumerate() {
        let share = sol.x[n_quantile_vars + i];
        if share <= 1e-9 {
            continue;
        }
        per_class_columns[info.class_idx].push(PlannedColumn {
            embedding: info.embedding,
            footprint: info.footprint,
            share,
            budget: share * classes[info.class_idx].demand,
            unit_cost: info.unit_cost,
        });
    }

    let mut plan = Plan::empty();
    plan.objective = sol.objective;
    for (k, agg) in classes.iter().enumerate() {
        let rejected: f64 = sol.x[k * p..(k + 1) * p].iter().sum();
        let mut columns = std::mem::take(&mut per_class_columns[k]);
        columns.sort_by(|a, b| {
            a.unit_cost
                .partial_cmp(&b.unit_cost)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        plan.insert(ClassPlan {
            class: agg.class,
            expected_demand: agg.demand,
            rejected_fraction: rejected.clamp(0.0, 1.0),
            columns,
        });
    }
    (plan, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vne_model::app::{shapes, AppShape};
    use vne_model::ids::{AppId, NodeId};
    use vne_model::substrate::Tier;

    /// e0 - t1 - c2 line with small capacities for plan tests.
    fn small_world() -> (SubstrateNetwork, AppSet) {
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

    fn aggregate_of(demand: f64) -> AggregateDemand {
        let mut m = BTreeMap::new();
        m.insert(ClassId::new(AppId(0), NodeId(0)), demand);
        AggregateDemand::from_demands(&m)
    }

    #[test]
    fn underloaded_plan_allocates_everything() {
        let (s, apps) = small_world();
        let policy = PlacementPolicy::default();
        // Demand 5: footprint 5·20 = 100 node CU total; fits easily.
        let (plan, stats) = solve_plan(
            &s,
            &apps,
            &policy,
            &aggregate_of(5.0),
            &PlanVneConfig::new(1e4),
        );
        let cp = plan.class(ClassId::new(AppId(0), NodeId(0))).unwrap();
        assert!(
            cp.rejected_fraction < 1e-6,
            "rejected {}",
            cp.rejected_fraction
        );
        assert!(!cp.columns.is_empty());
        let total_share: f64 = cp.columns.iter().map(|c| c.share).sum();
        assert!((total_share - 1.0).abs() < 1e-6);
        assert!(stats.columns >= 1);
        // Guaranteed demand equals expected demand.
        assert!((cp.guaranteed_demand() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn plan_prefers_cheap_nodes_under_low_psi_pressure() {
        let (s, apps) = small_world();
        let policy = PlacementPolicy::default();
        let (plan, _) = solve_plan(
            &s,
            &apps,
            &policy,
            &aggregate_of(5.0),
            &PlanVneConfig::new(1e4),
        );
        let cp = plan.class(ClassId::new(AppId(0), NodeId(0))).unwrap();
        // The cheapest embedding hosts both VNFs on c2 (cost 1/CU).
        let best = &cp.columns[0];
        assert_eq!(best.embedding.node(vne_model::ids::VnodeId(1)), NodeId(2));
        assert_eq!(best.embedding.node(vne_model::ids::VnodeId(2)), NodeId(2));
    }

    #[test]
    fn overloaded_plan_rejects_excess() {
        let (s, apps) = small_world();
        let policy = PlacementPolicy::default();
        // Demand 100 ⇒ node need 2000 CU ≫ 1300 total: some rejection.
        let (plan, _) = solve_plan(
            &s,
            &apps,
            &policy,
            &aggregate_of(100.0),
            &PlanVneConfig::new(1e4),
        );
        let cp = plan.class(ClassId::new(AppId(0), NodeId(0))).unwrap();
        assert!(
            cp.rejected_fraction > 0.2,
            "rejected {}",
            cp.rejected_fraction
        );
        assert!(cp.rejected_fraction < 1.0);
        // Allocated fraction + rejected fraction = 1.
        let total_share: f64 = cp.columns.iter().map(|c| c.share).sum();
        assert!((total_share + cp.rejected_fraction - 1.0).abs() < 1e-6);
    }

    #[test]
    fn plan_respects_capacities() {
        let (s, apps) = small_world();
        let policy = PlacementPolicy::default();
        let (plan, _) = solve_plan(
            &s,
            &apps,
            &policy,
            &aggregate_of(100.0),
            &PlanVneConfig::new(1e4),
        );
        // Aggregate planned load per element must fit capacities.
        let mut node_load = vec![0.0; s.node_count()];
        let mut link_load = vec![0.0; s.link_count()];
        for cp in plan.iter() {
            for col in &cp.columns {
                for &(n, x) in col.footprint.nodes() {
                    node_load[n.index()] += x * col.budget;
                }
                for &(l, x) in col.footprint.links() {
                    link_load[l.index()] += x * col.budget;
                }
            }
        }
        for (id, n) in s.nodes() {
            assert!(
                node_load[id.index()] <= n.capacity * (1.0 + 1e-6),
                "node {id} overloaded: {} > {}",
                node_load[id.index()],
                n.capacity
            );
        }
        for (id, l) in s.links() {
            assert!(link_load[id.index()] <= l.capacity * (1.0 + 1e-6));
        }
    }

    #[test]
    fn quantiles_balance_rejection_between_classes() {
        // Two classes compete for one small node; with P = 10 both should
        // be partially served rather than one fully rejected.
        let mut s = SubstrateNetwork::new("tiny");
        let e0 = s.add_node("e0", Tier::Edge, 200.0, 50.0).unwrap();
        let e1 = s.add_node("e1", Tier::Edge, 200.0, 50.0).unwrap();
        let c = s.add_node("c", Tier::Core, 400.0, 1.0).unwrap();
        s.add_link(e0, c, 1e6, 1.0).unwrap();
        s.add_link(e1, c, 1e6, 1.0).unwrap();
        let mut apps = AppSet::new();
        // One VNF of size 1, link size ~0: must go somewhere.
        apps.push(
            "f",
            AppShape::Chain,
            shapes::uniform_chain(1, 1.0, 0.0).unwrap(),
        )
        .unwrap();
        // Total node capacity 800 CU vs total demand 1400 ⇒ ~43% of the
        // demand must be rejected; the quantiles should split that burden
        // evenly between the two classes.
        let mut m = BTreeMap::new();
        m.insert(ClassId::new(AppId(0), NodeId(0)), 700.0);
        m.insert(ClassId::new(AppId(0), NodeId(1)), 700.0);
        let agg = AggregateDemand::from_demands(&m);
        let policy = PlacementPolicy::default();
        let (plan, _) = solve_plan(&s, &apps, &policy, &agg, &PlanVneConfig::new(1e4));
        let r0 = plan
            .class(ClassId::new(AppId(0), NodeId(0)))
            .unwrap()
            .rejected_fraction;
        let r1 = plan
            .class(ClassId::new(AppId(0), NodeId(1)))
            .unwrap()
            .rejected_fraction;
        // Each class must keep some allocation and some rejection, and
        // the water-filling keeps the two balanced.
        assert!(r0 > 0.1 && r1 > 0.1, "r0 {r0} r1 {r1}");
        assert!(r0 < 0.9 && r1 < 0.9, "r0 {r0} r1 {r1}");
        assert!((r0 - r1).abs() < 0.15, "unbalanced: r0 {r0} r1 {r1}");
    }

    #[test]
    fn single_quantile_permits_starvation_pressure() {
        // With P = 1 the rejection cost is linear, so the solver is free
        // to fully reject one class; with P = 10 rejection is spread.
        // We only assert the P = 10 balance is no worse than P = 1.
        let (s, apps) = small_world();
        let policy = PlacementPolicy::default();
        let agg = aggregate_of(100.0);
        let (plan1, _) = solve_plan(
            &s,
            &apps,
            &policy,
            &agg,
            &PlanVneConfig::new(1e4).with_quantiles(1),
        );
        let (plan10, _) = solve_plan(
            &s,
            &apps,
            &policy,
            &agg,
            &PlanVneConfig::new(1e4).with_quantiles(10),
        );
        let r1 = plan1.planned_rejection_fraction();
        let r10 = plan10.planned_rejection_fraction();
        // Same single class: overall rejected fraction should be nearly
        // identical (same capacity), P only changes the *distribution*.
        assert!((r1 - r10).abs() < 0.05, "r1 {r1} r10 {r10}");
    }

    #[test]
    fn infeasible_class_is_fully_rejected() {
        // GPU app with no GPU nodes anywhere.
        let (s, _) = small_world();
        let mut apps = AppSet::new();
        apps.push(
            "gpu",
            AppShape::Gpu,
            shapes::gpu_chain(2, 10.0, 2.0, 0).unwrap(),
        )
        .unwrap();
        let policy = PlacementPolicy::default();
        let (plan, _) = solve_plan(
            &s,
            &apps,
            &policy,
            &aggregate_of(5.0),
            &PlanVneConfig::new(1e4),
        );
        let cp = plan.class(ClassId::new(AppId(0), NodeId(0))).unwrap();
        assert!((cp.rejected_fraction - 1.0).abs() < 1e-6);
        assert!(cp.columns.is_empty());
        assert!(cp.guaranteed_demand().abs() < 1e-9);
    }

    #[test]
    fn empty_aggregate_gives_empty_plan() {
        let (s, apps) = small_world();
        let policy = PlacementPolicy::default();
        let (plan, stats) = solve_plan(
            &s,
            &apps,
            &policy,
            &AggregateDemand::default(),
            &PlanVneConfig::new(1e4),
        );
        assert!(plan.is_empty());
        assert_eq!(stats.columns, 0);
    }

    #[test]
    fn a_master_that_stops_short_is_recorded_and_refused() {
        let (s, apps) = small_world();
        let policy = PlacementPolicy::default();
        let config = PlanVneConfig::new(1e4);
        let (_, stats) = solve_plan(&s, &apps, &policy, &aggregate_of(5.0), &config);
        assert_eq!(stats.status, SolveStatus::Optimal);
        assert_eq!(stats.ensure_optimal(), Ok(()));

        let mut short = config.clone();
        short.simplex.max_iterations = 0;
        let (_, stats) = solve_plan(&s, &apps, &policy, &aggregate_of(5.0), &short);
        assert_eq!((stats.status, stats.status_round), (SolveStatus::Limit, 0));
        let message = stats.ensure_optimal().unwrap_err();
        assert!(
            message.contains("round 0") && message.contains("limit reached"),
            "{message}"
        );
    }
}
