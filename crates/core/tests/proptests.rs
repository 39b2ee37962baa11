//! Property-based tests for the OLIVE core: solver agreement, plan
//! feasibility, online-algorithm invariants over random traces, the
//! bounded greedy search against the full search it replaced, the
//! pricing DP against the per-class DP it was before one table served
//! every ingress of an application, and the `process_slot` contract a
//! spanning coordinator relies on.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::embedding::{Embedding, Footprint};
use vne_model::ids::{AppId, ClassId, LinkId, NodeId, RequestId, VnodeId};
use vne_model::load::LoadLedger;
use vne_model::policy::PlacementPolicy;
use vne_model::request::Request;
use vne_model::state::Snapshot;
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_model::vnet::{VirtualNetwork, VnfKind};
use vne_olive::aggregate::AggregateDemand;
use vne_olive::algorithm::OnlineAlgorithm;
use vne_olive::colgen::{solve_plan, PlanVneConfig};
use vne_olive::fullg::FullG;
use vne_olive::greedy::collocated_embed;
use vne_olive::olive::{Olive, OliveConfig};
use vne_olive::planvne::solve_arc_lp;
use vne_olive::pricing::{min_cost_embedding, AppPricing, CapacityFilter, ElementCosts};
use vne_olive::slotoff::SlotOff;

/// A small random tiered substrate (path backbone + extras), always
/// connected.
fn arb_substrate() -> impl Strategy<Value = SubstrateNetwork> {
    (
        4usize..9,
        proptest::collection::vec((0usize..9, 0usize..9), 0..6),
        1.0f64..100.0,
    )
        .prop_map(|(n, extras, cap_scale)| {
            let mut s = SubstrateNetwork::new("prop");
            for i in 0..n {
                let tier = match i % 3 {
                    0 => Tier::Edge,
                    1 => Tier::Transport,
                    _ => Tier::Core,
                };
                let (cap, cost) = match tier {
                    Tier::Edge => (200.0 * cap_scale, 50.0),
                    Tier::Transport => (600.0 * cap_scale, 10.0),
                    Tier::Core => (1800.0 * cap_scale, 1.0),
                };
                s.add_node(format!("n{i}"), tier, cap, cost).unwrap();
            }
            for i in 1..n {
                s.add_link(
                    NodeId::from_index(i - 1),
                    NodeId::from_index(i),
                    300.0 * cap_scale,
                    1.0,
                )
                .unwrap();
            }
            for (a, b) in extras {
                let (a, b) = (a % n, b % n);
                if a != b {
                    let (x, y) = (NodeId::from_index(a), NodeId::from_index(b));
                    if s.link_between(x, y).is_none() {
                        s.add_link(x, y, 300.0 * cap_scale, 1.0).unwrap();
                    }
                }
            }
            s
        })
}

fn small_apps() -> AppSet {
    let mut apps = AppSet::new();
    apps.push(
        "c2",
        AppShape::Chain,
        shapes::uniform_chain(2, 10.0, 3.0).unwrap(),
    )
    .unwrap();
    apps.push(
        "t3",
        AppShape::Tree,
        shapes::two_branch_tree(3, 8.0, 2.0).unwrap(),
    )
    .unwrap();
    apps
}

/// OLIVE (default config: borrowing, preemption and the greedy
/// fallback on) with a plan for `planned` demand per application and
/// edge node.
fn planned_olive(s: &SubstrateNetwork, planned: f64) -> Olive {
    let apps = small_apps();
    let policy = PlacementPolicy::default();
    let mut m = BTreeMap::new();
    for &e in &s.edge_nodes() {
        m.insert(ClassId::new(AppId(0), e), planned);
        m.insert(ClassId::new(AppId(1), e), planned);
    }
    let aggregate = AggregateDemand::from_demands(&m);
    let (plan, _) = solve_plan(s, &apps, &policy, &aggregate, &PlanVneConfig::new(1e4));
    Olive::new(s.clone(), apps, policy, plan, OliveConfig::default())
}

/// Requests from raw `(arrival, duration, edge-node pick, demand in
/// `unit`s, application)` draws, ids in draw order, sorted by arrival.
fn random_trace(s: &SubstrateNetwork, raw: &[(u8, u8, u16, f64, u8)], unit: f64) -> Vec<Request> {
    let edge = s.edge_nodes();
    let mut requests: Vec<Request> = raw
        .iter()
        .enumerate()
        .map(|(i, &(t, dur, node_pick, demand, app))| Request {
            id: RequestId(i as u64),
            arrival: u32::from(t),
            duration: u32::from(dur),
            ingress: edge[node_pick as usize % edge.len()],
            app: AppId(u32::from(app)),
            demand: demand * unit,
        })
        .collect();
    requests.sort_by_key(|r| r.arrival);
    requests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The two PLAN-VNE solvers must agree on the optimal objective.
    #[test]
    fn colgen_agrees_with_arc_lp(
        s in arb_substrate(),
        demands in proptest::collection::vec(1.0f64..60.0, 1..4),
    ) {
        let apps = small_apps();
        let policy = PlacementPolicy::default();
        let edge = s.edge_nodes();
        let mut m = BTreeMap::new();
        for (i, d) in demands.iter().enumerate() {
            let class = ClassId::new(
                AppId((i % 2) as u32),
                edge[i % edge.len()],
            );
            *m.entry(class).or_insert(0.0) += *d;
        }
        let aggregate = AggregateDemand::from_demands(&m);
        let config = PlanVneConfig::new(1e4);
        let (_, stats) = solve_plan(&s, &apps, &policy, &aggregate, &config);
        let arc = solve_arc_lp(&s, &apps, &policy, &aggregate, &config);
        let denom = arc.objective.abs().max(1.0);
        prop_assert!(
            (stats.objective - arc.objective).abs() / denom < 1e-4,
            "colgen {} vs arc {}", stats.objective, arc.objective
        );
    }

    /// Plans never overload any substrate element.
    #[test]
    fn plans_respect_capacities(
        s in arb_substrate(),
        demand in 10.0f64..400.0,
    ) {
        let apps = small_apps();
        let policy = PlacementPolicy::default();
        let edge = s.edge_nodes();
        let mut m = BTreeMap::new();
        for (i, &e) in edge.iter().enumerate() {
            m.insert(ClassId::new(AppId((i % 2) as u32), e), demand);
        }
        let aggregate = AggregateDemand::from_demands(&m);
        let (plan, _) = solve_plan(&s, &apps, &policy, &aggregate, &PlanVneConfig::new(1e4));
        let mut node_load = vec![0.0; s.node_count()];
        let mut link_load = vec![0.0; s.link_count()];
        for cp in plan.iter() {
            // Shares are a sub-convex combination.
            let total: f64 = cp.columns.iter().map(|c| c.share).sum();
            prop_assert!(total <= 1.0 + 1e-6);
            prop_assert!(cp.rejected_fraction >= -1e-9 && cp.rejected_fraction <= 1.0 + 1e-9);
            prop_assert!((total + cp.rejected_fraction - 1.0).abs() < 1e-5);
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
            prop_assert!(node_load[id.index()] <= n.capacity * (1.0 + 1e-6));
        }
        for (id, l) in s.links() {
            prop_assert!(link_load[id.index()] <= l.capacity * (1.0 + 1e-6));
        }
    }

    /// The pricing DP returns embeddings whose claimed cost matches the
    /// footprint, and never returns a worse collocated solution than the
    /// explicit collocated search.
    #[test]
    fn pricing_cost_is_consistent(s in arb_substrate(), ingress_pick in any::<u16>()) {
        let apps = small_apps();
        let policy = PlacementPolicy::default();
        let edge = s.edge_nodes();
        let ingress = edge[ingress_pick as usize % edge.len()];
        let costs = ElementCosts::from_substrate(&s);
        for app in apps.iter() {
            let got = min_cost_embedding(&s, &app.vnet, &policy, ingress, &costs, None);
            prop_assert!(got.is_some());
            let (emb, cost) = got.unwrap();
            prop_assert!(emb.validate(&app.vnet, &s, &policy).is_ok());
            let fp_cost = emb.unit_cost(&app.vnet, &s, &policy);
            prop_assert!((fp_cost - cost).abs() < 1e-9);
            // DP optimum ≤ best collocated solution.
            let ledger = LoadLedger::new(&s);
            if let Some((_, colo_cost)) =
                collocated_embed(&s, &app.vnet, &policy, ingress, &ledger, 1.0)
            {
                prop_assert!(cost <= colo_cost + 1e-9, "dp {cost} > colo {colo_cost}");
            }
        }
    }

    /// OLIVE never violates capacities, never double-books plan budgets,
    /// and accounts every arrival exactly once — over random traces.
    #[test]
    fn olive_invariants_over_random_traces(
        s in arb_substrate(),
        raw in proptest::collection::vec(
            (0u8..20, 1u8..8, 0u16..1000, 0.5f64..20.0, 0u8..2),
            1..60,
        ),
    ) {
        // A plan from a moderate aggregate.
        let mut olive = planned_olive(&s, 40.0);
        let requests = random_trace(&s, &raw, 1.0);

        let mut accepted = 0usize;
        let mut denied = 0usize;
        let mut active: Vec<Request> = Vec::new();
        for t in 0..30u32 {
            let departures: Vec<Request> = active
                .iter()
                .filter(|r| r.departure() == t)
                .cloned()
                .collect();
            active.retain(|r| r.departure() != t);
            let arrivals: Vec<Request> = requests
                .iter()
                .filter(|r| r.arrival == t)
                .cloned()
                .collect();
            let out = olive.process_slot(t, &departures, &arrivals);
            prop_assert!(olive.loads().check_invariants());
            prop_assert!(olive.plan_ledger().check_invariants());
            accepted += out.accepted.len();
            denied += out.rejected.len();
            for r in &arrivals {
                if out.accepted.contains(&r.id) {
                    active.push(r.clone());
                }
            }
            for p in &out.preempted {
                active.retain(|r| r.id != *p);
                denied += 1;
                accepted -= 1;
            }
        }
        prop_assert_eq!(accepted + denied, requests.len());
    }
}

/// The body of `collocated_embed` before it became a bounded search,
/// kept verbatim as the oracle: a full capacity-filtered Dijkstra from
/// the ingress, then a scan of every node in id order keeping the first
/// minimum of `node_load · cost + distance`.
fn collocated_embed_reference(
    substrate: &SubstrateNetwork,
    vnet: &VirtualNetwork,
    policy: &PlacementPolicy,
    ingress: NodeId,
    ledger: &LoadLedger,
    demand: f64,
) -> Option<(Embedding, f64)> {
    // Aggregate per-host node demand: Σ_i β_i·η_i(host); root links'
    // bandwidth: Σ_{(θ,c)} β·η hauled along the ingress→host path.
    // Collocation requires every VNF placeable on the host.
    let root_link_beta: f64 = vnet
        .children(VirtualNetwork::ROOT)
        .iter()
        .map(|&c| {
            let (_, e) = vnet.parent(c).expect("child has a parent");
            vnet.link(e).beta
        })
        .sum();

    // Dijkstra from the ingress over links that can carry the root links.
    let paths = substrate.shortest_paths(ingress, |l| {
        let slink = substrate.link(l);
        // All root links share the path; η is uniform per policy.
        let eta = vnet
            .children(VirtualNetwork::ROOT)
            .iter()
            .map(|_| Some(policy.link_eta))
            .try_fold(0.0f64, |acc, eta| eta.map(|v| acc.max(v)))?;
        let need = demand * root_link_beta * eta;
        if need > 0.0 && ledger.link_residual(l) < need {
            return None;
        }
        Some(root_link_beta * eta * slink.cost)
    });

    let mut best: Option<(NodeId, f64)> = None;
    for (host, node) in substrate.nodes() {
        if !paths.reachable(host) {
            continue;
        }
        // Node feasibility: every VNF placeable, total demand fits.
        let mut node_load = 0.0;
        let mut ok = true;
        for (_, vnf) in vnet.vnodes() {
            if vnf.beta == 0.0 {
                continue;
            }
            match policy.node_eta(vnf, node) {
                Some(eta) => node_load += vnf.beta * eta,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        if node_load > 0.0 && ledger.node_residual(host) < demand * node_load {
            continue;
        }
        let cost = node_load * node.cost + paths.distance(host);
        match best {
            Some((_, best_cost)) if cost >= best_cost => {}
            _ => best = Some((host, cost)),
        }
    }

    let (host, cost) = best?;
    let path = paths.path_to(host).expect("host is reachable");
    let mut node_map = vec![host; vnet.node_count()];
    node_map[VirtualNetwork::ROOT.index()] = ingress;
    let mut link_paths = vec![Vec::new(); vnet.link_count()];
    for (e, vlink) in vnet.vlinks() {
        if vlink.from == VirtualNetwork::ROOT {
            link_paths[e.index()] = path.clone();
        }
    }
    Some((Embedding::new(node_map, link_paths), cost))
}

/// Per node `(tier, cost mode, gpu die, load mode)`, extra links beyond
/// the path backbone, per link `(cost mode, load mode)`, the cost
/// jitter, and two dice that (on 0) give every node the flat price and
/// every link cost zero.
type SearchWorld = (
    Vec<(u8, u8, u8, u8)>,
    Vec<(usize, usize)>,
    Vec<(u8, u8)>,
    f64,
    (u8, u8),
);

/// A connected substrate built to make the bounded search's job hard,
/// with a pre-loaded ledger. Cost modes: the tier price with no jitter
/// (so whole tiers tie), one flat price (so every host ties on the node
/// term), zero, or a jittered price. Load modes: empty, half, all but a
/// sliver, or full to the last unit. One world in three is all flat
/// price, one in three all free links, so that whole worlds tie and the
/// tie rule and the `>` of the stop test decide the answer.
fn search_world(
    (nodes, extras, links, jitter, (flat_nodes, free_links)): SearchWorld,
) -> (SubstrateNetwork, LoadLedger) {
    let n = nodes.len();
    let mut s = SubstrateNetwork::new("search");
    for (i, &(tier, cost_mode, gpu, _)) in nodes.iter().enumerate() {
        let (tier, price) = match tier {
            0 => (Tier::Edge, 50.0),
            1 => (Tier::Transport, 10.0),
            _ => (Tier::Core, 1.0),
        };
        let cost = match if flat_nodes == 0 { 1 } else { cost_mode } {
            0 => price,
            1 => 7.0,
            2 => 0.0,
            _ => price * (1.0 + jitter * (i as f64 + 1.0) / n as f64),
        };
        let id = s.add_node(format!("n{i}"), tier, 400.0, cost).unwrap();
        s.node_mut(id).gpu = gpu == 0;
    }
    let mut pairs: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
    pairs.extend(extras.into_iter().map(|(a, b)| (a % n, b % n)));
    for (a, b) in pairs {
        let (x, y) = (NodeId::from_index(a), NodeId::from_index(b));
        if a != b && s.link_between(x, y).is_none() {
            let cost = match if free_links == 0 {
                0
            } else {
                links[s.link_count()].0
            } {
                0 => 0.0,
                1 => 1.0,
                _ => 1.0 + jitter * (a + b) as f64,
            };
            s.add_link(x, y, 100.0, cost).unwrap();
        }
    }
    let fill = |mode: u8, capacity: f64| match mode {
        0 => 0.0,
        1 => 0.5 * capacity,
        2 => capacity - 25.0,
        _ => capacity,
    };
    let footprint = Footprint::from_parts(
        s.nodes()
            .map(|(id, node)| (id, fill(nodes[id.index()].3, node.capacity)))
            .collect(),
        s.links()
            .map(|(id, link)| (id, fill(links[id.index()].1, link.capacity)))
            .collect(),
    );
    let mut ledger = LoadLedger::new(&s);
    ledger.apply(&footprint, 1.0);
    (s, ledger)
}

/// Applications that reach every branch of the host test: chains and a
/// tree, a root link of size zero (every reachable host hauls for
/// free), a zero-size VNF, a lone GPU VNF (only GPU datacenters host
/// it) and a mixed GPU chain (nothing hosts it under the exclusive
/// policy).
fn search_app(pick: u8) -> VirtualNetwork {
    match pick {
        0 => shapes::uniform_chain(2, 10.0, 3.0),
        1 => shapes::two_branch_tree(3, 8.0, 2.0),
        2 => shapes::uniform_chain(2, 10.0, 0.0),
        3 => VirtualNetwork::chain(&[0.0, 12.0], &[2.0, 5.0]),
        4 => shapes::gpu_chain(1, 10.0, 3.0, 0),
        _ => shapes::gpu_chain(2, 10.0, 3.0, 1),
    }
    .unwrap()
}

/// Node map, link paths and cost bits of a greedy embedding.
type GreedyAnswer = Option<(Vec<NodeId>, Vec<Vec<LinkId>>, u64)>;

/// Asserts that the bounded search on `s` returns what the full search
/// plus a scan of every node returns, and returns that answer.
fn bounded_equals_full(
    s: &SubstrateNetwork,
    vnet: &VirtualNetwork,
    policy: &PlacementPolicy,
    ingress: NodeId,
    ledger: &LoadLedger,
    demand: f64,
) -> GreedyAnswer {
    let answer = |found: Option<(Embedding, f64)>| {
        found.map(|(e, cost)| {
            (
                e.node_map().to_vec(),
                e.link_paths().to_vec(),
                cost.to_bits(),
            )
        })
    };
    let got = answer(collocated_embed(s, vnet, policy, ingress, ledger, demand));
    let want = answer(collocated_embed_reference(
        s, vnet, policy, ingress, ledger, demand,
    ));
    prop_assert_eq!(&got, &want, "bounded vs full");
    got
}

proptest! {
    /// The bounded search returns what the full search plus a scan of
    /// every node returns: `None` together, or the same host, the same
    /// path link for link and the same cost bit for bit — under ties,
    /// zero costs, GPU datacenters, free hauls, link η other than 1 (zero
    /// included) and a ledger that saturates some nodes and links. Also
    /// after a node's cost or GPU flag changes on a substrate whose host
    /// order was already built, and on a clone taken before that change.
    #[test]
    fn bounded_greedy_search_matches_the_full_search(
        world in (
            proptest::collection::vec((0u8..3, 0u8..4, 0u8..5, 0u8..4), 4..14),
            proptest::collection::vec((0usize..14, 0usize..14), 0..12),
            proptest::collection::vec((0u8..3, 0u8..4), 26),
            0.0f64..0.5,
            (0u8..3, 0u8..3),
        ),
        app in 0u8..6,
        policy_pick in 0u8..3,
        eta_pick in 0usize..4,
        ingress_pick in any::<u16>(),
        demand in 0.5f64..30.0,
        (mutated_pick, mutation) in (any::<u16>(), 0u8..4),
    ) {
        let (mut s, ledger) = search_world(world);
        let vnet = search_app(app);
        let mut policy = match policy_pick {
            0 => PlacementPolicy::default(),
            1 => PlacementPolicy { gpu_exclusive: false, ..PlacementPolicy::default() },
            _ => PlacementPolicy { tier_node_eta: [1.0, 1.5, 0.25], ..PlacementPolicy::default() },
        };
        policy.link_eta = [1.0, 0.0, 0.5, 2.5][eta_pick];
        let ingress = NodeId::from_index(ingress_pick as usize % s.node_count());
        let before = bounded_equals_full(&s, &vnet, &policy, ingress, &ledger, demand);

        // `s` has built its host order; the clone carries it over.
        let copy = s.clone();
        prop_assert_eq!(&bounded_equals_full(&copy, &vnet, &policy, ingress, &ledger, demand), &before);
        let node = s.node_mut(NodeId::from_index(mutated_pick as usize % s.node_count()));
        match mutation {
            0 => node.gpu = !node.gpu,
            1 => node.cost = 0.0,
            2 => node.cost *= 3.0,
            _ => node.cost = 7.0,
        }
        bounded_equals_full(&s, &vnet, &policy, ingress, &ledger, demand);
        prop_assert_eq!(&bounded_equals_full(&copy, &vnet, &policy, ingress, &ledger, demand), &before);
    }
}

// ---------------------------------------------------------------------
// The pricing DP against the per-class DP it was
// ---------------------------------------------------------------------

const INF: f64 = f64::INFINITY;

/// The body of `min_cost_embedding_with_exclusions` when every call ran
/// the whole tree DP for its own ingress (before `AppPricing` split the
/// root's step from the rest), kept verbatim as the oracle
/// (with its private Dijkstra and heap entry below): bottom-up over
/// every virtual node with the root pinned at `ingress`, one
/// multi-source Dijkstra per virtual link, then the top-down walk.
fn reference_min_cost_embedding(
    substrate: &SubstrateNetwork,
    vnet: &VirtualNetwork,
    policy: &PlacementPolicy,
    ingress: NodeId,
    costs: &ElementCosts,
    filter: Option<CapacityFilter<'_>>,
    exclusions: &[(vne_model::ids::VnodeId, NodeId)],
) -> Option<(Embedding, f64)> {
    let n_sub = substrate.node_count();
    let n_virt = vnet.node_count();
    debug_assert_eq!(costs.node.len(), n_sub);
    debug_assert_eq!(costs.link.len(), substrate.link_count());

    // S[j][v], computed bottom-up.
    let mut subtree = vec![vec![0.0f64; n_sub]; n_virt];
    // For each virtual link e: the Dijkstra predecessor forest and the
    // arrival cost M (indexed by substrate node).
    let mut preds: Vec<Vec<Option<(NodeId, LinkId)>>> = vec![vec![None; n_sub]; vnet.link_count()];
    let mut transfer = vec![vec![INF; n_sub]; vnet.link_count()];

    let order = vnet.bfs_order();
    for &v in order.iter().rev() {
        let vnf = vnet.node(v);
        // Placement cost of v on each substrate node.
        let mut cost_here = vec![INF; n_sub];
        for (u, node) in substrate.nodes() {
            if v == VirtualNetwork::ROOT && u != ingress {
                continue; // (11): the root may only sit at the ingress.
            }
            if exclusions.iter().any(|&(xv, xu)| xv == v && xu == u) {
                continue;
            }
            let Some(eta) = policy.node_eta(vnf, node) else {
                continue;
            };
            if let Some(f) = &filter {
                let need = f.demand * vnf.beta * eta;
                if need > 0.0 && f.ledger.node_residual(u) < need {
                    continue;
                }
            }
            cost_here[u.index()] = vnf.beta * eta * costs.node[u.index()];
        }
        // Children transfers were computed in earlier (deeper) iterations.
        for &c in vnet.children(v) {
            let (_, e) = vnet.parent(c).expect("child has a parent");
            let m = &transfer[e.index()];
            for u in 0..n_sub {
                if cost_here[u].is_finite() {
                    cost_here[u] = if m[u].is_finite() {
                        cost_here[u] + m[u]
                    } else {
                        INF
                    };
                }
            }
        }
        subtree[v.index()] = cost_here;

        // Propagate to the parent via a multi-source Dijkstra over the
        // connecting virtual link, unless v is the root.
        if let Some((_, e)) = vnet.parent(v) {
            let vlink = vnet.link(e);
            let (m, pred) = reference_multi_source_dijkstra(substrate, &subtree[v.index()], |l| {
                let eta = policy.link_eta;
                if let Some(f) = &filter {
                    let need = f.demand * vlink.beta * eta;
                    if need > 0.0 && f.ledger.link_residual(l) < need {
                        return None;
                    }
                }
                Some(vlink.beta * eta * costs.link[l.index()])
            });
            transfer[e.index()] = m;
            preds[e.index()] = pred;
        }
    }

    let total = subtree[VirtualNetwork::ROOT.index()][ingress.index()];
    if !total.is_finite() {
        return None;
    }

    // Reconstruction, top-down.
    let mut node_map = vec![NodeId(0); n_virt];
    let mut link_paths = vec![Vec::new(); vnet.link_count()];
    node_map[VirtualNetwork::ROOT.index()] = ingress;
    let mut stack = vec![VirtualNetwork::ROOT];
    while let Some(v) = stack.pop() {
        let host = node_map[v.index()];
        for &c in vnet.children(v) {
            let (_, e) = vnet.parent(c).expect("child has a parent");
            // Walk the predecessor forest from the parent's host back to
            // the Dijkstra source (the child's host).
            let mut path = Vec::new();
            let mut cur = host;
            while let Some((prev, l)) = preds[e.index()][cur.index()] {
                path.push(l);
                cur = prev;
            }
            node_map[c.index()] = cur;
            link_paths[e.index()] = path;
            stack.push(c);
        }
    }

    let embedding = Embedding::new(node_map, link_paths);
    debug_assert!(embedding.validate(vnet, substrate, policy).is_ok());
    Some((embedding, total))
}

/// Multi-source Dijkstra: given initial costs `seed[v]` (∞ = not a
/// source) and a link-weight function (`None` = unusable), returns per
/// node the minimum of `seed[v] + pathcost(v→u)` and the predecessor
/// pointers (`None` at sources).
fn reference_multi_source_dijkstra<F>(
    substrate: &SubstrateNetwork,
    seed: &[f64],
    mut weight: F,
) -> (Vec<f64>, Vec<Option<(NodeId, LinkId)>>)
where
    F: FnMut(LinkId) -> Option<f64>,
{
    let n = substrate.node_count();
    let mut dist = vec![INF; n];
    let mut pred: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let mut heap = std::collections::BinaryHeap::new();
    for (i, &s) in seed.iter().enumerate() {
        if s.is_finite() {
            dist[i] = s;
            heap.push(ReferenceEntry {
                dist: s,
                node: NodeId::from_index(i),
            });
        }
    }
    while let Some(ReferenceEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for &(v, l) in substrate.neighbors(u) {
            let Some(w) = weight(l) else { continue };
            let nd = d + w;
            if nd < dist[v.index()] - 1e-15 {
                dist[v.index()] = nd;
                pred[v.index()] = Some((u, l));
                heap.push(ReferenceEntry { dist: nd, node: v });
            }
        }
    }
    (dist, pred)
}

#[derive(Debug, Clone, Copy)]
struct ReferenceEntry {
    dist: f64,
    node: NodeId,
}
impl PartialEq for ReferenceEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.node == other.node
    }
}
impl Eq for ReferenceEntry {}
impl PartialOrd for ReferenceEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReferenceEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// A tree whose root has two children, so the root's own step of the DP
/// sums more than one child transfer; sizes that are not dyadic, so the
/// order of that sum shows in the last bit.
fn wide_root_tree() -> VirtualNetwork {
    let mut vn = VirtualNetwork::with_root();
    let (a, _) = vn
        .add_vnf(VirtualNetwork::ROOT, VnfKind::Standard, 6.1, 0.3)
        .unwrap();
    vn.add_vnf(VirtualNetwork::ROOT, VnfKind::Standard, 9.3, 0.7)
        .unwrap();
    vn.add_vnf(a, VnfKind::Standard, 4.7, 1.1).unwrap();
    vn
}

proptest! {
    /// Every edge ingress of an application, answered from one
    /// `AppPricing` table, gets what the per-class DP gave it: `None` together, or
    /// the same embedding and the same cost bit for bit — under the real
    /// costs and under dual-like costs (a third exactly zero, a third on
    /// a coarse grid, so whole paths tie and the tie rule picks the
    /// predecessor), with and without a capacity filter over a ledger
    /// whose elements are empty, half full or full, and with and without
    /// exclusions, one of them on `(ROOT, ingress)`. The root's step
    /// alone, `root_cost`, gives the same cost bits.
    #[test]
    fn shared_pricing_equals_per_class_dp(
        s in arb_substrate(),
        // Nodes take the first 8 draws, links the other 12 (`arb_substrate`
        // builds at most 8 nodes and 7 + 5 links).
        dual_like in proptest::collection::vec((0u8..3, 0.0f64..60.0), 20),
        fill in proptest::collection::vec(0u8..3, 20),
        demand in 0.05f64..1.5,
        (root_pick, vnode_pick, node_pick, second) in (any::<u16>(), any::<u16>(), any::<u16>(), any::<bool>()),
    ) {
        let policy = PlacementPolicy::default();
        let edge = s.edge_nodes();
        let vnets: Vec<VirtualNetwork> = small_apps()
            .iter()
            .map(|app| app.vnet.clone())
            .chain([wide_root_tree()])
            .collect();

        let draw = |i: usize| match dual_like[i] {
            (0, _) => 0.0,
            (1, x) => (x / 10.0).floor() * 10.0,
            (_, x) => x,
        };
        let cost_vectors = [
            ElementCosts::from_substrate(&s),
            ElementCosts {
                node: (0..s.node_count()).map(draw).collect(),
                link: (0..s.link_count()).map(|l| draw(8 + l)).collect(),
            },
        ];

        let level = |mode: u8, capacity: f64| f64::from(mode) * 0.5 * capacity;
        let mut ledger = LoadLedger::new(&s);
        ledger.apply(
            &Footprint::from_parts(
                s.nodes().map(|(id, n)| (id, level(fill[id.index()], n.capacity))).collect(),
                s.links().map(|(id, l)| (id, level(fill[8 + id.index()], l.capacity))).collect(),
            ),
            1.0,
        );
        // In units of "one edge node filled by a two-VNF chain", as in
        // `one_candidate_offers_equal_the_whole_slot`.
        let filter = CapacityFilter {
            ledger: &ledger,
            demand: demand * s.node(edge[0]).capacity / 20.0,
        };

        for vnet in &vnets {
            let mut excluded = vec![(VirtualNetwork::ROOT, edge[root_pick as usize % edge.len()])];
            if second {
                excluded.push((
                    VnodeId::from_index(1 + vnode_pick as usize % vnet.vnf_count()),
                    NodeId::from_index(node_pick as usize % s.node_count()),
                ));
            }
            for costs in &cost_vectors {
                for filter in [None, Some(filter)] {
                    for exclusions in [&[][..], &excluded[..]] {
                        let table = AppPricing::new(&s, vnet, &policy, costs, filter, exclusions);
                        for &ingress in &edge {
                            let got = table.embed_from(ingress);
                            let want = reference_min_cost_embedding(
                                &s, vnet, &policy, ingress, costs, filter, exclusions,
                            );
                            // Column generation prices by the root's step
                            // alone before it builds a column.
                            prop_assert_eq!(
                                table.root_cost(ingress).map(f64::to_bits),
                                want.as_ref().map(|(_, c)| c.to_bits())
                            );
                            prop_assert_eq!(
                                got.map(|(e, c)| (e, c.to_bits())),
                                want.map(|(e, c)| (e, c.to_bits())),
                                "ingress {} of a {}-node tree, filter {}, {} exclusions",
                                ingress, vnet.node_count(), filter.is_some(), exclusions.len()
                            );
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// What a spanning coordinator relies on (see `OnlineAlgorithm::process_slot`)
// ---------------------------------------------------------------------

/// Replays `requests` through `algorithm` slot by slot and checks, at
/// every slot, the two facts a spanning coordinator rests on:
///
/// 1. arrivals are decided in order — a clone fed the slot's arrivals
///    up to `cut` and then the rest one `process_slot(t, &[], &[c])` at
///    a time agrees with the whole-slot call on every outcome and on
///    the snapshot bytes;
/// 2. a rejection that preempts nothing leaves no trace — a clone fed
///    the slot without such an arrival agrees on every other outcome,
///    on the load ledger, and on every outcome of the next slot.
fn check_offer_contract<A: OnlineAlgorithm + Clone>(
    mut algorithm: A,
    requests: &[Request],
    cut_pick: usize,
) {
    let mut active: Vec<Request> = Vec::new();
    // The clone of the previous slot that never saw one plain rejection.
    let mut shadow: Option<A> = None;
    for t in 0..24u32 {
        let departures: Vec<Request> = active
            .iter()
            .filter(|r| r.departure() == t)
            .cloned()
            .collect();
        active.retain(|r| r.departure() != t);
        let arrivals: Vec<Request> = requests
            .iter()
            .filter(|r| r.arrival == t)
            .cloned()
            .collect();
        let before = algorithm.clone();
        let whole = algorithm.process_slot(t, &departures, &arrivals);

        if let Some(mut shadow) = shadow.take() {
            let next = shadow.process_slot(t, &departures, &arrivals);
            assert_eq!(&next, &whole, "slot {} after a dropped rejection", t);
        }

        // Fact 1: a prefix, then one call per remaining arrival.
        let cut = cut_pick % (arrivals.len() + 1);
        let mut split = before.clone();
        let mut pieces = split.process_slot(t, &departures, &arrivals[..cut]);
        let mut plain_rejection = None;
        for c in &arrivals[cut..] {
            let one = split.process_slot(t, &[], std::slice::from_ref(c));
            if one.rejected == [c.id] && one.preempted.is_empty() {
                plain_rejection.get_or_insert(c.id);
            }
            pieces.extend(one);
        }
        assert_eq!(&pieces, &whole, "slot {} split at {}", t, cut);
        assert_eq!(
            split.snapshot_state().map(|b| b.as_bytes().to_vec()),
            algorithm.snapshot_state().map(|b| b.as_bytes().to_vec()),
            "slot {} split at {}: snapshots differ",
            t,
            cut
        );

        // Fact 2: the slot without one plainly rejected arrival.
        if let Some(dropped) = plain_rejection {
            let mut without = before;
            let kept: Vec<Request> = arrivals
                .iter()
                .filter(|r| r.id != dropped)
                .cloned()
                .collect();
            let outcome = without.process_slot(t, &departures, &kept);
            let mut expected = whole.clone();
            expected.rejected.retain(|&id| id != dropped);
            assert_eq!(&outcome, &expected, "slot {} without {}", t, dropped);
            assert_eq!(
                without.loads().snapshot().as_bytes(),
                algorithm.loads().snapshot().as_bytes(),
                "slot {} without {}: ledgers differ",
                t,
                dropped
            );
            shadow = Some(without);
        }

        for r in &arrivals {
            if whole.accepted.contains(&r.id) {
                active.push(r.clone());
            }
        }
        active.retain(|r| !whole.preempted.contains(&r.id));
    }
}

proptest! {
    /// The offer contract of `OnlineAlgorithm::process_slot` holds for
    /// OLIVE with a plan and preemption, QUICKG and FULLG on random
    /// small worlds under overload-biased random traces.
    #[test]
    fn one_candidate_offers_equal_the_whole_slot(
        s in arb_substrate(),
        raw in proptest::collection::vec(
            (0u8..16, 1u8..8, 0u16..1000, 0.05f64..1.5, 0u8..2),
            1..60,
        ),
        algorithm in 0u8..3,
        cut_pick in 0usize..64,
    ) {
        // Demands in units of "one edge node filled by a two-VNF chain",
        // so the world saturates whatever its capacity scale.
        let unit = s.node(s.edge_nodes()[0]).capacity / 20.0;
        let requests = random_trace(&s, &raw, unit);
        let policy = PlacementPolicy::default();
        match algorithm {
            0 => check_offer_contract(planned_olive(&s, 2.0 * unit), &requests, cut_pick),
            1 => check_offer_contract(Olive::quickg(s, small_apps(), policy), &requests, cut_pick),
            _ => check_offer_contract(FullG::new(s, small_apps(), policy), &requests, cut_pick),
        }
    }
}

/// SLOTOFF re-solves one LP over the whole slot and rounds largest
/// demand first, so it is *not* an in-order algorithm: offered one
/// candidate on top of a decided slot it keeps what it has, where the
/// whole-slot call would have taken the bigger newcomer instead.
#[test]
fn slotoff_decides_a_slot_as_a_batch_not_in_order() {
    let mut s = SubstrateNetwork::new("line");
    let e = s.add_node("e0", Tier::Edge, 100.0, 50.0).unwrap();
    let t = s.add_node("t1", Tier::Transport, 300.0, 10.0).unwrap();
    let c = s.add_node("c2", Tier::Core, 900.0, 1.0).unwrap();
    s.add_link(e, t, 600.0, 1.0).unwrap();
    s.add_link(t, c, 600.0, 1.0).unwrap();
    let mut apps = AppSet::new();
    let chain = shapes::uniform_chain(2, 10.0, 2.0).unwrap();
    apps.push("chain", AppShape::Chain, chain).unwrap();
    let req = |id: u64, demand: f64| Request {
        id: RequestId(id),
        arrival: 0,
        duration: 5,
        ingress: e,
        app: AppId(0),
        demand,
    };
    // 600 CU and 800 CU of VNFs: the 1300 CU world holds one of them.
    let (small, big) = (req(0, 30.0), req(1, 40.0));
    let fresh = SlotOff::new(s, apps, PlacementPolicy::default(), PlanVneConfig::new(1e4));

    let mut whole = fresh.clone();
    let batch = whole.process_slot(0, &[], &[small.clone(), big.clone()]);
    let mut split = fresh;
    let first = split.process_slot(0, &[], std::slice::from_ref(&small));
    let second = split.process_slot(0, &[], std::slice::from_ref(&big));

    assert_eq!(first.accepted, [small.id]);
    assert_eq!(
        second.rejected,
        [big.id],
        "the decided slot keeps its request"
    );
    assert_eq!(
        batch.accepted,
        [big.id],
        "the batch rounds the bigger one first"
    );
    assert_eq!(batch.rejected, [small.id]);
}
