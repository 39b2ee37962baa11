//! Exact min-cost tree embedding under arbitrary element costs.
//!
//! This is the computational kernel shared by three components:
//!
//! * the **column-generation pricing problem** of PLAN-VNE: find the
//!   embedding minimizing dual-adjusted costs `cost(s) − π_s`;
//! * the **FULLG** baseline: min real-cost embedding under residual
//!   capacities (exact for a single request up to joint self-interference,
//!   which the caller re-checks);
//! * plan decomposition sanity checks.
//!
//! Because virtual networks are rooted trees, the optimum decomposes over
//! subtrees: `S[j][v]` is the cheapest embedding of the subtree rooted at
//! virtual node `j` given `j` is hosted on substrate node `v`, and the
//! child transfer `M[c][u] = min_v (pathcost(u→v) + S[c][v])` is computed
//! for all `u` simultaneously by one multi-source Dijkstra per virtual
//! link.
//!
//! # One table per application, one root step per ingress
//!
//! The DP has two halves, and only the second knows the ingress:
//!
//! * [`AppPricing::new`] runs bottom-up over every *non-root* virtual
//!   node: placement costs, child transfers, one Dijkstra per virtual
//!   link and its predecessor forest. `O(|G_a| · |E_S| log |V_S|)`.
//! * [`AppPricing::embed_from`] is the root's step — θ is pinned at the
//!   ingress (constraint (11)), so `S[θ]` is needed at that one node: its
//!   placement cost plus the transfers of `children(θ)`, summed in their
//!   order — and then the top-down walk of the predecessor forests.
//!   `O(|G_a| + path lengths)`. The two halves are also
//!   [`AppPricing::root_cost`] and [`AppPricing::embedding_from`], so
//!   column generation prices a class by the root's step alone and walks
//!   the forests only for a column that enters.
//!
//! Sharing invariant: the first half has no ingress to read (`new` takes
//! none), and the second half evaluates `S[θ]` at no node but its own
//! ingress — the per-class DP this replaced filled `S[θ][u]` with `∞` at
//! every `u ≠ ingress` and never read those entries. A table therefore
//! answers any number of ingresses with the embedding and the `f64` a
//! table built for that ingress alone returns ([`min_cost_embedding`] is
//! exactly that: a table used once). A column-generation round over
//! classes (application × ingress) builds `|apps|` tables and takes
//! `|classes|` root steps and walks, not `|classes|` whole DPs — the same
//! columns in the same order, hence the same pivots and plans. A table
//! borrows its cost vector, so it cannot outlive the round whose duals
//! made the costs.

use vne_model::embedding::Embedding;
use vne_model::ids::{LinkId, NodeId, VnodeId};
use vne_model::load::LoadLedger;
use vne_model::policy::PlacementPolicy;
use vne_model::substrate::SubstrateNetwork;
use vne_model::vnet::VirtualNetwork;

/// Per-element cost vectors used by the embedding search.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementCosts {
    /// Cost per unit load per node, indexed by node id.
    pub node: Vec<f64>,
    /// Cost per unit load per link, indexed by link id.
    pub link: Vec<f64>,
}

impl ElementCosts {
    /// The substrate's real resource costs.
    pub fn from_substrate(s: &SubstrateNetwork) -> Self {
        Self {
            node: s.nodes().map(|(_, n)| n.cost).collect(),
            link: s.links().map(|(_, l)| l.cost).collect(),
        }
    }

    /// Dual-adjusted costs `cost(s) − π_s` for column-generation pricing.
    /// Capacity-row duals are ≤ 0 at optimality, so adjusted costs stay
    /// non-negative (clamped defensively for numerical noise).
    pub fn from_duals(s: &SubstrateNetwork, node_duals: &[f64], link_duals: &[f64]) -> Self {
        Self {
            node: s
                .nodes()
                .map(|(id, n)| (n.cost - node_duals[id.index()]).max(0.0))
                .collect(),
            link: s
                .links()
                .map(|(id, l)| (l.cost - link_duals[id.index()]).max(0.0))
                .collect(),
        }
    }
}

/// Restricts the search to elements with enough residual capacity for a
/// request of the given demand.
#[derive(Debug, Clone, Copy)]
pub struct CapacityFilter<'a> {
    /// Residual capacities.
    pub ledger: &'a LoadLedger,
    /// The request demand `d(r)` scaling every footprint.
    pub demand: f64,
}

const INF: f64 = f64::INFINITY;

/// The ingress-independent half of the tree DP for one application under
/// one cost vector, filter and exclusion list (see the module doc): the
/// child transfers `M` and the predecessor forests of every virtual
/// link. [`AppPricing::embed_from`] answers one ingress from it.
#[derive(Debug)]
pub struct AppPricing<'a> {
    substrate: &'a SubstrateNetwork,
    vnet: &'a VirtualNetwork,
    policy: &'a PlacementPolicy,
    costs: &'a ElementCosts,
    filter: Option<CapacityFilter<'a>>,
    exclusions: &'a [(VnodeId, NodeId)],
    /// For each virtual link `e = (j, c)`: the arrival cost
    /// `M[c][u]` (indexed by the substrate node `u` hosting `j`).
    transfer: Vec<Vec<f64>>,
    /// For each virtual link: the Dijkstra predecessor forest, rooted at
    /// the hosts of its child end.
    preds: Vec<Vec<Option<(NodeId, LinkId)>>>,
}

impl<'a> AppPricing<'a> {
    /// Builds the table bottom-up over every non-root virtual node.
    ///
    /// With a [`CapacityFilter`], per-element feasibility is enforced for
    /// each virtual element separately; the caller must re-check the joint
    /// footprint (several virtual elements may share one substrate
    /// element). The listed `(virtual node, substrate node)` assignments
    /// are forbidden.
    pub fn new(
        substrate: &'a SubstrateNetwork,
        vnet: &'a VirtualNetwork,
        policy: &'a PlacementPolicy,
        costs: &'a ElementCosts,
        filter: Option<CapacityFilter<'a>>,
        exclusions: &'a [(VnodeId, NodeId)],
    ) -> Self {
        let n_sub = substrate.node_count();
        debug_assert_eq!(costs.node.len(), n_sub);
        debug_assert_eq!(costs.link.len(), substrate.link_count());
        let mut table = Self {
            substrate,
            vnet,
            policy,
            costs,
            filter,
            exclusions,
            transfer: vec![vec![INF; n_sub]; vnet.link_count()],
            preds: vec![vec![None; n_sub]; vnet.link_count()],
        };

        for &v in vnet.bfs_order().iter().rev() {
            // The root has no link to propagate over: its step is
            // `embed_from`'s.
            let Some((_, e)) = vnet.parent(v) else {
                continue;
            };
            // Children transfers were computed in earlier (deeper)
            // iterations.
            let subtree: Vec<f64> = substrate
                .nodes()
                .map(|(u, _)| table.subtree_cost(v, u))
                .collect();
            // Propagate to the parent via a multi-source Dijkstra over
            // the connecting virtual link.
            let vlink = vnet.link(e);
            let (m, pred) = multi_source_dijkstra(substrate, &subtree, |l| {
                let eta = policy.link_eta;
                if let Some(f) = &filter {
                    let need = f.demand * vlink.beta * eta;
                    if need > 0.0 && f.ledger.link_residual(l) < need {
                        return None;
                    }
                }
                Some(vlink.beta * eta * costs.link[l.index()])
            });
            table.transfer[e.index()] = m;
            table.preds[e.index()] = pred;
        }
        table
    }

    /// `S[v][u]`: the placement cost of `v` on `u` plus the transfers of
    /// `v`'s children in their order; `∞` when `v` may not sit on `u` or
    /// a child cannot be reached from there.
    fn subtree_cost(&self, v: VnodeId, u: NodeId) -> f64 {
        if self.exclusions.iter().any(|&(xv, xu)| xv == v && xu == u) {
            return INF;
        }
        let vnf = self.vnet.node(v);
        let Some(eta) = self.policy.node_eta(vnf, self.substrate.node(u)) else {
            return INF;
        };
        if let Some(f) = &self.filter {
            let need = f.demand * vnf.beta * eta;
            if need > 0.0 && f.ledger.node_residual(u) < need {
                return INF;
            }
        }
        let mut cost = vnf.beta * eta * self.costs.node[u.index()];
        for &c in self.vnet.children(v) {
            let (_, e) = self.vnet.parent(c).expect("child has a parent");
            let m = self.transfer[e.index()][u.index()];
            if !m.is_finite() {
                return INF;
            }
            cost += m;
        }
        cost
    }

    /// The minimum-cost embedding rooted at `ingress` and its cost *under
    /// the table's element costs*, per unit demand. `None` when no
    /// feasible embedding exists (placement restrictions, an exclusion on
    /// `(ROOT, ingress)` or, with a filter, insufficient capacity).
    pub fn embed_from(&self, ingress: NodeId) -> Option<(Embedding, f64)> {
        let total = self.root_cost(ingress)?;
        Some((self.embedding_from(ingress), total))
    }

    /// The cost [`AppPricing::embed_from`] returns for `ingress`, the same
    /// `f64`, without building the embedding: the root's step alone.
    /// `None` exactly when `embed_from` returns `None`.
    pub fn root_cost(&self, ingress: NodeId) -> Option<f64> {
        // (11): the root may only sit at the ingress.
        let total = self.subtree_cost(VirtualNetwork::ROOT, ingress);
        total.is_finite().then_some(total)
    }

    /// The embedding [`AppPricing::embed_from`] returns for an `ingress`
    /// whose [`AppPricing::root_cost`] is `Some`: the top-down walk of the
    /// predecessor forests. For any other ingress it is meaningless.
    pub fn embedding_from(&self, ingress: NodeId) -> Embedding {
        let vnet = self.vnet;
        let mut node_map = vec![NodeId(0); vnet.node_count()];
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
                while let Some((prev, l)) = self.preds[e.index()][cur.index()] {
                    path.push(l);
                    cur = prev;
                }
                node_map[c.index()] = cur;
                link_paths[e.index()] = path;
                stack.push(c);
            }
        }

        let embedding = Embedding::new(node_map, link_paths);
        debug_assert!(embedding
            .validate(vnet, self.substrate, self.policy)
            .is_ok());
        embedding
    }
}

/// Finds a minimum-cost embedding of `vnet` rooted at `ingress`: an
/// [`AppPricing`] table used for one ingress.
///
/// Returns the embedding and its cost *under the given element costs*,
/// per unit demand. Returns `None` when no feasible embedding exists
/// (placement restrictions or, with a filter, insufficient capacity).
///
/// With a [`CapacityFilter`], per-element feasibility is enforced for
/// each virtual element separately; the caller must re-check the joint
/// footprint (several virtual elements may share one substrate element).
pub fn min_cost_embedding(
    substrate: &SubstrateNetwork,
    vnet: &VirtualNetwork,
    policy: &PlacementPolicy,
    ingress: NodeId,
    costs: &ElementCosts,
    filter: Option<CapacityFilter<'_>>,
) -> Option<(Embedding, f64)> {
    min_cost_embedding_with_exclusions(substrate, vnet, policy, ingress, costs, filter, &[])
}

/// [`min_cost_embedding`] with explicit placement exclusions: the listed
/// `(virtual node, substrate node)` assignments are forbidden. Used by
/// FULLG to resolve joint self-interference (two virtual nodes whose
/// combined load overloads one substrate node) without the full ILP.
pub fn min_cost_embedding_with_exclusions(
    substrate: &SubstrateNetwork,
    vnet: &VirtualNetwork,
    policy: &PlacementPolicy,
    ingress: NodeId,
    costs: &ElementCosts,
    filter: Option<CapacityFilter<'_>>,
    exclusions: &[(VnodeId, NodeId)],
) -> Option<(Embedding, f64)> {
    AppPricing::new(substrate, vnet, policy, costs, filter, exclusions).embed_from(ingress)
}

/// Multi-source Dijkstra: given initial costs `seed[v]` (∞ = not a
/// source) and a link-weight function (`None` = unusable), returns per
/// node the minimum of `seed[v] + pathcost(v→u)` and the predecessor
/// pointers (`None` at sources).
fn multi_source_dijkstra<F>(
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
            heap.push(Entry {
                dist: s,
                node: NodeId::from_index(i),
            });
        }
    }
    while let Some(Entry { dist: d, node: u }) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for &(v, l) in substrate.neighbors(u) {
            let Some(w) = weight(l) else { continue };
            let nd = d + w;
            if nd < dist[v.index()] - 1e-15 {
                dist[v.index()] = nd;
                pred[v.index()] = Some((u, l));
                heap.push(Entry { dist: nd, node: v });
            }
        }
    }
    (dist, pred)
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    dist: f64,
    node: NodeId,
}
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.node == other.node
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vne_model::substrate::Tier;
    use vne_model::vnet::VnfKind;

    /// e0(cost 50) - t1(cost 10) - c2(cost 1), link costs 1.
    fn line() -> SubstrateNetwork {
        let mut s = SubstrateNetwork::new("line");
        let a = s.add_node("e0", Tier::Edge, 1000.0, 50.0).unwrap();
        let b = s.add_node("t1", Tier::Transport, 1000.0, 10.0).unwrap();
        let c = s.add_node("c2", Tier::Core, 1000.0, 1.0).unwrap();
        s.add_link(a, b, 1000.0, 1.0).unwrap();
        s.add_link(b, c, 1000.0, 1.0).unwrap();
        s
    }

    #[test]
    fn single_vnf_goes_to_cheapest_reachable_node() {
        let s = line();
        // θ → f0 with β 10, link β 1 (cheap to haul): f0 should go to c2.
        let vn = VirtualNetwork::chain(&[10.0], &[1.0]).unwrap();
        let costs = ElementCosts::from_substrate(&s);
        let (emb, cost) = min_cost_embedding(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &costs,
            None,
        )
        .unwrap();
        assert_eq!(emb.node(VnodeId(1)), NodeId(2));
        // Cost: node 10·1 + path 2 links × 1·1 = 12.
        assert!((cost - 12.0).abs() < 1e-9);
    }

    #[test]
    fn heavy_link_keeps_vnf_local() {
        let s = line();
        // Link β 100 vs node β 1: hauling costs 100/hop, stay at e0.
        let vn = VirtualNetwork::chain(&[1.0], &[100.0]).unwrap();
        let costs = ElementCosts::from_substrate(&s);
        let (emb, cost) = min_cost_embedding(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &costs,
            None,
        )
        .unwrap();
        assert_eq!(emb.node(VnodeId(1)), NodeId(0));
        assert!((cost - 50.0).abs() < 1e-9); // 1·50 node, no links
    }

    #[test]
    fn chain_costs_are_exact() {
        let s = line();
        let vn = VirtualNetwork::chain(&[10.0, 10.0], &[5.0, 5.0]).unwrap();
        let costs = ElementCosts::from_substrate(&s);
        let (emb, cost) = min_cost_embedding(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &costs,
            None,
        )
        .unwrap();
        // Optimal: both VNFs at c2: node 10·1·2 = 20, first link hauls 5
        // over 2 hops = 10, second link collocated = 0. Total 30.
        assert!((cost - 30.0).abs() < 1e-9, "cost {cost}");
        assert_eq!(emb.node(VnodeId(1)), NodeId(2));
        assert_eq!(emb.node(VnodeId(2)), NodeId(2));
        assert!(emb.path(vne_model::ids::VlinkId(1)).is_empty());
        // The returned cost matches the footprint cost under real prices.
        let fp_cost = emb.unit_cost(&vn, &s, &PlacementPolicy::default());
        assert!((fp_cost - cost).abs() < 1e-9);
    }

    #[test]
    fn capacity_filter_redirects_placement() {
        let s = line();
        let vn = VirtualNetwork::chain(&[10.0], &[1.0]).unwrap();
        let costs = ElementCosts::from_substrate(&s);
        let mut ledger = LoadLedger::new(&s);
        // Saturate c2 so only t1/e0 can host (demand 2 ⇒ need 20 CU).
        ledger.apply(
            &vne_model::embedding::Footprint::from_parts(vec![(NodeId(2), 990.0)], vec![]),
            1.0,
        );
        let (emb, _) = min_cost_embedding(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &costs,
            Some(CapacityFilter {
                ledger: &ledger,
                demand: 2.0,
            }),
        )
        .unwrap();
        assert_eq!(emb.node(VnodeId(1)), NodeId(1)); // t1, not saturated c2
    }

    #[test]
    fn link_capacity_filter_blocks_path() {
        let s = line();
        let vn = VirtualNetwork::chain(&[1.0], &[10.0]).unwrap();
        let costs = ElementCosts::from_substrate(&s);
        let mut ledger = LoadLedger::new(&s);
        // Saturate link t1-c2.
        ledger.apply(
            &vne_model::embedding::Footprint::from_parts(
                vec![],
                vec![(vne_model::ids::LinkId(1), 995.0)],
            ),
            1.0,
        );
        let (emb, _) = min_cost_embedding(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &costs,
            Some(CapacityFilter {
                ledger: &ledger,
                demand: 1.0,
            }),
        )
        .unwrap();
        // c2 unreachable for the virtual link: t1 or e0 only.
        assert_ne!(emb.node(VnodeId(1)), NodeId(2));
    }

    #[test]
    fn infeasible_when_everything_saturated() {
        let s = line();
        let vn = VirtualNetwork::chain(&[10.0], &[1.0]).unwrap();
        let costs = ElementCosts::from_substrate(&s);
        let mut ledger = LoadLedger::new(&s);
        for i in 0..3 {
            ledger.apply(
                &vne_model::embedding::Footprint::from_parts(vec![(NodeId(i), 999.5)], vec![]),
                1.0,
            );
        }
        assert!(min_cost_embedding(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &costs,
            Some(CapacityFilter {
                ledger: &ledger,
                demand: 1.0
            }),
        )
        .is_none());
    }

    #[test]
    fn gpu_vnf_is_routed_to_gpu_node() {
        let mut s = line();
        s.node_mut(NodeId(1)).gpu = true; // t1 is the GPU site
        let mut vn = VirtualNetwork::with_root();
        let (f0, _) = vn
            .add_vnf(VirtualNetwork::ROOT, VnfKind::Standard, 5.0, 1.0)
            .unwrap();
        vn.add_vnf(f0, VnfKind::Gpu, 5.0, 1.0).unwrap();
        let costs = ElementCosts::from_substrate(&s);
        let (emb, _) = min_cost_embedding(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &costs,
            None,
        )
        .unwrap();
        assert_eq!(emb.node(VnodeId(2)), NodeId(1));
        // The standard VNF may not sit on the GPU node.
        assert_ne!(emb.node(VnodeId(1)), NodeId(1));
    }

    #[test]
    fn tree_children_split_optimally() {
        // Diamond-ish: ingress e0; two children under one head.
        let mut s = SubstrateNetwork::new("y");
        let e = s.add_node("e", Tier::Edge, 1000.0, 50.0).unwrap();
        let a = s.add_node("a", Tier::Core, 1000.0, 1.0).unwrap();
        let b = s.add_node("b", Tier::Core, 1000.0, 2.0).unwrap();
        s.add_link(e, a, 1000.0, 1.0).unwrap();
        s.add_link(e, b, 1000.0, 1.0).unwrap();
        s.add_link(a, b, 1000.0, 1.0).unwrap();
        let mut vn = VirtualNetwork::with_root();
        let (head, _) = vn
            .add_vnf(VirtualNetwork::ROOT, VnfKind::Standard, 10.0, 1.0)
            .unwrap();
        vn.add_vnf(head, VnfKind::Standard, 10.0, 1.0).unwrap();
        vn.add_vnf(head, VnfKind::Standard, 10.0, 1.0).unwrap();
        let costs = ElementCosts::from_substrate(&s);
        let (emb, cost) =
            min_cost_embedding(&s, &vn, &PlacementPolicy::default(), e, &costs, None).unwrap();
        // All three VNFs at node a (cost 1): 30 + link θ→head 1 = 31.
        assert_eq!(emb.node(VnodeId(1)), a);
        assert_eq!(emb.node(VnodeId(2)), a);
        assert_eq!(emb.node(VnodeId(3)), a);
        assert!((cost - 31.0).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn root_only_network_embeds_trivially() {
        let s = line();
        let vn = VirtualNetwork::with_root();
        let costs = ElementCosts::from_substrate(&s);
        let (emb, cost) = min_cost_embedding(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(1),
            &costs,
            None,
        )
        .unwrap();
        assert_eq!(emb.ingress(), NodeId(1));
        assert_eq!(cost, 0.0);
        // No virtual link, so the table holds nothing and every answer is
        // the root's own step.
        let policy = PlacementPolicy::default();
        let table = AppPricing::new(&s, &vn, &policy, &costs, None, &[]);
        let (emb, cost) = table.embed_from(NodeId(2)).unwrap();
        assert_eq!(emb.node_map(), [NodeId(2)]);
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn one_table_answers_every_ingress_like_a_fresh_call() {
        let s = line();
        let vn = VirtualNetwork::chain(&[10.0, 10.0], &[5.0, 5.0]).unwrap();
        let policy = PlacementPolicy::default();
        let costs = ElementCosts::from_substrate(&s);
        let table = AppPricing::new(&s, &vn, &policy, &costs, None, &[]);
        let from_edge = table.embed_from(NodeId(0)).unwrap();
        let from_core = table.embed_from(NodeId(2)).unwrap();
        // Both VNFs on c2 either way; only the haul from the ingress differs.
        assert_eq!(from_edge.1, 30.0);
        assert_eq!(from_core.1, 20.0);
        assert_ne!(from_edge.0, from_core.0);
        for (ingress, got) in [(NodeId(0), from_edge), (NodeId(2), from_core)] {
            let fresh = min_cost_embedding(&s, &vn, &policy, ingress, &costs, None);
            assert_eq!(Some(got), fresh);
        }
    }

    #[test]
    fn excluded_ingress_is_refused_by_the_root_step_alone() {
        let s = line();
        let vn = VirtualNetwork::chain(&[10.0], &[1.0]).unwrap();
        let policy = PlacementPolicy::default();
        let costs = ElementCosts::from_substrate(&s);
        let exclusions = [(VirtualNetwork::ROOT, NodeId(0))];
        let table = AppPricing::new(&s, &vn, &policy, &costs, None, &exclusions);
        assert!(table.embed_from(NodeId(0)).is_none());
        // The same table still serves the ingresses the exclusion spares.
        let (emb, cost) = table.embed_from(NodeId(1)).unwrap();
        assert_eq!(emb.node(VnodeId(1)), NodeId(2));
        assert_eq!(cost, 11.0);
    }

    #[test]
    fn dual_adjusted_costs_shift_choice() {
        let s = line();
        let vn = VirtualNetwork::chain(&[10.0], &[1.0]).unwrap();
        // Congestion dual on c2 makes it expensive: π = −10 ⇒ cost 11.
        let mut node_duals = vec![0.0; 3];
        node_duals[2] = -10.0;
        let costs = ElementCosts::from_duals(&s, &node_duals, &[0.0, 0.0]);
        let (emb, _) = min_cost_embedding(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &costs,
            None,
        )
        .unwrap();
        // t1 at cost 10 now beats c2 at 11.
        assert_eq!(emb.node(VnodeId(1)), NodeId(1));
    }
}
