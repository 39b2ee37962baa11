//! The collocated greedy embedding (`GREEDY EMBED`, Alg. 2 l. 31–34).
//!
//! QUICKG's heuristic restriction: all VNFs of the request are collocated
//! on a single substrate node, so only the virtual links incident to the
//! root `θ` consume substrate bandwidth — along one shortest path from
//! the ingress to the hosting node. GPU applications cannot be
//! collocated (a GPU datacenter rejects their non-GPU VNFs), matching
//! the paper's note that QUICKG is not applicable to the GPU scenario.
//!
//! A host `h` costs `a_h + d_h`: its node term `a_h = node_load · cost_h`
//! plus the haul `d_h`, the capacity-filtered shortest-path distance from
//! the ingress. The least-cost feasible host is found by a *bounded*
//! search, which is what keeps QUICKG (and OLIVE's fallback path) fast
//! on large substrates: a floor `m = min a_h` over the feasible hosts,
//! then one Dijkstra from the ingress prices each node as a host when it
//! is settled and stops at the first popped distance `d` with
//! `m + d > best`.
//!
//! The floor does not visit every node. `node_load` depends on a host
//! only through its tier and GPU flag, so within one
//! [`SubstrateNetwork::host_groups`] group `a_h = load · cost_h` for one
//! `load`, and the group is sorted by `cost_h`. For a finite `load ≥ 0`
//! and finite costs, rounding makes `cost ↦ load · cost` monotone, so
//! the group's first *feasible* host holds the group's least `a_h`; `m`
//! is the least of those per-group minima — the value, bit for bit, of a
//! `total_cmp` minimum over a scan of every node (any other group is
//! walked to its end). The bound is admissible, and exact in floating
//! point:
//!
//! 1. every host `h` not yet settled has `a_h ≥ m` and `d_h ≥ d`
//!    (Dijkstra settles in non-decreasing distance);
//! 2. rounding is monotone, so `a_h + d_h ≥ m + d` holds for the
//!    *computed* sums as well;
//! 3. hence `m + d > best` gives `a_h + d_h > best` bit for bit: no
//!    pruned host can win or even tie, and host, path and cost are those
//!    of the full search followed by a scan of every node.
//!
//! Ties go to the lowest [`NodeId`] — the first minimum of a scan in id
//! order. The full search and scan live on as the oracle of the
//! `bounded_greedy_search_matches_the_full_search` property in
//! `tests/proptests.rs`.

use std::cell::Cell;

use vne_model::embedding::Embedding;
use vne_model::ids::NodeId;
use vne_model::load::LoadLedger;
use vne_model::policy::PlacementPolicy;
use vne_model::substrate::{SearchStats, SubstrateNetwork, SubstrateNode, HOST_CLASSES};
use vne_model::vnet::VirtualNetwork;

/// Finds the cheapest feasible collocated embedding for a request of the
/// given demand rooted at `ingress`, under residual capacities.
///
/// Returns the embedding and its real resource cost per unit demand, or
/// `None` when no host node is feasible (including all GPU applications,
/// whose VNFs cannot share one datacenter with each other under the
/// exclusive GPU policy).
pub fn collocated_embed(
    substrate: &SubstrateNetwork,
    vnet: &VirtualNetwork,
    policy: &PlacementPolicy,
    ingress: NodeId,
    ledger: &LoadLedger,
    demand: f64,
) -> Option<(Embedding, f64)> {
    collocated_embed_counted(substrate, vnet, policy, ingress, ledger, demand).0
}

/// [`collocated_embed`] plus the work its search did (all zero when the
/// floor already rules every node out and no search runs).
pub fn collocated_embed_counted(
    substrate: &SubstrateNetwork,
    vnet: &VirtualNetwork,
    policy: &PlacementPolicy,
    ingress: NodeId,
    ledger: &LoadLedger,
    demand: f64,
) -> (Option<(Embedding, f64)>, SearchStats) {
    // Root links' bandwidth: Σ_{(θ,c)} β·η hauled along the ingress→host
    // path.
    let root_links = vnet.children(VirtualNetwork::ROOT);
    let root_link_beta: f64 = root_links
        .iter()
        .map(|&c| {
            let (_, e) = vnet.parent(c).expect("child has a parent");
            vnet.link(e).beta
        })
        .sum();
    // All root links share the path and link η is one number: the max of
    // it over the root links, from 0.
    let root_eta = if root_links.is_empty() {
        0.0
    } else {
        0.0f64.max(policy.link_eta)
    };
    let need = demand * root_link_beta * root_eta;
    let unit = root_link_beta * root_eta;

    // Σ_i β_i·η_i(host) per host class, `None` when a VNF may not sit on
    // the class; a class's load is read off the first node of its group.
    let mut class_load: [Option<f64>; HOST_CLASSES] = [None; HOST_CLASSES];
    // Whether a host of load `load` has room for the total demand.
    let fits =
        |host: NodeId, load: f64| !(load > 0.0 && ledger.node_residual(host) < demand * load);
    let group_floors = substrate
        .host_groups()
        .enumerate()
        .filter_map(|(class, group)| {
            let (&first, &last) = (group.first()?, group.last()?);
            let load = node_load(vnet, policy, substrate.node(first))?;
            class_load[class] = Some(load);
            let mut terms = group
                .iter()
                .filter(|&&h| fits(h, load))
                .map(|&h| load * substrate.node(h).cost);
            let monotone = load.is_finite()
                && load.is_sign_positive()
                && substrate.node(first).cost.is_finite()
                && substrate.node(last).cost.is_finite();
            if monotone {
                terms.next()
            } else {
                terms.min_by(f64::total_cmp)
            }
        });
    let Some(floor) = group_floors.min_by(f64::total_cmp) else {
        return (None, SearchStats::default());
    };
    // The node term `a_h` of a feasible host: every VNF placeable, total
    // demand fits.
    let node_term = |host: NodeId| -> Option<f64> {
        let node = substrate.node(host);
        let load = class_load[node.host_class()]?;
        fits(host, load).then_some(load * node.cost)
    };

    // Dijkstra from the ingress over links that can carry the root links,
    // pricing each node as a host when it is settled.
    let best: Cell<Option<(NodeId, f64)>> = Cell::new(None);
    let (paths, stats) = substrate.search(
        ingress,
        |l| {
            if need > 0.0 && ledger.link_residual(l) < need {
                return None;
            }
            Some(unit * substrate.link(l).cost)
        },
        |host, d| {
            let Some(term) = node_term(host) else { return };
            let cost = term + d;
            match best.get() {
                Some((b, best_cost)) if cost > best_cost || (cost == best_cost && b < host) => {}
                _ => best.set(Some((host, cost))),
            }
        },
        // Written as `floor + d > best`, never `d > best − floor`: only
        // this form inherits the monotonicity of rounding (module doc).
        |d| matches!(best.get(), Some((_, best_cost)) if floor + d > best_cost),
    );

    let Some((host, cost)) = best.get() else {
        return (None, stats);
    };
    let path = paths.path_to(host).expect("host is settled");
    let mut node_map = vec![host; vnet.node_count()];
    node_map[VirtualNetwork::ROOT.index()] = ingress;
    let mut link_paths = vec![Vec::new(); vnet.link_count()];
    for (e, vlink) in vnet.vlinks() {
        if vlink.from == VirtualNetwork::ROOT {
            link_paths[e.index()] = path.clone();
        }
    }
    let embedding = Embedding::new(node_map, link_paths);
    debug_assert!(embedding.validate(vnet, substrate, policy).is_ok());
    (Some((embedding, cost)), stats)
}

/// `Σ_i β_i·η_i(node)` over the VNFs, or `None` when one of them may not
/// be placed on `node`.
fn node_load(vnet: &VirtualNetwork, policy: &PlacementPolicy, node: &SubstrateNode) -> Option<f64> {
    let mut load = 0.0;
    for (_, vnf) in vnet.vnodes() {
        if vnf.beta == 0.0 {
            continue;
        }
        load += vnf.beta * policy.node_eta(vnf, node)?;
    }
    Some(load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vne_model::embedding::Footprint;
    use vne_model::ids::{LinkId, VnodeId};
    use vne_model::substrate::Tier;
    use vne_model::vnet::VnfKind;

    fn line() -> SubstrateNetwork {
        let mut s = SubstrateNetwork::new("line");
        let a = s.add_node("e0", Tier::Edge, 100.0, 50.0).unwrap();
        let b = s.add_node("t1", Tier::Transport, 300.0, 10.0).unwrap();
        let c = s.add_node("c2", Tier::Core, 900.0, 1.0).unwrap();
        s.add_link(a, b, 100.0, 1.0).unwrap();
        s.add_link(b, c, 100.0, 1.0).unwrap();
        s
    }

    #[test]
    fn picks_cheapest_feasible_host() {
        let s = line();
        let vn = VirtualNetwork::chain(&[10.0, 10.0], &[5.0, 5.0]).unwrap();
        let ledger = LoadLedger::new(&s);
        let (emb, cost) = collocated_embed(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &ledger,
            1.0,
        )
        .unwrap();
        // Both VNFs at c2 (cost 1): 20·1 + haul 5 over two links = 30.
        assert!(emb.is_collocated());
        assert_eq!(emb.node(VnodeId(1)), NodeId(2));
        assert!((cost - 30.0).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn capacity_forces_closer_host() {
        let s = line();
        let vn = VirtualNetwork::chain(&[10.0, 10.0], &[5.0, 5.0]).unwrap();
        let mut ledger = LoadLedger::new(&s);
        // Fill c2 so 20 CU no longer fit.
        ledger.apply(
            &Footprint::from_parts(vec![(NodeId(2), 885.0)], vec![]),
            1.0,
        );
        let (emb, _) = collocated_embed(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &ledger,
            1.0,
        )
        .unwrap();
        assert_eq!(emb.node(VnodeId(1)), NodeId(1)); // falls back to t1
    }

    #[test]
    fn link_saturation_blocks_remote_hosts() {
        let s = line();
        let vn = VirtualNetwork::chain(&[1.0, 1.0], &[5.0, 5.0]).unwrap();
        let mut ledger = LoadLedger::new(&s);
        // Saturate the first link: only the ingress itself remains.
        ledger.apply(&Footprint::from_parts(vec![], vec![(LinkId(0), 97.0)]), 1.0);
        let (emb, _) = collocated_embed(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &ledger,
            1.0,
        )
        .unwrap();
        assert_eq!(emb.node(VnodeId(1)), NodeId(0));
    }

    #[test]
    fn infeasible_when_nothing_fits() {
        let s = line();
        let vn = VirtualNetwork::chain(&[60.0], &[1.0]).unwrap();
        let mut ledger = LoadLedger::new(&s);
        for i in 0..3u32 {
            let cap = s.node(NodeId(i)).capacity;
            ledger.apply(
                &Footprint::from_parts(vec![(NodeId(i), cap - 10.0)], vec![]),
                1.0,
            );
        }
        assert!(collocated_embed(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &ledger,
            1.0
        )
        .is_none());
    }

    #[test]
    fn gpu_applications_cannot_collocate() {
        let mut s = line();
        s.node_mut(NodeId(2)).gpu = true;
        let mut vn = VirtualNetwork::with_root();
        let (f0, _) = vn
            .add_vnf(VirtualNetwork::ROOT, VnfKind::Standard, 5.0, 1.0)
            .unwrap();
        vn.add_vnf(f0, VnfKind::Gpu, 5.0, 1.0).unwrap();
        let ledger = LoadLedger::new(&s);
        // No node hosts both a GPU and a standard VNF.
        assert!(collocated_embed(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &ledger,
            1.0
        )
        .is_none());
    }

    #[test]
    fn tree_roots_haul_all_root_links() {
        // Root with one child chain; root link β 5 + verify cost uses it.
        let s = line();
        let mut vn = VirtualNetwork::with_root();
        let (h, _) = vn
            .add_vnf(VirtualNetwork::ROOT, VnfKind::Standard, 1.0, 5.0)
            .unwrap();
        vn.add_vnf(h, VnfKind::Standard, 1.0, 100.0).unwrap(); // internal: free when collocated
        let ledger = LoadLedger::new(&s);
        let (emb, cost) = collocated_embed(
            &s,
            &vn,
            &PlacementPolicy::default(),
            NodeId(0),
            &ledger,
            1.0,
        )
        .unwrap();
        // Cheapest host is c2: 2·1 node + 5·2 haul = 12.
        assert_eq!(emb.node(VnodeId(1)), NodeId(2));
        assert!((cost - 12.0).abs() < 1e-9, "cost {cost}");
    }
}
