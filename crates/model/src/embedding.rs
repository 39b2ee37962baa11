//! Embeddings: mappings of virtual networks onto the substrate.
//!
//! An embedding maps every virtual node to a substrate node and every
//! virtual link to a (possibly empty) substrate path — unsplittable, as
//! required for valid online allocations (`x_s^q(r) = 1` for exactly one
//! `s`). Embeddings are *unit-demand* objects: the same embedding shape is
//! reused by every request of a class, scaled by the request demand.

use serde::{Deserialize, Serialize};

use crate::error::{ModelError, ModelResult};
use crate::ids::{ElementId, LinkId, NodeId, VlinkId, VnodeId};
use crate::policy::PlacementPolicy;
use crate::substrate::SubstrateNetwork;
use crate::vnet::VirtualNetwork;

/// An unsplittable mapping of a virtual network onto the substrate.
///
/// `node_map[i]` is the substrate node hosting virtual node `i`;
/// `link_paths[e]` is the substrate path (list of link ids, ordered from
/// the parent's node to the child's node) carrying virtual link `e`. A
/// path is empty when both endpoints are hosted on the same node.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Embedding {
    node_map: Vec<NodeId>,
    link_paths: Vec<Vec<LinkId>>,
}

impl Embedding {
    /// Creates an embedding from raw mappings.
    ///
    /// Structural validation (path contiguity, placement permissions) is
    /// performed by [`Embedding::validate`]; this constructor only checks
    /// that both maps are non-empty-consistent in length elsewhere.
    pub fn new(node_map: Vec<NodeId>, link_paths: Vec<Vec<LinkId>>) -> Self {
        Self {
            node_map,
            link_paths,
        }
    }

    /// The substrate node hosting virtual node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn node(&self, v: VnodeId) -> NodeId {
        self.node_map[v.index()]
    }

    /// The substrate path carrying virtual link `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn path(&self, e: VlinkId) -> &[LinkId] {
        &self.link_paths[e.index()]
    }

    /// The full node map, indexed by virtual node id.
    pub fn node_map(&self) -> &[NodeId] {
        &self.node_map
    }

    /// The full path map, indexed by virtual link id.
    pub fn link_paths(&self) -> &[Vec<LinkId>] {
        &self.link_paths
    }

    /// The substrate node hosting the root `θ` (the request ingress).
    pub fn ingress(&self) -> NodeId {
        self.node_map[0]
    }

    /// Whether all VNFs (non-root nodes) are collocated on one substrate
    /// node (the QUICKG restriction).
    pub fn is_collocated(&self) -> bool {
        self.node_map.len() <= 2 || self.node_map[1..].windows(2).all(|w| w[0] == w[1])
    }

    /// Validates this embedding against a virtual network, substrate and
    /// placement policy.
    ///
    /// Checks performed:
    ///
    /// * the maps cover every virtual node and link;
    /// * every referenced substrate element exists;
    /// * every placement is allowed by the policy (finite `η`);
    /// * every path is contiguous from the parent's host to the child's
    ///   host (empty paths require collocated endpoints).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(
        &self,
        vnet: &VirtualNetwork,
        substrate: &SubstrateNetwork,
        policy: &PlacementPolicy,
    ) -> ModelResult<()> {
        if self.node_map.len() != vnet.node_count() || self.link_paths.len() != vnet.link_count() {
            return Err(ModelError::IncompleteEmbedding);
        }
        for (v, vnf) in vnet.vnodes() {
            let host = self.node_map[v.index()];
            if host.index() >= substrate.node_count() {
                return Err(ModelError::UnknownNode(host));
            }
            if !policy.allows(vnf, substrate.node(host)) {
                return Err(ModelError::ForbiddenPlacement {
                    vnode: v,
                    node: host,
                });
            }
        }
        for (e, vlink) in vnet.vlinks() {
            let from = self.node_map[vlink.from.index()];
            let to = self.node_map[vlink.to.index()];
            let path = &self.link_paths[e.index()];
            let mut cur = from;
            for &l in path {
                if l.index() >= substrate.link_count() {
                    return Err(ModelError::UnknownLink(l));
                }
                let link = substrate.link(l);
                if !link.touches(cur) {
                    return Err(ModelError::BrokenPath(e));
                }
                cur = link.other(cur);
            }
            if cur != to {
                return Err(ModelError::BrokenPath(e));
            }
        }
        Ok(())
    }

    /// Computes this embedding's per-unit-demand footprint: the aggregated
    /// load `β_q · η_s^q` on every touched substrate element (Eq. 1 with
    /// `d(r) = 1`).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a placement is forbidden; call
    /// [`Embedding::validate`] first for untrusted embeddings.
    pub fn footprint(
        &self,
        vnet: &VirtualNetwork,
        substrate: &SubstrateNetwork,
        policy: &PlacementPolicy,
    ) -> Footprint {
        let mut nodes: Vec<(NodeId, f64)> = Vec::with_capacity(vnet.node_count());
        let mut links: Vec<(LinkId, f64)> = Vec::new();
        for (v, vnf) in vnet.vnodes() {
            if vnf.beta == 0.0 {
                continue;
            }
            let host = self.node_map[v.index()];
            let eta = policy
                .node_eta(vnf, substrate.node(host))
                .expect("forbidden placement in footprint; validate first");
            nodes.push((host, vnf.beta * eta));
        }
        for (e, vlink) in vnet.vlinks() {
            if vlink.beta == 0.0 {
                continue;
            }
            for &l in &self.link_paths[e.index()] {
                links.push((l, vlink.beta * policy.link_eta));
            }
        }
        Footprint::from_parts(nodes, links)
    }

    /// Resource cost per unit demand per time slot of this embedding
    /// (Σ over elements of `load · cost(s)`, Eq. 3 for one slot and
    /// `d(r) = 1`).
    pub fn unit_cost(
        &self,
        vnet: &VirtualNetwork,
        substrate: &SubstrateNetwork,
        policy: &PlacementPolicy,
    ) -> f64 {
        self.footprint(vnet, substrate, policy).cost(substrate)
    }
}

/// Aggregated per-unit-demand load of an embedding on substrate elements.
///
/// Entries are consolidated (one entry per element) and sorted by id, so
/// footprints compare and merge deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Footprint {
    nodes: Vec<(NodeId, f64)>,
    links: Vec<(LinkId, f64)>,
}

impl Footprint {
    /// Builds a footprint from unconsolidated parts.
    pub fn from_parts(nodes: Vec<(NodeId, f64)>, links: Vec<(LinkId, f64)>) -> Self {
        fn consolidate<K: Copy + Ord>(mut v: Vec<(K, f64)>) -> Vec<(K, f64)> {
            v.sort_by_key(|&(k, _)| k);
            let mut out: Vec<(K, f64)> = Vec::with_capacity(v.len());
            for (k, x) in v {
                match out.last_mut() {
                    Some((lk, lx)) if *lk == k => *lx += x,
                    _ => out.push((k, x)),
                }
            }
            out
        }
        Self {
            nodes: consolidate(nodes),
            links: consolidate(links),
        }
    }

    /// Per-node loads, sorted by node id.
    pub fn nodes(&self) -> &[(NodeId, f64)] {
        &self.nodes
    }

    /// Per-link loads, sorted by link id.
    pub fn links(&self) -> &[(LinkId, f64)] {
        &self.links
    }

    /// Whether the footprint touches no element.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.links.is_empty()
    }

    /// Iterates over `(element, load)` pairs, nodes first.
    pub fn elements(&self) -> impl Iterator<Item = (ElementId, f64)> + '_ {
        self.nodes
            .iter()
            .map(|&(n, x)| (ElementId::Node(n), x))
            .chain(self.links.iter().map(|&(l, x)| (ElementId::Link(l), x)))
    }

    /// The load on a specific node (0 if untouched).
    pub fn node_load(&self, n: NodeId) -> f64 {
        self.nodes
            .binary_search_by_key(&n, |&(k, _)| k)
            .map(|i| self.nodes[i].1)
            .unwrap_or(0.0)
    }

    /// The load on a specific link (0 if untouched).
    pub fn link_load(&self, l: LinkId) -> f64 {
        self.links
            .binary_search_by_key(&l, |&(k, _)| k)
            .map(|i| self.links[i].1)
            .unwrap_or(0.0)
    }

    /// Resource cost per time slot of this footprint at unit demand.
    pub fn cost(&self, substrate: &SubstrateNetwork) -> f64 {
        let n: f64 = self
            .nodes
            .iter()
            .map(|&(id, x)| x * substrate.node(id).cost)
            .sum();
        let l: f64 = self
            .links
            .iter()
            .map(|&(id, x)| x * substrate.link(id).cost)
            .sum();
        n + l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::Tier;
    use crate::vnet::VnfKind;

    /// Line substrate: e0 (edge) - t1 (transport) - c2 (core).
    fn line() -> SubstrateNetwork {
        let mut s = SubstrateNetwork::new("line");
        let a = s.add_node("e0", Tier::Edge, 200.0, 50.0).unwrap();
        let b = s.add_node("t1", Tier::Transport, 600.0, 10.0).unwrap();
        let c = s.add_node("c2", Tier::Core, 1800.0, 1.0).unwrap();
        s.add_link(a, b, 100.0, 1.0).unwrap();
        s.add_link(b, c, 300.0, 1.0).unwrap();
        s
    }

    /// θ → f0 → f1 chain with β = 10, link β = 5.
    fn chain2() -> VirtualNetwork {
        VirtualNetwork::chain(&[10.0, 10.0], &[5.0, 5.0]).unwrap()
    }

    #[test]
    fn valid_spread_embedding() {
        let s = line();
        let vn = chain2();
        let p = PlacementPolicy::default();
        // θ@e0, f0@t1, f1@c2; paths e0-t1 and t1-c2.
        let emb = Embedding::new(
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![vec![LinkId(0)], vec![LinkId(1)]],
        );
        assert!(emb.validate(&vn, &s, &p).is_ok());
        assert!(!emb.is_collocated());
        let fp = emb.footprint(&vn, &s, &p);
        assert_eq!(fp.node_load(NodeId(1)), 10.0);
        assert_eq!(fp.node_load(NodeId(2)), 10.0);
        assert_eq!(fp.node_load(NodeId(0)), 0.0); // root has β = 0
        assert_eq!(fp.link_load(LinkId(0)), 5.0);
        // Cost: 10·10 (t1) + 10·1 (c2) + 5·1 + 5·1 (links) = 120.
        assert_eq!(fp.cost(&s), 120.0);
        assert_eq!(emb.unit_cost(&vn, &s, &p), 120.0);
    }

    #[test]
    fn collocated_embedding_has_empty_inner_paths() {
        let s = line();
        let vn = chain2();
        let p = PlacementPolicy::default();
        // θ@e0, f0,f1@t1: path e0-t1 then empty.
        let emb = Embedding::new(
            vec![NodeId(0), NodeId(1), NodeId(1)],
            vec![vec![LinkId(0)], vec![]],
        );
        assert!(emb.validate(&vn, &s, &p).is_ok());
        assert!(emb.is_collocated());
        let fp = emb.footprint(&vn, &s, &p);
        assert_eq!(fp.node_load(NodeId(1)), 20.0); // consolidated
        assert_eq!(fp.link_load(LinkId(1)), 0.0);
    }

    #[test]
    fn broken_path_is_rejected() {
        let s = line();
        let vn = chain2();
        let p = PlacementPolicy::default();
        // Path for e1 claims link 0 but f0 is on t1 → c2 requires link 1.
        let emb = Embedding::new(
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![vec![LinkId(0)], vec![LinkId(0)]],
        );
        assert_eq!(
            emb.validate(&vn, &s, &p),
            Err(ModelError::BrokenPath(VlinkId(1)))
        );
    }

    #[test]
    fn empty_path_requires_collocation() {
        let s = line();
        let vn = chain2();
        let p = PlacementPolicy::default();
        let emb = Embedding::new(
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![vec![LinkId(0)], vec![]],
        );
        assert_eq!(
            emb.validate(&vn, &s, &p),
            Err(ModelError::BrokenPath(VlinkId(1)))
        );
    }

    #[test]
    fn incomplete_embedding_is_rejected() {
        let s = line();
        let vn = chain2();
        let p = PlacementPolicy::default();
        let emb = Embedding::new(vec![NodeId(0), NodeId(1)], vec![vec![LinkId(0)]]);
        assert_eq!(
            emb.validate(&vn, &s, &p),
            Err(ModelError::IncompleteEmbedding)
        );
    }

    #[test]
    fn forbidden_placement_is_rejected() {
        let mut s = line();
        s.node_mut(NodeId(1)).gpu = true; // t1 becomes GPU-only
        let vn = chain2();
        let p = PlacementPolicy::default();
        let emb = Embedding::new(
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![vec![LinkId(0)], vec![LinkId(1)]],
        );
        assert_eq!(
            emb.validate(&vn, &s, &p),
            Err(ModelError::ForbiddenPlacement {
                vnode: VnodeId(1),
                node: NodeId(1)
            })
        );
    }

    #[test]
    fn gpu_vnf_validates_on_gpu_dc() {
        let mut s = line();
        s.node_mut(NodeId(2)).gpu = true;
        let mut vn = VirtualNetwork::with_root();
        let (f0, _) = vn
            .add_vnf(VirtualNetwork::ROOT, VnfKind::Standard, 10.0, 5.0)
            .unwrap();
        vn.add_vnf(f0, VnfKind::Gpu, 10.0, 5.0).unwrap();
        let p = PlacementPolicy::default();
        let emb = Embedding::new(
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![vec![LinkId(0)], vec![LinkId(1)]],
        );
        assert!(emb.validate(&vn, &s, &p).is_ok());
    }

    #[test]
    fn footprint_loads_and_cost() {
        let s = line();
        let vn = chain2();
        let p = PlacementPolicy::default();
        let emb = Embedding::new(
            vec![NodeId(0), NodeId(1), NodeId(2)],
            vec![vec![LinkId(0)], vec![LinkId(1)]],
        );
        let fp = emb.footprint(&vn, &s, &p);
        assert_eq!(fp.node_load(NodeId(1)), 10.0);
        assert_eq!(fp.link_load(LinkId(1)), 5.0);
        assert_eq!(fp.cost(&s), 120.0);
    }

    #[test]
    fn footprint_elements_iteration() {
        let fp = Footprint::from_parts(
            vec![(NodeId(2), 1.0), (NodeId(1), 2.0), (NodeId(2), 3.0)],
            vec![(LinkId(0), 1.0)],
        );
        let elems: Vec<_> = fp.elements().collect();
        assert_eq!(elems.len(), 3);
        assert_eq!(fp.node_load(NodeId(2)), 4.0);
        assert!(!fp.is_empty());
        assert!(Footprint::default().is_empty());
    }

    #[test]
    fn embeddings_hash_and_compare() {
        use std::collections::HashSet;
        let a = Embedding::new(vec![NodeId(0)], vec![]);
        let b = Embedding::new(vec![NodeId(0)], vec![]);
        let c = Embedding::new(vec![NodeId(1)], vec![]);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }
}
