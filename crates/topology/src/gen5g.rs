//! A 5GEN-style hierarchical 5G infrastructure topology.
//!
//! The paper's "5GEN" topology (78 nodes, 100 links) models a 5G
//! deployment in Madrid produced by the 5GEN tool: many gNB-site edge
//! datacenters aggregated over transport rings into a small meshed core.
//! This generator reproduces that hierarchical shape deterministically at
//! the published size.

use vne_model::error::ModelResult;
use vne_model::substrate::{SubstrateNetwork, Tier};

use crate::builder::TopologySpec;
use crate::params::TierParams;
use crate::zoo::DEFAULT_COST_SEED;

/// The structural spec of the 5GEN Madrid replica (78 nodes, 100 links):
/// 4 meshed core sites, a 14-site transport ring dual-homed to the core,
/// and 60 gNB edge sites (6 of them double-homed).
pub fn five_gen_spec() -> TopologySpec {
    let mut spec = TopologySpec::new("5GEN");
    // 4 core sites, full mesh: 6 links.
    let cores: Vec<usize> = (0..4)
        .map(|i| spec.add_node(format!("Core-{i}"), Tier::Core))
        .collect();
    for i in 0..4 {
        for j in i + 1..4 {
            spec.add_edge(cores[i], cores[j]);
        }
    }
    // 14 transport sites in a ring (14 links), each homed to one core
    // (14 links).
    let transports: Vec<usize> = (0..14)
        .map(|i| spec.add_node(format!("Agg-{i}"), Tier::Transport))
        .collect();
    for i in 0..14 {
        spec.add_edge(transports[i], transports[(i + 1) % 14]);
        spec.add_edge(transports[i], cores[i % 4]);
    }
    // 60 gNB edge sites: one transport uplink each (60 links) plus 6
    // double-homes (6 links). Total: 6 + 28 + 66 = 100.
    let edges: Vec<usize> = (0..60)
        .map(|i| spec.add_node(format!("gNB-{i}"), Tier::Edge))
        .collect();
    for (i, &e) in edges.iter().enumerate() {
        spec.add_edge(e, transports[i % 14]);
    }
    for i in 0..6 {
        let e = edges[i * 10];
        spec.add_edge(e, transports[(i * 10 + 7) % 14]);
    }
    spec
}

/// The 5GEN replica priced with the paper's Table II parameters.
///
/// # Errors
///
/// Propagates construction errors (none occur for the fixed spec).
pub fn five_gen() -> ModelResult<SubstrateNetwork> {
    five_gen_spec().build(&TierParams::paper(), DEFAULT_COST_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_gen_matches_published_size() {
        let s = five_gen().unwrap();
        assert_eq!(s.node_count(), 78);
        assert_eq!(s.link_count(), 100);
        assert!(s.is_connected());
    }

    #[test]
    fn five_gen_tier_composition() {
        let s = five_gen().unwrap();
        assert_eq!(s.nodes_in_tier(Tier::Core).len(), 4);
        assert_eq!(s.nodes_in_tier(Tier::Transport).len(), 14);
        assert_eq!(s.edge_nodes().len(), 60);
    }

    #[test]
    fn core_mesh_is_complete() {
        let s = five_gen().unwrap();
        let cores = s.nodes_in_tier(Tier::Core);
        for (i, &a) in cores.iter().enumerate() {
            for &b in cores.iter().skip(i + 1) {
                assert!(s.link_between(a, b).is_some());
            }
        }
    }
}
