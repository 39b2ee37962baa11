//! Deterministic replicas of the paper's real-world topologies.
//!
//! The paper evaluates on *Iris* (Internet Topology Zoo, 50 nodes / 64
//! links) and *Citta Studi* (a mobile edge network, 30 nodes / 35 links).
//! The original GML files are not redistributable here, so these replicas
//! reproduce the published node/link counts and the three-tier mobile
//! access structure (edge/transport/core) the paper imposes on them; the
//! algorithms only see sizes, tiers and the capacity/cost tables, so ISP
//! geometry is immaterial. The Iris replica includes
//! the `Franklin` edge node referenced by Fig. 12.

use vne_model::error::ModelResult;
use vne_model::substrate::{SubstrateNetwork, Tier};

use crate::builder::TopologySpec;
use crate::params::TierParams;

/// Seed used for node-cost jitter in the canonical instances.
pub const DEFAULT_COST_SEED: u64 = 0x1215;

/// Edge-node city names for the Iris replica (32 names, `Franklin` among
/// them, as in the paper's Fig. 12).
const IRIS_EDGE_NAMES: [&str; 32] = [
    "Franklin",
    "Aurora",
    "Bristol",
    "Clayton",
    "Dayton",
    "Easton",
    "Fairfield",
    "Georgetown",
    "Hamilton",
    "Irvine",
    "Jackson",
    "Kingston",
    "Lebanon",
    "Madison",
    "Newport",
    "Oakland",
    "Princeton",
    "Quincy",
    "Riverside",
    "Salem",
    "Trenton",
    "Union",
    "Vernon",
    "Warren",
    "Xenia",
    "York",
    "Zanesville",
    "Ashland",
    "Burlington",
    "Camden",
    "Dover",
    "Elgin",
];

/// The structural spec of the Iris replica (50 nodes, 64 links).
pub fn iris_spec() -> TopologySpec {
    let mut spec = TopologySpec::new("Iris");
    // 5 core datacenters: ring + 2 chords (7 links).
    let cores: Vec<usize> = (0..5)
        .map(|i| spec.add_node(format!("Core{i}"), Tier::Core))
        .collect();
    for i in 0..5 {
        spec.add_edge(cores[i], cores[(i + 1) % 5]);
    }
    spec.add_edge(cores[0], cores[2]);
    spec.add_edge(cores[1], cores[3]);
    // 13 transport datacenters: one core uplink each (13 links) and a
    // partial chain among even-indexed transports (6 links).
    let transports: Vec<usize> = (0..13)
        .map(|i| spec.add_node(format!("Transit{i}"), Tier::Transport))
        .collect();
    for (i, &t) in transports.iter().enumerate() {
        spec.add_edge(t, cores[i % 5]);
    }
    for i in (0..12).step_by(2) {
        spec.add_edge(transports[i], transports[i + 1]);
    }
    // 32 edge datacenters: one transport uplink each (32 links) and 6
    // double-homed edges (6 links). Total: 7 + 19 + 38 = 64.
    let edges: Vec<usize> = IRIS_EDGE_NAMES
        .iter()
        .map(|name| spec.add_node(*name, Tier::Edge))
        .collect();
    for (i, &e) in edges.iter().enumerate() {
        spec.add_edge(e, transports[i % 13]);
    }
    for i in 0..6 {
        // Double-home every fifth edge node to a second transport.
        let e = edges[i * 5];
        spec.add_edge(e, transports[(i * 5 + 6) % 13]);
    }
    spec
}

/// The Iris replica priced with the paper's Table II parameters.
///
/// # Errors
///
/// Propagates construction errors (none occur for the fixed spec).
pub fn iris() -> ModelResult<SubstrateNetwork> {
    iris_spec().build(&TierParams::paper(), DEFAULT_COST_SEED)
}

/// The structural spec of the Citta Studi replica (30 nodes, 35 links):
/// a small mobile edge network with 2 core sites, 6 aggregation sites and
/// 22 edge sites.
pub fn citta_studi_spec() -> TopologySpec {
    let mut spec = TopologySpec::new("CittaStudi");
    let c0 = spec.add_node("Core0", Tier::Core);
    let c1 = spec.add_node("Core1", Tier::Core);
    spec.add_edge(c0, c1);
    let transports: Vec<usize> = (0..6)
        .map(|i| spec.add_node(format!("Agg{i}"), Tier::Transport))
        .collect();
    for &t in &transports {
        spec.add_edge(t, c0);
        spec.add_edge(t, c1);
    }
    for i in 0..22 {
        let e = spec.add_node(format!("Edge{i}"), Tier::Edge);
        spec.add_edge(e, transports[i % 6]);
    }
    spec
}

/// The Citta Studi replica priced with the paper's parameters.
///
/// # Errors
///
/// Propagates construction errors (none occur for the fixed spec).
pub fn citta_studi() -> ModelResult<SubstrateNetwork> {
    citta_studi_spec().build(&TierParams::paper(), DEFAULT_COST_SEED)
}

/// The tiny 4-node "golden" world shared by the golden-fingerprint
/// regression suite and the adversarial scenario benchmark: two edge
/// nodes, one transport, one core, all at 300 CUs with the paper's
/// per-tier cost gradient, plus a 2-VNF chain and a 3-VNF two-branch
/// tree application.
///
/// Unlike the parity suite's world (whose 2700-CU core swallows any
/// edge-calibrated load), capacities here are uniform, so the
/// utilization axis genuinely bites and high-load scenarios actually
/// reject. The exact capacities, costs and app shapes are pinned by the
/// golden fingerprints — change them only together with a golden
/// re-capture.
pub fn golden_diamond() -> ModelResult<(SubstrateNetwork, vne_model::app::AppSet)> {
    use vne_model::app::{shapes, AppSet, AppShape};
    let mut s = SubstrateNetwork::new("golden");
    let e0 = s.add_node("e0", Tier::Edge, 300.0, 50.0)?;
    let e1 = s.add_node("e1", Tier::Edge, 300.0, 50.0)?;
    let t = s.add_node("t", Tier::Transport, 300.0, 10.0)?;
    let c = s.add_node("c", Tier::Core, 300.0, 1.0)?;
    s.add_link(e0, t, 1500.0, 1.0)?;
    s.add_link(e1, t, 1500.0, 1.0)?;
    s.add_link(t, c, 4500.0, 1.0)?;
    let mut apps = AppSet::new();
    apps.push(
        "chain",
        AppShape::Chain,
        shapes::uniform_chain(2, 10.0, 3.0)?,
    )?;
    apps.push(
        "tree",
        AppShape::Tree,
        shapes::two_branch_tree(3, 6.0, 2.0)?,
    )?;
    Ok((s, apps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iris_matches_published_size() {
        let s = iris().unwrap();
        assert_eq!(s.node_count(), 50);
        assert_eq!(s.link_count(), 64);
        assert!(s.is_connected());
    }

    #[test]
    fn iris_has_franklin_edge_node() {
        let s = iris().unwrap();
        let franklin = s.node_by_name("Franklin").unwrap();
        assert_eq!(s.node(franklin).tier, Tier::Edge);
    }

    #[test]
    fn iris_tier_composition() {
        let s = iris().unwrap();
        assert_eq!(s.nodes_in_tier(Tier::Core).len(), 5);
        assert_eq!(s.nodes_in_tier(Tier::Transport).len(), 13);
        assert_eq!(s.edge_nodes().len(), 32);
        assert_eq!(s.total_edge_capacity(), 32.0 * 200_000.0);
    }

    #[test]
    fn citta_studi_matches_published_size() {
        let s = citta_studi().unwrap();
        assert_eq!(s.node_count(), 30);
        assert_eq!(s.link_count(), 35);
        assert!(s.is_connected());
        assert_eq!(s.edge_nodes().len(), 22);
    }

    #[test]
    fn replicas_are_deterministic() {
        let a = iris().unwrap();
        let b = iris().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn edge_nodes_have_degree_at_least_one() {
        let s = iris().unwrap();
        for e in s.edge_nodes() {
            assert!(s.degree(e) >= 1);
        }
    }
}
