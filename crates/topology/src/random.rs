//! Random connected topologies (the paper's 100N150E instance).
//!
//! `100N150E` is "a large connected Erdős–Rényi random graph" with 100
//! nodes and 150 links. We generate a uniformly random spanning tree
//! (guaranteeing connectivity) and add uniformly random extra links, then
//! assign tiers by degree — the highest-degree nodes become the core, as
//! the paper's three-tier structure implies for random graphs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vne_model::error::ModelResult;
use vne_model::substrate::{SubstrateNetwork, Tier};

use crate::builder::TopologySpec;
use crate::params::TierParams;

/// Fractions of nodes assigned to each tier by descending degree.
#[derive(Debug, Clone, Copy)]
pub struct TierFractions {
    /// Fraction of nodes in the core tier.
    pub core: f64,
    /// Fraction of nodes in the transport tier.
    pub transport: f64,
}

impl Default for TierFractions {
    fn default() -> Self {
        // 10% core, 30% transport, 60% edge — the approximate composition
        // of the paper's tiered topologies.
        Self {
            core: 0.10,
            transport: 0.30,
        }
    }
}

/// Generates a connected Erdős–Rényi-style graph spec with exactly `n`
/// nodes and `m` links.
///
/// # Panics
///
/// Panics if `m < n − 1` (a connected graph needs a spanning tree) or if
/// `m` exceeds `n·(n−1)/2`.
pub fn erdos_renyi_spec(n: usize, m: usize, seed: u64, fractions: TierFractions) -> TopologySpec {
    assert!(m + 1 >= n, "need at least n-1 links for connectivity");
    assert!(m <= n * (n - 1) / 2, "too many links for a simple graph");
    let mut rng = StdRng::seed_from_u64(seed);

    // Random spanning tree: random attachment order.
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(m);
    let mut present = std::collections::HashSet::new();
    for v in 1..n {
        let u = rng.gen_range(0..v);
        edges.push((u, v));
        present.insert((u, v));
    }
    // Extra random links.
    while edges.len() < m {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if present.insert(key) {
            edges.push(key);
        }
    }

    tiered_by_degree(format!("{n}N{m}E"), "R", n, edges, fractions)
}

/// The spec of the `n`-node graph on `edges`, nodes named `{prefix}{v}`
/// and tiered by descending degree (ties: lowest node id): the first
/// `fractions.core` of them core, the next `fractions.transport`
/// transport (at least one node each), the rest edge. Shared by
/// [`erdos_renyi_spec`] and `partition::large_synthetic`.
pub(crate) fn tiered_by_degree(
    name: String,
    prefix: &str,
    n: usize,
    edges: Vec<(usize, usize)>,
    fractions: TierFractions,
) -> TopologySpec {
    let mut degree = vec![0usize; n];
    for &(a, b) in &edges {
        degree[a] += 1;
        degree[b] += 1;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(degree[v]), v));
    let n_core = ((n as f64 * fractions.core).round() as usize).max(1);
    let n_transport = ((n as f64 * fractions.transport).round() as usize).max(1);
    let mut tier = vec![Tier::Edge; n];
    for (rank, &v) in order.iter().enumerate() {
        tier[v] = if rank < n_core {
            Tier::Core
        } else if rank < n_core + n_transport {
            Tier::Transport
        } else {
            Tier::Edge
        };
    }

    let mut spec = TopologySpec::new(name);
    for (v, &t) in tier.iter().enumerate() {
        spec.add_node(format!("{prefix}{v}"), t);
    }
    for (a, b) in edges {
        spec.add_edge(a, b);
    }
    spec
}

/// The paper's `100N150E` instance (seeded deterministically).
///
/// # Errors
///
/// Propagates construction errors (none occur for valid parameters).
pub fn hundred_n_150e() -> ModelResult<SubstrateNetwork> {
    erdos_renyi_spec(100, 150, 0x0150, TierFractions::default())
        .build(&TierParams::paper(), crate::zoo::DEFAULT_COST_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundred_node_instance_matches_size() {
        let s = hundred_n_150e().unwrap();
        assert_eq!(s.node_count(), 100);
        assert_eq!(s.link_count(), 150);
        assert!(s.is_connected());
    }

    #[test]
    fn tier_fractions_are_respected() {
        let s = hundred_n_150e().unwrap();
        assert_eq!(s.nodes_in_tier(Tier::Core).len(), 10);
        assert_eq!(s.nodes_in_tier(Tier::Transport).len(), 30);
        assert_eq!(s.edge_nodes().len(), 60);
    }

    #[test]
    fn core_nodes_have_highest_degrees() {
        let s = hundred_n_150e().unwrap();
        let min_core_degree = s
            .nodes_in_tier(Tier::Core)
            .iter()
            .map(|&n| s.degree(n))
            .min()
            .unwrap();
        let max_edge_degree = s.edge_nodes().iter().map(|&n| s.degree(n)).max().unwrap();
        assert!(min_core_degree >= max_edge_degree);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = erdos_renyi_spec(30, 45, 5, TierFractions::default());
        let b = erdos_renyi_spec(30, 45, 5, TierFractions::default());
        assert_eq!(a.edges, b.edges);
        let c = erdos_renyi_spec(30, 45, 6, TierFractions::default());
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn minimal_tree_case() {
        let spec = erdos_renyi_spec(5, 4, 1, TierFractions::default());
        let s = spec.build(&TierParams::paper(), 0).unwrap();
        assert!(s.is_connected());
        assert_eq!(s.link_count(), 4);
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn rejects_too_few_links() {
        erdos_renyi_spec(10, 5, 0, TierFractions::default());
    }
}
