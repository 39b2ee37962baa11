//! The substrate partitioner and the large synthetic substrate builder.
//!
//! The sharded execution path (`vne-shard`) needs two things from the
//! topology layer: a way to split a substrate into `k` connected
//! regions, and substrates large enough for sharding to matter.
//!
//! * [`Partitioner`] — the open partitioning seam, returning a
//!   [`PartitionAssignment`] consumed by
//!   [`vne_model::shard::ShardedSubstrate`]. The built-in strategy is
//!   [`GreedyEdgeCut`] (grows the smallest shard by the boundary node
//!   with the most neighbors already inside it, greedily minimizing
//!   the k-way edge cut).
//! * [`large_synthetic`] — an `O(n + m)` generator for substrates of
//!   10⁵–10⁶ nodes: a random spanning tree plus random chords under a
//!   hard degree cap ([`LARGE_SYNTHETIC_MAX_DEGREE`]), degree-sorted
//!   tiering, Table II pricing. Nothing is precomputed or cached — the
//!   substrate is generated on demand from `(nodes, seed)`.
//!
//! The partitioner grows regions along substrate edges only, so every
//! shard's local substrate is connected — the invariant
//! `ShardedSubstrate::new` validates. Everything here is deterministic
//! in `(substrate, shards, seed)`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vne_model::error::{ModelError, ModelResult};
use vne_model::ids::NodeId;
use vne_model::shard::PartitionAssignment;
use vne_model::substrate::SubstrateNetwork;

use crate::builder::TopologySpec;
use crate::params::TierParams;
use crate::random::{tiered_by_degree, TierFractions};

/// Splits a substrate into `k` connected regions.
///
/// Implementations must be deterministic in `(substrate, shards)` plus
/// their own configuration, must cover every node exactly once with
/// dense shard ids, and must keep every region connected (so each
/// shard-local substrate is a valid [`SubstrateNetwork`]).
pub trait Partitioner {
    /// A short display name (e.g. `"greedy-edge-cut"`).
    fn name(&self) -> &'static str;

    /// Assigns every node of `substrate` to one of `shards` shards.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuantity`] when `shards` is zero or
    /// exceeds the node count, and
    /// [`ModelError::DisconnectedSubstrate`] when the substrate cannot
    /// seed that many connected regions.
    fn partition(
        &self,
        substrate: &SubstrateNetwork,
        shards: usize,
    ) -> ModelResult<PartitionAssignment>;
}

/// Greedy k-way edge-cut partitioning.
///
/// Seeds are spread by farthest-point hop distance (first seed from
/// `seed`); then the smallest region grows by the *boundary node with
/// the most neighbors already inside it* (ties: lowest node id) — each step adds the node that converts
/// the most would-be cut edges into internal edges, greedily minimizing
/// the k-way cut while keeping regions connected and balanced.
#[derive(Debug, Clone, Copy)]
pub struct GreedyEdgeCut {
    /// Selects the first seed node (`seed % node_count`).
    pub seed: u64,
}

impl Partitioner for GreedyEdgeCut {
    fn name(&self) -> &'static str {
        "greedy-edge-cut"
    }

    fn partition(
        &self,
        substrate: &SubstrateNetwork,
        shards: usize,
    ) -> ModelResult<PartitionAssignment> {
        let seeds = spread_seeds(substrate, shards, self.seed)?;
        let n = substrate.node_count();
        let mut shard_of = vec![u32::MAX; n];
        // Per shard: candidate boundary nodes bucketed by gain (number
        // of neighbors already inside the shard), highest bucket first,
        // lowest node id inside a bucket. Gains for nodes assigned
        // elsewhere go stale and are skipped lazily.
        let mut gain: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); shards];
        let mut buckets: Vec<BTreeMap<usize, BTreeSet<usize>>> = vec![BTreeMap::new(); shards];
        let mut size = vec![0usize; shards];
        let mut alive: BTreeSet<usize> = (0..shards).collect();
        let mut assigned = 0usize;

        let absorb = |v: NodeId,
                      s: usize,
                      shard_of: &mut Vec<u32>,
                      gain: &mut Vec<BTreeMap<usize, usize>>,
                      buckets: &mut Vec<BTreeMap<usize, BTreeSet<usize>>>,
                      size: &mut Vec<usize>,
                      assigned: &mut usize| {
            shard_of[v.index()] = s as u32;
            size[s] += 1;
            *assigned += 1;
            for &(nb, _) in substrate.neighbors(v) {
                if shard_of[nb.index()] != u32::MAX {
                    continue;
                }
                let g = gain[s].entry(nb.index()).or_insert(0);
                if *g > 0 {
                    if let Some(set) = buckets[s].get_mut(g) {
                        set.remove(&nb.index());
                        if set.is_empty() {
                            let stale = *g;
                            buckets[s].remove(&stale);
                        }
                    }
                }
                *g += 1;
                buckets[s].entry(*g).or_default().insert(nb.index());
            }
        };

        for (s, &node) in seeds.iter().enumerate() {
            absorb(
                node,
                s,
                &mut shard_of,
                &mut gain,
                &mut buckets,
                &mut size,
                &mut assigned,
            );
        }
        while assigned < n {
            let Some(&s) = alive.iter().min_by_key(|&&s| (size[s], s)) else {
                return Err(ModelError::DisconnectedSubstrate);
            };
            // Highest-gain unassigned candidate of shard s (lazy-clean
            // candidates that another shard absorbed meanwhile).
            let mut pick = None;
            while let Some((&g, set)) = buckets[s].iter_mut().next_back() {
                let mut stale = Vec::new();
                for &v in set.iter() {
                    if shard_of[v] == u32::MAX {
                        pick = Some(v);
                        break;
                    }
                    stale.push(v);
                }
                for v in &stale {
                    set.remove(v);
                    gain[s].remove(v);
                }
                if let Some(v) = pick {
                    set.remove(&v);
                    gain[s].remove(&v);
                    if set.is_empty() {
                        buckets[s].remove(&g);
                    }
                    break;
                }
                if set.is_empty() {
                    buckets[s].remove(&g);
                }
            }
            match pick {
                Some(v) => absorb(
                    NodeId::from_index(v),
                    s,
                    &mut shard_of,
                    &mut gain,
                    &mut buckets,
                    &mut size,
                    &mut assigned,
                ),
                None => {
                    alive.remove(&s);
                }
            }
        }
        PartitionAssignment::new(shard_of)
    }
}

/// Farthest-point seed spreading: the first seed is `seed % n`; each
/// further seed is the node with maximal hop distance to the seeds
/// chosen so far (ties: lowest node id).
fn spread_seeds(
    substrate: &SubstrateNetwork,
    shards: usize,
    seed: u64,
) -> ModelResult<Vec<NodeId>> {
    let n = substrate.node_count();
    if shards == 0 || shards > n {
        return Err(ModelError::InvalidQuantity {
            what: "shard count",
            value: shards as f64,
        });
    }
    let mut seeds = vec![NodeId::from_index((seed % n as u64) as usize)];
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    // Incremental multi-source BFS: each new seed only relaxes.
    let relax_from = |s: NodeId, dist: &mut Vec<usize>, queue: &mut VecDeque<NodeId>| {
        dist[s.index()] = 0;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            let d = dist[v.index()];
            for &(nb, _) in substrate.neighbors(v) {
                if dist[nb.index()] > d + 1 {
                    dist[nb.index()] = d + 1;
                    queue.push_back(nb);
                }
            }
        }
    };
    relax_from(seeds[0], &mut dist, &mut queue);
    while seeds.len() < shards {
        let far = (0..n)
            .filter(|&v| dist[v] != 0)
            .max_by_key(|&v| (dist[v], std::cmp::Reverse(v)))
            .ok_or(ModelError::DisconnectedSubstrate)?;
        if dist[far] == usize::MAX {
            return Err(ModelError::DisconnectedSubstrate);
        }
        let s = NodeId::from_index(far);
        seeds.push(s);
        relax_from(s, &mut dist, &mut queue);
    }
    Ok(seeds)
}

/// Hard per-node degree cap of [`large_synthetic`] substrates.
pub const LARGE_SYNTHETIC_MAX_DEGREE: usize = 16;

/// Structural spec of a [`large_synthetic`] substrate: a random
/// spanning tree plus random chords up to `2·n` links total, every node
/// degree at most [`LARGE_SYNTHETIC_MAX_DEGREE`], tiers assigned by
/// descending degree (10% core, 30% transport, 60% edge).
///
/// # Panics
///
/// Panics when `nodes < 4` (the tier split needs all three tiers).
fn large_synthetic_spec(nodes: usize, seed: u64) -> TopologySpec {
    assert!(nodes >= 4, "large_synthetic needs at least 4 nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = nodes;
    let target_links = 2 * n;
    let mut degree = vec![0usize; n];
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(target_links);
    let mut present = std::collections::HashSet::with_capacity(target_links);

    // Spanning tree by random attachment; a saturated parent falls
    // forward deterministically to the next node with headroom.
    for v in 1..n {
        let mut u = rng.gen_range(0..v);
        if degree[u] >= LARGE_SYNTHETIC_MAX_DEGREE {
            u = (1..v)
                .map(|step| (u + step) % v)
                .find(|&c| degree[c] < LARGE_SYNTHETIC_MAX_DEGREE)
                .expect("a tree prefix cannot saturate every node");
        }
        edges.push((u, v));
        present.insert((u, v));
        degree[u] += 1;
        degree[v] += 1;
    }
    // Random chords under the degree cap. The attempt budget bounds the
    // loop on adversarial parameters; dense-enough graphs fill up long
    // before it runs out.
    let mut attempts = 20 * target_links;
    while edges.len() < target_links && attempts > 0 {
        attempts -= 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b
            || degree[a] >= LARGE_SYNTHETIC_MAX_DEGREE
            || degree[b] >= LARGE_SYNTHETIC_MAX_DEGREE
        {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if present.insert(key) {
            edges.push(key);
            degree[a] += 1;
            degree[b] += 1;
        }
    }

    tiered_by_degree(format!("LS{n}"), "L", n, edges, TierFractions::default())
}

/// Builds a large synthetic substrate (Table II pricing, paper tier
/// parameters) on demand from `(nodes, seed)` — the sharding
/// benchmark's 10⁵-node worlds come from here. `O(n + m)` time and
/// memory, deterministic per seed.
///
/// # Errors
///
/// Propagates construction errors (none occur for valid parameters).
///
/// # Panics
///
/// Panics when `nodes < 4`.
pub fn large_synthetic(nodes: usize, seed: u64) -> ModelResult<SubstrateNetwork> {
    large_synthetic_spec(nodes, seed)
        .build(&TierParams::paper(), crate::zoo::DEFAULT_COST_SEED ^ seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vne_model::shard::ShardedSubstrate;

    fn world(n: usize, m: usize, seed: u64) -> SubstrateNetwork {
        crate::random::erdos_renyi_spec(n, m, seed, crate::random::TierFractions::default())
            .build(&TierParams::paper(), 3)
            .unwrap()
    }

    #[test]
    fn partitions_are_valid_sharded_views() {
        let s = world(40, 80, 9);
        for k in [1usize, 2, 3, 5, 8] {
            let assignment = GreedyEdgeCut { seed: 5 }.partition(&s, k).unwrap();
            assert_eq!(assignment.shard_count(), k, "k={k}");
            let sharded = ShardedSubstrate::new(&s, &assignment).unwrap();
            let total: usize = sharded.shards().map(|(_, s)| s.node_count()).sum();
            assert_eq!(total, s.node_count(), "k={k}");
        }
    }

    #[test]
    fn partitions_are_deterministic_per_seed() {
        let s = world(30, 60, 2);
        let a = GreedyEdgeCut { seed: 7 }.partition(&s, 4).unwrap();
        let b = GreedyEdgeCut { seed: 7 }.partition(&s, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shard_count_bounds_are_enforced() {
        let s = world(10, 15, 1);
        let p = GreedyEdgeCut { seed: 0 };
        assert!(p.partition(&s, 0).is_err());
        assert!(p.partition(&s, 11).is_err());
    }

    #[test]
    fn regions_stay_balanced() {
        let s = world(60, 120, 4);
        let a = GreedyEdgeCut { seed: 1 }.partition(&s, 4).unwrap();
        let sharded = ShardedSubstrate::new(&s, &a).unwrap();
        for (_, local) in sharded.shards() {
            // 60 nodes over 4 shards: every shard within 2× of even.
            assert!(
                local.node_count() >= 7 && local.node_count() <= 30,
                "{} sized {}",
                local.name(),
                local.node_count()
            );
        }
    }

    #[test]
    fn large_synthetic_is_well_formed() {
        let s = large_synthetic(600, 42).unwrap();
        assert_eq!(s.node_count(), 600);
        assert!(s.is_connected());
        assert!(s.link_count() >= 599 && s.link_count() <= 1200);
        let max_degree = s.node_ids().map(|n| s.degree(n)).max().unwrap();
        assert!(max_degree <= LARGE_SYNTHETIC_MAX_DEGREE, "{max_degree}");
        assert!(!s.edge_nodes().is_empty());
        // Deterministic per seed.
        let t = large_synthetic(600, 42).unwrap();
        assert_eq!(s.link_count(), t.link_count());
        assert_eq!(
            s.node(NodeId(17)).cost.to_bits(),
            t.node(NodeId(17)).cost.to_bits()
        );
        let u = large_synthetic(600, 43).unwrap();
        assert!(
            s.node_ids().any(|n| s.node(n).cost != u.node(n).cost)
                || s.link_count() != u.link_count()
        );
    }

    #[test]
    fn large_synthetic_partitions_cleanly() {
        let s = large_synthetic(800, 7).unwrap();
        let a = GreedyEdgeCut { seed: 7 }.partition(&s, 16).unwrap();
        let sharded = ShardedSubstrate::new(&s, &a).unwrap();
        assert_eq!(sharded.shard_count(), 16);
        assert!(sharded.cut_count() > 0);
        // The cut is a small fraction of all links.
        assert!(
            sharded.cut_count() * 2 < s.link_count(),
            "cut {} of {}",
            sharded.cut_count(),
            s.link_count()
        );
    }
}
