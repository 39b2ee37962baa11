//! Property battery for the partitioner and the large synthetic
//! builder (nightly CI runs this at `PROPTEST_CASES=1024`):
//!
//! * every node lands in exactly one shard, with dense ordered local
//!   ids (the `home_of`/`global_node` maps round-trip);
//! * the cut-edge set is symmetric and complete — every substrate link
//!   is internal to exactly one shard XOR recorded exactly once as a
//!   cut link with matching endpoints;
//! * `large_synthetic` worlds are well-formed: connected, exactly `n`
//!   nodes, degree-capped, with a non-empty edge tier.

use proptest::prelude::*;
use vne_model::shard::{LinkHome, ShardedSubstrate};
use vne_model::substrate::SubstrateNetwork;
use vne_topology::params::TierParams;
use vne_topology::partition::{
    large_synthetic, GreedyEdgeCut, Partitioner, LARGE_SYNTHETIC_MAX_DEGREE,
};
use vne_topology::random::{erdos_renyi_spec, TierFractions};

/// A connected random world plus a shard count that fits it.
fn arb_world() -> impl Strategy<Value = (SubstrateNetwork, usize, u64)> {
    (8usize..60, 0u64..1000, 1usize..9).prop_map(|(n, seed, k)| {
        let m = n + n / 2;
        let s = erdos_renyi_spec(n, m, seed, TierFractions::default())
            .build(&TierParams::paper(), seed ^ 0x5eed)
            .unwrap();
        (s, k.min(n), seed)
    })
}

/// Checks every structural invariant of a partition of `s`.
fn check_partition(s: &SubstrateNetwork, partitioner: &dyn Partitioner, k: usize) {
    let assignment = partitioner.partition(s, k).unwrap();
    assert_eq!(assignment.len(), s.node_count(), "{}", partitioner.name());
    assert_eq!(assignment.shard_count(), k, "{}", partitioner.name());
    let sharded = ShardedSubstrate::new(s, &assignment).unwrap();

    // Every node in exactly one shard, local ids dense and ordered:
    // the global↔local maps must round-trip both ways.
    let mut seen = 0usize;
    for (sid, local) in sharded.shards() {
        for l in local.node_ids() {
            let g = sharded.global_node(sid, l);
            let home = sharded.home_of(g);
            assert_eq!((home.shard, home.local), (sid, l));
            seen += 1;
        }
    }
    assert_eq!(seen, s.node_count(), "{}", partitioner.name());

    // Cut-edge bookkeeping symmetric and complete: each global link is
    // internal to exactly one shard xor a cut link, and cut endpoints
    // map back to the link's own endpoints.
    let mut internal = 0usize;
    for (lid, link) in s.links() {
        match sharded.link_home(lid) {
            LinkHome::Internal { shard, local } => {
                assert_eq!(sharded.global_link(shard, local), lid);
                let a = sharded.home_of(link.a);
                let b = sharded.home_of(link.b);
                assert_eq!(a.shard, shard);
                assert_eq!(b.shard, shard);
                internal += 1;
            }
            LinkHome::Cut { index } => {
                let cut = &sharded.cut_links()[index];
                assert_eq!(cut.global, lid);
                let mut ends = [sharded.home_of(link.a), sharded.home_of(link.b)];
                ends.sort();
                assert_eq!([cut.a, cut.b], ends);
                assert_ne!(cut.a.shard, cut.b.shard);
                // Symmetric: both shards see the cut and each other.
                assert!(sharded.neighbors(cut.a.shard).contains(&cut.b.shard));
                assert!(sharded.neighbors(cut.b.shard).contains(&cut.a.shard));
                assert_eq!(cut.endpoint_in(cut.a.shard), Some(cut.a));
                assert_eq!(cut.endpoint_in(cut.b.shard), Some(cut.b));
            }
        }
    }
    assert_eq!(
        internal + sharded.cut_count(),
        s.link_count(),
        "{}: every link internal xor cut",
        partitioner.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn greedy_edge_cut_partitions_are_structurally_sound((s, k, seed) in arb_world()) {
        check_partition(&s, &GreedyEdgeCut { seed }, k);
    }

    #[test]
    fn large_synthetic_worlds_are_well_formed(n in 50usize..300, seed in 0u64..500) {
        let s = large_synthetic(n, seed).unwrap();
        prop_assert_eq!(s.node_count(), n);
        prop_assert!(s.is_connected());
        // Spanning tree at minimum, the 2·n link target at most.
        prop_assert!(s.link_count() >= n - 1);
        prop_assert!(s.link_count() <= 2 * n);
        for v in s.node_ids() {
            prop_assert!(s.degree(v) <= LARGE_SYNTHETIC_MAX_DEGREE);
        }
        prop_assert!(!s.edge_nodes().is_empty());
    }
}
