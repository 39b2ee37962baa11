//! Bit pins of the two random-graph generators.
//!
//! `erdos_renyi_spec` builds the paper's `100N150E` world and the shard
//! test worlds; `large_synthetic` builds the benchmark's 250- and
//! 1000-node worlds (seed 7) and the 300-node golden world. These
//! digests cover every edge, every tier and, for `large_synthetic`,
//! every priced capacity and cost bit. They were taken before the two
//! generators shared their degree-sorted tier assignment; any rewrite
//! of either generator must reproduce them unedited.

use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_topology::builder::TopologySpec;
use vne_topology::partition::large_synthetic;
use vne_topology::random::{erdos_renyi_spec, TierFractions};

fn fnv1a(bytes: impl IntoIterator<Item = u8>, mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn tier_byte(tier: Tier) -> u8 {
    match tier {
        Tier::Core => 0,
        Tier::Transport => 1,
        Tier::Edge => 2,
    }
}

/// FNV-1a over the spec's name, node names and tiers, then its edges.
fn spec_digest(spec: &TopologySpec) -> u64 {
    let mut h = fnv1a(spec.name.bytes(), FNV_OFFSET);
    for (name, tier) in &spec.nodes {
        h = fnv1a(name.bytes(), h);
        h = fnv1a([tier_byte(*tier)], h);
    }
    for &(a, b) in &spec.edges {
        h = fnv1a((a as u64).to_le_bytes(), h);
        h = fnv1a((b as u64).to_le_bytes(), h);
    }
    h
}

/// FNV-1a over every node's name, tier, capacity and cost bits, then
/// every link's endpoints, capacity and cost bits.
fn substrate_digest(s: &SubstrateNetwork) -> u64 {
    let mut h = fnv1a(s.name().bytes(), FNV_OFFSET);
    for n in s.node_ids() {
        let node = s.node(n);
        h = fnv1a(node.name.bytes(), h);
        h = fnv1a([tier_byte(node.tier)], h);
        h = fnv1a(node.capacity.to_bits().to_le_bytes(), h);
        h = fnv1a(node.cost.to_bits().to_le_bytes(), h);
    }
    for (_, link) in s.links() {
        h = fnv1a((link.a.index() as u64).to_le_bytes(), h);
        h = fnv1a((link.b.index() as u64).to_le_bytes(), h);
        h = fnv1a(link.capacity.to_bits().to_le_bytes(), h);
        h = fnv1a(link.cost.to_bits().to_le_bytes(), h);
    }
    h
}

#[test]
fn erdos_renyi_specs_are_pinned() {
    let pins: [(usize, usize, u64, u64); 4] = [
        (5, 4, 1, 0x31be_1999_30e3_b935),
        (30, 45, 5, 0x7fed_fe8e_d429_6c48),
        (48, 110, 3, 0x784a_7f89_0fe7_f6b9),
        (100, 150, 0x0150, 0x0280_d7ff_f412_861c),
    ];
    for (n, m, seed, digest) in pins {
        let spec = erdos_renyi_spec(n, m, seed, TierFractions::default());
        assert_eq!(
            spec_digest(&spec),
            digest,
            "erdos_renyi_spec({n}, {m}, {seed}): {:#018x}",
            spec_digest(&spec)
        );
    }
}

#[test]
fn large_synthetic_worlds_are_pinned() {
    let pins: [(usize, u64, u64); 5] = [
        (4, 0, 0xea46_2b58_e77b_f5f7),
        (60, 3, 0x31f5_b8e8_48aa_9af5),
        (250, 7, 0xbd73_4745_fa7c_42ff),
        (300, 7, 0xc585_15a4_0883_f3b4),
        (1000, 7, 0x0625_d84e_16cf_4f05),
    ];
    for (n, seed, digest) in pins {
        let s = large_synthetic(n, seed).unwrap();
        assert_eq!(
            substrate_digest(&s),
            digest,
            "large_synthetic({n}, {seed}): {:#018x}",
            substrate_digest(&s)
        );
    }
}
