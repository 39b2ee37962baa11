//! Property-based tests for the model crate's core invariants.

use std::cell::Cell;

use proptest::prelude::*;
use vne_model::embedding::{Embedding, Footprint};
use vne_model::ids::{LinkId, NodeId};
use vne_model::load::LoadLedger;
use vne_model::policy::PlacementPolicy;
use vne_model::substrate::{SearchStats, SubstrateNetwork, Tier};
use vne_model::vnet::{VirtualNetwork, VnfKind};

/// A random connected substrate: a path backbone plus random extra links.
fn arb_substrate() -> impl Strategy<Value = SubstrateNetwork> {
    (
        3usize..12,
        proptest::collection::vec((0usize..12, 0usize..12), 0..10),
    )
        .prop_map(|(n, extra)| {
            let mut s = SubstrateNetwork::new("prop");
            let tiers = [Tier::Edge, Tier::Transport, Tier::Core];
            for i in 0..n {
                s.add_node(
                    format!("n{i}"),
                    tiers[i % 3],
                    100.0 + i as f64,
                    1.0 + i as f64,
                )
                .unwrap();
            }
            for i in 1..n {
                s.add_link(NodeId::from_index(i - 1), NodeId::from_index(i), 50.0, 1.0)
                    .unwrap();
            }
            for (a, b) in extra {
                let (a, b) = (a % n, b % n);
                if a != b {
                    let (a, b) = (NodeId::from_index(a), NodeId::from_index(b));
                    if s.link_between(a, b).is_none() {
                        s.add_link(a, b, 50.0, 1.0).unwrap();
                    }
                }
            }
            s
        })
}

/// Distance, predecessor and work counters of [`reference_search`].
type ReferenceSearch = (Vec<f64>, Vec<Option<(NodeId, LinkId)>>, SearchStats);

/// `SubstrateNetwork::search` when its heap held `HeapEntry { dist, node }`
/// ordered by `partial_cmp` on the distance, then the node id, kept
/// verbatim (heap loop and comparator) as the settle-order oracle.
fn reference_search<W, S, P>(
    s: &SubstrateNetwork,
    source: NodeId,
    mut weight: W,
    mut settle: S,
    prune: P,
) -> ReferenceSearch
where
    W: FnMut(LinkId) -> Option<f64>,
    S: FnMut(NodeId, f64),
    P: Fn(f64) -> bool,
{
    #[derive(Debug, Clone, Copy)]
    struct HeapEntry {
        dist: f64,
        node: NodeId,
    }
    impl PartialEq for HeapEntry {
        fn eq(&self, other: &Self) -> bool {
            self.dist == other.dist && self.node == other.node
        }
    }
    impl Eq for HeapEntry {}
    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse on distance for a min-heap; tie-break on node id for
            // deterministic behavior.
            other
                .dist
                .partial_cmp(&self.dist)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| other.node.cmp(&self.node))
        }
    }

    let n = s.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let mut heap = std::collections::BinaryHeap::new();
    let mut stats = SearchStats {
        searches: 1,
        ..SearchStats::default()
    };
    dist[source.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        if prune(d) {
            break;
        }
        stats.settled += 1;
        settle(u, d);
        for &(v, l) in s.neighbors(u) {
            let Some(w) = weight(l) else { continue };
            debug_assert!(w >= 0.0, "link weights must be non-negative");
            let nd = d + w;
            if nd < dist[v.index()] {
                if prune(nd) {
                    stats.pruned += 1;
                    continue;
                }
                stats.relaxed += 1;
                dist[v.index()] = nd;
                prev[v.index()] = Some((u, l));
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    (dist, prev, stats)
}

/// `ShortestPaths::path_to` over the reference's predecessors.
fn reference_path(
    source: NodeId,
    prev: &[Option<(NodeId, LinkId)>],
    target: NodeId,
) -> Option<Vec<LinkId>> {
    let mut path = Vec::new();
    let mut cur = target;
    while cur != source {
        let (p, l) = prev[cur.index()]?;
        path.push(l);
        cur = p;
    }
    path.reverse();
    Some(path)
}

/// A random graph, connected or not, whose links cost 0, 1 or 2 units
/// (mode 4: unusable), so that distances tie in bulk and free links
/// settle several nodes at one distance. A unit of 0.1 makes the sums
/// round; a unit of 1 keeps them exact.
fn arb_tie_graph() -> impl Strategy<Value = (SubstrateNetwork, Vec<u8>)> {
    (
        2usize..16,
        proptest::collection::vec((0usize..16, 0usize..16, 0u8..5), 0..40),
        any::<bool>(),
    )
        .prop_map(|(n, links, tenths)| {
            let unit = if tenths { 0.1 } else { 1.0 };
            let mut s = SubstrateNetwork::new("ties");
            for i in 0..n {
                s.add_node(format!("n{i}"), Tier::Core, 100.0, 1.0).unwrap();
            }
            let mut modes = Vec::new();
            for (a, b, mode) in links {
                let (a, b) = (NodeId::from_index(a % n), NodeId::from_index(b % n));
                if a != b && s.link_between(a, b).is_none() {
                    let cost = unit * f64::from(mode.min(3).saturating_sub(1));
                    s.add_link(a, b, 100.0, cost).unwrap();
                    modes.push(mode);
                }
            }
            (s, modes)
        })
}

/// Runs one search with a settle hook that records `(node, d.to_bits())`
/// and a prune test that is never, a fixed horizon `d > threshold`, or
/// the greedy search's stop test `floor + d > best` over the node terms
/// seen so far (`best` falls as nodes settle).
fn recorded<R>(
    prune_mode: u8,
    threshold: f64,
    term: &dyn Fn(NodeId) -> f64,
    floor: f64,
    search: impl FnOnce(&mut dyn FnMut(NodeId, f64), &dyn Fn(f64) -> bool) -> R,
) -> (Vec<(NodeId, u64)>, R) {
    let best = Cell::new(f64::INFINITY);
    let mut order = Vec::new();
    let prune = |d: f64| match prune_mode {
        0 => false,
        1 => d > threshold,
        _ => floor + d > best.get(),
    };
    let out = search(
        &mut |n, d| {
            order.push((n, d.to_bits()));
            best.set(best.get().min(term(n) + d));
        },
        &prune,
    );
    (order, out)
}

/// A random tree virtual network with parent indices < child index.
fn arb_vnet() -> impl Strategy<Value = VirtualNetwork> {
    proptest::collection::vec((any::<u16>(), 1.0f64..100.0, 1.0f64..100.0), 1..8).prop_map(
        |specs| {
            let mut vn = VirtualNetwork::with_root();
            for (pick, beta, link_beta) in specs {
                let parent = vne_model::ids::VnodeId::from_index(pick as usize % vn.node_count());
                vn.add_vnf(parent, VnfKind::Standard, beta, link_beta)
                    .unwrap();
            }
            vn
        },
    )
}

proptest! {
    #[test]
    fn random_trees_always_validate(vn in arb_vnet()) {
        prop_assert!(vn.validate().is_ok());
        prop_assert_eq!(vn.bfs_order().len(), vn.node_count());
        prop_assert_eq!(vn.link_count(), vn.node_count() - 1);
    }

    #[test]
    fn substrates_are_connected_with_valid_adjacency(s in arb_substrate()) {
        prop_assert!(s.is_connected());
        // Handshake lemma: sum of degrees = 2 · |links|.
        let total_degree: usize = s.node_ids().map(|n| s.degree(n)).sum();
        prop_assert_eq!(total_degree, 2 * s.link_count());
    }

    #[test]
    fn shortest_paths_are_consistent(s in arb_substrate()) {
        let sp = s.shortest_paths(NodeId(0), |l| Some(s.link(l).cost));
        for target in s.node_ids() {
            prop_assert!(sp.reachable(target));
            let path = sp.path_to(target).unwrap();
            // Walking the path must reach the target with the claimed cost.
            let mut cur = NodeId(0);
            let mut cost = 0.0;
            for l in &path {
                cost += s.link(*l).cost;
                cur = s.link(*l).other(cur);
            }
            prop_assert_eq!(cur, target);
            prop_assert!((cost - sp.distance(target)).abs() < 1e-9);
        }
    }

    /// The heap loop settles the same nodes, at the same distance bits,
    /// in the same order as its `HeapEntry` ancestor — ties to the lower
    /// id — with the same work counters and the same path to every
    /// settled node, under bulk ties, free links, unusable links,
    /// rounding sums and every kind of prune test.
    #[test]
    fn settle_order_matches_the_heap_entry_search(
        (s, modes) in arb_tie_graph(),
        source_pick in any::<u16>(),
        prune_mode in 0u8..3,
        tenths in 0u8..40,
        terms in proptest::collection::vec(0u8..5, 16),
    ) {
        let source = NodeId::from_index(source_pick as usize % s.node_count());
        let weight = |l: LinkId| (modes[l.index()] != 4).then(|| s.link(l).cost);
        let term = |n: NodeId| 0.5 * f64::from(terms[n.index()]);
        let floor = s.node_ids().map(term).fold(f64::INFINITY, f64::min);
        let threshold = f64::from(tenths) / 10.0;
        let (got_order, (paths, got_stats)) =
            recorded(prune_mode, threshold, &term, floor, |settle, prune| {
                s.search(source, weight, settle, prune)
            });
        let (want_order, (dist, prev, want_stats)) =
            recorded(prune_mode, threshold, &term, floor, |settle, prune| {
                reference_search(&s, source, weight, settle, prune)
            });
        prop_assert_eq!(&got_order, &want_order);
        prop_assert_eq!(got_stats, want_stats);
        for &(n, bits) in &got_order {
            prop_assert_eq!(paths.distance(n).to_bits(), bits);
            prop_assert_eq!(dist[n.index()].to_bits(), bits);
            prop_assert_eq!(paths.path_to(n), reference_path(source, &prev, n));
        }
    }

    #[test]
    fn footprint_consolidation_preserves_totals(
        raw in proptest::collection::vec((0u32..6, 0.0f64..10.0), 0..20)
    ) {
        let nodes: Vec<(NodeId, f64)> = raw.iter().map(|&(k, x)| (NodeId(k), x)).collect();
        let total: f64 = nodes.iter().map(|&(_, x)| x).sum();
        let fp = Footprint::from_parts(nodes, vec![]);
        let consolidated: f64 = fp.nodes().iter().map(|&(_, x)| x).sum();
        prop_assert!((total - consolidated).abs() < 1e-9);
        // Sorted and unique keys.
        prop_assert!(fp.nodes().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn ledger_apply_remove_is_identity(
        loads in proptest::collection::vec((0u32..4, 0.1f64..5.0), 1..10),
        demand in 0.1f64..3.0,
    ) {
        let mut s = SubstrateNetwork::new("l");
        for i in 0..4 {
            s.add_node(format!("n{i}"), Tier::Edge, 1e6, 1.0).unwrap();
        }
        let fp = Footprint::from_parts(
            loads.iter().map(|&(k, x)| (NodeId(k), x)).collect(),
            vec![],
        );
        let mut ledger = LoadLedger::new(&s);
        let before = ledger.clone();
        ledger.apply(&fp, demand);
        prop_assert!(ledger.check_invariants());
        ledger.remove(&fp, demand);
        for n in s.node_ids() {
            prop_assert!((ledger.node_load(n) - before.node_load(n)).abs() < 1e-9);
        }
    }

    #[test]
    fn collocated_embedding_on_path_substrate_validates(
        vn in arb_vnet(),
        host_pick in any::<u16>(),
    ) {
        // Path substrate with enough nodes; embed everything on one host,
        // root at node 0, with the path from root to host.
        let mut s = SubstrateNetwork::new("path");
        for i in 0..6 {
            s.add_node(format!("n{i}"), Tier::Edge, 1e6, 1.0).unwrap();
        }
        for i in 1..6 {
            s.add_link(NodeId::from_index(i - 1), NodeId::from_index(i), 1e6, 1.0).unwrap();
        }
        let host = NodeId::from_index(host_pick as usize % 6);
        let sp = s.shortest_paths(NodeId(0), |_| Some(1.0));
        let root_path = sp.path_to(host).unwrap();

        let mut node_map = vec![host; vn.node_count()];
        node_map[0] = NodeId(0);
        let mut link_paths = vec![Vec::<LinkId>::new(); vn.link_count()];
        for (e, vl) in vn.vlinks() {
            if vl.from == VirtualNetwork::ROOT {
                link_paths[e.index()] = root_path.clone();
            }
        }
        let emb = Embedding::new(node_map, link_paths);
        prop_assert!(emb.validate(&vn, &s, &PlacementPolicy::default()).is_ok());
        prop_assert!(emb.is_collocated());
    }
}
