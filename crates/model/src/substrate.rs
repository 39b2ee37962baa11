//! The physical substrate network: datacenters (nodes) and links.
//!
//! The substrate is an undirected graph. Every element (node or link)
//! carries a capacity `cap(s)` and a per-capacity-unit cost `cost(s)`
//! (Table I of the paper). Nodes additionally belong to a [`Tier`] of the
//! mobile access network hierarchy (edge / transport / core) and may be
//! flagged as GPU datacenters for the GPU placement scenario (Fig. 10).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::error::{check_quantity, ModelError, ModelResult};
use crate::ids::{ElementId, LinkId, NodeId};

/// The tier of a datacenter in the mobile access network architecture.
///
/// The paper uses three tiers with a capacity ratio of 3 between successive
/// tiers and edge costs far above core costs (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Edge datacenters: small, close to users, expensive per CU.
    Edge,
    /// Transport (aggregation) datacenters.
    Transport,
    /// Core datacenters: large and cheap per CU.
    Core,
}

impl Tier {
    /// All tiers, ordered from the edge inwards.
    pub const ALL: [Tier; 3] = [Tier::Edge, Tier::Transport, Tier::Core];

    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Edge => "edge",
            Tier::Transport => "transport",
            Tier::Core => "core",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A substrate node (datacenter).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubstrateNode {
    /// Human-readable name (e.g. a city for Topology-Zoo-style networks).
    pub name: String,
    /// The node's tier.
    pub tier: Tier,
    /// Compute capacity in capacity units (CU).
    pub capacity: f64,
    /// Cost per CU consumed per time slot.
    pub cost: f64,
    /// Whether this datacenter provides GPU acceleration (Fig. 10 scenario).
    pub gpu: bool,
}

/// The number of [`SubstrateNode::host_class`] values.
pub const HOST_CLASSES: usize = 2 * Tier::ALL.len();

impl SubstrateNode {
    /// `2·tier + gpu`: the node's tier and GPU flag, which are all that
    /// [`PlacementPolicy::node_eta`](crate::policy::PlacementPolicy::node_eta)
    /// reads of a node, as one index below [`HOST_CLASSES`].
    pub fn host_class(&self) -> usize {
        2 * self.tier as usize + usize::from(self.gpu)
    }
}

/// A substrate link between two datacenters (undirected).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubstrateLink {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Bandwidth capacity in CU.
    pub capacity: f64,
    /// Cost per CU consumed per time slot.
    pub cost: f64,
}

impl SubstrateLink {
    /// Given one endpoint of the link, returns the other endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this link.
    pub fn other(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            panic!("node {from} is not an endpoint of this link")
        }
    }

    /// Whether `n` is one of this link's endpoints.
    pub fn touches(&self, n: NodeId) -> bool {
        self.a == n || self.b == n
    }
}

/// The substrate (physical) network `S`.
///
/// # Examples
///
/// ```
/// use vne_model::substrate::{SubstrateNetwork, Tier};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut s = SubstrateNetwork::new("toy");
/// let a = s.add_node("A", Tier::Edge, 100.0, 50.0)?;
/// let b = s.add_node("B", Tier::Core, 900.0, 1.0)?;
/// let l = s.add_link(a, b, 300.0, 1.0)?;
/// assert_eq!(s.node_count(), 2);
/// assert_eq!(s.link(l).other(a), b);
/// assert!(s.is_connected());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct SubstrateNetwork {
    name: String,
    nodes: Vec<SubstrateNode>,
    links: Vec<SubstrateLink>,
    /// Adjacency: for each node, the incident `(neighbor, link)` pairs.
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    /// [`SubstrateNetwork::host_groups`], built on first use and dropped
    /// by every node mutation. A cache, not data: equality and `Debug`
    /// ignore it.
    host_order: OnceLock<HostOrder>,
}

/// Node ids grouped by [`SubstrateNode::host_class`], each group in
/// ascending `cost` (`f64::total_cmp`), ties by id.
#[derive(Clone)]
struct HostOrder {
    ids: Vec<NodeId>,
    /// Group `c` is `ids[starts[c]..starts[c + 1]]`.
    starts: [usize; HOST_CLASSES + 1],
}

impl PartialEq for SubstrateNetwork {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.nodes == other.nodes
            && self.links == other.links
            && self.adjacency == other.adjacency
    }
}

impl std::fmt::Debug for SubstrateNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubstrateNetwork")
            .field("name", &self.name)
            .field("nodes", &self.nodes)
            .field("links", &self.links)
            .field("adjacency", &self.adjacency)
            .finish()
    }
}

impl SubstrateNetwork {
    /// Creates an empty substrate network with a descriptive name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            links: Vec::new(),
            adjacency: Vec::new(),
            host_order: OnceLock::new(),
        }
    }

    /// The network's name (e.g. `"Iris"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a datacenter and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuantity`] if `capacity` or `cost` is
    /// negative or non-finite.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        tier: Tier,
        capacity: f64,
        cost: f64,
    ) -> ModelResult<NodeId> {
        check_quantity("node capacity", capacity)?;
        check_quantity("node cost", cost)?;
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(SubstrateNode {
            name: name.into(),
            tier,
            capacity,
            cost,
            gpu: false,
        });
        self.adjacency.push(Vec::new());
        self.host_order.take();
        Ok(id)
    }

    /// Adds an undirected link between `a` and `b` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns an error on unknown endpoints, self-loops, duplicate links,
    /// or invalid quantities.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: f64,
        cost: f64,
    ) -> ModelResult<LinkId> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(ModelError::SelfLoop(a));
        }
        if self.link_between(a, b).is_some() {
            return Err(ModelError::DuplicateLink(a, b));
        }
        check_quantity("link capacity", capacity)?;
        check_quantity("link cost", cost)?;
        let id = LinkId::from_index(self.links.len());
        self.links.push(SubstrateLink {
            a,
            b,
            capacity,
            cost,
        });
        self.adjacency[a.index()].push((b, id));
        self.adjacency[b.index()].push((a, id));
        Ok(id)
    }

    fn check_node(&self, n: NodeId) -> ModelResult<()> {
        if n.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(ModelError::UnknownNode(n))
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The node with id `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn node(&self, n: NodeId) -> &SubstrateNode {
        &self.nodes[n.index()]
    }

    /// Mutable access to a node (used by topology transforms such as the
    /// GPU scenario).
    pub fn node_mut(&mut self, n: NodeId) -> &mut SubstrateNode {
        self.host_order.take();
        &mut self.nodes[n.index()]
    }

    /// The link with id `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn link(&self, l: LinkId) -> &SubstrateLink {
        &self.links[l.index()]
    }

    /// Mutable access to a link.
    pub fn link_mut(&mut self, l: LinkId) -> &mut SubstrateLink {
        &mut self.links[l.index()]
    }

    /// Iterates over `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &SubstrateNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Iterates over `(id, link)` pairs.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &SubstrateLink)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId::from_index(i), l))
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// All link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> {
        (0..self.links.len()).map(LinkId::from_index)
    }

    /// Incident `(neighbor, link)` pairs of node `n`.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[n.index()]
    }

    /// Degree of node `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n.index()].len()
    }

    /// The link connecting `a` and `b`, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adjacency
            .get(a.index())?
            .iter()
            .find(|(nb, _)| *nb == b)
            .map(|(_, l)| *l)
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.name == name)
            .map(NodeId::from_index)
    }

    /// The nodes grouped by [`SubstrateNode::host_class`], in class order
    /// (all [`HOST_CLASSES`] groups, empty ones included), each group in
    /// ascending `cost` by `f64::total_cmp`, ties by id.
    ///
    /// Built on the first call after a node was added or mutably
    /// borrowed, then shared by every later call.
    pub fn host_groups(&self) -> impl Iterator<Item = &[NodeId]> {
        let order = self.host_order.get_or_init(|| {
            let mut ids: Vec<NodeId> = self.node_ids().collect();
            ids.sort_by(|&a, &b| {
                let (x, y) = (self.node(a), self.node(b));
                (x.host_class().cmp(&y.host_class()))
                    .then(x.cost.total_cmp(&y.cost))
                    .then(a.cmp(&b))
            });
            let mut starts = [0; HOST_CLASSES + 1];
            for node in &self.nodes {
                starts[node.host_class() + 1] += 1;
            }
            for class in 0..HOST_CLASSES {
                starts[class + 1] += starts[class];
            }
            HostOrder { ids, starts }
        });
        order.starts.windows(2).map(|w| &order.ids[w[0]..w[1]])
    }

    /// Ids of all nodes in the given tier.
    pub fn nodes_in_tier(&self, tier: Tier) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.tier == tier)
            .map(|(id, _)| id)
            .collect()
    }

    /// Ids of all edge datacenters (request ingress points).
    pub fn edge_nodes(&self) -> Vec<NodeId> {
        self.nodes_in_tier(Tier::Edge)
    }

    /// Total compute capacity of all edge datacenters (the denominator of
    /// the paper's utilization definition).
    pub fn total_edge_capacity(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.tier == Tier::Edge)
            .map(|n| n.capacity)
            .sum()
    }

    /// Capacity of an arbitrary element.
    pub fn capacity(&self, e: ElementId) -> f64 {
        match e {
            ElementId::Node(n) => self.node(n).capacity,
            ElementId::Link(l) => self.link(l).capacity,
        }
    }

    /// Cost per CU of an arbitrary element.
    pub fn cost(&self, e: ElementId) -> f64 {
        match e {
            ElementId::Node(n) => self.node(n).cost,
            ElementId::Link(l) => self.link(l).cost,
        }
    }

    /// The maximum node cost over all nodes (used for conservative
    /// rejection penalties).
    pub fn max_node_cost(&self) -> f64 {
        self.nodes.iter().map(|n| n.cost).fold(0.0, f64::max)
    }

    /// The maximum link cost over all links.
    pub fn max_link_cost(&self) -> f64 {
        self.links.iter().map(|l| l.cost).fold(0.0, f64::max)
    }

    /// Whether the graph is connected (ignores capacities).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &(nb, _) in self.neighbors(n) {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    count += 1;
                    stack.push(nb);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Validates structural invariants (connectivity).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DisconnectedSubstrate`] if the graph is not
    /// connected.
    pub fn validate(&self) -> ModelResult<()> {
        if self.is_connected() {
            Ok(())
        } else {
            Err(ModelError::DisconnectedSubstrate)
        }
    }

    /// Single-source shortest paths by link weight: the never-pruning
    /// instance of [`SubstrateNetwork::search`], which settles every
    /// node reachable from `source`.
    ///
    /// `weight` maps each link to a non-negative weight, or `None` to make
    /// the link unusable (e.g. insufficient residual capacity). Returns per
    /// node the distance and the `(prev node, via link)` predecessor, or
    /// `None` when unreachable.
    pub fn shortest_paths<F>(&self, source: NodeId, weight: F) -> ShortestPaths
    where
        F: FnMut(LinkId) -> Option<f64>,
    {
        self.search(source, weight, |_, _| {}, |_| false).0
    }

    /// Dijkstra from `source` with a settle hook and a prune test — the
    /// one single-source shortest-path loop of the workspace: the greedy
    /// placement search and [`SubstrateNetwork::shortest_paths`] both run
    /// it.
    ///
    /// It is not the workspace's only heap. The pricing DP keeps its own
    /// multi-source Dijkstra (`vne_olive::pricing`), which starts from
    /// every node with a finite seed cost, relaxes only when a distance
    /// improves by more than `1e-15` and orders its heap by its own
    /// entry type; folding it in here would have to keep both relax rules
    /// and both pop orders bit for bit under the plan pins and the
    /// settle-order pins. The `vne_lp` branch and bound's best-first node
    /// queue is a third heap, over LP bounds rather than distances.
    ///
    /// `settle(n, d)` is called once per node, in non-decreasing order of
    /// `d`, when `n`'s distance `d` and predecessor are final (the pop
    /// order is total: distance, then `NodeId`). `prune(d)` says that
    /// nothing at distance `d` or beyond can matter to the caller any
    /// more: the search ends at the first popped distance it accepts and
    /// never queues a tentative distance it accepts. It must be monotone
    /// — once true for `d`, true for every `d' ≥ d` from then on — so that
    /// every node settled before the end is settled exactly as the
    /// unpruned search would have, with the same distance and predecessor.
    ///
    /// In the returned [`ShortestPaths`] only settled nodes carry final
    /// values; a node the search never settled may read as unreachable
    /// or hold a tentative distance.
    ///
    /// The heap key is `(d.to_bits(), node)`, smallest first. Distances
    /// start at `+0.0` and only ever add weights `≥ 0` (`+0.0 + -0.0` is
    /// `+0.0`), so every queued `d` is `+0.0`, a positive finite or `+∞`,
    /// and on those the IEEE-754 bit pattern read as an unsigned integer
    /// is in numeric order: the pop order is distance, then id, exactly.
    ///
    /// # Panics
    ///
    /// Panics if `weight` returns a negative or NaN weight (link and node
    /// mutators do not check costs, and such a weight would misorder the
    /// heap).
    pub fn search<W, S, P>(
        &self,
        source: NodeId,
        mut weight: W,
        mut settle: S,
        prune: P,
    ) -> (ShortestPaths, SearchStats)
    where
        W: FnMut(LinkId) -> Option<f64>,
        S: FnMut(NodeId, f64),
        P: Fn(f64) -> bool,
    {
        let n = self.nodes.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        let mut stats = SearchStats {
            searches: 1,
            ..SearchStats::default()
        };
        dist[source.index()] = 0.0;
        heap.push(Reverse((0.0f64.to_bits(), source.0)));
        while let Some(Reverse((bits, u))) = heap.pop() {
            let (d, u) = (f64::from_bits(bits), NodeId(u));
            if d > dist[u.index()] {
                continue;
            }
            if prune(d) {
                break;
            }
            stats.settled += 1;
            settle(u, d);
            for &(v, l) in self.neighbors(u) {
                let Some(w) = weight(l) else { continue };
                assert!(
                    w >= 0.0,
                    "link {l} has weight {w}: weights must be non-negative"
                );
                let nd = d + w;
                if nd < dist[v.index()] {
                    if prune(nd) {
                        stats.pruned += 1;
                        continue;
                    }
                    stats.relaxed += 1;
                    dist[v.index()] = nd;
                    prev[v.index()] = Some((u, l));
                    heap.push(Reverse((nd.to_bits(), v.0)));
                }
            }
        }
        (ShortestPaths { source, dist, prev }, stats)
    }

    /// Exports the topology in Graphviz DOT format (used for Fig. 5).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "graph \"{}\" {{", self.name);
        for (id, n) in self.nodes() {
            let color = match n.tier {
                Tier::Edge => "blue",
                Tier::Transport => "green",
                Tier::Core => "red",
            };
            let _ = writeln!(
                out,
                "  {} [label=\"{}\", color={}{}];",
                id.index(),
                n.name,
                color,
                if n.gpu { ", shape=box" } else { "" }
            );
        }
        for l in &self.links {
            let _ = writeln!(out, "  {} -- {};", l.a.index(), l.b.index());
        }
        out.push_str("}\n");
        out
    }
}

/// Result of a single-source shortest-path computation.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, LinkId)>>,
}

impl ShortestPaths {
    /// The source node of the computation.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Distance from the source to `n` (`f64::INFINITY` if unreachable).
    pub fn distance(&self, n: NodeId) -> f64 {
        self.dist[n.index()]
    }

    /// Whether `n` is reachable from the source.
    pub fn reachable(&self, n: NodeId) -> bool {
        self.dist[n.index()].is_finite()
    }

    /// The links of the shortest path from the source to `target`, in
    /// source-to-target order. Returns `None` if unreachable.
    ///
    /// The path is empty when `target == source`.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<LinkId>> {
        if !self.reachable(target) {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = target;
        while cur != self.source {
            let (p, l) = self.prev[cur.index()]?;
            path.push(l);
            cur = p;
        }
        path.reverse();
        Some(path)
    }
}

/// Work counters of [`SubstrateNetwork::search`], summable over
/// searches. Introspection only: they describe how much of the graph a
/// search touched, never what it found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Searches run.
    pub searches: u64,
    /// Nodes whose distance became final (one `settle` call each).
    pub settled: u64,
    /// Tentative distances improved and queued.
    pub relaxed: u64,
    /// Improvements not queued because `prune` accepted them.
    pub pruned: u64,
}

impl std::ops::AddAssign for SearchStats {
    fn add_assign(&mut self, other: Self) {
        self.searches += other.searches;
        self.settled += other.settled;
        self.relaxed += other.relaxed;
        self.pruned += other.pruned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (SubstrateNetwork, Vec<NodeId>, Vec<LinkId>) {
        // a - b
        // |   |
        // c - d      with a cheap path a-c-d and expensive a-b-d
        let mut s = SubstrateNetwork::new("diamond");
        let a = s.add_node("a", Tier::Edge, 100.0, 50.0).unwrap();
        let b = s.add_node("b", Tier::Transport, 300.0, 10.0).unwrap();
        let c = s.add_node("c", Tier::Transport, 300.0, 10.0).unwrap();
        let d = s.add_node("d", Tier::Core, 900.0, 1.0).unwrap();
        let ab = s.add_link(a, b, 100.0, 5.0).unwrap();
        let ac = s.add_link(a, c, 100.0, 1.0).unwrap();
        let bd = s.add_link(b, d, 100.0, 5.0).unwrap();
        let cd = s.add_link(c, d, 100.0, 1.0).unwrap();
        (s, vec![a, b, c, d], vec![ab, ac, bd, cd])
    }

    #[test]
    fn construction_and_lookup() {
        let (s, nodes, links) = diamond();
        assert_eq!(s.node_count(), 4);
        assert_eq!(s.link_count(), 4);
        assert_eq!(s.node(nodes[0]).name, "a");
        assert_eq!(s.degree(nodes[0]), 2);
        assert_eq!(s.link_between(nodes[0], nodes[1]), Some(links[0]));
        assert_eq!(s.link_between(nodes[0], nodes[3]), None);
        assert_eq!(s.node_by_name("d"), Some(nodes[3]));
        assert_eq!(s.node_by_name("zzz"), None);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn rejects_self_loop_and_duplicate() {
        let (mut s, nodes, _) = diamond();
        assert_eq!(
            s.add_link(nodes[0], nodes[0], 1.0, 1.0),
            Err(ModelError::SelfLoop(nodes[0]))
        );
        assert_eq!(
            s.add_link(nodes[1], nodes[0], 1.0, 1.0),
            Err(ModelError::DuplicateLink(nodes[1], nodes[0]))
        );
    }

    #[test]
    fn rejects_unknown_endpoint_and_bad_capacity() {
        let (mut s, nodes, _) = diamond();
        assert_eq!(
            s.add_link(nodes[0], NodeId(99), 1.0, 1.0),
            Err(ModelError::UnknownNode(NodeId(99)))
        );
        assert!(s.add_node("x", Tier::Edge, -5.0, 1.0).is_err());
        assert!(s.add_node("x", Tier::Edge, 5.0, f64::NAN).is_err());
    }

    #[test]
    fn tier_queries() {
        let (s, nodes, _) = diamond();
        assert_eq!(s.edge_nodes(), vec![nodes[0]]);
        assert_eq!(s.nodes_in_tier(Tier::Transport).len(), 2);
        assert_eq!(s.total_edge_capacity(), 100.0);
    }

    #[test]
    fn element_capacity_and_cost() {
        let (s, nodes, links) = diamond();
        assert_eq!(s.capacity(ElementId::Node(nodes[3])), 900.0);
        assert_eq!(s.cost(ElementId::Link(links[1])), 1.0);
        assert_eq!(s.max_node_cost(), 50.0);
        assert_eq!(s.max_link_cost(), 5.0);
    }

    #[test]
    fn shortest_path_prefers_cheap_route() {
        let (s, nodes, links) = diamond();
        let sp = s.shortest_paths(nodes[0], |l| Some(s.link(l).cost));
        assert_eq!(sp.distance(nodes[3]), 2.0);
        assert_eq!(sp.path_to(nodes[3]).unwrap(), vec![links[1], links[3]]);
        assert_eq!(sp.path_to(nodes[0]).unwrap(), Vec::<LinkId>::new());
    }

    #[test]
    fn shortest_path_respects_filtered_links() {
        let (s, nodes, links) = diamond();
        // Forbid the cheap a-c link: route must go a-b-d.
        let sp = s.shortest_paths(nodes[0], |l| {
            if l == links[1] {
                None
            } else {
                Some(s.link(l).cost)
            }
        });
        assert_eq!(sp.path_to(nodes[3]).unwrap(), vec![links[0], links[2]]);
        assert_eq!(sp.distance(nodes[3]), 10.0);
    }

    #[test]
    fn pruned_search_settles_a_prefix_of_the_full_search() {
        let (s, nodes, links) = diamond();
        let cost = |l| Some(s.link(l).cost);
        let mut order = Vec::new();
        let (_, full) = s.search(nodes[0], cost, |n, d| order.push((n, d)), |_| false);
        assert_eq!(
            order,
            vec![
                (nodes[0], 0.0),
                (nodes[2], 1.0),
                (nodes[3], 2.0),
                (nodes[1], 5.0)
            ]
        );
        assert_eq!((full.settled, full.relaxed, full.pruned), (4, 3, 0));

        // Nothing beyond distance 2 matters: b is never queued, neither
        // at 5 (from a) nor at 7 (from d).
        let mut pruned_order = Vec::new();
        let (sp, pruned) = s.search(
            nodes[0],
            cost,
            |n, d| pruned_order.push((n, d)),
            |d| d > 2.0,
        );
        assert_eq!(pruned_order, order[..3]);
        assert_eq!((pruned.settled, pruned.relaxed, pruned.pruned), (3, 2, 2));
        assert_eq!(sp.path_to(nodes[3]).unwrap(), vec![links[1], links[3]]);
    }

    #[test]
    #[should_panic(expected = "link l1 has weight -1")]
    fn search_refuses_a_negative_weight() {
        let (mut s, nodes, links) = diamond();
        s.link_mut(links[1]).cost = -1.0;
        s.shortest_paths(nodes[0], |l| Some(s.link(l).cost));
    }

    #[test]
    #[should_panic(expected = "has weight NaN")]
    fn search_refuses_a_nan_weight() {
        let (s, nodes, _) = diamond();
        s.shortest_paths(nodes[0], |_| Some(f64::NAN));
    }

    #[test]
    fn host_groups_follow_class_then_cost_then_id() {
        let (mut s, nodes, _) = diamond();
        let groups = |s: &SubstrateNetwork| -> Vec<Vec<NodeId>> {
            s.host_groups().map(<[NodeId]>::to_vec).collect()
        };
        // Classes: edge, edge+GPU, transport, transport+GPU, core, core+GPU;
        // b and c tie on cost, so the lower id goes first.
        let want = |t: Vec<NodeId>| vec![vec![nodes[0]], vec![], t, vec![], vec![nodes[3]], vec![]];
        assert_eq!(groups(&s), want(vec![nodes[1], nodes[2]]));
        // A node mutation drops the built order.
        s.node_mut(nodes[1]).cost = 20.0;
        assert_eq!(groups(&s), want(vec![nodes[2], nodes[1]]));
        s.node_mut(nodes[3]).gpu = true;
        assert_eq!(groups(&s)[4..], [vec![], vec![nodes[3]]]);
        let e = s.add_node("e", Tier::Edge, 100.0, 0.5).unwrap();
        assert_eq!(groups(&s)[0], vec![e, nodes[0]]);
    }

    #[test]
    fn equality_ignores_the_host_order() {
        let (s, _, _) = diamond();
        let (t, _, _) = diamond();
        assert_eq!(s.host_groups().count(), HOST_CLASSES);
        assert_eq!(s, t);
        assert_eq!(t, s);
        assert_eq!(format!("{s:?}"), format!("{t:?}"));
        assert_eq!(s.clone(), t);
    }

    #[test]
    fn unreachable_when_all_links_filtered() {
        let (s, nodes, _) = diamond();
        let sp = s.shortest_paths(nodes[0], |_| None);
        assert!(!sp.reachable(nodes[3]));
        assert_eq!(sp.path_to(nodes[3]), None);
        assert!(sp.reachable(nodes[0]));
    }

    #[test]
    fn connectivity_detection() {
        let mut s = SubstrateNetwork::new("disc");
        let _a = s.add_node("a", Tier::Edge, 1.0, 1.0).unwrap();
        let _b = s.add_node("b", Tier::Edge, 1.0, 1.0).unwrap();
        assert!(!s.is_connected());
        assert_eq!(s.validate(), Err(ModelError::DisconnectedSubstrate));
        let empty = SubstrateNetwork::new("empty");
        assert!(empty.is_connected());
    }

    #[test]
    fn dot_export_mentions_all_nodes() {
        let (s, _, _) = diamond();
        let dot = s.to_dot();
        assert!(dot.contains("graph \"diamond\""));
        assert!(dot.contains("0 -- 1;") || dot.contains("  0 -- 1;"));
        assert_eq!(dot.matches("--").count(), 4);
    }

    #[test]
    fn link_other_endpoint() {
        let (s, nodes, links) = diamond();
        assert_eq!(s.link(links[0]).other(nodes[0]), nodes[1]);
        assert_eq!(s.link(links[0]).other(nodes[1]), nodes[0]);
        assert!(s.link(links[0]).touches(nodes[0]));
        assert!(!s.link(links[0]).touches(nodes[3]));
    }
}
