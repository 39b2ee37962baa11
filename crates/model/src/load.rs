//! Residual capacity tracking (`Res(S, t, x)`, Eq. 16).
//!
//! A [`LoadLedger`] tracks the residual capacity of every substrate
//! element as embeddings are applied and removed. It is the single source
//! of truth for feasibility checks (Eq. 18) in the online algorithms and
//! the simulator.

use serde::{Deserialize, Serialize};

use crate::embedding::Footprint;
use crate::ids::{ElementId, LinkId, NodeId};
use crate::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};
use crate::substrate::SubstrateNetwork;

/// Relative tolerance for capacity feasibility checks.
///
/// Floating-point accumulation over thousands of allocations can leave
/// residuals a hair below zero; anything above `-EPS · cap` is treated as
/// feasible/zero.
pub const CAPACITY_EPS: f64 = 1e-9;

/// Tracks residual capacities of all substrate elements.
///
/// # Examples
///
/// ```
/// use vne_model::load::LoadLedger;
/// use vne_model::substrate::{SubstrateNetwork, Tier};
/// use vne_model::embedding::Footprint;
/// use vne_model::ids::NodeId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut s = SubstrateNetwork::new("one");
/// let n = s.add_node("n", Tier::Edge, 100.0, 1.0)?;
/// let mut ledger = LoadLedger::new(&s);
/// let fp = Footprint::from_parts(vec![(n, 30.0)], vec![]);
/// assert!(ledger.fits(&fp, 2.0));   // 60 ≤ 100
/// ledger.apply(&fp, 2.0);
/// assert!(!ledger.fits(&fp, 2.0));  // 60 + 60 > 100
/// ledger.remove(&fp, 2.0);
/// assert_eq!(ledger.node_residual(n), 100.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadLedger {
    node_capacity: Vec<f64>,
    link_capacity: Vec<f64>,
    node_load: Vec<f64>,
    link_load: Vec<f64>,
}

impl LoadLedger {
    /// Creates a ledger with zero load over the given substrate.
    pub fn new(substrate: &SubstrateNetwork) -> Self {
        Self {
            node_capacity: substrate.nodes().map(|(_, n)| n.capacity).collect(),
            link_capacity: substrate.links().map(|(_, l)| l.capacity).collect(),
            node_load: vec![0.0; substrate.node_count()],
            link_load: vec![0.0; substrate.link_count()],
        }
    }

    /// Number of substrate nodes this ledger tracks.
    pub fn node_count(&self) -> usize {
        self.node_capacity.len()
    }

    /// Number of substrate links this ledger tracks.
    pub fn link_count(&self) -> usize {
        self.link_capacity.len()
    }

    /// Effective capacity of node `n` (after any churn updates).
    pub fn node_capacity_of(&self, n: NodeId) -> f64 {
        self.node_capacity[n.index()]
    }

    /// Effective capacity of link `l` (after any churn updates).
    pub fn link_capacity_of(&self, l: LinkId) -> f64 {
        self.link_capacity[l.index()]
    }

    /// Residual capacity of node `n` (clamped at 0).
    pub fn node_residual(&self, n: NodeId) -> f64 {
        (self.node_capacity[n.index()] - self.node_load[n.index()]).max(0.0)
    }

    /// Residual capacity of link `l` (clamped at 0).
    pub fn link_residual(&self, l: LinkId) -> f64 {
        (self.link_capacity[l.index()] - self.link_load[l.index()]).max(0.0)
    }

    /// Residual capacity of an arbitrary element.
    pub fn residual(&self, e: ElementId) -> f64 {
        match e {
            ElementId::Node(n) => self.node_residual(n),
            ElementId::Link(l) => self.link_residual(l),
        }
    }

    /// Current load on node `n`.
    pub fn node_load(&self, n: NodeId) -> f64 {
        self.node_load[n.index()]
    }

    /// Current load on link `l`.
    pub fn link_load(&self, l: LinkId) -> f64 {
        self.link_load[l.index()]
    }

    /// Replaces the capacity vectors with externally computed effective
    /// capacities (substrate churn: failures, drains, maintenance).
    ///
    /// Loads are left untouched — the engine evicts stranded requests
    /// separately — so loads may transiently exceed the new capacities.
    ///
    /// # Panics
    ///
    /// Panics when the vector dimensions do not match this ledger.
    pub fn set_capacities(&mut self, node: &[f64], link: &[f64]) {
        assert_eq!(
            (node.len(), link.len()),
            (self.node_capacity.len(), self.link_capacity.len()),
            "effective capacities do not match ledger dimensions"
        );
        self.node_capacity.copy_from_slice(node);
        self.link_capacity.copy_from_slice(link);
    }

    /// Whether a footprint scaled by `demand` fits in the residual
    /// capacities (Eq. 18).
    pub fn fits(&self, footprint: &Footprint, demand: f64) -> bool {
        let tol = |cap: f64| CAPACITY_EPS * cap.max(1.0);
        footprint.nodes().iter().all(|&(n, x)| {
            self.node_load[n.index()] + x * demand
                <= self.node_capacity[n.index()] + tol(self.node_capacity[n.index()])
        }) && footprint.links().iter().all(|&(l, x)| {
            self.link_load[l.index()] + x * demand
                <= self.link_capacity[l.index()] + tol(self.link_capacity[l.index()])
        })
    }

    /// Applies a footprint scaled by `demand` (allocation).
    ///
    /// The caller is responsible for checking [`LoadLedger::fits`] first;
    /// in debug builds over-allocation panics.
    pub fn apply(&mut self, footprint: &Footprint, demand: f64) {
        for &(n, x) in footprint.nodes() {
            self.node_load[n.index()] += x * demand;
            debug_assert!(
                self.node_load[n.index()]
                    <= self.node_capacity[n.index()]
                        + CAPACITY_EPS * self.node_capacity[n.index()].max(1.0),
                "node {n} over-allocated"
            );
        }
        for &(l, x) in footprint.links() {
            self.link_load[l.index()] += x * demand;
            debug_assert!(
                self.link_load[l.index()]
                    <= self.link_capacity[l.index()]
                        + CAPACITY_EPS * self.link_capacity[l.index()].max(1.0),
                "link {l} over-allocated"
            );
        }
    }

    /// Removes a previously applied footprint scaled by `demand`
    /// (departure or preemption). Loads are clamped at zero to absorb
    /// floating-point drift.
    pub fn remove(&mut self, footprint: &Footprint, demand: f64) {
        for &(n, x) in footprint.nodes() {
            self.node_load[n.index()] = (self.node_load[n.index()] - x * demand).max(0.0);
        }
        for &(l, x) in footprint.links() {
            self.link_load[l.index()] = (self.link_load[l.index()] - x * demand).max(0.0);
        }
    }

    /// Total load-weighted resource cost per slot under `substrate` costs
    /// (one term of Eq. 3).
    pub fn cost_per_slot(&self, substrate: &SubstrateNetwork) -> f64 {
        let n: f64 = substrate
            .nodes()
            .map(|(id, node)| self.node_load[id.index()] * node.cost)
            .sum();
        let l: f64 = substrate
            .links()
            .map(|(id, link)| self.link_load[id.index()] * link.cost)
            .sum();
        n + l
    }

    /// Whether every node in the substrate is saturated beyond `threshold`
    /// of its capacity (QUICKG's fast-reject path checks this with 1.0).
    pub fn all_nodes_loaded_above(&self, threshold: f64) -> bool {
        self.node_capacity
            .iter()
            .zip(&self.node_load)
            .all(|(&cap, &load)| load >= threshold * cap - CAPACITY_EPS * cap.max(1.0))
    }

    /// Fraction of total node capacity currently loaded.
    pub fn node_utilization(&self) -> f64 {
        let cap: f64 = self.node_capacity.iter().sum();
        if cap == 0.0 {
            return 0.0;
        }
        self.node_load.iter().sum::<f64>() / cap
    }

    /// Asserts internal invariants (loads within `[0, cap]` up to
    /// tolerance). Intended for tests and debug checks.
    pub fn check_invariants(&self) -> bool {
        let ok = |cap: f64, load: f64| {
            let tol = CAPACITY_EPS * cap.max(1.0);
            load >= -tol && load <= cap + tol
        };
        self.node_capacity
            .iter()
            .zip(&self.node_load)
            .all(|(&c, &l)| ok(c, l))
            && self
                .link_capacity
                .iter()
                .zip(&self.link_load)
                .all(|(&c, &l)| ok(c, l))
    }
}

/// Checkpointing: the mutable state is the two load vectors; capacities
/// come from the substrate the ledger was constructed over, so
/// [`Snapshot::restore`] only validates their dimensions.
impl Snapshot for LoadLedger {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write(&self.node_load);
        w.write(&self.link_load);
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let node_load: Vec<f64> = r.read()?;
        let link_load: Vec<f64> = r.read()?;
        r.finish()?;
        if node_load.len() != self.node_capacity.len()
            || link_load.len() != self.link_capacity.len()
        {
            return Err(StateError::Mismatch {
                expected: format!(
                    "ledger over {} nodes / {} links",
                    self.node_capacity.len(),
                    self.link_capacity.len()
                ),
                found: format!(
                    "loads for {} nodes / {} links",
                    node_load.len(),
                    link_load.len()
                ),
            });
        }
        self.node_load = node_load;
        self.link_load = link_load;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::Tier;

    fn two_nodes() -> (SubstrateNetwork, NodeId, NodeId, LinkId) {
        let mut s = SubstrateNetwork::new("pair");
        let a = s.add_node("a", Tier::Edge, 100.0, 1.0).unwrap();
        let b = s.add_node("b", Tier::Core, 200.0, 1.0).unwrap();
        let l = s.add_link(a, b, 50.0, 1.0).unwrap();
        (s, a, b, l)
    }

    #[test]
    fn apply_remove_roundtrip() {
        let (s, a, _b, l) = two_nodes();
        let mut ledger = LoadLedger::new(&s);
        let fp = Footprint::from_parts(vec![(a, 10.0)], vec![(l, 5.0)]);
        ledger.apply(&fp, 3.0);
        assert_eq!(ledger.node_load(a), 30.0);
        assert_eq!(ledger.link_load(l), 15.0);
        assert_eq!(ledger.node_residual(a), 70.0);
        assert_eq!(ledger.link_residual(l), 35.0);
        ledger.remove(&fp, 3.0);
        assert_eq!(ledger.node_load(a), 0.0);
        assert!(ledger.check_invariants());
    }

    #[test]
    fn fits_respects_both_nodes_and_links() {
        let (s, a, _b, l) = two_nodes();
        let mut ledger = LoadLedger::new(&s);
        let fp = Footprint::from_parts(vec![(a, 10.0)], vec![(l, 10.0)]);
        assert!(ledger.fits(&fp, 5.0)); // node 50 ≤ 100, link 50 ≤ 50
        assert!(!ledger.fits(&fp, 6.0)); // link 60 > 50
        ledger.apply(&fp, 5.0);
        assert!(!ledger.fits(&fp, 0.1));
    }

    #[test]
    fn fits_with_tolerance_at_boundary() {
        let (s, a, _b, _l) = two_nodes();
        let ledger = LoadLedger::new(&s);
        let fp = Footprint::from_parts(vec![(a, 100.0)], vec![]);
        assert!(ledger.fits(&fp, 1.0)); // exactly at capacity
    }

    #[test]
    fn element_residual_dispatch() {
        let (s, a, _b, l) = two_nodes();
        let ledger = LoadLedger::new(&s);
        assert_eq!(ledger.residual(ElementId::Node(a)), 100.0);
        assert_eq!(ledger.residual(ElementId::Link(l)), 50.0);
    }

    #[test]
    fn cost_per_slot_sums_loads() {
        let (s, a, b, l) = two_nodes();
        let mut ledger = LoadLedger::new(&s);
        let fp = Footprint::from_parts(vec![(a, 10.0), (b, 20.0)], vec![(l, 5.0)]);
        ledger.apply(&fp, 1.0);
        assert_eq!(ledger.cost_per_slot(&s), 35.0);
    }

    #[test]
    fn utilization_fractions() {
        let (s, a, _b, _l) = two_nodes();
        let mut ledger = LoadLedger::new(&s);
        assert_eq!(ledger.node_utilization(), 0.0);
        let fp = Footprint::from_parts(vec![(a, 100.0)], vec![]);
        ledger.apply(&fp, 1.0);
        assert!((ledger.node_utilization() - 100.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn all_nodes_loaded_above_threshold() {
        let (s, a, b, _l) = two_nodes();
        let mut ledger = LoadLedger::new(&s);
        assert!(!ledger.all_nodes_loaded_above(0.9));
        ledger.apply(
            &Footprint::from_parts(vec![(a, 95.0), (b, 190.0)], vec![]),
            1.0,
        );
        assert!(ledger.all_nodes_loaded_above(0.9));
        assert!(!ledger.all_nodes_loaded_above(1.0));
    }

    #[test]
    fn snapshot_roundtrips_and_validates_shape() {
        let (s, a, _b, l) = two_nodes();
        let mut ledger = LoadLedger::new(&s);
        ledger.apply(&Footprint::from_parts(vec![(a, 10.0)], vec![(l, 5.0)]), 3.0);
        let blob = ledger.snapshot();
        let mut fresh = LoadLedger::new(&s);
        fresh.restore(&blob).unwrap();
        assert_eq!(fresh, ledger);
        assert_eq!(fresh.snapshot(), blob);
        // A ledger over a different substrate rejects the blob.
        let mut tiny = SubstrateNetwork::new("tiny");
        tiny.add_node("x", Tier::Edge, 1.0, 1.0).unwrap();
        let mut wrong = LoadLedger::new(&tiny);
        assert!(matches!(
            wrong.restore(&blob),
            Err(StateError::Mismatch { .. })
        ));
    }

    #[test]
    fn remove_clamps_at_zero() {
        let (s, a, _b, _l) = two_nodes();
        let mut ledger = LoadLedger::new(&s);
        let fp = Footprint::from_parts(vec![(a, 10.0)], vec![]);
        ledger.remove(&fp, 1.0);
        assert_eq!(ledger.node_load(a), 0.0);
        assert!(ledger.check_invariants());
    }
}
