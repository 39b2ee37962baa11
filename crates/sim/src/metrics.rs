//! Evaluation metrics (§IV): rejection rate, cost, balance index.
//!
//! All metrics are computed over a *measurement window* of arrival slots
//! — the paper displays requests started between slots 100 and 500 of
//! the 600-slot online phase. Preempted requests count as denied (they
//! incur the rejection cost like rejected ones).
//!
//! [`Summary`] is produced by the incremental
//! [`crate::observe::WindowSummary`] fold. Its rejection cost is
//! accumulated with a *pinned summation order*, independent of the order
//! observers hear about preemptions within a slot: rejected-on-arrival
//! costs fold in arrival order, preemption costs fold in `(eviction
//! slot, request id)` order, each through a compensated
//! [`NeumaierSum`], and the two partial sums are combined last.

use std::collections::BTreeMap;

use vne_model::ids::{AppId, NodeId};

use crate::engine::ChurnStats;

/// Kahan–Neumaier compensated summation.
///
/// The summary fold accumulates the rejection cost through this (in a
/// pinned order), so a checkpointed-and-resumed fold agrees with the
/// straight one bit for bit; the compensation also keeps long-horizon
/// cost sums accurate to the last ulp.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NeumaierSum {
    sum: f64,
    compensation: f64,
}

impl NeumaierSum {
    /// An empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one term into the sum.
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            // audit:allow(D3, "the compensated accumulator itself: this IS NeumaierSum")
            self.compensation += (self.sum - t) + x;
        } else {
            // audit:allow(D3, "the compensated accumulator itself: this IS NeumaierSum")
            self.compensation += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }

    /// The raw `(sum, compensation)` pair — the complete accumulator
    /// state, exposed for bit-exact checkpointing.
    pub fn parts(&self) -> (f64, f64) {
        (self.sum, self.compensation)
    }

    /// Rebuilds an accumulator from [`NeumaierSum::parts`] (checkpoint
    /// restore; continuing the fold is bit-identical to never having
    /// stopped).
    pub fn from_parts(sum: f64, compensation: f64) -> Self {
        Self { sum, compensation }
    }
}

/// Summary of one run over a measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Requests arriving inside the window.
    pub arrivals: usize,
    /// Requests rejected on arrival.
    pub rejected: usize,
    /// Requests preempted after acceptance.
    pub preempted: usize,
    /// `(rejected + preempted) / arrivals`.
    pub rejection_rate: f64,
    /// Σ over window slots of the per-slot resource cost (Eq. 3).
    pub resource_cost: f64,
    /// Σ over denied requests of `ψ(a)·d·T` (Eq. 4).
    pub rejection_cost: f64,
    /// `resource_cost + rejection_cost`.
    pub total_cost: f64,
    /// Jain-style rejection balance index (Eq. 20).
    pub balance_index: f64,
    /// Online-loop wall-clock seconds (whole run, not only the window).
    pub online_secs: f64,
    /// Substrate-churn tallies over window slots (all zero on a static
    /// substrate).
    pub churn: ChurnStats,
}

impl Summary {
    /// FNV-1a fingerprint of every *deterministic* field (all counts
    /// and IEEE bit patterns; the wall-clock `online_secs` is excluded).
    /// Two runs of the same scenario — including a checkpointed run
    /// resumed mid-stream — must produce equal fingerprints; the golden
    /// regression suite pins these values per algorithm the way
    /// `plan_identity` pins plans.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(&(self.arrivals as u64).to_le_bytes());
        eat(&(self.rejected as u64).to_le_bytes());
        eat(&(self.preempted as u64).to_le_bytes());
        eat(&self.rejection_rate.to_bits().to_le_bytes());
        eat(&self.resource_cost.to_bits().to_le_bytes());
        eat(&self.rejection_cost.to_bits().to_le_bytes());
        eat(&self.total_cost.to_bits().to_le_bytes());
        eat(&self.balance_index.to_bits().to_le_bytes());
        // Churn tallies join the digest only when churn occurred, so
        // every churn-free fingerprint (the pre-churn golden table)
        // is unchanged.
        if !self.churn.is_empty() {
            eat(&(self.churn.events as u64).to_le_bytes());
            eat(&(self.churn.stranded as u64).to_le_bytes());
            eat(&(self.churn.evicted as u64).to_le_bytes());
            eat(&(self.churn.reembedded as u64).to_le_bytes());
        }
        h
    }
}

/// The rejection balance index (Eq. 20) from pre-aggregated counts:
/// `n_v` window arrivals per node, `x_va` denials per `(node, app)`,
/// `apps` the apps seen in the window. It is a weighted Jain fairness
/// index of per-application rejections at each ingress node; 1 is
/// perfectly balanced. Nodes without any rejection are excluded (Jain's
/// index is undefined on an all-zero vector, and including them as
/// "perfect" saturates the index at high acceptance); if no node rejects
/// at all the index is 1.
pub fn balance_from_counts(
    n_v: &BTreeMap<NodeId, f64>,
    x_va: &BTreeMap<(NodeId, AppId), f64>,
    apps: &std::collections::BTreeSet<AppId>,
) -> f64 {
    let a_count = apps.len() as f64;
    if a_count == 0.0 || n_v.is_empty() {
        return 1.0;
    }
    let mut weighted = 0.0;
    let mut total_weight = 0.0;
    for (&v, &n) in n_v {
        let sum: f64 = apps
            .iter()
            .map(|&a| x_va.get(&(v, a)).copied().unwrap_or(0.0))
            .sum();
        let sum_sq: f64 = apps
            .iter()
            .map(|&a| x_va.get(&(v, a)).copied().unwrap_or(0.0).powi(2))
            .sum();
        if sum_sq == 0.0 {
            continue; // no rejections at v: Jain undefined, excluded
        }
        let jain = sum * sum / (a_count * sum_sq);
        // audit:allow(D3, "node-ordered short fold over <=|V| terms; compensating would re-pin goldens")
        weighted += n * jain;
        // audit:allow(D3, "node-ordered short fold over <=|V| terms; compensating would re-pin goldens")
        total_weight += n;
    }
    if total_weight == 0.0 {
        return 1.0;
    }
    weighted / total_weight
}

/// Mean ± 95% CI aggregation of summaries across seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregatedSummary {
    /// Mean and CI half-width of the rejection rate.
    pub rejection_rate: (f64, f64),
    /// Mean and CI half-width of the total cost.
    pub total_cost: (f64, f64),
    /// Mean and CI half-width of the resource cost.
    pub resource_cost: (f64, f64),
    /// Mean and CI half-width of the rejection cost.
    pub rejection_cost: (f64, f64),
    /// Mean and CI half-width of the balance index.
    pub balance_index: (f64, f64),
    /// Mean and CI half-width of the online runtime (seconds).
    pub online_secs: (f64, f64),
    /// Number of seeds aggregated.
    pub seeds: usize,
}

/// Aggregates per-seed summaries with Student-t confidence intervals.
pub fn aggregate(summaries: &[Summary]) -> AggregatedSummary {
    use vne_workload::stats::mean_and_ci;
    let pick = |f: fn(&Summary) -> f64| -> (f64, f64) {
        let values: Vec<f64> = summaries.iter().map(f).collect();
        mean_and_ci(&values)
    };
    AggregatedSummary {
        rejection_rate: pick(|s| s.rejection_rate),
        total_cost: pick(|s| s.total_cost),
        resource_cost: pick(|s| s.resource_cost),
        rejection_cost: pick(|s| s.rejection_cost),
        balance_index: pick(|s| s.balance_index),
        online_secs: pick(|s| s.online_secs),
        seeds: summaries.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RequestOutcome, RequestStatus, SimObserver, SlotMetrics, StreamStats};
    use crate::observe::WindowSummary;
    use vne_model::app::{shapes, AppSet, AppShape};
    use vne_model::cost::RejectionPenalty;
    use vne_model::ids::{ClassId, RequestId};
    use vne_model::policy::PlacementPolicy;
    use vne_model::request::Slot;
    use vne_model::substrate::{SubstrateNetwork, Tier};
    use vne_olive::olive::Olive;

    fn outcome(
        id: u64,
        arrival: Slot,
        node: u32,
        app: u32,
        status: RequestStatus,
    ) -> RequestOutcome {
        RequestOutcome {
            id: RequestId(id),
            class: ClassId::new(AppId(app), NodeId(node)),
            arrival,
            duration: 10,
            demand: 2.0,
            status,
        }
    }

    fn apps() -> AppSet {
        let mut apps = AppSet::new();
        for name in ["a", "b"] {
            apps.push(
                name,
                AppShape::Chain,
                shapes::uniform_chain(1, 1.0, 1.0).unwrap(),
            )
            .unwrap();
        }
        apps
    }

    /// Replays a finished outcome log through the [`WindowSummary`]
    /// hooks the way the engine reports it — every request announced on
    /// arrival (a later-preempted one as accepted), its preemption at
    /// the eviction slot, a resource cost of 5 per slot — and finishes
    /// the fold.
    fn fold(requests: &[RequestOutcome], slots: Slot, window: (Slot, Slot)) -> Summary {
        // `on_slot_end` wants an algorithm to show observers; any will do.
        let mut s = SubstrateNetwork::new("t");
        let e = s.add_node("e", Tier::Edge, 1.0, 1.0).unwrap();
        let c = s.add_node("c", Tier::Core, 1.0, 1.0).unwrap();
        s.add_link(e, c, 1.0, 1.0).unwrap();
        let algorithm = Olive::quickg(s, apps(), PlacementPolicy::default());
        let metrics = SlotMetrics {
            requested_demand: 0.0,
            allocated_demand: 0.0,
            resource_cost: 5.0,
        };
        let mut window = WindowSummary::new(window, RejectionPenalty::uniform(&apps(), 3.0));
        for t in 0..slots {
            for r in requests.iter().filter(|r| r.arrival == t) {
                let status = match r.status {
                    RequestStatus::Preempted(_) => RequestStatus::Accepted,
                    decided => decided,
                };
                window.on_arrival(&RequestOutcome {
                    status,
                    ..r.clone()
                });
            }
            for r in requests {
                if r.status == RequestStatus::Preempted(t) {
                    window.on_preemption(r);
                }
            }
            window.on_slot_end(t, &metrics, &algorithm);
        }
        window.finish(&StreamStats {
            online_secs: 0.1,
            ..StreamStats::default()
        })
    }

    #[test]
    fn summary_counts_and_costs() {
        let r = [
            outcome(0, 1, 0, 0, RequestStatus::Accepted),
            outcome(1, 2, 0, 0, RequestStatus::Rejected),
            outcome(2, 3, 0, 1, RequestStatus::Preempted(5)),
            outcome(3, 99, 0, 0, RequestStatus::Rejected), // outside window
        ];
        let s = fold(&r, 100, (0, 10));
        assert_eq!(s.arrivals, 3);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.preempted, 1);
        assert!((s.rejection_rate - 2.0 / 3.0).abs() < 1e-12);
        // Rejection cost: 2 denied × ψ3 × d2 × T10 = 120.
        assert_eq!(s.rejection_cost, 120.0);
        // Resource cost: 10 window slots × 5.
        assert_eq!(s.resource_cost, 50.0);
        assert_eq!(s.total_cost, 170.0);
    }

    #[test]
    fn empty_window() {
        let s = fold(&[], 5, (0, 5));
        assert_eq!(s.arrivals, 0);
        assert_eq!(s.rejection_rate, 0.0);
        assert_eq!(s.balance_index, 1.0);
    }

    #[test]
    fn balance_index_perfect_when_rejections_even() {
        // Node 0: one rejection of each app → Jain = 1.
        let r = [
            outcome(0, 1, 0, 0, RequestStatus::Rejected),
            outcome(1, 1, 0, 1, RequestStatus::Rejected),
        ];
        assert!((fold(&r, 5, (0, 5)).balance_index - 1.0).abs() < 1e-12);
    }

    #[test]
    fn balance_index_halves_when_one_sided() {
        // All rejections on one app of two → Jain = 1/2.
        let r = [
            outcome(0, 1, 0, 0, RequestStatus::Rejected),
            outcome(1, 1, 0, 0, RequestStatus::Rejected),
            outcome(2, 1, 0, 1, RequestStatus::Accepted),
        ];
        assert!((fold(&r, 5, (0, 5)).balance_index - 0.5).abs() < 1e-12);
    }

    #[test]
    fn balance_index_weights_by_node_arrivals() {
        // Node 0 (3 requests): one-sided rejections (Jain 0.5); node 1
        // (1 request, no rejections): excluded. Node 2 (2 requests):
        // balanced rejections across both apps (Jain 1.0).
        let r = [
            outcome(0, 1, 0, 0, RequestStatus::Rejected),
            outcome(1, 1, 0, 0, RequestStatus::Rejected),
            outcome(2, 1, 0, 1, RequestStatus::Accepted),
            outcome(3, 1, 1, 1, RequestStatus::Accepted),
            outcome(4, 1, 2, 0, RequestStatus::Rejected),
            outcome(5, 1, 2, 1, RequestStatus::Rejected),
        ];
        // n(0)=3 (Jain 0.5), n(2)=2 (Jain 1.0) → (3·0.5+2·1)/5 = 0.7.
        assert!((fold(&r, 5, (0, 5)).balance_index - 0.7).abs() < 1e-12);
    }

    #[test]
    fn balance_index_is_one_without_rejections() {
        let r = [outcome(0, 1, 0, 0, RequestStatus::Accepted)];
        assert_eq!(fold(&r, 5, (0, 5)).balance_index, 1.0);
    }

    #[test]
    fn neumaier_sum_is_compensated() {
        // The classic Kahan failure case: 1 + 1e100 + 1 - 1e100 = 2.
        let mut s = NeumaierSum::new();
        for x in [1.0, 1e100, 1.0, -1e100] {
            s.add(x);
        }
        assert_eq!(s.value(), 2.0);
        // Plain summation gets this wrong.
        let plain: f64 = [1.0, 1e100, 1.0, -1e100].iter().sum();
        assert_eq!(plain, 0.0);
    }

    #[test]
    fn summary_pins_preemption_order_by_slot_then_id() {
        // Preemptions logged in arrival order but evicted in a
        // different slot order: the cost folds by (eviction slot, id),
        // whatever order the log lists them in.
        let mk = |id: u64, at: Slot| RequestOutcome {
            demand: 2.0 + id as f64,
            ..outcome(id, 1, 0, 0, RequestStatus::Preempted(at))
        };
        // Arrival order: 0 (evicted late), 1 (evicted early).
        let s1 = fold(&[mk(0, 9), mk(1, 3)], 10, (0, 10));
        // Same multiset, arrival order flipped.
        let s2 = fold(&[mk(1, 3), mk(0, 9)], 10, (0, 10));
        assert_eq!(s1.rejection_cost.to_bits(), s2.rejection_cost.to_bits());
        assert_eq!(s1.preempted, 2);
    }

    #[test]
    fn fingerprint_ignores_wall_clock_only() {
        let a = fold(&[outcome(0, 1, 0, 0, RequestStatus::Rejected)], 5, (0, 5));
        let mut b = a;
        b.online_secs = a.online_secs + 123.0;
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a;
        c.rejected += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn neumaier_parts_roundtrip_mid_fold() {
        let terms = [1.0, 1e100, 1.0, -1e100, 3.5];
        let mut original = NeumaierSum::new();
        for &x in &terms[..3] {
            original.add(x);
        }
        let (sum, comp) = original.parts();
        let mut resumed = NeumaierSum::from_parts(sum, comp);
        for &x in &terms[3..] {
            original.add(x);
            resumed.add(x);
        }
        assert_eq!(original.value().to_bits(), resumed.value().to_bits());
        assert_eq!(original.parts(), resumed.parts());
    }

    #[test]
    fn aggregation_produces_cis() {
        let summaries = vec![
            fold(&[outcome(0, 1, 0, 0, RequestStatus::Rejected)], 5, (0, 5)),
            fold(&[outcome(0, 1, 0, 0, RequestStatus::Accepted)], 5, (0, 5)),
        ];
        let agg = aggregate(&summaries);
        assert_eq!(agg.seeds, 2);
        assert!((agg.rejection_rate.0 - 0.5).abs() < 1e-12);
        assert!(agg.rejection_rate.1 > 0.0);
    }
}
