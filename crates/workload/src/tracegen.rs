//! Synthetic request trace generation (Table III).
//!
//! Requests originate exclusively from edge datacenters; node popularity
//! follows Zipf(α = 1); per-node arrivals follow Poisson or MMPP
//! processes with mean `λ̄ = 10` per slot; request demands are
//! `N(10, 2²)` and durations exponential with mean 10 slots. The mean
//! demand is the knob that sets *edge utilization* (§IV-A): utilization
//! is 100% when the mean total size of active requests equals the total
//! edge-datacenter capacity, which at the defaults means `E[d] = 10`.

use rand::seq::SliceRandom;
use rand::Rng;
use vne_model::app::AppSet;
use vne_model::ids::{AppId, NodeId, RequestId};
use vne_model::request::{Request, Slot, SlotEvents};
use vne_model::substrate::SubstrateNetwork;

use crate::arrival::{ArrivalProcess, Mmpp, PoissonArrivals};
use crate::dist::{Exponential, Normal, Zipf};

/// The arrival process family for a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Memoryless Poisson arrivals.
    Poisson,
    /// Bursty Markov-modulated Poisson arrivals (the paper's default).
    Mmpp,
}

/// Parameters of a synthetic trace (defaults = Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of time slots to generate.
    pub slots: Slot,
    /// Mean arrivals per edge node per slot (`λ`).
    pub mean_rate_per_node: f64,
    /// Mean request demand size (`E[d]`; 10 ⇒ 100% utilization).
    pub demand_mean: f64,
    /// Standard deviation of request demand (`N(10, 4)` ⇒ 2).
    pub demand_std: f64,
    /// Mean request duration in slots.
    pub duration_mean: f64,
    /// Zipf exponent for node popularity.
    pub zipf_alpha: f64,
    /// Arrival process family.
    pub arrivals: ArrivalKind,
    /// Seed of the node-popularity permutation. This is deliberately
    /// *separate* from the trace RNG: the history and online phases of
    /// one experiment must agree on which edge nodes are popular, or the
    /// plan is built for the wrong spatial distribution (that distortion
    /// is an explicit experiment, Fig. 14 — not the default).
    pub popularity_seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            slots: 6000,
            mean_rate_per_node: 10.0,
            demand_mean: 10.0,
            demand_std: 2.0,
            duration_mean: 10.0,
            zipf_alpha: 1.0,
            arrivals: ArrivalKind::Mmpp,
            popularity_seed: 0x90b5,
        }
    }
}

impl TraceConfig {
    /// The mean demand that produces the given edge utilization
    /// (utilization 1.0 = 100%):
    /// `E[d] = u · cap_edge / (λ · E[T] · E[Σ_i β_i])`.
    pub fn demand_mean_for_utilization(
        utilization: f64,
        substrate: &SubstrateNetwork,
        apps: &AppSet,
        mean_rate_per_node: f64,
        duration_mean: f64,
    ) -> f64 {
        let edge_nodes = substrate.edge_nodes().len() as f64;
        if edge_nodes == 0.0 {
            return 0.0;
        }
        let cap_per_edge = substrate.total_edge_capacity() / edge_nodes;
        let mean_footprint = apps.mean_total_node_size();
        utilization * cap_per_edge / (mean_rate_per_node * duration_mean * mean_footprint)
    }

    /// Returns a copy with the demand mean set for the target utilization.
    pub fn at_utilization(
        &self,
        utilization: f64,
        substrate: &SubstrateNetwork,
        apps: &AppSet,
    ) -> Self {
        let mut c = self.clone();
        c.demand_mean = Self::demand_mean_for_utilization(
            utilization,
            substrate,
            apps,
            self.mean_rate_per_node,
            self.duration_mean,
        );
        // Keep the paper's coefficient of variation (σ/μ = 0.2).
        c.demand_std = c.demand_mean * (self.demand_std / self.demand_mean);
        c
    }
}

enum NodeProcess {
    Poisson(PoissonArrivals),
    Mmpp(Mmpp),
}

impl NodeProcess {
    fn arrivals<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        match self {
            NodeProcess::Poisson(p) => p.arrivals(rng),
            NodeProcess::Mmpp(m) => m.arrivals(rng),
        }
    }
}

/// A lazy, slot-by-slot synthetic trace: an `Iterator<Item = SlotEvents>`.
///
/// Holds only the per-node arrival processes and the sampling
/// distributions — memory is `O(edge nodes)`, independent of the number
/// of slots or requests, which is what lets the streaming engine replay
/// arbitrarily long horizons. Construct with [`stream`].
pub struct TraceStream<R: Rng> {
    slots: Slot,
    next_slot: Slot,
    next_id: u64,
    /// Edge nodes in popularity-rank order (rank 0 = hottest).
    nodes: Vec<NodeId>,
    processes: Vec<NodeProcess>,
    demand: Normal,
    duration: Exponential,
    app_count: usize,
    rng: R,
}

impl<R: Rng> Iterator for TraceStream<R> {
    type Item = SlotEvents;

    fn next(&mut self) -> Option<SlotEvents> {
        if self.next_slot >= self.slots {
            return None;
        }
        let t = self.next_slot;
        self.next_slot += 1;
        let mut arrivals = Vec::new();
        for rank in 0..self.processes.len() {
            let k = self.processes[rank].arrivals(&mut self.rng);
            for _ in 0..k {
                let app = AppId::from_index(self.rng.gen_range(0..self.app_count));
                let d = self.demand.sample_truncated(&mut self.rng, 0.5);
                let dur = self.duration.sample(&mut self.rng).round().max(1.0) as Slot;
                arrivals.push(Request {
                    id: RequestId(self.next_id),
                    arrival: t,
                    duration: dur,
                    ingress: self.nodes[rank],
                    app,
                    demand: d,
                });
                self.next_id += 1;
            }
        }
        Some(SlotEvents {
            slot: t,
            arrivals,
            churn: Vec::new(),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.slots - self.next_slot) as usize;
        (left, Some(left))
    }
}

impl<R: Rng> ExactSizeIterator for TraceStream<R> {}

impl<R: Rng> TraceStream<R> {
    /// Fast-forwards the stream so the next yielded event is `slot`
    /// (clamped to the horizon) — the resume path of checkpointed runs,
    /// which must *drop* the slots a checkpoint already consumed.
    ///
    /// Determinism requires replaying the per-slot RNG draws (a request
    /// stream has no random access), so skipping costs the same samples
    /// as yielding; what it skips is handing the requests to a consumer
    /// that has already processed them.
    pub fn skip_to(&mut self, slot: Slot) {
        while self.next_slot < slot.min(self.slots) {
            let _ = self.next();
        }
    }
}

/// Creates a lazy synthetic trace stream over the substrate's edge
/// nodes.
///
/// Popularity ranks are a seeded random permutation of the edge nodes;
/// the total arrival rate `λ̄ · |edge|` is split across nodes by Zipf
/// weight, each node running an independent arrival process. Slots are
/// yielded in order with request ids in arrival order.
///
/// # Panics
///
/// Panics if the substrate has no edge nodes or `apps` is empty.
pub fn stream<R: Rng>(
    substrate: &SubstrateNetwork,
    apps: &AppSet,
    config: &TraceConfig,
    rng: R,
) -> TraceStream<R> {
    let mut edge_nodes = substrate.edge_nodes();
    assert!(!edge_nodes.is_empty(), "substrate has no edge nodes");
    assert!(!apps.is_empty(), "application set is empty");
    let mut pop_rng = crate::rng::SeededRng::new(config.popularity_seed);
    edge_nodes.shuffle(&mut pop_rng);
    let zipf = Zipf::new(edge_nodes.len(), config.zipf_alpha);
    let total_rate = config.mean_rate_per_node * edge_nodes.len() as f64;

    let processes: Vec<NodeProcess> = (0..edge_nodes.len())
        .map(|rank| {
            let rate = total_rate * zipf.weight(rank);
            match config.arrivals {
                ArrivalKind::Poisson => NodeProcess::Poisson(PoissonArrivals::new(rate)),
                ArrivalKind::Mmpp => NodeProcess::Mmpp(Mmpp::with_mean(rate)),
            }
        })
        .collect();

    TraceStream {
        slots: config.slots,
        next_slot: 0,
        next_id: 0,
        nodes: edge_nodes,
        processes,
        demand: Normal::new(config.demand_mean, config.demand_std),
        duration: Exponential::new(config.duration_mean),
        app_count: apps.len(),
        rng,
    }
}

/// A lazy ingress-shifting adapter over a slot-event stream: every
/// arrival's ingress is remapped to a uniformly random edge node, drawn
/// in request order from a *dedicated* shift RNG (the Fig. 14 "spatial
/// distribution change": the *plan* is built from shifted history while
/// the online demand keeps the original locations), so the planning
/// path stays `O(edge nodes)` instead of collecting the whole history.
pub struct ShiftedStream<I, R: Rng> {
    inner: I,
    edge_nodes: Vec<NodeId>,
    rng: R,
}

impl<I: Iterator<Item = SlotEvents>, R: Rng> Iterator for ShiftedStream<I, R> {
    type Item = SlotEvents;

    fn next(&mut self) -> Option<SlotEvents> {
        let mut event = self.inner.next()?;
        for r in &mut event.arrivals {
            r.ingress = self.edge_nodes[self.rng.gen_range(0..self.edge_nodes.len())];
        }
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<I: ExactSizeIterator<Item = SlotEvents>, R: Rng> ExactSizeIterator for ShiftedStream<I, R> {}

/// Wraps a slot-event stream so every arrival's ingress is remapped to
/// a random edge node of `substrate` (see [`ShiftedStream`]).
///
/// # Panics
///
/// Panics if the substrate has no edge nodes.
pub fn shift_stream<I, R>(inner: I, substrate: &SubstrateNetwork, rng: R) -> ShiftedStream<I, R>
where
    I: Iterator<Item = SlotEvents>,
    R: Rng,
{
    let edge_nodes = substrate.edge_nodes();
    assert!(!edge_nodes.is_empty(), "substrate has no edge nodes");
    ShiftedStream {
        inner,
        edge_nodes,
        rng,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appgen::{paper_mix, AppGenConfig};
    use crate::rng::SeededRng;
    use vne_topology::zoo::citta_studi;

    fn small_config() -> TraceConfig {
        TraceConfig {
            slots: 200,
            ..TraceConfig::default()
        }
    }

    fn requests<R: Rng>(
        s: &SubstrateNetwork,
        apps: &AppSet,
        config: &TraceConfig,
        rng: R,
    ) -> Vec<Request> {
        stream(s, apps, config, rng)
            .flat_map(|ev| ev.arrivals)
            .collect()
    }

    #[test]
    fn trace_respects_structure() {
        let s = citta_studi().unwrap();
        let mut rng = SeededRng::new(1);
        let apps = paper_mix(&AppGenConfig::default(), &mut rng);
        let trace = requests(&s, &apps, &small_config(), &mut rng);
        assert!(!trace.is_empty());
        let edge: std::collections::HashSet<_> = s.edge_nodes().into_iter().collect();
        for r in &trace {
            assert!(edge.contains(&r.ingress), "non-edge ingress");
            assert!(r.arrival < 200);
            assert!(r.duration >= 1);
            assert!(r.demand > 0.0);
            assert!(r.app.index() < apps.len());
        }
        // Sorted by arrival with sequential ids.
        assert!(trace.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(trace.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn mean_rate_is_respected() {
        let s = citta_studi().unwrap();
        let mut rng = SeededRng::new(2);
        let apps = paper_mix(&AppGenConfig::default(), &mut rng);
        let config = TraceConfig {
            slots: 500,
            arrivals: ArrivalKind::Poisson,
            ..TraceConfig::default()
        };
        let trace = requests(&s, &apps, &config, &mut rng);
        let expected = 10.0 * s.edge_nodes().len() as f64 * 500.0;
        let actual = trace.len() as f64;
        assert!(
            (actual - expected).abs() / expected < 0.05,
            "expected ~{expected}, got {actual}"
        );
    }

    #[test]
    fn zipf_popularity_concentrates_demand() {
        let s = citta_studi().unwrap();
        let mut rng = SeededRng::new(3);
        let apps = paper_mix(&AppGenConfig::default(), &mut rng);
        let trace = requests(&s, &apps, &small_config(), &mut rng);
        let mut counts = std::collections::BTreeMap::new();
        for r in &trace {
            *counts.entry(r.ingress).or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        let min = counts.values().copied().min().unwrap_or(0);
        assert!(max > 3 * min.max(1), "max {max} min {min}");
    }

    #[test]
    fn utilization_calibration_matches_paper() {
        let s = citta_studi().unwrap();
        let mut rng = SeededRng::new(4);
        // Apps with E[Σβ] forced to 200 (4 VNFs × 50) by construction.
        let mut apps = vne_model::app::AppSet::new();
        apps.push(
            "c",
            vne_model::app::AppShape::Chain,
            vne_model::app::shapes::uniform_chain(4, 50.0, 50.0).unwrap(),
        )
        .unwrap();
        let d = TraceConfig::demand_mean_for_utilization(1.0, &s, &apps, 10.0, 10.0);
        assert!((d - 10.0).abs() < 1e-9, "demand mean {d}");
        let d60 = TraceConfig::demand_mean_for_utilization(0.6, &s, &apps, 10.0, 10.0);
        assert!((d60 - 6.0).abs() < 1e-9);
        let cfg = TraceConfig::default().at_utilization(1.4, &s, &apps);
        assert!((cfg.demand_mean - 14.0).abs() < 1e-9);
        assert!((cfg.demand_std - 2.8).abs() < 1e-9);
        let _ = requests(&s, &apps, &small_config(), &mut rng);
    }

    #[test]
    fn shift_stream_keeps_everything_else() {
        let s = citta_studi().unwrap();
        let apps = paper_mix(&AppGenConfig::default(), &mut SeededRng::new(5));
        let config = small_config();
        let plain: Vec<_> = stream(&s, &apps, &config, SeededRng::new(9)).collect();
        let shifted = || -> Vec<_> {
            shift_stream(
                stream(&s, &apps, &config, SeededRng::new(9)),
                &s,
                SeededRng::new(77),
            )
            .collect()
        };
        let events = shifted();
        // Slot structure is preserved; only the ingress changes, and it
        // lands on an edge node.
        assert_eq!(events.len(), config.slots as usize);
        let edge: std::collections::HashSet<_> = s.edge_nodes().into_iter().collect();
        let (mut total, mut moved) = (0, 0);
        for (before, after) in plain.iter().zip(&events) {
            assert_eq!(before.slot, after.slot);
            assert_eq!(before.arrivals.len(), after.arrivals.len());
            for (a, b) in before.arrivals.iter().zip(&after.arrivals) {
                assert_eq!(
                    Request {
                        ingress: a.ingress,
                        ..b.clone()
                    },
                    *a
                );
                assert!(edge.contains(&b.ingress));
                total += 1;
                if a.ingress != b.ingress {
                    moved += 1;
                }
            }
        }
        assert!(moved > total / 2);
        // Same shift seed ⇒ same output.
        assert_eq!(events, shifted());
    }

    #[test]
    fn stream_is_slot_complete() {
        let s = citta_studi().unwrap();
        let apps = paper_mix(&AppGenConfig::default(), &mut SeededRng::new(8));
        let config = small_config();
        let events: Vec<_> = stream(&s, &apps, &config, SeededRng::new(9)).collect();
        // One SlotEvents per slot, in order, including quiet slots.
        assert_eq!(events.len(), config.slots as usize);
        for (t, ev) in events.iter().enumerate() {
            assert_eq!(ev.slot, t as Slot);
            assert!(ev.arrivals.iter().all(|r| r.arrival == ev.slot));
        }
    }

    #[test]
    fn skip_to_yields_the_tail_of_the_full_stream() {
        let s = citta_studi().unwrap();
        let apps = paper_mix(&AppGenConfig::default(), &mut SeededRng::new(8));
        let config = small_config();
        let full: Vec<_> = stream(&s, &apps, &config, SeededRng::new(3)).collect();
        let mut skipped = stream(&s, &apps, &config, SeededRng::new(3));
        skipped.skip_to(120);
        let tail: Vec<_> = skipped.collect();
        assert_eq!(tail.len(), 80);
        assert_eq!(tail.as_slice(), &full[120..]);
        // Skipping past the horizon leaves an empty stream.
        let mut over = stream(&s, &apps, &config, SeededRng::new(3));
        over.skip_to(10_000);
        assert_eq!(over.next(), None);
    }

    #[test]
    fn stream_reports_remaining_length() {
        let s = citta_studi().unwrap();
        let apps = paper_mix(&AppGenConfig::default(), &mut SeededRng::new(8));
        let mut st = stream(&s, &apps, &small_config(), SeededRng::new(1));
        assert_eq!(st.len(), 200);
        st.next();
        assert_eq!(st.len(), 199);
    }
}
