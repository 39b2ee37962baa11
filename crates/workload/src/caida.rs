//! CAIDA-like heavy-tailed trace synthesis (paper Fig. 15).
//!
//! The paper derives its second trace from the 2019 "Equinix-NewYork"
//! CAIDA monitor: flows are aggregated per IP source and the grouped
//! requests are randomly assigned to datacenters. The raw dataset is
//! access-restricted, so this module synthesizes a trace with the
//! operative properties of that derivation:
//!
//! * a fixed population of *sources* with lognormal (heavy-tailed)
//!   per-source demand scales — a few heavy hitters, many mice;
//! * sources mapped to edge datacenters with Zipf popularity (the random
//!   assignment of grouped sources);
//! * Poisson arrivals at a fixed aggregate rate (the paper reports an
//!   average of 495 requests per second for this trace);
//! * exponential durations as in the synthetic trace.

use rand::Rng;
use vne_model::app::AppSet;
use vne_model::ids::{AppId, NodeId, RequestId};
use vne_model::request::{Request, Slot, SlotEvents};
use vne_model::substrate::SubstrateNetwork;

use crate::dist::{Exponential, LogNormal, Poisson, Zipf};

/// Parameters of the CAIDA-like trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CaidaConfig {
    /// Number of time slots.
    pub slots: Slot,
    /// Aggregate arrivals per slot (the paper's trace averages 495/s).
    pub total_rate: f64,
    /// Number of aggregated IP sources.
    pub sources: usize,
    /// Mean request demand (rescaled for target utilization like the
    /// synthetic trace).
    pub demand_mean: f64,
    /// σ of the underlying normal of the per-source scale (heavier tail
    /// with larger σ).
    pub tail_sigma: f64,
    /// Mean request duration in slots.
    pub duration_mean: f64,
    /// Zipf exponent of source-to-datacenter popularity.
    pub zipf_alpha: f64,
    /// Seed of the source population (homes and scales). Separate from
    /// the arrival RNG so the history and online phases of an experiment
    /// see the same heavy hitters.
    pub population_seed: u64,
}

impl Default for CaidaConfig {
    fn default() -> Self {
        Self {
            slots: 6000,
            total_rate: 495.0,
            sources: 2000,
            demand_mean: 10.0,
            tail_sigma: 1.0,
            duration_mean: 10.0,
            zipf_alpha: 1.0,
            population_seed: 0xCA1DA,
        }
    }
}

/// A lazy, slot-by-slot CAIDA-like trace: an `Iterator<Item = SlotEvents>`.
///
/// Memory is `O(sources)` — the source population is fixed up front,
/// arrivals are sampled per slot on demand. Construct with [`stream`].
pub struct CaidaStream<R: Rng> {
    slots: Slot,
    next_slot: Slot,
    next_id: u64,
    sources: Vec<(NodeId, f64)>,
    source_zipf: Zipf,
    arrivals: Poisson,
    duration: Exponential,
    jitter: LogNormal,
    demand_mean: f64,
    app_count: usize,
    rng: R,
}

impl<R: Rng> Iterator for CaidaStream<R> {
    type Item = SlotEvents;

    fn next(&mut self) -> Option<SlotEvents> {
        if self.next_slot >= self.slots {
            return None;
        }
        let t = self.next_slot;
        self.next_slot += 1;
        let k = self.arrivals.sample(&mut self.rng);
        let mut arrivals = Vec::with_capacity(k as usize);
        for _ in 0..k {
            let (node, scale) = self.sources[self.source_zipf.sample(&mut self.rng)];
            let d = (self.demand_mean * scale * self.jitter.sample(&mut self.rng)).max(0.5);
            let dur = self.duration.sample(&mut self.rng).round().max(1.0) as Slot;
            let app = AppId::from_index(self.rng.gen_range(0..self.app_count));
            arrivals.push(Request {
                id: RequestId(self.next_id),
                arrival: t,
                duration: dur,
                ingress: node,
                app,
                demand: d,
            });
            self.next_id += 1;
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

impl<R: Rng> ExactSizeIterator for CaidaStream<R> {}

impl<R: Rng> CaidaStream<R> {
    /// Fast-forwards the stream so the next yielded event is `slot`
    /// (clamped to the horizon) — the resume path of checkpointed runs.
    /// Replays the RNG draws of the skipped slots (see
    /// [`crate::tracegen::TraceStream::skip_to`]).
    pub fn skip_to(&mut self, slot: Slot) {
        while self.next_slot < slot.min(self.slots) {
            let _ = self.next();
        }
    }
}

/// Creates a lazy CAIDA-like trace stream.
///
/// Each arrival picks a source with Zipf weight (heavy-hitter sources
/// emit more), inherits the source's home edge datacenter and scales the
/// source's lognormal demand factor, so per-datacenter demand inherits
/// the heavy tail of the source population.
///
/// # Panics
///
/// Panics if the substrate has no edge nodes, `apps` is empty, or
/// `config.sources` is zero.
pub fn stream<R: Rng>(
    substrate: &SubstrateNetwork,
    apps: &AppSet,
    config: &CaidaConfig,
    rng: R,
) -> CaidaStream<R> {
    let edge_nodes = substrate.edge_nodes();
    assert!(!edge_nodes.is_empty(), "substrate has no edge nodes");
    assert!(!apps.is_empty(), "application set is empty");
    assert!(config.sources > 0, "need at least one source");

    // Source population: home DC + demand scale (stable per
    // `population_seed`, independent of the arrival RNG).
    let mut pop_rng = crate::rng::SeededRng::new(config.population_seed);
    let scale_dist = LogNormal::with_mean(1.0, config.tail_sigma);
    let node_zipf = Zipf::new(edge_nodes.len(), config.zipf_alpha);
    let sources: Vec<(NodeId, f64)> = (0..config.sources)
        .map(|_| {
            let node = edge_nodes[node_zipf.sample(&mut pop_rng)];
            (node, scale_dist.sample(&mut pop_rng))
        })
        .collect();

    CaidaStream {
        slots: config.slots,
        next_slot: 0,
        next_id: 0,
        sources,
        // Heavy-hitter source selection (Zipf over sources).
        source_zipf: Zipf::new(config.sources, config.zipf_alpha),
        arrivals: Poisson::new(config.total_rate),
        duration: Exponential::new(config.duration_mean),
        jitter: LogNormal::with_mean(1.0, 0.3),
        demand_mean: config.demand_mean,
        app_count: apps.len(),
        rng,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appgen::{paper_mix, AppGenConfig};
    use crate::rng::SeededRng;
    use vne_topology::zoo::citta_studi;

    fn small() -> CaidaConfig {
        CaidaConfig {
            slots: 300,
            total_rate: 50.0,
            sources: 200,
            ..CaidaConfig::default()
        }
    }

    fn requests<R: Rng>(
        s: &SubstrateNetwork,
        apps: &AppSet,
        config: &CaidaConfig,
        rng: R,
    ) -> Vec<Request> {
        stream(s, apps, config, rng)
            .flat_map(|ev| ev.arrivals)
            .collect()
    }

    #[test]
    fn trace_has_expected_rate() {
        let s = citta_studi().unwrap();
        let mut rng = SeededRng::new(1);
        let apps = paper_mix(&AppGenConfig::default(), &mut rng);
        let trace = requests(&s, &apps, &small(), &mut rng);
        let mean = trace.len() as f64 / 300.0;
        assert!((mean - 50.0).abs() < 3.0, "rate {mean}");
    }

    #[test]
    fn demand_distribution_is_heavy_tailed() {
        let s = citta_studi().unwrap();
        let mut rng = SeededRng::new(2);
        let apps = paper_mix(&AppGenConfig::default(), &mut rng);
        let trace = requests(&s, &apps, &small(), &mut rng);
        let mut demands: Vec<f64> = trace.iter().map(|r| r.demand).collect();
        demands.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = demands[demands.len() / 2];
        let p99 = demands[(demands.len() as f64 * 0.99) as usize];
        // Heavy tail: 99th percentile far above the median (a normal with
        // the paper's CV of 0.2 would have p99/median ≈ 1.5).
        assert!(p99 / median > 4.0, "p99/median = {}", p99 / median);
    }

    #[test]
    fn requests_originate_at_edges_only() {
        let s = citta_studi().unwrap();
        let mut rng = SeededRng::new(3);
        let apps = paper_mix(&AppGenConfig::default(), &mut rng);
        let trace = requests(&s, &apps, &small(), &mut rng);
        let edge: std::collections::HashSet<_> = s.edge_nodes().into_iter().collect();
        assert!(trace.iter().all(|r| edge.contains(&r.ingress)));
    }

    #[test]
    fn generation_is_deterministic() {
        let s = citta_studi().unwrap();
        let apps = paper_mix(&AppGenConfig::default(), &mut SeededRng::new(4));
        let a = requests(&s, &apps, &small(), &mut SeededRng::new(5));
        let b = requests(&s, &apps, &small(), &mut SeededRng::new(5));
        assert_eq!(a, b);
    }

    #[test]
    fn skip_to_yields_the_tail_of_the_full_stream() {
        let s = citta_studi().unwrap();
        let apps = paper_mix(&AppGenConfig::default(), &mut SeededRng::new(4));
        let config = small();
        let full: Vec<_> = stream(&s, &apps, &config, SeededRng::new(7)).collect();
        let mut skipped = stream(&s, &apps, &config, SeededRng::new(7));
        skipped.skip_to(100);
        let tail: Vec<_> = skipped.collect();
        assert_eq!(tail.len(), 200);
        assert_eq!(tail.as_slice(), &full[100..]);
    }
}
