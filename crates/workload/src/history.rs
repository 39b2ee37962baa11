//! Request history recording and per-class demand series (§III-A).
//!
//! The plan pipeline needs, for every class `r̃ = (application, ingress)`,
//! the per-slot concurrent demand `d(r̃, t) = Σ_{r ∈ r̃ ∩ R(t)} d(r)`
//! over the history window, from which the expected demand `d(r̃)` is the
//! bootstrap-estimated `P̂_α` (Eq. 6; the paper uses α = 80 to avoid
//! over-provisioning).
//!
//! # The bootstrap on every core, with the sequential bits
//!
//! [`ClassDemandSeries::bootstrap_demands`] is defined as one loop:
//! classes in `ClassId` order, each [`bootstrap_percentile`] drawing
//! from the caller's one [`SeededRng`]. Every class series has `slots`
//! elements and every resampled element takes two words, so class `c`
//! starts exactly `c · 2 · slots · replicates` words into the stream.
//! The classes therefore run on the
//! [`cell_map`](vne_model::pool::cell_map) pool, each from its own copy
//! of the generator jumped to that offset (one jump operator per call,
//! stepped class by class; see [`crate::rng`]). Each class draws the
//! words the loop would have handed it, the per-class floats are
//! computed by the same code, and the caller's generator is left one
//! stride past the last class, where the loop leaves it. The bits do
//! not depend on the worker count.

use std::collections::BTreeMap;

use vne_model::ids::ClassId;
use vne_model::pool::{self, cell_map_on};
use vne_model::request::{Request, Slot, SlotEvents};
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};

use crate::rng::{Jump, SeededRng};
use crate::stats::{bootstrap_percentile, BootstrapEstimate, Ecdf};

/// Per-class, per-slot concurrent demand series over a history window.
///
/// The series is an *incremental fold*: start from
/// [`ClassDemandSeries::empty`] and feed requests one at a time
/// ([`ClassDemandSeries::observe_request`]) or one slot of arrivals at
/// a time ([`ClassDemandSeries::observe_slot`]) — the batch
/// [`ClassDemandSeries::from_requests`] is the same fold over a
/// collected trace, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDemandSeries {
    slots: Slot,
    series: BTreeMap<ClassId, Vec<f64>>,
}

impl ClassDemandSeries {
    /// An empty series over a `slots`-slot window, ready to fold
    /// requests into.
    pub fn empty(slots: Slot) -> Self {
        Self {
            slots,
            series: BTreeMap::new(),
        }
    }

    /// Folds one request into the series: its demand is added to every
    /// slot it is active in, clipped to the window.
    pub fn observe_request(&mut self, r: &Request) {
        let start = r.arrival.min(self.slots);
        let end = r.departure().min(self.slots);
        if start >= end {
            return;
        }
        let entry = self
            .series
            .entry(r.class())
            .or_insert_with(|| vec![0.0; self.slots as usize]);
        for t in start..end {
            entry[t as usize] += r.demand;
        }
    }

    /// Folds one slot's arrivals into the series (the
    /// [`crate::estimator::ExactEstimator`] feed).
    pub fn observe_slot(&mut self, events: &SlotEvents) {
        for r in &events.arrivals {
            self.observe_request(r);
        }
    }

    /// Accumulates the active demand of `requests` over slots
    /// `0..slots` (requests active outside the window are clipped).
    pub fn from_requests(requests: &[Request], slots: Slot) -> Self {
        let mut folded = Self::empty(slots);
        for r in requests {
            folded.observe_request(r);
        }
        folded
    }

    /// Number of slots in the window.
    pub fn slots(&self) -> Slot {
        self.slots
    }

    /// Number of classes observed.
    pub fn class_count(&self) -> usize {
        self.series.len()
    }

    /// The classes observed, in deterministic order.
    pub fn classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.series.keys().copied()
    }

    /// The demand series of one class (`None` if unobserved).
    pub fn series(&self, class: ClassId) -> Option<&[f64]> {
        self.series.get(&class).map(|v| v.as_slice())
    }

    /// The bootstrap-estimated `P̂_α` demand per class (Eq. 6).
    pub fn expected_demands(
        &self,
        alpha: f64,
        replicates: usize,
        rng: &mut SeededRng,
    ) -> BTreeMap<ClassId, f64> {
        self.bootstrap_demands(alpha, replicates, rng)
            .into_iter()
            .map(|(c, est)| (c, est.estimate))
            .collect()
    }

    /// Full bootstrap estimates (with confidence intervals) per class:
    /// [`bootstrap_percentile`] of each class in `ClassId` order, all
    /// drawn from `rng` one after the other. The classes run in parallel
    /// with those bits (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics as [`bootstrap_percentile`] does, with its message, if a
    /// class's bootstrap panics (a NaN in a series, `replicates == 0`).
    pub fn bootstrap_demands(
        &self,
        alpha: f64,
        replicates: usize,
        rng: &mut SeededRng,
    ) -> BTreeMap<ClassId, BootstrapEstimate> {
        self.bootstrap_demands_on(pool::workers(), alpha, replicates, rng)
    }

    /// [`ClassDemandSeries::bootstrap_demands`] on at most `workers`
    /// threads.
    pub(crate) fn bootstrap_demands_on(
        &self,
        workers: usize,
        alpha: f64,
        replicates: usize,
        rng: &mut SeededRng,
    ) -> BTreeMap<ClassId, BootstrapEstimate> {
        // Two words per resampled element, `slots` elements per series.
        let stride = u64::try_from(replicates)
            .ok()
            .and_then(|r| r.checked_mul(2 * u64::from(self.slots)))
            .expect("a class's bootstrap draws fewer than 2⁶⁴ words");
        let jump = Jump::new(stride);
        let cells: Vec<(ClassId, &[f64], SeededRng)> = self
            .series
            .iter()
            .map(|(&c, s)| {
                let start = rng.clone();
                jump.apply(rng);
                (c, s.as_slice(), start)
            })
            .collect();
        cell_map_on(workers, &cells, |(c, s, start)| {
            let estimate = bootstrap_percentile(s, alpha, replicates, &mut start.clone());
            (*c, estimate)
        })
        .into_iter()
        .collect()
    }

    /// The paper's conformance check: for each class present in both
    /// windows, whether the online `P_α` falls within the 95% bootstrap
    /// CI of the history estimate. Returns the conforming fraction.
    pub fn conformance(
        &self,
        online: &ClassDemandSeries,
        alpha: f64,
        replicates: usize,
        rng: &mut SeededRng,
    ) -> f64 {
        let estimates = self.bootstrap_demands(alpha, replicates, rng);
        let mut checked = 0usize;
        let mut conforming = 0usize;
        for (&class, est) in &estimates {
            if let Some(series) = online.series(class) {
                let observed = Ecdf::new(series.to_vec()).percentile(alpha);
                checked += 1;
                if est.contains(observed) {
                    conforming += 1;
                }
            }
        }
        if checked == 0 {
            return 1.0;
        }
        conforming as f64 / checked as f64
    }
}

/// Checkpointing: the dense per-class series is the whole state
/// (BTreeMap encoding is canonical, floats round-trip bit-exactly), so
/// an interrupted history fold resumes mid-window. The window length is
/// a construction input and is validated — a blob from a differently
/// sized window must not silently reshape the receiver.
impl Snapshot for ClassDemandSeries {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write_u32(self.slots);
        w.write(&self.series);
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let slots = r.read_u32()?;
        if slots != self.slots {
            return Err(StateError::Mismatch {
                expected: format!("{}-slot demand series", self.slots),
                found: format!("blob for a {slots}-slot window"),
            });
        }
        let series: BTreeMap<ClassId, Vec<f64>> = r.read()?;
        r.finish()?;
        if series.values().any(|v| v.len() != slots as usize) {
            return Err(StateError::Corrupt(format!(
                "class series length differs from the {slots}-slot window"
            )));
        }
        self.series = series;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vne_model::ids::{AppId, NodeId, RequestId};

    fn req(id: u64, arrival: Slot, duration: Slot, node: u32, app: u32, demand: f64) -> Request {
        Request {
            id: RequestId(id),
            arrival,
            duration,
            ingress: NodeId(node),
            app: AppId(app),
            demand,
        }
    }

    #[test]
    fn series_accumulates_active_demand() {
        let requests = vec![
            req(0, 0, 3, 1, 0, 2.0), // active slots 0,1,2
            req(1, 1, 2, 1, 0, 5.0), // active slots 1,2
            req(2, 0, 1, 2, 0, 7.0), // other class
        ];
        let s = ClassDemandSeries::from_requests(&requests, 4);
        assert_eq!(s.class_count(), 2);
        let c = ClassId::new(AppId(0), NodeId(1));
        assert_eq!(s.series(c).unwrap(), &[2.0, 7.0, 7.0, 0.0]);
        let c2 = ClassId::new(AppId(0), NodeId(2));
        assert_eq!(s.series(c2).unwrap(), &[7.0, 0.0, 0.0, 0.0]);
        assert_eq!(s.series(ClassId::new(AppId(9), NodeId(9))), None);
    }

    #[test]
    fn incremental_fold_matches_batch() {
        let requests = vec![
            req(0, 0, 3, 1, 0, 2.0),
            req(1, 1, 2, 1, 0, 5.0),
            req(2, 0, 1, 2, 0, 7.0),
        ];
        let batch = ClassDemandSeries::from_requests(&requests, 4);
        let mut fold = ClassDemandSeries::empty(4);
        for t in 0..4 {
            fold.observe_slot(&vne_model::request::SlotEvents {
                slot: t,
                arrivals: requests
                    .iter()
                    .filter(|r| r.arrival == t)
                    .cloned()
                    .collect(),
                churn: Vec::new(),
            });
        }
        assert_eq!(fold, batch);
    }

    #[test]
    fn clipping_beyond_window() {
        let requests = vec![req(0, 2, 100, 1, 0, 1.0), req(1, 10, 5, 1, 0, 9.0)];
        let s = ClassDemandSeries::from_requests(&requests, 4);
        let c = ClassId::new(AppId(0), NodeId(1));
        assert_eq!(s.series(c).unwrap(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn expected_demands_are_reasonable() {
        // Constant demand 6 over all slots: every percentile is 6.
        let requests = vec![req(0, 0, 100, 1, 0, 6.0)];
        let s = ClassDemandSeries::from_requests(&requests, 100);
        let mut rng = SeededRng::new(1);
        let d = s.expected_demands(80.0, 50, &mut rng);
        assert!((d[&ClassId::new(AppId(0), NodeId(1))] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn conformance_of_identical_series_is_high() {
        let mut rng = SeededRng::new(2);
        let mut requests = Vec::new();
        for i in 0..400 {
            use rand::Rng as _;
            let d: f64 = 1.0 + rng.gen::<f64>() * 4.0;
            requests.push(req(i, (i % 100) as Slot, 5, 1, 0, d));
        }
        let hist = ClassDemandSeries::from_requests(&requests, 100);
        let conf = hist.conformance(&hist.clone(), 80.0, 100, &mut rng);
        assert!(conf > 0.99, "conformance {conf}");
    }

    #[test]
    fn conformance_detects_demand_shift() {
        let base: Vec<Request> = (0..200)
            .map(|i| req(i, (i % 100) as Slot, 5, 1, 0, 2.0))
            .collect();
        let shifted: Vec<Request> = (0..200)
            .map(|i| req(i, (i % 100) as Slot, 5, 1, 0, 20.0))
            .collect();
        let hist = ClassDemandSeries::from_requests(&base, 100);
        let online = ClassDemandSeries::from_requests(&shifted, 100);
        let mut rng = SeededRng::new(3);
        let conf = hist.conformance(&online, 80.0, 100, &mut rng);
        assert_eq!(conf, 0.0);
    }

    /// The per-class loop `bootstrap_demands` is defined as.
    fn sequential_bootstrap(
        series: &ClassDemandSeries,
        alpha: f64,
        replicates: usize,
        rng: &mut SeededRng,
    ) -> Vec<(ClassId, BootstrapEstimate)> {
        series
            .classes()
            .map(|c| {
                let estimate =
                    bootstrap_percentile(series.series(c).unwrap(), alpha, replicates, rng);
                (c, estimate)
            })
            .collect()
    }

    fn estimate_bits(e: &BootstrapEstimate) -> [u64; 3] {
        [
            e.estimate.to_bits(),
            e.ci_low.to_bits(),
            e.ci_high.to_bits(),
        ]
    }

    proptest::proptest! {
        /// Every worker count returns the sequential loop's floats bit
        /// for bit and leaves the generator at the loop's next word.
        #[test]
        fn bootstrap_demands_on_any_worker_count_is_the_sequential_loop(
            raw in proptest::collection::vec(
                (0u32..60, 1u32..20, 0u32..4, 0u32..4, 0.0f64..10.0),
                0..80,
            ),
            slots in 1u32..60,
            replicates in 1usize..=20,
            alpha in 0.0f64..=100.0,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let requests: Vec<Request> = raw
                .iter()
                .enumerate()
                .map(|(i, &(arrival, duration, app, node, demand))| {
                    req(i as u64, arrival, duration, node, app, demand)
                })
                .collect();
            let series = ClassDemandSeries::from_requests(&requests, slots);
            let mut reference = SeededRng::new(seed);
            let want = sequential_bootstrap(&series, alpha, replicates, &mut reference);
            for workers in 1..=5 {
                let mut rng = SeededRng::new(seed);
                let got = series.bootstrap_demands_on(workers, alpha, replicates, &mut rng);
                proptest::prop_assert_eq!(got.len(), want.len());
                for ((class, estimate), (want_class, want_estimate)) in got.iter().zip(&want) {
                    proptest::prop_assert_eq!(class, want_class);
                    proptest::prop_assert_eq!(estimate_bits(estimate), estimate_bits(want_estimate));
                }
                proptest::prop_assert_eq!(&rng, &reference, "{} workers", workers);
            }
        }
    }

    #[test]
    fn a_panicking_class_surfaces_its_own_message() {
        let requests: Vec<Request> = (0..12)
            .map(|i| {
                let demand = if i == 7 { f64::NAN } else { 1.0 + i as f64 };
                req(i, 0, 10, i as u32, 0, demand)
            })
            .collect();
        let series = ClassDemandSeries::from_requests(&requests, 10);
        for workers in 1..=5 {
            let result = std::panic::catch_unwind(|| {
                series.bootstrap_demands_on(workers, 80.0, 10, &mut SeededRng::new(1))
            });
            let payload = result.expect_err("a NaN sample must panic");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string payload>");
            assert_eq!(
                message, "bootstrap sample contains NaN",
                "{workers} workers"
            );
        }
    }
}
