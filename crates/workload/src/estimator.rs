//! Per-class demand aggregation (§III-A, Eqs. 5–6) as a streaming fold.
//!
//! The plan pipeline needs, for every class `r̃ = (application, ingress)`,
//! the per-slot concurrent demand `d(r̃, t) = Σ_{r ∈ r̃ ∩ R(t)} d(r)`
//! over the history window, from which the expected demand `d(r̃)` is the
//! bootstrap-estimated `P̂_α` (Eq. 6; the paper uses α = 80 to avoid
//! over-provisioning). [`ExactEstimator`] consumes the history as a
//! *stream*, one [`SlotEvents`] at a time, and is finalized into the
//! per-class demands, so the planner never needs the trace in memory.
//! Memory is `O(classes × slots)`: the dense series is what the bootstrap
//! resamples. `vne_olive::aggregate::AggregateDemand::from_stream` turns
//! the fold into a plan input, and [`ExactEstimator::conformance`] checks
//! an online window against the history's bootstrap.
//!
//! # The bootstrap on every core, with the sequential bits
//!
//! The bootstrap behind [`ExactEstimator::finalize`] and
//! [`ExactEstimator::conformance`] is defined as one loop: classes in
//! `ClassId` order, each [`bootstrap_percentile`] drawing from the
//! caller's one [`SeededRng`]. Every class series has `slots` elements
//! and every resampled element takes two words, so class `c` starts
//! exactly `c · 2 · slots · replicates` words into the stream. The
//! classes therefore run on the [`cell_map`](vne_model::pool::cell_map)
//! pool, each from its own copy of the generator jumped to that offset
//! (one jump operator per call, stepped class by class; see
//! [`crate::rng`]). Each class draws the words the loop would have handed
//! it, the per-class floats are computed by the same code, and the
//! caller's generator is left one stride past the last class, where the
//! loop leaves it. The bits do not depend on the worker count.

use std::collections::BTreeMap;

use vne_model::ids::ClassId;
use vne_model::pool::{self, cell_map_on};
use vne_model::request::{Slot, SlotEvents};
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};

use crate::rng::{Jump, SeededRng};
use crate::stats::{bootstrap_percentile, BootstrapEstimate, Ecdf};

/// Parameters of the aggregation step (Eq. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationConfig {
    /// The percentile α of Eq. 6 (the paper uses 80).
    pub alpha: f64,
    /// Bootstrap replicates for `P̂_α` (the paper’s estimator \[25\]).
    pub bootstrap_replicates: usize,
}

impl Default for AggregationConfig {
    fn default() -> Self {
        Self {
            alpha: 80.0,
            bootstrap_replicates: 100,
        }
    }
}

/// The paper's aggregation as a streaming fold: the dense per-class,
/// per-slot concurrent demand over a fixed window, and the
/// bootstrap-estimated `P̂_α` of each class — the input of PLAN-VNE.
///
/// Feed slots in stream order via [`ExactEstimator::observe_slot`]
/// (each slot's arrivals are added to every slot they are active in,
/// clipped to the window, so quiet slots are zeros), then call
/// [`ExactEstimator::finalize`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExactEstimator {
    slots: Slot,
    series: BTreeMap<ClassId, Vec<f64>>,
    config: AggregationConfig,
}

impl ExactEstimator {
    /// Creates an exact estimator over a `slots`-slot history window.
    pub fn new(slots: Slot, config: AggregationConfig) -> Self {
        Self {
            slots,
            series: BTreeMap::new(),
            config,
        }
    }

    /// Folds one slot's arrivals into the per-class series: each
    /// request's demand is added to every slot it is active in, clipped
    /// to the window. The event's own slot number is not read.
    pub fn observe_slot(&mut self, events: &SlotEvents) {
        for r in &events.arrivals {
            let start = r.arrival.min(self.slots);
            let end = r.departure().min(self.slots);
            if start >= end {
                continue;
            }
            let entry = self
                .series
                .entry(r.class())
                .or_insert_with(|| vec![0.0; self.slots as usize]);
            for t in start..end {
                entry[t as usize] += r.demand;
            }
        }
    }

    /// Drains an event stream into the estimator (convenience fold).
    pub fn observe_all(&mut self, events: impl IntoIterator<Item = SlotEvents>) {
        for ev in events {
            self.observe_slot(&ev);
        }
    }

    /// Number of classes observed.
    pub fn class_count(&self) -> usize {
        self.series.len()
    }

    /// The demand series of one class (`None` if unobserved).
    pub fn series(&self, class: ClassId) -> Option<&[f64]> {
        self.series.get(&class).map(|v| v.as_slice())
    }

    /// Finalizes the fold into the per-class expected demands `d(r̃)`:
    /// the bootstrap `P̂_α` of each class's series, drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics as [`bootstrap_percentile`] does, with its message, if a
    /// class's bootstrap panics (a NaN in a series, zero replicates).
    pub fn finalize(&self, rng: &mut SeededRng) -> BTreeMap<ClassId, f64> {
        self.bootstrap_demands_on(pool::workers(), rng)
            .into_iter()
            .map(|(c, est)| (c, est.estimate))
            .collect()
    }

    /// The paper's demand-conformance check (§III-A) against an online
    /// window: for each class present in both, whether the online `P_α`
    /// falls within the 95% bootstrap CI of this history estimate, with
    /// this estimator's α and replicates. Returns the conforming
    /// fraction (1 when no class is in both).
    pub fn conformance(&self, online: &ExactEstimator, rng: &mut SeededRng) -> f64 {
        let alpha = self.config.alpha;
        let estimates = self.bootstrap_demands_on(pool::workers(), rng);
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

    /// Full bootstrap estimates (with confidence intervals) per class on
    /// at most `workers` threads: [`bootstrap_percentile`] of each class
    /// in `ClassId` order, all drawn from `rng` one after the other (see
    /// the module docs).
    pub(crate) fn bootstrap_demands_on(
        &self,
        workers: usize,
        rng: &mut SeededRng,
    ) -> BTreeMap<ClassId, BootstrapEstimate> {
        let AggregationConfig {
            alpha,
            bootstrap_replicates: replicates,
        } = self.config;
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
}

/// Checkpointing: the window length and the dense per-class series are
/// the whole state (BTreeMap encoding is canonical, floats round-trip
/// bit-exactly), so an interrupted history fold resumes mid-window; the
/// aggregation config is a construction input. The window length is
/// validated — a blob from a differently sized window must not silently
/// reshape the receiver.
impl Snapshot for ExactEstimator {
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
    use vne_model::request::{slot_events, Request};

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

    /// `requests` folded over a `slots`-slot window with `config`.
    fn folded(requests: &[Request], slots: Slot, config: AggregationConfig) -> ExactEstimator {
        let mut estimator = ExactEstimator::new(slots, config);
        estimator.observe_all(slot_events(requests, slots));
        estimator
    }

    fn fold_default(requests: &[Request], slots: Slot) -> ExactEstimator {
        folded(requests, slots, AggregationConfig::default())
    }

    #[test]
    fn series_accumulates_active_demand() {
        let requests = vec![
            req(0, 0, 3, 1, 0, 2.0), // active slots 0,1,2
            req(1, 1, 2, 1, 0, 5.0), // active slots 1,2
            req(2, 0, 1, 2, 0, 7.0), // other class
        ];
        let s = fold_default(&requests, 4);
        assert_eq!(s.class_count(), 2);
        let c = ClassId::new(AppId(0), NodeId(1));
        assert_eq!(s.series(c).unwrap(), &[2.0, 7.0, 7.0, 0.0]);
        let c2 = ClassId::new(AppId(0), NodeId(2));
        assert_eq!(s.series(c2).unwrap(), &[7.0, 0.0, 0.0, 0.0]);
        assert_eq!(s.series(ClassId::new(AppId(9), NodeId(9))), None);
    }

    #[test]
    fn clipping_beyond_window() {
        let mut s = ExactEstimator::new(4, AggregationConfig::default());
        s.observe_slot(&SlotEvents {
            slot: 2,
            arrivals: vec![req(0, 2, 100, 1, 0, 1.0), req(1, 10, 5, 1, 0, 9.0)],
            churn: Vec::new(),
        });
        let c = ClassId::new(AppId(0), NodeId(1));
        assert_eq!(s.series(c).unwrap(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn constant_demand_finalizes_to_itself() {
        // Constant demand 6 over all slots: every percentile is 6.
        let s = fold_default(&[req(0, 0, 100, 1, 0, 6.0)], 100);
        let d = s.finalize(&mut SeededRng::new(1));
        assert!((d[&ClassId::new(AppId(0), NodeId(1))] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_history_finalizes_empty() {
        let exact = fold_default(&[], 10);
        assert!(exact.finalize(&mut SeededRng::new(1)).is_empty());
    }

    #[test]
    fn an_empty_event_at_the_slot_horizon_changes_nothing() {
        let mut est = fold_default(&[req(0, 0, 30, 1, 0, 2.0), req(1, 5, 10, 2, 0, 4.5)], 20);
        let blob = est.snapshot();
        let before = est.finalize(&mut SeededRng::new(3));
        est.observe_slot(&SlotEvents::empty(Slot::MAX));
        est.observe_all([SlotEvents::empty(Slot::MAX)]);
        assert_eq!(est.snapshot(), blob);
        let after = est.finalize(&mut SeededRng::new(3));
        assert_eq!(after.len(), before.len());
        for (class, value) in &after {
            assert_eq!(value.to_bits(), before[class].to_bits(), "{class}");
        }
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
        let config = AggregationConfig {
            alpha: 80.0,
            bootstrap_replicates: 100,
        };
        let hist = folded(&requests, 100, config);
        let conf = hist.conformance(&hist.clone(), &mut rng);
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
        let hist = fold_default(&base, 100);
        let online = fold_default(&shifted, 100);
        let conf = hist.conformance(&online, &mut SeededRng::new(3));
        assert_eq!(conf, 0.0);
    }

    #[test]
    fn estimator_snapshots_resume_the_fold_exactly() {
        // Fold half the history, checkpoint, restore into a fresh
        // estimator, fold the rest into both: finalize must agree bit
        // for bit.
        let requests = vec![
            req(0, 0, 30, 1, 0, 2.0),
            req(1, 5, 10, 1, 0, 4.5),
            req(2, 12, 40, 2, 1, 1.25),
            req(3, 33, 5, 1, 0, 7.0),
        ];
        let events: Vec<SlotEvents> = slot_events(&requests, 60).collect();
        let make = || ExactEstimator::new(60, AggregationConfig::default());
        let mut original = make();
        for ev in &events[..30] {
            original.observe_slot(ev);
        }
        let blob = original.snapshot();
        let mut resumed = make();
        resumed.restore(&blob).unwrap();
        assert_eq!(
            resumed.snapshot(),
            blob,
            "snapshot→restore→snapshot must be blob-equal"
        );
        for ev in &events[30..] {
            original.observe_slot(ev);
            resumed.observe_slot(ev);
        }
        let a = original.finalize(&mut SeededRng::new(9));
        let b = resumed.finalize(&mut SeededRng::new(9));
        assert_eq!(a.len(), b.len());
        for (class, value) in &a {
            assert_eq!(value.to_bits(), b[class].to_bits(), "{class}");
        }
    }

    #[test]
    fn estimator_snapshot_rejects_foreign_blobs() {
        // A blob from a different history window is rejected, not
        // silently reshaped into it.
        let exact = ExactEstimator::new(10, AggregationConfig::default());
        let exact_blob = exact.snapshot();
        let mut other_window = ExactEstimator::new(20, AggregationConfig::default());
        assert!(matches!(
            other_window.restore(&exact_blob),
            Err(StateError::Mismatch { .. })
        ));
    }

    #[test]
    fn estimator_snapshot_rejects_a_series_shorter_than_its_window() {
        // The header names the receiver's window, but one class series
        // is a slot short.
        let mut series = BTreeMap::new();
        series.insert(ClassId::new(AppId(0), NodeId(1)), vec![1.0; 10]);
        series.insert(ClassId::new(AppId(0), NodeId(2)), vec![1.0; 9]);
        let mut w = StateWriter::new();
        w.write_u32(10);
        w.write(&series);
        let blob = w.finish();
        let mut est = fold_default(&[req(0, 0, 4, 3, 0, 2.0)], 10);
        let before = est.snapshot();
        assert!(matches!(est.restore(&blob), Err(StateError::Corrupt(_))));
        assert_eq!(est.snapshot(), before, "a refused blob changes nothing");
    }

    /// The per-class loop the bootstrap is defined as.
    fn sequential_bootstrap(
        series: &ExactEstimator,
        rng: &mut SeededRng,
    ) -> Vec<(ClassId, BootstrapEstimate)> {
        let AggregationConfig {
            alpha,
            bootstrap_replicates,
        } = series.config;
        series
            .series
            .iter()
            .map(|(&c, s)| (c, bootstrap_percentile(s, alpha, bootstrap_replicates, rng)))
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
            let config = AggregationConfig { alpha, bootstrap_replicates: replicates };
            let series = folded(&requests, slots, config);
            let mut reference = SeededRng::new(seed);
            let want = sequential_bootstrap(&series, &mut reference);
            for workers in 1..=5 {
                let mut rng = SeededRng::new(seed);
                let got = series.bootstrap_demands_on(workers, &mut rng);
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
        let config = AggregationConfig {
            alpha: 80.0,
            bootstrap_replicates: 10,
        };
        let series = folded(&requests, 10, config);
        for workers in 1..=5 {
            let result = std::panic::catch_unwind(|| {
                series.bootstrap_demands_on(workers, &mut SeededRng::new(1))
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
