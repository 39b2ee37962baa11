//! Streaming per-class demand estimation (§III-A as a fold).
//!
//! The offline planning phase aggregates the history `R_HIST` into one
//! expected demand `P̂_α` per class (Eqs. 5–6). A [`DemandEstimator`]
//! consumes that history as a *stream* — one [`SlotEvents`] at a time
//! via [`DemandEstimator::observe_slot`] — and is finalized into the
//! per-class demands, so the planner never needs the trace in memory:
//!
//! * [`ExactEstimator`] — the paper-faithful oracle: an incremental
//!   [`ClassDemandSeries`] fold plus the bootstrap `P̂_α`. Memory is
//!   `O(classes × slots)` (the dense series is what the bootstrap
//!   resamples), identical bit for bit to the batch path.
//! * [`SketchEstimator`] — a zero-inflated [`P2Quantile`] sketch per
//!   class: `O(classes + active requests)` memory independent of the
//!   horizon, no bootstrap replay, a percentile approximation suitable
//!   for long-horizon planning.
//!
//! Which of the two a scenario uses is an [`EstimatorKind`] switch. The
//! open API surface is the [`DemandEstimator`] trait itself: any
//! implementation folds a history stream into a plan input through
//! `vne_olive::aggregate::AggregateDemand::from_stream`.

use std::collections::BTreeMap;

use vne_model::ids::ClassId;
use vne_model::request::{Slot, SlotEvents};
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};

// Re-exported so downstream estimator impls need no direct `rand`
// dependency to name the `finalize` RNG parameter.
pub use rand::RngCore;

use crate::history::ClassDemandSeries;
use crate::sketch::P2Quantile;

/// Parameters of the aggregation step (Eq. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationConfig {
    /// The percentile α of Eq. 6 (the paper uses 80).
    pub alpha: f64,
    /// Bootstrap replicates for `P̂_α` (the paper’s estimator \[25\];
    /// used by the exact estimator, ignored by sketches).
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

/// A streaming fold of the request history into per-class expected
/// demands — the input of PLAN-VNE.
///
/// Feed slots in increasing order via [`DemandEstimator::observe_slot`]
/// (one event per slot, as the trace streams produce), then call
/// [`DemandEstimator::finalize`] once. The estimator defines what
/// "expected demand" means; the trait is object-safe so scenarios can
/// swap estimators at runtime.
pub trait DemandEstimator {
    /// Folds one slot of history into the estimator state. Slots must
    /// arrive in increasing order; skipped (quiet) slots count toward
    /// the window as zero-arrival slots.
    fn observe_slot(&mut self, events: &SlotEvents);

    /// Number of history slots covered so far (`last slot + 1`; equals
    /// the number of events folded on a dense stream).
    fn slots_observed(&self) -> Slot;

    /// Finalizes the fold into the per-class expected demands `d(r̃)`.
    /// `rng` feeds randomized estimators (the exact bootstrap); sketch
    /// estimators ignore it.
    fn finalize(&mut self, rng: &mut dyn RngCore) -> BTreeMap<ClassId, f64>;

    /// Drains an event stream into the estimator (convenience fold).
    fn observe_all(&mut self, events: impl IntoIterator<Item = SlotEvents>)
    where
        Self: Sized,
    {
        for ev in events {
            self.observe_slot(&ev);
        }
    }

    /// Serializes the estimator's fold state for checkpointing (`None`
    /// when unsupported — the default; [`ExactEstimator`] and
    /// [`SketchEstimator`] implement [`Snapshot`] and forward to it),
    /// so a long history fold can be interrupted and resumed.
    fn snapshot_state(&self) -> Option<StateBlob> {
        None
    }

    /// Restores state produced by [`DemandEstimator::snapshot_state`]
    /// into a freshly constructed estimator of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Unsupported`] by default.
    fn restore_state(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let _ = blob;
        Err(StateError::Unsupported("demand estimator".to_string()))
    }
}

/// The paper's exact aggregation as a streaming fold: dense per-class
/// demand series plus the bootstrap-estimated `P̂_α`.
///
/// Folding slot events through this estimator is bit-identical to
/// [`ClassDemandSeries::from_requests`] over the collected trace — it
/// is the oracle the sketch path is validated against, and the default
/// planning path. Memory is `O(classes × slots)` by design: the
/// bootstrap resamples the dense series.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactEstimator {
    series: ClassDemandSeries,
    config: AggregationConfig,
    observed: Slot,
}

impl ExactEstimator {
    /// Creates an exact estimator over a `slots`-slot history window.
    pub fn new(slots: Slot, config: AggregationConfig) -> Self {
        Self {
            series: ClassDemandSeries::empty(slots),
            config,
            observed: 0,
        }
    }

    /// The accumulated demand series (drill-down inspection).
    pub fn series(&self) -> &ClassDemandSeries {
        &self.series
    }

    /// The paper's demand-conformance check (§III-A) against an online
    /// window, using this estimator's α and bootstrap replicates: the
    /// fraction of classes whose online `P_α` falls inside the 95%
    /// bootstrap CI of this history estimate.
    pub fn conformance<R: rand::Rng + ?Sized>(
        &self,
        online: &ClassDemandSeries,
        rng: &mut R,
    ) -> f64 {
        self.series.conformance(
            online,
            self.config.alpha,
            self.config.bootstrap_replicates,
            rng,
        )
    }
}

impl DemandEstimator for ExactEstimator {
    fn observe_slot(&mut self, events: &SlotEvents) {
        self.series.observe_slot(events);
        // The dense series covers skipped quiet slots as zeros, so
        // only the covered-slot count needs advancing.
        self.observed = self.observed.max(events.slot + 1);
    }

    fn slots_observed(&self) -> Slot {
        self.observed
    }

    fn finalize(&mut self, rng: &mut dyn RngCore) -> BTreeMap<ClassId, f64> {
        self.series
            .expected_demands(self.config.alpha, self.config.bootstrap_replicates, rng)
    }

    fn snapshot_state(&self) -> Option<StateBlob> {
        Some(Snapshot::snapshot(self))
    }

    fn restore_state(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        Snapshot::restore(self, blob)
    }
}

/// Checkpointing: the dense series plus the covered-slot cursor; the
/// aggregation config is a construction input.
impl Snapshot for ExactEstimator {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write_u32(self.observed);
        w.write_blob(&self.series.snapshot());
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let observed = r.read_u32()?;
        let series_blob = r.read_blob()?;
        r.finish()?;
        self.series.restore(&series_blob)?;
        self.observed = observed;
        Ok(())
    }
}

/// Per-class activity tracked by the sketch estimator.
#[derive(Debug, Clone, Default)]
struct ClassActivity {
    /// Total demand of currently active requests of the class.
    demand: f64,
    /// Number of currently active requests (exact zero reset on empty).
    active: usize,
}

/// A sketch-based estimator: one zero-inflated [`P2Quantile`] per
/// class, `O(classes + active requests)` memory, no bootstrap replay.
///
/// Per slot it maintains each class's concurrent demand with a
/// departure calendar (the same `O(active)` discipline as the streaming
/// engine) and feeds the *nonzero* values into the class's P² sketch;
/// slots where a class has no active demand are counted, not stored.
/// At finalization the α-percentile is evaluated on the zero-inflated
/// distribution: if the rank falls inside the zero mass the demand is
/// 0, otherwise the sketch's marker curve is queried at the rank
/// shifted past the zeros.
#[derive(Debug, Clone)]
pub struct SketchEstimator {
    alpha: f64,
    observed: Slot,
    active: BTreeMap<ClassId, ClassActivity>,
    /// Departure calendar: slot → (class, demand) decrements.
    departures: BTreeMap<Slot, Vec<(ClassId, f64)>>,
    /// Per-class sketch over the slots with nonzero demand.
    sketches: BTreeMap<ClassId, P2Quantile>,
}

impl SketchEstimator {
    /// Creates a sketch estimator for the `alpha`-percentile
    /// (`alpha ∈ (0, 100)`).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not strictly between 0 and 100.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 100.0,
            "alpha must be in (0, 100), got {alpha}"
        );
        Self {
            alpha,
            observed: 0,
            active: BTreeMap::new(),
            departures: BTreeMap::new(),
            sketches: BTreeMap::new(),
        }
    }

    /// Number of classes with at least one nonzero-demand slot.
    pub fn class_count(&self) -> usize {
        self.sketches.len()
    }

    /// The zero-inflated `alpha`-percentile of one class at
    /// finalization time.
    fn class_percentile(&self, sketch: &P2Quantile) -> f64 {
        let total = u64::from(self.observed);
        let nonzero = sketch.count();
        debug_assert!(nonzero <= total, "sketch fed beyond the horizon");
        if total == 0 || nonzero == 0 {
            return 0.0;
        }
        let zeros = (total - nonzero) as f64;
        // Type-7 rank over the zero-inflated sample of `total` slots.
        let h = (self.alpha / 100.0) * (total - 1) as f64;
        if h <= zeros - 1.0 {
            return 0.0;
        }
        let low = sketch.min().unwrap_or(0.0);
        if h < zeros {
            // Interpolate across the zero / nonzero boundary.
            return (h - (zeros - 1.0)) * low;
        }
        // Rank within the nonzero part, as a fraction of its order
        // statistics.
        let fraction = if nonzero == 1 {
            0.0
        } else {
            ((h - zeros) / (nonzero - 1) as f64).clamp(0.0, 1.0)
        };
        sketch.query(fraction).unwrap_or(0.0)
    }
}

impl SketchEstimator {
    /// Releases the departures due at or before slot `t`.
    fn release_departures(&mut self, t: Slot) {
        while let Some(entry) = self.departures.first_entry() {
            if *entry.key() > t {
                break;
            }
            for (class, demand) in entry.remove() {
                if let Some(activity) = self.active.get_mut(&class) {
                    activity.active -= 1;
                    if activity.active == 0 {
                        // Exact reset: no float residue from the
                        // subtraction chain can linger on idle classes.
                        self.active.remove(&class);
                    } else {
                        activity.demand -= demand;
                    }
                }
            }
        }
    }

    /// Feeds every class's current concurrent demand into its sketch.
    fn sample_active(&mut self) {
        for (&class, activity) in &self.active {
            if activity.demand > 0.0 {
                self.sketches
                    .entry(class)
                    .or_insert_with(|| P2Quantile::new(self.alpha / 100.0))
                    .observe(activity.demand);
            }
        }
    }
}

impl DemandEstimator for SketchEstimator {
    fn observe_slot(&mut self, events: &SlotEvents) {
        let t = events.slot;
        assert!(
            t >= self.observed,
            "slot events must be strictly increasing (got slot {t} after {})",
            self.observed
        );
        // A sparse stream may skip quiet slots; account for them
        // one by one (departures released, the still-active demand
        // sampled) so the zero mass and the per-slot sampling stay
        // faithful to the dense series.
        while self.observed < t {
            let quiet = self.observed;
            self.release_departures(quiet);
            self.sample_active();
            self.observed += 1;
        }
        self.release_departures(t);
        for r in &events.arrivals {
            let entry = self.active.entry(r.class()).or_default();
            entry.demand += r.demand;
            entry.active += 1;
            self.departures
                .entry(r.departure())
                .or_default()
                .push((r.class(), r.demand));
        }
        self.sample_active();
        self.observed = t + 1;
    }

    fn slots_observed(&self) -> Slot {
        self.observed
    }

    fn finalize(&mut self, _rng: &mut dyn RngCore) -> BTreeMap<ClassId, f64> {
        self.sketches
            .iter()
            .map(|(&class, sketch)| (class, self.class_percentile(sketch)))
            .collect()
    }

    fn snapshot_state(&self) -> Option<StateBlob> {
        Some(Snapshot::snapshot(self))
    }

    fn restore_state(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        Snapshot::restore(self, blob)
    }
}

/// Checkpointing: the slot cursor, the per-class activity, the
/// departure calendar (vector order preserved — it is release order)
/// and every class's P² markers; `alpha` is validated through the
/// nested sketch blobs.
impl Snapshot for SketchEstimator {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write_f64(self.alpha);
        w.write_u32(self.observed);
        w.write_usize(self.active.len());
        for (class, activity) in &self.active {
            w.write(class);
            w.write_f64(activity.demand);
            w.write_usize(activity.active);
        }
        w.write(&self.departures);
        w.write_usize(self.sketches.len());
        for (class, sketch) in &self.sketches {
            w.write(class);
            w.write_blob(&sketch.snapshot());
        }
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let alpha = r.read_f64()?;
        if alpha.to_bits() != self.alpha.to_bits() {
            return Err(StateError::Mismatch {
                expected: format!("sketch estimator for α={}", self.alpha),
                found: format!("blob for α={alpha}"),
            });
        }
        let observed = r.read_u32()?;
        let active_len = r.read_usize()?;
        let mut active = BTreeMap::new();
        for _ in 0..active_len {
            let class: ClassId = r.read()?;
            let demand = r.read_f64()?;
            let count = r.read_usize()?;
            active.insert(
                class,
                ClassActivity {
                    demand,
                    active: count,
                },
            );
        }
        let departures: BTreeMap<Slot, Vec<(ClassId, f64)>> = r.read()?;
        let sketch_len = r.read_usize()?;
        let mut sketches = BTreeMap::new();
        for _ in 0..sketch_len {
            let class: ClassId = r.read()?;
            let sketch_blob = r.read_blob()?;
            let mut sketch = P2Quantile::new(self.alpha / 100.0);
            sketch.restore(&sketch_blob)?;
            sketches.insert(class, sketch);
        }
        r.finish()?;
        self.observed = observed;
        self.active = active;
        self.departures = departures;
        self.sketches = sketches;
        Ok(())
    }
}

/// Which demand estimator a scenario's planning phase uses.
///
/// `Exact` is the default (paper-faithful, bit-identical to the batch
/// aggregation); `Sketch` trades the bootstrap for `O(classes)`
/// planning memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorKind {
    /// Dense series + bootstrap `P̂_α` (the oracle).
    #[default]
    Exact,
    /// Per-class P² quantile sketches, `O(classes)` memory.
    Sketch,
}

impl EstimatorKind {
    /// Instantiates the estimator for a `slots`-slot planning window.
    pub fn build(self, slots: Slot, config: &AggregationConfig) -> Box<dyn DemandEstimator> {
        match self {
            Self::Exact => Box::new(ExactEstimator::new(slots, *config)),
            Self::Sketch => Box::new(SketchEstimator::new(config.alpha)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;
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

    #[test]
    fn exact_fold_matches_batch_series() {
        let requests = vec![
            req(0, 0, 3, 1, 0, 2.0),
            req(1, 1, 2, 1, 0, 5.0),
            req(2, 0, 1, 2, 0, 7.0),
            req(3, 2, 100, 1, 1, 1.5), // clipped at the window edge
        ];
        let mut est = ExactEstimator::new(4, AggregationConfig::default());
        est.observe_all(slot_events(&requests, 4));
        assert_eq!(est.slots_observed(), 4);
        let batch = ClassDemandSeries::from_requests(&requests, 4);
        assert_eq!(est.series(), &batch);
        let folded = est.finalize(&mut SeededRng::new(5));
        let direct = batch.expected_demands(80.0, 100, &mut SeededRng::new(5));
        assert_eq!(folded.len(), direct.len());
        for (class, value) in &folded {
            assert_eq!(value.to_bits(), direct[class].to_bits(), "class {class:?}");
        }
    }

    #[test]
    fn sketch_constant_demand_is_exact() {
        // One request active over the whole window: demand 6 in every
        // slot ⇒ every percentile is exactly 6.
        let requests = vec![req(0, 0, 100, 1, 0, 6.0)];
        let mut est = SketchEstimator::new(80.0);
        est.observe_all(slot_events(&requests, 100));
        let demands = est.finalize(&mut SeededRng::new(1));
        let c = ClassId::new(AppId(0), NodeId(1));
        assert_eq!(demands[&c], 6.0);
        assert_eq!(est.class_count(), 1);
    }

    #[test]
    fn sketch_zero_heavy_class_estimates_zero() {
        // Active in 10 of 100 slots: the 80th percentile falls deep in
        // the zero mass.
        let requests = vec![req(0, 0, 10, 1, 0, 4.0)];
        let mut est = SketchEstimator::new(80.0);
        est.observe_all(slot_events(&requests, 100));
        let demands = est.finalize(&mut SeededRng::new(1));
        let c = ClassId::new(AppId(0), NodeId(1));
        assert_eq!(demands[&c], 0.0);
    }

    #[test]
    fn sketch_mostly_active_class_lands_on_plateau() {
        // Demand 10 in 90 of 100 slots: P80 of the zero-inflated series
        // is 10.
        let requests: Vec<Request> = (0..90).map(|i| req(i, i as Slot, 1, 1, 0, 10.0)).collect();
        let mut est = SketchEstimator::new(80.0);
        est.observe_all(slot_events(&requests, 100));
        let demands = est.finalize(&mut SeededRng::new(1));
        let c = ClassId::new(AppId(0), NodeId(1));
        assert!((demands[&c] - 10.0).abs() < 1e-9, "got {}", demands[&c]);
    }

    #[test]
    fn sketch_tracks_overlapping_demand() {
        // Two long-lived requests overlap: the series is 2, then 7,
        // then 5 — the sketch must see the concurrent sums, not the
        // arrival sizes.
        let requests = vec![req(0, 0, 60, 1, 0, 2.0), req(1, 20, 60, 1, 0, 5.0)];
        let mut est = SketchEstimator::new(80.0);
        est.observe_all(slot_events(&requests, 80));
        let demands = est.finalize(&mut SeededRng::new(1));
        let c = ClassId::new(AppId(0), NodeId(1));
        // Series: 20 slots at 2, 40 slots at 7, 20 slots at 5.
        // P80 over [2×20, 5×20, 7×40] sits on the 7-plateau.
        assert!((demands[&c] - 7.0).abs() < 0.5, "got {}", demands[&c]);
    }

    #[test]
    fn sketch_departure_reset_leaves_no_residue() {
        // A class that empties out mid-window must contribute exact
        // zeros afterwards (no float residue keeps feeding the sketch).
        let requests = vec![req(0, 0, 5, 1, 0, 0.1), req(1, 2, 3, 1, 0, 0.2)];
        let mut est = SketchEstimator::new(80.0);
        est.observe_all(slot_events(&requests, 50));
        let c = ClassId::new(AppId(0), NodeId(1));
        // 5 active slots out of 50 ⇒ P80 in the zero mass.
        let demands = est.finalize(&mut SeededRng::new(1));
        assert_eq!(demands[&c], 0.0);
        assert_eq!(est.sketches[&c].count(), 5);
    }

    #[test]
    fn sketch_handles_sparse_streams_like_dense_ones() {
        // The same history fed densely (one event per slot) and
        // sparsely (quiet slots skipped) must produce identical
        // estimates: skipped slots still count toward the zero mass
        // and still sample the surviving active demand.
        let requests = vec![req(0, 0, 10, 1, 0, 4.0), req(1, 30, 20, 1, 0, 9.0)];
        let mut dense = SketchEstimator::new(80.0);
        dense.observe_all(slot_events(&requests, 60));
        let mut sparse = SketchEstimator::new(80.0);
        for ev in slot_events(&requests, 60).filter(|ev| !ev.arrivals.is_empty() || ev.slot == 59) {
            sparse.observe_slot(&ev);
        }
        assert_eq!(dense.slots_observed(), 60);
        assert_eq!(sparse.slots_observed(), 60);
        let c = ClassId::new(AppId(0), NodeId(1));
        assert_eq!(dense.sketches[&c].count(), sparse.sketches[&c].count());
        let d = dense.finalize(&mut SeededRng::new(1));
        let s = sparse.finalize(&mut SeededRng::new(1));
        assert_eq!(d[&c].to_bits(), s[&c].to_bits());
    }

    #[test]
    fn empty_history_finalizes_empty() {
        let mut exact = ExactEstimator::new(10, AggregationConfig::default());
        let mut sketch = SketchEstimator::new(80.0);
        exact.observe_all(slot_events(&[], 10));
        sketch.observe_all(slot_events(&[], 10));
        assert!(exact.finalize(&mut SeededRng::new(1)).is_empty());
        assert!(sketch.finalize(&mut SeededRng::new(1)).is_empty());
    }

    #[test]
    fn estimator_snapshots_resume_the_fold_exactly() {
        // Fold half the history, checkpoint, restore into a fresh
        // estimator, fold the rest into both: finalize must agree bit
        // for bit (exact and sketch alike).
        let requests = vec![
            req(0, 0, 30, 1, 0, 2.0),
            req(1, 5, 10, 1, 0, 4.5),
            req(2, 12, 40, 2, 1, 1.25),
            req(3, 33, 5, 1, 0, 7.0),
        ];
        let events: Vec<SlotEvents> = slot_events(&requests, 60).collect();
        let make = |kind: &EstimatorKind| kind.build(60, &AggregationConfig::default());
        for kind in [EstimatorKind::Exact, EstimatorKind::Sketch] {
            let mut original = make(&kind);
            for ev in &events[..30] {
                original.observe_slot(ev);
            }
            let blob = original
                .snapshot_state()
                .expect("builtin supports snapshots");
            let mut resumed = make(&kind);
            resumed.restore_state(&blob).unwrap();
            assert_eq!(
                resumed.snapshot_state().unwrap(),
                blob,
                "{kind:?}: snapshot→restore→snapshot must be blob-equal"
            );
            for ev in &events[30..] {
                original.observe_slot(ev);
                resumed.observe_slot(ev);
            }
            let a = original.finalize(&mut SeededRng::new(9));
            let b = resumed.finalize(&mut SeededRng::new(9));
            assert_eq!(a.len(), b.len(), "{kind:?}");
            for (class, value) in &a {
                assert_eq!(value.to_bits(), b[class].to_bits(), "{kind:?} {class}");
            }
        }
    }

    #[test]
    fn estimator_snapshot_rejects_foreign_blobs() {
        let mut exact = ExactEstimator::new(10, AggregationConfig::default());
        let sketch = SketchEstimator::new(80.0);
        // A sketch blob cannot restore into an exact estimator and vice
        // versa (both decode fails and α/window mismatches count).
        let sketch_blob = Snapshot::snapshot(&sketch);
        assert!(Snapshot::restore(&mut exact, &sketch_blob).is_err());
        let mut other_alpha = SketchEstimator::new(50.0);
        assert!(Snapshot::restore(&mut other_alpha, &sketch_blob).is_err());
        // An exact blob from a different history window is rejected,
        // not silently reshaped into it.
        let exact_blob = Snapshot::snapshot(&exact);
        let mut other_window = ExactEstimator::new(20, AggregationConfig::default());
        assert!(matches!(
            Snapshot::restore(&mut other_window, &exact_blob),
            Err(StateError::Mismatch { .. })
        ));
        // Custom estimators default to unsupported.
        struct Null;
        impl DemandEstimator for Null {
            fn observe_slot(&mut self, _: &SlotEvents) {}
            fn slots_observed(&self) -> Slot {
                0
            }
            fn finalize(&mut self, _: &mut dyn RngCore) -> BTreeMap<ClassId, f64> {
                BTreeMap::new()
            }
        }
        let mut null = Null;
        assert!(null.snapshot_state().is_none());
        assert!(matches!(
            null.restore_state(&sketch_blob),
            Err(StateError::Unsupported(_))
        ));
    }

    #[test]
    fn kind_builds_the_right_estimator() {
        let config = AggregationConfig::default();
        let mut exact = EstimatorKind::Exact.build(10, &config);
        let mut sketch = EstimatorKind::Sketch.build(10, &config);
        let ev = SlotEvents {
            slot: 0,
            arrivals: vec![req(0, 0, 3, 1, 0, 2.0)],
            churn: Vec::new(),
        };
        for est in [&mut exact, &mut sketch] {
            est.observe_slot(&ev);
            assert_eq!(est.slots_observed(), 1);
        }
        assert_eq!(format!("{:?}", EstimatorKind::Sketch), "Sketch");
        assert_eq!(format!("{:?}", EstimatorKind::Exact), "Exact");
        assert!(matches!(EstimatorKind::default(), EstimatorKind::Exact));
    }
}
