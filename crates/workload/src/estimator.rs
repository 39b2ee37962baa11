//! Streaming per-class demand estimation (§III-A as a fold).
//!
//! The offline planning phase aggregates the history `R_HIST` into one
//! expected demand `P̂_α` per class (Eqs. 5–6). [`ExactEstimator`]
//! consumes that history as a *stream* — one [`SlotEvents`] at a time
//! via [`ExactEstimator::observe_slot`] — and is finalized into the
//! per-class demands, so the planner never needs the trace in memory.
//! It is an incremental [`ClassDemandSeries`] fold plus the bootstrap
//! `P̂_α`, identical bit for bit to the batch path. Memory is
//! `O(classes × slots)`: the dense series is what the bootstrap
//! resamples. `vne_olive::aggregate::AggregateDemand::from_stream`
//! turns the fold into a plan input.

use std::collections::BTreeMap;

use vne_model::ids::ClassId;
use vne_model::request::{Slot, SlotEvents};
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};

use crate::history::ClassDemandSeries;
use crate::rng::SeededRng;

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

/// The paper's aggregation as a streaming fold: dense per-class demand
/// series plus the bootstrap-estimated `P̂_α` — the input of PLAN-VNE.
///
/// Feed slots in increasing order via [`ExactEstimator::observe_slot`]
/// (one event per slot, as the trace streams produce), then call
/// [`ExactEstimator::finalize`]. Folding slot events through this
/// estimator is bit-identical to [`ClassDemandSeries::from_requests`]
/// over the collected trace.
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

    /// Folds one slot of history into the estimator state. Slots must
    /// arrive in increasing order; skipped (quiet) slots count toward
    /// the window as zero-demand slots.
    pub fn observe_slot(&mut self, events: &SlotEvents) {
        self.series.observe_slot(events);
        // The dense series covers skipped quiet slots as zeros, so
        // only the covered-slot count needs advancing.
        self.observed = self.observed.max(events.slot + 1);
    }

    /// Drains an event stream into the estimator (convenience fold).
    pub fn observe_all(&mut self, events: impl IntoIterator<Item = SlotEvents>) {
        for ev in events {
            self.observe_slot(&ev);
        }
    }

    /// Number of history slots covered so far (`last slot + 1`; equals
    /// the number of events folded on a dense stream).
    pub fn slots_observed(&self) -> Slot {
        self.observed
    }

    /// Finalizes the fold into the per-class expected demands `d(r̃)`:
    /// the bootstrap `P̂_α` of each class's series, drawn from `rng`.
    pub fn finalize(&self, rng: &mut SeededRng) -> BTreeMap<ClassId, f64> {
        self.series
            .expected_demands(self.config.alpha, self.config.bootstrap_replicates, rng)
    }

    /// The accumulated demand series (drill-down inspection).
    pub fn series(&self) -> &ClassDemandSeries {
        &self.series
    }

    /// The paper's demand-conformance check (§III-A) against an online
    /// window, using this estimator's α and bootstrap replicates: the
    /// fraction of classes whose online `P_α` falls inside the 95%
    /// bootstrap CI of this history estimate.
    pub fn conformance(&self, online: &ClassDemandSeries, rng: &mut SeededRng) -> f64 {
        self.series.conformance(
            online,
            self.config.alpha,
            self.config.bootstrap_replicates,
            rng,
        )
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
    fn empty_history_finalizes_empty() {
        let mut exact = ExactEstimator::new(10, AggregationConfig::default());
        exact.observe_all(slot_events(&[], 10));
        assert!(exact.finalize(&mut SeededRng::new(1)).is_empty());
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
}
