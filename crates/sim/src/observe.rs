//! Ready-made [`SimObserver`]s for the streaming engine.
//!
//! * [`NullObserver`] — ignores everything (pure throughput runs);
//! * [`Recorder`] — collects a [`RunResult`] (per-request outcome log +
//!   per-slot series), `O(trace)` memory by design;
//! * [`WindowSummary`] — the one summary fold: computes the
//!   measurement-window [`Summary`] incrementally in `O(classes +
//!   nodes)` memory, so long-horizon streams keep the engine's
//!   `O(active)` bound;
//! * [`Inspect`] — adapts a per-slot closure (drill-down figures);
//! * [`StopAfter`] — ends the run after a fixed slot budget (the
//!   simplest user of [`SimControl::Stop`]);
//! * [`Checkpointer`] — wraps a snapshot-capable observer and
//!   serializes a full [`EngineCheckpoint`] every N slots, making
//!   long-horizon runs interruptible and forkable;
//! * [`Tee`] — composes two observers.
//!
//! The recording observers ([`Recorder`], [`WindowSummary`],
//! [`StopAfter`], [`NullObserver`], and [`Tee`]s of them) implement
//! [`Snapshot`], so their partial statistics ride inside checkpoints
//! and resume bit-exactly.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use vne_model::cost::RejectionPenalty;
use vne_model::ids::{AppId, IdHashing, NodeId, RequestId};
use vne_model::request::Slot;
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};
use vne_olive::algorithm::OnlineAlgorithm;

use crate::engine::{
    ChurnStats, EngineCheckpoint, EngineView, RequestOutcome, RunResult, SimControl, SimObserver,
    SlotMetrics, StreamStats,
};
use crate::metrics::{balance_from_counts, NeumaierSum, Summary};

/// A callback invoked with every checkpoint a [`Checkpointer`] captures.
type CheckpointSinkFn = Box<dyn FnMut(&EngineCheckpoint) + Send>;

/// An observer that ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

impl Snapshot for NullObserver {
    fn snapshot(&self) -> StateBlob {
        StateBlob::default()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        if blob.is_empty() {
            Ok(())
        } else {
            Err(StateError::TrailingBytes {
                remaining: blob.len(),
            })
        }
    }
}

/// Collects the full per-request outcome log and per-slot series.
///
/// Memory is `O(trace length)` — that is the point of a recorder. Use
/// [`WindowSummary`] when only the window summary is needed.
///
/// The recorded [`RunResult::slots`] vector is indexed by position, so
/// consumers equating index and slot number (the drill-down figures)
/// must feed the recorder a *dense* stream (one event per slot from 0,
/// as produced by [`vne_model::request::slot_events`] and the scenario
/// trace streams). With a sparse stream the per-slot series is
/// compacted; [`WindowSummary`] reads the real slot number instead.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    requests: Vec<RequestOutcome>,
    /// Read by key only (a preemption finds its arrival's outcome).
    index: HashMap<RequestId, usize, IdHashing>,
    slots: Vec<SlotMetrics>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the recorder into a [`RunResult`].
    pub fn finish(self, algorithm: &str, stats: &StreamStats) -> RunResult {
        RunResult {
            algorithm: algorithm.to_string(),
            requests: self.requests,
            slots: self.slots,
            online_secs: stats.online_secs,
        }
    }
}

impl SimObserver for Recorder {
    fn on_arrival(&mut self, outcome: &RequestOutcome) {
        self.index.insert(outcome.id, self.requests.len());
        self.requests.push(outcome.clone());
    }

    fn on_preemption(&mut self, outcome: &RequestOutcome) {
        if let Some(&i) = self.index.get(&outcome.id) {
            self.requests[i] = outcome.clone();
        }
    }

    fn on_slot_end(
        &mut self,
        _t: Slot,
        metrics: &SlotMetrics,
        _algorithm: &dyn OnlineAlgorithm,
    ) -> SimControl {
        self.slots.push(*metrics);
        SimControl::Continue
    }
}

/// Checkpointing: the outcome log and the per-slot series (the id
/// index is rebuilt from the log). `O(trace)` blobs by nature — pair a
/// checkpointed long-horizon run with [`WindowSummary`] instead.
impl Snapshot for Recorder {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write(&self.requests);
        w.write(&self.slots);
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let requests: Vec<RequestOutcome> = r.read()?;
        let slots: Vec<SlotMetrics> = r.read()?;
        r.finish()?;
        self.index = requests
            .iter()
            .enumerate()
            .map(|(i, o)| (o.id, i))
            .collect();
        self.requests = requests;
        self.slots = slots;
        Ok(())
    }
}

/// Computes the measurement-window [`Summary`] incrementally.
///
/// State is `O(request classes + nodes)` — counts, running costs and
/// the per-`(node, app)` rejection tallies for the balance index — so
/// a multi-seed sweep over arbitrarily long streams never materializes
/// an outcome log. The rejection cost is folded in a pinned order —
/// rejected-on-arrival costs in arrival order, preemption costs in
/// `(eviction slot, request id)` order, each through a compensated
/// [`NeumaierSum`] (the per-slot preemption buffer below pins the
/// within-slot order to request ids) — which an independent batch
/// reference reproduces bit for bit (`tests/streaming_parity.rs`).
#[derive(Debug, Clone)]
pub struct WindowSummary {
    window: (Slot, Slot),
    penalty: RejectionPenalty,
    arrivals: usize,
    rejected: usize,
    preempted: usize,
    rejected_cost: NeumaierSum,
    preempted_cost: NeumaierSum,
    /// This slot's preemption costs, folded in id order at slot end.
    pending_preemptions: Vec<(RequestId, f64)>,
    resource_cost: f64,
    n_v: BTreeMap<NodeId, f64>,
    x_va: BTreeMap<(NodeId, AppId), f64>,
    apps: BTreeSet<AppId>,
    /// Cumulative churn tallies over window slots.
    churn: ChurnStats,
}

impl WindowSummary {
    /// Creates a summary observer for a `[from, to)` window of arrival
    /// slots.
    pub fn new(window: (Slot, Slot), penalty: RejectionPenalty) -> Self {
        Self {
            window,
            penalty,
            arrivals: 0,
            rejected: 0,
            preempted: 0,
            rejected_cost: NeumaierSum::new(),
            preempted_cost: NeumaierSum::new(),
            pending_preemptions: Vec::new(),
            resource_cost: 0.0,
            n_v: BTreeMap::new(),
            x_va: BTreeMap::new(),
            apps: BTreeSet::new(),
            churn: ChurnStats::default(),
        }
    }

    fn in_window(&self, arrival: Slot) -> bool {
        arrival >= self.window.0 && arrival < self.window.1
    }

    fn denial_cost(&self, outcome: &RequestOutcome) -> f64 {
        self.penalty.psi(outcome.class.app) * outcome.demand * f64::from(outcome.duration)
    }

    /// The preempted-cost sum with this slot's still-buffered costs
    /// folded in request-id order (the pinned within-slot order).
    /// Non-destructive — [`WindowSummary::finish`] uses it mid-slot; the
    /// per-slot flush sorts the buffer in place.
    fn flushed_preempted_cost(&self) -> NeumaierSum {
        let mut pending = self.pending_preemptions.clone();
        pending.sort_by_key(|&(id, _)| id);
        let mut sum = self.preempted_cost;
        for (_, cost) in pending {
            sum.add(cost);
        }
        sum
    }

    /// Finalizes the summary (balance index, rates, runtime).
    pub fn finish(&self, stats: &StreamStats) -> Summary {
        let denied = self.rejected + self.preempted;
        let rejection_cost = self.rejected_cost.value() + self.flushed_preempted_cost().value();
        Summary {
            arrivals: self.arrivals,
            rejected: self.rejected,
            preempted: self.preempted,
            rejection_rate: if self.arrivals == 0 {
                0.0
            } else {
                denied as f64 / self.arrivals as f64
            },
            resource_cost: self.resource_cost,
            rejection_cost,
            total_cost: self.resource_cost + rejection_cost,
            balance_index: balance_from_counts(&self.n_v, &self.x_va, &self.apps),
            online_secs: stats.online_secs,
            churn: self.churn,
        }
    }
}

impl SimObserver for WindowSummary {
    fn on_arrival(&mut self, outcome: &RequestOutcome) {
        if !self.in_window(outcome.arrival) {
            return;
        }
        self.arrivals += 1;
        self.apps.insert(outcome.class.app);
        *self.n_v.entry(outcome.class.ingress).or_insert(0.0) += 1.0;
        if outcome.status.is_denied() {
            self.rejected += 1;
            let cost = self.denial_cost(outcome);
            self.rejected_cost.add(cost);
            *self
                .x_va
                .entry((outcome.class.ingress, outcome.class.app))
                .or_insert(0.0) += 1.0;
        }
    }

    fn on_churn(&mut self, t: Slot, stats: &ChurnStats) {
        // Churn is attributed to the slot it hits (the affected
        // requests' arrival slots are already folded into the denial
        // tallies via the preemption path).
        if self.in_window(t) {
            self.churn.absorb(stats);
        }
    }

    fn on_preemption(&mut self, outcome: &RequestOutcome) {
        if !self.in_window(outcome.arrival) {
            return;
        }
        self.preempted += 1;
        let cost = self.denial_cost(outcome);
        self.pending_preemptions.push((outcome.id, cost));
        *self
            .x_va
            .entry((outcome.class.ingress, outcome.class.app))
            .or_insert(0.0) += 1.0;
    }

    fn on_slot_end(
        &mut self,
        t: Slot,
        metrics: &SlotMetrics,
        _algorithm: &dyn OnlineAlgorithm,
    ) -> SimControl {
        if !self.pending_preemptions.is_empty() {
            self.pending_preemptions.sort_by_key(|&(id, _)| id);
            for &(_, cost) in &self.pending_preemptions {
                self.preempted_cost.add(cost);
            }
            self.pending_preemptions.clear();
        }
        if self.in_window(t) {
            // audit:allow(D3, "plain fold pinned by the golden fingerprints; NeumaierSum would re-pin them")
            self.resource_cost += metrics.resource_cost;
        }
        SimControl::Continue
    }
}

/// Checkpointing: all counters, both compensated cost accumulators
/// (sum + compensation, bit-exact), the per-slot preemption buffer and
/// the balance tallies. The measurement window is validated so a blob
/// cannot restore into a summary over a different window; the penalty
/// is a construction input.
impl Snapshot for WindowSummary {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write_u32(self.window.0);
        w.write_u32(self.window.1);
        w.write_usize(self.arrivals);
        w.write_usize(self.rejected);
        w.write_usize(self.preempted);
        for sum in [&self.rejected_cost, &self.preempted_cost] {
            let (s, c) = sum.parts();
            w.write_f64(s);
            w.write_f64(c);
        }
        w.write(&self.pending_preemptions);
        w.write_f64(self.resource_cost);
        w.write(&self.n_v);
        w.write(&self.x_va);
        w.write_usize(self.apps.len());
        for app in &self.apps {
            w.write(app);
        }
        w.write_usize(self.churn.events);
        w.write_usize(self.churn.stranded);
        w.write_usize(self.churn.evicted);
        w.write_usize(self.churn.reembedded);
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let window = (r.read_u32()?, r.read_u32()?);
        if window != self.window {
            return Err(StateError::Mismatch {
                expected: format!("measurement window {:?}", self.window),
                found: format!("window {window:?}"),
            });
        }
        let arrivals = r.read_usize()?;
        let rejected = r.read_usize()?;
        let preempted = r.read_usize()?;
        let rejected_cost = NeumaierSum::from_parts(r.read_f64()?, r.read_f64()?);
        let preempted_cost = NeumaierSum::from_parts(r.read_f64()?, r.read_f64()?);
        let pending_preemptions: Vec<(RequestId, f64)> = r.read()?;
        let resource_cost = r.read_f64()?;
        let n_v: BTreeMap<NodeId, f64> = r.read()?;
        let x_va: BTreeMap<(NodeId, AppId), f64> = r.read()?;
        let app_count = r.read_usize()?;
        let mut apps = BTreeSet::new();
        for _ in 0..app_count {
            apps.insert(r.read::<AppId>()?);
        }
        let churn = ChurnStats {
            events: r.read_usize()?,
            stranded: r.read_usize()?,
            evicted: r.read_usize()?,
            reembedded: r.read_usize()?,
        };
        r.finish()?;
        self.arrivals = arrivals;
        self.rejected = rejected;
        self.preempted = preempted;
        self.rejected_cost = rejected_cost;
        self.preempted_cost = preempted_cost;
        self.pending_preemptions = pending_preemptions;
        self.resource_cost = resource_cost;
        self.n_v = n_v;
        self.x_va = x_va;
        self.apps = apps;
        self.churn = churn;
        Ok(())
    }
}

/// Stops the run after observing a fixed number of slot-end events —
/// the smallest real user of [`SimControl::Stop`]: cap an open-ended
/// stream at a slot budget and keep the partial statistics collected so
/// far (compose with [`Tee`] to pair it with a recording observer).
///
/// Deliberately not `Copy`: the counter is the observer's state, and a
/// silent by-value copy into [`Tee`] would leave the caller reading a
/// stale [`StopAfter::slots_seen`]. Pass `&mut` (the blanket
/// `SimObserver for &mut O` impl covers that).
#[derive(Debug, Clone)]
pub struct StopAfter {
    limit: Slot,
    seen: Slot,
}

impl StopAfter {
    /// Stops after `limit` slots have completed.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0` (the run would stop before producing
    /// anything).
    pub fn new(limit: Slot) -> Self {
        assert!(limit > 0, "slot budget must be positive");
        Self { limit, seen: 0 }
    }

    /// Slots observed so far.
    pub fn slots_seen(&self) -> Slot {
        self.seen
    }
}

impl SimObserver for StopAfter {
    fn on_slot_end(
        &mut self,
        _t: Slot,
        _metrics: &SlotMetrics,
        _algorithm: &dyn OnlineAlgorithm,
    ) -> SimControl {
        self.seen += 1;
        if self.seen >= self.limit {
            SimControl::Stop
        } else {
            SimControl::Continue
        }
    }
}

/// Checkpointing: both the budget and the progress counter, so a
/// resumed budgeted run keeps (and re-hits) its original budget. Give
/// the resumed run a *fresh* [`StopAfter`] outside the checkpointed
/// observer when the budget should restart instead.
impl Snapshot for StopAfter {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write_u32(self.limit);
        w.write_u32(self.seen);
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let limit = r.read_u32()?;
        let seen = r.read_u32()?;
        r.finish()?;
        if limit == 0 {
            return Err(StateError::Corrupt("zero slot budget".into()));
        }
        self.limit = limit;
        self.seen = seen;
        Ok(())
    }
}

/// Adapts a per-slot closure into a [`SimObserver`] (drill-down
/// inspection; never stops the run).
#[derive(Debug, Clone)]
pub struct Inspect<F: FnMut(Slot, &SlotMetrics, &dyn OnlineAlgorithm)>(pub F);

impl<F: FnMut(Slot, &SlotMetrics, &dyn OnlineAlgorithm)> SimObserver for Inspect<F> {
    fn on_slot_end(
        &mut self,
        t: Slot,
        metrics: &SlotMetrics,
        algorithm: &dyn OnlineAlgorithm,
    ) -> SimControl {
        (self.0)(t, metrics, algorithm);
        SimControl::Continue
    }
}

/// Runs two observers side by side; the run stops as soon as either
/// asks to stop.
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: SimObserver, B: SimObserver> SimObserver for Tee<A, B> {
    fn on_slot_start(&mut self, t: Slot) {
        self.0.on_slot_start(t);
        self.1.on_slot_start(t);
    }

    fn on_arrival(&mut self, outcome: &RequestOutcome) {
        self.0.on_arrival(outcome);
        self.1.on_arrival(outcome);
    }

    fn on_churn(&mut self, t: Slot, stats: &ChurnStats) {
        self.0.on_churn(t, stats);
        self.1.on_churn(t, stats);
    }

    fn on_preemption(&mut self, outcome: &RequestOutcome) {
        self.0.on_preemption(outcome);
        self.1.on_preemption(outcome);
    }

    fn on_slot_end(
        &mut self,
        t: Slot,
        metrics: &SlotMetrics,
        algorithm: &dyn OnlineAlgorithm,
    ) -> SimControl {
        let a = self.0.on_slot_end(t, metrics, algorithm);
        let b = self.1.on_slot_end(t, metrics, algorithm);
        if a == SimControl::Stop || b == SimControl::Stop {
            SimControl::Stop
        } else {
            SimControl::Continue
        }
    }

    fn on_slot_committed(&mut self, view: &EngineView<'_>) {
        self.0.on_slot_committed(view);
        self.1.on_slot_committed(view);
    }
}

/// Checkpointing: both sides' blobs, nested. A `Tee` of snapshot-capable
/// observers is itself snapshot-capable, so composed observer stacks
/// ride inside one checkpoint.
impl<A: Snapshot, B: Snapshot> Snapshot for Tee<A, B> {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write_blob(&self.0.snapshot());
        w.write_blob(&self.1.snapshot());
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let a = r.read_blob()?;
        let b = r.read_blob()?;
        r.finish()?;
        self.0.restore(&a)?;
        self.1.restore(&b)
    }
}

/// Serializes a full [`EngineCheckpoint`] every `every` slots, wrapping
/// the observer whose state must survive a resume (typically a
/// [`WindowSummary`]; any [`Snapshot`]-capable observer or [`Tee`] of
/// them works). All events are forwarded to the wrapped observer; at
/// each checkpoint slot the engine state, the algorithm state and the
/// inner observer's state are captured together, atomically with the
/// slot boundary.
///
/// The latest checkpoint replaces the previous one
/// ([`Checkpointer::latest`]); attach a sink
/// ([`Checkpointer::with_sink`]) to persist every capture (e.g. write
/// it to disk — what `vne-bench --checkpoint-every` does). A capture
/// failure (an algorithm without snapshot support) is recorded in
/// [`Checkpointer::last_error`] instead of killing the run.
///
/// Early-stop interaction: the engine emits the commit hook even for
/// the slot whose `on_slot_end` stopped the run, so a [`StopAfter`]
/// firing exactly on a checkpoint slot still leaves that slot's
/// checkpoint behind — pinned by a regression test.
pub struct Checkpointer<O> {
    every: Slot,
    inner: O,
    latest: Option<EngineCheckpoint>,
    taken: usize,
    error: Option<StateError>,
    sink: Option<CheckpointSinkFn>,
}

impl<O> Checkpointer<O> {
    /// Checkpoints after every `every`-th slot (slots `every-1`,
    /// `2·every-1`, … of a dense stream), wrapping `inner`.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn every(every: Slot, inner: O) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        Self {
            every,
            inner,
            latest: None,
            taken: 0,
            error: None,
            sink: None,
        }
    }

    /// Attaches a sink invoked with every captured checkpoint (builder
    /// style).
    pub fn with_sink(mut self, sink: impl FnMut(&EngineCheckpoint) + Send + 'static) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// The most recent checkpoint, if any was captured.
    pub fn latest(&self) -> Option<&EngineCheckpoint> {
        self.latest.as_ref()
    }

    /// Consumes the checkpointer into its most recent checkpoint.
    pub fn into_latest(self) -> Option<EngineCheckpoint> {
        self.latest
    }

    /// Number of checkpoints captured.
    pub fn checkpoints_taken(&self) -> usize {
        self.taken
    }

    /// The error of the most recent failed capture, if any.
    pub fn last_error(&self) -> Option<&StateError> {
        self.error.as_ref()
    }

    /// The wrapped observer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Mutable access to the wrapped observer, for owners that fold
    /// their own facts into it between slots (the `vne-serve` actor
    /// keeps its durable serving counters inside the wrapped tee so
    /// they ride in every checkpoint).
    pub fn inner_mut(&mut self) -> &mut O {
        &mut self.inner
    }
}

impl<O: fmt::Debug> fmt::Debug for Checkpointer<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checkpointer")
            .field("every", &self.every)
            .field("inner", &self.inner)
            .field("taken", &self.taken)
            .field("latest_slot", &self.latest.as_ref().map(|c| c.slot))
            .field("error", &self.error)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl<O: SimObserver + Snapshot> SimObserver for Checkpointer<O> {
    fn on_slot_start(&mut self, t: Slot) {
        self.inner.on_slot_start(t);
    }

    fn on_arrival(&mut self, outcome: &RequestOutcome) {
        self.inner.on_arrival(outcome);
    }

    fn on_churn(&mut self, t: Slot, stats: &ChurnStats) {
        self.inner.on_churn(t, stats);
    }

    fn on_preemption(&mut self, outcome: &RequestOutcome) {
        self.inner.on_preemption(outcome);
    }

    fn on_slot_end(
        &mut self,
        t: Slot,
        metrics: &SlotMetrics,
        algorithm: &dyn OnlineAlgorithm,
    ) -> SimControl {
        self.inner.on_slot_end(t, metrics, algorithm)
    }

    fn on_slot_committed(&mut self, view: &EngineView<'_>) {
        self.inner.on_slot_committed(view);
        if (u64::from(view.slot()) + 1) % u64::from(self.every) != 0 {
            return;
        }
        match view.checkpoint(self.inner.snapshot()) {
            Ok(checkpoint) => {
                self.taken += 1;
                if let Some(sink) = &mut self.sink {
                    sink(&checkpoint);
                }
                self.latest = Some(checkpoint);
            }
            Err(e) => self.error = Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RequestStatus;
    use vne_model::app::{shapes, AppSet, AppShape};
    use vne_model::ids::ClassId;

    fn outcome(id: u64, arrival: Slot, status: RequestStatus) -> RequestOutcome {
        RequestOutcome {
            id: RequestId(id),
            class: ClassId::new(AppId(0), NodeId(0)),
            arrival,
            duration: 10,
            demand: 2.0,
            status,
        }
    }

    fn penalty() -> RejectionPenalty {
        let mut apps = AppSet::new();
        apps.push(
            "a",
            AppShape::Chain,
            shapes::uniform_chain(1, 1.0, 1.0).unwrap(),
        )
        .unwrap();
        RejectionPenalty::uniform(&apps, 3.0)
    }

    #[test]
    fn recorder_applies_preemption_updates() {
        let mut rec = Recorder::new();
        rec.on_arrival(&outcome(1, 2, RequestStatus::Accepted));
        rec.on_arrival(&outcome(2, 2, RequestStatus::Rejected));
        rec.on_preemption(&outcome(1, 2, RequestStatus::Preempted(5)));
        let result = rec.finish("X", &StreamStats::default());
        assert_eq!(result.requests.len(), 2);
        assert_eq!(result.requests[0].status, RequestStatus::Preempted(5));
        assert_eq!(result.requests[1].status, RequestStatus::Rejected);
        assert_eq!(result.algorithm, "X");
    }

    #[test]
    fn window_summary_counts_only_window_arrivals() {
        let mut ws = WindowSummary::new((2, 10), penalty());
        ws.on_arrival(&outcome(0, 0, RequestStatus::Rejected)); // before window
        ws.on_arrival(&outcome(1, 2, RequestStatus::Accepted));
        ws.on_arrival(&outcome(2, 3, RequestStatus::Rejected));
        ws.on_preemption(&outcome(1, 2, RequestStatus::Preempted(7)));
        let s = ws.finish(&StreamStats::default());
        assert_eq!(s.arrivals, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.preempted, 1);
        assert_eq!(s.rejection_rate, 1.0);
        // 2 denied × ψ3 × d2 × T10 = 120.
        assert_eq!(s.rejection_cost, 120.0);
    }

    #[test]
    fn window_summary_pins_preemption_cost_order() {
        // Two preemptions in one slot, reported in reverse id order:
        // the pinned (slot, id) fold sorts by id within the slot.
        let mut a = WindowSummary::new((0, 10), penalty());
        let mut b = WindowSummary::new((0, 10), penalty());
        let first = outcome(1, 2, RequestStatus::Preempted(5));
        let second = RequestOutcome {
            demand: 7.0,
            ..outcome(2, 3, RequestStatus::Preempted(5))
        };
        a.on_arrival(&outcome(1, 2, RequestStatus::Accepted));
        a.on_arrival(&outcome(2, 3, RequestStatus::Accepted));
        b.on_arrival(&outcome(1, 2, RequestStatus::Accepted));
        b.on_arrival(&outcome(2, 3, RequestStatus::Accepted));
        a.on_preemption(&first);
        a.on_preemption(&second);
        b.on_preemption(&second);
        b.on_preemption(&first);
        let sa = a.finish(&StreamStats::default());
        let sb = b.finish(&StreamStats::default());
        assert_eq!(sa.rejection_cost.to_bits(), sb.rejection_cost.to_bits());
        assert_eq!(sa.preempted, 2);
    }

    #[test]
    fn stop_after_halts_the_engine_with_partial_stats() {
        let mut s = vne_model::substrate::SubstrateNetwork::new("t");
        let e = s
            .add_node("e", vne_model::substrate::Tier::Edge, 100.0, 1.0)
            .unwrap();
        let c = s
            .add_node("c", vne_model::substrate::Tier::Core, 100.0, 1.0)
            .unwrap();
        s.add_link(e, c, 100.0, 1.0).unwrap();
        let mut apps = AppSet::new();
        apps.push(
            "a",
            AppShape::Chain,
            shapes::uniform_chain(1, 1.0, 1.0).unwrap(),
        )
        .unwrap();
        let mut alg = vne_olive::olive::Olive::quickg(
            s.clone(),
            apps.clone(),
            vne_model::policy::PlacementPolicy::default(),
        );
        let mut stop = StopAfter::new(7);
        let mut summary = WindowSummary::new((0, 100), RejectionPenalty::uniform(&apps, 1.0));
        let mut observer = Tee(&mut summary, &mut stop);
        let stats = crate::engine::run_stream_with(
            &mut alg,
            &s,
            vne_model::request::slot_events(&[], 100),
            &mut observer,
            &mut crate::engine::ReembedAll,
        );
        assert!(stats.stopped_early, "the budget must stop the run");
        assert_eq!(stats.slots_run, 7);
        assert_eq!(stop.slots_seen(), 7);
        // Partial statistics are still reported.
        let partial = summary.finish(&stats);
        assert_eq!(partial.arrivals, 0);
        assert_eq!(partial.rejection_rate, 0.0);
    }

    #[test]
    fn tee_stops_when_either_stops() {
        struct Stopper;
        impl SimObserver for Stopper {
            fn on_slot_end(
                &mut self,
                _t: Slot,
                _m: &SlotMetrics,
                _a: &dyn OnlineAlgorithm,
            ) -> SimControl {
                SimControl::Stop
            }
        }
        let mut tee = Tee(NullObserver, Stopper);
        let m = SlotMetrics::default();
        // A dummy algorithm is needed only for the signature; build the
        // cheapest possible one.
        let mut s = vne_model::substrate::SubstrateNetwork::new("t");
        let e = s
            .add_node("e", vne_model::substrate::Tier::Edge, 1.0, 1.0)
            .unwrap();
        let c = s
            .add_node("c", vne_model::substrate::Tier::Core, 1.0, 1.0)
            .unwrap();
        s.add_link(e, c, 1.0, 1.0).unwrap();
        let mut apps = AppSet::new();
        apps.push(
            "a",
            AppShape::Chain,
            shapes::uniform_chain(1, 1.0, 1.0).unwrap(),
        )
        .unwrap();
        let alg =
            vne_olive::olive::Olive::quickg(s, apps, vne_model::policy::PlacementPolicy::default());
        assert_eq!(tee.on_slot_end(0, &m, &alg), SimControl::Stop);
    }
}
