//! The streaming, event-driven simulation engine.
//!
//! [`run_stream_with`] drives an [`OnlineAlgorithm`] over a lazy stream of
//! [`SlotEvents`] (one item per slot): departures are released first,
//! then the slot's arrivals are processed in order (ON-VNE semantics).
//! Instead of materializing the whole trace and a per-request outcome
//! log up front, the engine keeps only the *active* requests — peak
//! memory is `O(active requests)`, independent of the trace length —
//! and reports everything it learns through a [`SimObserver`]:
//!
//! * [`SimObserver::on_arrival`] — one call per request with its
//!   accept/reject decision;
//! * [`SimObserver::on_preemption`] — a previously accepted request was
//!   evicted;
//! * [`SimObserver::on_slot_end`] — per-slot [`SlotMetrics`] plus the
//!   algorithm itself (drill-down inspection), with the option to stop
//!   the simulation early.
//!
//! Ready-made observers live in [`crate::observe`]: a [`Recorder`]
//! collecting the per-request [`RunResult`] log, an `O(classes)`
//! incremental window summary, closure-based inspection, and a tee
//! combinator.
//!
//! [`Recorder`]: crate::observe::Recorder

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Instant;

use vne_model::churn::{ChurnState, EffectiveCapacities};
use vne_model::embedding::Footprint;
use vne_model::ids::{ClassId, IdHashing, LinkId, NodeId, RequestId};
use vne_model::invariant::InvariantViolation;
use vne_model::request::{Request, Slot, SlotEvents};
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};
use vne_model::substrate::SubstrateNetwork;
use vne_olive::algorithm::OnlineAlgorithm;

use crate::calendar::Calendar;

/// Final status of a request after the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// Accepted and never evicted.
    Accepted,
    /// Rejected on arrival.
    Rejected,
    /// Accepted, then preempted at the given slot.
    Preempted(Slot),
}

impl RequestStatus {
    /// Whether the request counts against the rejection rate (rejected on
    /// arrival or preempted later — both incur the rejection cost).
    pub fn is_denied(self) -> bool {
        !matches!(self, RequestStatus::Accepted)
    }
}

/// Outcome of a single request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// The request id.
    pub id: RequestId,
    /// The request class.
    pub class: ClassId,
    /// Arrival slot.
    pub arrival: Slot,
    /// Duration in slots.
    pub duration: Slot,
    /// Demand size.
    pub demand: f64,
    /// Final status.
    pub status: RequestStatus,
}

impl RequestOutcome {
    fn of(request: &Request, status: RequestStatus) -> Self {
        Self {
            id: request.id,
            class: request.class(),
            arrival: request.arrival,
            duration: request.duration,
            demand: request.demand,
            status,
        }
    }
}

impl vne_model::state::StateEncode for RequestStatus {
    fn encode(&self, w: &mut StateWriter) {
        match self {
            RequestStatus::Accepted => w.write_u8(0),
            RequestStatus::Rejected => w.write_u8(1),
            RequestStatus::Preempted(at) => {
                w.write_u8(2);
                w.write_u32(*at);
            }
        }
    }
}

impl vne_model::state::StateDecode for RequestStatus {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        match r.read_u8()? {
            0 => Ok(RequestStatus::Accepted),
            1 => Ok(RequestStatus::Rejected),
            2 => Ok(RequestStatus::Preempted(r.read_u32()?)),
            tag => Err(StateError::Corrupt(format!(
                "invalid request status tag {tag}"
            ))),
        }
    }
}

impl vne_model::state::StateEncode for RequestOutcome {
    fn encode(&self, w: &mut StateWriter) {
        w.write(&self.id);
        w.write(&self.class);
        w.write_u32(self.arrival);
        w.write_u32(self.duration);
        w.write_f64(self.demand);
        w.write(&self.status);
    }
}

impl vne_model::state::StateDecode for RequestOutcome {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(Self {
            id: r.read()?,
            class: r.read()?,
            arrival: r.read_u32()?,
            duration: r.read_u32()?,
            demand: r.read_f64()?,
            status: r.read()?,
        })
    }
}

/// Per-slot aggregate series.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlotMetrics {
    /// Total demand of all requests that *would* be active (accepted or
    /// not) — the "requested" curve of Fig. 8.
    pub requested_demand: f64,
    /// Total demand of active accepted requests — the "allocated" curve.
    pub allocated_demand: f64,
    /// Resource cost of the current loads for this slot (Eq. 3 term).
    pub resource_cost: f64,
}

impl vne_model::state::StateEncode for SlotMetrics {
    fn encode(&self, w: &mut StateWriter) {
        w.write_f64(self.requested_demand);
        w.write_f64(self.allocated_demand);
        w.write_f64(self.resource_cost);
    }
}

impl vne_model::state::StateDecode for SlotMetrics {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(Self {
            requested_demand: r.read_f64()?,
            allocated_demand: r.read_f64()?,
            resource_cost: r.read_f64()?,
        })
    }
}

/// Complete result of one simulation run (as collected by
/// [`crate::observe::Recorder`]).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Algorithm name.
    pub algorithm: String,
    /// One outcome per request, in arrival order.
    pub requests: Vec<RequestOutcome>,
    /// One entry per simulated slot.
    pub slots: Vec<SlotMetrics>,
    /// Wall-clock seconds spent inside the online loop.
    pub online_secs: f64,
}

/// Engine-level counters returned by [`run_stream_with`].
///
/// `peak_active` is the engine's memory high-water mark in requests:
/// the streaming engine holds state only for active accepted requests,
/// so for a stationary workload this stays flat no matter how many
/// slots the stream yields (see the `long_horizon` integration test).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamStats {
    /// Number of slots actually simulated.
    pub slots_run: Slot,
    /// Total arrivals processed.
    pub arrivals: usize,
    /// Maximum number of simultaneously active (accepted) requests —
    /// the engine's O(active) memory bound.
    pub peak_active: usize,
    /// Wall-clock seconds spent inside the online loop.
    pub online_secs: f64,
    /// Whether an observer stopped the run before the stream ended.
    pub stopped_early: bool,
}

impl vne_model::state::StateEncode for StreamStats {
    fn encode(&self, w: &mut StateWriter) {
        w.write_u32(self.slots_run);
        w.write_usize(self.arrivals);
        w.write_usize(self.peak_active);
        w.write_f64(self.online_secs);
        w.write_bool(self.stopped_early);
    }
}

impl vne_model::state::StateDecode for StreamStats {
    fn decode(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(Self {
            slots_run: r.read_u32()?,
            arrivals: r.read_usize()?,
            peak_active: r.read_usize()?,
            online_secs: r.read_f64()?,
            stopped_early: r.read_bool()?,
        })
    }
}

/// Per-slot churn counters: how many churn events the slot carried and
/// what happened to the requests they stranded.
///
/// All-zero on slots without churn (and for whole runs on a static
/// substrate), so the pre-churn golden fingerprints are unaffected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Churn events applied.
    pub events: usize,
    /// Requests stranded by capacity losses (their allocation no longer
    /// fit the effective capacities).
    pub stranded: usize,
    /// Stranded requests permanently lost: not selected for re-embedding
    /// by the [`ReembedPolicy`], or re-offered and rejected.
    pub evicted: usize,
    /// Stranded requests successfully re-embedded in the same slot.
    pub reembedded: usize,
}

impl ChurnStats {
    /// Whether every counter is zero (no churn observed).
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Adds another slot's counters into this cumulative tally.
    pub fn absorb(&mut self, other: &ChurnStats) {
        self.events += other.events;
        self.stranded += other.stranded;
        self.evicted += other.evicted;
        self.reembedded += other.reembedded;
    }
}

/// What to do with requests stranded by a churn capacity loss.
///
/// The engine releases every stranded request's resources through the
/// regular departure path, then asks the policy which of them to
/// *re-offer* to the algorithm in the same slot (same id, remaining
/// duration). Re-offered requests the algorithm re-accepts keep their
/// original accounting; everything else is reported as preempted.
pub trait ReembedPolicy: Send {
    /// Picks the subset of `stranded` (sorted by ascending id) to
    /// re-offer at slot `t`. Ids not in the returned set are evicted.
    fn reembed(&mut self, t: Slot, stranded: &[Request]) -> Vec<RequestId>;
}

/// Re-offer every stranded request (the default policy).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReembedAll;

impl ReembedPolicy for ReembedAll {
    fn reembed(&mut self, _t: Slot, stranded: &[Request]) -> Vec<RequestId> {
        stranded.iter().map(|r| r.id).collect()
    }
}

/// Evict every stranded request (no second chance).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvictAll;

impl ReembedPolicy for EvictAll {
    fn reembed(&mut self, _t: Slot, _stranded: &[Request]) -> Vec<RequestId> {
        Vec::new()
    }
}

/// Config-level selector for the builtin [`ReembedPolicy`] impls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReembedKind {
    /// Re-offer every stranded request ([`ReembedAll`]).
    #[default]
    Reembed,
    /// Evict every stranded request ([`EvictAll`]).
    Evict,
}

impl ReembedKind {
    /// Instantiates the selected policy.
    pub fn policy(self) -> Box<dyn ReembedPolicy> {
        match self {
            ReembedKind::Reembed => Box::new(ReembedAll),
            ReembedKind::Evict => Box::new(EvictAll),
        }
    }
}

/// Observer verdict after each slot: keep going or stop the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimControl {
    /// Continue with the next slot.
    Continue,
    /// Stop the simulation after this slot (early stop).
    Stop,
}

/// Per-slot callbacks invoked by [`run_stream_with`].
///
/// All methods have no-op defaults, so an observer implements only what
/// it needs. Observers compose with [`crate::observe::Tee`].
pub trait SimObserver {
    /// A new slot begins (before departures are released).
    fn on_slot_start(&mut self, _t: Slot) {}

    /// The slot carried substrate churn: `churn` holds this slot's
    /// counters. Called after [`SimObserver::on_slot_start`] and before
    /// the arrival/preemption callbacks, and only on slots whose
    /// counters are non-zero.
    fn on_churn(&mut self, _t: Slot, _churn: &ChurnStats) {}

    /// An arriving request was decided: `outcome.status` is
    /// [`RequestStatus::Accepted`] or [`RequestStatus::Rejected`].
    /// Called once per request, in processing order.
    fn on_arrival(&mut self, _outcome: &RequestOutcome) {}

    /// A previously accepted request was evicted; `outcome.status` is
    /// [`RequestStatus::Preempted`] and supersedes the `Accepted`
    /// outcome reported for the same id earlier.
    fn on_preemption(&mut self, _outcome: &RequestOutcome) {}

    /// The slot is complete: aggregate metrics plus the algorithm for
    /// drill-down inspection (downcast via
    /// [`OnlineAlgorithm::as_any`]). Return [`SimControl::Stop`] to end
    /// the run early.
    fn on_slot_end(
        &mut self,
        _t: Slot,
        _metrics: &SlotMetrics,
        _algorithm: &dyn OnlineAlgorithm,
    ) -> SimControl {
        SimControl::Continue
    }

    /// The slot is fully committed: invoked after
    /// [`SimObserver::on_slot_end`] with a checkpointable [`EngineView`]
    /// of the engine's internal state — **including when the slot's
    /// `on_slot_end` asked to stop**, so an early-stopped run still
    /// leaves a restorable checkpoint at its final slot (see
    /// [`crate::observe::Checkpointer`]).
    fn on_slot_committed(&mut self, _view: &EngineView<'_>) {}
}

/// Blanket impl so `&mut observer` can be passed down call chains.
impl<O: SimObserver + ?Sized> SimObserver for &mut O {
    fn on_slot_start(&mut self, t: Slot) {
        (**self).on_slot_start(t);
    }
    fn on_churn(&mut self, t: Slot, churn: &ChurnStats) {
        (**self).on_churn(t, churn);
    }
    fn on_arrival(&mut self, outcome: &RequestOutcome) {
        (**self).on_arrival(outcome);
    }
    fn on_preemption(&mut self, outcome: &RequestOutcome) {
        (**self).on_preemption(outcome);
    }
    fn on_slot_end(
        &mut self,
        t: Slot,
        metrics: &SlotMetrics,
        algorithm: &dyn OnlineAlgorithm,
    ) -> SimControl {
        (**self).on_slot_end(t, metrics, algorithm)
    }
    fn on_slot_committed(&mut self, view: &EngineView<'_>) {
        (**self).on_slot_committed(view);
    }
}

/// The engine's mutable state between slots: the `O(active)` working
/// set (the engine loop, [`EngineState::run`], keeps nothing else) —
/// what checkpoints serialize and [`restore_engine`] rebuilds.
#[derive(Debug, Clone, Default)]
pub struct EngineState {
    /// Active accepted requests (the O(active) working set). Hashed, so
    /// an accept and a departure cost O(1): read by key on the decision
    /// path, and every reader whose result could show the iteration
    /// order sorts by id first ([`EngineState::alive_by_id`]).
    alive: HashMap<RequestId, Request, IdHashing>,
    /// Departure calendar: per slot, the accepted request ids departing
    /// then (in acceptance order — the order departures are released
    /// in) and the requested demand departing then (all arrivals,
    /// accepted or not — the "requested" curve of Fig. 8). One record
    /// per slot in a dense window over the near slots, far slots in an
    /// ordered overflow: a booking and a release cost O(1) amortised,
    /// and memory stays bounded for departures up to `Slot::MAX`. A
    /// checkpoint writes it as two maps (see the `Snapshot` impl).
    calendar: Calendar,
    requested_active: f64,
    allocated_active: f64,
    stats: StreamStats,
    /// The lowest slot the next event may carry (slots strictly
    /// increase); after a resume this is `checkpoint slot + 1`.
    next_min_slot: u64,
    /// Folded substrate churn, lazily created on the first churn event
    /// (`None` on a static substrate, so churn-free runs cost nothing).
    churn: Option<ChurnState>,
}

impl EngineState {
    /// The state of a run that has not processed any slot.
    pub fn fresh() -> Self {
        Self::default()
    }

    /// The active requests in ascending id order — the order the
    /// snapshot writes and the audit sums in, whatever order the hashed
    /// map visits its entries in.
    fn alive_by_id(&self) -> Vec<&Request> {
        let mut alive: Vec<&Request> = self.alive.values().collect();
        alive.sort_unstable_by_key(|r| r.id);
        alive
    }

    /// The engine counters accumulated so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Number of currently active (accepted) requests.
    pub fn active_count(&self) -> usize {
        self.alive.len()
    }

    /// The first slot the next event may carry.
    pub fn next_slot(&self) -> u64 {
        self.next_min_slot
    }

    /// The folded churn state, if any churn event has been applied.
    pub fn churn_state(&self) -> Option<&ChurnState> {
        self.churn.as_ref()
    }

    /// Whether a request admitted earlier is still active (holding
    /// resources) at the current slot boundary.
    pub fn is_active(&self, id: RequestId) -> bool {
        self.alive.contains_key(&id)
    }

    /// Overwrites the wall-clock counter [`StreamStats::online_secs`].
    /// External drivers own wall-clock accounting (see
    /// [`EngineState::step`]); [`crate::metrics::Summary::fingerprint`]
    /// ignores this field, so it never perturbs determinism checks.
    pub fn set_online_secs(&mut self, secs: f64) {
        self.stats.online_secs = secs;
    }

    /// Overwrites the allocated-demand counter. Test seam for the
    /// `strict-invariants` auditor (corrupts state on purpose so the
    /// audit can be shown to catch it); never called by the engine.
    #[doc(hidden)]
    pub fn debug_set_allocated_active(&mut self, value: f64) {
        self.allocated_active = value;
    }

    /// Drops the departure calendar, leaving alive requests with no
    /// scheduled departure. Test seam for the `strict-invariants`
    /// auditor; never called by the engine.
    #[doc(hidden)]
    pub fn debug_clear_departures(&mut self) {
        self.calendar.clear_departures();
    }

    /// Schedules an active request to depart at the next stepped slot,
    /// ahead of its natural expiry — the `DEPART`-initiated early
    /// release used by the `vne-serve` daemon. Returns whether the
    /// request was active (and is now scheduled); an unknown or already
    /// departed id returns `false` and changes nothing.
    ///
    /// The request's resources are freed through the regular departure
    /// path when the next slot is stepped, so the algorithm sees an
    /// ordinary departure. Its original calendar entry becomes stale,
    /// which is harmless: the drain releases only ids still alive (the
    /// same property the churn eviction path relies on). The
    /// *requested*-demand curve keeps the original duration — early
    /// release frees capacity, it does not rewrite what was asked for.
    pub fn release_early(&mut self, id: RequestId) -> bool {
        if !self.alive.contains_key(&id) {
            return false;
        }
        let slot = Slot::try_from(self.next_min_slot).unwrap_or(Slot::MAX);
        self.calendar.book_departure(slot, id);
        true
    }

    /// Advances the engine through exactly one slot — the public
    /// single-slot seam used by external drivers such as the shard
    /// coordinator. This is the *identical* per-slot code path
    /// [`run_stream_with`] executes (slot assertion, departures, churn,
    /// algorithm step, counter fold, observer fan-out up to
    /// [`SimObserver::on_slot_end`]); `N` calls over the same slot
    /// events produce byte-identical observer state and stats to one
    /// `run_stream_with` over those events (pinned by the `actor_seam`
    /// parity test).
    ///
    /// What the caller still owns, mirroring the tail of the engine
    /// loop: updating [`StreamStats::online_secs`] (wall-clock is the
    /// driver's), emitting [`SimObserver::on_slot_committed`] with
    /// [`EngineState::view`] (checkpoint cadence), and honoring the
    /// returned [`SimControl`] (setting
    /// [`StreamStats::stopped_early`] if it stops).
    ///
    /// # Panics
    ///
    /// Panics like [`run_stream_with`] if `event.slot` is not strictly
    /// greater than every slot stepped before.
    pub fn step<O>(
        &mut self,
        algorithm: &mut dyn OnlineAlgorithm,
        substrate: &SubstrateNetwork,
        event: SlotEvents,
        observer: &mut O,
        policy: &mut dyn ReembedPolicy,
    ) -> (SlotStep, SimControl)
    where
        O: SimObserver + ?Sized,
    {
        let t = event.slot;
        observer.on_slot_start(t);
        let step = advance_slot(self, algorithm, substrate, event, policy);
        if !step.churn.is_empty() {
            observer.on_churn(t, &step.churn);
        }
        for outcome in &step.arrivals {
            observer.on_arrival(outcome);
        }
        for outcome in &step.preemptions {
            observer.on_preemption(outcome);
        }
        let control = observer.on_slot_end(t, &step.metrics, algorithm);
        (step, control)
    }

    /// The one engine loop: steps `events` through [`EngineState::step`]
    /// from wherever this state stands — a [`EngineState::fresh`] state
    /// for a run from slot 0 ([`run_stream_with`] is exactly that), a
    /// [`restore_engine`]d state to finish a checkpointed run. After
    /// every slot it stamps [`StreamStats::online_secs`] (accumulating
    /// across resumed segments), emits
    /// [`SimObserver::on_slot_committed`], and honors an observer's
    /// [`SimControl::Stop`].
    ///
    /// `events` must start at [`EngineState::next_slot`] or later: a
    /// resume feeds the stream's suffix, never the slots the checkpoint
    /// already consumed. With `algorithm`, `substrate` and `policy` those
    /// of the checkpointed run, the finished run is **byte-identical** to
    /// the uninterrupted one — the guarantee pinned by the
    /// resume-determinism test battery.
    ///
    /// # Panics
    ///
    /// Panics if the stream yields a slot below
    /// [`EngineState::next_slot`] or not strictly greater than its
    /// predecessor.
    pub fn run<E, O>(
        &mut self,
        algorithm: &mut dyn OnlineAlgorithm,
        substrate: &SubstrateNetwork,
        events: E,
        observer: &mut O,
        policy: &mut dyn ReembedPolicy,
    ) -> StreamStats
    where
        E: IntoIterator<Item = SlotEvents>,
        O: SimObserver + ?Sized,
    {
        // Online seconds accumulate across resumed segments.
        let base_secs = self.stats.online_secs;
        // audit:allow(D2, "set_online_secs feeder: the engine loop stamps stats.online_secs")
        let started = Instant::now();
        for event in events {
            let (_step, control) = self.step(algorithm, substrate, event, observer, policy);
            // The commit hook fires even when this slot's on_slot_end asked
            // to stop: a budgeted run must leave a checkpoint at its final
            // slot (the StopAfter-on-checkpoint-slot regression).
            self.stats.online_secs = base_secs + started.elapsed().as_secs_f64();
            observer.on_slot_committed(&self.view(&*algorithm));
            if control == SimControl::Stop {
                self.stats.stopped_early = true;
                break;
            }
        }
        self.stats.online_secs = base_secs + started.elapsed().as_secs_f64();
        self.stats
    }

    /// Re-imposes the folded churn state's effective capacities on
    /// `algorithm` (no-op when the state carries no churn). Effective
    /// capacities are absolute, so this is idempotent — the
    /// post-restore fixup shared by [`restore_engine`] and external
    /// multi-engine drivers (the shard coordinator) restoring per-shard
    /// states, whose algorithm blobs snapshot loads but not churned
    /// capacities.
    pub fn reapply_churn(&self, algorithm: &mut dyn OnlineAlgorithm, substrate: &SubstrateNetwork) {
        if let Some(churn) = &self.churn {
            algorithm.apply_churn(&churn.effective(substrate));
        }
    }

    /// A live, checkpointable [`EngineView`] of the engine after the
    /// most recently stepped slot — what external drivers hand to
    /// [`SimObserver::on_slot_committed`] (and through it to a
    /// [`crate::observe::Checkpointer`]) after each [`EngineState::step`].
    ///
    /// # Panics
    ///
    /// Panics if no slot has been stepped yet (there is no committed
    /// slot to view).
    pub fn view<'a>(&'a self, algorithm: &'a dyn OnlineAlgorithm) -> EngineView<'a> {
        assert!(
            self.next_min_slot > 0,
            "EngineState::view requires at least one stepped slot"
        );
        EngineView {
            slot: (self.next_min_slot - 1) as Slot,
            stats: self.stats,
            active: self.active_count(),
            source: ViewSource::Live {
                state: self,
                algorithm,
            },
        }
    }
}

/// Checkpointing: everything [`run_stream_with`] keeps between slots. The
/// `alive` map is hashed, so the snapshot sorts it and lists the active
/// requests in ascending id order; a restore refuses a list that is not
/// strictly ascending (a duplicate would leave the allocated-demand
/// counter disagreeing with the map). The departure calendar is one
/// structure in memory and two maps in the checkpoint, `slot → departing
/// ids` then `slot → requested drop`, each in ascending slot order; the
/// per-slot id lists keep their order (it is the release order, and
/// release order feeds the algorithm's departure slice).
impl Snapshot for EngineState {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write_seq(self.alive_by_id().into_iter());
        self.calendar.encode(&mut w);
        w.write_f64(self.requested_active);
        w.write_f64(self.allocated_active);
        w.write(&self.stats);
        w.write_u64(self.next_min_slot);
        w.write(&self.churn);
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        let alive_list: Vec<Request> = r.read_seq()?;
        let departures_at: BTreeMap<Slot, Vec<RequestId>> = r.read()?;
        let requested_drop: BTreeMap<Slot, f64> = r.read()?;
        let requested_active = r.read_f64()?;
        let allocated_active = r.read_f64()?;
        let stats: StreamStats = r.read()?;
        let next_min_slot = r.read_u64()?;
        let churn: Option<ChurnState> = r.read()?;
        r.finish()?;
        if let Some(pair) = alive_list.windows(2).find(|pair| pair[0].id >= pair[1].id) {
            return Err(StateError::Corrupt(format!(
                "engine alive list not strictly ascending by id: {} then {}",
                pair[0].id, pair[1].id
            )));
        }
        self.alive = alive_list.into_iter().map(|r| (r.id, r)).collect();
        self.calendar = Calendar::from_maps(next_min_slot, departures_at, requested_drop);
        self.requested_active = requested_active;
        self.allocated_active = allocated_active;
        self.stats = stats;
        self.next_min_slot = next_min_slot;
        self.churn = churn;
        Ok(())
    }
}

/// The engine+algorithm state an external multi-engine driver (the
/// shard coordinator) assembles on demand inside
/// [`EngineView::deferred`] — what an [`EngineView`] checkpoints when it
/// cannot borrow one live engine. The blobs are a composite over every
/// shard's state rather than a single engine snapshot; a driver whose
/// algorithm cannot snapshot reports [`StateError::Unsupported`] instead
/// of a capture, as the live path would.
#[derive(Debug, Clone)]
pub struct EngineCapture {
    /// The driver-defined composite of its engines' state snapshots.
    pub engine: StateBlob,
    /// The driver-defined composite of its algorithms' state snapshots.
    pub algorithm_state: StateBlob,
}

/// Where an [`EngineView`] gets its state from: a live borrow of the
/// engine loop, or a deferred capture produced only if a checkpoint is
/// actually taken.
enum ViewSource<'a> {
    Live {
        state: &'a EngineState,
        algorithm: &'a dyn OnlineAlgorithm,
    },
    Deferred {
        algorithm_name: &'a str,
        produce: &'a dyn Fn() -> Result<EngineCapture, StateError>,
    },
}

/// A checkpointable view of the engine handed to
/// [`SimObserver::on_slot_committed`] after every slot.
///
/// The engine loop hands out a borrow of the live engine and algorithm;
/// the shard coordinator hands out a deferred composite capture
/// ([`EngineView::deferred`]). Either way, [`EngineView::checkpoint`]
/// produces the slot's [`EngineCheckpoint`].
pub struct EngineView<'a> {
    slot: Slot,
    stats: StreamStats,
    active: usize,
    source: ViewSource<'a>,
}

impl fmt::Debug for EngineView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineView")
            .field("slot", &self.slot)
            .field("algorithm", &self.algorithm_name())
            .field("active", &self.active)
            .finish()
    }
}

impl<'a> EngineView<'a> {
    /// A view whose state capture is produced lazily, the seam for
    /// external multi-engine drivers (the shard coordinator): `produce`
    /// is invoked only if [`EngineView::checkpoint`] is actually called
    /// on this view, so emitting the commit hook every slot costs
    /// nothing on slots nobody checkpoints.
    ///
    /// `stats` and `active` are the driver's *merged* counters as of
    /// this slot; `produce` returns the (possibly composite) capture or
    /// the error to surface from `checkpoint`.
    pub fn deferred(
        slot: Slot,
        stats: StreamStats,
        active: usize,
        algorithm_name: &'a str,
        produce: &'a dyn Fn() -> Result<EngineCapture, StateError>,
    ) -> Self {
        Self {
            slot,
            stats,
            active,
            source: ViewSource::Deferred {
                algorithm_name,
                produce,
            },
        }
    }

    /// The slot that just committed.
    pub fn slot(&self) -> Slot {
        self.slot
    }

    /// The engine counters as of this slot.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Number of active (accepted) requests after the slot.
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// The running algorithm's name.
    pub fn algorithm_name(&self) -> &'a str {
        match self.source {
            ViewSource::Live { algorithm, .. } => algorithm.name(),
            ViewSource::Deferred { algorithm_name, .. } => algorithm_name,
        }
    }

    /// Serializes a full [`EngineCheckpoint`] at this slot. The caller
    /// supplies the serialized state of whatever observers must survive
    /// the resume (e.g. a [`crate::observe::WindowSummary`] snapshot) —
    /// the engine cannot see them, only their owner can.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Unsupported`] when the running algorithm
    /// does not implement [`OnlineAlgorithm::snapshot_state`], or the
    /// error a deferred view's capture producer reports.
    pub fn checkpoint(&self, observer_state: StateBlob) -> Result<EngineCheckpoint, StateError> {
        match self.source {
            ViewSource::Live { state, algorithm } => {
                let algorithm_state = algorithm.snapshot_state().ok_or_else(|| {
                    StateError::Unsupported(format!("algorithm {}", algorithm.name()))
                })?;
                Ok(EngineCheckpoint {
                    slot: self.slot,
                    algorithm: algorithm.name().to_string(),
                    engine: state.snapshot(),
                    algorithm_state,
                    observer_state,
                })
            }
            ViewSource::Deferred {
                algorithm_name,
                produce,
            } => {
                let capture = produce()?;
                Ok(EngineCheckpoint {
                    slot: self.slot,
                    algorithm: algorithm_name.to_string(),
                    engine: capture.engine,
                    algorithm_state: capture.algorithm_state,
                    observer_state,
                })
            }
        }
    }
}

/// A complete, serializable snapshot of a streaming run after one slot:
/// enough to finish the run later ([`restore_engine`], then
/// [`EngineState::run`]) or to branch what-if forks from the middle of a
/// stream ([`crate::scenario::Scenario::drive`]), with results
/// byte-identical to the uninterrupted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineCheckpoint {
    /// The last slot the checkpointed run completed; the resume
    /// consumes events from `slot + 1` on.
    pub slot: Slot,
    /// Name of the algorithm that produced `algorithm_state` (validated
    /// on resume).
    pub algorithm: String,
    /// The [`EngineState`] snapshot.
    pub engine: StateBlob,
    /// The algorithm's [`OnlineAlgorithm::snapshot_state`] blob.
    pub algorithm_state: StateBlob,
    /// The resumable observer state (owner-defined; often a
    /// [`crate::observe::WindowSummary`] snapshot).
    pub observer_state: StateBlob,
}

impl EngineCheckpoint {
    /// Magic + version prefix of the serialized form. V2 added the
    /// folded churn state to the engine blob; V3 is OLIVE's blob naming
    /// a plan column per plan-following request where V2 copied the
    /// column's footprint.
    pub const MAGIC: [u8; 8] = *b"VNECKPT3";

    /// The pre-churn V1 magic, refused with a descriptive error.
    pub const LEGACY_MAGIC_V1: [u8; 8] = *b"VNECKPT1";

    /// The V2 magic, refused with a descriptive error.
    pub const LEGACY_MAGIC_V2: [u8; 8] = *b"VNECKPT2";

    /// The string a `k > 1` shard coordinator's engine blob opens with
    /// (`vne_shard::checkpoint::ShardCheckpoint`), so a resume expecting
    /// one engine refuses it by name rather than failing mid-decode.
    pub const SHARDED_TAG: &'static str = "SHRDENG1";

    /// Whether this checkpoint holds a `k > 1` shard coordinator's state
    /// (its engine blob opens with [`EngineCheckpoint::SHARDED_TAG`])
    /// rather than one engine's.
    pub fn is_sharded(&self) -> bool {
        StateReader::new(&self.engine)
            .read_str()
            .is_ok_and(|tag| tag == Self::SHARDED_TAG)
    }

    /// Serializes the checkpoint for storage, into a buffer of exactly
    /// the encoded length: holders of the bytes keep no spare capacity.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Magic, slot, then four length-prefixed fields.
        let len = Self::MAGIC.len()
            + 4
            + 4 * 8
            + self.algorithm.len()
            + self.engine.len()
            + self.algorithm_state.len()
            + self.observer_state.len();
        let mut w = StateWriter::with_capacity(len);
        for b in Self::MAGIC {
            w.write_u8(b);
        }
        w.write_u32(self.slot);
        w.write_str(&self.algorithm);
        w.write_blob(&self.engine);
        w.write_blob(&self.algorithm_state);
        w.write_blob(&self.observer_state);
        w.finish().into_bytes()
    }

    /// Parses a checkpoint serialized by [`EngineCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] on bad magic or malformed content.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StateError> {
        let mut r = StateReader::from_bytes(bytes);
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = r.read_u8()?;
        }
        if magic == Self::LEGACY_MAGIC_V1 {
            return Err(StateError::Corrupt(
                "legacy V1 engine checkpoint: its engine state predates substrate churn \
                 and cannot be resumed by this version; re-run from scratch"
                    .into(),
            ));
        }
        if magic == Self::LEGACY_MAGIC_V2 {
            return Err(StateError::Corrupt(
                "legacy V2 engine checkpoint: its OLIVE state copies plan footprints where \
                 this version reads plan column references; re-run from scratch"
                    .into(),
            ));
        }
        if magic != Self::MAGIC {
            return Err(StateError::Corrupt(format!(
                "bad checkpoint magic {magic:02x?}"
            )));
        }
        let checkpoint = Self {
            slot: r.read_u32()?,
            algorithm: r.read_str()?,
            engine: r.read_blob()?,
            algorithm_state: r.read_blob()?,
            observer_state: r.read_blob()?,
        };
        r.finish()?;
        Ok(checkpoint)
    }
}

/// Runs `algorithm` over a lazy stream of slot events from slot 0 —
/// [`EngineState::run`] on a [`EngineState::fresh`] state; `policy`
/// decides the fate of requests stranded by substrate churn (churn-free
/// streams never consult it).
///
/// Slots must be yielded in strictly increasing order (enforced by an
/// assertion); quiet slots may be skipped — departures falling into a
/// gap are released at the next yielded slot, and only yielded slots
/// get a [`SimObserver::on_slot_end`] call. Use
/// [`vne_model::request::slot_events`] to adapt a pre-collected trace.
/// Engine state is bounded by the number of simultaneously active
/// requests: departures of accepted requests are scheduled in a
/// calendar keyed by departure slot, and the requested-demand curve is
/// maintained incrementally.
///
/// # Panics
///
/// Panics if the stream yields a slot that is not strictly greater
/// than its predecessor.
pub fn run_stream_with<E, O>(
    algorithm: &mut dyn OnlineAlgorithm,
    substrate: &SubstrateNetwork,
    events: E,
    observer: &mut O,
    policy: &mut dyn ReembedPolicy,
) -> StreamStats
where
    E: IntoIterator<Item = SlotEvents>,
    O: SimObserver + ?Sized,
{
    EngineState::fresh().run(algorithm, substrate, events, observer, policy)
}

/// Restores a checkpoint into a live [`EngineState`] without driving
/// any events — the first half of every resume: follow it with
/// [`EngineState::run`] over the events from [`EngineState::next_slot`]
/// on, or (external drivers such as the shard coordinator) step the
/// engine yourself via [`EngineState::step`]. `observer` is whatever owns
/// the checkpoint's observer blob; it need not be the observer the
/// resumed run is driven with.
///
/// Restores, in order: the algorithm's state blob (after checking its
/// [`OnlineAlgorithm::name`] against the checkpoint), the observer, the
/// engine counters/calendar, and — if the checkpoint carries folded
/// churn — re-imposes the effective capacities on the algorithm
/// (idempotent: effective capacities are absolute). The returned
/// state's `stopped_early` flag is cleared so the resumed segment gets
/// its own early-stop verdict; its [`EngineState::next_slot`] tells the
/// caller which slots the checkpoint already consumed.
///
/// # Errors
///
/// Returns a [`StateError`] when the algorithm's name does not match
/// the checkpoint or any blob fails to restore.
pub fn restore_engine<O>(
    checkpoint: &EngineCheckpoint,
    algorithm: &mut dyn OnlineAlgorithm,
    substrate: &SubstrateNetwork,
    observer: &mut O,
) -> Result<EngineState, StateError>
where
    O: Snapshot + ?Sized,
{
    if algorithm.name() != checkpoint.algorithm {
        return Err(StateError::Mismatch {
            expected: format!("algorithm {}", checkpoint.algorithm),
            found: format!("algorithm {}", algorithm.name()),
        });
    }
    if checkpoint.is_sharded() {
        return Err(StateError::Mismatch {
            expected: "a monolithic engine checkpoint".into(),
            found: "a packed multi-shard checkpoint (resume it with a shard coordinator)".into(),
        });
    }
    algorithm.restore_state(&checkpoint.algorithm_state)?;
    observer.restore(&checkpoint.observer_state)?;
    let mut state = EngineState::fresh();
    state.restore(&checkpoint.engine)?;
    // The algorithm blob does not carry churned capacities (ledgers
    // snapshot loads only); re-derive them from the folded churn state.
    state.reapply_churn(algorithm, substrate);
    // The resumed segment gets its own early-stop verdict.
    state.stats.stopped_early = false;
    Ok(state)
}

/// Everything one slot produces for the observer side: the decided
/// arrival outcomes (in processing order), the preemption outcomes (in
/// the algorithm's eviction order) and the slot metrics. Returned by
/// [`EngineState::step`] so external drivers (the shard coordinator)
/// can route per-request decisions without a private copy of the slot
/// loop.
#[derive(Debug, Clone)]
pub struct SlotStep {
    /// Decided arrival outcomes, in processing order (`Accepted` or
    /// `Rejected`).
    pub arrivals: Vec<RequestOutcome>,
    /// Preemption outcomes: churn evictions first, then the algorithm's
    /// own evictions in its order.
    pub preemptions: Vec<RequestOutcome>,
    /// Aggregate metrics after the slot.
    pub metrics: SlotMetrics,
    /// The slot's churn counters (all-zero without churn).
    pub churn: ChurnStats,
}

/// Finds the requests stranded by a capacity loss: with the slot's
/// scheduled departures already discounted (the algorithm releases them
/// inside `process_slot`, so its ledger still carries their loads),
/// evicts alive requests newest-first until no element exceeds its
/// effective capacity. Requests whose footprint the algorithm cannot
/// report (`footprint_of` → `None`) are never selected — such
/// algorithms self-heal on their next `process_slot`.
///
/// Returns the stranded requests sorted by ascending id.
fn find_stranded(
    state: &EngineState,
    algorithm: &dyn OnlineAlgorithm,
    departures: &[Request],
    effective: &EffectiveCapacities,
) -> Vec<Request> {
    let loads = algorithm.loads();
    let mut node_load: Vec<f64> = (0..effective.node.len())
        .map(|i| loads.node_load(NodeId::from_index(i)))
        .collect();
    let mut link_load: Vec<f64> = (0..effective.link.len())
        .map(|i| loads.link_load(LinkId::from_index(i)))
        .collect();
    for d in departures {
        if let Some(fp) = algorithm.footprint_of(d.id) {
            for &(n, x) in fp.nodes() {
                node_load[n.index()] -= x * d.demand;
            }
            for &(l, x) in fp.links() {
                link_load[l.index()] -= x * d.demand;
            }
        }
    }
    let tol = |cap: f64| vne_model::load::CAPACITY_EPS * cap.max(1.0);
    let over_node = |load: &[f64], n: usize| load[n] > effective.node[n] + tol(effective.node[n]);
    let over_link = |load: &[f64], l: usize| load[l] > effective.link[l] + tol(effective.link[l]);
    // Elements over capacity, kept as the walk subtracts loads.
    let mut over = (0..node_load.len())
        .filter(|&n| over_node(&node_load, n))
        .count()
        + (0..link_load.len())
            .filter(|&l| over_link(&link_load, l))
            .count();

    let mut stranded = Vec::new();
    if over == 0 {
        return stranded;
    }
    // Newest-first (descending id): later acceptances yield to earlier
    // ones, mirroring the seniority order of the arrival sequence.
    for r in state.alive_by_id().into_iter().rev() {
        if over == 0 {
            break;
        }
        let Some(fp) = algorithm.footprint_of(r.id) else {
            continue;
        };
        // Skip requests whose allocation touches no overloaded element.
        let contributes = fp
            .nodes()
            .iter()
            .any(|&(n, x)| x * r.demand > 0.0 && over_node(&node_load, n.index()))
            || fp
                .links()
                .iter()
                .any(|&(l, x)| x * r.demand > 0.0 && over_link(&link_load, l.index()));
        if !contributes {
            continue;
        }
        for &(n, x) in fp.nodes() {
            let was = over_node(&node_load, n.index());
            node_load[n.index()] -= x * r.demand;
            over = over + usize::from(over_node(&node_load, n.index())) - usize::from(was);
        }
        for &(l, x) in fp.links() {
            let was = over_link(&link_load, l.index());
            link_load[l.index()] -= x * r.demand;
            over = over + usize::from(over_link(&link_load, l.index())) - usize::from(was);
        }
        stranded.push(r.clone());
    }
    stranded.sort_unstable_by_key(|r| r.id);
    stranded
}

/// Whether the ids in `accepted` (sorted) and `rejected` name every
/// offered request exactly once between them, and nothing else.
fn decides_each_offer_once(
    offered: &[Request],
    accepted: &[RequestId],
    rejected: &[RequestId],
) -> bool {
    let mut rejected = rejected.to_vec();
    rejected.sort_unstable();
    // Offered ids are distinct, so once each leaves no room for more.
    accepted.len() + rejected.len() == offered.len()
        && offered
            .iter()
            .all(|r| accepted.binary_search(&r.id).is_ok() != rejected.binary_search(&r.id).is_ok())
}

/// Advances the engine state through one slot: releases departures,
/// runs the algorithm, applies acceptances/preemptions, and updates the
/// counters (everything except observer dispatch and wall-clock).
fn advance_slot(
    state: &mut EngineState,
    algorithm: &mut dyn OnlineAlgorithm,
    substrate: &SubstrateNetwork,
    event: SlotEvents,
    policy: &mut dyn ReembedPolicy,
) -> SlotStep {
    let t = event.slot;
    // `slots_run = t + 1` must fit a `Slot`; refused before anything moves.
    assert!(t < Slot::MAX, "slot horizon exhausted at {t}");
    assert!(
        u64::from(t) >= state.next_min_slot,
        "slot events must be strictly increasing (got slot {t} after {})",
        state.next_min_slot - 1
    );
    state.next_min_slot = u64::from(t) + 1;

    // Departures of accepted-and-still-alive requests, up to and
    // including this slot (a sparse stream may skip quiet slots;
    // departures falling into the gap are released now).
    let mut departures: Vec<Request> = Vec::new();
    state.calendar.release_through(t, |due| {
        for id in due.departing.into_iter().flatten() {
            if let Some(r) = state.alive.remove(&id) {
                state.allocated_active -= r.demand;
                departures.push(r);
            }
        }
        if let Some(drop) = due.drop {
            state.requested_active -= drop;
        }
    });

    // Substrate churn takes effect before this slot's arrivals: fold
    // the events, hand the algorithm its new effective capacities,
    // detect stranded requests, and route them through the policy.
    // Stranded requests are released via the regular departure path (the
    // algorithm frees their resources inside `process_slot`); the subset
    // the policy re-offers is prepended to the arrivals with the same id
    // and the remaining duration — ids stay ascending because stranded
    // requests predate every new arrival.
    let mut churn_stats = ChurnStats::default();
    let mut preemptions: Vec<RequestOutcome> = Vec::new();
    let mut reoffer_originals: BTreeMap<RequestId, Request> = BTreeMap::new();
    let mut offered: Vec<Request> = Vec::new();
    if !event.churn.is_empty() {
        churn_stats.events = event.churn.len();
        let churn = state
            .churn
            .get_or_insert_with(|| ChurnState::pristine(substrate));
        for ev in &event.churn {
            churn.apply(ev);
        }
        let effective = churn.effective(substrate);
        algorithm.apply_churn(&effective);

        let stranded = find_stranded(state, algorithm, &departures, &effective);
        churn_stats.stranded = stranded.len();
        if !stranded.is_empty() {
            let mut chosen = policy.reembed(t, &stranded);
            chosen.sort_unstable();
            for original in stranded {
                let original = state
                    .alive
                    .remove(&original.id)
                    .expect("stranded requests are alive");
                state.allocated_active -= original.demand;
                // The stale departure-calendar entry at the original
                // departure slot stays; release checks `alive` first.
                departures.push(original.clone());
                if chosen.binary_search(&original.id).is_ok() {
                    // Remaining duration ≥ 1: alive means departure > t.
                    offered.push(Request {
                        id: original.id,
                        arrival: t,
                        duration: original.departure() - t,
                        ingress: original.ingress,
                        app: original.app,
                        demand: original.demand,
                    });
                    reoffer_originals.insert(original.id, original);
                } else {
                    churn_stats.evicted += 1;
                    preemptions.push(RequestOutcome::of(&original, RequestStatus::Preempted(t)));
                }
            }
            offered.sort_unstable_by_key(|r| r.id);
        }
    }

    let arrivals = event.arrivals;
    let new_arrivals = arrivals.len();
    // Re-offers do not touch the requested curve: their original arrival
    // already counted, and their departure slot is unchanged.
    for r in &arrivals {
        state.requested_active += r.demand;
        state.calendar.book_drop(r.departure(), r.demand);
    }
    offered.extend(arrivals);
    let outcome = algorithm.process_slot(t, &departures, &offered);
    state.stats.arrivals += new_arrivals;
    // Looked up by id, so the order an algorithm reports in never shows.
    let mut accepted_ids = outcome.accepted;
    accepted_ids.sort_unstable();
    debug_assert!(
        decides_each_offer_once(&offered, &accepted_ids, &outcome.rejected),
        "slot {t}: every offered request must be accepted or rejected, once, and nothing else"
    );

    let mut arrival_outcomes = Vec::with_capacity(new_arrivals);
    for r in offered {
        let accepted = accepted_ids.binary_search(&r.id).is_ok();
        if let Some(original) = reoffer_originals.remove(&r.id) {
            // A re-offered stranded request: re-accepted keeps its
            // original accounting (no new arrival outcome — the id was
            // reported accepted at its original arrival); rejected means
            // it is preempted now.
            if accepted {
                churn_stats.reembedded += 1;
                state.allocated_active += original.demand;
                state.alive.insert(original.id, original);
            } else {
                churn_stats.evicted += 1;
                preemptions.push(RequestOutcome::of(&original, RequestStatus::Preempted(t)));
            }
            continue;
        }
        let status = if accepted {
            RequestStatus::Accepted
        } else {
            RequestStatus::Rejected
        };
        arrival_outcomes.push(RequestOutcome::of(&r, status));
        if accepted {
            state.allocated_active += r.demand;
            state.calendar.book_departure(r.departure(), r.id);
            state.alive.insert(r.id, r);
        }
    }
    state.stats.peak_active = state.stats.peak_active.max(state.alive.len());
    for &p in &outcome.preempted {
        if let Some(r) = state.alive.remove(&p) {
            state.allocated_active -= r.demand;
            preemptions.push(RequestOutcome::of(&r, RequestStatus::Preempted(t)));
        }
    }

    let metrics = SlotMetrics {
        requested_demand: state.requested_active,
        allocated_demand: state.allocated_active,
        resource_cost: algorithm.loads().cost_per_slot(substrate),
    };
    state.stats.slots_run = t + 1;

    #[cfg(feature = "strict-invariants")]
    vne_model::invariant::enforce(&format!("engine slot {t}"), &audit_engine(state, algorithm));

    SlotStep {
        arrivals: arrival_outcomes,
        preemptions,
        metrics,
        churn: churn_stats,
    }
}

/// Audits the cross-structure invariants tying the engine's demand
/// bookkeeping to the algorithm's load ledger:
///
/// 1. the allocated-demand counter equals the sum of alive demands;
/// 2. every alive request is on the departure calendar (stale calendar
///    entries for already-departed ids are fine — release checks
///    `alive` first — but an alive request *missing* from the calendar
///    would hold resources forever);
/// 3. the ledger holds no negative or oversubscribed load
///    ([`vne_model::invariant::audit_ledger`]) — skipped once churn has
///    folded in, because [`LoadLedger::set_capacities`] documents that
///    loads may transiently exceed shrunk capacities;
/// 4. when the algorithm reports a footprint for *every* alive request,
///    the ledger's per-element loads equal the sum of those alive
///    footprints (algorithms without [`OnlineAlgorithm::footprint_of`]
///    skip this check).
///
/// Returns the violations instead of panicking so tests can inspect
/// them; the `strict-invariants` per-slot hook feeds the result through
/// [`vne_model::invariant::enforce`].
///
/// [`LoadLedger::set_capacities`]: vne_model::load::LoadLedger::set_capacities
pub fn audit_engine(
    state: &EngineState,
    algorithm: &dyn OnlineAlgorithm,
) -> Vec<InvariantViolation> {
    use std::collections::BTreeSet;

    let mut out = Vec::new();
    // In id order: the float sums below add in it, and the violations
    // list in it.
    let by_id = state.alive_by_id();

    let alive_demand: f64 = by_id.iter().map(|r| r.demand).sum();
    let tol = 1e-6 * alive_demand.abs().max(1.0);
    if (state.allocated_active - alive_demand).abs() > tol {
        out.push(InvariantViolation {
            invariant: "engine-allocated-counter",
            detail: format!(
                "allocated_active {} != sum of {} alive demands {}",
                state.allocated_active,
                state.alive.len(),
                alive_demand
            ),
        });
    }

    let scheduled: BTreeSet<RequestId> = state.calendar.scheduled().collect();
    for id in by_id.iter().map(|r| r.id) {
        if !scheduled.contains(&id) {
            out.push(InvariantViolation {
                invariant: "engine-departure-calendar",
                detail: format!("alive request {id} has no departure scheduled"),
            });
        }
    }

    let ledger = algorithm.loads();
    if state.churn.is_none() {
        out.extend(vne_model::invariant::audit_ledger(ledger));
    }

    let footprints: Option<Vec<(&Request, &Footprint)>> = by_id
        .iter()
        .map(|&r| algorithm.footprint_of(r.id).map(|f| (r, f)))
        .collect();
    if let Some(pairs) = footprints {
        let mut node_acc = vec![0.0f64; ledger.node_count()];
        let mut link_acc = vec![0.0f64; ledger.link_count()];
        for (r, fp) in pairs {
            for &(n, x) in fp.nodes() {
                node_acc[n.index()] += x * r.demand;
            }
            for &(l, x) in fp.links() {
                link_acc[l.index()] += x * r.demand;
            }
        }
        for (i, &expected) in node_acc.iter().enumerate() {
            let n = NodeId::from_index(i);
            let got = ledger.node_load(n);
            if (got - expected).abs() > 1e-6 * expected.abs().max(1.0) {
                out.push(InvariantViolation {
                    invariant: "engine-ledger-footprints",
                    detail: format!(
                        "node {n}: ledger load {got} != sum of alive footprints {expected}"
                    ),
                });
            }
        }
        for (i, &expected) in link_acc.iter().enumerate() {
            let l = LinkId::from_index(i);
            let got = ledger.link_load(l);
            if (got - expected).abs() > 1e-6 * expected.abs().max(1.0) {
                out.push(InvariantViolation {
                    invariant: "engine-ledger-footprints",
                    detail: format!(
                        "link {l}: ledger load {got} != sum of alive footprints {expected}"
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{Inspect, NullObserver, Recorder};
    use vne_model::app::{shapes, AppSet, AppShape};
    use vne_model::ids::AppId;
    use vne_model::ids::NodeId;
    use vne_model::policy::PlacementPolicy;
    use vne_model::request::slot_events;
    use vne_model::substrate::Tier;
    use vne_olive::olive::Olive;

    fn world() -> (SubstrateNetwork, AppSet) {
        let mut s = SubstrateNetwork::new("line");
        let e = s.add_node("e0", Tier::Edge, 100.0, 50.0).unwrap();
        let c = s.add_node("c1", Tier::Core, 200.0, 1.0).unwrap();
        s.add_link(e, c, 1000.0, 1.0).unwrap();
        let mut apps = AppSet::new();
        apps.push(
            "chain",
            AppShape::Chain,
            shapes::uniform_chain(1, 10.0, 1.0).unwrap(),
        )
        .unwrap();
        (s, apps)
    }

    fn req(id: u64, t: Slot, dur: Slot, demand: f64) -> Request {
        Request {
            id: RequestId(id),
            arrival: t,
            duration: dur,
            ingress: NodeId(0),
            app: AppId(0),
            demand,
        }
    }

    /// Runs `trace` for `slots` slots and records the full outcome log.
    fn record(
        algorithm: &mut dyn OnlineAlgorithm,
        s: &SubstrateNetwork,
        trace: &[Request],
        slots: Slot,
    ) -> RunResult {
        let mut recorder = Recorder::new();
        let stats = run_stream_with(
            algorithm,
            s,
            slot_events(trace, slots),
            &mut recorder,
            &mut ReembedAll,
        );
        recorder.finish(algorithm.name(), &stats)
    }

    #[test]
    fn accepts_and_departs() {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        // Capacity 300 total; β 10: demand 10 → 100 CU.
        let trace = vec![req(0, 0, 3, 10.0), req(1, 1, 3, 10.0), req(2, 5, 2, 10.0)];
        let result = record(&mut alg, &s, &trace, 10);
        assert_eq!(result.requests.len(), 3);
        assert!(result
            .requests
            .iter()
            .all(|r| r.status == RequestStatus::Accepted));
        // Allocated demand series: 10 at t0, 20 at t1-2, 10 at t3, 0 at 4.
        assert_eq!(result.slots[0].allocated_demand, 10.0);
        assert_eq!(result.slots[1].allocated_demand, 20.0);
        assert_eq!(result.slots[3].allocated_demand, 10.0);
        assert_eq!(result.slots[4].allocated_demand, 0.0);
        assert_eq!(result.slots[5].allocated_demand, 10.0);
        // Requested matches allocated when everything is accepted.
        for sm in &result.slots {
            assert!((sm.requested_demand - sm.allocated_demand).abs() < 1e-9);
        }
        assert!(result.online_secs >= 0.0);
    }

    #[test]
    fn rejections_show_in_outcomes_and_series() {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        // 300 CU total ⇒ 3 × demand-10 requests fit; the 4th is rejected.
        let trace: Vec<Request> = (0..4).map(|i| req(i, 0, 5, 10.0)).collect();
        let result = record(&mut alg, &s, &trace, 6);
        let denied = result
            .requests
            .iter()
            .filter(|r| r.status.is_denied())
            .count();
        assert_eq!(denied, 1);
        assert_eq!(result.slots[0].allocated_demand, 30.0);
        assert_eq!(result.slots[0].requested_demand, 40.0);
    }

    #[test]
    fn resource_cost_tracks_loads() {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        let trace = vec![req(0, 0, 2, 10.0)];
        let result = record(&mut alg, &s, &trace, 4);
        // 100 CU on the core node (cost 1/CU) + link 10 CU (cost 1).
        assert!(result.slots[0].resource_cost > 0.0);
        assert_eq!(result.slots[2].resource_cost, 0.0);
    }

    #[test]
    fn inspection_hook_runs_every_slot() {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        let mut calls = 0;
        let mut inspect = Inspect(|_: Slot, _: &SlotMetrics, _: &dyn OnlineAlgorithm| calls += 1);
        run_stream_with(
            &mut alg,
            &s,
            slot_events(&[], 7),
            &mut inspect,
            &mut ReembedAll,
        );
        assert_eq!(calls, 7);
    }

    #[test]
    fn arrivals_beyond_horizon_are_ignored() {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        let trace = vec![req(0, 50, 3, 10.0)];
        let result = record(&mut alg, &s, &trace, 10);
        assert!(result.requests.is_empty());
    }

    #[test]
    fn stream_stats_track_activity() {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        let trace = vec![req(0, 0, 3, 10.0), req(1, 1, 3, 10.0), req(2, 5, 2, 10.0)];
        let stats = run_stream_with(
            &mut alg,
            &s,
            slot_events(&trace, 10),
            &mut NullObserver,
            &mut ReembedAll,
        );
        assert_eq!(stats.slots_run, 10);
        assert_eq!(stats.arrivals, 3);
        // Requests 0 and 1 overlap at slots 1-2.
        assert_eq!(stats.peak_active, 2);
        assert!(!stats.stopped_early);
    }

    struct StopAt(Slot);
    impl SimObserver for StopAt {
        fn on_slot_end(
            &mut self,
            t: Slot,
            _m: &SlotMetrics,
            _a: &dyn OnlineAlgorithm,
        ) -> SimControl {
            if t >= self.0 {
                SimControl::Stop
            } else {
                SimControl::Continue
            }
        }
    }

    #[test]
    fn observer_can_stop_early() {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        let mut observer = StopAt(3);
        let stats = run_stream_with(
            &mut alg,
            &s,
            slot_events(&[], 100),
            &mut observer,
            &mut ReembedAll,
        );
        assert!(stats.stopped_early);
        assert_eq!(stats.slots_run, 4);
    }

    #[test]
    fn sparse_streams_release_gap_departures() {
        // An event-driven source that skips quiet slots entirely: the
        // engine must still release departures falling into the gaps.
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        // Departs at slot 2; the stream then jumps straight to slot 9.
        let events = vec![
            SlotEvents {
                slot: 0,
                arrivals: vec![req(0, 0, 2, 10.0)],
                churn: Vec::new(),
            },
            SlotEvents {
                slot: 9,
                arrivals: vec![req(1, 9, 2, 10.0)],
                churn: Vec::new(),
            },
        ];
        let mut recorder = Recorder::new();
        let stats = run_stream_with(&mut alg, &s, events, &mut recorder, &mut ReembedAll);
        assert_eq!(stats.arrivals, 2);
        assert_eq!(stats.peak_active, 1, "request 0 must depart in the gap");
        let result = recorder.finish("QUICKG", &stats);
        // Only yielded slots produce metrics; by slot 9 request 0 is gone.
        assert_eq!(result.slots.len(), 2);
        assert_eq!(result.slots[1].allocated_demand, 10.0);
        assert_eq!(result.slots[1].requested_demand, 10.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_slots_panic() {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        let events = vec![SlotEvents::empty(5), SlotEvents::empty(5)];
        let _ = run_stream_with(&mut alg, &s, events, &mut NullObserver, &mut ReembedAll);
    }

    #[test]
    fn dyn_algorithm_runs_through_the_engine() {
        // The registry hands out Box<dyn OnlineAlgorithm>; the engine
        // must drive it without knowing the concrete type.
        let (s, apps) = world();
        let mut boxed: Box<dyn OnlineAlgorithm> =
            Box::new(Olive::quickg(s.clone(), apps, PlacementPolicy::default()));
        let trace = vec![req(0, 0, 3, 10.0)];
        let result = record(boxed.as_mut(), &s, &trace, 5);
        assert_eq!(result.requests.len(), 1);
        assert_eq!(result.algorithm, "QUICKG");
    }

    use vne_olive::algorithm::SlotOutcome;

    /// Forwards everything to `0` and passes each slot's outcome through
    /// `1` before reporting it.
    struct Rewritten(Olive, fn(&mut SlotOutcome));

    impl OnlineAlgorithm for Rewritten {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn process_slot(
            &mut self,
            t: Slot,
            departures: &[Request],
            arrivals: &[Request],
        ) -> SlotOutcome {
            let mut outcome = self.0.process_slot(t, departures, arrivals);
            (self.1)(&mut outcome);
            outcome
        }

        fn loads(&self) -> &vne_model::load::LoadLedger {
            self.0.loads()
        }

        fn apply_churn(&mut self, effective: &EffectiveCapacities) {
            self.0.apply_churn(effective);
        }

        fn footprint_of(&self, id: RequestId) -> Option<&Footprint> {
            self.0.footprint_of(id)
        }
    }

    /// The order an algorithm reports its decisions in is not part of
    /// them. Slot 0 fills c1 with r0–r2; slot 1 drains c1 to half, which
    /// strands r1 and r2: r1 is re-embedded on e0, r2 no longer fits
    /// anywhere and is evicted, and the new r3 takes c1's last room
    /// while r4 is rejected; at slot 2 r0 departs and r5, r6 are
    /// accepted next to the rejected r7.
    #[test]
    fn decisions_do_not_depend_on_the_order_they_are_reported_in() {
        use crate::observe::{Tee, WindowSummary};
        use vne_model::churn::ChurnEvent;
        use vne_model::cost::RejectionPenalty;

        let (s, apps) = world();
        let events = || {
            let arrivals = |slot: Slot, demands: &[(u64, f64)]| -> Vec<Request> {
                demands.iter().map(|&(id, d)| req(id, slot, 5, d)).collect()
            };
            let mut first = arrivals(0, &[(0, 9.0), (1, 5.0), (2, 6.0)]);
            first[0].duration = 2;
            vec![
                SlotEvents {
                    slot: 0,
                    arrivals: first,
                    churn: Vec::new(),
                },
                SlotEvents {
                    slot: 1,
                    arrivals: arrivals(1, &[(3, 0.5), (4, 6.0)]),
                    churn: vec![ChurnEvent::NodeDrain {
                        node: NodeId(1),
                        factor: 0.5,
                    }],
                },
                SlotEvents {
                    slot: 2,
                    arrivals: arrivals(2, &[(5, 3.0), (6, 3.0), (7, 9.0)]),
                    churn: Vec::new(),
                },
                SlotEvents::empty(3),
            ]
        };
        let penalty = RejectionPenalty::uniform(&apps, 1.0);
        let mut runs = Vec::new();
        for reversed in [false, true] {
            let olive = Olive::quickg(s.clone(), apps.clone(), PlacementPolicy::default());
            let mut alg: Box<dyn OnlineAlgorithm> = if reversed {
                Box::new(Rewritten(olive, |o| {
                    o.accepted.reverse();
                    o.rejected.reverse();
                }))
            } else {
                Box::new(olive)
            };
            let mut observer = Tee(Recorder::new(), WindowSummary::new((0, 4), penalty.clone()));
            let stats = run_stream_with(alg.as_mut(), &s, events(), &mut observer, &mut ReembedAll);
            let Tee(recorder, summary) = observer;
            let summary = summary.finish(&stats);
            runs.push((recorder.finish(alg.name(), &stats).requests, summary));
        }
        let (requests, summary) = &runs[0];
        let status = |id: u64| {
            requests
                .iter()
                .find(|o| o.id == RequestId(id))
                .unwrap()
                .status
        };
        assert_eq!(status(2), RequestStatus::Preempted(1));
        for id in [0, 1, 3, 5, 6] {
            assert_eq!(status(id), RequestStatus::Accepted, "r{id}");
        }
        assert_eq!(status(4), RequestStatus::Rejected);
        assert_eq!(status(7), RequestStatus::Rejected);
        let churn = summary.churn;
        assert_eq!((churn.stranded, churn.reembedded, churn.evicted), (2, 1, 1));
        assert_eq!(runs[1].0, runs[0].0);
        assert_eq!(runs[1].1.fingerprint(), runs[0].1.fingerprint());
    }

    /// An id the slot did not offer, in either list, is caught in debug
    /// builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "every offered request must be accepted or rejected")]
    fn a_decision_on_an_id_not_offered_panics_in_debug() {
        let (s, apps) = world();
        let olive = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        let mut alg = Rewritten(olive, |o| o.rejected.push(RequestId(99)));
        let events = slot_events(&[req(0, 0, 3, 10.0)], 2);
        run_stream_with(&mut alg, &s, events, &mut NullObserver, &mut ReembedAll);
    }

    #[test]
    fn release_early_frees_capacity_at_the_next_slot() {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        let mut state = EngineState::fresh();
        let mut obs = NullObserver;
        // Slot 0: three demand-10 requests fill the 300 CU substrate.
        let ev = SlotEvents {
            slot: 0,
            arrivals: (0..3).map(|i| req(i, 0, 100, 10.0)).collect(),
            churn: vec![],
        };
        let (step, _) = state.step(&mut alg, &s, ev, &mut obs, &mut ReembedAll);
        assert!(step
            .arrivals
            .iter()
            .all(|o| o.status == RequestStatus::Accepted));
        // Slot 1: full, so a fourth request is rejected.
        let ev = SlotEvents {
            slot: 1,
            arrivals: vec![req(3, 1, 5, 10.0)],
            churn: vec![],
        };
        let (step, _) = state.step(&mut alg, &s, ev, &mut obs, &mut ReembedAll);
        assert_eq!(step.arrivals[0].status, RequestStatus::Rejected);
        // Early-release one request; unknown ids are no-ops.
        assert!(state.release_early(RequestId(0)));
        assert!(!state.release_early(RequestId(99)));
        // Slot 2: the release drains first, so an identical request is
        // re-admitted in the same slot.
        let ev = SlotEvents {
            slot: 2,
            arrivals: vec![req(4, 2, 5, 10.0)],
            churn: vec![],
        };
        let (step, _) = state.step(&mut alg, &s, ev, &mut obs, &mut ReembedAll);
        assert_eq!(step.arrivals[0].status, RequestStatus::Accepted);
        assert!(!state.is_active(RequestId(0)));
        // Releasing an already departed request reports inactive.
        assert!(!state.release_early(RequestId(0)));
        // The stale original calendar entry (slot 100) stays harmless.
        let ev = SlotEvents::empty(100);
        let (step, _) = state.step(&mut alg, &s, ev, &mut obs, &mut ReembedAll);
        assert!(step.arrivals.is_empty());
        assert_eq!(state.active_count(), 0);
    }

    /// A departure at `Slot::MAX` costs the calendar one entry, not a
    /// slot per slot of the horizon: the request is accepted, stepped,
    /// checkpointed and restored, and the restored run jumps to the
    /// last slot before it (the last a run can step, as the daemon
    /// does) with the request still alive — in well under a second. A
    /// calendar dense over the whole horizon would need ≈ 4·10⁹ slots
    /// here.
    #[test]
    fn a_departure_at_the_last_slot_costs_one_entry() {
        // audit:allow(D2, "test bound: a far departure must not cost a slot per slot of the horizon")
        let started = std::time::Instant::now();
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps.clone(), PlacementPolicy::default());
        let mut state = EngineState::fresh();
        let mut obs = NullObserver;
        let ev = SlotEvents {
            slot: 0,
            arrivals: vec![req(0, 0, Slot::MAX, 10.0)],
            churn: vec![],
        };
        let (step, _) = state.step(&mut alg, &s, ev, &mut obs, &mut ReembedAll);
        assert_eq!(step.arrivals[0].status, RequestStatus::Accepted);
        let ev = SlotEvents::empty(1);
        state.step(&mut alg, &s, ev, &mut obs, &mut ReembedAll);
        let blob = state.snapshot();
        let mut restored = EngineState::fresh();
        restored.restore(&blob).unwrap();
        assert_eq!(restored.snapshot(), blob);
        let mut resumed = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        let olive_blob = alg.snapshot_state().unwrap();
        resumed.restore_state(&olive_blob).unwrap();
        let ev = SlotEvents::empty(Slot::MAX - 1);
        restored.step(&mut resumed, &s, ev, &mut obs, &mut ReembedAll);
        assert!(restored.is_active(RequestId(0)));
        let blob = restored.snapshot();
        restored.restore(&blob).unwrap();
        assert_eq!(restored.snapshot(), blob);
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }

    /// `Slot::MAX` is past the last slot a run can step: its
    /// `slots_run` would not fit a `Slot`.
    #[test]
    #[should_panic(expected = "slot horizon exhausted")]
    fn stepping_slot_max_is_refused() {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        let mut state = EngineState::fresh();
        let ev = SlotEvents::empty(Slot::MAX);
        state.step(&mut alg, &s, ev, &mut NullObserver, &mut ReembedAll);
    }

    /// One slot of `arrivals`, offered in the order given, through
    /// QUICKG on a world with room for all of them.
    fn filled(arrivals: Vec<Request>) -> EngineState {
        let (s, apps) = world();
        let mut alg = Olive::quickg(s.clone(), apps, PlacementPolicy::default());
        let mut state = EngineState::fresh();
        let count = arrivals.len();
        let ev = SlotEvents {
            slot: 0,
            arrivals,
            churn: vec![],
        };
        state.step(&mut alg, &s, ev, &mut NullObserver, &mut ReembedAll);
        assert_eq!(state.active_count(), count);
        state
    }

    /// The hashed alive set never shows its order: two states holding
    /// the same requests, admitted in opposite orders, snapshot to the
    /// same bytes — for sequential ids and for ids strided into the
    /// high bits. Demands are exact binary fractions and departures
    /// fall in distinct slots, so nothing else in the blob depends on
    /// the admission order.
    #[test]
    fn snapshot_bytes_do_not_depend_on_admission_order() {
        for shift in [0u32, 32, 48] {
            let ascending: Vec<Request> = (0..40u64)
                .map(|i| req(i << shift, 0, 1 + i as Slot, 0.25))
                .collect();
            let descending: Vec<Request> = ascending.iter().rev().cloned().collect();
            assert_eq!(
                filled(ascending).snapshot(),
                filled(descending).snapshot(),
                "ids i << {shift}"
            );
        }
    }

    /// `blob` (an engine snapshot) with its alive list replaced by
    /// `listed` and every other byte kept.
    fn relisted(blob: &StateBlob, listed: &[Request]) -> StateBlob {
        let mut r = StateReader::new(blob);
        let _: Vec<Request> = r.read_seq().unwrap();
        let tail = &blob.as_bytes()[blob.len() - r.remaining()..];
        let mut w = StateWriter::new();
        w.write_seq(listed.iter());
        let mut bytes = w.finish().into_bytes();
        bytes.extend_from_slice(tail);
        StateBlob::from_bytes(bytes)
    }

    /// A checkpoint is outside input: an alive list that is not
    /// strictly ascending by id — out of order, or naming a request
    /// twice, which would leave the allocated-demand counter short of
    /// the map's demand — is refused by name, and the state is left as
    /// it was.
    #[test]
    fn restore_refuses_an_alive_list_out_of_id_order() {
        let honest: Vec<Request> = (0..3).map(|i| req(i, 0, 5 + i as Slot, 1.0)).collect();
        let blob = filled(honest.clone()).snapshot();
        assert_eq!(relisted(&blob, &honest).as_bytes(), blob.as_bytes());
        let mut state = filled(vec![req(9, 0, 2, 1.0)]);
        let before = state.snapshot();
        for (order, named) in [
            (&[1, 0, 2][..], "r1 then r0"),
            (&[0, 2, 1][..], "r2 then r1"),
            (&[0, 1, 1, 2][..], "r1 then r1"),
        ] {
            let listed: Vec<Request> = order.iter().map(|&i| honest[i].clone()).collect();
            match state.restore(&relisted(&blob, &listed)) {
                Err(StateError::Corrupt(why)) => assert!(why.contains(named), "{why}"),
                res => panic!("alive list {order:?} was restored: {res:?}"),
            }
            assert_eq!(state.snapshot(), before);
        }
        state.restore(&blob).unwrap();
        assert_eq!(state.snapshot(), blob);
        assert!(state.is_active(RequestId(2)) && !state.is_active(RequestId(9)));
    }
}
