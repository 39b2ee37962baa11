//! The cross-shard coordinator: per-shard engines behind one stream.
//!
//! [`ShardCoordinator`] drives one [`vne_sim::EngineState`] + algorithm
//! instance per shard through the engine's public single-slot seam
//! ([`EngineState::step`]) and presents them to an observer as a single
//! run. Per slot:
//!
//! 1. **Route** — every arrival goes to the shard owning its ingress
//!    (its class set), with the ingress remapped to the shard-local id.
//!    Churn events on internal nodes/links route the same way; churn on
//!    a *cut* link is translated into capacity drains applied
//!    idempotently to both gateway-endpoint nodes (see
//!    [Cut-link churn](#cut-link-churn) below).
//! 2. **Reserve** — every shard with arrivals builds its *reserve
//!    instance* for the slot: the scratch copy of its algorithm,
//!    restored from a snapshot of the live one and stepped, on a clone
//!    of the engine state, through the shard's arrivals and churn (the
//!    live engine and algorithm are never touched). Arrivals the home
//!    shard would reject become *spanning candidates*.
//! 3. **Span** — candidates are offered to neighboring shards in
//!    deterministic tie-break order (candidates by ascending request
//!    id, neighbors by ascending shard id), entering through the
//!    cheapest *live* cut-link gateway (cuts churned down to factor 0
//!    are skipped; ties break by global link id). An offer asks the
//!    neighbor's reserve instance to decide that one candidate on top
//!    of what it has already decided this slot
//!    (`process_slot(t, &[], &[candidate])` — the contract spelled out
//!    on [`OnlineAlgorithm::process_slot`]); an idle neighbor's
//!    instance is built by its first offer. The first neighbor that
//!    accepts adopts the request, which simply stays in its reserve
//!    instance, so later offers see earlier adoptions; candidates
//!    nobody adopts stay home and are rejected there for real. An
//!    instance that may no longer equal "the live state stepped
//!    through the shard's final arrival list" — it rejected an offer
//!    yet preempted for it, or a candidate was adopted away from it
//!    after it had reported preemptions — is rebuilt from the live
//!    state by the next offer it receives.
//! 4. **Commit** — every shard steps its live engine exactly once with
//!    its final arrival list. Commit is authoritative: the reserve
//!    and span phases only *route*, they reserve no resources, so an
//!    algorithm may in principle decide differently at commit time
//!    (OLIVE, QUICKG and FULLG decide arrivals in order and are
//!    deterministic in (state, slot events), so their commit replays
//!    the reserve instance exactly; SLOTOFF decides a slot as a batch,
//!    so for it an offer is only an estimate of the commit).
//! 5. **Report** — the coordinator synthesizes the global observer
//!    dispatch: one `on_slot_start`, merged churn counters, arrival
//!    outcomes in original stream order with classes mapped back to
//!    global ids, preemptions in (shard, local-order), then one
//!    `on_slot_end` with summed [`SlotMetrics`].
//!
//! The slot then ends the way the engine loop ends it, for every `k`:
//! [`ShardCoordinator::run`] stamps `online_secs`, *then* one
//! `on_slot_committed` goes out, then an observer's stop is honored
//! ([`ShardCoordinator::step`] is the same body without the stamp, for
//! callers that keep their own clock). For `k > 1` the commit hook
//! carries a deferred [`EngineView`]: its capture — a
//! [`ShardCheckpoint`] of every shard's engine + algorithm snapshot and
//! the coordinator's own state, encoded into the envelope's two state
//! blobs — is materialized only if an observer actually checkpoints the
//! slot, so a [`Checkpointer`] works unmodified at any cadence and
//! un-checkpointed slots pay nothing. [`ShardCoordinator::resume_from`]
//! is the other half: it refuses a checkpoint whose shards disagree on
//! the slot or whose restored state fails [`ShardCoordinator::audit`],
//! since a checkpoint file is outside input.
//!
//! With `k = 1` the coordinator collapses to a pass-through of the
//! unsharded engine — same state transitions, same observer dispatch
//! (observers see the real algorithm, not a stub), same (monolithic)
//! checkpoint bytes — so a single-shard run is fingerprint-identical to
//! [`run_stream_with`] (pinned by the golden parity suite) and its
//! checkpoints are interchangeable with monolithic [`EngineCheckpoint`]
//! resumes. It builds no reserve instance: there is nobody to span to.
//!
//! The coordinator is also the live driver: the `vne-serve` actor owns
//! one and closes each slot with `run(once(event), ..)`;
//! [`ShardCoordinator::release_early`] and
//! [`ShardCoordinator::checkpoint`] are what a daemon needs between
//! slots and a batch run does not.
//!
//! # Cut-link churn
//!
//! A cut link belongs to no shard engine, so its capacity change cannot
//! be applied locally as a link event. Instead, Down/Up/Drain on a cut
//! link updates the coordinator's per-cut factor and is applied as a
//! [`ChurnEvent::NodeDrain`] on *both* gateway-endpoint nodes, with the
//! effective factor of an endpoint node being the minimum of its own
//! node-churn factor and the factors of all its incident cut links (the
//! tightest constraint governs; node events targeting endpoint nodes
//! are translated the same way so a later `NodeUp` cannot erase a cut
//! drain). Factors are absolute, so the translation is idempotent like
//! the engine's own churn folding. Requests stranded by the drain —
//! including spanning embeddings that entered through the gateway — go
//! through the configured [`ReembedPolicy`] inside each shard engine's
//! regular churn machinery, and dead cuts (factor 0) are skipped by the
//! spanning gateway selection until churned back up.
//!
//! Reserve steps and commits across shards run on [`cell_map`]'s scoped
//! worker pool (the shard pool); offers are sequential. Stranded-by-churn requests go through the
//! configured [`ReembedKind`] policy
//! ([`ShardCoordinator::with_reembed`]; re-embed-all by default, like
//! the unsharded engine).
//!
//! [`run_stream_with`]: vne_sim::engine::run_stream_with
//! [`cell_map`]: vne_model::pool::cell_map
//! [`Checkpointer`]: vne_sim::observe::Checkpointer
//! [`ChurnEvent::NodeDrain`]: vne_model::churn::ChurnEvent::NodeDrain
//! [`EngineCheckpoint`]: vne_sim::engine::EngineCheckpoint
//! [`ReembedPolicy`]: vne_sim::engine::ReembedPolicy

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use vne_model::churn::ChurnEvent;
use vne_model::ids::{ClassId, NodeId, RequestId};
use vne_model::invariant::InvariantViolation;
use vne_model::load::LoadLedger;
use vne_model::pool::cell_map;
use vne_model::request::{Request, Slot, SlotEvents};
use vne_model::shard::{LinkHome, ShardId, ShardNodeRef, ShardedSubstrate};
use vne_model::state::{Snapshot, StateBlob, StateError};
use vne_model::substrate::SubstrateNetwork;
use vne_olive::algorithm::{OnlineAlgorithm, SlotOutcome};
use vne_sim::engine::{
    restore_engine, EngineCapture, EngineCheckpoint, EngineView, ReembedKind, RequestOutcome,
    RequestStatus, SimControl, SimObserver, SlotMetrics, SlotStep, StreamStats,
};
use vne_sim::{EngineState, NullObserver};

use crate::checkpoint::ShardCheckpoint;

/// Counters for the two-phase reserve/commit spanning protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanningStats {
    /// Arrivals the home shard's reserve step rejected (spanning
    /// candidates).
    pub candidates: usize,
    /// Offers of a candidate to a neighboring shard.
    pub attempts: usize,
    /// Candidates adopted by a neighboring shard.
    pub granted: usize,
    /// Candidates no neighbor adopted (rejected at home for real).
    pub denied: usize,
}

/// One shard's planning/admission island: the engine state plus the
/// live algorithm, and a scratch algorithm instance that serves as the
/// shard's reserve instance during a slot.
struct ShardEngine {
    state: EngineState,
    primary: Box<dyn OnlineAlgorithm>,
    /// Same configuration as `primary`. `None` at `k = 1`, and when the
    /// algorithm does not support snapshots — spanning is then disabled
    /// (home-only mode).
    scratch: Option<Box<dyn OnlineAlgorithm>>,
    /// Whether `scratch` is this slot's reserve instance: `primary`'s
    /// state stepped through the shard's current arrival list. Cleared
    /// by commit and whenever that can no longer be vouched for.
    reserved: bool,
}

impl ShardEngine {
    /// Makes `scratch` the reserve instance for `arrivals`: restores
    /// the live algorithm's snapshot into it and steps it, on a clone
    /// of the engine state, through the slot — the live engine is
    /// untouched. Returns the arrival decisions and every preemption
    /// the step reported (churn evictions included).
    fn reserve(
        &mut self,
        substrate: &SubstrateNetwork,
        reembed: ReembedKind,
        t: Slot,
        arrivals: Vec<Request>,
        churn: &[ChurnEvent],
    ) -> SlotOutcome {
        let scratch = self
            .scratch
            .as_mut()
            .expect("reserving requires a scratch instance");
        let blob = self
            .primary
            .snapshot_state()
            .expect("scratch exists only for snapshot-capable algorithms");
        scratch
            .restore_state(&blob)
            .expect("snapshot round-trips into the same configuration");
        let mut state = self.state.clone();
        let ev = SlotEvents {
            slot: t,
            arrivals,
            churn: churn.to_vec(),
        };
        let (step, _) = state.step(
            &mut **scratch,
            substrate,
            ev,
            &mut NullObserver,
            &mut *reembed.policy(),
        );
        self.reserved = true;
        let mut outcome = SlotOutcome::default();
        for o in &step.arrivals {
            match o.status {
                RequestStatus::Accepted => outcome.accepted.push(o.id),
                _ => outcome.rejected.push(o.id),
            }
        }
        outcome.preempted = step.preemptions.iter().map(|o| o.id).collect();
        outcome
    }

    /// Offers `moved` to this shard on top of `arrivals`, its current
    /// arrival list: the reserve instance decides the one candidate —
    /// or, when the shard has none right now, is built through
    /// `arrivals` plus the candidate. Returns the instance's outcome for
    /// the call.
    fn offer(
        &mut self,
        substrate: &SubstrateNetwork,
        reembed: ReembedKind,
        t: Slot,
        arrivals: &[Request],
        churn: &[ChurnEvent],
        moved: &Request,
    ) -> SlotOutcome {
        let outcome = if self.reserved {
            let scratch = self.scratch.as_mut().expect("reserved implies scratch");
            scratch.process_slot(t, &[], std::slice::from_ref(moved))
        } else {
            let mut offer = arrivals.to_vec();
            offer.push(moved.clone());
            self.reserve(substrate, reembed, t, offer, churn)
        };
        // A rejected candidate is not in the shard's commit list, so
        // whatever it preempted on the way must not be seen by later
        // offers (rejection alone leaves nothing behind).
        if !outcome.accepted.contains(&moved.id) && !outcome.preempted.is_empty() {
            self.reserved = false;
        }
        outcome
    }
}

/// Coordinates per-shard engines over a partitioned substrate — see the
/// [module docs](self) for the slot protocol.
pub struct ShardCoordinator {
    sharded: ShardedSubstrate,
    engines: Vec<Mutex<ShardEngine>>,
    stats: StreamStats,
    spanning: SpanningStats,
    /// Original global ingress of the active requests adopted by a
    /// foreign shard, for mapping their outcome classes back to global
    /// ids.
    rerouted: BTreeMap<RequestId, NodeId>,
    /// The policy deciding the fate of churn-stranded requests, in
    /// every shard engine and every reserve step.
    reembed: ReembedKind,
    /// Churn factor per cut link (absolute, 1.0 = pristine) — the
    /// coordinator-side fold of cut-link churn events.
    cut_factor: Vec<f64>,
    /// Own node-churn factor of cut-endpoint nodes (global ids),
    /// tracked so node and cut constraints compose by minimum. Nodes
    /// not incident to a cut are never tracked (their events pass
    /// through untranslated).
    node_factor: BTreeMap<NodeId, f64>,
    /// Global endpoint node → indices of its incident cut links.
    /// Derived from `sharded` at construction, not checkpointed.
    incident_cuts: BTreeMap<NodeId, Vec<usize>>,
    /// Name + an all-zero ledger handed to `on_slot_end` for `k > 1`
    /// (per-shard ledgers cannot be merged through the trait).
    stub: StubAlgorithm,
}

impl ShardCoordinator {
    /// Builds one engine per shard, calling `build` with each shard id
    /// and its local substrate — twice per shard, primary first, when
    /// `k > 1` and the algorithm supports state snapshots: the second
    /// instance is the shard's reserve instance. One shard has nobody
    /// to span to, so `k = 1` asks for exactly one instance.
    pub fn new(
        sharded: ShardedSubstrate,
        mut build: impl FnMut(ShardId, &SubstrateNetwork) -> Box<dyn OnlineAlgorithm>,
    ) -> Self {
        let mut engines = Vec::with_capacity(sharded.shard_count());
        let mut name = String::new();
        for (sid, local) in sharded.shards() {
            let primary = build(sid, local);
            if name.is_empty() {
                name = primary.name().to_string();
            }
            let scratch = (sharded.shard_count() > 1 && primary.snapshot_state().is_some())
                .then(|| build(sid, local));
            engines.push(Mutex::new(ShardEngine {
                state: EngineState::fresh(),
                primary,
                scratch,
                reserved: false,
            }));
        }
        let stub = StubAlgorithm {
            name,
            loads: LoadLedger::new(sharded.source()),
        };
        let mut incident_cuts: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (i, cut) in sharded.cut_links().iter().enumerate() {
            for end in [cut.a, cut.b] {
                let global = sharded.global_node(end.shard, end.local);
                incident_cuts.entry(global).or_default().push(i);
            }
        }
        let cut_factor = vec![1.0; sharded.cut_count()];
        Self {
            sharded,
            engines,
            stats: StreamStats::default(),
            spanning: SpanningStats::default(),
            rerouted: BTreeMap::new(),
            reembed: ReembedKind::default(),
            cut_factor,
            node_factor: BTreeMap::new(),
            incident_cuts,
            stub,
        }
    }

    /// Selects the [`ReembedKind`] policy for churn-stranded requests
    /// (builder style; re-embed-all by default). A resumed run must use
    /// the same policy as the checkpointed one to stay byte-identical,
    /// same as the unsharded engine's resume contract.
    pub fn with_reembed(mut self, kind: ReembedKind) -> Self {
        self.reembed = kind;
        self
    }

    /// The configured re-embed policy kind.
    pub fn reembed_kind(&self) -> ReembedKind {
        self.reembed
    }

    /// The partitioned substrate this coordinator runs on.
    pub fn sharded(&self) -> &ShardedSubstrate {
        &self.sharded
    }

    /// Merged run counters so far (what a [`run`](Self::run) returns).
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Spanning-protocol counters so far.
    pub fn spanning_stats(&self) -> SpanningStats {
        self.spanning
    }

    /// Currently active requests summed over all shards.
    pub fn active_count(&self) -> usize {
        self.engines
            .iter()
            .map(|e| e.lock().unwrap().state.active_count())
            .sum()
    }

    /// The next slot this coordinator will accept: 0 when fresh, the
    /// checkpoint slot + 1 after [`ShardCoordinator::resume_from`]. A
    /// resume feeds `run` the original stream with slots below this
    /// filtered out.
    pub fn next_slot(&self) -> u64 {
        self.engines
            .iter()
            .map(|e| e.lock().unwrap().state.next_slot())
            .max()
            .unwrap_or(0)
    }

    /// Runs the coordinator over an event stream and returns the merged
    /// stats. The end of every slot is the engine loop's
    /// ([`EngineState::run`]): stamp [`StreamStats::online_secs`]
    /// (accumulating across resumed segments and repeated calls), emit
    /// [`SimObserver::on_slot_committed`] — so a checkpoint carries the
    /// seconds spent up to and including its own slot — then honor an
    /// observer's [`SimControl::Stop`]. A live driver closes one slot at
    /// a time with `run(once(event), ..)`; the seconds then add up to
    /// the time spent closing slots.
    pub fn run<O>(
        &mut self,
        events: impl IntoIterator<Item = SlotEvents>,
        observer: &mut O,
    ) -> StreamStats
    where
        O: SimObserver + ?Sized,
    {
        let base_secs = self.stats.online_secs;
        // audit:allow(D2, "set_online_secs feeder: measures the run to stamp stats.online_secs")
        let started = Instant::now();
        for event in events {
            if self.step_clocked(event, observer, Some((base_secs, started))) == SimControl::Stop {
                self.stats.stopped_early = true;
                break;
            }
        }
        self.stats
    }

    /// Advances every shard through exactly one slot (the protocol in
    /// the [module docs](self)) and fans the merged result out to
    /// `observer`, commit hook included. Wall-clock is the caller's:
    /// unlike [`run`](Self::run) this leaves
    /// [`StreamStats::online_secs`] as it was.
    ///
    /// # Panics
    ///
    /// Panics like [`EngineState::step`] on non-increasing slots.
    pub fn step<O>(&mut self, event: SlotEvents, observer: &mut O) -> SimControl
    where
        O: SimObserver + ?Sized,
    {
        self.step_clocked(event, observer, None)
    }

    /// The one step body. `clock` is [`run`](Self::run)'s: the seconds
    /// accumulated before it was called and when it started, read after
    /// the slot's work and before the commit hook.
    fn step_clocked<O>(
        &mut self,
        event: SlotEvents,
        observer: &mut O,
        clock: Option<(f64, Instant)>,
    ) -> SimControl
    where
        O: SimObserver + ?Sized,
    {
        let control = if self.engines.len() == 1 {
            self.step_single(event, observer)
        } else {
            self.step_sharded(event, observer)
        };
        if let Some((base_secs, started)) = clock {
            self.stats.online_secs = base_secs + started.elapsed().as_secs_f64();
            if let [single] = self.engines.as_mut_slice() {
                // A k = 1 checkpoint is the engine state's own bytes.
                let engine = single.get_mut().unwrap();
                engine.state.set_online_secs(self.stats.online_secs);
            }
        }
        self.with_view(|view| observer.on_slot_committed(view));

        #[cfg(feature = "strict-invariants")]
        vne_model::invariant::enforce("shard coordinator step", &self.audit());

        control
    }

    /// Schedules an active request to depart at the next stepped slot,
    /// ahead of its natural expiry, in the shard where it is active
    /// (its home, or the neighbor that adopted it) —
    /// [`EngineState::release_early`] behind the partition. Returns
    /// whether the request was active anywhere; an unknown or departed
    /// id returns `false` and changes nothing.
    pub fn release_early(&mut self, id: RequestId) -> bool {
        self.engines
            .iter_mut()
            .any(|e| e.get_mut().unwrap().state.release_early(id))
    }

    /// The checkpoint of the most recently stepped slot, taken now
    /// rather than on a [`Checkpointer`]'s cadence — the bytes the
    /// commit hook's view would have produced for the same
    /// `observer_state`, resumable through
    /// [`resume_from`](Self::resume_from).
    ///
    /// # Errors
    ///
    /// [`StateError::Unsupported`] when the algorithm does not implement
    /// [`OnlineAlgorithm::snapshot_state`].
    ///
    /// # Panics
    ///
    /// Panics if no slot has been stepped yet, like
    /// [`EngineState::view`].
    ///
    /// [`Checkpointer`]: vne_sim::observe::Checkpointer
    pub fn checkpoint(&self, observer_state: StateBlob) -> Result<EngineCheckpoint, StateError> {
        self.with_view(|view| view.checkpoint(observer_state))
    }

    /// Hands `f` the [`EngineView`] of the last stepped slot: the live
    /// engine and algorithm at `k = 1` (monolithic checkpoint bytes),
    /// otherwise a deferred view whose multi-shard capture is assembled
    /// only if `f` checkpoints it.
    fn with_view<R>(&self, f: impl FnOnce(&EngineView<'_>) -> R) -> R {
        if let [single] = self.engines.as_slice() {
            let engine = single.lock().unwrap();
            return f(&engine.state.view(&*engine.primary));
        }
        assert!(
            self.stats.slots_run > 0,
            "a coordinator view requires at least one stepped slot"
        );
        let produce = || self.capture();
        f(&EngineView::deferred(
            self.stats.slots_run - 1,
            self.stats,
            self.active_count(),
            &self.stub.name,
            &produce,
        ))
    }

    /// Audits the coordinator's derived and churn-folded state:
    ///
    /// 1. the sharded substrate's global↔local maps round-trip and
    ///    every link is internal XOR cut
    ///    ([`vne_model::invariant::audit_sharded`]);
    /// 2. the cut-link churn-factor table covers exactly the cut links,
    ///    with every factor in `[0, 1]` (factors are absolute, so
    ///    re-folding the same event is idempotent — a factor outside
    ///    the unit interval means an event was compounded instead);
    /// 3. tracked node factors are in `[0, 1]` and belong to
    ///    cut-endpoint nodes (others must pass through untranslated);
    /// 4. the incident-cuts index is exactly the inverse of the
    ///    cut-link endpoint table;
    /// 5. re-route cursors reference valid global nodes, and only
    ///    requests still active in some shard (a departed request is
    ///    never reported again, so its cursor would ride in every
    ///    later checkpoint for nothing).
    ///
    /// Returns the violations instead of panicking so tests can inspect
    /// them; the `strict-invariants` per-step hook feeds the result
    /// through [`vne_model::invariant::enforce`], and
    /// [`resume_from`](Self::resume_from) refuses a checkpoint whose
    /// restored state reports any.
    pub fn audit(&self) -> Vec<InvariantViolation> {
        let mut out = vne_model::invariant::audit_sharded(&self.sharded);

        if self.cut_factor.len() != self.sharded.cut_count() {
            out.push(InvariantViolation {
                invariant: "coordinator-cut-factor-shape",
                detail: format!(
                    "{} cut factors over {} cut links",
                    self.cut_factor.len(),
                    self.sharded.cut_count()
                ),
            });
        }
        for (i, &f) in self.cut_factor.iter().enumerate() {
            if !(0.0..=1.0).contains(&f) {
                out.push(InvariantViolation {
                    invariant: "coordinator-cut-factor-range",
                    detail: format!("cut {i}: factor {f} outside [0, 1]"),
                });
            }
        }
        for (&node, &f) in &self.node_factor {
            if !(0.0..=1.0).contains(&f) {
                out.push(InvariantViolation {
                    invariant: "coordinator-node-factor-range",
                    detail: format!("node {node}: factor {f} outside [0, 1]"),
                });
            }
            if !self.incident_cuts.contains_key(&node) {
                out.push(InvariantViolation {
                    invariant: "coordinator-node-factor-orphan",
                    detail: format!("node {node} tracked but incident to no cut link"),
                });
            }
        }

        // The incident-cuts index must be exactly the inverse of the
        // cut-link endpoint table.
        let mut expected: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (i, cut) in self.sharded.cut_links().iter().enumerate() {
            for end in [cut.a, cut.b] {
                let global = self.sharded.global_node(end.shard, end.local);
                expected.entry(global).or_default().push(i);
            }
        }
        if expected != self.incident_cuts {
            out.push(InvariantViolation {
                invariant: "coordinator-incident-cuts",
                detail: format!(
                    "incident-cuts index over {} nodes does not match the {} cut links",
                    self.incident_cuts.len(),
                    self.sharded.cut_count()
                ),
            });
        }

        let nodes = self.sharded.source().node_count();
        for (&id, &ingress) in &self.rerouted {
            if ingress.index() >= nodes {
                out.push(InvariantViolation {
                    invariant: "coordinator-reroute-cursor",
                    detail: format!("rerouted request {id}: global ingress {ingress} out of range"),
                });
            }
            let active = self
                .engines
                .iter()
                .any(|e| e.lock().unwrap().state.is_active(id));
            if !active {
                out.push(InvariantViolation {
                    invariant: "coordinator-reroute-cursor-stale",
                    detail: format!("rerouted request {id} is active in no shard"),
                });
            }
        }
        out
    }

    /// Mutable access to the cut-link churn factors. Test seam for the
    /// `strict-invariants` auditor (corrupts state on purpose so the
    /// audit can be shown to catch it); never called by the
    /// coordinator.
    #[doc(hidden)]
    pub fn debug_cut_factor_mut(&mut self) -> &mut Vec<f64> {
        &mut self.cut_factor
    }

    /// Resumes a checkpointed sharded run: rebuilds the coordinator
    /// from the same deterministic configuration (`sharded`, `build`,
    /// the caller re-applies [`ShardCoordinator::with_reembed`]), then
    /// restores every shard's engine + algorithm state, the
    /// coordinator's own state, and `observer` from `checkpoint`.
    /// Feeding [`run`](Self::run) the original stream with slots below
    /// [`next_slot`](Self::next_slot) filtered out then finishes the
    /// run **byte-identically** to the uninterrupted one — the
    /// guarantee pinned by the sharded resume proptest battery.
    ///
    /// The checkpoint is the [`EngineCheckpoint`] envelope a
    /// [`Checkpointer`] produced over this coordinator: for `k > 1` its
    /// blobs hold an encoded [`ShardCheckpoint`]; for `k = 1` they hold
    /// plain monolithic engine state, so single-shard coordinators and
    /// the monolithic engine ([`restore_engine`], then
    /// [`EngineState::run`]) accept each other's checkpoints
    /// interchangeably.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] when the checkpoint's shape does not
    /// match this coordinator (shard count, partition map, algorithm
    /// name), any blob fails to restore, a shard engine or the run
    /// counters are not at the envelope's slot, or the restored state
    /// fails [`audit`](Self::audit) — an out-of-range churn factor, a
    /// node factor off the cut, a re-route cursor for a request active
    /// in no shard; the error names the first violation.
    ///
    /// [`Checkpointer`]: vne_sim::observe::Checkpointer
    /// [`EngineState::run`]: vne_sim::engine::EngineState::run
    pub fn resume_from<O>(
        sharded: ShardedSubstrate,
        build: impl FnMut(ShardId, &SubstrateNetwork) -> Box<dyn OnlineAlgorithm>,
        checkpoint: &EngineCheckpoint,
        observer: &mut O,
    ) -> Result<Self, StateError>
    where
        O: Snapshot + ?Sized,
    {
        let mut this = Self::new(sharded, build);
        if this.engines.len() == 1 {
            if checkpoint.is_sharded() {
                return Err(StateError::Mismatch {
                    expected: "a monolithic engine checkpoint for k = 1".into(),
                    found: "a packed multi-shard checkpoint".into(),
                });
            }
            let engine = this.engines[0].get_mut().unwrap();
            engine.state = restore_engine(
                checkpoint,
                &mut *engine.primary,
                this.sharded.shard(ShardId(0)),
                observer,
            )?;
            this.stats = engine.state.stats();
            return Ok(this);
        }
        this.restore_sharded(checkpoint)?;
        observer.restore(&checkpoint.observer_state)?;
        Ok(this)
    }

    /// Restores per-shard engines, algorithms and the coordinator's own
    /// state from a `k > 1` checkpoint and validates the result
    /// (everything except the observer, which
    /// [`resume_from`](Self::resume_from) owns).
    fn restore_sharded(&mut self, checkpoint: &EngineCheckpoint) -> Result<(), StateError> {
        let shard = ShardCheckpoint::decode(&checkpoint.engine, &checkpoint.algorithm_state)?;
        let k = self.engines.len();
        if shard.engines.len() != k {
            return Err(StateError::Mismatch {
                expected: format!("{k} shards"),
                found: format!("{}", shard.engines.len()),
            });
        }
        let nodes = self.sharded.source().node_count();
        let same_partition = shard.partition.len() == nodes
            && shard
                .partition
                .iter()
                .enumerate()
                .all(|(i, &s)| self.sharded.home_of(NodeId::from_index(i)).shard == ShardId(s));
        if !same_partition {
            return Err(StateError::Mismatch {
                expected: "the coordinator's partition map".into(),
                found: "a checkpoint cut under a different partition".into(),
            });
        }
        // Every shard steps every slot, so all of them, and the merged
        // counters, are one past the checkpointed slot.
        let next = u64::from(checkpoint.slot) + 1;
        let off_slot = |what: String, at: u64| StateError::Mismatch {
            expected: format!("{what} at next slot {next}"),
            found: format!("next slot {at}"),
        };
        for (s, engine) in self.engines.iter_mut().enumerate() {
            let engine = engine.get_mut().unwrap();
            if engine.primary.name() != checkpoint.algorithm {
                return Err(StateError::Mismatch {
                    expected: format!("algorithm {}", checkpoint.algorithm),
                    found: format!("algorithm {}", engine.primary.name()),
                });
            }
            engine.primary.restore_state(&shard.algorithms[s])?;
            engine.state.restore(&shard.engines[s])?;
            if engine.state.next_slot() != next {
                return Err(off_slot(format!("shard {s}"), engine.state.next_slot()));
            }
            engine.state.reapply_churn(
                &mut *engine.primary,
                self.sharded.shard(ShardId::from_index(s)),
            );
        }
        if u64::from(shard.stats.slots_run) != next {
            let at = u64::from(shard.stats.slots_run);
            return Err(off_slot("the run counters".into(), at));
        }
        self.stats = shard.stats;
        // The resumed segment gets its own early-stop verdict.
        self.stats.stopped_early = false;
        self.spanning = shard.spanning;
        self.rerouted = shard.rerouted.into_iter().collect();
        self.cut_factor = shard.cut_factor;
        self.node_factor = shard.node_factor.into_iter().collect();
        // A checkpoint file is outside input: the checker that guards
        // every strict step guards the resume too.
        match self.audit().first() {
            Some(violation) => Err(StateError::Corrupt(violation.to_string())),
            None => Ok(()),
        }
    }

    /// Materializes the deferred capture: every shard's engine +
    /// algorithm snapshot plus the coordinator's own state, as a
    /// [`ShardCheckpoint`] encoded into the engine-checkpoint blob pair.
    fn capture(&self) -> Result<EngineCapture, StateError> {
        let mut engines = Vec::with_capacity(self.engines.len());
        let mut algorithms = Vec::with_capacity(self.engines.len());
        for e in &self.engines {
            let engine = e.lock().unwrap();
            let blob = engine.primary.snapshot_state().ok_or_else(|| {
                StateError::Unsupported(format!("algorithm {}", engine.primary.name()))
            })?;
            engines.push(engine.state.snapshot());
            algorithms.push(blob);
        }
        let nodes = self.sharded.source().node_count();
        let (engine, algorithm_state) = ShardCheckpoint {
            partition: (0..nodes)
                .map(|i| self.sharded.home_of(NodeId::from_index(i)).shard.0)
                .collect(),
            engines,
            algorithms,
            stats: self.stats,
            spanning: self.spanning,
            // Both maps are BTreeMaps, so these are in ascending key
            // order.
            rerouted: self.rerouted.iter().map(|(&k, &v)| (k, v)).collect(),
            cut_factor: self.cut_factor.clone(),
            node_factor: self.node_factor.iter().map(|(&k, &v)| (k, v)).collect(),
        }
        .encode();
        Ok(EngineCapture {
            engine,
            algorithm_state,
        })
    }

    /// `k = 1` pass-through: the local substrate is a bit-exact copy of
    /// the source with identical ids, so stepping the one engine with
    /// the unmodified event replays the unsharded engine byte for byte.
    fn step_single<O>(&mut self, event: SlotEvents, observer: &mut O) -> SimControl
    where
        O: SimObserver + ?Sized,
    {
        let mut policy = self.reembed.policy();
        let engine = self.engines[0].get_mut().unwrap();
        let ShardEngine { state, primary, .. } = engine;
        let (_, control) = state.step(
            &mut **primary,
            self.sharded.shard(ShardId(0)),
            event,
            observer,
            &mut *policy,
        );
        self.stats = state.stats();
        control
    }

    fn step_sharded<O>(&mut self, event: SlotEvents, observer: &mut O) -> SimControl
    where
        O: SimObserver + ?Sized,
    {
        let t = event.slot;
        let k = self.engines.len();
        // Original stream position of each arrival: outcomes are
        // reported back in this order.
        let position: BTreeMap<RequestId, usize> = event
            .arrivals
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id, i))
            .collect();

        // 1. Route arrivals and churn to their home shards.
        let mut arrivals: Vec<Vec<Request>> = vec![Vec::new(); k];
        for r in &event.arrivals {
            let home = self.sharded.home_of(r.ingress);
            let mut local = r.clone();
            local.ingress = home.local;
            arrivals[home.shard.index()].push(local);
        }
        let churn = self.route_churn(&event.churn);

        // 2. Reserve: every shard with arrivals builds its reserve
        // instance; its rejects become spanning candidates (skipped
        // entirely when the algorithm cannot snapshot — home-only mode).
        let reembed = self.reembed;
        let spanning_enabled = self.engines[0].lock().unwrap().scratch.is_some();
        let mut candidates: Vec<(ShardId, Request)> = Vec::new();
        // Whether a shard's reserve instance has reported a preemption
        // this slot: until it does, every arrival it rejected was
        // rejected plainly.
        let mut preempting = vec![false; k];
        if spanning_enabled {
            let busy: Vec<usize> = (0..k).filter(|&s| !arrivals[s].is_empty()).collect();
            let reserved: Vec<SlotOutcome> = cell_map(&busy, |&s| {
                let shard = ShardId::from_index(s);
                self.engines[s].lock().unwrap().reserve(
                    self.sharded.shard(shard),
                    reembed,
                    t,
                    arrivals[s].clone(),
                    &churn[s],
                )
            });
            for (&s, outcome) in busy.iter().zip(reserved) {
                preempting[s] = !outcome.preempted.is_empty();
                // Outcomes come back in arrival order, so the rejected
                // ids are a subsequence of the arrival list.
                let mut rejected = outcome.rejected.iter().peekable();
                for r in &arrivals[s] {
                    if rejected.next_if(|&&id| id == r.id).is_some() {
                        candidates.push((ShardId::from_index(s), r.clone()));
                    }
                }
            }
            // Deterministic tie-break: candidates by ascending id.
            candidates.sort_by_key(|(_, r)| r.id);
        }

        // 3. Span: offer each candidate to neighbors (ascending shard
        // id) through the cheapest live cut-link gateway; the first
        // reserve instance to accept adopts. Sequential, and an adopted
        // candidate stays in the instance, so each offer sees earlier
        // adoptions.
        for (home, r) in candidates {
            self.spanning.candidates += 1;
            let mut adopted = None;
            for &nb in self.sharded.neighbors(home) {
                let Some(gw) = self.live_gateway(home, nb) else {
                    // Every cut to this neighbor is churned down.
                    continue;
                };
                let mut moved = r.clone();
                moved.ingress = gw.local;
                self.spanning.attempts += 1;
                let outcome = self.engines[nb.index()].get_mut().unwrap().offer(
                    self.sharded.shard(nb),
                    reembed,
                    t,
                    &arrivals[nb.index()],
                    &churn[nb.index()],
                    &moved,
                );
                preempting[nb.index()] |= !outcome.preempted.is_empty();
                if outcome.accepted.contains(&r.id) {
                    adopted = Some((nb, moved));
                    break;
                }
            }
            match adopted {
                Some((nb, moved)) => {
                    self.spanning.granted += 1;
                    // The home engine never sees the request; the
                    // original global ingress is kept for reporting.
                    arrivals[home.index()].retain(|a| a.id != r.id);
                    arrivals[nb.index()].push(moved);
                    let global = self.sharded.global_node(home, r.ingress);
                    self.rerouted.insert(r.id, global);
                    // Home's reserve instance rejected `r`. Taking a
                    // plain rejection back changes nothing; one that
                    // may have preempted has to be undone.
                    if preempting[home.index()] {
                        self.engines[home.index()].get_mut().unwrap().reserved = false;
                    }
                }
                None => self.spanning.denied += 1,
            }
        }

        // 4. Commit: every shard steps its live engine exactly once
        // with its final arrival list, which ends the slot of its
        // reserve instance.
        let routed: Vec<Mutex<(Vec<Request>, Vec<ChurnEvent>)>> =
            arrivals.into_iter().zip(churn).map(Mutex::new).collect();
        let all: Vec<usize> = (0..k).collect();
        let steps: Vec<SlotStep> = cell_map(&all, |&s| {
            let mut engine = self.engines[s].lock().unwrap();
            engine.reserved = false;
            let ShardEngine { state, primary, .. } = &mut *engine;
            let (arrivals, churn) = std::mem::take(&mut *routed[s].lock().unwrap());
            let ev = SlotEvents {
                slot: t,
                arrivals,
                churn,
            };
            let (step, _) = state.step(
                &mut **primary,
                self.sharded.shard(ShardId::from_index(s)),
                ev,
                &mut NullObserver,
                &mut *reembed.policy(),
            );
            step
        });

        // 5. Report: synthesize the global observer dispatch.
        observer.on_slot_start(t);
        let mut merged_churn = vne_sim::engine::ChurnStats::default();
        for step in &steps {
            merged_churn.absorb(&step.churn);
        }
        if !merged_churn.is_empty() {
            observer.on_churn(t, &merged_churn);
        }
        let mut outcomes: Vec<(usize, RequestOutcome)> = Vec::new();
        for (s, step) in steps.iter().enumerate() {
            for o in &step.arrivals {
                let global = self.globalize(ShardId::from_index(s), o);
                outcomes.push((position[&o.id], global));
            }
        }
        outcomes.sort_by_key(|&(pos, _)| pos);
        for (_, outcome) in &outcomes {
            observer.on_arrival(outcome);
        }
        let mut metrics = SlotMetrics::default();
        for (s, step) in steps.iter().enumerate() {
            for o in &step.preemptions {
                observer.on_preemption(&self.globalize(ShardId::from_index(s), o));
            }
            metrics.requested_demand += step.metrics.requested_demand;
            metrics.allocated_demand += step.metrics.allocated_demand;
            metrics.resource_cost += step.metrics.resource_cost;
        }
        let control = observer.on_slot_end(t, &metrics, &self.stub);
        // A request that is active nowhere is never reported again.
        let engines = &mut self.engines;
        self.rerouted.retain(|&id, _| {
            engines
                .iter_mut()
                .any(|e| e.get_mut().unwrap().state.is_active(id))
        });

        // Merge run counters.
        self.stats.slots_run = t + 1;
        self.stats.arrivals += event.arrivals.len();
        self.stats.peak_active = self.stats.peak_active.max(self.active_count());
        control
    }

    /// The `to`-side endpoint of the cheapest cut link between `from`
    /// and `to` whose churn factor is non-zero, ties broken by global
    /// link id — [`ShardedSubstrate::gateway`] overlaid with the
    /// coordinator's cut-link churn fold. `None` when every cut between
    /// the pair is down.
    fn live_gateway(&self, from: ShardId, to: ShardId) -> Option<ShardNodeRef> {
        self.sharded
            .cut_indices_between(from, to)
            .iter()
            .find(|&&i| self.cut_factor[i] > 0.0)
            .and_then(|&i| self.sharded.cut_links()[i].endpoint_in(to))
    }

    /// The effective drain factor of cut-endpoint node `global`: the
    /// minimum of its own node-churn factor and all incident cut-link
    /// factors (the tightest constraint governs).
    fn endpoint_factor(&self, global: NodeId) -> f64 {
        let own = self.node_factor.get(&global).copied().unwrap_or(1.0);
        let cuts = self.incident_cuts[&global]
            .iter()
            .map(|&i| self.cut_factor[i])
            .fold(1.0, f64::min);
        own.min(cuts)
    }

    /// Routes global churn events to per-shard local events.
    ///
    /// Internal node/link events map 1:1 onto their home shard. Events
    /// touching the cut — a cut-link event, or a node event on a
    /// cut-endpoint node — update the coordinator's absolute factor
    /// fold and are emitted as [`ChurnEvent::NodeDrain`]s carrying the
    /// combined endpoint factor (see the [module docs](self)), one per
    /// affected endpoint: two for a cut-link event (both gateway
    /// shards), one for an endpoint-node event.
    fn route_churn(&mut self, churn: &[ChurnEvent]) -> Vec<Vec<ChurnEvent>> {
        let mut routed: Vec<Vec<ChurnEvent>> = vec![Vec::new(); self.engines.len()];
        for ev in churn {
            match ev {
                ChurnEvent::NodeDown(n)
                | ChurnEvent::NodeUp(n)
                | ChurnEvent::NodeDrain { node: n, .. } => {
                    let home = self.sharded.home_of(*n);
                    if self.incident_cuts.contains_key(n) {
                        let factor = match ev {
                            ChurnEvent::NodeDown(_) => 0.0,
                            ChurnEvent::NodeUp(_) => 1.0,
                            ChurnEvent::NodeDrain { factor, .. } => *factor,
                            _ => unreachable!(),
                        };
                        self.node_factor.insert(*n, factor);
                        routed[home.shard.index()].push(ChurnEvent::NodeDrain {
                            node: home.local,
                            factor: self.endpoint_factor(*n),
                        });
                        continue;
                    }
                    let local = match ev {
                        ChurnEvent::NodeDown(_) => ChurnEvent::NodeDown(home.local),
                        ChurnEvent::NodeUp(_) => ChurnEvent::NodeUp(home.local),
                        ChurnEvent::NodeDrain { factor, .. } => ChurnEvent::NodeDrain {
                            node: home.local,
                            factor: *factor,
                        },
                        _ => unreachable!(),
                    };
                    routed[home.shard.index()].push(local);
                }
                ChurnEvent::LinkDown(l)
                | ChurnEvent::LinkUp(l)
                | ChurnEvent::LinkDrain { link: l, .. } => match self.sharded.link_home(*l) {
                    LinkHome::Internal { shard, local } => {
                        let mapped = match ev {
                            ChurnEvent::LinkDown(_) => ChurnEvent::LinkDown(local),
                            ChurnEvent::LinkUp(_) => ChurnEvent::LinkUp(local),
                            ChurnEvent::LinkDrain { factor, .. } => ChurnEvent::LinkDrain {
                                link: local,
                                factor: *factor,
                            },
                            _ => unreachable!(),
                        };
                        routed[shard.index()].push(mapped);
                    }
                    LinkHome::Cut { index } => {
                        let factor = match ev {
                            ChurnEvent::LinkDown(_) => 0.0,
                            ChurnEvent::LinkUp(_) => 1.0,
                            ChurnEvent::LinkDrain { factor, .. } => *factor,
                            _ => unreachable!(),
                        };
                        self.cut_factor[index] = factor;
                        let cut = self.sharded.cut_links()[index];
                        for end in [cut.a, cut.b] {
                            let global = self.sharded.global_node(end.shard, end.local);
                            routed[end.shard.index()].push(ChurnEvent::NodeDrain {
                                node: end.local,
                                factor: self.endpoint_factor(global),
                            });
                        }
                    }
                },
            }
        }
        routed
    }

    /// Maps a shard-local outcome back to global ids: the class ingress
    /// becomes the request's original global ingress.
    fn globalize(&self, shard: ShardId, o: &RequestOutcome) -> RequestOutcome {
        let ingress = match self.rerouted.get(&o.id) {
            Some(&original) => original,
            None => self.sharded.global_node(shard, o.class.ingress),
        };
        let mut out = o.clone();
        out.class = ClassId::new(o.class.app, ingress);
        out
    }
}

/// Stands in for "the algorithm" in `on_slot_end` when `k > 1`: the
/// real algorithms are per-shard and their ledgers cannot be merged
/// through the trait, so observers get the shared name and an all-zero
/// ledger over the *source* substrate. Observers needing drill-down
/// ([`OnlineAlgorithm::as_any`]) see `None`.
struct StubAlgorithm {
    name: String,
    loads: LoadLedger,
}

impl OnlineAlgorithm for StubAlgorithm {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_slot(
        &mut self,
        _t: Slot,
        _departures: &[Request],
        _arrivals: &[Request],
    ) -> SlotOutcome {
        unreachable!("the coordinator stub never processes slots")
    }

    fn loads(&self) -> &LoadLedger {
        &self.loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vne_model::app::{shapes, AppSet, AppShape};
    use vne_model::ids::AppId;
    use vne_model::policy::PlacementPolicy;
    use vne_model::shard::PartitionAssignment;
    use vne_model::substrate::Tier;
    use vne_olive::fullg::FullG;

    /// A starved 2-node home shard next to a roomy one: every demand-5
    /// chain entering at `a0` overflows home and is adopted next door.
    fn spanning_coordinator() -> (ShardCoordinator, NodeId) {
        let mut s = SubstrateNetwork::new("span");
        let a0 = s.add_node("a0", Tier::Edge, 30.0, 1.0).unwrap();
        let a1 = s.add_node("a1", Tier::Edge, 30.0, 1.0).unwrap();
        let b0 = s.add_node("b0", Tier::Edge, 1000.0, 1.0).unwrap();
        let b1 = s.add_node("b1", Tier::Edge, 1000.0, 1.0).unwrap();
        s.add_link(a0, a1, 500.0, 1.0).unwrap();
        s.add_link(a1, b0, 500.0, 1.0).unwrap();
        s.add_link(b0, b1, 500.0, 1.0).unwrap();
        let assignment = PartitionAssignment::new(vec![0, 0, 1, 1]).unwrap();
        let sharded = ShardedSubstrate::new(&s, &assignment).unwrap();
        let mut apps = AppSet::new();
        let chain = shapes::uniform_chain(2, 10.0, 3.0).unwrap();
        apps.push("chain", AppShape::Chain, chain).unwrap();
        let coordinator = ShardCoordinator::new(sharded, move |_, local| {
            Box::new(FullG::new(
                local.clone(),
                apps.clone(),
                PlacementPolicy::default(),
            ))
        });
        (coordinator, a0)
    }

    fn run_spanning_slots(coordinator: &mut ShardCoordinator, ingress: NodeId, slots: Slot) {
        for t in 0..slots {
            let arrival = Request {
                id: RequestId(t.into()),
                arrival: t,
                duration: 3,
                ingress,
                app: AppId(0),
                demand: 5.0,
            };
            let event = SlotEvents {
                slot: t,
                arrivals: vec![arrival],
                churn: vec![],
            };
            coordinator.step(event, &mut NullObserver);
        }
    }

    #[test]
    fn reroute_cursors_do_not_outlive_their_requests() {
        let (mut coordinator, a0) = spanning_coordinator();
        run_spanning_slots(&mut coordinator, a0, 200);
        assert_eq!(coordinator.spanning_stats().granted, 200);
        assert!(!coordinator.rerouted.is_empty());
        assert!(
            coordinator.rerouted.len() <= coordinator.active_count(),
            "{} cursors for {} active requests",
            coordinator.rerouted.len(),
            coordinator.active_count()
        );
        assert!(coordinator.audit().is_empty(), "{:?}", coordinator.audit());
    }

    #[test]
    fn stale_reroute_cursor_is_caught() {
        let (mut coordinator, a0) = spanning_coordinator();
        run_spanning_slots(&mut coordinator, a0, 2);
        coordinator.rerouted.insert(RequestId(999), a0);
        let violations = coordinator.audit();
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "coordinator-reroute-cursor-stale"),
            "{violations:?}"
        );
    }
}
