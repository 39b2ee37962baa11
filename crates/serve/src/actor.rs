//! The single-writer engine actor.
//!
//! One dedicated thread owns a [`ShardCoordinator`] — the engines, the
//! algorithms — and the observer stack, and is the *only* writer of
//! that state. It is not a driver of its own: closing a slot is
//! [`ShardCoordinator::run`] over that one slot's events, the loop every
//! batch run goes through, so the end of a served slot (stamp
//! `online_secs`, commit hook, checkpoint cadence) is the end of a
//! batch slot. Over the one-shard view of a substrate the coordinator
//! *is* the monolithic engine, byte for byte; over any other partition
//! the same actor serves sharded — [`spawn`] takes the partition and
//! nothing else changes, the protocol included. Everything else talks
//! to the actor through a cloneable [`ServeHandle`] over an mpsc command
//! queue; every command carries a bounded oneshot (`sync_channel(1)`)
//! for the reply, so callers block only for their own answer and the
//! actor never blocks sending one.
//!
//! ## Slots
//!
//! Submissions do not reach the algorithm one by one: they buffer in a
//! pending queue and are decided together when the current *slot*
//! closes — the serving analogue of the engine's `SlotEvents` batches.
//! A slot closes on the configured [`TickMode`]: every wall-clock
//! interval ([`TickMode::Interval`]), or only on an explicit `ADVANCE`
//! command ([`TickMode::Manual`] — what the deterministic tests and the
//! resume battery use). Request ids are assigned at slot close, in
//! submission order, so the committed engine state never references an
//! id that a crash could lose. Each submitter is answered from the
//! run's `on_arrival` report. The `online_secs` of a served run is the
//! time spent closing slots, as in a batch run — not the daemon's age.
//!
//! ## Durability
//!
//! The actor's observer stack is
//! `Checkpointer<Tee<WindowSummary, ServeMeta>>`: the summary computes
//! the measurement-window [`Summary`] incrementally, [`ServeMeta`]
//! carries the serving counters, and the [`Checkpointer`] captures
//! engines + algorithms + both observers every `checkpoint.every`
//! slots, writing each capture crash-safely via
//! [`vne_sim::persist::write_checkpoint_file`]; `CHECKPOINT` forces one
//! through [`ShardCoordinator::checkpoint`]. Restart with the saved
//! file restores byte-identically ([`ShardCoordinator::resume_from`] —
//! the same guarantee the checkpoint/resume batteries pin for batch
//! runs; a one-shard file is a monolithic engine checkpoint).
//!
//! ## Load shedding
//!
//! The pending queue is bounded by [`ServeConfig::watermark`]: a
//! submission arriving while the queue is full is answered
//! [`SubmitReply::Shed`] immediately, never reaches the algorithm,
//! consumes no request id, and is tallied in [`ServeStats::shed`].

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::time::{Duration, Instant};

use vne_model::cost::RejectionPenalty;
use vne_model::ids::{AppId, NodeId, RequestId};
use vne_model::prelude::Decision;
use vne_model::request::{Request, Slot, SlotEvents};
use vne_model::shard::{ShardId, ShardedSubstrate};
use vne_model::state::{Snapshot, StateBlob, StateError, StateReader, StateWriter};
use vne_model::substrate::SubstrateNetwork;
use vne_olive::algorithm::OnlineAlgorithm;
use vne_shard::ShardCoordinator;
use vne_sim::engine::{EngineCheckpoint, RequestOutcome, RequestStatus, SimObserver};
use vne_sim::metrics::Summary;
use vne_sim::observe::{Checkpointer, Tee, WindowSummary};
use vne_sim::persist;

/// When the actor closes a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickMode {
    /// Only an `ADVANCE` command closes slots (deterministic, what the
    /// tests script).
    Manual,
    /// A slot closes every interval of wall-clock time; quiet intervals
    /// commit empty slots, exactly like a live trace's quiet slots.
    Interval(Duration),
}

/// Where and how often the actor checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// The checkpoint file (atomically replaced on every capture).
    pub path: PathBuf,
    /// Capture every `every`-th slot (the [`Checkpointer::every`]
    /// cadence).
    pub every: Slot,
}

/// Actor configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Slot cadence.
    pub tick: TickMode,
    /// High-watermark of the pending submission queue; beyond it,
    /// submissions are shed.
    pub watermark: usize,
    /// Durable checkpointing, or `None` to serve from memory only.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            tick: TickMode::Manual,
            watermark: 1024,
            checkpoint: None,
        }
    }
}

/// One embedding submission, before an id is assigned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmitSpec {
    /// Ingress substrate node `v(r)`.
    pub ingress: NodeId,
    /// Requested application `a(r)`.
    pub app: AppId,
    /// Demand size `d(r) > 0`.
    pub demand: f64,
    /// Duration `T(r) ≥ 1` in slots.
    pub duration: Slot,
}

/// The actor's answer to one submission.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitReply {
    /// The request was offered to the algorithm when its slot closed.
    Decided {
        /// The assigned request id.
        id: RequestId,
        /// The slot it was decided in.
        slot: Slot,
        /// [`Decision::Accept`] or [`Decision::Reject`].
        decision: Decision,
    },
    /// Load shedding dropped the submission before the algorithm saw
    /// it; no id was consumed.
    Shed,
    /// The submission referenced an unknown ingress node or
    /// application.
    Invalid(String),
}

impl SubmitReply {
    /// The decision this reply carries ([`Decision::Shed`] for a shed
    /// submission, `None` for an invalid one).
    pub fn decision(&self) -> Option<Decision> {
        match self {
            SubmitReply::Decided { decision, .. } => Some(*decision),
            SubmitReply::Shed => Some(Decision::Shed),
            SubmitReply::Invalid(_) => None,
        }
    }
}

/// Serving counters, surfaced through `STATS`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Slots committed so far.
    pub slots_run: u64,
    /// Requests currently holding resources.
    pub active: usize,
    /// Submissions waiting for the current slot to close.
    pub pending: usize,
    /// Submissions admitted into the pending queue (not shed).
    pub submitted: u64,
    /// Decisions that accepted.
    pub accepted: u64,
    /// Decisions that rejected.
    pub rejected: u64,
    /// Accepted requests later preempted.
    pub preempted: u64,
    /// Submissions dropped by load shedding.
    pub shed: u64,
    /// Checkpoints written (cadence + forced).
    pub checkpoints: u64,
    /// [`Summary::fingerprint`] of the measurement-window summary so
    /// far — the determinism handle the parity tests compare against a
    /// `run_stream_with` replay.
    pub fingerprint: u64,
}

impl ServeStats {
    /// The `key=value` pairs of the `OK STATS` reply, in a fixed order.
    pub fn pairs(&self) -> Vec<(String, String)> {
        vec![
            ("slots".into(), self.slots_run.to_string()),
            ("active".into(), self.active.to_string()),
            ("pending".into(), self.pending.to_string()),
            ("submitted".into(), self.submitted.to_string()),
            ("accepted".into(), self.accepted.to_string()),
            ("rejected".into(), self.rejected.to_string()),
            ("preempted".into(), self.preempted.to_string()),
            ("shed".into(), self.shed.to_string()),
            ("checkpoints".into(), self.checkpoints.to_string()),
            ("fingerprint".into(), format!("{:016x}", self.fingerprint)),
        ]
    }
}

/// The serving counters that must survive a restart, riding in every
/// checkpoint as the second half of the actor's observer tee.
///
/// As a [`SimObserver`] it tallies decided outcomes; the shed and
/// submitted counters are folded in by the actor directly (shedding
/// happens before the engine ever sees the submission, so no observer
/// hook fires for it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeMeta {
    /// Submissions admitted into the pending queue.
    pub submitted: u64,
    /// Accepted decisions.
    pub accepted: u64,
    /// Rejected decisions.
    pub rejected: u64,
    /// Preemptions of previously accepted requests.
    pub preempted: u64,
    /// Submissions dropped by load shedding.
    pub shed: u64,
}

impl SimObserver for ServeMeta {
    fn on_arrival(&mut self, outcome: &RequestOutcome) {
        match outcome.status {
            RequestStatus::Accepted => self.accepted += 1,
            _ => self.rejected += 1,
        }
    }

    fn on_preemption(&mut self, _outcome: &RequestOutcome) {
        self.preempted += 1;
    }
}

impl Snapshot for ServeMeta {
    fn snapshot(&self) -> StateBlob {
        let mut w = StateWriter::new();
        w.write_u64(self.submitted);
        w.write_u64(self.accepted);
        w.write_u64(self.rejected);
        w.write_u64(self.preempted);
        w.write_u64(self.shed);
        w.finish()
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        let mut r = StateReader::new(blob);
        self.submitted = r.read_u64()?;
        self.accepted = r.read_u64()?;
        self.rejected = r.read_u64()?;
        self.preempted = r.read_u64()?;
        self.shed = r.read_u64()?;
        r.finish()
    }
}

/// Why a [`ServeHandle`] call (or the actor lifecycle) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The actor has exited (shutdown or panic); no more commands are
    /// served.
    Closed,
    /// The OS refused to spawn the actor thread.
    Spawn(String),
    /// The actor thread panicked; its final report is lost.
    Panicked,
    /// Restoring from the resume checkpoint failed.
    Restore(StateError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => f.write_str("engine actor is not running"),
            ServeError::Spawn(e) => write!(f, "cannot spawn engine actor thread: {e}"),
            ServeError::Panicked => f.write_str("engine actor panicked; report lost"),
            ServeError::Restore(e) => write!(f, "resume checkpoint rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StateError> for ServeError {
    fn from(e: StateError) -> Self {
        ServeError::Restore(e)
    }
}

enum Msg {
    Submit(SubmitSpec, SyncSender<SubmitReply>),
    Depart(RequestId, SyncSender<bool>),
    Advance(u32, SyncSender<u64>),
    Stats(SyncSender<ServeStats>),
    Checkpoint(SyncSender<Result<Slot, String>>),
    Shutdown(SyncSender<()>),
}

/// A cloneable client of the engine actor. All methods block until the
/// actor answers; [`ServeHandle::submit`] additionally blocks until the
/// submission's slot closes (the decision exists only then).
#[derive(Clone)]
pub struct ServeHandle {
    tx: Sender<Msg>,
}

impl ServeHandle {
    fn call<T>(&self, make: impl FnOnce(SyncSender<T>) -> Msg) -> Result<T, ServeError> {
        let (tx, rx) = sync_channel(1);
        self.tx.send(make(tx)).map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)
    }

    /// Submits a request; blocks until its slot closes and returns the
    /// decision (or [`SubmitReply::Shed`] immediately under shedding).
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the actor exited before answering.
    pub fn submit(&self, spec: SubmitSpec) -> Result<SubmitReply, ServeError> {
        self.call(|tx| Msg::Submit(spec, tx))
    }

    /// Requests early release of `id`: if it still holds resources, its
    /// departure is scheduled for the next slot close (ahead of its
    /// natural duration) and `true` is returned; an unknown or already
    /// departed id returns `false` and changes nothing.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the actor exited before answering.
    pub fn depart(&self, id: RequestId) -> Result<bool, ServeError> {
        self.call(|tx| Msg::Depart(id, tx))
    }

    /// Closes `slots` logical slots now; returns the total committed
    /// slot count.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the actor exited before answering.
    pub fn advance(&self, slots: u32) -> Result<u64, ServeError> {
        self.call(|tx| Msg::Advance(slots, tx))
    }

    /// The serving counters.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the actor exited before answering.
    pub fn stats(&self) -> Result<ServeStats, ServeError> {
        self.call(Msg::Stats)
    }

    /// Forces a durable checkpoint now; returns the slot it captures.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the actor exited; `Ok(Err(reason))`
    /// when no checkpoint path is configured or no slot has committed
    /// yet.
    pub fn checkpoint(&self) -> Result<Result<Slot, String>, ServeError> {
        self.call(Msg::Checkpoint)
    }

    /// Graceful shutdown: flushes pending submissions into one final
    /// slot, takes a final checkpoint (when configured) and stops the
    /// actor. Idempotent from the caller's view — once the actor is
    /// gone, [`ServeError::Closed`] is returned.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the actor already exited.
    pub fn shutdown(&self) -> Result<(), ServeError> {
        self.call(Msg::Shutdown)
    }
}

/// What the actor thread returns when it stops.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Final serving counters.
    pub stats: ServeStats,
    /// The measurement-window summary of everything served.
    pub summary: Summary,
}

/// A running engine actor: the handle plus the thread to join.
pub struct ServeRuntime {
    handle: ServeHandle,
    thread: std::thread::JoinHandle<ServeReport>,
}

impl ServeRuntime {
    /// A new cloneable handle to the actor.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Waits for the actor to stop (after [`ServeHandle::shutdown`], or
    /// after every handle is dropped) and returns its final report.
    ///
    /// # Errors
    ///
    /// [`ServeError::Panicked`] when the actor thread panicked instead
    /// of draining; the final report is lost but the caller keeps
    /// running.
    pub fn join(self) -> Result<ServeReport, ServeError> {
        drop(self.handle);
        self.thread.join().map_err(|_| ServeError::Panicked)
    }
}

type ServeObserver = Checkpointer<Tee<WindowSummary, ServeMeta>>;

/// The submitters of the slot being closed: rides beside the
/// [`ServeObserver`] for that one slot and answers each waiter as its
/// decision is reported.
struct Waiters {
    slot: Slot,
    replies: HashMap<RequestId, SyncSender<SubmitReply>>,
}

impl SimObserver for Waiters {
    fn on_arrival(&mut self, outcome: &RequestOutcome) {
        if let Some(reply) = self.replies.remove(&outcome.id) {
            let decision = match outcome.status {
                RequestStatus::Accepted => Decision::Accept,
                _ => Decision::Reject,
            };
            let _ = reply.send(SubmitReply::Decided {
                id: outcome.id,
                slot: self.slot,
                decision,
            });
        }
    }
}

struct Actor {
    coordinator: ShardCoordinator,
    observer: ServeObserver,
    pending: Vec<(SubmitSpec, SyncSender<SubmitReply>)>,
    watermark: usize,
    checkpoint: Option<CheckpointConfig>,
    app_count: usize,
    next_id: u64,
    forced_checkpoints: u64,
}

/// Spawns the engine actor thread over a [`ShardCoordinator`] on
/// `sharded`.
///
/// `build` makes the algorithm for each shard's local substrate, as for
/// [`ShardCoordinator::new`]. A one-shard view
/// (`PartitionAssignment::single`) is the monolithic engine — `build`
/// is asked once, with a copy of the whole substrate — and is what the
/// `vne-serve` binary passes; any other partition serves sharded, with
/// nothing else to configure. `penalty` and `window` configure the
/// incremental [`WindowSummary`] (use the scenario's `penalty()` and
/// `config.measure_window` to stay comparable with batch runs).
/// `app_count` bounds the application ids submissions may reference.
/// With `resume`, the engines, algorithms and observers are restored
/// from the checkpoint first ([`ShardCoordinator::resume_from`]) — the
/// daemon's `--resume-from`.
///
/// # Errors
///
/// [`ServeError::Restore`] when `resume` is given and the checkpoint
/// does not match the partition or the algorithm, or fails to restore;
/// [`ServeError::Spawn`] when the OS refuses the actor thread.
pub fn spawn(
    sharded: ShardedSubstrate,
    build: impl FnMut(ShardId, &SubstrateNetwork) -> Box<dyn OnlineAlgorithm>,
    penalty: RejectionPenalty,
    window: (Slot, Slot),
    app_count: usize,
    config: ServeConfig,
    resume: Option<&EngineCheckpoint>,
) -> Result<ServeRuntime, ServeError> {
    let mut tee = Tee(WindowSummary::new(window, penalty), ServeMeta::default());
    let coordinator = match resume {
        Some(checkpoint) => ShardCoordinator::resume_from(sharded, build, checkpoint, &mut tee)?,
        None => ShardCoordinator::new(sharded, build),
    };
    let every = config.checkpoint.as_ref().map_or(Slot::MAX, |c| c.every);
    let mut observer = Checkpointer::every(every, tee);
    if let Some(ckpt) = &config.checkpoint {
        let path = ckpt.path.clone();
        observer = observer.with_sink(move |cp| {
            if let Err(e) = persist::write_checkpoint_file(&path, cp) {
                eprintln!("vne-serve: checkpoint write failed: {e}");
            }
        });
    }
    let (tx, rx) = std::sync::mpsc::channel();
    // Ids resume from the committed arrival count: ids are assigned at
    // slot close only, so the checkpointed engines never reference an
    // id beyond this.
    let next_id = coordinator.stats().arrivals as u64;
    let actor = Actor {
        coordinator,
        observer,
        pending: Vec::new(),
        watermark: config.watermark.max(1),
        checkpoint: config.checkpoint,
        app_count,
        next_id,
        forced_checkpoints: 0,
    };
    let tick = config.tick;
    let thread = std::thread::Builder::new()
        .name("vne-serve-engine".into())
        .spawn(move || actor.run(rx, tick))
        .map_err(|e| ServeError::Spawn(e.to_string()))?;
    Ok(ServeRuntime {
        handle: ServeHandle { tx },
        thread,
    })
}

impl Actor {
    fn run(mut self, rx: Receiver<Msg>, tick: TickMode) -> ServeReport {
        match tick {
            TickMode::Manual => {
                while let Ok(msg) = rx.recv() {
                    if self.handle_msg(msg) {
                        break;
                    }
                }
            }
            TickMode::Interval(period) => {
                // audit:allow(D2, "serve tick seam: interval ticking is wall-clock by design")
                let mut next_tick = Instant::now() + period;
                loop {
                    // audit:allow(D2, "serve tick seam: interval ticking is wall-clock by design")
                    let now = Instant::now();
                    if now >= next_tick {
                        self.close_slot();
                        next_tick += period;
                        // A long stall must not fire a burst of
                        // catch-up slots.
                        if next_tick <= now {
                            next_tick = now + period;
                        }
                        continue;
                    }
                    match rx.recv_timeout(next_tick - now) {
                        Ok(msg) => {
                            if self.handle_msg(msg) {
                                break;
                            }
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }
        }
        let stats = self.stats();
        let summary = self.observer.inner().0.finish(&self.coordinator.stats());
        ServeReport { stats, summary }
    }

    /// Handles one command; `true` means shutdown.
    fn handle_msg(&mut self, msg: Msg) -> bool {
        match msg {
            Msg::Submit(spec, reply) => {
                if let Err(reason) = self.validate(&spec) {
                    let _ = reply.send(SubmitReply::Invalid(reason));
                } else if self.pending.len() >= self.watermark {
                    self.observer.inner_mut().1.shed += 1;
                    let _ = reply.send(SubmitReply::Shed);
                } else {
                    self.observer.inner_mut().1.submitted += 1;
                    self.pending.push((spec, reply));
                }
            }
            Msg::Depart(id, reply) => {
                let _ = reply.send(self.coordinator.release_early(id));
            }
            Msg::Advance(slots, reply) => {
                for _ in 0..slots {
                    self.close_slot();
                }
                let _ = reply.send(self.coordinator.next_slot());
            }
            Msg::Stats(reply) => {
                let _ = reply.send(self.stats());
            }
            Msg::Checkpoint(reply) => {
                let _ = reply.send(self.force_checkpoint());
            }
            Msg::Shutdown(reply) => {
                // Drain: pending submissions get their decisions from
                // one final slot, then the state becomes durable.
                if !self.pending.is_empty() {
                    self.close_slot();
                }
                if self.checkpoint.is_some() && self.coordinator.next_slot() > 0 {
                    if let Err(reason) = self.force_checkpoint() {
                        eprintln!("vne-serve: final checkpoint failed: {reason}");
                    }
                }
                let _ = reply.send(());
                return true;
            }
        }
        false
    }

    fn validate(&self, spec: &SubmitSpec) -> Result<(), String> {
        let nodes = self.coordinator.sharded().source().node_count();
        if spec.ingress.index() >= nodes {
            return Err(format!(
                "unknown ingress node {} (substrate has {nodes} nodes)",
                spec.ingress.index()
            ));
        }
        if spec.app.index() >= self.app_count {
            return Err(format!(
                "unknown application {} (catalogue has {})",
                spec.app.index(),
                self.app_count
            ));
        }
        if !spec.demand.is_finite() || spec.demand <= 0.0 {
            return Err(format!(
                "demand must be positive and finite, got {}",
                spec.demand
            ));
        }
        if spec.duration == 0 {
            return Err("duration must be at least 1 slot".to_string());
        }
        // The submission is decided in the slot now open, so this is
        // the `arrival + duration` of `Request::departure`.
        let departure = self.coordinator.next_slot() + u64::from(spec.duration);
        if departure > u64::from(Slot::MAX) {
            return Err(format!(
                "departure slot {departure} is past the slot horizon {}",
                Slot::MAX
            ));
        }
        Ok(())
    }

    /// Closes the current slot: assigns ids in submission order and
    /// runs the coordinator over that one slot — which answers every
    /// waiting submitter, stamps the time the slot took into
    /// `online_secs` and commits (firing the checkpoint cadence).
    fn close_slot(&mut self) {
        let slot64 = self.coordinator.next_slot();
        assert!(
            slot64 < u64::from(Slot::MAX),
            "slot horizon exhausted at {slot64}"
        );
        let slot = slot64 as Slot;
        let mut arrivals = Vec::with_capacity(self.pending.len());
        let mut waiters = Waiters {
            slot,
            replies: HashMap::with_capacity(self.pending.len()),
        };
        for (spec, reply) in self.pending.drain(..) {
            let id = RequestId(self.next_id);
            self.next_id += 1;
            arrivals.push(Request {
                id,
                arrival: slot,
                duration: spec.duration,
                ingress: spec.ingress,
                app: spec.app,
                demand: spec.demand,
            });
            waiters.replies.insert(id, reply);
        }
        let event = SlotEvents {
            slot,
            arrivals,
            churn: Vec::new(),
        };
        self.coordinator.run(
            std::iter::once(event),
            &mut Tee(&mut self.observer, waiters),
        );
    }

    fn force_checkpoint(&mut self) -> Result<Slot, String> {
        let Some(ckpt) = &self.checkpoint else {
            return Err("no checkpoint path configured (--checkpoint)".to_string());
        };
        if self.coordinator.next_slot() == 0 {
            return Err("no committed slot to checkpoint yet".to_string());
        }
        let checkpoint = self
            .coordinator
            .checkpoint(self.observer.inner().snapshot())
            .map_err(|e| e.to_string())?;
        persist::write_checkpoint_file(&ckpt.path, &checkpoint).map_err(|e| e.to_string())?;
        self.forced_checkpoints += 1;
        Ok(checkpoint.slot)
    }

    fn stats(&self) -> ServeStats {
        let tee = self.observer.inner();
        let summary = tee.0.finish(&self.coordinator.stats());
        ServeStats {
            slots_run: self.coordinator.next_slot(),
            active: self.coordinator.active_count(),
            pending: self.pending.len(),
            submitted: tee.1.submitted,
            accepted: tee.1.accepted,
            rejected: tee.1.rejected,
            preempted: tee.1.preempted,
            shed: tee.1.shed,
            checkpoints: self.observer.checkpoints_taken() as u64 + self.forced_checkpoints,
            fingerprint: summary.fingerprint(),
        }
    }
}
