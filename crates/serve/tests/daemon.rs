//! End-to-end daemon coverage: concurrent TCP clients with a
//! `run_stream_with` replay parity check, load shedding at the watermark,
//! graceful shutdown with a byte-identical final-checkpoint resume,
//! SIGKILL-crash recovery from the last durable checkpoint, and a
//! four-shard world served over TCP that replays byte-identically
//! through the offline coordinator.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command as ProcessCommand, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::cost::RejectionPenalty;
use vne_model::ids::{AppId, NodeId, RequestId};
use vne_model::policy::PlacementPolicy;
use vne_model::prelude::Decision;
use vne_model::request::{Request, Slot, SlotEvents};
use vne_model::shard::{PartitionAssignment, ShardedSubstrate};
use vne_model::state::StateBlob;
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_olive::fullg::FullG;
use vne_serve::actor::{CheckpointConfig, ServeConfig, ServeHandle, TickMode};
use vne_serve::protocol::{parse_reply, Command, Reply};
use vne_serve::{spawn, Server, SubmitReply, SubmitSpec};
use vne_shard::{ShardCheckpoint, ShardCoordinator, SpanningStats};
use vne_sim::engine::{run_stream_with, EngineCheckpoint, EngineState, ReembedAll, RequestStatus};
use vne_sim::observe::{Recorder, Tee, WindowSummary};
use vne_sim::persist::read_checkpoint_file;
use vne_sim::registry::{AlgorithmSpec, BuildContext};
use vne_sim::scenario::{Algorithm, Scenario, ScenarioConfig};

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

/// The tiny 4-node world the parity suites use.
fn tiny_scenario() -> Scenario {
    let mut s = SubstrateNetwork::new("tiny");
    let e0 = s.add_node("e0", Tier::Edge, 300.0, 50.0).unwrap();
    let e1 = s.add_node("e1", Tier::Edge, 300.0, 50.0).unwrap();
    let t = s.add_node("t", Tier::Transport, 900.0, 10.0).unwrap();
    let c = s.add_node("c", Tier::Core, 2700.0, 1.0).unwrap();
    s.add_link(e0, t, 1500.0, 1.0).unwrap();
    s.add_link(e1, t, 1500.0, 1.0).unwrap();
    s.add_link(t, c, 4500.0, 1.0).unwrap();
    let mut apps = AppSet::new();
    apps.push(
        "chain",
        AppShape::Chain,
        shapes::uniform_chain(2, 10.0, 3.0).unwrap(),
    )
    .unwrap();
    apps.push(
        "tree",
        AppShape::Tree,
        shapes::two_branch_tree(3, 6.0, 2.0).unwrap(),
    )
    .unwrap();
    let mut config = ScenarioConfig::small(1.0).with_seed(7);
    config.measure_window = (1, 12);
    Scenario::new(s, apps, config)
}

fn build_algorithm(
    scenario: &Scenario,
    alg: Algorithm,
) -> Box<dyn vne_olive::algorithm::OnlineAlgorithm> {
    scenario
        .registry()
        .build(&AlgorithmSpec::from(alg), &BuildContext::new(scenario))
        .unwrap()
        .algorithm
}

/// The one-shard view of `substrate`: the monolithic engine behind the
/// coordinator the actor owns.
fn whole(substrate: &SubstrateNetwork) -> ShardedSubstrate {
    let single = PartitionAssignment::single(substrate.node_count()).unwrap();
    ShardedSubstrate::new(substrate, &single).unwrap()
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vne-serve-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(tag)
}

/// A line-protocol client over one TCP connection.
struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Self {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true).unwrap();
                    return Self {
                        reader: BufReader::new(stream),
                    };
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("connect {addr}: {e}"),
            }
        }
    }

    /// Writes a command without waiting for its reply (a blocking
    /// command like `SUBMIT` needs another connection to make
    /// progress).
    fn write(&mut self, command: &Command) {
        let mut line = command.encode();
        line.push('\n');
        self.reader
            .get_mut()
            .write_all(line.as_bytes())
            .expect("write command");
    }

    /// Reads the next reply line.
    fn read(&mut self) -> Reply {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "connection closed mid-command");
        parse_reply(&reply).expect("daemon reply parses")
    }

    fn send(&mut self, command: &Command) -> Reply {
        self.write(command);
        self.read()
    }

    fn stats(&mut self) -> Vec<(String, String)> {
        match self.send(&Command::Stats) {
            Reply::Stats(pairs) => pairs,
            other => panic!("expected stats, got {other:?}"),
        }
    }
}

fn stat<'a>(pairs: &'a [(String, String)], key: &str) -> &'a str {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("missing stats key {key}"))
}

// ---------------------------------------------------------------------
// Acceptance: ≥8 concurrent clients, replay parity
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Record {
    id: u64,
    slot: Slot,
    spec: SubmitSpec,
    decision: Decision,
}

/// Eight concurrent TCP clients submit against a live daemon; every one
/// receives a decision, and replaying the served sequence through
/// `run_stream_with` yields the exact fingerprint the daemon reports.
#[test]
fn eight_concurrent_tcp_clients_match_run_stream_replay() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 3;

    let scenario = tiny_scenario();
    let penalty = scenario.penalty();
    let window = scenario.config.measure_window;
    let runtime = spawn(
        whole(&scenario.substrate),
        |_, _| build_algorithm(&scenario, Algorithm::Fullg),
        penalty.clone(),
        window,
        scenario.apps.len(),
        ServeConfig::default(),
        None,
    )
    .unwrap();
    let handle = runtime.handle();
    let server = Server::bind("127.0.0.1:0", runtime.handle()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = std::thread::spawn(move || server.serve().unwrap());

    // A ticker closes slots while clients are in flight (manual mode,
    // driven from the test so the run stays finite and deterministic in
    // *content* — the slot each submission lands in may vary, which is
    // exactly what the replay reconstruction absorbs).
    let done = Arc::new(AtomicBool::new(false));
    let ticker = {
        let handle = handle.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                let _ = handle.advance(1);
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr);
                let mut records = Vec::with_capacity(ROUNDS);
                for round in 0..ROUNDS {
                    let spec = SubmitSpec {
                        ingress: NodeId(((c + round) % 4) as u32),
                        app: AppId((c % 2) as u32),
                        demand: 1.0 + c as f64 + 0.25 * round as f64,
                        duration: 1 + ((c + round) % 3) as Slot,
                    };
                    let command = Command::Submit {
                        ingress: spec.ingress,
                        app: spec.app,
                        demand: spec.demand,
                        duration: spec.duration,
                    };
                    match client.send(&command) {
                        Reply::Submitted { id, slot, decision } => records.push(Record {
                            id: id.0,
                            slot,
                            spec,
                            decision,
                        }),
                        other => panic!("client {c}: expected a decision, got {other:?}"),
                    }
                }
                records
            })
        })
        .collect();

    let mut records: Vec<Record> = Vec::new();
    for client in clients {
        records.extend(client.join().expect("client thread"));
    }
    done.store(true, Ordering::SeqCst);
    ticker.join().unwrap();

    // Every submission got a real decision and a unique id.
    assert_eq!(records.len(), CLIENTS * ROUNDS);
    let mut ids: Vec<u64> = records.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), CLIENTS * ROUNDS, "ids are unique");

    let stats = handle.stats().unwrap();
    assert_eq!(stats.submitted, (CLIENTS * ROUNDS) as u64);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.pending, 0);
    let served_fingerprint = stats.fingerprint;
    let slots_total = stats.slots_run;

    // Shut the daemon down over the wire (S2's graceful path) and let
    // everything drain.
    let mut closer = Client::connect(&addr);
    assert_eq!(closer.send(&Command::Shutdown), Reply::Bye);
    server_thread.join().unwrap();
    let report = runtime.join().expect("engine actor");
    assert_eq!(report.stats.fingerprint, served_fingerprint);

    // Replay: rebuild the dense slot sequence the daemon committed from
    // what the clients were told, and run it through the batch engine.
    records.sort_by_key(|r| (r.slot, r.id));
    let mut events: Vec<SlotEvents> = (0..slots_total)
        .map(|s| SlotEvents::empty(s as Slot))
        .collect();
    for r in &records {
        events[r.slot as usize].arrivals.push(Request {
            id: vne_model::ids::RequestId(r.id),
            arrival: r.slot,
            duration: r.spec.duration,
            ingress: r.spec.ingress,
            app: r.spec.app,
            demand: r.spec.demand,
        });
    }
    let mut replay_alg = build_algorithm(&scenario, Algorithm::Fullg);
    let mut replay_summary = WindowSummary::new(window, penalty);
    let replay_stats = run_stream_with(
        &mut *replay_alg,
        &scenario.substrate,
        events,
        &mut replay_summary,
        &mut ReembedAll,
    );
    let replay = replay_summary.finish(&replay_stats);
    assert_eq!(
        replay.fingerprint(),
        served_fingerprint,
        "served run and run_stream_with replay disagree"
    );
    assert_eq!(replay_stats.slots_run, slots_total as Slot);
    assert_eq!(replay_stats.arrivals, CLIENTS * ROUNDS);
    // The per-decision tallies agree with what the clients were told.
    let accepted_served = records
        .iter()
        .filter(|r| r.decision == Decision::Accept)
        .count() as u64;
    assert_eq!(accepted_served, report.stats.accepted);
    assert_eq!(
        report.stats.accepted + report.stats.rejected,
        (CLIENTS * ROUNDS) as u64
    );
}

// ---------------------------------------------------------------------
// Load shedding at the watermark
// ---------------------------------------------------------------------

#[test]
fn submissions_beyond_the_watermark_are_shed_and_counted() {
    let scenario = tiny_scenario();
    let runtime = spawn(
        whole(&scenario.substrate),
        |_, _| build_algorithm(&scenario, Algorithm::Fullg),
        scenario.penalty(),
        scenario.config.measure_window,
        scenario.apps.len(),
        ServeConfig {
            tick: TickMode::Manual,
            watermark: 2,
            checkpoint: None,
        },
        None,
    )
    .unwrap();
    let handle = runtime.handle();

    let submit = |handle: &ServeHandle, demand: f64| {
        let handle = handle.clone();
        std::thread::spawn(move || {
            handle
                .submit(SubmitSpec {
                    ingress: NodeId(0),
                    app: AppId(0),
                    demand,
                    duration: 2,
                })
                .unwrap()
        })
    };

    // Fill the queue to the watermark, then overflow it. The first two
    // submitters block for their slot; the third must be answered
    // immediately with Shed — before any slot closes.
    let first = submit(&handle, 1.0);
    let second = submit(&handle, 2.0);
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().unwrap().pending < 2 {
        assert!(Instant::now() < deadline, "queue never filled");
        std::thread::sleep(Duration::from_millis(5));
    }
    let third = submit(&handle, 3.0);
    let shed_reply = third.join().unwrap();
    assert_eq!(shed_reply, SubmitReply::Shed);
    assert_eq!(shed_reply.decision(), Some(Decision::Shed));

    let stats = handle.stats().unwrap();
    assert_eq!(stats.shed, 1, "shed submissions are counted");
    assert_eq!(stats.pending, 2, "queued submissions stay queued");
    assert_eq!(stats.submitted, 2, "shed submissions are not 'submitted'");

    // The queued two still get real decisions once the slot closes.
    handle.advance(1).unwrap();
    for waiter in [first, second] {
        match waiter.join().unwrap() {
            SubmitReply::Decided { decision, .. } => {
                assert_ne!(decision, Decision::Shed);
            }
            other => panic!("expected a decision, got {other:?}"),
        }
    }
    // Shedding consumed no request id: both decided ids are 0 and 1.
    assert_eq!(handle.stats().unwrap().submitted, 2);

    handle.shutdown().unwrap();
    let report = runtime.join().expect("engine actor");
    assert_eq!(report.stats.shed, 1);
}

// ---------------------------------------------------------------------
// Departure probes
// ---------------------------------------------------------------------

#[test]
fn depart_probe_tracks_resource_lifetime() {
    let scenario = tiny_scenario();
    let runtime = spawn(
        whole(&scenario.substrate),
        |_, _| build_algorithm(&scenario, Algorithm::Fullg),
        scenario.penalty(),
        scenario.config.measure_window,
        scenario.apps.len(),
        ServeConfig::default(),
        None,
    )
    .unwrap();
    let handle = runtime.handle();

    let waiter = {
        let handle = handle.clone();
        std::thread::spawn(move || {
            handle
                .submit(SubmitSpec {
                    ingress: NodeId(0),
                    app: AppId(0),
                    demand: 0.5,
                    duration: 2,
                })
                .unwrap()
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().unwrap().pending < 1 {
        assert!(Instant::now() < deadline, "submission never queued");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.advance(1).unwrap();
    let id = match waiter.join().unwrap() {
        SubmitReply::Decided { id, decision, .. } => {
            assert_eq!(decision, Decision::Accept, "tiny demand must fit");
            id
        }
        other => panic!("expected a decision, got {other:?}"),
    };
    assert!(handle.depart(id).unwrap(), "holds resources after accept");
    handle.advance(3).unwrap();
    assert!(
        !handle.depart(id).unwrap(),
        "released after its duration elapsed"
    );
    // Invalid submissions are refused without consuming anything.
    let bad = handle
        .submit(SubmitSpec {
            ingress: NodeId(99),
            app: AppId(0),
            demand: 1.0,
            duration: 1,
        })
        .unwrap();
    assert!(matches!(bad, SubmitReply::Invalid(_)));

    handle.shutdown().unwrap();
    runtime.join().expect("engine actor");
}

#[test]
fn depart_releases_capacity_for_readmission() {
    let scenario = tiny_scenario();
    let runtime = spawn(
        whole(&scenario.substrate),
        |_, _| build_algorithm(&scenario, Algorithm::Fullg),
        scenario.penalty(),
        scenario.config.measure_window,
        scenario.apps.len(),
        ServeConfig::default(),
        None,
    )
    .unwrap();
    let handle = runtime.handle();

    // Submits `n` identical requests into one slot, closes it, and
    // returns the (accepted, rejected) id partitions.
    let slot_batch = |n: usize| {
        let waiters: Vec<_> = (0..n)
            .map(|_| {
                let handle = handle.clone();
                std::thread::spawn(move || {
                    handle
                        .submit(SubmitSpec {
                            ingress: NodeId(0),
                            app: AppId(0),
                            demand: 30.0,
                            duration: 100,
                        })
                        .unwrap()
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while (handle.stats().unwrap().pending as usize) < n {
            assert!(Instant::now() < deadline, "submissions never queued");
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.advance(1).unwrap();
        let mut accepted = Vec::new();
        let mut rejected = Vec::new();
        for w in waiters {
            match w.join().unwrap() {
                SubmitReply::Decided { id, decision, .. } => match decision {
                    Decision::Accept => accepted.push(id),
                    Decision::Reject => rejected.push(id),
                    Decision::Shed => panic!("no shedding below the watermark"),
                },
                other => panic!("expected a decision, got {other:?}"),
            }
        }
        (accepted, rejected)
    };

    // Eight demand-30 chains oversubscribe the tiny world: some are
    // admitted, at least one is rejected for lack of capacity.
    let (accepted, rejected) = slot_batch(8);
    assert!(!accepted.is_empty(), "some requests must fit");
    assert!(!rejected.is_empty(), "8 × demand-30 must oversubscribe");

    // DEPART every admitted request (duration 100 — nowhere near
    // expiring). Each reports it was active; rejected ids are no-ops.
    for &id in &accepted {
        assert!(handle.depart(id).unwrap(), "{id:?} held resources");
    }
    assert!(!handle.depart(rejected[0]).unwrap(), "rejects hold nothing");
    // The releases take effect at the next slot close.
    handle.advance(1).unwrap();
    for &id in &accepted {
        assert!(!handle.depart(id).unwrap(), "{id:?} released early");
    }

    // Re-admission: with everything released the same batch fits at
    // least as well as before.
    let (readmitted, _) = slot_batch(accepted.len());
    assert_eq!(
        readmitted.len(),
        accepted.len(),
        "freed capacity re-admits the same load"
    );

    handle.shutdown().unwrap();
    runtime.join().expect("engine actor");
}

// ---------------------------------------------------------------------
// Process-level: graceful shutdown + byte-identical resume (S2),
// SIGKILL crash recovery from the last durable checkpoint
// ---------------------------------------------------------------------

/// A `vne-serve` process started on an ephemeral port.
struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Daemon {
    fn start(extra: &[&str]) -> Self {
        let mut child = ProcessCommand::new(env!("CARGO_BIN_EXE_vne-serve"))
            .args(["--addr", "127.0.0.1:0", "--manual"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn vne-serve");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read banner");
        // "vne-serve listening on <addr> alg=... topology=..." — pinned
        // as the first stdout line.
        let addr = banner
            .strip_prefix("vne-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .split_whitespace()
            .next()
            .unwrap()
            .to_string();
        Self {
            child,
            addr,
            stdout,
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr)
    }

    /// Sends `SHUTDOWN` and waits for a clean exit; returns the drained
    /// summary line.
    fn shutdown(mut self) -> String {
        let mut client = self.client();
        assert_eq!(client.send(&Command::Shutdown), Reply::Bye);
        let status = self.child.wait().expect("wait for daemon");
        assert!(status.success(), "daemon exited {status:?}");
        let mut drained = String::new();
        self.stdout.read_line(&mut drained).expect("drained line");
        assert!(
            drained.starts_with("vne-serve drained:"),
            "unexpected final line {drained:?}"
        );
        drained
    }

    fn kill(mut self) {
        self.child.kill().expect("SIGKILL daemon");
        let _ = self.child.wait();
    }
}

/// The deterministic request script both process tests replay: one
/// submission per slot, an explicit `ADVANCE` closing each. `SUBMIT`
/// blocks its connection until the slot closes, so the submission rides
/// on `submitter` while `control` polls `STATS` until it is queued and
/// then advances — keeping the slot each request lands in exact.
fn scripted_slot(submitter: &mut Client, control: &mut Client, s: u32) -> (Reply, u64) {
    let submit = Command::Submit {
        ingress: NodeId(s % 3),
        app: AppId(s % 4),
        demand: 4.0 + f64::from(s),
        duration: 2 + (s % 3),
    };
    submit_and_close(submitter, control, s, &submit)
}

/// Slot `s` of a script: `submit` alone, then the `ADVANCE` closing it.
fn submit_and_close(
    submitter: &mut Client,
    control: &mut Client,
    s: u32,
    submit: &Command,
) -> (Reply, u64) {
    submitter.write(submit);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = control.stats();
        if stat(&stats, "pending") == "1" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slot {s}: submission never queued"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let committed = match control.send(&Command::Advance { slots: 1 }) {
        Reply::Advanced { slot } => slot,
        other => panic!("slot {s}: expected ADVANCED, got {other:?}"),
    };
    let decision = submitter.read();
    assert!(
        matches!(decision, Reply::Submitted { .. }),
        "slot {s}: expected a decision, got {decision:?}"
    );
    (decision, committed)
}

/// Engine blobs embed the wall-clock `online_secs`; normalize it away
/// before byte comparison (observer/algorithm blobs carry no clock).
fn normalized_engine(blob: &vne_model::state::StateBlob) -> vne_model::state::StateBlob {
    let mut state = EngineState::fresh();
    state.restore(blob).expect("engine blob restores");
    state.set_online_secs(0.0);
    use vne_model::state::Snapshot as _;
    state.snapshot()
}

const SCRIPT_SLOTS: u32 = 10;

/// Runs the full script uninterrupted with checkpointing; returns the
/// decision transcript, the final fingerprint, and the checkpoint path.
fn reference_run(tag: &str) -> (Vec<Reply>, String, PathBuf) {
    let ckpt = temp_path(&format!("{tag}-ref.ckpt"));
    let _ = std::fs::remove_file(&ckpt);
    let daemon = Daemon::start(&[
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "3",
    ]);
    let mut submitter = daemon.client();
    let mut control = daemon.client();
    let mut decisions = Vec::new();
    for s in 0..SCRIPT_SLOTS {
        let (decision, committed) = scripted_slot(&mut submitter, &mut control, s);
        assert_eq!(committed, u64::from(s) + 1);
        decisions.push(decision);
    }
    let stats = control.stats();
    let fingerprint = stat(&stats, "fingerprint").to_string();
    assert_eq!(stat(&stats, "slots"), SCRIPT_SLOTS.to_string());
    drop(submitter);
    drop(control);
    daemon.shutdown();
    (decisions, fingerprint, ckpt)
}

/// S2: a clean `SHUTDOWN` writes a final checkpoint the daemon can
/// resume from byte-identically, and the process exits 0.
#[test]
fn graceful_shutdown_resumes_from_final_checkpoint_byte_identically() {
    let (_, fingerprint, ckpt) = reference_run("graceful");
    let final_ckpt = read_checkpoint_file(&ckpt).expect("final checkpoint readable");
    assert_eq!(
        final_ckpt.slot,
        SCRIPT_SLOTS - 1,
        "shutdown checkpointed the last slot"
    );

    // Resume: the restored daemon reports the exact serving state the
    // first one shut down with.
    let resumed = Daemon::start(&[
        "--resume-from",
        ckpt.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    let mut client = resumed.client();
    let stats = client.stats();
    assert_eq!(stat(&stats, "fingerprint"), fingerprint);
    assert_eq!(stat(&stats, "slots"), SCRIPT_SLOTS.to_string());
    assert_eq!(stat(&stats, "submitted"), SCRIPT_SLOTS.to_string());
    drop(client);
    resumed.shutdown();

    // The resumed daemon's own final checkpoint is byte-identical to
    // what it restored: no slot closed in between, and `online_secs`
    // counts only the time spent closing slots.
    let again = read_checkpoint_file(&ckpt).unwrap();
    assert_eq!(again, final_ckpt);
    let _ = std::fs::remove_file(&ckpt);
}

/// Hostile input: a duration whose departure slot does not fit `Slot`
/// is refused with `ERR` at the door (unchecked, `arrival + duration`
/// panics the actor in debug and wraps to a past departure in release).
/// The refusal consumes no id and queues nothing, so the scripted run
/// around it decides and fingerprints exactly as the clean one.
#[test]
fn a_departure_past_the_slot_horizon_is_refused_and_leaves_the_run_unchanged() {
    let (clean_decisions, clean_fingerprint, ckpt) = reference_run("horizon-clean");
    let _ = std::fs::remove_file(&ckpt);

    let daemon = Daemon::start(&[]);
    let mut submitter = daemon.client();
    let mut control = daemon.client();
    let mut hostile = daemon.client();
    // A submit that is wrongly queued blocks until its slot closes:
    // fail the read instead of hanging.
    hostile
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let overflow = |duration: Slot| Command::Submit {
        ingress: NodeId(0),
        app: AppId(0),
        demand: 1.0,
        duration,
    };
    let mut decisions = Vec::new();
    for s in 0..SCRIPT_SLOTS {
        // At slot `s` the longest admissible duration is `Slot::MAX - s`.
        if s >= 1 {
            for duration in [Slot::MAX, Slot::MAX - s + 1] {
                match hostile.send(&overflow(duration)) {
                    Reply::Err(reason) => assert!(reason.contains("slot horizon"), "{reason}"),
                    other => panic!("slot {s}: expected ERR, got {other:?}"),
                }
            }
        }
        decisions.push(scripted_slot(&mut submitter, &mut control, s).0);
    }
    assert_eq!(decisions, clean_decisions);
    let stats = control.stats();
    assert_eq!(stat(&stats, "fingerprint"), clean_fingerprint);
    assert_eq!(stat(&stats, "submitted"), SCRIPT_SLOTS.to_string());
    assert_eq!(stat(&stats, "pending"), "0");
    drop((submitter, control, hostile));
    daemon.shutdown();
}

/// The largest duration the daemon accepts departs at `Slot::MAX`: the
/// request is accepted, stepped, checkpointed at shutdown and restored
/// by a second daemon, and stays alive through another slot. The
/// engine books it as one calendar entry, so both legs, process start
/// and checkpoint file included, finish in well under a second; a
/// calendar dense over the horizon would need ≈ 4·10⁹ slots.
#[test]
fn a_departure_at_the_slot_horizon_is_booked_checkpointed_and_restored() {
    let ckpt = temp_path("horizon-far.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let started = Instant::now();
    let daemon = Daemon::start(&["--checkpoint", ckpt.to_str().unwrap()]);
    let mut submitter = daemon.client();
    let mut control = daemon.client();
    let far = Command::Submit {
        ingress: NodeId(0),
        app: AppId(0),
        demand: 1.0,
        duration: Slot::MAX,
    };
    let (decision, _) = submit_and_close(&mut submitter, &mut control, 0, &far);
    assert!(
        matches!(
            decision,
            Reply::Submitted {
                decision: Decision::Accept,
                ..
            }
        ),
        "{decision:?}"
    );
    assert_eq!(
        control.send(&Command::Advance { slots: 2 }),
        Reply::Advanced { slot: 3 }
    );
    assert_eq!(stat(&control.stats(), "active"), "1");
    drop((submitter, control));
    daemon.shutdown();

    let resumed = Daemon::start(&["--resume-from", ckpt.to_str().unwrap()]);
    let mut client = resumed.client();
    assert_eq!(stat(&client.stats(), "active"), "1");
    assert_eq!(
        client.send(&Command::Advance { slots: 1 }),
        Reply::Advanced { slot: 4 }
    );
    assert_eq!(stat(&client.stats(), "active"), "1");
    drop(client);
    resumed.shutdown();
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
    let _ = std::fs::remove_file(&ckpt);
}

/// The acceptance crash drill: SIGKILL the daemon mid-run, restart from
/// the last durable checkpoint, replay the lost tail, and end with the
/// same decisions, fingerprint, and checkpoint bytes as the
/// uninterrupted run.
#[test]
fn kill_and_recover_resumes_from_last_durable_checkpoint() {
    let (reference_decisions, reference_fingerprint, reference_ckpt) = reference_run("kill");
    let reference_final = read_checkpoint_file(&reference_ckpt).unwrap();

    let ckpt = temp_path("kill-crash.ckpt");
    let _ = std::fs::remove_file(&ckpt);

    // Phase 1: run the script through slot 6, then SIGKILL. With
    // --checkpoint-every 3 the checkpoints landed at slots 2 and 5 —
    // slot 6 is committed in memory only and dies with the process.
    let daemon = Daemon::start(&[
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "3",
    ]);
    let mut submitter = daemon.client();
    let mut control = daemon.client();
    let mut crash_decisions = Vec::new();
    for s in 0..7 {
        let (decision, _) = scripted_slot(&mut submitter, &mut control, s);
        crash_decisions.push(decision);
    }
    drop(submitter);
    drop(control);
    daemon.kill();

    let durable = read_checkpoint_file(&ckpt).expect("durable checkpoint survives SIGKILL");
    assert_eq!(durable.slot, 5, "last durable capture is slot 5");

    // Phase 2: restart from the durable checkpoint and replay the lost
    // tail (slots 6..10 of the same script).
    let recovered = Daemon::start(&[
        "--resume-from",
        ckpt.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "3",
    ]);
    let mut submitter = recovered.client();
    let mut control = recovered.client();
    let stats = control.stats();
    assert_eq!(stat(&stats, "slots"), "6", "resumed at the durable slot");
    let mut recovered_decisions = Vec::new();
    for s in 6..SCRIPT_SLOTS {
        let (decision, committed) = scripted_slot(&mut submitter, &mut control, s);
        assert_eq!(committed, u64::from(s) + 1);
        recovered_decisions.push(decision);
    }
    let stats = control.stats();
    assert_eq!(
        stat(&stats, "fingerprint"),
        reference_fingerprint,
        "recovered run's fingerprint matches the uninterrupted run"
    );
    assert_eq!(stat(&stats, "submitted"), SCRIPT_SLOTS.to_string());
    drop(submitter);
    drop(control);
    recovered.shutdown();

    // Decisions: the crash run's slots 0..7 and the recovery's 6..10
    // must agree with the uninterrupted transcript. The decision ids
    // line up because ids are assigned at slot close, never for
    // submissions a crash could lose.
    for (s, decision) in crash_decisions.iter().take(6).enumerate() {
        assert_eq!(decision, &reference_decisions[s], "pre-crash slot {s}");
    }
    for (i, decision) in recovered_decisions.iter().enumerate() {
        let s = 6 + i;
        assert_eq!(decision, &reference_decisions[s], "recovered slot {s}");
    }

    // And the recovered final checkpoint is byte-identical to the
    // uninterrupted one, modulo the engine's wall-clock field.
    let recovered_final = read_checkpoint_file(&ckpt).unwrap();
    assert_eq!(recovered_final.slot, reference_final.slot);
    assert_eq!(recovered_final.algorithm, reference_final.algorithm);
    assert_eq!(
        recovered_final.algorithm_state,
        reference_final.algorithm_state
    );
    assert_eq!(
        recovered_final.observer_state, reference_final.observer_state,
        "WindowSummary + serving counters are byte-identical"
    );
    assert_eq!(
        normalized_engine(&recovered_final.engine),
        normalized_engine(&reference_final.engine)
    );

    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&reference_ckpt);
}

/// The wall-clock tick closes slots without any `ADVANCE`: a quiet
/// daemon still commits empty slots and a submission is decided within
/// a few ticks.
#[test]
fn interval_tick_decides_without_manual_advance() {
    let scenario = tiny_scenario();
    let runtime = spawn(
        whole(&scenario.substrate),
        |_, _| build_algorithm(&scenario, Algorithm::Quickg),
        scenario.penalty(),
        scenario.config.measure_window,
        scenario.apps.len(),
        ServeConfig {
            tick: TickMode::Interval(Duration::from_millis(5)),
            watermark: 64,
            checkpoint: None,
        },
        None,
    )
    .unwrap();
    let handle = runtime.handle();
    let reply = handle
        .submit(SubmitSpec {
            ingress: NodeId(0),
            app: AppId(1),
            demand: 0.5,
            duration: 1,
        })
        .unwrap();
    assert!(
        matches!(reply, SubmitReply::Decided { .. }),
        "tick decided the submission: {reply:?}"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().unwrap().slots_run < 3 {
        assert!(Instant::now() < deadline, "ticks never accumulated");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown().unwrap();
    let report = runtime.join().expect("engine actor");
    assert!(report.stats.slots_run >= 3);
    assert_eq!(report.stats.accepted + report.stats.rejected, 1);
}

// ---------------------------------------------------------------------
// Sharded serving: a k = 4 world over TCP against the offline coordinator
// ---------------------------------------------------------------------

/// The starved/roomy shape of the coordinator's own spanning tests,
/// widened to four 2-node shards on a line: starved (30 CU per node) —
/// tight (120 CU: room for two demand-5 chains) — starved — roomy.
fn four_shard_world() -> (ShardedSubstrate, AppSet) {
    let mut s = SubstrateNetwork::new("span4");
    let nodes: Vec<NodeId> = [30.0, 30.0, 120.0, 120.0, 30.0, 30.0, 1000.0, 1000.0]
        .into_iter()
        .enumerate()
        .map(|(i, cap)| s.add_node(format!("n{i}"), Tier::Edge, cap, 1.0).unwrap())
        .collect();
    for pair in nodes.windows(2) {
        s.add_link(pair[0], pair[1], 500.0, 1.0).unwrap();
    }
    let assignment = PartitionAssignment::new(vec![0, 0, 1, 1, 2, 2, 3, 3]).unwrap();
    let mut apps = AppSet::new();
    let chain = shapes::uniform_chain(2, 10.0, 3.0).unwrap();
    apps.push("chain", AppShape::Chain, chain).unwrap();
    (ShardedSubstrate::new(&s, &assignment).unwrap(), apps)
}

/// One submission per slot, `(ingress, demand, duration)`; request ids
/// equal slot numbers. A demand-5 chain (50 CU per VNF) overflows a
/// starved shard and is offered next door.
const SHARDED_SCRIPT: [(u32, f64, Slot); 8] = [
    (0, 5.0, 30), // adopted by the tight shard 1
    (4, 5.0, 30), // adopted by shard 1 as well, which is now full
    (0, 5.0, 30), // shard 0's only neighbor is full: rejected
    (0, 1.0, 30), // fits at home
    (0, 5.0, 30), // request 0 was DEPARTed before this slot: adopted again
    (4, 5.0, 30), // shard 1 is full again, shard 3 adopts
    (6, 2.0, 3),
    (4, 1.0, 2),
];
/// `CHECKPOINT` is forced once this slot has closed …
const FORCED_AFTER: u32 = 3;
/// … and request 0 — homed in shard 0, held by shard 1 — is released
/// before the next one closes.
const ADOPTED: RequestId = RequestId(0);

fn sharded_events() -> Vec<SlotEvents> {
    (0..)
        .zip(SHARDED_SCRIPT)
        .map(|(t, (ingress, demand, duration))| SlotEvents {
            slot: t,
            arrivals: vec![Request {
                id: RequestId(u64::from(t)),
                arrival: t,
                duration,
                ingress: NodeId(ingress),
                app: AppId(0),
                demand,
            }],
            churn: vec![],
        })
        .collect()
}

/// The typed sharded state of a `k > 1` checkpoint.
fn sharded_state(checkpoint: &EngineCheckpoint) -> ShardCheckpoint {
    ShardCheckpoint::decode(&checkpoint.engine, &checkpoint.algorithm_state).unwrap()
}

/// What one served segment of the script leaves behind.
struct Served {
    decisions: Vec<Reply>,
    fingerprint: String,
    /// The file as the forced `CHECKPOINT` wrote it.
    forced: Option<EngineCheckpoint>,
    /// The file as the shutdown left it.
    last: EngineCheckpoint,
}

/// Serves `slots` of the script over TCP on a fresh (or resumed) actor,
/// then shuts it down over the wire.
fn serve_sharded(
    tag: &str,
    resume: Option<&EngineCheckpoint>,
    slots: std::ops::Range<u32>,
) -> Served {
    let (sharded, apps) = four_shard_world();
    let penalty = RejectionPenalty::conservative(&apps, sharded.source());
    let path = temp_path(tag);
    let _ = std::fs::remove_file(&path);
    let runtime = spawn(
        sharded,
        |_, local| {
            Box::new(FullG::new(
                local.clone(),
                apps.clone(),
                PlacementPolicy::default(),
            ))
        },
        penalty,
        (0, SHARDED_SCRIPT.len() as Slot),
        apps.len(),
        ServeConfig {
            tick: TickMode::Manual,
            watermark: 64,
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                every: Slot::MAX,
            }),
        },
        resume,
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", runtime.handle()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let server_thread = std::thread::spawn(move || server.serve().unwrap());
    let mut submitter = Client::connect(&addr);
    let mut control = Client::connect(&addr);

    let mut decisions = Vec::new();
    let mut forced = None;
    for s in slots {
        if s == FORCED_AFTER + 1 {
            let departed = Reply::Departure {
                id: ADOPTED,
                active: true,
            };
            assert_eq!(control.send(&Command::Depart { id: ADOPTED }), departed);
        }
        let (ingress, demand, duration) = SHARDED_SCRIPT[s as usize];
        let submit = Command::Submit {
            ingress: NodeId(ingress),
            app: AppId(0),
            demand,
            duration,
        };
        let (decision, committed) = submit_and_close(&mut submitter, &mut control, s, &submit);
        assert_eq!(committed, u64::from(s) + 1);
        decisions.push(decision);
        if s == FORCED_AFTER {
            let written = Reply::Checkpointed { slot: s };
            assert_eq!(control.send(&Command::Checkpoint), written);
            forced = Some(read_checkpoint_file(&path).unwrap());
        }
    }
    let fingerprint = stat(&control.stats(), "fingerprint").to_string();
    assert_eq!(control.send(&Command::Shutdown), Reply::Bye);
    server_thread.join().unwrap();
    runtime.join().expect("engine actor");
    let last = read_checkpoint_file(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    Served {
        decisions,
        fingerprint,
        forced,
        last,
    }
}

/// Sharded serving is `spawn` with a partition that has more than one
/// shard: a four-shard world under a load that spans is served over
/// TCP, checkpointed by force mid-script and finished by a second actor
/// resumed from that file — and decisions, fingerprint, spanning
/// counters and per-shard state all equal one offline
/// `ShardCoordinator` run over the same slot events. `DEPART` finds a
/// request in the shard that adopted it, and the room it frees re-admits
/// the next overflow.
#[test]
fn four_shards_served_over_tcp_replay_through_the_offline_coordinator() {
    let slots = SHARDED_SCRIPT.len() as u32;
    let whole = serve_sharded("sharded-whole.ckpt", None, 0..slots);
    let forced = whole.forced.as_ref().expect("CHECKPOINT was forced");
    assert_eq!(forced.slot, FORCED_AFTER);
    let resumed = serve_sharded(
        "sharded-resumed.ckpt",
        Some(forced),
        FORCED_AFTER + 1..slots,
    );

    // Offline: the same events through `run`, the same early release.
    let (sharded, apps) = four_shard_world();
    let penalty = RejectionPenalty::conservative(&apps, sharded.source());
    let offline = |release: bool| {
        let mut coordinator = ShardCoordinator::new(sharded.clone(), |_, local| {
            Box::new(FullG::new(
                local.clone(),
                apps.clone(),
                PlacementPolicy::default(),
            ))
        });
        let mut seen = Tee(
            WindowSummary::new((0, slots), penalty.clone()),
            Recorder::new(),
        );
        let mut head = sharded_events();
        let tail = head.split_off(FORCED_AFTER as usize + 1);
        coordinator.run(head, &mut seen);
        if release {
            assert!(coordinator.release_early(ADOPTED));
        }
        let stats = coordinator.run(tail, &mut seen);
        let decisions: Vec<Reply> = seen
            .1
            .finish("FULLG", &stats)
            .requests
            .iter()
            .map(|o| Reply::Submitted {
                id: o.id,
                slot: o.arrival,
                decision: match o.status {
                    RequestStatus::Accepted => Decision::Accept,
                    _ => Decision::Reject,
                },
            })
            .collect();
        let fingerprint = format!("{:016x}", seen.0.finish(&stats).fingerprint());
        (coordinator, decisions, fingerprint)
    };
    let (coordinator, decisions, fingerprint) = offline(true);

    assert_eq!(whole.decisions, decisions);
    assert_eq!(resumed.decisions, decisions[FORCED_AFTER as usize + 1..]);
    assert_eq!(whole.fingerprint, fingerprint);
    assert_eq!(resumed.fingerprint, fingerprint);

    // Requests 0, 1, 2, 4 and 5 overflow; 5 is turned down by shard 1
    // before shard 3 takes it.
    let span = SpanningStats {
        candidates: 5,
        attempts: 6,
        granted: 4,
        denied: 1,
    };
    assert_eq!(coordinator.spanning_stats(), span);
    assert_eq!(sharded_state(&whole.last).spanning, span);
    assert_eq!(sharded_state(&resumed.last).spanning, span);

    // Every shard's engine and algorithm, byte for byte; and the two
    // served runs agree on the observer stack as well.
    let state = sharded_state(&coordinator.checkpoint(StateBlob::default()).unwrap());
    for served in [&whole.last, &resumed.last] {
        let typed = sharded_state(served);
        assert_eq!(served.slot, slots - 1);
        assert_eq!(typed.engines, state.engines);
        assert_eq!(typed.algorithms, state.algorithms);
    }
    assert_eq!(whole.last.observer_state, resumed.last.observer_state);

    // The release is what re-admitted request 4: without it shard 1
    // stays full and the overflow is rejected like request 2 was.
    let reject = |reply: &Reply| {
        matches!(
            reply,
            Reply::Submitted {
                decision: Decision::Reject,
                ..
            }
        )
    };
    assert!(
        reject(&decisions[2]) && !reject(&decisions[4]),
        "{decisions:?}"
    );
    let (_, held, _) = offline(false);
    assert!(reject(&held[4]), "{held:?}");
}
