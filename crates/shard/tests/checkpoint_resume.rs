//! Checkpoint interchangeability at the `k = 1` seam, pinned
//! deterministically: a single-shard coordinator and the monolithic
//! engine produce and accept each other's checkpoints, while a
//! multi-shard checkpoint is refused by both with a typed error (and
//! round-trips through the typed [`ShardCheckpoint`] instead). Also
//! pins that a `k = 4` checkpoint survives the atomic checkpoint-file
//! path, that a resumed coordinator keeps the checkpointed
//! `online_secs` instead of restarting the clock, that the
//! `online_secs` a checkpoint stores include its own slot, and every
//! byte of one `k = 4` checkpoint. Last, a checkpoint with one field of
//! its [`ShardCheckpoint`] tampered with is refused on resume, naming
//! the check it fails.

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::churn::ChurnEvent;
use vne_model::ids::{AppId, LinkId, NodeId, RequestId};
use vne_model::policy::PlacementPolicy;
use vne_model::request::{Request, Slot, SlotEvents};
use vne_model::shard::{PartitionAssignment, ShardId, ShardedSubstrate};
use vne_model::state::{Snapshot, StateBlob};
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_olive::algorithm::OnlineAlgorithm;
use vne_olive::fullg::FullG;
use vne_shard::{ShardCheckpoint, ShardCoordinator};
use vne_sim::engine::{restore_engine, run_stream_with, EngineCheckpoint, EngineState, ReembedAll};
use vne_sim::observe::{Checkpointer, WindowSummary};
use vne_sim::persist::{read_checkpoint_file, write_checkpoint_file};

const HORIZON: Slot = 10;
const CHECKPOINT_SLOT: Slot = 4;

fn apps() -> AppSet {
    let mut apps = AppSet::new();
    apps.push(
        "chain",
        AppShape::Chain,
        shapes::uniform_chain(2, 10.0, 3.0).unwrap(),
    )
    .unwrap();
    apps
}

fn fullg(s: &SubstrateNetwork) -> FullG {
    FullG::new(s.clone(), apps(), PlacementPolicy::default())
}

/// The span topology: a starved 2-node region and a roomy 2-node
/// region joined by one link (the cut under the 2-shard partition).
fn world() -> (SubstrateNetwork, [NodeId; 4]) {
    let mut s = SubstrateNetwork::new("span");
    let a0 = s.add_node("a0", Tier::Edge, 30.0, 1.0).unwrap();
    let a1 = s.add_node("a1", Tier::Edge, 30.0, 1.0).unwrap();
    let b0 = s.add_node("b0", Tier::Edge, 1000.0, 1.0).unwrap();
    let b1 = s.add_node("b1", Tier::Edge, 1000.0, 1.0).unwrap();
    s.add_link(a0, a1, 500.0, 1.0).unwrap();
    s.add_link(a1, b0, 500.0, 1.0).unwrap();
    s.add_link(b0, b1, 500.0, 1.0).unwrap();
    (s, [a0, a1, b0, b1])
}

/// A mixed workload with a churn window straddling the checkpoint slot.
fn events(nodes: &[NodeId; 4]) -> Vec<SlotEvents> {
    let mut events: Vec<SlotEvents> = (0..HORIZON)
        .map(|t| SlotEvents {
            slot: t,
            arrivals: vec![],
            churn: vec![],
        })
        .collect();
    for (id, (t, ingress, demand, duration)) in [
        (0, nodes[0], 1.0, 6),
        (1, nodes[2], 2.0, 4),
        (2, nodes[0], 5.0, 3),
        (5, nodes[3], 1.5, 4),
        (6, nodes[1], 1.0, 2),
    ]
    .into_iter()
    .enumerate()
    {
        events[t as usize].arrivals.push(Request {
            id: RequestId(id as u64),
            arrival: t,
            duration,
            ingress,
            app: AppId(0),
            demand,
        });
    }
    events[3].churn.push(ChurnEvent::NodeDrain {
        node: nodes[2],
        factor: 0.5,
    });
    events[7].churn.push(ChurnEvent::NodeUp(nodes[2]));
    events
}

fn window(s: &SubstrateNetwork) -> WindowSummary {
    WindowSummary::new(
        (0, HORIZON),
        vne_model::cost::RejectionPenalty::conservative(&apps(), s),
    )
}

fn sharded_k(s: &SubstrateNetwork, k: usize) -> ShardedSubstrate {
    let assignment = match k {
        1 => PartitionAssignment::single(s.node_count()).unwrap(),
        4 => PartitionAssignment::new(vec![0, 1, 2, 3]).unwrap(),
        _ => PartitionAssignment::new(vec![0, 0, 1, 1]).unwrap(),
    };
    ShardedSubstrate::new(s, &assignment).unwrap()
}

/// The monolithic reference fingerprint for the shared scenario.
fn monolithic_reference(s: &SubstrateNetwork, ev: &[SlotEvents]) -> u64 {
    let mut algorithm = fullg(s);
    let mut w = window(s);
    let stats = run_stream_with(
        &mut algorithm,
        s,
        ev.iter().cloned(),
        &mut w,
        &mut ReembedAll,
    );
    w.finish(&stats).fingerprint()
}

/// The per-shard algorithm builder: one FULLG per local substrate.
fn shard_fullg() -> impl FnMut(ShardId, &SubstrateNetwork) -> Box<dyn OnlineAlgorithm> {
    let apps = apps();
    move |_, local| {
        Box::new(FullG::new(
            local.clone(),
            apps.clone(),
            PlacementPolicy::default(),
        ))
    }
}

/// The fingerprint of an uninterrupted `k`-shard run of the scenario.
fn sharded_reference(s: &SubstrateNetwork, ev: &[SlotEvents], k: usize) -> u64 {
    let mut coordinator = ShardCoordinator::new(sharded_k(s, k), shard_fullg());
    let mut w = window(s);
    let stats = coordinator.run(ev.iter().cloned(), &mut w);
    w.finish(&stats).fingerprint()
}

/// The typed sharded state of a `k > 1` checkpoint.
fn decoded(checkpoint: &EngineCheckpoint) -> ShardCheckpoint {
    ShardCheckpoint::decode(&checkpoint.engine, &checkpoint.algorithm_state).unwrap()
}

/// A checkpoint taken at `CHECKPOINT_SLOT` by a monolithic run.
fn monolithic_checkpoint(
    s: &SubstrateNetwork,
    ev: &[SlotEvents],
) -> vne_sim::engine::EngineCheckpoint {
    let mut algorithm = fullg(s);
    let mut cp = Checkpointer::every(CHECKPOINT_SLOT + 1, window(s));
    run_stream_with(
        &mut algorithm,
        s,
        ev.iter().take(CHECKPOINT_SLOT as usize + 1).cloned(),
        &mut cp,
        &mut ReembedAll,
    );
    assert_eq!(cp.checkpoints_taken(), 1, "{:?}", cp.last_error());
    cp.into_latest().unwrap()
}

/// A checkpoint taken at `CHECKPOINT_SLOT` by a `k`-shard coordinator.
fn sharded_checkpoint(
    s: &SubstrateNetwork,
    ev: &[SlotEvents],
    k: usize,
) -> vne_sim::engine::EngineCheckpoint {
    let sharded = sharded_k(s, k);
    let apps = apps();
    let mut coordinator = ShardCoordinator::new(sharded, move |_, local| {
        Box::new(FullG::new(
            local.clone(),
            apps.clone(),
            PlacementPolicy::default(),
        ))
    });
    let mut cp = Checkpointer::every(CHECKPOINT_SLOT + 1, window(s));
    coordinator.run(
        ev.iter().take(CHECKPOINT_SLOT as usize + 1).cloned(),
        &mut cp,
    );
    assert_eq!(cp.checkpoints_taken(), 1, "{:?}", cp.last_error());
    cp.into_latest().unwrap()
}

#[test]
fn monolithic_checkpoint_resumes_into_a_single_shard_coordinator() {
    let (s, nodes) = world();
    let ev = events(&nodes);
    let reference = monolithic_reference(&s, &ev);
    let checkpoint = monolithic_checkpoint(&s, &ev);

    let apps = apps();
    let mut w = window(&s);
    let mut resumed = ShardCoordinator::resume_from(
        sharded_k(&s, 1),
        move |_, local| {
            Box::new(FullG::new(
                local.clone(),
                apps.clone(),
                PlacementPolicy::default(),
            ))
        },
        &checkpoint,
        &mut w,
    )
    .unwrap();
    assert_eq!(resumed.next_slot(), u64::from(CHECKPOINT_SLOT) + 1);
    let stats = resumed.run(
        ev.iter()
            .filter(|e| u64::from(e.slot) > u64::from(CHECKPOINT_SLOT))
            .cloned(),
        &mut w,
    );
    assert_eq!(
        w.finish(&stats).fingerprint(),
        reference,
        "a k = 1 coordinator must finish a monolithic checkpoint byte-identically"
    );
}

#[test]
fn single_shard_checkpoint_resumes_into_the_monolithic_engine() {
    let (s, nodes) = world();
    let ev = events(&nodes);
    let reference = monolithic_reference(&s, &ev);
    let checkpoint = sharded_checkpoint(&s, &ev, 1);

    let mut algorithm = fullg(&s);
    let mut w = window(&s);
    let mut state = restore_engine(&checkpoint, &mut algorithm, &s, &mut w).unwrap();
    let remaining = ev[state.next_slot() as usize..].iter().cloned();
    let stats = state.run(&mut algorithm, &s, remaining, &mut w, &mut ReembedAll);
    assert_eq!(
        w.finish(&stats).fingerprint(),
        reference,
        "the monolithic engine must finish a k = 1 coordinator checkpoint byte-identically"
    );
}

#[test]
fn multi_shard_checkpoint_is_refused_outside_its_shape() {
    let (s, nodes) = world();
    let ev = events(&nodes);
    let checkpoint = sharded_checkpoint(&s, &ev, 2);

    // The monolithic engine refuses the packed composite.
    let mut algorithm = fullg(&s);
    let mut w = window(&s);
    assert!(
        restore_engine(&checkpoint, &mut algorithm, &s, &mut w).is_err(),
        "a packed multi-shard checkpoint must not restore into one engine"
    );

    // A k = 1 coordinator refuses it too.
    let single_apps = apps();
    let mut w = window(&s);
    assert!(
        ShardCoordinator::resume_from(
            sharded_k(&s, 1),
            move |_, local| {
                Box::new(FullG::new(
                    local.clone(),
                    single_apps.clone(),
                    PlacementPolicy::default(),
                ))
            },
            &checkpoint,
            &mut w,
        )
        .is_err(),
        "a packed multi-shard checkpoint must not restore into k = 1"
    );

    // It decodes to the typed form, re-encodes to the same blobs, and
    // resumes at k = 2.
    let typed = decoded(&checkpoint);
    assert_eq!(typed.engines.len(), 2);
    assert_eq!(checkpoint.slot, CHECKPOINT_SLOT);
    let mut envelope = checkpoint.clone();
    (envelope.engine, envelope.algorithm_state) = typed.encode();
    assert_eq!(envelope, checkpoint);

    let reference = sharded_reference(&s, &ev, 2);

    let mut w = window(&s);
    let mut resumed =
        ShardCoordinator::resume_from(sharded_k(&s, 2), shard_fullg(), &envelope, &mut w).unwrap();
    let stats = resumed.run(
        ev.iter()
            .filter(|e| u64::from(e.slot) > u64::from(CHECKPOINT_SLOT))
            .cloned(),
        &mut w,
    );
    assert_eq!(w.finish(&stats).fingerprint(), reference);
}

/// The packed sharded envelope through the file path a daemon or a
/// second process would use: written atomically mid-run, read back,
/// resumed at `k = 4`, finished byte-identically.
#[test]
fn multi_shard_checkpoint_resumes_from_a_checkpoint_file() {
    let (s, nodes) = world();
    let ev = events(&nodes);
    let reference = sharded_reference(&s, &ev, 4);

    let checkpoint = sharded_checkpoint(&s, &ev, 4);
    let dir = std::env::temp_dir().join(format!("vne-shard-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("k4.ckpt");
    write_checkpoint_file(&path, &checkpoint).unwrap();
    let loaded = read_checkpoint_file(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(loaded, checkpoint);
    assert_eq!(decoded(&loaded).engines.len(), 4);

    let mut w = window(&s);
    let mut resumed =
        ShardCoordinator::resume_from(sharded_k(&s, 4), shard_fullg(), &loaded, &mut w).unwrap();
    assert_eq!(resumed.next_slot(), u64::from(CHECKPOINT_SLOT) + 1);
    let stats = resumed.run(
        ev.iter()
            .filter(|e| u64::from(e.slot) > u64::from(CHECKPOINT_SLOT))
            .cloned(),
        &mut w,
    );
    assert_eq!(
        w.finish(&stats).fingerprint(),
        reference,
        "a k = 4 checkpoint read back from disk must finish byte-identically"
    );
}

/// The regression: `ShardCoordinator::run` used to stamp
/// `online_secs = elapsed`, dropping the seconds a checkpoint (or an
/// earlier `run` call) had already accumulated. Rewrite the stored
/// seconds to a constant no test run can reach, resume, finish the
/// tail: the total must not fall below the constant.
#[test]
fn resumed_runs_keep_the_checkpointed_online_secs() {
    const STORED_SECS: f64 = 1.0e6;
    let (s, nodes) = world();
    let ev = events(&nodes);
    for k in [1usize, 4] {
        let mut checkpoint = sharded_checkpoint(&s, &ev, k);
        if k == 1 {
            // k = 1 checkpoints carry plain engine state.
            let mut state = EngineState::fresh();
            state.restore(&checkpoint.engine).unwrap();
            state.set_online_secs(STORED_SECS);
            checkpoint.engine = state.snapshot();
        } else {
            // k > 1: the coordinator's merged counters.
            let mut typed = decoded(&checkpoint);
            typed.stats.online_secs = STORED_SECS;
            (checkpoint.engine, checkpoint.algorithm_state) = typed.encode();
            assert_eq!(
                decoded(&checkpoint).stats.online_secs,
                STORED_SECS,
                "patched the wrong field"
            );
        }

        let apps = apps();
        let mut w = window(&s);
        let mut resumed = ShardCoordinator::resume_from(
            sharded_k(&s, k),
            move |_, local| {
                Box::new(FullG::new(
                    local.clone(),
                    apps.clone(),
                    PlacementPolicy::default(),
                ))
            },
            &checkpoint,
            &mut w,
        )
        .unwrap();
        assert_eq!(resumed.stats().online_secs, STORED_SECS, "k = {k}: restore");
        let stats = resumed.run(
            ev.iter()
                .filter(|e| u64::from(e.slot) > u64::from(CHECKPOINT_SLOT))
                .cloned(),
            &mut w,
        );
        assert_eq!(stats.slots_run, HORIZON, "k = {k}: the tail ran");
        assert!(
            stats.online_secs >= STORED_SECS,
            "k = {k}: resumed online_secs {} dropped the checkpointed {STORED_SECS}",
            stats.online_secs
        );
    }
}

/// The `online_secs` a checkpoint stores: in the engine blob at
/// `k = 1`, in the coordinator's merged counters at `k > 1`.
fn stored_online_secs(checkpoint: &vne_sim::engine::EngineCheckpoint, k: usize) -> f64 {
    if k == 1 {
        let mut state = EngineState::fresh();
        state.restore(&checkpoint.engine).unwrap();
        return state.stats().online_secs;
    }
    decoded(checkpoint).stats.online_secs
}

/// The write-side twin of the test above: `run` stamps `online_secs`
/// before the commit hook, so the checkpoint of slot `t` stores the
/// seconds spent up to and including slot `t` — not 0 (a `k = 1`
/// checkpoint serializes the engine state, so that is what must be
/// stamped) and not the stamp of slot `t - 1` (stamping after the hook).
#[test]
fn checkpoints_store_the_online_secs_of_their_own_slot() {
    const PAUSE: std::time::Duration = std::time::Duration::from_millis(20);
    let (s, nodes) = world();
    let ev = events(&nodes);
    for k in [1usize, 4] {
        let mut coordinator = ShardCoordinator::new(sharded_k(&s, k), shard_fullg());
        let mut cp = Checkpointer::every(CHECKPOINT_SLOT + 1, window(&s));
        let slow = ev
            .iter()
            .take(CHECKPOINT_SLOT as usize + 1)
            .cloned()
            .inspect(|_| std::thread::sleep(PAUSE));
        let returned = coordinator.run(slow, &mut cp).online_secs;
        assert_eq!(cp.checkpoints_taken(), 1, "{:?}", cp.last_error());
        let stored = stored_online_secs(&cp.into_latest().unwrap(), k);
        let slept = PAUSE.as_secs_f64() * f64::from(CHECKPOINT_SLOT + 1);
        assert!(
            slept <= stored && stored <= returned,
            "k = {k}: the checkpoint stores {stored} s after {slept} s of pauses; run returned {returned} s"
        );
    }
}

/// The slot after which [`pinned_k4_checkpoint`] is taken.
const PINNED_SLOT: Slot = 2;

/// A `k = 4` coordinator (one node per shard, every link a cut) stepped
/// through slots `0..=PINNED_SLOT` with [`ShardCoordinator::step`] — so
/// `online_secs` stays 0 and the bytes are deterministic — then
/// checkpointed. Request 0 overflows `a1` and is adopted by `b0`'s
/// shard, a cut-link drain (`b0`–`b1`) and an endpoint-node drain (`b1`)
/// are folded, and all three are active or in force at the checkpoint:
/// every coordinator cursor is non-trivial.
fn pinned_k4_checkpoint() -> vne_sim::engine::EngineCheckpoint {
    let (s, [a0, a1, _, b1]) = world();
    let mut coordinator = ShardCoordinator::new(sharded_k(&s, 4), shard_fullg());
    let request = |id: u64, arrival: Slot, ingress: NodeId, demand: f64| Request {
        id: RequestId(id),
        arrival,
        duration: 20,
        ingress,
        app: AppId(0),
        demand,
    };
    let events = [
        SlotEvents {
            slot: 0,
            arrivals: vec![request(0, 0, a1, 5.0), request(1, 0, a0, 1.0)],
            churn: vec![],
        },
        SlotEvents {
            slot: 1,
            arrivals: vec![],
            churn: vec![
                // The b0–b1 link, added third by `world`.
                ChurnEvent::LinkDrain {
                    link: LinkId(2),
                    factor: 0.5,
                },
                ChurnEvent::NodeDrain {
                    node: b1,
                    factor: 0.75,
                },
            ],
        },
        SlotEvents {
            slot: PINNED_SLOT,
            arrivals: vec![request(2, PINNED_SLOT, b1, 2.0)],
            churn: vec![],
        },
    ];
    for event in events {
        coordinator.step(event, &mut vne_sim::NullObserver);
    }
    assert_eq!(coordinator.spanning_stats().granted, 1, "request 0 spans");
    assert_eq!(coordinator.active_count(), 3);
    coordinator.checkpoint(StateBlob::default()).unwrap()
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Every byte of a `k = 4` checkpoint file — envelope, packed shard
/// blobs and the coordinator's cursors — pinned against the layout it
/// was written in, so a refactor of the sharded checkpoint cannot move
/// one unnoticed.
#[test]
fn k4_checkpoint_bytes_are_pinned() {
    let checkpoint = pinned_k4_checkpoint();
    assert_eq!(checkpoint.slot, PINNED_SLOT);
    let bytes = checkpoint.to_bytes();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (1326, 0x529b_812a_022f_d896),
        "the k = 4 checkpoint bytes moved"
    );
}

/// Resumes `checkpoint` at `k` shards as it is, then with `tamper`
/// applied to its typed state: the first must succeed, the second must
/// be refused with an error that mentions `refusal`.
fn assert_refused(
    mut checkpoint: EngineCheckpoint,
    k: usize,
    tamper: impl FnOnce(&mut ShardCheckpoint),
    refusal: &str,
) {
    let (s, _) = world();
    checkpoint.observer_state = StateBlob::default();
    let resume = |checkpoint: &EngineCheckpoint| {
        ShardCoordinator::resume_from(
            sharded_k(&s, k),
            shard_fullg(),
            checkpoint,
            &mut vne_sim::NullObserver,
        )
    };
    assert!(resume(&checkpoint).is_ok(), "the untampered checkpoint");
    let mut typed = decoded(&checkpoint);
    tamper(&mut typed);
    (checkpoint.engine, checkpoint.algorithm_state) = typed.encode();
    match resume(&checkpoint) {
        Ok(_) => panic!("a checkpoint tampered to fail {refusal:?} was resumed"),
        Err(err) => assert!(err.to_string().contains(refusal), "{err}"),
    }
}

#[test]
fn a_cut_factor_outside_the_unit_interval_is_refused() {
    assert_refused(
        pinned_k4_checkpoint(),
        4,
        |typed| {
            assert_eq!(typed.cut_factor, [1.0, 1.0, 0.5]);
            typed.cut_factor[2] = 1.5;
        },
        "coordinator-cut-factor-range: cut 2",
    );
}

#[test]
fn a_node_factor_outside_the_unit_interval_is_refused() {
    assert_refused(
        pinned_k4_checkpoint(),
        4,
        |typed| {
            assert_eq!(typed.node_factor, [(NodeId(3), 0.75)]);
            typed.node_factor[0].1 = -0.25;
        },
        "coordinator-node-factor-range: node n3",
    );
}

/// Under the two-shard cut only `a1`–`b0` crosses, so `a0` is no cut
/// endpoint and its node churn passes through untranslated.
#[test]
fn a_node_factor_off_the_cut_is_refused() {
    let (s, nodes) = world();
    let a0 = nodes[0];
    assert_refused(
        sharded_checkpoint(&s, &events(&nodes), 2),
        2,
        |typed| typed.node_factor.insert(0, (a0, 0.5)),
        "coordinator-node-factor-orphan: node n0",
    );
}

#[test]
fn a_reroute_cursor_for_a_request_active_nowhere_is_refused() {
    assert_refused(
        pinned_k4_checkpoint(),
        4,
        |typed| {
            assert_eq!(typed.rerouted, [(RequestId(0), NodeId(1))]);
            typed.rerouted.push((RequestId(99), NodeId(1)));
        },
        "coordinator-reroute-cursor-stale: rerouted request r99",
    );
}

#[test]
fn a_reroute_cursor_with_an_out_of_range_ingress_is_refused() {
    assert_refused(
        pinned_k4_checkpoint(),
        4,
        |typed| typed.rerouted[0].1 = NodeId(4),
        "coordinator-reroute-cursor: rerouted request r0: global ingress n4",
    );
}

/// Shard 1's engine from the pinned run at slot 2, spliced into a
/// checkpoint of slot 4.
#[test]
fn shards_that_disagree_on_the_slot_are_refused() {
    let (s, nodes) = world();
    let earlier = decoded(&pinned_k4_checkpoint()).engines[1].clone();
    assert_refused(
        sharded_checkpoint(&s, &events(&nodes), 4),
        4,
        |typed| typed.engines[1] = earlier,
        "expected shard 1 at next slot 5, found next slot 3",
    );
}

#[test]
fn run_counters_off_the_slot_are_refused() {
    assert_refused(
        pinned_k4_checkpoint(),
        4,
        |typed| {
            assert_eq!(typed.stats.slots_run, PINNED_SLOT + 1);
            typed.stats.slots_run += 1;
        },
        "expected the run counters at next slot 3, found next slot 4",
    );
}
