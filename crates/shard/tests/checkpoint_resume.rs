//! Checkpoint interchangeability at the `k = 1` seam, pinned
//! deterministically: a single-shard coordinator and the monolithic
//! engine produce and accept each other's checkpoints, while a
//! multi-shard checkpoint is refused by both with a typed error (and
//! round-trips through the typed [`ShardCheckpoint`] instead). Also
//! pins that a `k = 4` checkpoint survives the atomic checkpoint-file
//! path, that a resumed coordinator keeps the checkpointed
//! `online_secs` instead of restarting the clock, and that the
//! `online_secs` a checkpoint stores include its own slot.
//!
//! [`ShardCheckpoint`]: vne_model::state::ShardCheckpoint

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::churn::ChurnEvent;
use vne_model::ids::{AppId, NodeId, RequestId};
use vne_model::policy::PlacementPolicy;
use vne_model::request::{Request, Slot, SlotEvents};
use vne_model::shard::{PartitionAssignment, ShardId, ShardedSubstrate};
use vne_model::state::{Snapshot, StateBlob, StateReader};
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_olive::algorithm::OnlineAlgorithm;
use vne_olive::fullg::FullG;
use vne_shard::{engine_checkpoint, shard_checkpoint, ShardCoordinator};
use vne_sim::engine::{restore_engine, run_stream_with, EngineState, ReembedAll, StreamStats};
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

    // It lifts to the typed form, round-trips, and resumes at k = 2.
    let typed = shard_checkpoint(&checkpoint).unwrap();
    assert_eq!(typed.shard_count(), 2);
    assert_eq!(typed.slot, CHECKPOINT_SLOT);
    let envelope = engine_checkpoint(&typed);

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
    assert_eq!(shard_checkpoint(&loaded).unwrap().shard_count(), 4);

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
            // k > 1: the merged counters lead the coordinator cursors —
            // slots_run (u32), arrivals and peak_active (u64 each), then
            // online_secs at byte 20.
            let mut typed = shard_checkpoint(&checkpoint).unwrap();
            let mut bytes = typed.coordinator.into_bytes();
            bytes[20..28].copy_from_slice(&STORED_SECS.to_bits().to_le_bytes());
            typed.coordinator = StateBlob::from_bytes(bytes);
            let mut r = StateReader::new(&typed.coordinator);
            r.read_u32().unwrap();
            r.read_usize().unwrap();
            r.read_usize().unwrap();
            assert_eq!(
                r.read_f64().unwrap(),
                STORED_SECS,
                "patched the wrong field"
            );
            checkpoint = engine_checkpoint(&typed);
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
/// `k = 1`, in the merged counters that lead the coordinator cursors
/// at `k > 1`.
fn stored_online_secs(checkpoint: &vne_sim::engine::EngineCheckpoint, k: usize) -> f64 {
    if k == 1 {
        let mut state = EngineState::fresh();
        state.restore(&checkpoint.engine).unwrap();
        return state.stats().online_secs;
    }
    let typed = shard_checkpoint(checkpoint).unwrap();
    let stats: StreamStats = StateReader::new(&typed.coordinator).read().unwrap();
    stats.online_secs
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
