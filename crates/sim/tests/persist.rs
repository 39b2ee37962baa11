//! Crash-safe checkpoint files: the atomic write protocol and the
//! refusal of truncated blobs. The scenario a crash mid-write would
//! cause — a prefix of the new checkpoint at the latest path — must be
//! impossible: either the previous complete file survives, or the new
//! complete file is in place.

use std::fs;
use std::path::PathBuf;

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_sim::engine::{run_stream_with, ReembedAll};
use vne_sim::observe::{Checkpointer, WindowSummary};
use vne_sim::persist::{read_checkpoint_file, write_checkpoint_file, PersistError};
use vne_sim::scenario::{Algorithm, Scenario, ScenarioConfig};

fn tiny_scenario() -> Scenario {
    let mut s = SubstrateNetwork::new("tiny");
    let e0 = s.add_node("e0", Tier::Edge, 300.0, 50.0).unwrap();
    let t = s.add_node("t", Tier::Transport, 900.0, 10.0).unwrap();
    let c = s.add_node("c", Tier::Core, 2700.0, 1.0).unwrap();
    s.add_link(e0, t, 1500.0, 1.0).unwrap();
    s.add_link(t, c, 4500.0, 1.0).unwrap();
    let mut apps = AppSet::new();
    apps.push(
        "chain",
        AppShape::Chain,
        shapes::uniform_chain(2, 10.0, 3.0).unwrap(),
    )
    .unwrap();
    let mut config = ScenarioConfig::small(1.0).with_seed(3);
    config.history_slots = 40;
    config.test_slots = 12;
    config.measure_window = (2, 10);
    Scenario::new(s, apps, config)
}

fn real_checkpoint() -> vne_sim::engine::EngineCheckpoint {
    let scenario = tiny_scenario();
    let spec = vne_sim::registry::AlgorithmSpec::from(Algorithm::Fullg);
    let ctx = vne_sim::registry::BuildContext::new(&scenario);
    let mut alg = scenario.registry().build(&spec, &ctx).unwrap().algorithm;
    let mut ckpt = Checkpointer::every(
        4,
        WindowSummary::new(scenario.config.measure_window, scenario.penalty()),
    );
    run_stream_with(
        &mut *alg,
        &scenario.substrate,
        scenario.online_events(),
        &mut ckpt,
        &mut ReembedAll,
    );
    ckpt.into_latest().expect("checkpoint captured")
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vne-persist-it-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{tag}.ckpt"))
}

#[test]
fn checkpoint_file_roundtrips() {
    let checkpoint = real_checkpoint();
    let path = temp_path("roundtrip");
    write_checkpoint_file(&path, &checkpoint).unwrap();
    let loaded = read_checkpoint_file(&path).unwrap();
    assert_eq!(loaded, checkpoint);
    fs::remove_file(&path).ok();
}

#[test]
fn truncated_blob_is_refused_and_previous_file_survives() {
    let checkpoint = real_checkpoint();
    let path = temp_path("truncated");

    // A good checkpoint is in place.
    write_checkpoint_file(&path, &checkpoint).unwrap();
    let good_bytes = fs::read(&path).unwrap();

    // Simulate the crash window the atomic protocol closes: a torn
    // write that only managed a prefix, parked at the staging path.
    let torn = &good_bytes[..good_bytes.len() / 2];
    let staging = path.with_file_name("truncated.ckpt.tmp");
    fs::write(&staging, torn).unwrap();

    // The destination is untouched — the rename never happened.
    assert_eq!(fs::read(&path).unwrap(), good_bytes, "latest file intact");
    let reloaded = read_checkpoint_file(&path).unwrap();
    assert_eq!(reloaded, checkpoint);

    // And if a truncated blob *did* land somewhere, loading it is a
    // clear refusal naming the file, not garbage state.
    let err = read_checkpoint_file(&staging).unwrap_err();
    match &err {
        PersistError::Decode { path: p, .. } => {
            assert!(p.ends_with("truncated.ckpt.tmp"), "error names the file");
        }
        other => panic!("expected Decode refusal, got {other}"),
    }
    let message = err.to_string();
    assert!(
        message.contains("refusing to restore"),
        "clear refusal, got: {message}"
    );

    // A truncated *latest* file (crash with a non-atomic writer) is
    // also refused rather than restored.
    fs::write(&path, torn).unwrap();
    assert!(matches!(
        read_checkpoint_file(&path),
        Err(PersistError::Decode { .. })
    ));

    fs::remove_file(&path).ok();
    fs::remove_file(&staging).ok();
}

#[test]
fn atomic_replace_keeps_old_or_new_never_a_mix() {
    let checkpoint = real_checkpoint();
    let path = temp_path("replace");
    write_checkpoint_file(&path, &checkpoint).unwrap();

    // Replace with a different checkpoint (different slot) and verify
    // the file is exactly the new bytes.
    let mut newer = checkpoint.clone();
    newer.slot += 1;
    write_checkpoint_file(&path, &newer).unwrap();
    let loaded = read_checkpoint_file(&path).unwrap();
    assert_eq!(loaded, newer);
    assert!(
        !path.with_file_name("replace.ckpt.tmp").exists(),
        "no staging residue after a successful write"
    );
    fs::remove_file(&path).ok();
}
