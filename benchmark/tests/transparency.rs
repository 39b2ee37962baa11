//! The decorators must not change what they measure: on the smoke size
//! of every workload, a traced replay (decorated algorithm and
//! observer, stepped slot by slot) has the same fingerprint, stream
//! counters, program-side counters and checkpoint bytes as the plain
//! replay through the public entry point.

use vne_benchmark::adapter::{prepare, WORKLOADS};
use vne_benchmark::trace::{layer_times, Tracer};

#[test]
fn traced_replay_equals_plain_replay_on_every_workload() {
    for workload in WORKLOADS {
        let prepared = prepare(workload.name, 3, true).expect("smoke world builds");
        let plain = prepared.replay(None);
        let tracer = Tracer::new();
        let traced = prepared.replay(Some(&tracer));

        assert_eq!(plain.failed, 0, "{}: {:?}", workload.name, plain.problems);
        assert_eq!(traced.failed, 0, "{}: {:?}", workload.name, traced.problems);
        assert!(plain.ops > 0, "{} offers no operations", workload.name);
        assert_eq!(plain.ops, traced.ops, "{}", workload.name);
        assert_eq!(plain.quality, traced.quality, "{}", workload.name);
        assert_eq!(plain.counts, traced.counts, "{}", workload.name);
        assert_eq!(plain.checkpoint, traced.checkpoint, "{}", workload.name);
        // Timings aside, the program-side counters agree too.
        let counters = |layers: &[(&'static str, f64)]| -> Vec<(&'static str, f64)> {
            layers
                .iter()
                .copied()
                .filter(|(name, _)| !name.ends_with("_s"))
                .collect()
        };
        assert_eq!(
            counters(&plain.layers),
            counters(&traced.layers),
            "{}",
            workload.name
        );
        assert!(
            !tracer.spans().is_empty(),
            "{} recorded no span",
            workload.name
        );
    }
}

#[test]
fn the_hostile_workload_checkpoints_and_churns() {
    let prepared = prepare("online_hostile", 3, true).unwrap();
    let tracer = Tracer::new();
    let traced = prepared.replay(Some(&tracer));
    assert!(traced.checkpoint.is_some(), "no checkpoint was taken");
    let value = |name: &str| traced.layers.iter().find(|(n, _)| *n == name).unwrap().1;
    assert!(value("sim.churn.events") > 0.0);
    assert!(value("sim.observe.checkpoints") > 0.0);
    let times = layer_times(&tracer.spans());
    for span in [
        "sim.engine.step",
        "core.decide",
        "core.apply_churn",
        "sim.observe.checkpoint",
    ] {
        assert!(times.contains_key(span), "no {span} span");
    }
    // One decide and one commit hook per stepped slot.
    assert_eq!(times["core.decide"].count, times["sim.engine.step"].count);
    assert_eq!(
        times["sim.observe.checkpoint"].count,
        times["sim.engine.step"].count
    );
}

#[test]
fn the_sharded_workload_times_trials_apart_from_commits() {
    let prepared = prepare("shard_k4", 3, true).unwrap();
    let tracer = Tracer::new();
    let traced = prepared.replay(Some(&tracer));
    assert_eq!(traced.failed, 0, "{:?}", traced.problems);
    let spans = tracer.spans();
    let times = layer_times(&spans);
    let steps = times["shard.coordinator.step"].count;
    // Every shard commits exactly once per slot, on its own lane.
    assert_eq!(times["shard.decide.commit"].count, 4 * steps);
    let lanes: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == "shard.decide.commit")
        .map(|s| s.lane)
        .collect();
    assert_eq!(lanes.len(), 4);
    assert!(
        spans.iter().all(|s| s.name != "core.decide"),
        "shard decide calls are named by role"
    );
}

#[test]
fn verification_replay_passes_on_every_workload_and_seeds_differ() {
    for workload in WORKLOADS {
        let a = prepare(workload.name, 3, true).unwrap().verify();
        assert_eq!(a.failed, 0, "{}: {:?}", workload.name, a.problems);
        let b = prepare(workload.name, 4, true).unwrap().verify();
        assert_ne!(
            a.quality.fingerprint, b.quality.fingerprint,
            "{} ignores its seed",
            workload.name
        );
        let again = prepare(workload.name, 3, true).unwrap().verify();
        assert_eq!(
            a.quality, again.quality,
            "{} is not a function of its seed",
            workload.name
        );
    }
}

#[test]
fn unknown_workloads_are_refused() {
    let error = prepare("online_mars", 1, true).err().expect("refused");
    assert!(error.contains("online_mars") && error.contains("shard_k4"));
}
