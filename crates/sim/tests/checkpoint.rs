//! Resume determinism: the headline guarantee of the checkpoint/resume
//! subsystem. A run checkpointed at slot `k` and resumed must produce a
//! [`Summary`] **byte-identical** to the uninterrupted run — for every
//! builtin algorithm, with preemption exercised, under
//! proptest-randomized `k` — plus the snapshot → restore → snapshot
//! round-trip (blob-equality) property for every [`Snapshot`] impl the
//! checkpoint path composes.
//!
//! Also pins that [`Scenario::run_summary`] equals an explicit engine
//! run, and the [`SweepContext`] memo: cached application draws and
//! offline plans must equal fresh derivations exactly.
//!
//! The property blocks read `PROPTEST_CASES` (the scheduled CI property
//! job runs them at 1024 cases; the local default stays small because a
//! single case drives full simulations).

use std::sync::Arc;

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::cost::RejectionPenalty;
use vne_model::request::Slot;
use vne_model::state::{Snapshot, StateError};
use vne_model::substrate::{SubstrateNetwork, Tier};
use vne_sim::engine::{
    restore_engine, run_stream_with, EngineCheckpoint, EngineState, ReembedAll, ReembedKind,
};
use vne_sim::metrics::Summary;
use vne_sim::observe::{Checkpointer, NullObserver, Recorder, StopAfter, Tee, WindowSummary};
use vne_sim::registry::{AlgorithmRegistry, AlgorithmSpec, BuildContext, BuiltAlgorithm};
use vne_sim::runner::{default_apps, run_cells, SweepContext};
use vne_sim::scenario::{Algorithm, ResumeError, Scenario, ScenarioConfig};
use vne_workload::adversary::{AdversaryProfile, ChurnProfile, ChurnSchedule};
use vne_workload::caida::CaidaConfig;

use proptest::prelude::*;

/// `PROPTEST_CASES`-scalable case count with a local default small
/// enough for the full-simulation cases below.
fn cases(default: u32) -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(default);
    ProptestConfig::with_cases(cases)
}

/// The tiny 4-node world of the streaming-parity suite: small enough
/// that the exact baselines (FULLG's ILPs, SLOTOFF's per-slot LPs) stay
/// fast in debug builds, loaded enough that OLIVE preempts at 140%.
fn tiny_scenario(utilization: f64, seed: u64) -> Scenario {
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
    let mut config = ScenarioConfig::small(utilization).with_seed(seed);
    config.history_slots = 60;
    config.test_slots = 25;
    config.measure_window = (2, 22);
    config.aggregation.bootstrap_replicates = 10;
    Scenario::new(s, apps, config)
}

fn assert_bitwise_equal(alg: &str, straight: &Summary, resumed: &Summary) {
    assert_eq!(straight.arrivals, resumed.arrivals, "{alg}: arrivals");
    assert_eq!(straight.rejected, resumed.rejected, "{alg}: rejected");
    assert_eq!(straight.preempted, resumed.preempted, "{alg}: preempted");
    for (name, a, b) in [
        (
            "rejection_rate",
            straight.rejection_rate,
            resumed.rejection_rate,
        ),
        (
            "resource_cost",
            straight.resource_cost,
            resumed.resource_cost,
        ),
        (
            "rejection_cost",
            straight.rejection_cost,
            resumed.rejection_cost,
        ),
        ("total_cost", straight.total_cost, resumed.total_cost),
        (
            "balance_index",
            straight.balance_index,
            resumed.balance_index,
        ),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{alg}: {name}");
    }
    assert_eq!(
        straight.fingerprint(),
        resumed.fingerprint(),
        "{alg}: fingerprint"
    );
}

/// Runs `alg` up to and *including* slot `at` and returns the checkpoint
/// taken there (`None` when `at` lies outside the online phase).
fn fork(
    scenario: &Scenario,
    alg: impl Into<AlgorithmSpec>,
    at: Slot,
) -> Result<Option<EngineCheckpoint>, ResumeError> {
    let run = scenario.drive(alg, None, Some((at + 1, None)), &mut StopAfter::new(at + 1))?;
    Ok(run.checkpoint)
}

/// Finishes `checkpoint` with a freshly built `alg`.
fn resume(
    scenario: &Scenario,
    alg: impl Into<AlgorithmSpec>,
    checkpoint: &EngineCheckpoint,
) -> Result<Summary, ResumeError> {
    Ok(scenario
        .drive(alg, Some(checkpoint), None, &mut NullObserver)?
        .summary)
}

/// The core check: straight-through vs fork-at-`k`-then-resume for one
/// algorithm, including the snapshot → restore → snapshot blob-equality
/// round-trip of every blob the checkpoint carries.
fn check_resume(scenario: &Scenario, alg: Algorithm, at: Slot) {
    let straight = scenario.run_summary(alg).unwrap();
    let checkpoint = &fork(scenario, alg, at).unwrap().expect("a checkpoint");
    assert_eq!(checkpoint.slot, at, "{alg}: checkpoint slot");
    assert_eq!(checkpoint.algorithm, alg.label(), "{alg}: checkpoint name");

    // Round-trip property, algorithm blob: restore into a freshly built
    // instance, snapshot again, blobs must be equal.
    let registry = AlgorithmRegistry::builtins();
    let mut rebuilt = registry
        .build(&alg.into(), &BuildContext::new(scenario))
        .unwrap();
    rebuilt
        .algorithm
        .restore_state(&checkpoint.algorithm_state)
        .unwrap();
    assert_eq!(
        rebuilt.algorithm.snapshot_state().unwrap(),
        checkpoint.algorithm_state,
        "{alg}: algorithm snapshot round-trip"
    );

    // Round-trip property, engine blob.
    let mut engine = EngineState::fresh();
    engine.restore(&checkpoint.engine).unwrap();
    assert_eq!(
        engine.snapshot(),
        checkpoint.engine,
        "{alg}: engine snapshot round-trip"
    );
    assert_eq!(engine.next_slot(), u64::from(at) + 1);

    // Round-trip property, observer blob (a WindowSummary).
    let mut window = WindowSummary::new(scenario.config.measure_window, scenario.penalty());
    window.restore(&checkpoint.observer_state).unwrap();
    assert_eq!(
        window.snapshot(),
        checkpoint.observer_state,
        "{alg}: observer snapshot round-trip"
    );

    // The headline: the resumed run is byte-identical.
    let resumed = resume(scenario, alg, checkpoint).unwrap();
    assert_bitwise_equal(alg.label(), &straight, &resumed);
}

proptest! {
    #![proptest_config(cases(8))]

    /// Checkpoint at a random slot, resume, and require byte-identical
    /// summaries — all four builtin algorithms, preemption included at
    /// the high-load levels.
    #[test]
    fn resumed_runs_are_byte_identical(
        seed in 1u64..1000,
        util_idx in 0usize..5,
        frac in 0.05f64..0.95,
    ) {
        let utilization = [0.6, 0.8, 1.0, 1.2, 1.4][util_idx];
        let scenario = tiny_scenario(utilization, seed);
        let at = ((frac * f64::from(scenario.config.test_slots - 1)) as Slot)
            .min(scenario.config.test_slots - 1);
        for alg in Algorithm::ALL {
            check_resume(&scenario, alg, at);
        }
    }
}

proptest! {
    #![proptest_config(cases(8))]

    /// The checkpoint file format round-trips losslessly for arbitrary
    /// fork points and algorithms.
    #[test]
    fn checkpoint_bytes_roundtrip(
        seed in 1u64..1000,
        alg_idx in 0usize..4,
        at in 0u32..25,
    ) {
        let scenario = tiny_scenario(1.0, seed);
        let alg = Algorithm::ALL[alg_idx];
        let checkpoint = fork(&scenario, alg, at).unwrap().expect("a checkpoint");
        let bytes = checkpoint.to_bytes();
        // One allocation of the encoded length: no tail for holders to keep.
        prop_assert_eq!(bytes.capacity(), bytes.len());
        let parsed = EngineCheckpoint::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&parsed, &checkpoint);
        // Resuming through the parsed copy still works.
        let resumed = resume(&scenario, alg, &parsed).unwrap();
        let straight = scenario.run_summary(alg).unwrap();
        prop_assert_eq!(resumed.fingerprint(), straight.fingerprint());
    }
}

proptest! {
    #![proptest_config(cases(4))]

    /// Resume under churn: the checkpoint slot is forced *inside* an
    /// outage / maintenance / drain window, where the engine's churn
    /// state, the algorithm's effective capacities and any stranded
    /// bookkeeping are all live — and the resumed [`Summary`] (churn
    /// counters included) must stay byte-identical for every builtin
    /// algorithm under both re-embed policies.
    #[test]
    fn churn_window_checkpoints_resume_byte_identically(
        seed in 1u64..500,
        profile_idx in 0usize..3,
        window_idx in 0u32..3,
        offset in 0u32..4,
        evict in any::<bool>(),
    ) {
        let churn = [
            ChurnProfile::LinkOutages { period: 10, len: 4, count: 2 },
            ChurnProfile::NodeMaintenance { period: 10, len: 4 },
            ChurnProfile::CapacityDrain { period: 10, len: 4, factor: 0.3 },
        ][profile_idx];
        let mut scenario = tiny_scenario(1.2, seed);
        scenario.config.churn = Some(churn);
        scenario.config.reembed = if evict {
            ReembedKind::Evict
        } else {
            ReembedKind::Reembed
        };
        // The schedule opens windows [10w, 10w + 4); land inside one.
        let at = window_idx * 10 + offset;
        let schedule = ChurnSchedule::new(churn, &scenario.substrate);
        prop_assert!(schedule.in_window(at), "slot {at} must be inside a churn window");
        for alg in Algorithm::ALL {
            let straight = scenario.run_summary(alg).unwrap();
            let checkpoint = fork(&scenario, alg, at).unwrap().expect("a checkpoint");
            let resumed = resume(&scenario, alg, &checkpoint).unwrap();
            assert_bitwise_equal(alg.label(), &straight, &resumed);
            prop_assert_eq!(straight.churn, resumed.churn, "{} churn counters", alg.label());
        }
    }
}

proptest! {
    #![proptest_config(cases(4))]

    /// Adversarial generators feed the resume path too: every profile's
    /// `skip_to` (or stateless modulation over the base stream's) must
    /// reproduce the exact suffix from an arbitrary fork slot.
    #[test]
    fn adversarial_runs_resume_byte_identically(
        seed in 1u64..500,
        profile_idx in 0usize..5,
        at in 0u32..24,
    ) {
        let mut scenario = tiny_scenario(1.0, seed);
        scenario.config.adversary = Some(AdversaryProfile::ALL[profile_idx]);
        check_resume(&scenario, Algorithm::Quickg, at);
    }
}

/// The off-by-one regression between `on_slot_end` and the stop
/// control: an [`StopAfter`] firing *exactly* on a checkpoint slot must
/// still leave that slot's checkpoint behind (the engine emits the
/// commit hook before honoring the stop), and the checkpoint must be
/// restorable to a byte-identical finish.
#[test]
fn stop_after_on_checkpoint_slot_leaves_restorable_checkpoint() {
    let scenario = tiny_scenario(1.2, 11);
    let registry = AlgorithmRegistry::builtins();
    let mut built = registry
        .build(&Algorithm::Quickg.into(), &BuildContext::new(&scenario))
        .unwrap();
    let mut window = WindowSummary::new(scenario.config.measure_window, scenario.penalty());
    // Budget 10 slots; checkpoint every 10 slots: both fire at slot 9.
    let mut checkpointer = Checkpointer::every(10, &mut window);
    let mut stop = StopAfter::new(10);
    let stats = {
        let mut observer = Tee(&mut checkpointer, &mut stop);
        run_stream_with(
            built.algorithm.as_mut(),
            &scenario.substrate,
            scenario.online_events(),
            &mut observer,
            &mut ReembedAll,
        )
    };
    assert!(stats.stopped_early, "the budget must stop the run");
    assert_eq!(stats.slots_run, 10);
    assert_eq!(
        checkpointer.checkpoints_taken(),
        1,
        "the stop slot's checkpoint must be captured"
    );
    let checkpoint = checkpointer.into_latest().expect("checkpoint at slot 9");
    assert_eq!(checkpoint.slot, 9);

    // And it resumes to the same place an uninterrupted run reaches.
    let resumed = resume(&scenario, Algorithm::Quickg, &checkpoint).unwrap();
    let straight = scenario.run_summary(Algorithm::Quickg).unwrap();
    assert_bitwise_equal("QUICKG", &straight, &resumed);
}

#[test]
fn forks_branch_repeatedly_from_one_checkpoint() {
    // The what-if use case: one frozen prefix, many resumed tails.
    let scenario = tiny_scenario(1.4, 11);
    let checkpoint = fork(&scenario, Algorithm::Olive, 12).unwrap().unwrap();
    let first = resume(&scenario, Algorithm::Olive, &checkpoint).unwrap();
    let second = resume(&scenario, Algorithm::Olive, &checkpoint).unwrap();
    assert_eq!(first.fingerprint(), second.fingerprint());
    let straight = scenario.run_summary(Algorithm::Olive).unwrap();
    assert!(straight.preempted > 0, "seed 11 must exercise preemption");
    assert_bitwise_equal("OLIVE", &straight, &first);
}

#[test]
fn caida_scenario_resumes_byte_identically() {
    // The CAIDA stream's skip_to feeds the resume path too.
    let mut scenario = tiny_scenario(1.0, 15);
    scenario.config.caida = Some(CaidaConfig {
        total_rate: 20.0,
        sources: 50,
        ..CaidaConfig::default()
    });
    check_resume(&scenario, Algorithm::Quickg, 7);
}

#[test]
fn resume_rejects_a_mismatched_algorithm() {
    let scenario = tiny_scenario(1.0, 3);
    let mut checkpoint = fork(&scenario, Algorithm::Quickg, 5).unwrap().unwrap();
    // Another algorithm's checkpoint is refused by name…
    match resume(&scenario, Algorithm::Fullg, &checkpoint) {
        Err(ResumeError::State(StateError::Mismatch { .. })) => {}
        other => panic!("expected a mismatch, got {other:?}"),
    }
    // …and a relabelled one by its state blob: FULLG resolves, but the
    // blob is QUICKG's — the restore must fail loudly, not silently mix
    // states.
    checkpoint.algorithm = "FULLG".to_string();
    match resume(&scenario, Algorithm::Fullg, &checkpoint) {
        Err(ResumeError::State(_)) => {}
        other => panic!("expected a state error, got {other:?}"),
    }
    assert!(matches!(
        resume(&scenario, "NOSUCH", &checkpoint),
        Err(ResumeError::UnknownAlgorithm(_))
    ));
}

#[test]
fn fork_outside_the_online_phase_returns_no_checkpoint() {
    let scenario = tiny_scenario(1.0, 3);
    let at = scenario.config.test_slots;
    assert_eq!(fork(&scenario, Algorithm::Quickg, at).unwrap(), None);
    assert!(fork(&scenario, Algorithm::Quickg, at - 1)
        .unwrap()
        .is_some());
}

#[test]
fn checkpointer_records_error_for_snapshotless_algorithms() {
    // Algorithms that don't opt into snapshots don't kill the run; the
    // checkpointer records the failure instead.
    struct Opaque(vne_model::load::LoadLedger);
    impl vne_olive::algorithm::OnlineAlgorithm for Opaque {
        fn name(&self) -> &str {
            "OPAQUE"
        }
        fn process_slot(
            &mut self,
            _t: Slot,
            _departures: &[vne_model::request::Request],
            arrivals: &[vne_model::request::Request],
        ) -> vne_olive::algorithm::SlotOutcome {
            vne_olive::algorithm::SlotOutcome {
                rejected: arrivals.iter().map(|r| r.id).collect(),
                ..Default::default()
            }
        }
        fn loads(&self) -> &vne_model::load::LoadLedger {
            &self.0
        }
    }
    let mut registry = AlgorithmRegistry::builtins();
    registry.register("opaque", |ctx| {
        BuiltAlgorithm::plain(Opaque(vne_model::load::LoadLedger::new(ctx.substrate())))
    });
    let scenario = tiny_scenario(1.0, 5).with_registry(registry);
    // A checkpointing run — stopped at a fork point or periodic to the
    // end — surfaces the failure instead of returning Ok with zero
    // checkpoints; without checkpoints the algorithm runs fine.
    for stop in [6, scenario.config.test_slots] {
        match scenario.drive("OPAQUE", None, Some((5, None)), &mut StopAfter::new(stop)) {
            Err(ResumeError::State(StateError::Unsupported(what))) => {
                assert!(what.contains("OPAQUE"), "{what}");
            }
            other => panic!("expected unsupported-state error, got {other:?}"),
        }
    }
    assert!(scenario.run_summary("OPAQUE").is_ok());
}

#[test]
fn checkpointing_drive_streams_periodic_checkpoints() {
    use std::sync::Mutex;
    let scenario = tiny_scenario(1.0, 7);
    let seen: Arc<Mutex<Vec<Slot>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_seen = Arc::clone(&seen);
    let run = scenario
        .drive(
            Algorithm::Quickg,
            None,
            Some((
                8,
                Some(Box::new(move |cp: &EngineCheckpoint| {
                    sink_seen.lock().unwrap().push(cp.slot);
                })),
            )),
            &mut NullObserver,
        )
        .unwrap();
    // 25 slots, every 8: checkpoints at slots 7, 15 and 23.
    assert_eq!(*seen.lock().unwrap(), vec![7, 15, 23]);
    let latest = run.checkpoint.expect("at least one checkpoint");
    assert_eq!(latest.slot, 23);
    let resumed = resume(&scenario, Algorithm::Quickg, &latest).unwrap();
    assert_eq!(resumed.fingerprint(), run.summary.fingerprint());
}

#[test]
fn corrupt_checkpoint_bytes_are_rejected() {
    let scenario = tiny_scenario(1.0, 9);
    let checkpoint = fork(&scenario, Algorithm::Quickg, 3).unwrap().unwrap();
    let bytes = checkpoint.to_bytes();
    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        EngineCheckpoint::from_bytes(&bad),
        Err(StateError::Corrupt(_))
    ));
    // Earlier format versions are named, not guessed at.
    for (magic, version) in [
        (EngineCheckpoint::LEGACY_MAGIC_V1, "legacy V1"),
        (EngineCheckpoint::LEGACY_MAGIC_V2, "legacy V2"),
    ] {
        let mut old = bytes.clone();
        old[..8].copy_from_slice(&magic);
        match EngineCheckpoint::from_bytes(&old) {
            Err(StateError::Corrupt(why)) => assert!(why.contains(version), "{why}"),
            other => panic!("{version} checkpoint was not refused: {other:?}"),
        }
    }
    assert_eq!(&bytes[..8], b"VNECKPT3");
    // Truncation.
    assert!(EngineCheckpoint::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    // Trailing garbage.
    let mut long = bytes.clone();
    long.push(0);
    assert!(matches!(
        EngineCheckpoint::from_bytes(&long),
        Err(StateError::TrailingBytes { .. })
    ));
}

#[test]
fn simple_observer_snapshots_roundtrip() {
    // The small observers compose into checkpoints too: NullObserver,
    // StopAfter, Recorder, and Tees of them round-trip blob-equal.
    let mut null = NullObserver;
    let blob = null.snapshot();
    assert!(blob.is_empty());
    null.restore(&blob).unwrap();

    let stop = StopAfter::new(9);
    let stop_blob = stop.snapshot();
    let mut stop2 = StopAfter::new(1);
    stop2.restore(&stop_blob).unwrap();
    assert_eq!(stop2.snapshot(), stop_blob);
    assert_eq!(stop2.slots_seen(), stop.slots_seen());

    // A recorder filled by a real (tiny) run.
    let scenario = tiny_scenario(1.0, 13);
    let registry = AlgorithmRegistry::builtins();
    let mut built = registry
        .build(&Algorithm::Quickg.into(), &BuildContext::new(&scenario))
        .unwrap();
    let mut recorder = Recorder::new();
    let stats = run_stream_with(
        built.algorithm.as_mut(),
        &scenario.substrate,
        scenario.online_events(),
        &mut recorder,
        &mut ReembedAll,
    );
    let rec_blob = recorder.snapshot();
    let mut recorder2 = Recorder::new();
    recorder2.restore(&rec_blob).unwrap();
    assert_eq!(recorder2.snapshot(), rec_blob);
    let a = recorder.finish("QUICKG", &stats);
    let b = recorder2.finish("QUICKG", &stats);
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.slots, b.slots);

    // Tee composition.
    let tee = Tee(NullObserver, StopAfter::new(4));
    let tee_blob = tee.snapshot();
    let mut tee2 = Tee(NullObserver, StopAfter::new(1));
    tee2.restore(&tee_blob).unwrap();
    assert_eq!(tee2.snapshot(), tee_blob);
}

#[test]
fn engine_resume_matches_midstream_state() {
    // Drive the engine manually, checkpoint mid-stream via the observer
    // API, and resume through `restore_engine` + `EngineState::run` —
    // the low-level API without the Scenario conveniences.
    let scenario = tiny_scenario(1.0, 21);
    let registry = AlgorithmRegistry::builtins();
    let mk = || {
        registry
            .build(&Algorithm::Quickg.into(), &BuildContext::new(&scenario))
            .unwrap()
    };

    let mut straight_alg = mk();
    let mut straight_window =
        WindowSummary::new(scenario.config.measure_window, scenario.penalty());
    let straight_stats = run_stream_with(
        straight_alg.algorithm.as_mut(),
        &scenario.substrate,
        scenario.online_events(),
        &mut straight_window,
        &mut ReembedAll,
    );
    let straight = straight_window.finish(&straight_stats);

    let mut prefix_alg = mk();
    let mut window = WindowSummary::new(scenario.config.measure_window, scenario.penalty());
    let mut checkpointer = Checkpointer::every(6, &mut window);
    let mut stop = StopAfter::new(6);
    {
        let mut observer = Tee(&mut checkpointer, &mut stop);
        run_stream_with(
            prefix_alg.algorithm.as_mut(),
            &scenario.substrate,
            scenario.online_events(),
            &mut observer,
            &mut ReembedAll,
        );
    }
    let checkpoint = checkpointer.into_latest().unwrap();

    let mut resume_alg = mk();
    let mut resume_window = WindowSummary::new(scenario.config.measure_window, scenario.penalty());
    let mut state = restore_engine(
        &checkpoint,
        resume_alg.algorithm.as_mut(),
        &scenario.substrate,
        &mut resume_window,
    )
    .unwrap();
    assert_eq!(state.next_slot(), 6);
    let stats = state.run(
        resume_alg.algorithm.as_mut(),
        &scenario.substrate,
        scenario.online_events_from(6),
        &mut resume_window,
        &mut ReembedAll,
    );
    assert_eq!(stats.slots_run, straight_stats.slots_run);
    assert_eq!(stats.arrivals, straight_stats.arrivals);
    assert!(!stats.stopped_early);
    let resumed = resume_window.finish(&stats);
    assert_bitwise_equal("QUICKG", &straight, &resumed);

    // Resuming with the wrong observer window is rejected.
    let mut wrong_window =
        WindowSummary::new((0, 1), RejectionPenalty::uniform(&scenario.apps, 1.0));
    let mut wrong_alg = mk();
    assert!(matches!(
        restore_engine(
            &checkpoint,
            wrong_alg.algorithm.as_mut(),
            &scenario.substrate,
            &mut wrong_window,
        ),
        Err(StateError::Mismatch { .. })
    ));
}

#[test]
fn run_summary_matches_an_explicit_engine_run() {
    // `Scenario::run_summary` is nothing but the engine loop over the
    // scenario's own event stream and a window summary.
    let scenario = tiny_scenario(1.2, 11);
    let summary = scenario.run_summary(Algorithm::Olive).unwrap();
    let registry = AlgorithmRegistry::builtins();
    let mut built = registry
        .build(&Algorithm::Olive.into(), &BuildContext::new(&scenario))
        .unwrap();
    let mut window = WindowSummary::new(scenario.config.measure_window, scenario.penalty());
    let stats = run_stream_with(
        built.algorithm.as_mut(),
        &scenario.substrate,
        scenario.online_events(),
        &mut window,
        &mut ReembedAll,
    );
    assert_bitwise_equal("OLIVE", &window.finish(&stats), &summary);
}

#[test]
fn sweep_context_caches_equal_fresh_derivations() {
    // Cached application draws are the exact draw, cached plans the
    // exact plan — and a context-backed multi-seed run is byte-identical
    // to the context-free path.
    let ctx = Arc::new(SweepContext::new());
    let fresh_apps = default_apps(7);
    let first = ctx.apps(7, default_apps);
    let cached = ctx.apps(7, default_apps);
    assert_eq!(format!("{first:?}"), format!("{fresh_apps:?}"));
    assert_eq!(format!("{cached:?}"), format!("{fresh_apps:?}"));
    assert_eq!(ctx.apps_cached(), 1, "second call must hit the memo");
    // Sharing one context across *different* generators is a contract
    // violation; debug builds trip on the mismatched draw (the check is
    // compiled out in release, where the cache simply serves the memo).
    if cfg!(debug_assertions) {
        let misuse = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.apps(7, |seed| default_apps(seed + 1))
        }));
        assert!(
            misuse.is_err(),
            "mixed-generator sharing must panic in debug builds"
        );
    }

    let scenario = tiny_scenario(1.0, 9);
    let (fresh_plan, _) = scenario.build_plan();
    let key = scenario.plan_cache_key();
    let (first_plan, _) = ctx.plan_for(key, || scenario.build_plan());
    let (cached_plan, _) = ctx.plan_for(key, || panic!("must hit the cache"));
    assert_eq!(first_plan, fresh_plan);
    assert_eq!(cached_plan, fresh_plan);
    assert_eq!(ctx.plans_cached(), 1);

    // Different plan inputs get different keys (no false sharing).
    let mut distorted = tiny_scenario(1.0, 9);
    distorted.config.plan_utilization = Some(0.6);
    assert_ne!(distorted.plan_cache_key(), key);
    let mut other_seed = tiny_scenario(1.0, 10);
    other_seed.config = other_seed.config.with_seed(10);
    assert_ne!(other_seed.plan_cache_key(), key);
    // OLIVE ablation switches do NOT change the plan inputs: variants
    // share one derivation.
    let mut ablated = tiny_scenario(1.0, 9);
    ablated.config.olive.borrowing = false;
    assert_eq!(ablated.plan_cache_key(), key);

    // End to end on the sweep primitive: cells run through
    // `run_cells` — which attaches its own context to every cell —
    // equal context-free scenario runs, and a second pass over the
    // same cells inside that context is served from the memo.
    let substrate = scenario.substrate.clone();
    let configure = |seed: u64| {
        let mut c = ScenarioConfig::small(1.2).with_seed(seed);
        c.history_slots = 60;
        c.test_slots = 25;
        c.measure_window = (2, 22);
        c.aggregation.bootstrap_replicates = 10;
        c
    };
    let seeds = [1u64, 2];
    let plain: Vec<_> = seeds
        .iter()
        .map(|&seed| Scenario::new(substrate.clone(), default_apps(seed), configure(seed)))
        .map(|scenario| scenario.run(Algorithm::Olive))
        .collect();
    let two_passes: Vec<_> = seeds
        .iter()
        .chain(&seeds)
        .map(|&seed| (Algorithm::Olive.into(), configure(seed)))
        .collect();
    let shared = run_cells(
        &AlgorithmRegistry::builtins(),
        &substrate,
        default_apps,
        &two_passes,
        |scenario, spec| (scenario.apps.clone(), scenario.run(spec)),
    );
    let (first_pass, second_pass) = shared.split_at(seeds.len());
    for (i, &seed) in seeds.iter().enumerate() {
        let (apps, with_ctx) = &first_pass[i];
        let (apps_again, again) = &second_pass[i];
        // One application draw per seed, equal to the fresh draw.
        assert_eq!(apps, &default_apps(seed));
        assert_eq!(apps_again, apps);
        // One plan per seed: the second pass gets the identical plan
        // *and* the first derivation's wall-clock — the mark of a memo
        // hit (a re-derivation would report its own).
        assert_eq!(with_ctx.plan, plain[i].plan);
        assert_eq!(again.plan, plain[i].plan);
        assert_eq!(again.plan_secs.to_bits(), with_ctx.plan_secs.to_bits());
        assert_eq!(
            with_ctx.summary.fingerprint(),
            plain[i].summary.fingerprint()
        );
        assert_eq!(again.summary.fingerprint(), plain[i].summary.fingerprint());
    }
}

/// FNV-1a over a byte string: the digest the byte pins compare.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The slots whose checkpoints [`k1_checkpoint_bytes_are_pinned`] pins:
/// the first right after the drain, the second after the early release
/// and the repair.
const PINNED_K1_SLOTS: [Slot; 2] = [16, 23];

/// What the pinned `k = 1` run went through, so the pin is known to
/// cover it.
#[derive(Debug, Default)]
struct K1Coverage {
    stranded: usize,
    reembedded: usize,
    evicted: usize,
    preempted: usize,
}

/// An OLIVE run with preemption on the tiny world at 140 % load (seed
/// 11, whose OLIVE preempts from slot 15 on), stepped slot by slot with
/// [`EngineState::step`] so `online_secs` stays 0 and every byte is
/// reproducible. Slot 16 drains the core node to 30 %, which strands
/// requests; `ReembedAll` re-offers them, and the ones OLIVE takes back
/// are re-inserted under their old ids, after newer ones. Slot 20
/// releases the oldest active request early; slot 22 repairs the node.
/// Returns the checkpoints taken after [`PINNED_K1_SLOTS`].
fn pinned_k1_checkpoints() -> (Vec<EngineCheckpoint>, K1Coverage) {
    use vne_model::churn::ChurnEvent;
    use vne_model::ids::{NodeId, RequestId};
    use vne_model::state::StateBlob;

    let scenario = tiny_scenario(1.4, 11);
    let registry = AlgorithmRegistry::builtins();
    let mut built = registry
        .build(&Algorithm::Olive.into(), &BuildContext::new(&scenario))
        .unwrap();
    let algorithm = built.algorithm.as_mut();
    let core = NodeId(3);
    let mut state = EngineState::fresh();
    let mut coverage = K1Coverage::default();
    let mut accepted: Vec<RequestId> = Vec::new();
    let mut checkpoints = Vec::new();
    for mut event in scenario.online_events() {
        let t = event.slot;
        match t {
            16 => event.churn.push(ChurnEvent::NodeDrain {
                node: core,
                factor: 0.3,
            }),
            20 => {
                let oldest = accepted.iter().copied().find(|&id| state.is_active(id));
                assert!(state.release_early(oldest.expect("an active request")));
            }
            22 => event.churn.push(ChurnEvent::NodeUp(core)),
            _ => {}
        }
        let (step, _) = state.step(
            algorithm,
            &scenario.substrate,
            event,
            &mut NullObserver,
            &mut ReembedAll,
        );
        accepted.extend(
            step.arrivals
                .iter()
                .filter(|o| !o.status.is_denied())
                .map(|o| o.id),
        );
        coverage.stranded += step.churn.stranded;
        coverage.reembedded += step.churn.reembedded;
        coverage.evicted += step.churn.evicted;
        coverage.preempted += step.preemptions.len() - step.churn.evicted;
        if PINNED_K1_SLOTS.contains(&t) {
            let view = state.view(algorithm);
            checkpoints.push(view.checkpoint(StateBlob::default()).unwrap());
        }
    }
    (checkpoints, coverage)
}

/// Every byte of a `k = 1` OLIVE checkpoint — the engine's alive set
/// and calendars, OLIVE's active map and ledgers — pinned at two slots,
/// so a change to how either map is stored cannot move the order its
/// snapshot lists requests in unnoticed. A restore rebuilds the map
/// whatever order the bytes list it in, so no resume battery can see
/// such a change; only the bytes can.
#[test]
fn k1_checkpoint_bytes_are_pinned() {
    let (checkpoints, coverage) = pinned_k1_checkpoints();
    assert!(coverage.preempted > 0, "{coverage:?}");
    assert!(coverage.reembedded > 0, "{coverage:?}");
    assert!(coverage.evicted > 0, "{coverage:?}");
    let pins: Vec<(Slot, usize, u64)> = checkpoints
        .iter()
        .map(|c| {
            let bytes = c.to_bytes();
            (c.slot, bytes.len(), fnv1a(&bytes))
        })
        .collect();
    assert_eq!(
        pins,
        vec![
            (16, 32_314, 0x17ec_5bb3_164d_02f6),
            (23, 30_808, 0x20aa_be3e_bdf2_c3ca),
        ],
        "the k = 1 checkpoint bytes moved"
    );
}
