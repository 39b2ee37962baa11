//! Property-based tests for workload generation and statistics.

use proptest::prelude::*;
use rand::{Rng, RngCore};
use vne_workload::dist::{Exponential, Normal, Poisson, Zipf};
use vne_workload::estimator::{AggregationConfig, ExactEstimator};
use vne_workload::rng::SeededRng;
use vne_workload::stats::{bootstrap_percentile, BootstrapEstimate, Ecdf};

use std::collections::BTreeMap;

use vne_model::ids::{AppId, ClassId, NodeId, RequestId};
use vne_model::request::{slot_events, Request, SlotEvents};
use vne_model::state::Snapshot;

/// The sort-per-replicate bootstrap, kept verbatim as the oracle of
/// `bootstrap_matches_the_sort_per_replicate_reference`: one
/// `gen_range(0..n)` per resampled element, one full sort per replicate.
fn reference_bootstrap<R: Rng + ?Sized>(
    sample: &[f64],
    alpha: f64,
    replicates: usize,
    rng: &mut R,
) -> BootstrapEstimate {
    assert!(!sample.is_empty(), "bootstrap needs a non-empty sample");
    assert!(replicates > 0, "bootstrap needs at least one replicate");
    let n = sample.len();
    let mut reps = Vec::with_capacity(replicates);
    let mut resample = vec![0.0; n];
    for _ in 0..replicates {
        for slot in resample.iter_mut() {
            *slot = sample[rng.gen_range(0..n)];
        }
        reps.push(Ecdf::new(resample.clone()).percentile(alpha));
    }
    let estimate = reps.iter().sum::<f64>() / reps.len() as f64;
    let reps_ecdf = Ecdf::new(reps);
    BootstrapEstimate {
        estimate,
        ci_low: reps_ecdf.percentile(2.5),
        ci_high: reps_ecdf.percentile(97.5),
    }
}

// Default config: `PROPTEST_CASES` scales this block in the nightly job.
proptest! {
    /// `bootstrap_percentile` returns the reference's three floats bit
    /// for bit and leaves the RNG where the reference leaves it, over
    /// the sample shapes a class series takes: distinct values, heavy
    /// ties, all-zero, zero-inflated (with both signs of zero), one
    /// observation.
    #[test]
    fn bootstrap_matches_the_sort_per_replicate_reference(
        raw in proptest::collection::vec(0.0f64..100.0, 1..=300),
        shape in 0u8..6,
        alpha_pick in 0u8..8,
        alpha_inner in 0.0f64..100.0,
        replicates in 1usize..=20,
        seed in any::<u64>(),
    ) {
        let sample: Vec<f64> = match shape {
            0 => raw,
            1 => raw.iter().map(|v| (v / 25.0).floor()).collect(),
            2 => vec![0.0; raw.len()],
            3 => raw.iter().map(|&v| if v < 70.0 { 0.0 } else { v }).collect(),
            4 => raw
                .iter()
                .map(|&v| if v < 40.0 { 0.0 } else if v < 80.0 { -0.0 } else { v - 90.0 })
                .collect(),
            _ => raw[..1].to_vec(),
        };
        let alpha = match alpha_pick {
            0 => 0.0,
            1 => 100.0,
            _ => alpha_inner,
        };
        let mut rng = SeededRng::new(seed);
        let mut reference_rng = rng.clone();
        let got = bootstrap_percentile(&sample, alpha, replicates, &mut rng);
        let want = reference_bootstrap(&sample, alpha, replicates, &mut reference_rng);
        prop_assert_eq!(got.estimate.to_bits(), want.estimate.to_bits());
        prop_assert_eq!(got.ci_low.to_bits(), want.ci_low.to_bits());
        prop_assert_eq!(got.ci_high.to_bits(), want.ci_high.to_bits());
        prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ECDF percentiles are monotone in alpha and bounded by the sample.
    #[test]
    fn percentiles_are_monotone(
        mut sample in proptest::collection::vec(-1e3f64..1e3, 1..200),
        a in 0.0f64..100.0,
        b in 0.0f64..100.0,
    ) {
        let e = Ecdf::new(sample.clone());
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(e.percentile(lo) <= e.percentile(hi) + 1e-12);
        sample.sort_by(|x, y| x.partial_cmp(y).unwrap());
        prop_assert!(e.percentile(0.0) >= sample[0] - 1e-12);
        prop_assert!(e.percentile(100.0) <= sample[sample.len() - 1] + 1e-12);
    }

    /// The ECDF is a valid CDF: nondecreasing, 0 before the min, 1 at
    /// and after the max.
    #[test]
    fn ecdf_is_a_cdf(sample in proptest::collection::vec(-50.0f64..50.0, 1..100)) {
        let e = Ecdf::new(sample.clone());
        let lo = sample.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = sample.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(e.cdf(lo - 1.0), 0.0);
        prop_assert_eq!(e.cdf(hi), 1.0);
        prop_assert!(e.cdf(0.0) <= e.cdf(1.0) + 1e-12);
    }

    /// Bootstrap CIs contain the point estimate and have sane ordering.
    #[test]
    fn bootstrap_ci_ordering(
        sample in proptest::collection::vec(0.0f64..100.0, 2..100),
        alpha in 1.0f64..99.0,
        seed in any::<u64>(),
    ) {
        let mut rng = SeededRng::new(seed);
        let est = bootstrap_percentile(&sample, alpha, 50, &mut rng);
        prop_assert!(est.ci_low <= est.ci_high);
        prop_assert!(est.estimate >= est.ci_low - 1e-9);
        prop_assert!(est.estimate <= est.ci_high + 1e-9);
        // Bounded by the sample range.
        let lo = sample.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = sample.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(est.estimate >= lo - 1e-9 && est.estimate <= hi + 1e-9);
    }

    /// Zipf weights are a probability distribution and rank-decreasing.
    #[test]
    fn zipf_is_normalized_and_decreasing(n in 1usize..50, alpha in 0.0f64..3.0) {
        let z = Zipf::new(n, alpha);
        let total: f64 = (0..n).map(|i| z.weight(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for i in 1..n {
            prop_assert!(z.weight(i) <= z.weight(i - 1) + 1e-12);
        }
    }

    /// Samplers produce values in their support.
    #[test]
    fn sampler_supports(seed in any::<u64>()) {
        let mut rng = SeededRng::new(seed);
        let e = Exponential::new(5.0);
        let p = Poisson::new(4.0);
        let n = Normal::new(0.0, 1.0);
        for _ in 0..100 {
            prop_assert!(e.sample(&mut rng) >= 0.0);
            let _ = p.sample(&mut rng); // u64: non-negative by type
            prop_assert!(n.sample(&mut rng).is_finite());
            prop_assert!(n.sample_truncated(&mut rng, -0.5) >= -0.5);
        }
    }

    /// Class demand series conserve total demand-slots: summing every
    /// class series equals Σ demand·active-slots (clipped to the window).
    #[test]
    fn class_series_conserve_demand(
        raw in proptest::collection::vec(
            (0u8..30, 1u8..10, 0u8..4, 0u8..2, 0.5f64..10.0),
            0..60,
        )
    ) {
        let slots = 40u32;
        let requests: Vec<Request> = raw
            .iter()
            .enumerate()
            .map(|(i, &(t, dur, node, app, demand))| Request {
                id: RequestId(i as u64),
                arrival: u32::from(t),
                duration: u32::from(dur),
                ingress: NodeId(u32::from(node)),
                app: AppId(u32::from(app)),
                demand,
            })
            .collect();
        let mut estimator = ExactEstimator::new(slots, AggregationConfig::default());
        estimator.observe_all(slot_events(&requests, slots));
        let total_series: f64 = (0..2)
            .flat_map(|app| (0..4).map(move |node| ClassId::new(AppId(app), NodeId(node))))
            .filter_map(|c| estimator.series(c))
            .map(|s| s.iter().sum::<f64>())
            .sum();
        let total_expected: f64 = requests
            .iter()
            .map(|r| {
                let end = r.departure().min(slots);
                let start = r.arrival.min(slots);
                f64::from(end.saturating_sub(start)) * r.demand
            })
            .sum();
        prop_assert!((total_series - total_expected).abs() < 1e-6);
    }
}

/// A realistic generated trace (MMPP, Zipf popularity) plus its
/// slot-event bucketing, for the estimator parity properties.
fn generated_events(seed: u64, slots: u32) -> (Vec<Request>, Vec<SlotEvents>) {
    let substrate = vne_topology::zoo::citta_studi().unwrap();
    let mut rng = SeededRng::new(seed);
    let apps =
        vne_workload::appgen::paper_mix(&vne_workload::appgen::AppGenConfig::default(), &mut rng);
    let config = vne_workload::tracegen::TraceConfig {
        slots,
        ..vne_workload::tracegen::TraceConfig::default()
    };
    let events: Vec<SlotEvents> =
        vne_workload::tracegen::stream(&substrate, &apps, &config, rng).collect();
    let trace: Vec<Request> = events.iter().flat_map(|ev| ev.arrivals.clone()).collect();
    (trace, events)
}

/// The per-class concurrent demand of `trace` over a `slots`-slot
/// window, summed in trace order and clipped to the window: the oracle
/// of the estimator's fold.
fn class_series(trace: &[Request], slots: u32) -> BTreeMap<ClassId, Vec<f64>> {
    let mut series: BTreeMap<ClassId, Vec<f64>> = BTreeMap::new();
    for r in trace {
        let (start, end) = (r.arrival.min(slots), r.departure().min(slots));
        if start < end {
            let s = series
                .entry(r.class())
                .or_insert_with(|| vec![0.0; slots as usize]);
            for t in start..end {
                s[t as usize] += r.demand;
            }
        }
    }
    series
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The exact estimator folded slot by slot on a generated trace is
    /// byte-identical to summing the collected trace per class: the same
    /// dense series, and the finalized `P̂_α` bit for bit what one
    /// `bootstrap_percentile` per class in `ClassId` order draws from the
    /// same generator.
    #[test]
    fn exact_estimator_fold_is_byte_identical_to_the_per_class_sum(
        seed in 1u64..500,
        slots in 80u32..220,
    ) {
        let (trace, events) = generated_events(seed, slots);
        let mut estimator = ExactEstimator::new(
            slots,
            AggregationConfig {
                alpha: 80.0,
                bootstrap_replicates: 10,
            },
        );
        estimator.observe_all(events);
        let direct = class_series(&trace, slots);
        prop_assert_eq!(estimator.class_count(), direct.len());
        for (&class, series) in &direct {
            prop_assert_eq!(estimator.series(class), Some(series.as_slice()));
        }
        let folded = estimator.finalize(&mut SeededRng::new(seed ^ 0xF00D));
        let mut rng = SeededRng::new(seed ^ 0xF00D);
        prop_assert_eq!(folded.len(), direct.len());
        for ((class, value), (want_class, series)) in folded.iter().zip(&direct) {
            prop_assert_eq!(class, want_class);
            let want = bootstrap_percentile(series, 80.0, 10, &mut rng).estimate;
            prop_assert_eq!(value.to_bits(), want.to_bits());
        }
    }
}

/// The adversary-suite world: Citta Studi plus the paper application
/// mix (a fixed draw — the properties quantify over stream seeds).
fn adversary_world() -> (
    vne_model::substrate::SubstrateNetwork,
    vne_model::app::AppSet,
) {
    let substrate = vne_topology::zoo::citta_studi().unwrap();
    let mut rng = SeededRng::new(0xA11CE);
    let apps =
        vne_workload::appgen::paper_mix(&vne_workload::appgen::AppGenConfig::default(), &mut rng);
    (substrate, apps)
}

/// A synthetic plan-share summary: a handful of planned classes,
/// everything else implicitly zero.
fn plan_shares(
    substrate: &vne_model::substrate::SubstrateNetwork,
    apps: &vne_model::app::AppSet,
) -> std::collections::BTreeMap<vne_model::ids::ClassId, f64> {
    substrate
        .edge_nodes()
        .into_iter()
        .take(5)
        .enumerate()
        .map(|(i, v)| {
            (
                vne_model::ids::ClassId::new(AppId::from_index(i % apps.len()), v),
                (i + 1) as f64,
            )
        })
        .collect()
}

/// The benign trace the modulating profiles thin: `slots` slots from
/// `from` on.
fn base_stream(
    seed: u64,
    slots: u32,
    from: u32,
    substrate: &vne_model::substrate::SubstrateNetwork,
    apps: &vne_model::app::AppSet,
) -> vne_workload::tracegen::TraceStream<SeededRng> {
    let config = vne_workload::tracegen::TraceConfig {
        slots,
        ..vne_workload::tracegen::TraceConfig::default()
    };
    let rng = SeededRng::new(seed ^ 0xB45E);
    let mut stream = vne_workload::tracegen::stream(substrate, apps, &config, rng);
    stream.skip_to(from);
    stream
}

/// Profile `profile_idx` of [`AdversaryProfile::ALL`] over `slots`,
/// through the one entry point, over [`base_stream`] and
/// [`plan_shares`].
fn profile_stream(
    profile_idx: usize,
    seed: u64,
    slots: std::ops::Range<u32>,
    substrate: &vne_model::substrate::SubstrateNetwork,
    apps: &vne_model::app::AppSet,
) -> Box<dyn Iterator<Item = SlotEvents> + Send> {
    let end = slots.end;
    vne_workload::adversary::stream(
        vne_workload::adversary::AdversaryProfile::ALL[profile_idx],
        substrate,
        apps,
        slots,
        seed,
        |from| base_stream(seed, end, from, substrate, apps),
        || plan_shares(substrate, apps),
    )
}

/// One of the three builtin churn profiles, with window < period.
fn churn_profile(idx: usize) -> vne_workload::adversary::ChurnProfile {
    use vne_workload::adversary::ChurnProfile;
    [
        ChurnProfile::LinkOutages {
            period: 12,
            len: 5,
            count: 3,
        },
        ChurnProfile::NodeMaintenance { period: 9, len: 4 },
        ChurnProfile::CapacityDrain {
            period: 15,
            len: 6,
            factor: 0.25,
        },
    ][idx]
}

proptest! {
    // Default config: `PROPTEST_CASES` scales this block (the nightly
    // CI property job runs it at 1024 cases).

    /// Well-formedness of every profile's stream: exactly `slots`
    /// contiguous slots from 0, arrivals stamped with their slot,
    /// positive demands, durations ≥ 1, edge-node ingresses and
    /// catalogued apps. The replacing profiles number their arrivals
    /// densely from 0; the modulating ones keep an ordered subset of
    /// the base stream's arrivals, untouched. `slots` crosses at least
    /// one period of every profile (50, 40, 40 and 60 slots).
    #[test]
    fn adversary_streams_are_well_formed(
        profile_idx in 0usize..5,
        seed in any::<u64>(),
        slots in 61u32..180,
    ) {
        let (substrate, apps) = adversary_world();
        let edge: std::collections::BTreeSet<NodeId> =
            substrate.edge_nodes().into_iter().collect();
        let events: Vec<SlotEvents> =
            profile_stream(profile_idx, seed, 0..slots, &substrate, &apps).collect();
        let base: Vec<SlotEvents> = base_stream(seed, slots, 0, &substrate, &apps).collect();
        let modulated = profile_idx >= 3;
        prop_assert_eq!(events.len(), slots as usize);
        let mut next_id = 0u64;
        let mut count = 0usize;
        for (i, ev) in events.iter().enumerate() {
            prop_assert_eq!(ev.slot, i as u32, "slots must be contiguous from 0");
            prop_assert!(ev.churn.is_empty(), "bare profiles carry no churn");
            let mut walk = base[i].arrivals.iter();
            for r in &ev.arrivals {
                prop_assert_eq!(r.arrival, ev.slot, "arrival stamped with its slot");
                if modulated {
                    prop_assert!(
                        walk.any(|b| b == r),
                        "modulated arrival {} not an ordered subset of the base stream",
                        r.id.0
                    );
                } else {
                    prop_assert_eq!(r.id.0, next_id, "ids must be dense and ascending");
                    next_id += 1;
                }
                prop_assert!(r.demand > 0.0);
                prop_assert!(r.duration >= 1);
                prop_assert!(edge.contains(&r.ingress), "ingress {:?} not an edge node", r.ingress);
                prop_assert!(r.app.index() < apps.len());
                count += 1;
            }
        }
        prop_assert!(count > 0, "the stream must produce arrivals");
    }

    /// Resume determinism of every profile: its stream started at
    /// `cut` is byte-identical to the suffix of its stream from slot 0.
    #[test]
    fn adversary_skip_to_yields_identical_suffix(
        profile_idx in 0usize..5,
        seed in any::<u64>(),
        slots in 61u32..180,
        frac in 0.0f64..1.0,
    ) {
        let (substrate, apps) = adversary_world();
        let full: Vec<SlotEvents> =
            profile_stream(profile_idx, seed, 0..slots, &substrate, &apps).collect();
        let cut = ((frac * f64::from(slots)) as u32).min(slots);
        let suffix: Vec<SlotEvents> =
            profile_stream(profile_idx, seed, cut..slots, &substrate, &apps).collect();
        prop_assert_eq!(&suffix[..], &full[cut as usize..]);
    }

    /// Churn wrappers are stateless per-slot maps: over every profile's
    /// stream they commute with a resume (wrapping the stream started
    /// at `cut` equals the suffix of wrapping the full stream), and
    /// churn events always reference live substrate elements (folding
    /// them through a pristine [`ChurnState`] never panics).
    #[test]
    fn wrapped_streams_commute_with_skip_to(
        profile_idx in 0usize..5,
        churn_idx in 0usize..3,
        seed in any::<u64>(),
        slots in 61u32..160,
        frac in 0.0f64..1.0,
    ) {
        use vne_workload::adversary::{with_churn, ChurnSchedule};
        let (substrate, apps) = adversary_world();
        let schedule = ChurnSchedule::new(churn_profile(churn_idx), &substrate);
        let wrapped = |from: u32| -> Vec<SlotEvents> {
            with_churn(
                profile_stream(profile_idx, seed, from..slots, &substrate, &apps),
                schedule.clone(),
            )
            .collect()
        };
        let full = wrapped(0);
        let cut = ((frac * f64::from(slots)) as u32).min(slots);
        prop_assert_eq!(&wrapped(cut)[..], &full[cut as usize..]);

        let mut churn_state = vne_model::churn::ChurnState::pristine(&substrate);
        for ev in &full {
            prop_assert_eq!(&ev.churn, &schedule.events_at(ev.slot));
            for churn in &ev.churn {
                churn_state.apply(churn); // panics on out-of-range elements
            }
        }
    }

    /// Churn schedules are arithmetic in the slot number: events fire
    /// exactly on window boundaries, reference in-range elements, and
    /// `in_window` matches the boundary arithmetic.
    #[test]
    fn churn_schedules_are_well_formed(
        churn_idx in 0usize..3,
        slots in 40u32..200,
    ) {
        use vne_model::churn::ChurnEvent;
        use vne_workload::adversary::{ChurnProfile, ChurnSchedule};
        let (substrate, _) = adversary_world();
        let profile = churn_profile(churn_idx);
        let (period, len) = match profile {
            ChurnProfile::LinkOutages { period, len, .. } => (period, len),
            ChurnProfile::NodeMaintenance { period, len } => (period, len),
            ChurnProfile::CapacityDrain { period, len, .. } => (period, len),
        };
        let schedule = ChurnSchedule::new(profile, &substrate);
        for t in 0..slots {
            let events = schedule.events_at(t);
            let boundary = t % period == 0 || t % period == len;
            prop_assert_eq!(!events.is_empty(), boundary, "events only on boundaries (t={})", t);
            prop_assert_eq!(schedule.in_window(t), t % period < len);
            for ev in &events {
                match *ev {
                    ChurnEvent::NodeDown(n) | ChurnEvent::NodeUp(n) => {
                        prop_assert!(n.index() < substrate.node_count());
                    }
                    ChurnEvent::LinkDown(l) | ChurnEvent::LinkUp(l) => {
                        prop_assert!(l.index() < substrate.link_count());
                    }
                    ChurnEvent::NodeDrain { node, factor } => {
                        prop_assert!(node.index() < substrate.node_count());
                        prop_assert!((0.0..=1.0).contains(&factor));
                    }
                    ChurnEvent::LinkDrain { link, factor } => {
                        prop_assert!(link.index() < substrate.link_count());
                        prop_assert!((0.0..=1.0).contains(&factor));
                    }
                }
            }
        }
    }

    /// Resume determinism for the estimator fold: checkpoint the exact
    /// estimator at a random slot mid-history, restore into a fresh
    /// instance, finish both — the finalized per-class demands are
    /// byte-identical, and snapshot → restore → snapshot is blob-equal.
    #[test]
    fn estimator_resume_is_byte_identical(
        seed in 1u64..500,
        slots in 80u32..160,
        frac in 0.1f64..0.9,
    ) {
        let (_, events) = generated_events(seed, slots);
        let cut = ((frac * f64::from(slots)) as usize).clamp(1, slots as usize - 1);
        let config = AggregationConfig {
            alpha: 80.0,
            bootstrap_replicates: 10,
        };
        let mut original = ExactEstimator::new(slots, config);
        for ev in &events[..cut] {
            original.observe_slot(ev);
        }
        let blob = original.snapshot();
        let mut resumed = ExactEstimator::new(slots, config);
        resumed.restore(&blob).unwrap();
        prop_assert_eq!(resumed.snapshot(), blob);
        for ev in &events[cut..] {
            original.observe_slot(ev);
            resumed.observe_slot(ev);
        }
        let a = original.finalize(&mut SeededRng::new(seed ^ 0xBEEF));
        let b = resumed.finalize(&mut SeededRng::new(seed ^ 0xBEEF));
        prop_assert_eq!(a.len(), b.len());
        for (class, value) in &a {
            prop_assert_eq!(value.to_bits(), b[class].to_bits());
        }
    }
}
