//! Bit pins of the generator and the multi-class bootstrap.
//!
//! Every plan rests on two streams staying what they are: the words
//! `SeededRng::new(seed)` and `SeededRng::derive(stream)` produce, and
//! the per-class `P̂_α` that `ExactEstimator::finalize` draws from them,
//! class after class in `ClassId` order, with the 95% confidence bounds
//! the conformance check reads. These constants were taken from the
//! sequential single-generator implementation; any rewrite of the
//! generator or of the bootstrap must reproduce them unedited.

use std::collections::BTreeMap;

use rand::{Rng, RngCore};
use vne_model::ids::{AppId, ClassId, NodeId, RequestId};
use vne_model::request::{slot_events, Request, Slot};
use vne_workload::estimator::{AggregationConfig, ExactEstimator};
use vne_workload::rng::SeededRng;
use vne_workload::stats::bootstrap_percentile;

fn fnv1a(bytes: impl IntoIterator<Item = u8>, mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the first `words` of `rng`, little-endian.
fn stream_digest(rng: &mut SeededRng, words: usize) -> u64 {
    (0..words).fold(FNV_OFFSET, |h, _| fnv1a(rng.next_u64().to_le_bytes(), h))
}

#[test]
fn seeded_rng_streams_are_pinned() {
    let mut first = SeededRng::new(0);
    assert_eq!(
        [first.next_u64(), first.next_u64(), first.next_u64()],
        [
            0x5317_5d61_490b_23df,
            0x61da_6f3d_c380_d507,
            0x5c0f_df91_ec9a_7bfc
        ],
        "SeededRng::new(0), first three words"
    );
    let pins: [(u64, u64, u64); 4] = [
        (0, 0x9ac9_8233_a48d_8481, 0x6fdc_de7a_3b04_d9e3),
        (1, 0x9f75_c2bc_0b54_7c66, 0x547e_f792_0753_4555),
        (42, 0x12ca_7130_3adc_de30, 0x1a6e_2450_c1a3_50f8),
        (u64::MAX, 0x61e0_e7be_b766_7f8d, 0x9c49_61a9_d2bd_7f83),
    ];
    for (seed, own, derived) in pins {
        let mut rng = SeededRng::new(seed);
        let mut child = rng.derive(3);
        assert_eq!(stream_digest(&mut rng, 1000), own, "SeededRng::new({seed})");
        assert_eq!(
            stream_digest(&mut child, 1000),
            derived,
            "SeededRng::new({seed}).derive(3)"
        );
    }
    // `next_u32` is the high half of a word.
    let mut a = SeededRng::new(9);
    let mut b = SeededRng::new(9);
    assert_eq!(u64::from(a.next_u32()), b.next_u64() >> 32);
}

/// A seeded history of 80 classes (8 applications × 10 ingresses) over
/// a 500-slot window.
fn seeded_history(seed: u64, slots: Slot) -> Vec<Request> {
    let mut rng = SeededRng::new(seed);
    (0..6000)
        .map(|id| Request {
            id: RequestId(id),
            arrival: rng.gen_range(0..slots),
            duration: rng.gen_range(1..40u32),
            ingress: NodeId(rng.gen_range(0..10u32)),
            app: AppId(rng.gen_range(0..8u32)),
            demand: 0.5 + 5.0 * rng.gen::<f64>(),
        })
        .collect()
}

#[test]
fn multi_class_bootstrap_is_pinned() {
    let slots = 500;
    let mut requests = seeded_history(31, slots);
    requests.sort_by_key(|r| (r.arrival, r.id));
    let mut estimator = ExactEstimator::new(slots, AggregationConfig::default());
    estimator.observe_all(slot_events(&requests, slots));
    assert_eq!(estimator.class_count(), 80);
    assert_eq!(AggregationConfig::default().bootstrap_replicates, 100);

    let mut rng = SeededRng::new(7).derive(3);
    let demands = estimator.finalize(&mut rng);
    let digest = demands.iter().fold(FNV_OFFSET, |h, (class, demand)| {
        let h = fnv1a(class.app.0.to_le_bytes(), h);
        let h = fnv1a(class.ingress.0.to_le_bytes(), h);
        fnv1a(demand.to_bits().to_le_bytes(), h)
    });
    assert_eq!(demands.len(), 80);
    assert_eq!(digest, 0x7fc6_0a28_8f55_1785, "finalized demand digest");
    assert_eq!(
        rng.next_u64(),
        0x3d72_4232_4066_1aa4,
        "the generator's next word afterwards"
    );
}

/// The per-class concurrent demand `d(r̃, t)` of `requests` over a
/// `slots`-slot window, summed in request order: each request adds its
/// demand to every slot it is active in, clipped to the window.
fn class_series(requests: &[Request], slots: Slot) -> BTreeMap<ClassId, Vec<f64>> {
    let mut series: BTreeMap<ClassId, Vec<f64>> = BTreeMap::new();
    for r in requests {
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

/// The whole bootstrap, confidence bounds included, on the history of
/// [`multi_class_bootstrap_is_pinned`]: one [`bootstrap_percentile`] per
/// class in `ClassId` order, all from one generator. The estimator is
/// held to the same draws: `finalize` must return every estimate bit for
/// bit and leave its generator where this loop leaves it.
#[test]
fn multi_class_bootstrap_bounds_are_pinned() {
    let slots = 500;
    let mut requests = seeded_history(31, slots);
    requests.sort_by_key(|r| (r.arrival, r.id));
    let config = AggregationConfig::default();

    let mut rng = SeededRng::new(7).derive(3);
    let estimates: Vec<_> = class_series(&requests, slots)
        .into_iter()
        .map(|(class, s)| {
            let e = bootstrap_percentile(&s, config.alpha, config.bootstrap_replicates, &mut rng);
            (class, e)
        })
        .collect();
    let digest = estimates.iter().fold(FNV_OFFSET, |h, (class, e)| {
        let h = fnv1a(class.app.0.to_le_bytes(), h);
        let h = fnv1a(class.ingress.0.to_le_bytes(), h);
        [e.estimate, e.ci_low, e.ci_high]
            .iter()
            .fold(h, |h, x| fnv1a(x.to_bits().to_le_bytes(), h))
    });
    assert_eq!(estimates.len(), 80);
    assert_eq!(digest, 0xce38_788a_202b_e578, "(estimate, lo, hi) digest");

    let mut estimator = ExactEstimator::new(slots, config);
    estimator.observe_all(slot_events(&requests, slots));
    let mut finalized = SeededRng::new(7).derive(3);
    let demands = estimator.finalize(&mut finalized);
    assert_eq!(demands.len(), estimates.len());
    for ((class, demand), (want_class, e)) in demands.iter().zip(&estimates) {
        assert_eq!(class, want_class);
        assert_eq!(demand.to_bits(), e.estimate.to_bits(), "{class}");
    }
    assert_eq!(finalized, rng, "the generator after the last class");
}
