//! Empirical statistics: ECDF, percentiles and bootstrap estimation.
//!
//! The time-aggregation step (§III-A) estimates the α-percentile `P̂_α`
//! of each class's per-slot demand from the request history by
//! bootstrapping \[25\], and checks whether online demand *conforms* to the
//! history (the observed percentile falls inside the 95% bootstrap
//! confidence interval of the estimate).
//!
//! # What the bootstrap reuses, and why it may
//!
//! [`bootstrap_percentile`] sorts the sample once and never sorts a
//! resample. It rests on three facts, each pinned bit for bit against
//! the sort-per-replicate reference in `tests/proptests.rs`:
//!
//! * **A resample is a multiset of ranks.** A percentile reads two order
//!   statistics of the resample; those depend on how often each sample
//!   element was drawn, not on the order of the draws. Counting the
//!   draws per rank of the once-sorted sample and walking the counts to
//!   the `⌊h⌋`-th and `⌈h⌉`-th element yields the two floats the sorted
//!   resample held at those positions. Tied values are interchangeable:
//!   `partial_cmp` ties are bit-equal except `0.0` / `-0.0`, and the
//!   interpolation `lo + (hi − lo)·frac` gives the same bits for either
//!   sign of a zero operand.
//! * **The draws are `gen_range(0..n)`'s.** `UniformIndex` takes the
//!   same two `next_u64` words per index, in the same order, and reduces
//!   the 128-bit value they form modulo `n` in 64-bit arithmetic:
//!   `((hi mod n)·(2⁶⁴ mod n) + lo mod n) mod n`, which cannot overflow
//!   for `n < 2³²`. Each of the three remainders is a multiply-shift
//!   (Lemire–Kaser–Kurz) with a constant computed once per sample, exact
//!   for every 64-bit operand, so no draw executes a division and every
//!   index is the one `gen_range` returns. Longer samples go through
//!   `gen_range` itself.
//! * **One formula.** `Ecdf::percentile` and the bootstrap share
//!   `percentile_position` and apply the same interpolation expression,
//!   so a replicate is the float `Ecdf::new(resample).percentile(alpha)`
//!   would return.
//!
//! [`bootstrap_percentile`] reads whatever generator it is handed and
//! takes exactly `2 · n · replicates` words from it. That count is what
//! lets the bootstrap of [`crate::estimator::ExactEstimator`] run the
//! classes of a plan in parallel: it hands each class a
//! [`crate::rng::SeededRng`] jumped to the word the class's draws start
//! at in the one sequential stream.

use rand::Rng;

/// An empirical cumulative distribution function over a finite sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample (NaNs are rejected).
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains NaN.
    pub fn new(mut sample: Vec<f64>) -> Self {
        assert!(!sample.is_empty(), "ECDF needs a non-empty sample");
        assert!(
            sample.iter().all(|x| !x.is_nan()),
            "ECDF sample contains NaN"
        );
        sample.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Self { sorted: sample }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: the fraction of observations ≤ `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `alpha`-percentile (`alpha ∈ [0, 100]`) with linear
    /// interpolation between order statistics (type-7, the common
    /// default).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 100]`.
    pub fn percentile(&self, alpha: f64) -> f64 {
        assert!((0.0..=100.0).contains(&alpha), "alpha must be in [0, 100]");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let (lo, hi, frac) = percentile_position(alpha, n);
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac
    }

    /// The underlying sorted sample.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }
}

/// Where the type-7 `alpha`-percentile of `n ≥ 2` observations sits:
/// the order statistics `⌊h⌋` and `⌈h⌉` (0-based) and the weight of the
/// upper one.
fn percentile_position(alpha: f64, n: usize) -> (usize, usize, f64) {
    let h = (alpha / 100.0) * (n - 1) as f64;
    let lo = h.floor() as usize;
    (lo, h.ceil() as usize, h - lo as f64)
}

/// `rng.gen_range(0..n)` without a division: the same two `next_u64`
/// words per draw, the same index.
enum UniformIndex {
    /// `n < 2³²`: `wrap` is `2⁶⁴ mod n`, and `m = ⌈2¹²⁸ / n⌉` is the
    /// multiply-shift constant every remainder is taken with.
    Narrow { n: u64, m: u128, wrap: u64 },
    /// Every draw goes through `gen_range`.
    Wide { n: usize },
}

impl UniformIndex {
    fn new(n: usize) -> Self {
        assert!(n > 0, "cannot sample empty range");
        match u32::try_from(n) {
            Ok(narrow) => {
                let n = u64::from(narrow);
                Self::Narrow {
                    n,
                    // `2¹²⁸` itself for `n = 1`, which wraps to 0 and
                    // so yields the remainder 0, as it must.
                    m: (u128::MAX / u128::from(n)).wrapping_add(1),
                    wrap: (u64::MAX % n + 1) % n,
                }
            }
            Err(_) => Self::Wide { n },
        }
    }

    fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match *self {
            Self::Narrow { n, m, wrap } => {
                // `gen_range` draws `(hi << 64 | lo) % n`. All three terms
                // are below 2³², so the product plus `lo mod n` stays below
                // 2⁶⁴.
                let hi = rng.next_u64();
                let lo = rng.next_u64();
                let index = rem(rem(hi, n, m) * wrap + rem(lo, n, m), n, m);
                usize::try_from(index).expect("index < n, and n came from a usize")
            }
            Self::Wide { n } => rng.gen_range(0..n),
        }
    }
}

/// `a mod n` for `n < 2³²` by Lemire, Kaser and Kurz's direct
/// remainder ("Faster remainder by direct computation", 2019): with
/// `m = ⌈2¹²⁸ / n⌉`, the fraction `m·a mod 2¹²⁸` scaled by `n` has the
/// remainder as its integer part, exactly for every 64-bit `a` because
/// 128 ≥ 64 + 32 bits of precision. No division is executed.
fn rem(a: u64, n: u64, m: u128) -> u64 {
    let fraction = m.wrapping_mul(u128::from(a));
    let n = u128::from(n);
    // `⌊fraction · n / 2¹²⁸⌋` in two 64-bit halves; with `n < 2³²`
    // neither partial product overflows.
    let high = (fraction >> 64) * n + (((fraction & u128::from(u64::MAX)) * n) >> 64);
    u64::try_from(high >> 64).expect("the remainder is below n < 2³²")
}

/// Result of a bootstrap percentile estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapEstimate {
    /// The point estimate `P̂_α` (mean of bootstrap replicates).
    pub estimate: f64,
    /// Lower bound of the 95% confidence interval.
    pub ci_low: f64,
    /// Upper bound of the 95% confidence interval.
    pub ci_high: f64,
}

impl BootstrapEstimate {
    /// Whether an observed value falls inside the 95% CI (the paper's
    /// demand-conformance test).
    pub fn contains(&self, observed: f64) -> bool {
        observed >= self.ci_low && observed <= self.ci_high
    }
}

/// Bootstrap estimate of the `alpha`-percentile of `sample` with
/// `replicates` resamples (the paper's Eq. 6 estimator; it uses the
/// well-known percentile bootstrap \[25\]).
///
/// Consumes `2 · n · replicates` words of `rng`, the draws of one
/// `gen_range(0..n)` per resampled element. The sample is sorted once;
/// a replicate counts its draws per rank (see the module docs).
///
/// # Panics
///
/// Panics if the sample is empty or contains NaN, `replicates == 0`, or
/// `alpha` is outside `[0, 100]`.
pub fn bootstrap_percentile<R: Rng + ?Sized>(
    sample: &[f64],
    alpha: f64,
    replicates: usize,
    rng: &mut R,
) -> BootstrapEstimate {
    assert!(!sample.is_empty(), "bootstrap needs a non-empty sample");
    assert!(replicates > 0, "bootstrap needs at least one replicate");
    assert!((0.0..=100.0).contains(&alpha), "alpha must be in [0, 100]");
    assert!(
        sample.iter().all(|x| !x.is_nan()),
        "bootstrap sample contains NaN"
    );
    let n = sample.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| sample[a].partial_cmp(&sample[b]).expect("no NaN"));
    let sorted: Vec<f64> = order.iter().map(|&i| sample[i]).collect();
    let mut rank_of = vec![0usize; n];
    for (rank, &i) in order.iter().enumerate() {
        rank_of[i] = rank;
    }
    drop(order);

    let index = UniformIndex::new(n);
    // `Ecdf::percentile` returns a lone observation as it is.
    let position = (n > 1).then(|| percentile_position(alpha, n));
    let mut counts = vec![0usize; n];
    let mut reps = Vec::with_capacity(replicates);
    for _ in 0..replicates {
        counts.fill(0);
        for _ in 0..n {
            counts[rank_of[index.draw(rng)]] += 1;
        }
        reps.push(if let Some((lo, hi, frac)) = position {
            // Walk the ranks until `lo + 1`, then `hi + 1`, resampled
            // elements are behind: the rank reached holds that order
            // statistic. The counts sum to `n > hi`, so the walk ends.
            let mut rank = 0;
            let mut seen = counts[0];
            while seen <= lo {
                rank += 1;
                seen += counts[rank];
            }
            let at_lo = sorted[rank];
            while seen <= hi {
                rank += 1;
                seen += counts[rank];
            }
            at_lo + (sorted[rank] - at_lo) * frac
        } else {
            sorted[0]
        });
    }
    let estimate = reps.iter().sum::<f64>() / reps.len() as f64;
    let reps_ecdf = Ecdf::new(reps);
    BootstrapEstimate {
        estimate,
        ci_low: reps_ecdf.percentile(2.5),
        ci_high: reps_ecdf.percentile(97.5),
    }
}

/// Mean and 95% Student-t confidence half-width of a small sample
/// (used for the paper's 30-execution error bars).
pub fn mean_and_ci(sample: &[f64]) -> (f64, f64) {
    let n = sample.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = sample.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return (mean, 0.0);
    }
    let var = sample.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
    // Two-sided 97.5% t quantiles for df = 1..=30, then ≈ 1.96.
    const T975: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    let df = n - 1;
    let t = if df <= 30 { T975[df - 1] } else { 1.96 };
    (mean, t * (var / n as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn ecdf_basic_properties() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(2.0), 0.5);
        assert_eq!(e.cdf(10.0), 1.0);
        assert_eq!(e.percentile(0.0), 1.0);
        assert_eq!(e.percentile(100.0), 4.0);
        assert_eq!(e.percentile(50.0), 2.5);
    }

    #[test]
    fn percentile_interpolates() {
        let e = Ecdf::new(vec![0.0, 10.0]);
        assert_eq!(e.percentile(25.0), 2.5);
        assert_eq!(e.percentile(80.0), 8.0);
    }

    #[test]
    fn single_observation_percentile() {
        let e = Ecdf::new(vec![7.0]);
        assert_eq!(e.percentile(80.0), 7.0);
    }

    #[test]
    fn bootstrap_percentile_recovers_known_quantile() {
        // Uniform 0..100 sample: P80 ≈ 80.
        let mut rng = SeededRng::new(5);
        let sample: Vec<f64> = (0..2000).map(|i| (i % 100) as f64).collect();
        let est = bootstrap_percentile(&sample, 80.0, 200, &mut rng);
        assert!(
            (est.estimate - 79.2).abs() < 1.5,
            "estimate {}",
            est.estimate
        );
        assert!(est.ci_low <= est.estimate && est.estimate <= est.ci_high);
        assert!(est.contains(est.estimate));
        assert!(!est.contains(1000.0));
    }

    #[test]
    fn bootstrap_is_deterministic_under_seed() {
        let sample: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let a = bootstrap_percentile(&sample, 80.0, 100, &mut SeededRng::new(1));
        let b = bootstrap_percentile(&sample, 80.0, 100, &mut SeededRng::new(1));
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_index_is_gen_range() {
        use rand::RngCore;
        let mut sizes = vec![1, 2, 3, 1000, 2700, u32::MAX as usize];
        for k in 1..32 {
            let p = 1usize << k;
            sizes.extend([p - 1, p, p + 1]);
        }
        let mut pick = SeededRng::new(0x5eed);
        sizes.extend((0..40).map(|_| pick.gen_range(1..=u32::MAX as usize)));
        for n in sizes {
            let index = UniformIndex::new(n);
            let mut rng = SeededRng::new(n as u64);
            let mut reference = rng.clone();
            for _ in 0..10_000 {
                assert_eq!(index.draw(&mut rng), reference.gen_range(0..n), "n = {n}");
            }
            assert_eq!(rng.next_u64(), reference.next_u64(), "n = {n}");
        }
        // One past the 64-bit reduction's range: `gen_range` itself.
        let n = u32::MAX as usize + 1;
        assert!(matches!(UniformIndex::new(n), UniformIndex::Wide { .. }));
        assert_eq!(
            UniformIndex::new(n).draw(&mut SeededRng::new(3)),
            SeededRng::new(3).gen_range(0..n)
        );
    }

    #[test]
    fn multiply_shift_remainders_are_exact_at_the_extremes() {
        let operands = [0, 1, u64::from(u32::MAX), 1 << 63, u64::MAX - 1, u64::MAX];
        for n in [1, 2, 3, 7, 1 << 31, (1 << 31) + 1, u64::from(u32::MAX)] {
            let UniformIndex::Narrow { m, .. } = UniformIndex::new(n as usize) else {
                unreachable!("n < 2³²")
            };
            for a in operands {
                assert_eq!(rem(a, n, m), a % n, "{a} mod {n}");
            }
        }
    }

    #[test]
    fn mean_and_ci_behaviour() {
        let (m, ci) = mean_and_ci(&[]);
        assert_eq!((m, ci), (0.0, 0.0));
        let (m, ci) = mean_and_ci(&[5.0]);
        assert_eq!((m, ci), (5.0, 0.0));
        let (m, ci) = mean_and_ci(&[4.0, 6.0]);
        assert_eq!(m, 5.0);
        assert!(ci > 0.0);
        // Wider spread ⇒ wider CI.
        let (_, ci2) = mean_and_ci(&[0.0, 10.0]);
        assert!(ci2 > ci);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn ecdf_rejects_empty() {
        Ecdf::new(vec![]);
    }
}
