//! Multi-seed experiment runner with parallel execution and shared
//! per-sweep artifacts.
//!
//! The paper executes every experiment 30 times and reports means with
//! confidence intervals. [`run_seeds`] replays a scenario across seeds on
//! worker threads (std scoped threads) and aggregates the summaries.
//! Each per-seed run streams the online phase through the engine's
//! incremental window-summary observer, so a whole sweep never
//! materializes a trace or an outcome log. [`run_seeds_with`] is the
//! same loop with an explicit [`AlgorithmRegistry`] and [`SweepContext`],
//! which is how custom (non-builtin) algorithms join multi-seed sweeps.
//!
//! Two pieces make whole *sweeps* (many cells of algorithm ×
//! utilization × seed) cheap:
//!
//! * [`SweepContext`] — a shared memo of per-seed application draws and
//!   offline [`vne_olive::plan::Plan`]s, keyed by the scenario's
//!   plan-input fingerprint. Cells with identical plan inputs (ablation
//!   variants, repeated plan-based algorithms) derive the plan once;
//!   the cached value is the identical `Plan`, so summaries stay
//!   byte-identical to fresh derivations.
//! * [`cell_map`] — the one worker pool: *all* cells of a sweep feed
//!   it (instead of a fresh pool per cell group), so workers stay busy
//!   across cell boundaries and plans materialize in the shared context
//!   as the first cell needing them runs.
//!
//! Workers collect into per-worker buffers (no shared result mutex); a
//! panicking cell propagates its original panic payload after the
//! surviving workers finish.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use vne_model::app::AppSet;
use vne_model::substrate::SubstrateNetwork;
use vne_olive::plan::Plan;
use vne_workload::appgen::{paper_mix, AppGenConfig};
use vne_workload::rng::SeededRng;

use crate::metrics::{aggregate, AggregatedSummary, Summary};
use crate::registry::{AlgorithmRegistry, AlgorithmSpec};
use crate::scenario::{Scenario, ScenarioConfig};

/// An edge-utilization level (the x-axis of Figs. 6/7/15/16).
///
/// Total-ordered and hashable (`Ord` via IEEE `total_cmp`, `Hash` over
/// the bit pattern) so sweeps can key result maps by utilization.
/// Constructors reject non-finite values and normalize `-0.0` to `0.0`,
/// which keeps `Eq`/`Ord`/`Hash` mutually consistent.
#[derive(Debug, Clone, Copy)]
pub struct Utilization(f64);

impl Utilization {
    /// From a percentage (e.g. `Utilization::percent(140)`).
    pub fn percent(p: u32) -> Self {
        Self(f64::from(p) / 100.0)
    }

    /// From a fraction (e.g. `Utilization::fraction_of(1.4)` = 140%).
    ///
    /// # Panics
    ///
    /// Panics if `f` is NaN, infinite, or negative.
    pub fn fraction_of(f: f64) -> Self {
        assert!(
            f.is_finite() && f >= 0.0,
            "utilization must be finite and ≥ 0, got {f}"
        );
        // `-0.0 + 0.0 == +0.0`: one canonical zero for Eq/Ord/Hash.
        Self(f + 0.0)
    }

    /// As a fraction (1.0 = 100%).
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// The paper's sweep: 60% to 140% in 20-point steps.
    pub fn paper_sweep() -> Vec<Utilization> {
        [60, 80, 100, 120, 140]
            .into_iter()
            .map(Utilization::percent)
            .collect()
    }
}

impl PartialEq for Utilization {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Utilization {}

impl PartialOrd for Utilization {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Utilization {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl std::hash::Hash for Utilization {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.to_bits());
    }
}

impl std::fmt::Display for Utilization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.0}%", self.0 * 100.0)
    }
}

/// Generates the per-seed application set the way the paper does: a
/// fresh draw of the standard mix per execution.
pub fn default_apps(seed: u64) -> AppSet {
    let mut rng = SeededRng::new(seed).derive(0xA995);
    paper_mix(&AppGenConfig::default(), &mut rng)
}

/// Runs `algorithm` across `seeds` in parallel and returns the per-seed
/// summaries (in seed order) plus their aggregate.
///
/// The algorithm is resolved by name in [`AlgorithmRegistry::builtins`]
/// and the call gets a fresh [`SweepContext`]; use [`run_seeds_with`] to
/// sweep custom algorithms or to share a context across calls.
/// `make_apps` draws the application set for a seed (usually
/// [`default_apps`]); `configure` builds the scenario config for a seed.
pub fn run_seeds<FA, FC>(
    substrate: &SubstrateNetwork,
    algorithm: impl Into<AlgorithmSpec>,
    seeds: &[u64],
    make_apps: FA,
    configure: FC,
) -> (Vec<Summary>, AggregatedSummary)
where
    FA: Fn(u64) -> AppSet + Sync,
    FC: Fn(u64) -> ScenarioConfig + Sync,
{
    run_seeds_with(
        &Arc::new(SweepContext::new()),
        &AlgorithmRegistry::builtins(),
        substrate,
        &algorithm.into(),
        seeds,
        make_apps,
        configure,
    )
}

/// [`run_seeds`] with an explicit algorithm registry (the entry point
/// for sweeping algorithms registered outside `vne-sim`) and an explicit
/// [`SweepContext`]: per-seed application draws and offline plans
/// memoized in `ctx` are reused instead of re-derived — across the seeds
/// of this call *and* across any other call sharing the same context
/// (the vne-bench sweep drivers share one per sweep: ablation variants,
/// multi-figure sweeps). Byte-identical to a call with a fresh context.
///
/// # Panics
///
/// Panics when `spec` does not resolve in `registry`.
pub fn run_seeds_with<FA, FC>(
    ctx: &Arc<SweepContext>,
    registry: &AlgorithmRegistry,
    substrate: &SubstrateNetwork,
    spec: &AlgorithmSpec,
    seeds: &[u64],
    make_apps: FA,
    configure: FC,
) -> (Vec<Summary>, AggregatedSummary)
where
    FA: Fn(u64) -> AppSet + Sync,
    FC: Fn(u64) -> ScenarioConfig + Sync,
{
    let summaries = cell_map(seeds, |&seed| {
        let apps = ctx.apps(seed, &make_apps);
        let config = configure(seed);
        let scenario = Scenario::new(substrate.clone(), apps, config)
            .with_registry(registry.clone())
            .with_sweep_context(Arc::clone(ctx));
        scenario.run_summary(spec).unwrap_or_else(|e| panic!("{e}"))
    });
    let agg = aggregate(&summaries);
    (summaries, agg)
}

/// Shared artifacts of one sweep: per-seed application draws and
/// memoized offline plans.
///
/// The plan memo is keyed by
/// [`crate::scenario::Scenario::plan_cache_key`] — a fingerprint of
/// every plan input — so only cells that would derive bit-identical
/// plans share an entry. Each entry is built exactly once (a per-key
/// `OnceLock`; concurrent workers needing the same plan block on the
/// first builder instead of duplicating the work). Application draws
/// are keyed by seed and assume one app generator per context — which
/// holds by construction, since a context lives inside a single sweep
/// call with a fixed `make_apps`.
pub struct SweepContext {
    apps: Mutex<HashMap<u64, AppSet>>,
    plans: Mutex<HashMap<u64, PlanSlot>>,
}

/// One memoized plan entry: `(plan, original build seconds)`, derived
/// exactly once through the per-key `OnceLock`.
type PlanSlot = Arc<OnceLock<(Plan, f64)>>;

impl SweepContext {
    /// An empty context.
    pub fn new() -> Self {
        Self {
            apps: Mutex::new(HashMap::new()),
            plans: Mutex::new(HashMap::new()),
        }
    }

    /// The application set for `seed`: drawn through `make` on first
    /// use, cloned from the memo afterwards.
    ///
    /// **Contract:** every call on one context must pass the *same*
    /// deterministic generator — the memo is keyed by seed alone (a
    /// closure cannot be fingerprinted), so a second generator would
    /// silently receive the first one's draws. Debug builds verify the
    /// hit against a fresh draw and panic on mismatch; use one
    /// `SweepContext` per app generator.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when a cache hit does not match what
    /// `make` draws — i.e. the context is being shared across
    /// different app generators.
    pub fn apps(&self, seed: u64, make: impl FnOnce(u64) -> AppSet) -> AppSet {
        let apps = self.apps.lock().expect("sweep context apps mutex");
        if let Some(cached) = apps.get(&seed) {
            let cached = cached.clone();
            drop(apps);
            #[cfg(debug_assertions)]
            assert_eq!(
                format!("{cached:?}"),
                format!("{:?}", make(seed)),
                "SweepContext::apps hit a draw from a different app generator; \
                 use one SweepContext per generator"
            );
            return cached;
        }
        drop(apps); // draw outside the lock; drawing can be slow
        let drawn = make(seed);
        self.apps
            .lock()
            .expect("sweep context apps mutex")
            .entry(seed)
            .or_insert(drawn)
            .clone()
    }

    /// The plan for cache key `key`: derived through `build` exactly
    /// once, cloned from the memo afterwards. Returns `(plan,
    /// build_secs)` where `build_secs` is the original derivation's
    /// wall-clock (cache hits report the amortized cost, not zero).
    pub fn plan_for(&self, key: u64, build: impl FnOnce() -> (Plan, f64)) -> (Plan, f64) {
        let slot = {
            let mut plans = self.plans.lock().expect("sweep context plan mutex");
            Arc::clone(plans.entry(key).or_default())
        };
        slot.get_or_init(build).clone()
    }

    /// Number of memoized plans (diagnostics).
    pub fn plans_cached(&self) -> usize {
        self.plans.lock().expect("sweep context plan mutex").len()
    }

    /// Number of memoized application draws (diagnostics).
    pub fn apps_cached(&self) -> usize {
        self.apps.lock().expect("sweep context apps mutex").len()
    }
}

impl Default for SweepContext {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SweepContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepContext")
            .field("apps_cached", &self.apps_cached())
            .field("plans_cached", &self.plans_cached())
            .finish()
    }
}

/// Maps `f` over arbitrary sweep cells on a worker pool (one task per
/// cell, up to `available_parallelism` threads) and returns the results
/// **in cell order**. This is the shared sweep pool: *all* cells of a
/// sweep feed one pool, so workers pull the next cell the moment they
/// finish one — no idle tail between cell groups — and shared artifacts
/// ([`SweepContext`] plans) become available to later cells as earlier
/// ones derive them.
///
/// Each worker collects into its own buffer; there is no shared result
/// mutex to poison. If a cell panics, the surviving workers finish
/// their cells, and the map then re-raises the **original** panic
/// payload (not a poisoned-mutex secondary panic).
pub fn cell_map<T, R, F>(cells: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cells.len().max(1));
    let next: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    let worker_results: Vec<std::thread::Result<Vec<(usize, R)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if idx >= cells.len() {
                            break;
                        }
                        local.push((idx, f(&cells[idx])));
                    }
                    local
                })
            })
            .collect();
        // Join every worker before leaving the scope: a second panic
        // must not surface while the first is already unwinding (that
        // would abort), and survivors get to finish their cells.
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut collected = Vec::with_capacity(cells.len());
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    for result in worker_results {
        match result {
            Ok(local) => collected.extend(local),
            Err(payload) => panic = panic.or(Some(payload)),
        }
    }
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    collected.sort_by_key(|(idx, _)| *idx);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Algorithm;
    use std::collections::{BTreeMap, HashMap};
    use vne_topology::zoo::citta_studi;

    #[test]
    fn utilization_helpers() {
        let u = Utilization::percent(140);
        assert!((u.fraction() - 1.4).abs() < 1e-12);
        assert_eq!(u.to_string(), "140%");
        assert_eq!(Utilization::paper_sweep().len(), 5);
    }

    #[test]
    fn utilization_is_totally_ordered() {
        let mut sweep = Utilization::paper_sweep();
        sweep.reverse();
        sweep.sort();
        let fractions: Vec<f64> = sweep.iter().map(|u| u.fraction()).collect();
        assert_eq!(fractions, vec![0.6, 0.8, 1.0, 1.2, 1.4]);
        assert!(Utilization::percent(60) < Utilization::percent(140));
        assert_eq!(Utilization::percent(100), Utilization::fraction_of(1.0));
    }

    #[test]
    fn utilization_works_as_map_key() {
        // The satellite motivation: keying a sweep's results per level.
        let mut btree: BTreeMap<Utilization, usize> = BTreeMap::new();
        let mut hash: HashMap<Utilization, usize> = HashMap::new();
        for (i, u) in Utilization::paper_sweep().into_iter().enumerate() {
            btree.insert(u, i);
            hash.insert(u, i);
        }
        assert_eq!(btree.len(), 5);
        assert_eq!(hash.len(), 5);
        // Lookup through an independently-constructed key.
        assert_eq!(btree[&Utilization::fraction_of(1.2)], 3);
        assert_eq!(hash[&Utilization::percent(120)], 3);
        // BTreeMap iterates in utilization order.
        let keys: Vec<f64> = btree.keys().map(|u| u.fraction()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn utilization_zero_is_canonical() {
        assert_eq!(Utilization::fraction_of(0.0), Utilization::percent(0));
        let neg_zero = Utilization::fraction_of(-0.0);
        assert_eq!(neg_zero, Utilization::percent(0));
        assert_eq!(neg_zero.fraction().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn utilization_rejects_nan() {
        let _ = Utilization::fraction_of(f64::NAN);
    }

    #[test]
    fn cell_map_propagates_the_real_panic_message() {
        // The regression: a panicking worker used to poison the shared
        // results mutex, so the surviving workers died on a secondary
        // "runner mutex poisoned" panic that masked the original one.
        // With per-worker buffers the original payload must surface.
        let result = std::panic::catch_unwind(|| {
            cell_map(&[1u64, 2, 3, 4, 5], |&seed| {
                if seed == 3 {
                    panic!("seed 3 exploded with code 42");
                }
                seed * 2
            })
        });
        let payload = result.expect_err("the panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string payload>");
        assert!(
            message.contains("seed 3 exploded with code 42"),
            "the original panic was masked: {message:?}"
        );
    }

    #[test]
    fn cell_map_returns_results_in_cell_order() {
        let cells: Vec<u32> = (0..37).collect();
        let doubled = cell_map(&cells, |&c| c * 2);
        assert_eq!(doubled, cells.iter().map(|c| c * 2).collect::<Vec<_>>());
        let empty: Vec<u32> = cell_map(&[] as &[u32], |&c| c);
        assert!(empty.is_empty());
    }

    #[test]
    fn parallel_seeds_are_deterministic_and_ordered() {
        let substrate = citta_studi().unwrap();
        let seeds = [1u64, 2, 3];
        let run = || {
            run_seeds(
                &substrate,
                Algorithm::Quickg,
                &seeds,
                default_apps,
                |seed| ScenarioConfig::small(1.2).with_seed(seed),
            )
        };
        let (a, agg_a) = run();
        let (b, _) = run();
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rejection_rate, y.rejection_rate);
        }
        assert_eq!(agg_a.seeds, 3);
        assert!(agg_a.rejection_rate.0 >= 0.0);
    }

    #[test]
    fn run_seeds_matches_scenario_runs() {
        let substrate = citta_studi().unwrap();
        let seeds = [4u64, 5];
        let (summaries, _) = run_seeds(
            &substrate,
            Algorithm::Quickg,
            &seeds,
            default_apps,
            |seed| ScenarioConfig::small(1.0).with_seed(seed),
        );
        for (i, &seed) in seeds.iter().enumerate() {
            let scenario = Scenario::new(
                substrate.clone(),
                default_apps(seed),
                ScenarioConfig::small(1.0).with_seed(seed),
            );
            let direct = scenario.run(Algorithm::Quickg).summary;
            assert_eq!(summaries[i].arrivals, direct.arrivals);
            assert_eq!(summaries[i].rejection_rate, direct.rejection_rate);
            assert_eq!(summaries[i].resource_cost, direct.resource_cost);
        }
    }
}
