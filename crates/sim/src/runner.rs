//! Sweep runner: the one parallel driver for multi-cell experiments and
//! its shared per-sweep artifacts.
//!
//! The paper executes every experiment 30 times and reports means with
//! confidence intervals, and every figure is a sweep — utilization ×
//! algorithm × topology × seed. [`run_cells`] is the one primitive that
//! runs such a sweep: it builds the [`Scenario`] of every
//! `(algorithm, config)` cell (with the caller's [`AlgorithmRegistry`],
//! which is how custom algorithms join sweeps) and maps the caller's
//! `run` over all of them on one worker pool. Each cell streams the
//! online phase through the engine's incremental window-summary
//! observer, so a whole sweep never materializes a trace or an outcome
//! log.
//!
//! Two pieces make whole sweeps cheap:
//!
//! * [`SweepContext`] — a shared memo of per-seed application draws and
//!   offline [`vne_olive::plan::Plan`]s, keyed by the scenario's
//!   plan-input fingerprint. Cells with identical plan inputs (ablation
//!   variants, repeated plan-based algorithms) derive the plan once;
//!   the cached value is the identical `Plan`, so summaries stay
//!   byte-identical to fresh derivations. [`run_cells`] owns one per
//!   call.
//! * [`cell_map`] — the one worker pool: *all* cells of a sweep feed
//!   it (instead of a fresh pool per cell group), so workers stay busy
//!   across cell boundaries and plans materialize in the shared context
//!   as the first cell needing them runs.
//!
//! Workers collect into per-worker buffers (no shared result mutex); a
//! panicking cell propagates its original panic payload after the
//! surviving workers finish. A cell's own parallel loops (a plan
//! build's bootstrap) run on its worker's thread.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use vne_model::app::AppSet;
use vne_model::pool::cell_map;
use vne_model::substrate::SubstrateNetwork;
use vne_olive::plan::Plan;
use vne_workload::appgen::{paper_mix, AppGenConfig};
use vne_workload::rng::SeededRng;

use crate::registry::{AlgorithmRegistry, AlgorithmSpec};
use crate::scenario::{Scenario, ScenarioConfig};

/// Generates the per-seed application set the way the paper does: a
/// fresh draw of the standard mix per execution.
pub fn default_apps(seed: u64) -> AppSet {
    let mut rng = SeededRng::new(seed).derive(0xA995);
    paper_mix(&AppGenConfig::default(), &mut rng)
}

/// Runs every `(algorithm, config)` cell of a sweep on one worker pool
/// and returns `run`'s results **in cell order**.
///
/// This is the one place a sweep cell's [`Scenario`] is built: on
/// `substrate`, with the application set `make_apps` draws for the
/// cell's seed (usually [`default_apps`]), resolving algorithms in
/// `registry`, and attached to a [`SweepContext`] that lives for this
/// call — so all cells share application draws and offline plans
/// wherever their plan inputs coincide, byte-identically to building
/// each scenario alone. `run` decides what a cell does with its
/// scenario ([`Scenario::run_summary`], a checkpointed run, a resume).
pub fn run_cells<FA, FR, R>(
    registry: &AlgorithmRegistry,
    substrate: &SubstrateNetwork,
    make_apps: FA,
    cells: &[(AlgorithmSpec, ScenarioConfig)],
    run: FR,
) -> Vec<R>
where
    FA: Fn(u64) -> AppSet + Sync,
    FR: Fn(&Scenario, &AlgorithmSpec) -> R + Sync,
    R: Send,
{
    let ctx = Arc::new(SweepContext::new());
    cell_map(cells, |(spec, config)| {
        let apps = ctx.apps(config.seed, &make_apps);
        let scenario = Scenario::new(substrate.clone(), apps, config.clone())
            .with_registry(registry.clone())
            .with_sweep_context(Arc::clone(&ctx));
        run(&scenario, spec)
    })
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
/// holds by construction inside [`run_cells`], where a context lives
/// for one call with a fixed `make_apps`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Algorithm;
    use vne_topology::zoo::citta_studi;

    /// One QUICKG cell per seed at the small scale.
    fn quickg_cells(utilization: f64, seeds: &[u64]) -> Vec<(AlgorithmSpec, ScenarioConfig)> {
        seeds
            .iter()
            .map(|&seed| {
                (
                    Algorithm::Quickg.into(),
                    ScenarioConfig::small(utilization).with_seed(seed),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_seeds_are_deterministic_and_ordered() {
        let substrate = citta_studi().unwrap();
        let cells = quickg_cells(1.2, &[1, 2, 3]);
        let run = || {
            run_cells(
                &AlgorithmRegistry::builtins(),
                &substrate,
                default_apps,
                &cells,
                |scenario, spec| (scenario.config.seed, scenario.run_summary(spec).unwrap()),
            )
        };
        let a = run();
        let b = run();
        let seeds: Vec<u64> = a.iter().map(|(seed, _)| *seed).collect();
        assert_eq!(seeds, vec![1, 2, 3], "results come back in cell order");
        for ((_, x), (_, y)) in a.iter().zip(&b) {
            assert_eq!(x.fingerprint(), y.fingerprint());
        }
        let summaries: Vec<_> = a.into_iter().map(|(_, s)| s).collect();
        let agg = crate::metrics::aggregate(&summaries);
        assert_eq!(agg.seeds, 3);
        assert!(agg.rejection_rate.0 >= 0.0);
    }

    #[test]
    fn run_cells_matches_scenario_runs() {
        let substrate = citta_studi().unwrap();
        let seeds = [4u64, 5];
        let summaries = run_cells(
            &AlgorithmRegistry::builtins(),
            &substrate,
            default_apps,
            &quickg_cells(1.0, &seeds),
            |scenario, spec| scenario.run_summary(spec).unwrap(),
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
