//! Minimal argument parsing shared by the figure binaries.
//!
//! Algorithm selection is *registry-driven*: `--algs` names are
//! resolved against an [`AlgorithmRegistry`] chosen by the
//! `--registry` flag / `VNE_REGISTRY` environment variable from a
//! process-global provider table ([`register_registry_provider`]).
//! A downstream binary can therefore register a provider that builds a
//! registry with custom algorithms and reuse every sweep driver in
//! this crate — no recompilation of `vne-bench` needed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use vne_model::request::Slot;
use vne_model::substrate::SubstrateNetwork;
use vne_sim::registry::{AlgorithmRegistry, AlgorithmSpec};
use vne_sim::scenario::{Algorithm, ScenarioConfig};

/// Builds the algorithm registry a sweep resolves `--algs` against.
pub type RegistryProvider = Arc<dyn Fn() -> AlgorithmRegistry + Send + Sync>;

/// The provider table: name → registry constructor.
fn providers() -> &'static Mutex<BTreeMap<String, RegistryProvider>> {
    static PROVIDERS: OnceLock<Mutex<BTreeMap<String, RegistryProvider>>> = OnceLock::new();
    PROVIDERS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Registers (or replaces) a named registry provider. Call this before
/// [`BenchOpts::parse`] in a custom binary, then select it with
/// `--registry NAME` or `VNE_REGISTRY=NAME`.
pub fn register_registry_provider(
    name: &str,
    provider: impl Fn() -> AlgorithmRegistry + Send + Sync + 'static,
) {
    providers()
        .lock()
        .expect("registry provider table poisoned")
        .insert(name.to_ascii_lowercase(), Arc::new(provider));
}

/// Resolves a provider by name. Registered providers win; `"builtins"`
/// (or the empty string) falls back to [`AlgorithmRegistry::builtins`]
/// unless a provider overrode that name.
///
/// Returns `None` for unknown names.
pub fn registry_named(name: &str) -> Option<AlgorithmRegistry> {
    let normalized = name.trim().to_ascii_lowercase();
    if let Some(provider) = providers()
        .lock()
        .expect("registry provider table poisoned")
        .get(&normalized)
    {
        return Some(provider());
    }
    if normalized.is_empty() || normalized == "builtins" {
        return Some(AlgorithmRegistry::builtins());
    }
    None
}

/// The provider names selectable right now (always includes
/// `builtins`), sorted and unique.
pub fn registry_names() -> Vec<String> {
    let mut names: Vec<String> = providers()
        .lock()
        .expect("registry provider table poisoned")
        .keys()
        .cloned()
        .collect();
    names.push("builtins".to_string());
    names.sort();
    names.dedup();
    names
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Number of seeds (executions) per configuration.
    pub seeds: usize,
    /// Full paper scale (5400+600 slots) instead of the medium default.
    pub paper_scale: bool,
    /// Utilization sweep as fractions (1.0 = 100%).
    pub utils: Vec<f64>,
    /// Algorithms to sweep (`--algs olive,quickg`), validated against
    /// [`BenchOpts::registry`]. Defaults to the scalable trio the sweep
    /// figures use (FULLG is opted into per binary).
    pub algs: Vec<AlgorithmSpec>,
    /// The registry `--algs` names resolve in and sweeps run with
    /// (selected by `--registry` / `VNE_REGISTRY`; builtins otherwise).
    pub registry: AlgorithmRegistry,
    /// Topology restriction (`None` = all four).
    pub topo: Option<String>,
    /// Serialize a checkpoint every N online slots of every per-seed
    /// run (`--checkpoint-every N`); files land in `checkpoint_dir`.
    /// Honored by the sweep-driver binaries
    /// ([`crate::experiments::sweep`]).
    pub checkpoint_every: Option<Slot>,
    /// Where `--checkpoint-every` writes its files
    /// (`--checkpoint-dir`, default `checkpoints/`).
    pub checkpoint_dir: PathBuf,
    /// Resume a single checkpointed run from a file written by
    /// `--checkpoint-every` and report its final summary instead of
    /// sweeping (`--resume-from FILE`). Handled by binaries that call
    /// [`crate::experiments::resume_from`] (fig06, fig07, fig13,
    /// fig14); sweep-driver binaries that do not handle it fail loudly
    /// instead of silently re-sweeping.
    pub resume_from: Option<PathBuf>,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            seeds: 3,
            paper_scale: false,
            utils: vec![0.6, 0.8, 1.0, 1.2, 1.4],
            algs: vec![
                Algorithm::Olive.into(),
                Algorithm::Quickg.into(),
                Algorithm::SlotOff.into(),
            ],
            registry: AlgorithmRegistry::builtins(),
            topo: None,
            checkpoint_every: None,
            checkpoint_dir: PathBuf::from("checkpoints"),
            resume_from: None,
        }
    }
}

impl BenchOpts {
    /// Parses `std::env::args()`, honoring `VNE_REGISTRY`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments, unknown
    /// registry providers, or `--algs` names the selected registry does
    /// not know.
    pub fn parse() -> Self {
        Self::parse_from(&std::env::args().skip(1).collect::<Vec<_>>())
    }

    /// Parses an explicit argument list (exposed for tests and custom
    /// binaries; [`BenchOpts::parse`] wraps the process arguments),
    /// reading `VNE_REGISTRY` from the process environment.
    ///
    /// # Panics
    ///
    /// See [`BenchOpts::parse`].
    pub fn parse_from(args: &[String]) -> Self {
        Self::parse_with_env(args, std::env::var("VNE_REGISTRY").ok())
    }

    /// The full parser with the `VNE_REGISTRY` value passed explicitly
    /// — the flag wins over the variable when both are given. Split out
    /// so the precedence is testable without mutating the (process-wide,
    /// test-shared) environment.
    fn parse_with_env(args: &[String], env_registry: Option<String>) -> Self {
        const USAGE: &str = "supported: --seeds N --paper --utils 60,100 \
                             --algs olive,quickg --registry NAME --topo iris \
                             --checkpoint-every N --checkpoint-dir DIR --resume-from FILE";
        fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| panic!("{flag} requires a value; {USAGE}"))
        }

        let mut opts = Self::default();
        let mut registry_pick: Option<String> = env_registry;
        let mut explicit_algs: Option<Vec<AlgorithmSpec>> = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--seeds" => {
                    opts.seeds = value(args, &mut i, "--seeds")
                        .parse()
                        .expect("--seeds takes an integer");
                }
                "--paper" | "--full" => opts.paper_scale = true,
                "--utils" => {
                    opts.utils = value(args, &mut i, "--utils")
                        .split(',')
                        .map(|p| p.parse::<f64>().expect("--utils takes percents") / 100.0)
                        .collect();
                }
                "--algs" => {
                    explicit_algs = Some(
                        value(args, &mut i, "--algs")
                            .split(',')
                            .map(AlgorithmSpec::new)
                            .collect(),
                    );
                }
                "--registry" => {
                    registry_pick = Some(value(args, &mut i, "--registry").to_string());
                }
                "--topo" => {
                    opts.topo = Some(value(args, &mut i, "--topo").to_lowercase());
                }
                "--checkpoint-every" => {
                    let every: Slot = value(args, &mut i, "--checkpoint-every")
                        .parse()
                        .expect("--checkpoint-every takes a slot count");
                    assert!(every > 0, "--checkpoint-every must be positive");
                    opts.checkpoint_every = Some(every);
                }
                "--checkpoint-dir" => {
                    opts.checkpoint_dir = PathBuf::from(value(args, &mut i, "--checkpoint-dir"));
                }
                "--resume-from" => {
                    opts.resume_from = Some(PathBuf::from(value(args, &mut i, "--resume-from")));
                }
                other => panic!("unknown argument {other}; {USAGE}"),
            }
            i += 1;
        }
        if let Some(name) = registry_pick {
            opts.registry = registry_named(&name).unwrap_or_else(|| {
                panic!(
                    "unknown registry provider {name:?}; available: {}",
                    registry_names().join(", ")
                )
            });
        }
        match explicit_algs {
            Some(algs) => {
                // Explicitly requested names must all resolve.
                for spec in &algs {
                    assert!(
                        opts.registry.contains(spec),
                        "unknown algorithm {:?}; registered: {}",
                        spec.name(),
                        opts.registry.names().join(", ")
                    );
                }
                opts.algs = algs;
            }
            None => {
                // The default trio, restricted to what the selected
                // registry actually knows (a builtin-free registry must
                // not fail on names the user never asked for).
                opts.algs.retain(|spec| opts.registry.contains(spec));
                assert!(
                    !opts.algs.is_empty(),
                    "the selected registry has none of the default algorithms; \
                     pass --algs (registered: {})",
                    opts.registry.names().join(", ")
                );
            }
        }
        opts
    }

    /// The seed list `1..=seeds`.
    pub fn seed_list(&self) -> Vec<u64> {
        (1..=self.seeds as u64).collect()
    }

    /// The scenario config at a utilization, honoring `--paper`.
    pub fn config(&self, utilization: f64) -> ScenarioConfig {
        if self.paper_scale {
            ScenarioConfig::paper(utilization)
        } else {
            medium_config(utilization)
        }
    }

    /// The topologies to run on, honoring `--topo` (a name prefix).
    ///
    /// # Panics
    ///
    /// Panics with the known names when `--topo` matches none of them —
    /// an empty sweep would otherwise exit 0 with no output.
    pub fn topologies(&self) -> Vec<SubstrateNetwork> {
        let all = [
            ("iris", vne_topology::zoo::iris().expect("iris")),
            ("citta", vne_topology::zoo::citta_studi().expect("citta")),
            ("5gen", vne_topology::gen5g::five_gen().expect("5gen")),
            (
                "100n150e",
                vne_topology::random::hundred_n_150e().expect("random"),
            ),
        ];
        let Some(pick) = &self.topo else {
            return all.into_iter().map(|(_, s)| s).collect();
        };
        let known = all.iter().map(|(name, _)| *name).collect::<Vec<_>>();
        let picked: Vec<SubstrateNetwork> = all
            .into_iter()
            .filter(|(name, _)| name.starts_with(pick.as_str()))
            .map(|(_, s)| s)
            .collect();
        assert!(
            !picked.is_empty(),
            "unknown topology {pick:?}; --topo takes a prefix of: {}",
            known.join(", ")
        );
        picked
    }
}

/// The default medium scale: one third of the paper's horizon with the
/// same structure (enough for stationary behavior at far lower cost).
pub fn medium_config(utilization: f64) -> ScenarioConfig {
    let mut c = ScenarioConfig::paper(utilization);
    c.history_slots = 1800;
    c.test_slots = 300;
    c.measure_window = (50, 250);
    c.aggregation.bootstrap_replicates = 50;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use vne_sim::registry::BuiltAlgorithm;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_cover_paper_sweep() {
        let opts = BenchOpts::default();
        assert_eq!(opts.utils.len(), 5);
        assert_eq!(opts.seed_list(), vec![1, 2, 3]);
        assert_eq!(opts.topologies().len(), 4);
        let citta = BenchOpts::parse_from(&args(&["--topo", "citta"]));
        assert_eq!(citta.topologies().len(), 1);
        // An unknown name is a usage error naming the choices, not an
        // empty sweep that exits 0.
        let unknown = BenchOpts::parse_from(&args(&["--topo", "nosuch"]));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unknown.topologies()))
            .expect_err("must panic");
        let message = panic.downcast_ref::<String>().expect("formatted message");
        for name in ["nosuch", "iris", "citta", "5gen", "100n150e"] {
            assert!(message.contains(name), "{message}");
        }
        assert_eq!(
            opts.algs,
            vec![
                AlgorithmSpec::new("OLIVE"),
                AlgorithmSpec::new("QUICKG"),
                AlgorithmSpec::new("SLOTOFF"),
            ]
        );
        assert_eq!(opts.registry.names(), AlgorithmRegistry::builtins().names());
    }

    #[test]
    fn algs_parse_and_validate_against_the_registry() {
        let opts = BenchOpts::parse_from(&args(&["--algs", "olive,FULLG, slotoff"]));
        assert_eq!(
            opts.algs,
            vec![
                AlgorithmSpec::new("OLIVE"),
                AlgorithmSpec::new("FULLG"),
                AlgorithmSpec::new("SLOTOFF"),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "unknown algorithm")]
    fn unknown_algorithms_are_rejected() {
        let _ = BenchOpts::parse_from(&args(&["--algs", "cplex"]));
    }

    #[test]
    #[should_panic(expected = "unknown registry provider")]
    fn unknown_registry_provider_is_rejected() {
        let _ = BenchOpts::parse_from(&args(&["--registry", "no-such-provider"]));
    }

    #[test]
    #[should_panic(expected = "unknown registry provider")]
    fn unknown_registry_from_env_is_rejected() {
        // The env-var selection path validates names like the flag does.
        let _ = BenchOpts::parse_with_env(&args(&[]), Some("no-such-env-provider".to_string()));
    }

    #[test]
    #[should_panic(expected = "unknown algorithm")]
    fn unknown_algorithm_in_a_known_registry_is_rejected() {
        // The registry resolves ("builtins"), the algorithm does not.
        register_registry_provider("known-registry", AlgorithmRegistry::builtins);
        let _ = BenchOpts::parse_from(&args(&[
            "--registry",
            "known-registry",
            "--algs",
            "olive,notanalg",
        ]));
    }

    #[test]
    fn registry_flag_wins_over_env_var() {
        register_registry_provider("precedence-flag", || {
            let mut registry = AlgorithmRegistry::empty();
            registry.register("FLAGALG", |ctx| {
                BuiltAlgorithm::plain(vne_olive::olive::Olive::quickg(
                    ctx.substrate().clone(),
                    ctx.apps().clone(),
                    ctx.policy().clone(),
                ))
            });
            registry
        });
        register_registry_provider("precedence-env", || {
            let mut registry = AlgorithmRegistry::empty();
            registry.register("ENVALG", |ctx| {
                BuiltAlgorithm::plain(vne_olive::olive::Olive::quickg(
                    ctx.substrate().clone(),
                    ctx.apps().clone(),
                    ctx.policy().clone(),
                ))
            });
            registry
        });
        // Flag present: the env var loses.
        let opts = BenchOpts::parse_with_env(
            &args(&["--registry", "precedence-flag", "--algs", "flagalg"]),
            Some("precedence-env".to_string()),
        );
        assert_eq!(opts.registry.names(), vec!["FLAGALG"]);
        // No flag: the env var selects.
        let opts = BenchOpts::parse_with_env(
            &args(&["--algs", "envalg"]),
            Some("precedence-env".to_string()),
        );
        assert_eq!(opts.registry.names(), vec!["ENVALG"]);
        // The env-selected registry still validates --algs strictly.
        let err = std::panic::catch_unwind(|| {
            BenchOpts::parse_with_env(
                &args(&["--algs", "flagalg"]),
                Some("precedence-env".to_string()),
            )
        });
        assert!(err.is_err(), "env registry must reject foreign algs");
    }

    #[test]
    fn checkpoint_flags_parse() {
        let opts = BenchOpts::parse_from(&args(&[
            "--checkpoint-every",
            "50",
            "--checkpoint-dir",
            "/tmp/ckpts",
            "--resume-from",
            "/tmp/ckpts/one.bin",
        ]));
        assert_eq!(opts.checkpoint_every, Some(50));
        assert_eq!(opts.checkpoint_dir, PathBuf::from("/tmp/ckpts"));
        assert_eq!(opts.resume_from, Some(PathBuf::from("/tmp/ckpts/one.bin")));
        let defaults = BenchOpts::default();
        assert_eq!(defaults.checkpoint_every, None);
        assert_eq!(defaults.checkpoint_dir, PathBuf::from("checkpoints"));
    }

    #[test]
    #[should_panic(expected = "--checkpoint-every must be positive")]
    fn zero_checkpoint_interval_is_rejected() {
        let _ = BenchOpts::parse_from(&args(&["--checkpoint-every", "0"]));
    }

    #[test]
    fn custom_provider_extends_the_alg_namespace() {
        // A provider adding a fifth algorithm on top of the builtins:
        // the plugin path figure bins use without recompiling.
        register_registry_provider("extended-test", || {
            let mut registry = AlgorithmRegistry::builtins();
            registry.register("MYALG", |ctx| {
                BuiltAlgorithm::plain(vne_olive::olive::Olive::quickg(
                    ctx.substrate().clone(),
                    ctx.apps().clone(),
                    ctx.policy().clone(),
                ))
            });
            registry
        });
        assert!(registry_names().contains(&"extended-test".to_string()));
        // "myalg" resolves only through the custom provider.
        let opts = BenchOpts::parse_from(&args(&[
            "--registry",
            "extended-test",
            "--algs",
            "myalg,olive",
        ]));
        assert!(opts.registry.contains(&AlgorithmSpec::new("myalg")));
        assert_eq!(opts.algs.len(), 2);
        assert!(registry_named("builtins")
            .unwrap()
            .names()
            .iter()
            .all(|n| *n != "MYALG"));
    }

    #[test]
    fn builtin_free_registry_filters_the_default_algs() {
        // A registry without the builtin names must not panic on the
        // *default* algs the user never asked for — it keeps whatever
        // defaults it does know (here: only QUICKG).
        register_registry_provider("quickg-only", || {
            let mut registry = AlgorithmRegistry::empty();
            registry.register("QUICKG", |ctx| {
                BuiltAlgorithm::plain(vne_olive::olive::Olive::quickg(
                    ctx.substrate().clone(),
                    ctx.apps().clone(),
                    ctx.policy().clone(),
                ))
            });
            registry
        });
        let opts = BenchOpts::parse_from(&args(&["--registry", "quickg-only"]));
        assert_eq!(opts.algs, vec![AlgorithmSpec::new("QUICKG")]);
        // Explicit names still fail loudly against that registry.
        let err = std::panic::catch_unwind(|| {
            BenchOpts::parse_from(&args(&["--registry", "quickg-only", "--algs", "olive"]))
        });
        assert!(err.is_err());
    }

    #[test]
    fn medium_config_is_reduced_paper() {
        let c = medium_config(1.2);
        assert_eq!(c.test_slots, 300);
        assert!((c.utilization - 1.2).abs() < 1e-12);
    }
}
