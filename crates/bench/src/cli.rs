//! Minimal argument parsing shared by the figure binaries.
//!
//! `--algs` names are resolved against [`BenchOpts::registry`], which
//! parsing leaves at [`AlgorithmRegistry::builtins`]. A downstream
//! binary that adds custom algorithms assigns the field after parsing
//! and reuses every sweep driver in this crate.

use std::path::PathBuf;

use vne_model::request::Slot;
use vne_model::substrate::SubstrateNetwork;
use vne_sim::registry::{AlgorithmRegistry, AlgorithmSpec};
use vne_sim::scenario::{Algorithm, ScenarioConfig};

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
    /// (the builtins unless a custom binary assigns another).
    pub registry: AlgorithmRegistry,
    /// Topology restriction (`None` = all four).
    pub topo: Option<String>,
    /// Serialize a checkpoint every N online slots of every cell's run
    /// (`--checkpoint-every N`); each cell overwrites its own file in
    /// `checkpoint_dir`. Honored by every sweeping binary (they all run
    /// through [`crate::experiments::sweep_groups`]); the single-run
    /// binaries parse with [`BenchOpts::parse_single_run`], which
    /// rejects the three checkpoint flags.
    pub checkpoint_every: Option<Slot>,
    /// Where `--checkpoint-every` writes and `--resume` looks for the
    /// cells' files (`--checkpoint-dir`, default `checkpoints/`).
    pub checkpoint_dir: PathBuf,
    /// Resume an interrupted sweep by re-running its command line with
    /// `--resume`: every cell whose checkpoint file exists in
    /// `checkpoint_dir` is finished from it, the others run fresh, and
    /// the output equals the uninterrupted sweep's.
    pub resume: bool,
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
            resume: false,
        }
    }
}

/// The flags every binary takes (sweeping binaries add the three
/// checkpoint flags).
const USAGE: &str = "supported: --seeds N --paper --utils 60,100 --algs olive,quickg --topo iris";

impl BenchOpts {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments or `--algs`
    /// names the builtin registry does not know.
    pub fn parse() -> Self {
        Self::parse_from(&std::env::args().skip(1).collect::<Vec<_>>())
    }

    /// Parses an explicit argument list (exposed for tests and custom
    /// binaries; [`BenchOpts::parse`] wraps the process arguments).
    ///
    /// # Panics
    ///
    /// See [`BenchOpts::parse`].
    pub fn parse_from(args: &[String]) -> Self {
        fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| panic!("{flag} requires a value; {USAGE}"))
        }

        let mut opts = Self::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--seeds" => {
                    opts.seeds = value(args, &mut i, "--seeds")
                        .parse()
                        .expect("--seeds takes an integer");
                    assert!(opts.seeds > 0, "--seeds must be positive; {USAGE}");
                }
                "--paper" | "--full" => opts.paper_scale = true,
                "--utils" => {
                    opts.utils = value(args, &mut i, "--utils")
                        .split(',')
                        .map(|p| {
                            let percent: f64 = p.parse().expect("--utils takes percents");
                            assert!(
                                percent.is_finite() && percent > 0.0,
                                "--utils takes positive finite percents, got {p:?}; {USAGE}"
                            );
                            percent / 100.0
                        })
                        .collect();
                }
                "--algs" => {
                    opts.algs = value(args, &mut i, "--algs")
                        .split(',')
                        .map(AlgorithmSpec::new)
                        .collect();
                    for spec in &opts.algs {
                        assert!(
                            opts.registry.contains(spec),
                            "unknown algorithm {:?}; registered: {}",
                            spec.name(),
                            opts.registry.names().join(", ")
                        );
                    }
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
                "--resume" => opts.resume = true,
                other => panic!(
                    "unknown argument {other}; {USAGE}; sweeps also take: \
                     --checkpoint-every N --checkpoint-dir DIR --resume"
                ),
            }
            i += 1;
        }
        opts
    }

    /// Parses `std::env::args()` for a binary that runs single
    /// scenarios instead of a sweep (fig08, fig12, probe): such a run
    /// writes and reads no checkpoint files, so the checkpoint flags
    /// are usage errors here rather than silently ignored.
    ///
    /// # Panics
    ///
    /// Panics like [`BenchOpts::parse`], and on `--checkpoint-every`,
    /// `--checkpoint-dir` or `--resume`.
    pub fn parse_single_run() -> Self {
        Self::single_run_from(&std::env::args().skip(1).collect::<Vec<_>>())
    }

    fn single_run_from(args: &[String]) -> Self {
        if let Some(flag) = args.iter().find(|arg| {
            matches!(
                arg.as_str(),
                "--checkpoint-every" | "--checkpoint-dir" | "--resume"
            )
        }) {
            panic!("{flag} applies to sweeps, and this binary runs single scenarios; {USAGE}");
        }
        Self::parse_from(args)
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

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_cover_the_papers_grid() {
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
    fn checkpoint_flags_parse() {
        let opts = BenchOpts::parse_from(&args(&[
            "--checkpoint-every",
            "50",
            "--checkpoint-dir",
            "/tmp/ckpts",
            "--resume",
        ]));
        assert_eq!(opts.checkpoint_every, Some(50));
        assert_eq!(opts.checkpoint_dir, PathBuf::from("/tmp/ckpts"));
        assert!(opts.resume);
        let defaults = BenchOpts::default();
        assert!(!defaults.resume);
        assert_eq!(defaults.checkpoint_every, None);
        assert_eq!(defaults.checkpoint_dir, PathBuf::from("checkpoints"));
    }

    #[test]
    fn single_run_binaries_reject_checkpoint_flags() {
        for (flag, list) in [
            ("--checkpoint-every", &["--checkpoint-every", "50"][..]),
            ("--checkpoint-dir", &["--checkpoint-dir", "/tmp/ckpts"]),
            ("--resume", &["--seeds", "1", "--resume"]),
        ] {
            let panic = std::panic::catch_unwind(|| BenchOpts::single_run_from(&args(list)))
                .expect_err("a single-run binary must reject checkpoint flags");
            let message = panic.downcast_ref::<String>().expect("formatted message");
            assert!(message.starts_with(flag), "{message}");
            assert!(message.ends_with(USAGE), "{message}");
        }
        // Everything else parses as in a sweeping binary.
        let opts = BenchOpts::single_run_from(&args(&["--seeds", "2", "--topo", "iris"]));
        assert_eq!(opts.seeds, 2);
        assert_eq!(opts.topo.as_deref(), Some("iris"));
    }

    #[test]
    #[should_panic(expected = "--checkpoint-every must be positive")]
    fn zero_checkpoint_interval_is_rejected() {
        let _ = BenchOpts::parse_from(&args(&["--checkpoint-every", "0"]));
    }

    #[test]
    #[should_panic(expected = "--seeds")]
    fn zero_seeds_are_rejected() {
        let _ = BenchOpts::parse_from(&args(&["--seeds", "0"]));
    }

    #[test]
    fn nonpositive_or_nonfinite_utils_are_rejected() {
        for bad in ["0", "-60", "nan", "inf", "100,0"] {
            let panic =
                std::panic::catch_unwind(|| BenchOpts::parse_from(&args(&["--utils", bad])))
                    .expect_err(bad);
            let message = panic.downcast_ref::<String>().expect("formatted message");
            assert!(message.contains("--utils"), "{bad}: {message}");
        }
        assert_eq!(
            BenchOpts::parse_from(&args(&["--utils", "60,140"])).utils,
            vec![0.6, 1.4]
        );
    }

    #[test]
    fn medium_config_is_reduced_paper() {
        let c = medium_config(1.2);
        assert_eq!(c.test_slots, 300);
        assert!((c.utilization - 1.2).abs() < 1e-12);
    }
}
