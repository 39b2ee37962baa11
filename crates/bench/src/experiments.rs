//! Shared experiment drivers for the figure binaries.
//!
//! Every sweeping binary runs through [`sweep_groups`] — [`sweep`] is
//! its utilization × algorithm front end — which expands its groups
//! into (group, seed) cells and hands **all** of them to
//! [`vne_sim::runner::run_cells`]: one worker pool, one shared
//! [`vne_sim::runner::SweepContext`] (per-seed application draws and
//! offline plans are derived once and reused wherever the plan inputs
//! coincide, e.g. across plan-based algorithm variants), algorithms
//! resolved in [`BenchOpts::registry`]. Results are byte-identical to
//! running the cells one by one.
//!
//! A sweep is interruptible, and it is resumed by re-running it. Under
//! `--checkpoint-every N` each cell keeps its latest
//! [`vne_sim::engine::EngineCheckpoint`] in
//! `<checkpoint_dir>/ckpt-<topo>-<alg>-u<pct>-c<key>-s<seed>.bin`
//! ([`vne_sim::persist`], the one on-disk format), where `<key>` is
//! [`Scenario::world_key`] — a fingerprint of the cell's substrate,
//! applications, policy and complete configuration. The same command
//! line with `--resume` rebuilds every cell's scenario through the same
//! code, so nothing about the scenario is stored in the file: config
//! tweaks (Fig. 13's `plan_utilization`, Fig. 14's `shift_plan_ingress`,
//! ablation switches), custom application generators, custom substrates
//! and plugged algorithms resume faithfully by construction. A cell
//! whose file exists is finished from it — by the cell's own
//! [`AlgorithmSpec`], a file written by another algorithm is an error —
//! and the others run fresh. Fresh or resumed, a cell keeps
//! checkpointing under `--checkpoint-every`, so a resumed sweep can be
//! interrupted again without losing ground.

use std::path::PathBuf;

use vne_model::app::AppSet;
use vne_model::substrate::SubstrateNetwork;
use vne_sim::metrics::{aggregate, AggregatedSummary, Summary};
use vne_sim::observe::NullObserver;
use vne_sim::persist::{read_checkpoint_file, write_checkpoint_file};
use vne_sim::registry::AlgorithmSpec;
use vne_sim::runner::{default_apps, run_cells};
use vne_sim::scenario::{CheckpointSink, Scenario, ScenarioConfig};

use crate::cli::BenchOpts;

/// One row of a sweep result: one (algorithm, configuration) group,
/// aggregated over the seeds.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Topology name.
    pub topology: String,
    /// Utilization fraction.
    pub utilization: f64,
    /// Algorithm name.
    pub algorithm: String,
    /// Aggregated metrics across seeds.
    pub summary: AggregatedSummary,
    /// The per-seed summaries behind `summary`, in seed order.
    pub per_seed: Vec<Summary>,
}

/// Runs `algorithms × opts.utils` on one topology with the paper's
/// standard application mix and returns one row per pair,
/// utilization-major.
///
/// Algorithms are anything resolvable by the options' registry
/// ([`BenchOpts::registry`]) — [`vne_sim::scenario::Algorithm`]
/// values, names, or custom algorithms a downstream binary registered
/// in that field. `tweak` customizes the scenario config after the
/// scale defaults are applied (e.g. Fig. 15's CAIDA trace).
pub fn sweep<S, F>(
    substrate: &SubstrateNetwork,
    algorithms: &[S],
    opts: &BenchOpts,
    tweak: F,
) -> Vec<SweepRow>
where
    S: Clone + Into<AlgorithmSpec>,
    F: Fn(&mut ScenarioConfig),
{
    let mut groups = Vec::new();
    for &u in &opts.utils {
        for algorithm in algorithms {
            let mut config = opts.config(u);
            tweak(&mut config);
            groups.push((algorithm.clone().into(), config));
        }
    }
    sweep_groups(substrate, default_apps, opts, &groups)
}

/// Runs arbitrary `(algorithm, seedless config)` groups on one
/// substrate — each across `opts.seed_list()`, with the application set
/// `make_apps` draws per seed — and returns one row per group, in group
/// order. All (group, seed) cells of the call feed one
/// [`run_cells`] pool.
///
/// Honors `--checkpoint-every` and `--resume` as the module docs
/// describe: each cell owns its checkpoint file, so the writes never
/// contend, and a re-run with `--resume` finishes the cells whose file
/// exists and prints the same table as the uninterrupted sweep (resume
/// notices go to stderr).
///
/// # Panics
///
/// Panics when an algorithm does not resolve in `opts.registry`, and
/// when a checkpoint file `--resume` finds is unreadable, truncated or
/// not a checkpoint of its cell — never a silent fresh run.
pub fn sweep_groups<FA>(
    substrate: &SubstrateNetwork,
    make_apps: FA,
    opts: &BenchOpts,
    groups: &[(AlgorithmSpec, ScenarioConfig)],
) -> Vec<SweepRow>
where
    FA: Fn(u64) -> AppSet + Sync,
{
    if opts.checkpoint_every.is_some() {
        std::fs::create_dir_all(&opts.checkpoint_dir).expect("create checkpoint directory");
    }

    let seeds = opts.seed_list();
    let cells: Vec<(AlgorithmSpec, ScenarioConfig)> = groups
        .iter()
        .flat_map(|(spec, config)| {
            seeds
                .iter()
                .map(move |&seed| (spec.clone(), config.clone().with_seed(seed)))
        })
        .collect();
    let summaries = run_cells(
        &opts.registry,
        substrate,
        make_apps,
        &cells,
        |scenario, spec| run_cell(opts, scenario, spec),
    );
    groups
        .iter()
        .zip(summaries.chunks(seeds.len()))
        .map(|((spec, config), per_seed)| SweepRow {
            topology: substrate.name().to_string(),
            utilization: config.utilization,
            algorithm: spec.name().to_string(),
            summary: aggregate(per_seed),
            per_seed: per_seed.to_vec(),
        })
        .collect()
}

/// One sweep cell: finished from its checkpoint file under `--resume`
/// when the file exists, otherwise run from slot 0 — either way with
/// every capture replacing the cell's file under `--checkpoint-every`.
fn run_cell(opts: &BenchOpts, scenario: &Scenario, spec: &AlgorithmSpec) -> Summary {
    let path = checkpoint_path(opts, scenario, spec);
    let from = (opts.resume && path.exists()).then(|| {
        let checkpoint = read_checkpoint_file(&path).unwrap_or_else(|e| panic!("{e}"));
        eprintln!(
            "# resuming {}: {} of {} slots done",
            path.display(),
            checkpoint.slot + 1,
            scenario.config.test_slots,
        );
        checkpoint
    });
    let checkpoints = opts.checkpoint_every.map(|every| {
        let path = path.clone();
        let sink: CheckpointSink = Box::new(move |checkpoint| {
            write_checkpoint_file(&path, checkpoint).unwrap_or_else(|e| panic!("{e}"));
        });
        (every, Some(sink))
    });
    scenario
        .drive(spec, from.as_ref(), checkpoints, &mut NullObserver)
        .unwrap_or_else(|e| panic!("cell {}: {e}", path.display()))
        .summary
}

/// The checkpoint file of one sweep cell. The world key in the name
/// keeps cells that differ in *anything* — a config tweak, the
/// application generator, the substrate behind a shared topology name —
/// on distinct files in a shared directory, and is what lets a re-run
/// find exactly the file its own cell wrote.
fn checkpoint_path(opts: &BenchOpts, scenario: &Scenario, spec: &AlgorithmSpec) -> PathBuf {
    opts.checkpoint_dir.join(format!(
        "ckpt-{}-{}-u{:.0}-c{:016x}-s{}.bin",
        scenario.substrate.name(),
        spec.name(),
        scenario.config.utilization * 100.0,
        scenario.world_key(),
        scenario.config.seed,
    ))
}

/// Prints sweep rows with a metric selector as an aligned table.
pub fn print_rows<F>(title: &str, rows: &[SweepRow], metric_name: &str, select: F)
where
    F: Fn(&AggregatedSummary) -> (f64, f64),
{
    println!("# {title}");
    println!(
        "{:<12} {:>6} {:>9} {:>14} {:>12}",
        "topology", "util", "alg", metric_name, "±95ci"
    );
    for row in rows {
        let (mean, ci) = select(&row.summary);
        println!(
            "{:<12} {:>5.0}% {:>9} {:>14.6} {:>12.6}",
            row.topology,
            row.utilization * 100.0,
            row.algorithm,
            mean,
            ci
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vne_model::app::AppShape;
    use vne_sim::registry::AlgorithmRegistry;
    use vne_sim::scenario::Algorithm;
    use vne_workload::appgen::{uniform_shape_set, AppGenConfig};
    use vne_workload::rng::SeededRng;

    #[test]
    fn tiny_sweep_produces_rows() {
        let substrate = vne_topology::zoo::citta_studi().unwrap();
        let opts = BenchOpts {
            seeds: 1,
            utils: vec![1.0],
            ..BenchOpts::default()
        };
        let rows = sweep(
            &substrate,
            &[vne_sim::scenario::Algorithm::Quickg],
            &opts,
            |c| {
                // Shrink for the unit test.
                c.history_slots = 100;
                c.test_slots = 60;
                c.measure_window = (10, 50);
            },
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].algorithm, "QUICKG");
        assert!(rows[0].summary.rejection_rate.0 >= 0.0);
        print_rows("test", &rows, "rate", |s| s.rejection_rate);
    }

    /// A scratch checkpoint directory private to one test.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vne-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn checkpoint_files(dir: &std::path::Path) -> BTreeSet<PathBuf> {
        std::fs::read_dir(dir)
            .map(|entries| entries.map(|entry| entry.unwrap().path()).collect())
            .unwrap_or_default()
    }

    fn fingerprints(rows: &[SweepRow]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|row| row.per_seed.iter().map(Summary::fingerprint).collect())
            .collect()
    }

    #[test]
    fn sweep_resumes_by_rerunning() {
        // End to end, per sweep shape: checkpoint while sweeping, re-run
        // the identical call with `resume`, and land on the per-seed
        // fingerprints of the sweep that never stopped. Nothing about
        // the scenario is stored in the files, so the tweaked Fig. 13 /
        // Fig. 14 cells (the regression of the tweaked-config checkpoint
        // bug: they once resumed against the *standard* scenario) and a
        // cell with a non-default application generator resume through
        // the same closures that built them.
        let substrate = vne_topology::zoo::citta_studi().unwrap();
        let dir = scratch_dir("resume");
        let base = BenchOpts {
            seeds: 2,
            utils: vec![1.2],
            checkpoint_dir: dir.clone(),
            ..BenchOpts::default()
        };
        // Shrunk so the plan-based cells stay fast.
        let shrink = |c: &mut ScenarioConfig| {
            c.history_slots = 80;
            c.test_slots = 30;
            c.measure_window = (4, 26);
            c.aggregation.bootstrap_replicates = 10;
        };
        let shaped = |shape: AppShape| {
            move |seed: u64| {
                let mut rng = SeededRng::new(seed).derive(0xF19);
                uniform_shape_set(shape, &AppGenConfig::default(), &mut rng)
            }
        };
        let fig09 = |shape: AppShape, opts: &BenchOpts| {
            let mut config = opts.config(1.2);
            shrink(&mut config);
            let groups = [(Algorithm::Olive.into(), config)];
            sweep_groups(&substrate, shaped(shape), opts, &groups)
        };
        type Run<'a> = Box<dyn Fn(&BenchOpts) -> Vec<SweepRow> + 'a>;
        // (name, --checkpoint-every, slot of the last capture, the sweep)
        let cases: [(&str, u32, u32, Run); 5] = [
            // Medium scale = 300 online slots, every 130 ⇒ captures at
            // slots 129 and 259; the file holds the latest.
            (
                "untweaked",
                130,
                259,
                Box::new(|opts| sweep(&substrate, &[Algorithm::Quickg], opts, |_| {})),
            ),
            (
                "fig13",
                9,
                26,
                Box::new(|opts| {
                    sweep(&substrate, &[Algorithm::Olive], opts, |c| {
                        shrink(c);
                        c.plan_utilization = Some(0.6);
                    })
                }),
            ),
            (
                "fig14",
                9,
                26,
                Box::new(|opts| {
                    sweep(&substrate, &[Algorithm::Olive], opts, |c| {
                        shrink(c);
                        c.shift_plan_ingress = true;
                    })
                }),
            ),
            // Two groups differing only in the application generator.
            (
                "fig09-chain",
                9,
                26,
                Box::new(|opts| fig09(AppShape::Chain, opts)),
            ),
            (
                "fig09-tree",
                9,
                26,
                Box::new(|opts| fig09(AppShape::Tree, opts)),
            ),
        ];
        for (name, every, last_capture, run) in &cases {
            let uninterrupted = fingerprints(&run(&base));
            let before = checkpoint_files(&dir);
            let checkpointing = BenchOpts {
                checkpoint_every: Some(*every),
                ..base.clone()
            };
            assert_eq!(fingerprints(&run(&checkpointing)), uninterrupted, "{name}");
            // One file per (group, seed) cell, none of them a file an
            // earlier case wrote: every case has its own world key.
            let written: Vec<PathBuf> = checkpoint_files(&dir)
                .difference(&before)
                .cloned()
                .collect();
            assert_eq!(written.len(), base.seeds, "{name}: {written:?}");
            for path in &written {
                let checkpoint = read_checkpoint_file(path).unwrap();
                assert_eq!(checkpoint.slot, *last_capture, "{name}");
            }
            let resuming = BenchOpts {
                resume: true,
                ..base.clone()
            };
            assert_eq!(fingerprints(&run(&resuming)), uninterrupted, "{name}");
            // A resumed cell keeps checkpointing: re-run with `resume`
            // *and* `checkpoint_every`, and every file moves on from the
            // slot it was resumed at to the run's last slot (10 divides
            // both horizons) — a second interruption loses nothing.
            let resuming_checkpointing = BenchOpts {
                resume: true,
                checkpoint_every: Some(10),
                ..base.clone()
            };
            let rerun = fingerprints(&run(&resuming_checkpointing));
            assert_eq!(rerun, uninterrupted, "{name}");
            let last_slot = if *name == "untweaked" { 299 } else { 29 };
            for path in &written {
                let checkpoint = read_checkpoint_file(path).unwrap();
                assert_eq!(checkpoint.slot, last_slot, "{name}");
            }
        }

        // The file name is predictable from the cell's scenario.
        let seed_one = Scenario::new(
            substrate.clone(),
            default_apps(1),
            base.config(1.2).with_seed(1),
        );
        let path = dir.join(format!(
            "ckpt-CittaStudi-QUICKG-u120-c{:016x}-s1.bin",
            seed_one.world_key()
        ));
        let good = std::fs::read(&path).expect("the untweaked sweep's seed-1 file");

        // A file that is not a whole engine checkpoint — a legacy bench
        // wrapper, a truncated write — stops the resume with an error
        // naming it; the cell is never silently run fresh.
        let resuming = BenchOpts {
            resume: true,
            ..base.clone()
        };
        // (The retired bench wrapper's magic, in two halves: nothing in
        // this crate names that format any more.)
        let legacy = [&b"VNEB"[..], b"ENC3 wrapped checkpoint"].concat();
        for bad in [&legacy[..], &good[..good.len() / 2]] {
            std::fs::write(&path, bad).unwrap();
            let panic =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (cases[0].3)(&resuming)))
                    .expect_err("a bad checkpoint file must stop the resume");
            let message = panic.downcast_ref::<String>().expect("formatted message");
            assert!(message.contains(path.to_str().unwrap()), "{message}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_resolves_custom_algorithms_through_the_opts_registry() {
        // The plugin path end to end: an extended registry assigned to
        // BenchOpts lets `sweep` run an algorithm vne-bench knows
        // nothing about.
        let mut registry = AlgorithmRegistry::builtins();
        registry.register("PLUGGED", |ctx| {
            vne_sim::registry::BuiltAlgorithm::plain(vne_olive::olive::Olive::quickg(
                ctx.substrate().clone(),
                ctx.apps().clone(),
                ctx.policy().clone(),
            ))
        });
        let substrate = vne_topology::zoo::citta_studi().unwrap();
        let opts = BenchOpts {
            seeds: 1,
            utils: vec![1.0],
            algs: vec![AlgorithmSpec::new("plugged")],
            registry,
            ..BenchOpts::default()
        };
        let rows = sweep(&substrate, &opts.algs, &opts, |c| {
            c.history_slots = 100;
            c.test_slots = 60;
            c.measure_window = (10, 50);
        });
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].algorithm, "PLUGGED");
    }
}
