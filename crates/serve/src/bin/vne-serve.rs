//! The embedding-as-a-service daemon.
//!
//! Builds a scenario world (topology, paper application mix, algorithm
//! by name), spawns the engine actor, and serves the line protocol on a
//! TCP socket until a `SHUTDOWN` command drains it. See the README's
//! "Serving" section for the protocol reference.
//!
//! ```text
//! vne-serve [--addr 127.0.0.1:7700] [--alg FULLG]
//!           [--topology citta-studi|iris] [--utilization 1.0] [--seed 7]
//!           [--tick-ms N | --manual]
//!           [--watermark N]
//!           [--checkpoint PATH] [--checkpoint-every N]
//!           [--resume-from PATH]
//! ```
//!
//! `--manual` (the default) closes slots only on `ADVANCE` commands —
//! fully deterministic, what the tests script. `--tick-ms N` closes a
//! slot every `N` ms of wall-clock time instead. With `--checkpoint`,
//! state is written crash-safely every `--checkpoint-every` slots (and
//! once more on shutdown); `--resume-from` restores such a file
//! byte-identically before serving.

use std::process::ExitCode;
use std::time::Duration;

use vne_model::shard::{PartitionAssignment, ShardedSubstrate};
use vne_serve::actor::{CheckpointConfig, ServeConfig, TickMode};
use vne_serve::server::Server;
use vne_sim::persist::read_checkpoint_file;
use vne_sim::registry::{AlgorithmSpec, BuildContext};
use vne_sim::scenario::{Scenario, ScenarioConfig};
use vne_workload::appgen::{paper_mix, AppGenConfig};
use vne_workload::rng::SeededRng;

struct Options {
    addr: String,
    alg: String,
    topology: String,
    utilization: f64,
    seed: u64,
    tick: TickMode,
    watermark: usize,
    checkpoint: Option<std::path::PathBuf>,
    checkpoint_every: Option<u32>,
    resume_from: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7700".to_string(),
            alg: "FULLG".to_string(),
            topology: "citta-studi".to_string(),
            utilization: 1.0,
            seed: 7,
            tick: TickMode::Manual,
            watermark: 1024,
            checkpoint: None,
            checkpoint_every: None,
            resume_from: None,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--alg" => opts.alg = value("--alg")?,
            "--topology" => opts.topology = value("--topology")?,
            "--utilization" => {
                let raw = value("--utilization")?;
                opts.utilization = raw.parse().map_err(|e| format!("bad --utilization: {e}"))?;
                if !(opts.utilization.is_finite() && opts.utilization > 0.0) {
                    return Err(format!(
                        "--utilization takes a positive finite fraction, got {raw:?}"
                    ));
                }
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--tick-ms" => {
                let ms: u64 = value("--tick-ms")?
                    .parse()
                    .map_err(|e| format!("bad --tick-ms: {e}"))?;
                if ms == 0 {
                    return Err("--tick-ms must be at least 1".to_string());
                }
                opts.tick = TickMode::Interval(Duration::from_millis(ms));
            }
            "--manual" => opts.tick = TickMode::Manual,
            "--watermark" => {
                opts.watermark = value("--watermark")?
                    .parse()
                    .map_err(|e| format!("bad --watermark: {e}"))?;
            }
            "--checkpoint" => opts.checkpoint = Some(value("--checkpoint")?.into()),
            "--checkpoint-every" => {
                let every: u32 = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
                if every == 0 {
                    return Err("--checkpoint-every must be at least 1".to_string());
                }
                opts.checkpoint_every = Some(every);
            }
            "--resume-from" => opts.resume_from = Some(value("--resume-from")?.into()),
            "--help" | "-h" => {
                println!(
                    "vne-serve: embedding-as-a-service daemon\n\
                     flags: --addr --alg --topology --utilization --seed \
                     --tick-ms|--manual --watermark --checkpoint \
                     --checkpoint-every --resume-from"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if opts.checkpoint_every.is_some() && opts.checkpoint.is_none() {
        return Err("--checkpoint-every needs --checkpoint PATH to write to".to_string());
    }
    Ok(opts)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args)?;
    let substrate = match opts.topology.as_str() {
        "citta-studi" | "citta_studi" => {
            vne_topology::zoo::citta_studi().map_err(|e| e.to_string())?
        }
        "iris" => vne_topology::zoo::iris().map_err(|e| e.to_string())?,
        other => return Err(format!("unknown topology {other:?} (citta-studi or iris)")),
    };
    let mut rng = SeededRng::new(opts.seed);
    let apps = paper_mix(&AppGenConfig::default(), &mut rng);
    let scenario = Scenario::new(
        substrate,
        apps,
        ScenarioConfig::small(opts.utilization).with_seed(opts.seed),
    );
    let spec = AlgorithmSpec::new(&opts.alg);
    let built = scenario
        .registry()
        .build(&spec, &BuildContext::new(&scenario))
        .map_err(|e| e.to_string())?;
    // The one-shard view of the substrate is the monolithic engine, and
    // its coordinator asks for exactly one algorithm instance. (Any
    // other partition handed to `actor::spawn` serves sharded; see the
    // README for why the binary has no flag for it.)
    let whole = PartitionAssignment::single(scenario.substrate.node_count())
        .and_then(|a| ShardedSubstrate::new(&scenario.substrate, &a))
        .map_err(|e| e.to_string())?;
    let mut algorithm = Some(built.algorithm);
    let penalty = scenario.penalty();
    let window = scenario.config.measure_window;
    let app_count = scenario.apps.len();

    let resume = match &opts.resume_from {
        Some(path) => Some(read_checkpoint_file(path).map_err(|e| e.to_string())?),
        None => None,
    };
    let config = ServeConfig {
        tick: opts.tick,
        watermark: opts.watermark,
        checkpoint: opts.checkpoint.as_ref().map(|path| CheckpointConfig {
            path: path.clone(),
            every: opts.checkpoint_every.unwrap_or(8),
        }),
    };
    let runtime = vne_serve::actor::spawn(
        whole,
        |_, _| algorithm.take().expect("one shard asks for one instance"),
        penalty,
        window,
        app_count,
        config,
        resume.as_ref(),
    )
    .map_err(|e| format!("resume failed: {e}"))?;

    let server = Server::bind(opts.addr.as_str(), runtime.handle()).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // Parsed by tests and supervisors — keep this line first and stable.
    println!(
        "vne-serve listening on {addr} alg={spec} topology={}",
        opts.topology
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.serve().map_err(|e| e.to_string())?;

    let report = runtime.join().map_err(|e| e.to_string())?;
    println!(
        "vne-serve drained: slots={} submitted={} accepted={} rejected={} shed={} \
         checkpoints={} fingerprint={:016x}",
        report.stats.slots_run,
        report.stats.submitted,
        report.stats.accepted,
        report.stats.rejected,
        report.stats.shed,
        report.stats.checkpoints,
        report.stats.fingerprint,
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vne-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn checkpoint_every_requires_checkpoint() {
        let err = parse(&["--checkpoint-every", "4"]).err().expect("rejected");
        assert!(err.contains("--checkpoint PATH"), "{err}");
        // Either order is fine once both are there; the interval alone
        // defaults.
        for args in [
            &["--checkpoint", "/tmp/c.bin", "--checkpoint-every", "4"][..],
            &["--checkpoint-every", "4", "--checkpoint", "/tmp/c.bin"][..],
        ] {
            let opts = parse(args).unwrap();
            assert_eq!(opts.checkpoint_every, Some(4));
            assert!(opts.checkpoint.is_some());
        }
        assert_eq!(
            parse(&["--checkpoint", "/tmp/c.bin"])
                .unwrap()
                .checkpoint_every,
            None
        );
    }

    #[test]
    fn utilization_must_be_positive_and_finite() {
        for bad in ["nan", "inf", "-inf", "0", "-0.5"] {
            let err = parse(&["--utilization", bad]).err().expect(bad);
            assert!(err.contains("positive finite"), "{bad}: {err}");
        }
        assert_eq!(parse(&["--utilization", "1.4"]).unwrap().utilization, 1.4);
    }
}
