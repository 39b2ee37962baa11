//! `vne-benchmark` — see `benchmark/README.md`.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run in this
//!   process; the last line of standard output is the result object.
//! * no `--trace` — the suite: every workload (or `--workload W`) in
//!   child processes, `--reps` plain runs then one traced run each;
//!   prints every metric and writes `out/result.json`.
//! * `--compare A.json B.json` — verdict per workload × end-to-end
//!   metric between two suite results.

use std::path::PathBuf;
use std::process::ExitCode;

use vne_benchmark::run::{run, RunArgs};
use vne_benchmark::suite::{compare_files, run_suite, SuiteArgs};

const USAGE: &str = "usage: vne-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--reps R] [--smoke] [--out DIR] | --compare A.json B.json";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    reps: usize,
    smoke: bool,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        reps: 3,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        let number = |text: &String| format!("{flag}: {text:?} is not a number in range");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                let text = value()?;
                cli.seed = text.parse().map_err(|_| number(text))?;
            }
            "--seconds" => {
                let text = value()?;
                let seconds: f64 = text.parse().map_err(|_| number(text))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(number(text));
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--reps" => {
                let text = value()?;
                cli.reps = text.parse().map_err(|_| number(text))?;
                if !(1..=100).contains(&cli.reps) {
                    return Err(number(text));
                }
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out_dir = PathBuf::from(value()?),
            "--compare" => {
                let a = PathBuf::from(value()?);
                cli.compare = Some((a, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &cli.compare {
        compare_files(a, b)
    } else if let (Some(trace), Some(workload)) = (cli.trace, &cli.workload) {
        single(&cli, workload, trace)
    } else if cli.trace.is_some() {
        Err("--trace selects a single run and needs --workload".to_string())
    } else {
        run_suite(&SuiteArgs {
            workload: cli.workload.clone(),
            seed: cli.seed,
            seconds: cli.seconds,
            reps: cli.reps,
            smoke: cli.smoke,
            out_dir: cli.out_dir.clone(),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("vne-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One in-process run; prints every metric by name with its unit, the
/// fingerprint, and the result object as the last line.
fn single(cli: &Cli, workload: &str, trace: bool) -> Result<bool, String> {
    let report = run(&RunArgs {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.smoke { 0.5 } else { 10.0 }),
        trace,
        smoke: cli.smoke,
        out_dir: cli.out_dir.clone(),
    })?;
    println!(
        "workload {workload} seed {} replays {} fingerprint {:#018x}",
        cli.seed, report.replays, report.fingerprint
    );
    for (name, value, unit) in &report.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    for problem in &report.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", report.result_line());
    Ok(report.correct)
}
