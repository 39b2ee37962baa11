//! The suite — every workload in its own child process, `--reps` plain
//! runs then one traced run each — and `--compare` between two of its
//! result files.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::adapter::WORKLOADS;
use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::run::MAX_TRACE_OVERHEAD;
use crate::stats::{quartiles, relative_iqr};

/// Arguments of a suite run.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Run only this workload.
    pub workload: Option<String>,
    /// Input seed of every run.
    pub seed: u64,
    /// Measuring time per run (the single run's default when `None`).
    pub seconds: Option<f64>,
    /// Plain runs per workload.
    pub reps: usize,
    /// A twentieth of the input size.
    pub smoke: bool,
    /// Where `result.json` and the trace files go.
    pub out_dir: PathBuf,
}

/// One child run, parsed back from its standard output.
struct ChildRun {
    correct: bool,
    attempted: f64,
    failed: f64,
    fingerprint: String,
    /// `(name, value, unit)` in the child's order.
    metrics: Vec<(String, f64, String)>,
}

fn spawn_run(args: &SuiteArgs, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir);
    if let Some(seconds) = args.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child; its check failures go straight to
    // our standard error.
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .ok_or_else(|| "no output".to_string())
        .and_then(Json::parse)
        .and_then(|line| parse_result_line(&line).ok_or_else(|| "not a result object".to_string()));
    let (correct, attempted, failed, metrics) = parsed.map_err(|e| {
        format!(
            "run of {workload} ({}) printed no result: {e}",
            output.status
        )
    })?;
    let fingerprint = stdout
        .lines()
        .find_map(|line| line.split_once("fingerprint "))
        .map_or_else(String::new, |(_, hex)| hex.trim().to_string());
    Ok(ChildRun {
        // A child that reports success but exits non-zero is not one.
        correct: correct && output.status.success(),
        attempted,
        failed,
        fingerprint,
        metrics,
    })
}

type ResultLine = (bool, f64, f64, Vec<(String, f64, String)>);

fn parse_result_line(line: &Json) -> Option<ResultLine> {
    let metrics = line
        .get("metrics")?
        .as_object()?
        .iter()
        .map(|(name, body)| {
            let value = body.get("value")?.as_f64()?;
            let unit = body.get("unit")?.as_str()?.to_string();
            Some((name.clone(), value, unit))
        })
        .collect::<Option<Vec<_>>>()?;
    Some((
        line.get("correct")?.as_bool()?,
        line.get("attempted")?.as_f64()?,
        line.get("failed")?.as_f64()?,
        metrics,
    ))
}

/// First line of a command's output, or `"unknown"`.
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs the suite, prints every metric by name with its unit and
/// writes `result.json`. `Ok(false)` when an output check failed.
///
/// # Errors
///
/// Returns a message when a child cannot be started or prints no
/// result, or when `result.json` cannot be written.
pub fn run_suite(args: &SuiteArgs) -> Result<bool, String> {
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut all_correct = true;
    let mut rows = Vec::new();
    for name in names {
        let mut runs = Vec::new();
        for _ in 0..args.reps {
            runs.push(spawn_run(args, name, false)?);
        }
        let traced = spawn_run(args, name, true)?;

        let fingerprint = traced.fingerprint.clone();
        let agree = runs.iter().all(|r| r.fingerprint == fingerprint);
        let overhead = traced
            .metrics
            .iter()
            .find(|m| m.0 == "trace.overhead_ratio")
            .map_or(f64::INFINITY, |m| m.1);
        let cheap_trace = args.smoke || overhead < MAX_TRACE_OVERHEAD;
        if !cheap_trace {
            eprintln!("check failed: {name}: tracing overhead {overhead:.3} is not under {MAX_TRACE_OVERHEAD}");
        }
        let correct = agree && cheap_trace && traced.correct && runs.iter().all(|r| r.correct);
        let every = || runs.iter().chain([&traced]);
        let attempted: f64 = every().map(|r| r.attempted).sum();
        // Repetitions that disagree on the fingerprint fail wholesale.
        let failed: f64 = if agree {
            every().map(|r| r.failed).sum()
        } else {
            attempted
        };
        all_correct &= correct;

        println!(
            "== {name}: fingerprint {fingerprint}{}, failed_share {} ({failed} of {attempted})",
            if agree { "" } else { " (repetitions DISAGREE)" },
            failed / attempted.max(1.0),
        );
        let mut end_to_end = Vec::new();
        for metric in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|m| m.0 == metric.name))
                .map(|m| m.1)
                .collect();
            let (q1, q2, q3) = quartiles(&values);
            println!(
                "{:<34} {q2:>16.6} {:<8} [q1 {q1:.6}, q3 {q3:.6}, n {}]",
                metric.name,
                metric.unit,
                values.len()
            );
            let body = Json::object([
                ("unit", Json::from(metric.unit)),
                ("median", Json::from(q2)),
                ("q1", Json::from(q1)),
                ("q3", Json::from(q3)),
                ("n", Json::from(values.len())),
                (
                    "values",
                    Json::Array(values.into_iter().map(Json::from).collect()),
                ),
            ]);
            end_to_end.push((metric.name, body));
        }
        let per_layer = traced.metrics.iter().map(|(layer, value, unit)| {
            println!("{layer:<34} {value:>16.6} {unit}");
            let body = Json::object([
                ("value", Json::from(*value)),
                ("unit", Json::from(unit.as_str())),
            ]);
            (layer.as_str(), body)
        });
        rows.push(Json::object([
            ("name", Json::from(name)),
            ("fingerprint", Json::from(fingerprint)),
            ("correct", Json::from(correct)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("failed_share", Json::from(failed / attempted.max(1.0))),
            ("per_layer", Json::object(per_layer)),
            ("end_to_end", Json::object(end_to_end)),
        ]));
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = Json::object([
        (
            "host",
            Json::object([
                ("nproc", Json::from(nproc)),
                ("rustc", Json::from(probe("rustc", &["-V"]))),
                ("commit", Json::from(probe("git", &["rev-parse", "HEAD"]))),
            ]),
        ),
        ("seed", Json::from(args.seed as f64)),
        ("reps", Json::from(args.reps)),
        ("seconds", args.seconds.map_or(Json::Null, Json::from)),
        ("smoke", Json::from(args.smoke)),
        ("correct", Json::from(all_correct)),
        ("workloads", Json::Array(rows)),
    ]);
    let path = args.out_dir.join("result.json");
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, result.pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// The verdict of one workload × end-to-end metric between result A
/// (the base) and result B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The spread of A or B is wider than the bound: no verdict.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric from both sides' repetition values. Returns the
/// verdict and how much worse B's median is, as a share of A's.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (_, a_median, _) = quartiles(a);
    let (_, b_median, _) = quartiles(b);
    let worse = match metric.better {
        Better::Lower => (b_median - a_median) / a_median.abs(),
        Better::Higher => (a_median - b_median) / a_median.abs(),
    };
    let verdict = if relative_iqr(a).max(relative_iqr(b)) > metric.bound {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload<'a>(result: &'a Json, name: &str) -> Option<&'a Json> {
    result
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn values(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("end_to_end")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_array)
        .map(|v| v.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Prints one row per workload × end-to-end metric of two suite
/// results: both medians, both inter-quartile ranges, the ratio B/A
/// and the verdict under the metric's bound. `Ok(false)` when any row
/// is not `ok` or a workload's failed share rose.
///
/// # Errors
///
/// Returns a message when a file cannot be read or parsed, or the two
/// share no workload.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<15} {:<18} {:>14} {:>8} {:>14} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "B/A", "bound%"
    );
    let (mut all_ok, mut compared) = (true, 0);
    for info in &WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(&a, info.name), workload(&b, info.name)) else {
            continue;
        };
        compared += 1;
        for metric in &END_TO_END {
            let (va, vb) = (values(wa, metric.name), values(wb, metric.name));
            let (verdict, _) = judge(metric, &va, &vb);
            let (ma, mb) = (quartiles(&va).1, quartiles(&vb).1);
            println!(
                "{:<15} {:<18} {ma:>14.6} {:>8.2} {mb:>14.6} {:>8.2} {:>9.4} {:>6.1}  {}",
                info.name,
                metric.name,
                relative_iqr(&va) * 100.0,
                relative_iqr(&vb) * 100.0,
                mb / ma,
                metric.bound * 100.0,
                verdict.label(),
            );
            all_ok &= verdict == Verdict::Ok;
        }
        let share = |w: &Json| w.get("failed_share").and_then(Json::as_f64).unwrap_or(1.0);
        let print = |w: &Json| {
            w.get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let risen = share(wb) > share(wa);
        println!(
            "{:<15} failed_share {} -> {} {}; fingerprint {}",
            info.name,
            share(wa),
            share(wb),
            if risen { "regression" } else { "ok" },
            if print(wa) == print(wb) {
                "identical".to_string()
            } else {
                format!("{} -> {}", print(wa), print(wb))
            },
        );
        all_ok &= !risen;
    }
    if compared == 0 {
        return Err("the two results share no workload".to_string());
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: EndToEnd = EndToEnd {
        name: "rate",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };
    const SETUP: EndToEnd = EndToEnd {
        name: "setup",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    };

    #[test]
    fn within_bound_is_ok_in_either_direction() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(judge(&RATE, &a, &[95.0, 96.0, 94.0]).0, Verdict::Ok);
        assert_eq!(judge(&RATE, &a, &[150.0, 151.0, 149.0]).0, Verdict::Ok);
        assert_eq!(
            judge(&SETUP, &[1.0, 1.0, 1.01], &[1.2, 1.2, 1.21]).0,
            Verdict::Ok
        );
    }

    #[test]
    fn worse_than_the_bound_is_a_regression_by_direction() {
        let a = [100.0, 101.0, 99.0];
        let (verdict, worse) = judge(&RATE, &a, &[80.0, 81.0, 79.0]);
        assert_eq!(verdict, Verdict::Regression);
        assert!((worse - 0.2).abs() < 1e-12);
        // Lower is better for set-up: a faster B is fine, a slower one is not.
        assert_eq!(
            judge(&SETUP, &[1.0, 1.0, 1.01], &[0.5, 0.5, 0.5]).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&SETUP, &[1.0, 1.0, 1.01], &[1.3, 1.3, 1.31]).0,
            Verdict::Regression
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_gives_no_verdict() {
        let noisy = [80.0, 100.0, 120.0];
        assert_eq!(
            judge(&RATE, &noisy, &[100.0, 100.0, 100.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&RATE, &[100.0, 100.0, 100.0], &noisy).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn result_lines_parse_back() {
        let line = Json::parse(
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#,
        )
        .unwrap();
        let (correct, attempted, failed, metrics) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (10.0, 0.0));
        assert_eq!(metrics, [("setup_s".to_string(), 0.5, "s".to_string())]);
        assert!(parse_result_line(&Json::parse(r#"{"correct": true}"#).unwrap()).is_none());
    }
}
