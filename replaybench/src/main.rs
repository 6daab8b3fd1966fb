//! Command-line front end of the CRAID replay benchmark.
//!
//! ```text
//! cargo run --release --manifest-path replaybench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
//! cargo run --release --manifest-path replaybench/Cargo.toml -- --write-manifest BENCHMARK.json
//! ```
//!
//! A run prints the host facts, a digest of the simulated report and every
//! metric with its unit and direction, then, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! publishes the end-to-end metrics of an untraced run, `--trace 1` the
//! per-layer metrics of a traced run. `--workload all` runs every workload,
//! each in its own process. `--repeat N` runs the workload N times, each in
//! its own process with seeds `seed..seed+N`, and prints the median and
//! quartiles of every metric, with the quartile spread as a share of the
//! median.

use std::process::{Command, ExitCode};

use replaybench::metrics::{self, MetricDef};
use replaybench::run::{self, Settings};
use replaybench::stats;
use replaybench::workloads::Workload;

const USAGE: &str = "usage: replaybench --workload <name|all> [--seed N] [--seconds S] \
                     [--trace 0|1] [--repeat N] | --write-manifest PATH";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    manifest: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        repeat: None,
        manifest: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        let number = |text: String| {
            text.parse::<f64>()
                .ok()
                .filter(|v| (0.0..=86_400.0).contains(v))
                .ok_or(format!("{flag}: '{text}' is not a number from 0 to 86400"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let text = value()?;
                args.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: '{text}' is not a whole number"))?;
            }
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--repeat" => args.repeat = Some(number(value()?)?.max(2.0) as usize),
            "--write-manifest" => args.manifest = Some(value()?),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.manifest {
        return match std::fs::write(path, metrics::manifest_json()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("writing {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(name) = args.workload.clone() else {
        eprintln!("--workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    if name == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::from_name(&name) else {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        eprintln!("unknown workload '{name}' (one of {})", names.join(", "));
        return ExitCode::from(2);
    };
    if let Some(repeat) = args.repeat {
        return run_repeat(&args, workload, repeat);
    }
    run_one(&args, workload)
}

/// The commit the benchmark was built from: `git rev-parse HEAD` when the
/// source tree is a git checkout, otherwise `unknown`.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let settings = Settings {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        shrink: 1,
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "replaybench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    println!(
        "host: nproc={nproc} profile={profile} commit={} threads=1",
        commit()
    );
    println!("why: {}", workload.why());
    let result = if args.trace {
        run::run_traced(&settings)
    } else {
        run::run_end_to_end(&settings)
    };
    for line in &result.lines {
        println!("{line}");
    }
    println!("{}", result.json_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-runs this executable with `extra` arguments and returns its stdout
/// and whether it succeeded. The child is waited for before returning.
fn child(extra: &[String]) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let output = Command::new(exe)
        .args(extra)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running a child benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    Ok((stdout, output.status.success()))
}

fn child_args(args: &Args, workload: Workload, seed: u64) -> Vec<String> {
    vec![
        "--workload".into(),
        workload.name().into(),
        "--seed".into(),
        seed.to_string(),
        "--seconds".into(),
        args.seconds.to_string(),
        "--trace".into(),
        u8::from(args.trace).to_string(),
    ]
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        match child(&child_args(args, workload, args.seed)) {
            Ok((stdout, success)) => {
                print!("{stdout}");
                ok &= success;
            }
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
        println!();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parses a result line's metric values.
fn result_metrics(line: &str) -> Result<Vec<(String, f64)>, String> {
    let value = serde_json::parse_value(line).map_err(|e| format!("result line: {e}"))?;
    if value.get("correct") != Some(&serde::Value::Bool(true)) {
        return Err("the run was refused".into());
    }
    let metrics = value
        .get("metrics")
        .and_then(serde::Value::as_map)
        .ok_or("result line has no metrics")?;
    metrics
        .iter()
        .map(|(name, entry)| match entry.get("value") {
            Some(serde::Value::Float(v)) => Ok((name.clone(), *v)),
            Some(serde::Value::Int(v)) => Ok((name.clone(), *v as f64)),
            Some(serde::Value::UInt(v)) => Ok((name.clone(), *v as f64)),
            _ => Err(format!("metric {name} has no numeric value")),
        })
        .collect()
}

fn run_repeat(args: &Args, workload: Workload, repeat: usize) -> ExitCode {
    let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
    for i in 0..repeat as u64 {
        let seed = args.seed + i;
        let parsed = child(&child_args(args, workload, seed)).and_then(|(stdout, _)| {
            let last = stdout.lines().last().unwrap_or_default().to_string();
            result_metrics(&last)
        });
        match parsed {
            Ok(metrics) => {
                eprintln!("repeat {}/{repeat}: seed {seed} done", i + 1);
                runs.push(metrics);
            }
            Err(e) => {
                eprintln!("repeat {}/{repeat}: seed {seed}: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{} x{repeat} (seeds {}..{}), trace={}: median and quartiles across runs",
        workload.name(),
        args.seed,
        args.seed + repeat as u64 - 1,
        u8::from(args.trace)
    );
    println!(
        "  {:<26} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut steady = true;
    for (name, _) in &runs[0] {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
            .collect();
        let (q1, q2, q3) = stats::quartiles(&values);
        let spread = stats::spread(&values);
        let def: Option<&MetricDef> = metrics::find(name);
        let bound = def.map_or(0.0, |d| d.bound);
        let verdict = if bound == 0.0 {
            "unbounded"
        } else if name == "setup_s" {
            "exempt"
        } else if spread < bound / 3.0 {
            "steady"
        } else if spread < bound {
            "within bound"
        } else {
            steady = false;
            "TOO NOISY"
        };
        println!(
            "  {name:<26} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>8.4} {bound:>6}  {verdict}"
        );
    }
    if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
