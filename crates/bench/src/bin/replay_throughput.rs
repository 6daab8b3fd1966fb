//! Replay-throughput benchmark: how many trace records per wall-clock
//! second the simulator replays on a large synthetic drill, single- and
//! multi-threaded.
//!
//! The drill is the paper-preset CRAID-5 array replaying the `wdev`
//! synthetic workload (seed 14, `pc_fraction` 0.2) — the same shape the
//! evaluation sweeps use, scaled up so the replay loop dominates. Each
//! requested thread count replays the *same* pre-generated trace through
//! [`Scenario::run_on_sharded`]; the resulting reports are asserted
//! byte-identical across thread counts before any number is trusted, so
//! the benchmark doubles as a determinism check on the sharded
//! metrics pipeline.
//!
//! ```text
//! cargo run --release -p craid-bench --bin replay_throughput -- \
//!     [--requests N] [--threads 1,4] [--smoke] [--out BENCH_replay.json] \
//!     [--baseline path.json] [--max-regress 30]
//! ```
//!
//! The JSON written to `--out` carries one entry per thread count plus
//! top-level fields mirroring the highest-thread run:
//!
//! ```json
//! {
//!   "requests": 500000,
//!   "events_per_sec": 123456.0,
//!   "wall_secs": 3.06,
//!   "peak_rss_bytes": 104857600,
//!   "threads": 4,
//!   "runs": [ { "threads": 1, "requests": 500000, "records": 377816, ... }, ... ]
//! }
//! ```
//!
//! `requests` is the nominal `--requests` the synthetic trace was asked
//! for; each run's `records` is how many trace records the replay actually
//! processed (the report's request count), which the generator's scaling
//! leaves below the nominal figure. `events_per_sec` divides `records` by
//! the wall time (each record expands into several device I/Os
//! internally). `peak_rss_bytes`
//! is the process high-water mark (`VmHWM`), so later runs in the same
//! invocation include earlier runs' footprint. With `--baseline`, the run
//! exits non-zero if its top-level `events_per_sec` falls more than
//! `--max-regress` percent (default 30) below the baseline file's — the
//! CI perf-smoke gate.
//!
//! Each run also executes under the replay loop's per-stage profiler
//! (`craid_obs::profile`); the highest-thread run's breakdown — mapping,
//! redirect, pump, metrics fold, QoS — lands in the report's `stage_profile`
//! array. The existing top-level fields are untouched, so older baseline
//! files keep gating.

use std::time::Instant;

use craid::{NullObserver, Scenario, StrategyKind};
use craid_obs::profile::{self, StageSample};
use craid_trace::WorkloadId;
use serde::{Serialize, Value};

/// Default request count for the full drill (about 15–30 s of replay on a
/// developer machine after the sharded-metrics and WLRU-index work).
const FULL_REQUESTS: u64 = 500_000;
/// Request count under `--smoke` — big enough that per-request costs
/// dominate trace generation, small enough for a CI gate.
const SMOKE_REQUESTS: u64 = 60_000;

#[derive(Debug, Clone, Copy, Serialize)]
struct RunStat {
    threads: usize,
    /// The nominal `--requests` the trace was generated for.
    requests: u64,
    /// Trace records the replay processed (the report's request count).
    records: u64,
    wall_secs: f64,
    events_per_sec: f64,
    peak_rss_bytes: u64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    scenario: String,
    requests: u64,
    /// Mirrors the highest-thread run, the headline number CI gates on.
    events_per_sec: f64,
    wall_secs: f64,
    peak_rss_bytes: u64,
    threads: usize,
    runs: Vec<RunStat>,
    /// Per-stage wall-clock breakdown of the highest-thread run's replay
    /// loop (mapping, redirect, pump, metrics fold, QoS).
    stage_profile: Vec<StageSample>,
}

fn main() {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => {}
        Err(message) => {
            eprintln!("replay_throughput: {message}");
            std::process::exit(1);
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let mut requests: Option<u64> = None;
    let mut threads: Vec<usize> = vec![1, 4];
    let mut smoke = false;
    let mut out = "BENCH_replay.json".to_string();
    let mut baseline: Option<String> = None;
    let mut max_regress = 30.0f64;

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value (see --help)"))
        };
        match arg.as_str() {
            "--requests" => requests = Some(parse(&value_of("--requests")?)?),
            "--threads" => {
                threads = value_of("--threads")?
                    .split(',')
                    .map(|t| parse::<usize>(t.trim()))
                    .collect::<Result<_, _>>()?;
                if threads.is_empty() {
                    return Err("--threads needs at least one thread count".into());
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = value_of("--out")?,
            "--baseline" => baseline = Some(value_of("--baseline")?),
            "--max-regress" => max_regress = parse(&value_of("--max-regress")?)?,
            "--help" | "-h" => {
                eprintln!(
                    "usage: replay_throughput [--requests N] [--threads 1,4] [--smoke] \
                     [--out path.json] [--baseline path.json] [--max-regress PCT]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag '{other}' (see --help)")),
        }
    }
    let requests = requests.unwrap_or(if smoke { SMOKE_REQUESTS } else { FULL_REQUESTS });

    let scenario = Scenario::builder()
        .name("replay throughput drill")
        .strategy(StrategyKind::Craid5)
        .workload(WorkloadId::Wdev)
        .requests(requests)
        .seed(14)
        .paper()
        .pc_fraction(0.2)
        .build();
    eprintln!("generating {requests}-request wdev trace (paper preset, CRAID-5)...");
    let trace = scenario.trace();

    let mut runs: Vec<RunStat> = Vec::with_capacity(threads.len());
    let mut stage_profiles: Vec<Vec<StageSample>> = Vec::with_capacity(threads.len());
    let mut reference_report: Option<String> = None;
    for &t in &threads {
        profile::enable();
        let started = Instant::now();
        let outcome = scenario
            .run_on_sharded(&trace, &mut NullObserver, t)
            .map_err(|e| format!("replay failed at {t} thread(s): {e}"))?;
        let wall_secs = started.elapsed().as_secs_f64();
        stage_profiles.push(profile::take());

        // The sharded pipeline must not be able to publish a fast number
        // for a different answer: every thread count must reproduce the
        // single-threaded report byte-for-byte.
        let json = outcome.report.to_json();
        match &reference_report {
            None => reference_report = Some(json),
            Some(reference) => {
                if *reference != json {
                    return Err(format!(
                        "report at {t} thread(s) is not byte-identical to the first run \
                         — sharded replay broke determinism"
                    ));
                }
            }
        }

        let records = outcome.report.requests;
        let stat = RunStat {
            threads: t,
            requests,
            records,
            wall_secs,
            events_per_sec: records as f64 / wall_secs,
            peak_rss_bytes: peak_rss_bytes(),
        };
        eprintln!(
            "threads={:<2} records={} wall={:.3}s events/sec={:.0} peak_rss={}MiB",
            stat.threads,
            stat.records,
            stat.wall_secs,
            stat.events_per_sec,
            stat.peak_rss_bytes / (1024 * 1024),
        );
        runs.push(stat);
    }

    let headline_at = runs
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.threads)
        .map(|(i, _)| i)
        .expect("at least one thread count runs");
    let headline = runs[headline_at];
    let stage_profile = stage_profiles.swap_remove(headline_at);
    let replay_secs: f64 = stage_profile.iter().map(|s| s.secs).sum();
    for sample in &stage_profile {
        eprintln!(
            "stage {:<12} {:>8.3}s ({:>4.1}% of instrumented replay time, {} hits)",
            sample.stage,
            sample.secs,
            if replay_secs > 0.0 {
                100.0 * sample.secs / replay_secs
            } else {
                0.0
            },
            sample.hits,
        );
    }
    let report = BenchReport {
        benchmark: "replay_throughput".to_string(),
        scenario: scenario.name.clone(),
        requests,
        events_per_sec: headline.events_per_sec,
        wall_secs: headline.wall_secs,
        peak_rss_bytes: headline.peak_rss_bytes,
        threads: headline.threads,
        runs,
        stage_profile,
    };
    let json = serde_json::to_string_pretty(&report)
        .map_err(|e| format!("serializing bench report: {e}"))?;
    std::fs::write(&out, format!("{json}\n")).map_err(|e| format!("writing {out}: {e}"))?;
    println!("{json}");

    if let Some(path) = baseline {
        let floor = baseline_events_per_sec(&path)? * (1.0 - max_regress / 100.0);
        if report.events_per_sec < floor {
            return Err(format!(
                "events/sec regressed: {:.0} is more than {max_regress}% below the \
                 baseline floor in {path} (allowed minimum {floor:.0})",
                report.events_per_sec
            ));
        }
        eprintln!(
            "baseline check passed: {:.0} events/sec >= allowed minimum {floor:.0}",
            report.events_per_sec
        );
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse()
        .map_err(|e| format!("cannot parse '{text}': {e}"))
}

/// Reads the `events_per_sec` field out of a previously written
/// `BENCH_replay.json`.
fn baseline_events_per_sec(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let value = serde_json::parse_value(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    match value.get("events_per_sec") {
        Some(Value::Float(f)) => Ok(*f),
        Some(Value::Int(i)) => Ok(*i as f64),
        Some(Value::UInt(u)) => Ok(*u as f64),
        _ => Err(format!("{path} has no numeric 'events_per_sec' field")),
    }
}

/// The process's peak resident set (`VmHWM` from `/proc/self/status`), in
/// bytes; 0 where procfs is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kib * 1024;
        }
    }
    0
}
