//! Replay-throughput benchmark: how many trace records per wall-clock
//! second the simulator replays on a large synthetic drill, on one thread.
//!
//! The drill is the paper-preset CRAID-5 array replaying the `wdev`
//! synthetic workload (seed 14, `pc_fraction` 0.2) — the same shape the
//! evaluation sweeps use, scaled up so the replay loop dominates. Each
//! invocation generates the trace once and replays it once through
//! [`Scenario::run_on`]. One replay per process keeps an earlier run's
//! heap and caches from skewing the number; run the binary again for
//! another sample.
//!
//! ```text
//! cargo run --release -p craid-bench --bin replay_throughput -- \
//!     [--requests N] [--smoke] [--out BENCH_replay.json] \
//!     [--baseline path.json] [--max-regress 30]
//! ```
//!
//! The JSON written to `--out`:
//!
//! ```json
//! {
//!   "benchmark": "replay_throughput",
//!   "scenario": "replay throughput drill",
//!   "requests": 500000,
//!   "records": 377816,
//!   "events_per_sec": 123456.0,
//!   "wall_secs": 3.06,
//!   "peak_rss_bytes": 104857600,
//!   "cores": 2,
//!   "stage_profile": [ { "stage": "mapping", "secs": 0.05, "hits": 377816 }, ... ]
//! }
//! ```
//!
//! `requests` is the nominal `--requests` the synthetic trace was asked
//! for; `records` is how many trace records the replay actually processed
//! (the report's request count), which the generator's scaling moves off
//! the nominal figure (the full drill replays 377,816 of 500,000, the
//! smoke drill 62,969 of 60,000). `events_per_sec` divides `records` by the
//! replay's wall time (each record expands into several device I/Os
//! internally). `peak_rss_bytes` is the process high-water mark
//! (`VmHWM`), trace generation included. `cores` is the host's available
//! parallelism, recorded so a number can be read against the machine
//! that produced it; the replay itself uses one thread. With
//! `--baseline`, the run exits non-zero if its `events_per_sec` falls
//! more than `--max-regress` percent (default 30) below the baseline
//! file's — the CI perf-smoke gate.
//!
//! The replay executes under the replay loop's per-stage profiler
//! (`craid_obs::profile`); its breakdown — mapping, redirect, pump,
//! metrics fold, QoS — lands in the report's `stage_profile` array.

use std::time::Instant;

use craid::{NullObserver, Scenario, StrategyKind};
use craid_obs::profile::{self, StageSample};
use craid_trace::WorkloadId;
use serde::{Serialize, Value};

/// Default request count for the full drill: 377,816 replayed records,
/// about 5 s of replay on a 2-vCPU Xeon VM.
const FULL_REQUESTS: u64 = 500_000;
/// Request count under `--smoke` — big enough that per-request costs
/// dominate trace generation, small enough for a CI gate.
const SMOKE_REQUESTS: u64 = 60_000;

#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    scenario: String,
    /// The nominal `--requests` the trace was generated for.
    requests: u64,
    /// Trace records the replay processed (the report's request count).
    records: u64,
    events_per_sec: f64,
    wall_secs: f64,
    peak_rss_bytes: u64,
    /// The host's available parallelism (the replay uses one thread).
    cores: usize,
    /// Per-stage wall-clock breakdown of the replay loop (mapping,
    /// redirect, pump, metrics fold, QoS).
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
            "--smoke" => smoke = true,
            "--out" => out = value_of("--out")?,
            "--baseline" => baseline = Some(value_of("--baseline")?),
            "--max-regress" => max_regress = parse(&value_of("--max-regress")?)?,
            "--help" | "-h" => {
                eprintln!(
                    "usage: replay_throughput [--requests N] [--smoke] \
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

    profile::enable();
    let started = Instant::now();
    let outcome = scenario
        .run_on(&trace, &mut NullObserver)
        .map_err(|e| format!("replay failed: {e}"))?;
    let wall_secs = started.elapsed().as_secs_f64();
    let stage_profile = profile::take();

    let records = outcome.report.requests;
    let report = BenchReport {
        benchmark: "replay_throughput".to_string(),
        scenario: scenario.name.clone(),
        requests,
        records,
        events_per_sec: records as f64 / wall_secs,
        wall_secs,
        peak_rss_bytes: peak_rss_bytes(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        stage_profile,
    };
    eprintln!(
        "records={} wall={:.3}s events/sec={:.0} peak_rss={}MiB cores={}",
        report.records,
        report.wall_secs,
        report.events_per_sec,
        report.peak_rss_bytes / (1024 * 1024),
        report.cores,
    );
    let replay_secs: f64 = report.stage_profile.iter().map(|s| s.secs).sum();
    for sample in &report.stage_profile {
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
