//! One benchmark run of one workload: the untraced end-to-end measurement
//! (`--trace 0`) or the traced per-layer measurement (`--trace 1`), each
//! behind its correctness gates.

use std::time::{Duration, Instant};

use craid::SimulationReport;

use crate::endtoend::{self, SetupTime, Tally};
use crate::layers::{self, ControlReplay};
use crate::metrics;
use crate::stats::{self, median};
use crate::traced::{self, Origin, Span, Traced};
use crate::workloads::{self, Workload};

/// Set-ups per run: `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// What one run measured and printed.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every gate passed.
    pub correct: bool,
    /// Trace records replayed.
    pub attempted: u64,
    /// Records counted as failed (all of them once a gate fails).
    pub failed: u64,
    /// Published metrics: `(name, value)`, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines (printed before the result line).
    pub lines: Vec<String>,
}

impl RunResult {
    /// The result line: one JSON object with the published metrics, or
    /// with none once a gate failed.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = if self.correct {
            self.metrics
                .iter()
                .map(|(name, value)| {
                    let unit = metrics::find(name).map_or("", |m| m.unit);
                    format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        json_number(*value)
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Marks the run refused: every record counts as failed.
    fn refuse(&mut self, reason: &str) {
        self.correct = false;
        self.failed = self.attempted.max(1);
        self.attempted = self.attempted.max(1);
        self.lines.push(format!("REFUSED: {reason}"));
    }
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become 0 so the line stays valid JSON).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// Run settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Request-count divisor (1 for the published benchmark).
    pub shrink: u64,
}

/// Runs the untraced end-to-end measurement. Gate failures refuse the run
/// rather than erroring.
pub fn run_end_to_end(settings: &Settings) -> RunResult {
    let mut result = RunResult::default();
    if let Err(reason) = end_to_end(settings, &mut result) {
        result.refuse(&reason);
    }
    result
}

/// Runs the traced per-layer measurement. Gate failures refuse the run.
pub fn run_traced(settings: &Settings) -> RunResult {
    let mut result = RunResult::default();
    if let Err(reason) = traced(settings, &mut result) {
        result.refuse(&reason);
    }
    result
}

fn gate(failures: Vec<String>) -> Result<(), String> {
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Fails unless the report replayed exactly `expected` records.
///
/// # Errors
///
/// Names both counts.
pub fn check_records(report: &SimulationReport, expected: usize, what: &str) -> Result<(), String> {
    if report.requests == expected as u64 {
        Ok(())
    } else {
        Err(format!(
            "{what} replayed {} records, the trace has {expected}",
            report.requests
        ))
    }
}

fn end_to_end(settings: &Settings, result: &mut RunResult) -> Result<(), String> {
    let workload = settings.workload;
    let scenario = workload.scenario(settings.seed, settings.shrink);
    let (trace, setups) = endtoend::set_up(&scenario, SETUP_REPS)?;

    // Timed replays until the measurement time is spent. Each one carries a
    // tally (a few nanoseconds a record) because the report has no p99.9
    // and no device I/O count; the first replay's report is the reference
    // every later one must reproduce byte for byte.
    let budget = Duration::from_secs_f64(settings.seconds);
    let started = Instant::now();
    let mut secs = Vec::new();
    let mut first: Option<(endtoend::Replay, Tally)> = None;
    while secs.is_empty() || started.elapsed() < budget {
        let mut tally = Tally::default();
        let replay = endtoend::replay(&scenario, &trace, &mut tally)?;
        result.attempted += replay.report.requests;
        secs.push(replay.secs);
        match &first {
            Some((reference, _)) => {
                endtoend::check_identical("a timed replay's", &reference.json, &replay.json)?;
            }
            None => {
                check_records(&replay.report, trace.len(), "the replay")?;
                endtoend::check_tally(&mut tally, &replay.report)?;
                gate(workloads::report_bypass_failures(workload, &replay.report))?;
                first = Some((replay, tally));
            }
        }
    }
    let (reference, mut tally) = first.expect("at least one replay ran");
    let report = &reference.report;
    let replay_s = median(&secs);
    let setup_s = median(&setups.iter().map(SetupTime::total_s).collect::<Vec<_>>());
    let rss = stats::peak_rss_mib().ok_or("peak resident memory is unavailable")?;
    let read_p999 = tally.read_ms.quantile(0.999).unwrap_or(0.0);
    let write_p999 = tally.write_ms.quantile(0.999).unwrap_or(0.0);

    result.metrics = vec![
        ("records_per_s", report.requests as f64 / replay_s),
        ("device_ios_per_s", tally.device_ios as f64 / replay_s),
        ("setup_s", setup_s),
        ("peak_rss_mib", rss),
        ("read_mean_ms", report.read.mean_ms),
        ("read_p999_ms", read_p999),
        ("write_mean_ms", report.write.mean_ms),
        ("write_p999_ms", write_p999),
    ];
    let printed_only = printed_only_metrics(report);

    let lines = &mut result.lines;
    let each: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
    lines.push(format!(
        "report digest {:016x}: {} records, {} device I/Os in the measurement window",
        stats::digest(&reference.json),
        report.requests,
        tally.device_ios,
    ));
    lines.push(format!(
        "{} timed replays, median {replay_s:.3} s: {}; {} set-ups",
        secs.len(),
        each.join(" "),
        setups.len()
    ));
    lines.push("end-to-end metrics (untraced):".into());
    for &(name, value) in &result.metrics {
        let def = metrics::find(name).expect("published metrics are defined");
        let mut line = format!(
            "  {name:<26} {value:>16.4} {:<10} {} is better, bound {}",
            def.unit,
            def.better.word(),
            def.bound
        );
        let samples = match name {
            "read_mean_ms" | "read_p999_ms" => Some(report.read.count),
            "write_mean_ms" | "write_p999_ms" => Some(report.write.count),
            _ => None,
        };
        if let Some(count) = samples {
            line.push_str(&format!(" ({count} samples"));
            if name.ends_with("p999_ms") {
                line.push_str(&format!(", {} beyond", count / 1000));
            }
            line.push(')');
        }
        lines.push(line);
    }
    lines.push("also printed, not published (see metrics::PRINTED_ONLY):".into());
    for (name, value) in printed_only {
        let def = metrics::find(name).expect("printed metrics are defined");
        let shown = value.map_or_else(|| "n/a".to_string(), |v| format!("{v:.4}"));
        lines.push(format!(
            "  {name:<26} {shown:>16} {:<10} {} is better",
            def.unit,
            def.better.word()
        ));
    }
    result.correct = true;
    Ok(())
}

/// The end-to-end metrics that are printed but not published; `None` where
/// the workload has no such thing.
pub fn printed_only_metrics(report: &SimulationReport) -> Vec<(&'static str, Option<f64>)> {
    let migration = &report.migration;
    let fault = &report.fault;
    let upgraded = migration.any_migrations() || migration.any_archive_restripes();
    // One expansion starts both the migration and the archive restripe, so
    // its window ends when the longer of the two drains.
    let window = upgraded.then(|| {
        migration
            .migration_secs
            .max(migration.archive_restripe_secs)
    });
    let maintenance = if report.qos.enabled {
        Some(report.qos.effective_maintenance_rate)
    } else {
        window.filter(|w| *w > 0.0).map(|w| {
            (migration.migrated_blocks
                + migration.archive_migrated_blocks
                + fault.rebuild_write_blocks) as f64
                / w
        })
    };
    vec![
        ("read_p50_ms", Some(report.read.p50_ms)),
        ("write_p50_ms", Some(report.write.p50_ms)),
        ("failed_frac", Some(0.0)),
        ("pc_hit_ratio", report.craid.map(|c| c.hit_ratio)),
        ("upgrade_window_s", window),
        (
            "mttr_s",
            (fault.rebuilds_completed > 0).then(|| fault.mttr_secs()),
        ),
        (
            "slo_violation_s",
            report.qos.enabled.then_some(report.qos.slo_violation_secs),
        ),
        ("maintenance_blocks_per_s", maintenance),
    ]
}

/// True when `submit` can be split into monitor, policy and redirector
/// replays: a CRAID array with no events.
fn splittable(workload: Workload) -> bool {
    workload.is_craid() && workload.scenario(0, 1).events.is_empty()
}

/// Per-layer values of one traced pass.
fn layer_values(
    workload: Workload,
    setups: &[SetupTime],
    untraced_s: f64,
    run: &Traced,
) -> Result<Vec<(&'static str, f64)>, String> {
    let capture = &run.capture;
    let devices = layers::replay_devices(&run.config, capture);
    layers::check_replay("devices", devices.mismatches, devices.ios)?;
    let dev = |origin| devices.origin_s(origin);
    let counts = &run.counts;
    let submit_ios: u64 = capture
        .submits
        .iter()
        .map(|s| (s.io_end - s.io_start) as u64)
        .sum();

    let split = if splittable(workload) {
        let calls = capture.submits.len() as u64;
        let monitor = layers::replay_monitor(&run.config, &capture.submits)?;
        layers::check_replay("monitor", monitor.mismatches, calls)?;
        let policy = layers::replay_policy(&run.config, &capture.submits)?;
        layers::check_replay("cache policy", policy.mismatches, calls)?;
        let redirector = layers::replay_redirector(&run.config, capture)?;
        layers::check_replay("redirector", redirector.mismatches, calls)?;
        if redirector.work != submit_ios {
            return Err(format!(
                "redirector planned {} I/Os, the array issued {submit_ios}",
                redirector.work
            ));
        }
        Some((monitor, policy, redirector))
    } else {
        None
    };

    let stats = run.monitor;
    let accesses = stats.map_or(0, |m| m.read_accesses + m.write_accesses);
    let (monitor, policy, redirector) = split.unwrap_or_default();
    if split.is_some() && monitor.work != accesses {
        return Err(format!(
            "monitor replay made {} accesses, the array's monitor {accesses}",
            monitor.work
        ));
    }
    let ControlReplay {
        secs: plan_s,
        work: planned,
        ..
    } = redirector;
    let ratio = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let span_total: f64 = run.span_s.iter().sum();
    let unattributed = run.wall_s - span_total;
    let evictions = stats.map_or(0, |m| m.read_evictions + m.write_evictions);
    let hits = stats.map_or(0, |m| m.read_hits + m.write_hits);

    Ok(vec![
        (
            "setup.trace_gen_s",
            median(&setups.iter().map(|s| s.trace_gen_s).collect::<Vec<_>>()),
        ),
        (
            "setup.analyze_s",
            median(&setups.iter().map(|s| s.analyze_s).collect::<Vec<_>>()),
        ),
        ("build.self_s", run.span(Span::Build)),
        ("mapping.self_s", run.span(Span::Mapping)),
        ("mapping.ranges", counts.ranges as f64),
        (
            "submit.self_s",
            run.span(Span::Submit) - plan_s - dev(Origin::Submit),
        ),
        ("submit.calls", counts.submit_calls as f64),
        ("monitor.self_s", monitor.secs - policy.secs),
        ("monitor.accesses", accesses as f64),
        (
            "monitor.ns_per_access",
            ratio(monitor.secs * 1e9, monitor.work),
        ),
        ("monitor.hit_ratio", ratio(hits as f64, accesses)),
        ("monitor.evictions", evictions as f64),
        ("cache_policy.self_s", policy.secs),
        ("cache_policy.accesses", accesses as f64),
        ("redirector.self_s", plan_s - monitor.secs),
        (
            "redirector.planned_ios",
            if split.is_some() { planned } else { submit_ios } as f64,
        ),
        ("devices.self_s", devices.total_s()),
        ("devices.ios", devices.ios as f64),
        (
            "devices.ns_per_io",
            ratio(devices.total_s() * 1e9, devices.ios),
        ),
        (
            "devices.mean_queue_depth",
            ratio(devices.queue_depth_sum as f64, devices.ios),
        ),
        ("pump.self_s", run.span(Span::Pump) - dev(Origin::Pump)),
        ("pump.due_checks", counts.due_checks as f64),
        ("pump.calls", counts.pump_calls as f64),
        (
            "pump.useful_frac",
            ratio(counts.useful_pumps as f64, counts.pump_calls),
        ),
        ("pump.ios", counts.pump_ios as f64),
        ("pump.blocks", counts.pump_blocks as f64),
        (
            "events.self_s",
            run.span(Span::Events) - dev(Origin::Events),
        ),
        ("events.applied", counts.events_applied as f64),
        ("qos.self_s", run.span(Span::Qos)),
        ("qos.evaluations", counts.qos_evaluations as f64),
        ("qos.retargets", counts.qos_retargets as f64),
        (
            "qos.window_samples_mean",
            ratio(counts.qos_window_samples as f64, counts.qos_evaluations),
        ),
        ("metrics.self_s", run.span(Span::Metrics)),
        ("metrics.device_events", counts.metrics_device_events as f64),
        ("drain.self_s", run.span(Span::Drain) - dev(Origin::Drain)),
        ("drain.pumps", counts.drain_pumps as f64),
        ("replay.traced_s", run.wall_s),
        ("replay.untraced_s", untraced_s),
        ("unattributed_s", unattributed),
        ("unattributed_frac", unattributed / run.wall_s),
        ("trace_overhead_frac", run.wall_s / untraced_s - 1.0),
    ])
}

/// Layer-level bypass assertions of a traced pass: every broken
/// expectation.
pub fn layer_bypass_failures(workload: Workload, run: &Traced) -> Vec<String> {
    let counts = &run.counts;
    let mut failures = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            failures.push(format!("{}: expected {what}", workload.name()));
        }
    };
    match workload {
        Workload::SteadyWdev => {
            expect(counts.pump_calls == 0, "pump.calls == 0");
            expect(counts.qos_evaluations == 0, "qos.evaluations == 0");
        }
        Workload::UpgradeQosDeasna => {
            expect(counts.qos_retargets > 0, "qos.retargets > 0");
            expect(counts.pump_calls > 0, "pump.calls > 0");
        }
        Workload::RestripeRaid5Proj => {
            expect(run.monitor.is_none(), "monitor.accesses == 0");
            expect(counts.pump_calls > 0, "pump.calls > 0");
        }
    }
    failures
}

fn traced(settings: &Settings, result: &mut RunResult) -> Result<(), String> {
    let workload = settings.workload;
    let scenario = workload.scenario(settings.seed, settings.shrink);
    let (trace, setups) = endtoend::set_up(&scenario, 3)?;

    let budget = Duration::from_secs_f64(settings.seconds);
    let started = Instant::now();
    let mut passes: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut digest = 0;
    while passes.is_empty() || started.elapsed() < budget {
        let untraced = endtoend::replay_untraced(&scenario, &trace)?;
        result.attempted += untraced.report.requests;
        check_records(&untraced.report, trace.len(), "the untraced replay")?;
        gate(workloads::report_bypass_failures(
            workload,
            &untraced.report,
        ))?;

        let run = traced::traced_run(&scenario, &trace)?;
        result.attempted += run.counts.records;
        endtoend::check_identical("the traced run's", &untraced.json, &run.report.to_json())?;
        if run.counts.records != trace.len() as u64 {
            return Err(format!(
                "the traced run replayed {} records, the trace has {}",
                run.counts.records,
                trace.len()
            ));
        }
        gate(layer_bypass_failures(workload, &run))?;
        passes.push(layer_values(workload, &setups, untraced.secs, &run)?);
        digest = stats::digest(&untraced.json);
    }

    result.metrics = metrics::PER_LAYER
        .iter()
        .map(|def| {
            let values: Vec<f64> = passes
                .iter()
                .map(|pass| {
                    pass.iter()
                        .find(|(name, _)| *name == def.name)
                        .map(|&(_, v)| v)
                        .expect("every pass reports every per-layer metric")
                })
                .collect();
            (def.name, median(&values))
        })
        .collect();

    let value = |name: &str| {
        result
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let wall = value("replay.traced_s");
    let lines = &mut result.lines;
    lines.push(format!(
        "report digest {digest:016x}; the traced run reproduced it byte for byte in each of {} \
         passes, and every layer replay reproduced its capture",
        passes.len()
    ));
    if workload.is_craid() && !splittable(workload) {
        lines.push(
            "submit is not split on this workload: its monitor, cache-policy and redirector \
             time stays inside submit.self_s (the events change their state in ways only the \
             array sees), and only the devices replay is subtracted from it"
                .into(),
        );
    } else if !workload.is_craid() {
        lines.push(
            "no monitor or cache partition on this workload: the RAID planner's time stays \
             inside submit.self_s, and only the devices replay is subtracted from it"
                .into(),
        );
    }
    lines.push(format!(
        "per-layer metrics (traced, median of {} passes; share of traced replay {wall:.3} s):",
        passes.len()
    ));
    for &(name, v) in &result.metrics {
        let def = metrics::find(name).expect("per-layer metrics are defined");
        let share = if def.unit == "s" && name.ends_with("self_s") || name == "unattributed_s" {
            format!("{:>6.1}%", 100.0 * v / wall)
        } else {
            String::new()
        };
        lines.push(format!("  {name:<26} {v:>16.4} {:<6} {share}", def.unit));
    }
    result.correct = true;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_run_publishes_no_metrics_and_fails_every_record() {
        let mut result = RunResult {
            correct: true,
            attempted: 10,
            metrics: vec![("records_per_s", 1.0)],
            ..RunResult::default()
        };
        assert!(result.json_line().contains("\"records_per_s\""));
        result.refuse("injected");
        assert_eq!(
            result.json_line(),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 10, \"metrics\": {}}"
        );
        assert_eq!(result.lines, ["REFUSED: injected"]);
    }

    #[test]
    fn printed_only_metrics_are_undefined_where_the_workload_has_no_such_thing() {
        let report = SimulationReport::default();
        let values = printed_only_metrics(&report);
        let names: Vec<&str> = values.iter().map(|&(n, _)| n).collect();
        let expected: Vec<&str> = metrics::PRINTED_ONLY.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        assert_eq!(values[2], ("failed_frac", Some(0.0)));
        assert!(values[3..].iter().all(|(_, v)| v.is_none()));
    }
}
