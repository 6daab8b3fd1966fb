//! Set-up and the untraced replay: what a simulator user sees and pays.
//!
//! Every replay goes through the public [`Scenario::run_on`] entry point on
//! one thread. A [`Tally`] observer counts the device I/Os delivered to the
//! metrics collector and keeps every response time (the report has no
//! p99.9); every replay of a run must reproduce the first one's report
//! byte for byte.

use std::time::Instant;

use craid::{NullObserver, Observer, RequestOutcome, Scenario, SimulationReport};
use craid_diskmodel::IoKind;
use craid_metrics::quantiles::Quantiles;
use craid_trace::{Trace, TraceRecord};

/// Host time of one scenario set-up, split into its two steps.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Static analysis of the scenario ([`Scenario::analyze`]).
    pub analyze_s: f64,
    /// Trace generation ([`Scenario::trace`]).
    pub trace_gen_s: f64,
}

impl SetupTime {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.analyze_s + self.trace_gen_s
    }
}

/// Sets the scenario up `reps` times (at least once) and returns the last
/// generated trace with the time of every repetition.
///
/// # Errors
///
/// Returns the analyser's findings if the scenario does not analyse clean.
pub fn set_up(scenario: &Scenario, reps: usize) -> Result<(Trace, Vec<SetupTime>), String> {
    let mut times = Vec::with_capacity(reps.max(1));
    let mut trace = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let analysis = scenario.analyze();
        let analyze_s = started.elapsed().as_secs_f64();
        analysis
            .into_result()
            .map_err(|e| format!("scenario does not analyse clean: {e}"))?;
        let started = Instant::now();
        let generated = std::hint::black_box(scenario.trace());
        let trace_gen_s = started.elapsed().as_secs_f64();
        times.push(SetupTime {
            analyze_s,
            trace_gen_s,
        });
        trace = Some(generated);
    }
    Ok((trace.expect("at least one set-up ran"), times))
}

/// An observer that counts what reaches the metrics collector: device I/Os
/// of every request and every client response time by kind.
#[derive(Debug, Default)]
pub struct Tally {
    /// Device I/Os delivered with client requests.
    pub device_ios: u64,
    /// Client read response times (ms, simulated).
    pub read_ms: Quantiles,
    /// Client write response times (ms, simulated).
    pub write_ms: Quantiles,
}

impl Observer for Tally {
    fn on_request(&mut self, record: &TraceRecord, outcome: &RequestOutcome) {
        self.device_ios += outcome
            .reports
            .iter()
            .map(|r| r.events.len() as u64)
            .sum::<u64>();
        match record.kind {
            IoKind::Read => self.read_ms.record(outcome.worst_ms),
            IoKind::Write => self.write_ms.record(outcome.worst_ms),
        }
    }
}

/// One untraced replay: the report, its serialized form and its host time.
#[derive(Debug)]
pub struct Replay {
    /// The run's report.
    pub report: SimulationReport,
    /// `report.to_json()`, the byte-identity reference.
    pub json: String,
    /// Host seconds the replay took.
    pub secs: f64,
}

/// Replays `trace` once through [`Scenario::run_on`] with `observer`.
///
/// # Errors
///
/// Returns the simulator's error as text.
pub fn replay(
    scenario: &Scenario,
    trace: &Trace,
    observer: &mut dyn Observer,
) -> Result<Replay, String> {
    let started = Instant::now();
    let outcome = scenario
        .run_on(trace, observer)
        .map_err(|e| format!("replay failed: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    let json = outcome.report.to_json();
    Ok(Replay {
        report: outcome.report,
        json,
        secs,
    })
}

/// Replays with [`NullObserver`].
///
/// # Errors
///
/// Returns the simulator's error as text.
pub fn replay_untraced(scenario: &Scenario, trace: &Trace) -> Result<Replay, String> {
    replay(scenario, trace, &mut NullObserver)
}

/// Checks that the tally saw exactly the responses the report summarises:
/// the same counts and the same medians and maxima.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn check_tally(tally: &mut Tally, report: &SimulationReport) -> Result<(), String> {
    for (kind, samples, summary) in [
        ("read", &mut tally.read_ms, &report.read),
        ("write", &mut tally.write_ms, &report.write),
    ] {
        let seen = (
            samples.count() as u64,
            samples.quantile(0.5).unwrap_or(0.0),
            samples.max().unwrap_or(0.0),
        );
        let reported = (summary.count, summary.p50_ms, summary.max_ms);
        if seen != reported {
            return Err(format!(
                "{kind} responses seen by the observer (count, p50, max) = {seen:?} differ from \
                 the report's {reported:?}"
            ));
        }
    }
    if tally.device_ios == 0 {
        return Err("no device I/O reached the metrics collector".into());
    }
    Ok(())
}

/// Checks that a replay reproduced the reference report byte for byte.
///
/// # Errors
///
/// Returns a description naming both digests.
pub fn check_identical(what: &str, reference: &str, json: &str) -> Result<(), String> {
    if reference == json {
        Ok(())
    } else {
        Err(format!(
            "{what} report (digest {:016x}) is not byte-identical to the reference (digest {:016x})",
            crate::stats::digest(json),
            crate::stats::digest(reference)
        ))
    }
}
