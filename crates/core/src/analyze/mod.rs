//! Pre-run static analysis of scenarios and array configurations.
//!
//! The simulator's misconfigurations used to surface in one of two bad
//! ways: as a first-error-wins [`CraidError`] string once the run had
//! already started, or — for impossible *timelines* — as a mid-run event
//! failure after minutes of replay. This module analyses a scenario
//! **before any simulated I/O happens**, as a pure function of the spec
//! and its event schedule, and reports every finding as a structured
//! [`Diagnostic`] with a stable machine-readable code.
//!
//! Three passes run, in order:
//!
//! 1. **Scenario-surface checks** ([`check_surface`]): the scenario's own
//!    knobs (`pc_fraction`, request counts, phase-swap sources). Findings
//!    here stop the analysis, because the later passes resolve the
//!    workload from these knobs.
//! 2. **Configuration rules** ([`graph::check_config`]): the resolved
//!    [`ArrayConfig`](crate::ArrayConfig)'s capacity arithmetic,
//!    parity-group divisibility, cache-partition binding, fair-share
//!    weights, QoS ranges and maintenance-rate sanity.
//! 3. **Symbolic timeline interpretation** ([`timeline`]): the
//!    [`ScheduledEvent`] schedule is abstractly replayed over per-disk
//!    state machines (healthy / failed / rebuilding), expansion
//!    generations and the activation policy — catching repairs of
//!    healthy disks, double failures under the single-fault model,
//!    expansions that shrink or break the array, events beyond the reach
//!    of the workload, and `wait-for-repair` activations that can
//!    provably never fire.
//!
//! Beyond the static passes, [`explore`] *dynamically* model-checks the
//! scheduler's decision space on a small-scope projection of the
//! scenario, judging every interleaving against the [`oracle`] invariant
//! library and folding violations into the same [`Analysis`] as
//! `CRAID-E4xx` diagnostics.
//!
//! Every diagnostic code is stable and documented in [`codes`]; golden
//! tests pin the `examples/scenarios/invalid/` corpus to its codes.
//!
//! ```
//! use craid::Scenario;
//!
//! let analysis = Scenario::builder().requests(400).small_test().build().analyze();
//! assert!(analysis.is_clean());
//! ```

pub mod explore;
pub mod graph;
pub mod oracle;
pub mod timeline;

use std::fmt;

use craid_trace::SyntheticWorkload;

use crate::error::CraidError;
use crate::scenario::{Scenario, ScheduledEvent};

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but runnable: the run proceeds, probably not as the
    /// author intended.
    Warning,
    /// Impossible: the run would be rejected (or silently wrong).
    Error,
}

impl Severity {
    /// The lowercase label used when rendering.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured finding of the static analyser.
///
/// Renders as `error[CRAID-E102] array.parity_group: <message>`; the
/// `code` is stable across releases, the `path` names the offending
/// field in scenario-file notation (`array.qos.floor`, `events[2].disk`)
/// and `help` suggests the fix.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`CRAID-Exxx` / `CRAID-Wxxx`).
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Scenario-file path of the offending field.
    pub path: String,
    /// Human-readable description of the problem.
    pub message: String,
    /// A suggested fix, when one is obvious.
    pub help: Option<String>,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(code: &'static str, path: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            path: path.into(),
            message: message.into(),
            help: None,
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(
        code: &'static str,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            path: path.into(),
            message: message.into(),
            help: None,
        }
    }

    /// Attaches a suggested fix.
    #[must_use]
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// True for error severity.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.path, self.message
        )
    }
}

/// The result of analysing a scenario or configuration: every finding,
/// in pass order (scenario surface, then configuration rules, then
/// timeline).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Analysis {
    /// Every diagnostic the passes emitted.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_error())
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.is_error())
    }

    /// True when any error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// True when there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// All codes, in emission order (golden tests pin these).
    pub fn codes(&self) -> Vec<&'static str> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Converts the analysis into a result: `Err` on the first
    /// error-severity finding (warn-by-default — warnings pass).
    ///
    /// # Errors
    ///
    /// Returns [`CraidError::InvalidConfig`] for configuration findings
    /// and [`CraidError::InvalidSchedule`] for timeline (`CRAID-E2xx`)
    /// findings.
    pub fn into_result(self) -> Result<(), CraidError> {
        match self.diagnostics.into_iter().find(|d| d.is_error()) {
            Some(d) => Err(CraidError::from_diagnostic(d)),
            None => Ok(()),
        }
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
            if let Some(help) = &d.help {
                writeln!(f, "  help: {help}")?;
            }
        }
        Ok(())
    }
}

/// The stable diagnostic codes, grouped by pass.
///
/// `CRAID-E1xx` are configuration errors, `CRAID-E2xx` timeline errors,
/// `CRAID-W3xx` timeline warnings. Codes never change meaning; retired
/// codes are not reused.
///
/// Retired: `CRAID-E100` (a strategy given to the wrong array type; one
/// array type now serves every strategy).
pub mod codes {
    /// Fewer than 2 mechanical disks.
    pub const TOO_FEW_DISKS: &str = "CRAID-E101";
    /// Parity-group width < 2 or not dividing the disk count.
    pub const PARITY_GROUP: &str = "CRAID-E102";
    /// Zero stripe unit.
    pub const STRIPE_UNIT: &str = "CRAID-E103";
    /// Empty dataset.
    pub const EMPTY_DATASET: &str = "CRAID-E104";
    /// CRAID strategy with an empty cache partition.
    pub const EMPTY_CACHE_PARTITION: &str = "CRAID-E105";
    /// SSD cache tier with fewer than 2 devices.
    pub const SSD_TIER_TOO_SMALL: &str = "CRAID-E106";
    /// Aggregated archive with no RAID sets.
    pub const NO_EXPANSION_SETS: &str = "CRAID-E107";
    /// Aggregation schedule not summing to the disk count.
    pub const EXPANSION_SETS_SUM: &str = "CRAID-E108";
    /// An aggregation set with fewer than 2 disks.
    pub const EXPANSION_SET_TOO_SMALL: &str = "CRAID-E109";
    /// Disks smaller than one stripe unit.
    pub const DISK_TOO_SMALL: &str = "CRAID-E110";
    /// Non-finite or non-positive rebuild rate.
    pub const REBUILD_RATE: &str = "CRAID-E111";
    /// Non-finite or non-positive fair-share weight.
    pub const SHARE_WEIGHT: &str = "CRAID-E112";
    /// Invalid migration rate (zero, negative or NaN).
    pub const MIGRATION_RATE: &str = "CRAID-E113";
    /// Dataset larger than the archive partition.
    pub const DATASET_DOES_NOT_FIT: &str = "CRAID-E114";
    /// QoS SLO without any target.
    pub const QOS_NO_TARGET: &str = "CRAID-E115";
    /// Invalid QoS latency target.
    pub const QOS_LATENCY_TARGET: &str = "CRAID-E116";
    /// QoS percentile outside [0, 1].
    pub const QOS_PERCENTILE: &str = "CRAID-E117";
    /// Invalid QoS queue-depth target.
    pub const QOS_QUEUE_DEPTH: &str = "CRAID-E118";
    /// QoS maintenance floor outside (0, 1].
    pub const QOS_FLOOR: &str = "CRAID-E119";
    /// Invalid QoS observation window.
    pub const QOS_WINDOW: &str = "CRAID-E120";
    /// Invalid QoS additive-increase gain.
    pub const QOS_INCREASE_GAIN: &str = "CRAID-E121";
    /// QoS multiplicative-decrease factor outside (0, 1).
    pub const QOS_DECREASE_FACTOR: &str = "CRAID-E122";
    /// Non-finite or non-positive cache-partition fraction.
    pub const PC_FRACTION: &str = "CRAID-E130";
    /// A workload source with zero requests.
    pub const EMPTY_WORKLOAD: &str = "CRAID-E131";

    /// Repair of a disk that is not failed.
    pub const REPAIR_WITHOUT_FAILURE: &str = "CRAID-E201";
    /// Second failure while the array is already degraded.
    pub const DOUBLE_FAILURE: &str = "CRAID-E202";
    /// Failure/repair of a disk index the array can never have.
    pub const NO_SUCH_DISK: &str = "CRAID-E203";
    /// A `wait-for-repair` activation that provably never fires.
    pub const UNREACHABLE_ACTIVATION: &str = "CRAID-E204";
    /// An expansion adding zero disks.
    pub const EXPAND_ADDS_NOTHING: &str = "CRAID-E205";
    /// An expansion while a disk is failed.
    pub const EXPAND_ON_FAILED_ARRAY: &str = "CRAID-E206";
    /// An expansion breaking the parity-group divisibility.
    pub const EXPAND_BREAKS_PARITY: &str = "CRAID-E207";
    /// An aggregated expansion adding fewer than 2 disks.
    pub const EXPAND_SET_TOO_SMALL: &str = "CRAID-E208";

    /// An event scheduled beyond the end of the replay.
    pub const EVENT_BEYOND_REPLAY: &str = "CRAID-W301";
    /// A failure of a disk whose expansion may still be deferred.
    pub const DISK_MAY_NOT_EXIST_YET: &str = "CRAID-W302";
    /// A `wait-for-repair` activation that may never fire.
    pub const ACTIVATION_MAY_STALL: &str = "CRAID-W303";
    /// An exact duplicate event at the same timestamp.
    pub const DUPLICATE_EVENT: &str = "CRAID-W304";
    /// Conflicting policy switches at the same instant.
    pub const CONFLICTING_POLICY_SWITCH: &str = "CRAID-W305";

    // `CRAID-E4xx` are dynamic invariant violations found by the
    // small-scope model checker ([`super::explore`]): a scheduler
    // interleaving under which a run of the *real* engine broke one of
    // the [`super::oracle`] invariants (or panicked).

    /// An explored branch panicked inside the engine.
    pub const EXPLORE_PANIC: &str = "CRAID-E400";
    /// A block was pending migration and cache-resident at once.
    pub const EXACTLY_ONE_LOCATION: &str = "CRAID-E401";
    /// A move set's block accounting did not balance.
    pub const BLOCK_CONSERVATION: &str = "CRAID-E402";
    /// A fair-share poll violated its budget arithmetic.
    pub const FAIR_SHARE_BUDGET: &str = "CRAID-E403";
    /// A migration task consumed a map entry of another generation.
    pub const GENERATION_MONOTONIC: &str = "CRAID-E404";
    /// An end-of-trace drain failed to terminate within its bound.
    pub const DRAIN_TERMINATES: &str = "CRAID-E405";
    /// A throttle retarget escaped the `[floor, 1.0]` clamp.
    pub const THROTTLE_CLAMP: &str = "CRAID-E406";
}

/// The scenario-surface checks: the knobs trace generation asserts on —
/// `pc_fraction` and the request count of the base workload and of every
/// phase-swap source. [`Scenario::validate`] returns the first finding, so
/// a run never generates a trace its inputs would panic on.
pub fn check_surface(scenario: &Scenario) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    let fraction = scenario.array.pc_fraction;
    if !fraction.is_finite() || fraction <= 0.0 {
        diagnostics.push(
            Diagnostic::error(
                codes::PC_FRACTION,
                "array.pc_fraction",
                format!("pc_fraction must be finite and positive, got {fraction}"),
            )
            .with_help("the paper sweeps fractions in (0, 1]; 0.1 is the usual starting point"),
        );
    }
    if scenario.workload.requests == 0 {
        diagnostics.push(
            Diagnostic::error(
                codes::EMPTY_WORKLOAD,
                "workload.requests",
                "workload needs at least one request",
            )
            .with_help("set requests to the scaled trace length (the drills use 400-5000)"),
        );
    }
    for (index, event) in scenario.events.iter().enumerate() {
        if let ScheduledEvent::WorkloadPhase {
            workload: Some(source),
            ..
        } = event
        {
            if source.requests == 0 {
                diagnostics.push(
                    Diagnostic::error(
                        codes::EMPTY_WORKLOAD,
                        format!("events[{index}].requests"),
                        "a phase-swap workload needs at least one request",
                    )
                    .with_help("the swapped-in segment is generated just like the base workload"),
                );
            }
        }
    }
    diagnostics
}

/// Analyses a scenario: the scenario-surface checks, then configuration
/// rules over the resolved config and symbolic timeline interpretation.
///
/// Pure: no trace is generated and no simulated I/O happens — the
/// workload footprint and duration are resolved from the scaling
/// formulas alone.
pub fn analyze_scenario(scenario: &Scenario) -> Analysis {
    // The later passes need the resolved config, which needs the
    // statically-scaled footprint; skip them when the surface checks
    // already failed (the scaling formulas assert on these inputs).
    let mut diagnostics = check_surface(scenario);
    if !diagnostics.is_empty() {
        return Analysis { diagnostics };
    }

    let footprint = scenario.static_footprint_blocks();
    // The runtime raises `dataset_blocks` to the composed trace's
    // footprint: the max over the base segment and every swapped-in
    // phase segment. Mirror that here so capacity findings match.
    let dataset = scenario
        .events
        .iter()
        .filter_map(|e| match e {
            ScheduledEvent::WorkloadPhase {
                workload: Some(source),
                ..
            } => Some(
                SyntheticWorkload::paper_scaled_to(source.id, source.requests)
                    .scaled_footprint_blocks(),
            ),
            ScheduledEvent::WorkloadPhase { workload: None, .. }
            | ScheduledEvent::Expand { .. }
            | ScheduledEvent::PolicySwitch { .. }
            | ScheduledEvent::DiskFailure { .. }
            | ScheduledEvent::DiskRepair { .. } => None,
        })
        .fold(footprint, u64::max);
    let mut config = scenario.array_config_for_footprint(footprint);
    config.dataset_blocks = config.dataset_blocks.max(dataset);

    diagnostics.extend(graph::check_config(&config));
    diagnostics.extend(timeline::check_schedule(
        &config,
        &scenario.events,
        Some(scenario.static_duration_secs()),
    ));
    Analysis { diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_render_with_code_path_and_severity() {
        let d = Diagnostic::error(codes::PARITY_GROUP, "array.parity_group", "does not divide")
            .with_help("pick a divisor");
        assert_eq!(
            d.to_string(),
            "error[CRAID-E102] array.parity_group: does not divide"
        );
        let w = Diagnostic::warning(codes::EVENT_BEYOND_REPLAY, "events[0]", "too late");
        assert!(w.to_string().starts_with("warning[CRAID-W301]"));
        assert!(!w.is_error());
    }

    #[test]
    fn analysis_partitions_and_converts() {
        let analysis = Analysis {
            diagnostics: vec![
                Diagnostic::warning(codes::EVENT_BEYOND_REPLAY, "events[0]", "late"),
                Diagnostic::error(codes::TOO_FEW_DISKS, "array.disks", "one disk"),
            ],
        };
        assert_eq!(analysis.errors().count(), 1);
        assert_eq!(analysis.warnings().count(), 1);
        assert!(analysis.has_errors());
        assert!(!analysis.is_clean());
        assert_eq!(
            analysis.codes(),
            vec![codes::EVENT_BEYOND_REPLAY, codes::TOO_FEW_DISKS]
        );
        let err = analysis.into_result().unwrap_err();
        assert!(err.to_string().contains("CRAID-E101"));

        assert!(Analysis::default().into_result().is_ok());
    }

    #[test]
    fn default_builder_scenario_is_clean() {
        let analysis = analyze_scenario(&Scenario::builder().build());
        assert!(analysis.is_clean(), "{analysis}");
    }

    #[test]
    fn scenario_surface_errors_short_circuit() {
        let mut s = Scenario::builder().build();
        s.workload.requests = 0;
        s.array.pc_fraction = -1.0;
        let analysis = analyze_scenario(&s);
        assert_eq!(
            analysis.codes(),
            vec![codes::PC_FRACTION, codes::EMPTY_WORKLOAD]
        );
    }

    #[test]
    fn validate_refuses_with_the_first_surface_finding() {
        let mut s = Scenario::builder().build();
        assert!(s.validate().is_ok());
        s.workload.requests = 0;
        s.array.pc_fraction = f64::NAN;
        let first = check_surface(&s).remove(0);
        assert_eq!(first.code, codes::PC_FRACTION);
        match s.validate() {
            Err(CraidError::InvalidConfig(d)) => assert_eq!(d, first, "help included"),
            other => panic!("expected the pc_fraction finding, got {other:?}"),
        }
    }
}
