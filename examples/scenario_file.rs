//! Run an experiment declared in a TOML scenario file.
//!
//! Scenarios are plain data: the file names a strategy, a workload, an
//! array shape, and a timeline of scheduled events. This example loads
//! `examples/scenarios/upgrade_drill.toml` (or a path given as the first
//! argument), runs it, and prints the outcome.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example scenario_file [path/to/scenario.toml] [--json | --check [--deny]]
//! ```
//!
//! With `--json` the full `SimulationReport` is printed as JSON (and
//! nothing else), which makes the output byte-diffable: CI runs the
//! online-upgrade drill twice and diffs the two reports to pin scheduler
//! determinism.
//!
//! With `--trace-out=PATH` the run executes under a deterministic tracer
//! and the captured virtual-time trace is written to `PATH` —
//! `--trace-format=chrome` (default; Perfetto / `chrome://tracing`
//! loadable) or `--trace-format=jsonl`. The report (plain or `--json`)
//! then carries an `obs` snapshot reconciling span counts against the
//! metrics registry. Tracing is record-only: the simulated results are
//! bit-identical to an untraced run.
//!
//! With `--check` nothing runs at all: the static analyser is applied to
//! the scenario and every diagnostic is printed (stable code, field
//! path, help). The exit status is non-zero when any error-severity
//! finding exists — or, with `--deny` (the CI mode), when any finding
//! exists at all.
//!
//! With `--explore[=scope]` the small-scope model checker runs instead:
//! the scenario is projected down to a bounded geometry, every scheduler
//! decision point is enumerated, and each branch is judged against the
//! invariant oracle library. A violation prints its diagnostics plus the
//! minimized decision path, writes a reproducer TOML next to the
//! scenario, and exits non-zero. `scope` is `quick`, `default`, `wide`,
//! or comma-separated overrides like `requests=32,events=3`.
//!
//! Any other argument, or a second scenario path, is refused before the
//! scenario loads: the error names the argument and the exit status is
//! non-zero, so a mistyped flag never runs a different mode.

use craid::{ExploreScope, Scenario, ScenarioOutcome};

const DEFAULT_SCENARIO: &str = include_str!("scenarios/upgrade_drill.toml");

/// Runs the scenario, installing a tracer and writing the exported trace
/// to `trace_out` when one was requested. Prints nothing either way, so
/// the `--json` output stays byte-diffable.
fn run_maybe_traced(
    scenario: &Scenario,
    trace_out: Option<&str>,
    format: craid_obs::TraceFormat,
) -> Result<ScenarioOutcome, Box<dyn std::error::Error>> {
    match trace_out {
        Some(path) => {
            let (outcome, trace) = scenario.run_traced(craid_obs::DEFAULT_CAPACITY)?;
            std::fs::write(path, trace.export(format))?;
            Ok(outcome)
        }
        None => Ok(scenario.run()?),
    }
}

/// Splits the arguments into scenario paths and flags, or names the
/// argument that must be refused: one that is not a documented flag, or a
/// second scenario path.
fn split_args(args: impl Iterator<Item = String>) -> Result<(Vec<String>, Vec<String>), String> {
    let (paths, flags): (Vec<String>, Vec<String>) = args.partition(|a| !a.starts_with('-'));
    let known = |flag: &&String| {
        ["--json", "--check", "--deny", "--explore"].contains(&flag.as_str())
            || ["--explore=", "--trace-out=", "--trace-format="]
                .iter()
                .any(|prefix| flag.starts_with(prefix))
    };
    match (flags.iter().find(|f| !known(f)), paths.get(1)) {
        (Some(flag), _) => Err(format!("unknown argument '{flag}'")),
        (None, Some(path)) => Err(format!("unexpected second scenario path '{path}'")),
        (None, None) => Ok((paths, flags)),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (paths, flags) = split_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("scenario_file: {message}");
        eprintln!(
            "usage: scenario_file [path/to/scenario.toml] [--json] [--check [--deny]] \
             [--explore[=scope]] [--trace-out=PATH] [--trace-format=chrome|jsonl]"
        );
        std::process::exit(2);
    });
    let json_only = flags.iter().any(|f| f == "--json");
    let check_only = flags.iter().any(|f| f == "--check");
    let deny_warnings = flags.iter().any(|f| f == "--deny");
    let explore_scope = flags
        .iter()
        .find_map(|f| match f.strip_prefix("--explore") {
            Some("") => Some(ExploreScope::parse("default")),
            Some(rest) => rest.strip_prefix('=').map(ExploreScope::parse),
            None => None,
        })
        .transpose()
        .map_err(|e| format!("bad --explore scope: {e}"))?;
    let trace_out = flags
        .iter()
        .find_map(|f| f.strip_prefix("--trace-out=").map(str::to_string));
    let trace_format: craid_obs::TraceFormat = flags
        .iter()
        .find_map(|f| f.strip_prefix("--trace-format="))
        .map(str::parse)
        .transpose()
        .map_err(|e| format!("bad --trace-format: {e}"))?
        .unwrap_or_default();
    let text = match paths.first() {
        Some(path) => std::fs::read_to_string(path)?,
        None => DEFAULT_SCENARIO.to_string(),
    };
    let scenario = Scenario::from_toml(&text)?;
    if let Some(scope) = explore_scope {
        let exploration = scenario.explore(&scope);
        print!("{}", exploration.analysis);
        println!(
            "scenario '{}': explored {} run(s) ({} errored, {} pruned{})",
            scenario.name,
            exploration.runs,
            exploration.errored_runs,
            exploration.pruned,
            if exploration.truncated {
                ", truncated"
            } else {
                ""
            }
        );
        if let Some(counterexample) = &exploration.counterexample {
            println!(
                "counterexample ({}): path [{}]",
                counterexample.codes().join(", "),
                counterexample.path_string()
            );
            let reproducer = match paths.first() {
                Some(path) => std::path::Path::new(path).with_extension("counterexample.toml"),
                None => std::path::PathBuf::from("counterexample.toml"),
            };
            std::fs::write(&reproducer, counterexample.reproducer_toml()?)?;
            println!("reproducer written to {}", reproducer.display());
        }
        std::process::exit(if exploration.is_clean() { 0 } else { 1 });
    }
    if check_only {
        let analysis = scenario.analyze();
        print!("{analysis}");
        let errors = analysis.errors().count();
        let warnings = analysis.warnings().count();
        println!(
            "scenario '{}': {errors} error(s), {warnings} warning(s)",
            scenario.name
        );
        let failed = errors > 0 || (deny_warnings && warnings > 0);
        std::process::exit(if failed { 1 } else { 0 });
    }
    if json_only {
        let outcome = run_maybe_traced(&scenario, trace_out.as_deref(), trace_format)?;
        println!("{}", outcome.report.to_json());
        return Ok(());
    }
    println!(
        "scenario '{}': {} on {} ({} requests, seed {})",
        scenario.name,
        scenario.strategy,
        scenario.workload.id,
        scenario.workload.requests,
        scenario.workload.seed
    );
    println!("timeline:");
    for event in &scenario.events {
        println!("  t = {:>8.1}s  {}", event.at().as_secs(), event.describe());
    }

    let outcome = run_maybe_traced(&scenario, trace_out.as_deref(), trace_format)?;
    let report = &outcome.report;
    println!();
    println!("applied {} events:", outcome.applied_events.len());
    for applied in &outcome.applied_events {
        println!(
            "  t = {:>8.1}s  {}{}",
            applied.at.as_secs(),
            applied.description,
            if applied.during_replay {
                ""
            } else {
                "  (after the last request)"
            }
        );
    }
    for (i, upgrade) in outcome.expansions.iter().enumerate() {
        println!(
            "upgrade {}: +{} disks, migrated {} blocks, wrote back {}",
            i + 1,
            upgrade.added_disks,
            upgrade.migrated_blocks,
            upgrade.writeback_blocks
        );
    }
    if report.fault.any_faults() {
        println!(
            "faults: {} degraded reads ({} reconstruction I/Os), rebuilt {} blocks, MTTR {:.1}s",
            report.fault.degraded_reads,
            report.fault.reconstruction_ios,
            report.fault.rebuild_write_blocks,
            report.fault.mttr_secs()
        );
    }
    if report.migration.any_migrations() {
        println!(
            "online upgrade: {:.1}s window, {} blocks moved in the background \
             ({} superseded by client traffic, {} still pending at the end, \
             effective order {})",
            report.migration.migration_secs,
            report.migration.migrated_blocks,
            report.migration.superseded_blocks,
            report.migration.pending_blocks,
            report
                .migration
                .effective_priority
                .map(|p| p.name())
                .unwrap_or("n/a"),
        );
    }
    if report.migration.any_archive_restripes() {
        println!(
            "archive restripe: {:.1}s window, {} blocks reshaped \
             ({} superseded, {} still pending at the end)",
            report.migration.archive_restripe_secs,
            report.migration.archive_migrated_blocks,
            report.migration.archive_superseded_blocks,
            report.migration.archive_pending_blocks
        );
    }
    if report.qos.enabled {
        println!(
            "qos: {} decisions, {} throttle changes, {:.1}s in violation of the SLO, \
             {:.1}s at the floor / {:.1}s at full rate, effective maintenance \
             {:.0} blocks/s (final throttle {:.0}%)",
            report.qos.decisions,
            report.qos.throttle_changes,
            report.qos.slo_violation_secs,
            report.qos.time_at_floor_secs,
            report.qos.time_at_ceiling_secs,
            report.qos.effective_maintenance_rate,
            report.qos.final_scale * 100.0
        );
    }
    if report.background_drain_secs > 0.0 {
        println!(
            "end-of-trace drain: background work ran {:.1}s past the last request",
            report.background_drain_secs
        );
    }
    if let (Some(path), Some(obs)) = (trace_out.as_deref(), report.obs.as_ref()) {
        println!(
            "trace: {} events recorded ({} dropped) to {} ({trace_format})",
            obs.recorded, obs.dropped, path
        );
    }
    println!();
    println!(
        "read {:.2} ms / write {:.2} ms over {} requests; hit ratio {:.1}%",
        report.read.mean_ms,
        report.write.mean_ms,
        report.requests,
        report.craid.map(|c| c.hit_ratio * 100.0).unwrap_or(0.0)
    );
    println!();
    println!("The same scenario serializes back with `scenario.to_toml()`; edit the file,");
    println!("rerun, and the engine replays the identical workload against the new timeline.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::split_args;

    /// The refusal message for a space-separated command line, if any.
    fn refusal(line: &str) -> Option<String> {
        split_args(line.split_whitespace().map(str::to_string)).err()
    }

    #[test]
    fn documented_flags_and_one_path_are_accepted() {
        let line = "drill.toml --json --check --deny --explore --explore=quick \
                    --trace-out=t.json --trace-format=jsonl";
        assert_eq!(refusal(line), None);
    }

    #[test]
    fn a_misspelled_flag_is_refused() {
        let refused = refusal("drill.toml --chek --deny");
        assert_eq!(refused.unwrap(), "unknown argument '--chek'");
    }

    #[test]
    fn a_misspelled_option_with_a_value_is_refused() {
        let refused = refusal("--trace-fromat=jsonl");
        assert_eq!(refused.unwrap(), "unknown argument '--trace-fromat=jsonl'");
    }

    #[test]
    fn a_single_dash_argument_is_refused() {
        assert_eq!(refusal("-j").unwrap(), "unknown argument '-j'");
    }

    #[test]
    fn a_second_scenario_path_is_refused() {
        let refused = refusal("a.toml b.toml --check");
        assert_eq!(refused.unwrap(), "unexpected second scenario path 'b.toml'");
    }
}
