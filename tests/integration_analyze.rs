//! Integration tests for the `craid-analyze` static-analysis layer: golden
//! pins of the invalid-scenario corpus to their diagnostic codes, the
//! "every shipped drill analyzes clean" contract, diagnostic rendering,
//! and property tests that the analyzer is total (never panics) and sound
//! (scenarios it accepts survive engine setup).

use craid::analyze::codes;
use craid::{
    ActivationPolicy, ArrayPreset, ArraySpec, CraidArray, Scenario, ScheduledEvent, StrategyKind,
    WorkloadSource,
};
use craid_simkit::SimTime;
use craid_trace::WorkloadId;
use proptest::prelude::*;
use std::path::PathBuf;

/// The invalid corpus, each file pinned to the stable code that rejects it.
/// `include_str!` makes the pin break loudly if a file is renamed.
const INVALID_CORPUS: &[(&str, &str, &str)] = &[
    (
        "bad_shares.toml",
        include_str!("../examples/scenarios/invalid/bad_shares.toml"),
        codes::SHARE_WEIGHT,
    ),
    (
        "double_failure.toml",
        include_str!("../examples/scenarios/invalid/double_failure.toml"),
        codes::DOUBLE_FAILURE,
    ),
    (
        "expand_breaks_parity.toml",
        include_str!("../examples/scenarios/invalid/expand_breaks_parity.toml"),
        codes::EXPAND_BREAKS_PARITY,
    ),
    (
        "parity_mismatch.toml",
        include_str!("../examples/scenarios/invalid/parity_mismatch.toml"),
        codes::PARITY_GROUP,
    ),
    (
        "qos_floor_above_one.toml",
        include_str!("../examples/scenarios/invalid/qos_floor_above_one.toml"),
        codes::QOS_FLOOR,
    ),
    (
        "repair_without_failure.toml",
        include_str!("../examples/scenarios/invalid/repair_without_failure.toml"),
        codes::REPAIR_WITHOUT_FAILURE,
    ),
    (
        "shrink_expand.toml",
        include_str!("../examples/scenarios/invalid/shrink_expand.toml"),
        codes::EXPAND_ADDS_NOTHING,
    ),
    (
        "unreachable_wait_for_repair.toml",
        include_str!("../examples/scenarios/invalid/unreachable_wait_for_repair.toml"),
        codes::UNREACHABLE_ACTIVATION,
    ),
];

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios")
}

/// Golden pins: every corpus file parses as a scenario (the TOML itself is
/// well-formed — only the *semantics* are wrong) and analysis rejects it
/// with exactly its documented code.
#[test]
fn invalid_corpus_is_rejected_with_stable_codes() {
    for (name, text, expected) in INVALID_CORPUS {
        let scenario = Scenario::from_toml(text)
            .unwrap_or_else(|err| panic!("{name} must parse as TOML: {err}"));
        let analysis = scenario.analyze();
        assert!(
            analysis.has_errors(),
            "{name} must analyze with errors, got: {analysis}"
        );
        assert!(
            analysis.codes().contains(expected),
            "{name} must be rejected with {expected}, got codes {:?}",
            analysis.codes()
        );
    }
}

/// `Scenario::load` refuses the corpus files and surfaces the same code
/// through `CraidError`, so callers that never look at an `Analysis` still
/// see the stable identifier.
#[test]
fn load_surfaces_the_diagnostic_code() {
    for (name, _, expected) in INVALID_CORPUS {
        let path = scenarios_dir().join("invalid").join(name);
        let err = Scenario::load(&path)
            .map(|_| ())
            .expect_err("an invalid corpus file must not load");
        let diag = err
            .diagnostic()
            .unwrap_or_else(|| panic!("{name}: load error must carry a diagnostic, got {err}"));
        assert_eq!(diag.code, *expected, "{name}: wrong code in {err}");
    }
}

/// The shipped drills are the positive half of the corpus: every TOML in
/// `examples/scenarios/` loads and analyzes with zero diagnostics — not
/// even warnings.
#[test]
fn shipped_drills_analyze_clean() {
    let mut checked = 0;
    for entry in std::fs::read_dir(scenarios_dir()).expect("scenarios dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().map(|e| e == "toml") != Some(true) {
            continue;
        }
        let scenario = Scenario::load(&path)
            .unwrap_or_else(|err| panic!("{} must load: {err}", path.display()));
        let analysis = scenario.analyze();
        assert!(
            analysis.is_clean(),
            "{} must analyze clean, got: {analysis}",
            path.display()
        );
        checked += 1;
    }
    assert!(checked >= 4, "expected at least the four shipped drills");
}

/// Diagnostic rendering is part of the stable surface: `--check` output and
/// golden CI greps both match on it.
#[test]
fn diagnostics_render_with_code_path_and_help() {
    let (_, text, _) = INVALID_CORPUS
        .iter()
        .find(|(name, _, _)| *name == "repair_without_failure.toml")
        .expect("corpus entry exists");
    let analysis = Scenario::from_toml(text).unwrap().analyze();
    let rendered = analysis.to_string();
    assert!(
        rendered.contains("error[CRAID-E201] events[0].disk:"),
        "rendering must lead with severity, code and path, got: {rendered}"
    );
    assert!(
        rendered.contains("help:"),
        "E201 ships a help line, got: {rendered}"
    );
}

/// Builds a scenario from plain integers so property tests can sweep the
/// whole (mostly nonsensical) input space.
fn scenario_from_raw(
    shape: (u32, usize, u32, u64),
    knobs: (u32, u32, u32, bool),
    raw_events: &[(u8, u64, usize, usize)],
) -> Scenario {
    let (strategy_sel, disks, pc_twentieths, requests) = shape;
    let (share_sel, rate_sel, workload_sel, wait_for_repair) = knobs;
    let strategy = [
        StrategyKind::Raid5,
        StrategyKind::Raid5Plus,
        StrategyKind::Craid5,
        StrategyKind::Craid5Plus,
        StrategyKind::Craid5Ssd,
        StrategyKind::Craid5PlusSsd,
    ][strategy_sel as usize % 6];
    let id =
        [WorkloadId::Wdev, WorkloadId::Webusers, WorkloadId::Cello99][workload_sel as usize % 3];
    let events = raw_events
        .iter()
        .map(|&(kind, at_centi, disk, added)| {
            let at = SimTime::from_secs(at_centi as f64 / 100.0);
            match kind % 4 {
                0 => ScheduledEvent::Expand {
                    at,
                    added_disks: added,
                },
                1 => ScheduledEvent::DiskFailure { at, disk },
                2 => ScheduledEvent::DiskRepair { at, disk },
                _ => ScheduledEvent::WorkloadPhase {
                    at,
                    label: "phase".to_string(),
                    workload: None,
                },
            }
        })
        .collect();
    Scenario {
        name: "prop".to_string(),
        strategy,
        workload: WorkloadSource {
            id,
            requests,
            seed: 14,
        },
        array: ArraySpec {
            preset: ArrayPreset::SmallTest,
            pc_fraction: pc_twentieths as f64 / 20.0,
            policy: None,
            disks: (disks > 0).then_some(disks),
            expansion_sets: None,
            stripe_unit: None,
            seed: None,
            rebuild_rate: None,
            migration_rate: [
                None,
                Some(0.0),
                Some(500.0),
                Some(f64::INFINITY),
                Some(-3.0),
            ][rate_sel as usize % 5],
            background_priority: None,
            rebuild_share: [None, Some(-1.0), Some(0.0), Some(1.0), Some(2.5)]
                [share_sel as usize % 5],
            migration_share: None,
            qos: None,
            activation: wait_for_repair.then_some(ActivationPolicy::WaitForRepair),
        },
        events,
        observers: Vec::new(),
    }
}

proptest! {
    /// The analyzer is total: arbitrary (including absurd) specs and
    /// schedules produce a rendered diagnostic list, never a panic.
    #[test]
    fn prop_analysis_never_panics(
        shape in (0u32..6, 0usize..20, 0u32..41, 0u64..3000),
        knobs in (0u32..5, 0u32..5, 0u32..3, any::<bool>()),
        raw_events in proptest::collection::vec((0u8..4, 0u64..20_000, 0usize..14, 0usize..7), 0..8),
    ) {
        let scenario = scenario_from_raw(shape, knobs, &raw_events);
        let analysis = scenario.analyze();
        // Rendering and the error/warning partitions must also be total.
        let _ = analysis.to_string();
        prop_assert_eq!(
            analysis.errors().count() + analysis.warnings().count(),
            analysis.diagnostics.len()
        );
    }

    /// Soundness: a scenario the analyzer passes without errors survives
    /// engine setup — the resolved config validates and the strategy's
    /// array constructs.
    #[test]
    fn prop_accepted_scenarios_survive_setup(
        shape in (0u32..6, 0usize..20, 1u32..41, 1u64..3000),
        knobs in (0u32..5, 0u32..5, 0u32..3, any::<bool>()),
        raw_events in proptest::collection::vec((0u8..4, 0u64..20_000, 0usize..14, 0usize..7), 0..8),
    ) {
        let scenario = scenario_from_raw(shape, knobs, &raw_events);
        let analysis = scenario.analyze();
        if analysis.has_errors() {
            return;
        }
        // No errors: the dataset is non-empty (E131 would have fired), so
        // the static footprint is well-defined.
        let config = scenario.array_config_for_footprint(scenario.static_footprint_blocks());
        config.validate().expect("analyzer-clean configs validate");
        CraidArray::new(config).expect("analyzer-clean arrays construct");
    }
}
