//! The benchmark's own tests: every workload at tiny scale, the metric
//! tables, and each correctness gate firing on an injected mismatch.

use replaybench::endtoend::{self, Tally};
use replaybench::layers::{self, check_replay};
use replaybench::metrics;
use replaybench::run::{self, Settings};
use replaybench::traced::{self, Traced};
use replaybench::workloads::{self, Workload};

/// Request-count divisor for the tiny-scale runs.
const SHRINK: u64 = 50;

fn tiny(workload: Workload) -> Settings {
    Settings {
        workload,
        seed: 3,
        seconds: 0.0,
        shrink: SHRINK,
    }
}

fn tiny_traced(workload: Workload) -> Traced {
    let scenario = workload.scenario(3, SHRINK);
    traced::traced_run(&scenario, &scenario.trace()).expect("tiny traced run")
}

fn published_names(result: &run::RunResult) -> Vec<&'static str> {
    result.metrics.iter().map(|&(name, _)| name).collect()
}

#[test]
fn every_workload_runs_untraced_with_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let result = run::run_end_to_end(&tiny(workload));
        assert!(result.correct, "{}: {:?}", workload.name(), result.lines);
        assert_eq!(result.failed, 0);
        assert!(result.attempted > 0);
        let expected: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(published_names(&result), expected);
        for &(name, value) in &result.metrics {
            assert!(value.is_finite() && value > 0.0, "{name} = {value}");
        }
        let line = result.json_line();
        assert!(line.starts_with("{\"correct\": true"), "{line}");
        assert!(line.contains("\"records_per_s\": {\"value\": "), "{line}");
        assert!(line.contains("\"unit\": \"rec/s\""), "{line}");
    }
}

#[test]
fn every_workload_runs_traced_with_every_per_layer_metric() {
    for workload in Workload::ALL {
        let result = run::run_traced(&tiny(workload));
        assert!(result.correct, "{}: {:?}", workload.name(), result.lines);
        let expected: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(published_names(&result), expected);
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .expect("metric present")
        };
        match workload {
            Workload::SteadyWdev => {
                assert_eq!(value("pump.calls"), 0.0);
                assert!(value("monitor.accesses") > 0.0);
            }
            Workload::UpgradeQosDeasna => assert!(value("qos.evaluations") > 0.0),
            Workload::RestripeRaid5Proj => assert_eq!(value("monitor.accesses"), 0.0),
        }
    }
}

#[test]
fn identity_gate_fires_on_a_changed_report() {
    assert!(endtoend::check_identical("x", "{\"a\":1}", "{\"a\":1}").is_ok());
    let err = endtoend::check_identical("x", "{\"a\":1}", "{\"a\":2}").unwrap_err();
    assert!(err.contains("not byte-identical"), "{err}");
}

#[test]
fn traced_report_is_byte_identical_and_the_gate_sees_a_change() {
    let scenario = Workload::SteadyWdev.scenario(3, SHRINK);
    let trace = scenario.trace();
    let untraced = endtoend::replay_untraced(&scenario, &trace).expect("replay");
    let mut run = traced::traced_run(&scenario, &trace).expect("traced run");
    assert_eq!(run.report.to_json(), untraced.json);
    run.report.read.p50_ms += 1.0;
    assert!(endtoend::check_identical("traced", &untraced.json, &run.report.to_json()).is_err());
}

#[test]
fn record_count_gate_fires_on_a_short_replay() {
    let scenario = Workload::SteadyWdev.scenario(3, SHRINK);
    let trace = scenario.trace();
    let replay = endtoend::replay_untraced(&scenario, &trace).expect("replay");
    assert!(run::check_records(&replay.report, trace.len(), "replay").is_ok());
    assert!(run::check_records(&replay.report, trace.len() + 1, "replay").is_err());
}

#[test]
fn response_gate_fires_when_the_tally_disagrees_with_the_report() {
    let scenario = Workload::SteadyWdev.scenario(3, SHRINK);
    let trace = scenario.trace();
    let mut tally = Tally::default();
    let replay = endtoend::replay(&scenario, &trace, &mut tally).expect("replay");
    assert!(endtoend::check_tally(&mut tally, &replay.report).is_ok());
    tally.read_ms.record(1.0e9);
    assert!(endtoend::check_tally(&mut tally, &replay.report).is_err());
}

#[test]
fn devices_replay_reproduces_and_catches_an_injected_finish_time() {
    for workload in Workload::ALL {
        let mut run = tiny_traced(workload);
        let clean = layers::replay_devices(&run.config, &run.capture);
        assert_eq!(clean.ios, run.capture.ios.len() as u64);
        assert!(check_replay("devices", clean.mismatches, clean.ios).is_ok());
        let last = run.capture.ios.len() - 1;
        run.capture.ios[last].finished += 1;
        let broken = layers::replay_devices(&run.config, &run.capture);
        assert!(check_replay("devices", broken.mismatches, broken.ios).is_err());
    }
}

#[test]
fn control_path_replays_reproduce_and_catch_injected_counts() {
    let mut run = tiny_traced(Workload::SteadyWdev);
    let calls = run.capture.submits.len() as u64;
    let monitor = layers::replay_monitor(&run.config, &run.capture.submits).expect("monitor");
    let policy = layers::replay_policy(&run.config, &run.capture.submits).expect("policy");
    let redirector = layers::replay_redirector(&run.config, &run.capture).expect("redirector");
    for (layer, replay) in [
        ("monitor", monitor),
        ("policy", policy),
        ("redirector", redirector),
    ] {
        assert!(
            check_replay(layer, replay.mismatches, calls).is_ok(),
            "{layer}"
        );
    }
    assert_eq!(monitor.hits, policy.hits);

    // A hit the monitor and the policy never produced.
    run.capture.submits[0].cache_hit_blocks += 1;
    let monitor = layers::replay_monitor(&run.config, &run.capture.submits).expect("monitor");
    assert!(check_replay("monitor", monitor.mismatches, calls).is_err());
    let policy = layers::replay_policy(&run.config, &run.capture.submits).expect("policy");
    assert!(check_replay("policy", policy.mismatches, calls).is_err());
    run.capture.submits[0].cache_hit_blocks -= 1;

    // A device I/O the planner never planned.
    let first = run.capture.submits[0].io_start;
    run.capture.ios[first].start += 1;
    let redirector = layers::replay_redirector(&run.config, &run.capture).expect("redirector");
    assert!(check_replay("redirector", redirector.mismatches, calls).is_err());
}

#[test]
fn control_path_replays_refuse_non_craid_arrays() {
    let run = tiny_traced(Workload::RestripeRaid5Proj);
    assert!(layers::replay_monitor(&run.config, &run.capture.submits).is_err());
}

#[test]
fn bypass_assertions_fire_when_a_workload_stops_exercising_its_layers() {
    let steady = tiny_traced(Workload::SteadyWdev);
    assert!(workloads::report_bypass_failures(Workload::SteadyWdev, &steady.report).is_empty());
    assert!(run::layer_bypass_failures(Workload::SteadyWdev, &steady).is_empty());
    // The steady workload's report read as the upgrade workload's: no
    // retargets, no degraded reads, nothing completed.
    let failures = workloads::report_bypass_failures(Workload::UpgradeQosDeasna, &steady.report);
    assert!(failures.len() >= 4, "{failures:?}");

    let mut pumped = steady;
    pumped.counts.pump_calls = 1;
    assert!(!run::layer_bypass_failures(Workload::SteadyWdev, &pumped).is_empty());

    let proj = tiny_traced(Workload::RestripeRaid5Proj);
    assert!(run::layer_bypass_failures(Workload::RestripeRaid5Proj, &proj).is_empty());
    let failures = workloads::report_bypass_failures(Workload::SteadyWdev, &proj.report);
    assert!(!failures.is_empty());
}
