//! Integration tests for the deterministic tracing layer (`craid-obs`):
//! the golden event-count reconciliation between a Chrome trace export and
//! the report's `obs` snapshot, trace-twice byte-diff determinism for
//! every shipped drill, the pin that tracing-off reports stay
//! byte-identical to a build without tracing, and a full-size replay of
//! every shipped drill through each scenario entry point.

use craid::{NullObserver, Scenario};
use serde::Value;

/// Every drill shipped under `examples/scenarios/` as `(name, TOML)`, in
/// name order. Only the directory's own `*.toml` files count: the
/// `invalid/` fixtures are analyzer food, not runnable scenarios. A new
/// drill is pinned by every test here without being listed.
fn shipped_drills() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut drills: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable scenario dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .map(|path| {
            let name = path.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
            (name, text)
        })
        .collect();
    drills.sort();
    assert!(
        drills.len() >= 4,
        "expected the shipped drill set, found {} TOML file(s) in {}",
        drills.len(),
        dir.display()
    );
    drills
}

/// Loads a drill scaled down to `requests` with observers silenced, so
/// the tests stay fast and quiet without changing what they pin.
fn drill(text: &str, requests: u64) -> Scenario {
    let mut scenario = Scenario::from_toml(text).expect("shipped drill parses");
    scenario.workload.requests = requests;
    scenario.observers.clear();
    scenario
}

/// Counts the non-metadata `traceEvents` per category in a parsed Chrome
/// export. The five `ph == "M"` records are per-track `thread_name`
/// metadata, not trace events.
fn chrome_category_counts(root: &Value) -> std::collections::BTreeMap<String, u64> {
    let events = root
        .get("traceEvents")
        .and_then(Value::as_seq)
        .expect("chrome export has a traceEvents array");
    let mut counts = std::collections::BTreeMap::new();
    for event in events {
        let ph = event.get("ph").and_then(Value::as_str).expect("ph");
        if ph == "M" {
            continue;
        }
        let cat = event.get("cat").and_then(Value::as_str).expect("cat");
        *counts.entry(cat.to_string()).or_insert(0) += 1;
    }
    counts
}

/// Satellite: the golden event-count test. The QoS drill traced end to
/// end produces a Chrome export that parses as JSON, carries at least
/// four span categories, and reconciles event-for-event with the `obs`
/// snapshot embedded in the report — which itself reconciles with the
/// report's own request counter.
#[test]
fn qos_drill_chrome_trace_reconciles_with_the_report() {
    let (_, text) = shipped_drills()
        .into_iter()
        .find(|(name, _)| name == "qos_drill")
        .expect("qos_drill ships");
    let scenario = drill(&text, 4_000);
    let (outcome, trace) = scenario
        .run_traced(craid_obs::DEFAULT_CAPACITY)
        .expect("qos drill runs traced");
    let obs = outcome.report.obs.as_ref().expect("traced run embeds obs");
    assert_eq!(obs.dropped, 0, "the default ring holds the whole drill");
    assert_eq!(obs.events, obs.recorded);

    let chrome = trace.to_chrome_json();
    let root: Value = serde_json::from_str(&chrome).expect("chrome export parses as JSON");
    let counts = chrome_category_counts(&root);

    // Event-for-event reconciliation against the snapshot's ledger.
    let total: u64 = counts.values().sum();
    assert_eq!(total, obs.recorded);
    let spans: std::collections::BTreeMap<String, u64> =
        obs.spans.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(counts, spans, "per-category counts match the snapshot");
    assert!(
        counts.len() >= 4,
        "the QoS drill exercises at least four span categories, got {counts:?}"
    );

    // The snapshot's counters reconcile with both the spans and the
    // simulation report itself.
    let counters = &obs.metrics.counters;
    assert_eq!(counters.get("requests"), Some(&outcome.report.requests));
    assert_eq!(counters.get("requests"), spans.get("request"));
    assert_eq!(counters.get("qos.retargets"), spans.get("throttle"));
    assert_eq!(
        counters.get("background.completions"),
        spans.get("background")
    );
    assert_eq!(
        counters.get("cache.admissions").copied().unwrap_or(0)
            + counters.get("cache.evictions").copied().unwrap_or(0),
        spans.get("cache").copied().unwrap_or(0)
    );
    assert!(
        obs.metrics.histograms.contains_key("request.worst_ms"),
        "the request latency histogram is registered"
    );

    // The JSONL export covers the same events, one parseable line each.
    let jsonl = trace.to_jsonl();
    assert_eq!(jsonl.lines().count() as u64, obs.recorded);
    for line in jsonl.lines() {
        let event: Value = serde_json::from_str(line).expect("each JSONL line parses");
        assert!(event.get("at_ns").is_some());
    }
}

/// Satellite: trace-twice byte-diff. Every shipped drill, traced twice,
/// exports byte-identical Chrome and JSONL files and bit-identical
/// reports — virtual-time tracing has no nondeterministic inputs.
#[test]
fn every_shipped_drill_traces_byte_identically_twice() {
    for (name, text) in shipped_drills() {
        let scenario = drill(&text, 1_200);
        let (first, first_trace) = scenario
            .run_traced(craid_obs::DEFAULT_CAPACITY)
            .unwrap_or_else(|e| panic!("{name} runs traced: {e}"));
        let (second, second_trace) = scenario
            .run_traced(craid_obs::DEFAULT_CAPACITY)
            .unwrap_or_else(|e| panic!("{name} runs traced: {e}"));
        assert_eq!(
            first_trace.to_chrome_json(),
            second_trace.to_chrome_json(),
            "{name}: chrome exports must be byte-identical"
        );
        assert_eq!(
            first_trace.to_jsonl(),
            second_trace.to_jsonl(),
            "{name}: jsonl exports must be byte-identical"
        );
        assert_eq!(
            first.report.to_json(),
            second.report.to_json(),
            "{name}: traced reports must be byte-identical"
        );
    }
}

/// Satellite: the tracing-off pin. An untraced run's report JSON carries
/// no `obs` key at all (so its bytes match a build without the tracing
/// layer), repeats byte-identically, and — stripped of the snapshot — a
/// traced run produces the very same report: tracing records, it never
/// perturbs.
#[test]
fn tracing_off_reports_omit_obs_and_match_traced_results() {
    for (name, text) in shipped_drills() {
        let scenario = drill(&text, 1_200);
        let untraced = scenario
            .run()
            .unwrap_or_else(|e| panic!("{name} runs: {e}"));
        let untraced_json = untraced.report.to_json();
        assert!(
            !untraced_json.contains("\"obs\""),
            "{name}: untraced reports must omit the obs key entirely"
        );
        let again = scenario.run().unwrap();
        assert_eq!(
            untraced_json,
            again.report.to_json(),
            "{name}: untraced reports must be byte-identical across runs"
        );

        let (traced, _) = scenario.run_traced(craid_obs::DEFAULT_CAPACITY).unwrap();
        let mut stripped = traced.report.clone();
        stripped.obs = None;
        assert_eq!(
            untraced_json,
            stripped.to_json(),
            "{name}: tracing must not change a single reported byte"
        );
    }
}

/// Every shipped drill at its shipped size, as the TOML declares it: `run`,
/// `run_on` over a pre-generated trace and `run_traced` (its snapshot
/// stripped) produce the same report bytes. The tests above scale the
/// drills down; this one replays the schedules as shipped.
#[test]
fn every_shipped_drill_at_shipped_size_reports_identically_through_every_entry_point() {
    for (name, text) in shipped_drills() {
        let scenario = Scenario::from_toml(&text).unwrap_or_else(|e| panic!("parsing {name}: {e}"));
        let reference = scenario
            .run()
            .unwrap_or_else(|e| panic!("{name} runs: {e}"))
            .report
            .to_json();
        let on_trace = scenario
            .run_on(&scenario.trace(), &mut NullObserver)
            .unwrap_or_else(|e| panic!("{name} runs on its trace: {e}"))
            .report
            .to_json();
        assert_eq!(on_trace, reference, "{name}: run_on diverges from run");
        let (traced, _) = scenario
            .run_traced(craid_obs::DEFAULT_CAPACITY)
            .unwrap_or_else(|e| panic!("{name} runs traced: {e}"));
        let mut stripped = traced.report;
        stripped.obs = None;
        assert_eq!(
            stripped.to_json(),
            reference,
            "{name}: run_traced diverges from run"
        );
    }
}
