//! Metric definitions: names, units, directions and regression bounds.
//!
//! One table drives the printed output, the JSON result line and the
//! generated `BENCHMARK.json`, so the three cannot drift apart.

use crate::workloads::Workload;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`, as `BENCHMARK.json` spells it.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit, as printed and published.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only; 0 for the
    /// others).
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// The published end-to-end metrics: measured with tracing off and nonzero
/// on every workload. Host metrics are what a simulator user pays; the
/// `sim_*` metrics are the model's outputs, which repeat exactly for a seed.
pub const END_TO_END: &[MetricDef] = &[
    def("records_per_s", "rec/s", Higher, 0.25),
    def("device_ios_per_s", "io/s", Higher, 0.25),
    def("setup_s", "s", Lower, 0.25),
    def("peak_rss_mib", "MiB", Lower, 0.15),
    def("read_mean_ms", "sim_ms", Lower, 0.15),
    def("read_p999_ms", "sim_ms", Lower, 0.25),
    def("write_mean_ms", "sim_ms", Lower, 0.15),
    def("write_p999_ms", "sim_ms", Lower, 0.25),
];

/// End-to-end metrics that are printed on every run but not published in
/// `BENCHMARK.json`. The medians are quantised by the disk model: on
/// `upgrade_qos_deasna` both read the same on every seed, so the published
/// centre is the mean. Each of the others is zero or undefined on at least
/// one workload (no failures, no cache partition, no upgrade, no rebuild or
/// no QoS), and a published metric must never be zero. Failures still reach
/// the result line through its `failed` and `attempted` counts.
pub const PRINTED_ONLY: &[MetricDef] = &[
    def("read_p50_ms", "sim_ms", Lower, 0.0),
    def("write_p50_ms", "sim_ms", Lower, 0.0),
    def("failed_frac", "ratio", Lower, 0.0),
    def("pc_hit_ratio", "ratio", Higher, 0.0),
    def("upgrade_window_s", "sim_s", Lower, 0.0),
    def("mttr_s", "sim_s", Lower, 0.0),
    def("slo_violation_s", "sim_s", Lower, 0.0),
    def("maintenance_blocks_per_s", "sim_blk/s", Higher, 0.0),
];

/// The per-layer metrics of a traced run, named after the simulator's
/// modules. `self_s` is a layer's host time minus the time of the layers it
/// calls.
pub const PER_LAYER: &[MetricDef] = &[
    def("setup.trace_gen_s", "s", Lower, 0.0),
    def("setup.analyze_s", "s", Lower, 0.0),
    def("build.self_s", "s", Lower, 0.0),
    def("mapping.self_s", "s", Lower, 0.0),
    def("mapping.ranges", "count", Lower, 0.0),
    def("submit.self_s", "s", Lower, 0.0),
    def("submit.calls", "count", Lower, 0.0),
    def("monitor.self_s", "s", Lower, 0.0),
    def("monitor.accesses", "count", Lower, 0.0),
    def("monitor.ns_per_access", "ns", Lower, 0.0),
    def("monitor.hit_ratio", "ratio", Higher, 0.0),
    def("monitor.evictions", "count", Lower, 0.0),
    def("cache_policy.self_s", "s", Lower, 0.0),
    def("cache_policy.accesses", "count", Lower, 0.0),
    def("redirector.self_s", "s", Lower, 0.0),
    def("redirector.planned_ios", "count", Lower, 0.0),
    def("devices.self_s", "s", Lower, 0.0),
    def("devices.ios", "count", Lower, 0.0),
    def("devices.ns_per_io", "ns", Lower, 0.0),
    def("devices.mean_queue_depth", "count", Lower, 0.0),
    def("pump.self_s", "s", Lower, 0.0),
    def("pump.due_checks", "count", Lower, 0.0),
    def("pump.calls", "count", Lower, 0.0),
    def("pump.useful_frac", "ratio", Higher, 0.0),
    def("pump.ios", "count", Lower, 0.0),
    def("pump.blocks", "count", Lower, 0.0),
    def("events.self_s", "s", Lower, 0.0),
    def("events.applied", "count", Lower, 0.0),
    def("qos.self_s", "s", Lower, 0.0),
    def("qos.evaluations", "count", Lower, 0.0),
    def("qos.retargets", "count", Lower, 0.0),
    def("qos.window_samples_mean", "count", Lower, 0.0),
    def("metrics.self_s", "s", Lower, 0.0),
    def("metrics.device_events", "count", Lower, 0.0),
    def("drain.self_s", "s", Lower, 0.0),
    def("drain.pumps", "count", Lower, 0.0),
    def("replay.traced_s", "s", Lower, 0.0),
    def("replay.untraced_s", "s", Lower, 0.0),
    def("unattributed_s", "s", Lower, 0.0),
    def("unattributed_frac", "ratio", Lower, 0.0),
    def("trace_overhead_frac", "ratio", Lower, 0.0),
];

/// Looks a metric up in every table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PRINTED_ONLY)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

/// Seconds of measurement per run recorded in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

/// Directory holding the benchmark, relative to the repository root.
pub const BENCH_DIR: &str = "replaybench";

/// Renders `BENCHMARK.json` from the tables above.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"{BENCH_DIR}/Cargo.toml\", \"--\"],\n"
    ));
    out.push_str(&format!("  \"paths\": [\"{BENCH_DIR}\"],\n"));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    out.push_str(&e2e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END
            .iter()
            .chain(PRINTED_ONLY)
            .chain(PER_LAYER)
            .collect();
        for (i, m) in all.iter().enumerate() {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(
                all[i + 1..].iter().all(|o| o.name != m.name),
                "duplicate metric {}",
                m.name
            );
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }

    #[test]
    fn end_to_end_bounds_are_positive_and_setup_has_the_largest() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = find("setup_s").expect("setup_s is defined");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let checked_in = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        assert_eq!(
            checked_in,
            manifest_json(),
            "regenerate it with `--write-manifest BENCHMARK.json`"
        );
    }
}
