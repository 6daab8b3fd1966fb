//! The unified metrics registry: named counters, gauges, and histograms
//! with deterministic (name-sorted) snapshots.

use std::collections::BTreeMap;

use craid_metrics::Quantiles;
use serde::{Deserialize, Serialize};

/// Counters, gauges, and histograms subsystems register into by name.
///
/// Names are `&'static str` so the hot path never allocates for a lookup;
/// snapshots convert them to owned strings sorted by `BTreeMap` order, so
/// two runs that record the same values snapshot to identical bytes
/// regardless of registration order.
///
/// ```
/// use craid_obs::MetricsRegistry;
///
/// let mut registry = MetricsRegistry::new();
/// registry.counter_add("cache.admissions", 3);
/// registry.gauge_set("throttle.scale", 0.25);
/// registry.histogram_record("latency_ms", 4.0);
/// registry.histogram_record("latency_ms", 8.0);
///
/// let snapshot = registry.snapshot();
/// assert_eq!(snapshot.counters["cache.admissions"], 3);
/// assert_eq!(snapshot.histograms["latency_ms"].count, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Quantiles>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (registering it at zero first).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Records one sample into the named histogram.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is not finite (the [`Quantiles`] contract).
    pub fn histogram_record(&mut self, name: &'static str, sample: f64) {
        self.histograms.entry(name).or_default().record(sample);
    }

    /// Snapshots every registered metric, sorted by name. Histograms are
    /// summarized (count / min / p50 / p95 / p99 / max) rather than dumped
    /// sample-by-sample.
    pub fn snapshot(&mut self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            histograms: self
                .histograms
                .iter_mut()
                .map(|(&k, q)| (k.to_string(), HistogramSnapshot::of(q)))
                .collect(),
        }
    }
}

/// A summarized histogram at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl HistogramSnapshot {
    fn of(quantiles: &mut Quantiles) -> Self {
        HistogramSnapshot {
            count: quantiles.count() as u64,
            min: quantiles.min().unwrap_or(0.0),
            p50: quantiles.quantile(0.5).unwrap_or(0.0),
            p95: quantiles.quantile(0.95).unwrap_or(0.0),
            p99: quantiles.quantile(0.99).unwrap_or(0.0),
            max: quantiles.max().unwrap_or(0.0),
        }
    }
}

/// The registry's serializable snapshot: every metric sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// The whole observability snapshot a traced run embeds into its
/// `SimulationReport`: the tracer's emission ledger plus the metrics
/// snapshot. The CI observability job reconciles `spans` against the
/// exported trace file's event counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Total events emitted, including any the ring dropped.
    pub events: u64,
    /// Events retained in the ring at the end of the run.
    pub recorded: u64,
    /// Events the ring evicted.
    pub dropped: u64,
    /// Emitted events per span category (categories with zero events are
    /// omitted).
    pub spans: BTreeMap<String, u64>,
    /// The metrics registry snapshot.
    pub metrics: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_sorted_and_registration_order_free() {
        let mut a = MetricsRegistry::new();
        a.counter_add("zeta", 1);
        a.counter_add("alpha", 2);
        a.histogram_record("lat", 5.0);
        a.histogram_record("lat", 1.0);
        a.gauge_set("g", 0.5);

        let mut b = MetricsRegistry::new();
        b.gauge_set("g", 0.5);
        b.histogram_record("lat", 1.0);
        b.histogram_record("lat", 5.0);
        b.counter_add("alpha", 2);
        b.counter_add("zeta", 1);

        let sa = a.snapshot();
        let sb = b.snapshot();
        assert_eq!(sa, sb);
        assert_eq!(
            serde_json::to_string(&sa).unwrap(),
            serde_json::to_string(&sb).unwrap(),
            "snapshots of the same values must serialize identically"
        );
        assert_eq!(
            sa.counters.keys().collect::<Vec<_>>(),
            vec!["alpha", "zeta"]
        );
    }

    #[test]
    fn histogram_summary_reports_quantiles() {
        let mut registry = MetricsRegistry::new();
        for i in 1..=100 {
            registry.histogram_record("lat", i as f64);
        }
        let snap = registry.snapshot();
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.p50, 50.0);
        assert_eq!(h.p95, 95.0);
        assert_eq!(h.p99, 99.0);
        assert_eq!(h.max, 100.0);
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut registry = MetricsRegistry::new();
        assert!(registry.counters.is_empty());
        registry.counter_add("hits", 1);
        registry.counter_add("hits", 4);
        assert_eq!(registry.counters["hits"], 5);
    }

    #[test]
    fn skip_serializing_if_omits_the_key_entirely() {
        // The report embeds `obs: Option<ObsSnapshot>` behind
        // `skip_serializing_if = "Option::is_none"`; byte-identity of
        // tracing-off reports depends on the None key vanishing (not
        // serializing as null).
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Wrapper {
            kept: u64,
            #[serde(skip_serializing_if = "Option::is_none")]
            obs: Option<ObsSnapshot>,
        }

        let off = Wrapper { kept: 7, obs: None };
        let json = serde_json::to_string(&off).unwrap();
        assert!(!json.contains("obs"), "None field must be omitted: {json}");
        let back: Wrapper = serde_json::from_str(&json).unwrap();
        assert_eq!(back, off);

        let on = Wrapper {
            kept: 7,
            obs: Some(ObsSnapshot::default()),
        };
        let json = serde_json::to_string(&on).unwrap();
        assert!(
            json.contains("\"obs\""),
            "Some field must serialize: {json}"
        );
        let back: Wrapper = serde_json::from_str(&json).unwrap();
        assert_eq!(back, on);
    }

    #[test]
    fn obs_snapshot_round_trips_through_json() {
        let mut registry = MetricsRegistry::new();
        registry.counter_add("requests", 9);
        let snapshot = ObsSnapshot {
            events: 12,
            recorded: 10,
            dropped: 2,
            spans: [("request".to_string(), 9u64)].into_iter().collect(),
            metrics: registry.snapshot(),
        };
        let json = serde_json::to_string_pretty(&snapshot).unwrap();
        let back: ObsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);
    }
}
