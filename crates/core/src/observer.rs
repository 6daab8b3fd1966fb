//! Pluggable observation of a running simulation.
//!
//! The replay engine in [`crate::sim`] drives a trace and an event schedule
//! against an array; everything that *watches* the replay — the metrics
//! trackers that build the [`SimulationReport`], progress printers, future
//! streaming sinks — is an [`Observer`]. Observers receive a hook per client
//! request, per applied [`ScheduledEvent`], per notable QoS throttle change
//! and per deferred-expansion activation, so new consumers can be added
//! without touching the engine's run loop.
//!
//! The paper's measurement pipeline itself is implemented as an observer:
//! [`MetricsCollector`] owns the response-time summaries, exact response-time
//! quantiles, load-balance / sequentiality / concurrency trackers, and
//! assembles the final [`SimulationReport`].

use craid_diskmodel::IoKind;
use craid_metrics::{
    ConcurrencyTracker, LoadBalanceTracker, Quantiles, SequentialityTracker, StreamingSummary,
};
use craid_trace::TraceRecord;

use crate::devices::DeviceIoEvent;

use crate::array::{ExpansionReport, RequestReport};
use crate::report::{CraidStats, LoadBalanceSummary, ResponseSummary, SimulationReport};
use crate::scenario::ScheduledEvent;

/// Everything the engine observed while serving one client request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The slowest of the request's mapped sub-range responses, in
    /// milliseconds — the per-request response time the paper reports.
    pub worst_ms: f64,
    /// Per-mapped-sub-range completion reports (device events, cache hits,
    /// admissions, evictions).
    pub reports: Vec<RequestReport>,
}

impl RequestOutcome {
    /// Blocks of this request served from an existing cache-partition copy.
    pub fn cache_hit_blocks(&self) -> u64 {
        self.reports.iter().map(|r| r.cache_hit_blocks).sum()
    }
}

/// Hooks into the replay engine. All methods have empty defaults; implement
/// only what you need.
pub trait Observer {
    /// Called after each client request completes.
    fn on_request(&mut self, _record: &TraceRecord, _outcome: &RequestOutcome) {}

    /// Called after each scheduled event is applied. `expansion` carries the
    /// upgrade report when the event was an [`ScheduledEvent::Expand`].
    fn on_event(&mut self, _event: &ScheduledEvent, _expansion: Option<&ExpansionReport>) {}

    /// Called when the QoS controller makes a *notable* throttle change —
    /// a multiplicative backoff, or the throttle reaching its maintenance
    /// floor or regaining the ceiling. `scale` is the new maintenance
    /// throttle in `[floor, 1.0]`. Never called on a run without a `[qos]`
    /// spec.
    fn on_throttle(&mut self, _now: craid_simkit::SimTime, _scale: f64) {}

    /// Called when a deferred expansion — one that was queued behind an
    /// in-flight archive restripe — activates: its layout commits and its
    /// own paced migration starts. `at` is the activation instant (the
    /// pump that drained the blocking restripe, or — under the
    /// wait-for-repair policy — the one that completed the rebuild).
    fn on_deferred_activation(&mut self, _at: craid_simkit::SimTime, _added_disks: usize) {}
}

/// An observer that ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Fans each hook out to a scenario's declared progress observers, in
/// declaration order, and then to the caller's observer.
pub(crate) struct MultiObserver<'a> {
    pub(crate) declared: Vec<ProgressObserver>,
    pub(crate) extra: &'a mut dyn Observer,
}

impl Observer for MultiObserver<'_> {
    fn on_request(&mut self, record: &TraceRecord, outcome: &RequestOutcome) {
        for o in &mut self.declared {
            o.on_request(record, outcome);
        }
        self.extra.on_request(record, outcome);
    }

    fn on_event(&mut self, event: &ScheduledEvent, expansion: Option<&ExpansionReport>) {
        for o in &mut self.declared {
            o.on_event(event, expansion);
        }
        self.extra.on_event(event, expansion);
    }

    fn on_throttle(&mut self, now: craid_simkit::SimTime, scale: f64) {
        for o in &mut self.declared {
            o.on_throttle(now, scale);
        }
        self.extra.on_throttle(now, scale);
    }

    fn on_deferred_activation(&mut self, at: craid_simkit::SimTime, added_disks: usize) {
        for o in &mut self.declared {
            o.on_deferred_activation(at, added_disks);
        }
        self.extra.on_deferred_activation(at, added_disks);
    }
}

/// Prints one progress line to stderr every `every` requests, plus a line
/// per applied event. The built-in observer behind
/// [`crate::scenario::ObserverSpec::Progress`].
#[derive(Debug, Clone)]
pub struct ProgressObserver {
    every: u64,
    pub(crate) seen: u64,
    label: String,
}

impl ProgressObserver {
    /// Reports every `every` requests (0 is treated as "only events").
    pub fn new(label: impl Into<String>, every: u64) -> Self {
        ProgressObserver {
            every,
            seen: 0,
            label: label.into(),
        }
    }
}

impl Observer for ProgressObserver {
    fn on_request(&mut self, record: &TraceRecord, _outcome: &RequestOutcome) {
        self.seen += 1;
        if self.every > 0 && self.seen.is_multiple_of(self.every) {
            eprintln!(
                "[{}] {} requests replayed (t = {:.1}s)",
                self.label,
                self.seen,
                record.time.as_secs()
            );
        }
    }

    fn on_event(&mut self, event: &ScheduledEvent, expansion: Option<&ExpansionReport>) {
        match expansion {
            Some(report) => eprintln!(
                "[{}] t = {:.1}s: {} (migrated {} blocks, wrote back {})",
                self.label,
                event.at().as_secs(),
                event.describe(),
                report.migrated_blocks,
                report.writeback_blocks
            ),
            None => eprintln!(
                "[{}] t = {:.1}s: {}",
                self.label,
                event.at().as_secs(),
                event.describe()
            ),
        }
    }

    fn on_throttle(&mut self, now: craid_simkit::SimTime, scale: f64) {
        eprintln!(
            "[{}] t = {:.1}s: maintenance throttled to {:.0}% of configured rate",
            self.label,
            now.as_secs(),
            scale * 100.0
        );
    }

    fn on_deferred_activation(&mut self, at: craid_simkit::SimTime, added_disks: usize) {
        eprintln!(
            "[{}] t = {:.1}s: deferred expansion activated (+{} disks)",
            self.label,
            at.as_secs(),
            added_disks
        );
    }
}

/// The paper's measurement pipeline as an observer: response-time summaries
/// and quantiles per I/O kind, per-second load balance, sequentiality, and
/// device concurrency. [`MetricsCollector::finish`] assembles the
/// [`SimulationReport`].
pub struct MetricsCollector {
    read_summary: StreamingSummary,
    write_summary: StreamingSummary,
    read_quantiles: Quantiles,
    write_quantiles: Quantiles,
    load: LoadBalanceTracker,
    seq: SequentialityTracker,
    conc: ConcurrencyTracker,
    requests: u64,
    /// Once closed (the last trace record was served), trailing events no
    /// longer contribute device traffic to the measurement window.
    closed: bool,
}

impl MetricsCollector {
    /// Creates a collector for an array that will grow to `device_slots`
    /// devices over the run (initial devices plus every scheduled addition).
    pub fn new(device_slots: usize) -> Self {
        MetricsCollector {
            read_summary: StreamingSummary::new(),
            write_summary: StreamingSummary::new(),
            read_quantiles: Quantiles::new(),
            write_quantiles: Quantiles::new(),
            load: LoadBalanceTracker::new(device_slots),
            seq: SequentialityTracker::new(device_slots),
            conc: ConcurrencyTracker::new(device_slots),
            requests: 0,
            closed: false,
        }
    }

    /// Ends the measurement window: events applied after the last request
    /// still execute but no longer count into the trackers (matching the
    /// paper's methodology, which measures while the workload runs).
    pub fn close(&mut self) {
        self.closed = true;
    }

    fn record_device_events(&mut self, events: &[DeviceIoEvent]) {
        for ev in events {
            self.load.record(ev.submitted, ev.device, ev.bytes());
            self.seq
                .record(ev.submitted, ev.device, ev.start_block, ev.blocks);
            self.conc.record(ev.submitted, ev.device, ev.queue_depth);
        }
    }

    /// Consumes the trackers and builds the report. `craid` carries the
    /// array's cache-partition statistics (None for baselines).
    pub fn finish(
        mut self,
        strategy: &str,
        workload: &str,
        craid: Option<CraidStats>,
        device_bytes: Vec<u64>,
    ) -> SimulationReport {
        let sequential_fraction = self.seq.overall_sequential_fraction();
        let mut seq_samples = self.seq.finish();
        let overall_cv = self.load.overall_cv();
        let mut cv_samples = self.load.finish();
        let (ioq, cdev) = self.conc.finish();

        SimulationReport {
            strategy: strategy.to_string(),
            workload: workload.to_string(),
            // The driver fills these in from the array's fault and
            // migration counters after the trackers are consumed.
            fault: crate::report::FaultStats::default(),
            migration: crate::report::MigrationStats::default(),
            qos: crate::report::QosStats::default(),
            background_drain_secs: 0.0,
            requests: self.requests,
            read: summarize_response(&self.read_summary, &mut self.read_quantiles),
            write: summarize_response(&self.write_summary, &mut self.write_quantiles),
            sequentiality_cdf: seq_samples.cdf_points(20),
            sequential_fraction,
            load_balance: LoadBalanceSummary {
                cv_cdf: cv_samples.cdf_points(20),
                mean_cv: cv_samples.mean().unwrap_or(0.0),
                p95_cv: cv_samples.quantile(0.95).unwrap_or(0.0),
                overall_cv,
            },
            ioq,
            cdev,
            craid,
            device_bytes,
            obs: None,
        }
    }
}

impl Observer for MetricsCollector {
    fn on_request(&mut self, record: &TraceRecord, outcome: &RequestOutcome) {
        self.requests += 1;
        for report in &outcome.reports {
            self.record_device_events(&report.events);
        }
        match record.kind {
            IoKind::Read => {
                self.read_summary.record(outcome.worst_ms);
                self.read_quantiles.record(outcome.worst_ms);
            }
            IoKind::Write => {
                self.write_summary.record(outcome.worst_ms);
                self.write_quantiles.record(outcome.worst_ms);
            }
        }
    }

    fn on_event(&mut self, _event: &ScheduledEvent, expansion: Option<&ExpansionReport>) {
        if self.closed {
            return;
        }
        if let Some(report) = expansion {
            self.record_device_events(&report.events);
        }
    }
}

fn summarize_response(summary: &StreamingSummary, quantiles: &mut Quantiles) -> ResponseSummary {
    ResponseSummary {
        count: summary.count(),
        mean_ms: summary.mean(),
        ci95_ms: summary.ci95_half_width(),
        p50_ms: quantiles.quantile(0.5).unwrap_or(0.0),
        p95_ms: quantiles.quantile(0.95).unwrap_or(0.0),
        p99_ms: quantiles.quantile(0.99).unwrap_or(0.0),
        max_ms: quantiles.max().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craid_simkit::SimTime;

    #[derive(Default)]
    struct Counting {
        requests: u64,
        events: u64,
        throttles: u64,
        activations: u64,
    }

    impl Observer for Counting {
        fn on_request(&mut self, _r: &TraceRecord, _o: &RequestOutcome) {
            self.requests += 1;
        }
        fn on_event(&mut self, _e: &ScheduledEvent, _x: Option<&ExpansionReport>) {
            self.events += 1;
        }
        fn on_throttle(&mut self, _now: SimTime, _scale: f64) {
            self.throttles += 1;
        }
        fn on_deferred_activation(&mut self, _at: SimTime, _added: usize) {
            self.activations += 1;
        }
    }

    #[test]
    fn multi_observer_fans_out() {
        let mut extra = Counting::default();
        let mut multi = MultiObserver {
            declared: vec![ProgressObserver::new("a", 1), ProgressObserver::new("b", 0)],
            extra: &mut extra,
        };
        let record = TraceRecord::new(SimTime::ZERO, IoKind::Read, 0, 8);
        let outcome = RequestOutcome {
            worst_ms: 1.0,
            reports: Vec::new(),
        };
        multi.on_request(&record, &outcome);
        let event = ScheduledEvent::expand(SimTime::ZERO, 2);
        multi.on_event(&event, None);
        multi.on_throttle(SimTime::from_secs(1.0), 0.5);
        multi.on_deferred_activation(SimTime::from_secs(2.0), 4);

        let seen: Vec<u64> = multi.declared.iter().map(|o| o.seen).collect();
        assert_eq!(seen, [1, 1], "every declared observer saw the request");
        assert_eq!((extra.requests, extra.events), (1, 1));
        assert_eq!((extra.throttles, extra.activations), (1, 1));
    }

    #[test]
    fn metrics_collector_counts_requests_and_closes() {
        let mut m = MetricsCollector::new(4);
        let record = TraceRecord::new(SimTime::ZERO, IoKind::Write, 0, 8);
        let outcome = RequestOutcome {
            worst_ms: 2.5,
            reports: Vec::new(),
        };
        m.on_request(&record, &outcome);
        m.close();
        let report = m.finish("RAID-5", "wdev", None, vec![0; 4]);
        assert_eq!(report.requests, 1);
        assert_eq!(report.write.count, 1);
        assert_eq!(report.write.mean_ms, 2.5);
        assert_eq!(report.read.count, 0);
        assert_eq!(report.strategy, "RAID-5");
    }

    /// An 8-block device write submitted `at_secs` into the run.
    fn device_write(at_secs: f64, device: usize, start_block: u64, depth: u64) -> DeviceIoEvent {
        let submitted = SimTime::from_secs(at_secs);
        DeviceIoEvent {
            device,
            start_block,
            blocks: 8,
            kind: IoKind::Write,
            purpose: craid_raid::IoPurpose::Data,
            submitted,
            finished: submitted,
            queue_depth: depth,
            internal_cache_hit: false,
        }
    }

    #[test]
    fn expansion_io_counts_only_inside_the_measurement_window() {
        let record = TraceRecord::new(SimTime::ZERO, IoKind::Write, 0, 8);
        let outcome = RequestOutcome {
            worst_ms: 1.0,
            reports: vec![RequestReport {
                events: vec![device_write(0.5, 0, 0, 1), device_write(0.5, 1, 100, 1)],
                ..RequestReport::default()
            }],
        };
        // Two write-backs in the next second, each continuing device 0's
        // run and finding a deeper queue than any client I/O did.
        let expand = ScheduledEvent::expand(SimTime::from_secs(1.5), 2);
        let writeback = ExpansionReport {
            added_disks: 2,
            writeback_blocks: 16,
            events: vec![device_write(1.5, 0, 8, 7), device_write(1.5, 0, 16, 7)],
            ..ExpansionReport::default()
        };
        let report = |expansion: Option<&ExpansionReport>, closed_first: bool| {
            let mut m = MetricsCollector::new(4);
            m.on_request(&record, &outcome);
            if closed_first {
                m.close();
            }
            if expansion.is_some() {
                m.on_event(&expand, expansion);
            }
            m.close();
            m.finish("CRAID-5", "wdev", None, vec![0; 4])
        };
        let quiet = report(None, false);
        assert_eq!(quiet.ioq.max, 1.0);

        let inside = report(Some(&writeback), false);
        assert_eq!(inside.ioq.max, 7.0, "write-backs count into ioq");
        assert_ne!(
            inside.sequentiality_cdf, quiet.sequentiality_cdf,
            "write-backs count into the sequentiality CDF"
        );

        let outside = report(Some(&writeback), true);
        assert_eq!(
            outside, quiet,
            "events after close() fall outside the measurement window"
        );
    }
}
