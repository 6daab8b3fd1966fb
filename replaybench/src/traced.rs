//! The traced run: the replay loop of `craid::sim`, rebuilt from the
//! simulator's public calls, with every call timed from outside.
//!
//! [`traced_run`] makes the calls `Simulation::try_run_events` makes, in the
//! same order, for a single-threaded run outside the model checker (event-
//! clocked pumping, the throttle decided before the pump). Each call is
//! wrapped in a span; the calls' inputs and outputs are captured so the
//! layer replays in [`crate::layers`] can split `submit` further. The
//! report it assembles must be byte-identical to the untraced one, which
//! proves the rebuilt loop is the loop that was measured.

use std::time::{Duration, Instant};

use craid::array::build_array;
use craid::devices::DeviceIoEvent;
use craid::monitor::MonitorStats;
use craid::{ArrayConfig, CraidError};
use craid::{
    CraidStats, DatasetMapper, ExpansionReport, MetricsCollector, Observer, QosController,
    RequestOutcome, RequestReport, Scenario, ScheduledEvent, SimulationReport, StorageArray,
};
use craid_diskmodel::{BlockRange, IoKind};
use craid_raid::IoPurpose;
use craid_simkit::{SimDuration, SimTime};
use craid_trace::Trace;

/// The spans of the driving loop, one per layer the loop calls directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Building the array, the dataset mapper, the metrics collector and
    /// the QoS controller.
    Build,
    /// `DatasetMapper::map_into`.
    Mapping,
    /// `StorageArray::submit`.
    Submit,
    /// `StorageArray::{background_work_due, pump_background_into,
    /// take_activations}` during the trace.
    Pump,
    /// `StorageArray::{expand, fail_disk, repair_disk}`.
    Events,
    /// `QosController::{evaluate, observe, note_maintenance, finish}` and
    /// the throttle retargets they cause.
    Qos,
    /// `MetricsCollector::{on_request, on_event, close, finish}` and the
    /// array counters the report is assembled from.
    Metrics,
    /// The end-of-trace drain.
    Drain,
}

impl Span {
    /// Every span, in report order.
    pub const ALL: [Span; 8] = [
        Span::Build,
        Span::Mapping,
        Span::Submit,
        Span::Pump,
        Span::Events,
        Span::Qos,
        Span::Metrics,
        Span::Drain,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// Number of spans.
const SPANS: usize = Span::ALL.len();

/// Where a device I/O was issued from; the devices replay charges its time
/// back to the span that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A client request (`submit`).
    Submit,
    /// The background pump during the trace.
    Pump,
    /// An event (instant-upgrade write-backs).
    Events,
    /// The end-of-trace drain.
    Drain,
}

impl Origin {
    /// Position in per-origin arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One captured device I/O: what was handed to `DeviceSet::submit` and what
/// the device answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceIo {
    /// Target device.
    pub device: u32,
    /// Queue depth the device reported on arrival.
    pub queue_depth: u32,
    /// Physical start block.
    pub start: u64,
    /// Blocks moved.
    pub blocks: u64,
    /// Submission instant (ns).
    pub submitted: u64,
    /// Completion instant (ns).
    pub finished: u64,
    /// Transfer direction.
    pub kind: IoKind,
    /// Why the I/O was issued.
    pub purpose: IoPurpose,
}

impl DeviceIo {
    fn from_event(ev: &DeviceIoEvent) -> Self {
        DeviceIo {
            device: u32::try_from(ev.device).expect("device index fits in u32"),
            queue_depth: u32::try_from(ev.queue_depth).unwrap_or(u32::MAX),
            start: ev.start_block,
            blocks: ev.blocks,
            submitted: ev.submitted.as_nanos(),
            finished: ev.finished.as_nanos(),
            kind: ev.kind,
            purpose: ev.purpose,
        }
    }
}

/// One captured `submit` call and the counters its report carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitCall {
    /// Transfer direction.
    pub kind: IoKind,
    /// Mapped volume range.
    pub range: BlockRange,
    /// Blocks served from a cached copy.
    pub cache_hit_blocks: u64,
    /// Evictions triggered.
    pub evictions: u64,
    /// Evictions with a dirty victim.
    pub dirty_writebacks: u64,
    /// This call's device I/Os: `Capture::ios[io_start..io_end]`.
    pub io_start: usize,
    /// End of this call's device I/Os.
    pub io_end: usize,
}

/// Everything a traced run captured for the layer replays.
#[derive(Debug, Default)]
pub struct Capture {
    /// Every `submit` call in order.
    pub submits: Vec<SubmitCall>,
    /// Every device I/O in issue order.
    pub ios: Vec<DeviceIo>,
    /// Runs of `ios` with one origin: `(origin, end index)`.
    pub segments: Vec<(Origin, usize)>,
}

impl Capture {
    fn push_ios(&mut self, origin: Origin, events: &[DeviceIoEvent]) {
        if events.is_empty() {
            return;
        }
        self.ios.extend(events.iter().map(DeviceIo::from_event));
        match self.segments.last_mut() {
            Some((last, end)) if *last == origin => *end = self.ios.len(),
            _ => self.segments.push((origin, self.ios.len())),
        }
    }
}

/// Work counts of the driving loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Trace records replayed.
    pub records: u64,
    /// Sub-ranges produced by the dataset mapper.
    pub ranges: u64,
    /// `submit` calls.
    pub submit_calls: u64,
    /// `background_work_due` checks.
    pub due_checks: u64,
    /// In-trace pump calls.
    pub pump_calls: u64,
    /// In-trace pump calls that issued I/O.
    pub useful_pumps: u64,
    /// Device I/Os issued by in-trace pumps.
    pub pump_ios: u64,
    /// Blocks moved by in-trace pumps.
    pub pump_blocks: u64,
    /// Events applied (in and after the trace).
    pub events_applied: u64,
    /// QoS evaluations.
    pub qos_evaluations: u64,
    /// QoS throttle retargets.
    pub qos_retargets: u64,
    /// Sum over evaluations of the controller's latency-window size.
    pub qos_window_samples: u64,
    /// Device I/Os delivered to the metrics collector.
    pub metrics_device_events: u64,
    /// End-of-trace drain pumps.
    pub drain_pumps: u64,
}

/// The result of a traced run.
#[derive(Debug)]
pub struct Traced {
    /// The assembled report.
    pub report: SimulationReport,
    /// Host seconds of the whole traced replay.
    pub wall_s: f64,
    /// Host time of each [`Span`] (indexed like [`Span::ALL`]).
    pub span_s: [f64; SPANS],
    /// Work counts.
    pub counts: Counts,
    /// Captured calls for the layer replays.
    pub capture: Capture,
    /// The array configuration the run resolved.
    pub config: ArrayConfig,
    /// The array's monitor counters at the end (`None` without a monitor).
    pub monitor: Option<MonitorStats>,
}

impl Traced {
    /// Host seconds of one span.
    pub fn span(&self, span: Span) -> f64 {
        self.span_s[span.index()]
    }
}

/// Accumulates span time.
struct Clock([Duration; SPANS]);

impl Clock {
    fn time<T>(&mut self, span: Span, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let result = call();
        self.0[span.index()] += started.elapsed();
        result
    }
}

/// Applies one scheduled event, as the simulator's replay loop does.
fn apply_event(
    array: &mut dyn StorageArray,
    event: &ScheduledEvent,
) -> Result<Option<ExpansionReport>, CraidError> {
    match event {
        ScheduledEvent::Expand { at, added_disks } => array.expand(*at, *added_disks).map(Some),
        ScheduledEvent::PolicySwitch { at, policy } => {
            array.switch_policy(*at, *policy)?;
            Ok(None)
        }
        ScheduledEvent::WorkloadPhase { .. } => Ok(None),
        ScheduledEvent::DiskFailure { at, disk } => {
            array.fail_disk(*at, *disk)?;
            Ok(None)
        }
        ScheduledEvent::DiskRepair { at, disk } => {
            array.repair_disk(*at, *disk)?;
            Ok(None)
        }
    }
}

/// Replays `trace` through the rebuilt driving loop with every call timed.
///
/// # Errors
///
/// Returns the simulator's error as text, or a refusal for scenarios the
/// rebuilt loop does not cover (workload-phase trace swaps).
pub fn traced_run(scenario: &Scenario, trace: &Trace) -> Result<Traced, String> {
    let fail = |e: CraidError| format!("traced replay failed: {e}");
    scenario.validate().map_err(fail)?;
    if scenario.events.iter().any(|e| {
        matches!(
            e,
            ScheduledEvent::WorkloadPhase {
                workload: Some(_),
                ..
            }
        )
    }) {
        return Err("the traced run does not rebuild workload-phase trace swaps".into());
    }
    let started = Instant::now();
    let mut clock = Clock([Duration::ZERO; SPANS]);
    let mut counts = Counts::default();
    let mut capture = Capture::default();

    let mut config = scenario.array_config(trace);
    config.dataset_blocks = config.dataset_blocks.max(trace.footprint_blocks());
    let total_added: usize = scenario
        .events
        .iter()
        .map(|e| match e {
            ScheduledEvent::Expand { added_disks, .. } => *added_disks,
            _ => 0,
        })
        .sum();
    let built = clock.time(Span::Build, || {
        let array = build_array(&config)?;
        let mapper = DatasetMapper::new(
            trace.footprint_blocks(),
            array.capacity_blocks(),
            config.seed,
        );
        let metrics = MetricsCollector::new(array.device_count() + total_added);
        let qos = config.qos.clone().map(QosController::new);
        Ok((array, mapper, metrics, qos))
    });
    let (mut array, mapper, mut metrics, mut qos) = built.map_err(fail)?;
    let mut schedule: Vec<&ScheduledEvent> = scenario.events.iter().collect();
    schedule.sort_by_key(|e| e.at());
    let mut pending = schedule.into_iter().peekable();
    // The controller's latency window, mirrored from outside: completion
    // instants younger than the window at each evaluation.
    let window = config.qos.as_ref().map_or(0.0, |spec| spec.window_secs);
    let mut window_times = std::collections::VecDeque::new();

    let mut end_time = SimTime::ZERO;
    let mut ranges: Vec<BlockRange> = Vec::new();
    let mut background: Vec<DeviceIoEvent> = Vec::new();
    let mut outcome = RequestOutcome {
        worst_ms: 0.0,
        reports: Vec::new(),
    };

    for record in trace {
        end_time = end_time.max(record.time);
        while let Some(event) = pending.next_if(|e| e.at() <= record.time) {
            let expansion = clock.time(Span::Events, || apply_event(array.as_mut(), event));
            let expansion = expansion.map_err(fail)?;
            counts.events_applied += 1;
            if let Some(report) = &expansion {
                capture.push_ios(Origin::Events, &report.events);
                counts.metrics_device_events += report.events.len() as u64;
            }
            clock.time(Span::Metrics, || {
                metrics.on_event(event, expansion.as_ref())
            });
        }

        background.clear();
        if let Some(controller) = qos.as_mut() {
            clock.time(Span::Qos, || {
                if let Some(retarget) = controller.evaluate(record.time) {
                    array.set_background_throttle(record.time, retarget.scale);
                    counts.qos_retargets += 1;
                }
            });
            counts.qos_evaluations += 1;
            while window_times
                .front()
                .is_some_and(|&t: &SimTime| record.time.saturating_since(t).as_secs() > window)
            {
                window_times.pop_front();
            }
            counts.qos_window_samples += window_times.len() as u64;
        }
        counts.due_checks += 1;
        if clock.time(Span::Pump, || array.background_work_due(record.time)) {
            clock.time(Span::Pump, || {
                array.pump_background_into(record.time, &mut background);
            });
            counts.pump_calls += 1;
            counts.useful_pumps += u64::from(!background.is_empty());
            counts.pump_ios += background.len() as u64;
            counts.pump_blocks += background.iter().map(|e| e.blocks).sum::<u64>();
            capture.push_ios(Origin::Pump, &background);
        }
        if let Some(controller) = qos.as_mut() {
            clock.time(Span::Qos, || controller.note_maintenance(&background));
        }
        // Deferred expansions activate inside the pump; the simulator only
        // forwards them to observers, and this loop has none.
        clock.time(Span::Pump, || array.take_activations());

        clock.time(Span::Mapping, || {
            mapper.map_into(BlockRange::new(record.offset, record.length), &mut ranges);
        });
        counts.ranges += ranges.len() as u64;

        outcome.worst_ms = 0.0;
        outcome.reports.clear();
        let has_background_report = !background.is_empty();
        if has_background_report {
            outcome.reports.push(RequestReport {
                events: std::mem::take(&mut background),
                ..RequestReport::default()
            });
        }
        for &range in &ranges {
            let report = clock.time(Span::Submit, || {
                array.submit(record.time, record.kind, range)
            });
            let report = report.map_err(fail)?;
            counts.submit_calls += 1;
            let io_start = capture.ios.len();
            capture.push_ios(Origin::Submit, &report.events);
            capture.submits.push(SubmitCall {
                kind: record.kind,
                range,
                cache_hit_blocks: report.cache_hit_blocks,
                evictions: report.evictions,
                dirty_writebacks: report.dirty_writebacks,
                io_start,
                io_end: capture.ios.len(),
            });
            outcome.worst_ms = outcome.worst_ms.max(report.response.as_millis());
            outcome.reports.push(report);
        }
        if let Some(controller) = qos.as_mut() {
            let client_from = usize::from(has_background_report);
            clock.time(Span::Qos, || {
                controller.observe(
                    record.time,
                    outcome.worst_ms,
                    &outcome.reports[client_from..],
                );
            });
            window_times.push_back(record.time);
        }
        clock.time(Span::Metrics, || metrics.on_request(record, &outcome));
        counts.metrics_device_events += outcome
            .reports
            .iter()
            .map(|r| r.events.len() as u64)
            .sum::<u64>();
        if has_background_report {
            background = std::mem::take(&mut outcome.reports[0].events);
        }
        counts.records += 1;
    }

    // Events after the last record still execute, outside the measurement
    // window.
    clock.time(Span::Metrics, || metrics.close());
    let measured_end = end_time;
    for event in pending {
        end_time = end_time.max(event.at());
        let expansion = clock.time(Span::Events, || apply_event(array.as_mut(), event));
        let expansion = expansion.map_err(fail)?;
        counts.events_applied += 1;
        if let Some(report) = &expansion {
            capture.push_ios(Origin::Events, &report.events);
        }
        clock.time(Span::Metrics, || {
            metrics.on_event(event, expansion.as_ref())
        });
    }

    // End-of-trace drain: time jumps to each task's paced completion.
    let drain_started = end_time;
    let mut drain_at = end_time;
    if qos.is_some() {
        clock.time(Span::Drain, || {
            array.set_background_throttle(drain_started, 1.0);
        });
    }
    while !clock.time(Span::Drain, || array.background_idle()) {
        counts.drain_pumps += 1;
        let events = clock.time(Span::Drain, || {
            if let Some(eta) = array.background_drain_eta() {
                drain_at = drain_at.max(eta);
            }
            let events = array.pump_background(drain_at);
            array.take_activations();
            events
        });
        capture.push_ios(Origin::Drain, &events);
        if events.is_empty() && !clock.time(Span::Drain, || array.background_idle()) {
            drain_at += SimDuration::from_millis(1.0);
        }
    }
    let drain_secs = drain_at.saturating_since(drain_started).as_secs();

    let mut report = clock.time(Span::Metrics, || {
        let craid = array.monitor_stats().map(|m| CraidStats {
            pc_capacity_blocks: array.pc_capacity_blocks(),
            pc_percent_per_disk: config.pc_percent_per_disk(),
            hit_ratio: m.hit_ratio(),
            read_hit_ratio: m.read_hit_ratio(),
            write_hit_ratio: m.write_hit_ratio(),
            replacement_ratio: m.replacement_ratio(),
            read_eviction_ratio: m.read_eviction_ratio(),
            write_eviction_ratio: m.write_eviction_ratio(),
            dirty_evictions: m.dirty_evictions,
        });
        let device_bytes = array.device_stats().iter().map(|s| s.bytes).collect();
        let mut report = metrics.finish(config.strategy.name(), trace.name(), craid, device_bytes);
        report.fault = array.fault_stats();
        report.migration = array.migration_stats();
        report
    });
    if let Some(controller) = qos {
        report.qos = clock.time(Span::Qos, || controller.finish(measured_end));
    }
    report.background_drain_secs = drain_secs;
    let wall_s = started.elapsed().as_secs_f64();
    let monitor = array.monitor_stats();

    let mut span_s = [0.0; SPANS];
    for span in Span::ALL {
        span_s[span.index()] = clock.0[span.index()].as_secs_f64();
    }
    Ok(Traced {
        report,
        wall_s,
        span_s,
        counts,
        capture,
        config,
        monitor,
    })
}
