//! The trace-replay simulation driver.
//!
//! [`Simulation`] replays a [`Trace`] against the array described by an
//! [`ArrayConfig`] and collects every measurement the paper's evaluation
//! reports. The workload generator issues each request at its recorded time
//! (open loop), the array turns it into device I/Os, and the metrics
//! trackers observe the per-device traffic.
//!
//! [`DatasetMapper`] scatters the trace's dataset uniformly across the
//! archive partition (the paper maps its datasets "onto the simulated disks
//! uniformly so that all disks have the same access probability"), while
//! preserving intra-request contiguity at extent granularity.
//!
//! [`policy_quality`] reproduces the setup of Tables 2 and 3: the policies
//! are exercised against the raw block stream with an instant disk model, so
//! hit and replacement ratios can be compared without queueing interference.

use craid_cache::{AccessMeta, PolicyKind};
use craid_diskmodel::{BlockRange, IoKind};
use craid_simkit::SimTime;
use craid_trace::{SyntheticWorkload, Trace, TraceRecord};

use crate::array::{build_array, ExpansionReport, RequestReport};
use crate::config::ArrayConfig;
use crate::error::CraidError;
use crate::observer::{MetricsCollector, NullObserver, Observer, RequestOutcome};
use crate::report::{CraidStats, SimulationReport};
use crate::scenario::{AppliedEvent, ScheduledEvent};

/// Scatter granularity of the dataset mapper: large enough that almost every
/// client request stays contiguous after mapping, small enough to spread the
/// dataset across the whole archive.
const MAP_EXTENT_BLOCKS: u64 = 256;

/// Maps dataset-relative block numbers onto the archive partition's logical
/// address space, scattering extents with a fixed coprime stride.
#[derive(Debug, Clone)]
pub struct DatasetMapper {
    dataset_blocks: u64,
    target_extents: u64,
    stride: u64,
}

impl DatasetMapper {
    /// Creates a mapper scattering `dataset_blocks` over `target_capacity`
    /// logical blocks.
    ///
    /// # Panics
    ///
    /// Panics if the dataset does not fit in the target capacity.
    pub fn new(dataset_blocks: u64, target_capacity: u64, seed: u64) -> Self {
        assert!(
            dataset_blocks > 0,
            "dataset must contain at least one block"
        );
        assert!(
            target_capacity >= dataset_blocks,
            "dataset ({dataset_blocks} blocks) does not fit in the volume ({target_capacity} blocks)"
        );
        let target_extents = (target_capacity / MAP_EXTENT_BLOCKS).max(1);
        // A deterministic odd stride derived from the seed, made coprime with
        // the extent count.
        let mut stride = (seed | 1).wrapping_mul(2_654_435_761) % target_extents.max(1);
        stride = stride.max(1) | 1;
        while gcd(stride, target_extents) != 1 {
            stride += 2;
        }
        DatasetMapper {
            dataset_blocks,
            target_extents,
            stride,
        }
    }

    /// Maps one dataset-relative range onto one or more volume ranges
    /// (usually one; more when the range straddles a scatter extent). Clears
    /// `out` and fills it with the mapped sub-ranges, so the replay loop
    /// reuses one buffer.
    pub fn map_into(&self, range: BlockRange, out: &mut Vec<BlockRange>) {
        assert!(
            range.end() <= self.dataset_blocks,
            "request {range} outside the dataset of {} blocks",
            self.dataset_blocks
        );
        out.clear();
        for chunk in range.chunks(MAP_EXTENT_BLOCKS) {
            // Split chunks that straddle an extent boundary.
            let first_extent = chunk.start() / MAP_EXTENT_BLOCKS;
            let last_extent = (chunk.end() - 1) / MAP_EXTENT_BLOCKS;
            if first_extent == last_extent {
                out.push(self.map_within_extent(chunk));
            } else {
                let split = (first_extent + 1) * MAP_EXTENT_BLOCKS;
                out.push(
                    self.map_within_extent(BlockRange::new(chunk.start(), split - chunk.start())),
                );
                out.push(self.map_within_extent(BlockRange::new(split, chunk.end() - split)));
            }
        }
    }

    fn map_within_extent(&self, range: BlockRange) -> BlockRange {
        let extent = range.start() / MAP_EXTENT_BLOCKS;
        let offset = range.start() % MAP_EXTENT_BLOCKS;
        let target_extent = (extent.wrapping_mul(self.stride)) % self.target_extents;
        BlockRange::new(target_extent * MAP_EXTENT_BLOCKS + offset, range.len())
    }
}

/// Euclid's algorithm (shared with the array's coprime-stride restripe
/// sampler).
pub(crate) fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Replays traces against a configured array and produces
/// [`SimulationReport`]s.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: ArrayConfig,
}

impl Simulation {
    /// Creates a driver for the given configuration.
    pub fn new(config: ArrayConfig) -> Self {
        Simulation { config }
    }

    /// The configuration this driver runs.
    pub fn config(&self) -> &ArrayConfig {
        &self.config
    }

    /// Replays `trace` and returns the full measurement report.
    ///
    /// # Errors
    ///
    /// Returns a [`CraidError`] if the configuration is inconsistent.
    pub fn try_run(&self, trace: &Trace) -> Result<SimulationReport, CraidError> {
        self.try_run_events(trace, &[], &mut NullObserver)
            .map(|(report, _, _)| report)
    }

    /// Replays `trace` while driving a [`ScheduledEvent`] timeline, with
    /// every hook delivered to `observer` (pass
    /// [`NullObserver`] when nothing needs to watch).
    ///
    /// The schedule is stable-sorted by time, so events at equal times
    /// apply in declaration order. Events scheduled after the last request
    /// still execute, but outside the measurement window (their device
    /// traffic does not count into the report's trackers, matching the
    /// paper's methodology of measuring while the workload runs).
    ///
    /// [`ScheduledEvent::WorkloadPhase`] events carrying a workload source
    /// swap the active trace segment: the replay is truncated at the phase
    /// time and continues with the new workload's records from there.
    ///
    /// One interleaving loop drives every background task the array has in
    /// flight (rebuilds, paced expansion migrations, paced archive
    /// restripes): the engine is pumped once per client request and splits
    /// each pump's budget across concurrent tasks by the configured fair
    /// shares, so maintenance I/O contends with traffic exactly as the
    /// paper's online claim requires. Work still in flight when the trace
    /// (and any post-trace events) end is drained afterwards, outside the
    /// measurement window, and reported as
    /// [`SimulationReport::background_drain_secs`] — a short trace cannot
    /// freeze a rebuild mid-air or leave an MTTR unrecorded.
    ///
    /// When the configuration carries a QoS spec ([`ArrayConfig::qos`]), a
    /// [`QosController`](crate::qos::QosController) additionally watches
    /// every client completion and retargets the array's maintenance
    /// throttle ahead of each pump (AIMD between the spec's floor and the
    /// configured rates); its [`QosStats`](crate::report::QosStats) ride
    /// on the report. Without a spec no controller exists and the engine's
    /// static pacing is untouched.
    ///
    /// # Errors
    ///
    /// Returns a [`CraidError`] if the configuration or an event is
    /// invalid.
    pub fn try_run_events(
        &self,
        trace: &Trace,
        events: &[ScheduledEvent],
        observer: &mut dyn Observer,
    ) -> Result<(SimulationReport, Vec<ExpansionReport>, Vec<AppliedEvent>), CraidError> {
        let composed = compose_phase_swaps(trace, events);
        let trace = composed.as_ref().unwrap_or(trace);
        let mut config = self.config.clone();
        config.dataset_blocks = config.dataset_blocks.max(trace.footprint_blocks());
        let mut array = build_array(&config)?;
        let mapper = DatasetMapper::new(
            trace.footprint_blocks(),
            array.capacity_blocks(),
            config.seed,
        );

        // Stable sort: equal times keep declaration order. The model
        // checker may permute equal-time groups (the declaration-order
        // tie-break is a policy, not a law); branch 0 keeps it.
        let mut schedule: Vec<&ScheduledEvent> = events.iter().collect();
        schedule.sort_by_key(|e| e.at());
        permute_equal_time_groups(&mut schedule);
        let mut pending = schedule.into_iter().peekable();

        let total_added: usize = events
            .iter()
            .map(|e| match e {
                ScheduledEvent::Expand { added_disks, .. } => *added_disks,
                ScheduledEvent::PolicySwitch { .. }
                | ScheduledEvent::WorkloadPhase { .. }
                | ScheduledEvent::DiskFailure { .. }
                | ScheduledEvent::DiskRepair { .. } => 0,
            })
            .sum();
        let device_slots = array.device_count() + total_added;
        let mut metrics = MetricsCollector::new(device_slots);

        let mut expansion_reports = Vec::new();
        let mut applied_events = Vec::new();
        let mut end_time = SimTime::ZERO;

        // The QoS control loop, when the configuration carries an SLO: the
        // controller watches client completions through a sliding window
        // and retargets the array's maintenance throttle ahead of every
        // background pump. Without a `[qos]` spec no controller exists and
        // the engine's static pacing is untouched.
        let mut qos = config.qos.clone().map(crate::qos::QosController::new);

        // Event-clocked pumping: outside the model checker the engine is
        // polled only when a pacing clock says work can actually be due
        // (`background_work_due`), turning the once-per-request pump into
        // O(completions). Under `--explore` the per-request cadence is kept
        // so the explored decision tree is unchanged.
        let event_clocked = !crate::choice::active();
        // Request-path scratch, reused across records: the mapped sub-range
        // list, the outcome's report list, and the background event buffer
        // (reclaimed from the outcome after the observer hooks ran).
        let mut ranges: Vec<BlockRange> = Vec::new();
        let mut background: Vec<crate::devices::DeviceIoEvent> = Vec::new();
        let mut outcome = RequestOutcome {
            worst_ms: 0.0,
            reports: Vec::new(),
        };

        for record in trace {
            end_time = end_time.max(record.time);
            // Advance the tracer's ambient clock (a no-op on untraced
            // runs): subsystems without a time parameter — the I/O monitor's
            // cache instants — stamp their events with this.
            craid_obs::set_now(record.time);
            // Apply every event whose time has come.
            while let Some(event) = pending.next_if(|e| e.at() <= record.time) {
                let (applied, expansion) =
                    apply_event(array.as_mut(), event, true, &mut metrics, observer)?;
                applied_events.push(applied);
                expansion_reports.extend(expansion);
            }

            // One control decision ahead of the pump: while the sliding
            // window violates the SLO the maintenance throttle backs off
            // multiplicatively; while it is met it recovers additively.
            // The control decision normally lands before the pump; the
            // model checker may let the pump race ahead of it (branch 1),
            // as a real engine thread would against an async controller.
            let pump_first = qos.is_some()
                && crate::choice::choose(crate::choice::DecisionPoint::ThrottlePumpOrder, 2) == 1;
            background.clear();
            if pump_first && (!event_clocked || array.background_work_due(record.time)) {
                array.pump_background_into(record.time, &mut background);
            }
            if let Some(controller) = qos.as_mut() {
                if let Some(retarget) = controller.evaluate(record.time) {
                    array.set_background_throttle(record.time, retarget.scale);
                    if retarget.notable {
                        observer.on_throttle(record.time, retarget.scale);
                    }
                }
            }

            // One catch-up step of the background engine ahead of the
            // client I/O: rebuild and migration batches occupy devices (the
            // client does not wait on them) and count into the measurement
            // window like any other traffic.
            if !pump_first && (!event_clocked || array.background_work_due(record.time)) {
                array.pump_background_into(record.time, &mut background);
            }
            if let Some(controller) = qos.as_mut() {
                controller.note_maintenance(&background);
            }
            forward_activations(array.as_mut(), observer);

            mapper.map_into(BlockRange::new(record.offset, record.length), &mut ranges);
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
                let report = array.submit(record.time, record.kind, range)?;
                outcome.worst_ms = outcome.worst_ms.max(report.response.as_millis());
                outcome.reports.push(report);
            }
            if craid_obs::active() {
                // The request-lifecycle span. Untraced runs skip this block
                // entirely (one thread-local flag test).
                craid_obs::emit(|_| {
                    craid_obs::TraceEvent::span(
                        craid_obs::SpanCategory::Request,
                        match record.kind {
                            IoKind::Read => "read",
                            IoKind::Write => "write",
                        },
                        record.time,
                        craid_simkit::SimDuration::from_millis(outcome.worst_ms),
                    )
                    .arg("blocks", record.length)
                    .arg("cache_hit_blocks", outcome.cache_hit_blocks())
                });
                craid_obs::counter_add("requests", 1);
                craid_obs::histogram_record("request.worst_ms", outcome.worst_ms);
            }
            if let Some(controller) = qos.as_mut() {
                // The first report carries the pump's maintenance batch (when
                // one was issued); the controller must only see the *client*
                // I/O, or it would throttle against the queue depths of the
                // very maintenance it paces.
                let client_from = usize::from(has_background_report);
                controller.observe(
                    record.time,
                    outcome.worst_ms,
                    &outcome.reports[client_from..],
                );
            }
            metrics.on_request(record, &outcome);
            observer.on_request(record, &outcome);
            if has_background_report {
                background = std::mem::take(&mut outcome.reports[0].events);
            }
        }

        // Events scheduled after the last request still execute, outside
        // the measurement window.
        metrics.close();
        let measured_end = end_time;
        for event in pending {
            end_time = end_time.max(event.at());
            let (applied, expansion) =
                apply_event(array.as_mut(), event, false, &mut metrics, observer)?;
            applied_events.push(applied);
            expansion_reports.extend(expansion);
        }

        // End-of-trace drain: a rebuild or migration still in flight when
        // the workload ends must not freeze forever (MTTR never recorded,
        // pending moves stuck nonzero). Like post-trace events, the drain
        // runs *outside* the measurement window; time jumps to each task's
        // exact pace-completion instant (`background_drain_eta`) so the
        // recorded windows match what an uncut trace would have produced.
        let drain_started = end_time;
        let mut drain_at = end_time;
        if qos.is_some() {
            // No clients are left to protect: release the throttle so the
            // drain runs at the full configured rates. Leaving the last
            // in-trace backoff frozen would inflate the drain (and any
            // still-running rebuild's MTTR) by up to 1/floor for no one's
            // benefit — exactly what a real controller's additive recovery
            // would undo on an idle array.
            array.set_background_throttle(drain_started, 1.0);
        }
        let mut drain_pumps = 0u64;
        while !array.background_idle() {
            // Under the model checker the drain is bounded: pacing
            // guarantees termination on the production path, but an
            // explored branch that breaks that guarantee must surface as a
            // DrainTerminates violation, not a hang.
            drain_pumps += 1;
            if crate::choice::active() && drain_pumps > crate::choice::DRAIN_PUMP_BOUND {
                crate::choice::observe(|| crate::choice::Observation::DrainAborted {
                    pumps: drain_pumps,
                });
                break;
            }
            if let Some(eta) = array.background_drain_eta() {
                drain_at = drain_at.max(eta);
            }
            let events = array.pump_background(drain_at);
            forward_activations(array.as_mut(), observer);
            if events.is_empty() && !array.background_idle() {
                // The eta is computed in f64 and can round a hair short of
                // the instant the final block comes due (`rate × elapsed`
                // floors to `total − 1`), which would otherwise spin this
                // loop forever. An idle pump with work still queued means
                // exactly that: nudge time forward past the rounding error.
                drain_at += craid_simkit::SimDuration::from_millis(1.0);
            }
        }
        let drain_secs = drain_at.saturating_since(drain_started).as_secs();

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
        if let Some(controller) = qos {
            // The controller's watch ends with the measurement window (the
            // last trace record); post-trace events and the drain run
            // outside it and must not dilute the time accounting or the
            // effective-rate denominator.
            report.qos = controller.finish(measured_end);
        }
        report.background_drain_secs = drain_secs;
        Ok((report, expansion_reports, applied_events))
    }
}

/// Resource footprint of one scheduled event, for the model checker's
/// sleep-set pruning: equal-time events with pairwise-disjoint footprints
/// commute, so their alternative orderings are provably equivalent and are
/// not explored.
fn event_resources(event: &ScheduledEvent) -> u8 {
    const DEVICES: u8 = 1;
    const LAYOUT: u8 = 2;
    const MONITOR: u8 = 4;
    match event {
        ScheduledEvent::Expand { .. } => DEVICES | LAYOUT | MONITOR,
        ScheduledEvent::PolicySwitch { .. } => MONITOR,
        ScheduledEvent::WorkloadPhase { .. } => 0,
        ScheduledEvent::DiskFailure { .. } | ScheduledEvent::DiskRepair { .. } => DEVICES,
    }
}

/// Lets an installed chooser permute each equal-timestamp group of the
/// sorted schedule (selection-style: one [`DecisionPoint::EventOrder`]
/// choice per position). Branch 0 everywhere keeps declaration order — the
/// pinned production tie-break — and groups whose events are pairwise
/// independent are skipped entirely (reported via `prune`).
fn permute_equal_time_groups(schedule: &mut [&ScheduledEvent]) {
    use crate::choice::{self, DecisionPoint};
    if !choice::active() {
        return;
    }
    let mut start = 0;
    while start < schedule.len() {
        let mut end = start + 1;
        while end < schedule.len() && schedule[end].at() == schedule[start].at() {
            end += 1;
        }
        let group = &mut schedule[start..end];
        if group.len() > 1 {
            let independent = group.iter().enumerate().all(|(i, a)| {
                group[i + 1..]
                    .iter()
                    .all(|b| event_resources(a) & event_resources(b) == 0)
            });
            if independent {
                choice::prune(DecisionPoint::EventOrder, group.len() - 1);
            } else {
                for i in 0..group.len() - 1 {
                    let pick = choice::choose(DecisionPoint::EventOrder, group.len() - i);
                    // Move the picked event to position i, preserving the
                    // relative order of the ones it jumps over.
                    group[i..=i + pick].rotate_right(1);
                }
            }
        }
        start = end;
    }
}

/// Applies the trace-swap semantics of [`ScheduledEvent::WorkloadPhase`]:
/// each phase event carrying a workload source truncates the composite at
/// its time and splices in the new workload's records, shifted to start
/// there. Returns `None` when no event swaps the trace (the common case —
/// label-only phases are pure markers).
fn compose_phase_swaps(base: &Trace, events: &[ScheduledEvent]) -> Option<Trace> {
    let mut swaps: Vec<(SimTime, &crate::scenario::WorkloadSource)> = events
        .iter()
        .filter_map(|e| match e {
            ScheduledEvent::WorkloadPhase {
                at,
                workload: Some(source),
                ..
            } => Some((*at, source)),
            ScheduledEvent::WorkloadPhase { workload: None, .. }
            | ScheduledEvent::Expand { .. }
            | ScheduledEvent::PolicySwitch { .. }
            | ScheduledEvent::DiskFailure { .. }
            | ScheduledEvent::DiskRepair { .. } => None,
        })
        .collect();
    if swaps.is_empty() {
        return None;
    }
    swaps.sort_by_key(|&(at, _)| at);
    let mut records: Vec<TraceRecord> = base.records().to_vec();
    let mut footprint = base.footprint_blocks();
    for (at, source) in swaps {
        records.retain(|r| r.time < at);
        let segment =
            SyntheticWorkload::paper_scaled_to(source.id, source.requests).generate(source.seed);
        footprint = footprint.max(segment.footprint_blocks());
        records.extend(segment.records().iter().map(|r| TraceRecord {
            time: SimTime::from_nanos(at.as_nanos() + r.time.as_nanos()),
            ..*r
        }));
    }
    Some(Trace::new(base.name(), footprint, records))
}

/// Hands every deferred expansion the last pump activated to the tracer
/// (an activation instant), the metrics registry and the observer.
fn forward_activations(array: &mut dyn crate::array::StorageArray, observer: &mut dyn Observer) {
    for activation in array.take_activations() {
        craid_obs::emit(|_| {
            craid_obs::TraceEvent::instant(
                craid_obs::SpanCategory::Activation,
                "deferred-activation",
                activation.at,
            )
            .arg("added_disks", activation.added_disks as u64)
        });
        craid_obs::counter_add("activations", 1);
        observer.on_deferred_activation(activation.at, activation.added_disks);
    }
}

/// Applies one scheduled event to the array and shows it to the metrics
/// collector and the observer. Returns the event's log entry and, when the
/// event was an upgrade, its expansion report.
fn apply_event(
    array: &mut dyn crate::array::StorageArray,
    event: &ScheduledEvent,
    during_replay: bool,
    metrics: &mut MetricsCollector,
    observer: &mut dyn Observer,
) -> Result<(AppliedEvent, Option<ExpansionReport>), CraidError> {
    let expansion = match event {
        ScheduledEvent::Expand { at, added_disks } => Some(array.expand(*at, *added_disks)?),
        ScheduledEvent::PolicySwitch { at, policy } => {
            array.switch_policy(*at, *policy)?;
            None
        }
        ScheduledEvent::WorkloadPhase { .. } => None,
        ScheduledEvent::DiskFailure { at, disk } => {
            array.fail_disk(*at, *disk)?;
            None
        }
        ScheduledEvent::DiskRepair { at, disk } => {
            array.repair_disk(*at, *disk)?;
            None
        }
    };
    metrics.on_event(event, expansion.as_ref());
    observer.on_event(event, expansion.as_ref());
    let applied = AppliedEvent {
        at: event.at(),
        description: event.describe(),
        during_replay,
    };
    Ok((applied, expansion))
}

/// Hit and replacement ratios of one policy over one trace (Tables 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PolicyQuality {
    /// Fraction of block accesses that hit the cache.
    pub hit_ratio: f64,
    /// Replacements per block access.
    pub replacement_ratio: f64,
    /// Capacity the policy was given, in blocks.
    pub capacity_blocks: u64,
}

/// Replays the block stream of `trace` through `policy` with a cache of
/// `capacity_fraction` × footprint blocks and an instant storage model, as
/// the paper does for its policy-quality comparison.
///
/// # Panics
///
/// Panics if `capacity_fraction` is not in `(0, 1]`.
pub fn policy_quality(policy: PolicyKind, trace: &Trace, capacity_fraction: f64) -> PolicyQuality {
    assert!(
        capacity_fraction > 0.0 && capacity_fraction <= 1.0,
        "capacity fraction must be in (0, 1], got {capacity_fraction}"
    );
    let capacity = ((trace.footprint_blocks() as f64 * capacity_fraction) as usize).max(1);
    let mut cache = policy.build(capacity);
    let mut accesses = 0u64;
    let mut hits = 0u64;
    let mut replacements = 0u64;
    for record in trace {
        let meta = match record.kind {
            IoKind::Read => AccessMeta::read(record.length),
            IoKind::Write => AccessMeta::write(record.length),
        };
        for block in record.blocks() {
            accesses += 1;
            let outcome = cache.access(block, meta);
            if outcome.is_hit() {
                hits += 1;
            }
            if outcome.is_replacement() {
                replacements += 1;
            }
        }
    }
    PolicyQuality {
        hit_ratio: if accesses == 0 {
            0.0
        } else {
            hits as f64 / accesses as f64
        },
        replacement_ratio: if accesses == 0 {
            0.0
        } else {
            replacements as f64 / accesses as f64
        },
        capacity_blocks: capacity as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyKind;
    use craid_simkit::SimTime;
    use craid_trace::{SyntheticWorkload, WorkloadId};

    fn tiny_trace() -> Trace {
        SyntheticWorkload::paper(WorkloadId::Wdev)
            .scale(400_000)
            .generate(3)
    }

    #[test]
    fn mapper_preserves_length_and_stays_in_bounds() {
        let mapper = DatasetMapper::new(10_000, 1_000_000, 42);
        let mut mapped = Vec::new();
        for start in [0u64, 100, 255, 256, 9_990] {
            let len = 8.min(10_000 - start);
            mapper.map_into(BlockRange::new(start, len), &mut mapped);
            let total: u64 = mapped.iter().map(|r| r.len()).sum();
            assert_eq!(total, len);
            assert!(mapped.iter().all(|r| r.end() <= 1_000_000));
        }
    }

    #[test]
    fn mapper_is_injective_on_extents() {
        let mapper = DatasetMapper::new(4_096, 65_536, 7);
        let mut seen = std::collections::HashSet::new();
        let mut mapped = Vec::new();
        for extent in 0..(4_096 / MAP_EXTENT_BLOCKS) {
            mapper.map_into(BlockRange::new(extent * MAP_EXTENT_BLOCKS, 1), &mut mapped);
            assert!(
                seen.insert(mapped[0].start()),
                "two extents mapped to the same place"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn mapper_rejects_oversized_datasets() {
        DatasetMapper::new(1_000, 500, 0);
    }

    #[test]
    fn simulation_produces_complete_report() {
        let trace = tiny_trace();
        let config = ArrayConfig::small_test(StrategyKind::Craid5, trace.footprint_blocks());
        let report = Simulation::new(config).try_run(&trace).unwrap();
        assert_eq!(report.requests, trace.len() as u64);
        assert_eq!(report.workload, "wdev");
        assert_eq!(report.strategy, "CRAID-5");
        assert!(report.read.count + report.write.count == report.requests);
        assert!(report.write.mean_ms > 0.0);
        let craid = report.craid.expect("CRAID run must report cache stats");
        assert!(
            craid.hit_ratio > 0.0,
            "a skewed workload must produce cache hits"
        );
        assert!(!report.device_bytes.is_empty());
        assert!(!report.load_balance.cv_cdf.is_empty());
    }

    #[test]
    fn baseline_report_has_no_craid_stats() {
        let trace = tiny_trace();
        let config = ArrayConfig::small_test(StrategyKind::Raid5, trace.footprint_blocks());
        let report = Simulation::new(config).try_run(&trace).unwrap();
        assert!(report.craid.is_none());
        assert!(report.requests > 0);
    }

    #[test]
    fn invalid_configuration_is_an_error_not_a_panic() {
        let trace = tiny_trace();
        let mut config = ArrayConfig::small_test(StrategyKind::Craid5, trace.footprint_blocks());
        config.parity_group = 3; // does not divide the 8 disks
        let result = Simulation::new(config).try_run(&trace);
        assert!(matches!(result, Err(CraidError::InvalidConfig(_))));
    }

    #[test]
    fn expansions_are_applied_mid_run() {
        let trace = tiny_trace();
        let config = ArrayConfig::small_test(StrategyKind::Craid5Plus, trace.footprint_blocks());
        let half_time = SimTime::from_secs(trace.duration().as_secs() / 2.0);
        let events = [ScheduledEvent::expand(half_time, 4)];
        let (report, expansions, applied) = Simulation::new(config)
            .try_run_events(&trace, &events, &mut NullObserver)
            .unwrap();
        assert_eq!(expansions.len(), 1);
        assert_eq!(expansions[0].added_disks, 4);
        assert_eq!(applied.len(), 1);
        assert!(applied[0].during_replay);
        assert!(report.requests > 0);
    }

    /// A 4-disk expansion 10 s after `trace`'s last record (instant under
    /// `small_test`, which sets no migration rate).
    fn expand_after(trace: &Trace) -> ScheduledEvent {
        let last = trace.records().last().expect("the trace has records").time;
        ScheduledEvent::expand(SimTime::from_secs(last.as_secs() + 10.0), 4)
    }

    #[test]
    fn post_trace_events_apply_outside_the_measurement_window() {
        let trace = tiny_trace();
        let config = ArrayConfig::small_test(StrategyKind::Craid5, trace.footprint_blocks());
        let quiet = Simulation::new(config.clone()).try_run(&trace).unwrap();
        let (report, expansions, applied) = Simulation::new(config)
            .try_run_events(&trace, &[expand_after(&trace)], &mut NullObserver)
            .unwrap();
        assert_eq!(applied.len(), 1);
        assert!(!applied[0].during_replay);
        assert_eq!(expansions.len(), 1);
        assert!(
            !expansions[0].events.is_empty(),
            "the invalidation writes dirty blocks back, so the test is not vacuous"
        );
        assert_eq!(report.read, quiet.read);
        assert_eq!(report.write, quiet.write);
        assert_eq!(report.ioq, quiet.ioq);
        assert_eq!(report.cdev, quiet.cdev);
        assert_eq!(report.sequentiality_cdf, quiet.sequentiality_cdf);
        // `load_balance` is left out: the collector is sized to every disk
        // the schedule will add, so the added disks count as idle in every
        // second's cv (the known load-balance defect: disks that do not
        // exist yet are counted).
    }

    /// Logs every scheduled event and counts requests.
    #[derive(Default)]
    struct EventLog {
        requests: u64,
        events: Vec<(String, bool)>,
    }

    impl Observer for EventLog {
        fn on_request(&mut self, _record: &TraceRecord, _outcome: &RequestOutcome) {
            self.requests += 1;
        }

        fn on_event(&mut self, event: &ScheduledEvent, expansion: Option<&ExpansionReport>) {
            self.events.push((event.describe(), expansion.is_some()));
        }
    }

    #[test]
    fn observer_sees_scheduled_events_in_and_after_the_trace() {
        let trace = tiny_trace();
        let config = ArrayConfig::small_test(StrategyKind::Craid5, trace.footprint_blocks());
        let half = SimTime::from_secs(trace.duration().as_secs() / 2.0);
        let events = [
            expand_after(&trace),
            ScheduledEvent::policy_switch(half, PolicyKind::Arc),
        ];
        let mut log = EventLog::default();
        let (report, _, _) = Simulation::new(config)
            .try_run_events(&trace, &events, &mut log)
            .unwrap();
        assert_eq!(log.events.len(), 2);
        assert!(log.events[0].0.contains("ARC") && !log.events[0].1);
        assert!(log.events[1].0.contains("expand") && log.events[1].1);
        assert_eq!(log.requests, report.requests);
    }

    #[test]
    fn disk_failure_and_repair_events_apply_and_report_fault_stats() {
        let trace = tiny_trace();
        let config = ArrayConfig::small_test(StrategyKind::Raid5, trace.footprint_blocks());
        let quarter = SimTime::from_secs(trace.duration().as_secs() / 4.0);
        let half = SimTime::from_secs(trace.duration().as_secs() / 2.0);
        let events = [
            ScheduledEvent::disk_failure(quarter, 2),
            ScheduledEvent::disk_repair(half, 2),
        ];
        let (report, expansions, applied) = Simulation::new(config)
            .try_run_events(&trace, &events, &mut NullObserver)
            .unwrap();
        assert!(expansions.is_empty(), "neither event expands the array");
        assert_eq!(applied.len(), 2);
        assert!(applied[0].description.contains("fail disk 2"));
        assert!(applied[1].description.contains("repair disk 2"));
        let fault = report.fault;
        assert_eq!(fault.disk_failures, 1);
        assert_eq!(fault.disk_repairs, 1);
        assert!(fault.degraded_reads > 0, "degraded reads were served");
        assert!(
            fault.reconstruction_ios >= 3 * fault.degraded_reads,
            "each degraded read fans out to the G-1 surviving members"
        );
        assert!(fault.rebuild_write_blocks > 0, "rebuild traffic flowed");
    }

    #[test]
    fn failing_an_unknown_disk_is_rejected_not_swallowed() {
        let trace = tiny_trace();
        let config = ArrayConfig::small_test(StrategyKind::Craid5, trace.footprint_blocks());
        let events = [ScheduledEvent::disk_failure(SimTime::from_secs(1.0), 99)];
        let result = Simulation::new(config).try_run_events(&trace, &events, &mut NullObserver);
        assert!(matches!(result, Err(CraidError::InvalidFault(_))));
    }

    #[test]
    fn policy_switch_and_phase_events_apply() {
        let trace = tiny_trace();
        let config = ArrayConfig::small_test(StrategyKind::Craid5, trace.footprint_blocks());
        let quarter = SimTime::from_secs(trace.duration().as_secs() / 4.0);
        let half = SimTime::from_secs(trace.duration().as_secs() / 2.0);
        let events = [
            ScheduledEvent::workload_phase(quarter, "warm"),
            ScheduledEvent::policy_switch(half, craid_cache::PolicyKind::Arc),
        ];
        let (report, expansions, applied) = Simulation::new(config)
            .try_run_events(&trace, &events, &mut NullObserver)
            .unwrap();
        assert!(expansions.is_empty(), "neither event expands the array");
        assert_eq!(applied.len(), 2);
        assert!(applied[0].description.contains("warm"));
        assert!(applied[1].description.contains("ARC"));
        let craid = report.craid.expect("CRAID stats survive a policy switch");
        assert!(
            craid.hit_ratio > 0.0,
            "cache keeps hitting after the switch"
        );
    }

    #[test]
    fn workload_phase_with_source_swaps_the_trace_segment() {
        let trace = tiny_trace();
        let config = ArrayConfig::small_test(StrategyKind::Raid5, trace.footprint_blocks());
        let half = SimTime::from_secs(trace.duration().as_secs() / 2.0);
        let swap = [ScheduledEvent::workload_phase_swap(
            half,
            "proj takes over",
            crate::scenario::WorkloadSource {
                id: WorkloadId::Proj,
                requests: 300,
                seed: 9,
            },
        )];
        let (swapped, _, applied) = Simulation::new(config.clone())
            .try_run_events(&trace, &swap, &mut NullObserver)
            .unwrap();
        assert_eq!(applied.len(), 1);
        assert!(applied[0].description.contains("switch trace"));
        // The composite replays the base records before the swap plus the
        // whole new segment — not the base tail.
        let before_swap = trace.iter().filter(|r| r.time < half).count() as u64;
        let segment = SyntheticWorkload::paper_scaled_to(WorkloadId::Proj, 300).generate(9);
        assert_eq!(swapped.requests, before_swap + segment.len() as u64);
        assert!(swapped.requests != trace.len() as u64);
        // A marker-only phase leaves the trace untouched.
        let marker = [ScheduledEvent::workload_phase(half, "no swap")];
        let (plain, _, _) = Simulation::new(config)
            .try_run_events(&trace, &marker, &mut NullObserver)
            .unwrap();
        assert_eq!(plain.requests, trace.len() as u64);
        // Same scenario, same composite: the swap is deterministic.
        let (again, _, _) = Simulation::new(ArrayConfig::small_test(
            StrategyKind::Raid5,
            trace.footprint_blocks(),
        ))
        .try_run_events(&trace, &swap, &mut NullObserver)
        .unwrap();
        assert_eq!(again, swapped);
    }

    #[test]
    fn policy_quality_matches_paper_ordering() {
        let trace = tiny_trace();
        let arc = policy_quality(PolicyKind::Arc, &trace, 0.05);
        let lru = policy_quality(PolicyKind::Lru, &trace, 0.05);
        let gdsf = policy_quality(PolicyKind::Gdsf, &trace, 0.05);
        assert!(arc.hit_ratio > 0.2);
        assert!(
            (arc.hit_ratio - lru.hit_ratio).abs() < 0.15,
            "ARC and LRU should be comparable: {} vs {}",
            arc.hit_ratio,
            lru.hit_ratio
        );
        assert!(
            gdsf.hit_ratio < arc.hit_ratio,
            "GDSF must trail the other policies ({} vs {})",
            gdsf.hit_ratio,
            arc.hit_ratio
        );
        assert!(arc.replacement_ratio <= 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity fraction")]
    fn policy_quality_validates_fraction() {
        policy_quality(PolicyKind::Lru, &tiny_trace(), 0.0);
    }
}
