//! Layer replays: splitting `submit` from outside.
//!
//! The traced run captured every `submit` call and every device I/O. Here
//! those streams are replayed through fresh instances of the layers `submit`
//! is made of, each replay timed on its own and checked against what was
//! captured:
//!
//! * `DeviceSet::submit` gets every captured device I/O, in issue order, and
//!   must reproduce each finish time and queue depth (all workloads);
//! * `IoMonitor::access`, the configured `ReplacementPolicy::access` and
//!   `redirector::plan_request` get the captured `submit` stream and must
//!   reproduce its hit, eviction and planned-I/O counts. They are only
//!   separable while the array has no events: an upgrade or a fault changes
//!   the monitor's and the planner's state in ways only the array sees, so
//!   on event workloads their time stays inside `submit.self_s`.

use std::time::Instant;

use craid::devices::DeviceSet;
use craid::partition::{ArchiveLayout, CachePartition, Partition};
use craid::{redirector, ArrayConfig, IoMonitor};
use craid_cache::AccessMeta;
use craid_diskmodel::{BlockRange, IoKind};
use craid_raid::Raid5Layout;
use craid_simkit::SimTime;

use crate::traced::{Capture, Origin, SubmitCall};

/// Result of the devices replay.
#[derive(Debug, Clone, Default)]
pub struct DevicesReplay {
    /// Host seconds per [`Origin`] (indexed by [`Origin::index`]).
    pub secs: [f64; 4],
    /// I/Os replayed.
    pub ios: u64,
    /// Sum of the queue depths the devices reported.
    pub queue_depth_sum: u64,
    /// I/Os whose finish time or queue depth differed from the capture.
    pub mismatches: u64,
}

impl DevicesReplay {
    /// Host seconds over every origin.
    pub fn total_s(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Host seconds of the I/Os one origin issued.
    pub fn origin_s(&self, origin: Origin) -> f64 {
        self.secs[origin.index()]
    }
}

/// Replays every captured device I/O through a fresh [`DeviceSet`].
pub fn replay_devices(config: &ArrayConfig, capture: &Capture) -> DevicesReplay {
    let mut devices = DeviceSet::from_config(config);
    let mut out = DevicesReplay::default();
    let mut start = 0;
    for &(origin, end) in &capture.segments {
        let started = Instant::now();
        for io in &capture.ios[start..end] {
            let device = io.device as usize;
            if device >= devices.len() {
                // Disks added by an upgrade are fresh devices: adding them
                // before their first I/O is the same as adding them at the
                // upgrade instant.
                devices.add_hdds(device + 1 - devices.len());
            }
            let ev = devices.submit(
                SimTime::from_nanos(io.submitted),
                device,
                io.kind,
                BlockRange::new(io.start, io.blocks),
                io.purpose,
            );
            out.queue_depth_sum += ev.queue_depth;
            if ev.finished.as_nanos() != io.finished || ev.queue_depth != u64::from(io.queue_depth)
            {
                out.mismatches += 1;
            }
        }
        out.secs[origin.index()] += started.elapsed().as_secs_f64();
        out.ios += (end - start) as u64;
        start = end;
    }
    out
}

/// Result of the monitor, cache-policy or redirector replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControlReplay {
    /// Host seconds of the replay.
    pub secs: f64,
    /// Block accesses (monitor and policy) or planned I/Os (redirector).
    pub work: u64,
    /// Blocks served from a cached copy.
    pub hits: u64,
    /// Captured `submit` calls whose counters the replay did not reproduce.
    pub mismatches: u64,
}

/// The cache and archive partitions of a fresh CRAID-5 array, built the
/// way `CraidArray::new` builds them.
fn partitions(config: &ArrayConfig) -> Result<(CachePartition, Partition<ArchiveLayout>), String> {
    if !config.strategy.is_craid()
        || config.strategy.uses_ssd_cache()
        || config.strategy.archive_is_aggregated()
    {
        return Err(format!(
            "the control-path replays rebuild CRAID-5 partitions, not {}",
            config.strategy.name()
        ));
    }
    let layout = |blocks_per_disk| {
        Raid5Layout::new(
            config.disks,
            config.parity_group,
            config.stripe_unit,
            blocks_per_disk,
        )
        .map_err(|e| format!("partition layout: {e}"))
    };
    let pc = CachePartition::new(layout(config.pc_blocks_per_hdd())?, 0, 0);
    let pa = Partition::new(
        ArchiveLayout::Ideal(layout(config.pa_blocks_per_hdd())?),
        0,
        config.pc_blocks_per_hdd(),
    );
    Ok((pc, pa))
}

fn meta(call: &SubmitCall) -> AccessMeta {
    match call.kind {
        IoKind::Read => AccessMeta::read(call.range.len()),
        IoKind::Write => AccessMeta::write(call.range.len()),
    }
}

/// Replays the captured `submit` stream through a fresh [`IoMonitor`]
/// (which drives the configured replacement policy).
///
/// # Errors
///
/// Returns an error when the array is not a CRAID-5 array.
pub fn replay_monitor(
    config: &ArrayConfig,
    submits: &[SubmitCall],
) -> Result<ControlReplay, String> {
    let (mut pc, _) = partitions(config)?;
    let mut monitor = IoMonitor::new(config.policy, pc.capacity());
    let mut out = ControlReplay::default();
    let started = Instant::now();
    for call in submits {
        let (mut hits, mut evictions, mut dirty) = (0, 0, 0);
        for block in call.range.blocks() {
            let (decision, evicted) = monitor.access(block, call.kind, call.range.len(), &mut pc);
            hits += u64::from(decision.is_hit());
            for task in evicted {
                evictions += 1;
                dirty += u64::from(task.dirty);
            }
        }
        out.work += call.range.len();
        out.hits += hits;
        if (hits, evictions, dirty)
            != (call.cache_hit_blocks, call.evictions, call.dirty_writebacks)
        {
            out.mismatches += 1;
        }
    }
    out.secs = started.elapsed().as_secs_f64();
    Ok(out)
}

/// Replays the captured block stream through a fresh instance of the
/// configured replacement policy alone.
///
/// # Errors
///
/// Returns an error when the array is not a CRAID-5 array.
pub fn replay_policy(
    config: &ArrayConfig,
    submits: &[SubmitCall],
) -> Result<ControlReplay, String> {
    let (pc, _) = partitions(config)?;
    let capacity = usize::try_from(pc.capacity()).map_err(|e| e.to_string())?;
    let mut policy = config.policy.build(capacity);
    let mut out = ControlReplay::default();
    let started = Instant::now();
    for call in submits {
        let meta = meta(call);
        let mut hits = 0;
        let mut evictions = 0;
        for block in call.range.blocks() {
            let outcome = policy.access(block, meta);
            hits += u64::from(outcome.is_hit());
            evictions += u64::from(outcome.is_replacement());
        }
        out.work += call.range.len();
        out.hits += hits;
        if (hits, evictions) != (call.cache_hit_blocks, call.evictions) {
            out.mismatches += 1;
        }
    }
    out.secs = started.elapsed().as_secs_f64();
    Ok(out)
}

/// Replays the captured `submit` stream through `redirector::plan_request`
/// (monitor included) and compares every planned I/O with the device I/O
/// the array issued for it.
///
/// # Errors
///
/// Returns an error when the array is not a CRAID-5 array.
pub fn replay_redirector(config: &ArrayConfig, capture: &Capture) -> Result<ControlReplay, String> {
    let (mut pc, pa) = partitions(config)?;
    let mut monitor = IoMonitor::new(config.policy, pc.capacity());
    let mut out = ControlReplay::default();
    let started = Instant::now();
    for call in &capture.submits {
        let plan = redirector::plan_request(&mut monitor, &mut pc, &pa, call.kind, call.range);
        let issued = &capture.ios[call.io_start..call.io_end];
        let planned = plan.foreground.iter().chain(&plan.background);
        let same = plan.foreground.len() + plan.background.len() == issued.len()
            && planned.zip(issued).all(|(p, d)| {
                p.disk == d.device as usize
                    && p.range.start() == d.start
                    && p.range.len() == d.blocks
                    && p.kind == d.kind
                    && p.purpose == d.purpose
            });
        out.work += (plan.foreground.len() + plan.background.len()) as u64;
        out.hits += plan.cache_hit_blocks;
        if !same || plan.cache_hit_blocks != call.cache_hit_blocks {
            out.mismatches += 1;
        }
    }
    out.secs = started.elapsed().as_secs_f64();
    Ok(out)
}

/// Fails when a replay did not reproduce its capture.
///
/// # Errors
///
/// Names the layer and the number of mismatches.
pub fn check_replay(layer: &str, mismatches: u64, of: u64) -> Result<(), String> {
    if mismatches == 0 {
        Ok(())
    } else {
        Err(format!(
            "{layer} replay did not reproduce its capture: {mismatches} of {of} differ"
        ))
    }
}
