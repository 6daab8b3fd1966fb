//! The baseline arrays: ideal RAID-5 and aggregated RAID-5+.

use craid_diskmodel::{BlockRange, DeviceLoadStats, IoKind};
use craid_raid::Layout;
use craid_simkit::{SimDuration, SimTime};

use crate::background::{BackgroundEngine, BackgroundPriority, Batch, TaskKind};
use crate::config::{ArrayConfig, StrategyKind};
use crate::devices::{DeviceIoEvent, DeviceSet, DiskState};
use crate::error::CraidError;
use crate::fault;
use crate::monitor::MonitorStats;
use crate::partition::{ArchiveLayout, Partition, PartitionIo};
use crate::report::{FaultStats, MigrationStats};
use crate::restripe::RestripeState;
use crate::sim::gcd;

use super::{ExpansionReport, RequestReport, StorageArray};

/// A conventional array without a cache partition: either an ideally
/// restriped RAID-5 (`RAID-5`) or the aggregation of independent RAID-5 sets
/// left behind by upgrades (`RAID-5+`). Maintenance streams — rebuilds and
/// paced restripe migrations — ride on one fair-share
/// [`BackgroundEngine`](crate::background::BackgroundEngine); a paced
/// restripe streams its move set from a cursor
/// ([`RestripeState`](crate::restripe::RestripeState)) instead of
/// materialising an O(dataset) plan.
#[derive(Debug)]
pub struct BaselineArray {
    config: ArrayConfig,
    devices: DeviceSet,
    volume: Partition<ArchiveLayout>,
    disks: usize,
    expansion_sets: Vec<usize>,
    background: BackgroundEngine,
    /// The in-flight paced restripe, if any: cursor, superseded set, and
    /// the preserved pre-upgrade volume pending blocks still resolve
    /// through. At most one restripe runs at a time — a second `expand`
    /// queues in `deferred` until it drains, like serialized mdadm
    /// reshapes.
    restripe: Option<RestripeState>,
    /// Expansions accepted while a restripe was in flight; each activates
    /// (commits its layout and starts its own restripe) when the previous
    /// restripe drains — and, under
    /// [`ActivationPolicy::WaitForRepair`](crate::config::ActivationPolicy),
    /// only once the array is healthy again.
    activation: super::activation::ActivationQueue,
    fault_stats: FaultStats,
    migration_stats: MigrationStats,
}

impl BaselineArray {
    /// Builds the baseline array described by `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`CraidError`] if the configuration is invalid or the
    /// layout cannot be constructed.
    pub fn new(config: ArrayConfig) -> Result<Self, CraidError> {
        config.validate()?;
        let devices = DeviceSet::from_config(&config);
        let volume = Self::build_volume(&config, config.disks, &config.expansion_sets)?;
        let mut background =
            BackgroundEngine::with_shares(config.rebuild_share, config.migration_share);
        if let Some(spec) = &config.qos {
            // A QoS-steered array pays attention to the controller: attach
            // the throttle (at full scale) so retargets can scale pacing.
            background.attach_throttle(spec.floor);
        }
        Ok(BaselineArray {
            disks: config.disks,
            expansion_sets: config.expansion_sets.clone(),
            background,
            config,
            devices,
            volume,
            restripe: None,
            activation: super::activation::ActivationQueue::new(),
            fault_stats: FaultStats::default(),
            migration_stats: MigrationStats::default(),
        })
    }

    /// Activates queued deferred expansions whose preconditions now hold:
    /// the blocking restripe has drained and — under the wait-for-repair
    /// policy — the array is healthy. Committing a RAID-5 expansion starts
    /// a new restripe, which re-blocks the rest of the queue (one reshape
    /// at a time, like serialized mdadm grows).
    fn maybe_activate_deferred(&mut self, now: SimTime) {
        loop {
            // Committing an activation starts a new restripe, which
            // re-blocks the rest of the queue — so the gate is re-evaluated
            // every iteration.
            let blocked = self.restripe.is_some()
                || (self.config.activation == crate::config::ActivationPolicy::WaitForRepair
                    && self.devices.degraded_disk().is_some());
            let Some(added) = self.activation.pop_eligible(blocked) else {
                break;
            };
            self.commit_expansion(now, added);
            self.activation.record(now, added);
        }
    }

    fn build_volume(
        config: &ArrayConfig,
        disks: usize,
        sets: &[usize],
    ) -> Result<Partition<ArchiveLayout>, CraidError> {
        let blocks_per_disk = config.pa_blocks_per_hdd();
        let layout = if config.strategy.archive_is_aggregated() {
            ArchiveLayout::Aggregated(craid_raid::Raid5PlusLayout::new(
                sets,
                config.stripe_unit,
                blocks_per_disk,
            )?)
        } else {
            ArchiveLayout::Ideal(craid_raid::Raid5Layout::new(
                disks,
                config.parity_group,
                config.stripe_unit,
                blocks_per_disk,
            )?)
        };
        Ok(Partition::new(layout, 0, 0))
    }

    /// Fraction of logical blocks whose physical location changes between
    /// two volume layouts, estimated by sampling the used address range
    /// (the instant-expand accounting shortcut; paced restripes enumerate
    /// the exact move set via the restripe cursor instead).
    ///
    /// The walk visits `i · stride mod used` for a stride coprime to
    /// `used`: a plain `used / probes` step can resonate with the periodic
    /// round-robin layout and sample a single residue class of each stripe
    /// row, wildly mis-estimating the moved fraction. Coprimality
    /// guarantees the samples cover every residue class of any period
    /// dividing `used`.
    pub(crate) fn restripe_fraction(
        old: &Partition<ArchiveLayout>,
        new: &Partition<ArchiveLayout>,
        used: u64,
    ) -> f64 {
        let probe = used.clamp(1, 8_192);
        // A golden-ratio stride is low-discrepancy; nudge it until it is
        // coprime to `used` (1 always qualifies, so this terminates).
        let mut stride = ((used as f64 * 0.618_033_988_749_895) as u64).clamp(1, used.max(1));
        while gcd(stride, used) != 1 {
            stride -= 1;
        }
        let mut moved = 0u64;
        let mut block = 0u64;
        for _ in 0..probe {
            if old.layout().locate(block) != new.layout().locate(block) {
                moved += 1;
            }
            block = (block + stride) % used;
        }
        moved as f64 / probe as f64
    }

    /// Rewrites a plan for degraded mode when a disk is failed or
    /// rebuilding; a no-op on a healthy array. I/O planned against the
    /// pre-upgrade restripe volume also resolves correctly through the
    /// current layout's peers: a RAID-5 restripe preserves the parity
    /// group width, so old and new peer sets coincide (and RAID-5+ never
    /// migrates), unlike the CRAID cache partition whose groups can
    /// change across an expansion.
    fn degrade(&mut self, plan: Vec<PartitionIo>) -> Vec<PartitionIo> {
        let Some((failed, state)) = self.devices.degraded_disk() else {
            return plan;
        };
        let layout = self.volume.layout();
        fault::degrade_plan(
            plan,
            failed,
            state == DiskState::Rebuilding,
            |io| layout.reconstruction_peers(io.disk),
            &mut self.fault_stats,
        )
    }

    /// Issues the device I/O for the next `budget` restripe moves: advance
    /// the cursor, read each block's pre-upgrade location, write its
    /// post-upgrade home (parity maintenance included).
    fn apply_restripe_batch(&mut self, now: SimTime, budget: u64) -> Vec<DeviceIoEvent> {
        let (moved, ios) = self
            .restripe
            .as_mut()
            .expect("a restripe batch implies restripe state")
            .plan_batch(&self.volume, budget);
        self.migration_stats.migrated_blocks += moved;
        let ios = self.degrade(ios);
        let mut events = Vec::with_capacity(ios.len());
        for io in ios {
            events.push(
                self.devices
                    .submit(now, io.disk, io.kind, io.range, io.purpose),
            );
        }
        events
    }

    /// Blocks a paced restripe still has to move (0 when idle).
    pub fn pending_migration_blocks(&self) -> u64 {
        self.restripe.as_ref().map_or(0, RestripeState::pending)
    }

    /// True if `pa_block` is still awaiting migration to its post-upgrade
    /// home (tests and examples).
    pub fn migration_pending(&self, pa_block: u64) -> bool {
        self.restripe
            .as_ref()
            .is_some_and(|r| r.is_pending(&self.volume, pa_block))
    }

    /// Expansions accepted but not yet activated (queued behind an
    /// in-flight restripe).
    pub fn deferred_expansions(&self) -> usize {
        self.activation.len()
    }

    /// Performs a validated expansion: commits the new geometry and, for a
    /// paced RAID-5 restripe, starts the streaming background task.
    fn commit_expansion(&mut self, now: SimTime, added_disks: usize) -> ExpansionReport {
        let new_disks = self.disks + added_disks;
        let paced = !self.config.instant_migration();
        let (new_volume, new_sets, migrated, start_restripe) = match self.config.strategy {
            StrategyKind::Raid5 => {
                let new_volume = Self::build_volume(&self.config, new_disks, &self.expansion_sets)
                    .expect("expansion geometry was validated before commit");
                let used = self.config.dataset_blocks;
                if paced {
                    // The exact move set, *counted* but never materialised:
                    // the background walk streams it from a cursor (the
                    // paper's conventional-upgrade cost, paid over time at
                    // O(1) memory).
                    let state = RestripeState::new(self.volume.clone(), &new_volume, used);
                    let migrated = state.total_moves();
                    (
                        new_volume,
                        self.expansion_sets.clone(),
                        migrated,
                        Some(state),
                    )
                } else {
                    // Instant accounting: estimate how much of the used
                    // dataset has to move by sampling.
                    let fraction = Self::restripe_fraction(&self.volume, &new_volume, used);
                    let migrated = (fraction * used as f64).round() as u64;
                    (new_volume, self.expansion_sets.clone(), migrated, None)
                }
            }
            StrategyKind::Raid5Plus => {
                // Aggregation: the new disks form a fresh RAID-5 set, nothing
                // moves (and the load stays unbalanced — that is the point).
                let mut new_sets = self.expansion_sets.clone();
                new_sets.push(added_disks);
                let new_volume = Self::build_volume(&self.config, new_disks, &new_sets)
                    .expect("expansion geometry was validated before commit");
                (new_volume, new_sets, 0, None)
            }
            _ => unreachable!("baseline arrays only implement the two baseline strategies"),
        };

        let mut enqueued = 0;
        if let Some(mut state) = start_restripe {
            // The new layout commits now; the copies stream through the
            // background engine. Baselines have no heat signal, so the
            // restripe cursor always walks sequentially — record the
            // *effective* priority so a configured hot-first cannot be
            // mistaken for a null result.
            enqueued = state.total_moves();
            state.task = self.background.push_restripe(
                now,
                enqueued,
                self.config
                    .migration_rate_blocks_per_sec
                    .expect("paced expansions have a finite rate"),
            );
            self.restripe = Some(state);
            self.migration_stats.migrations_started += 1;
            self.migration_stats.effective_priority = Some(BackgroundPriority::Sequential);
        }
        self.volume = new_volume;
        self.expansion_sets = new_sets;
        self.devices.add_hdds(added_disks);
        self.disks = new_disks;
        ExpansionReport {
            added_disks,
            migrated_blocks: migrated,
            writeback_blocks: 0,
            enqueued_blocks: enqueued,
            deferred: false,
            events: Vec::new(),
        }
    }
}

impl StorageArray for BaselineArray {
    fn strategy(&self) -> StrategyKind {
        self.config.strategy
    }

    fn disk_count(&self) -> usize {
        self.disks
    }

    fn device_count(&self) -> usize {
        self.devices.len()
    }

    fn capacity_blocks(&self) -> u64 {
        self.volume.data_capacity()
    }

    fn pc_capacity_blocks(&self) -> u64 {
        0
    }

    fn submit(
        &mut self,
        now: SimTime,
        kind: IoKind,
        range: BlockRange,
    ) -> Result<RequestReport, CraidError> {
        if range.end() > self.volume.data_capacity() {
            return Err(CraidError::OutOfRange {
                start: range.start(),
                blocks: range.len(),
                capacity: self.volume.data_capacity(),
            });
        }
        // Mid-restripe redirection: reads of blocks the paced migration has
        // not moved yet resolve through the old layout; writes always land
        // at the new home and supersede the pending move.
        let blocks: Vec<u64> = range.blocks().collect();
        let plan = match (self.restripe.as_mut(), kind) {
            (None, _) => self.volume.plan_blocks(kind, &blocks),
            (Some(state), IoKind::Read) => {
                let (pending, settled): (Vec<u64>, Vec<u64>) = blocks
                    .iter()
                    .partition(|&&b| state.is_pending(&self.volume, b));
                let mut plan = self.volume.plan_blocks(kind, &settled);
                plan.extend(state.old.plan_blocks(kind, &pending));
                plan
            }
            (Some(state), IoKind::Write) => {
                let mut superseded = 0;
                for &b in &blocks {
                    if state.supersede(&self.volume, b) {
                        superseded += 1;
                    }
                }
                self.migration_stats.superseded_blocks += superseded;
                let forfeits = state.take_forfeits();
                let task = state.task;
                self.background.forfeit(task, forfeits);
                self.volume.plan_blocks(kind, &blocks)
            }
        };
        let mut report = RequestReport::default();
        let plan = self.degrade(plan);
        let mut finish = now;
        for io in plan {
            let event = self
                .devices
                .submit(now, io.disk, io.kind, io.range, io.purpose);
            finish = finish.max(event.finished);
            report.events.push(event);
        }
        report.response = finish.saturating_since(now);
        Ok(report)
    }

    fn expand(&mut self, now: SimTime, added_disks: usize) -> Result<ExpansionReport, CraidError> {
        // Transactional, like `CraidArray::expand`: every precondition is
        // checked before any field mutates, so a rejected expansion leaves
        // the array untouched.
        if added_disks == 0 {
            return Err(CraidError::InvalidExpansion("no disks added".into()));
        }
        let paced = !self.config.instant_migration();
        if let Some((disk, state)) = self.devices.degraded_disk() {
            // A failed disk has no data to restripe over. A *rebuilding*
            // one is fine when the upgrade is paced: the restripe fair-
            // shares the background engine with the rebuild. The instant
            // path keeps refusing, bit-for-bit with the pre-engine
            // behaviour. (The in-flight rebuild keeps the segment plan it
            // was created with — a deliberate approximation: the device is
            // unchanged, but its live share shrinks under the
            // post-expansion geometry, so rebuild traffic errs on the
            // generous side.)
            if state == DiskState::Failed || !paced {
                return Err(CraidError::InvalidExpansion(format!(
                    "disk {disk} is {state:?}; wait until the array is healthy before expanding"
                )));
            }
        }
        // Validate the geometry against the *projected* disk count so a
        // deferred expansion can never fail at activation time.
        let projected = self.disks + self.activation.pending_disks() + added_disks;
        match self.config.strategy {
            StrategyKind::Raid5 => {
                // An ideal RAID-5 stays ideal only by restriping.
                if !projected.is_multiple_of(self.config.parity_group) {
                    return Err(CraidError::InvalidExpansion(format!(
                        "RAID-5 restripe needs the disk count ({projected}) to stay a multiple of the parity group ({})",
                        self.config.parity_group
                    )));
                }
            }
            StrategyKind::Raid5Plus => {
                if added_disks < 2 {
                    return Err(CraidError::InvalidExpansion(
                        "a new RAID-5 set needs at least 2 disks".into(),
                    ));
                }
            }
            _ => unreachable!("baseline arrays only implement the two baseline strategies"),
        }
        if self.restripe.is_some() {
            // One archive reshape at a time (a cursor cannot retarget a
            // moving layout): the expansion *queues* instead of being
            // refused, and activates when the in-flight restripe drains —
            // the serialized-reshape behaviour of mdadm-style growers.
            self.activation.defer(added_disks);
            return Ok(ExpansionReport {
                added_disks,
                deferred: true,
                ..ExpansionReport::default()
            });
        }
        Ok(self.commit_expansion(now, added_disks))
    }

    fn fail_disk(&mut self, _now: SimTime, disk: usize) -> Result<(), CraidError> {
        self.devices.fail_disk(disk)?;
        self.fault_stats.disk_failures += 1;
        Ok(())
    }

    fn repair_disk(&mut self, now: SimTime, disk: usize) -> Result<(), CraidError> {
        let peers = self.volume.layout().reconstruction_peers(disk);
        // Rebuild only the live stripes: the volume's share of the dataset,
        // parity overhead included via the physical-to-logical ratio. With
        // no I/O monitor to rank heat, the baselines always stream
        // sequentially regardless of the configured priority.
        let live = fault::live_blocks(
            self.volume.layout().blocks_per_disk(),
            self.volume.data_capacity(),
            self.config.dataset_blocks,
        )
        .min(self.devices.capacity_blocks(disk))
        .max(1);
        fault::start_rebuild(
            &mut self.background,
            &mut self.devices,
            now,
            disk,
            peers,
            fault::rebuild_segments(live, Vec::new()),
            self.config.rebuild_rate_blocks_per_sec,
            &mut self.fault_stats,
        )
    }

    fn pump_background_into(&mut self, now: SimTime, events: &mut Vec<DeviceIoEvent>) {
        for batch in self.background.poll(now) {
            match batch {
                Batch::Rebuild {
                    disk,
                    peers,
                    ranges,
                    ..
                } => {
                    fault::issue_rebuild_batch(
                        now,
                        disk,
                        &peers,
                        &ranges,
                        &mut self.devices,
                        events,
                        &mut self.fault_stats,
                    );
                }
                Batch::Restripe { budget, .. } => {
                    events.extend(self.apply_restripe_batch(now, budget));
                }
                Batch::Migration { .. } => {
                    unreachable!("baseline arrays enqueue no block-list migrations")
                }
            }
        }
        for done in self.background.take_completed() {
            match done.kind {
                TaskKind::Rebuild => {
                    fault::complete_rebuild(&done, &mut self.devices, &mut self.fault_stats);
                }
                TaskKind::ExpansionMigration | TaskKind::ArchiveRestripe => {
                    // The baseline's restripe *is* its expansion migration
                    // (the conventional-upgrade cost), so it reports on the
                    // main migration line.
                    debug_assert!(
                        self.restripe.as_ref().is_some_and(RestripeState::drained),
                        "a completed restripe leaves no pending moves"
                    );
                    self.restripe = None;
                    self.migration_stats.migrations_completed += 1;
                    self.migration_stats.migration_secs += done.window_secs;
                }
            }
        }
        // A queued expansion activates the moment the reshape that blocked
        // it drains — by default even if the array has since degraded
        // (deliberate: the activation was accepted while healthy, and its
        // restripe I/O runs through `degrade` like any other traffic, so
        // the model stays total instead of stranding the queue on a disk
        // that may never be repaired). With `activation =
        // "wait-for-repair"` the activation instead holds until the
        // rebuild completes.
        self.maybe_activate_deferred(now);
    }

    fn background_work_due(&mut self, now: SimTime) -> bool {
        // Deferred expansions cannot unblock between pumps (the gating
        // reshape or rebuild completes inside one, and an empty task
        // reports "due now"), so the pacing clocks alone decide.
        self.background.work_due(now)
    }

    fn background_idle(&self) -> bool {
        // A deferred expansion blocked by wait-for-repair on a *failed*
        // disk (no rebuild task exists) counts as idle: nothing can make
        // progress until a `disk-repair` event arrives, and the
        // end-of-trace drain must not spin on it.
        self.background.is_idle()
            && self.activation.idle_under(
                self.config.activation,
                self.devices.degraded_disk().is_some(),
            )
    }

    fn set_background_throttle(&mut self, now: SimTime, scale: f64) {
        self.background.set_throttle(now, scale);
    }

    fn take_activations(&mut self) -> Vec<super::ActivatedExpansion> {
        self.activation.take_activations()
    }

    fn background_drain_eta(&self) -> Option<SimTime> {
        self.background.drain_eta()
    }

    fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    fn migration_stats(&self) -> MigrationStats {
        MigrationStats {
            pending_blocks: self.pending_migration_blocks(),
            ..self.migration_stats
        }
    }

    fn device_stats(&self) -> Vec<DeviceLoadStats> {
        self.devices.load_stats()
    }

    fn monitor_stats(&self) -> Option<MonitorStats> {
        None
    }
}

impl BaselineArray {
    /// Mean response time observed so far across all devices — a cheap
    /// smoke-test accessor used by examples.
    pub fn mean_device_busy(&self) -> SimDuration {
        let stats = self.devices.load_stats();
        let total: SimDuration = stats.iter().map(|s| s.busy).sum();
        total / stats.len().max(1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craid_raid::{round_robin_migration_blocks, IoPurpose};

    fn array(strategy: StrategyKind) -> BaselineArray {
        BaselineArray::new(ArrayConfig::small_test(strategy, 10_000)).unwrap()
    }

    fn paced(strategy: StrategyKind, rate: f64) -> BaselineArray {
        BaselineArray::new(
            ArrayConfig::small_test(strategy, 10_000).with_migration_rate(Some(rate)),
        )
        .unwrap()
    }

    fn drain(a: &mut BaselineArray, mut t: f64) -> f64 {
        while !a.background_idle() && t < 5_000.0 {
            a.pump_background(SimTime::from_secs(t));
            t += 1.0;
        }
        assert!(a.background_idle());
        t
    }

    #[test]
    fn read_touches_only_data_disks() {
        let mut a = array(StrategyKind::Raid5);
        let report = a
            .submit(SimTime::ZERO, IoKind::Read, BlockRange::new(0, 4))
            .unwrap();
        assert!(report.response > SimDuration::ZERO);
        assert!(report.events.iter().all(|e| e.kind == IoKind::Read));
        assert_eq!(report.cache_hit_blocks, 0);
    }

    #[test]
    fn write_pays_parity_maintenance() {
        let mut a = array(StrategyKind::Raid5);
        let report = a
            .submit(SimTime::ZERO, IoKind::Write, BlockRange::new(100, 2))
            .unwrap();
        assert!(report
            .events
            .iter()
            .any(|e| e.purpose == IoPurpose::ParityWrite));
        let read_resp = array(StrategyKind::Raid5)
            .submit(SimTime::ZERO, IoKind::Read, BlockRange::new(100, 2))
            .unwrap()
            .response;
        assert!(
            report.response > read_resp,
            "RMW writes cost more than reads"
        );
    }

    #[test]
    fn raid5plus_spreads_sets_over_disjoint_disks() {
        let mut a = array(StrategyKind::Raid5Plus);
        // The first set owns disks 0..4: a low address only touches those.
        let report = a
            .submit(SimTime::ZERO, IoKind::Read, BlockRange::new(0, 4))
            .unwrap();
        assert!(report.events.iter().all(|e| e.device < 4));
    }

    #[test]
    fn out_of_range_requests_are_rejected() {
        let mut a = array(StrategyKind::Raid5);
        let cap = a.capacity_blocks();
        let err = a
            .submit(SimTime::ZERO, IoKind::Read, BlockRange::new(cap, 1))
            .unwrap_err();
        assert!(matches!(err, CraidError::OutOfRange { .. }));
    }

    #[test]
    fn raid5_expansion_migrates_most_of_the_dataset() {
        let mut a = array(StrategyKind::Raid5);
        let report = a.expand(SimTime::ZERO, 4).unwrap();
        assert_eq!(a.disk_count(), 12);
        assert!(
            report.migrated_blocks as f64 > 0.5 * 10_000.0,
            "an ideal restripe moves most used blocks, got {}",
            report.migrated_blocks
        );
        // The array still serves requests afterwards.
        assert!(a
            .submit(SimTime::ZERO, IoKind::Read, BlockRange::new(0, 4))
            .is_ok());
    }

    #[test]
    fn restripe_fraction_estimate_tracks_the_exact_move_count() {
        // An adversarial `used`: a multiple of both layouts' row widths
        // times the probe count, so the old `used / 8192` sampling stride
        // walked whole stripe rows and probed a single residue class. The
        // coprime-stride sampler stays within a point of the exact
        // fraction from `round_robin_migration_blocks`.
        let config = ArrayConfig::small_test(StrategyKind::Raid5, 10_000);
        let old = BaselineArray::build_volume(&config, 8, &[]).unwrap();
        let new = BaselineArray::build_volume(&config, 12, &[]).unwrap();
        // Old rows carry (8-2)*4 = 24 data blocks, new rows (12-3)*4 = 36;
        // lcm(24, 36) = 72.
        let used = 8_192 * 72;
        assert!(used <= old.data_capacity() && used <= new.data_capacity());
        let exact =
            round_robin_migration_blocks(old.layout(), new.layout(), used) as f64 / used as f64;
        let estimate = BaselineArray::restripe_fraction(&old, &new, used);
        assert!(
            (estimate - exact).abs() < 0.02,
            "estimate {estimate:.4} strays from exact {exact:.4} on a stride-resonant geometry"
        );
        // And on a small range it degenerates gracefully.
        assert!(BaselineArray::restripe_fraction(&old, &new, 1) <= 1.0);
    }

    #[test]
    fn raid5plus_expansion_migrates_nothing() {
        let mut a = array(StrategyKind::Raid5Plus);
        let cap_before = a.capacity_blocks();
        let report = a.expand(SimTime::ZERO, 4).unwrap();
        assert_eq!(report.migrated_blocks, 0);
        assert_eq!(a.disk_count(), 12);
        assert!(a.capacity_blocks() > cap_before);
    }

    #[test]
    fn invalid_expansions_are_rejected() {
        let mut a = array(StrategyKind::Raid5Plus);
        assert!(a.expand(SimTime::ZERO, 0).is_err());
        assert!(
            a.expand(SimTime::ZERO, 1).is_err(),
            "a one-disk RAID-5 set is not valid"
        );
        let mut a = array(StrategyKind::Raid5);
        assert!(
            a.expand(SimTime::ZERO, 3).is_err(),
            "restripe must keep the parity group alignment"
        );
    }

    #[test]
    fn rejected_expansion_leaves_the_baseline_bit_identical() {
        for (strategy, bad_added) in [(StrategyKind::Raid5, 3), (StrategyKind::Raid5Plus, 1)] {
            let mut touched = array(strategy);
            let mut pristine = array(strategy);
            for b in 0..30u64 {
                for a in [&mut touched, &mut pristine] {
                    a.submit(
                        SimTime::from_millis(b as f64 * 7.0),
                        IoKind::Write,
                        BlockRange::new(b * 32 % 9_000, 2),
                    )
                    .unwrap();
                }
            }
            assert!(touched.expand(SimTime::from_secs(1.0), bad_added).is_err());
            assert_eq!(touched.disk_count(), pristine.disk_count(), "{strategy}");
            assert_eq!(touched.capacity_blocks(), pristine.capacity_blocks());
            assert_eq!(touched.expansion_sets, pristine.expansion_sets);
            assert_eq!(touched.device_stats(), pristine.device_stats());
            // Subsequent traffic behaves byte-identically on both arrays.
            let now = SimTime::from_secs(2.0);
            let got = touched
                .submit(now, IoKind::Read, BlockRange::new(123, 5))
                .unwrap();
            let want = pristine
                .submit(now, IoKind::Read, BlockRange::new(123, 5))
                .unwrap();
            assert_eq!(got, want, "{strategy} diverged after the failed expand");
            // A valid expansion still succeeds afterwards.
            assert!(touched.expand(SimTime::from_secs(3.0), 4).is_ok());
        }
    }

    #[test]
    fn degraded_reads_fan_out_within_the_owning_raid5plus_set() {
        use craid_raid::IoPurpose as P;
        let mut a = array(StrategyKind::Raid5Plus); // sets [4, 4]
        a.fail_disk(SimTime::ZERO, 1).unwrap();
        // A low address lives in set 0 (disks 0..4): its degraded read is
        // reconstructed from that set only.
        let report = a
            .submit(SimTime::ZERO, IoKind::Read, BlockRange::new(0, 8))
            .unwrap();
        let recon: Vec<_> = report
            .events
            .iter()
            .filter(|e| e.purpose == P::ReconstructRead)
            .collect();
        assert!(!recon.is_empty(), "disk 1 held part of the range");
        assert!(recon.iter().all(|e| e.device < 4 && e.device != 1));
        assert!(report.events.iter().all(|e| e.device != 1));
        assert!(a.fault_stats().degraded_reads > 0);
        // Expansion is refused while degraded (instant-migration mode)...
        assert!(matches!(
            a.expand(SimTime::from_secs(1.0), 4),
            Err(CraidError::InvalidExpansion(_))
        ));
        // ...and allowed again once the spare is in and rebuilt.
        let mut cfg = ArrayConfig::small_test(StrategyKind::Raid5Plus, 10_000);
        cfg.rebuild_rate_blocks_per_sec = 10_000_000.0;
        let mut b = BaselineArray::new(cfg).unwrap();
        b.fail_disk(SimTime::ZERO, 1).unwrap();
        b.repair_disk(SimTime::from_secs(1.0), 1).unwrap();
        let mut t = 2.0;
        while b.fault_stats().rebuilds_completed == 0 && t < 50.0 {
            b.pump_background(SimTime::from_secs(t));
            b.submit(SimTime::from_secs(t), IoKind::Read, BlockRange::new(0, 2))
                .unwrap();
            t += 1.0;
        }
        assert_eq!(b.fault_stats().rebuilds_completed, 1);
        assert!(b.fault_stats().rebuild_read_blocks > 0);
        assert!(b.expand(SimTime::from_secs(t), 4).is_ok());
    }

    #[test]
    fn device_stats_accumulate() {
        let mut a = array(StrategyKind::Raid5);
        for i in 0..20u64 {
            a.submit(
                SimTime::from_millis(i as f64 * 10.0),
                IoKind::Read,
                BlockRange::new(i * 37 % 9_000, 4),
            )
            .unwrap();
        }
        let stats = a.device_stats();
        assert_eq!(stats.len(), 8);
        let total: u64 = stats.iter().map(|s| s.requests).sum();
        assert!(total >= 20);
        assert!(a.mean_device_busy() > SimDuration::ZERO);
        assert!(a.monitor_stats().is_none());
    }

    #[test]
    fn paced_restripe_serves_pending_blocks_from_the_old_layout() {
        let mut a = paced(StrategyKind::Raid5, 100.0);
        let old_volume = a.volume.clone();
        let report = a.expand(SimTime::from_secs(1.0), 4).unwrap();
        assert_eq!(a.disk_count(), 12, "the layout committed immediately");
        assert!(report.enqueued_blocks > 0);
        assert!(!report.deferred);
        assert_eq!(
            report.enqueued_blocks, report.migrated_blocks,
            "paced restripes count the exact move set"
        );
        assert_eq!(a.pending_migration_blocks(), report.enqueued_blocks);
        assert_eq!(
            a.migration_stats().effective_priority,
            Some(BackgroundPriority::Sequential),
            "baselines report the effective (sequential) order"
        );
        // A pending block still reads from its pre-upgrade location.
        let pending = (0..10_000u64)
            .find(|&b| a.migration_pending(b))
            .expect("an 8→12 restripe moves blocks");
        let old_plan = old_volume.plan_blocks(IoKind::Read, &[pending]);
        let new_plan = a.volume.plan_blocks(IoKind::Read, &[pending]);
        assert_ne!(old_plan, new_plan, "the block's location changed");
        let r = a
            .submit(
                SimTime::from_secs(1.5),
                IoKind::Read,
                BlockRange::new(pending, 1),
            )
            .unwrap();
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.events[0].device, old_plan[0].disk);
        assert_eq!(r.events[0].start_block, old_plan[0].range.start());
        // A write supersedes the pending move and lands at the new home.
        let before = a.pending_migration_blocks();
        let w = a
            .submit(
                SimTime::from_secs(2.0),
                IoKind::Write,
                BlockRange::new(pending, 1),
            )
            .unwrap();
        assert_eq!(a.pending_migration_blocks(), before - 1);
        assert!(a.migration_stats().superseded_blocks >= 1);
        assert!(
            w.events
                .iter()
                .any(|e| e.device == new_plan[0].disk
                    && e.start_block == new_plan[0].range.start()),
            "the write targets the post-upgrade home"
        );
    }

    #[test]
    fn paced_restripe_drains_and_reports_the_window() {
        let mut a = paced(StrategyKind::Raid5, 100_000.0);
        a.expand(SimTime::from_secs(1.0), 4).unwrap();
        let mut t = 2.0;
        let mut saw_migration_io = false;
        while !a.background_idle() && t < 400.0 {
            let events = a.pump_background(SimTime::from_secs(t));
            saw_migration_io |= events.iter().any(|e| e.purpose.is_migration());
            t += 1.0;
        }
        assert!(a.background_idle());
        assert!(saw_migration_io);
        let stats = a.migration_stats();
        assert_eq!(stats.migrations_completed, 1);
        assert_eq!(stats.pending_blocks, 0);
        assert!(stats.migration_secs > 0.0, "a nonzero upgrade window");
        assert!(
            stats.migrated_blocks + stats.superseded_blocks >= 5_000,
            "most of the dataset moved"
        );
        // After the drain, reads resolve purely through the new layout.
        assert!(a
            .submit(SimTime::from_secs(t), IoKind::Read, BlockRange::new(0, 4))
            .is_ok());
    }

    #[test]
    fn paced_restripe_streams_paper_scale_datasets_without_materialising() {
        // 4M used blocks: the pre-cursor implementation collected a Vec of
        // millions of move entries *and* mirrored them into a pending map
        // at expand time. The streaming restripe keeps O(1) state — this
        // test would exhaust test-runner memory budgets (and minutes of
        // BTreeMap churn) under the old scheme, and the expand itself now
        // only pays one counting pass.
        let dataset: u64 = 4_000_000;
        let config =
            ArrayConfig::small_test(StrategyKind::Raid5, dataset).with_migration_rate(Some(1e6));
        let mut a = BaselineArray::new(config).unwrap();
        let report = a.expand(SimTime::from_secs(1.0), 4).unwrap();
        assert!(
            report.enqueued_blocks > 3_000_000,
            "nearly the whole dataset restripes, got {}",
            report.enqueued_blocks
        );
        assert_eq!(a.pending_migration_blocks(), report.enqueued_blocks);
        // The engine tracks a bare count; a few pumps stream capped batches.
        let events = a.pump_background(SimTime::from_secs(3.0));
        assert!(events.iter().any(|e| e.purpose.is_migration()));
        assert!(a.pending_migration_blocks() < report.enqueued_blocks);
        // Requests against pending and settled blocks both resolve.
        a.submit(SimTime::from_secs(3.5), IoKind::Read, BlockRange::new(0, 8))
            .unwrap();
        a.submit(
            SimTime::from_secs(3.6),
            IoKind::Write,
            BlockRange::new(dataset - 8, 8),
        )
        .unwrap();
        let stats = a.migration_stats();
        assert_eq!(
            stats.migrated_blocks + stats.superseded_blocks + stats.pending_blocks,
            report.enqueued_blocks
        );
    }

    #[test]
    fn second_expansion_queues_behind_the_restripe_and_activates() {
        let mut a = paced(StrategyKind::Raid5, 50_000.0);
        let first = a.expand(SimTime::from_secs(1.0), 4).unwrap();
        assert!(!first.deferred);
        // The second expand queues instead of being refused.
        let second = a.expand(SimTime::from_secs(2.0), 4).unwrap();
        assert!(second.deferred);
        assert_eq!(a.deferred_expansions(), 1);
        assert_eq!(a.disk_count(), 12, "the deferred layout is not committed");
        // A geometry that would break the *projected* count is still
        // rejected up front (12 + 4 + 3 = 19 is not a multiple of 4).
        assert!(a.expand(SimTime::from_secs(2.5), 3).is_err());
        let t = drain(&mut a, 3.0);
        assert_eq!(a.disk_count(), 16, "the queued expansion activated");
        assert_eq!(a.deferred_expansions(), 0);
        let stats = a.migration_stats();
        assert_eq!(stats.migrations_started, 2);
        assert_eq!(stats.migrations_completed, 2);
        assert_eq!(stats.pending_blocks, 0);
        assert!(a
            .submit(SimTime::from_secs(t), IoKind::Read, BlockRange::new(0, 4))
            .is_ok());
    }

    #[test]
    fn paced_raid5plus_expansion_still_moves_nothing() {
        let mut a = paced(StrategyKind::Raid5Plus, 100.0);
        let report = a.expand(SimTime::from_secs(1.0), 4).unwrap();
        assert_eq!(report.enqueued_blocks, 0);
        assert!(a.background_idle(), "no task for a zero-move upgrade");
        assert_eq!(a.migration_stats().migrations_started, 0);
    }

    #[test]
    fn fail_during_paced_migration_fair_shares_with_the_rebuild() {
        let mut cfg = ArrayConfig::small_test(StrategyKind::Raid5, 10_000)
            .with_migration_rate(Some(1_000_000.0));
        cfg.rebuild_rate_blocks_per_sec = 1_000_000.0;
        let mut a = BaselineArray::new(cfg).unwrap();
        a.expand(SimTime::from_secs(1.0), 4).unwrap();
        assert!(!a.background_idle());
        // The failure arrives mid-migration; the repair's rebuild runs
        // *concurrently* with the restripe on the fair-share engine.
        a.fail_disk(SimTime::from_secs(1.5), 3).unwrap();
        a.repair_disk(SimTime::from_secs(2.0), 3).unwrap();
        assert!(a.background.has_task(TaskKind::ArchiveRestripe));
        assert!(a.background.has_task(TaskKind::Rebuild));
        // One pump with both saturated advances both streams.
        let migrated_before = a.migration_stats().migrated_blocks;
        let rebuilt_before = a.fault_stats().rebuild_write_blocks;
        a.pump_background(SimTime::from_secs(2.5));
        assert!(a.migration_stats().migrated_blocks > migrated_before);
        assert!(a.fault_stats().rebuild_write_blocks > rebuilt_before);
        let _ = drain(&mut a, 3.0);
        assert_eq!(a.migration_stats().migrations_completed, 1);
        assert_eq!(a.fault_stats().rebuilds_completed, 1);
        assert_eq!(a.devices.degraded_disk(), None, "the array healed");
    }
}
