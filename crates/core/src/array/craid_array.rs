//! The simulated array: archive partition, optional cache partition and
//! control path.

use std::collections::BTreeMap;

use craid_diskmodel::{BlockRange, DeviceLoadStats, IoKind};
use craid_raid::{IoPurpose, Layout, Raid5Layout, Raid5PlusLayout};
use craid_simkit::SimTime;

use crate::background::{BackgroundEngine, BackgroundPriority, Batch, TaskId, TaskKind};
use crate::config::{ArrayConfig, StrategyKind};
use crate::devices::{DeviceIoEvent, DeviceSet, DiskState};
use crate::error::CraidError;
use crate::fault;
use crate::mapping::{MigrationMap, OldHome};
use crate::monitor::{IoMonitor, MonitorStats};
use crate::partition::{ArchiveLayout, CachePartition, Partition, PartitionIo};
use crate::redirector::{self, ArchiveAccess, PlanScratch};
use crate::report::{FaultStats, MigrationStats};
use crate::restripe::RestripeState;
use crate::sim::gcd;

use super::{ExpansionReport, RequestReport, StorageArray};

/// True when a pending-map entry of `entry` generation may be consumed by
/// migration task `task`. Production requires an exact match — the guard
/// PR 4 added after an older task was caught consuming a newer generation's
/// entry and migrating the block with a stale geometry. The test-only fault
/// hook ([`crate::choice::faults`]) re-opens exactly that hole so the model
/// checker can demonstrate it finds the bug.
fn generation_matches(entry: TaskId, task: TaskId) -> bool {
    #[cfg(test)]
    if crate::choice::faults::stale_generation_guard_disabled() {
        return true;
    }
    entry == task
}

/// How a request reaches the archive: while a paced restripe is in flight,
/// through the pre-upgrade volume for the blocks it has not moved yet.
fn archive_access<'a>(
    pa: &'a Partition<ArchiveLayout>,
    restripe: &'a mut Option<RestripeState>,
) -> ArchiveAccess<'a> {
    match restripe.as_mut() {
        Some(state) => ArchiveAccess::Restriping {
            current: pa,
            restripe: state,
        },
        None => ArchiveAccess::Plain(pa),
    }
}

/// The cache side of a CRAID volume: the cache partition `PC`, the I/O
/// monitor that decides which blocks live in it, and the bookkeeping of
/// paced upgrades that redistribute it.
#[derive(Debug)]
struct CacheTier {
    monitor: IoMonitor,
    pc: CachePartition,
    /// Blocks paced upgrades have not yet redistributed, keyed by archive
    /// LBA; each entry names the migration generation whose preserved
    /// geometry in `generations` its slot refers to.
    migration: MigrationMap,
    /// The in-flight paced redistributions, keyed by their migration task.
    /// Several can be live at once: a second `expand` may start its own PC
    /// redistribution while an earlier one is still streaming (the
    /// exactly-one-location invariant keeps their block sets disjoint).
    generations: BTreeMap<TaskId, Generation>,
}

/// One paced cache-partition redistribution: the pre-upgrade geometry its
/// pending blocks' old slots refer to, and the order the engine's budgets
/// walk its drained blocks in.
#[derive(Debug)]
struct Generation {
    old_pc: CachePartition,
    /// The drained blocks in issue order (hottest first, or ascending).
    order: Vec<u64>,
    /// How far the engine's budgets have walked `order`.
    cursor: usize,
}

impl Generation {
    /// The next `budget` blocks of the issue order; the cursor moves past
    /// them. The engine counts the order's length, so a budget never runs
    /// past its end.
    fn take(&mut self, budget: u64) -> &[u64] {
        let from = self.cursor;
        self.cursor += budget as usize;
        &self.order[from..self.cursor]
    }
}

/// A simulated volume: the archive partition `PA` holds every block and,
/// for the CRAID strategies, the cache partition `PC` holds copies of the
/// hot set while the monitor/redirector pair keeps the two coherent (paper
/// §3–4). Without a cache partition this is the paper's RAID-5 baseline
/// (an ideally restriped archive) or RAID-5+ baseline (the aggregation of
/// independent RAID-5 sets left behind by upgrades). Maintenance streams —
/// rebuilds, paced upgrade migrations and paced archive restripes — ride
/// on one fair-share [`BackgroundEngine`].
#[derive(Debug)]
pub struct CraidArray {
    config: ArrayConfig,
    devices: DeviceSet,
    /// The cache-side state; `None` for `RAID-5` and `RAID-5+`.
    cache: Option<CacheTier>,
    pa: Partition<ArchiveLayout>,
    disks: usize,
    expansion_sets: Vec<usize>,
    background: BackgroundEngine,
    /// Planning buffers every request and every background batch reuses
    /// (cleared, never shrunk), so neither allocates once warm.
    scratch: PlanScratch,
    /// The in-flight paced archive restripe (ideal archives only: growing
    /// one onto more disks reshapes nearly every used block — the cost the
    /// paper charges to conventional upgrades). The restripe cursor keeps
    /// O(1) state instead of materialising an O(dataset) move set.
    archive_restripe: Option<RestripeState>,
    /// Expansions accepted while an archive restripe was in flight; each
    /// activates when the restripe drains (a reshape cursor cannot retarget
    /// a moving layout, so ideal-archive upgrades serialize like mdadm
    /// reshapes, while the aggregated `+` variants pipeline freely) — and,
    /// under [`ActivationPolicy::WaitForRepair`](crate::config::ActivationPolicy),
    /// only once the array is healthy again.
    activation: super::activation::ActivationQueue,
    fault_stats: FaultStats,
    /// Counters as the array records them: every archive restripe on the
    /// `archive_*` line. [`StorageArray::migration_stats`] reports them.
    migration_stats: MigrationStats,
    /// The surviving parity-group members the in-flight rebuild reads
    /// from, as `repair_disk` computed them (one disk fails at a time, so
    /// at most one rebuild is live).
    rebuild_peers: Vec<usize>,
}

impl CraidArray {
    /// Builds the array described by `config`, with a cache partition when
    /// the strategy is a CRAID one.
    ///
    /// # Errors
    ///
    /// Returns a [`CraidError`] if the configuration is invalid or a layout
    /// cannot be constructed.
    pub fn new(config: ArrayConfig) -> Result<Self, CraidError> {
        config.validate()?;
        let devices = DeviceSet::from_config(&config);
        let cache = if config.strategy.is_craid() {
            let pc = Self::build_pc(&config, config.disks)?;
            Some(CacheTier {
                monitor: IoMonitor::new(config.policy, pc.capacity()),
                pc,
                migration: MigrationMap::new(),
                generations: BTreeMap::new(),
            })
        } else {
            None
        };
        let pa = Self::build_pa(&config, config.disks, &config.expansion_sets)?;
        let mut background =
            BackgroundEngine::with_shares(config.rebuild_share, config.migration_share);
        if let Some(spec) = &config.qos {
            // A QoS-steered array pays attention to the controller: attach
            // the throttle (at full scale) so retargets can scale pacing.
            background.attach_throttle(spec.floor);
        }
        Ok(CraidArray {
            disks: config.disks,
            expansion_sets: config.expansion_sets.clone(),
            background,
            scratch: PlanScratch::default(),
            config,
            devices,
            cache,
            pa,
            archive_restripe: None,
            activation: super::activation::ActivationQueue::new(),
            fault_stats: FaultStats::default(),
            migration_stats: MigrationStats::default(),
            rebuild_peers: Vec::new(),
        })
    }

    /// Activates queued deferred expansions whose preconditions now hold:
    /// the blocking archive restripe has drained and — under the
    /// wait-for-repair policy — the array is healthy. Committing an
    /// ideal-archive expansion starts a new restripe, which re-blocks the
    /// rest of the queue (one reshape at a time, like serialized mdadm
    /// grows).
    fn maybe_activate_deferred(&mut self, now: SimTime) {
        loop {
            // Committing an activation may start a new restripe, which
            // re-blocks the rest of the queue — so the gate is re-evaluated
            // every iteration.
            let blocked = self.archive_restripe.is_some()
                || (self.config.activation == crate::config::ActivationPolicy::WaitForRepair
                    && self.devices.degraded_disk().is_some());
            let Some(added) = self.activation.pop_eligible(blocked) else {
                break;
            };
            self.commit_expansion(now, added);
            self.activation.record(now, added);
        }
    }

    fn build_pc(config: &ArrayConfig, disks: usize) -> Result<CachePartition, CraidError> {
        if config.strategy.uses_ssd_cache() {
            let layout = Raid5Layout::new(
                config.ssd_cache_devices,
                config.ssd_cache_devices,
                config.stripe_unit,
                config.pc_blocks_per_ssd(),
            )?;
            // SSDs are addressed after all mechanical disks.
            Ok(CachePartition::new(layout, disks, 0))
        } else {
            let layout = Raid5Layout::new(
                disks,
                config.parity_group,
                config.stripe_unit,
                config.pc_blocks_per_hdd(),
            )?;
            Ok(CachePartition::new(layout, 0, 0))
        }
    }

    fn build_pa(
        config: &ArrayConfig,
        disks: usize,
        sets: &[usize],
    ) -> Result<Partition<ArchiveLayout>, CraidError> {
        let blocks_per_disk = config.pa_blocks_per_hdd();
        let offset = config.pc_blocks_per_hdd();
        let layout = if config.strategy.archive_is_aggregated() {
            ArchiveLayout::Aggregated(Raid5PlusLayout::new(
                sets,
                config.stripe_unit,
                blocks_per_disk,
            )?)
        } else {
            ArchiveLayout::Ideal(Raid5Layout::new(
                disks,
                config.parity_group,
                config.stripe_unit,
                blocks_per_disk,
            )?)
        };
        Ok(Partition::new(layout, 0, offset))
    }

    /// Fraction of logical blocks whose physical location changes between
    /// two archive layouts, estimated by sampling the used address range
    /// (the instant-expand accounting shortcut of an array without a cache
    /// partition; paced restripes enumerate the exact move set via the
    /// restripe cursor instead).
    ///
    /// The walk visits `i · stride mod used` for a stride coprime to
    /// `used`: a plain `used / probes` step can resonate with the periodic
    /// round-robin layout and sample a single residue class of each stripe
    /// row, wildly mis-estimating the moved fraction. Coprimality
    /// guarantees the samples cover every residue class of any period
    /// dividing `used`.
    fn restripe_fraction(
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

    /// Writes back a set of dirty blocks from `pc` to `pa` (used by the
    /// instant upgrade invalidation): the copies are read from `pc`, then
    /// written with their parity in `pa`.
    fn write_back(
        devices: &mut DeviceSet,
        pc: &CachePartition,
        pa: &Partition<ArchiveLayout>,
        now: SimTime,
        tasks: &[crate::monitor::EvictionTask],
        scratch: &mut PlanScratch,
        report: &mut ExpansionReport,
    ) {
        scratch.writeback_slots.clear();
        scratch
            .writeback_slots
            .extend(tasks.iter().map(|t| t.pc_slot));
        scratch.writeback_pa_blocks.clear();
        scratch
            .writeback_pa_blocks
            .extend(tasks.iter().map(|t| t.pa_block));
        let ios = &mut scratch.background;
        ios.clear();
        pc.plan_blocks_into(
            IoKind::Read,
            &scratch.writeback_slots,
            &mut scratch.archive.buffers,
            ios,
        );
        pa.plan_blocks_into(
            IoKind::Write,
            &scratch.writeback_pa_blocks,
            &mut scratch.archive.buffers,
            ios,
        );
        devices.issue(now, ios, &mut report.events);
        report.writeback_blocks += tasks.len() as u64;
    }

    /// Physical blocks per mechanical disk that actually hold data or
    /// parity — the live region a rebuild must reconstruct: the PC rows
    /// plus the archive's share of the scattered dataset (parity overhead
    /// included via the physical-to-logical ratio). Rebuilding only live
    /// stripes is the data-aware counterpart of CRAID's upgrade story.
    fn live_blocks_per_hdd(&self) -> u64 {
        let pa_live = fault::live_blocks(
            self.pa.layout().blocks_per_disk(),
            self.pa.data_capacity(),
            self.config.dataset_blocks,
        );
        self.config.pc_blocks_per_hdd() + pa_live
    }

    /// The order a rebuild of `disk` streams its `live` physical blocks in:
    /// sequential, or — under `HotFirst` with a monitor to rank heat — the
    /// cache-partition rows first, then the hottest archive stripes this
    /// disk holds (at most [`fault::MAX_HOT_REBUILD_BLOCKS`] of them), then
    /// the cold remainder. Every segment ends within `live`.
    fn rebuild_plan(&self, disk: usize, live: u64) -> Vec<BlockRange> {
        let mut hot = Vec::new();
        if let (BackgroundPriority::HotFirst, Some(cache)) =
            (self.config.background_priority, &self.cache)
        {
            let pc_limit = self.config.pc_blocks_per_hdd();
            if pc_limit > 0 {
                hot.push(BlockRange::new(0, pc_limit));
            }
            // Rank globally, filter to this disk, and only then cap — so
            // the cap bounds the blocks this rebuild front-loads, not a
            // share of a global list diluted by the other disks.
            let mut physical: Vec<u64> = cache
                .monitor
                .hottest_blocks(usize::MAX)
                .into_iter()
                .filter_map(|pa_block| {
                    let loc = self.pa.layout().locate(pa_block);
                    (loc.disk == disk).then_some(loc.block + self.pa.block_offset())
                })
                .collect();
            physical.truncate(fault::MAX_HOT_REBUILD_BLOCKS);
            physical.sort_unstable();
            physical.dedup();
            hot.extend(fault::merge_blocks_to_ranges(&physical));
        }
        fault::prioritized_segments(live, hot)
    }

    /// Forwards supersessions the redirector recorded against the archive
    /// restripe to the engine (as forfeited stream work) and the stats.
    fn flush_archive_forfeits(&mut self) {
        if let Some(state) = self.archive_restripe.as_mut() {
            let n = state.take_forfeits();
            if n > 0 {
                self.migration_stats.archive_superseded_blocks += n;
                self.background.forfeit(state.task, n);
            }
        }
    }

    /// Issues the device I/O moving the next `budget` queued blocks of
    /// migration `id` into the rebuilt cache partition: read the
    /// pre-upgrade copy from its old slot, re-admit it (dirty bit
    /// preserved), write the new slot, and pay the write-backs of whatever
    /// the re-admissions displaced. The device events are appended to
    /// `events`.
    fn apply_migration_batch(
        &mut self,
        now: SimTime,
        id: TaskId,
        budget: u64,
        events: &mut Vec<DeviceIoEvent>,
    ) {
        // Only a cache partition enqueues migrations.
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        // First settle the bookkeeping (map removal, re-admission,
        // displaced evictions), then plan the I/O — re-admitting first
        // means a block that turns out superseded never issues a phantom
        // old-slot read, and the planning pass can borrow the generation's
        // preserved geometry in place instead of cloning it per batch.
        let scratch = &mut self.scratch;
        scratch.moves.clear();
        scratch.writeback_slots.clear();
        scratch.writeback_pa_blocks.clear();
        let generation = cache
            .generations
            .get_mut(&id)
            .expect("a migration task implies its generation");
        for &pa_block in generation.take(budget) {
            // A block no longer pending *for this generation* was superseded
            // by client traffic (already counted) — the engine's budget
            // simply skips over it. The block may since have re-entered the
            // map under a *later* generation (client re-warmed it, then a
            // queued second expansion drained it again); that entry belongs
            // to the newer task, so this one must leave it alone.
            let home = match cache.migration.get(pa_block) {
                Some(home) if generation_matches(home.generation, id) => {
                    crate::choice::observe(|| crate::choice::Observation::MigrationApply {
                        block: pa_block,
                        entry_generation: home.generation,
                        task_generation: id,
                    });
                    cache.migration.remove(pa_block);
                    home
                }
                _ => continue,
            };
            let old_slot = home.pc_slot;
            let Some((new_slot, evictions)) =
                cache.monitor.readmit(pa_block, home.dirty, &mut cache.pc)
            else {
                // Residency raced ahead of the map — treat as superseded.
                self.migration_stats.superseded_blocks += 1;
                continue;
            };
            scratch.moves.push((old_slot, new_slot));
            self.migration_stats.migrated_blocks += 1;
            for task in evictions {
                if task.dirty {
                    self.migration_stats.writeback_blocks += 1;
                    scratch.writeback_slots.push(task.pc_slot);
                    scratch.writeback_pa_blocks.push(task.pa_block);
                }
            }
        }
        let old_pc = &cache.generations[&id].old_pc;
        let mut old_ios = std::mem::take(&mut scratch.foreground);
        let mut new_ios = std::mem::take(&mut scratch.background);
        old_ios.clear();
        new_ios.clear();
        let buffers = &mut scratch.archive.buffers;
        for &(old_slot, new_slot) in &scratch.moves {
            let from = old_ios.len();
            old_pc.plan_blocks_into(IoKind::Read, &[old_slot], buffers, &mut old_ios);
            for io in &mut old_ios[from..] {
                io.purpose = IoPurpose::MigrateRead;
            }
            let from = new_ios.len();
            cache
                .pc
                .plan_blocks_into(IoKind::Write, &[new_slot], buffers, &mut new_ios);
            for io in &mut new_ios[from..] {
                if io.purpose == IoPurpose::Data {
                    io.purpose = IoPurpose::MigrateWrite;
                }
            }
        }
        cache.pc.plan_blocks_into(
            IoKind::Read,
            &scratch.writeback_slots,
            buffers,
            &mut new_ios,
        );
        // Displaced dirty write-backs land at the archive's reshaped homes
        // and supersede any pending restripe moves of the same blocks.
        if let Some(state) = self.archive_restripe.as_mut() {
            for &b in &scratch.writeback_pa_blocks {
                state.supersede(&self.pa, b);
            }
        }
        self.pa.plan_blocks_into(
            IoKind::Write,
            &scratch.writeback_pa_blocks,
            buffers,
            &mut new_ios,
        );
        self.flush_archive_forfeits();
        // Old-geometry reads reconstruct via the old parity groups; the
        // rest via the current layouts.
        self.degrade(&mut old_ios, 0, Some(id));
        self.degrade(&mut new_ios, 0, None);
        self.devices.issue(now, &old_ios, events);
        self.devices.issue(now, &new_ios, events);
        self.scratch.foreground = old_ios;
        self.scratch.background = new_ios;
    }

    /// Issues the device I/O reconstructing `ranges` of `disk` onto its hot
    /// spare: per range, a read from every surviving peer, then the spare's
    /// write. The device events are appended to `events`.
    fn apply_rebuild_batch(
        &mut self,
        now: SimTime,
        disk: usize,
        ranges: &[BlockRange],
        events: &mut Vec<DeviceIoEvent>,
    ) {
        let mut ios = std::mem::take(&mut self.scratch.background);
        ios.clear();
        for &range in ranges {
            ios.extend(self.rebuild_peers.iter().map(|&peer| PartitionIo {
                disk: peer,
                range,
                kind: IoKind::Read,
                purpose: IoPurpose::RebuildRead,
            }));
            ios.push(PartitionIo {
                disk,
                range,
                kind: IoKind::Write,
                purpose: IoPurpose::RebuildWrite,
            });
            self.fault_stats.rebuild_read_blocks += range.len() * self.rebuild_peers.len() as u64;
            self.fault_stats.rebuild_write_blocks += range.len();
        }
        self.devices.issue(now, &ios, events);
        self.scratch.background = ios;
    }

    /// Issues the device I/O for the next `budget` archive-restripe moves:
    /// advance the cursor, read each block's pre-reshape location, write
    /// its reshaped home (parity maintenance included). The device events
    /// are appended to `events`.
    fn apply_archive_batch(&mut self, now: SimTime, budget: u64, events: &mut Vec<DeviceIoEvent>) {
        let mut ios = std::mem::take(&mut self.scratch.background);
        ios.clear();
        let moved = self
            .archive_restripe
            .as_mut()
            .expect("a restripe batch implies restripe state")
            .plan_batch(
                &self.pa,
                budget,
                &mut self.scratch.runs,
                &mut self.scratch.archive.buffers,
                &mut ios,
            );
        self.migration_stats.archive_migrated_blocks += moved;
        // An ideal-archive reshape preserves the parity-group width (the
        // expanded count must stay a multiple of the group), so the current
        // layout's peers are also correct for pre-reshape locations.
        self.degrade(&mut ios, 0, None);
        self.devices.issue(now, &ios, events);
        self.scratch.background = ios;
    }

    /// Rewrites `plan[from..]` for degraded mode when a disk is failed or
    /// rebuilding; a no-op on a healthy array. `generation` names the
    /// migration whose *pre-upgrade* cache partition the plan addresses
    /// (`None` for the current layouts): its copies are protected by that
    /// geometry's parity groups, not the rebuilt one's (the two can group
    /// disks differently when the expanded count stops dividing by the
    /// parity group). The rewritten I/Os are built in the scratch's spare
    /// list, not a fresh one.
    fn degrade(&mut self, plan: &mut Vec<PartitionIo>, from: usize, generation: Option<TaskId>) {
        let Some((failed, state)) = self.devices.degraded_disk() else {
            return;
        };
        // Degraded mode: reads of the lost disk are reconstructed from its
        // parity-group peers — the PC and PA layouts group disks
        // differently, so the peer set depends on which per-disk region the
        // I/O falls in. Every generation's PC spans the same leading
        // `pc_blocks_per_hdd` blocks of each disk.
        let pc_limit = self.config.pc_blocks_per_hdd();
        let pc_layout = self.cache.as_ref().map(|cache| match generation {
            Some(id) => cache
                .generations
                .get(&id)
                .expect("old-geometry I/O implies a preserved old PC")
                .old_pc
                .layout(),
            None => cache.pc.layout(),
        });
        let pa_layout = self.pa.layout();
        let peers_for = |io: &PartitionIo, peers: &mut Vec<usize>| match pc_layout {
            Some(pc_layout) if io.range.start() < pc_limit => {
                pc_layout.reconstruction_peers(io.disk, peers)
            }
            _ => pa_layout.reconstruction_peers(io.disk, peers),
        };
        fault::degrade_plan(
            &plan[from..],
            &mut self.scratch.degraded,
            failed,
            state == DiskState::Rebuilding,
            peers_for,
            &mut self.scratch.peers,
            &mut self.fault_stats,
        );
        plan.truncate(from);
        plan.extend_from_slice(&self.scratch.degraded);
    }

    /// Serves a request on an array without a cache partition: every block
    /// goes to the archive (through the pre-upgrade volume while a paced
    /// restripe has not moved it yet) and every I/O is foreground.
    fn submit_uncached(
        &mut self,
        now: SimTime,
        kind: IoKind,
        range: BlockRange,
        report: &mut RequestReport,
    ) {
        let mut plan = std::mem::take(&mut self.scratch.foreground);
        plan.clear();
        archive_access(&self.pa, &mut self.archive_restripe).plan_range(
            kind,
            range,
            &mut self.scratch.archive,
            &mut plan,
        );
        self.flush_archive_forfeits();
        self.degrade(&mut plan, 0, None);
        let finish = self.devices.issue(now, &plan, &mut report.events);
        report.response = finish.saturating_since(now);
        self.scratch.foreground = plan;
    }

    /// Read access to the I/O monitor, if the array has one (examples and
    /// tests).
    pub fn monitor(&self) -> Option<&IoMonitor> {
        self.cache.as_ref().map(|cache| &cache.monitor)
    }

    /// Blocks paced upgrades still have to move (0 when idle), as
    /// [`StorageArray::migration_stats`] reports them: the cache-partition
    /// redistribution, or — without a cache partition — the restripe.
    pub fn pending_migration_blocks(&self) -> u64 {
        self.migration_stats().pending_blocks
    }

    /// True if `pa_block` still awaits its paced upgrade move: to its
    /// post-upgrade cache-partition slot or — without a cache partition —
    /// to its restriped archive home (tests and examples).
    pub fn migration_pending(&self, pa_block: u64) -> bool {
        match &self.cache {
            Some(cache) => cache.migration.contains(pa_block),
            None => self
                .archive_restripe
                .as_ref()
                .is_some_and(|state| state.is_pending(&self.pa, pa_block)),
        }
    }

    /// Archive-restripe moves still pending (0 when no reshape is in
    /// flight).
    pub fn pending_archive_blocks(&self) -> u64 {
        self.archive_restripe
            .as_ref()
            .map_or(0, RestripeState::pending)
    }

    /// Expansions accepted but not yet activated (queued behind an
    /// in-flight archive restripe).
    pub fn deferred_expansions(&self) -> usize {
        self.activation.len()
    }

    /// Performs a validated expansion: commits the new geometry, enqueues
    /// the paced PC redistribution and — for ideal archives — the paced
    /// archive restripe.
    fn commit_expansion(&mut self, now: SimTime, added_disks: usize) -> ExpansionReport {
        let paced = !self.config.instant_migration();
        let new_disks = self.disks + added_disks;
        let mut new_sets = self.expansion_sets.clone();
        if self.config.strategy.archive_is_aggregated() {
            new_sets.push(added_disks);
        }
        let new_pa = Self::build_pa(&self.config, new_disks, &new_sets)
            .expect("expansion geometry was validated before commit");
        let mut report = ExpansionReport {
            added_disks,
            ..ExpansionReport::default()
        };
        match self.cache.as_mut() {
            Some(cache) if !self.config.strategy.uses_ssd_cache() => {
                // PC must keep using every disk: it is rebuilt over the new
                // set of spindles and starts refilling immediately. When the
                // count stops dividing evenly, parity groups stay aligned by
                // treating the whole array as one group.
                let group = if new_disks.is_multiple_of(self.config.parity_group) {
                    self.config.parity_group
                } else {
                    new_disks
                };
                let pc_layout = Raid5Layout::new(
                    new_disks,
                    group,
                    self.config.stripe_unit,
                    self.config.pc_blocks_per_hdd(),
                )
                .expect("expansion geometry was validated before commit");
                // Migration for CRAID is bounded by what currently lives in PC.
                report.migrated_blocks = cache.monitor.cached_blocks() as u64;
                if paced {
                    // The new layout commits now; the block copies stream
                    // through the background engine. Every cached block
                    // (clean and dirty, with its dirty bit) is queued for
                    // redistribution into the rebuilt PC; until a block's
                    // turn comes, the MigrationMap serves it from its old
                    // slot in this generation's preserved geometry.
                    let drained = cache.monitor.begin_migration(&mut cache.pc);
                    let mut order: Vec<u64> = drained.iter().map(|&(pa, _)| pa).collect();
                    if self.config.background_priority == BackgroundPriority::HotFirst {
                        cache.monitor.rank_hot_desc(&mut order);
                    }
                    report.enqueued_blocks = order.len() as u64;
                    let generation = self.background.push_migration(
                        now,
                        report.enqueued_blocks,
                        self.config
                            .migration_rate_blocks_per_sec
                            .expect("paced expansions have a finite rate"),
                    );
                    cache.generations.insert(
                        generation,
                        Generation {
                            old_pc: cache.pc.clone(),
                            order,
                            cursor: 0,
                        },
                    );
                    cache.migration.reserve(drained.len());
                    for (pa_block, mapping) in drained {
                        cache.migration.insert(
                            pa_block,
                            OldHome {
                                pc_slot: mapping.pc_block,
                                dirty: mapping.dirty,
                                generation,
                            },
                        );
                    }
                    self.devices.add_hdds(added_disks);
                    cache.pc.rebuild(pc_layout, 0, 0);
                    cache.monitor.resize(cache.pc.capacity());
                    self.migration_stats.migrations_started += 1;
                    self.migration_stats.effective_priority = Some(self.config.background_priority);
                } else {
                    // Instant upgrade: the dirty copies are written back
                    // now, the rest is simply invalidated and re-copied on
                    // demand as the working set is touched again.
                    let tasks = cache.monitor.invalidate_all(&mut cache.pc);
                    Self::write_back(
                        &mut self.devices,
                        &cache.pc,
                        &self.pa,
                        now,
                        &tasks,
                        &mut self.scratch,
                        &mut report,
                    );
                    self.devices.add_hdds(added_disks);
                    cache.pc.rebuild(pc_layout, 0, 0);
                    cache.monitor.resize(cache.pc.capacity());
                }
            }
            Some(cache) => {
                // A dedicated-SSD cache tier keeps its contents when
                // mechanical disks are added; only the SSDs' device indices
                // shift, because the new spindles are spliced in front of
                // them.
                self.devices.add_hdds(added_disks);
                cache.pc.rebind_first_device(new_disks);
            }
            None => self.devices.add_hdds(added_disks),
        }
        if !self.config.strategy.archive_is_aggregated() {
            let used = self.config.dataset_blocks;
            if paced {
                // The ideal archive's reshape onto the grown set streams as
                // its own rate-paced task (the paper's conventional-upgrade
                // cost). Pushed even when the move set is empty so its
                // completion always fires and a deferred expansion queued
                // behind it can never be stranded. The restripe cursor
                // walks sequentially regardless of the configured priority;
                // when this expansion started no PC redistribution (the
                // SSD-cached variants and the RAID-5 baseline), record
                // that *effective* order so a hot-first knob cannot
                // masquerade as having run.
                let mut state = RestripeState::new(self.pa.clone(), &new_pa, used);
                state.task = self.background.push_restripe(
                    now,
                    state.total_moves(),
                    self.config
                        .migration_rate_blocks_per_sec
                        .expect("paced expansions have a finite rate"),
                );
                self.migration_stats.archive_restripes_started += 1;
                if self.migration_stats.effective_priority.is_none() || report.enqueued_blocks == 0
                {
                    self.migration_stats.effective_priority = Some(BackgroundPriority::Sequential);
                }
                if self.config.strategy.restripe_is_migration() {
                    // The restripe is the whole upgrade: its exact move set,
                    // counted but never materialised.
                    report.migrated_blocks = state.total_moves();
                    report.enqueued_blocks = state.total_moves();
                }
                self.archive_restripe = Some(state);
            } else if self.config.strategy.restripe_is_migration() {
                // Instant accounting: estimate how much of the used dataset
                // has to move by sampling. (A CRAID archive's instant
                // reshape is free: the paper accounts only its cache.)
                let fraction = Self::restripe_fraction(&self.pa, &new_pa, used);
                report.migrated_blocks = (fraction * used as f64).round() as u64;
            }
        }
        self.pa = new_pa;
        self.expansion_sets = new_sets;
        self.disks = new_disks;
        report
    }
}

impl StorageArray for CraidArray {
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
        self.pa.data_capacity()
    }

    fn pc_capacity_blocks(&self) -> u64 {
        self.cache.as_ref().map_or(0, |cache| cache.pc.capacity())
    }

    fn submit_into(
        &mut self,
        now: SimTime,
        kind: IoKind,
        range: BlockRange,
        report: &mut RequestReport,
    ) -> Result<(), CraidError> {
        if range.end() > self.pa.data_capacity() {
            return Err(CraidError::OutOfRange {
                start: range.start(),
                blocks: range.len(),
                capacity: self.pa.data_capacity(),
            });
        }
        let mut events = std::mem::take(&mut report.events);
        events.clear();
        *report = RequestReport {
            events,
            ..RequestReport::default()
        };
        let Some(cache) = self.cache.as_mut() else {
            self.submit_uncached(now, kind, range, report);
            return Ok(());
        };
        // Mid-upgrade redirection: blocks the paced migration has not
        // reached yet resolve against the MigrationMap first. Dirty pending
        // blocks are *only* valid at their old PC slot, so reads fetch them
        // from there; everything the client touches otherwise (clean reads,
        // all writes) proceeds against the post-upgrade layout and
        // supersedes the pending move — writes land at the new home.
        let scratch = &mut self.scratch;
        scratch.old_slot_reads.clear();
        let mut pending_hits = 0u64;
        let triaged = !cache.migration.is_empty();
        if triaged {
            scratch.fresh.clear();
            for pa_block in range.blocks() {
                match cache.migration.get(pa_block) {
                    Some(home) if home.dirty && kind == IoKind::Read => {
                        pending_hits += 1;
                        scratch.old_slot_reads.push((home.generation, home.pc_slot));
                    }
                    Some(_) => {
                        cache.migration.remove(pa_block);
                        self.migration_stats.superseded_blocks += 1;
                        scratch.fresh.push(pa_block);
                    }
                    None => scratch.fresh.push(pa_block),
                }
            }
        }
        let plan = {
            let mut access = archive_access(&self.pa, &mut self.archive_restripe);
            if triaged {
                let fresh = std::mem::take(&mut scratch.fresh);
                let plan = redirector::plan_request_iter(
                    &mut cache.monitor,
                    &mut cache.pc,
                    &mut access,
                    kind,
                    fresh.iter().copied(),
                    range.len(),
                    scratch,
                );
                scratch.fresh = fresh;
                plan
            } else {
                // Fast path: no PC migration in flight, no per-block triage.
                redirector::plan_request_iter(
                    &mut cache.monitor,
                    &mut cache.pc,
                    &mut access,
                    kind,
                    range.blocks(),
                    range.len(),
                    scratch,
                )
            }
        };
        self.flush_archive_forfeits();
        report.cache_hit_blocks = plan.cache_hit_blocks + pending_hits;
        report.admitted_blocks = plan.admitted_blocks;
        report.evictions = plan.evictions;
        report.dirty_writebacks = plan.dirty_writebacks;

        let mut foreground = std::mem::take(&mut self.scratch.foreground);
        let mut background = std::mem::take(&mut self.scratch.background);
        self.degrade(&mut foreground, 0, None);
        // Pending dirty blocks are read from their generation's preserved
        // geometry, one generation at a time in ascending order. A
        // generation's slots are planned as a set, so sorting them changes
        // nothing.
        let mut old_slot_reads = std::mem::take(&mut self.scratch.old_slot_reads);
        old_slot_reads.sort_unstable();
        for group in old_slot_reads.chunk_by(|a, b| a.0 == b.0) {
            let generation = group[0].0;
            let scratch = &mut self.scratch;
            scratch.old_slots.clear();
            scratch
                .old_slots
                .extend(group.iter().map(|&(_, slot)| slot));
            let from = foreground.len();
            self.cache
                .as_ref()
                .and_then(|cache| cache.generations.get(&generation))
                .expect("pending dirty blocks imply a preserved old PC geometry")
                .old_pc
                .plan_blocks_into(
                    IoKind::Read,
                    &scratch.old_slots,
                    &mut scratch.archive.buffers,
                    &mut foreground,
                );
            self.degrade(&mut foreground, from, Some(generation));
        }
        self.scratch.old_slot_reads = old_slot_reads;
        self.degrade(&mut background, 0, None);
        let finish = self.devices.issue(now, &foreground, &mut report.events);
        self.devices.issue(now, &background, &mut report.events);
        report.response = finish.saturating_since(now);
        self.scratch.foreground = foreground;
        self.scratch.background = background;
        Ok(())
    }

    fn expand(&mut self, now: SimTime, added_disks: usize) -> Result<ExpansionReport, CraidError> {
        // The upgrade commits transactionally: every precondition is checked
        // *before* the cache partition is touched or any device/geometry
        // state changes, so a rejected expansion leaves the array exactly
        // as it was.
        if added_disks == 0 {
            return Err(CraidError::InvalidExpansion("no disks added".into()));
        }
        let paced = !self.config.instant_migration();
        if let Some((disk, state)) = self.devices.degraded_disk() {
            // A failed disk has no data to redistribute. A *rebuilding* one
            // is fine when the upgrade is paced: the migration task simply
            // fair-shares the background engine with the rebuild. The
            // instant path keeps refusing, bit-for-bit with the pre-engine
            // behaviour. (The in-flight rebuild keeps the segment plan it
            // was created with — a deliberate approximation: the physical
            // device is unchanged, but its live share shrinks under the
            // post-expansion geometry, so rebuild traffic errs on the
            // generous side.)
            if state == DiskState::Failed || !paced {
                return Err(CraidError::InvalidExpansion(format!(
                    "disk {disk} is {state:?}; wait until the array is healthy before expanding"
                )));
            }
        }
        if !paced
            && self
                .cache
                .as_ref()
                .is_some_and(|cache| !cache.migration.is_empty())
        {
            return Err(CraidError::InvalidExpansion(
                "a previous upgrade's migration is still in flight".into(),
            ));
        }
        // Validate the geometry against the *projected* disk count so a
        // deferred expansion can never fail at activation time.
        let projected = self.disks + self.activation.pending_disks() + added_disks;
        if self.config.strategy.archive_is_aggregated() {
            if added_disks < 2 {
                return Err(CraidError::InvalidExpansion(
                    "a new RAID-5 set needs at least 2 disks".into(),
                ));
            }
        } else if !projected.is_multiple_of(self.config.parity_group) {
            return Err(CraidError::InvalidExpansion(format!(
                "the ideal RAID-5 archive needs the disk count ({projected}) to stay a multiple of the parity group ({})",
                self.config.parity_group
            )));
        }
        if self.archive_restripe.is_some() {
            // One archive reshape at a time (a cursor cannot retarget a
            // moving layout): the expansion queues and activates when the
            // in-flight restripe drains. Upgrades of aggregated archives
            // never enter this branch and pipeline freely.
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
        // Installing the spare refuses any disk that is not failed — one
        // the array does not have included — before anything else reads
        // the disk's slot.
        self.devices.start_rebuild(disk)?;
        // The rebuild streams the disk's *live* region — the PC rows plus
        // the archive share of the dataset, parity included — rather than
        // the raw device capacity, in the spirit of CRAID's data-aware
        // maintenance: stripes that never held data need no
        // reconstruction. The live region is clamped to the device, and
        // the plan's segments end within it. The peers are the archive
        // layout's parity group (the PC rows of the disk are reconstructed
        // from the same spindles on the paper's shapes).
        let live = self
            .live_blocks_per_hdd()
            .min(self.devices.capacity_blocks(disk))
            .max(1);
        let segments = self.rebuild_plan(disk, live);
        self.rebuild_peers.clear();
        self.pa
            .layout()
            .reconstruction_peers(disk, &mut self.rebuild_peers);
        self.background
            .push_rebuild(now, disk, segments, self.config.rebuild_rate_blocks_per_sec);
        self.fault_stats.disk_repairs += 1;
        Ok(())
    }

    fn pump_background_into(&mut self, now: SimTime, events: &mut Vec<DeviceIoEvent>) {
        for batch in self.background.poll(now) {
            match batch {
                Batch::Rebuild { disk, ranges, .. } => {
                    self.apply_rebuild_batch(now, disk, &ranges, events);
                }
                Batch::Migration { id, budget } => {
                    self.apply_migration_batch(now, id, budget, events);
                }
                Batch::Restripe { budget, .. } => self.apply_archive_batch(now, budget, events),
            }
        }
        for done in self.background.take_completed() {
            match done.kind {
                TaskKind::Rebuild => {
                    self.fault_stats.rebuilds_completed += 1;
                    self.fault_stats.rebuild_secs += done.window_secs;
                    self.devices.complete_rebuild(done.disk);
                }
                TaskKind::ExpansionMigration => {
                    if let Some(cache) = self.cache.as_mut() {
                        debug_assert!(
                            cache.migration.iter().all(|(_, h)| h.generation != done.id),
                            "a drained migration leaves no pending blocks of its generation"
                        );
                        cache.generations.remove(&done.id);
                    }
                    self.migration_stats.migrations_completed += 1;
                    self.migration_stats.migration_secs += done.window_secs;
                }
                TaskKind::ArchiveRestripe => {
                    debug_assert!(
                        self.archive_restripe
                            .as_ref()
                            .is_some_and(RestripeState::drained),
                        "a completed restripe leaves no pending moves"
                    );
                    self.archive_restripe = None;
                    self.migration_stats.archive_restripes_completed += 1;
                    self.migration_stats.archive_restripe_secs += done.window_secs;
                }
            }
        }
        // A queued expansion activates the moment the reshape that blocked
        // it drains — by default even if the array has since degraded (a
        // deliberate modeling choice: the activation was accepted while
        // healthy, and all of its maintenance I/O runs through `degrade`
        // like any other traffic, so the model stays total and
        // deterministic rather than stranding the queue on a disk that may
        // never be repaired). With `activation = "wait-for-repair"` the
        // activation instead holds until the rebuild completes; the same
        // check after the completions loop is what releases it then.
        self.maybe_activate_deferred(now);
        // Under the model checker, audit the exactly-one-location invariant
        // at every pump boundary: no block may be pending migration and
        // cache-resident at once (one copy is authoritative).
        if let (true, Some(cache)) = (crate::choice::active(), &self.cache) {
            for (pa_block, _) in cache.migration.iter() {
                if cache.monitor.cached_slot(pa_block).is_some() {
                    crate::choice::observe(|| crate::choice::Observation::Colocated {
                        block: pa_block,
                    });
                }
            }
        }
    }

    fn background_work_due(&mut self, now: SimTime) -> bool {
        // Deferred expansions cannot unblock between pumps: the reshape or
        // rebuild gating them completes *inside* a pump (and the empty task
        // it leaves reports "due now"), so the engine's pacing clocks alone
        // decide whether polling can do anything.
        self.background.work_due(now)
    }

    fn background_idle(&self) -> bool {
        // A deferred expansion blocked by wait-for-repair on a *failed*
        // disk (no repair scheduled, so no rebuild task exists) counts as
        // idle: nothing can make progress until a `disk-repair` event
        // arrives, and the end-of-trace drain must not spin on it.
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
        let stats = MigrationStats {
            pending_blocks: self
                .cache
                .as_ref()
                .map_or(0, |cache| cache.migration.len() as u64),
            archive_pending_blocks: self.pending_archive_blocks(),
            ..self.migration_stats
        };
        if !self.config.strategy.restripe_is_migration() {
            return stats;
        }
        // Without a cache partition the restripe *is* the upgrade
        // migration, so it reports on the main line.
        MigrationStats {
            migrations_started: stats.archive_restripes_started,
            migrations_completed: stats.archive_restripes_completed,
            migrated_blocks: stats.archive_migrated_blocks,
            superseded_blocks: stats.archive_superseded_blocks,
            pending_blocks: stats.archive_pending_blocks,
            migration_secs: stats.archive_restripe_secs,
            effective_priority: stats.effective_priority,
            ..MigrationStats::default()
        }
    }

    fn switch_policy(
        &mut self,
        _now: SimTime,
        policy: craid_cache::PolicyKind,
    ) -> Result<(), CraidError> {
        if let Some(cache) = self.cache.as_mut() {
            cache.monitor.switch_policy(policy);
            self.config.policy = policy;
        }
        Ok(())
    }

    fn device_stats(&self) -> Vec<DeviceLoadStats> {
        self.devices.load_stats()
    }

    fn monitor_stats(&self) -> Option<MonitorStats> {
        self.cache.as_ref().map(|cache| *cache.monitor.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craid_simkit::SimDuration;

    fn array(strategy: StrategyKind) -> CraidArray {
        CraidArray::new(ArrayConfig::small_test(strategy, 10_000)).unwrap()
    }

    fn paced(strategy: StrategyKind, rate: f64, priority: BackgroundPriority) -> CraidArray {
        let config = ArrayConfig::small_test(strategy, 10_000)
            .with_migration_rate(Some(rate))
            .with_background_priority(priority);
        CraidArray::new(config).unwrap()
    }

    fn drain(a: &mut CraidArray, mut t: f64) -> f64 {
        while !a.background_idle() && t < 5_000.0 {
            a.pump_background(SimTime::from_secs(t));
            t += 1.0;
        }
        assert!(a.background_idle());
        t
    }

    fn tier(a: &CraidArray) -> &CacheTier {
        a.cache
            .as_ref()
            .expect("a CRAID array has a cache partition")
    }

    #[test]
    fn cold_read_goes_to_archive_then_caches() {
        let mut a = array(StrategyKind::Craid5);
        let r1 = a
            .submit(SimTime::ZERO, IoKind::Read, BlockRange::new(500, 4))
            .unwrap();
        assert_eq!(r1.cache_hit_blocks, 0);
        assert_eq!(r1.admitted_blocks, 4);
        // Second read of the same blocks hits the cache partition.
        let r2 = a
            .submit(
                SimTime::from_secs(1.0),
                IoKind::Read,
                BlockRange::new(500, 4),
            )
            .unwrap();
        assert_eq!(r2.cache_hit_blocks, 4);
        assert_eq!(r2.admitted_blocks, 0);
        let stats = a.monitor_stats().unwrap();
        assert_eq!(stats.read_hits, 4);
        assert_eq!(stats.read_accesses, 8);
    }

    #[test]
    fn repeated_hot_reads_get_faster_than_cold_reads() {
        let mut a = array(StrategyKind::Craid5);
        let cold = a
            .submit(SimTime::ZERO, IoKind::Read, BlockRange::new(2_000, 4))
            .unwrap()
            .response;
        // Touch it a few times so it is firmly resident and the disks are idle.
        let mut warm = SimDuration::ZERO;
        for i in 1..=3 {
            warm = a
                .submit(
                    SimTime::from_secs(i as f64 * 10.0),
                    IoKind::Read,
                    BlockRange::new(2_000, 4),
                )
                .unwrap()
                .response;
        }
        assert!(
            warm <= cold,
            "warm read ({warm}) should not be slower than the cold read ({cold})"
        );
    }

    #[test]
    fn writes_are_absorbed_by_the_cache_partition() {
        let mut a = array(StrategyKind::Craid5);
        let pc_limit = a.config.pc_blocks_per_hdd();
        let r = a
            .submit(SimTime::ZERO, IoKind::Write, BlockRange::new(9_000, 2))
            .unwrap();
        assert_eq!(r.admitted_blocks, 2);
        assert!(
            r.events.iter().all(|e| e.start_block < pc_limit),
            "all I/O for an absorbed write stays inside the PC region"
        );
    }

    #[test]
    fn ssd_variant_sends_cache_traffic_to_ssds() {
        let mut a = array(StrategyKind::Craid5Ssd);
        let r = a
            .submit(SimTime::ZERO, IoKind::Write, BlockRange::new(100, 2))
            .unwrap();
        assert!(
            r.events.iter().all(|e| e.device >= 8),
            "writes are absorbed by the dedicated SSDs"
        );
        // A cold read touches the archive (HDDs) and copies to the SSDs.
        let r = a
            .submit(
                SimTime::from_secs(1.0),
                IoKind::Read,
                BlockRange::new(5_000, 2),
            )
            .unwrap();
        assert!(r.events.iter().any(|e| e.device < 8));
        assert!(r.events.iter().any(|e| e.device >= 8));
    }

    #[test]
    fn expansion_invalidates_pc_and_grows_it() {
        let mut a = array(StrategyKind::Craid5Plus);
        // Warm the cache with some dirty blocks.
        for b in 0..40u64 {
            a.submit(
                SimTime::from_millis(b as f64),
                IoKind::Write,
                BlockRange::new(b * 8, 4),
            )
            .unwrap();
        }
        let cached_before = a.monitor().unwrap().cached_blocks();
        assert!(cached_before > 0);
        let pc_before = a.pc_capacity_blocks();
        let report = a.expand(SimTime::from_secs(10.0), 4).unwrap();
        assert_eq!(report.added_disks, 4);
        assert_eq!(report.migrated_blocks, cached_before as u64);
        assert!(report.writeback_blocks > 0, "dirty blocks are written back");
        assert!(!report.events.is_empty());
        assert_eq!(
            report.enqueued_blocks, 0,
            "instant upgrades enqueue nothing"
        );
        assert_eq!(a.disk_count(), 12);
        assert!(a.pc_capacity_blocks() > pc_before, "PC now spans 12 disks");
        assert_eq!(
            a.monitor().unwrap().cached_blocks(),
            0,
            "PC starts cold again"
        );
        // The array keeps serving and refilling after the upgrade.
        let r = a
            .submit(
                SimTime::from_secs(20.0),
                IoKind::Read,
                BlockRange::new(0, 4),
            )
            .unwrap();
        assert_eq!(r.admitted_blocks, 4);
    }

    #[test]
    fn expansion_migration_is_bounded_by_pc_residency() {
        let mut a = array(StrategyKind::Craid5Plus);
        for b in 0..100u64 {
            a.submit(
                SimTime::from_millis(b as f64),
                IoKind::Read,
                BlockRange::new(b * 16, 2),
            )
            .unwrap();
        }
        let report = a.expand(SimTime::from_secs(5.0), 4).unwrap();
        assert!(report.migrated_blocks <= a.pc_capacity_blocks().max(report.migrated_blocks));
        assert!(
            report.migrated_blocks < 10_000 / 2,
            "CRAID migrates far less than the dataset"
        );
    }

    #[test]
    fn ssd_cached_expansion_keeps_cache_intact() {
        let mut a = array(StrategyKind::Craid5PlusSsd);
        for b in 0..20u64 {
            a.submit(
                SimTime::from_millis(b as f64),
                IoKind::Write,
                BlockRange::new(b * 4, 2),
            )
            .unwrap();
        }
        let cached = a.monitor().unwrap().cached_blocks();
        let report = a.expand(SimTime::from_secs(2.0), 4).unwrap();
        assert_eq!(report.migrated_blocks, 0);
        assert_eq!(report.writeback_blocks, 0);
        assert_eq!(
            a.monitor().unwrap().cached_blocks(),
            cached,
            "the SSD cache survives"
        );
    }

    #[test]
    fn out_of_range_and_invalid_expansion_are_rejected() {
        let mut a = array(StrategyKind::Craid5);
        let cap = a.capacity_blocks();
        assert!(a
            .submit(SimTime::ZERO, IoKind::Read, BlockRange::new(cap, 1))
            .is_err());
        assert!(a.expand(SimTime::ZERO, 0).is_err());
        let mut plus = array(StrategyKind::Craid5Plus);
        assert!(plus.expand(SimTime::ZERO, 1).is_err());
    }

    /// Two identical `strategy` arrays take the same requests, failure,
    /// repair, paced upgrade and pumps: one refills a single report and one
    /// event buffer throughout, the other gets fresh ones. Stale events or
    /// counters must never survive into the next request, and a rejected
    /// request leaves the report as it was.
    fn assert_reused_reports_match_fresh_ones(strategy: StrategyKind) {
        let mut reused = paced(strategy, 400.0, BackgroundPriority::HotFirst);
        let mut fresh = paced(strategy, 400.0, BackgroundPriority::HotFirst);
        let mut report = RequestReport::default();
        let mut events = Vec::new();
        for i in 0..400u64 {
            let now = SimTime::from_millis(i as f64 * 20.0);
            for a in [&mut reused, &mut fresh] {
                match i {
                    100 => assert!(!a.expand(now, 4).unwrap().deferred),
                    150 => a.fail_disk(now, 1).unwrap(),
                    250 => a.repair_disk(now, 1).unwrap(),
                    _ => {}
                }
            }
            events.clear();
            reused.pump_background_into(now, &mut events);
            assert_eq!(events, fresh.pump_background(now), "{strategy} pump {i}");
            let kind = if i % 3 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            };
            let range = BlockRange::new(i * 37 % 9_000, 1 + i % 9);
            reused.submit_into(now, kind, range, &mut report).unwrap();
            let expected = fresh.submit(now, kind, range).unwrap();
            assert_eq!(report, expected, "{strategy} request {i}");
        }
        assert!(reused.fault_stats().reconstruction_ios > 0);
        let before = report.clone();
        let cap = reused.capacity_blocks();
        let past_the_end = BlockRange::new(cap, 1);
        let now = SimTime::from_secs(9.0);
        assert!(reused
            .submit_into(now, IoKind::Read, past_the_end, &mut report)
            .is_err());
        assert_eq!(report, before);
    }

    #[test]
    fn reused_reports_and_event_buffers_match_fresh_ones() {
        for strategy in [StrategyKind::Craid5, StrategyKind::Raid5] {
            assert_reused_reports_match_fresh_ones(strategy);
        }
    }

    #[test]
    fn reused_reports_match_fresh_ones_on_craid5plus() {
        assert_reused_reports_match_fresh_ones(StrategyKind::Craid5Plus);
    }

    #[test]
    fn reused_reports_match_fresh_ones_on_raid5plus() {
        assert_reused_reports_match_fresh_ones(StrategyKind::Raid5Plus);
    }

    #[test]
    fn reused_reports_match_fresh_ones_on_craid5_ssd() {
        assert_reused_reports_match_fresh_ones(StrategyKind::Craid5Ssd);
    }

    #[test]
    fn reused_reports_match_fresh_ones_on_craid5plus_ssd() {
        assert_reused_reports_match_fresh_ones(StrategyKind::Craid5PlusSsd);
    }

    #[test]
    fn an_uncached_request_issues_the_archive_plan_of_its_range() {
        // Without a cache partition a request is planned as the one run its
        // range is: the devices see exactly the archive's plan of its
        // blocks, in plan order.
        let mut a = array(StrategyKind::Raid5);
        let requests = [
            (IoKind::Read, BlockRange::new(3, 1)),
            (IoKind::Read, BlockRange::new(100, 37)),
            (IoKind::Write, BlockRange::new(7, 1)),
            (IoKind::Write, BlockRange::new(640, 96)),
        ];
        for (i, (kind, range)) in requests.into_iter().enumerate() {
            let report = a.submit(SimTime::from_secs(i as f64), kind, range).unwrap();
            let issued: Vec<PartitionIo> = report
                .events
                .iter()
                .map(|e| PartitionIo {
                    disk: e.device,
                    range: BlockRange::new(e.start_block, e.blocks),
                    kind: e.kind,
                    purpose: e.purpose,
                })
                .collect();
            let blocks: Vec<u64> = range.blocks().collect();
            assert_eq!(
                issued,
                a.pa.plan_blocks(kind, &blocks),
                "{kind} of {range:?}"
            );
        }
    }

    /// Warms an array with a deterministic mixed workload.
    fn warm(a: &mut CraidArray) {
        for b in 0..60u64 {
            let kind = if b % 3 == 0 {
                IoKind::Write
            } else {
                IoKind::Read
            };
            a.submit(
                SimTime::from_millis(b as f64 * 5.0),
                kind,
                BlockRange::new(b * 16 % 9_000, 4),
            )
            .unwrap();
        }
    }

    #[test]
    fn rejected_expansion_leaves_the_array_bit_identical() {
        // Two identically warmed arrays; one suffers a rejected expansion.
        let mut touched = array(StrategyKind::Craid5);
        let mut pristine = array(StrategyKind::Craid5);
        warm(&mut touched);
        warm(&mut pristine);

        // 8 + 3 = 11 is not a multiple of the parity group (4): rejected.
        let err = touched.expand(SimTime::from_secs(1.0), 3).unwrap_err();
        assert!(matches!(err, CraidError::InvalidExpansion(_)));

        // Every piece of reported state matches the untouched twin.
        assert_eq!(touched.disk_count(), pristine.disk_count());
        assert_eq!(touched.device_count(), pristine.device_count());
        assert_eq!(touched.capacity_blocks(), pristine.capacity_blocks());
        assert_eq!(touched.pc_capacity_blocks(), pristine.pc_capacity_blocks());
        assert_eq!(
            touched.monitor().unwrap().cached_blocks(),
            pristine.monitor().unwrap().cached_blocks(),
            "the cache partition was not invalidated"
        );
        assert_eq!(touched.monitor_stats(), pristine.monitor_stats());
        assert_eq!(touched.device_stats(), pristine.device_stats());

        // Subsequent traffic behaves byte-identically on both arrays.
        for b in [100u64, 3_000, 8_000] {
            let now = SimTime::from_secs(2.0 + b as f64);
            let got = touched
                .submit(now, IoKind::Read, BlockRange::new(b, 4))
                .unwrap();
            let want = pristine
                .submit(now, IoKind::Read, BlockRange::new(b, 4))
                .unwrap();
            assert_eq!(got, want, "block {b} diverged after the failed expand");
        }
    }

    #[test]
    fn ssd_expansion_keeps_cache_traffic_on_the_shifted_ssds() {
        let mut a = array(StrategyKind::Craid5PlusSsd);
        a.submit(SimTime::ZERO, IoKind::Read, BlockRange::new(0, 2))
            .unwrap();
        a.expand(SimTime::from_secs(1.0), 4).unwrap();
        // The SSDs moved from 8..11 to 12..15; the surviving cached copy
        // must be read from there, not from the freshly added spindles.
        let r = a
            .submit(SimTime::from_secs(2.0), IoKind::Read, BlockRange::new(0, 2))
            .unwrap();
        assert_eq!(r.cache_hit_blocks, 2);
        assert!(
            r.events.iter().all(|e| e.device >= 12),
            "cache hits must target the shifted SSDs, got {:?}",
            r.events.iter().map(|e| e.device).collect::<Vec<_>>()
        );
    }

    #[test]
    fn degraded_reads_reconstruct_from_surviving_group_members() {
        use craid_raid::IoPurpose;
        let mut a = array(StrategyKind::Craid5);
        // Find a block whose archive location is disk 1 and make it hot is
        // unnecessary — a cold read of a wide range will touch disk 1.
        a.fail_disk(SimTime::ZERO, 1).unwrap();
        let requests_before: Vec<u64> = a.device_stats().iter().map(|s| s.requests).collect();
        let mut saw_reconstruction = false;
        for b in 0..40u64 {
            let r = a
                .submit(
                    SimTime::from_millis(b as f64 * 10.0),
                    IoKind::Read,
                    BlockRange::new(b * 64, 8),
                )
                .unwrap();
            assert!(
                r.events.iter().all(|e| e.device != 1),
                "no I/O may reach the failed disk"
            );
            saw_reconstruction |= r
                .events
                .iter()
                .any(|e| e.purpose == IoPurpose::ReconstructRead);
        }
        assert!(saw_reconstruction, "some read must have needed disk 1");
        let stats = a.fault_stats();
        assert!(stats.degraded_reads > 0);
        assert_eq!(stats.disk_failures, 1);
        // The fan-out is visible in the surviving members' load stats:
        // disks 0, 2, 3 (disk 1's parity group) picked up extra requests.
        let requests_after: Vec<u64> = a.device_stats().iter().map(|s| s.requests).collect();
        assert_eq!(requests_after[1], requests_before[1]);
        for peer in [0usize, 2, 3] {
            assert!(requests_after[peer] > requests_before[peer]);
        }
    }

    #[test]
    fn repair_streams_the_rebuild_and_heals_the_array() {
        let mut config = ArrayConfig::small_test(StrategyKind::Craid5, 10_000);
        config.rebuild_rate_blocks_per_sec = 100.0;
        let mut a = CraidArray::new(config).unwrap();
        a.fail_disk(SimTime::ZERO, 2).unwrap();
        // Expanding a degraded array is refused (instant-migration mode).
        assert!(matches!(
            a.expand(SimTime::from_secs(0.5), 4),
            Err(CraidError::InvalidExpansion(_))
        ));
        a.repair_disk(SimTime::from_secs(1.0), 2).unwrap();
        assert!(!a.background_idle());
        // Nothing is due at the repair instant. 2 s later the pace demands
        // 200 blocks: one batch reads them from the 3 surviving members of
        // disk 2's parity group and writes them onto the spare.
        assert!(a.pump_background(SimTime::from_secs(1.0)).is_empty());
        let batch = a.pump_background(SimTime::from_secs(3.0));
        let ios: Vec<_> = batch
            .iter()
            .map(|e| (e.device, e.purpose, e.blocks))
            .collect();
        let read = IoPurpose::RebuildRead;
        assert_eq!(
            ios,
            [
                (0, read, 200),
                (1, read, 200),
                (3, read, 200),
                (2, IoPurpose::RebuildWrite, 200)
            ]
        );
        // Client traffic interleaves with the rebuild stream until the
        // spare holds the full image.
        let mut t = 4.0;
        let mut saw_rebuild_write = false;
        while a.fault_stats().rebuilds_completed == 0 && t < 100.0 {
            let bg = a.pump_background(SimTime::from_secs(t));
            saw_rebuild_write |= bg
                .iter()
                .any(|e| e.purpose == IoPurpose::RebuildWrite && e.device == 2);
            a.submit(SimTime::from_secs(t), IoKind::Read, BlockRange::new(0, 4))
                .unwrap();
            t += 1.0;
        }
        assert!(saw_rebuild_write, "the rebuild streamed onto the spare");
        let stats = a.fault_stats();
        assert_eq!(stats.rebuilds_completed, 1);
        assert!(stats.rebuild_secs > 0.0);
        assert!(stats.mttr_secs() > 0.0);
        assert_eq!(stats.rebuild_write_blocks, a.live_blocks_per_hdd());
        assert_eq!(stats.rebuild_read_blocks, 3 * stats.rebuild_write_blocks);
        assert!(
            stats.rebuild_write_blocks < 2 * 1024 * 1024 / 10,
            "a data-aware rebuild reconstructs only live stripes, not the \
             whole 2M-block device"
        );
        assert!(a.background_idle());
        // Healed: expansion works again and reads stop fanning out.
        let degraded_before = a.fault_stats().degraded_reads;
        a.submit(
            SimTime::from_secs(t + 1.0),
            IoKind::Read,
            BlockRange::new(5_000, 4),
        )
        .unwrap();
        assert_eq!(a.fault_stats().degraded_reads, degraded_before);
        assert!(a.expand(SimTime::from_secs(t + 2.0), 4).is_ok());

        // A hot-first plan streams the PC rows, then at most the cap of
        // scattered hot blocks, then the ascending cold remainder. Reading
        // 40,000 blocks heats far more than the cap on every disk.
        let config = ArrayConfig::small_test(StrategyKind::Craid5, 60_000)
            .with_background_priority(BackgroundPriority::HotFirst);
        let mut a = CraidArray::new(config).unwrap();
        for start in (0..40_000).step_by(500) {
            a.submit(SimTime::ZERO, IoKind::Read, BlockRange::new(start, 500))
                .unwrap();
        }
        let live = a.live_blocks_per_hdd();
        let plan = a.rebuild_plan(2, live);
        assert_eq!(plan[0], BlockRange::new(0, a.config.pc_blocks_per_hdd()));
        let cold = 2 + plan[1..]
            .windows(2)
            .position(|w| w[1].start() < w[0].start())
            .expect("the cold remainder restarts below the hot ranges");
        let hot: u64 = plan[1..cold].iter().map(|r| r.len()).sum();
        assert_eq!(hot, fault::MAX_HOT_REBUILD_BLOCKS as u64);
        assert_eq!(plan.iter().map(|r| r.len()).sum::<u64>(), live);
    }

    #[test]
    fn a_rebuild_pump_issues_what_per_range_submits_would() {
        // A hot-first rebuild chases scattered hot blocks, so its batches
        // stop at the engine's range cap. Every pump must produce the
        // events of a twin device set fed one submit per surviving peer's
        // read, then one for the spare's write, range by range, and the
        // rebuild counters must match that loop's.
        let mut config = ArrayConfig::small_test(StrategyKind::Craid5, 60_000)
            .with_background_priority(BackgroundPriority::HotFirst);
        config.rebuild_rate_blocks_per_sec = 100_000.0;
        let mut a = CraidArray::new(config).unwrap();
        for start in (0..40_000).step_by(500) {
            a.submit(SimTime::ZERO, IoKind::Read, BlockRange::new(start, 500))
                .unwrap();
        }
        a.fail_disk(SimTime::from_secs(1.0), 2).unwrap();
        a.repair_disk(SimTime::from_secs(1.0), 2).unwrap();
        let mut peers = Vec::new();
        a.pa.layout().reconstruction_peers(2, &mut peers);
        assert_eq!(peers, [0, 1, 3]);
        let (mut pumps, mut widest) = (0, 0);
        while a.fault_stats().rebuilds_completed == 0 {
            pumps += 1;
            let now = SimTime::from_secs(1.0 + 0.01 * pumps as f64);
            let mut twin = a.devices.clone();
            let stats = a.fault_stats();
            let mut reads = stats.rebuild_read_blocks;
            let mut writes = stats.rebuild_write_blocks;
            let mut expected = Vec::new();
            for batch in a.background.clone().poll(now) {
                let Batch::Rebuild { disk, ranges, .. } = batch else {
                    panic!("only the rebuild is live");
                };
                widest = widest.max(ranges.len());
                for range in ranges {
                    for &peer in &peers {
                        let read = IoPurpose::RebuildRead;
                        expected.push(twin.submit(now, peer, IoKind::Read, range, read));
                    }
                    let write = IoPurpose::RebuildWrite;
                    expected.push(twin.submit(now, disk, IoKind::Write, range, write));
                    reads += range.len() * peers.len() as u64;
                    writes += range.len();
                }
            }
            assert_eq!(a.pump_background(now), expected, "pump {pumps}");
            let stats = a.fault_stats();
            assert_eq!(
                (stats.rebuild_read_blocks, stats.rebuild_write_blocks),
                (reads, writes)
            );
        }
        assert_eq!(widest, 64, "the hot ranges fill batches to the range cap");
        assert_eq!(
            a.fault_stats().rebuild_write_blocks,
            a.live_blocks_per_hdd()
        );
    }

    #[test]
    fn repairing_a_disk_the_array_lacks_is_a_fault_error() {
        let mut a = array(StrategyKind::Craid5);
        assert!(matches!(
            a.repair_disk(SimTime::ZERO, 99),
            Err(CraidError::InvalidFault(_))
        ));
        assert!(a.background_idle());
        let scenario = crate::Scenario::builder()
            .requests(400)
            .small_test()
            .repair_disk_at(SimTime::from_secs(1.0), 99)
            .build();
        assert!(matches!(scenario.run(), Err(CraidError::InvalidFault(_))));
    }

    #[test]
    fn eviction_pressure_produces_writebacks() {
        let mut a = array(StrategyKind::Craid5);
        let pc = a.pc_capacity_blocks();
        // Write twice the PC capacity of distinct blocks: must evict dirty
        // victims and pay archive write-backs.
        let mut dirty_writebacks = 0;
        for i in 0..(2 * pc) {
            let r = a
                .submit(
                    SimTime::from_millis(i as f64),
                    IoKind::Write,
                    BlockRange::new((i * 7) % 9_000, 1),
                )
                .unwrap();
            dirty_writebacks += r.dirty_writebacks;
        }
        assert!(dirty_writebacks > 0);
        let stats = a.monitor_stats().unwrap();
        assert!(stats.dirty_evictions > 0);
        assert!(stats.write_eviction_ratio() > 0.0);
    }

    #[test]
    fn paced_expansion_commits_layout_and_streams_the_copies() {
        let mut a = paced(
            StrategyKind::Craid5Plus,
            50.0,
            BackgroundPriority::Sequential,
        );
        warm(&mut a);
        let cached = a.monitor().unwrap().cached_blocks() as u64;
        assert!(cached > 0);
        let report = a.expand(SimTime::from_secs(10.0), 4).unwrap();
        // The layout committed immediately...
        assert_eq!(a.disk_count(), 12);
        assert_eq!(report.enqueued_blocks, cached);
        assert!(report.events.is_empty(), "no upgrade I/O at event time");
        assert_eq!(report.writeback_blocks, 0, "dirty copies move, not flush");
        assert_eq!(a.pending_migration_blocks(), cached);
        assert!(!a.background_idle());
        assert_eq!(
            a.migration_stats().effective_priority,
            Some(BackgroundPriority::Sequential)
        );
        // ...and the copies stream through the background engine.
        let mut t = 11.0;
        let mut migrate_events = 0usize;
        while !a.background_idle() && t < 500.0 {
            let events = a.pump_background(SimTime::from_secs(t));
            migrate_events += events.iter().filter(|e| e.purpose.is_migration()).count();
            t += 1.0;
        }
        assert!(a.background_idle(), "the migration drained");
        assert!(migrate_events > 0, "migration I/O flowed");
        let stats = a.migration_stats();
        assert_eq!(stats.migrations_started, 1);
        assert_eq!(stats.migrations_completed, 1);
        assert_eq!(stats.migrated_blocks + stats.superseded_blocks, cached);
        assert_eq!(stats.pending_blocks, 0);
        assert!(stats.migration_secs > 0.0, "a nonzero upgrade window");
        assert_eq!(
            stats.archive_restripes_started, 0,
            "aggregated archives never restripe"
        );
        // The migrated working set is resident again: hot reads hit.
        assert_eq!(
            a.monitor().unwrap().cached_blocks() as u64,
            stats.migrated_blocks
        );
    }

    #[test]
    fn paced_craid5_upgrade_pays_the_archive_restripe() {
        let mut a = paced(
            StrategyKind::Craid5,
            100_000.0,
            BackgroundPriority::Sequential,
        );
        warm(&mut a);
        let report = a.expand(SimTime::from_secs(10.0), 4).unwrap();
        assert!(report.enqueued_blocks > 0, "the PC redistribution enqueued");
        // The ideal archive's reshape is no longer free: it rides the
        // engine as its own paced task with its own stats line.
        let stats = a.migration_stats();
        assert_eq!(stats.archive_restripes_started, 1);
        assert!(
            stats.archive_pending_blocks as f64 > 0.5 * 10_000.0,
            "the reshape moves most of the dataset, got {}",
            stats.archive_pending_blocks
        );
        assert!(a.pending_archive_blocks() > 0);
        let mut t = 11.0;
        let mut migrate_events = 0usize;
        while !a.background_idle() && t < 500.0 {
            let events = a.pump_background(SimTime::from_secs(t));
            migrate_events += events.iter().filter(|e| e.purpose.is_migration()).count();
            t += 1.0;
        }
        migrate_events.checked_sub(1).expect("restripe I/O flowed");
        let stats = a.migration_stats();
        assert_eq!(stats.archive_restripes_completed, 1);
        assert!(stats.archive_restripe_secs > 0.0, "a nonzero reshape cost");
        assert_eq!(stats.archive_pending_blocks, 0);
        assert!(
            stats.archive_migrated_blocks + stats.archive_superseded_blocks > 5_000,
            "the conventional cost is visible: {} blocks reshaped",
            stats.archive_migrated_blocks
        );
        // The PC redistribution completed alongside it (fair share).
        assert_eq!(stats.migrations_completed, 1);
        // After the drain the array serves normally.
        assert!(a
            .submit(SimTime::from_secs(t), IoKind::Read, BlockRange::new(0, 4))
            .is_ok());
    }

    #[test]
    fn archive_pending_reads_resolve_through_the_old_layout() {
        let mut a = paced(StrategyKind::Craid5, 1.0, BackgroundPriority::Sequential);
        let old_pa = a.pa.clone();
        a.expand(SimTime::from_secs(1.0), 4).unwrap();
        // Find an uncached block whose archive location changed.
        let state = a.archive_restripe.as_ref().unwrap();
        let pending = (0..10_000u64)
            .find(|&b| state.is_pending(&a.pa, b) && a.monitor().unwrap().cached_slot(b).is_none())
            .expect("an 8→12 reshape moves uncached blocks");
        let old_plan = old_pa.plan_blocks(IoKind::Read, &[pending]);
        let new_plan = a.pa.plan_blocks(IoKind::Read, &[pending]);
        assert_ne!(old_plan, new_plan, "the block's location changed");
        let r = a
            .submit(
                SimTime::from_secs(1.5),
                IoKind::Read,
                BlockRange::new(pending, 1),
            )
            .unwrap();
        // The archive read (foreground, non-PC) targets the old location.
        assert!(
            r.events
                .iter()
                .any(|e| e.device == old_plan[0].disk
                    && e.start_block == old_plan[0].range.start()),
            "the pending read resolves through the pre-reshape volume"
        );
        // A dirty write-back of the same block supersedes the pending move:
        // force it by writing (the write is absorbed by PC, so instead
        // check the supersession API directly through eviction pressure is
        // overkill — assert the bookkeeping path).
        let before = a.pending_archive_blocks();
        a.archive_restripe
            .as_mut()
            .unwrap()
            .supersede(&a.pa, pending);
        a.flush_archive_forfeits();
        assert_eq!(a.pending_archive_blocks(), before - 1);
        assert_eq!(a.migration_stats().archive_superseded_blocks, 1);
    }

    #[test]
    fn reads_of_pending_dirty_blocks_come_from_the_old_slots() {
        let mut a = paced(StrategyKind::Craid5, 1.0, BackgroundPriority::Sequential);
        // Dirty a block, then expand: its only valid copy is the old slot.
        a.submit(SimTime::ZERO, IoKind::Write, BlockRange::new(123, 1))
            .unwrap();
        a.expand(SimTime::from_secs(1.0), 4).unwrap();
        assert!(tier(&a).migration.get(123).unwrap().dirty);
        let pc_limit = a.config.pc_blocks_per_hdd();
        let r = a
            .submit(
                SimTime::from_secs(1.5),
                IoKind::Read,
                BlockRange::new(123, 1),
            )
            .unwrap();
        assert_eq!(r.cache_hit_blocks, 1, "served from the preserved copy");
        assert!(
            r.events.iter().all(|e| e.start_block < pc_limit),
            "the read stays inside the (old) PC region"
        );
        assert!(
            tier(&a).migration.contains(123),
            "a read does not supersede a dirty pending move"
        );
        // A write lands at the new home and supersedes the move.
        a.submit(
            SimTime::from_secs(2.0),
            IoKind::Write,
            BlockRange::new(123, 1),
        )
        .unwrap();
        assert!(!tier(&a).migration.contains(123));
        assert_eq!(a.migration_stats().superseded_blocks, 1);
        assert!(
            a.monitor().unwrap().mapping().lookup(123).unwrap().dirty,
            "the new-home copy is dirty"
        );
    }

    #[test]
    fn degraded_reads_of_pending_dirty_blocks_reconstruct_the_old_slot() {
        use craid_raid::IoPurpose;
        let mut a = paced(StrategyKind::Craid5, 1.0, BackgroundPriority::Sequential);
        let block = BlockRange::new(123, 1);
        a.submit(SimTime::ZERO, IoKind::Write, block).unwrap();
        a.expand(SimTime::from_secs(1.0), 4).unwrap();
        let healthy = a
            .submit(SimTime::from_secs(1.5), IoKind::Read, block)
            .unwrap();
        assert_eq!(healthy.events.len(), 1, "one read of the old slot");
        let lost = healthy.events[0].device;
        a.fail_disk(SimTime::from_secs(1.6), lost).unwrap();
        // The old slot's copy is rebuilt from its old parity-group peers,
        // still inside the (old) PC region.
        let r = a
            .submit(SimTime::from_secs(1.7), IoKind::Read, block)
            .unwrap();
        assert_eq!(r.cache_hit_blocks, 1, "still served from the old slot");
        let pc_limit = a.config.pc_blocks_per_hdd();
        assert!(r.events.iter().all(|e| e.device != lost
            && e.purpose == IoPurpose::ReconstructRead
            && e.start_block < pc_limit));
        assert_eq!(r.events.len(), a.config.parity_group - 1);
        assert_eq!(a.fault_stats().degraded_reads, 1);
    }

    #[test]
    fn clean_pending_reads_supersede_and_refill_the_new_pc() {
        let mut a = paced(StrategyKind::Craid5, 1.0, BackgroundPriority::Sequential);
        a.submit(SimTime::ZERO, IoKind::Read, BlockRange::new(77, 1))
            .unwrap();
        a.expand(SimTime::from_secs(1.0), 4).unwrap();
        assert!(!tier(&a).migration.get(77).unwrap().dirty);
        let r = a
            .submit(
                SimTime::from_secs(1.5),
                IoKind::Read,
                BlockRange::new(77, 1),
            )
            .unwrap();
        assert_eq!(r.cache_hit_blocks, 0, "the archive still has valid data");
        assert_eq!(r.admitted_blocks, 1, "and the block re-enters the new PC");
        assert!(
            !tier(&a).migration.contains(77),
            "the pending move is superseded"
        );
    }

    #[test]
    fn hot_first_migration_moves_the_hottest_blocks_first() {
        for priority in [BackgroundPriority::Sequential, BackgroundPriority::HotFirst] {
            let mut a = paced(StrategyKind::Craid5Plus, 2.0, priority);
            // Block 9000 is touched three times, 500 once: 9000 is hotter.
            a.submit(SimTime::ZERO, IoKind::Read, BlockRange::new(9_000, 1))
                .unwrap();
            a.submit(
                SimTime::from_millis(1.0),
                IoKind::Read,
                BlockRange::new(9_000, 1),
            )
            .unwrap();
            a.submit(
                SimTime::from_millis(2.0),
                IoKind::Read,
                BlockRange::new(9_000, 1),
            )
            .unwrap();
            a.submit(
                SimTime::from_millis(3.0),
                IoKind::Read,
                BlockRange::new(500, 1),
            )
            .unwrap();
            a.expand(SimTime::from_secs(1.0), 4).unwrap();
            assert_eq!(a.migration_stats().effective_priority, Some(priority));
            // At 2 blocks/s, one block is due at t = 1.5s.
            a.pump_background(SimTime::from_secs(1.5));
            let moved_9000_first = !tier(&a).migration.contains(9_000);
            match priority {
                BackgroundPriority::HotFirst => {
                    assert!(moved_9000_first, "the hot block migrates first")
                }
                BackgroundPriority::Sequential => {
                    assert!(!moved_9000_first, "ascending order moves 500 first")
                }
            }
        }
    }

    #[test]
    fn expand_during_rebuild_fair_shares_when_paced() {
        let mut config = ArrayConfig::small_test(StrategyKind::Craid5Plus, 10_000)
            .with_migration_rate(Some(1_000_000.0));
        config.rebuild_rate_blocks_per_sec = 1_000_000.0;
        let mut a = CraidArray::new(config).unwrap();
        warm(&mut a);
        a.fail_disk(SimTime::from_secs(1.0), 2).unwrap();
        a.repair_disk(SimTime::from_secs(2.0), 2).unwrap();
        // Mid-rebuild expansion is legal: both tasks are live on the same
        // fair-share engine and advance in the same pump.
        let report = a.expand(SimTime::from_secs(3.0), 4).unwrap();
        assert!(report.enqueued_blocks > 0);
        assert_eq!(a.disk_count(), 12);
        let migrated_before = a.migration_stats().migrated_blocks;
        let rebuilt_before = a.fault_stats().rebuild_write_blocks;
        a.pump_background(SimTime::from_secs(3.5));
        assert!(a.fault_stats().rebuild_write_blocks > rebuilt_before);
        assert!(a.migration_stats().migrated_blocks > migrated_before);
        let _ = drain(&mut a, 4.0);
        assert_eq!(a.fault_stats().rebuilds_completed, 1, "rebuild finished");
        assert_eq!(a.migration_stats().migrations_completed, 1, "and the move");
    }

    #[test]
    fn second_pc_migration_queues_and_both_generations_resolve() {
        // Aggregated archives have no reshape to serialize on, so a second
        // expand may start its own PC redistribution while the first is
        // still streaming: two preserved geometries are live at once.
        let mut a = paced(
            StrategyKind::Craid5Plus,
            2.0,
            BackgroundPriority::Sequential,
        );
        // A dirty block pins a generation-1 entry.
        a.submit(SimTime::ZERO, IoKind::Write, BlockRange::new(123, 1))
            .unwrap();
        a.submit(SimTime::ZERO, IoKind::Write, BlockRange::new(456, 1))
            .unwrap();
        let first = a.expand(SimTime::from_secs(1.0), 4).unwrap();
        assert!(!first.deferred);
        assert_eq!(a.pending_migration_blocks(), 2);
        // Touch a different block so generation 2 has its own content.
        a.submit(
            SimTime::from_secs(1.2),
            IoKind::Write,
            BlockRange::new(789, 1),
        )
        .unwrap();
        let second = a.expand(SimTime::from_secs(2.0), 4).unwrap();
        assert!(!second.deferred, "aggregated archives pipeline upgrades");
        assert_eq!(a.disk_count(), 16);
        assert_eq!(
            tier(&a).generations.len(),
            2,
            "two preserved geometries are live"
        );
        let gens: Vec<TaskId> = tier(&a)
            .migration
            .iter()
            .map(|(_, h)| h.generation)
            .collect();
        assert!(
            gens.iter().any(|&g| g != gens[0]),
            "entries from both generations are pending: {gens:?}"
        );
        // Dirty pending reads of both generations resolve correctly.
        for block in [123u64, 789] {
            let r = a
                .submit(
                    SimTime::from_secs(2.5),
                    IoKind::Read,
                    BlockRange::new(block, 1),
                )
                .unwrap();
            assert_eq!(r.cache_hit_blocks, 1, "block {block} served from its slot");
        }
        let _ = drain(&mut a, 3.0);
        let stats = a.migration_stats();
        assert_eq!(stats.migrations_started, 2);
        assert_eq!(stats.migrations_completed, 2);
        assert_eq!(stats.pending_blocks, 0);
        assert!(
            tier(&a).generations.is_empty(),
            "both geometries were released"
        );
    }

    #[test]
    fn streaming_generations_apply_each_drained_block_at_most_once() {
        // Two hot-first CRAID-5+ redistributions stream at once (an
        // aggregated archive pipelines upgrades) while client writes
        // supersede pending blocks of both. Each generation may apply each
        // of its drained blocks at most once, and every enqueued block ends
        // migrated or superseded.
        use crate::choice::{self, Chooser, DecisionPoint, Observation};
        use std::cell::RefCell;
        use std::collections::BTreeSet;
        use std::rc::Rc;

        #[derive(Default)]
        struct Record(Vec<Observation>);
        impl Chooser for Record {
            fn choose(&mut self, _point: DecisionPoint, _arity: usize) -> usize {
                0
            }
            fn observe(&mut self, observation: Observation) {
                self.0.push(observation);
            }
        }
        // Pumps a tenth of a second apart, each followed by a client write
        // over blocks the warm-up cached.
        fn stream(a: &mut CraidArray, t: &mut f64, writes: std::ops::Range<u64>) {
            for i in writes {
                *t += 0.1;
                a.pump_background(SimTime::from_secs(*t));
                let range = BlockRange::new(i * 48 % 960, 4);
                a.submit(SimTime::from_secs(*t), IoKind::Write, range)
                    .unwrap();
            }
        }
        let record = Rc::new(RefCell::new(Record::default()));
        let stats = choice::with_chooser(record.clone(), || {
            let mut a = paced(StrategyKind::Craid5Plus, 20.0, BackgroundPriority::HotFirst);
            warm(&mut a);
            warm(&mut a);
            let first = a.expand(SimTime::from_secs(1.0), 4).unwrap();
            assert!(first.enqueued_blocks > 0);
            let mut t = 1.0;
            stream(&mut a, &mut t, 0..20);
            assert!(a.pending_migration_blocks() > 0, "the first still streams");
            let second = a.expand(SimTime::from_secs(t), 4).unwrap();
            assert!(!second.deferred && second.enqueued_blocks > 0);
            assert_eq!(tier(&a).generations.len(), 2);
            stream(&mut a, &mut t, 20..40);
            let _ = drain(&mut a, t + 1.0);
            assert!(tier(&a).generations.is_empty());
            a.migration_stats()
        });
        let mut applied = BTreeSet::new();
        let mut enqueued = 0;
        for observation in &record.borrow().0 {
            match *observation {
                Observation::MigrationApply {
                    block,
                    entry_generation,
                    task_generation,
                } => {
                    assert_eq!(entry_generation, task_generation, "block {block}");
                    assert!(
                        applied.insert((task_generation, block)),
                        "generation {task_generation} applied block {block} twice"
                    );
                }
                Observation::MoveSetEnqueued {
                    kind: TaskKind::ExpansionMigration,
                    blocks,
                } => enqueued += blocks,
                _ => {}
            }
        }
        let generations: BTreeSet<TaskId> = applied.iter().map(|&(g, _)| g).collect();
        assert_eq!(generations.len(), 2, "both generations migrated blocks");
        assert_eq!(stats.migrations_completed, 2);
        assert_eq!(stats.pending_blocks, 0);
        assert!(
            stats.superseded_blocks > 0,
            "client writes superseded moves"
        );
        assert_eq!(stats.migrated_blocks + stats.superseded_blocks, enqueued);
    }

    #[test]
    fn ssd_variant_reports_sequential_effective_priority_for_its_restripe() {
        // Craid5Ssd starts no PC redistribution (the SSD cache survives);
        // its only paced stream is the archive-restripe cursor, which walks
        // sequentially no matter what was configured. The report must say
        // so instead of echoing the no-op hot-first knob.
        let mut a = paced(
            StrategyKind::Craid5Ssd,
            100_000.0,
            BackgroundPriority::HotFirst,
        );
        warm(&mut a);
        let report = a.expand(SimTime::from_secs(10.0), 4).unwrap();
        assert_eq!(
            report.enqueued_blocks, 0,
            "the SSD cache is kept, not moved"
        );
        let stats = a.migration_stats();
        assert_eq!(stats.archive_restripes_started, 1);
        assert_eq!(
            stats.effective_priority,
            Some(BackgroundPriority::Sequential),
            "only the sequential reshape actually ran"
        );
        let _ = drain(&mut a, 11.0);
        assert_eq!(a.migration_stats().archive_restripes_completed, 1);
    }

    #[test]
    fn zero_move_activation_cannot_strand_later_deferred_expansions() {
        // A one-block dataset keeps its location across the width change,
        // so the reshape's move set is empty. The restripe task must be
        // pushed anyway: its completion is what activates the next queued
        // expansion — without it the deferred queue would hang the drain.
        let config =
            ArrayConfig::small_test(StrategyKind::Craid5, 1).with_migration_rate(Some(1_000.0));
        let mut a = CraidArray::new(config).unwrap();
        a.expand(SimTime::from_secs(1.0), 4).unwrap();
        let second = a.expand(SimTime::from_secs(2.0), 4).unwrap();
        assert!(second.deferred);
        let third = a.expand(SimTime::from_secs(3.0), 4).unwrap();
        assert!(third.deferred);
        let _ = drain(&mut a, 4.0);
        assert_eq!(a.disk_count(), 20, "every queued expansion activated");
        assert_eq!(a.deferred_expansions(), 0);
        let stats = a.migration_stats();
        assert_eq!(stats.archive_restripes_started, 3);
        assert_eq!(stats.archive_restripes_completed, 3);
    }

    #[test]
    fn craid5_second_expand_defers_behind_the_archive_restripe() {
        let mut a = paced(
            StrategyKind::Craid5,
            50_000.0,
            BackgroundPriority::Sequential,
        );
        warm(&mut a);
        let first = a.expand(SimTime::from_secs(1.0), 4).unwrap();
        assert!(!first.deferred);
        assert_eq!(a.disk_count(), 12);
        let second = a.expand(SimTime::from_secs(2.0), 4).unwrap();
        assert!(second.deferred, "the reshape serializes ideal archives");
        assert_eq!(a.disk_count(), 12, "the deferred layout is not committed");
        assert_eq!(a.deferred_expansions(), 1);
        // 12 + 4 + 3 = 19 breaks the projected parity alignment.
        assert!(a.expand(SimTime::from_secs(2.5), 3).is_err());
        let t = drain(&mut a, 3.0);
        assert_eq!(a.disk_count(), 16, "the queued expansion activated");
        let stats = a.migration_stats();
        assert_eq!(stats.archive_restripes_started, 2);
        assert_eq!(stats.archive_restripes_completed, 2);
        assert_eq!(stats.migrations_completed, stats.migrations_started);
        assert!(a
            .submit(SimTime::from_secs(t), IoKind::Read, BlockRange::new(0, 4))
            .is_ok());
    }

    // Arrays without a cache partition: the RAID-5 and RAID-5+ baselines.

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
        let old = CraidArray::build_pa(&config, 8, &[]).unwrap();
        let new = CraidArray::build_pa(&config, 12, &[]).unwrap();
        // Old rows carry (8-2)*4 = 24 data blocks, new rows (12-3)*4 = 36;
        // lcm(24, 36) = 72.
        let used = 8_192 * 72;
        assert!(used <= old.data_capacity() && used <= new.data_capacity());
        let exact = craid_raid::round_robin_migration_blocks(old.layout(), new.layout(), used)
            as f64
            / used as f64;
        let estimate = CraidArray::restripe_fraction(&old, &new, used);
        assert!(
            (estimate - exact).abs() < 0.02,
            "estimate {estimate:.4} strays from exact {exact:.4} on a stride-resonant geometry"
        );
        // And on a small range it degenerates gracefully.
        assert!(CraidArray::restripe_fraction(&old, &new, 1) <= 1.0);
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
        let mut b = CraidArray::new(cfg).unwrap();
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
        assert!(a.monitor_stats().is_none());
    }

    #[test]
    fn paced_restripe_serves_pending_blocks_from_the_old_layout() {
        let mut a = paced(StrategyKind::Raid5, 100.0, BackgroundPriority::Sequential);
        let old_pa = a.pa.clone();
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
        let old_plan = old_pa.plan_blocks(IoKind::Read, &[pending]);
        let new_plan = a.pa.plan_blocks(IoKind::Read, &[pending]);
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
        let mut a = paced(
            StrategyKind::Raid5,
            100_000.0,
            BackgroundPriority::Sequential,
        );
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
        let mut a = CraidArray::new(config).unwrap();
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
        let mut a = paced(
            StrategyKind::Raid5,
            50_000.0,
            BackgroundPriority::Sequential,
        );
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
        let mut a = paced(
            StrategyKind::Raid5Plus,
            100.0,
            BackgroundPriority::Sequential,
        );
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
        let mut a = CraidArray::new(cfg).unwrap();
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
