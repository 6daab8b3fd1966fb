//! The simulated device population of an array.
//!
//! An array owns a set of mechanical disks and (for the `*ssd` strategies) a
//! set of dedicated SSDs. [`DeviceSet`] hides the concrete model behind an
//! enum so the rest of the crate can address devices uniformly by index, and
//! records every device-level I/O as a [`DeviceIoEvent`] that the simulation
//! driver feeds into the metrics trackers.

use serde::{Deserialize, Serialize};

use craid_diskmodel::{
    BlockRange, DeviceLoadStats, HddModel, HddParameters, IoKind, SsdModel, SsdParameters,
    StorageDevice,
};
use craid_raid::{IoPurpose, PlannedIo};
use craid_simkit::SimTime;

use crate::config::ArrayConfig;
use crate::error::CraidError;

/// Health of one device in the array.
///
/// The tracker models a single-fault RAID world: at most one device is
/// non-healthy at a time. A `Failed` device accepts no I/O at all (reads
/// are reconstructed from its parity-group peers, writes are absorbed by
/// parity); a `Rebuilding` device is the installed hot spare — it accepts
/// writes (client and rebuild traffic) while reads still fan out to the
/// surviving members until the rebuild completes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiskState {
    /// The device serves I/O normally.
    #[default]
    Healthy,
    /// The device is dead: reads must be reconstructed, writes absorbed by
    /// parity.
    Failed,
    /// A hot spare occupies the slot and is being filled by the background
    /// rebuild; reads are still served in degraded mode.
    Rebuilding,
}

/// One device-level I/O issued during the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceIoEvent {
    /// Target device (index within the whole array, SSDs after HDDs).
    pub device: usize,
    /// Physical start block on the device.
    pub start_block: u64,
    /// Number of blocks moved.
    pub blocks: u64,
    /// Transfer direction.
    pub kind: IoKind,
    /// Why the I/O was issued (client data, parity maintenance, copy...).
    pub purpose: IoPurpose,
    /// When the I/O was handed to the device.
    pub submitted: SimTime,
    /// When the device completed it.
    pub finished: SimTime,
    /// Queue depth observed on arrival at the device.
    pub queue_depth: u64,
    /// True if the device served it from its internal cache.
    pub internal_cache_hit: bool,
}

impl DeviceIoEvent {
    /// Bytes moved by this I/O.
    pub fn bytes(&self) -> u64 {
        self.blocks * craid_diskmodel::BLOCK_SIZE_BYTES
    }
}

/// A single simulated device of any tier.
#[derive(Debug, Clone)]
enum DeviceUnit {
    Hdd(StorageDevice<HddModel>),
    Ssd(StorageDevice<SsdModel>),
}

impl DeviceUnit {
    fn submit(&mut self, now: SimTime, kind: IoKind, range: BlockRange) -> (SimTime, u64, bool) {
        match self {
            DeviceUnit::Hdd(d) => {
                let c = d.submit_detailed(now, kind, range);
                (c.finished, c.queue_depth, c.breakdown.cache_hit)
            }
            DeviceUnit::Ssd(d) => {
                let c = d.submit_detailed(now, kind, range);
                (c.finished, c.queue_depth, c.breakdown.cache_hit)
            }
        }
    }

    fn stats(&self) -> DeviceLoadStats {
        match self {
            DeviceUnit::Hdd(d) => d.stats().clone(),
            DeviceUnit::Ssd(d) => d.stats().clone(),
        }
    }

    fn capacity_blocks(&self) -> u64 {
        match self {
            DeviceUnit::Hdd(d) => d.capacity_blocks(),
            DeviceUnit::Ssd(d) => d.capacity_blocks(),
        }
    }
}

/// The device population of one array: `hdd_count` mechanical disks followed
/// by `ssd_count` dedicated SSDs, addressed by a single flat index.
#[derive(Debug, Clone)]
pub struct DeviceSet {
    devices: Vec<DeviceUnit>,
    /// The one non-healthy device and its state; every other device is
    /// healthy. Only a mechanical disk fails, and added disks are spliced
    /// in after the existing ones, so the index never shifts.
    fault: Option<(usize, DiskState)>,
    hdd_count: usize,
    /// The mechanical disks' parameters, capacity included: upgrades add
    /// disks of the same model.
    hdd_params: HddParameters,
}

impl DeviceSet {
    /// Builds the device population described by `config`.
    pub fn from_config(config: &ArrayConfig) -> Self {
        let mut set = DeviceSet {
            devices: Vec::with_capacity(config.disks + config.ssd_cache_devices),
            fault: None,
            hdd_count: 0,
            hdd_params: HddParameters {
                capacity_blocks: config.hdd_capacity_blocks,
                ..config.hdd.clone()
            },
        };
        set.add_hdds(config.disks);
        let ssd_count = if config.strategy.uses_ssd_cache() {
            config.ssd_cache_devices
        } else {
            0
        };
        for id in 0..ssd_count {
            let params = SsdParameters {
                capacity_blocks: config.ssd.capacity_blocks,
                ..config.ssd.clone()
            };
            set.devices.push(DeviceUnit::Ssd(StorageDevice::new(
                config.disks + id,
                SsdModel::new(params),
            )));
        }
        set
    }

    /// Total number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True if the set holds no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Capacity of device `device` in blocks.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn capacity_blocks(&self, device: usize) -> u64 {
        self.devices[device].capacity_blocks()
    }

    /// Adds `count` new mechanical disks (an online upgrade).
    pub fn add_hdds(&mut self, count: usize) {
        for i in 0..count {
            let id = self.hdd_count + i;
            let unit = DeviceUnit::Hdd(StorageDevice::new(
                id,
                HddModel::new(self.hdd_params.clone()),
            ));
            // New disks are spliced in just after the existing HDDs so that
            // HDD indices stay contiguous and SSDs keep trailing.
            self.devices.insert(self.hdd_count + i, unit);
        }
        self.hdd_count += count;
    }

    /// The single non-healthy device, with its state, if any.
    pub fn degraded_disk(&self) -> Option<(usize, DiskState)> {
        self.fault
    }

    /// The state of `device`.
    fn state(&self, device: usize) -> DiskState {
        match self.fault {
            Some((faulty, state)) if faulty == device => state,
            _ => DiskState::Healthy,
        }
    }

    /// Marks mechanical disk `device` as failed.
    ///
    /// # Errors
    ///
    /// Returns [`CraidError::InvalidFault`] if `device` is not a healthy
    /// mechanical disk, or another device is already failed or rebuilding
    /// (the tracker models a single-fault world).
    pub fn fail_disk(&mut self, device: usize) -> Result<(), CraidError> {
        if device >= self.hdd_count {
            return Err(CraidError::InvalidFault(format!(
                "disk {device} is not a mechanical disk (array has {} of them)",
                self.hdd_count
            )));
        }
        if let Some((other, state)) = self.fault {
            return Err(CraidError::InvalidFault(format!(
                "disk {other} is already {state:?}; only one concurrent fault is supported"
            )));
        }
        self.fault = Some((device, DiskState::Failed));
        Ok(())
    }

    /// Installs a hot spare in `device`'s slot and marks it rebuilding.
    ///
    /// # Errors
    ///
    /// Returns [`CraidError::InvalidFault`] unless `device` is currently
    /// failed.
    pub fn start_rebuild(&mut self, device: usize) -> Result<(), CraidError> {
        if self.state(device) != DiskState::Failed {
            return Err(CraidError::InvalidFault(format!(
                "disk {device} is not failed; nothing to repair"
            )));
        }
        self.fault = Some((device, DiskState::Rebuilding));
        Ok(())
    }

    /// Marks a rebuilding device healthy again (the rebuild finished).
    ///
    /// # Panics
    ///
    /// Panics if `device` was not rebuilding — completion without a prior
    /// [`DeviceSet::start_rebuild`] is a driver bug.
    pub fn complete_rebuild(&mut self, device: usize) {
        assert_eq!(
            self.state(device),
            DiskState::Rebuilding,
            "disk {device} was not rebuilding"
        );
        self.fault = None;
    }

    /// Submits one physical I/O to device `device` and returns its event
    /// record.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range, the range exceeds the device, or
    /// the device is failed (degraded planning must have redirected the I/O
    /// to surviving parity-group members first).
    pub fn submit(
        &mut self,
        now: SimTime,
        device: usize,
        kind: IoKind,
        range: BlockRange,
        purpose: IoPurpose,
    ) -> DeviceIoEvent {
        assert!(device < self.devices.len(), "device {device} out of range");
        assert_ne!(
            self.state(device),
            DiskState::Failed,
            "I/O submitted to failed device {device}"
        );
        let (finished, queue_depth, cache_hit) = self.devices[device].submit(now, kind, range);
        DeviceIoEvent {
            device,
            start_block: range.start(),
            blocks: range.len(),
            kind,
            purpose,
            submitted: now,
            finished,
            queue_depth,
            internal_cache_hit: cache_hit,
        }
    }

    /// Submits every I/O of `plan` in order, appending one event per I/O
    /// to `events`, and returns the latest completion (`now` for an empty
    /// plan). Every device I/O the array issues passes through here, the
    /// rebuild stream aside.
    ///
    /// # Panics
    ///
    /// Panics as [`DeviceSet::submit`] does.
    pub fn issue(
        &mut self,
        now: SimTime,
        plan: &[PlannedIo],
        events: &mut Vec<DeviceIoEvent>,
    ) -> SimTime {
        let mut finish = now;
        for io in plan {
            let event = self.submit(now, io.disk, io.kind, io.range, io.purpose);
            finish = finish.max(event.finished);
            events.push(event);
        }
        finish
    }

    /// Per-device load statistics, indexed by device number.
    pub fn load_stats(&self) -> Vec<DeviceLoadStats> {
        self.devices.iter().map(DeviceUnit::stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyKind;

    fn cfg(strategy: StrategyKind) -> ArrayConfig {
        ArrayConfig::small_test(strategy, 10_000)
    }

    #[test]
    fn population_matches_strategy() {
        let plain = DeviceSet::from_config(&cfg(StrategyKind::Craid5));
        assert_eq!(plain.hdd_count, 8);
        assert_eq!(plain.len(), 8);

        let ssd = DeviceSet::from_config(&cfg(StrategyKind::Craid5Ssd));
        assert_eq!(ssd.hdd_count, 8);
        assert_eq!(ssd.len(), 11);
        assert!(matches!(ssd.devices[0], DeviceUnit::Hdd(_)));
        assert!(matches!(ssd.devices[8], DeviceUnit::Ssd(_)));
    }

    #[test]
    fn submit_records_event_details() {
        let mut set = DeviceSet::from_config(&cfg(StrategyKind::Raid5));
        let ev = set.submit(
            SimTime::from_millis(1.0),
            2,
            IoKind::Read,
            BlockRange::new(100, 8),
            IoPurpose::Data,
        );
        assert_eq!(ev.device, 2);
        assert_eq!(ev.blocks, 8);
        assert_eq!(ev.bytes(), 8 * 4096);
        assert!(ev.finished > ev.submitted);
        assert_eq!(set.load_stats()[2].requests, 1);
        assert_eq!(set.load_stats()[3].requests, 0);
    }

    #[test]
    fn issue_submits_the_plan_in_order_and_returns_the_latest_finish() {
        let mut set = DeviceSet::from_config(&cfg(StrategyKind::Raid5));
        let mut reference = DeviceSet::from_config(&cfg(StrategyKind::Raid5));
        let now = SimTime::from_millis(1.0);
        let mut events = Vec::new();
        assert_eq!(set.issue(now, &[], &mut events), now, "an empty plan");
        assert!(events.is_empty());
        // Two I/Os queue on disk 2 behind each other; disk 5 runs alone.
        let plan = [
            (2, IoKind::Read, 100),
            (5, IoKind::Write, 0),
            (2, IoKind::Read, 900),
        ]
        .map(|(disk, kind, start)| PlannedIo {
            disk,
            range: BlockRange::new(start, 8),
            kind,
            purpose: IoPurpose::Data,
        });
        let finish = set.issue(now, &plan, &mut events);
        let expected: Vec<DeviceIoEvent> = plan
            .iter()
            .map(|io| reference.submit(now, io.disk, io.kind, io.range, io.purpose))
            .collect();
        assert_eq!(events, expected, "one event per I/O, in plan order");
        assert_eq!(finish, expected.iter().map(|e| e.finished).max().unwrap());
        assert!(events[2].finished > events[0].finished, "disk 2 queued");
    }

    #[test]
    fn adding_hdds_extends_the_population() {
        let mut set = DeviceSet::from_config(&cfg(StrategyKind::Craid5Ssd));
        let before = set.len();
        set.add_hdds(4);
        assert_eq!(set.hdd_count, 12);
        assert_eq!(set.len(), before + 4);
        // SSDs still trail and are still flash.
        assert!(matches!(set.devices[set.len() - 1], DeviceUnit::Ssd(_)));
        assert!(matches!(set.devices[11], DeviceUnit::Hdd(_)));
        // The new disks accept I/O.
        let ev = set.submit(
            SimTime::ZERO,
            10,
            IoKind::Read,
            BlockRange::new(0, 4),
            IoPurpose::Data,
        );
        assert!(ev.finished > SimTime::ZERO);
    }

    #[test]
    fn disk_state_lifecycle_fail_rebuild_heal() {
        let mut set = DeviceSet::from_config(&cfg(StrategyKind::Raid5));
        assert_eq!(set.state(3), DiskState::Healthy);
        assert_eq!(set.degraded_disk(), None);

        set.fail_disk(3).unwrap();
        assert_eq!(set.state(3), DiskState::Failed);
        assert_eq!(set.degraded_disk(), Some((3, DiskState::Failed)));
        // Single-fault world: a second failure is rejected.
        assert!(matches!(set.fail_disk(5), Err(CraidError::InvalidFault(_))));
        // Repairing some other disk is rejected too.
        assert!(set.start_rebuild(5).is_err());

        set.start_rebuild(3).unwrap();
        assert_eq!(set.state(3), DiskState::Rebuilding);
        // A rebuilding spare accepts writes.
        let ev = set.submit(
            SimTime::ZERO,
            3,
            IoKind::Write,
            BlockRange::new(0, 4),
            IoPurpose::RebuildWrite,
        );
        assert_eq!(ev.purpose, IoPurpose::RebuildWrite);

        set.complete_rebuild(3);
        assert_eq!(set.state(3), DiskState::Healthy);
        assert_eq!(set.degraded_disk(), None);
    }

    #[test]
    fn the_fault_keeps_its_index_while_ssds_shift() {
        let mut set = DeviceSet::from_config(&cfg(StrategyKind::Craid5Ssd));
        let read = |set: &mut DeviceSet, device| {
            set.submit(
                SimTime::ZERO,
                device,
                IoKind::Read,
                BlockRange::new(0, 1),
                IoPurpose::Data,
            )
        };
        set.fail_disk(5).unwrap();
        // Four disks join after the eight: the SSDs move from 8..11 to
        // 12..15, the failed disk stays 5.
        set.add_hdds(4);
        assert_eq!(set.degraded_disk(), Some((5, DiskState::Failed)));
        assert!(set.fail_disk(10).is_err(), "one fault at a time");
        assert!(set.fail_disk(12).is_err(), "device 12 is an SSD now");
        assert!(matches!(set.devices[12], DeviceUnit::Ssd(_)));
        for device in [4, 6, 8, 11, 12, 14] {
            read(&mut set, device);
        }
        set.start_rebuild(5).unwrap();
        set.add_hdds(2);
        assert_eq!(set.degraded_disk(), Some((5, DiskState::Rebuilding)));
        assert!(set.start_rebuild(5).is_err(), "the spare is in already");
        read(&mut set, 5);
        set.complete_rebuild(5);
        assert_eq!(set.degraded_disk(), None);
        assert!((0..set.len()).all(|d| set.state(d) == DiskState::Healthy));
        // Fourteen disks now, so disk 13 can fail.
        set.fail_disk(13).unwrap();
        assert_eq!(set.degraded_disk(), Some((13, DiskState::Failed)));
    }

    #[test]
    #[should_panic(expected = "failed device 7")]
    fn io_to_a_failed_disk_panics_after_an_upgrade() {
        let mut set = DeviceSet::from_config(&cfg(StrategyKind::Craid5Ssd));
        set.fail_disk(7).unwrap();
        set.add_hdds(4);
        set.submit(
            SimTime::ZERO,
            7,
            IoKind::Read,
            BlockRange::new(0, 1),
            IoPurpose::Data,
        );
    }

    #[test]
    fn ssds_and_out_of_range_disks_cannot_fail() {
        let mut set = DeviceSet::from_config(&cfg(StrategyKind::Craid5Ssd));
        assert!(set.fail_disk(8).is_err(), "device 8 is an SSD");
        assert!(set.fail_disk(99).is_err());
    }

    #[test]
    fn added_disks_start_healthy_even_mid_fault() {
        let mut set = DeviceSet::from_config(&cfg(StrategyKind::Craid5Ssd));
        set.fail_disk(2).unwrap();
        set.start_rebuild(2).unwrap();
        set.add_hdds(4);
        assert_eq!(set.state(2), DiskState::Rebuilding);
        for d in 8..12 {
            assert_eq!(set.state(d), DiskState::Healthy);
        }
        // SSD state slots trail along with the spliced devices.
        assert_eq!(set.state(set.len() - 1), DiskState::Healthy);
    }

    #[test]
    #[should_panic(expected = "failed device")]
    fn io_to_a_failed_device_panics() {
        let mut set = DeviceSet::from_config(&cfg(StrategyKind::Raid5));
        set.fail_disk(1).unwrap();
        set.submit(
            SimTime::ZERO,
            1,
            IoKind::Read,
            BlockRange::new(0, 1),
            IoPurpose::Data,
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_device_rejected() {
        let mut set = DeviceSet::from_config(&cfg(StrategyKind::Raid5));
        set.submit(
            SimTime::ZERO,
            99,
            IoKind::Read,
            BlockRange::new(0, 1),
            IoPurpose::Data,
        );
    }
}
