//! Device queueing and load accounting.
//!
//! [`StorageDevice`] turns a pure service-time model ([`DeviceModel`]) into a
//! queued device: requests submitted while the device is busy wait in FCFS
//! order, and the device records the per-device load statistics the paper's
//! evaluation reports — queue depth (Table 5), busy time and bytes moved
//! (Fig. 7 / Table 6 load balance), and the breakdown of where time went.

use serde::{Deserialize, Serialize};

use craid_simkit::{SimDuration, SimTime};

use crate::request::{BlockRange, IoKind};

/// Where the time of one device-level request went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServiceBreakdown {
    /// Fixed controller/command overhead.
    pub overhead: SimDuration,
    /// Head positioning time (zero for solid-state devices).
    pub seek: SimDuration,
    /// Rotational delay for disks; flash array time for SSDs.
    pub rotation: SimDuration,
    /// Media or interface transfer time.
    pub transfer: SimDuration,
    /// True if the request was served from the device's internal cache.
    pub cache_hit: bool,
}

impl ServiceBreakdown {
    /// Total service time of the request (excluding queueing delay).
    pub fn total(&self) -> SimDuration {
        self.overhead + self.seek + self.rotation + self.transfer
    }
}

/// A pure service-time model of a storage device.
///
/// Implementations are stateful: mechanical models track head position and
/// internal-cache contents between requests.
pub trait DeviceModel {
    /// Usable capacity in 4 KiB blocks.
    fn capacity_blocks(&self) -> u64;

    /// Computes the service time of one request and updates device state.
    fn service(&mut self, kind: IoKind, range: BlockRange) -> ServiceBreakdown;
}

/// Aggregate load statistics of one device.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceLoadStats {
    /// Number of requests served.
    pub requests: u64,
    /// Number of read requests served.
    pub reads: u64,
    /// Number of write requests served.
    pub writes: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Total time the device spent servicing requests.
    pub busy: SimDuration,
    /// Total time requests spent waiting in the queue.
    pub queued: SimDuration,
    /// Number of requests that hit the device's internal cache.
    pub internal_cache_hits: u64,
    /// Sum of queue depths observed at submission (for the mean).
    pub queue_depth_sum: u64,
    /// Largest queue depth observed at submission.
    pub queue_depth_max: u64,
}

/// Completion report for one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Completion {
    /// When the device started servicing the request.
    pub started: SimTime,
    /// When the request completed.
    pub finished: SimTime,
    /// Queue depth (requests ahead of this one) at submission time.
    pub queue_depth: u64,
    /// Service-time breakdown.
    pub breakdown: ServiceBreakdown,
}

/// A queued storage device: a [`DeviceModel`] plus FCFS queueing and load
/// accounting.
///
/// The device services one request at a time. A request submitted at time
/// `t` starts at `max(t, previous completion)`; its completion time is the
/// start plus the model's service time. This captures queueing delay and
/// device contention while keeping the whole simulation single-pass.
#[derive(Debug, Clone)]
pub struct StorageDevice<M> {
    id: usize,
    model: M,
    next_free: SimTime,
    /// Completion times of recent requests, pruned lazily; used to compute
    /// the queue depth seen by a new arrival.
    outstanding: Vec<SimTime>,
    stats: DeviceLoadStats,
}

impl<M: DeviceModel> StorageDevice<M> {
    /// Wraps `model` as device number `id`.
    pub fn new(id: usize, model: M) -> Self {
        StorageDevice {
            id,
            model,
            next_free: SimTime::ZERO,
            outstanding: Vec::new(),
            stats: DeviceLoadStats::default(),
        }
    }

    /// Device number within the array.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Usable capacity in 4 KiB blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.model.capacity_blocks()
    }

    /// Accumulated load statistics.
    pub fn stats(&self) -> &DeviceLoadStats {
        &self.stats
    }

    /// Submits a request arriving at `now` and returns its completion time.
    ///
    /// Convenience wrapper around [`StorageDevice::submit_detailed`].
    pub fn submit(&mut self, now: SimTime, kind: IoKind, start_block: u64, blocks: u64) -> SimTime {
        self.submit_detailed(now, kind, BlockRange::new(start_block, blocks))
            .finished
    }

    /// Submits a request arriving at `now` and returns the full completion
    /// report (start time, queue depth, breakdown).
    pub fn submit_detailed(&mut self, now: SimTime, kind: IoKind, range: BlockRange) -> Completion {
        // Queue depth = requests still outstanding when this one arrives.
        self.outstanding.retain(|&t| t > now);
        let queue_depth = self.outstanding.len() as u64;

        let started = self.next_free.max(now);
        let breakdown = self.model.service(kind, range);
        let service = breakdown.total();
        let finished = started + service;
        self.next_free = finished;
        self.outstanding.push(finished);

        self.stats.requests += 1;
        match kind {
            IoKind::Read => self.stats.reads += 1,
            IoKind::Write => self.stats.writes += 1,
        }
        self.stats.bytes += range.bytes();
        self.stats.busy += service;
        self.stats.queued += started.saturating_since(now);
        if breakdown.cache_hit {
            self.stats.internal_cache_hits += 1;
        }
        self.stats.queue_depth_sum += queue_depth;
        self.stats.queue_depth_max = self.stats.queue_depth_max.max(queue_depth);

        Completion {
            started,
            finished,
            queue_depth,
            breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdd::{HddModel, HddParameters};

    fn hdd_device() -> StorageDevice<HddModel> {
        StorageDevice::new(
            3,
            HddModel::new(HddParameters::cheetah_15k5_scaled(262_144)),
        )
    }

    #[test]
    fn back_to_back_requests_queue_up() {
        let mut dev = hdd_device();
        let a = dev.submit_detailed(SimTime::ZERO, IoKind::Read, BlockRange::new(10_000, 8));
        let b = dev.submit_detailed(SimTime::ZERO, IoKind::Read, BlockRange::new(200_000, 8));
        assert_eq!(a.queue_depth, 0);
        assert_eq!(b.queue_depth, 1);
        assert!(
            b.started >= a.finished,
            "second request waits for the first"
        );
        assert!(dev.stats().queued > SimDuration::ZERO);
        assert_eq!(dev.stats().requests, 2);
        assert_eq!(dev.stats().queue_depth_max, 1);
    }

    #[test]
    fn idle_gap_resets_queue_depth() {
        let mut dev = hdd_device();
        dev.submit(SimTime::ZERO, IoKind::Read, 1_000, 8);
        // Arrive long after the first completed.
        let c = dev.submit_detailed(
            SimTime::from_secs(10.0),
            IoKind::Read,
            BlockRange::new(2_000, 8),
        );
        assert_eq!(c.queue_depth, 0);
        assert_eq!(c.started, SimTime::from_secs(10.0));
    }

    #[test]
    fn stats_accumulate_bytes_and_kinds() {
        let mut dev = hdd_device();
        dev.submit(SimTime::ZERO, IoKind::Read, 0, 8);
        dev.submit(SimTime::ZERO, IoKind::Write, 100, 4);
        let s = dev.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes, 12 * crate::request::BLOCK_SIZE_BYTES);
        assert!(s.busy > SimDuration::ZERO);
    }

    #[test]
    fn saturated_device_is_busy_until_its_last_completion() {
        let mut dev = hdd_device();
        let mut last = SimTime::ZERO;
        for i in 0..50 {
            last = dev.submit(SimTime::ZERO, IoKind::Read, (i * 1_000) % 200_000, 8);
        }
        assert_eq!(dev.stats().busy, last.saturating_since(SimTime::ZERO));
        // An idle gap is not busy time.
        let after_gap = dev.submit(last + SimDuration::from_secs(1.0), IoKind::Read, 0, 8);
        assert!(dev.stats().busy < after_gap.saturating_since(SimTime::ZERO));
    }

    #[test]
    fn latency_includes_queueing() {
        let mut dev = hdd_device();
        let submit = SimTime::ZERO;
        dev.submit(submit, IoKind::Read, 10_000, 8);
        let c = dev.submit_detailed(submit, IoKind::Read, BlockRange::new(220_000, 8));
        assert!(c.finished.saturating_since(submit) > c.breakdown.total());
    }

    #[test]
    fn mean_queue_depth_reflects_burstiness() {
        let mut dev = hdd_device();
        for i in 0..10 {
            dev.submit(SimTime::ZERO, IoKind::Read, i * 10_000, 8);
        }
        let s = dev.stats();
        assert!(s.queue_depth_sum as f64 / s.requests as f64 > 3.0);
        assert_eq!(s.queue_depth_max, 9);
    }
}
