//! The mechanical disk model.
//!
//! An analytic stand-in for DiskSim's validated Seagate Cheetah 15K.5 model
//! (the drive used throughout the paper's evaluation, §5). The model captures
//! the effects that drive the paper's comparative results:
//!
//! * **seek time** grows with the square root of the cylinder distance
//!   between consecutive accesses, so clustering hot blocks into a narrow
//!   cache partition shortens seeks;
//! * **rotational latency** is paid on every non-sequential access
//!   (a deterministic half rotation, keeping runs reproducible);
//! * **transfer rate** is zoned: outer cylinders stream faster than inner
//!   ones, which slightly favours the cache partition placed at the start of
//!   each disk;
//! * a small **segmented cache** with read-ahead serves re-reads and
//!   recently-written extents at electronics speed.

use serde::{Deserialize, Serialize};

use craid_simkit::SimDuration;

use crate::cache::{CacheOutcome, SegmentedCache};
use crate::device::{DeviceModel, ServiceBreakdown};
use crate::request::{BlockRange, IoKind, BLOCK_SIZE_BYTES};

/// Mechanical and electronic parameters of a disk drive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HddParameters {
    /// Usable capacity in 4 KiB blocks.
    pub capacity_blocks: u64,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
    /// Number of seek cylinders (zones of equal block count).
    pub cylinders: u32,
    /// Track-to-track (single cylinder) seek time.
    pub track_to_track_seek: SimDuration,
    /// Full-stroke seek time.
    pub full_stroke_seek: SimDuration,
    /// Sustained media transfer rate at the outermost zone, in MiB/s.
    pub outer_rate_mib_s: f64,
    /// Sustained media transfer rate at the innermost zone, in MiB/s.
    pub inner_rate_mib_s: f64,
    /// Interface/buffer transfer rate used for cache hits, in MiB/s.
    pub interface_rate_mib_s: f64,
    /// Fixed controller/command overhead per request.
    pub controller_overhead: SimDuration,
    /// On-disk cache size in bytes (0 disables the cache).
    pub cache_bytes: u64,
    /// Number of cache segments.
    pub cache_segments: usize,
    /// Read-ahead installed after a cache miss, in blocks.
    pub readahead_blocks: u64,
}

impl HddParameters {
    /// Parameters approximating the Seagate Cheetah 15K.5 (146 GB, 15 000 RPM,
    /// 16 MiB cache) from its public product manual, the drive used by the
    /// paper's DiskSim testbed.
    pub fn cheetah_15k5() -> Self {
        HddParameters {
            capacity_blocks: 146 * 1024 * 1024 * 1024 / BLOCK_SIZE_BYTES,
            rpm: 15_000,
            cylinders: 50_000,
            track_to_track_seek: SimDuration::from_millis(0.2),
            full_stroke_seek: SimDuration::from_millis(7.4),
            outer_rate_mib_s: 125.0,
            inner_rate_mib_s: 73.0,
            interface_rate_mib_s: 320.0,
            controller_overhead: SimDuration::from_millis(0.1),
            cache_bytes: 16 * 1024 * 1024,
            cache_segments: 16,
            readahead_blocks: 64,
        }
    }

    /// The same drive scaled down to `capacity_blocks`, used by the
    /// experiment harness to keep week-long replays tractable while
    /// preserving every latency constant.
    pub fn cheetah_15k5_scaled(capacity_blocks: u64) -> Self {
        let mut p = Self::cheetah_15k5();
        p.capacity_blocks = capacity_blocks.max(1);
        p
    }

    /// Duration of one full platter revolution.
    pub fn revolution_time(&self) -> SimDuration {
        SimDuration::from_secs(60.0 / f64::from(self.rpm))
    }

    /// Validates internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity_blocks == 0 {
            return Err("capacity must be positive".into());
        }
        if self.rpm == 0 {
            return Err("rpm must be positive".into());
        }
        if self.cylinders == 0 {
            return Err("cylinder count must be positive".into());
        }
        if self.outer_rate_mib_s <= 0.0 || self.inner_rate_mib_s <= 0.0 {
            return Err("media transfer rates must be positive".into());
        }
        if self.inner_rate_mib_s > self.outer_rate_mib_s {
            return Err("inner zone cannot be faster than the outer zone".into());
        }
        if self.interface_rate_mib_s <= 0.0 {
            return Err("interface rate must be positive".into());
        }
        if self.full_stroke_seek < self.track_to_track_seek {
            return Err("full stroke seek cannot be shorter than track-to-track".into());
        }
        Ok(())
    }
}

impl Default for HddParameters {
    fn default() -> Self {
        Self::cheetah_15k5()
    }
}

/// State of one simulated mechanical disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HddModel {
    params: HddParameters,
    cache: SegmentedCache,
    /// Cylinder under the head after the last request.
    head_cylinder: u32,
    /// One block past the end of the last transferred extent, used to detect
    /// physically sequential follow-up accesses that skip rotational latency.
    last_block_end: Option<u64>,
}

impl HddModel {
    /// Creates a disk with the given parameters and a cold cache.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`HddParameters::validate`].
    pub fn new(params: HddParameters) -> Self {
        if let Err(msg) = params.validate() {
            panic!("invalid HDD parameters: {msg}");
        }
        let cache = if params.cache_bytes == 0 {
            SegmentedCache::disabled()
        } else {
            SegmentedCache::new(
                params.cache_bytes,
                params.cache_segments,
                params.readahead_blocks,
            )
        };
        HddModel {
            params,
            cache,
            head_cylinder: 0,
            last_block_end: None,
        }
    }

    fn blocks_per_cylinder(&self) -> u64 {
        (self.params.capacity_blocks / u64::from(self.params.cylinders)).max(1)
    }

    fn cylinder_of(&self, block: u64) -> u32 {
        let cyl = block / self.blocks_per_cylinder();
        cyl.min(u64::from(self.params.cylinders - 1)) as u32
    }

    /// Seek time for a move of `distance` cylinders.
    ///
    /// Uses the standard square-root interpolation between track-to-track and
    /// full-stroke seek times, which matches measured curves of server drives
    /// to first order.
    pub fn seek_time(&self, distance: u32) -> SimDuration {
        if distance == 0 {
            return SimDuration::ZERO;
        }
        let t2t = self.params.track_to_track_seek.as_millis();
        let full = self.params.full_stroke_seek.as_millis();
        // Distance 1 maps to the track-to-track time, the maximum possible
        // distance (cylinders - 1) maps to the full-stroke time.
        let max_extra = (self.params.cylinders.saturating_sub(2)).max(1) as f64;
        let frac = (f64::from(distance - 1) / max_extra).sqrt().min(1.0);
        SimDuration::from_millis(t2t + (full - t2t) * frac)
    }

    /// Media transfer rate (MiB/s) in the zone holding `block`.
    pub fn media_rate_at(&self, block: u64) -> f64 {
        let cyl = f64::from(self.cylinder_of(block));
        let max_cyl = f64::from(self.params.cylinders - 1).max(1.0);
        let span = self.params.outer_rate_mib_s - self.params.inner_rate_mib_s;
        self.params.outer_rate_mib_s - span * (cyl / max_cyl)
    }

    fn transfer_time(&self, block: u64, bytes: u64, rate_override: Option<f64>) -> SimDuration {
        let rate = rate_override.unwrap_or_else(|| self.media_rate_at(block));
        let secs = bytes as f64 / (rate * 1024.0 * 1024.0);
        SimDuration::from_secs(secs)
    }
}

impl DeviceModel for HddModel {
    fn capacity_blocks(&self) -> u64 {
        self.params.capacity_blocks
    }

    fn service(&mut self, kind: IoKind, range: BlockRange) -> ServiceBreakdown {
        assert!(
            range.end() <= self.params.capacity_blocks,
            "request {range} beyond device capacity {}",
            self.params.capacity_blocks
        );
        let overhead = self.params.controller_overhead;

        // Probe the internal cache first; hits avoid all mechanical latency.
        if self.cache.access(kind, range) == CacheOutcome::Hit {
            let transfer = self.transfer_time(
                range.start(),
                range.bytes(),
                Some(self.params.interface_rate_mib_s),
            );
            // The head does not move on a buffer hit; positional state is kept.
            return ServiceBreakdown {
                overhead,
                seek: SimDuration::ZERO,
                rotation: SimDuration::ZERO,
                transfer,
                cache_hit: true,
            };
        }

        let target_cyl = self.cylinder_of(range.start());
        let distance = target_cyl.abs_diff(self.head_cylinder);
        let seek = self.seek_time(distance);

        // Physically sequential follow-up accesses ride the same track and pay
        // no rotational delay; everything else waits half a revolution on
        // average (modelled deterministically to keep strategy comparisons
        // noise-free).
        let sequential = self.last_block_end == Some(range.start()) && distance == 0;
        let rotation = if sequential {
            SimDuration::ZERO
        } else {
            self.params.revolution_time() / 2
        };

        let transfer = self.transfer_time(range.start(), range.bytes(), None);

        self.head_cylinder = self.cylinder_of(range.end().saturating_sub(1));
        self.last_block_end = Some(range.end());

        ServiceBreakdown {
            overhead,
            seek,
            rotation,
            transfer,
            cache_hit: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> HddModel {
        // Small disk: 1 GiB, so tests are not dominated by huge addresses.
        HddModel::new(HddParameters::cheetah_15k5_scaled(262_144))
    }

    #[test]
    fn cheetah_parameters_are_sane() {
        let p = HddParameters::cheetah_15k5();
        assert!(p.validate().is_ok());
        assert_eq!(p.capacity_blocks, 38_273_024);
        assert_eq!(p.revolution_time().as_millis(), 4.0);
    }

    #[test]
    fn seek_time_monotone_in_distance() {
        let m = model();
        assert_eq!(m.seek_time(0), SimDuration::ZERO);
        let mut prev = SimDuration::ZERO;
        for d in [1, 10, 100, 1_000, 10_000, 49_999] {
            let t = m.seek_time(d);
            assert!(t >= prev, "seek time must not decrease with distance");
            prev = t;
        }
        assert_eq!(m.seek_time(1), m.params.track_to_track_seek);
        assert_eq!(
            m.seek_time(m.params.cylinders - 1),
            m.params.full_stroke_seek
        );
    }

    #[test]
    fn zoned_rate_decreases_inward() {
        let m = model();
        let outer = m.media_rate_at(0);
        let inner = m.media_rate_at(m.params.capacity_blocks - 1);
        assert!(outer > inner);
        assert!((outer - 125.0).abs() < 1e-6);
        assert!((inner - 73.0).abs() < 1.0);
    }

    #[test]
    fn random_read_pays_seek_and_rotation() {
        let mut m = model();
        let b = m.service(IoKind::Read, BlockRange::new(200_000, 8));
        assert!(!b.cache_hit);
        assert!(b.seek > SimDuration::ZERO);
        assert_eq!(b.rotation, m.params.revolution_time() / 2);
        assert!(b.total() > SimDuration::from_millis(2.0));
    }

    #[test]
    fn sequential_read_skips_rotation_after_first() {
        let mut m = model();
        let first = m.service(IoKind::Read, BlockRange::new(100_000, 8));
        // Far enough to defeat read-ahead but on the same cylinder region:
        // immediately following blocks, outside the cached extent.
        let second = m.service(IoKind::Read, BlockRange::new(100_008, 200));
        assert!(first.rotation > SimDuration::ZERO);
        if !second.cache_hit {
            assert_eq!(
                second.rotation,
                SimDuration::ZERO,
                "sequential follow-up pays no rotation"
            );
            assert_eq!(second.seek, SimDuration::ZERO);
        }
    }

    #[test]
    fn cache_hit_is_much_faster_than_miss() {
        let mut m = model();
        let r = BlockRange::new(50_000, 8);
        let miss = m.service(IoKind::Read, r);
        let hit = m.service(IoKind::Read, r);
        assert!(!miss.cache_hit);
        assert!(hit.cache_hit);
        assert!(
            hit.total() < miss.total() / 4,
            "hit {} vs miss {}",
            hit.total(),
            miss.total()
        );
        assert!(m.cache.hit_ratio() > 0.0);
    }

    #[test]
    fn narrow_band_workload_beats_scattered_workload() {
        // The core mechanical argument of the paper: the same number of
        // accesses confined to a narrow band completes faster than scattered
        // over the whole disk.
        let capacity = 262_144u64;
        let mut narrow = HddModel::new(HddParameters::cheetah_15k5_scaled(capacity));
        let mut scattered = HddModel::new(HddParameters::cheetah_15k5_scaled(capacity));
        let accesses = 500u64;
        let narrow_total: SimDuration = (0..accesses)
            .map(|i| {
                narrow
                    .service(IoKind::Read, BlockRange::new((i * 37) % 2_048, 8))
                    .total()
            })
            .sum();
        let scattered_total: SimDuration = (0..accesses)
            .map(|i| {
                let blk = (i * 104_729) % (capacity - 8);
                scattered
                    .service(IoKind::Read, BlockRange::new(blk, 8))
                    .total()
            })
            .sum();
        assert!(
            narrow_total < scattered_total / 2,
            "narrow {} should be far faster than scattered {}",
            narrow_total,
            scattered_total
        );
    }

    #[test]
    #[should_panic(expected = "beyond device capacity")]
    fn out_of_range_request_panics() {
        let mut m = model();
        let cap = m.capacity_blocks();
        m.service(IoKind::Read, BlockRange::new(cap, 1));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut p = HddParameters::cheetah_15k5();
        p.inner_rate_mib_s = 500.0;
        assert!(p.validate().is_err());
        let mut p2 = HddParameters::cheetah_15k5();
        p2.capacity_blocks = 0;
        assert!(p2.validate().is_err());
    }
}
