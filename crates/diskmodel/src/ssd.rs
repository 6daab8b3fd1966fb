//! The idealized SSD model.
//!
//! The paper's `CRAID-5ssd` and `CRAID-5+ssd` configurations dedicate five
//! SSDs to the cache partition. Its simulator uses Microsoft Research's
//! *idealized* SSD model, and the authors explicitly note (§5.2) that this
//! model "does not simulate a read/write cache". [`SsdModel`] mirrors that:
//! a fixed per-page read/write latency, a byte-rate transfer term, no cache,
//! and no mechanical state.

use serde::{Deserialize, Serialize};

use craid_simkit::SimDuration;

use crate::device::{DeviceModel, ServiceBreakdown};
use crate::request::{BlockRange, IoKind};

/// Parameters of an idealized flash device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdParameters {
    /// Usable capacity in 4 KiB blocks.
    pub capacity_blocks: u64,
    /// Latency to read one 4 KiB page.
    pub read_page_latency: SimDuration,
    /// Latency to program one 4 KiB page (includes amortized erase cost).
    pub write_page_latency: SimDuration,
    /// Interface transfer rate in MiB/s.
    pub interface_rate_mib_s: f64,
    /// Fixed controller/command overhead per request.
    pub controller_overhead: SimDuration,
    /// Number of flash channels that can transfer pages of one request in
    /// parallel (per-request intra-device parallelism).
    pub channels: u32,
}

impl SsdParameters {
    /// Parameters approximating the MSR idealized SSD used by the paper:
    /// 25 µs page reads, 200 µs page programs, 8 channels, no cache.
    pub fn msr_ideal() -> Self {
        SsdParameters {
            capacity_blocks: 32 * 1024 * 1024 * 1024 / crate::request::BLOCK_SIZE_BYTES,
            read_page_latency: SimDuration::from_micros(25.0),
            write_page_latency: SimDuration::from_micros(200.0),
            interface_rate_mib_s: 250.0,
            controller_overhead: SimDuration::from_micros(20.0),
            channels: 8,
        }
    }

    /// The same device scaled to `capacity_blocks`.
    pub fn msr_ideal_scaled(capacity_blocks: u64) -> Self {
        let mut p = Self::msr_ideal();
        p.capacity_blocks = capacity_blocks.max(1);
        p
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
        if self.channels == 0 {
            return Err("channel count must be positive".into());
        }
        if self.interface_rate_mib_s <= 0.0 {
            return Err("interface rate must be positive".into());
        }
        Ok(())
    }
}

impl Default for SsdParameters {
    fn default() -> Self {
        Self::msr_ideal()
    }
}

/// State of one simulated SSD.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SsdModel {
    params: SsdParameters,
}

impl SsdModel {
    /// Creates an SSD with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`SsdParameters::validate`].
    pub fn new(params: SsdParameters) -> Self {
        if let Err(msg) = params.validate() {
            panic!("invalid SSD parameters: {msg}");
        }
        SsdModel { params }
    }
}

impl DeviceModel for SsdModel {
    fn capacity_blocks(&self) -> u64 {
        self.params.capacity_blocks
    }

    fn service(&mut self, kind: IoKind, range: BlockRange) -> ServiceBreakdown {
        assert!(
            range.end() <= self.params.capacity_blocks,
            "request {range} beyond device capacity {}",
            self.params.capacity_blocks
        );
        let per_page = match kind {
            IoKind::Read => self.params.read_page_latency,
            IoKind::Write => self.params.write_page_latency,
        };
        // Pages of one request are spread over the channels; the flash time is
        // the per-page latency times the number of sequential rounds needed.
        let rounds = range.len().div_ceil(u64::from(self.params.channels));
        let flash = per_page.saturating_mul(rounds.max(1));
        let secs = range.bytes() as f64 / (self.params.interface_rate_mib_s * 1024.0 * 1024.0);
        let transfer = SimDuration::from_secs(secs);
        ServiceBreakdown {
            overhead: self.params.controller_overhead,
            seek: SimDuration::ZERO,
            rotation: flash,
            transfer,
            cache_hit: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdd::{HddModel, HddParameters};

    #[test]
    fn msr_parameters_are_sane() {
        let p = SsdParameters::msr_ideal();
        assert!(p.validate().is_ok());
        assert!(p.write_page_latency > p.read_page_latency);
    }

    #[test]
    fn reads_are_faster_than_writes() {
        let mut ssd = SsdModel::new(SsdParameters::msr_ideal_scaled(1_000_000));
        let r = ssd.service(IoKind::Read, BlockRange::new(0, 8));
        let mut ssd2 = SsdModel::new(SsdParameters::msr_ideal_scaled(1_000_000));
        let w = ssd2.service(IoKind::Write, BlockRange::new(0, 8));
        assert!(r.total() < w.total());
    }

    #[test]
    fn ssd_random_read_beats_hdd_random_read() {
        let mut ssd = SsdModel::new(SsdParameters::msr_ideal_scaled(262_144));
        let mut hdd = HddModel::new(HddParameters::cheetah_15k5_scaled(262_144));
        let s = ssd.service(IoKind::Read, BlockRange::new(200_000, 8));
        let h = hdd.service(IoKind::Read, BlockRange::new(200_000, 8));
        assert!(
            s.total().as_millis() * 5.0 < h.total().as_millis(),
            "ssd {} should be at least 5x faster than hdd {}",
            s.total(),
            h.total()
        );
    }

    #[test]
    fn repeated_access_gets_no_cache_benefit() {
        // The MSR model has no cache: the second identical access costs the
        // same as the first (unlike the HDD model).
        let mut ssd = SsdModel::new(SsdParameters::msr_ideal_scaled(1_000_000));
        let r = BlockRange::new(500, 8);
        let first = ssd.service(IoKind::Read, r);
        let second = ssd.service(IoKind::Read, r);
        assert_eq!(first.total(), second.total());
        assert!(!second.cache_hit);
    }

    #[test]
    fn channel_parallelism_flattens_small_requests() {
        let mut ssd = SsdModel::new(SsdParameters::msr_ideal_scaled(1_000_000));
        let one = ssd.service(IoKind::Read, BlockRange::new(0, 1));
        let eight = ssd.service(IoKind::Read, BlockRange::new(100, 8));
        // 8 pages over 8 channels need a single flash round, same as 1 page.
        assert_eq!(one.rotation, eight.rotation);
        let seventeen = ssd.service(IoKind::Read, BlockRange::new(200, 17));
        assert!(seventeen.rotation > eight.rotation);
    }

    #[test]
    #[should_panic(expected = "beyond device capacity")]
    fn out_of_range_request_panics() {
        let mut ssd = SsdModel::new(SsdParameters::msr_ideal_scaled(100));
        ssd.service(IoKind::Write, BlockRange::new(99, 2));
    }
}
