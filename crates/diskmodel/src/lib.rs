//! # craid-diskmodel
//!
//! Device service-time models for the CRAID storage simulator.
//!
//! The FAST '14 CRAID paper evaluates its design on DiskSim 4.0 with the
//! validated Seagate Cheetah 15K.5 disk model plus Microsoft Research's
//! idealized SSD model. Neither simulator is available as a Rust library, so
//! this crate implements the closest analytic equivalents:
//!
//! * [`HddModel`] — a mechanical disk with a square-root seek curve, 15 000
//!   RPM rotational latency, zoned (outer-faster) transfer rates and a small
//!   segmented on-disk cache with read-ahead. These are the first-order
//!   effects that make the paper's results move: random I/O pays seek +
//!   rotation, sequential runs amortize them, and confining the hot set to a
//!   narrow band of the platter shortens seeks and keeps the band resident in
//!   the disk cache.
//! * [`SsdModel`] — an idealized flash device with fixed per-page read/write
//!   latencies and **no** internal cache, mirroring the paper's observation
//!   that DiskSim's SSD model does not simulate one.
//! * [`StorageDevice`] — wraps either model with FCFS queueing, per-device
//!   load accounting (busy time, bytes, queue-depth samples) used by the
//!   load-balance and queue-depth experiments (Fig. 7, Tables 5–6).
//!
//! # Example
//!
//! ```
//! use craid_diskmodel::{HddModel, HddParameters, IoKind, StorageDevice};
//! use craid_simkit::SimTime;
//!
//! let mut disk = StorageDevice::new(0, HddModel::new(HddParameters::cheetah_15k5()));
//! let done = disk.submit(SimTime::ZERO, IoKind::Read, 1_000, 8); // 8 blocks = 32 KiB
//! assert!(done > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod device;
pub mod hdd;
pub mod request;
pub mod ssd;

pub use cache::{CacheOutcome, SegmentedCache};
pub use device::{Completion, DeviceLoadStats, DeviceModel, ServiceBreakdown, StorageDevice};
pub use hdd::{HddModel, HddParameters};
pub use request::{BlockRange, IoKind, BLOCK_SIZE_BYTES};
pub use ssd::{SsdModel, SsdParameters};
