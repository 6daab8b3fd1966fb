//! Shared vocabulary for RAID layouts.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A physical block location: device index within the array plus the block
/// number local to that device (relative to the partition's base offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DiskBlock {
    /// Device index within the array.
    pub disk: usize,
    /// Block number local to the device (partition-relative).
    pub block: u64,
}

impl DiskBlock {
    /// Convenience constructor.
    pub const fn new(disk: usize, block: u64) -> Self {
        DiskBlock { disk, block }
    }
}

impl fmt::Display for DiskBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}:{}", self.disk, self.block)
    }
}

/// Why a planned device I/O exists. Used by the simulator to attribute
/// foreground vs. parity-maintenance traffic, and by tests to check that the
/// planner issues exactly the I/Os the paper's cost model expects (e.g. the
/// "4 additional I/Os" for a dirty eviction in a RAID-5 partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoPurpose {
    /// Reads or writes carrying user data.
    Data,
    /// Read of the old content of a data block, needed to recompute parity.
    OldDataRead,
    /// Read of the old parity block.
    ParityRead,
    /// Write of the new parity block.
    ParityWrite,
    /// Degraded-mode read of a surviving parity-group member, issued to
    /// reconstruct a block whose disk has failed.
    ReconstructRead,
    /// Background read of a surviving member feeding a rebuild onto a hot
    /// spare.
    RebuildRead,
    /// Background write of reconstructed content onto the hot spare.
    RebuildWrite,
    /// Background read of a block's pre-upgrade copy, feeding an online
    /// expansion migration.
    MigrateRead,
    /// Background write of a migrated block at its post-upgrade home.
    MigrateWrite,
}

impl IoPurpose {
    /// True for the background data movement of an online expansion.
    pub const fn is_migration(self) -> bool {
        matches!(self, IoPurpose::MigrateRead | IoPurpose::MigrateWrite)
    }
}

/// Errors returned when constructing a layout from inconsistent parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayoutError {
    /// The array needs at least this many devices for the requested geometry.
    NotEnoughDisks {
        /// Devices requested.
        got: usize,
        /// Minimum devices required.
        need: usize,
    },
    /// The parity group size must divide the number of disks.
    UnalignedParityGroup {
        /// Devices in the array.
        disks: usize,
        /// Requested parity-group width.
        group: usize,
    },
    /// A size parameter (stripe unit, per-disk blocks) was zero or not a
    /// multiple of the stripe unit.
    InvalidGeometry(String),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::NotEnoughDisks { got, need } => {
                write!(f, "layout needs at least {need} disks, got {got}")
            }
            LayoutError::UnalignedParityGroup { disks, group } => {
                write!(f, "parity group of {group} does not divide {disks} disks")
            }
            LayoutError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
        }
    }
}

impl std::error::Error for LayoutError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_block_display() {
        assert_eq!(DiskBlock::new(3, 42).to_string(), "d3:42");
    }

    #[test]
    fn disk_block_ordering_is_by_disk_then_block() {
        let mut v = vec![
            DiskBlock::new(1, 5),
            DiskBlock::new(0, 9),
            DiskBlock::new(1, 2),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                DiskBlock::new(0, 9),
                DiskBlock::new(1, 2),
                DiskBlock::new(1, 5)
            ]
        );
    }

    #[test]
    fn purpose_classification() {
        assert!(IoPurpose::MigrateRead.is_migration());
        assert!(IoPurpose::MigrateWrite.is_migration());
        assert!(!IoPurpose::RebuildWrite.is_migration());
        assert!(!IoPurpose::Data.is_migration());
    }

    #[test]
    fn layout_error_messages() {
        let e = LayoutError::NotEnoughDisks { got: 1, need: 3 };
        assert!(e.to_string().contains("at least 3"));
        let e = LayoutError::UnalignedParityGroup {
            disks: 50,
            group: 7,
        };
        assert!(e.to_string().contains("does not divide"));
        let e = LayoutError::InvalidGeometry("stripe unit is zero".into());
        assert!(e.to_string().contains("stripe unit"));
    }
}
