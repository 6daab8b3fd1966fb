//! RAID-5 with parity groups.
//!
//! This is the layout of the paper's `RAID-5` baseline (its Fig. 3a) and of
//! the CRAID cache partition: stripes are "as long as possible" — they span
//! every disk of the array — but parity rotates independently inside each
//! *parity group* of `G` disks, which bounds the damage of a double failure
//! and keeps reconstruction traffic local to a group. The paper's testbed
//! uses 50 disks with a parity-group size of 10.

use serde::{Deserialize, Serialize};

use crate::layout::Layout;
use crate::types::{DiskBlock, LayoutError};

/// A RAID-5 layout over `disks` devices with rotating parity inside each
/// parity group.
///
/// # Geometry
///
/// The per-disk area is divided into rows of one stripe unit each. In row
/// `r`, every parity group `g` (disks `g*G .. (g+1)*G`) dedicates one disk to
/// parity — disk `g*G + (G-1 - (r mod G))`, so parity rotates right-to-left
/// as in the classic left-symmetric layout — and the remaining `G-1` disks of
/// the group hold data. Logical stripe units fill the data slots of a row in
/// disk order before moving to the next row.
///
/// # Example
///
/// ```
/// use craid_raid::{Layout, Raid5Layout};
///
/// // The paper's testbed shape, scaled down: 10 disks, groups of 5.
/// let l = Raid5Layout::new(10, 5, 32, 320).unwrap();
/// assert_eq!(l.disk_count(), 10);
/// // 2 groups × 1 parity disk each → 8 data units per row.
/// assert_eq!(l.data_capacity(), 10 * 320 * 8 / 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Raid5Layout {
    disks: usize,
    group: usize,
    stripe_unit: u64,
    blocks_per_disk: u64,
}

impl Raid5Layout {
    /// Creates a RAID-5 layout.
    ///
    /// `disks` must be a multiple of `group`, and `group` must be at least 2
    /// (one data + one parity disk per row).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] when the geometry is inconsistent.
    pub fn new(
        disks: usize,
        group: usize,
        stripe_unit: u64,
        blocks_per_disk: u64,
    ) -> Result<Self, LayoutError> {
        if disks < 2 {
            return Err(LayoutError::NotEnoughDisks {
                got: disks,
                need: 2,
            });
        }
        if group < 2 {
            return Err(LayoutError::InvalidGeometry(
                "parity group needs at least 2 disks".into(),
            ));
        }
        if !disks.is_multiple_of(group) {
            return Err(LayoutError::UnalignedParityGroup { disks, group });
        }
        if stripe_unit == 0 {
            return Err(LayoutError::InvalidGeometry(
                "stripe unit must be positive".into(),
            ));
        }
        if blocks_per_disk == 0 || !blocks_per_disk.is_multiple_of(stripe_unit) {
            return Err(LayoutError::InvalidGeometry(format!(
                "blocks per disk ({blocks_per_disk}) must be a positive multiple of the stripe unit ({stripe_unit})"
            )));
        }
        Ok(Raid5Layout {
            disks,
            group,
            stripe_unit,
            blocks_per_disk,
        })
    }

    /// Number of parity groups.
    pub fn group_count(&self) -> usize {
        self.disks / self.group
    }

    fn rows(&self) -> u64 {
        self.blocks_per_disk / self.stripe_unit
    }

    /// Data stripe units per row (across all parity groups).
    fn data_units_per_row(&self) -> u64 {
        (self.disks - self.group_count()) as u64
    }

    /// The disk holding parity for parity group `g` in row `r`.
    fn parity_disk(&self, row: u64, g: usize) -> usize {
        let within = self.group - 1 - (row as usize % self.group);
        g * self.group + within
    }

    /// Decomposes a logical block into (row, data-slot index within the row,
    /// offset within the stripe unit).
    fn decompose(&self, logical: u64) -> (u64, u64, u64) {
        let unit = logical / self.stripe_unit;
        let offset = logical % self.stripe_unit;
        let row = unit / self.data_units_per_row();
        let slot = unit % self.data_units_per_row();
        (row, slot, offset)
    }

    /// The disk holding the `slot`-th data unit of row `row`.
    fn data_disk(&self, row: u64, slot: u64) -> usize {
        // Walk the disks in order, skipping each group's parity disk.
        // slot is in [0, disks - group_count).
        let per_group_data = (self.group - 1) as u64;
        let g = (slot / per_group_data) as usize;
        let idx_in_group = (slot % per_group_data) as usize;
        let parity_within = self.group - 1 - (row as usize % self.group);
        // Data slots of the group are the disks except the parity one, in order.
        let disk_within = if idx_in_group < parity_within {
            idx_in_group
        } else {
            idx_in_group + 1
        };
        g * self.group + disk_within
    }
}

impl Layout for Raid5Layout {
    fn disk_count(&self) -> usize {
        self.disks
    }

    fn data_capacity(&self) -> u64 {
        self.rows() * self.data_units_per_row() * self.stripe_unit
    }

    fn stripe_unit(&self) -> u64 {
        self.stripe_unit
    }

    fn blocks_per_disk(&self) -> u64 {
        self.blocks_per_disk
    }

    fn locate(&self, logical: u64) -> DiskBlock {
        assert!(
            logical < self.data_capacity(),
            "logical block {logical} beyond capacity {}",
            self.data_capacity()
        );
        let (row, slot, offset) = self.decompose(logical);
        let disk = self.data_disk(row, slot);
        DiskBlock::new(disk, row * self.stripe_unit + offset)
    }

    fn parity_for(&self, logical: u64) -> Option<DiskBlock> {
        assert!(
            logical < self.data_capacity(),
            "logical block {logical} beyond capacity {}",
            self.data_capacity()
        );
        let (row, slot, offset) = self.decompose(logical);
        let per_group_data = (self.group - 1) as u64;
        let g = (slot / per_group_data) as usize;
        let disk = self.parity_disk(row, g);
        Some(DiskBlock::new(disk, row * self.stripe_unit + offset))
    }

    fn data_blocks_per_parity_stripe(&self) -> u64 {
        (self.group as u64 - 1) * self.stripe_unit
    }

    fn reconstruction_peers(&self, disk: usize) -> Vec<usize> {
        if disk >= self.disks {
            return Vec::new();
        }
        let g = disk / self.group;
        (g * self.group..(g + 1) * self.group)
            .filter(|&d| d != disk)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    fn small() -> Raid5Layout {
        // 8 disks, groups of 4, stripe unit 2 blocks, 16 blocks per disk.
        Raid5Layout::new(8, 4, 2, 16).unwrap()
    }

    #[test]
    fn capacity_excludes_parity() {
        let l = small();
        // 8 rows, each row has 8 - 2 = 6 data units of 2 blocks.
        assert_eq!(l.data_capacity(), 8 * 6 * 2);
        assert_eq!(l.data_blocks_per_parity_stripe(), 3 * 2);
        assert_eq!(l.group_count(), 2);
        assert!(l.uses_all_disks());
    }

    #[test]
    fn parity_rotates_across_rows() {
        let l = small();
        let mut parity_disks_group0 = HashSet::new();
        for row in 0..4u64 {
            parity_disks_group0.insert(l.parity_disk(row, 0));
        }
        assert_eq!(
            parity_disks_group0,
            HashSet::from([0, 1, 2, 3]),
            "every disk of group 0 takes a parity turn"
        );
    }

    #[test]
    fn parity_never_collides_with_its_data() {
        let l = small();
        for b in 0..l.data_capacity() {
            let d = l.locate(b);
            let p = l.parity_for(b).unwrap();
            assert_ne!(
                d.disk, p.disk,
                "data and parity on the same disk for block {b}"
            );
            // Parity lives in the same group as the data it protects.
            assert_eq!(d.disk / 4, p.disk / 4);
            // And at the same row offset.
            assert_eq!(d.block, p.block);
        }
    }

    #[test]
    fn paper_testbed_shape() {
        // 50 disks, parity groups of 10, 128 KiB units — the evaluation setup.
        let l = Raid5Layout::new(50, 10, 32, 32 * 100).unwrap();
        assert_eq!(l.disk_count(), 50);
        assert_eq!(l.group_count(), 5);
        assert_eq!(l.stripe_unit(), 32);
        // 45 of every 50 stripe units hold data.
        assert_eq!(l.data_capacity(), 100 * 45 * 32);
    }

    #[test]
    fn constructor_validation() {
        assert!(matches!(
            Raid5Layout::new(50, 7, 32, 320),
            Err(LayoutError::UnalignedParityGroup { .. })
        ));
        assert!(Raid5Layout::new(1, 1, 32, 320).is_err());
        assert!(Raid5Layout::new(4, 1, 32, 320).is_err());
        assert!(Raid5Layout::new(4, 2, 0, 320).is_err());
        assert!(Raid5Layout::new(4, 2, 32, 33).is_err());
    }

    #[test]
    fn reconstruction_peers_are_the_rest_of_the_parity_group() {
        let l = small(); // 8 disks, groups of 4
        assert_eq!(l.reconstruction_peers(0), vec![1, 2, 3]);
        assert_eq!(l.reconstruction_peers(2), vec![0, 1, 3]);
        assert_eq!(l.reconstruction_peers(5), vec![4, 6, 7]);
        assert!(l.reconstruction_peers(8).is_empty(), "out of range");
        // Reading the peers at a lost block's row offset covers the row's
        // surviving data and parity — exactly the reconstruction set.
        for b in 0..l.data_capacity() {
            let d = l.locate(b);
            let p = l.parity_for(b).unwrap();
            let peers = l.reconstruction_peers(d.disk);
            assert_eq!(peers.len(), 3);
            assert!(peers.contains(&p.disk), "parity disk is a peer of its data");
            assert!(!peers.contains(&d.disk));
        }
    }

    #[test]
    fn row_fill_order_is_disk_order() {
        let l = small();
        // Row 0: parity of each group is the last disk of the group (3 and 7).
        assert_eq!(l.locate(0), DiskBlock::new(0, 0));
        assert_eq!(l.locate(2), DiskBlock::new(1, 0));
        assert_eq!(l.locate(4), DiskBlock::new(2, 0));
        assert_eq!(
            l.locate(6),
            DiskBlock::new(4, 0),
            "disk 3 is parity in row 0"
        );
        assert_eq!(l.parity_for(0).unwrap(), DiskBlock::new(3, 0));
        assert_eq!(l.parity_for(6).unwrap(), DiskBlock::new(7, 0));
    }

    proptest! {
        /// Data mapping is injective and stays inside the declared geometry.
        #[test]
        fn prop_data_mapping_injective(groups in 1usize..4, group in 2usize..6,
                                       unit in 1u64..5, rows in 1u64..6) {
            let disks = groups * group;
            let l = Raid5Layout::new(disks, group, unit, rows * unit).unwrap();
            let mut seen = HashSet::new();
            for b in 0..l.data_capacity() {
                let loc = l.locate(b);
                prop_assert!(loc.disk < disks);
                prop_assert!(loc.block < l.blocks_per_disk());
                prop_assert!(seen.insert(loc));
            }
        }

        /// Data blocks never land on the row's parity slot of their group.
        #[test]
        fn prop_data_avoids_parity_slots(groups in 1usize..3, group in 2usize..6,
                                         unit in 1u64..4, rows in 1u64..5) {
            let disks = groups * group;
            let l = Raid5Layout::new(disks, group, unit, rows * unit).unwrap();
            for b in 0..l.data_capacity() {
                let d = l.locate(b);
                let p = l.parity_for(b).unwrap();
                prop_assert_ne!(d, p);
                prop_assert_ne!(d.disk, p.disk);
            }
        }

        /// Load is balanced: over all rows, every disk receives the same
        /// number of data+parity stripe units (the property an "ideal
        /// RAID-5" is prized for in the paper).
        #[test]
        fn prop_units_per_disk_balanced(groups in 1usize..3, group in 2usize..5, rows in 1u64..5) {
            let unit = 1u64;
            let disks = groups * group;
            let l = Raid5Layout::new(disks, group, unit, rows * group as u64 * unit).unwrap();
            let mut per_disk: HashMap<usize, u64> = HashMap::new();
            for b in 0..l.data_capacity() {
                *per_disk.entry(l.locate(b).disk).or_default() += 1;
            }
            // Count parity once per (row, group).
            for row in 0..l.rows() {
                for g in 0..l.group_count() {
                    *per_disk.entry(l.parity_disk(row, g)).or_default() += 1;
                }
            }
            let counts: Vec<u64> = (0..disks).map(|d| per_disk.get(&d).copied().unwrap_or(0)).collect();
            let first = counts[0];
            prop_assert!(counts.iter().all(|&c| c == first), "unbalanced unit counts {:?}", counts);
        }
    }
}
