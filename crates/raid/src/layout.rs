//! The [`Layout`] trait: how logical volume blocks map onto devices.

use crate::types::DiskBlock;

/// A deterministic mapping from a volume's logical block space onto the
/// physical blocks of an array of devices.
///
/// Implementations are pure address arithmetic: they do not talk to devices
/// and hold no per-request state, so the same layout value can be shared by
/// the planner, the simulator and the reshape cost analysis.
///
/// Physical block numbers returned by a layout are *partition relative*:
/// block 0 is the first block of whichever per-disk region the caller gives
/// to this layout (CRAID places its cache partition before the archive
/// partition on every disk and adds the base offsets itself).
///
/// # Stripe-unit contract
///
/// Logical stripe unit `u` is the blocks `u * stripe_unit() .. (u + 1) *
/// stripe_unit()`, and the data capacity is a whole number of stripe units.
/// Every implementor keeps a stripe unit contiguous on one disk —
/// `locate(u * stripe_unit() + i)` is `locate(u * stripe_unit())` moved `i`
/// blocks further on the same disk — and keeps its parity contiguous the
/// same way through `parity_for`. The planner and the restripe walk rely on
/// this to call `locate` and `parity_for` once per stripe unit instead of
/// once per block.
pub trait Layout {
    /// Number of devices this layout spreads data over.
    fn disk_count(&self) -> usize;

    /// Number of logical data blocks addressable through this layout.
    fn data_capacity(&self) -> u64;

    /// Blocks per stripe unit (the contiguous run placed on one disk before
    /// moving to the next; see the stripe-unit contract above).
    fn stripe_unit(&self) -> u64;

    /// Number of physical blocks this layout occupies on every disk
    /// (data + parity).
    fn blocks_per_disk(&self) -> u64;

    /// Maps a logical data block to its physical location.
    ///
    /// # Panics
    ///
    /// Panics if `logical >= self.data_capacity()`.
    fn locate(&self, logical: u64) -> DiskBlock;

    /// Location of the parity block protecting `logical`, or `None` for
    /// layouts without redundancy.
    ///
    /// # Panics
    ///
    /// Panics if `logical >= self.data_capacity()`.
    fn parity_for(&self, logical: u64) -> Option<DiskBlock>;

    /// Number of data blocks covered by one parity block (i.e. the data
    /// blocks of one parity-group row). Returns 1 for layouts without parity
    /// so that callers can still reason about full-stripe writes uniformly.
    fn data_blocks_per_parity_stripe(&self) -> u64;

    /// Appends to `peers` the other members of `disk`'s parity group — the
    /// `G - 1` disks whose blocks at the same row offset reconstruct any
    /// block lost from `disk` (degraded reads, rebuild onto a hot spare).
    /// Appends nothing for layouts without redundancy or when `disk` is
    /// outside the layout. The caller's list is kept, so a degraded read
    /// can reuse one buffer.
    fn reconstruction_peers(&self, _disk: usize, _peers: &mut Vec<usize>) {}

    /// True if every device index in `0..disk_count()` receives at least one
    /// data or parity block. Useful as a sanity check in tests.
    fn uses_all_disks(&self) -> bool {
        let mut seen = vec![false; self.disk_count()];
        let probe = self.data_capacity().min(64 * 1024);
        for logical in 0..probe {
            seen[self.locate(logical).disk] = true;
            if let Some(p) = self.parity_for(logical) {
                seen[p.disk] = true;
            }
            if seen.iter().all(|&s| s) {
                return true;
            }
        }
        seen.iter().all(|&s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Raid0Layout, Raid5Layout, Raid5PlusLayout};

    /// Checks the stripe-unit contract block by block.
    fn assert_stripe_units_contiguous<L: Layout>(layout: &L) {
        let unit = layout.stripe_unit();
        assert_eq!(layout.data_capacity() % unit, 0);
        let shifted = |loc: DiskBlock, i: u64| DiskBlock::new(loc.disk, loc.block + i);
        for first in (0..layout.data_capacity()).step_by(unit as usize) {
            let data = layout.locate(first);
            let parity = layout.parity_for(first);
            for i in 1..unit {
                assert_eq!(layout.locate(first + i), shifted(data, i));
                assert_eq!(layout.parity_for(first + i), parity.map(|p| shifted(p, i)));
            }
        }
    }

    #[test]
    fn every_layout_keeps_stripe_units_and_parity_contiguous() {
        assert_stripe_units_contiguous(&Raid0Layout::new(5, 3, 12).unwrap());
        assert_stripe_units_contiguous(&Raid5Layout::new(12, 4, 3, 24).unwrap());
        assert_stripe_units_contiguous(&Raid5PlusLayout::new(&[4, 3, 5], 3, 24).unwrap());
    }
}
