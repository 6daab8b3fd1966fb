//! Upgrade-cost baselines.
//!
//! CRAID's headline claim is that an upgrade only has to redistribute the
//! cache partition, while conventional approaches move large fractions of
//! the stored data. This module quantifies the conventional side of that
//! comparison:
//!
//! * [`round_robin_migration_blocks`] — the cost of a full restripe that
//!   preserves round-robin order (what `mdadm --grow` style reshapes do):
//!   every block whose physical location differs between the old and new
//!   layout must move.
//! * [`minimal_migration_blocks`] — the information-theoretic lower bound for
//!   regaining a balanced distribution: the fraction of data that must land
//!   on the new disks (`added / total`), the bound approaches like FastScale
//!   or SCADDAR aim for.
//! * [`ExpansionSchedule`] — the paper's ≈30 % growth schedule
//!   (10 → 13 → 17 → 22 → 29 → 38 → 50 disks), used by the upgrade benches.

use craid_diskmodel::BlockRange;
use serde::{Deserialize, Serialize};

use crate::layout::Layout;
use crate::types::DiskBlock;

/// One block move of a reshape: a logical block whose physical location
/// differs between the pre- and post-upgrade layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationUnit {
    /// The logical block that has to move.
    pub logical: u64,
    /// Where the block lives under the old layout.
    pub from: DiskBlock,
    /// Where the block lives under the new layout.
    pub to: DiskBlock,
}

/// The moves a round-robin-preserving restripe must perform when the layout
/// changes from `old` to `new`, as a lazy stream over the first
/// `used_blocks` logical blocks (the data actually stored).
///
/// A block moves if either its target disk or its physical block number
/// changes. Parity blocks are not streamed (they are recomputed rather than
/// copied), which makes the stream a *lower* bound on the real restripe
/// traffic — and CRAID still undercuts it by orders of magnitude. Background
/// migration engines walk the same moves a stripe-unit run at a time with
/// [`migration_runs`] instead of materialising the whole reshape plan up
/// front.
///
/// # Panics
///
/// Panics if `used_blocks` exceeds the data capacity of either layout.
pub fn migration_stream<'a, A: Layout, B: Layout>(
    old: &'a A,
    new: &'a B,
    used_blocks: u64,
) -> impl Iterator<Item = MigrationUnit> + 'a {
    assert!(
        used_blocks <= old.data_capacity() && used_blocks <= new.data_capacity(),
        "used_blocks ({used_blocks}) exceeds a layout capacity (old {}, new {})",
        old.data_capacity(),
        new.data_capacity()
    );
    (0..used_blocks).filter_map(move |logical| {
        let from = old.locate(logical);
        let to = new.locate(logical);
        (from != to).then_some(MigrationUnit { logical, from, to })
    })
}

/// The moves of [`migration_stream`] whose logical block is in
/// `[from, used_blocks)`, as ascending logical runs. Each run is one step
/// of the walk: it never crosses a stripe-unit boundary of either layout,
/// so its blocks sit contiguously in both and one `locate` per layout
/// decides whether the whole run moves (see [`Layout`]). The restripe
/// cursor resumes this walk once per background batch instead of
/// materialising the move set, and [`round_robin_migration_blocks`] sums
/// it.
///
/// # Panics
///
/// Panics if `used_blocks` exceeds the data capacity of either layout.
pub fn migration_runs<'a, A: Layout, B: Layout>(
    old: &'a A,
    new: &'a B,
    from: u64,
    used_blocks: u64,
) -> impl Iterator<Item = BlockRange> + 'a {
    assert!(
        used_blocks <= old.data_capacity() && used_blocks <= new.data_capacity(),
        "used_blocks ({used_blocks}) exceeds a layout capacity (old {}, new {})",
        old.data_capacity(),
        new.data_capacity()
    );
    let (old_unit, new_unit) = (old.stripe_unit(), new.stripe_unit());
    let mut pos = from.min(used_blocks);
    std::iter::from_fn(move || {
        while pos < used_blocks {
            let start = pos;
            let old_end = (start / old_unit + 1) * old_unit;
            let new_end = (start / new_unit + 1) * new_unit;
            pos = old_end.min(new_end).min(used_blocks);
            if old.locate(start) != new.locate(start) {
                return Some(BlockRange::new(start, pos - start));
            }
        }
        None
    })
}

/// Number of blocks a round-robin-preserving restripe must migrate — the
/// length of [`migration_stream`], counted one [`migration_runs`] step at
/// a time.
///
/// # Panics
///
/// Panics if `used_blocks` exceeds the data capacity of either layout.
pub fn round_robin_migration_blocks<A: Layout, B: Layout>(
    old: &A,
    new: &B,
    used_blocks: u64,
) -> u64 {
    migration_runs(old, new, 0, used_blocks)
        .map(BlockRange::len)
        .sum()
}

/// The minimum number of blocks that must move to the newly added disks to
/// restore a uniform distribution: `used_blocks * added_disks / new_disks`.
///
/// # Panics
///
/// Panics if `new_disks <= old_disks` or `old_disks == 0`.
pub fn minimal_migration_blocks(used_blocks: u64, old_disks: usize, new_disks: usize) -> u64 {
    assert!(old_disks > 0, "old array must have at least one disk");
    assert!(
        new_disks > old_disks,
        "an upgrade must add disks (old {old_disks}, new {new_disks})"
    );
    let added = (new_disks - old_disks) as u64;
    // Round up: a fractional block still requires one block worth of movement.
    used_blocks * added / new_disks as u64
        + u64::from(!(used_blocks * added).is_multiple_of(new_disks as u64))
}

/// A sequence of array sizes describing successive upgrade operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpansionSchedule {
    sizes: Vec<usize>,
}

impl ExpansionSchedule {
    /// Creates a schedule from explicit array sizes (strictly increasing).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or they are not strictly
    /// increasing.
    pub fn new(sizes: Vec<usize>) -> Self {
        assert!(sizes.len() >= 2, "a schedule needs at least two sizes");
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "schedule sizes must be strictly increasing"
        );
        ExpansionSchedule { sizes }
    }

    /// The paper's evaluation schedule: start at 10 disks and add ≈30 % per
    /// step (+3, +4, +5, +7, +9, +12) until 50 disks are reached.
    pub fn paper() -> Self {
        ExpansionSchedule::new(vec![10, 13, 17, 22, 29, 38, 50])
    }

    /// The array sizes, in order.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Number of upgrade operations (transitions between sizes).
    pub fn steps(&self) -> usize {
        self.sizes.len() - 1
    }

    /// Iterates over `(old_disks, new_disks)` pairs, one per upgrade.
    pub fn transitions(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.sizes.windows(2).map(|w| (w[0], w[1]))
    }

    /// Per-step disk additions, e.g. `[3, 4, 5, 7, 9, 12]` for the paper's
    /// schedule.
    pub fn additions(&self) -> Vec<usize> {
        self.transitions().map(|(a, b)| b - a).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raid0::Raid0Layout;
    use crate::raid5::Raid5Layout;
    use proptest::prelude::*;

    #[test]
    fn paper_schedule_matches_the_text() {
        let s = ExpansionSchedule::paper();
        assert_eq!(s.sizes(), &[10, 13, 17, 22, 29, 38, 50]);
        assert_eq!(s.additions(), vec![3, 4, 5, 7, 9, 12]);
        assert_eq!(s.steps(), 6);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn schedule_must_grow() {
        ExpansionSchedule::new(vec![10, 10]);
    }

    #[test]
    fn round_robin_restripe_moves_most_blocks() {
        // Growing a RAID-0 from 4 to 5 disks scrambles nearly every block's
        // position: round-robin order is preserved only for the first stripe.
        let old = Raid0Layout::new(4, 1, 1024).unwrap();
        let new = Raid0Layout::new(5, 1, 1024).unwrap();
        let used = 2_000;
        let moved = round_robin_migration_blocks(&old, &new, used);
        assert!(
            moved as f64 > 0.7 * used as f64,
            "expected most blocks to move, got {moved}/{used}"
        );
    }

    #[test]
    fn raid5_restripe_also_moves_most_blocks() {
        let old = Raid5Layout::new(10, 10, 2, 128).unwrap();
        let new = Raid5Layout::new(12, 12, 2, 128).unwrap();
        let used = old.data_capacity().min(new.data_capacity());
        let moved = round_robin_migration_blocks(&old, &new, used);
        assert!(moved as f64 > 0.6 * used as f64);
    }

    #[test]
    fn minimal_migration_is_proportional_to_added_fraction() {
        assert_eq!(minimal_migration_blocks(1_000, 4, 5), 200);
        assert_eq!(minimal_migration_blocks(1_000, 10, 13), 231);
        // Rounds up.
        assert_eq!(minimal_migration_blocks(10, 9, 10), 1);
        assert_eq!(minimal_migration_blocks(0, 4, 5), 0);
    }

    #[test]
    fn migration_stream_yields_exactly_the_moved_blocks() {
        let old = Raid0Layout::new(4, 1, 1024).unwrap();
        let new = Raid0Layout::new(5, 1, 1024).unwrap();
        let used = 500;
        let units: Vec<MigrationUnit> = migration_stream(&old, &new, used).collect();
        assert_eq!(
            units.len() as u64,
            round_robin_migration_blocks(&old, &new, used)
        );
        for unit in &units {
            assert!(unit.logical < used);
            assert_eq!(unit.from, old.locate(unit.logical));
            assert_eq!(unit.to, new.locate(unit.logical));
            assert_ne!(unit.from, unit.to, "only moved blocks are streamed");
        }
        // The stream is strictly ordered by logical block (iterable from a
        // cursor, as a paced migration engine needs).
        assert!(units.windows(2).all(|w| w[0].logical < w[1].logical));
    }

    #[test]
    fn resumed_stream_is_a_suffix_of_the_full_stream() {
        let old = Raid0Layout::new(4, 1, 1024).unwrap();
        let new = Raid0Layout::new(5, 1, 1024).unwrap();
        let used = 500;
        let full: Vec<MigrationUnit> = migration_stream(&old, &new, used).collect();
        // Resuming the run walk at any cursor yields exactly the moves at
        // or past it.
        for cursor in [0u64, 1, 123, 499, 500, 700] {
            let resumed: Vec<u64> = migration_runs(&old, &new, cursor, used)
                .flat_map(BlockRange::blocks)
                .collect();
            let expected: Vec<u64> = full
                .iter()
                .map(|u| u.logical)
                .filter(|&b| b >= cursor)
                .collect();
            assert_eq!(resumed, expected, "cursor {cursor}");
        }
    }

    #[test]
    fn minimal_is_below_round_robin() {
        let old = Raid0Layout::new(4, 1, 1024).unwrap();
        let new = Raid0Layout::new(5, 1, 1024).unwrap();
        let used = 2_000;
        let rr = round_robin_migration_blocks(&old, &new, used);
        let min = minimal_migration_blocks(used, 4, 5);
        assert!(min < rr, "minimal ({min}) must undercut round-robin ({rr})");
    }

    #[test]
    #[should_panic(expected = "must add disks")]
    fn shrinking_is_not_an_upgrade() {
        minimal_migration_blocks(100, 5, 5);
    }

    #[test]
    #[should_panic(expected = "exceeds a layout capacity")]
    fn used_blocks_bounded_by_capacity() {
        let old = Raid0Layout::new(4, 1, 8).unwrap();
        let new = Raid0Layout::new(5, 1, 8).unwrap();
        round_robin_migration_blocks(&old, &new, 1_000_000);
    }

    proptest! {
        /// The run walk moves exactly the per-block stream's blocks, even
        /// when the two layouts' stripe units differ and `used` is not a
        /// multiple of either.
        #[test]
        fn prop_runs_flatten_to_the_block_stream(
            (old_disks, old_unit) in (2usize..6, 1u64..7),
            (added, new_unit) in (1usize..4, 1u64..7),
            (rows, used_frac, from_frac) in (4u64..12, 0u64..101, 0u64..101),
        ) {
            let old = Raid5Layout::new(old_disks, old_disks, old_unit, rows * old_unit * new_unit).unwrap();
            let new = Raid0Layout::new(old_disks + added, new_unit, rows * old_unit * new_unit).unwrap();
            let used = old.data_capacity().min(new.data_capacity()) * used_frac / 100;
            let from = used * from_frac / 100;
            let expected: Vec<u64> = migration_stream(&old, &new, used)
                .map(|u| u.logical)
                .filter(|&b| b >= from)
                .collect();
            let runs: Vec<BlockRange> = migration_runs(&old, &new, from, used).collect();
            prop_assert!(runs.iter().all(|r| (r.start() % old_unit) + r.len() <= old_unit));
            prop_assert!(runs.iter().all(|r| (r.start() % new_unit) + r.len() <= new_unit));
            let walked: Vec<u64> = runs.into_iter().flat_map(BlockRange::blocks).collect();
            prop_assert_eq!(walked, expected);
            prop_assert_eq!(
                round_robin_migration_blocks(&old, &new, used),
                migration_stream(&old, &new, used).count() as u64
            );
        }
    }
}
