//! Streaming archive restripes: the conventional-upgrade cost, paid lazily.
//!
//! Growing an *ideal* RAID-5 onto more disks (the conventional baseline the
//! paper compares CRAID against, and the archive partition of the
//! `CRAID-5`/`CRAID-5ssd` strategies) must move nearly every used block to
//! its reshaped location — an mdadm-style reshape. A paced restripe used to
//! materialise that whole move set as a `Vec<u64>` plus a per-block pending
//! map at event time: O(dataset) allocations that defeat the point of
//! pacing at paper-scale footprints.
//!
//! [`RestripeState`] replaces both with O(1) state: a **logical cursor**
//! over [`craid_raid::migration_stream_from`] (the reshape's moves in
//! ascending order) plus a small **superseded set** holding only the
//! pending blocks client writes have already rewritten at their new home.
//! Membership of the pending set is *computed*, not stored: a block is
//! pending iff it is ahead of the cursor, its location differs between the
//! old and new layouts, and no write superseded it. The owning array keeps
//! the pre-upgrade [`Partition`] alive for the restripe's lifetime so
//! pending reads can be served from their old physical locations, and the
//! background engine tracks only the *count* of outstanding moves
//! ([`crate::background::TaskKind::ArchiveRestripe`], a
//! [`Work::Stream`](crate::background)-shaped task).

use std::collections::BTreeSet;

use craid_diskmodel::IoKind;
use craid_raid::{migration_stream_from, round_robin_migration_blocks, IoPurpose, Layout};

use crate::background::TaskId;
use crate::partition::{ArchiveLayout, Partition, PartitionIo};

/// The in-flight state of one paced archive restripe.
#[derive(Debug, Clone)]
pub struct RestripeState {
    /// The engine task streaming this restripe.
    pub task: TaskId,
    /// The pre-upgrade volume; pending blocks still live here.
    pub old: Partition<ArchiveLayout>,
    /// Logical blocks `[0, used)` participate in the reshape (the stored
    /// dataset; the tail of the address space holds no data to move).
    used: u64,
    /// Next logical block the background walk will examine. Everything
    /// below it has been moved (or skipped as superseded).
    cursor: u64,
    /// Pending blocks client writes rewrote at their new home — they no
    /// longer need background I/O. Entries are dropped as the cursor
    /// passes them, so the set is bounded by the writes in flight, never by
    /// the dataset.
    superseded: BTreeSet<u64>,
    /// Size of the full move set, counted once (O(1) memory) at creation.
    total_moves: u64,
    /// Moves the background engine has issued.
    pub migrated: u64,
    /// Moves client writes superseded.
    pub superseded_count: u64,
    /// Supersessions not yet reported to the engine via
    /// [`BackgroundEngine::forfeit`](crate::background::BackgroundEngine::forfeit).
    unreported_forfeits: u64,
}

impl RestripeState {
    /// Prepares a restripe from `old` to `new` over the first `used`
    /// logical blocks, counting (without materialising) the move set.
    /// `task` is filled in by the caller once the engine task exists.
    pub fn new(old: Partition<ArchiveLayout>, new: &Partition<ArchiveLayout>, used: u64) -> Self {
        let used = used.min(old.data_capacity()).min(new.data_capacity());
        let total_moves = round_robin_migration_blocks(old.layout(), new.layout(), used);
        RestripeState {
            task: 0,
            old,
            used,
            cursor: 0,
            superseded: BTreeSet::new(),
            total_moves,
            migrated: 0,
            superseded_count: 0,
            unreported_forfeits: 0,
        }
    }

    /// Size of the full move set.
    pub fn total_moves(&self) -> u64 {
        self.total_moves
    }

    /// Moves neither issued nor superseded yet.
    pub fn pending(&self) -> u64 {
        self.total_moves - self.migrated - self.superseded_count
    }

    /// True if `block`'s authoritative copy still sits at its pre-upgrade
    /// location (reads must resolve through [`RestripeState::old`]).
    pub fn is_pending(&self, current: &Partition<ArchiveLayout>, block: u64) -> bool {
        block >= self.cursor
            && block < self.used
            && !self.superseded.contains(&block)
            && self.old.layout().locate(block) != current.layout().locate(block)
    }

    /// Records that a client write rewrote `block` at its new home. Returns
    /// true (and counts the supersession) if the block was pending.
    pub fn supersede(&mut self, current: &Partition<ArchiveLayout>, block: u64) -> bool {
        if !self.is_pending(current, block) {
            return false;
        }
        self.superseded.insert(block);
        self.superseded_count += 1;
        self.unreported_forfeits += 1;
        true
    }

    /// Supersessions accumulated since the last call — the caller forwards
    /// them to the engine as forfeited stream work.
    pub fn take_forfeits(&mut self) -> u64 {
        std::mem::take(&mut self.unreported_forfeits)
    }

    /// Advances the cursor to produce the next `budget` moves (ascending
    /// logical order) of the reshape towards `current` (the array's live,
    /// post-upgrade volume — stable for the restripe's lifetime because
    /// further expansions queue behind an in-flight restripe). Superseded
    /// entries are skipped without counting against the budget and pruned
    /// from the set as the cursor passes them. The engine already accounted
    /// `budget` against this task's remaining work, so `budget` moves come
    /// back — fewer only when supersessions raced the poll that allocated
    /// the budget (their forfeits then saturate the engine's remaining
    /// count, so the two stay consistent).
    pub fn next_batch(&mut self, current: &Partition<ArchiveLayout>, budget: u64) -> Vec<u64> {
        let mut out = Vec::with_capacity(budget as usize);
        let mut walked = self.cursor;
        for unit in
            migration_stream_from(self.old.layout(), current.layout(), self.cursor, self.used)
        {
            walked = unit.logical + 1;
            if self.superseded.remove(&unit.logical) {
                continue; // already rewritten at the new home by a client
            }
            self.migrated += 1;
            out.push(unit.logical);
            if out.len() == budget as usize {
                break;
            }
        }
        if (out.len() as u64) < budget {
            walked = self.used; // the stream ran dry
        }
        self.cursor = walked;
        // Anything superseded below the new cursor can never be asked about
        // again; drop it so the set stays bounded by in-flight writes.
        self.superseded = self.superseded.split_off(&self.cursor);
        out
    }

    /// True when every move has been issued or superseded.
    pub fn drained(&self) -> bool {
        self.pending() == 0
    }

    /// Advances the cursor by `budget` moves and plans their device I/O:
    /// a [`MigrateRead`](craid_raid::IoPurpose::MigrateRead) of each
    /// block's pre-upgrade location plus a
    /// [`MigrateWrite`](craid_raid::IoPurpose::MigrateWrite) (parity
    /// maintenance included) at its reshaped home in `current`. Returns the
    /// number of moves issued with the plan — the one authoritative
    /// batch-to-I/O translation every restripe is driven through.
    pub fn plan_batch(
        &mut self,
        current: &Partition<ArchiveLayout>,
        budget: u64,
    ) -> (u64, Vec<PartitionIo>) {
        let moved = self.next_batch(current, budget);
        // Usually exactly `budget` moves come back, but supersessions that
        // raced the poll which allocated the budget (e.g. a PC-migration
        // batch's write-backs earlier in the same pump) legitimately leave
        // a shortfall; their forfeits saturate the engine's remaining
        // count, so the two stay consistent either way.
        debug_assert!(
            moved.len() as u64 <= budget,
            "the restripe cursor never over-issues its budget"
        );
        let old_plan = self.old.plan_blocks(IoKind::Read, &moved);
        let mut ios: Vec<PartitionIo> = Vec::with_capacity(old_plan.len() * 2);
        for io in old_plan {
            ios.push(PartitionIo {
                purpose: IoPurpose::MigrateRead,
                ..io
            });
        }
        for io in current.plan_blocks(IoKind::Write, &moved) {
            ios.push(PartitionIo {
                purpose: if io.purpose == IoPurpose::Data {
                    IoPurpose::MigrateWrite
                } else {
                    io.purpose
                },
                ..io
            });
        }
        (moved.len() as u64, ios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craid_raid::{migration_stream, Raid5Layout};

    fn volume(disks: usize) -> Partition<ArchiveLayout> {
        Partition::new(
            ArchiveLayout::Ideal(Raid5Layout::new(disks, 4, 4, 1024).unwrap()),
            0,
            0,
        )
    }

    #[test]
    fn cursor_walk_reproduces_the_full_move_set() {
        let old = volume(8);
        let new = volume(12);
        let used = 1_000;
        let expected: Vec<u64> = migration_stream(old.layout(), new.layout(), used)
            .map(|u| u.logical)
            .collect();
        let mut state = RestripeState::new(old, &new, used);
        assert_eq!(state.total_moves(), expected.len() as u64);
        assert_eq!(state.pending(), expected.len() as u64);
        let mut walked = Vec::new();
        while !state.drained() {
            let batch = state.next_batch(&new, 7);
            assert!(!batch.is_empty(), "a non-drained walk always progresses");
            walked.extend(batch);
        }
        assert_eq!(walked, expected, "the lazy walk equals the eager plan");
        assert_eq!(state.migrated, expected.len() as u64);
        assert!(state.next_batch(&new, 7).is_empty());
    }

    #[test]
    fn pending_membership_is_computed_not_stored() {
        let old = volume(8);
        let new = volume(12);
        let mut state = RestripeState::new(old, &new, 500);
        let moved: Vec<u64> = migration_stream(state.old.layout(), new.layout(), 500)
            .map(|u| u.logical)
            .collect();
        let first = moved[0];
        assert!(state.is_pending(&new, first));
        assert!(
            !state.is_pending(&new, 500),
            "blocks past the used range never move"
        );
        // Issue one batch past `first`: it is no longer pending.
        state.next_batch(&new, 1);
        assert!(!state.is_pending(&new, first));
        assert!(state.is_pending(&new, *moved.last().unwrap()));
    }

    #[test]
    fn supersession_skips_the_walk_and_reports_forfeits() {
        let old = volume(8);
        let new = volume(12);
        let mut state = RestripeState::new(old, &new, 300);
        let moved: Vec<u64> = migration_stream(state.old.layout(), new.layout(), 300)
            .map(|u| u.logical)
            .collect();
        let victim = moved[2];
        assert!(state.supersede(&new, victim));
        assert!(!state.supersede(&new, victim), "supersession is idempotent");
        assert!(!state.is_pending(&new, victim));
        assert_eq!(state.take_forfeits(), 1);
        assert_eq!(state.take_forfeits(), 0);
        // The walk never issues the superseded block.
        let mut walked = Vec::new();
        while !state.drained() {
            walked.extend(state.next_batch(&new, 64));
        }
        assert!(!walked.contains(&victim));
        assert_eq!(walked.len() as u64 + 1, state.total_moves());
        assert_eq!(state.superseded_count, 1);
        // Superseding an unmoving or already-walked block is a no-op.
        assert!(!state.supersede(&new, victim));
        assert_eq!(state.take_forfeits(), 0);
    }
}
