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
//! over [`craid_raid::migration_runs`] (the reshape's moves as ascending
//! logical runs, one stripe unit at most) plus a small **superseded set**
//! holding only the pending blocks client writes have already rewritten at
//! their new home. Each background batch resumes the run walk at the
//! cursor, comparing old and new locations once per stripe unit rather
//! than once per block, splits the moving runs around superseded blocks,
//! cuts the last run at the engine's exact block budget, and plans the
//! resulting runs through both volumes ([`Partition::plan_runs_into`]). Batch
//! boundaries therefore fall on the same blocks as a block-by-block walk
//! would put them. Membership of the pending set is *computed*, not
//! stored: a block is pending iff it is ahead of the cursor, its location
//! differs between the old and new layouts, and no write superseded it.
//! The owning array keeps the pre-upgrade [`Partition`] alive for the
//! restripe's lifetime so pending reads can be served from their old
//! physical locations, and the background engine tracks only the *count*
//! of outstanding moves ([`crate::background::TaskKind::ArchiveRestripe`]),
//! as it does for a cache-partition redistribution.

use std::collections::BTreeSet;

use craid_diskmodel::{BlockRange, IoKind};
use craid_raid::{migration_runs, round_robin_migration_blocks, IoPurpose, Layout, PlanBuffers};

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
    /// logical blocks, counting (without materialising) the move set one
    /// stripe-unit run at a time. `task` is filled in by the caller once
    /// the engine task exists.
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

    /// Advances the cursor past the next `budget` moves (ascending logical
    /// order) of the reshape towards `current` (the array's live,
    /// post-upgrade volume — stable for the restripe's lifetime because
    /// further expansions queue behind an in-flight restripe) and appends
    /// them to `runs` as ascending, disjoint logical runs (merged only with
    /// each other, never with what `runs` already held). Superseded blocks
    /// split the runs without counting against the budget and are pruned
    /// from the set as the cursor passes them; the last run is cut at the
    /// exact budget, so the cursor stops just past the `budget`-th move.
    /// The engine already accounted `budget` against this task's remaining
    /// work, so `budget` moves come back — fewer only when supersessions
    /// raced the poll that allocated the budget (their forfeits then
    /// saturate the engine's remaining count, so the two stay consistent).
    /// The engine never issues a zero budget; one appends no runs.
    pub fn next_runs(
        &mut self,
        current: &Partition<ArchiveLayout>,
        budget: u64,
        runs: &mut Vec<BlockRange>,
    ) {
        if budget == 0 {
            return;
        }
        let first = runs.len();
        let mut left = budget;
        // The stream running dry leaves nothing before `used` to walk.
        let mut cursor = self.used;
        let mut skips = self.superseded.range(self.cursor..).copied().peekable();
        'walk: for run in
            migration_runs(self.old.layout(), current.layout(), self.cursor, self.used)
        {
            let mut from = run.start();
            while from < run.end() {
                let stop = skips.peek().map_or(run.end(), |&s| s.min(run.end()));
                let take = (stop - from).min(left);
                if take > 0 {
                    match runs[first..].last_mut() {
                        Some(last) if last.end() == from => {
                            *last = BlockRange::new(last.start(), last.len() + take);
                        }
                        _ => runs.push(BlockRange::new(from, take)),
                    }
                    left -= take;
                    from += take;
                    if left == 0 {
                        cursor = from;
                        break 'walk;
                    }
                }
                if stop < run.end() {
                    // `from` is a block a client already rewrote at its
                    // new home.
                    skips.next();
                    from += 1;
                }
            }
        }
        self.migrated += budget - left;
        self.cursor = cursor;
        // Anything superseded below the new cursor can never be asked about
        // again; drop it so the set stays bounded by in-flight writes.
        while self.superseded.first().is_some_and(|&block| block < cursor) {
            self.superseded.pop_first();
        }
    }

    /// True when every move has been issued or superseded.
    pub fn drained(&self) -> bool {
        self.pending() == 0
    }

    /// Advances the cursor by `budget` moves and appends their device I/O
    /// to `plan`: a [`MigrateRead`](craid_raid::IoPurpose::MigrateRead) of
    /// each run's pre-upgrade location plus a
    /// [`MigrateWrite`](craid_raid::IoPurpose::MigrateWrite) (parity
    /// maintenance included) at its reshaped home in `current`. `runs` and
    /// `buffers` are working memory. Returns the number of moves issued
    /// with the plan — the one authoritative batch-to-I/O translation every
    /// restripe is driven through.
    pub fn plan_batch(
        &mut self,
        current: &Partition<ArchiveLayout>,
        budget: u64,
        runs: &mut Vec<BlockRange>,
        buffers: &mut PlanBuffers,
        plan: &mut Vec<PartitionIo>,
    ) -> u64 {
        runs.clear();
        self.next_runs(current, budget, runs);
        let moved: u64 = runs.iter().map(|run| run.len()).sum();
        // Usually exactly `budget` moves come back, but supersessions that
        // raced the poll which allocated the budget (e.g. a PC-migration
        // batch's write-backs earlier in the same pump) legitimately leave
        // a shortfall; their forfeits saturate the engine's remaining
        // count, so the two stay consistent either way.
        debug_assert!(
            moved <= budget,
            "the restripe cursor never over-issues its budget"
        );
        let reads = plan.len();
        self.old.plan_runs_into(IoKind::Read, runs, buffers, plan);
        let writes = plan.len();
        current.plan_runs_into(IoKind::Write, runs, buffers, plan);
        for io in &mut plan[reads..writes] {
            io.purpose = IoPurpose::MigrateRead;
        }
        for io in &mut plan[writes..] {
            if io.purpose == IoPurpose::Data {
                io.purpose = IoPurpose::MigrateWrite;
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craid_raid::{migration_stream, DiskBlock, PlannedIo, Raid5Layout};
    use proptest::prelude::*;

    include!("../../raid/src/planner_reference.rs");

    fn volume(disks: usize) -> Partition<ArchiveLayout> {
        Partition::new(
            ArchiveLayout::Ideal(Raid5Layout::new(disks, 4, 4, 1024).unwrap()),
            0,
            0,
        )
    }

    /// One batch of the run cursor as the blocks it moves.
    fn next_blocks(
        state: &mut RestripeState,
        current: &Partition<ArchiveLayout>,
        budget: u64,
    ) -> Vec<u64> {
        next_runs(state, current, budget)
            .into_iter()
            .flat_map(BlockRange::blocks)
            .collect()
    }

    /// One batch of the run cursor into a fresh list.
    fn next_runs(
        state: &mut RestripeState,
        current: &Partition<ArchiveLayout>,
        budget: u64,
    ) -> Vec<BlockRange> {
        let mut runs = Vec::new();
        state.next_runs(current, budget, &mut runs);
        runs
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
            let batch = next_blocks(&mut state, &new, 7);
            assert!(!batch.is_empty(), "a non-drained walk always progresses");
            walked.extend(batch);
        }
        assert_eq!(walked, expected, "the lazy walk equals the eager plan");
        assert_eq!(state.migrated, expected.len() as u64);
        assert!(next_runs(&mut state, &new, 7).is_empty());
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
        next_runs(&mut state, &new, 1);
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
            walked.extend(next_blocks(&mut state, &new, 64));
        }
        assert!(!walked.contains(&victim));
        assert_eq!(walked.len() as u64 + 1, state.total_moves());
        assert_eq!(state.superseded_count, 1);
        // Superseding an unmoving or already-walked block is a no-op.
        assert!(!state.supersede(&new, victim));
        assert_eq!(state.take_forfeits(), 0);
    }

    #[test]
    fn a_budget_ending_before_a_superseded_block_leaves_it_ahead() {
        let old = volume(8);
        let new = volume(12);
        let mut state = RestripeState::new(old, &new, 300);
        let moved: Vec<u64> = migration_stream(state.old.layout(), new.layout(), 300)
            .map(|u| u.logical)
            .collect();
        // Supersede the third move, then issue exactly two moves.
        assert_eq!(moved[2], moved[1] + 1, "the first moves are one run");
        assert!(state.supersede(&new, moved[2]));
        assert_eq!(next_blocks(&mut state, &new, 2), moved[..2]);
        assert_eq!(
            state.cursor,
            moved[1] + 1,
            "the cursor stops after the budget"
        );
        assert!(state.superseded.contains(&moved[2]), "not yet passed");
        // The next batch skips it without charging the budget.
        assert_eq!(next_blocks(&mut state, &new, 1), [moved[3]]);
        assert!(state.superseded.is_empty());
        assert!(next_runs(&mut state, &new, 0).is_empty());
    }

    #[test]
    fn next_runs_never_merges_with_a_run_the_list_held() {
        let old = volume(8);
        let new = volume(12);
        let mut state = RestripeState::new(old, &new, 1_000);
        let first = next_runs(&mut state.clone(), &new, 5);
        assert!(first[0].start() > 0);
        // A run ending exactly where this batch starts.
        let held = BlockRange::new(0, first[0].start());
        let mut runs = vec![held];
        state.next_runs(&new, 5, &mut runs);
        assert_eq!(runs[0], held);
        assert_eq!(runs[1..], first[..]);
    }

    #[test]
    fn plan_batch_refills_its_runs_and_appends_its_plan() {
        let old = volume(8);
        let new = volume(12);
        let mut state = RestripeState::new(old, &new, 1_000);
        let expected_runs = next_runs(&mut state.clone(), &new, 6);
        let prefix = PlannedIo {
            disk: 11,
            range: BlockRange::new(0, 1),
            kind: IoKind::Read,
            purpose: IoPurpose::Data,
        };
        let mut runs = vec![BlockRange::new(999, 1)];
        let mut plan = vec![prefix];
        let moved = state.plan_batch(&new, 6, &mut runs, &mut PlanBuffers::default(), &mut plan);
        assert_eq!(moved, 6);
        assert_eq!(runs, expected_runs, "the stale run is gone");
        assert_eq!(plan[0], prefix);
        let blocks = |purpose: IoPurpose| -> u64 {
            plan[1..]
                .iter()
                .filter(|io| io.purpose == purpose)
                .map(|io| io.range.len())
                .sum()
        };
        assert_eq!(blocks(IoPurpose::MigrateRead), 6);
        assert_eq!(blocks(IoPurpose::MigrateWrite), 6);
        assert_eq!(blocks(IoPurpose::Data), 0);
    }

    #[test]
    fn a_drained_restripe_plans_nothing() {
        let old = volume(8);
        let new = volume(12);
        let mut state = RestripeState::new(old, &new, 200);
        let (mut runs, mut buffers, mut plan) = (Vec::new(), PlanBuffers::default(), Vec::new());
        let mut moved = 0;
        while !state.drained() {
            moved += state.plan_batch(&new, 16, &mut runs, &mut buffers, &mut plan);
        }
        assert_eq!(moved, state.total_moves());
        let len = plan.len();
        assert_eq!(
            state.plan_batch(&new, 16, &mut runs, &mut buffers, &mut plan),
            0
        );
        assert!(runs.is_empty());
        assert_eq!(plan.len(), len);
    }

    /// The block-by-block cursor the run cursor replaced: the reference its
    /// batches, cursor positions and superseded sets must match.
    struct BlockCursor {
        used: u64,
        cursor: u64,
        superseded: BTreeSet<u64>,
    }

    impl BlockCursor {
        fn next_batch(
            &mut self,
            old: &Partition<ArchiveLayout>,
            new: &Partition<ArchiveLayout>,
            budget: u64,
        ) -> Vec<u64> {
            let mut out = Vec::new();
            let mut walked = self.cursor;
            let moving = |&b: &u64| old.layout().locate(b) != new.layout().locate(b);
            for logical in (self.cursor..self.used).filter(moving) {
                walked = logical + 1;
                if self.superseded.remove(&logical) {
                    continue;
                }
                out.push(logical);
                if out.len() == budget as usize {
                    break;
                }
            }
            if (out.len() as u64) < budget {
                walked = self.used;
            }
            self.cursor = walked;
            self.superseded = self.superseded.split_off(&self.cursor);
            out
        }
    }

    /// The reference plan of one batch, shifted onto `partition`.
    fn reference_on(
        partition: &Partition<ArchiveLayout>,
        kind: IoKind,
        blocks: &[u64],
    ) -> Vec<PlannedIo> {
        reference_plan(partition.layout(), kind, blocks)
            .into_iter()
            .map(|io| PlannedIo {
                disk: io.disk + partition.first_device(),
                range: BlockRange::new(io.range.start() + partition.block_offset(), io.range.len()),
                ..io
            })
            .collect()
    }

    proptest! {
        /// The run cursor reproduces the block-by-block walk exactly: the
        /// same moves in each batch, the same cursor and superseded set
        /// after it, the same move count, and `plan_batch` plans what the
        /// per-block planner plans for those blocks.
        #[test]
        fn prop_run_cursor_matches_the_block_walk(
            (group, old_groups, added_groups) in (2usize..5, 1usize..3, 1usize..3),
            (unit, rows, used_permille) in (1u64..6, 2u64..10, 0u64..1_000),
            max_budget in 1u64..30,
            picks in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..40),
        ) {
            let layout = |groups: usize| {
                ArchiveLayout::Ideal(Raid5Layout::new(groups * group, group, unit, rows * unit).unwrap())
            };
            let old = Partition::new(layout(old_groups), 0, 3);
            let new = Partition::new(layout(old_groups + added_groups), 0, 3);
            let cap = old.data_capacity().min(new.data_capacity());
            let used = cap * used_permille / 1_000;
            let mut state = RestripeState::new(old.clone(), &new, used);
            let per_block = migration_stream(old.layout(), new.layout(), used).count() as u64;
            prop_assert_eq!(state.total_moves(), per_block);
            let mut reference = BlockCursor { used, cursor: 0, superseded: BTreeSet::new() };
            let mut picks = picks.into_iter();
            // One set of buffers for the whole walk, and every batch's
            // plan appended after the previous batches' I/Os.
            let (mut runs, mut buffers, mut plan) = (Vec::new(), PlanBuffers::default(), Vec::new());
            while !state.drained() {
                // A client write to a random block, then a batch whose
                // budget runs from one block to several stripe units; once
                // the script is spent, drain a stripe unit at a time.
                let budget = match picks.next() {
                    Some((write, draw)) => {
                        let block = write % cap;
                        if state.supersede(&new, block) {
                            reference.superseded.insert(block);
                        }
                        1 + draw % max_budget + unit * (draw % 3)
                    }
                    None => unit,
                };
                let blocks = reference.next_batch(&old, &new, budget);
                let before = plan.len();
                let moved = state.plan_batch(&new, budget, &mut runs, &mut buffers, &mut plan);
                let ios = &plan[before..];
                prop_assert_eq!(moved, blocks.len() as u64);
                prop_assert_eq!(state.cursor, reference.cursor);
                prop_assert_eq!(&state.superseded, &reference.superseded);
                let mut expected: Vec<PlannedIo> = reference_on(&old, IoKind::Read, &blocks)
                    .into_iter()
                    .map(|io| PlannedIo { purpose: IoPurpose::MigrateRead, ..io })
                    .collect();
                expected.extend(reference_on(&new, IoKind::Write, &blocks).into_iter().map(|io| {
                    let purpose = if io.purpose == IoPurpose::Data { IoPurpose::MigrateWrite } else { io.purpose };
                    PlannedIo { purpose, ..io }
                }));
                prop_assert_eq!(ios, &expected[..]);
            }
            prop_assert_eq!(state.migrated + state.superseded_count, per_block);
        }
    }
}
