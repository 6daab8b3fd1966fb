//! The generic background I/O engine.
//!
//! Three maintenance activities stream large amounts of block I/O through an
//! array while it keeps serving clients: reconstructing a failed disk onto a
//! hot spare (*rebuild*), redistributing the cache partition after an online
//! expansion (*expansion migration*), and reshaping an ideal RAID-5 archive
//! onto the grown disk set (*archive restripe*). All three share the same
//! skeleton — a body of work, a pace expressed in blocks per simulated
//! second, and an ordering policy for which blocks go first — so this module
//! hosts the one scheduler they all ride on:
//!
//! * a [`BackgroundEngine`] owns a set of live [`TaskKind`]s scheduled by
//!   **weighted fair share**: every queued task paces from the moment it is
//!   pushed, and when more catch-up work is due than one poll's batch cap
//!   allows, the cap is split across the hungry tasks proportionally to the
//!   configured [`FairShares`] (`rebuild_share` for rebuilds,
//!   `migration_share` for migrations and restripes). A rebuild and a
//!   migration therefore genuinely *contend* for device time — neither
//!   starves the other, and their issue counts track the weights — instead
//!   of serialising FIFO as the first version of this engine did.
//! * each task is paced lazily: by time `t` after it was pushed,
//!   `rate × t` blocks should have been issued. The owning array polls the
//!   engine once per client request ([`BackgroundEngine::poll`]), so
//!   background batches interleave with client traffic instead of
//!   monopolising the devices.
//! * the order blocks are issued in is a [`BackgroundPriority`]:
//!   [`Sequential`](BackgroundPriority::Sequential) walks the address space
//!   in order, [`HotFirst`](BackgroundPriority::HotFirst) issues the blocks
//!   the I/O monitor has seen the most traffic on first — the CRAID move:
//!   the hot working set regains its steady-state placement (and the cache
//!   partition its hit ratio) long before the cold tail has moved.
//!
//! Work bodies come in three shapes: physical ranges (rebuilds), explicit
//! block lists (cache-partition redistributions, bounded by PC capacity),
//! and **streams** — a bare remaining-count whose blocks the owning array
//! produces lazily from a cursor ([`crate::restripe`]), so a paced archive
//! restripe never materialises its O(dataset) move set.
//!
//! A [`MigrationMap`] records, per logical block, where the authoritative
//! copy of a not-yet-migrated block still lives; the arrays consult it on
//! every request so reads stay correct mid-upgrade while writes land at the
//! new home (and supersede the pending move).

use std::collections::VecDeque;

use craid_cache::BlockMap;
use craid_diskmodel::BlockRange;
use craid_simkit::{SimDuration, SimTime};
use serde::{Deserialize, Serialize, Value};

use crate::choice::{self, DecisionPoint, Observation, PollLane};

/// Upper bound on one engine poll's combined issue budget (8 MiB): keeps a
/// single catch-up step from turning into a device-monopolising monster
/// transfer when the configured rates are high or client traffic is sparse.
/// When several tasks are behind pace at once they split this cap by their
/// fair-share weights. With a QoS throttle attached
/// ([`BackgroundEngine::attach_throttle`]) the *effective* cap is this
/// constant scaled by the current throttle, so a backoff shrinks both the
/// pace and the largest burst a single poll may issue.
pub const MAX_BATCH_BLOCKS: u64 = 2_048;

/// Upper bound on the number of distinct device I/Os one rebuild batch may
/// fan out to (hot-first rebuilds chase scattered blocks; without a cap a
/// single catch-up step could issue thousands of tiny I/Os).
const MAX_RANGES_PER_BATCH: usize = 64;

/// The order a background task issues its blocks in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackgroundPriority {
    /// Ascending address order — the classic streaming rebuild/reshape.
    #[default]
    Sequential,
    /// Blocks the I/O monitor has observed the most accesses on go first
    /// (falls back to [`Sequential`](BackgroundPriority::Sequential) for
    /// arrays without a cache partition, which have no monitor to rank
    /// heat with — the *effective* priority is recorded in
    /// [`MigrationStats`](crate::report::MigrationStats) so a no-op knob
    /// cannot masquerade as a null result).
    HotFirst,
}

impl BackgroundPriority {
    /// The serialized name.
    pub fn name(self) -> &'static str {
        match self {
            BackgroundPriority::Sequential => "sequential",
            BackgroundPriority::HotFirst => "hot-first",
        }
    }
}

impl std::fmt::Display for BackgroundPriority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackgroundPriority {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().replace('_', "-").as_str() {
            "sequential" => Ok(BackgroundPriority::Sequential),
            "hot-first" | "hotfirst" => Ok(BackgroundPriority::HotFirst),
            other => Err(format!(
                "unknown background priority '{other}' (expected sequential or hot-first)"
            )),
        }
    }
}

impl Serialize for BackgroundPriority {
    fn serialize(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for BackgroundPriority {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("background priority name", value))?;
        s.parse().map_err(serde::Error::custom)
    }
}

/// What a background task is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Streaming a failed disk's image onto its hot spare.
    Rebuild,
    /// Redistributing cached blocks to their post-upgrade cache-partition
    /// slots after an expansion (CRAID's paced PC redistribution).
    ExpansionMigration,
    /// Reshaping an ideal RAID-5 archive onto the grown disk set — the
    /// conventional-upgrade cost (mdadm-style), streamed from a cursor.
    ArchiveRestripe,
}

impl TaskKind {
    /// The stable name trace spans and logs use.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Rebuild => "rebuild",
            TaskKind::ExpansionMigration => "expansion-migration",
            TaskKind::ArchiveRestripe => "archive-restripe",
        }
    }
}

/// Identifies one task pushed onto a [`BackgroundEngine`] (ids are unique
/// per engine, in push order). Batches and completions carry the id so the
/// owning array can route work to per-task state — e.g. the cache-partition
/// geometry generation a migration's blocks came from.
pub type TaskId = u64;

/// The relative scheduling weights of the background task classes. When
/// several tasks are behind pace in the same poll, the batch cap is split
/// proportionally: a rebuild with `rebuild_share = 3.0` against a migration
/// with `migration_share = 1.0` gets three quarters of the contended budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairShares {
    /// Weight of [`TaskKind::Rebuild`] tasks.
    pub rebuild: f64,
    /// Weight of [`TaskKind::ExpansionMigration`] and
    /// [`TaskKind::ArchiveRestripe`] tasks.
    pub migration: f64,
}

impl Default for FairShares {
    fn default() -> Self {
        FairShares {
            rebuild: 1.0,
            migration: 1.0,
        }
    }
}

impl FairShares {
    fn weight(&self, kind: TaskKind) -> f64 {
        match kind {
            TaskKind::Rebuild => self.rebuild,
            TaskKind::ExpansionMigration | TaskKind::ArchiveRestripe => self.migration,
        }
    }
}

/// The body of work a task walks through, in issue order.
#[derive(Debug, Clone)]
enum Work {
    /// Contiguous physical ranges on one device (a rebuild's segments,
    /// already ordered by the priority policy).
    Ranges {
        segments: Vec<BlockRange>,
        seg: usize,
        off: u64,
    },
    /// An explicit logical-block order (a PC redistribution's queue, already
    /// ordered by the priority policy; bounded by the cache partition's
    /// capacity).
    Blocks { blocks: Vec<u64>, cursor: usize },
    /// A bare count of blocks the owning array produces lazily from its own
    /// cursor (archive restripes — O(1) memory regardless of dataset size).
    /// [`BackgroundEngine::forfeit`] shrinks it when client writes supersede
    /// pending moves.
    Stream { remaining: u64 },
}

impl Work {
    fn remaining(&self) -> u64 {
        match self {
            Work::Ranges { segments, seg, off } => segments[*seg..]
                .iter()
                .map(|r| r.len())
                .sum::<u64>()
                .saturating_sub(*off),
            Work::Blocks { blocks, cursor } => (blocks.len() - cursor) as u64,
            Work::Stream { remaining } => *remaining,
        }
    }

    /// Takes up to `budget` blocks off the front of the work body.
    fn take(&mut self, budget: u64) -> WorkBatch {
        match self {
            Work::Ranges { segments, seg, off } => {
                let mut out = Vec::new();
                let mut left = budget;
                while left > 0 && *seg < segments.len() && out.len() < MAX_RANGES_PER_BATCH {
                    let segment = segments[*seg];
                    let available = segment.len() - *off;
                    let len = available.min(left);
                    out.push(BlockRange::new(segment.start() + *off, len));
                    left -= len;
                    if len == available {
                        *seg += 1;
                        *off = 0;
                    } else {
                        *off += len;
                    }
                }
                WorkBatch::Ranges(out)
            }
            Work::Blocks { blocks, cursor } => {
                let take = (budget as usize).min(blocks.len() - *cursor);
                let batch = blocks[*cursor..*cursor + take].to_vec();
                *cursor += take;
                WorkBatch::Blocks(batch)
            }
            Work::Stream { remaining } => {
                let take = budget.min(*remaining);
                *remaining -= take;
                WorkBatch::Budget(take)
            }
        }
    }
}

/// The blocks one engine poll hands the array to issue I/O for.
#[derive(Debug, Clone)]
enum WorkBatch {
    Ranges(Vec<BlockRange>),
    Blocks(Vec<u64>),
    Budget(u64),
}

/// The QoS throttle attached to an engine: the controller's current scale
/// and the maintenance-rate floor it is clamped to. Every task paces by
/// *accumulated scaled time* (`rate × Σ scale·Δt`), so retargets apply
/// going forward without rewriting a task's past; without a throttle the
/// scale is 1.0 and the clock never advances, which is `rate × elapsed`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Throttle {
    /// Current throttle in `[floor, 1.0]`.
    scale: f64,
    /// Lower clamp: maintenance never paces below this fraction of each
    /// task's configured rate, so throttled work always finishes.
    floor: f64,
}

/// One paced unit of background work.
#[derive(Debug, Clone)]
struct BackgroundTask {
    id: TaskId,
    kind: TaskKind,
    /// The device slot a rebuild reconstructs (unused for migrations).
    disk: usize,
    /// Surviving parity-group members feeding a rebuild.
    peers: Vec<usize>,
    work: Work,
    rate_blocks_per_sec: f64,
    /// When the task was pushed — its pacing clock starts immediately
    /// (every queued task is live under fair share).
    started: SimTime,
    issued: u64,
    /// Throttle-scaled seconds accumulated up to `last_advance` (`Σ
    /// scale·Δt` since push); only a throttle retarget or a throttled poll
    /// advances it.
    paced_secs: f64,
    /// The instant `paced_secs` was last advanced to (`started` until then).
    last_advance: SimTime,
}

impl BackgroundTask {
    /// Scaled seconds of pacing credit at `now`: the accumulated clock plus
    /// the time since its last advance at the current `scale`.
    fn paced_secs_at(&self, now: SimTime, scale: f64) -> f64 {
        self.paced_secs + scale * now.saturating_since(self.last_advance).as_secs()
    }

    /// Blocks due by the pacing clock at `now`.
    fn pace_target(&self, now: SimTime, scale: f64) -> u64 {
        (self.rate_blocks_per_sec * self.paced_secs_at(now, scale)) as u64
    }

    /// The instant the scaled clock reaches `pace_secs` at `scale`.
    fn paced_instant(&self, pace_secs: f64, scale: f64) -> SimTime {
        let deficit_secs = (pace_secs - self.paced_secs).max(0.0);
        self.last_advance + SimDuration::from_secs(deficit_secs / scale)
    }

    /// The instant this task's pacing clock first demands another block
    /// (`pace_target` reaches `issued + 1`), or "due immediately" when its
    /// work has drained — an empty task retires on the next poll, and that
    /// completion can unblock deferred expansions, so it must not wait for
    /// a pace tick that will never come.
    fn next_block_due(&self, scale: f64) -> SimTime {
        if self.work.remaining() == 0 {
            return SimTime::ZERO;
        }
        self.paced_instant((self.issued + 1) as f64 / self.rate_blocks_per_sec, scale)
    }

    /// The simulated instant this task's pace alone would complete it: the
    /// instant the scaled clock reaches the remaining work at the current
    /// effective rate. Forfeited stream work shrinks it.
    fn pace_eta(&self, scale: f64) -> SimTime {
        let total = self.issued + self.work.remaining();
        self.paced_instant(total as f64 / self.rate_blocks_per_sec, scale)
    }
}

/// A batch of work the engine has decided is due; the array turns it into
/// device I/O.
#[derive(Debug, Clone)]
pub enum Batch {
    /// Reconstruct these physical ranges of `disk` from `peers`.
    Rebuild {
        /// The issuing task.
        id: TaskId,
        /// The device slot being rebuilt.
        disk: usize,
        /// Surviving parity-group members to read from.
        peers: Vec<usize>,
        /// Physical ranges to reconstruct in this step.
        ranges: Vec<BlockRange>,
    },
    /// Migrate these logical blocks to their post-upgrade home.
    Migration {
        /// The issuing task.
        id: TaskId,
        /// Logical blocks to move in this step (priority order).
        blocks: Vec<u64>,
    },
    /// Issue the next `budget` moves of a streamed restripe; the owning
    /// array advances its cursor to find them.
    Restripe {
        /// The issuing task.
        id: TaskId,
        /// Number of pending moves to issue in this step.
        budget: u64,
    },
}

/// A task that ran to completion during the last poll.
#[derive(Debug, Clone)]
pub struct CompletedTask {
    /// The finished task's id.
    pub id: TaskId,
    /// What finished.
    pub kind: TaskKind,
    /// The rebuilt device slot (meaningful for rebuilds).
    pub disk: usize,
    /// Blocks the task issued over its lifetime.
    pub blocks_issued: u64,
    /// Simulated seconds from push to completion — the service window the
    /// paper's redistribution-time trade-off is about. Under fair share this
    /// includes any time spent contending with concurrent tasks.
    pub window_secs: f64,
}

/// The per-array scheduler: a set of live, rate-paced background tasks
/// sharing each poll's issue budget by [`FairShares`] weights.
#[derive(Debug, Clone, Default)]
pub struct BackgroundEngine {
    queue: VecDeque<BackgroundTask>,
    shares: FairShares,
    next_id: TaskId,
    completed: Vec<CompletedTask>,
    /// The QoS throttle, when a controller is attached. `None` paces at
    /// scale 1.0 — bit-for-bit the pre-QoS behaviour.
    throttle: Option<Throttle>,
    /// Memoized [`BackgroundEngine::next_due`]: outer `None` = stale
    /// (recompute on the next query), inner `None` = idle engine, never
    /// due. Every state change that can move a pacing clock (push, forfeit,
    /// poll, throttle retarget) clears it.
    next_due_cache: Option<Option<SimTime>>,
    /// [`BackgroundEngine::poll`]'s working lists, one entry per live
    /// task, kept so a poll allocates none of them: each task's demand,
    /// its grant, and the tasks left hungry by a contended split.
    poll_scratch: PollScratch,
}

/// See [`BackgroundEngine`]'s `poll_scratch`.
#[derive(Debug, Clone, Default)]
struct PollScratch {
    due: Vec<u64>,
    alloc: Vec<u64>,
    hungry: Vec<usize>,
}

impl BackgroundEngine {
    /// An empty engine with equal (1:1) shares.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty engine with the given scheduling weights.
    ///
    /// # Panics
    ///
    /// Panics if either share is not finite and positive.
    pub fn with_shares(rebuild: f64, migration: f64) -> Self {
        assert!(
            rebuild.is_finite() && rebuild > 0.0 && migration.is_finite() && migration > 0.0,
            "fair shares must be finite and positive, got rebuild {rebuild} / migration {migration}"
        );
        BackgroundEngine {
            shares: FairShares { rebuild, migration },
            ..Self::default()
        }
    }

    /// Attaches a QoS throttle with the given maintenance-rate floor
    /// (fraction of each task's configured rate, in `(0, 1]`). The engine
    /// starts at full scale (1.0); a controller retargets it via
    /// [`BackgroundEngine::set_throttle`].
    ///
    /// # Panics
    ///
    /// Panics if the floor is not in `(0, 1]` or a throttle is already
    /// attached.
    pub fn attach_throttle(&mut self, floor: f64) {
        assert!(
            floor.is_finite() && floor > 0.0 && floor <= 1.0,
            "throttle floor must be in (0, 1], got {floor}"
        );
        assert!(
            self.throttle.is_none(),
            "a throttle is already attached to this engine"
        );
        self.throttle = Some(Throttle { scale: 1.0, floor });
        self.next_due_cache = None;
    }

    /// Retargets the attached throttle at `now`: every live task's pacing
    /// clock is first advanced to `now` at the *old* scale (a retarget
    /// applies going forward, never rewriting the past), then the new
    /// scale — clamped to `[floor, 1.0]` — takes effect. A no-op when no
    /// throttle is attached.
    pub fn set_throttle(&mut self, now: SimTime, scale: f64) {
        let Some(throttle) = self.throttle else {
            return;
        };
        self.advance_clocks(now);
        let scale = if scale.is_finite() { scale } else { 1.0 };
        let scale = scale.clamp(throttle.floor, 1.0);
        choice::observe(|| Observation::Throttle {
            scale,
            floor: throttle.floor,
        });
        self.throttle = Some(Throttle { scale, ..throttle });
        self.next_due_cache = None;
    }

    /// The attached throttle's current scale, or `None` when unthrottled.
    pub fn throttle_scale(&self) -> Option<f64> {
        self.throttle.map(|t| t.scale)
    }

    /// The pacing scale: the attached throttle's, or 1.0 without one.
    fn scale(&self) -> f64 {
        self.throttle.map_or(1.0, |t| t.scale)
    }

    /// Advances every task's accumulated scaled clock to `now` at the
    /// current scale. A no-op without a throttle: an unthrottled clock
    /// never advances, so it keeps reading `rate × elapsed`.
    fn advance_clocks(&mut self, now: SimTime) {
        let Some(throttle) = self.throttle else {
            return;
        };
        for task in &mut self.queue {
            task.paced_secs = task.paced_secs_at(now, throttle.scale);
            task.last_advance = now;
        }
    }

    /// One poll's combined issue budget: the static cap, scaled by the
    /// throttle (never below one block — a throttled poll still makes
    /// progress).
    fn batch_cap(&self) -> u64 {
        ((MAX_BATCH_BLOCKS as f64 * self.scale()) as u64).max(1)
    }

    /// True when no task is queued or active.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// True when a task of `kind` is live.
    pub fn has_task(&self, kind: TaskKind) -> bool {
        self.queue.iter().any(|t| t.kind == kind)
    }

    /// Blocks still to issue across all live tasks of `kind`.
    pub fn backlog_blocks(&self, kind: TaskKind) -> u64 {
        self.queue
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.work.remaining())
            .sum()
    }

    /// The earliest instant at which any live task's pace alone would
    /// complete it, or `None` when the engine is idle. The simulation's
    /// end-of-trace drain jumps time here instead of stepping blindly.
    pub fn drain_eta(&self) -> Option<SimTime> {
        self.queue.iter().map(|t| t.pace_eta(self.scale())).min()
    }

    /// The earliest instant at which a poll could do anything — issue a
    /// task's next paced block or retire a drained task — or `None` when
    /// the engine is idle. Memoized until the next state change.
    fn next_due(&mut self) -> Option<SimTime> {
        if let Some(due) = self.next_due_cache {
            return due;
        }
        let due = self
            .queue
            .iter()
            .map(|t| t.next_block_due(self.scale()))
            .min();
        self.next_due_cache = Some(due);
        due
    }

    /// True when a poll at `now` could issue or retire work — the gate for
    /// event-clocked pumping. Deliberately eager by a ~1 µs guard: the due
    /// instant is computed in f64 and may round a hair past the exact
    /// simulated instant the integer pace target crosses, and an early poll
    /// is a harmless zero-issue no-op while a late one would defer
    /// maintenance out of its due request's measurement window.
    pub fn work_due(&mut self, now: SimTime) -> bool {
        match self.next_due() {
            None => false,
            Some(at) => at <= now + SimDuration::from_micros(1.0),
        }
    }

    /// Enqueues a rebuild of `disk` (ranges in `segments` order, fed by
    /// `peers`) paced at `rate_blocks_per_sec`. The task is live — its
    /// pacing clock starts at `now` — and contends with every other live
    /// task under the engine's fair shares.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    pub fn push_rebuild(
        &mut self,
        now: SimTime,
        disk: usize,
        peers: Vec<usize>,
        segments: Vec<BlockRange>,
        rate_blocks_per_sec: f64,
    ) -> TaskId {
        self.push(
            TaskKind::Rebuild,
            disk,
            peers,
            Work::Ranges {
                segments,
                seg: 0,
                off: 0,
            },
            rate_blocks_per_sec,
            now,
        )
    }

    /// Enqueues an expansion migration over `blocks` (already in priority
    /// order) paced at `rate_blocks_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    pub fn push_migration(
        &mut self,
        now: SimTime,
        blocks: Vec<u64>,
        rate_blocks_per_sec: f64,
    ) -> TaskId {
        self.push(
            TaskKind::ExpansionMigration,
            0,
            Vec::new(),
            Work::Blocks { blocks, cursor: 0 },
            rate_blocks_per_sec,
            now,
        )
    }

    /// Enqueues a streamed archive restripe of `total_moves` blocks paced at
    /// `rate_blocks_per_sec`. The engine tracks only the count; the owning
    /// array produces the actual blocks from its restripe cursor when a
    /// [`Batch::Restripe`] asks for them.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not finite and positive.
    pub fn push_restripe(
        &mut self,
        now: SimTime,
        total_moves: u64,
        rate_blocks_per_sec: f64,
    ) -> TaskId {
        self.push(
            TaskKind::ArchiveRestripe,
            0,
            Vec::new(),
            Work::Stream {
                remaining: total_moves,
            },
            rate_blocks_per_sec,
            now,
        )
    }

    fn push(
        &mut self,
        kind: TaskKind,
        disk: usize,
        peers: Vec<usize>,
        work: Work,
        rate_blocks_per_sec: f64,
        now: SimTime,
    ) -> TaskId {
        assert!(
            rate_blocks_per_sec.is_finite() && rate_blocks_per_sec > 0.0,
            "background rate must be finite and positive, got {rate_blocks_per_sec}"
        );
        let id = self.next_id;
        self.next_id += 1;
        choice::observe(|| Observation::MoveSetEnqueued {
            kind,
            blocks: work.remaining(),
        });
        self.queue.push_back(BackgroundTask {
            id,
            kind,
            disk,
            peers,
            work,
            rate_blocks_per_sec,
            started: now,
            issued: 0,
            paced_secs: 0.0,
            last_advance: now,
        });
        self.next_due_cache = None;
        id
    }

    /// Removes `count` blocks of work from streamed task `id` (client
    /// traffic superseded pending restripe moves — they no longer need
    /// background I/O). A no-op for unknown ids (the task already drained)
    /// and for non-stream work bodies.
    pub fn forfeit(&mut self, id: TaskId, count: u64) {
        if count == 0 {
            return;
        }
        if let Some(task) = self.queue.iter_mut().find(|t| t.id == id) {
            if let Work::Stream { remaining } = &mut task.work {
                *remaining = remaining.saturating_sub(count);
                self.next_due_cache = None;
            }
        }
    }

    /// Issues every live task's due catch-up work at `now`, split by the
    /// fair shares when the combined demand exceeds one poll's batch cap
    /// ([`MAX_BATCH_BLOCKS`]). Returns the issued batches in push order —
    /// possibly empty when every task is at pace. Tasks whose work drains
    /// (or was forfeited away) are retired and stashed for
    /// [`BackgroundEngine::take_completed`].
    pub fn poll(&mut self, now: SimTime) -> Vec<Batch> {
        if self.queue.is_empty() {
            return Vec::new();
        }
        // Clocks and issue counters are about to move.
        self.next_due_cache = None;
        // With a throttle attached, bring the scaled pacing clocks up to
        // `now` first.
        self.advance_clocks(now);
        let cap = self.batch_cap();
        let scale = self.scale();
        // Phase 1: how many blocks does each task's pace demand right now?
        let PollScratch {
            mut due,
            mut alloc,
            mut hungry,
        } = std::mem::take(&mut self.poll_scratch);
        due.clear();
        let mut total_due = 0u64;
        let mut weight_sum = 0.0f64;
        for task in &self.queue {
            let remaining = task.work.remaining();
            let target = task.pace_target(now, scale);
            let want = target.saturating_sub(task.issued).min(remaining);
            due.push(want);
            if want > 0 {
                total_due += want;
                weight_sum += self.shares.weight(task.kind);
            }
        }
        // Phase 2: allocate the poll budget. Uncontended demand passes
        // through; contended demand splits the cap by weight, with a floor
        // of one block per hungry task (everyone makes progress every poll)
        // and leftover budget redistributed in push order so the poll stays
        // work-conserving.
        alloc.clear();
        alloc.extend_from_slice(&due);
        if total_due > cap {
            let mut assigned = 0u64;
            for (task, (alloc, &want)) in self.queue.iter().zip(alloc.iter_mut().zip(&due)) {
                if want == 0 {
                    continue;
                }
                let share = self.shares.weight(task.kind) / weight_sum;
                *alloc = ((cap as f64 * share) as u64).clamp(1, want);
                assigned += *alloc;
            }
            let mut leftover = cap.saturating_sub(assigned);
            // The refill visits hungry tasks in push order; *where it
            // starts* is a policy the model checker may rotate (branch 0 =
            // the first hungry task, the pinned behaviour).
            hungry.clear();
            hungry.extend((0..alloc.len()).filter(|&i| due[i] > alloc[i]));
            if leftover > 0 && !hungry.is_empty() {
                let start = choice::choose(DecisionPoint::FairShareLeftover, hungry.len());
                for position in 0..hungry.len() {
                    if leftover == 0 {
                        break;
                    }
                    let i = hungry[(start + position) % hungry.len()];
                    let extra = (due[i] - alloc[i]).min(leftover);
                    alloc[i] += extra;
                    leftover -= extra;
                }
            }
        }
        choice::observe(|| Observation::Poll {
            cap,
            total_due,
            lanes: self
                .queue
                .iter()
                .zip(due.iter().zip(&alloc))
                .map(|(task, (&want, &granted))| PollLane {
                    kind: task.kind,
                    want,
                    granted,
                })
                .collect(),
        });
        // Phase 3: issue the batches and retire drained tasks.
        let mut batches = Vec::new();
        let mut index = 0;
        self.queue.retain_mut(|task| {
            let mut budget = alloc[index];
            index += 1;
            // The whole allocation normally goes out as one batch; the
            // model checker may place the batch boundary early instead,
            // deferring the tail to the next poll (the task stays live and
            // its pace re-demands the remainder).
            if budget >= 2 && choice::choose(DecisionPoint::BatchBoundary, 2) == 1 {
                budget -= budget / 2;
            }
            if budget > 0 {
                let batch = task.work.take(budget);
                let taken = match &batch {
                    WorkBatch::Ranges(ranges) => ranges.iter().map(|r| r.len()).sum(),
                    WorkBatch::Blocks(blocks) => blocks.len() as u64,
                    WorkBatch::Budget(count) => *count,
                };
                task.issued += taken;
                batches.push(match batch {
                    WorkBatch::Ranges(ranges) => Batch::Rebuild {
                        id: task.id,
                        disk: task.disk,
                        peers: task.peers.clone(),
                        ranges,
                    },
                    WorkBatch::Blocks(blocks) => Batch::Migration {
                        id: task.id,
                        blocks,
                    },
                    WorkBatch::Budget(count) => Batch::Restripe {
                        id: task.id,
                        budget: count,
                    },
                });
            }
            if task.work.remaining() == 0 {
                // Drained (or empty from the start, or forfeited away):
                // retire the task and record its service window.
                craid_obs::emit(|_| {
                    craid_obs::TraceEvent::span(
                        craid_obs::SpanCategory::Background,
                        task.kind.name(),
                        task.started,
                        now.saturating_since(task.started),
                    )
                    .arg("id", task.id)
                    .arg("disk", task.disk as u64)
                    .arg("blocks_issued", task.issued)
                });
                craid_obs::counter_add("background.completions", 1);
                self.completed.push(CompletedTask {
                    id: task.id,
                    kind: task.kind,
                    disk: task.disk,
                    blocks_issued: task.issued,
                    window_secs: now.saturating_since(task.started).as_secs(),
                });
                false
            } else {
                true
            }
        });
        self.poll_scratch = PollScratch { due, alloc, hungry };
        batches
    }

    /// The tasks the last [`BackgroundEngine::poll`] completed, in push
    /// order. The owning array applies the completion side effects (mark
    /// the spare healthy, close the migration window) exactly once.
    pub fn take_completed(&mut self) -> Vec<CompletedTask> {
        std::mem::take(&mut self.completed)
    }
}

/// Where a not-yet-migrated block's authoritative copy still lives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OldHome {
    /// The cache-partition slot holding the pre-upgrade copy (CRAID
    /// redistribution).
    pub pc_slot: u64,
    /// True if the copy differs from the archive's — the *only* valid copy.
    pub dirty: bool,
    /// The migration task ([`TaskId`]) this block was enqueued by — it keys
    /// the preserved pre-upgrade cache-partition geometry the slot refers
    /// to. With queued second expansions several geometries can be live at
    /// once.
    pub generation: TaskId,
}

/// Tracks, per logical block, the blocks an in-flight expansion migration
/// has not yet moved. The redirector/planner layer consults it on every
/// request: pending reads are served from the old location, writes land at
/// the new home and supersede the pending move. Lives alongside the
/// [`MappingCache`](crate::MappingCache), which only knows post-upgrade
/// placements.
///
/// The pending blocks live in a [`BlockMap`], which the array sizes once
/// for a drained cache partition ([`MigrationMap::reserve`]) and which is
/// freed when the last pending block leaves. Only [`MigrationMap::iter`]
/// sorts.
#[derive(Debug, Clone, Default)]
pub struct MigrationMap {
    map: BlockMap<OldHome>,
}

impl MigrationMap {
    /// An empty map (no migration in flight).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blocks still awaiting migration.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Makes room for `blocks` more pending blocks, so that inserting them
    /// grows the table at most once.
    pub fn reserve(&mut self, blocks: usize) {
        self.map.reserve(blocks);
    }

    /// Marks `logical` as pending, with its old home.
    pub fn insert(&mut self, logical: u64, home: OldHome) {
        self.map.insert(logical, home);
    }

    /// The old home of `logical`, if it is still pending.
    pub fn get(&self, logical: u64) -> Option<OldHome> {
        self.map.get(logical)
    }

    /// True if `logical` has not been moved (or superseded) yet.
    pub fn contains(&self, logical: u64) -> bool {
        self.map.contains_key(logical)
    }

    /// Removes `logical` (it was migrated, or a client write superseded the
    /// move), returning its old home if it was pending. Removing the last
    /// pending block frees the table.
    pub fn remove(&mut self, logical: u64) -> Option<OldHome> {
        let home = self.map.remove(logical);
        if home.is_some() && self.map.is_empty() {
            self.map = BlockMap::new();
        }
        home
    }

    /// Iterates over pending blocks in ascending logical order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, OldHome)> {
        self.map.sorted().into_iter()
    }
}

/// Builds a rebuild's segment order: the `hot` ranges first (in the order
/// given), then the uncovered remainder of `[0, total)` in ascending order.
/// The hot ranges must be disjoint; ranges reaching beyond `total` are
/// clipped.
pub(crate) fn prioritized_segments(total: u64, hot: Vec<BlockRange>) -> Vec<BlockRange> {
    let hot: Vec<BlockRange> = hot
        .into_iter()
        .filter(|r| r.start() < total)
        .map(|r| BlockRange::new(r.start(), r.len().min(total - r.start())))
        .collect();
    let mut covered = hot.clone();
    covered.sort_by_key(|r| r.start());
    debug_assert!(
        covered.windows(2).all(|w| w[0].end() <= w[1].start()),
        "hot ranges must be disjoint"
    );
    let mut segments = hot;
    let mut cursor = 0;
    for range in covered {
        if range.start() > cursor {
            segments.push(BlockRange::new(cursor, range.start() - cursor));
        }
        cursor = range.end();
    }
    if cursor < total {
        segments.push(BlockRange::new(cursor, total - cursor));
    }
    segments
}

/// Merges a sorted, deduplicated list of block numbers into contiguous
/// ranges.
pub(crate) fn merge_blocks_to_ranges(blocks: &[u64]) -> Vec<BlockRange> {
    let mut out: Vec<BlockRange> = Vec::new();
    for &block in blocks {
        match out.last_mut() {
            Some(last) if last.end() == block => {
                *last = BlockRange::new(last.start(), last.len() + 1)
            }
            _ => out.push(BlockRange::new(block, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rebuild_blocks(batch: &Batch) -> u64 {
        match batch {
            Batch::Rebuild { ranges, .. } => ranges.iter().map(|r| r.len()).sum(),
            _ => 0,
        }
    }

    #[test]
    fn priority_parses_and_round_trips() {
        for p in [BackgroundPriority::Sequential, BackgroundPriority::HotFirst] {
            assert_eq!(p.name().parse::<BackgroundPriority>().unwrap(), p);
            let v = Serialize::serialize(&p);
            assert_eq!(BackgroundPriority::deserialize(&v).unwrap(), p);
        }
        assert_eq!(
            "Hot_First".parse::<BackgroundPriority>().unwrap(),
            BackgroundPriority::HotFirst
        );
        assert!("fastest".parse::<BackgroundPriority>().is_err());
        assert!(BackgroundPriority::deserialize(&Value::Int(1)).is_err());
    }

    #[test]
    fn rebuild_task_paces_by_rate_and_completes() {
        let mut engine = BackgroundEngine::new();
        engine.push_rebuild(
            SimTime::ZERO,
            1,
            vec![0, 2, 3],
            vec![BlockRange::new(0, 1_000)],
            100.0,
        );
        // At t = 0 nothing is due yet.
        assert!(engine.poll(SimTime::ZERO).is_empty());
        // At t = 2s the pace demands 200 blocks in one batch.
        let batches = engine.poll(SimTime::from_secs(2.0));
        assert_eq!(batches.len(), 1);
        let Batch::Rebuild {
            disk,
            peers,
            ranges,
            ..
        } = &batches[0]
        else {
            panic!("a rebuild batch is due");
        };
        assert_eq!(*disk, 1);
        assert_eq!(*peers, vec![0, 2, 3]);
        assert_eq!(*ranges, vec![BlockRange::new(0, 200)]);
        // Already at pace: an immediate second poll is a no-op.
        assert!(engine.poll(SimTime::from_secs(2.0)).is_empty());
        // Far in the future the engine catches up one capped batch at a time.
        let mut total = 200;
        loop {
            let batches = engine.poll(SimTime::from_secs(100.0));
            if batches.is_empty() {
                break;
            }
            for batch in &batches {
                let len = rebuild_blocks(batch);
                assert!(len <= MAX_BATCH_BLOCKS);
                total += len;
            }
        }
        assert_eq!(total, 1_000);
        let done = engine.take_completed();
        assert_eq!(done.len(), 1, "the rebuild finished");
        assert_eq!(done[0].kind, TaskKind::Rebuild);
        assert_eq!(done[0].blocks_issued, 1_000);
        assert!(done[0].window_secs > 0.0);
        assert!(engine.is_idle());
        assert!(engine.take_completed().is_empty(), "completion fires once");
    }

    #[test]
    fn concurrent_tasks_both_progress_every_poll() {
        let mut engine = BackgroundEngine::new();
        engine.push_rebuild(
            SimTime::ZERO,
            0,
            vec![1],
            vec![BlockRange::new(0, 100_000)],
            1e9,
        );
        engine.push_migration(SimTime::ZERO, (0..100_000).collect(), 1e9);
        assert!(engine.has_task(TaskKind::Rebuild));
        assert!(engine.has_task(TaskKind::ExpansionMigration));
        // Both are saturated: every poll issues work for both, splitting the
        // cap half and half at equal weights.
        let batches = engine.poll(SimTime::from_secs(1.0));
        assert_eq!(batches.len(), 2);
        let rebuild: u64 = batches.iter().map(rebuild_blocks).sum();
        let migration: u64 = batches
            .iter()
            .map(|b| match b {
                Batch::Migration { blocks, .. } => blocks.len() as u64,
                _ => 0,
            })
            .sum();
        assert!(rebuild > 0 && migration > 0, "both make progress");
        assert_eq!(rebuild, MAX_BATCH_BLOCKS / 2);
        assert_eq!(migration, MAX_BATCH_BLOCKS / 2);
    }

    #[test]
    fn contended_budget_follows_the_shares() {
        let mut engine = BackgroundEngine::with_shares(3.0, 1.0);
        engine.push_rebuild(
            SimTime::ZERO,
            0,
            vec![1],
            vec![BlockRange::new(0, 1_000_000)],
            1e9,
        );
        engine.push_migration(SimTime::ZERO, (0..100_000).collect(), 1e9);
        let mut rebuild = 0u64;
        let mut migration = 0u64;
        for i in 1..=20 {
            for batch in engine.poll(SimTime::from_secs(i as f64)) {
                match batch {
                    Batch::Rebuild { ranges, .. } => {
                        rebuild += ranges.iter().map(|r| r.len()).sum::<u64>()
                    }
                    Batch::Migration { blocks, .. } => migration += blocks.len() as u64,
                    Batch::Restripe { .. } => unreachable!("no stream task pushed"),
                }
            }
        }
        // 3:1 weights → the rebuild issues three times the migration's
        // blocks, within one batch of tolerance.
        let expected = 3.0 * migration as f64;
        assert!(
            (rebuild as f64 - expected).abs() <= MAX_BATCH_BLOCKS as f64,
            "rebuild {rebuild} vs migration {migration} should honour 3:1 shares"
        );
    }

    #[test]
    fn uncontended_polls_bypass_the_split() {
        let mut engine = BackgroundEngine::with_shares(5.0, 1.0);
        // Slow rates: at t = 1s only 10 + 20 blocks are due — far below the
        // cap, so both tasks get exactly their pace regardless of weights.
        engine.push_rebuild(
            SimTime::ZERO,
            0,
            vec![1],
            vec![BlockRange::new(0, 500)],
            10.0,
        );
        engine.push_migration(SimTime::ZERO, (0..500).collect(), 20.0);
        let batches = engine.poll(SimTime::from_secs(1.0));
        let rebuild: u64 = batches.iter().map(rebuild_blocks).sum();
        let migration: u64 = batches
            .iter()
            .map(|b| match b {
                Batch::Migration { blocks, .. } => blocks.len() as u64,
                _ => 0,
            })
            .sum();
        assert_eq!(rebuild, 10);
        assert_eq!(migration, 20);
    }

    #[test]
    fn stream_task_issues_budgets_and_forfeits() {
        let mut engine = BackgroundEngine::new();
        let id = engine.push_restripe(SimTime::ZERO, 100, 10.0);
        assert!(engine.has_task(TaskKind::ArchiveRestripe));
        assert_eq!(engine.backlog_blocks(TaskKind::ArchiveRestripe), 100);
        let batches = engine.poll(SimTime::from_secs(2.0));
        assert_eq!(batches.len(), 1);
        let Batch::Restripe { id: got, budget } = batches[0] else {
            panic!("a restripe budget is due");
        };
        assert_eq!(got, id);
        assert_eq!(budget, 20);
        // Client writes supersede 70 of the remaining 80 moves.
        engine.forfeit(id, 70);
        assert_eq!(engine.backlog_blocks(TaskKind::ArchiveRestripe), 10);
        // The pace-completion estimate shrank accordingly: 30 effective
        // blocks at 10 blocks/s.
        assert_eq!(engine.drain_eta().unwrap(), SimTime::from_secs(3.0));
        let batches = engine.poll(SimTime::from_secs(100.0));
        assert!(matches!(batches[0], Batch::Restripe { budget: 10, .. }));
        let done = engine.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, TaskKind::ArchiveRestripe);
        assert_eq!(done[0].blocks_issued, 30);
        assert!(engine.is_idle());
        // Forfeiting a drained task is a harmless no-op.
        engine.forfeit(id, 5);
    }

    #[test]
    fn forfeiting_all_work_completes_without_issuing() {
        let mut engine = BackgroundEngine::new();
        let id = engine.push_restripe(SimTime::ZERO, 10, 1.0);
        engine.forfeit(id, 10);
        assert!(engine.poll(SimTime::from_secs(0.5)).is_empty());
        let done = engine.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].blocks_issued, 0);
        assert!(engine.is_idle());
    }

    #[test]
    fn a_reused_poll_scratch_grants_like_a_fresh_one() {
        // Three contending tasks finish one after another, so the poll's
        // working lists outgrow the queue: every poll must grant what the
        // same engine state with empty lists grants.
        let mut engine = BackgroundEngine::with_shares(2.0, 1.0);
        engine.push_rebuild(
            SimTime::ZERO,
            0,
            vec![1, 2],
            vec![BlockRange::new(0, 3 * MAX_BATCH_BLOCKS)],
            1e9,
        );
        engine.push_migration(SimTime::ZERO, (0..MAX_BATCH_BLOCKS).collect(), 1e9);
        engine.push_restripe(SimTime::ZERO, 5 * MAX_BATCH_BLOCKS, 1e9);
        let mut polls = 0;
        while !engine.is_idle() {
            polls += 1;
            assert!(polls < 100, "the work drains");
            let mut fresh = engine.clone();
            fresh.poll_scratch = PollScratch::default();
            let now = SimTime::from_secs(polls as f64);
            let granted = format!("{:?}", engine.poll(now));
            assert_eq!(granted, format!("{:?}", fresh.poll(now)), "poll {polls}");
        }
        assert_eq!(engine.take_completed().len(), 3);
    }

    #[test]
    fn empty_migration_completes_without_issuing() {
        let mut engine = BackgroundEngine::new();
        engine.push_migration(SimTime::ZERO, Vec::new(), 100.0);
        assert!(engine.poll(SimTime::from_secs(1.0)).is_empty());
        let done = engine.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, TaskKind::ExpansionMigration);
        assert_eq!(done[0].blocks_issued, 0);
        assert!(engine.is_idle());
    }

    #[test]
    fn drain_eta_is_the_earliest_pace_completion() {
        let mut engine = BackgroundEngine::new();
        assert!(engine.drain_eta().is_none());
        engine.push_rebuild(
            SimTime::from_secs(1.0),
            0,
            vec![1],
            vec![BlockRange::new(0, 100)],
            10.0, // completes at t = 11
        );
        engine.push_migration(SimTime::from_secs(2.0), (0..30).collect(), 10.0); // t = 5
        assert_eq!(engine.drain_eta().unwrap(), SimTime::from_secs(5.0));
        // Draining at the eta retires the migration; the rebuild remains.
        while engine
            .poll(SimTime::from_secs(5.0))
            .iter()
            .any(|b| matches!(b, Batch::Migration { .. }))
        {}
        let done = engine.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, TaskKind::ExpansionMigration);
        assert_eq!(done[0].window_secs, 3.0);
        assert_eq!(engine.drain_eta().unwrap(), SimTime::from_secs(11.0));
    }

    #[test]
    fn ranged_work_spans_segments_within_one_batch() {
        let mut engine = BackgroundEngine::new();
        engine.push_rebuild(
            SimTime::ZERO,
            2,
            vec![0],
            vec![
                BlockRange::new(100, 3),
                BlockRange::new(10, 4),
                BlockRange::new(50, 100),
            ],
            1e9,
        );
        let batches = engine.poll(SimTime::from_secs(1.0));
        let Batch::Rebuild { ranges, .. } = &batches[0] else {
            panic!("everything is due");
        };
        // Hot segments first, in the given order, then the tail.
        assert_eq!(ranges[0], BlockRange::new(100, 3));
        assert_eq!(ranges[1], BlockRange::new(10, 4));
        assert_eq!(ranges[2], BlockRange::new(50, 100));
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<u64>(), 107);
    }

    #[test]
    fn migration_map_tracks_pending_blocks() {
        let mut map = MigrationMap::new();
        assert!(map.is_empty());
        map.insert(
            7,
            OldHome {
                pc_slot: 3,
                dirty: true,
                generation: 0,
            },
        );
        map.insert(
            2,
            OldHome {
                pc_slot: 9,
                dirty: false,
                generation: 1,
            },
        );
        assert_eq!(map.len(), 2);
        assert!(map.contains(7));
        assert_eq!(map.get(7).unwrap().pc_slot, 3);
        assert_eq!(map.get(2).unwrap().generation, 1);
        assert_eq!(
            map.iter().map(|(b, _)| b).collect::<Vec<_>>(),
            vec![2, 7],
            "iteration is in logical order"
        );
        assert_eq!(map.remove(2).unwrap().pc_slot, 9);
        assert!(map.remove(2).is_none());
        map.remove(7);
        assert!(map.is_empty());
    }

    #[test]
    fn prioritized_segments_cover_the_space_exactly_once() {
        let segments = prioritized_segments(
            100,
            vec![
                BlockRange::new(40, 10),
                BlockRange::new(10, 5),
                BlockRange::new(95, 20),
            ],
        );
        // Hot first (clipped), then the ascending remainder.
        assert_eq!(
            segments,
            vec![
                BlockRange::new(40, 10),
                BlockRange::new(10, 5),
                BlockRange::new(95, 5),
                BlockRange::new(0, 10),
                BlockRange::new(15, 25),
                BlockRange::new(50, 45),
            ]
        );
        let total: u64 = segments.iter().map(|r| r.len()).sum();
        assert_eq!(total, 100);
        let mut blocks: Vec<u64> = segments.iter().flat_map(|r| r.blocks()).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn no_hot_ranges_degenerates_to_sequential() {
        assert_eq!(
            prioritized_segments(64, Vec::new()),
            vec![BlockRange::new(0, 64)]
        );
    }

    #[test]
    fn merge_blocks_groups_runs() {
        assert_eq!(
            merge_blocks_to_ranges(&[1, 2, 3, 7, 9, 10]),
            vec![
                BlockRange::new(1, 3),
                BlockRange::new(7, 1),
                BlockRange::new(9, 2)
            ]
        );
        assert!(merge_blocks_to_ranges(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn invalid_shares_are_rejected() {
        BackgroundEngine::with_shares(0.0, 1.0);
    }

    #[test]
    fn throttled_task_paces_at_the_scaled_rate() {
        let mut engine = BackgroundEngine::new();
        engine.attach_throttle(0.1);
        assert_eq!(engine.throttle_scale(), Some(1.0));
        engine.push_rebuild(
            SimTime::ZERO,
            1,
            vec![0],
            vec![BlockRange::new(0, 10_000)],
            100.0,
        );
        engine.set_throttle(SimTime::ZERO, 0.5);
        assert_eq!(engine.throttle_scale(), Some(0.5));
        // Two seconds at half scale: 100 blocks due instead of 200.
        let issued: u64 = engine
            .poll(SimTime::from_secs(2.0))
            .iter()
            .map(rebuild_blocks)
            .sum();
        assert_eq!(issued, 100);
        // Retarget mid-flight: one more second at full scale adds 100.
        engine.set_throttle(SimTime::from_secs(2.0), 1.0);
        let issued: u64 = engine
            .poll(SimTime::from_secs(3.0))
            .iter()
            .map(rebuild_blocks)
            .sum();
        assert_eq!(issued, 100);
    }

    #[test]
    fn throttle_clamps_to_the_floor_and_work_still_finishes() {
        let mut engine = BackgroundEngine::new();
        engine.attach_throttle(0.25);
        engine.push_rebuild(
            SimTime::ZERO,
            0,
            vec![1],
            vec![BlockRange::new(0, 100)],
            100.0,
        );
        // A zero request clamps to the floor: pacing continues at a quarter
        // of the configured rate, never below it.
        engine.set_throttle(SimTime::ZERO, 0.0);
        assert_eq!(engine.throttle_scale(), Some(0.25));
        let issued: u64 = engine
            .poll(SimTime::from_secs(1.0))
            .iter()
            .map(rebuild_blocks)
            .sum();
        assert_eq!(issued, 25, "floor pace is 25 blocks/s");
        // The drain eta accounts for the floored pace: 75 blocks left at
        // 25 blocks/s from t = 1.
        assert_eq!(engine.drain_eta().unwrap(), SimTime::from_secs(4.0));
        engine.poll(SimTime::from_secs(4.0));
        assert!(engine.is_idle(), "floored work still finishes");
        assert_eq!(engine.take_completed().len(), 1);
    }

    #[test]
    fn throttle_scales_the_batch_cap() {
        let mut engine = BackgroundEngine::new();
        engine.attach_throttle(0.01);
        engine.push_migration(SimTime::ZERO, (0..100_000).collect(), 1e9);
        engine.set_throttle(SimTime::ZERO, 0.25);
        let batches = engine.poll(SimTime::from_secs(1.0));
        let issued: u64 = batches
            .iter()
            .map(|b| match b {
                Batch::Migration { blocks, .. } => blocks.len() as u64,
                _ => 0,
            })
            .sum();
        assert_eq!(
            issued,
            MAX_BATCH_BLOCKS / 4,
            "the cap shrinks with the throttle"
        );
    }

    #[test]
    fn unthrottled_engines_ignore_set_throttle() {
        let mut engine = BackgroundEngine::new();
        engine.set_throttle(SimTime::from_secs(1.0), 0.5);
        assert_eq!(engine.throttle_scale(), None);
        engine.push_rebuild(
            SimTime::ZERO,
            0,
            vec![1],
            vec![BlockRange::new(0, 1_000)],
            100.0,
        );
        let issued: u64 = engine
            .poll(SimTime::from_secs(2.0))
            .iter()
            .map(rebuild_blocks)
            .sum();
        assert_eq!(issued, 200, "absolute pacing is untouched");
    }

    #[test]
    fn a_full_scale_throttle_paces_exactly_like_none() {
        // One pacing formula: an unthrottled engine paces at scale 1.0 on a
        // clock that never advances, so it must match an engine throttled
        // at full scale whose clock advances at every retarget and poll.
        // Dyadic rates and instants keep the f64 clocks exact.
        let [mut plain, mut throttled] = [false, true].map(|throttle| {
            let mut engine = BackgroundEngine::new();
            if throttle {
                engine.attach_throttle(0.5);
            }
            let start = SimTime::from_secs(1.0);
            engine.push_rebuild(start, 0, vec![1], vec![BlockRange::new(0, 1_000)], 32.0);
            engine.push_migration(start, (0..160).collect(), 64.0);
            engine
        });
        for secs in [1.0, 1.5, 2.25, 3.5, 4.0, 10.5, 32.25] {
            let now = SimTime::from_secs(secs);
            throttled.set_throttle(now, 1.0);
            assert_eq!(plain.work_due(now), throttled.work_due(now), "t = {secs}");
            let batches = format!("{:?}", plain.poll(now));
            assert_eq!(batches, format!("{:?}", throttled.poll(now)), "t = {secs}");
            let completed = format!("{:?}", plain.take_completed());
            assert_eq!(completed, format!("{:?}", throttled.take_completed()));
            assert_eq!(plain.drain_eta(), throttled.drain_eta(), "t = {secs}");
        }
        assert!(plain.is_idle() && throttled.is_idle());
    }

    #[test]
    #[should_panic(expected = "floor must be in (0, 1]")]
    fn invalid_throttle_floor_is_rejected() {
        BackgroundEngine::new().attach_throttle(0.0);
    }

    #[test]
    fn work_due_gates_exactly_on_pacing_clock() {
        let mut engine = BackgroundEngine::new();
        assert!(
            !engine.work_due(SimTime::from_secs(100.0)),
            "an idle engine is never due"
        );
        engine.push_rebuild(
            SimTime::ZERO,
            0,
            vec![1],
            vec![BlockRange::new(0, 100)],
            10.0,
        );
        // First block due at t = 0.1 s.
        assert!(!engine.work_due(SimTime::from_secs(0.05)));
        assert!(engine.work_due(SimTime::from_secs(0.1)));
        assert!(engine.work_due(SimTime::from_secs(5.0)));
        let issued: u64 = engine
            .poll(SimTime::from_secs(0.2))
            .iter()
            .map(rebuild_blocks)
            .sum();
        assert_eq!(issued, 2);
        assert!(
            !engine.work_due(SimTime::from_secs(0.25)),
            "at pace right after the poll"
        );
        assert!(engine.work_due(SimTime::from_secs(0.3)));
        // A fully forfeited stream task must retire on the next poll: due
        // immediately, not at a pace tick that will never come.
        let mut engine = BackgroundEngine::new();
        let id = engine.push_restripe(SimTime::from_secs(7.0), 50, 10.0);
        engine.forfeit(id, 50);
        assert!(engine.work_due(SimTime::from_secs(7.0)));
        assert!(engine.poll(SimTime::from_secs(7.0)).is_empty());
        assert_eq!(engine.take_completed().len(), 1);
        assert!(!engine.work_due(SimTime::from_secs(8.0)));
    }

    proptest! {
        /// The migration map answers every insert, get, contains and remove
        /// as a `BTreeMap` does, with or without room reserved ahead, and
        /// after every step `iter` walks the pending blocks by ascending
        /// block, the order the model checker's `Colocated` observations
        /// follow. The small key pool empties the map now and then.
        #[test]
        fn prop_migration_map_matches_a_btree_map(
            reserve in 0usize..100,
            ops in proptest::collection::vec((0u8..4, 0u64..40, 0u64..1_000, any::<bool>()), 1..300),
        ) {
            let block = |k: u64| match k {
                0 => u64::MAX,
                k => k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            let mut map = MigrationMap::new();
            map.reserve(reserve);
            let mut model = std::collections::BTreeMap::new();
            for (op, k, slot, dirty) in ops {
                let b = block(k);
                let home = OldHome { pc_slot: slot, dirty, generation: slot % 3 };
                match op {
                    0 => {
                        map.insert(b, home);
                        model.insert(b, home);
                    }
                    1 => prop_assert_eq!(map.get(b), model.get(&b).copied()),
                    2 => prop_assert_eq!(map.contains(b), model.contains_key(&b)),
                    _ => prop_assert_eq!(map.remove(b), model.remove(&b)),
                }
                prop_assert_eq!((map.len(), map.is_empty()), (model.len(), model.is_empty()));
                let walk: Vec<(u64, OldHome)> = model.iter().map(|(&b, &h)| (b, h)).collect();
                prop_assert_eq!(map.iter().collect::<Vec<_>>(), walk);
            }
        }

        /// Event-clocked pumping is exactly per-request pumping with the
        /// guaranteed-idle polls deleted: engine A is polled at every
        /// instant, engine B only when `work_due` says a poll could do
        /// anything, and the two issue identical batch streams and retire
        /// identical tasks at identical instants.
        #[test]
        fn prop_event_clocked_polling_matches_per_request(
            sizes in (50u64..3_000, 50u64..3_000, 50u64..3_000),
            ops in proptest::collection::vec((1u64..4_000, 0u8..8, 0u64..64, any::<bool>()), 1..150),
        ) {
            let (rb, mg, rs) = sizes;
            let build = |engine: &mut BackgroundEngine| {
                engine.push_rebuild(SimTime::ZERO, 0, vec![1, 2], vec![BlockRange::new(0, rb)], 37.0);
                engine.push_migration(SimTime::ZERO, (0..mg).collect(), 23.0);
                engine.push_restripe(SimTime::ZERO, rs, 11.0)
            };
            let mut per_request = BackgroundEngine::new();
            let mut event_clocked = BackgroundEngine::new();
            let stream_a = build(&mut per_request);
            let stream_b = build(&mut event_clocked);
            let mut t_ms = 0u64;
            for &(dt_ms, op, amount, _) in &ops {
                t_ms += dt_ms;
                let now = SimTime::from_millis(t_ms as f64);
                if op == 7 {
                    per_request.forfeit(stream_a, amount);
                    event_clocked.forfeit(stream_b, amount);
                    continue;
                }
                let due = event_clocked.work_due(now);
                let batches_a = per_request.poll(now);
                let done_a = per_request.take_completed();
                if due {
                    let batches_b = event_clocked.poll(now);
                    let done_b = event_clocked.take_completed();
                    prop_assert_eq!(format!("{batches_a:?}"), format!("{batches_b:?}"));
                    prop_assert_eq!(format!("{done_a:?}"), format!("{done_b:?}"));
                } else {
                    prop_assert!(
                        batches_a.is_empty(),
                        "a skipped poll would have issued {:?}",
                        batches_a
                    );
                    prop_assert!(
                        done_a.is_empty(),
                        "a skipped poll would have retired {:?}",
                        done_a
                    );
                }
            }
            prop_assert_eq!(per_request.is_idle(), event_clocked.is_idle());
        }

        /// With a QoS throttle retargeting mid-flight the scaled clocks may
        /// accumulate rounding dust, but pacing still conserves work: both
        /// cadences drain every task and issue the same total blocks.
        #[test]
        fn prop_event_clocked_throttled_conserves_blocks(
            ops in proptest::collection::vec((1u64..4_000, 0u8..4, 1u64..100, any::<bool>()), 1..100),
        ) {
            let total = |batches: &[Batch]| -> u64 {
                batches
                    .iter()
                    .map(|b| match b {
                        Batch::Rebuild { ranges, .. } => ranges.iter().map(|r| r.len()).sum(),
                        Batch::Migration { blocks, .. } => blocks.len() as u64,
                        Batch::Restripe { budget, .. } => *budget,
                    })
                    .sum()
            };
            let build = |engine: &mut BackgroundEngine| {
                engine.attach_throttle(0.1);
                engine.push_rebuild(SimTime::ZERO, 0, vec![1], vec![BlockRange::new(0, 800)], 41.0);
                engine.push_migration(SimTime::ZERO, (0..600).collect(), 17.0);
            };
            let mut per_request = BackgroundEngine::new();
            let mut event_clocked = BackgroundEngine::new();
            build(&mut per_request);
            build(&mut event_clocked);
            let mut issued_a = 0u64;
            let mut issued_b = 0u64;
            let mut t_ms = 0u64;
            for &(dt_ms, op, scale_pct, _) in &ops {
                t_ms += dt_ms;
                let now = SimTime::from_millis(t_ms as f64);
                if op == 3 {
                    per_request.set_throttle(now, scale_pct as f64 / 100.0);
                    event_clocked.set_throttle(now, scale_pct as f64 / 100.0);
                    continue;
                }
                issued_a += total(&per_request.poll(now));
                if event_clocked.work_due(now) {
                    issued_b += total(&event_clocked.poll(now));
                }
            }
            // Drain both at the same far-future instants.
            let mut t = t_ms as f64 + 1_000.0;
            while !(per_request.is_idle() && event_clocked.is_idle()) {
                let now = SimTime::from_millis(t);
                issued_a += total(&per_request.poll(now));
                if event_clocked.work_due(now) {
                    issued_b += total(&event_clocked.poll(now));
                }
                t += 1_000.0;
            }
            prop_assert_eq!(issued_a, 1_400);
            prop_assert_eq!(issued_b, 1_400);
        }
    }
}
