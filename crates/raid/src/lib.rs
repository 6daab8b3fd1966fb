//! # craid-raid
//!
//! Block-level RAID layouts and the I/O planning machinery used by the CRAID
//! simulator (FAST '14 reproduction).
//!
//! The paper's evaluation compares six allocation policies (its Fig. 3); the
//! layouts they are built from live here:
//!
//! * [`Raid0Layout`] — plain rotating stripes, no redundancy. No strategy
//!   builds it (every cache partition is RAID-5); it is the simplest layout
//!   the reshape, planner and layout-contract tests exercise.
//! * [`Raid5Layout`] — RAID-5 with *parity groups*: stripes span every disk
//!   but parity rotates independently inside each group of `G` disks
//!   (Fig. 3a), bounding the fault domain while keeping full parallelism.
//! * [`Raid5PlusLayout`] — "RAID-5+": the aggregation of several independent
//!   RAID-5 sets produced by repeated capacity upgrades (Fig. 3b). Each set
//!   keeps its own (short) stripe width, which is why the paper finds its
//!   performance and load balance inferior to an ideally restriped RAID-5.
//!
//! On top of a [`Layout`], [`planner::IoPlanner`] turns logical requests into
//! per-device physical I/Os, including RAID-5 read-modify-write parity
//! updates (the 4-I/O penalty the paper charges for dirty evictions) and the
//! full-stripe write optimization.
//!
//! [`reshape`] implements the upgrade-cost baselines CRAID is compared
//! against: full round-robin restriping and minimal-migration rebalancing.
//!
//! # Example
//!
//! ```
//! use craid_raid::{Layout, Raid5Layout};
//!
//! // 8 disks, parity groups of 4, 2-block stripe units, 64 blocks per disk.
//! let layout = Raid5Layout::new(8, 4, 2, 64).unwrap();
//! let loc = layout.locate(0);
//! assert_eq!(loc.disk, 0);
//! let parity = layout.parity_for(0).unwrap();
//! assert_ne!(parity.disk, loc.disk);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layout;
pub mod planner;
pub mod raid0;
pub mod raid5;
pub mod raid5plus;
pub mod reshape;
pub mod types;

pub use layout::Layout;
pub use planner::{IoPlanner, PlanBuffers, PlannedIo};
pub use raid0::Raid0Layout;
pub use raid5::Raid5Layout;
pub use raid5plus::Raid5PlusLayout;
pub use reshape::{
    migration_runs, migration_stream, minimal_migration_blocks, round_robin_migration_blocks,
    ExpansionSchedule, MigrationUnit,
};
pub use types::{DiskBlock, IoPurpose, LayoutError};
