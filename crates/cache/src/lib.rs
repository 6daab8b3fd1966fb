//! # craid-cache
//!
//! Replacement policies for CRAID's cache partition.
//!
//! The paper's I/O monitor (§4.1) supports five "simple, controller-friendly"
//! policies and selects the victim block whenever the cache partition (PC) is
//! full:
//!
//! * [`LruPolicy`] — Least Recently Used.
//! * [`LfudaPolicy`] — Least Frequently Used with Dynamic Aging, key
//!   `K_i = C_i·F_i + L`.
//! * [`GdsfPolicy`] — Greedy-Dual-Size with Frequency, key
//!   `K_i = C_i·F_i / S_i + L` (the request size term is what makes it lose
//!   badly in the paper's Table 2/3).
//! * [`ArcPolicy`] — Adaptive Replacement Cache, self-tuning between recency
//!   and frequency using ghost lists.
//! * [`WlruPolicy`] — Weighted LRU: scan at most `⌈k·w⌉` entries from the LRU
//!   end for a *clean* victim before falling back to plain LRU. Preferred by
//!   the paper (with `w = 0.5`) because clean evictions avoid the 4-I/O
//!   parity write-back.
//!
//! All policies implement [`ReplacementPolicy`], whose one method records an
//! access and reports the eviction it caused, and are exercised identically
//! by the Table 2 / Table 3 experiments. Policies decide residency only: the
//! array's mapping cache keeps each cached copy's dirty bit and charges the
//! write-back of a dirty victim. [`AccessMeta::is_write`] feeds WLRU's
//! clean-first choice, so WLRU is the one policy that tracks dirtiness.
//!
//! The policies are asked about every block of every request, so their
//! per-block state avoids ordered maps: [`BlockMap`], a deterministic
//! open-addressed table from block id to a small value, finds a block's
//! node in a slab, and LRU, ARC and WLRU chain those nodes by `u32` index
//! into their recency lists. The I/O monitor keeps its heat counts and
//! mapping cache in the same kind of table.
//!
//! # Example
//!
//! ```
//! use craid_cache::{AccessMeta, AccessOutcome, PolicyKind, ReplacementPolicy};
//!
//! let mut policy = PolicyKind::Arc.build(2);
//! let meta = AccessMeta::read(1);
//! assert!(matches!(policy.access(10, meta), AccessOutcome::Inserted));
//! assert!(matches!(policy.access(10, meta), AccessOutcome::Hit));
//! assert!(matches!(policy.access(11, meta), AccessOutcome::Inserted));
//! // The cache is full now; a third distinct block evicts someone.
//! assert!(matches!(policy.access(12, meta), AccessOutcome::InsertedWithEviction(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arc;
pub mod block_map;
pub mod keyed;
pub mod lru;
pub mod policy;

pub use arc::ArcPolicy;
pub use block_map::BlockMap;
pub use keyed::{GdsfPolicy, LfudaPolicy};
pub use lru::{LruPolicy, WlruPolicy};
pub use policy::{AccessMeta, AccessOutcome, PolicyKind, ReplacementPolicy};
