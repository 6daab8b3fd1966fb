//! # craid-simkit
//!
//! Deterministic simulation primitives used by the CRAID storage simulator
//! (a reproduction of the FAST '14 paper *"CRAID: Online RAID Upgrades Using
//! Dynamic Hot Data Reorganization"*). The simulator's replay is driven by
//! trace records, so the kernel needs no event queue of its own; it provides
//! two things:
//!
//! * [`SimTime`] / [`SimDuration`] — fixed-point simulated time (nanosecond
//!   resolution) with total ordering, so request ordering is reproducible
//!   across runs and platforms (no floating-point tie ambiguity).
//! * [`SimRng`] and the [`dist`] module — seeded random-number plumbing and
//!   the small set of distributions the workload generators need (Zipf,
//!   exponential, Pareto-ish burst lengths).
//!
//! # Example
//!
//! ```
//! use craid_simkit::{SimDuration, SimTime};
//!
//! let arrival = SimTime::from_millis(2.0);
//! let finished = arrival + SimDuration::from_micros(750.0);
//! assert!(finished > arrival);
//! assert_eq!(finished.saturating_since(arrival).as_micros(), 750.0);
//! assert_eq!(arrival.saturating_since(finished), SimDuration::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod rng;
pub mod time;

pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
