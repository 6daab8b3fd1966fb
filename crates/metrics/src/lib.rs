//! # craid-metrics
//!
//! Streaming statistics used to reproduce the measurements of the CRAID
//! paper's evaluation (FAST '14, §5):
//!
//! * [`StreamingSummary`] — count/mean/min/max/std-dev plus the 95 %
//!   confidence interval the paper attaches to its response-time plots
//!   (Figs. 4 and 6).
//! * [`Quantiles`] — exact percentiles and CDF points (Fig. 5's sequentiality
//!   CDF, Fig. 7's load-balance CDF, the response-time percentiles and
//!   Table 5's concurrently active devices).
//! * [`coefficient_of_variation`] and [`LoadBalanceTracker`] — the per-second
//!   `cv = σ/µ` of per-disk I/O load that §5.3 uses as its load-balance
//!   metric.
//! * [`SequentialityTracker`] — the per-second fraction of physically
//!   sequential device accesses behind Fig. 5, from one last end per device.
//! * [`ConcurrencyTracker`] — per-second count of concurrently active devices
//!   and an exact queue-depth histogram behind Table 5.
//!
//! The device-level trackers are sized by device count at construction and
//! keep no per-I/O state.
//!
//! # Example
//!
//! ```
//! use craid_metrics::StreamingSummary;
//!
//! let mut s = StreamingSummary::new();
//! for v in [1.0, 2.0, 3.0, 4.0] {
//!     s.record(v);
//! }
//! assert_eq!(s.mean(), 2.5);
//! assert_eq!(s.count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrency;
pub mod cv;
pub mod quantiles;
pub mod sequentiality;
pub mod summary;

pub use concurrency::ConcurrencyTracker;
pub use cv::{coefficient_of_variation, LoadBalanceTracker};
pub use quantiles::{nearest_rank, Quantiles};
pub use sequentiality::SequentialityTracker;
pub use summary::StreamingSummary;
