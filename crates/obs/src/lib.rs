//! Deterministic observability for the CRAID simulator.
//!
//! Everything in this crate is stamped with the *simulation clock*
//! ([`SimTime`](craid_simkit::SimTime)), never the host clock, so a traced
//! run is as reproducible as an untraced one: replaying the same scenario
//! twice produces byte-identical trace files.
//!
//! The crate has three pieces:
//!
//! * [`Tracer`] — a bounded ring buffer of virtual-time [`TraceEvent`]s
//!   (spans and instants across the [`SpanCategory`] lanes), installed
//!   thread-locally via [`with_tracer`] so subsystems emit through the
//!   free functions ([`emit`], [`set_now`]) without threading a handle
//!   everywhere. With no tracer installed every hook is a single
//!   thread-local flag test and builds nothing.
//! * exporters ([`Trace::to_chrome_json`], [`Trace::to_jsonl`]) — the
//!   Chrome trace-event format (loadable in Perfetto / `chrome://tracing`)
//!   and a compact JSONL stream.
//! * [`MetricsRegistry`] — named counters / gauges / histograms (the
//!   histograms reuse [`craid_metrics::Quantiles`]) that snapshot
//!   deterministically (sorted by name) into an [`ObsSnapshot`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod registry;
mod tracer;

pub use export::TraceFormat;
pub use registry::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot, ObsSnapshot};
pub use tracer::{
    active, counter_add, emit, gauge_set, histogram_record, set_now, with_tracer, ArgValue,
    SpanCategory, Trace, TraceEvent, Tracer, DEFAULT_CAPACITY,
};
