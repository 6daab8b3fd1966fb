//! Wall-clock profiling hooks for the replay loop.
//!
//! **This module is the one deliberate wall-clock island in the
//! observability layer** (grandfathered under the `wall-clock` rule in
//! `crates/xtask/lint.allow`): it measures where *host* time goes inside
//! the replay loop — mapping, redirect/submit, background pump, metrics
//! fold, QoS control — so `replay_throughput` can publish a per-stage
//! breakdown next to its events/sec headline. Nothing here ever feeds back into simulated
//! behaviour: stage timings are collected on the side and read out after a
//! run, so enabling the profiler cannot change a report byte.
//!
//! The hooks follow the same thread-local install pattern as the tracer:
//! disabled (the default) they cost one thread-local flag test per stage
//! entry, and the replay loop never touches `std::time` itself.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// The replay-loop stages the profiler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Logical-to-physical mapping (`ArrayMapper::map_into`).
    Mapping,
    /// Request submission through the redirector and device models.
    Redirect,
    /// Background-engine pumping (poll, batches, completions).
    Pump,
    /// Per-request metrics and observer folding.
    MetricsFold,
    /// The QoS controller's decisions, observations and maintenance
    /// accounting, plus the throttle retargets they cause.
    Qos,
}

impl Stage {
    /// Every stage, in replay-loop order.
    pub const ALL: [Stage; 5] = [
        Stage::Mapping,
        Stage::Redirect,
        Stage::Pump,
        Stage::MetricsFold,
        Stage::Qos,
    ];

    /// The stable serialized name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Mapping => "mapping",
            Stage::Redirect => "redirect",
            Stage::Pump => "pump",
            Stage::MetricsFold => "metrics_fold",
            Stage::Qos => "qos",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Mapping => 0,
            Stage::Redirect => 1,
            Stage::Pump => 2,
            Stage::MetricsFold => 3,
            Stage::Qos => 4,
        }
    }
}

/// One stage's accumulated wall time over a profiled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSample {
    /// The stage name (see [`Stage::name`]).
    pub stage: String,
    /// Wall-clock seconds spent inside the stage.
    pub secs: f64,
    /// Times the stage was entered.
    pub hits: u64,
}

#[derive(Clone, Copy, Default)]
struct StageAccum {
    nanos: u128,
    hits: u64,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STAGES: RefCell<[StageAccum; 5]> = const { RefCell::new([StageAccum { nanos: 0, hits: 0 }; 5]) };
}

/// Enables stage timing on this thread (and resets any prior accumulation).
pub fn enable() {
    STAGES.with(|stages| *stages.borrow_mut() = Default::default());
    ENABLED.set(true);
}

/// True while stage timing is enabled on this thread.
pub fn enabled() -> bool {
    ENABLED.get()
}

/// Disables stage timing and returns the per-stage breakdown accumulated
/// since [`enable`], in [`Stage::ALL`] order.
pub fn take() -> Vec<StageSample> {
    ENABLED.set(false);
    STAGES.with(|stages| {
        let snapshot = std::mem::take(&mut *stages.borrow_mut());
        Stage::ALL
            .iter()
            .map(|&stage| {
                let accum = snapshot[stage.index()];
                StageSample {
                    stage: stage.name().to_string(),
                    secs: accum.nanos as f64 / 1e9,
                    hits: accum.hits,
                }
            })
            .collect()
    })
}

/// Times one stage entry: keep the guard alive for the duration of the
/// stage. Returns a no-op guard (one flag test, no clock read) while the
/// profiler is disabled.
///
/// ```
/// use craid_obs::profile::{self, Stage};
///
/// profile::enable();
/// {
///     let _guard = profile::timer(Stage::Mapping);
///     // ... stage body ...
/// }
/// let breakdown = profile::take();
/// assert_eq!(breakdown[0].stage, "mapping");
/// assert_eq!(breakdown[0].hits, 1);
/// ```
pub fn timer(stage: Stage) -> StageGuard {
    StageGuard {
        stage,
        started: ENABLED.get().then(Instant::now),
    }
}

/// The RAII guard [`timer`] returns; dropping it credits the elapsed wall
/// time to its stage.
pub struct StageGuard {
    stage: Stage,
    started: Option<Instant>,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        let elapsed = started.elapsed().as_nanos();
        STAGES.with(|stages| {
            let accum = &mut stages.borrow_mut()[self.stage.index()];
            accum.nanos += elapsed;
            accum.hits += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timers_accumulate_nothing() {
        assert!(!enabled());
        drop(timer(Stage::Pump));
        let breakdown = take();
        assert_eq!(breakdown.len(), 5);
        assert!(breakdown.iter().all(|s| s.hits == 0));
    }

    #[test]
    fn enabled_timers_count_hits_and_time() {
        enable();
        assert!(enabled());
        for _ in 0..3 {
            let _guard = timer(Stage::Mapping);
        }
        {
            let _guard = timer(Stage::MetricsFold);
            std::hint::black_box(0u64);
        }
        for _ in 0..2 {
            let _guard = timer(Stage::Qos);
        }
        let breakdown = take();
        assert!(!enabled(), "take() disables the profiler");
        let mapping = &breakdown[Stage::Mapping.index()];
        assert_eq!(mapping.stage, "mapping");
        assert_eq!(mapping.hits, 3);
        let fold = &breakdown[Stage::MetricsFold.index()];
        assert_eq!(fold.hits, 1);
        assert!(fold.secs >= 0.0);
        let qos = &breakdown[Stage::Qos.index()];
        assert_eq!(qos.stage, "qos");
        assert_eq!(qos.hits, 2);
        assert_eq!(
            breakdown
                .iter()
                .map(|s| s.stage.as_str())
                .collect::<Vec<_>>(),
            ["mapping", "redirect", "pump", "metrics_fold", "qos"]
        );
        // A second take() starts from a clean slate.
        enable();
        let breakdown = take();
        assert!(breakdown.iter().all(|s| s.hits == 0));
    }
}
