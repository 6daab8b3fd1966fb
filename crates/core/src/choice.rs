//! Scheduler decision-point hooks for the small-scope model checker.
//!
//! The replay loop and the background engine are deterministic, but several
//! of their tie-breaks are *policies*, not laws: equal-timestamp events
//! apply in declaration order, the fair-share leftover refill starts at the
//! queue head, a poll issues its whole allocation in one batch, the QoS
//! controller evaluates ahead of the pump, and an eligible deferred
//! expansion activates on the very pump that unblocks it. A real system
//! racing these decisions could take any of the alternatives, so the
//! invariants the simulator leans on must hold across *all* of them.
//!
//! This module is the seam that makes those alternatives explorable. Each
//! decision site calls `choose` with a [`DecisionPoint`] and an arity;
//! with no chooser installed (the production path, [`NoopChooser`]
//! semantics) the call returns `0` and every site is written so that branch
//! `0` reproduces the pinned byte-identical behaviour. The model checker
//! ([`crate::analyze::explore`]) installs a recording chooser via
//! [`with_chooser`] and drives the run down every reachable branch,
//! while the sites additionally publish [`Observation`]s — poll budgets,
//! throttle retargets, migration-map consumptions — that the
//! [`InvariantOracle`](crate::analyze::oracle::InvariantOracle) library
//! checks after each run.
//!
//! The hooks are thread-local: a chooser installed by the model checker on
//! its own thread never leaks into parallel [`Campaign`](crate::Campaign)
//! workers, and the default path costs one thread-local flag test per site.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::background::TaskKind;

/// A nondeterministic decision site the model checker can steer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DecisionPoint {
    /// Which of the remaining equal-timestamp events applies next.
    EventOrder,
    /// Which hungry task the work-conserving leftover refill starts at.
    FairShareLeftover,
    /// Whether a poll places the batch boundary early (issues only half of
    /// the task's allocation, deferring the rest to the next poll).
    BatchBoundary,
    /// Whether the background pump runs ahead of the QoS control decision.
    ThrottlePumpOrder,
    /// Whether an eligible deferred activation holds for one more pump.
    ActivationTiming,
}

impl DecisionPoint {
    /// Short stable label used when rendering counterexample paths.
    pub fn label(self) -> &'static str {
        match self {
            DecisionPoint::EventOrder => "event-order",
            DecisionPoint::FairShareLeftover => "leftover-start",
            DecisionPoint::BatchBoundary => "batch-boundary",
            DecisionPoint::ThrottlePumpOrder => "pump-vs-throttle",
            DecisionPoint::ActivationTiming => "activation-hold",
        }
    }
}

impl fmt::Display for DecisionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One per-task lane of a [`Observation::Poll`]: what the task's pace
/// demanded and what the fair-share split granted it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PollLane {
    /// The task's kind (the fair shares are keyed by it).
    pub kind: TaskKind,
    /// Blocks the task's pace demanded this poll.
    pub want: u64,
    /// Blocks the split granted it.
    pub granted: u64,
}

/// A checkable fact a decision site publishes while a chooser is installed.
///
/// Observations are the evidence stream the
/// [`InvariantOracle`](crate::analyze::oracle::InvariantOracle) library
/// judges; on the production path (no chooser) none are built.
#[derive(Debug, Clone, PartialEq)]
pub enum Observation {
    /// One engine poll's budget arithmetic: the throttle-scaled cap, the
    /// combined demand, and every live task's want/granted pair.
    Poll {
        /// The poll's combined issue budget.
        cap: u64,
        /// Total blocks demanded across live tasks.
        total_due: u64,
        /// Per-task demand and grant.
        lanes: Vec<PollLane>,
    },
    /// A throttle retarget as the engine accepted it.
    Throttle {
        /// The clamped scale now in effect.
        scale: f64,
        /// The attached floor.
        floor: f64,
    },
    /// A move set was enqueued on the background engine (the "enqueued"
    /// side of the block-conservation ledger).
    MoveSetEnqueued {
        /// The task class the work was enqueued under.
        kind: TaskKind,
        /// Blocks of work enqueued.
        blocks: u64,
    },
    /// A migration task consumed a pending-map entry.
    MigrationApply {
        /// The archive block that was consumed.
        block: u64,
        /// The generation the map entry belonged to.
        entry_generation: u64,
        /// The generation of the task that consumed it.
        task_generation: u64,
    },
    /// A block was found both pending migration and resident in the cache
    /// partition at a pump boundary.
    Colocated {
        /// The offending archive block.
        block: u64,
    },
    /// The end-of-trace drain gave up after exceeding its pump bound.
    DrainAborted {
        /// Pumps executed before bailing.
        pumps: u64,
    },
}

/// Maximum end-of-trace drain pumps the model checker tolerates before the
/// drain is declared non-terminating (the production path has no bound —
/// its pacing arithmetic guarantees termination).
pub const DRAIN_PUMP_BOUND: u64 = 20_000;

/// A policy for resolving decision points: given a site and its arity,
/// pick a branch in `0..arity`. Branch `0` is always the production
/// behaviour.
///
/// ```
/// use craid::choice::{Chooser, DecisionPoint, NoopChooser};
///
/// let mut noop = NoopChooser;
/// assert_eq!(noop.choose(DecisionPoint::EventOrder, 3), 0);
/// ```
pub trait Chooser {
    /// Picks a branch in `0..arity` for this decision site.
    fn choose(&mut self, point: DecisionPoint, arity: usize) -> usize;

    /// Receives a published [`Observation`]. Default: ignored.
    fn observe(&mut self, observation: Observation) {
        let _ = observation;
    }

    /// Notes that a site pruned `skipped` equivalent alternatives
    /// (sleep-set reduction). Default: ignored.
    fn prune(&mut self, point: DecisionPoint, skipped: usize) {
        let _ = (point, skipped);
    }
}

/// The production policy: always branch `0`. Installing it is equivalent to
/// installing nothing — every site reproduces the pinned behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopChooser;

impl Chooser for NoopChooser {
    fn choose(&mut self, _point: DecisionPoint, _arity: usize) -> usize {
        0
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Box<dyn Chooser>>> = const { RefCell::new(None) };
    static INSTALLED: Cell<bool> = const { Cell::new(false) };
}

/// True while a chooser is installed on this thread. Sites use it to skip
/// building observations on the production path.
pub(crate) fn active() -> bool {
    INSTALLED.get()
}

/// Resolves a decision site: branch `0` with no chooser installed or a
/// degenerate arity, the installed chooser's pick (clamped into range)
/// otherwise.
pub(crate) fn choose(point: DecisionPoint, arity: usize) -> usize {
    if arity <= 1 || !INSTALLED.get() {
        return 0;
    }
    ACTIVE.with(|slot| match slot.borrow_mut().as_mut() {
        Some(chooser) => chooser.choose(point, arity).min(arity - 1),
        None => 0,
    })
}

/// Publishes an observation to the installed chooser, building it lazily so
/// the production path pays nothing beyond the flag test.
pub(crate) fn observe(build: impl FnOnce() -> Observation) {
    if !INSTALLED.get() {
        return;
    }
    ACTIVE.with(|slot| {
        if let Some(chooser) = slot.borrow_mut().as_mut() {
            chooser.observe(build());
        }
    });
}

/// Notes a sleep-set style reduction at a site (alternatives provably
/// equivalent to branch `0` were not offered).
pub(crate) fn prune(point: DecisionPoint, skipped: usize) {
    if skipped == 0 || !INSTALLED.get() {
        return;
    }
    ACTIVE.with(|slot| {
        if let Some(chooser) = slot.borrow_mut().as_mut() {
            chooser.prune(point, skipped);
        }
    });
}

/// Clears the installed chooser even if the guarded closure panics (the
/// model checker treats a panicking branch as a reportable violation, so
/// the thread outlives it).
struct InstallGuard;

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ACTIVE.with(|slot| *slot.borrow_mut() = None);
        INSTALLED.set(false);
    }
}

/// Runs `body` with `chooser` installed as this thread's decision policy,
/// then uninstalls it. The chooser is shared — keep a clone of the `Rc` to
/// inspect what it recorded afterwards.
///
/// # Panics
///
/// Panics if a chooser is already installed on this thread (nested
/// explorations are not supported).
pub fn with_chooser<C: Chooser + 'static, R>(
    chooser: Rc<RefCell<C>>,
    body: impl FnOnce() -> R,
) -> R {
    assert!(
        !INSTALLED.get(),
        "a decision chooser is already installed on this thread"
    );
    struct Shared<C>(Rc<RefCell<C>>);
    impl<C: Chooser> Chooser for Shared<C> {
        fn choose(&mut self, point: DecisionPoint, arity: usize) -> usize {
            self.0.borrow_mut().choose(point, arity)
        }
        fn observe(&mut self, observation: Observation) {
            self.0.borrow_mut().observe(observation);
        }
        fn prune(&mut self, point: DecisionPoint, skipped: usize) {
            self.0.borrow_mut().prune(point, skipped);
        }
    }
    ACTIVE.with(|slot| *slot.borrow_mut() = Some(Box::new(Shared(chooser))));
    INSTALLED.set(true);
    let _guard = InstallGuard;
    body()
}

/// Test-only fault hooks: switches that resurrect fixed bugs so the model
/// checker's detection power can be pinned by regression tests. Compiled
/// out of release and non-test builds entirely.
#[cfg(test)]
pub(crate) mod faults {
    use std::cell::Cell;

    thread_local! {
        static STALE_GENERATION_GUARD_DISABLED: Cell<bool> = const { Cell::new(false) };
    }

    /// True while the stale-generation guard of
    /// `CraidArray::apply_migration_batch` is disabled on this thread.
    pub(crate) fn stale_generation_guard_disabled() -> bool {
        STALE_GENERATION_GUARD_DISABLED.with(Cell::get)
    }

    /// Runs `body` with PR 4's stale-generation block-collision bug
    /// re-opened: a migration task may consume pending-map entries of any
    /// generation, not just its own.
    pub(crate) fn with_stale_generation_guard_disabled<R>(body: impl FnOnce() -> R) -> R {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                STALE_GENERATION_GUARD_DISABLED.with(|f| f.set(false));
            }
        }
        STALE_GENERATION_GUARD_DISABLED.with(|f| f.set(true));
        let _reset = Reset;
        body()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        calls: Vec<(DecisionPoint, usize)>,
        observations: Vec<Observation>,
        pruned: usize,
    }

    impl Chooser for Recorder {
        fn choose(&mut self, point: DecisionPoint, arity: usize) -> usize {
            self.calls.push((point, arity));
            arity - 1
        }
        fn observe(&mut self, observation: Observation) {
            self.observations.push(observation);
        }
        fn prune(&mut self, _point: DecisionPoint, skipped: usize) {
            self.pruned += skipped;
        }
    }

    #[test]
    fn bare_thread_resolves_to_branch_zero() {
        assert!(!active());
        assert_eq!(choose(DecisionPoint::EventOrder, 5), 0);
        // Observations are not built without a chooser.
        observe(|| unreachable!("no chooser installed"));
        prune(DecisionPoint::EventOrder, 3);
    }

    #[test]
    fn installed_chooser_steers_and_records() {
        let recorder = Rc::new(RefCell::new(Recorder::default()));
        with_chooser(recorder.clone(), || {
            assert!(active());
            assert_eq!(choose(DecisionPoint::BatchBoundary, 2), 1);
            // Degenerate arity never reaches the chooser.
            assert_eq!(choose(DecisionPoint::BatchBoundary, 1), 0);
            observe(|| Observation::Colocated { block: 7 });
            prune(DecisionPoint::EventOrder, 5);
        });
        assert!(!active());
        let recorder = recorder.borrow();
        assert_eq!(recorder.calls, vec![(DecisionPoint::BatchBoundary, 2)]);
        assert_eq!(
            recorder.observations,
            vec![Observation::Colocated { block: 7 }]
        );
        assert_eq!(recorder.pruned, 5);
        // Uninstalled again: back to branch zero.
        assert_eq!(choose(DecisionPoint::BatchBoundary, 2), 0);
    }

    #[test]
    fn out_of_range_picks_are_clamped() {
        struct Wild;
        impl Chooser for Wild {
            fn choose(&mut self, _point: DecisionPoint, _arity: usize) -> usize {
                usize::MAX
            }
        }
        let wild = Rc::new(RefCell::new(Wild));
        with_chooser(wild, || {
            assert_eq!(choose(DecisionPoint::EventOrder, 3), 2);
        });
    }

    #[test]
    fn guard_uninstalls_on_panic() {
        let recorder = Rc::new(RefCell::new(Recorder::default()));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_chooser(recorder, || panic!("branch blew up"));
        }));
        assert!(result.is_err());
        assert!(!active(), "a panicking branch must not leak the chooser");
    }

    #[test]
    fn stale_generation_fault_is_scoped_to_its_body() {
        use faults::{
            stale_generation_guard_disabled as off, with_stale_generation_guard_disabled,
        };
        assert!(!off() && with_stale_generation_guard_disabled(off));
        let panicked =
            std::panic::catch_unwind(|| with_stale_generation_guard_disabled(|| panic!()));
        assert!(panicked.is_err() && !off(), "a panic leaked the fault");
    }
}
