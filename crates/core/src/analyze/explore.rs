//! A small-scope bounded model checker for the scheduler's decision space.
//!
//! The static passes of [`super`] judge a scenario *symbolically*; this
//! module judges it *dynamically*: it projects the scenario onto a small
//! scope (few requests, few events), installs a recording
//! [`Chooser`] and drives the **real**
//! `StorageArray`/`BackgroundEngine`/`MigrationMap` code down every
//! reachable combination of the engine's nondeterministic decision points
//! ([`DecisionPoint`]) — equal-timestamp event orders, fair-share leftover
//! splits, batch-boundary placement, throttle-vs-pump ordering, deferred
//! activation timing — up to a per-run decision budget. After each run the
//! recorded evidence is judged by the [`oracle`](super::oracle) library;
//! the first violating branch is shrunk (events dropped, workload halved)
//! to a minimal reproducer scenario and reported as `CRAID-E4xx`
//! diagnostics in an ordinary [`Analysis`].
//!
//! Exploration is depth-first with sleep-set style pruning: decision sites
//! prove alternatives equivalent to branch 0 where they can (equal-time
//! event groups with disjoint resource footprints are never permuted) and
//! report the skipped branches via [`Exploration::pruned`]. Branch 0 at
//! every site reproduces the pinned production schedule, so the first run
//! of every exploration is exactly the run a plain [`Scenario::run`] would
//! have produced.
//!
//! ```
//! use craid::{explore, ExploreScope, Scenario};
//!
//! let scenario = Scenario::builder().requests(300).small_test().build();
//! let scope = ExploreScope {
//!     max_runs: 32,
//!     ..ExploreScope::default()
//! };
//! let exploration = explore(&scenario, &scope);
//! assert!(exploration.counterexample.is_none(), "{}", exploration.analysis);
//! assert!(exploration.runs >= 1);
//! ```

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Mutex;

use crate::analyze::oracle::{check_all, ConservationLine, RunEvidence};
use crate::analyze::{codes, Analysis, Diagnostic};
use crate::background::TaskKind;
use crate::choice::{self, Chooser, DecisionPoint, Observation};
use crate::scenario::{Scenario, ScenarioOutcome, ScheduledEvent};

/// The exploration bounds: how far the scenario is scaled down and how
/// much of the decision tree is searched. [`ExploreScope::default`] is the
/// scope CI runs the shipped drills under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreScope {
    /// Workload requests the projection clamps the scenario to.
    pub max_requests: u64,
    /// Scheduled events the projection keeps (the first `n`).
    pub max_events: usize,
    /// Decision points that may branch per run; later sites take branch 0.
    pub max_branch_decisions: usize,
    /// Total runs before the search gives up (marks
    /// [`Exploration::truncated`]).
    pub max_runs: usize,
}

impl Default for ExploreScope {
    fn default() -> Self {
        ExploreScope {
            max_requests: 48,
            max_events: 4,
            max_branch_decisions: 12,
            max_runs: 128,
        }
    }
}

impl ExploreScope {
    /// The reduced preset for fast smoke checks (`--explore=quick`).
    pub fn quick() -> Self {
        ExploreScope {
            max_requests: 32,
            max_events: 3,
            max_branch_decisions: 8,
            max_runs: 64,
        }
    }

    /// The enlarged preset for overnight-style searches
    /// (`--explore=wide`).
    pub fn wide() -> Self {
        ExploreScope {
            max_requests: 64,
            max_events: 4,
            max_branch_decisions: 16,
            max_runs: 1_024,
        }
    }

    /// Parses a scope argument: a preset name (`quick`, `default`, `wide`)
    /// and/or comma-separated `key=value` overrides with keys `requests`,
    /// `events`, `decisions`, `runs` — e.g. `quick,runs=64` or
    /// `requests=16,decisions=6`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown key, preset or
    /// unparsable value.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut scope = ExploreScope::default();
        for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part.split_once('=') {
                None => {
                    scope = match part {
                        "quick" => ExploreScope::quick(),
                        "default" => ExploreScope::default(),
                        "wide" => ExploreScope::wide(),
                        other => return Err(format!("unknown explore preset '{other}'")),
                    }
                }
                Some((key, value)) => {
                    let n: u64 = value
                        .parse()
                        .map_err(|e| format!("bad value for '{key}': {e}"))?;
                    match key {
                        "requests" => scope.max_requests = n.max(1),
                        "events" => scope.max_events = n as usize,
                        "decisions" => scope.max_branch_decisions = n as usize,
                        "runs" => scope.max_runs = (n as usize).max(1),
                        other => return Err(format!("unknown explore scope key '{other}'")),
                    }
                }
            }
        }
        Ok(scope)
    }
}

/// One resolved decision on an explored path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// The decision site.
    pub point: DecisionPoint,
    /// The branch taken (`0` is always the production behaviour).
    pub chosen: usize,
    /// How many branches the site offered.
    pub arity: usize,
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}/{}", self.point, self.chosen, self.arity)
    }
}

/// A violating interleaving, minimized: the diagnostics the oracles
/// raised, the decision path that reaches them, and the shrunk reproducer
/// scenario.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violations, in oracle order (a panicking branch appends
    /// [`codes::EXPLORE_PANIC`]).
    pub diagnostics: Vec<Diagnostic>,
    /// The decision path of the violating run over the *reproducer*
    /// scenario (sites beyond the decision budget take branch 0).
    pub path: Vec<Choice>,
    /// The minimized scenario: load it with `scenario_file` (or
    /// [`Scenario::from_toml`]) and explore again to reproduce.
    pub scenario: Scenario,
}

impl Counterexample {
    /// The violated codes, in diagnostic order.
    pub fn codes(&self) -> Vec<&'static str> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// The decision path as a one-line arrow chain
    /// (`event-order:1/2 -> batch-boundary:1/2`), or `production
    /// schedule` when every decision took branch 0.
    pub fn path_string(&self) -> String {
        if self.path.iter().all(|c| c.chosen == 0) {
            return "production schedule (every decision at branch 0)".to_string();
        }
        self.path
            .iter()
            .map(Choice::to_string)
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// Renders the reproducer scenario as a TOML document.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures (never for scenarios built
    /// through the public API).
    pub fn reproducer_toml(&self) -> Result<String, serde::Error> {
        self.scenario.to_toml()
    }
}

/// The result of exploring one scenario.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Static findings plus any `CRAID-E4xx` violations, as one report.
    pub analysis: Analysis,
    /// Runs executed (including the shrinker's re-explorations).
    pub runs: usize,
    /// Runs that ended in a [`CraidError`](crate::CraidError) under a
    /// permuted schedule
    /// (counted, not treated as invariant violations).
    pub errored_runs: usize,
    /// Branches sleep-set pruning proved equivalent and skipped.
    pub pruned: u64,
    /// True when a budget (runs or per-run decisions) cut the search
    /// short of exhaustion.
    pub truncated: bool,
    /// The minimized violating interleaving, when one was found.
    pub counterexample: Option<Counterexample>,
}

impl Exploration {
    /// True when no violation was found (static warnings may remain).
    pub fn is_clean(&self) -> bool {
        self.counterexample.is_none() && !self.analysis.has_errors()
    }
}

/// Explores `scenario` at `scope`.
///
/// Static analysis runs first: a scenario the symbolic passes reject is
/// returned with those findings and zero runs (there is no meaningful
/// schedule to explore). Otherwise the scenario is projected onto the
/// scope (requests clamped, events truncated, observers dropped) and the
/// decision tree is searched depth-first; the first violating branch is
/// shrunk to a minimal reproducer.
pub fn explore(scenario: &Scenario, scope: &ExploreScope) -> Exploration {
    let analysis = scenario.analyze();
    if analysis.has_errors() {
        return Exploration {
            analysis,
            runs: 0,
            errored_runs: 0,
            pruned: 0,
            truncated: false,
            counterexample: None,
        };
    }

    let projected = small_scope_projection(scenario, scope);
    let mut search = Search::new(scope);
    let violation = with_silenced_panics(|| {
        let found = search.run(&projected);
        found.map(|(diagnostics, path)| {
            let (scenario, diagnostics, path) = search.shrink(projected.clone(), diagnostics, path);
            Counterexample {
                diagnostics,
                path,
                scenario,
            }
        })
    });

    let mut analysis = analysis;
    if let Some(counterexample) = &violation {
        analysis
            .diagnostics
            .extend(counterexample.diagnostics.iter().cloned());
    }
    Exploration {
        analysis,
        runs: search.runs,
        errored_runs: search.errored_runs,
        pruned: search.pruned,
        truncated: search.truncated,
        counterexample: violation,
    }
}

/// Projects a scenario onto the scope: requests clamped (base workload and
/// phase swaps), events truncated to the first `max_events`, observers
/// dropped (an exploration must not stream output or write files). If
/// truncation broke the schedule's internal consistency (say, a repair
/// whose failure was cut), the events are dropped entirely — a smaller
/// scope, never an invalid one.
fn small_scope_projection(scenario: &Scenario, scope: &ExploreScope) -> Scenario {
    let mut projected = scenario.clone();
    projected.observers.clear();
    projected.workload.requests = projected.workload.requests.clamp(1, scope.max_requests);
    projected.events.truncate(scope.max_events);
    for event in &mut projected.events {
        if let ScheduledEvent::WorkloadPhase {
            workload: Some(source),
            ..
        } = event
        {
            source.requests = source.requests.clamp(1, scope.max_requests);
        }
    }
    if projected.analyze().has_errors() {
        projected.events.clear();
    }
    projected
}

/// How one explored run ended.
enum RunEnd {
    Completed(Box<ScenarioOutcome>),
    Failed,
    Panicked(String),
}

/// The depth-first searcher: owns the cross-run counters and the
/// backtracking stack discipline.
struct Search {
    scope: ExploreScope,
    runs: usize,
    errored_runs: usize,
    pruned: u64,
    truncated: bool,
}

impl Search {
    fn new(scope: &ExploreScope) -> Self {
        Search {
            scope: *scope,
            runs: 0,
            errored_runs: 0,
            pruned: 0,
            truncated: false,
        }
    }

    /// Searches the decision tree of `scenario` depth-first. Returns the
    /// first violating run's diagnostics and decision path, or `None`
    /// when every explored branch was clean.
    fn run(&mut self, scenario: &Scenario) -> Option<(Vec<Diagnostic>, Vec<Choice>)> {
        let mut prefix: Vec<Choice> = Vec::new();
        loop {
            if self.runs >= self.scope.max_runs {
                self.truncated = true;
                return None;
            }
            self.runs += 1;
            let chooser = Rc::new(RefCell::new(DfsChooser::new(
                prefix,
                self.scope.max_branch_decisions,
            )));
            let end = run_once(scenario, Rc::clone(&chooser));
            let mut recorder = Rc::try_unwrap(chooser)
                .ok()
                .expect("the chooser is uninstalled after the run")
                .into_inner();
            self.pruned += recorder.pruned;
            self.truncated |= recorder.decisions_truncated;

            let diagnostics = match end {
                RunEnd::Completed(outcome) => {
                    finish_evidence(&mut recorder.evidence, &outcome);
                    check_all(&recorder.evidence)
                }
                RunEnd::Failed => {
                    // A permuted schedule the engine rejects outright is an
                    // ordering the production path can never take — count
                    // it, judge whatever evidence accrued, move on.
                    self.errored_runs += 1;
                    check_all(&recorder.evidence)
                }
                RunEnd::Panicked(message) => {
                    let mut diagnostics = check_all(&recorder.evidence);
                    diagnostics.push(
                        Diagnostic::error(
                            codes::EXPLORE_PANIC,
                            "explore",
                            format!("an explored branch panicked: {message}"),
                        )
                        .with_help(
                            "the engine must reject or survive every schedule the decision \
                             points admit; a panic is a soundness hole, not a user error",
                        ),
                    );
                    diagnostics
                }
            };
            if !diagnostics.is_empty() {
                return Some((diagnostics, recorder.path));
            }
            prefix = backtrack(recorder.path)?;
        }
    }

    /// True when re-exploring `scenario` still raises `code` (used by the
    /// shrinker to validate a candidate reduction).
    fn finds(
        &mut self,
        scenario: &Scenario,
        code: &'static str,
    ) -> Option<(Vec<Diagnostic>, Vec<Choice>)> {
        if scenario.analyze().has_errors() {
            return None;
        }
        // Each candidate gets a small run budget of its own: a reduction
        // that *stops* reproducing must not eat the whole remaining global
        // budget re-searching its (now clean) tree.
        let saved = self.scope.max_runs;
        self.scope.max_runs = self.runs + 16;
        let found = self
            .run(scenario)
            .filter(|(diagnostics, _)| diagnostics.iter().any(|d| d.code == code));
        self.scope.max_runs = saved;
        found
    }

    /// Minimizes a violating scenario: greedily drop events, then halve
    /// the workload, as long as re-exploration still finds the primary
    /// (first) violated code. Returns the smallest scenario found with its
    /// diagnostics and path.
    fn shrink(
        &mut self,
        scenario: Scenario,
        diagnostics: Vec<Diagnostic>,
        path: Vec<Choice>,
    ) -> (Scenario, Vec<Diagnostic>, Vec<Choice>) {
        let code = diagnostics[0].code;
        let mut best = (scenario, diagnostics, path);
        let mut attempts = 0usize;
        loop {
            let mut improved = false;
            for index in 0..best.0.events.len() {
                attempts += 1;
                if attempts > 64 {
                    return best;
                }
                let mut candidate = best.0.clone();
                candidate.events.remove(index);
                if let Some((diagnostics, path)) = self.finds(&candidate, code) {
                    best = (candidate, diagnostics, path);
                    improved = true;
                    break;
                }
            }
            if improved {
                continue;
            }
            let halved = (best.0.workload.requests / 2).max(1);
            if halved < best.0.workload.requests {
                attempts += 1;
                if attempts > 64 {
                    return best;
                }
                let mut candidate = best.0.clone();
                candidate.workload.requests = halved;
                if let Some((diagnostics, path)) = self.finds(&candidate, code) {
                    best = (candidate, diagnostics, path);
                    improved = true;
                }
            }
            if !improved {
                return best;
            }
        }
    }
}

/// Pops exhausted trailing decisions and advances the deepest unexhausted
/// one; `None` when the whole tree has been visited.
fn backtrack(mut path: Vec<Choice>) -> Option<Vec<Choice>> {
    loop {
        match path.last_mut() {
            None => return None,
            Some(last) if last.chosen + 1 < last.arity => {
                last.chosen += 1;
                return Some(path);
            }
            Some(_) => {
                path.pop();
            }
        }
    }
}

/// Executes one run of `scenario` under `chooser`, catching panics (a
/// panicking branch is a reportable finding, and the recorded evidence
/// survives in the shared chooser).
fn run_once(scenario: &Scenario, chooser: Rc<RefCell<DfsChooser>>) -> RunEnd {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        choice::with_chooser(chooser, || scenario.run())
    }));
    match outcome {
        Ok(Ok(outcome)) => RunEnd::Completed(Box::new(outcome)),
        Ok(Err(_)) => RunEnd::Failed,
        Err(payload) => RunEnd::Panicked(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Folds the completed run's report into the evidence: the conservation
/// ledger lines the per-poll observations cannot see (final migrated /
/// superseded / pending counts live in [`MigrationStats`]).
///
/// [`MigrationStats`]: crate::report::MigrationStats
fn finish_evidence(evidence: &mut RunEvidence, outcome: &ScenarioOutcome) {
    let stats = &outcome.report.migration;
    let enqueued = |kind: TaskKind| -> u64 {
        evidence
            .enqueued
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, blocks)| blocks)
            .sum()
    };
    let pc = enqueued(TaskKind::ExpansionMigration);
    if pc > 0 {
        evidence.conservation.push(ConservationLine {
            label: "pc-migration",
            enqueued: pc,
            migrated: stats.migrated_blocks,
            superseded: stats.superseded_blocks,
            pending: stats.pending_blocks,
        });
    }
    let archive = enqueued(TaskKind::ArchiveRestripe);
    if archive > 0 {
        // An array without a cache partition reports its restripe on the
        // main line: there it is the upgrade migration.
        let (migrated, superseded, pending) = if outcome.strategy.restripe_is_migration() {
            (
                stats.migrated_blocks,
                stats.superseded_blocks,
                stats.pending_blocks,
            )
        } else {
            (
                stats.archive_migrated_blocks,
                stats.archive_superseded_blocks,
                stats.archive_pending_blocks,
            )
        };
        evidence.conservation.push(ConservationLine {
            label: "archive-restripe",
            enqueued: archive,
            migrated,
            superseded,
            pending,
        });
    }
}

/// The depth-first chooser: replays a fixed prefix of decisions, extends
/// the path with branch 0 beyond it, and records every observation as
/// oracle evidence.
struct DfsChooser {
    path: Vec<Choice>,
    replay: usize,
    depth: usize,
    max_decisions: usize,
    decisions_truncated: bool,
    evidence: RunEvidence,
    pruned: u64,
}

impl DfsChooser {
    fn new(prefix: Vec<Choice>, max_decisions: usize) -> Self {
        DfsChooser {
            replay: prefix.len(),
            path: prefix,
            depth: 0,
            max_decisions,
            decisions_truncated: false,
            evidence: RunEvidence::default(),
            pruned: 0,
        }
    }
}

impl Chooser for DfsChooser {
    fn choose(&mut self, point: DecisionPoint, arity: usize) -> usize {
        let index = self.depth;
        self.depth += 1;
        if index < self.replay {
            // Replay: the run is deterministic given its choices, so the
            // site and arity match the recording; clamp defensively.
            return self.path[index].chosen.min(arity.saturating_sub(1));
        }
        if self.path.len() >= self.max_decisions {
            // Beyond the per-run budget every site takes the production
            // branch (and is not recorded, so backtracking never visits
            // its alternatives).
            self.decisions_truncated = true;
            return 0;
        }
        self.path.push(Choice {
            point,
            chosen: 0,
            arity,
        });
        0
    }

    fn observe(&mut self, observation: Observation) {
        self.evidence.absorb(observation);
    }

    fn prune(&mut self, _point: DecisionPoint, skipped: usize) {
        self.pruned += skipped as u64;
    }
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

/// Silences the process panic hook while explorations are in flight
/// (panicking branches are expected findings, not stderr events), saving
/// and restoring whatever hook was installed. Refcounted: concurrent
/// explorations share one silent window.
fn with_silenced_panics<R>(body: impl FnOnce() -> R) -> R {
    static STATE: Mutex<(usize, Option<PanicHook>)> = Mutex::new((0, None));
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            let mut state = STATE.lock().expect("panic-hook state poisoned");
            state.0 -= 1;
            if state.0 == 0 {
                if let Some(hook) = state.1.take() {
                    std::panic::set_hook(hook);
                }
            }
        }
    }
    {
        let mut state = STATE.lock().expect("panic-hook state poisoned");
        if state.0 == 0 {
            state.1 = Some(std::panic::take_hook());
            std::panic::set_hook(Box::new(|_| {}));
        }
        state.0 += 1;
    }
    let _guard = Guard;
    body()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_parses_presets_and_overrides() {
        assert_eq!(ExploreScope::parse("").unwrap(), ExploreScope::default());
        assert_eq!(ExploreScope::parse("quick").unwrap(), ExploreScope::quick());
        let custom = ExploreScope::parse("wide,runs=99,requests=16").unwrap();
        assert_eq!(custom.max_runs, 99);
        assert_eq!(custom.max_requests, 16);
        assert_eq!(
            custom.max_branch_decisions,
            ExploreScope::wide().max_branch_decisions
        );
        assert!(ExploreScope::parse("bogus").is_err());
        assert!(ExploreScope::parse("runs=abc").is_err());
    }

    #[test]
    fn backtrack_walks_the_tree_in_dfs_order() {
        let choice = |chosen, arity| Choice {
            point: DecisionPoint::EventOrder,
            chosen,
            arity,
        };
        // Path [0/2, 1/2]: the deepest decision is exhausted, the shallow
        // one advances and the tail is dropped.
        let next = backtrack(vec![choice(0, 2), choice(1, 2)]).unwrap();
        assert_eq!(next, vec![choice(1, 2)]);
        // Everything exhausted: the search is done.
        assert!(backtrack(vec![choice(1, 2)]).is_none());
        assert!(backtrack(Vec::new()).is_none());
    }

    #[test]
    fn path_string_names_the_decisions_or_the_production_schedule() {
        let choice = |chosen| Choice {
            point: DecisionPoint::EventOrder,
            chosen,
            arity: 2,
        };
        let mut cx = Counterexample {
            diagnostics: Vec::new(),
            path: vec![choice(0), choice(0)],
            scenario: Scenario::builder().small_test().build(),
        };
        assert!(cx.path_string().starts_with("production schedule"));
        cx.path[1] = choice(1);
        assert_eq!(cx.path_string(), "event-order:0/2 -> event-order:1/2");
    }

    #[test]
    fn static_errors_short_circuit_exploration() {
        let mut scenario = Scenario::builder().requests(100).small_test().build();
        scenario.workload.requests = 0;
        let exploration = explore(&scenario, &ExploreScope::default());
        assert_eq!(exploration.runs, 0);
        assert!(exploration.analysis.has_errors());
        assert!(exploration.counterexample.is_none());
    }

    /// The overlap that tripped the original stale-generation bug: two
    /// pipelined expansions on an aggregated archive, migration paced slow
    /// enough that the first generation's move sets are still queued when
    /// the second generation repopulates the map.
    fn stale_generation_scenario() -> Scenario {
        Scenario::builder()
            .name("stale generation collision")
            .strategy(crate::config::StrategyKind::Craid5Plus)
            .small_test()
            .workload(craid_trace::WorkloadId::Wdev)
            .requests(48)
            .seed(7)
            .pc_fraction(0.5)
            .migration_rate(8.0)
            .expand_at(craid_simkit::SimTime::from_secs(1.0), 4)
            .expand_at(craid_simkit::SimTime::from_secs(13.0), 4)
            .build()
    }

    /// Mutation check: PR 4's stale-generation guard, removed via the
    /// test-only fault hook, must be caught by the model checker — and the
    /// counterexample must shrink to a small-scope reproducer.
    #[test]
    fn explore_catches_the_resurrected_stale_generation_bug() {
        let scenario = stale_generation_scenario();
        // With the guard in place the same scenario explores clean — the
        // oracle fires on the mutation, not on the scenario.
        let clean = explore(&scenario, &ExploreScope::quick());
        assert!(
            clean.is_clean(),
            "guarded run was not clean: {:?}",
            clean.analysis
        );

        let exploration = crate::choice::faults::with_stale_generation_guard_disabled(|| {
            explore(&scenario, &ExploreScope::default())
        });
        assert!(!exploration.is_clean());
        let counterexample = exploration
            .counterexample
            .expect("the mutation must produce a counterexample");
        assert!(
            counterexample
                .codes()
                .contains(&codes::GENERATION_MONOTONIC),
            "expected {} in {:?}",
            codes::GENERATION_MONOTONIC,
            counterexample.codes()
        );
        assert!(
            counterexample.scenario.events.len() <= 4,
            "shrinker left {} events",
            counterexample.scenario.events.len()
        );
        eprintln!(
            "shrunken reproducer:\n{}",
            counterexample.reproducer_toml().expect("serializes")
        );
    }

    /// The shipped reproducer is the shrunken counterexample of the test
    /// above: statically clean (the bug is an interleaving, not a config
    /// error), caught dynamically the moment the guard is gone.
    #[test]
    fn shipped_stale_generation_reproducer_is_golden() {
        let text =
            include_str!("../../../../examples/scenarios/invalid/stale_generation_collision.toml");
        let scenario = Scenario::from_toml(text).expect("reproducer parses");
        assert!(
            !scenario.analyze().has_errors(),
            "reproducer must be statically clean"
        );
        let exploration = crate::choice::faults::with_stale_generation_guard_disabled(|| {
            explore(&scenario, &ExploreScope::default())
        });
        let counterexample = exploration
            .counterexample
            .expect("the reproducer must still reproduce");
        assert!(counterexample
            .codes()
            .contains(&codes::GENERATION_MONOTONIC));
    }

    /// An array without a cache partition reports its restripe on the
    /// main migration line; the conservation oracle must read it there
    /// instead of finding an empty `archive_*` line (a false E402).
    #[test]
    fn paced_raid5_restripe_explores_clean() {
        let scenario = Scenario::builder()
            .name("paced raid5 restripe")
            .strategy(crate::config::StrategyKind::Raid5)
            .small_test()
            .pc_fraction(0.2)
            .workload(craid_trace::WorkloadId::Wdev)
            .requests(200)
            .seed(3)
            .migration_rate(400.0)
            .expand_at(craid_simkit::SimTime::from_secs(1.0), 4)
            .build();
        let exploration = explore(&scenario, &ExploreScope::default());
        assert!(
            exploration.is_clean(),
            "paced RAID-5 restripe was not clean: {}",
            exploration.analysis
        );
        assert!(exploration.runs > 1, "the schedule was explored");
    }

    #[test]
    fn projection_clamps_and_stays_valid() {
        let mut scenario = Scenario::builder().requests(5_000).small_test().build();
        scenario.events = vec![
            ScheduledEvent::DiskFailure {
                at: craid_simkit::SimTime::from_secs(1.0),
                disk: 0,
            },
            ScheduledEvent::DiskRepair {
                at: craid_simkit::SimTime::from_secs(2.0),
                disk: 0,
            },
        ];
        let scope = ExploreScope {
            max_events: 1, // cuts the repair's failure context
            ..ExploreScope::default()
        };
        let projected = small_scope_projection(&scenario, &scope);
        assert_eq!(projected.workload.requests, scope.max_requests);
        // Keeping only the failure is fine (a failure needs no repair) —
        // but if we invert the order, truncation would strand the repair
        // and the projection must fall back to an event-free scope.
        assert_eq!(projected.events.len(), 1);
        let mut inverted = scenario.clone();
        inverted.events.reverse();
        let projected = small_scope_projection(&inverted, &scope);
        assert!(projected.events.is_empty());
        assert!(!projected.analyze().has_errors());
    }
}
