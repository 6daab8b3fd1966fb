//! First-class invariant oracles over a run's evidence.
//!
//! The correctness claims this reproduction leans on — no block lost or
//! double-mapped mid-reshape, fair-share budgets conserved, generations
//! never regressing, throttles clamped, drains terminating — used to live
//! as hand-rolled assertions scattered across individual property tests.
//! This module lifts each claim into an [`InvariantOracle`] that judges a
//! [`RunEvidence`], so the proptests in `tests/` and the small-scope model
//! checker ([`super::explore`]) share one implementation: an invariant
//! tightened here tightens every harness at once.
//!
//! Evidence is deliberately plain data. The model checker assembles it from
//! the [`Observation`] stream its chooser
//! records plus the run's final report; a property test builds exactly the
//! slices it can see and leaves the rest empty (an oracle never fires on
//! evidence it was not given).
//!
//! ```
//! use craid::analyze::oracle::{all_oracles, check_all, ConservationLine, RunEvidence};
//!
//! let mut evidence = RunEvidence::default();
//! evidence.conservation.push(ConservationLine {
//!     label: "pc-migration",
//!     enqueued: 10,
//!     migrated: 6,
//!     superseded: 3,
//!     pending: 1,
//! });
//! assert!(check_all(&evidence).is_empty());
//! assert_eq!(all_oracles().len(), 6);
//! ```

use crate::analyze::{codes, Diagnostic};
use crate::background::TaskKind;
use crate::choice::{Observation, PollLane, DRAIN_PUMP_BOUND};

/// One block-accounting ledger line: everything enqueued for a paced move
/// set must end migrated, superseded or still pending — never lost, never
/// counted twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConservationLine {
    /// Which move set the line accounts for (`"pc-migration"`,
    /// `"archive-restripe"`, ...).
    pub label: &'static str,
    /// Blocks enqueued in total.
    pub enqueued: u64,
    /// Blocks the background engine moved.
    pub migrated: u64,
    /// Blocks client traffic superseded.
    pub superseded: u64,
    /// Blocks still pending at the end of the run.
    pub pending: u64,
}

/// The evidence one run leaves behind, judged by the [`InvariantOracle`]
/// library. Every field defaults to "not observed"; oracles only fire on
/// evidence actually present.
#[derive(Debug, Clone, Default)]
pub struct RunEvidence {
    /// Per-poll budget arithmetic (`Observation::Poll`).
    pub polls: Vec<(u64, u64, Vec<PollLane>)>,
    /// Throttle retargets as `(scale, floor)` pairs.
    pub throttles: Vec<(f64, f64)>,
    /// Migration-map consumptions as
    /// `(block, entry_generation, task_generation)`.
    pub applies: Vec<(u64, u64, u64)>,
    /// Blocks seen both pending migration and cache-resident at a pump
    /// boundary.
    pub colocated: Vec<u64>,
    /// Move sets enqueued on the engine, as `(kind, blocks)` — the
    /// "enqueued" side callers fold into [`RunEvidence::conservation`].
    pub enqueued: Vec<(TaskKind, u64)>,
    /// Block-accounting ledger lines.
    pub conservation: Vec<ConservationLine>,
    /// Pumps the end-of-trace drain ran, and whether it was aborted at the
    /// model checker's bound.
    pub drain: Option<(u64, bool)>,
    /// Whether the array reported itself idle once the run finished.
    pub idle_at_end: Option<bool>,
}

impl RunEvidence {
    /// Folds one recorded [`Observation`] into the evidence.
    pub fn absorb(&mut self, observation: Observation) {
        match observation {
            Observation::Poll {
                cap,
                total_due,
                lanes,
            } => self.polls.push((cap, total_due, lanes)),
            Observation::Throttle { scale, floor } => self.throttles.push((scale, floor)),
            Observation::MoveSetEnqueued { kind, blocks } => self.enqueued.push((kind, blocks)),
            Observation::MigrationApply {
                block,
                entry_generation,
                task_generation,
            } => self
                .applies
                .push((block, entry_generation, task_generation)),
            Observation::Colocated { block } => self.colocated.push(block),
            Observation::DrainAborted { pumps } => self.drain = Some((pumps, true)),
        }
    }
}

/// One invariant over a run's [`RunEvidence`]: a stable name, the
/// `CRAID-E4xx` code its violations report under, and the check itself.
///
/// ```
/// use craid::analyze::oracle::{InvariantOracle, ThrottleClamped, RunEvidence};
///
/// let oracle = ThrottleClamped;
/// let mut evidence = RunEvidence::default();
/// evidence.throttles.push((0.05, 0.2)); // scale below the floor
/// let violation = oracle.check(&evidence).expect("the clamp was escaped");
/// assert_eq!(oracle.code(), craid::analyze::codes::THROTTLE_CLAMP);
/// assert!(violation.contains("escaped the clamp"));
/// ```
pub trait InvariantOracle {
    /// Stable human-readable name (`"exactly-one-location"`, ...).
    fn name(&self) -> &'static str;

    /// The `CRAID-E4xx` diagnostic code violations report under.
    fn code(&self) -> &'static str;

    /// Judges the evidence: `Some(message)` describes the first violation
    /// found, `None` means the invariant held.
    fn check(&self, evidence: &RunEvidence) -> Option<String>;
}

/// A block is never simultaneously pending migration and resident in the
/// rebuilt cache partition — exactly one location is authoritative.
pub struct ExactlyOneLocation;

impl InvariantOracle for ExactlyOneLocation {
    fn name(&self) -> &'static str {
        "exactly-one-location"
    }
    fn code(&self) -> &'static str {
        codes::EXACTLY_ONE_LOCATION
    }
    fn check(&self, evidence: &RunEvidence) -> Option<String> {
        evidence.colocated.first().map(|block| {
            format!(
                "block {block} was pending migration and cache-resident at once \
                 ({} offending block(s) in total)",
                evidence.colocated.len()
            )
        })
    }
}

/// Every enqueued block is accounted for: migrated, superseded or still
/// pending — the ledger balances exactly.
pub struct BlockConservation;

impl InvariantOracle for BlockConservation {
    fn name(&self) -> &'static str {
        "block-conservation"
    }
    fn code(&self) -> &'static str {
        codes::BLOCK_CONSERVATION
    }
    fn check(&self, evidence: &RunEvidence) -> Option<String> {
        evidence.conservation.iter().find_map(|line| {
            let settled = line.migrated + line.superseded + line.pending;
            (settled != line.enqueued).then(|| {
                format!(
                    "{}: migrated {} + superseded {} + pending {} = {} blocks, \
                     but {} were enqueued",
                    line.label,
                    line.migrated,
                    line.superseded,
                    line.pending,
                    settled,
                    line.enqueued
                )
            })
        })
    }
}

/// Each poll's fair-share split respects its budget: no lane exceeds its
/// demand, every hungry lane makes progress, the split stays
/// work-conserving, and the cap is only ever exceeded by the one-block
/// floor.
pub struct FairShareBudget;

impl InvariantOracle for FairShareBudget {
    fn name(&self) -> &'static str {
        "fair-share-budget"
    }
    fn code(&self) -> &'static str {
        codes::FAIR_SHARE_BUDGET
    }
    fn check(&self, evidence: &RunEvidence) -> Option<String> {
        evidence.polls.iter().find_map(|(cap, total_due, lanes)| {
            let granted: u64 = lanes.iter().map(|l| l.granted).sum();
            let hungry = lanes.iter().filter(|l| l.want > 0).count() as u64;
            if let Some(over) = lanes.iter().find(|l| l.granted > l.want) {
                return Some(format!(
                    "a {:?} lane was granted {} blocks against a demand of {}",
                    over.kind, over.granted, over.want
                ));
            }
            if let Some(starved) = lanes.iter().find(|l| l.want > 0 && l.granted == 0) {
                return Some(format!(
                    "a hungry {:?} lane (demand {}) was granted nothing this poll",
                    starved.kind, starved.want
                ));
            }
            // Work-conserving: the poll issues min(demand, cap) ...
            if granted < (*total_due).min(*cap) {
                return Some(format!(
                    "the poll granted {granted} blocks with demand {total_due} \
                     and cap {cap} — budget was left on the table"
                ));
            }
            // ... and only the one-block-per-hungry-task floor may push it
            // past the cap.
            if granted > (*cap).max(hungry) {
                return Some(format!(
                    "the poll granted {granted} blocks against a cap of {cap} \
                     ({hungry} hungry lane(s))"
                ));
            }
            None
        })
    }
}

/// A migration task only ever consumes map entries of its own generation —
/// an older task stealing a newer generation's entry would migrate the
/// block with a stale geometry.
pub struct GenerationMonotonic;

impl InvariantOracle for GenerationMonotonic {
    fn name(&self) -> &'static str {
        "generation-monotonic"
    }
    fn code(&self) -> &'static str {
        codes::GENERATION_MONOTONIC
    }
    fn check(&self, evidence: &RunEvidence) -> Option<String> {
        evidence
            .applies
            .iter()
            .find(|(_, entry, task)| entry != task)
            .map(|(block, entry, task)| {
                format!(
                    "migration task (generation {task}) consumed block {block}'s \
                     pending entry belonging to generation {entry}"
                )
            })
    }
}

/// The end-of-trace drain terminates: the pump count stays within
/// [`DRAIN_PUMP_BOUND`] and the array ends idle.
pub struct DrainTerminates;

impl InvariantOracle for DrainTerminates {
    fn name(&self) -> &'static str {
        "drain-terminates"
    }
    fn code(&self) -> &'static str {
        codes::DRAIN_TERMINATES
    }
    fn check(&self, evidence: &RunEvidence) -> Option<String> {
        if let Some((pumps, aborted)) = evidence.drain {
            if aborted || pumps > DRAIN_PUMP_BOUND {
                return Some(format!(
                    "the end-of-trace drain ran {pumps} pumps without settling \
                     (bound {DRAIN_PUMP_BOUND})"
                ));
            }
        }
        if evidence.idle_at_end == Some(false) {
            return Some("the array was not idle when the run ended".to_string());
        }
        None
    }
}

/// Every accepted throttle retarget lands inside `[floor, 1.0]`.
pub struct ThrottleClamped;

impl InvariantOracle for ThrottleClamped {
    fn name(&self) -> &'static str {
        "throttle-clamped"
    }
    fn code(&self) -> &'static str {
        codes::THROTTLE_CLAMP
    }
    fn check(&self, evidence: &RunEvidence) -> Option<String> {
        evidence
            .throttles
            .iter()
            .find(|(scale, floor)| !scale.is_finite() || *scale < *floor || *scale > 1.0)
            .map(|(scale, floor)| {
                format!("throttle scale {scale} escaped the clamp [{floor}, 1.0]")
            })
    }
}

/// The full oracle library, in code order.
pub fn all_oracles() -> Vec<Box<dyn InvariantOracle>> {
    vec![
        Box::new(ExactlyOneLocation),
        Box::new(BlockConservation),
        Box::new(FairShareBudget),
        Box::new(GenerationMonotonic),
        Box::new(DrainTerminates),
        Box::new(ThrottleClamped),
    ]
}

/// Judges `evidence` against the whole library, returning one diagnostic
/// per violated oracle (empty when every invariant held).
pub fn check_all(evidence: &RunEvidence) -> Vec<Diagnostic> {
    all_oracles()
        .iter()
        .filter_map(|oracle| {
            oracle.check(evidence).map(|message| {
                Diagnostic::error(
                    oracle.code(),
                    format!("invariant.{}", oracle.name()),
                    message,
                )
                .with_help(
                    "this is a scheduler-interleaving violation, not a config error; \
                     rerun under `scenario_file --explore` to reproduce and shrink it",
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::background::TaskKind;

    #[test]
    fn library_lists_each_oracle_once_in_code_order() {
        let codes: Vec<_> = all_oracles().iter().map(|o| o.code()).collect();
        assert_eq!(codes.len(), 6);
        assert!(codes.windows(2).all(|w| w[0] < w[1]), "{codes:?}");
        assert!(codes.iter().all(|c| c.starts_with("CRAID-E4")), "{codes:?}");
    }

    #[test]
    fn empty_evidence_is_clean() {
        assert!(check_all(&RunEvidence::default()).is_empty());
    }

    #[test]
    fn each_oracle_fires_on_its_own_evidence() {
        let mut e = RunEvidence::default();
        e.colocated.push(42);
        e.conservation.push(ConservationLine {
            label: "pc-migration",
            enqueued: 5,
            migrated: 3,
            superseded: 1,
            pending: 0,
        });
        e.polls.push((
            100,
            50,
            vec![PollLane {
                kind: TaskKind::Rebuild,
                want: 50,
                granted: 0,
            }],
        ));
        e.applies.push((9, 2, 1));
        e.drain = Some((DRAIN_PUMP_BOUND + 1, true));
        e.throttles.push((1.5, 0.2));

        let diagnostics = check_all(&e);
        let codes_found: Vec<&str> = diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            codes_found,
            vec![
                codes::EXACTLY_ONE_LOCATION,
                codes::BLOCK_CONSERVATION,
                codes::FAIR_SHARE_BUDGET,
                codes::GENERATION_MONOTONIC,
                codes::DRAIN_TERMINATES,
                codes::THROTTLE_CLAMP,
            ]
        );
        assert!(diagnostics.iter().all(|d| d.is_error()));
    }

    // Direct per-oracle coverage (E401–E406): every oracle is exercised in
    // both directions against hand-built evidence, independently of the
    // model checker that normally assembles it.

    #[test]
    fn exactly_one_location_fires_per_colocated_block() {
        assert!(ExactlyOneLocation.check(&RunEvidence::default()).is_none());
        let mut e = RunEvidence::default();
        e.colocated.push(7);
        e.colocated.push(9);
        let msg = ExactlyOneLocation.check(&e).expect("colocated block");
        assert!(msg.contains("block 7"), "first offender is named: {msg}");
        assert!(msg.contains("2 offending"), "total is reported: {msg}");
        assert_eq!(ExactlyOneLocation.code(), codes::EXACTLY_ONE_LOCATION);
    }

    #[test]
    fn block_conservation_judges_the_ledger_exactly() {
        let line = |migrated, superseded, pending| ConservationLine {
            label: "pc-migration",
            enqueued: 10,
            migrated,
            superseded,
            pending,
        };
        // Balanced: clean, whatever the split.
        for balanced in [
            line(10, 0, 0),
            line(0, 10, 0),
            line(0, 0, 10),
            line(4, 3, 3),
        ] {
            let mut e = RunEvidence::default();
            e.conservation.push(balanced);
            assert!(BlockConservation.check(&e).is_none(), "{balanced:?}");
        }
        // A lost block and a double-counted block both fire.
        for broken in [line(9, 0, 0), line(10, 1, 0)] {
            let mut e = RunEvidence::default();
            e.conservation.push(broken);
            let msg = BlockConservation.check(&e).expect("imbalanced ledger");
            assert!(msg.contains("pc-migration"), "label is named: {msg}");
        }
        assert_eq!(BlockConservation.code(), codes::BLOCK_CONSERVATION);
    }

    #[test]
    fn fair_share_budget_rejects_each_violation_kind() {
        let poll = |cap, lanes: Vec<PollLane>| {
            let total: u64 = lanes.iter().map(|l| l.want).sum();
            let mut e = RunEvidence::default();
            e.polls.push((cap, total, lanes));
            e
        };
        let lane = |want, granted| PollLane {
            kind: TaskKind::Rebuild,
            want,
            granted,
        };
        // An exact work-conserving split is clean.
        assert!(FairShareBudget
            .check(&poll(8, vec![lane(5, 5), lane(3, 3)]))
            .is_none());
        // Over-grant: a lane got more than it asked for.
        let msg = FairShareBudget
            .check(&poll(8, vec![lane(2, 4)]))
            .expect("over-grant");
        assert!(msg.contains("granted 4"), "{msg}");
        // Starvation: a hungry lane got nothing while others progressed.
        let msg = FairShareBudget
            .check(&poll(8, vec![lane(4, 4), lane(4, 0)]))
            .expect("starved lane");
        assert!(msg.contains("granted nothing"), "{msg}");
        // Not work-conserving: budget left on the table.
        let msg = FairShareBudget
            .check(&poll(8, vec![lane(6, 3)]))
            .expect("left budget");
        assert!(msg.contains("left on the table"), "{msg}");
        // Cap escape beyond the one-block floor.
        let msg = FairShareBudget
            .check(&poll(2, vec![lane(9, 9)]))
            .expect("cap escape");
        assert!(msg.contains("against a cap"), "{msg}");
        assert_eq!(FairShareBudget.code(), codes::FAIR_SHARE_BUDGET);
    }

    #[test]
    fn generation_monotonic_requires_exact_generation_match() {
        let mut e = RunEvidence::default();
        e.applies.push((5, 3, 3));
        assert!(GenerationMonotonic.check(&e).is_none());
        // Both directions of mismatch fire: an old task consuming a newer
        // entry and a new task consuming an older one.
        for (entry, task) in [(2u64, 1u64), (1, 2)] {
            let mut e = RunEvidence::default();
            e.applies.push((5, entry, task));
            let msg = GenerationMonotonic.check(&e).expect("generation mismatch");
            assert!(msg.contains(&format!("generation {entry}")), "{msg}");
        }
        assert_eq!(GenerationMonotonic.code(), codes::GENERATION_MONOTONIC);
    }

    #[test]
    fn drain_terminates_checks_bound_abort_and_idleness() {
        // Exactly at the bound, settled, idle: clean.
        let mut e = RunEvidence {
            drain: Some((DRAIN_PUMP_BOUND, false)),
            idle_at_end: Some(true),
            ..RunEvidence::default()
        };
        assert!(DrainTerminates.check(&e).is_none());
        // One pump over the bound fires even without the abort flag.
        e.drain = Some((DRAIN_PUMP_BOUND + 1, false));
        assert!(DrainTerminates.check(&e).is_some());
        // An aborted drain fires regardless of the count.
        e.drain = Some((3, true));
        assert!(DrainTerminates.check(&e).is_some());
        // A non-idle end fires even when no drain evidence was recorded.
        let e = RunEvidence {
            idle_at_end: Some(false),
            ..RunEvidence::default()
        };
        let msg = DrainTerminates.check(&e).expect("not idle");
        assert!(msg.contains("not idle"), "{msg}");
        assert_eq!(DrainTerminates.code(), codes::DRAIN_TERMINATES);
    }

    #[test]
    fn throttle_clamped_accepts_the_closed_interval_only() {
        let check = |scale: f64, floor: f64| {
            let mut e = RunEvidence::default();
            e.throttles.push((scale, floor));
            ThrottleClamped.check(&e)
        };
        // Both endpoints of [floor, 1.0] are legal retargets.
        assert!(check(0.2, 0.2).is_none());
        assert!(check(1.0, 0.2).is_none());
        assert!(check(0.6, 0.2).is_none());
        // Below the floor, above 1.0, and non-finite all escape the clamp.
        assert!(check(0.1, 0.2).is_some());
        assert!(check(1.1, 0.2).is_some());
        assert!(check(f64::NAN, 0.2).is_some());
        assert!(check(f64::INFINITY, 0.2).is_some());
        assert_eq!(ThrottleClamped.code(), codes::THROTTLE_CLAMP);
    }

    #[test]
    fn fair_share_accepts_the_floor_overshoot() {
        // cap 1, two hungry lanes: the one-block floor grants 2 > cap,
        // which the engine documents and the oracle must accept.
        let mut e = RunEvidence::default();
        e.polls.push((
            1,
            20,
            vec![
                PollLane {
                    kind: TaskKind::Rebuild,
                    want: 10,
                    granted: 1,
                },
                PollLane {
                    kind: TaskKind::ExpansionMigration,
                    want: 10,
                    granted: 1,
                },
            ],
        ));
        assert!(FairShareBudget.check(&e).is_none());
    }

    #[test]
    fn absorb_routes_observations() {
        let mut e = RunEvidence::default();
        e.absorb(Observation::Poll {
            cap: 8,
            total_due: 4,
            lanes: vec![PollLane {
                kind: TaskKind::Rebuild,
                want: 4,
                granted: 4,
            }],
        });
        e.absorb(Observation::Throttle {
            scale: 0.5,
            floor: 0.2,
        });
        e.absorb(Observation::MigrationApply {
            block: 3,
            entry_generation: 1,
            task_generation: 1,
        });
        e.absorb(Observation::MoveSetEnqueued {
            kind: TaskKind::ArchiveRestripe,
            blocks: 16,
        });
        assert_eq!(e.polls.len(), 1);
        assert_eq!(e.throttles, vec![(0.5, 0.2)]);
        assert_eq!(e.applies, vec![(3, 1, 1)]);
        assert_eq!(e.enqueued, vec![(TaskKind::ArchiveRestripe, 16)]);
        assert!(check_all(&e).is_empty());

        // An aborted drain is itself evidence of a violation.
        e.absorb(Observation::Colocated { block: 4 });
        e.absorb(Observation::DrainAborted { pumps: 99 });
        assert_eq!(e.colocated, vec![4]);
        assert_eq!(e.drain, Some((99, true)));
        assert_eq!(
            check_all(&e).iter().map(|d| d.code).collect::<Vec<_>>(),
            vec![codes::EXACTLY_ONE_LOCATION, codes::DRAIN_TERMINATES]
        );
    }
}
