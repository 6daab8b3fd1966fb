//! Integration tests for the background I/O engine's online expansions:
//! mid-flight migration correctness (no block lost or double-mapped), the
//! instant-expand equivalence of an unbounded rate, hot-first vs.
//! sequential service recovery, and fail-during-upgrade determinism.

use craid::analyze::oracle::{BlockConservation, ConservationLine, ExactlyOneLocation};
use craid::observer::RequestOutcome;
use craid::{
    ArrayConfig, BackgroundPriority, CraidArray, InvariantOracle, Observer, RunEvidence, Scenario,
    ScheduledEvent, StorageArray, StrategyKind,
};
use craid_diskmodel::{BlockRange, IoKind};
use craid_simkit::SimTime;
use craid_trace::{TraceRecord, WorkloadId};
use proptest::prelude::*;

/// Drains whatever background work an array still has queued.
fn drain(array: &mut dyn StorageArray, mut t: f64) -> f64 {
    while !array.background_idle() && t < 100_000.0 {
        array.pump_background(SimTime::from_secs(t));
        t += 1.0;
    }
    assert!(array.background_idle(), "background work must drain");
    t
}

/// Judges the array's live migration counters against the shared
/// [`BlockConservation`] oracle — the same implementation the model
/// checker runs — returning the violation message, if any.
fn conservation_violation(
    label: &'static str,
    enqueued: u64,
    stats: &craid::MigrationStats,
) -> Option<String> {
    let mut evidence = RunEvidence::default();
    evidence.conservation.push(ConservationLine {
        label,
        enqueued,
        migrated: stats.migrated_blocks,
        superseded: stats.superseded_blocks,
        pending: stats.pending_blocks,
    });
    BlockConservation.check(&evidence)
}

/// Judges one touched block against the shared [`ExactlyOneLocation`]
/// oracle: pending (old slot) and cache-resident (new slot) must be
/// mutually exclusive.
fn colocation_violation(a: &CraidArray, block: u64) -> Option<String> {
    let mut evidence = RunEvidence::default();
    if a.migration_pending(block) && a.monitor().unwrap().cached_slot(block).is_some() {
        evidence.colocated.push(block);
    }
    ExactlyOneLocation.check(&evidence)
}

proptest! {
    /// An interrupted / mid-flight restripe never loses or double-maps a
    /// block: at every step, every enqueued move is in exactly one of
    /// {migrated, superseded, pending}, and a block the client settled
    /// never reappears as pending.
    #[test]
    fn prop_paced_restripe_accounts_for_every_block(
        ops in proptest::collection::vec((0u64..10_000, any::<bool>(), 1u64..900), 1..40),
        rate in 100u64..20_000,
    ) {
        let config = ArrayConfig::small_test(StrategyKind::Raid5, 10_000)
            .with_migration_rate(Some(rate as f64));
        let mut a = CraidArray::new(config).unwrap();
        let report = a.expand(SimTime::from_secs(1.0), 4).unwrap();
        let enqueued = report.enqueued_blocks;
        prop_assert!(enqueued > 0);
        let mut t = 1.0;
        for (block, write, dt_ms) in ops {
            t += dt_ms as f64 / 1000.0;
            let now = SimTime::from_secs(t);
            a.pump_background(now);
            let kind = if write { IoKind::Write } else { IoKind::Read };
            a.submit(now, kind, BlockRange::new(block, 1)).unwrap();
            let stats = a.migration_stats();
            prop_assert_eq!(
                conservation_violation("baseline-restripe", enqueued, &stats),
                None,
                "every enqueued block is in exactly one bucket at every step"
            );
            if write {
                prop_assert!(!a.migration_pending(block), "writes settle at the new home");
            }
        }
        let t = drain(&mut a, t);
        let stats = a.migration_stats();
        prop_assert_eq!(stats.pending_blocks, 0);
        prop_assert_eq!(conservation_violation("baseline-restripe", enqueued, &stats), None);
        prop_assert_eq!(stats.migrations_completed, 1);
        prop_assert!(stats.migration_secs > 0.0);
        // The array still serves the whole volume afterwards.
        a.submit(SimTime::from_secs(t), IoKind::Read, BlockRange::new(9_999, 1)).unwrap();
    }

    /// The CRAID variant of the same invariant, plus: a block is never
    /// simultaneously pending (old slot) and resident in the new cache
    /// partition — every logical block resolves to exactly one location.
    #[test]
    fn prop_paced_craid_migration_never_double_maps(
        ops in proptest::collection::vec((0u64..10_000, any::<bool>(), 1u64..900), 1..40),
        rate in 5u64..2_000,
    ) {
        let config = ArrayConfig::small_test(StrategyKind::Craid5Plus, 10_000)
            .with_migration_rate(Some(rate as f64));
        let mut a = CraidArray::new(config).unwrap();
        // Warm the cache (mixed clean/dirty) so the upgrade has work.
        for b in 0..80u64 {
            let kind = if b % 3 == 0 { IoKind::Write } else { IoKind::Read };
            a.submit(SimTime::from_millis(b as f64 * 5.0), kind, BlockRange::new(b * 16 % 9_000, 4)).unwrap();
        }
        let report = a.expand(SimTime::from_secs(1.0), 4).unwrap();
        let enqueued = report.enqueued_blocks;
        prop_assert!(enqueued > 0);
        let mut t = 1.0;
        for (block, write, dt_ms) in ops {
            t += dt_ms as f64 / 1000.0;
            let now = SimTime::from_secs(t);
            a.pump_background(now);
            let kind = if write { IoKind::Write } else { IoKind::Read };
            a.submit(now, kind, BlockRange::new(block, 1)).unwrap();
            let stats = a.migration_stats();
            prop_assert_eq!(conservation_violation("pc-migration", enqueued, &stats), None);
            // Exactly-one-location: pending (old slot) and resident (new
            // slot) are mutually exclusive, checked on the touched block.
            prop_assert_eq!(colocation_violation(&a, block), None);
        }
        drain(&mut a, t);
        let stats = a.migration_stats();
        prop_assert_eq!(stats.pending_blocks, 0);
        prop_assert_eq!(conservation_violation("pc-migration", enqueued, &stats), None);
        prop_assert_eq!(a.pending_migration_blocks(), 0);
    }
}

/// An unbounded migration rate reproduces the instant-expand reports
/// bit-for-bit: `migration_rate = ∞` and "no knob at all" run the identical
/// atomic-upgrade code path for every strategy.
#[test]
fn infinite_rate_reproduces_instant_expand_reports_bit_for_bit() {
    for strategy in StrategyKind::ALL {
        let base = Scenario::builder()
            .name(format!("instant/{strategy}"))
            .strategy(strategy)
            .workload(WorkloadId::Wdev)
            .requests(1_200)
            .seed(11)
            .small_test()
            .pc_fraction(0.2)
            .expand_at(SimTime::from_secs(30.0), 4)
            .build();
        let mut unbounded = base.clone();
        unbounded.array.migration_rate = Some(f64::INFINITY);
        let instant = base.run().unwrap();
        let infinite = unbounded.run().unwrap();
        assert_eq!(
            instant.report, infinite.report,
            "{strategy}: an unbounded rate must match the instant path"
        );
        assert_eq!(
            instant.expansions[0].migrated_blocks, infinite.expansions[0].migrated_blocks,
            "{strategy}"
        );
        assert_eq!(infinite.expansions[0].enqueued_blocks, 0, "{strategy}");
        assert!(
            !infinite.report.migration.any_migrations(),
            "{strategy}: nothing rides the background engine"
        );
    }
}

/// Accumulates per-request block counts and cache hits inside the recovery
/// window right after the upgrade, to measure how fast the hit ratio
/// recovers while the migration is still streaming.
struct HitRecovery {
    window: (SimTime, SimTime),
    blocks_after: u64,
    hits_after: u64,
}

impl Observer for HitRecovery {
    fn on_request(&mut self, record: &TraceRecord, outcome: &RequestOutcome) {
        if record.time >= self.window.0 && record.time < self.window.1 {
            self.blocks_after += record.length;
            self.hits_after += outcome.cache_hit_blocks();
        }
    }
}

fn recovery_scenario(priority: BackgroundPriority, rate: f64) -> Scenario {
    Scenario::builder()
        .name(format!("recovery/{priority:?}"))
        .strategy(StrategyKind::Craid5Plus)
        .workload(WorkloadId::Wdev)
        .requests(4_000)
        .seed(14)
        .small_test()
        .pc_fraction(0.2)
        .migration_rate(rate)
        .background_priority(priority)
        .expand_at(SimTime::from_secs(30.0), 4)
        .build()
}

/// The CRAID move: at the same migration rate, `HotFirst` restores the
/// steady-state hit ratio measurably faster than `Sequential`, because the
/// hottest blocks regain residency before the client's next touch.
#[test]
fn hot_first_restores_hit_ratio_faster_than_sequential() {
    // Measure the ten seconds right after the upgrade — the window the
    // migration (≈40s at this rate) is still streaming through, where the
    // issue order decides which blocks are already home when the client
    // touches them next.
    let window = (SimTime::from_secs(30.0), SimTime::from_secs(40.0));
    let rate = 40.0;
    let mut fractions = Vec::new();
    for priority in [BackgroundPriority::Sequential, BackgroundPriority::HotFirst] {
        let scenario = recovery_scenario(priority, rate);
        let mut watch = HitRecovery {
            window,
            blocks_after: 0,
            hits_after: 0,
        };
        let outcome = scenario.run_observed(&mut watch).unwrap();
        assert_eq!(outcome.report.migration.migrations_started, 1);
        assert!(watch.blocks_after > 0);
        fractions.push(watch.hits_after as f64 / watch.blocks_after as f64);
    }
    let (sequential, hot_first) = (fractions[0], fractions[1]);
    assert!(
        hot_first > sequential * 1.03,
        "hot-first recovery-window hit fraction ({hot_first:.4}) must measurably beat \
         sequential ({sequential:.4}) at the same rate"
    );
}

/// A disk failure *during* a paced upgrade is legal and deterministic: the
/// repair's rebuild queues behind the migration on the same engine, both
/// complete, and two identical runs produce identical reports.
#[test]
fn fail_during_upgrade_completes_deterministically() {
    let scenario = Scenario::builder()
        .name("fail-during-upgrade")
        .strategy(StrategyKind::Craid5Plus)
        .workload(WorkloadId::Wdev)
        .requests(4_000)
        .seed(14)
        .small_test()
        .pc_fraction(0.2)
        .migration_rate(200.0)
        .background_priority(BackgroundPriority::HotFirst)
        .rebuild_rate(2_000.0)
        .expand_at(SimTime::from_secs(25.0), 4)
        .fail_disk_at(SimTime::from_secs(27.0), 2)
        .repair_disk_at(SimTime::from_secs(32.0), 2)
        .build();
    let a = scenario.run().unwrap();
    let b = scenario.run().unwrap();
    assert_eq!(
        a.report, b.report,
        "fault-laden paced upgrades are deterministic"
    );

    let report = &a.report;
    assert_eq!(report.migration.migrations_started, 1);
    assert_eq!(
        report.migration.migrations_completed, 1,
        "the migration drained despite the failure"
    );
    assert!(
        report.migration.migration_secs > 0.0,
        "a nonzero upgrade window"
    );
    assert_eq!(report.fault.disk_failures, 1);
    assert_eq!(
        report.fault.rebuilds_completed, 1,
        "the rebuild (queued behind the migration) also drained"
    );
    assert!(
        report.fault.degraded_reads > 0,
        "traffic was served while degraded"
    );
    assert!(report.requests > 0);
}

/// The checked-in online-upgrade drill: a paced, hot-first expansion with a
/// failure injected mid-migration. The report must show a nonzero upgrade
/// window with traffic served during it.
#[test]
fn online_upgrade_drill_scenario_shows_the_window() {
    let text = include_str!("../examples/scenarios/online_upgrade_drill.toml");
    let scenario = Scenario::from_toml(text).unwrap();
    assert_eq!(
        scenario.array.background_priority,
        Some(BackgroundPriority::HotFirst)
    );
    let outcome = scenario.run().unwrap();
    let report = &outcome.report;
    assert_eq!(report.migration.migrations_started, 1);
    assert_eq!(report.migration.migrations_completed, 1);
    assert!(
        report.migration.migration_secs > 1.0,
        "the upgrade window is visible at the configured rate, got {}s",
        report.migration.migration_secs
    );
    assert!(report.migration.migrated_blocks > 0);
    assert_eq!(report.fault.rebuilds_completed, 1);
    assert!(
        report.fault.degraded_reads > 0,
        "degraded-but-served traffic during the window"
    );
    assert!(report.requests > 0, "clients were served throughout");
    // Round trip: the drill re-serializes losslessly.
    let back = Scenario::from_toml(&scenario.to_toml().unwrap()).unwrap();
    assert_eq!(back, scenario);
}

/// Trace-swap phases ride the same scenario machinery: the swap is
/// serializable and two runs replay the identical composite.
#[test]
fn phase_swap_scenarios_are_deterministic() {
    let scenario = Scenario::builder()
        .name("phase swap")
        .strategy(StrategyKind::Craid5)
        .workload(WorkloadId::Wdev)
        .requests(1_000)
        .seed(3)
        .small_test()
        .pc_fraction(0.2)
        .phase_swap_at(
            SimTime::from_secs(40.0),
            "proj takes over",
            craid::WorkloadSource {
                id: WorkloadId::Proj,
                requests: 500,
                seed: 21,
            },
        )
        .build();
    let a = scenario.run().unwrap();
    let b = scenario.run().unwrap();
    assert_eq!(a.report, b.report);
    assert_eq!(a.applied_events.len(), 1);
    assert!(a.applied_events[0].description.contains("switch trace"));
    // And the swap survives a TOML round trip.
    let back = Scenario::from_toml(&scenario.to_toml().unwrap()).unwrap();
    assert_eq!(back, scenario);
    let ScheduledEvent::WorkloadPhase {
        workload: Some(source),
        ..
    } = &back.events[0]
    else {
        panic!("the swap survived serialization");
    };
    assert_eq!(source.id, WorkloadId::Proj);
}

/// A short trace must not freeze in-flight background work: the engine is
/// drained after the last record (outside the measurement window), so a
/// slow rebuild still records a finite MTTR and a paced migration reaches
/// `pending == 0` with its upgrade window closed.
#[test]
fn short_trace_drains_in_flight_work_and_records_mttr() {
    let scenario = Scenario::builder()
        .name("short trace, slow maintenance")
        .strategy(StrategyKind::Craid5Plus)
        .workload(WorkloadId::Wdev)
        .requests(300) // a ~78-second trace; the late, slow work below
        // cannot finish before the last record
        .seed(5)
        .small_test()
        .pc_fraction(0.2)
        .migration_rate(10.0)
        .rebuild_rate(20.0)
        .expand_at(SimTime::from_secs(70.0), 4)
        .fail_disk_at(SimTime::from_secs(72.0), 2)
        .repair_disk_at(SimTime::from_secs(74.0), 2)
        .build();
    let outcome = scenario.run().unwrap();
    let report = &outcome.report;
    assert_eq!(
        report.fault.rebuilds_completed, 1,
        "the rebuild drained after the trace instead of freezing"
    );
    assert!(
        report.fault.mttr_secs() > 0.0 && report.fault.mttr_secs().is_finite(),
        "MTTR is finite: {}",
        report.fault.mttr_secs()
    );
    assert_eq!(report.migration.migrations_completed, 1);
    assert_eq!(
        report.migration.pending_blocks, 0,
        "no move is left dangling at the end of the run"
    );
    assert!(
        report.migration.migration_secs > 0.0,
        "the upgrade window closed with a finite span"
    );
    assert!(
        report.background_drain_secs > 0.0,
        "the drain is reported explicitly"
    );
    // Determinism survives the drain path.
    let again = scenario.run().unwrap();
    assert_eq!(again.report, *report);
}

/// A run whose background work finishes during the replay reports a zero
/// drain.
#[test]
fn fully_drained_runs_report_zero_drain() {
    let scenario = Scenario::builder()
        .name("fast migration")
        .strategy(StrategyKind::Craid5Plus)
        .workload(WorkloadId::Wdev)
        .requests(2_000)
        .seed(5)
        .small_test()
        .pc_fraction(0.2)
        .migration_rate(1_000_000.0)
        .expand_at(SimTime::from_secs(5.0), 4)
        .build();
    let outcome = scenario.run().unwrap();
    assert_eq!(outcome.report.migration.migrations_completed, 1);
    assert_eq!(outcome.report.background_drain_secs, 0.0);
}

/// The acceptance scenario of the fair-share scheduler: an in-flight
/// rebuild and a paced migration progress *in the same measurement window*
/// (neither serialises behind the other), and their cumulative issue
/// counts track the configured weights while both are saturated.
#[test]
fn rebuild_and_migration_progress_in_the_same_window_per_the_weights() {
    // Saturated: both rates far above what one pump's batch cap can issue,
    // so every pump splits the cap 3:1 between the rebuild and the
    // restripe.
    let mut config = ArrayConfig::small_test(StrategyKind::Raid5, 10_000)
        .with_migration_rate(Some(1e9))
        .with_rebuild_share(3.0)
        .with_migration_share(1.0);
    config.rebuild_rate_blocks_per_sec = 1e9;
    let mut a = CraidArray::new(config).unwrap();
    a.fail_disk(SimTime::from_secs(0.5), 3).unwrap();
    a.repair_disk(SimTime::from_secs(1.0), 3).unwrap();
    a.expand(SimTime::from_secs(1.0), 4).unwrap();
    // While both are saturated, every pump advances both, splitting the
    // batch cap 3:1.
    let mut last_rebuilt = 0;
    let mut last_migrated = 0;
    let mut overlap_rebuilt = 0u64;
    let mut overlap_migrated = 0u64;
    for i in 1..=10 {
        let both_live = a.fault_stats().rebuilds_completed == 0
            && a.migration_stats().migrations_completed == 0;
        a.pump_background(SimTime::from_secs(1.0 + i as f64));
        let rebuilt = a.fault_stats().rebuild_write_blocks;
        let migrated = a.migration_stats().migrated_blocks;
        if both_live {
            assert!(rebuilt > last_rebuilt, "rebuild progressed on pump {i}");
            assert!(migrated > last_migrated, "migration progressed on pump {i}");
            if a.fault_stats().rebuilds_completed == 0 {
                // Count only full-overlap pumps into the ratio check.
                overlap_rebuilt += rebuilt - last_rebuilt;
                overlap_migrated += migrated - last_migrated;
            }
        }
        last_rebuilt = rebuilt;
        last_migrated = migrated;
    }
    assert!(
        a.fault_stats().rebuild_write_blocks > 0 && a.migration_stats().migrated_blocks > 0,
        "both streams ran inside the same window"
    );
    // 3:1 weights → per-pump issue counts in ratio while both contended.
    assert!(overlap_rebuilt > 0 && overlap_migrated > 0);
    let ratio = overlap_rebuilt as f64 / overlap_migrated as f64;
    assert!(
        (ratio - 3.0).abs() < 0.1,
        "contended split should honour 3:1 shares, got {ratio}          ({overlap_rebuilt} vs {overlap_migrated})"
    );
}

proptest! {
    /// Under fair share a concurrent rebuild + migration never loses or
    /// over-issues a block, both make progress on every pump while both
    /// have backlog, and the combined issue counts respect the configured
    /// weights within one batch of tolerance. (The engine hands a migration
    /// only budgets; that the array applies each drained block at most once
    /// is checked where the array walks its order.)
    #[test]
    fn prop_fair_share_conserves_and_splits_work(
        rebuild_blocks in 1_000u64..40_000,
        migration_blocks in 1_000u64..40_000,
        rebuild_share in 1u32..5,
        migration_share in 1u32..5,
        steps in 1u64..40,
    ) {
        use craid::background::{BackgroundEngine, Batch, TaskKind};
        use craid_diskmodel::BlockRange;

        let mut engine =
            BackgroundEngine::with_shares(rebuild_share as f64, migration_share as f64);
        // Saturating rates: backlog, not pace, limits every poll.
        engine.push_rebuild(SimTime::ZERO, 1, vec![BlockRange::new(0, rebuild_blocks)], 1e12);
        engine.push_migration(SimTime::ZERO, migration_blocks, 1e12);
        let mut rebuilt: u64 = 0;
        let mut migrated: u64 = 0;
        for i in 1..=steps {
            let had_rebuild_backlog = engine.backlog_blocks(TaskKind::Rebuild) > 0;
            let had_migration_backlog = engine.backlog_blocks(TaskKind::ExpansionMigration) > 0;
            let mut step_rebuilt = 0u64;
            let mut step_migrated = 0u64;
            for batch in engine.poll(SimTime::from_secs(i as f64)) {
                match batch {
                    Batch::Rebuild { ranges, .. } => {
                        for r in &ranges {
                            prop_assert!(r.end() <= rebuild_blocks, "no range past the segment");
                        }
                        step_rebuilt += ranges.iter().map(|r| r.len()).sum::<u64>();
                    }
                    Batch::Migration { budget, .. } => step_migrated += budget,
                    Batch::Restripe { .. } => prop_assert!(false, "no stream task pushed"),
                }
            }
            if had_rebuild_backlog && had_migration_backlog {
                prop_assert!(step_rebuilt > 0, "rebuild starved at step {}", i);
                prop_assert!(step_migrated > 0, "migration starved at step {}", i);
            }
            rebuilt += step_rebuilt;
            migrated += step_migrated;
        }
        // Conservation: nothing lost, nothing issued twice.
        prop_assert!(rebuilt <= rebuild_blocks);
        prop_assert_eq!(
            rebuilt + engine.backlog_blocks(TaskKind::Rebuild),
            rebuild_blocks
        );
        prop_assert!(migrated <= migration_blocks);
        prop_assert_eq!(
            migrated + engine.backlog_blocks(TaskKind::ExpansionMigration),
            migration_blocks
        );
        // While *both* were saturated the split follows the weights. Only
        // check the window before either side drained.
        let both_live = rebuilt < rebuild_blocks && migrated < migration_blocks;
        if both_live && rebuilt > 0 {
            let expected = migrated as f64 * rebuild_share as f64 / migration_share as f64;
            prop_assert!(
                (rebuilt as f64 - expected).abs() <= 2_048.0 + steps as f64,
                "split drifted: rebuilt {} vs migrated {} at {}:{}",
                rebuilt, migrated, rebuild_share, migration_share
            );
        }
    }
}

/// A queued second expansion — deferred behind a RAID-5 restripe, or
/// pipelined as a second PC redistribution on CRAID-5+ — replays
/// deterministically and both upgrades complete.
#[test]
fn queued_second_expansion_is_deterministic() {
    for strategy in [StrategyKind::Raid5, StrategyKind::Craid5Plus] {
        let scenario = Scenario::builder()
            .name(format!("double expand/{strategy}"))
            .strategy(strategy)
            .workload(WorkloadId::Wdev)
            .requests(3_000)
            .seed(14)
            .small_test()
            .pc_fraction(0.2)
            .migration_rate(300.0)
            .expand_at(SimTime::from_secs(20.0), 4)
            .expand_at(SimTime::from_secs(22.0), 4)
            .build();
        let a = scenario.run().unwrap();
        let b = scenario.run().unwrap();
        assert_eq!(
            a.report, b.report,
            "{strategy}: queued expansions replay identically"
        );
        assert_eq!(a.expansions.len(), 2, "{strategy}");
        match strategy {
            StrategyKind::Raid5 => {
                assert!(!a.expansions[0].deferred);
                assert!(
                    a.expansions[1].deferred,
                    "the second restripe queues behind the first"
                );
            }
            _ => {
                assert!(
                    !a.expansions[1].deferred,
                    "aggregated archives pipeline PC redistributions"
                );
            }
        }
        let m = &a.report.migration;
        assert_eq!(m.migrations_started, 2, "{strategy}");
        assert_eq!(
            m.migrations_completed, 2,
            "{strategy}: both upgrades drained"
        );
        assert_eq!(m.pending_blocks, 0, "{strategy}");
    }
}

/// Baselines have no heat signal: a configured `hot-first` silently ran
/// sequentially before, with nothing in the report to tell a reader the
/// knob was a no-op. The *effective* priority is now recorded.
#[test]
fn baseline_hot_first_reports_the_effective_sequential_order() {
    let scenario = Scenario::builder()
        .name("baseline hot-first")
        .strategy(StrategyKind::Raid5)
        .workload(WorkloadId::Wdev)
        .requests(1_500)
        .seed(7)
        .small_test()
        .pc_fraction(0.2)
        .migration_rate(500.0)
        .background_priority(BackgroundPriority::HotFirst)
        .expand_at(SimTime::from_secs(10.0), 4)
        .build();
    let outcome = scenario.run().unwrap();
    assert_eq!(
        outcome.report.migration.effective_priority,
        Some(BackgroundPriority::Sequential),
        "the report exposes that hot-first degraded to sequential"
    );
    let json = outcome.report.to_json();
    assert!(
        json.contains("\"sequential\""),
        "the serialized report reads 'sequential'"
    );
    // A CRAID array running the same knob keeps its hot-first order.
    let mut craid = scenario.clone();
    craid.strategy = StrategyKind::Craid5Plus;
    let outcome = craid.run().unwrap();
    assert_eq!(
        outcome.report.migration.effective_priority,
        Some(BackgroundPriority::HotFirst)
    );
}

/// The paced Craid5 upgrade pays a visible archive-restripe cost on its own
/// stats line, while the instant path still reports the archive reshape as
/// free (the paper's accounting, pinned bit-for-bit elsewhere).
#[test]
fn paced_craid5_scenario_reports_archive_restripe_cost() {
    let scenario = Scenario::builder()
        .name("craid5 archive cost")
        .strategy(StrategyKind::Craid5)
        .workload(WorkloadId::Wdev)
        .requests(3_000)
        .seed(14)
        .small_test()
        .pc_fraction(0.2)
        .migration_rate(2_000.0)
        .expand_at(SimTime::from_secs(20.0), 4)
        .build();
    let outcome = scenario.run().unwrap();
    let m = &outcome.report.migration;
    assert_eq!(m.archive_restripes_started, 1);
    assert_eq!(m.archive_restripes_completed, 1);
    assert!(
        m.archive_migrated_blocks + m.archive_superseded_blocks > 1_000,
        "the reshape moved a dataset-scale block count, got {}",
        m.archive_migrated_blocks
    );
    assert!(
        m.archive_restripe_secs > 0.0,
        "a nonzero paced archive-restripe window"
    );
    assert_eq!(m.archive_pending_blocks, 0, "drained by the end of the run");
    // The PC redistribution reported separately, far smaller.
    assert!(m.migrated_blocks + m.superseded_blocks < m.archive_migrated_blocks);
}
