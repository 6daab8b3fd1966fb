//! Integration tests for the QoS control subsystem: SLO-driven throttling
//! measurably protects client latency at equal total maintenance work, the
//! pacing floor and block-accounting invariants hold under throttling, the
//! end-of-trace drain still terminates, and the deferred-expansion
//! satellites (observer hook, wait-for-repair activation) behave.

use craid::analyze::oracle::{BlockConservation, ConservationLine, ExactlyOneLocation};
use craid::observer::RequestOutcome;
use craid::qos::SloSpec;
use craid::{
    ActivationPolicy, ArrayConfig, CraidArray, InvariantOracle, Observer, QosStats, RunEvidence,
    Scenario, StorageArray, StrategyKind,
};
use craid_diskmodel::{BlockRange, IoKind};
use craid_simkit::SimTime;
use craid_trace::{TraceRecord, WorkloadId};
use proptest::prelude::*;

/// Accumulates SLO-violation seconds with one fixed definition applied to
/// every run under comparison: the inter-arrival interval ending at a
/// request whose worst-subrange latency exceeded the target counts as
/// violated time.
#[derive(Default)]
struct ViolationMeter {
    target_ms: f64,
    last: Option<SimTime>,
    violated_secs: f64,
    worst_ms: f64,
}

impl ViolationMeter {
    fn new(target_ms: f64) -> Self {
        ViolationMeter {
            target_ms,
            ..ViolationMeter::default()
        }
    }
}

impl Observer for ViolationMeter {
    fn on_request(&mut self, record: &TraceRecord, outcome: &RequestOutcome) {
        if let Some(last) = self.last {
            if outcome.worst_ms > self.target_ms {
                self.violated_secs += record.time.saturating_since(last).as_secs();
            }
        }
        self.worst_ms = self.worst_ms.max(outcome.worst_ms);
        self.last = Some(record.time);
    }
}

/// The acceptance scenario: a sequence of three serialized RAID-5
/// restripes (the second and third defer behind the first, mdadm-style)
/// paced hard enough to hurt client latency on the small test array for a
/// sustained stretch of the trace.
fn upgrade_scenario(requests: u64) -> Scenario {
    Scenario::builder()
        .name("qos/upgrade")
        .strategy(StrategyKind::Raid5)
        .workload(WorkloadId::Wdev)
        .requests(requests)
        .seed(7)
        .small_test()
        .pc_fraction(0.2)
        .migration_rate(1_500.0)
        .expand_at(SimTime::from_secs(8.0), 4)
        .expand_at(SimTime::from_secs(9.0), 4)
        .expand_at(SimTime::from_secs(10.0), 4)
        .build()
}

/// The headline acceptance test: with an SLO set, SLO-violation seconds
/// measurably drop versus fixed-rate maintenance while the run still moves
/// the same total number of blocks (the throttled tail finishes in the
/// end-of-trace drain instead of trampling the clients).
#[test]
fn slo_throttling_cuts_violation_seconds_at_equal_total_work() {
    const TARGET_MS: f64 = 30.0;

    let fixed = upgrade_scenario(1_500);
    let mut throttled = fixed.clone();
    throttled.name = "qos/upgrade/slo".into();
    throttled.array.qos = Some(
        SloSpec::latency_target(TARGET_MS)
            .with_floor(0.02)
            .with_window(2.0),
    );

    let mut fixed_meter = ViolationMeter::new(TARGET_MS);
    let fixed_outcome = fixed.run_observed(&mut fixed_meter).unwrap();
    let mut slo_meter = ViolationMeter::new(TARGET_MS);
    let slo_outcome = throttled.run_observed(&mut slo_meter).unwrap();

    // Equal total maintenance work: every enqueued restripe move was either
    // migrated or superseded by the end of both runs (the drain finishes
    // the throttled tail), and both runs enqueued the same move set.
    let f = &fixed_outcome.report.migration;
    let s = &slo_outcome.report.migration;
    assert_eq!(f.pending_blocks, 0);
    assert_eq!(s.pending_blocks, 0);
    assert_eq!(
        f.migrated_blocks + f.superseded_blocks,
        s.migrated_blocks + s.superseded_blocks,
        "both runs account for the identical move set"
    );

    // The fixed-rate run violates the SLO for a while; the throttled run
    // measurably less (by the same external meter).
    assert!(
        fixed_meter.violated_secs > 0.3,
        "the unthrottled restripes must hurt clients ({:.2}s violated, worst {:.1}ms)",
        fixed_meter.violated_secs,
        fixed_meter.worst_ms
    );
    assert!(
        slo_meter.violated_secs < 0.5 * fixed_meter.violated_secs,
        "throttling must measurably cut violation time: {:.2}s vs {:.2}s",
        slo_meter.violated_secs,
        fixed_meter.violated_secs
    );

    // QosStats ride on the report: the fixed run carries the disabled
    // default, the throttled run a live controller's record.
    assert_eq!(fixed_outcome.report.qos, QosStats::default());
    let qos = &slo_outcome.report.qos;
    assert!(qos.enabled);
    assert!(qos.any_throttling(), "the controller actually backed off");
    assert!(qos.slo_violation_secs > 0.0);
    assert!(!qos.throttle_timeline.is_empty());
    assert_eq!(qos.timeline_dropped, 0);
    assert!(qos.maintenance_blocks > 0);
    assert!(qos.effective_maintenance_rate > 0.0);
    // The throttled upgrade window is longer — that is the trade the SLO
    // buys client latency with.
    assert!(
        s.migration_secs + slo_outcome.report.background_drain_secs > f.migration_secs,
        "the SLO pays for latency with a longer upgrade window"
    );
}

/// A QoS spec whose targets are never threatened leaves the throttle at the
/// ceiling for the whole run: the controller watches but never intervenes.
#[test]
fn unthreatened_slo_never_throttles() {
    let mut scenario = upgrade_scenario(400);
    scenario.array.qos = Some(SloSpec::latency_target(1e6));
    let outcome = scenario.run().unwrap();
    let qos = &outcome.report.qos;
    assert!(qos.enabled);
    assert!(qos.decisions > 0);
    assert_eq!(qos.throttle_changes, 0);
    assert_eq!(qos.final_scale, 1.0);
    assert!(qos.time_at_ceiling_secs > 0.0);
    assert_eq!(qos.time_at_floor_secs, 0.0);
    assert_eq!(qos.slo_violation_secs, 0.0);
}

/// Scenario determinism survives the controller: the same throttled
/// scenario replayed twice produces the identical report, timeline
/// included.
#[test]
fn throttled_runs_are_deterministic() {
    let mut scenario = upgrade_scenario(800);
    scenario.array.qos = Some(SloSpec::latency_target(30.0).with_window(2.0));
    let a = scenario.run().unwrap();
    let b = scenario.run().unwrap();
    assert_eq!(a.report, b.report);
    assert!(a.report.qos.enabled);
}

/// Judge one accounting snapshot with the model checker's conservation
/// oracle instead of a hand-rolled sum, so the test and `--explore` agree
/// on what "no block lost or double-counted" means.
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

/// Judge a single block's placement with the exactly-one-location oracle.
fn colocation_violation(a: &CraidArray, block: u64) -> Option<String> {
    let mut evidence = RunEvidence::default();
    if a.migration_pending(block) && a.monitor().unwrap().cached_slot(block).is_some() {
        evidence.colocated.push(block);
    }
    ExactlyOneLocation.check(&evidence)
}

proptest! {
    /// With throttling active and the throttle retargeted at arbitrary
    /// points, a mid-flight restripe still never loses or double-maps a
    /// block, and the end-of-trace drain still terminates.
    #[test]
    fn prop_throttled_restripe_accounts_for_every_block(
        ops in proptest::collection::vec((0u64..10_000, any::<bool>(), 1u64..900, 0u32..101), 1..40),
        rate in 100u64..20_000,
    ) {
        let config = ArrayConfig::small_test(StrategyKind::Raid5, 10_000)
            .with_migration_rate(Some(rate as f64))
            .with_qos(SloSpec::latency_target(25.0).with_floor(0.05));
        let mut a = CraidArray::new(config).unwrap();
        let report = a.expand(SimTime::from_secs(1.0), 4).unwrap();
        let enqueued = report.enqueued_blocks;
        prop_assert!(enqueued > 0);
        let mut t = 1.0;
        for (block, write, dt_ms, scale_pct) in ops {
            t += dt_ms as f64 / 1000.0;
            let now = SimTime::from_secs(t);
            // An adversarial controller: retarget to an arbitrary scale
            // (including 0, which clamps to the floor) before the pump.
            a.set_background_throttle(now, scale_pct as f64 / 100.0);
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
        // Drain terminates even from the floor (the floor is positive by
        // construction, so the pace-completion eta stays finite).
        while !a.background_idle() {
            prop_assert!(t < 100_000.0, "the throttled drain must terminate");
            if let Some(eta) = a.background_drain_eta() {
                t = t.max(eta.as_secs());
            }
            a.pump_background(SimTime::from_secs(t));
            t += 0.001;
        }
        let stats = a.migration_stats();
        prop_assert_eq!(stats.pending_blocks, 0);
        prop_assert_eq!(conservation_violation("baseline-restripe", enqueued, &stats), None);
        prop_assert_eq!(stats.migrations_completed, 1);
    }

    /// The CRAID variant: under arbitrary retargets a paced PC
    /// redistribution never leaves a block both pending (old slot) and
    /// resident (new slot) — exactly one location at every step.
    #[test]
    fn prop_throttled_craid_migration_never_double_maps(
        ops in proptest::collection::vec((0u64..10_000, any::<bool>(), 1u64..900, 0u32..101), 1..30),
        rate in 5u64..2_000,
    ) {
        let config = ArrayConfig::small_test(StrategyKind::Craid5Plus, 10_000)
            .with_migration_rate(Some(rate as f64))
            .with_qos(SloSpec::latency_target(25.0).with_floor(0.1));
        let mut a = CraidArray::new(config).unwrap();
        for b in 0..80u64 {
            let kind = if b % 3 == 0 { IoKind::Write } else { IoKind::Read };
            a.submit(SimTime::from_millis(b as f64 * 5.0), kind, BlockRange::new(b * 16 % 9_000, 4)).unwrap();
        }
        let report = a.expand(SimTime::from_secs(1.0), 4).unwrap();
        let enqueued = report.enqueued_blocks;
        prop_assert!(enqueued > 0);
        let mut t = 1.0;
        for (block, write, dt_ms, scale_pct) in ops {
            t += dt_ms as f64 / 1000.0;
            let now = SimTime::from_secs(t);
            a.set_background_throttle(now, scale_pct as f64 / 100.0);
            a.pump_background(now);
            let kind = if write { IoKind::Write } else { IoKind::Read };
            a.submit(now, kind, BlockRange::new(block, 1)).unwrap();
            let stats = a.migration_stats();
            prop_assert_eq!(
                conservation_violation("pc-migration", enqueued, &stats),
                None
            );
            prop_assert_eq!(
                colocation_violation(&a, block),
                None,
                "block {} is both pending and resident", block
            );
        }
        while !a.background_idle() {
            prop_assert!(t < 100_000.0, "the throttled drain must terminate");
            if let Some(eta) = a.background_drain_eta() {
                t = t.max(eta.as_secs());
            }
            a.pump_background(SimTime::from_secs(t));
            t += 0.001;
        }
        let stats = a.migration_stats();
        prop_assert_eq!(stats.pending_blocks, 0);
        prop_assert_eq!(conservation_violation("pc-migration", enqueued, &stats), None);
    }

    /// The engine never paces below the configured floor: whatever scales
    /// an adversarial controller requests, after time T at least
    /// `floor × rate × T` blocks (minus one batch of slack) have issued.
    #[test]
    fn prop_engine_never_paces_below_the_floor(
        scales in proptest::collection::vec(0u32..101, 1..30),
        rate in 50u64..500,
    ) {
        use craid::BackgroundEngine;
        use craid::background::TaskKind;
        const FLOOR: f64 = 0.2;
        let mut engine = BackgroundEngine::new();
        engine.attach_throttle(FLOOR);
        let total = 1_000_000u64;
        engine.push_migration(SimTime::ZERO, total, rate as f64);
        let mut t = 0.0;
        let mut issued = 0u64;
        for scale_pct in scales {
            engine.set_throttle(SimTime::from_secs(t), scale_pct as f64 / 100.0);
            let scale = engine.throttle_scale().unwrap();
            prop_assert!((FLOOR..=1.0).contains(&scale), "scale {} escaped [floor, 1]", scale);
            t += 1.0;
            for batch in engine.poll(SimTime::from_secs(t)) {
                if let craid::background::Batch::Migration { budget, .. } = batch {
                    issued += budget;
                }
            }
            let floor_target = (FLOOR * rate as f64 * t) as u64;
            prop_assert!(
                issued + craid::background::MAX_BATCH_BLOCKS >= floor_target,
                "issued {} after {}s is below the floor pace {}",
                issued, t, floor_target
            );
        }
        prop_assert!(engine.has_task(TaskKind::ExpansionMigration));
        // The drain eta stays finite and ahead: jumping there (and nudging
        // past f64 rounding) finishes the work from any throttle state.
        let eta = engine.drain_eta().expect("work remains");
        prop_assert!(eta.as_secs().is_finite());
    }
}

// ---------------------------------------------------------------------------
// Deferred-expansion satellites: observer hook + wait-for-repair policy.
// ---------------------------------------------------------------------------

/// Captures the deferred-activation observer hook.
#[derive(Default)]
struct ActivationLog {
    seen: Vec<(f64, usize)>,
}

impl Observer for ActivationLog {
    fn on_deferred_activation(&mut self, at: SimTime, added_disks: usize) {
        self.seen.push((at.as_secs(), added_disks));
    }
}

/// A queued ideal-archive expansion activating on drain fires the new
/// observer hook with the activation instant and disk count.
#[test]
fn deferred_activation_fires_the_observer_hook() {
    let scenario = Scenario::builder()
        .name("qos/deferred-hook")
        .strategy(StrategyKind::Craid5)
        .workload(WorkloadId::Wdev)
        .requests(600)
        .seed(3)
        .small_test()
        .pc_fraction(0.2)
        .migration_rate(400.0)
        .expand_at(SimTime::from_secs(2.0), 4)
        .expand_at(SimTime::from_secs(3.0), 4)
        .build();
    let mut log = ActivationLog::default();
    let outcome = scenario.run_observed(&mut log).unwrap();
    assert_eq!(outcome.expansions.len(), 2);
    assert!(outcome.expansions[1].deferred, "the second expand queued");
    assert_eq!(log.seen.len(), 1, "exactly one deferred activation fired");
    let (at, added) = log.seen[0];
    assert_eq!(added, 4);
    assert!(at >= 3.0, "activation happens after the deferral");
    let stats = &outcome.report.migration;
    assert_eq!(stats.archive_restripes_started, 2);
    assert_eq!(stats.archive_restripes_completed, 2);
}

/// The hook also fires from the end-of-trace drain: a restripe paced too
/// slowly to finish inside the trace releases its queued successor only
/// after the last record.
#[test]
fn deferred_activation_during_the_drain_reaches_the_observer() {
    let scenario = Scenario::builder()
        .name("qos/deferred-drain")
        .strategy(StrategyKind::Craid5)
        .workload(WorkloadId::Wdev)
        .requests(300)
        .seed(3)
        .small_test()
        .pc_fraction(0.2)
        .migration_rate(20.0)
        .expand_at(SimTime::from_secs(2.0), 4)
        .expand_at(SimTime::from_secs(3.0), 4)
        .build();
    let trace = scenario.trace();
    let last = trace.records().last().expect("the trace has records").time;
    let mut log = ActivationLog::default();
    let outcome = scenario.run_on(&trace, &mut log).unwrap();
    assert_eq!(log.seen.len(), 1, "exactly one deferred activation fired");
    let (at, added) = log.seen[0];
    assert_eq!(added, 4);
    assert!(
        at > last.as_secs(),
        "the activation fired in the drain ({at} s), not by the last record ({} s)",
        last.as_secs()
    );
    assert_eq!(outcome.report.migration.archive_restripes_completed, 2);
}

/// `activation = "wait-for-repair"`: an activation that comes due on a
/// degraded array holds until the rebuild completes, then fires (and the
/// hook reports the later instant).
#[test]
fn wait_for_repair_holds_activation_until_the_array_heals() {
    let mut config = ArrayConfig::small_test(StrategyKind::Craid5, 10_000)
        .with_migration_rate(Some(100_000.0))
        .with_activation(ActivationPolicy::WaitForRepair);
    config.rebuild_rate_blocks_per_sec = 50.0; // the rebuild outlasts the restripe
    let mut a = CraidArray::new(config).unwrap();
    a.expand(SimTime::from_secs(1.0), 4).unwrap();
    let second = a.expand(SimTime::from_secs(1.5), 4).unwrap();
    assert!(second.deferred);
    a.fail_disk(SimTime::from_secs(2.0), 2).unwrap();
    a.repair_disk(SimTime::from_secs(2.5), 2).unwrap();
    let mut t = 3.0;
    // Pump until the restripe has drained; the activation must keep
    // holding while the rebuild is still streaming.
    while a.migration_stats().archive_restripes_completed == 0 && t < 5_000.0 {
        a.pump_background(SimTime::from_secs(t));
        t += 0.5;
    }
    assert_eq!(a.migration_stats().archive_restripes_completed, 1);
    // Precondition of the whole test: the rebuild must outlast the
    // restripe, or the held-activation assertions below would be vacuous.
    assert_eq!(
        a.fault_stats().rebuilds_completed,
        0,
        "the rebuild must still be streaming when the restripe drains"
    );
    assert_eq!(a.disk_count(), 12, "activation holds while degraded");
    assert_eq!(a.deferred_expansions(), 1);
    assert!(a.take_activations().is_empty());
    while a.fault_stats().rebuilds_completed == 0 && t < 5_000.0 {
        a.pump_background(SimTime::from_secs(t));
        t += 0.5;
    }
    // The pump that completed the rebuild released the activation.
    a.pump_background(SimTime::from_secs(t));
    assert_eq!(a.disk_count(), 16, "the queued expansion activated");
    assert_eq!(a.deferred_expansions(), 0);
    let activations = a.take_activations();
    assert_eq!(activations.len(), 1);
    assert_eq!(activations[0].added_disks, 4);
    assert!(activations[0].at >= SimTime::from_secs(2.5));
}

/// A deferred expansion blocked by wait-for-repair on a disk that is never
/// repaired does not hang the end-of-trace drain: the engine drains, the
/// array reports idle, and the queued expansion survives visibly.
#[test]
fn wait_for_repair_with_unrepaired_disk_does_not_hang_the_drain() {
    let scenario = Scenario::builder()
        .name("qos/blocked-activation")
        .strategy(StrategyKind::Craid5)
        .workload(WorkloadId::Wdev)
        .requests(400)
        .seed(3)
        .small_test()
        .pc_fraction(0.2)
        .migration_rate(5_000.0)
        .activation(ActivationPolicy::WaitForRepair)
        .expand_at(SimTime::from_secs(1.0), 4)
        .expand_at(SimTime::from_secs(1.5), 4)
        .fail_disk_at(SimTime::from_secs(2.0), 2)
        .build();
    let mut log = ActivationLog::default();
    let outcome = scenario.run_observed(&mut log).unwrap();
    // The run terminated (this test completing is the point) with the
    // activation still blocked: no hook fired, one restripe completed.
    assert!(log.seen.is_empty(), "the blocked activation never fired");
    assert_eq!(outcome.report.migration.archive_restripes_started, 1);
    assert_eq!(outcome.report.migration.archive_restripes_completed, 1);
    assert_eq!(outcome.report.fault.disk_failures, 1);
    assert_eq!(outcome.report.fault.rebuilds_completed, 0);
}

/// The default activation policy still activates unconditionally on a
/// degraded array — pinned so the satellite cannot change existing
/// behaviour.
#[test]
fn immediate_activation_still_fires_on_a_degraded_array() {
    let config =
        ArrayConfig::small_test(StrategyKind::Craid5, 10_000).with_migration_rate(Some(100_000.0));
    let mut a = CraidArray::new(config).unwrap();
    a.expand(SimTime::from_secs(1.0), 4).unwrap();
    let second = a.expand(SimTime::from_secs(1.5), 4).unwrap();
    assert!(second.deferred);
    a.fail_disk(SimTime::from_secs(2.0), 2).unwrap();
    let mut t = 3.0;
    while a.migration_stats().archive_restripes_completed == 0 && t < 5_000.0 {
        a.pump_background(SimTime::from_secs(t));
        t += 0.5;
    }
    a.pump_background(SimTime::from_secs(t));
    assert_eq!(a.disk_count(), 16, "immediate activation ignores health");
    assert_eq!(a.take_activations().len(), 1);
}

/// A scheduled `expand` whose timeline also carries a `[qos]` spec keeps
/// the whole event machinery working end to end (TOML scenario → throttled
/// run → report), including serde of the new `[array.qos]` table.
#[test]
fn toml_scenario_with_qos_round_trips_and_runs() {
    let text = r#"
        name = "qos drill (test)"
        strategy = "RAID-5"

        [workload]
        id = "wdev"
        requests = 400
        seed = 7

        [array]
        preset = "small-test"
        pc_fraction = 0.2
        migration_rate = 20000.0

        [array.qos]
        target_latency_ms = 30.0
        floor = 0.05
        window_secs = 2.0

        [[events]]
        kind = "expand"
        at_secs = 4.0
        added_disks = 4
    "#;
    let scenario = Scenario::from_toml(text).unwrap();
    let round = Scenario::from_toml(&scenario.to_toml().unwrap()).unwrap();
    assert_eq!(round, scenario);
    let outcome = scenario.run().unwrap();
    assert!(outcome.report.qos.enabled);
    assert!(outcome.report.qos.decisions > 0);
}
