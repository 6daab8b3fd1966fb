//! Pins the replay loop's request path at no heap allocation per record
//! once warm.
//!
//! This test binary installs a counting global allocator: `System`, plus a
//! per-thread count of allocations and reallocations, so tests running in
//! parallel threads never see each other's counts. Each scenario is replayed
//! with `Scenario::run_on` at about N and about 2N records, on traces
//! generated outside the counted region. Set-up costs the same at both
//! sizes, so the difference between the two counts is what the extra N
//! records allocated:
//!
//! * on the paper-preset CRAID-5 `wdev` replay (no events) the monitor,
//!   the redirector, the planner, the devices and the metrics fold must
//!   allocate nothing per record: the extra records may add at most N/100
//!   allocations;
//! * the same holds for the RAID-5 baseline, whose requests skip the
//!   monitor and plan straight onto the archive, for the aggregated
//!   CRAID-5+ archive, and for CRAID-5 with its cache partition on
//!   dedicated SSDs;
//! * on a RAID-5 restripe of `proj` with a disk failure and repair inside
//!   it, and on a CRAID-5 hot-first upgrade of `deasna` under a QoS target
//!   with a disk failure and repair, the background engine's returned
//!   batches still allocate when a poll issues work (fewer than one poll
//!   per record), so the extra records may add at most N allocations.
//!
//! Before the planner, the array and the replay loop reused their buffers,
//! both replays made 12–14 allocations per record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use craid::{BackgroundPriority, NullObserver, Scenario, ScheduledEvent, SloSpec, StrategyKind};
use craid_simkit::SimTime;
use craid_trace::WorkloadId;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's allocations and reallocations while [`COUNTING`]
/// is set.
fn note_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only `Copy` thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Replays `scenario` once on its own trace and returns the trace's record
/// count and the allocations the replay made on this thread.
fn count_replay(scenario: &Scenario) -> (u64, u64) {
    let trace = scenario.trace();
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let outcome = scenario.run_on(&trace, &mut NullObserver);
    COUNTING.with(|on| on.set(false));
    let allocations = ALLOCATIONS.with(Cell::get);
    let outcome = outcome.expect("the scenario runs");
    assert_eq!(outcome.report.requests, trace.len() as u64);
    (trace.len() as u64, allocations)
}

/// Replays `build(requests)` at `requests` and at twice that, and returns
/// the smaller replay's record count and how many more allocations the
/// larger one made.
fn extra_allocations(build: impl Fn(u64) -> Scenario, requests: u64) -> (u64, u64) {
    let (n, small) = count_replay(&build(requests));
    let (two_n, large) = count_replay(&build(2 * requests));
    assert!(
        two_n >= 2 * n - n / 10,
        "the larger trace has {two_n} records, not about twice {n}"
    );
    eprintln!("{n} records: {small} allocations; {two_n} records: {large} allocations");
    (n, large.saturating_sub(small))
}

/// The paper-preset `strategy` array replaying `wdev`, with no events.
fn steady_wdev(strategy: StrategyKind, requests: u64) -> Scenario {
    Scenario::builder()
        .strategy(strategy)
        .workload(WorkloadId::Wdev)
        .requests(requests)
        .seed(2)
        .paper()
        .pc_fraction(0.2)
        .build()
}

/// The paper-preset CRAID-5 array replaying `wdev`, with no events.
fn craid5_wdev(requests: u64) -> Scenario {
    steady_wdev(StrategyKind::Craid5, requests)
}

/// Asserts that replaying `strategy`'s steady `wdev` scenario at 2N
/// records allocates at most N/100 more times than at N.
fn assert_steady_wdev_allocates_nothing_per_record(strategy: StrategyKind) {
    let (n, extra) = extra_allocations(|requests| steady_wdev(strategy, requests), 20_000);
    assert!(
        extra <= n / 100,
        "{strategy}: {n} more records made {extra} more allocations (at most {} allowed)",
        n / 100
    );
}

/// A RAID-5 array replaying `proj` through a paced restripe onto 10 more
/// disks, with a disk failing and being repaired while it runs (the
/// replay benchmark's `restripe_raid5_proj` drill, shrunk).
fn raid5_restripe_proj(requests: u64) -> Scenario {
    let mut scenario = Scenario::builder()
        .strategy(StrategyKind::Raid5)
        .workload(WorkloadId::Proj)
        .requests(requests)
        .seed(2)
        .paper()
        .pc_fraction(0.2)
        .build();
    let duration = scenario.static_duration_secs();
    let rate = scenario.static_footprint_blocks() as f64 / (duration * 0.5);
    scenario.array.migration_rate = Some(rate);
    scenario.array.rebuild_rate = Some(rate);
    let at = |fraction: f64| SimTime::from_secs(duration * fraction);
    scenario.events = vec![
        ScheduledEvent::expand(at(0.12), 10),
        ScheduledEvent::disk_failure(at(0.3), 3),
        ScheduledEvent::disk_repair(at(0.35), 3),
    ];
    scenario
}

/// A CRAID-5 array replaying `deasna` through a hot-first paced upgrade
/// onto 10 more disks under a 10 ms QoS latency target, with a disk
/// failing and being repaired after it (the replay benchmark's
/// `upgrade_qos_deasna` drill, shrunk).
fn craid5_upgrade_qos_deasna(requests: u64) -> Scenario {
    let mut scenario = Scenario::builder()
        .strategy(StrategyKind::Craid5)
        .workload(WorkloadId::Deasna)
        .requests(requests)
        .seed(2)
        .paper()
        .pc_fraction(0.2)
        .build();
    let duration = scenario.static_duration_secs();
    let rate = scenario.static_footprint_blocks() as f64 / (duration * 0.5);
    scenario.array.background_priority = Some(BackgroundPriority::HotFirst);
    scenario.array.qos = Some(SloSpec::latency_target(10.0));
    scenario.array.migration_rate = Some(rate);
    scenario.array.rebuild_rate = Some(rate);
    let at = |fraction: f64| SimTime::from_secs(duration * fraction);
    scenario.events = vec![
        ScheduledEvent::expand(at(0.25), 10),
        ScheduledEvent::disk_failure(at(0.45), 3),
        ScheduledEvent::disk_repair(at(0.5), 3),
    ];
    scenario
}

#[test]
fn craid5_wdev_replay_allocates_nothing_per_record() {
    let (n, extra) = extra_allocations(craid5_wdev, 20_000);
    assert!(
        extra <= n / 100,
        "{n} more records made {extra} more allocations (at most {} allowed)",
        n / 100
    );
}

#[test]
fn raid5_restripe_replay_allocates_under_one_per_record() {
    let (n, extra) = extra_allocations(raid5_restripe_proj, 20_000);
    assert!(
        extra <= n,
        "{n} more records made {extra} more allocations (at most {n} allowed)"
    );
    // The restripe and the rebuild really ran inside the replay.
    let outcome = raid5_restripe_proj(20_000)
        .run()
        .expect("the scenario runs");
    assert_eq!(outcome.report.migration.migrations_completed, 1);
    assert_eq!(outcome.report.fault.rebuilds_completed, 1);
}

#[test]
fn raid5_wdev_replay_allocates_nothing_per_record() {
    assert_steady_wdev_allocates_nothing_per_record(StrategyKind::Raid5);
}

#[test]
fn craid5plus_wdev_replay_allocates_nothing_per_record() {
    assert_steady_wdev_allocates_nothing_per_record(StrategyKind::Craid5Plus);
}

#[test]
fn craid5_ssd_wdev_replay_allocates_nothing_per_record() {
    assert_steady_wdev_allocates_nothing_per_record(StrategyKind::Craid5Ssd);
}

#[test]
fn craid5_upgrade_qos_replay_allocates_under_one_per_record() {
    let (n, extra) = extra_allocations(craid5_upgrade_qos_deasna, 20_000);
    assert!(
        extra <= n,
        "{n} more records made {extra} more allocations (at most {n} allowed)"
    );
    // The upgrade, the rebuild and the QoS controller really ran.
    let report = craid5_upgrade_qos_deasna(20_000)
        .run()
        .expect("the scenario runs")
        .report;
    assert_eq!(report.migration.migrations_completed, 1);
    assert_eq!(report.migration.archive_restripes_completed, 1);
    assert_eq!(report.fault.rebuilds_completed, 1);
    assert!(report.fault.degraded_reads > 0);
    assert!(report.qos.throttle_changes > 0);
}
