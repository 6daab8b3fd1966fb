//! The benchmark's workloads: three drills built through the public
//! [`Scenario`] API, each chosen to exercise some layers and bypass others.
//!
//! Every workload uses the paper preset (50 disks, parity groups of 10,
//! WLRU) with a cache partition of 20% of the footprint. The simulated load
//! is open loop: records are issued at their trace timestamps. Event times
//! are fractions of the trace's scheduled duration and maintenance rates are
//! derived from the footprint, so a workload keeps its shape at any scale.

use craid::{
    BackgroundPriority, Scenario, ScheduledEvent, SimulationReport, SloSpec, StrategyKind,
};
use craid_simkit::SimTime;
use craid_trace::WorkloadId;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CRAID-5 on wdev at full scale, no events: the paper's steady state.
    SteadyWdev,
    /// CRAID-5 on deasna: paced hot-first upgrade, a disk failure and
    /// repair inside the upgrade window, and an SLO that engages.
    UpgradeQosDeasna,
    /// RAID-5 on proj: a paced conventional restripe plus a disk failure
    /// and repair.
    RestripeRaid5Proj,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SteadyWdev,
        Workload::UpgradeQosDeasna,
        Workload::RestripeRaid5Proj,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyWdev => "steady_wdev",
            Workload::UpgradeQosDeasna => "upgrade_qos_deasna",
            Workload::RestripeRaid5Proj => "restripe_raid5_proj",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload was chosen (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SteadyWdev => {
                "CRAID-5 steady state on write-heavy wdev: monitor, cache policy, redirector and \
                 devices carry the replay; pump and QoS do no work"
            }
            Workload::UpgradeQosDeasna => {
                "CRAID-5 online hot-first upgrade on read-heavy deasna with a disk failure, \
                 rebuild and an engaged QoS SLO: the paper's headline claim under degraded mode"
            }
            Workload::RestripeRaid5Proj => {
                "RAID-5 conventional paced restripe plus rebuild on proj's large footprint: the \
                 pump dominates and there is no monitor or cache partition"
            }
        }
    }

    /// Trace records requested at full scale (the generator rounds to its
    /// own scale factor; wdev's whole trace is smaller than this, so it
    /// replays at full scale).
    pub fn full_requests(self) -> u64 {
        match self {
            Workload::SteadyWdev => 500_000,
            Workload::UpgradeQosDeasna | Workload::RestripeRaid5Proj => 400_000,
        }
    }

    /// True for the workloads whose array is CRAID (has a monitor and a
    /// cache partition).
    pub fn is_craid(self) -> bool {
        !matches!(self, Workload::RestripeRaid5Proj)
    }

    /// Builds the scenario for `seed`, with the request count divided by
    /// `shrink` (1 for the published benchmark; the tests shrink it).
    pub fn scenario(self, seed: u64, shrink: u64) -> Scenario {
        let requests = (self.full_requests() / shrink.max(1)).max(1);
        let (strategy, id) = match self {
            Workload::SteadyWdev => (StrategyKind::Craid5, WorkloadId::Wdev),
            Workload::UpgradeQosDeasna => (StrategyKind::Craid5, WorkloadId::Deasna),
            Workload::RestripeRaid5Proj => (StrategyKind::Raid5, WorkloadId::Proj),
        };
        let mut scenario = Scenario::builder()
            .name(self.name())
            .strategy(strategy)
            .workload(id)
            .requests(requests)
            .seed(seed)
            .paper()
            .pc_fraction(0.2)
            .build();
        let duration = scenario.static_duration_secs();
        // Upgrades move the whole footprint (the archive restripe, or the
        // RAID-5 restripe); pace them to take about half the trace at full
        // throttle. The rebuild runs at the same pace, which keeps it a
        // visible window.
        let maintenance_rate = scenario.static_footprint_blocks() as f64 / (duration * 0.5);
        let at = |fraction: f64| SimTime::from_secs(duration * fraction);
        let (expand, fail, repair) = match self {
            Workload::SteadyWdev => return scenario,
            Workload::UpgradeQosDeasna => {
                scenario.array.background_priority = Some(BackgroundPriority::HotFirst);
                scenario.array.qos = Some(SloSpec::latency_target(10.0));
                (0.25, 0.45, 0.5)
            }
            Workload::RestripeRaid5Proj => (0.12, 0.3, 0.35),
        };
        scenario.array.migration_rate = Some(maintenance_rate);
        scenario.array.rebuild_rate = Some(maintenance_rate);
        scenario.events = vec![
            ScheduledEvent::expand(at(expand), 10),
            ScheduledEvent::disk_failure(at(fail), 3),
            ScheduledEvent::disk_repair(at(repair), 3),
        ];
        scenario
    }
}

/// Checks that a finished run still exercises what its workload was chosen
/// for, from the report alone (the traced run adds layer-level checks).
/// Returns every broken expectation.
pub fn report_bypass_failures(workload: Workload, report: &SimulationReport) -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            failures.push(format!("{}: expected {what}", workload.name()));
        }
    };
    let fault = &report.fault;
    let migration = &report.migration;
    match workload {
        Workload::SteadyWdev => {
            expect(report.craid.is_some(), "a cache partition");
            expect(!report.qos.enabled, "no QoS controller");
            expect(
                !migration.any_migrations() && !migration.any_archive_restripes(),
                "no migration",
            );
            expect(!fault.any_faults(), "no disk failure");
        }
        Workload::UpgradeQosDeasna => {
            expect(report.craid.is_some(), "a cache partition");
            expect(report.qos.throttle_changes > 0, "QoS retargets > 0");
            expect(fault.degraded_reads > 0, "degraded reads > 0");
            expect(
                migration.migrations_completed >= 1,
                "the cache-partition migration to complete",
            );
            expect(
                migration.archive_restripes_completed >= 1,
                "the archive restripe to complete",
            );
            expect(fault.rebuilds_completed >= 1, "the rebuild to complete");
        }
        Workload::RestripeRaid5Proj => {
            expect(report.craid.is_none(), "no monitor or cache partition");
            expect(!report.qos.enabled, "no QoS controller");
            expect(
                migration.migrations_completed >= 1,
                "the restripe migration to complete",
            );
            expect(fault.rebuilds_completed >= 1, "the rebuild to complete");
        }
    }
    failures
}
