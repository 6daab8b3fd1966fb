//! # craid-bench
//!
//! The experiment harness reproducing every table and figure of the CRAID
//! paper's evaluation (§5). Each `cargo bench` target regenerates one
//! artifact and prints the same rows or series the paper reports; this
//! library holds the shared plumbing: workload preparation, declarative
//! sweeps over the paper's experiment matrix, and table formatting.
//!
//! Simulation sweeps are expressed as [`Campaign::sweep`]s over
//! {workloads × cache-partition fractions × strategies}; the engine runs
//! them in parallel and [`Sweep`] indexes the outcomes for printing. The
//! bench targets contain no hand-rolled sweep loops.
//!
//! The harness runs scaled-down versions of the paper's workloads (the scale
//! is reported in every header). Absolute numbers therefore differ from the
//! paper's testbed, but the comparative shape — which strategy wins, by
//! roughly what factor, and where the crossovers are — is what each bench
//! asserts and prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use craid::{Campaign, CraidError, Scenario, ScenarioOutcome, SimulationReport, StrategyKind};
use craid_trace::{SyntheticWorkload, Trace, WorkloadId};

/// Number of client requests each scaled workload is generated with.
/// Chosen so the full Figure 4/6 sweeps finish in seconds while still giving
/// stable means.
pub const TARGET_REQUESTS: u64 = 8_000;

/// Deterministic seed used for every generated workload.
pub const SEED: u64 = 20_140_217; // FAST '14 opening day

/// Cache-partition sizes swept by the response-time experiments, expressed
/// as a fraction of the workload footprint. The paper sweeps "% per disk";
/// with scaled footprints the equivalent knob is the footprint fraction
/// (each step doubles the partition, like the paper's x-axes).
pub const PC_SWEEP: [f64; 4] = [0.05, 0.1, 0.2, 0.4];

/// The four strategies that depend on the cache-partition size.
pub const CRAID_STRATEGIES: [StrategyKind; 4] = [
    StrategyKind::Craid5,
    StrategyKind::Craid5Plus,
    StrategyKind::Craid5Ssd,
    StrategyKind::Craid5PlusSsd,
];

/// The two baselines, run once per workload (their shape does not depend on
/// the cache-partition size).
pub const BASELINES: [StrategyKind; 2] = [StrategyKind::Raid5, StrategyKind::Raid5Plus];

/// All seven paper workloads.
pub fn workloads() -> Vec<WorkloadId> {
    WorkloadId::ALL.to_vec()
}

/// Generates the scaled synthetic trace for a workload.
pub fn gen_trace(id: WorkloadId) -> Trace {
    SyntheticWorkload::paper_scaled_to(id, TARGET_REQUESTS).generate(SEED)
}

/// The scenario every bench builds on: the paper's array shape replaying
/// the harness's scaled workload.
pub fn base_scenario(id: WorkloadId) -> Scenario {
    Scenario::builder()
        .name(format!("bench/{id}"))
        .workload(id)
        .requests(TARGET_REQUESTS)
        .seed(SEED)
        .paper()
        .pc_fraction(PC_SWEEP[0])
        .build()
}

/// A finished {workloads × pc-fractions × strategies} sweep with outcome
/// lookup by key.
pub struct Sweep {
    outcomes: Vec<ScenarioOutcome>,
}

impl Sweep {
    /// Declares and runs the cartesian sweep in parallel.
    ///
    /// # Errors
    ///
    /// Returns the first scenario error, if any configuration is invalid.
    pub fn run(
        workloads: &[WorkloadId],
        pc_fractions: &[f64],
        strategies: &[StrategyKind],
    ) -> Result<Sweep, CraidError> {
        Sweep::of(
            &base_scenario(WorkloadId::Wdev),
            workloads,
            pc_fractions,
            strategies,
        )
    }

    /// Like [`Sweep::run`] but around an explicit base scenario (request
    /// count, seeds, and overrides are taken from it).
    ///
    /// # Errors
    ///
    /// Returns the first scenario error, if any configuration is invalid.
    pub fn of(
        base: &Scenario,
        workloads: &[WorkloadId],
        pc_fractions: &[f64],
        strategies: &[StrategyKind],
    ) -> Result<Sweep, CraidError> {
        let outcomes = Campaign::sweep(base, workloads, pc_fractions, strategies).run()?;
        Ok(Sweep { outcomes })
    }

    /// Runs an explicit scenario list as one campaign (used by benches that
    /// combine a CRAID sweep with the partition-independent baselines, so
    /// every workload trace is generated exactly once).
    ///
    /// # Errors
    ///
    /// Returns the first scenario error, if any configuration is invalid.
    pub fn of_scenarios(scenarios: Vec<Scenario>) -> Result<Sweep, CraidError> {
        let outcomes = Campaign::new(scenarios).run()?;
        Ok(Sweep { outcomes })
    }

    /// The Figure 4/6 shape: a {workloads × fractions × CRAID strategies}
    /// sweep plus the two partition-independent baselines at the first
    /// fraction, all as one campaign so every workload trace is generated
    /// exactly once. Baseline cells are keyed by `pc_fractions[0]`.
    ///
    /// # Errors
    ///
    /// Returns the first scenario error, if any configuration is invalid.
    pub fn with_baselines(
        workloads: &[WorkloadId],
        pc_fractions: &[f64],
        strategies: &[StrategyKind],
    ) -> Result<Sweep, CraidError> {
        let base = base_scenario(WorkloadId::Wdev);
        let mut scenarios = Campaign::sweep(&base, workloads, pc_fractions, strategies)
            .scenarios()
            .to_vec();
        scenarios.extend(
            Campaign::sweep(&base, workloads, &pc_fractions[..1], &BASELINES)
                .scenarios()
                .to_vec(),
        );
        Sweep::of_scenarios(scenarios)
    }

    /// The outcome of one cell of the sweep.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not part of the sweep.
    pub fn outcome(
        &self,
        workload: WorkloadId,
        pc_fraction: f64,
        strategy: StrategyKind,
    ) -> &ScenarioOutcome {
        self.outcomes
            .iter()
            .find(|o| {
                o.workload == workload && o.pc_fraction == pc_fraction && o.strategy == strategy
            })
            .unwrap_or_else(|| panic!("sweep has no cell ({workload}, {pc_fraction}, {strategy})"))
    }

    /// The report of one cell of the sweep.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not part of the sweep.
    pub fn report(
        &self,
        workload: WorkloadId,
        pc_fraction: f64,
        strategy: StrategyKind,
    ) -> &SimulationReport {
        &self.outcome(workload, pc_fraction, strategy).report
    }
}

/// Prints a section header shared by every bench target.
pub fn print_header(artifact: &str, description: &str) {
    println!();
    println!("================================================================================");
    println!("{artifact}: {description}");
    println!(
        "(synthetic workloads scaled to ~{TARGET_REQUESTS} requests each, seed {SEED}; shapes, not absolute numbers, are the comparison target)"
    );
    println!("================================================================================");
}

/// Formats a fixed-width row from string cells.
pub fn row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Formats a fixed-width header row.
pub fn header_row(cells: &[&str]) -> String {
    row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>())
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio as a percentage with 2 decimals.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_cells_are_right_aligned_and_rounded() {
        assert_eq!(f2(1.239), "1.24");
        assert_eq!(pct(0.12345), "12.35%");
        assert_eq!(header_row(&["a", "b"]), format!("{:>14} {:>14}", "a", "b"));
    }

    #[test]
    fn trace_generation_is_fast_and_deterministic() {
        let a = gen_trace(WorkloadId::Wdev);
        let b = gen_trace(WorkloadId::Wdev);
        assert_eq!(a.len(), b.len());
        assert!(a.len() as u64 >= 4_000);
    }

    #[test]
    fn base_scenario_matches_the_harness_trace() {
        let scenario = base_scenario(WorkloadId::Webusers);
        let trace = scenario.trace();
        let direct = gen_trace(WorkloadId::Webusers);
        assert_eq!(trace.len(), direct.len());
        assert_eq!(trace.footprint_blocks(), direct.footprint_blocks());
        let config = scenario.array_config(&trace);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn sweep_lookup_finds_every_cell() {
        let mut base = base_scenario(WorkloadId::Wdev);
        base.workload.requests = 1_500; // keep the unit test quick
        let sweep = Sweep::of(
            &base,
            &[WorkloadId::Wdev],
            &[0.1, 0.2],
            &[StrategyKind::Raid5, StrategyKind::Craid5],
        )
        .expect("sweep configuration is valid");
        assert_eq!(sweep.outcomes.len(), 4);
        let report = sweep.report(WorkloadId::Wdev, 0.2, StrategyKind::Craid5);
        assert!(report.requests > 0);
        assert!(report.craid.is_some());
    }

    #[test]
    fn scenario_overrides_produce_a_report() {
        let mut scenario = base_scenario(WorkloadId::Wdev);
        scenario.strategy = StrategyKind::Craid5;
        scenario.array.pc_fraction = 0.2;
        scenario.workload.requests = 1_500; // keep the unit test quick
        let outcome = scenario.run().expect("valid configuration");
        assert!(outcome.report.requests > 0);
        assert!(outcome.report.craid.is_some());
    }
}
