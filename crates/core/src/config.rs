//! Array and experiment configuration.

use serde::{Deserialize, Serialize};

use craid_cache::PolicyKind;
use craid_diskmodel::{HddParameters, SsdParameters};

use crate::error::CraidError;

/// The six allocation policies compared in the paper's evaluation (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// An ideally restriped RAID-5 using every disk (upper baseline).
    Raid5,
    /// A RAID-5 grown by aggregation: independent RAID-5 sets added per
    /// upgrade (realistic baseline).
    Raid5Plus,
    /// CRAID with a RAID-5 cache partition over all disks and an ideally
    /// restriped RAID-5 archive.
    Craid5,
    /// CRAID with a RAID-5 cache partition over all disks and an aggregated
    /// RAID-5+ archive.
    Craid5Plus,
    /// CRAID with the cache partition on dedicated SSDs and a RAID-5 archive.
    Craid5Ssd,
    /// CRAID with the cache partition on dedicated SSDs and a RAID-5+
    /// archive.
    Craid5PlusSsd,
}

impl StrategyKind {
    /// Every strategy of the paper's evaluation, in its plotting order.
    pub const ALL: [StrategyKind; 6] = [
        StrategyKind::Raid5,
        StrategyKind::Raid5Plus,
        StrategyKind::Craid5,
        StrategyKind::Craid5Plus,
        StrategyKind::Craid5Ssd,
        StrategyKind::Craid5PlusSsd,
    ];

    /// The label used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Raid5 => "RAID-5",
            StrategyKind::Raid5Plus => "RAID-5+",
            StrategyKind::Craid5 => "CRAID-5",
            StrategyKind::Craid5Plus => "CRAID-5+",
            StrategyKind::Craid5Ssd => "CRAID-5ssd",
            StrategyKind::Craid5PlusSsd => "CRAID-5+ssd",
        }
    }

    /// True for the four CRAID variants (they carry a cache partition).
    pub fn is_craid(self) -> bool {
        !matches!(self, StrategyKind::Raid5 | StrategyKind::Raid5Plus)
    }

    /// True when an archive restripe is this strategy's upgrade migration
    /// and so reports on [`MigrationStats`](crate::report::MigrationStats)'
    /// main `migrations_*` line: an array without a cache partition has no
    /// other data to move. The CRAID variants report their restripe on the
    /// `archive_*` line, apart from the cache-partition redistribution.
    pub fn restripe_is_migration(self) -> bool {
        !self.is_craid()
    }

    /// True when the cache partition lives on dedicated SSDs.
    pub fn uses_ssd_cache(self) -> bool {
        matches!(self, StrategyKind::Craid5Ssd | StrategyKind::Craid5PlusSsd)
    }

    /// True when the archive partition is the aggregation of independent
    /// RAID-5 sets (the "+" variants).
    pub fn archive_is_aggregated(self) -> bool {
        matches!(
            self,
            StrategyKind::Raid5Plus | StrategyKind::Craid5Plus | StrategyKind::Craid5PlusSsd
        )
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = String;

    /// Parses either the paper's figure label (`"CRAID-5+ssd"`) or the
    /// variant identifier (`"Craid5PlusSsd"`), case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Normalize: drop dashes/underscores, lowercase, and let "plus"
        // stand in for "+", so every spelling collapses to one key.
        let key: String = s
            .trim()
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .collect::<String>()
            .to_ascii_lowercase()
            .replace("plus", "+");
        StrategyKind::ALL
            .into_iter()
            .find(|k| k.name().replace('-', "").to_ascii_lowercase() == key)
            .ok_or_else(|| {
                format!(
                    "unknown strategy '{s}' (expected one of: {})",
                    StrategyKind::ALL.map(|k| k.name()).join(", ")
                )
            })
    }
}

// Strategies serialize as their figure labels so scenario files can name
// them the way the paper does (`strategy = "CRAID-5+"`).
impl Serialize for StrategyKind {
    fn serialize(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl Deserialize for StrategyKind {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("strategy name", value))?;
        s.parse().map_err(serde::Error::custom)
    }
}

/// When a deferred expansion (queued behind an in-flight archive restripe)
/// is allowed to activate once that restripe drains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ActivationPolicy {
    /// Activate unconditionally the moment the blocking restripe drains —
    /// even on a degraded array (the activation's maintenance I/O runs
    /// through the degraded planner like any other traffic). The
    /// pre-existing behaviour and the default.
    #[default]
    Immediate,
    /// Wait until the array is healthy: an activation that comes due while
    /// a disk is failed or rebuilding holds until the rebuild completes
    /// (or, if the disk is never repaired, indefinitely — the deferred
    /// queue then survives the run and is visible via
    /// `deferred_expansions`).
    WaitForRepair,
}

impl ActivationPolicy {
    /// The serialized name.
    pub fn name(self) -> &'static str {
        match self {
            ActivationPolicy::Immediate => "immediate",
            ActivationPolicy::WaitForRepair => "wait-for-repair",
        }
    }
}

impl std::fmt::Display for ActivationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ActivationPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().replace('_', "-").as_str() {
            "immediate" => Ok(ActivationPolicy::Immediate),
            "wait-for-repair" | "waitforrepair" => Ok(ActivationPolicy::WaitForRepair),
            other => Err(format!(
                "unknown activation policy '{other}' (expected immediate or wait-for-repair)"
            )),
        }
    }
}

impl Serialize for ActivationPolicy {
    fn serialize(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl Deserialize for ActivationPolicy {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("activation policy name", value))?;
        s.parse().map_err(serde::Error::custom)
    }
}

/// Complete description of one simulated array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// Allocation policy under test.
    pub strategy: StrategyKind,
    /// Number of mechanical disks in the array (the paper uses 50).
    pub disks: usize,
    /// Parity-group width for RAID-5 layouts (the paper uses 10).
    pub parity_group: usize,
    /// Stripe unit in 4 KiB blocks. The paper uses 32 (128 KiB); the scaled
    /// experiments default to 8 so that stripe geometry stays proportionate
    /// to the scaled-down footprints.
    pub stripe_unit: u64,
    /// Number of dedicated SSDs for the `*ssd` strategies (the paper adds 5).
    pub ssd_cache_devices: usize,
    /// Requested cache-partition capacity in data blocks. Ignored by the
    /// baseline strategies. The realised capacity is rounded up to whole
    /// stripe rows.
    pub pc_capacity_blocks: u64,
    /// Client-visible volume size in blocks (the trace's footprint).
    pub dataset_blocks: u64,
    /// Replacement policy for the I/O monitor (the paper settles on
    /// WLRU(0.5)).
    pub policy: PolicyKind,
    /// Disk counts of the aggregation steps used by RAID-5+ archives
    /// (the paper's schedule grows 10 → 50 disks in ≈30 % steps).
    pub expansion_sets: Vec<usize>,
    /// Parameters of the mechanical disks, their size in blocks
    /// (`capacity_blocks`) included. The paper preset keeps the full
    /// Cheetah 15K.5 capacity so seek distances stay realistic; the dataset
    /// is scattered across the archive partition by the dataset mapper.
    pub hdd: HddParameters,
    /// Parameters of the dedicated SSDs.
    pub ssd: SsdParameters,
    /// Seed for the dataset-scatter permutation.
    pub seed: u64,
    /// Pace of the background rebuild after a `DiskRepair` event, in blocks
    /// reconstructed onto the hot spare per simulated second. The default
    /// (25 600 blocks ≈ 100 MiB/s) matches a sequential rebuild stream on
    /// the modeled spindles.
    pub rebuild_rate_blocks_per_sec: f64,
    /// Pace of the background migration an `Expand` event enqueues, in
    /// blocks moved to their post-upgrade home per simulated second. `None`
    /// (the default) and `+inf` both mean *instant*: the upgrade migrates
    /// everything atomically at event time, as the pre-engine
    /// implementation did.
    pub migration_rate_blocks_per_sec: Option<f64>,
    /// The order the background engine issues rebuild and migration blocks
    /// in ([`Sequential`](crate::background::BackgroundPriority::Sequential)
    /// by default; `HotFirst` moves the I/O monitor's hottest blocks first —
    /// the CRAID move).
    pub background_priority: crate::background::BackgroundPriority,
    /// Fair-share weight of rebuild tasks on the background engine. When a
    /// rebuild and a migration are both behind pace in the same poll, the
    /// contended batch budget is split `rebuild_share : migration_share`
    /// between them (default 1.0 — equal shares).
    pub rebuild_share: f64,
    /// Fair-share weight of expansion-migration and archive-restripe tasks
    /// on the background engine (default 1.0 — equal shares).
    pub migration_share: f64,
    /// Service-level objective for the QoS control subsystem. When set, a
    /// [`QosController`](crate::qos::QosController) watches client service
    /// quality and adaptively throttles the background engine between the
    /// spec's maintenance floor and the configured rates. `None` (the
    /// default) disables QoS entirely — the engine keeps its static cap,
    /// bit-for-bit the pre-QoS behaviour.
    pub qos: Option<crate::qos::SloSpec>,
    /// When a deferred expansion may activate once the archive restripe
    /// blocking it drains (default: immediately, even on a degraded array).
    pub activation: ActivationPolicy,
}

impl ArrayConfig {
    /// The paper's testbed shape: 50 disks, parity groups of 10, the
    /// RAID-5+ aggregation schedule 10 → 13 → 17 → 22 → 29 → 38 → 50, five
    /// dedicated SSDs, WLRU(0.5).
    ///
    /// `dataset_blocks` is the trace footprint; `pc_capacity_blocks` the
    /// requested cache-partition size (in blocks).
    pub fn paper(strategy: StrategyKind, dataset_blocks: u64, pc_capacity_blocks: u64) -> Self {
        // The drive's DRAM cache is scaled down together with the workload
        // footprint: a full 16 MiB per-disk buffer against a few-hundred-MB
        // scaled dataset would absorb nearly all re-reads and hide the
        // mechanical effects the comparison is about.
        let mut hdd = HddParameters::cheetah_15k5();
        hdd.cache_bytes = 4 * 1024 * 1024;
        hdd.cache_segments = 8;
        hdd.readahead_blocks = 16;
        ArrayConfig {
            strategy,
            disks: 50,
            parity_group: 10,
            stripe_unit: 8,
            ssd_cache_devices: 5,
            pc_capacity_blocks,
            dataset_blocks,
            policy: PolicyKind::Wlru(0.5),
            expansion_sets: vec![10, 3, 4, 5, 7, 9, 12],
            hdd,
            ssd: SsdParameters::msr_ideal(),
            seed: 0x5eed,
            rebuild_rate_blocks_per_sec: 25_600.0,
            migration_rate_blocks_per_sec: None,
            background_priority: crate::background::BackgroundPriority::Sequential,
            rebuild_share: 1.0,
            migration_share: 1.0,
            qos: None,
            activation: ActivationPolicy::Immediate,
        }
    }

    /// A small 8-disk array for unit and integration tests: fast to simulate
    /// while exercising every code path (parity groups, PC, SSD tier).
    pub fn small_test(strategy: StrategyKind, dataset_blocks: u64) -> Self {
        let hdd = HddParameters::cheetah_15k5_scaled(2 * 1024 * 1024);
        ArrayConfig {
            strategy,
            disks: 8,
            parity_group: 4,
            stripe_unit: 4,
            ssd_cache_devices: 3,
            pc_capacity_blocks: (dataset_blocks / 5).max(64),
            dataset_blocks,
            policy: PolicyKind::Wlru(0.5),
            expansion_sets: vec![4, 4],
            hdd,
            ssd: SsdParameters::msr_ideal_scaled(1024 * 1024),
            seed: 7,
            rebuild_rate_blocks_per_sec: 25_600.0,
            migration_rate_blocks_per_sec: None,
            background_priority: crate::background::BackgroundPriority::Sequential,
            rebuild_share: 1.0,
            migration_share: 1.0,
            qos: None,
            activation: ActivationPolicy::Immediate,
        }
    }

    /// Sets the requested cache-partition capacity (in blocks).
    pub fn with_pc_capacity(mut self, blocks: u64) -> Self {
        self.pc_capacity_blocks = blocks;
        self
    }

    /// Sets the background migration pace (blocks per simulated second);
    /// `None` restores the instant-expand behaviour.
    pub fn with_migration_rate(mut self, blocks_per_sec: Option<f64>) -> Self {
        self.migration_rate_blocks_per_sec = blocks_per_sec;
        self
    }

    /// Sets the background engine's fair-share weight for rebuild tasks.
    pub fn with_rebuild_share(mut self, share: f64) -> Self {
        self.rebuild_share = share;
        self
    }

    /// Sets the background engine's fair-share weight for migration and
    /// archive-restripe tasks.
    pub fn with_migration_share(mut self, share: f64) -> Self {
        self.migration_share = share;
        self
    }

    /// Attaches a QoS service-level objective: the background engine's pace
    /// becomes a function of observed client service quality, throttled
    /// between the spec's maintenance floor and the configured rates.
    pub fn with_qos(mut self, spec: crate::qos::SloSpec) -> Self {
        self.qos = Some(spec);
        self
    }

    /// Sets the deferred-expansion activation policy.
    pub fn with_activation(mut self, policy: ActivationPolicy) -> Self {
        self.activation = policy;
        self
    }

    /// Sets the background engine's block-ordering policy.
    pub fn with_background_priority(
        mut self,
        priority: crate::background::BackgroundPriority,
    ) -> Self {
        self.background_priority = priority;
        self
    }

    /// True when `Expand` events migrate atomically at event time instead of
    /// enqueueing a paced background task (the knob is omitted, or its rate
    /// is unbounded).
    pub fn instant_migration(&self) -> bool {
        match self.migration_rate_blocks_per_sec {
            None => true,
            Some(rate) => rate.is_infinite() && rate > 0.0,
        }
    }

    /// Number of parity groups of the full-width RAID-5 layouts.
    pub fn parity_groups(&self) -> usize {
        self.disks / self.parity_group.max(1)
    }

    /// Data stripe units per row of a full-width RAID-5 layout.
    pub fn data_units_per_row(&self) -> u64 {
        (self.disks - self.parity_groups()) as u64
    }

    /// Cache-partition blocks reserved per mechanical disk (0 for baselines
    /// and for the SSD-cached variants).
    pub fn pc_blocks_per_hdd(&self) -> u64 {
        if !self.strategy.is_craid() || self.strategy.uses_ssd_cache() {
            return 0;
        }
        let data_per_row = self.data_units_per_row() * self.stripe_unit;
        let rows = self.pc_capacity_blocks.div_ceil(data_per_row).max(1);
        rows * self.stripe_unit
    }

    /// Cache-partition blocks reserved per dedicated SSD (0 unless the
    /// strategy uses the SSD tier).
    pub fn pc_blocks_per_ssd(&self) -> u64 {
        if !self.strategy.uses_ssd_cache() {
            return 0;
        }
        let groups = 1u64; // the SSD set forms a single parity group
        let data_per_row = (self.ssd_cache_devices as u64 - groups) * self.stripe_unit;
        let rows = self.pc_capacity_blocks.div_ceil(data_per_row.max(1)).max(1);
        rows * self.stripe_unit
    }

    /// Archive-partition blocks available per mechanical disk.
    pub fn pa_blocks_per_hdd(&self) -> u64 {
        let remaining = self
            .hdd
            .capacity_blocks
            .saturating_sub(self.pc_blocks_per_hdd());
        (remaining / self.stripe_unit) * self.stripe_unit
    }

    /// The cache partition's size as a percentage of each disk's capacity —
    /// the x-axis of the paper's Figures 4 and 6.
    pub fn pc_percent_per_disk(&self) -> f64 {
        if self.hdd.capacity_blocks == 0 {
            0.0
        } else {
            100.0 * self.pc_blocks_per_hdd() as f64 / self.hdd.capacity_blocks as f64
        }
    }

    /// Validates the configuration by running the static analyser's
    /// configuration rules ([`crate::analyze::graph::check_config`]) and
    /// returning the first error-severity finding — so this legacy
    /// `Result` surface and [`crate::analyze`] render identical
    /// diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`CraidError::InvalidConfig`] carrying the first violated
    /// constraint's [`crate::analyze::Diagnostic`].
    pub fn validate(&self) -> Result<(), CraidError> {
        match crate::analyze::graph::check_config(self)
            .into_iter()
            .find(|d| d.is_error())
        {
            Some(d) => Err(CraidError::InvalidConfig(d)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_classification() {
        assert!(!StrategyKind::Raid5.is_craid());
        assert!(!StrategyKind::Raid5Plus.is_craid());
        assert!(StrategyKind::Craid5.is_craid());
        assert!(StrategyKind::Craid5PlusSsd.uses_ssd_cache());
        assert!(!StrategyKind::Craid5.uses_ssd_cache());
        assert!(StrategyKind::Raid5Plus.archive_is_aggregated());
        assert!(!StrategyKind::Craid5Ssd.archive_is_aggregated());
        assert_eq!(StrategyKind::ALL.len(), 6);
        assert_eq!(StrategyKind::Craid5Plus.to_string(), "CRAID-5+");
    }

    #[test]
    fn only_arrays_without_a_cache_partition_report_restripe_as_migration() {
        let movers: Vec<_> = StrategyKind::ALL
            .into_iter()
            .filter(|s| s.restripe_is_migration())
            .collect();
        assert_eq!(movers, [StrategyKind::Raid5, StrategyKind::Raid5Plus]);
    }

    #[test]
    fn strategy_names_round_trip_through_strings() {
        for s in StrategyKind::ALL {
            // The figure label round-trips...
            assert_eq!(s.name().parse::<StrategyKind>().unwrap(), s);
            // ...and so do the variant identifier and sloppy spellings.
            assert_eq!(format!("{s:?}").parse::<StrategyKind>().unwrap(), s);
            assert_eq!(s.name().to_lowercase().parse::<StrategyKind>().unwrap(), s);
        }
        assert_eq!(
            "craid-5+ssd".parse::<StrategyKind>().unwrap(),
            StrategyKind::Craid5PlusSsd
        );
        assert!("raid6".parse::<StrategyKind>().is_err());
        assert!("".parse::<StrategyKind>().is_err());
    }

    #[test]
    fn strategy_serde_uses_figure_labels() {
        for s in StrategyKind::ALL {
            let v = Serialize::serialize(&s);
            assert_eq!(v, serde::Value::Str(s.name().to_string()));
            let back: StrategyKind = Deserialize::deserialize(&v).unwrap();
            assert_eq!(back, s);
        }
        let err = StrategyKind::deserialize(&serde::Value::Int(3));
        assert!(err.is_err());
    }

    #[test]
    fn paper_config_is_valid_for_every_strategy() {
        for strategy in StrategyKind::ALL {
            let cfg = ArrayConfig::paper(strategy, 100_000, 4_000);
            assert!(cfg.validate().is_ok(), "{strategy}: {:?}", cfg.validate());
            assert_eq!(cfg.disks, 50);
            assert_eq!(cfg.parity_groups(), 5);
            assert_eq!(cfg.data_units_per_row(), 45);
        }
    }

    #[test]
    fn small_test_config_is_valid_for_every_strategy() {
        for strategy in StrategyKind::ALL {
            let cfg = ArrayConfig::small_test(strategy, 10_000);
            assert!(cfg.validate().is_ok(), "{strategy}: {:?}", cfg.validate());
        }
    }

    #[test]
    fn pc_reservation_only_for_hdd_cached_craid() {
        let dataset = 100_000;
        let craid = ArrayConfig::paper(StrategyKind::Craid5, dataset, 4_000);
        assert!(craid.pc_blocks_per_hdd() > 0);
        assert_eq!(craid.pc_blocks_per_ssd(), 0);

        let ssd = ArrayConfig::paper(StrategyKind::Craid5Ssd, dataset, 4_000);
        assert_eq!(ssd.pc_blocks_per_hdd(), 0);
        assert!(ssd.pc_blocks_per_ssd() > 0);

        let baseline = ArrayConfig::paper(StrategyKind::Raid5, dataset, 4_000);
        assert_eq!(baseline.pc_blocks_per_hdd(), 0);
        assert_eq!(baseline.pc_blocks_per_ssd(), 0);
    }

    #[test]
    fn pc_rounds_up_to_whole_rows() {
        let cfg = ArrayConfig::paper(StrategyKind::Craid5, 100_000, 1);
        // One row of PC: stripe_unit blocks on every disk.
        assert_eq!(cfg.pc_blocks_per_hdd(), cfg.stripe_unit);
        assert!(cfg.pc_percent_per_disk() > 0.0);
    }

    #[test]
    fn pa_capacity_shrinks_with_pc() {
        let without = ArrayConfig::paper(StrategyKind::Raid5, 100_000, 0);
        let with = ArrayConfig::paper(StrategyKind::Craid5, 100_000, 1_000_000);
        assert!(with.pa_blocks_per_hdd() < without.pa_blocks_per_hdd());
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut cfg = ArrayConfig::paper(StrategyKind::Craid5, 100_000, 4_000);
        cfg.parity_group = 7;
        assert!(cfg.validate().is_err());

        let mut cfg = ArrayConfig::paper(StrategyKind::Craid5, 100_000, 0);
        cfg.pc_capacity_blocks = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ArrayConfig::paper(StrategyKind::Craid5Plus, 100_000, 4_000);
        cfg.expansion_sets = vec![10, 10];
        assert!(cfg.validate().is_err(), "sets must sum to the disk count");

        let mut cfg = ArrayConfig::paper(StrategyKind::Raid5, 100_000, 0);
        cfg.dataset_blocks = u64::MAX / 2;
        assert!(cfg.validate().is_err(), "dataset larger than the archive");

        let mut cfg = ArrayConfig::paper(StrategyKind::Raid5, 100_000, 0);
        cfg.rebuild_rate_blocks_per_sec = 0.0;
        assert!(cfg.validate().is_err(), "rebuild rate must be positive");
        cfg.rebuild_rate_blocks_per_sec = f64::NAN;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn builder_methods_compose() {
        use crate::background::BackgroundPriority;
        let cfg = ArrayConfig::small_test(StrategyKind::Craid5, 10_000)
            .with_pc_capacity(512)
            .with_migration_rate(Some(2_000.0))
            .with_background_priority(BackgroundPriority::HotFirst)
            .with_rebuild_share(3.0)
            .with_migration_share(0.5);
        assert_eq!(cfg.pc_capacity_blocks, 512);
        assert_eq!(cfg.migration_rate_blocks_per_sec, Some(2_000.0));
        assert!(!cfg.instant_migration());
        assert_eq!(cfg.background_priority, BackgroundPriority::HotFirst);
        assert_eq!(cfg.rebuild_share, 3.0);
        assert_eq!(cfg.migration_share, 0.5);
    }

    #[test]
    fn fair_shares_must_be_finite_and_positive() {
        let good = ArrayConfig::small_test(StrategyKind::Raid5, 10_000);
        assert!(good.validate().is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = good.clone().with_rebuild_share(bad);
            assert!(cfg.validate().is_err(), "rebuild_share {bad}");
            let cfg = good.clone().with_migration_share(bad);
            assert!(cfg.validate().is_err(), "migration_share {bad}");
        }
    }

    #[test]
    fn activation_policy_parses_and_round_trips() {
        for p in [ActivationPolicy::Immediate, ActivationPolicy::WaitForRepair] {
            assert_eq!(p.name().parse::<ActivationPolicy>().unwrap(), p);
            let v = Serialize::serialize(&p);
            assert_eq!(ActivationPolicy::deserialize(&v).unwrap(), p);
        }
        assert_eq!(
            "Wait_For_Repair".parse::<ActivationPolicy>().unwrap(),
            ActivationPolicy::WaitForRepair
        );
        assert!("eventually".parse::<ActivationPolicy>().is_err());
        assert!(ActivationPolicy::deserialize(&serde::Value::Int(1)).is_err());
        assert_eq!(
            ActivationPolicy::WaitForRepair.to_string(),
            "wait-for-repair"
        );
    }

    #[test]
    fn qos_spec_is_validated_through_the_config() {
        use crate::qos::SloSpec;
        let good = ArrayConfig::small_test(StrategyKind::Craid5, 10_000)
            .with_qos(SloSpec::latency_target(25.0))
            .with_activation(ActivationPolicy::WaitForRepair);
        assert!(good.validate().is_ok());
        assert_eq!(good.activation, ActivationPolicy::WaitForRepair);
        // An SLO without any target is rejected at config validation.
        let bad =
            ArrayConfig::small_test(StrategyKind::Craid5, 10_000).with_qos(SloSpec::default());
        assert!(bad.validate().is_err());
        let bad = ArrayConfig::small_test(StrategyKind::Craid5, 10_000)
            .with_qos(SloSpec::latency_target(25.0).with_floor(0.0));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn migration_rate_must_be_finite_and_positive() {
        let mut cfg = ArrayConfig::small_test(StrategyKind::Craid5, 10_000);
        assert!(cfg.instant_migration(), "the default migration is instant");
        cfg.migration_rate_blocks_per_sec = Some(0.0);
        assert!(cfg.validate().is_err());
        cfg.migration_rate_blocks_per_sec = Some(f64::NAN);
        assert!(cfg.validate().is_err());
        cfg.migration_rate_blocks_per_sec = Some(f64::INFINITY);
        assert!(cfg.validate().is_ok(), "an unbounded rate is legal");
        assert!(cfg.instant_migration(), "and degenerates to instant");
        cfg.migration_rate_blocks_per_sec = Some(500.0);
        assert!(cfg.validate().is_ok());
        assert!(!cfg.instant_migration());
    }
}
