//! Storage-graph lowering and the configuration rule engine.
//!
//! An [`ArrayConfig`] is a flat bag of knobs; the relationships between
//! them (which devices form which parity groups, where the cache
//! partition lives, how much archive capacity is left for the dataset)
//! are implicit in the array-construction code. This pass makes them
//! explicit: [`StorageGraph::lower`] turns a config into a graph of
//! device, parity-group and partition nodes — **never panicking, even
//! on garbage input** — and an extensible list of [`Rule`] objects
//! checks invariants over that graph, each emitting structured
//! [`Diagnostic`]s instead of a first-error-wins string.
//!
//! [`ArrayConfig::validate`] delegates here and returns the first
//! error-severity finding, so the legacy `Result` surface and the
//! analyser render identical messages by construction.

use crate::analyze::{codes, Diagnostic};
use crate::config::ArrayConfig;
use crate::qos::SloSpec;

/// What kind of device a [`DeviceNode`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// A mechanical disk.
    Hdd,
    /// A dedicated cache SSD.
    Ssd,
}

/// One device of the lowered storage graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceNode {
    /// Device index (mechanical disks first, then SSDs).
    pub id: usize,
    /// Mechanical disk or SSD.
    pub kind: DeviceKind,
    /// Raw capacity in blocks.
    pub capacity_blocks: u64,
}

/// One parity group of the archive partition.
#[derive(Debug, Clone, PartialEq)]
pub struct ParityGroupNode {
    /// Member device ids.
    pub members: Vec<usize>,
    /// The aggregation step this group came from (0 for full-width
    /// layouts).
    pub generation: usize,
}

/// Where the cache partition's blocks live.
#[derive(Debug, Clone, PartialEq)]
pub struct CachePartitionNode {
    /// The devices the partition is bound to.
    pub devices: Vec<usize>,
    /// Reserved blocks per device, when the geometry allows computing
    /// it (`None` on broken geometry — a rule reports the breakage).
    pub blocks_per_device: Option<u64>,
    /// Requested capacity in data blocks.
    pub requested_blocks: u64,
}

/// The lowered storage graph: devices, parity groups, partitions and
/// the capacity arithmetic derived from them. Lowering is total — any
/// config lowers, and broken relationships surface as `None` fields
/// plus rule diagnostics rather than panics.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageGraph {
    /// The configuration the graph was lowered from.
    pub config: ArrayConfig,
    /// Every device, mechanical disks first.
    pub devices: Vec<DeviceNode>,
    /// Archive parity groups (one per aggregation set for `+`
    /// archives, `disks / parity_group` full-width groups otherwise).
    pub parity_groups: Vec<ParityGroupNode>,
    /// The cache partition, for CRAID strategies.
    pub cache: Option<CachePartitionNode>,
    /// Client-visible data capacity of the archive partition, when the
    /// geometry is sound enough to compute it.
    pub archive_data_capacity: Option<u64>,
}

impl StorageGraph {
    /// Lowers a configuration into the explicit graph. Total: never
    /// panics, whatever the config holds.
    pub fn lower(config: &ArrayConfig) -> StorageGraph {
        let mut devices: Vec<DeviceNode> = (0..config.disks)
            .map(|id| DeviceNode {
                id,
                kind: DeviceKind::Hdd,
                capacity_blocks: config.hdd_capacity_blocks,
            })
            .collect();
        if config.strategy.uses_ssd_cache() {
            devices.extend((0..config.ssd_cache_devices).map(|i| DeviceNode {
                id: config.disks + i,
                kind: DeviceKind::Ssd,
                capacity_blocks: config.ssd.capacity_blocks,
            }));
        }

        let parity_groups = if config.strategy.archive_is_aggregated() {
            let mut groups = Vec::new();
            let mut next = 0usize;
            for (generation, &set) in config.expansion_sets.iter().enumerate() {
                let end = next.saturating_add(set).min(config.disks);
                groups.push(ParityGroupNode {
                    members: (next..end).collect(),
                    generation,
                });
                next = end;
            }
            groups
        } else if config.parity_group >= 2 && config.disks.is_multiple_of(config.parity_group) {
            (0..config.disks / config.parity_group)
                .map(|g| ParityGroupNode {
                    members: (g * config.parity_group..(g + 1) * config.parity_group).collect(),
                    generation: 0,
                })
                .collect()
        } else {
            Vec::new()
        };

        // Guarded capacity arithmetic: the raw helpers divide by the
        // data units per row, which is zero on broken geometry.
        let geometry_sound = config.stripe_unit > 0
            && config.disks >= 2
            && config.parity_group >= 2
            && config.disks.is_multiple_of(config.parity_group)
            && config.data_units_per_row() > 0;

        let cache = if config.strategy.is_craid() {
            let (devices, blocks_per_device) = if config.strategy.uses_ssd_cache() {
                let ids = (config.disks..config.disks + config.ssd_cache_devices).collect();
                let blocks = (config.ssd_cache_devices >= 2 && config.stripe_unit > 0)
                    .then(|| config.pc_blocks_per_ssd());
                (ids, blocks)
            } else {
                let ids = (0..config.disks).collect();
                let blocks = geometry_sound.then(|| config.pc_blocks_per_hdd());
                (ids, blocks)
            };
            Some(CachePartitionNode {
                devices,
                blocks_per_device,
                requested_blocks: config.pc_capacity_blocks,
            })
        } else {
            None
        };

        let archive_data_capacity = geometry_sound.then(|| {
            config.pa_blocks_per_hdd() / config.stripe_unit
                * config.data_units_per_row()
                * config.stripe_unit
        });

        StorageGraph {
            config: config.clone(),
            devices,
            parity_groups,
            cache,
            archive_data_capacity,
        }
    }
}

/// One extensible configuration check over the lowered graph.
///
/// Rules append every violation they find; severity and code live in
/// the diagnostics themselves. [`default_rules`] lists the built-in
/// set in the order [`ArrayConfig::validate`] historically checked, so
/// the first emitted error matches the legacy first-error behaviour.
pub trait Rule {
    /// Short identifier (used in docs and debugging).
    fn name(&self) -> &'static str;
    /// Appends every violation of this rule to `out`.
    fn check(&self, graph: &StorageGraph, out: &mut Vec<Diagnostic>);
}

/// Array shape: disk count, parity geometry, stripe unit, dataset.
struct ShapeRule;

impl Rule for ShapeRule {
    fn name(&self) -> &'static str {
        "shape"
    }

    fn check(&self, graph: &StorageGraph, out: &mut Vec<Diagnostic>) {
        let config = &graph.config;
        if config.disks < 2 {
            out.push(
                Diagnostic::error(
                    codes::TOO_FEW_DISKS,
                    "array.disks",
                    format!("need at least 2 disks, got {}", config.disks),
                )
                .with_help("the paper's testbed uses 50; the small test preset uses 8"),
            );
        }
        if config.parity_group < 2 || !config.disks.is_multiple_of(config.parity_group) {
            out.push(
                Diagnostic::error(
                    codes::PARITY_GROUP,
                    "array.parity_group",
                    format!(
                        "parity group {} must be >= 2 and divide the disk count {}",
                        config.parity_group, config.disks
                    ),
                )
                .with_help("full-width RAID-5 layouts split the disks into equal parity groups"),
            );
        }
        if config.stripe_unit == 0 {
            out.push(Diagnostic::error(
                codes::STRIPE_UNIT,
                "array.stripe_unit",
                "stripe unit must be positive",
            ));
        }
        if config.dataset_blocks == 0 {
            out.push(Diagnostic::error(
                codes::EMPTY_DATASET,
                "array.dataset_blocks",
                "dataset must contain at least one block",
            ));
        }
    }
}

/// Cache-partition binding: CRAID needs capacity; the SSD tier needs
/// enough devices to form a parity group.
struct CacheBindingRule;

impl Rule for CacheBindingRule {
    fn name(&self) -> &'static str {
        "cache-binding"
    }

    fn check(&self, graph: &StorageGraph, out: &mut Vec<Diagnostic>) {
        let config = &graph.config;
        if let Some(cache) = &graph.cache {
            if cache.requested_blocks == 0 {
                out.push(
                    Diagnostic::error(
                        codes::EMPTY_CACHE_PARTITION,
                        "array.pc_capacity_blocks",
                        "CRAID strategies need a non-empty cache partition",
                    )
                    .with_help(
                        "scenarios size it via pc_fraction; direct configs via pc_capacity_blocks",
                    ),
                );
            }
        }
        if config.strategy.uses_ssd_cache() && config.ssd_cache_devices < 2 {
            out.push(Diagnostic::error(
                codes::SSD_TIER_TOO_SMALL,
                "array.ssd_cache_devices",
                "the SSD cache tier needs at least 2 devices",
            ));
        }
    }
}

/// Aggregation schedule of `+` archives: non-empty, summing to the
/// disk count, every set wide enough to be a RAID set.
struct AggregationRule;

impl Rule for AggregationRule {
    fn name(&self) -> &'static str {
        "aggregation-schedule"
    }

    fn check(&self, graph: &StorageGraph, out: &mut Vec<Diagnostic>) {
        let config = &graph.config;
        if !config.strategy.archive_is_aggregated() {
            return;
        }
        if config.expansion_sets.is_empty() {
            out.push(Diagnostic::error(
                codes::NO_EXPANSION_SETS,
                "array.expansion_sets",
                "an aggregated archive needs at least one RAID set",
            ));
        }
        if !config.expansion_sets.is_empty()
            && config.expansion_sets.iter().sum::<usize>() != config.disks
        {
            out.push(
                Diagnostic::error(
                    codes::EXPANSION_SETS_SUM,
                    "array.expansion_sets",
                    format!(
                        "expansion sets {:?} must sum to the disk count {}",
                        config.expansion_sets, config.disks
                    ),
                )
                .with_help("each entry is the disk count of one aggregation step"),
            );
        }
        if config.expansion_sets.iter().any(|&s| s < 2) {
            out.push(Diagnostic::error(
                codes::EXPANSION_SET_TOO_SMALL,
                "array.expansion_sets",
                "every RAID set needs at least 2 disks",
            ));
        }
    }
}

/// Per-device capacity sanity.
struct DeviceCapacityRule;

impl Rule for DeviceCapacityRule {
    fn name(&self) -> &'static str {
        "device-capacity"
    }

    fn check(&self, graph: &StorageGraph, out: &mut Vec<Diagnostic>) {
        let config = &graph.config;
        if config.hdd_capacity_blocks < config.stripe_unit {
            out.push(Diagnostic::error(
                codes::DISK_TOO_SMALL,
                "array.hdd_capacity_blocks",
                "disks are smaller than one stripe unit",
            ));
        }
    }
}

/// Background-maintenance pacing: the rebuild rate.
struct RebuildRateRule;

impl Rule for RebuildRateRule {
    fn name(&self) -> &'static str {
        "rebuild-rate"
    }

    fn check(&self, graph: &StorageGraph, out: &mut Vec<Diagnostic>) {
        let rate = graph.config.rebuild_rate_blocks_per_sec;
        if !rate.is_finite() || rate <= 0.0 {
            out.push(Diagnostic::error(
                codes::REBUILD_RATE,
                "array.rebuild_rate",
                format!("rebuild rate must be finite and positive, got {rate}"),
            ));
        }
    }
}

/// Fair-share weights of the background engine.
struct FairShareRule;

impl Rule for FairShareRule {
    fn name(&self) -> &'static str {
        "fair-shares"
    }

    fn check(&self, graph: &StorageGraph, out: &mut Vec<Diagnostic>) {
        for (name, share) in [
            ("rebuild_share", graph.config.rebuild_share),
            ("migration_share", graph.config.migration_share),
        ] {
            if !share.is_finite() || share <= 0.0 {
                out.push(Diagnostic::error(
                    codes::SHARE_WEIGHT,
                    format!("array.{name}"),
                    format!("{name} must be finite and positive, got {share}"),
                ));
            }
        }
    }
}

/// QoS SLO ranges (floor, gains, targets, window).
struct QosRule;

impl Rule for QosRule {
    fn name(&self) -> &'static str {
        "qos-ranges"
    }

    fn check(&self, graph: &StorageGraph, out: &mut Vec<Diagnostic>) {
        if let Some(spec) = &graph.config.qos {
            out.extend(check_slo(spec, "array.qos"));
        }
    }
}

/// Migration pacing of `expand` events.
struct MigrationRateRule;

impl Rule for MigrationRateRule {
    fn name(&self) -> &'static str {
        "migration-rate"
    }

    fn check(&self, graph: &StorageGraph, out: &mut Vec<Diagnostic>) {
        if let Some(rate) = graph.config.migration_rate_blocks_per_sec {
            // +inf is legal and means "instant", exactly like omitting
            // the knob: an unbounded pace degenerates to the atomic
            // upgrade.
            if rate.is_nan() || rate <= 0.0 {
                out.push(Diagnostic::error(
                    codes::MIGRATION_RATE,
                    "array.migration_rate",
                    format!(
                        "migration rate must be positive (or +inf / omitted for an \
                         instant migration), got {rate}"
                    ),
                ));
            }
        }
    }
}

/// Capacity arithmetic: the scattered dataset must fit in the archive
/// partition left over after the cache reservation.
struct DatasetFitRule;

impl Rule for DatasetFitRule {
    fn name(&self) -> &'static str {
        "dataset-fit"
    }

    fn check(&self, graph: &StorageGraph, out: &mut Vec<Diagnostic>) {
        // `None` means the geometry is broken; the shape rule already
        // reported why, and capacity arithmetic would be meaningless.
        if let Some(pa_data_capacity) = graph.archive_data_capacity {
            if pa_data_capacity < graph.config.dataset_blocks {
                out.push(
                    Diagnostic::error(
                        codes::DATASET_DOES_NOT_FIT,
                        "array.dataset_blocks",
                        format!(
                            "archive partition ({pa_data_capacity} blocks) cannot hold \
                             the dataset ({} blocks)",
                            graph.config.dataset_blocks
                        ),
                    )
                    .with_help("shrink pc_fraction, add disks, or scale the workload down"),
                );
            }
        }
    }
}

/// The built-in rule set, in the order [`ArrayConfig::validate`]
/// historically checked its constraints.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(ShapeRule),
        Box::new(CacheBindingRule),
        Box::new(AggregationRule),
        Box::new(DeviceCapacityRule),
        Box::new(RebuildRateRule),
        Box::new(FairShareRule),
        Box::new(QosRule),
        Box::new(MigrationRateRule),
        Box::new(DatasetFitRule),
    ]
}

/// Lowers a configuration and runs every built-in rule over the graph.
pub fn check_config(config: &ArrayConfig) -> Vec<Diagnostic> {
    let graph = StorageGraph::lower(config);
    let mut out = Vec::new();
    for rule in default_rules() {
        rule.check(&graph, &mut out);
    }
    out
}

/// Checks one SLO spec; `prefix` anchors diagnostic paths (scenario
/// files use `array.qos`). [`SloSpec::validate`] delegates here.
pub fn check_slo(spec: &SloSpec, prefix: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if spec.target_latency_ms.is_none() && spec.max_queue_depth.is_none() {
        out.push(
            Diagnostic::error(
                codes::QOS_NO_TARGET,
                prefix,
                "an SLO needs at least one target (target_latency_ms or max_queue_depth)",
            )
            .with_help("set target_latency_ms (and optionally percentile) or max_queue_depth"),
        );
    }
    if let Some(ms) = spec.target_latency_ms {
        if !ms.is_finite() || ms <= 0.0 {
            out.push(Diagnostic::error(
                codes::QOS_LATENCY_TARGET,
                format!("{prefix}.target_latency_ms"),
                format!("target_latency_ms must be finite and positive, got {ms}"),
            ));
        }
    }
    if !(0.0..=1.0).contains(&spec.percentile) || !spec.percentile.is_finite() {
        out.push(Diagnostic::error(
            codes::QOS_PERCENTILE,
            format!("{prefix}.percentile"),
            format!("percentile must be in [0, 1], got {}", spec.percentile),
        ));
    }
    if let Some(depth) = spec.max_queue_depth {
        if !depth.is_finite() || depth <= 0.0 {
            out.push(Diagnostic::error(
                codes::QOS_QUEUE_DEPTH,
                format!("{prefix}.max_queue_depth"),
                format!("max_queue_depth must be finite and positive, got {depth}"),
            ));
        }
    }
    if !spec.floor.is_finite() || spec.floor <= 0.0 || spec.floor > 1.0 {
        out.push(
            Diagnostic::error(
                codes::QOS_FLOOR,
                format!("{prefix}.floor"),
                format!("floor must be in (0, 1], got {}", spec.floor),
            )
            .with_help("the floor is a fraction of the configured maintenance rates"),
        );
    }
    if !spec.window_secs.is_finite() || spec.window_secs <= 0.0 {
        out.push(Diagnostic::error(
            codes::QOS_WINDOW,
            format!("{prefix}.window_secs"),
            format!(
                "window_secs must be finite and positive, got {}",
                spec.window_secs
            ),
        ));
    }
    if !spec.increase_per_sec.is_finite() || spec.increase_per_sec <= 0.0 {
        out.push(Diagnostic::error(
            codes::QOS_INCREASE_GAIN,
            format!("{prefix}.increase_per_sec"),
            format!(
                "increase_per_sec must be finite and positive, got {}",
                spec.increase_per_sec
            ),
        ));
    }
    if !spec.decrease_factor.is_finite()
        || spec.decrease_factor <= 0.0
        || spec.decrease_factor >= 1.0
    {
        out.push(Diagnostic::error(
            codes::QOS_DECREASE_FACTOR,
            format!("{prefix}.decrease_factor"),
            format!(
                "decrease_factor must be in (0, 1), got {}",
                spec.decrease_factor
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyKind;

    #[test]
    fn lowering_builds_devices_groups_and_partitions() {
        let config = ArrayConfig::paper(StrategyKind::Craid5Ssd, 100_000, 4_000);
        let graph = StorageGraph::lower(&config);
        let hdds = graph.devices.iter().filter(|d| d.kind == DeviceKind::Hdd);
        assert_eq!(hdds.count(), 50);
        assert_eq!(graph.devices.len(), 55, "5 SSDs join the graph");
        assert_eq!(graph.parity_groups.len(), 5, "50 disks in groups of 10");
        let cache = graph.cache.expect("CRAID strategies carry a cache node");
        assert_eq!(cache.devices, (50..55).collect::<Vec<_>>());
        assert!(cache.blocks_per_device.unwrap() > 0);
        assert!(graph.archive_data_capacity.unwrap() >= 100_000);
    }

    #[test]
    fn aggregated_lowering_groups_by_expansion_set() {
        let config = ArrayConfig::paper(StrategyKind::Raid5Plus, 100_000, 0);
        let graph = StorageGraph::lower(&config);
        assert_eq!(
            graph.parity_groups.len(),
            7,
            "one group per aggregation step"
        );
        assert_eq!(graph.parity_groups[0].members.len(), 10);
        assert_eq!(graph.parity_groups[6].generation, 6);
        assert!(graph.cache.is_none(), "baselines carry no cache partition");
    }

    #[test]
    fn lowering_is_total_on_garbage() {
        // Division-by-zero bait: zero stripe unit, zero parity group,
        // one disk. Lowering must not panic and must withhold derived
        // capacities instead.
        let mut config = ArrayConfig::small_test(StrategyKind::Craid5, 10_000);
        config.stripe_unit = 0;
        config.parity_group = 0;
        config.disks = 1;
        let graph = StorageGraph::lower(&config);
        assert!(graph.archive_data_capacity.is_none());
        assert!(graph.cache.unwrap().blocks_per_device.is_none());
        let findings = check_config(&config);
        assert!(findings.iter().any(|d| d.code == codes::TOO_FEW_DISKS));
        assert!(findings.iter().any(|d| d.code == codes::STRIPE_UNIT));
    }

    #[test]
    fn rules_emit_every_violation_not_just_the_first() {
        let mut config = ArrayConfig::small_test(StrategyKind::Craid5Plus, 10_000);
        config.expansion_sets = vec![1, 3]; // sums to 4, not 8; and a 1-disk set
        config.rebuild_share = -2.0;
        config.migration_share = f64::NAN;
        let findings = check_config(&config);
        let codes_found: Vec<_> = findings.iter().map(|d| d.code).collect();
        assert!(codes_found.contains(&codes::EXPANSION_SETS_SUM));
        assert!(codes_found.contains(&codes::EXPANSION_SET_TOO_SMALL));
        assert_eq!(
            codes_found
                .iter()
                .filter(|&&c| c == codes::SHARE_WEIGHT)
                .count(),
            2,
            "both shares are reported"
        );
    }

    #[test]
    fn slo_paths_are_prefixed() {
        let spec = SloSpec::latency_target(25.0).with_floor(1.5);
        let findings = check_slo(&spec, "array.qos");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, codes::QOS_FLOOR);
        assert_eq!(findings[0].path, "array.qos.floor");
    }

    #[test]
    fn valid_presets_lower_clean() {
        for strategy in StrategyKind::ALL {
            let config = ArrayConfig::paper(strategy, 100_000, 4_000);
            assert!(check_config(&config).is_empty(), "{strategy}");
            let config = ArrayConfig::small_test(strategy, 10_000);
            assert!(check_config(&config).is_empty(), "{strategy}");
        }
    }
}
