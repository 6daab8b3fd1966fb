//! Configuration rules: [`check_config`] checks an [`ArrayConfig`] and
//! [`check_slo`] a QoS spec, each emitting structured [`Diagnostic`]s for
//! every violation instead of a first-error-wins string. Checking never
//! panics, even on garbage input: the capacity arithmetic only runs on a
//! sound geometry.
//!
//! [`ArrayConfig::validate`] delegates here and returns the first
//! error-severity finding, so the legacy `Result` surface and the
//! analyser render identical messages by construction.

use crate::analyze::{codes, Diagnostic};
use crate::config::ArrayConfig;
use crate::qos::SloSpec;

/// Checks a configuration and returns every violation, in rule order:
/// shape, cache binding, aggregation schedule, device capacity, rebuild
/// rate, fair shares, QoS ranges, migration rate and dataset fit. The
/// order decides which error [`ArrayConfig::validate`] reports first.
pub fn check_config(config: &ArrayConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Shape: disk count, parity geometry, stripe unit, dataset.
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

    // Cache binding: CRAID needs capacity; the SSD tier needs enough
    // devices to form a parity group.
    if config.strategy.is_craid() && config.pc_capacity_blocks == 0 {
        out.push(
            Diagnostic::error(
                codes::EMPTY_CACHE_PARTITION,
                "array.pc_capacity_blocks",
                "CRAID strategies need a non-empty cache partition",
            )
            .with_help("scenarios size it via pc_fraction; direct configs via pc_capacity_blocks"),
        );
    }
    if config.strategy.uses_ssd_cache() && config.ssd_cache_devices < 2 {
        out.push(Diagnostic::error(
            codes::SSD_TIER_TOO_SMALL,
            "array.ssd_cache_devices",
            "the SSD cache tier needs at least 2 devices",
        ));
    }

    // Aggregation schedule of `+` archives: non-empty, summing to the
    // disk count, every set wide enough to be a RAID set.
    if config.strategy.archive_is_aggregated() {
        let sets = &config.expansion_sets;
        if sets.is_empty() {
            out.push(Diagnostic::error(
                codes::NO_EXPANSION_SETS,
                "array.expansion_sets",
                "an aggregated archive needs at least one RAID set",
            ));
        } else if sets.iter().sum::<usize>() != config.disks {
            out.push(
                Diagnostic::error(
                    codes::EXPANSION_SETS_SUM,
                    "array.expansion_sets",
                    format!(
                        "expansion sets {sets:?} must sum to the disk count {}",
                        config.disks
                    ),
                )
                .with_help("each entry is the disk count of one aggregation step"),
            );
        }
        if sets.iter().any(|&s| s < 2) {
            out.push(Diagnostic::error(
                codes::EXPANSION_SET_TOO_SMALL,
                "array.expansion_sets",
                "every RAID set needs at least 2 disks",
            ));
        }
    }

    if config.hdd.capacity_blocks < config.stripe_unit {
        out.push(Diagnostic::error(
            codes::DISK_TOO_SMALL,
            "array.hdd.capacity_blocks",
            "disks are smaller than one stripe unit",
        ));
    }

    let rate = config.rebuild_rate_blocks_per_sec;
    if !rate.is_finite() || rate <= 0.0 {
        out.push(Diagnostic::error(
            codes::REBUILD_RATE,
            "array.rebuild_rate",
            format!("rebuild rate must be finite and positive, got {rate}"),
        ));
    }

    for (name, share) in [
        ("rebuild_share", config.rebuild_share),
        ("migration_share", config.migration_share),
    ] {
        if !share.is_finite() || share <= 0.0 {
            out.push(Diagnostic::error(
                codes::SHARE_WEIGHT,
                format!("array.{name}"),
                format!("{name} must be finite and positive, got {share}"),
            ));
        }
    }

    if let Some(spec) = &config.qos {
        out.extend(check_slo(spec, "array.qos"));
    }

    // +inf is legal and means "instant", exactly like omitting the knob:
    // an unbounded pace degenerates to the atomic upgrade.
    if let Some(rate) = config.migration_rate_blocks_per_sec {
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

    // Dataset fit: the scattered dataset must fit in the archive partition
    // left over after the cache reservation. The capacity helpers divide by
    // the data units per row, which is zero on broken geometry — the shape
    // checks above already reported why.
    let geometry_sound = config.stripe_unit > 0
        && config.disks >= 2
        && config.parity_group >= 2
        && config.disks.is_multiple_of(config.parity_group)
        && config.data_units_per_row() > 0;
    if geometry_sound {
        let pa_data_capacity = config.pa_blocks_per_hdd() / config.stripe_unit
            * config.data_units_per_row()
            * config.stripe_unit;
        if pa_data_capacity < config.dataset_blocks {
            out.push(
                Diagnostic::error(
                    codes::DATASET_DOES_NOT_FIT,
                    "array.dataset_blocks",
                    format!(
                        "archive partition ({pa_data_capacity} blocks) cannot hold \
                         the dataset ({} blocks)",
                        config.dataset_blocks
                    ),
                )
                .with_help("shrink pc_fraction, add disks, or scale the workload down"),
            );
        }
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
    fn checking_is_total_on_garbage() {
        // Division-by-zero bait: zero stripe unit, zero parity group,
        // one disk. Checking must not panic and must skip the capacity
        // arithmetic instead.
        let mut config = ArrayConfig::small_test(StrategyKind::Craid5, 10_000);
        config.stripe_unit = 0;
        config.parity_group = 0;
        config.disks = 1;
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
    fn findings_come_in_rule_order_and_validate_reports_the_first() {
        // Every rule after the shape checks trips at once; shape is left
        // sound so the dataset-fit arithmetic still runs.
        let mut config = ArrayConfig::small_test(StrategyKind::Craid5Plus, 10_000);
        config.pc_capacity_blocks = 0;
        config.expansion_sets.clear();
        config.hdd.capacity_blocks = config.stripe_unit - 1;
        config.rebuild_rate_blocks_per_sec = 0.0;
        config.migration_share = -1.0;
        config.qos = Some(SloSpec::latency_target(25.0).with_floor(1.5));
        config.migration_rate_blocks_per_sec = Some(f64::NAN);
        let findings = check_config(&config);
        let order: Vec<_> = findings.iter().map(|d| d.code).collect();
        assert_eq!(
            order,
            [
                codes::EMPTY_CACHE_PARTITION,
                codes::NO_EXPANSION_SETS,
                codes::DISK_TOO_SMALL,
                codes::REBUILD_RATE,
                codes::SHARE_WEIGHT,
                codes::QOS_FLOOR,
                codes::MIGRATION_RATE,
                codes::DATASET_DOES_NOT_FIT,
            ]
        );
        let err = config.validate().unwrap_err();
        assert_eq!(err.diagnostic(), Some(&findings[0]));
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
    fn valid_presets_check_clean() {
        for strategy in StrategyKind::ALL {
            let config = ArrayConfig::paper(strategy, 100_000, 4_000);
            assert!(check_config(&config).is_empty(), "{strategy}");
            let config = ArrayConfig::small_test(strategy, 10_000);
            assert!(check_config(&config).is_empty(), "{strategy}");
        }
    }

    /// One configuration tripping each `CRAID-E1xx` code, in code order,
    /// with the full text `--check` prints for it, help lines included.
    #[test]
    fn every_config_code_renders_its_pinned_text() {
        use StrategyKind::{Craid5, Craid5Plus, Craid5Ssd, Raid5};
        fn slo(c: &mut ArrayConfig) -> &mut SloSpec {
            c.qos.insert(SloSpec::latency_target(25.0))
        }
        type Case = (StrategyKind, fn(&mut ArrayConfig));
        let cases: [Case; 22] = [
            (Craid5, |c| c.disks = 0),
            (Craid5, |c| c.parity_group = 3),
            (Craid5, |c| c.stripe_unit = 0),
            (Craid5, |c| c.dataset_blocks = 0),
            (Craid5, |c| c.pc_capacity_blocks = 0),
            (Craid5Ssd, |c| c.ssd_cache_devices = 1),
            (Craid5Plus, |c| c.expansion_sets = Vec::new()),
            (Craid5Plus, |c| c.expansion_sets = vec![4, 2]),
            (Craid5Plus, |c| c.expansion_sets = vec![7, 1]),
            (Raid5, |c| c.hdd.capacity_blocks = 2),
            (Craid5, |c| c.rebuild_rate_blocks_per_sec = 0.0),
            (Craid5, |c| {
                (c.rebuild_share, c.migration_share) = (-1.0, f64::NAN)
            }),
            (Craid5, |c| c.migration_rate_blocks_per_sec = Some(0.0)),
            (Craid5, |c| c.dataset_blocks = 1 << 40),
            (Craid5, |c| slo(c).target_latency_ms = None),
            (Craid5, |c| slo(c).target_latency_ms = Some(-1.0)),
            (Craid5, |c| slo(c).percentile = 1.5),
            (Craid5, |c| slo(c).max_queue_depth = Some(0.0)),
            (Craid5, |c| slo(c).floor = 1.5),
            (Craid5, |c| slo(c).window_secs = 0.0),
            (Craid5, |c| slo(c).increase_per_sec = 0.0),
            (Craid5, |c| slo(c).decrease_factor = 1.0),
        ];
        let mut rendered = String::new();
        for (index, (strategy, mutate)) in cases.into_iter().enumerate() {
            let mut config = ArrayConfig::small_test(strategy, 10_000);
            mutate(&mut config);
            let analysis = crate::analyze::Analysis {
                diagnostics: check_config(&config),
            };
            assert_eq!(analysis.codes()[0], format!("CRAID-E{}", 101 + index));
            rendered.push_str(&analysis.to_string());
        }
        let expected = "\
error[CRAID-E101] array.disks: need at least 2 disks, got 0
  help: the paper's testbed uses 50; the small test preset uses 8
error[CRAID-E102] array.parity_group: parity group 3 must be >= 2 and divide the disk count 8
  help: full-width RAID-5 layouts split the disks into equal parity groups
error[CRAID-E103] array.stripe_unit: stripe unit must be positive
error[CRAID-E104] array.dataset_blocks: dataset must contain at least one block
error[CRAID-E105] array.pc_capacity_blocks: CRAID strategies need a non-empty cache partition
  help: scenarios size it via pc_fraction; direct configs via pc_capacity_blocks
error[CRAID-E106] array.ssd_cache_devices: the SSD cache tier needs at least 2 devices
error[CRAID-E107] array.expansion_sets: an aggregated archive needs at least one RAID set
error[CRAID-E108] array.expansion_sets: expansion sets [4, 2] must sum to the disk count 8
  help: each entry is the disk count of one aggregation step
error[CRAID-E109] array.expansion_sets: every RAID set needs at least 2 disks
error[CRAID-E110] array.hdd.capacity_blocks: disks are smaller than one stripe unit
error[CRAID-E114] array.dataset_blocks: archive partition (0 blocks) cannot hold the dataset (10000 blocks)
  help: shrink pc_fraction, add disks, or scale the workload down
error[CRAID-E111] array.rebuild_rate: rebuild rate must be finite and positive, got 0
error[CRAID-E112] array.rebuild_share: rebuild_share must be finite and positive, got -1
error[CRAID-E112] array.migration_share: migration_share must be finite and positive, got NaN
error[CRAID-E113] array.migration_rate: migration rate must be positive (or +inf / omitted for an instant migration), got 0
error[CRAID-E114] array.dataset_blocks: archive partition (12580896 blocks) cannot hold the dataset (1099511627776 blocks)
  help: shrink pc_fraction, add disks, or scale the workload down
error[CRAID-E115] array.qos: an SLO needs at least one target (target_latency_ms or max_queue_depth)
  help: set target_latency_ms (and optionally percentile) or max_queue_depth
error[CRAID-E116] array.qos.target_latency_ms: target_latency_ms must be finite and positive, got -1
error[CRAID-E117] array.qos.percentile: percentile must be in [0, 1], got 1.5
error[CRAID-E118] array.qos.max_queue_depth: max_queue_depth must be finite and positive, got 0
error[CRAID-E119] array.qos.floor: floor must be in (0, 1], got 1.5
  help: the floor is a fraction of the configured maintenance rates
error[CRAID-E120] array.qos.window_secs: window_secs must be finite and positive, got 0
error[CRAID-E121] array.qos.increase_per_sec: increase_per_sec must be finite and positive, got 0
error[CRAID-E122] array.qos.decrease_factor: decrease_factor must be in (0, 1), got 1
";
        assert_eq!(rendered, expected);
    }
}
