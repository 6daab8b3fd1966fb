//! Declarative experiments: scenarios, event schedules, and campaigns.
//!
//! The paper's evaluation is a matrix of {strategies × workloads ×
//! cache-partition sizes × upgrade schedules}. Instead of every experiment
//! hand-rolling its own sweep loops, this module lets an experiment be
//! *declared as data*:
//!
//! * a [`Scenario`] names a strategy, a workload, an array shape, and an
//!   ordered timeline of [`ScheduledEvent`]s (disk expansions, replacement
//!   policy switches, workload-phase markers, disk failures and repairs);
//! * scenarios serialize to TOML and JSON, so experiments can live in
//!   version-controlled files (see [`Scenario::from_toml`]);
//! * a [`Campaign`] executes many scenarios in parallel — either an
//!   explicit list or a cartesian [`Campaign::sweep`] — and returns one
//!   [`ScenarioOutcome`] per scenario, in input order.
//!
//! Events at equal times apply in declaration order (the schedule is
//! stable-sorted by time), and a scenario is fully determined by its data:
//! the same scenario always produces the identical report.
//!
//! ```
//! use craid::{Scenario, StrategyKind};
//! use craid_cache::PolicyKind;
//! use craid_simkit::SimTime;
//! use craid_trace::WorkloadId;
//!
//! let scenario = Scenario::builder()
//!     .name("wdev upgrade drill")
//!     .strategy(StrategyKind::Craid5Plus)
//!     .workload(WorkloadId::Wdev)
//!     .requests(2_000)
//!     .small_test()
//!     .pc_fraction(0.2)
//!     .expand_at(SimTime::from_secs(900.0), 4)
//!     .switch_policy_at(SimTime::from_secs(1_800.0), PolicyKind::Arc)
//!     .build();
//! let outcome = scenario.run().unwrap();
//! assert_eq!(outcome.expansions.len(), 1);
//! assert!(outcome.report.requests > 0);
//! ```

use serde::{Deserialize, Serialize, Value};

use craid_cache::PolicyKind;
use craid_simkit::SimTime;
use craid_trace::{SyntheticWorkload, Trace, WorkloadId};

use crate::array::ExpansionReport;
use crate::config::{ArrayConfig, StrategyKind};
use crate::error::CraidError;
use crate::observer::{MultiObserver, NullObserver, Observer, ProgressObserver};
use crate::report::SimulationReport;
use crate::sim::Simulation;

/// One entry of a scenario's timeline, applied when the replay clock
/// reaches its time. Events at equal times apply in declaration order.
///
/// The set is open-ended by design; the latest additions are trace-swapping
/// workload phases and paced online expansions.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduledEvent {
    /// An online upgrade: `added_disks` mechanical disks join the array and
    /// the strategy's upgrade procedure runs (CRAID invalidates and
    /// redistributes its cache partition; baselines restripe or aggregate).
    Expand {
        /// When the upgrade starts.
        at: SimTime,
        /// Number of disks added.
        added_disks: usize,
    },
    /// Switches the I/O monitor's replacement policy, preserving the cached
    /// set. A no-op for baseline strategies.
    PolicySwitch {
        /// When the switch happens.
        at: SimTime,
        /// The policy to switch to.
        policy: PolicyKind,
    },
    /// A named workload phase. With a `workload` source attached it has
    /// real trace-swap semantics: the replay truncates at the phase time
    /// and continues with the new workload's records from there. Without
    /// one it is a pure marker — the engine does not act on it, but
    /// observers see it (useful to annotate day boundaries or
    /// "before/after upgrade" windows in streamed output).
    WorkloadPhase {
        /// When the phase starts.
        at: SimTime,
        /// Label observers will see.
        label: String,
        /// The trace segment to switch to, if this phase swaps workloads.
        workload: Option<WorkloadSource>,
    },
    /// A mechanical disk dies. Until its `DiskRepair`, reads that would
    /// touch it are reconstructed from the surviving members of its parity
    /// group (degraded mode) and writes aimed at it are absorbed by parity.
    DiskFailure {
        /// When the disk fails.
        at: SimTime,
        /// Index of the failing mechanical disk.
        disk: usize,
    },
    /// A hot spare replaces a failed disk and the background rebuild starts
    /// streaming reconstruction I/O onto it, interleaved with client
    /// traffic, until the device image is restored.
    DiskRepair {
        /// When the spare is installed.
        at: SimTime,
        /// Index of the disk slot being rebuilt.
        disk: usize,
    },
}

impl ScheduledEvent {
    /// Convenience constructor for [`ScheduledEvent::Expand`].
    pub fn expand(at: SimTime, added_disks: usize) -> Self {
        ScheduledEvent::Expand { at, added_disks }
    }

    /// Convenience constructor for [`ScheduledEvent::PolicySwitch`].
    pub fn policy_switch(at: SimTime, policy: PolicyKind) -> Self {
        ScheduledEvent::PolicySwitch { at, policy }
    }

    /// Convenience constructor for a marker-only
    /// [`ScheduledEvent::WorkloadPhase`].
    pub fn workload_phase(at: SimTime, label: impl Into<String>) -> Self {
        ScheduledEvent::WorkloadPhase {
            at,
            label: label.into(),
            workload: None,
        }
    }

    /// Convenience constructor for a trace-swapping
    /// [`ScheduledEvent::WorkloadPhase`].
    pub fn workload_phase_swap(
        at: SimTime,
        label: impl Into<String>,
        workload: WorkloadSource,
    ) -> Self {
        ScheduledEvent::WorkloadPhase {
            at,
            label: label.into(),
            workload: Some(workload),
        }
    }

    /// Convenience constructor for [`ScheduledEvent::DiskFailure`].
    pub fn disk_failure(at: SimTime, disk: usize) -> Self {
        ScheduledEvent::DiskFailure { at, disk }
    }

    /// Convenience constructor for [`ScheduledEvent::DiskRepair`].
    pub fn disk_repair(at: SimTime, disk: usize) -> Self {
        ScheduledEvent::DiskRepair { at, disk }
    }

    /// The simulated time this event is scheduled for.
    pub fn at(&self) -> SimTime {
        match self {
            ScheduledEvent::Expand { at, .. }
            | ScheduledEvent::PolicySwitch { at, .. }
            | ScheduledEvent::WorkloadPhase { at, .. }
            | ScheduledEvent::DiskFailure { at, .. }
            | ScheduledEvent::DiskRepair { at, .. } => *at,
        }
    }

    /// A short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            ScheduledEvent::Expand { added_disks, .. } => {
                format!("expand by {added_disks} disks")
            }
            ScheduledEvent::PolicySwitch { policy, .. } => {
                format!("switch policy to {policy}")
            }
            ScheduledEvent::WorkloadPhase {
                label,
                workload: None,
                ..
            } => {
                format!("enter phase '{label}'")
            }
            ScheduledEvent::WorkloadPhase {
                label,
                workload: Some(source),
                ..
            } => {
                format!("enter phase '{label}' (switch trace to {})", source.id)
            }
            ScheduledEvent::DiskFailure { disk, .. } => {
                format!("fail disk {disk}")
            }
            ScheduledEvent::DiskRepair { disk, .. } => {
                format!("repair disk {disk} (hot spare, rebuild starts)")
            }
        }
    }
}

// Events serialize as flat `kind`-tagged maps so TOML timelines read
// naturally:
//
// ```toml
// [[events]]
// kind = "expand"
// at_secs = 120.0
// added_disks = 4
// ```
impl Serialize for ScheduledEvent {
    fn serialize(&self) -> Value {
        let mut entries = Vec::new();
        let kind = match self {
            ScheduledEvent::Expand { .. } => "expand",
            ScheduledEvent::PolicySwitch { .. } => "policy-switch",
            ScheduledEvent::WorkloadPhase { .. } => "workload-phase",
            ScheduledEvent::DiskFailure { .. } => "disk-failure",
            ScheduledEvent::DiskRepair { .. } => "disk-repair",
        };
        entries.push(("kind".to_string(), Value::Str(kind.to_string())));
        entries.push(("at_secs".to_string(), Value::Float(self.at().as_secs())));
        match self {
            ScheduledEvent::Expand { added_disks, .. } => {
                entries.push(("added_disks".to_string(), added_disks.serialize()));
            }
            ScheduledEvent::PolicySwitch { policy, .. } => {
                entries.push(("policy".to_string(), policy.serialize()));
            }
            ScheduledEvent::WorkloadPhase {
                label, workload, ..
            } => {
                entries.push(("label".to_string(), label.serialize()));
                if let Some(source) = workload {
                    // Flat keys so TOML timelines stay readable.
                    entries.push(("workload".to_string(), source.id.serialize()));
                    entries.push(("requests".to_string(), source.requests.serialize()));
                    entries.push(("workload_seed".to_string(), source.seed.serialize()));
                }
            }
            ScheduledEvent::DiskFailure { disk, .. } | ScheduledEvent::DiskRepair { disk, .. } => {
                entries.push(("disk".to_string(), disk.serialize()));
            }
        }
        Value::Map(entries)
    }
}

impl Deserialize for ScheduledEvent {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let kind: String = serde::field(value, "kind")?;
        let at_secs: f64 = serde::field(value, "at_secs")?;
        if !at_secs.is_finite() || at_secs < 0.0 {
            return Err(serde::Error::custom(format!(
                "event time must be finite and non-negative, got {at_secs}"
            )));
        }
        let at = SimTime::from_secs(at_secs);
        match kind.to_ascii_lowercase().replace('_', "-").as_str() {
            "expand" => Ok(ScheduledEvent::Expand {
                at,
                added_disks: serde::field(value, "added_disks")?,
            }),
            "policy-switch" => Ok(ScheduledEvent::PolicySwitch {
                at,
                policy: serde::field(value, "policy")?,
            }),
            "workload-phase" => {
                let id: Option<WorkloadId> = serde::field(value, "workload")?;
                let workload = match id {
                    Some(id) => Some(WorkloadSource {
                        id,
                        requests: serde::field(value, "requests")?,
                        seed: serde::field::<Option<u64>>(value, "workload_seed")?.unwrap_or(0),
                    }),
                    None => None,
                };
                Ok(ScheduledEvent::WorkloadPhase {
                    at,
                    label: serde::field(value, "label")?,
                    workload,
                })
            }
            "disk-failure" => Ok(ScheduledEvent::DiskFailure {
                at,
                disk: serde::field(value, "disk")?,
            }),
            "disk-repair" => Ok(ScheduledEvent::DiskRepair {
                at,
                disk: serde::field(value, "disk")?,
            }),
            other => Err(serde::Error::custom(format!(
                "unknown event kind '{other}' (expected expand, policy-switch, \
                 workload-phase, disk-failure or disk-repair)"
            ))),
        }
    }
}

/// The synthetic workload a scenario replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSource {
    /// Which of the paper's seven traces to model.
    pub id: WorkloadId,
    /// Target number of client requests the scaled trace is generated with.
    pub requests: u64,
    /// Generation seed; scenarios with equal sources replay byte-identical
    /// workloads.
    pub seed: u64,
}

/// Which base array shape a scenario starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayPreset {
    /// The paper's 50-disk testbed ([`ArrayConfig::paper`]).
    Paper,
    /// The small 8-disk test array ([`ArrayConfig::small_test`]).
    SmallTest,
}

impl ArrayPreset {
    fn name(self) -> &'static str {
        match self {
            ArrayPreset::Paper => "paper",
            ArrayPreset::SmallTest => "small-test",
        }
    }
}

impl Serialize for ArrayPreset {
    fn serialize(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for ArrayPreset {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("preset name", value))?;
        match s.trim().to_ascii_lowercase().replace('_', "-").as_str() {
            "paper" => Ok(ArrayPreset::Paper),
            "small-test" | "smalltest" | "small" => Ok(ArrayPreset::SmallTest),
            other => Err(serde::Error::custom(format!(
                "unknown array preset '{other}' (expected paper or small-test)"
            ))),
        }
    }
}

/// The array shape a scenario runs against: a preset plus targeted
/// overrides. Everything except `preset` and `pc_fraction` is optional.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArraySpec {
    /// Base shape.
    pub preset: ArrayPreset,
    /// Cache-partition size as a fraction of the workload footprint (the
    /// sweep knob of the paper's Figures 4 and 6). Ignored by baselines.
    pub pc_fraction: f64,
    /// Replacement policy override (default: the preset's WLRU(0.5)).
    pub policy: Option<PolicyKind>,
    /// Initial disk-count override.
    pub disks: Option<usize>,
    /// RAID-5+ aggregation schedule override; must sum to `disks`.
    pub expansion_sets: Option<Vec<usize>>,
    /// Stripe-unit override, in blocks.
    pub stripe_unit: Option<u64>,
    /// Dataset-scatter seed override.
    pub seed: Option<u64>,
    /// Background rebuild pace override, in blocks per simulated second
    /// (how fast a hot spare is filled after a `disk-repair` event).
    pub rebuild_rate: Option<f64>,
    /// Background migration pace for `expand` events, in blocks per
    /// simulated second. Omitted (or `+inf`) keeps upgrades instant.
    pub migration_rate: Option<f64>,
    /// Block-ordering policy for the background engine (`"sequential"` by
    /// default, `"hot-first"` for CRAID's heat-ranked maintenance).
    pub background_priority: Option<crate::background::BackgroundPriority>,
    /// Fair-share weight of rebuild tasks on the background engine
    /// (default 1.0; see [`ArrayConfig::rebuild_share`]).
    pub rebuild_share: Option<f64>,
    /// Fair-share weight of migration and archive-restripe tasks on the
    /// background engine (default 1.0; see [`ArrayConfig::migration_share`]).
    pub migration_share: Option<f64>,
    /// Service-level objective for the QoS control subsystem (the
    /// `[array.qos]` table). When set, background maintenance is
    /// adaptively throttled between the spec's floor and the configured
    /// rates; omitted keeps the static pacing (see [`ArrayConfig::qos`]).
    pub qos: Option<crate::qos::SloSpec>,
    /// Deferred-expansion activation policy override (`"immediate"` by
    /// default; `"wait-for-repair"` holds queued activations until the
    /// array is healthy — see [`ArrayConfig::activation`]).
    pub activation: Option<crate::config::ActivationPolicy>,
}

impl ArraySpec {
    /// The preset with a given cache-partition fraction and no overrides.
    pub fn preset(preset: ArrayPreset, pc_fraction: f64) -> Self {
        ArraySpec {
            preset,
            pc_fraction,
            policy: None,
            disks: None,
            expansion_sets: None,
            stripe_unit: None,
            seed: None,
            rebuild_rate: None,
            migration_rate: None,
            background_priority: None,
            rebuild_share: None,
            migration_share: None,
            qos: None,
            activation: None,
        }
    }
}

/// A serializable observer attachment. Specs construct their observer at
/// run time; programmatic observers can additionally be passed to
/// [`Scenario::run_observed`].
#[derive(Debug, Clone, PartialEq)]
pub enum ObserverSpec {
    /// Print a progress line to stderr every `every` requests, plus every
    /// applied event.
    Progress {
        /// Requests between progress lines.
        every: u64,
    },
    /// Print only applied events to stderr.
    EventTrace,
}

impl Serialize for ObserverSpec {
    fn serialize(&self) -> Value {
        match self {
            ObserverSpec::Progress { every } => Value::Map(vec![
                ("kind".to_string(), Value::Str("progress".to_string())),
                ("every".to_string(), every.serialize()),
            ]),
            ObserverSpec::EventTrace => Value::Map(vec![(
                "kind".to_string(),
                Value::Str("event-trace".to_string()),
            )]),
        }
    }
}

impl Deserialize for ObserverSpec {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let kind: String = serde::field(value, "kind")?;
        match kind.to_ascii_lowercase().replace('_', "-").as_str() {
            "progress" => Ok(ObserverSpec::Progress {
                every: serde::field(value, "every")?,
            }),
            "event-trace" => Ok(ObserverSpec::EventTrace),
            other => Err(serde::Error::custom(format!(
                "unknown observer kind '{other}' (expected progress or event-trace)"
            ))),
        }
    }
}

/// One declarative experiment: strategy + workload + array + timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Display name (sweeps generate `workload/strategy/pcX` names).
    pub name: String,
    /// Allocation strategy under test.
    pub strategy: StrategyKind,
    /// Workload to replay.
    pub workload: WorkloadSource,
    /// Array shape.
    pub array: ArraySpec,
    /// Timeline of scheduled events. Stable-sorted by time before the run,
    /// so entries at equal times apply in declaration order.
    pub events: Vec<ScheduledEvent>,
    /// Observers attached at run time.
    pub observers: Vec<ObserverSpec>,
}

impl Scenario {
    /// Starts a fluent builder with the defaults of
    /// [`ScenarioBuilder::new`].
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// Parses a scenario from a TOML document.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed TOML or an invalid scenario shape.
    pub fn from_toml(text: &str) -> Result<Scenario, serde::Error> {
        toml::from_str(text)
    }

    /// Renders the scenario as a TOML document.
    ///
    /// # Errors
    ///
    /// Never fails for scenarios constructed through the public API; the
    /// `Result` mirrors the serializer's signature.
    pub fn to_toml(&self) -> Result<String, serde::Error> {
        toml::to_string(self)
    }

    /// Parses a scenario from JSON.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or an invalid scenario shape.
    pub fn from_json(text: &str) -> Result<Scenario, serde::Error> {
        serde_json::from_str(text)
    }

    /// Renders the scenario as pretty JSON.
    ///
    /// # Errors
    ///
    /// Never fails for scenarios constructed through the public API; the
    /// `Result` mirrors the serializer's signature.
    pub fn to_json(&self) -> Result<String, serde::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Reads and parses a scenario file (TOML), then rejects it if the
    /// static analyser finds any error-severity diagnostic. Warnings
    /// pass (warn-by-default); call [`Scenario::analyze`] to inspect
    /// them, or use the analysis' deny mode to refuse them too.
    ///
    /// # Errors
    ///
    /// [`CraidError::Io`] when the file cannot be read,
    /// [`CraidError::Parse`] on malformed TOML, and the first analyser
    /// error ([`CraidError::InvalidConfig`] /
    /// [`CraidError::InvalidSchedule`]) otherwise.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Scenario, CraidError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| CraidError::Io(format!("{}: {e}", path.display())))?;
        let scenario = Scenario::from_toml(&text)
            .map_err(|e| CraidError::Parse(format!("{}: {e}", path.display())))?;
        scenario.analyze().into_result()?;
        Ok(scenario)
    }

    /// Runs the full static analysis — the scenario-surface checks,
    /// configuration rules over the resolved config and symbolic timeline
    /// interpretation of the event schedule — without generating a trace
    /// or simulating any I/O. See [`crate::analyze`].
    pub fn analyze(&self) -> crate::analyze::Analysis {
        crate::analyze::analyze_scenario(self)
    }

    /// Model-checks the scenario's small-scope projection: explores the
    /// scheduler's decision space at `scope` and judges every interleaving
    /// against the invariant oracles. See [`crate::analyze::explore`].
    pub fn explore(&self, scope: &crate::analyze::explore::ExploreScope) -> crate::Exploration {
        crate::analyze::explore::explore(self, scope)
    }

    /// Generates the scenario's trace.
    pub fn trace(&self) -> Trace {
        SyntheticWorkload::paper_scaled_to(self.workload.id, self.workload.requests)
            .generate(self.workload.seed)
    }

    /// The workload footprint the generated trace will have, resolved
    /// statically from the scaling formulas (no generation).
    ///
    /// # Panics
    ///
    /// Panics when `workload.requests` is zero (the analyser reports
    /// that as `CRAID-E131` before ever calling this).
    pub fn static_footprint_blocks(&self) -> u64 {
        SyntheticWorkload::paper_scaled_to(self.workload.id, self.workload.requests)
            .scaled_footprint_blocks()
    }

    /// The replay duration the generated trace is scheduled for, in
    /// simulated seconds, resolved statically (no generation).
    ///
    /// # Panics
    ///
    /// Panics when `workload.requests` is zero (the analyser reports
    /// that as `CRAID-E131` before ever calling this).
    pub fn static_duration_secs(&self) -> f64 {
        SyntheticWorkload::paper_scaled_to(self.workload.id, self.workload.requests)
            .scaled_duration_secs()
    }

    /// Resolves the concrete [`ArrayConfig`] for a generated trace.
    pub fn array_config(&self, trace: &Trace) -> ArrayConfig {
        self.array_config_for_footprint(trace.footprint_blocks())
    }

    /// Resolves the concrete [`ArrayConfig`] for a given workload
    /// footprint. [`Scenario::array_config`] uses the generated trace's
    /// footprint; the static analyser passes
    /// [`Scenario::static_footprint_blocks`] — the same number, without
    /// generating anything.
    pub fn array_config_for_footprint(&self, footprint: u64) -> ArrayConfig {
        let pc_blocks = ((footprint as f64 * self.array.pc_fraction) as u64).max(64);
        let mut config = match self.array.preset {
            ArrayPreset::Paper => ArrayConfig::paper(self.strategy, footprint, pc_blocks),
            ArrayPreset::SmallTest => {
                ArrayConfig::small_test(self.strategy, footprint).with_pc_capacity(pc_blocks)
            }
        };
        if let Some(policy) = self.array.policy {
            config.policy = policy;
        }
        if let Some(disks) = self.array.disks {
            config.disks = disks;
        }
        if let Some(sets) = &self.array.expansion_sets {
            config.expansion_sets = sets.clone();
        }
        if let Some(unit) = self.array.stripe_unit {
            config.stripe_unit = unit;
        }
        if let Some(seed) = self.array.seed {
            config.seed = seed;
        }
        if let Some(rate) = self.array.rebuild_rate {
            config.rebuild_rate_blocks_per_sec = rate;
        }
        if let Some(rate) = self.array.migration_rate {
            config.migration_rate_blocks_per_sec = Some(rate);
        }
        if let Some(priority) = self.array.background_priority {
            config.background_priority = priority;
        }
        if let Some(share) = self.array.rebuild_share {
            config.rebuild_share = share;
        }
        if let Some(share) = self.array.migration_share {
            config.migration_share = share;
        }
        if let Some(spec) = &self.array.qos {
            config.qos = Some(spec.clone());
        }
        if let Some(policy) = self.array.activation {
            config.activation = policy;
        }
        config
    }

    /// Validates the scenario's own knobs — the surface checks
    /// ([`crate::analyze::check_surface`]) that guard trace generation (the
    /// resolved [`ArrayConfig`] is additionally validated when the run
    /// builds the array). For the full pre-run static analysis — every
    /// configuration finding plus the symbolic timeline checks — use
    /// [`Scenario::analyze`].
    ///
    /// # Errors
    ///
    /// Returns [`CraidError::InvalidConfig`] carrying the first surface
    /// finding.
    pub fn validate(&self) -> Result<(), CraidError> {
        crate::analyze::Analysis {
            diagnostics: crate::analyze::check_surface(self),
        }
        .into_result()
    }

    /// Runs the scenario with its declared observers.
    ///
    /// # Errors
    ///
    /// Returns a [`CraidError`] if the resolved configuration or an event
    /// is invalid.
    pub fn run(&self) -> Result<ScenarioOutcome, CraidError> {
        self.run_observed(&mut NullObserver)
    }

    /// Runs the scenario with its declared observers plus `extra`.
    ///
    /// # Errors
    ///
    /// Returns a [`CraidError`] if the resolved configuration or an event
    /// is invalid.
    pub fn run_observed(&self, extra: &mut dyn Observer) -> Result<ScenarioOutcome, CraidError> {
        self.validate()?; // before trace generation, which asserts on its inputs
        self.run_on(&self.trace(), extra)
    }

    /// Runs the scenario against a caller-supplied trace (normally the one
    /// [`Scenario::trace`] generates — [`Campaign::run`] uses this to
    /// generate each distinct workload once and share it across the sweep).
    ///
    /// # Errors
    ///
    /// Returns a [`CraidError`] if the resolved configuration or an event
    /// is invalid.
    pub fn run_on(
        &self,
        trace: &Trace,
        extra: &mut dyn Observer,
    ) -> Result<ScenarioOutcome, CraidError> {
        // The validation funnel: every execution path ends here. The extra
        // `validate` calls in `run_observed` and `Campaign::run` exist only
        // to guard trace *generation*, which asserts on its inputs.
        self.validate()?;
        let config = self.array_config(trace);
        let mut observers = self.fan_out(extra);
        let (report, expansions, applied_events) =
            Simulation::new(config).try_run_events(trace, &self.events, &mut observers)?;
        Ok(ScenarioOutcome {
            name: self.name.clone(),
            strategy: self.strategy,
            workload: self.workload.id,
            pc_fraction: self.array.pc_fraction,
            report,
            expansions,
            applied_events,
        })
    }

    /// Runs the scenario with a [`craid_obs::Tracer`] installed, returning
    /// the outcome together with the captured trace. `capacity` bounds the
    /// tracer's ring buffer (events beyond it are counted as dropped, never
    /// reallocated). The outcome's report carries an
    /// [`craid_obs::ObsSnapshot`] in its `obs` field; everything else is
    /// bit-identical to an untraced run because tracing only *records* —
    /// it never feeds back into simulated behaviour.
    ///
    /// ```no_run
    /// use craid::ScenarioBuilder;
    ///
    /// let scenario = ScenarioBuilder::new().name("traced").build();
    /// let (outcome, trace) = scenario.run_traced(1 << 16).unwrap();
    /// std::fs::write("trace.json", trace.to_chrome_json()).unwrap();
    /// assert!(outcome.report.obs.is_some());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`CraidError`] if the resolved configuration or an event
    /// is invalid.
    pub fn run_traced(
        &self,
        capacity: usize,
    ) -> Result<(ScenarioOutcome, craid_obs::Trace), CraidError> {
        self.validate()?; // before trace generation, which asserts on its inputs
        let trace = self.trace();
        let (outcome, mut obs_trace) =
            craid_obs::with_tracer(craid_obs::Tracer::with_capacity(capacity), || {
                self.run_on(&trace, &mut NullObserver)
            });
        let mut outcome = outcome?;
        outcome.report.obs = Some(obs_trace.snapshot());
        Ok((outcome, obs_trace))
    }

    /// Pairs the scenario's declared observers with the caller's `extra`,
    /// so every engine hook reaches both.
    fn fan_out<'a>(&self, extra: &'a mut dyn Observer) -> MultiObserver<'a> {
        MultiObserver {
            declared: self
                .observers
                .iter()
                .map(|spec| match spec {
                    ObserverSpec::Progress { every } => ProgressObserver::new(&self.name, *every),
                    ObserverSpec::EventTrace => ProgressObserver::new(&self.name, 0),
                })
                .collect(),
            extra,
        }
    }
}

/// Fluent construction of a [`Scenario`].
///
/// Defaults: wdev workload, 5 000 requests, seed 20140217, the paper
/// preset, a 10 % cache partition, CRAID-5, no events.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Creates a builder with the documented defaults.
    pub fn new() -> Self {
        ScenarioBuilder {
            scenario: Scenario {
                name: "unnamed".to_string(),
                strategy: StrategyKind::Craid5,
                workload: WorkloadSource {
                    id: WorkloadId::Wdev,
                    requests: 5_000,
                    seed: 20_140_217,
                },
                array: ArraySpec::preset(ArrayPreset::Paper, 0.1),
                events: Vec::new(),
                observers: Vec::new(),
            },
        }
    }

    /// Sets the display name.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.scenario.name = name.into();
        self
    }

    /// Sets the strategy under test.
    #[must_use]
    pub fn strategy(mut self, strategy: StrategyKind) -> Self {
        self.scenario.strategy = strategy;
        self
    }

    /// Sets the workload to replay.
    #[must_use]
    pub fn workload(mut self, id: WorkloadId) -> Self {
        self.scenario.workload.id = id;
        self
    }

    /// Sets the scaled request count.
    #[must_use]
    pub fn requests(mut self, requests: u64) -> Self {
        self.scenario.workload.requests = requests;
        self
    }

    /// Sets the workload generation seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.workload.seed = seed;
        self
    }

    /// Uses the paper's 50-disk testbed shape.
    #[must_use]
    pub fn paper(mut self) -> Self {
        self.scenario.array.preset = ArrayPreset::Paper;
        self
    }

    /// Uses the small 8-disk test array.
    #[must_use]
    pub fn small_test(mut self) -> Self {
        self.scenario.array.preset = ArrayPreset::SmallTest;
        self
    }

    /// Sets the cache partition as a fraction of the workload footprint.
    #[must_use]
    pub fn pc_fraction(mut self, fraction: f64) -> Self {
        self.scenario.array.pc_fraction = fraction;
        self
    }

    /// Overrides the replacement policy.
    #[must_use]
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.scenario.array.policy = Some(policy);
        self
    }

    /// Overrides the initial disk count.
    #[must_use]
    pub fn disks(mut self, disks: usize) -> Self {
        self.scenario.array.disks = Some(disks);
        self
    }

    /// Overrides the RAID-5+ aggregation schedule.
    #[must_use]
    pub fn expansion_sets(mut self, sets: Vec<usize>) -> Self {
        self.scenario.array.expansion_sets = Some(sets);
        self
    }

    /// Overrides the stripe unit (in blocks).
    #[must_use]
    pub fn stripe_unit(mut self, blocks: u64) -> Self {
        self.scenario.array.stripe_unit = Some(blocks);
        self
    }

    /// Overrides the background rebuild pace (blocks per simulated second).
    #[must_use]
    pub fn rebuild_rate(mut self, blocks_per_sec: f64) -> Self {
        self.scenario.array.rebuild_rate = Some(blocks_per_sec);
        self
    }

    /// Paces `expand` events at this migration rate (blocks per simulated
    /// second) instead of migrating instantly.
    #[must_use]
    pub fn migration_rate(mut self, blocks_per_sec: f64) -> Self {
        self.scenario.array.migration_rate = Some(blocks_per_sec);
        self
    }

    /// Sets the background engine's block-ordering policy.
    #[must_use]
    pub fn background_priority(mut self, priority: crate::background::BackgroundPriority) -> Self {
        self.scenario.array.background_priority = Some(priority);
        self
    }

    /// Overrides the background engine's fair-share weight for rebuilds.
    #[must_use]
    pub fn rebuild_share(mut self, share: f64) -> Self {
        self.scenario.array.rebuild_share = Some(share);
        self
    }

    /// Overrides the background engine's fair-share weight for migrations
    /// and archive restripes.
    #[must_use]
    pub fn migration_share(mut self, share: f64) -> Self {
        self.scenario.array.migration_share = Some(share);
        self
    }

    /// Attaches a QoS service-level objective: background maintenance is
    /// adaptively throttled between the spec's floor and the configured
    /// rates while client service quality demands it.
    #[must_use]
    pub fn qos(mut self, spec: crate::qos::SloSpec) -> Self {
        self.scenario.array.qos = Some(spec);
        self
    }

    /// Overrides the deferred-expansion activation policy.
    #[must_use]
    pub fn activation(mut self, policy: crate::config::ActivationPolicy) -> Self {
        self.scenario.array.activation = Some(policy);
        self
    }

    /// Schedules an online upgrade.
    #[must_use]
    pub fn expand_at(mut self, at: SimTime, added_disks: usize) -> Self {
        self.scenario
            .events
            .push(ScheduledEvent::expand(at, added_disks));
        self
    }

    /// Schedules a replacement-policy switch.
    #[must_use]
    pub fn switch_policy_at(mut self, at: SimTime, policy: PolicyKind) -> Self {
        self.scenario
            .events
            .push(ScheduledEvent::policy_switch(at, policy));
        self
    }

    /// Schedules a workload-phase marker.
    #[must_use]
    pub fn phase_at(mut self, at: SimTime, label: impl Into<String>) -> Self {
        self.scenario
            .events
            .push(ScheduledEvent::workload_phase(at, label));
        self
    }

    /// Schedules a trace-swapping workload phase: from `at` on, the replay
    /// continues with the given workload's records.
    #[must_use]
    pub fn phase_swap_at(
        mut self,
        at: SimTime,
        label: impl Into<String>,
        workload: WorkloadSource,
    ) -> Self {
        self.scenario
            .events
            .push(ScheduledEvent::workload_phase_swap(at, label, workload));
        self
    }

    /// Schedules a disk failure (degraded mode starts).
    #[must_use]
    pub fn fail_disk_at(mut self, at: SimTime, disk: usize) -> Self {
        self.scenario
            .events
            .push(ScheduledEvent::disk_failure(at, disk));
        self
    }

    /// Schedules a disk repair (hot spare installed, rebuild starts).
    #[must_use]
    pub fn repair_disk_at(mut self, at: SimTime, disk: usize) -> Self {
        self.scenario
            .events
            .push(ScheduledEvent::disk_repair(at, disk));
        self
    }

    /// Attaches a serializable observer.
    #[must_use]
    pub fn observe(mut self, spec: ObserverSpec) -> Self {
        self.scenario.observers.push(spec);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder::new()
    }
}

/// One event the engine applied, in application order.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedEvent {
    /// The scheduled time.
    pub at: SimTime,
    /// Human-readable description ([`ScheduledEvent::describe`]).
    pub description: String,
    /// False for events applied after the last trace record (they execute,
    /// but outside the measurement window).
    pub during_replay: bool,
}

/// Everything one scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario's name.
    pub name: String,
    /// The strategy that ran.
    pub strategy: StrategyKind,
    /// The workload that was replayed.
    pub workload: WorkloadId,
    /// The cache-partition fraction the array was sized with.
    pub pc_fraction: f64,
    /// The full measurement report.
    pub report: SimulationReport,
    /// One report per applied expansion, in application order.
    pub expansions: Vec<ExpansionReport>,
    /// Every applied event, in application order.
    pub applied_events: Vec<AppliedEvent>,
}

/// A set of scenarios executed together.
#[derive(Debug, Clone)]
pub struct Campaign {
    scenarios: Vec<Scenario>,
}

impl Campaign {
    /// A campaign over an explicit scenario list.
    pub fn new(scenarios: Vec<Scenario>) -> Self {
        Campaign { scenarios }
    }

    /// The cartesian sweep {workloads × pc_fractions × strategies} around a
    /// base scenario (everything else — requests, seeds, overrides, events
    /// — is taken from `base`).
    ///
    /// Outcome order is workload-major, then fraction, then strategy:
    /// index `((w * fractions.len()) + f) * strategies.len() + s`.
    pub fn sweep(
        base: &Scenario,
        workloads: &[WorkloadId],
        pc_fractions: &[f64],
        strategies: &[StrategyKind],
    ) -> Campaign {
        let mut scenarios =
            Vec::with_capacity(workloads.len() * pc_fractions.len() * strategies.len());
        for &workload in workloads {
            for &fraction in pc_fractions {
                for &strategy in strategies {
                    let mut scenario = base.clone();
                    scenario.name = format!("{workload}/{strategy}/pc{fraction}");
                    scenario.workload.id = workload;
                    scenario.array.pc_fraction = fraction;
                    scenario.strategy = strategy;
                    scenarios.push(scenario);
                }
            }
        }
        Campaign::new(scenarios)
    }

    /// The scenarios in execution order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Runs every scenario in parallel (one worker per available core,
    /// capped at the scenario count) and returns the outcomes in input
    /// order. Each distinct workload source (id, request count, seed) is
    /// generated once and shared across the sweep.
    ///
    /// # Errors
    ///
    /// Returns the first scenario error in input order; the remaining
    /// scenarios still run to completion.
    pub fn run(&self) -> Result<Vec<ScenarioOutcome>, CraidError> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(self.scenarios.len().max(1));

        // Generate each distinct trace once; a 7-workload × 4-fraction ×
        // 4-strategy sweep replays 7 traces, not 112. Invalid scenarios are
        // skipped here — their `run_on` below reports the validation error.
        let mut traces: Vec<(&WorkloadSource, Trace)> = Vec::new();
        for scenario in &self.scenarios {
            if scenario.validate().is_ok()
                && !traces.iter().any(|(src, _)| **src == scenario.workload)
            {
                traces.push((&scenario.workload, scenario.trace()));
            }
        }
        let trace_for = |scenario: &Scenario| -> &Trace {
            traces
                .iter()
                .find(|(src, _)| **src == scenario.workload)
                .map(|(_, t)| t)
                .expect("every scenario's trace was pre-generated")
        };

        // Work-stealing dispatch: workers claim the next unstarted scenario
        // from a shared atomic counter, so one long-running configuration
        // (a paced restripe, a large trace) no longer parks the rest of its
        // static chunk behind it while other workers sit idle. Results
        // travel back tagged with their input index, keeping the outcome
        // order deterministic regardless of which worker finished when.
        let mut results: Vec<Option<Result<ScenarioOutcome, CraidError>>> =
            self.scenarios.iter().map(|_| None).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let (sender, receiver) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let sender = sender.clone();
                let next = &next;
                let trace_for = &trace_for;
                let scenarios = &self.scenarios;
                scope.spawn(move || loop {
                    let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(scenario) = scenarios.get(index) else {
                        break;
                    };
                    let result = match scenario.validate() {
                        Ok(()) => scenario.run_on(trace_for(scenario), &mut NullObserver),
                        Err(e) => Err(e),
                    };
                    if sender.send((index, result)).is_err() {
                        break;
                    }
                });
            }
            drop(sender);
            for (index, result) in receiver {
                results[index] = Some(result);
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every scenario slot was filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario::builder()
            .name("tiny")
            .strategy(StrategyKind::Craid5)
            .workload(WorkloadId::Wdev)
            .requests(400)
            .seed(3)
            .small_test()
            .pc_fraction(0.2)
            .build()
    }

    #[test]
    fn static_duration_bounds_the_generated_trace() {
        let s = tiny();
        let secs = s.static_duration_secs();
        let traced = s.trace().duration().as_secs();
        assert!(traced <= secs && traced > 0.9 * secs, "{traced} vs {secs}");
    }

    /// Records which hooks fired, for the fan-out forwarding test.
    #[derive(Default)]
    struct Counting {
        requests: u64,
        events: u64,
        throttles: u64,
        activations: u64,
    }

    impl Observer for Counting {
        fn on_request(
            &mut self,
            _record: &craid_trace::TraceRecord,
            _outcome: &crate::observer::RequestOutcome,
        ) {
            self.requests += 1;
        }

        fn on_event(&mut self, _event: &ScheduledEvent, _expansion: Option<&ExpansionReport>) {
            self.events += 1;
        }

        fn on_throttle(&mut self, _now: SimTime, _scale: f64) {
            self.throttles += 1;
        }

        fn on_deferred_activation(&mut self, _at: SimTime, _added_disks: usize) {
            self.activations += 1;
        }
    }

    /// `run_on` pairs the declared observers with the caller's: one side
    /// per declared spec, the caller's observer on the other, and every
    /// hook reaches both.
    #[test]
    fn pair_observer_forwards_every_hook_to_both_sides() {
        let mut s = tiny();
        s.observers = vec![
            ObserverSpec::Progress { every: 0 },
            ObserverSpec::EventTrace,
        ];
        let mut caller = Counting::default();
        let declared_seen = {
            let mut pair = s.fan_out(&mut caller);
            let record =
                craid_trace::TraceRecord::new(SimTime::ZERO, craid_diskmodel::IoKind::Read, 0, 8);
            let outcome = crate::observer::RequestOutcome {
                worst_ms: 1.0,
                reports: Vec::new(),
            };
            pair.on_request(&record, &outcome);
            pair.on_event(&ScheduledEvent::expand(SimTime::ZERO, 2), None);
            pair.on_throttle(SimTime::from_secs(1.0), 0.5);
            pair.on_deferred_activation(SimTime::from_secs(2.0), 4);
            pair.declared.iter().map(|o| o.seen).collect::<Vec<_>>()
        };
        assert_eq!(declared_seen, [1, 1], "one declared observer per spec");
        assert_eq!((caller.requests, caller.events), (1, 1));
        assert_eq!((caller.throttles, caller.activations), (1, 1));
    }

    #[test]
    fn run_traced_attaches_snapshot_and_captures_request_spans() {
        let (outcome, trace) = tiny().run_traced(1 << 16).unwrap();
        let obs = outcome.report.obs.as_ref().expect("traced run sets obs");
        let requests = outcome.report.requests;
        assert_eq!(obs.metrics.counters.get("requests"), Some(&requests));
        assert_eq!(obs.spans.get("request"), Some(&requests));
        assert_eq!(obs.recorded, trace.events.len() as u64);
        assert_eq!(obs.dropped, 0);
        // The same scenario untraced leaves the field unset.
        let untraced = tiny().run().unwrap();
        assert!(untraced.report.obs.is_none());
    }

    #[test]
    fn run_traced_rejects_an_empty_workload_before_generating_it() {
        // Trace generation asserts on a zero request count; validation
        // must turn that into an error first.
        let mut empty = tiny();
        empty.workload.requests = 0;
        let outcome = empty.run_traced(1 << 10);
        assert!(matches!(outcome, Err(CraidError::InvalidConfig(_))));
    }

    #[test]
    fn builder_sets_every_field() {
        let s = Scenario::builder()
            .name("full")
            .strategy(StrategyKind::Craid5PlusSsd)
            .workload(WorkloadId::Proj)
            .requests(123)
            .seed(9)
            .small_test()
            .pc_fraction(0.05)
            .policy(PolicyKind::Arc)
            .disks(4)
            .expansion_sets(vec![4])
            .stripe_unit(8)
            .rebuild_rate(5_000.0)
            .migration_rate(750.0)
            .background_priority(crate::background::BackgroundPriority::HotFirst)
            .expand_at(SimTime::from_secs(10.0), 2)
            .switch_policy_at(SimTime::from_secs(20.0), PolicyKind::Lru)
            .phase_at(SimTime::from_secs(30.0), "late")
            .fail_disk_at(SimTime::from_secs(40.0), 2)
            .repair_disk_at(SimTime::from_secs(50.0), 2)
            .phase_swap_at(
                SimTime::from_secs(60.0),
                "night shift",
                WorkloadSource {
                    id: WorkloadId::Proj,
                    requests: 250,
                    seed: 5,
                },
            )
            .observe(ObserverSpec::EventTrace)
            .build();
        assert_eq!(s.name, "full");
        assert_eq!(s.strategy, StrategyKind::Craid5PlusSsd);
        assert_eq!(s.workload.id, WorkloadId::Proj);
        assert_eq!(s.workload.requests, 123);
        assert_eq!(s.workload.seed, 9);
        assert_eq!(s.array.preset, ArrayPreset::SmallTest);
        assert_eq!(s.array.pc_fraction, 0.05);
        assert_eq!(s.array.policy, Some(PolicyKind::Arc));
        assert_eq!(s.array.disks, Some(4));
        assert_eq!(s.array.rebuild_rate, Some(5_000.0));
        assert_eq!(s.array.migration_rate, Some(750.0));
        assert_eq!(
            s.array.background_priority,
            Some(crate::background::BackgroundPriority::HotFirst)
        );
        assert_eq!(s.events.len(), 6);
        assert_eq!(
            s.events[3],
            ScheduledEvent::disk_failure(SimTime::from_secs(40.0), 2)
        );
        assert_eq!(
            s.events[4],
            ScheduledEvent::disk_repair(SimTime::from_secs(50.0), 2)
        );
        let ScheduledEvent::WorkloadPhase {
            workload: Some(source),
            ..
        } = &s.events[5]
        else {
            panic!("the sixth event swaps the trace");
        };
        assert_eq!(source.id, WorkloadId::Proj);
        assert_eq!(s.observers.len(), 1);
    }

    #[test]
    fn scenario_round_trips_through_toml_and_json() {
        let s = tiny()
            .clone()
            .builder_like()
            .expand_at(SimTime::from_secs(100.0), 4)
            .expand_at(SimTime::from_secs(200.0), 2)
            .switch_policy_at(SimTime::from_secs(150.0), PolicyKind::Wlru(0.5))
            .phase_at(SimTime::from_secs(50.0), "warmup done")
            .phase_swap_at(
                SimTime::from_secs(70.0),
                "new tenants",
                WorkloadSource {
                    id: WorkloadId::Webusers,
                    requests: 120,
                    seed: 9,
                },
            )
            .fail_disk_at(SimTime::from_secs(60.0), 3)
            .repair_disk_at(SimTime::from_secs(80.0), 3)
            .migration_rate(640.0)
            .background_priority(crate::background::BackgroundPriority::HotFirst)
            .rebuild_share(2.0)
            .migration_share(0.25)
            .qos(crate::qos::SloSpec::latency_target(30.0).with_floor(0.2))
            .activation(crate::config::ActivationPolicy::WaitForRepair)
            .observe(ObserverSpec::Progress { every: 100 })
            .build();

        let toml_text = s.to_toml().unwrap();
        let from_toml = Scenario::from_toml(&toml_text).unwrap();
        assert_eq!(from_toml, s, "TOML round trip:\n{toml_text}");

        let json_text = s.to_json().unwrap();
        let from_json = Scenario::from_json(&json_text).unwrap();
        assert_eq!(from_json, s, "JSON round trip:\n{json_text}");
    }

    #[test]
    fn handwritten_toml_parses() {
        let text = r#"
            name = "hand written"
            strategy = "CRAID-5+"

            [workload]
            id = "webusers"
            requests = 500
            seed = 11

            [array]
            preset = "small-test"
            pc_fraction = 0.2
            disks = 4
            expansion_sets = [4]
            activation = "wait-for-repair"

            [array.qos]
            target_latency_ms = 25.0
            floor = 0.15

            [[events]]
            kind = "expand"
            at_secs = 120.0
            added_disks = 4

            [[events]]
            kind = "policy-switch"
            at_secs = 240.0
            policy = "ARC"

            [[events]]
            kind = "disk-failure"
            at_secs = 300.0
            disk = 2

            [[events]]
            kind = "disk-repair"
            at_secs = 360.0
            disk = 2

            [[events]]
            kind = "workload-phase"
            at_secs = 400.0
            label = "night batch"
            workload = "proj"
            requests = 200
        "#;
        let s = Scenario::from_toml(text).unwrap();
        assert_eq!(s.strategy, StrategyKind::Craid5Plus);
        assert_eq!(s.workload.id, WorkloadId::Webusers);
        assert_eq!(s.array.disks, Some(4));
        assert_eq!(
            s.array.activation,
            Some(crate::config::ActivationPolicy::WaitForRepair)
        );
        let qos = s.array.qos.as_ref().expect("the [array.qos] table parsed");
        assert_eq!(qos.target_latency_ms, Some(25.0));
        assert_eq!(qos.floor, 0.15);
        assert_eq!(
            qos.window_secs,
            crate::qos::SloSpec::default().window_secs,
            "omitted QoS fields take their defaults"
        );
        let config = s.array_config(&s.trace());
        assert!(config.qos.is_some(), "the spec reaches the array config");
        assert_eq!(
            config.activation,
            crate::config::ActivationPolicy::WaitForRepair
        );
        assert_eq!(s.events.len(), 5);
        assert_eq!(
            s.events[4],
            ScheduledEvent::workload_phase_swap(
                SimTime::from_secs(400.0),
                "night batch",
                WorkloadSource {
                    id: WorkloadId::Proj,
                    requests: 200,
                    seed: 0, // workload_seed defaults to 0 when omitted
                },
            )
        );
        assert_eq!(
            s.events[1],
            ScheduledEvent::policy_switch(SimTime::from_secs(240.0), PolicyKind::Arc)
        );
        assert_eq!(
            s.events[2],
            ScheduledEvent::disk_failure(SimTime::from_secs(300.0), 2)
        );
        assert_eq!(
            s.events[3],
            ScheduledEvent::disk_repair(SimTime::from_secs(360.0), 2)
        );
        assert!(s.observers.is_empty(), "omitted lists default to empty");
    }

    #[test]
    fn events_at_equal_times_apply_in_declaration_order() {
        let at = SimTime::from_secs(600.0);
        let s = tiny()
            .builder_like()
            .strategy(StrategyKind::Craid5Plus)
            .disks(4)
            .expansion_sets(vec![4])
            .expand_at(at, 4)
            .expand_at(at, 2)
            .build();
        let outcome = s.run().unwrap();
        let added: Vec<usize> = outcome.expansions.iter().map(|e| e.added_disks).collect();
        assert_eq!(added, vec![4, 2], "declaration order must be preserved");
        assert!(outcome.applied_events[0].description.contains("4 disks"));
        assert!(outcome.applied_events[1].description.contains("2 disks"));
    }

    #[test]
    fn campaign_sweep_builds_the_cartesian_product() {
        let base = tiny();
        let campaign = Campaign::sweep(
            &base,
            &[WorkloadId::Wdev, WorkloadId::Webusers],
            &[0.05, 0.2],
            &[StrategyKind::Raid5, StrategyKind::Craid5],
        );
        assert_eq!(campaign.scenarios().len(), 8);
        let names: Vec<&str> = campaign
            .scenarios()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names[0], "wdev/RAID-5/pc0.05");
        assert_eq!(names[7], "webusers/CRAID-5/pc0.2");
        // Requests/seed come from the base scenario.
        assert!(campaign
            .scenarios()
            .iter()
            .all(|s| s.workload.requests == 400));
    }

    #[test]
    fn campaign_runs_in_parallel_and_preserves_order() {
        let base = tiny();
        let campaign = Campaign::sweep(
            &base,
            &[WorkloadId::Wdev],
            &[0.1],
            &[StrategyKind::Raid5, StrategyKind::Craid5],
        );
        let outcomes = campaign.run().unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].strategy, StrategyKind::Raid5);
        assert_eq!(outcomes[1].strategy, StrategyKind::Craid5);
        assert!(outcomes[0].report.craid.is_none());
        assert!(outcomes[1].report.craid.is_some());
    }

    #[test]
    fn campaign_surfaces_scenario_errors() {
        let mut bad = tiny();
        bad.array.disks = Some(7); // parity group 4 does not divide 7
        let outcome = Campaign::new(vec![bad]).run();
        assert!(matches!(outcome, Err(CraidError::InvalidConfig(_))));
    }

    #[test]
    fn an_empty_phase_swap_is_refused_before_any_trace_is_built() {
        // The swapped-in segment is generated mid-run, and generation
        // asserts on a zero request count: validation must refuse it with
        // the analyser's own finding first, on every entry point.
        let empty = WorkloadSource {
            requests: 0,
            ..tiny().workload
        };
        let bad = tiny()
            .builder_like()
            .phase_swap_at(SimTime::from_secs(1.0), "empty", empty)
            .build();
        let code = |result: Result<(), CraidError>| match result {
            Err(CraidError::InvalidConfig(d)) => d.code,
            other => panic!("expected an InvalidConfig error, got {other:?}"),
        };
        assert_eq!(
            code(bad.run().map(drop)),
            crate::analyze::codes::EMPTY_WORKLOAD
        );
        assert_eq!(
            code(Campaign::new(vec![bad]).run().map(drop)),
            crate::analyze::codes::EMPTY_WORKLOAD
        );
    }

    #[test]
    fn campaign_determinism_same_seed_identical_reports() {
        let s = tiny();
        let a = Campaign::new(vec![s.clone()]).run().unwrap();
        let b = Campaign::new(vec![s]).run().unwrap();
        assert_eq!(a[0].report, b[0].report);
    }

    impl Scenario {
        /// Test helper: reopen a scenario in a builder.
        fn builder_like(&self) -> ScenarioBuilder {
            ScenarioBuilder {
                scenario: self.clone(),
            }
        }
    }
}
