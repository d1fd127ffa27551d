//! Online fleet monitor: the deployment-side wrapper around a trained
//! [`Cordial`] pipeline.
//!
//! Production BMCs deliver error records one at a time. [`CordialMonitor`]
//! keeps incremental per-bank state, decides the moment a bank crosses the
//! k-distinct-UER observation threshold, plans exactly once per bank, and
//! applies the plan against a hardware [`IsolationEngine`] — everything the
//! paper's Fig. 5 pipeline needs to run as a service rather than a batch
//! job.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use cordial_faultsim::{CoarsePattern, IsolationEngine, IsolationSnapshot, SparingBudget};
use cordial_mcelog::{BankErrorHistory, ErrorEvent, ErrorType, Timestamp};
use cordial_obs::{DriftConfig, MixDriftDetector};
use cordial_topology::{BankAddress, CellAddress, ColId, RowId};

use crate::checkpoint::check_schema_version;
use crate::isolation::apply_plan;
use crate::pipeline::{Cordial, MitigationPlan};

/// Version of the [`MonitorCheckpoint`] wire format this build writes.
///
/// Bumped whenever the checkpoint layout changes incompatibly (new stats
/// fields, guard-buffer shape, …), together with a new arm in the
/// checkpoint's schema-version gate (`crates/core/src/checkpoint.rs`) so
/// older checkpoints keep loading.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// Why the degraded-stream guard refused an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// An identical event (same cell, timestamp and severity) is already
    /// in flight within the reorder window.
    Duplicate,
    /// The event's timestamp is older than the guard's reorder bound
    /// allows; admitting it would break the ordered release guarantee.
    LateArrival,
}

/// What happened when the monitor ingested one event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The event was recorded; no action triggered.
    Recorded,
    /// The event hit a region an earlier plan had isolated: the spare
    /// absorbed the error before it reached live data.
    AbsorbedByIsolation,
    /// This event completed a bank's observation window and triggered a
    /// mitigation plan.
    Planned {
        /// The plan that was produced and applied.
        plan: MitigationPlan,
        /// How many of the plan's isolations the spare budget admitted.
        applied: usize,
    },
    /// The degraded-stream guard refused the event (guarded ingestion
    /// only); it was counted but not recorded into any bank history.
    Rejected {
        /// Why the event was refused.
        reason: RejectReason,
    },
}

/// Running totals of a monitoring session.
///
/// The per-[`IngestOutcome`] split is complete: every ingested event lands
/// in exactly one of `outcomes_recorded`, `uers_absorbed`
/// ([`IngestOutcome::AbsorbedByIsolation`]), `banks_planned`
/// ([`IngestOutcome::Planned`]), `rejected_duplicates` or `rejected_late`
/// (the two [`IngestOutcome::Rejected`] reasons). The sparing fields are
/// derived from the isolation engine at [`CordialMonitor::stats`] time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MonitorStats {
    /// Events ingested (including rejected ones; excluding events still
    /// buffered in the reorder window).
    pub events: usize,
    /// Events that returned [`IngestOutcome::Recorded`] (no action).
    pub outcomes_recorded: usize,
    /// UER events absorbed by earlier isolations.
    pub uers_absorbed: usize,
    /// UER events that reached live data.
    pub uers_missed: usize,
    /// Banks that received a plan.
    pub banks_planned: usize,
    /// Row isolations admitted by the budget.
    pub rows_isolated: usize,
    /// Banks spared wholesale.
    pub banks_spared: usize,
    /// Duplicate events suppressed by the guard.
    pub rejected_duplicates: usize,
    /// Events rejected for arriving beyond the reorder bound.
    pub rejected_late: usize,
    /// Out-of-order events the guard buffered and re-released in order
    /// (these also land in one of the regular outcome buckets).
    pub recovered_reordered: usize,
    /// Plans whose isolations the spare budget admitted only partially
    /// (or not at all): the saturating-degradation path.
    pub plans_saturated: usize,
    /// Planned banks whose isolations have absorbed at least one UER so
    /// far: the numerator of [`MonitorStats::live_precision`], the live
    /// health signal a serving fleet watches for model drift.
    pub plans_absorbing: usize,
    /// Sum of plan→absorbed-UER lead times in stream milliseconds (one
    /// term per absorbed UER); integer so the stat stays `Eq` and
    /// bit-identical across runs.
    pub lead_time_ms_total: u64,
    /// The sparing budget the isolation engine was created with.
    pub budget: SparingBudget,
    /// Spare rows still unused across banks that have consumed at least
    /// one (untouched banks sit at the full per-bank budget).
    pub spare_rows_remaining: u64,
    /// Spare banks still unused across HBMs that have consumed at least
    /// one.
    pub spare_banks_remaining: u64,
}

impl MonitorStats {
    /// Fraction of UER events absorbed by proactive isolation.
    pub fn absorption_rate(&self) -> f64 {
        let total = self.uers_absorbed + self.uers_missed;
        if total == 0 {
            0.0
        } else {
            self.uers_absorbed as f64 / total as f64
        }
    }

    /// Total events the degraded-stream guard refused.
    pub fn rejected(&self) -> usize {
        self.rejected_duplicates + self.rejected_late
    }

    /// Fraction of planned banks whose plan has absorbed at least one UER:
    /// the online analogue of prediction precision, computable without
    /// ground truth. `1.0` while nothing has been planned yet (no evidence
    /// of a bad model).
    pub fn live_precision(&self) -> f64 {
        if self.banks_planned == 0 {
            1.0
        } else {
            self.plans_absorbing as f64 / self.banks_planned as f64
        }
    }

    /// Mean plan→absorption lead time over all absorbed UERs, in stream
    /// milliseconds (0 when nothing has been absorbed).
    pub fn mean_lead_time_ms(&self) -> f64 {
        if self.uers_absorbed == 0 {
            0.0
        } else {
            self.lead_time_ms_total as f64 / self.uers_absorbed as f64
        }
    }

    /// Whether every counted event landed in exactly one outcome bucket —
    /// the completeness invariant the chaos harness asserts.
    pub fn split_is_complete(&self) -> bool {
        self.outcomes_recorded + self.uers_absorbed + self.banks_planned + self.rejected()
            == self.events
    }
}

/// Tuning of the degraded-stream guard in front of a [`CordialMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardConfig {
    /// Maximum tolerated timestamp disorder, in milliseconds: an event
    /// whose timestamp is more than this behind the stream's watermark is
    /// rejected as [`RejectReason::LateArrival`], and buffered events are
    /// released (in time order) only once the watermark has moved past
    /// their timestamp by more than this bound.
    pub reorder_bound_ms: u64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        // Five simulated minutes: generous against BMC scrape jitter while
        // keeping the reorder buffer small relative to fleet event rates.
        Self {
            reorder_bound_ms: 300_000,
        }
    }
}

/// Dedup/ordering key of one event: exact equality means duplicate.
type EventKey = (Timestamp, CellAddress, ErrorType);

fn event_key(event: &ErrorEvent) -> EventKey {
    (event.time, event.addr, event.error_type)
}

/// Degraded-stream front end: bounded reorder buffer plus duplicate
/// suppression. Events are admitted in arrival order but released to the
/// monitor in timestamp order; the buffer holds exactly the events within
/// `reorder_bound_ms` of the watermark, so memory stays bounded by the
/// stream rate times the bound.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StreamGuard {
    config: GuardConfig,
    /// Admitted-but-unreleased events, sorted by [`event_key`].
    pending: Vec<ErrorEvent>,
    /// Highest event timestamp admitted so far.
    watermark: Timestamp,
    /// Whether any event has been admitted (gives `watermark` meaning).
    started: bool,
    /// Total events offered to the guard (admitted + rejected): the resume
    /// cursor for checkpointed ingestion.
    offered: usize,
}

impl StreamGuard {
    fn new(config: GuardConfig) -> Self {
        Self {
            config,
            pending: Vec::new(),
            watermark: Timestamp::ZERO,
            started: false,
            offered: 0,
        }
    }

    fn bound(&self) -> Duration {
        Duration::from_millis(self.config.reorder_bound_ms)
    }
}

/// Stateful online monitor over a trained pipeline.
///
/// The pipeline is a shared [`Cordial`] handle: monitors built from clones
/// of one pipeline share its models and flat inference twins, so a
/// monitor's own memory is its per-bank state and creating one costs
/// nothing in model size.
///
/// # Example
///
/// ```
/// use cordial::monitor::CordialMonitor;
/// use cordial::prelude::*;
/// use cordial_faultsim::SparingBudget;
///
/// let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 3);
/// let banks: Vec<BankAddress> = dataset.truth.keys().copied().collect();
/// let cordial = Cordial::fit(&dataset, &banks, &CordialConfig::default())?;
///
/// let mut monitor = CordialMonitor::new(cordial, SparingBudget::typical());
/// for event in dataset.log.events() {
///     monitor.ingest(*event);
/// }
/// println!("absorbed {:.1}%", monitor.stats().absorption_rate() * 100.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CordialMonitor {
    /// The serving pipeline: a shared handle, so the monitor holds no model
    /// state of its own and plans through the pipeline's flat twins.
    pipeline: Cordial,
    engine: IsolationEngine,
    /// Per-bank incremental state.
    banks: BTreeMap<BankAddress, BankState>,
    stats: MonitorStats,
    /// Degraded-stream front end for the `*_guarded` ingestion paths.
    guard: StreamGuard,
    /// Rolling health watchdogs; derived state, never checkpointed.
    health: MonitorHealth,
    /// This monitor's part of the process-wide `monitor.*` gauges.
    gauges: GaugeShare,
}

/// One monitor's part of the gauges `monitor.banks_tracked`,
/// `monitor.spare_rows_remaining`, `monitor.spare_banks_remaining` and
/// `monitor.guard.pending`, which sum over the process's live monitors:
/// publishing adds the change in this part, and dropping the monitor
/// withdraws it. A clone starts with no part of its own.
#[derive(Debug, Default)]
struct GaugeShare {
    /// The values last added, in the order of [`GaugeShare::gauges`];
    /// `None` until the first publication.
    added: Option<[f64; 4]>,
}

impl GaugeShare {
    fn gauges() -> [&'static cordial_obs::Gauge; 4] {
        [
            cordial_obs::gauge!("monitor.banks_tracked"),
            cordial_obs::gauge!("monitor.spare_rows_remaining"),
            cordial_obs::gauge!("monitor.spare_banks_remaining"),
            cordial_obs::gauge!("monitor.guard.pending"),
        ]
    }

    fn publish(&mut self, values: [f64; 4]) {
        let added = self.added.unwrap_or_default();
        for ((gauge, new), old) in Self::gauges().into_iter().zip(values).zip(added) {
            if new != old {
                gauge.add(new - old);
            }
        }
        self.added = Some(values);
    }
}

impl Clone for GaugeShare {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Drop for GaugeShare {
    fn drop(&mut self) {
        if self.added.is_some() {
            self.publish([0.0; 4]);
        }
    }
}

/// Configuration for the monitor's telemetry health watchdogs
/// ([`MonitorHealth`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// Drift detector over the classified pattern mix of planned banks
    /// (double-row / single-row / scattered shares).
    pub pattern_mix: DriftConfig,
    /// Drift detector over lead-time histogram bucket occupancy
    /// (plan → first absorbed UER, simulated stream time).
    pub lead_time: DriftConfig,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            pattern_mix: DriftConfig {
                window: 32,
                threshold: 0.35,
            },
            lead_time: DriftConfig {
                window: 64,
                threshold: 0.35,
            },
        }
    }
}

/// Rolling telemetry health watchdogs fed by the ingest stream.
///
/// Both detectors are pure functions of the event stream (simulated time
/// and arrival order), so their alerts are identical across thread counts
/// and ingestion paths. Watchdog state is derived, in-memory state: it is
/// intentionally *not* checkpointed — a restored monitor restarts with
/// empty windows and the default [`HealthConfig`] (re-apply
/// [`CordialMonitor::with_health_config`] after restore if customised).
#[derive(Debug, Clone)]
pub struct MonitorHealth {
    pattern_mix: MixDriftDetector,
    lead_time: MixDriftDetector,
}

impl MonitorHealth {
    fn new(config: HealthConfig) -> Self {
        Self {
            pattern_mix: MixDriftDetector::new(
                "pattern_mix",
                CoarsePattern::ALL.len(),
                config.pattern_mix,
            ),
            lead_time: MixDriftDetector::new(
                "lead_time",
                cordial_obs::LEAD_TIME_BOUNDS.len() + 1,
                config.lead_time,
            ),
        }
    }

    /// Drift detector over the classified pattern mix of planned banks.
    pub fn pattern_mix(&self) -> &MixDriftDetector {
        &self.pattern_mix
    }

    /// Drift detector over lead-time histogram bucket occupancy.
    pub fn lead_time(&self) -> &MixDriftDetector {
        &self.lead_time
    }

    /// Total alerts raised by both drift detectors.
    pub fn alerts(&self) -> u64 {
        self.pattern_mix.alerts() + self.lead_time.alerts()
    }
}

/// One event of a bank's observation window: an [`ErrorEvent`] without
/// the bank address that the window's map key already holds. 16 bytes
/// against the event's 32, and the windows of never-planned banks hold
/// most of a long-running monitor's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WindowEvent {
    time: Timestamp,
    row: RowId,
    col: ColId,
    error_type: ErrorType,
}

const _: () = assert!(std::mem::size_of::<WindowEvent>() == 16);

impl WindowEvent {
    fn of(event: &ErrorEvent) -> Self {
        Self {
            time: event.time,
            row: event.addr.row,
            col: event.addr.col,
            error_type: event.error_type,
        }
    }

    fn event(self, bank: BankAddress) -> ErrorEvent {
        ErrorEvent::new(
            CellAddress::new(bank, self.row, self.col),
            self.time,
            self.error_type,
        )
    }
}

/// One tracked bank, in the monitor and in its checkpoints alike.
#[derive(Debug, Clone, Default)]
struct BankState {
    /// The observation window in arrival order; closed (no longer fed)
    /// once the bank is planned.
    events: Vec<WindowEvent>,
    distinct_uer_rows: Vec<RowId>,
    planned: bool,
    /// Simulated time the bank's plan was applied; anchors the lead-time
    /// histogram (plan → first absorbed UER). Simulated rather than wall
    /// clock, so the distribution is identical across thread counts.
    planned_at: Option<Timestamp>,
    /// Whether the bank's plan has absorbed at least one UER (feeds
    /// [`MonitorStats::plans_absorbing`] exactly once per bank).
    absorbed_once: bool,
}

impl BankState {
    /// The window as the events it was recorded from.
    fn window(&self, bank: BankAddress) -> Vec<ErrorEvent> {
        self.events.iter().map(|event| event.event(bank)).collect()
    }

    fn saved(&self, bank: BankAddress) -> SavedBankState {
        SavedBankState {
            events: self.window(bank),
            distinct_uer_rows: self.distinct_uer_rows.clone(),
            planned: self.planned,
            planned_at: self.planned_at,
            absorbed_once: self.absorbed_once,
        }
    }

    fn from_saved(bank: BankAddress, saved: SavedBankState) -> Result<Self, serde::Error> {
        let events = saved
            .events
            .iter()
            .map(|event| {
                if event.addr.bank == bank {
                    Ok(WindowEvent::of(event))
                } else {
                    Err(serde::Error::custom(format!(
                        "an event of {} is in the window of {bank}",
                        event.addr.bank
                    )))
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            events,
            distinct_uer_rows: saved.distinct_uer_rows,
            planned: saved.planned,
            planned_at: saved.planned_at,
            absorbed_once: saved.absorbed_once,
        })
    }
}

/// A [`BankState`] as checkpoints store it: the window as whole
/// [`ErrorEvent`]s, so the JSON keeps the layout it had before windows
/// dropped the bank address.
#[derive(Serialize, Deserialize)]
struct SavedBankState {
    events: Vec<ErrorEvent>,
    distinct_uer_rows: Vec<RowId>,
    planned: bool,
    planned_at: Option<Timestamp>,
    absorbed_once: bool,
}

/// Serialisable capture of a [`CordialMonitor`]'s complete mutable state:
/// isolation engine, per-bank histories, session stats and the guard's
/// reorder buffer. Produced by [`CordialMonitor::checkpoint`], consumed by
/// [`CordialMonitor::restore`]; the trained pipeline travels separately.
///
/// The fields are intentionally opaque — a checkpoint is a resume token,
/// not an inspection surface (use [`CordialMonitor::stats`] after restore).
///
/// Serialization is hand-written rather than derived because the payload
/// is versioned: `Serialize` stamps [`CHECKPOINT_SCHEMA_VERSION`], and
/// `Deserialize` first checks the payload's schema version in place, so
/// every loader accepts older checkpoints and refuses newer ones with the
/// "unsupported future schema version" error.
#[derive(Debug, Clone)]
pub struct MonitorCheckpoint {
    engine: IsolationSnapshot,
    banks: Vec<(BankAddress, BankState)>,
    stats: MonitorStats,
    guard: StreamGuard,
}

impl MonitorCheckpoint {
    /// Events offered to the guard when the checkpoint was taken: how many
    /// stream records to skip when resuming guarded ingestion.
    pub fn events_offered(&self) -> usize {
        self.guard.offered
    }
}

impl Serialize for MonitorCheckpoint {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                String::from("schema_version"),
                CHECKPOINT_SCHEMA_VERSION.to_value(),
            ),
            (String::from("engine"), self.engine.to_value()),
            (
                String::from("banks"),
                serde::Value::Seq(
                    self.banks
                        .iter()
                        .map(|(bank, state)| (*bank, state.saved(*bank)).to_value())
                        .collect(),
                ),
            ),
            (String::from("stats"), self.stats.to_value()),
            (String::from("guard"), self.guard.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for MonitorCheckpoint {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        check_schema_version(value)?;
        // Older checkpoints also carry a `feature_caps` entry (per-bank
        // feature-state bounds the monitor no longer has); it is ignored.
        let banks: Vec<(BankAddress, SavedBankState)> = serde::de_field(value, "banks")?;
        let banks = banks
            .into_iter()
            .map(|(bank, saved)| Ok((bank, BankState::from_saved(bank, saved)?)))
            .collect::<Result<_, serde::Error>>()
            .map_err(|e| serde::Error::custom(format!("field `banks`: {e}")))?;
        Ok(Self {
            engine: serde::de_field(value, "engine")?,
            banks,
            stats: serde::de_field(value, "stats")?,
            guard: serde::de_field(value, "guard")?,
        })
    }
}

impl CordialMonitor {
    /// Wraps a trained pipeline with a fresh isolation engine. The
    /// pipeline is shared, not copied: pass `pipeline.clone()` freely.
    pub fn new(pipeline: Cordial, budget: SparingBudget) -> Self {
        Self {
            pipeline,
            engine: IsolationEngine::new(budget),
            banks: BTreeMap::new(),
            stats: MonitorStats::default(),
            guard: StreamGuard::new(GuardConfig::default()),
            health: MonitorHealth::new(HealthConfig::default()),
            gauges: GaugeShare::default(),
        }
    }

    /// Replaces the degraded-stream guard configuration (builder style).
    ///
    /// Only meaningful before the first `*_guarded` ingestion; changing the
    /// bound mid-stream would retroactively reclassify buffered events.
    pub fn with_guard_config(mut self, config: GuardConfig) -> Self {
        self.guard = StreamGuard::new(config);
        self
    }

    /// Replaces the health-watchdog configuration (builder style).
    ///
    /// Resets every rolling window, so it is only meaningful before
    /// ingestion starts (or immediately after [`CordialMonitor::restore`],
    /// whose windows start empty anyway).
    pub fn with_health_config(mut self, config: HealthConfig) -> Self {
        self.health = MonitorHealth::new(config);
        self
    }

    /// The telemetry health watchdogs' current state.
    pub fn health(&self) -> &MonitorHealth {
        &self.health
    }

    /// Ingests one event from the BMC stream.
    ///
    /// Events are expected in roughly time order (the per-bank history is
    /// re-sorted at planning time, so modest reordering is harmless).
    pub fn ingest(&mut self, event: ErrorEvent) -> IngestOutcome {
        self.publishing(|monitor| monitor.record(event))
    }

    /// [`CordialMonitor::ingest`]'s work on one event, without publishing
    /// the per-event counters and gauges: the public calls publish once
    /// for all the events they record.
    fn record(&mut self, event: ErrorEvent) -> IngestOutcome {
        self.stats.events += 1;
        let bank = event.addr.bank;

        // An access into an isolated region is absorbed by the spare.
        if event.is_uer() {
            if self.engine.is_isolated(&bank, event.addr.row) {
                self.stats.uers_absorbed += 1;
                // Lead time from the plan to this absorbed UER, in
                // simulated stream time (deterministic across runs).
                if let Some(state) = self.banks.get_mut(&bank) {
                    if let Some(planned_at) = state.planned_at {
                        if !state.absorbed_once {
                            state.absorbed_once = true;
                            self.stats.plans_absorbing += 1;
                            // Timeline instant on the *first* absorption
                            // per bank only (the plan-validated moment):
                            // per-UER instants would dominate the
                            // recorder's hot-path budget for nothing.
                            if cordial_obs::recorder::enabled() {
                                cordial_obs::recorder::instant(
                                    "ingest",
                                    "absorbed",
                                    format!("{bank} row {}", event.addr.row),
                                );
                            }
                        }
                        let lead = event.time.saturating_since(planned_at);
                        self.stats.lead_time_ms_total += lead.as_millis() as u64;
                        let lead_secs = lead.as_secs_f64();
                        cordial_obs::histogram!(
                            "monitor.lead_time.seconds",
                            cordial_obs::LEAD_TIME_BOUNDS
                        )
                        .observe(lead_secs);
                        // Same bucketing as the histogram: the drift
                        // detector watches the bucket-occupancy mix.
                        let bucket = cordial_obs::LEAD_TIME_BOUNDS
                            .iter()
                            .position(|b| lead_secs <= *b)
                            .unwrap_or(cordial_obs::LEAD_TIME_BOUNDS.len());
                        self.health.lead_time.observe(bucket);
                    }
                }
                return IngestOutcome::AbsorbedByIsolation;
            }
            self.stats.uers_missed += 1;
        }

        let k_uers = self.pipeline.config().k_uers;
        let state = self.banks.entry(bank).or_default();
        // The event buffer exists to materialise the observation window;
        // once the bank is planned the window is closed, and feeding it
        // further would grow per-bank state (and per-event cost) without
        // bound on a long-running stream.
        if !state.planned {
            state.events.push(WindowEvent::of(&event));
            if event.is_uer() && !state.distinct_uer_rows.contains(&event.addr.row) {
                state.distinct_uer_rows.push(event.addr.row);
            }
        }

        // Plan exactly once, the moment the observation window completes.
        if !state.planned && state.distinct_uer_rows.len() >= k_uers {
            state.planned = true;
            // One §IV-B feature fold over the window, inside the plan.
            cordial_obs::counter!("monitor.features.reference_scan").inc();
            let history = BankErrorHistory::new(bank, state.window(bank));
            let plan = self.pipeline.plan(&history);
            if plan == MitigationPlan::InsufficientData {
                // Extremely rare (duplicate timestamps can reorder the cut);
                // allow a later event to retrigger.
                state.planned = false;
                self.stats.outcomes_recorded += 1;
                return IngestOutcome::Recorded;
            }
            state.planned_at = Some(event.time);
            let applied = apply_plan(&mut self.engine, bank, &plan);
            self.stats.banks_planned += 1;
            cordial_obs::counter!("monitor.outcome.planned").inc();
            // Budget saturation is a degradation, not an error: the plan
            // still lands (partially), later events keep being ingested,
            // and the shortfall is surfaced as telemetry.
            let intended = match &plan {
                MitigationPlan::RowSparing { rows, .. } => rows.len(),
                MitigationPlan::BankSparing => 1,
                MitigationPlan::InsufficientData => 0,
            };
            if applied < intended {
                self.stats.plans_saturated += 1;
                cordial_obs::counter!("monitor.plans_saturated").inc();
            }
            match &plan {
                MitigationPlan::RowSparing { .. } => {
                    self.stats.rows_isolated += applied;
                    cordial_obs::counter!("monitor.rows_isolated").add(applied as u64);
                }
                MitigationPlan::BankSparing => {
                    self.stats.banks_spared += applied;
                    cordial_obs::counter!("monitor.banks_spared").add(applied as u64);
                }
                MitigationPlan::InsufficientData => {}
            }
            // Plan decisions feed the pattern-mix drift watchdog and land
            // in the flight recorder as causal timeline instants.
            let class = match &plan {
                MitigationPlan::RowSparing { pattern, .. } => pattern.class_index(),
                // `InsufficientData` returned above; bank sparing is the
                // scattered class's mitigation.
                _ => CoarsePattern::Scattered.class_index(),
            };
            self.health.pattern_mix.observe(class);
            if cordial_obs::recorder::enabled() {
                let (name, detail) = match &plan {
                    MitigationPlan::RowSparing { pattern, rows } => (
                        "row_sparing",
                        format!("{bank} {pattern:?} rows={} applied={applied}", rows.len()),
                    ),
                    _ => ("bank_sparing", format!("{bank} applied={applied}")),
                };
                cordial_obs::recorder::instant("plan", name, detail);
            }
            return IngestOutcome::Planned { plan, applied };
        }
        self.stats.outcomes_recorded += 1;
        IngestOutcome::Recorded
    }

    /// Runs `ingest` (one or more [`CordialMonitor::record`] calls), then
    /// publishes what it changed: one add per per-event counter, and this
    /// monitor's share of the `monitor.*` gauges. The spare budgets move
    /// only when a plan lands, the tracked count only when a bank appears
    /// and the guard's pending count only on the guarded paths (which
    /// admit and release before they record), so the share is recomputed
    /// only then (or when none was published yet).
    fn publishing<T>(&mut self, ingest: impl FnOnce(&mut Self) -> T) -> T {
        let before = self.stats;
        let tracked = self.banks.len();
        let result = ingest(self);
        if !cordial_obs::enabled() {
            return result;
        }
        for (counter, now, then) in [
            (
                cordial_obs::counter!("monitor.events"),
                self.stats.events,
                before.events,
            ),
            (
                cordial_obs::counter!("monitor.outcome.absorbed"),
                self.stats.uers_absorbed,
                before.uers_absorbed,
            ),
            (
                cordial_obs::counter!("monitor.outcome.recorded"),
                self.stats.outcomes_recorded,
                before.outcomes_recorded,
            ),
        ] {
            if now > then {
                counter.add((now - then) as u64);
            }
        }
        let pending = self.guard.pending.len() as f64;
        if self.stats.banks_planned != before.banks_planned
            || self.banks.len() != tracked
            || self
                .gauges
                .added
                .is_none_or(|[.., published]| published != pending)
        {
            self.publish_share();
        }
        result
    }

    /// Publishes this monitor's current share of the `monitor.*` gauges.
    fn publish_share(&mut self) {
        self.gauges.publish([
            self.banks.len() as f64,
            self.engine.spare_rows_remaining() as f64,
            self.engine.spare_banks_remaining() as f64,
            self.guard.pending.len() as f64,
        ]);
    }

    /// Ingests a batch in arrival order, returning the plans it
    /// triggered: [`CordialMonitor::ingest`] per event, keeping the
    /// [`IngestOutcome::Planned`] outcomes. Batch and per-event ingestion
    /// share the one trigger rule, so they agree for any chunking of a
    /// stream; the batch publishes its counters and gauges once.
    pub fn ingest_all(
        &mut self,
        events: impl IntoIterator<Item = ErrorEvent>,
    ) -> Vec<(BankAddress, MitigationPlan)> {
        let _span = cordial_obs::span!("ingest_all");
        self.publishing(|monitor| {
            let mut plans = Vec::new();
            for event in events {
                if let IngestOutcome::Planned { plan, .. } = monitor.record(event) {
                    plans.push((event.addr.bank, plan));
                }
            }
            plans
        })
    }

    /// Admits one event into the guard, or rejects it outright.
    ///
    /// Returns `Some(outcome)` when the event is refused (late or
    /// duplicate), `None` when it was buffered. Rejections are final: they
    /// are counted into the stats split immediately.
    fn guard_admit(&mut self, event: ErrorEvent) -> Option<IngestOutcome> {
        self.guard.offered += 1;
        if self.guard.started
            && self.guard.watermark.saturating_since(event.time) > self.guard.bound()
        {
            self.stats.events += 1;
            self.stats.rejected_late += 1;
            cordial_obs::counter!("monitor.outcome.rejected.late").inc();
            if cordial_obs::recorder::enabled() {
                cordial_obs::recorder::instant(
                    "ingest",
                    "rejected.late",
                    format!("{} at {:?}", event.addr.bank, event.time),
                );
            }
            return Some(IngestOutcome::Rejected {
                reason: RejectReason::LateArrival,
            });
        }
        let key = event_key(&event);
        match self
            .guard
            .pending
            .binary_search_by(|e| event_key(e).cmp(&key))
        {
            Ok(_) => {
                self.stats.events += 1;
                self.stats.rejected_duplicates += 1;
                cordial_obs::counter!("monitor.outcome.rejected.duplicate").inc();
                if cordial_obs::recorder::enabled() {
                    cordial_obs::recorder::instant(
                        "ingest",
                        "rejected.duplicate",
                        format!("{} at {:?}", event.addr.bank, event.time),
                    );
                }
                Some(IngestOutcome::Rejected {
                    reason: RejectReason::Duplicate,
                })
            }
            Err(pos) => {
                if self.guard.started && event.time < self.guard.watermark {
                    self.stats.recovered_reordered += 1;
                    cordial_obs::counter!("monitor.guard.reordered").inc();
                }
                self.guard.pending.insert(pos, event);
                self.guard.started = true;
                self.guard.watermark = self.guard.watermark.max(event.time);
                None
            }
        }
    }

    /// Pops the buffered events that are safe to release: those whose
    /// timestamp the watermark has passed by more than the reorder bound
    /// (every admissible future event must sort after them), or everything
    /// when `flush_all` is set.
    fn guard_due(&mut self, flush_all: bool) -> Vec<ErrorEvent> {
        let bound = self.guard.bound();
        let due = if flush_all {
            self.guard.pending.len()
        } else {
            self.guard
                .pending
                .partition_point(|e| self.guard.watermark.saturating_since(e.time) > bound)
        };
        self.guard.pending.drain(..due).collect()
    }

    /// Ingests one event from a **degraded** stream: duplicates are
    /// suppressed, bounded timestamp reordering is repaired through the
    /// guard's buffer, and events beyond the reorder bound are rejected
    /// rather than corrupting bank histories.
    ///
    /// Returns the outcomes finalised by this call: a rejection yields the
    /// offered event's [`IngestOutcome::Rejected`]; an admission yields the
    /// (possibly empty) list of buffered events the watermark advance
    /// released, each with its regular ingest outcome. Call
    /// [`CordialMonitor::flush_guarded`] at end of stream to drain the
    /// buffer.
    pub fn ingest_guarded(&mut self, event: ErrorEvent) -> Vec<(ErrorEvent, IngestOutcome)> {
        if let Some(outcome) = self.guard_admit(event) {
            return vec![(event, outcome)];
        }
        let released = self.guard_due(false);
        self.ingest_released(released)
    }

    /// Drains the guard's reorder buffer through regular ingestion: the end
    /// of a guarded stream (or a checkpoint-before-shutdown).
    pub fn flush_guarded(&mut self) -> Vec<(ErrorEvent, IngestOutcome)> {
        let released = self.guard_due(true);
        self.ingest_released(released)
    }

    /// Ingests events the guard released, each with its outcome,
    /// publishing once for all of them.
    fn ingest_released(&mut self, released: Vec<ErrorEvent>) -> Vec<(ErrorEvent, IngestOutcome)> {
        self.publishing(|monitor| {
            released
                .into_iter()
                .map(|event| (event, monitor.record(event)))
                .collect()
        })
    }

    /// Guarded batch ingestion: admits the whole batch through the guard
    /// (counting rejections), then runs the sanitised ordered sub-stream
    /// through [`CordialMonitor::ingest_all`].
    ///
    /// The batch is treated as the complete remainder of the stream: the
    /// reorder buffer is flushed at the end, so the result equals calling
    /// [`CordialMonitor::ingest_guarded`] per event followed by
    /// [`CordialMonitor::flush_guarded`].
    pub fn ingest_all_guarded(
        &mut self,
        events: impl IntoIterator<Item = ErrorEvent>,
    ) -> Vec<(BankAddress, MitigationPlan)> {
        // The guard's span closes before ingestion, so guard time and
        // ingest time land in sibling families (`span.ingest_all_guarded`
        // and `span.ingest_all`) rather than one nested under the other.
        let sanitized = {
            let _span = cordial_obs::span!("ingest_all_guarded");
            let mut sanitized = Vec::new();
            for event in events {
                if self.guard_admit(event).is_none() {
                    sanitized.extend(self.guard_due(false));
                }
            }
            sanitized.extend(self.guard_due(true));
            sanitized
        };
        self.ingest_all(sanitized)
    }

    /// Number of events currently buffered in the guard's reorder window.
    pub fn guard_pending(&self) -> usize {
        self.guard.pending.len()
    }

    /// Total events offered through the guarded ingestion paths (admitted
    /// or rejected): the resume cursor for checkpointed streams.
    pub fn events_offered(&self) -> usize {
        self.guard.offered
    }

    /// Captures the monitor's complete mutable state (bank histories,
    /// isolation engine, stats, guard buffer) as a serialisable
    /// checkpoint. The trained pipeline is *not* included — persist it
    /// separately (it is immutable) and pass it back to
    /// [`CordialMonitor::restore`].
    pub fn checkpoint(&self) -> MonitorCheckpoint {
        MonitorCheckpoint {
            engine: self.engine.snapshot(),
            banks: self
                .banks
                .iter()
                .map(|(bank, state)| (*bank, state.clone()))
                .collect(),
            stats: self.stats,
            guard: self.guard.clone(),
        }
    }

    /// Rebuilds a monitor from a [`CordialMonitor::checkpoint`] capture
    /// and the pipeline it was running.
    ///
    /// Resumed ingestion is bit-equivalent to never having stopped: final
    /// stats and isolation state match the uninterrupted run's for any
    /// checkpoint index. Infallible: a [`MonitorCheckpoint`] value is
    /// always in the current layout, because deserializing one passes the
    /// schema-version gate first.
    pub fn restore(pipeline: Cordial, checkpoint: MonitorCheckpoint) -> Self {
        let mut monitor = Self {
            pipeline,
            engine: IsolationEngine::from_snapshot(checkpoint.engine),
            banks: checkpoint.banks.into_iter().collect(),
            stats: checkpoint.stats,
            guard: checkpoint.guard,
            // Watchdog windows are derived, short-horizon state: they
            // restart empty rather than being persisted (see
            // [`MonitorHealth`]).
            health: MonitorHealth::new(HealthConfig::default()),
            gauges: GaugeShare::default(),
        };
        // The restored banks count in the gauges before any new event.
        if cordial_obs::enabled() {
            monitor.publish_share();
        }
        monitor
    }

    /// Session totals so far, including the engine-derived sparing-budget
    /// fields.
    pub fn stats(&self) -> MonitorStats {
        let mut stats = self.stats;
        stats.budget = self.engine.budget();
        stats.spare_rows_remaining = self.engine.spare_rows_remaining();
        stats.spare_banks_remaining = self.engine.spare_banks_remaining();
        stats
    }

    /// The hardware isolation state.
    pub fn engine(&self) -> &IsolationEngine {
        &self.engine
    }

    /// The trained pipeline currently serving this monitor.
    pub fn pipeline(&self) -> &Cordial {
        &self.pipeline
    }

    /// Replaces the serving pipeline in place, returning the previous one.
    ///
    /// All monitor state (bank histories, isolation engine, stats, guard
    /// buffer) is preserved: plans already applied stay applied, and only
    /// banks that trigger *after* the swap are planned by the new model.
    /// This is the model promotion/rollback hook a fleet supervisor uses.
    pub fn swap_pipeline(&mut self, pipeline: Cordial) -> Cordial {
        std::mem::replace(&mut self.pipeline, pipeline)
    }

    /// Number of banks currently tracked.
    pub fn tracked_banks(&self) -> usize {
        self.banks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CordialConfig;
    use crate::split::split_banks;
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};
    use cordial_mcelog::{ErrorType, Timestamp};
    use cordial_topology::ColId;

    fn trained_monitor() -> (cordial_faultsim::FleetDataset, CordialMonitor) {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 17);
        let split = split_banks(&dataset, 0.7, 17);
        let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
        let monitor = CordialMonitor::new(cordial, SparingBudget::typical());
        (dataset, monitor)
    }

    #[test]
    fn replaying_a_fleet_produces_plans_and_absorption() {
        let (dataset, mut monitor) = trained_monitor();
        let plans = monitor.ingest_all(dataset.log.events().iter().copied());
        let stats = monitor.stats();
        assert_eq!(stats.events, dataset.log.len());
        assert!(!plans.is_empty());
        assert_eq!(stats.banks_planned, plans.len());
        assert!(stats.uers_absorbed > 0, "isolations must absorb some UERs");
        assert!(stats.absorption_rate() > 0.0 && stats.absorption_rate() < 1.0);
        // Each planned bank is planned exactly once.
        let mut banks: Vec<BankAddress> = plans.iter().map(|(b, _)| *b).collect();
        banks.sort();
        let before = banks.len();
        banks.dedup();
        assert_eq!(before, banks.len());
    }

    #[test]
    fn plans_trigger_exactly_at_the_kth_distinct_uer_row() {
        let (_, mut monitor) = trained_monitor();
        let bank = BankAddress::default();
        let uer = |row: u32, t: u64| {
            ErrorEvent::new(
                bank.cell(RowId(row), ColId(0)),
                Timestamp::from_secs(t),
                ErrorType::Uer,
            )
        };
        assert_eq!(monitor.ingest(uer(100, 1)), IngestOutcome::Recorded);
        // Repeat of the same row does not advance the distinct count.
        assert_eq!(monitor.ingest(uer(100, 2)), IngestOutcome::Recorded);
        assert_eq!(monitor.ingest(uer(103, 3)), IngestOutcome::Recorded);
        let outcome = monitor.ingest(uer(106, 4));
        assert!(
            matches!(outcome, IngestOutcome::Planned { .. }),
            "third distinct UER row must trigger planning, got {outcome:?}"
        );
        assert_eq!(monitor.stats().banks_planned, 1);
    }

    #[test]
    fn isolated_rows_absorb_subsequent_uers() {
        let (_, mut monitor) = trained_monitor();
        let bank = BankAddress::default();
        let uer = |row: u32, t: u64| {
            ErrorEvent::new(
                bank.cell(RowId(row), ColId(0)),
                Timestamp::from_secs(t),
                ErrorType::Uer,
            )
        };
        monitor.ingest(uer(1000, 1));
        monitor.ingest(uer(1003, 2));
        let outcome = monitor.ingest(uer(1006, 3));
        let IngestOutcome::Planned { plan, .. } = outcome else {
            panic!("expected a plan");
        };
        if let MitigationPlan::RowSparing { rows, .. } = &plan {
            if let Some(&row) = rows.first() {
                assert_eq!(
                    monitor.ingest(uer(row.index(), 10)),
                    IngestOutcome::AbsorbedByIsolation
                );
            }
        }
    }

    #[test]
    fn ce_events_never_trigger_planning() {
        let (_, mut monitor) = trained_monitor();
        let bank = BankAddress::default();
        for i in 0..50u32 {
            let outcome = monitor.ingest(ErrorEvent::new(
                bank.cell(RowId(i), ColId(0)),
                Timestamp::from_secs(i as u64),
                ErrorType::Ce,
            ));
            assert_eq!(outcome, IngestOutcome::Recorded);
        }
        assert_eq!(monitor.stats().banks_planned, 0);
        assert_eq!(monitor.tracked_banks(), 1);
    }

    #[test]
    fn stats_outcome_split_is_complete_and_budget_tracked() {
        let (dataset, mut monitor) = trained_monitor();
        monitor.ingest_all(dataset.log.events().iter().copied());
        let stats = monitor.stats();
        // Every event lands in exactly one outcome bucket.
        assert_eq!(
            stats.outcomes_recorded + stats.uers_absorbed + stats.banks_planned,
            stats.events
        );
        assert_eq!(stats.budget, SparingBudget::typical());
        // Consumed + remaining spare rows add up to whole per-bank budgets.
        assert!(stats.rows_isolated > 0);
        let per_bank = u64::from(stats.budget.spare_rows_per_bank);
        assert_eq!(
            (stats.spare_rows_remaining + stats.rows_isolated as u64) % per_bank,
            0
        );
    }

    /// Feeds the stream to `ingest_all` in calls of `chunk` events and
    /// compares the returned plans, `stats()` and the checkpoint's JSON
    /// text with per-event `ingest`.
    fn assert_chunked_batches_match_single_ingestion(chunk: usize) {
        let (dataset, template) = trained_monitor();
        let events = dataset.log.events();
        let mut single = template.clone();
        let single_plans: Vec<(BankAddress, MitigationPlan)> = events
            .iter()
            .filter_map(|event| match single.ingest(*event) {
                IngestOutcome::Planned { plan, .. } => Some((event.addr.bank, plan)),
                _ => None,
            })
            .collect();
        assert!(!single_plans.is_empty(), "the stream must trigger plans");

        let mut batch = template;
        let batch_plans: Vec<(BankAddress, MitigationPlan)> = events
            .chunks(chunk)
            .flat_map(|slice| batch.ingest_all(slice.iter().copied()))
            .collect();
        assert_eq!(batch_plans, single_plans, "plans, chunks of {chunk}");
        assert_eq!(batch.stats(), single.stats(), "stats, chunks of {chunk}");
        assert_eq!(
            serde_json::to_string(&batch.checkpoint()).unwrap(),
            serde_json::to_string(&single.checkpoint()).unwrap(),
            "checkpoint, chunks of {chunk}"
        );
    }

    #[test]
    fn batch_and_single_ingestion_agree() {
        // One call for the whole stream.
        assert_chunked_batches_match_single_ingestion(usize::MAX);
    }

    #[test]
    fn batch_and_single_ingestion_agree_event_by_event() {
        assert_chunked_batches_match_single_ingestion(1);
    }

    #[test]
    fn batch_and_single_ingestion_agree_on_device_slices() {
        // The size of a `steady-fleet` per-device slice.
        assert_chunked_batches_match_single_ingestion(14);
    }

    #[test]
    fn batch_and_single_ingestion_agree_on_wire_batches() {
        assert_chunked_batches_match_single_ingestion(1024);
    }

    fn guard_event(row: u32, millis: u64) -> ErrorEvent {
        ErrorEvent::new(
            BankAddress::default().cell(RowId(row), ColId(0)),
            Timestamp::from_millis(millis),
            ErrorType::Ce,
        )
    }

    #[test]
    fn guard_suppresses_duplicates_within_the_window() {
        let (_, mut monitor) = trained_monitor();
        assert!(monitor.ingest_guarded(guard_event(1, 1000)).is_empty());
        let outcomes = monitor.ingest_guarded(guard_event(1, 1000));
        assert_eq!(
            outcomes,
            vec![(
                guard_event(1, 1000),
                IngestOutcome::Rejected {
                    reason: RejectReason::Duplicate
                }
            )]
        );
        monitor.flush_guarded();
        let stats = monitor.stats();
        assert_eq!(stats.rejected_duplicates, 1);
        assert_eq!(stats.events, 2);
        assert!(stats.split_is_complete());
    }

    #[test]
    fn guard_rejects_events_beyond_the_reorder_bound() {
        let (_, mut monitor) = trained_monitor();
        let monitor = &mut monitor;
        // Watermark moves to t=400s; bound is 300s, so t=50s is too late
        // while t=150s is still admissible.
        assert!(monitor.ingest_guarded(guard_event(1, 400_000)).is_empty());
        let outcomes = monitor.ingest_guarded(guard_event(2, 50_000));
        assert_eq!(
            outcomes,
            vec![(
                guard_event(2, 50_000),
                IngestOutcome::Rejected {
                    reason: RejectReason::LateArrival
                }
            )]
        );
        assert!(monitor.ingest_guarded(guard_event(3, 150_000)).is_empty());
        assert_eq!(monitor.guard_pending(), 2);
        monitor.flush_guarded();
        let stats = monitor.stats();
        assert_eq!(stats.rejected_late, 1);
        assert_eq!(stats.recovered_reordered, 1);
        assert!(stats.split_is_complete());
    }

    #[test]
    fn guard_releases_events_in_timestamp_order() {
        let (_, mut monitor) = trained_monitor();
        assert!(monitor.ingest_guarded(guard_event(1, 200_000)).is_empty());
        assert!(monitor.ingest_guarded(guard_event(2, 100_000)).is_empty());
        // Watermark jumps far ahead: both buffered events become due, and
        // they must come out re-sorted (100s before 200s).
        let released = monitor.ingest_guarded(guard_event(3, 900_000));
        let times: Vec<u64> = released.iter().map(|(e, _)| e.time.as_millis()).collect();
        assert_eq!(times, vec![100_000, 200_000]);
    }

    #[test]
    fn guarded_incremental_and_batch_ingestion_agree_on_degraded_input() {
        let (dataset, mut incremental) = trained_monitor();
        let (_, mut batch) = trained_monitor();
        // Degrade the stream: duplicate every 7th event, swap adjacent
        // pairs every 5th, inject one hopelessly late event.
        let mut events: Vec<ErrorEvent> = dataset.log.events().to_vec();
        let mut degraded = Vec::new();
        for (i, event) in events.drain(..).enumerate() {
            degraded.push(event);
            if i % 7 == 0 {
                degraded.push(event);
            }
            if i % 5 == 0 && degraded.len() >= 2 {
                let n = degraded.len();
                degraded.swap(n - 1, n - 2);
            }
        }
        degraded.push(guard_event(9, 0));

        for event in &degraded {
            incremental.ingest_guarded(*event);
        }
        incremental.flush_guarded();
        batch.ingest_all_guarded(degraded.iter().copied());

        let a = incremental.stats();
        let b = batch.stats();
        assert_eq!(a, b);
        assert!(a.rejected_duplicates > 0);
        assert!(a.split_is_complete(), "split must stay complete: {a:?}");
        assert_eq!(incremental.events_offered(), degraded.len());
    }

    #[test]
    fn guarded_ingestion_of_a_clean_stream_matches_plain_ingestion() {
        let (dataset, mut guarded) = trained_monitor();
        let (_, mut plain) = trained_monitor();
        guarded.ingest_all_guarded(dataset.log.events().iter().copied());
        plain.ingest_all(dataset.log.events().iter().copied());
        assert_eq!(guarded.stats(), plain.stats());
        assert_eq!(guarded.stats().rejected(), 0);
    }

    #[test]
    fn checkpoints_deserialize_through_the_migration_chain() {
        let (dataset, mut monitor) = trained_monitor();
        monitor.ingest_all(dataset.log.events().iter().copied());
        let json = serde_json::to_string(&monitor.checkpoint()).unwrap();
        let stamp = format!("\"schema_version\":{CHECKPOINT_SCHEMA_VERSION},");

        // A checkpoint written before versioning existed has no
        // `schema_version` entry: it upgrades on load and restores to the
        // same state.
        let v0 = json.replacen(&stamp, "", 1);
        assert_ne!(v0, json, "fixture must actually strip the field");
        let checkpoint: MonitorCheckpoint = serde_json::from_str(&v0).unwrap();
        let restored = CordialMonitor::restore(monitor.pipeline.clone(), checkpoint);
        assert_eq!(restored.stats(), monitor.stats());

        // Checkpoints written while the monitor kept per-bank feature state
        // carry that state's bounds; the entry loads and is ignored.
        assert!(!json.contains("feature_caps"), "no longer written");
        let with_caps = format!(
            "{},\"feature_caps\":{{\"max_pending\":65536,\"max_distinct_uer\":64}}}}",
            json.strip_suffix('}').unwrap()
        );
        let checkpoint: MonitorCheckpoint = serde_json::from_str(&with_caps).unwrap();
        let restored = CordialMonitor::restore(monitor.pipeline.clone(), checkpoint);
        assert_eq!(restored.stats(), monitor.stats());

        // A checkpoint from a newer release is refused, not misread.
        let future_stamp = format!("\"schema_version\":{},", CHECKPOINT_SCHEMA_VERSION + 1);
        let future = json.replacen(&stamp, &future_stamp, 1);
        let err = serde_json::from_str::<MonitorCheckpoint>(&future).unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported future schema version"),
            "got: {err}"
        );
    }

    #[test]
    fn live_precision_and_lead_time_track_absorption() {
        let (_, mut monitor) = trained_monitor();
        assert_eq!(monitor.stats().live_precision(), 1.0, "no plans yet");
        let bank = BankAddress::default();
        let uer = |row: u32, t: u64| {
            ErrorEvent::new(
                bank.cell(RowId(row), ColId(0)),
                Timestamp::from_secs(t),
                ErrorType::Uer,
            )
        };
        monitor.ingest(uer(1000, 1));
        monitor.ingest(uer(1003, 2));
        let IngestOutcome::Planned { plan, .. } = monitor.ingest(uer(1006, 3)) else {
            panic!("expected a plan");
        };
        // A fresh plan has not absorbed anything yet: precision dips to 0.
        assert_eq!(monitor.stats().plans_absorbing, 0);
        assert_eq!(monitor.stats().live_precision(), 0.0);
        if let MitigationPlan::RowSparing { rows, .. } = &plan {
            if let Some(&row) = rows.first() {
                monitor.ingest(uer(row.index(), 63));
                monitor.ingest(uer(row.index(), 123));
                let stats = monitor.stats();
                // Two absorbed UERs, one absorbing plan.
                assert_eq!(stats.plans_absorbing, 1);
                assert_eq!(stats.live_precision(), 1.0);
                assert_eq!(stats.lead_time_ms_total, 60_000 + 120_000);
                assert_eq!(stats.mean_lead_time_ms(), 90_000.0);
            }
        }
    }

    #[test]
    fn swap_pipeline_preserves_monitor_state() {
        let (dataset, mut monitor) = trained_monitor();
        let events: Vec<ErrorEvent> = dataset.log.events().to_vec();
        let half = events.len() / 2;
        monitor.ingest_all(events[..half].iter().copied());
        let mid = monitor.stats();
        let (_, replacement) = trained_monitor();
        let old = monitor.swap_pipeline(replacement.pipeline);
        assert_eq!(monitor.stats(), mid, "swap must not disturb stats");
        // Swapping back the original pipeline reproduces the single-model
        // run exactly.
        monitor.swap_pipeline(old);
        monitor.ingest_all(events[half..].iter().copied());
        let (_, mut reference) = trained_monitor();
        reference.ingest_all(events.iter().copied());
        assert_eq!(monitor.stats(), reference.stats());
    }

    #[test]
    fn checkpoint_restore_is_equivalent_to_an_uninterrupted_run() {
        let (dataset, mut reference) = trained_monitor();
        let events: Vec<ErrorEvent> = dataset.log.events().to_vec();
        for event in &events {
            reference.ingest_guarded(*event);
        }
        reference.flush_guarded();
        let expected = reference.stats();

        for kill_at in [0, 1, events.len() / 2, events.len() - 1, events.len()] {
            let (_, mut first) = trained_monitor();
            for event in &events[..kill_at] {
                first.ingest_guarded(*event);
            }
            let checkpoint = first.checkpoint();
            let json = serde_json::to_string(&checkpoint).unwrap();
            let checkpoint: MonitorCheckpoint = serde_json::from_str(&json).unwrap();
            assert_eq!(checkpoint.events_offered(), kill_at);

            let (_, template) = trained_monitor();
            let mut resumed = CordialMonitor::restore(template.pipeline, checkpoint);
            for event in &events[kill_at..] {
                resumed.ingest_guarded(*event);
            }
            resumed.flush_guarded();
            assert_eq!(
                resumed.stats(),
                expected,
                "kill at {kill_at} must not change the final stats"
            );
            assert_eq!(resumed.engine(), reference.engine());
        }
    }
}
