//! The fleet supervisor: fleet policy on top of one [`DeviceHost`] — an
//! ingest watchdog, canary-style model promotion/rollback and the
//! continuous-learning loop. The host owns the per-device monitors,
//! breakers, panic containment and checkpoint persistence.
//!
//! Determinism contract: the supervisor never reads the wall clock — all
//! deadlines and backoffs run on *stream time* (event timestamps), and all
//! jitter comes from seeded per-device RNG streams. Routing the same event
//! sequence through the same config always produces bit-identical device
//! stats, breaker histories and `fleet.*` telemetry.

use std::sync::{Arc, Mutex};

use cordial::pipeline::Cordial;
use cordial_faultsim::FleetDataset;
use cordial_mcelog::ErrorEvent;
use cordial_obs::lock;
use cordial_store::Store;
use cordial_topology::{BankAddress, DeviceId};

use cordial_relearn::{
    build_job, run_refit, RefitCompletion, RefitJob, RefitScheduler, RelearnConfig, TrainingWindow,
};

use crate::breaker::BreakerState;
use crate::host::{DeviceHost, DeviceStatus, HostConfig, RouteOutcome};
use crate::registry::{clears_gate, shadow_score, ModelRegistry, PromotionDecision};

/// Bucket bounds for the per-device availability histogram.
pub const AVAILABILITY_BOUNDS: &[f64] = &[0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];

/// How often (in routed events) the supervisor runs its periodic sweeps
/// (watchdog scan, canary precision check).
const SWEEP_EVERY: u64 = 256;

/// Supervisor tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// The device host: breakers, budgets and the in-memory
    /// checkpoint cadence (the restart token).
    pub host: HostConfig,
    /// Live-precision floor: once a promoted model's precision (measured
    /// since promotion) drops below this with enough samples, the
    /// supervisor rolls back to last-known-good.
    pub precision_floor: f64,
    /// Plans required since promotion before precision is judged.
    pub min_planned: usize,
    /// Watchdog deadline in stream milliseconds: a registered device whose
    /// last event trails the fleet watermark by more than this is tripped.
    /// `0` disables the watchdog.
    pub watchdog_deadline_ms: u64,
    /// Continuous-learning loop: `Some` maintains a sliding training
    /// window over accepted events (journaled into the attached store),
    /// runs scheduled / drift-triggered refits inline at the sweep point,
    /// and routes every candidate through the promotion gate. `None`
    /// (default) keeps the model one-shot.
    pub relearn: Option<RelearnConfig>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            host: HostConfig {
                checkpoint_every: 64,
                ..HostConfig::default()
            },
            precision_floor: 0.05,
            min_planned: 8,
            watchdog_deadline_ms: 0,
            relearn: None,
        }
    }
}

/// Baseline for canary precision: fleet totals at promotion time.
#[derive(Debug, Clone, Copy)]
struct PrecisionBaseline {
    banks_planned: usize,
    plans_absorbing: usize,
}

/// Lifetime refit outcome counters for the continuous-learning loop
/// (mirrored into the `obs.relearn.*` telemetry family). Every refit
/// settles where it starts, so `started == promoted + rejected + failed`
/// always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelearnOutcomes {
    /// Refits started (scheduled, drift-escalated or operator-begun).
    pub started: u64,
    /// Candidates that cleared the promotion gate and now serve.
    pub promoted: u64,
    /// Candidates the gate turned away (incumbent kept serving).
    pub rejected: u64,
    /// Refits that failed or panicked during training (contained).
    pub failed: u64,
    /// Relearn-promoted models the live-precision canary rolled back.
    pub rolled_back: u64,
}

/// The supervisor-side half of the continuous-learning loop.
struct RelearnState {
    config: RelearnConfig,
    window: TrainingWindow,
    scheduler: RefitScheduler,
    outcomes: RelearnOutcomes,
    /// Fleet-wide drift-watchdog alert total at the last sweep; any
    /// increase escalates the scheduler to an immediate refit.
    last_drift_alerts: u64,
    /// Whether the currently serving model came from a relearn refit
    /// (canary rollbacks of such models are attributed to relearn).
    promoted_by_relearn: bool,
    /// Chaos hook: the next refit job panics mid-fit.
    panic_next_refit: bool,
}

impl RelearnState {
    fn new(config: RelearnConfig) -> Self {
        Self {
            window: TrainingWindow::new(config.window_span_ms),
            scheduler: RefitScheduler::new(&config),
            outcomes: RelearnOutcomes::default(),
            last_drift_alerts: 0,
            promoted_by_relearn: false,
            panic_next_refit: false,
            config,
        }
    }
}

/// Registers the whole `obs.relearn.*` counter family up front so
/// telemetry digests cover it deterministically even on runs where no
/// refit ever fires.
fn touch_relearn_counters() {
    cordial_obs::counter!("obs.relearn.refits_started").add(0);
    cordial_obs::counter!("obs.relearn.refits_promoted").add(0);
    cordial_obs::counter!("obs.relearn.refits_rejected").add(0);
    cordial_obs::counter!("obs.relearn.refits_failed").add(0);
    cordial_obs::counter!("obs.relearn.refits_rolled_back").add(0);
    cordial_obs::counter!("obs.relearn.refits_skipped").add(0);
    cordial_obs::counter!("obs.relearn.drift_triggers").add(0);
    cordial_obs::counter!("obs.relearn.journal.events").add(0);
    cordial_obs::counter!("obs.relearn.journal.errors").add(0);
}

/// Owns the device host and the model registry; routes interleaved
/// multi-device streams and self-heals at the device and model level.
pub struct FleetSupervisor {
    config: SupervisorConfig,
    registry: ModelRegistry,
    host: DeviceHost,
    watermark_ms: u64,
    routed_total: u64,
    shed_total: u64,
    baseline: Option<PrecisionBaseline>,
    rolled_back: bool,
    /// Continuous-learning loop, when enabled via
    /// [`SupervisorConfig::relearn`].
    relearn: Option<RelearnState>,
}

impl FleetSupervisor {
    /// A supervisor serving `pipeline` on every pre-registered device.
    /// Devices not listed are auto-registered on their first event.
    pub fn new(
        config: SupervisorConfig,
        pipeline: Cordial,
        devices: impl IntoIterator<Item = DeviceId>,
    ) -> Self {
        let host = DeviceHost::new(config.host, pipeline.clone());
        let registry = ModelRegistry::new(pipeline);
        let relearn = config.relearn.map(|relearn_config| {
            touch_relearn_counters();
            RelearnState::new(relearn_config)
        });
        let mut supervisor = Self {
            config,
            registry,
            host,
            watermark_ms: 0,
            routed_total: 0,
            shed_total: 0,
            baseline: None,
            rolled_back: false,
            relearn,
        };
        for id in devices {
            supervisor.register_device(id);
        }
        supervisor
    }

    /// Attaches a durable checkpoint store (builder style): every device
    /// with a store checkpoint that has not served yet resumes from it,
    /// periodic and [`FleetSupervisor::finish`] checkpoints are persisted
    /// into it, and [`FleetSupervisor::rebuild_from_store`] can resurrect
    /// evicted devices from it across process restarts.
    pub fn with_store(mut self, store: Store) -> Self {
        let store = Arc::new(Mutex::new(store));
        self.host.attach_store(Arc::clone(&store));
        // The supervisor degrades rather than refusing to serve: devices
        // whose checkpoint cannot be read keep fresh monitors (the host
        // counts the failure).
        let _ = self.host.restore_from_store(|_| true);
        cordial_obs::gauge!("fleet.devices.total").set(self.host.len() as f64);
        if let Some(state) = self.relearn.as_mut() {
            // The training window rebuilds from the event journal so a
            // restarted supervisor resumes retraining where the killed one
            // left off; the refit cadence resumes at the journal's depth
            // instead of restarting from zero.
            match TrainingWindow::rebuild_from_store(&lock(&store), state.config.window_span_ms) {
                Ok(window) => {
                    state.scheduler.resume_at(window.len() as u64);
                    state.window = window;
                }
                Err(_) => cordial_obs::counter!("obs.relearn.journal.errors").inc(),
            }
        }
        self
    }

    /// Registers a device (idempotent): a fresh monitor on the incumbent
    /// model behind a closed breaker.
    pub fn register_device(&mut self, id: DeviceId) {
        if self.host.register(id) {
            cordial_obs::gauge!("fleet.devices.total").set(self.host.len() as f64);
        }
    }

    /// Rebuilds `id` from the durable store: a monitor restored from the
    /// store's newest checkpoint for the device (a fresh monitor when none
    /// is usable) behind a fresh closed breaker, clearing any quarantine,
    /// eviction or injected fault. The operator path for bringing an
    /// evicted device back once its underlying fault is fixed. Returns
    /// whether a store checkpoint seeded the rebuild.
    pub fn rebuild_from_store(&mut self, id: DeviceId) -> bool {
        let from_store = self.host.rebuild_from_store(id);
        cordial_obs::gauge!("fleet.devices.total").set(self.host.len() as f64);
        self.update_health_gauges();
        from_store
    }

    /// Chaos hook: from the `nth` routed event on, every ingest on `id`
    /// panics (contained by the host). See
    /// [`DeviceHost::inject_panic_after`].
    pub fn inject_panic_after(&mut self, id: DeviceId, nth: u64) {
        self.register_device(id);
        self.host.inject_panic_after(id, nth);
    }

    /// Routes one event to its device's monitor through the breaker.
    pub fn route(&mut self, event: ErrorEvent) -> RouteOutcome {
        let id = DeviceId::of(&event.addr.bank);
        self.register_device(id);
        let now_ms = event.time.as_millis();
        self.watermark_ms = self.watermark_ms.max(now_ms);
        self.routed_total += 1;
        cordial_obs::counter!("fleet.events.routed").inc();

        let outcome = self.host.route_event(event);
        match outcome {
            RouteOutcome::Accepted => self.note_accepted_for_relearn(event),
            RouteOutcome::Shed => self.shed_total += 1,
            RouteOutcome::Tripped => self.update_health_gauges(),
        }

        if self.routed_total.is_multiple_of(SWEEP_EVERY) {
            if self.config.watchdog_deadline_ms > 0 {
                self.check_watchdogs();
            }
            self.maybe_rollback();
            self.poll_relearn(now_ms);
        }
        outcome
    }

    /// Journals an accepted event (journal-before-train: the durable log
    /// must cover everything the window will learn from) and feeds the
    /// training window and refit cadence.
    fn note_accepted_for_relearn(&mut self, event: ErrorEvent) {
        let Some(state) = self.relearn.as_mut() else {
            return;
        };
        if let Some(store) = self.host.store() {
            match lock(store).append_events(std::slice::from_ref(&event)) {
                Ok(_) => cordial_obs::counter!("obs.relearn.journal.events").inc(),
                Err(_) => cordial_obs::counter!("obs.relearn.journal.errors").inc(),
            }
        }
        state.window.push(event);
        state.scheduler.observe_accept();
    }

    /// One relearn sweep: escalate on new drift-watchdog alerts, then run
    /// a refit when one is due.
    fn poll_relearn(&mut self, now_ms: u64) {
        // The state moves out of `self` for the sweep so the settle path
        // can route the candidate through `consider_candidate` (&mut self)
        // without aliasing it.
        let Some(mut state) = self.relearn.take() else {
            return;
        };
        let alerts = self.total_drift_alerts();
        if alerts > state.last_drift_alerts {
            state.last_drift_alerts = alerts;
            cordial_obs::counter!("obs.relearn.drift_triggers").inc();
            if cordial_obs::recorder::enabled() {
                cordial_obs::recorder::instant(
                    "relearn",
                    "drift_escalation",
                    format!("{alerts} fleet drift alerts at t={now_ms}ms"),
                );
            }
            state.scheduler.note_drift();
        }
        if state.scheduler.due() {
            self.refit(&mut state, now_ms);
        }
        self.relearn = Some(state);
    }

    /// Fleet-wide drift-watchdog alert total (pattern-mix and lead-time
    /// families over every registered device).
    fn total_drift_alerts(&self) -> u64 {
        self.host
            .monitors()
            .map(|(_, monitor)| monitor.health().alerts())
            .sum()
    }

    /// Builds a refit job from the current window, fits it and settles
    /// the outcome, all before returning. Thin windows count as skipped
    /// and wait out one cadence.
    fn refit(&mut self, state: &mut RelearnState, now_ms: u64) {
        let job = build_job(
            &state.window,
            &state.config,
            self.registry.incumbent().config(),
        );
        state.scheduler.note_started();
        let Some(mut job) = job else {
            cordial_obs::counter!("obs.relearn.refits_skipped").inc();
            return;
        };
        job.inject_panic = std::mem::take(&mut state.panic_next_refit);
        state.outcomes.started += 1;
        cordial_obs::counter!("obs.relearn.refits_started").inc();
        if cordial_obs::recorder::enabled() {
            cordial_obs::recorder::instant(
                "relearn",
                "refit_start",
                format!(
                    "{} window events, {} train / {} calibration banks at t={now_ms}ms",
                    state.window.len(),
                    job.train.len(),
                    job.calibration.len()
                ),
            );
        }
        let completion = run_refit(&job);
        self.settle_refit(state, &job, completion);
    }

    /// Applies one refit completion: failures feed the scheduler's
    /// backoff, candidates go through the promotion gate on the job's
    /// calibration banks.
    fn settle_refit(
        &mut self,
        state: &mut RelearnState,
        job: &RefitJob,
        completion: RefitCompletion,
    ) {
        let candidate = match completion {
            RefitCompletion::Fitted(candidate) => candidate,
            RefitCompletion::Failed(_) | RefitCompletion::Panicked => {
                state.outcomes.failed += 1;
                cordial_obs::counter!("obs.relearn.refits_failed").inc();
                if matches!(completion, RefitCompletion::Panicked) {
                    cordial_obs::blackbox::trigger(
                        "refit_panic_contained",
                        "refit panicked during training (contained)",
                    );
                }
                state.scheduler.note_failure();
                return;
            }
        };
        match self.consider_candidate(candidate, &job.dataset, &job.calibration) {
            PromotionDecision::Promoted { .. } => {
                state.outcomes.promoted += 1;
                cordial_obs::counter!("obs.relearn.refits_promoted").inc();
                state.promoted_by_relearn = true;
            }
            PromotionDecision::Rejected { .. } => {
                state.outcomes.rejected += 1;
                cordial_obs::counter!("obs.relearn.refits_rejected").inc();
            }
        }
        state.scheduler.note_success();
    }

    /// Operator/test trigger: runs a refit right now from the current
    /// window (ignoring cadence and backoff) and settles it before
    /// returning. Returns whether a job actually ran — `false` when
    /// relearn is disabled or the window is too thin to train from.
    pub fn begin_refit(&mut self) -> bool {
        let now_ms = self.watermark_ms;
        let Some(mut state) = self.relearn.take() else {
            return false;
        };
        let before = state.outcomes;
        self.refit(&mut state, now_ms);
        let started = state.outcomes.started > before.started;
        self.relearn = Some(state);
        started
    }

    /// Lifetime refit outcome counters (`None` when relearn is disabled).
    pub fn relearn_outcomes(&self) -> Option<RelearnOutcomes> {
        self.relearn.as_ref().map(|state| state.outcomes)
    }

    /// The sliding training window (`None` when relearn is disabled).
    pub fn training_window(&self) -> Option<&TrainingWindow> {
        self.relearn.as_ref().map(|state| &state.window)
    }

    /// Chaos hook: the next refit job panics mid-fit (contained; counted
    /// as a failed refit and backed off like any other failure).
    pub fn inject_refit_panic(&mut self) {
        if let Some(state) = self.relearn.as_mut() {
            state.panic_next_refit = true;
        }
    }

    /// Trips every registered device whose stream has silently stalled:
    /// no event for `watchdog_deadline_ms` of stream time while the fleet
    /// watermark kept advancing.
    fn check_watchdogs(&mut self) {
        let tripped = self
            .host
            .trip_stalled(self.watermark_ms, self.config.watchdog_deadline_ms);
        cordial_obs::counter!("fleet.watchdog.trips").add(tripped);
        self.update_health_gauges();
    }

    /// Shadow-scores `candidate` against the incumbent on a calibration
    /// bank set; swaps it into every monitor only if it clears the gate.
    pub fn consider_candidate(
        &mut self,
        candidate: Cordial,
        dataset: &FleetDataset,
        calibration: &[BankAddress],
    ) -> PromotionDecision {
        let budget = self.config.host.budget;
        let candidate_score = shadow_score(&candidate, dataset, calibration, budget);
        let incumbent_score = shadow_score(self.registry.incumbent(), dataset, calibration, budget);
        match clears_gate(&candidate_score, &incumbent_score) {
            Ok(()) => {
                cordial_obs::counter!("fleet.model.promotions").inc();
                if cordial_obs::recorder::enabled() {
                    cordial_obs::recorder::instant(
                        "model",
                        "promote",
                        format!("candidate [{candidate_score}] vs incumbent [{incumbent_score}]"),
                    );
                }
                self.adopt(candidate);
                PromotionDecision::Promoted {
                    candidate: candidate_score,
                    incumbent: incumbent_score,
                }
            }
            Err(reason) => {
                cordial_obs::counter!("fleet.model.rejections").inc();
                if cordial_obs::recorder::enabled() {
                    cordial_obs::recorder::instant("model", "reject", reason.to_string());
                }
                self.registry.note_rejection();
                PromotionDecision::Rejected {
                    candidate: candidate_score,
                    incumbent: incumbent_score,
                    reason,
                }
            }
        }
    }

    /// Installs `candidate` bypassing the gate — an operator override (and
    /// the chaos hook that lets tests exercise rollback).
    pub fn force_promote(&mut self, candidate: Cordial) {
        cordial_obs::counter!("fleet.model.forced").inc();
        if cordial_obs::recorder::enabled() {
            cordial_obs::recorder::instant("model", "force_promote", "operator override");
        }
        self.adopt(candidate);
    }

    fn adopt(&mut self, candidate: Cordial) {
        self.registry.promote(candidate.clone());
        self.host.swap_pipeline(candidate);
        self.baseline = Some(PrecisionBaseline {
            banks_planned: self.total_banks_planned(),
            plans_absorbing: self.total_plans_absorbing(),
        });
        self.rolled_back = false;
        // Attribution resets on every adoption; the relearn settle path
        // re-marks its own promotions after `consider_candidate` returns.
        if let Some(state) = self.relearn.as_mut() {
            state.promoted_by_relearn = false;
        }
    }

    /// Canary check: live precision measured *since the last promotion*
    /// (new plans that went on to absorb / new plans made). Rolls back to
    /// last-known-good and returns the failing precision when it sinks
    /// below the floor with at least `min_planned` samples.
    pub fn maybe_rollback(&mut self) -> Option<f64> {
        let baseline = self.baseline?;
        if self.rolled_back {
            return None;
        }
        let planned = self
            .total_banks_planned()
            .saturating_sub(baseline.banks_planned);
        let absorbing = self
            .total_plans_absorbing()
            .saturating_sub(baseline.plans_absorbing);
        if planned < self.config.min_planned.max(1) {
            return None;
        }
        let precision = absorbing as f64 / planned as f64;
        cordial_obs::gauge!("fleet.model.live_precision").set(precision);
        if precision >= self.config.precision_floor {
            return None;
        }
        cordial_obs::counter!("fleet.model.rollbacks").inc();
        if cordial_obs::recorder::enabled() {
            cordial_obs::recorder::instant(
                "model",
                "rollback",
                format!(
                    "live precision {precision:.4} below floor {:.4} over {planned} plans",
                    self.config.precision_floor
                ),
            );
        }
        let good = self.registry.rollback();
        self.host.swap_pipeline(good);
        self.rolled_back = true;
        if let Some(state) = self.relearn.as_mut() {
            if state.promoted_by_relearn {
                state.promoted_by_relearn = false;
                state.outcomes.rolled_back += 1;
                cordial_obs::counter!("obs.relearn.refits_rolled_back").inc();
            }
        }
        Some(precision)
    }

    /// Flushes every serving monitor's reorder buffer, persists a final
    /// checkpoint per serving device into the attached store (when one is
    /// configured), and publishes the end-of-run health gauges and the
    /// per-device availability histogram.
    pub fn finish(&mut self) {
        // Persistence failures are counted by the host; the supervisor
        // degrades instead of failing the run.
        self.host.checkpoint_all();
        for status in self.host.statuses() {
            if status.routed > 0 {
                let availability = (status.routed - status.shed) as f64 / status.routed as f64;
                cordial_obs::histogram!("fleet.device.availability", AVAILABILITY_BOUNDS)
                    .observe(availability);
            }
        }
        self.update_health_gauges();
    }

    fn update_health_gauges(&self) {
        let mut healthy = 0u64;
        let mut quarantined = 0u64;
        let mut evicted = 0u64;
        for status in self.host.statuses() {
            match status.state {
                BreakerState::Closed => healthy += 1,
                BreakerState::Open | BreakerState::HalfOpen => quarantined += 1,
                BreakerState::Evicted => evicted += 1,
            }
        }
        cordial_obs::gauge!("fleet.devices.healthy").set(healthy as f64);
        cordial_obs::gauge!("fleet.devices.quarantined").set(quarantined as f64);
        cordial_obs::gauge!("fleet.devices.evicted").set(evicted as f64);
    }

    fn total_banks_planned(&self) -> usize {
        self.host
            .monitors()
            .map(|(_, monitor)| monitor.stats().banks_planned)
            .sum()
    }

    fn total_plans_absorbing(&self) -> usize {
        self.host
            .monitors()
            .map(|(_, monitor)| monitor.stats().plans_absorbing)
            .sum()
    }

    /// The model currently serving on every healthy device.
    pub fn incumbent(&self) -> &Cordial {
        self.registry.incumbent()
    }

    /// Lifecycle counters (promotions / rejections / rollbacks).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// A snapshot of one device.
    pub fn status(&self, id: DeviceId) -> Option<DeviceStatus> {
        self.host.status(id)
    }

    /// Snapshots of every device, in address order.
    pub fn statuses(&self) -> Vec<DeviceStatus> {
        self.host.statuses()
    }

    /// Devices whose breaker has ever tripped, in address order.
    pub fn tripped_devices(&self) -> Vec<DeviceId> {
        self.devices_where(|status| status.trips > 0)
    }

    /// Permanently evicted devices, in address order.
    pub fn evicted_devices(&self) -> Vec<DeviceId> {
        self.devices_where(|status| status.state == BreakerState::Evicted)
    }

    fn devices_where(&self, keep: impl Fn(&DeviceStatus) -> bool) -> Vec<DeviceId> {
        self.host
            .statuses()
            .into_iter()
            .filter(|status| keep(status))
            .map(|status| status.id)
            .collect()
    }

    /// Fraction of routed events that were actually served (not shed).
    pub fn availability(&self) -> f64 {
        if self.routed_total == 0 {
            1.0
        } else {
            (self.routed_total - self.shed_total) as f64 / self.routed_total as f64
        }
    }

    /// Total events routed so far.
    pub fn events_routed(&self) -> u64 {
        self.routed_total
    }

    /// Total events shed so far.
    pub fn events_shed(&self) -> u64 {
        self.shed_total
    }

    /// The highest event timestamp seen, in stream milliseconds.
    pub fn watermark_ms(&self) -> u64 {
        self.watermark_ms
    }
}
