//! The device host: one monitor per device behind a circuit breaker, with
//! panic containment and durable-store persistence.
//!
//! Both hosts of device monitors in the workspace are built on it: the
//! [`FleetSupervisor`](crate::FleetSupervisor) owns one and adds fleet
//! policy on top (watchdog, promotion gate, canary, relearn), and every
//! shard of the `cordial-served` daemon owns one. The host itself knows
//! nothing about where events come from. Its owner routes them in, either
//! one event at a time through the degraded-stream guard
//! ([`DeviceHost::route_event`]) or as per-device wire batches
//! ([`DeviceHost::route_batch`]).
//!
//! All time is stream time (event timestamps) and breaker jitter comes
//! from seeded per-device streams, so a host replays bit-identically.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cordial::monitor::{CordialMonitor, IngestOutcome, MonitorCheckpoint, MonitorStats};
use cordial::pipeline::{Cordial, MitigationPlan};
use cordial_faultsim::SparingBudget;
use cordial_mcelog::ErrorEvent;
use cordial_obs::lock;
use cordial_store::{CheckpointRecord, Store};
use cordial_topology::{BankAddress, DeviceId};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};

/// A durable store shared between a host and the rest of its process (the
/// serving daemon's shards and connection threads journal into one store).
pub type SharedStore = Arc<Mutex<Store>>;

/// Tuning of one device host. Each monitor runs the default
/// degraded-stream guard, and each breaker's jitter stream is seeded by
/// its device address alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// Per-device circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Spare capacity granted to each device's isolation engine.
    pub budget: SparingBudget,
    /// Events between in-memory checkpoint refreshes; each refresh is also
    /// persisted to the attached store. A tripped device restores from its
    /// in-memory checkpoint. `0` keeps none, so a trip restores from the
    /// store's newest checkpoint for the device, or a fresh monitor.
    pub checkpoint_every: usize,
}

impl Default for HostConfig {
    fn default() -> Self {
        Self {
            breaker: BreakerConfig::default(),
            budget: SparingBudget::typical(),
            checkpoint_every: 0,
        }
    }
}

/// What happened to one routed event or batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The device's monitor accepted the input (possibly buffering it).
    Accepted,
    /// The device is quarantined or evicted; the input was shed.
    Shed,
    /// Ingesting this input tripped the device's breaker (panic or
    /// rejection-rate threshold); the monitor was restored.
    Tripped,
}

/// A point-in-time view of one hosted device.
#[derive(Debug, Clone)]
pub struct DeviceStatus {
    /// The device.
    pub id: DeviceId,
    /// Breaker state.
    pub state: BreakerState,
    /// Events routed to the device (including shed ones).
    pub routed: u64,
    /// Events shed while quarantined/evicted.
    pub shed: u64,
    /// Lifetime breaker trips.
    pub trips: u64,
    /// Monitor restores performed (breaker probes and trips, rebuilds).
    pub restores: u64,
    /// Panics contained while ingesting.
    pub panics: u64,
    /// The monitor's stats as of now.
    pub stats: MonitorStats,
}

struct DeviceSlot {
    monitor: CordialMonitor,
    breaker: CircuitBreaker,
    /// The state a trip restores; `None` when the host keeps no in-memory
    /// checkpoints ([`HostConfig::checkpoint_every`] = 0).
    checkpoint: Option<MonitorCheckpoint>,
    since_checkpoint: usize,
    routed: u64,
    shed: u64,
    panics: u64,
    restores: u64,
    /// Chaos hook: every ingest at/after this routed count panics.
    panic_after: Option<u64>,
    last_seen_ms: u64,
}

/// Everything a slot operation needs besides the slot itself.
struct HostContext {
    config: HostConfig,
    pipeline: Cordial,
    store: Option<SharedStore>,
}

impl HostContext {
    fn new_monitor(&self) -> CordialMonitor {
        CordialMonitor::new(self.pipeline.clone(), self.config.budget)
    }

    fn new_slot(&self, id: DeviceId, monitor: CordialMonitor) -> DeviceSlot {
        let checkpoint = (self.config.checkpoint_every > 0).then(|| monitor.checkpoint());
        DeviceSlot {
            monitor,
            breaker: CircuitBreaker::new(
                self.config.breaker,
                id.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            checkpoint,
            since_checkpoint: 0,
            routed: 0,
            shed: 0,
            panics: 0,
            restores: 0,
            panic_after: None,
            last_seen_ms: 0,
        }
    }

    /// The attached store's newest checkpoint for `id`, decoded. `None`
    /// when there is no store or checkpoint, or the record cannot be used
    /// (counted; the caller degrades to a fresh monitor).
    fn stored_checkpoint(&self, id: DeviceId) -> Option<MonitorCheckpoint> {
        let store = self.store.as_ref()?;
        let record = match lock(store).latest_checkpoint(id) {
            Ok(found) => found?,
            Err(_) => {
                cordial_obs::counter!("host.store.restore_errors").inc();
                return None;
            }
        };
        match serde_json::from_str(&record.payload) {
            Ok(state) => {
                cordial_obs::counter!("host.store.restores").inc();
                Some(state)
            }
            Err(_) => {
                cordial_obs::counter!("host.store.restore_errors").inc();
                None
            }
        }
    }

    /// A monitor on the serving pipeline from the store's newest checkpoint
    /// for `id`, or a fresh one. Returns whether the store seeded it.
    fn stored_or_new_monitor(&self, id: DeviceId) -> (CordialMonitor, bool) {
        match self.stored_checkpoint(id) {
            Some(state) => (CordialMonitor::restore(self.pipeline.clone(), state), true),
            None => (self.new_monitor(), false),
        }
    }

    /// Discards `slot`'s possibly-poisoned monitor state: restores the
    /// in-memory checkpoint, else the store's newest checkpoint, else
    /// starts a fresh monitor.
    fn restore(&self, slot: &mut DeviceSlot, id: DeviceId) {
        slot.monitor = match &slot.checkpoint {
            Some(state) => CordialMonitor::restore(self.pipeline.clone(), state.clone()),
            None => self.stored_or_new_monitor(id).0,
        };
        slot.since_checkpoint = 0;
        slot.restores += 1;
        cordial_obs::counter!("host.breaker.restores").inc();
        if cordial_obs::recorder::enabled() {
            cordial_obs::recorder::instant(
                "breaker",
                "restore",
                format!("device {id} monitor restored ({} restores)", slot.restores),
            );
        }
    }

    /// Accounts for a breaker that has just opened (or evicted) and
    /// restores the device's monitor.
    fn tripped(&self, slot: &mut DeviceSlot, id: DeviceId, now_ms: u64, cause: &'static str) {
        cordial_obs::counter!("host.breaker.trips").inc();
        let evicted = slot.breaker.state() == BreakerState::Evicted;
        if evicted {
            cordial_obs::counter!("host.breaker.evictions").inc();
        }
        if cordial_obs::recorder::enabled() {
            cordial_obs::recorder::instant(
                "breaker",
                if evicted { "evict" } else { "trip" },
                format!("device {id} cause={cause} at t={now_ms}ms"),
            );
        }
        // A breaker opening is a post-mortem moment: snapshot the recorder
        // rings and metrics to the black-box dump directory (no-op when no
        // directory is configured). Panic containment already dumped with
        // the richer `panic_contained` reason.
        if cause != "panic" {
            cordial_obs::blackbox::trigger(
                "breaker_open",
                &format!("device {id} cause={cause} at t={now_ms}ms"),
            );
        }
        self.restore(slot, id);
    }
}

/// Appends one device checkpoint to the store, covering the journal as of
/// now. Returns whether it landed; failures are counted.
fn persist(store: &SharedStore, id: DeviceId, checkpoint: &MonitorCheckpoint) -> bool {
    let Ok(payload) = serde_json::to_string(checkpoint) else {
        cordial_obs::counter!("host.store.checkpoint_errors").inc();
        return false;
    };
    let mut store = lock(store);
    let floor = store.last_seq().unwrap_or(0);
    match store.append_checkpoint(id, floor, &payload) {
        Ok(_) => {
            cordial_obs::counter!("host.store.checkpoints").inc();
            true
        }
        Err(_) => {
            cordial_obs::counter!("host.store.checkpoint_errors").inc();
            false
        }
    }
}

/// One monitor per device, each behind a circuit breaker, with panic
/// containment and store persistence. See the module docs.
pub struct DeviceHost {
    ctx: HostContext,
    devices: BTreeMap<DeviceId, DeviceSlot>,
}

impl DeviceHost {
    /// An empty host serving `pipeline`; devices register on first use.
    pub fn new(config: HostConfig, pipeline: Cordial) -> Self {
        Self {
            ctx: HostContext {
                config,
                pipeline,
                store: None,
            },
            devices: BTreeMap::new(),
        }
    }

    /// Attaches a durable store: periodic and [`DeviceHost::checkpoint_all`]
    /// checkpoints persist into it, and restores read from it.
    pub fn attach_store(&mut self, store: SharedStore) {
        self.ctx.store = Some(store);
    }

    /// The attached store, when there is one.
    pub(crate) fn store(&self) -> Option<&SharedStore> {
        self.ctx.store.as_ref()
    }

    /// Number of hosted devices.
    pub(crate) fn len(&self) -> usize {
        self.devices.len()
    }

    /// Registers `id` with a fresh monitor behind a closed breaker
    /// (idempotent). Returns whether the device is new.
    pub(crate) fn register(&mut self, id: DeviceId) -> bool {
        if self.devices.contains_key(&id) {
            return false;
        }
        let slot = self.ctx.new_slot(id, self.ctx.new_monitor());
        self.devices.insert(id, slot);
        true
    }

    /// Puts `monitor` behind a fresh closed breaker for `id`, clearing any
    /// quarantine, eviction or injected fault. Lifetime routing totals
    /// survive; only monitor state and breaker history reset.
    fn install(&mut self, id: DeviceId, monitor: CordialMonitor) {
        let mut slot = self.ctx.new_slot(id, monitor);
        if let Some(previous) = self.devices.remove(&id) {
            slot.routed = previous.routed;
            slot.shed = previous.shed;
            slot.panics = previous.panics;
            slot.restores = previous.restores;
            slot.last_seen_ms = previous.last_seen_ms;
        }
        self.devices.insert(id, slot);
    }

    /// Restores every device that the attached store holds a checkpoint for
    /// and `owns` accepts, skipping devices that have already served
    /// traffic. Returns each restored device's journal floor: journaled
    /// events at or below it are already part of the restored state.
    ///
    /// # Errors
    ///
    /// A store read failure or an undecodable checkpoint payload (counted
    /// in `host.store.restore_errors`; devices restored before it keep
    /// their state).
    pub fn restore_from_store(
        &mut self,
        owns: impl Fn(DeviceId) -> bool,
    ) -> Result<BTreeMap<DeviceId, u64>, String> {
        let Some(store) = &self.ctx.store else {
            return Ok(BTreeMap::new());
        };
        let checkpoints = lock(store).latest_checkpoints().map_err(|e| {
            cordial_obs::counter!("host.store.restore_errors").inc();
            e.to_string()
        })?;
        self.restore_checkpoints(checkpoints.into_iter().filter(|(id, _)| owns(*id)))
    }

    /// Restores each device from its given newest store checkpoint (as
    /// [`Store::latest_checkpoints`] reads them), skipping devices that
    /// have already served traffic: [`DeviceHost::restore_from_store`]
    /// for a caller that has read the checkpoint index itself, such as a
    /// daemon handing each shard host its own devices. Returns each
    /// restored device's journal floor.
    ///
    /// # Errors
    ///
    /// An undecodable checkpoint payload (counted in
    /// `host.store.restore_errors`; devices restored before it keep their
    /// state).
    pub fn restore_checkpoints(
        &mut self,
        checkpoints: impl IntoIterator<Item = (DeviceId, CheckpointRecord)>,
    ) -> Result<BTreeMap<DeviceId, u64>, String> {
        let mut floors = BTreeMap::new();
        for (id, record) in checkpoints {
            if self.devices.get(&id).is_some_and(|slot| slot.routed > 0) {
                continue;
            }
            let state: MonitorCheckpoint = serde_json::from_str(&record.payload).map_err(|e| {
                cordial_obs::counter!("host.store.restore_errors").inc();
                format!("checkpoint for {id}: {e}")
            })?;
            let monitor = CordialMonitor::restore(self.ctx.pipeline.clone(), state);
            self.install(id, monitor);
            cordial_obs::counter!("host.store.restores").inc();
            floors.insert(id, record.journal_seq);
        }
        Ok(floors)
    }

    /// Rebuilds `id` from the attached store: a monitor restored from the
    /// store's newest checkpoint for the device (a fresh monitor when none
    /// is usable) behind a fresh closed breaker. The operator path for
    /// bringing an evicted device back once its fault is fixed. Returns
    /// whether a store checkpoint seeded the rebuild.
    pub(crate) fn rebuild_from_store(&mut self, id: DeviceId) -> bool {
        let (monitor, from_store) = self.ctx.stored_or_new_monitor(id);
        let existed = self.devices.contains_key(&id);
        self.install(id, monitor);
        if existed {
            if let Some(slot) = self.devices.get_mut(&id) {
                slot.restores += 1;
            }
        }
        cordial_obs::counter!("host.store.rebuilds").inc();
        from_store
    }

    /// Chaos hook: from the `nth` routed event on, every ingest on `id`
    /// panics (contained). Registers the device if needed. Models a hard
    /// device fault, so the panic is sticky and the device rides its
    /// breaker into eviction.
    pub fn inject_panic_after(&mut self, id: DeviceId, nth: u64) {
        if cordial_obs::recorder::enabled() {
            cordial_obs::recorder::instant(
                "chaos",
                "inject_panic",
                format!("device {id} will panic at routed event {nth}"),
            );
        }
        self.register(id);
        if let Some(slot) = self.devices.get_mut(&id) {
            slot.panic_after = Some(nth.max(1));
        }
    }

    /// Routes one event from a possibly degraded stream through its
    /// device's guard ([`CordialMonitor::ingest_guarded`]). Guard
    /// rejections count as breaker failures.
    pub fn route_event(&mut self, event: ErrorEvent) -> RouteOutcome {
        let id = DeviceId::of(&event.addr.bank);
        let now_ms = event.time.as_millis();
        let outcomes = match self.contain(id, 1, now_ms, |monitor| monitor.ingest_guarded(event)) {
            Ok(outcomes) => outcomes,
            Err(outcome) => return outcome,
        };
        for (_, outcome) in &outcomes {
            let failure = matches!(outcome, IngestOutcome::Rejected { .. });
            if self.record(id, now_ms, failure) {
                return RouteOutcome::Tripped;
            }
        }
        self.note_served(id, 1);
        RouteOutcome::Accepted
    }

    /// Routes one device's batch through [`CordialMonitor::ingest_all`],
    /// returning the plans it triggered. Only a panic counts as a breaker
    /// failure; a shed or panicked batch plans nothing.
    pub fn route_batch(
        &mut self,
        id: DeviceId,
        events: Vec<ErrorEvent>,
    ) -> Vec<(BankAddress, MitigationPlan)> {
        let now_ms = events.iter().map(|e| e.time.as_millis()).max().unwrap_or(0);
        let count = events.len() as u64;
        match self.contain(id, count, now_ms, |monitor| monitor.ingest_all(events)) {
            Ok(plans) => {
                self.record(id, now_ms, false);
                self.note_served(id, count);
                plans
            }
            Err(_) => Vec::new(),
        }
    }

    /// Runs `ingest` on `id`'s monitor (registering the device on first
    /// sight) behind its breaker, under panic containment. `Err` says why
    /// the monitor did not run: the device is quarantined
    /// ([`RouteOutcome::Shed`]), or the call panicked and tripped the
    /// breaker ([`RouteOutcome::Tripped`]).
    fn contain<T>(
        &mut self,
        id: DeviceId,
        events: u64,
        now_ms: u64,
        ingest: impl FnOnce(&mut CordialMonitor) -> T,
    ) -> Result<T, RouteOutcome> {
        self.register(id);
        let Self { ctx, devices } = self;
        let Some(slot) = devices.get_mut(&id) else {
            return Err(RouteOutcome::Shed);
        };
        slot.routed += events;
        slot.last_seen_ms = now_ms;

        if slot.breaker.poll(now_ms) {
            // Quarantine expired: probe on a restored monitor.
            if cordial_obs::recorder::enabled() {
                cordial_obs::recorder::instant("breaker", "probe", format!("device {id}"));
            }
            ctx.restore(slot, id);
        }
        if !slot.breaker.state().is_serving() {
            slot.shed += events;
            cordial_obs::counter!("host.events.shed").add(events);
            return Err(RouteOutcome::Shed);
        }

        let must_panic = slot.panic_after.is_some_and(|nth| slot.routed >= nth);
        let monitor = &mut slot.monitor;
        let ran = cordial_obs::blackbox::contain_panic(|| {
            if must_panic {
                panic!("injected device fault");
            }
            ingest(monitor)
        });
        match ran {
            Some(value) => {
                cordial_obs::counter!("host.events.accepted").add(events);
                Ok(value)
            }
            None => {
                slot.panics += 1;
                cordial_obs::counter!("host.breaker.panics").inc();
                // Black-box the contained panic before state is discarded:
                // the dump carries the last events from every thread's
                // recorder ring plus a metrics snapshot.
                cordial_obs::blackbox::trigger(
                    "panic_contained",
                    &format!("device {id} panicked during ingest at t={now_ms}ms"),
                );
                slot.breaker.trip(now_ms);
                ctx.tripped(slot, id, now_ms, "panic");
                Err(RouteOutcome::Tripped)
            }
        }
    }

    /// Feeds one ingest outcome to `id`'s breaker. Returns whether it
    /// tripped (the monitor has then been restored).
    fn record(&mut self, id: DeviceId, now_ms: u64, failure: bool) -> bool {
        let Self { ctx, devices } = self;
        let Some(slot) = devices.get_mut(&id) else {
            return false;
        };
        if !slot.breaker.record(now_ms, failure) {
            return false;
        }
        ctx.tripped(slot, id, now_ms, "failure_rate");
        true
    }

    /// Counts `events` served by `id` toward its next checkpoint refresh.
    fn note_served(&mut self, id: DeviceId, events: u64) {
        let Self { ctx, devices } = self;
        let every = ctx.config.checkpoint_every;
        let Some(slot) = devices.get_mut(&id) else {
            return;
        };
        if every == 0 {
            return;
        }
        slot.since_checkpoint += events as usize;
        if slot.since_checkpoint < every {
            return;
        }
        let checkpoint = slot.monitor.checkpoint();
        slot.since_checkpoint = 0;
        cordial_obs::counter!("host.checkpoints").inc();
        if let Some(store) = &ctx.store {
            persist(store, id, &checkpoint);
        }
        slot.checkpoint = Some(checkpoint);
    }

    /// Trips every closed device whose last event trails `watermark_ms` by
    /// more than `deadline_ms`: a stream that went silent while the rest of
    /// the fleet kept moving. Returns how many tripped.
    pub(crate) fn trip_stalled(&mut self, watermark_ms: u64, deadline_ms: u64) -> u64 {
        let Self { ctx, devices } = self;
        let mut tripped = 0;
        for (id, slot) in devices.iter_mut() {
            if slot.breaker.state() == BreakerState::Closed
                && watermark_ms.saturating_sub(slot.last_seen_ms) > deadline_ms
            {
                tripped += 1;
                slot.breaker.trip(watermark_ms);
                ctx.tripped(slot, *id, watermark_ms, "watchdog_stall");
            }
        }
        tripped
    }

    /// Hot-swaps the serving pipeline into every monitor (state kept) and
    /// into every monitor the host creates or restores from now on.
    pub(crate) fn swap_pipeline(&mut self, pipeline: Cordial) {
        for slot in self.devices.values_mut() {
            slot.monitor.swap_pipeline(pipeline.clone());
        }
        self.ctx.pipeline = pipeline;
    }

    /// Flushes every serving monitor's reorder buffer and, with a store
    /// attached, persists one checkpoint per serving device and syncs the
    /// store. Returns `(written, failed)` persistence counts.
    pub fn checkpoint_all(&mut self) -> (usize, usize) {
        let Self { ctx, devices } = self;
        let (mut written, mut failed) = (0, 0);
        for (id, slot) in devices.iter_mut() {
            if !slot.breaker.state().is_serving() {
                continue;
            }
            slot.monitor.flush_guarded();
            if let Some(store) = &ctx.store {
                if persist(store, *id, &slot.monitor.checkpoint()) {
                    written += 1;
                } else {
                    failed += 1;
                }
            }
        }
        if let Some(store) = &ctx.store {
            if lock(store).sync().is_err() {
                cordial_obs::counter!("host.store.checkpoint_errors").inc();
                failed += 1;
            }
        }
        (written, failed)
    }

    /// Every hosted monitor, in address order.
    pub fn monitors(&self) -> impl Iterator<Item = (DeviceId, &CordialMonitor)> + '_ {
        self.devices.iter().map(|(id, slot)| (*id, &slot.monitor))
    }

    /// A snapshot of one device.
    pub fn status(&self, id: DeviceId) -> Option<DeviceStatus> {
        self.devices.get(&id).map(|slot| DeviceStatus {
            id,
            state: slot.breaker.state(),
            routed: slot.routed,
            shed: slot.shed,
            trips: slot.breaker.trips(),
            restores: slot.restores,
            panics: slot.panics,
            stats: slot.monitor.stats(),
        })
    }

    /// Snapshots of every device, in address order.
    pub fn statuses(&self) -> Vec<DeviceStatus> {
        self.devices
            .keys()
            .filter_map(|id| self.status(*id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordial::split::split_banks;
    use cordial::{CordialConfig, ModelKind};
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};
    use cordial_store::StoreConfig;

    /// Whether every hosted monitor plans with `pipeline`'s own models and
    /// flat twins rather than a copy of them.
    fn all_share(host: &DeviceHost, pipeline: &Cordial) -> bool {
        host.monitors().all(|(_, monitor)| {
            std::ptr::eq(monitor.pipeline().flat(), pipeline.flat())
                && std::ptr::eq(monitor.pipeline().classifier(), pipeline.classifier())
        })
    }

    #[test]
    fn every_monitor_shares_the_serving_pipeline_across_restores_and_swaps() {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 47);
        let split = split_banks(&dataset, 0.7, 47);
        let fit = |seed| {
            let config = CordialConfig::with_model(ModelKind::lightgbm()).with_seed(seed);
            Cordial::fit(&dataset, &split.train, &config).unwrap()
        };
        let (incumbent, candidate) = (fit(47), fit(48));
        let events = dataset.log.events();
        let mut ids: Vec<DeviceId> = events.iter().map(|e| DeviceId::of(&e.addr.bank)).collect();
        ids.sort();
        ids.dedup();
        assert!(ids.len() > 4, "the fleet has enough devices");
        let of = |id: DeviceId| -> Vec<ErrorEvent> {
            events
                .iter()
                .filter(|e| DeviceId::of(&e.addr.bank) == id)
                .copied()
                .collect()
        };

        let dir = std::env::temp_dir().join(format!("host-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        let mut host = DeviceHost::new(HostConfig::default(), incumbent.clone());
        host.attach_store(Arc::new(Mutex::new(store)));
        for id in &ids[..4] {
            host.register(*id);
        }
        host.route_batch(ids[2], of(ids[2]));
        assert_eq!(host.checkpoint_all(), (4, 0));
        // Device 0 has served nothing yet, so the store restores it.
        let floors = host.restore_from_store(|id| id == ids[0]).unwrap();
        assert!(floors.contains_key(&ids[0]));
        // Device 1 panics on its first event and restores from the store.
        host.inject_panic_after(ids[1], 1);
        assert_eq!(host.route_event(of(ids[1])[0]), RouteOutcome::Tripped);
        assert_eq!(host.status(ids[1]).map(|s| s.restores), Some(1));
        assert!(all_share(&host, &incumbent));

        host.swap_pipeline(candidate.clone());
        assert!(all_share(&host, &candidate));
        // Monitors created or restored after the swap share it too.
        host.route_batch(ids[4], of(ids[4]));
        assert!(host.rebuild_from_store(ids[1]));
        assert_eq!(host.len(), 5);
        assert!(all_share(&host, &candidate));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
