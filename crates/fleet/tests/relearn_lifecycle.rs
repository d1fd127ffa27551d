//! Acceptance tests for the continuous-learning lifecycle: a supervisor
//! killed right after a refit keeps serving the old model after restart,
//! rebuilds its training window from the durable journal with zero acked
//! events lost, and ends with monitor state identical to an uninterrupted
//! twin; refit candidates route through the promotion gate; injected
//! refit panics are contained and counted; drift alerts from the
//! monitors' detectors escalate a refit; every started refit settles as
//! exactly one of promoted, rejected or failed.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use cordial::monitor::MonitorStats;
use cordial::pipeline::Cordial;
use cordial::split::split_banks;
use cordial::CordialConfig;
use cordial_faultsim::{generate_fleet_dataset, FleetDataset, FleetDatasetConfig};
use cordial_fleet::{DeviceId, FleetSupervisor, HostConfig, RouteOutcome, SupervisorConfig};
use cordial_mcelog::{ErrorEvent, Timestamp};
use cordial_relearn::RelearnConfig;
use cordial_store::{Record, ReplayFilter, Store, StoreConfig};

fn fitted(dataset: &FleetDataset, seed: u64) -> Cordial {
    let split = split_banks(dataset, 0.7, seed);
    let config = CordialConfig::default().with_seed(seed);
    Cordial::fit(dataset, &split.train, &config).unwrap()
}

fn devices_in(events: &[ErrorEvent]) -> BTreeSet<DeviceId> {
    events.iter().map(|e| DeviceId::of(&e.addr.bank)).collect()
}

fn device_stats(supervisor: &FleetSupervisor) -> BTreeMap<DeviceId, MonitorStats> {
    supervisor
        .statuses()
        .into_iter()
        .map(|s| (s.id, s.stats))
        .collect()
}

fn journal_event_count(store: &Store) -> usize {
    let filter = ReplayFilter {
        events_only: true,
        ..ReplayFilter::default()
    };
    store
        .replay(&filter)
        .unwrap()
        .into_iter()
        .filter(|r| matches!(r, Record::Event { .. }))
        .count()
}

/// Every refit settles where it starts: the outcome split is complete.
fn assert_outcomes_settled(supervisor: &FleetSupervisor) {
    let o = supervisor.relearn_outcomes().unwrap();
    assert_eq!(o.started, o.promoted + o.rejected + o.failed, "{o:?}");
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cordial-relearn-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The kill-mid-refit scenario: supervisor A is dropped without `finish`
/// right after an inline refit. The journal still covers every acked
/// event; a restarted supervisor B rebuilds the same training window,
/// keeps serving the old model, and — fed the remaining stream — ends
/// with per-device monitor stats identical to an uninterrupted twin.
#[test]
fn kill_mid_refit_loses_nothing_and_matches_uninterrupted_twin() {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 21);
    let pipeline = fitted(&dataset, 21);
    let events = dataset.log.events();
    let half = events.len() / 2;
    let devices = devices_in(events);
    let dir = temp_dir("kill-mid-refit");

    // Relearn config for the supervisor that will be killed: drift-only
    // cadence (we trigger the refit manually).
    let killed_relearn = RelearnConfig {
        refit_every_events: 0,
        min_window_events: 64,
        min_window_banks: 2,
        ..RelearnConfig::default()
    };
    // Relearn config for the restarted supervisor and its twin: the
    // window threshold is unreachable, so no refit can ever mutate the
    // serving model — the comparison isolates pure state restoration.
    let frozen_relearn = RelearnConfig {
        refit_every_events: 0,
        min_window_events: usize::MAX >> 1,
        ..killed_relearn
    };
    let config = |relearn: RelearnConfig| SupervisorConfig {
        host: HostConfig {
            checkpoint_every: 1,
            ..SupervisorConfig::default().host
        },
        relearn: Some(relearn),
        ..SupervisorConfig::default()
    };

    // --- Supervisor A: first half, then killed mid-refit. ---
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    let mut supervisor_a = FleetSupervisor::new(
        config(killed_relearn),
        pipeline.clone(),
        devices.iter().copied(),
    )
    .with_store(store);
    let mut acked = 0usize;
    for event in &events[..half] {
        if supervisor_a.route(*event) == RouteOutcome::Accepted {
            acked += 1;
        }
    }
    assert!(acked > 1000, "first half must mostly be accepted: {acked}");
    assert!(
        supervisor_a.begin_refit(),
        "the window after half the stream must be trainable"
    );
    assert_eq!(supervisor_a.relearn_outcomes().unwrap().started, 1);
    let window_before_kill = supervisor_a.training_window().unwrap().snapshot();
    assert!(!window_before_kill.is_empty());
    // Kill: no finish(), no final checkpoint.
    drop(supervisor_a);

    // --- Zero acked events lost: the journal covers every ack. ---
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    assert_eq!(
        journal_event_count(&store),
        acked,
        "every acked event must be journaled before the kill"
    );

    // --- Supervisor B: restart from the store, run the second half. ---
    let mut supervisor_b = FleetSupervisor::new(
        config(frozen_relearn),
        pipeline.clone(),
        devices.iter().copied(),
    )
    .with_store(store);
    assert_eq!(
        supervisor_b.training_window().unwrap().snapshot(),
        window_before_kill,
        "the training window must rebuild exactly from the journal"
    );
    assert_eq!(
        supervisor_b.incumbent(),
        &pipeline,
        "the old model keeps serving after the kill"
    );
    for event in &events[half..] {
        supervisor_b.route(*event);
    }
    supervisor_b.finish();

    // --- Twin: same config, uninterrupted stream, no store. ---
    let mut twin = FleetSupervisor::new(
        config(frozen_relearn),
        pipeline.clone(),
        devices.iter().copied(),
    );
    for event in events {
        twin.route(*event);
    }
    twin.finish();

    let restarted = device_stats(&supervisor_b);
    let uninterrupted = device_stats(&twin);
    assert_eq!(restarted.len(), uninterrupted.len());
    for (id, stats) in &uninterrupted {
        assert_eq!(
            restarted.get(id),
            Some(stats),
            "device {id} diverged from the uninterrupted twin after restart"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A manually triggered inline refit trains from the window's hindsight
/// labels and routes its candidate through the promotion gate: exactly
/// one refit runs and it settles as promoted or rejected, never silently.
#[test]
fn inline_refit_routes_candidate_through_the_gate() {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 23);
    let pipeline = fitted(&dataset, 23);
    let config = SupervisorConfig {
        relearn: Some(RelearnConfig {
            refit_every_events: 0,
            ..RelearnConfig::default()
        }),
        ..SupervisorConfig::default()
    };
    let mut supervisor = FleetSupervisor::new(config, pipeline, []);
    for event in dataset.log.events() {
        supervisor.route(*event);
    }
    let outcomes = supervisor.relearn_outcomes().unwrap();
    assert_eq!(
        outcomes.started, 0,
        "zero cadence must not refit on its own"
    );

    assert!(
        supervisor.begin_refit(),
        "full-log window must be trainable"
    );
    let outcomes = supervisor.relearn_outcomes().unwrap();
    assert_eq!(outcomes.started, 1);
    assert_eq!(
        outcomes.promoted + outcomes.rejected,
        1,
        "an inline refit settles through the gate immediately: {outcomes:?}"
    );
    assert_eq!(outcomes.failed, 0);
    assert_outcomes_settled(&supervisor);
    assert_eq!(
        supervisor.registry().promotions() + supervisor.registry().rejections(),
        1
    );
}

/// An injected refit panic is contained: the refit counts as failed, the
/// incumbent keeps serving, and routing continues unharmed.
#[test]
fn refit_panic_is_contained_and_counted() {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 29);
    let pipeline = fitted(&dataset, 29);
    let config = SupervisorConfig {
        relearn: Some(RelearnConfig {
            refit_every_events: 0,
            ..RelearnConfig::default()
        }),
        ..SupervisorConfig::default()
    };
    let mut supervisor = FleetSupervisor::new(config, pipeline.clone(), []);
    let events = dataset.log.events();
    for event in &events[..events.len() / 2] {
        supervisor.route(*event);
    }
    supervisor.inject_refit_panic();
    assert!(supervisor.begin_refit());
    let outcomes = supervisor.relearn_outcomes().unwrap();
    assert_eq!(outcomes.started, 1);
    assert_eq!(outcomes.failed, 1, "the panic settles as a failure");
    assert_eq!(outcomes.promoted, 0);
    assert_outcomes_settled(&supervisor);
    assert_eq!(
        supervisor.incumbent(),
        &pipeline,
        "a panicked refit must not touch the serving model"
    );
    // The supervisor keeps routing after the contained panic.
    for event in &events[events.len() / 2..] {
        supervisor.route(*event);
    }
    supervisor.finish();
    assert_outcomes_settled(&supervisor);
    assert!(supervisor.availability() > 0.0);
}

/// With the refit cadence off, only the drift detectors can start a
/// refit: one pass over the small fleet at seed 21 starts none, and a
/// second pass, re-timed past the first's last event, stretches the lead
/// times of the banks planned in the first until the lead-time detectors
/// alert and the supervisor escalates to a refit that settles.
#[test]
fn drift_alerts_escalate_a_refit_with_the_cadence_off() {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 21);
    let pipeline = fitted(&dataset, 21);
    let config = SupervisorConfig {
        relearn: Some(RelearnConfig {
            refit_every_events: 0,
            ..RelearnConfig::default()
        }),
        ..SupervisorConfig::default()
    };
    let mut supervisor = FleetSupervisor::new(config, pipeline, []);
    let events = dataset.log.events();
    for event in events {
        supervisor.route(*event);
    }
    let outcomes = supervisor.relearn_outcomes().unwrap();
    assert_eq!(outcomes.started, 0, "one pass must not escalate");

    let span_ms = events.iter().map(|e| e.time.as_millis()).max().unwrap() + 1;
    for event in events {
        let mut event = *event;
        event.time = Timestamp::from_millis(event.time.as_millis() + span_ms);
        supervisor.route(event);
    }
    let outcomes = supervisor.relearn_outcomes().unwrap();
    assert!(
        outcomes.started >= 1,
        "the second pass must escalate to a refit: {outcomes:?}"
    );
    assert_outcomes_settled(&supervisor);
}
