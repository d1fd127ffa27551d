//! The device host on its own: batch routing is bit-identical to driving
//! monitors directly, a rejection-rate trip counts once, store checkpoints
//! restore every device, and a panicking batch rolls its device back to
//! the store's checkpoint while the other devices keep their state.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cordial::monitor::{CordialMonitor, MonitorStats};
use cordial::pipeline::Cordial;
use cordial::split::split_banks;
use cordial::CordialConfig;
use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig, SparingBudget};
use cordial_fleet::{BreakerState, DeviceHost, DeviceId, HostConfig, RouteOutcome};
use cordial_mcelog::ErrorEvent;
use cordial_store::{Store, StoreConfig};

fn fixture(seed: u64) -> (Vec<ErrorEvent>, Cordial) {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), seed);
    let split = split_banks(&dataset, 0.7, seed);
    let config = CordialConfig::default().with_seed(seed);
    let pipeline = Cordial::fit(&dataset, &split.train, &config).unwrap();
    (dataset.log.events().to_vec(), pipeline)
}

/// The stream cut into 512-event wire batches, each split per device the
/// way a daemon shard receives it.
fn device_batches(events: &[ErrorEvent]) -> Vec<(DeviceId, Vec<ErrorEvent>)> {
    let mut batches = Vec::new();
    for chunk in events.chunks(512) {
        let mut by_device: BTreeMap<DeviceId, Vec<ErrorEvent>> = BTreeMap::new();
        for event in chunk {
            by_device
                .entry(DeviceId::of(&event.addr.bank))
                .or_default()
                .push(*event);
        }
        batches.extend(by_device);
    }
    batches
}

fn stats(host: &DeviceHost) -> BTreeMap<DeviceId, MonitorStats> {
    host.monitors()
        .map(|(id, monitor)| (id, monitor.stats()))
        .collect()
}

fn temp_store(tag: &str) -> (std::path::PathBuf, Store) {
    let dir = std::env::temp_dir().join(format!("device-host-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    (dir, store)
}

#[test]
fn route_batch_is_bit_identical_to_driving_monitors_directly() {
    let (events, pipeline) = fixture(31);
    let mut host = DeviceHost::new(HostConfig::default(), pipeline.clone());
    let mut direct: BTreeMap<DeviceId, CordialMonitor> = BTreeMap::new();
    for (id, batch) in device_batches(&events) {
        let hosted = host.route_batch(id, batch.clone());
        let monitor = direct
            .entry(id)
            .or_insert_with(|| CordialMonitor::new(pipeline.clone(), SparingBudget::typical()));
        assert_eq!(hosted, monitor.ingest_all(batch));
    }
    let direct_stats: BTreeMap<DeviceId, MonitorStats> =
        direct.iter().map(|(id, m)| (*id, m.stats())).collect();
    assert_eq!(stats(&host), direct_stats);
    assert!(host
        .statuses()
        .iter()
        .all(|s| s.state == BreakerState::Closed && s.trips == 0));
}

#[test]
fn a_rejection_rate_trip_counts_as_one_breaker_trip() {
    let (events, pipeline) = fixture(37);
    let mut host = DeviceHost::new(HostConfig::default(), pipeline);
    let event = events[0];
    // The first copy waits in the guard's reorder buffer; every later copy
    // is a rejected duplicate, so the breaker sees nothing but failures.
    let outcomes: Vec<RouteOutcome> = (0..64).map(|_| host.route_event(event)).collect();
    let tripped = outcomes
        .iter()
        .position(|o| *o == RouteOutcome::Tripped)
        .expect("an all-duplicate stream must trip its breaker");
    assert!(outcomes[tripped + 1..]
        .iter()
        .all(|o| *o == RouteOutcome::Shed));
    let status = host.status(DeviceId::of(&event.addr.bank)).unwrap();
    assert_eq!(status.state, BreakerState::Open);
    assert_eq!(status.trips, 1, "one rate trip is one breaker trip");
    assert_eq!(status.restores, 1);
}

#[test]
fn store_checkpoints_restore_every_device_and_the_resumed_run_converges() {
    let (events, pipeline) = fixture(41);
    let batches = device_batches(&events);
    let half = batches.len() / 2;
    let (dir, store) = temp_store("resume");
    let store = Arc::new(Mutex::new(store));

    let mut uninterrupted = DeviceHost::new(HostConfig::default(), pipeline.clone());
    for (id, batch) in &batches {
        uninterrupted.route_batch(*id, batch.clone());
    }

    let mut first = DeviceHost::new(HostConfig::default(), pipeline.clone());
    first.attach_store(Arc::clone(&store));
    for (id, batch) in &batches[..half] {
        first.route_batch(*id, batch.clone());
    }
    let (written, failed) = first.checkpoint_all();
    assert_eq!((written, failed), (first.monitors().count(), 0));

    let mut second = DeviceHost::new(HostConfig::default(), pipeline);
    second.attach_store(store);
    let floors = second.restore_from_store(|_| true).unwrap();
    assert_eq!(floors.len(), written);
    assert_eq!(stats(&second), stats(&first));
    for (id, batch) in &batches[half..] {
        second.route_batch(*id, batch.clone());
    }
    assert_eq!(stats(&second), stats(&uninterrupted));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicking_batch_rolls_its_device_back_to_the_store_checkpoint() {
    let (events, pipeline) = fixture(43);
    let batches = device_batches(&events);
    let (victim, _) = batches[0].clone();
    let (dir, store) = temp_store("panic");
    let clean_pipeline = pipeline.clone();

    let mut host = DeviceHost::new(HostConfig::default(), pipeline);
    host.attach_store(Arc::new(Mutex::new(store)));
    let half = batches.len() / 2;
    for (id, batch) in &batches[..half] {
        host.route_batch(*id, batch.clone());
    }
    host.checkpoint_all();
    let at_checkpoint = stats(&host);

    let routed = host.status(victim).unwrap().routed;
    host.inject_panic_after(victim, routed + 1);
    for (id, batch) in &batches[half..] {
        host.route_batch(*id, batch.clone());
    }
    let status = host.status(victim).unwrap();
    assert!(status.panics >= 1 && status.trips >= 1, "{status:?}");
    assert_ne!(status.state, BreakerState::Closed);
    assert_eq!(
        status.stats, at_checkpoint[&victim],
        "a contained panic restores the store checkpoint"
    );

    let mut clean = DeviceHost::new(HostConfig::default(), clean_pipeline);
    for (id, batch) in &batches {
        clean.route_batch(*id, batch.clone());
    }
    let mut expected = stats(&clean);
    expected.insert(victim, at_checkpoint[&victim]);
    assert_eq!(stats(&host), expected, "other devices are untouched");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The monitor checkpoint's JSON is what the store journals and every
/// restart reads back, so its bytes are pinned: any change to how bank
/// windows are held in memory must leave the serialised form untouched.
#[test]
fn the_monitor_checkpoint_format_is_pinned() {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 17);
    let split = split_banks(&dataset, 0.7, 17);
    let pipeline = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
    let mut monitor = CordialMonitor::new(pipeline, SparingBudget::typical());
    let events = dataset.log.events();
    monitor.ingest_all(events[..events.len() / 2].iter().copied());

    let json = serde_json::to_string(&monitor.checkpoint()).unwrap();
    assert_eq!(json.len(), 294_922);
    assert_eq!(cordial_store::crc32(json.as_bytes()), 0x2c43_9ecd);
}
