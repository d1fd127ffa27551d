//! One differential oracle over every ingest path: a seeded small-fleet
//! stream, with one monitor per device, must give the same plans however
//! it is fed.
//!
//! * The clean stream goes through per-event `ingest`, chunked
//!   `ingest_all`, `DeviceHost::route_batch` and the daemon over loopback.
//! * The same stream with duplicates and reorders inside the guard's bound
//!   goes through `ingest_guarded` + `flush_guarded`, `ingest_all_guarded`,
//!   `DeviceHost::route_event` and `FleetSupervisor` (relearn off).
//!
//! Every path must emit the same plans, and within each group the monitor
//! stats must be equal. The guarded paths must also leave byte-identical
//! monitor checkpoints. Kill-and-replay of a journaled daemon is checked
//! in `concurrent_admission.rs`.

use std::collections::BTreeMap;

use cordial::pipeline::Cordial;
use cordial::prelude::*;
use cordial_fleet::{
    DeviceHost, DeviceId, FleetSupervisor, HostConfig, RouteOutcome, SupervisorConfig,
};
use cordial_served::{Client, PlanRecord, ServeConfig, ServedStats, Server};
use cordial_store::{Store, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the fleet, the split and the pipeline.
const SEED: u64 = 73;

/// Events per chunk for chunked `ingest_all` and `route_batch`.
const CHUNK: usize = 97;

/// Events per wire batch sent to the daemon.
const WIRE_BATCH: usize = 256;

/// Chance that an event of the degraded stream is sent twice.
const DUPLICATE_RATE: f64 = 0.03;

/// Chance that a pair of neighbouring events of the degraded stream swaps.
const SWAP_RATE: f64 = 0.05;

type Stats = BTreeMap<DeviceId, MonitorStats>;
type Checkpoints = BTreeMap<DeviceId, String>;

fn trained_pipeline() -> (FleetDataset, Cordial) {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), SEED);
    let split = split_banks(&dataset, 0.7, SEED);
    let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
    (dataset, cordial)
}

/// A plan in the daemon's report form, so every path compares alike.
fn record(bank: BankAddress, plan: &MitigationPlan) -> PlanRecord {
    PlanRecord {
        device: DeviceId::of(&bank).to_string(),
        bank: bank.to_string(),
        plan: format!("{plan:?}"),
    }
}

fn sorted(mut plans: Vec<PlanRecord>) -> Vec<PlanRecord> {
    plans.sort();
    plans
}

/// The clean stream's per-device stats summed the way the daemon does.
fn totals(stats: &Stats) -> ServedStats {
    let mut total = ServedStats::default();
    for s in stats.values() {
        total.devices += 1;
        total.events += s.events;
        total.banks_planned += s.banks_planned;
        total.rows_isolated += s.rows_isolated;
        total.banks_spared += s.banks_spared;
        total.uers_absorbed += s.uers_absorbed;
        total.uers_missed += s.uers_missed;
    }
    total
}

fn checkpoints<'a>(monitors: impl Iterator<Item = (DeviceId, &'a CordialMonitor)>) -> Checkpoints {
    monitors
        .map(|(id, monitor)| (id, serde_json::to_string(&monitor.checkpoint()).unwrap()))
        .collect()
}

fn by_device(events: &[ErrorEvent]) -> BTreeMap<DeviceId, Vec<ErrorEvent>> {
    let mut out: BTreeMap<DeviceId, Vec<ErrorEvent>> = BTreeMap::new();
    for event in events {
        out.entry(DeviceId::of(&event.addr.bank))
            .or_default()
            .push(*event);
    }
    out
}

/// `clean` with seeded duplicates and neighbour swaps the guard repairs:
/// each duplicate follows its original while the original is still
/// buffered, and each swapped pair lies within the reorder bound, so no
/// event arrives late.
fn degrade(clean: &[ErrorEvent]) -> Vec<ErrorEvent> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut out = Vec::with_capacity(clean.len() + clean.len() / 16);
    for event in clean {
        out.push(*event);
        if rng.gen_bool(DUPLICATE_RATE) {
            out.push(*event);
        }
    }
    let bound = GuardConfig::default().reorder_bound_ms;
    let mut i = 0;
    while i + 1 < out.len() {
        let gap = out[i + 1].time.as_millis() - out[i].time.as_millis();
        if gap <= bound && rng.gen_bool(SWAP_RATE) {
            out.swap(i, i + 1);
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn new_monitor(pipeline: &Cordial) -> CordialMonitor {
    CordialMonitor::new(pipeline.clone(), SparingBudget::typical())
}

fn per_event(pipeline: &Cordial, events: &[ErrorEvent]) -> (Vec<PlanRecord>, Stats) {
    let mut monitors: BTreeMap<DeviceId, CordialMonitor> = BTreeMap::new();
    let mut plans = Vec::new();
    for event in events {
        let monitor = monitors
            .entry(DeviceId::of(&event.addr.bank))
            .or_insert_with(|| new_monitor(pipeline));
        if let IngestOutcome::Planned { plan, .. } = monitor.ingest(*event) {
            plans.push(record(event.addr.bank, &plan));
        }
    }
    let stats = monitors.iter().map(|(id, m)| (*id, m.stats())).collect();
    (sorted(plans), stats)
}

fn chunked_ingest_all(pipeline: &Cordial, events: &[ErrorEvent]) -> (Vec<PlanRecord>, Stats) {
    let mut monitors: BTreeMap<DeviceId, CordialMonitor> = BTreeMap::new();
    let mut plans = Vec::new();
    for chunk in events.chunks(CHUNK) {
        for (id, device_events) in by_device(chunk) {
            let monitor = monitors.entry(id).or_insert_with(|| new_monitor(pipeline));
            for (bank, plan) in monitor.ingest_all(device_events) {
                plans.push(record(bank, &plan));
            }
        }
    }
    let stats = monitors.iter().map(|(id, m)| (*id, m.stats())).collect();
    (sorted(plans), stats)
}

fn host_stats(host: &DeviceHost) -> Stats {
    host.statuses()
        .into_iter()
        .map(|status| {
            assert_eq!(status.trips, 0, "device {} tripped", status.id);
            (status.id, status.stats)
        })
        .collect()
}

fn route_batch(pipeline: &Cordial, events: &[ErrorEvent]) -> (Vec<PlanRecord>, Stats) {
    let mut host = DeviceHost::new(HostConfig::default(), pipeline.clone());
    let mut plans = Vec::new();
    for chunk in events.chunks(CHUNK) {
        for (id, device_events) in by_device(chunk) {
            for (bank, plan) in host.route_batch(id, device_events) {
                plans.push(record(bank, &plan));
            }
        }
    }
    (sorted(plans), host_stats(&host))
}

fn daemon(pipeline: &Cordial, events: &[ErrorEvent]) -> (Vec<PlanRecord>, ServedStats) {
    let server = Server::bind(
        pipeline.clone(),
        ServeConfig::default(),
        "127.0.0.1:0",
        None,
    )
    .unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for batch in events.chunks(WIRE_BATCH) {
        let (accepted, _retries) = client.ingest_retrying(batch).unwrap();
        assert_eq!(accepted as usize, batch.len());
    }
    client.shutdown().unwrap();
    let report = server.wait().unwrap();
    (report.plans, report.stats)
}

fn guarded_per_event(
    pipeline: &Cordial,
    events: &[ErrorEvent],
) -> (Vec<PlanRecord>, Stats, Checkpoints) {
    let mut monitors: BTreeMap<DeviceId, CordialMonitor> = BTreeMap::new();
    let mut plans = Vec::new();
    let mut keep = |outcomes: Vec<(ErrorEvent, IngestOutcome)>| {
        for (event, outcome) in outcomes {
            if let IngestOutcome::Planned { plan, .. } = outcome {
                plans.push(record(event.addr.bank, &plan));
            }
        }
    };
    for event in events {
        let monitor = monitors
            .entry(DeviceId::of(&event.addr.bank))
            .or_insert_with(|| new_monitor(pipeline));
        keep(monitor.ingest_guarded(*event));
    }
    for monitor in monitors.values_mut() {
        keep(monitor.flush_guarded());
    }
    let stats = monitors.iter().map(|(id, m)| (*id, m.stats())).collect();
    let checkpoints = checkpoints(monitors.iter().map(|(id, m)| (*id, m)));
    (sorted(plans), stats, checkpoints)
}

fn ingest_all_guarded(
    pipeline: &Cordial,
    events: &[ErrorEvent],
) -> (Vec<PlanRecord>, Stats, Checkpoints) {
    let mut monitors: BTreeMap<DeviceId, CordialMonitor> = BTreeMap::new();
    let mut plans = Vec::new();
    // One call per device: a guarded batch is the rest of its stream.
    for (id, device_events) in by_device(events) {
        let monitor = monitors.entry(id).or_insert_with(|| new_monitor(pipeline));
        for (bank, plan) in monitor.ingest_all_guarded(device_events) {
            plans.push(record(bank, &plan));
        }
    }
    let stats = monitors.iter().map(|(id, m)| (*id, m.stats())).collect();
    let checkpoints = checkpoints(monitors.iter().map(|(id, m)| (*id, m)));
    (sorted(plans), stats, checkpoints)
}

fn route_event(pipeline: &Cordial, events: &[ErrorEvent]) -> (Stats, Checkpoints) {
    let mut host = DeviceHost::new(HostConfig::default(), pipeline.clone());
    for event in events {
        assert_eq!(host.route_event(*event), RouteOutcome::Accepted);
    }
    // Flushes every guard; no store is attached.
    host.checkpoint_all();
    (host_stats(&host), checkpoints(host.monitors()))
}

fn supervisor(pipeline: &Cordial, events: &[ErrorEvent]) -> (Stats, Checkpoints) {
    let dir = std::env::temp_dir().join(format!("cordial-ingest-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    let config = SupervisorConfig::default();
    assert!(config.relearn.is_none(), "the oracle runs without relearn");
    let mut fleet = FleetSupervisor::new(config, pipeline.clone(), []).with_store(store);
    for event in events {
        assert_eq!(fleet.route(*event), RouteOutcome::Accepted);
    }
    // Flushes every guard and persists one checkpoint per device.
    fleet.finish();
    let stats = fleet
        .statuses()
        .into_iter()
        .map(|status| {
            assert_eq!(status.trips, 0, "device {} tripped", status.id);
            (status.id, status.stats)
        })
        .collect();
    drop(fleet);
    let store = Store::open(&dir, StoreConfig::default()).unwrap();
    let checkpoints = store
        .latest_checkpoints()
        .unwrap()
        .into_iter()
        .map(|(device, record)| (device, record.payload))
        .collect();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    (stats, checkpoints)
}

#[test]
fn every_ingest_path_gives_the_same_plans() {
    let (dataset, pipeline) = trained_pipeline();
    let clean = dataset.log.events().to_vec();

    let (plans, stats) = per_event(&pipeline, &clean);
    assert!(
        plans
            .iter()
            .any(|record| record.plan.starts_with("RowSparing")),
        "the stream must trigger row-sparing plans"
    );
    assert!(
        plans.iter().any(|record| record.plan == "BankSparing"),
        "the stream must trigger bank-sparing plans"
    );

    let (batch_plans, batch_stats) = chunked_ingest_all(&pipeline, &clean);
    assert_eq!(batch_plans, plans, "chunked ingest_all");
    assert_eq!(batch_stats, stats, "chunked ingest_all stats");

    let (host_plans, host_stats) = route_batch(&pipeline, &clean);
    assert_eq!(host_plans, plans, "DeviceHost::route_batch");
    assert_eq!(host_stats, stats, "DeviceHost::route_batch stats");

    let (daemon_plans, daemon_stats) = daemon(&pipeline, &clean);
    assert_eq!(daemon_plans, plans, "daemon over loopback");
    assert_eq!(daemon_stats, totals(&stats), "daemon stats");

    let degraded = degrade(&clean);
    assert!(
        degraded.len() > clean.len(),
        "the degraded stream has duplicates"
    );
    assert!(
        degraded.windows(2).any(|w| w[1].time < w[0].time),
        "the degraded stream has reorders"
    );

    let (guarded_plans, guarded_stats, guarded_checkpoints) =
        guarded_per_event(&pipeline, &degraded);
    assert_eq!(guarded_plans, plans, "ingest_guarded + flush_guarded");
    let total = guarded_stats.values().fold((0, 0), |(dups, reordered), s| {
        (
            dups + s.rejected_duplicates,
            reordered + s.recovered_reordered,
        )
    });
    assert_eq!(
        total.0,
        degraded.len() - clean.len(),
        "every duplicate is refused"
    );
    assert!(total.1 > 0, "the guard must repair reorders");
    assert!(
        guarded_stats.values().all(|s| s.rejected_late == 0),
        "no event arrives beyond the reorder bound"
    );

    let (all_plans, all_stats, all_checkpoints) = ingest_all_guarded(&pipeline, &degraded);
    assert_eq!(all_plans, plans, "ingest_all_guarded");
    assert_eq!(all_stats, guarded_stats, "ingest_all_guarded stats");
    assert_eq!(
        all_checkpoints, guarded_checkpoints,
        "ingest_all_guarded state"
    );

    let (event_stats, event_checkpoints) = route_event(&pipeline, &degraded);
    assert_eq!(event_stats, guarded_stats, "DeviceHost::route_event stats");
    assert_eq!(
        event_checkpoints, guarded_checkpoints,
        "DeviceHost::route_event state"
    );

    let (fleet_stats, fleet_checkpoints) = supervisor(&pipeline, &degraded);
    assert_eq!(fleet_stats, guarded_stats, "FleetSupervisor stats");
    assert_eq!(
        fleet_checkpoints, guarded_checkpoints,
        "FleetSupervisor state"
    );
}
