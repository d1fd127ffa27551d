//! Telemetry of the batch ingest calls, through which the daemon, crash
//! replay and the CLI make all their plans: the ingest span keeps its name
//! under the guard, and the `monitor.*` gauges sum over live monitors.

use std::sync::Mutex;

use cordial::prelude::*;

/// Serialises the tests in this binary: they switch the process-global
/// metrics registry on, so no other test may record concurrently.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The small fleet at seed 17 and a pipeline fitted on 70% of its banks.
fn fitted() -> (FleetDataset, Cordial) {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 17);
    let split = split_banks(&dataset, 0.7, 17);
    let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
    (dataset, cordial)
}

#[test]
fn guarded_batch_ingestion_records_the_ingest_span_unnested() {
    let _guard = obs_guard();
    let (dataset, cordial) = fitted();
    let mut monitor = CordialMonitor::new(cordial, SparingBudget::typical());
    cordial_obs::set_enabled(true);
    cordial_obs::reset();
    monitor.ingest_all_guarded(dataset.log.events().iter().copied());
    let histograms = cordial_obs::snapshot().histograms;
    cordial_obs::set_enabled(false);
    for family in ["span.ingest_all_guarded.seconds", "span.ingest_all.seconds"] {
        assert!(
            histograms.contains_key(family),
            "{family} must be recorded: {:?}",
            histograms.keys().collect::<Vec<_>>()
        );
    }
    assert!(!histograms.contains_key("span.ingest_all_guarded.ingest_all.seconds"));
}

/// The `monitor.*` gauges sum over the process's live monitors: each
/// monitor publishes its own share, and a dropped monitor withdraws it.
#[test]
fn monitor_gauges_sum_over_live_monitors() {
    let _guard = obs_guard();
    let (dataset, cordial) = fitted();
    let events = dataset.log.events();
    let half = events.len() / 2;
    let gauges = || cordial_obs::snapshot().gauges;

    cordial_obs::set_enabled(true);
    cordial_obs::reset();
    let mut first = CordialMonitor::new(cordial.clone(), SparingBudget::typical());
    let mut second = CordialMonitor::new(cordial, SparingBudget::typical());
    first.ingest_all(events[..half].iter().copied());
    second.ingest_all(events[half..].iter().copied());
    let (a, b) = (first.stats(), second.stats());
    let exported = gauges();
    assert_eq!(
        exported["monitor.banks_tracked"],
        (first.tracked_banks() + second.tracked_banks()) as f64
    );
    assert_eq!(
        exported["monitor.spare_rows_remaining"],
        (a.spare_rows_remaining + b.spare_rows_remaining) as f64
    );
    assert_eq!(
        exported["monitor.spare_banks_remaining"],
        (a.spare_banks_remaining + b.spare_banks_remaining) as f64
    );

    let second_banks = second.tracked_banks();
    drop(first);
    let exported = gauges();
    assert_eq!(exported["monitor.banks_tracked"], second_banks as f64);
    assert_eq!(
        exported["monitor.spare_rows_remaining"],
        b.spare_rows_remaining as f64
    );
    drop(second);
    assert_eq!(gauges()["monitor.banks_tracked"], 0.0);
    cordial_obs::set_enabled(false);
}

/// `monitor.guard.pending` sums the guards' reorder buffers over the live
/// monitors, like the other `monitor.*` gauges, instead of holding the
/// last admitting monitor's count.
#[test]
fn guard_pending_gauge_sums_over_live_monitors() {
    let _guard = obs_guard();
    let (dataset, cordial) = fitted();
    let events = dataset.log.events();
    let half = events.len() / 2;
    let pending = || cordial_obs::snapshot().gauges["monitor.guard.pending"];

    cordial_obs::set_enabled(true);
    cordial_obs::reset();
    let mut first = CordialMonitor::new(cordial.clone(), SparingBudget::typical());
    let mut second = CordialMonitor::new(cordial, SparingBudget::typical());
    for event in &events[..half] {
        first.ingest_guarded(*event);
    }
    for event in &events[half..] {
        second.ingest_guarded(*event);
    }
    let (a, b) = (first.guard_pending(), second.guard_pending());
    assert!(a > 0 && b > 0, "both guards must hold events: {a}, {b}");
    assert_eq!(pending(), (a + b) as f64);

    // Draining one guard withdraws its part at once.
    first.flush_guarded();
    assert_eq!(pending(), b as f64);
    drop(second);
    assert_eq!(pending(), 0.0);
    drop(first);
    assert_eq!(pending(), 0.0);
    cordial_obs::set_enabled(false);
}
