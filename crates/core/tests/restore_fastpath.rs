//! Checkpoint/restore must rebuild the incremental fast path, not just the
//! bank histories: a monitor restored mid-stream has to make the same
//! fast-path/reference-scan choice (and produce bit-identical plans) as a
//! monitor that never stopped, and [`FeatureCaps`] have to survive the
//! checkpoint so a restored monitor stays memory-bounded.
//!
//! Obs counters are process-global, so every counter-asserting test in
//! this binary serialises on [`OBS_LOCK`] and works with before/after
//! diffs rather than absolute values.

use std::sync::Mutex;

use cordial::pipeline::Cordial;
use cordial::prelude::*;
use cordial_topology::ColId;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    cordial_obs::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn trained_monitor(seed: u64) -> (FleetDataset, CordialMonitor) {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), seed);
    let split = split_banks(&dataset, 0.7, seed);
    let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
    let monitor = CordialMonitor::new(cordial, SparingBudget::typical());
    (dataset, monitor)
}

fn ce(bank: BankAddress, row: u32, t: u64) -> ErrorEvent {
    ErrorEvent::new(
        bank.cell(RowId(row), ColId(0)),
        Timestamp::from_secs(t),
        ErrorType::Ce,
    )
}

fn uer(bank: BankAddress, row: u32, t: u64) -> ErrorEvent {
    ErrorEvent::new(
        bank.cell(RowId(row), ColId(0)),
        Timestamp::from_secs(t),
        ErrorType::Uer,
    )
}

/// A restore mid-stream must not knock any bank off the incremental fast
/// path: the resumed run takes exactly as many incremental-feature plans
/// (and reference scans) as the uninterrupted run, and the plans are
/// bit-identical.
#[test]
fn restore_then_plan_matches_the_uninterrupted_fast_path() {
    let _serial = OBS_LOCK.lock().unwrap();
    let (dataset, mut reference) = trained_monitor(17);
    let events: Vec<ErrorEvent> = dataset.log.events().to_vec();
    let kill_at = events.len() / 2;

    // The reference run never checkpoints, but is fed in the same two
    // segments as the resumed run so the second-segment counter diffs
    // compare identical batches.
    cordial_obs::set_enabled(true);
    let mut reference_plans = reference.ingest_all(events[..kill_at].iter().copied());
    let inc_mid = counter("monitor.features.incremental");
    let scan_mid = counter("monitor.features.reference_scan");
    reference_plans.extend(reference.ingest_all(events[kill_at..].iter().copied()));
    let inc_reference = counter("monitor.features.incremental") - inc_mid;
    let scan_reference = counter("monitor.features.reference_scan") - scan_mid;
    cordial_obs::set_enabled(false);
    assert!(
        inc_reference > 0,
        "the post-kill segment must exercise the incremental fast path"
    );

    let (_, mut first) = trained_monitor(17);
    let mut resumed_plans = first.ingest_all(events[..kill_at].iter().copied());
    let checkpoint = first.checkpoint();
    let json = serde_json::to_string(&checkpoint).unwrap();
    let checkpoint: MonitorCheckpoint = serde_json::from_str(&json).unwrap();
    let pipeline = first.pipeline().clone();

    let mut resumed = CordialMonitor::restore(pipeline, checkpoint);
    cordial_obs::set_enabled(true);
    let inc_before = counter("monitor.features.incremental");
    let scan_before = counter("monitor.features.reference_scan");
    resumed_plans.extend(resumed.ingest_all(events[kill_at..].iter().copied()));
    let inc_resumed = counter("monitor.features.incremental") - inc_before;
    let scan_resumed = counter("monitor.features.reference_scan") - scan_before;
    cordial_obs::set_enabled(false);

    assert_eq!(
        resumed_plans, reference_plans,
        "plans must be bit-identical"
    );
    assert_eq!(resumed.stats(), reference.stats());
    assert_eq!(resumed.engine(), reference.engine());
    // Restore rebuilt the incremental state faithfully: every bank that
    // planned after the restore made exactly the fast-path/reference-scan
    // choice the uninterrupted monitor made on the same segment.
    assert_eq!(
        inc_resumed, inc_reference,
        "restore must keep sorted banks on the incremental fast path"
    );
    assert_eq!(
        scan_resumed, scan_reference,
        "restore must not change which banks fall back to the reference scan"
    );
}

/// Monitor-side caps: the first overflow of a bank's pending buffers trips
/// `monitor.features.capped` exactly once, and the bank still plans (via
/// the reference scan) afterwards.
#[test]
fn small_caps_trip_the_capped_counter_once_per_bank() {
    let _serial = OBS_LOCK.lock().unwrap();
    let (_, monitor) = trained_monitor(23);
    let mut monitor = monitor.with_feature_caps(FeatureCaps {
        max_pending: 4,
        max_distinct_uer: 64,
    });
    let bank = BankAddress::default();

    cordial_obs::set_enabled(true);
    let capped_before = counter("monitor.features.capped");
    let scan_before = counter("monitor.features.reference_scan");
    // Four pending CEs sit exactly at the cap; the fifth overflows.
    for t in 0..10u64 {
        monitor.ingest(ce(bank, 5 + t as u32, 1 + t));
    }
    let capped_mid = counter("monitor.features.capped");
    assert_eq!(capped_mid - capped_before, 1, "cap must trip exactly once");

    // The capped bank still plans — through the reference scan.
    monitor.ingest(uer(bank, 100, 20));
    monitor.ingest(uer(bank, 103, 21));
    let outcome = monitor.ingest(uer(bank, 106, 22));
    let capped_after = counter("monitor.features.capped");
    let scan_after = counter("monitor.features.reference_scan");
    cordial_obs::set_enabled(false);

    assert!(
        matches!(outcome, IngestOutcome::Planned { .. }),
        "capped bank must still plan, got {outcome:?}"
    );
    assert_eq!(capped_after, capped_mid, "cap counter must not re-trip");
    assert_eq!(
        scan_after - scan_before,
        1,
        "the capped bank plans via the reference scan"
    );
}

/// [`FeatureCaps`] ride the checkpoint: a restored monitor enforces the
/// caps the checkpointed monitor was configured with, not the defaults.
#[test]
fn restored_monitor_keeps_the_checkpointed_caps() {
    let _serial = OBS_LOCK.lock().unwrap();
    let (_, monitor) = trained_monitor(29);
    let mut monitor = monitor.with_feature_caps(FeatureCaps {
        max_pending: 4,
        max_distinct_uer: 64,
    });
    let bank = BankAddress::default();
    // Two pending CEs: below the cap, so the checkpointed features are
    // still live (not capped).
    monitor.ingest(ce(bank, 5, 1));
    monitor.ingest(ce(bank, 8, 2));

    let json = serde_json::to_string(&monitor.checkpoint()).unwrap();
    let checkpoint: MonitorCheckpoint = serde_json::from_str(&json).unwrap();
    let mut restored = CordialMonitor::restore(monitor.pipeline().clone(), checkpoint);

    cordial_obs::set_enabled(true);
    let capped_before = counter("monitor.features.capped");
    // Three more CEs: 4 pending sits at the restored cap, the 5th
    // overflows. Under default caps (65 536) this would never trip.
    for t in 0..3u64 {
        monitor.ingest(ce(bank, 11 + t as u32, 3 + t));
        restored.ingest(ce(bank, 11 + t as u32, 3 + t));
    }
    let capped_after = counter("monitor.features.capped");
    cordial_obs::set_enabled(false);

    // Both the original monitor and its restored twin tripped: the caps
    // survived the JSON round trip.
    assert_eq!(
        capped_after - capped_before,
        2,
        "original + restored monitor must each trip the restored cap"
    );
}
