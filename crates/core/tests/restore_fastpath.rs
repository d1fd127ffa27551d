//! Checkpoint/restore mid-stream: a monitor restored from a JSON
//! checkpoint and fed the rest of the stream with unguarded `ingest_all`
//! must produce bit-identical plans, stats and isolation state to a
//! monitor that never stopped.

use cordial::pipeline::Cordial;
use cordial::prelude::*;

fn trained_monitor(seed: u64) -> (FleetDataset, CordialMonitor) {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), seed);
    let split = split_banks(&dataset, 0.7, seed);
    let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
    let monitor = CordialMonitor::new(cordial, SparingBudget::typical());
    (dataset, monitor)
}

#[test]
fn restore_then_plan_matches_the_uninterrupted_run() {
    let (dataset, mut reference) = trained_monitor(17);
    let events: Vec<ErrorEvent> = dataset.log.events().to_vec();
    let kill_at = events.len() / 2;

    // The reference run never checkpoints, but is fed in the same two
    // segments as the resumed run.
    let mut reference_plans = reference.ingest_all(events[..kill_at].iter().copied());
    reference_plans.extend(reference.ingest_all(events[kill_at..].iter().copied()));

    let (_, mut first) = trained_monitor(17);
    let mut resumed_plans = first.ingest_all(events[..kill_at].iter().copied());
    let checkpoint = first.checkpoint();
    let json = serde_json::to_string(&checkpoint).unwrap();
    let checkpoint: MonitorCheckpoint = serde_json::from_str(&json).unwrap();
    let pipeline = first.pipeline().clone();

    let mut resumed = CordialMonitor::restore(pipeline, checkpoint);
    resumed_plans.extend(resumed.ingest_all(events[kill_at..].iter().copied()));

    assert_eq!(
        resumed_plans, reference_plans,
        "plans must be bit-identical"
    );
    assert_eq!(resumed.stats(), reference.stats());
    assert_eq!(resumed.engine(), reference.engine());
}
