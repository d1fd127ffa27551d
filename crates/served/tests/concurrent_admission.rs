//! Journaled admission under concurrent clients: several connections
//! feed one daemon at once under `--fsync always`, so batches race for
//! admission and share group-commit fsyncs. Whatever order they were
//! admitted in, each shard must have processed them in journal order:
//! a restart that replays the journal then rebuilds exactly the live
//! daemon's state.

use std::thread;
use std::time::{Duration, Instant};

use cordial::pipeline::Cordial;
use cordial::prelude::*;
use cordial_mcelog::ErrorEvent;
use cordial_served::{run_load, Client, ServeConfig, ServedStats, Server};
use cordial_store::FsyncPolicy;

/// Connections feeding the daemon at once.
const CONNECTIONS: usize = 4;

/// Events per wire batch.
const BATCH: usize = 64;

fn trained_pipeline(seed: u64) -> (FleetDataset, Cordial) {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), seed);
    let split = split_banks(&dataset, 0.7, seed);
    let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
    (dataset, cordial)
}

/// Polls the daemon until its monitors have ingested `events` events.
fn wait_for_events(client: &mut Client, events: usize) -> ServedStats {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = client.stats().unwrap();
        if stats.events >= events {
            return stats;
        }
        assert!(Instant::now() < deadline, "daemon stalled at {stats:?}");
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn concurrent_clients_are_processed_in_journal_order() {
    let (dataset, pipeline) = trained_pipeline(67);
    let events: Vec<ErrorEvent> = dataset.log.events().to_vec();
    let batches: Vec<&[ErrorEvent]> = events.chunks(BATCH).collect();
    let dir =
        std::env::temp_dir().join(format!("cordial-served-concurrent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        shards: 2,
        store_dir: Some(dir.clone()),
        fsync: FsyncPolicy::Always,
        ..ServeConfig::default()
    };

    let live = Server::bind(pipeline.clone(), config.clone(), "127.0.0.1:0", None).unwrap();
    let addr = live.addr().to_string();
    // Round-robin batches of one seeded stream: each device's events
    // arrive over several connections, in an order the race decides.
    let acked: u64 = thread::scope(|scope| {
        let senders: Vec<_> = (0..CONNECTIONS)
            .map(|connection| {
                let addr = &addr;
                let batches = &batches;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut acked = 0u64;
                    for batch in batches.iter().skip(connection).step_by(CONNECTIONS) {
                        let (accepted, _retries) = client.ingest_retrying(batch).unwrap();
                        acked += u64::from(accepted);
                    }
                    acked
                })
            })
            .collect();
        senders.into_iter().map(|s| s.join().unwrap()).sum()
    });
    assert_eq!(acked, events.len() as u64, "every batch must be acked");

    let mut control = Client::connect(&addr).unwrap();
    let live_stats = wait_for_events(&mut control, events.len());
    let live_plans = control.plans().unwrap();
    assert!(
        live_stats.banks_planned > 0,
        "the stream must trigger plans"
    );
    live.kill();

    // The restart replays the journal through the live ingestion path
    // before its socket opens.
    let restarted = Server::bind(pipeline, config, "127.0.0.1:0", None).unwrap();
    assert_eq!(
        restarted.stats().events as u64,
        acked,
        "the journal must replay every acked event"
    );
    assert_eq!(restarted.stats(), live_stats, "replayed stats must match");
    let restarted_addr = restarted.addr().to_string();
    let restarted_plans = Client::connect(&restarted_addr).unwrap().plans().unwrap();
    assert_eq!(restarted_plans, live_plans, "replayed plans must match");
    restarted.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One kill -9 journal restores to the live daemon's stats and plans on
/// 1, 2 and 4 shards: the restore streams the journal once, each device's
/// events reach its one shard in journal order, and how many shards share
/// the pass changes nothing observable. Six re-timed passes make the
/// journal longer than one restore part per shard.
#[test]
fn one_journal_restores_identically_on_one_two_and_four_shards() {
    let (dataset, pipeline) = trained_pipeline(71);
    let dir = std::env::temp_dir().join(format!("cordial-served-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = |shards| ServeConfig {
        shards,
        store_dir: Some(dir.clone()),
        fsync: FsyncPolicy::Always,
        ..ServeConfig::default()
    };

    let live = Server::bind(pipeline.clone(), config(2), "127.0.0.1:0", None).unwrap();
    let addr = live.addr().to_string();
    let load = run_load(&addr, dataset.log.events(), BATCH, 6).unwrap();
    let mut control = Client::connect(&addr).unwrap();
    let live_stats = wait_for_events(&mut control, load.events as usize);
    let live_plans = control.plans().unwrap();
    assert!(
        live_stats.banks_planned > 0,
        "the stream must trigger plans"
    );
    assert!(
        live_stats.uers_absorbed > 0,
        "later passes must reach isolations"
    );
    live.kill();

    for shards in [1, 2, 4] {
        let restored = Server::bind(pipeline.clone(), config(shards), "127.0.0.1:0", None).unwrap();
        assert_eq!(restored.stats(), live_stats, "{shards} shards: stats");
        let plans = Client::connect(&restored.addr().to_string())
            .unwrap()
            .plans()
            .unwrap();
        assert_eq!(plans, live_plans, "{shards} shards: plans");
        restored.kill();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
