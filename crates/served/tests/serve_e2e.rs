//! End-to-end daemon tests over real loopback sockets: serve → ingest →
//! query → graceful shutdown, the store-backed resume paths (graceful
//! drain, abrupt kill, and a kill after a checkpointed restart), and
//! explicit backpressure.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use cordial::pipeline::Cordial;
use cordial::prelude::*;
use cordial_mcelog::ErrorEvent;
use cordial_served::{Client, Frame, ServeConfig, Server, ShutdownReport};
use cordial_store::FsyncPolicy;

/// Batch size every test drives the daemon with; the kill point in the
/// resume test sits on a batch boundary by construction.
const BATCH: usize = 256;

fn trained_pipeline(seed: u64) -> (FleetDataset, Cordial) {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), seed);
    let split = split_banks(&dataset, 0.7, seed);
    let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
    (dataset, cordial)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cordial-served-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Streams `events` to `addr` in `BATCH`-sized batches, honouring
/// backpressure, then returns the admitted count.
fn drive(addr: &str, events: &[ErrorEvent]) -> u64 {
    let mut client = Client::connect(addr).unwrap();
    let mut admitted = 0u64;
    for batch in events.chunks(BATCH) {
        let (accepted, _retries) = client.ingest_retrying(batch).unwrap();
        admitted += u64::from(accepted);
    }
    admitted
}

fn shut_down(addr: &str, server: Server) -> ShutdownReport {
    Client::connect(addr).unwrap().shutdown().unwrap();
    server.wait().unwrap()
}

/// Runs one daemon over the whole stream without interruption: the twin
/// every resume test must converge on.
fn uninterrupted(pipeline: &Cordial, events: &[ErrorEvent]) -> ShutdownReport {
    let server = Server::bind(
        pipeline.clone(),
        ServeConfig::default(),
        "127.0.0.1:0",
        None,
    )
    .unwrap();
    let addr = server.addr().to_string();
    drive(&addr, events);
    shut_down(&addr, server)
}

/// A journaled daemon config over `dir`, fsyncing every batch.
fn journaled(dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        store_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        ..ServeConfig::default()
    }
}

#[test]
fn daemon_serves_ingest_queries_and_metrics_end_to_end() {
    cordial_obs::set_enabled(true);
    let (dataset, pipeline) = trained_pipeline(41);
    let server = Server::bind(
        pipeline,
        ServeConfig::default(),
        "127.0.0.1:0",
        Some("127.0.0.1:0"),
    )
    .unwrap();
    let addr = server.addr().to_string();
    let metrics_addr = server.metrics_addr().unwrap().to_string();

    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();

    let events = dataset.log.events().to_vec();
    let admitted = drive(&addr, &events);
    assert_eq!(admitted, events.len() as u64);

    let report = shut_down(&addr, server);
    assert_eq!(report.stats.events, events.len());
    assert!(report.stats.devices > 0, "fleet spans many devices");
    assert!(
        report.stats.banks_planned > 0,
        "a full fleet replay must trigger plans"
    );
    assert_eq!(report.plans.len(), report.stats.banks_planned);
    assert_eq!(report.checkpoints_written, 0, "no store configured");

    // The metrics listener answered Prometheus text while the daemon ran.
    // (Scraped before shutdown completes in real deployments; the listener
    // thread here exits with the daemon, so this scrape raced shutdown and
    // was done above via the still-bound socket only if alive. Re-scrape
    // tolerantly: a refused connection after shutdown is acceptable.)
    if let Ok(mut scrape) = TcpStream::connect(&metrics_addr) {
        let _ = scrape.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        let mut body = String::new();
        let _ = scrape.read_to_string(&mut body);
        if !body.is_empty() {
            assert!(body.starts_with("HTTP/1.1 200 OK"), "got: {body:.100}");
        }
    }
}

/// The metrics endpoint speaks enough HTTP for a scraper while the daemon
/// is live (exercised separately from the shutdown test above so the
/// scrape cannot race the listener teardown).
#[test]
fn metrics_endpoint_speaks_prometheus_text() {
    cordial_obs::set_enabled(true);
    let (dataset, pipeline) = trained_pipeline(43);
    let server = Server::bind(
        pipeline,
        ServeConfig::default(),
        "127.0.0.1:0",
        Some("127.0.0.1:0"),
    )
    .unwrap();
    let addr = server.addr().to_string();
    let metrics_addr = server.metrics_addr().unwrap().to_string();

    drive(&addr, &dataset.log.events()[..BATCH.min(dataset.log.len())]);

    let mut scrape = TcpStream::connect(&metrics_addr).unwrap();
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    scrape.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 200 OK"),
        "metrics scrape failed: {response:.200}"
    );
    assert!(
        response.contains("served_"),
        "scrape must carry served counters: {response:.400}"
    );

    let mut probe = TcpStream::connect(&metrics_addr).unwrap();
    probe
        .write_all(b"GET /other HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    probe.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 404"), "got: {response:.100}");

    shut_down(&addr, server);
}

/// Drain-resume acceptance: a daemon shut down gracefully mid-stream
/// checkpoints every monitor into its store, and a restart on the same
/// store finishes with the same stats and the same plans as a daemon that
/// saw the whole stream.
#[test]
fn graceful_shutdown_checkpoints_and_a_restart_resumes_bit_identically() {
    let (dataset, pipeline) = trained_pipeline(47);
    let events = dataset.log.events().to_vec();
    let batches: Vec<&[ErrorEvent]> = events.chunks(BATCH).collect();
    let kill_at = batches.len() / 2;
    let reference = uninterrupted(&pipeline, &events);

    // Interrupted: first half, drain + checkpoint, new process image,
    // second half.
    let dir = scratch_dir("resume");
    let config = journaled(&dir);
    let first = Server::bind(pipeline.clone(), config.clone(), "127.0.0.1:0", None).unwrap();
    let first_addr = first.addr().to_string();
    for batch in &batches[..kill_at] {
        drive(&first_addr, batch);
    }
    let first_report = shut_down(&first_addr, first);
    assert!(
        first_report.checkpoints_written > 0,
        "graceful shutdown must persist device checkpoints"
    );
    assert_eq!(first_report.checkpoints_written, first_report.stats.devices);

    let second = Server::bind(pipeline, config, "127.0.0.1:0", None).unwrap();
    let second_addr = second.addr().to_string();
    assert_eq!(
        second.stats(),
        first_report.stats,
        "restart must restore every checkpointed monitor"
    );
    for batch in &batches[kill_at..] {
        drive(&second_addr, batch);
    }
    let second_report = shut_down(&second_addr, second);

    assert_eq!(second_report.stats, reference.stats, "stats must resume");
    let mut resumed_plans = first_report.plans;
    resumed_plans.extend(second_report.plans);
    resumed_plans.sort();
    assert_eq!(resumed_plans, reference.plans, "plans must be identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A zero-capacity queue refuses every batch with `RetryAfter` (explicit
/// backpressure, not a hang or a drop), and ingestion after a shutdown
/// request answers `ShuttingDown`.
#[test]
fn full_queues_push_back_with_retry_after() {
    let (dataset, pipeline) = trained_pipeline(53);
    let config = ServeConfig {
        shards: 2,
        queue_capacity: 0,
        retry_after_ms: 7,
        ..ServeConfig::default()
    };
    let server = Server::bind(pipeline, config, "127.0.0.1:0", None).unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let batch: Vec<ErrorEvent> = dataset.log.events()[..64].to_vec();
    match client.ingest(&batch).unwrap() {
        Frame::RetryAfter { ms, .. } => assert_eq!(ms, 7),
        other => panic!("expected RetryAfter, got {other:?}"),
    }
    let health = client.health().unwrap();
    assert_eq!(health.rejected_batches, 1);
    assert_eq!(health.accepted_batches, 0);
    assert_eq!(health.queue_depths, vec![0, 0]);

    client.shutdown().unwrap();
    let mut late = Client::connect(&addr);
    if let Ok(late) = late.as_mut() {
        // The accept loop may close before or after this connect; when it
        // lands, a post-shutdown ingest must answer ShuttingDown.
        if let Ok(reply) = late.ingest(&batch) {
            assert_eq!(reply, Frame::ShuttingDown);
        }
    }
    let report = server.wait().unwrap();
    assert_eq!(report.stats.events, 0, "nothing was ever admitted");
}

/// Journal acceptance: a daemon killed **abruptly** mid-stream — no
/// drain, no checkpoint writes, exactly what the journal exists for —
/// loses zero acked batches. The restart rebuilds every monitor from the
/// journal alone and finishes with the same stats and the same plans as
/// a daemon that saw the whole stream uninterrupted.
#[test]
fn an_abrupt_kill_mid_load_loses_no_acked_batch() {
    let (dataset, pipeline) = trained_pipeline(59);
    let events = dataset.log.events().to_vec();
    let batches: Vec<&[ErrorEvent]> = events.chunks(BATCH).collect();
    let kill_at = batches.len() / 2;
    let reference = uninterrupted(&pipeline, &events);

    // Journaled daemon: ack half the stream, then die without writing a
    // single checkpoint.
    let dir = scratch_dir("kill");
    let config = journaled(&dir);
    let first = Server::bind(pipeline.clone(), config.clone(), "127.0.0.1:0", None).unwrap();
    let first_addr = first.addr().to_string();
    let mut acked = 0u64;
    for batch in &batches[..kill_at] {
        acked += drive(&first_addr, batch);
    }
    assert_eq!(
        acked,
        batches[..kill_at]
            .iter()
            .map(|b| b.len() as u64)
            .sum::<u64>(),
        "every driven batch must be acked before the kill"
    );
    first.kill();

    // Restart on the same store: the journal tail replays through the
    // live ingestion path before the socket opens.
    let second = Server::bind(pipeline, config, "127.0.0.1:0", None).unwrap();
    assert_eq!(
        second.stats().events as u64,
        acked,
        "restart must replay every acked event from the journal"
    );
    let second_addr = second.addr().to_string();
    for batch in &batches[kill_at..] {
        drive(&second_addr, batch);
    }
    let second_report = shut_down(&second_addr, second);

    assert_eq!(
        second_report.stats, reference.stats,
        "a kill-resume must converge on the uninterrupted stats"
    );
    assert_eq!(
        second_report.plans, reference.plans,
        "a kill-resume must emit the uninterrupted plans"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint restore plus tail replay: a graceful drain checkpoints every
/// monitor, a restart drives more batches, then dies abruptly. The second
/// restart restores each device from its checkpoint and replays only the
/// journal tail beyond that checkpoint's floor, so no event below a floor
/// is ingested twice and the run converges on the uninterrupted twin.
#[test]
fn a_kill_after_a_checkpointed_restart_replays_only_the_journal_tail() {
    let (dataset, pipeline) = trained_pipeline(61);
    let events = dataset.log.events().to_vec();
    let batches: Vec<&[ErrorEvent]> = events.chunks(BATCH).collect();
    let drain_at = batches.len() / 3;
    let kill_at = 2 * batches.len() / 3;
    let reference = uninterrupted(&pipeline, &events);

    let dir = scratch_dir("drain-kill");
    let config = journaled(&dir);

    // First image: a third of the stream, then a graceful drain.
    let first = Server::bind(pipeline.clone(), config.clone(), "127.0.0.1:0", None).unwrap();
    let first_addr = first.addr().to_string();
    for batch in &batches[..drain_at] {
        drive(&first_addr, batch);
    }
    let first_report = shut_down(&first_addr, first);
    assert!(first_report.checkpoints_written > 0);

    // Second image: restored from the checkpoints, drives the middle
    // third, then dies without checkpointing.
    let second = Server::bind(pipeline.clone(), config.clone(), "127.0.0.1:0", None).unwrap();
    assert_eq!(second.stats(), first_report.stats);
    let second_addr = second.addr().to_string();
    let mut acked = first_report.stats.events as u64;
    for batch in &batches[drain_at..kill_at] {
        acked += drive(&second_addr, batch);
    }
    second.kill();

    // Third image: checkpoints plus the tail beyond each floor. A replay
    // of any pre-floor event would push the count past what was acked.
    let third = Server::bind(pipeline, config, "127.0.0.1:0", None).unwrap();
    assert_eq!(
        third.stats().events as u64,
        acked,
        "restart must restore checkpoints and replay only the journal tail"
    );
    let third_addr = third.addr().to_string();
    for batch in &batches[kill_at..] {
        drive(&third_addr, batch);
    }
    let third_report = shut_down(&third_addr, third);

    assert_eq!(third_report.stats, reference.stats, "stats must converge");
    // Plans made before the drain live in the first report; the tail
    // replay re-emits the killed image's plans in the third.
    let mut plans = first_report.plans;
    plans.extend(third_report.plans);
    plans.sort();
    assert_eq!(plans, reference.plans, "plans must be identical");
    let _ = std::fs::remove_dir_all(&dir);
}
