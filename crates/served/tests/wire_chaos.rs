//! Chaos harness for the live daemon: corrupted, truncated and duplicated
//! frames from `cordial_chaos::inject_frames` must degrade the connection
//! they arrive on — Error replies, breaker-closed sockets — and a
//! panicking device monitor must degrade only its device, while the
//! daemon itself keeps serving clean traffic. The client hands an Error
//! reply's reason to its caller.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use cordial::pipeline::Cordial;
use cordial::prelude::*;
use cordial_chaos::FrameChaosConfig;
use cordial_fleet::DeviceId;
use cordial_served::codec::HEADER_LEN;
use cordial_served::{
    decode_frame, encode_frame, Client, Decoded, Frame, ServeConfig, ServedStats, Server,
};

fn trained_pipeline(seed: u64) -> (FleetDataset, Cordial) {
    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), seed);
    let split = split_banks(&dataset, 0.7, seed);
    let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
    (dataset, cordial)
}

/// Drains whatever the server sent back (until EOF or a quiet period) and
/// decodes it as a reply stream. Returns the frames plus whether the
/// server closed the connection.
fn read_replies(stream: &mut TcpStream) -> (Vec<Frame>, bool) {
    stream
        .set_read_timeout(Some(Duration::from_millis(400)))
        .unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut closed = false;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                closed = true;
                break;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
            Err(_) => {
                closed = true;
                break;
            }
        }
    }
    let mut frames = Vec::new();
    let mut cursor = 0usize;
    while cursor < buf.len() {
        match decode_frame(&buf[cursor..]) {
            Decoded::Frame(frame, consumed) => {
                frames.push(frame);
                cursor += consumed;
            }
            // The server only emits well-formed frames; a trailing partial
            // read is the one acceptable remainder.
            _ => break,
        }
    }
    (frames, closed)
}

/// Valid control + ingest traffic for one chaotic connection.
fn clean_frames(events: &[cordial_mcelog::ErrorEvent]) -> Vec<Vec<u8>> {
    let mut frames = vec![encode_frame(&Frame::Ping)];
    for batch in events.chunks(32) {
        frames.push(encode_frame(&Frame::IngestBatch(batch.to_vec())));
    }
    frames.push(encode_frame(&Frame::StatsQuery));
    frames.push(encode_frame(&Frame::HealthQuery));
    frames
}

/// Sweeps several chaos seeds at moderate rates over fresh connections.
/// Every connection may die (breaker, desync) but the daemon must answer
/// clean traffic after each one, and the degraded streams must provoke at
/// least one explicit Error reply across the sweep.
#[test]
fn degraded_frame_streams_never_take_the_daemon_down() {
    let (dataset, pipeline) = trained_pipeline(59);
    let server = Server::bind(pipeline, ServeConfig::default(), "127.0.0.1:0", None).unwrap();
    let addr = server.addr().to_string();
    let events = dataset.log.events();
    let frames = clean_frames(&events[..events.len().min(512)]);

    let mut error_replies = 0usize;
    let mut any_reply = 0usize;
    for seed in 0..8u64 {
        let config = FrameChaosConfig {
            seed,
            corrupt_rate: 0.3,
            truncate_rate: 0.2,
            duplicate_rate: 0.2,
        };
        let (degraded, summary) = cordial_chaos::inject_frames(&frames, &config);
        assert_eq!(summary.input_frames, frames.len());

        let mut stream = TcpStream::connect(&addr).unwrap();
        let wire: Vec<u8> = degraded.concat();
        // The server may close mid-write once the breaker trips; a broken
        // pipe here is the degradation we are testing, not a failure.
        let _ = stream.write_all(&wire);
        let (replies, _closed) = read_replies(&mut stream);
        any_reply += replies.len();
        error_replies += replies
            .iter()
            .filter(|frame| matches!(frame, Frame::Error(_)))
            .count();
        drop(stream);

        // The daemon itself must still be healthy for clean clients.
        let mut probe = Client::connect(&addr).unwrap();
        probe.ping().unwrap();
        let health = probe.health().unwrap();
        assert!(!health.shutting_down, "chaos must not stop the daemon");
    }

    assert!(any_reply > 0, "the sweep produced no replies at all");
    assert!(
        error_replies > 0,
        "moderate corruption must provoke explicit Error replies"
    );

    // Zero-rate injection is byte-identical traffic: the daemon answers it
    // exactly as it would the original frames.
    let (clean, summary) = cordial_chaos::inject_frames(&frames, &FrameChaosConfig::default());
    assert_eq!(clean, frames);
    assert_eq!(summary.output_frames, summary.input_frames);
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(&clean.concat()).unwrap();
    let (replies, closed) = read_replies(&mut stream);
    assert!(!closed, "clean traffic must not be disconnected");
    assert!(
        replies.iter().any(|frame| matches!(frame, Frame::Pong)),
        "clean ping unanswered: {replies:?}"
    );
    assert!(
        !replies.iter().any(|frame| matches!(frame, Frame::Error(_))),
        "clean traffic drew an Error: {replies:?}"
    );
    drop(stream);

    Client::connect(&addr).unwrap().shutdown().unwrap();
    let report = server.wait().unwrap();
    // Whatever chaos admitted, the daemon accounted for it without panicking.
    assert!(report.stats.events <= events.len() * 3);
}

/// Deterministic breaker path: one connection repeating a CRC-corrupted
/// frame trips the per-connection breaker (window 8, min 2 events, 50%
/// error rate → second bad frame), which closes that socket and bumps
/// `served.breaker.opens` — and only that socket.
#[test]
fn repeated_corrupt_frames_trip_the_connection_breaker() {
    cordial_obs::set_enabled(true);
    let opens_before = counter("served.breaker.opens");

    let (dataset, pipeline) = trained_pipeline(61);
    let server = Server::bind(pipeline, ServeConfig::default(), "127.0.0.1:0", None).unwrap();
    let addr = server.addr().to_string();

    let mut bad = encode_frame(&Frame::IngestBatch(dataset.log.events()[..4].to_vec()));
    bad[HEADER_LEN] ^= 0xFF; // payload flip → CrcMismatch, a delimited Bad

    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut volley = Vec::new();
    for _ in 0..4 {
        volley.extend_from_slice(&bad);
    }
    let _ = stream.write_all(&volley);
    let (replies, mut closed) = read_replies(&mut stream);
    assert!(
        replies.iter().any(|frame| matches!(frame, Frame::Error(_))),
        "bad frames must draw Error replies before the trip: {replies:?}"
    );
    if !closed {
        // The breaker verdict can land just after the first drain window.
        let (_, closed_later) = read_replies(&mut stream);
        closed = closed_later;
    }
    assert!(closed, "a tripped breaker must close the connection");
    drop(stream);

    assert!(
        counter("served.breaker.opens") > opens_before,
        "the trip must be visible in the obs registry"
    );

    // Only the abusive connection was sacrificed.
    let mut probe = Client::connect(&addr).unwrap();
    probe.ping().unwrap();
    probe.shutdown().unwrap();
    server.wait().unwrap();
}

/// Streams `events` in small batches, honouring backpressure; returns the
/// admitted count.
fn drive(addr: &str, events: &[cordial_mcelog::ErrorEvent]) -> u64 {
    let mut client = Client::connect(addr).unwrap();
    events
        .chunks(64)
        .map(|batch| u64::from(client.ingest_retrying(batch).unwrap().0))
        .sum()
}

/// Monitor-level chaos on a live daemon: one device's monitor panics on
/// every ingest. Its shard's device host contains the panic, black-boxes
/// it and trips the device's breaker, so the worker thread survives and
/// the shard's queue keeps draining. Every batch is acked, and the other
/// devices end with exactly the stats and plans of a daemon that never
/// saw the faulty device.
#[test]
fn a_panicking_monitor_is_contained_while_its_shard_keeps_acking() {
    cordial_obs::set_enabled(true);
    let panics_before = counter("host.breaker.panics");
    let dump_dir = std::env::temp_dir().join(format!("served-blackbox-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dump_dir);
    std::fs::create_dir_all(&dump_dir).unwrap();

    let (dataset, pipeline) = trained_pipeline(67);
    let events = dataset.log.events().to_vec();
    let mut per_device: std::collections::BTreeMap<DeviceId, usize> = Default::default();
    for event in &events {
        *per_device
            .entry(DeviceId::of(&event.addr.bank))
            .or_default() += 1;
    }
    let (&victim, _) = per_device.iter().max_by_key(|(_, n)| **n).unwrap();
    let healthy: Vec<_> = events
        .iter()
        .filter(|e| DeviceId::of(&e.addr.bank) != victim)
        .copied()
        .collect();
    // One shard, so the victim shares its worker with every other device;
    // a short queue and retry hint, so a dead worker would exhaust the
    // client's retry budget within seconds.
    let config = ServeConfig {
        shards: 1,
        queue_capacity: 4,
        retry_after_ms: 1,
        ..ServeConfig::default()
    };

    let twin = Server::bind(pipeline.clone(), config.clone(), "127.0.0.1:0", None).unwrap();
    let twin_addr = twin.addr().to_string();
    drive(&twin_addr, &healthy);
    Client::connect(&twin_addr).unwrap().shutdown().unwrap();
    let reference = twin.wait().unwrap();

    cordial_obs::blackbox::set_dump_dir(Some(&dump_dir));
    let server = Server::bind(pipeline, config, "127.0.0.1:0", None).unwrap();
    server.inject_panic_after(victim, 1);
    let addr = server.addr().to_string();
    assert_eq!(
        drive(&addr, &events),
        events.len() as u64,
        "every batch must be acked while the faulty monitor is contained"
    );
    Client::connect(&addr).unwrap().shutdown().unwrap();
    let report = server.wait().unwrap();
    cordial_obs::blackbox::set_dump_dir(None);

    assert!(counter("host.breaker.panics") > panics_before);
    assert!(
        std::fs::read_dir(&dump_dir).unwrap().any(|entry| entry
            .unwrap()
            .file_name()
            .to_string_lossy()
            .contains("panic-contained")),
        "the contained panic must leave a black-box dump"
    );
    // The victim panicked on its first batch, so it planned nothing and
    // its restored monitor is empty; everyone else is untouched.
    assert_eq!(report.plans, reference.plans);
    assert_eq!(
        report.stats,
        ServedStats {
            devices: reference.stats.devices + 1,
            ..reference.stats
        }
    );
    let _ = std::fs::remove_dir_all(&dump_dir);
}

/// A daemon that refuses a request with [`Frame::Error`] says why, and
/// the client returns that reason on the ingest and the query paths alike.
#[test]
fn the_client_reports_the_daemons_error_text() {
    const WHY: &str = "journal write failed: store poisoned";
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // A fake daemon that answers each of two requests with an Error frame.
    let daemon = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut answered = 0;
        while answered < 2 {
            match decode_frame(&buf) {
                Decoded::Frame(_, consumed) => {
                    buf.drain(..consumed);
                    let reply = encode_frame(&Frame::Error(WHY.to_string()));
                    stream.write_all(&reply).unwrap();
                    answered += 1;
                }
                Decoded::Incomplete => {
                    let n = stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "the client hung up early");
                    buf.extend_from_slice(&chunk[..n]);
                }
                other => panic!("the client sent a bad frame: {other:?}"),
            }
        }
    });

    let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 7);
    let mut client = Client::connect(&addr).unwrap();
    let ingest = client
        .ingest_retrying(&dataset.log.events()[..4])
        .unwrap_err();
    assert!(ingest.to_string().contains(WHY), "ingest: {ingest}");
    let query = client.stats().unwrap_err();
    assert!(query.to_string().contains(WHY), "stats: {query}");
    daemon.join().unwrap();
}

fn counter(name: &str) -> u64 {
    cordial_obs::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}
