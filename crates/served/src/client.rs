//! Thin blocking client for the cordial-served wire protocol, plus the
//! load generator that drives a daemon at fleet rates.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cordial_mcelog::{ErrorEvent, Timestamp};
use serde::{Deserialize, Serialize};

use crate::codec::{decode_frame, encode_frame, encode_ingest_batch, Decoded, Frame};
use crate::server::{HealthReport, PlanRecord, ServedStats};

/// Upper bound on `RetryAfter` round-trips for one batch before the load
/// generator gives up (a daemon that never drains is a test failure, not
/// something to spin on forever).
const MAX_RETRIES_PER_BATCH: u32 = 10_000;

/// Default socket read/write timeout: a daemon that goes silent for this
/// long mid-reply surfaces as an I/O error instead of hanging the client
/// thread forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// SplitMix64 step for retry jitter (Vigna's reference constants; the
/// crate deliberately has no RNG dependency).
fn mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Jittered back-off for one `RetryAfter` hint: a seeded draw from
/// `[hint/2, hint]` milliseconds (never below 1ms). Sleeping the exact
/// hint would re-synchronise every backpressured client into offering
/// again in the same instant; the spread de-correlates them while still
/// honouring the daemon's pacing.
fn jittered_backoff_ms(hint_ms: u32, rng: &mut u64) -> u64 {
    let hint = u64::from(hint_ms).max(1);
    let floor = (hint / 2).max(1);
    floor + mix64(rng) % (hint - floor + 1)
}

/// A blocking request/response connection to one daemon.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Seeded jitter state for `RetryAfter` back-off.
    retry_rng: u64,
}

impl Client {
    /// Connects to a daemon's wire address (`host:port`) with the
    /// [`DEFAULT_IO_TIMEOUT`] on socket reads and writes.
    ///
    /// # Errors
    ///
    /// Propagates connect/configuration failures.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Self::connect_with_timeout(addr, Some(DEFAULT_IO_TIMEOUT))
    }

    /// Connects with an explicit socket read/write timeout (`None`
    /// blocks indefinitely — the pre-timeout behaviour).
    ///
    /// # Errors
    ///
    /// Propagates connect/configuration failures.
    pub fn connect_with_timeout(addr: &str, timeout: Option<Duration>) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            retry_rng: 0,
        })
    }

    /// Re-seeds the `RetryAfter` jitter stream (load generators give each
    /// connection its own seed so back-off schedules are reproducible yet
    /// de-correlated across clients).
    #[must_use]
    pub fn with_retry_seed(mut self, seed: u64) -> Client {
        self.retry_rng = seed;
        self
    }

    /// Sends one frame and blocks for the daemon's reply.
    ///
    /// # Errors
    ///
    /// I/O failures, a closed connection, or a reply that fails to decode.
    pub fn request(&mut self, frame: &Frame) -> io::Result<Frame> {
        self.stream.write_all(&encode_frame(frame))?;
        self.read_frame()
    }

    fn read_frame(&mut self) -> io::Result<Frame> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match decode_frame(&self.buf) {
                Decoded::Incomplete => {}
                Decoded::Frame(frame, n) => {
                    self.buf.drain(..n);
                    return Ok(frame);
                }
                Decoded::Bad(err, _) | Decoded::Fatal(err) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, err.to_string()));
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection mid-reply",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Offers one batch; the reply is `BatchAck`, `RetryAfter`, or
    /// `ShuttingDown`.
    ///
    /// # Errors
    ///
    /// Transport failures and undecodable replies.
    pub fn ingest(&mut self, events: &[ErrorEvent]) -> io::Result<Frame> {
        self.stream.write_all(&encode_ingest_batch(events))?;
        self.read_frame()
    }

    /// Offers one batch, honouring `RetryAfter` back-off until admitted.
    /// Returns the admitted event count.
    ///
    /// # Errors
    ///
    /// Transport failures, a daemon that starts shutting down, an
    /// unexpected reply, or exhausting the retry budget.
    pub fn ingest_retrying(&mut self, events: &[ErrorEvent]) -> io::Result<(u32, u32)> {
        // Encode once: a `RetryAfter` loop re-offers the identical bytes,
        // so re-encoding (and re-checksumming) per attempt would burn the
        // exact CPU the backpressured daemon is trying to reclaim.
        let bytes = encode_ingest_batch(events);
        let mut retries = 0u32;
        loop {
            self.stream.write_all(&bytes)?;
            match self.read_frame()? {
                Frame::BatchAck { accepted } => return Ok((accepted, retries)),
                Frame::RetryAfter { ms, .. } => {
                    retries += 1;
                    if retries > MAX_RETRIES_PER_BATCH {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "retry budget exhausted; daemon never drained",
                        ));
                    }
                    let backoff = jittered_backoff_ms(ms, &mut self.retry_rng);
                    std::thread::sleep(Duration::from_millis(backoff));
                }
                Frame::ShuttingDown => {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "daemon is shutting down",
                    ));
                }
                other => return Err(unexpected(&other)),
            }
        }
    }

    /// Fetches aggregate monitor statistics.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`Stats` reply.
    pub fn stats(&mut self) -> io::Result<ServedStats> {
        match self.request(&Frame::StatsQuery)? {
            Frame::Stats(json) => serde_json::from_str(&json)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the daemon health report.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`Health` reply.
    pub fn health(&mut self) -> io::Result<HealthReport> {
        match self.request(&Frame::HealthQuery)? {
            Frame::Health(json) => serde_json::from_str(&json)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches every mitigation plan the daemon has emitted, sorted.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`Plans` reply.
    pub fn plans(&mut self) -> io::Result<Vec<PlanRecord>> {
        match self.request(&Frame::PlanQuery)? {
            Frame::Plans(json) => serde_json::from_str(&json)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`Pong` reply.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.request(&Frame::Ping)? {
            Frame::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Requests a graceful drain-and-checkpoint shutdown.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-`ShuttingDown` reply.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.request(&Frame::Shutdown)? {
            Frame::ShuttingDown => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

/// The error for a reply the call did not ask for. A [`Frame::Error`]
/// carries the daemon's own reason (a failed journal append, a poisoned
/// store), which the caller must see.
fn unexpected(frame: &Frame) -> io::Error {
    match frame {
        Frame::Error(text) => io::Error::other(format!("daemon error: {text}")),
        other => io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply kind {:#04x}", other.kind()),
        ),
    }
}

/// What one load-generator run measured; `cordial-cli load` prints it
/// as JSON.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Events admitted by the daemon.
    pub events: u64,
    /// Batches sent (admissions, not counting retried offers).
    pub batches: u64,
    /// `RetryAfter` round-trips survived (the backpressure path).
    pub retries: u64,
    /// Wall-clock seconds from first byte to last ack.
    pub elapsed_s: f64,
    /// Admitted events per wall-clock second.
    pub events_per_sec: f64,
}

/// Streams `repeats` passes over `events` to a daemon in batches of
/// `batch_size`, honouring backpressure, and measures sustained
/// throughput.
///
/// Each repeat shifts every timestamp past the previous pass's horizon,
/// so the daemon sees one long monotone stream per bank instead of the
/// same window replayed (which the monitors would reject as duplicates or
/// stale reordering).
///
/// # Errors
///
/// Propagates connection and ingestion failures.
pub fn run_load(
    addr: &str,
    events: &[ErrorEvent],
    batch_size: usize,
    repeats: u32,
) -> io::Result<LoadReport> {
    let mut client = Client::connect(addr)?;
    let span_ms = events
        .iter()
        .map(|e| e.time.as_millis())
        .max()
        .map_or(1, |max| max + 1);
    let mut report = LoadReport {
        events: 0,
        batches: 0,
        retries: 0,
        elapsed_s: 0.0,
        events_per_sec: 0.0,
    };
    let batch_size = batch_size.max(1);
    let started = Instant::now();
    // The shifted stream is continuous across repeat boundaries, so wire
    // batches fill to a true `batch_size` even when the dataset is
    // shorter than one batch. Cutting at the repeat boundary instead
    // would silently cap the batch at the dataset length and multiply
    // the ack round-trips.
    fn flush(
        client: &mut Client,
        pending: &mut Vec<ErrorEvent>,
        report: &mut LoadReport,
    ) -> io::Result<()> {
        if pending.is_empty() {
            return Ok(());
        }
        let (accepted, retries) = client.ingest_retrying(pending)?;
        report.events += u64::from(accepted);
        report.batches += 1;
        report.retries += u64::from(retries);
        pending.clear();
        Ok(())
    }
    let mut pending: Vec<ErrorEvent> = Vec::with_capacity(batch_size);
    for repeat in 0..repeats.max(1) {
        let shift_ms = span_ms * u64::from(repeat);
        for event in events {
            let mut event = *event;
            event.time = Timestamp::from_millis(event.time.as_millis() + shift_ms);
            pending.push(event);
            if pending.len() == batch_size {
                flush(&mut client, &mut pending, &mut report)?;
            }
        }
    }
    flush(&mut client, &mut pending, &mut report)?;
    report.elapsed_s = started.elapsed().as_secs_f64();
    report.events_per_sec = if report.elapsed_s > 0.0 {
        report.events as f64 / report.elapsed_s
    } else {
        0.0
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_jitter_is_seeded_and_bounded() {
        for hint in [0u32, 1, 2, 7, 100, 10_000] {
            let (mut a, mut b) = (42u64, 42u64);
            let xs: Vec<u64> = (0..64).map(|_| jittered_backoff_ms(hint, &mut a)).collect();
            let ys: Vec<u64> = (0..64).map(|_| jittered_backoff_ms(hint, &mut b)).collect();
            assert_eq!(xs, ys, "same seed, same back-off schedule");
            let h = u64::from(hint).max(1);
            for &x in &xs {
                assert!(x >= (h / 2).max(1) && x <= h, "hint {hint}: draw {x}");
            }
        }
        let (mut a, mut b) = (1u64, 2u64);
        let xs: Vec<u64> = (0..64)
            .map(|_| jittered_backoff_ms(10_000, &mut a))
            .collect();
        let ys: Vec<u64> = (0..64)
            .map(|_| jittered_backoff_ms(10_000, &mut b))
            .collect();
        assert_ne!(xs, ys, "different seeds de-correlate");
        assert!(
            xs.windows(2).any(|w| w[0] != w[1]),
            "jitter actually varies"
        );
    }

    #[test]
    fn silent_peer_times_out_instead_of_hanging() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let silent = std::thread::spawn(move || {
            let (_socket, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(400));
        });
        let mut client =
            Client::connect_with_timeout(&addr, Some(Duration::from_millis(50))).unwrap();
        let err = client.ping().unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "expected a socket timeout, got {err:?}"
        );
        silent.join().unwrap();
    }
}
