//! The cordial-served daemon: a TCP server that shards a fleet of
//! per-device [`CordialMonitor`](cordial::monitor::CordialMonitor)s across
//! worker threads.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──frames──► accept thread ──► connection threads
//!                                           │ IngestBatch: split by device,
//!                                           │ all-or-nothing enqueue
//!                                           ▼
//!                      ┌─────────── one bounded queue per shard ──────────┐
//!                      │ worker 0          worker 1   …        worker N-1 │
//!                      │ one DeviceHost per shard                         │
//!                      └───────────────────────────────────────────────────┘
//!  scrapers ──HTTP───► /metrics listener (Prometheus text format)
//! ```
//!
//! Devices are routed to shards by a multiplicative hash of
//! [`DeviceId::salt`] modulo the shard count, so one device's event
//! stream is always serialised through one worker, per-device ingestion
//! order is preserved, and every shard gets devices whatever the shard
//! count. Batches that span shards are admitted **all-or-nothing**: if
//! any target shard's queue is full the whole batch is refused with
//! [`Frame::RetryAfter`] and no partial state changes — the client
//! retries the identical batch later.
//!
//! Each shard's monitors live in a [`DeviceHost`], the same host the
//! fleet supervisor runs on: a monitor that panics is contained and
//! black-boxed, its device's breaker opens, and the shard's other devices
//! keep being served.
//!
//! ## Graceful shutdown
//!
//! A [`Frame::Shutdown`] RPC (or [`crate::signal::install`] + SIGTERM in
//! the CLI) flips one atomic flag. The accept loop stops taking
//! connections, workers drain their queues to empty, and [`Server::wait`]
//! then checkpoints every monitor into the durable store (when
//! [`ServeConfig::store_dir`] is set), so a restart resumes
//! bit-identically (see the drain-resume acceptance tests).
//!
//! ## Durable journal
//!
//! With [`ServeConfig::store_dir`] set, the daemon opens a
//! [`cordial_store::Store`] and journals every admitted batch into it
//! **before** the [`Frame::BatchAck`] is written — under
//! [`FsyncPolicy::Always`] (the default) an acked batch is on disk even
//! if the process dies the next instant. Graceful shutdown appends one
//! checkpoint record per device carrying the journal floor it covers; a
//! restart restores those checkpoints and replays only the journal tail
//! beyond each floor. After an *abrupt* death (no checkpoints) the whole
//! journal replays, so acked batches are never lost — the property the
//! kill-mid-load end-to-end test pins. The replay is one streaming pass
//! over the journal that feeds every shard's worker at once, in journal
//! order per device (see `restore_from_store`).
//!
//! Under `Always` the fsync is a **group commit**. A connection thread
//! appends its batch to the journal and pushes it onto its shard queues
//! under the `queues` lock, without syncing, so journal order is
//! admission order. It then waits outside the lock for an fsync that
//! covers the batch: when none is running it leads one itself, through a
//! [`cordial_store::SyncHandle`] taken under the store lock and synced
//! with no lock held, and that fsync covers every batch appended before
//! it began. Queued parts carry their batch's last journal sequence
//! number, and workers pop only parts below the durable watermark, so a
//! batch reaches its shard worker, and its ack leaves, only after its
//! covering fsync. A failed fsync pulls every batch it covered back out
//! of the queues and refuses each with [`Frame::Error`]. `batch:N` and
//! `never` let the store apply the policy inside the append.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cordial::prelude::{Cordial, MonitorStats};
use cordial_fleet::{BreakerConfig, CircuitBreaker, DeviceHost, DeviceId, HostConfig, SharedStore};
use cordial_mcelog::ErrorEvent;
use cordial_obs::lock;
use cordial_store::{
    CheckpointRecord, FsyncPolicy, JournalReader, Record, ReplayFilter, Store, StoreConfig,
};
use serde::{Deserialize, Serialize};

use crate::codec::{decode_frame, encode_frame, Decoded, Frame};

/// How long blocked reads and queue waits sleep before re-checking the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Tuning of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (and therefore shard queues). Clamped to at least 1.
    pub shards: usize,
    /// Batches each shard queue holds before the daemon pushes back with
    /// [`Frame::RetryAfter`].
    pub queue_capacity: usize,
    /// Back-off the daemon suggests to a refused client, in milliseconds.
    pub retry_after_ms: u32,
    /// Directory of the durable event/checkpoint store, the daemon's only
    /// persistence. When set, every admitted batch is journaled there
    /// before its ack, graceful shutdown checkpoints every device monitor
    /// into it, and monitors are rebuilt from it at startup. `None`
    /// disables persistence.
    pub store_dir: Option<PathBuf>,
    /// When the journal flushes to disk. Only meaningful with
    /// [`ServeConfig::store_dir`]; the default [`FsyncPolicy::Always`]
    /// makes every ack imply durability.
    pub fsync: FsyncPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 64,
            retry_after_ms: 50,
            store_dir: None,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// Aggregate statistics over every device monitor, answered to
/// [`Frame::StatsQuery`] as JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServedStats {
    /// Devices the daemon hosts a monitor for.
    pub devices: usize,
    /// Events ingested across all monitors.
    pub events: usize,
    /// Banks that received a mitigation plan.
    pub banks_planned: usize,
    /// Row isolations admitted by sparing budgets.
    pub rows_isolated: usize,
    /// Banks spared wholesale.
    pub banks_spared: usize,
    /// UER events absorbed by earlier isolations.
    pub uers_absorbed: usize,
    /// UER events that reached live data.
    pub uers_missed: usize,
}

impl ServedStats {
    fn absorb(&mut self, stats: &MonitorStats) {
        self.devices += 1;
        self.events += stats.events;
        self.banks_planned += stats.banks_planned;
        self.rows_isolated += stats.rows_isolated;
        self.banks_spared += stats.banks_spared;
        self.uers_absorbed += stats.uers_absorbed;
        self.uers_missed += stats.uers_missed;
    }
}

/// Daemon liveness report, answered to [`Frame::HealthQuery`] as JSON.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Shard (worker) count.
    pub shards: usize,
    /// Batches currently queued per shard.
    pub queue_depths: Vec<usize>,
    /// Batches admitted since startup.
    pub accepted_batches: u64,
    /// Batches refused with `RetryAfter` since startup.
    pub rejected_batches: u64,
    /// Whether a shutdown has been requested.
    pub shutting_down: bool,
}

/// One mitigation decision, as reported to [`Frame::PlanQuery`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlanRecord {
    /// Owning device, in `node/npu/hbm` display form.
    pub device: String,
    /// Planned bank address.
    pub bank: String,
    /// The plan, in debug form (kind plus rows).
    pub plan: String,
}

/// What a completed graceful shutdown left behind, returned by
/// [`Server::wait`] after every queue has drained.
#[derive(Debug, Clone, PartialEq)]
pub struct ShutdownReport {
    /// Device checkpoints written to the store (0 when no store is
    /// configured).
    pub checkpoints_written: usize,
    /// Final aggregate statistics over every device monitor.
    pub stats: ServedStats,
    /// Every mitigation plan emitted over the daemon's lifetime, sorted.
    pub plans: Vec<PlanRecord>,
}

/// One shard's share of an admitted batch.
struct Part {
    /// Journal sequence number of the batch's last event (0 without a
    /// journal); the part may be processed once this is durable.
    seq: u64,
    events: Vec<ErrorEvent>,
}

/// The shard queues and the journal's commit state, behind one lock.
struct Queues {
    /// One bounded FIFO per shard, in admission (= journal) order.
    shards: Vec<VecDeque<Part>>,
    /// Parts with `seq` below this are durable and may be processed:
    /// `u64::MAX` unless the daemon group-commits.
    durable_below: u64,
    /// A group-commit leader's fsync is in flight.
    syncing: bool,
    /// Batches a failed fsync covered, by last sequence number, with the
    /// failure; each batch's connection thread takes its own entry.
    refused: HashMap<u64, String>,
}

impl Queues {
    /// Whether `shard` has a part that may be processed now.
    fn ready(&self, shard: usize) -> bool {
        self.shards[shard]
            .front()
            .is_some_and(|part| part.seq < self.durable_below)
    }
}

/// State shared between the accept loop, connection threads and workers.
struct Shared {
    config: ServeConfig,
    queues: Mutex<Queues>,
    /// Per-shard worker wake-ups: a part was pushed or became durable.
    room: Vec<Condvar>,
    /// Group-commit wake-ups: an fsync finished.
    committed: Condvar,
    /// One device host per shard worker.
    shards: Vec<Mutex<DeviceHost>>,
    plans: Mutex<Vec<PlanRecord>>,
    /// The durable journal, when [`ServeConfig::store_dir`] is set.
    store: Option<SharedStore>,
    shutdown: AtomicBool,
    accepted_batches: AtomicU64,
    rejected_batches: AtomicU64,
    connection_seq: AtomicU64,
}

/// The shard of `shards` that serialises `device`'s events. The salt
/// keeps the HBM socket in its low bits, so it is mixed first: taken
/// modulo 4 or 8 as it is, it would route by socket alone and leave every
/// shard past the second idle.
fn shard_of(device: DeviceId, shards: usize) -> usize {
    let mixed = device.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (mixed % shards as u64) as usize
}

/// Why [`Shared::enqueue`] refused a batch.
enum EnqueueRefusal {
    /// A target shard queue is full; the client should retry later.
    Full(u16),
    /// The journal append or its covering fsync failed; the batch was
    /// **not** admitted (an ack must imply durability, so an
    /// unjournalable batch is refused, and none of it is processed).
    Journal(String),
    /// Shutdown began; the workers may already have drained.
    ShuttingDown,
}

impl Shared {
    /// Opens the store (when configured) and builds one device host per
    /// shard; nothing is restored yet.
    fn open(pipeline: Cordial, config: ServeConfig) -> io::Result<Shared> {
        let shards = config.shards.max(1);
        let store = match config.store_dir.as_deref() {
            Some(dir) => {
                // Under `always` the connection threads group-commit the
                // journal themselves (see `Shared::await_commit`).
                let fsync = match config.fsync {
                    FsyncPolicy::Always => FsyncPolicy::Never,
                    policy => policy,
                };
                let store = Store::open(
                    dir,
                    StoreConfig {
                        fsync,
                        ..StoreConfig::default()
                    },
                )
                .map_err(io::Error::other)?;
                if let Some(what) = &store.recovery().corruption {
                    cordial_obs::counter!("served.journal.recoveries").inc();
                    cordial_obs::warn!("served: journal recovered from crash damage: {what}");
                }
                Some(Arc::new(Mutex::new(store)))
            }
            None => None,
        };
        // A batch is planned in one `ingest_all` call, so the hosts keep no
        // in-memory checkpoints: a tripped device restores from the store.
        let shards = (0..shards)
            .map(|_| {
                let mut host = DeviceHost::new(HostConfig::default(), pipeline.clone());
                if let Some(store) = &store {
                    host.attach_store(Arc::clone(store));
                }
                Mutex::new(host)
            })
            .collect::<Vec<_>>();
        // Everything already in the journal is as durable as recovery
        // found it; group commit covers what is appended from here on.
        let durable_below = match &store {
            Some(store) if config.fsync == FsyncPolicy::Always => lock(store).next_seq(),
            _ => u64::MAX,
        };
        Ok(Shared {
            queues: Mutex::new(Queues {
                shards: (0..shards.len()).map(|_| VecDeque::new()).collect(),
                durable_below,
                syncing: false,
                refused: HashMap::new(),
            }),
            room: shards.iter().map(|_| Condvar::new()).collect(),
            committed: Condvar::new(),
            shards,
            plans: Mutex::new(Vec::new()),
            store,
            shutdown: AtomicBool::new(false),
            accepted_batches: AtomicU64::new(0),
            rejected_batches: AtomicU64::new(0),
            connection_seq: AtomicU64::new(0),
            config,
        })
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for cv in &self.room {
            cv.notify_all();
        }
    }

    fn shard_of(&self, device: DeviceId) -> usize {
        shard_of(device, self.shards.len())
    }

    /// Whether acks wait for a shared fsync (a journal under
    /// [`FsyncPolicy::Always`]).
    fn group_commits(&self) -> bool {
        self.store.is_some() && self.config.fsync == FsyncPolicy::Always
    }

    /// Admits a batch to its target shard queues, all-or-nothing.
    ///
    /// Returns the admitted event count, or why the batch was refused.
    /// Capacity is checked for every target shard under one lock before
    /// anything is pushed, so a refusal leaves no partial batch. When a
    /// journal is configured the batch is appended between the capacity
    /// check and the push, still under the queues lock, so journal order
    /// is admission order. Under [`FsyncPolicy::Always`] the append does
    /// not sync: [`Shared::await_commit`] then waits, outside the lock,
    /// for the group-commit fsync that covers the batch, so the batch is
    /// on disk before its ack can be written.
    ///
    /// The shutdown flag is checked under the same lock the workers check
    /// it under before exiting, so no batch is admitted after its shard
    /// worker has drained: every acked batch is processed (and covered by
    /// the drain's checkpoints).
    fn enqueue(&self, batch: Vec<ErrorEvent>) -> Result<u32, EnqueueRefusal> {
        // First pass: which shards the batch touches (for the capacity
        // check). Shard indices are dense and small, so this is a direct
        // Vec index per event — no ordered-map bookkeeping on the
        // admission path.
        let mut touched = vec![false; self.shards.len()];
        for event in &batch {
            touched[self.shard_of(DeviceId::of(&event.addr.bank))] = true;
        }
        let mut queues = lock(&self.queues);
        if self.shutting_down() {
            return Err(EnqueueRefusal::ShuttingDown);
        }
        for (shard, hit) in touched.into_iter().enumerate() {
            if hit && queues.shards[shard].len() >= self.config.queue_capacity {
                return Err(EnqueueRefusal::Full(shard as u16));
            }
        }
        let mut seq = 0;
        if let Some(store) = &self.store {
            let appended = lock(store)
                .append_events(&batch)
                .map_err(|err| EnqueueRefusal::Journal(err.to_string()))?;
            seq = appended.map_or(0, |(_, last)| last);
        }
        let mut parts: Vec<Vec<ErrorEvent>> = Vec::new();
        parts.resize_with(self.shards.len(), Vec::new);
        for event in batch {
            let shard = self.shard_of(DeviceId::of(&event.addr.bank));
            parts[shard].push(event);
        }
        let mut total = 0u32;
        for (shard, events) in parts.into_iter().enumerate() {
            if events.is_empty() {
                continue;
            }
            total += events.len() as u32;
            queues.shards[shard].push_back(Part { seq, events });
            // A part awaiting its group commit wakes its worker only once
            // the fsync lands (`await_commit`).
            if seq < queues.durable_below {
                self.room[shard].notify_one();
            }
        }
        if total > 0 && self.group_commits() {
            self.await_commit(queues, seq)?;
        }
        Ok(total)
    }

    /// Group commit: blocks until the batch journaled through `seq` is
    /// durable, leading an fsync whenever none is in flight. The leader
    /// syncs with no lock held and covers every batch appended before its
    /// [`SyncHandle`](cordial_store::SyncHandle) was taken; on success it
    /// raises the durable watermark and wakes the workers, on failure it
    /// pulls every covered batch back out of the queues and refuses it.
    fn await_commit<'a>(
        &'a self,
        mut queues: MutexGuard<'a, Queues>,
        seq: u64,
    ) -> Result<(), EnqueueRefusal> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        loop {
            if let Some(why) = queues.refused.remove(&seq) {
                return Err(EnqueueRefusal::Journal(why));
            }
            if seq < queues.durable_below {
                return Ok(());
            }
            if queues.syncing {
                queues = self
                    .committed
                    .wait(queues)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                continue;
            }
            queues.syncing = true;
            drop(queues);
            let handle = lock(store).sync_handle();
            let (covers, synced) = match handle {
                Ok(handle) => (handle.covers().unwrap_or(0), handle.sync()),
                // No handle, no fsync: nothing appended so far is covered.
                Err(err) => (u64::MAX, Err(err)),
            };
            queues = lock(&self.queues);
            queues.syncing = false;
            match synced {
                Ok(()) => queues.durable_below = queues.durable_below.max(covers + 1),
                Err(err) => refuse_pending(&mut queues, covers, &err.to_string()),
            }
            for cv in &self.room {
                cv.notify_all();
            }
            self.committed.notify_all();
        }
    }

    /// Runs one shard's batches through its device host.
    ///
    /// Grouping uses a `HashMap` — device monitors are independent, and
    /// every surface that exposes plans sorts them, so the cheaper
    /// unordered grouping changes nothing observable.
    fn process(&self, shard_idx: usize, batch: Vec<ErrorEvent>) {
        let mut by_device: HashMap<DeviceId, Vec<ErrorEvent>> = HashMap::new();
        for event in batch {
            by_device
                .entry(DeviceId::of(&event.addr.bank))
                .or_default()
                .push(event);
        }
        let mut host = lock(&self.shards[shard_idx]);
        for (device, events) in by_device {
            cordial_obs::counter!("served.events").add(events.len() as u64);
            let planned = host.route_batch(device, events);
            if planned.is_empty() {
                continue;
            }
            cordial_obs::counter!("served.plans").add(planned.len() as u64);
            let mut plans = lock(&self.plans);
            for (bank, plan) in planned {
                plans.push(PlanRecord {
                    device: device.to_string(),
                    bank: bank.to_string(),
                    plan: format!("{plan:?}"),
                });
            }
        }
    }

    fn worker_loop(&self, shard_idx: usize) {
        loop {
            let batch = {
                let mut queues = lock(&self.queues);
                loop {
                    if queues.ready(shard_idx) {
                        break queues.shards[shard_idx].pop_front().map(|part| part.events);
                    }
                    if self.shutting_down() && queues.shards[shard_idx].is_empty() {
                        // Queue drained and no more producers: done. A
                        // part still waiting for its fsync is processed
                        // or refused first.
                        break None;
                    }
                    let (guard, _timed_out) = self.room[shard_idx]
                        .wait_timeout(queues, POLL_INTERVAL)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    queues = guard;
                }
            };
            match batch {
                Some(batch) => self.process(shard_idx, batch),
                None => return,
            }
        }
    }

    fn aggregate_stats(&self) -> ServedStats {
        let mut total = ServedStats::default();
        for shard in &self.shards {
            for (_, monitor) in lock(shard).monitors() {
                total.absorb(&monitor.stats());
            }
        }
        total
    }

    fn health(&self) -> HealthReport {
        HealthReport {
            shards: self.shards.len(),
            queue_depths: lock(&self.queues)
                .shards
                .iter()
                .map(VecDeque::len)
                .collect(),
            accepted_batches: self.accepted_batches.load(Ordering::Relaxed),
            rejected_batches: self.rejected_batches.load(Ordering::Relaxed),
            shutting_down: self.shutting_down(),
        }
    }

    /// Answers one decoded request frame.
    fn handle_frame(&self, frame: Frame) -> Frame {
        match frame {
            Frame::IngestBatch(events) => {
                cordial_obs::counter!("served.batches.offered").inc();
                match self.enqueue(events) {
                    Ok(accepted) => {
                        self.accepted_batches.fetch_add(1, Ordering::Relaxed);
                        Frame::BatchAck { accepted }
                    }
                    Err(EnqueueRefusal::Full(shard)) => {
                        self.rejected_batches.fetch_add(1, Ordering::Relaxed);
                        cordial_obs::counter!("served.batches.rejected").inc();
                        Frame::RetryAfter {
                            shard,
                            ms: self.config.retry_after_ms,
                        }
                    }
                    Err(EnqueueRefusal::Journal(why)) => {
                        self.rejected_batches.fetch_add(1, Ordering::Relaxed);
                        cordial_obs::counter!("served.journal.errors").inc();
                        Frame::Error(format!("journal write failed: {why}"))
                    }
                    Err(EnqueueRefusal::ShuttingDown) => Frame::ShuttingDown,
                }
            }
            Frame::StatsQuery => Frame::Stats(
                serde_json::to_string(&self.aggregate_stats()).unwrap_or_else(|e| e.to_string()),
            ),
            Frame::HealthQuery => Frame::Health(
                serde_json::to_string(&self.health()).unwrap_or_else(|e| e.to_string()),
            ),
            Frame::PlanQuery => {
                let mut records = lock(&self.plans).clone();
                records.sort();
                Frame::Plans(serde_json::to_string(&records).unwrap_or_else(|e| e.to_string()))
            }
            Frame::Shutdown => {
                self.request_shutdown();
                Frame::ShuttingDown
            }
            Frame::Ping => Frame::Pong,
            // Response frames arriving at the server are a client bug.
            other => Frame::Error(format!("unexpected frame kind {:#04x}", other.kind())),
        }
    }

    /// Per-connection read/decode/respond loop.
    ///
    /// Decode failures feed a per-connection circuit breaker: delimited
    /// bad frames ([`Decoded::Bad`]) are answered with [`Frame::Error`]
    /// and skipped, but a connection whose error rate trips the breaker —
    /// or whose stream is unrecoverable ([`Decoded::Fatal`]) — is dropped.
    fn serve_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let seed = self.connection_seq.fetch_add(1, Ordering::Relaxed);
        let mut breaker = CircuitBreaker::new(
            BreakerConfig {
                window: 8,
                trip_error_rate: 0.5,
                min_events: 2,
                backoff_base_ms: 1_000,
                backoff_jitter_ms: 0,
                max_retries: 3,
                half_open_probe: 1,
            },
            seed,
        );
        let started = Instant::now();
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(err)
                    if err.kind() == io::ErrorKind::WouldBlock
                        || err.kind() == io::ErrorKind::TimedOut =>
                {
                    if self.shutting_down() {
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            }
            let mut consumed = 0usize;
            loop {
                let now_ms = started.elapsed().as_millis() as u64;
                match decode_frame(&buf[consumed..]) {
                    Decoded::Incomplete => break,
                    Decoded::Frame(frame, n) => {
                        consumed += n;
                        breaker.record(now_ms, false);
                        let shutdown_after = matches!(frame, Frame::Shutdown);
                        let reply = self.handle_frame(frame);
                        if stream.write_all(&encode_frame(&reply)).is_err() {
                            return;
                        }
                        if shutdown_after {
                            return;
                        }
                    }
                    Decoded::Bad(err, n) => {
                        consumed += n;
                        cordial_obs::counter!("served.frames.bad").inc();
                        let _ = stream.write_all(&encode_frame(&Frame::Error(err.to_string())));
                        if breaker.record(now_ms, true) {
                            // Too many bad frames in the window: this peer
                            // is speaking garbage; cut it off.
                            cordial_obs::counter!("served.breaker.opens").inc();
                            return;
                        }
                    }
                    Decoded::Fatal(err) => {
                        cordial_obs::counter!("served.frames.fatal").inc();
                        let _ = stream.write_all(&encode_frame(&Frame::Error(err.to_string())));
                        return;
                    }
                }
            }
            buf.drain(..consumed);
        }
    }
}

/// A running daemon: listeners bound, workers live.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    accept_thread: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the wire listener (and optionally a `/metrics` HTTP listener),
    /// rebuilds every device monitor from `config.store_dir` (when set),
    /// and starts the shard workers plus accept loop.
    ///
    /// Bind to port 0 to let the OS pick; the chosen address is reported
    /// by [`Server::addr`] / [`Server::metrics_addr`].
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures and store open, replay or
    /// checkpoint-decode failures (a missing store directory is created,
    /// not an error).
    pub fn bind(
        pipeline: Cordial,
        config: ServeConfig,
        addr: &str,
        metrics_addr: Option<&str>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let metrics_listener = match metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_local = metrics_listener
            .as_ref()
            .map(TcpListener::local_addr)
            .transpose()?;

        let shared = Arc::new(Shared::open(pipeline, config)?);
        restore_from_store(&shared)?;

        let workers = (0..shared.shards.len())
            .map(|idx| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("served-shard-{idx}"))
                    .spawn(move || shared.worker_loop(idx))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let accept_shared = Arc::clone(&shared);
        let accept_thread =
            thread::Builder::new()
                .name("served-accept".into())
                .spawn(move || {
                    accept_loop(&accept_shared, &listener, |stream| {
                        spawn_connection(&accept_shared, stream);
                    });
                })?;

        let metrics_thread = match metrics_listener {
            Some(listener) => {
                let shared = Arc::clone(&shared);
                Some(
                    thread::Builder::new()
                        .name("served-metrics".into())
                        .spawn(move || accept_loop(&shared, &listener, serve_metrics))?,
                )
            }
            None => None,
        };

        Ok(Server {
            shared,
            addr: local_addr,
            metrics_addr: metrics_local,
            accept_thread: Some(accept_thread),
            metrics_thread,
            workers,
        })
    }

    /// The bound wire-protocol address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound `/metrics` address, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Whether a shutdown has been requested (RPC or
    /// [`Server::trigger_shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Requests a graceful shutdown, as the SIGTERM handler path does.
    pub fn trigger_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Aggregate statistics across every device monitor.
    pub fn stats(&self) -> ServedStats {
        self.shared.aggregate_stats()
    }

    /// Chaos hook: from `device`'s `nth` routed event on, every ingest on
    /// it panics inside its shard's [`DeviceHost`], which contains the
    /// panic and trips the device's breaker.
    pub fn inject_panic_after(&self, device: DeviceId, nth: u64) {
        lock(&self.shared.shards[self.shared.shard_of(device)]).inject_panic_after(device, nth);
    }

    /// Joins every daemon thread. A thread that panicked is reported, not
    /// silently dropped: device-level panics are contained by the hosts,
    /// so one escaping to here is a daemon bug.
    fn join_threads(&mut self) {
        let handles = self
            .accept_thread
            .take()
            .into_iter()
            .chain(self.workers.drain(..))
            .chain(self.metrics_thread.take());
        for handle in handles {
            let name = handle.thread().name().unwrap_or("served").to_string();
            if handle.join().is_err() {
                cordial_obs::counter!("served.threads.panicked").inc();
                cordial_obs::error!("served: thread {name} panicked");
            }
        }
    }

    /// Blocks until the daemon has shut down: workers drained and joined,
    /// then every device monitor checkpointed into the store (when one is
    /// configured).
    ///
    /// # Errors
    ///
    /// Propagates checkpoint-write I/O failures.
    pub fn wait(mut self) -> io::Result<ShutdownReport> {
        self.join_threads();
        let checkpoints_written = write_checkpoints(&self.shared)?;
        let mut plans = lock(&self.shared.plans).clone();
        plans.sort();
        Ok(ShutdownReport {
            checkpoints_written,
            stats: self.shared.aggregate_stats(),
            plans,
        })
    }

    /// Stops the daemon **without** checkpointing — the crash-simulation
    /// path the kill-mid-load tests use. Threads are stopped and joined
    /// (so the process can rebind the same store directory), but no
    /// checkpoint record is written: a restart recovers from the store's
    /// earlier checkpoints plus the journal, exactly as after a `kill -9`.
    pub fn kill(mut self) {
        self.shared.request_shutdown();
        self.join_threads();
    }
}

/// Pulls every batch a failed group-commit fsync covered (those not yet
/// durable, journaled through `through`) out of the shard queues,
/// recording each for its connection thread to refuse.
fn refuse_pending(queues: &mut Queues, through: u64, why: &str) {
    let Queues {
        shards,
        durable_below,
        refused,
        ..
    } = queues;
    let covered = *durable_below..=through;
    for queue in shards.iter_mut() {
        queue.retain(|part| {
            if covered.contains(&part.seq) {
                refused.insert(part.seq, why.to_string());
                return false;
            }
            true
        });
    }
}

/// Events the journal restore hands a shard worker at a time.
const RESTORE_PART_EVENTS: usize = 8192;

/// Parts queued per shard worker during the journal restore: with the part
/// each worker is ingesting and the one being filled, at most four parts
/// per shard are in memory.
const RESTORE_QUEUE_PARTS: usize = 2;

/// Rebuilds the fleet from the durable store. The checkpoint index is read
/// once and each shard host restores its own devices' latest checkpoints.
/// Then one streaming pass over the journal feeds every event beyond its
/// device's checkpoint floor to its shard, through the same
/// [`Shared::process`] path live batches take, on one scoped worker thread
/// per shard. Devices that never reached a checkpoint replay from the
/// beginning of the journal, so an abrupt death loses no acked batch.
///
/// Each device's events reach its one shard in journal order, so every
/// monitor, plan and stat is the one a daemon that saw the stream live
/// would hold. The store lock is held only to read the checkpoint index
/// and to create the journal reader, never across a blocking send: a
/// device whose ingest panics mid-replay restores from the store, which
/// takes that lock.
fn restore_from_store(shared: &Shared) -> io::Result<()> {
    let Some(store) = &shared.store else {
        return Ok(());
    };
    let checkpoints = lock(store).latest_checkpoints().map_err(io::Error::other)?;
    let mut owned: Vec<Vec<(DeviceId, CheckpointRecord)>> =
        shared.shards.iter().map(|_| Vec::new()).collect();
    for (device, record) in checkpoints {
        owned[shared.shard_of(device)].push((device, record));
    }
    let mut floors: HashMap<DeviceId, u64> = HashMap::new();
    for (host, owned) in shared.shards.iter().zip(owned) {
        let restored = lock(host)
            .restore_checkpoints(owned)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        floors.extend(restored);
    }
    let reader = lock(store).reader(&ReplayFilter {
        events_only: true,
        ..ReplayFilter::default()
    });
    let replayed = thread::scope(|scope| {
        let (senders, workers): (Vec<_>, Vec<_>) = (0..shared.shards.len())
            .map(|shard| {
                let (send, parts) = mpsc::sync_channel::<Vec<ErrorEvent>>(RESTORE_QUEUE_PARTS);
                let worker = scope.spawn(move || {
                    for part in parts {
                        shared.process(shard, part);
                    }
                });
                (send, worker)
            })
            .unzip();
        let fed = feed_journal(shared, reader, &floors, &senders);
        drop(senders);
        let mut panicked = false;
        for worker in workers {
            panicked |= worker.join().is_err();
        }
        if panicked {
            return Err(io::Error::other("a journal restore worker panicked"));
        }
        fed
    })?;
    cordial_obs::gauge!("served.checkpoints.restored").set(floors.len() as f64);
    cordial_obs::counter!("served.journal.replayed").add(replayed);
    Ok(())
}

/// Splits the journal `reader` streams into per-shard parts of
/// [`RESTORE_PART_EVENTS`] events, skipping events at or below their
/// device's checkpoint floor, and sends each part to its shard's worker.
/// Returns how many events were sent.
fn feed_journal(
    shared: &Shared,
    reader: JournalReader,
    floors: &HashMap<DeviceId, u64>,
    senders: &[SyncSender<Vec<ErrorEvent>>],
) -> io::Result<u64> {
    let gone = |_| io::Error::other("a journal restore worker stopped early");
    let mut parts: Vec<Vec<ErrorEvent>> = senders.iter().map(|_| Vec::new()).collect();
    let mut fed = 0u64;
    for record in reader {
        let Record::Event { seq, event } = record.map_err(io::Error::other)? else {
            continue;
        };
        let device = DeviceId::of(&event.addr.bank);
        if floors.get(&device).is_some_and(|floor| seq <= *floor) {
            continue;
        }
        let shard = shared.shard_of(device);
        let part = &mut parts[shard];
        part.push(event);
        if part.len() == RESTORE_PART_EVENTS {
            fed += RESTORE_PART_EVENTS as u64;
            let full = std::mem::replace(part, Vec::with_capacity(RESTORE_PART_EVENTS));
            senders[shard].send(full).map_err(gone)?;
        }
    }
    for (part, sender) in parts.into_iter().zip(senders) {
        if !part.is_empty() {
            fed += part.len() as u64;
            sender.send(part).map_err(gone)?;
        }
    }
    Ok(fed)
}

/// Checkpoints every serving device monitor into the durable store, one
/// checkpoint record per device. Every journaled event has been drained
/// through its monitor by the time this runs, so each checkpoint covers
/// the journal up to the store's current tail. Returns how many devices
/// were checkpointed (0 when no store is configured).
fn write_checkpoints(shared: &Shared) -> io::Result<usize> {
    let (mut written, mut failed) = (0, 0);
    for host in &shared.shards {
        let (w, f) = lock(host).checkpoint_all();
        written += w;
        failed += f;
    }
    if failed > 0 {
        return Err(io::Error::other(format!(
            "{failed} device checkpoint writes failed"
        )));
    }
    cordial_obs::gauge!("served.checkpoints.written").set(written as f64);
    Ok(written)
}

/// Accepts connections on a non-blocking listener until shutdown, handing
/// each to `serve`. An accept error (the idle `WouldBlock` included) naps
/// briefly, then re-checks the shutdown flag.
fn accept_loop(shared: &Shared, listener: &TcpListener, mut serve: impl FnMut(TcpStream)) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => serve(stream),
            Err(_) if shared.shutting_down() => return,
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Serves one wire connection on a thread of its own.
fn spawn_connection(shared: &Arc<Shared>, stream: TcpStream) {
    cordial_obs::counter!("served.connections").inc();
    let shared = Arc::clone(shared);
    let _ = thread::Builder::new()
        .name("served-conn".into())
        .spawn(move || shared.serve_connection(stream));
}

/// Minimal HTTP/1.1 responder for Prometheus scrapes of the process-wide
/// cordial-obs registry.
fn serve_metrics(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut request = [0u8; 4096];
    let n = stream.read(&mut request).unwrap_or(0);
    let line = std::str::from_utf8(&request[..n]).unwrap_or("");
    let (status, body) = if line.starts_with("GET /metrics") {
        let text = cordial_obs::export::to_prometheus(&cordial_obs::snapshot());
        ("200 OK", text)
    } else {
        ("404 Not Found", String::from("only /metrics is served\n"))
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordial::prelude::{
        generate_fleet_dataset, split_banks, CordialConfig, FleetDatasetConfig,
    };
    use cordial_mcelog::Timestamp;

    fn part(seq: u64) -> Part {
        Part {
            seq,
            events: Vec::new(),
        }
    }

    /// Two shards; batches 9, 19 and 29 each span both, 24 only shard 1.
    fn queues(durable_below: u64) -> Queues {
        Queues {
            shards: vec![
                [9, 19, 29].map(part).into(),
                [9, 19, 24, 29].map(part).into(),
            ],
            durable_below,
            syncing: false,
            refused: HashMap::new(),
        }
    }

    #[test]
    fn every_shard_gets_devices_of_the_small_fleet() {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 2025);
        let devices: std::collections::BTreeSet<DeviceId> = dataset
            .log
            .events()
            .iter()
            .map(|event| DeviceId::of(&event.addr.bank))
            .collect();
        for shards in [2, 3, 4, 8] {
            let mut per_shard = vec![0usize; shards];
            for &device in &devices {
                per_shard[shard_of(device, shards)] += 1;
            }
            assert!(
                per_shard.iter().all(|&n| n > 0),
                "{shards} shards: devices per shard {per_shard:?}"
            );
        }
    }

    #[test]
    fn workers_pop_only_parts_below_the_durable_watermark() {
        let mut q = queues(9);
        assert!(!q.ready(0) && !q.ready(1));
        q.durable_below = 10;
        assert!(q.ready(0) && q.ready(1));
        q.shards[0].pop_front();
        assert!(!q.ready(0), "batch 19 is not durable yet");
    }

    #[test]
    fn a_failed_fsync_pulls_exactly_the_batches_it_covered() {
        // Batch 9 is durable; the failed fsync covered 19 and 24.
        let mut q = queues(10);
        refuse_pending(&mut q, 24, "disk on fire");
        let left: Vec<Vec<u64>> = q
            .shards
            .iter()
            .map(|shard| shard.iter().map(|p| p.seq).collect())
            .collect();
        assert_eq!(left, vec![vec![9, 29], vec![9, 29]]);
        let mut refused: Vec<u64> = q.refused.keys().copied().collect();
        refused.sort_unstable();
        assert_eq!(refused, vec![19, 24]);
        assert_eq!(q.refused[&19], "disk on fire");
        // Without a handle nothing was synced: every pending batch goes.
        refuse_pending(&mut q, u64::MAX, "no handle");
        assert_eq!(q.shards[0].iter().map(|p| p.seq).collect::<Vec<_>>(), [9]);
        assert_eq!(q.refused.len(), 3);
    }

    /// A device whose ingest panics mid-replay restores from the store,
    /// which takes the store lock, while the journal reader may be blocked
    /// on that device's full shard queue. The journal here is longer than
    /// one shard keeps in flight, so a reader holding the lock across its
    /// sends would deadlock; the restore must finish, with the device
    /// riding its breaker and every other device fully replayed.
    #[test]
    fn a_device_panicking_mid_replay_rides_its_breaker_and_the_restore_finishes() {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 73);
        let split = split_banks(&dataset, 0.7, 73);
        let pipeline = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
        let events = dataset.log.events();
        let span_ms = events.iter().map(|e| e.time.as_millis()).max().unwrap_or(0) + 1;
        let journal: Vec<ErrorEvent> = (0..12u64)
            .flat_map(|pass| {
                events.iter().map(move |event| {
                    let mut event = *event;
                    event.time = Timestamp::from_millis(event.time.as_millis() + pass * span_ms);
                    event
                })
            })
            .collect();
        assert!(journal.len() > (RESTORE_QUEUE_PARTS + 2) * RESTORE_PART_EVENTS);

        let dir = std::env::temp_dir().join(format!("cordial-served-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        for batch in journal.chunks(1024) {
            store.append_events(batch).unwrap();
        }
        drop(store);

        let config = ServeConfig {
            shards: 1,
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let shared = Arc::new(Shared::open(pipeline, config).unwrap());
        let bad = DeviceId::of(&journal[0].addr.bank);
        lock(&shared.shards[0]).inject_panic_after(bad, 1);
        let (done, finished) = mpsc::channel();
        let restoring = Arc::clone(&shared);
        let restorer = thread::spawn(move || {
            let _ = done.send(restore_from_store(&restoring).map_err(|e| e.to_string()));
        });
        // A deadlocked restore never sends: give up on it instead of
        // joining it.
        let restored = finished
            .recv_timeout(Duration::from_secs(120))
            .expect("the journal restore must not deadlock");
        restorer.join().unwrap();
        assert_eq!(restored, Ok(()));

        let host = lock(&shared.shards[0]);
        let status = host.status(bad).unwrap();
        assert!(status.panics >= 1 && status.trips >= 1, "{status:?}");
        let others = journal
            .iter()
            .filter(|e| DeviceId::of(&e.addr.bank) != bad)
            .count();
        let replayed: usize = host
            .monitors()
            .filter(|(id, _)| *id != bad)
            .map(|(_, monitor)| monitor.stats().events)
            .sum();
        assert_eq!(replayed, others, "every other device replays in full");
        drop(host);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
