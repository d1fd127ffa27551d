//! **cordial-served** — a long-running serving daemon for Cordial
//! monitors, with a versioned binary wire protocol and a thin client.
//!
//! The rest of the workspace evaluates Cordial as a library: a process
//! builds a monitor, replays a dataset, reads the stats. This crate is
//! the deployment shape the paper's fleet actually needs — one resident
//! daemon per collection point that accepts error-event batches from many
//! producers, routes them to per-device [`CordialMonitor`]s sharded
//! across worker threads (each shard runs one `cordial_fleet::DeviceHost`,
//! so a panicking monitor trips only its own device's breaker), answers
//! stats/health/plan queries, exposes the
//! cordial-obs registry at an HTTP `/metrics` endpoint, and survives
//! restarts through its durable store: every admitted batch is journaled
//! before its ack (under `--fsync always`, after a group-commit fsync
//! that may cover several connections' batches), and graceful shutdown
//! checkpoints every monitor into the same store.
//!
//! Three layers, smallest surface first:
//!
//! * [`codec`] — the pure wire format: framing, CRC, event records.
//!   No I/O, so cordial-chaos can fuzz it byte-by-byte.
//! * [`server`] — the daemon: sharded bounded queues with explicit
//!   backpressure ([`codec::Frame::RetryAfter`]), per-connection decode
//!   circuit breakers, per-shard device hosts, store-backed journal
//!   replay, `/metrics`.
//! * [`client`] — the blocking client and the load generator behind
//!   `cordial-cli load`. The daemon's throughput is measured from
//!   outside, journaling on, by `bash benchmark/run.sh`.
//!
//! Everything is hand-rolled on `std` TCP: the workspace builds offline,
//! and the protocol is small enough that a runtime would cost more than
//! it saves.
//!
//! [`CordialMonitor`]: cordial::monitor::CordialMonitor

#![deny(unsafe_code)] // allowed back on, narrowly, in `signal::imp`
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
pub mod codec;
pub mod server;
pub mod signal;

pub use client::{run_load, Client, LoadReport};
pub use codec::{decode_frame, encode_frame, DecodeError, Decoded, Frame};
pub use server::{HealthReport, PlanRecord, ServeConfig, ServedStats, Server, ShutdownReport};
