//! **cordial-store** — the suite's embedded, crash-safe, append-only
//! event and checkpoint store.
//!
//! AIOps failure predictors are only as trustworthy as their restart
//! story: a serving daemon that acknowledges a batch and then loses it
//! in a crash silently skews every window feature it later computes.
//! This crate gives the suite one durable substrate, built only on the
//! standard library and the vendored offline deps (see DESIGN.md
//! "Offline builds"):
//!
//! 1. **Segment files of CRC-framed records** (`segment.rs`) — a fixed,
//!    checksummed header plus length+CRC-framed record frames; the
//!    record payloads ([`record`]) reuse the serving daemon's fixed
//!    26-byte event layout bit-for-bit, so a journaled batch is
//!    identical to the batch that arrived on the wire, and one frame
//!    holds a whole batch.
//! 2. **WAL-style appends** ([`Store::append_events`],
//!    [`Store::append_checkpoint`]) with a configurable
//!    [`FsyncPolicy`] (`Always` / `Batch(n)` / `Never`) — the
//!    journal-before-ack discipline the daemon needs — plus a
//!    [`SyncHandle`] that fsyncs outside the store's lock, for group
//!    commit.
//! 3. **Torn-write recovery** ([`Store::open`]) — the tail is scanned,
//!    the first torn or corrupt frame truncated (a torn batch goes
//!    whole), later segments dropped, and appending resumes; damage is a
//!    [`RecoveryReport`], not an error.
//! 4. **Streaming replay** ([`Store::reader`], [`Store::replay`]) — one
//!    reader streams the journal a frame at a time, front to back, without
//!    holding the store, and yields the per-event records a
//!    [`ReplayFilter`] keeps.
//! 5. **Compaction** ([`Store::compact`]) — events covered by their
//!    device's newest checkpoint and superseded checkpoints are
//!    rewritten away behind an atomic manifest swap.
//!
//! Records are filed under [`cordial_topology::DeviceId`], the same
//! device name the fleet host and the serving daemon key their monitors
//! by, so no caller converts between device types. The serving daemon
//! journals admitted batches here before acknowledging them and
//! checkpoints monitors into it on shutdown; the fleet supervisor
//! rebuilds evicted monitors from it; the CLI exposes `store inspect`,
//! `store replay` and `store compact`.
//!
//! # Example
//!
//! ```
//! use cordial_store::{ReplayFilter, Store, StoreConfig};
//! use cordial_topology::{BankAddress, DeviceId};
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
//! let device = DeviceId::of(&BankAddress::default());
//! store.append_checkpoint(device, 0, "{\"schema_version\":1}").unwrap();
//! assert_eq!(store.latest_checkpoints().unwrap().len(), 1);
//! assert_eq!(store.replay(&ReplayFilter::default()).unwrap().len(), 1);
//! drop(store);
//! let _ = std::fs::remove_dir_all(&dir);
//! ```

#![deny(unsafe_code)] // allowed back on, narrowly, in `crc::clmul::crc32`
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod crc;
pub mod error;
pub mod reader;
pub mod record;
pub(crate) mod segment;
pub mod store;

pub use crc::{crc32, crc32_portable};
pub use error::StoreError;
pub use reader::JournalReader;
pub use record::{decode_event_record, encode_event_record, Record, RecordError, EVENT_WIRE_LEN};
pub use store::{
    CheckpointRecord, CompactReport, FsyncPolicy, RecoveryReport, ReplayFilter, SegmentReport,
    Store, StoreConfig, StoreReport, SyncHandle, MANIFEST_NAME,
};
