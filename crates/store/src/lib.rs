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
//! 4. **Streaming replay with a sparse index** ([`Store::reader`],
//!    [`Store::replay`]) — one reader streams the journal a frame at a
//!    time without holding the store; per-segment time bounds plus
//!    in-segment seek points make `(device, time-range)` replay skip what
//!    it can prove irrelevant.
//! 5. **Compaction** ([`Store::compact`]) — events covered by their
//!    device's newest checkpoint and superseded checkpoints are
//!    rewritten away behind an atomic manifest swap.
//!
//! The serving daemon journals admitted batches here before
//! acknowledging them and checkpoints monitors into it on shutdown; the
//! fleet supervisor rebuilds evicted monitors from it; the CLI exposes
//! `store inspect`, `store replay` and `store compact`.
//!
//! # Example
//!
//! ```
//! use cordial_store::{DeviceKey, ReplayFilter, Store, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
//! let device = DeviceKey { node: 0, npu: 0, hbm: 0 };
//! store.append_checkpoint(device, 0, "{\"schema_version\":1}").unwrap();
//! assert_eq!(store.latest_checkpoints().unwrap().len(), 1);
//! assert_eq!(store.replay(&ReplayFilter::default()).unwrap().len(), 1);
//! drop(store);
//! let _ = std::fs::remove_dir_all(&dir);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod crc;
pub mod error;
pub mod reader;
pub mod record;
pub(crate) mod segment;
pub mod store;

pub use crc::crc32;
pub use error::StoreError;
pub use reader::JournalReader;
pub use record::{
    decode_event_record, encode_event_record, DeviceKey, Record, RecordError, EVENT_WIRE_LEN,
};
pub use store::{
    CheckpointRecord, CompactReport, FsyncPolicy, RecoveryReport, ReplayFilter, SegmentReport,
    Store, StoreConfig, StoreReport, SyncHandle, MANIFEST_NAME,
};
