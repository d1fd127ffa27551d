//! BMC/MCE error-log substrate for the Cordial suite.
//!
//! Production platforms surface HBM errors through the baseboard management
//! controller (BMC) as machine-check-exception (MCE) records carrying the
//! error address, timestamp and severity (paper §V-A). This crate models
//! that pipeline end-to-end:
//!
//! * [`ErrorEvent`] / [`ErrorType`] — the universal event currency
//!   (CE / UEO / UER, per §II-B),
//! * [`MceRecord`] — a textual log-line format with parse/format round-trip,
//! * [`MceLog`] — a time-ordered event store with per-bank views
//!   ([`BankErrorHistory`]) and the "first *k* UERs" observation cut that
//!   Cordial's classifier consumes,
//! * [`rollup`] — per-[`MicroLevel`](cordial_topology::MicroLevel) population
//!   counts (Table II), and
//! * [`sudden`] — sudden vs. non-sudden UER analysis (Table I).
//!
//! # Example
//!
//! ```
//! use cordial_mcelog::{ErrorEvent, ErrorType, MceLog, Timestamp};
//! use cordial_topology::{BankAddress, RowId, ColId};
//!
//! let bank: BankAddress = "node0/npu0/hbm0/sid0/ch0/pch0/bg0/bank0".parse()?;
//! let mut log = MceLog::new();
//! log.push(ErrorEvent::new(
//!     bank.cell(RowId(100), ColId(5)),
//!     Timestamp::from_millis(10),
//!     ErrorType::Ce,
//! ));
//! log.push(ErrorEvent::new(
//!     bank.cell(RowId(101), ColId(5)),
//!     Timestamp::from_millis(20),
//!     ErrorType::Uer,
//! ));
//! let history = log.bank_history(&bank).expect("bank has events");
//! assert_eq!(history.uer_rows(), vec![RowId(101)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Ingestion code must degrade, not panic: unwraps are confined to tests
// (`clippy.toml` sets `allow-unwrap-in-tests`).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod burst;
mod event;
mod log;
mod record;
pub mod rollup;
pub mod sudden;

pub use event::{ErrorEvent, ErrorType, Timestamp};
pub use log::{BankErrorHistory, MceLog, ObservedWindow};
pub use record::{MceRecord, RecordParseError};
