//! Typed model of the HBM device hierarchy used throughout the Cordial suite.
//!
//! High Bandwidth Memory (HBM) is organised as a deep hierarchy (paper §II-A):
//! a compute **node** hosts 8 **NPU**s; each NPU has two sockets for **HBM**
//! stacks; an HBM2E stack is built from eight DRAM dies (8Hi) grouped into two
//! **stack IDs** (SIDs); a die exposes 8 **channels**, each split into two
//! **pseudo-channels**; a pseudo-channel contains 4 **bank groups** of 4
//! **banks**; and a bank is a two-dimensional array of cells indexed by
//! **row** and **column**.
//!
//! This crate provides:
//!
//! * newtype identifiers for every level ([`NodeId`], [`NpuId`], [`HbmSocket`],
//!   [`StackId`], [`Channel`], [`PseudoChannel`], [`BankGroup`], [`BankIndex`],
//!   [`RowId`], [`ColId`]),
//! * composite addresses ([`BankAddress`], [`CellAddress`]) with parsing and
//!   display,
//! * the [`MicroLevel`] enum and [`UnitKey`] projection used by the paper's
//!   empirical study (Tables I and II),
//! * [`HbmGeometry`] describing and validating the coordinate space,
//! * [`FleetConfig`] describing the layout of a training cluster, and
//! * [`DeviceId`], the one name of an HBM device that the fleet host, the
//!   serving daemon, the store and the CLI all key by.
//!
//! # Example
//!
//! ```
//! use cordial_topology::{BankAddress, CellAddress, HbmGeometry, MicroLevel};
//!
//! let geom = HbmGeometry::hbm2e_8hi();
//! let bank: BankAddress = "node0/npu3/hbm1/sid0/ch4/pch1/bg2/bank3".parse()?;
//! assert!(geom.validate_bank(&bank).is_ok());
//!
//! let cell = CellAddress::new(bank, 12_345.into(), 87.into());
//! assert_eq!(
//!     cell.to_string(),
//!     "node0/npu3/hbm1/sid0/ch4/pch1/bg2/bank3/row12345/col87"
//! );
//!
//! // Project the cell onto the micro-level hierarchy of the paper's Tables I/II.
//! let npu_key = cell.project(MicroLevel::Npu);
//! let row_key = cell.project(MicroLevel::Row);
//! assert_ne!(npu_key, row_key);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod error;
mod fleet;
mod geometry;
mod level;

pub use address::{
    BankAddress, BankGroup, BankIndex, CellAddress, Channel, ColId, HbmSocket, NodeId, NpuId,
    PseudoChannel, RowId, StackId,
};
pub use error::{AddressParseError, GeometryError};
pub use fleet::{DeviceId, FleetConfig, NpuRef};
pub use geometry::HbmGeometry;
pub use level::{MicroLevel, UnitKey};
