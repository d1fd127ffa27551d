//! HBM fault-injection and error simulator.
//!
//! The paper evaluates Cordial on a proprietary industrial dataset — MCE logs
//! from >80,000 HBMs serving LLM training. That data cannot be redistributed,
//! so this crate implements the closest synthetic equivalent: a generative
//! simulator whose *output schema* is exactly the production log
//! ([`ErrorEvent`](cordial_mcelog::ErrorEvent) streams) and whose
//! *distributions* are calibrated to everything the paper reports about the
//! fleet:
//!
//! * bank-level failure-pattern mix (Fig. 3(b): single-row clustering 68.2%,
//!   double-row 9.9%, scattered 12.5%, whole-column 7.3%, half total-row
//!   2.1%) — [`patterns`],
//! * sudden vs. non-sudden UER onset per micro-level (Table I; ~96% of row
//!   UERs appear with no in-row precursor) — [`plan`],
//! * cross-row locality of successive UERs in aggregation banks, with the
//!   chi-square sweep peaking near a 128-row threshold (Fig. 4) — the
//!   locality kernel in [`plan`],
//! * per-level populations of CE/UEO/UER units shaped like Table II —
//!   [`dataset`].
//!
//! Physical realism enters through the fault taxonomy ([`fault`]) — SWD
//! malfunctions, TSV/micro-bump defects, row/column driver faults, weak
//! cells — the symbol-ECC classification model ([`ecc`]), and the patrol
//! scrubber ([`scrub`]) that together decide *when* a latent fault becomes a
//! visible CE, UEO or UER. Row/bank sparing mechanics live in [`sparing`].
//!
//! # Example
//!
//! ```
//! use cordial_faultsim::{FleetDatasetConfig, generate_fleet_dataset};
//!
//! let config = FleetDatasetConfig::small();
//! let dataset = generate_fleet_dataset(&config, 7);
//! assert!(!dataset.log.is_empty());
//! assert_eq!(dataset.truth.len(), config.n_uer_banks as usize);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod ecc;
pub mod fault;
pub mod patterns;
pub mod plan;
pub mod scrub;
pub mod sparing;
pub mod workload;

pub use dataset::{generate_fleet_dataset, BankTruth, FleetDataset, FleetDatasetConfig};
pub use ecc::{DetectionPath, EccCode, RawIncident};
pub use fault::FaultKind;
pub use patterns::{
    CoarsePattern, GrowthDirection, LocalityKernel, PatternKind, PatternLayout, PatternMix,
};
pub use plan::{BankFaultPlan, PlanConfig};
pub use scrub::PatrolScrubber;
pub use sparing::{IsolationEngine, IsolationSnapshot, SparingBudget, SparingOutcome};
pub use workload::WorkloadModel;
