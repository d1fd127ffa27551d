//! **Cordial** — cross-row HBM failure prediction based on bank-level error
//! locality (DSN-S 2025).
//!
//! Existing HBM failure predictors are *in-row*: they forecast a row's UERs
//! from that row's own error history. In the fleet the paper studies, ~96%
//! of row-level UERs are *sudden* (no in-row precursor), so in-row methods
//! cap out at a 4.39% predictable ratio. Cordial flips the paradigm to
//! *cross-row* prediction: it uses the whole bank's error history to predict
//! UERs in **neighbouring rows** of the observed failures.
//!
//! The pipeline (paper Fig. 5) has three stages, all implemented here:
//!
//! 1. **Failure-pattern feature extraction** ([`features`]) — spatial,
//!    temporal and count features from all CEs/UEOs plus the first three
//!    UERs of a bank (§IV-B);
//! 2. **Failure-pattern classification** ([`classifier`]) — a tree-ensemble
//!    model ([`ModelKind`]: random forest / XGBoost-style / LightGBM-style)
//!    assigns one of three classes: double-row clustering, single-row
//!    clustering, or scattered (§IV-C);
//! 3. **Cross-row failure prediction** ([`crossrow`]) — for aggregation
//!    patterns, per-pattern binary models predict which of the 16
//!    eight-row blocks within ±64 rows of the last UER row will fail
//!    (§IV-D); scattered banks are bank-spared directly.
//!
//! [`pipeline::Cordial`] glues the stages into a deployable predictor that
//! emits [`pipeline::MitigationPlan`]s; [`isolation`] scores plans with the
//! paper's Isolation Coverage Rate; [`baseline`] provides the industrial
//! neighbor-rows baseline and the in-row ceiling; [`locality`] reproduces
//! the Fig. 4 chi-square locality sweep; [`empirical`] reproduces the
//! empirical-study Tables I/II and Fig. 3(b).
//!
//! # Quickstart
//!
//! ```
//! use cordial::prelude::*;
//!
//! // 1. A synthetic fleet (stands in for the proprietary industrial logs).
//! let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 7);
//!
//! // 2. Split banks 7:3 and train the full pipeline.
//! let split = split_banks(&dataset, 0.7, 7);
//! let config = CordialConfig::default();
//! let cordial = Cordial::fit(&dataset, &split.train, &config)?;
//!
//! // 3. Plan mitigations for a test bank.
//! let by_bank = dataset.log.by_bank();
//! let history = &by_bank[&split.test[0]];
//! let plan = cordial.plan(history);
//! println!("{plan:?}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Prediction-path code must degrade, not panic: unwraps are confined to
// tests (`clippy.toml` sets `allow-unwrap-in-tests`).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod baseline;
mod checkpoint;
pub mod classifier;
pub mod config;
pub mod crossrow;
pub mod empirical;
mod error;
pub mod eval;
pub mod features;
pub mod hierarchical;
pub mod incremental;
pub mod isolation;
pub mod locality;
pub mod model;
pub mod monitor;
pub mod pipeline;
pub mod split;

pub use config::CordialConfig;
pub use error::CordialError;
pub use model::{ModelKind, TrainedModel};

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::baseline::{InRowPredictor, NeighborRowsBaseline};
    pub use crate::classifier::PatternClassifier;
    pub use crate::config::CordialConfig;
    pub use crate::crossrow::{BlockSpec, CrossRowPredictor};
    pub use crate::eval::{
        evaluate_cordial, evaluate_neighbor_rows, evaluate_pipeline, PredictionEval,
    };
    pub use crate::incremental::IncrementalBankFeatures;
    pub use crate::isolation::icr;
    pub use crate::model::{ModelKind, TrainedModel};
    pub use crate::monitor::{
        CordialMonitor, GuardConfig, IngestOutcome, MonitorCheckpoint, MonitorStats, RejectReason,
        CHECKPOINT_SCHEMA_VERSION,
    };
    pub use crate::pipeline::{Cordial, MitigationPlan};
    pub use crate::split::{split_banks, BankSplit};
    pub use cordial_faultsim::{
        generate_fleet_dataset, CoarsePattern, FleetDataset, FleetDatasetConfig, PatternKind,
        SparingBudget,
    };
    pub use cordial_mcelog::{ErrorEvent, ErrorType, MceLog, Timestamp};
    pub use cordial_topology::{BankAddress, HbmGeometry, MicroLevel, RowId};
    pub use cordial_trees::Classifier;
}
