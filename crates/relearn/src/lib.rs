//! **cordial-relearn** — continuous online learning for Cordial.
//!
//! Production error distributions drift over months ("DRAM Failure
//! Prediction in AIOps", arXiv 2104.15052; "First CE Matters", arXiv
//! 2212.10441), so a predictor trained once silently decays no matter
//! how well the serving layer survives crashes and chaos. This crate
//! closes the loop from telemetry back to training:
//!
//! 1. **Sliding training window** ([`TrainingWindow`]) — the stream of
//!    accepted events, bounded by stream-time span and event count, and
//!    rebuildable from a `cordial-store` journal so a killed supervisor
//!    resumes retraining with zero acked events lost.
//! 2. **Hindsight labels** ([`labels::synthesize_truth`]) — ground truth
//!    for retraining does not exist online; the observed UER row
//!    geometry of each bank is clustered into the paper's coarse
//!    pattern classes, which is exactly the label granularity the
//!    training pipeline consumes (`BankTruth::kind().coarse()`).
//! 3. **Refit jobs** ([`RefitJob`], [`run_refit`]) — a snapshot of the
//!    window becomes a cold [`cordial::pipeline::Cordial::fit`], run
//!    inline at the supervisor's sweep point under panic containment: a
//!    panicking or failing refit is contained and reported, never
//!    propagated. The refit blocks the `route` call that triggers it
//!    (about 0.5–0.7 s at small and medium scale on a 2-core VM).
//! 4. **Drift-aware scheduling** ([`RefitScheduler`]) — scheduled refits
//!    on an accepted-event cadence, escalated to immediate when the
//!    monitors' pattern-mix / lead-time watchdogs raise fresh alerts,
//!    with seeded jittered backoff after failures.
//!
//! The fleet supervisor (`cordial-fleet`) owns the other half of the
//! loop: it feeds the window, runs due refits at its sweep points and
//! routes every candidate through the promotion gate with the
//! live-precision canary — a refit can only ever improve the serving
//! model or be rejected, never degrade it.
//!
//! Determinism contract: nothing here reads the wall clock. Scheduling
//! runs on accepted-event counts and jitter on seeded RNG streams, so
//! identical streams produce identical refits, promotions and telemetry
//! at every thread count.

#![warn(missing_docs)]

pub mod labels;
pub mod policy;
pub mod window;
pub mod worker;

pub use policy::{RefitScheduler, RelearnConfig};
pub use window::TrainingWindow;
pub use worker::{build_job, run_refit, RefitCompletion, RefitJob};
