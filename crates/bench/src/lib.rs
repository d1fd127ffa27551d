//! Shared fixtures for the Cordial benchmark suite.
//!
//! The benchmarks regenerate scaled-down kernels of every table and figure
//! in the paper (`benches/tables.rs`, `benches/figures.rs`), measure the
//! component costs a deployment cares about (`benches/components.rs`),
//! sweep the design choices called out in DESIGN.md
//! (`benches/ablations.rs`), and time the performance layers against
//! their reference twins: parallel training and the serving hot path
//! (`benches/perf.rs`). `perf` commits its medians as the `BENCH_*.json`
//! files at the workspace root. The serving daemon and the durable store
//! are measured end to end, journaling on, by `bash benchmark/run.sh`.

use cordial::split::{split_banks, BankSplit};
use cordial_faultsim::{generate_fleet_dataset, FleetDataset, FleetDatasetConfig};

/// Seed used by every benchmark fixture (stable measurements).
pub const BENCH_SEED: u64 = 99;

/// The benchmark dataset: the `small` fleet, generated once per process.
pub fn bench_dataset() -> FleetDataset {
    generate_fleet_dataset(&FleetDatasetConfig::small(), BENCH_SEED)
}

/// The benchmark train/test split (70:30, stratified).
pub fn bench_split(dataset: &FleetDataset) -> BankSplit {
    split_banks(dataset, 0.7, BENCH_SEED)
}
