//! Shared fixtures for the `perf` criterion bench.
//!
//! `benches/perf.rs` times the performance layers against their reference
//! twins: parallel training, batch planning and the serving hot path. Its
//! hot-path and flight-recorder pairs are committed as the `BENCH_*.json`
//! files at the workspace root and gated by `tests/bench_schema.rs`. The
//! paper's tables and figures are regenerated by `cordial-experiments`,
//! and the serving daemon and the durable store are measured end to end,
//! journaling on, by `bash benchmark/run.sh`.

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
