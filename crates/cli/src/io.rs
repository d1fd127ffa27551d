//! File formats of the CLI: the textual MCE log and the JSON sidecars
//! (ground truth, trained pipeline).

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use cordial::pipeline::Cordial;
use cordial_faultsim::{BankTruth, FleetDataset};
use cordial_mcelog::{MceLog, MceRecord};

/// JSON sidecar carrying per-bank ground truth.
///
/// Stored as a list (JSON object keys must be strings, and
/// [`BankAddress`](cordial_topology::BankAddress) keys are structured);
/// each [`BankTruth`] already embeds its bank address via the fault plan.
#[derive(Debug, Serialize, Deserialize)]
pub struct TruthFile {
    /// Ground truth for every UER bank.
    pub banks: Vec<BankTruth>,
}

impl TruthFile {
    /// Captures a dataset's ground truth.
    pub fn from_dataset(dataset: &FleetDataset) -> Self {
        Self {
            banks: dataset.truth.values().cloned().collect(),
        }
    }

    /// Rebuilds the per-bank map.
    pub fn into_map(self) -> BTreeMap<cordial_topology::BankAddress, BankTruth> {
        self.banks
            .into_iter()
            .map(|truth| (truth.plan.bank, truth))
            .collect()
    }
}

/// Writes a log in the textual MCE format.
pub fn write_log(path: &Path, log: &MceLog) -> Result<(), String> {
    fs::write(path, MceRecord::format_log(log.events()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads a textual MCE log, rejecting the whole file on the first
/// malformed line (reported as `path:line`).
pub fn read_log(path: &Path) -> Result<MceLog, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let events = MceRecord::parse_log(&text).map_err(|e| match e.line() {
        Some(line) => format!("{}:{line}: malformed MCE log: {e}", path.display()),
        None => format!("{}: malformed MCE log: {e}", path.display()),
    })?;
    Ok(MceLog::from_events(events))
}

/// Reads a textual MCE log **lossily**: malformed lines are returned as
/// `path:line`-prefixed warnings instead of failing the read, and every
/// well-formed line is recovered.
pub fn read_log_lossy(path: &Path) -> Result<(MceLog, Vec<String>), String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let (events, errors) = MceRecord::parse_log_lossy(&text);
    let warnings = errors
        .into_iter()
        .map(|e| match e.line() {
            Some(line) => format!("{}:{line}: {e}", path.display()),
            None => format!("{}: {e}", path.display()),
        })
        .collect();
    Ok((MceLog::from_events(events), warnings))
}

/// Writes a JSON value.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let text = serde_json::to_string(value).map_err(|e| format!("serialisation failed: {e}"))?;
    fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads a JSON value.
pub fn read_json<T: for<'de> Deserialize<'de>>(path: &Path) -> Result<T, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: cannot decode: {e}", path.display()))
}

/// Writes a JSON value **atomically and durably**: the bytes stage
/// through a sibling temporary file, are fsynced, renamed into place,
/// and the parent directory is fsynced ([`cordial_obs::fsio::durable_write`]),
/// so neither a crash mid-write nor a power loss after the rename can
/// leave a truncated file at `path`. This is what makes `--checkpoint`
/// files safe to resume from.
pub fn write_json_atomic<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let text = serde_json::to_string(value).map_err(|e| format!("serialisation failed: {e}"))?;
    cordial_obs::fsio::durable_write(path, text.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// On-disk checkpoint of a monitoring session: the (immutable) trained
/// pipeline plus the monitor's mutable state, so `--resume` needs exactly
/// one file. Always written via [`write_json_atomic`]; read back with
/// [`read_json`], where the monitor state passes the same schema-version
/// gate as store checkpoints, run by
/// [`MonitorCheckpoint`](cordial::monitor::MonitorCheckpoint)'s own
/// deserializer: older state loads, newer state is refused.
#[derive(Debug, Serialize, Deserialize)]
pub struct CheckpointFile {
    /// The trained pipeline the monitor was running.
    pub pipeline: Cordial,
    /// The monitor's mutable state (engine, histories, stats, guard).
    pub state: cordial::monitor::MonitorCheckpoint,
}

/// Reads a trained pipeline.
pub fn read_pipeline(path: &Path) -> Result<Cordial, String> {
    read_json(path)
}

/// Whether a metrics path selects the JSON format (by `.json` extension);
/// anything else gets Prometheus text exposition.
fn metrics_format_is_json(path: &Path) -> bool {
    path.extension().is_some_and(|ext| ext == "json")
}

/// Writes a metrics snapshot, choosing the format from the extension.
pub fn write_metrics(path: &Path, snapshot: &cordial_obs::Snapshot) -> Result<(), String> {
    let text = if metrics_format_is_json(path) {
        cordial_obs::export::to_json(snapshot)?
    } else {
        cordial_obs::export::to_prometheus(snapshot)
    };
    fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads a metrics snapshot written by [`write_metrics`].
pub fn read_metrics(path: &Path) -> Result<cordial_obs::Snapshot, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if metrics_format_is_json(path) {
        cordial_obs::export::from_json(&text)
    } else {
        cordial_obs::export::parse_prometheus(&text)
    }
    .map_err(|e| format!("{}: {e}", path.display()))
}

/// Assembles a dataset from a log and its truth sidecar.
pub fn assemble_dataset(log: MceLog, truth: TruthFile) -> FleetDataset {
    FleetDataset {
        log,
        truth: truth.into_map(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("cordial-cli-test-{}-{name}", std::process::id()));
        path
    }

    #[test]
    fn log_file_round_trips() {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 4);
        let path = temp_path("log.mce");
        write_log(&path, &dataset.log).unwrap();
        let reloaded = read_log(&path).unwrap();
        assert_eq!(reloaded, dataset.log);
        let _ = fs::remove_file(path);
    }

    #[test]
    fn truth_file_round_trips_and_rebuilds_map() {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 4);
        let path = temp_path("truth.json");
        write_json(&path, &TruthFile::from_dataset(&dataset)).unwrap();
        let truth: TruthFile = read_json(&path).unwrap();
        let map = truth.into_map();
        assert_eq!(map.len(), dataset.truth.len());
        for (bank, original) in &dataset.truth {
            assert_eq!(&map[bank], original);
        }
        let _ = fs::remove_file(path);
    }

    #[test]
    fn missing_files_yield_errors() {
        assert!(read_log(std::path::Path::new("/nonexistent/x.mce")).is_err());
        assert!(read_json::<TruthFile>(std::path::Path::new("/nonexistent/x.json")).is_err());
    }

    #[test]
    fn metrics_files_round_trip_in_both_formats() {
        cordial_obs::set_enabled(true);
        cordial_obs::global()
            .counter("cli.io_roundtrip_test")
            .add(3);
        let snapshot = cordial_obs::snapshot();

        // JSON keeps the internal dotted names; Prometheus exposition
        // parses back with the sanitized `cordial_*` family names.
        let json_path = temp_path("metrics.json");
        write_metrics(&json_path, &snapshot).unwrap();
        assert_eq!(read_metrics(&json_path).unwrap(), snapshot);
        let _ = fs::remove_file(json_path);

        let prom_path = temp_path("metrics.prom");
        write_metrics(&prom_path, &snapshot).unwrap();
        assert_eq!(read_metrics(&prom_path).unwrap(), snapshot.sanitized());
        let _ = fs::remove_file(prom_path);
    }

    #[test]
    fn resume_checkpoints_load_migration_aware() {
        use cordial::monitor::{CordialMonitor, CHECKPOINT_SCHEMA_VERSION};
        use cordial::pipeline::Cordial;
        use cordial::split::split_banks;
        use cordial::CordialConfig;
        use cordial_faultsim::SparingBudget;
        use serde::Value;

        /// The file's JSON tree with the state's `schema_version` replaced
        /// by `version`, or removed when `version` is `None`.
        fn with_state_version(file: &Value, version: Option<u64>) -> Value {
            let Value::Map(fields) = file.clone() else {
                panic!("checkpoint files are JSON objects");
            };
            let fields = fields
                .into_iter()
                .map(|(key, sub)| match sub {
                    Value::Map(state) if key == "state" => {
                        let mut state: Vec<_> = state
                            .into_iter()
                            .filter(|(field, _)| field != "schema_version")
                            .collect();
                        if let Some(version) = version {
                            state.insert(0, ("schema_version".to_string(), Value::U64(version)));
                        }
                        (key, Value::Map(state))
                    }
                    other => (key, other),
                })
                .collect();
            Value::Map(fields)
        }

        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 9);
        let split = split_banks(&dataset, 0.7, 9);
        let pipeline = Cordial::fit(&dataset, &split.train, &CordialConfig::default()).unwrap();
        let mut monitor = CordialMonitor::new(pipeline.clone(), SparingBudget::typical());
        monitor.ingest_all(dataset.log.events().iter().copied());
        let path = temp_path("resume.json");
        write_json_atomic(
            &path,
            &CheckpointFile {
                pipeline,
                state: monitor.checkpoint(),
            },
        )
        .unwrap();

        /// Loads a `--resume` file and restores its monitor.
        fn resume(path: &Path) -> Result<CordialMonitor, String> {
            let file: CheckpointFile = read_json(path)?;
            Ok(CordialMonitor::restore(file.pipeline, file.state))
        }

        // A current-version file loads as-is.
        assert_eq!(resume(&path).unwrap().stats(), monitor.stats());

        let value = serde_json::parse_value_str(&fs::read_to_string(&path).unwrap()).unwrap();

        // A pre-versioning (v0) file — no `schema_version` in the state —
        // loads too.
        let v0 = with_state_version(&value, None);
        let v0_path = temp_path("resume-v0.json");
        fs::write(&v0_path, serde_json::to_string(&v0).unwrap()).unwrap();
        assert_eq!(resume(&v0_path).unwrap().stats(), monitor.stats());

        // A file from a future release fails with the greppable error.
        let future = with_state_version(&value, Some(u64::from(CHECKPOINT_SCHEMA_VERSION) + 9));
        let future_path = temp_path("resume-future.json");
        fs::write(&future_path, serde_json::to_string(&future).unwrap()).unwrap();
        let err = resume(&future_path).unwrap_err();
        assert!(
            err.contains("unsupported future schema version"),
            "got: {err}"
        );

        for p in [path, v0_path, future_path] {
            let _ = fs::remove_file(p);
        }
    }

    #[test]
    fn malformed_json_yields_error() {
        let path = temp_path("bad.json");
        fs::write(&path, "{not json").unwrap();
        assert!(read_json::<TruthFile>(&path).is_err());
        let _ = fs::remove_file(path);
    }
}
