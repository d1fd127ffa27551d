//! The schema history of [`MonitorCheckpoint`] payloads.
//!
//! Each version step is a small pure JSON rewrite (`migrate_v0_v1`-style)
//! on the store's numbered [`MigrationRegistry`], registered once here.
//! [`MonitorCheckpoint`]'s own `Deserialize` runs every payload through
//! [`checkpoint_migrations`] before decoding, so every loader — the CLI's
//! `--resume`, the serving daemon and the fleet supervisor restoring from
//! the durable store — upgrades old checkpoints instead of erroring, with
//! no version handling of its own.
//!
//! Payloads from a *newer* release still fail, with the greppable
//! "unsupported future schema version" message of
//! [`MigrationError::FutureVersion`](cordial_store::MigrationError::FutureVersion).
//!
//! [`MonitorCheckpoint`]: crate::monitor::MonitorCheckpoint

use cordial_store::{migrate::set_version, Migration, MigrationRegistry};
use serde::Value;

use crate::monitor::CHECKPOINT_SCHEMA_VERSION;

/// The migration chain for
/// [`MonitorCheckpoint`](crate::monitor::MonitorCheckpoint) payloads, reaching
/// [`CHECKPOINT_SCHEMA_VERSION`].
///
/// Version history:
///
/// * **v0 → v1** (`migrate_v0_v1`): the pre-versioning era. Field layout
///   is already v1's; the step validates the required fields and stamps
///   `schema_version`.
pub fn checkpoint_migrations() -> MigrationRegistry {
    let mut registry = MigrationRegistry::new(u64::from(CHECKPOINT_SCHEMA_VERSION));
    registry.register(Migration {
        from: 0,
        name: "migrate_v0_v1",
        apply: migrate_v0_v1,
    });
    registry
}

/// v0 (pre-versioning) checkpoints carry the same fields as v1 minus the
/// version stamp; upgrading is validating the shape and adding the stamp.
fn migrate_v0_v1(mut value: Value) -> Result<Value, String> {
    for required in ["engine", "banks", "stats", "guard"] {
        if value.get(required).is_none() {
            return Err(format!(
                "pre-versioning checkpoint is missing its `{required}` field"
            ));
        }
    }
    set_version(&mut value, 1)?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CordialConfig;
    use crate::monitor::{CordialMonitor, MonitorCheckpoint};
    use crate::pipeline::Cordial;
    use crate::split::split_banks;
    use cordial_faultsim::{generate_fleet_dataset, FleetDatasetConfig, SparingBudget};
    use serde::{Deserialize, Serialize};

    fn sample_monitor() -> CordialMonitor {
        let dataset = generate_fleet_dataset(&FleetDatasetConfig::small(), 17);
        let split = split_banks(&dataset, 0.7, 17);
        let cordial = Cordial::fit(&dataset, &split.train, &CordialConfig::default())
            .expect("fit must succeed");
        let mut monitor = CordialMonitor::new(cordial, SparingBudget::typical());
        monitor.ingest_all(dataset.log.events().iter().copied());
        monitor
    }

    fn strip_version(value: Value) -> Value {
        match value {
            Value::Map(fields) => Value::Map(
                fields
                    .into_iter()
                    .filter(|(key, _)| key != "schema_version")
                    .collect(),
            ),
            other => other,
        }
    }

    #[test]
    fn v0_checkpoints_load_through_the_migration_chain() {
        let monitor = sample_monitor();
        let v0 = strip_version(monitor.checkpoint().to_value());
        assert_eq!(MigrationRegistry::version_of(&v0), Ok(0));

        let loaded = MonitorCheckpoint::from_value(&v0).expect("v0 must migrate");
        assert_eq!(
            MigrationRegistry::version_of(&loaded.to_value()),
            Ok(u64::from(CHECKPOINT_SCHEMA_VERSION))
        );

        // The migrated checkpoint restores to the same monitor state.
        let restored = CordialMonitor::restore(monitor.pipeline().clone(), loaded);
        assert_eq!(restored.stats(), monitor.stats());
    }

    #[test]
    fn current_checkpoints_round_trip_unchanged() {
        let monitor = sample_monitor();
        let json = serde_json::to_string(&monitor.checkpoint()).expect("serialize");
        let loaded: MonitorCheckpoint = serde_json::from_str(&json).expect("load");
        assert_eq!(serde_json::to_string(&loaded).expect("serialize"), json);
        let restored = CordialMonitor::restore(monitor.pipeline().clone(), loaded);
        assert_eq!(restored.stats(), monitor.stats());
    }

    #[test]
    fn future_versions_fail_with_the_greppable_error() {
        let mut value = Value::Map(Vec::new());
        set_version(&mut value, u64::from(CHECKPOINT_SCHEMA_VERSION) + 7).expect("set");
        let err = MonitorCheckpoint::from_value(&value).expect_err("future version must fail");
        assert!(
            err.to_string()
                .contains("unsupported future schema version"),
            "got: {err}"
        );
    }

    #[test]
    fn truncated_v0_payloads_name_the_missing_field() {
        let v0 = Value::Map(vec![("engine".to_string(), Value::Map(vec![]))]);
        let err = MonitorCheckpoint::from_value(&v0).expect_err("incomplete v0 must fail");
        assert!(err.to_string().contains("banks"), "got: {err}");
    }
}
