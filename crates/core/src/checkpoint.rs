//! The schema-version gate of [`MonitorCheckpoint`] payloads.
//!
//! [`MonitorCheckpoint`]'s own `Deserialize` runs [`check_schema_version`]
//! on every payload before decoding it, so every loader — the CLI's
//! `--resume`, the serving daemon and the fleet supervisor restoring from
//! the durable store — loads older checkpoints and refuses newer ones with
//! no version handling of its own.
//!
//! [`MonitorCheckpoint`]: crate::monitor::MonitorCheckpoint

use serde::{Error, Value};

use crate::monitor::CHECKPOINT_SCHEMA_VERSION;

/// Checks that a [`MonitorCheckpoint`](crate::monitor::MonitorCheckpoint)
/// payload is in a layout this build decodes, without copying it.
///
/// The version lives in the payload's top-level `schema_version` field; a
/// payload without one is version 0. Version history:
///
/// * **v0**: the pre-versioning era. Its layout is already v1's minus the
///   stamp, so the gate only checks that the top-level fields are present
///   and the payload then decodes as v1.
/// * **v1** ([`CHECKPOINT_SCHEMA_VERSION`]): the current layout.
///
/// A layout change bumps [`CHECKPOINT_SCHEMA_VERSION`] and adds one arm
/// here.
///
/// # Errors
///
/// When the payload is not a JSON object, when its `schema_version` is not
/// a non-negative integer, when a v0 payload misses a top-level field, and
/// with "unsupported future schema version" when the version is newer than
/// [`CHECKPOINT_SCHEMA_VERSION`].
pub(crate) fn check_schema_version(payload: &Value) -> Result<(), Error> {
    let Value::Map(_) = payload else {
        return Err(Error::custom(
            "checkpoint payload is not a JSON object, cannot carry a schema version",
        ));
    };
    let version = match payload.get("schema_version") {
        None => 0,
        Some(Value::U64(v)) => *v,
        Some(Value::I64(v)) if *v >= 0 => v.unsigned_abs(),
        Some(other) => {
            return Err(Error::custom(format!(
                "checkpoint schema_version must be a non-negative integer, got {other:?}"
            )))
        }
    };
    let supported = u64::from(CHECKPOINT_SCHEMA_VERSION);
    match version {
        0 => {
            for required in ["engine", "banks", "stats", "guard"] {
                if payload.get(required).is_none() {
                    return Err(Error::custom(format!(
                        "pre-versioning checkpoint is missing its `{required}` field"
                    )));
                }
            }
            Ok(())
        }
        found if found > supported => Err(Error::custom(format!(
            "unsupported future schema version {found} (this build supports up to {supported})"
        ))),
        _ => Ok(()),
    }
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

    /// The payload with its `schema_version` entry replaced by `version`,
    /// or removed when `version` is `None`.
    fn with_version(payload: Value, version: Option<Value>) -> Value {
        let Value::Map(fields) = payload else {
            panic!("checkpoint payloads are maps");
        };
        let mut fields: Vec<_> = fields
            .into_iter()
            .filter(|(key, _)| key != "schema_version")
            .collect();
        if let Some(version) = version {
            fields.insert(0, ("schema_version".to_string(), version));
        }
        Value::Map(fields)
    }

    #[test]
    fn v0_checkpoints_load_through_the_migration_chain() {
        let monitor = sample_monitor();
        let v0 = with_version(monitor.checkpoint().to_value(), None);
        assert_eq!(v0.get("schema_version"), None);

        let loaded = MonitorCheckpoint::from_value(&v0).expect("v0 must load");
        assert_eq!(
            loaded.to_value().get("schema_version"),
            Some(&Value::U64(u64::from(CHECKPOINT_SCHEMA_VERSION)))
        );

        // The loaded checkpoint restores to the same monitor state.
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
        let current = sample_monitor().checkpoint().to_value();
        // Control: the untouched payload loads, so each refusal below is
        // down to the one edit.
        MonitorCheckpoint::from_value(&current).expect("current payload must load");

        let future = u64::from(CHECKPOINT_SCHEMA_VERSION) + 7;
        let not_an_integer = "must be a non-negative integer";
        let cases = [
            (
                "a JSON array",
                Value::Seq(vec![current.clone()]),
                "not a JSON object",
            ),
            (
                "a string",
                Value::Str("checkpoint".to_string()),
                "not a JSON object",
            ),
            (
                "a string version",
                with_version(current.clone(), Some(Value::Str("1".to_string()))),
                not_an_integer,
            ),
            (
                "a negative version",
                with_version(current.clone(), Some(Value::I64(-1))),
                not_an_integer,
            ),
            (
                "a future version",
                with_version(current, Some(Value::U64(future))),
                "unsupported future schema version",
            ),
        ];
        for (what, payload, expected) in &cases {
            let err = MonitorCheckpoint::from_value(payload)
                .expect_err(&format!("{what} must be refused"));
            assert!(err.to_string().contains(expected), "{what}: got {err}");
        }
    }

    #[test]
    fn truncated_v0_payloads_name_the_missing_field() {
        let v0 = Value::Map(vec![("engine".to_string(), Value::Map(vec![]))]);
        let err = MonitorCheckpoint::from_value(&v0).expect_err("incomplete v0 must fail");
        assert!(err.to_string().contains("banks"), "got: {err}");
    }
}
