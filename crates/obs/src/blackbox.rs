//! Post-mortem black-box dumps: when something goes wrong (a contained
//! panic, a circuit breaker opening), snapshot the flight recorder's
//! buffered tail plus a full metrics snapshot to a crash-dump file.
//!
//! Dumps are opt-in: nothing is written until [`set_dump_dir`] points at a
//! directory. Every [`trigger`] records a `blackbox` instant in the
//! recorder regardless, so even without a dump directory the timeline
//! shows *when* the trigger fired. Files are written with the suite's
//! temp-file + rename discipline, so a crash mid-dump never leaves a
//! truncated file, and are named `blackbox-<n>-<reason>.json` with a
//! process-wide monotonic `<n>` (never wall clock, keeping runs
//! reproducible).
//!
//! # Dump format (`schema_version` 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "reason": "panic-contained",
//!   "detail": "device node1/npu2 stage=ingest",
//!   "dump_seq": 0,
//!   "events": [ { "seq": 0, "ts_us": 12, "phase": "B", ... } ],
//!   "metrics": { "counters": { ... }, "gauges": { ... }, "histograms": { ... } }
//! }
//! ```

use std::cell::Cell;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once};

use serde::{Serialize, Value};

/// Where dumps land; `None` (the default) disables dumping.
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Monotonic dump number, embedded in filenames.
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Schema version stamped into every dump.
pub const DUMP_SCHEMA_VERSION: u64 = 1;

/// Points black-box dumping at `dir` (`None` disables it). The directory
/// is created on the first dump, not here.
pub fn set_dump_dir(dir: Option<&Path>) {
    *crate::lock(&DUMP_DIR) = dir.map(Path::to_path_buf);
}

/// The currently configured dump directory.
pub fn dump_dir() -> Option<PathBuf> {
    crate::lock(&DUMP_DIR).clone()
}

thread_local! {
    /// Set while [`contain_panic`] runs its closure: the panic hook stays
    /// silent for panics contained by design.
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Runs `f`, returning `None` if it panicked instead of unwinding further.
/// The default "thread panicked" report is suppressed for a contained
/// panic (by a forwarding hook installed once per process), because the
/// caller accounts for it, typically with a [`trigger`].
pub fn contain_panic<T>(f: impl FnOnce() -> T) -> Option<T> {
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(Cell::get) {
                previous(info);
            }
        }));
    });
    QUIET_PANICS.with(|q| q.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    QUIET_PANICS.with(|q| q.set(false));
    result.ok()
}

/// Filename-safe rendering of a trigger reason.
fn sanitize(reason: &str) -> String {
    reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Fires the black box: records a `blackbox` instant on the recorder
/// timeline and, when a dump directory is configured, writes the buffered
/// recorder tail plus a metrics snapshot to a crash-dump file.
///
/// Returns the dump path when a file was written. Failures to write are
/// reported through the `log` facility and swallowed — a black box must
/// never turn a contained failure into an uncontained one.
pub fn trigger(reason: &str, detail: &str) -> Option<PathBuf> {
    crate::recorder::instant("blackbox", reason.to_string(), detail.to_string());
    let dir = dump_dir()?;
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("blackbox-{seq:04}-{}.json", sanitize(reason)));
    match write_dump(&path, &dir, reason, detail, seq) {
        Ok(()) => {
            crate::counter!("obs.recorder.dumps").inc();
            crate::warn!(
                "black box dumped to {}: {reason} ({detail})",
                path.display()
            );
            Some(path)
        }
        Err(err) => {
            crate::error!("black box dump failed: {err}");
            None
        }
    }
}

fn write_dump(path: &Path, dir: &Path, reason: &str, detail: &str, seq: u64) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
    let events = crate::recorder::capture();
    let dump = Value::Map(vec![
        (
            "schema_version".to_string(),
            Value::U64(DUMP_SCHEMA_VERSION),
        ),
        ("reason".to_string(), Value::Str(reason.to_string())),
        ("detail".to_string(), Value::Str(detail.to_string())),
        ("dump_seq".to_string(), Value::U64(seq)),
        (
            "events".to_string(),
            Value::Seq(events.iter().map(crate::trace::event_to_value).collect()),
        ),
        ("metrics".to_string(), crate::snapshot().to_value()),
    ]);
    let text =
        serde_json::to_string_pretty(&dump).map_err(|e| format!("cannot serialise dump: {e}"))?;
    crate::fsio::durable_write(path, text.as_bytes())
        .map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_without_a_dump_dir_writes_nothing() {
        let _guard = crate::recorder::testutil::lock();
        set_dump_dir(None);
        assert_eq!(trigger("unit-test", "no dir configured"), None);
    }

    #[test]
    fn trigger_writes_a_parseable_dump_with_events_and_metrics() {
        let _guard = crate::recorder::testutil::lock();
        let dir = std::env::temp_dir().join(format!("cordial-blackbox-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        set_dump_dir(Some(&dir));
        crate::recorder::set_enabled(true);
        crate::recorder::instant("test", "pre-crash breadcrumb", "42");
        let path = trigger("unit panic", "synthetic").expect("dump written");
        crate::recorder::set_enabled(false);
        set_dump_dir(None);

        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("blackbox-"));
        assert!(path.to_str().unwrap().ends_with("unit-panic.json"));
        let text = std::fs::read_to_string(&path).expect("dump readable");
        let dump = serde_json::parse_value_str(&text).expect("dump is JSON");
        assert_eq!(
            dump.get("schema_version"),
            Some(&Value::U64(DUMP_SCHEMA_VERSION))
        );
        assert_eq!(
            dump.get("reason"),
            Some(&Value::Str("unit panic".to_string()))
        );
        let Some(Value::Seq(events)) = dump.get("events") else {
            panic!("dump must embed an events array");
        };
        assert!(
            events
                .iter()
                .any(|e| e.get("name") == Some(&Value::Str("pre-crash breadcrumb".to_string()))),
            "the pre-crash instant must be in the dump"
        );
        assert!(dump
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .is_some());
        assert!(!path.with_extension("tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
