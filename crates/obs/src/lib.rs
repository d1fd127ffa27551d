//! **cordial-obs** — the suite's self-contained observability layer.
//!
//! AIOps deployments of memory-failure predictors live or die on runtime
//! telemetry: lead time, alert volume and per-stage cost must be first-class
//! outputs, not log noise. This crate provides the three facilities the rest
//! of the workspace instruments itself with, built only on the vendored
//! offline dependencies (no `tracing`, no `prometheus` crate — see DESIGN.md
//! "Offline builds"):
//!
//! 1. a **metrics registry** ([`MetricsRegistry`]) of counters, gauges and
//!    fixed-bucket histograms. Hot-path updates are plain relaxed atomics on
//!    handles cached per call site (the [`counter!`]/[`gauge!`]/
//!    [`histogram!`] macros), so recording never takes the registry lock,
//!    and counters and histograms record into a per-thread stripe, so
//!    threads recording at once do not share a cache line;
//! 2. a **span facility** ([`span!`]) — RAII guards that record hierarchical
//!    wall-clock timings into per-path duration histograms, found through a
//!    per-thread cache;
//! 3. **exporters** ([`export`]) — Prometheus text exposition and JSON, both
//!    derived from one deterministic [`Snapshot`];
//! 4. a **flight recorder** ([`recorder`]) — per-thread fixed-capacity ring
//!    buffers of structured events (span begin/end with causal ids, ingest
//!    outcomes, plan decisions, breaker transitions, chaos injections),
//!    drainable into one merged timeline and exportable as Chrome
//!    trace-event JSON or JSON-lines ([`trace`]);
//! 5. **post-mortem black boxes** ([`blackbox`]) — crash-dump files
//!    combining the recorder tail with a metrics snapshot, written on
//!    panic containment and breaker trips;
//! 6. **health watchdogs** ([`watchdog`]) — rolling-window drift detectors
//!    over the telemetry itself, raising greppable alerts into both the
//!    registry and the recorder.
//!
//! Recording is **disabled by default**: every instrumentation site costs a
//! single relaxed atomic load until [`set_enabled`]`(true)` turns the
//! subscriber on (the perf bench pins the disabled overhead at <2% on
//! `plan_batch`). Leveled logging ([`info!`], [`warn!`], …) is independent of
//! the metrics switch and defaults to stderr, matching the `eprintln!` calls
//! it replaces.
//!
//! # Example
//!
//! ```
//! use cordial_obs as obs;
//!
//! obs::set_enabled(true);
//! obs::counter!("demo.requests").inc();
//! {
//!     let _span = obs::span!("demo");
//!     // ... timed work ...
//! }
//! let snapshot = obs::snapshot();
//! assert!(snapshot.counters["demo.requests"] >= 1);
//! let prom = obs::export::to_prometheus(&snapshot);
//! assert!(prom.contains("cordial_demo_requests_total"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

pub mod blackbox;
pub mod export;
pub mod fsio;
pub mod log;
pub mod recorder;
pub mod registry;
pub mod span;
pub mod trace;
pub mod watchdog;

pub use log::Level;
pub use recorder::{TraceEvent, TracePhase};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot};
pub use span::Span;
pub use watchdog::{DriftAlert, DriftConfig, MixDriftDetector};

/// Whether metric/span recording is on. Logging is independent of this flag.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric and span recording on or off process-wide.
///
/// Disabled (the default), every instrumented site short-circuits after one
/// relaxed atomic load: counters do not count, spans do not read the clock.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric and span recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Locks a mutex, riding through poisoning: a panic while the lock was held
/// has already been contained or reported where it happened, and must not
/// wedge the threads that still serve or record.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide registry every macro records into.
static REGISTRY: MetricsRegistry = MetricsRegistry::new();

/// The global metrics registry.
pub fn global() -> &'static MetricsRegistry {
    &REGISTRY
}

/// Snapshot of the global registry (sorted, deterministic key order).
pub fn snapshot() -> Snapshot {
    REGISTRY.snapshot()
}

/// Zeroes every metric of the global registry **in place**.
///
/// Handles cached by the macros stay valid — resetting never unregisters a
/// metric, it only clears its value, so tests can isolate measurements
/// without invalidating call sites. A gauge summed from shares
/// ([`Gauge::add`]) is zeroed too, but its owners' shares are not cleared:
/// each owner still withdraws its whole share when it goes away.
pub fn reset() {
    REGISTRY.reset();
}

/// Default duration-histogram bucket upper bounds, in seconds.
///
/// Spans record into these; they cover microsecond feature extraction up to
/// minute-scale paper-sized training runs.
pub const DURATION_BOUNDS: &[f64] = &[
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
];

/// Bucket bounds for prediction lead time, in seconds (one minute up to a
/// week): the time between a mitigation plan being applied and the UERs it
/// later absorbs.
pub const LEAD_TIME_BOUNDS: &[f64] = &[
    60.0,
    300.0,
    900.0,
    3600.0,
    4.0 * 3600.0,
    12.0 * 3600.0,
    86_400.0,
    3.0 * 86_400.0,
    7.0 * 86_400.0,
];

/// Bucket bounds for small cardinalities (batch sizes, rows per plan).
pub const COUNT_BOUNDS: &[f64] = &[
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
];

/// Returns a `&'static Counter` for `name`, registering it on first use.
///
/// The handle is cached in a per-call-site static, so the registry lock is
/// taken at most once per site for the life of the process.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Returns a `&'static Gauge` for `name`, registering it on first use.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Returns a `&'static Histogram` for `name` with the given bucket bounds
/// (consulted only on first registration).
#[macro_export]
macro_rules! histogram {
    ($name:expr, $bounds:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().histogram($name, $bounds))
    }};
}

/// Opens a timing span: `let _span = obs::span!("fit");`.
///
/// The guard records wall-clock time into the histogram
/// `span.<dotted.path>.seconds`, where the path is the chain of enclosing
/// span names on the current thread — `span!("fit")` containing
/// `span!("classifier")` records `span.fit.seconds` and
/// `span.fit.classifier.seconds`. When recording is disabled the guard is a
/// no-op that never reads the clock.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
}

/// Opens a stack-independent timing span: always records
/// `span.<name>.seconds`, regardless of enclosing spans or which thread
/// runs it. Use for leaf operations that may execute either inline or on
/// fork-join workers, where a stack-derived path would depend on the
/// thread count.
#[macro_export]
macro_rules! span_root {
    ($name:expr) => {
        $crate::Span::enter_root($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_flag_round_trips() {
        // Other in-process tests also flip this flag; just exercise the API.
        set_enabled(true);
        assert!(enabled());
        set_enabled(true);
    }

    #[test]
    fn bounds_are_sorted_and_finite() {
        for bounds in [DURATION_BOUNDS, LEAD_TIME_BOUNDS, COUNT_BOUNDS] {
            assert!(bounds.windows(2).all(|w| w[0] < w[1]));
            assert!(bounds.iter().all(|b| b.is_finite()));
        }
    }
}
