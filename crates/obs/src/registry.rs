//! The metrics registry: counters, gauges, fixed-bucket histograms, and
//! deterministic snapshots.
//!
//! Registration (name → metric) is guarded by a `std` `RwLock`, but
//! the lock is only touched when a call site first resolves its handle (the
//! `counter!`/`gauge!`/`histogram!` macros cache handles in statics).
//! Recording itself is relaxed atomics on `Arc`-shared cells, safe to call
//! from the suite's fork-join worker threads.
//!
//! Counters and histograms are **striped**: each holds eight copies
//! of its cells, each copy on cache lines of its own, and a thread records
//! into the one copy it took at its first recording (threads take stripes
//! round-robin). Threads that record the same metric at the same moment,
//! such as the daemon's shard workers all counting `monitor.events`,
//! therefore do not bounce one cache line between cores. Reads sum the
//! stripes: counter values and bucket counts are exact integer sums, and
//! a histogram's `sum` stays the diagnostic `f64` it always was. Gauges
//! stay one shared cell, set last-value-wins or summed from shares.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use serde::{Deserialize, Serialize};

/// Copies of every counter and histogram cell; each thread records into
/// one of them.
const STRIPES: usize = 8;

/// Atomic cells per cache line.
const LINE_CELLS: usize = 8;

/// One cache line of atomic cells, aligned so no two lines share one.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Line([AtomicU64; LINE_CELLS]);

/// The stripe the calling thread records into, taken round-robin at the
/// thread's first recording.
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.try_with(|stripe| *stripe).unwrap_or(0)
}

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    /// One line per stripe; only each line's first cell is used.
    stripes: Arc<[Line; STRIPES]>,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. No-op while recording is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.stripes[stripe()].0[0].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value: the sum over every stripe.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|line| line.0[0].load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for line in self.stripes.iter() {
            line.0[0].store(0, Ordering::Relaxed);
        }
    }
}

/// A gauge (stored as `f64`): last-value-wins through [`Gauge::set`], or
/// a sum of shares through [`Gauge::add`].
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge. No-op while recording is disabled.
    #[inline]
    pub fn set(&self, value: f64) {
        if crate::enabled() {
            self.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` (negative to subtract) in one atomic step.
    ///
    /// This is how a gauge sums shares: each owner adds the change in its
    /// own share when it publishes, and subtracts its whole share when it
    /// goes away. Owners decide when to publish; the add itself applies
    /// while recording is disabled too, so an owner can always withdraw
    /// what it added. [`crate::reset`] zeroes the gauge but does not clear
    /// the owners' shares: an owner that outlives a reset later withdraws
    /// a share the gauge no longer holds, and the gauge reads low (below
    /// zero, if nothing was added since).
    pub fn add(&self, delta: f64) {
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Cell of a histogram stripe holding its observation count.
const COUNT: usize = 0;
/// Cell of a histogram stripe holding its sum's `f64` bits.
const SUM: usize = 1;
/// First bucket cell of a histogram stripe.
const BUCKETS: usize = 2;

#[derive(Debug)]
struct HistogramCell {
    /// Finite bucket upper bounds, ascending.
    ///
    /// **Bucket-edge invariant** (Prometheus `le` semantics): bucket `i`
    /// counts observations with `v <= bounds[i]` that missed every earlier
    /// bucket — upper bounds are *inclusive*, so an observation exactly on
    /// a bound lands in that bound's bucket, never the next one. One extra
    /// overflow bucket catches everything above the last bound; it is what
    /// the exporter's `le="+Inf"` sample is derived from. The
    /// `bucket_boundaries_are_inclusive_upper_bounds` unit test and the
    /// exporter's `le` edge test pin this, because a half-open
    /// (exclusive-upper) implementation would silently disagree with every
    /// Prometheus quantile computed from the exposition.
    bounds: Vec<f64>,
    /// `STRIPES` runs of `lines_per_stripe` lines. Each run holds one
    /// stripe's count, sum bits and buckets, in that order.
    lines: Box<[Line]>,
    lines_per_stripe: usize,
}

impl HistogramCell {
    fn new(bounds: &[f64]) -> Self {
        let lines_per_stripe = (BUCKETS + bounds.len() + 1).div_ceil(LINE_CELLS);
        let lines = (0..STRIPES * lines_per_stripe)
            .map(|_| Line::default())
            .collect();
        Self {
            bounds: bounds.to_vec(),
            lines,
            lines_per_stripe,
        }
    }

    /// Cell `k` of stripe `stripe`.
    fn cell(&self, stripe: usize, k: usize) -> &AtomicU64 {
        &self.lines[stripe * self.lines_per_stripe + k / LINE_CELLS].0[k % LINE_CELLS]
    }

    /// Cell `k` summed over every stripe.
    fn total(&self, k: usize) -> u64 {
        (0..STRIPES)
            .map(|s| self.cell(s, k).load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for line in self.lines.iter() {
            for cell in &line.0 {
                cell.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// A fixed-bucket histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one observation. No-op while recording is disabled.
    pub fn observe(&self, value: f64) {
        if !crate::enabled() {
            return;
        }
        let cell = &*self.cell;
        let stripe = stripe();
        let idx = cell
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(cell.bounds.len());
        cell.cell(stripe, BUCKETS + idx)
            .fetch_add(1, Ordering::Relaxed);
        cell.cell(stripe, COUNT).fetch_add(1, Ordering::Relaxed);
        // f64 add via CAS loop (a stripe can be shared by two threads);
        // the sum is a diagnostic aggregate, relaxed ordering and
        // non-associative accumulation order are acceptable.
        let sum = cell.cell(stripe, SUM);
        let mut current = sum.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match sum.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.cell.total(COUNT)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let cell = &*self.cell;
        HistogramSnapshot {
            bounds: cell.bounds.clone(),
            buckets: (0..=cell.bounds.len())
                .map(|i| cell.total(BUCKETS + i))
                .collect(),
            sum: (0..STRIPES)
                .map(|s| f64::from_bits(cell.cell(s, SUM).load(Ordering::Relaxed)))
                .sum(),
            count: cell.total(COUNT),
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of named metrics.
///
/// Names are dotted lowercase paths (`monitor.events`,
/// `span.fit.classifier.seconds`); the exporters prefix and sanitise them
/// into Prometheus families (`cordial_monitor_events_total`).
#[derive(Debug)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub const fn new() -> Self {
        Self {
            metrics: RwLock::new(BTreeMap::new()),
        }
    }

    /// Registers (or fetches) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(metric) = self
            .metrics
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return match metric {
                Metric::Counter(c) => c.clone(),
                _ => panic!("metric `{name}` already registered with a different kind"),
            };
        }
        let mut metrics = self.metrics.write().unwrap_or_else(PoisonError::into_inner);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| {
                Metric::Counter(Counter {
                    stripes: Arc::default(),
                })
            })
            .clone()
        {
            Metric::Counter(c) => c,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Registers (or fetches) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(metric) = self
            .metrics
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return match metric {
                Metric::Gauge(g) => g.clone(),
                _ => panic!("metric `{name}` already registered with a different kind"),
            };
        }
        let mut metrics = self.metrics.write().unwrap_or_else(PoisonError::into_inner);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| {
                Metric::Gauge(Gauge {
                    bits: Arc::new(AtomicU64::new(0f64.to_bits())),
                })
            })
            .clone()
        {
            Metric::Gauge(g) => g,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Registers (or fetches) the histogram `name` with the given finite
    /// bucket upper bounds. `bounds` is consulted only on first
    /// registration; later callers inherit the original buckets.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending, or if `name`
    /// is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        if let Some(metric) = self
            .metrics
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return match metric {
                Metric::Histogram(h) => h.clone(),
                _ => panic!("metric `{name}` already registered with a different kind"),
            };
        }
        assert!(!bounds.is_empty(), "histogram `{name}` needs >= 1 bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram `{name}` bounds must be strictly ascending"
        );
        let mut metrics = self.metrics.write().unwrap_or_else(PoisonError::into_inner);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| {
                Metric::Histogram(Histogram {
                    cell: Arc::new(HistogramCell::new(bounds)),
                })
            })
            .clone()
        {
            Metric::Histogram(h) => h,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Captures every metric's current value, keyed by name in sorted
    /// order. Two snapshots of identical registry state are identical —
    /// the property the export and determinism tests build on.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.read().unwrap_or_else(PoisonError::into_inner);
        let mut snapshot = Snapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snapshot.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snapshot.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snapshot.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snapshot
    }

    /// Zeroes every registered metric in place without unregistering it, so
    /// handles cached by call sites stay valid.
    pub fn reset(&self) {
        let metrics = self.metrics.read().unwrap_or_else(PoisonError::into_inner);
        for metric in metrics.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.bits.store(0f64.to_bits(), Ordering::Relaxed),
                Metric::Histogram(h) => h.cell.reset(),
            }
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time value of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; one entry per bound
    /// plus a final overflow bucket.
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

/// A deterministic point-in-time view of a registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The thread-count-invariant digest of the snapshot: counters, gauge
    /// bit patterns, and histogram observation **counts** (bucket contents
    /// of wall-clock histograms legitimately shift between runs; how many
    /// observations happened must not).
    ///
    /// Metrics with a `parallel` path segment are excluded: per-worker task
    /// metrics are the one family that genuinely depends on the thread
    /// count (four chunk timings at `n_threads = 4`, one at 1).
    pub fn digest(&self) -> BTreeMap<String, u64> {
        let thread_dependent = |name: &str| name.split('.').any(|segment| segment == "parallel");
        let mut digest = BTreeMap::new();
        for (name, value) in &self.counters {
            if !thread_dependent(name) {
                digest.insert(name.clone(), *value);
            }
        }
        for (name, value) in &self.gauges {
            if !thread_dependent(name) {
                digest.insert(format!("{name}.bits"), value.to_bits());
            }
        }
        for (name, hist) in &self.histograms {
            if !thread_dependent(name) {
                digest.insert(format!("{name}.count"), hist.count);
            }
        }
        digest
    }

    /// Renders the snapshot as an aligned human-readable table (the CLI
    /// `stats` subcommand and the experiments telemetry sections).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<44} {value}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name:<44} {value}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, hist) in &self.histograms {
                let mean = if hist.count == 0 {
                    0.0
                } else {
                    hist.sum / hist.count as f64
                };
                out.push_str(&format!(
                    "  {name:<44} count={} sum={:.6} mean={:.6}\n",
                    hist.count, hist.sum, mean
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_record_when_enabled() {
        crate::set_enabled(true);
        let registry = MetricsRegistry::new();
        let counter = registry.counter("t.counter");
        counter.inc();
        counter.add(4);
        assert_eq!(counter.get(), 5);

        let gauge = registry.gauge("t.gauge");
        gauge.set(2.5);
        assert_eq!(gauge.get(), 2.5);

        let hist = registry.histogram("t.hist", &[1.0, 10.0]);
        hist.observe(0.5);
        hist.observe(5.0);
        hist.observe(100.0);
        let snap = registry.snapshot();
        let h = &snap.histograms["t.hist"];
        assert_eq!(h.buckets, vec![1, 1, 1]);
        assert_eq!(h.count, 3);
        assert!((h.sum - 105.5).abs() < 1e-12);
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        crate::set_enabled(true);
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("t.bounds", &[1.0, 2.0, 4.0]);
        // Exactly on a bound lands in that bound's bucket (`le` semantics).
        hist.observe(1.0);
        hist.observe(2.0);
        hist.observe(4.0);
        // Just above a bound spills into the next bucket.
        hist.observe(1.0000001);
        hist.observe(4.0000001);
        let snap = registry.snapshot().histograms["t.bounds"].clone();
        assert_eq!(snap.buckets, vec![1, 2, 1, 1]);
        assert_eq!(snap.count, 5);
    }

    #[test]
    fn registration_is_idempotent_and_shares_state() {
        crate::set_enabled(true);
        let registry = MetricsRegistry::new();
        registry.counter("t.shared").inc();
        registry.counter("t.shared").inc();
        assert_eq!(registry.counter("t.shared").get(), 2);
        // Histogram bounds are fixed by the first registration.
        registry.histogram("t.h", &[1.0, 2.0]);
        let again = registry.histogram("t.h", &[99.0]);
        again.observe(1.5);
        assert_eq!(registry.snapshot().histograms["t.h"].bounds, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.counter("t.kind");
        registry.gauge("t.kind");
    }

    #[test]
    fn reset_zeroes_in_place_and_keeps_handles_valid() {
        crate::set_enabled(true);
        let registry = MetricsRegistry::new();
        let counter = registry.counter("t.reset");
        let hist = registry.histogram("t.reset.h", &[1.0]);
        counter.add(7);
        hist.observe(0.5);
        registry.reset();
        assert_eq!(counter.get(), 0);
        assert_eq!(hist.count(), 0);
        // The pre-reset handle still records into the registry.
        counter.inc();
        assert_eq!(registry.snapshot().counters["t.reset"], 1);
    }

    #[test]
    fn concurrent_recording_sums_exactly_over_the_stripes() {
        crate::set_enabled(true);
        let registry = MetricsRegistry::new();
        let counter = registry.counter("t.striped");
        let hist = registry.histogram("t.striped.h", &[1.0, 10.0]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..100_000u32 {
                        if i % 2 == 0 {
                            counter.inc();
                        } else {
                            counter.add(3);
                        }
                        hist.observe([0.5, 5.0, 50.0][i as usize % 3]);
                    }
                });
            }
        });
        assert_eq!(counter.get(), 4 * (50_000 + 3 * 50_000));
        let snap = registry.snapshot();
        assert_eq!(snap.counters["t.striped"], 800_000);
        let h = &snap.histograms["t.striped.h"];
        assert_eq!(h.buckets, vec![4 * 33_334, 4 * 33_333, 4 * 33_333]);
        assert_eq!(h.count, 400_000);
        assert_eq!(hist.count(), 400_000);
        // Halves and small integers add exactly in any order.
        assert_eq!(
            h.sum,
            4.0 * (33_334.0 * 0.5 + 33_333.0 * 5.0 + 33_333.0 * 50.0)
        );
    }

    #[test]
    fn gauge_adds_from_many_threads_sum_exactly() {
        crate::set_enabled(true);
        let registry = MetricsRegistry::new();
        let gauge = registry.gauge("t.shares");
        std::thread::scope(|scope| {
            for owner in 0..4u32 {
                let gauge = &gauge;
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        gauge.add(f64::from(owner + 1));
                    }
                    gauge.add(-f64::from(owner + 1) * 9_999.0);
                });
            }
        });
        assert_eq!(gauge.get(), 1.0 + 2.0 + 3.0 + 4.0);
        assert_eq!(registry.snapshot().gauges["t.shares"], 10.0);
    }

    #[test]
    fn reset_zeroes_every_stripe() {
        crate::set_enabled(true);
        let registry = MetricsRegistry::new();
        let counter = registry.counter("t.reset.striped");
        let hist = registry.histogram("t.reset.striped.h", &[1.0]);
        // Sixteen threads take sixteen distinct stripe tickets, so they
        // record into more than one stripe.
        std::thread::scope(|scope| {
            for _ in 0..2 * STRIPES {
                scope.spawn(|| {
                    counter.inc();
                    hist.observe(0.5);
                });
            }
        });
        let used = |line: &Line| line.0[0].load(Ordering::Relaxed) > 0;
        assert!(counter.stripes.iter().filter(|line| used(line)).count() > 1);
        assert_eq!(counter.get(), 2 * STRIPES as u64);
        registry.reset();
        let zero = |line: &Line| line.0.iter().all(|c| c.load(Ordering::Relaxed) == 0);
        assert!(counter.stripes.iter().all(zero));
        assert!(hist.cell.lines.iter().all(zero));
        // Handles resolved before the reset still record into the registry.
        counter.inc();
        hist.observe(2.0);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["t.reset.striped"], 1);
        assert_eq!(snap.histograms["t.reset.striped.h"].buckets, vec![0, 1]);
        assert_eq!(snap.histograms["t.reset.striped.h"].sum, 2.0);
    }

    #[test]
    fn stripes_sit_on_cache_lines_of_their_own() {
        assert_eq!(std::mem::align_of::<Line>(), 64);
        assert_eq!(std::mem::size_of::<Line>(), 64);
        let cell = HistogramCell::new(crate::DURATION_BOUNDS);
        // Count, sum and 14 buckets: two lines per stripe.
        assert_eq!(cell.lines_per_stripe, 2);
        assert_eq!(cell.lines.len(), 2 * STRIPES);
    }

    #[test]
    fn snapshots_are_deterministically_ordered() {
        crate::set_enabled(true);
        let registry = MetricsRegistry::new();
        // Register in non-sorted order.
        registry.counter("t.z");
        registry.counter("t.a");
        registry.gauge("t.m");
        let snap_a = registry.snapshot();
        let snap_b = registry.snapshot();
        assert_eq!(snap_a, snap_b);
        let keys: Vec<&String> = snap_a.counters.keys().collect();
        assert_eq!(keys, vec!["t.a", "t.z"]);
    }

    #[test]
    fn digest_keeps_counts_and_drops_parallel_metrics() {
        crate::set_enabled(true);
        let registry = MetricsRegistry::new();
        registry.counter("t.kept").add(3);
        registry.counter("t.parallel.tasks").add(4);
        registry
            .histogram("span.t.parallel.chunk.seconds", &[1.0])
            .observe(0.1);
        registry.histogram("t.h", &[1.0]).observe(0.2);
        registry.gauge("t.g").set(0.5);
        let digest = registry.snapshot().digest();
        assert_eq!(digest["t.kept"], 3);
        assert_eq!(digest["t.h.count"], 1);
        assert_eq!(digest["t.g.bits"], 0.5f64.to_bits());
        assert!(!digest.contains_key("t.parallel.tasks"));
        assert!(!digest.contains_key("span.t.parallel.chunk.seconds.count"));
    }
}
