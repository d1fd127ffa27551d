//! The flight recorder: per-thread fixed-capacity ring buffers of
//! structured trace events.
//!
//! Every instrumented site in the workspace can leave a breadcrumb here —
//! span begin/end pairs with parent/causal ids, ingest outcomes, plan
//! decisions, breaker transitions, model promotions, chaos injections —
//! and the recorder keeps only the most recent [`capacity`] events per
//! thread, so it is safe to leave on for the life of a process. The
//! buffered tail is exactly what a post-mortem wants: [`drain`] merges
//! every thread's ring into one time-ordered timeline for the
//! [`trace`](crate::trace) exporters, and [`capture`] clones it
//! non-destructively for [`blackbox`](crate::blackbox) crash dumps.
//!
//! # Recording discipline
//!
//! Recording is **off by default** ([`set_enabled`]) and independent of the
//! metrics switch: a disabled site costs one relaxed atomic load. When on,
//! an event is pushed onto the current thread's ring under a thread-local
//! mutex — uncontended for the owning thread (a single CAS; the crate
//! forbids `unsafe`, so a literally lock-free queue is out of reach),
//! contended only while a drain or dump walks the rings.
//!
//! Bookkeeping lands in the metrics registry (which follows the *metrics*
//! switch, [`crate::set_enabled`]):
//!
//! - `obs.recorder.instants` — instants from deterministic stream-ordered
//!   code; part of the thread-invariant digest.
//! - `obs.recorder.span_events.parallel` — span begin/end events; excluded
//!   from the digest because fork-join workers add per-thread spans.
//! - `obs.recorder.dropped.parallel` — ring-capacity overwrites; excluded
//!   for the same reason.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::lock;

/// Default per-thread ring capacity (events retained per thread).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Smallest accepted ring capacity.
const MIN_CAPACITY: usize = 16;

/// Whether flight recording is on. Independent of the metrics switch.
static RECORDER_ENABLED: AtomicBool = AtomicBool::new(false);

/// Per-thread ring capacity, consulted on every push.
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

/// Global event sequence: allocation order is the merge order of [`drain`].
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Global span-id allocator (0 is reserved for "no span").
static SPAN_IDS: AtomicU64 = AtomicU64::new(1);

/// Dense thread ids, assigned once per thread on first record.
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// The instant all `ts_us` values are measured from (first use wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns flight recording on or off process-wide.
///
/// Disabled (the default), every recording site short-circuits after one
/// relaxed atomic load and the rings are never touched. Enabling pins the
/// timestamp epoch on first use.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    RECORDER_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether flight recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    RECORDER_ENABLED.load(Ordering::Relaxed)
}

/// Sets the per-thread ring capacity (clamped to at least 16 events).
///
/// Takes effect on the next push to every ring, including rings that
/// already exist; shrinking discards the oldest events on their owning
/// thread's next record.
pub fn set_capacity(events: usize) {
    CAPACITY.store(events.max(MIN_CAPACITY), Ordering::Relaxed);
}

/// Current per-thread ring capacity.
pub fn capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Lifecycle phase of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A span opened (`span_id` identifies it, `parent_id` its parent).
    Begin,
    /// A span closed (`span_id` matches its `Begin`).
    End,
    /// A point-in-time event.
    Instant,
}

/// One structured flight-recorder event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Global allocation order; the merged-timeline sort key.
    pub seq: u64,
    /// Microseconds since the recorder epoch.
    pub ts_us: u64,
    /// Dense id of the recording thread.
    pub thread: u32,
    /// Begin / End / Instant.
    pub phase: TracePhase,
    /// Coarse subsystem category (`span`, `ingest`, `plan`, `breaker`,
    /// `model`, `chaos`, `watchdog`, `blackbox`).
    pub category: &'static str,
    /// Event name (span name, outcome, transition, …).
    pub name: String,
    /// Free-form detail (bank address, device id, shift magnitude, …).
    pub detail: String,
    /// Causal id of the span this event belongs to (0 = none).
    pub span_id: u64,
    /// Causal id of the enclosing span at record time (0 = root).
    pub parent_id: u64,
}

/// One thread's fixed-capacity event buffer.
struct Ring {
    thread: u32,
    events: VecDeque<TraceEvent>,
    /// Events overwritten on this ring since the last drain.
    dropped: u64,
}

/// Every ring ever registered; `Arc`s keep rings of finished worker
/// threads alive so their tail survives into post-mortems.
static RINGS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's ring, registered globally on first record.
    static LOCAL_RING: Arc<Mutex<Ring>> = register_ring();
}

fn register_ring() -> Arc<Mutex<Ring>> {
    let ring = Arc::new(Mutex::new(Ring {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        events: VecDeque::new(),
        dropped: 0,
    }));
    lock(&RINGS).push(Arc::clone(&ring));
    ring
}

/// Pushes one event onto the current thread's ring.
fn push(
    phase: TracePhase,
    category: &'static str,
    name: String,
    detail: String,
    span_id: u64,
    parent_id: u64,
) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let ts_us = u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX);
    // `try_with` so a record during thread teardown degrades to a drop
    // instead of a panic.
    let _ = LOCAL_RING.try_with(|ring| {
        let mut ring = lock(ring);
        let cap = capacity();
        while ring.events.len() >= cap {
            ring.events.pop_front();
            ring.dropped += 1;
            crate::counter!("obs.recorder.dropped.parallel").inc();
        }
        let thread = ring.thread;
        ring.events.push_back(TraceEvent {
            seq,
            ts_us,
            thread,
            phase,
            category,
            name,
            detail,
            span_id,
            parent_id,
        });
    });
}

/// Records a point-in-time event from deterministic, stream-ordered code.
///
/// No-op while the recorder is disabled. The companion counter
/// `obs.recorder.instants` is part of the thread-invariant digest, so only
/// call this from code whose execution count does not depend on wall-clock
/// time or the thread count.
pub fn instant(category: &'static str, name: impl Into<String>, detail: impl Into<String>) {
    if !enabled() {
        return;
    }
    crate::counter!("obs.recorder.instants").inc();
    push(
        TracePhase::Instant,
        category,
        name.into(),
        detail.into(),
        0,
        0,
    );
}

/// Records a span-begin event and returns the new span's causal id.
/// Called by [`Span`](crate::Span); `parent` is the enclosing span's id
/// (0 for a root). Returns 0 without recording while disabled.
pub(crate) fn span_begin(name: &'static str, parent: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = SPAN_IDS.fetch_add(1, Ordering::Relaxed);
    crate::counter!("obs.recorder.span_events.parallel").inc();
    push(
        TracePhase::Begin,
        "span",
        name.to_string(),
        String::new(),
        id,
        parent,
    );
    id
}

/// Records the span-end event matching [`span_begin`]'s returned id.
pub(crate) fn span_end(name: &'static str, span_id: u64) {
    crate::counter!("obs.recorder.span_events.parallel").inc();
    push(
        TracePhase::End,
        "span",
        name.to_string(),
        String::new(),
        span_id,
        0,
    );
}

/// Merges every thread's buffered events into one timeline, **clearing**
/// the rings. Events are ordered by their global sequence number, which is
/// consistent with per-thread recording order.
pub fn drain() -> Vec<TraceEvent> {
    collect(true)
}

/// Clones every thread's buffered events into one timeline without
/// clearing the rings — the non-destructive view black-box dumps take.
pub fn capture() -> Vec<TraceEvent> {
    collect(false)
}

fn collect(clear: bool) -> Vec<TraceEvent> {
    let rings: Vec<Arc<Mutex<Ring>>> = lock(&RINGS).clone();
    let mut all = Vec::new();
    for ring in rings {
        let mut ring = lock(&ring);
        if clear {
            all.extend(ring.events.drain(..));
            ring.dropped = 0;
        } else {
            all.extend(ring.events.iter().cloned());
        }
    }
    all.sort_by_key(|event| event.seq);
    all
}

/// Total events currently buffered across all rings.
pub fn buffered() -> usize {
    lock(&RINGS)
        .iter()
        .map(|ring| lock(ring).events.len())
        .sum()
}

/// Clears every ring (events and drop counts) without returning them.
pub fn clear() {
    let _ = drain();
}

#[cfg(test)]
pub(crate) mod testutil {
    /// Serialises in-process tests that flip the process-global recorder
    /// switch or drain its rings.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    pub fn lock() -> std::sync::MutexGuard<'static, ()> {
        crate::lock(&LOCK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Disables the recorder and empties the rings for an isolated test.
    fn fresh() {
        set_enabled(false);
        clear();
    }

    #[test]
    fn disabled_recorder_buffers_nothing() {
        let _guard = testutil::lock();
        fresh();
        instant("test", "noop", "");
        assert_eq!(span_begin("noop", 0), 0);
        assert!(!capture().iter().any(|e| e.name == "noop"));
    }

    #[test]
    fn instants_land_in_seq_order_and_drain_clears() {
        let _guard = testutil::lock();
        fresh();
        set_enabled(true);
        instant("test", "first", "a");
        instant("test", "second", "b");
        let events = drain();
        set_enabled(false);
        let mine: Vec<&TraceEvent> = events.iter().filter(|e| e.category == "test").collect();
        assert_eq!(mine.len(), 2);
        assert!(mine[0].seq < mine[1].seq);
        assert_eq!(mine[0].name, "first");
        assert_eq!(mine[1].detail, "b");
        assert!(capture().iter().all(|e| e.category != "test"));
    }

    #[test]
    fn rings_overwrite_oldest_at_capacity() {
        let _guard = testutil::lock();
        fresh();
        let original = capacity();
        set_capacity(0); // clamps to MIN_CAPACITY
        assert_eq!(capacity(), MIN_CAPACITY);
        set_enabled(true);
        for i in 0..(MIN_CAPACITY + 5) {
            instant("captest", format!("e{i}"), "");
        }
        let events = drain();
        set_enabled(false);
        set_capacity(original);
        let mine: Vec<&TraceEvent> = events.iter().filter(|e| e.category == "captest").collect();
        assert_eq!(mine.len(), MIN_CAPACITY);
        // The survivors are the newest events.
        assert_eq!(mine.last().unwrap().name, format!("e{}", MIN_CAPACITY + 4));
        assert_eq!(mine.first().unwrap().name, "e5");
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let _guard = testutil::lock();
        fresh();
        set_enabled(true);
        let a = span_begin("spana", 0);
        let b = span_begin("spanb", a);
        span_end("spanb", b);
        span_end("spana", a);
        let events = drain();
        set_enabled(false);
        assert!(a != 0 && b != 0 && a != b);
        let begin_b = events
            .iter()
            .find(|e| e.phase == TracePhase::Begin && e.name == "spanb")
            .expect("begin recorded");
        assert_eq!(begin_b.parent_id, a);
        assert_eq!(begin_b.category, "span");
    }
}
