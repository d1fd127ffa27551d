//! RAII timing spans feeding the histogram registry and the flight
//! recorder.
//!
//! A span is opened with the [`span!`](crate::span!) macro and records its
//! wall-clock duration when dropped. Spans nest per thread: the recorded
//! histogram name is `span.<path>.seconds` where `<path>` joins every open
//! span name on the current thread, so `span!("fit")` containing
//! `span!("classifier")` produces the families `span.fit.seconds` and
//! `span.fit.classifier.seconds`.
//!
//! Worker threads start with an empty stack: a span opened inside a
//! fork-join worker records under its own name, independent of whatever the
//! coordinating thread has open — exactly what per-stage attribution wants.
//!
//! Each thread caches the histogram handle of every path it has closed a
//! span on, keyed by the open span names themselves. A drop on a path the
//! thread has seen before is one hash lookup: no allocation, no name
//! formatting and no registry lock. Only a path's first drop on a thread
//! builds its name and resolves it in the registry.
//!
//! When the [flight recorder](crate::recorder) is enabled, each span
//! additionally leaves `Begin`/`End` events on the timeline carrying a
//! process-unique causal id and the id of the enclosing span at entry, so
//! exported traces reconstruct the call tree even across the ring's
//! capacity horizon. The two switches are independent: metrics-only runs
//! skip the recorder, trace-only runs skip the clock-to-histogram path.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

use crate::Histogram;

/// The spans open on one thread and the histograms its spans closed on.
#[derive(Default)]
struct SpanStack {
    /// Names of the open spans, outermost first.
    names: Vec<&'static str>,
    /// Their recorder causal ids (0 while the recorder was disabled).
    ids: Vec<u64>,
    /// Histogram of every span path closed on this thread, by path.
    histograms: HashMap<Vec<&'static str>, Histogram>,
}

impl SpanStack {
    /// Records `elapsed` seconds under the span path `path`.
    fn observe(
        histograms: &mut HashMap<Vec<&'static str>, Histogram>,
        path: &[&'static str],
        elapsed: f64,
    ) {
        if let Some(histogram) = histograms.get(path) {
            histogram.observe(elapsed);
            return;
        }
        let name = format!("span.{}.seconds", path.join("."));
        let histogram = crate::global().histogram(&name, crate::DURATION_BOUNDS);
        histogram.observe(elapsed);
        histograms.insert(path.to_vec(), histogram);
    }
}

thread_local! {
    static SPAN_STACK: RefCell<SpanStack> = RefCell::new(SpanStack::default());
}

/// The recorder causal id of the innermost open span on this thread
/// (0 when none is open or the recorder was off when it opened).
fn current_parent() -> u64 {
    SPAN_STACK.with(|stack| stack.borrow().ids.last().copied().unwrap_or(0))
}

/// An open timing span; records on drop. Construct via
/// [`span!`](crate::span!) or [`Span::enter`].
#[derive(Debug)]
#[must_use = "a span records its timing when dropped; bind it to `_span`"]
pub struct Span {
    /// `Some` while metric recording was on at entry: the clock to read on
    /// drop.
    start: Option<Instant>,
    /// `true` for root spans: recorded flat under `name` without touching
    /// the per-thread stack.
    root: bool,
    /// The span's own (leaf) name.
    name: &'static str,
    /// Recorder causal id; 0 while the recorder is disabled.
    id: u64,
    /// Whether this guard pushed onto the per-thread stack.
    pushed: bool,
}

impl Span {
    const NOOP: Self = Self {
        start: None,
        root: false,
        name: "",
        id: 0,
        pushed: false,
    };

    /// Opens a span named `name`. When both metric recording and the
    /// flight recorder are disabled this is a no-op guard: no clock read,
    /// no thread-local touch.
    pub fn enter(name: &'static str) -> Self {
        let metrics = crate::enabled();
        let recording = crate::recorder::enabled();
        if !metrics && !recording {
            return Self::NOOP;
        }
        let id = if recording {
            crate::recorder::span_begin(name, current_parent())
        } else {
            0
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.names.push(name);
            stack.ids.push(id);
        });
        Self {
            start: metrics.then(Instant::now),
            root: false,
            name,
            id,
            pushed: true,
        }
    }

    /// Opens a stack-independent span: it always records
    /// `span.<name>.seconds`, no matter which spans are open on the
    /// current thread, and it does not become a parent for nested spans.
    ///
    /// Use this for leaf operations that may run either inline on the
    /// coordinating thread or on fork-join worker threads — a
    /// stack-derived path would differ between the two, breaking the
    /// thread-count invariance of [`Snapshot::digest`](crate::Snapshot::digest).
    pub fn enter_root(name: &'static str) -> Self {
        let metrics = crate::enabled();
        let recording = crate::recorder::enabled();
        if !metrics && !recording {
            return Self::NOOP;
        }
        let id = if recording {
            crate::recorder::span_begin(name, current_parent())
        } else {
            0
        };
        Self {
            start: metrics.then(Instant::now),
            root: true,
            name,
            id,
            pushed: false,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.pushed && self.start.is_none() && self.id == 0 {
            return;
        }
        let elapsed = self.start.map(|start| start.elapsed().as_secs_f64());
        if self.pushed || elapsed.is_some() {
            SPAN_STACK.with(|stack| {
                let SpanStack {
                    names,
                    ids,
                    histograms,
                } = &mut *stack.borrow_mut();
                if let Some(elapsed) = elapsed {
                    // A root span's path is its own name; any other span's
                    // is every span open on this thread.
                    let path = if self.root {
                        std::slice::from_ref(&self.name)
                    } else {
                        names.as_slice()
                    };
                    SpanStack::observe(histograms, path, elapsed);
                }
                if self.pushed {
                    names.pop();
                    ids.pop();
                }
            });
        }
        if self.id != 0 {
            crate::recorder::span_end(self.name, self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_hierarchical_paths() {
        crate::set_enabled(true);
        {
            let _outer = Span::enter("outer_test");
            let _inner = Span::enter("inner_test");
        }
        let snapshot = crate::snapshot();
        assert!(snapshot.histograms.contains_key("span.outer_test.seconds"));
        assert!(snapshot
            .histograms
            .contains_key("span.outer_test.inner_test.seconds"));
        assert!(snapshot.histograms["span.outer_test.seconds"].count >= 1);
    }

    #[test]
    fn root_spans_ignore_the_stack() {
        crate::set_enabled(true);
        {
            let _outer = Span::enter("root_outer_test");
            let _leaf = Span::enter_root("root_leaf_test");
        }
        let snapshot = crate::snapshot();
        assert!(snapshot
            .histograms
            .contains_key("span.root_leaf_test.seconds"));
        assert!(!snapshot
            .histograms
            .contains_key("span.root_outer_test.root_leaf_test.seconds"));
    }

    #[test]
    fn sibling_spans_share_a_family() {
        crate::set_enabled(true);
        crate::global().histogram("span.sibling_test.seconds", crate::DURATION_BOUNDS);
        let before = crate::snapshot().histograms["span.sibling_test.seconds"].count;
        for _ in 0..3 {
            let _span = Span::enter("sibling_test");
        }
        let after = crate::snapshot().histograms["span.sibling_test.seconds"].count;
        assert_eq!(after - before, 3);
    }

    fn count(name: &str) -> Option<u64> {
        crate::snapshot().histograms.get(name).map(|h| h.count)
    }

    #[test]
    fn one_name_under_two_parents_records_two_families() {
        crate::set_enabled(true);
        for _ in 0..3 {
            {
                let _parent = Span::enter("family_parent_a");
                let _child = Span::enter("family_child");
            }
            let _parent = Span::enter("family_parent_b");
            let _child = Span::enter("family_child");
        }
        // Every drop after a path's first is a cache hit, and still counts.
        assert_eq!(count("span.family_parent_a.family_child.seconds"), Some(3));
        assert_eq!(count("span.family_parent_b.family_child.seconds"), Some(3));
        assert_eq!(count("span.family_parent_a.seconds"), Some(3));
        assert_eq!(count("span.family_child.seconds"), None);
    }

    #[test]
    fn worker_spans_record_their_own_path_and_root_spans_record_flat() {
        crate::set_enabled(true);
        {
            let _outer = Span::enter("worker_outer");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _inner = Span::enter("worker_inner");
                    let _leaf = Span::enter_root("worker_leaf");
                });
            });
            let _leaf = Span::enter_root("worker_leaf");
        }
        assert_eq!(count("span.worker_inner.seconds"), Some(1));
        assert_eq!(count("span.worker_outer.worker_inner.seconds"), None);
        // The worker's root span and the coordinator's share one family.
        assert_eq!(count("span.worker_leaf.seconds"), Some(2));
        assert_eq!(count("span.worker_inner.worker_leaf.seconds"), None);
        assert_eq!(count("span.worker_outer.worker_leaf.seconds"), None);
        assert_eq!(count("span.worker_outer.seconds"), Some(1));
    }

    #[test]
    fn recorder_spans_carry_causal_parent_ids() {
        let _guard = crate::recorder::testutil::lock();
        crate::set_enabled(true);
        crate::recorder::set_enabled(true);
        crate::recorder::clear();
        {
            let _outer = Span::enter("causal_outer");
            let _inner = Span::enter("causal_inner");
            let _leaf = Span::enter_root("causal_leaf");
        }
        let events = crate::recorder::drain();
        crate::recorder::set_enabled(false);

        use crate::recorder::TracePhase;
        let begin = |name: &str| {
            events
                .iter()
                .find(|e| e.phase == TracePhase::Begin && e.name == name)
        };
        let outer = begin("causal_outer").expect("outer begin recorded");
        let inner = begin("causal_inner").expect("inner begin recorded");
        let leaf = begin("causal_leaf").expect("leaf begin recorded");
        assert_eq!(outer.parent_id, 0);
        assert_eq!(inner.parent_id, outer.span_id);
        // Root spans skip the stack but still report causal parentage.
        assert_eq!(leaf.parent_id, inner.span_id);
        // Every begin has its matching end.
        for b in [outer, inner, leaf] {
            assert!(
                events
                    .iter()
                    .any(|e| e.phase == TracePhase::End && e.span_id == b.span_id),
                "span {} must close",
                b.name
            );
        }
    }
}
