//! Deterministic fork-join helpers shared by every parallel code path in
//! the suite.
//!
//! All parallelism in this workspace follows one discipline: the work list
//! and any RNG seeds are derived *before* the fork, each item is processed
//! independently, and results are re-assembled in input order. The output
//! is therefore bit-identical to the sequential path regardless of thread
//! count or scheduling — the invariant the forest, GBDT, LightGBM and
//! pipeline determinism tests assert.

/// Maps `f` over `items` in input order, splitting the slice across up to
/// `n_threads` scoped worker threads.
///
/// `n_threads <= 1` (or a short input) runs inline with no threads spawned.
/// Workers process contiguous chunks and the chunk results are concatenated
/// in order, so the result is always exactly
/// `items.iter().map(f).collect()`.
///
/// # Panics
///
/// Panics if a worker thread panics (the worker's panic is propagated).
pub fn ordered_map<T, R, F>(items: &[T], n_threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if n_threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let n_threads = n_threads.min(items.len());
    let chunks: Vec<&[T]> = items.chunks(items.len().div_ceil(n_threads)).collect();
    cordial_obs::counter!("parallel.forks").inc();
    cordial_obs::counter!("parallel.tasks").add(chunks.len() as u64);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    // Per-worker utilisation: each chunk's wall-clock time
                    // lands in `span.parallel.task.seconds`. This family is
                    // thread-count-dependent by nature and is excluded from
                    // `Snapshot::digest`.
                    let _span = cordial_obs::span!("parallel.task");
                    chunk.iter().map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// [`ordered_map`] over an index range: maps `f` over `0..len` in order.
///
/// Convenient when the work items are positions into shared state (class
/// indices, bank indices) rather than a materialised slice.
pub fn ordered_map_indexed<R, F>(len: usize, n_threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..len).collect();
    ordered_map(&indices, n_threads, |&i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for n_threads in [0, 1, 2, 3, 4, 7, 97, 200] {
            let got = ordered_map(&items, n_threads, |&x| x * x + 1);
            assert_eq!(got, expected, "n_threads={n_threads}");
        }
    }

    #[test]
    fn indexed_variant_preserves_order() {
        let got = ordered_map_indexed(10, 4, |i| i * 2);
        assert_eq!(got, vec![0, 2, 4, 6, 8, 10, 12, 14, 16, 18]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(ordered_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(ordered_map(&[5], 4, |&x| x + 1), vec![6]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            ordered_map(&[1, 2, 3, 4], 2, |&x| {
                assert!(x < 3, "boom");
                x
            })
        });
        // The caller sees the worker's own panic, not a wrapper.
        let Err(payload) = result else {
            panic!("a worker panic must reach the caller");
        };
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert_eq!(message, Some("boom"));
    }
}
