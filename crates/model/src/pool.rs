//! The one worker pool of the workspace.
//!
//! [`cell_map`] maps a function over a slice on scoped threads and
//! returns the results in input order. Every parallel loop goes through
//! it: the sweep runner's cells (`vne_sim::runner::run_cells`), the
//! shard coordinator's per-shard steps and plan builds (`vne-shard`),
//! and the plan's per-class bootstrap (`vne-workload`).
//!
//! Workers pull the next cell from a shared counter, so a slow cell does
//! not hold back the others. Each worker collects into its own buffer;
//! there is no shared result mutex to poison. If a cell panics, the
//! surviving workers finish their cells, and the map then re-raises the
//! **original** panic payload (not a poisoned-mutex secondary panic).
//!
//! A map called from inside a worker (a sweep cell whose plan build
//! bootstraps its classes) runs on that worker's thread: the pool does
//! not nest, so a sweep never runs more threads than it has workers.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Whether this thread is a [`cell_map`] worker.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The pool's worker count: `available_parallelism`, or 4 where the
/// platform cannot tell.
///
/// Hidden: not an option. Only callers that must pass the default to
/// [`cell_map_on`] use it.
#[doc(hidden)]
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Maps `f` over `cells` on up to [`workers`] threads and returns the
/// results **in cell order**.
pub fn cell_map<T, R, F>(cells: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    cell_map_on(workers(), cells, f)
}

/// [`cell_map`] on at most `workers` threads (at least one). With one
/// worker, or inside a worker of another map, the cells run in order on
/// the calling thread.
///
/// Hidden: the worker count is not an option. This is the seam through
/// which oracle tests vary it (a parallel map must give the sequential
/// loop's result for every count); everything else calls [`cell_map`].
#[doc(hidden)]
pub fn cell_map_on<T, R, F>(workers: usize, cells: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.clamp(1, cells.len().max(1));
    if workers == 1 || IN_WORKER.with(Cell::get) {
        return cells.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);

    let worker_results: Vec<std::thread::Result<Vec<(usize, R)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut local = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= cells.len() {
                            break;
                        }
                        local.push((idx, f(&cells[idx])));
                    }
                    local
                })
            })
            .collect();
        // Join every worker before leaving the scope: a second panic
        // must not surface while the first is already unwinding (that
        // would abort), and survivors get to finish their cells.
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut collected = Vec::with_capacity(cells.len());
    let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
    for result in worker_results {
        match result {
            Ok(local) => collected.extend(local),
            Err(payload) => panic = panic.or(Some(payload)),
        }
    }
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    collected.sort_by_key(|(idx, _)| *idx);
    collected.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string payload>")
    }

    #[test]
    fn cell_map_propagates_the_real_panic_message() {
        // The regression: a panicking worker used to poison the shared
        // results mutex, so the surviving workers died on a secondary
        // "runner mutex poisoned" panic that masked the original one.
        // With per-worker buffers the original payload must surface.
        for workers in 1..=5 {
            let result = std::panic::catch_unwind(|| {
                cell_map_on(workers, &[1u64, 2, 3, 4, 5], |&seed| {
                    if seed == 3 {
                        panic!("seed 3 exploded with code 42");
                    }
                    seed * 2
                })
            });
            let payload = result.expect_err("the panic must propagate");
            let message = panic_message(payload.as_ref());
            assert!(
                message.contains("seed 3 exploded with code 42"),
                "the original panic was masked on {workers} workers: {message:?}"
            );
        }
    }

    #[test]
    fn cell_map_returns_results_in_cell_order() {
        let cells: Vec<u32> = (0..37).collect();
        let doubled = cell_map(&cells, |&c| c * 2);
        assert_eq!(doubled, cells.iter().map(|c| c * 2).collect::<Vec<_>>());
        for workers in [0, 1, 2, 5, 100] {
            assert_eq!(cell_map_on(workers, &cells, |&c| c * 2), doubled);
        }
        let empty: Vec<u32> = cell_map(&[] as &[u32], |&c| c);
        assert!(empty.is_empty());
    }

    #[test]
    fn a_map_inside_a_worker_runs_on_that_worker() {
        let outer: Vec<u32> = (0..4).collect();
        let threads = cell_map_on(2, &outer, |_| {
            let here = std::thread::current().id();
            let inner: Vec<u32> = (0..8).collect();
            cell_map_on(4, &inner, |_| std::thread::current().id())
                .into_iter()
                .all(|id| id == here)
        });
        assert_eq!(threads, vec![true; 4]);
    }
}
