//! The concurrency facade: the engine's one work-stealing loop and the
//! one piece of mutable state its threads share.
//!
//! The paper's Algorithm 1 runs one sequential BFS per area; the engine
//! parallelises across areas and shards only. Workers share their inputs
//! (the engine, spec, areas, prepared areas, the shard partition and the
//! logical record store) by `&`, immutably, and own everything they
//! mutate. The **only cross-thread mutable state** is the
//! [`ClaimCounter`] inside [`par_map`]: one `fetch_add` per item, with
//! results stitched back in index order after the join.
//!
//! * **Work distribution** — batch execution (one executor for the
//!   single-engine and the sharded batch, planned or not) and the
//!   parallel shard build all run on [`par_map`]. A batch resolves every
//!   plan and preparation before its workers start, so no planner or
//!   cache is shared; the sharded engine folds per-shard stats on the
//!   calling thread after [`par_map`] returns; each shard-build worker
//!   copies its own shard's records out of the shared logical store.
//! * **The dynamic engine** (`DynamicAreaQueryEngine`) mutates its delta,
//!   tombstones and compaction state through `&mut self`: callers that
//!   share one synchronise externally, and it takes no lock itself.
//!
//! The `sync-facade` vaq-lint rule keeps raw `std::sync` primitives out
//! of the rest of the tree, so every piece of cross-thread mutable state
//! is declared and justified in this one module.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Scoped threads, the engine's worker fan-out (see [`par_map`]).
pub use std::thread::scope;

/// The work-stealing claim counter: the one claim primitive behind
/// [`par_map`], and so behind every parallel loop in the engine.
///
/// Workers repeatedly [`claim`](ClaimCounter::claim) the next work index
/// until the returned index runs past the work list. Each index is
/// handed to exactly one worker (the counter never skips and never
/// repeats: `fetch_add` is atomic), and a worker that finishes early
/// keeps claiming instead of idling behind a fixed chunk boundary.
#[derive(Debug, Default)]
pub struct ClaimCounter {
    next: AtomicUsize,
}

impl ClaimCounter {
    /// A fresh counter starting at index 0.
    pub fn new() -> ClaimCounter {
        ClaimCounter {
            next: AtomicUsize::new(0),
        }
    }

    /// Claims and returns the next work index. Every call returns a
    /// distinct index, in allocation order 0, 1, 2, … across all
    /// claiming threads.
    #[inline]
    pub fn claim(&self) -> usize {
        // ordering: Relaxed suffices for the claim counter — the
        // returned index is the *only* information a worker acts on
        // (the work list itself is immutable and was published by the
        // scope/spawn edge), so no other memory traffic needs to be
        // ordered against the fetch_add; its atomicity alone guarantees
        // uniqueness of the handed-out indices.
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

/// Maps `f` over `0..n` on up to `threads` scoped workers and returns the
/// results **in index order** — the one work-stealing loop behind every
/// parallel path in the engine (the batch executor's `(area, part)`
/// items, and the parallel shard build).
///
/// Workers claim indices from one shared [`ClaimCounter`], so a worker
/// that finishes early keeps pulling work instead of idling behind a
/// fixed chunk boundary. Each worker owns the state `init` creates for
/// it (the batch executor's per-part scratch) and lends it to every `f`
/// call it makes. With `threads <= 1 || n <= 1` everything runs on the
/// calling thread with a single state, in ascending index order.
pub fn par_map<S, T, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let next = ClaimCounter::new();
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                let (next, init, f) = (&next, &init, &f);
                scope.spawn(move || {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let i = next.claim();
                        if i >= n {
                            break;
                        }
                        done.push((i, f(&mut state, i)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            // A worker's panic re-raises here with its own payload, so a
            // documented panic message reads the same on any thread count.
            let done = h
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, out) in done {
                slots[i] = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index is claimed exactly once"))
        .collect()
}

/// Resolves a requested worker-thread count: `0` auto-tunes to the
/// machine's [`std::thread::available_parallelism`] (at least 1),
/// anything else passes through. The CLI exposes the sentinel as
/// `--threads auto`/`--threads 0`, exactly like `--shards auto`; the
/// sharded engine's shard-count auto-tuning resolves through the same
/// function.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_counter_hands_out_sequential_indices() {
        let c = ClaimCounter::new();
        assert_eq!(c.claim(), 0);
        assert_eq!(c.claim(), 1);
        assert_eq!(c.claim(), 2);
        let d = ClaimCounter::default();
        assert_eq!(d.claim(), 0);
    }

    #[test]
    fn claim_counter_is_unique_across_threads() {
        let c = ClaimCounter::new();
        let mut all: Vec<usize> = scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = &c;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let i = c.claim();
                            if i >= 64 {
                                break;
                            }
                            mine.push(i);
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("claim worker does not panic"))
                .collect()
        });
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_returns_index_order_with_per_worker_state() {
        for threads in [0, 1, 2, 4, 9] {
            // Each worker's state counts the items it ran; results come
            // back in index order whatever the interleaving.
            let out = par_map(
                32,
                threads,
                || 0usize,
                |seen, i| {
                    *seen += 1;
                    (i * i, *seen)
                },
            );
            assert_eq!(
                out.iter().map(|&(sq, _)| sq).collect::<Vec<_>>(),
                (0..32).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
            if threads <= 1 {
                // One state on the calling thread, ascending order.
                assert_eq!(
                    out.iter().map(|&(_, seen)| seen).collect::<Vec<_>>(),
                    (1..=32).collect::<Vec<_>>()
                );
            }
        }
        assert!(par_map(0, 4, || (), |_, i| i).is_empty());
    }

    #[test]
    fn par_map_runs_each_index_once_under_skewed_work() {
        // Item 5 costs about 100x the others, so the worker holding it
        // falls behind while the rest drain the counter. A double claim
        // would silently overwrite its slot, so the calls are counted.
        let n = 64;
        let work = |i: usize| -> u64 {
            let rounds = if i == 5 { 200_000 } else { 2_000 };
            (0..rounds).fold(i as u64, |acc, r| {
                std::hint::black_box(acc.wrapping_mul(31).wrapping_add(r))
            })
        };
        for threads in [1, 2, 3, 8] {
            let calls = AtomicUsize::new(0);
            let out = par_map(
                n,
                threads,
                || (),
                |_, i| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    (i, work(i))
                },
            );
            assert_eq!(calls.into_inner(), n, "threads={threads}");
            for (at, &(i, w)) in out.iter().enumerate() {
                assert_eq!((i, w), (at, work(at)), "threads={threads}");
            }
        }
    }

    /// A worker's panic reaches the caller with its own payload, so a
    /// documented panic message reads the same on any thread count.
    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn par_map_reraises_the_worker_panic_payload() {
        par_map(
            16,
            2,
            || (),
            |_, i| {
                assert!(i != 5, "item {i} failed");
                i
            },
        );
    }

    #[test]
    fn resolve_threads_auto_tunes_zero() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(
            resolve_threads(0),
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        );
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }
}
