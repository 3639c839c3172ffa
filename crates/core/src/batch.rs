//! Batch query execution: answer many area queries over one engine,
//! optionally in parallel.
//!
//! The engine is immutable after construction and `Sync`; the only
//! per-query mutable state is the per-worker
//! [`QuerySession`]. The single batch entrypoint is
//! [`AreaQueryEngine::execute_batch`]: any [`QuerySpec`] over any slice of
//! areas, on any number of worker threads. Workers claim queries from a
//! **shared atomic work-stealing index** (one `fetch_add` per query, no
//! other coordination), so skewed query sizes never leave threads idle the
//! way fixed contiguous chunks did — the thread that drew three heavy
//! 32 %-size queries no longer gates the batch while its siblings sleep.
//! Results always come back in input order. This is the
//! throughput-oriented serving mode of a GIS backend, complementing the
//! paper's latency-oriented single-query evaluation.
//!
//! The batch path never inspects the spec's output mode: each worker's
//! session emits into the spec's sink (see [`crate::sink`]) and returns
//! the finished per-query [`QueryOutput`], so every output shape —
//! including kNN-within-area and payload materialisation — batches with
//! zero extra dispatch here.

use crate::area::QueryArea;
use crate::engine::AreaQueryEngine;
use crate::plan::{plan_batch, PlanFeatures, PlannedPath};
use crate::query::{PrepareMode, PreparedAreaCache, QueryOutput, QuerySession, QuerySpec};
use crate::stats::CacheCounters;
use crate::sync::par_map;
use std::sync::Arc;

/// Prepared-area resolution for one whole batch: each distinct area
/// fingerprint is query-compiled exactly once on the calling thread and
/// the immutable compiled form is shared (`Arc`) by every worker — and,
/// on the sharded engine, by every shard. The per-area counters replay
/// what a single batch-wide cache would have recorded: a miss on a
/// fingerprint's first (input-order) occurrence, a hit on every repeat.
pub(crate) struct BatchPreparedAreas {
    /// Per input area: the shared compiled form (`None` when the area has
    /// no prepared form and runs as-is).
    pub(crate) resolved: Vec<Option<Arc<dyn QueryArea + Send + Sync>>>,
    /// Per input area: the synthesized cache traffic (all zero unless the
    /// spec asked for [`PrepareMode::Cached`]).
    pub(crate) counters: Vec<CacheCounters>,
}

/// Resolves a batch's areas for `spec`. Returns `None` for
/// [`PrepareMode::Raw`] (areas run exactly as passed). For
/// [`PrepareMode::Cached`], distinct fingerprints are prepared once
/// through one unbounded [`PreparedAreaCache`] and shared; for
/// [`PrepareMode::PrepareOnce`], each area is prepared individually
/// (per-query semantics) but still off the workers' hot loop.
pub(crate) fn prepare_batch_shared<A: QueryArea>(
    spec: &QuerySpec,
    areas: &[A],
) -> Option<BatchPreparedAreas> {
    if spec.prepare == PrepareMode::Raw {
        return None;
    }
    let mut counters = vec![CacheCounters::default(); areas.len()];
    let mut cache = PreparedAreaCache::new(usize::MAX);
    let resolved = areas
        .iter()
        .zip(&mut counters)
        .map(|(area, counters)| {
            if spec.prepare == PrepareMode::PrepareOnce {
                return area.prepare().map(Arc::from);
            }
            cache.get_or_prepare(area.fingerprint()?, || area.prepare(), counters)
        })
        .collect();
    Some(BatchPreparedAreas { resolved, counters })
}

impl AreaQueryEngine {
    /// Executes `spec` over every area, on `threads` worker threads, and
    /// returns the outputs **in input order**.
    ///
    /// `threads <= 1` (or a batch of at most one query) runs sequentially
    /// on the calling thread with a single reused session. The parallel
    /// path gives each worker its own session and hands out queries
    /// through a shared atomic index (work stealing): a worker that
    /// finishes early keeps pulling work instead of idling behind a
    /// fixed chunk boundary.
    ///
    /// Preparation is hoisted out of the workers on **both** paths:
    /// under [`PrepareMode::Cached`](crate::PrepareMode) each
    /// **distinct** fingerprint is compiled exactly once per batch and
    /// the compiled form is shared by every worker (a repeated-area
    /// batch no longer re-prepares the same area once per worker, and a
    /// batch with more distinct areas than a session cache holds cannot
    /// thrash it), and the batch-wide hit/miss counters land in the
    /// returned stats: the first input-order occurrence of a fingerprint
    /// records the miss, every repeat a hit — exactly what one
    /// unbounded shared cache would have seen, independent of `threads`.
    ///
    /// A [`QuerySpec::auto()`] batch resolves every area's plan up front
    /// with a fresh [`Planner`](crate::Planner) and feeds nothing back,
    /// so its plans depend on neither worker interleaving nor earlier
    /// batches. The batch path has no session cache, so the planner
    /// never chooses `Cached` here ([`PlannedPath::Batch`] prepares per
    /// query instead). Each output carries its
    /// [`ExecutionPlan`](crate::ExecutionPlan).
    pub fn execute_batch<A: QueryArea + Sync>(
        &self,
        spec: &QuerySpec,
        areas: &[A],
        threads: usize,
    ) -> Vec<QueryOutput> {
        if spec.method.is_auto() {
            let bounds = self.data_bounds();
            let plans = plan_batch(spec, areas, |area| {
                PlanFeatures::of(
                    area,
                    area.fingerprint().is_some(),
                    self.len(),
                    self.density_map(),
                    bounds,
                    self.diagram_kind(),
                    PlannedPath::Batch,
                )
            });
            let mut outs = par_map(
                areas.len(),
                threads,
                || QuerySession::new(self),
                |session, i| session.execute(&plans[i].0, &areas[i]),
            );
            for (out, (_, plan)) in outs.iter_mut().zip(&plans) {
                out.stats_mut().plan = Some(*plan);
            }
            return outs;
        }
        // PrepareOnce keeps its documented per-query semantics (each
        // worker compiles per query); Raw has nothing to prepare. The
        // sequential path shares the once-per-batch preparation, so cache
        // counters (and the preparation count) do not depend on the
        // thread count — and a batch with more distinct areas than the
        // session LRU holds cannot thrash it.
        let shared = match spec.prepare {
            PrepareMode::Cached => prepare_batch_shared(spec, areas),
            PrepareMode::Raw | PrepareMode::PrepareOnce => None,
        };
        let raw_spec = spec.prepare(PrepareMode::Raw);
        par_map(
            areas.len(),
            threads,
            || QuerySession::new(self),
            |session, i| {
                let resolved = shared
                    .as_ref()
                    .and_then(|s| Some((s.resolved[i].as_deref()?, s.counters[i])));
                match resolved {
                    Some((prepared, counters)) => {
                        let mut out = session.execute(&raw_spec, prepared);
                        out.stats_mut().prepared_cache = counters;
                        out
                    }
                    None => session.execute(spec, &areas[i]),
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vaq_geom::{Point, Polygon};

    fn uniform(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    fn squares() -> Vec<Polygon> {
        (0..16)
            .map(|k| {
                let cx = 0.2 + 0.04 * f64::from(k);
                Polygon::new(vec![
                    Point::new(cx - 0.1, 0.3),
                    Point::new(cx + 0.1, 0.3),
                    Point::new(cx + 0.1, 0.6),
                    Point::new(cx - 0.1, 0.6),
                ])
                .unwrap()
            })
            .collect()
    }

    fn collect(outs: Vec<QueryOutput>) -> Vec<crate::QueryResult> {
        outs.into_iter()
            .map(|o| o.into_result().expect("collect output"))
            .collect()
    }

    #[test]
    fn batch_matches_individual_queries() {
        let engine = AreaQueryEngine::build(&uniform(3000, 17));
        let areas = squares();
        let batch = collect(engine.execute_batch(&QuerySpec::voronoi(), &areas, 1));
        for (area, got) in areas.iter().zip(&batch) {
            let single = engine.execute(&QuerySpec::voronoi(), area);
            assert_eq!(
                got.sorted_indices(),
                single.result().unwrap().sorted_indices()
            );
        }
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let engine = AreaQueryEngine::build(&uniform(3000, 18));
        let areas = squares();
        let seq = collect(engine.execute_batch(&QuerySpec::voronoi(), &areas, 1));
        for threads in [1, 2, 4, 7] {
            let par = collect(engine.execute_batch(&QuerySpec::voronoi(), &areas, threads));
            assert_eq!(par.len(), seq.len());
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.indices, b.indices, "threads={threads}");
                assert_eq!(a.stats.candidates, b.stats.candidates);
            }
        }
    }

    #[test]
    fn prepared_batch_matches_raw_batch() {
        let engine = AreaQueryEngine::build(&uniform(3000, 21));
        let areas = squares();
        let prepared_spec = QuerySpec::voronoi().prepare(PrepareMode::PrepareOnce);
        let raw = collect(engine.execute_batch(&QuerySpec::voronoi(), &areas, 1));
        for threads in [1, 2, 4] {
            let prepared = collect(engine.execute_batch(&prepared_spec, &areas, threads));
            assert_eq!(raw.len(), prepared.len());
            for (a, b) in raw.iter().zip(&prepared) {
                assert_eq!(a.indices, b.indices, "threads={threads}");
                assert_eq!(a.stats.candidates, b.stats.candidates);
                assert_eq!(a.stats.segment_tests, b.stats.segment_tests);
            }
        }
    }

    /// A repeated-area cached batch compiles each distinct fingerprint
    /// once for the whole batch (not once per worker) and the merged
    /// hit/miss counters come back in the per-query stats: first
    /// input-order occurrence = miss, every repeat = hit.
    #[test]
    fn cached_parallel_batch_prepares_each_fingerprint_once() {
        let engine = AreaQueryEngine::build(&uniform(2000, 23));
        let distinct = squares();
        let mut areas = Vec::new();
        for _ in 0..3 {
            areas.extend(distinct.iter().cloned());
        }
        let spec = QuerySpec::voronoi().prepare(PrepareMode::Cached);
        let raw = engine.execute_batch(&QuerySpec::voronoi(), &areas, 1);
        // threads = 1 included: the sequential path shares the same
        // once-per-batch preparation, so counters are thread-independent.
        for threads in [1, 2, 4, 8] {
            let outs = engine.execute_batch(&spec, &areas, threads);
            let misses: u64 = outs.iter().map(|o| o.stats().prepared_cache.misses).sum();
            let hits: u64 = outs.iter().map(|o| o.stats().prepared_cache.hits).sum();
            assert_eq!(
                misses,
                distinct.len() as u64,
                "one preparation per distinct area (threads={threads})"
            );
            assert_eq!(
                hits,
                (areas.len() - distinct.len()) as u64,
                "every repeat is a hit (threads={threads})"
            );
            for (i, out) in outs.iter().enumerate() {
                let want = if i < distinct.len() {
                    crate::stats::CacheCounters { hits: 0, misses: 1 }
                } else {
                    crate::stats::CacheCounters { hits: 1, misses: 0 }
                };
                assert_eq!(
                    out.stats().prepared_cache,
                    want,
                    "query {i}, threads={threads}"
                );
                assert_eq!(
                    out.result().unwrap().indices,
                    raw[i].result().unwrap().indices,
                    "query {i}, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn empty_batch() {
        let engine = AreaQueryEngine::build(&uniform(100, 19));
        let areas: Vec<Polygon> = Vec::new();
        for threads in [1, 4] {
            assert!(engine
                .execute_batch(&QuerySpec::voronoi(), &areas, threads)
                .is_empty());
        }
    }
}
