//! The per-area step every query runs first, and the batch executor.
//!
//! Every query path plans and prepares its area in one place,
//! `Resolved::new`, and runs it on one part in one place,
//! `Resolved::run`. A [`QuerySession`](crate::QuerySession) is the
//! executor's one-area, one-part case: it resolves each area with its own
//! 64-entry LRU cache and calibrating planner and runs it on its own
//! scratch. The dynamic engine is the same case, with its tombstone flags
//! and delta-grid scan on top.
//!
//! Both engines' `execute_batch` run `Batch`. It resolves every area
//! once on the calling thread, with one fresh planner and one cache that
//! never evicts, then runs `(area, part)` work items on [`par_map`], where
//! a **part** is an engine plus the map from its local ids to output ids.
//! The plain engine is one part that every area runs on
//! ([`AreaQueryEngine::execute_batch`]); the sharded engine's parts are
//! its shards, and its work list keeps the pairs that survive MBR pruning
//! ([`ShardedAreaQueryEngine::execute_batch`](crate::ShardedAreaQueryEngine::execute_batch)).
//!
//! Workers claim items from a **shared atomic work-stealing index** (one
//! `fetch_add` per item, no other coordination), so skewed query sizes
//! never leave threads idle behind a fixed chunk boundary. Each worker
//! owns one scratch per part; the engine, the areas and their compiled
//! forms are shared by `&`. Results always come back in input order,
//! whatever the thread count. This is the throughput-oriented serving
//! mode of a GIS backend, complementing the paper's latency-oriented
//! single-query evaluation.
//!
//! The executor never inspects the spec's output mode: each item emits
//! into the spec's sink (see [`crate::sink`]) and returns its partial, so
//! every output shape batches with no extra dispatch here.

use crate::area::{AreaFingerprint, QueryArea};
use crate::engine::AreaQueryEngine;
use crate::plan::{ExecutionPlan, PlanFeatures, PlannedPath, Planner};
use crate::query::{PrepareMode, QueryOutput, QuerySpec};
use crate::scratch::QueryScratch;
use crate::sink::{Partial, Sink, SinkId};
use crate::stats::{CacheCounters, QueryStats};
use crate::sync::par_map;
use std::collections::HashMap;
use std::sync::Arc;
use vaq_geom::Point;

/// An area's compiled form, shared by every part and worker that runs it.
type Prepared = Arc<dyn QueryArea + Send + Sync>;

/// Prepared areas keyed by content fingerprint. A session holds
/// [`DEFAULT_CACHE_CAPACITY`](crate::DEFAULT_CACHE_CAPACITY) of them and
/// evicts the least recently used; a batch deduplicates its areas
/// through one that never evicts. Entries are `Arc` (not `Rc`), so every
/// owner of a cache (`QuerySession`, `DynamicAreaQueryEngine`) stays
/// `Send`.
pub(crate) struct PreparedAreaCache {
    capacity: usize,
    /// Each compiled form with the tick of its last use.
    entries: HashMap<AreaFingerprint, (Prepared, u64)>,
    /// The lookup clock the use stamps read.
    tick: u64,
}

impl PreparedAreaCache {
    /// An empty cache that holds at most `capacity` areas.
    pub(crate) fn new(capacity: usize) -> PreparedAreaCache {
        PreparedAreaCache {
            capacity,
            entries: HashMap::new(),
            tick: 0,
        }
    }

    /// Returns the cached compiled form of `fp`, preparing it via `build`
    /// on a miss, which evicts the least recently used entry when the
    /// cache is full. `delta` records the hit or miss. Returns `None` when
    /// `build` yields `None` (the area has no prepared form).
    fn get_or_prepare(
        &mut self,
        fp: AreaFingerprint,
        build: impl FnOnce() -> Option<Box<dyn QueryArea + Send + Sync>>,
        delta: &mut CacheCounters,
    ) -> Option<Prepared> {
        self.tick += 1;
        if let Some((prepared, used)) = self.entries.get_mut(&fp) {
            delta.hits += 1;
            *used = self.tick;
            return Some(Arc::clone(prepared));
        }
        let prepared: Prepared = Arc::from(build()?);
        delta.misses += 1;
        if self.entries.len() == self.capacity {
            let oldest = self.entries.values().map(|&(_, used)| used).min();
            self.entries
                .retain(|_, &mut (_, used)| Some(used) != oldest);
        }
        self.entries.insert(fp, (Arc::clone(&prepared), self.tick));
        Some(prepared)
    }

    /// Number of prepared areas held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One area, planned and prepared: what every query path decides before
/// the search runs.
pub(crate) struct Resolved {
    /// The explicit spec the area runs, its preparation already done.
    spec: QuerySpec,
    /// The planner's decision and the area's vertex count (which
    /// [`Planner::observed_cost`] needs), for an auto spec.
    pub(crate) plan: Option<(ExecutionPlan, usize)>,
    /// The compiled form every part shares (`None`: run the area as
    /// passed).
    prepared: Option<Prepared>,
    /// The area's cache traffic.
    pub(crate) cache: CacheCounters,
}

impl Resolved {
    /// Plans and prepares `area` for `spec`.
    ///
    /// The area is fingerprinted at most once, under an auto spec or
    /// [`PrepareMode::Cached`] only. An auto spec is planned by `planner`
    /// from `features(area, cacheable)`, with `cached` read from `cache`.
    /// The area is then prepared by the resolved spec: `Raw` prepares
    /// nothing, `PrepareOnce` compiles the area, and `Cached` goes through
    /// `cache`; an area without a fingerprint runs as passed.
    pub(crate) fn new<A: QueryArea + ?Sized>(
        spec: &QuerySpec,
        area: &A,
        cache: &mut PreparedAreaCache,
        planner: &Planner,
        features: impl FnOnce(&A, bool) -> PlanFeatures,
    ) -> Resolved {
        let auto = spec.method.is_auto();
        let fp = (auto || spec.prepare == PrepareMode::Cached)
            .then(|| area.fingerprint())
            .flatten();
        let (spec, plan) = if auto {
            let features = PlanFeatures {
                cached: fp.as_ref().is_some_and(|fp| cache.entries.contains_key(fp)),
                ..features(area, fp.is_some())
            };
            let (spec, plan) = planner.resolve(spec, &features);
            (spec, Some((plan, features.vertices)))
        } else {
            (*spec, None)
        };
        let mut traffic = CacheCounters::default();
        let prepared = match spec.prepare {
            PrepareMode::Raw => None,
            PrepareMode::PrepareOnce => area.prepare().map(Arc::from),
            PrepareMode::Cached => {
                fp.and_then(|fp| cache.get_or_prepare(fp, || area.prepare(), &mut traffic))
            }
        };
        Resolved {
            spec: spec.prepare(PrepareMode::Raw),
            plan,
            prepared,
            cache: traffic,
        }
    }

    /// Runs the area on one part: `engine`'s emission core over the
    /// compiled form when there is one, otherwise over `area`.
    #[allow(clippy::too_many_arguments)] // the emission core's explicit inputs
    pub(crate) fn run<A, I, F>(
        &self,
        engine: &AreaQueryEngine,
        area: &A,
        scratch: &mut Option<QueryScratch>,
        sink: Sink,
        partial: &mut Partial<I>,
        map: &F,
        stats: &mut QueryStats,
    ) where
        A: QueryArea + ?Sized,
        I: SinkId,
        F: Fn(u32) -> Option<I>,
    {
        match self.prepared.as_deref() {
            Some(prepared) => {
                engine.run_sink(&self.spec, prepared, scratch, sink, partial, map, stats);
            }
            None => engine.run_sink(&self.spec, area, scratch, sink, partial, map, stats),
        }
    }

    /// Closed containment of `p` in the area as it runs: the compiled form
    /// when there is one, otherwise `area`.
    pub(crate) fn contains<A: QueryArea + ?Sized>(&self, area: &A, p: Point) -> bool {
        match self.prepared.as_deref() {
            Some(prepared) => prepared.contains(p),
            None => area.contains(p),
        }
    }

    /// Attaches the plan and the cache traffic to the area's stats.
    pub(crate) fn finish(&self, stats: &mut QueryStats) {
        stats.plan = self.plan.map(|(plan, _)| plan);
        stats.prepared_cache = self.cache;
    }
}

/// One part of a batch: an engine and the map from its local ids to
/// output ids (`None` when the ids map to themselves).
pub(crate) type Part<'e> = (&'e AreaQueryEngine, Option<&'e [u32]>);

/// The batch executor: a batch's areas, planned and prepared.
pub(crate) struct Batch<'a, A> {
    areas: &'a [A],
    resolved: Vec<Resolved>,
    /// The spec's sink; a plan never changes the output.
    pub(crate) sink: Sink,
}

impl<'a, A: QueryArea + Sync> Batch<'a, A> {
    /// Resolves every area on the calling thread (see [`Resolved::new`]).
    ///
    /// One fresh [`Planner`] that observes nothing plans every area of an
    /// auto spec, so the plans depend on neither the thread count nor
    /// earlier batches; `features(area, cacheable)` describes an area to
    /// it. One cache that never evicts serves the whole batch: a
    /// fingerprint's first occurrence in input order is a miss and every
    /// repeat a hit, whatever the thread count.
    pub(crate) fn new(
        spec: &QuerySpec,
        areas: &'a [A],
        features: impl Fn(&A, bool) -> PlanFeatures,
    ) -> Batch<'a, A> {
        let planner = Planner::default();
        let mut cache = PreparedAreaCache::new(usize::MAX);
        let resolved = areas
            .iter()
            .map(|area| Resolved::new(spec, area, &mut cache, &planner, &features))
            .collect();
        Batch {
            areas,
            resolved,
            sink: Sink::of(spec.output),
        }
    }

    /// Runs the `(area, part)` items of `work` on `threads` workers and
    /// returns each item's partial and stats, in `work` order. Each
    /// worker keeps one scratch per part, made on its first Voronoi
    /// query.
    pub(crate) fn run(
        &self,
        parts: &[Part<'_>],
        work: &[(u32, u32)],
        threads: usize,
    ) -> Vec<(Partial<u32>, QueryStats)> {
        par_map(
            work.len(),
            threads,
            || -> Vec<Option<QueryScratch>> { parts.iter().map(|_| None).collect() },
            |scratch, w| {
                let (ai, pi) = (work[w].0 as usize, work[w].1 as usize);
                let (engine, ids) = parts[pi];
                let map = |local: u32| Some(ids.map_or(local, |ids| ids[local as usize]));
                let mut stats = QueryStats::default();
                let mut partial = Partial::default();
                self.resolved[ai].run(
                    engine,
                    &self.areas[ai],
                    &mut scratch[pi],
                    self.sink,
                    &mut partial,
                    &map,
                    &mut stats,
                );
                stats.result_size = partial.len();
                (partial, stats)
            },
        )
    }

    /// Attaches area `area`'s plan and cache traffic to its stats.
    pub(crate) fn finish(&self, area: usize, stats: &mut QueryStats) {
        self.resolved[area].finish(stats);
    }
}

impl AreaQueryEngine {
    /// The planner's features of a query over `area` on this engine, on
    /// `path`; `cacheable` says whether the area has a prepared form.
    pub(crate) fn plan_features<A: QueryArea + ?Sized>(
        &self,
        area: &A,
        cacheable: bool,
        path: PlannedPath,
    ) -> PlanFeatures {
        PlanFeatures::of(
            area,
            cacheable,
            self.len(),
            self.density_map(),
            self.data_bounds(),
            self.diagram_kind(),
            path,
        )
    }

    /// Executes `spec` over every area, on `threads` worker threads, and
    /// returns the outputs **in input order**, each equal to the
    /// session path's answer and stats (ids in emission order).
    ///
    /// The engine is the batch's one part, and every area runs on it:
    /// nothing is pruned, so an area off the data still seeds and
    /// validates as it would in a session. `threads <= 1` (or a batch of
    /// at most one area) runs on the calling thread.
    ///
    /// Preparation happens on the calling thread before the workers
    /// start. Under [`PrepareMode::Cached`] each **distinct**
    /// fingerprint is compiled once per batch and shared by every
    /// worker: its first input-order occurrence records the miss, every
    /// repeat a hit, independent of `threads`.
    ///
    /// A [`QuerySpec::auto()`] batch plans every area up front with a
    /// fresh [`Planner`] and feeds nothing back, so its plans depend on
    /// neither worker interleaving nor earlier batches. The batch keeps
    /// no cache across calls, so the planner never chooses `Cached` here
    /// ([`PlannedPath::Batch`] prepares per query instead). Each output
    /// carries its [`ExecutionPlan`].
    pub fn execute_batch<A: QueryArea + Sync>(
        &self,
        spec: &QuerySpec,
        areas: &[A],
        threads: usize,
    ) -> Vec<QueryOutput> {
        let batch = Batch::new(spec, areas, |area, cacheable| {
            self.plan_features(area, cacheable, PlannedPath::Batch)
        });
        let work: Vec<(u32, u32)> = (0..areas.len() as u32).map(|ai| (ai, 0)).collect();
        batch
            .run(&[(self, None)], &work, threads)
            .into_iter()
            .enumerate()
            .map(|(ai, (partial, mut stats))| {
                batch.finish(ai, &mut stats);
                batch.sink.output(partial, stats)
            })
            .collect()
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

    /// Each batch area is fingerprinted once: for the plan's `cacheable`
    /// feature under `auto`, for deduplication under `Cached`; never once
    /// per part or per worker.
    #[test]
    fn batch_areas_are_fingerprinted_once() {
        use crate::area::AreaFingerprint;
        use crate::shard::ShardedAreaQueryEngine;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use vaq_geom::{Rect, Segment};

        /// A polygon that counts its `fingerprint` calls.
        struct Counted(Polygon, AtomicUsize);
        impl QueryArea for Counted {
            fn mbr(&self) -> Rect {
                self.0.mbr()
            }
            fn contains(&self, q: Point) -> bool {
                self.0.contains(q)
            }
            fn boundary_intersects_segment(&self, seg: &Segment) -> bool {
                self.0.boundary_intersects_segment(seg)
            }
            fn intersects_polygon(&self, poly: &Polygon) -> bool {
                QueryArea::intersects_polygon(&self.0, poly)
            }
            fn interior_point(&self) -> Point {
                self.0.interior_point()
            }
            fn complexity(&self) -> usize {
                self.0.len()
            }
            fn fingerprint(&self) -> Option<AreaFingerprint> {
                self.1.fetch_add(1, Ordering::SeqCst);
                QueryArea::fingerprint(&self.0)
            }
            fn prepare(&self) -> Option<Box<dyn QueryArea + Send + Sync>> {
                QueryArea::prepare(&self.0)
            }
        }

        let pts = uniform(1500, 29);
        let plain = AreaQueryEngine::build(&pts);
        let sharded = ShardedAreaQueryEngine::build(&pts, 3);
        let specs = [
            QuerySpec::auto(),
            QuerySpec::voronoi().prepare(PrepareMode::Cached),
        ];
        for spec in specs {
            let areas: Vec<Counted> = squares()
                .into_iter()
                .step_by(4)
                .map(|sq| Counted(sq, AtomicUsize::new(0)))
                .collect();
            assert_eq!(areas.len(), 4);
            let calls = |areas: &[Counted]| -> usize {
                areas.iter().map(|a| a.1.swap(0, Ordering::SeqCst)).sum()
            };
            plain.execute_batch(&spec, &areas, 2);
            assert_eq!(calls(&areas), 4, "plain {spec:?}");
            sharded.execute_batch(&spec, &areas, 2);
            assert_eq!(calls(&areas), 4, "sharded {spec:?}");
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
