//! The unified query surface: [`QuerySpec`] describes *what* to run,
//! [`QuerySession`] owns the per-caller state needed to run it.
//!
//! The paper's evaluation is a grid over independent axes — query method,
//! expansion policy, prepared-or-raw area, and output shape. Both methods
//! run on one R-tree, as in the paper: its window query is the traditional
//! filter and its nearest-neighbour query the Voronoi seed. The tree is
//! packed along the triangulation's Hilbert order, so the traditional
//! method emits in that order. Instead of one entrypoint per grid cell,
//! [`QuerySpec`] is a plain-data point in that grid and every single
//! query funnels through [`QuerySession::execute`]:
//!
//! ```
//! use vaq_core::{ExpansionPolicy, OutputMode, QuerySpec};
//! use vaq_geom::{Point, Polygon};
//!
//! let pts: Vec<Point> = (0..100)
//!     .map(|i| Point::new((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0))
//!     .collect();
//! let engine = vaq_core::AreaQueryEngine::build(&pts);
//! let area = Polygon::new(vec![
//!     Point::new(0.05, 0.05),
//!     Point::new(0.85, 0.10),
//!     Point::new(0.40, 0.85),
//! ]).unwrap();
//!
//! let mut session = engine.session();
//! let spec = QuerySpec::voronoi().policy(ExpansionPolicy::Cell);
//! let collected = session.execute(&spec, &area);
//! let counted = session.execute(&spec.output(OutputMode::Count), &area);
//! assert_eq!(collected.count(), counted.count());
//! ```
//!
//! A session is the batch executor's one-area, one-part case (see
//! [`crate::batch`]): each query is planned and prepared by the same step
//! a batch runs per area, then runs on the session's engine. What the
//! session adds is the state a caller wants amortised across queries:
//!
//! * the reusable [`QueryScratch`] (epoch-stamped visited set — avoids an
//!   `O(n)` allocation per Voronoi query), created lazily on the first
//!   query that needs it;
//! * a **prepared-area cache** of [`DEFAULT_CACHE_CAPACITY`] entries,
//!   keyed by a content hash of the area's vertices
//!   ([`AreaFingerprint`](crate::AreaFingerprint)) and evicting the least
//!   recently used. Dashboard-style workloads ask the same handful of
//!   areas over and over; with [`PrepareMode::Cached`] the expensive
//!   query-compilation (slab index + edge grid, see `vaq_geom::prepared`)
//!   happens once per distinct area and every repeat is served from the
//!   cache. Hit/miss counters are surfaced per query in
//!   [`QueryStats::prepared_cache`] and as session totals in
//!   [`QuerySession::cache_counters`];
//! * the cost-model [`Planner`] behind [`QuerySpec::auto()`], which
//!   calibrates on every planned query the session runs.
//!
//! Results are **bit-identical across the `prepare` axis** — the prepared
//! layer is exact, so `Raw`, `PrepareOnce` and `Cached` return the same
//! indices and the same work counters. Only the two *how*-was-it-computed
//! fields differ: the cache counters, and the exact-predicate pipeline
//! split ([`QueryStats::predicates`]). Raw areas skip most orientations
//! too, deciding every edge whose box misses the probe by coordinate
//! comparisons, but prepared areas examine fewer edges per primitive.

use crate::area::QueryArea;
use crate::batch::{PreparedAreaCache, Resolved};
use crate::engine::{AreaQueryEngine, QueryResult};
use crate::plan::{PlannedPath, Planner};
use crate::scratch::QueryScratch;
use crate::sink::{Neighbor, Partial, Sink, SinkId};
use crate::stats::{CacheCounters, QueryStats};
use crate::traditional::refine_each;
use crate::voronoi_query::{
    arbitrary_position_in, voronoi_area_query_with_boundary, ExpansionPolicy,
};
use vaq_geom::Point;
use vaq_rtree::AccessStats;

/// Which algorithm answers the query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueryMethod {
    /// Traditional filter–refine: window query with `MBR(A)` on the
    /// R-tree, exact validation of every candidate (the paper's
    /// baseline).
    Traditional,
    /// The paper's Algorithm 1: seed with the nearest site to a point of
    /// `A`, BFS over Voronoi neighbours (the default, as in the paper).
    #[default]
    Voronoi,
    /// Linear scan validating every point — the `O(n·|A|)` oracle, now a
    /// first-class method so differential tests sweep it through the same
    /// funnel.
    BruteForce,
}

/// The method axis of a [`QuerySpec`]: either a fixed [`QueryMethod`],
/// or [`MethodChoice::Auto`] — let the engine's cost-model planner
/// ([`Planner`]) pick the method, expansion policy and prepare mode per
/// query. The chosen strategy is recorded in [`QueryStats::plan`].
///
/// `MethodChoice` compares equal to a bare [`QueryMethod`]
/// (`spec.method == QueryMethod::Voronoi`), and
/// [`QuerySpec::method`](QuerySpec::method) accepts either type, so
/// existing fixed-method code reads unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodChoice {
    /// Defer the choice to the planner at execution time.
    Auto,
    /// Run exactly this method.
    Fixed(QueryMethod),
}

impl Default for MethodChoice {
    fn default() -> MethodChoice {
        MethodChoice::Fixed(QueryMethod::default())
    }
}

impl From<QueryMethod> for MethodChoice {
    fn from(method: QueryMethod) -> MethodChoice {
        MethodChoice::Fixed(method)
    }
}

impl PartialEq<QueryMethod> for MethodChoice {
    fn eq(&self, other: &QueryMethod) -> bool {
        matches!(self, MethodChoice::Fixed(m) if m == other)
    }
}

impl MethodChoice {
    /// `true` for [`MethodChoice::Auto`].
    pub fn is_auto(&self) -> bool {
        matches!(self, MethodChoice::Auto)
    }

    /// The fixed method, if any.
    pub fn fixed(&self) -> Option<QueryMethod> {
        match self {
            MethodChoice::Auto => None,
            MethodChoice::Fixed(m) => Some(*m),
        }
    }

    /// The fixed method; every execution path resolves `Auto` through the
    /// planner before dispatch, so reaching `Auto` here is a bug.
    ///
    /// # Panics
    ///
    /// Panics on [`MethodChoice::Auto`].
    pub(crate) fn expect_fixed(&self) -> QueryMethod {
        self.fixed()
            .expect("MethodChoice::Auto is resolved by the planner before dispatch")
    }
}

/// Whether (and how) the query area is query-compiled before execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PrepareMode {
    /// Use the area exactly as passed (the default).
    #[default]
    Raw,
    /// Prepare the area for this one query, then drop the compiled form
    /// (the `voronoi_prepared` behaviour). Areas without a prepared form
    /// ([`QueryArea::prepare`] returns `None`) pass through unchanged.
    PrepareOnce,
    /// Look the area up in the prepared-area cache by content fingerprint
    /// (a session's LRU, or a batch's deduplication), preparing (and
    /// inserting) on miss. Repeated areas skip preparation entirely.
    /// Areas without a fingerprint pass through unchanged, on every path.
    Cached,
}

/// The shape of the answer — what every execution path does with each
/// accepted candidate (see [`crate::sink`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum OutputMode {
    /// Materialise the matching point indices (the default).
    #[default]
    Collect,
    /// Count matching points without materialising them (`SELECT COUNT(*)`
    /// — candidate generation and validation are the entire cost). Counts
    /// run the same seeded, stats-tracked path as [`OutputMode::Collect`]:
    /// every counter, including `result_size`, is bit-identical.
    Count,
    /// kNN-within-area: of the points inside the area, the `k` nearest to
    /// `origin` by exact squared Euclidean distance, ties broken by
    /// ascending index (a bounded max-heap, merged across shards and
    /// delta buffers).
    TopKNearest {
        /// How many nearest matches to keep (`0` keeps nothing).
        k: usize,
        /// The focus point distances are measured from (need not lie
        /// inside the area).
        origin: Point,
    },
    /// Collect the matching indices *and* materialise each accepted
    /// candidate's payload record through the engine's
    /// [`RecordStore`](crate::RecordStore), folding record checksums into
    /// [`QueryStats::payload_checksum`]. Engines without a record store
    /// degrade to collection.
    Materialize,
}

/// A plain-data description of one area query: a point in the evaluation
/// grid `method × policy × prepare × output`.
///
/// The default (`QuerySpec::new()`) is the paper's setup: Voronoi method,
/// segment expansion, raw area, collected output.
/// Builder-style setters return `self`, so specs compose inline;
/// the fields are public, so struct-update syntax works too.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QuerySpec {
    /// Which algorithm runs — a fixed method, or [`MethodChoice::Auto`]
    /// to let the planner decide per query.
    pub method: MethodChoice,
    /// Expansion test of the Voronoi BFS (ignored by the other methods).
    pub policy: ExpansionPolicy,
    /// Whether the area is query-compiled first.
    pub prepare: PrepareMode,
    /// The shape of the answer.
    pub output: OutputMode,
}

impl QuerySpec {
    /// The paper's default configuration (equivalent to `default()`).
    pub fn new() -> QuerySpec {
        QuerySpec::default()
    }

    /// A spec for the Voronoi method with the paper's defaults.
    pub fn voronoi() -> QuerySpec {
        QuerySpec::default()
    }

    /// A spec for the traditional filter–refine method.
    pub fn traditional() -> QuerySpec {
        QuerySpec {
            method: MethodChoice::Fixed(QueryMethod::Traditional),
            ..QuerySpec::default()
        }
    }

    /// A spec for the brute-force oracle.
    pub fn brute_force() -> QuerySpec {
        QuerySpec {
            method: MethodChoice::Fixed(QueryMethod::BruteForce),
            ..QuerySpec::default()
        }
    }

    /// A spec that defers method, expansion policy and prepare mode to
    /// the engine's cost-model planner ([`Planner`]); the chosen strategy
    /// is recorded in [`QueryStats::plan`]. The output is taken from the
    /// spec as usual.
    pub fn auto() -> QuerySpec {
        QuerySpec {
            method: MethodChoice::Auto,
            ..QuerySpec::default()
        }
    }

    /// Sets the query method (accepts a [`QueryMethod`] or a
    /// [`MethodChoice`]).
    pub fn method(mut self, method: impl Into<MethodChoice>) -> QuerySpec {
        self.method = method.into();
        self
    }

    /// Sets the Voronoi expansion policy.
    pub fn policy(mut self, policy: ExpansionPolicy) -> QuerySpec {
        self.policy = policy;
        self
    }

    /// Sets the prepare mode.
    pub fn prepare(mut self, prepare: PrepareMode) -> QuerySpec {
        self.prepare = prepare;
        self
    }

    /// Sets the output mode.
    pub fn output(mut self, output: OutputMode) -> QuerySpec {
        self.output = output;
        self
    }
}

/// The answer to one executed [`QuerySpec`] — one variant per
/// [`OutputMode`].
#[derive(Clone, Debug)]
pub enum QueryOutput {
    /// `OutputMode::Collect`: the matching indices plus statistics.
    Collected(QueryResult),
    /// `OutputMode::Count`: the number of matching points plus statistics.
    Counted {
        /// Matching points (duplicates counted with multiplicity).
        count: usize,
        /// Work counters — bit-identical to the collecting run's.
        stats: QueryStats,
    },
    /// `OutputMode::TopKNearest`: the k nearest matches to the origin,
    /// ascending by `(dist_sq, index)`, plus statistics.
    TopK {
        /// The kept neighbours (at most `k`).
        neighbors: Vec<Neighbor>,
        /// Work counters — `result_size` is the number of neighbours
        /// returned.
        stats: QueryStats,
    },
    /// `OutputMode::Materialize`: the matching indices with every
    /// accepted record materialised — `stats.payload_checksum` folds the
    /// validation reads *and* the per-result materialisation reads.
    Materialized(QueryResult),
}

impl QueryOutput {
    /// The query's work counters, whatever the output shape.
    pub fn stats(&self) -> &QueryStats {
        match self {
            QueryOutput::Collected(r) | QueryOutput::Materialized(r) => &r.stats,
            QueryOutput::Counted { stats, .. } | QueryOutput::TopK { stats, .. } => stats,
        }
    }

    /// Number of matching points: the result length, the count, or the
    /// number of neighbours kept.
    pub fn count(&self) -> usize {
        match self {
            QueryOutput::Collected(r) | QueryOutput::Materialized(r) => r.indices.len(),
            QueryOutput::Counted { count, .. } => *count,
            QueryOutput::TopK { neighbors, .. } => neighbors.len(),
        }
    }

    /// The collected result, when this was a `Collect` or `Materialize`
    /// query (both carry the matching indices).
    pub fn result(&self) -> Option<&QueryResult> {
        match self {
            QueryOutput::Collected(r) | QueryOutput::Materialized(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the output into the collected result, when this was a
    /// `Collect` or `Materialize` query.
    pub fn into_result(self) -> Option<QueryResult> {
        match self {
            QueryOutput::Collected(r) | QueryOutput::Materialized(r) => Some(r),
            _ => None,
        }
    }

    /// The kept neighbours, when this was a `TopKNearest` query.
    pub fn neighbors(&self) -> Option<&[Neighbor]> {
        match self {
            QueryOutput::TopK { neighbors, .. } => Some(neighbors),
            _ => None,
        }
    }
}

/// Number of distinct prepared areas a session keeps alive.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// The owned half of a session: the reusable scratch, the prepared-area
/// cache, its lifetime totals and the calibrating planner. Split out of
/// [`QuerySession`] so a long-lived owner of an engine (the dynamic
/// overlay, which rebuilds its base on compaction and therefore cannot
/// hold a borrowing session) keeps the same state across queries. Both
/// resolve each area through [`Resolved::new`] with this cache and
/// planner, run it on this scratch, then [`SessionState::observe`].
pub(crate) struct SessionState {
    pub(crate) scratch: Option<QueryScratch>,
    pub(crate) cache: PreparedAreaCache,
    pub(crate) cache_totals: CacheCounters,
    /// The cost-model planner resolving [`MethodChoice::Auto`] specs;
    /// calibration accumulates across the session's planned queries.
    pub(crate) planner: Planner,
}

impl SessionState {
    /// Fresh state with a prepared-area cache of
    /// [`DEFAULT_CACHE_CAPACITY`] entries.
    pub(crate) fn new() -> SessionState {
        SessionState {
            scratch: None,
            cache: PreparedAreaCache::new(DEFAULT_CACHE_CAPACITY),
            cache_totals: CacheCounters::default(),
            planner: Planner::default(),
        }
    }

    /// Finishes one query: attaches its plan and cache traffic to
    /// `stats`, adds the traffic to the lifetime totals, and feeds a
    /// planned query's observed work-unit cost back into the planner's
    /// calibration.
    pub(crate) fn observe(&mut self, resolved: &Resolved, stats: &mut QueryStats) {
        resolved.finish(stats);
        self.cache_totals.absorb(resolved.cache);
        if let Some((plan, vertices)) = resolved.plan {
            self.planner
                .observe(&plan, Planner::observed_cost(stats, vertices));
        }
    }
}

/// Per-caller query state over a borrowed engine: the reusable scratch,
/// the prepared-area cache and the calibrating planner. Cheap to create;
/// create one per thread (the engine itself is `Sync`, the session is
/// not).
///
/// See the [module docs](self) for the full story and an example.
pub struct QuerySession<'e> {
    engine: &'e AreaQueryEngine,
    state: SessionState,
}

impl<'e> QuerySession<'e> {
    /// Starts a session whose prepared-area cache keeps at most
    /// [`DEFAULT_CACHE_CAPACITY`] areas.
    pub fn new(engine: &'e AreaQueryEngine) -> QuerySession<'e> {
        QuerySession {
            engine,
            state: SessionState::new(),
        }
    }

    /// Session-lifetime prepared-area cache totals.
    pub fn cache_counters(&self) -> CacheCounters {
        self.state.cache_totals
    }

    /// Number of prepared areas currently cached.
    pub fn cache_len(&self) -> usize {
        self.state.cache.len()
    }

    /// Executes `spec` over `area`: the batch executor's one-area,
    /// one-part case (see [`crate::batch`]), with this session's cache,
    /// planner and scratch.
    pub fn execute<A: QueryArea + ?Sized>(&mut self, spec: &QuerySpec, area: &A) -> QueryOutput {
        let (engine, state) = (self.engine, &mut self.state);
        let resolved = Resolved::new(
            spec,
            area,
            &mut state.cache,
            &state.planner,
            |area, cacheable| engine.plan_features(area, cacheable, PlannedPath::Plain),
        );
        let sink = Sink::of(spec.output);
        let mut stats = QueryStats::default();
        let mut partial = Partial::default();
        resolved.run(
            engine,
            area,
            &mut state.scratch,
            sink,
            &mut partial,
            &Some,
            &mut stats,
        );
        state.observe(&resolved, &mut stats);
        sink.output(partial, stats)
    }
}

impl AreaQueryEngine {
    /// Starts a [`QuerySession`] over this engine — the intended way to
    /// run queries (reusable scratch, prepared-area cache).
    pub fn session(&self) -> QuerySession<'_> {
        QuerySession::new(self)
    }

    /// One-shot convenience: executes `spec` over `area` in a transient
    /// session. For repeated queries prefer [`AreaQueryEngine::session`]
    /// (scratch reuse, prepared-area caching across calls).
    pub fn execute<A: QueryArea + ?Sized>(&self, spec: &QuerySpec, area: &A) -> QueryOutput {
        self.session().execute(spec, area)
    }

    /// Samples the thread's predicate totals around `body` and returns
    /// the filter/fallback delta it produced: `run_sink` samples every
    /// engine query with it, the dynamic engine its delta scan.
    pub(crate) fn sample_predicates(body: impl FnOnce()) -> crate::stats::PredicateCounters {
        let before = vaq_geom::predicate_totals();
        body();
        let after = vaq_geom::predicate_totals();
        crate::stats::PredicateCounters {
            filter_fast_accepts: after.filter_fast_accepts - before.filter_fast_accepts,
            exact_fallbacks: after.exact_fallbacks - before.exact_fallbacks,
        }
    }

    /// The generic emission core behind **every** execution path (single
    /// query, batch worker, shard visit, dynamic base pass): runs
    /// `spec.method` over the area and emits each accepted candidate into
    /// `sink`'s `partial`, with its engine-local index translated through
    /// `map` into the caller's id space (`None` drops the candidate — the
    /// dynamic engine's tombstone filter, applied *before* the sink so a
    /// bounded sink never wastes a slot on a dead point). `scratch` is the
    /// caller's reusable Voronoi scratch, made here on first use. The
    /// thread's exact-predicate totals are sampled around the run, so
    /// `stats.predicates` reports this query's filter/fallback split (a
    /// query executes on one thread, so the window is exact).
    #[allow(clippy::too_many_arguments)] // the emission core's explicit inputs
    pub(crate) fn run_sink<A, I, F>(
        &self,
        spec: &QuerySpec,
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
        let predicates = Self::sample_predicates(|| match spec.method.expect_fixed() {
            QueryMethod::Traditional => self.sink_traditional(area, sink, partial, map, stats),
            QueryMethod::Voronoi => {
                self.sink_voronoi(spec, area, scratch, sink, partial, map, stats);
            }
            QueryMethod::BruteForce => self.sink_brute_force(area, sink, partial, map, stats),
        });
        stats.predicates.absorb(predicates);
    }

    fn sink_traditional<A, I, F>(
        &self,
        area: &A,
        sink: Sink,
        partial: &mut Partial<I>,
        map: &F,
        stats: &mut QueryStats,
    ) where
        A: QueryArea + ?Sized,
        I: SinkId,
        F: Fn(u32) -> Option<I>,
    {
        let candidates = self.rtree.window_with_stats(&area.mbr(), &mut stats.index);
        let records = self.records.as_ref();
        refine_each(
            candidates,
            &self.points,
            area,
            records,
            stats,
            |id, stats| {
                if let Some(out) = map(id) {
                    sink.emit(partial, out, self.points[id as usize], id, records, stats);
                }
            },
        );
    }

    #[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's explicit inputs
    fn sink_voronoi<A, I, F>(
        &self,
        spec: &QuerySpec,
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
        let Some(tri) = self.tri.as_ref() else {
            return;
        };
        let scratch = scratch.get_or_insert_with(|| self.new_scratch());
        // Line 3–4 of Algorithm 1: seed with NN(P, pA) for an arbitrary
        // position pA inside A, answered by the R-tree as in the paper.
        let pa = arbitrary_position_in(area);
        let (id, _) = self
            .rtree
            .nearest_with_stats(pa, &mut stats.index)
            .expect("engine is non-empty");
        let seed = tri.canonical(id as usize);
        // On a power diagram the R-tree answers the *Euclidean* NN, which
        // may be hidden or may not own the power cell holding `pa`; the
        // BFS invariant (the seed's cell meets the area) needs the true
        // power NN, so descend to it from the R-tree's answer. On
        // Euclidean diagrams this branch never runs.
        let seed = match tri.diagram_kind() {
            vaq_delaunay::DiagramKind::Euclidean => seed,
            vaq_delaunay::DiagramKind::Power => tri.nearest_vertex(pa, Some(seed)),
        };
        stats.seed = Some(seed);
        let window = self.cell_window(area);
        let canonical = voronoi_area_query_with_boundary(
            tri,
            area,
            seed,
            spec.policy,
            &window,
            self.records.as_ref(),
            self.boundary_straddlers.as_deref(),
            scratch,
            stats,
        );
        // Expand canonical vertices back to input indices (duplicates
        // share the canonical vertex's coordinates) and emit each.
        let records = self.records.as_ref();
        for v in canonical {
            let pv = tri.point(v);
            for &i in tri.inputs_of(v) {
                if let Some(out) = map(i) {
                    sink.emit(partial, out, pv, i, records, stats);
                }
            }
        }
        // Hidden sites (power diagrams only) own no cell and no edges, so
        // the BFS can never reach them — but they are real points of the
        // dataset and must be reported when the area contains them. The
        // engine's hidden-site R-tree answers the area-MBR window instead
        // of rect-scanning every hidden site; the window's
        // closed-rectangle semantics equal the old scan's MBR precheck,
        // and the hits are sorted back into ascending hidden order, so the
        // surviving sites, their emission order and every pre-existing
        // counter are bit-identical to the scan. Its node accesses go to a
        // throwaway counter: `stats.index` counts the main R-tree only.
        // Survivors go through the same candidate accounting as a BFS
        // visit. `None` on Euclidean diagrams: zero cost there.
        let Some(hidden_index) = self.hidden_index.as_ref() else {
            debug_assert!(tri.hidden_vertices().is_empty());
            return;
        };
        let hidden = tri.hidden_vertices();
        let mut hits = hidden_index.window_with_stats(&area.mbr(), &mut AccessStats::default());
        hits.sort_unstable();
        stats.hidden_examined += hits.len();
        stats.hidden_pruned += hidden.len() - hits.len();
        for hi in hits {
            let h = hidden[hi as usize];
            stats.candidates += 1;
            stats.containment_tests += 1;
            if let Some(rs) = records {
                // vaq-lint: allow(panic-hygiene) -- every canonical vertex
                // has at least one input point by construction.
                let rep = tri.inputs_of(h)[0];
                stats.payload_checksum = stats.payload_checksum.wrapping_add(rs.read(rep));
            }
            let ph = tri.point(h);
            if area.contains(ph) {
                stats.accepted += 1;
                for &i in tri.inputs_of(h) {
                    if let Some(out) = map(i) {
                        sink.emit(partial, out, ph, i, records, stats);
                    }
                }
            }
        }
    }

    fn sink_brute_force<A, I, F>(
        &self,
        area: &A,
        sink: Sink,
        partial: &mut Partial<I>,
        map: &F,
        stats: &mut QueryStats,
    ) where
        A: QueryArea + ?Sized,
        I: SinkId,
        F: Fn(u32) -> Option<I>,
    {
        stats.candidates += self.points.len();
        let records = self.records.as_ref();
        for (i, &p) in self.points.iter().enumerate() {
            stats.containment_tests += 1;
            if let Some(rs) = records {
                stats.payload_checksum = stats.payload_checksum.wrapping_add(rs.read(i as u32));
            }
            if area.contains(p) {
                stats.accepted += 1;
                if let Some(out) = map(i as u32) {
                    sink.emit(partial, out, p, i as u32, records, stats);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::area::AreaFingerprint;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vaq_geom::{Point, Polygon, Rect};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn uniform(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| p(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    fn star_polygon(c: Point, r_max: f64, k: usize, seed: u64) -> Polygon {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut angles: Vec<f64> = (0..k)
            .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
            .collect();
        angles.sort_by(f64::total_cmp);
        Polygon::new(
            angles
                .iter()
                .map(|&a| {
                    let r = r_max * (0.3 + 0.7 * rng.gen::<f64>());
                    p(c.x + r * a.cos(), c.y + r * a.sin())
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn spec_builder_defaults_match_the_paper() {
        let spec = QuerySpec::new();
        assert_eq!(spec.method, QueryMethod::Voronoi);
        assert_eq!(spec.policy, ExpansionPolicy::Segment);
        assert_eq!(spec.prepare, PrepareMode::Raw);
        assert_eq!(spec.output, OutputMode::Collect);
        let spec = QuerySpec::traditional()
            .prepare(PrepareMode::Cached)
            .output(OutputMode::Count);
        assert_eq!(spec.method, QueryMethod::Traditional);
        assert_eq!(spec.prepare, PrepareMode::Cached);
        assert_eq!(spec.output, OutputMode::Count);
    }

    #[test]
    fn all_methods_and_outputs_agree() {
        let pts = uniform(500, 11);
        let engine = AreaQueryEngine::build(&pts);
        let mut session = engine.session();
        let area = star_polygon(p(0.5, 0.5), 0.25, 10, 12);
        let want = session
            .execute(&QuerySpec::brute_force(), &area)
            .into_result()
            .unwrap()
            .indices;
        let want_sorted = {
            let mut v = want.clone();
            v.sort_unstable();
            v
        };
        for method in [
            QueryMethod::Traditional,
            QueryMethod::Voronoi,
            QueryMethod::BruteForce,
        ] {
            let spec = QuerySpec::new().method(method);
            let collected = session.execute(&spec, &area);
            assert_eq!(
                collected.result().unwrap().sorted_indices(),
                want_sorted,
                "{method:?}"
            );
            let counted = session.execute(&spec.output(OutputMode::Count), &area);
            assert_eq!(counted.count(), want.len(), "{method:?}");
            assert_eq!(
                counted.stats(),
                collected.stats(),
                "count and collect share every counter ({method:?})"
            );
        }
        // Classification has no method axis.
        let internal = engine
            .classify(&area)
            .iter()
            .filter(|&&c| c == crate::PointClass::Internal)
            .count();
        assert_eq!(internal, want.len());
    }

    #[test]
    fn cached_mode_hits_on_repeats_and_matches_raw() {
        let pts = uniform(800, 21);
        let engine = AreaQueryEngine::build(&pts);
        let mut session = engine.session();
        let area = star_polygon(p(0.5, 0.5), 0.25, 24, 22);
        let raw = session.execute(&QuerySpec::voronoi(), &area);
        let spec = QuerySpec::voronoi().prepare(PrepareMode::Cached);
        let first = session.execute(&spec, &area);
        let second = session.execute(&spec, &area);
        assert_eq!(
            first.result().unwrap().indices,
            raw.result().unwrap().indices
        );
        assert_eq!(
            first.stats().prepared_cache,
            CacheCounters { hits: 0, misses: 1 }
        );
        assert_eq!(
            second.stats().prepared_cache,
            CacheCounters { hits: 1, misses: 0 }
        );
        // Everything except the cache counters and the predicate-pipeline
        // split (prepared areas evaluate fewer edges) is bit-identical to
        // raw.
        let mut scrubbed = *second.stats();
        scrubbed.prepared_cache = CacheCounters::default();
        scrubbed.predicates = raw.stats().predicates;
        assert_eq!(scrubbed, *raw.stats());
        assert_eq!(
            session.cache_counters(),
            CacheCounters { hits: 1, misses: 1 }
        );
        assert_eq!(session.cache_len(), 1);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let pts = uniform(300, 31);
        let engine = AreaQueryEngine::build(&pts);
        let mut session = engine.session();
        let spec = QuerySpec::voronoi().prepare(PrepareMode::Cached);
        let areas: Vec<Polygon> = (0..=DEFAULT_CACHE_CAPACITY as u64)
            .map(|i| star_polygon(p(0.5, 0.5), 0.2, 8, 100 + i))
            .collect();
        for a in &areas {
            session.execute(&spec, a);
        }
        assert_eq!(session.cache_len(), DEFAULT_CACHE_CAPACITY);
        // areas[0] was evicted: querying it again misses.
        session.execute(&spec, &areas[0]);
        assert_eq!(session.cache_counters().misses, areas.len() as u64 + 1);
        // The newest area is still resident.
        session.execute(&spec, &areas[DEFAULT_CACHE_CAPACITY]);
        assert_eq!(session.cache_counters().hits, 1);
        // A hit refreshes an entry: after one on areas[2], the next miss
        // evicts areas[3] instead.
        session.execute(&spec, &areas[2]);
        session.execute(&spec, &areas[1]);
        session.execute(&spec, &areas[2]);
        assert_eq!(session.cache_counters().hits, 3);
        session.execute(&spec, &areas[3]);
        assert_eq!(session.cache_counters().misses, areas.len() as u64 + 3);
    }

    #[test]
    fn rect_windows_pass_through_prepare_modes() {
        let pts = uniform(400, 51);
        let engine = AreaQueryEngine::build(&pts);
        let mut session = engine.session();
        let window = Rect::new(p(0.2, 0.2), p(0.6, 0.7));
        let want = session
            .execute(&QuerySpec::brute_force(), &window)
            .into_result()
            .unwrap()
            .sorted_indices();
        for prepare in [
            PrepareMode::Raw,
            PrepareMode::PrepareOnce,
            PrepareMode::Cached,
        ] {
            for method in [QueryMethod::Traditional, QueryMethod::Voronoi] {
                let spec = QuerySpec::new().method(method).prepare(prepare);
                let got = session.execute(&spec, &window);
                assert_eq!(
                    got.result().unwrap().sorted_indices(),
                    want,
                    "{method:?} {prepare:?}"
                );
                // Rects have no prepared form: the cache never engages.
                assert_eq!(got.stats().prepared_cache, CacheCounters::default());
            }
        }
    }

    #[test]
    fn empty_engine_answers_every_output_mode() {
        let engine = AreaQueryEngine::build(&[]);
        let mut session = engine.session();
        let area = star_polygon(p(0.5, 0.5), 0.2, 8, 61);
        for method in [
            QueryMethod::Traditional,
            QueryMethod::Voronoi,
            QueryMethod::BruteForce,
        ] {
            let spec = QuerySpec::new().method(method);
            assert_eq!(session.execute(&spec, &area).count(), 0);
            assert_eq!(
                session
                    .execute(&spec.output(OutputMode::Count), &area)
                    .count(),
                0
            );
        }
        assert!(engine.classify(&area).is_empty());
    }

    /// Regression: the prepared-area cache must not cost the session (or
    /// the dynamic engine that owns one) its `Send`-ness — both move to
    /// worker threads in serving setups.
    #[test]
    fn sessions_and_dynamic_engines_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QuerySession<'static>>();
        assert_send::<crate::dynamic::DynamicAreaQueryEngine>();
    }

    #[test]
    fn planned_cached_query_fingerprints_the_area_once() {
        /// A polygon that counts its `fingerprint` calls.
        struct Counted(Polygon, std::cell::Cell<usize>);
        impl QueryArea for Counted {
            fn mbr(&self) -> Rect {
                self.0.mbr()
            }
            fn contains(&self, q: Point) -> bool {
                self.0.contains(q)
            }
            fn boundary_intersects_segment(&self, seg: &vaq_geom::Segment) -> bool {
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
                self.1.set(self.1.get() + 1);
                QueryArea::fingerprint(&self.0)
            }
            fn prepare(&self) -> Option<Box<dyn QueryArea + Send + Sync>> {
                QueryArea::prepare(&self.0)
            }
        }
        let engine = AreaQueryEngine::build(&uniform(400, 81));
        let mut session = engine.session();
        let area = Counted(star_polygon(p(0.5, 0.5), 0.2, 32, 81), Default::default());
        let out = session.execute(&QuerySpec::auto(), &area);
        assert_eq!(out.stats().plan.unwrap().prepare, PrepareMode::Cached);
        assert_eq!(
            area.1.get(),
            1,
            "one fingerprint for the plan and the cache"
        );
    }

    #[test]
    fn fingerprints_separate_distinct_areas() {
        let a = star_polygon(p(0.5, 0.5), 0.2, 8, 71);
        let b = star_polygon(p(0.5, 0.5), 0.2, 8, 72);
        assert_eq!(a.fingerprint(), a.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        let r = vaq_geom::Region::from_polygon(a.clone());
        // A hole-free region hashes like its outer polygon — and answers
        // every primitive identically, so sharing a cache slot is sound.
        assert_eq!(a.fingerprint(), r.fingerprint());
    }
}
