//! The area-query engine: owns the point set and its indexes, and exposes
//! every query configuration through one funnel.
//!
//! Build once per dataset, query many times — the workflow of the paper's
//! experiments (and of any GIS serving area queries). The intended surface
//! is a [`QuerySpec`](crate::QuerySpec) executed through a
//! [`QuerySession`](crate::QuerySession):
//!
//! ```
//! use vaq_core::{AreaQueryEngine, QuerySpec};
//! use vaq_geom::{Point, Polygon};
//!
//! let pts = vec![
//!     Point::new(0.2, 0.2),
//!     Point::new(0.8, 0.3),
//!     Point::new(0.5, 0.9),
//!     Point::new(0.45, 0.4),
//! ];
//! let engine = AreaQueryEngine::build(&pts);
//! let area = Polygon::new(vec![
//!     Point::new(0.1, 0.1),
//!     Point::new(0.7, 0.15),
//!     Point::new(0.5, 0.6),
//! ]).unwrap();
//!
//! let mut session = engine.session();
//! let trad = session.execute(&QuerySpec::traditional(), &area);
//! let voro = session.execute(&QuerySpec::voronoi(), &area);
//! assert_eq!(
//!     trad.result().unwrap().sorted_indices(),
//!     voro.result().unwrap().sorted_indices(),
//! );
//! ```
//!
//! On realistic data sizes the Voronoi method validates far fewer
//! candidates than the window query (the point of the paper); the
//! `voronoi_produces_fewer_candidates_on_irregular_areas` test below and
//! the benchmark harness quantify it.

use crate::area::QueryArea;
use crate::classify::{classify_points, PointClass};
use crate::payload::RecordStore;
use crate::plan::DensityMap;
use crate::scratch::QueryScratch;
use crate::shard::ShardedAreaQueryEngine;
use crate::stats::QueryStats;
use vaq_delaunay::{DiagramKind, Triangulation};
use vaq_geom::{Point, Rect};
use vaq_rtree::RTree;

/// The outcome of one area query: matching point ids plus statistics.
#[derive(Clone, Debug, Default)]
pub struct QueryResult {
    /// Input indices of the matching points. Order is method-dependent
    /// (index traversal order / BFS discovery order) but deterministic.
    pub indices: Vec<u32>,
    /// Work counters for the query.
    pub stats: QueryStats,
}

impl QueryResult {
    /// The matching indices in ascending order (for comparisons).
    pub fn sorted_indices(&self) -> Vec<u32> {
        let mut v = self.indices.clone();
        v.sort_unstable();
        v
    }
}

/// Builder for [`AreaQueryEngine`] (and, through
/// [`EngineBuilder::build_sharded`], [`ShardedAreaQueryEngine`]) with
/// payload records or site weights.
pub struct EngineBuilder {
    points: Vec<Point>,
    payload_bytes: usize,
    records: Option<RecordStore>,
    weights: Option<Vec<f64>>,
}

impl EngineBuilder {
    /// Starts a builder over a copy of `points`.
    pub fn new(points: &[Point]) -> EngineBuilder {
        EngineBuilder {
            points: points.to_vec(),
            payload_bytes: 0,
            records: None,
            weights: None,
        }
    }

    /// Attaches a simulated geometry record of `bytes` bytes to every
    /// point; candidate validation must then materialise the record before
    /// the exact test, restoring the refinement cost model of the paper's
    /// disk-backed GIS setting (see [`RecordStore`]). `0` (the default)
    /// disables the simulation.
    pub fn payload_bytes(mut self, bytes: usize) -> EngineBuilder {
        self.payload_bytes = bytes;
        self
    }

    /// Attaches a pre-built record store instead of generating one
    /// (overrides [`EngineBuilder::payload_bytes`]). The sharded build
    /// uses this to hand each shard its own copy of its records from one
    /// logical store — shard-local ids, record contents copied exactly
    /// once, checksums bit-identical to the unsharded store's.
    ///
    /// The store must hold exactly one record per point;
    /// [`EngineBuilder::build`] panics otherwise.
    pub fn record_store(mut self, records: RecordStore) -> EngineBuilder {
        self.records = Some(records);
        self
    }

    /// Attaches one weight per point, generalising the diagram substrate
    /// to a **power diagram** (regular triangulation): the cell of site
    /// `p` with weight `w` holds every location `x` minimising
    /// `|x − p|² − w`. Uniform weights (including all-zero) normalize
    /// away at build time — the engine then reports
    /// [`DiagramKind::Euclidean`] and behaves bit-identically to an
    /// unweighted build. Weighted sites dominated everywhere become
    /// *hidden* (no cell); queries still report them when the query area
    /// contains their coordinates.
    ///
    /// [`EngineBuilder::build`] panics on non-finite weights or a length
    /// mismatch; validate user input first (the CLI does).
    pub fn weights(mut self, weights: &[f64]) -> EngineBuilder {
        self.weights = Some(weights.to_vec());
        self
    }

    /// The record store the build attaches: the one handed to
    /// [`EngineBuilder::record_store`], else one generated for
    /// [`EngineBuilder::payload_bytes`], else none.
    fn take_records(&mut self) -> Option<RecordStore> {
        self.records.take().or_else(|| {
            (self.payload_bytes > 0).then(|| {
                RecordStore::generate(
                    self.points.len(),
                    self.payload_bytes,
                    crate::payload::PAYLOAD_SEED,
                )
            })
        })
    }

    /// Builds the engine: Delaunay (or regular) triangulation, and the
    /// R-tree packed in its vertex order.
    pub fn build(mut self) -> AreaQueryEngine {
        let tri = if self.points.is_empty() {
            None
        } else {
            Some(
                Triangulation::with_site_metric(&self.points, self.weights.as_deref())
                    .expect("finite, non-empty input with one finite weight per point"),
            )
        };
        let records = self.take_records();
        AreaQueryEngine::assemble(self.points, tri, records, None)
    }

    /// Builds a [`ShardedAreaQueryEngine`] over the same options: the
    /// points are kd-partitioned into at most `shards` shards (`0`
    /// auto-tunes to the machine's available parallelism), each shard
    /// builds the power diagram of its own slice of the weights, and one
    /// logical record store — generated exactly as [`EngineBuilder::build`]
    /// would, or the one passed to [`EngineBuilder::record_store`] — is
    /// copied shard by shard into per-shard stores, so payload checksums
    /// stay bit-identical to the unsharded engine's. Shard engines build
    /// in parallel, one worker per available hardware thread (never more
    /// than the shard count): the shard count is a data layout, not a
    /// thread request.
    ///
    /// # Panics
    ///
    /// As [`EngineBuilder::build`]: on a weight count that differs from
    /// the point count, a non-finite weight, or a record store that does
    /// not hold one record per point.
    pub fn build_sharded(mut self, shards: usize) -> ShardedAreaQueryEngine {
        let records = self.take_records();
        ShardedAreaQueryEngine::build_inner(
            &self.points,
            crate::sync::resolve_threads(shards),
            crate::sync::resolve_threads(0),
            self.weights.as_deref(),
            records.as_ref(),
        )
    }
}

/// Pre-built indexes over one point set, answering area queries with both
/// the traditional and the Voronoi-based method.
pub struct AreaQueryEngine {
    pub(crate) points: Vec<Point>,
    pub(crate) rtree: RTree,
    /// `None` only for an empty point set. The diagram is decided by the
    /// input: unweighted or uniformly weighted datasets build the classic
    /// Delaunay triangulation, non-uniform weights the regular
    /// triangulation of the power diagram.
    pub(crate) tri: Option<Triangulation>,
    /// Simulated geometry records (None = pure in-memory regime).
    pub(crate) records: Option<RecordStore>,
    data_bbox: Rect,
    /// Coarse occupancy grid over the point set — the planner's O(1)
    /// density feature (see [`DensityMap`]).
    density: DensityMap,
    /// `√(max positive weight)` — the farthest a weighted cell can reach
    /// past its site; `0.0` on Euclidean engines. Added to window and
    /// shard-boundary expansions so weight-shifted cells stay
    /// representative inside them.
    weight_radius: f64,
    /// Per-canonical-vertex flag: does this vertex's Voronoi cell extend
    /// past the shard boundary? `None` on plain engines (no boundary);
    /// computed once by [`AreaQueryEngine::mark_shard_boundary`] on
    /// shard-local engines so the segment policy can fall back to the
    /// complete cell test exactly on boundary-straddling frontiers.
    pub(crate) boundary_straddlers: Option<Vec<bool>>,
    /// R-tree over the **hidden** canonical vertices' coordinates (id =
    /// position in the sorted hidden list), so the post-BFS hidden-site
    /// sweep is a window lookup instead of an `O(hidden)` rect scan.
    /// `None` when nothing is hidden (every Euclidean engine).
    pub(crate) hidden_index: Option<RTree>,
}

impl AreaQueryEngine {
    /// Assembles an engine from a built (or loaded) triangulation — the
    /// shared tail of [`EngineBuilder::build`] and the snapshot loader.
    /// The R-tree is packed in the triangulation's vertex order (its
    /// members: input ids, coincident ones adjacent), so both indexes
    /// share one Hilbert order and a build sorts the points once. The
    /// R-tree, the planner's density map and the hidden-site index are
    /// deterministic functions of the points and the triangulation, so
    /// rebuilding them here keeps a loaded engine bit-identical to a
    /// freshly built one.
    ///
    /// `tri` is `None` only for an empty point set.
    pub(crate) fn assemble(
        points: Vec<Point>,
        tri: Option<Triangulation>,
        records: Option<RecordStore>,
        boundary_straddlers: Option<Vec<bool>>,
    ) -> AreaQueryEngine {
        let order = tri.as_ref().map_or(&[][..], |t| &t.as_flat().members[..]);
        let rtree = RTree::pack(&points, order);
        // How far a positive weight can pull a cell towards a location:
        // pow_p(x) = |x − p|² − w ≤ 0 within distance √w of p, so window
        // and shard-boundary expansions grow by the largest such radius.
        // Euclidean builds (and all-non-positive weights) add 0.0,
        // keeping every window bit-identical to the unweighted engine.
        let weight_radius = tri.as_ref().map_or(0.0, |t| {
            t.weights().iter().fold(0.0f64, |m, &w| m.max(w)).sqrt()
        });
        if let Some(rs) = records.as_ref() {
            assert_eq!(
                rs.len(),
                points.len(),
                "record store must hold exactly one record per point"
            );
        }
        let hidden_index = tri.as_ref().and_then(|t| {
            let hidden = t.hidden_vertices();
            (!hidden.is_empty()).then(|| {
                let coords: Vec<Point> = hidden.iter().map(|&h| t.point(h)).collect();
                RTree::bulk_load(&coords)
            })
        });
        let density = DensityMap::from_points(&points);
        let data_bbox = Rect::from_points(points.iter().copied());
        AreaQueryEngine {
            points,
            rtree,
            tri,
            records,
            data_bbox,
            density,
            weight_radius,
            boundary_straddlers,
            hidden_index,
        }
    }

    /// Builds with defaults: Delaunay triangulation + packed R-tree
    /// (exactly the paper's setup).
    pub fn build(points: &[Point]) -> AreaQueryEngine {
        EngineBuilder::new(points).build()
    }

    /// Builds with defaults over **weighted** sites — the power-diagram
    /// form of the engine (see [`EngineBuilder::weights`]).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not one finite value per point.
    pub fn build_weighted(points: &[Point], weights: &[f64]) -> AreaQueryEngine {
        EngineBuilder::new(points).weights(weights).build()
    }

    /// Starts an [`EngineBuilder`] for engines with payload records or
    /// site weights.
    pub fn builder(points: &[Point]) -> EngineBuilder {
        EngineBuilder::new(points)
    }

    /// The indexed points (input order).
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The underlying R-tree.
    pub fn rtree(&self) -> &RTree {
        &self.rtree
    }

    /// The underlying triangulation (`None` for an empty engine).
    pub fn triangulation(&self) -> Option<&Triangulation> {
        self.tri.as_ref()
    }

    /// Which diagram the engine's substrate realizes:
    /// [`DiagramKind::Power`] iff the build received genuinely
    /// non-uniform weights. Empty engines report
    /// [`DiagramKind::Euclidean`].
    pub fn diagram_kind(&self) -> DiagramKind {
        self.tri
            .as_ref()
            .map_or(DiagramKind::Euclidean, Triangulation::diagram_kind)
    }

    /// The engine's simulated record store (`None` when the engine does
    /// not simulate payload records). See [`EngineBuilder::payload_bytes`]
    /// and [`OutputMode::Materialize`](crate::OutputMode).
    pub fn record_store(&self) -> Option<&RecordStore> {
        self.records.as_ref()
    }

    /// Fresh scratch space for the Voronoi BFS; reuse it across queries
    /// on one thread (a [`QuerySession`](crate::QuerySession) does).
    pub fn new_scratch(&self) -> QueryScratch {
        QueryScratch::new(self.tri.as_ref().map_or(0, Triangulation::vertex_count))
    }

    /// Coarse occupancy grid over the indexed points, built once at engine
    /// construction. The planner reads area-local point counts from it in
    /// O(grid cells) without touching any index.
    pub fn density_map(&self) -> &DensityMap {
        &self.density
    }

    /// Tight bounding box of the indexed points ([`Rect::EMPTY`] for an
    /// empty engine).
    pub fn data_bounds(&self) -> Rect {
        self.data_bbox
    }

    /// Marks this engine as the shard of a larger point set bounded by
    /// `mbr`: flags every canonical vertex whose Voronoi cell is not
    /// certainly contained in `mbr` (conservatively, any clipped cell ring
    /// with a vertex outside `mbr`, or a degenerate ring). The segment
    /// expansion policy consults these flags to fall back to the complete
    /// cell test on boundary-straddling frontiers — closing the
    /// completeness gap of shard-local segment expansion. Called once per
    /// shard at build time by the sharded build.
    pub(crate) fn mark_shard_boundary(&mut self, mbr: &Rect) {
        let Some(tri) = self.tri.as_ref() else {
            self.boundary_straddlers = None;
            return;
        };
        // Replicates `cell_window` for an area-independent window: big
        // enough that unbounded hull cells keep a representative clipped
        // shape around the data.
        let window = self.data_bbox.expand(
            (self.data_bbox.width() + self.data_bbox.height()).max(1.0) + self.weight_radius,
        );
        let straddlers = (0..tri.vertex_count() as u32)
            .map(|v| {
                let ring = vaq_delaunay::cell_polygon(tri, v, &window);
                ring.len() < 3 || ring.iter().any(|&p| !mbr.contains_point(p))
            })
            .collect();
        self.boundary_straddlers = Some(straddlers);
    }

    /// Clipping window for on-demand Voronoi cells: the data extent joined
    /// with the query area, grown by its own diagonal so unbounded hull
    /// cells keep a representative shape around the region of interest.
    pub(crate) fn cell_window<A: QueryArea + ?Sized>(&self, area: &A) -> Rect {
        let r = self.data_bbox.union(&area.mbr());
        r.expand((r.width() + r.height()).max(1.0) + self.weight_radius)
    }

    /// The paper's Section III classification of every canonical vertex
    /// against `area`: internal, boundary or external (see
    /// [`crate::classify`]). Classification is defined on one whole
    /// diagram, so it is a method of this engine rather than a
    /// [`QuerySpec`](crate::QuerySpec) output; pass `area.prepare()` to
    /// classify against the compiled form. Empty for an empty engine.
    pub fn classify<A: QueryArea + ?Sized>(&self, area: &A) -> Vec<PointClass> {
        self.tri.as_ref().map_or_else(Vec::new, |tri| {
            classify_points(tri, area, &self.cell_window(area))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{OutputMode, PrepareMode, QueryMethod, QuerySpec};
    use crate::voronoi_query::ExpansionPolicy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vaq_geom::{Polygon, PreparedPolygon};

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

    fn collect<A: QueryArea + ?Sized>(
        engine: &AreaQueryEngine,
        spec: QuerySpec,
        area: &A,
    ) -> QueryResult {
        engine.execute(&spec, area).into_result().unwrap()
    }

    fn count<A: QueryArea + ?Sized>(engine: &AreaQueryEngine, spec: QuerySpec, area: &A) -> usize {
        engine
            .execute(&spec.output(OutputMode::Count), area)
            .count()
    }

    fn brute<A: QueryArea + ?Sized>(engine: &AreaQueryEngine, area: &A) -> Vec<u32> {
        collect(engine, QuerySpec::brute_force(), area).sorted_indices()
    }

    #[test]
    fn methods_agree_with_each_other_and_brute_force() {
        let pts = uniform(600, 81);
        let engine = AreaQueryEngine::build(&pts);
        let mut session = engine.session();
        for seed in 0..8u64 {
            let area = star_polygon(p(0.5, 0.5), 0.25, 10, seed);
            let want = brute(&engine, &area);
            assert_eq!(
                collect(&engine, QuerySpec::traditional(), &area).sorted_indices(),
                want
            );
            for policy in [ExpansionPolicy::Segment, ExpansionPolicy::Cell] {
                let spec = QuerySpec::voronoi().policy(policy);
                let r = session.execute(&spec, &area).into_result().unwrap();
                assert_eq!(r.sorted_indices(), want, "policy {policy:?}");
            }
        }
    }

    /// The prepared path must traverse exactly the same BFS (identical
    /// results *and* identical work counters) — the index only changes
    /// how each primitive is answered, never its answer.
    #[test]
    fn prepared_queries_bit_match_raw_queries() {
        let pts = uniform(1500, 90);
        let engine = AreaQueryEngine::build(&pts);
        for seed in 0..6u64 {
            let area = star_polygon(p(0.5, 0.5), 0.25, 24, 700 + seed);
            let raw_v = collect(&engine, QuerySpec::voronoi(), &area);
            let prep_v = collect(
                &engine,
                QuerySpec::voronoi().prepare(PrepareMode::PrepareOnce),
                &area,
            );
            assert_eq!(raw_v.indices, prep_v.indices, "voronoi results");
            assert_eq!(
                raw_v.stats.candidates, prep_v.stats.candidates,
                "voronoi candidates"
            );
            assert_eq!(
                raw_v.stats.segment_tests, prep_v.stats.segment_tests,
                "voronoi segment tests"
            );
            let raw_t = collect(&engine, QuerySpec::traditional(), &area);
            let prep_t = collect(
                &engine,
                QuerySpec::traditional().prepare(PrepareMode::PrepareOnce),
                &area,
            );
            assert_eq!(raw_t.indices, prep_t.indices, "traditional results");
            assert_eq!(raw_t.stats.candidates, prep_t.stats.candidates);
            // Classification and counts flow through the same trait.
            let prep = PreparedPolygon::new(area.clone());
            assert_eq!(engine.classify(&area), engine.classify(&prep));
            for spec in [QuerySpec::voronoi(), QuerySpec::traditional()] {
                assert_eq!(count(&engine, spec, &area), count(&engine, spec, &prep));
            }
        }
    }

    #[test]
    fn voronoi_produces_fewer_candidates_on_irregular_areas() {
        let pts = uniform(3000, 82);
        let engine = AreaQueryEngine::build(&pts);
        let mut session = engine.session();
        let mut total_trad = 0usize;
        let mut total_voro = 0usize;
        for seed in 0..10u64 {
            let area = star_polygon(p(0.5, 0.5), 0.2, 10, 1000 + seed);
            total_trad += session
                .execute(&QuerySpec::traditional(), &area)
                .stats()
                .candidates;
            total_voro += session
                .execute(&QuerySpec::voronoi(), &area)
                .stats()
                .candidates;
        }
        assert!(
            total_voro < total_trad,
            "voronoi candidates {total_voro} should undercut traditional {total_trad}"
        );
    }

    #[test]
    fn empty_engine_answers_empty() {
        let engine = AreaQueryEngine::build(&[]);
        let area = star_polygon(p(0.5, 0.5), 0.2, 10, 1);
        assert!(engine.is_empty());
        for spec in [
            QuerySpec::traditional(),
            QuerySpec::voronoi(),
            QuerySpec::brute_force(),
        ] {
            assert!(collect(&engine, spec, &area).indices.is_empty());
        }
        assert!(engine.classify(&area).is_empty());
    }

    #[test]
    fn single_point_engine() {
        let engine = AreaQueryEngine::build(&[p(0.5, 0.5)]);
        let inside = Polygon::new(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.5, 1.0)]).unwrap();
        let outside = Polygon::new(vec![p(5.0, 5.0), p(6.0, 5.0), p(5.5, 6.0)]).unwrap();
        for spec in [QuerySpec::voronoi(), QuerySpec::traditional()] {
            assert_eq!(collect(&engine, spec, &inside).indices, vec![0]);
            assert!(collect(&engine, spec, &outside).indices.is_empty());
        }
    }

    #[test]
    fn duplicate_points_are_all_reported() {
        let pts = vec![
            p(0.5, 0.5),
            p(0.5, 0.5),
            p(0.5, 0.5),
            p(0.9, 0.9),
            p(0.1, 0.9),
        ];
        let engine = AreaQueryEngine::build(&pts);
        let area = Polygon::new(vec![p(0.4, 0.4), p(0.6, 0.4), p(0.6, 0.6), p(0.4, 0.6)]).unwrap();
        let v = collect(&engine, QuerySpec::voronoi(), &area);
        assert_eq!(v.sorted_indices(), vec![0, 1, 2]);
        assert_eq!(v.stats.result_size, 3);
        let t = collect(&engine, QuerySpec::traditional(), &area);
        assert_eq!(t.sorted_indices(), vec![0, 1, 2]);
    }

    #[test]
    fn collinear_dataset_still_answers_correctly() {
        let pts: Vec<Point> = (0..50).map(|i| p(f64::from(i) * 0.02, 0.5)).collect();
        let engine = AreaQueryEngine::build(&pts);
        let area =
            Polygon::new(vec![p(0.25, 0.4), p(0.55, 0.4), p(0.55, 0.6), p(0.25, 0.6)]).unwrap();
        let want = brute(&engine, &area);
        assert!(!want.is_empty());
        for spec in [QuerySpec::voronoi(), QuerySpec::traditional()] {
            assert_eq!(collect(&engine, spec, &area).sorted_indices(), want);
        }
    }

    #[test]
    fn stats_identities_hold() {
        let pts = uniform(1000, 85);
        let engine = AreaQueryEngine::build(&pts);
        let area = star_polygon(p(0.5, 0.5), 0.25, 10, 86);
        let t = collect(&engine, QuerySpec::traditional(), &area);
        assert_eq!(t.stats.result_size, t.indices.len());
        assert_eq!(t.stats.accepted, t.indices.len());
        assert_eq!(t.stats.containment_tests, t.stats.candidates as u64);
        assert_eq!(
            t.stats.redundant_validations(),
            t.stats.candidates - t.stats.accepted
        );
        let v = collect(&engine, QuerySpec::voronoi(), &area);
        assert_eq!(v.stats.result_size, v.indices.len());
        assert_eq!(v.stats.containment_tests, v.stats.candidates as u64);
        assert!(v.stats.seed.is_some());
        assert!(v.stats.candidates <= t.stats.candidates);
    }

    #[test]
    fn count_queries_match_materialised_results() {
        let pts = uniform(2000, 89);
        let engine = AreaQueryEngine::build(&pts);
        let methods = [QueryMethod::Voronoi, QueryMethod::Traditional];
        for seed in 0..5u64 {
            let area = star_polygon(p(0.5, 0.5), 0.25, 10, 900 + seed);
            let want = brute(&engine, &area).len();
            for m in methods {
                assert_eq!(count(&engine, QuerySpec::new().method(m), &area), want);
            }
        }
        // Duplicates are counted with multiplicity.
        let dup_engine =
            AreaQueryEngine::build(&[p(0.5, 0.5), p(0.5, 0.5), p(0.5, 0.5), p(0.9, 0.9)]);
        let area = star_polygon(p(0.5, 0.5), 0.2, 10, 1);
        let want = brute(&dup_engine, &area).len();
        assert_eq!(count(&dup_engine, QuerySpec::voronoi(), &area), want);
        // Empty engine counts zero.
        let empty = AreaQueryEngine::build(&[]);
        for m in methods {
            assert_eq!(count(&empty, QuerySpec::new().method(m), &area), 0);
        }
    }

    #[test]
    fn classify_counts_match_query_results() {
        let pts = uniform(400, 87);
        let engine = AreaQueryEngine::build(&pts);
        let area = star_polygon(p(0.5, 0.5), 0.3, 10, 88);
        let internal = engine
            .classify(&area)
            .iter()
            .filter(|&&c| c == PointClass::Internal)
            .count();
        assert_eq!(internal, brute(&engine, &area).len());
    }
}
