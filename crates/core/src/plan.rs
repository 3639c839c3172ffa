//! Cost-model query planner: turn [`QuerySpec::auto()`] into a concrete
//! strategy, per query.
//!
//! The paper's evaluation shows that no single strategy wins everywhere:
//! Voronoi expansion beats the traditional index only while the area is
//! small relative to the local point density, brute force wins once an
//! area swallows most of the data (or the data set is tiny), and the
//! expansion policy and preparation cost flip the ranking again at
//! different polygon complexities. The planner automates that choice.
//!
//! ## How a plan is made
//!
//! [`Planner::resolve`] receives [`PlanFeatures`] — a handful of O(1)
//! per-query signals:
//!
//! * `est_candidates` — expected points under the area's MBR, read from a
//!   [`DensityMap`] (free on sharded engines, a coarse grid on plain
//!   engines);
//! * `vertices` — the polygon's vertex count `k` (every geometric
//!   primitive in the pipeline is `O(k)` raw; prepared, it examines only
//!   the few edges listed in one slab or grid cell);
//! * `cached` / `cacheable` — whether the area's
//!   [`AreaFingerprint`](crate::AreaFingerprint) is already resident in
//!   the prepared-area cache the query runs with, and whether the area
//!   has a prepared form at all;
//! * `delta_len`, `shards` — overlay depth on the dynamic engine and
//!   shard count on the sharded one;
//! * `in_hull` — whether the area's MBR stays inside the data bounding
//!   box (outside it, segment expansion loses its completeness argument,
//!   so the planner hedges to cell expansion).
//!
//! From these it predicts the work of each `(method, policy)` pair in
//! abstract **work units** — the same deterministic unit
//! [`Planner::observed_cost`] derives from [`QueryStats`] counters after
//! the fact — and picks the argmin. Preparation is planned separately:
//! a cache hit is (nearly) free, otherwise preparing pays only when the
//! predicted number of `O(k)` primitive calls is large enough that the
//! `O(k log k)` compilation amortises. Shard pruning is not a decision:
//! the sharded engine always skips the shards whose MBR misses the
//! area's.
//!
//! ## Auditability and feedback
//!
//! Every decision is recorded as an [`ExecutionPlan`] in
//! [`QueryStats::plan`](crate::QueryStats): which method/policy/prepare
//! mode ran, on which path, and at what predicted cost. Calibration lives
//! in sessions: after each planned query a
//! [`QuerySession`](crate::QuerySession) (and the dynamic engine, which
//! owns its session state) feeds the observed work back through
//! [`Planner::observe`]; an exponentially decayed per-method calibration
//! ratio keeps the analytic model honest when a workload (or machine)
//! disagrees with its constants. Planning happens in one place on every
//! path, the batch executor's per-area step (see [`crate::batch`]): a
//! session and the dynamic engine run it with their own calibrating
//! planner, and both engines' `execute_batch` with a fresh planner that
//! feeds nothing back, so a batch's plans depend on neither the thread
//! count nor earlier batches.
//!
//! Planned queries are **bit-identical** to explicit ones: the planner
//! only rewrites the spec *before* execution, so running the spec named
//! by the plan through an explicit session reproduces the same indices
//! and the same work counters (only the "how was this computed" fields —
//! `prepared_cache`, `plan` — may differ).
//!
//! [`QuerySpec::auto()`]: crate::QuerySpec::auto

use crate::area::QueryArea;
use crate::query::{PrepareMode, QueryMethod, QuerySpec};
use crate::stats::QueryStats;
use crate::voronoi_query::ExpansionPolicy;
use vaq_delaunay::DiagramKind;
use vaq_geom::{Point, Rect};

/// Which execution path carried a planned query. Recorded in
/// [`ExecutionPlan::path`] and checked by the planner's differential
/// tests: the plan must always name the path that actually ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlannedPath {
    /// A single query on [`AreaQueryEngine`](crate::AreaQueryEngine)
    /// (through a [`QuerySession`](crate::QuerySession)).
    #[default]
    Plain,
    /// One query of an
    /// [`AreaQueryEngine::execute_batch`](crate::AreaQueryEngine::execute_batch)
    /// call.
    Batch,
    /// A query on [`DynamicAreaQueryEngine`](crate::DynamicAreaQueryEngine)
    /// (base pass + delta scan).
    Dynamic,
    /// A query on
    /// [`ShardedAreaQueryEngine`](crate::ShardedAreaQueryEngine), fanned
    /// out over the kd partition.
    Sharded,
}

/// The record of one planning decision, attached to
/// [`QueryStats::plan`](crate::QueryStats) whenever a query entered as
/// [`MethodChoice::Auto`](crate::MethodChoice).
///
/// The three strategy fields name the concrete [`QuerySpec`] knobs the
/// planner chose; re-issuing that explicit spec reproduces the planned
/// query bit-for-bit. The two `predicted_*` fields are the model's
/// forecast in work units, for auditing against
/// [`Planner::observed_cost`] of the same stats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecutionPlan {
    /// The concrete method the planner chose.
    pub method: QueryMethod,
    /// The expansion policy chosen (meaningful for the Voronoi method).
    pub policy: ExpansionPolicy,
    /// The preparation mode chosen.
    pub prepare: PrepareMode,
    /// The execution path this plan was made for (and ran on).
    pub path: PlannedPath,
    /// Predicted total work in work units (see [`Planner::observed_cost`]).
    pub predicted_cost: f64,
    /// Predicted candidate count (points the chosen method examines).
    pub predicted_candidates: f64,
}

impl ExecutionPlan {
    /// Rewrites `spec` into the explicit spec this plan names: same
    /// filter / seed / output, with method, policy and prepare mode
    /// pinned to the planned choice. Running the returned spec
    /// reproduces the planned query bit-for-bit.
    pub fn apply_to(&self, spec: &QuerySpec) -> QuerySpec {
        spec.method(self.method)
            .policy(self.policy)
            .prepare(self.prepare)
    }
}

/// The O(1) per-query features the planner decides from. Build one by
/// hand for offline what-if analysis, or let the engines assemble it
/// (they do, on every [`MethodChoice::Auto`](crate::MethodChoice)
/// query).
#[derive(Clone, Copy, Debug)]
pub struct PlanFeatures {
    /// Points indexed by the engine. On the dynamic engine this is the
    /// base's point count, tombstoned points included; the delta buffer
    /// is counted in `delta_len`.
    pub len: usize,
    /// Expected number of points under the area's MBR, from the engine's
    /// [`DensityMap`]. This is exactly the traditional method's expected
    /// candidate count.
    pub est_candidates: f64,
    /// The area's vertex count `k` (see [`QueryArea::complexity`]).
    pub vertices: usize,
    /// `true` when the area's fingerprint is already resident in the
    /// prepared-area cache the query runs with (a hit is nearly free).
    /// Only the plain and dynamic paths act on it: a batch's cache lives
    /// for one call.
    pub cached: bool,
    /// `true` when the area has a prepared form at all (plain rectangles
    /// do not; preparation can only be planned when this holds).
    pub cacheable: bool,
    /// Live delta-buffer depth on the dynamic engine (0 elsewhere). The
    /// linear delta scan is method-independent, so this raises every
    /// predicted cost equally — it is recorded for auditability.
    pub delta_len: usize,
    /// Shard count on sharded engines (0 elsewhere).
    pub shards: usize,
    /// `true` when the area's MBR lies inside the data bounding box. An
    /// area wandering outside the hull can defeat segment expansion's
    /// reachability argument, so the planner hedges to cell expansion.
    pub in_hull: bool,
    /// Which diagram the engine's substrate realizes. On a power diagram
    /// ([`DiagramKind::Power`]) the cells shift off the inter-site
    /// midlines, so the segment heuristic loses its empirical footing and
    /// the planner hedges to cell expansion there too.
    pub diagram: DiagramKind,
    /// The path the query will execute on.
    pub path: PlannedPath,
}

impl PlanFeatures {
    /// The features of a query over `area` on an engine of `len` points
    /// with this `density` map and data bounding box `bounds`, planned for
    /// `path`. `cacheable` says whether the area has a prepared form; the
    /// caller sets `cached`, `delta_len` and `shards` where they apply.
    pub(crate) fn of<A: QueryArea + ?Sized>(
        area: &A,
        cacheable: bool,
        len: usize,
        density: &DensityMap,
        bounds: Rect,
        diagram: DiagramKind,
        path: PlannedPath,
    ) -> PlanFeatures {
        let mbr = area.mbr();
        PlanFeatures {
            len,
            est_candidates: density.estimate_count(&mbr),
            vertices: area.complexity(),
            cached: false,
            cacheable,
            delta_len: 0,
            shards: 0,
            in_hull: bounds.contains_rect(&mbr),
            diagram,
            path,
        }
    }
}

impl Default for PlanFeatures {
    fn default() -> PlanFeatures {
        PlanFeatures {
            len: 0,
            est_candidates: 0.0,
            vertices: 8,
            cached: false,
            cacheable: true,
            delta_len: 0,
            shards: 0,
            in_hull: true,
            diagram: DiagramKind::Euclidean,
            path: PlannedPath::Plain,
        }
    }
}

/// A coarse, query-time-O(1) map from a rectangle to an expected point
/// count, backed by weighted regions (a uniform grid on plain engines,
/// the shard MBRs on sharded ones).
///
/// The estimate assumes points are uniform *within* each region:
/// `estimate = Σ count(region) · |region ∩ rect| / |region|`. With a
/// 16×16 grid that is exact at grid granularity and costs at most 256
/// multiply-adds per query — cheap enough to run on every planned
/// query.
#[derive(Clone, Debug, Default)]
pub struct DensityMap {
    regions: Vec<(Rect, f64)>,
    total: f64,
}

/// Grid resolution used for [`DensityMap::from_points`] (16×16 = 256
/// cells: fine enough to see clusters, small enough to scan per query).
const GRID_SIDE: usize = 16;

impl DensityMap {
    /// Builds a 16×16-cell uniform-grid density map over
    /// `points`. `O(n)` once at engine build time.
    pub fn from_points(points: &[Point]) -> DensityMap {
        if points.is_empty() {
            return DensityMap::default();
        }
        let extent = Rect::from_points(points.iter().copied());
        let w = extent.width().max(f64::MIN_POSITIVE);
        let h = extent.height().max(f64::MIN_POSITIVE);
        let side = GRID_SIDE;
        let mut counts = vec![0.0f64; side * side];
        for p in points {
            let ix = (((p.x - extent.min.x) / w * side as f64) as usize).min(side - 1);
            let iy = (((p.y - extent.min.y) / h * side as f64) as usize).min(side - 1);
            counts[iy * side + ix] += 1.0;
        }
        let cw = extent.width() / side as f64;
        let ch = extent.height() / side as f64;
        let mut regions = Vec::with_capacity(side * side);
        for iy in 0..side {
            for ix in 0..side {
                let c = counts[iy * side + ix];
                if c == 0.0 {
                    continue;
                }
                let min = Point::new(extent.min.x + cw * ix as f64, extent.min.y + ch * iy as f64);
                let max = Point::new(min.x + cw, min.y + ch);
                regions.push((Rect::new(min, max), c));
            }
        }
        DensityMap {
            regions,
            total: points.len() as f64,
        }
    }

    /// Builds a density map from pre-aggregated `(region, count)` pairs —
    /// on sharded engines these are the kd partition's tight shard MBRs
    /// and sizes, so the map costs nothing beyond what the build already
    /// computed.
    pub fn from_regions<I: IntoIterator<Item = (Rect, f64)>>(regions: I) -> DensityMap {
        let regions: Vec<(Rect, f64)> = regions
            .into_iter()
            .filter(|&(r, c)| c > 0.0 && !r.is_empty())
            .collect();
        let total = regions.iter().map(|&(_, c)| c).sum();
        DensityMap { regions, total }
    }

    /// Total number of points the map covers.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Expected number of points inside `rect`, assuming uniformity
    /// within each region. Degenerate (zero-area) regions contribute
    /// their full count when `rect` intersects them.
    pub fn estimate_count(&self, rect: &Rect) -> f64 {
        let mut sum = 0.0;
        for &(region, count) in &self.regions {
            let Some(overlap) = region.intersection(rect) else {
                continue;
            };
            let ra = region.area();
            if ra > 0.0 {
                sum += count * overlap.area() / ra;
            } else {
                sum += count;
            }
        }
        sum
    }
}

/// How quickly the calibration ratios forget old observations: each new
/// observation contributes `1 − DECAY` of the updated ratio.
const DECAY: f64 = 0.8;

/// Per-query overhead charged to index-seeded methods (R-tree descent /
/// seed lookup), in work units per `log₂ n`.
const SEED_UNIT: f64 = 3.0;

/// Work units per traditional-filter candidate beyond its containment
/// test (R-tree node traversal amortised per reported candidate).
const FILTER_UNIT: f64 = 1.5;

/// Multiplier of a cell test over a segment test (cell extraction +
/// polygon–polygon intersection vs one segment–boundary test).
const CELL_FACTOR: f64 = 3.0;

/// Work units per vertex to compile a prepared area (slab index + edge
/// grid construction ≈ `PREPARE_UNIT · k · log₂ k`).
const PREPARE_UNIT: f64 = 6.0;

/// Fraction of the MBR's points assumed inside the polygon itself
/// (the paper's random query polygons fill roughly half their MBR).
const INTERIOR_FRACTION: f64 = 0.55;

/// Expansion frontier size as a multiple of `√(points inside)`.
const RING_FACTOR: f64 = 3.4;

/// Average Delaunay degree: expansion tests per frontier point.
const DEGREE: f64 = 6.0;

/// The cost-model planner. One lives inside every
/// [`QuerySession`](crate::QuerySession) and dynamic engine, where
/// calibration accumulates across planned queries; batches plan with a
/// fresh one. [`Planner::default()`] starts with unit calibration.
///
/// The planner is deliberately small: an analytic model over
/// [`PlanFeatures`] plus three exponentially decayed per-method
/// calibration ratios fed by [`Planner::observe`]. It holds no
/// per-query allocations and resolving a plan is a handful of float
/// operations plus one density-map scan.
#[derive(Clone, Debug)]
pub struct Planner {
    /// Observed/predicted cost ratio per method, exponentially decayed
    /// (indexed by [`Planner::method_slot`]).
    calibration: [f64; 3],
}

impl Default for Planner {
    fn default() -> Planner {
        Planner {
            calibration: [1.0; 3],
        }
    }
}

impl Planner {
    /// Slot of `method` in the calibration table.
    fn method_slot(method: QueryMethod) -> usize {
        match method {
            QueryMethod::Traditional => 0,
            QueryMethod::Voronoi => 1,
            QueryMethod::BruteForce => 2,
        }
    }

    /// The current observed/predicted calibration ratio for `method`
    /// (`1.0` until [`Planner::observe`] has seen that method run).
    pub fn calibration(&self, method: QueryMethod) -> f64 {
        self.calibration[Planner::method_slot(method)]
    }

    /// Work-unit cost of one raw geometric primitive against a
    /// `k`-vertex area: containment and segment tests are `O(k)`.
    fn primitive_unit(k: usize) -> f64 {
        1.0 + k as f64
    }

    /// The deterministic work-unit cost a finished query actually spent,
    /// derived from its counters: every candidate pays a containment
    /// test, every expansion test pays a segment (or `CELL_FACTOR`×
    /// cell) test, all `O(k)`. Wall-clock never enters, so the same
    /// query costs the same on every machine — this is the unit the
    /// planner predicts in, the unit [`Planner::observe`] calibrates
    /// against, and the unit the planner-vs-oracle differential suite
    /// asserts on.
    pub fn observed_cost(stats: &QueryStats, vertices: usize) -> f64 {
        let unit = Planner::primitive_unit(vertices);
        stats.candidates as f64 * unit
            + stats.segment_tests as f64 * unit
            + stats.cell_tests as f64 * CELL_FACTOR * unit
    }

    /// Predicted `(cost, candidates)` of running `method` with `policy`
    /// under `f`, before calibration.
    fn predict(
        &self,
        method: QueryMethod,
        policy: ExpansionPolicy,
        f: &PlanFeatures,
    ) -> (f64, f64) {
        let k = f.vertices;
        let unit = Planner::primitive_unit(k);
        let n = f.len as f64;
        let m = f.est_candidates.min(n).max(0.0);
        let seed = SEED_UNIT * (n + 2.0).log2();
        let delta = f.delta_len as f64 * unit;
        match method {
            QueryMethod::BruteForce => (n * unit + delta, n),
            QueryMethod::Traditional => (seed + m * (unit + FILTER_UNIT) + delta, m),
            QueryMethod::Voronoi => {
                let inside = m * INTERIOR_FRACTION;
                let ring = RING_FACTOR * (inside + 1.0).sqrt() + DEGREE;
                let candidates = inside + ring;
                let tests = DEGREE * ring;
                let test_unit = match policy {
                    ExpansionPolicy::Segment => unit,
                    ExpansionPolicy::Cell => CELL_FACTOR * unit,
                };
                // Sharded fan-out re-seeds per visited shard; charge a
                // conservative two shards' worth of seeding.
                let fan_out = if f.shards > 1 { 2.0 } else { 1.0 };
                (
                    seed * fan_out + candidates * unit + tests * test_unit + delta,
                    candidates,
                )
            }
        }
    }

    /// Resolves an automatic spec into `(explicit spec, plan)` for the
    /// query described by `features`. The returned spec preserves
    /// `spec`'s output mode and pins method, expansion policy and prepare
    /// mode; the plan records the choice and its predicted cost.
    /// Resolution is pure: it neither executes anything nor mutates the
    /// planner (calibration moves only through [`Planner::observe`]).
    pub fn resolve(&self, spec: &QuerySpec, features: &PlanFeatures) -> (QuerySpec, ExecutionPlan) {
        // Segment expansion is the paper's fastest policy; hedge to the
        // cell policy (complete on Euclidean diagrams) when the area
        // leaves the data bounding box (the staple counterexample) or the
        // diagram is a power diagram (weighted cells shift off the
        // inter-site midlines; there both policies can miss a stray site,
        // see `ExpansionPolicy::Cell`) — except under brute force /
        // traditional, where the policy is inert.
        let policy = if features.in_hull && features.diagram == DiagramKind::Euclidean {
            ExpansionPolicy::Segment
        } else {
            ExpansionPolicy::Cell
        };
        let mut best: Option<(QueryMethod, f64, f64)> = None;
        for method in [
            QueryMethod::Voronoi,
            QueryMethod::Traditional,
            QueryMethod::BruteForce,
        ] {
            let (raw, cand) = self.predict(method, policy, features);
            let cost = raw * self.calibration(method);
            if best.is_none_or(|(_, c, _)| cost < c) {
                best = Some((method, cost, cand));
            }
        }
        let (method, predicted_cost, predicted_candidates) =
            best.expect("three methods were scored");
        let prepare = self.plan_prepare(method, predicted_cost, features);
        let plan = ExecutionPlan {
            method,
            policy,
            prepare,
            path: features.path,
            predicted_cost,
            predicted_candidates,
        };
        (plan.apply_to(spec), plan)
    }

    /// Picks the prepare mode: a resident cache entry is nearly free
    /// (`Cached`), otherwise compiling the area pays only when the
    /// predicted `O(k)` primitive volume dwarfs the `O(k log k)`
    /// compilation. Batch paths, whose cache lives for one call, use
    /// `PrepareOnce` and ignore `cached`, so a batch's plans never depend
    /// on the order of its areas.
    fn plan_prepare(&self, method: QueryMethod, cost: f64, f: &PlanFeatures) -> PrepareMode {
        if !f.cacheable {
            return PrepareMode::Raw;
        }
        let has_cache = matches!(f.path, PlannedPath::Plain | PlannedPath::Dynamic);
        if f.cached && has_cache {
            return PrepareMode::Cached;
        }
        if method == QueryMethod::BruteForce {
            // The brute scan's contains() calls dominate regardless;
            // preparing only pays on genuinely large scans.
            if f.len < 4096 {
                return PrepareMode::Raw;
            }
        }
        let k = f.vertices as f64;
        let prepare_cost = PREPARE_UNIT * k * (k + 2.0).log2();
        // The model prices prepared primitives at O(log k) instead of
        // O(k) (a slab or grid cell lists few edges of a star-shaped
        // area): the saving is roughly the whole O(k) share of the
        // predicted cost.
        let saving = cost * (1.0 - (k + 2.0).log2() / (k + 2.0));
        if saving > prepare_cost {
            if has_cache {
                PrepareMode::Cached
            } else {
                PrepareMode::PrepareOnce
            }
        } else if has_cache && f.vertices >= 16 {
            // Borderline but complex: seed the cache so a repeat query
            // (the LRU signal) gets the hit.
            PrepareMode::Cached
        } else {
            PrepareMode::Raw
        }
    }

    /// Feeds one finished planned query back into the calibration: the
    /// per-method observed/predicted ratio is blended in with
    /// exponential decay, so a handful of queries is enough to re-rank
    /// methods on a workload whose constants disagree with the model.
    pub fn observe(&mut self, plan: &ExecutionPlan, observed_cost: f64) {
        if plan.predicted_cost <= 0.0 || !observed_cost.is_finite() {
            return;
        }
        let ratio = (observed_cost.max(1.0) / plan.predicted_cost).clamp(0.05, 20.0);
        let slot = Planner::method_slot(plan.method);
        self.calibration[slot] = DECAY * self.calibration[slot] + (1.0 - DECAY) * ratio;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(side: usize) -> Vec<Point> {
        let mut pts = Vec::new();
        for j in 0..side {
            for i in 0..side {
                pts.push(Point::new(i as f64 / side as f64, j as f64 / side as f64));
            }
        }
        pts
    }

    #[test]
    fn density_map_estimates_uniform_counts() {
        let pts = grid_points(32);
        let map = DensityMap::from_points(&pts);
        assert_eq!(map.total(), 1024.0);
        let whole = Rect::new(Point::new(-0.1, -0.1), Point::new(1.1, 1.1));
        assert!((map.estimate_count(&whole) - 1024.0).abs() < 1e-6);
        let quarter = Rect::new(Point::new(0.0, 0.0), Point::new(0.485, 0.485));
        let est = map.estimate_count(&quarter);
        assert!(
            (200.0..320.0).contains(&est),
            "quarter of a uniform grid ≈ 256, got {est}"
        );
        let empty = Rect::new(Point::new(2.0, 2.0), Point::new(3.0, 3.0));
        assert_eq!(map.estimate_count(&empty), 0.0);
    }

    #[test]
    fn density_map_from_regions_weighs_overlap() {
        let map = DensityMap::from_regions([
            (Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)), 100.0),
            (Rect::new(Point::new(1.0, 0.0), Point::new(2.0, 1.0)), 10.0),
        ]);
        assert_eq!(map.total(), 110.0);
        let left_half = Rect::new(Point::new(0.0, 0.0), Point::new(0.5, 1.0));
        assert!((map.estimate_count(&left_half) - 50.0).abs() < 1e-9);
        let straddle = Rect::new(Point::new(0.5, 0.0), Point::new(1.5, 1.0));
        assert!((map.estimate_count(&straddle) - 55.0).abs() < 1e-9);
    }

    #[test]
    fn planner_prefers_brute_on_tiny_sets_and_voronoi_on_dense_areas() {
        let planner = Planner::default();
        // Tiny set whose area covers most of the data: filtering cannot
        // prune, so the flat scan wins.
        let tiny = PlanFeatures {
            len: 40,
            est_candidates: 38.0,
            ..PlanFeatures::default()
        };
        let (_, plan) = planner.resolve(&QuerySpec::auto(), &tiny);
        assert_eq!(plan.method, QueryMethod::BruteForce, "{plan:?}");

        // A dense slab of a big set: the expansion's interior points are
        // nearly free next to validating every MBR candidate, so the
        // Voronoi method wins once the MBR estimate dwarfs the boundary
        // ring.
        let dense_area = PlanFeatures {
            len: 100_000,
            est_candidates: 5000.0,
            ..PlanFeatures::default()
        };
        let (_, plan) = planner.resolve(&QuerySpec::auto(), &dense_area);
        assert_eq!(plan.method, QueryMethod::Voronoi, "{plan:?}");
        assert_eq!(plan.policy, ExpansionPolicy::Segment);

        let out_of_hull = PlanFeatures {
            in_hull: false,
            ..dense_area
        };
        let (_, plan) = planner.resolve(&QuerySpec::auto(), &out_of_hull);
        assert_eq!(plan.policy, ExpansionPolicy::Cell, "hedge outside the hull");
    }

    #[test]
    fn resolved_spec_matches_the_plan() {
        let planner = Planner::default();
        let features = PlanFeatures {
            len: 10_000,
            est_candidates: 200.0,
            vertices: 12,
            ..PlanFeatures::default()
        };
        let (spec, plan) = planner.resolve(&QuerySpec::auto(), &features);
        assert_eq!(spec.method, plan.method);
        assert_eq!(spec.policy, plan.policy);
        assert_eq!(spec.prepare, plan.prepare);
        assert!(!spec.method.is_auto());
        assert!(plan.predicted_cost > 0.0);
    }

    #[test]
    fn cached_fingerprint_prefers_the_cache() {
        let planner = Planner::default();
        let features = PlanFeatures {
            len: 50_000,
            est_candidates: 1000.0,
            vertices: 10,
            cached: true,
            ..PlanFeatures::default()
        };
        let (_, plan) = planner.resolve(&QuerySpec::auto(), &features);
        assert_eq!(plan.prepare, PrepareMode::Cached);

        let uncacheable = PlanFeatures {
            cacheable: false,
            cached: false,
            ..features
        };
        let (_, plan) = planner.resolve(&QuerySpec::auto(), &uncacheable);
        assert_eq!(plan.prepare, PrepareMode::Raw, "rects cannot be prepared");
    }

    #[test]
    fn observe_moves_calibration_toward_the_observed_ratio() {
        let mut planner = Planner::default();
        let features = PlanFeatures {
            len: 100_000,
            est_candidates: 5000.0,
            ..PlanFeatures::default()
        };
        let (_, plan) = planner.resolve(&QuerySpec::auto(), &features);
        assert_eq!(plan.method, QueryMethod::Voronoi);
        // Report Voronoi as 10× more expensive than predicted, repeatedly:
        // the planner should eventually switch away from it.
        for _ in 0..12 {
            planner.observe(&plan, plan.predicted_cost * 10.0);
        }
        assert!(planner.calibration(QueryMethod::Voronoi) > 5.0);
        let (_, plan) = planner.resolve(&QuerySpec::auto(), &features);
        assert_ne!(
            plan.method,
            QueryMethod::Voronoi,
            "calibration re-ranks methods"
        );
    }
}
