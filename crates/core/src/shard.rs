//! Sharding the engine across point-set partitions.
//!
//! The paper's evaluation stops at 10⁶ points on a single Delaunay
//! structure; serving beyond that, distributed in-memory spatial systems
//! (Simba, GeoSpark) all use the same recipe: **partition the points
//! spatially, index each partition independently, prune partitions whose
//! bounding box misses the query, and fan the survivors out in
//! parallel**. [`ShardedAreaQueryEngine`] is that recipe over the
//! existing [`AreaQueryEngine`]:
//!
//! * the point set is split into `S` shards by a **recursive kd median
//!   split** — always on the longer extent of the partition's MBR — so
//!   shards stay spatially tight (small MBRs ⇒ effective pruning) and
//!   balanced (±1 point via proportional median ranks);
//! * one full [`AreaQueryEngine`] (R-tree + Delaunay) is built **per
//!   shard, in parallel**, each over its own points — build time and
//!   memory scale per shard, and the `O(n log n)` triangulation is paid
//!   on `n/S` points at a time;
//! * any [`QuerySpec`] is answered by **MBR-pruning** the shards against
//!   the area's MBR and running the survivors — sequentially in
//!   [`ShardedAreaQueryEngine::execute`], or on a shared work-stealing
//!   worker pool in [`ShardedAreaQueryEngine::execute_batch`], where the
//!   work items are `(area, shard)` pairs and prepared areas are
//!   compiled **once per batch** and shared across shards by
//!   fingerprint;
//! * shard-local results are mapped back to **global input indices** and
//!   merged in ascending input order, with per-shard counters folded
//!   into one aggregate [`QueryStats`] (see
//!   [`QueryStats::shards_visited`] / [`QueryStats::shards_pruned`]) and
//!   kept individually in [`ShardedQueryOutput::breakdown`].
//!
//! Results are **bit-identical to the unsharded engine**: the shards
//! partition the point set, every method validates with the same exact
//! predicates, and the differential suites
//! (`tests/sharded_differential.rs`, `tests/sink_differential.rs`)
//! enforce equality of the sorted global index sets, counts, kNN
//! answers and payload checksums across the whole `QuerySpec` grid.
//!
//! The paper's **segment expansion heuristic**
//! ([`ExpansionPolicy::Segment`](crate::ExpansionPolicy)) needs one
//! extra guard here: cells of sites near a kd cut stretch across the cut
//! (their true neighbours live in the next shard), so a purely
//! shard-local segment BFS can fail to bridge a thin slice of the area
//! that the global diagram bridges fine (first observed at 2·10⁵ points
//! × 8 shards: 8 of ~55 000 matches dropped over 64 areas). Each shard
//! engine therefore flags, at build time, every vertex whose Voronoi
//! cell straddles the shard's MBR
//! (`AreaQueryEngine::mark_shard_boundary`); when the segment test
//! fails on such a **boundary-straddling frontier**, the BFS falls back
//! to the provably complete cell test for that one edge. Interior
//! frontiers — the vast majority — keep the cheap segment-only test, so
//! sharded segment expansion is at least as complete as the unsharded
//! heuristic at `O(1)` extra cost per boundary frontier
//! (`tests/shard_segment_gap.rs` reproduces the old drop and verifies
//! the fix). The [`ExpansionPolicy::Cell`](crate::ExpansionPolicy)
//! policy remains exact on every path with no fallback needed.
//!
//! [`ShardedDynamicAreaQueryEngine`] adds the base + delta pattern of
//! [`crate::dynamic`] on top: inserts land in **shard-local delta
//! buffers** (routed to the nearest shard MBR, pruned at query time by
//! the buffer's own MBR), deletes tombstone, and compaction rebuilds the
//! sharded base in parallel.

use crate::area::QueryArea;
use crate::batch::prepare_batch_shared;
use crate::dynamic::{should_purge_delta, DynamicQueryResult, DEFAULT_COMPACT_RATIO};
use crate::engine::{AreaQueryEngine, EngineBuilder};
use crate::payload::{RecordStore, PAYLOAD_SEED};
use crate::plan::{DensityMap, ExecutionPlan, PlanFeatures, PlannedPath, Planner};
use crate::query::{PrepareMode, QuerySpec, ShardPruning};
use crate::scratch::QueryScratch;
use crate::sink::{
    dispatch_sink, DynamicSink, Emit, EngineSink, Neighbor, ResultSink, SinkId, SinkVisitor,
};
use crate::stats::{CacheCounters, QueryStats};
use crate::sync::{par_map, Mutex};
use std::collections::HashSet;
use vaq_delaunay::{weights_are_uniform, DiagramKind};
use vaq_geom::{Point, Polygon, Rect};

/// One spatial partition: its own engine, its points' global input
/// indices, and its MBR (the pruning key).
pub(crate) struct Shard {
    pub(crate) engine: AreaQueryEngine,
    /// Global input index of each shard-local point (parallel to the
    /// shard engine's points).
    pub(crate) global: Vec<u32>,
    /// Tight bounding box of the shard's points.
    pub(crate) mbr: Rect,
}

/// `true` when `spec`'s pruning rule rejects `shard` for `area`: the
/// shard's MBR misses the area's MBR, or — under
/// [`ShardPruning::Exact`] — the area's exact geometry misses the
/// shard's (non-degenerate) MBR rectangle. Pruning never changes
/// results: a pruned shard provably holds no matching point. Both the
/// sequential and the batched execution paths prune through this one
/// predicate, so their visit/prune counters always agree.
fn prune_shard<A: QueryArea + ?Sized>(
    spec: &QuerySpec,
    shard: &Shard,
    area_mbr: &Rect,
    area: &A,
) -> bool {
    if !shard.mbr.intersects(area_mbr) {
        return true;
    }
    spec.shard_pruning == ShardPruning::Exact
        && shard.mbr.width() > 0.0
        && shard.mbr.height() > 0.0
        && !area.intersects_polygon(&Polygon::new_unchecked(shard.mbr.corners().to_vec()))
}

/// Per-visited-shard counters of one sharded query.
#[derive(Clone, Debug)]
pub struct ShardBreakdown {
    /// Shard index (stable across queries; see
    /// [`ShardedAreaQueryEngine::shard_mbrs`]).
    pub shard: usize,
    /// The shard-local query's work counters.
    pub stats: QueryStats,
}

/// The merged answer to one sharded query.
#[derive(Clone, Debug, Default)]
pub struct ShardedQueryOutput {
    /// Matching **global input indices, ascending** (empty in
    /// [`OutputMode::Count`](crate::OutputMode); the kept neighbours'
    /// indices in [`OutputMode::TopKNearest`](crate::OutputMode)).
    pub indices: Vec<u32>,
    /// Number of matching points (equals `indices.len()` when
    /// collecting).
    pub count: usize,
    /// The kept neighbours, ascending by `(dist_sq, index)` — populated
    /// only by [`OutputMode::TopKNearest`](crate::OutputMode), merged
    /// across shards with ties broken by global index.
    pub neighbors: Vec<Neighbor>,
    /// Aggregate counters: per-shard work summed
    /// ([`QueryStats::absorb_shard`]), `shards_visited` /
    /// `shards_pruned` filled in, prepared-cache traffic of the shared
    /// (per-batch) preparation.
    pub stats: QueryStats,
    /// Per-visited-shard counters, ascending by shard index.
    pub breakdown: Vec<ShardBreakdown>,
}

/// Recursively median-splits `idx` (indices into `points`) into `shards`
/// spatially tight, balanced partitions. Each split is on the longer
/// extent of the current partition's MBR; the split rank is proportional
/// to the shard counts on each side, so every leaf ends within ±1 of
/// `n / shards` points. Ties on a coordinate break by input index, so
/// the partition is fully deterministic.
fn split_partition(points: &[Point], idx: &mut [u32], shards: usize, out: &mut Vec<Vec<u32>>) {
    if idx.is_empty() {
        return;
    }
    if shards <= 1 || idx.len() == 1 {
        out.push(idx.to_vec());
        return;
    }
    let mbr = Rect::from_points(idx.iter().map(|&i| points[i as usize]));
    let by_x = mbr.width() >= mbr.height();
    let left_shards = shards / 2;
    let mid = idx.len() * left_shards / shards;
    idx.select_nth_unstable_by(mid, |&a, &b| {
        let (pa, pb) = (points[a as usize], points[b as usize]);
        let key = if by_x {
            pa.x.total_cmp(&pb.x)
        } else {
            pa.y.total_cmp(&pb.y)
        };
        key.then(a.cmp(&b))
    });
    let (left, right) = idx.split_at_mut(mid);
    split_partition(points, left, left_shards, out);
    split_partition(points, right, shards - left_shards, out);
}

/// Resolves the requested shard count: `0` auto-tunes to the machine's
/// available parallelism (>= 1), anything else passes through. Same
/// resolution the CLI's `--threads auto` uses.
fn resolve_shard_count(shards: usize) -> usize {
    crate::sync::resolve_threads(shards)
}

/// Partitions `0..points.len()` into at most `shards` non-empty parts.
fn partition(points: &[Point], shards: usize) -> Vec<Vec<u32>> {
    if points.is_empty() {
        return Vec::new();
    }
    let shards = shards.clamp(1, points.len());
    let mut idx: Vec<u32> = (0..points.len() as u32).collect();
    let mut out = Vec::with_capacity(shards);
    split_partition(points, &mut idx, shards, &mut out);
    out
}

/// The sharded engine: `S` independent [`AreaQueryEngine`]s over a
/// kd-partitioned point set, answering any [`QuerySpec`] with MBR shard
/// pruning and global-index merging. See the [module docs](self).
pub struct ShardedAreaQueryEngine {
    shards: Vec<Shard>,
    /// Total number of indexed points.
    len: usize,
    /// The shard count originally requested (compaction of the dynamic
    /// overlay re-targets it even when fewer shards are currently live).
    target_shards: usize,
    /// Shard-granularity density map (tight shard MBRs weighted by their
    /// point counts) — the planner's candidate estimator, free at build
    /// time.
    density: DensityMap,
    /// The engine-resident planner resolving
    /// [`MethodChoice::Auto`](crate::MethodChoice) specs; behind a mutex
    /// because the sharded engine executes through `&self`.
    planner: Mutex<Planner>,
    /// The diagram family the *input* weights selected. Per-shard weight
    /// slices may individually normalise to Euclidean (a shard whose
    /// points all share one weight); the global kind is what the planner
    /// hedges on.
    diagram: DiagramKind,
}

impl ShardedAreaQueryEngine {
    /// Partitions `points` into (at most) `shards` shards and builds the
    /// per-shard engines in parallel on up to `shards` worker threads.
    /// Fewer than `shards` shards are built when the point set is
    /// smaller than the shard count.
    ///
    /// `shards == 0` **auto-tunes**: the shard count becomes the
    /// machine's [`std::thread::available_parallelism`] (the first rung
    /// of shard-count auto-tuning — one shard per hardware thread keeps
    /// every core busy on fan-out queries without over-partitioning the
    /// prune). The CLI exposes it as `--shards auto`.
    pub fn build(points: &[Point], shards: usize) -> ShardedAreaQueryEngine {
        let shards = resolve_shard_count(shards);
        ShardedAreaQueryEngine::build_with(points, shards, shards)
    }

    /// As [`ShardedAreaQueryEngine::build`], attaching a simulated
    /// payload record of `payload_bytes` bytes to every point: **one
    /// logical record store** is generated for the whole dataset (same
    /// seed and contents as `EngineBuilder::payload_bytes` on the
    /// unsharded engine) and [split](RecordStore::split) into per-shard
    /// stores addressed by shard-local ids — record contents are copied
    /// exactly once and validation/materialisation checksums stay
    /// bit-identical to the unsharded engine's. `payload_bytes == 0`
    /// builds without records; `shards == 0` auto-tunes.
    pub fn build_with_payload(
        points: &[Point],
        shards: usize,
        payload_bytes: usize,
    ) -> ShardedAreaQueryEngine {
        if payload_bytes == 0 {
            return ShardedAreaQueryEngine::build(points, shards);
        }
        let logical = RecordStore::generate(points.len(), payload_bytes, PAYLOAD_SEED);
        let shards = resolve_shard_count(shards);
        ShardedAreaQueryEngine::build_inner(points, shards, shards, None, Some(&logical))
    }

    /// As [`ShardedAreaQueryEngine::build`] over **weighted sites**: each
    /// shard builds the power diagram of its own weight slice (the kd
    /// partition splits `weights` alongside `points`), so every shard
    /// answers with power-cell semantics and the merged result equals the
    /// unsharded [`AreaQueryEngine::build_weighted`] engine's. Uniform
    /// weights normalise to the Euclidean diagram and the engine is
    /// bit-identical to [`ShardedAreaQueryEngine::build`].
    ///
    /// # Panics
    ///
    /// Panics when `weights.len() != points.len()` or any weight is
    /// non-finite (validate user input first; the CLI does).
    pub fn build_weighted(
        points: &[Point],
        weights: &[f64],
        shards: usize,
    ) -> ShardedAreaQueryEngine {
        assert_eq!(
            weights.len(),
            points.len(),
            "one weight per point: {} weights for {} points",
            weights.len(),
            points.len()
        );
        let shards = resolve_shard_count(shards);
        ShardedAreaQueryEngine::build_inner(points, shards, shards, Some(weights), None)
    }

    /// [`ShardedAreaQueryEngine::build_weighted`] with a simulated
    /// payload record per point, split per shard exactly as
    /// [`ShardedAreaQueryEngine::build_with_payload`] does.
    /// `payload_bytes == 0` builds without records.
    ///
    /// # Panics
    ///
    /// As [`ShardedAreaQueryEngine::build_weighted`].
    pub fn build_weighted_with_payload(
        points: &[Point],
        weights: &[f64],
        shards: usize,
        payload_bytes: usize,
    ) -> ShardedAreaQueryEngine {
        assert_eq!(
            weights.len(),
            points.len(),
            "one weight per point: {} weights for {} points",
            weights.len(),
            points.len()
        );
        if payload_bytes == 0 {
            return ShardedAreaQueryEngine::build_weighted(points, weights, shards);
        }
        let logical = RecordStore::generate(points.len(), payload_bytes, PAYLOAD_SEED);
        let shards = resolve_shard_count(shards);
        ShardedAreaQueryEngine::build_inner(points, shards, shards, Some(weights), Some(&logical))
    }

    /// As [`ShardedAreaQueryEngine::build`] with an explicit build
    /// worker count (`<= 1` builds sequentially on the calling thread).
    pub fn build_with(
        points: &[Point],
        shards: usize,
        build_threads: usize,
    ) -> ShardedAreaQueryEngine {
        ShardedAreaQueryEngine::build_inner(
            points,
            resolve_shard_count(shards),
            build_threads,
            None,
            None,
        )
    }

    fn build_inner(
        points: &[Point],
        shards: usize,
        build_threads: usize,
        weights: Option<&[f64]>,
        records: Option<&RecordStore>,
    ) -> ShardedAreaQueryEngine {
        let parts = partition(points, shards);
        // Per-shard slices of the logical record store (shard-local ids),
        // each record's bytes copied exactly once; the mutex lets each
        // build worker *take* its shard's store instead of cloning it (a
        // clone would be a second copy of the record contents).
        let shard_stores: Vec<Mutex<Option<RecordStore>>> = match records {
            Some(logical) => logical
                .split(&parts)
                .expect("partition indices are in range")
                .into_iter()
                .map(|s| Mutex::new(Some(s)))
                .collect(),
            None => (0..parts.len()).map(|_| Mutex::new(None)).collect(),
        };
        let multi = parts.len() > 1;
        let build_one = |si: usize, part: &[u32]| -> Shard {
            let pts: Vec<Point> = part.iter().map(|&i| points[i as usize]).collect();
            let ws: Option<Vec<f64>> =
                weights.map(|w| part.iter().map(|&i| w[i as usize]).collect());
            let mut builder = EngineBuilder::new(&pts);
            if let Some(ws) = &ws {
                builder = builder.weights(ws);
            }
            let store = shard_stores[si]
                .lock()
                .expect("store mutex poisoned")
                .take();
            if let Some(store) = store {
                builder = builder.record_store(store);
            }
            let mbr = Rect::from_points(pts.iter().copied());
            let mut engine = builder.build();
            if multi {
                // Flag boundary-straddling Voronoi cells so the segment
                // policy can fall back to the complete cell test on
                // frontiers near the kd cut (see the module docs). A
                // single shard has no cut and keeps the plain engine's
                // behaviour bit for bit.
                engine.mark_shard_boundary(&mbr);
            }
            Shard {
                mbr,
                engine,
                global: part.to_vec(),
            }
        };
        let built: Vec<Shard> = par_map(
            parts.len(),
            build_threads,
            || (),
            |_, i| build_one(i, &parts[i]),
        );
        let density =
            DensityMap::from_regions(built.iter().map(|s| (s.mbr, s.engine.len() as f64)));
        ShardedAreaQueryEngine {
            len: points.len(),
            target_shards: shards.max(1),
            shards: built,
            density,
            planner: Mutex::new(Planner::default()),
            diagram: match weights {
                Some(w) if !weights_are_uniform(w) => DiagramKind::Power,
                _ => DiagramKind::Euclidean,
            },
        }
    }

    /// The diagram family the input weights selected (uniform weights
    /// normalise to [`DiagramKind::Euclidean`]).
    pub fn diagram_kind(&self) -> DiagramKind {
        self.diagram
    }

    /// Number of live shards (at most the requested shard count).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of indexed points across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Each shard's tight bounding box, in shard-index order.
    pub fn shard_mbrs(&self) -> Vec<Rect> {
        self.shards.iter().map(|s| s.mbr).collect()
    }

    /// Each shard's point count, in shard-index order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.engine.len()).collect()
    }

    /// Shard-granularity density map: the kd partition's tight shard
    /// MBRs weighted by their point counts. The planner's candidate
    /// estimator — O(shards) per lookup, free at build time.
    pub fn density_map(&self) -> &DensityMap {
        &self.density
    }

    /// Bytes per payload record of the per-shard record stores (`None`
    /// when the engine was built without payload simulation). Every
    /// shard's store is split from one logical store, so the first
    /// shard speaks for all of them.
    pub fn payload_record_bytes(&self) -> Option<usize> {
        self.shards
            .first()
            .and_then(|s| s.engine.record_store())
            .map(RecordStore::record_bytes)
    }

    /// Point density (points per unit area) of shard `shard`. A
    /// degenerate (zero-area) shard MBR reports its raw point count.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= self.shard_count()`.
    pub fn shard_density(&self, shard: usize) -> f64 {
        let s = &self.shards[shard];
        let a = s.mbr.area();
        if a > 0.0 {
            s.engine.len() as f64 / a
        } else {
            s.engine.len() as f64
        }
    }

    /// Assembles the planner's feature vector for a query over `area` on
    /// this engine ([`PlannedPath::Sharded`]; `delta_len` is the live
    /// overlay depth when called from the dynamic wrapper).
    fn plan_features<A: QueryArea + ?Sized>(&self, area: &A, delta_len: usize) -> PlanFeatures {
        let mbr = area.mbr();
        let bounds = self
            .shards
            .iter()
            .fold(Rect::EMPTY, |acc, s| acc.union(&s.mbr));
        PlanFeatures {
            len: self.len,
            est_candidates: self.density.estimate_count(&mbr),
            vertices: area.complexity(),
            cached: false,
            cacheable: area.fingerprint().is_some(),
            delta_len,
            shards: self.shards.len(),
            in_hull: bounds.contains_rect(&mbr),
            path: PlannedPath::Sharded,
            diagram: self.diagram,
        }
    }

    /// Resolves a [`MethodChoice::Auto`](crate::MethodChoice) spec
    /// through the engine's planner and returns the concrete spec, its
    /// plan, and the vertex count (for post-hoc cost observation).
    fn resolve_auto<A: QueryArea + ?Sized>(
        &self,
        spec: &QuerySpec,
        area: &A,
        delta_len: usize,
    ) -> (QuerySpec, ExecutionPlan, usize) {
        let features = self.plan_features(area, delta_len);
        let (resolved, plan) = self
            .planner
            .lock()
            .expect("planner mutex poisoned")
            .resolve(spec, &features);
        (resolved, plan, features.vertices)
    }

    /// Feeds one finished planned query back into the engine planner's
    /// calibration.
    fn observe_auto(&self, plan: &ExecutionPlan, stats: &QueryStats, vertices: usize) {
        self.planner
            .lock()
            .expect("planner mutex poisoned")
            .observe(plan, Planner::observed_cost(stats, vertices));
    }

    /// The persisted fields of the sharded engine, for the snapshot
    /// writer: shards (each carrying its own engine and global ids),
    /// total length, the originally requested shard count, the diagram
    /// family, and the planner's current calibration ratios. Shard MBRs
    /// and the density map are *not* persisted — both are recomputed
    /// exactly from the shard point sets on load.
    #[allow(clippy::type_complexity)] // one tuple slot per persisted field
    pub(crate) fn snapshot_parts(&self) -> (&[Shard], usize, usize, DiagramKind, [f64; 3]) {
        let calibration = self
            .planner
            .lock()
            .expect("planner mutex poisoned")
            .calibration_array();
        (
            &self.shards,
            self.len,
            self.target_shards,
            self.diagram,
            calibration,
        )
    }

    /// Reassembles a sharded engine from snapshot-loaded parts. Shard
    /// MBRs are recomputed from the shard point sets (`Rect::from_points`
    /// is deterministic, so they are bit-identical to the built engine's)
    /// and the density map is rebuilt from them exactly as
    /// `build_inner` does; the planner resumes from the persisted
    /// calibration ratios.
    pub(crate) fn from_snapshot_parts(
        shards: Vec<(AreaQueryEngine, Vec<u32>)>,
        len: usize,
        target_shards: usize,
        diagram: DiagramKind,
        calibration: [f64; 3],
    ) -> ShardedAreaQueryEngine {
        let shards: Vec<Shard> = shards
            .into_iter()
            .map(|(engine, global)| {
                let mbr = Rect::from_points(engine.points().iter().copied());
                Shard {
                    engine,
                    global,
                    mbr,
                }
            })
            .collect();
        let density =
            DensityMap::from_regions(shards.iter().map(|s| (s.mbr, s.engine.len() as f64)));
        ShardedAreaQueryEngine {
            shards,
            len,
            target_shards,
            density,
            planner: Mutex::new(Planner::with_calibration(calibration)),
            diagram,
        }
    }

    /// The indexed points, reassembled in global input order (used by
    /// the dynamic overlay's compaction).
    pub fn points_in_input_order(&self) -> Vec<Point> {
        let mut pts = vec![Point::new(0.0, 0.0); self.len];
        for shard in &self.shards {
            for (local, &g) in shard.global.iter().enumerate() {
                pts[g as usize] = shard.engine.points()[local];
            }
        }
        pts
    }

    /// Executes `spec` over `area`: shards whose MBR misses the area's
    /// MBR are pruned outright, the survivors run sequentially through
    /// the generic emission path, and the shard-local sink partials are
    /// **merged** ([`ResultSink::merge`]) into one answer mapped to
    /// ascending global input indices. Preparation (for
    /// [`PrepareMode::PrepareOnce`] / `Cached`) happens **once** and the
    /// compiled area is shared by every shard.
    ///
    /// Note: a lone `execute` holds no state across calls, so
    /// [`PrepareMode::Cached`] here equals `PrepareOnce` shared across
    /// shards — each call re-compiles the area (stats report the one
    /// miss). Repeated-area amortisation needs a batch
    /// ([`ShardedAreaQueryEngine::execute_batch`] compiles each distinct
    /// fingerprint once per batch) or a caller-held prepared area.
    ///
    /// For many queries, prefer [`ShardedAreaQueryEngine::execute_batch`]
    /// — it runs `(area, shard)` pairs on a work-stealing pool and
    /// reuses per-shard scratch.
    ///
    /// # Panics
    ///
    /// Panics for `OutputMode::Classify`: classification is defined on
    /// one global Voronoi diagram, which the sharded engine does not
    /// build.
    pub fn execute<A: QueryArea + ?Sized>(&self, spec: &QuerySpec, area: &A) -> ShardedQueryOutput {
        if spec.method.is_auto() {
            let (resolved, plan, vertices) = self.resolve_auto(spec, area, 0);
            let mut out = self.execute(&resolved, area);
            out.stats.plan = Some(plan);
            self.observe_auto(&plan, &out.stats, vertices);
            return out;
        }
        dispatch_sink(
            spec.output,
            ShardRun {
                eng: self,
                spec,
                area,
            },
        )
    }

    /// The sharded emission core shared by [`ShardedAreaQueryEngine::execute`]
    /// and the sharded dynamic engine's base pass: prepares the area once,
    /// prunes shards by MBR, runs each survivor through
    /// [`AreaQueryEngine::run_sink`] with its global-index translation
    /// composed with the caller's `map`, merges the shard partials into
    /// `acc`, and folds the per-shard counters into `stats` (work
    /// counters summed via [`QueryStats::absorb_shard`], visit/prune
    /// counters and the one-shot cache traffic set here, per-shard
    /// breakdowns appended when requested).
    #[allow(clippy::too_many_arguments)] // the emission core's explicit inputs
    pub(crate) fn run_shards_sink<A, I, K, F>(
        &self,
        spec: &QuerySpec,
        area: &A,
        kind: &K,
        acc: &mut K::Partial,
        map: &F,
        stats: &mut QueryStats,
        mut breakdown: Option<&mut Vec<ShardBreakdown>>,
    ) where
        A: QueryArea + ?Sized,
        I: SinkId,
        K: ResultSink<I>,
        F: Fn(u32) -> Option<I>,
    {
        let prepared: Option<Box<dyn QueryArea + Send + Sync>> = match spec.prepare {
            PrepareMode::Raw => None,
            _ => area.prepare(),
        };
        // One shared preparation for the whole query: report it as the
        // single miss a batch-wide cache would record.
        let cache = if prepared.is_some() && spec.prepare == PrepareMode::Cached {
            CacheCounters { hits: 0, misses: 1 }
        } else {
            CacheCounters::default()
        };
        let raw_spec = spec.prepare(PrepareMode::Raw);
        let area_mbr = area.mbr();
        for (si, shard) in self.shards.iter().enumerate() {
            if prune_shard(spec, shard, &area_mbr, area) {
                stats.shards_pruned += 1;
                continue;
            }
            stats.shards_visited += 1;
            let mut st = QueryStats::default();
            let mut part = kind.start();
            let shard_map = |local: u32| map(shard.global[local as usize]);
            match &prepared {
                Some(prep) => shard.engine.run_sink(
                    &raw_spec,
                    prep.as_ref(),
                    None,
                    kind,
                    &mut part,
                    &shard_map,
                    &mut st,
                ),
                None => shard
                    .engine
                    .run_sink(&raw_spec, area, None, kind, &mut part, &shard_map, &mut st),
            }
            st.result_size = kind.result_len(&part);
            kind.merge(acc, part);
            stats.absorb_shard(&st);
            if let Some(b) = breakdown.as_deref_mut() {
                b.push(ShardBreakdown {
                    shard: si,
                    stats: st,
                });
            }
        }
        stats.prepared_cache = cache;
    }

    /// Executes `spec` over every area on `threads` worker threads and
    /// returns the merged outputs **in input order**.
    ///
    /// The unit of work is one `(area, shard)` pair of the pruned
    /// survivor set, handed out through a shared atomic index (work
    /// stealing), so a worker never idles behind one heavy area *or* one
    /// heavy shard. Workers keep per-shard scratch across the batch, and
    /// each work item fills its own sink partial — the merge step folds
    /// partials in ascending shard order ([`ResultSink::merge`]), never
    /// re-dispatching on the output mode. Under [`PrepareMode::Cached`],
    /// each **distinct** area fingerprint is compiled once per batch and
    /// the compiled form is shared across workers *and* shards; the
    /// batch-wide hit/miss counters land in the per-area stats exactly
    /// as in [`AreaQueryEngine::execute_batch`].
    ///
    /// # Panics
    ///
    /// As [`ShardedAreaQueryEngine::execute`].
    pub fn execute_batch<A: QueryArea + Sync>(
        &self,
        spec: &QuerySpec,
        areas: &[A],
        threads: usize,
    ) -> Vec<ShardedQueryOutput> {
        if spec.method.is_auto() {
            return self.execute_batch_auto(spec, areas, threads);
        }
        dispatch_sink(
            spec.output,
            ShardBatchRun {
                eng: self,
                spec,
                areas,
                threads,
            },
        )
    }

    /// The batched planned path: every area's plan is resolved **up
    /// front** against the planner's pre-batch calibration — plans never
    /// depend on worker interleaving — then the resolved explicit
    /// queries run on a work-stealing pool at per-area granularity and
    /// each output carries its plan. Observations feed the calibration
    /// back in area order after the batch, so the whole call is
    /// deterministic for a fixed engine and area list.
    fn execute_batch_auto<A: QueryArea + Sync>(
        &self,
        spec: &QuerySpec,
        areas: &[A],
        threads: usize,
    ) -> Vec<ShardedQueryOutput> {
        let plans: Vec<(QuerySpec, ExecutionPlan, usize)> = {
            let planner = self.planner.lock().expect("planner mutex poisoned");
            areas
                .iter()
                .map(|area| {
                    let features = self.plan_features(area, 0);
                    let (resolved, plan) = planner.resolve(spec, &features);
                    (resolved, plan, features.vertices)
                })
                .collect()
        };
        let outs = par_map(
            areas.len(),
            threads,
            || (),
            |_, i| {
                let mut out = self.execute(&plans[i].0, &areas[i]);
                out.stats.plan = Some(plans[i].1);
                out
            },
        );
        for (out, (_, plan, vertices)) in outs.iter().zip(&plans) {
            self.observe_auto(plan, &out.stats, *vertices);
        }
        outs
    }
}

/// The sequential sharded execution path as a sink visitor.
struct ShardRun<'r, A: ?Sized> {
    eng: &'r ShardedAreaQueryEngine,
    spec: &'r QuerySpec,
    area: &'r A,
}

impl<A: QueryArea + ?Sized> SinkVisitor for ShardRun<'_, A> {
    type Out = ShardedQueryOutput;

    fn visit<K: EngineSink + DynamicSink>(self, kind: K) -> ShardedQueryOutput {
        let mut out = ShardedQueryOutput::default();
        let mut acc = ResultSink::<u32>::start(&kind);
        let mut breakdown = Vec::new();
        self.eng.run_shards_sink(
            self.spec,
            self.area,
            &kind,
            &mut acc,
            &Some,
            &mut out.stats,
            Some(&mut breakdown),
        );
        out.breakdown = breakdown;
        kind.fold_sharded(acc, &mut out);
        out.stats.result_size = out.count;
        out
    }

    fn classify(self) -> ShardedQueryOutput {
        // vaq-lint: allow(panic-hygiene) -- documented unsupported-mode
        // contract: classification is per-diagram, and the message points
        // the caller at the right engine.
        panic!("point classification is per-diagram and is not supported on the sharded engine");
    }
}

/// The batched sharded execution path as a sink visitor: `(area, shard)`
/// work items on a shared work-stealing index, one sink partial per item,
/// merged per area in ascending shard order.
struct ShardBatchRun<'r, A> {
    eng: &'r ShardedAreaQueryEngine,
    spec: &'r QuerySpec,
    areas: &'r [A],
    threads: usize,
}

impl<A: QueryArea + Sync> SinkVisitor for ShardBatchRun<'_, A> {
    type Out = Vec<ShardedQueryOutput>;

    fn visit<K: EngineSink + DynamicSink>(self, kind: K) -> Vec<ShardedQueryOutput> {
        let ShardBatchRun {
            eng,
            spec,
            areas,
            threads,
        } = self;
        let shared = prepare_batch_shared(spec, areas);
        let raw_spec = spec.prepare(PrepareMode::Raw);

        // Prune: the work list holds only surviving (area, shard) pairs,
        // area-major so each area's items form one contiguous range.
        let mut work: Vec<(u32, u32)> = Vec::new();
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(areas.len());
        let mut pruned: Vec<usize> = Vec::with_capacity(areas.len());
        for area in areas {
            let mbr = area.mbr();
            let start = work.len();
            let mut misses = 0usize;
            for (si, shard) in eng.shards.iter().enumerate() {
                if prune_shard(spec, shard, &mbr, area) {
                    misses += 1;
                } else {
                    work.push((ranges.len() as u32, si as u32));
                }
            }
            ranges.push((start, work.len()));
            pruned.push(misses);
        }

        // One (area, shard) work item producing its own sink partial and
        // per-shard stats; `scratch` is the worker's lazily created
        // per-shard scratch.
        let run_one = |&(ai, si): &(u32, u32),
                       scratch: &mut Vec<Option<QueryScratch>>|
         -> (<K as ResultSink<u32>>::Partial, QueryStats) {
            let shard = &eng.shards[si as usize];
            let s = scratch[si as usize].get_or_insert_with(|| shard.engine.new_scratch());
            let mut st = QueryStats::default();
            let mut part = ResultSink::<u32>::start(&kind);
            let shard_map = |local: u32| Some(shard.global[local as usize]);
            match shared
                .as_ref()
                .and_then(|sh| sh.resolved[ai as usize].as_deref())
            {
                Some(prep) => shard.engine.run_sink(
                    &raw_spec,
                    prep,
                    Some(s),
                    &kind,
                    &mut part,
                    &shard_map,
                    &mut st,
                ),
                None => shard.engine.run_sink(
                    &raw_spec,
                    &areas[ai as usize],
                    Some(s),
                    &kind,
                    &mut part,
                    &shard_map,
                    &mut st,
                ),
            }
            st.result_size = ResultSink::<u32>::result_len(&kind, &part);
            (part, st)
        };

        let mut results = par_map(
            work.len(),
            threads,
            || -> Vec<Option<QueryScratch>> { (0..eng.shards.len()).map(|_| None).collect() },
            |scratch, w| run_one(&work[w], scratch),
        )
        .into_iter();

        // Merge each area's shard partials back to one output, in
        // ascending shard order (the work list was built that way), so
        // the aggregate is deterministic whatever the worker interleave.
        ranges
            .iter()
            .enumerate()
            .map(|(ai, &(start, end))| {
                let mut out = ShardedQueryOutput {
                    stats: QueryStats {
                        shards_pruned: pruned[ai],
                        ..QueryStats::default()
                    },
                    ..ShardedQueryOutput::default()
                };
                let mut acc = ResultSink::<u32>::start(&kind);
                let items = results.by_ref().take(end - start);
                for (&(_, si), (part, st)) in work[start..end].iter().zip(items) {
                    out.stats.shards_visited += 1;
                    ResultSink::<u32>::merge(&kind, &mut acc, part);
                    out.stats.absorb_shard(&st);
                    out.breakdown.push(ShardBreakdown {
                        shard: si as usize,
                        stats: st,
                    });
                }
                kind.fold_sharded(acc, &mut out);
                out.stats.result_size = out.count;
                out.stats.prepared_cache = shared
                    .as_ref()
                    .map_or(CacheCounters::default(), |sh| sh.counters[ai]);
                out
            })
            .collect()
    }

    fn classify(self) -> Vec<ShardedQueryOutput> {
        // vaq-lint: allow(panic-hygiene) -- documented unsupported-mode
        // contract, as in the single-area sink visitor above.
        panic!("point classification is per-diagram and is not supported on the sharded engine");
    }
}

/// One shard's delta buffer: inserts routed here, plus the tight MBR of
/// the buffered points (the buffer's own pruning key — delta points are
/// *not* bounded by the shard's base MBR).
#[derive(Clone, Debug)]
struct DeltaBucket {
    points: Vec<(u64, Point)>,
    mbr: Rect,
    /// How many buffered points are tombstoned (dead but not yet
    /// physically removed). Drives the purge heuristic.
    dead: usize,
}

impl DeltaBucket {
    fn new() -> DeltaBucket {
        DeltaBucket {
            points: Vec::new(),
            mbr: Rect::EMPTY,
            dead: 0,
        }
    }

    /// Physically removes tombstoned points and recomputes the tight MBR
    /// over the survivors. Without this, a bucket of mostly-dead points
    /// is re-scanned (and skipped point by point) on every query, and
    /// its stale MBR keeps it un-prunable long after the points it was
    /// stretched over are gone. The purged ids' tombstones are retired
    /// in the same pass (a purged insert never reaches the base, so its
    /// tombstone has nothing left to mask).
    fn purge(&mut self, tombstones: &mut HashSet<u64>) {
        self.points.retain(|(id, _)| !tombstones.remove(id));
        self.mbr = Rect::from_points(self.points.iter().map(|&(_, p)| p));
        self.dead = 0;
    }
}

/// The sharded base + delta pattern: a [`ShardedAreaQueryEngine`] base,
/// **shard-local** delta buffers (inserts routed to the nearest shard
/// MBR and pruned at query time by the buffer's own MBR), a tombstone
/// set, and compaction that rebuilds the sharded base in parallel.
/// External ids are stable across compaction, exactly as in
/// [`crate::dynamic::DynamicAreaQueryEngine`].
pub struct ShardedDynamicAreaQueryEngine {
    base: ShardedAreaQueryEngine,
    /// Stable external id per global base index (ascending — compaction
    /// rebuilds in id order, so binary search works).
    base_ids: Vec<u64>,
    /// One delta buffer per shard (a single buffer when the base is
    /// empty and there are no shards yet).
    deltas: Vec<DeltaBucket>,
    /// External ids deleted since the last compaction (base or delta).
    tombstones: HashSet<u64>,
    /// Next external id to hand out.
    next_id: u64,
}

impl ShardedDynamicAreaQueryEngine {
    /// Builds over an initial point set, partitioned into (at most)
    /// `shards` shards; ids `0..n as u64` are assigned in input order.
    pub fn new(points: &[Point], shards: usize) -> ShardedDynamicAreaQueryEngine {
        let base = ShardedAreaQueryEngine::build(points, shards);
        let buckets = base.shard_count().max(1);
        ShardedDynamicAreaQueryEngine {
            base_ids: (0..points.len() as u64).collect(),
            next_id: points.len() as u64,
            deltas: vec![DeltaBucket::new(); buckets],
            tombstones: HashSet::new(),
            base,
        }
    }

    /// Number of live points (base + deltas − tombstones).
    pub fn len(&self) -> usize {
        self.base_ids.len() + self.delta_len() - self.tombstones.len()
    }

    /// `true` when no live points remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Points buffered across all shard-local deltas.
    pub fn delta_len(&self) -> usize {
        self.deltas.iter().map(|b| b.points.len()).sum()
    }

    /// The sharded base currently serving queries.
    pub fn base(&self) -> &ShardedAreaQueryEngine {
        &self.base
    }

    /// Inserts a point, returning its stable id. The point joins the
    /// delta buffer of the shard whose MBR is nearest (spatial locality:
    /// a query pruned down to a few shards scans only those buffers).
    pub fn insert(&mut self, p: Point) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let bucket = self
            .base
            .shards
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.mbr.min_dist_sq(p).total_cmp(&b.mbr.min_dist_sq(p)))
            .map_or(0, |(si, _)| si);
        self.deltas[bucket].points.push((id, p));
        self.deltas[bucket].mbr.include(p);
        id
    }

    /// Deletes the point with external id `id`. Returns `false` when the
    /// id is unknown or already deleted.
    ///
    /// Deleted *delta* points are tombstoned first; once at least half
    /// of a bucket is dead the bucket is physically purged and its MBR
    /// recomputed over the survivors, so queries regain both the
    /// skip-free scan and the pruning power of a tight bounding box
    /// without waiting for full compaction.
    pub fn remove(&mut self, id: u64) -> bool {
        if self.tombstones.contains(&id) {
            return false;
        }
        if self.base_ids.binary_search(&id).is_ok() {
            self.tombstones.insert(id);
            return true;
        }
        let Some(bucket) = self
            .deltas
            .iter_mut()
            .find(|b| b.points.iter().any(|&(d, _)| d == id))
        else {
            return false;
        };
        self.tombstones.insert(id);
        bucket.dead += 1;
        if should_purge_delta(bucket.points.len(), bucket.dead) {
            bucket.purge(&mut self.tombstones);
        }
        true
    }

    /// Answers the area query with the paper-default [`QuerySpec`];
    /// returns stable external ids, ascending.
    pub fn query<A: QueryArea + ?Sized>(&self, area: &A) -> Vec<u64> {
        self.execute(&QuerySpec::new(), area).ids
    }

    /// Executes `spec` through the sharded funnel: the MBR-pruned base
    /// shards and the delta buckets whose own MBR intersects the area
    /// all **emit into the spec's result sink** in external-id space,
    /// tombstones filtered *before* the sink (so a bounded sink like
    /// `OutputMode::TopKNearest` never wastes a slot on a dead point).
    /// Stats aggregate the base shards (visited/pruned counters
    /// included) and the delta scan ([`QueryStats::delta_scanned`]).
    /// Delta-buffered points have no stored payload records until
    /// compaction, so the materialising sink reads records for base
    /// points only.
    ///
    /// # Panics
    ///
    /// Panics for `OutputMode::Classify`, as
    /// [`ShardedAreaQueryEngine::execute`] does.
    pub fn execute<A: QueryArea + ?Sized>(&self, spec: &QuerySpec, area: &A) -> DynamicQueryResult {
        if spec.method.is_auto() {
            let dead: usize = self.deltas.iter().map(|b| b.dead).sum();
            let (resolved, plan, vertices) =
                self.base.resolve_auto(spec, area, self.delta_len() - dead);
            let mut out = self.execute(&resolved, area);
            out.stats.plan = Some(plan);
            self.base.observe_auto(&plan, &out.stats, vertices);
            return out;
        }
        dispatch_sink(
            spec.output,
            ShardedDynamicRun {
                eng: self,
                spec,
                area,
            },
        )
    }

    /// The live overlay size (see
    /// [`crate::dynamic::DynamicAreaQueryEngine::overlay_len`] — the
    /// same cancellation rule for tombstoned delta points applies).
    pub fn overlay_len(&self) -> usize {
        let dead_delta: usize = self.deltas.iter().map(|b| b.dead).sum();
        debug_assert_eq!(
            dead_delta,
            self.deltas
                .iter()
                .flat_map(|b| &b.points)
                .filter(|(id, _)| self.tombstones.contains(id))
                .count(),
            "per-bucket dead counters track the tombstoned delta entries"
        );
        (self.delta_len() - dead_delta) + (self.tombstones.len() - dead_delta)
    }

    /// Compacts when the live overlay exceeds [`DEFAULT_COMPACT_RATIO`]
    /// of the base. Returns `true` if a rebuild happened.
    pub fn maybe_compact(&mut self) -> bool {
        if (self.overlay_len() as f64)
            <= (self.base_ids.len().max(16) as f64) * DEFAULT_COMPACT_RATIO
        {
            return false;
        }
        self.compact();
        true
    }

    /// Folds deltas and tombstones into a freshly partitioned, freshly
    /// built sharded base (parallel per-shard builds). Ids survive.
    pub fn compact(&mut self) {
        let base_pts = self.base.points_in_input_order();
        let mut ids = Vec::with_capacity(self.len());
        let mut pts = Vec::with_capacity(self.len());
        for (g, &id) in self.base_ids.iter().enumerate() {
            if !self.tombstones.contains(&id) {
                ids.push(id);
                pts.push(base_pts[g]);
            }
        }
        for bucket in &self.deltas {
            for &(id, p) in &bucket.points {
                if !self.tombstones.contains(&id) {
                    ids.push(id);
                    pts.push(p);
                }
            }
        }
        // Rebuild in id order so `base_ids` stays sorted for remove()'s
        // binary search.
        let mut order: Vec<usize> = (0..ids.len()).collect();
        order.sort_unstable_by_key(|&i| ids[i]);
        self.base_ids = order.iter().map(|&i| ids[i]).collect();
        let pts: Vec<Point> = order.iter().map(|&i| pts[i]).collect();
        self.base = ShardedAreaQueryEngine::build(&pts, self.base.target_shards);
        self.deltas = vec![DeltaBucket::new(); self.base.shard_count().max(1)];
        self.tombstones.clear();
    }
}

/// The sharded dynamic execution path as a sink visitor: base shards
/// through the sharded emission core (tombstones filtered, global
/// indices translated to external ids before the sink), then the
/// MBR-surviving delta buckets scanned into the same partial.
struct ShardedDynamicRun<'r, A: ?Sized> {
    eng: &'r ShardedDynamicAreaQueryEngine,
    spec: &'r QuerySpec,
    area: &'r A,
}

impl<A: QueryArea + ?Sized> SinkVisitor for ShardedDynamicRun<'_, A> {
    type Out = DynamicQueryResult;

    fn visit<K: EngineSink + DynamicSink>(self, kind: K) -> DynamicQueryResult {
        let eng = self.eng;
        let area = self.area;
        let mut stats = QueryStats::default();
        let mut partial = ResultSink::<u64>::start(&kind);
        let map = |g: u32| {
            let id = eng.base_ids[g as usize];
            (!eng.tombstones.contains(&id)).then_some(id)
        };
        eng.base
            .run_shards_sink(self.spec, area, &kind, &mut partial, &map, &mut stats, None);
        let area_mbr = area.mbr();
        let delta_predicates = AreaQueryEngine::sample_predicates(|| {
            for bucket in &eng.deltas {
                if bucket.points.is_empty() || !bucket.mbr.intersects(&area_mbr) {
                    continue;
                }
                for &(id, p) in &bucket.points {
                    if eng.tombstones.contains(&id) {
                        continue;
                    }
                    stats.delta_scanned += 1;
                    stats.candidates += 1;
                    stats.containment_tests += 1;
                    if area.contains(p) {
                        stats.accepted += 1;
                        kind.emit(
                            &mut partial,
                            &Emit {
                                id,
                                local: 0,
                                point: p,
                                records: None,
                            },
                            &mut stats,
                        );
                    }
                }
            }
        });
        stats.predicates.absorb(delta_predicates);
        stats.result_size = ResultSink::<u64>::result_len(&kind, &partial);
        let mut out = DynamicQueryResult {
            ids: Vec::new(),
            neighbors: Vec::new(),
            stats,
        };
        kind.finish_dynamic(partial, &mut out);
        out
    }

    fn classify(self) -> DynamicQueryResult {
        // vaq-lint: allow(panic-hygiene) -- documented unsupported-mode
        // contract, as in the sink visitors above.
        panic!("point classification is per-diagram and is not supported on the sharded engine");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AreaQueryEngine;
    use crate::query::{OutputMode, QueryMethod};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vaq_geom::Polygon;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn uniform(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| p(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    fn square(cx: f64, cy: f64, half: f64) -> Polygon {
        Polygon::new(vec![
            p(cx - half, cy - half),
            p(cx + half, cy - half),
            p(cx + half, cy + half),
            p(cx - half, cy + half),
        ])
        .unwrap()
    }

    #[test]
    fn partition_is_balanced_tight_and_covers() {
        let pts = uniform(1000, 3);
        for shards in [1usize, 2, 3, 5, 8, 13] {
            let parts = partition(&pts, shards);
            assert_eq!(parts.len(), shards);
            let total: usize = parts.iter().map(Vec::len).sum();
            assert_eq!(total, pts.len(), "partition covers every point");
            let mut seen = vec![false; pts.len()];
            for part in &parts {
                for &g in part {
                    assert!(!seen[g as usize], "partition is disjoint");
                    seen[g as usize] = true;
                }
            }
            let (min, max) = parts
                .iter()
                .map(Vec::len)
                .fold((usize::MAX, 0), |(lo, hi), n| (lo.min(n), hi.max(n)));
            assert!(
                max - min <= 1 + pts.len() / (4 * shards),
                "balanced: min {min}, max {max} across {shards} shards"
            );
        }
        // Determinism.
        assert_eq!(partition(&pts, 7), partition(&pts, 7));
    }

    #[test]
    fn small_and_empty_point_sets() {
        assert_eq!(partition(&[], 4).len(), 0);
        let engine = ShardedAreaQueryEngine::build(&[], 4);
        assert!(engine.is_empty());
        assert_eq!(engine.shard_count(), 0);
        let out = engine.execute(&QuerySpec::new(), &square(0.5, 0.5, 0.3));
        assert_eq!(out.count, 0);
        assert!(out.indices.is_empty());

        // More shards than points: one shard per point, queries still work.
        let pts = uniform(3, 9);
        let engine = ShardedAreaQueryEngine::build(&pts, 64);
        assert_eq!(engine.shard_count(), 3);
        let whole = square(0.5, 0.5, 0.6);
        let out = engine.execute(&QuerySpec::new(), &whole);
        assert_eq!(out.indices, vec![0, 1, 2]);
    }

    #[test]
    fn sharded_matches_unsharded_across_methods_and_threads() {
        let pts = uniform(1200, 41);
        let single = AreaQueryEngine::build(&pts);
        let areas: Vec<Polygon> = (0..8)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(500 + i);
                square(
                    0.2 + 0.6 * rng.gen::<f64>(),
                    0.2 + 0.6 * rng.gen::<f64>(),
                    0.05 + 0.2 * rng.gen::<f64>(),
                )
            })
            .collect();
        for shards in [1usize, 2, 4, 7] {
            let sharded = ShardedAreaQueryEngine::build(&pts, shards);
            assert_eq!(sharded.len(), pts.len());
            for area in &areas {
                let want = single.execute(&QuerySpec::new(), area);
                let want_sorted = want.result().unwrap().sorted_indices();
                for method in [
                    QueryMethod::Voronoi,
                    QueryMethod::Traditional,
                    QueryMethod::BruteForce,
                ] {
                    let spec = QuerySpec::new().method(method);
                    let got = sharded.execute(&spec, area);
                    assert_eq!(got.indices, want_sorted, "{method:?} shards={shards}");
                    assert_eq!(got.count, want_sorted.len());
                    assert_eq!(got.stats.result_size, want_sorted.len());
                    assert_eq!(
                        got.stats.shards_visited + got.stats.shards_pruned,
                        sharded.shard_count(),
                        "every shard is visited or pruned"
                    );
                    let counted = sharded.execute(&spec.output(OutputMode::Count), area);
                    assert_eq!(counted.count, want_sorted.len(), "{method:?} count");
                }
            }
            // Batch path, all thread counts, matches the single path.
            let single_outs = sharded.execute_batch(&QuerySpec::new(), &areas, 1);
            for threads in [1usize, 2, 4, 16] {
                let outs = sharded.execute_batch(&QuerySpec::new(), &areas, threads);
                for (i, (a, b)) in outs.iter().zip(&single_outs).enumerate() {
                    assert_eq!(a.indices, b.indices, "area {i} threads={threads}");
                    assert_eq!(a.count, b.count);
                    assert_eq!(a.stats, b.stats, "area {i} threads={threads}");
                    assert_eq!(a.breakdown.len(), b.breakdown.len());
                    for (x, y) in a.breakdown.iter().zip(&b.breakdown) {
                        assert_eq!(x.shard, y.shard);
                        assert_eq!(x.stats, y.stats, "area {i} threads={threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn small_areas_prune_shards() {
        let pts = uniform(2000, 51);
        let sharded = ShardedAreaQueryEngine::build(&pts, 8);
        assert_eq!(sharded.shard_count(), 8);
        // A tiny corner area cannot straddle every kd cell.
        let out = sharded.execute(&QuerySpec::new(), &square(0.05, 0.05, 0.04));
        assert!(
            out.stats.shards_pruned >= 4,
            "tiny corner area should prune most of 8 shards, pruned {}",
            out.stats.shards_pruned
        );
        assert_eq!(out.stats.shards_visited + out.stats.shards_pruned, 8);
        assert_eq!(out.breakdown.len(), out.stats.shards_visited);
        // The whole space visits every shard.
        let out = sharded.execute(&QuerySpec::new(), &square(0.5, 0.5, 0.6));
        assert_eq!(out.stats.shards_visited, 8);
        assert_eq!(out.count, pts.len());
    }

    #[test]
    fn cached_batches_share_one_preparation_across_shards() {
        let pts = uniform(1500, 61);
        let sharded = ShardedAreaQueryEngine::build(&pts, 4);
        let area = square(0.5, 0.5, 0.3);
        let areas = vec![area.clone(), area.clone(), area];
        let spec = QuerySpec::new().prepare(PrepareMode::Cached);
        for threads in [1usize, 3] {
            let outs = sharded.execute_batch(&spec, &areas, threads);
            assert_eq!(
                outs[0].stats.prepared_cache,
                CacheCounters { hits: 0, misses: 1 },
                "one preparation for the whole batch (threads={threads})"
            );
            for out in &outs[1..] {
                assert_eq!(
                    out.stats.prepared_cache,
                    CacheCounters { hits: 1, misses: 0 }
                );
            }
            let raw = sharded.execute(&QuerySpec::new(), &areas[0]);
            for out in &outs {
                assert_eq!(out.indices, raw.indices);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not supported on the sharded engine")]
    fn classify_is_rejected() {
        let engine = ShardedAreaQueryEngine::build(&uniform(50, 71), 2);
        engine.execute(
            &QuerySpec::new().output(OutputMode::Classify),
            &square(0.5, 0.5, 0.2),
        );
    }

    #[test]
    fn dynamic_sharded_roundtrip_with_compaction() {
        let initial = uniform(400, 81);
        let mut eng = ShardedDynamicAreaQueryEngine::new(&initial, 4);
        let mut live: Vec<(u64, Point)> = initial
            .iter()
            .enumerate()
            .map(|(i, &q)| (i as u64, q))
            .collect();
        let oracle = |live: &Vec<(u64, Point)>, area: &Polygon| -> Vec<u64> {
            let mut v: Vec<u64> = live
                .iter()
                .filter(|(_, q)| area.contains(*q))
                .map(|&(id, _)| id)
                .collect();
            v.sort_unstable();
            v
        };
        let area = square(0.5, 0.5, 0.28);
        assert_eq!(eng.query(&area), oracle(&live, &area));

        // Inserts, including points outside every shard MBR.
        let mut rng = StdRng::seed_from_u64(82);
        for _ in 0..120 {
            let q = p(rng.gen::<f64>() * 1.4 - 0.2, rng.gen::<f64>() * 1.4 - 0.2);
            let id = eng.insert(q);
            live.push((id, q));
        }
        // Removals across base and delta.
        for id in [1u64, 57, 200, 399, 410, 455] {
            assert!(eng.remove(id));
            live.retain(|&(i, _)| i != id);
        }
        assert!(!eng.remove(1), "double delete");
        assert!(!eng.remove(99_999), "unknown id");
        let wide = square(0.5, 0.5, 0.75);
        assert_eq!(eng.query(&area), oracle(&live, &area));
        assert_eq!(eng.query(&wide), oracle(&live, &wide));
        assert_eq!(eng.len(), live.len());

        // Compaction preserves answers and ids, and resets the overlay:
        // 118 live delta + 4 base tombstones (two removals hit delta
        // points and cancel out) exceeds 400 × 0.25.
        assert_eq!(eng.overlay_len(), 122);
        assert!(eng.maybe_compact());
        assert_eq!(eng.delta_len(), 0);
        assert_eq!(eng.overlay_len(), 0);
        assert_eq!(eng.query(&area), oracle(&live, &area));
        let victim = oracle(&live, &area)[0];
        assert!(eng.remove(victim));
        live.retain(|&(i, _)| i != victim);
        assert_eq!(eng.query(&area), oracle(&live, &area));
    }

    #[test]
    fn dynamic_sharded_starts_empty_and_grows() {
        let mut eng = ShardedDynamicAreaQueryEngine::new(&[], 4);
        assert!(eng.is_empty());
        assert_eq!(eng.base().shard_count(), 0);
        let area = square(0.5, 0.5, 0.4);
        assert!(eng.query(&area).is_empty());
        let a = eng.insert(p(0.5, 0.5));
        let b = eng.insert(p(0.95, 0.95));
        assert_eq!(eng.query(&area), vec![a]);
        eng.compact();
        assert!(eng.base().shard_count() >= 1);
        assert_eq!(eng.query(&area), vec![a]);
        assert!(eng.remove(b));
        assert_eq!(eng.len(), 1);
    }

    /// Regression for the tombstone-purge satellite: a delta bucket whose
    /// MBR was stretched by points that are all deleted again must stop
    /// being scanned — `delta_scanned` drops back to zero for queries
    /// over the abandoned area, and the surviving points keep answering.
    #[test]
    fn heavy_delete_workload_purges_buckets_and_restores_pruning() {
        let mut eng = ShardedDynamicAreaQueryEngine::new(&uniform(400, 101), 4);
        // Live points near the top-right corner and a doomed cluster far
        // outside the data extent: both route to the same (top-right)
        // shard bucket, so the cluster stretches that bucket's MBR.
        let mut rng = StdRng::seed_from_u64(102);
        let live: Vec<u64> = (0..30)
            .map(|_| {
                eng.insert(p(
                    0.92 + rng.gen::<f64>() * 0.06,
                    0.92 + rng.gen::<f64>() * 0.06,
                ))
            })
            .collect();
        let doomed: Vec<u64> = (0..30)
            .map(|_| eng.insert(p(5.0 + rng.gen::<f64>(), 5.0 + rng.gen::<f64>())))
            .collect();
        let far = square(5.5, 5.5, 1.0);
        let before = eng.execute(&QuerySpec::new(), &far);
        assert_eq!(before.ids, doomed, "the cluster answers before deletion");
        assert_eq!(
            before.stats.delta_scanned, 60,
            "the stretched bucket scans live and doomed points alike"
        );

        for &id in &doomed {
            assert!(eng.remove(id));
        }
        // The bucket crossed the dead-fraction threshold: physically
        // purged, MBR recomputed over the survivors.
        assert_eq!(eng.delta_len(), 30, "dead points are gone from the buffer");
        assert_eq!(eng.overlay_len(), 30, "their tombstones are retired too");
        let after = eng.execute(&QuerySpec::new(), &far);
        assert!(after.ids.is_empty());
        assert_eq!(
            after.stats.delta_scanned, 0,
            "the re-tightened bucket MBR prunes the far query outright"
        );

        // Survivors still answer, and ids stay consistent.
        let near = square(0.95, 0.95, 0.04);
        let mut got = eng.execute(&QuerySpec::new(), &near).ids;
        let mut want: Vec<u64> = live.clone();
        want.sort_unstable();
        got.sort_unstable();
        for id in &want {
            assert!(got.contains(id), "live id {id} must still answer");
        }
        assert!(!eng.remove(doomed[0]), "purged id cannot be removed again");
        assert_eq!(eng.len(), 430);
    }

    /// Buckets below the purge minimum keep their tombstones (rewriting
    /// a tiny buffer costs more than scanning it); the overlay
    /// accounting and compaction stay consistent either way.
    #[test]
    fn small_buckets_skip_the_purge_but_stay_consistent() {
        let mut eng = ShardedDynamicAreaQueryEngine::new(&uniform(200, 111), 2);
        // 20 inserts split across 2 buckets: each bucket stays below
        // DELTA_PURGE_MIN, so even deleting most of them purges nothing.
        let ids: Vec<u64> = uniform(20, 112).iter().map(|&q| eng.insert(q)).collect();
        for &id in &ids[..16] {
            assert!(eng.remove(id));
        }
        assert_eq!(eng.delta_len(), 20, "tiny buckets are never rewritten");
        assert_eq!(eng.overlay_len(), 4);
        assert_eq!(eng.len(), 204);
        let area = square(0.5, 0.5, 0.6);
        let out = eng.execute(&QuerySpec::new(), &area);
        assert_eq!(out.stats.delta_scanned, 4, "dead entries are skipped");
        eng.compact();
        assert_eq!(eng.len(), 204);
        assert_eq!(eng.delta_len(), 0);
        assert_eq!(eng.overlay_len(), 0);
    }

    #[test]
    fn dynamic_sharded_surfaces_delta_scan_stats() {
        let mut eng = ShardedDynamicAreaQueryEngine::new(&uniform(300, 91), 3);
        for &q in &uniform(25, 92) {
            eng.insert(q);
        }
        let area = square(0.5, 0.5, 0.55);
        let out = eng.execute(&QuerySpec::new(), &area);
        assert_eq!(out.stats.delta_scanned, 25, "wide area scans every bucket");
        assert_eq!(out.stats.result_size, out.ids.len());
        assert!(out.stats.shards_visited >= 1);
        // A far-away area prunes every delta bucket too.
        let far = square(5.0, 5.0, 0.1);
        let out = eng.execute(&QuerySpec::new(), &far);
        assert_eq!(out.stats.delta_scanned, 0);
        assert!(out.ids.is_empty());
    }
}
