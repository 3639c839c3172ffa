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
//!   on `n/S` points at a time. [`EngineBuilder::build_sharded`] takes
//!   the same weights and payload options as the unsharded build;
//! * any [`QuerySpec`] is answered by **MBR-pruning** the shards against
//!   the area's MBR and running the survivors in
//!   [`ShardedAreaQueryEngine::execute_batch`] on the batch executor the
//!   plain engine uses (see [`crate::batch`]), with the shards as its
//!   parts: the work items are `(area, shard)` pairs on a shared
//!   work-stealing pool, and each area is planned and prepared **once
//!   per batch**, its compiled form shared across shards.
//!   [`ShardedAreaQueryEngine::execute`] is the one-area batch on the
//!   calling thread;
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
//! One exception: on a power diagram the Voronoi method can miss a
//! *stray* site (see [`ExpansionPolicy::Cell`](crate::ExpansionPolicy)),
//! and a shard cut can make a site stray or not, so the two engines'
//! Voronoi answers may differ there.
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
//! policy needs no fallback: it is complete on Euclidean shards as it
//! stands (on power diagrams every Voronoi policy can miss a *stray*
//! site — see its docs).

use crate::area::QueryArea;
use crate::batch::{Batch, Part};
use crate::engine::{AreaQueryEngine, EngineBuilder};
use crate::payload::RecordStore;
use crate::plan::{DensityMap, PlanFeatures, PlannedPath};
use crate::query::QuerySpec;
use crate::sink::{Neighbor, Partial};
use crate::stats::QueryStats;
use crate::sync::par_map;
use vaq_delaunay::{weights_are_uniform, DiagramKind};
use vaq_geom::{Point, Rect};

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
    /// Shard-granularity density map (tight shard MBRs weighted by their
    /// point counts) — the planner's candidate estimator, free at build
    /// time.
    density: DensityMap,
    /// The diagram family the *input* weights selected. Per-shard weight
    /// slices may individually normalise to Euclidean (a shard whose
    /// points all share one weight); the global kind is what the planner
    /// hedges on.
    diagram: DiagramKind,
}

impl ShardedAreaQueryEngine {
    /// Partitions `points` into (at most) `shards` shards and builds the
    /// per-shard engines in parallel, one worker per available hardware
    /// thread (never more than the shard count; the shard count is a data
    /// layout, not a thread request). Fewer than `shards` shards are
    /// built when the point set is smaller than the shard count.
    ///
    /// `shards == 0` **auto-tunes**: the shard count becomes the
    /// machine's [`std::thread::available_parallelism`] (the first rung
    /// of shard-count auto-tuning — one shard per hardware thread keeps
    /// every core busy on fan-out queries without over-partitioning the
    /// prune). The CLI exposes it as `--shards auto`. Weighted sites and
    /// payload records go through [`EngineBuilder::build_sharded`].
    pub fn build(points: &[Point], shards: usize) -> ShardedAreaQueryEngine {
        ShardedAreaQueryEngine::build_with(points, shards, crate::sync::resolve_threads(0))
    }

    /// As [`ShardedAreaQueryEngine::build`] with an explicit build
    /// worker count (`<= 1` builds sequentially on the calling thread).
    pub fn build_with(
        points: &[Point],
        shards: usize,
        build_threads: usize,
    ) -> ShardedAreaQueryEngine {
        let shards = crate::sync::resolve_threads(shards);
        ShardedAreaQueryEngine::build_inner(points, shards, build_threads, None, None)
    }

    /// The one sharded build: kd-partitions `points` into at most
    /// `shards` parts and builds each shard's engine over its slice of
    /// `weights` (the power diagram of that slice) and its slice of the
    /// logical record store, on up to `build_threads` workers.
    ///
    /// # Panics
    ///
    /// Panics when `weights` does not hold one weight per point, a
    /// weight is non-finite (validate user input first; the CLI does),
    /// or `records` does not hold one record per point.
    pub(crate) fn build_inner(
        points: &[Point],
        shards: usize,
        build_threads: usize,
        weights: Option<&[f64]>,
        records: Option<&RecordStore>,
    ) -> ShardedAreaQueryEngine {
        if let Some(w) = weights {
            assert_eq!(
                w.len(),
                points.len(),
                "one weight per point: {} weights for {} points",
                w.len(),
                points.len()
            );
        }
        if let Some(rs) = records {
            assert_eq!(
                rs.len(),
                points.len(),
                "record store must hold exactly one record per point"
            );
        }
        let parts = partition(points, shards);
        let multi = parts.len() > 1;
        let build_one = |part: &[u32]| -> Shard {
            let pts: Vec<Point> = part.iter().map(|&i| points[i as usize]).collect();
            let ws: Option<Vec<f64>> =
                weights.map(|w| part.iter().map(|&i| w[i as usize]).collect());
            let mut builder = EngineBuilder::new(&pts);
            if let Some(ws) = &ws {
                builder = builder.weights(ws);
            }
            if let Some(logical) = records {
                // The worker copies its shard's records out of the shared
                // logical store (shard-local ids): each record's bytes are
                // copied exactly once, and only while its shard builds.
                builder = builder.record_store(
                    logical
                        .subset(part)
                        .expect("partition indices are in range"),
                );
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
            |_, i| build_one(&parts[i]),
        );
        let density =
            DensityMap::from_regions(built.iter().map(|s| (s.mbr, s.engine.len() as f64)));
        ShardedAreaQueryEngine {
            len: points.len(),
            shards: built,
            density,
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
    /// shard's store is copied from one logical store, so the first
    /// shard speaks for all of them.
    pub fn payload_record_bytes(&self) -> Option<usize> {
        self.shards
            .first()
            .and_then(|s| s.engine.record_store())
            .map(RecordStore::record_bytes)
    }

    /// The persisted fields of the sharded engine, for the snapshot
    /// writer: shards (each carrying its own engine and global ids),
    /// total length and the diagram family. Shard MBRs and the density
    /// map are *not* persisted — both are recomputed exactly from the
    /// shard point sets on load.
    pub(crate) fn snapshot_parts(&self) -> (&[Shard], usize, DiagramKind) {
        (&self.shards, self.len, self.diagram)
    }

    /// Reassembles a sharded engine from snapshot-loaded parts. Shard
    /// MBRs are recomputed from the shard point sets (`Rect::from_points`
    /// is deterministic, so they are bit-identical to the built engine's)
    /// and the density map is rebuilt from them exactly as
    /// `build_inner` does.
    pub(crate) fn from_snapshot_parts(
        shards: Vec<(AreaQueryEngine, Vec<u32>)>,
        len: usize,
        diagram: DiagramKind,
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
            density,
            diagram,
        }
    }

    /// Executes `spec` over `area`: the one-area
    /// [`ShardedAreaQueryEngine::execute_batch`] on the calling thread.
    /// Shards whose MBR misses the area's MBR are pruned outright, the
    /// survivors run through the generic emission path, and the
    /// shard-local sink partials are **merged** into one answer mapped to
    /// ascending global input indices. Preparation (for
    /// [`PrepareMode::PrepareOnce`](crate::PrepareMode) / `Cached`)
    /// happens **once** and the compiled area is shared by every shard.
    ///
    /// Note: a lone `execute` holds no state across calls, so `Cached`
    /// here equals `PrepareOnce` shared across shards — each call
    /// re-compiles the area (stats report the one miss). Repeated-area
    /// amortisation needs a batch (each distinct fingerprint is compiled
    /// once per batch) or a caller-held prepared area.
    pub fn execute<A: QueryArea + Sync>(&self, spec: &QuerySpec, area: &A) -> ShardedQueryOutput {
        self.execute_batch(spec, std::slice::from_ref(area), 1)
            .pop()
            .expect("a one-area batch returns one output")
    }

    /// Executes `spec` over every area on `threads` worker threads and
    /// returns the merged outputs **in input order**.
    ///
    /// The batch runs on the executor the plain engine's batch uses (see
    /// [`crate::batch`]), with the shards as its parts. The unit of work
    /// is one `(area, shard)` pair of the pruned survivor set, handed out
    /// through a shared atomic index (work stealing), so a worker never
    /// idles behind one heavy area *or* one heavy shard. Workers keep
    /// per-shard scratch across the batch, and each work item fills its
    /// own sink partial — the merge step folds partials in ascending
    /// shard order, never re-dispatching on the output mode. Under
    /// [`PrepareMode::Cached`](crate::PrepareMode), each **distinct** area
    /// fingerprint is compiled once per batch and the compiled form is
    /// shared across workers *and* shards; the batch-wide hit/miss
    /// counters land in the per-area stats exactly as in
    /// [`AreaQueryEngine::execute_batch`].
    ///
    /// A [`QuerySpec::auto()`] batch plans every area up front with a
    /// fresh [`Planner`](crate::Planner), exactly as the plain engine's
    /// batch does, and runs each area's explicit spec at the same
    /// `(area, shard)` granularity; each output carries its plan. The
    /// engine keeps no planner state, so the outputs do not depend on the
    /// thread count or on earlier batches.
    pub fn execute_batch<A: QueryArea + Sync>(
        &self,
        spec: &QuerySpec,
        areas: &[A],
        threads: usize,
    ) -> Vec<ShardedQueryOutput> {
        let bounds = self.shards.iter().fold(Rect::EMPTY, |b, s| b.union(&s.mbr));
        let batch = Batch::new(spec, areas, |area, cacheable| PlanFeatures {
            shards: self.shards.len(),
            ..PlanFeatures::of(
                area,
                cacheable,
                self.len,
                &self.density,
                bounds,
                self.diagram,
                PlannedPath::Sharded,
            )
        });

        // Prune: the work list holds only the (area, shard) pairs whose
        // MBRs intersect (a pruned shard provably holds no matching
        // point), area-major so each area's items form one contiguous
        // range.
        let mut work: Vec<(u32, u32)> = Vec::new();
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(areas.len());
        for area in areas {
            let mbr = area.mbr();
            let start = work.len();
            for (si, shard) in self.shards.iter().enumerate() {
                if shard.mbr.intersects(&mbr) {
                    work.push((ranges.len() as u32, si as u32));
                }
            }
            ranges.push((start, work.len()));
        }
        let parts: Vec<Part<'_>> = self
            .shards
            .iter()
            .map(|s| (&s.engine, Some(s.global.as_slice())))
            .collect();
        let mut results = batch.run(&parts, &work, threads).into_iter();

        // Merge each area's shard partials back to one output, in
        // ascending shard order (the work list was built that way), so
        // the aggregate is deterministic whatever the worker interleave.
        ranges
            .iter()
            .enumerate()
            .map(|(ai, &(start, end))| {
                let mut stats = QueryStats {
                    shards_pruned: self.shards.len() - (end - start),
                    ..QueryStats::default()
                };
                let mut breakdown = Vec::with_capacity(end - start);
                let mut acc = Partial::default();
                let items = results.by_ref().take(end - start);
                for (&(_, si), (part, st)) in work[start..end].iter().zip(items) {
                    stats.shards_visited += 1;
                    batch.sink.merge(&mut acc, part);
                    stats.absorb_shard(&st);
                    breakdown.push(ShardBreakdown {
                        shard: si as usize,
                        stats: st,
                    });
                }
                let (indices, neighbors, count) = acc.into_sorted();
                stats.result_size = count;
                batch.finish(ai, &mut stats);
                ShardedQueryOutput {
                    indices,
                    count,
                    neighbors,
                    stats,
                    breakdown,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AreaQueryEngine;
    use crate::query::{OutputMode, PrepareMode, QueryMethod};
    use crate::stats::CacheCounters;
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
    fn shard_count_sets_the_layout_not_the_thread_count() {
        // `build` and `build_sharded` run on the machine's hardware
        // threads, not one thread per shard; the engine is the same bits
        // as a one-thread build, records included.
        let pts = uniform(2000, 71);
        let bytes = crate::snapshot::sharded_to_bytes;
        let parallel = ShardedAreaQueryEngine::build(&pts, 64);
        assert_eq!(parallel.shard_count(), 64);
        assert_eq!(
            bytes(&parallel),
            bytes(&ShardedAreaQueryEngine::build_with(&pts, 64, 1))
        );
        let logical = RecordStore::generate(pts.len(), 24, crate::payload::PAYLOAD_SEED);
        assert_eq!(
            bytes(
                &AreaQueryEngine::builder(&pts)
                    .payload_bytes(24)
                    .build_sharded(64)
            ),
            bytes(&ShardedAreaQueryEngine::build_inner(
                &pts,
                64,
                1,
                None,
                Some(&logical)
            ))
        );
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

    /// Regression: a shard built on a worker thread panics on a NaN
    /// weight; the builder's documented message must survive the join.
    #[test]
    #[should_panic(expected = "finite, non-empty input with one finite weight per point")]
    fn non_finite_weight_is_rejected_from_worker_threads() {
        let pts = uniform(100, 73);
        let mut weights = vec![0.01; pts.len()];
        weights[17] = f64::NAN;
        AreaQueryEngine::builder(&pts)
            .weights(&weights)
            .build_sharded(2);
    }
}
