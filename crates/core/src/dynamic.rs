//! Dynamic updates on top of the static engine: the base + delta pattern.
//!
//! The Delaunay triangulation behind the Voronoi method is built once
//! (rebuilding the CSR adjacency per insert would be wasteful), so the
//! engine itself is static — the same trade-off the paper's setup makes.
//! Real deployments still need inserts and deletes between rebuilds. The
//! standard answer, used by LSM-style spatial stores, is an overlay:
//!
//! * a **base** [`AreaQueryEngine`] over the last compaction's points,
//!   with a **tombstone** flag per point masking deleted ones;
//! * a **delta** of the points inserted since, on a constant 64 × 64
//!   grid over the base's data bounds (a point outside them goes to the
//!   nearest edge cell). An insert only appends to a pending list, which
//!   the next query first **files** into the grid;
//! * [`DynamicAreaQueryEngine::compact`] folds the live delta into a
//!   fresh base when the overlay grows past a threshold.
//!
//! A query scans only the cells its area's MBR meets, whatever the
//! delta's size. Deletes are real: a removed delta point leaves its cell
//! at once. Costs, for `n` base points: `insert` is one push (no
//! hashing); `remove` is a binary search and one flag for a base id, and
//! one hash lookup and one `swap_remove` for a delta id (O(1) amortised,
//! with the filing of pending points it may trigger); `compact` is a
//! full rebuild, O(n log n).
//!
//! Query results use stable external ids handed out at insertion, so ids
//! survive compaction. The overlay is Euclidean: compaction rebuilds the
//! base as the Delaunay triangulation of the surviving points. (A site's
//! weight shifts its cell, never its membership in an area, so weights
//! could change the overlay's performance but not its answers.)
//!
//! A query ([`DynamicAreaQueryEngine::execute`]) is the batch executor's
//! one-area, one-part case (see [`crate::batch`]). Point classification is
//! defined on one diagram, so only [`AreaQueryEngine::classify`] has it.

use crate::area::QueryArea;
use crate::batch::Resolved;
use crate::engine::AreaQueryEngine;
use crate::plan::{PlanFeatures, PlannedPath};
use crate::query::{QuerySpec, SessionState};
use crate::sink::{Neighbor, Partial, Sink};
use crate::stats::{CacheCounters, QueryStats};
use std::collections::HashMap;
use vaq_geom::{Point, Rect};

/// Fraction of the base size the delta may reach before
/// [`DynamicAreaQueryEngine::maybe_compact`] rebuilds.
pub const DEFAULT_COMPACT_RATIO: f64 = 0.25;

/// Cells per side of the delta grid.
const GRID_SIDE: usize = 64;

/// The filed delta points, bucketed on a `GRID_SIDE` × `GRID_SIDE` grid
/// over the base's data bounds at its last build.
struct Grid {
    /// The grid's lower-left corner.
    origin: Point,
    /// Cells per unit length along x and along y.
    scale: Point,
    /// The cells' `(id, point)` entries, row by row.
    cells: Vec<Vec<(u64, Point)>>,
}

impl Grid {
    /// An empty grid over `bounds`. A side of zero length takes the
    /// other side's length, and an empty or one-point base the unit
    /// square, so every base gets a grid that spreads points out.
    fn over(bounds: Rect) -> Grid {
        let (w, h) = (bounds.width(), bounds.height());
        let side = if w.max(h) > 0.0 { w.max(h) } else { 1.0 };
        let per = |len: f64| GRID_SIDE as f64 / if len > 0.0 { len } else { side };
        Grid {
            origin: Some(bounds.min)
                .filter(|_| !bounds.is_empty())
                .unwrap_or_default(),
            scale: Point::new(per(w), per(h)),
            cells: vec![Vec::new(); GRID_SIDE * GRID_SIDE],
        }
    }

    /// The column and row of `p`, clamped to the grid. The map is
    /// monotone in each coordinate, so a point inside a rectangle lands
    /// in a cell between those of the rectangle's corners.
    fn at(&self, p: Point) -> (usize, usize) {
        let slot = |v: f64, o: f64, s: f64| (((v - o) * s) as usize).min(GRID_SIDE - 1);
        let (o, s) = (self.origin, self.scale);
        (slot(p.x, o.x, s.x), slot(p.y, o.y, s.y))
    }

    /// The cells that `r` meets (none when `r` is empty).
    fn meeting(&self, r: &Rect) -> impl Iterator<Item = &Vec<(u64, Point)>> + '_ {
        let ((x0, y0), (x1, y1)) = (self.at(r.min), self.at(r.max));
        (y0..=y1).flat_map(move |y| (x0..=x1).map(move |x| &self.cells[y * GRID_SIDE + x]))
    }
}

/// The answer to one dynamic query: stable external ids plus the work
/// counters of both passes (base query through the funnel, delta-grid
/// scan — see [`QueryStats::delta_scanned`]).
#[derive(Clone, Debug, Default)]
pub struct DynamicQueryResult {
    /// Matching live external ids, ascending. Empty for the counting
    /// sink (`OutputMode::Count` — the count is `stats.result_size`);
    /// for `OutputMode::TopKNearest` these are the kept neighbours' ids.
    pub ids: Vec<u64>,
    /// The kept neighbours, ascending by `(dist_sq, id)` — populated
    /// only by `OutputMode::TopKNearest`.
    pub neighbors: Vec<Neighbor<u64>>,
    /// Combined counters: the base engine's query stats with the delta
    /// scan folded in (`delta_scanned`, plus one candidate and one
    /// containment test per delta point it examined) and `result_size`
    /// set to the final (tombstone-filtered) result count.
    pub stats: QueryStats,
}

/// A dynamic area-query engine: static base with tombstone flags, plus a
/// grid-indexed delta.
pub struct DynamicAreaQueryEngine {
    base: AreaQueryEngine,
    /// Stable external id of each base point, ascending.
    base_ids: Vec<u64>,
    /// `true` for each deleted base point (parallel to `base_ids`).
    dead: Vec<bool>,
    /// How many `dead` flags are set.
    dead_count: usize,
    /// Inserts not yet filed into `grid`, ascending by id.
    pending: Vec<(u64, Point)>,
    /// The filed delta points.
    grid: Grid,
    /// The cell, and the slot in that cell, of every filed delta id.
    cell_of: HashMap<u64, (u32, u32)>,
    /// Next external id to hand out.
    next_id: u64,
    /// Owned session state (reusable scratch, prepared-area cache and
    /// planner), so repeated dynamic queries get the same amortisation a
    /// [`QuerySession`](crate::QuerySession) gives static callers.
    state: SessionState,
}

impl DynamicAreaQueryEngine {
    /// Builds over an initial point set; ids `0..n as u64` are assigned in
    /// input order.
    pub fn new(points: &[Point]) -> DynamicAreaQueryEngine {
        let (base, n) = (AreaQueryEngine::build(points), points.len());
        let ids = (0..n as u64).collect();
        DynamicAreaQueryEngine::from_parts(base, ids, vec![false; n], Vec::new(), n as u64)
    }

    /// Number of live points (base + delta − tombstones).
    pub fn len(&self) -> usize {
        self.base_ids.len() - self.dead_count + self.delta_len()
    }

    /// `true` when no live points remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live points in the delta (a compaction-pressure signal).
    pub fn delta_len(&self) -> usize {
        self.pending.len() + self.cell_of.len()
    }

    /// Inserts a point, returning its stable id.
    pub fn insert(&mut self, p: Point) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push((id, p));
        id
    }

    /// Deletes the point with external id `id`. Returns `false` when the
    /// id is unknown or already deleted. A base point is tombstoned until
    /// the next compaction; a delta point leaves the delta at once.
    pub fn remove(&mut self, id: u64) -> bool {
        if let Ok(i) = self.base_ids.binary_search(&id) {
            let live = !std::mem::replace(&mut self.dead[i], true);
            self.dead_count += usize::from(live);
            return live;
        }
        // Pending ids ascend, so a smaller id is filed or unknown.
        if self.pending.first().is_some_and(|&(first, _)| id >= first) {
            self.file();
        }
        let Some((cell, slot)) = self.cell_of.remove(&id) else {
            return false;
        };
        let entries = &mut self.grid.cells[cell as usize];
        entries.swap_remove(slot as usize);
        if let Some(&(moved, _)) = entries.get(slot as usize) {
            self.cell_of.insert(moved, (cell, slot));
        }
        true
    }

    /// Files the pending inserts into their grid cells.
    fn file(&mut self) {
        for (id, p) in self.pending.drain(..) {
            let (x, y) = self.grid.at(p);
            let cell = y * GRID_SIDE + x;
            let entries = &mut self.grid.cells[cell];
            let slot = u32::try_from(entries.len()).expect("a cell holds under 2³² points");
            self.cell_of.insert(id, (cell as u32, slot));
            entries.push((id, p));
        }
    }

    /// Answers the area query with the paper-default [`QuerySpec`] (the
    /// Voronoi method, segment expansion, R-tree seed) and returns the
    /// stable external ids, ascending — the convenience form of
    /// [`DynamicAreaQueryEngine::execute`].
    pub fn query<A: QueryArea + ?Sized>(&mut self, area: &A) -> Vec<u64> {
        self.execute(&QuerySpec::new(), area).ids
    }

    /// Executes `spec` over `area` as a session does, with the engine's
    /// own prepared-area cache and planner, after filing the pending
    /// inserts. The base pass honours the spec's method, expansion policy
    /// and prepare mode; the delta points in the cells the area's MBR
    /// meets are then tested against the area as the base pass ran it.
    /// Both passes **emit into the spec's result sink** in external-id
    /// space, tombstoned ids filtered *before* the sink (so a bounded
    /// sink never wastes a slot on a dead point). Delta points have no
    /// stored payload records until compaction. Stats surface both
    /// passes — see [`QueryStats::delta_scanned`].
    pub fn execute<A: QueryArea + ?Sized>(
        &mut self,
        spec: &QuerySpec,
        area: &A,
    ) -> DynamicQueryResult {
        self.file();
        let mbr = area.mbr();
        let (base, grid, state) = (&self.base, &self.grid, &mut self.state);
        let resolved = Resolved::new(
            spec,
            area,
            &mut state.cache,
            &state.planner,
            |area, cacheable| PlanFeatures {
                delta_len: grid.meeting(&mbr).map(Vec::len).sum(),
                ..base.plan_features(area, cacheable, PlannedPath::Dynamic)
            },
        );
        let sink = Sink::of(spec.output);
        // Base pass, tombstoned base points dropped *before* the sink, then
        // the delta cells the MBR meets, into one partial; then one finish.
        let mut stats = QueryStats::default();
        let mut partial = Partial::default();
        if !base.is_empty() {
            let map = |i: u32| (!self.dead[i as usize]).then(|| self.base_ids[i as usize]);
            resolved.run(
                base,
                area,
                &mut state.scratch,
                sink,
                &mut partial,
                &map,
                &mut stats,
            );
        }
        let delta_predicates = AreaQueryEngine::sample_predicates(|| {
            for &(id, p) in grid.meeting(&mbr).flatten() {
                stats.delta_scanned += 1;
                stats.candidates += 1;
                stats.containment_tests += 1;
                if mbr.contains_point(p) && resolved.contains(area, p) {
                    stats.accepted += 1;
                    sink.emit(&mut partial, id, p, 0, None, &mut stats);
                }
            }
        });
        stats.predicates.absorb(delta_predicates);
        let (ids, neighbors, result_size) = partial.into_sorted();
        stats.result_size = result_size;
        self.state.observe(&resolved, &mut stats);
        DynamicQueryResult {
            ids,
            neighbors,
            stats,
        }
    }

    /// Lifetime hit/miss totals of the owned prepared-area cache (see
    /// [`PrepareMode::Cached`](crate::PrepareMode)).
    pub fn cache_counters(&self) -> CacheCounters {
        self.state.cache_totals
    }

    /// The **live** overlay size: delta points plus tombstoned base
    /// points (a removed delta point counts in neither term).
    pub fn overlay_len(&self) -> usize {
        self.delta_len() + self.dead_count
    }

    /// Compacts when the live overlay (see
    /// [`DynamicAreaQueryEngine::overlay_len`]) exceeds
    /// [`DEFAULT_COMPACT_RATIO`] of the base. Returns `true` if a rebuild
    /// happened.
    pub fn maybe_compact(&mut self) -> bool {
        let overlay = self.overlay_len();
        if (overlay as f64) <= (self.base_ids.len().max(16) as f64) * DEFAULT_COMPACT_RATIO {
            return false;
        }
        self.compact();
        true
    }

    /// What a snapshot persists: the base engine, the id table, the live
    /// delta and the tombstoned base ids (both ascending) and the next id.
    /// The session state is an amortisation, not part of the answer.
    #[allow(clippy::type_complexity)] // one part per persisted field
    pub(crate) fn snapshot_parts(
        &self,
    ) -> (&AreaQueryEngine, &[u64], Vec<(u64, Point)>, Vec<u64>, u64) {
        let mut delta = self.grid.cells.concat();
        delta.extend(&self.pending);
        delta.sort_unstable_by_key(|e| e.0);
        let dead = (self.base_ids.iter().zip(&self.dead))
            .filter(|&(_, &dead)| dead)
            .map(|(&id, _)| id)
            .collect();
        (&self.base, &self.base_ids, delta, dead, self.next_id)
    }

    /// Assembles an engine from its parts, as data: the base, its
    /// ascending id table and tombstone flags, the live delta (in any
    /// order; filed at once) and the next id. The session starts fresh.
    pub(crate) fn from_parts(
        base: AreaQueryEngine,
        base_ids: Vec<u64>,
        dead: Vec<bool>,
        delta: Vec<(u64, Point)>,
        next_id: u64,
    ) -> DynamicAreaQueryEngine {
        let mut engine = DynamicAreaQueryEngine {
            grid: Grid::over(base.data_bounds()),
            base,
            base_ids,
            dead_count: dead.iter().filter(|&&dead| dead).count(),
            dead,
            pending: delta,
            cell_of: HashMap::new(),
            next_id,
            state: SessionState::new(),
        };
        engine.file();
        engine
    }

    /// Folds the live delta into a fresh base engine, without the
    /// tombstoned points.
    pub fn compact(&mut self) {
        let base = self.base_ids.iter().zip(self.base.points()).zip(&self.dead);
        let delta = self.grid.cells.iter().flatten().chain(&self.pending);
        let mut live: Vec<(u64, Point)> = (base.filter(|&(_, &dead)| !dead))
            .map(|((&id, &p), _)| (id, p))
            .chain(delta.copied())
            .collect();
        // Keep base_ids sorted so `remove` can binary-search them.
        live.sort_unstable_by_key(|e| e.0);
        // Free the old base, its scratch and the delta before building the
        // new base (building beside them raised the peak RSS of four
        // compactions over 5 × 10⁵ points from 138 to 193 MB). The session
        // state's cache is content-keyed, so it survives the rebuild.
        let next_id = self.next_id;
        let mut state = std::mem::replace(self, DynamicAreaQueryEngine::new(&[])).state;
        state.scratch = None;
        let (base_ids, points): (Vec<u64>, Vec<Point>) = live.into_iter().unzip();
        let (base, dead) = (AreaQueryEngine::build(&points), vec![false; points.len()]);
        *self = DynamicAreaQueryEngine {
            state,
            ..DynamicAreaQueryEngine::from_parts(base, base_ids, dead, Vec::new(), next_id)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Oracle tracking live (id, point) pairs by hand.
    struct Oracle {
        live: Vec<(u64, Point)>,
    }

    impl Oracle {
        fn query(&self, area: &Polygon) -> Vec<u64> {
            let mut v: Vec<u64> = self
                .live
                .iter()
                .filter(|(_, q)| area.contains(*q))
                .map(|&(id, _)| id)
                .collect();
            v.sort_unstable();
            v
        }
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let initial = uniform(500, 7);
        let mut eng = DynamicAreaQueryEngine::new(&initial);
        let mut oracle = Oracle {
            live: initial
                .iter()
                .enumerate()
                .map(|(i, &q)| (i as u64, q))
                .collect(),
        };
        let area = square(0.5, 0.5, 0.22);
        assert_eq!(eng.query(&area), oracle.query(&area));

        // Insert new points (some inside, some outside the area).
        for &q in &uniform(100, 8) {
            let id = eng.insert(q);
            oracle.live.push((id, q));
        }
        assert_eq!(eng.query(&area), oracle.query(&area));
        assert_eq!(eng.len(), 600);

        // Delete a mix of base and delta points; the query above filed the
        // delta points.
        for id in [3u64, 250, 499, 510, 577] {
            assert!(eng.remove(id));
            oracle.live.retain(|&(i, _)| i != id);
        }
        assert!(!eng.remove(3), "double delete of a base id");
        assert!(!eng.remove(510), "double delete of a filed delta id");
        assert!(!eng.remove(99_999), "unknown id");
        assert_eq!(eng.len(), 595);
        assert_eq!(eng.query(&area), oracle.query(&area));

        // Points inserted after the last query are still pending: a remove
        // finds them before any query files them.
        let gone = eng.insert(p(0.5, 0.5));
        let kept = eng.insert(p(0.55, 0.5));
        oracle.live.push((kept, p(0.55, 0.5)));
        assert!(eng.remove(gone), "remove a pending id");
        assert!(!eng.remove(gone), "double delete of a pending id");
        assert!(!eng.remove(kept + 1), "unknown id above the pending ones");
        assert_eq!(eng.len(), 596);
        assert_eq!(eng.delta_len(), 99);
        assert_eq!(eng.query(&area), oracle.query(&area));
        assert!(eng.query(&area).contains(&kept) && !eng.query(&area).contains(&gone));
    }

    #[test]
    fn compaction_preserves_answers_and_ids() {
        let initial = uniform(300, 9);
        let mut eng = DynamicAreaQueryEngine::new(&initial);
        let mut oracle = Oracle {
            live: initial
                .iter()
                .enumerate()
                .map(|(i, &q)| (i as u64, q))
                .collect(),
        };
        for &q in &uniform(200, 10) {
            let id = eng.insert(q);
            oracle.live.push((id, q));
        }
        for id in (0..300u64).step_by(3) {
            eng.remove(id);
            oracle.live.retain(|&(i, _)| i != id);
        }
        let area = square(0.45, 0.55, 0.3);
        let before = eng.query(&area);
        assert_eq!(before, oracle.query(&area));

        assert!(eng.maybe_compact(), "overlay is large enough to compact");
        assert_eq!(eng.delta_len(), 0);
        assert_eq!(eng.query(&area), before, "answers survive compaction");

        // Ids remain stable and deletable after compaction.
        let victim = before[0];
        assert!(eng.remove(victim));
        oracle.live.retain(|&(i, _)| i != victim);
        assert_eq!(eng.query(&area), oracle.query(&area));
    }

    #[test]
    fn maybe_compact_respects_threshold() {
        let mut eng = DynamicAreaQueryEngine::new(&uniform(400, 11));
        for &q in &uniform(10, 12) {
            eng.insert(q);
        }
        assert!(!eng.maybe_compact(), "10/400 is below the ratio");
        for &q in &uniform(200, 13) {
            eng.insert(q);
        }
        assert!(eng.maybe_compact());
    }

    /// Regression: a tombstoned delta point used to count once in
    /// `delta.len()` *and* once in `tombstones.len()`, firing compaction
    /// at half the documented overlay ratio.
    #[test]
    fn tombstoned_delta_points_are_not_double_counted() {
        let mut eng = DynamicAreaQueryEngine::new(&uniform(400, 21));
        // Insert 60 points and remove them all again: the live overlay is
        // empty, but the buggy count saw 60 + 60 = 120 > 400 × 0.25.
        let ids: Vec<u64> = uniform(60, 22).iter().map(|&q| eng.insert(q)).collect();
        for id in ids {
            assert!(eng.remove(id));
        }
        assert_eq!(eng.overlay_len(), 0, "cancelled inserts leave no overlay");
        assert!(
            !eng.maybe_compact(),
            "an empty live overlay must not trigger compaction"
        );
        // Base tombstones and live delta points still count, once each.
        for id in 0..50u64 {
            assert!(eng.remove(id));
        }
        for &q in &uniform(51, 23) {
            eng.insert(q);
        }
        assert_eq!(eng.overlay_len(), 101);
        assert!(eng.maybe_compact(), "101 > 400 × 0.25 compacts");
    }

    /// Removed delta points leave the buffer and the scan at once: a
    /// delta of mostly-removed points is never re-scanned and skipped
    /// point by point on every query until compaction.
    #[test]
    fn removed_delta_points_leave_the_buffer_and_the_scan() {
        let mut eng = DynamicAreaQueryEngine::new(&uniform(400, 41));
        let ids: Vec<u64> = uniform(60, 42).iter().map(|&q| eng.insert(q)).collect();
        let area = square(0.5, 0.5, 0.6);
        let before = eng.execute(&QuerySpec::new(), &area);
        assert_eq!(before.stats.delta_scanned, 60);

        // Delete 50 of the 60: each leaves its cell as it goes.
        for &id in &ids[..50] {
            assert!(eng.remove(id));
        }
        assert!(
            eng.delta_len() <= 20,
            "removed points left the delta, got {} buffered",
            eng.delta_len()
        );
        let after = eng.execute(&QuerySpec::new(), &area);
        assert_eq!(after.stats.delta_scanned, 10, "only live points scanned");
        assert_eq!(
            eng.overlay_len(),
            10,
            "removed delta points leave no tombstone"
        );
        assert_eq!(eng.len(), 410);

        // Removed ids stay deleted and unknown.
        assert!(!eng.remove(ids[0]), "removed id cannot be removed again");
        let mut oracle: Vec<u64> = (0..400).collect();
        oracle.extend(&ids[50..]);
        let mut got = eng.query(&area);
        got.sort_unstable();
        assert_eq!(got, oracle, "live set survives the removes");

        // Compaction still works after the removes.
        eng.compact();
        assert_eq!(eng.len(), 410);
        assert_eq!(eng.query(&area).len(), 410);
    }

    /// The funnel route: `execute` honours the spec, surfaces base +
    /// delta stats, and the owned prepared-area cache hits on repeats.
    #[test]
    fn execute_routes_through_the_funnel_with_stats() {
        use crate::query::{PrepareMode, QueryMethod};
        let initial = uniform(500, 31);
        let mut eng = DynamicAreaQueryEngine::new(&initial);
        let inserted = uniform(40, 32);
        for &q in &inserted {
            eng.insert(q);
        }
        assert!(eng.remove(7));
        let area = square(0.5, 0.5, 0.25);

        // Every method agrees through the funnel (ids are method-agnostic).
        let voro = eng.execute(&QuerySpec::voronoi(), &area);
        for spec in [
            QuerySpec::traditional(),
            QuerySpec::brute_force(),
            QuerySpec::new().method(QueryMethod::Voronoi),
        ] {
            assert_eq!(eng.execute(&spec, &area).ids, voro.ids, "{spec:?}");
        }
        assert_eq!(voro.ids, eng.query(&area), "query() is the default spec");

        // Stats surface both passes. Id 7 is a base id, so all 40 inserted
        // delta points are live; the scan examines those in the cells of
        // the 64 × 64 grid over the base's bounds that the area's MBR meets.
        let b = eng.base.data_bounds();
        let slot = |v: f64, lo: f64, len: f64| (((v - lo) * (64.0 / len)) as usize).min(63);
        let at = |q: Point| {
            (
                slot(q.x, b.min.x, b.width()),
                slot(q.y, b.min.y, b.height()),
            )
        };
        let ((x0, y0), (x1, y1)) = (at(area.mbr().min), at(area.mbr().max));
        let examined = (inserted.iter().map(|&q| at(q)))
            .filter(|(x, y)| (x0..=x1).contains(x) && (y0..=y1).contains(y))
            .count();
        assert!(examined > 0 && examined < 40, "{examined} of 40 examined");
        assert_eq!(voro.stats.delta_scanned, examined);
        assert!(voro.stats.seed.is_some(), "base pass was seeded");
        assert_eq!(voro.stats.result_size, voro.ids.len());
        assert!(
            voro.stats.candidates >= voro.stats.delta_scanned,
            "delta scan candidates are folded in"
        );
        assert_eq!(
            voro.stats.containment_tests, voro.stats.candidates as u64,
            "identity holds across base + delta"
        );

        // The owned prepared-area cache spans queries.
        let cached = QuerySpec::voronoi().prepare(PrepareMode::Cached);
        let poly =
            Polygon::new(vec![p(0.25, 0.25), p(0.75, 0.3), p(0.7, 0.75), p(0.3, 0.7)]).unwrap();
        let first = eng.execute(&cached, &poly);
        let second = eng.execute(&cached, &poly);
        assert_eq!(first.ids, second.ids);
        assert_eq!(
            first.stats.prepared_cache,
            CacheCounters { hits: 0, misses: 1 }
        );
        assert_eq!(
            second.stats.prepared_cache,
            CacheCounters { hits: 1, misses: 0 }
        );
        assert_eq!(eng.cache_counters(), CacheCounters { hits: 1, misses: 1 });
    }

    /// The planner prices the delta points the scan examines, not the
    /// whole delta: 10⁴ delta points in cells away from the area leave an
    /// auto query's predicted cost unchanged.
    #[test]
    fn planner_prices_only_the_examined_delta() {
        let initial = uniform(500, 51);
        let (mut bare, mut busy) = (
            DynamicAreaQueryEngine::new(&initial),
            DynamicAreaQueryEngine::new(&initial),
        );
        for q in uniform(10_000, 52) {
            busy.insert(p(0.9 + q.x * 0.1, 0.9 + q.y * 0.1));
        }
        let area = square(0.25, 0.25, 0.1);
        let (a, b) = (
            bare.execute(&QuerySpec::auto(), &area),
            busy.execute(&QuerySpec::auto(), &area),
        );
        assert_eq!(b.stats.delta_scanned, 0);
        let cost = |r: &DynamicQueryResult| r.stats.plan.expect("planned").predicted_cost;
        assert_eq!(cost(&a), cost(&b));
        // Delta points where the area is raise the prediction.
        for q in uniform(50, 53) {
            busy.insert(p(0.2 + q.x * 0.1, 0.2 + q.y * 0.1));
        }
        let (a, b) = (
            bare.execute(&QuerySpec::auto(), &area),
            busy.execute(&QuerySpec::auto(), &area),
        );
        assert_eq!(b.stats.delta_scanned, 50);
        assert!(cost(&b) > cost(&a), "{} <= {}", cost(&b), cost(&a));
    }

    #[test]
    fn starts_empty_and_grows() {
        let mut eng = DynamicAreaQueryEngine::new(&[]);
        assert!(eng.is_empty());
        let area = square(0.5, 0.5, 0.4);
        assert!(eng.query(&area).is_empty());
        let a = eng.insert(p(0.5, 0.5));
        let b = eng.insert(p(0.9, 0.95));
        assert_eq!(eng.query(&area), vec![a]);
        eng.compact();
        assert_eq!(eng.query(&area), vec![a]);
        assert_eq!(eng.len(), 2);
        assert!(eng.remove(b));
        assert_eq!(eng.len(), 1);
    }

    #[test]
    fn randomized_operations_against_oracle() {
        let mut rng = StdRng::seed_from_u64(14);
        let initial = uniform(200, 15);
        let mut eng = DynamicAreaQueryEngine::new(&initial);
        let mut oracle = Oracle {
            live: initial
                .iter()
                .enumerate()
                .map(|(i, &q)| (i as u64, q))
                .collect(),
        };
        for step in 0..400 {
            match rng.gen_range(0..10) {
                0..=4 => {
                    let q = p(rng.gen(), rng.gen());
                    let id = eng.insert(q);
                    oracle.live.push((id, q));
                }
                5..=7 => {
                    if let Some(&(id, _)) =
                        oracle.live.get(rng.gen_range(0..oracle.live.len().max(1)))
                    {
                        eng.remove(id);
                        oracle.live.retain(|&(i, _)| i != id);
                    }
                }
                8 => {
                    eng.maybe_compact();
                }
                _ => {
                    let area = square(rng.gen(), rng.gen(), 0.1 + rng.gen::<f64>() * 0.2);
                    assert_eq!(eng.query(&area), oracle.query(&area), "step {step}");
                }
            }
        }
        eng.compact();
        let area = square(0.5, 0.5, 0.35);
        assert_eq!(eng.query(&area), oracle.query(&area));
    }
}
