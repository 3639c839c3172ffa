//! Dynamic updates on top of the static engine: the base + delta pattern.
//!
//! The Delaunay triangulation behind the Voronoi method is built once
//! (rebuilding the CSR adjacency per insert would be wasteful), so the
//! engine itself is static — the same trade-off the paper's setup makes.
//! Real deployments still need inserts and deletes between rebuilds. The
//! standard answer, used by LSM-style spatial stores, is an overlay:
//!
//! * a **base** [`AreaQueryEngine`] over the last compaction's points;
//! * a **delta** buffer of points inserted since, scanned linearly at
//!   query time (cheap while small);
//! * a **tombstone** set masking deleted base points;
//! * [`DynamicAreaQueryEngine::compact`] folds delta and tombstones into a
//!   fresh base when the overlay grows past a threshold.
//!
//! Query results use stable external ids handed out at insertion, so ids
//! survive compaction.
//!
//! The overlay is Euclidean: compaction rebuilds the base as the
//! Delaunay triangulation of the surviving points. (A site's weight
//! shifts its cell, never its membership in an area, so weights could
//! change the overlay's performance but not its answers.)
//!
//! A query ([`DynamicAreaQueryEngine::execute`]) is the batch executor's
//! one-area, one-part case, as a session's is (see [`crate::batch`]):
//! the area is planned and prepared with the engine's own prepared-area
//! cache and calibrating planner, the base pass honours method / policy
//! / prepare mode with tombstones filtered before the sink, and the
//! delta scan's cost is surfaced in the returned stats
//! ([`QueryStats::delta_scanned`]).
//! Every spec runs here. Point classification is not a spec: it is
//! defined on one diagram, not on a base + delta overlay, so it is
//! [`AreaQueryEngine::classify`] on the plain engine only.
//! [`DynamicAreaQueryEngine::query`] is the paper-default convenience.

use crate::area::QueryArea;
use crate::batch::Resolved;
use crate::engine::AreaQueryEngine;
use crate::plan::{PlanFeatures, PlannedPath};
use crate::query::{QuerySpec, SessionState};
use crate::sink::{Neighbor, Partial, Sink};
use crate::stats::{CacheCounters, QueryStats};
use std::collections::HashSet;
use vaq_geom::Point;

/// Fraction of the base size the delta may reach before
/// [`DynamicAreaQueryEngine::maybe_compact`] rebuilds.
pub const DEFAULT_COMPACT_RATIO: f64 = 0.25;

/// Minimum delta-buffer size before a tombstone purge is considered
/// (tiny buffers are cheaper to scan than to rewrite).
const DELTA_PURGE_MIN: usize = 16;

/// `true` when a delta buffer of `len` points, `dead` of them
/// tombstoned, should be physically purged: at least half dead and big
/// enough to matter.
fn should_purge_delta(len: usize, dead: usize) -> bool {
    len >= DELTA_PURGE_MIN && dead * 2 >= len
}

/// The answer to one dynamic query: stable external ids plus the work
/// counters of both passes (base query through the funnel, linear delta
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
    /// scan folded in (`delta_scanned`, plus one candidate / containment
    /// test per scanned live delta point) and `result_size` set to the
    /// final (tombstone-filtered) result count.
    pub stats: QueryStats,
}

/// A dynamic area-query engine: static base + linear delta + tombstones.
pub struct DynamicAreaQueryEngine {
    base: AreaQueryEngine,
    /// Stable external id of each base point (parallel to base points).
    base_ids: Vec<u64>,
    /// Points inserted since the last compaction, with their ids.
    delta: Vec<(u64, Point)>,
    /// How many `delta` entries are tombstoned (dead but not yet
    /// physically removed). Drives the purge heuristic.
    dead_delta: usize,
    /// External ids deleted since the last compaction (base or delta).
    tombstones: HashSet<u64>,
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
        DynamicAreaQueryEngine {
            base_ids: (0..points.len() as u64).collect(),
            next_id: points.len() as u64,
            base: AreaQueryEngine::build(points),
            delta: Vec::new(),
            dead_delta: 0,
            tombstones: HashSet::new(),
            state: SessionState::new(),
        }
    }

    /// Number of live points (base + delta − tombstones).
    pub fn len(&self) -> usize {
        self.base_ids.len() + self.delta.len() - self.tombstones.len()
    }

    /// `true` when no live points remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Points buffered in the delta (a compaction-pressure signal).
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Inserts a point, returning its stable id.
    pub fn insert(&mut self, p: Point) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.delta.push((id, p));
        id
    }

    /// Deletes the point with external id `id`. Returns `false` when the
    /// id is unknown or already deleted.
    ///
    /// Deleted *delta* points are tombstoned first and physically purged
    /// from the buffer once they make up at least half of it — a buffer
    /// of mostly-dead points would otherwise be re-scanned point by
    /// point on every query until the next full compaction.
    pub fn remove(&mut self, id: u64) -> bool {
        if self.tombstones.contains(&id) {
            return false;
        }
        let in_base = self.base_ids.binary_search(&id).is_ok();
        let in_delta = !in_base && self.delta.iter().any(|&(d, _)| d == id);
        if !in_base && !in_delta {
            return false;
        }
        self.tombstones.insert(id);
        if in_delta {
            self.dead_delta += 1;
            if should_purge_delta(self.delta.len(), self.dead_delta) {
                self.purge_delta();
            }
        }
        true
    }

    /// Physically removes tombstoned delta points (and retires their
    /// tombstones — a purged insert never reaches the base, so its
    /// tombstone has nothing left to mask). Queries and compaction see
    /// exactly the same live set before and after.
    fn purge_delta(&mut self) {
        let tombstones = &mut self.tombstones;
        self.delta.retain(|(id, _)| !tombstones.remove(id));
        self.dead_delta = 0;
    }

    /// Answers the area query with the paper-default [`QuerySpec`] (the
    /// Voronoi method, segment expansion, R-tree seed) and returns the
    /// stable external ids, ascending — the convenience form of
    /// [`DynamicAreaQueryEngine::execute`].
    pub fn query<A: QueryArea + ?Sized>(&mut self, area: &A) -> Vec<u64> {
        self.execute(&QuerySpec::new(), area).ids
    }

    /// Executes `spec` over `area` as a session does: the area is planned
    /// and prepared with the engine's own prepared-area cache (repeated
    /// dashboard areas hit it across dynamic queries) and planner, the
    /// base query honours the spec's method, expansion policy and
    /// prepare mode, then the live delta is scanned linearly. An empty
    /// base is planned and prepared too, and only its delta is scanned.
    /// Both passes **emit into the spec's result sink** in external-id
    /// space, with tombstoned ids filtered *before* the sink (so a
    /// bounded sink like [`OutputMode::TopKNearest`](crate::OutputMode)
    /// never wastes a slot on a dead point). Stats surface both passes —
    /// see [`DynamicQueryResult::stats`] and [`QueryStats::delta_scanned`].
    ///
    /// Delta-buffered points have no stored payload records until
    /// compaction, so the materialising sink reads records for base
    /// points only.
    pub fn execute<A: QueryArea + ?Sized>(
        &mut self,
        spec: &QuerySpec,
        area: &A,
    ) -> DynamicQueryResult {
        let live_delta = self.delta.len() - self.dead_delta;
        let (base, state) = (&self.base, &mut self.state);
        let resolved = Resolved::new(
            spec,
            area,
            &mut state.cache,
            &state.planner,
            |area, cacheable| PlanFeatures {
                delta_len: live_delta,
                ..base.plan_features(area, cacheable, PlannedPath::Dynamic)
            },
        );
        let sink = Sink::of(spec.output);
        // Base pass, tombstones filtered and base indices translated to
        // external ids *before* the sink; then the live delta scanned
        // into the same partial; then one finish.
        let mut stats = QueryStats::default();
        let mut partial = Partial::default();
        if !base.is_empty() {
            let map = |i: u32| {
                let id = self.base_ids[i as usize];
                (!self.tombstones.contains(&id)).then_some(id)
            };
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
            for &(id, p) in &self.delta {
                if self.tombstones.contains(&id) {
                    continue;
                }
                stats.delta_scanned += 1;
                stats.candidates += 1;
                stats.containment_tests += 1;
                if area.contains(p) {
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

    /// The **live** overlay size: delta points not yet tombstoned, plus
    /// tombstones masking *base* points. A tombstoned delta point cancels
    /// out — after compaction it costs neither a delta scan nor a base
    /// mask — so it contributes to neither term (counting it in both, as
    /// `delta.len() + tombstones.len()` did, fired compaction up to twice
    /// as early as [`DEFAULT_COMPACT_RATIO`] documents).
    pub fn overlay_len(&self) -> usize {
        debug_assert_eq!(
            self.dead_delta,
            self.delta
                .iter()
                .filter(|(id, _)| self.tombstones.contains(id))
                .count(),
            "dead-delta counter tracks the tombstoned delta entries"
        );
        (self.delta.len() - self.dead_delta) + (self.tombstones.len() - self.dead_delta)
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

    /// Borrows everything a snapshot writer needs: the base engine, the
    /// id table, the delta buffer, the tombstone set and the next id. The
    /// session state (scratch + cache) is deliberately excluded — it is
    /// an amortisation, not part of the answer.
    #[allow(clippy::type_complexity)] // one borrow per persisted field
    pub(crate) fn snapshot_parts(
        &self,
    ) -> (
        &AreaQueryEngine,
        &[u64],
        &[(u64, Point)],
        &HashSet<u64>,
        u64,
    ) {
        (
            &self.base,
            &self.base_ids,
            &self.delta,
            &self.tombstones,
            self.next_id,
        )
    }

    /// Reassembles a dynamic engine from snapshot-loaded parts: the base
    /// structure plus the overlay (delta + tombstones) replayed as data,
    /// not as operations. `dead_delta` is recomputed from the overlay
    /// and the session state starts fresh (caches are amortisations, not
    /// answers).
    pub(crate) fn from_snapshot_parts(
        base: AreaQueryEngine,
        base_ids: Vec<u64>,
        delta: Vec<(u64, Point)>,
        tombstones: HashSet<u64>,
        next_id: u64,
    ) -> DynamicAreaQueryEngine {
        let dead_delta = delta
            .iter()
            .filter(|(id, _)| tombstones.contains(id))
            .count();
        DynamicAreaQueryEngine {
            base,
            base_ids,
            delta,
            dead_delta,
            tombstones,
            next_id,
            state: SessionState::new(),
        }
    }

    /// Folds delta and tombstones into a fresh base engine.
    pub fn compact(&mut self) {
        let mut ids = Vec::with_capacity(self.len());
        let mut pts = Vec::with_capacity(self.len());
        for (idx, &id) in self.base_ids.iter().enumerate() {
            if !self.tombstones.contains(&id) {
                ids.push(id);
                pts.push(self.base.points()[idx]);
            }
        }
        for &(id, p) in &self.delta {
            if !self.tombstones.contains(&id) {
                ids.push(id);
                pts.push(p);
            }
        }
        // Keep base_ids sorted so `remove` can binary-search them.
        let mut order: Vec<usize> = (0..ids.len()).collect();
        order.sort_unstable_by_key(|&i| ids[i]);
        self.base_ids = order.iter().map(|&i| ids[i]).collect();
        let pts: Vec<Point> = order.iter().map(|&i| pts[i]).collect();
        self.base = AreaQueryEngine::build(&pts);
        // The scratch was sized for the old base: the next query makes
        // one at the new size (keeping the old one raised the peak RSS
        // of a 5 × 10⁵-point insert/remove churn by 6 MB). The
        // prepared-area cache is content-keyed and survives the rebuild.
        self.state.scratch = None;
        self.delta.clear();
        self.dead_delta = 0;
        self.tombstones.clear();
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

        // Delete a mix of base and delta points.
        for id in [3u64, 250, 499, 510, 577] {
            assert!(eng.remove(id));
            oracle.live.retain(|&(i, _)| i != id);
        }
        assert!(!eng.remove(3), "double delete");
        assert!(!eng.remove(99_999), "unknown id");
        assert_eq!(eng.len(), 595);
        assert_eq!(eng.query(&area), oracle.query(&area));
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

    /// Regression: a delta buffer of mostly-dead points must be
    /// physically purged — not re-scanned and skipped point by point on
    /// every query until compaction.
    #[test]
    fn heavy_deletes_purge_the_delta_buffer() {
        let mut eng = DynamicAreaQueryEngine::new(&uniform(400, 41));
        let ids: Vec<u64> = uniform(60, 42).iter().map(|&q| eng.insert(q)).collect();
        let area = square(0.5, 0.5, 0.6);
        let before = eng.execute(&QuerySpec::new(), &area);
        assert_eq!(before.stats.delta_scanned, 60);

        // Delete 50 of the 60: the purge threshold (half the buffer)
        // trips along the way and rewrites the buffer.
        for &id in &ids[..50] {
            assert!(eng.remove(id));
        }
        assert!(
            eng.delta_len() <= 20,
            "dead points were purged, got {} buffered",
            eng.delta_len()
        );
        let after = eng.execute(&QuerySpec::new(), &area);
        assert_eq!(after.stats.delta_scanned, 10, "only live points scanned");
        assert_eq!(eng.overlay_len(), 10, "purged tombstones are retired");
        assert_eq!(eng.len(), 410);

        // Purged ids stay deleted and unknown.
        assert!(!eng.remove(ids[0]), "purged id cannot be removed again");
        let mut oracle: Vec<u64> = (0..400).collect();
        oracle.extend(&ids[50..]);
        let mut got = eng.query(&area);
        got.sort_unstable();
        assert_eq!(got, oracle, "live set survives the purge");

        // Compaction still works after purging.
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

        // Stats surface both passes (id 7 is a base id, so all 40
        // inserted delta points are live and scanned).
        assert_eq!(voro.stats.delta_scanned, 40);
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
