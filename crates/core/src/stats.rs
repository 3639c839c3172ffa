//! Per-query statistics matching what the paper measures.
//!
//! The paper's evaluation reports, per configuration: the **result size**,
//! the **candidate number** (how many points reached the geometric
//! validation step) and the **times of redundant validations** (validated
//! candidates that were *not* in the result — the pure waste each method
//! incurs). These counters reproduce those columns exactly, plus the
//! index-level access counts that explain the time differences.

use vaq_rtree::AccessStats;

/// Hit/miss counters for the prepared-area cache (a session's LRU, or a
/// batch's deduplication). Per query each counter is 0 or 1 — a query
/// touches the cache at most once; a session also accumulates lifetime
/// totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Cache lookups answered from an already-prepared area.
    pub hits: u64,
    /// Cache lookups that had to prepare (and insert) the area.
    pub misses: u64,
}

impl CacheCounters {
    /// Accumulates `other` into `self` (session-lifetime totals).
    pub fn absorb(&mut self, other: CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Fraction of lookups answered from the cache (`0.0` when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counters for the two-stage exact-predicate pipeline (see
/// `vaq_geom::predicates`): orientation evaluations decided by the cheap
/// error-bound **filter** (stage A of `orient2d`, or `orient2d_filter`
/// in the prepared segment screen) versus evaluations that fell back to
/// the adaptive **exact** stages (expansion arithmetic).
///
/// These count *work per primitive evaluation*, not per query answer.
/// Raw and prepared areas both decide most edges by coordinate
/// comparisons and evaluate an orientation only where comparisons
/// cannot decide, but they examine different edges (a prepared area
/// lists fewer and screens segment tests through the filter), so the
/// counters legitimately differ across the `PrepareMode` axis while
/// every result-bearing counter stays bit-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredicateCounters {
    /// Orientation evaluations whose sign the cheap filter certified.
    pub filter_fast_accepts: u64,
    /// Orientation evaluations that fell through to the adaptive/exact
    /// stages.
    pub exact_fallbacks: u64,
}

impl PredicateCounters {
    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: PredicateCounters) {
        self.filter_fast_accepts += other.filter_fast_accepts;
        self.exact_fallbacks += other.exact_fallbacks;
    }

    /// Fraction of evaluations the filter decided (`0.0` when none ran).
    pub fn filter_rate(&self) -> f64 {
        let total = self.filter_fast_accepts + self.exact_fallbacks;
        if total == 0 {
            0.0
        } else {
            self.filter_fast_accepts as f64 / total as f64
        }
    }
}

/// Counters for a single area query (either method).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Points returned (after duplicate expansion).
    pub result_size: usize,
    /// Candidates that underwent geometric validation. For the traditional
    /// method this is the window-query output ("candidate number" in
    /// Tables I–II); for the Voronoi method it is every point popped from
    /// the candidate queue.
    pub candidates: usize,
    /// Candidates whose validation succeeded (before duplicate expansion).
    pub accepted: usize,
    /// Exact point-in-polygon tests performed.
    pub containment_tests: u64,
    /// Segment–area intersection tests (Voronoi method, segment policy).
    pub segment_tests: u64,
    /// Voronoi-cell–area intersection tests (Voronoi method, cell policy).
    pub cell_tests: u64,
    /// Spatial-index node/entry accesses (window query or seed NN).
    pub index: AccessStats,
    /// The canonical seed vertex of the Voronoi method, when applicable.
    pub seed: Option<u32>,
    /// Checksum of the payload records materialised during validation
    /// (see `EngineBuilder::payload_bytes`). Non-zero only when the engine
    /// simulates record loading; it both proves the bytes were actually
    /// read and keeps the optimiser from eliding the loads.
    pub payload_checksum: u64,
    /// Prepared-area cache traffic of this query (all zero unless it ran
    /// with `PrepareMode::Cached` on an area that has a fingerprint and a
    /// prepared form).
    /// With [`QueryStats::predicates`], one of the only two stats fields
    /// allowed to differ across the `PrepareMode` axis — everything else
    /// is bit-identical.
    pub prepared_cache: CacheCounters,
    /// Exact-predicate pipeline split of this query: orientation
    /// evaluations decided by the cheap filter vs. adaptive fallbacks.
    /// Like `prepared_cache`, this measures *how* the answer was
    /// computed, not the answer. Containment and segment tests on raw and
    /// prepared areas alike skip every edge that coordinate comparisons
    /// decide, so only the remaining edges count here; prepared areas
    /// examine fewer edges still, so the counters differ across the
    /// `PrepareMode` axis while every result-bearing counter stays
    /// bit-identical.
    pub predicates: PredicateCounters,
    /// Delta points the dynamic engine's delta pass examined: the live
    /// delta points in the grid cells the area's MBR meets (zero for
    /// static-engine queries). Each examined point also counts as a
    /// candidate and a containment test, so the classic identities keep
    /// holding on the dynamic path.
    pub delta_scanned: usize,
    /// Hidden sites surfaced by the hidden-site R-tree's window lookup and
    /// geometrically examined against the area (weighted engines only;
    /// zero on Euclidean engines, which hide nothing). Each examined
    /// site also counts as a candidate and a containment test.
    pub hidden_examined: usize,
    /// Hidden sites the R-tree window lookup skipped without per-site work.
    /// Before the index, the post-BFS sweep rect-scanned **every**
    /// hidden site — `hidden_examined + hidden_pruned` of them — so this
    /// is the before/after saving of the spatial index, per query.
    pub hidden_pruned: usize,
    /// Shards whose MBR intersected the area's MBR and were therefore
    /// queried (sharded engine only; zero otherwise).
    pub shards_visited: usize,
    /// Shards skipped outright because their MBR misses the area's MBR
    /// (sharded engine only).
    pub shards_pruned: usize,
    /// The planner's decision record, set only when the query entered as
    /// [`MethodChoice::Auto`](crate::MethodChoice) — which concrete
    /// method / policy / prepare mode ran, on which path, at what
    /// predicted cost. Like `prepared_cache` and `predicates`, this
    /// describes *how* the answer was computed: an explicit spec
    /// re-running the planned strategy reproduces every other field
    /// bit-for-bit with `plan == None`.
    pub plan: Option<crate::plan::ExecutionPlan>,
}

impl QueryStats {
    /// Validations wasted on points outside the area — the quantity
    /// plotted in the paper's Figures 5 and 7.
    pub fn redundant_validations(&self) -> usize {
        self.candidates - self.accepted
    }

    /// Folds one shard-local query's counters into an aggregate (sharded
    /// execution): every work counter sums. The `seed` is left alone —
    /// each shard seeds independently, so an aggregate has no single
    /// meaningful seed — and the shard-visit counters and the planner's
    /// `plan` record are maintained by the sharded engine itself, not
    /// here.
    pub fn absorb_shard(&mut self, other: &QueryStats) {
        // vaq-lint: allow(stats-conservation) -- `seed` is per-shard: each
        // shard seeds its traversal independently, so an aggregate has no
        // single meaningful seed.
        // vaq-lint: allow(stats-conservation) -- `shards_visited` is
        // maintained by the sharded engine, which counts shards as it
        // dispatches them; summing per-shard copies would double-count.
        // vaq-lint: allow(stats-conservation) -- `shards_pruned` is
        // engine-maintained alongside shards_visited, for the same reason.
        // vaq-lint: allow(stats-conservation) -- `plan` is the planner's
        // one-per-query record, attached by the engine after the merge.
        self.result_size += other.result_size;
        self.candidates += other.candidates;
        self.accepted += other.accepted;
        self.containment_tests += other.containment_tests;
        self.segment_tests += other.segment_tests;
        self.cell_tests += other.cell_tests;
        self.index.absorb(&other.index);
        self.payload_checksum = self.payload_checksum.wrapping_add(other.payload_checksum);
        self.prepared_cache.absorb(other.prepared_cache);
        self.predicates.absorb(other.predicates);
        self.delta_scanned += other.delta_scanned;
        self.hidden_examined += other.hidden_examined;
        self.hidden_pruned += other.hidden_pruned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_shard_sums_work_counters() {
        let mut agg = QueryStats::default();
        let a = QueryStats {
            result_size: 3,
            candidates: 5,
            accepted: 3,
            containment_tests: 5,
            segment_tests: 7,
            seed: Some(4),
            prepared_cache: CacheCounters { hits: 1, misses: 0 },
            predicates: PredicateCounters {
                filter_fast_accepts: 20,
                exact_fallbacks: 2,
            },
            ..QueryStats::default()
        };
        let b = QueryStats {
            result_size: 2,
            candidates: 4,
            accepted: 2,
            containment_tests: 4,
            cell_tests: 9,
            delta_scanned: 6,
            predicates: PredicateCounters {
                filter_fast_accepts: 5,
                exact_fallbacks: 1,
            },
            ..QueryStats::default()
        };
        agg.absorb_shard(&a);
        agg.absorb_shard(&b);
        assert_eq!(agg.result_size, 5);
        assert_eq!(agg.candidates, 9);
        assert_eq!(agg.accepted, 5);
        assert_eq!(agg.containment_tests, 9);
        assert_eq!(agg.segment_tests, 7);
        assert_eq!(agg.cell_tests, 9);
        assert_eq!(agg.delta_scanned, 6);
        assert_eq!(agg.prepared_cache, CacheCounters { hits: 1, misses: 0 });
        assert_eq!(
            agg.predicates,
            PredicateCounters {
                filter_fast_accepts: 25,
                exact_fallbacks: 3,
            }
        );
        assert!((agg.predicates.filter_rate() - 25.0 / 28.0).abs() < 1e-12);
        assert_eq!(agg.seed, None, "aggregates have no single seed");
        assert_eq!(agg.redundant_validations(), 4);
    }

    #[test]
    fn redundant_is_candidates_minus_accepted() {
        let s = QueryStats {
            result_size: 10,
            candidates: 14,
            accepted: 10,
            ..QueryStats::default()
        };
        assert_eq!(s.redundant_validations(), 4);
        assert_eq!(QueryStats::default().redundant_validations(), 0);
    }
}
