//! Differential sweep of the full `QuerySpec` grid — method × policy ×
//! prepare × output — against the brute-force oracle, over
//! polygon, region-with-hole and rectangle (window) areas. Plus the
//! prepared-area contract (`PrepareOnce` ≡ `Cached` ≡ `Raw`, bit for bit,
//! with hit counters) and the work-stealing batch ordering guarantee.

use voronoi_area_query::core::{
    AreaQueryEngine, CacheCounters, ExpansionPolicy, OutputMode, PointClass, PrepareMode,
    QueryArea, QueryMethod, QuerySpec,
};
use voronoi_area_query::geom::{Point, Polygon, Rect, Region};
use voronoi_area_query::workload::{
    generate, random_query_polygon, unit_space, Distribution, PolygonSpec,
};

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn uniform_engine(n: usize, seed: u64) -> AreaQueryEngine {
    AreaQueryEngine::build(&generate(n, Distribution::Uniform, seed))
}

/// Every cell of the spec grid must agree with the brute-force oracle.
fn assert_grid_agrees(engine: &AreaQueryEngine, area: &dyn QueryArea, context: &str) {
    let mut session = engine.session();
    let want_sorted = engine
        .execute(&QuerySpec::brute_force(), area)
        .into_result()
        .expect("collect output")
        .sorted_indices();
    for method in [
        QueryMethod::Traditional,
        QueryMethod::Voronoi,
        QueryMethod::BruteForce,
    ] {
        for policy in [ExpansionPolicy::Segment, ExpansionPolicy::Cell] {
            for prepare in [
                PrepareMode::Raw,
                PrepareMode::PrepareOnce,
                PrepareMode::Cached,
            ] {
                let spec = QuerySpec::new()
                    .method(method)
                    .policy(policy)
                    .prepare(prepare)
                    .output(OutputMode::Collect);
                let ctx = format!("{context}: {spec:?}");
                let collected = session.execute(&spec, area);
                assert_eq!(
                    collected.result().expect("collect output").sorted_indices(),
                    want_sorted,
                    "{ctx}"
                );
                let counted = session.execute(&spec.output(OutputMode::Count), area);
                assert_eq!(counted.count(), want_sorted.len(), "{ctx} (count)");
                // Counting is the same seeded, stats-tracked path: every
                // counter matches the collecting run. The two
                // how-was-it-computed fields may differ under `Cached`:
                // the second lookup hits, and the hit reuses the prepared
                // area's lazily-cached interior point (fewer predicate
                // evaluations).
                let mut a = *counted.stats();
                let mut b = *collected.stats();
                a.prepared_cache = CacheCounters::default();
                b.prepared_cache = CacheCounters::default();
                a.predicates = b.predicates;
                assert_eq!(a, b, "{ctx} (count stats)");
            }
        }
    }
    // Classification has no method, policy or prepare axis: check the
    // raw area and its compiled form.
    let internal = |classes: Vec<PointClass>| {
        classes
            .iter()
            .filter(|&&c| c == PointClass::Internal)
            .count()
    };
    assert_eq!(
        internal(engine.classify(area)),
        want_sorted.len(),
        "{context} classify"
    );
    if let Some(prepared) = area.prepare() {
        assert_eq!(
            internal(engine.classify(prepared.as_ref())),
            want_sorted.len(),
            "{context} classify prepared"
        );
    }
}

#[test]
fn grid_agrees_on_star_polygons() {
    let engine = uniform_engine(600, 0xA11CE);
    let space = unit_space();
    for seed in 0..3u64 {
        let area = random_query_polygon(&space, &PolygonSpec::with_query_size(0.05), 40 + seed);
        assert_grid_agrees(&engine, &area, &format!("star {seed}"));
    }
}

#[test]
fn grid_agrees_on_rect_windows() {
    let engine = uniform_engine(500, 0xB0B);
    for (i, rect) in [
        Rect::new(p(0.2, 0.2), p(0.6, 0.7)),
        Rect::new(p(0.0, 0.0), p(1.0, 1.0)),
        Rect::new(p(0.45, 0.45), p(0.55, 0.55)),
    ]
    .iter()
    .enumerate()
    {
        assert_grid_agrees(&engine, rect, &format!("window {i}"));
    }
}

#[test]
fn grid_agrees_on_region_with_hole() {
    let engine = uniform_engine(500, 0xCAFE);
    let outer = Polygon::new(vec![p(0.1, 0.1), p(0.9, 0.15), p(0.85, 0.9), p(0.12, 0.8)]).unwrap();
    let hole = Polygon::new(vec![p(0.4, 0.4), p(0.6, 0.42), p(0.58, 0.6), p(0.42, 0.58)]).unwrap();
    let region = Region::new(outer, vec![hole]);
    region.validate_nesting().unwrap();
    assert_grid_agrees(&engine, &region, "region with hole");
}

/// `PrepareMode::PrepareOnce` and `PrepareMode::Cached` return
/// bit-identical results (the same indices in the same order) and stats
/// to `Raw` (only the cache counters differ), on 48- and 256-vertex
/// areas, and the cache reports hits on repeated areas.
#[test]
fn cached_is_bit_identical_to_raw_and_hits_on_repeats() {
    let engine = uniform_engine(2000, 0xD1CE);
    let mut session = engine.session();
    let space = unit_space();
    let areas: Vec<Polygon> = [48, 48, 48, 48, 256]
        .into_iter()
        .zip(900..)
        .map(|(vertices, seed)| {
            let spec = PolygonSpec {
                vertices,
                ..PolygonSpec::with_query_size(0.03)
            };
            random_query_polygon(&space, &spec, seed)
        })
        .collect();
    for method in [QueryMethod::Traditional, QueryMethod::Voronoi] {
        let raw_spec = QuerySpec::new().method(method);
        let cached_spec = raw_spec.prepare(PrepareMode::Cached);
        for (i, area) in areas.iter().enumerate() {
            let raw = session.execute(&raw_spec, area);
            let once = session.execute(&raw_spec.prepare(PrepareMode::PrepareOnce), area);
            let first = session.execute(&cached_spec, area);
            let again = session.execute(&cached_spec, area);
            let ctx = format!("{method:?} area {i}");
            // Stats: identical except the cache counters. The cache is
            // keyed by area content (method-agnostic), so only the first
            // method's pass misses; `PrepareOnce` never touches it.
            let first_expected = if method == QueryMethod::Traditional {
                CacheCounters { hits: 0, misses: 1 }
            } else {
                CacheCounters { hits: 1, misses: 0 }
            };
            for (label, out, cache) in [
                ("once", &once, CacheCounters::default()),
                ("first", &first, first_expected),
                ("again", &again, CacheCounters { hits: 1, misses: 0 }),
            ] {
                assert_eq!(
                    out.result().unwrap().indices,
                    raw.result().unwrap().indices,
                    "{ctx} {label}"
                );
                assert_eq!(out.stats().prepared_cache, cache, "{ctx} {label}");
                // Identical except the two how-was-it-computed fields:
                // cache traffic and the predicate-pipeline split (the
                // prepared area evaluates far fewer edges than raw).
                let mut scrubbed = *out.stats();
                scrubbed.prepared_cache = CacheCounters::default();
                scrubbed.predicates = raw.stats().predicates;
                assert_eq!(scrubbed, *raw.stats(), "{ctx} {label}");
                assert!(
                    out.stats().predicates.filter_fast_accepts > 0,
                    "{ctx} {label}: the filter stage never engaged"
                );
            }
        }
    }
    // 5 areas × 2 methods: every (method-agnostic) prepared area is built
    // once per first sight and hit thereafter.
    let totals = session.cache_counters();
    assert_eq!(totals.misses, 5, "one miss per distinct area");
    assert_eq!(totals.hits, 15, "every repeat is a hit");
    assert!(totals.hit_rate() > 0.7);
    assert_eq!(session.cache_len(), 5);
}

/// The work-stealing batch returns outputs in input order, matching the
/// sequential batch query-for-query (indices *and* stats).
#[test]
fn work_stealing_batch_matches_sequential_order() {
    let engine = uniform_engine(3000, 0xFEED);
    let space = unit_space();
    // Heavily skewed batch: tiny and huge queries interleaved, the case
    // fixed contiguous chunks handled badly.
    let areas: Vec<Polygon> = (0..24)
        .map(|i| {
            let qs = if i % 3 == 0 { 0.25 } else { 0.005 };
            random_query_polygon(&space, &PolygonSpec::with_query_size(qs), 7000 + i)
        })
        .collect();
    for spec in [
        QuerySpec::voronoi(),
        QuerySpec::traditional(),
        QuerySpec::voronoi().prepare(PrepareMode::Cached),
        QuerySpec::voronoi().output(OutputMode::Count),
    ] {
        let seq = engine.execute_batch(&spec, &areas, 1);
        assert_eq!(seq.len(), areas.len());
        for threads in [2, 3, 8, 64] {
            let par = engine.execute_batch(&spec, &areas, threads);
            assert_eq!(par.len(), seq.len(), "threads={threads}");
            for (i, (a, b)) in par.iter().zip(&seq).enumerate() {
                assert_eq!(a.count(), b.count(), "query {i}, threads={threads}");
                // Work counters are per-query deterministic; only the
                // cache counters depend on which worker saw the area
                // first.
                let mut sa = *a.stats();
                let mut sb = *b.stats();
                sa.prepared_cache = CacheCounters::default();
                sb.prepared_cache = CacheCounters::default();
                assert_eq!(sa, sb, "query {i}, threads={threads}");
                if let (Some(ra), Some(rb)) = (a.result(), b.result()) {
                    assert_eq!(ra.indices, rb.indices, "query {i}, threads={threads}");
                }
            }
        }
    }
}
