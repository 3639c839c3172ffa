//! Differential suite: the sharded engine must return **bit-identical
//! result sets** (sorted global input indices, and counts) to the
//! unsharded engine for every `QuerySpec`, every area shape (star
//! polygons, regions with holes, rectangle windows, areas straddling
//! shard boundaries) and every shard count — including the `S = 1` and
//! `S > point count` edges.

use proptest::prelude::*;
use voronoi_area_query::core::{
    AreaQueryEngine, ExpansionPolicy, OutputMode, PrepareMode, QueryArea, QueryMethod, QuerySpec,
    ShardedAreaQueryEngine,
};
use voronoi_area_query::geom::{Point, Polygon, Rect, Region};
use voronoi_area_query::workload::{
    generate, random_query_polygon, unit_space, Distribution, PolygonSpec,
};

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn oracle_sorted(single: &AreaQueryEngine, area: &dyn QueryArea) -> Vec<u32> {
    single
        .execute(&QuerySpec::brute_force(), area)
        .into_result()
        .expect("collect output")
        .sorted_indices()
}

/// Sweeps the sharded engine through the `QuerySpec` grid (methods ×
/// policies × prepare modes × collect/count) against the unsharded
/// brute-force oracle.
fn assert_sharded_grid_agrees<A: QueryArea + Sync>(
    single: &AreaQueryEngine,
    sharded: &ShardedAreaQueryEngine,
    area: &A,
    context: &str,
) {
    let want = oracle_sorted(single, area);
    for method in [
        QueryMethod::Voronoi,
        QueryMethod::Traditional,
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
                let got = sharded.execute(&spec, area);
                assert_eq!(got.indices, want, "{ctx}");
                assert_eq!(got.count, want.len(), "{ctx} (count field)");
                assert_eq!(got.stats.result_size, want.len(), "{ctx} (result_size)");
                assert_eq!(
                    got.stats.shards_visited + got.stats.shards_pruned,
                    sharded.shard_count(),
                    "{ctx} (shard accounting)"
                );
                let counted = sharded.execute(&spec.output(OutputMode::Count), area);
                assert_eq!(counted.count, want.len(), "{ctx} (count mode)");
                assert!(counted.indices.is_empty(), "{ctx} (count materialises)");
            }
        }
    }
}

#[test]
fn grid_agrees_on_star_polygons_across_shard_counts() {
    let pts = generate(500, Distribution::Uniform, 0x5AAD);
    let single = AreaQueryEngine::build(&pts);
    let space = unit_space();
    // S = 1 (degenerate single shard), small, medium, and S > n.
    for shards in [1usize, 3, 8, 4096] {
        let sharded = ShardedAreaQueryEngine::build(&pts, shards);
        assert_eq!(sharded.shard_count(), shards.min(pts.len()));
        for seed in 0..2u64 {
            let area =
                random_query_polygon(&space, &PolygonSpec::with_query_size(0.06), 7000 + seed);
            assert_sharded_grid_agrees(
                &single,
                &sharded,
                &area,
                &format!("star {seed}, S={shards}"),
            );
        }
    }
}

#[test]
fn grid_agrees_on_rect_windows_and_regions_with_holes() {
    let pts = generate(450, Distribution::Uniform, 0xB00B5);
    let single = AreaQueryEngine::build(&pts);
    let sharded = ShardedAreaQueryEngine::build(&pts, 5);
    for (i, rect) in [
        Rect::new(p(0.2, 0.2), p(0.6, 0.7)),
        Rect::new(p(0.0, 0.0), p(1.0, 1.0)),
        Rect::new(p(0.48, 0.05), p(0.52, 0.95)), // thin, crosses x splits
    ]
    .iter()
    .enumerate()
    {
        assert_sharded_grid_agrees(&single, &sharded, rect, &format!("window {i}"));
    }
    let outer = Polygon::new(vec![p(0.1, 0.1), p(0.9, 0.15), p(0.85, 0.9), p(0.12, 0.8)]).unwrap();
    let hole = Polygon::new(vec![p(0.4, 0.4), p(0.6, 0.42), p(0.58, 0.6), p(0.42, 0.58)]).unwrap();
    let region = Region::new(outer, vec![hole]);
    region.validate_nesting().unwrap();
    assert_sharded_grid_agrees(&single, &sharded, &region, "region with hole");
}

/// Areas deliberately straddling shard boundaries: squares centred on
/// every shard-MBR corner, plus a full-height band through the median
/// split — the worst case for the prune and the classic off-by-one spot
/// for the merge.
#[test]
fn grid_agrees_on_shard_boundary_straddling_areas() {
    let pts = generate(600, Distribution::Uniform, 0x57AD);
    let single = AreaQueryEngine::build(&pts);
    let sharded = ShardedAreaQueryEngine::build(&pts, 4);
    let mut straddlers: Vec<Rect> = Vec::new();
    for mbr in sharded.shard_mbrs() {
        // Corner- and edge-centred squares (those on the domain boundary
        // may legitimately hit a single shard; the differential equality
        // is the point).
        straddlers.push(Rect::from_center(p(mbr.max.x, mbr.max.y), 0.2, 0.2));
        straddlers.push(Rect::from_center(p(mbr.min.x, mbr.center().y), 0.15, 0.3));
    }
    // A full-width band through the median: guaranteed multi-shard.
    let band = Rect::new(p(0.0, 0.45), p(1.0, 0.55));
    straddlers.push(band);
    for (i, rect) in straddlers.iter().enumerate() {
        let want = oracle_sorted(&single, rect);
        let got = sharded.execute(&QuerySpec::new(), rect);
        assert_eq!(got.indices, want, "straddler {i}");
    }
    let band_out = sharded.execute(&QuerySpec::new(), &band);
    assert!(
        band_out.stats.shards_visited >= 2,
        "the median band must straddle shards, visited {}",
        band_out.stats.shards_visited
    );
}

#[test]
fn batch_path_agrees_with_single_path_and_unsharded() {
    let pts = generate(900, Distribution::Uniform, 0xBA7C);
    let single = AreaQueryEngine::build(&pts);
    let sharded = ShardedAreaQueryEngine::build(&pts, 6);
    let space = unit_space();
    // Skewed batch with repeats (exercises the shared preparation).
    let mut areas: Vec<Polygon> = (0..10)
        .map(|i| {
            let qs = if i % 3 == 0 { 0.2 } else { 0.01 };
            random_query_polygon(&space, &PolygonSpec::with_query_size(qs), 880 + i)
        })
        .collect();
    areas.push(areas[0].clone());
    areas.push(areas[1].clone());
    for spec in [
        QuerySpec::new(),
        QuerySpec::traditional(),
        QuerySpec::new().prepare(PrepareMode::Cached),
        QuerySpec::new().output(OutputMode::Count),
    ] {
        let unsharded = single.execute_batch(&spec, &areas, 2);
        for threads in [1usize, 2, 5, 32] {
            let outs = sharded.execute_batch(&spec, &areas, threads);
            assert_eq!(outs.len(), areas.len());
            for (i, (got, want)) in outs.iter().zip(&unsharded).enumerate() {
                assert_eq!(got.count, want.count(), "area {i}, threads={threads}");
                if let Some(r) = want.result() {
                    assert_eq!(
                        got.indices,
                        r.sorted_indices(),
                        "area {i}, threads={threads}"
                    );
                }
                // The per-area single path agrees with the batch path,
                // stats included — except the two how-was-it-computed
                // fields: a lone execute() has no batch context, so a
                // repeated area is a fresh miss there but a hit within
                // the batch, and a batch-shared prepared area computes
                // its lazily-cached interior point once for the whole
                // batch (fewer predicate evaluations on reuse).
                let one = sharded.execute(&spec, &areas[i]);
                assert_eq!(one.indices, got.indices, "area {i}, threads={threads}");
                let mut sa = one.stats;
                let mut sb = got.stats;
                sa.prepared_cache = Default::default();
                sb.prepared_cache = Default::default();
                sa.predicates = sb.predicates;
                assert_eq!(sa, sb, "area {i}, threads={threads}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random point sets, shard counts and query areas: the sharded
    /// engine's sorted global indices and counts match brute force and
    /// the unsharded funnel.
    #[test]
    fn random_shardings_agree(
        seed in 0u64..100_000,
        n in 30usize..260,
        shards in 1usize..14,
        qs_mil in 5u32..250,
    ) {
        let pts = generate(n, Distribution::Uniform, seed);
        let single = AreaQueryEngine::build(&pts);
        let sharded = ShardedAreaQueryEngine::build(&pts, shards);
        let area = random_query_polygon(
            &unit_space(),
            &PolygonSpec::with_query_size(f64::from(qs_mil) / 1000.0),
            seed ^ 0x0A5E,
        );
        let want = oracle_sorted(&single, &area);
        let got = sharded.execute(&QuerySpec::new(), &area);
        prop_assert_eq!(&got.indices, &want);
        prop_assert_eq!(got.count, want.len());
        let counted = sharded.execute(&QuerySpec::new().output(OutputMode::Count), &area);
        prop_assert_eq!(counted.count, want.len());
        // Cell policy + prepared, one more cell of the grid per case.
        let alt = QuerySpec::new()
            .policy(ExpansionPolicy::Cell)
            .prepare(PrepareMode::Cached);
        prop_assert_eq!(&sharded.execute(&alt, &area).indices, &want);
    }
}
