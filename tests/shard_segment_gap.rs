//! Differential test of the sharded segment-expansion completeness fix.
//!
//! PR-5 documented a completeness gap: per-shard segment expansion runs
//! on the *shard's* triangulation, where the long Delaunay edges that
//! cross a shard cut are missing. An area pocket whose only expansion
//! chain rode such an edge was silently dropped (≈8 of ~55k results on a
//! 2·10⁵-point × 8-shard × 64-area sweep), so the sharded engine used to
//! forbid `ExpansionPolicy::Segment`. The fix flags every shard vertex
//! whose Voronoi cell pokes outside the shard MBR at build time and, when
//! a segment test fails on such a frontier vertex, falls back to the
//! exact cell test for that one edge.
//!
//! Two angles:
//!
//! * a deterministic two-cluster reproduction where the naive
//!   per-partition union *provably* drops a pocket (asserting the test is
//!   sharp) while the fixed sharded engine stays exact, and
//! * a randomized sweep (uniform points × 8 shards × star polygons)
//!   asserting the fixed engine matches brute force bit for bit under
//!   `Segment`.

use voronoi_area_query::core::{
    AreaQueryEngine, ExpansionPolicy, QuerySpec, ShardedAreaQueryEngine,
};
use voronoi_area_query::geom::{Point, Polygon};
use voronoi_area_query::workload::{
    generate, random_query_polygon, unit_space, Distribution, PolygonSpec,
};

/// The brute-force oracle's matching indices, ascending.
fn brute_sorted(engine: &AreaQueryEngine, area: &Polygon) -> Vec<u32> {
    engine
        .execute(&QuerySpec::brute_force(), area)
        .into_result()
        .expect("collect output")
        .sorted_indices()
}

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// Two 5×5 grids with a wide empty channel between them. A kd cut at the
/// median x puts each grid in its own shard, severing every left↔right
/// Delaunay edge.
fn two_clusters() -> Vec<Point> {
    let mut pts = Vec::with_capacity(50);
    for grid_x0 in [0.0, 0.6] {
        for j in 0..5 {
            for i in 0..5 {
                pts.push(p(grid_x0 + i as f64 / 10.0, j as f64 / 10.0));
            }
        }
    }
    pts
}

/// A C-shape over the right grid: two horizontal prongs (covering the
/// rows y = 0.0 and y = 0.4) joined by a thin connector strip at
/// x ∈ [0.52, 0.56] that contains **no points**. In the full
/// triangulation the connector is crossed by left↔right edges, so
/// segment expansion hops between the prongs; in the right shard alone
/// no edge touches the connector and one prong is unreachable.
fn c_shape() -> Polygon {
    Polygon::new(vec![
        p(0.52, -0.05),
        p(1.05, -0.05),
        p(1.05, 0.05),
        p(0.56, 0.05),
        p(0.56, 0.35),
        p(1.05, 0.35),
        p(1.05, 0.45),
        p(0.52, 0.45),
    ])
    .unwrap()
}

/// The old sharded behaviour, emulated: partition the points by hand,
/// run plain per-partition engines (which carry no shard-frontier flags)
/// under `Segment`, and union the mapped indices.
fn naive_partition_union(
    points: &[Point],
    partitions: &[Vec<u32>],
    spec: &QuerySpec,
    area: &Polygon,
) -> Vec<u32> {
    let mut out = Vec::new();
    for part in partitions {
        let sub: Vec<Point> = part.iter().map(|&i| points[i as usize]).collect();
        let engine = AreaQueryEngine::build(&sub);
        let local = engine.execute(spec, area);
        out.extend(
            local
                .result()
                .expect("collect output")
                .indices
                .iter()
                .map(|&l| part[l as usize]),
        );
    }
    out.sort_unstable();
    out
}

#[test]
fn frontier_fallback_recovers_the_dropped_pocket() {
    let points = two_clusters();
    let area = c_shape();
    let spec = QuerySpec::voronoi().policy(ExpansionPolicy::Segment);

    let full = AreaQueryEngine::build(&points);
    let want = brute_sorted(&full, &area);
    // Both prongs hold a full grid row of the right cluster.
    assert_eq!(want.len(), 10, "the C-shape covers two 5-point rows");

    // The unsharded engine is complete here: the connector strip is
    // crossed by left↔right Delaunay edges.
    assert_eq!(
        full.execute(&spec, &area)
            .result()
            .unwrap()
            .sorted_indices(),
        want,
        "unsharded Segment must be complete on the C-shape"
    );

    // Old behaviour: per-partition Segment expansion drops a prong —
    // the naive union is strictly short. This is the sharpness check:
    // the scenario really exercises the gap.
    let partitions: Vec<Vec<u32>> = vec![(0..25).collect(), (25..50).collect()];
    let naive = naive_partition_union(&points, &partitions, &spec, &area);
    assert!(
        naive.len() < want.len(),
        "the naive per-partition union should drop a pocket \
(found {naive:?}, want {want:?}) — if this starts passing, the \
scenario no longer reproduces the PR-5 gap"
    );

    // Fixed behaviour: the sharded engine's frontier fallback recovers
    // every dropped point, bit for bit.
    let sharded = ShardedAreaQueryEngine::build(&points, 2);
    assert_eq!(sharded.shard_count(), 2);
    let out = sharded.execute(&spec, &area);
    assert_eq!(out.indices, want, "sharded Segment must match brute force");
    // The recovery is visible in the counters: cell tests fired even
    // though the policy is Segment.
    assert!(
        out.stats.cell_tests > 0,
        "the frontier fallback should have run cell tests: {:?}",
        out.stats
    );
}

/// A single-shard engine has no cut, so no frontier flags and no
/// fallback cell tests: bit-identical behaviour to the plain engine,
/// counters included.
#[test]
fn single_shard_runs_no_fallback() {
    let points = two_clusters();
    let area = c_shape();
    let spec = QuerySpec::voronoi().policy(ExpansionPolicy::Segment);
    let plain = AreaQueryEngine::build(&points).execute(&spec, &area);
    let sharded = ShardedAreaQueryEngine::build(&points, 1).execute(&spec, &area);
    assert_eq!(
        sharded.indices,
        plain.result().unwrap().sorted_indices(),
        "one shard ≡ plain"
    );
    assert_eq!(sharded.stats.cell_tests, plain.stats().cell_tests);
    assert_eq!(sharded.stats.segment_tests, plain.stats().segment_tests);
}

/// The randomized sweep the PR-5 caveat was measured on, scaled to test
/// time: uniform points × 8 shards × star polygons of mixed sizes.
/// Under the fallback, sharded `Segment` matches brute force exactly on
/// every area.
#[test]
fn sharded_segment_matches_brute_on_random_sweep() {
    let points = generate(20_000, Distribution::Uniform, 0x5E6);
    let full = AreaQueryEngine::build(&points);
    let sharded = ShardedAreaQueryEngine::build(&points, 8);
    assert_eq!(sharded.shard_count(), 8);
    let spec = QuerySpec::voronoi().policy(ExpansionPolicy::Segment);
    let space = unit_space();
    let mut total = 0usize;
    for i in 0..64u64 {
        let size = match i % 3 {
            0 => 0.01,
            1 => 0.05,
            _ => 0.15,
        };
        let area = random_query_polygon(&space, &PolygonSpec::with_query_size(size), 5000 + i);
        let want = brute_sorted(&full, &area);
        let got = sharded.execute(&spec, &area);
        assert_eq!(got.indices, want, "area {i} (query size {size})");
        total += want.len();
    }
    assert!(total > 10_000, "the sweep should cover plenty of results");
}
