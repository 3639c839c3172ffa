//! Differential suite for the **power-diagram** (weighted-site) engine
//! stack, in two halves:
//!
//! 1. **Uniform weights are free**: an engine built with any uniform
//!    weight vector (including all-zero) must be **bit-identical** to
//!    the unweighted Euclidean engine — same sorted indices *and* the
//!    same full [`QueryStats`] — on the plain, batch and sharded paths
//!    (the dynamic engine is Euclidean only). A uniform weight shifts
//!    every power distance by one constant, so the diagram it induces
//!    *is* the Euclidean one; the builders normalise it away and this
//!    suite pins that.
//!
//! 2. **Weighted answers are exact**: with genuinely distinct weights
//!    the result of an area query is still "every point inside the
//!    area" (a site's weight shifts its *cell*, never its membership),
//!    so every path must match the brute-force membership oracle —
//!    including *hidden* sites (dominated everywhere, owning no cell),
//!    duplicate coordinates with distinct weights, and the power
//!    nearest-site oracle for the seed walk. The cell expansion policy
//!    is exact on power diagrams; the segment heuristic is additionally
//!    exercised on benign (small-weight) inputs.

use voronoi_area_query::core::{
    AreaQueryEngine, ExpansionPolicy, OutputMode, PrepareMode, QueryArea, QueryMethod, QuerySpec,
    ShardedAreaQueryEngine,
};
use voronoi_area_query::delaunay::DiagramKind;
use voronoi_area_query::geom::{Point, Polygon, Rect};
use voronoi_area_query::workload::{
    generate, generate_weights, random_query_polygon, unit_space, Distribution, PolygonSpec,
    WeightDistribution,
};

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// All input indices whose point lies in the area, ascending — the
/// method-free oracle (weights never change membership).
fn membership_oracle(pts: &[Point], area: &dyn QueryArea) -> Vec<u32> {
    pts.iter()
        .enumerate()
        .filter(|&(_, q)| area.contains(*q))
        .map(|(i, _)| i as u32)
        .collect()
}

fn areas_for(seed: u64) -> Vec<Polygon> {
    let space = unit_space();
    vec![
        random_query_polygon(&space, &PolygonSpec::with_query_size(0.05), seed),
        random_query_polygon(&space, &PolygonSpec::with_query_size(0.2), seed ^ 0xA5),
        // Tiny area: often inside one cell, exercises the seed refine.
        random_query_polygon(&space, &PolygonSpec::with_query_size(0.002), seed ^ 0x5A),
    ]
}

/// The spec grid both halves sweep: methods × prepare modes, with the
/// (exact-on-any-diagram) cell expansion policy.
fn cell_grid() -> Vec<QuerySpec> {
    let mut specs = Vec::new();
    for method in [
        QueryMethod::Voronoi,
        QueryMethod::Traditional,
        QueryMethod::BruteForce,
    ] {
        for prepare in [PrepareMode::Raw, PrepareMode::Cached] {
            specs.push(
                QuerySpec::new()
                    .method(method)
                    .policy(ExpansionPolicy::Cell)
                    .prepare(prepare),
            );
        }
    }
    specs
}

// ---------------------------------------------------------------------
// Half 1: uniform weights are bit-identical to Euclidean.
// ---------------------------------------------------------------------

#[test]
fn uniform_weights_are_bit_identical_on_the_plain_engine() {
    let pts = generate(400, Distribution::Uniform, 0x11E1);
    let plain = AreaQueryEngine::build(&pts);
    for c in [0.0f64, 2.5] {
        let weighted = AreaQueryEngine::build_weighted(&pts, &vec![c; pts.len()]);
        assert_eq!(weighted.diagram_kind(), DiagramKind::Euclidean);
        for area in areas_for(0xE0) {
            for (si, spec) in cell_grid().iter().enumerate() {
                let a = plain.execute(spec, &area);
                let b = weighted.execute(spec, &area);
                assert_eq!(a.stats(), b.stats(), "w={c}, spec {si}");
                assert_eq!(
                    a.result().map(|r| r.sorted_indices()),
                    b.result().map(|r| r.sorted_indices()),
                    "w={c}, spec {si}"
                );
            }
            // Segment policy and count mode ride the same identity.
            let seg = QuerySpec::new().policy(ExpansionPolicy::Segment);
            assert_eq!(
                plain.execute(&seg, &area).stats(),
                weighted.execute(&seg, &area).stats(),
                "w={c} segment"
            );
            let cnt = QuerySpec::new().output(OutputMode::Count);
            let (a, b) = (plain.execute(&cnt, &area), weighted.execute(&cnt, &area));
            assert_eq!(a.count(), b.count(), "w={c} count");
            assert_eq!(a.stats(), b.stats(), "w={c} count stats");
        }
    }
}

#[test]
fn uniform_weights_are_bit_identical_on_the_batch_path() {
    let pts = generate(500, Distribution::Uniform, 0x11E2);
    let plain = AreaQueryEngine::build(&pts);
    let weighted = AreaQueryEngine::build_weighted(&pts, &vec![1.25; pts.len()]);
    let areas = areas_for(0xE1);
    for spec in [
        QuerySpec::new(),
        QuerySpec::new().prepare(PrepareMode::Cached),
    ] {
        let a = plain.execute_batch(&spec, &areas, 3);
        let b = weighted.execute_batch(&spec, &areas, 3);
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.stats(), y.stats(), "area {i}");
            assert_eq!(
                x.result().map(|r| r.sorted_indices()),
                y.result().map(|r| r.sorted_indices()),
                "area {i}"
            );
        }
    }
}

#[test]
fn uniform_weights_are_bit_identical_on_the_sharded_path() {
    let pts = generate(600, Distribution::Uniform, 0x11E5);
    for shards in [1usize, 4, 7] {
        let plain = ShardedAreaQueryEngine::build(&pts, shards);
        let weighted = AreaQueryEngine::builder(&pts)
            .weights(&vec![3.5; pts.len()])
            .build_sharded(shards);
        assert_eq!(weighted.diagram_kind(), DiagramKind::Euclidean);
        for area in areas_for(0xE3) {
            for (si, spec) in cell_grid().iter().enumerate() {
                let a = plain.execute(spec, &area);
                let b = weighted.execute(spec, &area);
                assert_eq!(a.indices, b.indices, "S={shards}, spec {si}");
                assert_eq!(a.stats, b.stats, "S={shards}, spec {si}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Half 2: genuinely weighted engines match the brute-force oracle.
// ---------------------------------------------------------------------

fn clustered_weights(n: usize, seed: u64) -> Vec<f64> {
    generate_weights(
        n,
        WeightDistribution::ClusteredRadii {
            groups: 4,
            max_radius: 0.15,
            jitter: 0.3,
        },
        seed,
    )
}

#[test]
fn weighted_plain_engine_matches_the_oracle_across_the_grid() {
    let pts = generate(450, Distribution::Uniform, 0x90E1);
    let ws = clustered_weights(pts.len(), 0x90E2);
    let engine = AreaQueryEngine::build_weighted(&pts, &ws);
    assert_eq!(engine.diagram_kind(), DiagramKind::Power);
    for (ai, area) in areas_for(0xF0).iter().enumerate() {
        let want = membership_oracle(&pts, area);
        for (si, spec) in cell_grid().iter().enumerate() {
            let out = engine.execute(spec, area);
            assert_eq!(
                out.result().map(|r| r.sorted_indices()),
                Some(want.clone()),
                "area {ai}, spec {si}"
            );
            let stats = out.stats();
            assert_eq!(stats.result_size, want.len(), "area {ai}, spec {si}");
            assert_eq!(
                stats.containment_tests, stats.candidates as u64,
                "area {ai}, spec {si}: exact-validation identity"
            );
        }
        let cnt = engine.execute(
            &QuerySpec::new()
                .policy(ExpansionPolicy::Cell)
                .output(OutputMode::Count),
            area,
        );
        assert_eq!(cnt.count(), want.len(), "area {ai} count");
    }
}

/// The segment heuristic on benign weighted inputs: weights small
/// relative to the site spacing keep the power cells close to their
/// Euclidean shapes, and the heuristic's (Euclidean-grade) completeness
/// carries over.
#[test]
fn weighted_segment_policy_agrees_on_benign_inputs() {
    let pts = generate(350, Distribution::Uniform, 0x90E3);
    let ws = generate_weights(
        pts.len(),
        WeightDistribution::Uniform { max_radius: 0.005 },
        0x90E4,
    );
    let engine = AreaQueryEngine::build_weighted(&pts, &ws);
    for (ai, area) in areas_for(0xF1).iter().enumerate() {
        let want = membership_oracle(&pts, area);
        let out = engine.execute(&QuerySpec::new().policy(ExpansionPolicy::Segment), area);
        assert_eq!(
            out.result().map(|r| r.sorted_indices()),
            Some(want),
            "area {ai}"
        );
    }
}

/// A dominating site hides every interior light site; the hidden sites
/// own no cell but are still points of the database and must be
/// reported when the area contains them.
#[test]
fn hidden_sites_are_still_reported_inside_the_area() {
    let mut pts = vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)];
    let mut ws = vec![0.0; 4];
    pts.push(p(0.5, 0.5)); // the dominator
    ws.push(10.0);
    let lights = [p(0.45, 0.5), p(0.55, 0.56), p(0.5, 0.42), p(0.6, 0.48)];
    for &q in &lights {
        pts.push(q);
        ws.push(0.0);
    }
    let engine = AreaQueryEngine::build_weighted(&pts, &ws);
    let tri = engine.triangulation().expect("non-empty build");
    assert!(
        !tri.hidden_vertices().is_empty(),
        "the construction must actually hide sites"
    );
    // An area holding the dominator and all light sites.
    let around = Rect::new(p(0.4, 0.38), p(0.65, 0.6));
    // An area holding *only* hidden sites (the dominator sits outside).
    let lights_only = Rect::new(p(0.42, 0.38), p(0.48, 0.52));
    for area in [&around as &dyn QueryArea, &lights_only] {
        let want = membership_oracle(&pts, area);
        assert!(!want.is_empty());
        for spec in cell_grid() {
            let out = engine.execute(&spec, area);
            assert_eq!(out.result().map(|r| r.sorted_indices()), Some(want.clone()));
        }
    }
    // Far away: hidden sites must not leak into disjoint areas.
    let far = Rect::new(p(0.05, 0.05), p(0.15, 0.15));
    let out = engine.execute(&QuerySpec::voronoi().policy(ExpansionPolicy::Cell), &far);
    assert_eq!(out.result().map(|r| r.sorted_indices()), Some(vec![]));
}

/// Duplicate coordinates with distinct weights collapse to one canonical
/// site; both input indices are still reported together.
#[test]
fn duplicate_coordinates_with_distinct_weights_report_all_inputs() {
    let mut pts = generate(60, Distribution::Uniform, 0x90E5);
    let mut ws = clustered_weights(pts.len(), 0x90E6);
    // Exact duplicates of three existing points, different weights.
    for (i, wd) in [(5usize, 0.9), (17, 0.0), (33, 0.0004)] {
        pts.push(pts[i]);
        ws.push(wd);
    }
    let engine = AreaQueryEngine::build_weighted(&pts, &ws);
    for (ai, area) in areas_for(0xF2).iter().enumerate() {
        let want = membership_oracle(&pts, area);
        for (si, spec) in cell_grid().iter().enumerate() {
            let out = engine.execute(spec, area);
            assert_eq!(
                out.result().map(|r| r.sorted_indices()),
                Some(want.clone()),
                "area {ai}, spec {si}"
            );
        }
    }
}

/// The engine's seed walk must land on the **power** nearest site —
/// checked against a brute-force power-distance argmin.
#[test]
fn nearest_vertex_matches_the_power_distance_oracle() {
    let pts = generate(200, Distribution::Uniform, 0x90E7);
    let ws = clustered_weights(pts.len(), 0x90E8);
    let engine = AreaQueryEngine::build_weighted(&pts, &ws);
    let tri = engine.triangulation().expect("non-empty build");
    let probes = generate(64, Distribution::Uniform, 0x90E9);
    for q in probes {
        let got = tri.nearest_vertex(q, None);
        let gp = tri.point(got).dist_sq(q) - tri.weight(got);
        let best = (0..pts.len())
            .map(|i| pts[i].dist_sq(q) - ws[i])
            .fold(f64::INFINITY, f64::min);
        assert!(
            gp <= best + 1e-12,
            "walk returned power {gp}, oracle found {best} at {q:?}"
        );
    }
}

#[test]
fn weighted_batch_path_matches_the_oracle() {
    let pts = generate(500, Distribution::Uniform, 0x90EA);
    let ws = clustered_weights(pts.len(), 0x90EB);
    let engine = AreaQueryEngine::build_weighted(&pts, &ws);
    let areas = areas_for(0xF3);
    for spec in [
        QuerySpec::new().policy(ExpansionPolicy::Cell),
        QuerySpec::traditional(),
    ] {
        let outs = engine.execute_batch(&spec, &areas, 2);
        for (i, (out, area)) in outs.iter().zip(&areas).enumerate() {
            let want = membership_oracle(&pts, area);
            assert_eq!(out.count(), want.len(), "area {i}");
            if let Some(r) = out.result() {
                assert_eq!(r.sorted_indices(), want, "area {i}");
            }
        }
    }
}

#[test]
fn weighted_sharded_path_matches_the_oracle_across_shard_counts() {
    let pts = generate(550, Distribution::Uniform, 0x90F0);
    let ws = clustered_weights(pts.len(), 0x90F1);
    for shards in [1usize, 3, 8] {
        let sharded = AreaQueryEngine::builder(&pts)
            .weights(&ws)
            .build_sharded(shards);
        assert_eq!(sharded.diagram_kind(), DiagramKind::Power);
        for (ai, area) in areas_for(0xF5).iter().enumerate() {
            let want = membership_oracle(&pts, area);
            for (si, spec) in cell_grid().iter().enumerate() {
                let out = sharded.execute(spec, area);
                assert_eq!(out.indices, want, "S={shards}, area {ai}, spec {si}");
                assert_eq!(
                    out.stats.shards_visited + out.stats.shards_pruned,
                    sharded.shard_count(),
                    "S={shards}, area {ai}, spec {si}: shard accounting"
                );
            }
        }
    }
}

/// The planner hedges the segment heuristic away on power diagrams: an
/// in-hull area that plans `Segment` on the Euclidean engine plans
/// `Cell` on the weighted one.
#[test]
fn auto_plans_hedge_to_cell_expansion_on_power_diagrams() {
    let pts = generate(400, Distribution::Uniform, 0x90F2);
    let ws = clustered_weights(pts.len(), 0x90F3);
    let plain = AreaQueryEngine::build(&pts);
    let weighted = AreaQueryEngine::build_weighted(&pts, &ws);
    let area = random_query_polygon(&unit_space(), &PolygonSpec::with_query_size(0.05), 0x90F4);
    let auto = QuerySpec::auto();
    let a = plain.execute(&auto, &area);
    let b = weighted.execute(&auto, &area);
    let pa = a.stats().plan.expect("auto records a plan");
    let pb = b.stats().plan.expect("auto records a plan");
    if pa.method == QueryMethod::Voronoi {
        assert_eq!(
            pa.policy,
            ExpansionPolicy::Segment,
            "Euclidean keeps segment"
        );
    }
    assert_eq!(pb.policy, ExpansionPolicy::Cell, "power hedges to cell");
    // Both still answer exactly.
    let want = membership_oracle(&pts, &area);
    assert_eq!(a.result().map(|r| r.sorted_indices()), Some(want.clone()));
    assert_eq!(b.result().map(|r| r.sorted_indices()), Some(want));
}
