//! Failure injection: inputs that break naive geometry code — duplicates,
//! collinear sets, points exactly on area boundaries, areas outside the
//! data extent, minimal datasets — all through the public umbrella API.

use voronoi_area_query::core::{AreaQueryEngine, ExpansionPolicy, QueryResult, QuerySpec};
use voronoi_area_query::delaunay::Triangulation;
use voronoi_area_query::geom::{Point, Polygon};

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
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

fn run(engine: &AreaQueryEngine, spec: QuerySpec, area: &Polygon) -> QueryResult {
    engine
        .execute(&spec, area)
        .into_result()
        .expect("collect output")
}

fn check_both(engine: &AreaQueryEngine, area: &Polygon, context: &str) {
    let want = run(engine, QuerySpec::brute_force(), area).sorted_indices();
    assert_eq!(
        run(engine, QuerySpec::traditional(), area).sorted_indices(),
        want,
        "{context} trad"
    );
    for policy in [ExpansionPolicy::Segment, ExpansionPolicy::Cell] {
        assert_eq!(
            run(engine, QuerySpec::voronoi().policy(policy), area).sorted_indices(),
            want,
            "{context} voronoi {policy:?}"
        );
    }
}

#[test]
fn heavy_duplication() {
    // 70 % of points are duplicates of a handful of locations.
    let mut pts = Vec::new();
    for i in 0..30 {
        pts.push(p(
            f64::from(i % 6) / 6.0 + 0.05,
            f64::from(i % 5) / 5.0 + 0.05,
        ));
    }
    for _ in 0..70 {
        pts.push(p(0.35, 0.25));
        pts.push(p(0.55, 0.45));
    }
    let engine = AreaQueryEngine::build(&pts);
    check_both(&engine, &square(0.4, 0.3, 0.2), "duplicates");
    // All 70 copies of an in-area duplicate are reported.
    let r = run(&engine, QuerySpec::voronoi(), &square(0.35, 0.25, 0.01));
    assert_eq!(r.stats.result_size, 70);
}

#[test]
fn fully_collinear_dataset() {
    let pts: Vec<Point> = (0..100).map(|i| p(f64::from(i) / 100.0, 0.4)).collect();
    let engine = AreaQueryEngine::build(&pts);
    assert!(engine.triangulation().unwrap().is_degenerate());
    check_both(&engine, &square(0.5, 0.4, 0.15), "collinear horizontal");
    // Vertical line too (exercises the lexicographic path order).
    let pts: Vec<Point> = (0..100).map(|i| p(0.6, f64::from(i) / 100.0)).collect();
    let engine = AreaQueryEngine::build(&pts);
    check_both(&engine, &square(0.6, 0.5, 0.2), "collinear vertical");
}

#[test]
fn points_exactly_on_area_vertices_and_edges() {
    // The query area's vertices and edge midpoints are data points: the
    // area query is closed, so all of them are results.
    let area = Polygon::new(vec![p(0.2, 0.2), p(0.8, 0.2), p(0.8, 0.8), p(0.2, 0.8)]).unwrap();
    let mut pts: Vec<Point> = area.vertices().to_vec();
    pts.push(p(0.5, 0.2)); // edge midpoint
    pts.push(p(0.2, 0.5)); // edge midpoint
    pts.push(p(0.5, 0.5)); // interior
    pts.push(p(0.1, 0.1)); // outside
    pts.push(p(0.9, 0.9)); // outside
    let engine = AreaQueryEngine::build(&pts);
    let mut want: Vec<u32> = (0..7).collect();
    want.sort_unstable();
    assert_eq!(
        run(&engine, QuerySpec::traditional(), &area).sorted_indices(),
        want
    );
    assert_eq!(
        run(&engine, QuerySpec::voronoi(), &area).sorted_indices(),
        want
    );
}

#[test]
fn area_far_outside_the_data() {
    let pts: Vec<Point> = (0..50)
        .map(|i| p(f64::from(i % 8) / 8.0, f64::from(i / 8) / 8.0))
        .collect();
    let engine = AreaQueryEngine::build(&pts);
    let far = square(50.0, 50.0, 1.0);
    assert!(run(&engine, QuerySpec::traditional(), &far)
        .indices
        .is_empty());
    assert!(run(&engine, QuerySpec::voronoi(), &far).indices.is_empty());
}

#[test]
fn area_engulfing_all_data() {
    let pts: Vec<Point> = (0..200)
        .map(|i| p(f64::from(i % 20) / 20.0, f64::from(i / 20) / 10.0))
        .collect();
    let engine = AreaQueryEngine::build(&pts);
    let all = square(0.5, 0.5, 10.0);
    assert_eq!(
        run(&engine, QuerySpec::voronoi(), &all).stats.result_size,
        200
    );
    assert_eq!(
        run(&engine, QuerySpec::voronoi(), &all)
            .stats
            .redundant_validations(),
        0,
        "every candidate is internal when the area covers everything"
    );
}

#[test]
fn minimal_datasets() {
    for n in 1..6usize {
        let pts: Vec<Point> = (0..n)
            .map(|i| p(0.2 + 0.15 * i as f64, 0.3 + 0.1 * (i % 2) as f64))
            .collect();
        let engine = AreaQueryEngine::build(&pts);
        check_both(&engine, &square(0.3, 0.3, 0.25), &format!("n={n}"));
    }
}

#[test]
fn needle_thin_query_areas() {
    // A sliver of width 1e-6 crossing the whole space; candidate ring far
    // exceeds the (likely empty) result.
    let pts: Vec<Point> = (0..400)
        .map(|i| {
            p(
                f64::from(i % 20) / 20.0 + 0.025,
                f64::from(i / 20) / 20.0 + 0.025,
            )
        })
        .collect();
    let engine = AreaQueryEngine::build(&pts);
    let sliver = Polygon::new(vec![
        p(0.0, 0.5),
        p(1.0, 0.5),
        p(1.0, 0.500001),
        p(0.0, 0.500001),
    ])
    .unwrap();
    check_both(&engine, &sliver, "sliver");
}

#[test]
fn triangulation_duplicate_bookkeeping_roundtrip() {
    // inputs_of ∘ canonical is the identity partition.
    let pts = vec![
        p(0.1, 0.1),
        p(0.5, 0.5),
        p(0.1, 0.1),
        p(0.9, 0.1),
        p(0.5, 0.5),
        p(0.1, 0.9),
    ];
    let tri = Triangulation::new(&pts).unwrap();
    let mut seen = vec![false; pts.len()];
    for v in 0..tri.vertex_count() as u32 {
        for &i in tri.inputs_of(v) {
            assert_eq!(tri.canonical(i as usize), v);
            assert!(!seen[i as usize], "input {i} mapped twice");
            seen[i as usize] = true;
        }
    }
    assert!(seen.iter().all(|&s| s));
}

#[test]
fn signed_zero_duplicates_answer_like_brute_force() {
    // (−0, 1) and (0, 1) are one location. With (0, 0.5) between them
    // in coordinate order they once stayed two vertices, one of them
    // cell-less, and the Voronoi method dropped input 2.
    let pts = vec![
        p(-0.0, 1.0),
        p(0.0, 0.5),
        p(0.0, 1.0),
        p(2.0, 0.0),
        p(2.0, 2.0),
        p(-2.0, 0.0),
    ];
    let engine = AreaQueryEngine::build(&pts);
    let tri = engine.triangulation().expect("built");
    assert_eq!(tri.canonical(0), tri.canonical(2));
    assert_eq!(tri.vertex_count(), 5);
    let area = square(0.0, 1.0, 0.1);
    assert_eq!(
        run(&engine, QuerySpec::brute_force(), &area).sorted_indices(),
        vec![0, 2]
    );
    check_both(&engine, &area, "signed zero");
}
