//! A pinned counterexample to the completeness of the paper's Algorithm 1.
//!
//! The segment-based expansion rule (`Intersects(line(p, pn), A)`) is a
//! heuristic, which is why the planner (README, "Query planner" section)
//! picks it only where the area's MBR lies inside the data hull: a
//! connected area can reach around the *outside* of the point set's
//! convex hull, where there are no Delaunay edges to cross, so the BFS
//! can die before reaching a second pocket of internal points. This test
//! constructs exactly that configuration and shows
//!
//! * the segment policy (the paper's algorithm, verbatim) returns an
//!   incomplete result, while
//! * the cell policy returns the exact result (its completeness argument
//!   — connectivity of the cells-intersecting-A subgraph — does not care
//!   where the area wanders).
//!
//! The configuration is adversarial and outside the paper's evaluated
//! workload (star polygons centred on the data); on the paper's own
//! workload the two policies agree everywhere (see
//! `tests/consistency.rs`).

use voronoi_area_query::core::{AreaQueryEngine, ExpansionPolicy, QueryResult, QuerySpec};
use voronoi_area_query::geom::{Point, Polygon};

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn run(engine: &AreaQueryEngine, spec: QuerySpec, area: &Polygon) -> QueryResult {
    engine
        .execute(&spec, area)
        .into_result()
        .expect("collect output")
}

/// 5×5 grid over the unit square.
fn grid() -> Vec<Point> {
    let mut pts = Vec::new();
    for j in 0..5 {
        for i in 0..5 {
            pts.push(p(f64::from(i) * 0.25, f64::from(j) * 0.25));
        }
    }
    pts
}

/// A "staple" area: two thin prongs descending onto the top-left and
/// top-right grid corners, joined by a bridge that passes **above** the
/// convex hull of the points. Connected, simple — and its bridge crosses
/// no segment between any two points.
fn staple() -> Polygon {
    Polygon::new(vec![
        p(-0.02, 0.90),
        p(0.02, 0.90),
        p(0.02, 1.10),
        p(0.98, 1.10),
        p(0.98, 0.90),
        p(1.02, 0.90),
        p(1.02, 1.15),
        p(-0.02, 1.15),
    ])
    .expect("simple polygon")
}

#[test]
fn segment_policy_misses_a_pocket_cell_policy_does_not() {
    let pts = grid();
    let area = staple();
    assert!(area.is_simple());
    let engine = AreaQueryEngine::build(&pts);

    // Ground truth: exactly the two top corners lie in the staple.
    let want = run(&engine, QuerySpec::brute_force(), &area).sorted_indices();
    assert_eq!(want, vec![20, 24], "the two top corners");

    let voronoi = |policy| run(&engine, QuerySpec::voronoi().policy(policy), &area);
    let segment = voronoi(ExpansionPolicy::Segment);
    let cell = voronoi(ExpansionPolicy::Cell);

    // The provably complete policy gets both corners.
    assert_eq!(cell.sorted_indices(), want, "cell policy must be exact");

    // The paper's policy cannot bridge the outside-the-hull corridor: no
    // segment between data points crosses the staple's bridge, so at most
    // the pocket containing the seed is found.
    assert!(
        segment.indices.len() < want.len(),
        "expected the segment policy to miss a pocket, got {:?}",
        segment.sorted_indices()
    );

    // The traditional method is unaffected (the MBR covers everything).
    assert_eq!(
        run(&engine, QuerySpec::traditional(), &area).sorted_indices(),
        want
    );
}

#[test]
fn the_gap_needs_the_outside_corridor() {
    // Control experiment: route the same bridge *through* the point set
    // (between the y = 0.75 and y = 1.0 grid rows) instead of outside the
    // hull — now the bridge crosses grid edges, the BFS can follow it,
    // and both policies are exact. This isolates the outside-the-hull
    // corridor as the culprit. The shape is an upward-opening "U": two
    // prongs covering the top corners, joined at y ∈ [0.90, 0.93].
    let pts = grid();
    let area = Polygon::new(vec![
        p(-0.02, 0.90),
        p(1.02, 0.90),
        p(1.02, 1.15),
        p(0.98, 1.15),
        p(0.98, 0.93),
        p(0.02, 0.93),
        p(0.02, 1.15),
        p(-0.02, 1.15),
    ])
    .expect("simple polygon");
    let engine = AreaQueryEngine::build(&pts);
    let want = run(&engine, QuerySpec::brute_force(), &area).sorted_indices();
    assert_eq!(want, vec![20, 24], "still exactly the two top corners");
    for policy in [ExpansionPolicy::Segment, ExpansionPolicy::Cell] {
        let r = run(&engine, QuerySpec::voronoi().policy(policy), &area);
        assert_eq!(r.sorted_indices(), want, "{policy:?} on the in-hull bridge");
    }
}
