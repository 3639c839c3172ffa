//! Area queries over regions (polygons with holes) — the extension beyond
//! the paper's simple polygons. Both methods must agree with brute force
//! for donuts, multi-hole regions and hole-heavy edge cases.

use voronoi_area_query::core::{
    AreaQueryEngine, ExpansionPolicy, QueryArea, QueryResult, QuerySpec,
};
use voronoi_area_query::geom::{Point, Polygon, Region};
use voronoi_area_query::workload::{generate, Distribution};

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

fn run(engine: &AreaQueryEngine, spec: QuerySpec, area: &dyn QueryArea) -> QueryResult {
    engine
        .execute(&spec, area)
        .into_result()
        .expect("collect output")
}

fn check(engine: &AreaQueryEngine, region: &Region, context: &str) {
    region
        .validate_nesting()
        .expect("test regions are well-nested");
    let want = run(engine, QuerySpec::brute_force(), region).sorted_indices();
    assert_eq!(
        run(engine, QuerySpec::traditional(), region).sorted_indices(),
        want,
        "{context}: traditional"
    );
    for policy in [ExpansionPolicy::Segment, ExpansionPolicy::Cell] {
        assert_eq!(
            run(engine, QuerySpec::voronoi().policy(policy), region).sorted_indices(),
            want,
            "{context}: voronoi {policy:?}"
        );
    }
}

#[test]
fn donut_region() {
    let points = generate(4_000, Distribution::Uniform, 91);
    let engine = AreaQueryEngine::build(&points);
    let region = Region::new(square(0.5, 0.5, 0.35), vec![square(0.5, 0.5, 0.15)]);
    check(&engine, &region, "donut");
    // The hole actually excludes points: the full square finds more.
    let full = run(&engine, QuerySpec::brute_force(), &square(0.5, 0.5, 0.35));
    let donut = run(&engine, QuerySpec::brute_force(), &region);
    assert!(donut.indices.len() < full.indices.len());
}

#[test]
fn multi_hole_region() {
    let points = generate(5_000, Distribution::Uniform, 92);
    let engine = AreaQueryEngine::build(&points);
    let region = Region::new(
        square(0.5, 0.5, 0.45),
        vec![
            square(0.3, 0.3, 0.08),
            square(0.7, 0.3, 0.08),
            square(0.3, 0.7, 0.08),
            square(0.7, 0.7, 0.08),
        ],
    );
    check(&engine, &region, "four holes");
}

#[test]
fn concave_outer_with_hole() {
    let points = generate(4_000, Distribution::Uniform, 93);
    let engine = AreaQueryEngine::build(&points);
    let outer = Polygon::new(vec![
        p(0.1, 0.1),
        p(0.9, 0.15),
        p(0.85, 0.5),
        p(0.6, 0.45), // concave notch
        p(0.7, 0.85),
        p(0.15, 0.8),
    ])
    .unwrap();
    let region = Region::new(outer, vec![square(0.35, 0.4, 0.1)]);
    check(&engine, &region, "concave outer");
}

#[test]
fn hole_dominating_the_outer_ring() {
    // A thin ring: hole covers 96 % of the outer square's width — the
    // interior-point probe must land in the rim.
    let points = generate(6_000, Distribution::Uniform, 94);
    let engine = AreaQueryEngine::build(&points);
    let region = Region::new(square(0.5, 0.5, 0.45), vec![square(0.5, 0.5, 0.43)]);
    check(&engine, &region, "thin ring");
}

#[test]
fn region_with_clustered_data() {
    let points = generate(
        5_000,
        Distribution::Clustered {
            clusters: 6,
            sigma: 0.05,
        },
        95,
    );
    let engine = AreaQueryEngine::build(&points);
    let region = Region::new(square(0.5, 0.5, 0.4), vec![square(0.45, 0.55, 0.12)]);
    check(&engine, &region, "clustered donut");
}

#[test]
fn region_candidates_still_undercut_mbr() {
    // The paper's headline extends to regions: a donut's result is far
    // smaller than its MBR population, and the Voronoi candidates track
    // the result, not the MBR.
    let points = generate(20_000, Distribution::Uniform, 96);
    let engine = AreaQueryEngine::build(&points);
    let region = Region::new(square(0.5, 0.5, 0.4), vec![square(0.5, 0.5, 0.25)]);
    let trad = run(&engine, QuerySpec::traditional(), &region);
    let voro = run(&engine, QuerySpec::voronoi(), &region);
    assert_eq!(trad.sorted_indices(), voro.sorted_indices());
    assert!(
        voro.stats.candidates < trad.stats.candidates * 7 / 10,
        "voronoi {} vs traditional {}",
        voro.stats.candidates,
        trad.stats.candidates
    );
}
