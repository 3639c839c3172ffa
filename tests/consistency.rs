//! End-to-end consistency: every method configuration must return exactly
//! the set a brute-force scan returns, across distributions, polygon
//! shapes and engine configurations.

use voronoi_area_query::core::{AreaQueryEngine, ExpansionPolicy, QueryResult, QuerySpec};
use voronoi_area_query::geom::{Point, Polygon};
use voronoi_area_query::workload::{
    generate, random_query_polygon, unit_space, Distribution, PolygonSpec,
};

fn run(engine: &AreaQueryEngine, spec: &QuerySpec, area: &Polygon) -> QueryResult {
    engine
        .execute(spec, area)
        .into_result()
        .expect("collect output")
}

fn assert_all_configs_agree(engine: &AreaQueryEngine, area: &Polygon, context: &str) {
    let want = run(engine, &QuerySpec::brute_force(), area).sorted_indices();
    let mut session = engine.session();
    let traditional = session.execute(&QuerySpec::traditional(), area);
    assert_eq!(
        traditional
            .result()
            .expect("collect output")
            .sorted_indices(),
        want,
        "{context}: traditional"
    );
    for policy in [ExpansionPolicy::Segment, ExpansionPolicy::Cell] {
        let voronoi = session.execute(&QuerySpec::voronoi().policy(policy), area);
        assert_eq!(
            voronoi.result().expect("collect output").sorted_indices(),
            want,
            "{context}: voronoi {policy:?}"
        );
    }
}

#[test]
fn all_configurations_agree_on_uniform_data() {
    let points = generate(5_000, Distribution::Uniform, 11);
    let engine = AreaQueryEngine::build(&points);
    let space = unit_space();
    for qs in [0.01, 0.05, 0.2] {
        for seed in 0..5u64 {
            let area = random_query_polygon(&space, &PolygonSpec::with_query_size(qs), 100 + seed);
            assert_all_configs_agree(&engine, &area, &format!("uniform qs={qs} seed={seed}"));
        }
    }
}

#[test]
fn all_configurations_agree_on_clustered_data() {
    let points = generate(
        5_000,
        Distribution::Clustered {
            clusters: 8,
            sigma: 0.02,
        },
        12,
    );
    let engine = AreaQueryEngine::build(&points);
    let space = unit_space();
    for seed in 0..8u64 {
        let area = random_query_polygon(&space, &PolygonSpec::with_query_size(0.03), 200 + seed);
        assert_all_configs_agree(&engine, &area, &format!("clustered seed={seed}"));
    }
}

#[test]
fn all_configurations_agree_on_degenerate_grid_data() {
    // Exact grid: maximal cocircularity in the triangulation, points
    // exactly on polygon edges are possible.
    let points = generate(2_500, Distribution::Grid { jitter: 0.0 }, 13);
    let engine = AreaQueryEngine::build(&points);
    let space = unit_space();
    for seed in 0..8u64 {
        let area = random_query_polygon(&space, &PolygonSpec::with_query_size(0.05), 300 + seed);
        assert_all_configs_agree(&engine, &area, &format!("grid seed={seed}"));
    }
}

#[test]
fn axis_aligned_rectangle_queries_have_zero_waste() {
    // When the query area IS its MBR, the traditional method's candidate
    // set equals the result set — the case the paper concedes to it.
    let points = generate(10_000, Distribution::Uniform, 14);
    let engine = AreaQueryEngine::build(&points);
    let area = Polygon::new(vec![
        Point::new(0.3, 0.3),
        Point::new(0.7, 0.3),
        Point::new(0.7, 0.6),
        Point::new(0.3, 0.6),
    ])
    .unwrap();
    let r = run(&engine, &QuerySpec::traditional(), &area);
    assert_eq!(r.stats.redundant_validations(), 0);
    assert_eq!(
        r.sorted_indices(),
        run(&engine, &QuerySpec::voronoi(), &area).sorted_indices()
    );
}

#[test]
fn spiky_concave_polygons_agree() {
    // Very spiky stars (min radius 5% of max) maximise MBR waste.
    let points = generate(4_000, Distribution::Uniform, 15);
    let engine = AreaQueryEngine::build(&points);
    let space = unit_space();
    for seed in 0..6u64 {
        let spec = PolygonSpec {
            vertices: 10,
            query_size: 0.05,
            min_radius_ratio: 0.05,
        };
        let area = random_query_polygon(&space, &spec, 400 + seed);
        assert_all_configs_agree(&engine, &area, &format!("spiky seed={seed}"));
    }
}

#[test]
fn many_vertex_polygons_agree() {
    // 40-gon query areas (the paper fixes 10; the library must not).
    let points = generate(3_000, Distribution::Uniform, 16);
    let engine = AreaQueryEngine::build(&points);
    let space = unit_space();
    for seed in 0..4u64 {
        let spec = PolygonSpec {
            vertices: 40,
            query_size: 0.08,
            min_radius_ratio: 0.4,
        };
        let area = random_query_polygon(&space, &spec, 500 + seed);
        assert_all_configs_agree(&engine, &area, &format!("40-gon seed={seed}"));
    }
}

#[test]
fn payload_engine_returns_identical_results() {
    let points = generate(3_000, Distribution::Uniform, 17);
    let plain = AreaQueryEngine::build(&points);
    let heavy = AreaQueryEngine::builder(&points).payload_bytes(256).build();
    let space = unit_space();
    for seed in 0..4u64 {
        let area = random_query_polygon(&space, &PolygonSpec::with_query_size(0.04), 600 + seed);
        let a = run(&plain, &QuerySpec::voronoi(), &area);
        let b = run(&heavy, &QuerySpec::voronoi(), &area);
        assert_eq!(a.sorted_indices(), b.sorted_indices());
        assert_eq!(a.stats.candidates, b.stats.candidates);
        assert_eq!(a.stats.payload_checksum, 0, "no records configured");
        assert_ne!(b.stats.payload_checksum, 0, "records were materialised");
        let t = run(&heavy, &QuerySpec::traditional(), &area);
        assert_ne!(t.stats.payload_checksum, 0);
    }
}
