//! Determinism: identical seeds must give identical datasets, polygons,
//! engines, query results and statistics — the property the experiment
//! harness' repeatability rests on.

use voronoi_area_query::core::{AreaQueryEngine, ExpansionPolicy, QuerySpec};
use voronoi_area_query::workload::{
    build_engine, generate, random_query_polygon, run_config, unit_space, Distribution,
    PolygonSpec, SweepConfig,
};

#[test]
fn datasets_and_polygons_are_seed_deterministic() {
    for dist in [
        Distribution::Uniform,
        Distribution::Clustered {
            clusters: 5,
            sigma: 0.05,
        },
        Distribution::Grid { jitter: 0.3 },
    ] {
        let a = generate(1_000, dist, 77);
        let b = generate(1_000, dist, 77);
        assert_eq!(a, b, "{dist:?}");
    }
    let space = unit_space();
    let spec = PolygonSpec::with_query_size(0.02);
    assert_eq!(
        random_query_polygon(&space, &spec, 5).vertices(),
        random_query_polygon(&space, &spec, 5).vertices()
    );
}

#[test]
fn rebuilt_engines_answer_identically() {
    let points = generate(4_000, Distribution::Uniform, 21);
    let e1 = AreaQueryEngine::build(&points);
    let e2 = AreaQueryEngine::build(&points);
    let space = unit_space();
    let (mut s1, mut s2) = (e1.session(), e2.session());
    let voronoi = QuerySpec::voronoi().policy(ExpansionPolicy::Segment);
    for seed in 0..6u64 {
        let area = random_query_polygon(&space, &PolygonSpec::with_query_size(0.03), seed);
        let t1 = s1.execute(&QuerySpec::traditional(), &area);
        let t2 = s2.execute(&QuerySpec::traditional(), &area);
        // Not just the same set: the same traversal order and stats.
        assert_eq!(t1.result().unwrap().indices, t2.result().unwrap().indices);
        assert_eq!(t1.stats(), t2.stats());
        let v1 = s1.execute(&voronoi, &area);
        let v2 = s2.execute(&voronoi, &area);
        assert_eq!(
            v1.result().unwrap().indices,
            v2.result().unwrap().indices,
            "BFS discovery order is stable"
        );
        assert_eq!(v1.stats(), v2.stats());
    }
}

#[test]
fn repeated_queries_on_one_engine_are_stable() {
    // Scratch reuse must not leak state between queries.
    let points = generate(3_000, Distribution::Uniform, 22);
    let engine = AreaQueryEngine::build(&points);
    let mut session = engine.session();
    let spec = QuerySpec::voronoi().policy(ExpansionPolicy::Segment);
    let space = unit_space();
    let areas: Vec<_> = (0..5u64)
        .map(|s| random_query_polygon(&space, &PolygonSpec::with_query_size(0.05), s))
        .collect();
    let mut run = |area| session.execute(&spec, area).into_result().unwrap().indices;
    let first: Vec<_> = areas.iter().map(&mut run).collect();
    // Run the same queries again, interleaved in reverse order.
    for (area, want) in areas.iter().zip(&first).rev() {
        assert_eq!(&run(area), want);
    }
}

#[test]
fn experiment_statistics_are_reproducible() {
    let cfg = SweepConfig {
        reps: 10,
        ..SweepConfig::default()
    };
    let engine = build_engine(2_000, &cfg);
    let a = run_config(&engine, 0.02, &cfg);
    let b = run_config(&engine, 0.02, &cfg);
    // All counted statistics are bit-identical; only times may differ.
    assert_eq!(a.result_size, b.result_size);
    assert_eq!(a.traditional.candidates, b.traditional.candidates);
    assert_eq!(a.traditional.redundant, b.traditional.redundant);
    assert_eq!(a.voronoi.candidates, b.voronoi.candidates);
    assert_eq!(a.voronoi.redundant, b.voronoi.redundant);
}
