//! Side-by-side comparison of every method configuration on one dataset:
//! the full `QuerySpec` grid — methods, expansion policies, prepare
//! modes — and timing, over a sweep of query sizes. A miniature of the
//! paper's evaluation you can run in seconds.
//!
//! ```text
//! cargo run --release --example compare_methods
//! ```

use std::time::Instant;
use voronoi_area_query::core::{AreaQueryEngine, ExpansionPolicy, PrepareMode, QuerySpec};
use voronoi_area_query::workload::{
    generate, random_query_polygon, unit_space, Distribution, PolygonSpec,
};

fn main() {
    const N: usize = 100_000;
    const REPS: u64 = 50;

    let points = generate(N, Distribution::Uniform, 99);
    let engine = AreaQueryEngine::build(&points);
    let mut session = engine.session();
    let space = unit_space();

    println!("dataset: {N} uniform points; {REPS} random 10-gon queries per size\n");
    println!(
        "{:<10} {:>10} {:>14} {:>14} {:>12} {:>12}",
        "query size", "result", "trad cand", "voro cand", "trad µs", "voro µs"
    );

    let trad = QuerySpec::traditional();
    let voro = QuerySpec::voronoi();
    for qs in [0.01, 0.04, 0.16] {
        let spec = PolygonSpec::with_query_size(qs);
        let mut result = 0usize;
        let mut trad_cand = 0usize;
        let mut voro_cand = 0usize;
        let mut trad_us = 0.0;
        let mut voro_us = 0.0;
        for rep in 0..REPS {
            let poly = random_query_polygon(&space, &spec, 1000 + rep);

            let t = Instant::now();
            let rt = session.execute(&trad, &poly);
            trad_us += t.elapsed().as_secs_f64() * 1e6;

            let t = Instant::now();
            let rv = session.execute(&voro, &poly);
            voro_us += t.elapsed().as_secs_f64() * 1e6;

            let rt = rt.result().expect("collect output");
            let rv = rv.result().expect("collect output");
            assert_eq!(rt.sorted_indices(), rv.sorted_indices());
            result += rt.stats.result_size;
            trad_cand += rt.stats.candidates;
            voro_cand += rv.stats.candidates;
        }
        let k = REPS as f64;
        println!(
            "{:<10} {:>10.1} {:>14.1} {:>14.1} {:>12.1} {:>12.1}",
            format!("{}%", qs * 100.0),
            result as f64 / k,
            trad_cand as f64 / k,
            voro_cand as f64 / k,
            trad_us / k,
            voro_us / k
        );
    }

    // One polygon, the whole spec grid: all cells must agree.
    let poly = random_query_polygon(&space, &PolygonSpec::with_query_size(0.02), 7777);
    let reference = session
        .execute(&trad, &poly)
        .result()
        .expect("collect output")
        .sorted_indices();
    println!(
        "\nagreement check on a 2% query ({} results):",
        reference.len()
    );
    let brute = session.execute(&QuerySpec::brute_force(), &poly);
    let r = brute.result().expect("collect output");
    assert_eq!(r.sorted_indices(), reference);
    println!(
        "  {:24} ok ({} candidates)",
        "brute force", r.stats.candidates
    );
    for (name, policy) in [
        ("voronoi/segment", ExpansionPolicy::Segment),
        ("voronoi/cell", ExpansionPolicy::Cell),
    ] {
        let out = session.execute(&voro.policy(policy), &poly);
        let r = out.result().expect("collect output");
        assert_eq!(r.sorted_indices(), reference);
        println!(
            "  {name:24} ok ({} candidates, {} segment tests, {} cell tests)",
            r.stats.candidates, r.stats.segment_tests, r.stats.cell_tests
        );
    }
    // Prepared modes answer bit-identically; Cached amortises the
    // preparation across repeats (watch the hit counter).
    for prepare in [PrepareMode::PrepareOnce, PrepareMode::Cached] {
        let out = session.execute(&voro.prepare(prepare), &poly);
        let r = out.result().expect("collect output");
        assert_eq!(r.sorted_indices(), reference);
        println!(
            "  {:24} ok (cache {}h/{}m)",
            format!("voronoi/{prepare:?}"),
            out.stats().prepared_cache.hits,
            out.stats().prepared_cache.misses,
        );
    }
    let again = session.execute(&voro.prepare(PrepareMode::Cached), &poly);
    assert_eq!(again.stats().prepared_cache.hits, 1);
    println!(
        "  repeated cached query     ok (session cache: {} hits, {} misses)",
        session.cache_counters().hits,
        session.cache_counters().misses
    );
}
