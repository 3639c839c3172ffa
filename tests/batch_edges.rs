//! Batch-executor edge cases: empty batches, more workers than work,
//! single-worker runs, and thread-count invariance with per-counter
//! stats conservation — on both the single-engine and sharded batch
//! paths. A session and the dynamic engine are the executor's one-area
//! case, so they must answer exactly as a one-area batch does.
//!
//! These tests stress the work-stealing claim loop (`sync::par_map`)
//! end to end with real queries; its own unit tests in `sync.rs` check
//! index order and one call per item on skewed work.

use voronoi_area_query::core::{
    AreaQueryEngine, DynamicAreaQueryEngine, ExpansionPolicy, MethodChoice, OutputMode,
    PrepareMode, QueryMethod, QuerySpec, QueryStats, ShardedAreaQueryEngine,
};
use voronoi_area_query::geom::{Point, Polygon, Rect};
use voronoi_area_query::workload::{
    generate, random_query_polygon, unit_space, Distribution, PolygonSpec,
};

/// A deterministic 12×12 jittered grid.
fn points() -> Vec<Point> {
    (0..144)
        .map(|i| {
            let x = f64::from(i % 12) / 12.0 + 0.03 + f64::from(i % 7) * 1e-3;
            let y = f64::from(i / 12) / 12.0 + 0.04 + f64::from(i % 5) * 1e-3;
            Point::new(x, y)
        })
        .collect()
}

/// A batch of overlapping windows of assorted sizes (some repeated, so
/// the cached-prepare path sees hits as well as misses).
fn areas() -> Vec<Rect> {
    let mut v: Vec<Rect> = (0..9)
        .map(|i| {
            let lo = f64::from(i) * 0.06;
            Rect::new(
                Point::new(lo, lo * 0.5),
                Point::new(lo + 0.4, lo * 0.5 + 0.35),
            )
        })
        .collect();
    v.push(v[0]);
    v.push(v[4]);
    v
}

fn specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec::voronoi(),
        QuerySpec::voronoi().prepare(PrepareMode::Cached),
        QuerySpec::new().method(MethodChoice::Auto),
    ]
}

/// `(sorted indices, stats)` per area — everything a batch output
/// promises to keep independent of the thread count.
fn fingerprint(outs: &[voronoi_area_query::core::QueryOutput]) -> Vec<(Vec<u32>, QueryStats)> {
    outs.iter()
        .map(|o| {
            let r = o.result().expect("collect-shaped query");
            (r.sorted_indices(), *o.stats())
        })
        .collect()
}

#[test]
fn empty_batch_yields_no_outputs_on_any_worker_count() {
    let engine = AreaQueryEngine::build(&points());
    let none: &[Rect] = &[];
    for spec in specs() {
        for threads in [0, 1, 8] {
            assert!(engine.execute_batch(&spec, none, threads).is_empty());
        }
    }
    let sharded = ShardedAreaQueryEngine::build(&points(), 3);
    for spec in specs() {
        for threads in [0, 1, 8] {
            assert!(sharded.execute_batch(&spec, none, threads).is_empty());
        }
    }
}

#[test]
fn more_workers_than_areas_claims_each_area_exactly_once() {
    let engine = AreaQueryEngine::build(&points());
    let areas = &areas()[..3];
    for spec in specs() {
        let one = fingerprint(&engine.execute_batch(&spec, areas, 1));
        let many = fingerprint(&engine.execute_batch(&spec, areas, 16));
        assert_eq!(one.len(), 3);
        assert_eq!(one, many, "idle workers must not perturb outputs");
    }
}

#[test]
fn single_worker_batch_matches_the_inline_session() {
    let engine = AreaQueryEngine::build(&points());
    let areas = areas();
    let spec = QuerySpec::voronoi();
    let batch = fingerprint(&engine.execute_batch(&spec, &areas, 1));
    let mut session = engine.session();
    for (area, (got_indices, _)) in areas.iter().zip(&batch) {
        let inline = session.execute(&spec, area);
        let r = inline.result().expect("collect-shaped query");
        assert_eq!(&r.sorted_indices(), got_indices);
    }
}

#[test]
fn thread_count_never_changes_results_or_stats() {
    let engine = AreaQueryEngine::build(&points());
    let areas = areas();
    for spec in specs() {
        let baseline = fingerprint(&engine.execute_batch(&spec, &areas, 1));
        assert_eq!(baseline.len(), areas.len());
        for threads in [2, 3, 8] {
            let run = fingerprint(&engine.execute_batch(&spec, &areas, threads));
            assert_eq!(
                baseline, run,
                "indices and every stats counter must be bit-identical at {threads} threads"
            );
        }
        // Conservation within each output: the counters describe one
        // consistent query, however many workers raced to claim it.
        for (indices, stats) in &baseline {
            assert_eq!(stats.result_size, indices.len());
            assert!(stats.accepted <= stats.candidates);
            assert!(stats.result_size <= stats.candidates);
        }
    }
}

#[test]
fn sharded_batch_is_thread_count_invariant_and_conserves_shard_counters() {
    let areas = areas();
    // One engine for every run: a batch plans with a fresh planner and
    // feeds nothing back, so the engine carries no state from one batch
    // to the next and the auto batches must agree across runs too.
    let sharded = ShardedAreaQueryEngine::build(&points(), 4);
    for spec in specs() {
        let runs: Vec<Vec<(Vec<u32>, QueryStats)>> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                sharded
                    .execute_batch(&spec, &areas, threads)
                    .into_iter()
                    .map(|o| (o.indices.clone(), o.stats))
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "2-thread run diverged from 1-thread");
        assert_eq!(runs[0], runs[2], "8-thread run diverged from 1-thread");
        for (indices, stats) in &runs[0] {
            assert_eq!(stats.result_size, indices.len());
            // Every shard is accounted for: visited or pruned, never both
            // or neither — absorption must conserve the partition.
            assert_eq!(
                stats.shards_visited + stats.shards_pruned,
                4,
                "shard accounting must partition the 4 shards"
            );
        }
    }
}

/// Every explicit spec: 3 methods × 2 policies × 3 prepare modes × 3
/// output shapes.
fn explicit_specs() -> Vec<QuerySpec> {
    let outputs = [
        OutputMode::Collect,
        OutputMode::Count,
        OutputMode::TopKNearest {
            k: 7,
            origin: Point::new(0.5, 0.5),
        },
    ];
    let mut specs = Vec::new();
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
                for output in outputs {
                    specs.push(
                        QuerySpec::new()
                            .method(method)
                            .policy(policy)
                            .prepare(prepare)
                            .output(output),
                    );
                }
            }
        }
    }
    specs
}

/// A fresh session, a one-area batch on one thread and a fresh dynamic
/// engine with an empty overlay answer every explicit spec with the same
/// ids (the session and the batch in the same emission order) and the
/// same stats in every field, cache counters included.
#[test]
fn single_query_paths_agree_on_ids_and_every_stat() {
    let pts = generate(3000, Distribution::Uniform, 23);
    let engine = AreaQueryEngine::build(&pts);
    let areas: Vec<Polygon> = [(10, 0.01), (10, 0.05), (48, 0.02), (48, 0.1)]
        .into_iter()
        .zip(300..)
        .map(|((vertices, query_size), seed)| {
            let shape = PolygonSpec {
                vertices,
                query_size,
                ..PolygonSpec::default()
            };
            random_query_polygon(&unit_space(), &shape, seed)
        })
        .collect();
    for spec in explicit_specs() {
        // The areas are distinct, so each path's cache misses once per
        // area under `Cached`.
        let mut session = engine.session();
        let mut dynamic = DynamicAreaQueryEngine::new(&pts);
        for (i, area) in areas.iter().enumerate() {
            let context = format!("{spec:?}, area {i}");
            let single = session.execute(&spec, area);
            let batch = engine
                .execute_batch(&spec, std::slice::from_ref(area), 1)
                .pop()
                .expect("one output per area");
            assert_eq!(
                single.result().map(|r| &r.indices),
                batch.result().map(|r| &r.indices),
                "{context}"
            );
            assert_eq!(single.neighbors(), batch.neighbors(), "{context}");
            assert_eq!(single.count(), batch.count(), "{context}");
            assert_eq!(single.stats(), batch.stats(), "{context}");

            // The dynamic engine reports external ids (here the input
            // indices) ascending, and its neighbours in the same order.
            let got = dynamic.execute(&spec, area);
            let neighbors = single.neighbors().unwrap_or_default();
            let mut ids: Vec<u64> = (single.result().map_or(&[][..], |r| &r.indices).iter())
                .chain(neighbors.iter().map(|n| &n.id))
                .map(|&id| u64::from(id))
                .collect();
            ids.sort_unstable();
            assert_eq!(got.ids, ids, "{context}");
            assert_eq!(
                got.neighbors
                    .iter()
                    .map(|n| (n.id, n.dist_sq))
                    .collect::<Vec<_>>(),
                neighbors
                    .iter()
                    .map(|n| (u64::from(n.id), n.dist_sq))
                    .collect::<Vec<_>>(),
                "{context}"
            );
            assert_eq!(got.stats, *single.stats(), "{context}");
        }
    }
}
