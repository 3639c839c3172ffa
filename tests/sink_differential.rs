//! Differential suite for the result-sink layer: **every sink × every
//! execution path** against a brute-force oracle.
//!
//! Paths: plain session, work-stealing batch, dynamic (under interleaved
//! insert / remove / compact) and sharded `S ∈ {1, 3, 8}` (single and
//! batch). Sinks: collect, count, kNN-within-area (including
//! `k = 0`, `k ≥ matches`, and exact tie-distance cases) and payload
//! materialisation (per-shard record stores split from one logical store,
//! checksums bit-identical to the unsharded engine). Plus the
//! stats-conservation audit: per-shard counters sum to the merged
//! counters, and the one-shot prepared-cache traffic is reported once,
//! not once per shard.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use voronoi_area_query::core::{
    AreaQueryEngine, DynamicAreaQueryEngine, OutputMode, PrepareMode, QueryArea, QueryMethod,
    QuerySpec, ShardedAreaQueryEngine,
};
use voronoi_area_query::geom::{Point, Polygon, Rect};
use voronoi_area_query::workload::{
    generate, random_query_polygon, unit_space, Distribution, PolygonSpec,
};

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

const PAYLOAD: usize = 256;

fn dist_sq(origin: Point, q: Point) -> f64 {
    let dx = q.x - origin.x;
    let dy = q.y - origin.y;
    dx * dx + dy * dy
}

/// kNN oracle over an arbitrary live set: ascending `(dist_sq, id)`,
/// first `k`.
fn knn_oracle<I: Copy + Ord>(
    live: &[(I, Point)],
    area: &dyn QueryArea,
    origin: Point,
    k: usize,
) -> Vec<(I, f64)> {
    let mut matches: Vec<(I, f64)> = live
        .iter()
        .filter(|(_, q)| area.contains(*q))
        .map(|&(id, q)| (id, dist_sq(origin, q)))
        .collect();
    matches.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    matches.truncate(k);
    matches
}

fn sorted_matches(live: &[(u32, Point)], area: &dyn QueryArea) -> Vec<u32> {
    let mut v: Vec<u32> = live
        .iter()
        .filter(|(_, q)| area.contains(*q))
        .map(|&(id, _)| id)
        .collect();
    v.sort_unstable();
    v
}

fn indexed(points: &[Point]) -> Vec<(u32, Point)> {
    points
        .iter()
        .enumerate()
        .map(|(i, &q)| (i as u32, q))
        .collect()
}

fn test_areas() -> Vec<Box<dyn QueryArea + Sync>> {
    let space = unit_space();
    let mut areas: Vec<Box<dyn QueryArea + Sync>> = Vec::new();
    for seed in 0..3u64 {
        areas.push(Box::new(random_query_polygon(
            &space,
            &PolygonSpec::with_query_size(0.04 + 0.05 * seed as f64),
            9100 + seed,
        )));
    }
    areas.push(Box::new(Rect::new(p(0.2, 0.25), p(0.65, 0.6))));
    areas.push(Box::new(Rect::new(p(2.0, 2.0), p(3.0, 3.0)))); // empty answer
    areas
}

/// Every sink on the plain session path agrees with the oracle, for
/// every method, including k-edge cases and the materialisation
/// checksum identity (collect checksum + per-result record reads).
#[test]
fn plain_sinks_agree_with_oracle() {
    let pts = generate(700, Distribution::Uniform, 0x51CC);
    let engine = AreaQueryEngine::builder(&pts)
        .payload_bytes(PAYLOAD)
        .build();
    let store = engine.record_store().expect("payload attached");
    let live = indexed(&pts);
    let origin = p(0.45, 0.55);
    for (ai, area) in test_areas().iter().enumerate() {
        let area: &dyn QueryArea = area.as_ref();
        let want = sorted_matches(&live, area);
        for method in [
            QueryMethod::Voronoi,
            QueryMethod::Traditional,
            QueryMethod::BruteForce,
        ] {
            let base = QuerySpec::new().method(method);
            let collected = engine.execute(&base, area);
            assert_eq!(
                collected.result().unwrap().sorted_indices(),
                want,
                "area {ai} {method:?} collect"
            );
            let counted = engine.execute(&base.output(OutputMode::Count), area);
            assert_eq!(counted.count(), want.len(), "area {ai} {method:?} count");

            for k in [0usize, 1, 5, want.len(), want.len() + 7] {
                let spec = base.output(OutputMode::TopKNearest { k, origin });
                let out = engine.execute(&spec, area);
                let got: Vec<(u32, f64)> = out
                    .neighbors()
                    .unwrap()
                    .iter()
                    .map(|n| (n.id, n.dist_sq))
                    .collect();
                assert_eq!(
                    got,
                    knn_oracle(&live, area, origin, k),
                    "area {ai} {method:?} knn k={k}"
                );
                assert_eq!(out.stats().result_size, got.len());
            }

            let materialized = engine.execute(&base.output(OutputMode::Materialize), area);
            let r = materialized.result().unwrap();
            assert_eq!(r.sorted_indices(), want, "area {ai} {method:?} materialize");
            let extra: u64 = r
                .indices
                .iter()
                .fold(0u64, |acc, &i| acc.wrapping_add(store.read(i)));
            assert_eq!(
                r.stats.payload_checksum,
                collected.stats().payload_checksum.wrapping_add(extra),
                "area {ai} {method:?}: materialisation reads exactly the accepted records"
            );
        }
    }
}

/// The work-stealing batch matches the per-query path for the new sinks,
/// for every thread count.
#[test]
fn batch_sinks_match_single_queries() {
    let pts = generate(900, Distribution::Uniform, 0xBA7C5);
    let engine = AreaQueryEngine::builder(&pts)
        .payload_bytes(PAYLOAD)
        .build();
    let space = unit_space();
    let areas: Vec<Polygon> = (0..8)
        .map(|i| {
            let qs = if i % 3 == 0 { 0.15 } else { 0.02 };
            random_query_polygon(&space, &PolygonSpec::with_query_size(qs), 7200 + i)
        })
        .collect();
    let origin = p(0.5, 0.5);
    for spec in [
        QuerySpec::new().output(OutputMode::TopKNearest { k: 4, origin }),
        QuerySpec::new().output(OutputMode::Materialize),
        QuerySpec::traditional().output(OutputMode::TopKNearest { k: 9, origin }),
        QuerySpec::new()
            .prepare(PrepareMode::Cached)
            .output(OutputMode::Materialize),
    ] {
        let single: Vec<_> = areas.iter().map(|a| engine.execute(&spec, a)).collect();
        for threads in [1usize, 2, 7] {
            let batch = engine.execute_batch(&spec, &areas, threads);
            assert_eq!(batch.len(), single.len());
            for (i, (got, want)) in batch.iter().zip(&single).enumerate() {
                assert_eq!(got.count(), want.count(), "query {i}, threads={threads}");
                match (got.neighbors(), want.neighbors()) {
                    (Some(a), Some(b)) => assert_eq!(a, b, "query {i}, threads={threads}"),
                    (None, None) => {
                        let (ra, rb) = (got.result().unwrap(), want.result().unwrap());
                        assert_eq!(ra.indices, rb.indices, "query {i}, threads={threads}");
                        assert_eq!(
                            ra.stats.payload_checksum, rb.stats.payload_checksum,
                            "query {i}, threads={threads}"
                        );
                    }
                    _ => panic!("output shapes diverged on query {i}"),
                }
            }
        }
    }
}

/// Every sink on the sharded engine (single and batch path, S ∈ {1,3,8})
/// is bit-identical to the unsharded engine — including the payload
/// checksums, which flow through per-shard record stores split from one
/// logical store.
#[test]
fn sharded_sinks_match_unsharded_across_shard_counts() {
    let pts = generate(800, Distribution::Uniform, 0x5AAAD);
    let single = AreaQueryEngine::builder(&pts)
        .payload_bytes(PAYLOAD)
        .build();
    let live = indexed(&pts);
    let origin = p(0.35, 0.6);
    let space = unit_space();
    let areas: Vec<Polygon> = (0..5)
        .map(|i| random_query_polygon(&space, &PolygonSpec::with_query_size(0.05), 880 + i))
        .collect();
    for shards in [1usize, 3, 8] {
        let sharded = AreaQueryEngine::builder(&pts)
            .payload_bytes(PAYLOAD)
            .build_sharded(shards);
        assert_eq!(sharded.shard_count(), shards);
        for (ai, area) in areas.iter().enumerate() {
            let want = sorted_matches(&live, area);
            let ctx = format!("S={shards} area {ai}");

            for k in [0usize, 3, want.len() + 5] {
                let spec = QuerySpec::new().output(OutputMode::TopKNearest { k, origin });
                let got = sharded.execute(&spec, area);
                let knn: Vec<(u32, f64)> =
                    got.neighbors.iter().map(|n| (n.id, n.dist_sq)).collect();
                assert_eq!(knn, knn_oracle(&live, area, origin, k), "{ctx} knn k={k}");
                assert_eq!(got.count, knn.len(), "{ctx} knn count");
                let single_out = single.execute(&spec, area);
                assert_eq!(
                    got.neighbors.as_slice(),
                    single_out.neighbors().unwrap(),
                    "{ctx} knn vs unsharded"
                );
            }

            // Materialisation: the accepted set is identical, and the
            // per-shard stores hold byte-identical records, so the
            // *materialisation* reads (materialize − collect checksum
            // delta) match the unsharded engine exactly. Validation
            // reads are compared per method below: the traditional and
            // brute-force candidate sets partition across shards (full
            // checksum equality); the Voronoi BFS validates per-shard
            // boundary rings, so only its delta is comparable.
            for method in [
                QueryMethod::Voronoi,
                QueryMethod::Traditional,
                QueryMethod::BruteForce,
            ] {
                let base = QuerySpec::new().method(method);
                let mat_spec = base.output(OutputMode::Materialize);
                let got = sharded.execute(&mat_spec, area);
                assert_eq!(got.indices, want, "{ctx} {method:?} materialize indices");
                let got_delta = got
                    .stats
                    .payload_checksum
                    .wrapping_sub(sharded.execute(&base, area).stats.payload_checksum);
                let single_mat = single.execute(&mat_spec, area);
                let want_delta = single_mat
                    .stats()
                    .payload_checksum
                    .wrapping_sub(single.execute(&base, area).stats().payload_checksum);
                assert_eq!(
                    got_delta, want_delta,
                    "{ctx} {method:?}: materialisation reads are store-identical"
                );
            }
        }

        // On an area covering the whole data extent nothing is pruned
        // and the brute-force candidate set partitions exactly across
        // shards: validation + materialisation checksums match the
        // unsharded engine bit for bit — the strongest statement that
        // the split stores hold byte-identical records.
        let whole = Rect::new(p(-0.5, -0.5), p(1.5, 1.5));
        let spec = QuerySpec::brute_force().output(OutputMode::Materialize);
        let got = sharded.execute(&spec, &whole);
        assert_eq!(got.stats.shards_pruned, 0, "S={shards}");
        assert_eq!(
            got.stats.payload_checksum,
            single.execute(&spec, &whole).stats().payload_checksum,
            "S={shards}: full-coverage brute force sums every record identically"
        );

        // The batch path agrees with the single path for both new sinks.
        for spec in [
            QuerySpec::new().output(OutputMode::TopKNearest { k: 6, origin }),
            QuerySpec::new().output(OutputMode::Materialize),
        ] {
            let one_by_one: Vec<_> = areas.iter().map(|a| sharded.execute(&spec, a)).collect();
            for threads in [1usize, 2, 8] {
                let outs = sharded.execute_batch(&spec, &areas, threads);
                for (i, (got, want)) in outs.iter().zip(&one_by_one).enumerate() {
                    let ctx = format!("S={shards} area {i} threads={threads}");
                    assert_eq!(got.indices, want.indices, "{ctx}");
                    assert_eq!(got.neighbors, want.neighbors, "{ctx}");
                    assert_eq!(got.count, want.count, "{ctx}");
                    assert_eq!(
                        got.stats.payload_checksum, want.stats.payload_checksum,
                        "{ctx}"
                    );
                }
            }
        }
    }
}

/// Exact distance ties: symmetric points at binary-exact coordinates
/// produce bit-equal `dist_sq`; the tie must break by ascending index on
/// every path (the plain engine, every shard count, and the dynamic
/// engine with its external ids).
#[test]
fn knn_tie_distances_break_by_id_on_every_path() {
    // A 5×5 grid at multiples of 0.25: distances to the exact centre
    // (0.5, 0.5) collide in groups (4 at 0.25², 4 at 0.25²·2, …).
    let mut pts = Vec::new();
    for i in 0..5 {
        for j in 0..5 {
            pts.push(p(f64::from(i) * 0.25, f64::from(j) * 0.25));
        }
    }
    let live = indexed(&pts);
    let origin = p(0.5, 0.5);
    let area = Rect::new(p(-0.1, -0.1), p(1.1, 1.1));
    let single = AreaQueryEngine::build(&pts);
    // k = 3 cuts through the first tie group (centre + 4 equidistant
    // orthogonal neighbours): the two smallest-id neighbours win.
    for k in [1usize, 3, 6, 25] {
        let want = knn_oracle(&live, &area, origin, k);
        let spec = QuerySpec::new().output(OutputMode::TopKNearest { k, origin });
        let got: Vec<(u32, f64)> = single
            .execute(&spec, &area)
            .neighbors()
            .unwrap()
            .iter()
            .map(|n| (n.id, n.dist_sq))
            .collect();
        assert_eq!(got, want, "plain k={k}");
        for shards in [1usize, 3, 8] {
            let sharded = ShardedAreaQueryEngine::build(&pts, shards);
            let got: Vec<(u32, f64)> = sharded
                .execute(&spec, &area)
                .neighbors
                .iter()
                .map(|n| (n.id, n.dist_sq))
                .collect();
            assert_eq!(got, want, "S={shards} k={k}");
        }
        // Dynamic: same points, external ids == input indices.
        let mut dynamic = DynamicAreaQueryEngine::new(&pts);
        let got: Vec<(u64, f64)> = dynamic
            .execute(&spec, &area)
            .neighbors
            .iter()
            .map(|n| (n.id, n.dist_sq))
            .collect();
        let want64: Vec<(u64, f64)> = want.iter().map(|&(id, d)| (u64::from(id), d)).collect();
        assert_eq!(got, want64, "dynamic k={k}");
    }
}

/// Every sink on the dynamic engine agrees with a live-set oracle under
/// interleaved insert / remove / compact, over three seeded runs.
/// Tombstoned points must never occupy kNN slots.
#[test]
fn dynamic_sinks_agree_under_interleaved_updates() {
    for run in [1u64, 3, 8] {
        let mut rng = StdRng::seed_from_u64(0xD15C ^ run);
        let initial = generate(220, Distribution::Uniform, 0xF00 + run);
        let mut flat = DynamicAreaQueryEngine::new(&initial);
        let mut live: Vec<(u64, Point)> = initial
            .iter()
            .enumerate()
            .map(|(i, &q)| (i as u64, q))
            .collect();
        let origin = p(0.5, 0.5);
        for step in 0..120 {
            match rng.gen_range(0..10) {
                0..=3 => {
                    let q = p(rng.gen::<f64>() * 1.2 - 0.1, rng.gen::<f64>() * 1.2 - 0.1);
                    live.push((flat.insert(q), q));
                }
                4..=5 => {
                    if !live.is_empty() {
                        let (id, _) = live[rng.gen_range(0..live.len())];
                        assert!(flat.remove(id));
                        live.retain(|&(i, _)| i != id);
                    }
                }
                6 => {
                    flat.maybe_compact();
                }
                _ => {
                    let half = 0.08 + rng.gen::<f64>() * 0.3;
                    let c = p(rng.gen(), rng.gen());
                    let area = Rect::new(p(c.x - half, c.y - half), p(c.x + half, c.y + half));
                    let want_ids: Vec<u64> = {
                        let mut v: Vec<u64> = live
                            .iter()
                            .filter(|(_, q)| area.contains(*q))
                            .map(|&(id, _)| id)
                            .collect();
                        v.sort_unstable();
                        v
                    };
                    let ctx = format!("run {run} step {step}");
                    // Collect.
                    let flat_out = flat.execute(&QuerySpec::new(), &area);
                    assert_eq!(flat_out.ids, want_ids, "{ctx} flat collect");
                    // Count: no ids materialised, count in result_size.
                    let count_spec = QuerySpec::new().output(OutputMode::Count);
                    let flat_count = flat.execute(&count_spec, &area);
                    assert!(flat_count.ids.is_empty(), "{ctx}");
                    assert_eq!(flat_count.stats.result_size, want_ids.len(), "{ctx}");
                    // kNN, including k = 0 and k >= matches.
                    for k in [0usize, 2, want_ids.len() + 3] {
                        let spec = QuerySpec::new().output(OutputMode::TopKNearest { k, origin });
                        let want = knn_oracle(&live, &area, origin, k);
                        let out = flat.execute(&spec, &area);
                        let got: Vec<(u64, f64)> =
                            out.neighbors.iter().map(|n| (n.id, n.dist_sq)).collect();
                        assert_eq!(got, want, "{ctx} flat knn k={k}");
                        let mut ids: Vec<u64> = want.iter().map(|&(id, _)| id).collect();
                        ids.sort_unstable();
                        assert_eq!(out.ids, ids, "{ctx} flat knn ids k={k}");
                    }
                    // Materialise: dynamic bases carry no record store, so
                    // it degrades to collection with a zero checksum.
                    let mat =
                        flat.execute(&QuerySpec::new().output(OutputMode::Materialize), &area);
                    assert_eq!(mat.ids, want_ids, "{ctx} flat materialize");
                    assert_eq!(mat.stats.payload_checksum, 0, "{ctx}");
                }
            }
        }
    }
}

/// Stats conservation: for both new sinks, the per-shard breakdown
/// counters sum exactly to the merged counters (the `maybe_compact`
/// double-count class of bug), and the one-shot prepared-cache traffic
/// is reported once at the merge level — never once per shard.
#[test]
fn sharded_stats_conserve_for_new_sinks() {
    let pts = generate(600, Distribution::Uniform, 0xC0157);
    let sharded = AreaQueryEngine::builder(&pts)
        .payload_bytes(PAYLOAD)
        .build_sharded(5);
    let area = random_query_polygon(&unit_space(), &PolygonSpec::with_query_size(0.2), 4242);
    let origin = p(0.5, 0.5);
    for (name, output) in [
        ("knn", OutputMode::TopKNearest { k: 7, origin }),
        ("materialize", OutputMode::Materialize),
    ] {
        for prepare in [PrepareMode::Raw, PrepareMode::Cached] {
            let spec = QuerySpec::new().output(output).prepare(prepare);
            let out = sharded.execute(&spec, &area);
            assert!(
                out.stats.shards_visited >= 2,
                "{name}: a 20%-size area must hit several shards"
            );
            let mut sum = voronoi_area_query::core::QueryStats::default();
            for b in &out.breakdown {
                assert_eq!(
                    b.stats.prepared_cache,
                    Default::default(),
                    "{name} {prepare:?}: shard-level stats must not carry \
the one-shot preparation (double-count audit)"
                );
                sum.absorb_shard(&b.stats);
            }
            let mut merged = out.stats;
            // Fields owned by the merge level, not the shards: visit
            // accounting, the one-shot cache traffic, and the final
            // result size (a bounded sink keeps fewer than the shards
            // emitted; collect-shaped sinks keep exactly the sum).
            merged.shards_visited = 0;
            merged.shards_pruned = 0;
            merged.prepared_cache = Default::default();
            if name == "materialize" {
                assert_eq!(merged.result_size, sum.result_size, "{name} {prepare:?}");
            }
            merged.result_size = sum.result_size;
            assert_eq!(merged, sum, "{name} {prepare:?}: per-shard counters sum");
            let expected_cache = if prepare == PrepareMode::Cached {
                voronoi_area_query::core::CacheCounters { hits: 0, misses: 1 }
            } else {
                Default::default()
            };
            assert_eq!(
                out.stats.prepared_cache, expected_cache,
                "{name} {prepare:?}"
            );
        }
    }
}

/// `shards = 0` auto-tunes to the machine's available parallelism —
/// first step of the shard-count auto-tuning roadmap item.
#[test]
fn zero_shards_auto_tunes_to_available_parallelism() {
    let pts = generate(300, Distribution::Uniform, 0xA070);
    let auto = ShardedAreaQueryEngine::build(&pts, 0);
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    assert_eq!(auto.shard_count(), hw.min(pts.len()));
    // Auto-tuned engines answer exactly like explicit ones.
    let explicit = ShardedAreaQueryEngine::build(&pts, hw);
    let area = Rect::new(p(0.2, 0.2), p(0.7, 0.8));
    assert_eq!(
        auto.execute(&QuerySpec::new(), &area).indices,
        explicit.execute(&QuerySpec::new(), &area).indices
    );
    // The builder's sharded build accepts it too.
    let auto_payload = AreaQueryEngine::builder(&pts)
        .payload_bytes(64)
        .build_sharded(0);
    assert_eq!(auto_payload.shard_count(), hw.min(pts.len()));
}
