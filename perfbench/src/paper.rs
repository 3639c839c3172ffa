//! `paper-1e6`: the paper's Table I setting at its largest size. 10⁶
//! uniform points; 10-vertex irregular polygons at 1 % query size through
//! one `QuerySession` with `QuerySpec::voronoi()`; one closed-loop client.
//!
//! Nearly all work is the Delaunay build (set-up), seed location, BFS
//! expansion and containment predicates. The prepared-area cache, the
//! planner, hidden sites, the delta overlay, shards and batches are
//! bypassed. Answers are checked against `QuerySpec::traditional()`.

use crate::common::{
    finish, mix, overhead, provenance, timed_builds, write_spans, ColdStart, Executed, IdHash,
    Latencies, PlainTarget, Replay, Round, Rounds,
};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};
use std::path::Path;
use std::time::Instant;
use vaq_core::snapshot::{load_engine, save_engine};
use vaq_core::{AreaQueryEngine, PlannedPath, QuerySession, QuerySpec, QueryStats};
use vaq_delaunay::Triangulation;
use vaq_geom::Polygon;
use vaq_rtree::RTree;
use vaq_workload::{generate, random_query_polygon, unit_space, Distribution, PolygonSpec};

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let n = cfg.scale.paper_points;
    let pts = generate(n, Distribution::Uniform, mix(cfg.seed, 1));
    let spec_area = PolygonSpec::with_query_size(0.01);
    let areas: Vec<Polygon> = (0..cfg.scale.paper_areas as u64)
        .map(|i| random_query_polygon(&unit_space(), &spec_area, mix(cfg.seed, 100 + i)))
        .collect();
    provenance(cfg, &mut out, n, areas.len(), 1);

    let (engine, setup_s) = timed_builds(cfg.scale.builds, || AreaQueryEngine::build(&pts));
    let expected: Vec<IdHash> = areas
        .iter()
        .map(|a| answer(&engine.execute(&QuerySpec::traditional(), a)))
        .collect();
    let spec = QuerySpec::voronoi();
    let cold = ColdStart::new(
        cfg,
        n,
        &mut out,
        |p| save_engine(&engine, p),
        Box::new(|p: &Path| {
            let t = Instant::now();
            let loaded = load_engine(p).map_err(|e| e.to_string())?;
            let load_s = t.elapsed().as_secs_f64();
            let got = answer(&loaded.execute(&spec, &areas[0]));
            if got != expected[0] {
                return Err(format!(
                    "first query after load: {got:?} != {:?}",
                    expected[0]
                ));
            }
            Ok(load_s)
        }),
    );

    let mut session = engine.session();
    let mut seen = 0usize;
    let mut kept: Vec<QueryStats> = Vec::new();
    // One round queries every area once, in order.
    let mut round =
        |session: &mut QuerySession<'_>, out: &mut Outcome, mut tracer: Option<&mut Tracer>| {
            let mut lat = Latencies::default();
            for (i, area) in areas.iter().enumerate() {
                seen += 1;
                let t = Instant::now();
                let res = match tracer.as_deref_mut() {
                    Some(tr) => tr.span("op", seen as u64, None, || session.execute(&spec, area)),
                    None => session.execute(&spec, area),
                };
                lat.push(t.elapsed().as_secs_f64());
                out.attempted += 1;
                let got = answer(&res);
                if got != expected[i] {
                    out.fail(format!(
                        "query {i}: voronoi {got:?} != traditional {:?}",
                        expected[i]
                    ));
                }
                let st = res.stats();
                if seen <= cfg.scale.count_prefix {
                    *out.counts.entry("candidates").or_default() += st.candidates as u64;
                    *out.counts.entry("accepted").or_default() += st.accepted as u64;
                }
                if kept.len() < 4096 {
                    kept.push(*st);
                }
            }
            Round {
                units: lat.us.len() as u64,
                busy_s: lat.busy_s(),
                lat,
            }
        };
    let mut rounds = Rounds::default();
    while !rounds.done(cfg.seconds, cfg.scale.min_samples, Rounds::MIN) {
        rounds.push(round(&mut session, &mut out, None));
    }
    finish(&mut out, &rounds, setup_s);
    cold.finish(cfg, &mut out);

    if cfg.trace {
        let mut ops = Tracer::new();
        let mut traced = Rounds::default();
        for _ in 0..rounds.len() {
            traced.push(round(&mut session, &mut out, Some(&mut ops)));
        }
        overhead(&mut out, &rounds, &traced);
        let (lat, _, _) = rounds.all();
        lat.note("query latency, every round", &mut out);
        out.layers.insert("query_p50_us", lat.pct(0.5));
        out.layers.insert("query_p99_us", lat.pct(0.99));
        layer_builds(&pts, &mut out);
        let mut target = PlainTarget::new(&engine, None);
        let mut replay = Replay::default();
        for k in 0..cfg.scale.traced_queries {
            let i = k % areas.len();
            replay.query(
                k as u64,
                &areas[i],
                Some(&mut target),
                || session.execute(&spec, &areas[i]),
                |r| Executed {
                    stats: r.stats(),
                    spec,
                    len: n,
                    diagram: engine.diagram_kind(),
                    path: PlannedPath::Plain,
                    shards: 0,
                    delta_len: 0,
                },
                |_, _| {},
            );
        }
        replay.report(&mut out, true);
        write_spans(cfg, "ops", &ops, &mut out);
        write_spans(cfg, "replay", &replay.tracer, &mut out);
        let hidden = engine
            .triangulation()
            .map_or(0, |t| t.hidden_vertices().len());
        plain_layer_counters(hidden, &kept, &mut out);
        out.layers
            .insert("query.cache_hit_rate", session.cache_counters().hit_rate());
    }
    out
}

/// Count and hash of a collected answer.
pub fn answer(out: &vaq_core::QueryOutput) -> IdHash {
    IdHash::of(
        out.result()
            .map_or(&[][..], |r| &r.indices[..])
            .iter()
            .map(|&i| i as u64),
    )
}

/// Times the Delaunay and R-tree builds on the workload's points, called
/// directly.
pub fn layer_builds(pts: &[vaq_geom::Point], out: &mut Outcome) {
    let t = Instant::now();
    let tri = Triangulation::new(pts).expect("finite input");
    out.layers
        .insert("delaunay.build_s", t.elapsed().as_secs_f64());
    drop(tri);
    let t = Instant::now();
    let tree = RTree::bulk_load(pts);
    out.layers
        .insert("rtree.bulk_load_s", t.elapsed().as_secs_f64());
    drop(tree);
}

/// Counters the engine reports in `QueryStats`, averaged per query.
pub fn plain_layer_counters(hidden_sites: usize, stats: &[QueryStats], out: &mut Outcome) {
    let q = stats.len().max(1) as f64;
    let mut pred = vaq_core::PredicateCounters::default();
    let mut tests = 0u64;
    for s in stats {
        pred.absorb(s.predicates);
        tests += s.containment_tests;
    }
    let l = &mut out.layers;
    l.insert("geom.predicate_filter_rate", pred.filter_rate());
    l.insert("geom.containment_tests", tests as f64 / q);
    l.insert("delaunay.hidden_sites", hidden_sites as f64);
}
