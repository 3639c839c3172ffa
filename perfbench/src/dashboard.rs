//! `dashboard-weighted`: repeated complex areas on a power diagram. 2×10⁵
//! uniform points with clustered-radius weights (about a tenth of the
//! sites hidden); a fixed set of panel areas (64–256 vertices, 0.05–0.2 %
//! query size) revisited in a seeded Zipf order and mixed with one-off
//! areas; `QuerySpec::auto()` through one `QuerySession`, so the planner
//! picks method and prepare mode and the 64-entry prepared-area LRU
//! serves the repeats. One closed-loop client. The mix puts about three
//! queries in four on a cache hit, so p50 lies among hits and p95 among
//! misses.
//!
//! Exercises what `paper-1e6` bypasses: the weighted build (hidden sites,
//! power predicates), the prepared-area cache and planner overhead on
//! small queries. The planner sends every one of these areas to the
//! traditional method, so every area is also run once with
//! `QuerySpec::voronoi()` outside the timers (checked, and the source of
//! the hidden-site counts), and a traced run times that path beside each
//! decomposed query. Answers are checked against
//! `QuerySpec::brute_force()`.

use crate::common::{
    finish, mix, overhead, provenance, timed_builds, write_spans, ColdStart, Executed, IdHash,
    Latencies, PlainTarget, Replay, Round, Rounds,
};
use crate::paper::{answer, plain_layer_counters};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;
use vaq_core::snapshot::{load_engine, save_engine};
use vaq_core::{AreaQueryEngine, PlannedPath, PrepareMode, QuerySession, QuerySpec, QueryStats};
use vaq_delaunay::Triangulation;
use vaq_geom::Polygon;
use vaq_rtree::RTree;
use vaq_workload::{
    generate, generate_weights, random_query_polygon, unit_space, Distribution, PolygonSpec,
    WeightDistribution,
};

/// Share of queries that go to a one-off area (the rest revisit panels).
pub const ONEOFF_SHARE: f64 = 0.16;
/// Largest site radius, in units of the mean point spacing `1/√n`.
pub const RADIUS_PER_SPACING: f64 = 1.12;
/// The radius classes are part of the workload, not of the seed, so every
/// seed hides about the same share of sites.
const WEIGHT_SEED: u64 = 0x5EED_0F3A;

/// The workload's site weights over `n` points.
pub fn weights(n: usize) -> Vec<f64> {
    let dist = WeightDistribution::ClusteredRadii {
        groups: 4,
        max_radius: RADIUS_PER_SPACING / (n as f64).sqrt(),
        jitter: 0.25,
    };
    generate_weights(n, dist, WEIGHT_SEED)
}

/// A panel or one-off area: 64–256 vertices at 0.05–0.2 % query size
/// (log-uniform). `shape` in `[0, 1)²` picks the two; the seed picks the
/// polygon and its place.
fn area(shape: (f64, f64), seed: u64) -> Polygon {
    let spec = PolygonSpec {
        vertices: 64 + (shape.0 * 193.0) as usize,
        query_size: 0.0005 * 4f64.powf(shape.1),
        min_radius_ratio: 0.3,
    };
    random_query_polygon(&unit_space(), &spec, seed)
}

/// Panel `rank`'s size and vertex count are a fixed function of its
/// popularity rank (a low-discrepancy sequence), so the hit latency a
/// seed sees does not hinge on which random area drew the top ranks.
fn panel_shape(rank: usize) -> (f64, f64) {
    let r = rank as f64 + 1.0;
    (
        (r * 0.618_033_988_749_895).fract(),
        (r * 0.754_877_666_246_693).fract(),
    )
}

/// The op stream: which area each query asks for.
struct Stream {
    rng: StdRng,
    zipf_cdf: Vec<f64>,
    panels: usize,
    oneoffs: usize,
    next_oneoff: usize,
}

impl Stream {
    fn new(seed: u64, panels: usize, oneoffs: usize) -> Stream {
        let weights: Vec<f64> = (1..=panels).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Stream {
            rng: StdRng::seed_from_u64(seed),
            zipf_cdf,
            panels,
            oneoffs,
            next_oneoff: 0,
        }
    }

    /// Index into `panels ++ oneoffs`. One-offs cycle, but return only
    /// after every other one-off, far beyond the cache's reach.
    fn next(&mut self) -> usize {
        if self.rng.gen::<f64>() < ONEOFF_SHARE {
            self.next_oneoff += 1;
            return self.panels + (self.next_oneoff - 1) % self.oneoffs;
        }
        let u = self.rng.gen::<f64>();
        self.zipf_cdf
            .partition_point(|&c| c < u)
            .min(self.panels - 1)
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let s = &cfg.scale;
    let n = s.dashboard_points;
    let pts = generate(n, Distribution::Uniform, mix(cfg.seed, 1));
    let w = weights(n);
    let mut shapes = StdRng::seed_from_u64(mix(cfg.seed, 3));
    let areas: Vec<Polygon> = (0..s.dashboard_panels + s.dashboard_oneoffs)
        .map(|i| {
            let shape = if i < s.dashboard_panels {
                panel_shape(i)
            } else {
                (shapes.gen::<f64>(), shapes.gen::<f64>())
            };
            area(shape, mix(cfg.seed, 1000 + i as u64))
        })
        .collect();
    provenance(cfg, &mut out, n, areas.len(), 1);

    let (engine, setup_s) = timed_builds(s.builds, || AreaQueryEngine::build_weighted(&pts, &w));
    let hidden = engine
        .triangulation()
        .map_or(0, |t| t.hidden_vertices().len());
    out.provenance
        .push(("hidden_share", (hidden as f64 / n as f64).to_string()));
    let oracle = QuerySpec::brute_force().prepare(PrepareMode::PrepareOnce);
    let expected: Vec<IdHash> = areas
        .iter()
        .map(|a| answer(&engine.execute(&oracle, a)))
        .collect();
    // The weighted Voronoi path, which the planner does not pick here.
    for (i, a) in areas.iter().enumerate() {
        let res = engine.execute(&QuerySpec::voronoi(), a);
        let got = answer(&res);
        if got != expected[i] {
            out.fail(format!(
                "area {i}: voronoi {got:?} != brute force {:?}",
                expected[i]
            ));
        }
        let st = res.stats();
        *out.counts.entry("hidden_examined").or_default() += st.hidden_examined as u64;
        *out.counts.entry("hidden_pruned").or_default() += st.hidden_pruned as u64;
    }
    let spec = QuerySpec::auto();
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

    // Every round replays one fixed stretch of the seeded stream, so rounds
    // differ only in timing; a first, unmeasured round fills the cache.
    let mut stream = Stream::new(mix(cfg.seed, 2), s.dashboard_panels, s.dashboard_oneoffs);
    let order: Vec<usize> = (0..s.dashboard_round_ops).map(|_| stream.next()).collect();
    let mut session = engine.session();
    let mut seen = 0usize;
    let mut kept: Vec<QueryStats> = Vec::new();
    let (mut hits, mut misses) = (Latencies::default(), Latencies::default());
    let mut round =
        |session: &mut QuerySession<'_>, out: &mut Outcome, mut tracer: Option<&mut Tracer>| {
            let mut lat = Latencies::default();
            for &i in &order {
                seen += 1;
                let t = Instant::now();
                let res = match tracer.as_deref_mut() {
                    Some(tr) => tr.span("op", seen as u64, None, || {
                        session.execute(&spec, &areas[i])
                    }),
                    None => session.execute(&spec, &areas[i]),
                };
                let dt = t.elapsed().as_secs_f64();
                lat.push(dt);
                out.attempted += 1;
                let st = res.stats();
                if st.prepared_cache.hits > 0 {
                    hits.push(dt);
                } else {
                    misses.push(dt);
                }
                let got = answer(&res);
                if got != expected[i] {
                    out.fail(format!(
                        "area {i}: {got:?} != brute force {:?}",
                        expected[i]
                    ));
                }
                if seen <= cfg.scale.count_prefix {
                    for (name, v) in [
                        ("candidates", st.candidates as u64),
                        ("accepted", st.accepted as u64),
                        ("cache_hits", st.prepared_cache.hits),
                        ("cache_misses", st.prepared_cache.misses),
                    ] {
                        *out.counts.entry(name).or_default() += v;
                    }
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
    round(&mut session, &mut out, None);
    let warm = session.cache_counters();
    let mut rounds = Rounds::default();
    while !rounds.done(cfg.seconds, cfg.scale.min_samples, Rounds::MIN) {
        rounds.push(round(&mut session, &mut out, None));
    }
    let after = session.cache_counters();
    let hit_rate = (after.hits - warm.hits) as f64
        / (after.hits + after.misses - warm.hits - warm.misses).max(1) as f64;
    out.provenance
        .push(("cache_hit_share", hit_rate.to_string()));
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
        let t = Instant::now();
        drop(Triangulation::with_site_metric(&pts, Some(&w)).expect("finite input"));
        out.layers
            .insert("delaunay.build_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        drop(RTree::bulk_load(&pts));
        out.layers
            .insert("rtree.bulk_load_s", t.elapsed().as_secs_f64());
        let mut target = PlainTarget::new(&engine, Some(&w));
        let mut replay = Replay::default();
        for k in 0..cfg.scale.traced_queries {
            let i = order[k % order.len()];
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
        plain_layer_counters(hidden, &kept, &mut out);
        out.layers.insert("query.cache_hit_rate", hit_rate);
    }
    hits.note("cache-hit query latency, every round", &mut out);
    misses.note("cache-miss query latency, every round", &mut out);
    out
}
