//! `churn-5e5`: writes beside reads on `DynamicAreaQueryEngine` over
//! 5×10⁵ uniform base points. A seeded op stream of 98 % write ops and 2 %
//! 10-vertex queries at 0.5 %; a write op is one insert and one remove
//! (49 in 50 of a base id, one in 50 of a live delta id), so about
//! 49.5 % of engine calls insert, 49.5 % remove and 1 % query.
//! `maybe_compact()` follows every write call, as an application would,
//! and is timed with it. Timing an insert with a remove keeps the median
//! away from the boundary between the two kinds. One closed-loop
//! client. Each round is one compaction cycle, so a run always covers
//! whole cycles.
//!
//! The same query path as `paper-1e6`, used differently: every query also
//! pays a linear delta scan, removing a delta id scans the delta buffer,
//! and each compaction is a full rebuild inside a write. Answers are
//! checked against a brute force over a shadow copy of the live set.

use crate::common::{
    brute_hash, finish, median, mix, overhead, provenance, timed_builds, write_spans, ColdStart,
    Executed, IdHash, Latencies, PlainTarget, Replay, Round, Rounds,
};
use crate::paper::{layer_builds, plain_layer_counters};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;
use vaq_core::snapshot::{load_dynamic, save_dynamic};
use vaq_core::{AreaQueryEngine, DynamicAreaQueryEngine, PlannedPath, QuerySpec, QueryStats};
use vaq_delaunay::DiagramKind;
use vaq_geom::{Point, Polygon};
use vaq_workload::{generate, random_query_polygon, unit_space, Distribution, PolygonSpec};

/// Share of ops that are queries; the rest are insert+remove pairs, so
/// about one engine call in a hundred is a query.
const QUERY_SHARE: f64 = 0.02;
/// Fewest compaction cycles a run takes.
const MIN_CYCLES: usize = 2;
/// Share of removes that target a live delta id. Such a remove scans the
/// delta buffer (up to about 2 MB), which the machine's other tenants slow
/// twofold; at one remove in five those scans set the op p95, which then
/// spread by 0.35 across seeds. At one in fifty they lie above p98.
const DELTA_REMOVE_SHARE: f64 = 0.02;

/// Live `(id, point)` pairs; removal by position.
#[derive(Default)]
struct IdSet {
    items: Vec<(u64, Point)>,
}

impl IdSet {
    fn take(&mut self, k: usize) -> u64 {
        self.items.swap_remove(k).0
    }
}

/// The benchmark's model of the engine: the live set, split as the engine
/// splits it, and the next id the engine will hand out.
struct Shadow {
    base: IdSet,
    delta: IdSet,
    next_id: u64,
    /// Points of the engine's base at the last compaction, in id order
    /// (kept only in traced runs, to rebuild a replay target).
    base_points: Option<Vec<(u64, Point)>>,
}

impl Shadow {
    fn brute(&self, area: &Polygon) -> IdHash {
        brute_hash(
            self.base
                .items
                .iter()
                .chain(&self.delta.items)
                .map(|(id, p)| (*id, p)),
            area,
        )
    }

    fn compacted(&mut self) {
        self.base.items.append(&mut self.delta.items);
        if self.base_points.is_some() {
            let mut pts = self.base.items.clone();
            pts.sort_unstable_by_key(|e| e.0);
            self.base_points = Some(pts);
        }
    }
}

enum Op {
    Query(Polygon),
    /// One insert and one remove of a live id, each followed by
    /// `maybe_compact()`, timed as one op.
    Write {
        insert: Point,
        remove: u64,
    },
}

/// Per-phase measurements.
#[derive(Default)]
struct Phase {
    writes: Latencies,
    queries: Latencies,
    compact_s: Vec<f64>,
    stats: Vec<QueryStats>,
}

impl Phase {
    fn ops(&self) -> u64 {
        (self.writes.us.len() + self.queries.us.len()) as u64
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let n = cfg.scale.churn_points;
    let pts = generate(n, Distribution::Uniform, mix(cfg.seed, 1));
    provenance(cfg, &mut out, n, 0, 1);
    let (mut engine, setup_s) =
        timed_builds(cfg.scale.builds, || DynamicAreaQueryEngine::new(&pts));
    let mut shadow = Shadow {
        base: IdSet {
            items: pts
                .iter()
                .enumerate()
                .map(|(i, p)| (i as u64, *p))
                .collect(),
        },
        delta: IdSet::default(),
        next_id: n as u64,
        base_points: None,
    };
    let spec = QuerySpec::voronoi();
    let area_spec = PolygonSpec::with_query_size(0.005);
    let first = random_query_polygon(&unit_space(), &area_spec, mix(cfg.seed, 3));
    let first_expected = shadow.brute(&first);
    let cold = ColdStart::new(
        cfg,
        n,
        &mut out,
        |p| save_dynamic(&engine, p),
        Box::new(|p: &Path| {
            let t = Instant::now();
            let mut loaded = load_dynamic(p).map_err(|e| e.to_string())?;
            let load_s = t.elapsed().as_secs_f64();
            let got = IdHash::of(loaded.execute(&spec, &first).ids);
            if got != first_expected {
                return Err(format!(
                    "first query after load: {got:?} != {first_expected:?}"
                ));
            }
            Ok(load_s)
        }),
    );

    let mut rng = StdRng::seed_from_u64(mix(cfg.seed, 2));
    let mut queries_made = 0u64;
    let mut op_index = 0usize;
    let count_ops = cfg.scale.churn_count_ops;
    let mut next_op = |rng: &mut StdRng, shadow: &mut Shadow| -> Op {
        if rng.gen::<f64>() < QUERY_SHARE {
            queries_made += 1;
            let seed = mix(cfg.seed, 1_000_000 + queries_made);
            return Op::Query(random_query_polygon(&unit_space(), &area_spec, seed));
        }
        let p = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
        let from_delta = !shadow.delta.items.is_empty()
            && (shadow.base.items.is_empty() || rng.gen::<f64>() < DELTA_REMOVE_SHARE);
        let set = if from_delta {
            &mut shadow.delta
        } else {
            &mut shadow.base
        };
        let k = rng.gen_range(0..set.items.len());
        Op::Write {
            insert: p,
            remove: set.take(k),
        }
    };

    // One round is one compaction cycle: it ends with the write whose
    // `maybe_compact()` rebuilt the base (or, failing that, after three
    // times the run's seconds), or after `stop_after` ops.
    let mut run_cycle = |engine: &mut DynamicAreaQueryEngine,
                         shadow: &mut Shadow,
                         out: &mut Outcome,
                         mut tracer: Option<&mut Tracer>,
                         stop_after: Option<usize>| {
        let mut ph = Phase::default();
        loop {
            let busy = ph.writes.busy_s() + ph.queries.busy_s();
            let op = next_op(&mut rng, shadow);
            op_index += 1;
            out.attempted += 1;
            let in_prefix = op_index <= count_ops;
            let req = op_index as u64;
            let compacted = match op {
                Op::Query(area) => {
                    let t = Instant::now();
                    let res = match tracer.as_deref_mut() {
                        Some(tr) => tr.span("op", req, None, || engine.execute(&spec, &area)),
                        None => engine.execute(&spec, &area),
                    };
                    ph.queries.push(t.elapsed().as_secs_f64());
                    let got = IdHash::of(res.ids.iter().copied());
                    let want = shadow.brute(&area);
                    if got != want {
                        out.fail(format!(
                            "query at op {op_index}: {got:?} != shadow {want:?}"
                        ));
                    }
                    if in_prefix {
                        for (name, v) in [
                            ("candidates", res.stats.candidates),
                            ("accepted", res.stats.accepted),
                            ("delta_scanned", res.stats.delta_scanned),
                        ] {
                            *out.counts.entry(name).or_default() += v as u64;
                        }
                    }
                    if ph.stats.len() < 4096 {
                        ph.stats.push(res.stats);
                    }
                    false
                }
                Op::Write { insert, remove } => {
                    let t = Instant::now();
                    let (id, removed, compacted) = match tracer.as_deref_mut() {
                        None => {
                            let id = engine.insert(insert);
                            let c1 = engine.maybe_compact();
                            let removed = engine.remove(remove);
                            (id, removed, c1 | engine.maybe_compact())
                        }
                        Some(tr) => {
                            let op = tr.open("op", req, None);
                            let id =
                                tr.span("dynamic.insert", req, Some(op), || engine.insert(insert));
                            let c1 = tr.span("dynamic.maybe_compact", req, Some(op), || {
                                engine.maybe_compact()
                            });
                            let removed =
                                tr.span("dynamic.remove", req, Some(op), || engine.remove(remove));
                            let c2 = tr.span("dynamic.maybe_compact", req, Some(op), || {
                                engine.maybe_compact()
                            });
                            tr.close(op);
                            (id, removed, c1 | c2)
                        }
                    };
                    let dt = t.elapsed().as_secs_f64();
                    ph.writes.push(dt);
                    if id != shadow.next_id {
                        out.fail(format!(
                            "insert at op {op_index}: id {id} != {}",
                            shadow.next_id
                        ));
                    }
                    if !removed {
                        out.fail(format!("remove at op {op_index}: live id {remove} refused"));
                    }
                    shadow.next_id = id + 1;
                    shadow.delta.items.push((id, insert));
                    compacted
                }
            };
            if compacted {
                ph.compact_s
                    .push(ph.writes.us.last().copied().unwrap_or(0.0) / 1e6);
                shadow.compacted();
                *out.counts.entry("compactions").or_default() += u64::from(in_prefix);
            }
            if compacted
                || busy >= 3.0 * cfg.seconds
                || stop_after.is_some_and(|n| ph.ops() as usize >= n)
            {
                break;
            }
        }
        ph
    };

    if cfg.trace {
        shadow.base_points = Some(shadow.base.items.clone());
    }
    let mut rounds = Rounds::default();
    let mut cycles: Vec<Phase> = Vec::new();
    // Every op of the run is attempted once, so `attempted` counts ops.
    while !rounds.done(cfg.seconds, cfg.scale.min_samples, MIN_CYCLES)
        || out.attempted < count_ops as u64
    {
        let ph = run_cycle(&mut engine, &mut shadow, &mut out, None, None);
        rounds.push(Round {
            lat: ph.writes.clone(),
            units: ph.ops(),
            busy_s: ph.writes.busy_s() + ph.queries.busy_s(),
        });
        cycles.push(ph);
    }
    let all = |f: fn(&Phase) -> &Latencies| {
        let mut lat = Latencies::default();
        for ph in &cycles {
            lat.extend(f(ph));
        }
        lat
    };
    let (writes, queries) = (all(|p| &p.writes), all(|p| &p.queries));
    let compact_s: Vec<f64> = cycles.iter().flat_map(|p| p.compact_s.clone()).collect();
    let stats: Vec<QueryStats> = cycles.iter().flat_map(|p| p.stats.clone()).collect();
    writes.note(
        "write latency (insert + remove, each with maybe_compact), every cycle",
        &mut out,
    );
    queries.note("query latency, every cycle", &mut out);
    out.provenance
        .push(("compactions", compact_s.len().to_string()));
    out.notes.push(format!(
        "ops {} (queries {}, insert+remove pairs {})",
        out.attempted,
        queries.us.len(),
        writes.us.len()
    ));
    finish(&mut out, &rounds, setup_s);
    cold.finish(cfg, &mut out);

    if cfg.trace {
        let mut ops = Tracer::new();
        let mut traced = Rounds::default();
        for _ in 0..rounds.len() {
            let ph = run_cycle(&mut engine, &mut shadow, &mut out, Some(&mut ops), None);
            traced.push(Round {
                units: ph.ops(),
                busy_s: ph.writes.busy_s() + ph.queries.busy_s(),
                lat: ph.writes,
            });
        }
        overhead(&mut out, &rounds, &traced);
        let l = &mut out.layers;
        l.insert("query_p50_us", queries.pct(0.5));
        l.insert("query_p99_us", queries.pct(0.99));
        l.insert("write_p50_us", writes.pct(0.5));
        l.insert("write_p99_us", writes.pct(0.99));
        let mean_us = |name: &str| {
            let (total, _, n) = ops.totals(name);
            total as f64 / n.max(1) as f64 / 1e3
        };
        l.insert("dynamic.insert_us", mean_us("dynamic.insert"));
        l.insert("dynamic.remove_us", mean_us("dynamic.remove"));
        l.insert("dynamic.compactions", compact_s.len() as f64);
        l.insert("dynamic.compact_s", median(&compact_s));
        let scanned: usize = stats.iter().map(|s| s.delta_scanned).sum();
        l.insert(
            "dynamic.delta_scanned",
            scanned as f64 / stats.len().max(1) as f64,
        );
        layer_builds(&pts, &mut out);
        // The traced cycles ended on a compaction; run half a cycle more so
        // the decomposed queries meet a half-full delta, as a typical
        // query does.
        let half_cycle = rounds.all().1 as usize / rounds.len().max(1) / 2;
        run_cycle(&mut engine, &mut shadow, &mut out, None, Some(half_cycle));

        // Replay the base pass on an engine built exactly as the last
        // compaction built the engine's base, and the delta scan on the
        // shadow's live delta.
        let base_pts: Vec<Point> = shadow
            .base_points
            .take()
            .expect("kept in traced runs")
            .into_iter()
            .map(|e| e.1)
            .collect();
        let mirror = AreaQueryEngine::build(&base_pts);
        let mut target = PlainTarget::new(&mirror, None);
        let mut replay = Replay::default();
        for k in 0..cfg.scale.traced_queries as u64 {
            let area =
                random_query_polygon(&unit_space(), &area_spec, mix(cfg.seed, 9_000_000 + k));
            let (len, delta_len) = (engine.len(), engine.delta_len());
            let delta = &shadow.delta.items;
            replay.query(
                k,
                &area,
                Some(&mut target),
                || engine.execute(&spec, &area),
                |r| Executed {
                    stats: &r.stats,
                    spec,
                    len,
                    diagram: DiagramKind::Euclidean,
                    path: PlannedPath::Dynamic,
                    shards: 0,
                    delta_len,
                },
                |tr, parent| {
                    tr.span("dynamic.delta_scan", k, Some(parent), || {
                        delta.iter().filter(|(_, p)| area.contains(*p)).count()
                    });
                },
            );
        }
        replay.report(&mut out, true);
        let (total, _, spans) = replay.tracer.totals("dynamic.delta_scan");
        out.layers.insert(
            "dynamic.delta_scan_us",
            total as f64 / spans.max(1) as f64 / 1e3,
        );
        write_spans(cfg, "ops", &ops, &mut out);
        write_spans(cfg, "replay", &replay.tracer, &mut out);
        plain_layer_counters(0, &stats, &mut out);
        out.layers
            .insert("query.cache_hit_rate", engine.cache_counters().hit_rate());
    }
    out
}
