//! Pieces every workload shares: seeding, answer hashing, latency
//! summaries, timed set-up, snapshot cold start, provenance, and the
//! traced replay of one query as its public layer calls.

use crate::trace::Tracer;
use crate::{Outcome, RunConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use vaq_core::voronoi_query::arbitrary_position_in;
use vaq_core::{
    voronoi_area_query, AreaQueryEngine, ExpansionPolicy, PlanFeatures, PlannedPath, Planner,
    PrepareMode, QueryArea, QueryMethod, QueryScratch, QuerySpec, QueryStats,
};
use vaq_delaunay::DiagramKind;
use vaq_geom::{Point, Polygon, Rect};
use vaq_rtree::AccessStats;

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent fingerprint of an answer: its size and a sum of
/// mixed ids.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IdHash {
    /// Number of ids.
    pub count: usize,
    /// Wrapping sum of `mix(id)`.
    pub hash: u64,
}

impl IdHash {
    /// Fingerprints `ids`.
    pub fn of(ids: impl IntoIterator<Item = u64>) -> IdHash {
        let mut h = IdHash::default();
        for id in ids {
            h.add(id);
        }
        h
    }

    /// Adds one id.
    pub fn add(&mut self, id: u64) {
        self.count += 1;
        self.hash = self.hash.wrapping_add(mix(id, 0x1D));
    }
}

/// Brute-force answer over `(id, point)` pairs, written here so that it
/// shares nothing with the engine but the polygon predicate.
pub fn brute_hash<'a>(pts: impl IntoIterator<Item = (u64, &'a Point)>, area: &Polygon) -> IdHash {
    let mbr = area.mbr();
    let mut h = IdHash::default();
    for (id, p) in pts {
        if mbr.contains_point(*p) && area.contains(*p) {
            h.add(id);
        }
    }
    h
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

/// Latencies of one kind of op, in µs, plus the time they cover.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    /// One sample per op, µs.
    pub us: Vec<f64>,
    busy_s: f64,
}

impl Latencies {
    /// Records one op that took `secs` seconds.
    pub fn push(&mut self, secs: f64) {
        self.us.push(secs * 1e6);
        self.busy_s += secs;
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Latencies) {
        self.us.extend_from_slice(&other.us);
        self.busy_s += other.busy_s;
    }

    /// Sum of the samples, seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Nearest-rank percentile `p` of the samples.
    pub fn pct(&self, p: f64) -> f64 {
        let mut s = self.us.clone();
        s.sort_by(f64::total_cmp);
        percentile(&s, p)
    }

    /// Prints the percentiles with their sample counts.
    pub fn note(&self, what: &str, out: &mut Outcome) {
        let n = self.us.len();
        let beyond = |p: f64| n - (p * n as f64).ceil() as usize;
        out.notes.push(format!(
            "{what}: p50 {:.1} us, p95 {:.1} us ({} beyond), p99 {:.1} us ({} beyond) over {n} samples",
            self.pct(0.5),
            self.pct(0.95),
            beyond(0.95),
            self.pct(0.99),
            beyond(0.99),
        ));
    }
}

/// The timed phase as rounds. Within a workload the rounds carry the same
/// requests (or, on `churn-5e5`, statistically equal compaction cycles),
/// so they differ mainly by how much the machine's other tenants slowed
/// them. Contention only ever adds time; the end-to-end metrics are
/// therefore taken over the faster half of the rounds.
#[derive(Default)]
pub struct Rounds {
    rounds: Vec<Round>,
}

/// One round: its op latencies, the units of work it completed (ops, or
/// areas for batches) and the time all its requests took.
pub struct Round {
    /// Op latencies.
    pub lat: Latencies,
    /// Units of work completed.
    pub units: u64,
    /// Time of every timed request of the round, seconds.
    pub busy_s: f64,
}

impl Rounds {
    /// Fewest rounds a run of identical rounds takes, so that the faster
    /// half has two.
    pub const MIN: usize = 4;

    /// Adds a round.
    pub fn push(&mut self, round: Round) {
        self.rounds.push(round);
    }

    /// Rounds so far.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` before the first round.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Measured time so far, seconds.
    pub fn busy_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.busy_s).sum()
    }

    /// `true` once the run has measured `seconds`, taken `min_rounds`
    /// rounds and kept at least `min_samples` latencies in its faster half.
    pub fn done(&self, seconds: f64, min_samples: usize, min_rounds: usize) -> bool {
        self.busy_s() >= seconds
            && self.len() >= min_rounds
            && self.kept().0.us.len() >= min_samples
    }

    /// Pooled latencies, units and time of the faster half of the rounds
    /// (by time per unit of work).
    pub fn kept(&self) -> (Latencies, u64, f64) {
        let mut order: Vec<&Round> = self.rounds.iter().collect();
        order.sort_by(|a, b| {
            (a.busy_s / a.units.max(1) as f64).total_cmp(&(b.busy_s / b.units.max(1) as f64))
        });
        pool(&order[..self.rounds.len().div_ceil(2)])
    }

    /// Pooled latencies, units and time of every round.
    pub fn all(&self) -> (Latencies, u64, f64) {
        pool(&self.rounds.iter().collect::<Vec<_>>())
    }
}

fn pool(rounds: &[&Round]) -> (Latencies, u64, f64) {
    let mut lat = Latencies::default();
    let (mut units, mut busy) = (0, 0.0);
    for r in rounds {
        lat.extend(&r.lat);
        units += r.units;
        busy += r.busy_s;
    }
    (lat, units, busy)
}

/// Builds `runs` times (dropping each previous engine first) and returns
/// the last engine with the median build time in seconds.
pub fn timed_builds<T>(runs: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..runs.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one build"), median(&times))
}

/// Where runs write scratch files: snapshots and span dumps. Inside the
/// build directory, so a checkout stays clean.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    let dir = base.join("perfbench-out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    dir
}

/// A snapshot path no concurrent run shares.
fn snapshot_path(cfg: &RunConfig) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    out_dir().join(format!(
        "{}-{}-{}-{n}.snap",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    ))
}

/// A loader: loads the snapshot at the path, answers the first request
/// and checks it, and returns the load time alone.
pub type Loader<'a> = Box<dyn FnMut(&Path) -> Result<f64, String> + 'a>;

/// Cold start: a snapshot saved once at set-up, then loaded and the first
/// request answered and checked: once in every run, and
/// [`Scale::loads`](crate::Scale) times in a traced run, where
/// `snapshot.cold_start_s` is the median of the faster half of the
/// samples, for the same reason as [`Rounds`].
pub struct ColdStart<'a> {
    path: PathBuf,
    load: Loader<'a>,
    cold: Vec<f64>,
    load_s: Vec<f64>,
}

impl<'a> ColdStart<'a> {
    /// Saves the snapshot and records its size and save time.
    pub fn new(
        cfg: &RunConfig,
        points: usize,
        out: &mut Outcome,
        save: impl FnOnce(&Path) -> Result<(), vaq_core::SnapshotError>,
        load: Loader<'a>,
    ) -> ColdStart<'a> {
        let path = snapshot_path(cfg);
        let t = Instant::now();
        save(&path).expect("snapshot save");
        out.layers
            .insert("snapshot.save_s", t.elapsed().as_secs_f64());
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        out.e2e.insert(
            "snapshot_bytes_per_point",
            bytes as f64 / points.max(1) as f64,
        );
        out.counts.insert("snapshot_bytes", bytes);
        out.layers.insert("snapshot.bytes", bytes as f64);
        ColdStart {
            path,
            load,
            cold: Vec::new(),
            load_s: Vec::new(),
        }
    }

    fn sample(&mut self, out: &mut Outcome) {
        let t = Instant::now();
        match (self.load)(&self.path) {
            Ok(load_s) => {
                self.cold.push(t.elapsed().as_secs_f64());
                self.load_s.push(load_s);
            }
            Err(e) => out.fail(format!("cold start: {e}")),
        }
    }

    /// Takes the samples, records the metrics and deletes the snapshot.
    pub fn finish(mut self, cfg: &RunConfig, out: &mut Outcome) {
        let loads = if cfg.trace { cfg.scale.loads } else { 1 };
        for _ in 0..loads {
            self.sample(out);
        }
        let _ = std::fs::remove_file(&self.path);
        let each: Vec<String> = self
            .cold
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect();
        out.notes.push(format!(
            "cold start (load + first request), ms: {}",
            each.join(" ")
        ));
        out.layers
            .insert("snapshot.cold_start_s", faster_half_median(&self.cold));
        out.layers
            .insert("snapshot.load_s", faster_half_median(&self.load_s));
    }
}

/// Median of the faster (smaller) half of `v`.
pub fn faster_half_median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s.truncate(s.len().div_ceil(2));
    percentile(&s, 0.5)
}

/// Peak resident set of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// `std::thread::available_parallelism`, at least 1.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Best-effort git revision (`"unknown"` outside a git checkout).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().replace('"', ""))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}

/// Records provenance shared by every workload. `threads` is what the
/// workload asked for; it is clamped to `available_parallelism`.
pub fn provenance(
    cfg: &RunConfig,
    out: &mut Outcome,
    points: usize,
    areas: usize,
    threads: usize,
) -> usize {
    let avail = nproc();
    let used = threads.clamp(1, avail);
    let p = &mut out.provenance;
    p.push(("git_rev", format!("\"{}\"", git_rev())));
    p.push(("workload", format!("\"{}\"", cfg.workload.name())));
    p.push(("seed", cfg.seed.to_string()));
    p.push(("available_parallelism", avail.to_string()));
    p.push(("threads_requested", threads.to_string()));
    p.push(("threads_used", used.to_string()));
    p.push(("threads_clamped", (used != threads).to_string()));
    p.push(("points", points.to_string()));
    p.push(("distinct_areas", areas.to_string()));
    p.push(("seconds", cfg.seconds.to_string()));
    used
}

/// Fills the end-to-end metrics every workload reports, from the faster
/// half of its rounds. Call it before [`ColdStart::finish`], whose loads
/// would otherwise put a second engine into `peak_rss_mb`.
pub fn finish(out: &mut Outcome, rounds: &Rounds, setup_s: f64) {
    let (lat, units, busy) = rounds.kept();
    lat.note("op latency, faster half of the rounds", out);
    let per_unit: Vec<String> = rounds
        .rounds
        .iter()
        .map(|r| format!("{:.1}", r.busy_s / r.units.max(1) as f64 * 1e6))
        .collect();
    out.notes.push(format!(
        "rounds {}, kept {}, measured {:.2} s, kept {:.2} s; us per unit by round: {}",
        rounds.len(),
        rounds.len().div_ceil(2),
        rounds.busy_s(),
        busy,
        per_unit.join(" ")
    ));
    out.e2e.insert("op_p50_us", lat.pct(0.5));
    out.e2e.insert("op_p95_us", lat.pct(0.95));
    out.e2e
        .insert("throughput_ops_s", units as f64 / busy.max(1e-9));
    out.e2e.insert("setup_s", setup_s);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.provenance.push((
        "failure_rate",
        crate::json_number(out.failed as f64 / out.attempted.max(1) as f64),
    ));
}

/// Tracing overhead: the traced rounds' p50 and throughput against the
/// untraced rounds', as relative changes (same estimator on both).
pub fn overhead(out: &mut Outcome, untraced: &Rounds, traced: &Rounds) {
    let (u, u_units, u_busy) = untraced.kept();
    let (t, t_units, t_busy) = traced.kept();
    let u_tp = u_units as f64 / u_busy.max(1e-9);
    let t_tp = t_units as f64 / t_busy.max(1e-9);
    out.layers.insert(
        "trace.overhead_p50",
        t.pct(0.5) / u.pct(0.5).max(1e-9) - 1.0,
    );
    out.layers
        .insert("trace.overhead_throughput", 1.0 - t_tp / u_tp.max(1e-9));
}

/// A plain engine the replay can reach layer by layer.
pub struct PlainTarget<'e> {
    /// The engine whose layers are replayed.
    pub engine: &'e AreaQueryEngine,
    /// `√(max positive weight)`, as the engine grows its cell window.
    pub weight_radius: f64,
    scratch: QueryScratch,
}

impl<'e> PlainTarget<'e> {
    /// Wraps `engine`; `weights` are its site weights, if any.
    pub fn new(engine: &'e AreaQueryEngine, weights: Option<&[f64]>) -> PlainTarget<'e> {
        let weight_radius = weights
            .map_or(0.0, |w| w.iter().fold(0.0f64, |m, &x| m.max(x)))
            .sqrt();
        PlainTarget {
            engine,
            weight_radius,
            scratch: engine.new_scratch(),
        }
    }

    /// Seed location and Voronoi expansion of `form`, as spans under
    /// `parent`.
    fn seed_and_expand(
        &mut self,
        tr: &mut Tracer,
        request: u64,
        parent: usize,
        form: &dyn QueryArea,
        policy: ExpansionPolicy,
    ) {
        let engine = self.engine;
        let Some(tri) = engine.triangulation() else {
            return;
        };
        let seed = tr.span("delaunay.seed", request, Some(parent), || {
            let pa = arbitrary_position_in(form);
            let mut access = AccessStats::default();
            let (id, _) = engine
                .rtree()
                .nearest_with_stats(pa, &mut access)
                .expect("engine is non-empty");
            let seed = tri.canonical(id as usize);
            match tri.diagram_kind() {
                DiagramKind::Euclidean => seed,
                DiagramKind::Power => tri.nearest_vertex(pa, Some(seed)),
            }
        });
        let r = engine.data_bounds().union(&form.mbr());
        let window: Rect = r.expand((r.width() + r.height()).max(1.0) + self.weight_radius);
        let mut st = QueryStats::default();
        let scratch = &mut self.scratch;
        tr.span("voronoi_query.expand", request, Some(parent), || {
            voronoi_area_query(tri, form, seed, policy, &window, None, scratch, &mut st)
        });
    }
}

/// Accumulates the traced decomposition of queries.
#[derive(Default)]
pub struct Replay {
    /// The spans.
    pub tracer: Tracer,
    queries: u64,
    overclaimed: u64,
    window_candidates: u64,
    window_nodes: u64,
    /// Window candidates of the queries that ran (or were compared with)
    /// the Voronoi method.
    voronoi_window_candidates: u64,
    voronoi_candidates: u64,
    voronoi_accepted: u64,
    /// Queries also run with `QuerySpec::voronoi()` for comparison, and
    /// the hidden sites those runs examined and pruned.
    compared: u64,
    hidden_examined: u64,
    hidden_pruned: u64,
    cost_errors: Vec<f64>,
    methods: [u64; 3],
}

/// What the engine did for one query, as its stats report it.
pub struct Executed<'a> {
    /// The query's stats.
    pub stats: &'a QueryStats,
    /// The spec the caller passed (auto specs carry the plan in `stats`).
    pub spec: QuerySpec,
    /// The executing engine's point count, for the planner.
    pub len: usize,
    /// The executing engine's diagram.
    pub diagram: DiagramKind,
    /// The planner path.
    pub path: PlannedPath,
    /// Shards of a sharded engine (0 elsewhere).
    pub shards: usize,
    /// Live delta points of a dynamic engine (0 elsewhere).
    pub delta_len: usize,
}

impl Replay {
    /// Times `execute`, then replays the same query as layer calls.
    /// Spans: `query` (root) → `execute`, and `replay` → the layers the
    /// engine ran. Comparison calls (the traditional window beside a
    /// Voronoi query, a plan or preparation the engine skipped, and the
    /// `compare.voronoi` run beside a query of another method) hang off
    /// the root, so they never count as attributed. The replay runs right
    /// after `execute`, on warm caches, so it tends to under-attribute.
    pub fn query<R>(
        &mut self,
        request: u64,
        area: &Polygon,
        target: Option<&mut PlainTarget<'_>>,
        execute: impl FnOnce() -> R,
        stats_of: impl Fn(&R) -> Executed<'_>,
        extra: impl FnOnce(&mut Tracer, usize),
    ) -> R {
        let root = self.tracer.open("query", request, None);
        let result = self.tracer.span("execute", request, Some(root), execute);
        let exec_ns = self.tracer.spans()[root + 1].duration_ns();
        let e = stats_of(&result);
        let replay = self.replay_layers(request, root, area, target, &e, extra);
        self.tracer.close(root);
        let attributed: u64 = self
            .tracer
            .spans()
            .iter()
            .filter(|s| s.parent == Some(replay))
            .map(|s| s.duration_ns())
            .sum();
        if attributed > exec_ns {
            self.overclaimed += 1;
        }
        result
    }

    fn replay_layers(
        &mut self,
        request: u64,
        root: usize,
        area: &Polygon,
        target: Option<&mut PlainTarget<'_>>,
        e: &Executed<'_>,
        extra: impl FnOnce(&mut Tracer, usize),
    ) -> usize {
        self.queries += 1;
        let (method, policy, prepare) = executed_choice(e);
        let stats = e.stats;
        let tr = &mut self.tracer;
        let replay = tr.open("replay", request, Some(root));
        let under = |ran: bool| if ran { replay } else { root };

        let hit = stats.prepared_cache.hits > 0;
        let prepared = tr.span(
            "geom.prepare",
            request,
            Some(under(prepare != PrepareMode::Raw && !hit)),
            || area.prepare(),
        );
        let form: &dyn QueryArea = match (&prepared, prepare) {
            (Some(p), PrepareMode::PrepareOnce | PrepareMode::Cached) => p.as_ref(),
            _ => area,
        };

        let mbr = area.mbr();
        let (est_candidates, in_hull) = match &target {
            Some(t) => (
                t.engine.density_map().estimate_count(&mbr),
                t.engine.data_bounds().contains_rect(&mbr),
            ),
            None => (e.len as f64 * mbr.area(), true),
        };
        let features = PlanFeatures {
            len: e.len,
            est_candidates,
            vertices: area.complexity(),
            cached: hit,
            cacheable: true,
            delta_len: e.delta_len,
            shards: e.shards,
            in_hull,
            diagram: e.diagram,
            path: e.path,
        };
        let planner = Planner::default();
        let (_, what_if) = tr.span(
            "plan.resolve",
            request,
            Some(under(e.spec.method.is_auto())),
            || planner.resolve(&QuerySpec::auto(), &features),
        );
        let plan = stats.plan.unwrap_or(what_if);
        self.methods[method_slot(plan.method)] += 1;
        if plan.method == method {
            let observed = Planner::observed_cost(stats, features.vertices).max(1.0);
            self.cost_errors
                .push((plan.predicted_cost.max(1e-9) / observed).ln().abs());
        }
        if method == QueryMethod::Voronoi {
            self.voronoi_candidates += stats.candidates as u64;
            self.voronoi_accepted += stats.accepted as u64;
        }

        if let Some(t) = target {
            let engine = t.engine;
            let mut access = AccessStats::default();
            let candidates = tr.span(
                "rtree.window",
                request,
                Some(under(method == QueryMethod::Traditional)),
                || engine.rtree().window_with_stats(&form.mbr(), &mut access),
            );
            self.window_candidates += candidates.len() as u64;
            self.window_nodes += access.nodes();
            if method == QueryMethod::Voronoi {
                self.voronoi_window_candidates += candidates.len() as u64;
            }
            let pts = engine.points();
            match method {
                QueryMethod::Traditional => {
                    tr.span("traditional.refine", request, Some(replay), || {
                        candidates
                            .iter()
                            .filter(|&&i| form.contains(pts[i as usize]))
                            .count()
                    });
                }
                QueryMethod::BruteForce => {
                    tr.span("brute.scan", request, Some(replay), || {
                        pts.iter().filter(|&&p| form.contains(p)).count()
                    });
                }
                QueryMethod::Voronoi => t.seed_and_expand(tr, request, replay, form, policy),
            }
            // Beside a query the engine ran with another method, run the
            // area with `QuerySpec::voronoi()` too, so that seed location,
            // expansion and the hidden-site sweep are measured where the
            // plan skips them.
            if method != QueryMethod::Voronoi {
                let spec = QuerySpec::voronoi();
                let cmp = tr.open("compare.voronoi", request, Some(root));
                let res = tr.span("execute.voronoi", request, Some(cmp), || {
                    engine.execute(&spec, area)
                });
                let st = res.stats();
                self.compared += 1;
                self.hidden_examined += st.hidden_examined as u64;
                self.hidden_pruned += st.hidden_pruned as u64;
                self.voronoi_candidates += st.candidates as u64;
                self.voronoi_accepted += st.accepted as u64;
                self.voronoi_window_candidates += candidates.len() as u64;
                t.seed_and_expand(tr, request, cmp, area, spec.policy);
                tr.close(cmp);
            }
        }
        extra(tr, replay);
        tr.close(replay);
        replay
    }

    /// Writes the per-layer metrics this replay measured into `out`.
    pub fn report(&self, out: &mut Outcome, has_target: bool) {
        let q = self.queries.max(1) as f64;
        let mean_us = |name: &str| {
            let (total, _, n) = self.tracer.totals(name);
            if n == 0 {
                0.0
            } else {
                total as f64 / n as f64 / 1e3
            }
        };
        let l = &mut out.layers;
        for (metric, span) in [
            ("geom.prepare_us", "geom.prepare"),
            ("plan.resolve_us", "plan.resolve"),
            ("traditional.refine_us", "traditional.refine"),
        ] {
            l.insert(metric, mean_us(span));
        }
        if has_target {
            l.insert("delaunay.seed_us", mean_us("delaunay.seed"));
            l.insert("voronoi_query.expand_us", mean_us("voronoi_query.expand"));
            l.insert("rtree.window_us", mean_us("rtree.window"));
            l.insert("rtree.window_candidates", self.window_candidates as f64 / q);
            l.insert("rtree.nodes_per_query", self.window_nodes as f64 / q);
            if self.voronoi_window_candidates > 0 {
                l.insert(
                    "voronoi_query.candidate_ratio",
                    self.voronoi_candidates as f64 / self.voronoi_window_candidates as f64,
                );
            }
        }
        if self.voronoi_candidates > 0 {
            l.insert(
                "voronoi_query.candidates",
                self.voronoi_candidates as f64 / q,
            );
            l.insert(
                "voronoi_query.precision",
                self.voronoi_accepted as f64 / self.voronoi_candidates as f64,
            );
        }
        if self.compared > 0 {
            let c = self.compared as f64;
            l.insert("hidden.examined", self.hidden_examined as f64 / c);
            l.insert("hidden.pruned", self.hidden_pruned as f64 / c);
            out.notes.push(format!(
                "trace: {} queries also run with QuerySpec::voronoi() for comparison \
                 (seed, expansion and hidden-site counts come from these runs)",
                self.compared
            ));
        }
        let l = &mut out.layers;
        l.insert("plan.cost_error", median(&self.cost_errors));
        for (i, name) in [
            "plan.method_share.traditional",
            "plan.method_share.voronoi",
            "plan.method_share.brute",
        ]
        .into_iter()
        .enumerate()
        {
            l.insert(name, self.methods[i] as f64 / q);
        }
        let (exec_ns, _, _) = self.tracer.totals("execute");
        let replay_spans: Vec<usize> = self
            .tracer
            .spans()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "replay")
            .map(|(i, _)| i)
            .collect();
        let mut per_layer: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for s in self.tracer.spans() {
            if s.parent
                .is_some_and(|p| replay_spans.binary_search(&p).is_ok())
            {
                *per_layer.entry(s.name).or_default() += s.duration_ns();
            }
        }
        let attributed: u64 = per_layer.values().sum();
        l.insert(
            "query.unattributed_share",
            1.0 - attributed as f64 / exec_ns.max(1) as f64,
        );
        l.insert("query.overclaimed_queries", self.overclaimed as f64);
        out.notes.push(format!(
            "trace: {} queries decomposed; execute {:.1} ms total; attributed {:.1} ms; unattributed share {:.3}",
            self.queries,
            exec_ns as f64 / 1e6,
            attributed as f64 / 1e6,
            1.0 - attributed as f64 / exec_ns.max(1) as f64
        ));
        for (name, ns) in &per_layer {
            let flag = if *ns > exec_ns {
                "  FLAG: claims more than execute"
            } else {
                ""
            };
            out.notes.push(format!(
                "trace layer {name}: {:.1} ms ({:.1}% of execute){flag}",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / exec_ns.max(1) as f64
            ));
        }
        if self.overclaimed > 0 {
            out.notes.push(format!(
                "trace FLAG: {} queries whose replayed layers took longer than their execute",
                self.overclaimed
            ));
        }
    }
}

/// Writes `tracer`'s spans to the output directory.
pub fn write_spans(cfg: &RunConfig, what: &str, tracer: &Tracer, out: &mut Outcome) {
    let name = format!("spans-{}-{}-{what}.tsv", cfg.workload.name(), cfg.seed);
    let path = out_dir().join(name);
    match std::fs::write(&path, tracer.to_tsv()) {
        Ok(()) => out.notes.push(format!(
            "trace: {} {what} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => out
            .notes
            .push(format!("trace: {what} spans not written: {e}")),
    }
}

fn method_slot(m: QueryMethod) -> usize {
    match m {
        QueryMethod::Traditional => 0,
        QueryMethod::Voronoi => 1,
        QueryMethod::BruteForce => 2,
    }
}

/// The method, policy and prepare mode the engine actually ran.
fn executed_choice(e: &Executed<'_>) -> (QueryMethod, ExpansionPolicy, PrepareMode) {
    match e.stats.plan {
        Some(p) => (p.method, p.policy, p.prepare),
        None => (
            e.spec.method.fixed().unwrap_or(QueryMethod::Voronoi),
            e.spec.policy,
            e.spec.prepare,
        ),
    }
}
