//! `vaq` — command-line area queries over CSV point sets.
//!
//! ```text
//! vaq query --points pts.csv --area "POLYGON ((0 0, 1 0, 0.5 1))" [--method voronoi|traditional|brute|both] [--count]
//! vaq query --points pts.csv --window 0.2,0.2,0.8,0.8
//! vaq query --points pts.csv --area "POLYGON (…)" --knn 5 --at 0.5,0.5
//! vaq query --points pts.csv --area "POLYGON (…)" --payload-bytes 1024
//! vaq info  --points pts.csv
//! vaq svg   --points pts.csv --area "POLYGON (…)" --out scene.svg
//! ```
//!
//! Every query runs through the engine's unified surface: the flags build
//! a `QuerySpec` (method / prepare mode / output shape), and the plain or
//! sharded engine runs it as a one-area batch.
//!
//! * `query` prints matching point indices (or just the count with
//!   `--count`) and per-method statistics to stderr. `--method auto`
//!   hands the choice of method, expansion policy and prepare mode to
//!   the engine's cost-model planner (add `--verbose` to see the chosen
//!   plan; `--policy` and `--prepared` conflict with it and are
//!   rejected). `--policy segment|cell` pins the Voronoi expansion
//!   policy. `--prepared`
//!   query-compiles the area first (slab + edge-grid indexes; identical
//!   results, faster per-candidate validation on large areas).
//!   `--shards N` partitions the points into N spatial shards (parallel
//!   per-shard index builds, MBR shard pruning at query time) — same
//!   indices, per-shard statistics; `--shards auto` picks one shard per
//!   hardware thread. `--threads N|auto` runs the query on N workers of
//!   the batch executor's work-stealing pool instead of the calling
//!   thread, with at most one worker per hardware thread (`auto`, like
//!   `0`, picks exactly that many; a larger N is capped to it); results
//!   are bit-identical whatever the count. `--knn K --at X,Y` answers
//!   the kNN-within-area query (the K matches nearest to the origin,
//!   exact distances, ties by index); `--payload-bytes N` attaches an
//!   N-byte simulated payload record to every point and materialises
//!   each matching record (printing the fold of the record checksums).
//! * `info` prints dataset statistics: extent, Delaunay/Voronoi facts.
//! * `svg` renders the query scene (points, result, redundant candidates,
//!   area outline) to an SVG file.
//!
//! The area is either WKT `POLYGON` (including interior rings / holes;
//! `--area-file` reads the WKT from a file) or `--window X0,Y0,X1,Y1` — a
//! plain axis-aligned rectangle, the classic window query, served by the
//! same engines.
//!
//! `--weights FILE|uniform:R` builds the engine over **weighted sites**
//! (the power-diagram form — see the README's "Generalized diagrams"
//! section): `FILE` holds one weight per line, parallel to the points
//! CSV; `uniform:R` gives every site the same radius `R` (weight `R²`),
//! which normalises away to the plain Euclidean engine, bit-identically.
//! Results are identical either way — a site's weight shapes its cell
//! and the traversal, never its membership in the area.

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use voronoi_area_query::core::snapshot;
use voronoi_area_query::core::{AreaQueryEngine, EngineBuilder};
use voronoi_area_query::core::{
    ExecutionPlan, ExpansionPolicy, LoadedEngine, MethodChoice, Neighbor, OutputMode, PointClass,
    PrepareMode, QueryArea, QueryMethod, QuerySpec, QueryStats, ShardedAreaQueryEngine,
};
use voronoi_area_query::delaunay::{weights_are_uniform, DiagramKind};
use voronoi_area_query::geom::{Point, Polygon, Rect, Region};
use voronoi_area_query::viz::candidate_scene;
use voronoi_area_query::workload::io::{points_from_csv, region_from_wkt};

struct Options {
    command: String,
    points_path: Option<String>,
    area_wkt: Option<String>,
    window: Option<String>,
    method: String,
    /// `None` = the spec's default policy; `Some` = forced by `--policy`.
    policy: Option<String>,
    count_only: bool,
    prepared: bool,
    verbose: bool,
    /// `None` = unsharded; `Some(0)` = auto-tune to the hardware.
    shards: Option<usize>,
    /// `None` = the calling thread; `Some(0)` = auto-tune to the
    /// hardware; `Some(n)` = `n` worker threads of the batch executor.
    threads: Option<usize>,
    knn: Option<usize>,
    at: Option<String>,
    payload_bytes: usize,
    /// `--weights FILE|uniform:R` — site weights for the power-diagram
    /// engine, validated before the build.
    weights: Option<String>,
    out: Option<String>,
    /// `vaq build --save FILE` — write the built engine as a snapshot.
    save: Option<String>,
    /// `vaq query --load FILE` — serve from a snapshot instead of
    /// building; build-time flags are cross-checked against the file.
    load: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or(USAGE)?;
    let mut o = Options {
        command,
        points_path: None,
        area_wkt: None,
        window: None,
        method: String::from("voronoi"),
        policy: None,
        count_only: false,
        prepared: false,
        verbose: false,
        shards: None,
        threads: None,
        knn: None,
        at: None,
        payload_bytes: 0,
        weights: None,
        out: None,
        save: None,
        load: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--points" => o.points_path = Some(args.next().ok_or("--points needs a path")?),
            "--area" => o.area_wkt = Some(args.next().ok_or("--area needs WKT")?),
            "--area-file" => {
                let path = args.next().ok_or("--area-file needs a path")?;
                let text =
                    fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
                o.area_wkt = Some(text);
            }
            "--window" => o.window = Some(args.next().ok_or("--window needs X0,Y0,X1,Y1")?),
            "--method" => o.method = args.next().ok_or("--method needs a value")?,
            "--policy" => o.policy = Some(args.next().ok_or("--policy needs segment|cell")?),
            "--count" => o.count_only = true,
            "--prepared" => o.prepared = true,
            "--verbose" => o.verbose = true,
            "--shards" => {
                let v = args.next().ok_or("--shards needs a count or 'auto'")?;
                o.shards = Some(if v == "auto" {
                    0 // the engine auto-tunes to available parallelism
                } else {
                    v.parse::<usize>().ok().filter(|&s| s >= 1).ok_or_else(|| {
                        format!("bad --shards count {v:?} (need an integer >= 1, or 'auto')")
                    })?
                });
            }
            "--threads" => {
                let v = args
                    .next()
                    .ok_or("--threads needs a worker count or 'auto'")?;
                o.threads = Some(if v == "auto" {
                    0 // resolved to available parallelism, like --shards auto
                } else {
                    v.parse::<usize>().map_err(|_| {
                        format!(
                            "bad --threads count {v:?} \
(need a non-negative integer or 'auto'; 0 means auto)"
                        )
                    })?
                });
            }
            "--knn" => {
                let v = args.next().ok_or("--knn needs a neighbour count")?;
                o.knn =
                    Some(v.parse::<usize>().map_err(|_| {
                        format!("bad --knn count {v:?} (need a non-negative integer)")
                    })?);
            }
            "--at" => o.at = Some(args.next().ok_or("--at needs X,Y")?),
            "--payload-bytes" => {
                let v = args.next().ok_or("--payload-bytes needs a size")?;
                o.payload_bytes = v.parse::<usize>().map_err(|_| {
                    format!("bad --payload-bytes size {v:?} (need a non-negative integer)")
                })?;
            }
            "--weights" => {
                o.weights = Some(args.next().ok_or("--weights needs a path or uniform:R")?)
            }
            "--out" => o.out = Some(args.next().ok_or("--out needs a path")?),
            "--save" => o.save = Some(args.next().ok_or("--save needs a snapshot path")?),
            "--load" => o.load = Some(args.next().ok_or("--load needs a snapshot path")?),
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    Ok(o)
}

const USAGE: &str = "usage: vaq <build|query|info|svg> \
[--points FILE.csv] [--load FILE.snap] [--save FILE.snap] \
[--area WKT | --area-file FILE | --window X0,Y0,X1,Y1] \
[--method auto|voronoi|traditional|brute|both] [--policy segment|cell] \
[--count] [--prepared] [--verbose] \
[--shards N|auto] [--threads N|auto] [--knn K --at X,Y] [--payload-bytes N] \
[--weights FILE|uniform:R] [--out FILE.svg]
  build requires --points and --save: it builds the engine (plain, or \
sharded with --shards) and writes a snapshot.
  query/info accept --load FILE.snap to serve from a snapshot instead of \
building; --points/--shards/--weights/--payload-bytes passed alongside \
--load are cross-checked against the snapshot's contents.
  --threads starts at most one worker per hardware thread ('auto' or 0 \
picks exactly that many).";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let o = parse_args()?;
    if o.save.is_some() && o.command != "build" {
        return Err(String::from(
            "--save belongs to the build command (`vaq build --points ... --save FILE`)",
        ));
    }
    if o.load.is_some() && !matches!(o.command.as_str(), "query" | "info") {
        return Err(String::from(
            "--load belongs to the query and info commands",
        ));
    }
    // `--load` serves the snapshot's own point set, so the CSV becomes
    // optional there (and is cross-checked when given anyway).
    let points = match o.points_path.as_deref() {
        Some(points_path) => {
            let csv = fs::read_to_string(points_path)
                .map_err(|e| format!("cannot read {points_path}: {e}"))?;
            let points = points_from_csv(&csv).map_err(|e| format!("{points_path}: {e}"))?;
            if points.is_empty() {
                return Err(format!("{points_path}: no points"));
            }
            Some(points)
        }
        None => None,
    };
    let require_points = || {
        points
            .clone()
            .ok_or_else(|| String::from("--points is required"))
    };

    match o.command.as_str() {
        "build" => build_snapshot(&require_points()?, &o),
        "info" => match o.load.as_deref() {
            Some(path) => snapshot_info(path),
            None => info(&require_points()?),
        },
        "query" => {
            let area = required_area(&o)?;
            match o.load.as_deref() {
                Some(path) => query_loaded(path, points.as_deref(), &area, &o),
                None => {
                    let points = require_points()?;
                    if o.shards.is_some() {
                        query_sharded(&points, &area, &o)
                    } else {
                        query(&points, &area, &o)
                    }
                }
            }
        }
        "svg" => {
            let area = required_area(&o)?;
            let out = o.out.as_deref().ok_or("svg requires --out FILE.svg")?;
            svg(&require_points()?, &area, out)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// The query area: a WKT region or an axis-aligned window rectangle.
enum CliArea {
    Region(Region),
    Window(Rect),
}

impl CliArea {
    /// The area as a dynamic [`QueryArea`] (for the SVG scene).
    fn as_query_area(&self) -> &dyn QueryArea {
        match self {
            CliArea::Region(r) => r,
            CliArea::Window(w) => w,
        }
    }

    /// The outline polygon (for SVG rendering).
    fn outline(&self) -> Polygon {
        match self {
            CliArea::Region(r) => r.outer().clone(),
            CliArea::Window(w) => Polygon::new_unchecked(w.corners().to_vec()),
        }
    }
}

fn required_area(o: &Options) -> Result<CliArea, String> {
    if o.area_wkt.is_some() && o.window.is_some() {
        return Err(String::from("--area and --window are mutually exclusive"));
    }
    if let Some(spec) = o.window.as_deref() {
        return Ok(CliArea::Window(parse_window(spec)?));
    }
    let wkt = o
        .area_wkt
        .as_deref()
        .ok_or("--area, --area-file or --window is required")?;
    let region = region_from_wkt(wkt).map_err(|e| format!("bad area WKT: {e}"))?;
    region
        .validate_nesting()
        .map_err(|e| format!("bad area rings: {e}"))?;
    Ok(CliArea::Region(region))
}

/// Parses `X0,Y0,X1,Y1` into a valid query window: all coordinates
/// finite, `X0 < X1` and `Y0 < Y1`. Flipped or zero-extent windows are
/// rejected rather than silently normalised — they almost always mean a
/// typo, and a zero-area window has no interior to seed the Voronoi
/// method with.
fn parse_window(spec: &str) -> Result<Rect, String> {
    let nums: Vec<f64> = spec
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad --window coordinate {:?}", s.trim()))
        })
        .collect::<Result<_, _>>()?;
    if nums.len() != 4 {
        return Err(format!(
            "--window needs four comma-separated numbers, got {}",
            nums.len()
        ));
    }
    if let Some(v) = nums.iter().find(|v| !v.is_finite()) {
        return Err(format!(
            "--window coordinates must be finite, got {v} in {spec:?}"
        ));
    }
    let [x0, y0, x1, y1] = nums[..] else {
        unreachable!("length checked above");
    };
    if x0 >= x1 || y0 >= y1 {
        return Err(format!(
            "--window needs X0 < X1 and Y0 < Y1, got {spec:?} \
(a flipped or zero-extent window is almost always a typo)"
        ));
    }
    Ok(Rect::new(Point::new(x0, y0), Point::new(x1, y1)))
}

/// Resolves `--weights FILE|uniform:R` into one validated weight per
/// point. Weights are rejected *here*, before the engine build, so a
/// NaN weight or a miscounted file gets a diagnostic instead of a
/// panic — the same philosophy as [`parse_window`]. Negative weights
/// are legitimate power-diagram inputs and pass through.
fn parse_weights(spec: &str, n_points: usize) -> Result<Vec<f64>, String> {
    if let Some(radius) = spec.strip_prefix("uniform:") {
        let r: f64 = radius.trim().parse().map_err(|_| {
            format!(
                "bad --weights radius {:?} (need a number, e.g. uniform:0.1)",
                radius.trim()
            )
        })?;
        if !r.is_finite() || r < 0.0 {
            return Err(format!(
                "--weights uniform radius must be finite and non-negative, got {r} \
(the radius is the distance the site's cell reaches, so a negative one has no meaning)"
            ));
        }
        return Ok(vec![r * r; n_points]);
    }
    let text = fs::read_to_string(spec)
        .map_err(|e| format!("cannot read --weights {spec}: {e} (or use uniform:R)"))?;
    let mut weights = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let w: f64 = t
            .parse()
            .map_err(|_| format!("{spec}:{}: bad weight {t:?}", lineno + 1))?;
        if !w.is_finite() {
            return Err(format!(
                "{spec}:{}: weights must be finite, got {w}",
                lineno + 1
            ));
        }
        weights.push(w);
    }
    if weights.len() != n_points {
        return Err(format!(
            "--weights {spec} holds {} weights for {} points (need exactly one per point, \
in the points CSV's order)",
            weights.len(),
            n_points
        ));
    }
    Ok(weights)
}

fn info(points: &[Point]) -> Result<(), String> {
    let engine = AreaQueryEngine::build(points);
    let tri = engine.triangulation().expect("non-empty input");
    let bbox = Rect::from_points(points.iter().copied());
    println!("points:            {}", points.len());
    println!("unique points:     {}", tri.vertex_count());
    println!(
        "extent:            [{}, {}] x [{}, {}]",
        bbox.min.x, bbox.max.x, bbox.min.y, bbox.max.y
    );
    println!("delaunay edges:    {}", tri.edge_count());
    println!("delaunay triangles:{}", tri.triangle_count());
    println!("hull vertices:     {}", tri.hull().len());
    println!("degenerate (line): {}", tri.is_degenerate());
    let mean_degree = 2.0 * tri.edge_count() as f64 / tri.vertex_count().max(1) as f64;
    println!("mean voronoi deg:  {mean_degree:.2}");
    Ok(())
}

/// Maps the `--method` flag to the specs to run (shared by the single
/// and sharded paths). `auto` defers the choice to the cost-model
/// planner per query.
fn parse_methods(method: &str) -> Result<&'static [(&'static str, MethodChoice)], String> {
    match method {
        "auto" => Ok(&[("auto", MethodChoice::Auto)]),
        "voronoi" => Ok(&[("voronoi", MethodChoice::Fixed(QueryMethod::Voronoi))]),
        "traditional" => Ok(&[("traditional", MethodChoice::Fixed(QueryMethod::Traditional))]),
        "brute" => Ok(&[("brute", MethodChoice::Fixed(QueryMethod::BruteForce))]),
        "both" => Ok(&[
            ("voronoi", MethodChoice::Fixed(QueryMethod::Voronoi)),
            ("traditional", MethodChoice::Fixed(QueryMethod::Traditional)),
        ]),
        other => Err(format!(
            "unknown method {other:?} (auto|voronoi|traditional|brute|both)"
        )),
    }
}

/// Parses `--policy segment|cell` into the expansion policy.
fn parse_policy(policy: &str) -> Result<ExpansionPolicy, String> {
    match policy {
        "segment" => Ok(ExpansionPolicy::Segment),
        "cell" => Ok(ExpansionPolicy::Cell),
        other => Err(format!("unknown --policy {other:?} (segment|cell)")),
    }
}

/// `--method auto` owns every strategy knob the planner decides; forcing
/// one by hand alongside it is a contradiction, not a preference.
fn reject_auto_conflicts(o: &Options) -> Result<(), String> {
    if o.method != "auto" {
        return Ok(());
    }
    if o.policy.is_some() {
        return Err(String::from(
            "--method auto picks the expansion policy per query; \
drop --policy (or pin the method to use it)",
        ));
    }
    if o.prepared {
        return Err(String::from(
            "--method auto decides when preparing the area pays off; \
drop --prepared (or pin the method to force it)",
        ));
    }
    Ok(())
}

/// With `--verbose`, prints the planner's recorded decision for a
/// `--method auto` query.
fn print_plan(name: &str, plan: Option<&ExecutionPlan>) {
    let Some(plan) = plan else {
        return;
    };
    eprintln!(
        "{name}:{pad} plan {:?} / {:?} / {:?} \
(predicted {:.0} work units, {:.0} candidates)",
        plan.method,
        plan.policy,
        plan.prepare,
        plan.predicted_cost,
        plan.predicted_candidates,
        pad = " ".repeat(11usize.saturating_sub(name.len())),
    );
}

/// Parses `--at X,Y` into the kNN origin.
fn parse_at(spec: &str) -> Result<Point, String> {
    let nums: Vec<f64> = spec
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad --at coordinate {:?}", t.trim()))
        })
        .collect::<Result<_, _>>()?;
    let [x, y] = nums[..] else {
        return Err(format!(
            "--at needs two comma-separated numbers, got {}",
            nums.len()
        ));
    };
    if !x.is_finite() || !y.is_finite() {
        return Err(format!("--at coordinates must be finite, got {spec:?}"));
    }
    Ok(Point::new(x, y))
}

/// Resolves the `--knn` / `--payload-bytes` flags into the spec's output
/// mode (collect by default).
fn output_mode_for(o: &Options) -> Result<OutputMode, String> {
    match o.knn {
        Some(_) if o.payload_bytes > 0 => Err(String::from(
            "--knn and --payload-bytes are mutually exclusive (a kNN answer \
has no per-record payload to print)",
        )),
        Some(k) => {
            let at =
                o.at.as_deref()
                    .ok_or("--knn needs --at X,Y (the origin distances are measured from)")?;
            Ok(OutputMode::TopKNearest {
                k,
                origin: parse_at(at)?,
            })
        }
        None if o.at.is_some() => Err(String::from("--at is only meaningful with --knn K")),
        None if o.payload_bytes > 0 => Ok(OutputMode::Materialize),
        None => Ok(OutputMode::Collect),
    }
}

/// Resolves `--threads` (0 = auto) to a concrete worker count, capped
/// at the machine's available parallelism (a larger request would only
/// start threads that share the same cores), and reports it, mirroring
/// the sharded path's engine summary line.
fn resolve_cli_threads(threads: usize) -> usize {
    use voronoi_area_query::core::sync::resolve_threads;
    let workers = resolve_threads(threads).min(resolve_threads(0));
    eprintln!("batch executor: {workers} worker thread(s)");
    workers
}

/// The engine builder for the CLI's build-time flags (payload,
/// weights); the plain and the sharded build both start from it.
fn cli_builder(points: &[Point], o: &Options) -> Result<EngineBuilder, String> {
    let builder = AreaQueryEngine::builder(points).payload_bytes(o.payload_bytes);
    Ok(match o.weights.as_deref() {
        Some(spec) => builder.weights(&parse_weights(spec, points.len())?),
        None => builder,
    })
}

/// Builds the unsharded engine from the CLI's build-time flags; shared
/// by `query` and `vaq build --save`.
fn build_plain_engine(points: &[Point], o: &Options) -> Result<AreaQueryEngine, String> {
    let engine = cli_builder(points, o)?.build();
    if o.weights.is_some() {
        let hidden = engine
            .triangulation()
            .map_or(0, |tri| tri.hidden_vertices().len());
        eprintln!(
            "diagram: {:?} ({hidden} hidden site(s))",
            engine.diagram_kind()
        );
    }
    Ok(engine)
}

fn query(points: &[Point], area: &CliArea, o: &Options) -> Result<(), String> {
    let engine = build_plain_engine(points, o)?;
    run_specs(&engine, area, o)
}

/// `--shards N|auto`: partition the points into N spatial shards, build
/// the per-shard engines in parallel, and answer with MBR shard pruning.
/// Results (and the printed indices) are bit-identical to the unsharded
/// path; `--payload-bytes` gives every shard its slice of one logical
/// record store.
fn query_sharded(points: &[Point], area: &CliArea, o: &Options) -> Result<(), String> {
    let engine = build_sharded_engine(points, o)?;
    run_specs(&engine, area, o)
}

/// Builds the sharded engine from the CLI's build-time flags; shared by
/// `query --shards` and `vaq build --shards --save`.
fn build_sharded_engine(points: &[Point], o: &Options) -> Result<ShardedAreaQueryEngine, String> {
    Ok(cli_builder(points, o)?.build_sharded(o.shards.unwrap_or(1)))
}

/// One method's output, as `query` prints it.
struct Answer {
    stats: QueryStats,
    /// Appended to the summary line (the sharded engine's shard counts).
    suffix: String,
    /// The kept neighbours of a `--knn` query.
    neighbors: Vec<Neighbor>,
    /// The matching indices, ascending.
    indices: Vec<u32>,
}

/// What `query` needs from an engine: the plain and the sharded engine
/// differ only in how they run a spec and how their output reads.
trait QueryEngine {
    /// Prints what the engine reports before its first answer.
    fn summary(&self) {}

    /// Runs `spec` over `area` as a one-area batch on `threads` workers.
    fn answer<A: QueryArea + Sync>(&self, spec: &QuerySpec, area: &A, threads: usize) -> Answer;
}

impl QueryEngine for AreaQueryEngine {
    fn answer<A: QueryArea + Sync>(&self, spec: &QuerySpec, area: &A, threads: usize) -> Answer {
        let out = self
            .execute_batch(spec, std::slice::from_ref(area), threads)
            .pop()
            .expect("a one-area batch returns one output");
        Answer {
            stats: *out.stats(),
            suffix: String::new(),
            neighbors: out.neighbors().unwrap_or_default().to_vec(),
            indices: out.result().map_or_else(Vec::new, |r| r.sorted_indices()),
        }
    }
}

impl QueryEngine for ShardedAreaQueryEngine {
    fn summary(&self) {
        eprintln!(
            "sharded engine: {} shards over {} points (shard sizes {:?}, {:?} diagram)",
            self.shard_count(),
            self.len(),
            self.shard_sizes(),
            self.diagram_kind(),
        );
    }

    fn answer<A: QueryArea + Sync>(&self, spec: &QuerySpec, area: &A, threads: usize) -> Answer {
        let out = self
            .execute_batch(spec, std::slice::from_ref(area), threads)
            .pop()
            .expect("a one-area batch returns one output");
        Answer {
            suffix: format!(
                " [{} of {} shards visited, {} pruned]",
                out.stats.shards_visited,
                self.shard_count(),
                out.stats.shards_pruned
            ),
            stats: out.stats,
            neighbors: out.neighbors,
            indices: out.indices,
        }
    }
}

/// The execution half of `query`, over a built or snapshot-loaded
/// engine: runs every requested method over the area as a one-area batch
/// on the `--threads` workers (the calling thread without the flag) and
/// prints its answer.
fn run_specs(engine: &impl QueryEngine, area: &CliArea, o: &Options) -> Result<(), String> {
    let methods = parse_methods(&o.method)?;
    reject_auto_conflicts(o)?;
    let output = output_mode_for(o)?;
    engine.summary();
    let workers = o.threads.map_or(1, resolve_cli_threads);
    // One spec per requested method; `--prepared` query-compiles the area
    // (identical results, per-candidate containment and segment tests
    // answered from the prepared indexes), once per method, and every
    // shard runs on the compiled form.
    let mut base = QuerySpec::new()
        .prepare(if o.prepared {
            PrepareMode::Cached
        } else {
            PrepareMode::Raw
        })
        .output(output);
    if let Some(policy) = o.policy.as_deref() {
        base = base.policy(parse_policy(policy)?);
    }
    let mut printed = false;
    for &(name, m) in methods {
        let spec = base.method(m);
        let out = match area {
            CliArea::Region(r) => engine.answer(&spec, r, workers),
            CliArea::Window(w) => engine.answer(&spec, w, workers),
        };
        let pad = " ".repeat(11usize.saturating_sub(name.len()));
        if o.verbose {
            print_plan(name, out.stats.plan.as_ref());
        }
        eprintln!(
            "{name}:{pad} {} results, {} candidates, {} redundant validations{}",
            out.stats.result_size,
            out.stats.candidates,
            out.stats.redundant_validations(),
            out.suffix,
        );
        // vaq-lint: allow(sink-dispatch) -- presentation only: the CLI
        // decides which summary lines to print for the mode it itself
        // requested; execution already went through the sink layer.
        if matches!(output, OutputMode::Materialize) {
            eprintln!(
                "{name}:{pad} payload checksum {:#018x} ({} bytes/record)",
                out.stats.payload_checksum, o.payload_bytes,
            );
        }
        // vaq-lint: allow(sink-dispatch) -- presentation only: neighbour
        // output is printed exactly when the user asked for --knn.
        if matches!(output, OutputMode::TopKNearest { .. }) {
            emit_neighbors(&out.neighbors, o.count_only, &mut printed);
        } else {
            emit(&out.indices, o.count_only, &mut printed);
        }
    }
    Ok(())
}

/// `vaq build --points FILE --save FILE.snap [--shards N] [--weights …]
/// [--payload-bytes N]`: builds the engine once and writes it as a
/// snapshot, so later `vaq query --load` invocations reach their first
/// answer without rebuilding the Voronoi substrate.
fn build_snapshot(points: &[Point], o: &Options) -> Result<(), String> {
    let save = o
        .save
        .as_deref()
        .ok_or("build requires --save FILE.snap (where to write the snapshot)")?;
    if o.shards.is_some() {
        let engine = build_sharded_engine(points, o)?;
        eprintln!(
            "built sharded engine: {} shards over {} points ({:?} diagram)",
            engine.shard_count(),
            engine.len(),
            engine.diagram_kind(),
        );
        snapshot::save_sharded(&engine, Path::new(save))
            .map_err(|e| format!("cannot save {save}: {e}"))?;
    } else {
        let engine = build_plain_engine(points, o)?;
        snapshot::save_engine(&engine, Path::new(save))
            .map_err(|e| format!("cannot save {save}: {e}"))?;
    }
    let info =
        snapshot::inspect(Path::new(save)).map_err(|e| format!("cannot inspect {save}: {e}"))?;
    eprintln!(
        "wrote {save}: {} snapshot, {} bytes, {} section(s), rev {}",
        info.kind, info.file_len, info.sections, info.git_revision
    );
    Ok(())
}

/// `vaq info --load FILE.snap`: prints the snapshot's header facts
/// (validated — a corrupt or truncated file is a diagnostic here too).
fn snapshot_info(path: &str) -> Result<(), String> {
    let info =
        snapshot::inspect(Path::new(path)).map_err(|e| format!("cannot inspect {path}: {e}"))?;
    println!("snapshot:          {path}");
    println!("kind:              {}", info.kind);
    println!("format version:    {}", info.version);
    println!("file size:         {} bytes", info.file_len);
    println!("sections:          {}", info.sections);
    println!("written at rev:    {}", info.git_revision);
    println!("writer build:      {}", info.build_params);
    Ok(())
}

/// `vaq query --load FILE.snap`: serves the query from a snapshot.
/// Build-time flags passed alongside `--load` cannot change a loaded
/// engine, so each one is cross-checked against what the snapshot
/// actually holds and a mismatch is a diagnostic, not a silent
/// difference.
fn query_loaded(
    path: &str,
    points: Option<&[Point]>,
    area: &CliArea,
    o: &Options,
) -> Result<(), String> {
    let loaded =
        snapshot::load(Path::new(path)).map_err(|e| format!("cannot load snapshot {path}: {e}"))?;
    match loaded {
        LoadedEngine::Plain(engine) => {
            check_loaded_consistency(
                path,
                engine.len(),
                engine.diagram_kind(),
                None,
                engine.record_store().map(|r| r.record_bytes()),
                points,
                o,
            )?;
            eprintln!(
                "loaded {path}: plain engine, {} points ({:?} diagram)",
                engine.len(),
                engine.diagram_kind(),
            );
            run_specs(&engine, area, o)
        }
        LoadedEngine::Sharded(engine) => {
            check_loaded_consistency(
                path,
                engine.len(),
                engine.diagram_kind(),
                Some(engine.shard_count()),
                engine.payload_record_bytes(),
                points,
                o,
            )?;
            eprintln!("loaded {path}: sharded engine");
            run_specs(&engine, area, o)
        }
        LoadedEngine::Dynamic(_) => Err(format!(
            "{path} holds a dynamic engine snapshot; the CLI serves plain and sharded \
snapshots (load it programmatically with vaq_core::snapshot::load_dynamic)"
        )),
    }
}

/// The `--load` consistency diagnostics: every build-time flag passed
/// alongside `--load` must agree with the snapshot.
fn check_loaded_consistency(
    path: &str,
    len: usize,
    diagram: DiagramKind,
    shard_count: Option<usize>,
    record_bytes: Option<usize>,
    points: Option<&[Point]>,
    o: &Options,
) -> Result<(), String> {
    if let Some(pts) = points {
        if pts.len() != len {
            return Err(format!(
                "--points holds {} points but {path} indexes {len}; a loaded engine \
serves its own point set, so drop --points or rebuild the snapshot",
                pts.len()
            ));
        }
    }
    match (o.shards, shard_count) {
        (Some(_), None) => {
            return Err(format!(
                "--shards conflicts with {path}: the snapshot holds an unsharded engine \
(sharding is a build-time property; rebuild with `vaq build --shards ... --save`)"
            ))
        }
        (Some(n), Some(have)) if n != 0 && n != have => {
            return Err(format!(
                "--shards {n} conflicts with {path}: the snapshot was built with {have} \
shard(s) (drop --shards or rebuild the snapshot)"
            ))
        }
        _ => {}
    }
    if let Some(spec) = o.weights.as_deref() {
        let w = parse_weights(spec, len)?;
        let want = if weights_are_uniform(&w) {
            DiagramKind::Euclidean
        } else {
            DiagramKind::Power
        };
        if want != diagram {
            return Err(format!(
                "--weights {spec} implies a {want:?} diagram but {path} holds a {diagram:?} \
one (weights are baked in at build time; rebuild with `vaq build --weights ... --save`)"
            ));
        }
    }
    if o.payload_bytes > 0 {
        match record_bytes {
            Some(b) if b == o.payload_bytes => {}
            Some(b) => {
                return Err(format!(
                    "--payload-bytes {} conflicts with {path}: the snapshot's records are \
{b} bytes each (payloads are baked in at build time)",
                    o.payload_bytes
                ))
            }
            None => {
                return Err(format!(
                    "--payload-bytes conflicts with {path}: the snapshot was built without \
payload records (rebuild with `vaq build --payload-bytes ... --save`)"
                ))
            }
        }
    }
    Ok(())
}

/// Prints the result once (all methods return the same set under
/// `--method both`).
fn emit(indices: &[u32], count_only: bool, printed: &mut bool) {
    if *printed {
        return;
    }
    *printed = true;
    if count_only {
        println!("{}", indices.len());
    } else {
        let mut out = String::with_capacity(indices.len() * 7);
        for id in indices {
            out.push_str(&id.to_string());
            out.push('\n');
        }
        print!("{out}");
    }
}

/// Prints the kNN answer once: `index distance` per line, nearest first
/// (ties by index), or just the neighbour count under `--count`.
fn emit_neighbors(neighbors: &[Neighbor], count_only: bool, printed: &mut bool) {
    if *printed {
        return;
    }
    *printed = true;
    if count_only {
        println!("{}", neighbors.len());
        return;
    }
    let mut out = String::with_capacity(neighbors.len() * 24);
    for n in neighbors {
        out.push_str(&format!("{} {}\n", n.id, n.dist_sq.sqrt()));
    }
    print!("{out}");
}

fn svg(points: &[Point], area: &CliArea, out: &str) -> Result<(), String> {
    let engine = AreaQueryEngine::build(points);
    let query_area = area.as_query_area();
    let r = engine
        .execute(&QuerySpec::voronoi(), query_area)
        .into_result()
        .expect("collect-mode query");
    // Redundant candidates for the overlay: boundary-class points.
    let tri = engine.triangulation().expect("non-empty input");
    let classes = engine.classify(query_area);
    let mut candidates = r.indices.clone();
    for (v, class) in classes.iter().enumerate() {
        if *class == PointClass::Boundary {
            candidates.extend_from_slice(tri.inputs_of(v as u32));
        }
    }
    let world = Rect::from_points(points.iter().copied()).union(&query_area.mbr());
    let margin = (world.width().max(world.height())) * 0.05;
    let outline = area.outline();
    let scene = candidate_scene(
        world.expand(margin),
        800.0,
        points,
        &outline,
        &r.indices,
        &candidates,
    );
    fs::write(out, scene).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!(
        "wrote {out}: {} results, {} candidates highlighted",
        r.stats.result_size,
        candidates.len()
    );
    Ok(())
}
