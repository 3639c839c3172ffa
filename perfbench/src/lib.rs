//! The area-query benchmark: four workloads that drive `vaq_core`'s public
//! API from one process, check every answer against an independent path,
//! and report end-to-end metrics (untraced) or per-layer metrics (traced).
//!
//! See `README.md` beside this crate for each workload's purpose and the
//! mapping from metric to layer to workload.

pub mod churn;
pub mod common;
pub mod dashboard;
pub mod paper;
pub mod sharded;
pub mod trace;

use std::collections::BTreeMap;

/// The benchmark's workloads (see `README.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table I setting: 10⁶ uniform points, 1 % 10-gons.
    Paper,
    /// Repeated complex areas on a power diagram through the planner.
    Dashboard,
    /// Inserts and removes beside queries on the dynamic engine.
    Churn,
    /// `execute_batch` on the kd-sharded engine.
    Sharded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Dashboard,
        Workload::Churn,
        Workload::Sharded,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper-1e6",
            Workload::Dashboard => "dashboard-weighted",
            Workload::Churn => "churn-5e5",
            Workload::Sharded => "sharded-batch",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::small`] runs the
/// same code paths on small inputs for the determinism test.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Points of `paper-1e6`.
    pub paper_points: usize,
    /// Distinct areas `paper-1e6` cycles through.
    pub paper_areas: usize,
    /// Points of `dashboard-weighted`.
    pub dashboard_points: usize,
    /// Fixed panel areas of `dashboard-weighted`.
    pub dashboard_panels: usize,
    /// One-off areas `dashboard-weighted` cycles through.
    pub dashboard_oneoffs: usize,
    /// Requests per round of `dashboard-weighted`.
    pub dashboard_round_ops: usize,
    /// Base points of `churn-5e5`.
    pub churn_points: usize,
    /// Points of `sharded-batch`.
    pub sharded_points: usize,
    /// Distinct batches `sharded-batch` cycles through.
    pub sharded_batches: usize,
    /// Engine builds per run (`setup_s` is their median).
    pub builds: usize,
    /// Snapshot loads of a traced run (`snapshot.cold_start_s` is the
    /// median of the faster half).
    pub loads: usize,
    /// Ops whose counters form the exact counts (always completed).
    pub count_prefix: usize,
    /// Ops of `churn-5e5` whose counters form its exact counts.
    pub churn_count_ops: usize,
    /// Fewest latency samples the faster half of a run's rounds keeps,
    /// whatever the run's duration (p95 keeps ten beyond it at 200).
    pub min_samples: usize,
    /// Queries decomposed into layer calls in a traced run.
    pub traced_queries: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Scale {
        Scale {
            paper_points: 1_000_000,
            paper_areas: 512,
            dashboard_points: 200_000,
            dashboard_panels: 48,
            dashboard_oneoffs: 1024,
            dashboard_round_ops: 3000,
            churn_points: 500_000,
            sharded_points: 1_000_000,
            sharded_batches: 48,
            builds: 3,
            loads: 7,
            count_prefix: 400,
            churn_count_ops: 100_000,
            min_samples: 200,
            traced_queries: 200,
        }
    }

    /// Small inputs over the same code paths (tests).
    pub fn small() -> Scale {
        Scale {
            paper_points: 20_000,
            paper_areas: 32,
            dashboard_points: 10_000,
            dashboard_panels: 12,
            dashboard_oneoffs: 24,
            dashboard_round_ops: 200,
            churn_points: 4_000,
            sharded_points: 40_000,
            sharded_batches: 4,
            builds: 1,
            loads: 1,
            count_prefix: 100,
            churn_count_ops: 6_000,
            min_samples: 20,
            traced_queries: 10,
        }
    }
}

/// One benchmark run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time of the timed phase, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One metric of the benchmark contract.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed in the result line.
    pub name: &'static str,
    /// Unit as printed in the result line.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("op_p50_us", "us"),
    m("op_p95_us", "us"),
    m("throughput_ops_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("snapshot_bytes_per_point", "B"),
];

/// Per-layer metrics, reported by every workload in a traced run. A layer
/// a workload does not exercise, or cannot reach from outside the engine,
/// reads 0 and is named in the run's notes.
pub const PER_LAYER: &[MetricDef] = &[
    m("delaunay.build_s", "s"),
    m("delaunay.hidden_sites", "count"),
    m("delaunay.seed_us", "us"),
    m("rtree.bulk_load_s", "s"),
    m("rtree.window_us", "us"),
    m("rtree.window_candidates", "count"),
    m("rtree.nodes_per_query", "count"),
    m("geom.prepare_us", "us"),
    m("geom.predicate_filter_rate", "fraction"),
    m("geom.containment_tests", "count"),
    m("voronoi_query.expand_us", "us"),
    m("voronoi_query.candidates", "count"),
    m("voronoi_query.precision", "fraction"),
    m("voronoi_query.candidate_ratio", "fraction"),
    m("traditional.refine_us", "us"),
    m("query.cache_hit_rate", "fraction"),
    m("query.unattributed_share", "fraction"),
    m("query.overclaimed_queries", "count"),
    m("plan.resolve_us", "us"),
    m("plan.cost_error", "ln"),
    m("plan.method_share.voronoi", "fraction"),
    m("plan.method_share.traditional", "fraction"),
    m("plan.method_share.brute", "fraction"),
    m("hidden.examined", "count"),
    m("hidden.pruned", "count"),
    m("dynamic.insert_us", "us"),
    m("dynamic.remove_us", "us"),
    m("dynamic.compactions", "count"),
    m("dynamic.compact_s", "s"),
    m("dynamic.delta_scanned", "count"),
    m("dynamic.delta_scan_us", "us"),
    m("shard.build_s", "s"),
    m("shard.visited", "count"),
    m("shard.pruned", "count"),
    m("batch.speedup", "x"),
    m("snapshot.save_s", "s"),
    m("snapshot.load_s", "s"),
    m("snapshot.cold_start_s", "s"),
    m("snapshot.bytes", "B"),
    m("query_p50_us", "us"),
    m("query_p99_us", "us"),
    m("write_p50_us", "us"),
    m("write_p99_us", "us"),
    m("batch_p50_ms", "ms"),
    m("batch_p99_ms", "ms"),
    m("failure_rate", "fraction"),
    m("trace.overhead_p50", "fraction"),
    m("trace.overhead_throughput", "fraction"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metric values by name (untraced numbers).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Counters that repeat exactly for a fixed seed.
    pub counts: BTreeMap<&'static str, u64>,
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that failed (wrong answer, refused write, panic).
    pub failed: u64,
    /// One line per failure (the first few).
    pub failures: Vec<String>,
    /// Provenance: key, value (already JSON-encoded).
    pub provenance: Vec<(&'static str, String)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed op.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// The result line the benchmark contract asks for.
    pub fn result_line(&self, trace: bool) -> String {
        let (defs, values) = if trace {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.e2e)
        };
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = values.get(d.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with all its digits.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        String::from("0.0")
    }
}

/// Runs one workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = match cfg.workload {
        Workload::Paper => paper::run(cfg),
        Workload::Dashboard => dashboard::run(cfg),
        Workload::Churn => churn::run(cfg),
        Workload::Sharded => sharded::run(cfg),
    };
    if cfg.trace {
        let rate = out.failed as f64 / out.attempted.max(1) as f64;
        out.layers.insert("failure_rate", rate);
        for d in PER_LAYER {
            if !out.layers.contains_key(d.name) {
                out.notes
                    .push(format!("layer {}: not exercised (0)", d.name));
            }
        }
    }
    out
}
