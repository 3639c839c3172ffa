//! Weighted-vs-Euclidean measurements and the `BENCH_power.json` baseline.
//!
//! The generalization question: what does the power-diagram substrate
//! cost relative to the Euclidean diagram it degenerates to? Three
//! quantities, measured on the same points and the same query workload:
//!
//! * **build time** — the Euclidean `AreaQueryEngine` vs the weighted
//!   engine over the same points with clustered-radius weights (the
//!   regular triangulation runs `power_incircle` instead of `incircle`
//!   and must detect hidden sites);
//! * **batch query throughput** — the Voronoi-method batch on each
//!   engine, on one worker per available core (power cells change the
//!   seed walks and BFS frontiers, never the answers);
//! * **hidden sites** — how many sites the weight distribution swallows
//!   (the structural difference the weighted build pays for).
//!
//! Before timing, the harness cross-checks the two invariants the
//! differential suite pins: a uniform weight vector normalises to the
//! Euclidean diagram, and weighted answers are bit-identical to the
//! Euclidean answers (membership is point-in-area — weights shape
//! cells, not results). The same measurement backs the `reproduce
//! power` subcommand, which records the JSON baseline.

use crate::provenance::Provenance;
use crate::{polygon_batch_with, time_qps, HARNESS_SEED};
use std::fmt::Write as _;
use std::time::Instant;
use vaq_core::sync::resolve_threads;
use vaq_core::{AreaQueryEngine, QuerySpec};
use vaq_delaunay::DiagramKind;
use vaq_workload::{generate, generate_weights, Distribution, WeightDistribution};

/// Workload shape of one weighted-vs-Euclidean measurement.
#[derive(Clone, Copy, Debug)]
pub struct PowerBenchConfig {
    /// Engine size (uniform points).
    pub data_size: usize,
    /// Largest site service radius (weights are squared radii, drawn
    /// from four clustered radius classes). Around the mean point
    /// spacing, so heavy sites really do swallow light neighbours.
    pub max_radius: f64,
    /// Distinct query areas in the batch.
    pub distinct_areas: usize,
    /// `area(MBR) / area(space)` of each query polygon.
    pub query_size: f64,
    /// How many times the area set is swept per timed batch.
    pub rounds: usize,
    /// Timing batches (best-of, rejects scheduler noise).
    pub reps: usize,
}

impl PowerBenchConfig {
    /// The standard baseline configuration (10⁶ points — the top of the
    /// paper's data-size sweep).
    pub fn standard() -> PowerBenchConfig {
        PowerBenchConfig {
            data_size: 1_000_000,
            max_radius: 0.001,
            distinct_areas: 64,
            query_size: 0.001,
            rounds: 4,
            reps: 2,
        }
    }

    /// A tiny configuration for smoke tests (`--quick`).
    pub fn quick() -> PowerBenchConfig {
        PowerBenchConfig {
            data_size: 20_000,
            max_radius: 0.007,
            distinct_areas: 8,
            query_size: 0.01,
            rounds: 2,
            reps: 1,
        }
    }
}

/// One weighted-vs-Euclidean measurement row.
#[derive(Clone, Copy, Debug)]
pub struct PowerBenchRow {
    /// The measured workload.
    pub config: PowerBenchConfig,
    /// Worker threads both engines' batches ran on: the machine's
    /// available parallelism.
    pub threads: usize,
    /// Euclidean engine build, seconds.
    pub euclidean_build_s: f64,
    /// Weighted (power-diagram) engine build, seconds.
    pub power_build_s: f64,
    /// Euclidean-engine batch throughput, queries/second.
    pub euclidean_qps: f64,
    /// Weighted-engine batch throughput, queries/second.
    pub power_qps: f64,
    /// Sites hidden by heavier neighbours in the weighted build.
    pub hidden_sites: usize,
}

impl PowerBenchRow {
    /// Weighted build cost relative to the Euclidean build.
    pub fn build_overhead(&self) -> f64 {
        self.power_build_s / self.euclidean_build_s
    }

    /// Weighted query cost relative to the Euclidean engine (time per
    /// query, so `> 1` means the power diagram is slower to query).
    pub fn query_overhead(&self) -> f64 {
        self.euclidean_qps / self.power_qps
    }
}

/// Runs the weighted-vs-Euclidean workload: builds both engines over
/// the same points (timed), cross-checks the uniform-normalisation and
/// answer-identity invariants, then times each engine's batch
/// throughput on [`resolve_threads(0)`](resolve_threads) workers.
pub fn measure_power(cfg: &PowerBenchConfig) -> PowerBenchRow {
    let threads = resolve_threads(0);
    let pts = generate(
        cfg.data_size,
        Distribution::Uniform,
        HARNESS_SEED ^ cfg.data_size as u64,
    );
    let ws = generate_weights(
        cfg.data_size,
        WeightDistribution::ClusteredRadii {
            groups: 4,
            max_radius: cfg.max_radius,
            jitter: 0.3,
        },
        HARNESS_SEED.rotate_left(17),
    );
    let areas = polygon_batch_with(cfg.query_size, cfg.distinct_areas, 10);
    let spec = QuerySpec::voronoi();

    let t0 = Instant::now();
    let euclid = AreaQueryEngine::build(&pts);
    let euclidean_build_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let power = AreaQueryEngine::build_weighted(&pts, &ws);
    let power_build_s = t1.elapsed().as_secs_f64();
    assert_eq!(power.diagram_kind(), DiagramKind::Power);
    let hidden_sites = power
        .triangulation()
        .map_or(0, |tri| tri.hidden_vertices().len());

    // Cross-checks (outside the timed region): uniform weights
    // normalise to the Euclidean diagram, and weighted answers are
    // bit-identical to Euclidean answers on every benched area.
    let m = cfg.data_size.min(4096);
    let uniform = AreaQueryEngine::build_weighted(&pts[..m], &vec![0.25; m]);
    assert_eq!(uniform.diagram_kind(), DiagramKind::Euclidean);
    let euclid_outs = euclid.execute_batch(&spec, &areas, threads);
    let power_outs = power.execute_batch(&spec, &areas, threads);
    for (i, (a, b)) in euclid_outs.iter().zip(&power_outs).enumerate() {
        assert_eq!(
            a.result().expect("collect-mode batch").sorted_indices(),
            b.result().expect("collect-mode batch").sorted_indices(),
            "weighted result diverged on area {i}"
        );
    }

    let queries = cfg.distinct_areas * cfg.rounds;
    let run_batch = |engine: &AreaQueryEngine| -> f64 {
        time_qps(queries, cfg.reps, &mut || {
            (0..cfg.rounds)
                .map(|_| {
                    engine
                        .execute_batch(&spec, &areas, threads)
                        .iter()
                        .map(|o| o.count())
                        .sum::<usize>()
                })
                .sum()
        })
    };
    let euclidean_qps = run_batch(&euclid);
    let power_qps = run_batch(&power);

    PowerBenchRow {
        config: *cfg,
        threads,
        euclidean_build_s,
        power_build_s,
        euclidean_qps,
        power_qps,
        hidden_sites,
    }
}

/// Renders the measurement as the `BENCH_power.json` baseline document.
pub fn power_report_json(row: &PowerBenchRow, prov: &Provenance) -> String {
    let c = &row.config;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"benchmark\": \"power_vs_euclidean_diagram\",");
    let _ = writeln!(s, "  \"provenance\": {},", prov.json_object());
    let _ = writeln!(
        s,
        "  \"workload\": {{\"data_size\": {}, \"max_radius\": {}, \"distinct_areas\": {}, \
\"query_size\": {}, \"rounds\": {}, \"threads\": {}}},",
        c.data_size, c.max_radius, c.distinct_areas, c.query_size, c.rounds, row.threads
    );
    let _ = writeln!(s, "  \"euclidean_build_s\": {:.3},", row.euclidean_build_s);
    let _ = writeln!(s, "  \"power_build_s\": {:.3},", row.power_build_s);
    let _ = writeln!(s, "  \"build_overhead\": {:.2},", row.build_overhead());
    let _ = writeln!(s, "  \"euclidean_qps\": {:.1},", row.euclidean_qps);
    let _ = writeln!(s, "  \"power_qps\": {:.1},", row.power_qps);
    let _ = writeln!(s, "  \"query_overhead\": {:.2},", row.query_overhead());
    let _ = writeln!(s, "  \"hidden_sites\": {}", row.hidden_sites);
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_sane_and_hides_sites() {
        let row = measure_power(&PowerBenchConfig::quick());
        assert_eq!(
            row.threads,
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            "the batches run on every available core"
        );
        assert!(row.euclidean_build_s > 0.0);
        assert!(row.power_build_s > 0.0);
        assert!(row.euclidean_qps > 0.0);
        assert!(row.power_qps > 0.0);
        assert!(
            row.hidden_sites > 0,
            "a max radius well past the mean spacing must hide some sites"
        );
        assert!(
            row.hidden_sites < row.config.data_size / 2,
            "hiding {} of {} sites means the radii are out of scale",
            row.hidden_sites,
            row.config.data_size
        );
    }

    #[test]
    fn json_report_shape() {
        let row = PowerBenchRow {
            config: PowerBenchConfig::quick(),
            threads: 2,
            euclidean_build_s: 1.0,
            power_build_s: 1.5,
            euclidean_qps: 200.0,
            power_qps: 160.0,
            hidden_sites: 42,
        };
        let prov = Provenance::capture(row.config.data_size as u64, 16, row.threads);
        let json = power_report_json(&row, &prov);
        assert!(json.contains("\"provenance\""));
        assert!(json.contains("\"build_overhead\": 1.50"));
        assert!(json.contains("\"query_overhead\": 1.25"));
        assert!(json.contains("\"hidden_sites\": 42"));
        assert!(json.contains("\"threads\": 2}"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }
}
