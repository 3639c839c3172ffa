//! Experiment sweeps reproducing the paper's two evaluation setups.
//!
//! * **Data-size sweep** (Table I / Figs 4–5): data size 10⁵…10⁶, query
//!   size fixed at 1 %.
//! * **Query-size sweep** (Table II / Figs 6–7): data size fixed at 10⁵,
//!   query size 1 %…32 %.
//!
//! Each configuration is repeated with fresh random query polygons and the
//! mean is reported, mirroring the paper's repetition protocol. Everything
//! is strictly sequential: one engine build, then one query at a time on
//! one thread, so construction never overlaps measurement.

use crate::datagen::{generate, unit_space, Distribution};
use crate::polygen::{random_query_polygon, PolygonSpec};
use std::time::Instant;
use vaq_core::{AreaQueryEngine, ExpansionPolicy, QuerySession, QuerySpec};

/// Mean per-query measurements for one method.
#[derive(Clone, Copy, Debug, Default)]
pub struct MethodMeasurement {
    /// Mean candidates validated per query.
    pub candidates: f64,
    /// Mean redundant validations per query (Figs 5 and 7).
    pub redundant: f64,
    /// Mean wall-clock time per query, microseconds.
    pub time_us: f64,
}

/// Mean results for one `(data size, query size)` configuration — one row
/// of Table I or Table II.
#[derive(Clone, Copy, Debug)]
pub struct ConfigResult {
    /// Number of points in the database.
    pub data_size: usize,
    /// `area(MBR(A)) / area(space)`.
    pub query_size: f64,
    /// Repetitions averaged.
    pub reps: usize,
    /// Mean result-set size.
    pub result_size: f64,
    /// The traditional R-tree filter–refine method.
    pub traditional: MethodMeasurement,
    /// The paper's Voronoi-based method.
    pub voronoi: MethodMeasurement,
}

impl ConfigResult {
    /// Fraction of query time saved by the Voronoi method, in percent
    /// (the paper quotes 10.6 %–37.9 % across its sweeps).
    pub fn time_saving_pct(&self) -> f64 {
        100.0 * (1.0 - self.voronoi.time_us / self.traditional.time_us)
    }

    /// Fraction of candidates avoided by the Voronoi method, in percent.
    pub fn candidate_saving_pct(&self) -> f64 {
        100.0 * (1.0 - self.voronoi.candidates / self.traditional.candidates)
    }
}

/// Sweep-wide knobs shared by all configurations.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Repetitions per configuration (the paper uses 1000; 200 gives
    /// indistinguishable means much faster).
    pub reps: usize,
    /// Base RNG seed; every dataset and polygon derives from it.
    pub base_seed: u64,
    /// Point distribution.
    pub distribution: Distribution,
    /// Query polygon vertex count (the paper uses 10).
    pub polygon_vertices: usize,
    /// Spikiness of query polygons (see [`PolygonSpec::min_radius_ratio`]).
    pub min_radius_ratio: f64,
    /// Expansion policy for the Voronoi method.
    pub policy: ExpansionPolicy,
    /// Simulated geometry-record size in bytes per point (0 = pure
    /// in-memory regime). Restores the paper's validation-dominated cost
    /// model; see `vaq_core::RecordStore`.
    pub payload_bytes: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            reps: 200,
            base_seed: 0x1CDE_2020,
            distribution: Distribution::Uniform,
            polygon_vertices: 10,
            min_radius_ratio: 0.3,
            policy: ExpansionPolicy::Segment,
            payload_bytes: 0,
        }
    }
}

impl SweepConfig {
    fn polygon_spec(&self, query_size: f64) -> PolygonSpec {
        PolygonSpec {
            vertices: self.polygon_vertices,
            query_size,
            min_radius_ratio: self.min_radius_ratio,
        }
    }
}

/// Measures one configuration on a pre-built engine: `reps` random
/// polygons, both methods on the same polygon, means reported.
pub fn run_config(engine: &AreaQueryEngine, query_size: f64, cfg: &SweepConfig) -> ConfigResult {
    let space = unit_space();
    let spec = cfg.polygon_spec(query_size);
    let mut session = QuerySession::new(engine);
    let trad_spec = QuerySpec::traditional();
    let voro_spec = QuerySpec::voronoi().policy(cfg.policy);
    let mut result_size = 0f64;
    let mut trad = MethodMeasurement::default();
    let mut voro = MethodMeasurement::default();
    for rep in 0..cfg.reps {
        let poly_seed = cfg
            .base_seed
            .wrapping_add(0x9E37_79B9)
            .wrapping_mul(rep as u64 + 1)
            ^ (query_size.to_bits());
        let poly = random_query_polygon(&space, &spec, poly_seed);

        let t0 = Instant::now();
        let rt = session.execute(&trad_spec, &poly);
        trad.time_us += t0.elapsed().as_secs_f64() * 1e6;

        let t1 = Instant::now();
        let rv = session.execute(&voro_spec, &poly);
        voro.time_us += t1.elapsed().as_secs_f64() * 1e6;

        let rt = rt.stats();
        let rv = rv.stats();
        debug_assert_eq!(rt.result_size, rv.result_size, "methods disagree");
        result_size += rt.result_size as f64;
        trad.candidates += rt.candidates as f64;
        trad.redundant += rt.redundant_validations() as f64;
        voro.candidates += rv.candidates as f64;
        voro.redundant += rv.redundant_validations() as f64;
    }
    let k = cfg.reps as f64;
    ConfigResult {
        data_size: engine.len(),
        query_size,
        reps: cfg.reps,
        result_size: result_size / k,
        traditional: MethodMeasurement {
            candidates: trad.candidates / k,
            redundant: trad.redundant / k,
            time_us: trad.time_us / k,
        },
        voronoi: MethodMeasurement {
            candidates: voro.candidates / k,
            redundant: voro.redundant / k,
            time_us: voro.time_us / k,
        },
    }
}

/// Builds the engine for one dataset of the sweep.
pub fn build_engine(data_size: usize, cfg: &SweepConfig) -> AreaQueryEngine {
    let pts = generate(
        data_size,
        cfg.distribution,
        cfg.base_seed ^ data_size as u64,
    );
    AreaQueryEngine::builder(&pts)
        .payload_bytes(cfg.payload_bytes)
        .build()
}

/// Table I / Figs 4–5: sweep over data sizes at a fixed query size, one
/// engine build per size. `progress` is invoked with each finished row.
pub fn data_size_sweep(
    sizes: &[usize],
    query_size: f64,
    cfg: &SweepConfig,
    mut progress: impl FnMut(&ConfigResult),
) -> Vec<ConfigResult> {
    sizes
        .iter()
        .map(|&n| {
            let engine = build_engine(n, cfg);
            let row = run_config(&engine, query_size, cfg);
            progress(&row);
            row
        })
        .collect()
}

/// Table II / Figs 6–7: sweep over query sizes at a fixed data size
/// (single engine build).
pub fn query_size_sweep(
    data_size: usize,
    query_sizes: &[f64],
    cfg: &SweepConfig,
    mut progress: impl FnMut(&ConfigResult),
) -> Vec<ConfigResult> {
    let engine = build_engine(data_size, cfg);
    query_sizes
        .iter()
        .map(|&qs| {
            let row = run_config(&engine, qs, cfg);
            progress(&row);
            row
        })
        .collect()
}

/// The paper's data-size grid: 1E5 … 1E6 in steps of 1E5.
pub fn paper_data_sizes() -> Vec<usize> {
    (1..=10).map(|k| k * 100_000).collect()
}

/// The paper's query-size grid: 1 %, 2 %, 4 %, 8 %, 16 %, 32 %.
pub fn paper_query_sizes() -> Vec<f64> {
    vec![0.01, 0.02, 0.04, 0.08, 0.16, 0.32]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SweepConfig {
        SweepConfig {
            reps: 12,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn run_config_produces_consistent_means() {
        let cfg = small_cfg();
        let engine = build_engine(4000, &cfg);
        let row = run_config(&engine, 0.02, &cfg);
        assert_eq!(row.data_size, 4000);
        assert_eq!(row.reps, 12);
        // Traditional candidates ≈ n × query size = 80 (loose band: the
        // mean over 12 star polygons fluctuates).
        assert!(
            row.traditional.candidates > 30.0 && row.traditional.candidates < 160.0,
            "trad candidates {}",
            row.traditional.candidates
        );
        // Identities: result ≤ candidates for both methods; redundant =
        // candidates − result (methods return identical results).
        assert!(row.result_size <= row.traditional.candidates);
        assert!(row.result_size <= row.voronoi.candidates);
        assert!(
            (row.traditional.candidates - row.traditional.redundant - row.result_size).abs() < 1e-9
        );
        assert!((row.voronoi.candidates - row.voronoi.redundant - row.result_size).abs() < 1e-9);
        assert!(row.traditional.time_us > 0.0 && row.voronoi.time_us > 0.0);
    }

    #[test]
    fn voronoi_saves_candidates_at_scale() {
        let cfg = small_cfg();
        let engine = build_engine(20_000, &cfg);
        let row = run_config(&engine, 0.01, &cfg);
        assert!(
            row.candidate_saving_pct() > 15.0,
            "candidate saving {}%",
            row.candidate_saving_pct()
        );
    }

    #[test]
    fn data_size_sweep_returns_rows_in_order() {
        let cfg = small_cfg();
        let mut seen = Vec::new();
        let rows = data_size_sweep(&[1000, 2000, 3000], 0.02, &cfg, |r| {
            seen.push(r.data_size);
        });
        assert_eq!(seen, vec![1000, 2000, 3000]);
        assert_eq!(rows.len(), 3);
        assert!(rows.windows(2).all(|w| w[0].data_size < w[1].data_size));
        // Result size grows roughly linearly with data size.
        assert!(rows[2].result_size > rows[0].result_size * 2.0);
    }

    #[test]
    fn query_size_sweep_scales_with_area() {
        let cfg = small_cfg();
        let rows = query_size_sweep(5000, &[0.01, 0.04], &cfg, |_| {});
        assert_eq!(rows.len(), 2);
        // 4× the MBR fraction ⇒ ≈ 4× the candidates (loose band).
        let ratio = rows[1].traditional.candidates / rows[0].traditional.candidates;
        assert!(
            ratio > 2.0 && ratio < 8.0,
            "candidate ratio {ratio} not ≈ 4"
        );
    }

    #[test]
    fn paper_grids_match_the_paper() {
        assert_eq!(paper_data_sizes().len(), 10);
        assert_eq!(paper_data_sizes()[0], 100_000);
        assert_eq!(paper_data_sizes()[9], 1_000_000);
        assert_eq!(
            paper_query_sizes(),
            vec![0.01, 0.02, 0.04, 0.08, 0.16, 0.32]
        );
    }
}
