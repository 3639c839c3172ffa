//! Payload-materialisation measurements and the `BENCH_payload.json`
//! baseline.
//!
//! The paper's point about refinement cost is that *loading the
//! geometry record* dominates validation in a real GIS. The engine
//! simulates that two ways: validation loading (every candidate's
//! record read before the exact test) and, new with the sink layer,
//! **result materialisation** — the `Materialize` sink re-reads each
//! *accepted* candidate's record while building the response. This
//! bench quantifies the cost per record size:
//!
//! * **collect throughput** — validation loading only;
//! * **materialise throughput** — validation loading + per-result
//!   record reads through the same store;
//! * **sharded materialise throughput** — the same sink through
//!   per-shard record stores split from one logical store.
//!
//! Cross-checks before timing: indices identical across all three
//! paths, and the materialisation checksum delta (materialise −
//! collect) identical between the sharded and unsharded engines — the
//! split stores hold byte-identical records. All paths run the **cell
//! expansion policy**: the segment heuristic loses completeness on
//! shard-local Voronoi diagrams (see the `vaq_core::shard` docs), and
//! the checksum cross-check needs identical accepted sets.

use crate::provenance::Provenance;
use crate::{polygon_batch_with, time_qps, HARNESS_SEED};
use std::fmt::Write as _;
use vaq_core::{AreaQueryEngine, ExpansionPolicy, OutputMode, QuerySpec};
use vaq_workload::{generate, Distribution};

/// Workload shape of one payload-materialisation measurement.
#[derive(Clone, Debug)]
pub struct PayloadBenchConfig {
    /// Engine size (uniform points).
    pub data_size: usize,
    /// Record sizes (bytes per point) swept.
    pub payload_bytes: Vec<usize>,
    /// Distinct query areas per timed sweep.
    pub distinct_areas: usize,
    /// `area(MBR) / area(space)` of each query polygon.
    pub query_size: f64,
    /// Shard count of the sharded engine.
    pub shards: usize,
    /// How many times the area set is swept per timed batch.
    pub rounds: usize,
    /// Timing batches (best-of, rejects scheduler noise).
    pub reps: usize,
}

impl PayloadBenchConfig {
    /// The standard baseline configuration.
    pub fn standard() -> PayloadBenchConfig {
        PayloadBenchConfig {
            data_size: 200_000,
            payload_bytes: vec![256, 1024, 4096],
            distinct_areas: 64,
            query_size: 0.01,
            shards: 8,
            rounds: 4,
            reps: 3,
        }
    }

    /// A tiny configuration for smoke tests (`--quick`).
    pub fn quick() -> PayloadBenchConfig {
        PayloadBenchConfig {
            data_size: 20_000,
            payload_bytes: vec![256, 1024],
            distinct_areas: 8,
            query_size: 0.01,
            shards: 4,
            rounds: 2,
            reps: 1,
        }
    }
}

/// One record size of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct PayloadBenchRow {
    /// Bytes per record.
    pub payload_bytes: usize,
    /// Collecting-sink throughput (validation loading only), q/s.
    pub collect_qps: f64,
    /// Materialising-sink throughput (validation + result reads), q/s.
    pub materialize_qps: f64,
    /// Materialising through per-shard stores, q/s.
    pub sharded_materialize_qps: f64,
    /// Mean result size per query (records materialised per answer).
    pub mean_results: f64,
}

impl PayloadBenchRow {
    /// Throughput retained when materialising every result record.
    pub fn materialize_vs_collect(&self) -> f64 {
        self.materialize_qps / self.collect_qps
    }
}

/// Runs the payload sweep: cross-checks indices and checksum deltas
/// across the plain and sharded materialisation paths, then times each
/// record size.
pub fn measure_payload(cfg: &PayloadBenchConfig) -> Vec<PayloadBenchRow> {
    let pts = generate(
        cfg.data_size,
        Distribution::Uniform,
        HARNESS_SEED ^ cfg.data_size as u64,
    );
    let areas = polygon_batch_with(cfg.query_size, cfg.distinct_areas, 10);
    let collect_spec = QuerySpec::new().policy(ExpansionPolicy::Cell);
    let mat_spec = collect_spec.output(OutputMode::Materialize);
    let queries = cfg.distinct_areas * cfg.rounds;

    let mut rows = Vec::with_capacity(cfg.payload_bytes.len());
    for &bytes in &cfg.payload_bytes {
        let engine = AreaQueryEngine::builder(&pts).payload_bytes(bytes).build();
        let sharded = AreaQueryEngine::builder(&pts)
            .payload_bytes(bytes)
            .build_sharded(cfg.shards);

        // Cross-check (outside the timed region).
        let mut results = 0usize;
        let mut session = engine.session();
        for (i, area) in areas.iter().enumerate() {
            let collected = session.execute(&collect_spec, area);
            let materialized = session.execute(&mat_spec, area);
            let r = materialized.result().expect("materialize output");
            assert_eq!(
                r.sorted_indices(),
                collected.result().expect("collect output").sorted_indices(),
                "materialize changed the answer on area {i}"
            );
            let delta = r
                .stats
                .payload_checksum
                .wrapping_sub(collected.stats().payload_checksum);
            let sharded_mat = sharded.execute(&mat_spec, area);
            let sharded_collect = sharded.execute(&collect_spec, area);
            assert_eq!(sharded_mat.indices, r.sorted_indices(), "area {i}");
            assert_eq!(
                sharded_mat
                    .stats
                    .payload_checksum
                    .wrapping_sub(sharded_collect.stats.payload_checksum),
                delta,
                "sharded materialisation checksum diverged on area {i}"
            );
            results += r.indices.len();
        }

        let collect_qps = time_qps(queries, cfg.reps, &mut || {
            let mut session = engine.session();
            let mut n = 0usize;
            for _ in 0..cfg.rounds {
                for area in &areas {
                    n += session.execute(&collect_spec, area).count();
                }
            }
            n
        });
        let materialize_qps = time_qps(queries, cfg.reps, &mut || {
            let mut session = engine.session();
            let mut n = 0usize;
            for _ in 0..cfg.rounds {
                for area in &areas {
                    n += session.execute(&mat_spec, area).count();
                }
            }
            n
        });
        let sharded_materialize_qps = time_qps(queries, cfg.reps, &mut || {
            let mut n = 0usize;
            for _ in 0..cfg.rounds {
                for area in &areas {
                    n += sharded.execute(&mat_spec, area).count;
                }
            }
            n
        });
        rows.push(PayloadBenchRow {
            payload_bytes: bytes,
            collect_qps,
            materialize_qps,
            sharded_materialize_qps,
            mean_results: results as f64 / cfg.distinct_areas as f64,
        });
    }
    rows
}

/// Renders the sweep as the `BENCH_payload.json` baseline document.
pub fn payload_report_json(
    cfg: &PayloadBenchConfig,
    rows: &[PayloadBenchRow],
    prov: &Provenance,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"benchmark\": \"payload_materialisation\",");
    let _ = writeln!(s, "  \"provenance\": {},", prov.json_object());
    let _ = writeln!(
        s,
        "  \"workload\": {{\"data_size\": {}, \"distinct_areas\": {}, \"query_size\": {}, \
\"shards\": {}, \"rounds\": {}}},",
        cfg.data_size, cfg.distinct_areas, cfg.query_size, cfg.shards, cfg.rounds
    );
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"payload_bytes\": {}, \"collect_qps\": {:.1}, \"materialize_qps\": {:.1}, \
\"sharded_materialize_qps\": {:.1}, \"materialize_vs_collect\": {:.3}, \"mean_results\": {:.1}}}",
            r.payload_bytes,
            r.collect_qps,
            r.materialize_qps,
            r.sharded_materialize_qps,
            r.materialize_vs_collect(),
            r.mean_results,
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_sane() {
        let cfg = PayloadBenchConfig::quick();
        let rows = measure_payload(&cfg);
        assert_eq!(rows.len(), cfg.payload_bytes.len());
        for r in &rows {
            assert!(r.collect_qps > 0.0);
            assert!(r.materialize_qps > 0.0);
            assert!(r.sharded_materialize_qps > 0.0);
            assert!(r.mean_results > 0.0, "1% areas over 20k points match");
        }
    }

    #[test]
    fn json_report_shape() {
        let cfg = PayloadBenchConfig::quick();
        let rows = vec![PayloadBenchRow {
            payload_bytes: 1024,
            collect_qps: 200.0,
            materialize_qps: 150.0,
            sharded_materialize_qps: 140.0,
            mean_results: 33.0,
        }];
        let prov = Provenance::capture(cfg.data_size as u64, 8, 1);
        let json = payload_report_json(&cfg, &rows, &prov);
        assert!(json.contains("\"benchmark\": \"payload_materialisation\""));
        assert!(json.contains("\"provenance\""));
        assert!(json.contains("\"materialize_vs_collect\": 0.750"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }
}
