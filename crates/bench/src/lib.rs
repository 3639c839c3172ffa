//! # vaq-bench — benchmark harness
//!
//! Regenerates every table and figure of the evaluation section of *Area
//! Queries Based on Voronoi Diagrams* (ICDE 2020), plus the ablation
//! studies listed in the README's "Reproducing the paper" section.
//!
//! `cargo run --release -p vaq-bench --bin reproduce` runs the paper's
//! two sweeps, prints Table I / Table II in the paper's layout, and
//! writes `results/table1.csv`, `results/table2.csv` and
//! `results/fig{4,5,6,7}.csv` (each figure is a column pair of the
//! corresponding table, exactly as in the paper). Its other targets
//! record the `results/BENCH_*.json` baselines with provenance: the
//! costs the end-to-end benchmark (`perfbench/`) cannot isolate.
//!
//! This library crate holds what those targets share: pre-generated
//! polygon batches, a throughput timer, and one module per baseline
//! (`prepared`, `knn`, `payload`, `planner`, `power`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod knn;
pub mod payload;
pub mod planner;
pub mod power;
pub mod prepared;
pub mod provenance;

use vaq_geom::Polygon;
use vaq_workload::{random_query_polygon, unit_space, PolygonSpec};

/// Deterministic base seed shared by the whole harness.
pub const HARNESS_SEED: u64 = 0x1CDE_2020;

/// Best-of-`reps` throughput of `run` (which answers `queries` queries
/// per call and returns a sink value kept observable via `black_box`).
/// Shared by the sink-layer baselines so their timing methodology cannot
/// drift apart.
pub fn time_qps(queries: usize, reps: usize, run: &mut dyn FnMut() -> usize) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        let n = run();
        let qps = queries as f64 / t.elapsed().as_secs_f64();
        std::hint::black_box(n);
        best = best.max(qps);
    }
    best
}

/// Pre-generates `count` random 10-gon query polygons of the given query
/// size, so polygon generation stays out of the timed region.
pub fn polygon_batch(query_size: f64, count: usize) -> Vec<Polygon> {
    polygon_batch_with(query_size, count, 10)
}

/// As [`polygon_batch`] with an explicit vertex count — the sweep axis of
/// the prepared-area benchmarks (raw primitives are `O(k)` in the vertex
/// count; prepared ones are not).
pub fn polygon_batch_with(query_size: f64, count: usize, vertices: usize) -> Vec<Polygon> {
    let space = unit_space();
    let spec = PolygonSpec {
        vertices,
        ..PolygonSpec::with_query_size(query_size)
    };
    (0..count as u64)
        .map(|i| {
            random_query_polygon(
                &space,
                &spec,
                HARNESS_SEED.wrapping_add(i * 7919) ^ vertices as u64,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_are_deterministic() {
        let a = polygon_batch(0.01, 3);
        let b = polygon_batch(0.01, 3);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.vertices(), y.vertices());
        }
    }
}
