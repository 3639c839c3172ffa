//! Repeated-areas measurements and the `BENCH_query_cache.json` baseline.
//!
//! The dashboard workload: a handful of (large, irregular) query areas
//! asked over and over against one engine. The prepared-area primitives
//! are the entire per-candidate cost (the paper's point), so how the area
//! gets prepared dominates:
//!
//! * [`PrepareMode::Raw`] — no preparation, `O(k)` primitives per
//!   candidate, every query.
//! * [`PrepareMode::PrepareOnce`] — fast primitives, but the slab/grid
//!   build is paid on *every* query.
//! * [`PrepareMode::Cached`] — the session's LRU pays the build once per
//!   distinct area; every repeat runs on fast primitives for free.
//!
//! The same measurement backs the `reproduce query-cache` subcommand
//! (which records the JSON baseline) and sanity tests. Timing is a best-of-batches loop over a
//! deterministic workload; the interesting outputs are the *ratios*.

use crate::provenance::Provenance;
use crate::{polygon_batch_with, standard_engine};
use std::fmt::Write as _;
use std::time::Instant;
use vaq_core::{CacheCounters, PrepareMode, QuerySession, QuerySpec};

/// Workload shape of one repeated-areas measurement.
#[derive(Clone, Copy, Debug)]
pub struct RepeatedAreasConfig {
    /// Engine size (uniform points).
    pub data_size: usize,
    /// Distinct query areas in the dashboard.
    pub distinct_areas: usize,
    /// Query-polygon vertex count (preparation matters at large `k`).
    pub vertices: usize,
    /// `area(MBR) / area(space)` of each query polygon.
    pub query_size: f64,
    /// How many times the full set of areas is swept per batch.
    pub rounds: usize,
    /// Timing batches (best-of, rejects scheduler noise).
    pub reps: usize,
}

impl RepeatedAreasConfig {
    /// The standard baseline configuration.
    pub fn standard() -> RepeatedAreasConfig {
        RepeatedAreasConfig {
            data_size: 50_000,
            distinct_areas: 8,
            vertices: 256,
            query_size: 0.02,
            rounds: 25,
            reps: 5,
        }
    }

    /// A tiny configuration for smoke tests (`--quick`).
    pub fn quick() -> RepeatedAreasConfig {
        RepeatedAreasConfig {
            data_size: 5_000,
            distinct_areas: 4,
            vertices: 64,
            query_size: 0.02,
            rounds: 5,
            reps: 2,
        }
    }
}

/// Mean per-query times of the three prepare modes on the same repeated
/// workload, plus the cached run's hit/miss totals.
#[derive(Clone, Copy, Debug)]
pub struct RepeatedAreasRow {
    /// The measured workload.
    pub config: RepeatedAreasConfig,
    /// Mean µs/query, raw areas.
    pub raw_us: f64,
    /// Mean µs/query, preparing per query.
    pub prepare_once_us: f64,
    /// Mean µs/query, session prepared-area cache.
    pub cached_us: f64,
    /// Cache traffic of the (timed) cached run.
    pub cache: CacheCounters,
}

impl RepeatedAreasRow {
    /// Speedup of the cache over raw areas.
    pub fn speedup_vs_raw(&self) -> f64 {
        self.raw_us / self.cached_us
    }

    /// Speedup of the cache over per-query preparation.
    pub fn speedup_vs_prepare_once(&self) -> f64 {
        self.prepare_once_us / self.cached_us
    }
}

/// Runs the repeated-areas workload under each prepare mode and returns
/// the mean per-query times. Results are cross-checked for equality while
/// measuring (outside the timed region).
pub fn measure_repeated_areas(cfg: &RepeatedAreasConfig) -> RepeatedAreasRow {
    let engine = standard_engine(cfg.data_size);
    let areas = polygon_batch_with(cfg.query_size, cfg.distinct_areas, cfg.vertices);
    let queries = cfg.distinct_areas * cfg.rounds;

    // Cross-check: all three modes answer identically on this workload.
    {
        let mut session = engine.session();
        for area in &areas {
            let raw = session.execute(&QuerySpec::voronoi(), area);
            for prepare in [PrepareMode::PrepareOnce, PrepareMode::Cached] {
                let out = session.execute(&QuerySpec::voronoi().prepare(prepare), area);
                assert_eq!(
                    out.result().unwrap().indices,
                    raw.result().unwrap().indices,
                    "prepare modes diverged"
                );
            }
        }
    }

    let time_mode = |prepare: PrepareMode| -> (f64, CacheCounters) {
        let spec = QuerySpec::voronoi().prepare(prepare);
        let mut best = f64::INFINITY;
        let mut cache = CacheCounters::default();
        for _ in 0..cfg.reps {
            // A fresh session per batch: the first sweep of a cached batch
            // pays the misses, the remaining `rounds - 1` sweeps hit —
            // exactly a dashboard warming up.
            let mut session = QuerySession::new(&engine);
            let mut sink = 0usize;
            let t0 = Instant::now();
            for _ in 0..cfg.rounds {
                for area in &areas {
                    sink = sink.wrapping_add(session.execute(&spec, area).count());
                }
            }
            let us = t0.elapsed().as_secs_f64() * 1e6 / queries as f64;
            std::hint::black_box(sink);
            if us < best {
                best = us;
                cache = session.cache_counters();
            }
        }
        (best, cache)
    };

    let (raw_us, _) = time_mode(PrepareMode::Raw);
    let (prepare_once_us, _) = time_mode(PrepareMode::PrepareOnce);
    let (cached_us, cache) = time_mode(PrepareMode::Cached);
    RepeatedAreasRow {
        config: *cfg,
        raw_us,
        prepare_once_us,
        cached_us,
        cache,
    }
}

/// Renders the measurement as the `BENCH_query_cache.json` baseline
/// document.
pub fn query_cache_report_json(row: &RepeatedAreasRow, prov: &Provenance) -> String {
    let c = &row.config;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(
        s,
        "  \"benchmark\": \"prepared_area_cache_repeated_areas\","
    );
    let _ = writeln!(s, "  \"provenance\": {},", prov.json_object());
    let _ = writeln!(
        s,
        "  \"workload\": {{\"data_size\": {}, \"distinct_areas\": {}, \"vertices\": {}, \
\"query_size\": {}, \"rounds\": {}}},",
        c.data_size, c.distinct_areas, c.vertices, c.query_size, c.rounds
    );
    let _ = writeln!(s, "  \"units\": \"us_per_query\",");
    let _ = writeln!(s, "  \"raw\": {:.1},", row.raw_us);
    let _ = writeln!(s, "  \"prepare_once\": {:.1},", row.prepare_once_us);
    let _ = writeln!(s, "  \"cached\": {:.1},", row.cached_us);
    let _ = writeln!(
        s,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}},",
        row.cache.hits,
        row.cache.misses,
        row.cache.hit_rate()
    );
    let _ = writeln!(s, "  \"speedup_vs_raw\": {:.2},", row.speedup_vs_raw());
    let _ = writeln!(
        s,
        "  \"speedup_vs_prepare_once\": {:.2}",
        row.speedup_vs_prepare_once()
    );
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_sane() {
        let row = measure_repeated_areas(&RepeatedAreasConfig::quick());
        assert!(row.raw_us > 0.0);
        assert!(row.prepare_once_us > 0.0);
        assert!(row.cached_us > 0.0);
        // 4 distinct areas, 5 rounds: 4 misses, 16 hits.
        assert_eq!(row.cache.misses, 4);
        assert_eq!(row.cache.hits, 16);
        assert!(row.cache.hit_rate() > 0.75);
    }

    #[test]
    fn json_report_shape() {
        let row = RepeatedAreasRow {
            config: RepeatedAreasConfig::quick(),
            raw_us: 100.0,
            prepare_once_us: 60.0,
            cached_us: 20.0,
            cache: CacheCounters {
                hits: 16,
                misses: 4,
            },
        };
        let prov = Provenance::capture(row.config.data_size as u64, 64, 1);
        let json = query_cache_report_json(&row, &prov);
        assert!(json.contains("\"provenance\""));
        assert!(json.contains("\"speedup_vs_raw\": 5.00"));
        assert!(json.contains("\"speedup_vs_prepare_once\": 3.00"));
        assert!(json.contains("\"hits\": 16"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }
}
