//! Reproduction driver: regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce [all|table1|table2|fig4|fig5|fig6|fig7|ablation|prepared|knn
//!            |payload|planner|power] [--reps N] [--quick] [--payload BYTES] [--out DIR]
//! ```
//!
//! * **table1** (also fig4/fig5): data-size sweep 1E5…1E6 at query size 1 %.
//! * **table2** (also fig6/fig7): query-size sweep 1 %…32 % at 1E5 points.
//! * **ablation**: candidate-level design ablations (expansion policy,
//!   point distribution, query-polygon vertex count) → `ablation_*.csv`.
//! * **prepared**: raw vs prepared query-area primitives →
//!   `BENCH_prepared.json`.
//! * **knn**, **payload**: the kNN-within-area and payload-materialising
//!   sinks against collecting → `BENCH_knn.json`, `BENCH_payload.json`.
//! * **planner**: the cost-model planner against every fixed strategy
//!   and the per-query oracle → `BENCH_planner.json`.
//! * **power**: weighted (power-diagram) vs Euclidean build time, batch
//!   query throughput (on every available core) and hidden-site count at
//!   10⁶ points → `BENCH_power.json`.
//! * `all` runs the tables, figures, ablations and `prepared`; the other
//!   targets run only when named.
//! * `--reps N` — repetitions per configuration (default 200; the paper
//!   uses 1000 — pass `--reps 1000` for the exact protocol).
//! * `--quick` — divide data sizes by 10 and reps by 4 (smoke run).
//! * `--payload N` — simulated geometry-record size in bytes per point
//!   (default 1024, which restores the validation-dominated cost model of
//!   the paper's GIS setting; pass `--payload 0` for the pure in-memory
//!   regime, where the candidate counts still reproduce but raw Rust
//!   containment tests are too cheap for the filter savings to dominate
//!   wall time).
//! * `--out DIR` — output directory (default `results/`).
//!
//! Prints the tables in the paper's layout and writes one CSV per table
//! and per figure. Figures 4–7 plot columns of the tables, so their CSVs
//! are column pairs (x, traditional, voronoi) ready for any plotting tool.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use vaq_workload::report::{figure_csv, to_csv, to_markdown};
use vaq_workload::{
    data_size_sweep, paper_data_sizes, paper_query_sizes, query_size_sweep, ConfigResult,
    SweepConfig,
};

struct Args {
    what: String,
    reps: usize,
    quick: bool,
    payload: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut what = String::from("all");
    let mut reps = 200usize;
    let mut quick = false;
    let mut payload = 1024usize;
    let mut out = PathBuf::from("results");
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "all" | "table1" | "table2" | "fig4" | "fig5" | "fig6" | "fig7" | "ablation"
            | "prepared" | "knn" | "payload" | "planner" | "power" => {
                what = arg;
            }
            "--reps" => {
                let v = it.next().ok_or("--reps needs a value")?;
                reps = v.parse().map_err(|_| format!("bad --reps value: {v}"))?;
            }
            "--quick" => quick = true,
            "--payload" => {
                let v = it.next().ok_or("--payload needs a value")?;
                payload = v.parse().map_err(|_| format!("bad --payload value: {v}"))?;
            }
            "--out" => {
                out = PathBuf::from(it.next().ok_or("--out needs a value")?);
            }
            "--help" | "-h" => {
                return Err(String::from(
                    "usage: reproduce \
[all|table1|table2|fig4|fig5|fig6|fig7|ablation|prepared|knn|payload|planner|power] \
[--reps N] [--quick] [--payload BYTES] [--out DIR]",
                ));
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        what,
        reps,
        quick,
        payload,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let cfg = SweepConfig {
        reps: if args.quick {
            args.reps.div_ceil(4)
        } else {
            args.reps
        },
        payload_bytes: args.payload,
        ..SweepConfig::default()
    };

    let data_sizes: Vec<usize> = if args.quick {
        paper_data_sizes().iter().map(|n| n / 10).collect()
    } else {
        paper_data_sizes()
    };
    let table2_n = if args.quick { 10_000 } else { 100_000 };

    let need_t1 = matches!(args.what.as_str(), "all" | "table1" | "fig4" | "fig5");
    let need_t2 = matches!(args.what.as_str(), "all" | "table2" | "fig6" | "fig7");
    let need_ablation = matches!(args.what.as_str(), "all" | "ablation");

    if need_t1 {
        eprintln!(
            "== Table I / Figs 4-5: data size sweep {:?} at query size 1% ({} reps) ==",
            data_sizes, cfg.reps
        );
        let rows = data_size_sweep(&data_sizes, 0.01, &cfg, |r| {
            eprintln!(
                "  n={:>8}  result {:8.2}  trad {:9.2} cand {:9.1} us  voro {:9.2} cand {:9.1} us  (saved {:4.1}% time, {:4.1}% cand)",
                r.data_size,
                r.result_size,
                r.traditional.candidates,
                r.traditional.time_us,
                r.voronoi.candidates,
                r.voronoi.time_us,
                r.time_saving_pct(),
                r.candidate_saving_pct()
            );
        });
        emit_table(&args, "table1", "Data size", &rows);
        emit_figure(&args, "fig4", &rows, "data_size", "time_us", |r| {
            (r.data_size as f64, r.traditional.time_us, r.voronoi.time_us)
        });
        emit_figure(
            &args,
            "fig5",
            &rows,
            "data_size",
            "redundant_validations",
            |r| {
                (
                    r.data_size as f64,
                    r.traditional.redundant,
                    r.voronoi.redundant,
                )
            },
        );
    }

    if need_t2 {
        let query_sizes = paper_query_sizes();
        eprintln!(
            "== Table II / Figs 6-7: query size sweep {:?} at n={} ({} reps) ==",
            query_sizes, table2_n, cfg.reps
        );
        let rows = query_size_sweep(table2_n, &query_sizes, &cfg, |r| {
            eprintln!(
                "  qs={:>4.0}%  result {:9.2}  trad {:9.2} cand {:9.1} us  voro {:9.2} cand {:9.1} us  (saved {:4.1}% time, {:4.1}% cand)",
                r.query_size * 100.0,
                r.result_size,
                r.traditional.candidates,
                r.traditional.time_us,
                r.voronoi.candidates,
                r.voronoi.time_us,
                r.time_saving_pct(),
                r.candidate_saving_pct()
            );
        });
        emit_table(&args, "table2", "Query size", &rows);
        emit_figure(&args, "fig6", &rows, "query_size_pct", "time_us", |r| {
            (
                r.query_size * 100.0,
                r.traditional.time_us,
                r.voronoi.time_us,
            )
        });
        emit_figure(
            &args,
            "fig7",
            &rows,
            "query_size_pct",
            "redundant_validations",
            |r| {
                (
                    r.query_size * 100.0,
                    r.traditional.redundant,
                    r.voronoi.redundant,
                )
            },
        );
    }

    if need_ablation {
        run_ablations(&args, &cfg);
    }

    if matches!(args.what.as_str(), "all" | "prepared") {
        run_prepared_baseline(&args);
    }

    // Explicit targets only, to keep `all` at its cost (`power` alone
    // builds two 10⁶-point engines).
    if args.what == "knn" {
        run_knn_baseline(&args);
    }
    if args.what == "payload" {
        run_payload_baseline(&args);
    }
    if args.what == "planner" {
        run_planner_baseline(&args);
    }
    if args.what == "power" {
        run_power_baseline(&args);
    }

    eprintln!("done; outputs in {}", args.out.display());
    ExitCode::SUCCESS
}

/// Measures the kNN-within-area sink against the collecting baseline
/// (plain + sharded) and records the `BENCH_knn.json` baseline.
fn run_knn_baseline(args: &Args) {
    use vaq_bench::knn::{knn_report_json, measure_knn, KnnBenchConfig};
    use vaq_bench::provenance::Provenance;

    let cfg = if args.quick {
        KnnBenchConfig::quick()
    } else {
        KnnBenchConfig::standard()
    };
    eprintln!(
        "== kNN-within-area: {} points, {} areas (query size {}), k = {:?}, {} shards ==",
        cfg.data_size, cfg.distinct_areas, cfg.query_size, cfg.ks, cfg.shards
    );
    let rows = measure_knn(&cfg);
    for r in &rows {
        eprintln!(
            "  k={:>5}  collect {:9.1} q/s   knn {:9.1} q/s ({:.2}x)   sharded knn {:9.1} q/s   kept {:7.1}",
            r.k,
            r.collect_qps,
            r.knn_qps,
            r.knn_vs_collect(),
            r.sharded_knn_qps,
            r.mean_kept,
        );
    }
    let prov = Provenance::capture(
        cfg.data_size as u64,
        (cfg.distinct_areas * cfg.rounds * cfg.ks.len()) as u64,
        1,
    );
    let json = knn_report_json(&cfg, &rows, &prov);
    let path = args.out.join("BENCH_knn.json");
    fs::write(&path, json).expect("write BENCH_knn.json");
    eprintln!("wrote {}", path.display());
}

/// Measures the payload-materialising sink across record sizes (plain +
/// sharded per-shard stores) and records the `BENCH_payload.json`
/// baseline.
fn run_payload_baseline(args: &Args) {
    use vaq_bench::payload::{measure_payload, payload_report_json, PayloadBenchConfig};
    use vaq_bench::provenance::Provenance;

    let cfg = if args.quick {
        PayloadBenchConfig::quick()
    } else {
        PayloadBenchConfig::standard()
    };
    eprintln!(
        "== Payload materialisation: {} points, {} areas (query size {}), record sizes {:?}, {} shards ==",
        cfg.data_size, cfg.distinct_areas, cfg.query_size, cfg.payload_bytes, cfg.shards
    );
    let rows = measure_payload(&cfg);
    for r in &rows {
        eprintln!(
            "  {:>5} B/record  collect {:9.1} q/s   materialize {:9.1} q/s ({:.2}x)   sharded {:9.1} q/s   results {:7.1}",
            r.payload_bytes,
            r.collect_qps,
            r.materialize_qps,
            r.materialize_vs_collect(),
            r.sharded_materialize_qps,
            r.mean_results,
        );
    }
    let prov = Provenance::capture(
        cfg.data_size as u64,
        (cfg.distinct_areas * cfg.rounds * cfg.payload_bytes.len()) as u64,
        1,
    );
    let json = payload_report_json(&cfg, &rows, &prov);
    let path = args.out.join("BENCH_payload.json");
    fs::write(&path, json).expect("write BENCH_payload.json");
    eprintln!("wrote {}", path.display());
}

/// Measures the weighted (power-diagram) engine against the Euclidean
/// engine over the same points — build time, batch query throughput and
/// hidden-site count — and records the `BENCH_power.json` baseline.
fn run_power_baseline(args: &Args) {
    use vaq_bench::power::{measure_power, power_report_json, PowerBenchConfig};
    use vaq_bench::provenance::Provenance;

    let cfg = if args.quick {
        PowerBenchConfig::quick()
    } else {
        PowerBenchConfig::standard()
    };
    eprintln!(
        "== Power diagram: {} points, max radius {}, {} areas (query size {}) ==",
        cfg.data_size, cfg.max_radius, cfg.distinct_areas, cfg.query_size
    );
    let row = measure_power(&cfg);
    eprintln!(
        "  build: euclidean {:.3} s -> weighted {:.3} s ({:.2}x), {} hidden site(s)",
        row.euclidean_build_s,
        row.power_build_s,
        row.build_overhead(),
        row.hidden_sites,
    );
    eprintln!(
        "  query: euclidean {:9.1} q/s -> weighted {:9.1} q/s ({:.2}x cost), {} threads",
        row.euclidean_qps,
        row.power_qps,
        row.query_overhead(),
        row.threads,
    );
    let prov = Provenance::capture(
        cfg.data_size as u64,
        (cfg.distinct_areas * cfg.rounds) as u64,
        row.threads,
    );
    let json = power_report_json(&row, &prov);
    let path = args.out.join("BENCH_power.json");
    fs::write(&path, json).expect("write BENCH_power.json");
    eprintln!("wrote {}", path.display());
}

/// Races the cost-model planner against every fixed strategy (and the
/// per-query oracle) over an area-size × vertex-count × distribution
/// sweep, and records the `BENCH_planner.json` baseline.
fn run_planner_baseline(args: &Args) {
    use vaq_bench::planner::{
        fixed_strategies, measure_planner, planner_report_json, planner_totals, PlannerBenchConfig,
    };
    use vaq_bench::provenance::Provenance;

    let cfg = if args.quick {
        PlannerBenchConfig::quick()
    } else {
        PlannerBenchConfig::standard()
    };
    eprintln!(
        "== Query planner: {} points x {:?}, areas {:?} x k {:?}, {} areas/cell ==",
        cfg.data_size,
        cfg.distributions
            .iter()
            .map(|&(n, _)| n)
            .collect::<Vec<_>>(),
        cfg.query_sizes,
        cfg.vertex_counts,
        cfg.areas_per_cell
    );
    let names: Vec<&str> = fixed_strategies().iter().map(|&(n, _)| n).collect();
    let cells = measure_planner(&cfg);
    for c in &cells {
        eprintln!(
            "  {:9} qs={:5.3} k={:3}  planner {:10.0} u ({:8.1} q/s)   oracle {:10.0} u   best fixed {:15} {:10.0} u ({:8.1} q/s)",
            c.distribution,
            c.query_size,
            c.vertices,
            c.planner_units,
            c.planner_qps,
            c.oracle_units,
            names[c.best_fixed],
            c.fixed_units[c.best_fixed],
            c.best_fixed_qps,
        );
    }
    let totals = planner_totals(&cells);
    eprintln!(
        "  totals: planner {:.0} u, oracle {:.0} u (ratio {:.3}); fixed {:?} -> beats all: {}",
        totals.planner_units,
        totals.oracle_units,
        totals.vs_oracle(),
        totals.fixed_units.map(|u| u.round()),
        totals.beats_all_fixed(),
    );
    let queries =
        cells.len() as u64 * cfg.areas_per_cell as u64 * (1 + fixed_strategies().len() as u64);
    let prov = Provenance::capture(cfg.data_size as u64, queries, 1);
    let json = planner_report_json(&cfg, &cells, &prov);
    let path = args.out.join("BENCH_planner.json");
    fs::write(&path, json).expect("write BENCH_planner.json");
    eprintln!("wrote {}", path.display());
}

/// Measures raw vs prepared query-area primitives across vertex counts
/// and records the `BENCH_prepared.json` baseline.
fn run_prepared_baseline(args: &Args) {
    use vaq_bench::prepared::{measure_prepared_primitives, prepared_report_json, standard_ks};

    let ks = if args.quick {
        vec![8, 64, 256]
    } else {
        standard_ks()
    };
    let probes = if args.quick { 512 } else { 4096 };
    eprintln!("== Prepared-area primitives: raw vs prepared, k = {ks:?} ==");
    let rows = measure_prepared_primitives(&ks, probes);
    for r in &rows {
        eprintln!(
            "  k={:>5}  contains {:8.1} -> {:7.1} ns ({:5.1}x)   segment {:8.1} -> {:7.1} ns ({:5.1}x)   prepare {:9.0} ns",
            r.k,
            r.contains_raw_ns,
            r.contains_prepared_ns,
            r.contains_speedup(),
            r.segment_raw_ns,
            r.segment_prepared_ns,
            r.segment_speedup(),
            r.prepare_ns,
        );
    }
    let prov = vaq_bench::provenance::Provenance::capture(0, (ks.len() * probes) as u64, 1);
    let json = prepared_report_json(&rows, &prov);
    let path = args.out.join("BENCH_prepared.json");
    fs::write(&path, json).expect("write BENCH_prepared.json");
    eprintln!("wrote {}", path.display());
}

/// Candidate-level ablations: the machine-independent counters of each
/// design choice.
fn run_ablations(args: &Args, cfg: &SweepConfig) {
    use vaq_core::ExpansionPolicy;
    use vaq_workload::Distribution;

    let n = if args.quick { 10_000 } else { 100_000 };
    eprintln!(
        "== Ablations at n={n}, query size 1% ({} reps) ==",
        cfg.reps
    );

    // 1. Expansion policy: identical results, different boundary tests.
    let mut rows =
        String::from("policy,result_size,candidates,redundant,segment_tests,cell_tests\n");
    for (name, policy) in [
        ("segment", ExpansionPolicy::Segment),
        ("cell", ExpansionPolicy::Cell),
    ] {
        let sub = SweepConfig { policy, ..*cfg };
        let engine = vaq_workload::build_engine(n, &sub);
        let stats = ablation_stats(&engine, &sub);
        eprintln!(
            "  policy {name:8}: result {:.1} candidates {:.1} segment_tests {:.1} cell_tests {:.1}",
            stats.0, stats.1, stats.3, stats.4
        );
        rows.push_str(&format!(
            "{name},{:.2},{:.2},{:.2},{:.2},{:.2}\n",
            stats.0, stats.1, stats.2, stats.3, stats.4
        ));
    }
    fs::write(args.out.join("ablation_policy.csv"), &rows).expect("write csv");

    // 2. Distribution: uniform vs clustered.
    let mut rows = String::from(
        "distribution,result_size,trad_candidates,voro_candidates,candidate_saving_pct\n",
    );
    for (name, dist) in [
        ("uniform", Distribution::Uniform),
        (
            "clustered",
            Distribution::Clustered {
                clusters: 20,
                sigma: 0.02,
            },
        ),
    ] {
        let sub = SweepConfig {
            distribution: dist,
            ..*cfg
        };
        let engine = vaq_workload::build_engine(n, &sub);
        let row = vaq_workload::run_config(&engine, 0.01, &sub);
        eprintln!(
            "  distribution {name:10}: trad {:.1} voro {:.1} (saved {:.1}%)",
            row.traditional.candidates,
            row.voronoi.candidates,
            row.candidate_saving_pct()
        );
        rows.push_str(&format!(
            "{name},{:.2},{:.2},{:.2},{:.1}\n",
            row.result_size,
            row.traditional.candidates,
            row.voronoi.candidates,
            row.candidate_saving_pct()
        ));
    }
    fs::write(args.out.join("ablation_distribution.csv"), &rows).expect("write csv");

    // 3. Query-polygon vertex count (the paper fixes 10).
    let mut rows =
        String::from("vertices,result_size,trad_candidates,voro_candidates,candidate_saving_pct\n");
    let engine = vaq_workload::build_engine(n, cfg);
    for k in [4usize, 10, 20, 40] {
        let sub = SweepConfig {
            polygon_vertices: k,
            ..*cfg
        };
        let row = vaq_workload::run_config(&engine, 0.01, &sub);
        eprintln!(
            "  {k:2}-gon queries: result {:.1} trad {:.1} voro {:.1} (saved {:.1}%)",
            row.result_size,
            row.traditional.candidates,
            row.voronoi.candidates,
            row.candidate_saving_pct()
        );
        rows.push_str(&format!(
            "{k},{:.2},{:.2},{:.2},{:.1}\n",
            row.result_size,
            row.traditional.candidates,
            row.voronoi.candidates,
            row.candidate_saving_pct()
        ));
    }
    fs::write(args.out.join("ablation_vertices.csv"), &rows).expect("write csv");
}

/// Runs the Voronoi method only, returning mean (result, candidates,
/// redundant, segment_tests, cell_tests).
fn ablation_stats(
    engine: &vaq_core::AreaQueryEngine,
    cfg: &SweepConfig,
) -> (f64, f64, f64, f64, f64) {
    use vaq_core::QuerySpec;
    use vaq_workload::{random_query_polygon, unit_space, PolygonSpec};
    let spec = PolygonSpec {
        vertices: cfg.polygon_vertices,
        query_size: 0.01,
        min_radius_ratio: cfg.min_radius_ratio,
    };
    let space = unit_space();
    let mut session = engine.session();
    let query_spec = QuerySpec::voronoi().policy(cfg.policy);
    let mut acc = (0.0, 0.0, 0.0, 0.0, 0.0);
    for rep in 0..cfg.reps as u64 {
        let poly = random_query_polygon(&space, &spec, cfg.base_seed.wrapping_add(rep * 31));
        let out = session.execute(&query_spec, &poly);
        let stats = out.stats();
        acc.0 += stats.result_size as f64;
        acc.1 += stats.candidates as f64;
        acc.2 += stats.redundant_validations() as f64;
        acc.3 += stats.segment_tests as f64;
        acc.4 += stats.cell_tests as f64;
    }
    let k = cfg.reps as f64;
    (acc.0 / k, acc.1 / k, acc.2 / k, acc.3 / k, acc.4 / k)
}

fn emit_table(args: &Args, name: &str, sweep_col: &str, rows: &[ConfigResult]) {
    let csv_path = args.out.join(format!("{name}.csv"));
    fs::write(&csv_path, to_csv(rows)).expect("write table csv");
    let md = to_markdown(rows, sweep_col);
    fs::write(args.out.join(format!("{name}.md")), &md).expect("write table md");
    println!("\n### {name} ({sweep_col} sweep)\n\n{md}");
}

fn emit_figure(
    args: &Args,
    name: &str,
    rows: &[ConfigResult],
    x: &str,
    y: &str,
    pick: impl Fn(&ConfigResult) -> (f64, f64, f64),
) {
    let csv = figure_csv(rows, x, y, pick);
    fs::write(args.out.join(format!("{name}.csv")), csv).expect("write figure csv");
}
