//! Exact-count determinism: the counters a later change may rest a
//! count-based claim on repeat bit for bit for a fixed seed, and move
//! under another seed. Runs every workload at `Scale::small`, through the
//! same code as the benchmark.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use perfbench::{run, RunConfig, Scale, Workload};
use std::collections::BTreeMap;

fn counts(workload: Workload, seed: u64) -> BTreeMap<&'static str, u64> {
    let cfg = RunConfig {
        workload,
        seed,
        seconds: 0.05,
        trace: false,
        scale: Scale::small(),
    };
    let out = run(&cfg);
    assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.failures);
    out.counts
}

fn check(workload: Workload, names: &[&str]) {
    let a = counts(workload, 7);
    let b = counts(workload, 7);
    let c = counts(workload, 8);
    for name in names
        .iter()
        .chain(&["candidates", "accepted", "snapshot_bytes"])
    {
        assert!(a.contains_key(name), "{}: no count {name}", workload.name());
    }
    assert_eq!(a, b, "{}: counts differ under one seed", workload.name());
    assert_ne!(
        a["candidates"],
        c["candidates"],
        "{}: seed has no effect",
        workload.name()
    );
    assert_ne!(a, c, "{}: seed has no effect", workload.name());
}

#[test]
fn paper_counts_repeat() {
    check(Workload::Paper, &[]);
}

#[test]
fn dashboard_counts_repeat() {
    check(
        Workload::Dashboard,
        &[
            "cache_hits",
            "cache_misses",
            "hidden_examined",
            "hidden_pruned",
        ],
    );
    assert!(
        counts(Workload::Dashboard, 7)["hidden_examined"] > 0,
        "the weighted Voronoi path examines hidden sites"
    );
}

#[test]
fn churn_counts_repeat() {
    let names = ["delta_scanned", "compactions"];
    check(Workload::Churn, &names);
    assert!(
        counts(Workload::Churn, 7)["compactions"] >= 2,
        "prefix spans compactions"
    );
}

#[test]
fn sharded_counts_repeat() {
    check(Workload::Sharded, &["shards_visited", "shards_pruned"]);
}

fn traced(workload: Workload) -> perfbench::Outcome {
    let cfg = RunConfig {
        workload,
        seed: 3,
        seconds: 0.05,
        trace: true,
        scale: Scale::small(),
    };
    let out = run(&cfg);
    assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.failures);
    out
}

/// Asserts that each named per-layer metric was measured (is above 0).
fn measured(out: &perfbench::Outcome, names: &[&str]) {
    for name in names {
        let v = out.layers.get(name).copied().unwrap_or(0.0);
        assert!(v > 0.0, "{name} = {v}");
    }
}

#[test]
fn traced_runs_measure_snapshot_layers() {
    for workload in Workload::ALL {
        let out = traced(workload);
        let snapshot: Vec<&str> = perfbench::PER_LAYER
            .iter()
            .map(|d| d.name)
            .filter(|n| n.starts_with("snapshot."))
            .collect();
        measured(&out, &snapshot);
    }
}

#[test]
fn traced_dashboard_measures_the_weighted_voronoi_path() {
    let out = traced(Workload::Dashboard);
    measured(
        &out,
        &[
            "hidden.examined",
            "delaunay.seed_us",
            "voronoi_query.expand_us",
            "voronoi_query.candidate_ratio",
            "rtree.window_us",
        ],
    );
}

#[test]
fn result_line_names_every_metric() {
    let out = traced(Workload::Paper);
    for (trace, defs) in [(false, perfbench::END_TO_END), (true, perfbench::PER_LAYER)] {
        let line = out.result_line(trace);
        for d in defs {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\"", d.name)),
                "{line}"
            );
        }
    }
    assert!(out.e2e.values().all(|v| *v > 0.0), "{:?}", out.e2e);
}
