//! End-to-end test of the `vaq` command-line binary: CSV in, WKT area,
//! results/count/SVG out.

use std::process::Command;

fn vaq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vaq"))
}

fn write_points(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("pts.csv");
    let mut csv = String::from("x,y\n");
    // A 10×10 jittered grid, deterministic.
    for i in 0..100 {
        let x = f64::from(i % 10) / 10.0 + 0.05;
        let y = f64::from(i / 10) / 10.0 + 0.05;
        csv.push_str(&format!("{x},{y}\n"));
    }
    std::fs::write(&path, csv).expect("write csv");
    path
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vaq-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn query_count_matches_both_methods() {
    let dir = temp_dir("count");
    let pts = write_points(&dir);
    let out = vaq()
        .args([
            "query",
            "--points",
            pts.to_str().unwrap(),
            "--area",
            "POLYGON ((0.0 0.0, 0.5 0.0, 0.5 0.5, 0.0 0.5))",
            "--method",
            "both",
            "--count",
        ])
        .output()
        .expect("run vaq");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The quarter square holds the 5×5 sub-grid.
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "25");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("voronoi:"), "{stderr}");
    assert!(stderr.contains("traditional:"), "{stderr}");
}

#[test]
fn prepared_query_matches_raw_query() {
    let dir = temp_dir("prepared");
    let pts = write_points(&dir);
    let area = "POLYGON ((0.0 0.0, 1.0 0.0, 1.0 1.0, 0.0 1.0), \
                (0.2 0.2, 0.8 0.2, 0.8 0.8, 0.2 0.8))";
    let run = |prepared: bool| -> Vec<String> {
        let mut args = vec![
            "query",
            "--points",
            pts.to_str().unwrap(),
            "--area",
            area,
            "--method",
            "both",
        ];
        if prepared {
            args.push("--prepared");
        }
        let out = vaq().args(&args).output().expect("run vaq");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::str::from_utf8(&out.stdout)
            .unwrap()
            .lines()
            .map(String::from)
            .collect()
    };
    let raw = run(false);
    let prepared = run(true);
    assert!(!raw.is_empty());
    assert_eq!(raw, prepared, "--prepared must not change results");
}

#[test]
fn query_lists_indices() {
    let dir = temp_dir("list");
    let pts = write_points(&dir);
    let out = vaq()
        .args([
            "query",
            "--points",
            pts.to_str().unwrap(),
            "--area",
            "POLYGON ((0.0 0.0, 0.22 0.0, 0.22 0.22, 0.0 0.22))",
        ])
        .output()
        .expect("run vaq");
    assert!(out.status.success());
    let ids: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    // Points (0.05,0.05), (0.15,0.05), (0.05,0.15), (0.15,0.15) → ids 0,1,10,11.
    assert_eq!(ids, vec!["0", "1", "10", "11"]);
}

#[test]
fn query_supports_region_with_hole() {
    let dir = temp_dir("hole");
    let pts = write_points(&dir);
    let full = "POLYGON ((0.0 0.0, 1.0 0.0, 1.0 1.0, 0.0 1.0))";
    let holed = "POLYGON ((0.0 0.0, 1.0 0.0, 1.0 1.0, 0.0 1.0), \
                 (0.2 0.2, 0.8 0.2, 0.8 0.8, 0.2 0.8))";
    let count = |wkt: &str| -> usize {
        let out = vaq()
            .args([
                "query",
                "--points",
                pts.to_str().unwrap(),
                "--area",
                wkt,
                "--count",
            ])
            .output()
            .expect("run vaq");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).trim().parse().unwrap()
    };
    assert_eq!(count(full), 100);
    // The hole (0.2..0.8)² strictly excludes the 5×5 inner grid points at
    // 0.25..0.75 → wait: 0.25,0.35,...,0.75 is 6 values; points ON the hole
    // boundary stay in the region, and none of the grid points lie on it.
    let inner = (0..100)
        .filter(|i| {
            let x = f64::from(i % 10) / 10.0 + 0.05;
            let y = f64::from(i / 10) / 10.0 + 0.05;
            (0.2..=0.8).contains(&x) && (0.2..=0.8).contains(&y)
        })
        .count();
    assert_eq!(count(holed), 100 - inner);
}

#[test]
fn window_query_matches_equivalent_polygon() {
    let dir = temp_dir("window");
    let pts = write_points(&dir);
    let run = |args: &[&str]| -> Vec<String> {
        let out = vaq()
            .args(["query", "--points", pts.to_str().unwrap()])
            .args(args)
            .output()
            .expect("run vaq");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::str::from_utf8(&out.stdout)
            .unwrap()
            .lines()
            .map(String::from)
            .collect()
    };
    // Same closed rectangle as window and as WKT polygon.
    let windowed = run(&["--window", "0.1,0.1,0.5,0.5", "--method", "both"]);
    let polygonal = run(&[
        "--area",
        "POLYGON ((0.1 0.1, 0.5 0.1, 0.5 0.5, 0.1 0.5))",
        "--method",
        "both",
    ]);
    assert!(!windowed.is_empty());
    assert_eq!(windowed, polygonal, "window and polygon queries agree");
    // Brute-force method and counting work on windows too.
    let counted = run(&[
        "--window",
        "0.1,0.1,0.5,0.5",
        "--method",
        "brute",
        "--count",
    ]);
    assert_eq!(counted, vec![windowed.len().to_string()]);
    // Malformed and degenerate windows fail cleanly (non-zero exit, a
    // diagnostic on stderr, no panic backtrace).
    for bad in [
        "0.1,0.1,0.5",         // too few coordinates
        "a,b,c,d",             // not numbers
        "0.1,0.1,0.5,0.5,0.9", // too many coordinates
        "0.5,0.1,0.1,0.5",     // x0 > x1 (flipped)
        "0.1,0.5,0.5,0.1",     // y0 > y1 (flipped)
        "0.5,0.1,0.5,0.5",     // zero width
        "0.1,0.5,0.5,0.5",     // zero height
        "NaN,0.1,0.5,0.5",     // NaN coordinate
        "0.1,inf,0.5,0.5",     // infinite coordinate
    ] {
        let out = vaq()
            .args(["query", "--points", pts.to_str().unwrap(), "--window", bad])
            .output()
            .expect("run vaq");
        assert!(!out.status.success(), "--window {bad:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--window"),
            "--window {bad:?} should explain itself: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "--window {bad:?} must not panic: {stderr}"
        );
    }
}

#[test]
fn sharded_query_matches_unsharded() {
    let dir = temp_dir("sharded");
    let pts = write_points(&dir);
    let run = |extra: &[&str]| {
        let mut args = vec![
            "query",
            "--points",
            pts.to_str().unwrap(),
            "--area",
            "POLYGON ((0.0 0.0, 0.62 0.0, 0.55 0.55, 0.0 0.48))",
            "--method",
            "both",
        ];
        args.extend_from_slice(extra);
        let out = vaq().args(&args).output().expect("run vaq");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (unsharded, _) = run(&[]);
    let (sharded, stderr) = run(&["--shards", "4"]);
    assert_eq!(unsharded, sharded, "--shards must not change the indices");
    assert!(stderr.contains("4 shards over 100 points"), "{stderr}");
    assert!(stderr.contains("shards visited"), "{stderr}");

    // Bad shard counts fail cleanly with a diagnostic, not a panic.
    for bad in ["0", "minus", "", "-3", "1.5"] {
        let out = vaq()
            .args([
                "query",
                "--points",
                pts.to_str().unwrap(),
                "--window",
                "0.1,0.1,0.5,0.5",
                "--shards",
                bad,
            ])
            .output()
            .expect("run vaq");
        assert!(!out.status.success(), "--shards {bad:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--shards"),
            "--shards {bad:?} should explain itself: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "--shards {bad:?} must not panic: {stderr}"
        );
    }
}

/// `--shards 3 --prepared`, with and without `--threads 2`, runs the one
/// sharded route (a one-area batch that compiles the area once for every
/// shard): the same stdout and the same per-method stats lines as the
/// raw `--shards 3` query.
#[test]
fn sharded_prepared_query_matches_raw_sharded_query() {
    let dir = temp_dir("sharded-prepared");
    let pts = write_points(&dir);
    let run = |extra: &[&str]| {
        let mut args = vec![
            "query",
            "--points",
            pts.to_str().unwrap(),
            "--area",
            "POLYGON ((0.0 0.0, 1.0 0.0, 1.0 1.0, 0.0 1.0), \
             (0.2 0.2, 0.8 0.2, 0.8 0.8, 0.2 0.8))",
            "--method",
            "both",
            "--shards",
            "3",
        ];
        args.extend_from_slice(extra);
        let out = vaq().args(&args).output().expect("run vaq");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stats: Vec<String> = String::from_utf8_lossy(&out.stderr)
            .lines()
            .filter(|l| l.starts_with("voronoi:") || l.starts_with("traditional:"))
            .map(String::from)
            .collect();
        (String::from_utf8_lossy(&out.stdout).into_owned(), stats)
    };
    let (raw_out, raw_stats) = run(&[]);
    assert!(!raw_out.is_empty());
    assert_eq!(raw_stats.len(), 2, "{raw_stats:?}");
    for extra in [&["--prepared"][..], &["--prepared", "--threads", "2"]] {
        let (out, stats) = run(extra);
        assert_eq!(out, raw_out, "{extra:?}: indices");
        assert_eq!(stats, raw_stats, "{extra:?}: per-method stats lines");
    }
}

/// `--threads N|auto` routes the query through the batch executor's
/// worker pool: bit-identical stdout to the in-line path (plain and
/// sharded, auto and pinned methods), a worker-count line on stderr,
/// and clean diagnostics for malformed counts.
#[test]
fn threads_flag_matches_inline_and_fails_cleanly() {
    let dir = temp_dir("threads");
    let pts = write_points(&dir);
    let run = |extra: &[&str]| {
        let mut args = vec![
            "query",
            "--points",
            pts.to_str().unwrap(),
            "--area",
            "POLYGON ((0.0 0.0, 0.62 0.0, 0.55 0.55, 0.0 0.48))",
            "--method",
            "both",
        ];
        args.extend_from_slice(extra);
        let out = vaq().args(&args).output().expect("run vaq");
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (inline, _) = run(&[]);
    assert!(!inline.is_empty());
    for threads in ["1", "2", "auto", "0"] {
        let (threaded, stderr) = run(&["--threads", threads]);
        assert_eq!(
            threaded, inline,
            "--threads {threads} must not change the indices"
        );
        assert!(
            stderr.contains("worker thread"),
            "--threads {threads} should report its worker count: {stderr}"
        );
    }
    // `auto` and `0` resolve to the same worker count.
    let worker_line = |stderr: &str| {
        stderr
            .lines()
            .find(|l| l.contains("worker thread"))
            .map(str::to_owned)
    };
    let (_, auto_err) = run(&["--threads", "auto"]);
    let (_, zero_err) = run(&["--threads", "0"]);
    assert_eq!(worker_line(&auto_err), worker_line(&zero_err));

    // The sharded batch path agrees with the sharded in-line path too.
    let (sharded_inline, _) = run(&["--shards", "3"]);
    let (sharded_threaded, stderr) = run(&["--shards", "3", "--threads", "2"]);
    assert_eq!(sharded_inline, inline);
    assert_eq!(sharded_threaded, inline);
    assert!(stderr.contains("worker thread"), "{stderr}");

    // Bad worker counts fail cleanly with a diagnostic, not a panic.
    for bad in ["-2", "1.5", "minus", ""] {
        let out = vaq()
            .args([
                "query",
                "--points",
                pts.to_str().unwrap(),
                "--window",
                "0.1,0.1,0.5,0.5",
                "--threads",
                bad,
            ])
            .output()
            .expect("run vaq");
        assert!(!out.status.success(), "--threads {bad:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--threads"),
            "--threads {bad:?} should explain itself: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "--threads {bad:?} must not panic: {stderr}"
        );
    }
}

/// `--threads N` starts at most one worker per hardware thread: a
/// request past the machine's parallelism reports the same worker count
/// as `--threads auto` and prints the in-line indices. Three shards keep
/// the batch at three work items, so no run starts more than three
/// threads whatever it reports.
#[test]
fn threads_flag_is_capped_at_the_hardware_threads() {
    let dir = temp_dir("threads-cap");
    let pts = write_points(&dir);
    let run = |extra: &[&str]| {
        let mut args = vec![
            "query",
            "--points",
            pts.to_str().unwrap(),
            "--area",
            "POLYGON ((0.0 0.0, 0.62 0.0, 0.55 0.55, 0.0 0.48))",
            "--shards",
            "3",
        ];
        args.extend_from_slice(extra);
        let out = vaq().args(&args).output().expect("run vaq");
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let workers = stderr
            .lines()
            .find(|l| l.contains("worker thread"))
            .map(str::to_owned);
        (String::from_utf8_lossy(&out.stdout).into_owned(), workers)
    };
    let (inline, _) = run(&[]);
    assert!(!inline.is_empty());
    let (auto, auto_workers) = run(&["--threads", "auto"]);
    let (capped, capped_workers) = run(&["--threads", "100000"]);
    assert_eq!(auto, inline);
    assert_eq!(
        capped, inline,
        "--threads 100000 must not change the indices"
    );
    assert!(auto_workers.is_some());
    assert_eq!(
        capped_workers, auto_workers,
        "--threads 100000 is capped at the hardware threads"
    );
}

#[test]
fn info_reports_dataset_facts() {
    let dir = temp_dir("info");
    let pts = write_points(&dir);
    let out = vaq()
        .args(["info", "--points", pts.to_str().unwrap()])
        .output()
        .expect("run vaq");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("points:            100"), "{stdout}");
    assert!(stdout.contains("hull vertices:"), "{stdout}");
}

#[test]
fn svg_writes_a_scene() {
    let dir = temp_dir("svg");
    let pts = write_points(&dir);
    let svg_path = dir.join("scene.svg");
    let out = vaq()
        .args([
            "svg",
            "--points",
            pts.to_str().unwrap(),
            "--area",
            "POLYGON ((0.1 0.1, 0.6 0.15, 0.3 0.7))",
            "--out",
            svg_path.to_str().unwrap(),
        ])
        .output()
        .expect("run vaq");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("<circle"));
}

#[test]
fn bad_inputs_fail_cleanly() {
    let dir = temp_dir("bad");
    let pts = write_points(&dir);
    // Missing area.
    let out = vaq()
        .args(["query", "--points", pts.to_str().unwrap()])
        .output()
        .expect("run vaq");
    assert!(!out.status.success());
    // Malformed WKT.
    let out = vaq()
        .args([
            "query",
            "--points",
            pts.to_str().unwrap(),
            "--area",
            "POLYGON ((not numbers))",
        ])
        .output()
        .expect("run vaq");
    assert!(!out.status.success());
    // Missing file.
    let out = vaq()
        .args(["info", "--points", "/nonexistent/file.csv"])
        .output()
        .expect("run vaq");
    assert!(!out.status.success());
}

/// `--knn K --at X,Y`: the K nearest matches to the origin, nearest
/// first, ties by index — identical across the unsharded and sharded
/// (including `auto`) paths.
#[test]
fn knn_query_prints_nearest_matches() {
    let dir = temp_dir("knn");
    let pts = write_points(&dir);
    let base = [
        "query",
        "--points",
        pts.to_str().unwrap(),
        "--window",
        "0.0,0.0,0.5,0.5",
        "--knn",
        "3",
        "--at",
        "0.0,0.0",
    ];
    let run = |extra: &[&str]| {
        let mut args: Vec<&str> = base.to_vec();
        args.extend_from_slice(extra);
        let out = vaq().args(&args).output().expect("run vaq");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let plain = run(&[]);
    let lines: Vec<&str> = plain.lines().collect();
    assert_eq!(lines.len(), 3, "{plain}");
    // The grid corner (0.05, 0.05) is point 0; the two next-nearest
    // (0.15, 0.05) = 1 and (0.05, 0.15) = 10 tie exactly, so the
    // smaller index prints first.
    assert!(lines[0].starts_with("0 "), "{plain}");
    assert!(lines[1].starts_with("1 "), "{plain}");
    assert!(lines[2].starts_with("10 "), "{plain}");
    assert_eq!(
        run(&["--shards", "4"]),
        plain,
        "--shards must not change kNN"
    );
    assert_eq!(run(&["--shards", "auto"]), plain, "auto shards too");

    // --count prints the number of neighbours kept.
    let mut args: Vec<&str> = base.to_vec();
    args.push("--count");
    let out = vaq().args(&args).output().expect("run vaq");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
}

/// `--payload-bytes N` materialises every matching record: indices stay
/// identical to the plain query, and the checksum line appears — the
/// same value on the sharded path (per-shard stores split from one
/// logical store).
#[test]
fn payload_query_reports_checksums_and_same_indices() {
    let dir = temp_dir("payload");
    let pts = write_points(&dir);
    let run = |extra: &[&str]| {
        let mut args = vec![
            "query",
            "--points",
            pts.to_str().unwrap(),
            "--window",
            "0.0,0.0,0.5,0.5",
        ];
        args.extend_from_slice(extra);
        let out = vaq().args(&args).output().expect("run vaq");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (plain, _) = run(&[]);
    let (with_payload, stderr) = run(&["--payload-bytes", "512", "--method", "brute"]);
    assert_eq!(plain, with_payload, "payload must not change the indices");
    assert!(stderr.contains("payload checksum 0x"), "{stderr}");
    // The sharded path reports the same checksum for the brute-force
    // method (candidates partition exactly across shards).
    let (sharded, sharded_err) = run(&[
        "--payload-bytes",
        "512",
        "--method",
        "brute",
        "--shards",
        "3",
    ]);
    assert_eq!(sharded, plain);
    let checksum_line = |s: &str| {
        s.lines()
            .find(|l| l.contains("payload checksum"))
            .map(str::trim_start)
            .map(|l| l.split_whitespace().nth(2).unwrap_or("").to_string())
    };
    assert_eq!(
        checksum_line(&stderr),
        checksum_line(&sharded_err),
        "{sharded_err}"
    );
}

/// `--method auto` routes through the cost-model planner: identical
/// indices to the explicit methods (plain and sharded), `--verbose`
/// prints the chosen plan, and forcing planner-owned knobs alongside it
/// fails cleanly.
#[test]
fn auto_method_plans_and_rejects_conflicts() {
    let dir = temp_dir("auto");
    let pts = write_points(&dir);
    let run = |extra: &[&str]| {
        let mut args = vec![
            "query",
            "--points",
            pts.to_str().unwrap(),
            "--area",
            "POLYGON ((0.0 0.0, 0.62 0.0, 0.55 0.55, 0.0 0.48))",
        ];
        args.extend_from_slice(extra);
        let out = vaq().args(&args).output().expect("run vaq");
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (want, _) = run(&["--method", "voronoi"]);
    assert!(!want.is_empty());

    let (auto_out, stderr) = run(&["--method", "auto", "--verbose"]);
    assert_eq!(auto_out, want, "auto must return the explicit indices");
    assert!(stderr.contains("auto:"), "{stderr}");
    assert!(
        stderr.contains("plan") && stderr.contains("predicted"),
        "--verbose should print the chosen plan: {stderr}"
    );

    let (sharded, sharded_err) = run(&["--method", "auto", "--shards", "4", "--verbose"]);
    assert_eq!(sharded, want, "sharded auto agrees too");
    assert!(sharded_err.contains("plan"), "{sharded_err}");

    // Pinning the policy is allowed with an explicit method …
    let (cell, _) = run(&["--method", "voronoi", "--policy", "cell"]);
    assert_eq!(cell, want, "--policy cell must not change the answer");

    // … but planner-owned knobs conflict with `--method auto`.
    let expect_fail = |extra: &[&str], needle: &str| {
        let mut args = vec![
            "query",
            "--points",
            pts.to_str().unwrap(),
            "--window",
            "0.1,0.1,0.5,0.5",
        ];
        args.extend_from_slice(extra);
        let out = vaq().args(&args).output().expect("run vaq");
        assert!(!out.status.success(), "{extra:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{extra:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
    };
    expect_fail(&["--method", "auto", "--policy", "cell"], "--policy");
    expect_fail(&["--method", "auto", "--prepared"], "--prepared");
    expect_fail(
        &["--method", "auto", "--shards", "2", "--prepared"],
        "--prepared",
    );
    expect_fail(&["--policy", "diagonal"], "--policy");
}

/// `--weights FILE|uniform:R` builds the power-diagram engine: indices
/// are identical to the unweighted query (weights shape cells, not
/// membership), uniform weights normalise to the Euclidean diagram, and
/// malformed weight inputs fail with diagnostics, not panics.
#[test]
fn weights_flag_keeps_indices_and_fails_cleanly() {
    let dir = temp_dir("weights");
    let pts = write_points(&dir);
    let run = |extra: &[&str]| {
        let mut args = vec![
            "query",
            "--points",
            pts.to_str().unwrap(),
            "--area",
            "POLYGON ((0.0 0.0, 0.62 0.0, 0.55 0.55, 0.0 0.48))",
        ];
        args.extend_from_slice(extra);
        let out = vaq().args(&args).output().expect("run vaq");
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (plain, _) = run(&[]);
    assert!(!plain.is_empty());

    // Uniform weights normalise away: same indices, Euclidean diagram.
    let (uniform, stderr) = run(&["--weights", "uniform:0.2"]);
    assert_eq!(uniform, plain, "uniform weights must not change results");
    assert!(stderr.contains("Euclidean"), "{stderr}");

    // A weights file with one dominating site: still the same indices
    // (hidden sites are points of the database like any other), and the
    // diagram line reports the Power form with its hidden count.
    let wpath = dir.join("weights.txt");
    let mut wfile = String::from("# one weight per point\n");
    for i in 0..100 {
        wfile.push_str(if i == 44 { "0.5\n" } else { "0.0001\n" });
    }
    std::fs::write(&wpath, wfile).expect("write weights");
    let (weighted, stderr) = run(&["--weights", wpath.to_str().unwrap()]);
    assert_eq!(weighted, plain, "site weights must not change membership");
    assert!(stderr.contains("Power"), "{stderr}");
    assert!(stderr.contains("hidden site"), "{stderr}");

    // The sharded path takes the same flag and returns the same answer.
    let (sharded, stderr) = run(&["--weights", wpath.to_str().unwrap(), "--shards", "3"]);
    assert_eq!(sharded, plain);
    assert!(stderr.contains("Power"), "{stderr}");

    // Malformed weight inputs fail with a diagnostic, not a panic.
    let nan_path = dir.join("nan.txt");
    std::fs::write(&nan_path, "0.1\nNaN\n0.2\n").expect("write weights");
    let short_path = dir.join("short.txt");
    std::fs::write(&short_path, "0.1\n0.2\n").expect("write weights");
    let expect_fail = |spec: &str, needle: &str| {
        let out = vaq()
            .args([
                "query",
                "--points",
                pts.to_str().unwrap(),
                "--window",
                "0.1,0.1,0.5,0.5",
                "--weights",
                spec,
            ])
            .output()
            .expect("run vaq");
        assert!(!out.status.success(), "--weights {spec:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "--weights {spec:?} should explain itself: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "--weights {spec:?} must not panic: {stderr}"
        );
    };
    expect_fail("uniform:abc", "radius");
    expect_fail("uniform:-0.5", "non-negative");
    expect_fail("uniform:NaN", "finite");
    expect_fail(nan_path.to_str().unwrap(), "finite");
    expect_fail(short_path.to_str().unwrap(), "2 weights for 100 points");
    expect_fail("/nonexistent/weights.txt", "cannot read");
}

/// The new flags reject inconsistent combinations with diagnostics, not
/// panics.
#[test]
fn knn_and_payload_flags_fail_cleanly() {
    let dir = temp_dir("knn-bad");
    let pts = write_points(&dir);
    let expect_fail = |extra: &[&str], needle: &str| {
        let mut args = vec![
            "query",
            "--points",
            pts.to_str().unwrap(),
            "--window",
            "0.1,0.1,0.5,0.5",
        ];
        args.extend_from_slice(extra);
        let out = vaq().args(&args).output().expect("run vaq");
        assert!(!out.status.success(), "{extra:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{extra:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
    };
    expect_fail(&["--knn", "3"], "--at");
    expect_fail(&["--at", "0.5,0.5"], "--knn");
    expect_fail(&["--knn", "3", "--at", "nope"], "--at");
    expect_fail(&["--knn", "3", "--at", "0.5"], "--at");
    expect_fail(&["--knn", "x", "--at", "0.5,0.5"], "--knn");
    expect_fail(
        &["--knn", "3", "--at", "0.5,0.5", "--payload-bytes", "64"],
        "mutually exclusive",
    );
    expect_fail(&["--payload-bytes", "big"], "--payload-bytes");
}

/// A CSV with a repeated row saves a snapshot (plain and sharded) that
/// loads back and answers exactly like a build from the CSV.
#[test]
fn snapshot_of_repeated_rows_round_trips() {
    let dir = temp_dir("snapshot-repeat");
    let pts = write_points(&dir);
    let mut csv = std::fs::read_to_string(&pts).expect("read csv");
    let last = csv.lines().last().expect("a data row").to_owned();
    csv.push_str(&format!("{last}\n"));
    std::fs::write(&pts, csv).expect("write csv");
    let pts = pts.to_str().unwrap();
    let area = "POLYGON ((0.5 0.5, 1 0.5, 1 1, 0.5 1))";
    let run = |args: &[&str]| {
        let out = vaq().args(args).output().expect("run vaq");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let want = run(&["query", "--points", pts, "--area", area]);
    assert!(want.lines().any(|l| l.trim() == "100"), "the repeated row");
    for (tag, shards) in [("plain", &[][..]), ("sharded", &["--shards", "3"][..])] {
        let snap = dir.join(format!("repeat-{tag}.snap"));
        let snap = snap.to_str().unwrap();
        run(&[&["build", "--points", pts, "--save", snap][..], shards].concat());
        let got = run(&["query", "--load", snap, "--area", area]);
        assert_eq!(got, want, "{tag}");
    }
}
