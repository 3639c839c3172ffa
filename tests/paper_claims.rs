//! End-to-end verification of the paper's quantitative claims at reduced
//! scale (the full-scale numbers are regenerated by the `reproduce`
//! binary; the README's "Reproducing the paper" section records them).

use voronoi_area_query::core::PointClass;
use voronoi_area_query::workload::{build_engine, query_size_sweep, run_config, SweepConfig};

fn cfg(reps: usize) -> SweepConfig {
    SweepConfig {
        reps,
        ..SweepConfig::default()
    }
}

/// Table I structure at n = 20 000: traditional candidates ≈ n × query
/// size; result ≈ area/MBR ratio of a star 10-gon (≈ 0.5) times that.
#[test]
fn traditional_candidates_track_mbr_density() {
    let c = cfg(40);
    let engine = build_engine(20_000, &c);
    let row = run_config(&engine, 0.01, &c);
    let expect = 20_000.0 * 0.01;
    assert!(
        (row.traditional.candidates - expect).abs() < expect * 0.15,
        "candidates {} vs n·qs {expect}",
        row.traditional.candidates
    );
    let ratio = row.result_size / row.traditional.candidates;
    assert!(
        (0.35..0.7).contains(&ratio),
        "result/candidate ratio {ratio} outside the star-polygon band"
    );
}

/// The paper's headline: candidate savings in the ≈35–45 % band, growing
/// with query size. The boundary ring shrinks relative to the interior as
/// `1/√(n·qs)`, so the band only holds at the paper's scale — this test
/// runs at the paper's n = 10⁵ (reduced repetitions).
#[test]
fn candidate_savings_match_paper_band() {
    let c = cfg(25);
    let rows = query_size_sweep(100_000, &[0.01, 0.08, 0.32], &c, |_| {});
    let savings: Vec<f64> = rows.iter().map(|r| r.candidate_saving_pct()).collect();
    // Paper's Table II: 35.1 % at 1 %, 44.9 % at 32 %.
    for (i, s) in savings.iter().enumerate() {
        assert!(
            (30.0..55.0).contains(s),
            "saving {s}% at row {i} outside the paper band"
        );
    }
    assert!(
        savings[2] > savings[0],
        "savings must grow with query size: {savings:?}"
    );
}

/// Figure 5/7 claim: the Voronoi method's redundant validations are
/// proportional to the boundary (≈ √result), the traditional method's to
/// the MBR area — so their gap widens superlinearly.
#[test]
fn redundancy_scales_with_boundary_not_area() {
    let c = cfg(40);
    let rows = query_size_sweep(20_000, &[0.02, 0.08, 0.32], &c, |_| {});
    // Query size ×16 ⇒ traditional redundancy ×≈16, voronoi ×≈4 (perimeter
    // grows with the square root of area).
    let trad_growth = rows[2].traditional.redundant / rows[0].traditional.redundant;
    let voro_growth = rows[2].voronoi.redundant / rows[0].voronoi.redundant;
    assert!(
        trad_growth > 10.0,
        "traditional redundancy growth {trad_growth} should be ≈ area ratio 16"
    );
    assert!(
        voro_growth < trad_growth / 2.0,
        "voronoi redundancy growth {voro_growth} should be ≈ √area ratio 4, \
well below traditional {trad_growth}"
    );
}

/// Both methods scale linearly in data size (Fig 4's shape) in candidate
/// counts — the machine-independent part of the claim.
#[test]
fn candidates_scale_linearly_with_data_size() {
    let c = cfg(30);
    let small = run_config(&build_engine(10_000, &c), 0.01, &c);
    let large = run_config(&build_engine(40_000, &c), 0.01, &c);
    let trad_ratio = large.traditional.candidates / small.traditional.candidates;
    let voro_ratio = large.voronoi.candidates / small.voronoi.candidates;
    assert!(
        (3.0..5.0).contains(&trad_ratio),
        "traditional growth {trad_ratio} not ≈ 4"
    );
    assert!(
        (3.0..5.0).contains(&voro_ratio),
        "voronoi growth {voro_ratio} not ≈ 4"
    );
}

/// Section III's candidate-set characterisation: the Voronoi method's
/// candidates are exactly the internal points plus the boundary ring
/// (cell policy), and the segment policy's candidates are a subset of
/// that union.
#[test]
fn voronoi_candidates_are_internal_plus_boundary() {
    use voronoi_area_query::core::{AreaQueryEngine, ExpansionPolicy, QuerySpec};
    use voronoi_area_query::workload::{
        generate, random_query_polygon, unit_space, Distribution, PolygonSpec,
    };
    let points = generate(3_000, Distribution::Uniform, 33);
    let engine = AreaQueryEngine::build(&points);
    let area = random_query_polygon(&unit_space(), &PolygonSpec::with_query_size(0.05), 34);
    let classes = engine.classify(&area);
    let internal = classes
        .iter()
        .filter(|&&c| c == PointClass::Internal)
        .count();
    let boundary = classes
        .iter()
        .filter(|&&c| c == PointClass::Boundary)
        .count();

    let mut session = engine.session();
    let mut voronoi = |policy| {
        *session
            .execute(&QuerySpec::voronoi().policy(policy), &area)
            .stats()
    };
    let cell = voronoi(ExpansionPolicy::Cell);
    // Cell-policy candidates = internal ∪ boundary ∪ (first ring of
    // neighbours of internal points that are external) — the BFS always
    // validates the direct neighbours of internal points. So the count is
    // bounded below by internal and above by internal + boundary + ring.
    assert!(cell.candidates >= internal);
    assert_eq!(cell.accepted, internal);

    let seg = voronoi(ExpansionPolicy::Segment);
    assert_eq!(seg.accepted, internal);
    // Both candidate sets stay within the internal + boundary + one-ring
    // envelope: far smaller than the MBR population on irregular areas.
    let in_mbr = points
        .iter()
        .filter(|p| area.mbr().contains_point(**p))
        .count();
    assert!(seg.candidates <= internal + boundary + in_mbr / 2);
    assert!(
        seg.candidates < in_mbr,
        "the paper's headline at small scale"
    );
}
