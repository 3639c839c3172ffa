//! Points-of-interest search in an administrative district — the workload
//! the paper's introduction motivates (urban planning / logistics GIS).
//!
//! A city's POIs are clustered around a few centres (shops cluster in
//! commercial zones). The analyst asks: *which POIs fall inside this
//! hand-drawn district?* The district is concave and looks nothing like
//! its bounding box, so the traditional MBR filter drags in whole
//! neighbouring blocks that the Voronoi method never touches. Dashboards
//! re-ask the same districts all day — exactly what the session's
//! prepared-area cache amortises.
//!
//! ```text
//! cargo run --release --example poi_search
//! ```

use voronoi_area_query::core::{AreaQueryEngine, PrepareMode, QuerySpec};
use voronoi_area_query::geom::{Point, Polygon};
use voronoi_area_query::workload::{generate, Distribution};

fn main() {
    // 200 000 POIs clustered around 40 commercial centres.
    let pois = generate(
        200_000,
        Distribution::Clustered {
            clusters: 40,
            sigma: 0.03,
        },
        2024,
    );

    let engine = AreaQueryEngine::build(&pois);
    let mut session = engine.session();

    // A concave "district" traced along imaginary streets. Its MBR covers
    // ~9 % of the city; the district itself covers ~4 %.
    let district = Polygon::new(vec![
        Point::new(0.42, 0.30),
        Point::new(0.58, 0.33),
        Point::new(0.70, 0.28),
        Point::new(0.72, 0.42),
        Point::new(0.60, 0.45), // inlet
        Point::new(0.62, 0.55),
        Point::new(0.70, 0.60),
        Point::new(0.55, 0.62),
        Point::new(0.44, 0.58),
        Point::new(0.48, 0.45), // inlet
        Point::new(0.40, 0.42),
    ])
    .expect("district outline is a simple polygon");

    let mbr = district.mbr();
    println!(
        "district area {:.4}, MBR area {:.4} ({:.0}% waste)",
        district.area(),
        mbr.area(),
        100.0 * (1.0 - district.area() / mbr.area())
    );

    let traditional = session.execute(&QuerySpec::traditional(), &district);
    let traditional = traditional.result().expect("collect output");
    println!(
        "\ntraditional:  {} POIs found, {} candidates fetched, {} fetched in vain",
        traditional.stats.result_size,
        traditional.stats.candidates,
        traditional.stats.redundant_validations()
    );

    let out = session.execute(&QuerySpec::voronoi(), &district);
    let r = out.result().expect("collect output");
    assert_eq!(r.sorted_indices(), traditional.sorted_indices());
    println!(
        "voronoi:      {} POIs found, {} candidates fetched, {} fetched in vain",
        r.stats.result_size,
        r.stats.candidates,
        r.stats.redundant_validations()
    );

    // The dashboard refreshes: the same district, served from the
    // prepared-area cache (hit on every repeat after the first).
    let cached = QuerySpec::voronoi().prepare(PrepareMode::Cached);
    for _ in 0..3 {
        let out = session.execute(&cached, &district);
        assert_eq!(out.count(), traditional.stats.result_size);
    }
    let totals = session.cache_counters();
    println!(
        "\ndashboard refreshes: {} cache hits / {} misses ({:.0}% hit rate)",
        totals.hits,
        totals.misses,
        100.0 * totals.hit_rate()
    );

    // A district on the city edge (partially outside the data extent)
    // still answers correctly.
    let edge_district = Polygon::new(vec![
        Point::new(0.9, 0.9),
        Point::new(1.2, 0.95),
        Point::new(1.1, 1.2),
        Point::new(0.85, 1.05),
    ])
    .expect("simple polygon");
    let out = session.execute(&QuerySpec::voronoi(), &edge_district);
    let r = out.result().expect("collect output");
    println!(
        "\nedge district: {} POIs (candidates {})",
        r.stats.result_size, r.stats.candidates
    );
    let traditional = session.execute(&QuerySpec::traditional(), &edge_district);
    assert_eq!(
        r.sorted_indices(),
        traditional
            .result()
            .expect("collect output")
            .sorted_indices()
    );
}
