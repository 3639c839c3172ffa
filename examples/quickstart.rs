//! Quickstart: build an engine over a point set and run an area query with
//! both methods through the unified `QuerySpec`/`QuerySession` surface.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use voronoi_area_query::core::{AreaQueryEngine, OutputMode, QuerySpec};
use voronoi_area_query::geom::{Point, Polygon, Rect};
use voronoi_area_query::workload::{generate, Distribution};

fn main() {
    // 50 000 uniformly distributed points in the unit square.
    let points = generate(50_000, Distribution::Uniform, 7);

    // Build both indexes once: the Delaunay triangulation (the
    // Voronoi-neighbour oracle) and an R-tree packed along the same
    // Hilbert order (for the traditional filter and the seed NN query).
    let engine = AreaQueryEngine::build(&points);

    // A session owns the per-caller state: reusable scratch and the
    // prepared-area cache. One per thread, many queries each.
    let mut session = engine.session();

    // An irregular, concave query area — the case the paper targets: its
    // MBR covers far more ground than the polygon itself.
    let area = Polygon::new(vec![
        Point::new(0.30, 0.30),
        Point::new(0.55, 0.35),
        Point::new(0.80, 0.30),
        Point::new(0.60, 0.50), // concave notch
        Point::new(0.75, 0.75),
        Point::new(0.50, 0.62),
        Point::new(0.32, 0.72),
        Point::new(0.42, 0.50),
    ])
    .expect("a simple polygon");

    // The two methods are one spec field apart.
    let traditional = session.execute(&QuerySpec::traditional(), &area);
    let voronoi = session.execute(&QuerySpec::voronoi(), &area);
    let traditional = traditional.result().expect("collect output");
    let voronoi = voronoi.result().expect("collect output");

    assert_eq!(
        traditional.sorted_indices(),
        voronoi.sorted_indices(),
        "both methods answer the same area query"
    );

    println!("points in area:          {}", voronoi.stats.result_size);
    println!(
        "candidates (traditional): {:>6}   redundant validations: {}",
        traditional.stats.candidates,
        traditional.stats.redundant_validations()
    );
    println!(
        "candidates (voronoi):     {:>6}   redundant validations: {}",
        voronoi.stats.candidates,
        voronoi.stats.redundant_validations()
    );
    let saved =
        100.0 * (1.0 - voronoi.stats.candidates as f64 / traditional.stats.candidates as f64);
    println!("candidates saved by the Voronoi method: {saved:.1}%");

    // Counts ride the same funnel (same seeding, same counters) without
    // materialising the result; window queries are just a Rect area.
    let count_spec = QuerySpec::voronoi().output(OutputMode::Count);
    let n = session.execute(&count_spec, &area).count();
    assert_eq!(n, voronoi.stats.result_size);
    let window = Rect::new(Point::new(0.25, 0.25), Point::new(0.75, 0.75));
    println!(
        "points in the central window: {}",
        session.execute(&count_spec, &window).count()
    );
}
