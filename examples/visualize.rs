//! Regenerates the paper's illustrative figures as SVG files:
//!
//! * `results/fig2_traditional.svg` / `results/fig2_voronoi.svg` — the
//!   candidate sets of the two methods for the same concave query (black =
//!   result, green = redundant candidates), the paper's Figure 2.
//! * `results/fig3_voronoi_delaunay.svg` — a Voronoi diagram overlaid with
//!   its dual Delaunay triangulation, the paper's Figure 3.
//!
//! ```text
//! cargo run --release --example visualize
//! ```

use std::fs;
use voronoi_area_query::core::{AreaQueryEngine, QuerySpec};
use voronoi_area_query::delaunay::{Triangulation, VoronoiDiagram};
use voronoi_area_query::geom::{Point, Polygon, Rect};
use voronoi_area_query::viz::{candidate_scene, Scene};
use voronoi_area_query::workload::{generate, Distribution};

fn main() {
    fs::create_dir_all("results").expect("create results dir");
    let world = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));

    // ---- Figure 2: candidate sets of the two methods. ----
    let points = generate(1200, Distribution::Uniform, 42);
    let engine = AreaQueryEngine::build(&points);
    // A concave area resembling the paper's sketch.
    let area = Polygon::new(vec![
        Point::new(0.25, 0.30),
        Point::new(0.50, 0.22),
        Point::new(0.75, 0.35),
        Point::new(0.68, 0.52),
        Point::new(0.78, 0.70),
        Point::new(0.52, 0.60), // deep notch
        Point::new(0.30, 0.75),
        Point::new(0.35, 0.52),
    ])
    .expect("simple polygon");

    let mut session = engine.session();
    let trad = session.execute(&QuerySpec::traditional(), &area);
    let voro = session.execute(&QuerySpec::voronoi(), &area);
    let trad = trad.into_result().expect("collect output");
    let voro = voro.into_result().expect("collect output");
    assert_eq!(trad.sorted_indices(), voro.sorted_indices());

    // Traditional candidates = everything in the MBR.
    let mbr_candidates: Vec<u32> = points
        .iter()
        .enumerate()
        .filter(|(_, p)| area.mbr().contains_point(**p))
        .map(|(i, _)| i as u32)
        .collect();
    let svg = candidate_scene(world, 600.0, &points, &area, &trad.indices, &mbr_candidates);
    fs::write("results/fig2_traditional.svg", svg).expect("write svg");

    // Voronoi candidates: rebuild the candidate list by running the
    // classification — result + the boundary ring the BFS touched. For
    // the illustration we reconstruct it as result ∪ (validated − accepted)
    // via the engine's classification of the same area.
    let classes = engine.classify(&area);
    let tri = engine.triangulation().expect("non-empty engine");
    let mut voro_candidates = voro.indices.clone();
    for (v, class) in classes.iter().enumerate() {
        if *class == voronoi_area_query::core::PointClass::Boundary {
            voro_candidates.extend_from_slice(tri.inputs_of(v as u32));
        }
    }
    let svg = candidate_scene(
        world,
        600.0,
        &points,
        &area,
        &voro.indices,
        &voro_candidates,
    );
    fs::write("results/fig2_voronoi.svg", svg).expect("write svg");
    println!(
        "fig2: result {}, traditional candidates {}, voronoi candidates ≈ {}",
        trad.stats.result_size,
        mbr_candidates.len(),
        voro_candidates.len()
    );

    // ---- Figure 3: Voronoi diagram + Delaunay dual. ----
    let pts = generate(60, Distribution::Uniform, 5);
    let tri = Triangulation::new(&pts).expect("finite points");
    let vd = VoronoiDiagram::new(&tri, world);
    let mut scene = Scene::new(world, 600.0);
    scene.voronoi_cells(&vd, "#3366cc", 1.0);
    scene.delaunay_edges(&tri, "#cc6633", 0.7);
    scene.points(&pts, 3.0, "black");
    fs::write("results/fig3_voronoi_delaunay.svg", scene.finish()).expect("write svg");
    println!(
        "fig3: {} sites, {} Delaunay edges, {} Voronoi cells",
        pts.len(),
        tri.edge_count(),
        vd.cells.len()
    );
    println!("wrote results/fig2_traditional.svg, results/fig2_voronoi.svg, results/fig3_voronoi_delaunay.svg");
}
