//! Integration tests for the Delaunay/Voronoi duality (Property 4 of the
//! reproduced paper).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vaq_delaunay::{cell_polygon, Triangulation, VoronoiDiagram};
use vaq_geom::{orient2d, Point, Polygon, Rect};

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn uniform(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| p(rng.gen::<f64>(), rng.gen::<f64>()))
        .collect()
}

fn window() -> Rect {
    Rect::new(p(-0.5, -0.5), p(1.5, 1.5))
}

/// `true` when any ring vertex lies on (or numerically at) the clipping
/// window boundary — such cells were truncated and may have lost the
/// Voronoi edge shared with a neighbour.
fn clipped_by_window(ring: &[Point], w: &Rect) -> bool {
    let eps = 1e-9;
    ring.iter().any(|v| {
        (v.x - w.min.x).abs() < eps
            || (v.x - w.max.x).abs() < eps
            || (v.y - w.min.y).abs() < eps
            || (v.y - w.max.y).abs() < eps
    })
}

/// The cell ring scaled slightly outward about its centroid, to absorb
/// the ~1 ulp rounding of Sutherland–Hodgman intersection vertices.
fn expanded(ring: &[Point]) -> Polygon {
    let poly = Polygon::new_unchecked(ring.to_vec());
    let c = poly.centroid();
    poly.scaled(1.0 + 1e-9, c)
}

/// Delaunay-adjacent vertices have touching Voronoi cells (they share the
/// bisector segment dual to the edge). Cells truncated by the clipping
/// window are skipped — truncation can remove the shared edge — and each
/// cell is expanded by ~1e-9 to absorb clipping round-off.
#[test]
fn adjacent_vertices_have_touching_cells() {
    let pts = uniform(150, 41);
    let tri = Triangulation::new(&pts).unwrap();
    let w = window();
    let vd = VoronoiDiagram::new(&tri, w);
    let mut checked = 0;
    for v in 0..tri.vertex_count() as u32 {
        if clipped_by_window(&vd.cell(v).polygon, &w) {
            continue;
        }
        let cv = expanded(&vd.cell(v).polygon);
        for &u in tri.neighbors(v) {
            if u < v || clipped_by_window(&vd.cell(u).polygon, &w) {
                continue;
            }
            let cu = expanded(&vd.cell(u).polygon);
            assert!(
                cv.intersects_polygon(&cu),
                "cells of adjacent {v} and {u} do not touch"
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "too few unclipped pairs checked: {checked}");
}

/// Cells of non-adjacent vertices never overlap with positive area: probe
/// points strictly inside one cell must not be strictly inside another.
#[test]
fn non_adjacent_cells_do_not_overlap() {
    let pts = uniform(80, 43);
    let tri = Triangulation::new(&pts).unwrap();
    let vd = VoronoiDiagram::new(&tri, window());
    let mut rng = StdRng::seed_from_u64(44);
    for _ in 0..500 {
        let q = p(rng.gen::<f64>(), rng.gen::<f64>());
        let strictly_inside: Vec<u32> = (0..tri.vertex_count() as u32)
            .filter(|&v| {
                let ring = &vd.cell(v).polygon;
                ring.len() >= 3 && Polygon::new_unchecked(ring.clone()).contains_strict(q)
            })
            .collect();
        assert!(
            strictly_inside.len() <= 1,
            "point {q} strictly inside cells {strictly_inside:?}"
        );
    }
}

/// On-demand cells agree with the full-diagram extraction.
#[test]
fn cell_polygon_matches_diagram() {
    let pts = uniform(60, 45);
    let tri = Triangulation::new(&pts).unwrap();
    let vd = VoronoiDiagram::new(&tri, window());
    for v in 0..tri.vertex_count() as u32 {
        let on_demand = cell_polygon(&tri, v, &window());
        assert_eq!(on_demand, vd.cell(v).polygon, "vertex {v}");
    }
}

/// The hull returned by the triangulation is a convex CCW ring.
#[test]
fn hull_is_convex_and_ccw() {
    for seed in [51u64, 52, 53] {
        let pts = uniform(120, seed);
        let tri = Triangulation::new(&pts).unwrap();
        let hull: Vec<Point> = tri.hull().iter().map(|&h| tri.point(h)).collect();
        let n = hull.len();
        assert!(n >= 3);
        for i in 0..n {
            let o = orient2d(hull[i], hull[(i + 1) % n], hull[(i + 2) % n]);
            assert!(o >= 0.0, "hull turn {i} is clockwise (seed {seed})");
        }
        // Strictly positive signed area ⇒ CCW orientation overall.
        assert!(Polygon::new_unchecked(hull).signed_area() > 0.0);
    }
}

/// Voronoi neighbours of `v` are exactly the generators whose cells touch
/// `v`'s cell: adjacency implies contact (with round-off expansion), and
/// for *non*-adjacent interior pairs the cells stay clearly apart (their
/// separation exceeds the expansion) except for single-point cocircular
/// contacts, which the expansion tolerates by excluding only pairs that
/// overlap with positive area — covered by
/// `non_adjacent_cells_do_not_overlap`.
#[test]
fn neighbourhood_equals_cell_contact_on_interior() {
    let pts = uniform(100, 55);
    let tri = Triangulation::new(&pts).unwrap();
    let w = window();
    let vd = VoronoiDiagram::new(&tri, w);
    let mut checked = 0;
    for v in 0..tri.vertex_count() as u32 {
        if clipped_by_window(&vd.cell(v).polygon, &w) {
            continue;
        }
        let cv = expanded(&vd.cell(v).polygon);
        for &u in tri.neighbors(v) {
            if clipped_by_window(&vd.cell(u).polygon, &w) {
                continue;
            }
            assert!(
                cv.intersects_polygon(&expanded(&vd.cell(u).polygon)),
                "adjacent {v},{u} must touch"
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "too few unclipped pairs checked: {checked}");
}
