//! Voronoi diagram extraction from the Delaunay triangulation.
//!
//! Cells are computed by **half-plane clipping**: the cell of vertex `v`
//! is the intersection of a clipping window with the half-planes
//! `closer-to-v-than-u` over all Delaunay neighbours `u` of `v`. This is
//! `O(deg²)` per cell (degree averages six), completely avoids the
//! circumcenter-ordering and unbounded-ray bookkeeping of the dual
//! construction, and — because only the *neighbours* of `v` contribute
//! bisectors — it is exactly the Voronoi cell of `v` clipped to the window
//! (a site's cell is determined by its Voronoi neighbours alone).
//!
//! It also works verbatim in the degenerate collinear mode, where cells are
//! slabs between successive bisectors along the line.
//!
//! On a weighted build the same scheme yields **power cells**: each
//! neighbour contributes its *radical-axis* half-plane instead of the
//! perpendicular bisector ([`vaq_geom::clip_power_bisector`], which
//! delegates to the plain bisector when the two weights are equal — and
//! every weight of a Euclidean build is `0.0`, so its cells are
//! bit-identical), and hidden sites get empty cells without any clipping.

use crate::triangulation::Triangulation;
use vaq_geom::{clip_power_bisector, Point, Polygon, Rect};

/// The Voronoi cell of one generator, clipped to a window.
#[derive(Clone, Debug)]
pub struct VoronoiCell {
    /// Canonical vertex id of the generator site.
    pub generator: u32,
    /// The clipped cell as a CCW polygon; empty when the generator's cell
    /// does not meet the window (possible when the window is smaller than
    /// the point set's extent).
    pub polygon: Vec<Point>,
    /// `true` when the *unclipped* cell is unbounded (its generator is a
    /// hull vertex of the triangulation).
    pub unbounded: bool,
}

impl VoronoiCell {
    /// Area of the clipped cell.
    pub fn area(&self) -> f64 {
        if self.polygon.len() < 3 {
            return 0.0;
        }
        Polygon::new_unchecked(self.polygon.clone()).area()
    }
}

/// A complete Voronoi diagram clipped to a bounding window.
#[derive(Clone, Debug)]
pub struct VoronoiDiagram {
    /// One cell per canonical vertex, indexed by vertex id.
    pub cells: Vec<VoronoiCell>,
    /// The clipping window.
    pub window: Rect,
}

impl VoronoiDiagram {
    /// Extracts every cell of the triangulation, clipped to `window`.
    ///
    /// The window should contain all generators (e.g.
    /// `Rect::from_points(..).expand(margin)`); cells of hull vertices are
    /// truncated at the window boundary. Hidden sites of a weighted build
    /// get empty cells (and are never unbounded: hull sites cannot hide).
    pub fn new(tri: &Triangulation, window: Rect) -> VoronoiDiagram {
        let mut hull_mark = vec![false; tri.vertex_count()];
        for &h in tri.hull() {
            hull_mark[h as usize] = true;
        }
        let cells = (0..tri.vertex_count() as u32)
            .map(|v| VoronoiCell {
                generator: v,
                polygon: cell_polygon(tri, v, &window),
                unbounded: hull_mark[v as usize],
            })
            .collect();
        VoronoiDiagram { cells, window }
    }

    /// The cell of canonical vertex `v`.
    #[inline]
    pub fn cell(&self, v: u32) -> &VoronoiCell {
        &self.cells[v as usize]
    }

    /// Sum of all clipped cell areas. When the window contains all
    /// generators this equals the window area (cells tile the window), a
    /// property the tests rely on.
    pub fn total_area(&self) -> f64 {
        self.cells.iter().map(VoronoiCell::area).sum()
    }
}

/// Computes the Voronoi (or power) cell of canonical vertex `v` clipped
/// to `window`, as a CCW vertex ring (possibly empty).
///
/// This is the on-demand primitive used by the area-query engine's
/// cell-expansion policy, which needs a handful of boundary cells rather
/// than the whole diagram. A cell is bounded by one half-plane per graph
/// neighbour: the perpendicular bisector on the Euclidean diagram, the
/// radical axis on a power diagram (the single code path below covers
/// both, since [`clip_power_bisector`] with equal weights *is* the
/// bisector). A hidden vertex owns no region and yields an empty ring.
pub fn cell_polygon(tri: &Triangulation, v: u32, window: &Rect) -> Vec<Point> {
    if tri.is_hidden(v) {
        return Vec::new();
    }
    let p = tri.point(v);
    let wp = tri.weight(v);
    let mut poly: Vec<Point> = window.corners().to_vec();
    for &u in tri.neighbors(v) {
        if poly.is_empty() {
            break;
        }
        poly = clip_power_bisector(&poly, p, wp, tri.point(u), tri.weight(u));
    }
    poly
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn uniform(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| p(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    fn unit_window() -> Rect {
        Rect::new(p(0.0, 0.0), p(1.0, 1.0))
    }

    #[test]
    fn two_point_cells_are_half_windows() {
        let tri = Triangulation::new(&[p(0.25, 0.5), p(0.75, 0.5)]).unwrap();
        let vd = VoronoiDiagram::new(&tri, unit_window());
        assert_eq!(vd.cells.len(), 2);
        // Bisector x = 0.5 splits the unit square in half.
        assert!((vd.cell(0).area() - 0.5).abs() < 1e-12);
        assert!((vd.cell(1).area() - 0.5).abs() < 1e-12);
        // Each half contains its generator.
        let c0 = Polygon::new(vd.cell(0).polygon.clone()).unwrap();
        assert!(c0.contains(p(0.25, 0.5)));
        assert!(!c0.contains_strict(p(0.75, 0.5)));
    }

    #[test]
    fn cells_tile_the_window() {
        let pts = uniform(120, 3);
        let tri = Triangulation::new(&pts).unwrap();
        let vd = VoronoiDiagram::new(&tri, unit_window());
        let total: f64 = vd.total_area();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "cells must tile the window, got total area {total}"
        );
    }

    #[test]
    fn every_cell_contains_its_generator() {
        let pts = uniform(80, 9);
        let tri = Triangulation::new(&pts).unwrap();
        let vd = VoronoiDiagram::new(&tri, unit_window());
        for cell in &vd.cells {
            let poly = Polygon::new(cell.polygon.clone()).unwrap();
            assert!(
                poly.contains(tri.point(cell.generator)),
                "cell of {} does not contain its generator",
                cell.generator
            );
        }
    }

    #[test]
    fn generator_is_nearest_site_for_cell_interior() {
        // Property 3 of the paper: q ∈ V(P, p) ⇔ p is the nearest site to q.
        let pts = uniform(60, 17);
        let tri = Triangulation::new(&pts).unwrap();
        let vd = VoronoiDiagram::new(&tri, unit_window());
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..300 {
            let q = p(rng.gen::<f64>(), rng.gen::<f64>());
            // Nearest site by brute force.
            let (best, _) = pts
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s.dist_sq(q)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            let cell = Polygon::new(vd.cell(tri.canonical(best)).polygon.clone()).unwrap();
            assert!(
                cell.contains(q),
                "q={q} not in the cell of its nearest site {best}"
            );
        }
    }

    #[test]
    fn hull_cells_marked_unbounded() {
        let pts = vec![p(0.2, 0.2), p(0.8, 0.2), p(0.5, 0.8), p(0.5, 0.4)];
        let tri = Triangulation::new(&pts).unwrap();
        let vd = VoronoiDiagram::new(&tri, unit_window());
        assert!(vd.cell(tri.canonical(0)).unbounded);
        assert!(vd.cell(tri.canonical(1)).unbounded);
        assert!(vd.cell(tri.canonical(2)).unbounded);
        assert!(
            !vd.cell(tri.canonical(3)).unbounded,
            "interior vertex cell is bounded"
        );
    }

    #[test]
    fn collinear_sites_get_slab_cells() {
        let pts: Vec<Point> = (0..5).map(|i| p(0.1 + 0.2 * f64::from(i), 0.5)).collect();
        let tri = Triangulation::new(&pts).unwrap();
        assert!(tri.is_degenerate());
        let vd = VoronoiDiagram::new(&tri, unit_window());
        // Interior site cells are 0.2-wide vertical slabs of height 1.
        for v in 1..4u32 {
            assert!(
                (vd.cell(v).area() - 0.2).abs() < 1e-12,
                "slab {v} area {}",
                vd.cell(v).area()
            );
        }
        // End cells absorb the window margin: 0.1 + 0.1 = 0.2 wide.
        assert!((vd.cell(0).area() - 0.2).abs() < 1e-12);
        assert!((vd.total_area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_point_cell_is_whole_window() {
        let tri = Triangulation::new(&[p(0.4, 0.6)]).unwrap();
        let vd = VoronoiDiagram::new(&tri, unit_window());
        assert!((vd.cell(0).area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_smaller_than_extent_can_empty_cells() {
        let pts = vec![p(0.0, 0.0), p(10.0, 0.0), p(5.0, 8.0)];
        let tri = Triangulation::new(&pts).unwrap();
        let tiny = Rect::new(p(-0.1, -0.1), p(0.1, 0.1));
        let vd = VoronoiDiagram::new(&tri, tiny);
        assert!(vd.cell(0).area() > 0.0);
        assert_eq!(vd.cell(1).polygon.len(), 0, "far site's cell misses window");
    }

    #[test]
    fn power_cells_shift_towards_the_heavier_site() {
        // Two sites on the x-axis; weighting the left one pushes the
        // radical axis right: x = 0.5 + (wp − wq) / (2·|q−p|) along the
        // segment. wp = 0.1, |q−p| = 0.5 → shift 0.1, axis at x = 0.6.
        let pts = vec![p(0.25, 0.5), p(0.75, 0.5)];
        let tri = Triangulation::with_site_metric(&pts, Some(&[0.1, 0.0])).unwrap();
        let vd = VoronoiDiagram::new(&tri, unit_window());
        assert!((vd.cell(0).area() - 0.6).abs() < 1e-12);
        assert!((vd.cell(1).area() - 0.4).abs() < 1e-12);
        assert!((vd.total_area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_cells_tile_window_and_hidden_cells_are_empty() {
        let pts = {
            let mut pts = uniform(60, 13);
            // Corner anchors so every random site is interior and can hide.
            pts.extend([p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)]);
            pts
        };
        let mut rng = StdRng::seed_from_u64(31);
        let w: Vec<f64> = (0..pts.len())
            .map(|_| f64::from(rng.gen_range(0..40i32)) * 1e-3)
            .collect();
        let tri = Triangulation::with_site_metric(&pts, Some(&w)).unwrap();
        let vd = VoronoiDiagram::new(&tri, unit_window());
        assert!(
            (vd.total_area() - 1.0).abs() < 1e-9,
            "power cells must tile the window, got {}",
            vd.total_area()
        );
        assert!(
            !tri.hidden_vertices().is_empty(),
            "this weight spread should hide at least one site"
        );
        for &h in tri.hidden_vertices() {
            assert!(vd.cell(h).polygon.is_empty(), "hidden cell {h} not empty");
        }
        // Monte-Carlo agreement with the brute-force power assignment.
        for _ in 0..400 {
            let q = p(rng.gen::<f64>(), rng.gen::<f64>());
            let best = (0..tri.vertex_count() as u32)
                .filter(|&v| !tri.is_hidden(v))
                .min_by(|&a, &b| {
                    (tri.point(a).dist_sq(q) - tri.weight(a))
                        .total_cmp(&(tri.point(b).dist_sq(q) - tri.weight(b)))
                })
                .unwrap();
            let cell = Polygon::new(vd.cell(best).polygon.clone()).unwrap();
            assert!(cell.contains(q), "q={q} not in the power cell of {best}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn prop_cells_tile_and_contain_generators(seed in 0u64..3000, n in 1usize..60) {
            let pts = uniform(n, seed);
            let tri = Triangulation::new(&pts).unwrap();
            let vd = VoronoiDiagram::new(&tri, unit_window());
            proptest::prop_assert!((vd.total_area() - 1.0).abs() < 1e-9);
            for cell in &vd.cells {
                if cell.polygon.len() >= 3 {
                    let poly = Polygon::new_unchecked(cell.polygon.clone());
                    proptest::prop_assert!(poly.contains(tri.point(cell.generator)));
                }
            }
        }
    }
}
