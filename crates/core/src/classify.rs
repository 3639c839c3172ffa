//! Point classification relative to a query area (Section III of the
//! paper, with the obvious typo fixed — the paper's printed definitions of
//! *boundary* and *external* are swapped).
//!
//! * **Internal** — the point is contained in the area.
//! * **Boundary** — the point is outside the area but its Voronoi cell
//!   intersects the area (it "hugs" the boundary).
//! * **External** — the point is outside and its cell misses the area.
//!
//! The paper's Properties 7/8 claim internal and external points are never
//! Voronoi-adjacent. Read literally that is **not true**: when the area is
//! small relative to the local cell size (in the extreme, `A` strictly
//! inside one cell), the single internal point's neighbours all have cells
//! disjoint from `A` and are therefore external. What *does* hold — and
//! what Algorithm 1's correctness actually rests on — is the connectivity
//! lemma: for a connected area `A`, the set `Internal ∪ Boundary` (all
//! points whose cells intersect `A`; internal points qualify because each
//! point lies in its own cell) induces a **connected subgraph** of the
//! Delaunay graph, and it contains the seed. The BFS therefore reaches
//! every internal point without ever expanding from an external one. The
//! tests below verify the connectivity lemma on random inputs, plus the
//! containment consistency of the three classes.

use crate::area::QueryArea;
use crate::voronoi_query::cell_intersects_area;
use vaq_delaunay::Triangulation;
use vaq_geom::Rect;

/// The class of one point relative to a query area.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointClass {
    /// Contained in the (closed) area.
    Internal,
    /// Outside the area, Voronoi cell intersects it.
    Boundary,
    /// Outside the area, Voronoi cell disjoint from it.
    External,
}

/// Classifies every canonical vertex of `tri` relative to `area`.
///
/// `window` clips unbounded cells; it must contain all sites and the area
/// (see `AreaQueryEngine::cell_window`).
///
/// On a power diagram, a *hidden* site (dominated everywhere, owning no
/// cell) classifies as [`PointClass::Internal`] when the area contains its
/// coordinates — matching the query semantics, which still report hidden
/// sites inside the area — and [`PointClass::External`] otherwise (its
/// empty cell can intersect nothing).
pub(crate) fn classify_points<A: QueryArea + ?Sized>(
    tri: &Triangulation,
    area: &A,
    window: &Rect,
) -> Vec<PointClass> {
    (0..tri.vertex_count() as u32)
        .map(|v| {
            if area.contains(tri.point(v)) {
                PointClass::Internal
            } else if cell_intersects_area(tri, v, area, window) {
                PointClass::Boundary
            } else {
                PointClass::External
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vaq_geom::{Point, Polygon};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn uniform(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| p(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    fn setup(seed: u64, n: usize) -> (Triangulation, Polygon, Rect) {
        let tri = Triangulation::new(&uniform(n, seed)).unwrap();
        let area = Polygon::new(vec![
            p(0.3, 0.25),
            p(0.75, 0.3),
            p(0.6, 0.55),
            p(0.7, 0.8),
            p(0.35, 0.7),
        ])
        .unwrap();
        let window = Rect::new(p(-2.0, -2.0), p(3.0, 3.0));
        (tri, area, window)
    }

    #[test]
    fn classes_are_consistent_with_containment() {
        let (tri, area, window) = setup(71, 300);
        let classes = classify_points(&tri, &area, &window);
        for (v, class) in classes.iter().enumerate() {
            let inside = area.contains(tri.point(v as u32));
            match class {
                PointClass::Internal => assert!(inside),
                PointClass::Boundary | PointClass::External => assert!(!inside),
            }
        }
    }

    /// The connectivity lemma (the sound core of the paper's Properties
    /// 7/8): for a connected area, `Internal ∪ Boundary` induces a
    /// connected subgraph of the Delaunay graph.
    #[test]
    fn internal_and_boundary_points_form_a_connected_subgraph() {
        for seed in [72u64, 73, 74, 75, 76, 77] {
            let (tri, area, window) = setup(seed, 250);
            let classes = classify_points(&tri, &area, &window);
            let in_set = |v: u32| classes[v as usize] != PointClass::External;
            let members: Vec<u32> = (0..tri.vertex_count() as u32)
                .filter(|&v| in_set(v))
                .collect();
            if members.is_empty() {
                continue;
            }
            // BFS inside the set from one member must reach all members.
            let mut seen = vec![false; tri.vertex_count()];
            let mut queue = std::collections::VecDeque::from([members[0]]);
            seen[members[0] as usize] = true;
            let mut reached = 0usize;
            while let Some(v) = queue.pop_front() {
                reached += 1;
                for &u in tri.neighbors(v) {
                    if in_set(u) && !seen[u as usize] {
                        seen[u as usize] = true;
                        queue.push_back(u);
                    }
                }
            }
            assert_eq!(
                reached,
                members.len(),
                "internal∪boundary disconnected (seed {seed})"
            );
        }
    }

    /// The paper's Property 7 fails in the extreme case it overlooks: an
    /// area strictly inside one Voronoi cell leaves the single internal
    /// point surrounded by external points. The algorithm still answers
    /// correctly (the seed *is* that point); this test pins the behaviour.
    #[test]
    fn tiny_area_inside_one_cell_breaks_naive_property_7() {
        let pts = vec![
            p(0.5, 0.5),
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(1.0, 1.0),
            p(0.0, 1.0),
        ];
        let tri = Triangulation::new(&pts).unwrap();
        // A tiny square around the centre point, well inside its cell.
        let area = Polygon::new(vec![
            p(0.49, 0.49),
            p(0.51, 0.49),
            p(0.51, 0.51),
            p(0.49, 0.51),
        ])
        .unwrap();
        let window = Rect::new(p(-2.0, -2.0), p(3.0, 3.0));
        let classes = classify_points(&tri, &area, &window);
        let centre = tri.canonical(0) as usize;
        assert_eq!(classes[centre], PointClass::Internal);
        for (v, c) in classes.iter().enumerate() {
            if v != centre {
                assert_eq!(*c, PointClass::External);
            }
        }
    }

    #[test]
    fn area_covering_all_points_makes_everything_internal() {
        let pts = uniform(50, 78);
        let tri = Triangulation::new(&pts).unwrap();
        let area =
            Polygon::new(vec![p(-1.0, -1.0), p(2.0, -1.0), p(2.0, 2.0), p(-1.0, 2.0)]).unwrap();
        let window = Rect::new(p(-3.0, -3.0), p(4.0, 4.0));
        let classes = classify_points(&tri, &area, &window);
        assert!(classes.iter().all(|&c| c == PointClass::Internal));
    }

    #[test]
    fn distant_area_leaves_most_points_external() {
        let pts = uniform(200, 79);
        let tri = Triangulation::new(&pts).unwrap();
        // Far away but inside the window.
        let area = Polygon::new(vec![p(10.0, 10.0), p(11.0, 10.0), p(10.5, 11.0)]).unwrap();
        let window = Rect::new(p(-1.0, -1.0), p(12.0, 12.0));
        let classes = classify_points(&tri, &area, &window);
        let internal = classes
            .iter()
            .filter(|&&c| c == PointClass::Internal)
            .count();
        let external = classes
            .iter()
            .filter(|&&c| c == PointClass::External)
            .count();
        assert_eq!(internal, 0);
        assert!(external > 150, "most points should be external");
    }
}
