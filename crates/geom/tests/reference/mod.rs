//! Test-only reference kernels: the all-edges scans the raw polygon
//! primitives ran before they learned to decide edges by coordinate
//! comparisons. Nothing here shares code with the crossing step that raw
//! and prepared areas now run: containment evaluates `orient2d` for every
//! edge whose box holds the probe and for every straddling edge, and the
//! segment test runs `Segment::intersects` on every edge. The suites that
//! include this module check both the raw and the prepared kernels
//! against it.

#![allow(dead_code)]

use vaq_geom::{orient2d, Point, Polygon, Rect, Region, Segment};

/// Closed containment by the crossing number, an exact orientation on
/// every edge that holds `p` in its box or straddles `p.y`.
pub fn contains(poly: &Polygon, p: Point) -> bool {
    let v = poly.vertices();
    let n = v.len();
    if n < 3 {
        return false;
    }
    let mut inside = false;
    for i in 0..n {
        let (a, b) = (v[i], v[(i + 1) % n]);
        if Rect::new(a, b).contains_point(p) && orient2d(a, b, p) == 0.0 {
            return true;
        }
        if (a.y > p.y) != (b.y > p.y) {
            let o = orient2d(a, b, p);
            if o != 0.0 && (o > 0.0) == (b.y > a.y) {
                inside = !inside;
            }
        }
    }
    inside
}

/// `p` lies on some edge: exact collinearity, then the edge's box.
pub fn on_boundary(poly: &Polygon, p: Point) -> bool {
    poly.edges()
        .any(|e| orient2d(e.a, e.b, p) == 0.0 && e.bbox().contains_point(p))
}

/// Open containment: closed containment minus the boundary.
pub fn contains_strict(poly: &Polygon, p: Point) -> bool {
    contains(poly, p) && !on_boundary(poly, p)
}

/// The segment touches the boundary ring: `Segment::intersects` on every
/// edge.
pub fn boundary_intersects_segment(poly: &Polygon, s: &Segment) -> bool {
    poly.edges().any(|e| e.intersects(s))
}

/// The segment meets the closed region.
pub fn intersects_segment(poly: &Polygon, s: &Segment) -> bool {
    contains(poly, s.a) || contains(poly, s.b) || boundary_intersects_segment(poly, s)
}

/// The two closed regions share a point: a vertex of either inside the
/// other, or any pair of edges meeting.
pub fn intersects_polygon(poly: &Polygon, other: &Polygon) -> bool {
    if poly.is_empty() || other.is_empty() {
        return false;
    }
    other.vertices().iter().any(|&v| contains(poly, v))
        || poly.vertices().iter().any(|&v| contains(other, v))
        || poly
            .edges()
            .any(|e| other.edges().any(|f| e.intersects(&f)))
}

/// Region containment: in the closed outer ring, strictly inside no hole.
pub fn region_contains(region: &Region, p: Point) -> bool {
    contains(region.outer(), p) && !region.holes().iter().any(|h| contains_strict(h, p))
}

/// The segment touches any ring of the region.
pub fn region_boundary_intersects_segment(region: &Region, s: &Segment) -> bool {
    boundary_intersects_segment(region.outer(), s)
        || region
            .holes()
            .iter()
            .any(|h| boundary_intersects_segment(h, s))
}

/// The segment meets the closed region.
pub fn region_intersects_segment(region: &Region, s: &Segment) -> bool {
    region_contains(region, s.a)
        || region_contains(region, s.b)
        || region_boundary_intersects_segment(region, s)
}

/// The closed region and the closed polygon share a point: they meet
/// through the outer ring, and `poly` does not sit strictly inside a hole.
pub fn region_intersects_polygon(region: &Region, poly: &Polygon) -> bool {
    intersects_polygon(region.outer(), poly)
        && !region.holes().iter().any(|h| {
            poly.vertices().iter().all(|&v| contains_strict(h, v))
                && !poly.edges().any(|e| boundary_intersects_segment(h, &e))
        })
}
