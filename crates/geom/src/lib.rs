//! # vaq-geom — computational-geometry kernel
//!
//! The geometry substrate for the reproduction of *Area Queries Based on
//! Voronoi Diagrams* (ICDE 2020). Everything higher in the stack — the
//! Delaunay/Voronoi structures, the spatial indexes, and the area-query
//! engine — is built on the primitives in this crate:
//!
//! * [`Point`] — a 2-D point / vector with `f64` coordinates.
//! * [`Rect`] — an axis-aligned rectangle (used as MBR throughout).
//! * [`Segment`] — a line segment with exact intersection tests.
//! * [`Polygon`] — a simple polygon with containment, area, MBR and
//!   segment/rect/polygon intersection tests. Query areas are `Polygon`s.
//! * [`predicates`] — **robust** adaptive-precision `orient2d` / `incircle`
//!   after Shewchuk. A Delaunay triangulation of 10⁶ near-degenerate points
//!   is not achievable with naive floating-point predicates; these decide
//!   orientation and in-circle questions exactly, falling back from a cheap
//!   filtered evaluation to expansion arithmetic only when the error bound
//!   cannot certify the sign.
//! * [`expansion`] — the floating-point expansion arithmetic backing the
//!   predicates (two-sum, two-product, zero-eliminating expansion sums).
//! * [`power`] — weighted sites ([`WeightedPoint`]) and the exact
//!   [`power_incircle`] conflict predicate behind power diagrams /
//!   regular triangulations, built on the same filter-then-expansion
//!   discipline.
//! * [`convex_hull`] — Andrew's monotone chain, used by tests and the
//!   triangulation hull bookkeeping.
//! * [`clip`] — Sutherland–Hodgman half-plane clipping, used to clip
//!   unbounded Voronoi cells to a bounding rectangle.
//! * [`hilbert`] — the Hilbert curve over a point set's bounding box
//!   ([`hilbert::curve_order`]), the one order the triangulation's vertex
//!   ids and the R-tree's leaves share.
//! * [`prepared`] — **query-compiled areas**: [`PreparedPolygon`] /
//!   [`PreparedRegion`] preprocess a query area once (slab decomposition +
//!   edge-bucket grid + cached MBR/interior point) so the hot-path
//!   primitives `contains` and `boundary_intersects_segment` stop scanning
//!   all edges, while returning bit-identical results to the raw types.
//!
//! ## Conventions
//!
//! * Counter-clockwise (CCW) orientation is positive, matching
//!   [`predicates::orient2d`].
//! * All inputs are expected to be finite; [`Polygon::new`] validates this
//!   and returns [`GeomError`] otherwise.
//! * Containment tests on polygons treat boundary points as **inside**
//!   (closed point set), matching the paper's definition of an area query
//!   ("find all elements contained in a specified area").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clip;
pub mod convex_hull;
pub mod expansion;
pub mod hilbert;
pub mod point;
pub mod polygon;
pub mod power;
pub mod predicates;
pub mod prepared;
pub mod rect;
pub mod region;
pub mod segment;

pub use clip::{clip_bisector, clip_halfplane, clip_power_bisector, clip_rect};
pub use convex_hull::{convex_hull_indices, convex_hull_points};
pub use point::Point;
pub use polygon::Polygon;
pub use power::{power_incircle, WeightedPoint};
pub use predicates::{
    incircle, orient2d, orientation, predicate_totals, Orientation, PredicateTotals,
};
pub use prepared::{PreparedPolygon, PreparedRegion};
pub use rect::Rect;
pub use region::Region;
pub use segment::Segment;

use std::fmt;

/// Errors produced when constructing or validating geometric objects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GeomError {
    /// A polygon needs at least three vertices; the payload is the number
    /// supplied.
    TooFewVertices(usize),
    /// A coordinate was NaN or infinite; the payload is the offending point.
    NonFiniteCoordinate(Point),
    /// All vertices were collinear (or coincident), so the polygon has zero
    /// area and no interior.
    DegeneratePolygon,
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::TooFewVertices(n) => {
                write!(f, "polygon needs at least 3 vertices, got {n}")
            }
            GeomError::NonFiniteCoordinate(p) => {
                write!(f, "non-finite coordinate in {p}")
            }
            GeomError::DegeneratePolygon => {
                write!(f, "polygon is degenerate (zero area)")
            }
        }
    }
}

impl std::error::Error for GeomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geom_error_display() {
        assert_eq!(
            GeomError::TooFewVertices(2).to_string(),
            "polygon needs at least 3 vertices, got 2"
        );
        assert!(GeomError::NonFiniteCoordinate(Point::new(f64::NAN, 0.0))
            .to_string()
            .contains("non-finite"));
        assert_eq!(
            GeomError::DegeneratePolygon.to_string(),
            "polygon is degenerate (zero area)"
        );
    }

    #[test]
    fn reexports_are_usable() {
        let p = Point::new(0.25, 0.25);
        let poly = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ])
        .unwrap();
        assert!(poly.contains(p));
        let r: Rect = poly.mbr();
        assert!(r.contains_point(p));
        assert_eq!(
            orientation(
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(0.0, 1.0)
            ),
            Orientation::Ccw
        );
    }
}
