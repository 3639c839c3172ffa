//! Line segments and robust segment intersection tests.

use crate::point::Point;
use crate::predicates::orient2d;
use crate::rect::Rect;

/// A closed line segment from `a` to `b`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment between two points.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// Midpoint of the segment.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// The segment with endpoints swapped.
    #[inline]
    pub fn reversed(&self) -> Segment {
        Segment::new(self.b, self.a)
    }

    /// Tight bounding box of the segment.
    #[inline]
    pub fn bbox(&self) -> Rect {
        Rect::new(self.a, self.b)
    }

    /// `true` when `p` lies exactly on the segment (robust: a bounding-box
    /// check, then exact collinearity — a point outside the box never pays
    /// the orientation).
    pub fn contains_point(&self, p: Point) -> bool {
        self.bbox().contains_point(p) && orient2d(self.a, self.b, p) == 0.0
    }

    /// `true` when the two **closed** segments share at least one point.
    ///
    /// Handles all degeneracies exactly: proper crossings, endpoint touches,
    /// collinear overlaps, and zero-length segments.
    pub fn intersects(&self, other: &Segment) -> bool {
        // Cheap reject: disjoint bounding boxes cannot intersect. This skips
        // the exact predicates for the vast majority of non-intersecting
        // pairs in edge-vs-edge loops.
        if !self.bbox().intersects(&other.bbox()) {
            return false;
        }
        let (p1, p2) = (self.a, self.b);
        let (p3, p4) = (other.a, other.b);

        let d1 = orient2d(p3, p4, p1);
        let d2 = orient2d(p3, p4, p2);
        let d3 = orient2d(p1, p2, p3);
        let d4 = orient2d(p1, p2, p4);

        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true; // proper crossing
        }
        // Degenerate contacts: an endpoint lying on the other segment.
        (d1 == 0.0 && other.bbox().contains_point(p1))
            || (d2 == 0.0 && other.bbox().contains_point(p2))
            || (d3 == 0.0 && self.bbox().contains_point(p3))
            || (d4 == 0.0 && self.bbox().contains_point(p4))
    }

    /// `true` when the segments cross at exactly one interior point of both
    /// (no endpoint touches, no collinear overlap).
    pub fn intersects_properly(&self, other: &Segment) -> bool {
        let d1 = orient2d(other.a, other.b, self.a);
        let d2 = orient2d(other.a, other.b, self.b);
        let d3 = orient2d(self.a, self.b, other.a);
        let d4 = orient2d(self.a, self.b, other.b);
        ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    }

    /// The crossing point of two properly-intersecting segments.
    ///
    /// Returns `None` when the segments do not intersect at all. For
    /// collinear overlaps, returns a representative shared point. The
    /// coordinates of a proper crossing are computed in floating point and
    /// are therefore approximate.
    pub fn intersection_point(&self, other: &Segment) -> Option<Point> {
        if !self.intersects(other) {
            return None;
        }
        // Exact signed "heights" of our endpoints over `other`'s supporting
        // line. The naive cross-product denominator `r.cross(s)` can cancel
        // to 0.0 for nearly-parallel proper crossings and wrongly fall into
        // the collinear branch; `d1 - d2` cannot, because given
        // `intersects()` the two orient2d signs are never strictly equal,
        // so the subtraction adds magnitudes instead of cancelling.
        let d1 = orient2d(other.a, other.b, self.a);
        let d2 = orient2d(other.a, other.b, self.b);
        if d1 == 0.0 && d2 == 0.0 {
            // Both endpoints on `other`'s line: collinear overlap or a
            // degenerate segment. Return an endpoint that lies on the
            // other segment.
            return [self.a, self.b]
                .into_iter()
                .find(|&p| other.contains_point(p))
                .or_else(|| {
                    [other.a, other.b]
                        .into_iter()
                        .find(|&p| self.contains_point(p))
                });
        }
        // The crossing parameter along `self`: t solves
        // (1 - t) * d1 + t * d2 = 0. When an endpoint is exactly on the
        // line, d1 or d2 is exactly zero and t is exactly 0.0 or 1.0; the
        // clamp only guards float dust in the division.
        let t = (d1 / (d1 - d2)).clamp(0.0, 1.0);
        Some(self.a + (self.b - self.a) * t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x0: f64, y0: f64, x1: f64, y1: f64) -> Segment {
        Segment::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn basic_measures() {
        let seg = s(0.0, 0.0, 3.0, 4.0);
        assert_eq!(seg.length(), 5.0);
        assert_eq!(seg.midpoint(), Point::new(1.5, 2.0));
        assert_eq!(seg.reversed().a, Point::new(3.0, 4.0));
    }

    #[test]
    fn proper_crossing() {
        let a = s(0.0, 0.0, 2.0, 2.0);
        let b = s(0.0, 2.0, 2.0, 0.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(a.intersects_properly(&b));
        let p = a.intersection_point(&b).unwrap();
        assert!(p.approx_eq(Point::new(1.0, 1.0), 1e-12));
    }

    #[test]
    fn no_intersection() {
        let a = s(0.0, 0.0, 1.0, 0.0);
        let b = s(0.0, 1.0, 1.0, 1.0);
        assert!(!a.intersects(&b));
        assert!(a.intersection_point(&b).is_none());
    }

    #[test]
    fn endpoint_touch_counts_but_is_not_proper() {
        let a = s(0.0, 0.0, 1.0, 1.0);
        let b = s(1.0, 1.0, 2.0, 0.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects_properly(&b));
        assert_eq!(a.intersection_point(&b), Some(Point::new(1.0, 1.0)));
    }

    #[test]
    fn t_junction_touch() {
        let a = s(0.0, 0.0, 2.0, 0.0);
        let b = s(1.0, 0.0, 1.0, 5.0); // touches interior of a at (1, 0)
        assert!(a.intersects(&b));
        assert!(!a.intersects_properly(&b));
    }

    #[test]
    fn collinear_overlap() {
        let a = s(0.0, 0.0, 2.0, 0.0);
        let b = s(1.0, 0.0, 3.0, 0.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects_properly(&b));
        let p = a.intersection_point(&b).unwrap();
        assert!(a.contains_point(p) && b.contains_point(p));
    }

    #[test]
    fn collinear_disjoint() {
        let a = s(0.0, 0.0, 1.0, 0.0);
        let b = s(2.0, 0.0, 3.0, 0.0);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn zero_length_segments() {
        let pt = s(1.0, 1.0, 1.0, 1.0);
        let through = s(0.0, 0.0, 2.0, 2.0);
        assert!(pt.intersects(&through));
        let off = s(0.0, 0.0, 1.0, 0.0);
        assert!(!pt.intersects(&off));
        assert!(pt.intersects(&pt));
    }

    #[test]
    fn contains_point_robust() {
        let seg = s(0.0, 0.0, 10.0, 10.0);
        assert!(seg.contains_point(Point::new(5.0, 5.0)));
        assert!(seg.contains_point(Point::new(0.0, 0.0)));
        assert!(!seg.contains_point(Point::new(5.0, 5.0 + 1e-15)));
        assert!(!seg.contains_point(Point::new(11.0, 11.0))); // collinear, outside
    }

    #[test]
    fn intersection_symmetry() {
        let cases = [
            (s(0.0, 0.0, 2.0, 2.0), s(0.0, 2.0, 2.0, 0.0)),
            (s(0.0, 0.0, 1.0, 0.0), s(0.5, 0.0, 1.5, 0.0)),
            (s(0.0, 0.0, 1.0, 1.0), s(2.0, 2.0, 3.0, 3.0)),
            (s(0.0, 0.0, 1.0, 1.0), s(1.0, 1.0, 2.0, 2.0)),
        ];
        for (a, b) in cases {
            assert_eq!(a.intersects(&b), b.intersects(&a));
        }
    }
}
