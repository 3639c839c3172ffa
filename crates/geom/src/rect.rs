//! Axis-aligned rectangles (bounding boxes).

use crate::point::Point;

/// An axis-aligned rectangle, closed on all sides.
///
/// `Rect` doubles as a *bounding box accumulator*: [`Rect::EMPTY`] is an
/// inverted rectangle that behaves as the identity under [`Rect::union`] and
/// [`Rect::include`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Corner with the smallest coordinates.
    pub min: Point,
    /// Corner with the largest coordinates.
    pub max: Point,
}

impl Rect {
    /// The empty rectangle (identity for `union`; contains nothing).
    pub const EMPTY: Rect = Rect {
        min: Point {
            x: f64::INFINITY,
            y: f64::INFINITY,
        },
        max: Point {
            x: f64::NEG_INFINITY,
            y: f64::NEG_INFINITY,
        },
    };

    /// Creates a rectangle from two opposite corners, in any order.
    #[inline]
    pub fn new(a: Point, b: Point) -> Rect {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates the degenerate rectangle containing exactly `p`.
    #[inline]
    pub fn from_point(p: Point) -> Rect {
        Rect { min: p, max: p }
    }

    /// Creates a rectangle centred on `c` with the given width and height.
    #[inline]
    pub fn from_center(c: Point, width: f64, height: f64) -> Rect {
        let half = Point::new(width / 2.0, height / 2.0);
        Rect {
            min: c - half,
            max: c + half,
        }
    }

    /// The tightest rectangle containing every point of the iterator
    /// ([`Rect::EMPTY`] for an empty iterator).
    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> Rect {
        let mut r = Rect::EMPTY;
        for p in points {
            r.include(p);
        }
        r
    }

    /// `true` for rectangles that contain nothing (e.g. [`Rect::EMPTY`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Width (`0` when empty).
    #[inline]
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max.x - self.min.x
        }
    }

    /// Height (`0` when empty).
    #[inline]
    pub fn height(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max.y - self.min.y
        }
    }

    /// Area (`0` when empty or degenerate).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Perimeter (`0` when empty). Used by R-tree split heuristics.
    #[inline]
    pub fn perimeter(&self) -> f64 {
        2.0 * (self.width() + self.height())
    }

    /// Centre point. Meaningless for empty rectangles.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// `true` when `other` lies entirely inside `self` (boundaries allowed).
    /// Every rectangle contains the empty rectangle.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        if other.is_empty() {
            return true;
        }
        !self.is_empty()
            && self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// `true` when the two *closed* rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// The overlapping region, or `None` when disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min: Point::new(self.min.x.max(other.min.x), self.min.y.max(other.min.y)),
            max: Point::new(self.max.x.min(other.max.x), self.max.y.min(other.max.y)),
        })
    }

    /// Smallest rectangle containing both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Grows the rectangle in place to include `p`.
    #[inline]
    pub fn include(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// The rectangle expanded by `margin` on every side.
    #[inline]
    pub fn expand(&self, margin: f64) -> Rect {
        let d = Point::new(margin, margin);
        Rect {
            min: self.min - d,
            max: self.max + d,
        }
    }

    /// Squared distance from `p` to the closest point of the rectangle
    /// (`0` when `p` is inside). Drives best-first nearest-neighbour search.
    #[inline]
    pub fn min_dist_sq(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }

    /// The four corners in counter-clockwise order starting at `min`.
    #[inline]
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn new_normalizes_corners() {
        let a = Rect::new(Point::new(2.0, 3.0), Point::new(0.0, 1.0));
        assert_eq!(a.min, Point::new(0.0, 1.0));
        assert_eq!(a.max, Point::new(2.0, 3.0));
    }

    #[test]
    fn empty_behaviour() {
        assert!(Rect::EMPTY.is_empty());
        assert_eq!(Rect::EMPTY.area(), 0.0);
        assert_eq!(Rect::EMPTY.width(), 0.0);
        assert!(!Rect::EMPTY.contains_point(Point::ORIGIN));
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(Rect::EMPTY.union(&a), a);
        assert!(a.contains_rect(&Rect::EMPTY));
    }

    #[test]
    fn from_points_builds_mbr() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(4.0, -1.0),
        ];
        let b = Rect::from_points(pts);
        assert_eq!(b.min, Point::new(-2.0, -1.0));
        assert_eq!(b.max, Point::new(4.0, 5.0));
        assert!(Rect::from_points(std::iter::empty()).is_empty());
    }

    #[test]
    fn geometry_measures() {
        let a = r(0.0, 0.0, 4.0, 3.0);
        assert_eq!(a.width(), 4.0);
        assert_eq!(a.height(), 3.0);
        assert_eq!(a.area(), 12.0);
        assert_eq!(a.perimeter(), 14.0);
        assert_eq!(a.center(), Point::new(2.0, 1.5));
    }

    #[test]
    fn containment_is_closed() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert!(a.contains_point(Point::new(0.0, 0.0)));
        assert!(a.contains_point(Point::new(1.0, 1.0)));
        assert!(a.contains_point(Point::new(0.5, 1.0)));
        assert!(!a.contains_point(Point::new(1.0 + 1e-12, 0.5)));
    }

    #[test]
    fn rect_containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        assert!(outer.contains_rect(&r(1.0, 1.0, 9.0, 9.0)));
        assert!(outer.contains_rect(&outer));
        assert!(!outer.contains_rect(&r(5.0, 5.0, 11.0, 6.0)));
    }

    #[test]
    fn intersection_cases() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        // Touching edges count as intersecting (closed semantics).
        let c = r(2.0, 0.0, 4.0, 2.0);
        assert!(a.intersects(&c));
        assert_eq!(a.intersection(&c).unwrap().area(), 0.0);
        let d = r(5.0, 5.0, 6.0, 6.0);
        assert!(!a.intersects(&d));
        assert_eq!(a.intersection(&d), None);
    }

    #[test]
    fn union_and_include() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, -1.0, 3.0, 0.5);
        assert_eq!(a.union(&b), r(0.0, -1.0, 3.0, 1.0));
        let mut acc = a;
        acc.include(Point::new(-1.0, 4.0));
        assert_eq!(acc, r(-1.0, 0.0, 1.0, 4.0));
    }

    #[test]
    fn min_dist_sq_quadrants() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.min_dist_sq(Point::new(1.0, 1.0)), 0.0); // inside
        assert_eq!(a.min_dist_sq(Point::new(3.0, 1.0)), 1.0); // right
        assert_eq!(a.min_dist_sq(Point::new(1.0, -2.0)), 4.0); // below
        assert_eq!(a.min_dist_sq(Point::new(5.0, 6.0)), 9.0 + 16.0); // corner
    }

    #[test]
    fn corners_ccw() {
        let a = r(0.0, 0.0, 2.0, 1.0);
        let c = a.corners();
        assert_eq!(c[0], Point::new(0.0, 0.0));
        assert_eq!(c[1], Point::new(2.0, 0.0));
        assert_eq!(c[2], Point::new(2.0, 1.0));
        assert_eq!(c[3], Point::new(0.0, 1.0));
    }

    #[test]
    fn expand_margins() {
        let a = r(0.0, 0.0, 1.0, 1.0).expand(0.5);
        assert_eq!(a, r(-0.5, -0.5, 1.5, 1.5));
    }
}
