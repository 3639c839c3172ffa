//! Simple polygons: the query areas of the paper.
//!
//! A [`Polygon`] is a closed region bounded by a simple (non-self-
//! intersecting) ring of vertices. All containment semantics are **closed**:
//! boundary points count as inside, matching the paper's definition of an
//! area query ("all elements contained in a specified area").

use crate::expansion::{expansion_sign, expansion_sum, two_product, two_two_diff};
use crate::point::Point;
use crate::predicates::orient2d;
use crate::rect::Rect;
use crate::segment::Segment;
use crate::GeomError;
use std::cmp::Ordering;

/// A polygon given by its vertex ring (implicitly closed, no repeated
/// first/last vertex). May be convex or concave; vertices may wind either
/// way.
///
/// The MBR is computed once at construction and cached: every segment test
/// starts with an MBR fast-reject, and the traditional filter step queries
/// it per query — recomputing it `O(n)` per call would put an `O(n)` scan
/// in front of every `O(1)` reject.
#[derive(Clone, Debug)]
pub struct Polygon {
    vertices: Vec<Point>,
    mbr: Rect,
}

impl PartialEq for Polygon {
    fn eq(&self, other: &Polygon) -> bool {
        // The MBR is derived from the vertices; comparing it would be
        // redundant.
        self.vertices == other.vertices
    }
}

impl Polygon {
    /// Internal constructor computing the cached derived data.
    fn from_vertices(vertices: Vec<Point>) -> Polygon {
        let mbr = Rect::from_points(vertices.iter().copied());
        Polygon { vertices, mbr }
    }

    /// Creates a polygon, validating that it has at least three vertices,
    /// all coordinates are finite, and its area is non-zero.
    ///
    /// Simplicity (non-self-intersection) is *not* verified here because the
    /// check is `O(n²)`; call [`Polygon::is_simple`] when needed.
    pub fn new(vertices: Vec<Point>) -> Result<Polygon, GeomError> {
        if vertices.len() < 3 {
            return Err(GeomError::TooFewVertices(vertices.len()));
        }
        if let Some(p) = vertices.iter().find(|p| !p.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate(*p));
        }
        let poly = Polygon::from_vertices(vertices);
        // Exact degeneracy test: the float shoelace sum can round to 0.0
        // for a sliver polygon with genuinely non-zero area (rejecting a
        // valid input) or to non-zero for an exactly degenerate ring
        // (accepting one) — `winding_sign` certifies the true sign.
        if poly.winding_sign() == Ordering::Equal {
            return Err(GeomError::DegeneratePolygon);
        }
        Ok(poly)
    }

    /// Creates a polygon without any validation.
    ///
    /// Useful for internal construction where the invariants are known to
    /// hold (e.g. clipped Voronoi cells).
    pub fn new_unchecked(vertices: Vec<Point>) -> Polygon {
        Polygon::from_vertices(vertices)
    }

    /// The vertex ring.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` when the polygon has no vertices (only possible via
    /// [`Polygon::new_unchecked`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Iterates over the boundary edges in ring order.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// The same edges as [`Polygon::edges`], as endpoint pairs starting with
    /// the closing edge: one pass over the ring without the index modulo,
    /// for the hot scans.
    fn ring_edges(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        let mut a = self.vertices.last().copied().unwrap_or(Point::ORIGIN);
        self.vertices
            .iter()
            .map(move |&b| (std::mem::replace(&mut a, b), b))
    }

    /// Signed area: positive for counter-clockwise winding (shoelace).
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        if n < 3 {
            return 0.0;
        }
        let mut sum = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            sum += p.x * q.y - q.x * p.y;
        }
        sum / 2.0
    }

    /// Unsigned area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Boundary length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Area-weighted centroid. Falls back to the vertex average for
    /// degenerate (zero-area) rings.
    pub fn centroid(&self) -> Point {
        let n = self.vertices.len();
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut a = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
            a += w;
        }
        if a.abs() < f64::MIN_POSITIVE {
            // vaq-lint: allow(float-exactness) -- vertex-average fallback
            // for a degenerate ring: `n as f64` is an exact small count and
            // the centroid is approximate by definition.
            let inv = 1.0 / n as f64;
            let sum = self.vertices.iter().fold(Point::ORIGIN, |acc, &p| acc + p);
            return sum * inv;
        }
        Point::new(cx / (3.0 * a), cy / (3.0 * a))
    }

    /// Minimum bounding rectangle of the polygon.
    ///
    /// This is the window the traditional filter step queries — the paper's
    /// whole argument is about `area(MBR) ≫ area(polygon)`.
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// Exact sign of the signed area: `Greater` for counter-clockwise
    /// winding, `Less` for clockwise, `Equal` for exactly zero area.
    ///
    /// Stage A evaluates the float shoelace sum alongside a running sum of
    /// term magnitudes; when `|sum|` clears the accumulated rounding-error
    /// bound, the float sign is certified. Otherwise stage B re-evaluates
    /// the shoelace sum in expansion arithmetic, which is exact for all
    /// finite inputs. This is the winding decision [`Polygon::new`] and
    /// [`Polygon::is_ccw`] use — [`Polygon::signed_area`] itself stays
    /// float because its magnitude consumers tolerate rounding; only its
    /// *sign* consumers must not.
    pub fn winding_sign(&self) -> Ordering {
        let n = self.vertices.len();
        if n < 3 {
            return Ordering::Equal;
        }
        // Stage A: float shoelace with a running absolute-error bound.
        let mut sum = 0.0;
        let mut absum = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            sum += p.x * q.y - q.x * p.y;
            absum += (p.x * q.y).abs() + (q.x * p.y).abs();
        }
        // γ-style bound: 2n products (one rounding each) plus ~2n
        // additions, applied to the magnitude sum — (2n + 4)·ε·absum
        // over-counts both, so a certified sign is genuinely certified.
        // vaq-lint: allow(float-exactness) -- `n as f64` counts vertices
        // (exact far below 2^53) to scale the stage-A error bound.
        let bound = (2.0 * n as f64 + 4.0) * f64::EPSILON * absum;
        if sum > bound {
            return Ordering::Greater;
        }
        if sum < -bound {
            return Ordering::Less;
        }
        // vaq-lint: allow(float-exactness) -- absum is a sum of absolute
        // values: exactly 0.0 only when every shoelace term is exactly
        // zero, making the float sum itself exact.
        if absum == 0.0 {
            return Ordering::Equal;
        }
        // Stage B: exact shoelace in expansion arithmetic.
        let mut acc: Vec<f64> = vec![0.0];
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let (hi1, lo1) = two_product(p.x, q.y);
            let (hi2, lo2) = two_product(q.x, p.y);
            acc = expansion_sum(&acc, &two_two_diff(hi1, lo1, hi2, lo2));
        }
        let s = expansion_sign(&acc);
        if s > 0.0 {
            Ordering::Greater
        } else if s < 0.0 {
            Ordering::Less
        } else {
            Ordering::Equal
        }
    }

    /// `true` when the vertices wind counter-clockwise (exact decision via
    /// [`Polygon::winding_sign`]).
    #[inline]
    pub fn is_ccw(&self) -> bool {
        self.winding_sign() == Ordering::Greater
    }

    /// The polygon with reversed winding.
    pub fn reversed(&self) -> Polygon {
        let mut v = self.vertices.clone();
        v.reverse();
        // Reversal preserves the vertex set, hence the MBR.
        Polygon {
            vertices: v,
            mbr: self.mbr,
        }
    }

    /// `true` when `p` lies inside the polygon or exactly on its boundary.
    ///
    /// Robust crossing-number test: the straddle rule uses strict/non-strict
    /// `y` comparisons so each crossing is counted exactly once, and every
    /// sidedness decision is exact. This is the `Contains(A, p)` primitive
    /// of the paper's Algorithm 1 and of the traditional refine step.
    ///
    /// `O(k)` per call, but only an edge whose bounding box holds `p` costs
    /// an [`orient2d`]: a point outside the cached MBR is rejected at once,
    /// and every other edge is skipped or counted by coordinate comparisons
    /// alone (see [`crate::prepared`]'s exactness contract).
    /// [`crate::PreparedPolygon::contains`] runs the same crossing step over
    /// only the edges whose y-range holds `p.y`. The predicate reports its
    /// filter/fallback split through
    /// [`crate::predicates::predicate_totals`].
    pub fn contains(&self, p: Point) -> bool {
        if self.vertices.len() < 3 || !self.mbr.contains_point(p) {
            // Outside the MBR no edge holds `p` and the ring crosses the
            // horizontal line through `p` an even number of times, all on
            // one side of it: the scan would answer `false`.
            return false;
        }
        let mut inside = false;
        for (a, b) in self.ring_edges() {
            if !y_range_excludes(a, b, p) && crossing_step(a, b, p, &mut inside) {
                return true;
            }
        }
        inside
    }

    /// `true` when `p` lies strictly inside (boundary excluded).
    pub fn contains_strict(&self, p: Point) -> bool {
        self.contains(p) && !self.on_boundary(p)
    }

    /// `true` when `p` lies exactly on the boundary ring.
    pub fn on_boundary(&self, p: Point) -> bool {
        self.mbr.contains_point(p) && self.edges().any(|e| e.contains_point(p))
    }

    /// `true` when the segment shares at least one point with the **closed
    /// region** bounded by the polygon.
    ///
    /// This is the `Intersects(line, A)` primitive of Algorithm 1: a segment
    /// intersects the area when it crosses/touches the boundary *or* lies
    /// entirely inside.
    pub fn intersects_segment(&self, s: &Segment) -> bool {
        // Cheap reject: the segment's bbox must meet the polygon's MBR.
        if !self.mbr().intersects(&s.bbox()) {
            return false;
        }
        self.contains(s.a) || self.contains(s.b) || self.boundary_intersects_segment(s)
    }

    /// `true` when the segment crosses or touches the polygon's **boundary
    /// ring** (ignoring full containment).
    ///
    /// When one endpoint is already known to lie outside the polygon this
    /// is equivalent to [`Polygon::intersects_segment`] — a segment from an
    /// outside point shares a point with the closed region iff it reaches
    /// the boundary — while skipping both containment tests. The Voronoi
    /// area query's expansion step (where the popped point has just failed
    /// the containment test) uses this fast path.
    ///
    /// The segment's box is computed once; an edge whose box misses it is
    /// rejected by coordinate comparisons (the fast reject
    /// [`Segment::intersects`] would start with), so only the remaining
    /// edges pay the exact test.
    pub fn boundary_intersects_segment(&self, s: &Segment) -> bool {
        let sbox = s.bbox();
        if !self.mbr().intersects(&sbox) {
            return false;
        }
        self.ring_edges().any(|(a, b)| {
            let misses = (a.x < sbox.min.x && b.x < sbox.min.x)
                || (a.x > sbox.max.x && b.x > sbox.max.x)
                || (a.y < sbox.min.y && b.y < sbox.min.y)
                || (a.y > sbox.max.y && b.y > sbox.max.y);
            !misses && Segment::new(a, b).intersects(s)
        })
    }

    /// `true` when the closed rectangle and the closed polygon share a point.
    pub fn intersects_rect(&self, r: &Rect) -> bool {
        if r.is_empty() || !self.mbr().intersects(r) {
            return false;
        }
        // Any polygon vertex inside the rect?
        if self.vertices.iter().any(|&v| r.contains_point(v)) {
            return true;
        }
        // Any rect corner inside the polygon (covers rect ⊂ polygon)?
        if r.corners().iter().any(|&c| self.contains(c)) {
            return true;
        }
        // Any boundary crossing?
        let corners = r.corners();
        (0..4).any(|i| {
            self.boundary_intersects_segment(&Segment::new(corners[i], corners[(i + 1) % 4]))
        })
    }

    /// `true` when this polygon's closed region intersects another polygon's
    /// closed region. `O(n·m)`; used by the cell expansion policy where one
    /// operand is a small convex Voronoi cell.
    pub fn intersects_polygon(&self, other: &Polygon) -> bool {
        if other.is_empty() || self.is_empty() || !self.mbr().intersects(&other.mbr()) {
            return false;
        }
        if other.vertices.iter().any(|&v| self.contains(v)) {
            return true;
        }
        if self.vertices.iter().any(|&v| other.contains(v)) {
            return true;
        }
        other.edges().any(|f| self.boundary_intersects_segment(&f))
    }

    /// `true` when no two non-adjacent edges intersect and adjacent edges
    /// share only their common vertex. `O(n²)`.
    pub fn is_simple(&self) -> bool {
        let n = self.vertices.len();
        if n < 3 {
            return false;
        }
        let edges: Vec<Segment> = self.edges().collect();
        for i in 0..n {
            for j in (i + 1)..n {
                let adjacent = j == i + 1 || (i == 0 && j == n - 1);
                if adjacent {
                    // Shared vertex only: the far endpoint of one edge must
                    // not lie on the other edge.
                    let (e, f) = (&edges[i], &edges[j]);
                    let shared = if j == i + 1 { e.b } else { e.a };
                    let e_far = if j == i + 1 { e.a } else { e.b };
                    let f_far = if j == i + 1 { f.b } else { f.a };
                    debug_assert!(
                        (j == i + 1 && e.b == f.a) || (i == 0 && j == n - 1 && e.a == f.b)
                    );
                    let _ = shared;
                    if e.contains_point(f_far) || f.contains_point(e_far) {
                        return false;
                    }
                } else if edges[i].intersects(&edges[j]) {
                    return false;
                }
            }
        }
        true
    }

    /// `true` when all turns share one orientation (collinear runs allowed).
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        if n < 3 {
            return false;
        }
        let mut saw_pos = false;
        let mut saw_neg = false;
        for i in 0..n {
            let o = orient2d(
                self.vertices[i],
                self.vertices[(i + 1) % n],
                self.vertices[(i + 2) % n],
            );
            if o > 0.0 {
                saw_pos = true;
            } else if o < 0.0 {
                saw_neg = true;
            }
            if saw_pos && saw_neg {
                return false;
            }
        }
        true
    }

    /// The polygon translated by `(dx, dy)`.
    pub fn translated(&self, dx: f64, dy: f64) -> Polygon {
        Polygon::from_vertices(
            self.vertices
                .iter()
                .map(|&p| Point::new(p.x + dx, p.y + dy))
                .collect(),
        )
    }

    /// The polygon scaled by `factor` about `about`.
    pub fn scaled(&self, factor: f64, about: Point) -> Polygon {
        Polygon::from_vertices(
            self.vertices
                .iter()
                .map(|&p| about + (p - about) * factor)
                .collect(),
        )
    }

    /// A point guaranteed to lie strictly inside the polygon.
    ///
    /// Used as the "arbitrary position in A" from which Algorithm 1 seeds
    /// its nearest-neighbour query. The centroid of a concave polygon can
    /// fall outside it, so this uses the classic representative-point
    /// construction: cast a horizontal line at a height that avoids every
    /// vertex, and take the midpoint of the first inside-span.
    pub fn interior_point(&self) -> Point {
        let c = self.centroid();
        if self.contains_strict(c) {
            return c;
        }
        // Choose a scan height strictly between two distinct vertex ys,
        // as close to the middle of the y-extent as possible.
        let mut ys: Vec<f64> = self.vertices.iter().map(|p| p.y).collect();
        ys.sort_by(f64::total_cmp);
        ys.dedup();
        debug_assert!(ys.len() >= 2, "validated polygons have positive area");
        // vaq-lint: allow(panic-hygiene) -- a validated polygon has
        // non-zero area, hence at least two distinct vertex ys (the
        // debug_assert above states the same invariant).
        let mid = (ys[0] + ys[ys.len() - 1]) / 2.0;
        // Pick the gap [ys[k], ys[k+1]) containing (or nearest to) mid.
        let mut best = (f64::INFINITY, 0usize);
        for k in 0..ys.len() - 1 {
            let g = (ys[k] + ys[k + 1]) / 2.0;
            let d = (g - mid).abs();
            if ys[k + 1] > ys[k] && d < best.0 {
                best = (d, k);
            }
        }
        let y = (ys[best.1] + ys[best.1 + 1]) / 2.0;
        // Collect x-crossings of the horizontal line at y. Because y avoids
        // every vertex, each straddling edge crosses exactly once.
        let mut xs: Vec<f64> = Vec::new();
        let n = self.vertices.len();
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if (a.y > y) != (b.y > y) {
                xs.push(a.x + (b.x - a.x) * (y - a.y) / (b.y - a.y));
            }
        }
        xs.sort_by(f64::total_cmp);
        debug_assert!(xs.len() >= 2 && xs.len().is_multiple_of(2));
        // Midpoint of the widest inside-span for numerical headroom.
        // vaq-lint: allow(panic-hygiene) -- the scan line runs strictly
        // inside the y-extent and avoids every vertex, so it crosses the
        // boundary an even number of times, at least twice.
        let mut best_span = (xs[0], xs[1]);
        // vaq-lint: allow(panic-hygiene) -- same even-crossing invariant
        // as the line above.
        let mut best_w = xs[1] - xs[0];
        for k in (0..xs.len() - 1).step_by(2) {
            let w = xs[k + 1] - xs[k];
            if w > best_w {
                best_w = w;
                best_span = (xs[k], xs[k + 1]);
            }
        }
        Point::new((best_span.0 + best_span.1) / 2.0, y)
    }

    /// Winding number of `p` — a slower containment oracle used by tests.
    /// Non-zero winding means inside (for simple polygons this agrees with
    /// the crossing-number rule except exactly on the boundary).
    pub fn winding_number(&self, p: Point) -> i32 {
        let n = self.vertices.len();
        let mut wn = 0i32;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if a.y <= p.y {
                if b.y > p.y && orient2d(a, b, p) > 0.0 {
                    wn += 1;
                }
            } else if b.y <= p.y && orient2d(a, b, p) < 0.0 {
                wn -= 1;
            }
        }
        wn
    }
}

/// The crossing-number step for the directed edge `a → b` against `p`,
/// shared by [`Polygon::contains`] and the prepared slab scan. `p.y` must
/// lie in the edge's closed y-range: the raw scan skips every other edge,
/// and the slab lists never hold one. Returns `true` when `p` lies exactly
/// on the edge; otherwise toggles `inside` exactly when the edge crosses
/// the horizontal ray from `p` towards +x.
///
/// Coordinate comparisons decide every edge whose bounding box misses `p`
/// (the proofs are the exactness contract in [`crate::prepared`]); only an
/// edge whose box holds `p` pays one [`orient2d`].
#[inline]
pub(crate) fn crossing_step(a: Point, b: Point, p: Point, inside: &mut bool) -> bool {
    debug_assert!(a.y.min(b.y) <= p.y && p.y <= a.y.max(b.y));
    // Half-open straddle rule: each crossing of the line y = p.y counts once.
    let straddles = (a.y > p.y) != (b.y > p.y);
    // Bitwise `&`: both operands are single comparisons, and a
    // short-circuit branch would follow each edge's direction.
    if (p.x < a.x) & (p.x < b.x) {
        // Strictly right of p: a straddling edge crosses the ray.
        *inside ^= straddles;
        return false;
    }
    if (a.x < p.x) & (b.x < p.x) {
        // Strictly left of p: never on the ray, never through p.
        return false;
    }
    let o = orient2d(a, b, p);
    if o == 0.0 {
        return true;
    }
    // For an upward edge, a crossing right of p means p is strictly left of
    // the directed edge; downward is symmetric.
    *inside ^= straddles & ((o > 0.0) == (b.y > a.y));
    false
}

/// `true` when the closed y-range of the edge `a → b` excludes `p.y`: the
/// edge neither crosses the horizontal line through `p` nor holds `p`.
#[inline]
fn y_range_excludes(a: Point, b: Point, p: Point) -> bool {
    ((a.y > p.y) & (b.y > p.y)) | ((a.y < p.y) & (b.y < p.y))
}

impl From<Rect> for Polygon {
    fn from(r: Rect) -> Polygon {
        Polygon::from_vertices(r.corners().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn square() -> Polygon {
        Polygon::new(vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 4.0), p(0.0, 4.0)]).unwrap()
    }

    /// Concave "L" shape.
    fn ell() -> Polygon {
        Polygon::new(vec![
            p(0.0, 0.0),
            p(4.0, 0.0),
            p(4.0, 1.0),
            p(1.0, 1.0),
            p(1.0, 4.0),
            p(0.0, 4.0),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            Polygon::new(vec![p(0.0, 0.0), p(1.0, 1.0)]),
            Err(GeomError::TooFewVertices(2))
        ));
        assert!(matches!(
            Polygon::new(vec![p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)]),
            Err(GeomError::DegeneratePolygon)
        ));
        assert!(matches!(
            Polygon::new(vec![p(0.0, 0.0), p(1.0, f64::NAN), p(2.0, 0.0)]),
            Err(GeomError::NonFiniteCoordinate(_))
        ));
        assert!(square().is_simple());
    }

    #[test]
    fn areas_and_winding() {
        let sq = square();
        assert_eq!(sq.area(), 16.0);
        assert!(sq.is_ccw());
        assert!(!sq.reversed().is_ccw());
        assert_eq!(sq.reversed().area(), 16.0);
        assert_eq!(ell().area(), 7.0);
        assert_eq!(sq.perimeter(), 16.0);
    }

    #[test]
    fn centroid_square() {
        assert!(square().centroid().approx_eq(p(2.0, 2.0), 1e-12));
        // Winding direction must not change the centroid.
        assert!(square().reversed().centroid().approx_eq(p(2.0, 2.0), 1e-12));
    }

    #[test]
    fn mbr_of_ell() {
        let b = ell().mbr();
        assert_eq!(b.min, p(0.0, 0.0));
        assert_eq!(b.max, p(4.0, 4.0));
        // The crux of the paper: MBR area (16) ≫ polygon area (7).
        assert!(b.area() > 2.0 * ell().area());
    }

    #[test]
    fn contains_convex() {
        let sq = square();
        assert!(sq.contains(p(2.0, 2.0)));
        assert!(sq.contains(p(0.0, 0.0))); // vertex
        assert!(sq.contains(p(2.0, 0.0))); // edge
        assert!(sq.contains(p(4.0, 4.0)));
        assert!(!sq.contains(p(4.0 + 1e-12, 2.0)));
        assert!(!sq.contains(p(-1.0, 2.0)));
    }

    #[test]
    fn contains_concave() {
        let l = ell();
        assert!(l.contains(p(0.5, 3.0))); // vertical arm
        assert!(l.contains(p(3.0, 0.5))); // horizontal arm
        assert!(!l.contains(p(2.0, 2.0))); // the notch
        assert!(l.contains(p(1.0, 1.0))); // reflex vertex
        assert!(l.contains(p(2.0, 1.0))); // notch edge
        assert!(!l.contains(p(2.0, 1.0 + 1e-12)));
    }

    #[test]
    fn contains_agrees_for_both_windings() {
        let l = ell();
        let r = l.reversed();
        let probes = [
            p(0.5, 3.0),
            p(3.0, 0.5),
            p(2.0, 2.0),
            p(1.0, 1.0),
            p(-0.5, 0.5),
            p(0.0, 2.0),
        ];
        for q in probes {
            assert_eq!(l.contains(q), r.contains(q), "probe {q}");
        }
    }

    #[test]
    fn strict_vs_closed_containment() {
        let sq = square();
        assert!(sq.contains(p(0.0, 2.0)));
        assert!(!sq.contains_strict(p(0.0, 2.0)));
        assert!(sq.contains_strict(p(2.0, 2.0)));
        assert!(sq.on_boundary(p(0.0, 2.0)));
        assert!(!sq.on_boundary(p(2.0, 2.0)));
    }

    #[test]
    fn segment_intersection_closed_region() {
        let sq = square();
        // Fully inside.
        assert!(sq.intersects_segment(&Segment::new(p(1.0, 1.0), p(2.0, 2.0))));
        // Crossing.
        assert!(sq.intersects_segment(&Segment::new(p(-1.0, 2.0), p(5.0, 2.0))));
        // Touching a vertex from outside.
        assert!(sq.intersects_segment(&Segment::new(p(-1.0, -1.0), p(0.0, 0.0))));
        // Fully outside.
        assert!(!sq.intersects_segment(&Segment::new(p(5.0, 5.0), p(6.0, 5.0))));
        // Outside the notch of the L: endpoints outside, no crossing.
        assert!(!ell().intersects_segment(&Segment::new(p(2.0, 2.0), p(3.0, 3.0))));
    }

    #[test]
    fn rect_intersection() {
        let l = ell();
        assert!(l.intersects_rect(&Rect::new(p(0.0, 0.0), p(0.5, 0.5))));
        // Rect fully in the notch: MBRs overlap but regions don't.
        assert!(!l.intersects_rect(&Rect::new(p(2.0, 2.0), p(3.5, 3.5))));
        // Rect containing the whole polygon.
        assert!(l.intersects_rect(&Rect::new(p(-1.0, -1.0), p(5.0, 5.0))));
        assert!(!l.intersects_rect(&Rect::new(p(10.0, 10.0), p(11.0, 11.0))));
    }

    #[test]
    fn polygon_polygon_intersection() {
        let sq = square();
        let shifted = sq.translated(3.0, 3.0);
        assert!(sq.intersects_polygon(&shifted));
        let far = sq.translated(10.0, 0.0);
        assert!(!sq.intersects_polygon(&far));
        // Nested polygons intersect.
        let inner = sq.scaled(0.25, p(2.0, 2.0));
        assert!(sq.intersects_polygon(&inner));
        assert!(inner.intersects_polygon(&sq));
    }

    #[test]
    fn simplicity_detection() {
        assert!(square().is_simple());
        assert!(ell().is_simple());
        // Bowtie. Its signed area is exactly zero (the two lobes cancel), so
        // `Polygon::new` would reject it as degenerate; bypass validation.
        let bow = Polygon::new_unchecked(vec![p(0.0, 0.0), p(2.0, 2.0), p(2.0, 0.0), p(0.0, 2.0)]);
        assert!(!bow.is_simple());
        // An asymmetric bowtie has nonzero signed area and passes validation,
        // but is still non-simple.
        let bow2 = Polygon::new(vec![p(0.0, 0.0), p(4.0, 3.0), p(4.0, 0.0), p(0.0, 2.0)]).unwrap();
        assert!(!bow2.is_simple());
    }

    #[test]
    fn convexity() {
        assert!(square().is_convex());
        assert!(!ell().is_convex());
        assert!(square().reversed().is_convex());
    }

    #[test]
    fn interior_point_inside() {
        // Concave polygon whose centroid falls in the notch: a "U" shape.
        let u = Polygon::new(vec![
            p(0.0, 0.0),
            p(5.0, 0.0),
            p(5.0, 5.0),
            p(4.0, 5.0),
            p(4.0, 1.0),
            p(1.0, 1.0),
            p(1.0, 5.0),
            p(0.0, 5.0),
        ])
        .unwrap();
        let ip = u.interior_point();
        assert!(u.contains_strict(ip), "got {ip}");
        assert!(square().contains_strict(square().interior_point()));
        assert!(ell().contains_strict(ell().interior_point()));
    }

    #[test]
    fn winding_number_oracle_agrees() {
        let l = ell();
        for q in [
            p(0.5, 0.5),
            p(3.5, 0.5),
            p(2.0, 2.0),
            p(-1.0, 0.5),
            p(0.5, 3.9),
        ] {
            let by_crossing = l.contains(q) && !l.on_boundary(q);
            let by_winding = l.winding_number(q) != 0;
            assert_eq!(by_crossing, by_winding, "probe {q}");
        }
    }

    #[test]
    fn from_rect() {
        let poly: Polygon = Rect::new(p(0.0, 0.0), p(2.0, 1.0)).into();
        assert_eq!(poly.area(), 2.0);
        assert!(poly.is_ccw());
        assert!(poly.is_convex());
    }

    #[test]
    fn scaled_and_translated() {
        let sq = square();
        let t = sq.translated(1.0, 2.0);
        assert_eq!(t.mbr().min, p(1.0, 2.0));
        let s = sq.scaled(0.5, p(0.0, 0.0));
        assert_eq!(s.area(), 4.0);
    }
}
