//! The query-area abstraction.
//!
//! The paper evaluates on simple polygons, but neither method cares what
//! the area *is* — they need exactly five operations. [`QueryArea`]
//! captures them, so the engine answers queries over plain polygons and
//! over [`Region`]s (polygons with holes) with the same code.
//!
//! **Contract**: the area's interior must be *connected* (a polygon always
//! is; a region is as long as its holes don't touch each other or the
//! outer ring — see [`Region::validate_nesting`]). The Voronoi method's
//! completeness argument (the connectivity lemma in [`crate::classify`])
//! needs connectedness; the traditional method does not, but a
//! disconnected "area" is two queries in disguise anyway.

use std::hash::{Hash, Hasher};
use vaq_geom::{Point, Polygon, PreparedPolygon, PreparedRegion, Rect, Region, Segment};

/// A content hash of a query area's vertices, keying the prepared-area
/// cache (a session's LRU, a batch's deduplication).
///
/// Two areas with the same fingerprint are geometrically identical down to
/// the last f64 bit: the `words` hold the exact coordinate bit patterns
/// (plus ring structure), so a 64-bit hash collision is detected by the
/// full comparison instead of silently answering the wrong query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AreaFingerprint {
    hash: u64,
    words: Vec<u64>,
}

impl AreaFingerprint {
    /// Builds a fingerprint from the area's content words (FNV-1a over
    /// whole words). The hash only filters: equal fingerprints also need
    /// equal `words`, so a collision costs a comparison, never an answer.
    pub fn new(words: Vec<u64>) -> AreaFingerprint {
        let hash = words.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &w| {
            (hash ^ w).wrapping_mul(0x0000_0100_0000_01B3)
        });
        AreaFingerprint { hash, words }
    }
}

/// Hashes the precomputed 64-bit content hash only, so a hash-map probe
/// never re-reads the words; equality still compares them.
impl Hash for AreaFingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Encodes a sequence of vertex rings as fingerprint words: a leading ring
/// count, each ring's length, then every coordinate's exact bit pattern.
/// The length prefixes make the encoding prefix-free across ring layouts.
fn ring_words<'a>(rings: impl Iterator<Item = &'a [Point]> + Clone) -> Vec<u64> {
    let ring_count = rings.clone().count() as u64;
    let total: usize = rings.clone().map(<[Point]>::len).sum();
    let mut words = Vec::with_capacity(1 + ring_count as usize + 2 * total);
    words.push(ring_count);
    for ring in rings {
        words.push(ring.len() as u64);
        for p in ring {
            words.push(p.x.to_bits());
            words.push(p.y.to_bits());
        }
    }
    words
}

/// Operations the area-query methods need from a query area.
///
/// The five required methods are the geometric primitives; the two
/// provided methods ([`QueryArea::fingerprint`] and [`QueryArea::prepare`])
/// opt an area into the prepared-area machinery of `PrepareMode` — types
/// that are already their own best representation (a [`Rect`], an already
/// prepared polygon) keep the `None` defaults and pass through untouched.
pub trait QueryArea {
    /// Minimum bounding rectangle (drives the traditional filter).
    fn mbr(&self) -> Rect;

    /// Exact closed containment test (the refinement primitive).
    fn contains(&self, p: Point) -> bool;

    /// `true` when the segment crosses or touches the area's boundary;
    /// used by the segment expansion policy where one endpoint is known to
    /// be outside the area.
    fn boundary_intersects_segment(&self, s: &Segment) -> bool;

    /// `true` when the closed area shares a point with the closed polygon
    /// (used by the cell expansion policy with a convex Voronoi cell).
    fn intersects_polygon(&self, poly: &Polygon) -> bool;

    /// Some point inside the area (the paper's "arbitrary position in A",
    /// which seeds the Voronoi method).
    fn interior_point(&self) -> Point;

    /// The area's combinatorial complexity `k` — its total vertex count
    /// (outer ring plus holes). Every geometric primitive above is
    /// `O(k)` raw, so this is the planner's per-primitive cost feature.
    /// The default is a generic small-polygon estimate for area types
    /// that don't override it.
    fn complexity(&self) -> usize {
        8
    }

    /// Content hash of the area's exact vertex data, keying the
    /// prepared-area cache. `None` (the default) opts out of caching:
    /// `PrepareMode::Cached` then runs the area as-is.
    ///
    /// Contract: `a.fingerprint() == b.fingerprint()` (both `Some`) must
    /// imply `a` and `b` answer every [`QueryArea`] primitive identically.
    fn fingerprint(&self) -> Option<AreaFingerprint> {
        None
    }

    /// Query-compiles the area into a faster, exactly-equivalent form
    /// (e.g. [`Polygon`] → [`PreparedPolygon`]). `None` (the default)
    /// means the area is already its own best representation and prepare
    /// modes pass it through unchanged.
    ///
    /// The compiled form is `Send + Sync` so one preparation can be
    /// shared by every worker of a parallel batch (and by every shard of
    /// a sharded engine) — prepared areas are immutable after
    /// construction.
    ///
    /// Contract: the returned area must answer every [`QueryArea`]
    /// primitive bit-identically to `self`.
    fn prepare(&self) -> Option<Box<dyn QueryArea + Send + Sync>> {
        None
    }
}

impl QueryArea for Polygon {
    #[inline]
    fn mbr(&self) -> Rect {
        Polygon::mbr(self)
    }

    #[inline]
    fn contains(&self, p: Point) -> bool {
        Polygon::contains(self, p)
    }

    #[inline]
    fn boundary_intersects_segment(&self, s: &Segment) -> bool {
        Polygon::boundary_intersects_segment(self, s)
    }

    #[inline]
    fn intersects_polygon(&self, poly: &Polygon) -> bool {
        Polygon::intersects_polygon(self, poly)
    }

    #[inline]
    fn interior_point(&self) -> Point {
        Polygon::interior_point(self)
    }

    #[inline]
    fn complexity(&self) -> usize {
        self.len()
    }

    fn fingerprint(&self) -> Option<AreaFingerprint> {
        Some(AreaFingerprint::new(ring_words(std::iter::once(
            self.vertices(),
        ))))
    }

    fn prepare(&self) -> Option<Box<dyn QueryArea + Send + Sync>> {
        Some(Box::new(PreparedPolygon::new(self.clone())))
    }
}

impl QueryArea for Region {
    #[inline]
    fn mbr(&self) -> Rect {
        Region::mbr(self)
    }

    #[inline]
    fn contains(&self, p: Point) -> bool {
        Region::contains(self, p)
    }

    #[inline]
    fn boundary_intersects_segment(&self, s: &Segment) -> bool {
        Region::boundary_intersects_segment(self, s)
    }

    #[inline]
    fn intersects_polygon(&self, poly: &Polygon) -> bool {
        Region::intersects_polygon(self, poly)
    }

    #[inline]
    fn interior_point(&self) -> Point {
        Region::interior_point(self)
    }

    #[inline]
    fn complexity(&self) -> usize {
        self.outer().len() + self.holes().iter().map(Polygon::len).sum::<usize>()
    }

    fn fingerprint(&self) -> Option<AreaFingerprint> {
        let rings = std::iter::once(self.outer().vertices())
            .chain(self.holes().iter().map(Polygon::vertices));
        Some(AreaFingerprint::new(ring_words(rings)))
    }

    fn prepare(&self) -> Option<Box<dyn QueryArea + Send + Sync>> {
        Some(Box::new(PreparedRegion::new(self.clone())))
    }
}

/// Axis-aligned window queries through the same API: a [`Rect`] is a
/// first-class query area. Every primitive is already `O(1)`, so the rect
/// is its own prepared form — prepare modes pass it through unchanged
/// (`fingerprint`/`prepare` keep the `None` defaults).
///
/// The rect must be non-empty (see [`Rect::is_empty`]); an empty rect has
/// no interior point to seed the Voronoi method with.
impl QueryArea for Rect {
    #[inline]
    fn mbr(&self) -> Rect {
        *self
    }

    #[inline]
    fn contains(&self, p: Point) -> bool {
        self.contains_point(p)
    }

    fn boundary_intersects_segment(&self, s: &Segment) -> bool {
        let c = self.corners();
        (0..4).any(|i| s.intersects(&Segment::new(c[i], c[(i + 1) % 4])))
    }

    #[inline]
    fn intersects_polygon(&self, poly: &Polygon) -> bool {
        poly.intersects_rect(self)
    }

    #[inline]
    fn interior_point(&self) -> Point {
        self.center()
    }

    #[inline]
    fn complexity(&self) -> usize {
        4
    }
}

/// Prepared areas answer the same five operations through their
/// build-once indexes — results are bit-identical to the raw types (see
/// `vaq_geom::prepared`), so queries over a [`PreparedPolygon`] return
/// exactly what the raw [`Polygon`] would, faster.
impl QueryArea for PreparedPolygon {
    #[inline]
    fn mbr(&self) -> Rect {
        PreparedPolygon::mbr(self)
    }

    #[inline]
    fn contains(&self, p: Point) -> bool {
        PreparedPolygon::contains(self, p)
    }

    #[inline]
    fn boundary_intersects_segment(&self, s: &Segment) -> bool {
        PreparedPolygon::boundary_intersects_segment(self, s)
    }

    #[inline]
    fn intersects_polygon(&self, poly: &Polygon) -> bool {
        PreparedPolygon::intersects_polygon(self, poly)
    }

    #[inline]
    fn interior_point(&self) -> Point {
        PreparedPolygon::interior_point(self)
    }

    #[inline]
    fn complexity(&self) -> usize {
        PreparedPolygon::len(self)
    }
}

impl QueryArea for PreparedRegion {
    #[inline]
    fn mbr(&self) -> Rect {
        PreparedRegion::mbr(self)
    }

    #[inline]
    fn contains(&self, p: Point) -> bool {
        PreparedRegion::contains(self, p)
    }

    #[inline]
    fn boundary_intersects_segment(&self, s: &Segment) -> bool {
        PreparedRegion::boundary_intersects_segment(self, s)
    }

    #[inline]
    fn intersects_polygon(&self, poly: &Polygon) -> bool {
        PreparedRegion::intersects_polygon(self, poly)
    }

    #[inline]
    fn interior_point(&self) -> Point {
        PreparedRegion::interior_point(self)
    }

    #[inline]
    fn complexity(&self) -> usize {
        PreparedRegion::outer(self).len()
            + PreparedRegion::holes(self)
                .iter()
                .map(PreparedPolygon::len)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn tri() -> Polygon {
        Polygon::new(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)]).unwrap()
    }

    /// The trait methods forward to the inherent ones.
    #[test]
    fn polygon_forwarding() {
        let a = tri();
        assert_eq!(QueryArea::mbr(&a), Polygon::mbr(&a));
        assert!(QueryArea::contains(&a, p(0.2, 0.2)));
        assert!(QueryArea::boundary_intersects_segment(
            &a,
            &Segment::new(p(-1.0, 0.5), p(1.0, 0.5))
        ));
        assert!(QueryArea::contains(&a, QueryArea::interior_point(&a)));
    }

    /// Prepared areas answer the five operations identically to raw.
    #[test]
    fn prepared_forwarding_matches_raw() {
        let a = tri();
        let prep = PreparedPolygon::new(a.clone());
        assert_eq!(QueryArea::mbr(&prep), QueryArea::mbr(&a));
        assert_eq!(
            QueryArea::interior_point(&prep),
            QueryArea::interior_point(&a)
        );
        let probes = [p(0.2, 0.2), p(0.0, 0.0), p(0.5, 0.5), p(2.0, 2.0)];
        for q in probes {
            assert_eq!(QueryArea::contains(&prep, q), QueryArea::contains(&a, q));
        }
        let s = Segment::new(p(-1.0, 0.5), p(1.0, 0.5));
        assert_eq!(
            QueryArea::boundary_intersects_segment(&prep, &s),
            QueryArea::boundary_intersects_segment(&a, &s)
        );
        assert_eq!(
            QueryArea::intersects_polygon(&prep, &tri()),
            QueryArea::intersects_polygon(&a, &tri())
        );

        let outer = Polygon::new(vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 4.0), p(0.0, 4.0)]).unwrap();
        let hole = Polygon::new(vec![p(1.0, 1.0), p(3.0, 1.0), p(3.0, 3.0), p(1.0, 3.0)]).unwrap();
        let r = Region::new(outer, vec![hole]);
        let prep_r = PreparedRegion::new(r.clone());
        for q in [p(0.5, 0.5), p(2.0, 2.0), p(5.0, 5.0), p(1.0, 2.0)] {
            assert_eq!(QueryArea::contains(&prep_r, q), QueryArea::contains(&r, q));
        }
        assert_eq!(
            QueryArea::interior_point(&prep_r),
            QueryArea::interior_point(&r)
        );
    }

    #[test]
    fn region_forwarding() {
        let outer = Polygon::new(vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 4.0), p(0.0, 4.0)]).unwrap();
        let hole = Polygon::new(vec![p(1.0, 1.0), p(3.0, 1.0), p(3.0, 3.0), p(1.0, 3.0)]).unwrap();
        let r = Region::new(outer, vec![hole]);
        assert!(QueryArea::contains(&r, p(0.5, 0.5)));
        assert!(!QueryArea::contains(&r, p(2.0, 2.0)));
        let ip = QueryArea::interior_point(&r);
        assert!(QueryArea::contains(&r, ip));
        assert!(QueryArea::intersects_polygon(&r, &tri()));
    }
}
