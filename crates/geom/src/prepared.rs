//! Prepared (query-compiled) areas: build-once indexes over a query
//! polygon that let the per-call geometric primitives examine only the
//! edges that can affect their answer, instead of all `k` edges.
//!
//! Both area-query methods of the paper spend their inner loop on two
//! primitives against the query area `A`:
//!
//! * `Contains(A, p)` — Algorithm 1 line 9 and the traditional refine
//!   step: one call per candidate;
//! * `Intersects(p–pn, A)` — Algorithm 1 line 21 (the segment expansion
//!   test): one call per frontier edge.
//!
//! A raw [`Polygon`] answers each with a scan over every edge, deciding
//! most edges by coordinate comparisons alone (see the exactness contract
//! below). A [`PreparedPolygon`] preprocesses the ring once into
//!
//! 1. a **slab decomposition** over the sorted distinct vertex
//!    y-coordinates, listing for each open slab the edges that span it
//!    and for each boundary value the edges whose closed y-range holds
//!    it. Containment binary-searches the slab (or boundary value) that
//!    holds `p.y` and runs the raw crossing step over the `s` edges
//!    listed there: `O(log k + s)` per call, where `s` is a small
//!    fraction of `k` for the paper's star-shaped query areas;
//! 2. an **edge-bucket grid** over the MBR, so a segment test only
//!    examines edges registered in the grid cells the segment's bounding
//!    box overlaps;
//! 3. a **cached MBR and interior point** (the raw path recomputes the
//!    interior point `O(k)` per query seed).
//!
//! ## Exactness contract
//!
//! Every prepared operation returns **bit-identical results** to the raw
//! [`Polygon`]/[`Region`] implementation, for *any* ring of finite
//! coordinates — including non-simple and degenerate ones — and both
//! return what an exact [`orient2d`] on every edge would. Raw and
//! prepared containment run one crossing step per examined edge
//! (`crossing_step` in `polygon.rs`). It calls [`orient2d`] once, and only
//! for an edge whose closed bounding box holds `p`; every other edge is
//! decided by a proof in exact arithmetic (coordinate comparisons only):
//!
//! * an edge whose closed y-range excludes `p.y` neither straddles the
//!   horizontal ray through `p` nor can contain `p` on its boundary — so
//!   the step skips it, and the slab lists may leave it out;
//! * a straddling edge lying entirely strictly right of `p`
//!   (`p.x < min_x`) crosses the ray strictly right of `p` and therefore
//!   toggles the crossing parity — for either edge direction — without
//!   needing the orientation predicate;
//! * a straddling edge entirely strictly left of `p` (`max_x < p.x`)
//!   crosses strictly left and never toggles;
//! * a point outside the MBR lies in no edge's box, and the ring crosses
//!   the horizontal line through it an even number of times, all on one
//!   side: both paths answer `false` before scanning;
//! * a polygon edge whose bounding box misses a query segment's bounding
//!   box fails the [`Segment::intersects`] fast-reject, so the raw segment
//!   scan rejects it by comparison and grid cells outside the segment's
//!   bounding box cannot hide a hit.
//!
//! The oracle does not share this step: a test-only reference
//! (`tests/reference/mod.rs`) keeps the all-edges scans, a box check plus
//! [`orient2d`] on every edge for containment and [`Segment::intersects`]
//! on every edge for segments. The differential property suite
//! (`tests/prepared_differential.rs`) checks raw and prepared areas
//! against it on random, degenerate and adversarial inputs, and
//! `tests/lattice_sweep.rs` checks every triangle and quad with corners on
//! a 4 × 4 integer lattice exhaustively.
//!
//! [`orient2d`]: crate::predicates::orient2d

use crate::point::Point;
use crate::polygon::{crossing_step, Polygon};
use crate::predicates::orient2d_filter;
use crate::rect::Rect;
use crate::region::Region;
use crate::segment::Segment;
use std::sync::OnceLock;

/// One preprocessed boundary edge: endpoints in ring order plus the
/// coordinate extremes the slab and grid builds and the segment box
/// reject read.
#[derive(Clone, Copy, Debug)]
struct PreparedEdge {
    a: Point,
    b: Point,
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
}

impl PreparedEdge {
    fn new(a: Point, b: Point) -> PreparedEdge {
        PreparedEdge {
            a,
            b,
            min_x: a.x.min(b.x),
            max_x: a.x.max(b.x),
            min_y: a.y.min(b.y),
            max_y: a.y.max(b.y),
        }
    }

    #[inline]
    fn segment(&self) -> Segment {
        Segment::new(self.a, self.b)
    }
}

/// Slab decomposition for point-in-polygon: the candidate edges of every
/// open slab and of every slab boundary, each list in ring order.
#[derive(Clone, Debug, Default)]
struct Slabs {
    /// Sorted distinct vertex y-coordinates (slab boundaries).
    ys: Vec<f64>,
    /// CSR offsets into `span_edges`, one slab per adjacent `ys` pair.
    span_off: Vec<u32>,
    /// Edges spanning each open slab.
    span_edges: Vec<u32>,
    /// CSR offsets into `at_edges`, one entry per value in `ys`.
    at_off: Vec<u32>,
    /// Edges whose closed y-range contains each boundary value (the
    /// candidate list when `p.y` equals a vertex y).
    at_edges: Vec<u32>,
}

impl Slabs {
    fn build(edges: &[PreparedEdge]) -> Slabs {
        let mut ys: Vec<f64> = edges.iter().flat_map(|e| [e.a.y, e.b.y]).collect();
        ys.sort_by(f64::total_cmp);
        ys.dedup();
        let n_slabs = ys.len().saturating_sub(1);

        // Counting pass then fill pass (CSR construction).
        let mut span_count = vec![0u32; n_slabs];
        let mut at_count = vec![0u32; ys.len()];
        let mut edge_slab_range = Vec::with_capacity(edges.len());
        for e in edges {
            // Index of the first boundary >= min_y / max_y. Both are exact
            // members of `ys`.
            let lo = ys.partition_point(|&y| y < e.min_y);
            let hi = ys.partition_point(|&y| y < e.max_y);
            debug_assert!(ys[lo] == e.min_y && ys[hi] == e.max_y);
            edge_slab_range.push((lo, hi));
            // The edge spans every open slab between its y-extremes...
            for c in &mut span_count[lo..hi] {
                *c += 1;
            }
            // ...and is a candidate at every boundary value it touches.
            for c in &mut at_count[lo..=hi] {
                *c += 1;
            }
        }
        let mut span_off = vec![0u32; n_slabs + 1];
        for i in 0..n_slabs {
            span_off[i + 1] = span_off[i] + span_count[i];
        }
        let mut at_off = vec![0u32; ys.len() + 1];
        for i in 0..ys.len() {
            at_off[i + 1] = at_off[i] + at_count[i];
        }
        let mut span_edges = vec![0u32; span_off[n_slabs] as usize];
        let mut at_edges = vec![0u32; at_off[ys.len()] as usize];
        let mut span_cursor: Vec<u32> = span_off[..n_slabs].to_vec();
        let mut at_cursor: Vec<u32> = at_off[..ys.len()].to_vec();
        for (ei, &(lo, hi)) in edge_slab_range.iter().enumerate() {
            for s in lo..hi {
                span_edges[span_cursor[s] as usize] = ei as u32;
                span_cursor[s] += 1;
            }
            for yi in lo..=hi {
                at_edges[at_cursor[yi] as usize] = ei as u32;
                at_cursor[yi] += 1;
            }
        }
        Slabs {
            ys,
            span_off,
            span_edges,
            at_off,
            at_edges,
        }
    }

    #[inline]
    fn span(&self, slab: usize) -> &[u32] {
        &self.span_edges[self.span_off[slab] as usize..self.span_off[slab + 1] as usize]
    }

    #[inline]
    fn at(&self, yi: usize) -> &[u32] {
        &self.at_edges[self.at_off[yi] as usize..self.at_off[yi + 1] as usize]
    }
}

/// Uniform edge-bucket grid for segment and boundary tests.
#[derive(Clone, Debug, Default)]
struct EdgeGrid {
    origin: Point,
    inv_cell_w: f64,
    inv_cell_h: f64,
    nx: u32,
    ny: u32,
    /// CSR offsets into `cell_edges`, row-major `ny × nx` cells.
    cell_off: Vec<u32>,
    cell_edges: Vec<u32>,
    /// Per-edge cell range `(cx0, cy0, cx1, cy1)` for the report-once
    /// trick during range scans.
    edge_cells: Vec<(u32, u32, u32, u32)>,
}

impl EdgeGrid {
    fn build(edges: &[PreparedEdge], mbr: &Rect) -> EdgeGrid {
        // ~1 edge per cell-row on average: an n×n grid with n ≈ √k.
        // vaq-lint: allow(float-exactness) -- grid sizing heuristic, not a
        // predicate: √k is clamped into 1..=256 so the casts cannot
        // truncate meaningfully, and any rounding only shifts cell sizes.
        let n = ((edges.len() as f64).sqrt().ceil() as u32).clamp(1, 256);
        let (nx, ny) = (n, n);
        let width = mbr.width();
        let height = mbr.height();
        // vaq-lint: allow(float-exactness) -- degenerate-MBR guard: a
        // zero-width extent maps every point to cell column 0, which is
        // the correct bucket; grid placement never decides geometry.
        let inv_cell_w = if width > 0.0 {
            f64::from(nx) / width
        } else {
            0.0
        };
        // vaq-lint: allow(float-exactness) -- same degenerate-MBR guard as
        // `inv_cell_w` above, for the y extent.
        let inv_cell_h = if height > 0.0 {
            f64::from(ny) / height
        } else {
            0.0
        };
        let mut grid = EdgeGrid {
            origin: mbr.min,
            inv_cell_w,
            inv_cell_h,
            nx,
            ny,
            cell_off: vec![0; (nx * ny + 1) as usize],
            cell_edges: Vec::new(),
            edge_cells: Vec::with_capacity(edges.len()),
        };
        let mut count = vec![0u32; (nx * ny) as usize];
        for e in edges {
            let (cx0, cy0) = grid.cell_of(e.min_x, e.min_y);
            let (cx1, cy1) = grid.cell_of(e.max_x, e.max_y);
            grid.edge_cells.push((cx0, cy0, cx1, cy1));
            for cy in cy0..=cy1 {
                for cx in cx0..=cx1 {
                    count[(cy * nx + cx) as usize] += 1;
                }
            }
        }
        for (i, &c) in count.iter().enumerate() {
            grid.cell_off[i + 1] = grid.cell_off[i] + c;
        }
        grid.cell_edges = vec![0; grid.cell_off[(nx * ny) as usize] as usize];
        let mut cursor: Vec<u32> = grid.cell_off[..(nx * ny) as usize].to_vec();
        for (ei, &(cx0, cy0, cx1, cy1)) in grid.edge_cells.iter().enumerate() {
            for cy in cy0..=cy1 {
                for cx in cx0..=cx1 {
                    let c = (cy * nx + cx) as usize;
                    grid.cell_edges[cursor[c] as usize] = ei as u32;
                    cursor[c] += 1;
                }
            }
        }
        grid
    }

    /// Grid cell of a coordinate, clamped into range (coordinates outside
    /// the MBR land in the nearest border cell, which is correct because
    /// callers intersect query ranges with the MBR first).
    #[inline]
    fn cell_of(&self, x: f64, y: f64) -> (u32, u32) {
        let cx = ((x - self.origin.x) * self.inv_cell_w).floor();
        let cy = ((y - self.origin.y) * self.inv_cell_h).floor();
        (
            // vaq-lint: allow(float-exactness) -- bucket assignment, not a
            // predicate: the floored value is clamped into 0..nx so the
            // cast is total, and a point landing one cell off only costs
            // a redundant edge test, never a wrong answer.
            (cx.max(0.0) as u32).min(self.nx - 1),
            // vaq-lint: allow(float-exactness) -- same clamped bucket
            // assignment as `cx` above.
            (cy.max(0.0) as u32).min(self.ny - 1),
        )
    }

    #[inline]
    fn cell(&self, cx: u32, cy: u32) -> &[u32] {
        let c = (cy * self.nx + cx) as usize;
        &self.cell_edges[self.cell_off[c] as usize..self.cell_off[c + 1] as usize]
    }

    /// Runs `visit` over every edge whose bounding box overlaps `range`,
    /// exactly once per edge (report-once trick: an edge is visited only
    /// in the first overlapping cell of the scan order). Stops early when
    /// `visit` returns `true`; returns whether it did.
    fn for_edges_in_range(&self, range: &Rect, mut visit: impl FnMut(u32) -> bool) -> bool {
        let (qx0, qy0) = self.cell_of(range.min.x, range.min.y);
        let (qx1, qy1) = self.cell_of(range.max.x, range.max.y);
        for cy in qy0..=qy1 {
            for cx in qx0..=qx1 {
                for &ei in self.cell(cx, cy) {
                    let (ex0, ey0, ..) = self.edge_cells[ei as usize];
                    // First visited cell for this edge within the range.
                    if cx == ex0.max(qx0) && cy == ey0.max(qy0) && visit(ei) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Filter-first edge-vs-segment test for the grid scan: after the same
/// bounding-box fast-reject the raw [`Segment::intersects`] starts with,
/// both endpoints of the candidate edge are classified against the query
/// segment's supporting line through the cheap orientation filter
/// ([`orient2d_filter`]). An edge certified strictly on one side of that
/// line shares no point with the segment and skips the four-predicate
/// exact test; every surviving edge runs the full exact
/// [`Segment::intersects`] — so the outcome is bit-identical to testing
/// the edge directly.
#[inline]
fn edge_intersects_filtered(e: &PreparedEdge, s: &Segment, sbox: &Rect) -> bool {
    // The raw test's bounding-box fast-reject, on the cached extremes.
    if e.min_x > sbox.max.x || e.max_x < sbox.min.x || e.min_y > sbox.max.y || e.max_y < sbox.min.y
    {
        return false;
    }
    let (da, da_ok) = orient2d_filter(s.a, s.b, e.a);
    // vaq-lint: allow(float-exactness) -- `da` is only compared under the
    // `da_ok` guard, which certifies the filtered sign is the exact sign.
    if da_ok && da != 0.0 {
        let (db, db_ok) = orient2d_filter(s.a, s.b, e.b);
        // vaq-lint: allow(float-exactness) -- both signs guarded by their
        // filter certificates (`da_ok` above, `db_ok` here).
        if db_ok && ((da > 0.0 && db > 0.0) || (da < 0.0 && db < 0.0)) {
            // Both endpoints certified strictly on one side of the
            // segment's supporting line: the edge cannot meet it.
            return false;
        }
    }
    e.segment().intersects(s)
}

/// A query polygon preprocessed for fast repeated containment and segment
/// tests. Build once per query area, reuse across every candidate
/// validation and expansion test of that query (and across a batch).
///
/// All operations return results **identical** to the equivalent raw
/// [`Polygon`] calls — see the module docs for the exactness contract.
#[derive(Clone, Debug)]
pub struct PreparedPolygon {
    poly: Polygon,
    edges: Vec<PreparedEdge>,
    slabs: Slabs,
    grid: EdgeGrid,
    interior: OnceLock<Point>,
}

impl PreparedPolygon {
    /// Preprocesses a polygon. `O(k log k)` time; `O(k)` space for the
    /// paper's star-shaped query areas (worst case `O(k²)` for rings
    /// where many long edges span many slabs).
    pub fn new(poly: Polygon) -> PreparedPolygon {
        let verts = poly.vertices();
        let n = verts.len();
        let edges: Vec<PreparedEdge> = (0..n)
            .map(|i| PreparedEdge::new(verts[i], verts[(i + 1) % n]))
            .collect();
        let slabs = Slabs::build(&edges);
        let grid = EdgeGrid::build(&edges, &poly.mbr());
        PreparedPolygon {
            poly,
            edges,
            slabs,
            grid,
            interior: OnceLock::new(),
        }
    }

    /// The underlying polygon.
    #[inline]
    pub fn polygon(&self) -> &Polygon {
        &self.poly
    }

    /// Number of boundary edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` when the source ring is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Cached minimum bounding rectangle.
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.poly.mbr()
    }

    /// Cached interior point (computed lazily with the raw polygon's
    /// algorithm, then reused for every seed query).
    pub fn interior_point(&self) -> Point {
        *self.interior.get_or_init(|| self.poly.interior_point())
    }

    /// `true` when `p` lies inside the polygon or exactly on its boundary.
    /// Identical to [`Polygon::contains`]: one binary search finds the
    /// open slab holding `p.y` (or the boundary value `p.y` equals), and
    /// the raw crossing step runs over the edges listed there —
    /// `O(log k + s)` per call, with `s` the length of that list.
    pub fn contains(&self, p: Point) -> bool {
        if self.poly.len() < 3 || !self.poly.mbr().contains_point(p) {
            // The raw scan's own up-front reject.
            return false;
        }
        let ys = &self.slabs.ys;
        // First boundary >= p.y. The MBR check bounds p.y to
        // [ys[0], ys[last]], so j is always in range.
        let j = ys.partition_point(|&y| y < p.y);
        debug_assert!(j < ys.len());
        // Off a boundary, ys[j-1] < p.y < ys[j]: every edge whose y-range
        // contains p.y spans that open slab.
        let candidates = if ys[j] == p.y {
            self.slabs.at(j)
        } else {
            self.slabs.span(j - 1)
        };
        let mut inside = false;
        for &ei in candidates {
            let e = &self.edges[ei as usize];
            if crossing_step(e.a, e.b, p, &mut inside) {
                return true;
            }
        }
        inside
    }

    /// `true` when `p` lies exactly on the boundary ring. Identical to
    /// [`Polygon::on_boundary`]; only the edges bucketed in `p`'s grid
    /// cell are examined.
    pub fn on_boundary(&self, p: Point) -> bool {
        if !self.poly.mbr().contains_point(p) {
            // An edge containing p would put p inside both bboxes.
            return false;
        }
        let (cx, cy) = self.grid.cell_of(p.x, p.y);
        self.grid
            .cell(cx, cy)
            .iter()
            .any(|&ei| self.edges[ei as usize].segment().contains_point(p))
    }

    /// `true` when `p` lies strictly inside (boundary excluded).
    /// Identical to [`Polygon::contains_strict`].
    pub fn contains_strict(&self, p: Point) -> bool {
        self.contains(p) && !self.on_boundary(p)
    }

    /// `true` when the segment crosses or touches the boundary ring.
    /// Identical to [`Polygon::boundary_intersects_segment`]; only edges
    /// in grid cells overlapping the segment's bounding box are tested,
    /// and their endpoints are classified against the query segment's
    /// supporting line through the cheap orientation filter first — an
    /// edge certified strictly on one side of the line cannot touch the
    /// segment and skips the four-predicate exact test.
    pub fn boundary_intersects_segment(&self, s: &Segment) -> bool {
        let sbox = s.bbox();
        if !self.poly.mbr().intersects(&sbox) {
            return false;
        }
        self.grid.for_edges_in_range(&sbox, |ei| {
            edge_intersects_filtered(&self.edges[ei as usize], s, &sbox)
        })
    }

    /// `true` when the segment shares at least one point with the closed
    /// region. Identical to [`Polygon::intersects_segment`].
    pub fn intersects_segment(&self, s: &Segment) -> bool {
        if !self.poly.mbr().intersects(&s.bbox()) {
            return false;
        }
        if self.contains(s.a) || self.contains(s.b) {
            return true;
        }
        self.boundary_intersects_segment(s)
    }

    /// `true` when the closed regions of `self` and `other` share a point.
    /// Identical to [`Polygon::intersects_polygon`] with `self` as the
    /// receiver.
    pub fn intersects_polygon(&self, other: &Polygon) -> bool {
        if other.is_empty() || self.poly.is_empty() || !self.mbr().intersects(&other.mbr()) {
            return false;
        }
        if other.vertices().iter().any(|&v| self.contains(v)) {
            return true;
        }
        if self.poly.vertices().iter().any(|&v| other.contains(v)) {
            return true;
        }
        other.edges().any(|f| self.boundary_intersects_segment(&f))
    }
}

impl From<Polygon> for PreparedPolygon {
    fn from(poly: Polygon) -> PreparedPolygon {
        PreparedPolygon::new(poly)
    }
}

impl From<&Polygon> for PreparedPolygon {
    fn from(poly: &Polygon) -> PreparedPolygon {
        PreparedPolygon::new(poly.clone())
    }
}

/// A region (polygon with holes) with every ring prepared. Results are
/// identical to the raw [`Region`] operations.
#[derive(Clone, Debug)]
pub struct PreparedRegion {
    outer: PreparedPolygon,
    holes: Vec<PreparedPolygon>,
    interior: OnceLock<Point>,
    /// Kept for interior-point computation (the raw probing algorithm
    /// needs the ring structure).
    region: Region,
}

impl PreparedRegion {
    /// Preprocesses every ring of the region.
    pub fn new(region: Region) -> PreparedRegion {
        let outer = PreparedPolygon::new(region.outer().clone());
        let holes = region
            .holes()
            .iter()
            .map(|h| PreparedPolygon::new(h.clone()))
            .collect();
        PreparedRegion {
            outer,
            holes,
            interior: OnceLock::new(),
            region,
        }
    }

    /// The underlying region.
    #[inline]
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// The prepared outer ring.
    #[inline]
    pub fn outer(&self) -> &PreparedPolygon {
        &self.outer
    }

    /// The prepared hole rings.
    #[inline]
    pub fn holes(&self) -> &[PreparedPolygon] {
        &self.holes
    }

    /// Cached MBR (the outer ring's). Identical to [`Region::mbr`].
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.outer.mbr()
    }

    /// Cached interior point. Identical to [`Region::interior_point`].
    pub fn interior_point(&self) -> Point {
        *self.interior.get_or_init(|| self.region.interior_point())
    }

    /// Closed containment: inside (or on) the outer ring and not strictly
    /// inside any hole. Identical to [`Region::contains`].
    pub fn contains(&self, p: Point) -> bool {
        self.outer.contains(p) && !self.holes.iter().any(|h| h.contains_strict(p))
    }

    /// `true` when the segment crosses or touches any ring. Identical to
    /// [`Region::boundary_intersects_segment`].
    pub fn boundary_intersects_segment(&self, s: &Segment) -> bool {
        self.outer.boundary_intersects_segment(s)
            || self.holes.iter().any(|h| h.boundary_intersects_segment(s))
    }

    /// `true` when the segment shares a point with the closed region.
    /// Identical to [`Region::intersects_segment`].
    pub fn intersects_segment(&self, s: &Segment) -> bool {
        self.contains(s.a) || self.contains(s.b) || self.boundary_intersects_segment(s)
    }

    /// `true` when the closed region and the closed polygon share a point.
    /// Identical to [`Region::intersects_polygon`].
    pub fn intersects_polygon(&self, poly: &Polygon) -> bool {
        if !self.outer.intersects_polygon(poly) {
            return false;
        }
        !self.holes.iter().any(|h| {
            poly.vertices().iter().all(|&v| h.contains_strict(v))
                && !poly.edges().any(|e| h.boundary_intersects_segment(&e))
        })
    }
}

impl From<Region> for PreparedRegion {
    fn from(region: Region) -> PreparedRegion {
        PreparedRegion::new(region)
    }
}

impl From<Polygon> for PreparedRegion {
    fn from(poly: Polygon) -> PreparedRegion {
        PreparedRegion::new(Region::from_polygon(poly))
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

    /// Concave "L" shape with horizontal and vertical edges.
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

    fn probes() -> Vec<Point> {
        let mut v = Vec::new();
        for i in -2..=10 {
            for j in -2..=10 {
                v.push(p(f64::from(i) * 0.5, f64::from(j) * 0.5));
            }
        }
        // Off-grid probes that avoid vertex y-coordinates.
        for i in 0..40 {
            v.push(p(-0.3 + f64::from(i) * 0.13, -0.2 + f64::from(i) * 0.117));
        }
        v
    }

    #[test]
    fn contains_matches_raw_on_grid_probes() {
        for poly in [square(), ell(), ell().reversed()] {
            let prep = PreparedPolygon::new(poly.clone());
            for q in probes() {
                assert_eq!(prep.contains(q), poly.contains(q), "probe {q}");
                assert_eq!(prep.on_boundary(q), poly.on_boundary(q), "probe {q}");
                assert_eq!(
                    prep.contains_strict(q),
                    poly.contains_strict(q),
                    "probe {q}"
                );
            }
        }
    }

    #[test]
    fn vertex_and_edge_probes_hit_boundary() {
        let poly = ell();
        let prep = PreparedPolygon::new(poly.clone());
        for v in poly.vertices() {
            assert!(prep.contains(*v), "vertex {v}");
            assert!(prep.on_boundary(*v), "vertex {v}");
        }
        for e in poly.edges() {
            let m = e.midpoint();
            assert!(prep.contains(m), "midpoint {m}");
            assert!(prep.on_boundary(m), "midpoint {m}");
        }
    }

    #[test]
    fn horizontal_edge_probes() {
        // p.y equal to a vertex y exercises the boundary candidate lists.
        let poly = ell();
        let prep = PreparedPolygon::new(poly.clone());
        for x in [-1.0, 0.0, 0.5, 1.0, 2.0, 4.0, 4.5] {
            for y in [0.0, 1.0, 4.0] {
                let q = p(x, y);
                assert_eq!(prep.contains(q), poly.contains(q), "probe {q}");
            }
        }
    }

    #[test]
    fn segment_tests_match_raw() {
        let poly = ell();
        let prep = PreparedPolygon::new(poly.clone());
        let segs = [
            Segment::new(p(-1.0, 0.5), p(5.0, 0.5)),
            Segment::new(p(2.0, 2.0), p(3.0, 3.0)),
            Segment::new(p(0.5, 0.5), p(0.6, 0.6)),
            Segment::new(p(-1.0, -1.0), p(0.0, 0.0)),
            Segment::new(p(2.0, 1.0), p(2.0, 5.0)),
            Segment::new(p(1.0, 1.0), p(1.0, 1.0)),
            Segment::new(p(5.0, 5.0), p(6.0, 5.0)),
        ];
        for s in &segs {
            assert_eq!(
                prep.boundary_intersects_segment(s),
                poly.boundary_intersects_segment(s),
                "segment {s:?}"
            );
            assert_eq!(
                prep.intersects_segment(s),
                poly.intersects_segment(s),
                "segment {s:?}"
            );
        }
    }

    #[test]
    fn polygon_intersection_matches_raw() {
        let poly = ell();
        let prep = PreparedPolygon::new(poly.clone());
        let others = [
            square(),
            square().translated(10.0, 0.0),
            square().scaled(0.25, p(2.0, 2.0)),
            Polygon::new(vec![p(2.0, 2.0), p(3.0, 2.0), p(3.0, 3.0)]).unwrap(),
            Polygon::new(vec![p(-2.0, -2.0), p(8.0, -2.0), p(8.0, 8.0), p(-2.0, 8.0)]).unwrap(),
        ];
        for other in &others {
            assert_eq!(
                prep.intersects_polygon(other),
                poly.intersects_polygon(other),
                "other {:?}",
                other.vertices()
            );
        }
    }

    #[test]
    fn mbr_and_interior_point_are_cached_raw_values() {
        let poly = ell();
        let prep = PreparedPolygon::new(poly.clone());
        assert_eq!(prep.mbr(), poly.mbr());
        assert_eq!(prep.interior_point(), poly.interior_point());
        // Second call returns the cached value.
        assert_eq!(prep.interior_point(), prep.interior_point());
    }

    #[test]
    fn non_simple_ring_still_matches_raw() {
        // The exactness contract covers non-simple rings: an asymmetric
        // bowtie (crossing-number semantics differ from winding, but
        // prepared must match *raw*, whatever raw says).
        let bow = Polygon::new(vec![p(0.0, 0.0), p(4.0, 3.0), p(4.0, 0.0), p(0.0, 2.0)]).unwrap();
        let prep = PreparedPolygon::new(bow.clone());
        for q in probes() {
            assert_eq!(prep.contains(q), bow.contains(q), "probe {q}");
        }
    }

    #[test]
    fn degenerate_unchecked_rings() {
        // Fewer than 3 vertices: raw contains() answers false.
        let line = Polygon::new_unchecked(vec![p(0.0, 0.0), p(1.0, 1.0)]);
        let prep = PreparedPolygon::new(line);
        assert!(!prep.contains(p(0.5, 0.5)));
        let empty = Polygon::new_unchecked(Vec::new());
        let prep = PreparedPolygon::new(empty);
        assert!(prep.is_empty());
        assert!(!prep.contains(p(0.0, 0.0)));
        assert!(!prep.boundary_intersects_segment(&Segment::new(p(0.0, 0.0), p(1.0, 0.0))));
    }

    #[test]
    fn prepared_region_matches_raw_region() {
        let outer = square();
        let hole = Polygon::new(vec![p(1.0, 1.0), p(3.0, 1.0), p(3.0, 3.0), p(1.0, 3.0)]).unwrap();
        let region = Region::new(outer, vec![hole]);
        let prep = PreparedRegion::new(region.clone());
        assert_eq!(prep.mbr(), region.mbr());
        assert_eq!(prep.interior_point(), region.interior_point());
        for q in probes() {
            assert_eq!(prep.contains(q), region.contains(q), "probe {q}");
        }
        let segs = [
            Segment::new(p(2.0, 2.0), p(2.1, 2.1)),     // inside the hole
            Segment::new(p(2.0, 2.0), p(0.5, 0.5)),     // hole to ring
            Segment::new(p(0.2, 0.2), p(0.3, 0.2)),     // inside the ring
            Segment::new(p(-1.0, -1.0), p(-2.0, -2.0)), // outside
        ];
        for s in &segs {
            assert_eq!(
                prep.boundary_intersects_segment(s),
                region.boundary_intersects_segment(s)
            );
            assert_eq!(prep.intersects_segment(s), region.intersects_segment(s));
        }
        let pokes = [
            Polygon::new(vec![p(1.5, 1.5), p(2.5, 1.5), p(2.0, 2.5)]).unwrap(), // in hole
            Polygon::new(vec![p(0.5, 0.5), p(2.5, 0.5), p(2.0, 2.5)]).unwrap(), // pokes out
        ];
        for poly in &pokes {
            assert_eq!(
                prep.intersects_polygon(poly),
                region.intersects_polygon(poly)
            );
        }
    }

    #[test]
    fn sliver_polygon_matches_raw() {
        // A nearly-degenerate sliver: thin, long, with near-collinear
        // vertices — maximal pressure on the slab boundaries.
        let sliver = Polygon::new(vec![
            p(0.0, 0.0),
            p(10.0, 1e-9),
            p(10.0, 2e-9),
            p(0.0, 1e-9),
        ])
        .unwrap();
        let prep = PreparedPolygon::new(sliver.clone());
        for i in 0..50 {
            let q = p(f64::from(i) * 0.25 - 1.0, f64::from(i % 5) * 5e-10);
            assert_eq!(prep.contains(q), sliver.contains(q), "probe {q}");
        }
    }
}
