//! Algorithm 1 of the paper: Voronoi-diagram-based area query.
//!
//! Starting from a seed (the nearest site to an arbitrary position inside
//! the query area), a breadth-first search over Voronoi neighbours grows
//! the candidate set incrementally:
//!
//! * a candidate **inside** the area goes to the result and enqueues *all*
//!   of its unvisited Voronoi neighbours;
//! * a candidate **outside** the area enqueues only the unvisited
//!   neighbours that pass the **expansion test**.
//!
//! The expansion test is where the paper's heuristic and the variant
//! that is complete on Euclidean diagrams differ — see
//! [`ExpansionPolicy`].

use crate::area::QueryArea;
use crate::payload::RecordStore;
use crate::scratch::QueryScratch;
use crate::stats::QueryStats;
use vaq_delaunay::{cell_polygon, Triangulation};
use vaq_geom::{Point, Polygon, Rect, Segment};

/// How the BFS expands from a candidate that is *not* inside the area.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExpansionPolicy {
    /// The paper's Algorithm 1, line 21: enqueue neighbour `pn` of the
    /// outside candidate `p` when the **segment `p–pn`** intersects the
    /// area. Cheap (one segment–polygon test), and exact on the paper's
    /// workloads, but in adversarial configurations (a thin area snaking
    /// between sites whose connecting segments all miss it) it can fail to
    /// reach an interior point.
    #[default]
    Segment,
    /// Enqueue neighbour `pn` when **`pn`'s Voronoi cell** intersects the
    /// area. It costs a convex-cell × polygon intersection per test.
    ///
    /// On a **Euclidean** diagram the cells meeting a connected area are
    /// connected in the Delaunay graph and every site lies in its own
    /// cell, so this policy provably visits every internal point. On a
    /// **power** diagram it can miss a *stray* site: one that is not
    /// hidden, yet neither it nor any of its neighbours owns its location
    /// (the BFS tests a site only while visiting one of its neighbours).
    /// Every Voronoi policy shares that gap; the traditional and
    /// brute-force methods are exact on both diagrams.
    Cell,
}

/// Runs the Voronoi-based area query over pre-built structures.
///
/// * `tri` — the Delaunay triangulation (the `VN` oracle).
/// * `area` — the query polygon `A`.
/// * `seed` — canonical vertex to start from; must be the nearest site to
///   some point of `A` (Property 2/3 guarantee it is internal or boundary).
/// * `cell_window` — clipping window for on-demand Voronoi cells (cell
///   policy only); must contain all sites *and* the area.
/// * `records` — when present, every validation first materialises the
///   candidate's payload record (the paper's "geometric information
///   loading"); see [`RecordStore`].
///
/// Returns the **canonical** result vertices (callers expand duplicates)
/// and fills `stats`. Result order is BFS discovery order, which is
/// deterministic for a fixed build.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 1's explicit inputs
pub fn voronoi_area_query<A: QueryArea + ?Sized>(
    tri: &Triangulation,
    area: &A,
    seed: u32,
    policy: ExpansionPolicy,
    cell_window: &Rect,
    records: Option<&RecordStore>,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
) -> Vec<u32> {
    voronoi_area_query_with_boundary(
        tri,
        area,
        seed,
        policy,
        cell_window,
        records,
        None,
        scratch,
        stats,
    )
}

/// [`voronoi_area_query`] with an optional **shard-boundary fallback** for
/// the segment policy.
///
/// `straddlers`, when present, flags every canonical vertex whose Voronoi
/// cell straddles the engine's shard boundary (computed once at shard build
/// time — see `AreaQueryEngine::mark_shard_boundary`). A shard-local
/// segment test only sees the segment between two *local* sites, so an area
/// that enters the shard's territory without crossing any local
/// inter-site segment is unreachable under the plain segment policy — the
/// completeness gap of sharded segment expansion. For a frontier neighbour
/// whose cell straddles the boundary, the plain segment test is not
/// trustworthy: when it fails we fall back to the (complete) cell test for
/// that one neighbour. Interior vertices — the vast majority — keep the
/// cheap segment-only test, so the fallback costs `O(1)` per flagged
/// frontier edge and nothing at all when `straddlers` is `None`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn voronoi_area_query_with_boundary<A: QueryArea + ?Sized>(
    tri: &Triangulation,
    area: &A,
    seed: u32,
    policy: ExpansionPolicy,
    cell_window: &Rect,
    records: Option<&RecordStore>,
    straddlers: Option<&[bool]>,
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
) -> Vec<u32> {
    let mut result = Vec::new();
    scratch.begin(tri.vertex_count());
    scratch.mark(seed);
    scratch.queue.push_back(seed);

    while let Some(v) = scratch.queue.pop_front() {
        stats.candidates += 1;
        stats.containment_tests += 1;
        if let Some(rs) = records {
            // Materialise the record of a representative input point before
            // the exact test, as a real refinement step would.
            // vaq-lint: allow(panic-hygiene) -- every canonical vertex has
            // at least one input point by construction (deduplication only
            // merges inputs, never produces an empty group).
            let rep = tri.inputs_of(v)[0];
            stats.payload_checksum = stats.payload_checksum.wrapping_add(rs.read(rep));
        }
        let pv = tri.point(v);
        if area.contains(pv) {
            stats.accepted += 1;
            result.push(v);
            for &u in tri.neighbors(v) {
                if !scratch.is_marked(u) {
                    scratch.mark(u);
                    scratch.queue.push_back(u);
                }
            }
        } else {
            for &u in tri.neighbors(v) {
                if scratch.is_marked(u) {
                    continue;
                }
                let expand = match policy {
                    ExpansionPolicy::Segment => {
                        stats.segment_tests += 1;
                        // `pv` just failed the containment test, so the
                        // segment meets the closed area iff it reaches the
                        // boundary — the containment-free fast path applies.
                        let seg_hit =
                            area.boundary_intersects_segment(&Segment::new(pv, tri.point(u)));
                        if !seg_hit
                            && straddlers
                                .is_some_and(|s| s.get(u as usize).copied().unwrap_or(false))
                        {
                            // Boundary-straddling cell: the shard-local
                            // segment test is not conclusive here, so fall
                            // back to the complete cell test for this one
                            // frontier edge.
                            stats.cell_tests += 1;
                            cell_intersects_area(tri, u, area, cell_window)
                        } else {
                            seg_hit
                        }
                    }
                    ExpansionPolicy::Cell => {
                        stats.cell_tests += 1;
                        cell_intersects_area(tri, u, area, cell_window)
                    }
                };
                if expand {
                    scratch.mark(u);
                    scratch.queue.push_back(u);
                }
            }
        }
    }
    result
}

/// `true` when the (window-clipped) Voronoi cell of `v` intersects `area`.
pub(crate) fn cell_intersects_area<A: QueryArea + ?Sized>(
    tri: &Triangulation,
    v: u32,
    area: &A,
    window: &Rect,
) -> bool {
    // Cheap accept: the generator inside the area means its cell trivially
    // intersects it.
    if area.contains(tri.point(v)) {
        return true;
    }
    let ring = cell_polygon(tri, v, window);
    if ring.len() < 3 {
        return false;
    }
    area.intersects_polygon(&Polygon::new_unchecked(ring))
}

/// Picks the paper's "arbitrary position in A": a point guaranteed to lie
/// inside the area (for polygons: the centroid when interior, otherwise a
/// point found by midpoint probing — see `Polygon::interior_point`).
pub fn arbitrary_position_in<A: QueryArea + ?Sized>(area: &A) -> Point {
    area.interior_point()
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

    /// Random star-shaped polygon around `c`: angles sorted, radii random.
    fn star_polygon(c: Point, r_max: f64, k: usize, seed: u64) -> Polygon {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut angles: Vec<f64> = (0..k)
            .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
            .collect();
        angles.sort_by(f64::total_cmp);
        let verts = angles
            .iter()
            .map(|&a| {
                let r = r_max * (0.3 + 0.7 * rng.gen::<f64>());
                p(c.x + r * a.cos(), c.y + r * a.sin())
            })
            .collect();
        Polygon::new(verts).expect("star polygons are valid")
    }

    fn brute(pts: &[Point], area: &Polygon) -> Vec<u32> {
        pts.iter()
            .enumerate()
            .filter(|(_, q)| area.contains(**q))
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn window_for(pts: &[Point], area: &Polygon) -> Rect {
        let r = Rect::from_points(pts.iter().copied()).union(&area.mbr());
        r.expand(r.width().max(r.height()) + 1.0)
    }

    fn run(pts: &[Point], area: &Polygon, policy: ExpansionPolicy) -> (Vec<u32>, QueryStats) {
        let tri = Triangulation::new(pts).unwrap();
        let pa = arbitrary_position_in(area);
        let seed = tri.nearest_vertex(pa, None);
        let mut scratch = QueryScratch::new(tri.vertex_count());
        let mut stats = QueryStats::default();
        let win = window_for(pts, area);
        let canonical = voronoi_area_query(
            &tri,
            area,
            seed,
            policy,
            &win,
            None,
            &mut scratch,
            &mut stats,
        );
        let mut got: Vec<u32> = canonical
            .iter()
            .flat_map(|&v| tri.inputs_of(v))
            .copied()
            .collect();
        got.sort_unstable();
        (got, stats)
    }

    #[test]
    fn both_policies_match_brute_on_star_areas() {
        for seed in 0..10u64 {
            let pts = uniform(400, seed);
            let area = star_polygon(p(0.5, 0.5), 0.2, 10, seed ^ 0xBEEF);
            let want = brute(&pts, &area);
            let (got_seg, seg_stats) = run(&pts, &area, ExpansionPolicy::Segment);
            let (got_cell, cell_stats) = run(&pts, &area, ExpansionPolicy::Cell);
            assert_eq!(got_seg, want, "segment policy, seed {seed}");
            assert_eq!(got_cell, want, "cell policy, seed {seed}");
            assert_eq!(seg_stats.accepted, want.len());
            assert!(seg_stats.candidates >= want.len());
            assert!(cell_stats.cell_tests > 0);
            assert_eq!(cell_stats.segment_tests, 0);
        }
    }

    #[test]
    fn candidate_set_is_small_ring_around_result() {
        // The defining claim of the paper: candidates ≈ result + a thin
        // boundary ring, far below the MBR count.
        let pts = uniform(4000, 77);
        let area = star_polygon(p(0.5, 0.5), 0.15, 10, 78);
        let tri = Triangulation::new(&pts).unwrap();
        let seed = tri.nearest_vertex(arbitrary_position_in(&area), None);
        let mut scratch = QueryScratch::new(tri.vertex_count());
        let mut stats = QueryStats::default();
        let win = window_for(&pts, &area);
        let got = voronoi_area_query(
            &tri,
            &area,
            seed,
            ExpansionPolicy::Segment,
            &win,
            None,
            &mut scratch,
            &mut stats,
        );
        let mbr = area.mbr();
        let in_mbr = pts.iter().filter(|q| mbr.contains_point(**q)).count();
        assert_eq!(got.len(), stats.accepted);
        assert!(
            stats.candidates < in_mbr,
            "voronoi candidates {} should undercut MBR count {in_mbr}",
            stats.candidates
        );
    }

    #[test]
    fn area_with_no_points_returns_empty() {
        let pts = uniform(100, 5);
        // A tiny triangle squeezed between grid positions far from points.
        let area = Polygon::new(vec![p(10.0, 10.0), p(10.001, 10.0), p(10.0, 10.001)]).unwrap();
        let (got, stats) = run(&pts, &area, ExpansionPolicy::Segment);
        assert!(got.is_empty());
        assert_eq!(stats.accepted, 0);
        assert!(stats.candidates >= 1, "the seed is always validated");
    }

    #[test]
    fn area_covering_everything_returns_everything() {
        let pts = uniform(200, 6);
        let area =
            Polygon::new(vec![p(-1.0, -1.0), p(2.0, -1.0), p(2.0, 2.0), p(-1.0, 2.0)]).unwrap();
        let want = brute(&pts, &area);
        let (got_seg, stats) = run(&pts, &area, ExpansionPolicy::Segment);
        assert_eq!(got_seg, want);
        assert_eq!(got_seg.len(), 200);
        // All-internal: zero redundant validations.
        assert_eq!(stats.redundant_validations(), 0);
        let (got_cell, _) = run(&pts, &area, ExpansionPolicy::Cell);
        assert_eq!(got_cell, want);
    }

    #[test]
    fn concave_l_shaped_area() {
        let pts = uniform(800, 8);
        // L-shape occupying the left and bottom bands.
        let area = Polygon::new(vec![
            p(0.1, 0.1),
            p(0.9, 0.1),
            p(0.9, 0.3),
            p(0.3, 0.3),
            p(0.3, 0.9),
            p(0.1, 0.9),
        ])
        .unwrap();
        let want = brute(&pts, &area);
        let (got_seg, _) = run(&pts, &area, ExpansionPolicy::Segment);
        let (got_cell, _) = run(&pts, &area, ExpansionPolicy::Cell);
        assert_eq!(got_seg, want);
        assert_eq!(got_cell, want);
    }

    #[test]
    fn cell_policy_survives_thin_snake_area() {
        // A long thin sliver passing between grid rows: the classic case
        // where per-segment tests may fail to bridge, but cell tests must
        // succeed. Grid points at integer coordinates; the sliver runs at
        // y = 0.5 with height 0.2, crossing between rows 0 and 1.
        let mut pts = Vec::new();
        for x in 0..20 {
            for y in 0..3 {
                pts.push(p(f64::from(x), f64::from(y)));
            }
        }
        // Add two isolated interior points inside the sliver at both ends.
        pts.push(p(0.5, 0.5));
        pts.push(p(18.5, 0.5));
        let area =
            Polygon::new(vec![p(0.2, 0.4), p(18.8, 0.4), p(18.8, 0.6), p(0.2, 0.6)]).unwrap();
        let want = brute(&pts, &area);
        assert_eq!(want.len(), 2, "exactly the two sliver points");
        let (got_cell, _) = run(&pts, &area, ExpansionPolicy::Cell);
        assert_eq!(got_cell, want, "cell policy must find both sliver points");
        // The segment policy also succeeds here (segments between the two
        // sliver points' neighbours cross the sliver); assert it so a
        // regression in either policy is caught.
        let (got_seg, _) = run(&pts, &area, ExpansionPolicy::Segment);
        assert_eq!(got_seg, want);
    }

    #[test]
    fn degenerate_collinear_point_set() {
        let pts: Vec<Point> = (0..30).map(|i| p(f64::from(i) * 0.1, 0.5)).collect();
        let area =
            Polygon::new(vec![p(0.55, 0.0), p(1.45, 0.0), p(1.45, 1.0), p(0.55, 1.0)]).unwrap();
        let want = brute(&pts, &area);
        assert!(!want.is_empty());
        let (got_seg, _) = run(&pts, &area, ExpansionPolicy::Segment);
        let (got_cell, _) = run(&pts, &area, ExpansionPolicy::Cell);
        assert_eq!(got_seg, want);
        assert_eq!(got_cell, want);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        #[test]
        fn prop_cell_policy_matches_brute(seed in 0u64..4000, n in 3usize..250) {
            let pts = uniform(n, seed);
            let cx = 0.2 + 0.6 * ((seed % 97) as f64 / 97.0);
            let cy = 0.2 + 0.6 * ((seed % 89) as f64 / 89.0);
            let area = star_polygon(p(cx, cy), 0.05 + 0.25 * ((seed % 7) as f64 / 7.0), 10, seed);
            let want = brute(&pts, &area);
            let (got, _) = run(&pts, &area, ExpansionPolicy::Cell);
            proptest::prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_segment_policy_matches_brute_on_stars(seed in 0u64..4000, n in 3usize..250) {
            let pts = uniform(n, seed);
            let area = star_polygon(p(0.5, 0.5), 0.3, 10, seed ^ 0xDEAD);
            let want = brute(&pts, &area);
            let (got, _) = run(&pts, &area, ExpansionPolicy::Segment);
            proptest::prop_assert_eq!(got, want);
        }
    }
}
