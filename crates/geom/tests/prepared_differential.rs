//! Differential property suite: `PreparedPolygon` / `PreparedRegion` and
//! the raw `Polygon` / `Region` must each agree with the test-only
//! reference kernels in `reference/mod.rs` on **every** operation, for
//! every input. Raw and prepared containment share one crossing step, so
//! the oracle is the all-edges scan that shares nothing with it; the
//! prepared layer's whole contract is "same answers, fewer edges
//! examined".
//!
//! The generators are deliberately adversarial:
//! * grid-coordinate polygons — collinear runs, horizontal/vertical edges,
//!   coincident vertices, non-simple rings;
//! * star polygons of varying vertex count — the paper's query areas;
//! * degenerate slivers — needle-thin rings stressing slab boundaries;
//! * dense rings whose slabs list many edges — zigzag combs with
//!   repeated peak heights, a 1024-vertex gear and a self-crossing comb;
//! * probes snapped onto vertex y-coordinates (the slab-boundary
//!   candidate lists), onto vertices, edge midpoints and the MBR frame —
//!   plus random interior/exterior points.

mod reference;

use proptest::prelude::*;
use vaq_geom::{Point, Polygon, PreparedPolygon, PreparedRegion, Rect, Region, Segment};

fn pt(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// Coordinates on a coarse integer grid: maximal degeneracy pressure.
fn grid_coord() -> impl Strategy<Value = i64> {
    -6i64..7
}

/// A star polygon around `(0.5, 0.5)`: sorted angles, one radius per
/// vertex — simple by construction.
fn star_polygon(k: usize, seed: u64) -> Option<Polygon> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut angles: Vec<f64> = (0..k).map(|_| next() * std::f64::consts::TAU).collect();
    angles.sort_by(f64::total_cmp);
    let verts: Vec<Point> = angles
        .iter()
        .map(|&t| {
            let r = 0.05 + 0.4 * next();
            pt(0.5 + r * t.cos(), 0.5 + r * t.sin())
        })
        .collect();
    Polygon::new(verts).ok()
}

/// A zigzag comb with `teeth` teeth: every slab between the valley line
/// (y = 1) and the lowest peak is spanned by ~2·teeth edges, and peak
/// heights repeat y-coordinates aggressively. `sabotage` moves one
/// tooth's valley far right, so its edges cross the neighbouring teeth
/// inside the dense slabs.
fn comb_polygon(teeth: usize, jitter: &[u8], sabotage: Option<usize>) -> Option<Polygon> {
    let mut verts: Vec<Point> = vec![pt(0.0, 0.0), pt(2.0 * teeth as f64, 0.0)];
    for t in (0..teeth).rev() {
        let x = 2.0 * t as f64;
        let peak = 2.0 + f64::from(jitter[t % jitter.len()]);
        let valley = if sabotage == Some(t) {
            x + 9.0
        } else {
            x + 1.0
        };
        verts.push(pt(x + 1.5, peak));
        verts.push(pt(valley, 1.0));
        verts.push(pt(x + 0.5, peak));
    }
    Polygon::new(verts).ok()
}

/// Probe battery for one polygon: random points plus every boundary-
/// grazing configuration the slab/grid code special-cases.
fn probe_battery(poly: &Polygon, extra: &[(f64, f64)]) -> Vec<Point> {
    let mut probes: Vec<Point> = extra.iter().map(|&(x, y)| pt(x, y)).collect();
    let mbr = poly.mbr();
    for v in poly.vertices() {
        probes.push(*v);
        // Same y as a vertex (slab-boundary candidate list), varying x.
        probes.push(pt(v.x + 0.25, v.y));
        probes.push(pt(v.x - 0.25, v.y));
        probes.push(pt(mbr.min.x - 0.1, v.y));
        probes.push(pt(mbr.max.x + 0.1, v.y));
        // Strictly inside a slab attached to this vertex.
        probes.push(pt(v.x, v.y + 0.25));
        probes.push(pt(v.x + 0.125, v.y - 0.25));
    }
    for e in poly.edges() {
        probes.push(e.midpoint());
    }
    // The MBR frame (closed-boundary semantics).
    probes.push(mbr.min);
    probes.push(mbr.max);
    probes.push(pt(mbr.min.x, mbr.max.y));
    probes.push(pt((mbr.min.x + mbr.max.x) / 2.0, mbr.min.y));
    probes
}

/// Asserts every raw and every prepared operation against the reference
/// on one polygon, and the cached interior point against the raw one.
fn assert_polygon_agrees(
    poly: &Polygon,
    probes: &[Point],
    segments: &[Segment],
    others: &[Polygon],
) -> Result<(), TestCaseError> {
    let prep = PreparedPolygon::new(poly.clone());
    prop_assert_eq!(prep.mbr(), poly.mbr(), "mbr");
    for &q in probes {
        let want = reference::contains(poly, q);
        prop_assert_eq!(poly.contains(q), want, "raw contains {}", q);
        prop_assert_eq!(prep.contains(q), want, "prepared contains {}", q);
        let want = reference::on_boundary(poly, q);
        prop_assert_eq!(poly.on_boundary(q), want, "raw on_boundary {}", q);
        prop_assert_eq!(prep.on_boundary(q), want, "prepared on_boundary {}", q);
        let want = reference::contains_strict(poly, q);
        prop_assert_eq!(poly.contains_strict(q), want, "raw contains_strict {}", q);
        prop_assert_eq!(
            prep.contains_strict(q),
            want,
            "prepared contains_strict {}",
            q
        );
    }
    for s in segments {
        let want = reference::boundary_intersects_segment(poly, s);
        prop_assert_eq!(
            poly.boundary_intersects_segment(s),
            want,
            "raw boundary_intersects_segment {:?}",
            s
        );
        prop_assert_eq!(
            prep.boundary_intersects_segment(s),
            want,
            "prepared boundary_intersects_segment {:?}",
            s
        );
        let want = reference::intersects_segment(poly, s);
        prop_assert_eq!(
            poly.intersects_segment(s),
            want,
            "raw intersects_segment {:?}",
            s
        );
        prop_assert_eq!(
            prep.intersects_segment(s),
            want,
            "prepared intersects_segment {:?}",
            s
        );
    }
    for other in others {
        let want = reference::intersects_polygon(poly, other);
        prop_assert_eq!(
            poly.intersects_polygon(other),
            want,
            "raw intersects_polygon"
        );
        prop_assert_eq!(
            prep.intersects_polygon(other),
            want,
            "prepared intersects_polygon"
        );
    }
    // Interior point: bit-identical cached value.
    prop_assert_eq!(
        prep.interior_point(),
        poly.interior_point(),
        "interior_point"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Grid polygons: horizontal edges, collinear runs, and (since
    /// simplicity is not validated) occasional self-intersections — the
    /// prepared layer must match raw on all of them.
    #[test]
    fn grid_polygons_agree(
        coords in proptest::collection::vec((grid_coord(), grid_coord()), 3..12),
        probes in proptest::collection::vec((grid_coord(), grid_coord()), 8),
        seg in proptest::array::uniform4(grid_coord()),
    ) {
        let verts: Vec<Point> = coords.iter().map(|&(x, y)| pt(x as f64, y as f64)).collect();
        let Ok(poly) = Polygon::new(verts) else { return Ok(()); };
        let extra: Vec<(f64, f64)> =
            probes.iter().map(|&(x, y)| (x as f64, y as f64)).collect();
        let battery = probe_battery(&poly, &extra);
        let [ax, ay, bx, by] = seg;
        let segments = [
            Segment::new(pt(ax as f64, ay as f64), pt(bx as f64, by as f64)),
            Segment::new(pt(ax as f64, ay as f64), pt(ax as f64, ay as f64)),
        ];
        let others = [
            Polygon::new(vec![pt(ax as f64, ay as f64), pt(bx as f64, by as f64), pt(0.5, 9.0)])
                .ok(),
            Some(Polygon::from(Rect::new(pt(-1.5, -1.5), pt(1.5, 1.5)))),
        ];
        let others: Vec<Polygon> = others.into_iter().flatten().collect();
        assert_polygon_agrees(&poly, &battery, &segments, &others)?;
    }

    /// Star polygons across the paper's query-size regime, with probes
    /// concentrated around the boundary.
    #[test]
    fn star_polygons_agree(
        seed in 0u64..5000,
        k in 3usize..48,
        raw_probes in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 12),
    ) {
        let Some(poly) = star_polygon(k, seed) else { return Ok(()); };
        let battery = probe_battery(&poly, &raw_probes);
        // Short segments near the boundary — the shape of Voronoi
        // expansion tests.
        let mut segments = Vec::new();
        for w in battery.windows(2) {
            segments.push(Segment::new(w[0], w[1]));
        }
        let others = [
            star_polygon(5, seed ^ 0xABCD),
            star_polygon(4, seed ^ 0x1234).map(|s| s.translated(0.4, 0.0)),
        ];
        let others: Vec<Polygon> = others.into_iter().flatten().collect();
        assert_polygon_agrees(&poly, &battery, &segments, &others)?;
    }

    /// Degenerate slivers: thin tall/wide rings whose vertices are nearly
    /// collinear; slab boundaries are dense and nearly coincident.
    #[test]
    fn sliver_polygons_agree(
        seed in 0u64..3000,
        thinness in 1u32..12,
        horizontal in 0u64..2,
    ) {
        let eps = 2.0_f64.powi(-(thinness as i32) * 3);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // A zigzag sliver along the x-axis (or y-axis when transposed).
        let n = 6;
        let mut verts: Vec<Point> = (0..n)
            .map(|i| pt(i as f64, eps * next()))
            .collect();
        verts.extend((0..n).rev().map(|i| pt(i as f64, eps * (1.0 + next()))));
        if horizontal == 1 {
            verts = verts.into_iter().map(|p| pt(p.y, p.x)).collect();
        }
        let Ok(poly) = Polygon::new(verts) else { return Ok(()); };
        let battery = probe_battery(&poly, &[(2.5, eps * 0.5), (2.5, -eps), (2.5, 3.0 * eps)]);
        let segments = [
            Segment::new(pt(2.5, -1.0), pt(2.5, 1.0)),
            Segment::new(pt(-1.0, eps), pt(7.0, eps)),
            Segment::new(pt(0.0, 0.0), pt(5.0, eps)),
        ];
        assert_polygon_agrees(&poly, &battery, &segments, &[])?;
    }

    /// Combs from a handful of teeth to slabs listing ~160 edges.
    #[test]
    fn comb_polygons_agree(
        teeth in 2usize..80,
        jitter in proptest::collection::vec(0u8..3, 16),
    ) {
        let Some(poly) = comb_polygon(teeth, &jitter, None) else { return Ok(()); };
        let battery = probe_battery(&poly, &[(1.25, 1.25), (3.0, 0.5), (2.0, 2.5)]);
        let segments = [
            Segment::new(pt(-1.0, 1.5), pt(2.0 * teeth as f64 + 1.0, 1.5)),
            Segment::new(pt(0.75, 0.5), pt(0.75, 5.0)),
            Segment::new(pt(1.0, 1.0), pt(3.0, 1.0)),
        ];
        assert_polygon_agrees(&poly, &battery, &segments, &[])?;
    }

    /// Regions with holes: containment, segment and polygon tests agree
    /// across the ring structure.
    #[test]
    fn regions_agree(
        seed in 0u64..4000,
        hx in 2i64..5,
        hy in 2i64..5,
        probes in proptest::collection::vec((-1.0f64..9.0, -1.0f64..9.0), 16),
    ) {
        let outer = Polygon::new(vec![pt(0.0, 0.0), pt(8.0, 0.0), pt(8.0, 8.0), pt(0.0, 8.0)])
            .unwrap();
        let hole = Polygon::new(vec![
            pt(hx as f64, hy as f64),
            pt(hx as f64 + 2.0, hy as f64),
            pt(hx as f64 + 2.0, hy as f64 + 2.0),
            pt(hx as f64, hy as f64 + 2.0),
        ])
        .unwrap();
        let second = star_polygon(8, seed).map(|s| s.translated(5.5, 5.5));
        let mut holes = vec![hole.clone()];
        if let Some(s) = second {
            // Keep holes disjoint and inside the outer ring.
            if s.mbr().min.x > hx as f64 + 2.0 || s.mbr().min.y > hy as f64 + 2.0 {
                let inside = Rect::new(pt(0.1, 0.1), pt(7.9, 7.9));
                if inside.contains_rect(&s.mbr()) {
                    holes.push(s);
                }
            }
        }
        let region = Region::new(outer, holes);
        let prep = PreparedRegion::new(region.clone());
        prop_assert_eq!(prep.mbr(), region.mbr());
        let mut battery: Vec<Point> = probes.iter().map(|&(x, y)| pt(x, y)).collect();
        for h in region.holes() {
            battery.extend(probe_battery(h, &[]));
        }
        for &q in &battery {
            let want = reference::region_contains(&region, q);
            prop_assert_eq!(region.contains(q), want, "raw contains {}", q);
            prop_assert_eq!(prep.contains(q), want, "prepared contains {}", q);
        }
        for w in battery.windows(2) {
            let s = Segment::new(w[0], w[1]);
            let want = reference::region_boundary_intersects_segment(&region, &s);
            prop_assert_eq!(
                region.boundary_intersects_segment(&s),
                want,
                "raw region boundary_intersects_segment {:?}", s
            );
            prop_assert_eq!(
                prep.boundary_intersects_segment(&s),
                want,
                "prepared region boundary_intersects_segment {:?}", s
            );
            let want = reference::region_intersects_segment(&region, &s);
            prop_assert_eq!(
                region.intersects_segment(&s),
                want,
                "raw region intersects_segment {:?}", s
            );
            prop_assert_eq!(
                prep.intersects_segment(&s),
                want,
                "prepared region intersects_segment {:?}", s
            );
        }
        let pokes = [
            Polygon::new(vec![
                pt(hx as f64 + 0.5, hy as f64 + 0.5),
                pt(hx as f64 + 1.5, hy as f64 + 0.5),
                pt(hx as f64 + 1.0, hy as f64 + 1.5),
            ])
            .unwrap(),
            Polygon::new(vec![pt(0.5, 0.5), pt(3.0, 0.5), pt(2.0, 3.5)]).unwrap(),
            Polygon::new(vec![pt(20.0, 20.0), pt(21.0, 20.0), pt(20.5, 21.0)]).unwrap(),
        ];
        for poly in &pokes {
            let want = reference::region_intersects_polygon(&region, poly);
            prop_assert_eq!(
                region.intersects_polygon(poly),
                want,
                "raw region intersects_polygon"
            );
            prop_assert_eq!(
                prep.intersects_polygon(poly),
                want,
                "prepared region intersects_polygon"
            );
        }
        prop_assert_eq!(prep.interior_point(), region.interior_point());
    }
}

/// Deterministic regression battery: the exact configurations that
/// motivated each pruning proof.
#[test]
fn slab_boundary_and_horizontal_edge_regressions() {
    // Plus-sign polygon: every edge horizontal or vertical, every probe
    // below hits a slab boundary or an edge line.
    let plus = Polygon::new(vec![
        pt(2.0, 0.0),
        pt(4.0, 0.0),
        pt(4.0, 2.0),
        pt(6.0, 2.0),
        pt(6.0, 4.0),
        pt(4.0, 4.0),
        pt(4.0, 6.0),
        pt(2.0, 6.0),
        pt(2.0, 4.0),
        pt(0.0, 4.0),
        pt(0.0, 2.0),
        pt(2.0, 2.0),
    ])
    .unwrap();
    let prep = PreparedPolygon::new(plus.clone());
    for i in -1..=13 {
        for j in -1..=13 {
            let q = pt(f64::from(i) * 0.5, f64::from(j) * 0.5);
            let want = reference::contains(&plus, q);
            assert_eq!(plus.contains(q), want, "raw probe {q}");
            assert_eq!(prep.contains(q), want, "prepared probe {q}");
            let want = reference::on_boundary(&plus, q);
            assert_eq!(plus.on_boundary(q), want, "raw probe {q}");
            assert_eq!(prep.on_boundary(q), want, "prepared probe {q}");
        }
    }
}

#[test]
fn segment_grid_covers_long_and_degenerate_segments() {
    let poly = star_polygon(32, 77).unwrap();
    let prep = PreparedPolygon::new(poly.clone());
    let mbr = poly.mbr();
    // Long diagonals crossing the whole grid, axis-aligned skewers, and
    // zero-length segments on and off the boundary.
    let mut segs = vec![
        Segment::new(
            pt(mbr.min.x - 1.0, mbr.min.y - 1.0),
            pt(mbr.max.x + 1.0, mbr.max.y + 1.0),
        ),
        Segment::new(
            pt(mbr.min.x - 1.0, mbr.max.y + 1.0),
            pt(mbr.max.x + 1.0, mbr.min.y - 1.0),
        ),
        Segment::new(pt(0.5, mbr.min.y - 1.0), pt(0.5, mbr.max.y + 1.0)),
        Segment::new(pt(mbr.min.x - 1.0, 0.5), pt(mbr.max.x + 1.0, 0.5)),
    ];
    for v in poly.vertices() {
        segs.push(Segment::new(*v, *v));
        segs.push(Segment::new(*v, pt(v.x + 0.01, v.y + 0.01)));
    }
    for s in &segs {
        let want = reference::boundary_intersects_segment(&poly, s);
        assert_eq!(
            poly.boundary_intersects_segment(s),
            want,
            "raw segment {s:?}"
        );
        assert_eq!(
            prep.boundary_intersects_segment(s),
            want,
            "prepared segment {s:?}"
        );
    }
}

/// A dense simple ring: a 1024-vertex gear whose middle slabs each list
/// hundreds of spanning edges, probed on a grid and on vertex
/// y-coordinates.
#[test]
fn dense_gear_agrees() {
    let k = 1024;
    let verts: Vec<Point> = (0..k)
        .map(|i| {
            let t = std::f64::consts::TAU * i as f64 / k as f64;
            let r = if i % 2 == 0 { 1.0 } else { 0.35 };
            pt(r * t.cos(), r * t.sin())
        })
        .collect();
    let poly = Polygon::new(verts).unwrap();
    let grid: Vec<(f64, f64)> = (-24..=24)
        .flat_map(|i| (-24..=24).map(move |j| (f64::from(i) / 20.0, f64::from(j) / 20.0)))
        .collect();
    let battery = probe_battery(&poly, &grid);
    let segments: Vec<Segment> = battery
        .windows(2)
        .step_by(7)
        .map(|w| Segment::new(w[0], w[1]))
        .collect();
    assert_polygon_agrees(&poly, &battery, &segments, &[]).unwrap();
}

/// A dense self-crossing ring: a 70-tooth comb with one valley pulled
/// across its neighbours — raw and prepared still match the reference.
#[test]
fn dense_self_crossing_ring_agrees() {
    let teeth = 70;
    let poly = comb_polygon(teeth, &[0, 1, 2], Some(teeth / 2)).unwrap();
    assert!(!poly.is_simple(), "the sabotage must cross edges");
    let grid: Vec<(f64, f64)> = (0..180)
        .flat_map(|i| (-2..=10).map(move |j| (f64::from(i) * 0.5 - 5.0, f64::from(j) * 0.5)))
        .collect();
    let battery = probe_battery(&poly, &grid);
    let segments = [
        Segment::new(pt(60.0, 1.5), pt(90.0, 1.5)),
        Segment::new(pt(71.0, 0.5), pt(71.0, 5.0)),
    ];
    assert_polygon_agrees(&poly, &battery, &segments, &[]).unwrap();
}
