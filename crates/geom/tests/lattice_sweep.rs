//! Exhaustive lattice sweep of the raw and prepared polygon kernels.
//!
//! Rings: every triangle and every quad with distinct corners on the
//! 4 × 4 integer lattice, simple or not (built with
//! `Polygon::new_unchecked`, so collinear and self-crossing rings are
//! included), in both windings. A ring is enumerated once, from its
//! smallest-index corner: the kernels' answers do not depend on which
//! corner the ring starts at. Probes: the quarter-integer lattice over
//! [0, 3]², the same points on the axes with `-0.0` in place of `0.0`,
//! and every segment between two lattice points.
//!
//! On lattice coordinates every degeneracy the comparison proofs must
//! survive happens: probes on vertices, on edges, on an edge's line past
//! its end, at a horizontal edge's height, and segments overlapping edges
//! or touching them at one point. Raw and prepared `contains`,
//! `on_boundary` and `boundary_intersects_segment` must equal the
//! reference kernels (`reference/mod.rs`) on every probe. Deterministic
//! and std-only.

mod reference;

use std::fmt::Debug;
use vaq_geom::{Point, Polygon, PreparedPolygon, Segment};

/// The 16 points of the 4 × 4 integer lattice, row by row.
fn lattice() -> Vec<Point> {
    (0..4)
        .flat_map(|y| (0..4).map(move |x| Point::new(f64::from(x), f64::from(y))))
        .collect()
}

/// Every triangle and quad ring with distinct lattice corners, each
/// starting at its smallest-index corner.
fn rings(lattice: &[Point]) -> Vec<Polygon> {
    let n = lattice.len();
    let mut out = Vec::new();
    for a in 0..n {
        let later = || a + 1..n;
        for b in later() {
            for c in later().filter(|&c| c != b) {
                let (pa, pb, pc) = (lattice[a], lattice[b], lattice[c]);
                out.push(Polygon::new_unchecked(vec![pa, pb, pc]));
                for d in later().filter(|&d| d != b && d != c) {
                    out.push(Polygon::new_unchecked(vec![pa, pb, pc, lattice[d]]));
                }
            }
        }
    }
    out
}

/// Quarter-integer lattice over [0, 3]², then the axis points again with
/// negative zeros.
fn probes() -> Vec<Point> {
    let quarter = |i: i32| f64::from(i) / 4.0;
    let mut out: Vec<Point> = (0..=12)
        .flat_map(|j| (0..=12).map(move |i| Point::new(quarter(i), quarter(j))))
        .collect();
    for i in 0..=12 {
        out.push(Point::new(-0.0, quarter(i)));
        out.push(Point::new(quarter(i), -0.0));
    }
    out.push(Point::new(-0.0, -0.0));
    out
}

/// Every segment between two lattice points, zero-length ones included.
fn segments(lattice: &[Point]) -> Vec<Segment> {
    let n = lattice.len();
    (0..n)
        .flat_map(|i| (i..n).map(move |j| Segment::new(lattice[i], lattice[j])))
        .collect()
}

#[test]
fn raw_and_prepared_kernels_match_the_reference_on_every_lattice_ring() {
    // Each ring takes every PROBE_STRIDE-th probe and every
    // SEGMENT_STRIDE-th segment, from an offset that rotates with the
    // ring, to keep the debug-build run near one second. Every probe still
    // meets about 3,000 rings and every segment about 1,500.
    const PROBE_STRIDE: usize = 4;
    const SEGMENT_STRIDE: usize = 8;
    let lattice = lattice();
    let rings = rings(&lattice);
    let probes = probes();
    let segments = segments(&lattice);
    // 16·15·14 / 3 triangles and 16·15·14·13 / 4 quads.
    assert_eq!(rings.len(), 1_120 + 10_920);

    let mut checks = 0u64;
    let mut mismatches = 0u64;
    let mut first: Vec<String> = Vec::new();
    let mut check =
        |kernel: &str, arg: &dyn Debug, ring: &Polygon, raw: bool, prepared: bool, want: bool| {
            checks += 1;
            if raw != want || prepared != want {
                mismatches += u64::from(raw != want) + u64::from(prepared != want);
                if first.len() < 8 {
                    first.push(format!(
                    "{kernel} {arg:?} on {:?}: raw {raw}, prepared {prepared}, reference {want}",
                    ring.vertices()
                ));
                }
            }
        };
    for (r, ring) in rings.iter().enumerate() {
        let prep = PreparedPolygon::new(ring.clone());
        for &q in probes.iter().skip(r % PROBE_STRIDE).step_by(PROBE_STRIDE) {
            let want = reference::contains(ring, q);
            check(
                "contains",
                &q,
                ring,
                ring.contains(q),
                prep.contains(q),
                want,
            );
            let want = reference::on_boundary(ring, q);
            check(
                "on_boundary",
                &q,
                ring,
                ring.on_boundary(q),
                prep.on_boundary(q),
                want,
            );
        }
        for s in segments
            .iter()
            .skip(r % SEGMENT_STRIDE)
            .step_by(SEGMENT_STRIDE)
        {
            let want = reference::boundary_intersects_segment(ring, s);
            let raw = ring.boundary_intersects_segment(s);
            let prepared = prep.boundary_intersects_segment(s);
            check("boundary_intersects_segment", s, ring, raw, prepared, want);
        }
    }
    assert_eq!(
        mismatches, 0,
        "{mismatches} mismatches in {checks} checks; first: {first:#?}"
    );
}
