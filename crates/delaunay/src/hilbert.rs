//! Hilbert-curve numbering of a point set ([`rank_sites`]).
//!
//! A triangulation's canonical vertex ids are ranks along a Hilbert
//! space-filling curve. The build inserts vertices in id order, so the
//! remembering walk from the previous insertion takes `O(1)` expected
//! steps (BRIO-style), and Delaunay neighbours get nearby ids, so graph
//! walks read sites, adjacency rows and scratch nearly sequentially.

use vaq_geom::{Point, Rect};

/// Grid resolution (bits per axis) used to discretise points onto the
/// Hilbert curve. 16 bits per axis gives 2³² curve positions, far more than
/// enough to order 10⁶ distinct points; ties are broken by input index.
pub const HILBERT_ORDER: u32 = 16;

/// One level of the curve. `frame` is the orientation of the current
/// sub-square (bit 0: axes swapped, bit 1: both axes reflected) and
/// `(bx, by)` are the cell's coordinate bits at this level. Returns the
/// level's base-4 digit and the frame of the sub-square the cell lies in.
const fn hilbert_step(frame: u32, bx: u32, by: u32) -> (u32, u32) {
    let flip = frame >> 1;
    let (rx, ry) = if frame & 1 == 1 {
        (by ^ flip, bx ^ flip)
    } else {
        (bx ^ flip, by ^ flip)
    };
    // The lower-left and lower-right quadrants are swapped; the
    // lower-right one is also reflected.
    let next = if ry == 0 {
        frame ^ 1 ^ (rx << 1)
    } else {
        frame
    };
    ((3 * rx) ^ ry, next)
}

/// Four levels of [`hilbert_step`] at once: entry `frame << 8 | x << 4 |
/// y`, for 4-bit `x` and `y`, holds the four digits in bits 0–7 and the
/// frame after them in bits 8–9.
const NIBBLE_STEPS: [u16; 1024] = {
    let mut table = [0u16; 1024];
    let mut i = 0;
    while i < 1024 {
        let (mut frame, nx, ny) = (i as u32 >> 8, (i as u32 >> 4) & 15, i as u32 & 15);
        let mut digits = 0;
        let mut bit = 4;
        while bit > 0 {
            bit -= 1;
            let (digit, next) = hilbert_step(frame, (nx >> bit) & 1, (ny >> bit) & 1);
            digits = (digits << 2) | digit;
            frame = next;
        }
        table[i] = (digits | (frame << 8)) as u16;
        i += 1;
    }
    table
};

/// Maps grid cell `(x, y)` to its distance along the Hilbert curve of the
/// given `order` (grid side `2^order`).
///
/// At each scale the quadrant is identified, its digit appended, and the
/// frame of the sub-square updated so the recursion pattern repeats. The
/// levels are read four at a time from a table, so the quadrants of
/// random points cost no mispredicted branches.
pub fn hilbert_index(order: u32, x: u32, y: u32) -> u64 {
    debug_assert!(order <= 31, "order {order} too large for u32 coordinates");
    debug_assert!(u64::from(x.max(y)) < 1u64 << order);
    let (mut d, mut frame, mut level) = (0u64, 0u32, order);
    while level % 4 != 0 {
        level -= 1;
        let (digit, next) = hilbert_step(frame, (x >> level) & 1, (y >> level) & 1);
        d = (d << 2) | u64::from(digit);
        frame = next;
    }
    while level > 0 {
        level -= 4;
        let cell = (frame << 8) | (((x >> level) & 15) << 4) | ((y >> level) & 15);
        let step = NIBBLE_STEPS[cell as usize];
        d = (d << 8) | u64::from(step & 0xFF);
        frame = u32::from(step >> 8);
    }
    d
}

/// Merges coincident inputs and numbers the distinct points by their rank
/// along the Hilbert curve.
///
/// Returns `(sites, canon, members_off, members)`: the coordinates of
/// each canonical vertex, each input's vertex, and the CSR of each
/// vertex's inputs (ascending per row).
///
/// One sort of the packed words `(key << 32) | input index` orders the
/// points, `key` being the Hilbert index on a `2^HILBERT_ORDER` grid over
/// their bounding box. Inputs equal under `==` (so `-0.0` and `0.0`)
/// share a grid cell and merge; distinct points in one cell keep their
/// order of first occurrence. Numbering a triangulation's own sites
/// reproduces its ids, which is how a snapshot load recovers them.
pub fn rank_sites(points: &[Point]) -> (Vec<Point>, Vec<u32>, Vec<u32>, Vec<u32>) {
    let bbox = Rect::from_points(points.iter().copied());
    let side = f64::from((1u32 << HILBERT_ORDER) - 1);
    let w = bbox.width();
    let h = bbox.height();
    let sx = if w > 0.0 { side / w } else { 0.0 };
    let sy = if h > 0.0 { side / h } else { 0.0 };
    let mut order: Vec<u64> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let gx = ((p.x - bbox.min.x) * sx) as u32;
            let gy = ((p.y - bbox.min.y) * sy) as u32;
            let key = hilbert_index(HILBERT_ORDER, gx.min(side as u32), gy.min(side as u32));
            (key << 32) | i as u64
        })
        .collect();
    order.sort_unstable();

    // Vertices open in rank order, so the members CSR is written row by
    // row. `shared` holds a multi-input cell's (first occurrence, input).
    let n = points.len();
    let mut sites = Vec::with_capacity(n);
    let mut canon = vec![0u32; n];
    let mut members_off = Vec::with_capacity(n + 1);
    members_off.push(0u32);
    let mut members = Vec::with_capacity(n);
    let mut shared: Vec<(u32, u32)> = Vec::new();
    for run in order.chunk_by(|a, b| a >> 32 == b >> 32) {
        if let [word] = *run {
            let i = word as u32;
            canon[i as usize] = sites.len() as u32;
            sites.push(points[i as usize]);
            members.push(i);
            members_off.push(members.len() as u32);
            continue;
        }
        // Sorting the cell's inputs by coordinates, signed zeros folded,
        // makes equal points adjacent, smallest index first.
        let mut by_coords: Vec<u32> = run.iter().map(|&word| word as u32).collect();
        let folded = |i: u32| {
            let p = points[i as usize];
            (p.x + 0.0, p.y + 0.0)
        };
        by_coords.sort_unstable_by(|&a, &b| {
            let (pa, pb) = (folded(a), folded(b));
            pa.0.total_cmp(&pb.0)
                .then(pa.1.total_cmp(&pb.1))
                .then(a.cmp(&b))
        });
        shared.clear();
        for group in by_coords.chunk_by(|&a, &b| points[a as usize] == points[b as usize]) {
            if let [first, ..] = *group {
                shared.extend(group.iter().map(|&i| (first, i)));
            }
        }
        // Vertices in order of first occurrence, inputs ascending.
        shared.sort_unstable();
        for group in shared.chunk_by(|a, b| a.0 == b.0) {
            let v = sites.len() as u32;
            if let [(first, _), ..] = *group {
                sites.push(points[first as usize]);
            }
            for &(_, i) in group {
                canon[i as usize] = v;
                members.push(i);
            }
            members_off.push(members.len() as u32);
        }
    }
    (sites, canon, members_off, members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_order_curve_visits_quadrants_in_u_shape() {
        // Order-1 Hilbert curve over a 2×2 grid: (0,0) → (0,1) → (1,1) → (1,0).
        assert_eq!(hilbert_index(1, 0, 0), 0);
        assert_eq!(hilbert_index(1, 0, 1), 1);
        assert_eq!(hilbert_index(1, 1, 1), 2);
        assert_eq!(hilbert_index(1, 1, 0), 3);
    }

    /// The textbook conversion, one level per step with branches: the
    /// reference the table-driven [`hilbert_index`] must match.
    fn reference_index(order: u32, mut x: u32, mut y: u32) -> u64 {
        let mut d: u64 = 0;
        let mut s = (1u32 << order) >> 1;
        while s > 0 {
            let rx = u32::from(x & s > 0);
            let ry = u32::from(y & s > 0);
            d += u64::from(s) * u64::from(s) * u64::from((3 * rx) ^ ry);
            if ry == 0 {
                if rx == 1 {
                    x = s.wrapping_sub(1).wrapping_sub(x);
                    y = s.wrapping_sub(1).wrapping_sub(y);
                }
                std::mem::swap(&mut x, &mut y);
            }
            s >>= 1;
        }
        d
    }

    #[test]
    fn table_driven_index_matches_the_reference() {
        for order in 0..=6 {
            for x in 0..1u32 << order {
                for y in 0..1u32 << order {
                    assert_eq!(hilbert_index(order, x, y), reference_index(order, x, y));
                }
            }
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let (x, y) = (state as u32 & 0xFFFF, (state >> 32) as u32 & 0xFFFF);
            assert_eq!(
                hilbert_index(HILBERT_ORDER, x, y),
                reference_index(HILBERT_ORDER, x, y)
            );
        }
        assert_eq!(hilbert_index(HILBERT_ORDER, 0xFFFF, 0), (1u64 << 32) - 1);
    }

    #[test]
    fn index_is_a_bijection_on_small_grid() {
        let order = 4;
        let n = 1u32 << order;
        let mut seen = vec![false; (n * n) as usize];
        for x in 0..n {
            for y in 0..n {
                let d = hilbert_index(order, x, y) as usize;
                assert!(!seen[d], "duplicate index {d} at ({x},{y})");
                seen[d] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn consecutive_indices_are_grid_adjacent() {
        // The defining property of the Hilbert curve: successive cells share
        // an edge (Manhattan distance exactly 1).
        let order = 5;
        let n = 1u32 << order;
        let mut pos = vec![(0u32, 0u32); (n * n) as usize];
        for x in 0..n {
            for y in 0..n {
                pos[hilbert_index(order, x, y) as usize] = (x, y);
            }
        }
        for w in pos.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let manhattan = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(manhattan, 1, "cells {w:?} not adjacent");
        }
    }

    #[test]
    fn sort_handles_tiny_and_degenerate_inputs() {
        let (sites, canon, members_off, members) = rank_sites(&[]);
        assert!(sites.is_empty() && canon.is_empty() && members.is_empty());
        assert_eq!(members_off, vec![0]);
        let one = Point::new(3.0, 4.0);
        assert_eq!(
            rank_sites(&[one]),
            (vec![one], vec![0], vec![0, 1], vec![0])
        );
        // All coincident: one vertex holding every input, ascending.
        let same = vec![Point::new(1.0, 1.0); 4];
        assert_eq!(
            rank_sites(&same),
            (vec![same[0]], vec![0; 4], vec![0, 4], vec![0, 1, 2, 3])
        );
        // Zero-width bounding box (vertical line) must not divide by zero.
        let line: Vec<Point> = (0..5).map(|i| Point::new(2.0, f64::from(i))).collect();
        let (sites, canon, _, _) = rank_sites(&line);
        assert_eq!(sites.len(), 5);
        let mut ids = canon.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        for (i, &c) in canon.iter().enumerate() {
            assert_eq!(sites[c as usize], line[i]);
        }
    }

    #[test]
    fn sort_groups_nearby_points() {
        // Two tight clusters far apart: each cluster's inputs take one
        // contiguous range of ids.
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(Point::new(0.001 * f64::from(i), 0.0)); // cluster A
        }
        for i in 0..10 {
            pts.push(Point::new(100.0 + 0.001 * f64::from(i), 100.0)); // cluster B
        }
        let (_, canon, _, _) = rank_sites(&pts);
        let a_low = canon[..10].iter().all(|&c| c < 10);
        let a_high = canon[..10].iter().all(|&c| c >= 10);
        assert!(a_low || a_high, "clusters interleaved: {canon:?}");
    }

    /// Ids follow the curve, and numbering the sites again reproduces
    /// them: the sites are already in rank order.
    #[test]
    fn ids_are_curve_ranks_and_renumbering_is_identity() {
        let pts: Vec<Point> = (0..200)
            .map(|i| {
                let t = f64::from(i);
                Point::new((t * 0.618_034).fract(), (t * 0.414_214).fract())
            })
            .collect();
        let (sites, canon, members_off, members) = rank_sites(&pts);
        let bbox = Rect::from_points(pts.iter().copied());
        let side = f64::from((1u32 << HILBERT_ORDER) - 1);
        let key = |p: Point| {
            let gx = ((p.x - bbox.min.x) * (side / bbox.width())) as u32;
            let gy = ((p.y - bbox.min.y) * (side / bbox.height())) as u32;
            hilbert_index(HILBERT_ORDER, gx.min(side as u32), gy.min(side as u32))
        };
        assert!(sites.windows(2).all(|w| key(w[0]) <= key(w[1])));
        for (i, &c) in canon.iter().enumerate() {
            assert_eq!(sites[c as usize], pts[i]);
        }
        let again = rank_sites(&sites);
        let k = sites.len() as u32;
        assert_eq!(
            again,
            (sites, (0..k).collect(), (0..=k).collect(), (0..k).collect())
        );
        assert_eq!(members_off.len(), k as usize + 1);
        assert_eq!(members.len(), pts.len());
    }

    /// Inputs in one grid cell: equal ones merge (signed zeros too, even
    /// with a distinct point between them in input order), distinct ones
    /// keep their order of first occurrence.
    #[test]
    fn shared_cells_merge_equal_points_in_first_occurrence_order() {
        let pts = vec![
            Point::new(-0.0, 1.0),
            Point::new(1e-9, 1.0),
            Point::new(0.0, 1.0),
            Point::new(0.0, 1e-9),
            Point::new(-0.0, 1.0),
            Point::new(4.0, 4.0),
        ];
        let (sites, canon, members_off, members) = rank_sites(&pts);
        assert_eq!(sites.len(), 4);
        assert_eq!(canon[0], canon[2]);
        assert_eq!(canon[0], canon[4]);
        // (−0, 1) and (1e-9, 1) share a cell; the former occurs first.
        assert_eq!(canon[1], canon[0] + 1);
        let v = canon[0] as usize;
        assert_eq!(
            &members[members_off[v] as usize..members_off[v + 1] as usize],
            &[0, 2, 4]
        );
        assert_eq!(
            sites[v].x.to_bits(),
            (-0.0f64).to_bits(),
            "first occurrence"
        );
    }
}
