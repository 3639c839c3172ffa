//! The Hilbert curve over a point set's bounding box ([`curve_order`]).
//!
//! One curve orders both of the engine's indexes: the triangulation
//! numbers its vertices by their rank along it, and the R-tree packs its
//! leaves as consecutive runs of it. Nearby points get nearby positions,
//! so graph walks and index scans read memory nearly sequentially.

use crate::{Point, Rect};

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

/// The points along the Hilbert curve: one packed word `(key << 32) |
/// index` per point, sorted, where `key` is the Hilbert index of the
/// point's cell on a `2^HILBERT_ORDER` grid over the points' bounding box.
///
/// Points in one cell (equal points always share one) keep ascending
/// input order. A zero-width or zero-height box maps its axis to 0, so
/// collinear and coincident inputs need no special case.
pub fn curve_order(points: &[Point]) -> Vec<u64> {
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
    order
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

    /// The words are sorted, carry every input index once, and a shared
    /// cell (here the whole box of coincident points) keeps input order.
    #[test]
    fn curve_order_is_a_sorted_permutation() {
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new(f64::from(i % 7), f64::from(i % 5)))
            .collect();
        let words = curve_order(&pts);
        assert!(words.is_sorted());
        let mut ids: Vec<u32> = words.iter().map(|&w| w as u32).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..50).collect::<Vec<u32>>());
        assert!(curve_order(&[]).is_empty());
        let same = curve_order(&[Point::new(2.0, 2.0); 3]);
        assert_eq!(same, vec![0, 1, 2]);
    }
}
