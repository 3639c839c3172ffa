//! # vaq-kdtree — static bulk-built kd-tree
//!
//! A balanced 2-D kd-tree built once over a point set. The area-query
//! engine keeps one over the **hidden** sites of a power diagram (sites
//! that own no cell, so the Voronoi BFS never reaches them): a window
//! query with the area's MBR finds the hidden sites the area may contain
//! in `O(√hidden + hits)` instead of a linear scan.
//!
//! The tree is stored implicitly: a permutation of point indices arranged
//! so that each subtree occupies a contiguous slice with its root at the
//! median position, split axes alternating by depth. No per-node
//! allocation, cache-friendly traversal.
//!
//! ## Example
//!
//! ```
//! use vaq_geom::{Point, Rect};
//! use vaq_kdtree::KdTree;
//!
//! let pts = vec![
//!     Point::new(0.1, 0.1),
//!     Point::new(0.9, 0.2),
//!     Point::new(0.5, 0.7),
//! ];
//! let tree = KdTree::build(&pts);
//! let mut hits = tree.window(&Rect::new(Point::new(0.0, 0.0), Point::new(0.6, 1.0)));
//! hits.sort_unstable();
//! assert_eq!(hits, vec![0, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vaq_geom::{Point, Rect};

/// A static, balanced kd-tree over 2-D points.
///
/// Build once with [`KdTree::build`]; answers window queries. Point ids
/// are the indices into the build slice.
pub struct KdTree {
    pts: Vec<Point>,
    /// Permutation of `0..n`: each subtree is a contiguous slice with the
    /// splitting point at the median index.
    order: Vec<u32>,
}

/// Coordinate of `p` along `axis` (0 = x, 1 = y).
#[inline]
fn coord(p: Point, axis: usize) -> f64 {
    if axis == 0 {
        p.x
    } else {
        p.y
    }
}

impl KdTree {
    /// Builds the tree over `points` (ids `0..n`). `O(n log n)`.
    pub fn build(points: &[Point]) -> KdTree {
        let mut order: Vec<u32> = (0..points.len() as u32).collect();
        build_rec(points, &mut order, 0);
        KdTree {
            pts: points.to_vec(),
            order,
        }
    }

    /// Ids of all points inside the closed rectangle `rect`.
    pub fn window(&self, rect: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        self.window_rec(0, self.order.len(), 0, rect, &mut out);
        out
    }

    fn window_rec(&self, lo: usize, hi: usize, axis: usize, rect: &Rect, out: &mut Vec<u32>) {
        if lo >= hi {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let id = self.order[mid];
        let p = self.pts[id as usize];
        if rect.contains_point(p) {
            out.push(id);
        }
        let c = coord(p, axis);
        let (rect_lo, rect_hi) = if axis == 0 {
            (rect.min.x, rect.max.x)
        } else {
            (rect.min.y, rect.max.y)
        };
        if rect_lo <= c {
            self.window_rec(lo, mid, 1 - axis, rect, out);
        }
        if rect_hi >= c {
            self.window_rec(mid + 1, hi, 1 - axis, rect, out);
        }
    }
}

/// Recursively arranges `order[..]` so the median (by the axis coordinate)
/// sits in the middle with smaller-coordinate points before it.
fn build_rec(pts: &[Point], order: &mut [u32], axis: usize) {
    if order.len() <= 1 {
        return;
    }
    let mid = order.len() / 2;
    order.select_nth_unstable_by(mid, |&a, &b| {
        coord(pts[a as usize], axis)
            .total_cmp(&coord(pts[b as usize], axis))
            .then(a.cmp(&b))
    });
    let (left, right) = order.split_at_mut(mid);
    build_rec(pts, left, 1 - axis);
    // vaq-lint: allow(panic-hygiene) -- `right` starts at the median
    // element (mid < order.len()), so it is never empty.
    build_rec(pts, &mut right[1..], 1 - axis);
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

    fn brute_window(pts: &[Point], r: &Rect) -> Vec<u32> {
        let mut v: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, q)| r.contains_point(**q))
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    fn window(t: &KdTree, r: &Rect) -> Vec<u32> {
        let mut got = t.window(r);
        got.sort_unstable();
        got
    }

    #[test]
    fn empty_and_single() {
        let t = KdTree::build(&[]);
        assert!(t.window(&Rect::new(p(0.0, 0.0), p(1.0, 1.0))).is_empty());

        let t = KdTree::build(&[p(0.5, 0.5)]);
        assert_eq!(t.window(&Rect::new(p(0.0, 0.0), p(1.0, 1.0))), vec![0]);
        assert!(t.window(&Rect::new(p(0.6, 0.6), p(1.0, 1.0))).is_empty());
    }

    #[test]
    fn window_matches_brute_force() {
        let pts = uniform(700, 41);
        let t = KdTree::build(&pts);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            let c = p(rng.gen::<f64>(), rng.gen::<f64>());
            let r = Rect::from_center(c, rng.gen::<f64>() * 0.4, rng.gen::<f64>() * 0.4);
            assert_eq!(window(&t, &r), brute_window(&pts, &r));
        }
    }

    #[test]
    fn duplicate_points_all_reported() {
        let pts = vec![p(0.5, 0.5), p(0.5, 0.5), p(0.5, 0.5), p(0.9, 0.9)];
        let t = KdTree::build(&pts);
        assert_eq!(
            window(&t, &Rect::from_center(p(0.5, 0.5), 0.1, 0.1)),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn collinear_points() {
        let pts: Vec<Point> = (0..20).map(|i| p(f64::from(i), 0.0)).collect();
        let t = KdTree::build(&pts);
        let r = Rect::new(p(3.0, -1.0), p(6.0, 1.0));
        assert_eq!(window(&t, &r), brute_window(&pts, &r));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn prop_queries_match_brute(seed in 0u64..3000, n in 1usize..200) {
            let pts = uniform(n, seed);
            let t = KdTree::build(&pts);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF0F0);
            for _ in 0..6 {
                let c = p(rng.gen::<f64>(), rng.gen::<f64>());
                let r = Rect::from_center(c, rng.gen::<f64>() * 0.5, rng.gen::<f64>() * 0.5);
                proptest::prop_assert_eq!(window(&t, &r), brute_window(&pts, &r));
            }
        }
    }
}
