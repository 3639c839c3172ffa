//! R-tree queries: window (range) and nearest-neighbour, each feeding an
//! access-statistics sink.
//!
//! The statistics mirror what the reproduced paper measures: the filtering
//! cost of the traditional area query is the number of index nodes touched
//! plus the candidates produced, and the refinement cost is per-candidate
//! geometry validation, which the engine layer counts separately.

use crate::tree::{RTree, FANOUT};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use vaq_geom::{Point, Rect};

/// Counters describing the index work performed by one query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Internal (non-leaf) nodes visited.
    pub internal_nodes: u64,
    /// Leaf nodes visited.
    pub leaf_nodes: u64,
    /// Leaf entries tested against the query predicate.
    pub leaf_entries: u64,
}

impl AccessStats {
    /// Total nodes visited (internal + leaf).
    pub fn nodes(&self) -> u64 {
        self.internal_nodes + self.leaf_nodes
    }

    /// Accumulates another query's counters into this one.
    pub fn absorb(&mut self, other: &AccessStats) {
        self.internal_nodes += other.internal_nodes;
        self.leaf_nodes += other.leaf_nodes;
        self.leaf_entries += other.leaf_entries;
    }
}

/// Marks a best-first queue key as a point (`POINT | id`); a node's key
/// is `level << 32 | index`.
const POINT: u64 = 1 << 63;

/// A best-first queue entry: squared distance and key. The least
/// distance pops first, then nodes before points, then points by
/// ascending id.
struct Queued(f64, u64);

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the least first.
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

impl RTree {
    /// The children of node `(level, i)`: point slots at the leaf level,
    /// node indices of `level − 1` above it.
    fn children(&self, level: usize, i: usize) -> Range<usize> {
        let below = match level.checked_sub(1) {
            None => self.points.len(),
            Some(l) => self.levels[l].len(),
        };
        FANOUT * i..(FANOUT * (i + 1)).min(below)
    }

    /// Returns the ids of all points inside `rect` (closed: boundary points
    /// are reported) in packing order, accumulating access statistics.
    pub fn window_with_stats(&self, rect: &Rect, stats: &mut AccessStats) -> Vec<u32> {
        let mut out = Vec::new();
        let Some(top) = self.levels.len().checked_sub(1) else {
            return out;
        };
        let mut stack = vec![(top, 0)];
        while let Some((level, i)) = stack.pop() {
            let kids = self.children(level, i);
            if level == 0 {
                stats.leaf_nodes += 1;
                stats.leaf_entries += kids.len() as u64;
                out.extend(
                    kids.filter_map(|k| rect.contains_point(self.points[k]).then_some(self.ids[k])),
                );
            } else {
                stats.internal_nodes += 1;
                // Pushed last to first, so children pop in packing order.
                let below = &self.levels[level - 1];
                stack.extend(
                    kids.rev()
                        .filter(|&c| rect.intersects(&below[c]))
                        .map(|c| (level - 1, c)),
                );
            }
        }
        out
    }

    /// The nearest indexed point to `q` as `(id, squared distance)`, or
    /// `None` for an empty tree, accumulating access statistics.
    ///
    /// Best-first (branch-and-bound) search. A node at distance `d` is
    /// expanded before a point at `d` is returned, so every point at the
    /// least distance is queued by then, and ties go to the smallest id:
    /// the answer depends on the points, not on how they were packed.
    pub fn nearest_with_stats(&self, q: Point, stats: &mut AccessStats) -> Option<(u32, f64)> {
        let root = self.levels.last()?.first()?;
        let top = self.levels.len() as u64 - 1;
        let mut heap = BinaryHeap::from([Queued(root.min_dist_sq(q), top << 32)]);
        while let Some(Queued(dist_sq, key)) = heap.pop() {
            if key & POINT != 0 {
                return Some((key as u32, dist_sq));
            }
            let (level, i) = ((key >> 32) as usize, key as u32 as usize);
            let kids = self.children(level, i);
            if level == 0 {
                stats.leaf_nodes += 1;
                stats.leaf_entries += kids.len() as u64;
                heap.extend(
                    kids.map(|k| Queued(self.points[k].dist_sq(q), POINT | u64::from(self.ids[k]))),
                );
            } else {
                stats.internal_nodes += 1;
                let below = &self.levels[level - 1];
                let below_key = (level as u64 - 1) << 32;
                heap.extend(kids.map(|c| Queued(below[c].min_dist_sq(q), below_key | c as u64)));
            }
        }
        None
    }
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

    /// Point sets the tree must handle: uniform ones of every shape of
    /// the last leaf and level, a collinear one (every rectangle flat)
    /// and an all-coincident one (every rectangle a point).
    fn inputs() -> Vec<Vec<Point>> {
        let mut sets: Vec<Vec<Point>> = [0, 1, 16, 17, 4357]
            .iter()
            .map(|&n| uniform(n, n as u64 + 40))
            .collect();
        sets.push((0..40).map(|i| p(0.025 * f64::from(i), 0.5)).collect());
        sets.push(vec![p(0.4, 0.6); 37]);
        sets
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

    /// The least `(squared distance, id)`: ties go to the smallest id.
    fn brute_nearest(pts: &[Point], q: Point) -> Option<(u32, f64)> {
        pts.iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.dist_sq(q)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    fn window(t: &RTree, r: &Rect) -> Vec<u32> {
        let mut got = t.window_with_stats(r, &mut AccessStats::default());
        got.sort_unstable();
        got
    }

    fn nearest(t: &RTree, q: Point) -> Option<(u32, f64)> {
        t.nearest_with_stats(q, &mut AccessStats::default())
    }

    #[test]
    fn window_on_empty_tree() {
        let t = RTree::bulk_load(&[]);
        assert!(window(&t, &Rect::new(p(0.0, 0.0), p(1.0, 1.0))).is_empty());
        assert_eq!(nearest(&t, p(0.5, 0.5)), None);
    }

    #[test]
    fn window_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(22);
        for pts in inputs() {
            let t = RTree::bulk_load(&pts);
            for _ in 0..100 {
                let c = p(rng.gen::<f64>(), rng.gen::<f64>());
                let r = Rect::from_center(c, rng.gen::<f64>() * 0.3, rng.gen::<f64>() * 0.3);
                assert_eq!(window(&t, &r), brute_window(&pts, &r));
            }
            let line = Rect::new(p(0.2, 0.5), p(0.6, 0.5));
            assert_eq!(window(&t, &line), brute_window(&pts, &line));
        }
    }

    #[test]
    fn window_is_closed_on_boundary() {
        let t = RTree::bulk_load(&[
            p(1.0, 1.0),         // corner
            p(0.5, 1.0),         // edge
            p(1.0 + 1e-12, 0.5), // just outside
        ]);
        let r = Rect::new(p(0.0, 0.0), p(1.0, 1.0));
        assert_eq!(window(&t, &r), vec![0, 1]);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(24);
        for pts in inputs() {
            let t = RTree::bulk_load(&pts);
            for _ in 0..200 {
                let q = p(rng.gen::<f64>() * 1.5 - 0.25, rng.gen::<f64>() * 1.5 - 0.25);
                assert_eq!(nearest(&t, q), brute_nearest(&pts, q), "q = {q}");
            }
        }
    }

    /// A query at the centre of a lattice cell is equidistant from the
    /// cell's four corners; the smallest of their ids wins under every
    /// packing.
    #[test]
    fn nearest_tie_goes_to_the_smallest_id() {
        let lattice: Vec<Point> = (0..400)
            .map(|i| p(f64::from(i % 20), f64::from(i / 20)))
            .collect();
        let reversed: Vec<u32> = (0..400).rev().collect();
        for t in [RTree::bulk_load(&lattice), RTree::pack(&lattice, &reversed)] {
            for (x, y) in [(3, 7), (0, 0), (18, 18), (11, 4)] {
                let q = p(f64::from(x) + 0.5, f64::from(y) + 0.5);
                assert_eq!(nearest(&t, q), Some((20 * y + x, 0.5)), "q = {q}");
            }
        }
    }

    #[test]
    fn stats_reflect_pruning() {
        let pts = uniform(4096, 29);
        let t = RTree::bulk_load(&pts);
        // A tiny window should touch a small fraction of the tree.
        let mut small = AccessStats::default();
        t.window_with_stats(&Rect::from_center(p(0.5, 0.5), 0.02, 0.02), &mut small);
        // The full window touches every node.
        let mut full = AccessStats::default();
        t.window_with_stats(&Rect::new(p(-1.0, -1.0), p(2.0, 2.0)), &mut full);
        assert!(
            small.nodes() * 10 < full.nodes(),
            "small {small:?} vs full {full:?}"
        );
        assert_eq!(full.leaf_entries, 4096);
        assert_eq!(full.nodes(), 256 + 16 + 1);
        // NN should touch roughly a root-to-leaf path worth of nodes.
        let mut nn = AccessStats::default();
        t.nearest_with_stats(p(0.3, 0.7), &mut nn).unwrap();
        assert!(nn.nodes() < 64, "NN stats {nn:?}");
        // absorb accumulates.
        let mut acc = AccessStats::default();
        acc.absorb(&small);
        acc.absorb(&full);
        assert_eq!(acc.leaf_entries, small.leaf_entries + full.leaf_entries);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn prop_window_and_nn_match_brute(seed in 0u64..3000, n in 1usize..200) {
            let pts = uniform(n, seed);
            let t = RTree::bulk_load(&pts);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x55AA);
            for _ in 0..8 {
                let c = p(rng.gen::<f64>(), rng.gen::<f64>());
                let r = Rect::from_center(c, rng.gen::<f64>() * 0.5, rng.gen::<f64>() * 0.5);
                proptest::prop_assert_eq!(window(&t, &r), brute_window(&pts, &r));
                let q = p(rng.gen::<f64>(), rng.gen::<f64>());
                proptest::prop_assert_eq!(nearest(&t, q), brute_nearest(&pts, q));
            }
        }
    }
}
