//! R-tree queries: window (range) and nearest-neighbour, each feeding an
//! access-statistics sink.
//!
//! The statistics mirror what the reproduced paper measures: the filtering
//! cost of the traditional area query is the number of index nodes touched
//! plus the candidates produced, and the refinement cost is per-candidate
//! geometry validation, which the engine layer counts separately.

use crate::tree::RTree;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
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

/// Max-heap item ordered by **smallest** distance first (reversed).
struct HeapItem {
    dist_sq: f64,
    /// Node id, or point id when `is_point`.
    id: u32,
    is_point: bool,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist_sq == other.dist_sq
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the closest first.
        other.dist_sq.total_cmp(&self.dist_sq)
    }
}

impl RTree {
    /// Returns the ids of all points inside `rect` (closed: boundary points
    /// are reported), accumulating access statistics.
    pub fn window_with_stats(&self, rect: &Rect, stats: &mut AccessStats) -> Vec<u32> {
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = self.node(n);
            if node.is_leaf() {
                stats.leaf_nodes += 1;
                stats.leaf_entries += node.entries.len() as u64;
                for e in &node.entries {
                    if rect.contains_point(e.rect.min) {
                        out.push(e.child);
                    }
                }
            } else {
                stats.internal_nodes += 1;
                for e in &node.entries {
                    if rect.intersects(&e.rect) {
                        stack.push(e.child);
                    }
                }
            }
        }
        out
    }

    /// The nearest indexed point to `q` as `(id, squared distance)`, or
    /// `None` for an empty tree, accumulating access statistics.
    /// Best-first (branch-and-bound) search.
    pub fn nearest_with_stats(&self, q: Point, stats: &mut AccessStats) -> Option<(u32, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut heap = BinaryHeap::new();
        heap.push(HeapItem {
            dist_sq: self.node(self.root).mbr().min_dist_sq(q),
            id: self.root,
            is_point: false,
        });
        while let Some(item) = heap.pop() {
            if item.is_point {
                return Some((item.id, item.dist_sq));
            }
            let node = self.node(item.id);
            if node.is_leaf() {
                stats.leaf_nodes += 1;
                stats.leaf_entries += node.entries.len() as u64;
                for e in &node.entries {
                    heap.push(HeapItem {
                        dist_sq: e.rect.min.dist_sq(q),
                        id: e.child,
                        is_point: true,
                    });
                }
            } else {
                stats.internal_nodes += 1;
                for e in &node.entries {
                    heap.push(HeapItem {
                        dist_sq: e.rect.min_dist_sq(q),
                        id: e.child,
                        is_point: false,
                    });
                }
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

    fn brute_nearest(pts: &[Point], q: Point) -> f64 {
        pts.iter()
            .map(|s| s.dist_sq(q))
            .fold(f64::INFINITY, f64::min)
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
        let pts = uniform(800, 21);
        let bulk = RTree::bulk_load(&pts);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..100 {
            let c = p(rng.gen::<f64>(), rng.gen::<f64>());
            let r = Rect::from_center(c, rng.gen::<f64>() * 0.3, rng.gen::<f64>() * 0.3);
            assert_eq!(window(&bulk, &r), brute_window(&pts, &r));
        }
        // Collinear points: every node rectangle is flat.
        let line: Vec<Point> = (0..20).map(|i| p(f64::from(i), 0.0)).collect();
        let r = Rect::new(p(3.0, -1.0), p(6.0, 1.0));
        assert_eq!(
            window(&RTree::bulk_load(&line), &r),
            brute_window(&line, &r)
        );
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
        let pts = uniform(600, 23);
        let t = RTree::bulk_load(&pts);
        let mut rng = StdRng::seed_from_u64(24);
        for _ in 0..200 {
            let q = p(rng.gen::<f64>() * 1.5 - 0.25, rng.gen::<f64>() * 1.5 - 0.25);
            let (_, d) = nearest(&t, q).unwrap();
            assert_eq!(d, brute_nearest(&pts, q), "q = {q}");
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
                let (_, d) = nearest(&t, q).unwrap();
                proptest::prop_assert_eq!(d, brute_nearest(&pts, q));
            }
        }
    }
}
