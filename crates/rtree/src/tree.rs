//! The packed Hilbert R-tree: the points once, in packing order, and one
//! rectangle array per level above them.

use vaq_geom::hilbert::curve_order;
use vaq_geom::{Point, Rect};

/// Entries per node: points per leaf, children per internal node. 16
/// keeps nodes around one cache line pair and matches common main-memory
/// R-tree configurations.
pub(crate) const FANOUT: usize = 16;

/// A static R-tree over 2-D points, packed along one order of the points.
///
/// The tree stores the points and their ids once, in packing order.
/// Leaf `i` is the run of points `16i..16i + 16`, and node `i` of level
/// `l ≥ 1` covers nodes `16i..16i + 16` of level `l − 1`, so a node is a
/// `(level, index)` pair and only its rectangle is stored. Lookups never
/// need an external point table. Window and nearest-neighbour queries
/// (in [`crate::query`]) feed an access-statistics sink.
///
/// The traditional area-query baseline of the reproduced paper performs a
/// window query with the query area's MBR here; the paper's own method uses
/// this same tree for its seed nearest-neighbour lookup ("for fairness, the
/// index used to provide the NN query in our method is also R-tree").
pub struct RTree {
    /// The indexed points in packing order.
    pub(crate) points: Vec<Point>,
    /// `ids[k]` is the id of `points[k]`.
    pub(crate) ids: Vec<u32>,
    /// `levels[0]` holds the leaves' rectangles and `levels[l]` the
    /// unions of runs of [`FANOUT`] rectangles of `levels[l − 1]`; the
    /// last level holds the root alone. Empty for an empty tree.
    pub(crate) levels: Vec<Vec<Rect>>,
}

impl RTree {
    /// Bulk loads `points` (ids `0..n`), packed along their Hilbert curve
    /// ([`curve_order`]).
    pub fn bulk_load(points: &[Point]) -> RTree {
        let order: Vec<u32> = curve_order(points).iter().map(|&w| w as u32).collect();
        RTree::pack(points, &order)
    }

    /// Packs `points` in the given `order`, a permutation of
    /// `0..points.len()`: slot `k` holds point `order[k]`, with that index
    /// as its id. One pass over the points and one over each level;
    /// nothing is sorted.
    ///
    /// # Panics
    ///
    /// If `order`'s length differs from the point count or an entry is
    /// out of range.
    pub fn pack(points: &[Point], order: &[u32]) -> RTree {
        assert_eq!(order.len(), points.len(), "order must permute the points");
        let points: Vec<Point> = order.iter().map(|&i| points[i as usize]).collect();
        let mut levels = Vec::new();
        let mut rects: Vec<Rect> = points
            .chunks(FANOUT)
            .map(|run| Rect::from_points(run.iter().copied()))
            .collect();
        while rects.len() > 1 {
            let up = rects
                .chunks(FANOUT)
                .map(|run| run.iter().fold(Rect::EMPTY, |acc, r| acc.union(r)))
                .collect();
            levels.push(std::mem::replace(&mut rects, up));
        }
        if !rects.is_empty() {
            levels.push(rects);
        }
        RTree {
            points,
            ids: order.to_vec(),
            levels,
        }
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no points are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AccessStats;
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

    /// Every indexed id, ascending.
    fn all_ids(t: &RTree) -> Vec<u32> {
        let everything = Rect::new(p(f64::MIN, f64::MIN), p(f64::MAX, f64::MAX));
        let mut ids = t.window_with_stats(&everything, &mut AccessStats::default());
        ids.sort_unstable();
        ids
    }

    /// The tree's structure over `input`: slot `k` holds input point
    /// `ids[k]`, every leaf rectangle is the MBR of its run of at most 16
    /// consecutive slots, every upper rectangle the union of its run of
    /// at most 16 children, and one root tops the levels.
    fn assert_packed(t: &RTree, input: &[Point]) {
        assert_eq!(t.points.len(), input.len());
        for (k, &id) in t.ids.iter().enumerate() {
            assert_eq!(t.points[k], input[id as usize]);
        }
        let mut below: Vec<Rect> = t.points.iter().map(|&q| Rect::from_point(q)).collect();
        for level in &t.levels {
            assert_eq!(level.len(), below.len().div_ceil(FANOUT));
            for (i, r) in level.iter().enumerate() {
                let run = &below[FANOUT * i..(FANOUT * (i + 1)).min(below.len())];
                assert!((1..=FANOUT).contains(&run.len()));
                assert_eq!(*r, run.iter().fold(Rect::EMPTY, |acc, c| acc.union(c)));
            }
            below.clone_from(level);
        }
        assert_eq!(below.len(), usize::from(!input.is_empty()));
    }

    #[test]
    fn empty_tree() {
        let t = RTree::bulk_load(&[]);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert!(t.levels.is_empty());
        assert_packed(&t, &[]);
    }

    #[test]
    fn bulk_load_structure() {
        for n in [0usize, 1, 5, 16, 17, 100, 1000, 4357] {
            let pts = uniform(n, n as u64);
            let t = RTree::bulk_load(&pts);
            assert_eq!(t.len(), n);
            assert_packed(&t, &pts);
            assert_eq!(all_ids(&t), (0..n as u32).collect::<Vec<u32>>());
        }
    }

    /// `pack` keeps the caller's order: any permutation gives a valid
    /// tree whose slots follow it.
    #[test]
    fn pack_follows_the_given_order() {
        let pts = uniform(300, 9);
        let reversed: Vec<u32> = (0..300).rev().collect();
        let t = RTree::pack(&pts, &reversed);
        assert_eq!(t.ids, reversed);
        assert_packed(&t, &pts);
        assert_eq!(all_ids(&t), (0..300).collect::<Vec<u32>>());
    }

    #[test]
    fn bulk_load_is_well_packed() {
        let pts = uniform(10_000, 3);
        let t = RTree::bulk_load(&pts);
        // Perfect packing needs ⌈10000/16⌉ = 625 leaves ⇒ height 4
        // (625 → 40 → 3 → 1); runs of 16 hit exactly that.
        assert_eq!(t.levels.len(), 4, "packed tree unexpectedly tall");
    }

    #[test]
    fn duplicate_coordinates_are_a_multiset() {
        let q = p(0.3, 0.3);
        let t = RTree::bulk_load(&[q, p(0.9, 0.9), q, q]);
        assert_eq!(t.len(), 4);
        let mut got = t.window_with_stats(&Rect::from_point(q), &mut AccessStats::default());
        got.sort_unstable();
        assert_eq!(got, vec![0, 2, 3]);
    }
}
