//! The R-tree proper: STR (sort-tile-recursive) bulk loading, and the
//! flat-arena round trip engine snapshots use.

use crate::node::{Entry, Node};
use vaq_geom::{Point, Rect};

/// Maximum entries per node. 16 keeps nodes around one cache line pair
/// and matches common main-memory R-tree configurations.
const MAX_ENTRIES: usize = 16;

/// A static R-tree over 2-D points, bulk loaded with **STR** packing (the
/// standard bulk load used by PostGIS and libspatialindex), which
/// produces a near-perfectly packed tree.
///
/// Point ids are the indices into the build slice; the tree stores the
/// coordinates itself (in leaf entry MBRs), so lookups never need an
/// external point table. Window and nearest-neighbour queries (in
/// [`crate::query`]) feed an access-statistics sink.
///
/// The traditional area-query baseline of the reproduced paper performs a
/// window query with the query area's MBR here; the paper's own method uses
/// this same tree for its seed nearest-neighbour lookup ("for fairness, the
/// index used to provide the NN query in our method is also R-tree").
pub struct RTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: u32,
    len: usize,
    max_entries: usize,
}

impl RTree {
    /// Bulk loads `points` (ids `0..n`) with STR packing.
    pub fn bulk_load(points: &[Point]) -> RTree {
        let mut tree = RTree {
            nodes: Vec::new(),
            root: 0,
            len: points.len(),
            max_entries: MAX_ENTRIES,
        };
        if points.is_empty() {
            tree.root = tree.alloc(Node::new(0));
            return tree;
        }
        let mut entries: Vec<Entry> = points
            .iter()
            .enumerate()
            .map(|(i, &p)| Entry::for_point(i as u32, p))
            .collect();
        let mut level = 0u32;
        loop {
            entries = tree.str_pack(entries, level);
            if let &[root] = entries.as_slice() {
                tree.root = root.child;
                return tree;
            }
            level += 1;
        }
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no points are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub(crate) fn node(&self, id: u32) -> &Node {
        &self.nodes[id as usize]
    }

    fn alloc(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// Packs `items` into new nodes at `level` using sort-tile-recursive
    /// ordering; returns parent entries referencing the new nodes.
    fn str_pack(&mut self, mut items: Vec<Entry>, level: u32) -> Vec<Entry> {
        let m = self.max_entries;
        if items.len() <= m {
            let id = self.alloc(Node {
                level,
                entries: items,
            });
            return vec![Entry {
                rect: self.node(id).mbr(),
                child: id,
            }];
        }
        let node_count = items.len().div_ceil(m);
        let slice_count = (node_count as f64).sqrt().ceil() as usize;
        let slice_size = slice_count.max(1) * m;
        items.sort_by(|a, b| a.rect.center().x.total_cmp(&b.rect.center().x));
        let mut parents = Vec::with_capacity(node_count);
        for slice in items.chunks_mut(slice_size) {
            slice.sort_by(|a, b| a.rect.center().y.total_cmp(&b.rect.center().y));
            for group in slice.chunks(m) {
                let id = self.alloc(Node {
                    level,
                    entries: group.to_vec(),
                });
                parents.push(Entry {
                    rect: self.node(id).mbr(),
                    child: id,
                });
            }
        }
        parents
    }

    /// Verifies the structural invariants: no node overflows, every
    /// parent rectangle equals its child's MBR, levels decrease by one
    /// per edge, and the leaves hold exactly `len` entries.
    fn check_invariants(&self) -> Result<(), String> {
        let mut count = 0usize;
        self.check_node(self.root, None, &mut count)?;
        if count != self.len {
            return Err(format!("len {} but {} leaf entries", self.len, count));
        }
        Ok(())
    }

    fn check_node(
        &self,
        n: u32,
        expect_rect: Option<Rect>,
        count: &mut usize,
    ) -> Result<(), String> {
        let node = self.node(n);
        if node.entries.len() > self.max_entries {
            return Err(format!("node {n} overflows: {}", node.entries.len()));
        }
        if let Some(r) = expect_rect {
            let mbr = node.mbr();
            if !(r.contains_rect(&mbr) && mbr.contains_rect(&r)) {
                return Err(format!("node {n}: parent rect does not match MBR"));
            }
        }
        if node.is_leaf() {
            *count += node.entries.len();
            return Ok(());
        }
        for e in &node.entries {
            let child = self.node(e.child);
            if child.level + 1 != node.level {
                return Err(format!(
                    "node {n} level {} has child at level {}",
                    node.level, child.level
                ));
            }
            self.check_node(e.child, Some(e.rect), count)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Flat arena access (engine snapshots).
    // ------------------------------------------------------------------

    /// Flattens the node arena into POD arrays (see [`RTreeRaw`]). Leaf
    /// entries carry degenerate point MBRs that duplicate the indexed
    /// coordinates, so only their point ids are emitted; internal
    /// entries keep their full rectangles. [`RTree::from_raw`] restores
    /// the exact arena given the same points.
    pub fn raw_parts(&self) -> RTreeRaw {
        let view = self.raw_view();
        RTreeRaw {
            levels: view.levels().collect(),
            entry_offsets: view.entry_offsets().collect(),
            entry_children: view.entry_children().collect(),
            inner_rects: view.inner_rects().collect(),
            root: view.root,
            len: view.len,
            max_entries: view.max_entries,
        }
    }

    /// The arrays of [`RTree::raw_parts`], borrowed from the arena instead
    /// of copied, so a snapshot writer can stream them.
    pub fn raw_view(&self) -> RTreeRawView<'_> {
        RTreeRawView {
            nodes: &self.nodes,
            root: self.root,
            len: self.len as u64,
            max_entries: self.max_entries as u32,
        }
    }

    /// Rebuilds a tree from [`RTree::raw_parts`] output and the points
    /// it indexed (leaf MBRs are reconstructed from `points`, so the
    /// caller must pass the same array the tree was built over).
    ///
    /// Validates arena shape — offset monotonicity, id ranges, level
    /// sanity — and then the full structural invariants, so corrupted
    /// or inconsistent input comes back as `Err`, never as a tree that
    /// answers queries wrongly or panics later.
    pub fn from_raw(raw: RTreeRaw, points: &[Point]) -> Result<RTree, String> {
        let n_nodes = raw.levels.len();
        if raw.entry_offsets.len() != n_nodes + 1 {
            return Err(format!(
                "offset table holds {} entries for {} nodes",
                raw.entry_offsets.len(),
                n_nodes
            ));
        }
        if raw.entry_offsets.first() != Some(&0) {
            return Err("offset table does not start at 0".to_string());
        }
        if raw.max_entries < 4 {
            return Err(format!("fan-out {} below minimum 4", raw.max_entries));
        }
        if n_nodes == 0 || raw.root as usize >= n_nodes {
            return Err(format!("root {} out of range ({n_nodes} nodes)", raw.root));
        }
        // A fan-out >= 4 tree of height 64 exceeds any memory; the bound
        // also caps `check_node` recursion on crafted input.
        if raw.levels[raw.root as usize] >= 64 {
            return Err(format!(
                "root level {} implausible",
                raw.levels[raw.root as usize]
            ));
        }
        let total = raw.entry_offsets[n_nodes] as usize;
        if raw.entry_children.len() != total {
            return Err(format!(
                "{} children but offsets end at {total}",
                raw.entry_children.len()
            ));
        }
        let inner_total: usize = (0..n_nodes)
            .filter(|&i| raw.levels[i] > 0)
            .map(|i| (raw.entry_offsets[i + 1] - raw.entry_offsets[i]) as usize)
            .sum();
        if raw.inner_rects.len() != 4 * inner_total {
            return Err(format!(
                "{} rect coordinates for {inner_total} internal entries",
                raw.inner_rects.len()
            ));
        }
        let max_entries = raw.max_entries as usize;
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut inner_at = 0usize;
        for i in 0..n_nodes {
            let level = raw.levels[i];
            let lo = raw.entry_offsets[i] as usize;
            let hi = raw.entry_offsets[i + 1] as usize;
            if hi < lo {
                return Err(format!("offset table decreases at node {i}"));
            }
            let mut entries = Vec::with_capacity(hi - lo);
            for &child in &raw.entry_children[lo..hi] {
                let rect = if level == 0 {
                    let p = points.get(child as usize).ok_or_else(|| {
                        format!("leaf references point {child} of {}", points.len())
                    })?;
                    Rect::from_point(*p)
                } else {
                    if child as usize >= n_nodes {
                        return Err(format!("node {i} references child {child}"));
                    }
                    // vaq-lint: allow(panic-hygiene) -- inner_at < inner_total, and
                    // inner_rects.len() == 4 * inner_total was checked above
                    let r = &raw.inner_rects[4 * inner_at..4 * inner_at + 4];
                    inner_at += 1;
                    // vaq-lint: allow(panic-hygiene) -- r is a 4-element slice
                    Rect::new(Point::new(r[0], r[1]), Point::new(r[2], r[3]))
                };
                entries.push(Entry { rect, child });
            }
            nodes.push(Node { level, entries });
        }
        let tree = RTree {
            nodes,
            root: raw.root,
            len: raw.len as usize,
            max_entries,
        };
        tree.check_invariants()?;
        Ok(tree)
    }
}

/// The R-tree arena flattened into POD arrays for serialization.
///
/// Node `i` sits at level `levels[i]` and owns the half-open entry range
/// `entry_offsets[i] .. entry_offsets[i + 1]` of `entry_children`.
/// Internal entries additionally consume four coordinates (min x, min y,
/// max x, max y) from `inner_rects`, in arena order; leaf entries store
/// no rectangle — their MBR is the indexed point itself.
pub struct RTreeRaw {
    /// Per-node level (0 = leaf).
    pub levels: Vec<u32>,
    /// Per-node entry range bounds into `entry_children`; length is
    /// `levels.len() + 1`, first element 0.
    pub entry_offsets: Vec<u32>,
    /// Point id (leaf) or child node id (internal) per entry.
    pub entry_children: Vec<u32>,
    /// Rectangles of internal entries only, four coordinates each.
    pub inner_rects: Vec<f64>,
    /// Root node id.
    pub root: u32,
    /// Indexed point count.
    pub len: u64,
    /// Maximum entries per node.
    pub max_entries: u32,
}

/// [`RTreeRaw`] borrowed from the arena (see [`RTree::raw_view`]): each
/// array is an iterator yielding the same elements in the same order.
#[derive(Clone, Copy)]
pub struct RTreeRawView<'a> {
    nodes: &'a [Node],
    /// Root node id.
    pub root: u32,
    /// Indexed point count.
    pub len: u64,
    /// Maximum entries per node.
    pub max_entries: u32,
}

impl<'a> RTreeRawView<'a> {
    /// [`RTreeRaw::levels`].
    pub fn levels(self) -> impl Iterator<Item = u32> + Clone + 'a {
        self.nodes.iter().map(|n| n.level)
    }

    /// [`RTreeRaw::entry_offsets`].
    pub fn entry_offsets(self) -> impl Iterator<Item = u32> + Clone + 'a {
        let ends = self.nodes.iter().scan(0u32, |end, n| {
            *end += n.entries.len() as u32;
            Some(*end)
        });
        std::iter::once(0).chain(ends)
    }

    /// [`RTreeRaw::entry_children`].
    pub fn entry_children(self) -> impl Iterator<Item = u32> + Clone + 'a {
        self.nodes
            .iter()
            .flat_map(|n| n.entries.iter().map(|e| e.child))
    }

    /// [`RTreeRaw::inner_rects`].
    pub fn inner_rects(self) -> impl Iterator<Item = f64> + Clone + 'a {
        self.nodes
            .iter()
            .filter(|n| n.level > 0)
            .flat_map(|n| n.entries.iter())
            .flat_map(|e| [e.rect.min.x, e.rect.min.y, e.rect.max.x, e.rect.max.y])
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

    fn height(t: &RTree) -> usize {
        t.node(t.root).level as usize + 1
    }

    fn assert_same_arena(a: &RTree, b: &RTree) {
        assert_eq!(a.nodes.len(), b.nodes.len());
        assert_eq!(a.root, b.root);
        assert_eq!(a.len, b.len);
        assert_eq!(a.max_entries, b.max_entries);
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.level, nb.level);
            assert_eq!(na.entries.len(), nb.entries.len());
            for (ea, eb) in na.entries.iter().zip(&nb.entries) {
                assert_eq!(ea.child, eb.child);
                assert_eq!(ea.rect.min, eb.rect.min);
                assert_eq!(ea.rect.max, eb.rect.max);
            }
        }
    }

    #[test]
    fn raw_roundtrip_restores_the_exact_arena() {
        for pts in [uniform(700, 0xF1A7), Vec::new()] {
            let tree = RTree::bulk_load(&pts);
            let back = RTree::from_raw(tree.raw_parts(), &pts).unwrap();
            assert_same_arena(&tree, &back);
        }
    }

    #[test]
    fn from_raw_rejects_malformed_arenas() {
        let pts = uniform(60, 0xBAD);
        let tree = RTree::bulk_load(&pts);
        let mut raw = tree.raw_parts();
        raw.root = raw.levels.len() as u32; // out of range
        assert!(RTree::from_raw(raw, &pts).is_err());

        let mut raw = tree.raw_parts();
        raw.entry_offsets.pop();
        assert!(RTree::from_raw(raw, &pts).is_err());

        let mut raw = tree.raw_parts();
        if let Some(c) = raw.entry_children.first_mut() {
            *c = u32::MAX - 1; // leaf points past the point array
        }
        assert!(RTree::from_raw(raw, &pts).is_err());

        let mut raw = tree.raw_parts();
        raw.len += 1; // leaf-entry count no longer matches
        assert!(RTree::from_raw(raw, &pts).is_err());
    }

    #[test]
    fn empty_tree() {
        let t = RTree::bulk_load(&[]);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(height(&t), 1);
        assert!(t.node(t.root).mbr().is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn bulk_load_structure() {
        for n in [0usize, 1, 5, 16, 17, 100, 1000, 4357] {
            let pts = uniform(n, n as u64);
            let t = RTree::bulk_load(&pts);
            assert_eq!(t.len(), n);
            t.check_invariants().unwrap();
            assert_eq!(all_ids(&t), (0..n as u32).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn bulk_load_is_well_packed() {
        let pts = uniform(10_000, 3);
        let t = RTree::bulk_load(&pts);
        // Perfect packing would need ⌈10000/16⌉ = 625 leaves ⇒ height 4
        // (625 → 40 → 3 → 1); STR should hit exactly that.
        assert_eq!(height(&t), 4, "STR tree unexpectedly tall");
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
