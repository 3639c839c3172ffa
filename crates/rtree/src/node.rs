//! R-tree node arena.
//!
//! Nodes live in a flat arena and reference each other by index. Every node
//! stores a vector of [`Entry`]s; in a **leaf** (level 0) an entry's `child`
//! is the id of an indexed point and its rectangle is that point's
//! degenerate MBR, while in an **internal node** `child` is another node id
//! and the rectangle is that subtree's MBR. One entry type serves both
//! levels, so STR packing builds every level with the same code.

use vaq_geom::{Point, Rect};

/// One slot of a node: a bounding rectangle plus either a point id (in
/// leaves) or a child node id (in internal nodes).
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// MBR of the referenced point or subtree.
    pub rect: Rect,
    /// Point id (leaf) or node id (internal).
    pub child: u32,
}

impl Entry {
    /// Leaf entry for point `id` at `p`.
    #[inline]
    pub fn for_point(id: u32, p: Point) -> Entry {
        Entry {
            rect: Rect::from_point(p),
            child: id,
        }
    }
}

/// An R-tree node.
#[derive(Clone, Debug)]
pub struct Node {
    /// Distance from the leaf level: 0 for leaves.
    pub level: u32,
    /// Entries; the node's own MBR is the union of their rectangles.
    pub entries: Vec<Entry>,
}

impl Node {
    /// Creates an empty node at `level`.
    pub fn new(level: u32) -> Node {
        Node {
            level,
            entries: Vec::new(),
        }
    }

    /// `true` for leaf nodes.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// The union of all entry rectangles ([`Rect::EMPTY`] when empty).
    pub fn mbr(&self) -> Rect {
        self.entries
            .iter()
            .fold(Rect::EMPTY, |acc, e| acc.union(&e.rect))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_entry_is_degenerate_rect() {
        let e = Entry::for_point(7, Point::new(2.0, 3.0));
        assert_eq!(e.child, 7);
        assert_eq!(e.rect.min, Point::new(2.0, 3.0));
        assert_eq!(e.rect.max, Point::new(2.0, 3.0));
        assert_eq!(e.rect.area(), 0.0);
    }

    #[test]
    fn node_mbr_unions_entries() {
        let mut n = Node::new(0);
        assert!(n.mbr().is_empty());
        n.entries.push(Entry::for_point(0, Point::new(0.0, 0.0)));
        n.entries.push(Entry::for_point(1, Point::new(2.0, 1.0)));
        let mbr = n.mbr();
        assert_eq!(mbr.min, Point::new(0.0, 0.0));
        assert_eq!(mbr.max, Point::new(2.0, 1.0));
        assert!(n.is_leaf());
        assert!(!Node::new(1).is_leaf());
    }
}
