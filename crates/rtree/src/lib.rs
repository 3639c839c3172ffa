//! # vaq-rtree — R-tree spatial index
//!
//! A from-scratch main-memory R-tree over 2-D points, built for the
//! reproduction of *Area Queries Based on Voronoi Diagrams* (ICDE 2020).
//! It plays both roles the paper assigns to an index:
//!
//! * the **traditional baseline**'s filter step is a window query with the
//!   query area's MBR ([`RTree::window_with_stats`]);
//! * the **Voronoi method**'s seed lookup is a nearest-neighbour query
//!   ([`RTree::nearest_with_stats`]) — the paper uses the same R-tree "for
//!   fairness".
//!
//! The tree is bulk loaded once with sort-tile-recursive packing
//! ([`RTree::bulk_load`]); both queries feed the [`AccessStats`] counters
//! the benchmark harness reports. [`RTree::raw_parts`] (or, borrowed,
//! [`RTree::raw_view`]) and [`RTree::from_raw`] flatten and restore the
//! node arena for engine snapshots.
//!
//! ## Example
//!
//! ```
//! use vaq_geom::{Point, Rect};
//! use vaq_rtree::{AccessStats, RTree};
//!
//! let pts = vec![
//!     Point::new(0.1, 0.1),
//!     Point::new(0.9, 0.2),
//!     Point::new(0.5, 0.7),
//! ];
//! let tree = RTree::bulk_load(&pts);
//! let mut stats = AccessStats::default();
//! let window = Rect::new(Point::new(0.0, 0.0), Point::new(0.6, 1.0));
//! let mut hits = tree.window_with_stats(&window, &mut stats);
//! hits.sort_unstable();
//! assert_eq!(hits, vec![0, 2]);
//! let (nearest, _d2) = tree.nearest_with_stats(Point::new(0.8, 0.3), &mut stats).unwrap();
//! assert_eq!(nearest, 1);
//! assert!(stats.nodes() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod query;
pub mod tree;

pub use query::AccessStats;
pub use tree::{RTree, RTreeRaw, RTreeRawView};
