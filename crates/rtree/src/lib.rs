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
//! The tree is a **packed Hilbert R-tree** (Kamel & Faloutsos, "On
//! Packing R-trees", CIKM 1993): its leaves are runs of 16 consecutive
//! points along the Hilbert curve, and each level above holds the unions
//! of runs of 16 rectangles of the level below. [`RTree::bulk_load`]
//! sorts the points along the curve ([`vaq_geom::hilbert::curve_order`]);
//! [`RTree::pack`] takes an order the caller already has, such as a
//! triangulation's vertex order, in one `O(n)` pass. Both queries feed
//! the [`AccessStats`] counters the benchmark harness reports.
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

pub mod query;
pub mod tree;

pub use query::AccessStats;
pub use tree::RTree;
