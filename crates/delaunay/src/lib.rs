//! # vaq-delaunay — Delaunay triangulation and Voronoi diagrams
//!
//! The Voronoi-adjacency substrate for the reproduction of *Area Queries
//! Based on Voronoi Diagrams* (ICDE 2020). The paper's Algorithm 1 needs
//! one oracle: `VN(P, p)`, the Voronoi neighbours of a site `p` — which,
//! by duality (Property 4 of the paper), are the Delaunay neighbours of
//! `p`. This crate provides:
//!
//! * [`Triangulation`] — an incremental Bowyer–Watson Delaunay
//!   triangulation with ghost triangles, Hilbert-ranked vertex ids
//!   (inserted in id order) and adaptive exact predicates. The build drops its triangle mesh once it
//!   has derived the graph from it, so a built triangulation is the
//!   Voronoi graph alone: the CSR neighbour oracle
//!   ([`Triangulation::neighbors`]), the convex hull and a greedy
//!   nearest-vertex walk ([`Triangulation::nearest_vertex`], which
//!   refines the R-tree seed on power diagrams). It offers no point
//!   location.
//! * [`VoronoiDiagram`] / [`cell_polygon`] — explicit Voronoi cells,
//!   clipped to a window, computed by half-plane clipping. The area-query
//!   engine's *cell expansion policy* uses [`cell_polygon`] on demand.
//! * [`hilbert`] — the Hilbert-curve numbering of the canonical vertices
//!   ([`hilbert::rank_sites`]): it merges coincident inputs, orders the
//!   insertion and gives Delaunay neighbours nearby ids.
//! * **Power diagrams**: the site weights are one more array of the
//!   triangulation ([`Triangulation::weights`]), empty for the Euclidean
//!   diagram. [`Triangulation::with_site_metric`] builds the regular
//!   triangulation of weighted sites (dominated sites become *hidden* —
//!   cell-less — and every walk and cell routine handles them); module
//!   [`metric`] names the two diagram kinds.
//! * [`TriangulationFlat`] — the triangulation's flat arrays
//!   ([`Triangulation::as_flat`], [`Triangulation::from_flat`]).
//!
//! Vertex ids are Hilbert ranks, not input indices:
//! [`Triangulation::canonical`] and [`Triangulation::inputs_of`] map
//! between the two.
//!
//! Degenerate inputs are first-class: exact duplicates are merged (with a
//! two-way index mapping), and fully collinear inputs (including 1 or 2
//! points) fall back to a path-mode structure whose adjacency is still the
//! correct Voronoi adjacency.
//!
//! ## Example
//!
//! ```
//! use vaq_geom::Point;
//! use vaq_delaunay::Triangulation;
//!
//! let pts = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(1.0, 0.0),
//!     Point::new(0.0, 1.0),
//!     Point::new(1.0, 1.0),
//!     Point::new(0.5, 0.5),
//! ];
//! let tri = Triangulation::new(&pts).unwrap();
//! // The centre point is a Voronoi neighbour of all four corners.
//! let mut corners = [0, 1, 2, 3].map(|i| tri.canonical(i));
//! corners.sort_unstable();
//! assert_eq!(tri.neighbors(tri.canonical(4)), corners);
//! // Greedy walk finds the nearest site.
//! let v = tri.nearest_vertex(Point::new(0.9, 0.1), None);
//! assert_eq!(tri.inputs_of(v), &[1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flat;
pub mod hilbert;
mod mesh;
pub mod metric;
pub mod triangulation;
pub mod voronoi;

pub use flat::TriangulationFlat;
pub use metric::{weights_are_uniform, DiagramKind};
pub use triangulation::{DelaunayError, Triangulation};
pub use voronoi::{cell_polygon, VoronoiCell, VoronoiDiagram};
