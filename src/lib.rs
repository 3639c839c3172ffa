//! # voronoi-area-query — umbrella crate
//!
//! Re-exports the full stack of the reproduction of *Area Queries Based on
//! Voronoi Diagrams* (ICDE 2020) under one roof, so examples and
//! integration tests can `use voronoi_area_query::...` without naming the
//! individual workspace crates.
//!
//! See the repository README: its crate map for the architecture overview,
//! and its "Reproducing the paper" section for paper-vs-measured results.

#![forbid(unsafe_code)]

pub use vaq_core as core;
pub use vaq_delaunay as delaunay;
pub use vaq_geom as geom;
pub use vaq_rtree as rtree;
pub use vaq_viz as viz;
pub use vaq_workload as workload;
