//! Flat serialized representation of a built [`Triangulation`].
//!
//! A [`TriangulationFlat`] is the triangulation exploded into plain POD
//! arrays (`u32` ids, `f64` coordinates) — the structure-of-arrays layout
//! a snapshot file stores verbatim, and the layout
//! [`Triangulation::from_flat`] can hand straight back to the engine
//! without per-element decoding. Every field mirrors one internal array
//! of [`Triangulation`], which keeps the Voronoi graph only: there is no
//! triangle arena and no free list to store. The round trip
//! `Triangulation::from_flat(tri.to_flat())` reconstructs a structure
//! that is bit-identical to the original (same ids, same adjacency rows,
//! same hull, hidden sites and anchors).
//!
//! The flat layout is **versioned by shape**: any change to the set,
//! order or meaning of these fields must bump the snapshot container
//! version (the container embeds a fingerprint of this layout and
//! refuses to load a mismatch).
//!
//! [`Triangulation`]: crate::Triangulation
//! [`Triangulation::from_flat`]: crate::Triangulation::from_flat

/// A [`Triangulation`](crate::Triangulation) exploded into flat POD
/// arrays, ready for verbatim storage in a snapshot section.
///
/// Produced by [`to_flat`](crate::Triangulation::to_flat); consumed by
/// [`from_flat`](crate::Triangulation::from_flat), which validates the
/// cross-array invariants (bounds, CSR monotonicity, hidden and anchor
/// tables) before rebuilding.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TriangulationFlat {
    /// Canonical vertex coordinates (a [`Point`](vaq_geom::Point) is two
    /// `f64`s, so the serialized form is still `x0 y0 x1 y1 …`).
    pub pts: Vec<vaq_geom::Point>,
    /// Input index → canonical vertex id.
    pub canon: Vec<u32>,
    /// CSR offsets: canonical vertex → range into [`members`](Self::members).
    pub members_off: Vec<u32>,
    /// CSR payload: the input indices that collapsed onto each canonical
    /// vertex, ascending per row.
    pub members: Vec<u32>,
    /// CSR offsets of the Voronoi-neighbour adjacency.
    pub adj_off: Vec<u32>,
    /// CSR payload of the adjacency, ascending per row.
    pub adj: Vec<u32>,
    /// Hull vertices, CCW (degenerate mode: live path order).
    pub hull: Vec<u32>,
    /// `true` when the structure is in degenerate (collinear) path mode.
    pub degenerate: bool,
    /// Canonical site weights; **empty means Euclidean** (a weighted
    /// build always has one weight per canonical vertex).
    pub weights: Vec<f64>,
    /// Hidden canonical vertices, sorted ascending.
    pub hidden: Vec<u32>,
    /// Live anchor per canonical vertex; empty when nothing is hidden.
    pub anchor: Vec<u32>,
}
