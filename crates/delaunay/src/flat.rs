//! The flat arrays a [`Triangulation`] is made of.
//!
//! A [`TriangulationFlat`] is the triangulation's storage: plain POD
//! arrays (`u32` ids, `f64` coordinates and weights) in the
//! structure-of-arrays layout a snapshot file stores verbatim. A built
//! triangulation keeps the Voronoi graph only, so there is no triangle
//! arena and no free list. [`Triangulation::as_flat`] borrows the arrays
//! for the snapshot writer, and [`Triangulation::from_flat`] hands loaded
//! ones straight back to the engine without per-element decoding. The
//! round trip `Triangulation::from_flat(tri.as_flat().clone())`
//! reconstructs a structure that is bit-identical to the original (same
//! ids, same adjacency rows, same hull, hidden sites and anchors).
//!
//! The flat layout is **versioned by shape**: any change to the set,
//! order or meaning of these fields must bump the snapshot container
//! version (the container embeds a fingerprint of this layout and
//! refuses to load a mismatch).
//!
//! [`Triangulation`]: crate::Triangulation
//! [`Triangulation::as_flat`]: crate::Triangulation::as_flat
//! [`Triangulation::from_flat`]: crate::Triangulation::from_flat

/// The flat POD arrays of a [`Triangulation`](crate::Triangulation),
/// ready for verbatim storage in a snapshot section.
///
/// Borrowed from a triangulation by
/// [`as_flat`](crate::Triangulation::as_flat); consumed by
/// [`from_flat`](crate::Triangulation::from_flat), which validates the
/// cross-array invariants (bounds, CSR monotonicity, hidden and anchor
/// tables) before wrapping the arrays.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TriangulationFlat {
    /// Canonical vertex coordinates, indexed by vertex id (a
    /// [`Point`](vaq_geom::Point) is two `f64`s, so the serialized form
    /// is still `x0 y0 x1 y1 …`).
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
    /// Hull vertices, CCW. In degenerate mode, the path order; in
    /// weighted degenerate mode, the order of the *live* sites along the
    /// path.
    pub hull: Vec<u32>,
    /// `true` when the structure is in degenerate (collinear) path mode.
    pub degenerate: bool,
    /// Canonical site weights; **empty means Euclidean** (a weighted
    /// build always has one weight per canonical vertex).
    pub weights: Vec<f64>,
    /// Hidden canonical vertices, sorted ascending (weighted builds
    /// only).
    pub hidden: Vec<u32>,
    /// For each canonical vertex, a live vertex to stand in for it during
    /// graph walks: identity for live vertices, a power-nearest live
    /// vertex for hidden ones. Empty when no vertex is hidden.
    pub anchor: Vec<u32>,
}
