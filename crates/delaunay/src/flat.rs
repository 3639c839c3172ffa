//! The flat arrays a [`Triangulation`] is made of.
//!
//! A [`TriangulationFlat`] is the triangulation's storage: plain POD
//! arrays (`u32` ids, `f64` coordinates and weights) in a
//! structure-of-arrays layout. A built triangulation keeps the Voronoi
//! graph only, so there is no triangle arena and no free list.
//! [`Triangulation::as_flat`] borrows the arrays for the snapshot writer,
//! and [`Triangulation::from_flat`] hands loaded ones straight back to the
//! engine without per-element decoding. The round trip
//! `Triangulation::from_flat(tri.as_flat().clone())` reconstructs a
//! structure that is bit-identical to the original (same ids, same
//! adjacency rows, same hull, hidden sites and anchors).
//!
//! The flat layout is **versioned by shape**: any change to the set,
//! order or meaning of these fields must bump the snapshot container
//! version (the container embeds a fingerprint of this layout and
//! refuses to load a mismatch).
//!
//! [`Triangulation`]: crate::Triangulation
//! [`Triangulation::as_flat`]: crate::Triangulation::as_flat
//! [`Triangulation::from_flat`]: crate::Triangulation::from_flat

/// The flat POD arrays of a [`Triangulation`](crate::Triangulation). A
/// snapshot stores the graph arrays, from `adj_off` on; `pts`, `canon`
/// and the members CSR are derived from the input points on load
/// ([`rank_sites`](crate::hilbert::rank_sites)).
///
/// Borrowed from a triangulation by
/// [`as_flat`](crate::Triangulation::as_flat); consumed by
/// [`from_flat`](crate::Triangulation::from_flat), which validates the
/// cross-array invariants (bounds, CSR monotonicity, hidden and anchor
/// tables) before wrapping the arrays.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TriangulationFlat {
    /// Canonical vertex coordinates, indexed by vertex id. Ids are ranks
    /// along the Hilbert curve
    /// ([`rank_sites`](crate::hilbert::rank_sites)).
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
    /// Parallel to [`hidden`](Self::hidden): for each hidden vertex, a
    /// power-nearest live vertex to stand in for it during graph walks.
    /// A live vertex stands in for itself.
    pub anchor: Vec<u32>,
}
