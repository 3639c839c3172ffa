//! Which diagram a set of site weights induces.
//!
//! A triangulation's weights are data: an empty weight vector is the
//! classic Voronoi diagram, one weight per canonical vertex the **power
//! diagram** (its dual is the regular triangulation), where the power
//! distance from site `v` to a location `x` is `|x − p_v|² − w_v`.
//! Weighted sites can be *hidden*: a site dominated everywhere owns no
//! cell and no triangulation vertex. A uniform weight vector shifts every
//! power distance by the same constant, so builders normalise it to the
//! empty one ([`weights_are_uniform`]).

/// Which diagram a triangulation realizes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DiagramKind {
    /// The classic Voronoi diagram / Delaunay triangulation.
    #[default]
    Euclidean,
    /// A power diagram / regular triangulation of weighted sites.
    Power,
}

/// `true` when every weight equals the first (vacuously true when empty).
///
/// A uniform weight vector shifts every power distance by the same
/// constant, so the diagram it induces **is** the Euclidean one; builders
/// use this to route uniform inputs through the unweighted path,
/// bit-identically.
pub fn weights_are_uniform(w: &[f64]) -> bool {
    w.split_first()
        .is_none_or(|(first, rest)| rest.iter().all(|x| x == first))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniformity_check() {
        assert!(weights_are_uniform(&[]));
        assert!(weights_are_uniform(&[3.0]));
        assert!(weights_are_uniform(&[2.0, 2.0, 2.0]));
        assert!(!weights_are_uniform(&[2.0, 2.0, 2.1]));
        // NaN is never equal to itself: non-uniform (builders reject NaN
        // before this is ever consulted).
        assert!(!weights_are_uniform(&[f64::NAN, f64::NAN]));
    }
}
