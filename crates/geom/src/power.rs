//! Weighted sites and the exact `power_incircle` predicate behind power
//! diagrams (regular triangulations).
//!
//! A weighted site `(p, w)` measures distance by the **power distance**
//! `pow(x) = |x − p|² − w`. The diagram that assigns each location to the
//! site of minimum power distance is the *power diagram*; its dual is the
//! *regular triangulation*, and the conflict test that drives the
//! incremental construction is the sign of a lifted 3×3 determinant —
//! [`incircle`](crate::predicates::incircle) with every lift term lowered
//! by the site's weight. Equal weights cancel out of the determinant, so
//! the predicate degenerates to the Euclidean `incircle` exactly.
//!
//! The implementation follows the same two-stage discipline as the other
//! adaptive predicates: a cheap floating-point evaluation guarded by a
//! forward error bound (stage A), and a fully exact fallback on the
//! [`crate::expansion`] arithmetic when the bound cannot certify the
//! sign. Both stages are counted in
//! [`predicate_totals`](crate::predicates::predicate_totals).

use crate::expansion::{
    expansion_diff, expansion_product, expansion_sign, expansion_sum, two_diff, EPSILON,
};
use crate::point::Point;
use crate::predicates::{bump_exact, bump_fast};

/// A site with a power-diagram weight.
///
/// The weight has units of squared distance: a site with weight `w > 0`
/// behaves like a circle of radius `√w` (a store with a service radius),
/// and its cell grows at its neighbours' expense. A site whose cell is
/// swallowed entirely is *hidden* — it owns no region of the plane.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedPoint {
    /// The site location.
    pub point: Point,
    /// The site weight (squared-distance units; may be negative).
    pub weight: f64,
}

impl WeightedPoint {
    /// Creates a weighted site.
    pub fn new(point: Point, weight: f64) -> WeightedPoint {
        WeightedPoint { point, weight }
    }

    /// The power distance `|x − p|² − w` from this site to `x`.
    ///
    /// Plain floating-point arithmetic: callers that need an exact
    /// comparison between two power distances must go through
    /// [`power_incircle`] or expansion arithmetic instead.
    pub fn power_dist(&self, x: Point) -> f64 {
        x.dist_sq(self.point) - self.weight
    }
}

// Stage-A forward error bound coefficient, derived like Shewchuk's
// ICCERRBOUND_A = (10 + 96ε)ε for the Euclidean incircle. The weighted
// determinant differs in two ways: each lift row gains one extra
// subtraction (`… − (w − w_d)`, one more rounding of magnitude ≤ the
// lift's absolute sum) and the weight difference itself carries one
// rounding. Both are covered by the permanent built from the
// *absolute* lift `dx² + dy² + |w − w_d|` (the signed lift can cancel;
// the absolute sum cannot), adding at most 6ε to Shewchuk's first-order
// coefficient. 16ε with generous ε² slack is therefore conservative —
// and soundly so, because an unmet bound only routes the call to the
// fully exact fallback.
const PWRERRBOUND_A: f64 = (16.0 + 224.0 * EPSILON) * EPSILON;

/// Sign of the power-conflict determinant for the weighted sites
/// `(pa, wa), (pb, wb), (pc, wc)` against `(pd, wd)`.
///
/// Assuming `pa, pb, pc` in **counter-clockwise** order, returns a value
/// whose **sign is exact**:
/// * `> 0` — `(pd, wd)` is in conflict with the triangle: its power
///   distance to the triangle's orthocenter is smaller than the
///   triangle's orthoradius, so the triangle cannot survive in the
///   regular triangulation once `pd` is inserted;
/// * `< 0` — no conflict;
/// * `== 0` — exactly orthogonal (the weighted analogue of cocircular).
///
/// With all four weights equal this is exactly
/// [`incircle`](crate::predicates::incircle): the weights cancel out of
/// the determinant term by term.
#[allow(clippy::too_many_arguments)] // four sites and four weights IS the predicate's arity
pub fn power_incircle(
    pa: Point,
    pb: Point,
    pc: Point,
    pd: Point,
    wa: f64,
    wb: f64,
    wc: f64,
    wd: f64,
) -> f64 {
    let adx = pa.x - pd.x;
    let bdx = pb.x - pd.x;
    let cdx = pc.x - pd.x;
    let ady = pa.y - pd.y;
    let bdy = pb.y - pd.y;
    let cdy = pc.y - pd.y;
    let adw = wa - wd;
    let bdw = wb - wd;
    let cdw = wc - wd;

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let alift = adx * adx + ady * ady - adw;

    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let blift = bdx * bdx + bdy * bdy - bdw;

    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;
    let clift = cdx * cdx + cdy * cdy - cdw;

    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);

    // The permanent uses the cancellation-free absolute lift: the signed
    // lift can be tiny while its terms are huge (a heavy site), and the
    // error bound must scale with the terms actually rounded.
    let alift_abs = adx * adx + ady * ady + adw.abs();
    let blift_abs = bdx * bdx + bdy * bdy + bdw.abs();
    let clift_abs = cdx * cdx + cdy * cdy + cdw.abs();
    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift_abs
        + (cdxady.abs() + adxcdy.abs()) * blift_abs
        + (adxbdy.abs() + bdxady.abs()) * clift_abs;
    let errbound = PWRERRBOUND_A * permanent;
    if det > errbound || -det > errbound {
        bump_fast();
        return det;
    }

    bump_exact();
    power_incircle_exact(pa, pb, pc, pd, wa, wb, wc, wd)
}

/// Fully exact power-conflict evaluation via expansion `Vec` arithmetic.
///
/// Computes the 3×3 determinant
/// `| adx ady adx²+ady²−adw ; bdx bdy bdx²+bdy²−bdw ; cdx cdy cdx²+cdy²−cdw |`
/// with every difference carried as an exact 2-component expansion, so
/// the result sign is exact for all finite inputs. Only invoked on
/// (near-)orthogonal configurations.
#[allow(clippy::too_many_arguments)] // same arity as the adaptive entry point
fn power_incircle_exact(
    pa: Point,
    pb: Point,
    pc: Point,
    pd: Point,
    wa: f64,
    wb: f64,
    wc: f64,
    wd: f64,
) -> f64 {
    #[inline]
    fn diff2(a: f64, b: f64) -> [f64; 2] {
        let (x, y) = two_diff(a, b);
        [y, x]
    }

    let adx = diff2(pa.x, pd.x);
    let ady = diff2(pa.y, pd.y);
    let bdx = diff2(pb.x, pd.x);
    let bdy = diff2(pb.y, pd.y);
    let cdx = diff2(pc.x, pd.x);
    let cdy = diff2(pc.y, pd.y);
    let adw = diff2(wa, wd);
    let bdw = diff2(wb, wd);
    let cdw = diff2(wc, wd);

    let lift = |dx: &[f64], dy: &[f64], dw: &[f64]| -> Vec<f64> {
        expansion_diff(
            &expansion_sum(&expansion_product(dx, dx), &expansion_product(dy, dy)),
            dw,
        )
    };
    let alift = lift(&adx, &ady, &adw);
    let blift = lift(&bdx, &bdy, &bdw);
    let clift = lift(&cdx, &cdy, &cdw);

    // Minor determinants: bc = bdx*cdy - cdx*bdy, etc.
    let bc = expansion_diff(
        &expansion_product(&bdx, &cdy),
        &expansion_product(&cdx, &bdy),
    );
    let ca = expansion_diff(
        &expansion_product(&cdx, &ady),
        &expansion_product(&adx, &cdy),
    );
    let ab = expansion_diff(
        &expansion_product(&adx, &bdy),
        &expansion_product(&bdx, &ady),
    );

    let det = expansion_sum(
        &expansion_sum(
            &expansion_product(&alift, &bc),
            &expansion_product(&blift, &ca),
        ),
        &expansion_product(&clift, &ab),
    );
    expansion_sign(&det)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::{incircle, orient2d, predicate_totals};
    use proptest::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// Three-way sign (f64::signum returns ±1 for ±0, which is wrong here).
    fn sgn(x: f64) -> i32 {
        if x > 0.0 {
            1
        } else if x < 0.0 {
            -1
        } else {
            0
        }
    }

    fn sgn_i(x: i128) -> i32 {
        x.signum() as i32
    }

    // Exact i128 oracle for integer coordinates and integer weights.
    #[allow(clippy::too_many_arguments)]
    fn power_incircle_i128(
        pa: Point,
        pb: Point,
        pc: Point,
        pd: Point,
        wa: i128,
        wb: i128,
        wc: i128,
        wd: i128,
    ) -> i128 {
        let d = |q: Point| (q.x as i128 - pd.x as i128, q.y as i128 - pd.y as i128);
        let (adx, ady) = d(pa);
        let (bdx, bdy) = d(pb);
        let (cdx, cdy) = d(pc);
        let alift = adx * adx + ady * ady - (wa - wd);
        let blift = bdx * bdx + bdy * bdy - (wb - wd);
        let clift = cdx * cdx + cdy * cdy - (wc - wd);
        alift * (bdx * cdy - cdx * bdy)
            + blift * (cdx * ady - adx * cdy)
            + clift * (adx * bdy - bdx * ady)
    }

    fn orient2d_i128(pa: Point, pb: Point, pc: Point) -> i128 {
        let (ax, ay) = (pa.x as i128, pa.y as i128);
        let (bx, by) = (pb.x as i128, pb.y as i128);
        let (cx, cy) = (pc.x as i128, pc.y as i128);
        (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    }

    #[test]
    fn equal_weights_match_incircle_sign() {
        let coords: Vec<Point> = (0..4)
            .flat_map(|x| (0..4).map(move |y| p(x as f64, y as f64)))
            .collect();
        for w in [0.0, 1.0, -2.5, 1e9] {
            for (i, &a) in coords.iter().enumerate() {
                for (j, &b) in coords.iter().enumerate().skip(i + 1) {
                    for &c in coords.iter().skip(j + 1) {
                        if orient2d(a, b, c) <= 0.0 {
                            continue;
                        }
                        for &d in coords.iter().step_by(3) {
                            let weighted = power_incircle(a, b, c, d, w, w, w, w);
                            let plain = incircle(a, b, c, d);
                            assert_eq!(sgn(weighted), sgn(plain), "w={w} a={a} b={b} c={c} d={d}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn weight_pulls_the_conflict_region() {
        // Unit circle through (1,0), (0,1), (-1,0); (2,0) is outside, so
        // unweighted there is no conflict — but weight 4 on the query
        // site shrinks its power distance enough to conflict.
        let a = p(1.0, 0.0);
        let b = p(0.0, 1.0);
        let c = p(-1.0, 0.0);
        let d = p(2.0, 0.0);
        assert!(power_incircle(a, b, c, d, 0.0, 0.0, 0.0, 0.0) < 0.0);
        assert!(power_incircle(a, b, c, d, 0.0, 0.0, 0.0, 4.0) > 0.0);
        // Symmetrically, weighting the triangle's sites pushes the query
        // point out of conflict even at the circumcenter.
        assert!(power_incircle(a, b, c, p(0.0, 0.0), 0.0, 0.0, 0.0, 0.0) > 0.0);
        assert!(power_incircle(a, b, c, p(0.0, 0.0), 3.0, 3.0, 3.0, 0.0) < 0.0);
    }

    #[test]
    fn exactly_orthogonal_is_zero() {
        // Row reduction: with pa=(2,0) wa=4, pd at the origin with wd=0
        // has lift 0; the configuration is engineered so the determinant
        // is exactly zero (all quantities small integers).
        // Sites (±2, 0) and (0, 2) with weight 4 have lifted heights
        // |p|² − w = 0 — coplanar with the origin lifted at height 0.
        let a = p(2.0, 0.0);
        let b = p(0.0, 2.0);
        let c = p(-2.0, 0.0);
        let d = p(0.0, 0.0);
        assert_eq!(power_incircle(a, b, c, d, 4.0, 4.0, 4.0, 0.0), 0.0);
    }

    #[test]
    fn power_incircle_against_i128_oracle_small_grid() {
        let coords: Vec<Point> = (0..3)
            .flat_map(|x| (0..3).map(move |y| p(x as f64, y as f64)))
            .collect();
        let weights = [0i128, 1, 3, -2];
        let mut checked = 0u32;
        for (i, &a) in coords.iter().enumerate() {
            for (j, &b) in coords.iter().enumerate() {
                if j == i {
                    continue;
                }
                for (k, &c) in coords.iter().enumerate() {
                    if k == i || k == j || orient2d_i128(a, b, c) <= 0 {
                        continue;
                    }
                    for &d in coords.iter().step_by(2) {
                        for (wi, &wa) in weights.iter().enumerate() {
                            let wb = weights[(wi + 1) % 4];
                            let wc = weights[(wi + 2) % 4];
                            let wd = weights[(wi + 3) % 4];
                            let fast = power_incircle(
                                a, b, c, d, wa as f64, wb as f64, wc as f64, wd as f64,
                            );
                            let exact = power_incircle_i128(a, b, c, d, wa, wb, wc, wd);
                            assert_eq!(sgn(fast), sgn_i(exact), "a={a} b={b} c={c} d={d} wa={wa}");
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 500);
    }

    proptest! {
        /// Random integer sites and weights against the exact i128
        /// oracle: the adaptive predicate's sign must always agree, on
        /// generic and (thanks to the small range) frequently degenerate
        /// configurations alike.
        #[test]
        fn power_incircle_matches_i128_oracle(
            ax in -8i32..8, ay in -8i32..8,
            bx in -8i32..8, by in -8i32..8,
            cx in -8i32..8, cy in -8i32..8,
            dx in -8i32..8, dy in -8i32..8,
            wa in -64i32..64, wb in -64i32..64,
            wc in -64i32..64, wd in -64i32..64,
        ) {
            let a = p(ax as f64, ay as f64);
            let b = p(bx as f64, by as f64);
            let c = p(cx as f64, cy as f64);
            let d = p(dx as f64, dy as f64);
            let fast = power_incircle(
                a, b, c, d, wa as f64, wb as f64, wc as f64, wd as f64,
            );
            let exact = power_incircle_i128(
                a, b, c, d, wa as i128, wb as i128, wc as i128, wd as i128,
            );
            prop_assert_eq!(sgn(fast), sgn_i(exact));
        }

        /// Scaled coordinates with huge weights: stress the stage-A error
        /// bound where the lift rows cancel catastrophically.
        #[test]
        fn power_incircle_oracle_with_dominant_weights(
            ax in -4i32..4, ay in -4i32..4,
            bx in -4i32..4, by in -4i32..4,
            cx in -4i32..4, cy in -4i32..4,
            dx in -4i32..4, dy in -4i32..4,
            wa in -1_000_000i64..1_000_000,
            wd in -1_000_000i64..1_000_000,
        ) {
            let a = p(ax as f64, ay as f64);
            let b = p(bx as f64, by as f64);
            let c = p(cx as f64, cy as f64);
            let d = p(dx as f64, dy as f64);
            let fast = power_incircle(a, b, c, d, wa as f64, 0.0, 0.0, wd as f64);
            let exact = power_incircle_i128(
                a, b, c, d, wa as i128, 0, 0, wd as i128,
            );
            prop_assert_eq!(sgn(fast), sgn_i(exact));
        }
    }

    #[test]
    fn totals_count_both_stages() {
        let t0 = predicate_totals();
        // Generic configuration: decided by the stage-A filter.
        assert!(
            power_incircle(
                p(1.0, 0.0),
                p(0.0, 1.0),
                p(-1.0, 0.0),
                p(0.0, 0.0),
                0.0,
                0.0,
                0.0,
                0.0
            ) > 0.0
        );
        let t1 = predicate_totals();
        assert_eq!(t1.filter_fast_accepts - t0.filter_fast_accepts, 1);
        assert_eq!(t1.exact_fallbacks, t0.exact_fallbacks);
        // Exactly orthogonal configuration: must fall back.
        assert_eq!(
            power_incircle(
                p(2.0, 0.0),
                p(0.0, 2.0),
                p(-2.0, 0.0),
                p(0.0, 0.0),
                4.0,
                4.0,
                4.0,
                0.0
            ),
            0.0
        );
        let t2 = predicate_totals();
        assert_eq!(t2.exact_fallbacks - t1.exact_fallbacks, 1);
    }

    #[test]
    fn weighted_point_power_dist() {
        let s = WeightedPoint::new(p(1.0, 2.0), 4.0);
        assert_eq!(s.power_dist(p(1.0, 2.0)), -4.0);
        assert_eq!(s.power_dist(p(4.0, 6.0)), 21.0);
        // Zero weight is the squared Euclidean distance.
        let z = WeightedPoint::new(p(1.0, 2.0), 0.0);
        assert_eq!(z.power_dist(p(4.0, 6.0)), 25.0);
    }
}
