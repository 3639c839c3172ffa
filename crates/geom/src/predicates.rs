//! Robust geometric predicates: exact-sign `orient2d` and `incircle`.
//!
//! These are adaptive-precision predicates in the style of Shewchuk: a cheap
//! floating-point evaluation with a forward error bound handles the vast
//! majority of inputs, and progressively more precise (ultimately exact)
//! stages run only when the result is too close to zero to trust.
//!
//! * [`orient2d`] is a full port of Shewchuk's four-stage adaptive routine;
//!   [`orient2d_filter`] is its first stage alone, for call sites that
//!   screen cheaply before an exact test.
//! * [`incircle`] uses Shewchuk's A and B stages plus his C-stage correction,
//!   then falls back to a straightforward exact evaluation built on the
//!   [`crate::expansion`] `Vec` arithmetic. The fallback is reached only for
//!   (near-)cocircular inputs — e.g. points on a regular grid — where a few
//!   allocations are irrelevant next to correctness.
//!
//! A correct Delaunay triangulation of 10⁶ points is not achievable with
//! naive `f64` predicates; this module is the foundation the rest of the
//! workspace stands on.

use crate::expansion::{
    estimate, expansion_diff, expansion_product, expansion_sign, expansion_sum,
    fast_expansion_sum_zeroelim, scale_expansion_zeroelim, two_diff, two_diff_tail, two_product,
    two_two_diff, EPSILON,
};
use crate::point::Point;
use std::cell::Cell;

/// Per-thread running totals of the two stages of the orientation
/// pipeline: evaluations decided by the cheap error-bound **filter**
/// (stage A, in [`orient2d`] or [`orient2d_filter`]) and evaluations
/// that had to **fall back** to the adaptive/exact stages.
///
/// The totals only ever grow; callers measure a region of interest by
/// subtracting two [`predicate_totals`] snapshots (each thread sees only
/// its own counters, so a single-threaded query window is exact).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredicateTotals {
    /// Orientation evaluations whose sign was certified by the cheap
    /// floating-point filter.
    pub filter_fast_accepts: u64,
    /// Orientation evaluations that fell through to the adaptive
    /// (expansion-arithmetic) stages.
    pub exact_fallbacks: u64,
}

thread_local! {
    static PREDICATE_TOTALS: Cell<PredicateTotals> = const {
        Cell::new(PredicateTotals {
            filter_fast_accepts: 0,
            exact_fallbacks: 0,
        })
    };
}

/// Snapshot of this thread's [`PredicateTotals`].
#[inline]
pub fn predicate_totals() -> PredicateTotals {
    PREDICATE_TOTALS.with(Cell::get)
}

#[inline]
pub(crate) fn bump_fast() {
    PREDICATE_TOTALS.with(|t| {
        let mut v = t.get();
        v.filter_fast_accepts += 1;
        t.set(v);
    });
}

#[inline]
pub(crate) fn bump_exact() {
    PREDICATE_TOTALS.with(|t| {
        let mut v = t.get();
        v.exact_fallbacks += 1;
        t.set(v);
    });
}

// Error bound coefficients from Shewchuk's predicates.c.
const RESULTERRBOUND: f64 = (3.0 + 8.0 * EPSILON) * EPSILON;
const CCWERRBOUND_A: f64 = (3.0 + 16.0 * EPSILON) * EPSILON;
const CCWERRBOUND_B: f64 = (2.0 + 12.0 * EPSILON) * EPSILON;
const CCWERRBOUND_C: f64 = (9.0 + 64.0 * EPSILON) * EPSILON * EPSILON;
const ICCERRBOUND_A: f64 = (10.0 + 96.0 * EPSILON) * EPSILON;
const ICCERRBOUND_B: f64 = (4.0 + 48.0 * EPSILON) * EPSILON;
const ICCERRBOUND_C: f64 = (44.0 + 576.0 * EPSILON) * EPSILON * EPSILON;

/// Sign of the orientation of the triangle `(pa, pb, pc)`.
///
/// Returns a value whose **sign is exact**:
/// * `> 0` — `pa`, `pb`, `pc` occur in counter-clockwise order
///   (`pc` lies to the left of the directed line `pa → pb`);
/// * `< 0` — clockwise;
/// * `== 0` — exactly collinear.
///
/// The magnitude approximates twice the signed triangle area.
pub fn orient2d(pa: Point, pb: Point, pc: Point) -> f64 {
    let detleft = (pa.x - pc.x) * (pb.y - pc.y);
    let detright = (pa.y - pc.y) * (pb.x - pc.x);
    let det = detleft - detright;

    let detsum = if detleft > 0.0 {
        if detright <= 0.0 {
            bump_fast();
            return det;
        }
        detleft + detright
    } else if detleft < 0.0 {
        if detright >= 0.0 {
            bump_fast();
            return det;
        }
        -detleft - detright
    } else {
        bump_fast();
        return det;
    };

    let errbound = CCWERRBOUND_A * detsum;
    if det >= errbound || -det >= errbound {
        bump_fast();
        return det;
    }

    bump_exact();
    orient2d_adapt(pa, pb, pc, detsum)
}

/// Stage-A orientation filter: the determinant estimate and whether its
/// **sign is certified exact** — the cases where [`orient2d`] returns
/// without touching the adaptive stages, so the value then equals its
/// return bit for bit: opposite (or zero) factor signs decide at once,
/// otherwise the forward error bound must certify `det`. The branch-free
/// filter-first shape for call sites that want to try the cheap stage
/// before paying for a full exact test; undecided results must be
/// re-evaluated with [`orient2d`]. Decided calls count as filter
/// fast-accepts in [`predicate_totals`]; undecided ones are counted by
/// the fallback.
#[inline]
pub fn orient2d_filter(pa: Point, pb: Point, pc: Point) -> (f64, bool) {
    let detleft = (pa.x - pc.x) * (pb.y - pc.y);
    let detright = (pa.y - pc.y) * (pb.x - pc.x);
    let det = detleft - detright;
    let opposite = (detleft <= 0.0 && detright >= 0.0) || (detleft >= 0.0 && detright <= 0.0);
    // `detleft.abs() + detright.abs()` equals `orient2d`'s `detsum`
    // exactly in the same-sign case (and is unused otherwise).
    let errbound = CCWERRBOUND_A * (detleft.abs() + detright.abs());
    let ok = opposite || det >= errbound || -det >= errbound;
    if ok {
        bump_fast();
    }
    (det, ok)
}

/// Stages B–D of the adaptive orientation test.
fn orient2d_adapt(pa: Point, pb: Point, pc: Point, detsum: f64) -> f64 {
    let acx = pa.x - pc.x;
    let bcx = pb.x - pc.x;
    let acy = pa.y - pc.y;
    let bcy = pb.y - pc.y;

    let (detleft, detlefttail) = two_product(acx, bcy);
    let (detright, detrighttail) = two_product(acy, bcx);
    let b = two_two_diff(detleft, detlefttail, detright, detrighttail);

    let mut det = estimate(&b);
    let errbound = CCWERRBOUND_B * detsum;
    if det >= errbound || -det >= errbound {
        return det;
    }

    let acxtail = two_diff_tail(pa.x, pc.x, acx);
    let bcxtail = two_diff_tail(pb.x, pc.x, bcx);
    let acytail = two_diff_tail(pa.y, pc.y, acy);
    let bcytail = two_diff_tail(pb.y, pc.y, bcy);

    if acxtail == 0.0 && acytail == 0.0 && bcxtail == 0.0 && bcytail == 0.0 {
        return det;
    }

    let errbound = CCWERRBOUND_C * detsum + RESULTERRBOUND * det.abs();
    det += (acx * bcytail + bcy * acxtail) - (acy * bcxtail + bcx * acytail);
    if det >= errbound || -det >= errbound {
        return det;
    }

    // Exact stage D.
    let (s1, s0) = two_product(acxtail, bcy);
    let (t1, t0) = two_product(acytail, bcx);
    let u = two_two_diff(s1, s0, t1, t0);
    let mut c1 = [0.0; 8];
    let c1len = fast_expansion_sum_zeroelim(&b, &u, &mut c1);

    let (s1, s0) = two_product(acx, bcytail);
    let (t1, t0) = two_product(acy, bcxtail);
    let u = two_two_diff(s1, s0, t1, t0);
    let mut c2 = [0.0; 12];
    let c2len = fast_expansion_sum_zeroelim(&c1[..c1len], &u, &mut c2);

    let (s1, s0) = two_product(acxtail, bcytail);
    let (t1, t0) = two_product(acytail, bcxtail);
    let u = two_two_diff(s1, s0, t1, t0);
    let mut d = [0.0; 16];
    let dlen = fast_expansion_sum_zeroelim(&c2[..c2len], &u, &mut d);

    d[dlen - 1]
}

/// Orientation as a three-way sign, for call sites that branch on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    /// Counter-clockwise (positive orientation).
    Ccw,
    /// Clockwise (negative orientation).
    Cw,
    /// Exactly collinear.
    Collinear,
}

/// [`orient2d`] classified into an [`Orientation`].
#[inline]
pub fn orientation(pa: Point, pb: Point, pc: Point) -> Orientation {
    let det = orient2d(pa, pb, pc);
    if det > 0.0 {
        Orientation::Ccw
    } else if det < 0.0 {
        Orientation::Cw
    } else {
        Orientation::Collinear
    }
}

/// Sign of the incircle determinant for `(pa, pb, pc)` against `pd`.
///
/// Assuming `pa, pb, pc` in **counter-clockwise** order, returns a value
/// whose sign is exact:
/// * `> 0` — `pd` lies strictly **inside** the circle through `pa, pb, pc`;
/// * `< 0` — strictly outside;
/// * `== 0` — exactly cocircular.
///
/// If `pa, pb, pc` are clockwise the sign is inverted.
pub fn incircle(pa: Point, pb: Point, pc: Point, pd: Point) -> f64 {
    let adx = pa.x - pd.x;
    let bdx = pb.x - pd.x;
    let cdx = pc.x - pd.x;
    let ady = pa.y - pd.y;
    let bdy = pb.y - pd.y;
    let cdy = pc.y - pd.y;

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let alift = adx * adx + ady * ady;

    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let blift = bdx * bdx + bdy * bdy;

    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;
    let clift = cdx * cdx + cdy * cdy;

    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);

    let permanent = (bdxcdy.abs() + cdxbdy.abs()) * alift
        + (cdxady.abs() + adxcdy.abs()) * blift
        + (adxbdy.abs() + bdxady.abs()) * clift;
    let errbound = ICCERRBOUND_A * permanent;
    if det > errbound || -det > errbound {
        return det;
    }

    incircle_adapt(pa, pb, pc, pd, permanent)
}

/// Stage B (plus the C-stage correction term) of the adaptive incircle test,
/// falling back to [`incircle_exact`] when still undecided.
fn incircle_adapt(pa: Point, pb: Point, pc: Point, pd: Point, permanent: f64) -> f64 {
    let adx = pa.x - pd.x;
    let bdx = pb.x - pd.x;
    let cdx = pc.x - pd.x;
    let ady = pa.y - pd.y;
    let bdy = pb.y - pd.y;
    let cdy = pc.y - pd.y;

    // B stage: exact determinant of the rounded differences.
    let (bdxcdy1, bdxcdy0) = two_product(bdx, cdy);
    let (cdxbdy1, cdxbdy0) = two_product(cdx, bdy);
    let bc = two_two_diff(bdxcdy1, bdxcdy0, cdxbdy1, cdxbdy0);
    let mut axbc = [0.0; 8];
    let axbclen = scale_expansion_zeroelim(&bc, adx, &mut axbc);
    let mut axxbc = [0.0; 16];
    let axxbclen = scale_expansion_zeroelim(&axbc[..axbclen], adx, &mut axxbc);
    let mut aybc = [0.0; 8];
    let aybclen = scale_expansion_zeroelim(&bc, ady, &mut aybc);
    let mut ayybc = [0.0; 16];
    let ayybclen = scale_expansion_zeroelim(&aybc[..aybclen], ady, &mut ayybc);
    let mut adet = [0.0; 32];
    let alen = fast_expansion_sum_zeroelim(&axxbc[..axxbclen], &ayybc[..ayybclen], &mut adet);

    let (cdxady1, cdxady0) = two_product(cdx, ady);
    let (adxcdy1, adxcdy0) = two_product(adx, cdy);
    let ca = two_two_diff(cdxady1, cdxady0, adxcdy1, adxcdy0);
    let mut bxca = [0.0; 8];
    let bxcalen = scale_expansion_zeroelim(&ca, bdx, &mut bxca);
    let mut bxxca = [0.0; 16];
    let bxxcalen = scale_expansion_zeroelim(&bxca[..bxcalen], bdx, &mut bxxca);
    let mut byca = [0.0; 8];
    let bycalen = scale_expansion_zeroelim(&ca, bdy, &mut byca);
    let mut byyca = [0.0; 16];
    let byycalen = scale_expansion_zeroelim(&byca[..bycalen], bdy, &mut byyca);
    let mut bdet = [0.0; 32];
    let blen = fast_expansion_sum_zeroelim(&bxxca[..bxxcalen], &byyca[..byycalen], &mut bdet);

    let (adxbdy1, adxbdy0) = two_product(adx, bdy);
    let (bdxady1, bdxady0) = two_product(bdx, ady);
    let ab = two_two_diff(adxbdy1, adxbdy0, bdxady1, bdxady0);
    let mut cxab = [0.0; 8];
    let cxablen = scale_expansion_zeroelim(&ab, cdx, &mut cxab);
    let mut cxxab = [0.0; 16];
    let cxxablen = scale_expansion_zeroelim(&cxab[..cxablen], cdx, &mut cxxab);
    let mut cyab = [0.0; 8];
    let cyablen = scale_expansion_zeroelim(&ab, cdy, &mut cyab);
    let mut cyyab = [0.0; 16];
    let cyyablen = scale_expansion_zeroelim(&cyab[..cyablen], cdy, &mut cyyab);
    let mut cdet = [0.0; 32];
    let clen = fast_expansion_sum_zeroelim(&cxxab[..cxxablen], &cyyab[..cyyablen], &mut cdet);

    let mut abdet = [0.0; 64];
    let ablen = fast_expansion_sum_zeroelim(&adet[..alen], &bdet[..blen], &mut abdet);
    let mut fin1 = [0.0; 96];
    let finlen = fast_expansion_sum_zeroelim(&abdet[..ablen], &cdet[..clen], &mut fin1);

    let mut det = estimate(&fin1[..finlen]);
    let errbound = ICCERRBOUND_B * permanent;
    if det >= errbound || -det >= errbound {
        return det;
    }

    // C stage: first-order correction with the difference tails.
    let adxtail = two_diff_tail(pa.x, pd.x, adx);
    let adytail = two_diff_tail(pa.y, pd.y, ady);
    let bdxtail = two_diff_tail(pb.x, pd.x, bdx);
    let bdytail = two_diff_tail(pb.y, pd.y, bdy);
    let cdxtail = two_diff_tail(pc.x, pd.x, cdx);
    let cdytail = two_diff_tail(pc.y, pd.y, cdy);
    if adxtail == 0.0
        && bdxtail == 0.0
        && cdxtail == 0.0
        && adytail == 0.0
        && bdytail == 0.0
        && cdytail == 0.0
    {
        return det;
    }

    let errbound = ICCERRBOUND_C * permanent + RESULTERRBOUND * det.abs();
    det += ((adx * adx + ady * ady)
        * ((bdx * cdytail + cdy * bdxtail) - (bdy * cdxtail + cdx * bdytail))
        + 2.0 * (adx * adxtail + ady * adytail) * (bdx * cdy - bdy * cdx))
        + ((bdx * bdx + bdy * bdy)
            * ((cdx * adytail + ady * cdxtail) - (cdy * adxtail + adx * cdytail))
            + 2.0 * (bdx * bdxtail + bdy * bdytail) * (cdx * ady - cdy * adx))
        + ((cdx * cdx + cdy * cdy)
            * ((adx * bdytail + bdy * adxtail) - (ady * bdxtail + bdx * adytail))
            + 2.0 * (cdx * cdxtail + cdy * cdytail) * (adx * bdy - ady * bdx));
    if det >= errbound || -det >= errbound {
        return det;
    }

    incircle_exact(pa, pb, pc, pd)
}

/// Fully exact incircle evaluation via expansion `Vec` arithmetic.
///
/// Computes the 3×3 determinant
/// `| adx ady adx²+ady² ; bdx bdy bdx²+bdy² ; cdx cdy cdx²+cdy² |`
/// where each difference is carried as an exact 2-component expansion, so the
/// result sign is exact for all finite inputs. Only invoked on
/// (near-)degenerate configurations.
fn incircle_exact(pa: Point, pb: Point, pc: Point, pd: Point) -> f64 {
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

    let lift = |dx: &[f64], dy: &[f64]| -> Vec<f64> {
        expansion_sum(&expansion_product(dx, dx), &expansion_product(dy, dy))
    };
    let alift = lift(&adx, &ady);
    let blift = lift(&bdx, &bdy);
    let clift = lift(&cdx, &cdy);

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

    // Exact i128 oracle for integer-coordinate points.
    fn orient2d_i128(pa: Point, pb: Point, pc: Point) -> i128 {
        let (ax, ay) = (pa.x as i128, pa.y as i128);
        let (bx, by) = (pb.x as i128, pb.y as i128);
        let (cx, cy) = (pc.x as i128, pc.y as i128);
        (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    }

    fn incircle_i128(pa: Point, pb: Point, pc: Point, pd: Point) -> i128 {
        let d = |p: Point| (p.x as i128 - pd.x as i128, p.y as i128 - pd.y as i128);
        let (adx, ady) = d(pa);
        let (bdx, bdy) = d(pb);
        let (cdx, cdy) = d(pc);
        let alift = adx * adx + ady * ady;
        let blift = bdx * bdx + bdy * bdy;
        let clift = cdx * cdx + cdy * cdy;
        alift * (bdx * cdy - cdx * bdy)
            + blift * (cdx * ady - adx * cdy)
            + clift * (adx * bdy - bdx * ady)
    }

    #[test]
    fn orient2d_basic_signs() {
        assert!(orient2d(p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)) > 0.0);
        assert!(orient2d(p(0.0, 0.0), p(0.0, 1.0), p(1.0, 0.0)) < 0.0);
        assert_eq!(orient2d(p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)), 0.0);
    }

    #[test]
    fn orient2d_exact_collinear_detection() {
        // Points on the line y = x with coordinates that stress rounding.
        let a = p(0.1, 0.1);
        let b = p(0.2, 0.2);
        // 0.3 is not representable: (0.3, 0.3) is *not quite* on the fl line,
        // yet a, b and the point must still be classified consistently.
        let c = p(0.3, 0.3);
        let d1 = orient2d(a, b, c);
        let d2 = orient2d(b, c, a);
        let d3 = orient2d(c, a, b);
        assert_eq!(sgn(d1), sgn(d2));
        assert_eq!(sgn(d2), sgn(d3));
        // Swapping two arguments must flip the sign exactly.
        assert_eq!(sgn(orient2d(a, c, b)), -sgn(d1));
    }

    #[test]
    fn orient2d_near_degenerate_grid() {
        // Shewchuk's classic stress: tiny perturbations off a diagonal.
        let base = p(0.5, 0.5);
        for i in 0..64 {
            for j in 0..64 {
                let pa = p(
                    0.5 + (i as f64) * f64::EPSILON,
                    0.5 + (j as f64) * f64::EPSILON,
                );
                let pb = p(12.0, 12.0);
                let pc = p(24.0, 24.0);
                let det = orient2d(pa, pb, pc);
                // Compare against exact evaluation through the expansion path:
                // scale so coordinates become exact integers (multiples of eps).
                let s = 1.0 / f64::EPSILON;
                let ia = p((pa.x - base.x) * s, (pa.y - base.y) * s);
                // pb - base = 11.5, pc - base = 23.5; scale by 2 for integers.
                let exact = {
                    let a2 = p(ia.x * 2.0, ia.y * 2.0);
                    let b2 = p(11.5 * s * 2.0, 11.5 * s * 2.0);
                    let c2 = p(23.5 * s * 2.0, 23.5 * s * 2.0);
                    orient2d_i128(a2, b2, c2)
                };
                assert_eq!(sgn(det), sgn_i(exact), "mismatch at i={i} j={j}");
            }
        }
    }

    #[test]
    fn incircle_basic_signs() {
        // Unit circle through (1,0), (0,1), (-1,0); origin is inside.
        let a = p(1.0, 0.0);
        let b = p(0.0, 1.0);
        let c = p(-1.0, 0.0);
        assert!(incircle(a, b, c, p(0.0, 0.0)) > 0.0);
        assert!(incircle(a, b, c, p(2.0, 0.0)) < 0.0);
        // (0,-1) is exactly on the circle.
        assert_eq!(incircle(a, b, c, p(0.0, -1.0)), 0.0);
    }

    #[test]
    fn incircle_orientation_flip() {
        let a = p(1.0, 0.0);
        let b = p(0.0, 1.0);
        let c = p(-1.0, 0.0);
        let inside = p(0.1, 0.1);
        assert!(incircle(a, b, c, inside) > 0.0); // CCW triangle
        assert!(incircle(a, c, b, inside) < 0.0); // CW triangle flips sign
    }

    #[test]
    fn incircle_cocircular_grid() {
        // The four corners of a unit square are cocircular: every orientation
        // of three corners against the fourth must return exactly 0.
        let q = [p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)];
        assert_eq!(incircle(q[0], q[1], q[2], q[3]), 0.0);
        assert_eq!(incircle(q[1], q[2], q[3], q[0]), 0.0);
        // Tiny inward perturbation must be detected as inside.
        let eps = f64::EPSILON;
        let inside = p(eps, eps); // nudged toward the centre from (0, 0)... on circle?
                                  // (eps, eps) vs circle centred (0.5, 0.5) radius sqrt(0.5):
                                  // dist² = 2*(0.5-eps)² < 0.5, so strictly inside.
        assert!(incircle(q[0], q[1], q[2], inside) > 0.0);
    }

    #[test]
    fn incircle_against_i128_oracle_small_grid() {
        // Exhaustive-ish sweep over a small integer grid.
        let coords: Vec<Point> = (0..4)
            .flat_map(|x| (0..4).map(move |y| p(x as f64, y as f64)))
            .collect();
        let mut checked = 0u32;
        for (i, &a) in coords.iter().enumerate() {
            for (j, &b) in coords.iter().enumerate() {
                if j == i {
                    continue;
                }
                for (k, &c) in coords.iter().enumerate() {
                    if k == i || k == j {
                        continue;
                    }
                    if orient2d_i128(a, b, c) <= 0 {
                        continue; // incircle convention needs CCW triangles
                    }
                    for &d in coords.iter().step_by(3) {
                        let fast = incircle(a, b, c, d);
                        let exact = incircle_i128(a, b, c, d);
                        assert_eq!(sgn(fast), sgn_i(exact), "a={a} b={b} c={c} d={d}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000);
    }

    #[test]
    fn orient2d_against_i128_oracle_small_grid() {
        let coords: Vec<Point> = (-3..3)
            .flat_map(|x| (-3..3).map(move |y| p(x as f64, y as f64)))
            .collect();
        for &a in &coords {
            for &b in &coords {
                for &c in coords.iter().step_by(5) {
                    let fast = orient2d(a, b, c);
                    let exact = orient2d_i128(a, b, c);
                    assert_eq!(sgn(fast), sgn_i(exact));
                }
            }
        }
    }

    /// The stage-A filter must agree with the i128 oracle on every decided
    /// call (and the adaptive fallback on every undecided one) — the same
    /// sweep as `orient2d_against_i128_oracle_small_grid`.
    #[test]
    fn filter_against_i128_oracle_small_grid() {
        let coords: Vec<Point> = (-3..3)
            .flat_map(|x| (-3..3).map(move |y| p(x as f64, y as f64)))
            .collect();
        let mut decided_total = 0usize;
        for &a in &coords {
            for &b in &coords {
                for &c in coords.iter().step_by(5) {
                    let (det, ok) = orient2d_filter(a, b, c);
                    let got = if ok { det } else { orient2d(a, b, c) };
                    assert_eq!(sgn(got), sgn_i(orient2d_i128(a, b, c)), "a={a} b={b} c={c}");
                    if ok {
                        decided_total += 1;
                        // A decided call equals the adaptive result bit
                        // for bit.
                        assert_eq!(det.to_bits(), orient2d(a, b, c).to_bits());
                    }
                }
            }
        }
        assert!(
            decided_total > 1000,
            "filter should decide the vast majority"
        );
    }

    /// Near-degenerate inputs: tiny perturbations off a diagonal, where the
    /// filter must either certify the exact sign or punt — never lie.
    #[test]
    fn filter_near_degenerate_grid() {
        let s = 1.0 / f64::EPSILON;
        let mut undecided = 0usize;
        for i in 0..32 {
            for j in 0..32 {
                let a = p(
                    0.5 + (i as f64) * f64::EPSILON,
                    0.5 + (j as f64) * f64::EPSILON,
                );
                let b = p(12.0, 12.0);
                let c = p(24.0, 24.0);
                let (det, ok) = orient2d_filter(a, b, c);
                let got = if ok { det } else { orient2d(a, b, c) };
                let exact = {
                    let a2 = p((a.x - 0.5) * s * 2.0, (a.y - 0.5) * s * 2.0);
                    let b2 = p(11.5 * s * 2.0, 11.5 * s * 2.0);
                    let c2 = p(23.5 * s * 2.0, 23.5 * s * 2.0);
                    orient2d_i128(a2, b2, c2)
                };
                assert_eq!(sgn(got), sgn_i(exact), "i={i} j={j}");
                undecided += usize::from(!ok);
            }
        }
        assert!(undecided > 0, "this grid must exercise the fallback");
    }

    /// The pipeline counters: fast accepts on generic inputs, exact
    /// fallbacks on (near-)degenerate ones, and a decided stage-A filter
    /// call counts as a fast accept while an undecided one counts nothing.
    #[test]
    fn predicate_totals_track_both_stages() {
        let t0 = predicate_totals();
        assert!(orient2d(p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)) > 0.0);
        let t1 = predicate_totals();
        assert_eq!(t1.filter_fast_accepts - t0.filter_fast_accepts, 1);
        assert_eq!(t1.exact_fallbacks, t0.exact_fallbacks);
        // Exactly collinear points with non-trivial coordinates force the
        // adaptive stages.
        assert_eq!(orient2d(p(0.1, 0.1), p(0.2, 0.2), p(0.4, 0.4)), 0.0);
        let t2 = predicate_totals();
        assert_eq!(t2.exact_fallbacks - t1.exact_fallbacks, 1);
        // A decided filter call counts as a fast accept.
        let (_, ok) = orient2d_filter(p(0.0, 0.0), p(1.0, 0.0), p(0.25, 1.0));
        assert!(ok);
        let t3 = predicate_totals();
        assert_eq!(t3.filter_fast_accepts - t2.filter_fast_accepts, 1);
        // An undecided one counts in neither stage.
        let (_, ok) = orient2d_filter(p(0.1, 0.1), p(0.2, 0.2), p(0.4, 0.4));
        assert!(!ok);
        assert_eq!(predicate_totals(), t3);
    }

    #[test]
    fn orientation_enum() {
        assert_eq!(
            orientation(p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)),
            Orientation::Ccw
        );
        assert_eq!(
            orientation(p(0.0, 0.0), p(0.0, 1.0), p(1.0, 0.0)),
            Orientation::Cw
        );
        assert_eq!(
            orientation(p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)),
            Orientation::Collinear
        );
    }

    #[test]
    fn incircle_exact_fallback_direct() {
        // Force the exact path with a deliberately brutal cocircular case
        // where all fast paths are inconclusive: four points on a circle with
        // irrational-ish coordinates scaled to kill the filters.
        let a = p(1e-30 + 1.0, 0.0);
        let b = p(0.0, 1.0 + 1e-30);
        let c = p(-1.0, 0.0);
        let d = p(0.0, -1.0);
        let sign = incircle(a, b, c, d);
        // Exact evaluation must be deterministic and finite.
        assert!(sign.is_finite());
        // Sanity: perturbing d inward flips to strictly positive.
        assert!(incircle(a, b, c, p(0.0, -0.5)) > 0.0);
    }
}
