//! Floating-point expansion arithmetic after Shewchuk.
//!
//! An *expansion* is a sum of `f64` components, ordered by increasing
//! magnitude, that are *non-overlapping*: each component's bit range is
//! disjoint from the others'. Expansions represent real numbers exactly and
//! support exact addition and multiplication using only IEEE-754 double
//! arithmetic. They are the machinery behind the adaptive exact predicates in
//! [`crate::predicates`].
//!
//! Reference: J. R. Shewchuk, *Adaptive Precision Floating-Point Arithmetic
//! and Fast Robust Geometric Predicates*, Discrete & Computational Geometry
//! 18(3), 1997.

/// `2^27 + 1`, used to split a double into two half-precision halves.
pub const SPLITTER: f64 = 134_217_729.0;

/// Machine epsilon as used by Shewchuk: `2^-53`, half of `f64::EPSILON`.
pub const EPSILON: f64 = f64::EPSILON / 2.0;

/// Exact sum: returns `(x, y)` with `x = fl(a + b)` and `a + b = x + y`.
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    let bvirt = x - a;
    let avirt = x - bvirt;
    let bround = b - bvirt;
    let around = a - avirt;
    (x, around + bround)
}

/// Exact sum when `|a| >= |b|` is known: cheaper than [`two_sum`].
#[inline]
pub fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    let bvirt = x - a;
    (x, b - bvirt)
}

/// Exact difference: returns `(x, y)` with `x = fl(a - b)` and `a - b = x + y`.
#[inline]
pub fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let x = a - b;
    let bvirt = a - x;
    let avirt = x + bvirt;
    let bround = bvirt - b;
    let around = a - avirt;
    (x, around + bround)
}

/// The roundoff of `fl(a - b)` when the rounded difference `x` is already
/// known: `a - b = x + two_diff_tail(a, b, x)`.
#[inline]
pub fn two_diff_tail(a: f64, b: f64, x: f64) -> f64 {
    let bvirt = a - x;
    let avirt = x + bvirt;
    let bround = bvirt - b;
    let around = a - avirt;
    around + bround
}

/// Splits `a` into `(hi, lo)` halves with non-overlapping 26-bit mantissas,
/// `a = hi + lo`.
#[inline]
pub fn split(a: f64) -> (f64, f64) {
    let c = SPLITTER * a;
    let abig = c - a;
    let ahi = c - abig;
    let alo = a - ahi;
    (ahi, alo)
}

/// Exact product: returns `(x, y)` with `x = fl(a * b)` and `a * b = x + y`.
#[inline]
pub fn two_product(a: f64, b: f64) -> (f64, f64) {
    let x = a * b;
    let (ahi, alo) = split(a);
    let (bhi, blo) = split(b);
    let err1 = x - ahi * bhi;
    let err2 = err1 - alo * bhi;
    let err3 = err2 - ahi * blo;
    (x, alo * blo - err3)
}

/// `(a1, a0) - (b1, b0)` as an exact 4-component expansion
/// `[x0, x1, x2, x3]` (increasing magnitude).
#[inline]
pub fn two_two_diff(a1: f64, a0: f64, b1: f64, b0: f64) -> [f64; 4] {
    // two_one_diff(a1, a0, b0) -> (x2', x1', x0)
    let (si, x0) = two_diff(a0, b0);
    let (x2a, x1a) = two_sum(a1, si);
    // two_one_diff(x2a, x1a, b1) -> (x3, x2, x1)
    let (si2, x1) = two_diff(x1a, b1);
    let (x3, x2) = two_sum(x2a, si2);
    [x0, x1, x2, x3]
}

/// Sums two expansions into `h`, eliminating zero components.
/// Returns the number of components written. `h` must have room for
/// `e.len() + f.len()` components.
///
/// Both inputs must be non-overlapping and sorted by increasing magnitude
/// (Shewchuk's `FAST_EXPANSION_SUM_ZEROELIM`); the output satisfies the same
/// invariant.
pub fn fast_expansion_sum_zeroelim(e: &[f64], f: &[f64], h: &mut [f64]) -> usize {
    let (elen, flen) = (e.len(), f.len());
    if elen == 0 {
        h[..flen].copy_from_slice(f);
        return flen;
    }
    if flen == 0 {
        h[..elen].copy_from_slice(e);
        return elen;
    }

    let mut eindex = 0usize;
    let mut findex = 0usize;
    // vaq-lint: allow(panic-hygiene) -- both expansions are non-empty
    // here: the zero-length cases returned early above.
    let mut enow = e[0];
    // vaq-lint: allow(panic-hygiene) -- same non-empty guarantee as the
    // line above.
    let mut fnow = f[0];
    let mut q;

    if (fnow > enow) == (fnow > -enow) {
        q = enow;
        eindex += 1;
        if eindex < elen {
            enow = e[eindex];
        }
    } else {
        q = fnow;
        findex += 1;
        if findex < flen {
            fnow = f[findex];
        }
    }

    let mut hindex = 0usize;
    let mut hh;
    if eindex < elen && findex < flen {
        if (fnow > enow) == (fnow > -enow) {
            let (qq, h0) = fast_two_sum(enow, q);
            q = qq;
            hh = h0;
            eindex += 1;
            if eindex < elen {
                enow = e[eindex];
            }
        } else {
            let (qq, h0) = fast_two_sum(fnow, q);
            q = qq;
            hh = h0;
            findex += 1;
            if findex < flen {
                fnow = f[findex];
            }
        }
        if hh != 0.0 {
            h[hindex] = hh;
            hindex += 1;
        }
        while eindex < elen && findex < flen {
            if (fnow > enow) == (fnow > -enow) {
                let (qq, h0) = two_sum(q, enow);
                q = qq;
                hh = h0;
                eindex += 1;
                if eindex < elen {
                    enow = e[eindex];
                }
            } else {
                let (qq, h0) = two_sum(q, fnow);
                q = qq;
                hh = h0;
                findex += 1;
                if findex < flen {
                    fnow = f[findex];
                }
            }
            if hh != 0.0 {
                h[hindex] = hh;
                hindex += 1;
            }
        }
    }
    while eindex < elen {
        let (qq, h0) = two_sum(q, enow);
        q = qq;
        hh = h0;
        eindex += 1;
        if eindex < elen {
            enow = e[eindex];
        }
        if hh != 0.0 {
            h[hindex] = hh;
            hindex += 1;
        }
    }
    while findex < flen {
        let (qq, h0) = two_sum(q, fnow);
        q = qq;
        hh = h0;
        findex += 1;
        if findex < flen {
            fnow = f[findex];
        }
        if hh != 0.0 {
            h[hindex] = hh;
            hindex += 1;
        }
    }
    if q != 0.0 || hindex == 0 {
        h[hindex] = q;
        hindex += 1;
    }
    hindex
}

/// Multiplies expansion `e` by the scalar `b`, eliminating zero components.
/// Returns the number of components written. `h` must have room for
/// `2 * e.len()` components (Shewchuk's `SCALE_EXPANSION_ZEROELIM`).
pub fn scale_expansion_zeroelim(e: &[f64], b: f64, h: &mut [f64]) -> usize {
    if e.is_empty() {
        // vaq-lint: allow(panic-hygiene) -- the documented contract gives
        // `h` room for 2·e.len() components and at least one output slot.
        h[0] = 0.0;
        return 1;
    }
    let (bhi, blo) = split(b);
    // vaq-lint: allow(panic-hygiene) -- `e` is non-empty: the is_empty
    // case returned early above.
    let (mut q, hh) = two_product_presplit(e[0], b, bhi, blo);
    let mut hindex = 0usize;
    if hh != 0.0 {
        h[hindex] = hh;
        hindex += 1;
    }
    // vaq-lint: allow(panic-hygiene) -- `e` is non-empty (early return
    // above), so the tail slice from 1 is in bounds.
    for &enow in &e[1..] {
        let (product1, product0) = two_product_presplit(enow, b, bhi, blo);
        let (sum, h0) = two_sum(q, product0);
        if h0 != 0.0 {
            h[hindex] = h0;
            hindex += 1;
        }
        let (qq, h1) = fast_two_sum(product1, sum);
        q = qq;
        if h1 != 0.0 {
            h[hindex] = h1;
            hindex += 1;
        }
    }
    if q != 0.0 || hindex == 0 {
        h[hindex] = q;
        hindex += 1;
    }
    hindex
}

/// [`two_product`] with `b` already split into `(bhi, blo)`.
#[inline]
fn two_product_presplit(a: f64, b: f64, bhi: f64, blo: f64) -> (f64, f64) {
    let x = a * b;
    let (ahi, alo) = split(a);
    let err1 = x - ahi * bhi;
    let err2 = err1 - alo * bhi;
    let err3 = err2 - ahi * blo;
    (x, alo * blo - err3)
}

/// Approximate value of an expansion (sum of components, smallest first).
#[inline]
pub fn estimate(e: &[f64]) -> f64 {
    e.iter().sum()
}

/// Sign of the exact value of a non-overlapping expansion.
///
/// The component of largest magnitude is last (after zero elimination), so
/// its sign is the sign of the whole expansion.
#[inline]
pub fn expansion_sign(e: &[f64]) -> f64 {
    for &c in e.iter().rev() {
        if c != 0.0 {
            return c;
        }
    }
    0.0
}

// ---------------------------------------------------------------------------
// Vec-based exact arithmetic for the rare exact fallback paths. These
// allocate, but they only run when the adaptive filters fail (points that are
// exactly or almost exactly degenerate), so clarity beats speed here.
// ---------------------------------------------------------------------------

/// Exact sum of two expansions as a fresh `Vec`.
pub fn expansion_sum(e: &[f64], f: &[f64]) -> Vec<f64> {
    let mut h = vec![0.0; e.len() + f.len() + 1];
    let n = fast_expansion_sum_zeroelim(e, f, &mut h);
    h.truncate(n);
    h
}

/// Exact difference `e - f` of two expansions as a fresh `Vec`.
pub fn expansion_diff(e: &[f64], f: &[f64]) -> Vec<f64> {
    let neg: Vec<f64> = f.iter().map(|&x| -x).collect();
    expansion_sum(e, &neg)
}

/// Exact product of two expansions as a fresh `Vec` (distributes
/// `scale_expansion` over the components of `f` and sums).
pub fn expansion_product(e: &[f64], f: &[f64]) -> Vec<f64> {
    if e.is_empty() || f.is_empty() {
        return vec![0.0];
    }
    let mut acc: Vec<f64> = vec![0.0];
    let mut scaled = vec![0.0; 2 * e.len() + 1];
    for &b in f {
        let n = scale_expansion_zeroelim(e, b, &mut scaled);
        acc = expansion_sum(&acc, &scaled[..n]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_i128(e: &[f64]) -> i128 {
        // Valid only when every component is an integer that fits i128.
        e.iter().map(|&c| c as i128).sum()
    }

    #[test]
    fn two_sum_exact_on_cancellation() {
        let a = 1e16;
        let b = 1.0;
        let (x, y) = two_sum(a, b);
        // x + y must equal a + b exactly; the tail captures what fl() lost.
        assert_eq!(x, 1e16 + 1.0); // rounds to 1e16 + 2 or stays; whatever fl gives
        assert_eq!(x + y, x); // components non-overlapping: adding tail is no-op in fl
                              // Reconstruct via i128 on an integer case instead:
        let (x, y) = two_sum(9_007_199_254_740_992.0, 1.0); // 2^53 + 1 not representable
        assert_eq!(x as i128 + y as i128, 9_007_199_254_740_993);
    }

    #[test]
    fn two_diff_exact() {
        // 2^53 - 0.5 is not representable; the tail must capture the -0.5.
        let a = 9_007_199_254_740_992.0; // 2^53
        let b = 0.5;
        let (x, y) = two_diff(a, b);
        assert_eq!(x * 2.0, (a - b + y) * 2.0 - y * 2.0 + (x - x)); // identity smoke
                                                                    // Exact check scaled by 2 so everything is an integer:
        assert_eq!((x * 2.0) as i128 + (y * 2.0) as i128, (a * 2.0) as i128 - 1);
        // two_diff_tail agrees with two_diff's tail.
        assert_eq!(two_diff_tail(a, b, a - b), y);
    }

    #[test]
    fn two_product_exact_integers() {
        let a = 94_906_267.0; // ~2^26.5
        let b = 94_906_265.0;
        let (x, y) = two_product(a, b);
        let exact = (a as i128) * (b as i128);
        assert_eq!(x as i128 + y as i128, exact);
    }

    #[test]
    fn split_reconstructs() {
        for &a in &[1.0, -3.75e17, 1e-300, 123_456_789.125] {
            let (hi, lo) = split(a);
            assert_eq!(hi + lo, a);
        }
    }

    #[test]
    fn two_two_diff_exact_integers() {
        let e = two_two_diff(1e18, 3.0, 7e17, 11.0);
        let exact = 1_000_000_000_000_000_000i128 + 3 - 700_000_000_000_000_000 - 11;
        assert_eq!(exact_i128(&e), exact);
    }

    #[test]
    fn fast_expansion_sum_integers() {
        let e = [3.0, 1e18];
        let f = [5.0, 2e18];
        let mut h = [0.0; 4];
        let n = fast_expansion_sum_zeroelim(&e, &f, &mut h);
        assert_eq!(exact_i128(&h[..n]), 3_000_000_000_000_000_008);
    }

    #[test]
    fn fast_expansion_sum_cancels_to_zero() {
        let e = [3.0, 1e18];
        let f = [-3.0, -1e18];
        let mut h = [0.0; 4];
        let n = fast_expansion_sum_zeroelim(&e, &f, &mut h);
        assert_eq!(n, 1);
        assert_eq!(h[0], 0.0);
    }

    #[test]
    fn scale_expansion_integers() {
        let e = [3.0, 1e18];
        let mut h = [0.0; 4];
        let n = scale_expansion_zeroelim(&e, 7.0, &mut h);
        assert_eq!(exact_i128(&h[..n]), 7_000_000_000_000_000_021);
    }

    #[test]
    fn expansion_vec_product() {
        let e = [3.0, 1e10];
        let f = [2.0, 5e9];
        let p = expansion_product(&e, &f);
        let exact = (3i128 + 10_000_000_000) * (2 + 5_000_000_000);
        assert_eq!(exact_i128(&p), exact);
    }

    #[test]
    fn expansion_vec_diff_and_sign() {
        let e = [1e18];
        let f = [1.0, 1e18];
        let d = expansion_diff(&e, &f);
        assert_eq!(exact_i128(&d), -1);
        assert!(expansion_sign(&d) < 0.0);
        let z = expansion_diff(&e, &e);
        assert_eq!(expansion_sign(&z), 0.0);
    }

    #[test]
    fn estimate_close_to_sum() {
        let e = [1e-30, 2.0, 3e10];
        assert!((estimate(&e) - (1e-30 + 2.0 + 3e10)).abs() < 1.0);
    }
}
