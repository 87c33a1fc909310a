//! Register-blocked AVX2 micro-kernels behind the `simd` feature.
//!
//! Every kernel here is an *instruction-level* rewrite of a pinned portable
//! kernel in [`crate::scalar`] — same IEEE-754 operations, same order, so
//! the f64 results are bitwise identical and the f32 results match the
//! pinned 8-lane layout exactly. The wins come from instruction selection
//! only:
//!
//! * **GEMM panel kernel** ([`gemm_tb_f64_avx2`] / [`gemm_tb_f32_avx2`]):
//!   the `A · Bᵀ` serving GEMM computed as 2-row × 4-column output panels.
//!   Each of the 8 panel outputs keeps its *own* lane-accumulator register
//!   (4 lanes f64 / 8 lanes f32) — the k-loop of one output is never split
//!   across registers, so each output's reduction order is exactly
//!   [`dot_pinned_f64`](crate::scalar::dot_pinned_f64) /
//!   [`dot_pinned_f32`](crate::scalar::dot_pinned_f32). What the blocking
//!   buys is ILP (8 independent add chains hide the 4-cycle vector-add
//!   latency that bounds a single-accumulator dot) and load reuse (each
//!   `a` vector feeds 4 outputs, each `b` vector feeds 2).
//! * **axpy / rank-4 row update**: element-wise sweeps where vectorization
//!   cannot change the per-element operation order; AVX2 only widens the
//!   lanes past the SSE2 baseline the default target emits.
//! * **Squared-distance sweep** ([`sq_dist_accum_f64_avx2`]): the kNN
//!   snapshot kernel, `acc[c] += (x_j − refs[c])²` — element-wise, same
//!   argument.
//! * **Adam step** (`adam_step_f64_avx2_fma`): the element-wise update of
//!   [`Adam`](crate::Adam), with its two bias-correction divisions replaced
//!   by a correctly rounded constant-divisor quotient.
//!
//! FMA never contracts a product into a sum: fusing would skip the
//! product's rounding and change bits (see the crate-level discussion in
//! [`crate::scalar`]). Its one use is the exact remainder `a − b·q` inside
//! the Adam kernel's constant-divisor quotient, whose result is the
//! correctly rounded quotient `RN(a/b)` — the same bits a division gives.

use std::arch::x86_64::*;

/// Reduce a 4-lane f64 accumulator in the pinned `(l0+l2)+(l1+l3)` order.
///
/// # Safety
/// Requires AVX2 (callers are `#[target_feature(enable = "avx2")]`).
#[target_feature(enable = "avx2")]
unsafe fn hreduce_pd(acc: __m256d) -> f64 {
    let lo = _mm256_castpd256_pd128(acc); // [l0, l1]
    let hi = _mm256_extractf128_pd::<1>(acc); // [l2, l3]
    let s = _mm_add_pd(lo, hi); // [l0+l2, l1+l3]
    let upper = _mm_unpackhi_pd(s, s);
    _mm_cvtsd_f64(_mm_add_sd(s, upper))
}

/// Reduce an 8-lane f32 accumulator in the pinned
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` order.
///
/// # Safety
/// Requires AVX2.
#[target_feature(enable = "avx2")]
unsafe fn hreduce_ps(acc: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(acc); // [l0, l1, l2, l3]
    let hi = _mm256_extractf128_ps::<1>(acc); // [l4, l5, l6, l7]
    let s = _mm_add_ps(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
    let upper = _mm_movehl_ps(s, s);
    let t = _mm_add_ps(s, upper); // [(l0+l4)+(l2+l6), (l1+l5)+(l3+l7), ..]
    let t1 = _mm_shuffle_ps::<0b01>(t, t);
    _mm_cvtss_f32(_mm_add_ss(t, t1))
}

/// Register-blocked `out = A · Bᵀ` (f64): `A` is `m×k`, `B` is `n×k`, both
/// row-major, `out` is `m×n`.
///
/// 2×4 output panels, one 4-lane accumulator per output, pinned horizontal
/// reduce + ascending scalar tail per output — bitwise-equal to one
/// `dot_pinned_f64(a.row(i), b.row(j))` per element. Panel remainders
/// (odd trailing row, `n % 4` trailing columns) fall back to the plain
/// AVX2 dot, which shares the same pinned order.
///
/// # Safety
/// Caller must verify AVX2 at runtime and pass consistent dimensions
/// (`a.len() == m*k`, `b.len() == n*k`, `out.len() == m*n`).
#[target_feature(enable = "avx2")]
pub unsafe fn gemm_tb_f64_avx2(a: &[f64], b: &[f64], out: &mut [f64], m: usize, n: usize, k: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    let kc = k / 4 * 4;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut i = 0;
    while i + 2 <= m {
        let ar0 = ap.add(i * k);
        let ar1 = ap.add((i + 1) * k);
        let mut j = 0;
        while j + 4 <= n {
            let br0 = bp.add(j * k);
            let br1 = bp.add((j + 1) * k);
            let br2 = bp.add((j + 2) * k);
            let br3 = bp.add((j + 3) * k);
            let mut c00 = _mm256_setzero_pd();
            let mut c01 = _mm256_setzero_pd();
            let mut c02 = _mm256_setzero_pd();
            let mut c03 = _mm256_setzero_pd();
            let mut c10 = _mm256_setzero_pd();
            let mut c11 = _mm256_setzero_pd();
            let mut c12 = _mm256_setzero_pd();
            let mut c13 = _mm256_setzero_pd();
            let mut kk = 0;
            while kk < kc {
                let va0 = _mm256_loadu_pd(ar0.add(kk));
                let va1 = _mm256_loadu_pd(ar1.add(kk));
                let vb0 = _mm256_loadu_pd(br0.add(kk));
                let vb1 = _mm256_loadu_pd(br1.add(kk));
                let vb2 = _mm256_loadu_pd(br2.add(kk));
                let vb3 = _mm256_loadu_pd(br3.add(kk));
                c00 = _mm256_add_pd(c00, _mm256_mul_pd(va0, vb0));
                c01 = _mm256_add_pd(c01, _mm256_mul_pd(va0, vb1));
                c02 = _mm256_add_pd(c02, _mm256_mul_pd(va0, vb2));
                c03 = _mm256_add_pd(c03, _mm256_mul_pd(va0, vb3));
                c10 = _mm256_add_pd(c10, _mm256_mul_pd(va1, vb0));
                c11 = _mm256_add_pd(c11, _mm256_mul_pd(va1, vb1));
                c12 = _mm256_add_pd(c12, _mm256_mul_pd(va1, vb2));
                c13 = _mm256_add_pd(c13, _mm256_mul_pd(va1, vb3));
                kk += 4;
            }
            let panel = [[c00, c01, c02, c03], [c10, c11, c12, c13]];
            let arows = [ar0, ar1];
            let brows = [br0, br1, br2, br3];
            for (r, accs) in panel.iter().enumerate() {
                let orow = out.as_mut_ptr().add((i + r) * n + j);
                for (c, &acc) in accs.iter().enumerate() {
                    let mut s = hreduce_pd(acc);
                    for t in kc..k {
                        s += *arows[r].add(t) * *brows[c].add(t);
                    }
                    *orow.add(c) = s;
                }
            }
            j += 4;
        }
        while j < n {
            let br = bp.add(j * k);
            for (r, &ar) in [ar0, ar1].iter().enumerate() {
                *out.as_mut_ptr().add((i + r) * n + j) = dot_raw_f64(ar, br, k);
            }
            j += 1;
        }
        i += 2;
    }
    if i < m {
        let ar = ap.add(i * k);
        for j in 0..n {
            *out.as_mut_ptr().add(i * n + j) = dot_raw_f64(ar, bp.add(j * k), k);
        }
    }
}

/// Raw-pointer form of the pinned AVX2 f64 dot (panel-remainder fallback).
///
/// # Safety
/// Requires AVX2 and `k` readable elements behind both pointers.
#[target_feature(enable = "avx2")]
unsafe fn dot_raw_f64(a: *const f64, b: *const f64, k: usize) -> f64 {
    let kc = k / 4 * 4;
    let mut acc = _mm256_setzero_pd();
    let mut kk = 0;
    while kk < kc {
        let va = _mm256_loadu_pd(a.add(kk));
        let vb = _mm256_loadu_pd(b.add(kk));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
        kk += 4;
    }
    let mut sum = hreduce_pd(acc);
    for t in kc..k {
        sum += *a.add(t) * *b.add(t);
    }
    sum
}

/// Register-blocked `out = A · Bᵀ` (f32) — the 8-lane counterpart of
/// [`gemm_tb_f64_avx2`]: 2×4 output panels, one 8-lane accumulator per
/// output, pinned `dot_pinned_f32` reduce + ascending tail.
///
/// # Safety
/// Caller must verify AVX2 at runtime and pass consistent dimensions.
#[target_feature(enable = "avx2")]
pub unsafe fn gemm_tb_f32_avx2(a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize, k: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    let kc = k / 8 * 8;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut i = 0;
    while i + 2 <= m {
        let ar0 = ap.add(i * k);
        let ar1 = ap.add((i + 1) * k);
        let mut j = 0;
        while j + 4 <= n {
            let br0 = bp.add(j * k);
            let br1 = bp.add((j + 1) * k);
            let br2 = bp.add((j + 2) * k);
            let br3 = bp.add((j + 3) * k);
            let mut c00 = _mm256_setzero_ps();
            let mut c01 = _mm256_setzero_ps();
            let mut c02 = _mm256_setzero_ps();
            let mut c03 = _mm256_setzero_ps();
            let mut c10 = _mm256_setzero_ps();
            let mut c11 = _mm256_setzero_ps();
            let mut c12 = _mm256_setzero_ps();
            let mut c13 = _mm256_setzero_ps();
            let mut kk = 0;
            while kk < kc {
                let va0 = _mm256_loadu_ps(ar0.add(kk));
                let va1 = _mm256_loadu_ps(ar1.add(kk));
                let vb0 = _mm256_loadu_ps(br0.add(kk));
                let vb1 = _mm256_loadu_ps(br1.add(kk));
                let vb2 = _mm256_loadu_ps(br2.add(kk));
                let vb3 = _mm256_loadu_ps(br3.add(kk));
                c00 = _mm256_add_ps(c00, _mm256_mul_ps(va0, vb0));
                c01 = _mm256_add_ps(c01, _mm256_mul_ps(va0, vb1));
                c02 = _mm256_add_ps(c02, _mm256_mul_ps(va0, vb2));
                c03 = _mm256_add_ps(c03, _mm256_mul_ps(va0, vb3));
                c10 = _mm256_add_ps(c10, _mm256_mul_ps(va1, vb0));
                c11 = _mm256_add_ps(c11, _mm256_mul_ps(va1, vb1));
                c12 = _mm256_add_ps(c12, _mm256_mul_ps(va1, vb2));
                c13 = _mm256_add_ps(c13, _mm256_mul_ps(va1, vb3));
                kk += 8;
            }
            let panel = [[c00, c01, c02, c03], [c10, c11, c12, c13]];
            let arows = [ar0, ar1];
            let brows = [br0, br1, br2, br3];
            for (r, accs) in panel.iter().enumerate() {
                let orow = out.as_mut_ptr().add((i + r) * n + j);
                for (c, &acc) in accs.iter().enumerate() {
                    let mut s = hreduce_ps(acc);
                    for t in kc..k {
                        s += *arows[r].add(t) * *brows[c].add(t);
                    }
                    *orow.add(c) = s;
                }
            }
            j += 4;
        }
        while j < n {
            let br = bp.add(j * k);
            for (r, &ar) in [ar0, ar1].iter().enumerate() {
                *out.as_mut_ptr().add((i + r) * n + j) = dot_raw_f32(ar, br, k);
            }
            j += 1;
        }
        i += 2;
    }
    if i < m {
        let ar = ap.add(i * k);
        for j in 0..n {
            *out.as_mut_ptr().add(i * n + j) = dot_raw_f32(ar, bp.add(j * k), k);
        }
    }
}

/// Raw-pointer form of the pinned AVX2 f32 dot (panel-remainder fallback).
///
/// # Safety
/// Requires AVX2 and `k` readable elements behind both pointers.
#[target_feature(enable = "avx2")]
unsafe fn dot_raw_f32(a: *const f32, b: *const f32, k: usize) -> f32 {
    let kc = k / 8 * 8;
    let mut acc = _mm256_setzero_ps();
    let mut kk = 0;
    while kk < kc {
        let va = _mm256_loadu_ps(a.add(kk));
        let vb = _mm256_loadu_ps(b.add(kk));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        kk += 8;
    }
    let mut sum = hreduce_ps(acc);
    for t in kc..k {
        sum += *a.add(t) * *b.add(t);
    }
    sum
}

/// AVX2 `y += alpha · x` (f64). Element-wise: each output element receives
/// exactly one `+= alpha·x[j]`, same as the portable
/// [`axpy_tiled`](crate::scalar::axpy_tiled).
///
/// # Safety
/// Caller must verify AVX2 at runtime; `x.len() == y.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn axpy_f64_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let va = _mm256_set1_pd(alpha);
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let y0 = _mm256_loadu_pd(yp.add(i));
        let y1 = _mm256_loadu_pd(yp.add(i + 4));
        let x0 = _mm256_loadu_pd(xp.add(i));
        let x1 = _mm256_loadu_pd(xp.add(i + 4));
        _mm256_storeu_pd(yp.add(i), _mm256_add_pd(y0, _mm256_mul_pd(va, x0)));
        _mm256_storeu_pd(yp.add(i + 4), _mm256_add_pd(y1, _mm256_mul_pd(va, x1)));
        i += 8;
    }
    while i + 4 <= n {
        let y0 = _mm256_loadu_pd(yp.add(i));
        let x0 = _mm256_loadu_pd(xp.add(i));
        _mm256_storeu_pd(yp.add(i), _mm256_add_pd(y0, _mm256_mul_pd(va, x0)));
        i += 4;
    }
    while i < n {
        *yp.add(i) += alpha * *xp.add(i);
        i += 1;
    }
}

/// AVX2 `y += alpha · x` (f32).
///
/// # Safety
/// Caller must verify AVX2 at runtime; `x.len() == y.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn axpy_f32_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let va = _mm256_set1_ps(alpha);
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let y0 = _mm256_loadu_ps(yp.add(i));
        let x0 = _mm256_loadu_ps(xp.add(i));
        _mm256_storeu_ps(yp.add(i), _mm256_add_ps(y0, _mm256_mul_ps(va, x0)));
        i += 8;
    }
    while i < n {
        *yp.add(i) += alpha * *xp.add(i);
        i += 1;
    }
}

/// AVX2 fused rank-4 row update `y += a0·r0 + a1·r1 + a2·r2 + a3·r3` (f64).
///
/// Per element the four `+=` happen in ascending-`k` order — the identical
/// chain of the portable [`rank4_update_tiled`](crate::scalar::rank4_update_tiled).
///
/// # Safety
/// Caller must verify AVX2 at runtime; all slices share `y.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn rank4_f64_avx2(a: [f64; 4], r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64], y: &mut [f64]) {
    let n = y.len();
    debug_assert!(r0.len() == n && r1.len() == n && r2.len() == n && r3.len() == n);
    let va0 = _mm256_set1_pd(a[0]);
    let va1 = _mm256_set1_pd(a[1]);
    let va2 = _mm256_set1_pd(a[2]);
    let va3 = _mm256_set1_pd(a[3]);
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i + 4 <= n {
        let mut t = _mm256_loadu_pd(yp.add(i));
        t = _mm256_add_pd(t, _mm256_mul_pd(va0, _mm256_loadu_pd(r0.as_ptr().add(i))));
        t = _mm256_add_pd(t, _mm256_mul_pd(va1, _mm256_loadu_pd(r1.as_ptr().add(i))));
        t = _mm256_add_pd(t, _mm256_mul_pd(va2, _mm256_loadu_pd(r2.as_ptr().add(i))));
        t = _mm256_add_pd(t, _mm256_mul_pd(va3, _mm256_loadu_pd(r3.as_ptr().add(i))));
        _mm256_storeu_pd(yp.add(i), t);
        i += 4;
    }
    while i < n {
        let mut t = *yp.add(i);
        t += a[0] * *r0.get_unchecked(i);
        t += a[1] * *r1.get_unchecked(i);
        t += a[2] * *r2.get_unchecked(i);
        t += a[3] * *r3.get_unchecked(i);
        *yp.add(i) = t;
        i += 1;
    }
}

/// AVX2 fused rank-4 row update (f32).
///
/// # Safety
/// Caller must verify AVX2 at runtime; all slices share `y.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn rank4_f32_avx2(a: [f32; 4], r0: &[f32], r1: &[f32], r2: &[f32], r3: &[f32], y: &mut [f32]) {
    let n = y.len();
    debug_assert!(r0.len() == n && r1.len() == n && r2.len() == n && r3.len() == n);
    let va0 = _mm256_set1_ps(a[0]);
    let va1 = _mm256_set1_ps(a[1]);
    let va2 = _mm256_set1_ps(a[2]);
    let va3 = _mm256_set1_ps(a[3]);
    let yp = y.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let mut t = _mm256_loadu_ps(yp.add(i));
        t = _mm256_add_ps(t, _mm256_mul_ps(va0, _mm256_loadu_ps(r0.as_ptr().add(i))));
        t = _mm256_add_ps(t, _mm256_mul_ps(va1, _mm256_loadu_ps(r1.as_ptr().add(i))));
        t = _mm256_add_ps(t, _mm256_mul_ps(va2, _mm256_loadu_ps(r2.as_ptr().add(i))));
        t = _mm256_add_ps(t, _mm256_mul_ps(va3, _mm256_loadu_ps(r3.as_ptr().add(i))));
        _mm256_storeu_ps(yp.add(i), t);
        i += 8;
    }
    while i < n {
        let mut t = *yp.add(i);
        t += a[0] * *r0.get_unchecked(i);
        t += a[1] * *r1.get_unchecked(i);
        t += a[2] * *r2.get_unchecked(i);
        t += a[3] * *r3.get_unchecked(i);
        *yp.add(i) = t;
        i += 1;
    }
}

/// AVX2 squared-distance sweep `acc[c] += (x_j − refs[c])²` (f64) — the
/// kNN snapshot kernel. Element-wise: each accumulator receives one
/// subtract, one multiply, one add, same as the portable
/// [`sq_dist_accum_tiled`](crate::scalar::sq_dist_accum_tiled).
///
/// # Safety
/// Caller must verify AVX2 at runtime; `refs.len() == acc.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn sq_dist_accum_f64_avx2(xj: f64, refs: &[f64], acc: &mut [f64]) {
    debug_assert_eq!(refs.len(), acc.len());
    let n = refs.len();
    let vx = _mm256_set1_pd(xj);
    let rp = refs.as_ptr();
    let ap = acc.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let d0 = _mm256_sub_pd(vx, _mm256_loadu_pd(rp.add(i)));
        let d1 = _mm256_sub_pd(vx, _mm256_loadu_pd(rp.add(i + 4)));
        let a0 = _mm256_loadu_pd(ap.add(i));
        let a1 = _mm256_loadu_pd(ap.add(i + 4));
        _mm256_storeu_pd(ap.add(i), _mm256_add_pd(a0, _mm256_mul_pd(d0, d0)));
        _mm256_storeu_pd(ap.add(i + 4), _mm256_add_pd(a1, _mm256_mul_pd(d1, d1)));
        i += 8;
    }
    while i + 4 <= n {
        let d0 = _mm256_sub_pd(vx, _mm256_loadu_pd(rp.add(i)));
        let a0 = _mm256_loadu_pd(ap.add(i));
        _mm256_storeu_pd(ap.add(i), _mm256_add_pd(a0, _mm256_mul_pd(d0, d0)));
        i += 4;
    }
    while i < n {
        let d = xj - *rp.add(i);
        *ap.add(i) += d * d;
        i += 1;
    }
}

/// AVX2 squared-distance sweep (f32).
///
/// # Safety
/// Caller must verify AVX2 at runtime; `refs.len() == acc.len()`.
#[target_feature(enable = "avx2")]
pub unsafe fn sq_dist_accum_f32_avx2(xj: f32, refs: &[f32], acc: &mut [f32]) {
    debug_assert_eq!(refs.len(), acc.len());
    let n = refs.len();
    let vx = _mm256_set1_ps(xj);
    let rp = refs.as_ptr();
    let ap = acc.as_mut_ptr();
    let mut i = 0;
    while i + 8 <= n {
        let d0 = _mm256_sub_ps(vx, _mm256_loadu_ps(rp.add(i)));
        let a0 = _mm256_loadu_ps(ap.add(i));
        _mm256_storeu_ps(ap.add(i), _mm256_add_ps(a0, _mm256_mul_ps(d0, d0)));
        i += 8;
    }
    while i < n {
        let d = xj - *rp.add(i);
        *ap.add(i) += d * d;
        i += 1;
    }
}

/// The constants of one [`Adam`](crate::Adam) step: its hyper-parameters,
/// the bias corrections `bcᵢ = 1 − βᵢ^t` and their reciprocals
/// `RN(1/bcᵢ)`, which the caller guarantees for bias corrections in
/// [2⁻³², 2³²] only.
pub(crate) struct AdamCoeffs {
    pub(crate) lr: f64,
    pub(crate) beta1: f64,
    pub(crate) beta2: f64,
    pub(crate) eps: f64,
    pub(crate) bc: (f64, f64),
    pub(crate) inv_bc: (f64, f64),
}

/// Smallest dividend magnitude the reciprocal quotient takes (2⁻⁸⁰⁰).
const QUOTIENT_MIN: f64 = f64::from_bits((1023 - 800) << 52);
/// Largest dividend magnitude the reciprocal quotient takes (2⁸⁰⁰).
const QUOTIENT_MAX: f64 = f64::from_bits((1023 + 800) << 52);

/// AVX2+FMA Adam update over the 4-lane head of one parameter segment;
/// returns how many leading elements it updated (`n / 4 · 4`). The caller
/// runs the pinned loop over the rest.
///
/// Per lane this is the pinned loop's arithmetic, operation for operation:
/// `m ← β₁·m + (1−β₁)·g` and `v ← β₂·v + ((1−β₂)·g)·g` with separate
/// multiplies and adds, then `p ← p − (α·m̂)/(√v̂ + ε)`. Only `m̂ = m/bc₁`
/// and `v̂ = v/bc₂` are computed differently — by
/// [`div_by_reciprocal_pd`], which returns the correctly rounded quotient
/// — so every result is bit-identical and the step costs one division and
/// one square root per parameter instead of three and one.
///
/// # Safety
/// Caller must verify AVX2 and FMA at runtime; `grads`, `m` and `v` have
/// `params.len()` elements; `c.inv_bc` holds `RN(1/bcᵢ)` for bias
/// corrections in [2⁻³², 2³²].
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn adam_step_f64_avx2_fma(
    c: &AdamCoeffs,
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) -> usize {
    let n = params.len();
    debug_assert!(grads.len() == n && m.len() == n && v.len() == n);
    let beta1 = _mm256_set1_pd(c.beta1);
    let one_minus_beta1 = _mm256_set1_pd(1.0 - c.beta1);
    let beta2 = _mm256_set1_pd(c.beta2);
    let one_minus_beta2 = _mm256_set1_pd(1.0 - c.beta2);
    let (bc1, bc2) = (_mm256_set1_pd(c.bc.0), _mm256_set1_pd(c.bc.1));
    let (inv_bc1, inv_bc2) = (_mm256_set1_pd(c.inv_bc.0), _mm256_set1_pd(c.inv_bc.1));
    let lr = _mm256_set1_pd(c.lr);
    let eps = _mm256_set1_pd(c.eps);
    let (pp, gp, mp, vp) = (params.as_mut_ptr(), grads.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
    let head = n / 4 * 4;
    let mut i = 0;
    while i < head {
        let g = _mm256_loadu_pd(gp.add(i));
        let mi = _mm256_add_pd(
            _mm256_mul_pd(beta1, _mm256_loadu_pd(mp.add(i))),
            _mm256_mul_pd(one_minus_beta1, g),
        );
        let vi = _mm256_add_pd(
            _mm256_mul_pd(beta2, _mm256_loadu_pd(vp.add(i))),
            _mm256_mul_pd(_mm256_mul_pd(one_minus_beta2, g), g),
        );
        _mm256_storeu_pd(mp.add(i), mi);
        _mm256_storeu_pd(vp.add(i), vi);
        let m_hat = div_by_reciprocal_pd(mi, bc1, inv_bc1);
        let v_hat = div_by_reciprocal_pd(vi, bc2, inv_bc2);
        let step = _mm256_div_pd(_mm256_mul_pd(lr, m_hat), _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps));
        _mm256_storeu_pd(pp.add(i), _mm256_sub_pd(_mm256_loadu_pd(pp.add(i)), step));
        i += 4;
    }
    head
}

/// `RN(a/b)` in every lane, from the reciprocal `y = RN(1/b)` and two
/// exact-remainder FMA corrections; a lane outside the guard takes the
/// true division.
///
/// ```text
/// q₀ = RN(a·y)
/// r₀ = RN(a − b·q₀)   q₁ = RN(q₀ + r₀·y)     (fnmadd, fmadd)
/// r₁ = a − b·q₁       q₂ = RN(q₁ + r₁·y)     (fnmadd exact, fmadd)
/// ```
///
/// **Why `q₂ = RN(a/b)`.** Let `u = 2⁻⁵³` and `ulp = ulp(a/b)`, and take
/// `2⁻⁸⁰⁰ ≤ |a| ≤ 2⁸⁰⁰` and `2⁻³² ≤ b ≤ 2³²`.
///
/// 1. `|a·y − a/b| = |a|·|y − 1/b| ≤ |a|·½ulp(1/b) < 1 ulp`, and rounding
///    adds at most ½ ulp: `|q₀ − a/b| < 1.5 ulp`. That is too far for the
///    theorem below, so one correction alone has no proof.
/// 2. With `e₀ = q₀ − a/b`, `y = (1+δ)/b` and `r₀ = −b·e₀·(1+ε)`
///    (`|δ|, |ε| ≤ u`), the first correction's pre-rounding value is
///    `a/b − e₀·(δ + ε + δε)`, within `1.5·(2u + u²) ulp ≲ 3u·ulp` of
///    `a/b`. `q₁`, the float nearest that value, is therefore within
///    `½ ulp + 6u·ulp < 1 ulp` of `a/b`.
/// 3. Markstein's theorem (P. Markstein, IBM J. Res. Dev. 34(1), 1990;
///    restated in Muller et al., *Handbook of Floating-Point
///    Arithmetic*): if `y` is within ½ ulp of `1/b`, `q₁` is within 1 ulp
///    of `a/b`, and nothing underflows or overflows, then `r₁ = a − b·q₁`
///    is exactly representable — so the FMA computes it without error —
///    and `RN(q₁ + r₁·y) = RN(a/b)`.
///
/// The premises are enforced, not assumed. `y` is a true division done
/// once per step, and the caller passes it only for `b ∈ [2⁻³², 2³²]`.
/// Within those ranges `|a/b| ≤ 2⁸³²`, and a nonzero remainder is a
/// multiple of `ulp(b)·ulp(q₁) ≥ 2⁻⁹⁶⁹`, far above the normal minimum
/// 2⁻¹⁰²², so nothing overflows or underflows. Any lane with `|a|`
/// outside [2⁻⁸⁰⁰, 2⁸⁰⁰] — ±0, subnormals, ±∞ and NaN, which fails both
/// ordered compares — is blended from `a / b` instead.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn div_by_reciprocal_pd(a: __m256d, b: __m256d, y: __m256d) -> __m256d {
    let q0 = _mm256_mul_pd(a, y);
    let q1 = _mm256_fmadd_pd(_mm256_fnmadd_pd(q0, b, a), y, q0);
    let q2 = _mm256_fmadd_pd(_mm256_fnmadd_pd(q1, b, a), y, q1);
    let mag = _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
    let ok = _mm256_and_pd(
        _mm256_cmp_pd::<_CMP_GE_OQ>(mag, _mm256_set1_pd(QUOTIENT_MIN)),
        _mm256_cmp_pd::<_CMP_LE_OQ>(mag, _mm256_set1_pd(QUOTIENT_MAX)),
    );
    if _mm256_movemask_pd(ok) == 0b1111 {
        q2
    } else {
        _mm256_blendv_pd(_mm256_div_pd(a, b), q2, ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fma_available() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 11
    }

    /// A float with a random mantissa and a binary exponent in `exp`.
    fn random_float(state: &mut u64, exp: std::ops::Range<i64>) -> f64 {
        let e = exp.start + (lcg(state) % (exp.end - exp.start) as u64) as i64;
        let mantissa = lcg(state) & ((1 << 52) - 1);
        f64::from_bits((((1023 + e) as u64) << 52) | mantissa)
    }

    /// Every distinct bias correction `1 − βᵗ` the default betas produce
    /// before it saturates at 1.0, computed as `Adam::begin_step` does.
    fn default_bias_corrections() -> Vec<f64> {
        let mut bcs: Vec<f64> = (1..=400)
            .map(|t| 1.0 - 0.9f64.powi(t))
            .chain((1..=40_000).map(|t| 1.0 - 0.999f64.powi(t)))
            .collect();
        bcs.sort_by(f64::total_cmp);
        bcs.dedup();
        bcs
    }

    /// Lanes of `div_by_reciprocal_pd(a, b, RN(1/b))` whose bits differ
    /// from `a / b` (NaN lanes must both be NaN: Rust leaves NaN payloads
    /// unspecified).
    ///
    /// # Safety
    /// Requires AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn mismatches(a: [f64; 4], b: f64, y: f64) -> usize {
        let mut got = [0.0; 4];
        let q = div_by_reciprocal_pd(_mm256_loadu_pd(a.as_ptr()), _mm256_set1_pd(b), _mm256_set1_pd(y));
        _mm256_storeu_pd(got.as_mut_ptr(), q);
        let same = |g: f64, w: f64| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        a.iter().zip(got).filter(|&(&x, g)| !same(g, x / b)).count()
    }

    /// The exactness proof, checked: the hard dividends are those whose
    /// quotient sits next to a rounding midpoint `x + ½ulp(x)`, so for
    /// every default bias correction `b` this walks ±2 ulp around
    /// `(x + ½ulp(x))·b` for random `x` of both signs, plus random
    /// dividends across the whole guarded range. (Debug builds check a
    /// sample; release CI runs all ~124M.)
    #[test]
    fn reciprocal_quotient_is_correctly_rounded_for_every_default_bias_correction() {
        if !fma_available() {
            return;
        }
        let bcs = default_bias_corrections();
        assert_eq!(bcs.len(), 31_091);
        let (mids, randoms) = if cfg!(debug_assertions) { (4, 4) } else { (400, 40) };
        let mut state = 0x5eed_u64;
        let (mut checks, mut bad) = (0usize, 0usize);
        for &b in &bcs {
            let y = 1.0 / b;
            for _ in 0..mids {
                let x = random_float(&mut state, -700..700);
                let half_ulp = (f64::from_bits(x.to_bits() + 1) - x) * 0.5;
                let mid = (x * b + half_ulp * b).to_bits();
                let [n2, n1, n0, p1, p2] = [-2, -1, 0, 1, 2].map(|k| f64::from_bits(mid.wrapping_add_signed(k)));
                // SAFETY: AVX2 + FMA checked above.
                unsafe {
                    bad += mismatches([n2, n1, n0, p1], b, y);
                    bad += mismatches([p2, -n2, -n1, -n0], b, y);
                    bad += mismatches([-p1, -p2, x * b, -(x * b)], b, y);
                }
                checks += 12;
            }
            for _ in 0..randoms {
                let a = [0; 4].map(|_| {
                    let r = random_float(&mut state, -800..800);
                    if lcg(&mut state) & 1 == 0 { r } else { -r }
                });
                // SAFETY: AVX2 + FMA checked above.
                bad += unsafe { mismatches(a, b, y) };
                checks += 4;
            }
        }
        assert_eq!(bad, 0, "{bad} of {checks} quotients differ from a / b");
    }

    /// Lanes outside the guard (±0, subnormals, ±∞, NaN, |a| beyond
    /// [2⁻⁸⁰⁰, 2⁸⁰⁰]) take the true division, blended lane by lane with
    /// in-range neighbours.
    #[test]
    fn guarded_lanes_take_the_true_division() {
        if !fma_available() {
            return;
        }
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -2.2e-310,
            f64::MIN_POSITIVE,
            QUOTIENT_MIN,
            QUOTIENT_MIN * 0.75,
            QUOTIENT_MAX,
            QUOTIENT_MAX * 1.5,
            -1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for b in [0.1, 0.19, 0.271, 0.999, 1.0 - 0.999f64.powi(7), 1.0] {
            let y = 1.0 / b;
            for (i, &s) in specials.iter().enumerate() {
                let other = specials[(i * 5 + 3) % specials.len()];
                // SAFETY: AVX2 + FMA checked above.
                let bad = unsafe { mismatches([s, 0.37, other, -s], b, y) };
                assert_eq!(bad, 0, "a = {s:e}, b = {b}");
            }
        }
    }
}
