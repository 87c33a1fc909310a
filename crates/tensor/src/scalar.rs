//! Element precision for the tensor substrate.
//!
//! [`Scalar`] is the sealed trait behind the generic [`Matrix`] — it is
//! implemented for exactly `f64` (the training/evaluation precision, whose
//! kernel reduction orders are **pinned** for bitwise reproducibility) and
//! `f32` (the inference-only precision, which trades ~half the memory
//! bandwidth for a relative-error tolerance instead of bit equality).
//!
//! ## Pinned reduction orders
//!
//! Every parity proof in this workspace (`batch_parity`, `eval_parity`,
//! `fleet_parity`, grid stdout byte-identity) rests on the
//! f64 kernels performing IEEE-754 operations in a fixed order. The dot
//! kernel therefore uses a *per-precision* fixed lane count:
//!
//! * `f64`: 4 independent accumulator lanes (lane `j` sums `a[4k+j]·b[4k+j]`)
//!   reduced as `(l0+l2)+(l1+l3)`, scalar tail — exactly the `dot4` kernel
//!   every release since PR 1 has shipped.
//! * `f32`: 8 lanes (one AVX register width) reduced as
//!   `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`, scalar tail.
//!
//! The `simd` cargo feature (default-on, runtime-dispatched on AVX2
//! support) swaps in `core::arch` AVX2 variants of the dot kernels plus
//! the register-blocked micro-kernel layer in [`crate::microkernel`]: a
//! 2×4-output GEMM panel kernel for `A · Bᵀ` where every output keeps its
//! own pinned lane accumulator, and f64 AVX2 element-wise axpy and rank-4
//! sweeps (f32, inference-only, never reaches those sweeps outside tests
//! and keeps the portable tiles). All of them use separate multiply and add
//! instructions — FMA **never contracts a product into a sum**, which
//! would skip the product's rounding and change bits — and reduce
//! horizontally in the same pinned order, so enabling the feature is
//! observationally invisible: the f64 parity suites pass with it on or off
//! (asserted by `tests/precision_parity.rs`). FMA's one use is the exact
//! remainder `a − b·q` in the Adam step's constant-divisor quotient
//! ([`crate::Adam`]), whose result is the correctly rounded quotient — the
//! bits a division gives.
//!
//! [`Matrix`]: crate::Matrix

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Element precision of a [`Matrix`](crate::Matrix) / vector kernel.
///
/// Sealed: implemented for `f32` and `f64` only. The associated [`dot`]
/// kernel is the one place lane width differs per precision — everything
/// else in the substrate is width-generic element-wise code whose operation
/// order does not depend on `T`.
///
/// [`dot`]: Scalar::dot
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Default
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of this precision.
    const EPSILON: Self;
    /// Accumulator lanes in the pinned [`dot`](Scalar::dot) kernel.
    const LANES: usize;

    /// Lossy conversion from `f64` (rounds to nearest for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (exact for both precisions).
    fn to_f64(self) -> f64;
    /// Conversion from a count (used for means / averaging factors).
    fn from_usize(n: usize) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// IEEE-754 `max` (propagates the non-NaN operand).
    fn maxv(self, other: Self) -> Self;
    /// `clamp(self, lo, hi)` with the std float semantics.
    fn clampv(self, lo: Self, hi: Self) -> Self;
    /// `true` if neither infinite nor NaN.
    fn is_finite(self) -> bool;
    /// `e^self` (the std float `exp` of this precision).
    fn exp(self) -> Self;
    /// Hyperbolic tangent (the std float `tanh` of this precision).
    fn tanh(self) -> Self;

    /// Dot product with this precision's pinned lane order.
    ///
    /// Dispatches to the AVX2 variant when the `simd` feature is enabled
    /// and the CPU supports it; both paths are bitwise-identical.
    fn dot(a: &[Self], b: &[Self]) -> Self;

    /// In-place `y += alpha · x` — the row-sweep kernel of
    /// [`matmul_into`](crate::Matrix::matmul_into),
    /// [`matmul_transpose_a_acc`](crate::Matrix::matmul_transpose_a_acc)
    /// and [`matvec_t`](crate::Matrix::matvec_t).
    ///
    /// Element-wise, so vectorization cannot change the per-element
    /// operation order: f64's AVX2 override (under `simd`) is bitwise-equal
    /// to the portable [`axpy_tiled`], which f32 keeps.
    #[inline]
    fn axpy(alpha: Self, x: &[Self], y: &mut [Self]) {
        axpy_tiled(alpha, x, y);
    }

    /// Fused rank-4 row update `y += a0·r0 + a1·r1 + a2·r2 + a3·r3` — the
    /// register-blocked inner tile of [`matmul_into`](crate::Matrix::matmul_into).
    ///
    /// Per element the four `+=` happen in ascending-`k` order (same chain
    /// on every dispatch leg — see [`rank4_update_tiled`]).
    #[inline]
    fn rank4_update(a: [Self; 4], r0: &[Self], r1: &[Self], r2: &[Self], r3: &[Self], y: &mut [Self]) {
        rank4_update_tiled(a, r0, r1, r2, r3, y);
    }

    /// Register-blocked `out = A · Bᵀ` micro-kernel (`A` is `m×k`, `B` is
    /// `n×k`, both row-major).
    ///
    /// Returns `true` if a micro-kernel handled the product; `false` asks
    /// the caller to fall back to the portable per-element
    /// [`dot`](Scalar::dot) loop, so the runtime CPU check is hoisted to
    /// once per GEMM instead of once per output element. Every output
    /// element of the blocked path keeps its own pinned lane accumulator
    /// ([`crate::microkernel`]), so taking either path yields bitwise
    /// identical results.
    #[inline]
    fn gemm_tb_blocked(
        _a: &[Self],
        _b: &[Self],
        _out: &mut [Self],
        _m: usize,
        _n: usize,
        _k: usize,
    ) -> bool {
        false
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;
    const LANES: usize = 4;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_usize(n: usize) -> Self {
        n as f64
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline]
    fn maxv(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline]
    fn clampv(self, lo: Self, hi: Self) -> Self {
        f64::clamp(self, lo, hi)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        f64::tanh(self)
    }

    #[inline]
    fn dot(a: &[Self], b: &[Self]) -> Self {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if a.len() >= 4 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { x86::dot_f64_avx2(a, b) };
        }
        dot_pinned_f64(a, b)
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[inline]
    fn axpy(alpha: Self, x: &[Self], y: &mut [Self]) {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { crate::microkernel::axpy_f64_avx2(alpha, x, y) }
        } else {
            axpy_tiled(alpha, x, y);
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[inline]
    fn rank4_update(a: [Self; 4], r0: &[Self], r1: &[Self], r2: &[Self], r3: &[Self], y: &mut [Self]) {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { crate::microkernel::rank4_f64_avx2(a, r0, r1, r2, r3, y) }
        } else {
            rank4_update_tiled(a, r0, r1, r2, r3, y);
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[inline]
    fn gemm_tb_blocked(a: &[Self], b: &[Self], out: &mut [Self], m: usize, n: usize, k: usize) -> bool {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime; the shape
            // invariants are the caller's (matmul_transpose_b_into) asserts.
            unsafe { crate::microkernel::gemm_tb_f64_avx2(a, b, out, m, n, k) }
            true
        } else {
            false
        }
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;
    const LANES: usize = 8;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_usize(n: usize) -> Self {
        n as f32
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline]
    fn maxv(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline]
    fn clampv(self, lo: Self, hi: Self) -> Self {
        f32::clamp(self, lo, hi)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline]
    fn exp(self) -> Self {
        f32::exp(self)
    }
    #[inline]
    fn tanh(self) -> Self {
        f32::tanh(self)
    }

    #[inline]
    fn dot(a: &[Self], b: &[Self]) -> Self {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if a.len() >= 8 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { x86::dot_f32_avx2(a, b) };
        }
        dot_pinned_f32(a, b)
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[inline]
    fn gemm_tb_blocked(a: &[Self], b: &[Self], out: &mut [Self], m: usize, n: usize, k: usize) -> bool {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime; the shape
            // invariants are the caller's (matmul_transpose_b_into) asserts.
            unsafe { crate::microkernel::gemm_tb_f32_avx2(a, b, out, m, n, k) }
            true
        } else {
            false
        }
    }
}

/// `true` when this build carries the `simd` AVX2 kernel variants (they
/// still runtime-dispatch on CPU support). Lets downstream harnesses
/// record which kernel family produced a measurement.
#[must_use]
pub const fn simd_enabled() -> bool {
    cfg!(all(feature = "simd", target_arch = "x86_64"))
}

/// Four-lane f64 dot product — the pinned kernel behind every f64 parity
/// proof (identical to the `dot4` of PR 1).
///
/// Lane `j` accumulates `a[4k+j]·b[4k+j]`; the lanes reduce as
/// `(l0+l2)+(l1+l3)` and the tail is summed scalar, in order. Exposed
/// (rather than private) so the `simd` build can assert the intrinsic
/// path is bitwise-equal to this reference.
#[inline]
pub fn dot_pinned_f64(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    let (a_head, a_tail) = a.split_at(chunks * 4);
    let (b_head, b_tail) = b.split_at(chunks * 4);
    for (ca, cb) in a_head.chunks_exact(4).zip(b_head.chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut sum = (acc[0] + acc[2]) + (acc[1] + acc[3]);
    for (x, y) in a_tail.iter().zip(b_tail) {
        sum += x * y;
    }
    sum
}

/// Eight-lane f32 dot product — one AVX register of accumulators.
///
/// Lane `j` accumulates `a[8k+j]·b[8k+j]`; the lanes reduce as
/// `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` — the order a 256→128→64→32 bit
/// horizontal add produces — and the tail is summed scalar, in order.
#[inline]
pub fn dot_pinned_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    let (a_head, a_tail) = a.split_at(chunks * 8);
    let (b_head, b_tail) = b.split_at(chunks * 8);
    for (ca, cb) in a_head.chunks_exact(8).zip(b_head.chunks_exact(8)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
        acc[4] += ca[4] * cb[4];
        acc[5] += ca[5] * cb[5];
        acc[6] += ca[6] * cb[6];
        acc[7] += ca[7] * cb[7];
    }
    let mut sum = ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
    for (x, y) in a_tail.iter().zip(b_tail) {
        sum += x * y;
    }
    sum
}

/// AVX2 `core::arch` variants of the pinned dot kernels.
///
/// Both use separate `mul`/`add` instructions (FMA never contracts a
/// product into a sum: it skips the product's rounding and would change
/// bits) and horizontal-reduce in the exact order of the scalar reference,
/// so they are bitwise-identical to [`dot_pinned_f64`] / [`dot_pinned_f32`]
/// on every input.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_f64_avx2(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 4;
        let mut acc = _mm256_setzero_pd();
        for c in 0..chunks {
            let va = _mm256_loadu_pd(a.as_ptr().add(c * 4));
            let vb = _mm256_loadu_pd(b.as_ptr().add(c * 4));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
        }
        // Reduce [l0,l1,l2,l3] as (l0+l2)+(l1+l3) — the dot_pinned_f64 order.
        let lo = _mm256_castpd256_pd128(acc); // [l0, l1]
        let hi = _mm256_extractf128_pd::<1>(acc); // [l2, l3]
        let s = _mm_add_pd(lo, hi); // [l0+l2, l1+l3]
        let upper = _mm_unpackhi_pd(s, s);
        let mut sum = _mm_cvtsd_f64(_mm_add_sd(s, upper));
        for i in chunks * 4..n {
            sum += a[i] * b[i];
        }
        sum
    }

    /// # Safety
    /// Caller must ensure the CPU supports AVX2 and `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_f32_avx2(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let va = _mm256_loadu_ps(a.as_ptr().add(c * 8));
            let vb = _mm256_loadu_ps(b.as_ptr().add(c * 8));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        }
        // Reduce [l0..l7] as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) — the
        // dot_pinned_f32 order.
        let lo = _mm256_castps256_ps128(acc); // [l0, l1, l2, l3]
        let hi = _mm256_extractf128_ps::<1>(acc); // [l4, l5, l6, l7]
        let s = _mm_add_ps(lo, hi); // [l0+l4, l1+l5, l2+l6, l3+l7]
        let upper = _mm_movehl_ps(s, s); // [l2+l6, l3+l7, ...]
        let t = _mm_add_ps(s, upper); // [(l0+l4)+(l2+l6), (l1+l5)+(l3+l7), ..]
        let t1 = _mm_shuffle_ps::<0b01>(t, t); // lane 0 = t[1]
        let mut sum = _mm_cvtss_f32(_mm_add_ss(t, t1));
        for i in chunks * 8..n {
            sum += a[i] * b[i];
        }
        sum
    }
}

/// Tiled in-place `y += alpha · x`, the row-sweep kernel behind
/// [`matmul_into`](crate::Matrix::matmul_into),
/// [`matmul_transpose_a_acc`](crate::Matrix::matmul_transpose_a_acc) and
/// [`matvec_t`](crate::Matrix::matvec_t).
///
/// The body is an explicit 8-wide unrolled head plus scalar tail. Each
/// output element still receives exactly one `+= alpha·x[j]` — the tiling
/// changes *which instructions* the compiler emits (clean 256-bit
/// autovectorization for both precisions), never the per-element operation
/// order, so the f64 instantiation is bitwise-identical to the naive loop.
///
/// Public as the frozen portable reference the `simd` AVX2 override
/// ([`Scalar::axpy`]) is asserted bitwise-equal against.
#[inline]
pub fn axpy_tiled<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    let chunks = x.len() / 8;
    let (xh, xt) = x.split_at(chunks * 8);
    let (yh, yt) = y.split_at_mut(chunks * 8);
    for (yc, xc) in yh.chunks_exact_mut(8).zip(xh.chunks_exact(8)) {
        yc[0] += alpha * xc[0];
        yc[1] += alpha * xc[1];
        yc[2] += alpha * xc[2];
        yc[3] += alpha * xc[3];
        yc[4] += alpha * xc[4];
        yc[5] += alpha * xc[5];
        yc[6] += alpha * xc[6];
        yc[7] += alpha * xc[7];
    }
    for (o, &v) in yt.iter_mut().zip(xt) {
        *o += alpha * v;
    }
}

/// Fused rank-4 row update `y += a0·r0 + a1·r1 + a2·r2 + a3·r3`, the
/// register-blocked inner tile of [`matmul_into`](crate::Matrix::matmul_into).
///
/// Per element `j` the four `+=` happen in ascending-`k` order — the same
/// operation sequence as four consecutive [`axpy_tiled`] sweeps — so the
/// blocking only buys register reuse (the output row is loaded and stored
/// once per four `k` instead of once per `k`), never a different result.
///
/// Public as the frozen portable reference for [`Scalar::rank4_update`].
#[inline]
pub fn rank4_update_tiled<T: Scalar>(
    a: [T; 4],
    r0: &[T],
    r1: &[T],
    r2: &[T],
    r3: &[T],
    y: &mut [T],
) {
    let n = y.len();
    assert!(r0.len() == n && r1.len() == n && r2.len() == n && r3.len() == n);
    for j in 0..n {
        let mut t = y[j];
        t += a[0] * r0[j];
        t += a[1] * r1[j];
        t += a[2] * r2[j];
        t += a[3] * r3[j];
        y[j] = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_f64(n: usize, salt: u64) -> Vec<f64> {
        let mut state = salt.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn dot_pinned_f64_matches_legacy_reduction_order() {
        // Hand-computed against the documented lane order on a length that
        // exercises both the 4-wide head and the scalar tail.
        let a: Vec<f64> = (0..7).map(|i| (i + 1) as f64).collect();
        let b: Vec<f64> = (0..7).map(|i| (7 - i) as f64).collect();
        let lanes: [f64; 4] = [1.0 * 7.0, 2.0 * 6.0, 3.0 * 5.0, 4.0 * 4.0];
        let mut expect = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
        expect += 5.0 * 3.0;
        expect += 6.0 * 2.0;
        expect += 7.0 * 1.0;
        assert_eq!(dot_pinned_f64(&a, &b).to_bits(), expect.to_bits());
    }

    #[test]
    fn trait_dot_is_the_pinned_kernel() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 129] {
            let a = series_f64(n, 1);
            let b = series_f64(n, 2);
            assert_eq!(
                <f64 as Scalar>::dot(&a, &b).to_bits(),
                dot_pinned_f64(&a, &b).to_bits(),
                "f64 dot dispatch must stay bitwise-pinned at n={n}",
            );
            let af: Vec<f32> = a.iter().map(|&v| v as f32).collect();
            let bf: Vec<f32> = b.iter().map(|&v| v as f32).collect();
            assert_eq!(
                <f32 as Scalar>::dot(&af, &bf).to_bits(),
                dot_pinned_f32(&af, &bf).to_bits(),
                "f32 dot dispatch must stay bitwise-pinned at n={n}",
            );
        }
    }

    #[test]
    fn axpy_tiled_is_bitwise_naive() {
        for n in [0usize, 1, 7, 8, 9, 23, 64, 100] {
            let x = series_f64(n, 3);
            let mut y = series_f64(n, 4);
            let mut y_ref = y.clone();
            let alpha = 0.37;
            axpy_tiled(alpha, &x, &mut y);
            for (o, &v) in y_ref.iter_mut().zip(&x) {
                *o += alpha * v;
            }
            assert_eq!(
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn rank4_update_tiled_is_four_sequential_axpys() {
        for n in [1usize, 5, 8, 13, 32] {
            let r: Vec<Vec<f64>> = (0..4).map(|s| series_f64(n, 10 + s)).collect();
            let a = [0.5, -1.25, 0.0, 3.5];
            let mut y = series_f64(n, 20);
            let mut y_ref = y.clone();
            rank4_update_tiled(a, &r[0], &r[1], &r[2], &r[3], &mut y);
            for (t, alpha) in a.iter().enumerate() {
                for (o, &v) in y_ref.iter_mut().zip(&r[t]) {
                    *o += alpha * v;
                }
            }
            assert_eq!(
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
        }
    }
}
