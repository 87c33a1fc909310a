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
//! f64 kernels performing IEEE-754 operations in a fixed order. The one
//! dot kernel, [`dot_pinned`], takes its lane count from
//! [`Scalar::LANES`], the one place the width lives: lane `j` sums
//! `a[L·c+j]·b[L·c+j]` for ascending `c`, the lanes reduce by halving
//! (lane `j` takes lane `j + L/2` until one is left), and the tail is
//! summed in order.
//!
//! * `f64`: 4 lanes, reduced as `(l0+l2)+(l1+l3)` — exactly the `dot4`
//!   kernel every release has shipped.
//! * `f32`: 8 lanes (one AVX register width), reduced as
//!   `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`.
//!
//! The `simd` cargo feature (default-on, runtime-dispatched on AVX2
//! support) swaps in the crate-private `microkernel` module: one AVX2 dot
//! and one register-blocked 2×4-output `A · Bᵀ` panel, each written once
//! for both precisions over a lane trait (`__m256d` / `__m256`), plus f64
//! AVX2 axpy and rank-4 sweeps (f32, inference-only, keeps the portable
//! tiles). All of them use separate multiply and add instructions — FMA
//! **never contracts a product into a sum**, which would skip the
//! product's rounding and change bits — and reduce in the same pinned
//! order, so enabling the feature is observationally invisible
//! (`tests/precision_parity.rs`). FMA's one use is the exact remainder
//! `a − b·q` in the Adam step's constant-divisor quotient
//! ([`crate::Adam`]), whose result is the correctly rounded quotient — the
//! bits a division gives.
//!
//! The [`Scalar`] kernel methods are the safe entry points to that
//! `unsafe` code: each checks the operand lengths it trusts, once per
//! call, before dispatching.
//!
//! [`Matrix`]: crate::Matrix

use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

mod sealed {
    /// Under `simd`, a [`Scalar`](super::Scalar) is also a register lane of
    /// the AVX2 kernels, so their one generic body serves both precisions.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    pub trait Sealed: crate::microkernel::Lane {}
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Element precision of a [`Matrix`](crate::Matrix) / vector kernel.
///
/// Sealed: implemented for `f32` and `f64` only. [`Scalar::LANES`] is the
/// one place lane width differs per precision — the [`dot`] kernel and the
/// `A · Bᵀ` panel read it; everything else in the substrate is
/// width-generic element-wise code whose operation order does not depend
/// on `T`.
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
    /// Accumulator lanes of the pinned [`dot`](Scalar::dot) kernel and of
    /// the `A · Bᵀ` panel: 4 for `f64`, 8 for `f32`.
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

    /// Dot product with this precision's pinned lane order ([`dot_pinned`]).
    ///
    /// Dispatches to the AVX2 kernel when the `simd` feature is enabled
    /// and the CPU supports it; both paths are bitwise-identical.
    ///
    /// # Panics
    /// Panics if `a.len() != b.len()`.
    #[inline]
    fn dot(a: &[Self], b: &[Self]) -> Self {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if a.len() >= Self::LANES && std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(a.len(), b.len(), "dot length mismatch");
            // SAFETY: AVX2 support was just verified at runtime, and the
            // lengths match.
            return unsafe { crate::microkernel::dot_avx2(a.as_ptr(), b.as_ptr(), a.len()) };
        }
        dot_pinned(a, b)
    }

    /// In-place `y += alpha · x` — the row-sweep kernel of
    /// [`matmul_into`](crate::Matrix::matmul_into),
    /// [`matmul_transpose_a_acc`](crate::Matrix::matmul_transpose_a_acc)
    /// and [`matvec_t`](crate::Matrix::matvec_t).
    ///
    /// Element-wise, so vectorization cannot change the per-element
    /// operation order: f64's AVX2 override (under `simd`) is bitwise-equal
    /// to the portable [`axpy_tiled`], which f32 keeps.
    ///
    /// # Panics
    /// Panics if `x.len() != y.len()`.
    #[inline]
    fn axpy(alpha: Self, x: &[Self], y: &mut [Self]) {
        axpy_tiled(alpha, x, y);
    }

    /// Fused rank-4 row update `y += a0·r0 + a1·r1 + a2·r2 + a3·r3` — the
    /// register-blocked inner tile of [`matmul_into`](crate::Matrix::matmul_into).
    ///
    /// Per element the four `+=` happen in ascending-`k` order (same chain
    /// on every dispatch leg — see [`rank4_update_tiled`]).
    ///
    /// # Panics
    /// Panics unless every row has `y.len()` elements.
    #[inline]
    fn rank4_update(a: [Self; 4], r0: &[Self], r1: &[Self], r2: &[Self], r3: &[Self], y: &mut [Self]) {
        rank4_update_tiled(a, r0, r1, r2, r3, y);
    }

    /// Register-blocked `out = A · Bᵀ` micro-kernel (`A` is `m×k`, `B` is
    /// `n×k`, both row-major).
    ///
    /// Returns `true` if the AVX2 panel kernel handled the product; `false`
    /// asks the caller to fall back to the portable per-element
    /// [`dot`](Scalar::dot) loop, so the runtime CPU check is hoisted to
    /// once per GEMM instead of once per output element. Every output
    /// element of the blocked path keeps its own pinned lane accumulator,
    /// so taking either path yields bitwise identical results.
    ///
    /// # Panics
    /// Panics unless `a.len() == m·k`, `b.len() == n·k` and
    /// `out.len() == m·n`.
    #[inline]
    fn gemm_tb_blocked(a: &[Self], b: &[Self], out: &mut [Self], m: usize, n: usize, k: usize) -> bool {
        let fits = a.len() == m * k && b.len() == n * k && out.len() == m * n;
        assert!(fits, "gemm_tb_blocked shape mismatch: {m}x{k} * ({n}x{k})^T");
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime, and the
            // shapes above.
            unsafe { crate::microkernel::gemm_tb_avx2(a, b, out, m, n, k) };
            return true;
        }
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

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[inline]
    fn axpy(alpha: Self, x: &[Self], y: &mut [Self]) {
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(x.len(), y.len(), "axpy length mismatch");
            // SAFETY: AVX2 support was just verified at runtime, and the
            // lengths match.
            unsafe { crate::microkernel::axpy_f64_avx2(alpha, x, y) }
        } else {
            axpy_tiled(alpha, x, y);
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[inline]
    fn rank4_update(a: [Self; 4], r0: &[Self], r1: &[Self], r2: &[Self], r3: &[Self], y: &mut [Self]) {
        if std::arch::is_x86_feature_detected!("avx2") {
            let n = y.len();
            assert!(
                r0.len() == n && r1.len() == n && r2.len() == n && r3.len() == n,
                "rank4_update row length mismatch"
            );
            // SAFETY: AVX2 support was just verified at runtime, and every
            // row has `y.len()` elements.
            unsafe { crate::microkernel::rank4_f64_avx2(a, r0, r1, r2, r3, y) }
        } else {
            rank4_update_tiled(a, r0, r1, r2, r3, y);
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
}

/// `true` when this build carries the `simd` AVX2 kernel variants (they
/// still runtime-dispatch on CPU support). Lets downstream harnesses
/// record which kernel family produced a measurement.
#[must_use]
pub const fn simd_enabled() -> bool {
    cfg!(all(feature = "simd", target_arch = "x86_64"))
}

/// Accumulator lanes of the widest precision (`f32`).
const MAX_LANES: usize = 8;

/// The pinned dot product — the kernel behind every parity proof.
///
/// With `L = T::LANES`, lane `j` accumulates `a[L·c+j]·b[L·c+j]` for
/// ascending `c`; the lanes reduce by halving (lane `j` takes lane
/// `j + L/2` until one is left), which is `(l0+l2)+(l1+l3)` for `f64` (the
/// original `dot4`) and `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` for `f32`
/// (the order a 256→128→64→32 bit horizontal add produces); the tail is
/// summed in order. Exposed (rather than private) so the `simd` build can
/// assert the intrinsic path is bitwise-equal to it.
///
/// # Panics
/// Panics if `a.len() != b.len()`.
#[inline]
pub fn dot_pinned<T: Scalar>(a: &[T], b: &[T]) -> T {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let lanes = const {
        assert!(T::LANES.is_power_of_two() && T::LANES <= MAX_LANES);
        T::LANES
    };
    let head = a.len() / lanes * lanes;
    let mut acc = [T::ZERO; MAX_LANES];
    for (ca, cb) in a[..head].chunks_exact(lanes).zip(b[..head].chunks_exact(lanes)) {
        for j in 0..lanes {
            acc[j] += ca[j] * cb[j];
        }
    }
    let mut width = lanes;
    while width > 1 {
        width /= 2;
        for j in 0..width {
            acc[j] += acc[j + width];
        }
    }
    let mut sum = acc[0];
    for (&x, &y) in a[head..].iter().zip(&b[head..]) {
        sum += x * y;
    }
    sum
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
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
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
    assert!(
        r0.len() == n && r1.len() == n && r2.len() == n && r3.len() == n,
        "rank4_update row length mismatch"
    );
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
        assert_eq!(dot_pinned(&a, &b).to_bits(), expect.to_bits());
    }

    #[test]
    fn dot_pinned_f32_matches_documented_reduction_order() {
        // Length 11: one 8-lane head plus a 3-element tail. Lanes 0 and 4
        // cancel, so the pinned order keeps every small lane that a
        // sequential sum absorbs into 1e8 (f32 spacing 8 there).
        let a: [f32; 11] = [1e8, 1.0, 2.0, 3.0, -1e8, 5.0, 6.0, 7.0, 0.5, 0.25, 3.0];
        let b = [1.0f32; 11];
        let mut expect = ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]));
        expect += 0.5;
        expect += 0.25;
        expect += 3.0;
        assert_eq!(expect, 27.75);
        let sequential = a.iter().fold(0.0f32, |s, &x| s + x);
        assert_ne!(sequential.to_bits(), expect.to_bits(), "the case must pin the order");
        assert_eq!(dot_pinned(&a, &b).to_bits(), expect.to_bits());
        assert_eq!(<f32 as Scalar>::dot(&a, &b).to_bits(), expect.to_bits());
    }

    #[test]
    fn trait_dot_is_the_pinned_kernel() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 129] {
            let a = series_f64(n, 1);
            let b = series_f64(n, 2);
            assert_eq!(
                <f64 as Scalar>::dot(&a, &b).to_bits(),
                dot_pinned(&a, &b).to_bits(),
                "f64 dot dispatch must stay bitwise-pinned at n={n}",
            );
            let af: Vec<f32> = a.iter().map(|&v| v as f32).collect();
            let bf: Vec<f32> = b.iter().map(|&v| v as f32).collect();
            assert_eq!(
                <f32 as Scalar>::dot(&af, &bf).to_bits(),
                dot_pinned(&af, &bf).to_bits(),
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

    // The safe kernel entry points check the lengths their AVX2 bodies
    // trust before dispatching, on every build.

    #[test]
    #[should_panic(expected = "dot length mismatch")]
    fn dot_rejects_b_shorter_than_a() {
        <f64 as Scalar>::dot(&[1.0; 64], &[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "gemm_tb_blocked shape mismatch")]
    fn gemm_tb_blocked_rejects_operands_shorter_than_their_shape() {
        f64::gemm_tb_blocked(&[1.0; 8], &[1.0; 8], &mut [0.0; 4], 2, 2, 64);
    }

    #[test]
    #[should_panic(expected = "rank4_update row length mismatch")]
    fn rank4_update_rejects_a_row_shorter_than_y() {
        let row = [1.0; 64];
        f64::rank4_update([1.0; 4], &row, &row, &row[..4], &row, &mut [0.0; 64]);
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn axpy_rejects_x_shorter_than_y() {
        f64::axpy(1.0, &[1.0; 4], &mut [0.0; 64]);
    }
}
