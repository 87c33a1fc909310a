//! Precision parity for the generic tensor substrate.
//!
//! Two families of guarantees, proven against *frozen reference
//! implementations* written in the pre-tiling per-element order:
//!
//! 1. **f64 is bitwise pinned.** Every tiled/blocked kernel — and, under
//!    `--features simd`, every AVX2 variant behind it — must reproduce the
//!    legacy scalar semantics bit for bit: the 4-lane pinned dot
//!    reduction, ascending-`k` `+=` accumulation, and the `a == 0.0`
//!    skip (which processes NaN but skips `-0.0`, exactly as before).
//!    Inputs deliberately include exact zeros, negative zeros and
//!    denormal-ish magnitudes.
//! 2. **f32 tracks f64 within stated tolerance.** The same kernels
//!    instantiated at `f32` agree with the f64 result to f32 relative
//!    accuracy — the contract the inference-plan serving path relies on.
//!
//! Shapes sweep every tile boundary: the 4-wide k-block and 8-wide lane
//! tiles at size−1 / size / size+1, plus degenerate 1×N and N×1.
//!
//! The Adam step is held to the same standard: whichever path
//! `Adam::step_segment` dispatches to (the AVX2+FMA reciprocal kernel or
//! the portable loop) must reproduce a frozen copy of the three-division
//! loop bit for bit, through t = 355 where `1 − 0.9^t` reaches 1.0.

use proptest::prelude::*;
use sad_tensor::{
    axpy_tiled, dot_pinned_f32, dot_pinned_f64, rank4_update_tiled, sq_dist_accum_tiled, Adam,
    Matrix, Optimizer, Scalar,
};

// ---------------------------------------------------------------------------
// Frozen legacy references (pre-tiling semantics, f64 only).
// ---------------------------------------------------------------------------

/// Legacy `matmul`: ikj loops, ascending-`k` `+=` per element, skipping
/// `a[i][k] == 0.0` rows of the inner update.
fn ref_matmul(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    let (m, kk) = a.shape();
    let n = b.cols();
    let mut out = Matrix::<f64>::zeros(m, n);
    for i in 0..m {
        for k in 0..kk {
            let av = a.row(i)[k];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out.row_mut(i)[j] += av * b.row(k)[j];
            }
        }
    }
    out
}

/// Legacy `matmul_transpose_a_acc`: `out[k][j] += a[i][k] · rhs[i][j]`,
/// ascending `i`, skipping `a[i][k] == 0.0`.
fn ref_matmul_transpose_a_acc(a: &Matrix<f64>, rhs: &Matrix<f64>, out: &mut Matrix<f64>) {
    let (m, kk) = a.shape();
    let n = rhs.cols();
    for i in 0..m {
        for k in 0..kk {
            let av = a.row(i)[k];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out.row_mut(k)[j] += av * rhs.row(i)[j];
            }
        }
    }
}

/// Legacy `matmul_transpose_b`: one pinned 4-lane dot per output element.
fn ref_matmul_transpose_b(a: &Matrix<f64>, rhs: &Matrix<f64>) -> Matrix<f64> {
    let m = a.rows();
    let n = rhs.rows();
    let mut out = Matrix::<f64>::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            out.row_mut(i)[j] = dot_pinned_f64(a.row(i), rhs.row(j));
        }
    }
    out
}

/// Legacy `matvec`: pinned dot per row.
fn ref_matvec(a: &Matrix<f64>, v: &[f64]) -> Vec<f64> {
    (0..a.rows()).map(|i| dot_pinned_f64(a.row(i), v)).collect()
}

/// Legacy `matvec_t`: `out[j] += v[i] · a[i][j]`, ascending `i`, skipping
/// `v[i] == 0.0`.
fn ref_matvec_t(a: &Matrix<f64>, v: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.cols()];
    for (i, &vi) in v.iter().enumerate().take(a.rows()) {
        if vi == 0.0 {
            continue;
        }
        for (o, &x) in out.iter_mut().zip(a.row(i)) {
            *o += vi * x;
        }
    }
    out
}

/// Legacy Adam state: default betas and ε, moments sized on creation.
struct RefAdam {
    lr: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: i32,
}

/// Legacy `Adam::step`: bias corrections from `powi`, then per parameter
/// the moment updates, three divisions and one square root.
fn ref_adam_step(s: &mut RefAdam, params: &mut [f64], grads: &[f64]) {
    let (beta1, beta2, eps) = (0.9f64, 0.999f64, 1e-8);
    s.t += 1;
    let bc1 = 1.0 - beta1.powi(s.t);
    let bc2 = 1.0 - beta2.powi(s.t);
    for i in 0..params.len() {
        let g = grads[i];
        s.m[i] = beta1 * s.m[i] + (1.0 - beta1) * g;
        s.v[i] = beta2 * s.v[i] + (1.0 - beta2) * g * g;
        let m_hat = s.m[i] / bc1;
        let v_hat = s.v[i] / bc2;
        params[i] -= s.lr * m_hat / (v_hat.sqrt() + eps);
    }
}

// ---------------------------------------------------------------------------
// Deterministic fills. The LCG stream plants exact 0.0 / -0.0 every few
// elements so the zero-skip fast paths and all-nonzero block path both get
// exercised at every shape.
// ---------------------------------------------------------------------------

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

fn fill_value(state: &mut u64) -> f64 {
    let r = lcg(state);
    match r % 8 {
        0 => 0.0,
        1 => -0.0,
        _ => (r % 2000) as f64 / 211.0 - 4.5,
    }
}

fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| fill_value(&mut state))
}

fn vector(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0xd1b54a32d192ed03).wrapping_add(3);
    (0..len).map(|_| fill_value(&mut state)).collect()
}

fn assert_bits_eq(got: &Matrix<f64>, want: &Matrix<f64>, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}: {g} vs {w}");
    }
}

fn assert_vec_bits_eq(got: &[f64], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}: {g} vs {w}");
    }
}

/// Dimensions straddling every tile boundary: the 4-wide k block, the
/// 8-wide lane tile, and the 2-row × 4-column GEMM panel of the `simd`
/// micro-kernel at −1/exact/+1 (2 and 6 pin the `n % 4 == 2` column
/// remainder; odd values pin the trailing-row path), plus 1 (degenerate
/// row/column shapes arise from the cross product).
const DIMS: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17];

// ---------------------------------------------------------------------------
// 1. Bitwise f64 parity, exhaustive over tile-boundary shapes.
// ---------------------------------------------------------------------------

#[test]
fn matmul_matches_legacy_bitwise_at_tile_boundaries() {
    for &m in DIMS {
        for &k in DIMS {
            for &n in DIMS {
                let a = matrix(m, k, (m * 1000 + k * 10 + n) as u64);
                let b = matrix(k, n, (n * 777 + k) as u64);
                let ctx = format!("matmul {m}x{k}x{n}");
                assert_bits_eq(&a.matmul(&b), &ref_matmul(&a, &b), &ctx);
                let mut out = Matrix::<f64>::filled(m, n, 3.25);
                a.matmul_into(&b, &mut out);
                assert_bits_eq(&out, &ref_matmul(&a, &b), &format!("{ctx} (into)"));
            }
        }
    }
}

#[test]
fn matmul_transpose_a_matches_legacy_bitwise_at_tile_boundaries() {
    for &m in DIMS {
        for &k in DIMS {
            for &n in DIMS {
                let a = matrix(m, k, (m * 31 + k * 7 + n) as u64);
                let rhs = matrix(m, n, (m + n * 13) as u64);
                let ctx = format!("matmul_transpose_a {m}x{k}x{n}");
                let mut got = matrix(k, n, 99).scale(0.5);
                let mut want = got.clone();
                a.matmul_transpose_a_acc(&rhs, &mut got);
                ref_matmul_transpose_a_acc(&a, &rhs, &mut want);
                assert_bits_eq(&got, &want, &format!("{ctx} (acc)"));
                let mut zero_acc = Matrix::<f64>::zeros(k, n);
                ref_matmul_transpose_a_acc(&a, &rhs, &mut zero_acc);
                assert_bits_eq(&a.matmul_transpose_a(&rhs), &zero_acc, &ctx);
            }
        }
    }
}

#[test]
fn matmul_transpose_b_matches_legacy_bitwise_at_tile_boundaries() {
    for &m in DIMS {
        for &k in DIMS {
            for &n in DIMS {
                let a = matrix(m, k, (m * 5 + k + n * 11) as u64);
                let rhs = matrix(n, k, (k * 3 + n) as u64);
                let ctx = format!("matmul_transpose_b {m}x{k}x{n}");
                let want = ref_matmul_transpose_b(&a, &rhs);
                assert_bits_eq(&a.matmul_transpose_b(&rhs), &want, &ctx);
                let mut out = Matrix::<f64>::filled(m, n, -7.5);
                a.matmul_transpose_b_into(&rhs, &mut out);
                assert_bits_eq(&out, &want, &format!("{ctx} (into)"));
            }
        }
    }
}

#[test]
fn matvec_kernels_match_legacy_bitwise_at_tile_boundaries() {
    for &m in DIMS {
        for &n in DIMS {
            let a = matrix(m, n, (m * 100 + n) as u64);
            let v = vector(n, (m + n) as u64);
            assert_vec_bits_eq(&a.matvec(&v), &ref_matvec(&a, &v), &format!("matvec {m}x{n}"));
            let vt = vector(m, (m * 2 + n) as u64);
            assert_vec_bits_eq(
                &a.matvec_t(&vt),
                &ref_matvec_t(&a, &vt),
                &format!("matvec_t {m}x{n}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 1b. The f32 GEMM is pinned too: whatever dispatch leg runs, every output
//     element must be exactly one 8-lane `dot_pinned_f32` — the contract
//     that makes `Mlp<f32>` serving snapshots reproducible across builds.
//     (The f64 suite above proves the same for the 4-lane layout.)
// ---------------------------------------------------------------------------

fn matrix_f32(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
    Matrix::<f32>::from_precision(&matrix(rows, cols, seed))
}

fn assert_bits_eq_f32(got: &Matrix<f32>, want: &Matrix<f32>, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i}: {g} vs {w}");
    }
}

/// Frozen f32 `matmul_transpose_b`: one pinned 8-lane dot per element.
fn ref_matmul_transpose_b_f32(a: &Matrix<f32>, rhs: &Matrix<f32>) -> Matrix<f32> {
    let mut out = Matrix::<f32>::zeros(a.rows(), rhs.rows());
    for i in 0..a.rows() {
        for j in 0..rhs.rows() {
            out.row_mut(i)[j] = dot_pinned_f32(a.row(i), rhs.row(j));
        }
    }
    out
}

#[test]
fn f32_matmul_transpose_b_is_pinned_8_lane_at_tile_boundaries() {
    for &m in DIMS {
        for &k in DIMS {
            for &n in DIMS {
                let a = matrix_f32(m, k, (m * 5 + k + n * 11) as u64);
                let rhs = matrix_f32(n, k, (k * 3 + n) as u64);
                let want = ref_matmul_transpose_b_f32(&a, &rhs);
                let mut out = Matrix::<f32>::filled(m, n, -7.5);
                a.matmul_transpose_b_into(&rhs, &mut out);
                assert_bits_eq_f32(&out, &want, &format!("f32 gemm_tb {m}x{k}x{n}"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 1c. Dispatching element-wise kernels (`Scalar::axpy` / `rank4_update` /
//     `sq_dist_accum`) are bitwise-equal to the frozen portable tiles on
//     whatever leg this build runs.
// ---------------------------------------------------------------------------

#[test]
fn dispatched_axpy_and_rank4_match_portable_tiles_bitwise() {
    for &n in DIMS {
        for &len in &[1usize, 4, 7, 8, 9, 31, 64, 129] {
            let seed = (n * 1000 + len) as u64;
            let x = vector(len, seed);
            let alpha = fill_value(&mut { seed.wrapping_mul(77).wrapping_add(5) });
            let mut got = vector(len, seed ^ 0x5a5a);
            let mut want = got.clone();
            f64::axpy(alpha, &x, &mut got);
            axpy_tiled(alpha, &x, &mut want);
            assert_vec_bits_eq(&got, &want, &format!("axpy len={len}"));

            let r: Vec<Vec<f64>> = (0..4).map(|s| vector(len, seed + 100 + s as u64)).collect();
            let coeffs = [alpha, -alpha, 0.0, fill_value(&mut { seed ^ 0x33 })];
            let mut got4 = vector(len, seed ^ 0xbeef);
            let mut want4 = got4.clone();
            f64::rank4_update(coeffs, &r[0], &r[1], &r[2], &r[3], &mut got4);
            rank4_update_tiled(coeffs, &r[0], &r[1], &r[2], &r[3], &mut want4);
            assert_vec_bits_eq(&got4, &want4, &format!("rank4 len={len}"));
        }
    }
}

#[test]
fn dispatched_sq_dist_sweep_matches_portable_and_sequential_sums_bitwise() {
    for &dim in DIMS {
        for &m in &[1usize, 2, 5, 8, 9, 16, 33, 100] {
            // Transposed snapshot: feature j of reference c at refs[j][c].
            let refs: Vec<Vec<f64>> = (0..dim).map(|j| vector(m, (dim * 31 + j) as u64)).collect();
            let x = vector(dim, (dim + m * 7) as u64);
            let mut got = vec![0.0; m];
            let mut want = vec![0.0; m];
            for (j, &xj) in x.iter().enumerate() {
                f64::sq_dist_accum(xj, &refs[j], &mut got);
                sq_dist_accum_tiled(xj, &refs[j], &mut want);
            }
            assert_vec_bits_eq(&got, &want, &format!("sq_dist dim={dim} m={m}"));
            // The sweep reproduces the legacy per-point sequential sum.
            for c in 0..m {
                let seq: f64 =
                    x.iter().enumerate().map(|(j, &xj)| (xj - refs[j][c]) * (xj - refs[j][c])).sum();
                assert_eq!(
                    got[c].to_bits(),
                    seq.to_bits(),
                    "sq_dist dim={dim} m={m} ref {c}: sweep {} vs sequential {seq}",
                    got[c],
                );
            }
        }
    }
}

/// Gradients that stay finite but leave the quotient kernel's guarded
/// range: zeros (which also keep `m` at ±0), subnormals and 1e±300
/// (whose square overflows or underflows `v`).
const ADAM_EDGE_GRADS: &[f64] = &[0.0, -0.0, 5e-324, -1.1e-310, 1e300, -1e300, 1e-300, -1e-300];

/// One Adam gradient: mostly magnitudes 1e-8..1e2 of either sign; an
/// edge value one time in `edge_one_in` (never when it is 0).
fn adam_grad(state: &mut u64, edge_one_in: u64) -> f64 {
    let r = lcg(state);
    if edge_one_in > 0 && r.is_multiple_of(edge_one_in) {
        return ADAM_EDGE_GRADS[(lcg(state) % ADAM_EDGE_GRADS.len() as u64) as usize];
    }
    let mag = 10f64.powi((lcg(state) % 11) as i32 - 8);
    let x = (lcg(state) % 1999) as f64 / 1000.0 - 0.999;
    x * mag
}

/// Bits equal, or both NaN (Rust does not pin NaN payloads).
fn assert_adam_params_eq(got: &[f64], want: &[f64], ctx: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{ctx}: param {i}: {g:e} vs {w:e}",
        );
    }
}

/// Steps `Adam` (through `step_segment` over the segments cut at `cuts`)
/// and the frozen reference side by side for `steps` steps on gradients
/// from `adam_grad`, comparing every parameter after every step. At step
/// `poison.0` gradient `poison.1 % len` becomes `poison.2` (±∞ or NaN).
fn assert_adam_tracks_reference(
    len: usize,
    cuts: &[usize],
    steps: usize,
    seed: u64,
    edge_one_in: u64,
    poison: (usize, usize, f64),
) {
    let mut opt = Adam::new(1e-3);
    let mut reference = RefAdam { lr: 1e-3, m: vec![0.0; len], v: vec![0.0; len], t: 0 };
    let mut params = vector(len, seed);
    let mut want = params.clone();
    let mut state = seed.wrapping_mul(0x2545f4914f6cdd1d).wrapping_add(7);
    let mut grads = vec![0.0; len];
    for step in 1..=steps {
        for g in grads.iter_mut() {
            *g = adam_grad(&mut state, edge_one_in);
        }
        if step == poison.0 && len > 0 {
            grads[poison.1 % len] = poison.2;
        }
        opt.begin_step(len);
        let mut start = 0;
        for &end in cuts.iter().chain([&len]) {
            opt.step_segment(start, &mut params[start..end], &grads[start..end]);
            start = end;
        }
        ref_adam_step(&mut reference, &mut want, &grads);
        assert_adam_params_eq(&params, &want, &format!("len {len} cuts {cuts:?} t={step}"));
    }
}

/// The churn AE's parameter count, 400 steps: the dispatched step stays
/// on the legacy trajectory through t = 355, where `bc₁` becomes 1.0.
#[test]
fn adam_step_matches_legacy_bitwise_at_churn_ae_size() {
    assert_adam_tracks_reference(18_097, &[8_930, 8_977, 17_907], 400, 42, 0, (0, 0, 0.0));
}

// ---------------------------------------------------------------------------
// 2. Property tests: random shapes and values (with planted 0.0 / -0.0),
//    f64 bitwise vs reference and f32 within tolerance of f64.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn prop_matmul_is_bitwise_legacy(
        m in 1usize..=12,
        k in 1usize..=12,
        n in 1usize..=12,
        seed in 0u64..100000,
    ) {
        // `matrix` plants exact 0.0 / -0.0 in ~1/4 of entries, so the
        // zero-skip and all-nonzero block paths both arise at random.
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 0xabcdef);
        assert_bits_eq(&a.matmul(&b), &ref_matmul(&a, &b), "prop matmul");
        let rhs = matrix(n, k, seed ^ 0x1234);
        assert_bits_eq(
            &a.matmul_transpose_b(&rhs),
            &ref_matmul_transpose_b(&a, &rhs),
            "prop matmul_transpose_b",
        );
        let lhs = matrix(m, n, seed ^ 0x77);
        let mut got = matrix(k, n, seed ^ 0x99);
        let mut want = got.clone();
        a.matmul_transpose_a_acc(&lhs, &mut got);
        ref_matmul_transpose_a_acc(&a, &lhs, &mut want);
        assert_bits_eq(&got, &want, "prop matmul_transpose_a_acc");
    }

    /// `Adam::step_segment` against the frozen three-division loop at
    /// every length 0–67 (every `n % 4` tail), split into up to three
    /// segments at random offsets, over 400 steps (across t = 355), with
    /// edge gradients (±0, subnormals, 1e±300) at a random rate and one
    /// planted ±∞ or NaN.
    #[test]
    fn prop_adam_step_is_bitwise_legacy(
        len in 0usize..=67,
        cut_a in 0usize..=67,
        cut_b in 0usize..=67,
        seed in 0u64..100000,
        edge_one_in in 0u64..64,
        poison_step in 1usize..=500,
        poison_at in 0usize..67,
        poison_kind in 0usize..3,
    ) {
        let mut cuts = [cut_a.min(len), cut_b.min(len)];
        cuts.sort_unstable();
        let poison = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][poison_kind];
        assert_adam_tracks_reference(len, &cuts, 400, seed, edge_one_in, (poison_step, poison_at, poison));
    }

    /// Whatever dispatch leg runs, the f32 serving GEMM stays bitwise on
    /// the pinned 8-lane layout at random shapes too.
    #[test]
    fn prop_f32_gemm_is_bitwise_pinned(
        m in 1usize..=12,
        k in 1usize..=12,
        n in 1usize..=12,
        seed in 0u64..100000,
    ) {
        let a = matrix_f32(m, k, seed.wrapping_add(3));
        let rhs = matrix_f32(n, k, seed.wrapping_add(41));
        let mut out = Matrix::<f32>::filled(m, n, 2.5);
        a.matmul_transpose_b_into(&rhs, &mut out);
        assert_bits_eq_f32(&out, &ref_matmul_transpose_b_f32(&a, &rhs), "prop f32 gemm_tb");
    }

    /// The f32 instantiation of the serving GEMM (`matmul_transpose_b`)
    /// agrees with f64 within f32 relative accuracy — the tolerance the
    /// inference plans are allowed to rely on.
    #[test]
    fn prop_f32_gemm_within_tolerance_of_f64(
        m in 1usize..=12,
        k in 1usize..=12,
        n in 1usize..=12,
        seed in 0u64..100000,
    ) {
        let a64 = matrix(m, k, seed.wrapping_add(17));
        let b64 = matrix(n, k, seed.wrapping_add(91));
        let a32 = Matrix::<f32>::from_precision(&a64);
        let b32 = Matrix::<f32>::from_precision(&b64);
        let want = a64.matmul_transpose_b(&b64);
        let got = a32.matmul_transpose_b(&b32);
        // Row dot over ≤12 products of magnitude ≤25: f32 rounding keeps
        // the error well under 1e-3 absolute + relative.
        for i in 0..m {
            for j in 0..n {
                let w = want.row(i)[j];
                let g = got.row(i)[j] as f64;
                prop_assert!(
                    (g - w).abs() <= 1e-3 * w.abs().max(1.0),
                    "({}, {}): f32 {} vs f64 {}", i, j, g, w,
                );
            }
        }
    }

    #[test]
    fn prop_f32_matvec_within_tolerance_of_f64(
        m in 1usize..=16,
        n in 1usize..=16,
        seed in 0u64..100000,
    ) {
        let a64 = matrix(m, n, seed);
        let v64 = vector(n, seed ^ 5);
        let a32 = Matrix::<f32>::from_precision(&a64);
        let v32: Vec<f32> = v64.iter().map(|&v| v as f32).collect();
        for (g, w) in a32.matvec(&v32).iter().zip(a64.matvec(&v64)) {
            prop_assert!(
                (*g as f64 - w).abs() <= 1e-3 * w.abs().max(1.0),
                "matvec f32 {} vs f64 {}", g, w,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Precision round-trip and f32 tile-boundary smoke.
// ---------------------------------------------------------------------------

/// f32 kernels at every tile-boundary shape produce finite outputs that
/// match a naive f32 reference within rounding (regression net for the
/// lane tails, independent of the f64 bitwise suite).
#[test]
fn f32_matmul_transpose_b_matches_naive_f32_closely() {
    for &m in DIMS {
        for &k in DIMS {
            let a = Matrix::<f32>::from_precision(&matrix(m, k, (m + k * 3) as u64));
            let rhs = Matrix::<f32>::from_precision(&matrix(m, k, (m * 7 + k) as u64));
            let got = a.matmul_transpose_b(&rhs);
            for i in 0..m {
                for j in 0..m {
                    let naive: f64 = a
                        .row(i)
                        .iter()
                        .zip(rhs.row(j))
                        .map(|(&x, &y)| x as f64 * y as f64)
                        .sum();
                    let g = got.row(i)[j] as f64;
                    assert!(
                        (g - naive).abs() <= 1e-4 * naive.abs().max(1.0),
                        "{m}x{k} ({i},{j}): {g} vs naive {naive}",
                    );
                }
            }
        }
    }
}
