//! Roofline-style kernel measurement for the dense GEMM behind fleet
//! serving (§E12 of EXPERIMENTS.md).
//!
//! Five kernels per shape, all computing `A · Bᵀ` (the serving GEMM —
//! one `X · Wᵀ` per NN layer):
//!
//! * `f64_legacy` — naive single-accumulator dot per output element, the
//!   pre-tiling reference;
//! * `f64_tiled`  — one pinned 4-lane [`Scalar::dot`] per output element
//!   (the pre-micro-kernel serving GEMM; AVX2 dot under `simd`);
//! * `f64_micro`  — [`Matrix::<f64>::matmul_transpose_b_into`], which under
//!   `simd` dispatches to the register-blocked 2×4 AVX2 panel kernel
//!   (bitwise-identical to `f64_tiled`, proven in `precision_parity`);
//! * `f32_tiled` / `f32_micro` — the same pair at 8 lanes and half the
//!   bytes per element (inference-plan mode).
//!
//! For each we report GFLOP/s (`2·m·n·k / t`) and the streamed-footprint
//! bandwidth GB/s (`(m·k + k·n + m·n) · sizeof(T) / t`). Shapes are the AE
//! layer GEMM (k = w·N = 180 input dim, n = 45 hidden) at serving batch
//! sizes B ∈ {1, 8, 16, 64} plus the square/tall shapes from the tensor
//! benches.
//!
//! The binary asserts the acceptance bars — f32 must reach ≥1.5× the
//! scalar-f64 legacy GFLOP/s on at least one shape, and the f32
//! register-blocked panel must clear ≥1.5× the f32 tiled dot-loop at
//! B = 16 — so the committed artifact can only be regenerated while the
//! claims hold.
//!
//! ```sh
//! cargo run --release --bin tensor_kernels            # quick (default)
//! cargo run --release --bin tensor_kernels -- --full  # more repetitions
//! ```

use std::time::Instant;

use sad_tensor::{Matrix, Scalar};

/// Deterministic dense fill, same LCG as the criterion benches.
fn dense(rows: usize, cols: usize, salt: u64) -> Matrix<f64> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

/// `A (m×k) · Bᵀ (n×k)` with one scalar accumulator per output element —
/// the shape of the kernel before tiling, kept here as the baseline.
fn legacy_gemm_tb(a: &Matrix<f64>, b: &Matrix<f64>, out: &mut Matrix<f64>) {
    let (m, kk) = a.shape();
    let n = b.rows();
    for i in 0..m {
        let ar = a.row(i);
        let or = out.row_mut(i);
        for (j, o) in or.iter_mut().enumerate().take(n) {
            let br = b.row(j);
            let mut acc = 0.0;
            for k in 0..kk {
                acc += ar[k] * br[k];
            }
            *o = acc;
        }
    }
}

/// One pinned-lane `Scalar::dot` per output element — the serving GEMM as
/// shipped before the register-blocked panel kernel (what
/// `matmul_transpose_b_into` compiled to in the previous release).
fn tiled_gemm_tb<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, out: &mut Matrix<T>) {
    let m = a.rows();
    let n = b.rows();
    for i in 0..m {
        let ar = a.row(i);
        let or = out.row_mut(i);
        for (j, o) in or.iter_mut().enumerate().take(n) {
            *o = T::dot(ar, b.row(j));
        }
    }
}

/// Best-of-`reps` time for `iters` back-to-back invocations of `f`,
/// reported as seconds per single invocation.
fn best_time(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let t = start.elapsed().as_secs_f64() / iters as f64;
        if t < best {
            best = t;
        }
    }
    best
}

struct KernelResult {
    kernel: &'static str,
    secs: f64,
    gflops: f64,
    gbps: f64,
}

fn result(kernel: &'static str, secs: f64, m: usize, n: usize, k: usize, elem: usize) -> KernelResult {
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let bytes = ((m * k + k * n + m * n) * elem) as f64;
    KernelResult { kernel, secs, gflops: flops / secs / 1e9, gbps: bytes / secs / 1e9 }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (reps, target_iters_ns) = if full { (9, 80_000_000u64) } else { (5, 25_000_000u64) };

    // (label, m, n, k): out = A(m×k) · Bᵀ(n×k).  The AE serving shapes use
    // the Table III quick profile dims (w=20, N=9 → in 180, hidden 45) at
    // serving batch sizes B ∈ {1, 8, 16, 64}.
    let shapes: &[(&str, usize, usize, usize)] = &[
        ("ae_layer_batch1_180x45", 1, 45, 180),
        ("ae_layer_batch8_180x45", 8, 45, 180),
        ("ae_layer_batch16_180x45", 16, 45, 180),
        ("ae_layer_batch64_180x45", 64, 45, 180),
        ("square_64x64x64", 64, 64, 64),
        ("tall_256x64x64", 256, 64, 64),
    ];

    println!(
        "tensor kernels: A·Bᵀ GEMM, best of {reps} reps, {} profile",
        if full { "full" } else { "quick" },
    );
    let mut entries = Vec::new();
    let mut best_f32_vs_legacy = 0.0f64;
    let mut f32_micro_vs_tiled_b16 = 0.0f64;
    for &(label, m, n, k) in shapes {
        let a64 = dense(m, k, 1);
        let b64 = dense(n, k, 2);
        let mut out64 = Matrix::<f64>::zeros(m, n);
        let a32 = Matrix::<f32>::from_precision(&a64);
        let b32 = Matrix::<f32>::from_precision(&b64);
        let mut out32 = Matrix::<f32>::zeros(m, n);

        // Calibrate iteration count off one legacy pass so every kernel is
        // timed over a comparable wall-clock span.
        let once = best_time(1, 1, || legacy_gemm_tb(&a64, &b64, &mut out64));
        let iters = ((target_iters_ns as f64 / 1e9 / once.max(1e-9)) as usize).clamp(4, 200_000);

        let t_legacy = best_time(reps, iters, || {
            legacy_gemm_tb(std::hint::black_box(&a64), std::hint::black_box(&b64), &mut out64)
        });
        let t_f64_tiled = best_time(reps, iters, || {
            tiled_gemm_tb(std::hint::black_box(&a64), std::hint::black_box(&b64), &mut out64)
        });
        let t_f64_micro = best_time(reps, iters, || {
            std::hint::black_box(&a64).matmul_transpose_b_into(std::hint::black_box(&b64), &mut out64)
        });
        let t_f32_tiled = best_time(reps, iters, || {
            tiled_gemm_tb(std::hint::black_box(&a32), std::hint::black_box(&b32), &mut out32)
        });
        let t_f32_micro = best_time(reps, iters, || {
            std::hint::black_box(&a32).matmul_transpose_b_into(std::hint::black_box(&b32), &mut out32)
        });

        let rows = [
            result("f64_legacy", t_legacy, m, n, k, 8),
            result("f64_tiled", t_f64_tiled, m, n, k, 8),
            result("f64_micro", t_f64_micro, m, n, k, 8),
            result("f32_tiled", t_f32_tiled, m, n, k, 4),
            result("f32_micro", t_f32_micro, m, n, k, 4),
        ];
        let f64_tiled_vs_legacy = t_legacy / t_f64_tiled;
        let f64_micro_vs_tiled = t_f64_tiled / t_f64_micro;
        let f32_tiled_vs_legacy = t_legacy / t_f32_tiled;
        let f32_micro_vs_tiled = t_f32_tiled / t_f32_micro;
        best_f32_vs_legacy = best_f32_vs_legacy.max(t_legacy / t_f32_micro);
        if m == 16 && k == 180 {
            f32_micro_vs_tiled_b16 = f32_micro_vs_tiled;
        }
        println!("  {label} (m={m} n={n} k={k}, {iters} iters):");
        for r in &rows {
            println!(
                "    {:<11} {:>9.2} us  {:>7.2} GFLOP/s  {:>7.2} GB/s",
                r.kernel,
                r.secs * 1e6,
                r.gflops,
                r.gbps,
            );
        }
        println!(
            "    speedup: f64 tiled/legacy {f64_tiled_vs_legacy:.2}x, f64 micro/tiled {f64_micro_vs_tiled:.2}x, \
             f32 tiled/legacy {f32_tiled_vs_legacy:.2}x, f32 micro/tiled {f32_micro_vs_tiled:.2}x",
        );

        let kernel_json: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "        {{\"kernel\": \"{}\", \"time_us\": {:.3}, \"gflops\": {:.3}, \"gbps\": {:.3}}}",
                    r.kernel,
                    r.secs * 1e6,
                    r.gflops,
                    r.gbps,
                )
            })
            .collect();
        entries.push(format!(
            "    {{\"shape\": \"{label}\", \"m\": {m}, \"n\": {n}, \"k\": {k}, \"iters\": {iters},\n      \
             \"speedup_f64_tiled_vs_legacy\": {f64_tiled_vs_legacy:.3},\n      \
             \"speedup_f64_micro_vs_tiled\": {f64_micro_vs_tiled:.3},\n      \
             \"speedup_f32_tiled_vs_legacy\": {f32_tiled_vs_legacy:.3},\n      \
             \"speedup_f32_micro_vs_tiled\": {f32_micro_vs_tiled:.3},\n      \"kernels\": [\n{}\n      ]}}",
            kernel_json.join(",\n"),
        ));
    }

    // Acceptance bars from the PRs: the committed artifact must witness
    // the f32 serving GEMM at ≥1.5× scalar f64 on at least one hot shape,
    // and the register-blocked f32 panel at ≥1.5× the f32 dot-loop at the
    // B = 16 serving batch. The portable leg (no `simd`) compiles micro ==
    // tiled, so the second bar is only meaningful — and only enforced —
    // with the dispatch actually live.
    assert!(
        best_f32_vs_legacy >= 1.5,
        "f32 must reach 1.5x scalar f64 on some shape (best {best_f32_vs_legacy:.2}x)",
    );
    let simd = sad_tensor::simd_enabled();
    if simd {
        assert!(
            f32_micro_vs_tiled_b16 >= 1.5,
            "f32 micro-kernel must reach 1.5x tiled f32 at B=16 (got {f32_micro_vs_tiled_b16:.2}x)",
        );
    }

    let json = format!(
        "{{\n  \"harness\": \"tensor_kernels\",\n  \"profile\": \"{}\",\n  \
         \"gemm\": \"A(mxk) . B^T(nxk)\",\n  \"simd_feature\": {simd},\n  \
         \"best_f32_vs_legacy\": {best_f32_vs_legacy:.3},\n  \
         \"f32_micro_vs_tiled_b16\": {f32_micro_vs_tiled_b16:.3},\n  \"shapes\": [\n{}\n  ]\n}}\n",
        if full { "full" } else { "quick" },
        entries.join(",\n"),
    );
    match std::fs::create_dir_all("bench_output")
        .and_then(|()| std::fs::write("bench_output/tensor_kernels.json", &json))
    {
        Ok(()) => println!("-> bench_output/tensor_kernels.json"),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
}
