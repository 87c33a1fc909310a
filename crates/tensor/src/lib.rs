//! # sad-tensor
//!
//! Minimal dense linear-algebra substrate for the `streamad` workspace.
//!
//! The streaming anomaly detection framework reproduced here needs exactly
//! four numerical capabilities and nothing more:
//!
//! * a dense row-major [`Matrix<T>`] with the usual algebra ([`matrix`]),
//!   generic over element precision via the sealed [`Scalar`] trait,
//! * direct solvers — Gaussian elimination with partial pivoting and
//!   least-squares via the normal equations ([`mod@solve`]) — used by the
//!   vector-autoregressive model,
//! * free-standing vector kernels (dot products, norms, cosine similarity)
//!   used by every nonconformity measure ([`vector`]),
//! * first-order optimizers operating on flat parameter slices
//!   ([`optim`]): Adam, which every gradient-trained model uses (under
//!   `simd` its step runs an AVX2+FMA kernel that is bit-identical to its
//!   portable loop), and SGD with momentum, which only tests use.
//!
//! ## Precision
//!
//! Training, fine-tuning, the drift detectors, and the offline Table III
//! grid all run `f64` with **pinned kernel operation orders** — the basis of
//! every bitwise parity proof in the workspace. `Matrix` written without a
//! parameter still means `Matrix<f64>`, and the f64 kernels are
//! bit-for-bit the kernels of previous releases (asserted against frozen
//! references in `tests/precision_parity.rs`). `Matrix<f32>` exists for
//! *inference-only* consumers — the fleet serving path converts trained
//! weights down once per training event and streams twice the elements per
//! cache line through the same tiled kernels ([`scalar`] documents the
//! per-precision lane layout, [`Scalar::LANES`], and the optional `simd`
//! AVX2 kernels, each written once for both precisions).
//!
//! Streaming anomaly detection workloads are tiny by BLAS standards
//! (windows of a few hundred elements); `sad-bench`'s `tensor_kernels`
//! binary reports the measured GFLOP/s / GB/s per precision.

pub mod matrix;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod microkernel;
pub mod optim;
pub mod scalar;
pub mod solve;
pub mod vector;

pub use matrix::Matrix;
pub use optim::{Adam, Optimizer, Sgd};
pub use scalar::{axpy_tiled, dot_pinned, rank4_update_tiled, simd_enabled, Scalar};
pub use solve::{invert, least_squares, solve, SolveError};
pub use vector::{axpy, cosine_similarity, dot, l2_norm, linf_norm, mean, scale, sub};
