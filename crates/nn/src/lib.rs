//! # sad-nn
//!
//! A small, hand-rolled neural-network substrate: fully-connected layers
//! with analytically derived backpropagation, a handful of activations, MSE
//! losses, and Xavier initialization.
//!
//! Three of the paper's five models are neural networks — the 2-layer
//! autoencoder, the USAD adversarial autoencoder and N-BEATS (§IV-C). No
//! mature autodiff/deep-learning stack exists in this dependency universe,
//! so the backward passes are written by hand. Two design points matter for
//! the reproduction:
//!
//! * [`Mlp::backward`] accepts an arbitrary output gradient `∂L/∂ŷ` and
//!   returns the gradient with respect to the *input*. This is what lets
//!   USAD chain `∂‖x − AE₂(AE₁(x))‖²/∂θ_{AE₁}` through the second
//!   autoencoder, and lets N-BEATS propagate through its residual stacking.
//! * Parameters update **in place** through the segmented
//!   `sad_tensor::Optimizer` API ([`Mlp::apply_grads`]), bitwise identical
//!   to one flat step over [`Mlp::params_flat`] — mirroring the paper's
//!   `θ ← θ − Σ Opt(∂L/∂θ)` fine-tuning formulation without the
//!   flatten/unflatten copies.
//! * The streaming models train through the batched, zero-allocation
//!   workspace path in [`batch`] ([`Mlp::forward_batch`],
//!   [`Mlp::backward_batch`], [`MlpWorkspace`]), which packs minibatches
//!   into row-major matrices and drives the cache-blocked `sad-tensor`
//!   GEMM kernels; it reproduces the per-sample path bit for bit at batch
//!   size 1 (see `batch`'s module docs for the pinned summation order).
//! * [`Dense`], [`Mlp`] and [`MlpWorkspace`] are generic over the tensor
//!   precision (`f64` by default). Training is f64-only; an `Mlp<f32>` is
//!   an inference snapshot of a trained network ([`Mlp::from_precision`],
//!   re-synced allocation-free by [`Mlp::convert_from`]) that serves
//!   through the same [`Mlp::forward_batch`].
//!
//! Every backward pass is verified against central finite differences in the
//! test suite (`grad_check`).

pub mod activation;
pub mod batch;
pub mod layer;
pub mod loss;
pub mod mlp;

pub use activation::Activation;
pub use batch::MlpWorkspace;
pub use layer::{Dense, DenseGrads};
pub use loss::{mse, mse_grad, sse, sse_grad};
pub use mlp::{Mlp, MlpCache, MlpGrads};
