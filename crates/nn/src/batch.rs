//! Batched, workspace-backed training path.
//!
//! The streaming fine-tune loop is the Table III grid's tail: USAD, N-BEATS
//! and the 2-layer AE under the sliding-window strategy retrain on every
//! drift signal, and the per-sample path walks `O(P)` heap allocations per
//! step (activation vectors, caches, flattened parameter copies). This
//! module packs a minibatch into row-major [`Matrix`] activations and
//! drives the cache-blocked `sad-tensor` kernels instead:
//!
//! * **forward**: one [`Matrix::matmul_transpose_b_into`] per layer
//!   (`X · Wᵀ`, every output element a contiguous `dot4`),
//! * **backward**: one [`Matrix::matmul_into`] per layer turns the output
//!   gradient into pre-activation deltas and, on request, the input
//!   gradient (`δ · W`); no parameter gradient is stored,
//! * **optimizer step**: [`Mlp::step_terms`] forms each parameter's
//!   gradient from the deltas and layer inputs the workspaces already
//!   hold, 512 doubles at a time in a stack chunk, and hands each chunk
//!   to [`Optimizer::step_segment`]. A trainable network holds nothing
//!   the size of its parameters except the parameters and the optimizer
//!   moments,
//! * **buffers**: a reusable [`MlpWorkspace`] holds every activation and
//!   delta matrix, sized once — the steady-state inner loop performs
//!   **zero heap allocations** (guarded by the `zero_alloc` integration
//!   test).
//!
//! ## Pinned summation order (bitwise parity)
//!
//! The batched path is **bitwise identical** to the per-sample path at
//! batch size 1, and its batch-of-`B` gradient is bitwise identical to
//! accumulating `B` per-sample gradients in ascending sample order:
//!
//! * forward: `matmul_transpose_b_into` computes `dot4(x_b, w_o)`; the
//!   per-sample [`Matrix::matvec`] computes `dot4(w_o, x_b)` — IEEE-754
//!   multiplication commutes and the four-accumulator reduction order is
//!   identical, so the results agree bitwise.
//! * weight gradients: per element, the streamed chunk runs the per-sample
//!   accumulation of [`crate::Dense::backward`] into a zeroed buffer — terms
//!   in call order, then rows ascending, `+= δ·x` with `δ == 0` rows
//!   skipped. The first contribution is written as `0.0 + δ·x`, so no zero
//!   fill is needed and a `−0.0` product still lands as `+0.0`. Bias
//!   gradients add every row's `δ` the same way, without the skip, and a
//!   batch of `B > 1` is then scaled by `1/B`. Chunks cross row
//!   boundaries; they only decide which slice the optimizer sees, and the
//!   optimizer is per element.
//! * input gradients: the i-k-j `matmul_into` with its `a == 0.0` skip is
//!   the row-batched form of [`Matrix::matvec_t`] with its `vi == 0.0`
//!   skip.
//! * optimizer: [`Optimizer::step_segment`] over slices that tile the
//!   parameter buffer in order is bitwise identical to one flat
//!   [`Optimizer::step`].
//!
//! The parity tests in `tests/batch_parity.rs` and the recording-optimizer
//! tests in `tests/grad_capture.rs` assert these equalities exactly
//! (`f64::to_bits`), with no tolerances.

use crate::mlp::Mlp;
use sad_tensor::{Matrix, Optimizer, Scalar};

/// Reusable buffers for one network's batched forward/backward pass, in
/// precision `T` (training workspaces are f64; an `MlpWorkspace<f32>`
/// serves an `Mlp<f32>` inference snapshot).
///
/// All matrices are allocated once for `max_batch` rows; smaller (trailing)
/// batches shrink the logical row count via [`Matrix::resize_rows`], which
/// stays within the original capacity and never reallocates. A workspace is
/// tied to the layer geometry of the [`Mlp`] it was created from.
#[derive(Debug, Clone)]
pub struct MlpWorkspace<T: Scalar = f64> {
    /// Layer widths `[in, h₁, …, out]` this workspace was shaped for.
    dims: Vec<usize>,
    max_batch: usize,
    batch: usize,
    /// `false` for inference-only workspaces (see [`Self::inference`]):
    /// the delta and input-gradient buffers are not allocated and
    /// [`Mlp::backward_batch`] is rejected.
    training: bool,
    /// `B × in_dim` network input.
    input: Matrix<T>,
    /// Per layer: `B × out_dim(l)` post-activation output.
    acts: Vec<Matrix<T>>,
    /// Per layer: `B × out_dim(l)` gradient buffer. During
    /// [`Mlp::backward_batch`], `deltas[l]` first holds `∂L/∂act_l` and is
    /// then turned into the pre-activation delta in place, which
    /// [`Mlp::step_terms`] then reads with the layer inputs. The caller
    /// seeds `deltas[last]` (via [`Self::grad_out_mut`]) with `∂L/∂ŷ`.
    /// Empty for inference-only workspaces.
    deltas: Vec<Matrix<T>>,
    /// `B × in_dim` input gradient (filled on request). `1 × in_dim` for
    /// inference-only workspaces (never resized, never read).
    grad_in: Matrix<T>,
}

impl<T: Scalar> MlpWorkspace<T> {
    /// Creates a workspace for `mlp` with room for `max_batch` rows.
    pub fn new(mlp: &Mlp<T>, max_batch: usize) -> Self {
        Self::shaped(mlp, max_batch, true)
    }

    /// Creates an **inference-only** workspace for `mlp` with room for
    /// `max_batch` rows.
    ///
    /// Only the input and activation matrices are allocated — roughly half
    /// the footprint of a training workspace — which is what a serving
    /// layer batching inference across many streams wants.
    /// [`Mlp::forward_batch`] behaves identically (bitwise) to a training
    /// workspace; [`Mlp::backward_batch`] panics. Only `mlp`'s layer widths
    /// are read, so it may be of another precision: an f32 serving
    /// workspace is shaped from the f64 network its snapshot converts.
    pub fn inference<U: Scalar>(mlp: &Mlp<U>, max_batch: usize) -> Self {
        Self::shaped(mlp, max_batch, false)
    }

    fn shaped<U: Scalar>(mlp: &Mlp<U>, max_batch: usize, training: bool) -> Self {
        assert!(max_batch > 0, "workspace needs at least one batch row");
        let mut dims = Vec::with_capacity(mlp.layers.len() + 1);
        dims.push(mlp.in_dim());
        for layer in &mlp.layers {
            dims.push(layer.out_dim());
        }
        let acts = dims[1..].iter().map(|&d| Matrix::zeros(max_batch, d)).collect();
        let (deltas, grad_rows) = if training {
            (dims[1..].iter().map(|&d| Matrix::zeros(max_batch, d)).collect(), max_batch)
        } else {
            (Vec::new(), 1)
        };
        Self {
            input: Matrix::zeros(max_batch, dims[0]),
            grad_in: Matrix::zeros(grad_rows, dims[0]),
            acts,
            deltas,
            max_batch,
            batch: max_batch,
            training,
            dims,
        }
    }

    /// Whether this workspace supports [`Mlp::backward_batch`] (i.e. was
    /// created with [`Self::new`] rather than [`Self::inference`]).
    pub fn supports_training(&self) -> bool {
        self.training
    }

    /// Maximum number of rows the workspace was allocated for.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Current logical batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Sets the logical batch size for the next forward/backward pass.
    ///
    /// # Panics
    /// Panics if `batch` is zero or exceeds [`Self::max_batch`] (growing
    /// past the allocated capacity would reallocate).
    pub fn set_batch(&mut self, batch: usize) {
        assert!(batch > 0, "batch size must be positive");
        assert!(
            batch <= self.max_batch,
            "batch {batch} exceeds workspace capacity {}",
            self.max_batch
        );
        self.batch = batch;
        self.input.resize_rows(batch);
        for m in &mut self.acts {
            m.resize_rows(batch);
        }
        if self.training {
            self.grad_in.resize_rows(batch);
            for m in &mut self.deltas {
                m.resize_rows(batch);
            }
        }
    }

    /// The input matrix (`batch × in_dim`).
    pub fn input(&self) -> &Matrix<T> {
        &self.input
    }

    /// Mutable input matrix, for chaining another network's output in.
    pub fn input_mut(&mut self) -> &mut Matrix<T> {
        &mut self.input
    }

    /// Mutable input row `b`, for the caller to fill.
    pub fn input_row_mut(&mut self, b: usize) -> &mut [T] {
        self.input.row_mut(b)
    }

    /// The network output of the last forward pass (`batch × out_dim`).
    pub fn output(&self) -> &Matrix<T> {
        self.acts.last().expect("non-empty")
    }

    /// Output row `b` of the last forward pass.
    pub fn output_row(&self, b: usize) -> &[T] {
        self.acts.last().expect("non-empty").row(b)
    }

    /// The output-gradient buffer the caller seeds with `∂L/∂ŷ` before
    /// [`Mlp::backward_batch`].
    pub fn grad_out_mut(&mut self) -> &mut Matrix<T> {
        assert!(self.training, "inference-only workspace has no gradient buffers");
        self.deltas.last_mut().expect("non-empty")
    }

    /// Input, output and output-gradient buffers together (disjoint
    /// borrows), for loss gradients computed from workspace state — e.g.
    /// the autoencoder's `∂MSE(ŷ, x)/∂ŷ`.
    pub fn io_split(&mut self) -> (&Matrix<T>, &Matrix<T>, &mut Matrix<T>) {
        assert!(self.training, "inference-only workspace has no gradient buffers");
        (&self.input, self.acts.last().expect("non-empty"), self.deltas.last_mut().expect("non-empty"))
    }

    /// The input gradient `∂L/∂X` of the last backward pass (only valid if
    /// it was requested).
    pub fn grad_in(&self) -> &Matrix<T> {
        assert!(self.training, "inference-only workspace has no gradient buffers");
        &self.grad_in
    }

    /// Zeroes layer `layer`'s deltas after [`Mlp::backward_batch`], so the
    /// next [`Mlp::step_terms`] forms a +0.0 gradient for that layer's
    /// parameters — how a frozen layer is kept still. Nothing else reads
    /// the deltas once the backward pass is done.
    pub fn zero_delta(&mut self, layer: usize) {
        assert!(self.training, "inference-only workspace has no gradient buffers");
        self.deltas[layer].fill(T::ZERO);
    }

    /// The input of layer `l` in the last forward pass.
    fn layer_input(&self, l: usize) -> &Matrix<T> {
        if l == 0 {
            &self.input
        } else {
            &self.acts[l - 1]
        }
    }

    fn check_geometry(&self, mlp: &Mlp<T>) {
        assert_eq!(self.dims.len(), mlp.layers.len() + 1, "workspace/layer count mismatch");
        assert_eq!(self.dims[0], mlp.in_dim(), "workspace input width mismatch");
        for (d, layer) in self.dims[1..].iter().zip(&mlp.layers) {
            assert_eq!(*d, layer.out_dim(), "workspace layer width mismatch");
        }
    }
}

impl<T: Scalar> Mlp<T> {
    /// Creates a workspace shaped for this network with `max_batch` rows.
    pub fn workspace(&self, max_batch: usize) -> MlpWorkspace<T> {
        MlpWorkspace::new(self, max_batch)
    }

    /// Creates an inference-only workspace (see [`MlpWorkspace::inference`]).
    pub fn inference_workspace(&self, max_batch: usize) -> MlpWorkspace<T> {
        MlpWorkspace::inference(self, max_batch)
    }

    /// Batched forward pass over the `ws.batch()` rows of `ws.input()`.
    ///
    /// Each layer is one `X · Wᵀ` GEMM ([`Matrix::matmul_transpose_b_into`])
    /// followed by an in-place bias add and activation per row. Performs no
    /// heap allocation. The f64 instantiation is the bitwise-pinned path
    /// above; the f32 one runs the 8-lane f32 kernels and agrees with it
    /// to f32 relative accuracy (`tests/f32_tolerance.rs`).
    pub fn forward_batch(&self, ws: &mut MlpWorkspace<T>) {
        ws.check_geometry(self);
        let batch = ws.batch;
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, todo) = ws.acts.split_at_mut(l);
            let x = if l == 0 { &ws.input } else { &done[l - 1] };
            let act = &mut todo[0];
            x.matmul_transpose_b_into(&layer.weights, act);
            for b in 0..batch {
                let row = act.row_mut(b);
                for (o, &bias) in row.iter_mut().zip(&layer.bias) {
                    *o += bias;
                }
                layer.activation.apply_slice(row);
            }
        }
    }
}

impl Mlp {
    /// Batched backward pass.
    ///
    /// Expects the caller to have run [`Self::forward_batch`] on `ws` and
    /// written `∂L/∂ŷ` into [`MlpWorkspace::grad_out_mut`]. Turns it into
    /// every layer's pre-activation deltas, in place, and, if
    /// `want_grad_in`, writes `∂L/∂X` into [`MlpWorkspace::grad_in`] for
    /// cross-network chaining. No parameter gradient is formed here: the
    /// deltas and the layer inputs left in `ws` are all
    /// [`Self::step_terms`] needs. Performs no heap allocation.
    pub fn backward_batch(&self, ws: &mut MlpWorkspace, want_grad_in: bool) {
        ws.check_geometry(self);
        assert!(ws.training, "backward_batch needs a training workspace (see MlpWorkspace::inference)");
        let batch = ws.batch;
        for l in (0..self.layers.len()).rev() {
            let layer = &self.layers[l];
            // δ_l = ∂L/∂act_l ⊙ act'(y_l), in place.
            {
                let delta = &mut ws.deltas[l];
                let act = &ws.acts[l];
                for b in 0..batch {
                    for (d, &y) in delta.row_mut(b).iter_mut().zip(act.row(b)) {
                        *d *= layer.activation.derivative_from_output(y);
                    }
                }
            }
            // ∂L/∂act_{l−1} = δ_l · W_l, into the next delta buffer down.
            if l > 0 {
                let (below, here) = ws.deltas.split_at_mut(l);
                here[0].matmul_into(&layer.weights, &mut below[l - 1]);
            } else if want_grad_in {
                ws.deltas[0].matmul_into(&layer.weights, &mut ws.grad_in);
            }
        }
    }

    /// One optimizer step over this network's parameters, with the
    /// gradient formed from the backward passes held in `terms`.
    ///
    /// Call `opt.begin_step(total)` first; this network's parameters sit at
    /// `offset` in the optimizer's logical buffer (layer by layer, weights
    /// then bias, as in [`Self::params_flat`]), and the offset just past
    /// them is returned, so several networks can share one optimizer step.
    ///
    /// Each term is a workspace after [`Self::backward_batch`]; all share
    /// one batch size `B`. Per parameter the gradient is what summing
    /// per-sample [`Self::backward`] passes into zeroed [`crate::MlpGrads`]
    /// gives, bit for bit: terms in order, rows ascending, `+= δ·x` with
    /// rows whose `δ == 0` skipped (weights only), times `1/B` when
    /// `B > 1` (the minibatch mean). It is formed 512 doubles at a time on
    /// the stack and handed to [`Optimizer::step_segment`], so no gradient
    /// buffer the size of the parameters exists.
    ///
    /// # Panics
    /// Panics if `terms` is empty, a term is inference-only or shaped for
    /// another network, or the terms' batch sizes differ.
    pub fn step_terms(&mut self, terms: &[&MlpWorkspace], opt: &mut dyn Optimizer, offset: usize) -> usize {
        let batch = terms.first().expect("at least one gradient term").batch;
        for ws in terms {
            ws.check_geometry(self);
            assert!(ws.training, "step_terms needs training workspaces");
            assert_eq!(ws.batch, batch, "gradient terms must share one batch size");
        }
        let mean = (batch > 1).then(|| 1.0 / batch as f64);
        let mut chunk = [0.0; GRAD_CHUNK];
        let mut off = offset;
        for (l, layer) in self.layers.iter_mut().enumerate() {
            let w = layer.weights.as_mut_slice();
            for start in (0..w.len()).step_by(GRAD_CHUNK) {
                let end = (start + GRAD_CHUNK).min(w.len());
                let g = &mut chunk[..end - start];
                let mut first = true;
                for ws in terms {
                    let x = ws.layer_input(l);
                    for b in 0..batch {
                        outer_rows(g, start, ws.deltas[l].row(b), x.row(b), first);
                        first = false;
                    }
                }
                scale(g, mean);
                opt.step_segment(off + start, &mut w[start..end], g);
            }
            off += w.len();
            let bias = &mut layer.bias;
            for start in (0..bias.len()).step_by(GRAD_CHUNK) {
                let end = (start + GRAD_CHUNK).min(bias.len());
                let g = &mut chunk[..end - start];
                g.fill(0.0);
                for ws in terms {
                    for b in 0..batch {
                        for (gk, &d) in g.iter_mut().zip(&ws.deltas[l].row(b)[start..end]) {
                            *gk += d;
                        }
                    }
                }
                scale(g, mean);
                opt.step_segment(off + start, &mut bias[start..end], g);
            }
            off += bias.len();
        }
        off
    }

    /// One batched MSE *autoencoder* training step: target ≡ input.
    ///
    /// The caller fills `ws.input_row_mut(b)` for `b < ws.batch()`. For
    /// batches larger than one the summed gradient is scaled by `1/B`
    /// (minibatch mean, as in USAD's reference formulation); at `B = 1` the
    /// step is bitwise identical to [`Mlp::train_step_mse`] with
    /// `target == x`. Returns the mean per-sample MSE before the update.
    /// Performs no steady-state heap allocation.
    pub fn train_batch_mse_identity(&mut self, ws: &mut MlpWorkspace, opt: &mut dyn Optimizer) -> f64 {
        self.forward_batch(ws);
        let batch = ws.batch;
        let mut loss_sum = 0.0;
        {
            let (input, output, grad_out) = ws.io_split();
            let d = self.out_dim();
            let scale = 2.0 / d.max(1) as f64;
            for b in 0..batch {
                let x = input.row(b);
                let y = output.row(b);
                let g = grad_out.row_mut(b);
                let mut sq = 0.0;
                for ((gi, &yi), &xi) in g.iter_mut().zip(y).zip(x) {
                    sq += (yi - xi) * (yi - xi);
                    *gi = scale * (yi - xi);
                }
                loss_sum += sq / d.max(1) as f64;
            }
        }
        self.backward_batch(ws, false);
        opt.begin_step(self.num_params());
        self.step_terms(&[ws], opt, 0);
        loss_sum / batch as f64
    }
}

/// Doubles per gradient chunk that [`Mlp::step_terms`] hands to the
/// optimizer (4 KiB on the stack). A multiple of 4, so only the last chunk
/// of each weight matrix and bias vector leaves an `n % 4` tail for a
/// 4-lane optimizer kernel — as many as one segment per matrix does.
const GRAD_CHUNK: usize = 512;

/// Adds one batch row's `δ ⊗ x` to the chunk `g` holding elements
/// `start..start + g.len()` of a row-major `δ.len() × x.len()` weight
/// gradient. The chunk may begin and end inside a row.
///
/// Per element this is what a zeroed buffer plus one `axpy` per row gives:
/// rows whose `δ == 0` are skipped (left at +0.0 when `first`), and
/// otherwise `first` writes `0.0 + δ·x` — no zero fill needed, and the
/// `0.0 +` keeps +0.0 where the product is −0.0 — while later calls add
/// `δ·x`. Kept out of line: compiled on its own, with `g` known not to
/// alias `δ` or `x`, the first-term loop vectorizes.
#[inline(never)]
fn outer_rows(g: &mut [f64], start: usize, delta: &[f64], x: &[f64], first: bool) {
    let n = x.len();
    let (mut k, mut j) = (start / n, start % n);
    let mut at = 0;
    while at < g.len() {
        let take = (n - j).min(g.len() - at);
        let (dst, xs, d) = (&mut g[at..at + take], &x[j..j + take], delta[k]);
        if d == 0.0 {
            if first {
                dst.fill(0.0);
            }
        } else if first {
            for (o, &v) in dst.iter_mut().zip(xs) {
                *o = 0.0 + d * v;
            }
        } else {
            f64::axpy(d, xs, dst);
        }
        at += take;
        k += 1;
        j = 0;
    }
}

/// Multiplies `g` by the minibatch-mean factor, if there is one.
fn scale(g: &mut [f64], mean: Option<f64>) {
    if let Some(s) = mean {
        for v in g {
            *v *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::loss::mse_grad;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sad_tensor::Adam;

    /// Records the gradient of every `step_segment` at its offset and
    /// leaves the parameters alone.
    #[derive(Default)]
    struct Recorder(Vec<f64>);

    impl Optimizer for Recorder {
        fn step(&mut self, params: &mut [f64], grads: &[f64]) {
            self.begin_step(params.len());
            self.step_segment(0, params, grads);
        }
        fn begin_step(&mut self, total_len: usize) {
            self.0 = vec![f64::NAN; total_len];
        }
        fn step_segment(&mut self, offset: usize, _params: &mut [f64], grads: &[f64]) {
            self.0[offset..offset + grads.len()].copy_from_slice(grads);
        }
    }

    fn tiny_mlp(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&[3, 5, 3], &[Activation::Tanh, Activation::Identity], &mut rng)
    }

    fn sample(k: usize) -> Vec<f64> {
        (0..3).map(|j| ((k * 3 + j) as f64 * 0.37).sin()).collect()
    }

    #[test]
    fn forward_batch_rows_match_per_sample_infer_bitwise() {
        let mlp = tiny_mlp(1);
        let mut ws = mlp.workspace(4);
        ws.set_batch(4);
        for b in 0..4 {
            ws.input_row_mut(b).copy_from_slice(&sample(b));
        }
        mlp.forward_batch(&mut ws);
        for b in 0..4 {
            let per_sample = mlp.infer(&sample(b));
            let batched: Vec<u64> = ws.output_row(b).iter().map(|v| v.to_bits()).collect();
            let reference: Vec<u64> = per_sample.iter().map(|v| v.to_bits()).collect();
            assert_eq!(batched, reference, "row {b}");
        }
    }

    #[test]
    fn backward_batch_equals_accumulated_per_sample_grads_bitwise() {
        let mut mlp = tiny_mlp(2);
        let target = [0.2, -0.1, 0.4];

        // Reference: per-sample backward, accumulated in ascending order.
        let mut ref_grads = mlp.zero_grads();
        for b in 0..3 {
            let x = sample(b);
            let cache = mlp.forward(&x);
            let g = mse_grad(cache.output(), &target);
            mlp.backward(&cache, &g, &mut ref_grads);
        }

        // Batched: one backward over the 3-row workspace.
        let mut ws = mlp.workspace(3);
        ws.set_batch(3);
        for b in 0..3 {
            ws.input_row_mut(b).copy_from_slice(&sample(b));
        }
        mlp.forward_batch(&mut ws);
        for b in 0..3 {
            let g = mse_grad(ws.output().row(b), &target);
            ws.grad_out_mut().row_mut(b).copy_from_slice(&g);
        }
        mlp.backward_batch(&mut ws, false);
        let mut grads = Recorder::default();
        grads.begin_step(mlp.num_params());
        mlp.step_terms(&[&ws], &mut grads, 0);

        // The step takes the minibatch mean of the summed rows.
        let a: Vec<u64> = grads.0.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = ref_grads.flatten().iter().map(|v| (v * (1.0 / 3.0)).to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn grad_in_matches_per_sample_chain_bitwise() {
        let mlp = tiny_mlp(3);
        let grad_out = [0.3, -0.7, 0.05];
        let mut ws = mlp.workspace(2);
        ws.set_batch(2);
        for b in 0..2 {
            ws.input_row_mut(b).copy_from_slice(&sample(b + 5));
        }
        mlp.forward_batch(&mut ws);
        for b in 0..2 {
            ws.grad_out_mut().row_mut(b).copy_from_slice(&grad_out);
        }
        mlp.backward_batch(&mut ws, true);

        for b in 0..2 {
            let x = sample(b + 5);
            let cache = mlp.forward(&x);
            let mut ref_grads = mlp.zero_grads();
            let gi = mlp.backward(&cache, &grad_out, &mut ref_grads);
            let batched: Vec<u64> = ws.grad_in().row(b).iter().map(|v| v.to_bits()).collect();
            let reference: Vec<u64> = gi.iter().map(|v| v.to_bits()).collect();
            assert_eq!(batched, reference, "row {b}");
        }
    }

    #[test]
    fn batch_of_one_training_is_bitwise_per_sample_training() {
        let mut a = tiny_mlp(7);
        let mut b = a.clone();
        let mut opt_a = Adam::new(5e-3);
        let mut opt_b = Adam::new(5e-3);
        let mut ws = b.workspace(1);
        for k in 0..20 {
            let x = sample(k);
            a.train_step_mse(&x, &x, &mut opt_a);
            ws.set_batch(1);
            ws.input_row_mut(0).copy_from_slice(&x);
            b.train_batch_mse_identity(&mut ws, &mut opt_b);
        }
        let pa: Vec<u64> = a.params_flat().iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u64> = b.params_flat().iter().map(|v| v.to_bits()).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn larger_batches_still_learn() {
        let mut mlp = tiny_mlp(9);
        let mut opt = Adam::new(1e-2);
        let mut ws = mlp.workspace(4);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..300 {
            ws.set_batch(4);
            for b in 0..4 {
                ws.input_row_mut(b).copy_from_slice(&sample(b));
            }
            last = mlp.train_batch_mse_identity(&mut ws, &mut opt);
            first.get_or_insert(last);
        }
        let first = first.unwrap();
        assert!(last < first * 0.2, "batched training must descend: {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "exceeds workspace capacity")]
    fn growing_past_capacity_panics() {
        let mlp = tiny_mlp(1);
        let mut ws = mlp.workspace(2);
        ws.set_batch(3);
    }

    /// The inference-only workspace's forward pass is bitwise identical to
    /// the training workspace's (and hence, per
    /// `forward_batch_rows_match_per_sample_infer_bitwise`, to per-sample
    /// `Mlp::infer`) across batch resizes.
    #[test]
    fn inference_workspace_forward_matches_training_workspace_bitwise() {
        let mlp = tiny_mlp(5);
        let mut train_ws = mlp.workspace(4);
        let mut infer_ws = mlp.inference_workspace(4);
        assert!(train_ws.supports_training());
        assert!(!infer_ws.supports_training());
        for &batch in &[4usize, 1, 3, 2] {
            train_ws.set_batch(batch);
            infer_ws.set_batch(batch);
            for b in 0..batch {
                train_ws.input_row_mut(b).copy_from_slice(&sample(b + batch));
                infer_ws.input_row_mut(b).copy_from_slice(&sample(b + batch));
            }
            mlp.forward_batch(&mut train_ws);
            mlp.forward_batch(&mut infer_ws);
            for b in 0..batch {
                let a: Vec<u64> = train_ws.output_row(b).iter().map(|v| v.to_bits()).collect();
                let c: Vec<u64> = infer_ws.output_row(b).iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, c, "batch {batch}, row {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs a training workspace")]
    fn backward_on_inference_workspace_panics() {
        let mlp = tiny_mlp(6);
        let mut ws = mlp.inference_workspace(2);
        ws.set_batch(1);
        ws.input_row_mut(0).copy_from_slice(&sample(0));
        mlp.forward_batch(&mut ws);
        mlp.backward_batch(&mut ws, false);
    }

    #[test]
    #[should_panic(expected = "no gradient buffers")]
    fn grad_out_on_inference_workspace_panics() {
        let mlp = tiny_mlp(6);
        let mut ws = mlp.inference_workspace(2);
        let _ = ws.grad_out_mut();
    }

    #[test]
    #[should_panic(expected = "workspace input width mismatch")]
    fn foreign_workspace_is_rejected() {
        let mlp = tiny_mlp(1);
        let mut rng = StdRng::seed_from_u64(0);
        let other =
            Mlp::new(&[4, 5, 3], &[Activation::Identity, Activation::Identity], &mut rng);
        let mut ws = other.workspace(1);
        mlp.forward_batch(&mut ws);
    }
}
