//! Multi-layer perceptron: a stack of [`Dense`] layers.

use crate::activation::Activation;
use crate::layer::{Dense, DenseGrads};
use crate::loss::{mse, mse_grad};
use rand::Rng;
use sad_tensor::{Optimizer, Scalar};

/// A feed-forward stack of fully-connected layers over precision `T`.
///
/// Both encoders/decoders of USAD, the 2-layer autoencoder and the FC stacks
/// inside each N-BEATS block are instances of this type. Training runs on
/// the default `Mlp<f64>`; an `Mlp<f32>` is an inference-only snapshot of
/// one ([`Mlp::from_precision`], re-synced with [`Mlp::convert_from`]) that
/// serves through the same [`Mlp::forward_batch`].
#[derive(Debug, Clone)]
pub struct Mlp<T: Scalar = f64> {
    pub(crate) layers: Vec<Dense<T>>,
}

/// Forward activations for one input: the network input plus every layer's
/// post-activation output, each stored exactly once (layer `l`'s input *is*
/// layer `l − 1`'s output — nothing is duplicated).
#[derive(Debug, Clone)]
pub struct MlpCache {
    input: Vec<f64>,
    outputs: Vec<Vec<f64>>,
}

impl MlpCache {
    /// The network output (the last layer's activation).
    pub fn output(&self) -> &[f64] {
        self.outputs.last().expect("non-empty")
    }
}

/// Parameter gradients for a whole [`Mlp`], as the per-sample
/// [`Mlp::backward`] accumulates them: the reference the streamed
/// training step ([`Mlp::step_terms`]) is checked against.
#[derive(Debug, Clone)]
pub struct MlpGrads {
    pub(crate) layers: Vec<DenseGrads>,
}

impl<T: Scalar> Mlp<T> {
    /// Builds an MLP from explicit layers (used by tests and custom models).
    pub fn from_layers(layers: Vec<Dense<T>>) -> Self {
        assert!(!layers.is_empty(), "an MLP needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(pair[0].out_dim(), pair[1].in_dim(), "layer dimension chain broken");
        }
        Self { layers }
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Dense<T>] {
        &self.layers
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Dense::num_params).sum()
    }

    /// Creates a network by converting every parameter of `src` to `T`
    /// (an f32 inference snapshot of a trained f64 network).
    pub fn from_precision<U: Scalar>(src: &Mlp<U>) -> Self {
        Self { layers: src.layers.iter().map(Dense::from_precision).collect() }
    }

    /// Re-converts every parameter from `src` in place — the snapshot
    /// re-sync after a training event. Performs **no heap allocation**.
    ///
    /// # Panics
    /// Panics if `src` has a different architecture.
    pub fn convert_from<U: Scalar>(&mut self, src: &Mlp<U>) {
        assert_eq!(self.layers.len(), src.layers.len(), "convert_from layer count mismatch");
        for (layer, from) in self.layers.iter_mut().zip(&src.layers) {
            layer.convert_from(from);
        }
    }
}

impl Mlp {
    /// Creates an MLP with layer sizes `dims[0] -> dims[1] -> ... -> dims[L]`
    /// and one activation per layer (`acts.len() == dims.len() - 1`).
    pub fn new(dims: &[usize], acts: &[Activation], rng: &mut impl Rng) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least one layer");
        assert_eq!(acts.len(), dims.len() - 1, "one activation per layer required");
        let layers = dims
            .windows(2)
            .zip(acts)
            .map(|(pair, &act)| Dense::xavier(pair[0], pair[1], act, rng))
            .collect();
        Self { layers }
    }

    /// Scalar inference-only forward pass. No model runs it; it is the
    /// oracle [`Self::forward_batch`] is checked against row by row.
    pub fn infer(&self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        for layer in &self.layers {
            cur = layer.infer(&cur);
        }
        cur
    }

    /// Forward pass keeping the activations needed for [`Self::backward`].
    ///
    /// The returned cache stores each activation exactly once; read the
    /// network output via [`MlpCache::output`].
    pub fn forward(&self, x: &[f64]) -> MlpCache {
        let mut outputs: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        for (l, layer) in self.layers.iter().enumerate() {
            let out = if l == 0 { layer.infer(x) } else { layer.infer(&outputs[l - 1]) };
            outputs.push(out);
        }
        MlpCache { input: x.to_vec(), outputs }
    }

    /// Backward pass: given `∂L/∂ŷ`, accumulates parameter gradients into
    /// `grads` and returns `∂L/∂x` (enabling cross-network chaining).
    pub fn backward(&self, cache: &MlpCache, grad_out: &[f64], grads: &mut MlpGrads) -> Vec<f64> {
        assert_eq!(cache.outputs.len(), self.layers.len(), "cache/layer count mismatch");
        let mut grad = grad_out.to_vec();
        for l in (0..self.layers.len()).rev() {
            let input = if l == 0 { &cache.input } else { &cache.outputs[l - 1] };
            grad = self.layers[l].backward(input, &cache.outputs[l], &grad, &mut grads.layers[l]);
        }
        grad
    }

    /// Zeroed gradient buffers shaped like this network.
    pub fn zero_grads(&self) -> MlpGrads {
        MlpGrads { layers: self.layers.iter().map(Dense::zero_grads).collect() }
    }

    /// Flattens all parameters (row-major weights then bias, per layer).
    pub fn params_flat(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            out.extend_from_slice(layer.weights.as_slice());
            out.extend_from_slice(&layer.bias);
        }
        out
    }

    /// Restores parameters from a flat buffer produced by [`Self::params_flat`].
    ///
    /// # Panics
    /// Panics if the buffer length does not match [`Self::num_params`].
    pub fn set_params_flat(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.num_params(), "flat parameter length mismatch");
        let mut offset = 0;
        for layer in &mut self.layers {
            let wlen = layer.weights.rows() * layer.weights.cols();
            layer.weights.as_mut_slice().copy_from_slice(&flat[offset..offset + wlen]);
            offset += wlen;
            let blen = layer.bias.len();
            layer.bias.copy_from_slice(&flat[offset..offset + blen]);
            offset += blen;
        }
    }

    /// One optimizer step from accumulated gradients, **in place** on the
    /// layer parameters.
    ///
    /// Uses the optimizer's segmented-step API ([`Optimizer::begin_step`] +
    /// one [`Optimizer::step_segment`] per weight matrix / bias vector), so
    /// the update is bitwise identical to flattening the parameters through
    /// `params_flat()`/`set_params_flat()` and calling `opt.step` once.
    pub fn apply_grads(&mut self, grads: &MlpGrads, opt: &mut dyn Optimizer) {
        assert_eq!(self.layers.len(), grads.layers.len(), "grad shape mismatch");
        opt.begin_step(self.num_params());
        let mut off = 0;
        for (layer, lg) in self.layers.iter_mut().zip(&grads.layers) {
            opt.step_segment(off, layer.weights.as_mut_slice(), lg.weights.as_slice());
            off += lg.weights.rows() * lg.weights.cols();
            opt.step_segment(off, &mut layer.bias, &lg.bias);
            off += lg.bias.len();
        }
    }

    /// One full MSE training step on a single example. Returns the loss
    /// *before* the update.
    ///
    /// This is the compatibility per-sample API (used by the single-stream
    /// fork experiment); the streaming models train through the batched
    /// workspace path in `batch.rs`, which is bitwise identical to this one
    /// at batch size 1.
    pub fn train_step_mse(&mut self, x: &[f64], target: &[f64], opt: &mut dyn Optimizer) -> f64 {
        let cache = self.forward(x);
        let loss = mse(cache.output(), target);
        let grad_out = mse_grad(cache.output(), target);
        let mut grads = self.zero_grads();
        self.backward(&cache, &grad_out, &mut grads);
        self.apply_grads(&grads, opt);
        loss
    }

    /// `true` if every parameter is finite (guards against divergence during
    /// streaming fine-tuning).
    pub fn is_finite(&self) -> bool {
        self.layers.iter().all(|l| l.weights.is_finite() && l.bias.iter().all(|b| b.is_finite()))
    }

    /// `true` iff `other` has the same architecture (layer shapes and
    /// activations) and **bitwise identical** parameters.
    ///
    /// This is the eligibility check for cross-stream batched inference: a
    /// fleet may push several streams' inputs through one weight matrix
    /// only when the streams' networks are exact clones — bit equality
    /// (`f64::to_bits`, so `-0.0 ≠ 0.0` and NaNs compare by payload) is
    /// what makes the shared forward pass provably identical to each
    /// stream's own.
    pub fn params_equal(&self, other: &Mlp) -> bool {
        self.layers.len() == other.layers.len()
            && self.layers.iter().zip(&other.layers).all(|(a, b)| {
                a.activation == b.activation
                    && a.weights.shape() == b.weights.shape()
                    && a.bias.len() == b.bias.len()
                    && a.weights
                        .as_slice()
                        .iter()
                        .zip(b.weights.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
                    && a.bias.iter().zip(&b.bias).all(|(x, y)| x.to_bits() == y.to_bits())
            })
    }
}

impl MlpGrads {
    /// Flattens gradients in the same order as [`Mlp::params_flat`].
    pub fn flatten(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for layer in &self.layers {
            out.extend_from_slice(layer.weights.as_slice());
            out.extend_from_slice(&layer.bias);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sad_tensor::{Adam, Sgd};

    fn tiny_mlp(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&[3, 4, 2], &[Activation::Tanh, Activation::Identity], &mut rng)
    }

    #[test]
    fn infer_matches_forward() {
        let mlp = tiny_mlp(3);
        let x = [0.2, -0.4, 0.9];
        let cache = mlp.forward(&x);
        assert_eq!(mlp.infer(&x), cache.output());
    }

    #[test]
    fn params_round_trip() {
        let mut mlp = tiny_mlp(5);
        let flat = mlp.params_flat();
        assert_eq!(flat.len(), mlp.num_params());
        let mut other = tiny_mlp(99);
        other.set_params_flat(&flat);
        let x = [0.1, 0.2, 0.3];
        assert_eq!(mlp.infer(&x), other.infer(&x));
        // Round trip is exact.
        mlp.set_params_flat(&flat);
        assert_eq!(mlp.params_flat(), flat);
    }

    /// Finite-difference check of the full-network gradient.
    #[test]
    fn grad_check_full_network() {
        let mut mlp = tiny_mlp(11);
        let x = [0.3, -0.1, 0.5];
        let target = [0.2, -0.7];

        let cache = mlp.forward(&x);
        let grad_out = mse_grad(cache.output(), &target);
        let mut grads = mlp.zero_grads();
        let grad_in = mlp.backward(&cache, &grad_out, &mut grads);
        let flat_grads = grads.flatten();

        let eps = 1e-6;
        let mut params = mlp.params_flat();
        for k in 0..params.len() {
            let orig = params[k];
            params[k] = orig + eps;
            mlp.set_params_flat(&params);
            let lp = mse(&mlp.infer(&x), &target);
            params[k] = orig - eps;
            mlp.set_params_flat(&params);
            let lm = mse(&mlp.infer(&x), &target);
            params[k] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - flat_grads[k]).abs() < 1e-5, "param {k}: fd {fd} vs {}", flat_grads[k]);
        }
        mlp.set_params_flat(&params);

        // Input gradient.
        for k in 0..x.len() {
            let mut xp = x;
            xp[k] += eps;
            let mut xm = x;
            xm[k] -= eps;
            let fd = (mse(&mlp.infer(&xp), &target) - mse(&mlp.infer(&xm), &target)) / (2.0 * eps);
            assert!((fd - grad_in[k]).abs() < 1e-5, "dx[{k}]");
        }
    }

    #[test]
    fn sgd_training_reduces_loss() {
        let mut mlp = tiny_mlp(21);
        let mut opt = Sgd::new(0.05);
        let x = [0.5, -0.5, 1.0];
        let target = [1.0, -1.0];
        let first = mlp.train_step_mse(&x, &target, &mut opt);
        let mut last = first;
        for _ in 0..300 {
            last = mlp.train_step_mse(&x, &target, &mut opt);
        }
        assert!(last < first * 0.05, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn adam_learns_identity_map() {
        // Train a 2-2 linear network to reproduce its input on a few points.
        let mut rng = StdRng::seed_from_u64(77);
        let mut mlp = Mlp::new(&[2, 8, 2], &[Activation::Tanh, Activation::Identity], &mut rng);
        let mut opt = Adam::new(0.01);
        let points: Vec<[f64; 2]> = vec![[0.1, 0.2], [-0.3, 0.4], [0.5, -0.5], [0.0, 0.3]];
        for _ in 0..600 {
            for p in &points {
                mlp.train_step_mse(p, p, &mut opt);
            }
        }
        for p in &points {
            let y = mlp.infer(p);
            assert!(mse(&y, p) < 1e-3, "point {p:?} -> {y:?}");
        }
    }

    #[test]
    fn params_equal_detects_clones_and_divergence() {
        let mlp = tiny_mlp(51);
        let mut clone = mlp.clone();
        assert!(mlp.params_equal(&clone));
        let mut params = clone.params_flat();
        params[3] = f64::from_bits(params[3].to_bits() ^ 1); // one-ulp drift breaks bit equality
        clone.set_params_flat(&params);
        assert!(!mlp.params_equal(&clone));
        // Different architecture never compares equal.
        let mut rng = StdRng::seed_from_u64(1);
        let other = Mlp::new(&[3, 5, 2], &[Activation::Tanh, Activation::Identity], &mut rng);
        assert!(!mlp.params_equal(&other));
    }

    #[test]
    fn is_finite_detects_divergence() {
        let mut mlp = tiny_mlp(41);
        assert!(mlp.is_finite());
        let mut params = mlp.params_flat();
        params[0] = f64::INFINITY;
        mlp.set_params_flat(&params);
        assert!(!mlp.is_finite());
    }

    #[test]
    #[should_panic(expected = "one activation per layer")]
    fn wrong_activation_count_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Mlp::new(&[2, 2], &[], &mut rng);
    }

    #[test]
    #[should_panic(expected = "layer dimension chain broken")]
    fn broken_layer_chain_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let l1 = Dense::xavier(2, 3, Activation::Identity, &mut rng);
        let l2 = Dense::xavier(4, 2, Activation::Identity, &mut rng);
        let _ = Mlp::from_layers(vec![l1, l2]);
    }
}
