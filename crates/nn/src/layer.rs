//! Fully-connected layer with hand-derived backpropagation.

use crate::activation::Activation;
use rand::Rng;
use sad_tensor::{Matrix, Scalar};

/// A fully-connected layer `y = act(W x + b)` over precision `T` (default
/// `f64`, the training precision; `Dense<f32>` layers make up an
/// inference-only [`crate::Mlp`] snapshot).
///
/// `W` is `out_dim x in_dim`; the paper writes the affine map as
/// `FC_i(x) = σ(x * W_i + b_i)` (§IV-C) — identical up to transposition.
#[derive(Debug, Clone)]
pub struct Dense<T: Scalar = f64> {
    /// Weight matrix, `out_dim x in_dim`.
    pub weights: Matrix<T>,
    /// Bias vector, length `out_dim`.
    pub bias: Vec<T>,
    /// Element-wise nonlinearity.
    pub activation: Activation,
}

/// Parameter gradients of one layer.
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// `∂L/∂W`, same shape as the weights.
    pub weights: Matrix,
    /// `∂L/∂b`.
    pub bias: Vec<f64>,
}

impl<T: Scalar> Dense<T> {
    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Number of scalar parameters (`out*in + out`).
    pub fn num_params(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Creates a layer by converting every parameter of `src` to `T`.
    pub(crate) fn from_precision<U: Scalar>(src: &Dense<U>) -> Self {
        Self {
            weights: Matrix::from_precision(&src.weights),
            bias: src.bias.iter().map(|&b| T::from_f64(b.to_f64())).collect(),
            activation: src.activation,
        }
    }

    /// Re-converts every parameter from `src` in place, without heap
    /// allocation — how an inference snapshot follows its trained source.
    ///
    /// # Panics
    /// Panics if `src` has a different shape.
    pub(crate) fn convert_from<U: Scalar>(&mut self, src: &Dense<U>) {
        self.weights.convert_from(&src.weights);
        assert_eq!(self.bias.len(), src.bias.len(), "convert_from bias width mismatch");
        for (o, &b) in self.bias.iter_mut().zip(&src.bias) {
            *o = T::from_f64(b.to_f64());
        }
        self.activation = src.activation;
    }
}

impl Dense {
    /// Creates a layer with Xavier-uniform initialized weights and zero bias.
    pub fn xavier(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut impl Rng) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "layer dimensions must be positive");
        let bound = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let weights = Matrix::from_fn(out_dim, in_dim, |_, _| rng.random_range(-bound..bound));
        Self { weights, bias: vec![0.0; out_dim], activation }
    }

    /// Forward pass without caching (inference only).
    pub fn infer(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim(), "Dense infer: input dim mismatch");
        let mut out = self.weights.matvec(x);
        for (o, b) in out.iter_mut().zip(&self.bias) {
            *o += b;
        }
        self.activation.apply_slice(&mut out);
        out
    }

    /// Backward pass from explicit forward state.
    ///
    /// `input` is the vector the layer was applied to, `output` the
    /// post-activation result of that application (both are owned once by
    /// the caller's cache — the layer never duplicates them). Given
    /// `∂L/∂y` (`grad_out`), accumulates parameter gradients into `grads`
    /// and returns `∂L/∂x`.
    pub fn backward(
        &self,
        input: &[f64],
        output: &[f64],
        grad_out: &[f64],
        grads: &mut DenseGrads,
    ) -> Vec<f64> {
        assert_eq!(grad_out.len(), self.out_dim(), "Dense backward: grad dim mismatch");
        assert_eq!(input.len(), self.in_dim(), "Dense backward: input dim mismatch");
        assert_eq!(output.len(), self.out_dim(), "Dense backward: output dim mismatch");
        // δ = ∂L/∂(Wx+b) = grad_out ⊙ act'(y)
        let delta: Vec<f64> = grad_out
            .iter()
            .zip(output)
            .map(|(&g, &y)| g * self.activation.derivative_from_output(y))
            .collect();
        // ∂L/∂W = δ xᵀ  (outer product), ∂L/∂b = δ
        for (i, &d) in delta.iter().enumerate() {
            if d != 0.0 {
                let row = grads.weights.row_mut(i);
                for (w, &xi) in row.iter_mut().zip(input) {
                    *w += d * xi;
                }
            }
            grads.bias[i] += d;
        }
        // ∂L/∂x = Wᵀ δ
        self.weights.matvec_t(&delta)
    }

    /// Zeroed gradient buffers shaped like this layer.
    pub fn zero_grads(&self) -> DenseGrads {
        DenseGrads {
            weights: Matrix::zeros(self.weights.rows(), self.weights.cols()),
            bias: vec![0.0; self.bias.len()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn infer_linear_known_values() {
        let layer = Dense {
            weights: Matrix::from_rows(&[&[1.0, 2.0], &[0.0, -1.0]]),
            bias: vec![0.5, 1.0],
            activation: Activation::Identity,
        };
        assert_eq!(layer.infer(&[1.0, 1.0]), vec![3.5, 0.0]);
    }

    #[test]
    fn xavier_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Dense::xavier(10, 10, Activation::Sigmoid, &mut rng);
        let bound = (6.0 / 20.0_f64).sqrt();
        assert!(layer.weights.as_slice().iter().all(|w| w.abs() <= bound));
        assert!(layer.bias.iter().all(|&b| b == 0.0));
    }

    /// Central finite-difference check of all gradients of a single layer.
    #[test]
    fn grad_check_single_layer() {
        let mut rng = StdRng::seed_from_u64(42);
        for act in [Activation::Identity, Activation::Sigmoid, Activation::Tanh] {
            let mut layer = Dense::xavier(3, 2, act, &mut rng);
            let x = [0.3, -0.5, 0.8];
            let target = [0.1, -0.2];
            // L = 0.5 * ||y - target||^2  =>  dL/dy = y - target
            let y = layer.infer(&x);
            let grad_out: Vec<f64> = y.iter().zip(&target).map(|(a, b)| a - b).collect();
            let mut grads = layer.zero_grads();
            let grad_in = layer.backward(&x, &y, &grad_out, &mut grads);

            let eps = 1e-6;
            let loss = |l: &Dense, x: &[f64]| -> f64 {
                let y = l.infer(x);
                0.5 * y.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
            };
            // Weights.
            for i in 0..2 {
                for j in 0..3 {
                    let orig = layer.weights[(i, j)];
                    layer.weights[(i, j)] = orig + eps;
                    let lp = loss(&layer, &x);
                    layer.weights[(i, j)] = orig - eps;
                    let lm = loss(&layer, &x);
                    layer.weights[(i, j)] = orig;
                    let fd = (lp - lm) / (2.0 * eps);
                    assert!(
                        (fd - grads.weights[(i, j)]).abs() < 1e-5,
                        "{act:?} dW[{i}{j}] fd {fd} vs {}",
                        grads.weights[(i, j)]
                    );
                }
            }
            // Bias.
            for i in 0..2 {
                let orig = layer.bias[i];
                layer.bias[i] = orig + eps;
                let lp = loss(&layer, &x);
                layer.bias[i] = orig - eps;
                let lm = loss(&layer, &x);
                layer.bias[i] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                assert!((fd - grads.bias[i]).abs() < 1e-5, "{act:?} db[{i}]");
            }
            // Input gradient.
            for k in 0..3 {
                let mut xp = x;
                xp[k] += eps;
                let mut xm = x;
                xm[k] -= eps;
                let fd = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
                assert!((fd - grad_in[k]).abs() < 1e-5, "{act:?} dx[{k}]");
            }
        }
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn wrong_input_dim_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::xavier(3, 2, Activation::Identity, &mut rng);
        let _ = layer.infer(&[1.0]);
    }

    #[test]
    fn num_params_counts_weights_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Dense::xavier(5, 4, Activation::Identity, &mut rng);
        assert_eq!(layer.num_params(), 5 * 4 + 4);
    }
}
