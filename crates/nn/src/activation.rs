//! Element-wise activation functions.

use sad_tensor::Scalar;

/// An element-wise activation function.
///
/// The derivative is expressed *in terms of the activation output* — for
/// every activation used here (`σ' = y(1-y)`, `tanh' = 1-y²`, `relu' = [y>0]`,
/// `id' = 1`) the derivative is recoverable from the output alone, so the
/// layer cache only needs to store post-activation values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `f(x) = x`.
    Identity,
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to a scalar, entirely in `T` arithmetic (no
    /// widen/narrow round-trip): f64 for training and scoring, f32 for
    /// the inference-only serving snapshots.
    #[inline]
    pub fn apply<T: Scalar>(self, x: T) -> T {
        match self {
            Activation::Identity => x,
            Activation::Sigmoid => T::ONE / (T::ONE + (-x).exp()),
            Activation::Relu => x.maxv(T::ZERO),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative `f'(x)` computed from the *output* `y = f(x)`.
    #[inline]
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
        }
    }

    /// Applies the activation to a slice in place.
    pub fn apply_slice<T: Scalar>(self, xs: &mut [T]) {
        for x in xs {
            *x = self.apply(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_range_and_midpoint() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(Activation::Sigmoid.apply(100.0) <= 1.0);
        assert!(Activation::Sigmoid.apply(-100.0) >= 0.0);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in [Activation::Identity, Activation::Sigmoid, Activation::Tanh] {
            for i in -20..=20 {
                let x = i as f64 * 0.25;
                let y = act.apply(x);
                let fd = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let an = act.derivative_from_output(y);
                assert!((fd - an).abs() < 1e-5, "{act:?} at {x}: fd {fd} vs {an}");
            }
        }
        // ReLU away from the kink.
        for x in [-2.0, -0.5, 0.5, 2.0] {
            let y = Activation::Relu.apply(x);
            let fd = (Activation::Relu.apply(x + eps) - Activation::Relu.apply(x - eps)) / (2.0 * eps);
            assert!((fd - Activation::Relu.derivative_from_output(y)).abs() < 1e-5);
        }
    }

    #[test]
    fn apply_slice_applies_elementwise() {
        let mut xs = [-1.0, 0.0, 2.0];
        Activation::Relu.apply_slice(&mut xs);
        assert_eq!(xs, [0.0, 0.0, 2.0]);
    }

    #[test]
    fn tanh_is_odd() {
        for i in 1..10 {
            let x = i as f64 * 0.3;
            assert!((Activation::Tanh.apply(x) + Activation::Tanh.apply(-x)).abs() < 1e-12);
        }
    }
}
