//! Nonconformity measures (paper Definition III.3 and §IV-D).
//!
//! A nonconformity measure maps `(x_t, θ_t)` to a score in `[0, 1]` with 0
//! meaning "normal" and 1 "anomalous". The paper uses two:
//!
//! * **Cosine similarity**: `a_t = 1 − cos(x_t, x̂_t)` for reconstruction
//!   models, or `1 − cos(s_t, ŝ_t)` for forecasting models in the
//!   multivariate case.
//! * **Isolation-forest score**: PCB-iForest's native `2^{−E(h)/c(n)}`,
//!   which is already in `[0, 1]`.
//!
//! `1 − cos` naturally lives in `[0, 2]`; values above 1 (anti-correlated
//! prediction) are clamped to 1, which keeps the paper's "map to `[0, 1]`"
//! requirement while preserving the ordering of all anomalous scores below
//! the clamp.

use crate::model::ModelOutput;
use crate::repr::FeatureVector;
use sad_tensor::cosine_similarity;

/// Which nonconformity formula a pipeline uses (for reporting/registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NonconformityKind {
    /// `1 − cosine similarity` between input and prediction.
    CosineSimilarity,
    /// The isolation-forest score passed through unchanged.
    IForestScore,
}

impl NonconformityKind {
    /// Display label matching the paper's Table I.
    pub fn label(self) -> &'static str {
        match self {
            NonconformityKind::CosineSimilarity => "Cosine similarity",
            NonconformityKind::IForestScore => "iForest score",
        }
    }
}

/// Computes the nonconformity score `a_t ∈ [0, 1]` for a model output.
///
/// Dispatch follows §IV-D: reconstructions compare against the full feature
/// vector, forecasts against the most recent stream vector `s_t`, and
/// direct scores pass through (clamped defensively). A comparison that
/// comes out NaN — a NaN in the window, the prediction or the direct score
/// — scores 1.0: maximally suspicious, not silently normal.
///
/// # Panics
/// Panics if a reconstruction/forecast has the wrong dimensionality.
pub fn nonconformity(x: &FeatureVector, output: &ModelOutput) -> f64 {
    let a = match output {
        ModelOutput::Reconstruction(r) => {
            assert_eq!(r.len(), x.dim(), "reconstruction dimensionality mismatch");
            1.0 - cosine_similarity(x.as_slice(), r)
        }
        ModelOutput::Forecast(f) => {
            assert_eq!(f.len(), x.n(), "forecast dimensionality mismatch");
            1.0 - cosine_similarity(x.last_step(), f)
        }
        ModelOutput::Score(s) => *s,
    };
    if a.is_nan() {
        1.0
    } else {
        a.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(data: Vec<f64>, w: usize, n: usize) -> FeatureVector {
        FeatureVector::new(data, w, n)
    }

    #[test]
    fn perfect_reconstruction_scores_zero() {
        let x = fv(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let a = nonconformity(&x, &ModelOutput::Reconstruction(x.as_slice().to_vec()));
        assert!(a.abs() < 1e-12);
    }

    #[test]
    fn scaled_reconstruction_still_scores_zero() {
        // Cosine similarity is scale invariant — the paper's measure judges
        // direction, not magnitude.
        let x = fv(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let scaled: Vec<f64> = x.as_slice().iter().map(|v| v * 3.0).collect();
        let a = nonconformity(&x, &ModelOutput::Reconstruction(scaled));
        assert!(a.abs() < 1e-12);
    }

    #[test]
    fn orthogonal_reconstruction_scores_one() {
        let x = fv(vec![1.0, 0.0], 2, 1);
        let a = nonconformity(&x, &ModelOutput::Reconstruction(vec![0.0, 1.0]));
        assert!((a - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anti_correlated_reconstruction_clamps_to_one() {
        let x = fv(vec![1.0, 1.0], 2, 1);
        let a = nonconformity(&x, &ModelOutput::Reconstruction(vec![-1.0, -1.0]));
        assert_eq!(a, 1.0);
    }

    #[test]
    fn forecast_compares_last_stream_vector() {
        let x = fv(vec![9.0, 9.0, 1.0, 0.0], 2, 2); // s_t = [1, 0]
        let perfect = nonconformity(&x, &ModelOutput::Forecast(vec![2.0, 0.0]));
        assert!(perfect.abs() < 1e-12, "same direction forecast is normal");
        let orthogonal = nonconformity(&x, &ModelOutput::Forecast(vec![0.0, 5.0]));
        assert!((orthogonal - 1.0).abs() < 1e-12);
    }

    #[test]
    fn direct_score_passes_through_clamped() {
        let x = fv(vec![0.0, 0.0], 2, 1);
        assert_eq!(nonconformity(&x, &ModelOutput::Score(0.42)), 0.42);
        assert_eq!(nonconformity(&x, &ModelOutput::Score(7.0)), 1.0);
        assert_eq!(nonconformity(&x, &ModelOutput::Score(-1.0)), 0.0);
        assert_eq!(nonconformity(&x, &ModelOutput::Score(f64::NAN)), 1.0);
    }

    /// A NaN in the prediction or in the window makes the cosine NaN; an
    /// infinite prediction does too (∞/∞). Each scores 1.0.
    #[test]
    fn nan_comparison_scores_one() {
        let x = fv(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let with_nan = fv(vec![1.0, 2.0, f64::NAN, 4.0], 2, 2);
        let cases = [
            (&x, ModelOutput::Reconstruction(vec![1.0, f64::NAN, 3.0, 4.0])),
            (&x, ModelOutput::Reconstruction(vec![f64::INFINITY, 2.0, 3.0, 4.0])),
            (&x, ModelOutput::Forecast(vec![f64::NAN, 4.0])),
            (&with_nan, ModelOutput::Reconstruction(vec![1.0, 2.0, 3.0, 4.0])),
            (&with_nan, ModelOutput::Forecast(vec![3.0, 4.0])),
        ];
        for (x, output) in &cases {
            assert_eq!(nonconformity(x, output), 1.0, "{output:?}");
        }
    }

    #[test]
    fn zero_input_is_maximally_strange() {
        // A zero feature vector has no direction: cosine is defined as 0,
        // so the nonconformity saturates at 1 (conservative).
        let x = fv(vec![0.0, 0.0], 2, 1);
        let a = nonconformity(&x, &ModelOutput::Reconstruction(vec![1.0, 1.0]));
        assert_eq!(a, 1.0);
    }

    #[test]
    #[should_panic(expected = "forecast dimensionality mismatch")]
    fn wrong_forecast_dim_panics() {
        let x = fv(vec![0.0, 0.0], 2, 1);
        let _ = nonconformity(&x, &ModelOutput::Forecast(vec![1.0, 2.0]));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Nonconformity always lands in [0, 1] for any finite inputs.
            #[test]
            fn always_in_unit_interval(
                xs in proptest::collection::vec(-1e3f64..1e3, 4),
                rs in proptest::collection::vec(-1e3f64..1e3, 4),
            ) {
                let x = fv(xs, 2, 2);
                let a = nonconformity(&x, &ModelOutput::Reconstruction(rs));
                prop_assert!((0.0..=1.0).contains(&a));
            }
        }
    }
}
