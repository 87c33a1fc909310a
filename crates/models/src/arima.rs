//! Online ARIMA (Liu et al. 2016, as adapted in paper §IV-C).
//!
//! The ARIMA(q, d, q′) model is approximated by an ARIMA(q+m, d, 0) model
//! without noise terms, trained by online gradient descent:
//!
//! ```text
//! s̃_t(γ) = Σ_{i=1..L} γ_i ∇ᵈ s_{t−i}  +  Σ_{i=0..d−1} ∇ⁱ s_{t−1}
//! ```
//!
//! with the differencing operator applied via binomial coefficients,
//! `∇ᵈ s_t = Σ_{i=0..d} (−1)ⁱ C(d,i) s_{t−i}`. The coefficient vector `γ`
//! is the only model parameter.
//!
//! The paper's window constraint is `w = q + m + d`. Computing
//! `∇ᵈ s_{t−L}` requires `s_{t−L−d}`, so with only `w` in-window values the
//! usable lag count is `L = w − d − 1` (one fewer than the paper's ideal,
//! which implicitly assumes `s_{t−w}` is still accessible).
//!
//! **Multivariate handling** (§IV-C): the model "will simply learn the
//! behavior of all channels at once, as if they were part of the same
//! univariate stream" — one shared `γ` applied to every channel
//! independently.

use sad_core::{FeatureVector, ModelOutput, StreamModel};

/// Online ARIMA with shared coefficients across channels.
#[derive(Debug, Clone)]
pub struct OnlineArima {
    /// Differencing order `d`.
    d: usize,
    /// OGD learning rate.
    lr: f64,
    /// Coefficients `γ ∈ R^L`, lazily sized to `w − d − 1` on first use.
    gamma: Vec<f64>,
    /// Binomial coefficients `(−1)ⁱ C(d,i)` for the differencing operator.
    diff_coeffs: Vec<f64>,
    /// Scratch: one channel's window, filled from the strided
    /// `FeatureVector::channel_iter`, so predict and fine-tune steps
    /// allocate no per-channel vector.
    chan: Vec<f64>,
    /// Scratch: lag regressor vector `z`.
    z: Vec<f64>,
}

impl OnlineArima {
    /// Gradient-norm clip keeping single outliers from destroying `γ`.
    const GRAD_CLIP: f64 = 1e3;

    /// Creates an online ARIMA model with differencing order `d` and
    /// OGD learning rate `lr`.
    pub fn new(d: usize, lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        let diff_coeffs = (0..=d)
            .map(|i| if i % 2 == 0 { binomial(d, i) } else { -binomial(d, i) })
            .collect();
        Self { d, lr, gamma: Vec::new(), diff_coeffs, chan: Vec::new(), z: Vec::new() }
    }

    /// Current coefficient vector `γ` (empty before the first fit).
    pub fn gamma(&self) -> &[f64] {
        &self.gamma
    }

    /// Differencing order.
    pub fn d(&self) -> usize {
        self.d
    }

    fn lag_count(&self, w: usize) -> usize {
        assert!(
            w > self.d + 1,
            "window length {w} too short for differencing order {}",
            self.d
        );
        w - self.d - 1
    }

    fn ensure_gamma(&mut self, w: usize) {
        let len = self.lag_count(w);
        if self.gamma.len() != len {
            // Zero init: the prediction starts as the pure integration term
            // Σ ∇ⁱ s_{t−1}, which for d=1 is the persistence forecast.
            self.gamma = vec![0.0; len];
        }
    }

    /// `∇ᵈ` applied at index `t` of `series` (needs `t ≥ d`).
    fn diff(&self, series: &[f64], t: usize) -> f64 {
        debug_assert!(t >= self.d);
        self.diff_coeffs.iter().enumerate().map(|(i, &c)| c * series[t - i]).sum()
    }

    /// Prediction of `series[t]` from `series[..t]`, writing the lag
    /// regressor vector `z` (needed for the gradient) into the supplied
    /// scratch buffer. Arithmetic order is identical to the historical
    /// allocating path, so trained trajectories are bitwise unchanged.
    ///
    /// `series` holds one channel's window values; `t = series.len() − 1`.
    fn predict_into(&self, series: &[f64], z: &mut Vec<f64>) -> f64 {
        let t = series.len() - 1;
        let lags = self.gamma.len();
        // Regressors z_i = ∇ᵈ s_{t−i}, i = 1..=L.
        z.clear();
        z.extend((1..=lags).map(|i| self.diff(series, t - i)));
        let ar_term: f64 = self.gamma.iter().zip(z.iter()).map(|(g, zi)| g * zi).sum();
        // Integration term Σ_{i=0..d−1} ∇ⁱ s_{t−1}.
        let integration: f64 = (0..self.d).map(|i| diff_at(series, t - 1, i)).sum();
        ar_term + integration
    }

    /// One OGD step on one channel window: squared loss on the final
    /// value, gradient `2(s̃ − s) z` (norm-clipped). Runs entirely on the
    /// reusable `z` scratch buffer.
    fn train_channel(&mut self, series: &[f64]) {
        let mut z = std::mem::take(&mut self.z);
        let pred = self.predict_into(series, &mut z);
        let err = pred - series[series.len() - 1];
        if err.is_finite() {
            let mut scale = 2.0 * err;
            let gnorm = scale.abs() * z.iter().map(|v| v * v).sum::<f64>().sqrt();
            if gnorm > Self::GRAD_CLIP {
                scale *= Self::GRAD_CLIP / gnorm;
            }
            for (g, zi) in self.gamma.iter_mut().zip(&z) {
                *g -= self.lr * scale * zi;
            }
        }
        self.z = z;
    }
}

impl StreamModel for OnlineArima {
    fn name(&self) -> &'static str {
        "Online ARIMA"
    }

    fn predict(&mut self, x: &FeatureVector) -> ModelOutput {
        self.ensure_gamma(x.w());
        let mut chan = std::mem::take(&mut self.chan);
        let mut z = std::mem::take(&mut self.z);
        let forecast: Vec<f64> = (0..x.n())
            .map(|j| {
                chan.clear();
                chan.extend(x.channel_iter(j));
                self.predict_into(&chan, &mut z)
            })
            .collect();
        self.chan = chan;
        self.z = z;
        ModelOutput::Forecast(forecast)
    }

    fn fit_initial(&mut self, train: &[FeatureVector], epochs: usize) {
        if train.is_empty() {
            return;
        }
        self.ensure_gamma(train[0].w());
        for _ in 0..epochs {
            self.fine_tune(train);
        }
    }

    fn fine_tune(&mut self, train: &[FeatureVector]) {
        if train.is_empty() {
            return;
        }
        self.ensure_gamma(train[0].w());
        let mut chan = std::mem::take(&mut self.chan);
        for x in train {
            for j in 0..x.n() {
                chan.clear();
                chan.extend(x.channel_iter(j));
                self.train_channel(&chan);
            }
        }
        self.chan = chan;
    }

    fn clone_box(&self) -> Box<dyn StreamModel> {
        Box::new(self.clone())
    }
}

/// `∇ᵒʳᵈᵉʳ series[t]` computed directly from binomial coefficients.
fn diff_at(series: &[f64], t: usize, order: usize) -> f64 {
    debug_assert!(t >= order);
    (0..=order)
        .map(|k| {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            sign * binomial(order, k) * series[t - k]
        })
        .sum()
}

fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut result = 1.0;
    for i in 0..k {
        result = result * (n - i) as f64 / (i + 1) as f64;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window_from(series: &[f64]) -> FeatureVector {
        FeatureVector::new(series.to_vec(), series.len(), 1)
    }

    /// The forecast of a one-channel window.
    fn forecast(m: &mut OnlineArima, x: &FeatureVector) -> f64 {
        match m.predict(x) {
            ModelOutput::Forecast(f) => f[0],
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn binomial_reference_values() {
        assert_eq!(binomial(0, 0), 1.0);
        assert_eq!(binomial(4, 2), 6.0);
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(3, 7), 0.0);
    }

    #[test]
    fn differencing_matches_manual() {
        let m = OnlineArima::new(1, 0.01);
        // ∇ s_t = s_t − s_{t−1}
        assert_eq!(m.diff(&[1.0, 4.0, 9.0], 2), 5.0);
        let m2 = OnlineArima::new(2, 0.01);
        // ∇² s_t = s_t − 2 s_{t−1} + s_{t−2}
        assert_eq!(m2.diff(&[1.0, 4.0, 9.0], 2), 2.0);
    }

    #[test]
    fn zero_gamma_d1_gives_persistence_forecast() {
        // With γ = 0 and d = 1 the prediction is ∇⁰ s_{t−1} = s_{t−1}.
        let mut m = OnlineArima::new(1, 0.01);
        let x = window_from(&[1.0, 2.0, 3.0, 4.0, 7.0]);
        match m.predict(&x) {
            ModelOutput::Forecast(f) => assert_eq!(f, vec![4.0]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn learns_linear_trend() {
        // s_t = 2t: after differencing once, ∇s is constant 2; an AR model
        // on ∇s with γ summing to 1 is exact. Training must beat persistence.
        let mut m = OnlineArima::new(1, 0.01);
        let series: Vec<f64> = (0..10).map(|t| 2.0 * t as f64).collect();
        let windows: Vec<FeatureVector> = series
            .windows(6)
            .map(window_from)
            .collect();
        m.fit_initial(&windows, 200);
        let x = window_from(&[20.0, 22.0, 24.0, 26.0, 28.0, 30.0]);
        let pred = forecast(&mut m, &x);
        // Persistence would predict 28; the trained model must be closer to 30.
        assert!((pred - 30.0).abs() < 1.0, "prediction {pred}");
    }

    #[test]
    fn learns_ar1_process() {
        // s_t = 0.8 s_{t−1} (+ deterministic pseudo noise), d = 0.
        let mut m = OnlineArima::new(0, 0.02);
        let mut series = vec![1.0];
        for t in 1..300 {
            let noise = ((t * 37 % 11) as f64 - 5.0) * 0.002;
            series.push(0.8 * series[t - 1] + noise + 0.2);
        }
        let windows: Vec<FeatureVector> = series.windows(8).map(window_from).collect();
        m.fit_initial(&windows, 30);
        // Steady state is 1.0; prediction from a steady window should be ≈ 1.
        let x = window_from(&[1.0; 8]);
        let pred = forecast(&mut m, &x);
        assert!((pred - 1.0).abs() < 0.15, "prediction {pred}");
    }

    #[test]
    fn multivariate_uses_shared_coefficients() {
        let mut m = OnlineArima::new(1, 0.01);
        // Two channels, both linear: shared γ must fit both.
        let n = 2;
        let w = 6;
        let windows: Vec<FeatureVector> = (0..20)
            .map(|start| {
                let data: Vec<f64> = (0..w)
                    .flat_map(|i| {
                        let t = (start + i) as f64;
                        vec![t, 10.0 + 2.0 * t]
                    })
                    .collect();
                FeatureVector::new(data, w, n)
            })
            .collect();
        m.fit_initial(&windows, 100);
        match m.predict(&windows[19]) {
            ModelOutput::Forecast(f) => {
                assert_eq!(f.len(), 2);
                let t_last = (19 + w - 1) as f64;
                assert!((f[0] - t_last).abs() < 1.0, "channel 0: {}", f[0]);
                assert!((f[1] - (10.0 + 2.0 * t_last)).abs() < 2.0, "channel 1: {}", f[1]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gradient_clipping_prevents_divergence() {
        let mut m = OnlineArima::new(1, 0.5); // aggressive lr
        let series: Vec<f64> = (0..12).map(|t| (t as f64) * 1e6).collect(); // huge scale
        let windows: Vec<FeatureVector> = series.windows(6).map(window_from).collect();
        m.fit_initial(&windows, 50);
        assert!(m.gamma().iter().all(|g| g.is_finite()), "γ stayed finite: {:?}", m.gamma());
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let mut m = OnlineArima::new(1, 0.01);
        m.fit_initial(&[], 10);
        m.fine_tune(&[]);
        assert!(m.gamma().is_empty());
    }

    #[test]
    #[should_panic(expected = "too short for differencing")]
    fn window_shorter_than_d_panics() {
        let mut m = OnlineArima::new(3, 0.01);
        let x = window_from(&[1.0, 2.0, 3.0]);
        let _ = m.predict(&x);
    }
}
