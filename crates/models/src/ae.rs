//! The two-layer reconstruction autoencoder (paper §IV-C).
//!
//! `x̂_t = r⁻¹(σ(r(x_t)·W₁ + b₁)·W₂ + b₂)` — one sigmoid hidden layer, one
//! linear output layer, trained on MSE. It serves as the paper's baseline
//! for reconstruction-based approaches.

use crate::batch_infer::{InferView, Nets};
use crate::scaler::Affine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sad_core::{FeatureVector, ModelOutput, StreamModel};
use sad_nn::{Activation, Mlp, MlpGrads, MlpWorkspace};
use sad_tensor::Adam;

/// Two-layer autoencoder over the flattened feature vector.
///
/// Training runs through the batched, workspace-backed `sad-nn` path: the
/// fine-tune loop packs `batch_size` windows into a row-major matrix and
/// performs zero heap allocations in steady state. The default
/// `batch_size = 1` reproduces the original per-sample SGD trajectory bit
/// for bit (one Adam step per window).
#[derive(Clone)]
pub struct TwoLayerAe {
    net: Option<Mlp>,
    scaler: Option<Affine>,
    opt: Adam,
    /// Reusable batched-training buffers (created with the net).
    ws: Option<MlpWorkspace>,
    grads: Option<MlpGrads>,
    hidden: usize,
    batch_size: usize,
    seed: u64,
}

impl TwoLayerAe {
    /// Creates an AE with `hidden` units and Adam learning rate `lr`.
    pub fn new(hidden: usize, lr: f64, seed: u64) -> Self {
        assert!(hidden > 0, "hidden width must be positive");
        Self {
            net: None,
            scaler: None,
            opt: Adam::new(lr),
            ws: None,
            grads: None,
            hidden,
            batch_size: 1,
            seed,
        }
    }

    /// A reasonable default: hidden = dim/4 clamped to [4, 64], lr 1e-3.
    pub fn for_dim(dim: usize, seed: u64) -> Self {
        Self::new((dim / 4).clamp(4, 64), 1e-3, seed)
    }

    /// Sets the training minibatch size (default 1 = per-sample updates,
    /// matching the original trajectory; larger batches take one
    /// mean-gradient Adam step per chunk).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self.ws = None; // resized lazily on next training call
        self
    }

    fn ensure_net(&mut self, dim: usize) {
        if self.net.is_none() {
            let mut rng = StdRng::seed_from_u64(self.seed);
            self.net = Some(Mlp::new(
                &[dim, self.hidden, dim],
                &[Activation::Sigmoid, Activation::Identity],
                &mut rng,
            ));
        }
        if self.ws.is_none() {
            let net = self.net.as_ref().expect("just initialized");
            self.ws = Some(net.workspace(self.batch_size));
            self.grads = Some(net.zero_grads());
        }
    }

    fn scaled(&self, x: &FeatureVector) -> Vec<f64> {
        match &self.scaler {
            Some(s) => s.transform(x.as_slice()),
            None => x.as_slice().to_vec(),
        }
    }

    /// Inference state for the fleet's cross-stream batched stepping:
    /// the network and the fitted scaler. `None` until the network exists
    /// (i.e. before the first predict/fit call).
    pub(crate) fn infer_view(&self) -> Option<InferView<'_>> {
        let net = self.net.as_ref()?;
        Some(InferView { nets: Nets::Ae(net), scaler: self.scaler.as_ref() })
    }

    /// One training epoch over `train`, batched. Zero heap allocations in
    /// steady state (workspace and gradient buffers are reused).
    fn epoch(&mut self, train: &[FeatureVector]) {
        if train.is_empty() {
            return;
        }
        self.ensure_net(train[0].dim());
        let net = self.net.as_mut().expect("just initialized");
        let ws = self.ws.as_mut().expect("just initialized");
        let grads = self.grads.as_mut().expect("just initialized");
        for chunk in train.chunks(self.batch_size) {
            ws.set_batch(chunk.len());
            for (b, x) in chunk.iter().enumerate() {
                match &self.scaler {
                    Some(s) => s.transform_into(x.as_slice(), ws.input_row_mut(b)),
                    None => ws.input_row_mut(b).copy_from_slice(x.as_slice()),
                }
            }
            net.train_batch_mse_identity(ws, grads, &mut self.opt);
        }
    }
}

impl StreamModel for TwoLayerAe {
    fn name(&self) -> &'static str {
        "2-layer AE"
    }

    fn predict(&mut self, x: &FeatureVector) -> ModelOutput {
        self.ensure_net(x.dim());
        let z = self.scaled(x);
        let net = self.net.as_ref().expect("just initialized");
        let recon_z = net.infer(&z);
        let recon = match &self.scaler {
            Some(s) => s.inverse(&recon_z),
            None => recon_z,
        };
        ModelOutput::Reconstruction(recon)
    }

    fn fit_initial(&mut self, train: &[FeatureVector], epochs: usize) {
        if train.is_empty() {
            return;
        }
        self.scaler = Some(Affine::standardize(train));
        for _ in 0..epochs {
            self.epoch(train);
        }
    }

    fn fine_tune(&mut self, train: &[FeatureVector]) {
        self.epoch(train);
    }

    fn clone_box(&self) -> Box<dyn StreamModel> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sad_core::nonconformity;

    /// A small family of windows from two sinusoids.
    fn sine_windows(count: usize, w: usize) -> Vec<FeatureVector> {
        (0..count)
            .map(|s| {
                let data: Vec<f64> = (0..w)
                    .flat_map(|i| {
                        let t = (s + i) as f64 * 0.3;
                        vec![t.sin(), (t * 0.5).cos() * 2.0]
                    })
                    .collect();
                FeatureVector::new(data, w, 2)
            })
            .collect()
    }

    #[test]
    fn training_reduces_reconstruction_nonconformity() {
        let train = sine_windows(40, 8);
        let mut ae = TwoLayerAe::new(8, 5e-3, 7);
        let mut before = ae.clone();
        before.fit_initial(&train, 0); // scaler only, no training epochs
        ae.fit_initial(&train, 120);
        let probe = &train[20];
        let a_before = nonconformity(probe, &before.predict(probe));
        let a_after = nonconformity(probe, &ae.predict(probe));
        assert!(
            a_after < a_before * 0.5,
            "training must cut the nonconformity: {a_before} -> {a_after}"
        );
        assert!(a_after < 0.1, "trained AE reconstructs the regime: {a_after}");
    }

    #[test]
    fn anomalous_window_scores_higher_than_normal() {
        let train = sine_windows(40, 8);
        let mut ae = TwoLayerAe::new(8, 5e-3, 7);
        ae.fit_initial(&train, 150);
        let normal = &train[10];
        let a_norm = nonconformity(normal, &ae.predict(normal));
        // An out-of-regime window: constant spike.
        let weird = FeatureVector::new(vec![8.0; 16], 8, 2);
        let a_weird = nonconformity(&weird, &ae.predict(&weird));
        assert!(
            a_weird > a_norm * 2.0,
            "anomaly {a_weird} must exceed normal {a_norm}"
        );
    }

    #[test]
    fn fine_tune_adapts_to_new_regime() {
        let train = sine_windows(40, 8);
        let mut ae = TwoLayerAe::new(8, 5e-3, 3);
        ae.fit_initial(&train, 100);
        // New regime: shifted/scaled sinusoids.
        let shifted: Vec<FeatureVector> = sine_windows(40, 8)
            .into_iter()
            .map(|x| {
                let data: Vec<f64> = x.as_slice().iter().map(|v| v * 3.0 + 1.0).collect();
                FeatureVector::new(data, 8, 2)
            })
            .collect();
        let probe = shifted[15].clone();
        let before = nonconformity(&probe, &ae.predict(&probe));
        for _ in 0..60 {
            ae.fine_tune(&shifted);
        }
        let after = nonconformity(&probe, &ae.predict(&probe));
        assert!(after < before, "fine-tuning must adapt: {before} -> {after}");
    }

    #[test]
    fn predict_before_fit_is_usable() {
        let mut ae = TwoLayerAe::new(4, 1e-3, 1);
        let x = FeatureVector::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        match ae.predict(&x) {
            ModelOutput::Reconstruction(r) => {
                assert_eq!(r.len(), 4);
                assert!(r.iter().all(|v| v.is_finite()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let mut ae = TwoLayerAe::new(4, 1e-3, 1);
        ae.fit_initial(&[], 5);
        ae.fine_tune(&[]);
    }
}
