//! USAD — UnSupervised Anomaly Detection adversarial autoencoder
//! (Audibert et al. 2020; paper §IV-C).
//!
//! One encoder `E` is shared by two decoders `D₁, D₂`, giving two
//! autoencoders `AE_i = D_i ∘ E`. Training alternates two objectives whose
//! adversarial weighting grows with the epoch counter `n`:
//!
//! ```text
//! L_AE1 = (1/n)·R₁ + ((n−1)/n)·R_both        (AE₁ fools AE₂)
//! L_AE2 = (1/n)·R₂ − ((n−1)/n)·R_both        (AE₂ spots AE₁'s fakes)
//! R_i    = ‖x − AE_i(x)‖²,   R_both = ‖x − AE₂(AE₁(x))‖²
//!
//! Gradients use the element-mean form of the reconstruction errors (as in
//! the reference implementation's `torch.mean((batch − w)²)`), which keeps
//! the adversarial phase stable independent of the window dimensionality.
//! ```
//!
//! With more epochs the pure reconstruction terms fade in favour of the
//! adversarial terms. The gradients flow through the *shared* encoder on
//! every path (including the re-encoding inside `AE₂(AE₁(x))`), which is
//! exactly what `sad_nn::Mlp::backward`'s input-gradient chaining provides.
//!
//! In the framework the model reports `AE₁(x)` as its reconstruction; the
//! cosine nonconformity then compares it against `x_t` (§IV-D). `predict`
//! is the batched inference loop (`crate::batch_infer`) at one row. The
//! adversarial forward `E → D₁ → E → D₂` is written once
//! (`UsadBuffers::forward`): both training phases and [`Usad::usad_score`]
//! run it.

use crate::batch_infer::{predict_row, InferBatch, InferView, Nets};
use crate::scaler::{scale_into, Affine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sad_core::{FeatureVector, ModelOutput, StreamModel};
use sad_nn::{Activation, Mlp, MlpWorkspace};
use sad_tensor::{Adam, Matrix, Optimizer};

/// Reusable training buffers for the five forward instances of the
/// adversarial step (`E(x)`, `D₁(z)`, `E(r₁)`, `D₂(z₂)`, `D₂(z)`). Each
/// optimizer step forms its gradient from the deltas these hold, so there
/// are no gradient accumulators. Sized once; the steady-state fine-tune
/// loop does not allocate.
#[derive(Clone)]
struct UsadBuffers {
    /// `E(x)` — its input row holds the scaled window `z_in`.
    ws_e: MlpWorkspace,
    /// `D₁(z)` → `r₁`.
    ws_d1: MlpWorkspace,
    /// `E(r₁)` → `z₂` (the re-encoding; a second workspace on the shared
    /// encoder, because both forward instances' activations are needed by
    /// the chained backward pass).
    ws_e2: MlpWorkspace,
    /// `D₂(z₂)` → `R_both`.
    ws_d2b: MlpWorkspace,
    /// `D₂(z)` → `r₂` (phase 2 only).
    ws_d2r: MlpWorkspace,
}

impl UsadBuffers {
    /// The adversarial forward over the window loaded into `ws_e`:
    /// `z = E(x)`, `r₁ = D₁(z)`, `z₂ = E(r₁)`, `R_both = D₂(z₂)`.
    fn forward(&mut self, encoder: &Mlp, dec1: &Mlp, dec2: &Mlp) {
        encoder.forward_batch(&mut self.ws_e);
        self.ws_d1.input_mut().copy_from(self.ws_e.output());
        dec1.forward_batch(&mut self.ws_d1);
        self.ws_e2.input_mut().copy_from(self.ws_d1.output());
        encoder.forward_batch(&mut self.ws_e2);
        self.ws_d2b.input_mut().copy_from(self.ws_e2.output());
        dec2.forward_batch(&mut self.ws_d2b);
    }
}

/// The USAD adversarial autoencoder.
#[derive(Clone)]
pub struct Usad {
    encoder: Option<Mlp>,
    dec1: Option<Mlp>,
    dec2: Option<Mlp>,
    scaler: Option<Affine>,
    bufs: Option<UsadBuffers>,
    /// `predict`'s one-row inference loop, built on its first call.
    infer: Option<InferBatch>,
    opt_e1: Adam,
    opt_d1: Adam,
    opt_e2: Adam,
    opt_d2: Adam,
    latent: usize,
    seed: u64,
    /// Training epoch counter `n` (1-based, as in the loss definition).
    epoch: usize,
}

impl Usad {
    /// Creates a USAD model with latent width `latent` and Adam rate `lr`.
    pub fn new(latent: usize, lr: f64, seed: u64) -> Self {
        assert!(latent > 0, "latent width must be positive");
        Self {
            encoder: None,
            dec1: None,
            dec2: None,
            scaler: None,
            bufs: None,
            infer: None,
            opt_e1: Adam::new(lr),
            opt_d1: Adam::new(lr),
            opt_e2: Adam::new(lr),
            opt_d2: Adam::new(lr),
            latent,
            seed,
            epoch: 0,
        }
    }

    /// A reasonable default: latent = dim/8 clamped to [2, 16], lr 1e-3.
    pub fn for_dim(dim: usize, seed: u64) -> Self {
        Self::new((dim / 8).clamp(2, 16), 1e-3, seed)
    }

    /// Current epoch counter `n`.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    fn ensure_nets(&mut self, dim: usize) {
        if self.encoder.is_some() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Hidden widths scale with the input but are capped: beyond ~64
        // units the reconstruction quality of these corpora saturates while
        // the per-step cost keeps growing quadratically.
        let h1 = (dim / 2).min(64).max(self.latent * 2).max(2);
        let h2 = (dim / 4).min(32).max(self.latent).max(2);
        // Paper: E = FC₃∘FC₂∘FC₁ and mirrored 3-layer decoders, each layer
        // FC_i(x) = σ(xW + b). Hidden layers use zero-centered tanh (trains
        // far better than the logistic sigmoid, which saturates and starves
        // the stacked layers of gradient); the decoders end in the paper's
        // sigmoid so outputs are bounded to [0, 1] — together with min-max
        // input scaling this bounds R_both and keeps the phase-2
        // maximization from diverging (as in the reference implementation).
        let enc_acts = [Activation::Tanh, Activation::Tanh, Activation::Identity];
        let dec_acts = [Activation::Tanh, Activation::Tanh, Activation::Sigmoid];
        let encoder = Mlp::new(&[dim, h1, h2, self.latent], &enc_acts, &mut rng);
        let dec1 = Mlp::new(&[self.latent, h2, h1, dim], &dec_acts, &mut rng);
        let dec2 = Mlp::new(&[self.latent, h2, h1, dim], &dec_acts, &mut rng);
        self.bufs = Some(UsadBuffers {
            ws_e: encoder.workspace(1),
            ws_d1: dec1.workspace(1),
            ws_e2: encoder.workspace(1),
            ws_d2b: dec2.workspace(1),
            ws_d2r: dec2.workspace(1),
        });
        self.encoder = Some(encoder);
        self.dec1 = Some(dec1);
        self.dec2 = Some(dec2);
    }

    /// One adversarial training step on window `x`, through the workspace
    /// path with zero heap allocations: the original per-sample adversarial
    /// step, bit for bit.
    fn train_step(&mut self, x: &FeatureVector) {
        let n = self.epoch.max(1) as f64;
        let w_rec = 1.0 / n;
        let w_adv = (n - 1.0) / n;
        let encoder = self.encoder.as_mut().expect("nets initialized");
        let dec1 = self.dec1.as_mut().expect("nets initialized");
        let dec2 = self.dec2.as_mut().expect("nets initialized");
        let bufs = self.bufs.as_mut().expect("buffers initialized");
        scale_into(self.scaler.as_ref(), x.as_slice(), bufs.ws_e.input_row_mut(0));

        // ---- Phase 1: update {E, D1} on L_AE1 = w_rec·R1 + w_adv·R_both.
        {
            bufs.forward(encoder, dec1, dec2);
            let UsadBuffers { ws_e, ws_d1, ws_e2, ws_d2b, .. } = &mut *bufs;

            // ∂L/∂rboth, back through D2 (frozen this phase: input
            // gradient only) and the re-encoding into ∂L/∂r1.
            mse_grad_scaled(ws_d2b, ws_e.input(), w_adv);
            dec2.backward_batch(ws_d2b, true); // → g_z2
            ws_e2.grad_out_mut().copy_from(ws_d2b.grad_in());
            encoder.backward_batch(ws_e2, true); // → g_r1_adv

            // Direct reconstruction term ∂(w_rec·R1)/∂r1, plus the
            // adversarial term that flowed back through the re-encoding.
            {
                let (_, r1, go) = ws_d1.io_split();
                let z_in = ws_e.input();
                let adv = ws_e2.grad_in();
                let d = r1.cols();
                let scale = 2.0 / d.max(1) as f64;
                for (((g, &p), &t), &a) in
                    go.row_mut(0).iter_mut().zip(r1.row(0)).zip(z_in.row(0)).zip(adv.row(0))
                {
                    *g = scale * (p - t);
                    *g = *g * w_rec + a;
                }
            }
            dec1.backward_batch(ws_d1, true); // → g_z
            ws_e.grad_out_mut().copy_from(ws_d1.grad_in());
            encoder.backward_batch(ws_e, false);

            // E's gradient sums its two backward passes in the order they
            // ran: the re-encoding, then the first encoding.
            self.opt_e1.begin_step(encoder.num_params());
            encoder.step_terms(&[&*ws_e2, &*ws_e], &mut self.opt_e1, 0);
            self.opt_d1.begin_step(dec1.num_params());
            dec1.step_terms(&[&*ws_d1], &mut self.opt_d1, 0);
        }

        // ---- Phase 2: update {E, D2} on L_AE2 = w_rec·R2 − w_adv·R_both.
        {
            bufs.forward(encoder, dec1, dec2); // inputs still loaded
            let UsadBuffers { ws_e, ws_d1, ws_e2, ws_d2b, ws_d2r } = &mut *bufs;
            ws_d2r.input_mut().copy_from(ws_e.output());
            dec2.forward_batch(ws_d2r); // r2

            // + w_rec·R2 path: x → E → z → D2 → r2.
            mse_grad_scaled(ws_d2r, ws_e.input(), w_rec);
            dec2.backward_batch(ws_d2r, true); // → g_z_a

            // − w_adv·R_both path: …D1(E(x)) → E → z2 → D2 → rboth, with D1
            // frozen this phase (input gradient only).
            mse_grad_scaled(ws_d2b, ws_e.input(), -w_adv);
            dec2.backward_batch(ws_d2b, true); // → g_z2
            ws_e2.grad_out_mut().copy_from(ws_d2b.grad_in());
            encoder.backward_batch(ws_e2, true); // → g_r1
            ws_d1.grad_out_mut().copy_from(ws_e2.grad_in());
            dec1.backward_batch(ws_d1, true); // → g_z_b

            // g_z = g_z_a + g_z_b, through the first encoding.
            {
                let go = ws_e.grad_out_mut();
                for ((g, &a), &c) in
                    go.row_mut(0).iter_mut().zip(ws_d2r.grad_in().row(0)).zip(ws_d1.grad_in().row(0))
                {
                    *g = a + c;
                }
            }
            encoder.backward_batch(ws_e, false);

            self.opt_e2.begin_step(encoder.num_params());
            encoder.step_terms(&[&*ws_e2, &*ws_e], &mut self.opt_e2, 0);
            self.opt_d2.begin_step(dec2.num_params());
            dec2.step_terms(&[&*ws_d2r, &*ws_d2b], &mut self.opt_d2, 0);
        }
    }

    /// Inference state for the fleet's cross-stream batched stepping:
    /// encoder, decoder 1 and the fitted scaler — `predict` only touches
    /// `AE₁ = D₁ ∘ E`, so `dec2` does not participate. `None` until the
    /// networks exist.
    pub(crate) fn infer_view(&self) -> Option<InferView<'_>> {
        let (encoder, dec1) = (self.encoder.as_ref()?, self.dec1.as_ref()?);
        Some(InferView { nets: Nets::Usad(encoder, dec1), scaler: self.scaler.as_ref() })
    }

    /// The USAD inference score `α·R₁ + β·R_both` (Audibert et al. Eq. 9),
    /// exposed for analyses beyond the framework's cosine nonconformity.
    /// One adversarial forward on the training buffers.
    pub fn usad_score(&mut self, x: &FeatureVector, alpha: f64, beta: f64) -> f64 {
        self.ensure_nets(x.dim());
        let encoder = self.encoder.as_ref().expect("nets initialized");
        let dec1 = self.dec1.as_ref().expect("nets initialized");
        let dec2 = self.dec2.as_ref().expect("nets initialized");
        let bufs = self.bufs.as_mut().expect("buffers initialized");
        scale_into(self.scaler.as_ref(), x.as_slice(), bufs.ws_e.input_row_mut(0));
        bufs.forward(encoder, dec1, dec2);
        let z_in = bufs.ws_e.input().row(0);
        let d = z_in.len() as f64;
        let err = |r: &[f64]| z_in.iter().zip(r).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / d;
        alpha * err(bufs.ws_d1.output_row(0)) + beta * err(bufs.ws_d2b.output_row(0))
    }
}

/// Writes `factor · ∂mean((out − target)²)/∂out` into the workspace's output
/// gradient.
///
/// The two-operation form (`scale·(p − t)` then `*= factor`) replicates the
/// original per-sample code path (`mse_grad` followed by a separate scaling
/// pass) exactly, bit for bit.
fn mse_grad_scaled(ws: &mut MlpWorkspace, target: &Matrix, factor: f64) {
    let (_, out, go) = ws.io_split();
    let d = out.cols();
    let scale = 2.0 / d.max(1) as f64;
    for ((g, &p), &t) in go.row_mut(0).iter_mut().zip(out.row(0)).zip(target.row(0)) {
        *g = scale * (p - t);
        *g *= factor;
    }
}

impl StreamModel for Usad {
    fn name(&self) -> &'static str {
        "USAD"
    }

    fn predict(&mut self, x: &FeatureVector) -> ModelOutput {
        self.ensure_nets(x.dim());
        let (encoder, dec1) = (self.encoder.as_ref(), self.dec1.as_ref());
        let nets = Nets::Usad(encoder.expect("nets initialized"), dec1.expect("nets initialized"));
        predict_row(&mut self.infer, InferView { nets, scaler: self.scaler.as_ref() }, x)
    }

    fn fit_initial(&mut self, train: &[FeatureVector], epochs: usize) {
        if train.is_empty() {
            return;
        }
        self.scaler = Some(Affine::min_max(train));
        self.ensure_nets(train[0].dim());
        for _ in 0..epochs {
            self.fine_tune(train);
        }
    }

    fn fine_tune(&mut self, train: &[FeatureVector]) {
        if train.is_empty() {
            return;
        }
        self.ensure_nets(train[0].dim());
        self.epoch += 1;
        for x in train {
            self.train_step(x);
        }
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
    use crate::scaler::tests::transform_ref;
    use sad_core::nonconformity;

    fn sine_windows(count: usize, w: usize) -> Vec<FeatureVector> {
        (0..count)
            .map(|s| {
                let data: Vec<f64> = (0..w)
                    .flat_map(|i| {
                        let t = (s + i) as f64 * 0.4;
                        vec![t.sin(), (t * 0.7).cos()]
                    })
                    .collect();
                FeatureVector::new(data, w, 2)
            })
            .collect()
    }

    #[test]
    fn epoch_counter_advances_with_fine_tuning() {
        let mut usad = Usad::new(2, 1e-3, 1);
        let train = sine_windows(10, 6);
        assert_eq!(usad.epoch(), 0);
        usad.fit_initial(&train, 3);
        assert_eq!(usad.epoch(), 3);
        usad.fine_tune(&train);
        assert_eq!(usad.epoch(), 4);
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let train = sine_windows(30, 6);
        let mut usad = Usad::new(3, 2e-3, 5);
        let mut untrained = usad.clone();
        untrained.fit_initial(&train, 0);
        // Enough epochs to reach a tight reconstruction from any reasonable
        // Xavier init (the exact trajectory depends on the seeded RNG stream).
        usad.fit_initial(&train, 200);
        let probe = &train[15];
        let before = nonconformity(probe, &untrained.predict(probe));
        let after = nonconformity(probe, &usad.predict(probe));
        assert!(after < before, "USAD training must help: {before} -> {after}");
        assert!(after < 0.2, "trained reconstruction is close: {after}");
    }

    #[test]
    fn anomaly_scores_above_normal() {
        let train = sine_windows(30, 6);
        let mut usad = Usad::new(3, 2e-3, 5);
        usad.fit_initial(&train, 80);
        let normal = &train[10];
        let a_norm = nonconformity(normal, &usad.predict(normal));
        // A *direction* anomaly: alternating-sign spikes. (A constant level
        // shift saturates the bounded decoder at the training maximum, which
        // points the same way as the shifted input — invisible to cosine.)
        let data: Vec<f64> = (0..12).map(|i| if i % 2 == 0 { 4.0 } else { -4.0 }).collect();
        let weird = FeatureVector::new(data, 6, 2);
        let a_weird = nonconformity(&weird, &usad.predict(&weird));
        assert!(a_weird > a_norm, "anomaly {a_weird} vs normal {a_norm}");
    }

    #[test]
    fn usad_score_separates_anomalies() {
        let train = sine_windows(30, 6);
        let mut usad = Usad::new(3, 2e-3, 9);
        usad.fit_initial(&train, 80);
        let s_norm = usad.usad_score(&train[12], 0.5, 0.5);
        let weird = FeatureVector::new(vec![6.0; 12], 6, 2);
        let s_weird = usad.usad_score(&weird, 0.5, 0.5);
        assert!(s_weird > s_norm * 2.0, "USAD score: anomaly {s_weird} vs normal {s_norm}");
    }

    /// `usad_score` runs the adversarial forward on the training buffers;
    /// its value is the scalar composition's, bit for bit: `Mlp::infer`
    /// chains between the scaler arithmetic written out.
    #[test]
    fn usad_score_matches_its_scalar_composition_bitwise() {
        let train = sine_windows(30, 6);
        let mut usad = Usad::new(3, 2e-3, 9);
        usad.fit_initial(&train, 20);
        for x in [&train[12], &FeatureVector::new(vec![6.0; 12], 6, 2)] {
            let z = transform_ref(usad.scaler.as_ref().expect("fitted"), x.as_slice());
            let encoder = usad.encoder.as_ref().expect("fitted");
            let r1 = usad.dec1.as_ref().expect("fitted").infer(&encoder.infer(&z));
            let rboth = usad.dec2.as_ref().expect("fitted").infer(&encoder.infer(&r1));
            let err = |r: &[f64]| -> f64 {
                z.iter().zip(r).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / z.len() as f64
            };
            let want = 0.5 * err(&r1) + 0.25 * err(&rboth);
            assert_eq!(usad.usad_score(x, 0.5, 0.25).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn usad_score_leaves_the_training_trajectory_alone() {
        // `usad_score` runs on the training buffers; a step reloads them.
        let train = sine_windows(20, 6);
        let mut a = Usad::new(2, 2e-3, 4);
        a.fit_initial(&train, 3);
        let mut b = a.clone();
        let _ = b.usad_score(&train[7], 0.5, 0.5);
        a.fine_tune(&train);
        b.fine_tune(&train);
        assert_eq!(a.predict(&train[3]), b.predict(&train[3]));
    }

    #[test]
    fn adversarial_weighting_shifts_with_epochs() {
        // Indirect check: training stays numerically stable across many
        // epochs as the adversarial term takes over, and parameters remain
        // finite (divergence here would indicate a sign error in phase 2).
        let train = sine_windows(20, 6);
        let mut usad = Usad::new(2, 5e-3, 2);
        usad.fit_initial(&train, 120);
        let probe = &train[5];
        let a = nonconformity(probe, &usad.predict(probe));
        // The adversarial term degrades pure reconstruction quality but the
        // bounded decoders must keep it finite and non-degenerate.
        assert!(a.is_finite() && a < 0.95, "stable late-epoch training, a = {a}");
        let s = usad.usad_score(probe, 0.5, 0.5);
        assert!(s.is_finite() && s < 10.0, "bounded USAD score, s = {s}");
    }

    #[test]
    fn predict_before_fit_is_usable() {
        let mut usad = Usad::new(2, 1e-3, 0);
        let x = FeatureVector::new(vec![0.5; 8], 4, 2);
        match usad.predict(&x) {
            ModelOutput::Reconstruction(r) => {
                assert_eq!(r.len(), 8);
                assert!(r.iter().all(|v| v.is_finite()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
