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
//! cosine nonconformity then compares it against `x_t` (§IV-D).

use crate::batch_infer::{InferView, Nets};
use crate::scaler::Affine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sad_core::{FeatureVector, ModelOutput, StreamModel};
use sad_nn::{Activation, Mlp, MlpGrads, MlpWorkspace};
use sad_tensor::{Adam, Matrix};

/// Reusable batched-training buffers for the five forward instances of the
/// adversarial step (`E(x)`, `D₁(z)`, `E(r₁)`, `D₂(z₂)`, `D₂(z)`) plus the
/// gradient accumulators. Sized once; the steady-state fine-tune loop does
/// not allocate.
#[derive(Clone)]
struct UsadBuffers {
    /// `E(x)` — its input rows hold the scaled minibatch `z_in`.
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
    g_e: MlpGrads,
    g_d1: MlpGrads,
    g_d2: MlpGrads,
    /// D₁ is frozen in phase 2: its gradients are computed (the chain needs
    /// `∂L/∂z` through it) but discarded.
    g_d1_discard: MlpGrads,
    /// D₂ is frozen in phase 1.
    g_d2_discard: MlpGrads,
}

/// The USAD adversarial autoencoder.
#[derive(Clone)]
pub struct Usad {
    encoder: Option<Mlp>,
    dec1: Option<Mlp>,
    dec2: Option<Mlp>,
    scaler: Option<Affine>,
    bufs: Option<UsadBuffers>,
    opt_e1: Adam,
    opt_d1: Adam,
    opt_e2: Adam,
    opt_d2: Adam,
    latent: usize,
    lr: f64,
    batch_size: usize,
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
            opt_e1: Adam::new(lr),
            opt_d1: Adam::new(lr),
            opt_e2: Adam::new(lr),
            opt_d2: Adam::new(lr),
            latent,
            lr,
            batch_size: 1,
            seed,
            epoch: 0,
        }
    }

    /// A reasonable default: latent = dim/8 clamped to [2, 16], lr 1e-3.
    pub fn for_dim(dim: usize, seed: u64) -> Self {
        Self::new((dim / 8).clamp(2, 16), 1e-3, seed)
    }

    /// Sets the training minibatch size (default 1 = per-sample updates,
    /// matching the original trajectory; larger batches take one
    /// mean-gradient adversarial step per chunk, USAD's own minibatch
    /// formulation).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self.bufs = None; // resized lazily on next training call
        self
    }

    /// Current epoch counter `n`.
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    fn ensure_nets(&mut self, dim: usize) {
        if self.encoder.is_some() {
            self.ensure_bufs();
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
        self.encoder = Some(Mlp::new(&[dim, h1, h2, self.latent], &enc_acts, &mut rng));
        self.dec1 = Some(Mlp::new(&[self.latent, h2, h1, dim], &dec_acts, &mut rng));
        self.dec2 = Some(Mlp::new(&[self.latent, h2, h1, dim], &dec_acts, &mut rng));
        let _ = self.lr;
        self.ensure_bufs();
    }

    fn ensure_bufs(&mut self) {
        if self.bufs.is_some() {
            return;
        }
        let bs = self.batch_size;
        let encoder = self.encoder.as_ref().expect("nets initialized");
        let dec1 = self.dec1.as_ref().expect("nets initialized");
        let dec2 = self.dec2.as_ref().expect("nets initialized");
        self.bufs = Some(UsadBuffers {
            ws_e: encoder.workspace(bs),
            ws_d1: dec1.workspace(bs),
            ws_e2: encoder.workspace(bs),
            ws_d2b: dec2.workspace(bs),
            ws_d2r: dec2.workspace(bs),
            g_e: encoder.zero_grads(),
            g_d1: dec1.zero_grads(),
            g_d2: dec2.zero_grads(),
            g_d1_discard: dec1.zero_grads(),
            g_d2_discard: dec2.zero_grads(),
        });
    }

    fn scaled(&self, x: &FeatureVector) -> Vec<f64> {
        match &self.scaler {
            Some(s) => s.transform(x.as_slice()),
            None => x.as_slice().to_vec(),
        }
    }

    /// Loads one minibatch of scaled inputs into the training buffers.
    fn load_chunk(&mut self, chunk: &[FeatureVector]) {
        let bufs = self.bufs.as_mut().expect("buffers initialized");
        let b = chunk.len();
        bufs.ws_e.set_batch(b);
        bufs.ws_d1.set_batch(b);
        bufs.ws_e2.set_batch(b);
        bufs.ws_d2b.set_batch(b);
        bufs.ws_d2r.set_batch(b);
        for (i, x) in chunk.iter().enumerate() {
            match &self.scaler {
                Some(s) => s.transform_into(x.as_slice(), bufs.ws_e.input_row_mut(i)),
                None => bufs.ws_e.input_row_mut(i).copy_from_slice(x.as_slice()),
            }
        }
    }

    /// One adversarial training step on the minibatch currently loaded in
    /// the buffers (see [`Self::load_chunk`]). Batched through the
    /// workspace path; zero heap allocations. At batch size 1 this is
    /// bitwise identical to the original per-sample adversarial step; for
    /// larger batches the summed gradients are scaled by `1/B` before each
    /// Adam step (minibatch mean, as in the USAD reference).
    fn train_chunk(&mut self) {
        let n = self.epoch.max(1) as f64;
        let w_rec = 1.0 / n;
        let w_adv = (n - 1.0) / n;
        let encoder = self.encoder.as_mut().expect("nets initialized");
        let dec1 = self.dec1.as_mut().expect("nets initialized");
        let dec2 = self.dec2.as_mut().expect("nets initialized");
        let UsadBuffers {
            ws_e,
            ws_d1,
            ws_e2,
            ws_d2b,
            ws_d2r,
            g_e,
            g_d1,
            g_d2,
            g_d1_discard,
            g_d2_discard,
        } = self.bufs.as_mut().expect("buffers initialized");
        let bsz = ws_e.batch();

        // ---- Phase 1: update {E, D1} on L_AE1 = w_rec·R1 + w_adv·R_both.
        {
            encoder.forward_batch(ws_e); // z
            ws_d1.input_mut().copy_from(ws_e.output());
            dec1.forward_batch(ws_d1); // r1
            ws_e2.input_mut().copy_from(ws_d1.output());
            encoder.forward_batch(ws_e2); // z2
            ws_d2b.input_mut().copy_from(ws_e2.output());
            dec2.forward_batch(ws_d2b); // rboth

            g_e.zero();
            g_d1.zero();
            g_d2_discard.zero(); // D2 frozen this phase

            // ∂L/∂rboth, back through D2 (param grads discarded) and the
            // re-encoding into ∂L/∂r1.
            mse_grad_rows_scaled(ws_d2b, ws_e.input(), w_adv);
            dec2.backward_batch(ws_d2b, g_d2_discard, true); // → g_z2
            ws_e2.grad_out_mut().copy_from(ws_d2b.grad_in());
            encoder.backward_batch(ws_e2, g_e, true); // → g_r1_adv

            // Direct reconstruction term ∂(w_rec·R1)/∂r1, plus the
            // adversarial term that flowed back through the re-encoding.
            {
                let (_, r1, go) = ws_d1.io_split();
                let z_in = ws_e.input();
                let adv = ws_e2.grad_in();
                let d = r1.cols();
                let scale = 2.0 / d.max(1) as f64;
                for b in 0..bsz {
                    for (((g, &p), &t), &a) in go
                        .row_mut(b)
                        .iter_mut()
                        .zip(r1.row(b))
                        .zip(z_in.row(b))
                        .zip(adv.row(b))
                    {
                        *g = scale * (p - t);
                        *g = *g * w_rec + a;
                    }
                }
            }
            dec1.backward_batch(ws_d1, g_d1, true); // → g_z
            ws_e.grad_out_mut().copy_from(ws_d1.grad_in());
            encoder.backward_batch(ws_e, g_e, false);

            if bsz > 1 {
                g_e.scale(1.0 / bsz as f64);
                g_d1.scale(1.0 / bsz as f64);
            }
            encoder.apply_grads(g_e, &mut self.opt_e1);
            dec1.apply_grads(g_d1, &mut self.opt_d1);
        }

        // ---- Phase 2: update {E, D2} on L_AE2 = w_rec·R2 − w_adv·R_both.
        {
            encoder.forward_batch(ws_e); // z (inputs still loaded)
            ws_d1.input_mut().copy_from(ws_e.output());
            dec1.forward_batch(ws_d1); // r1
            ws_e2.input_mut().copy_from(ws_d1.output());
            encoder.forward_batch(ws_e2); // z2
            ws_d2b.input_mut().copy_from(ws_e2.output());
            dec2.forward_batch(ws_d2b); // rboth
            ws_d2r.input_mut().copy_from(ws_e.output());
            dec2.forward_batch(ws_d2r); // r2

            g_e.zero();
            g_d2.zero();
            g_d1_discard.zero(); // D1 frozen this phase

            // + w_rec·R2 path: x → E → z → D2 → r2.
            mse_grad_rows_scaled(ws_d2r, ws_e.input(), w_rec);
            dec2.backward_batch(ws_d2r, g_d2, true); // → g_z_a

            // − w_adv·R_both path: …D1(E(x)) → E → z2 → D2 → rboth.
            mse_grad_rows_scaled(ws_d2b, ws_e.input(), -w_adv);
            dec2.backward_batch(ws_d2b, g_d2, true); // → g_z2
            ws_e2.grad_out_mut().copy_from(ws_d2b.grad_in());
            encoder.backward_batch(ws_e2, g_e, true); // → g_r1
            ws_d1.grad_out_mut().copy_from(ws_e2.grad_in());
            dec1.backward_batch(ws_d1, g_d1_discard, true); // → g_z_b

            // g_z = g_z_a + g_z_b, through the first encoding.
            {
                let go = ws_e.grad_out_mut();
                for b in 0..bsz {
                    for ((g, &a), &c) in
                        go.row_mut(b).iter_mut().zip(ws_d2r.grad_in().row(b)).zip(ws_d1.grad_in().row(b))
                    {
                        *g = a + c;
                    }
                }
            }
            encoder.backward_batch(ws_e, g_e, false);

            if bsz > 1 {
                g_e.scale(1.0 / bsz as f64);
                g_d2.scale(1.0 / bsz as f64);
            }
            encoder.apply_grads(g_e, &mut self.opt_e2);
            dec2.apply_grads(g_d2, &mut self.opt_d2);
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

    /// Reconstruction `AE₁(x)` in standardized space.
    fn reconstruct_scaled(&self, z_in: &[f64]) -> Vec<f64> {
        let encoder = self.encoder.as_ref().expect("nets initialized");
        let dec1 = self.dec1.as_ref().expect("nets initialized");
        dec1.infer(&encoder.infer(z_in))
    }

    /// The USAD inference score `α·R₁ + β·R_both` (Audibert et al. Eq. 9),
    /// exposed for analyses beyond the framework's cosine nonconformity.
    pub fn usad_score(&mut self, x: &FeatureVector, alpha: f64, beta: f64) -> f64 {
        self.ensure_nets(x.dim());
        let z_in = self.scaled(x);
        let encoder = self.encoder.as_ref().expect("nets initialized");
        let dec1 = self.dec1.as_ref().expect("nets initialized");
        let dec2 = self.dec2.as_ref().expect("nets initialized");
        let r1 = dec1.infer(&encoder.infer(&z_in));
        let rboth = dec2.infer(&encoder.infer(&r1));
        let d = z_in.len() as f64;
        let r1_err: f64 = z_in.iter().zip(&r1).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / d;
        let rb_err: f64 = z_in.iter().zip(&rboth).map(|(a, b)| (a - b) * (a - b)).sum::<f64>() / d;
        alpha * r1_err + beta * rb_err
    }
}

/// Writes `factor · ∂mean((out − target)²)/∂out` into the workspace's output
/// gradient, row by row.
///
/// The two-operation form (`scale·(p − t)` then `*= factor`) replicates the
/// original per-sample code path (`mse_grad` followed by a separate scaling
/// pass) exactly, keeping batch size 1 bitwise identical to the per-sample
/// trajectory.
fn mse_grad_rows_scaled(ws: &mut MlpWorkspace, target: &Matrix, factor: f64) {
    let (_, out, go) = ws.io_split();
    let d = out.cols();
    let scale = 2.0 / d.max(1) as f64;
    for b in 0..out.rows() {
        for ((g, &p), &t) in go.row_mut(b).iter_mut().zip(out.row(b)).zip(target.row(b)) {
            *g = scale * (p - t);
            *g *= factor;
        }
    }
}

impl StreamModel for Usad {
    fn name(&self) -> &'static str {
        "USAD"
    }

    fn predict(&mut self, x: &FeatureVector) -> ModelOutput {
        self.ensure_nets(x.dim());
        let z_in = self.scaled(x);
        let recon_z = self.reconstruct_scaled(&z_in);
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
        for chunk in train.chunks(self.batch_size) {
            self.load_chunk(chunk);
            self.train_chunk();
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
