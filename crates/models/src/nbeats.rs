//! N-BEATS — neural basis expansion analysis (Oreshkin et al. 2020; paper
//! §IV-C).
//!
//! A stack of blocks with *double residual* connections. Block `l` receives
//! the residual input `x_l`, runs a fully-connected trunk
//! `h_l = FC_l(x_l)`, projects onto backcast/forecast expansion
//! coefficients `θᵇ_l, θᶠ_l`, and expands them over basis vectors:
//!
//! ```text
//! x̂_l = Σ θᵇ_{l,i} vᵇ_i        (backcast)
//! ŷ_l = Σ θᶠ_{l,i} vᶠ_i        (forecast)
//! x_{l+1} = x_l − x̂_l           (residual input to the next block)
//! ŷ = Σ_l ŷ_l                   (final forecast)
//! ```
//!
//! The **generic** basis (used here, as in the original paper's main
//! configuration) makes `vᵇ, vᶠ` learnable — i.e. each head is a linear
//! layer `hidden → θ-dim → output`. In the paper's streaming scenario the
//! model forecasts `s_t` from the previous stream vectors
//! `s_{t−w+1}, …, s_{t−1}` contained in `x_t`.
//!
//! The hand-derived backward pass propagates the forecast loss through the
//! residual chain: the gradient reaching residual `x_{l+1}` flows both into
//! block `l`'s backcast head (negated) and onward to `x_l`.

use crate::batch_infer::{InferView, Nets};
use crate::scaler::Affine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sad_core::{FeatureVector, ModelOutput, StreamModel};
use sad_nn::{Activation, Mlp, MlpGrads, MlpWorkspace};
use sad_tensor::{Adam, Matrix, Optimizer, Scalar};

/// Basis family of one block.
///
/// The generic basis is fully learnable (the original paper's main
/// configuration). The trend and seasonal bases are the paper's
/// *interpretable* configuration: the expansion vectors `v_i` are fixed —
/// low-order polynomials or Fourier harmonics over the window timeline — so
/// the coefficients `θ` directly expose how much trend/seasonality each
/// block attributes to the signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisKind {
    /// Fully learnable basis (default).
    Generic,
    /// Fixed polynomial basis `v_j(τ) = τ^j` (θ-dim = polynomial degree).
    Trend,
    /// Fixed Fourier basis `cos/sin(2π h τ)` (θ-dim = 2 × harmonics).
    Seasonal,
}

/// One N-BEATS block: trunk + backcast head + forecast head, in precision
/// `T` (training is f64; a `Block<f32>` is part of an f32 serving
/// snapshot). Crate-visible so the fleet's batched inference path
/// (`crate::batch_infer`) can drive the residual stack through shared
/// workspaces.
#[derive(Clone)]
pub(crate) struct Block<T: Scalar = f64> {
    pub(crate) trunk: Mlp<T>,
    pub(crate) backcast_head: Mlp<T>,
    pub(crate) forecast_head: Mlp<T>,
    pub(crate) basis: BasisKind,
}

impl<T: Scalar> Block<T> {
    /// Converts every parameter of `src` to `T`.
    pub(crate) fn from_precision<U: Scalar>(src: &Block<U>) -> Self {
        Self {
            trunk: Mlp::from_precision(&src.trunk),
            backcast_head: Mlp::from_precision(&src.backcast_head),
            forecast_head: Mlp::from_precision(&src.forecast_head),
            basis: src.basis,
        }
    }

    /// Re-converts every parameter from `src` in place (no allocation).
    pub(crate) fn convert_from<U: Scalar>(&mut self, src: &Block<U>) {
        self.trunk.convert_from(&src.trunk);
        self.backcast_head.convert_from(&src.backcast_head);
        self.forecast_head.convert_from(&src.forecast_head);
    }
}

/// Reusable batched-training buffers for one block: a workspace per
/// sub-network (trunk, backcast head, forecast head) and the matching
/// gradient accumulators. Block `l`'s residual input lives in
/// `ws_t.input`, so the forward chain writes `x_{l+1}` directly into the
/// next block's workspace — no intermediate residual vectors.
#[derive(Clone)]
struct BlockBuffers {
    ws_t: MlpWorkspace,
    ws_b: MlpWorkspace,
    ws_f: MlpWorkspace,
    g_t: MlpGrads,
    g_b: MlpGrads,
    g_f: MlpGrads,
}

/// Stack-level training buffers. Sized once for the configured minibatch
/// capacity; the steady-state fine-tune loop does not allocate.
#[derive(Clone)]
struct NBeatsBuffers {
    blocks: Vec<BlockBuffers>,
    /// `B×n` forecast targets (the standardized last stream vectors).
    targets: Matrix,
    /// `B×n` running forecast sum `Σ_l ŷ_l`.
    forecast: Matrix,
    /// `B×n` forecast-loss gradient `∂L/∂ŷ` (shared by every block).
    g_forecast: Matrix,
    /// `B×input` residual gradient `∂L/∂x_{l+1}` accumulator.
    g_residual: Matrix,
    /// Scratch for the standardized full window before the history/target
    /// split (`w·N` wide).
    scratch: Vec<f64>,
}

impl Block {
    fn with_basis(
        input: usize,
        hidden: usize,
        theta: usize,
        output: usize,
        basis: BasisKind,
        rng: &mut StdRng,
    ) -> Self {
        let relu = Activation::Relu;
        let id = Activation::Identity;
        let mut block = Self {
            trunk: Mlp::new(&[input, hidden, hidden], &[relu, relu], rng),
            // Two linear maps hidden → θ → out implement LINEARᵇ/ᶠ followed
            // by the basis expansion Σ θ_i v_i (learnable for Generic,
            // frozen to polynomial/Fourier vectors otherwise).
            backcast_head: Mlp::new(&[hidden, theta, input], &[id, id], rng),
            forecast_head: Mlp::new(&[hidden, theta, output], &[id, id], rng),
            basis,
        };
        if basis != BasisKind::Generic {
            let steps = input / output; // backcast timeline length
            let n = output;
            block.install_basis(steps, n, theta);
        }
        block
    }

    /// Overwrites the expansion layer (θ → out) of both heads with the
    /// fixed basis matrix and zero bias.
    fn install_basis(&mut self, steps: usize, n: usize, theta: usize) {
        let value = |tau: f64, j: usize| -> f64 {
            match self.basis {
                BasisKind::Generic => unreachable!("generic basis is learnable"),
                BasisKind::Trend => tau.powi(j as i32),
                BasisKind::Seasonal => {
                    let h = (j / 2 + 1) as f64;
                    let phase = 2.0 * std::f64::consts::PI * h * tau;
                    if j.is_multiple_of(2) {
                        phase.cos()
                    } else {
                        phase.sin()
                    }
                }
            }
        };
        let denom = (steps.saturating_sub(1)).max(1) as f64;
        // Backcast basis over τ_i = i / (steps − 1), per channel.
        let mut params = self.backcast_head.params_flat();
        let l1 = self.backcast_head.layers()[0].num_params();
        for i in 0..steps {
            let tau = i as f64 / denom;
            for c in 0..n {
                for j in 0..theta {
                    params[l1 + (i * n + c) * theta + j] = value(tau, j);
                }
            }
        }
        for b in params.len() - n * steps..params.len() {
            params[b] = 0.0;
        }
        self.backcast_head.set_params_flat(&params);
        // Forecast basis one step past the window: τ = 1 + 1/(steps − 1).
        let tau_f = 1.0 + 1.0 / denom;
        let mut params = self.forecast_head.params_flat();
        let l1 = self.forecast_head.layers()[0].num_params();
        for c in 0..n {
            for j in 0..theta {
                params[l1 + c * theta + j] = value(tau_f, j);
            }
        }
        for b in params.len() - n..params.len() {
            params[b] = 0.0;
        }
        self.forecast_head.set_params_flat(&params);
    }

    /// Total trainable parameter count across trunk + both heads (one
    /// optimizer step tiles this range in segments).
    fn num_params(&self) -> usize {
        self.trunk.num_params() + self.backcast_head.num_params() + self.forecast_head.num_params()
    }

    fn buffers(&self, max_batch: usize) -> BlockBuffers {
        BlockBuffers {
            ws_t: self.trunk.workspace(max_batch),
            ws_b: self.backcast_head.workspace(max_batch),
            ws_f: self.forecast_head.workspace(max_batch),
            g_t: self.trunk.zero_grads(),
            g_b: self.backcast_head.zero_grads(),
            g_f: self.forecast_head.zero_grads(),
        }
    }

    pub(crate) fn infer(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let h = self.trunk.infer(x);
        (self.backcast_head.infer(&h), self.forecast_head.infer(&h))
    }
}

/// The N-BEATS forecaster.
#[derive(Clone)]
pub struct NBeats {
    blocks: Option<Vec<Block>>,
    opts: Vec<Adam>,
    scaler: Option<Affine>,
    bufs: Option<NBeatsBuffers>,
    /// One basis per block; `(kind, theta)` pairs.
    plan: Vec<(BasisKind, usize)>,
    hidden: usize,
    lr: f64,
    batch_size: usize,
    seed: u64,
}

impl NBeats {
    /// Creates an N-BEATS model with `n_blocks` generic-basis blocks.
    pub fn new(n_blocks: usize, hidden: usize, theta: usize, lr: f64, seed: u64) -> Self {
        assert!(n_blocks > 0 && hidden > 0 && theta > 0, "block dimensions must be positive");
        Self {
            blocks: None,
            opts: Vec::new(),
            scaler: None,
            bufs: None,
            plan: vec![(BasisKind::Generic, theta); n_blocks],
            hidden,
            lr,
            batch_size: 1,
            seed,
        }
    }

    /// Sets the training minibatch size (default 1 = per-sample updates,
    /// matching the original trajectory; larger batches take one
    /// mean-gradient step per chunk).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self.bufs = None; // resized lazily on next training call
        self
    }

    /// Creates the paper-described *interpretable* configuration: one trend
    /// block with a polynomial basis of the given `degree` and one seasonal
    /// block with `harmonics` Fourier harmonics. The basis vectors are
    /// frozen; only the trunks and the θ projections train, so
    /// [`Self::decompose`] exposes a direct trend/seasonality attribution.
    pub fn interpretable(hidden: usize, degree: usize, harmonics: usize, lr: f64, seed: u64) -> Self {
        assert!(degree > 0 && harmonics > 0 && hidden > 0, "basis dimensions must be positive");
        Self {
            blocks: None,
            opts: Vec::new(),
            scaler: None,
            bufs: None,
            plan: vec![(BasisKind::Trend, degree), (BasisKind::Seasonal, 2 * harmonics)],
            hidden,
            lr,
            batch_size: 1,
            seed,
        }
    }

    /// The block basis plan (kind, θ-dimension per block).
    pub fn plan(&self) -> &[(BasisKind, usize)] {
        &self.plan
    }

    /// A reasonable default configuration for a `w×N` representation.
    pub fn for_dims(w: usize, n: usize, seed: u64) -> Self {
        let input = (w - 1) * n;
        Self::new(2, (input / 2).clamp(8, 64), 8, 1e-3, seed)
    }

    fn ensure_blocks(&mut self, input: usize, output: usize) {
        if self.blocks.is_some() {
            self.ensure_bufs();
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let blocks: Vec<Block> = self
            .plan
            .iter()
            .map(|&(kind, theta)| Block::with_basis(input, self.hidden, theta, output, kind, &mut rng))
            .collect();
        // One optimizer per block (each drives that block's segmented
        // trunk|backcast|forecast parameter range).
        self.opts = (0..self.plan.len()).map(|_| Adam::new(self.lr)).collect();
        self.blocks = Some(blocks);
        self.ensure_bufs();
    }

    fn ensure_bufs(&mut self) {
        if self.bufs.is_some() {
            return;
        }
        let bs = self.batch_size;
        let blocks = self.blocks.as_ref().expect("blocks initialized");
        let input = blocks[0].trunk.in_dim();
        let output = blocks[0].forecast_head.out_dim();
        self.bufs = Some(NBeatsBuffers {
            blocks: blocks.iter().map(|b| b.buffers(bs)).collect(),
            targets: Matrix::zeros(bs, output),
            forecast: Matrix::zeros(bs, output),
            g_forecast: Matrix::zeros(bs, output),
            g_residual: Matrix::zeros(bs, input),
            scratch: vec![0.0; input + output],
        });
    }

    /// Splits a feature vector into (history = first w−1 steps, target = s_t)
    /// in standardized space.
    fn split_scaled(&self, x: &FeatureVector) -> (Vec<f64>, Vec<f64>) {
        let scaled = match &self.scaler {
            Some(s) => s.transform(x.as_slice()),
            None => x.as_slice().to_vec(),
        };
        let n = x.n();
        let hist = scaled[..scaled.len() - n].to_vec();
        let target = scaled[scaled.len() - n..].to_vec();
        (hist, target)
    }

    /// Forward over the residual stack in standardized space.
    fn forecast_scaled(&self, hist: &[f64]) -> Vec<f64> {
        let blocks = self.blocks.as_ref().expect("blocks initialized");
        let mut residual = hist.to_vec();
        let mut forecast: Option<Vec<f64>> = None;
        for block in blocks {
            let (b, f) = block.infer(&residual);
            for (r, bv) in residual.iter_mut().zip(&b) {
                *r -= bv;
            }
            match &mut forecast {
                Some(acc) => {
                    for (a, fv) in acc.iter_mut().zip(&f) {
                        *a += fv;
                    }
                }
                None => forecast = Some(f),
            }
        }
        forecast.expect("at least one block")
    }

    /// Loads one minibatch into the training buffers: the standardized
    /// history rows go into block 0's trunk workspace, the standardized
    /// targets into the `targets` matrix. Allocation-free (the full scaled
    /// window passes through the `scratch` buffer).
    fn load_chunk(&mut self, chunk: &[FeatureVector]) {
        let bufs = self.bufs.as_mut().expect("buffers initialized");
        let b = chunk.len();
        for bb in &mut bufs.blocks {
            bb.ws_t.set_batch(b);
            bb.ws_b.set_batch(b);
            bb.ws_f.set_batch(b);
        }
        bufs.targets.resize_rows(b);
        bufs.forecast.resize_rows(b);
        bufs.g_forecast.resize_rows(b);
        bufs.g_residual.resize_rows(b);
        let n = chunk[0].n();
        for (i, x) in chunk.iter().enumerate() {
            match &self.scaler {
                Some(s) => s.transform_into(x.as_slice(), &mut bufs.scratch),
                None => bufs.scratch.copy_from_slice(x.as_slice()),
            }
            let split = bufs.scratch.len() - n;
            bufs.blocks[0].ws_t.input_row_mut(i).copy_from_slice(&bufs.scratch[..split]);
            bufs.targets.row_mut(i).copy_from_slice(&bufs.scratch[split..]);
        }
    }

    /// One SSE training step on the minibatch currently loaded in the
    /// buffers (see [`Self::load_chunk`]). Batched through the workspace
    /// path; zero heap allocations. At batch size 1 this reproduces the
    /// original per-sample step bitwise (same summation order in every
    /// kernel, same segmented optimizer trajectory); larger batches scale
    /// the summed gradients by `1/B` (minibatch mean) before stepping.
    fn train_chunk(&mut self) {
        let blocks = self.blocks.as_mut().expect("blocks initialized");
        let NBeatsBuffers { blocks: bbs, targets, forecast, g_forecast, g_residual, .. } =
            self.bufs.as_mut().expect("buffers initialized");
        let n_blocks = blocks.len();
        let bsz = targets.rows();

        // ---- Forward down the residual stack, accumulating the forecast.
        forecast.fill(0.0);
        for l in 0..n_blocks {
            {
                let bb = &mut bbs[l];
                blocks[l].trunk.forward_batch(&mut bb.ws_t);
                bb.ws_b.input_mut().copy_from(bb.ws_t.output());
                blocks[l].backcast_head.forward_batch(&mut bb.ws_b);
                bb.ws_f.input_mut().copy_from(bb.ws_t.output());
                blocks[l].forecast_head.forward_batch(&mut bb.ws_f);
                for b in 0..bsz {
                    for (acc, &fv) in forecast.row_mut(b).iter_mut().zip(bb.ws_f.output().row(b)) {
                        *acc += fv;
                    }
                }
            }
            // x_{l+1} = x_l − x̂_l, written straight into the next block's
            // trunk input.
            if l + 1 < n_blocks {
                let (cur, rest) = bbs.split_at_mut(l + 1);
                let bb = &cur[l];
                let next = &mut rest[0];
                for b in 0..bsz {
                    for ((o, &r), &bv) in next
                        .ws_t
                        .input_row_mut(b)
                        .iter_mut()
                        .zip(bb.ws_t.input().row(b))
                        .zip(bb.ws_b.output().row(b))
                    {
                        *o = r - bv;
                    }
                }
            }
        }

        // ---- Backward through the residual chain.
        // ∂SSE/∂ŷ = 2(ŷ − y), identical for every block (ŷ is the sum).
        for b in 0..bsz {
            for ((g, &p), &t) in
                g_forecast.row_mut(b).iter_mut().zip(forecast.row(b)).zip(targets.row(b))
            {
                *g = 2.0 * (p - t);
            }
        }
        g_residual.fill(0.0); // ∂L/∂x_L (unused tail)
        for l in (0..n_blocks).rev() {
            let bb = &mut bbs[l];
            let block = &blocks[l];
            bb.g_t.zero();
            bb.g_b.zero();
            bb.g_f.zero();
            // Forecast head: every block's forecast feeds the sum directly.
            bb.ws_f.grad_out_mut().copy_from(g_forecast);
            block.forecast_head.backward_batch(&mut bb.ws_f, &mut bb.g_f, true);
            // Backcast head: x_{l+1} = x_l − x̂_l ⇒ ∂L/∂x̂_l = −∂L/∂x_{l+1}.
            for b in 0..bsz {
                for (g, &r) in bb.ws_b.grad_out_mut().row_mut(b).iter_mut().zip(g_residual.row(b))
                {
                    *g = -r;
                }
            }
            block.backcast_head.backward_batch(&mut bb.ws_b, &mut bb.g_b, true);
            // Trunk output gradient: forecast path + backcast path.
            {
                let go = bb.ws_t.grad_out_mut();
                for b in 0..bsz {
                    for ((g, &f), &bv) in go
                        .row_mut(b)
                        .iter_mut()
                        .zip(bb.ws_f.grad_in().row(b))
                        .zip(bb.ws_b.grad_in().row(b))
                    {
                        *g = f + bv;
                    }
                }
            }
            // Trunk: ∂L/∂x_l gets the trunk path plus the residual pass-through.
            block.trunk.backward_batch(&mut bb.ws_t, &mut bb.g_t, true);
            for b in 0..bsz {
                for (g, &t) in g_residual.row_mut(b).iter_mut().zip(bb.ws_t.grad_in().row(b)) {
                    *g += t;
                }
            }
        }

        // ---- Apply per-block updates: one segmented optimizer step over
        // the trunk|backcast|forecast parameter range (bitwise identical to
        // the former flatten → step → unflatten round-trip, minus the
        // copies).
        for ((block, bb), opt) in blocks.iter_mut().zip(bbs.iter_mut()).zip(&mut self.opts) {
            // Interpretable bases are fixed: kill their gradients so the
            // optimizer (whose moments are also fed zeros here) never moves
            // the expansion vectors. The expansion layer is layer index 1
            // of each two-layer head.
            if block.basis != BasisKind::Generic {
                for g in [&mut bb.g_b, &mut bb.g_f] {
                    let frozen = &mut g.layers_mut()[1];
                    frozen.weights.fill(0.0);
                    frozen.bias.fill(0.0);
                }
            }
            if bsz > 1 {
                let s = 1.0 / bsz as f64;
                bb.g_t.scale(s);
                bb.g_b.scale(s);
                bb.g_f.scale(s);
            }
            opt.begin_step(block.num_params());
            let off = block.trunk.apply_grads_segmented(&bb.g_t, opt, 0);
            let off = block.backcast_head.apply_grads_segmented(&bb.g_b, opt, off);
            block.forecast_head.apply_grads_segmented(&bb.g_f, opt, off);
        }
    }

    /// Inference state for the fleet's cross-stream batched stepping:
    /// the residual stack and the fitted scaler. `None` until the blocks
    /// exist.
    pub(crate) fn infer_view(&self) -> Option<InferView<'_>> {
        let blocks = self.blocks.as_deref()?;
        Some(InferView { nets: Nets::NBeats(blocks), scaler: self.scaler.as_ref() })
    }

    /// Per-block backcast/forecast decomposition for a feature vector — the
    /// interpretability view the basis expansion exists for.
    pub fn decompose(&mut self, x: &FeatureVector) -> Vec<(Vec<f64>, Vec<f64>)> {
        self.ensure_blocks((x.w() - 1) * x.n(), x.n());
        let (hist, _) = self.split_scaled(x);
        let blocks = self.blocks.as_ref().expect("blocks initialized");
        let mut residual = hist;
        let mut out = Vec::with_capacity(blocks.len());
        for block in blocks {
            let (b, f) = block.infer(&residual);
            for (r, bv) in residual.iter_mut().zip(&b) {
                *r -= bv;
            }
            out.push((b, f));
        }
        out
    }
}

impl StreamModel for NBeats {
    fn name(&self) -> &'static str {
        "N-BEATS"
    }

    fn predict(&mut self, x: &FeatureVector) -> ModelOutput {
        assert!(x.w() >= 2, "N-BEATS needs at least two steps of history");
        self.ensure_blocks((x.w() - 1) * x.n(), x.n());
        let (hist, _) = self.split_scaled(x);
        let forecast_z = self.forecast_scaled(&hist);
        let forecast = match &self.scaler {
            Some(s) => s.inverse_tail(&forecast_z),
            None => forecast_z,
        };
        ModelOutput::Forecast(forecast)
    }

    fn fit_initial(&mut self, train: &[FeatureVector], epochs: usize) {
        if train.is_empty() {
            return;
        }
        self.scaler = Some(Affine::standardize(train));
        self.ensure_blocks((train[0].w() - 1) * train[0].n(), train[0].n());
        for _ in 0..epochs {
            self.fine_tune(train);
        }
    }

    fn fine_tune(&mut self, train: &[FeatureVector]) {
        if train.is_empty() {
            return;
        }
        self.ensure_blocks((train[0].w() - 1) * train[0].n(), train[0].n());
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
                        let t = (s + i) as f64 * 0.35;
                        vec![t.sin() * 2.0, (t * 0.8 + 1.0).cos()]
                    })
                    .collect();
                FeatureVector::new(data, w, 2)
            })
            .collect()
    }

    #[test]
    fn forecast_has_channel_dimensionality() {
        let mut nb = NBeats::new(2, 8, 4, 1e-3, 3);
        let x = FeatureVector::new(vec![0.1; 12], 6, 2);
        match nb.predict(&x) {
            ModelOutput::Forecast(f) => {
                assert_eq!(f.len(), 2);
                assert!(f.iter().all(|v| v.is_finite()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn training_reduces_forecast_error() {
        let train = sine_windows(40, 8);
        let mut nb = NBeats::new(2, 16, 6, 2e-3, 11);
        let mut untrained = nb.clone();
        untrained.fit_initial(&train, 0);
        // Enough epochs to halve the error from any reasonable Xavier init
        // (the exact trajectory depends on the seeded RNG stream).
        nb.fit_initial(&train, 120);
        let probe = &train[20];
        let err = |m: &mut NBeats| -> f64 {
            match m.predict(probe) {
                ModelOutput::Forecast(f) => f
                    .iter()
                    .zip(probe.last_step())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>(),
                _ => unreachable!(),
            }
        };
        let before = err(&mut untrained);
        let after = err(&mut nb);
        assert!(after < before * 0.5, "training must help: {before} -> {after}");
    }

    #[test]
    fn trained_model_scores_anomaly_higher() {
        let train = sine_windows(40, 8);
        let mut nb = NBeats::new(2, 16, 6, 2e-3, 11);
        nb.fit_initial(&train, 80);
        let normal = &train[25];
        let a_norm = nonconformity(normal, &nb.predict(normal));
        // Same history, broken last step (orthogonal direction).
        let mut data = normal.as_slice().to_vec();
        let dim = data.len();
        data[dim - 2] = -5.0;
        data[dim - 1] = 5.0;
        let broken = FeatureVector::new(data, 8, 2);
        let a_broken = nonconformity(&broken, &nb.predict(&broken));
        assert!(a_broken > a_norm, "broken step {a_broken} vs normal {a_norm}");
    }

    #[test]
    fn residual_decomposition_sums_to_forecast() {
        let train = sine_windows(20, 8);
        let mut nb = NBeats::new(3, 8, 4, 1e-3, 5);
        nb.fit_initial(&train, 10);
        let x = &train[10];
        let parts = nb.decompose(x);
        assert_eq!(parts.len(), 3);
        let summed: Vec<f64> = (0..2)
            .map(|j| parts.iter().map(|(_, f)| f[j]).sum::<f64>())
            .collect();
        let (hist, _) = nb.split_scaled(x);
        let direct = nb.forecast_scaled(&hist);
        for (a, b) in summed.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-9, "decomposition mismatch {a} vs {b}");
        }
    }

    /// Descent check of the full residual-stack backward pass.
    #[test]
    fn grad_check_residual_stack() {
        let mut nb = NBeats::new(2, 6, 3, 1e-3, 21);
        nb.ensure_blocks(8, 2);
        let hist: Vec<f64> = (0..8).map(|i| (i as f64 * 0.37).sin()).collect();
        let target = vec![0.3, -0.2];
        // No scaler fitted → split_scaled is the identity split, so one
        // window = hist ++ target (w = 5 steps of n = 2 channels).
        let mut data = hist.clone();
        data.extend_from_slice(&target);
        let window = FeatureVector::new(data, 5, 2);

        // Analytic gradient via a single zero-lr "training step" with spy
        // optimizers is awkward; instead check loss decrease under a tiny
        // step, which fails if any gradient sign is wrong.
        let loss = |nb: &NBeats| -> f64 {
            let f = nb.forecast_scaled(&hist);
            f.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        let before = loss(&nb);
        for _ in 0..25 {
            nb.fine_tune(std::slice::from_ref(&window));
        }
        let after = loss(&nb);
        assert!(after < before, "gradient steps must descend: {before} -> {after}");
        assert!(after < before * 0.7, "descent should be substantial: {before} -> {after}");
    }

    /// Larger minibatches must still descend on the same objective.
    #[test]
    fn batched_training_still_learns() {
        let train = sine_windows(40, 8);
        let mut nb = NBeats::new(2, 16, 6, 2e-3, 11).with_batch_size(8);
        let mut untrained = nb.clone();
        untrained.fit_initial(&train, 0);
        nb.fit_initial(&train, 150);
        let probe = &train[20];
        let err = |m: &mut NBeats| -> f64 {
            match m.predict(probe) {
                ModelOutput::Forecast(f) => f
                    .iter()
                    .zip(probe.last_step())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>(),
                _ => unreachable!(),
            }
        };
        let before = err(&mut untrained);
        let after = err(&mut nb);
        assert!(after < before * 0.5, "batched training must help: {before} -> {after}");
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let mut nb = NBeats::new(2, 8, 4, 1e-3, 3);
        nb.fit_initial(&[], 5);
        nb.fine_tune(&[]);
    }

    #[test]
    fn interpretable_basis_stays_frozen_under_training() {
        let train = sine_windows(30, 8);
        let mut nb = NBeats::interpretable(12, 3, 2, 2e-3, 7);
        nb.ensure_blocks(14, 2);
        let basis_params = |nb: &NBeats| -> Vec<f64> {
            let block = &nb.blocks.as_ref().unwrap()[0];
            let l1 = block.backcast_head.layers()[0].num_params();
            block.backcast_head.params_flat()[l1..].to_vec()
        };
        let before = basis_params(&nb);
        nb.fit_initial(&train, 30);
        let after = basis_params(&nb);
        assert_eq!(before, after, "polynomial basis vectors must not train");
    }

    #[test]
    fn interpretable_model_still_learns() {
        let train = sine_windows(40, 8);
        let mut nb = NBeats::interpretable(16, 3, 3, 2e-3, 9);
        let mut untrained = nb.clone();
        untrained.fit_initial(&train, 0);
        nb.fit_initial(&train, 80);
        // Average forecast SSE over the whole training regime (single-probe
        // error is too noisy for the constrained basis).
        let err = |m: &mut NBeats| -> f64 {
            train
                .iter()
                .map(|probe| match m.predict(probe) {
                    ModelOutput::Forecast(f) => f
                        .iter()
                        .zip(probe.last_step())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>(),
                    _ => unreachable!(),
                })
                .sum::<f64>()
                / train.len() as f64
        };
        let before = err(&mut untrained);
        let after = err(&mut nb);
        assert!(after < before, "interpretable N-BEATS must learn: {before} -> {after}");
    }

    #[test]
    fn trend_block_basis_is_polynomial() {
        let mut nb = NBeats::interpretable(8, 3, 2, 1e-3, 1);
        nb.ensure_blocks(12, 2); // steps = 6, n = 2
        let block = &nb.blocks.as_ref().unwrap()[0];
        let l1 = block.backcast_head.layers()[0].num_params();
        let params = block.backcast_head.params_flat();
        // Row for time step i=5 (τ=1), channel 0: [1, 1, 1] (τ^0, τ^1, τ^2).
        let theta = 3;
        let row = 5 * 2;
        for j in 0..theta {
            assert!((params[l1 + row * theta + j] - 1.0).abs() < 1e-12);
        }
        // Row for τ=0 (i=0): [1, 0, 0].
        assert_eq!(params[l1], 1.0);
        assert_eq!(params[l1 + 1], 0.0);
        assert_eq!(params[l1 + 2], 0.0);
        // Seasonal block: first column is cos(2πτ); at τ=0 -> 1.
        let sblock = &nb.blocks.as_ref().unwrap()[1];
        let sl1 = sblock.backcast_head.layers()[0].num_params();
        let sparams = sblock.backcast_head.params_flat();
        assert!((sparams[sl1] - 1.0).abs() < 1e-12, "cos(0) = 1");
        assert!(sparams[sl1 + 1].abs() < 1e-12, "sin(0) = 0");
    }

    #[test]
    fn plan_reports_block_configuration() {
        let nb = NBeats::interpretable(8, 4, 3, 1e-3, 0);
        assert_eq!(nb.plan(), &[(BasisKind::Trend, 4), (BasisKind::Seasonal, 6)]);
        let nb2 = NBeats::new(3, 8, 5, 1e-3, 0);
        assert_eq!(nb2.plan().len(), 3);
        assert!(nb2.plan().iter().all(|&(k, t)| k == BasisKind::Generic && t == 5));
    }
}
