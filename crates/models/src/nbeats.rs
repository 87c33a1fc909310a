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
//!
//! The forward pass is written once, [`forward_stack`] over one
//! [`BlockWs`] per block: training, [`NBeats::decompose`] and the batched
//! inference loop (`crate::batch_infer`, which `predict` runs at one row)
//! all call it.

use crate::batch_infer::{predict_row, InferBatch, InferView, Nets};
use crate::scaler::{scale_into, Affine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sad_core::{FeatureVector, ModelOutput, StreamModel};
use sad_nn::{Activation, Mlp, MlpWorkspace};
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
/// snapshot). Crate-visible so the batched inference loop
/// (`crate::batch_infer`) can run the stack through [`forward_stack`].
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

/// One block's workspaces in precision `T`, one per sub-network (trunk,
/// backcast head, forecast head). Training holds training workspaces,
/// whose deltas the optimizer step forms its gradient from; an
/// `InferBatch` holds inference-only ones. Block `l`'s residual input
/// lives in `ws_t.input`, so [`forward_stack`] writes `x_{l+1}` directly
/// into the next block's workspace — no intermediate residual vectors.
#[derive(Clone)]
pub(crate) struct BlockWs<T: Scalar = f64> {
    ws_t: MlpWorkspace<T>,
    ws_b: MlpWorkspace<T>,
    ws_f: MlpWorkspace<T>,
}

impl BlockWs {
    /// One-row training workspaces for `block`.
    fn training(block: &Block) -> Self {
        Self {
            ws_t: block.trunk.workspace(1),
            ws_b: block.backcast_head.workspace(1),
            ws_f: block.forecast_head.workspace(1),
        }
    }
}

impl<T: Scalar> BlockWs<T> {
    /// Inference-only workspaces of `rows` rows shaped for `block`, which
    /// may be of another precision (only layer widths are read).
    pub(crate) fn inference<U: Scalar>(block: &Block<U>, rows: usize) -> Self {
        Self {
            ws_t: MlpWorkspace::inference(&block.trunk, rows),
            ws_b: MlpWorkspace::inference(&block.backcast_head, rows),
            ws_f: MlpWorkspace::inference(&block.forecast_head, rows),
        }
    }

    /// Sets the logical row count of the next [`forward_stack`].
    pub(crate) fn set_batch(&mut self, rows: usize) {
        for ws in [&mut self.ws_t, &mut self.ws_b, &mut self.ws_f] {
            ws.set_batch(rows);
        }
    }

    /// Row `row` of the block's residual input — for block 0, the stack
    /// input `x_0` the caller loads.
    pub(crate) fn input_row_mut(&mut self, row: usize) -> &mut [T] {
        self.ws_t.input_row_mut(row)
    }
}

/// The residual stack's forward pass over the rows loaded into block 0's
/// input: per block `l`, the trunk, both heads, `x_{l+1} = x_l − x̂_l`
/// into block `l + 1`'s input, and `ŷ = Σ_l ŷ_l` into `forecast`. The one
/// N-BEATS forward: training, [`NBeats::decompose`] and the batched
/// inference loop all run it.
pub(crate) fn forward_stack<T: Scalar>(
    blocks: &[Block<T>],
    ws: &mut [BlockWs<T>],
    forecast: &mut Matrix<T>,
) {
    let rows = forecast.rows();
    for (l, block) in blocks.iter().enumerate() {
        let (cur, rest) = ws.split_at_mut(l + 1);
        let bw = &mut cur[l];
        block.trunk.forward_batch(&mut bw.ws_t);
        bw.ws_b.input_mut().copy_from(bw.ws_t.output());
        block.backcast_head.forward_batch(&mut bw.ws_b);
        bw.ws_f.input_mut().copy_from(bw.ws_t.output());
        block.forecast_head.forward_batch(&mut bw.ws_f);
        // Copy the first block's forecast, add the rest: `0.0 + ŷ` is not
        // the identity for `ŷ = −0.0`.
        if l == 0 {
            forecast.copy_from(bw.ws_f.output());
        } else {
            for b in 0..rows {
                for (acc, &f) in forecast.row_mut(b).iter_mut().zip(bw.ws_f.output().row(b)) {
                    *acc += f;
                }
            }
        }
        if let Some(next) = rest.first_mut() {
            for b in 0..rows {
                let residual = bw.ws_t.input().row(b).iter().zip(bw.ws_b.output().row(b));
                for (o, (&x, &xb)) in next.ws_t.input_row_mut(b).iter_mut().zip(residual) {
                    *o = x - xb;
                }
            }
        }
    }
}

/// Stack-level training buffers for one window. Sized once; the
/// steady-state fine-tune loop does not allocate.
#[derive(Clone)]
struct NBeatsBuffers {
    blocks: Vec<BlockWs>,
    /// `1×n` forecast target (the standardized last stream vector).
    targets: Matrix,
    /// `1×n` running forecast sum `Σ_l ŷ_l`.
    forecast: Matrix,
    /// `1×n` forecast-loss gradient `∂L/∂ŷ` (shared by every block).
    g_forecast: Matrix,
    /// `1×input` residual gradient `∂L/∂x_{l+1}` accumulator.
    g_residual: Matrix,
    /// Scratch for the standardized full window before the history/target
    /// split (`w·N` wide).
    scratch: Vec<f64>,
}

impl NBeatsBuffers {
    /// Loads window `x`, scaled: its history into block 0's input, its
    /// last step (the forecast target) into `targets`.
    fn load(&mut self, scaler: Option<&Affine>, x: &FeatureVector) {
        scale_into(scaler, x.as_slice(), &mut self.scratch);
        let split = self.scratch.len() - x.n();
        self.blocks[0].input_row_mut(0).copy_from_slice(&self.scratch[..split]);
        self.targets.row_mut(0).copy_from_slice(&self.scratch[split..]);
    }
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

}

/// The N-BEATS forecaster.
#[derive(Clone)]
pub struct NBeats {
    blocks: Option<Vec<Block>>,
    opts: Vec<Adam>,
    scaler: Option<Affine>,
    bufs: Option<NBeatsBuffers>,
    /// `predict`'s one-row inference loop, built on its first call.
    infer: Option<InferBatch>,
    /// One basis per block; `(kind, theta)` pairs.
    plan: Vec<(BasisKind, usize)>,
    hidden: usize,
    lr: f64,
    seed: u64,
}

impl NBeats {
    /// Smallest window `w` N-BEATS accepts: it forecasts `s_t` from the
    /// `w − 1` steps before it, so it needs at least one step of history.
    pub const MIN_WINDOW: usize = 2;

    /// Creates an N-BEATS model with `n_blocks` generic-basis blocks.
    pub fn new(n_blocks: usize, hidden: usize, theta: usize, lr: f64, seed: u64) -> Self {
        assert!(n_blocks > 0 && hidden > 0 && theta > 0, "block dimensions must be positive");
        Self {
            blocks: None,
            opts: Vec::new(),
            scaler: None,
            bufs: None,
            infer: None,
            plan: vec![(BasisKind::Generic, theta); n_blocks],
            hidden,
            lr,
            seed,
        }
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
            infer: None,
            plan: vec![(BasisKind::Trend, degree), (BasisKind::Seasonal, 2 * harmonics)],
            hidden,
            lr,
            seed,
        }
    }

    /// The block basis plan (kind, θ-dimension per block).
    pub fn plan(&self) -> &[(BasisKind, usize)] {
        &self.plan
    }

    /// A reasonable default configuration for a `w×N` representation.
    ///
    /// # Panics
    /// Panics if `w` is below [`Self::MIN_WINDOW`].
    pub fn for_dims(w: usize, n: usize, seed: u64) -> Self {
        assert!(w >= Self::MIN_WINDOW, "N-BEATS needs at least two steps of history");
        let input = (w - 1) * n;
        Self::new(2, (input / 2).clamp(8, 64), 8, 1e-3, seed)
    }

    fn ensure_blocks(&mut self, input: usize, output: usize) {
        if self.blocks.is_some() {
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
        self.bufs = Some(NBeatsBuffers {
            blocks: blocks.iter().map(BlockWs::training).collect(),
            targets: Matrix::zeros(1, output),
            forecast: Matrix::zeros(1, output),
            g_forecast: Matrix::zeros(1, output),
            g_residual: Matrix::zeros(1, input),
            scratch: vec![0.0; input + output],
        });
        self.blocks = Some(blocks);
    }

    /// One SSE training step on window `x` through the workspace path,
    /// with zero heap allocations: the original per-sample step, bit for
    /// bit (same summation order in every kernel, same segmented optimizer
    /// trajectory). The standardized history goes into block 0's trunk
    /// workspace and the standardized target into `targets`
    /// ([`NBeatsBuffers::load`]).
    fn train_step(&mut self, x: &FeatureVector) {
        let blocks = self.blocks.as_mut().expect("blocks initialized");
        let bufs = self.bufs.as_mut().expect("buffers initialized");
        bufs.load(self.scaler.as_ref(), x);
        forward_stack(blocks, &mut bufs.blocks, &mut bufs.forecast);
        let NBeatsBuffers { blocks: bbs, targets, forecast, g_forecast, g_residual, .. } = bufs;
        let n_blocks = blocks.len();

        // ---- Backward through the residual chain.
        // ∂SSE/∂ŷ = 2(ŷ − y), identical for every block (ŷ is the sum).
        for ((g, &p), &t) in g_forecast.row_mut(0).iter_mut().zip(forecast.row(0)).zip(targets.row(0))
        {
            *g = 2.0 * (p - t);
        }
        g_residual.fill(0.0); // ∂L/∂x_L (unused tail)
        for l in (0..n_blocks).rev() {
            let bb = &mut bbs[l];
            let block = &blocks[l];
            // Forecast head: every block's forecast feeds the sum directly.
            bb.ws_f.grad_out_mut().copy_from(g_forecast);
            block.forecast_head.backward_batch(&mut bb.ws_f, true);
            // Backcast head: x_{l+1} = x_l − x̂_l ⇒ ∂L/∂x̂_l = −∂L/∂x_{l+1}.
            for (g, &r) in bb.ws_b.grad_out_mut().row_mut(0).iter_mut().zip(g_residual.row(0)) {
                *g = -r;
            }
            block.backcast_head.backward_batch(&mut bb.ws_b, true);
            // Interpretable bases are fixed: zero the expansion layer's
            // (layer 1 of each head) deltas, so its gradient is +0.0 and
            // the optimizer (whose moments are fed zeros too) never moves
            // the basis vectors. Nothing reads these deltas again.
            if block.basis != BasisKind::Generic {
                bb.ws_f.zero_delta(1);
                bb.ws_b.zero_delta(1);
            }
            // Trunk output gradient: forecast path + backcast path.
            {
                let go = bb.ws_t.grad_out_mut();
                for ((g, &f), &bv) in
                    go.row_mut(0).iter_mut().zip(bb.ws_f.grad_in().row(0)).zip(bb.ws_b.grad_in().row(0))
                {
                    *g = f + bv;
                }
            }
            // Trunk: ∂L/∂x_l gets the trunk path plus the residual pass-through.
            block.trunk.backward_batch(&mut bb.ws_t, true);
            for (g, &t) in g_residual.row_mut(0).iter_mut().zip(bb.ws_t.grad_in().row(0)) {
                *g += t;
            }
        }

        // ---- Apply per-block updates: one segmented optimizer step over
        // the trunk|backcast|forecast parameter range, each gradient
        // streamed from that sub-network's workspace.
        for ((block, bb), opt) in blocks.iter_mut().zip(bbs.iter()).zip(&mut self.opts) {
            opt.begin_step(block.num_params());
            let off = block.trunk.step_terms(&[&bb.ws_t], opt, 0);
            let off = block.backcast_head.step_terms(&[&bb.ws_b], opt, off);
            block.forecast_head.step_terms(&[&bb.ws_f], opt, off);
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
    /// interpretability view the basis expansion exists for — in
    /// standardized space, one forward pass on the training buffers.
    pub fn decompose(&mut self, x: &FeatureVector) -> Vec<(Vec<f64>, Vec<f64>)> {
        self.ensure_blocks((x.w() - 1) * x.n(), x.n());
        let blocks = self.blocks.as_ref().expect("blocks initialized");
        let bufs = self.bufs.as_mut().expect("buffers initialized");
        bufs.load(self.scaler.as_ref(), x);
        forward_stack(blocks, &mut bufs.blocks, &mut bufs.forecast);
        let parts = bufs.blocks.iter();
        parts.map(|bw| (bw.ws_b.output_row(0).to_vec(), bw.ws_f.output_row(0).to_vec())).collect()
    }
}

impl StreamModel for NBeats {
    fn name(&self) -> &'static str {
        "N-BEATS"
    }

    fn predict(&mut self, x: &FeatureVector) -> ModelOutput {
        assert!(x.w() >= Self::MIN_WINDOW, "N-BEATS needs at least two steps of history");
        self.ensure_blocks((x.w() - 1) * x.n(), x.n());
        let blocks = self.blocks.as_deref().expect("blocks initialized");
        let view = InferView { nets: Nets::NBeats(blocks), scaler: self.scaler.as_ref() };
        predict_row(&mut self.infer, view, x)
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
        assert!(parts.iter().all(|(b, f)| b.len() == 14 && f.len() == 2));
        let summed: Vec<f64> = (0..2)
            .map(|j| parts.iter().map(|(_, f)| f[j]).sum::<f64>())
            .collect();
        // `predict` maps the summed forecast back to raw units.
        let mut raw = [0.0; 2];
        nb.scaler.as_ref().unwrap().inverse_tail_into(&summed, &mut raw);
        let ModelOutput::Forecast(direct) = nb.predict(x) else { unreachable!() };
        for (a, b) in raw.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-9, "decomposition mismatch {a} vs {b}");
        }
    }

    #[test]
    fn decompose_leaves_the_training_trajectory_alone() {
        // `decompose` runs on the training buffers; a step reloads them.
        let train = sine_windows(20, 8);
        let mut a = NBeats::new(2, 8, 4, 1e-3, 5);
        a.fit_initial(&train, 3);
        let mut b = a.clone();
        let _ = b.decompose(&train[7]);
        a.fine_tune(&train);
        b.fine_tune(&train);
        assert_eq!(a.predict(&train[3]), b.predict(&train[3]));
    }

    /// Descent check of the full residual-stack backward pass.
    #[test]
    fn grad_check_residual_stack() {
        let mut nb = NBeats::new(2, 6, 3, 1e-3, 21);
        nb.ensure_blocks(8, 2);
        let target = vec![0.3, -0.2];
        // No scaler fitted → the model sees raw values, so one window =
        // history ++ target (w = 5 steps of n = 2 channels).
        let mut data: Vec<f64> = (0..8).map(|i| (i as f64 * 0.37).sin()).collect();
        data.extend_from_slice(&target);
        let window = FeatureVector::new(data, 5, 2);

        // Analytic gradient via a single zero-lr "training step" with spy
        // optimizers is awkward; instead check loss decrease under a tiny
        // step, which fails if any gradient sign is wrong.
        let loss = |nb: &mut NBeats| -> f64 {
            let ModelOutput::Forecast(f) = nb.predict(&window) else { unreachable!() };
            f.iter().zip(&target).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        let before = loss(&mut nb);
        for _ in 0..25 {
            nb.fine_tune(std::slice::from_ref(&window));
        }
        let after = loss(&mut nb);
        assert!(after < before, "gradient steps must descend: {before} -> {after}");
        assert!(after < before * 0.7, "descent should be substantial: {before} -> {after}");
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
