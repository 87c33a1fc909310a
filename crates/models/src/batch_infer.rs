//! Cross-stream batched inference for the NN-backed models (fleet serving).
//!
//! The fleet's headline optimisation packs the per-step feature windows of
//! many streams into one row-major matrix and pushes them through a single
//! `Mlp::forward_batch` per sub-network, amortizing inference the way
//! `MlpWorkspace` already amortizes training. This module provides the
//! model-side machinery, written once for both serving precisions:
//!
//! * [`infer_view`] — the one place a `dyn StreamModel` is recognized as
//!   an AE, USAD or N-BEATS: it borrows the networks `predict` reads and
//!   the fitted [`Affine`] scaler as an [`InferView`];
//! * [`ArchKey`] / [`batch_arch_key`] — which streams are *eligible* to
//!   share a batch (same model family, identical layer dimensions);
//! * [`infer_state_equal`] — which eligible streams may *actually* share
//!   one forward pass (bitwise-identical inference parameters: only then
//!   is running every row through one member's network exactly the
//!   per-stream computation);
//! * [`InferSnapshot`] — an owned copy of a view's weights and scaler in
//!   another precision (the f32 serving snapshot), re-synced in place on
//!   training events;
//! * [`InferBatch`] — reusable batched workspaces in precision `T` plus
//!   the `begin`/`pack`/`forward`/`emit_into` loop that reproduces each
//!   model's `predict` row by row, run against any view of precision `T`.
//!
//! At `T = f64` the loop reads the live parameters and is bitwise-equal to
//! `predict`. That rests on three already-proven facts: `forward_batch`
//! computes each output row independently and identically to `Mlp::infer`
//! (`sad-nn` batch parity tests), the scaler's `*_into` variants match
//! their allocating twins bitwise (scaler tests), and matrix-row copies
//! are exact. The tests below close the loop per model against `predict`.
//! At `T = f32` the same loop runs on a snapshot and agrees with `predict`
//! to f32 relative accuracy.

use crate::ae::TwoLayerAe;
use crate::nbeats::{Block, NBeats};
use crate::scaler::Affine;
use crate::usad::Usad;
use sad_core::{FeatureVector, ModelOutput, StreamModel};
use sad_nn::{Mlp, MlpWorkspace};
use sad_tensor::{Matrix, Scalar};

/// The networks one model's `predict` reads, borrowed.
#[derive(Clone, Copy)]
pub(crate) enum Nets<'a, T: Scalar> {
    /// `TwoLayerAe`'s autoencoder.
    Ae(&'a Mlp<T>),
    /// `Usad`'s inference half `AE₁ = D₁ ∘ E`: encoder, decoder 1.
    Usad(&'a Mlp<T>, &'a Mlp<T>),
    /// `NBeats`' residual block stack.
    NBeats(&'a [Block<T>]),
}

/// Borrowed inference state of a batchable model — every network its
/// `predict` reads plus its fitted scaler — in precision `T`.
///
/// A cohort's members share this state bit for bit, so any member's view
/// serves the whole cohort. f64 views borrow a model's live parameters
/// ([`infer_view`]); f32 views borrow an [`InferSnapshot`].
#[derive(Clone, Copy)]
pub struct InferView<'a, T: Scalar = f64> {
    pub(crate) nets: Nets<'a, T>,
    pub(crate) scaler: Option<&'a Affine<T>>,
}

/// The inference view of `model`, or `None` when the model is not an
/// NN-backed type or its networks have not materialized yet (e.g. before
/// the warm-up fit). Non-batchable streams stay on the scalar per-stream
/// path.
pub fn infer_view(model: &dyn StreamModel) -> Option<InferView<'_>> {
    let any = model.as_any()?;
    if let Some(ae) = any.downcast_ref::<TwoLayerAe>() {
        return ae.infer_view();
    }
    if let Some(usad) = any.downcast_ref::<Usad>() {
        return usad.infer_view();
    }
    any.downcast_ref::<NBeats>()?.infer_view()
}

/// Model family of an [`ArchKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchKind {
    /// `TwoLayerAe` reconstruction.
    Ae,
    /// `Usad` — only the inference half `AE₁ = D₁ ∘ E`.
    Usad,
    /// `NBeats` residual forecast stack.
    NBeats,
}

/// Batching eligibility key: streams share a batch group iff their models
/// have the same kind and identical layer dimensions (the issue's rule:
/// same arch ⇒ same batch). Parameter values are deliberately *not* part
/// of the key — they are compared separately by [`infer_state_equal`] to
/// form weight-identical cohorts within a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchKey {
    kind: ArchKind,
    /// Flattened layer dimensions of every network `predict` touches
    /// (sentinel-separated per network so distinct topologies cannot
    /// collide).
    dims: Vec<usize>,
}

impl ArchKey {
    /// Model family.
    pub fn kind(&self) -> ArchKind {
        self.kind
    }
}

/// The batching eligibility key of a model, or `None` when it has no
/// [`infer_view`].
pub fn batch_arch_key(model: &dyn StreamModel) -> Option<ArchKey> {
    let mut dims = Vec::new();
    // `in_dim, out₁, out₂, …, SENTINEL` per network.
    let mut push = |net: &Mlp| {
        dims.push(net.in_dim());
        dims.extend(net.layers().iter().map(|layer| layer.out_dim()));
        dims.push(usize::MAX);
    };
    let kind = match infer_view(model)?.nets {
        Nets::Ae(net) => {
            push(net);
            ArchKind::Ae
        }
        Nets::Usad(encoder, dec1) => {
            push(encoder);
            push(dec1);
            ArchKind::Usad
        }
        Nets::NBeats(blocks) => {
            for block in blocks {
                push(&block.trunk);
                push(&block.backcast_head);
                push(&block.forecast_head);
            }
            ArchKind::NBeats
        }
    };
    Some(ArchKey { kind, dims })
}

/// Whether two models' *inference* computations are bitwise identical —
/// the cohort test: only streams passing this may share one forward pass.
/// Exact (`f64::to_bits`) comparison of every parameter `predict` reads,
/// plus the fitted scaler statistics. Models of different kinds or shapes
/// are never equal; training-only state (optimizers, `dec2`, gradient
/// buffers) is irrelevant to `predict` and ignored.
pub fn infer_state_equal(a: &dyn StreamModel, b: &dyn StreamModel) -> bool {
    let (Some(x), Some(y)) = (infer_view(a), infer_view(b)) else { return false };
    let nets_equal = match (x.nets, y.nets) {
        (Nets::Ae(p), Nets::Ae(q)) => p.params_equal(q),
        (Nets::Usad(pe, pd), Nets::Usad(qe, qd)) => pe.params_equal(qe) && pd.params_equal(qd),
        (Nets::NBeats(p), Nets::NBeats(q)) => {
            p.len() == q.len()
                && p.iter().zip(q).all(|(s, t)| {
                    s.trunk.params_equal(&t.trunk)
                        && s.backcast_head.params_equal(&t.backcast_head)
                        && s.forecast_head.params_equal(&t.forecast_head)
                })
        }
        _ => false,
    };
    nets_equal
        && match (x.scaler, y.scaler) {
            (None, None) => true,
            (Some(s), Some(t)) => s.state_equal(t),
            _ => false,
        }
}

/// Owned networks of an [`InferSnapshot`], mirroring [`Nets`].
enum OwnedNets<T: Scalar> {
    Ae(Mlp<T>),
    Usad(Mlp<T>, Mlp<T>),
    NBeats(Vec<Block<T>>),
}

/// An owned copy of a model's inference state — networks and scaler only —
/// converted to precision `T`: the fleet's per-cohort f32 serving
/// snapshot.
///
/// The model keeps sole ownership of the authoritative f64 parameters and
/// every training path; the snapshot is re-synced in place
/// ([`Self::resync`], allocation-free) on training events and serves
/// every round in between through [`Self::view`]. Its outputs feed the
/// nonconformity scorer, never any training state.
pub struct InferSnapshot<T: Scalar> {
    nets: OwnedNets<T>,
    scaler: Option<Affine<T>>,
}

impl<T: Scalar> InferSnapshot<T> {
    /// Converts `src`'s networks and scaler to `T`.
    pub fn new(src: InferView<'_>) -> Self {
        let nets = match src.nets {
            Nets::Ae(net) => OwnedNets::Ae(Mlp::from_precision(net)),
            Nets::Usad(encoder, dec1) => {
                OwnedNets::Usad(Mlp::from_precision(encoder), Mlp::from_precision(dec1))
            }
            Nets::NBeats(blocks) => {
                OwnedNets::NBeats(blocks.iter().map(Block::from_precision).collect())
            }
        };
        Self { nets, scaler: src.scaler.map(Affine::from_precision) }
    }

    /// Re-converts every parameter from `src` in place — the
    /// training-event hook. Performs **no heap allocation**.
    ///
    /// # Panics
    /// Panics if `src` is a different model kind or shape than the
    /// snapshot, or its scaler appeared or disappeared (a cohort never
    /// changes architecture, only values).
    pub fn resync(&mut self, src: InferView<'_>) {
        match (&mut self.nets, src.nets) {
            (OwnedNets::Ae(net), Nets::Ae(from)) => net.convert_from(from),
            (OwnedNets::Usad(encoder, dec1), Nets::Usad(from_e, from_d)) => {
                encoder.convert_from(from_e);
                dec1.convert_from(from_d);
            }
            (OwnedNets::NBeats(blocks), Nets::NBeats(from)) => {
                assert_eq!(blocks.len(), from.len(), "N-BEATS block count mismatch");
                for (block, from) in blocks.iter_mut().zip(from) {
                    block.convert_from(from);
                }
            }
            _ => panic!("snapshot re-synced from a different model kind"),
        }
        match (&mut self.scaler, src.scaler) {
            (None, None) => {}
            (Some(scaler), Some(from)) => scaler.convert_from(from),
            _ => panic!("scaler presence changed across re-sync"),
        }
    }

    /// The snapshot as an inference view.
    pub fn view(&self) -> InferView<'_, T> {
        let nets = match &self.nets {
            OwnedNets::Ae(net) => Nets::Ae(net),
            OwnedNets::Usad(encoder, dec1) => Nets::Usad(encoder, dec1),
            OwnedNets::NBeats(blocks) => Nets::NBeats(blocks),
        };
        InferView { nets, scaler: self.scaler.as_ref() }
    }
}

/// Per-block inference workspaces for the N-BEATS residual stack.
struct NBeatsBlockWs<T: Scalar> {
    ws_t: MlpWorkspace<T>,
    ws_b: MlpWorkspace<T>,
    ws_f: MlpWorkspace<T>,
}

enum Workspaces<T: Scalar> {
    Ae {
        ws: MlpWorkspace<T>,
    },
    Usad {
        ws_e: MlpWorkspace<T>,
        ws_d1: MlpWorkspace<T>,
    },
    NBeats {
        blocks: Vec<NBeatsBlockWs<T>>,
        /// `B×n` running forecast sum `Σ_l ŷ_l`.
        forecast: Matrix<T>,
        /// `w·N` scratch for the scaled full window before the
        /// history/target split.
        scratch: Vec<T>,
    },
}

/// Reusable batched-inference buffers in precision `T` for one
/// architecture.
///
/// The per-step loop is `begin(rows)` → `pack(view, row, x)` per stream →
/// `forward(view)` → `emit_into(view, row, out)` per stream, where `view`
/// is the inference state of the cohort being served (any member's, by
/// the cohort invariant). The buffers hold no parameters, so one batch
/// serves every cohort of its architecture in turn. All buffers are sized
/// once for `capacity` rows; steady-state rounds perform zero heap
/// allocations.
pub struct InferBatch<T: Scalar = f64> {
    inner: Workspaces<T>,
    capacity: usize,
    rows: usize,
}

impl<T: Scalar> InferBatch<T> {
    /// Builds batch buffers for `leader`'s architecture, or `None` when
    /// the model is not batchable (see [`infer_view`]). Only layer widths
    /// are read, so an f32 batch is shaped from the f64 model whose
    /// snapshot it will serve.
    pub fn new(leader: &dyn StreamModel, capacity: usize) -> Option<Self> {
        assert!(capacity > 0, "batch capacity must be positive");
        let inner = match infer_view(leader)?.nets {
            Nets::Ae(net) => Workspaces::Ae { ws: MlpWorkspace::inference(net, capacity) },
            Nets::Usad(encoder, dec1) => Workspaces::Usad {
                ws_e: MlpWorkspace::inference(encoder, capacity),
                ws_d1: MlpWorkspace::inference(dec1, capacity),
            },
            Nets::NBeats(blocks) => {
                let input = blocks[0].trunk.in_dim();
                let output = blocks[0].forecast_head.out_dim();
                Workspaces::NBeats {
                    blocks: blocks
                        .iter()
                        .map(|b| NBeatsBlockWs {
                            ws_t: MlpWorkspace::inference(&b.trunk, capacity),
                            ws_b: MlpWorkspace::inference(&b.backcast_head, capacity),
                            ws_f: MlpWorkspace::inference(&b.forecast_head, capacity),
                        })
                        .collect(),
                    forecast: Matrix::zeros(capacity, output),
                    scratch: vec![T::ZERO; input + output],
                }
            }
        };
        Some(Self { inner, capacity, rows: 0 })
    }

    /// Maximum rows per forward pass.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Starts a round of `rows ≤ capacity` streams.
    pub fn begin(&mut self, rows: usize) {
        assert!(rows > 0 && rows <= self.capacity, "rows {rows} out of 1..={}", self.capacity);
        self.rows = rows;
        match &mut self.inner {
            Workspaces::Ae { ws } => ws.set_batch(rows),
            Workspaces::Usad { ws_e, ws_d1 } => {
                ws_e.set_batch(rows);
                ws_d1.set_batch(rows);
            }
            Workspaces::NBeats { blocks, forecast, .. } => {
                for b in blocks.iter_mut() {
                    b.ws_t.set_batch(rows);
                    b.ws_b.set_batch(rows);
                    b.ws_f.set_batch(rows);
                }
                forecast.resize_rows(rows);
            }
        }
    }

    /// Loads stream `row`'s feature window, applying the view's input
    /// scaling exactly as the model's `predict` would.
    pub fn pack(&mut self, view: InferView<'_, T>, row: usize, x: &FeatureVector) {
        assert!(row < self.rows, "row {row} out of batch of {}", self.rows);
        let dst = match &mut self.inner {
            Workspaces::Ae { ws } => ws.input_row_mut(row),
            Workspaces::Usad { ws_e, .. } => ws_e.input_row_mut(row),
            Workspaces::NBeats { scratch, .. } => {
                assert!(x.w() >= 2, "N-BEATS needs at least two steps of history");
                scratch
            }
        };
        match view.scaler {
            Some(s) => s.transform_into(x.as_slice(), dst),
            None => {
                for (o, &v) in dst.iter_mut().zip(x.as_slice()) {
                    *o = T::from_f64(v);
                }
            }
        }
        if let Workspaces::NBeats { blocks, scratch, .. } = &mut self.inner {
            let split = scratch.len() - x.n();
            blocks[0].ws_t.input_row_mut(row).copy_from_slice(&scratch[..split]);
        }
    }

    /// Runs the view's shared forward pass(es) for the whole batch.
    pub fn forward(&mut self, view: InferView<'_, T>) {
        match (&mut self.inner, view.nets) {
            (Workspaces::Ae { ws }, Nets::Ae(net)) => net.forward_batch(ws),
            (Workspaces::Usad { ws_e, ws_d1 }, Nets::Usad(encoder, dec1)) => {
                encoder.forward_batch(ws_e);
                ws_d1.input_mut().copy_from(ws_e.output());
                dec1.forward_batch(ws_d1);
            }
            (Workspaces::NBeats { blocks, forecast, .. }, Nets::NBeats(nets)) => {
                let rows = self.rows;
                let n_blocks = nets.len();
                for l in 0..n_blocks {
                    {
                        let bb = &mut blocks[l];
                        nets[l].trunk.forward_batch(&mut bb.ws_t);
                        bb.ws_b.input_mut().copy_from(bb.ws_t.output());
                        nets[l].backcast_head.forward_batch(&mut bb.ws_b);
                        bb.ws_f.input_mut().copy_from(bb.ws_t.output());
                        nets[l].forecast_head.forward_batch(&mut bb.ws_f);
                        // ŷ = Σ_l ŷ_l: copy the first block's forecast, add
                        // the rest (copy-then-accumulate matches the scalar
                        // path's `None => Some(f)` initialization bitwise —
                        // `0.0 + f` is not the identity for `f = −0.0`).
                        if l == 0 {
                            forecast.copy_from(bb.ws_f.output());
                        } else {
                            for b in 0..rows {
                                for (acc, &fv) in
                                    forecast.row_mut(b).iter_mut().zip(bb.ws_f.output().row(b))
                                {
                                    *acc += fv;
                                }
                            }
                        }
                    }
                    // x_{l+1} = x_l − x̂_l, written straight into the next
                    // block's trunk input.
                    if l + 1 < n_blocks {
                        let (cur, rest) = blocks.split_at_mut(l + 1);
                        let bb = &cur[l];
                        let next = &mut rest[0];
                        for b in 0..rows {
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
            }
            _ => panic!("inference view does not match the batch's architecture"),
        }
    }

    /// Writes stream `row`'s model output into `out` in raw f64 units,
    /// reusing its existing buffer when the variant and length already
    /// match (the fleet keeps one `ModelOutput` per stream, so
    /// steady-state rounds do not allocate).
    pub fn emit_into(&self, view: InferView<'_, T>, row: usize, out: &mut ModelOutput) {
        assert!(row < self.rows, "row {row} out of batch of {}", self.rows);
        let (z, buf) = match &self.inner {
            Workspaces::Ae { ws } => {
                let z = ws.output_row(row);
                (z, reconstruction_buf(out, z.len()))
            }
            Workspaces::Usad { ws_d1, .. } => {
                let z = ws_d1.output_row(row);
                (z, reconstruction_buf(out, z.len()))
            }
            Workspaces::NBeats { forecast, .. } => {
                let z = forecast.row(row);
                (z, forecast_buf(out, z.len()))
            }
        };
        match view.scaler {
            // A reconstruction spans the whole scaled window; a forecast
            // is its last `n` entries.
            Some(s) => s.inverse_tail_into(z, buf),
            None => {
                for (o, &v) in buf.iter_mut().zip(z) {
                    *o = v.to_f64();
                }
            }
        }
    }
}

fn reconstruction_buf(out: &mut ModelOutput, len: usize) -> &mut [f64] {
    if !matches!(out, ModelOutput::Reconstruction(v) if v.len() == len) {
        *out = ModelOutput::Reconstruction(vec![0.0; len]);
    }
    match out {
        ModelOutput::Reconstruction(v) => v,
        _ => unreachable!(),
    }
}

fn forecast_buf(out: &mut ModelOutput, len: usize) -> &mut [f64] {
    if !matches!(out, ModelOutput::Forecast(v) if v.len() == len) {
        *out = ModelOutput::Forecast(vec![0.0; len]);
    }
    match out {
        ModelOutput::Forecast(v) => v,
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_windows(count: usize, w: usize, phase: f64) -> Vec<FeatureVector> {
        (0..count)
            .map(|s| {
                let data: Vec<f64> = (0..w)
                    .flat_map(|i| {
                        let t = (s + i) as f64 * 0.3 + phase;
                        vec![t.sin(), (t * 0.5).cos() * 2.0]
                    })
                    .collect();
                FeatureVector::new(data, w, 2)
            })
            .collect()
    }

    /// One batched round over `probes` against `view`.
    fn run_batch<T: Scalar>(
        batch: &mut InferBatch<T>,
        view: InferView<'_, T>,
        probes: &[FeatureVector],
    ) -> Vec<ModelOutput> {
        batch.begin(probes.len());
        for (row, x) in probes.iter().enumerate() {
            batch.pack(view, row, x);
        }
        batch.forward(view);
        (0..probes.len())
            .map(|row| {
                let mut out = ModelOutput::Score(0.0);
                batch.emit_into(view, row, &mut out);
                out
            })
            .collect()
    }

    /// Element pairs of two outputs of the same variant and length.
    fn output_pairs(a: &ModelOutput, b: &ModelOutput, ctx: &str) -> Vec<(f64, f64)> {
        match (a, b) {
            (ModelOutput::Reconstruction(x), ModelOutput::Reconstruction(y))
            | (ModelOutput::Forecast(x), ModelOutput::Forecast(y)) => {
                assert_eq!(x.len(), y.len(), "{ctx}: length");
                x.iter().copied().zip(y.iter().copied()).collect()
            }
            other => panic!("{ctx}: variant mismatch {other:?}"),
        }
    }

    /// Drives `probes` through the live f64 view and through an f32
    /// snapshot, as a full batch and as a batch of one, and checks every
    /// row against the model's own `predict`: bitwise for f64, within f32
    /// tolerance for the snapshot.
    fn check_batch_matches_predict(model: &mut dyn StreamModel, probes: &[FeatureVector]) {
        let mut batch = InferBatch::<f64>::new(model, probes.len()).expect("batchable model");
        let mut batch32 = InferBatch::<f32>::new(model, probes.len()).expect("batchable model");
        assert_eq!(batch32.capacity(), probes.len());
        for take in [probes.len(), 1] {
            let view = infer_view(model).expect("batchable model");
            let got = run_batch(&mut batch, view, &probes[..take]);
            let snapshot = InferSnapshot::<f32>::new(view);
            let got32 = run_batch(&mut batch32, snapshot.view(), &probes[..take]);
            for (row, x) in probes[..take].iter().enumerate() {
                let want = model.predict(x);
                let ctx = format!("take {take}, row {row}");
                for (i, (p, q)) in output_pairs(&got[row], &want, &ctx).into_iter().enumerate() {
                    assert_eq!(p.to_bits(), q.to_bits(), "{ctx}: f64 element {i}");
                }
                for (i, (p, q)) in output_pairs(&got32[row], &want, &ctx).into_iter().enumerate() {
                    let err = (p - q).abs();
                    assert!(err <= 1e-4 * q.abs().max(1.0), "{ctx}[{i}]: f32 {p} vs f64 {q}");
                }
            }
        }
    }

    #[test]
    fn ae_batch_matches_predict_bitwise() {
        let train = sine_windows(40, 8, 0.0);
        let mut ae = TwoLayerAe::new(8, 5e-3, 7);
        ae.fit_initial(&train, 20);
        check_batch_matches_predict(&mut ae, &train[10..16]);
    }

    #[test]
    fn usad_batch_matches_predict_bitwise() {
        let train = sine_windows(30, 6, 0.0);
        let mut usad = Usad::new(3, 2e-3, 5);
        usad.fit_initial(&train, 15);
        check_batch_matches_predict(&mut usad, &train[5..10]);
    }

    #[test]
    fn nbeats_batch_matches_predict_bitwise() {
        let train = sine_windows(40, 8, 0.0);
        let mut nb = NBeats::new(2, 16, 6, 2e-3, 11);
        nb.fit_initial(&train, 15);
        check_batch_matches_predict(&mut nb, &train[20..25]);
        // The interpretable (fixed-basis) configuration too.
        let mut nbi = NBeats::interpretable(12, 3, 2, 2e-3, 7);
        nbi.fit_initial(&train, 10);
        check_batch_matches_predict(&mut nbi, &train[12..17]);
    }

    /// Unscaled models (predict before any fit creates the nets lazily,
    /// no scaler) must also match.
    #[test]
    fn unscaled_ae_batch_matches_predict_bitwise() {
        let mut ae = TwoLayerAe::new(4, 1e-3, 1);
        let x = FeatureVector::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let _ = ae.predict(&x); // materializes the net, no scaler
        check_batch_matches_predict(&mut ae, std::slice::from_ref(&x));
    }

    /// A snapshot re-synced after fine-tuning serves exactly what a fresh
    /// snapshot of the tuned model serves.
    #[test]
    fn snapshot_resync_tracks_fine_tuning() {
        let train = sine_windows(40, 8, 0.0);
        let mut ae = TwoLayerAe::new(8, 5e-3, 7);
        ae.fit_initial(&train, 10);
        let mut snapshot = InferSnapshot::<f32>::new(infer_view(&ae).unwrap());
        let mut batch = InferBatch::<f32>::new(&ae, 4).unwrap();
        let probes = &train[3..7];
        let stale = run_batch(&mut batch, snapshot.view(), probes);

        ae.fine_tune(&train);
        ae.fine_tune(&train[5..]);
        snapshot.resync(infer_view(&ae).unwrap());
        let resynced = run_batch(&mut batch, snapshot.view(), probes);
        let fresh = InferSnapshot::<f32>::new(infer_view(&ae).unwrap());
        assert_eq!(resynced, run_batch(&mut batch, fresh.view(), probes));
        assert_ne!(resynced, stale, "the re-sync must pick up the tuned parameters");
    }

    #[test]
    #[should_panic(expected = "different model kind")]
    fn snapshot_resync_rejects_another_kind() {
        let train = sine_windows(30, 8, 0.0);
        let mut ae = TwoLayerAe::new(8, 5e-3, 1);
        ae.fit_initial(&train, 1);
        let mut usad = Usad::new(3, 2e-3, 5);
        usad.fit_initial(&train, 1);
        let mut snapshot = InferSnapshot::<f32>::new(infer_view(&ae).unwrap());
        snapshot.resync(infer_view(&usad).unwrap());
    }

    #[test]
    fn arch_key_groups_same_shape_only() {
        let train = sine_windows(30, 8, 0.0);
        let mut a = TwoLayerAe::new(8, 5e-3, 1);
        let mut b = TwoLayerAe::new(8, 1e-2, 99); // same shape, different params
        let mut c = TwoLayerAe::new(12, 5e-3, 1); // different hidden width
        a.fit_initial(&train, 2);
        b.fit_initial(&train, 2);
        c.fit_initial(&train, 2);
        let ka = batch_arch_key(&a).unwrap();
        assert_eq!(ka.kind(), ArchKind::Ae);
        assert_eq!(ka, batch_arch_key(&b).unwrap());
        assert_ne!(ka, batch_arch_key(&c).unwrap());

        let mut u = Usad::new(3, 2e-3, 5);
        u.fit_initial(&train, 1);
        assert_ne!(ka, batch_arch_key(&u).unwrap());
    }

    #[test]
    fn unfitted_or_non_nn_models_are_not_batchable() {
        let ae = TwoLayerAe::new(8, 5e-3, 1); // no net yet
        assert!(batch_arch_key(&ae).is_none());
        assert!(InferBatch::<f64>::new(&ae, 4).is_none());
        let knn = crate::KnnDistanceModel::new(3);
        assert!(batch_arch_key(&knn).is_none());
        assert!(InferBatch::<f32>::new(&knn, 4).is_none());
    }

    #[test]
    fn infer_state_equal_tracks_training_divergence() {
        let train = sine_windows(30, 8, 0.0);
        let mut a = TwoLayerAe::new(8, 5e-3, 7);
        a.fit_initial(&train, 5);
        let b = a.clone();
        assert!(infer_state_equal(&a, &b), "clones share inference state");
        let mut c = b.clone();
        c.fine_tune(&train);
        assert!(!infer_state_equal(&a, &c), "fine-tuning breaks the cohort");
        // Same shape, different seed → different parameters.
        let mut d = TwoLayerAe::new(8, 5e-3, 8);
        d.fit_initial(&train, 5);
        assert!(!infer_state_equal(&a, &d));
        // Cross-kind comparison is never equal.
        let mut u = Usad::new(3, 2e-3, 5);
        u.fit_initial(&train, 1);
        assert!(!infer_state_equal(&a, &u));
    }

    #[test]
    fn usad_dec2_divergence_keeps_cohort() {
        // dec2 never participates in predict: two USADs equal on
        // (encoder, dec1, scaler) stay in one cohort regardless of dec2.
        let train = sine_windows(30, 6, 0.0);
        let mut a = Usad::new(3, 2e-3, 5);
        a.fit_initial(&train, 10);
        let b = a.clone();
        assert!(infer_state_equal(&a, &b));
    }
}
