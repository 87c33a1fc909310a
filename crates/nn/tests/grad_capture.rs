//! The streamed training step's gradient, read back through a recording
//! optimizer.
//!
//! [`Mlp::step_terms`] never stores a parameter gradient: it forms each
//! one from the deltas and layer inputs left in the training workspaces,
//! a fixed-size chunk at a time, and hands each chunk to
//! `Optimizer::step_segment`. A [`common::Recorder`] captures every slice
//! it is handed, and these tests compare the captured gradient bitwise
//! (`f64::to_bits`) with per-sample [`Mlp::backward`] passes summed into
//! zeroed [`sad_nn::MlpGrads`] — one term, two terms, and a layer frozen by
//! zeroing its deltas, at batch sizes 1 to 5, and rows whose `δ` is ±0
//! against non-finite inputs.

mod common;

use common::{minibatch_mean, streamed_grads, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sad_nn::{mse_grad, Activation, Mlp, MlpGrads, MlpWorkspace};
use sad_tensor::Optimizer;

/// Wide enough that the first weight matrix (30×40) spans several chunks
/// whose boundaries fall inside rows.
const DIMS: &[usize] = &[40, 30, 40];

fn make_net(acts: &[Activation], seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(DIMS, acts, &mut rng)
}

/// Deterministic inputs with exact zeros and negative zeros mixed in, so
/// some `δ·x` products are `−0.0`.
fn sample(dim: usize, k: usize) -> Vec<f64> {
    (0..dim)
        .map(|i| match (i + k) % 7 {
            0 => 0.0,
            3 => -0.0,
            _ => ((k * 31 + i * 7 + 3) as f64 * 0.61803).sin() * 2.0,
        })
        .collect()
}

/// Loads `rows` into `ws`, runs forward and a backward pass seeded with
/// the MSE gradient towards `target(row)`.
fn backward(net: &Mlp, ws: &mut MlpWorkspace, rows: &[Vec<f64>], target: impl Fn(usize) -> Vec<f64>) {
    ws.set_batch(rows.len());
    for (b, x) in rows.iter().enumerate() {
        ws.input_row_mut(b).copy_from_slice(x);
    }
    net.forward_batch(ws);
    for b in 0..rows.len() {
        let g = mse_grad(ws.output_row(b), &target(b));
        ws.grad_out_mut().row_mut(b).copy_from_slice(&g);
    }
    net.backward_batch(ws, false);
}

/// Per-sample reference: `Mlp::backward` for every row, accumulated in
/// order into one zeroed gradient.
fn per_sample(net: &Mlp, rows: &[Vec<f64>], target: impl Fn(usize) -> Vec<f64>, grads: &mut MlpGrads) {
    for (b, x) in rows.iter().enumerate() {
        let cache = net.forward(x);
        let g = mse_grad(cache.output(), &target(b));
        net.backward(&cache, &g, grads);
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn activations() -> [[Activation; 2]; 3] {
    [
        [Activation::Relu, Activation::Identity],
        [Activation::Tanh, Activation::Sigmoid],
        [Activation::Sigmoid, Activation::Identity],
    ]
}

#[test]
fn one_term_equals_summed_per_sample_backward_bitwise() {
    for (c, acts) in activations().iter().enumerate() {
        for batch in 1..=5 {
            let mut net = make_net(acts, 10 + c as u64);
            let rows: Vec<Vec<f64>> = (0..batch).map(|k| sample(DIMS[0], k + 3 * c)).collect();
            let target = |b: usize| sample(DIMS[0], 50 + b);
            let mut ws = net.workspace(5);
            backward(&net, &mut ws, &rows, target);
            let got = streamed_grads(&mut net, &[&ws]);

            let mut reference = net.zero_grads();
            per_sample(&net, &rows, target, &mut reference);
            let want = minibatch_mean(&reference.flatten(), batch);
            assert_eq!(bits(&got), bits(&want), "activations {c}, B = {batch}");
        }
    }
}

#[test]
fn two_terms_accumulate_in_call_order_bitwise() {
    for (c, acts) in activations().iter().enumerate() {
        for batch in 1..=5 {
            let mut net = make_net(acts, 20 + c as u64);
            let first: Vec<Vec<f64>> = (0..batch).map(|k| sample(DIMS[0], k)).collect();
            let second: Vec<Vec<f64>> = (0..batch).map(|k| sample(DIMS[0], 100 + k)).collect();
            let (t1, t2) = (|b: usize| sample(DIMS[0], 200 + b), |b: usize| sample(DIMS[0], 300 + b));
            let mut ws1 = net.workspace(5);
            let mut ws2 = net.workspace(5);
            backward(&net, &mut ws1, &first, t1);
            backward(&net, &mut ws2, &second, t2);
            let got = streamed_grads(&mut net, &[&ws1, &ws2]);

            let mut reference = net.zero_grads();
            per_sample(&net, &first, t1, &mut reference);
            per_sample(&net, &second, t2, &mut reference);
            let want = minibatch_mean(&reference.flatten(), batch);
            assert_eq!(bits(&got), bits(&want), "activations {c}, B = {batch}");

            // The order is part of the contract: with more than two
            // addends per parameter (B > 1) swapping the terms changes the
            // floating-point sum, so the swapped call matches the swapped
            // reference.
            let swapped = streamed_grads(&mut net, &[&ws2, &ws1]);
            let mut reference = net.zero_grads();
            per_sample(&net, &second, t2, &mut reference);
            per_sample(&net, &first, t1, &mut reference);
            let want = minibatch_mean(&reference.flatten(), batch);
            assert_eq!(bits(&swapped), bits(&want), "swapped, activations {c}, B = {batch}");
        }
    }
}

#[test]
fn zeroed_deltas_freeze_a_layer_at_plus_zero() {
    for batch in 1..=5 {
        let mut net = make_net(&[Activation::Tanh, Activation::Identity], 30);
        let rows: Vec<Vec<f64>> = (0..batch).map(|k| sample(DIMS[0], k + 7)).collect();
        let target = |b: usize| sample(DIMS[0], 70 + b);
        let mut ws = net.workspace(5);
        backward(&net, &mut ws, &rows, target);
        ws.zero_delta(1);
        let got = streamed_grads(&mut net, &[&ws]);

        // Reference: the zeroed buffer a frozen layer's gradient is set to.
        let mut reference = net.zero_grads();
        per_sample(&net, &rows, target, &mut reference);
        let mut want = minibatch_mean(&reference.flatten(), batch);
        let frozen = net.layers()[0].num_params()..net.num_params();
        want[frozen.clone()].fill(0.0);
        assert_eq!(bits(&got), bits(&want), "B = {batch}");
        assert!(got[frozen].iter().all(|g| g.to_bits() == 0), "frozen layer gradient is +0.0");
    }
}

/// A row whose `δ` is ±0 is skipped, as the zeroed buffer skips it, so
/// its gradient stays +0.0 even where the layer input is infinite or NaN
/// (`0·∞` would be NaN); rows with `δ ≠ 0` carry the non-finite values
/// through exactly as the per-sample pass does.
#[test]
fn zero_delta_rows_are_skipped_against_non_finite_inputs() {
    let mut net = Mlp::new(&[3, 3], &[Activation::Identity], &mut StdRng::seed_from_u64(50));
    let x = [f64::INFINITY, 1.5, f64::NAN];
    let grad_out = [0.0, -0.0, 0.5];
    let mut ws = net.workspace(1);
    ws.input_row_mut(0).copy_from_slice(&x);
    net.forward_batch(&mut ws);
    ws.grad_out_mut().row_mut(0).copy_from_slice(&grad_out);
    net.backward_batch(&mut ws, false);
    let got = streamed_grads(&mut net, &[&ws]);

    let mut reference = net.zero_grads();
    net.backward(&net.forward(&x), &grad_out, &mut reference);
    assert_eq!(bits(&got), bits(&reference.flatten()));
    assert!(got[..6].iter().all(|g| g.to_bits() == 0), "δ = ±0 rows: {got:?}");
}

/// Chunks tile the parameter buffer in order, at most 512 doubles each
/// and a multiple of 4 except the last chunk of each weight matrix and
/// bias vector; an offset shifts every chunk and is returned advanced.
#[test]
fn chunks_tile_the_buffer_at_the_given_offset() {
    let mut net = make_net(&[Activation::Relu, Activation::Identity], 40);
    let rows = vec![sample(DIMS[0], 1)];
    let mut ws = net.workspace(1);
    backward(&net, &mut ws, &rows, |_| sample(DIMS[0], 2));
    let offset = 13;
    let mut rec = Recorder::default();
    rec.begin_step(offset + net.num_params());
    assert_eq!(net.step_terms(&[&ws], &mut rec, offset), offset + net.num_params());

    let mut ends = Vec::new();
    let mut at = offset;
    for layer in net.layers() {
        at += layer.weights.rows() * layer.weights.cols();
        ends.push(at);
        at += layer.bias.len();
        ends.push(at);
    }
    let mut next = offset;
    for &(off, len) in &rec.segments {
        assert_eq!(off, next, "segments are contiguous and in order");
        assert!(len > 0 && len <= 512, "segment length {len}");
        next = off + len;
        assert!(len % 4 == 0 || ends.contains(&next), "only a last chunk has a tail: {off}+{len}");
    }
    assert_eq!(next, offset + net.num_params());
    assert!(rec.grads[..offset].iter().all(|g| g.is_nan()), "nothing written before the offset");
    assert!(rec.segments.len() > 2 * net.layers().len(), "a 1200-weight matrix spans chunks");
}
