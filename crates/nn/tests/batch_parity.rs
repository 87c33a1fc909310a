//! Parity guarantees of the batched training path (ISSUE: batched,
//! zero-allocation NN training).
//!
//! Two families of tests:
//!
//! * **Bitwise parity** — at batch size 1 the workspace-backed batched path
//!   must reproduce the per-sample path *bit for bit*: same forward
//!   activations, same accumulated gradients, same optimizer trajectory.
//!   This is what lets the streaming models default to `batch_size = 1`
//!   and keep every published grid metric byte-identical while still
//!   benefiting from the allocation-free inner loop.
//! * **Workspace reuse** (property-based) — an `MlpWorkspace` is resized
//!   with `set_batch` between chunks of different sizes. Whatever sequence
//!   of batch sizes is replayed, no row of any output may ever depend on
//!   stale state left over from a previous, larger batch.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sad_nn::{Activation, Mlp};
use sad_tensor::{Adam, Sgd};

fn make_net(dims: &[usize], acts: &[Activation], seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(dims, acts, &mut rng)
}

/// Deterministic pseudo-random input stream (no RNG state shared with the
/// nets).
fn sample(dim: usize, k: usize) -> Vec<f64> {
    (0..dim).map(|i| ((k * 31 + i * 7 + 3) as f64 * 0.61803).sin() * 2.0).collect()
}

/// Batched training at `B = 1` walks the exact same parameter trajectory as
/// the per-sample compatibility path, across architectures, activations and
/// optimizers.
#[test]
fn batch_of_one_reproduces_per_sample_trajectory_bitwise() {
    let configs: &[(&[usize], &[Activation])] = &[
        (&[6, 4, 6], &[Activation::Sigmoid, Activation::Identity]),
        (&[5, 8, 8, 5], &[Activation::Tanh, Activation::Relu, Activation::Identity]),
        (&[3, 2, 3], &[Activation::Relu, Activation::Identity]),
    ];
    for (c, (dims, acts)) in configs.iter().enumerate() {
        let mut per_sample = make_net(dims, acts, 100 + c as u64);
        let mut batched = per_sample.clone();
        let mut opt_a = Adam::new(1e-3);
        let mut opt_b = Adam::new(1e-3);
        let mut ws = batched.workspace(1);
        let dim = dims[0];
        for k in 0..50 {
            let x = sample(dim, k);
            per_sample.train_step_mse(&x, &x, &mut opt_a);
            ws.set_batch(1);
            ws.input_row_mut(0).copy_from_slice(&x);
            batched.train_batch_mse_identity(&mut ws, &mut opt_b);
        }
        let a: Vec<u64> = per_sample.params_flat().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = batched.params_flat().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "config {c}: batched B=1 must be bitwise per-sample");
    }
}

/// Same check under plain SGD and SGD-with-momentum (the segmented
/// optimizer step must tile identically for every optimizer).
#[test]
fn batch_of_one_is_bitwise_under_sgd_variants() {
    for momentum in [0.0, 0.9] {
        let dims: &[usize] = &[4, 6, 4];
        let acts = &[Activation::Tanh, Activation::Identity];
        let mut per_sample = make_net(dims, acts, 7);
        let mut batched = per_sample.clone();
        let mut opt_a = Sgd::with_momentum(5e-3, momentum);
        let mut opt_b = Sgd::with_momentum(5e-3, momentum);
        let mut ws = batched.workspace(1);
        for k in 0..40 {
            let x = sample(4, k);
            per_sample.train_step_mse(&x, &x, &mut opt_a);
            ws.set_batch(1);
            ws.input_row_mut(0).copy_from_slice(&x);
            batched.train_batch_mse_identity(&mut ws, &mut opt_b);
        }
        let a: Vec<u64> = per_sample.params_flat().iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = batched.params_flat().iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "momentum {momentum}: batched B=1 must be bitwise per-sample");
    }
}

/// Chunked minibatch training (the actual model fine-tune loop shape, with
/// a ragged tail chunk) matches per-sample training bitwise at `B = 1`.
#[test]
fn chunked_training_with_ragged_tail_is_bitwise() {
    let dims: &[usize] = &[5, 7, 5];
    let acts = &[Activation::Sigmoid, Activation::Identity];
    let mut per_sample = make_net(dims, acts, 11);
    let mut batched = per_sample.clone();
    let mut opt_a = Adam::new(2e-3);
    let mut opt_b = Adam::new(2e-3);
    // 13 samples — the per-sample loop and the chunks-of-1 loop must agree.
    let train: Vec<Vec<f64>> = (0..13).map(|k| sample(5, k)).collect();
    for x in &train {
        per_sample.train_step_mse(x, x, &mut opt_a);
    }
    let mut ws = batched.workspace(1);
    for chunk in train.chunks(1) {
        ws.set_batch(chunk.len());
        for (b, x) in chunk.iter().enumerate() {
            ws.input_row_mut(b).copy_from_slice(x);
        }
        batched.train_batch_mse_identity(&mut ws, &mut opt_b);
    }
    let a: Vec<u64> = per_sample.params_flat().iter().map(|v| v.to_bits()).collect();
    let b: Vec<u64> = batched.params_flat().iter().map(|v| v.to_bits()).collect();
    assert_eq!(a, b);
}

proptest! {
    /// Replaying any sequence of batch sizes through ONE reused workspace
    /// yields, for every chunk and every row, the exact `infer` output —
    /// i.e. shrinking and regrowing the logical batch never leaks stale
    /// activations, deltas or inputs from earlier (larger) chunks.
    #[test]
    fn workspace_reuse_across_batch_sizes_never_reads_stale_state(
        sizes in proptest::collection::vec(1usize..6, 1..8),
        seed in 0u64..1000,
    ) {
        let net = make_net(&[4, 5, 4], &[Activation::Tanh, Activation::Identity], seed);
        let mut ws = net.workspace(6);
        // Poison the workspace once with a full-capacity batch so any stale
        // read in a later, smaller batch has something to pick up.
        ws.set_batch(6);
        for b in 0..6 {
            ws.input_row_mut(b).copy_from_slice(&sample(4, 999 + b));
        }
        net.forward_batch(&mut ws);

        let mut k = 0usize;
        for &bsz in &sizes {
            ws.set_batch(bsz);
            let mut expect = Vec::with_capacity(bsz);
            for b in 0..bsz {
                let x = sample(4, k);
                k += 1;
                ws.input_row_mut(b).copy_from_slice(&x);
                expect.push(net.infer(&x));
            }
            net.forward_batch(&mut ws);
            for (b, e) in expect.iter().enumerate() {
                let got: Vec<u64> = ws.output_row(b).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = e.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want, "row {} of batch {}", b, bsz);
            }
        }
    }

    /// Gradient accumulation through a reused workspace matches per-sample
    /// backward passes bitwise regardless of the preceding batch-size
    /// history.
    #[test]
    fn backward_through_reused_workspace_matches_per_sample(
        first in 1usize..6,
        second in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut net = make_net(&[3, 4, 3], &[Activation::Sigmoid, Activation::Identity], seed);
        let mut ws = net.workspace(6);
        // History: one batch of `first` samples, trained through, then a
        // batch of `second` — only the second is compared.
        ws.set_batch(first);
        for b in 0..first {
            ws.input_row_mut(b).copy_from_slice(&sample(3, 100 + b));
        }
        net.forward_batch(&mut ws);

        ws.set_batch(second);
        let xs: Vec<Vec<f64>> = (0..second).map(|b| sample(3, b)).collect();
        for (b, x) in xs.iter().enumerate() {
            ws.input_row_mut(b).copy_from_slice(x);
        }
        net.forward_batch(&mut ws);
        for (b, x) in xs.iter().enumerate() {
            let g = sad_nn::mse_grad(ws.output_row(b).to_vec().as_slice(), x);
            ws.grad_out_mut().row_mut(b).copy_from_slice(&g);
        }
        net.backward_batch(&mut ws, false);
        let batched = common::streamed_grads(&mut net, &[&ws]);

        // Reference: accumulate per-sample backward passes in row order.
        let mut reference = net.zero_grads();
        for x in &xs {
            let cache = net.forward(x);
            let g = sad_nn::mse_grad(cache.output(), x);
            net.backward(&cache, &g, &mut reference);
        }
        let a: Vec<u64> = batched.iter().map(|v| v.to_bits()).collect();
        let bvec: Vec<u64> =
            common::minibatch_mean(&reference.flatten(), second).iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, bvec);
    }
}
