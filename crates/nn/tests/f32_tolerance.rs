//! f32 inference snapshots against the f64 networks they convert.
//!
//! An `Mlp<f32>` built by `Mlp::from_precision` serves through the same
//! generic `forward_batch` as the f64 training network, on the 8-lane f32
//! kernels. It is never bitwise-equal to the f64 pass; these tests pin the
//! tolerance it does promise (f32 relative accuracy) and that the
//! allocation-free `convert_from` re-sync really follows training.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sad_nn::{Activation, Mlp};
use sad_tensor::Sgd;

fn net(seed: u64, hidden: Activation) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(&[6, 4, 6], &[hidden, Activation::Identity], &mut rng)
}

fn sample(k: usize) -> Vec<f64> {
    (0..6).map(|j| ((k * 6 + j) as f64 * 0.31).sin()).collect()
}

/// Runs `rows` samples through the f32 snapshot's batched forward pass.
fn forward_f32(snap: &Mlp<f32>, rows: &[Vec<f64>]) -> Vec<Vec<f32>> {
    let mut ws = snap.inference_workspace(rows.len());
    for (b, x) in rows.iter().enumerate() {
        for (o, &v) in ws.input_row_mut(b).iter_mut().zip(x) {
            *o = v as f32;
        }
    }
    snap.forward_batch(&mut ws);
    (0..rows.len()).map(|b| ws.output_row(b).to_vec()).collect()
}

fn assert_close(got: &[f32], want: &[f64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: width");
    for (j, (&g, &w)) in got.iter().zip(want).enumerate() {
        let err = (f64::from(g) - w).abs();
        assert!(err <= 1e-5 * w.abs().max(1.0), "{ctx}[{j}]: f32 {g} vs f64 {w} (err {err:.3e})");
    }
}

#[test]
fn f32_snapshot_forward_matches_f64_infer_within_tolerance() {
    for hidden in [Activation::Sigmoid, Activation::Tanh, Activation::Relu] {
        let mlp = net(3, hidden);
        let snap = Mlp::<f32>::from_precision(&mlp);
        assert_eq!((snap.in_dim(), snap.out_dim()), (6, 6));
        let rows: Vec<Vec<f64>> = (0..4).map(sample).collect();
        for (b, got) in forward_f32(&snap, &rows).iter().enumerate() {
            assert_close(got, &mlp.infer(&rows[b]), &format!("{hidden:?} row {b}"));
        }
    }
}

#[test]
fn convert_from_tracks_training() {
    let mut mlp = net(5, Activation::Sigmoid);
    let mut snap = Mlp::<f32>::from_precision(&mlp);
    let mut opt = Sgd::new(0.05);
    let x = sample(1);
    for _ in 0..50 {
        mlp.train_step_mse(&x, &x, &mut opt);
    }
    let rows = [x.clone()];
    let stale = forward_f32(&snap, &rows).remove(0);
    snap.convert_from(&mlp);
    let fresh = forward_f32(&snap, &rows).remove(0);
    assert_close(&fresh, &mlp.infer(&x), "re-synced");
    assert_ne!(stale, fresh, "the re-sync must pick up the trained parameters");
    // A re-synced snapshot is exactly a from-scratch conversion.
    assert_eq!(fresh, forward_f32(&Mlp::<f32>::from_precision(&mlp), &rows).remove(0));
}

#[test]
#[should_panic(expected = "layer count mismatch")]
fn convert_from_rejects_a_foreign_architecture() {
    let mut rng = StdRng::seed_from_u64(0);
    let other = Mlp::new(
        &[6, 3, 3, 6],
        &[Activation::Tanh, Activation::Tanh, Activation::Identity],
        &mut rng,
    );
    let mut snap = Mlp::<f32>::from_precision(&net(7, Activation::Tanh));
    snap.convert_from(&other);
}
