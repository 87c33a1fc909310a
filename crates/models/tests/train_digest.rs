//! Frozen f64 training trajectory of the three neural models.
//!
//! Every bitwise parity suite compares two code paths that share one
//! optimizer, so a change that moves the training arithmetic itself (the
//! Adam step, the backward kernels, the scaler) would pass all of them.
//! This test pins the trajectory to a constant instead: the 2-layer AE,
//! USAD and N-BEATS are fit on a fixed warm-up set and fine-tuned on a
//! drifting regime until every Adam instance has stepped well past
//! t = 355 (where `1 − 0.9^t` rounds to exactly 1.0), then an FNV-1a
//! digest is taken over the bits of their `predict` outputs on a fixed
//! probe set. The f64 kernels are bitwise-identical on both simd legs, so
//! one constant serves both.

use sad_core::{FeatureVector, ModelOutput, StreamModel};
use sad_models::{NBeats, TwoLayerAe, Usad};

const W: usize = 8;
const N: usize = 3;
/// Windows per training set — one Adam step per window per epoch at the
/// models' default batch size 1.
const TRAIN: usize = 16;
const INITIAL_EPOCHS: usize = 4;
/// 4·16 + 24·16 = 448 steps for every optimizer.
const FINE_TUNES: usize = 24;

/// The frozen digest. Re-derive it only for a change that is *meant* to
/// move the f64 training arithmetic, and say so in the change log.
const TRAIN_DIGEST: u64 = 0xe714_6339_3649_c70d;

/// Window `s` of a three-channel stream whose level and frequency move
/// with `regime`, so every fine-tune sees data the model has not fit.
fn window(s: usize, regime: usize) -> FeatureVector {
    let shift = regime as f64 * 0.05;
    let data: Vec<f64> = (0..W)
        .flat_map(|i| {
            let t = (s + i) as f64 * (0.3 + 0.01 * regime as f64);
            [t.sin() + shift, (t * 0.5).cos() * 2.0 - shift, (t * 0.7).sin() * (t * 0.2).cos()]
        })
        .collect();
    FeatureVector::new(data, W, N)
}

fn train_set(regime: usize) -> Vec<FeatureVector> {
    (0..TRAIN).map(|s| window(s + 3 * regime, regime)).collect()
}

fn fnv1a(hash: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Trains `model` through the fixed schedule and folds its predictions on
/// the probe windows into `hash`.
fn train_and_digest(mut model: Box<dyn StreamModel>, hash: &mut u64) {
    model.fit_initial(&train_set(0), INITIAL_EPOCHS);
    for regime in 1..=FINE_TUNES {
        model.fine_tune(&train_set(regime));
    }
    for s in 0..8 {
        let values = match model.predict(&window(5 * s + 1, s % 3)) {
            ModelOutput::Reconstruction(v) | ModelOutput::Forecast(v) => v,
            ModelOutput::Score(x) => vec![x],
        };
        assert!(values.iter().all(|v| v.is_finite()), "{}: non-finite prediction", model.name());
        for v in values {
            fnv1a(hash, v.to_bits());
        }
    }
}

#[test]
fn f64_training_trajectory_is_pinned_to_the_bit() {
    let dim = W * N;
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    train_and_digest(Box::new(TwoLayerAe::for_dim(dim, 7)), &mut hash);
    train_and_digest(Box::new(Usad::for_dim(dim, 5)), &mut hash);
    train_and_digest(Box::new(NBeats::for_dims(W, N, 11)), &mut hash);
    assert_eq!(hash, TRAIN_DIGEST, "f64 training trajectory moved: digest {hash:#018x}");
}
