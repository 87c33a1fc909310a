//! The detector's split step on the neural models: scoring a step with
//! `Detector::score_step` and running the adaptation its drift owes with
//! `Detector::adapt`, only just before the next step begins, is bitwise
//! `Detector::step` (scoring, then adaptation, at once). The split side
//! predicts through a clone of its model, as an outside caller must. This is the order
//! the serving fleet runs a drifted stream in, its fine-tune leaving the
//! round that scored it.
//!
//! AE, USAD and N-BEATS under μσ-Change and KSWIN on a series whose level
//! shifts twice, so both drift tests fire and the models fine-tune: the
//! outputs, drift times and fine-tune counts agree bit for bit, and so do
//! the fine-tuned models' predictions afterwards.

use sad_core::{
    AlgorithmSpec, Detector, DetectorConfig, FeatureVector, ModelKind, ModelOutput, ScoreKind,
    StepOutput, Task1, Task2,
};
use sad_models::{build_detector, BuildParams};

const CHANNELS: usize = 3;
const WINDOW: usize = 6;

fn detector(model: ModelKind, task2: Task2) -> Detector {
    let config = DetectorConfig {
        window: WINDOW,
        channels: CHANNELS,
        warmup: 60,
        initial_epochs: 2,
        fine_tune_epochs: 1,
    };
    let params = BuildParams::new(config).with_capacity(20).with_score(ScoreKind::Raw).with_seed(3);
    build_detector(AlgorithmSpec { model, task1: Task1::SlidingWindow, task2 }, &params)
}

/// Three channels whose level jumps at t = 120 and again at t = 200.
fn series(len: usize) -> Vec<Vec<f64>> {
    (0..len)
        .map(|t| {
            let x = t as f64 * 0.17;
            let level = if t < 120 { 0.0 } else if t < 200 { 2.0 } else { -1.5 };
            vec![x.sin() + level, (0.6 * x).cos() - 0.5 * level, (0.3 * x).sin() * 0.5 + level]
        })
        .collect()
}

fn output_bits(o: &ModelOutput) -> Vec<u64> {
    match o {
        ModelOutput::Score(v) => vec![v.to_bits()],
        ModelOutput::Reconstruction(v) | ModelOutput::Forecast(v) => {
            v.iter().map(|x| x.to_bits()).collect()
        }
    }
}

fn step_bits(o: &StepOutput) -> (usize, u64, u64, bool, bool) {
    (o.t, o.nonconformity.to_bits(), o.anomaly_score.to_bits(), o.drift, o.fine_tuned)
}

#[test]
fn score_then_adapt_matches_finish_step_bitwise_on_the_neural_models() {
    let data = series(300);
    for model in [ModelKind::TwoLayerAe, ModelKind::Usad, ModelKind::NBeats] {
        for task2 in [Task2::MuSigma, Task2::Kswin] {
            let label = format!("{model:?}/{task2:?}");
            let mut whole = detector(model, task2);
            let mut split = detector(model, task2);
            let mut owed_by = Vec::new();
            for (i, s) in data.iter().enumerate() {
                let a = whole.step(s);
                if split.owes_adaptation() {
                    split.adapt();
                }
                let b = split.begin_step(s).then(|| {
                    let output = split.model().clone_box().predict(split.feature());
                    let out = split.score_step(&output);
                    if split.owes_adaptation() {
                        owed_by.push(out.t);
                    }
                    out
                });
                assert_eq!(a.map(|o| step_bits(&o)), b.map(|o| step_bits(&o)), "{label} step {i}");
            }
            if split.owes_adaptation() {
                split.adapt();
            }
            assert!(whole.fine_tune_count() > 0, "{label}: the level shifts fine-tune");
            assert_eq!(whole.drift_times(), split.drift_times(), "{label}: drift times");
            assert_eq!(owed_by, split.drift_times(), "{label}: every drift owed an adaptation");
            assert_eq!(whole.fine_tune_count(), split.fine_tune_count(), "{label}: fine-tunes");
            let probe = FeatureVector::new(
                data[250..250 + WINDOW].iter().flatten().copied().collect(),
                WINDOW,
                CHANNELS,
            );
            assert_eq!(
                output_bits(&whole.model().clone_box().predict(&probe)),
                output_bits(&split.model().clone_box().predict(&probe)),
                "{label}: the fine-tuned models predict alike",
            );
        }
    }
}
