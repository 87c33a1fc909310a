//! End-to-end integration: every one of the paper's 26 algorithms runs on a
//! real (synthetic) corpus through the full pipeline.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use streamad::core::{paper_algorithms, DetectorConfig, ModelKind, ScoreKind};
use streamad::data::{daphnet_like, CorpusParams};
use streamad::models::{build_detector, BuildParams};

fn tiny_corpus() -> streamad::data::Corpus {
    let params = CorpusParams { length: 700, n_series: 1, anomalies_per_series: 2, with_drift: true };
    daphnet_like(13, params)
}

fn tiny_params() -> BuildParams {
    let config = DetectorConfig {
        window: 10,
        channels: 9,
        warmup: 150,
        initial_epochs: 2,
        fine_tune_epochs: 1,
    };
    BuildParams::new(config).with_capacity(20).with_kswin_stride(4)
}

#[test]
fn registry_has_26_algorithms() {
    assert_eq!(paper_algorithms().len(), 26);
}

#[test]
fn all_26_algorithms_run_on_daphnet_like_corpus() {
    let corpus = tiny_corpus();
    let series = &corpus.series[0];
    for spec in paper_algorithms() {
        let mut det = build_detector(spec, &tiny_params());
        let (scores, offset) = det.score_series(&series.data);
        assert_eq!(offset, 150, "{}", spec.label());
        assert_eq!(scores.len(), series.len() - offset, "{}", spec.label());
        for (i, &s) in scores.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(&s),
                "{}: score {s} at {i} out of range",
                spec.label()
            );
        }
    }
}

#[test]
fn every_algorithm_is_deterministic_under_a_seed() {
    let corpus = tiny_corpus();
    let series = &corpus.series[0];
    for spec in paper_algorithms().into_iter().step_by(5) {
        let run = |seed: u64| {
            let mut det = build_detector(spec, &tiny_params().with_seed(seed));
            det.score_series(&series.data).0
        };
        assert_eq!(run(3), run(3), "{} must be reproducible", spec.label());
    }
}

#[test]
fn scorers_produce_different_score_streams() {
    let corpus = tiny_corpus();
    let series = &corpus.series[0];
    let spec = paper_algorithms()[6]; // 2-layer AE / SW / μσ
    assert_eq!(spec.model, ModelKind::TwoLayerAe);
    let score_with = |kind: ScoreKind| {
        let mut det = build_detector(spec, &tiny_params().with_score(kind));
        det.score_series(&series.data).0
    };
    let raw = score_with(ScoreKind::Raw);
    let avg = score_with(ScoreKind::Average);
    let al = score_with(ScoreKind::AnomalyLikelihood);
    assert_ne!(raw, avg);
    assert_ne!(avg, al);
    // The average is smoother than the raw stream: fewer large jumps.
    let roughness = |v: &[f64]| -> f64 {
        v.windows(2).map(|p| (p[1] - p[0]).abs()).sum::<f64>() / (v.len() - 1) as f64
    };
    assert!(
        roughness(&avg) < roughness(&raw) + 1e-12,
        "moving average must smooth: {} vs {}",
        roughness(&avg),
        roughness(&raw)
    );
}

#[test]
fn detectors_tolerate_degenerate_streams() {
    // Constant stream (zero variance), all algorithms: must not panic or
    // emit NaN.
    let series: Vec<Vec<f64>> = vec![vec![1.0; 9]; 400];
    for spec in paper_algorithms().into_iter().step_by(3) {
        let mut det = build_detector(spec, &tiny_params());
        for s in &series {
            if let Some(out) = det.step(s) {
                assert!(out.anomaly_score.is_finite(), "{}", spec.label());
                assert!(
                    (0.0..=1.0).contains(&out.anomaly_score),
                    "{}: {}",
                    spec.label(),
                    out.anomaly_score
                );
            }
        }
    }
}

#[test]
fn detectors_survive_extreme_stream_values() {
    let spec = paper_algorithms()[12]; // USAD variant
    let mut det = build_detector(spec, &tiny_params());
    for t in 0..300 {
        let v = if t == 250 { 1e9 } else { (t as f64 * 0.1).sin() };
        let s = vec![v; 9];
        if let Some(out) = det.step(&s) {
            assert!(out.anomaly_score.is_finite(), "t={t}");
        }
    }
}

/// One NaN value after warm-up must not stall or panic any Table I
/// algorithm, nor leave a non-finite score behind. It reaches the KSWIN
/// training-set samples, where a KS merge walk that cannot pass a NaN
/// spins forever (or trips its sortedness assertion in a debug build), so
/// every run goes through a worker thread and must report back before a
/// deadline. A window holding the NaN, or a prediction made from it,
/// scores nonconformity 1.0, so every nonconformity and anomaly score
/// stays finite.
#[test]
fn every_algorithm_finishes_a_stream_holding_one_nan() {
    const DEADLINE: Duration = Duration::from_secs(60);
    let mut data = tiny_corpus().series[0].data[..200].to_vec();
    data[170][3] = f64::NAN;
    let expected = data.len() - tiny_params().config.warmup;
    let (tx, rx) = mpsc::channel();
    // Joined only on success: a run that misses the deadline is left
    // spinning until the test process exits.
    let worker = std::thread::spawn(move || {
        for spec in paper_algorithms() {
            let outputs = build_detector(spec, &tiny_params()).run(&data);
            if tx.send(outputs).is_err() {
                return;
            }
        }
    });
    for spec in paper_algorithms() {
        match rx.recv_timeout(DEADLINE) {
            Ok(outputs) => {
                assert_eq!(outputs.len(), expected, "{}", spec.label());
                for out in &outputs {
                    assert!(
                        out.nonconformity.is_finite() && out.anomaly_score.is_finite(),
                        "{} at t = {}: nonconformity {}, anomaly score {}",
                        spec.label(),
                        out.t,
                        out.nonconformity,
                        out.anomaly_score
                    );
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("{} did not finish within {DEADLINE:?}", spec.label())
            }
            Err(RecvTimeoutError::Disconnected) => panic!("{} panicked", spec.label()),
        }
    }
    worker.join().expect("the worker finished every run");
}
