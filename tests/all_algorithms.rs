//! End-to-end integration: every one of the paper's 26 algorithms runs on a
//! real (synthetic) corpus through the full pipeline.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use streamad::core::{paper_algorithms, DetectorConfig, ModelKind, ScoreKind, StepOutput};
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

/// A stream vector holding a NaN or ±∞ is not a step. For every Table I
/// algorithm the outputs over a series holding such rows equal, bitwise
/// and `t` included, the outputs over the same series without them, and
/// the detector counts the rows. One bad row sits inside warm-up, the rest
/// after it. A NaN that reached the KSWIN training-set samples once made a
/// KS merge walk spin forever, so every run goes through a worker thread
/// and must report back before a deadline.
#[test]
fn every_algorithm_drops_nan_and_infinite_rows_as_if_absent() {
    const DEADLINE: Duration = Duration::from_secs(60);
    let clean = tiny_corpus().series[0].data[..200].to_vec();
    let expected = clean.len() - tiny_params().config.warmup;
    // Rows inserted before `clean[at]`, each a copy of it with `channel`
    // set to `value` (`None`: every channel).
    let bad = [
        (60, Some(0), f64::NAN),
        (170, Some(3), f64::NAN),
        (170, Some(8), f64::INFINITY),
        (185, None, f64::NEG_INFINITY),
        (199, None, f64::NAN),
    ];
    let mut dirty = Vec::with_capacity(clean.len() + bad.len());
    for (t, row) in clean.iter().enumerate() {
        for &(_, channel, value) in bad.iter().filter(|&&(at, ..)| at == t) {
            let mut bad_row = row.clone();
            match channel {
                Some(c) => bad_row[c] = value,
                None => bad_row.fill(value),
            }
            dirty.push(bad_row);
        }
        dirty.push(row.clone());
    }
    let bits = |outputs: &[StepOutput]| -> Vec<(usize, u64, u64, bool, bool)> {
        let bits = |o: &StepOutput| {
            (o.t, o.nonconformity.to_bits(), o.anomaly_score.to_bits(), o.drift, o.fine_tuned)
        };
        outputs.iter().map(bits).collect()
    };
    let (tx, rx) = mpsc::channel();
    // Joined only on success: a run that misses the deadline is left
    // spinning until the test process exits.
    let worker = std::thread::spawn(move || {
        for spec in paper_algorithms() {
            let want = build_detector(spec, &tiny_params()).run(&clean);
            let mut det = build_detector(spec, &tiny_params());
            let got = det.run(&dirty);
            if tx.send((want, got, det.non_finite(), det.time())).is_err() {
                return;
            }
        }
    });
    for spec in paper_algorithms() {
        match rx.recv_timeout(DEADLINE) {
            Ok((want, got, non_finite, time)) => {
                assert_eq!(want.len(), expected, "{}", spec.label());
                assert_eq!(bits(&got), bits(&want), "{}", spec.label());
                assert_eq!((non_finite, time), (bad.len() as u64, 200), "{}", spec.label());
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("{} did not finish within {DEADLINE:?}", spec.label())
            }
            Err(RecvTimeoutError::Disconnected) => panic!("{} panicked", spec.label()),
        }
    }
    worker.join().expect("the worker finished every run");
}
