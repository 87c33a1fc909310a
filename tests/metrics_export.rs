//! Golden export text: the Prometheus and JSON renderings of the metric
//! registries that `Detector`, `DetectorFleet` and `IngestEngine` export,
//! compared byte for byte against `tests/golden/`.
//!
//! Every series is deterministic except the wall-clock ones, which are
//! masked before the comparison: the `sad_fleet_round_seconds` bucket and
//! sum values (its `_count` is the number of non-idle shard rounds and is
//! kept), and the `sad_detector_train_seconds` gauge. What the mask hides
//! about the train-time gauge — that a population reports the maximum of
//! its detectors' `train_time()` — is asserted on its own.

use std::io::Cursor;

use streamad::core::{
    AlgorithmSpec, Detector, DetectorConfig, DriftDetector, FeatureVector, ModelKind, RawScore,
    RegularInterval, ScoreKind, SetUpdate, SlidingWindowSet, StepOutput, Task1, Task2,
};
use streamad::fleet::{DetectorFleet, FleetConfig};
use streamad::ingest::{
    encode_frame_into, DetectorTemplate, EngineConfig, FramedTransport, IngestEngine,
};
use streamad::models::{build_detector, BuildParams, TwoLayerAe};
use streamad::obs::{with_label, Registry};
use streamad::stats::OpCount;

/// A two-channel stream whose level shifts at `shift_at`, so the drift
/// tests fire and the models fine-tune.
fn vector(t: usize, phase: f64, shift_at: usize) -> Vec<f64> {
    let x = t as f64 * 0.13 + phase;
    let level = if t < shift_at { 0.0 } else { 1.5 };
    vec![level + x.sin(), level + (0.6 * x).cos()]
}

fn config() -> DetectorConfig {
    DetectorConfig { window: 4, channels: 2, warmup: 40, initial_epochs: 2, fine_tune_epochs: 1 }
}

fn ae_spec(task2: Task2) -> AlgorithmSpec {
    AlgorithmSpec { model: ModelKind::TwoLayerAe, task1: Task1::SlidingWindow, task2 }
}

fn params(seed: u64) -> BuildParams {
    BuildParams::new(config()).with_capacity(16).with_score(ScoreKind::Raw).with_seed(seed)
}

fn detector(task2: Task2, seed: u64) -> Detector {
    build_detector(ae_spec(task2), &params(seed))
}

/// Replaces the value after the last space of a Prometheus sample line.
fn mask_prom_value(line: &str) -> String {
    let (series, _) = line.rsplit_once(' ').expect("sample lines carry a value");
    format!("{series} <masked>")
}

/// The Prometheus rendering with the wall-clock values masked.
fn prometheus(reg: &Registry) -> String {
    let mut text = String::new();
    reg.render_prometheus(&mut text);
    let mut out = String::new();
    for line in text.lines() {
        let wall_clock = line.starts_with("sad_fleet_round_seconds_bucket")
            || line.starts_with("sad_fleet_round_seconds_sum")
            || line.starts_with("sad_detector_train_seconds ");
        out.push_str(&if wall_clock { mask_prom_value(line) } else { line.to_string() });
        out.push('\n');
    }
    out
}

/// The JSON rendering with the wall-clock values masked.
fn json(reg: &Registry) -> String {
    let mut text = String::new();
    reg.render_json(&mut text);
    let mut out = String::new();
    for line in text.lines() {
        if line.trim_start().starts_with("\"sad_fleet_round_seconds\": {") {
            let (kept, _) = line.split_once(" \"sum\"").expect("histograms render a sum");
            out.push_str(kept);
            out.push_str(" <masked>");
        } else if line.trim_start().starts_with("\"sad_detector_train_seconds\": ") {
            let (name, _) = line.split_once(": ").expect("gauges render name: value");
            out.push_str(name);
            out.push_str(": <masked>");
            if line.ends_with(',') {
                out.push(',');
            }
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Compares `actual` with a golden text, reporting the first differing
/// line and the whole actual text on a mismatch.
fn assert_golden(name: &str, actual: &str, golden: &str) {
    if actual == golden {
        return;
    }
    let line = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
    panic!(
        "{name}: export differs from the golden text at line {}:\n  actual: {:?}\n  golden: {:?}\n\
         --- actual ---\n{actual}",
        line + 1,
        actual.lines().nth(line),
        golden.lines().nth(line),
    );
}

fn assert_exports(name: &str, reg: &Registry, golden_prom: &str, golden_json: &str) {
    assert_golden(&format!("{name}.prom"), &prometheus(reg), golden_prom);
    assert_golden(&format!("{name}.json"), &json(reg), golden_json);
}

/// Streams `steps` vectors into every live stream of `ids`, one drain
/// round per step, then settles the fleet, so every adaptation a drift
/// owes has landed and the export sees every detector.
fn serve(fleet: &mut DetectorFleet, ids: &[usize], from: usize, steps: usize) {
    let mut out = Vec::new();
    for t in from..from + steps {
        for &id in ids {
            assert!(fleet.enqueue(id, &vector(t, 0.2 * id as f64, 120)));
        }
        fleet.drain_round(&mut out);
    }
    fleet.settle();
}

/// Three AE streams on two shards (μ/σ, KS, μ/σ); the third is retired
/// after 160 steps and the other two serve 40 more.
fn mixed_fleet() -> DetectorFleet {
    let detectors =
        vec![detector(Task2::MuSigma, 7), detector(Task2::Kswin, 7), detector(Task2::MuSigma, 8)];
    let config = FleetConfig { shards: 2, ..FleetConfig::default() };
    let mut fleet = DetectorFleet::new(detectors, config);
    serve(&mut fleet, &[0, 1, 2], 0, 160);
    fleet.retire(2);
    serve(&mut fleet, &[0, 1], 160, 40);
    fleet
}

#[test]
fn fleet_export_mixing_task2_variants_with_a_retirement() {
    let fleet = mixed_fleet();
    assert_exports(
        "fleet",
        &fleet.export_metrics(),
        include_str!("golden/fleet.prom"),
        include_str!("golden/fleet.json"),
    );
}

#[test]
fn population_export_reports_the_slowest_detectors_train_time() {
    let fleet = mixed_fleet();
    let slowest = [0, 1]
        .iter()
        .map(|&id| fleet.detector(id).train_time().as_secs_f64())
        .fold(0.0, f64::max);
    assert!(slowest > 0.0, "both live detectors trained");
    let reg = fleet.export_metrics();
    assert_eq!(reg.gauge_by_name("sad_detector_train_seconds"), Some(slowest));
}

#[test]
fn ingest_export_with_a_rejection_a_width_mismatch_and_an_idle_retirement() {
    // Wire ids 10, 20 and 30 fill a three-stream cap, so id 40 is
    // rejected; id 10 sends one frame of the wrong width; id 20 sends one
    // extra frame holding a NaN, which is counted and goes no further; id
    // 30 stops after 100 ticks and is retired after six quiet rounds.
    let mut wire = Vec::new();
    for t in 0..140 {
        encode_frame_into(10, &vector(t, 0.0, 90), &mut wire);
        encode_frame_into(20, &vector(t, 0.5, 90), &mut wire);
        if t == 60 {
            encode_frame_into(20, &[f64::NAN, 0.5], &mut wire);
        }
        if t < 100 {
            encode_frame_into(30, &vector(t, 1.0, 90), &mut wire);
        }
        if t == 5 {
            encode_frame_into(40, &vector(t, 1.5, 90), &mut wire);
        }
        if t == 50 {
            encode_frame_into(10, &[0.0; 3], &mut wire);
        }
    }
    let template = DetectorTemplate::new(ae_spec(Task2::MuSigma), params(11));
    let engine_config =
        EngineConfig { idle_rounds: Some(6), max_streams: 3, ..EngineConfig::default() };
    let mut engine = IngestEngine::new(template, FleetConfig::default(), engine_config);
    let mut sink = |_: u64, _: &StepOutput| {};
    engine.run(&mut FramedTransport::new(Cursor::new(wire)), &mut sink).expect("clean stream");
    let stats = engine.stats();
    assert_eq!(
        (stats.non_finite, stats.rejected, stats.channel_mismatches, stats.idle_retired),
        (1, 1, 1, 1)
    );
    assert_exports(
        "ingest",
        &engine.export_metrics(),
        include_str!("golden/ingest.prom"),
        include_str!("golden/ingest.json"),
    );
}

#[test]
fn single_detector_export() {
    let mut det = detector(Task2::Kswin, 3);
    let series: Vec<Vec<f64>> = (0..200).map(|t| vector(t, 0.0, 120)).collect();
    let _ = det.run(&series);
    assert!(!det.drift_times().is_empty(), "the level shift triggers KSWIN");
    assert_exports(
        "detector",
        &det.export_metrics(),
        include_str!("golden/detector.prom"),
        include_str!("golden/detector.json"),
    );
}

#[test]
fn fleet_without_live_detectors_exports_no_lifecycle_section() {
    let mut fleet = DetectorFleet::open(FleetConfig { shards: 2, ..FleetConfig::default() });
    let id = fleet.admit(detector(Task2::MuSigma, 5));
    serve(&mut fleet, &[id], 0, 50);
    fleet.retire(id);
    let reg = fleet.export_metrics();
    let prom = prometheus(&reg);
    assert!(!prom.contains("sad_detector_"), "no live detector, no lifecycle: {prom}");
    assert_exports(
        "empty_fleet",
        &reg,
        include_str!("golden/empty_fleet.prom"),
        include_str!("golden/empty_fleet.json"),
    );
}

/// Delegates to [`RegularInterval`] under a name outside the paper's three
/// Task-2 variants.
#[derive(Clone)]
struct CustomInterval(RegularInterval);

impl DriftDetector for CustomInterval {
    fn name(&self) -> &'static str {
        "Custom"
    }
    fn observe(
        &mut self,
        x: &FeatureVector,
        update: &SetUpdate,
        train: &[FeatureVector],
    ) -> bool {
        self.0.observe(x, update, train)
    }
    fn on_fine_tune(&mut self, train: &[FeatureVector]) {
        self.0.on_fine_tune(train)
    }
    fn ops(&self) -> OpCount {
        self.0.ops()
    }
    fn clone_box(&self) -> Box<dyn DriftDetector> {
        Box::new(self.clone())
    }
}

/// A later detector whose Task-2 name the first one lacks still gets its
/// drift counter in the fleet export. Where that counter sits and how
/// removal misses sum are pinned by sad-core's
/// `lifecycle_export_sums_a_population_by_variant_name`.
#[test]
fn fleet_export_counts_a_task2_name_outside_the_paper_labels() {
    let custom = Detector::new(
        config(),
        Box::new(TwoLayerAe::for_dim(8, 3)),
        Box::new(SlidingWindowSet::new(16)),
        Box::new(CustomInterval(RegularInterval::new(10))),
        Box::new(RawScore),
    );
    let detectors = vec![detector(Task2::MuSigma, 7), custom];
    let mut fleet = DetectorFleet::new(detectors, FleetConfig::default());
    serve(&mut fleet, &[0, 1], 0, 140);

    let reg = fleet.export_metrics();
    let drift = |variant| {
        reg.counter_by_name(&with_label("sad_detector_drift_events_total", "task2", variant))
    };
    assert_eq!(drift("Custom"), Some(10), "100 post-warm-up steps, one drift per 10");
    assert_eq!(drift("μ/σ"), Some(fleet.detector(0).drift_times().len() as u64));
    assert_eq!(reg.counter_by_name("sad_detector_steps_total"), Some(200));
}
