//! Drives one detector through the split-step API
//! (`begin_step` → `StreamModel::predict` → `finish_step`) with a span
//! around each call. The outputs are those of `Detector::step`; the
//! workloads compare them with the untraced run bitwise.

use sad_core::{Detector, FeatureVector, ModelKind, StepOutput, StreamModel, Task2};

use crate::trace::{Name, Tracer};
use crate::Report;

/// Span tag of a model kind; the `models.*.{ae,usad,nbeats,arima,pcb}`
/// metrics are indexed by it.
pub fn model_tag(kind: ModelKind) -> u8 {
    match kind {
        ModelKind::TwoLayerAe => 0,
        ModelKind::Usad => 1,
        ModelKind::NBeats => 2,
        ModelKind::OnlineArima => 3,
        ModelKind::PcbIForest => 4,
    }
}

fn drift_tag(task2: Task2) -> u8 {
    match task2 {
        Task2::MuSigma => 0,
        Task2::Kswin => 1,
    }
}

pub struct SplitStepper {
    /// A copy of the detector's model for `predict`: `Detector::model`
    /// lends the model immutably, and the NN and ARIMA predicts do not
    /// change it, so a copy taken after each training event computes the
    /// same output. Re-taken after every fit and drift.
    shadow: Option<Box<dyn StreamModel>>,
    model: u8,
    drift: u8,
    /// PCB-iForest updates its forest inside `predict`, so a copy would
    /// diverge. Its steps run through `Detector::step`, and on every
    /// `PROBE_EVERY`-th step `predict` is timed on a throw-away copy of the
    /// model fed the same window.
    stateful: bool,
    steps: usize,
}

/// Sampling period of the stateful-model predict probe: copying a forest
/// costs far more than the predict it times.
const PROBE_EVERY: usize = 16;

impl SplitStepper {
    pub fn new(model: ModelKind, task2: Task2) -> Self {
        Self {
            shadow: None,
            model: model_tag(model),
            drift: drift_tag(task2),
            stateful: model == ModelKind::PcbIForest,
            steps: 0,
        }
    }

    /// Steps `det` on `series[i]`; the same output as `det.step(&series[i])`.
    pub fn step(
        &mut self,
        det: &mut Detector,
        series: &[Vec<f64>],
        i: usize,
        tracer: &mut Tracer,
    ) -> Option<StepOutput> {
        let s = &series[i];
        if !det.is_warmed_up() {
            let id = tracer.enter(Name::WarmupStep, 0);
            let ready = det.begin_step(s);
            tracer.exit(id);
            debug_assert!(!ready, "a detector in warm-up produces no feature");
            if det.is_warmed_up() {
                tracer.relabel(id, Name::FitInitial, self.model);
                self.shadow = None;
            }
            return None;
        }
        if self.stateful {
            self.steps += 1;
            if self.steps % PROBE_EVERY == 1 {
                let (w, n) = (det.config().window, det.config().channels);
                let mut probe = det.model().clone_box();
                let x = FeatureVector::new(series[i + 1 - w..=i].concat(), w, n);
                let id = tracer.enter(Name::Predict, self.model);
                std::hint::black_box(probe.predict(&x));
                tracer.exit(id);
            }
            let id = tracer.enter(Name::Step, self.drift);
            let out = det.step(s);
            tracer.exit(id);
            if out.is_some_and(|o| o.fine_tuned) {
                tracer.relabel(id, Name::FineTune, self.model);
            }
            return out;
        }
        let shadow = self.shadow.get_or_insert_with(|| det.model().clone_box());
        let id = tracer.enter(Name::BeginStep, 0);
        let ready = det.begin_step(s);
        tracer.exit(id);
        assert!(ready, "a warmed-up detector always has a feature");
        let id = tracer.enter(Name::Predict, self.model);
        let output = shadow.predict(det.feature());
        tracer.exit(id);
        let id = tracer.enter(Name::FinishStep, self.drift);
        let out = det.finish_step(&output);
        tracer.exit(id);
        if out.drift {
            if out.fine_tuned {
                tracer.relabel(id, Name::FineTune, self.model);
            }
            self.shadow = None;
        }
        Some(out)
    }
}

/// The `core.*` and `models.*` metrics from split-step spans;
/// `models.train_share` is the training spans' share of `wall_ns`.
pub fn report_core_and_models(report: &mut Report, tracer: &Tracer, wall_ns: f64) {
    use crate::stats::mean;
    const PREDICT: [&str; 5] = [
        "models.predict_ns.ae",
        "models.predict_ns.usad",
        "models.predict_ns.nbeats",
        "models.predict_ns.arima",
        "models.predict_ns.pcb",
    ];
    const FINE_TUNE: [&str; 5] = [
        "models.fine_tune_ms.ae",
        "models.fine_tune_ms.usad",
        "models.fine_tune_ms.nbeats",
        "models.fine_tune_ms.arima",
        "models.fine_tune_ms.pcb",
    ];
    report.metric(
        "core.begin_step_ns",
        mean(tracer.durations(Name::BeginStep, None)),
    );
    report.metric(
        "core.warmup_step_ns",
        mean(tracer.durations(Name::WarmupStep, None)),
    );
    report.metric(
        "core.finish_step_ns.mu_sigma",
        mean(tracer.durations(Name::FinishStep, Some(0))),
    );
    report.metric(
        "core.finish_step_ns.kswin",
        mean(tracer.durations(Name::FinishStep, Some(1))),
    );
    let fits = tracer.durations(Name::FitInitial, None);
    let tunes = tracer.durations(Name::FineTune, None);
    // Every configuration here fine-tunes for one epoch on each drift, so
    // drift events and fine-tunes are the same spans.
    report.metric("core.drift_events", tunes.len() as f64);
    report.metric("models.fine_tunes", tunes.len() as f64);
    report.metric("models.fit_initial_ms", mean(fits.iter().copied()) / 1e6);
    let train_ns: f64 = fits.iter().chain(&tunes).sum();
    report.metric("models.train_share", train_ns / wall_ns);
    for tag in 0..5u8 {
        report.metric(
            PREDICT[tag as usize],
            mean(tracer.durations(Name::Predict, Some(tag))),
        );
        report.metric(
            FINE_TUNE[tag as usize],
            mean(tracer.durations(Name::FineTune, Some(tag))) / 1e6,
        );
    }
}
