//! Turns a Table I [`AlgorithmSpec`] into a runnable [`Detector`].
//!
//! This is the glue between the framework enumeration in `sad-core` and the
//! model implementations in this crate. All hyperparameters are derived
//! from the detector configuration (`w`, `N`) with the defaults used for
//! the experiment harness; [`BuildParams`] exposes the knobs the paper
//! varies.

use crate::{NBeats, OnlineArima, PcbIForestModel, TwoLayerAe, Usad};
use sad_core::{
    AlgorithmSpec, AnomalyLikelihood, AnomalyScorer, Detector, DetectorConfig, DriftDetector,
    KswinDetector, ModelKind, MovingAverage, MuSigmaChange, RawScore, ScoreKind, ScorerBank,
    SharedWarmup, StreamModel, Task1, Task2, TrainingSetStrategy,
};
use sad_core::{AnomalyAwareReservoir, SlidingWindowSet, UniformReservoir};

/// Everything needed to instantiate one of the 26 algorithms.
#[derive(Debug, Clone)]
pub struct BuildParams {
    /// Detector configuration (`w`, `N`, warm-up, epochs).
    pub config: DetectorConfig,
    /// Training-set capacity `m`.
    pub train_capacity: usize,
    /// Anomaly scoring function.
    pub score: ScoreKind,
    /// Long scoring window `k`.
    pub score_k: usize,
    /// Short scoring window `k'` (anomaly likelihood only, `k' ≪ k`).
    pub score_k_short: usize,
    /// KSWIN significance level α.
    pub kswin_alpha: f64,
    /// KSWIN test stride (1 = test every step, as in the paper; larger
    /// strides trade detection latency for throughput in long sweeps).
    pub kswin_stride: usize,
    /// Master seed for all stochastic components.
    pub seed: u64,
}

impl BuildParams {
    /// Defaults mirroring the paper's experimental setup, scaled by the
    /// provided detector configuration.
    pub fn new(config: DetectorConfig) -> Self {
        Self {
            train_capacity: 50,
            score: ScoreKind::AnomalyLikelihood,
            score_k: 40,
            score_k_short: 5,
            kswin_alpha: KswinDetector::DEFAULT_ALPHA,
            kswin_stride: 1,
            seed: 42,
            config,
        }
    }

    /// Sets the anomaly scorer.
    pub fn with_score(mut self, score: ScoreKind) -> Self {
        self.score = score;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the training-set capacity `m`.
    pub fn with_capacity(mut self, m: usize) -> Self {
        self.train_capacity = m;
        self
    }

    /// Sets the KSWIN stride.
    pub fn with_kswin_stride(mut self, stride: usize) -> Self {
        self.kswin_stride = stride;
        self
    }
}

/// Smallest representation length `w` a [`ModelKind`] can be built with:
/// [`NBeats::MIN_WINDOW`] for N-BEATS, one step for every other model.
pub fn min_window(kind: ModelKind) -> usize {
    match kind {
        ModelKind::NBeats => NBeats::MIN_WINDOW,
        _ => 1,
    }
}

/// Builds the model component for a [`ModelKind`].
pub fn build_model(kind: ModelKind, params: &BuildParams) -> Box<dyn StreamModel> {
    let dim = params.config.window * params.config.channels;
    let seed = params.seed;
    match kind {
        ModelKind::OnlineArima => Box::new(OnlineArima::new(1, 1e-3)),
        ModelKind::TwoLayerAe => Box::new(TwoLayerAe::for_dim(dim, seed)),
        ModelKind::Usad => Box::new(Usad::for_dim(dim, seed)),
        ModelKind::NBeats => {
            Box::new(NBeats::for_dims(params.config.window, params.config.channels, seed))
        }
        ModelKind::PcbIForest => {
            // Subsample bounded by the training-set size (one point per
            // training feature vector).
            let psi = params.train_capacity.clamp(8, 256);
            Box::new(PcbIForestModel::new(100, psi, 0.5, seed))
        }
    }
}

/// Builds the Task-1 strategy component.
pub fn build_task1(task1: Task1, params: &BuildParams) -> Box<dyn TrainingSetStrategy> {
    let m = params.train_capacity;
    match task1 {
        Task1::SlidingWindow => Box::new(SlidingWindowSet::new(m)),
        Task1::UniformReservoir => Box::new(UniformReservoir::new(m, params.seed ^ 0x5eed)),
        Task1::AnomalyAwareReservoir => {
            Box::new(AnomalyAwareReservoir::new(m, params.seed ^ 0xa4e5))
        }
    }
}

/// Builds the Task-2 drift-detector component.
pub fn build_task2(task2: Task2, params: &BuildParams) -> Box<dyn DriftDetector> {
    match task2 {
        Task2::MuSigma => Box::new(MuSigmaChange::new()),
        Task2::Kswin => {
            Box::new(KswinDetector::with_stride(params.kswin_alpha, params.kswin_stride))
        }
    }
}

/// Builds the anomaly scorer component.
pub fn build_scorer(score: ScoreKind, params: &BuildParams) -> Box<dyn AnomalyScorer> {
    match score {
        ScoreKind::Raw => Box::new(RawScore),
        ScoreKind::Average => Box::new(MovingAverage::new(params.score_k)),
        ScoreKind::AnomalyLikelihood => {
            Box::new(AnomalyLikelihood::new(params.score_k, params.score_k_short))
        }
    }
}

/// Builds a [`ScorerBank`] holding one fresh scorer per [`ScoreKind`], in
/// the given order — the fan-out counterpart of [`build_scorer`]. Each
/// bank scorer is constructed exactly as a standalone detector's scorer
/// would be, so replaying one nonconformity stream through the bank
/// reproduces per-scorer runs bitwise (when the detector trajectory is
/// scorer-independent; see [`Detector::scorer_feedback_free`]).
pub fn build_scorer_bank(kinds: &[ScoreKind], params: &BuildParams) -> ScorerBank {
    ScorerBank::new(kinds.iter().map(|&kind| build_scorer(kind, params)).collect())
}

/// Assembles the full detector for one of the paper's 26 algorithms.
pub fn build_detector(spec: AlgorithmSpec, params: &BuildParams) -> Detector {
    Detector::new(
        params.config.clone(),
        build_model(spec.model, params),
        build_task1(spec.task1, params),
        build_task2(spec.task2, params),
        build_scorer(params.score, params),
    )
}

/// Assembles a [`SharedWarmup`] driver for one `(model, Task1)` pair over
/// several Task-2 drift variants — the root of the shared-prefix
/// evaluation tree.
///
/// Every component is built exactly as [`build_detector`] would build it
/// for the corresponding `(model, task1, task2)` spec: the component seeds
/// are independent of each other and of the variant list, so a fork from
/// the returned driver is bitwise identical to the standalone detector.
/// The fitted model is assembled into per-variant [`Detector`]s via
/// [`SharedWarmup::fork`].
pub fn build_shared_warmup(
    model: ModelKind,
    task1: Task1,
    task2s: &[Task2],
    params: &BuildParams,
) -> SharedWarmup {
    SharedWarmup::new(
        params.config.clone(),
        build_model(model, params),
        build_task1(task1, params),
        task2s.iter().map(|&task2| build_task2(task2, params)).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sad_core::paper_algorithms;

    fn tiny_params() -> BuildParams {
        let config = DetectorConfig {
            window: 6,
            channels: 2,
            warmup: 40,
            initial_epochs: 2,
            fine_tune_epochs: 1,
        };
        BuildParams::new(config).with_capacity(10)
    }

    fn smooth_series(len: usize) -> Vec<Vec<f64>> {
        (0..len).map(|t| vec![(t as f64 * 0.1).sin(), (t as f64 * 0.07).cos()]).collect()
    }

    #[test]
    fn all_26_algorithms_build_and_run() {
        let series = smooth_series(80);
        for spec in paper_algorithms() {
            let mut det = build_detector(spec, &tiny_params());
            let outputs = det.run(&series);
            assert_eq!(outputs.len(), 40, "{}", spec.label());
            for out in &outputs {
                assert!(
                    (0.0..=1.0).contains(&out.anomaly_score),
                    "{}: score {} out of range",
                    spec.label(),
                    out.anomaly_score
                );
                assert!(out.nonconformity.is_finite(), "{}", spec.label());
            }
        }
    }

    #[test]
    fn builder_respects_score_kind() {
        let params = tiny_params().with_score(ScoreKind::Average);
        let spec = paper_algorithms()[0];
        let det = build_detector(spec, &params);
        assert_eq!(det.component_names().3, "Avg");
    }

    #[test]
    fn component_names_match_spec() {
        let spec = paper_algorithms()
            .into_iter()
            .find(|s| s.model == ModelKind::Usad && s.task1 == Task1::AnomalyAwareReservoir)
            .unwrap();
        let det = build_detector(spec, &tiny_params());
        let (model, task1, task2, _) = det.component_names();
        assert_eq!(model, "USAD");
        assert_eq!(task1, "ARES");
        assert_eq!(task2, spec.task2.label());
    }

    #[test]
    fn scorer_bank_mirrors_build_scorer() {
        let params = tiny_params();
        let kinds = [ScoreKind::Raw, ScoreKind::Average, ScoreKind::AnomalyLikelihood];
        let mut bank = build_scorer_bank(&kinds, &params);
        assert_eq!(bank.names(), vec!["Raw", "Avg", "AL"]);
        let trace: Vec<f64> = (0..60).map(|i| ((i * 13) % 100) as f64 / 100.0).collect();
        let out = bank.replay_packed(&trace);
        for (k, &kind) in kinds.iter().enumerate() {
            let mut scorer = build_scorer(kind, &params);
            for (i, &a) in trace.iter().enumerate() {
                assert_eq!(out[k][i].to_bits(), scorer.update(a).to_bits(), "scorer {k}");
            }
        }
    }

    /// A shared warm-up over both drift variants of an AE pair forks into
    /// detectors bitwise identical to standalone `build_detector` runs.
    #[test]
    fn shared_warmup_forks_match_built_detectors_bitwise() {
        let params = tiny_params();
        let series = smooth_series(110);
        let warm = params.config.warmup;
        let pair: Vec<_> = paper_algorithms()
            .into_iter()
            .filter(|s| s.model == ModelKind::TwoLayerAe && s.task1 == Task1::SlidingWindow)
            .collect();
        assert_eq!(pair.len(), 2, "AE/SW must have exactly the two drift variants");

        let task2s: Vec<Task2> = pair.iter().map(|s| s.task2).collect();
        let mut shared =
            build_shared_warmup(ModelKind::TwoLayerAe, Task1::SlidingWindow, &task2s, &params);
        for s in &series[..warm] {
            shared.step(s);
        }
        for (v, &spec) in pair.iter().enumerate() {
            let mut fork = shared.fork(v, build_scorer(params.score, &params));
            let mut standalone = build_detector(spec, &params);
            for s in &series[..warm] {
                assert!(standalone.step(s).is_none());
            }
            for (i, s) in series[warm..].iter().enumerate() {
                let a = fork.step(s).unwrap();
                let b = standalone.step(s).unwrap();
                assert_eq!(
                    a.anomaly_score.to_bits(),
                    b.anomaly_score.to_bits(),
                    "{}: step {i}",
                    spec.label()
                );
                assert_eq!(a.drift, b.drift, "{}: step {i}", spec.label());
            }
        }
    }

    #[test]
    fn seeded_builds_are_deterministic() {
        let spec = paper_algorithms()[7]; // a 2-layer AE variant
        let series = smooth_series(70);
        let run = |seed: u64| -> Vec<f64> {
            let mut det = build_detector(spec, &tiny_params().with_seed(seed));
            det.run(&series).into_iter().map(|o| o.anomaly_score).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same scores");
    }
}
