//! The streaming detector pipeline: wires all four framework components
//! plus the ML model into one `step`-per-stream-vector state machine.
//!
//! Lifecycle (matching the paper's experimental protocol, §V-B):
//!
//! 1. **Warm-up** — the first `warmup` stream steps only fill the data
//!    representation and the training set (the paper builds the initial
//!    training set from the first 5000 time steps). At the end of warm-up
//!    the model is trained for `initial_epochs` and every drift detector
//!    snapshots its reference statistics.
//! 2. **Streaming** — for every subsequent stream vector:
//!    representation → model prediction → nonconformity `a_t` → anomaly
//!    score `f_t` → Task-1 training-set update (using `f_t`, which is what
//!    ARES needs) → Task-2 drift check → optional fine-tune (one epoch, per
//!    the Table I caption).
//!
//! A stream vector holding a NaN or ±∞ is not a step, in either phase: the
//! detector counts it ([`Detector::non_finite`]) and drops it before it
//! advances the clock or reaches the window, Task 1, the drift detector or
//! a fit. The trace over a series is therefore the trace over the same
//! series without its non-finite vectors, `t` included — the rule the
//! serving engine applies to wire frames.

use crate::drift::DriftDetector;
use crate::model::{ModelOutput, StreamModel};
use crate::nonconformity::nonconformity;
use crate::repr::{FeatureVector, RawWindow};
use crate::score::{AnomalyScorer, ScorerBank};
use crate::strategy::{SetUpdate, TrainingSetStrategy};
use sad_obs::{with_label, Histogram, Registry};

/// Static configuration of a [`Detector`].
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Data representation length `w` (the paper's experiments use 100).
    pub window: usize,
    /// Channel count `N` of the stream.
    pub channels: usize,
    /// Number of initial stream steps used to build the first training set
    /// (the paper uses 5000).
    pub warmup: usize,
    /// Epochs for the initial fit at the end of warm-up.
    pub initial_epochs: usize,
    /// Epochs per fine-tune after drift (the paper uses 1).
    pub fine_tune_epochs: usize,
}

impl DetectorConfig {
    /// A small configuration suitable for tests and examples.
    pub fn small(channels: usize) -> Self {
        Self { window: 10, channels, warmup: 100, initial_epochs: 5, fine_tune_epochs: 1 }
    }

    /// The paper's experimental configuration (`w = 100`, warm-up 5000).
    pub fn paper(channels: usize) -> Self {
        Self { window: 100, channels, warmup: 5000, initial_epochs: 10, fine_tune_epochs: 1 }
    }
}

/// Per-step detector output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutput {
    /// Stream time step (0-based).
    pub t: usize,
    /// Nonconformity score `a_t ∈ [0, 1]`.
    pub nonconformity: f64,
    /// Final anomaly score `f_t ∈ [0, 1]`.
    pub anomaly_score: f64,
    /// Whether the Task-2 detector flagged drift at this step.
    pub drift: bool,
    /// Whether the model was fine-tuned at this step.
    pub fine_tuned: bool,
}

/// Result of a single-pass multi-scorer stream ([`Detector::run_fanout`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FanoutRun {
    /// One full score trace per bank scorer, in bank order:
    /// `traces[k][i]` is scorer `k`'s score for stream step `offset + i`.
    pub traces: Vec<Vec<f64>>,
    /// Stream step of the first post-warm-up output (`series.len()` when
    /// the series ended inside warm-up, leaving all traces empty).
    pub offset: usize,
}

/// The part of a detector that its drift variants share through warm-up:
/// representation, model, Task-1 strategy and stream clock.
#[derive(Clone)]
struct Trunk {
    config: DetectorConfig,
    repr: RawWindow,
    model: Box<dyn StreamModel>,
    strategy: Box<dyn TrainingSetStrategy>,
    /// Reusable `x_t` buffer: [`RawWindow::push_into`] overwrites it every
    /// step, so the steady-state hot loop never allocates a feature vector.
    scratch: FeatureVector,
    t: usize,
    warmed_up: bool,
    /// Stream vectors dropped for holding a NaN or ±∞.
    non_finite: u64,
    /// Cumulative wall time spent inside the model's training entry points
    /// (`fit_initial` at warm-up plus every drift-triggered `fine_tune`).
    train_time: std::time::Duration,
}

impl Trunk {
    fn new(
        config: DetectorConfig,
        model: Box<dyn StreamModel>,
        strategy: Box<dyn TrainingSetStrategy>,
    ) -> Self {
        assert!(config.window > 0 && config.channels > 0, "window/channels must be positive");
        assert!(
            config.warmup >= config.window,
            "warm-up ({}) must cover at least one window ({})",
            config.warmup,
            config.window
        );
        let repr = RawWindow::new(config.window, config.channels);
        let scratch = FeatureVector::zeroed(config.window, config.channels);
        Self {
            config,
            repr,
            model,
            strategy,
            scratch,
            t: 0,
            warmed_up: false,
            non_finite: 0,
            train_time: std::time::Duration::ZERO,
        }
    }

    /// Ingests `s_t` into the representation. After warm-up this returns
    /// `true` with `x_t` in `scratch`.
    ///
    /// A vector holding a NaN or ±∞ is counted and dropped first: it
    /// returns `false` and leaves the clock, the window, Task 1, the drift
    /// detectors and the model as they were.
    ///
    /// During warm-up it returns `false` and runs the warm-up protocol:
    /// everything is assumed normal (`f_t = 0`), and every drift detector
    /// in `drifts` observes each training-set update so its incremental
    /// statistics (running μ/σ, KSWIN sorted sets) track the set; their
    /// verdicts are ignored. At `t ≥ warmup` the model is fitted once and
    /// every drift detector snapshots its reference statistics.
    fn push(&mut self, s: &[f64], drifts: &mut [Box<dyn DriftDetector>]) -> bool {
        assert_eq!(s.len(), self.config.channels, "stream vector channel count mismatch");
        if !s.iter().all(|v| v.is_finite()) {
            self.non_finite += 1;
            return false;
        }
        self.t += 1;
        let has_x = self.repr.push_into(s, &mut self.scratch);
        if self.warmed_up {
            assert!(has_x, "window is full after warm-up");
            return true;
        }
        if has_x {
            let update = self.strategy.update(&self.scratch, 0.0);
            for drift in drifts.iter_mut() {
                let _ = drift.observe(&self.scratch, &update, self.strategy.training_set());
            }
            if let SetUpdate::Replaced { removed } = update {
                self.strategy.recycle(removed);
            }
        }
        if self.t >= self.config.warmup {
            let started = std::time::Instant::now();
            self.model.fit_initial(self.strategy.training_set(), self.config.initial_epochs);
            self.train_time += started.elapsed();
            for drift in drifts {
                drift.on_fine_tune(self.strategy.training_set());
            }
            self.warmed_up = true;
        }
        false
    }
}

/// A complete streaming anomaly detector.
#[derive(Clone)]
pub struct Detector {
    trunk: Trunk,
    drift: Box<dyn DriftDetector>,
    scorer: Box<dyn AnomalyScorer>,
    /// Split-step guard: set by a `true` [`Detector::begin_step`], cleared
    /// by [`Detector::score_step`].
    mid_step: bool,
    /// Set by a step whose drift test fired, cleared by [`Detector::adapt`].
    adaptation_owed: bool,
    drift_times: Vec<usize>,
    fine_tunes: usize,
    /// Completed post-warm-up steps. Kept apart from the histogram's
    /// count, which skips NaN scores.
    steps: u64,
    /// Per-step nonconformity scores. Pure observation — never feeds back
    /// into detection.
    nonconformity: Histogram,
}

impl Detector {
    /// Assembles a detector from its five components.
    pub fn new(
        config: DetectorConfig,
        model: Box<dyn StreamModel>,
        strategy: Box<dyn TrainingSetStrategy>,
        drift: Box<dyn DriftDetector>,
        scorer: Box<dyn AnomalyScorer>,
    ) -> Self {
        Self::assemble(Trunk::new(config, model, strategy), drift, scorer)
    }

    /// A detector over `trunk` with its own drift detector and scorer. A
    /// warmed trunk counts its warm-up in the detector's lifecycle, as its
    /// `train_time` counts the initial fit.
    fn assemble(
        trunk: Trunk,
        drift: Box<dyn DriftDetector>,
        scorer: Box<dyn AnomalyScorer>,
    ) -> Self {
        Self {
            trunk,
            drift,
            scorer,
            mid_step: false,
            adaptation_owed: false,
            drift_times: Vec::new(),
            fine_tunes: 0,
            steps: 0,
            nonconformity: nonconformity_histogram(),
        }
    }

    /// Feeds one stream vector `s_t`; returns `None` during warm-up and
    /// for a vector holding a NaN or ±∞, which it drops and counts
    /// ([`Self::non_finite`]).
    ///
    /// # Panics
    /// Panics if `s.len() != config.channels`.
    pub fn step(&mut self, s: &[f64]) -> Option<StepOutput> {
        if !self.begin_step(s) {
            return None;
        }
        let output = self.trunk.model.predict(&self.trunk.scratch);
        Some(self.finish_step(&output))
    }

    /// First half of the split-step API used by external serving layers
    /// (the fleet's cross-stream batched stepping): ingests `s_t` into the
    /// representation and runs the whole warm-up state machine.
    ///
    /// Returns `true` when the detector is warmed up and a feature vector
    /// is ready in [`Self::feature`] — the caller must then compute the
    /// model output (e.g. via a shared batched forward pass) and complete
    /// the step with [`Self::finish_step`]. Returns `false` during warm-up,
    /// including the step on which the initial fit runs, and for a vector
    /// holding a NaN or ±∞ at any time (dropped and counted, see
    /// [`Self::step`]); no [`Self::finish_step`] call must follow a `false`
    /// return.
    ///
    /// `begin_step` followed by `model().predict(feature())` and
    /// `finish_step` is exactly [`Self::step`].
    ///
    /// # Panics
    /// Panics if `s.len() != config.channels`, when called again before
    /// a `true` return was consumed by [`Self::finish_step`] or
    /// [`Self::score_step`], or while the last step's adaptation is owed
    /// ([`Self::adapt`]).
    pub fn begin_step(&mut self, s: &[f64]) -> bool {
        assert!(!self.mid_step, "begin_step called twice without finish_step");
        assert!(!self.adaptation_owed, "begin_step called while an adaptation is owed");
        if !self.trunk.push(s, std::slice::from_mut(&mut self.drift)) {
            return false;
        }
        self.mid_step = true;
        true
    }

    /// The feature vector `x_t` produced by the last [`Self::begin_step`]
    /// (valid between a `true` `begin_step` and its `finish_step`).
    pub fn feature(&self) -> &FeatureVector {
        &self.trunk.scratch
    }

    /// Second half of the split-step API: completes the step begun by a
    /// `true` [`Self::begin_step`] using an externally-computed model
    /// output for [`Self::feature`]. It is [`Self::score_step`] followed,
    /// when the step's drift test fired, by [`Self::adapt`].
    ///
    /// Feeding back `model().predict(feature())` reproduces [`Self::step`]
    /// bitwise; the fleet instead feeds the per-row result of one shared
    /// batched forward pass (proven bitwise-identical to per-stream
    /// inference).
    ///
    /// # Panics
    /// Panics if no step is in progress.
    pub fn finish_step(&mut self, output: &ModelOutput) -> StepOutput {
        assert!(self.mid_step, "finish_step without a pending begin_step");
        let out = self.score_step(output);
        if self.adaptation_owed {
            self.adapt();
        }
        out
    }

    /// The scoring half of [`Self::finish_step`]: nonconformity, anomaly
    /// score, Task-1 update and the Task-2 drift test. Returns the step's
    /// [`StepOutput`], whose verdict never depends on the adaptation its
    /// own drift triggers. When `drift` is set, the drift time and
    /// `fine_tuned` (and the fine-tune count) are already recorded, and
    /// the adaptation is owed ([`Self::owes_adaptation`]): call
    /// [`Self::adapt`] before the next [`Self::begin_step`].
    ///
    /// # Panics
    /// Panics if no step is in progress.
    pub fn score_step(&mut self, output: &ModelOutput) -> StepOutput {
        assert!(self.mid_step, "score_step without a pending begin_step");
        self.mid_step = false;
        let trunk = &mut self.trunk;
        let t = trunk.t - 1;
        let a_t = nonconformity(&trunk.scratch, output);
        self.steps += 1;
        self.nonconformity.record(a_t);
        let f_t = self.scorer.update(a_t);
        let update = trunk.strategy.update(&trunk.scratch, f_t);
        let drift = self.drift.observe(&trunk.scratch, &update, trunk.strategy.training_set());
        if let SetUpdate::Replaced { removed } = update {
            trunk.strategy.recycle(removed);
        }
        let fine_tuned = drift && trunk.config.fine_tune_epochs > 0;
        if drift {
            self.drift_times.push(t);
            self.fine_tunes += usize::from(fine_tuned);
            self.adaptation_owed = true;
        }
        StepOutput { t, nonconformity: a_t, anomaly_score: f_t, drift, fine_tuned }
    }

    /// Whether the last step's drift owes an adaptation ([`Self::adapt`]).
    pub fn owes_adaptation(&self) -> bool {
        self.adaptation_owed
    }

    /// The adaptation half of [`Self::finish_step`]: the fine-tune epochs
    /// on the current training set (timed into [`Self::train_time`]), then
    /// the drift detector's re-anchor. It shapes the steps after the one
    /// whose drift owes it, never that step's verdict.
    ///
    /// # Panics
    /// Panics if no adaptation is owed.
    pub fn adapt(&mut self) {
        assert!(self.adaptation_owed, "adapt without an owed adaptation");
        let trunk = &mut self.trunk;
        let started = std::time::Instant::now();
        for _ in 0..trunk.config.fine_tune_epochs {
            trunk.model.fine_tune(trunk.strategy.training_set());
        }
        trunk.train_time += started.elapsed();
        // Re-anchor the drift reference even when the model is frozen
        // (fine_tune_epochs = 0), so a frozen fork doesn't fire every
        // step after the first drift.
        self.drift.on_fine_tune(trunk.strategy.training_set());
        self.adaptation_owed = false;
    }

    /// Expected number of outputs from streaming `len` more vectors (the
    /// steps left after whatever warm-up remains).
    fn expected_outputs(&self, len: usize) -> usize {
        len.saturating_sub(self.trunk.config.warmup.saturating_sub(self.trunk.t))
    }

    /// Runs the detector over a whole series (`series[t]` is `s_t`).
    ///
    /// Returns one [`StepOutput`] per post-warm-up step.
    pub fn run(&mut self, series: &[Vec<f64>]) -> Vec<StepOutput> {
        let mut outputs = Vec::with_capacity(self.expected_outputs(series.len()));
        outputs.extend(series.iter().filter_map(|s| self.step(s)));
        outputs
    }

    /// Streams a whole series **once** and returns one full score trace per
    /// bank scorer.
    ///
    /// The detector runs alone, packing its nonconformity stream into one
    /// contiguous trace, which each bank scorer then consumes whole
    /// ([`ScorerBank::replay_packed`]). The detector's embedded scorer stays
    /// the *driver*: its `f_t` feeds the Task-1 strategy exactly as in
    /// [`Self::step`]. The bank never feeds back into the detector, so bank
    /// scorer `k` sees the `a_t` sequence it would see in a standalone run
    /// whenever [`Self::scorer_feedback_free`] holds; with an
    /// anomaly-feedback strategy (ARES) the traces follow the driver's
    /// trajectory.
    ///
    /// `traces[k][i]` is bank scorer `k`'s anomaly score for stream step
    /// `offset + i`; `offset` is the first post-warm-up step (or
    /// `series.len()` if warm-up never completed).
    pub fn run_fanout(&mut self, series: &[Vec<f64>], bank: &mut ScorerBank) -> FanoutRun {
        let mut trace = Vec::with_capacity(self.expected_outputs(series.len()));
        let mut offset = series.len();
        for s in series {
            if let Some(out) = self.step(s) {
                offset = offset.min(out.t);
                trace.push(out.nonconformity);
            }
        }
        FanoutRun { traces: bank.replay_packed(&trace), offset }
    }

    /// Scores a whole labelled series and returns `(scores, offset)` where
    /// `scores[i]` is the anomaly score for stream step `offset + i`.
    pub fn score_series(&mut self, series: &[Vec<f64>]) -> (Vec<f64>, usize) {
        let outputs = self.run(series);
        let offset = outputs.first().map_or(series.len(), |o| o.t);
        (outputs.into_iter().map(|o| o.anomaly_score).collect(), offset)
    }

    /// Whether the detector trajectory is provably independent of the
    /// anomaly scoring function.
    ///
    /// True when the Task-1 strategy ignores `f_t` (see
    /// [`TrainingSetStrategy::uses_anomaly_feedback`]): the nonconformity
    /// stream, training set, drift triggers and fine-tunes are then a pure
    /// function of the input series, and one [`Self::run_fanout`] pass
    /// reproduces every per-scorer run bitwise.
    pub fn scorer_feedback_free(&self) -> bool {
        !self.trunk.strategy.uses_anomaly_feedback()
    }

    /// Disables fine-tuning: drift is still detected and recorded, but the
    /// model parameters are never updated again.
    ///
    /// This is the "previous model, which is not finetuned" arm of the
    /// paper's Figure 1 experiment — fork the detector with `clone()`,
    /// freeze one fork, and stream the same data into both.
    pub fn freeze_model(&mut self) {
        self.trunk.config.fine_tune_epochs = 0;
    }

    /// Steps at which drift fired so far.
    pub fn drift_times(&self) -> &[usize] {
        &self.drift_times
    }

    /// Number of fine-tune sessions so far, each counted by the step whose
    /// drift owes it ([`Self::score_step`]). Unlike [`Self::drift_times`],
    /// this does not advance on drift events observed while the model is
    /// frozen.
    pub fn fine_tune_count(&self) -> usize {
        self.fine_tunes
    }

    /// Cumulative wall time spent training the model (initial fit plus all
    /// fine-tune sessions). This is the hot loop the batched NN path
    /// optimizes; the bench harness surfaces it per grid cell in the
    /// timing artifact.
    pub fn train_time(&self) -> std::time::Duration {
        self.trunk.train_time
    }

    /// Whether warm-up has completed.
    pub fn is_warmed_up(&self) -> bool {
        self.trunk.warmed_up
    }

    /// Current stream time.
    pub fn time(&self) -> usize {
        self.trunk.t
    }

    /// Stream vectors dropped for holding a NaN or ±∞ (they are not steps
    /// and do not advance [`Self::time`]).
    pub fn non_finite(&self) -> u64 {
        self.trunk.non_finite
    }

    /// The embedded model (e.g. to inspect it in experiments).
    pub fn model(&self) -> &dyn StreamModel {
        self.trunk.model.as_ref()
    }

    /// The detector's static configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.trunk.config
    }

    /// The Task-1 strategy's current training set.
    pub fn training_set(&self) -> &[crate::repr::FeatureVector] {
        self.trunk.strategy.training_set()
    }

    /// Cumulative drift-detector operation tally (Table II).
    pub fn drift_ops(&self) -> sad_stats::OpCount {
        self.drift.ops()
    }

    /// Training-set removals the Task-2 detector could not honor (KSWIN
    /// only — see [`DriftDetector::removal_misses`]). Non-zero flags a
    /// Task-1 strategy bug.
    pub fn drift_removal_misses(&self) -> u64 {
        self.drift.removal_misses()
    }

    /// Exports this detector's lifecycle metrics (see
    /// [`register_lifecycle`]). Allocates — export path only.
    pub fn export_metrics(&self) -> Registry {
        let mut reg = Registry::new();
        register_lifecycle(&mut reg, [self]);
        reg
    }

    /// Component names as `(model, task1, task2, scorer)` for reports.
    pub fn component_names(&self) -> (&'static str, &'static str, &'static str, &'static str) {
        (self.trunk.model.name(), self.trunk.strategy.name(), self.drift.name(), self.scorer.name())
    }
}

/// The paper's three Task-2 variants (Table I). A lifecycle export always
/// carries their drift counters, so exports of any two populations share
/// one leading schema.
const PAPER_TASK2_VARIANTS: [&str; 3] = ["Regular", "μ/σ", "KS"];

/// The bucket schema of every detector's nonconformity histogram: 20
/// equal buckets over `a_t ∈ [0, 1]`.
fn nonconformity_histogram() -> Histogram {
    Histogram::linear(0.0, 1.0, 20)
}

/// Registers the `sad_detector_*` lifecycle families of a detector
/// population — one detector for [`Detector::export_metrics`], the live
/// streams of a serving fleet — read from the fields each detector keeps
/// anyway: warm-up and initial-fit counts from its warm-up state, drift
/// counts from its drift times, fine-tune counts from its fine-tune tally.
///
/// Counters are sums over the population; drift counts are summed by
/// [`DriftDetector::name`], the paper's three labels first (always
/// present), then any other name in first-seen order. The train-time
/// gauge is the population's maximum [`Detector::train_time`], and the
/// nonconformity histograms merge bucket-wise. An empty population
/// registers nothing. Allocates — export path only.
pub fn register_lifecycle<'a>(
    reg: &mut Registry,
    detectors: impl IntoIterator<Item = &'a Detector>,
) {
    let mut detectors = detectors.into_iter().peekable();
    if detectors.peek().is_none() {
        return;
    }
    let (mut steps, mut warmed_up, mut fine_tunes, mut removal_misses) = (0, 0, 0, 0);
    let mut train_seconds = 0.0f64;
    let mut drifts: Vec<(&str, u64)> = PAPER_TASK2_VARIANTS.iter().map(|&v| (v, 0)).collect();
    let mut nonconformity = nonconformity_histogram();
    for det in detectors {
        steps += det.steps;
        warmed_up += u64::from(det.trunk.warmed_up);
        fine_tunes += det.fine_tunes as u64;
        removal_misses += det.drift.removal_misses();
        train_seconds = train_seconds.max(det.trunk.train_time.as_secs_f64());
        let (name, count) = (det.drift.name(), det.drift_times.len() as u64);
        match drifts.iter_mut().find(|(variant, _)| *variant == name) {
            Some((_, total)) => *total += count,
            None => drifts.push((name, count)),
        }
        nonconformity.merge_from(&det.nonconformity);
    }
    reg.register_counter("sad_detector_steps_total", "Post-warm-up detector steps.", steps);
    reg.register_counter(
        "sad_detector_warmup_completions_total",
        "Warm-up segments completed.",
        warmed_up,
    );
    reg.register_counter(
        "sad_detector_initial_fits_total",
        "Initial model fits at the end of warm-up.",
        warmed_up,
    );
    for (variant, count) in drifts {
        reg.register_counter(
            &with_label("sad_detector_drift_events_total", "task2", variant),
            "Drift triggers by Task-2 variant.",
            count,
        );
    }
    reg.register_counter(
        "sad_detector_fine_tune_events_total",
        "Fine-tune sessions (drift events with a trainable model).",
        fine_tunes,
    );
    reg.register_counter(
        "sad_detector_removal_misses_total",
        "Training-set removals the Task-2 detector could not honor.",
        removal_misses,
    );
    reg.register_gauge(
        "sad_detector_train_seconds",
        "Cumulative model training wall time (max across merged detectors).",
        train_seconds,
    );
    reg.register_histogram(
        "sad_detector_nonconformity",
        "Per-step nonconformity scores a_t.",
        nonconformity,
    );
}

/// Shared-prefix warm-up driver: one warm-up + initial fit forked across
/// several Task-2 drift-detector variants.
///
/// The paper's component decomposition (Table I) pairs most detectors as
/// `(model, Task1)` × {μσ-Change, KSWIN}. During warm-up the drift verdict
/// is *ignored* (see [`Detector::step`]) and the anomaly score is pinned to
/// 0, so detectors sharing `(model, Task1)` are bitwise identical through
/// the whole warm-up segment **and** the initial fit — they diverge only at
/// the first post-warm-up fine-tune decision. `SharedWarmup` exploits that:
/// it streams the warm-up prefix once, feeding the representation and
/// Task-1 strategy a single time, feeding *every* variant's
/// [`DriftDetector::observe`] the exact update stream it would see
/// standalone, and running `fit_initial` once. [`Self::fork`] then assembles
/// one warmed [`Detector`] per variant (cloned model + strategy + repr
/// state, that variant's drift detector, a fresh scorer), each bitwise
/// identical to a detector that did the whole warm-up on its own.
///
/// Every component's RNG chain is seeded independently (model / Task-1 /
/// Task-2 draw from unrelated seeds), so sharing cannot reorder any random
/// draws relative to standalone runs.
pub struct SharedWarmup {
    trunk: Trunk,
    drifts: Vec<Box<dyn DriftDetector>>,
}

impl SharedWarmup {
    /// Creates the driver over one drift detector per variant.
    ///
    /// # Panics
    /// Panics on an empty variant list or an invalid configuration (same
    /// rules as [`Detector::new`]).
    pub fn new(
        config: DetectorConfig,
        model: Box<dyn StreamModel>,
        strategy: Box<dyn TrainingSetStrategy>,
        drifts: Vec<Box<dyn DriftDetector>>,
    ) -> Self {
        assert!(!drifts.is_empty(), "at least one drift variant required");
        Self { trunk: Trunk::new(config, model, strategy), drifts }
    }

    /// Feeds one warm-up stream vector through the warm-up step of
    /// [`Detector::step`], with every drift variant observing the (single)
    /// training-set update. At the end of warm-up the model is fitted
    /// **once** and every variant snapshots its reference statistics. A
    /// vector holding a NaN or ±∞ is dropped and counted, as there.
    ///
    /// # Panics
    /// Panics if called after warm-up completed (the variants' trajectories
    /// diverge there — fork instead) or if `s.len() != config.channels`.
    pub fn step(&mut self, s: &[f64]) {
        assert!(
            !self.trunk.warmed_up,
            "SharedWarmup stepped past the end of warm-up; fork instead"
        );
        self.trunk.push(s, &mut self.drifts);
    }

    /// Assembles a warmed [`Detector`] for drift variant `variant` with the
    /// given (fresh) scorer.
    ///
    /// The fork owns clones of the shared model / strategy / representation
    /// state plus the variant's drift detector; its `train_time` telemetry
    /// carries the shared initial fit so per-detector accounting matches a
    /// standalone run's shape. Forking before warm-up completed is allowed
    /// (each fork simply finishes warm-up on its own — at which point
    /// nothing was shared).
    ///
    /// # Panics
    /// Panics if `variant >= self.variants()`.
    pub fn fork(&self, variant: usize, scorer: Box<dyn AnomalyScorer>) -> Detector {
        Detector::assemble(self.trunk.clone(), self.drifts[variant].clone(), scorer)
    }

    /// Number of drift variants.
    pub fn variants(&self) -> usize {
        self.drifts.len()
    }

    /// Whether the shared initial fit has run.
    pub fn is_warmed_up(&self) -> bool {
        self.trunk.warmed_up
    }

    /// Current stream time.
    pub fn time(&self) -> usize {
        self.trunk.t
    }

    /// Wall time of the shared initial fit (zero until warm-up completes).
    pub fn train_time(&self) -> std::time::Duration {
        self.trunk.train_time
    }

    /// Whether post-warm-up trajectories are scorer-independent (see
    /// [`Detector::scorer_feedback_free`]).
    pub fn scorer_feedback_free(&self) -> bool {
        !self.trunk.strategy.uses_anomaly_feedback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::{MuSigmaChange, RegularInterval};
    use crate::model::testing::{LastValueModel, PerfectReconstructor};
    use crate::score::{MovingAverage, RawScore};
    use crate::strategy::SlidingWindowSet;

    fn smooth_series(len: usize) -> Vec<Vec<f64>> {
        (0..len).map(|t| vec![(t as f64 * 0.05).sin(), (t as f64 * 0.05).cos()]).collect()
    }

    fn make_detector(warmup: usize) -> Detector {
        let config = DetectorConfig {
            window: 5,
            channels: 2,
            warmup,
            initial_epochs: 1,
            fine_tune_epochs: 1,
        };
        Detector::new(
            config,
            Box::new(LastValueModel::default()),
            Box::new(SlidingWindowSet::new(10)),
            Box::new(MuSigmaChange::new()),
            Box::new(MovingAverage::new(5)),
        )
    }

    #[test]
    fn warmup_produces_no_output() {
        let mut det = make_detector(20);
        let series = smooth_series(50);
        let outputs = det.run(&series);
        assert_eq!(outputs.len(), 30);
        assert_eq!(outputs[0].t, 20);
        assert!(det.is_warmed_up());
    }

    #[test]
    fn perfect_model_scores_near_zero() {
        let config = DetectorConfig { window: 4, channels: 2, warmup: 10, initial_epochs: 1, fine_tune_epochs: 1 };
        let mut det = Detector::new(
            config,
            Box::new(PerfectReconstructor),
            Box::new(SlidingWindowSet::new(5)),
            Box::new(MuSigmaChange::new()),
            Box::new(RawScore),
        );
        for out in det.run(&smooth_series(40)) {
            assert!(out.anomaly_score < 1e-9, "perfect reconstruction → zero score");
        }
    }

    #[test]
    fn smooth_series_scores_low_for_forecaster() {
        let mut det = make_detector(20);
        let outputs = det.run(&smooth_series(200));
        let mean: f64 =
            outputs.iter().map(|o| o.anomaly_score).sum::<f64>() / outputs.len() as f64;
        assert!(mean < 0.05, "slowly varying series is predictable, mean score {mean}");
    }

    #[test]
    fn regular_interval_fine_tunes_model() {
        let config = DetectorConfig { window: 3, channels: 2, warmup: 10, initial_epochs: 1, fine_tune_epochs: 1 };
        let mut det = Detector::new(
            config,
            Box::new(LastValueModel::default()),
            Box::new(SlidingWindowSet::new(5)),
            Box::new(RegularInterval::new(10)),
            Box::new(RawScore),
        );
        let _ = det.run(&smooth_series(60));
        // 50 post-warm-up steps with interval 10 -> 5 fine-tunes.
        assert_eq!(det.fine_tune_count(), 5);
        assert_eq!(det.drift_times(), &[19, 29, 39, 49, 59]);
    }

    /// Delegates to [`RegularInterval`] under a name outside the paper's
    /// three Task-2 variants, and reports a fixed number of removal misses.
    #[derive(Clone)]
    struct CustomInterval(RegularInterval);

    const CUSTOM_REMOVAL_MISSES: u64 = 3;

    impl DriftDetector for CustomInterval {
        fn name(&self) -> &'static str {
            "Custom"
        }
        fn removal_misses(&self) -> u64 {
            CUSTOM_REMOVAL_MISSES
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
        fn ops(&self) -> sad_stats::OpCount {
            self.0.ops()
        }
        fn clone_box(&self) -> Box<dyn DriftDetector> {
            Box::new(self.clone())
        }
    }

    fn interval_detector(drift: Box<dyn DriftDetector>) -> Detector {
        let config = DetectorConfig {
            window: 3,
            channels: 2,
            warmup: 10,
            initial_epochs: 1,
            fine_tune_epochs: 1,
        };
        Detector::new(
            config,
            Box::new(LastValueModel::default()),
            Box::new(SlidingWindowSet::new(5)),
            drift,
            Box::new(RawScore),
        )
    }

    /// The lifecycle export reads each detector's own fields: drift counts
    /// sum by variant name (paper labels first, then first-seen names),
    /// removal misses sum over the population, frozen drift events count
    /// as drift but not as fine-tunes, and a detector still in warm-up
    /// adds no warm-up, step or drift.
    #[test]
    fn lifecycle_export_sums_a_population_by_variant_name() {
        let mut regular = interval_detector(Box::new(RegularInterval::new(10)));
        let _ = regular.run(&smooth_series(60));
        let mut custom = interval_detector(Box::new(CustomInterval(RegularInterval::new(10))));
        let _ = custom.run(&smooth_series(40));
        let mut frozen = interval_detector(Box::new(CustomInterval(RegularInterval::new(10))));
        frozen.freeze_model();
        let _ = frozen.run(&smooth_series(60));
        let mut warming = make_detector(20);
        let _ = warming.run(&smooth_series(5));

        let mut reg = Registry::new();
        register_lifecycle(&mut reg, [&regular, &custom, &frozen, &warming]);
        let counter = |name: &str| reg.counter_by_name(name).unwrap();
        let drift =
            |variant| counter(&with_label("sad_detector_drift_events_total", "task2", variant));
        assert_eq!(counter("sad_detector_steps_total"), 50 + 30 + 50);
        assert_eq!(counter("sad_detector_warmup_completions_total"), 3);
        assert_eq!(counter("sad_detector_initial_fits_total"), 3);
        assert_eq!((drift("Regular"), drift("μ/σ"), drift("KS"), drift("Custom")), (5, 0, 0, 3 + 5));
        assert_eq!(counter("sad_detector_fine_tune_events_total"), 5 + 3);
        assert_eq!(counter("sad_detector_removal_misses_total"), 2 * CUSTOM_REMOVAL_MISSES);
        let names: Vec<&str> = reg.counters().map(|(name, _, _)| name).collect();
        let custom_at = names.iter().position(|n| n.contains("Custom")).unwrap();
        assert!(names[custom_at - 1].contains("\"KS\""), "after the paper labels: {names:?}");
        let slowest = [&regular, &custom, &frozen].map(|d| d.train_time().as_secs_f64());
        assert_eq!(
            reg.gauge_by_name("sad_detector_train_seconds"),
            Some(slowest.into_iter().fold(0.0, f64::max))
        );
        assert_eq!(reg.histogram_by_name("sad_detector_nonconformity").unwrap().count(), 130);

        let mut empty = Registry::new();
        register_lifecycle(&mut empty, []);
        assert!(empty.is_empty(), "an empty population exports nothing");
    }

    /// A NaN forecast scores nonconformity 1.0 — maximally suspicious, not
    /// a NaN that no threshold flags — so its step counts as a step and as
    /// a nonconformity observation, and the anomaly score stays finite.
    #[test]
    fn nan_forecast_scores_one_and_counts_as_a_step_and_an_observation() {
        let mut det = make_detector(20);
        let _ = det.run(&smooth_series(30));
        assert!(det.begin_step(&[0.1, 0.2]));
        let out = det.finish_step(&ModelOutput::Forecast(vec![f64::NAN, f64::NAN]));
        assert_eq!(out.nonconformity, 1.0);
        assert!(out.anomaly_score.is_finite());
        let reg = det.export_metrics();
        assert_eq!(reg.counter_by_name("sad_detector_steps_total"), Some(11));
        assert_eq!(reg.histogram_by_name("sad_detector_nonconformity").unwrap().count(), 11);
    }

    #[test]
    fn non_finite_vector_is_dropped_and_counted_in_both_phases() {
        let series = smooth_series(40);
        let mut clean = make_detector(20);
        let want = clean.run(&series);
        let mut det = make_detector(20);
        let mut got = Vec::new();
        for (i, s) in series.iter().enumerate() {
            // One bad vector inside warm-up, one after it.
            if i == 7 || i == 30 {
                assert!(!det.begin_step(&[f64::NAN, 0.5]));
                assert_eq!(det.step(&[0.5, f64::NEG_INFINITY]), None);
            }
            got.extend(det.step(s));
        }
        assert_eq!(got, want);
        assert_eq!((det.non_finite(), det.time()), (4, 40));
    }

    #[test]
    fn detector_is_cloneable_and_fork_diverges() {
        let mut det = make_detector(20);
        let series = smooth_series(100);
        for s in series.iter().take(60) {
            det.step(s);
        }
        let mut fork = det.clone();
        // Same next input -> identical output on both.
        let a = det.step(&series[60]).unwrap();
        let b = fork.step(&series[60]).unwrap();
        assert_eq!(a, b);
        // Different inputs -> the forks diverge.
        let c = det.step(&[5.0, -5.0]).unwrap();
        let d = fork.step(&series[61]).unwrap();
        assert_ne!(c.nonconformity, d.nonconformity);
    }

    #[test]
    fn score_series_reports_offset() {
        let mut det = make_detector(25);
        let (scores, offset) = det.score_series(&smooth_series(70));
        assert_eq!(offset, 25);
        assert_eq!(scores.len(), 45);
    }

    /// Fan-out over a feedback-free strategy (SW) reproduces each
    /// standalone per-scorer run bitwise from one detector pass.
    #[test]
    fn fanout_traces_match_standalone_runs_bitwise() {
        use crate::score::{AnomalyLikelihood, RawScore, ScorerBank};
        let series = smooth_series(120);
        let config = DetectorConfig {
            window: 5,
            channels: 2,
            warmup: 30,
            initial_epochs: 1,
            fine_tune_epochs: 1,
        };
        let build = |scorer: Box<dyn AnomalyScorer>| {
            Detector::new(
                config.clone(),
                Box::new(LastValueModel::default()),
                Box::new(SlidingWindowSet::new(10)),
                Box::new(MuSigmaChange::new()),
                scorer,
            )
        };

        let mut shared = build(Box::new(RawScore));
        assert!(shared.scorer_feedback_free());
        let mut bank = ScorerBank::new(vec![
            Box::new(RawScore),
            Box::new(MovingAverage::new(5)),
            Box::new(AnomalyLikelihood::new(20, 3)),
        ]);
        let fanout = shared.run_fanout(&series, &mut bank);
        assert_eq!(fanout.offset, 30);
        assert_eq!(fanout.traces.len(), 3);

        let standalone: [Box<dyn AnomalyScorer>; 3] = [
            Box::new(RawScore),
            Box::new(MovingAverage::new(5)),
            Box::new(AnomalyLikelihood::new(20, 3)),
        ];
        for (k, scorer) in standalone.into_iter().enumerate() {
            let mut det = build(scorer);
            let (scores, offset) = det.score_series(&series);
            assert_eq!(offset, fanout.offset);
            assert_eq!(scores.len(), fanout.traces[k].len());
            for (i, (a, b)) in scores.iter().zip(&fanout.traces[k]).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "scorer {k}, step {i}");
            }
        }
    }

    /// ARES feeds `f_t` back into the training set, so the detector must
    /// report that its trajectory is scorer-dependent.
    #[test]
    fn ares_is_not_scorer_feedback_free() {
        use crate::strategy::{AnomalyAwareReservoir, UniformReservoir};
        let config = DetectorConfig {
            window: 5,
            channels: 2,
            warmup: 20,
            initial_epochs: 1,
            fine_tune_epochs: 1,
        };
        let build = |strategy: Box<dyn TrainingSetStrategy>| {
            Detector::new(
                config.clone(),
                Box::new(LastValueModel::default()),
                strategy,
                Box::new(MuSigmaChange::new()),
                Box::new(RawScore),
            )
        };
        assert!(!build(Box::new(AnomalyAwareReservoir::new(10, 1))).scorer_feedback_free());
        assert!(build(Box::new(UniformReservoir::new(10, 1))).scorer_feedback_free());
        assert!(build(Box::new(SlidingWindowSet::new(10))).scorer_feedback_free());
    }

    /// A series ending inside warm-up yields empty traces and
    /// `offset == series.len()`, mirroring `score_series`.
    #[test]
    fn fanout_on_warmup_only_series_is_empty() {
        use crate::score::ScorerBank;
        let mut det = make_detector(50);
        let series = smooth_series(30);
        let mut bank = ScorerBank::new(vec![Box::new(RawScore)]);
        let run = det.run_fanout(&series, &mut bank);
        assert_eq!(run.offset, 30);
        assert_eq!(run.traces, vec![Vec::<f64>::new()]);
    }

    /// The tentpole guarantee: warming once through `SharedWarmup` and
    /// forking per drift variant is bitwise identical to two standalone
    /// detectors that each did their own warm-up + initial fit.
    #[test]
    fn shared_warmup_forks_match_standalone_detectors_bitwise() {
        use crate::drift::KswinDetector;
        let series = smooth_series(160);
        let warmup = 40;
        let config = DetectorConfig {
            window: 5,
            channels: 2,
            warmup,
            initial_epochs: 2,
            fine_tune_epochs: 1,
        };
        let drifts: [fn() -> Box<dyn DriftDetector>; 2] =
            [|| Box::new(MuSigmaChange::new()), || Box::new(KswinDetector::new(0.01))];

        let mut shared = SharedWarmup::new(
            config.clone(),
            Box::new(LastValueModel::default()),
            Box::new(SlidingWindowSet::new(10)),
            drifts.iter().map(|d| d()).collect(),
        );
        assert!(shared.scorer_feedback_free());
        for s in &series[..warmup] {
            shared.step(s);
        }
        assert!(shared.is_warmed_up());
        assert_eq!(shared.time(), warmup);

        for (v, make_drift) in drifts.iter().enumerate() {
            let mut fork = shared.fork(v, Box::new(MovingAverage::new(5)));
            assert!(fork.is_warmed_up());
            let mut standalone = Detector::new(
                config.clone(),
                Box::new(LastValueModel::default()),
                Box::new(SlidingWindowSet::new(10)),
                make_drift(),
                Box::new(MovingAverage::new(5)),
            );
            for s in &series[..warmup] {
                assert!(standalone.step(s).is_none());
            }
            for (i, s) in series[warmup..].iter().enumerate() {
                let a = fork.step(s).expect("warmed fork emits every step");
                let b = standalone.step(s).expect("warmed detector emits every step");
                assert_eq!(a.t, b.t, "variant {v}, step {i}");
                assert_eq!(
                    a.nonconformity.to_bits(),
                    b.nonconformity.to_bits(),
                    "variant {v}, step {i}"
                );
                assert_eq!(
                    a.anomaly_score.to_bits(),
                    b.anomaly_score.to_bits(),
                    "variant {v}, step {i}"
                );
                assert_eq!(a.drift, b.drift, "variant {v}, step {i}");
                assert_eq!(a.fine_tuned, b.fine_tuned, "variant {v}, step {i}");
            }
            assert_eq!(fork.drift_times(), standalone.drift_times(), "variant {v}");
            assert_eq!(fork.drift_ops(), standalone.drift_ops(), "variant {v}");
        }
    }

    /// Forking before warm-up completes is allowed: the fork finishes
    /// warm-up on its own and still matches a standalone detector.
    #[test]
    fn shared_warmup_early_fork_finishes_warmup_standalone() {
        let series = smooth_series(80);
        let config = DetectorConfig {
            window: 5,
            channels: 2,
            warmup: 30,
            initial_epochs: 1,
            fine_tune_epochs: 1,
        };
        let mut shared = SharedWarmup::new(
            config.clone(),
            Box::new(LastValueModel::default()),
            Box::new(SlidingWindowSet::new(10)),
            vec![Box::new(MuSigmaChange::new())],
        );
        for s in &series[..15] {
            shared.step(s);
        }
        assert!(!shared.is_warmed_up());
        let mut fork = shared.fork(0, Box::new(RawScore));
        let mut standalone = Detector::new(
            config,
            Box::new(LastValueModel::default()),
            Box::new(SlidingWindowSet::new(10)),
            Box::new(MuSigmaChange::new()),
            Box::new(RawScore),
        );
        for s in &series[..15] {
            assert!(standalone.step(s).is_none());
        }
        for s in &series[15..] {
            let a = fork.step(s);
            let b = standalone.step(s);
            assert_eq!(a.is_some(), b.is_some());
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.anomaly_score.to_bits(), b.anomaly_score.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "fork instead")]
    fn shared_warmup_step_past_warmup_panics() {
        let series = smooth_series(25);
        let mut shared = SharedWarmup::new(
            DetectorConfig {
                window: 5,
                channels: 2,
                warmup: 20,
                initial_epochs: 1,
                fine_tune_epochs: 1,
            },
            Box::new(LastValueModel::default()),
            Box::new(SlidingWindowSet::new(10)),
            vec![Box::new(MuSigmaChange::new())],
        );
        for s in &series {
            shared.step(s);
        }
    }

    #[test]
    #[should_panic(expected = "at least one drift variant")]
    fn shared_warmup_needs_a_variant() {
        let _ = SharedWarmup::new(
            DetectorConfig::small(2),
            Box::new(LastValueModel::default()),
            Box::new(SlidingWindowSet::new(10)),
            Vec::new(),
        );
    }

    /// The split-step contract behind the fleet: `begin_step` +
    /// `model().predict(feature())` + `finish_step` reproduces `step`
    /// bitwise — across warm-up, the fitting step, steady state, and
    /// forced fine-tune events.
    #[test]
    fn split_step_matches_step_bitwise() {
        let series = smooth_series(80);
        let config = DetectorConfig {
            window: 4,
            channels: 2,
            warmup: 15,
            initial_epochs: 1,
            fine_tune_epochs: 1,
        };
        let build = || {
            Detector::new(
                config.clone(),
                Box::new(LastValueModel::default()),
                Box::new(SlidingWindowSet::new(8)),
                Box::new(RegularInterval::new(7)),
                Box::new(MovingAverage::new(5)),
            )
        };
        let mut whole = build();
        let mut split = build();
        for (i, s) in series.iter().enumerate() {
            let a = whole.step(s);
            let b = if split.begin_step(s) {
                // Predict on the step's feature, then complete the step
                // with the externally-held output.
                let output = split.trunk.model.predict(&split.trunk.scratch);
                Some(split.finish_step(&output))
            } else {
                None
            };
            assert_eq!(a.is_some(), b.is_some(), "step {i}");
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.t, b.t, "step {i}");
                assert_eq!(a.nonconformity.to_bits(), b.nonconformity.to_bits(), "step {i}");
                assert_eq!(a.anomaly_score.to_bits(), b.anomaly_score.to_bits(), "step {i}");
                assert_eq!(a.drift, b.drift, "step {i}");
                assert_eq!(a.fine_tuned, b.fine_tuned, "step {i}");
            }
        }
        assert_eq!(whole.drift_times(), split.drift_times());
        assert_eq!(whole.fine_tune_count(), split.fine_tune_count());
    }

    /// The split behind the fleet's background adaptations: scoring a
    /// step and running its adaptation only before the next `begin_step`
    /// reproduces `step` bitwise, and the scoring half already reports the
    /// drift time, `fine_tuned` and the fine-tune count.
    #[test]
    fn score_then_deferred_adapt_matches_step_bitwise() {
        let series = smooth_series(80);
        let build = || interval_detector(Box::new(RegularInterval::new(7)));
        let mut whole = build();
        let mut split = build();
        let mut adaptations = 0;
        for (i, s) in series.iter().enumerate() {
            let a = whole.step(s);
            if split.owes_adaptation() {
                split.adapt();
                adaptations += 1;
            }
            let b = split.begin_step(s).then(|| {
                let output = split.trunk.model.predict(&split.trunk.scratch);
                let out = split.score_step(&output);
                assert_eq!(split.owes_adaptation(), out.drift, "step {i}");
                assert_eq!(split.drift_times().last() == Some(&out.t), out.drift, "step {i}");
                out
            });
            assert_eq!(a, b, "step {i}");
            assert_eq!(whole.fine_tune_count(), split.fine_tune_count(), "step {i}");
        }
        assert!(adaptations > 0, "the interval drift owed adaptations");
        assert_eq!(whole.drift_times(), split.drift_times());
    }

    #[test]
    #[should_panic(expected = "begin_step called while an adaptation is owed")]
    fn begin_step_with_an_adaptation_owed_panics() {
        let mut det = interval_detector(Box::new(RegularInterval::new(5)));
        let series = smooth_series(30);
        for s in &series {
            if !det.begin_step(s) {
                continue;
            }
            let output = det.trunk.model.predict(&det.trunk.scratch);
            let _ = det.score_step(&output);
        }
    }

    #[test]
    #[should_panic(expected = "adapt without an owed adaptation")]
    fn adapt_without_an_owed_adaptation_panics() {
        make_detector(20).adapt();
    }

    #[test]
    #[should_panic(expected = "finish_step without a pending begin_step")]
    fn finish_step_without_begin_panics() {
        let mut det = make_detector(20);
        let _ = det.finish_step(&ModelOutput::Score(0.5));
    }

    #[test]
    #[should_panic(expected = "begin_step called twice")]
    fn double_begin_step_panics() {
        let mut det = make_detector(5);
        let series = smooth_series(10);
        for s in &series[..6] {
            det.step(s);
        }
        assert!(det.begin_step(&series[6]));
        let _ = det.begin_step(&series[7]);
    }

    #[test]
    #[should_panic(expected = "warm-up")]
    fn warmup_shorter_than_window_panics() {
        let config = DetectorConfig { window: 10, channels: 1, warmup: 5, initial_epochs: 1, fine_tune_epochs: 1 };
        let _ = Detector::new(
            config,
            Box::new(LastValueModel::default()),
            Box::new(SlidingWindowSet::new(5)),
            Box::new(MuSigmaChange::new()),
            Box::new(RawScore),
        );
    }
}
