//! # sad-core
//!
//! The extended SAFARI framework for multivariate streaming anomaly
//! detection — the primary contribution of the reproduced paper.
//!
//! The framework decomposes every streaming detector into four components
//! (paper §III):
//!
//! 1. **Data representation** `x_t = D(s_{t−w+1}, …, s_t)` — [`repr`]. The
//!    paper uses exactly one representation, the raw window of the last `w`
//!    stream vectors.
//! 2. **Learning strategy** `θ_t = L(x_t, θ_{t−1})` over reference
//!    parameters `θ = {θ_model, R_train}`, split into
//!    * **Task 1** — maintaining the training set `R_train`: sliding window
//!      (SW), uniform reservoir (URES), anomaly-aware reservoir (ARES) —
//!      [`strategy`];
//!    * **Task 2** — deciding when to fine-tune `θ_model`: regular
//!      interval, μ/σ-Change, KSWIN — [`drift`].
//! 3. **Nonconformity measure** `a_t = A(x_t, θ_t)` — [`mod@nonconformity`]:
//!    cosine-similarity-based for reconstruction/forecast models, the
//!    native isolation-forest score for PCB-iForest.
//! 4. **Anomaly scoring** `f_t = F(a_{t−k+1}, …, a_t)` — [`score`]: raw
//!    pass-through, moving average, and the Numenta anomaly likelihood.
//!
//! [`detector::Detector`] wires the four components plus a [`model`] into
//! the streaming pipeline, and [`registry`] enumerates the paper's Table I —
//! the 26 evaluated component combinations.

pub mod detector;
pub mod drift;
pub mod model;
pub mod nonconformity;
pub mod registry;
pub mod repr;
pub mod score;
pub mod strategy;

pub use detector::{
    register_lifecycle, Detector, DetectorConfig, FanoutRun, SharedWarmup, StepOutput,
};
pub use drift::{DriftDetector, KswinDetector, MuSigmaChange, RegularInterval};
/// The tally [`DriftDetector::ops`] returns, so a drift detector can be
/// written against this crate alone.
pub use sad_stats::OpCount;
pub use model::{ModelOutput, StreamModel};
pub use nonconformity::{nonconformity, NonconformityKind};
pub use registry::{paper_algorithms, AlgorithmSpec, ModelKind, ScoreKind, Task1, Task2};
pub use repr::{DataRepresentation, FeatureVector, RawWindow};
pub use score::{AnomalyLikelihood, AnomalyScorer, MovingAverage, RawScore, ScorerBank};
pub use strategy::{
    AnomalyAwareReservoir, SetUpdate, SlidingWindowSet, TrainingSetStrategy, UniformReservoir,
};
