//! Learning strategy Task 1: maintaining the training set (paper §IV-B).
//!
//! The training set `R_train` is the feature-vector half of the reference
//! parameters `θ = {θ_model, R_train}`. Three maintenance strategies from
//! SAFARI apply unchanged:
//!
//! * **Sliding window (SW)** — keep the `m` most recent feature vectors;
//! * **Uniform reservoir (URES)** — classic reservoir sampling: once full,
//!   admit `x_t` with probability `m/t` and evict a uniformly random
//!   resident;
//! * **Anomaly-aware reservoir (ARES)** — priority sampling biased toward
//!   "normal" vectors: `p_t = u^{λ₁ / exp(−λ₂ f_t)}` with `u ∈ [0.7, 0.9]`
//!   and `λ₁ = λ₂ = 3` (the paper's restricted parameterization); `x_t`
//!   replaces the lowest-priority resident whose priority falls below
//!   `p_t`.
//!
//! Every update reports a [`SetUpdate`] carrying the evicted vector, which
//! is what lets the μ/σ-Change drift detector maintain its running mean in
//! `O(Nw)` per step instead of rescanning the whole set.

use crate::repr::FeatureVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The effect one stream step had on the training set.
#[derive(Debug, Clone, PartialEq)]
pub enum SetUpdate {
    /// `x_t` was appended (set still growing).
    Appended,
    /// `x_t` replaced `removed`.
    Replaced {
        /// The evicted feature vector.
        removed: FeatureVector,
    },
    /// The set was left unchanged (`x_t` rejected).
    Unchanged,
}

/// A Task-1 learning strategy: decides how and when the training set is
/// updated (paper §IV-B, Task 1).
pub trait TrainingSetStrategy: Send {
    /// Short name matching the paper's Table I ("SW", "URES", "ARES").
    fn name(&self) -> &'static str;

    /// Offers `x_t` (with its anomaly score `f_t`) to the training set.
    fn update(&mut self, x: &FeatureVector, anomaly_score: f64) -> SetUpdate;

    /// Whether [`Self::update`] actually reads the anomaly score `f_t`.
    ///
    /// Strategies that ignore `f_t` (sliding window, uniform reservoir)
    /// make the whole detector trajectory — model, training set, drift
    /// triggers, fine-tunes, nonconformity stream — independent of the
    /// anomaly scoring function, which is what lets the evaluation
    /// harness replay one detector pass through a [`crate::ScorerBank`] and
    /// reproduce every per-scorer run bitwise from a single stream.
    /// Defaults to `true` (the conservative answer).
    fn uses_anomaly_feedback(&self) -> bool {
        true
    }

    /// Hands an evicted feature vector back to the strategy for reuse.
    ///
    /// The detector hot loop calls this with the `Replaced.removed` buffer
    /// once the drift detector is done reading it; strategies keep it as a
    /// spare and overwrite it on the next insertion instead of cloning
    /// `x_t`, making the steady-state update allocation-free. Purely an
    /// optimization: dropping the buffer (the default) is always correct.
    fn recycle(&mut self, _spare: FeatureVector) {}

    /// The current training set (order unspecified).
    fn training_set(&self) -> &[FeatureVector];

    /// Maximum training-set size `m`.
    fn capacity(&self) -> usize;

    /// Number of vectors currently held.
    fn len(&self) -> usize {
        self.training_set().len()
    }

    /// `true` while the set is still filling.
    fn is_empty(&self) -> bool {
        self.training_set().is_empty()
    }

    /// Clones the strategy behind the trait object.
    fn clone_box(&self) -> Box<dyn TrainingSetStrategy>;
}

impl Clone for Box<dyn TrainingSetStrategy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Materializes `x` into a recycled spare buffer when one with the right
/// shape is available, cloning only as a fallback. The stored values are
/// identical either way, so reuse cannot perturb the trajectory.
fn store(spare: &mut Option<FeatureVector>, x: &FeatureVector) -> FeatureVector {
    match spare.take() {
        Some(mut buf) if buf.w() == x.w() && buf.n() == x.n() => {
            buf.copy_from(x);
            buf
        }
        _ => x.clone(),
    }
}

/// Sliding window: keep the `m` most recent feature vectors.
#[derive(Debug, Clone)]
pub struct SlidingWindowSet {
    m: usize,
    // A Vec-based ring (index of oldest) keeps `training_set()` borrowable
    // as a contiguous slice, which the trait requires.
    set: Vec<FeatureVector>,
    next: usize,
    spare: Option<FeatureVector>,
}

impl SlidingWindowSet {
    /// Creates a sliding window of capacity `m`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "training-set capacity must be positive");
        Self { m, set: Vec::with_capacity(m), next: 0, spare: None }
    }
}

impl TrainingSetStrategy for SlidingWindowSet {
    fn name(&self) -> &'static str {
        "SW"
    }

    fn update(&mut self, x: &FeatureVector, _anomaly_score: f64) -> SetUpdate {
        let stored = store(&mut self.spare, x);
        if self.set.len() < self.m {
            self.set.push(stored);
            return SetUpdate::Appended;
        }
        let removed = std::mem::replace(&mut self.set[self.next], stored);
        self.next = (self.next + 1) % self.m;
        SetUpdate::Replaced { removed }
    }

    fn uses_anomaly_feedback(&self) -> bool {
        false
    }

    fn recycle(&mut self, spare: FeatureVector) {
        self.spare = Some(spare);
    }

    fn training_set(&self) -> &[FeatureVector] {
        &self.set
    }

    fn capacity(&self) -> usize {
        self.m
    }

    fn clone_box(&self) -> Box<dyn TrainingSetStrategy> {
        Box::new(self.clone())
    }
}

/// Uniform reservoir sampling (Vitter's algorithm R shape, as in SAFARI).
#[derive(Debug, Clone)]
pub struct UniformReservoir {
    m: usize,
    t: u64,
    set: Vec<FeatureVector>,
    rng: StdRng,
    spare: Option<FeatureVector>,
}

impl UniformReservoir {
    /// Creates a reservoir of capacity `m` with a deterministic seed.
    pub fn new(m: usize, seed: u64) -> Self {
        assert!(m > 0, "training-set capacity must be positive");
        Self { m, t: 0, set: Vec::with_capacity(m), rng: StdRng::seed_from_u64(seed), spare: None }
    }
}

impl TrainingSetStrategy for UniformReservoir {
    fn name(&self) -> &'static str {
        "URES"
    }

    fn update(&mut self, x: &FeatureVector, _anomaly_score: f64) -> SetUpdate {
        self.t += 1;
        if self.set.len() < self.m {
            self.set.push(store(&mut self.spare, x));
            return SetUpdate::Appended;
        }
        let p: f64 = self.rng.random_range(0.0..1.0);
        if p < self.m as f64 / self.t as f64 {
            let victim = self.rng.random_range(0..self.m);
            let removed = std::mem::replace(&mut self.set[victim], store(&mut self.spare, x));
            SetUpdate::Replaced { removed }
        } else {
            SetUpdate::Unchanged
        }
    }

    fn uses_anomaly_feedback(&self) -> bool {
        false
    }

    fn recycle(&mut self, spare: FeatureVector) {
        self.spare = Some(spare);
    }

    fn training_set(&self) -> &[FeatureVector] {
        &self.set
    }

    fn capacity(&self) -> usize {
        self.m
    }

    fn clone_box(&self) -> Box<dyn TrainingSetStrategy> {
        Box::new(self.clone())
    }
}

/// Anomaly-aware reservoir: retain the most "normal" feature vectors.
#[derive(Debug, Clone)]
pub struct AnomalyAwareReservoir {
    m: usize,
    set: Vec<FeatureVector>,
    priorities: Vec<f64>,
    rng: StdRng,
    lambda1: f64,
    lambda2: f64,
    u_lo: f64,
    u_hi: f64,
    spare: Option<FeatureVector>,
}

impl AnomalyAwareReservoir {
    /// Creates an ARES reservoir with the paper's restricted parameters
    /// `u ∈ [0.7, 0.9]`, `λ₁ = λ₂ = 3`.
    pub fn new(m: usize, seed: u64) -> Self {
        Self::with_params(m, seed, 3.0, 3.0, 0.7, 0.9)
    }

    /// Fully parameterized constructor (`λ₁, λ₂ > 0`, `0 < u_lo < u_hi < 1`).
    pub fn with_params(m: usize, seed: u64, lambda1: f64, lambda2: f64, u_lo: f64, u_hi: f64) -> Self {
        assert!(m > 0, "training-set capacity must be positive");
        assert!(lambda1 > 0.0 && lambda2 > 0.0, "lambdas must be positive");
        assert!(0.0 < u_lo && u_lo < u_hi && u_hi < 1.0, "u range must satisfy 0 < lo < hi < 1");
        Self {
            m,
            set: Vec::with_capacity(m),
            priorities: Vec::with_capacity(m),
            rng: StdRng::seed_from_u64(seed),
            lambda1,
            lambda2,
            u_lo,
            u_hi,
            spare: None,
        }
    }

    /// The paper's priority function `p_t = u^{λ₁ / exp(−λ₂ f_t)}`.
    ///
    /// Monotonically decreasing in `f_t` (for `u < 1`): more anomalous
    /// vectors get lower priority and are evicted first, while the random
    /// base `u` keeps the reservoir from freezing onto a fixed set.
    fn priority(&mut self, anomaly_score: f64) -> f64 {
        let u: f64 = self.rng.random_range(self.u_lo..self.u_hi);
        let exponent = self.lambda1 / (-self.lambda2 * anomaly_score).exp();
        u.powf(exponent)
    }

    /// Index of the resident implementing the paper's helper
    /// `c(ps, p_t) = argmin_{p_j} {p ∈ ps | p < p_t}` — the lowest priority
    /// strictly below `p_t` — or `None` if every resident outranks `x_t`.
    fn eviction_candidate(&self, p_t: f64) -> Option<usize> {
        let (idx, &p_min) = self
            .priorities
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))?;
        (p_min < p_t).then_some(idx)
    }
}

impl TrainingSetStrategy for AnomalyAwareReservoir {
    fn name(&self) -> &'static str {
        "ARES"
    }

    fn update(&mut self, x: &FeatureVector, anomaly_score: f64) -> SetUpdate {
        let p_t = self.priority(anomaly_score);
        if self.set.len() < self.m {
            self.set.push(store(&mut self.spare, x));
            self.priorities.push(p_t);
            return SetUpdate::Appended;
        }
        match self.eviction_candidate(p_t) {
            Some(idx) => {
                let removed = std::mem::replace(&mut self.set[idx], store(&mut self.spare, x));
                self.priorities[idx] = p_t;
                SetUpdate::Replaced { removed }
            }
            None => SetUpdate::Unchanged,
        }
    }

    fn recycle(&mut self, spare: FeatureVector) {
        self.spare = Some(spare);
    }

    /// ARES priorities are a function of `f_t`, so the detector trajectory
    /// genuinely depends on the anomaly scorer: the shared-pass fan-out
    /// must not reuse one stream across scorers here (warm-up sharing is
    /// still sound — `f_t = 0` for every warm-up step).
    fn uses_anomaly_feedback(&self) -> bool {
        true
    }

    fn training_set(&self) -> &[FeatureVector] {
        &self.set
    }

    fn capacity(&self) -> usize {
        self.m
    }

    fn clone_box(&self) -> Box<dyn TrainingSetStrategy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(v: f64) -> FeatureVector {
        FeatureVector::new(vec![v, v + 0.5], 2, 1)
    }

    #[test]
    fn sliding_window_keeps_most_recent() {
        let mut sw = SlidingWindowSet::new(3);
        for i in 0..5 {
            sw.update(&fv(i as f64), 0.0);
        }
        let values: Vec<f64> = sw.training_set().iter().map(|x| x.as_slice()[0]).collect();
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted, vec![2.0, 3.0, 4.0]);
        assert_eq!(sw.len(), 3);
    }

    #[test]
    fn sliding_window_reports_evictions_in_fifo_order() {
        let mut sw = SlidingWindowSet::new(2);
        assert_eq!(sw.update(&fv(0.0), 0.0), SetUpdate::Appended);
        assert_eq!(sw.update(&fv(1.0), 0.0), SetUpdate::Appended);
        match sw.update(&fv(2.0), 0.0) {
            SetUpdate::Replaced { removed } => assert_eq!(removed.as_slice()[0], 0.0),
            other => panic!("expected replacement, got {other:?}"),
        }
        match sw.update(&fv(3.0), 0.0) {
            SetUpdate::Replaced { removed } => assert_eq!(removed.as_slice()[0], 1.0),
            other => panic!("expected replacement, got {other:?}"),
        }
    }

    #[test]
    fn uniform_reservoir_never_exceeds_capacity() {
        let mut ures = UniformReservoir::new(10, 42);
        for i in 0..500 {
            ures.update(&fv(i as f64), 0.0);
            assert!(ures.len() <= 10);
        }
        assert_eq!(ures.len(), 10);
    }

    #[test]
    fn uniform_reservoir_admission_rate_decays() {
        // After t >> m, the admission probability is m/t; over the stream the
        // expected number of replacements is m * (H_T - H_m) ≈ m ln(T/m).
        let mut ures = UniformReservoir::new(20, 7);
        let mut replacements = 0;
        for i in 0..2000 {
            if let SetUpdate::Replaced { .. } = ures.update(&fv(i as f64), 0.0) {
                replacements += 1;
            }
        }
        let expected = 20.0 * (2000.0f64 / 20.0).ln(); // ≈ 92
        assert!(
            (replacements as f64) > expected * 0.5 && (replacements as f64) < expected * 2.0,
            "replacements {replacements}, expected ≈ {expected}"
        );
    }

    #[test]
    fn ares_priority_is_monotone_in_anomaly_score() {
        let mut ares = AnomalyAwareReservoir::new(5, 1);
        // Average priorities over many draws to smooth the random base u.
        let avg = |ares: &mut AnomalyAwareReservoir, f: f64| -> f64 {
            (0..200).map(|_| ares.priority(f)).sum::<f64>() / 200.0
        };
        let p_normal = avg(&mut ares, 0.0);
        let p_mid = avg(&mut ares, 0.5);
        let p_anom = avg(&mut ares, 1.0);
        assert!(p_normal > p_mid && p_mid > p_anom, "{p_normal} > {p_mid} > {p_anom}");
    }

    #[test]
    fn ares_keeps_normal_vectors() {
        let mut ares = AnomalyAwareReservoir::new(10, 3);
        // Fill with normal vectors, then offer anomalous ones: the reservoir
        // should mostly reject them (their priority is lower than residents').
        for i in 0..10 {
            ares.update(&fv(i as f64), 0.0);
        }
        let mut rejected = 0;
        for i in 0..100 {
            if let SetUpdate::Unchanged = ares.update(&fv(100.0 + i as f64), 1.0) {
                rejected += 1;
            }
        }
        assert!(rejected > 60, "anomalous vectors mostly rejected, got {rejected}/100");
    }

    #[test]
    fn ares_admits_normal_over_anomalous_residents() {
        let mut ares = AnomalyAwareReservoir::new(5, 9);
        // Fill with anomalous vectors (low priority)...
        for i in 0..5 {
            ares.update(&fv(i as f64), 1.0);
        }
        // ...then normal vectors must displace them: anomalous priorities are
        // u^{3e³} ≈ 0 while normal ones are u³ ∈ [0.34, 0.73], so the first
        // five normal offers evict all five anomalous residents.
        for i in 0..5 {
            match ares.update(&fv(50.0 + i as f64), 0.0) {
                SetUpdate::Replaced { .. } => {}
                other => panic!("normal vector {i} should displace an anomalous resident, got {other:?}"),
            }
        }
    }

    #[test]
    fn ares_capacity_invariant() {
        let mut ares = AnomalyAwareReservoir::new(8, 5);
        for i in 0..300 {
            ares.update(&fv(i as f64), (i % 3) as f64 / 2.0);
            assert!(ares.len() <= 8);
            assert_eq!(ares.priorities.len(), ares.set.len());
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SlidingWindowSet::new(0);
    }

    /// Recycling evicted buffers must be invisible: a strategy whose
    /// `Replaced` buffers are handed back produces the exact same update
    /// stream and training set as one that lets them drop.
    #[test]
    fn recycle_is_bitwise_transparent() {
        let make = |which: u8| -> Box<dyn TrainingSetStrategy> {
            match which {
                0 => Box::new(SlidingWindowSet::new(7)),
                1 => Box::new(UniformReservoir::new(7, 99)),
                _ => Box::new(AnomalyAwareReservoir::new(7, 99)),
            }
        };
        for which in 0..3u8 {
            let mut recycled = make(which);
            let mut plain = make(which);
            for i in 0..120 {
                let x = fv(i as f64 * 0.31);
                let f = ((i * 13) % 10) as f64 / 10.0;
                let a = recycled.update(&x, f);
                let b = plain.update(&x, f);
                assert_eq!(a, b, "strategy {which}, step {i}");
                if let SetUpdate::Replaced { removed } = a {
                    recycled.recycle(removed);
                }
            }
            assert_eq!(recycled.len(), plain.len());
            for (a, b) in recycled.training_set().iter().zip(plain.training_set()) {
                assert_eq!(a.as_slice(), b.as_slice(), "strategy {which}");
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// No strategy ever exceeds its capacity, and the update report
            /// is consistent with the set size change.
            #[test]
            fn capacity_and_report_consistency(
                m in 1usize..20,
                scores in proptest::collection::vec(0.0f64..1.0, 1..100),
                which in 0u8..3,
            ) {
                let mut strategy: Box<dyn TrainingSetStrategy> = match which {
                    0 => Box::new(SlidingWindowSet::new(m)),
                    1 => Box::new(UniformReservoir::new(m, 11)),
                    _ => Box::new(AnomalyAwareReservoir::new(m, 11)),
                };
                for (i, &f) in scores.iter().enumerate() {
                    let before = strategy.len();
                    let update = strategy.update(&fv(i as f64), f);
                    let after = strategy.len();
                    prop_assert!(after <= m);
                    match update {
                        SetUpdate::Appended => prop_assert_eq!(after, before + 1),
                        SetUpdate::Replaced { .. } | SetUpdate::Unchanged => {
                            prop_assert_eq!(after, before)
                        }
                    }
                }
            }

            /// Priorities stay within (0, 1) for all anomaly scores.
            #[test]
            fn ares_priority_in_unit_interval(f in 0.0f64..1.0) {
                let mut ares = AnomalyAwareReservoir::new(3, 2);
                let p = ares.priority(f);
                prop_assert!(p > 0.0 && p < 1.0);
            }
        }
    }
}
