//! `KswinDetector` against the per-element algorithm it replaces: sorted
//! arrays kept by a binary search per value, a merge walk over them at
//! every test, and no reuse of a verdict. Random streams (ties, ±0,
//! subnormals, ±∞ and NaNs) through SW, URES and ARES training sets, at
//! strides 1–5, must give the same verdict at every step, the same `ops()`
//! and the same `removal_misses()`.

#[path = "../../stats/tests/per_element/mod.rs"]
mod per_element;

use proptest::prelude::*;
use sad_core::{
    AnomalyAwareReservoir, DriftDetector, FeatureVector, KswinDetector, OpCount, SetUpdate,
    SlidingWindowSet, TrainingSetStrategy, UniformReservoir,
};
use sad_stats::ks_critical_value;

/// The per-element KSWIN detector.
struct Reference {
    alpha: f64,
    stride: usize,
    since_check: usize,
    snapshot: Vec<Vec<f64>>,
    current: Vec<Vec<f64>>,
    ops: OpCount,
    removal_misses: u64,
}

impl Reference {
    fn new(alpha: f64, stride: usize) -> Self {
        Self {
            alpha,
            stride,
            since_check: 0,
            snapshot: Vec::new(),
            current: Vec::new(),
            ops: OpCount::default(),
            removal_misses: 0,
        }
    }

    fn observe(&mut self, x: &FeatureVector, update: &SetUpdate) -> bool {
        if self.current.len() != x.n() {
            self.current = vec![Vec::new(); x.n()];
        }
        if let SetUpdate::Replaced { removed } = update {
            for (j, channel) in self.current.iter_mut().enumerate() {
                for v in removed.channel_iter(j) {
                    let found = per_element::remove(channel, v, &mut self.ops);
                    self.removal_misses += u64::from(!found);
                }
            }
        }
        if !matches!(update, SetUpdate::Unchanged) {
            for (j, channel) in self.current.iter_mut().enumerate() {
                for v in x.channel_iter(j) {
                    per_element::insert(channel, v, &mut self.ops);
                }
            }
        }
        if self.snapshot.is_empty() {
            return false;
        }
        self.since_check += 1;
        if self.since_check < self.stride {
            return false;
        }
        self.since_check = 0;
        for (snap, cur) in self.snapshot.iter().zip(&self.current) {
            if snap.is_empty() || cur.is_empty() {
                continue;
            }
            let dist = per_element::statistic(snap, cur, &mut self.ops);
            let alpha_star = (self.alpha / cur.len() as f64).max(f64::MIN_POSITIVE);
            let critical = ks_critical_value(alpha_star, snap.len(), cur.len());
            self.ops.comparisons += 1;
            if dist > critical {
                return true;
            }
        }
        false
    }

    fn on_fine_tune(&mut self) {
        self.snapshot = self.current.clone();
        self.since_check = 0;
    }
}

/// Drives both detectors through one training-set strategy over the
/// windows of `values` (`n` channels, window `w`), fine-tuning once the
/// set first holds `m` vectors and after every drift, and compares them
/// after every step.
fn check(
    strat: &mut dyn TrainingSetStrategy,
    values: &[f64],
    scores: &[f64],
    (w, n, m, stride): (usize, usize, usize, usize),
) -> Result<(), TestCaseError> {
    let mut det = KswinDetector::with_stride(0.01, stride);
    let mut reference = Reference::new(0.01, stride);
    let steps = values.len() / n;
    let mut tuned = false;
    for t in w - 1..steps {
        let x = FeatureVector::new(values[(t + 1 - w) * n..(t + 1) * n].to_vec(), w, n);
        let update = strat.update(&x, scores[t % scores.len()]);
        let got = det.observe(&x, &update, strat.training_set());
        let want = reference.observe(&x, &update);
        prop_assert_eq!(got, want, "verdict at t = {}", t);
        prop_assert_eq!(det.ops(), reference.ops, "ops at t = {}", t);
        prop_assert_eq!(det.removal_misses(), reference.removal_misses, "misses at t = {}", t);
        if got || (!tuned && strat.training_set().len() == m) {
            tuned = true;
            det.on_fine_tune(strat.training_set());
            reference.on_fine_tune();
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    #[test]
    fn kswin_matches_the_per_element_detector(
        draws in collection::vec(0u32..1 << 20, 40..240),
        scores in collection::vec(0.0f64..1.0, 1..40),
        w in 1usize..5,
        n in 1usize..4,
        m in 1usize..7,
        stride in 1usize..6,
        kind in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let values: Vec<f64> = draws.iter().map(|&k| per_element::pooled_value(k)).collect();
        let mut strat: Box<dyn TrainingSetStrategy> = match kind {
            0 => Box::new(SlidingWindowSet::new(m)),
            1 => Box::new(UniformReservoir::new(m, seed)),
            _ => Box::new(AnomalyAwareReservoir::new(m, seed)),
        };
        check(strat.as_mut(), &values, &scores, (w, n, m, stride))?;
    }
}
