//! Anomaly scoring (paper Definition III.4 and §IV-E).
//!
//! An anomaly scoring function maps the window of the last `k`
//! nonconformity scores to the final anomaly score `f_t`. The paper
//! evaluates three: the raw pass-through, the window **average**, and the
//! Numenta **anomaly likelihood** `f_t = 1 − Q((μ̃_t − μ_t)/σ_t)` comparing
//! a short-term mean `μ̃` (window `k' ≪ k`) against the long-term mean `μ`.

use sad_stats::q_function;
use std::collections::VecDeque;

/// An anomaly scoring function `F` consuming one nonconformity score per
/// step and emitting the final anomaly score `f_t ∈ [0, 1]`.
pub trait AnomalyScorer: Send {
    /// Short name ("Raw", "Avg", "AL").
    fn name(&self) -> &'static str;

    /// Consumes `a_t`, returns `f_t`.
    fn update(&mut self, a_t: f64) -> f64;

    /// Clears accumulated state.
    fn reset(&mut self);

    /// Clones the scorer behind the trait object.
    fn clone_box(&self) -> Box<dyn AnomalyScorer>;
}

impl Clone for Box<dyn AnomalyScorer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A bank of independent anomaly scorers fed from one nonconformity
/// stream.
///
/// Definition III.4 makes the anomaly scoring function a pure
/// post-processing stage over `a_t`: scorers never feed back into the
/// nonconformity computation. A bank exploits that — the detector streams
/// the series **once** and every scorer replays its `a_t` trace, producing
/// one score trace per scorer from a single (expensive) detector pass.
/// Each scorer in the bank evolves exactly as it would in its own
/// detector, so the traces are bitwise identical to per-scorer runs
/// whenever the detector trajectory itself is scorer-independent (see
/// [`crate::TrainingSetStrategy::uses_anomaly_feedback`]).
#[derive(Clone, Default)]
pub struct ScorerBank {
    scorers: Vec<Box<dyn AnomalyScorer>>,
}

impl ScorerBank {
    /// Creates a bank over the given scorers (order is preserved).
    pub fn new(scorers: Vec<Box<dyn AnomalyScorer>>) -> Self {
        Self { scorers }
    }

    /// Number of scorers in the bank.
    pub fn len(&self) -> usize {
        self.scorers.len()
    }

    /// `true` when the bank holds no scorers.
    pub fn is_empty(&self) -> bool {
        self.scorers.is_empty()
    }

    /// Short names of the scorers, in bank order.
    pub fn names(&self) -> Vec<&'static str> {
        self.scorers.iter().map(|s| s.name()).collect()
    }

    /// Replays a packed nonconformity trace **scorer-major**: each scorer
    /// consumes the entire contiguous trace before the next one starts,
    /// returning one full score trace per scorer (bank order).
    ///
    /// Scorers are independent state machines over the `a_t` sequence, so
    /// scorer-major replay produces bit-for-bit the traces that feeding
    /// every scorer once per step would — while each scorer's state stays
    /// hot in cache and the trace is read as a contiguous streaming scan.
    /// This is the offline counterpart of the packed snapshot idiom: build
    /// the contiguous trace once, then sweep it.
    pub fn replay_packed(&mut self, trace: &[f64]) -> Vec<Vec<f64>> {
        self.scorers
            .iter_mut()
            .map(|s| trace.iter().map(|&a| s.update(a)).collect())
            .collect()
    }

    /// Resets every scorer in the bank.
    pub fn reset(&mut self) {
        for s in &mut self.scorers {
            s.reset();
        }
    }
}

impl std::fmt::Debug for ScorerBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScorerBank").field("scorers", &self.names()).finish()
    }
}

/// The raw nonconformity score, unmodified (the paper's "Raw" baseline row
/// in Table III).
#[derive(Debug, Clone, Default)]
pub struct RawScore;

impl AnomalyScorer for RawScore {
    fn name(&self) -> &'static str {
        "Raw"
    }

    fn update(&mut self, a_t: f64) -> f64 {
        a_t
    }

    fn reset(&mut self) {}

    fn clone_box(&self) -> Box<dyn AnomalyScorer> {
        Box::new(self.clone())
    }
}

/// Moving average over the last `k` nonconformity scores.
#[derive(Debug, Clone)]
pub struct MovingAverage {
    k: usize,
    buf: VecDeque<f64>,
    sum: f64,
}

impl MovingAverage {
    /// Creates an averager over window `k`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "window length must be positive");
        Self { k, buf: VecDeque::with_capacity(k), sum: 0.0 }
    }
}

impl AnomalyScorer for MovingAverage {
    fn name(&self) -> &'static str {
        "Avg"
    }

    fn update(&mut self, a_t: f64) -> f64 {
        if self.buf.len() == self.k {
            self.sum -= self.buf.pop_front().expect("non-empty at capacity");
        }
        self.buf.push_back(a_t);
        self.sum += a_t;
        (self.sum / self.buf.len() as f64).clamp(0.0, 1.0)
    }

    fn reset(&mut self) {
        self.buf.clear();
        self.sum = 0.0;
    }

    fn clone_box(&self) -> Box<dyn AnomalyScorer> {
        Box::new(self.clone())
    }
}

/// The Numenta anomaly likelihood (Lavin & Ahmad 2015, as adopted in §IV-E).
///
/// `f_t = 1 − Q((μ̃_t − μ_t)/σ_t)` with `μ_t, σ_t` over the long window `k`
/// and `μ̃_t` over the short window `k'`. A short-term mean above the
/// long-term mean pushes the likelihood toward 1.
#[derive(Debug, Clone)]
pub struct AnomalyLikelihood {
    k: usize,
    k_short: usize,
    buf: VecDeque<f64>,
}

impl AnomalyLikelihood {
    /// σ floor preventing division blow-ups on constant score streams.
    const SIGMA_FLOOR: f64 = 1e-6;

    /// Creates the scorer with long window `k` and short window `k_short`
    /// (`k_short < k` as the paper requires `k' ≪ k`).
    pub fn new(k: usize, k_short: usize) -> Self {
        assert!(k_short >= 1 && k_short < k, "need 1 <= k' < k");
        Self { k, k_short, buf: VecDeque::with_capacity(k) }
    }
}

impl AnomalyScorer for AnomalyLikelihood {
    fn name(&self) -> &'static str {
        "AL"
    }

    fn update(&mut self, a_t: f64) -> f64 {
        if self.buf.len() == self.k {
            self.buf.pop_front();
        }
        self.buf.push_back(a_t);
        let n = self.buf.len();
        let mu: f64 = self.buf.iter().sum::<f64>() / n as f64;
        let var: f64 = self.buf.iter().map(|v| (v - mu) * (v - mu)).sum::<f64>() / n as f64;
        let sigma = var.sqrt().max(Self::SIGMA_FLOOR);
        let short_n = self.k_short.min(n);
        let mu_short: f64 =
            self.buf.iter().rev().take(short_n).sum::<f64>() / short_n as f64;
        1.0 - q_function((mu_short - mu) / sigma)
    }

    fn reset(&mut self) {
        self.buf.clear();
    }

    fn clone_box(&self) -> Box<dyn AnomalyScorer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_is_identity() {
        let mut s = RawScore;
        assert_eq!(s.update(0.37), 0.37);
        assert_eq!(s.update(0.0), 0.0);
    }

    #[test]
    fn moving_average_known_sequence() {
        let mut s = MovingAverage::new(3);
        assert!((s.update(0.3) - 0.3).abs() < 1e-12);
        assert!((s.update(0.6) - 0.45).abs() < 1e-12);
        assert!((s.update(0.9) - 0.6).abs() < 1e-12);
        // Window slides: (0.6 + 0.9 + 0.0) / 3
        assert!((s.update(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn moving_average_smooths_spikes() {
        let mut s = MovingAverage::new(10);
        for _ in 0..10 {
            s.update(0.1);
        }
        let spiked = s.update(1.0);
        assert!(spiked < 0.3, "single spike is damped, got {spiked}");
    }

    #[test]
    fn likelihood_spikes_on_score_jump() {
        let mut s = AnomalyLikelihood::new(50, 5);
        let mut last = 0.0;
        for _ in 0..50 {
            last = s.update(0.1 + 0.001 * (last - 0.1)); // ~constant baseline
        }
        let baseline = s.update(0.1);
        // Five high scores lift the short-term mean well above μ.
        let mut spiked = 0.0;
        for _ in 0..5 {
            spiked = s.update(0.9);
        }
        assert!(spiked > 0.9, "jump must push likelihood toward 1, got {spiked}");
        assert!(baseline < 0.8, "baseline likelihood moderate, got {baseline}");
    }

    #[test]
    fn likelihood_constant_stream_is_midscale() {
        let mut s = AnomalyLikelihood::new(20, 3);
        let mut f = 0.0;
        for _ in 0..40 {
            f = s.update(0.5);
        }
        // μ̃ == μ on a constant stream -> Q(0) = 0.5.
        assert!((f - 0.5).abs() < 1e-6, "got {f}");
    }

    #[test]
    fn likelihood_in_unit_interval() {
        let mut s = AnomalyLikelihood::new(10, 2);
        for i in 0..200 {
            let a = ((i * 37) % 100) as f64 / 100.0;
            let f = s.update(a);
            assert!((0.0..=1.0).contains(&f), "f={f}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut s = MovingAverage::new(3);
        s.update(0.9);
        s.reset();
        assert!((s.update(0.3) - 0.3).abs() < 1e-12);

        let mut al = AnomalyLikelihood::new(5, 2);
        al.update(0.9);
        al.reset();
        let f = al.update(0.1);
        assert!((f - 0.5).abs() < 1e-6, "single sample => μ̃ == μ, got {f}");
    }

    #[test]
    #[should_panic(expected = "need 1 <= k' < k")]
    fn bad_likelihood_windows_panic() {
        let _ = AnomalyLikelihood::new(5, 5);
    }

    #[test]
    fn bank_matches_independent_scorers_bitwise() {
        let mut bank = ScorerBank::new(vec![
            Box::new(RawScore),
            Box::new(MovingAverage::new(7)),
            Box::new(AnomalyLikelihood::new(20, 4)),
        ]);
        let mut raw = RawScore;
        let mut avg = MovingAverage::new(7);
        let mut al = AnomalyLikelihood::new(20, 4);
        let trace: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64 / 100.0).collect();
        let out = bank.replay_packed(&trace);
        assert_eq!(out.len(), 3);
        for (i, &a) in trace.iter().enumerate() {
            assert_eq!(out[0][i].to_bits(), raw.update(a).to_bits());
            assert_eq!(out[1][i].to_bits(), avg.update(a).to_bits());
            assert_eq!(out[2][i].to_bits(), al.update(a).to_bits());
        }
    }

    #[test]
    fn bank_reset_and_names() {
        let mut bank =
            ScorerBank::new(vec![Box::new(MovingAverage::new(3)), Box::new(RawScore)]);
        assert_eq!(bank.names(), vec!["Avg", "Raw"]);
        assert_eq!(bank.len(), 2);
        assert!(!bank.is_empty());
        bank.replay_packed(&[0.9]);
        bank.reset();
        let out = bank.replay_packed(&[0.3]);
        // After reset the moving average starts over: a single sample.
        assert!((out[0][0] - 0.3).abs() < 1e-12);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// All scorers map [0,1] nonconformities into [0,1] scores.
            #[test]
            fn outputs_in_unit_interval(
                scores in proptest::collection::vec(0.0f64..=1.0, 1..200),
                which in 0u8..3,
            ) {
                let mut scorer: Box<dyn AnomalyScorer> = match which {
                    0 => Box::new(RawScore),
                    1 => Box::new(MovingAverage::new(10)),
                    _ => Box::new(AnomalyLikelihood::new(20, 4)),
                };
                for &a in &scores {
                    let f = scorer.update(a);
                    prop_assert!((0.0..=1.0).contains(&f), "f={}", f);
                }
            }
        }
    }
}
