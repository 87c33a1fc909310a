//! Property tests for folding histograms at export: no observation is
//! lost or double-counted when K per-shard (or per-detector) histograms
//! merge into one, and the fold does not depend on the merge order.

use proptest::collection;
use proptest::prelude::*;
use sad_obs::Histogram;

/// The shared bucket schema every part of a population records into.
fn scores() -> Histogram {
    Histogram::linear(0.0, 1.0, 16)
}

fn filled(values: &[f64]) -> Histogram {
    let mut h = scores();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Recorded-count == observed-count across a merge of per-shard
    /// histograms: the merged total count and bucket sum both equal the
    /// number of observations recorded across all shards, the merged sum
    /// is the sum of the observations, and the extrema are the extrema
    /// of the union.
    #[test]
    fn merge_preserves_every_observation(
        shards in collection::vec(collection::vec(0.0f64..1.5f64, 0..200), 1..6)
    ) {
        let mut merged = scores();
        let mut total_obs = 0u64;
        let mut sum = 0.0f64;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for values in &shards {
            merged.merge_from(&filled(values));
            for &v in values {
                total_obs += 1;
                sum += v;
                min = min.min(v);
                max = max.max(v);
            }
        }
        prop_assert_eq!(merged.count(), total_obs);
        prop_assert_eq!(merged.counts().iter().sum::<u64>(), total_obs);
        prop_assert!((merged.sum() - sum).abs() <= 1e-9 * (1.0 + sum.abs()));
        prop_assert_eq!(merged.min(), min);
        prop_assert_eq!(merged.max(), max);
    }

    /// Merging shard-by-shard equals merging in the other order — the
    /// fold is order-insensitive for bucket counts, count and extrema.
    #[test]
    fn merge_is_order_insensitive(
        a in collection::vec(0.0f64..1.0f64, 0..100),
        b in collection::vec(0.0f64..1.0f64, 0..100),
    ) {
        let (ha, hb) = (filled(&a), filled(&b));
        let mut ab = ha.clone();
        ab.merge_from(&hb);
        let mut ba = hb.clone();
        ba.merge_from(&ha);
        prop_assert_eq!(ab.counts(), ba.counts());
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert_eq!(ab.min(), ba.min());
        prop_assert_eq!(ab.max(), ba.max());
    }

    /// Histogram quantiles always land inside the observed [min, max] and
    /// are monotone in q, regardless of the sample.
    #[test]
    fn quantiles_stay_in_observed_range_and_are_monotone(
        values in collection::vec(0.0f64..4.0f64, 1..300)
    ) {
        let mut h = Histogram::log2(1e-3, 4.0);
        for &v in &values {
            h.record(v);
        }
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let est = h.quantile(q);
            prop_assert!(est >= h.min() && est <= h.max(),
                "quantile({}) = {} outside [{}, {}]", q, est, h.min(), h.max());
            prop_assert!(est >= prev, "quantile not monotone at q={}", q);
            prev = est;
        }
    }
}
