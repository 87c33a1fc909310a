//! The run multisets against the per-element algorithm they replace: the
//! run walk gives the per-element walk's statistic bits and operation
//! tallies, and a run update the per-element inserts' and removals'
//! multiset, misses and tallies, over NaN, ±0, subnormals, ±∞ and ties.

mod per_element;

use proptest::prelude::*;
use sad_stats::{ks_statistic, ks_statistic_runs, OpCount, RunMultiset};

fn values(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    collection::vec((0u32..1 << 20).prop_map(per_element::pooled_value), len)
}

/// Same length, and pairwise equal under `==` or both NaN.
fn same_elements(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y || (x.is_nan() && y.is_nan()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2_000, ..ProptestConfig::default() })]

    #[test]
    fn run_walk_matches_the_per_element_walk(a in values(0..70), b in values(0..70)) {
        let (mut sa, mut sb) = (a.clone(), b.clone());
        per_element::sort_nan_last(&mut sa);
        per_element::sort_nan_last(&mut sb);
        let mut want_ops = OpCount::default();
        let want = per_element::statistic(&sa, &sb, &mut want_ops);

        let mut got_ops = OpCount::default();
        let (ra, rb) = (RunMultiset::from_values(&a), RunMultiset::from_values(&b));
        let got = ks_statistic_runs(&ra, &rb, Some(&mut got_ops));
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} vs {:?}", sa, sb);
        prop_assert_eq!(got_ops, want_ops);
        // The slice form adds only its sort charge.
        let mut slice_ops = OpCount::default();
        prop_assert_eq!(ks_statistic(&a, &b, Some(&mut slice_ops)).to_bits(), want.to_bits());
        prop_assert_eq!(slice_ops.additions, want_ops.additions);
        prop_assert!(slice_ops.comparisons >= want_ops.comparisons);
    }

    /// Random updates: removals of present elements, of values that may be
    /// absent, and inserts. An absent value is never a NaN: the runs count
    /// NaNs without their payloads, so a removal of a NaN whose bits are
    /// not present, which no Task-1 strategy asks for, would take one.
    #[test]
    fn run_updates_match_per_element_updates(
        init in values(0..40),
        picks in collection::vec(collection::vec(0u32..1 << 20, 0..10), 1..12),
        inserts in collection::vec(values(0..10), 12),
    ) {
        let mut array = Vec::new();
        let mut want_ops = OpCount::default();
        for &v in &init {
            per_element::insert(&mut array, v, &mut want_ops);
        }
        let mut runs = RunMultiset::default();
        let mut got_ops = OpCount::default();
        prop_assert_eq!(runs.update([], init.iter().copied(), &mut got_ops), 0);
        prop_assert_eq!(got_ops, want_ops);

        for (step, pick) in picks.iter().enumerate() {
            // A present element is removed at most as often as it occurs,
            // as a Task-1 strategy removes only what it inserted.
            let mut present = array.clone();
            let removals: Vec<f64> = pick
                .iter()
                .map(|&k| match (k % 3, present.len()) {
                    (0, _) | (_, 0) => {
                        let v = per_element::pooled_value(k);
                        if v.is_nan() { 1.5 } else { v }
                    }
                    (_, len) => present.remove(k as usize % len),
                })
                .collect();
            let mut want_misses = 0;
            for &v in &removals {
                want_misses += u64::from(!per_element::remove(&mut array, v, &mut want_ops));
            }
            for &v in &inserts[step] {
                per_element::insert(&mut array, v, &mut want_ops);
            }
            let misses = runs.update(removals.iter().copied(), inserts[step].iter().copied(), &mut got_ops);
            prop_assert_eq!(misses, want_misses, "step {}", step);
            prop_assert_eq!(got_ops, want_ops, "step {}", step);
            let expanded: Vec<f64> = runs.iter().collect();
            prop_assert!(same_elements(&expanded, &array), "step {}: {:?} vs {:?}", step, expanded, array);
            prop_assert!(runs.runs().windows(2).all(|p| p[0].value < p[1].value));
            prop_assert!(runs.runs().iter().all(|r| r.count > 0));
        }
    }
}
