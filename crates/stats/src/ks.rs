//! Two-sample Kolmogorov–Smirnov test.
//!
//! The KSWIN drift strategy (paper §IV-B, following Raab et al. 2020)
//! compares the training set at the last fine-tune time `i` against the
//! current training set `t` one channel at a time. The test statistic is the
//! supremum distance between the two empirical CDFs,
//!
//! ```text
//! dist_{i,t} = sup_x |F_i(x) - F_t(x)|
//! ```
//!
//! and the null hypothesis ("same distribution") is rejected at level α when
//!
//! ```text
//! dist_{i,t} > c(α) * sqrt((r_i + r_t) / (r_i * r_t)),   c(α) = sqrt(ln(2/α) / 2).
//! ```
//!
//! Note the `/2` inside the square root: the paper prints `c(α) = sqrt(ln(2/α))`,
//! omitting the factor ½ of the standard two-sample critical value (Smirnov),
//! which Raab et al. use. We implement the standard form and expose the raw
//! statistic separately so callers can apply any threshold.
//!
//! The implementation sorts both samples and merges them with binary
//! searches, matching the `(1+4m)·N·w·log2(mw)` comparison count the paper
//! reports for KSWIN in Table II (the dominant log factor comes from
//! locating each element's insertion point in the concatenated order).

use crate::opcount::OpCount;

/// Outcome of a two-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsOutcome {
    /// Supremum distance between the two empirical CDFs, in `[0, 1]`.
    pub statistic: f64,
    /// The critical value `c(α)·√((r_i+r_t)/(r_i·r_t))`.
    pub critical_value: f64,
    /// `true` iff `statistic > critical_value` (reject the null hypothesis).
    pub reject: bool,
}

/// Critical value for the two-sample KS test at significance `alpha` with
/// sample sizes `r1` and `r2`.
///
/// # Panics
/// Panics if `alpha` is outside `(0, 1)` or either sample size is zero.
pub fn ks_critical_value(alpha: f64, r1: usize, r2: usize) -> f64 {
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
    assert!(r1 > 0 && r2 > 0, "sample sizes must be positive");
    let c = ((2.0 / alpha).ln() / 2.0).sqrt();
    c * (((r1 + r2) as f64) / ((r1 * r2) as f64)).sqrt()
}

/// Supremum distance between the empirical CDFs of two samples.
///
/// Accepts unsorted input; `O((r1+r2) log)` after sorting. Returns `0.0` if
/// either sample is empty (no evidence of difference). An optional
/// [`OpCount`] accumulates the comparison/addition tallies for Table II.
pub fn ks_statistic(a: &[f64], b: &[f64], ops: Option<&mut OpCount>) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    let mut count = OpCount::default();
    // Sorting both arrays: ~ r log2(r) comparisons each.
    count.comparisons += approx_sort_cmps(sa.len()) + approx_sort_cmps(sb.len());
    let d = ks_statistic_sorted(&sa, &sb, Some(&mut count));
    if let Some(o) = ops {
        *o += count;
    }
    d
}

/// [`ks_statistic`] for inputs that are already sorted ascending.
///
/// This is the hot path of the KSWIN drift detector, which maintains its
/// training-set snapshots as incrementally sorted per-channel arrays and
/// therefore never pays the sort.
///
/// Total on every input: NaN is unordered, so "sorted" means no adjacent
/// pair in descending order, and the merge walk steps past a NaN as soon
/// as it reaches one (see [`walked_past`]). Each pass of the walk then
/// consumes at least one value, so it ends after at most `r1 + r2` passes
/// wherever NaN sits in either sample. On NaN-free input the walk, its
/// result bits and its [`OpCount`] tallies are those of the plain `≤`
/// merge.
pub fn ks_statistic_sorted(sa: &[f64], sb: &[f64], ops: Option<&mut OpCount>) -> f64 {
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    debug_assert!(sa.windows(2).all(|p| walked_past(p[0], p[1])), "first sample not sorted");
    debug_assert!(sb.windows(2).all(|p| walked_past(p[0], p[1])), "second sample not sorted");
    let mut count = OpCount::default();

    // Walk the merged order of both samples, tracking each ECDF. The loop
    // runs until BOTH samples are exhausted so the supremum over the tail of
    // the longer sample is also considered.
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d_max = 0.0f64;
    while i < sa.len() || j < sb.len() {
        let x = match (sa.get(i), sb.get(j)) {
            (Some(&a), Some(&b)) => a.min(b),
            (Some(&a), None) => a,
            (None, Some(&b)) => b,
            (None, None) => unreachable!("loop condition guarantees one side remains"),
        };
        count.comparisons += 1;
        while i < sa.len() && walked_past(sa[i], x) {
            i += 1;
            count.comparisons += 1;
        }
        while j < sb.len() && walked_past(sb[j], x) {
            j += 1;
            count.comparisons += 1;
        }
        let d = (i as f64 / na - j as f64 / nb).abs();
        count.additions += 1;
        count.multiplications += 2; // the two ECDF divisions
        count.comparisons += 1;
        if d > d_max {
            d_max = d;
        }
    }
    if let Some(o) = ops {
        *o += count;
    }
    d_max.clamp(0.0, 1.0)
}

/// Whether the merge walk at `x` has reached `v`: `v ≤ x`, or either one is
/// NaN. `x` is the smaller head (`f64::min` returns the non-NaN operand),
/// so a NaN head is passed as soon as the walk meets it, and a head always
/// passes itself — `x ≤ x` for a number, the NaN rule for a NaN.
#[inline]
fn walked_past(v: f64, x: f64) -> bool {
    v <= x || v.is_nan() || x.is_nan()
}

/// Runs the full two-sample KS test at significance `alpha`.
pub fn ks_test(a: &[f64], b: &[f64], alpha: f64, ops: Option<&mut OpCount>) -> KsOutcome {
    let statistic = ks_statistic(a, b, ops);
    if a.is_empty() || b.is_empty() {
        return KsOutcome { statistic: 0.0, critical_value: f64::INFINITY, reject: false };
    }
    let critical_value = ks_critical_value(alpha, a.len(), b.len());
    KsOutcome { statistic, critical_value, reject: statistic > critical_value }
}

fn approx_sort_cmps(n: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    (n as f64 * (n as f64).log2()).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_have_zero_statistic() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_statistic(&a, &a, None), 0.0);
    }

    #[test]
    fn disjoint_samples_have_statistic_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        assert!((ks_statistic(&a, &b, None) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn statistic_is_symmetric() {
        let a = [0.1, 0.5, 0.9, 1.3, 2.0];
        let b = [0.2, 0.4, 1.0, 1.1];
        let d1 = ks_statistic(&a, &b, None);
        let d2 = ks_statistic(&b, &a, None);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn known_small_example() {
        // F_a steps at 1,2 (each 1/2); F_b steps at 1.5, 2.5 (each 1/2).
        // At x=1: |1/2 - 0| = 0.5 is the supremum.
        let a = [1.0, 2.0];
        let b = [1.5, 2.5];
        assert!((ks_statistic(&a, &b, None) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let a = [3.0, 1.0, 2.0];
        let b = [12.0, 10.0, 11.0];
        assert!((ks_statistic(&a, &b, None) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_gives_zero_and_no_reject() {
        let out = ks_test(&[], &[1.0, 2.0], 0.05, None);
        assert_eq!(out.statistic, 0.0);
        assert!(!out.reject);
    }

    #[test]
    fn critical_value_shrinks_with_sample_size() {
        let small = ks_critical_value(0.05, 10, 10);
        let large = ks_critical_value(0.05, 1000, 1000);
        assert!(large < small);
    }

    #[test]
    fn critical_value_matches_closed_form() {
        // c(0.05) = sqrt(ln(40)/2) ≈ 1.3581; n=m=100 -> * sqrt(2/100).
        let cv = ks_critical_value(0.05, 100, 100);
        let expect = ((2.0f64 / 0.05).ln() / 2.0).sqrt() * (2.0f64 / 100.0).sqrt();
        assert!((cv - expect).abs() < 1e-12);
        assert!((cv - 0.19205).abs() < 1e-4);
    }

    #[test]
    fn shifted_distributions_are_rejected() {
        // Two clearly separated uniform-ish samples.
        let a: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
        let b: Vec<f64> = (0..200).map(|i| 0.5 + i as f64 / 200.0).collect();
        let out = ks_test(&a, &b, 0.01, None);
        assert!(out.reject, "statistic {} cv {}", out.statistic, out.critical_value);
    }

    #[test]
    fn same_distribution_is_not_rejected() {
        // Interleaved halves of the same deterministic sequence.
        let all: Vec<f64> = (0..400).map(|i| ((i * 37) % 400) as f64 / 400.0).collect();
        let a: Vec<f64> = all.iter().step_by(2).copied().collect();
        let b: Vec<f64> = all.iter().skip(1).step_by(2).copied().collect();
        let out = ks_test(&a, &b, 0.01, None);
        assert!(!out.reject, "statistic {} cv {}", out.statistic, out.critical_value);
    }

    #[test]
    fn op_count_accumulates() {
        let mut ops = OpCount::default();
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| i as f64 + 0.5).collect();
        let _ = ks_statistic(&a, &b, Some(&mut ops));
        assert!(ops.comparisons > 100, "comparisons {}", ops.comparisons);
        assert!(ops.additions > 0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1)")]
    fn invalid_alpha_panics() {
        ks_critical_value(0.0, 10, 10);
    }

    /// The walk ends, in [0, 1], wherever NaN sits: first, last (where
    /// KSWIN's sorted insert puts it), in between, in both samples, or
    /// everywhere.
    #[test]
    fn walk_terminates_on_nan_anywhere() {
        let nan = f64::NAN;
        let cases: [(&[f64], &[f64]); 6] = [
            (&[nan, 0.0, 1.0], &[0.5, 2.0]),
            (&[0.0, 1.0, nan], &[0.5, 2.0]),
            (&[0.5, 2.0], &[nan, 0.0, 1.0]),
            (&[nan, 0.0, 1.0], &[0.5, 2.0, nan]),
            (&[0.0, nan, 1.0], &[nan, 0.5, 2.0]),
            (&[nan, nan], &[nan]),
        ];
        for (a, b) in cases {
            let mut ops = OpCount::default();
            let d = ks_statistic_sorted(a, b, Some(&mut ops));
            assert!((0.0..=1.0).contains(&d), "{a:?} vs {b:?}: {d}");
            // One outer pass per distinct step at most, plus one inner
            // comparison per consumed value.
            let n = (a.len() + b.len()) as u64;
            assert!(ops.comparisons <= 3 * n, "{a:?} vs {b:?}: {ops:?}");
        }
    }

    /// The plain `≤` merge walk, frozen as the reference for the NaN-free
    /// property below: there the total walk must match it bit for bit and
    /// tally for tally.
    fn frozen_walk(sa: &[f64], sb: &[f64], ops: &mut OpCount) -> f64 {
        if sa.is_empty() || sb.is_empty() {
            return 0.0;
        }
        let (na, nb) = (sa.len() as f64, sb.len() as f64);
        let (mut i, mut j) = (0usize, 0usize);
        let mut d_max = 0.0f64;
        while i < sa.len() || j < sb.len() {
            let x = match (sa.get(i), sb.get(j)) {
                (Some(&a), Some(&b)) => a.min(b),
                (Some(&a), None) => a,
                (None, Some(&b)) => b,
                (None, None) => unreachable!(),
            };
            ops.comparisons += 1;
            while i < sa.len() && sa[i] <= x {
                i += 1;
                ops.comparisons += 1;
            }
            while j < sb.len() && sb[j] <= x {
                j += 1;
                ops.comparisons += 1;
            }
            let d = (i as f64 / na - j as f64 / nb).abs();
            ops.additions += 1;
            ops.multiplications += 2;
            ops.comparisons += 1;
            if d > d_max {
                d_max = d;
            }
        }
        d_max.clamp(0.0, 1.0)
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The KS statistic is always in [0, 1].
            #[test]
            fn statistic_in_unit_interval(
                a in proptest::collection::vec(-1e3f64..1e3, 1..80),
                b in proptest::collection::vec(-1e3f64..1e3, 1..80),
            ) {
                let d = ks_statistic(&a, &b, None);
                prop_assert!((0.0..=1.0).contains(&d));
            }

            /// Symmetry: D(a, b) == D(b, a).
            #[test]
            fn statistic_symmetric(
                a in proptest::collection::vec(-50f64..50.0, 1..60),
                b in proptest::collection::vec(-50f64..50.0, 1..60),
            ) {
                let d1 = ks_statistic(&a, &b, None);
                let d2 = ks_statistic(&b, &a, None);
                prop_assert!((d1 - d2).abs() < 1e-12);
            }

            /// On NaN-free sorted samples (ties and ±0 included) the walk
            /// matches the frozen `≤` walk: same statistic bits, same
            /// operation tallies.
            #[test]
            fn nan_free_walk_matches_frozen_walk(
                a in proptest::collection::vec((-12i32..12).prop_map(|v| v as f64 * 0.25), 0..60),
                b in proptest::collection::vec((-12i32..12).prop_map(|v| v as f64 * 0.25), 0..60),
                neg_zero in 0usize..4,
            ) {
                let (mut a, mut b) = (a, b);
                // Turn some zeros into -0.0: `f64::min` may return either.
                for v in a.iter_mut().chain(b.iter_mut()).step_by(neg_zero + 1) {
                    if *v == 0.0 {
                        *v = -0.0;
                    }
                }
                a.sort_by(f64::total_cmp);
                b.sort_by(f64::total_cmp);
                let (mut got_ops, mut want_ops) = (OpCount::default(), OpCount::default());
                let got = ks_statistic_sorted(&a, &b, Some(&mut got_ops));
                let want = frozen_walk(&a, &b, &mut want_ops);
                prop_assert_eq!(got.to_bits(), want.to_bits());
                prop_assert_eq!(got_ops, want_ops);
            }

            /// A sample compared against itself is never rejected.
            #[test]
            fn self_comparison_never_rejects(
                a in proptest::collection::vec(-50f64..50.0, 2..60),
            ) {
                let out = ks_test(&a, &a, 0.05, None);
                prop_assert_eq!(out.statistic, 0.0);
                prop_assert!(!out.reject);
            }
        }
    }
}
