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
//! Each sample is held as a [`RunMultiset`]: its distinct values in
//! ascending order, each with its multiplicity, and its NaNs counted in a
//! tail. [`ks_statistic_runs`] walks two run lists in merged order and
//! visits each distinct value once, however often it occurs. A KSWIN
//! channel under a sliding training set holds `m·w` values but only
//! `m + w − 1` distinct ones, since consecutive windows share `w − 1`
//! steps, so its walk is that much shorter than one over sorted arrays.
//!
//! The [`OpCount`] tallies are those of the per-element algorithm the
//! paper's Table II costs, whatever the runs save: an insert or removal on
//! `n` elements charges the `⌈log₂ n⌉` comparisons of a binary search over
//! sorted arrays (the dominant `(1+4m)·N·w·log2(mw)` term), and each walk
//! step charges what a merge walk over sorted arrays spends on that step,
//! each consumed run counting its multiplicity.

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

/// One distinct value of a [`RunMultiset`] and how often it occurs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    /// The value; `-0.0` and `0.0` share one run, under whichever came first.
    pub value: f64,
    /// Its multiplicity, at least 1.
    pub count: usize,
}

/// A multiset of `f64` held as runs: the distinct non-NaN values in
/// ascending order, each with its multiplicity, and the NaNs counted in a
/// tail. Values are keyed by `==`, so `-0.0` and `0.0` share a run and
/// every NaN joins the tail, whatever its sign or payload.
#[derive(Debug, Default)]
pub struct RunMultiset {
    runs: Vec<Run>,
    nan: usize,
    len: usize,
    /// Values new to `runs` during an [`Self::update`], merged in at its end.
    fresh: Vec<Run>,
}

impl RunMultiset {
    /// The multiset of `values`.
    pub fn from_values(values: &[f64]) -> Self {
        let mut set = Self::default();
        set.update([], values.iter().copied(), &mut OpCount::default());
        set
    }

    /// Number of elements, NaNs included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the multiset holds no element.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The runs of non-NaN values, strictly ascending.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Number of NaN elements.
    pub fn nan_count(&self) -> usize {
        self.nan
    }

    /// Every element in ascending order, NaNs last: the sorted array the
    /// runs stand for.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let runs = self.runs.iter().flat_map(|r| std::iter::repeat_n(r.value, r.count));
        runs.chain(std::iter::repeat_n(f64::NAN, self.nan))
    }

    /// Removes each of `remove`, then inserts each of `insert`, charging
    /// `ops` the binary search of every insert and removal on sorted
    /// arrays (`⌈log₂ n⌉` comparisons on `n` elements). Returns how many
    /// removals found no equal element; those leave the multiset as it was.
    ///
    /// A removal that empties a run and an insert of a value new to the
    /// multiset only mark or queue it; one pass at the end drops the
    /// emptied runs and merges the new ones in, so an update costs
    /// `O(runs + k log k)` for `k` new values rather than a shift per value.
    pub fn update(
        &mut self,
        remove: impl IntoIterator<Item = f64>,
        insert: impl IntoIterator<Item = f64>,
        ops: &mut OpCount,
    ) -> u64 {
        let mut misses = 0;
        let mut emptied = false;
        for v in remove {
            ops.comparisons += search_cmps(self.len);
            let count = match self.find(v) {
                Some(i) => &mut self.runs[i].count,
                None if v.is_nan() => &mut self.nan,
                None => {
                    misses += 1;
                    continue;
                }
            };
            if *count == 0 {
                misses += 1;
                continue;
            }
            *count -= 1;
            self.len -= 1;
            emptied |= *count == 0 && !v.is_nan();
        }
        for v in insert {
            ops.comparisons += search_cmps(self.len);
            self.len += 1;
            match self.find(v) {
                Some(i) => self.runs[i].count += 1,
                None if v.is_nan() => self.nan += 1,
                None => self.fresh.push(Run { value: v, count: 1 }),
            }
        }
        if emptied {
            self.runs.retain(|r| r.count > 0);
        }
        self.merge_fresh();
        misses
    }

    /// The run equal to `v`, emptied or not; `None` for NaN.
    fn find(&self, v: f64) -> Option<usize> {
        let i = self.runs.partition_point(|r| r.value < v);
        self.runs.get(i).is_some_and(|r| r.value == v).then_some(i)
    }

    /// Merges the queued new values into `runs`, from the back so the
    /// runs grow in place.
    fn merge_fresh(&mut self) {
        if self.fresh.is_empty() {
            return;
        }
        self.fresh.sort_unstable_by(|a, b| a.value.total_cmp(&b.value));
        self.fresh.dedup_by(|next, kept| {
            let same = next.value == kept.value;
            if same {
                kept.count += next.count;
            }
            same
        });
        let mut old = self.runs.len();
        self.runs.resize(old + self.fresh.len(), Run { value: 0.0, count: 0 });
        let mut out = self.runs.len();
        while let Some(&new) = self.fresh.last() {
            out -= 1;
            if old > 0 && self.runs[old - 1].value > new.value {
                old -= 1;
                self.runs[out] = self.runs[old];
            } else {
                self.runs[out] = new;
                self.fresh.pop();
            }
        }
    }
}

impl Clone for RunMultiset {
    fn clone(&self) -> Self {
        Self { runs: self.runs.clone(), nan: self.nan, len: self.len, fresh: Vec::new() }
    }

    /// Reuses `self`'s run buffer, so refreshing a snapshot allocates only
    /// when the source holds more runs than the buffer ever did.
    fn clone_from(&mut self, source: &Self) {
        self.runs.clone_from(&source.runs);
        self.nan = source.nan;
        self.len = source.len;
    }
}

impl PartialEq for RunMultiset {
    fn eq(&self, other: &Self) -> bool {
        self.runs == other.runs && self.nan == other.nan
    }
}

/// Comparisons a binary search over `n` sorted elements charges:
/// `⌈log₂ max(n, 2)⌉`.
fn search_cmps(n: usize) -> u64 {
    u64::from(usize::BITS - (n.max(2) - 1).leading_zeros())
}

/// Supremum distance between the empirical CDFs of two samples.
///
/// Accepts unsorted input; `O((r1+r2) log)` after sorting. Returns `0.0` if
/// either sample is empty (no evidence of difference). NaNs count in a
/// tail above every number, as in a [`RunMultiset`]. An optional
/// [`OpCount`] accumulates the comparison/addition tallies for Table II.
pub fn ks_statistic(a: &[f64], b: &[f64], ops: Option<&mut OpCount>) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut count = OpCount::default();
    // Sorting both arrays: ~ r log2(r) comparisons each.
    count.comparisons += approx_sort_cmps(a.len()) + approx_sort_cmps(b.len());
    let (sa, sb) = (RunMultiset::from_values(a), RunMultiset::from_values(b));
    let d = ks_statistic_runs(&sa, &sb, Some(&mut count));
    if let Some(o) = ops {
        *o += count;
    }
    d
}

/// [`ks_statistic`] on two run multisets: the hot path of the KSWIN drift
/// detector, which keeps its training-set snapshots as runs.
///
/// The walk is that of a merge over the two sorted arrays the runs stand
/// for, NaNs last. Each step takes the smaller head `x` (`f64::min`
/// returns the non-NaN operand) and consumes, on each side, the head run
/// if it is `≤ x`, then the NaN tail once no run is left; a NaN `x`
/// consumes everything left. Every step consumes at least one element, so
/// the walk ends on any input. Its statistic bits and [`OpCount`] tallies
/// equal the per-element walk's.
pub fn ks_statistic_runs(a: &RunMultiset, b: &RunMultiset, ops: Option<&mut OpCount>) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (na, nb) = (a.len as f64, b.len as f64);
    let (mut sa, mut sb) = (Cursor::new(a), Cursor::new(b));
    let mut steps = 0u64;
    let mut d_max = 0.0f64;
    loop {
        let x = match (sa.head(), sb.head()) {
            (Some(p), Some(q)) => p.min(q),
            (Some(p), None) | (None, Some(p)) => p,
            (None, None) => break,
        };
        sa.consume(x);
        sb.consume(x);
        steps += 1;
        let d = (sa.taken as f64 / na - sb.taken as f64 / nb).abs();
        if d > d_max {
            d_max = d;
        }
    }
    if let Some(o) = ops {
        // Per step the element walk spends a comparison to pick `x`, one
        // per consumed element, one on the running maximum, an addition
        // and the two ECDF divisions. Every element is consumed once.
        *o += OpCount {
            additions: steps,
            multiplications: 2 * steps,
            comparisons: 2 * steps + (a.len + b.len) as u64,
        };
    }
    d_max.clamp(0.0, 1.0)
}

/// One side of the [`ks_statistic_runs`] walk.
struct Cursor<'a> {
    runs: &'a [Run],
    nan: usize,
    taken: usize,
}

impl<'a> Cursor<'a> {
    fn new(set: &'a RunMultiset) -> Self {
        Self { runs: &set.runs, nan: set.nan, taken: 0 }
    }

    fn head(&self) -> Option<f64> {
        match self.runs.first() {
            Some(r) => Some(r.value),
            None => (self.nan > 0).then_some(f64::NAN),
        }
    }

    /// Consumes what the element walk consumes at `x`. A NaN `x` means both
    /// heads are NaN or absent, so no run is left on either side.
    fn consume(&mut self, x: f64) {
        if let Some((head, rest)) = self.runs.split_first() {
            if head.value <= x {
                self.taken += head.count;
                self.runs = rest;
            }
        }
        if self.runs.is_empty() {
            self.taken += self.nan;
            self.nan = 0;
        }
    }
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

    /// The walk ends, in [0, 1], wherever NaN sits in the input: first,
    /// last, in between, in both samples, or everywhere.
    #[test]
    fn walk_terminates_on_nan_anywhere() {
        let nan = f64::NAN;
        let cases: [(&[f64], &[f64]); 6] = [
            (&[nan, 0.0, 1.0], &[0.5, 2.0]),
            (&[0.0, 1.0, nan], &[0.5, 2.0]),
            (&[0.5, 2.0], &[nan, 0.0, 1.0]),
            (&[nan, 0.0, 1.0], &[0.5, 2.0, nan]),
            (&[0.0, nan, 1.0], &[-nan, 0.5, 2.0]),
            (&[nan, nan], &[nan]),
        ];
        for (a, b) in cases {
            let mut ops = OpCount::default();
            let (sa, sb) = (RunMultiset::from_values(a), RunMultiset::from_values(b));
            let d = ks_statistic_runs(&sa, &sb, Some(&mut ops));
            assert!((0.0..=1.0).contains(&d), "{a:?} vs {b:?}: {d}");
            // One step per distinct value at most, plus one comparison per
            // consumed value.
            let n = (a.len() + b.len()) as u64;
            assert!(ops.comparisons <= 3 * n, "{a:?} vs {b:?}: {ops:?}");
        }
    }

    /// Runs are keyed by `==`: ties share a run, `-0.0` and `0.0` share one,
    /// every NaN joins the tail, and the runs expand to the sorted values.
    #[test]
    fn runs_key_values_by_equality() {
        let set = RunMultiset::from_values(&[2.0, -0.0, f64::NAN, 1.0, 0.0, 2.0, -f64::NAN, 2.0]);
        let runs: Vec<(f64, usize)> = set.runs().iter().map(|r| (r.value, r.count)).collect();
        assert_eq!(runs, [(0.0, 2), (1.0, 1), (2.0, 3)]);
        assert_eq!((set.nan_count(), set.len()), (2, 8));
        let expanded: Vec<f64> = set.iter().collect();
        assert_eq!(expanded[..6], [0.0, 0.0, 1.0, 2.0, 2.0, 2.0]);
        assert!(expanded[6..].iter().all(|v| v.is_nan()));
    }

    /// A NaN removal takes one from the tail whatever its payload; a
    /// removal that finds no equal element is a miss and changes nothing,
    /// also when an earlier removal of the same update emptied the run.
    #[test]
    fn nan_removal_takes_from_the_tail_and_an_absent_value_is_a_miss() {
        let mut ops = OpCount::default();
        let mut set = RunMultiset::from_values(&[1.0, 2.0, f64::NAN, 3.0]);
        let payload = f64::from_bits(f64::NAN.to_bits() | 1);
        assert_eq!(set.update([payload], [], &mut ops), 0);
        assert_eq!((set.nan_count(), set.len()), (0, 3));
        assert_eq!(set.update([9.0, f64::NAN], [], &mut ops), 2);
        assert_eq!(set, RunMultiset::from_values(&[1.0, 2.0, 3.0]));
        assert_eq!(set.update([2.0, 2.0], [], &mut ops), 1);
        assert_eq!(set, RunMultiset::from_values(&[1.0, 3.0]));
        // Each of the five requests charged one binary search over the
        // elements present at the time: 4, 3, 3, 3 and 2.
        assert_eq!(ops.comparisons, 2 + 2 + 2 + 2 + 1);
    }

    /// A removal and an insert of the same value in one update keep its
    /// run, and new values merge in among the old ones in order.
    #[test]
    fn update_revives_an_emptied_run_and_merges_new_values() {
        let mut set = RunMultiset::from_values(&[1.0, 3.0, 5.0]);
        let misses = set.update([3.0, 5.0], [3.0, 4.0, 0.5, 4.0, 6.0], &mut OpCount::default());
        assert_eq!(misses, 0);
        assert_eq!(set, RunMultiset::from_values(&[0.5, 1.0, 3.0, 4.0, 4.0, 6.0]));
        assert!(set.runs().windows(2).all(|p| p[0].value < p[1].value));
    }

    /// The bit trick charges what the float formula the paper's tallies
    /// were first measured with does.
    #[test]
    fn search_cmps_matches_the_float_formula() {
        let float = |n: usize| (n.max(2) as f64).log2().ceil() as u64;
        let near_powers = (1..40).flat_map(|k| [(1usize << k) - 1, 1 << k, (1 << k) + 1]);
        for n in (0..70_000).chain(near_powers) {
            assert_eq!(search_cmps(n), float(n), "n = {n}");
        }
    }

    /// Refreshing a snapshot from a set no larger than it ever held keeps
    /// its buffer.
    #[test]
    fn clone_from_reuses_the_run_buffer() {
        let big = RunMultiset::from_values(&[1.0, 2.0, 3.0, 4.0]);
        let small = RunMultiset::from_values(&[5.0, 5.0]);
        let mut snap = big.clone();
        let before = snap.runs().as_ptr();
        snap.clone_from(&small);
        assert_eq!(snap, small);
        assert_eq!(snap.runs().as_ptr(), before);
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
