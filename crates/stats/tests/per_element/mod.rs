//! The per-element algorithm the paper's Table II costs for KSWIN: each
//! channel multiset a sorted array, NaNs last, kept by a binary search per
//! insert and removal, and the two-sample KS statistic a merge walk over
//! two such arrays. It is the reference the run multisets of `sad-stats`
//! and `sad-core`'s KSWIN detector are checked against, bit for bit and
//! tally for tally. `sad-core`'s tests include this file by path.

// Each test that includes this file uses only part of it.
#![allow(dead_code)]

use sad_stats::OpCount;

/// Sorts ascending with every NaN last, as [`insert`] keeps an array.
pub fn sort_nan_last(values: &mut [f64]) {
    values.sort_by(|a, b| a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(b)));
}

/// Comparisons a binary search over `n` elements charges.
fn search_cmps(n: usize) -> u64 {
    (n.max(2) as f64).log2().ceil() as u64
}

/// Whether `v` sorts before `value`: ascending, NaN last.
fn sorts_before(v: f64, value: f64) -> bool {
    v < value || (value.is_nan() && !v.is_nan())
}

/// Inserts `value` at its binary-searched place.
pub fn insert(array: &mut Vec<f64>, value: f64, ops: &mut OpCount) {
    let idx = array.partition_point(|&v| sorts_before(v, value));
    ops.comparisons += search_cmps(array.len());
    array.insert(idx, value);
}

/// Removes one element equal to `value`, or, for a NaN, one with its bits;
/// `false` when there is none.
pub fn remove(array: &mut Vec<f64>, value: f64, ops: &mut OpCount) -> bool {
    let idx = array.partition_point(|&v| sorts_before(v, value));
    ops.comparisons += search_cmps(array.len());
    if idx < array.len() && array[idx] == value {
        array.remove(idx);
        return true;
    }
    match array.iter().position(|v| v.to_bits() == value.to_bits()) {
        Some(pos) => {
            array.remove(pos);
            true
        }
        None => false,
    }
}

/// Whether the merge walk at `x` has reached `v`: `v ≤ x`, or either one
/// is NaN. `x` is the smaller head (`f64::min` returns the non-NaN
/// operand), so a NaN head is passed as soon as the walk meets it.
fn walked_past(v: f64, x: f64) -> bool {
    v <= x || v.is_nan() || x.is_nan()
}

/// The KS statistic of two sorted arrays by the per-element merge walk.
pub fn statistic(sa: &[f64], sb: &[f64], ops: &mut OpCount) -> f64 {
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
            (None, None) => unreachable!("loop condition guarantees one side remains"),
        };
        ops.comparisons += 1;
        while i < sa.len() && walked_past(sa[i], x) {
            i += 1;
            ops.comparisons += 1;
        }
        while j < sb.len() && walked_past(sb[j], x) {
            j += 1;
            ops.comparisons += 1;
        }
        let d = (i as f64 / na - j as f64 / nb).abs();
        ops.additions += 1;
        ops.multiplications += 2; // the two ECDF divisions
        ops.comparisons += 1;
        if d > d_max {
            d_max = d;
        }
    }
    d_max.clamp(0.0, 1.0)
}

/// A value from a pool built to collide: ties on a quarter grid, ±0,
/// subnormals, ±∞ and NaNs of both signs and two payloads; one draw in
/// four is spread wide enough to be distinct.
pub fn pooled_value(k: u32) -> f64 {
    match k % 48 {
        p @ 0..=23 => (f64::from(p) - 12.0) * 0.25,
        24 => -0.0,
        25 => f64::NAN,
        26 => -f64::NAN,
        27 => f64::from_bits(f64::NAN.to_bits() | 7),
        28 => f64::from_bits(1),
        29 => -f64::from_bits(1),
        30 => f64::MIN_POSITIVE / 2.0,
        31 => f64::INFINITY,
        32 => f64::NEG_INFINITY,
        33..=35 => 0.0,
        _ => f64::from(k) / 1024.0 - 400.0,
    }
}
