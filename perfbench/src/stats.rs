//! Small order-statistics helpers.

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); NaN when
/// empty. Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of `values`; NaN when empty. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 when empty (a layer that was never called).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert!(median(&mut []).is_nan());
        assert_eq!(mean([1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean([]), 0.0);
    }
}
