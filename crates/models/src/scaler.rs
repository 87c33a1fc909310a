//! Per-dimension affine input scaling for the neural models.
//!
//! Sensor channels in the benchmark corpora differ in scale by orders of
//! magnitude (accelerometer milli-g vs CPU percent vs byte counters).
//! Gradient-trained networks need roughly unit-scale inputs, so the neural
//! models fit per-dimension statistics on the warm-up training set and
//! map reconstructions/forecasts back to raw units before the cosine
//! nonconformity compares them with the stream. (The reference
//! implementations of AE/USAD/N-BEATS normalize in their data pipelines;
//! here it lives inside the model so the framework stays scale-agnostic.)
//!
//! Both fits the models use are one affine map `z = (x − sub) / div`: the
//! standardizer (AE, N-BEATS) sets `(sub, div) = (μ, σ)`, USAD's min-max
//! scaler sets `(min, range)`. [`Affine`] implements that map once,
//! generic over precision and allocation-free: the fitted f64 map is
//! authoritative, and an `Affine<f32>` is the inference snapshot the
//! fleet's f32 serving path converts from it ([`Affine::convert_from`]).

use sad_core::FeatureVector;
use sad_tensor::Scalar;

/// Per-dimension affine scaler `z_j = (x_j − sub_j) / div_j` in precision
/// `T` (default `f64`).
#[derive(Debug, Clone)]
pub struct Affine<T: Scalar = f64> {
    sub: Vec<T>,
    div: Vec<T>,
}

impl Affine {
    /// σ / range floor: constant dimensions pass through unscaled instead
    /// of dividing by zero.
    const DIV_FLOOR: f64 = 1e-8;

    /// Fits the standardizer `z = (x − μ)/σ`: per-dimension mean and
    /// standard deviation over the flattened feature vectors of `train`.
    ///
    /// # Panics
    /// Panics if `train` is empty or dimensions are inconsistent.
    pub fn standardize(train: &[FeatureVector]) -> Self {
        assert!(!train.is_empty(), "cannot fit a standardizer on no data");
        let dim = train[0].dim();
        let n = train.len() as f64;
        let mut mean = vec![0.0; dim];
        for x in train {
            assert_eq!(x.dim(), dim, "inconsistent feature dimensions");
            for (m, &v) in mean.iter_mut().zip(x.as_slice()) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; dim];
        for x in train {
            for ((s, &v), &m) in var.iter_mut().zip(x.as_slice()).zip(&mean) {
                *s += (v - m) * (v - m);
            }
        }
        let std = var.into_iter().map(|s| (s / n).sqrt().max(Self::DIV_FLOOR)).collect();
        Self { sub: mean, div: std }
    }

    /// Fits the min-max scaler mapping the training range onto `[0, 1]`:
    /// `z = (x − min)/range`.
    ///
    /// USAD bounds its decoder outputs with a final sigmoid and normalizes
    /// data to `[0, 1]` (Audibert et al. §5.1) — this boundedness is what
    /// keeps the adversarial maximization of `R_both` from diverging.
    /// Out-of-range stream values simply map outside `[0, 1]` and become
    /// unreconstructable, which is the desired anomaly signal.
    ///
    /// # Panics
    /// Panics if `train` is empty or dimensions are inconsistent.
    pub fn min_max(train: &[FeatureVector]) -> Self {
        assert!(!train.is_empty(), "cannot fit a scaler on no data");
        let dim = train[0].dim();
        let mut min = vec![f64::INFINITY; dim];
        let mut max = vec![f64::NEG_INFINITY; dim];
        for x in train {
            assert_eq!(x.dim(), dim, "inconsistent feature dimensions");
            for ((lo, hi), &v) in min.iter_mut().zip(&mut max).zip(x.as_slice()) {
                *lo = lo.min(v);
                *hi = hi.max(v);
            }
        }
        let range = min.iter().zip(&max).map(|(l, h)| (h - l).max(Self::DIV_FLOOR)).collect();
        Self { sub: min, div: range }
    }

    /// Bitwise equality of the fitted statistics — the scaler half of the
    /// fleet's "identical inference state" cohort test.
    pub fn state_equal(&self, other: &Affine) -> bool {
        self.sub.len() == other.sub.len()
            && self.sub.iter().zip(&other.sub).all(|(a, b)| a.to_bits() == b.to_bits())
            && self.div.iter().zip(&other.div).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl<T: Scalar> Affine<T> {
    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.sub.len()
    }

    /// Scales a raw vector into a precision-`T` row (the training and
    /// inference paths fill workspace rows with this). The raw value is
    /// narrowed to `T` first, so every operation runs in `T`.
    pub fn transform_into(&self, x: &[f64], out: &mut [T]) {
        assert_eq!(x.len(), self.sub.len(), "scaler dimension mismatch");
        assert_eq!(out.len(), x.len(), "scaler output length mismatch");
        for (o, ((&v, &m), &d)) in out.iter_mut().zip(x.iter().zip(&self.sub).zip(&self.div)) {
            *o = (T::from_f64(v) - m) / d;
        }
    }

    /// Maps a scaled precision-`T` suffix back to raw f64 units, using the
    /// statistics of the last `tail.len()` dimensions: a full-width `tail`
    /// is a whole reconstruction, the last `N` entries a forecast of `s_t`.
    /// The inference loop scatters workspace rows with this.
    pub fn inverse_tail_into(&self, tail: &[T], out: &mut [f64]) {
        assert_eq!(out.len(), tail.len(), "scaler output length mismatch");
        let offset = self.sub.len() - tail.len();
        for (o, ((&v, &m), &d)) in
            out.iter_mut().zip(tail.iter().zip(&self.sub[offset..]).zip(&self.div[offset..]))
        {
            *o = (v * d + m).to_f64();
        }
    }

    /// Creates a scaler by converting the statistics of `src` to `T`.
    pub fn from_precision<U: Scalar>(src: &Affine<U>) -> Self {
        let convert = |v: &[U]| v.iter().map(|&x| T::from_f64(x.to_f64())).collect();
        Self { sub: convert(&src.sub), div: convert(&src.div) }
    }

    /// Re-converts the statistics of `src` in place — no heap allocation.
    ///
    /// # Panics
    /// Panics on a dimensionality change (snapshot re-syncs never resize).
    pub fn convert_from<U: Scalar>(&mut self, src: &Affine<U>) {
        assert_eq!(self.sub.len(), src.sub.len(), "scaler snapshot dimension mismatch");
        for (o, &v) in self.sub.iter_mut().zip(&src.sub).chain(self.div.iter_mut().zip(&src.div)) {
            *o = T::from_f64(v.to_f64());
        }
    }
}

/// `x` scaled into `out` by `scaler`, or narrowed to `T` unscaled before
/// any fit — how every training step and inference row loads a window.
pub(crate) fn scale_into<T: Scalar>(scaler: Option<&Affine<T>>, x: &[f64], out: &mut [T]) {
    match scaler {
        Some(s) => s.transform_into(x, out),
        None => {
            assert_eq!(out.len(), x.len(), "scaler output length mismatch");
            for (o, &v) in out.iter_mut().zip(x) {
                *o = T::from_f64(v);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn fv(values: &[f64]) -> FeatureVector {
        FeatureVector::new(values.to_vec(), values.len(), 1)
    }

    /// The scaler arithmetic written out, `(x − sub) / div`: the reference
    /// [`Affine::transform_into`] and the batched inference loop are
    /// checked against.
    pub(crate) fn transform_ref(s: &Affine, x: &[f64]) -> Vec<f64> {
        x.iter().zip(&s.sub).zip(&s.div).map(|((&v, &m), &d)| (v - m) / d).collect()
    }

    /// The inverse written out, `z · div + sub` over the last `z.len()`
    /// dimensions.
    pub(crate) fn inverse_tail_ref(s: &Affine, z: &[f64]) -> Vec<f64> {
        let offset = s.sub.len() - z.len();
        let stats = s.sub[offset..].iter().zip(&s.div[offset..]);
        z.iter().zip(stats).map(|(&v, (&m, &d))| v * d + m).collect()
    }

    fn transform(s: &Affine, x: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; x.len()];
        s.transform_into(x, &mut z);
        z
    }

    fn inverse(s: &Affine, z: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; z.len()];
        s.inverse_tail_into(z, &mut x);
        x
    }

    #[test]
    fn minmax_maps_training_range_to_unit() {
        let train = vec![fv(&[0.0, -10.0]), fv(&[4.0, 30.0])];
        let s = Affine::min_max(&train);
        assert_eq!(transform(&s, &[0.0, -10.0]), vec![0.0, 0.0]);
        assert_eq!(transform(&s, &[4.0, 30.0]), vec![1.0, 1.0]);
        assert_eq!(transform(&s, &[2.0, 10.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn minmax_round_trip() {
        let train = vec![fv(&[1.0, 2.0]), fv(&[3.0, 8.0]), fv(&[2.0, 5.0])];
        let s = Affine::min_max(&train);
        let x = [2.7, 6.1];
        let back = inverse(&s, &transform(&s, &x));
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn minmax_out_of_range_values_exceed_unit() {
        let train = vec![fv(&[0.0]), fv(&[1.0])];
        let s = Affine::min_max(&train);
        assert!(transform(&s, &[5.0])[0] > 1.0);
        assert!(transform(&s, &[-5.0])[0] < 0.0);
    }

    #[test]
    fn minmax_constant_dim_is_floored() {
        let train = vec![fv(&[7.0]), fv(&[7.0])];
        let s = Affine::min_max(&train);
        assert!(transform(&s, &[7.0])[0].is_finite());
    }

    #[test]
    fn fit_computes_mean_and_std() {
        let train = vec![fv(&[0.0, 10.0]), fv(&[2.0, 30.0])];
        let s = Affine::standardize(&train);
        let z = transform(&s, &[1.0, 20.0]);
        assert!(z[0].abs() < 1e-12 && z[1].abs() < 1e-12, "center maps to zero: {z:?}");
        let z2 = transform(&s, &[2.0, 30.0]);
        assert!((z2[0] - 1.0).abs() < 1e-12);
        assert!((z2[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn round_trip_is_identity() {
        let train = vec![fv(&[1.0, 2.0, 3.0]), fv(&[4.0, 0.0, -3.0]), fv(&[2.0, 2.0, 9.0])];
        let s = Affine::standardize(&train);
        let x = [3.3, -1.2, 7.0];
        let back = inverse(&s, &transform(&s, &x));
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_dimension_is_floored_not_nan() {
        let train = vec![fv(&[5.0, 1.0]), fv(&[5.0, 2.0])];
        let s = Affine::standardize(&train);
        let z = transform(&s, &[5.0, 1.5]);
        assert!(z.iter().all(|v| v.is_finite()));
        assert_eq!(z[0], 0.0);
    }

    #[test]
    fn tail_inverse_uses_suffix_stats() {
        let train = vec![fv(&[0.0, 100.0]), fv(&[2.0, 300.0])];
        let s = Affine::standardize(&train);
        assert!((inverse(&s, &[0.0])[0] - 200.0).abs() < 1e-9);
        assert!((inverse(&s, &[1.0])[0] - 300.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_fit_panics() {
        let _ = Affine::standardize(&[]);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn transform_into_is_the_affine_map_bitwise() {
        let train = vec![fv(&[1.0, -4.0, 0.5]), fv(&[3.0, 2.0, 9.5]), fv(&[0.0, 1.0, 4.0])];
        let x = [2.2, -0.7, 6.1];
        for s in [Affine::standardize(&train), Affine::min_max(&train)] {
            assert_eq!(bits(&transform(&s, &x)), bits(&transform_ref(&s, &x)));
        }
    }

    #[test]
    fn inverse_tail_into_is_the_inverse_map_bitwise() {
        let train = vec![fv(&[1.0, -4.0, 0.5]), fv(&[3.0, 2.0, 9.5]), fv(&[0.0, 1.0, 4.0])];
        let z = [0.33, -1.8, 2.4];
        for s in [Affine::standardize(&train), Affine::min_max(&train)] {
            for tail in [&z[..], &z[1..]] {
                assert_eq!(bits(&inverse(&s, tail)), bits(&inverse_tail_ref(&s, tail)));
            }
        }
    }

    #[test]
    fn f32_snapshot_tracks_both_scalers_within_tolerance() {
        let train = vec![fv(&[1.0, -4.0, 0.5]), fv(&[3.0, 2.0, 9.5]), fv(&[0.0, 1.0, 4.0])];
        let x = [2.2, -0.7, 6.1];
        let mut z32 = [0.0f32; 3];
        let mut back = [0.0f64; 3];
        for fitted in [Affine::standardize(&train), Affine::min_max(&train)] {
            let snap = Affine::<f32>::from_precision(&fitted);
            assert_eq!(snap.dim(), 3);
            snap.transform_into(&x, &mut z32);
            for (got, want) in z32.iter().zip(transform(&fitted, &x)) {
                assert!((f64::from(*got) - want).abs() <= 1e-5 * want.abs().max(1.0));
            }
            snap.inverse_tail_into(&z32, &mut back);
            for (got, want) in back.iter().zip(&x) {
                assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0), "{got} vs {want}");
            }
        }
    }

    #[test]
    fn f32_snapshot_refresh_picks_up_new_statistics() {
        let s1 = Affine::standardize(&[fv(&[0.0, 10.0]), fv(&[2.0, 30.0])]);
        let s2 = Affine::standardize(&[fv(&[5.0, -1.0]), fv(&[9.0, 7.0])]);
        let mut snap = Affine::<f32>::from_precision(&s1);
        snap.convert_from(&s2);
        let fresh = Affine::<f32>::from_precision(&s2);
        let x = [6.5, 3.0];
        let (mut a, mut b) = ([0.0f32; 2], [0.0f32; 2]);
        snap.transform_into(&x, &mut a);
        fresh.transform_into(&x, &mut b);
        assert_eq!(a, b, "re-sync must equal a from-scratch snapshot");
    }

    #[test]
    fn f32_snapshot_tail_inverse_uses_suffix_stats() {
        let s = Affine::standardize(&[fv(&[0.0, 100.0]), fv(&[2.0, 300.0])]);
        let snap = Affine::<f32>::from_precision(&s);
        let mut out = [0.0f64; 1];
        snap.inverse_tail_into(&[1.0f32], &mut out);
        assert!((out[0] - 300.0).abs() < 1e-3, "{}", out[0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn f32_snapshot_refresh_rejects_resize() {
        let s1 = Affine::standardize(&[fv(&[0.0, 1.0]), fv(&[2.0, 3.0])]);
        let s2 = Affine::standardize(&[fv(&[0.0]), fv(&[2.0])]);
        let mut snap = Affine::<f32>::from_precision(&s1);
        snap.convert_from(&s2);
    }

    #[test]
    fn state_equal_detects_clones_and_divergence() {
        let train = vec![fv(&[1.0, 2.0]), fv(&[4.0, -1.0]), fv(&[2.5, 0.5])];
        let s = Affine::standardize(&train);
        assert!(s.state_equal(&s.clone()));
        let other = Affine::standardize(&train[..2]);
        assert!(!s.state_equal(&other));
        let mm = Affine::min_max(&train);
        assert!(mm.state_equal(&mm.clone()));
        let mm2 = Affine::min_max(&[fv(&[0.0, 0.0]), fv(&[9.0, 1.0])]);
        assert!(!mm.state_equal(&mm2));
    }
}
