//! Data representation (paper Definition III.1).
//!
//! A stream `S = {s_1, …, s_t}` with `s_i ∈ R^N` is transformed into a
//! feature vector `x_t = D(s_{t−w+1}, …, s_t)`. The paper's experiments use
//! one representation — the raw window `x_t = [s_{t−w+1}, …, s_t]ᵀ` — since
//! the ML models learn their own representations internally (§IV-A).

/// A feature vector `x_t ∈ R^{w×N}`: the last `w` stream vectors, stored
/// row-major as `data[step * n + channel]` (oldest step first, so the last
/// row is `s_t`).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    data: Vec<f64>,
    w: usize,
    n: usize,
}

impl FeatureVector {
    /// Creates a feature vector from row-major window data.
    ///
    /// # Panics
    /// Panics if `data.len() != w * n` or either dimension is zero.
    pub fn new(data: Vec<f64>, w: usize, n: usize) -> Self {
        assert!(w > 0 && n > 0, "feature vector dimensions must be positive");
        assert_eq!(data.len(), w * n, "feature vector data length mismatch");
        Self { data, w, n }
    }

    /// Representation length `w` (number of time steps).
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Channel count `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Flat dimensionality `w · N`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.data.len()
    }

    /// The flattened feature vector (reshaping operation `r(x_t)` of §IV-C).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The stream vector at window position `i` (`0` = oldest).
    #[inline]
    pub fn step(&self, i: usize) -> &[f64] {
        assert!(i < self.w, "step index out of range");
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// The most recent stream vector `s_t`.
    #[inline]
    pub fn last_step(&self) -> &[f64] {
        self.step(self.w - 1)
    }

    /// Strided iterator over the `w` values of channel `j`, oldest first.
    /// Allocation-free: collect it, or extend a reusable scratch buffer
    /// from it, where a slice is needed.
    #[inline]
    pub fn channel_iter(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(j < self.n, "channel index out of range");
        self.data.iter().skip(j).step_by(self.n).copied()
    }

    /// `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// An all-zero feature vector of the given shape — a reusable scratch
    /// buffer for [`RawWindow::push_into`].
    pub fn zeroed(w: usize, n: usize) -> Self {
        Self::new(vec![0.0; w * n], w, n)
    }

    /// Overwrites this vector's contents with `other`'s, without touching
    /// the heap.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    #[inline]
    pub fn copy_from(&mut self, other: &FeatureVector) {
        assert!(self.w == other.w && self.n == other.n, "feature vector shape mismatch");
        self.data.copy_from_slice(&other.data);
    }
}

/// A data representation function `D` (Definition III.1).
///
/// Implementations consume the stream one vector at a time and emit a
/// feature vector once enough history has accumulated.
pub trait DataRepresentation {
    /// Window length `w` this representation needs.
    fn window(&self) -> usize;

    /// Pushes stream vector `s_t`; returns `Some(x_t)` once `w` vectors
    /// have been observed (and on every step thereafter).
    fn push(&mut self, s: &[f64]) -> Option<FeatureVector>;

    /// Clears the internal history.
    fn reset(&mut self);
}

/// The paper's raw-window representation `x_t = [s_{t−w+1}, …, s_t]ᵀ`.
///
/// The history is a flat row-major ring (`w` rows of `n` values) so the
/// per-step hot path touches no heap: [`Self::push_into`] overwrites the
/// oldest row in place and copies the ordered window into a caller-owned
/// scratch [`FeatureVector`].
#[derive(Debug, Clone)]
pub struct RawWindow {
    w: usize,
    n: usize,
    /// Flat `w × n` ring storage; row `head` is the oldest once full.
    ring: Vec<f64>,
    /// Rows filled so far (saturates at `w`).
    len: usize,
    /// Index of the oldest row once the ring is full.
    head: usize,
}

impl RawWindow {
    /// Creates the representation for window length `w` over `n` channels.
    pub fn new(w: usize, n: usize) -> Self {
        assert!(w > 0 && n > 0, "window and channel count must be positive");
        Self { w, n, ring: vec![0.0; w * n], len: 0, head: 0 }
    }

    /// Channel count `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Pushes stream vector `s_t` without allocating: the ring row holding
    /// the oldest step is overwritten in place, and once `w` vectors have
    /// been observed the ordered window is copied into `out` (oldest step
    /// first). Returns `true` iff `out` now holds `x_t`.
    ///
    /// # Panics
    /// Panics if `s.len() != n` or `out`'s shape is not `(w, n)`.
    pub fn push_into(&mut self, s: &[f64], out: &mut FeatureVector) -> bool {
        assert_eq!(s.len(), self.n, "stream vector channel count mismatch");
        assert!(out.w == self.w && out.n == self.n, "scratch feature vector shape mismatch");
        let n = self.n;
        if self.len < self.w {
            self.ring[self.len * n..(self.len + 1) * n].copy_from_slice(s);
            self.len += 1;
            if self.len < self.w {
                return false;
            }
        } else {
            self.ring[self.head * n..(self.head + 1) * n].copy_from_slice(s);
            self.head = (self.head + 1) % self.w;
        }
        // Unroll the ring into chronological order: rows head..w, then
        // 0..head.
        let tail_rows = self.w - self.head;
        out.data[..tail_rows * n].copy_from_slice(&self.ring[self.head * n..]);
        out.data[tail_rows * n..].copy_from_slice(&self.ring[..self.head * n]);
        true
    }
}

impl DataRepresentation for RawWindow {
    fn window(&self) -> usize {
        self.w
    }

    fn push(&mut self, s: &[f64]) -> Option<FeatureVector> {
        let mut out = FeatureVector::zeroed(self.w, self.n);
        self.push_into(s, &mut out).then_some(out)
    }

    fn reset(&mut self) {
        self.len = 0;
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_agree_with_layout() {
        // w=3 steps, n=2 channels.
        let fv = FeatureVector::new(vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0], 3, 2);
        assert_eq!(fv.dim(), 6);
        assert_eq!(fv.step(0), &[1.0, 10.0]);
        assert_eq!(fv.last_step(), &[3.0, 30.0]);
        assert_eq!(fv.channel_iter(0).collect::<Vec<_>>(), vec![1.0, 2.0, 3.0]);
        assert_eq!(fv.channel_iter(1).collect::<Vec<_>>(), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn raw_window_emits_after_w_steps() {
        let mut repr = RawWindow::new(3, 1);
        assert!(repr.push(&[1.0]).is_none());
        assert!(repr.push(&[2.0]).is_none());
        let x = repr.push(&[3.0]).expect("third push fills the window");
        assert_eq!(x.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn raw_window_slides() {
        let mut repr = RawWindow::new(2, 2);
        repr.push(&[1.0, 1.5]);
        repr.push(&[2.0, 2.5]);
        let x = repr.push(&[3.0, 3.5]).unwrap();
        assert_eq!(x.as_slice(), &[2.0, 2.5, 3.0, 3.5]);
        assert_eq!(x.last_step(), &[3.0, 3.5]);
    }

    #[test]
    fn reset_clears_history() {
        let mut repr = RawWindow::new(2, 1);
        repr.push(&[1.0]);
        repr.push(&[2.0]);
        repr.reset();
        assert!(repr.push(&[3.0]).is_none());
    }

    #[test]
    fn push_into_matches_push_bitwise() {
        let mut a = RawWindow::new(4, 2);
        let mut b = RawWindow::new(4, 2);
        let mut scratch = FeatureVector::zeroed(4, 2);
        for t in 0..30 {
            let s = [(t as f64 * 0.37).sin(), (t as f64 * 0.11).cos()];
            let via_push = a.push(&s);
            let filled = b.push_into(&s, &mut scratch);
            assert_eq!(via_push.is_some(), filled, "t={t}");
            if let Some(x) = via_push {
                assert_eq!(x.as_slice(), scratch.as_slice(), "t={t}");
            }
        }
    }

    #[test]
    fn push_into_survives_reset() {
        let mut repr = RawWindow::new(2, 1);
        let mut scratch = FeatureVector::zeroed(2, 1);
        assert!(!repr.push_into(&[1.0], &mut scratch));
        assert!(repr.push_into(&[2.0], &mut scratch));
        repr.reset();
        assert!(!repr.push_into(&[3.0], &mut scratch));
        assert!(repr.push_into(&[4.0], &mut scratch));
        assert_eq!(scratch.as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let mut dst = FeatureVector::zeroed(2, 2);
        let src = FeatureVector::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        dst.copy_from(&src);
        assert_eq!(dst.as_slice(), src.as_slice());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn copy_from_shape_mismatch_panics() {
        let mut dst = FeatureVector::zeroed(2, 2);
        dst.copy_from(&FeatureVector::zeroed(2, 3));
    }

    #[test]
    fn is_finite_flags_nan() {
        let ok = FeatureVector::new(vec![0.0; 4], 2, 2);
        assert!(ok.is_finite());
        let bad = FeatureVector::new(vec![0.0, f64::NAN, 0.0, 0.0], 2, 2);
        assert!(!bad.is_finite());
    }

    #[test]
    #[should_panic(expected = "channel count mismatch")]
    fn wrong_channel_count_panics() {
        let mut repr = RawWindow::new(2, 2);
        let _ = repr.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn bad_data_length_panics() {
        let _ = FeatureVector::new(vec![1.0; 5], 2, 2);
    }
}
