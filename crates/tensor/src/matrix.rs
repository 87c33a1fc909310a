//! Dense row-major matrix, generic over element precision.
//!
//! [`Matrix<T>`] stores `rows * cols` values contiguously in row-major order
//! for `T ∈ {f32, f64}` (the sealed [`Scalar`] trait). `Matrix` with no
//! parameter means `Matrix<f64>` — the training/evaluation precision whose
//! kernel operation order is pinned for bitwise reproducibility (see
//! [`crate::scalar`]); `Matrix<f32>` backs the inference-only fast path.
//!
//! All binary operations panic on shape mismatch — a shape mismatch in this
//! workspace is always a programming error, never a data error, so the panic
//! sites double as cheap internal assertions for the model implementations.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::scalar::Scalar;

/// A dense row-major matrix over precision `T` (default `f64`).
#[derive(Clone, PartialEq)]
pub struct Matrix<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![T::ZERO; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Changes the logical row count in place, keeping `cols` fixed.
    ///
    /// Shrinking truncates the row-major storage; growing appends zeroed
    /// rows. Within the largest row count the matrix has ever had, neither
    /// direction allocates — this is what lets the NN workspaces process a
    /// trailing partial minibatch without touching the heap.
    pub fn resize_rows(&mut self, rows: usize) {
        self.rows = rows;
        self.data.resize(rows * self.cols, T::ZERO);
    }

    /// Overwrites `self` element-wise from `rhs` (no allocation).
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, rhs: &Matrix<T>) {
        assert_eq!(self.shape(), rhs.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&rhs.data);
    }

    /// Overwrites `self` element-wise from another precision (no
    /// allocation) — the weight-refresh kernel of the f32 inference plans.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn convert_from<U: Scalar>(&mut self, src: &Matrix<U>) {
        assert_eq!(self.shape(), src.shape(), "convert_from shape mismatch");
        for (o, &v) in self.data.iter_mut().zip(&src.data) {
            *o = T::from_f64(v.to_f64());
        }
    }

    /// Creates a matrix by converting every element of `src` to `T`.
    pub fn from_precision<U: Scalar>(src: &Matrix<U>) -> Self {
        let mut out = Self::zeros(src.rows, src.cols);
        out.convert_from(src);
        out
    }

    /// Sets every element to `value` in place (no allocation).
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Creates a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    ///
    /// Allocates; column-walking hot paths should prefer the strided
    /// [`Matrix::col_iter`].
    pub fn col(&self, j: usize) -> Vec<T> {
        self.col_iter(j).collect()
    }

    /// Iterates column `j` top to bottom without allocating — one strided
    /// load per row.
    #[inline]
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = T> + '_ {
        assert!(j < self.cols, "column index {j} out of range for {} cols", self.cols);
        self.data.iter().skip(j).step_by(self.cols).copied()
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses the classic i-k-j loop order so the innermost loop walks both
    /// operands contiguously (see the Rust Performance Book on cache-friendly
    /// traversal).
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Allocation-free [`Matrix::matmul`]: writes `self * rhs` into `out`
    /// (overwriting it). The batched NN training path calls this every step
    /// with a workspace-owned output buffer.
    ///
    /// The i-k-j sweep is register-blocked 4 deep in `k`: when four
    /// consecutive `a` coefficients are all nonzero the four row sweeps fuse
    /// into one [`rank4_update_tiled`] pass (the output row is loaded/stored
    /// once per tile instead of once per `k`); otherwise each `k` falls back
    /// to an individual [`axpy_tiled`] sweep with the historical
    /// skip-zero-coefficient shortcut. Per output element the `+=` sequence
    /// stays in ascending-`k` order either way, so the f64 instantiation is
    /// bitwise-identical to the pre-tiled kernel.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows` or `out` is not `self.rows x rhs.cols`.
    pub fn matmul_into(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.rows, rhs.cols), "matmul_into output shape mismatch");
        out.data.fill(T::ZERO);
        let n = rhs.cols;
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let orow = &mut out.data[i * n..(i + 1) * n];
            let mut k = 0;
            while k + 4 <= self.cols {
                let a = [arow[k], arow[k + 1], arow[k + 2], arow[k + 3]];
                let rr = &rhs.data[k * n..(k + 4) * n];
                if a[0] != T::ZERO && a[1] != T::ZERO && a[2] != T::ZERO && a[3] != T::ZERO {
                    T::rank4_update(a, &rr[..n], &rr[n..2 * n], &rr[2 * n..3 * n], &rr[3 * n..], orow);
                } else {
                    for (t, &av) in a.iter().enumerate() {
                        if av == T::ZERO {
                            continue;
                        }
                        T::axpy(av, &rr[t * n..(t + 1) * n], orow);
                    }
                }
                k += 4;
            }
            for (kk, &av) in arow.iter().enumerate().skip(k) {
                if av == T::ZERO {
                    continue;
                }
                T::axpy(av, &rhs.data[kk * n..(kk + 1) * n], orow);
            }
        }
    }

    /// Transposed-left product `self^T * rhs` without materializing the
    /// transpose — the normal-equations kernel (`A^T A`, `A^T B`).
    ///
    /// Accumulates one rank-1 row sweep per shared row `i`: the innermost
    /// loop walks `rhs` and the output contiguously, matching the cache
    /// behaviour of the i-k-j [`Matrix::matmul`] while skipping the
    /// `O(rows·cols)` transpose allocation + strided copy entirely.
    ///
    /// # Panics
    /// Panics if `self.rows != rhs.rows`.
    pub fn matmul_transpose_a(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_transpose_a_acc(rhs, &mut out);
        out
    }

    /// Accumulating, allocation-free [`Matrix::matmul_transpose_a`]:
    /// `out += self^T * rhs`.
    ///
    /// This is the minibatch weight-gradient kernel: with `self = δ`
    /// (`batch x out_dim`) and `rhs = X` (`batch x in_dim`) it accumulates
    /// `Σ_s δ_s x_s^T` — one rank-1 row sweep per *sample*, in ascending
    /// sample order. The summation order therefore matches a per-sample
    /// backward loop exactly, which is what makes the batched training path
    /// bitwise-reproducible against the per-sample path (see the parity
    /// tests in `sad-nn`). Each sweep runs through the 8-wide
    /// [`axpy_tiled`] tile, which preserves that order element-for-element.
    ///
    /// # Panics
    /// Panics if `self.rows != rhs.rows` or `out` is not `self.cols x rhs.cols`.
    pub fn matmul_transpose_a_acc(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_transpose_a shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            out.shape(),
            (self.cols, rhs.cols),
            "matmul_transpose_a_acc output shape mismatch"
        );
        let n = rhs.cols;
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let rrow = &rhs.data[i * n..(i + 1) * n];
            for (k, &a) in arow.iter().enumerate() {
                if a == T::ZERO {
                    continue;
                }
                T::axpy(a, rrow, &mut out.data[k * n..(k + 1) * n]);
            }
        }
    }

    /// Transposed-right product `self * rhs^T` without materializing the
    /// transpose.
    ///
    /// Every output element is a dot product of two *contiguous* rows, so
    /// the kernel never strides: `out[i][j] = self.row(i) · rhs.row(j)`.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_transpose_b(&self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_transpose_b_into(rhs, &mut out);
        out
    }

    /// Allocation-free [`Matrix::matmul_transpose_b`]: writes
    /// `self * rhs^T` into `out` (overwriting it).
    ///
    /// This is the minibatch *forward* kernel: with `self = X`
    /// (`batch x in_dim`) and `rhs = W` (`out_dim x in_dim`) every output
    /// element is [`Scalar::dot`] of `x_s` and `w_j` — the identical
    /// pinned-lane dot product [`Matrix::matvec`] uses per sample, so the
    /// batched forward is bitwise-equal to `batch` independent matvecs.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.cols` or `out` is not `self.rows x rhs.rows`.
    pub fn matmul_transpose_b_into(&self, rhs: &Matrix<T>, out: &mut Matrix<T>) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_transpose_b shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(out.shape(), (self.rows, rhs.rows), "matmul_transpose_b_into shape mismatch");
        // Register-blocked micro-kernel (AVX2 panel, one pinned lane
        // accumulator per output element) when the build and CPU carry it;
        // the per-element dot loop below is the bitwise-identical portable
        // path. The dispatch check runs once per GEMM, not per element.
        if T::gemm_tb_blocked(&self.data, &rhs.data, &mut out.data, self.rows, rhs.rows, self.cols) {
            return;
        }
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let orow = &mut out.data[i * rhs.rows..(i + 1) * rhs.rows];
            for (j, o) in orow.iter_mut().enumerate() {
                let rrow = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                *o = T::dot(arow, rrow);
            }
        }
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols`.
    pub fn matvec(&self, v: &[T]) -> Vec<T> {
        assert_eq!(v.len(), self.cols, "matvec shape mismatch");
        (0..self.rows).map(|i| T::dot(self.row(i), v)).collect()
    }

    /// Transposed matrix-vector product `self^T * v` without materializing
    /// the transpose (hot in backprop).
    ///
    /// # Panics
    /// Panics if `v.len() != self.rows`.
    pub fn matvec_t(&self, v: &[T]) -> Vec<T> {
        assert_eq!(v.len(), self.rows, "matvec_t shape mismatch");
        let mut out = vec![T::ZERO; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == T::ZERO {
                continue;
            }
            T::axpy(vi, self.row(i), &mut out);
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix<T> {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for (o, v) in out.row_mut(j).iter_mut().zip(self.col_iter(j)) {
                *o = v;
            }
        }
        out
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix<T>) -> Matrix<T> {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix<T>) -> Matrix<T> {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, rhs: &Matrix<T>) -> Matrix<T> {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Scales every element by `s`, returning a new matrix.
    pub fn scale(&self, s: T) -> Matrix<T> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v * s).collect(),
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(T) -> T) -> Matrix<T> {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> T {
        self.data.iter().fold(T::ZERO, |acc, &v| acc + v * v).sqrt()
    }

    /// `true` if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    fn zip_with(&self, rhs: &Matrix<T>, f: impl Fn(T, T) -> T) -> Matrix<T> {
        assert_eq!(self.shape(), rhs.shape(), "element-wise op shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::<f64>::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::<f64>::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
        assert_eq!(Matrix::identity(3).matmul(&a), a);
    }

    #[test]
    fn matmul_f32_known_product() {
        let a: Matrix<f32> = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b: Matrix<f32> = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(a.matmul(&b), Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn precision_conversion_round_trips_exact_values() {
        let a = Matrix::from_fn(3, 5, |i, j| (i as f64) - (j as f64) * 0.5);
        let f: Matrix<f32> = Matrix::from_precision(&a);
        let mut back = Matrix::zeros(3, 5);
        back.convert_from(&f);
        // Halves and small integers are exact in both precisions.
        assert_eq!(back, a);
    }

    #[test]
    fn matmul_transpose_a_equals_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 - 5.0);
        let b = Matrix::from_fn(4, 2, |i, j| (i as f64) * 0.5 - (j as f64));
        assert_eq!(a.matmul_transpose_a(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_transpose_b_equals_explicit_transpose() {
        let a = Matrix::from_fn(3, 5, |i, j| (i + 2 * j) as f64 * 0.25);
        let b = Matrix::from_fn(4, 5, |i, j| (i as f64) - (j as f64) * 1.5);
        assert_eq!(a.matmul_transpose_b(&b), a.matmul(&b.transpose()));
    }

    #[test]
    #[should_panic(expected = "matmul_transpose_a shape mismatch")]
    fn matmul_transpose_a_shape_mismatch_panics() {
        let _ = Matrix::<f64>::zeros(2, 3).matmul_transpose_a(&Matrix::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "matmul_transpose_b shape mismatch")]
    fn matmul_transpose_b_shape_mismatch_panics() {
        let _ = Matrix::<f64>::zeros(2, 3).matmul_transpose_b(&Matrix::zeros(3, 2));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, -1.0, 2.0], &[0.0, 3.0, 1.0]]);
        let v = vec![2.0, 1.0, 0.5];
        assert_eq!(a.matvec(&v), vec![2.0, 3.5]);
    }

    #[test]
    fn matvec_t_equals_transpose_matvec() {
        let a = Matrix::from_fn(4, 3, |i, j| (i as f64) - (j as f64) * 0.5);
        let v = vec![1.0, -2.0, 0.5, 3.0];
        assert_eq!(a.matvec_t(&v), a.transpose().matvec(&v));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(2, 5, |i, j| (i + j) as f64 * 1.5);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 10.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = Matrix::from_fn(3, 4, |i, j| (i + j) as f64 * 0.5 - 1.0);
        let b = Matrix::from_fn(4, 2, |i, j| (i as f64) - (j as f64) * 2.0);
        let mut out = Matrix::filled(3, 2, 99.0); // stale contents must be overwritten
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn matmul_transpose_a_acc_accumulates() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 - 5.0);
        let b = Matrix::from_fn(4, 2, |i, j| (i as f64) * 0.5 - (j as f64));
        let mut out = Matrix::zeros(3, 2);
        a.matmul_transpose_a_acc(&b, &mut out);
        a.matmul_transpose_a_acc(&b, &mut out);
        let twice = a.matmul_transpose_a(&b).scale(2.0);
        assert_eq!(out, twice);
    }

    #[test]
    fn matmul_transpose_b_into_matches() {
        let a = Matrix::from_fn(3, 5, |i, j| (i + 2 * j) as f64 * 0.25);
        let b = Matrix::from_fn(4, 5, |i, j| (i as f64) - (j as f64) * 1.5);
        let mut out = Matrix::filled(3, 4, -3.0);
        a.matmul_transpose_b_into(&b, &mut out);
        assert_eq!(out, a.matmul_transpose_b(&b));
    }

    #[test]
    fn resize_rows_shrinks_and_regrows_zeroed() {
        let mut m = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 + 1.0);
        m.resize_rows(2);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        m.resize_rows(4);
        assert_eq!(m.shape(), (4, 3));
        // Regrown rows are zeroed, not stale.
        assert!(m.row(2).iter().chain(m.row(3)).all(|&v| v == 0.0));
    }

    #[test]
    fn copy_from_and_fill() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut b = Matrix::zeros(2, 2);
        b.copy_from(&a);
        assert_eq!(a, b);
        b.fill(7.0);
        assert!(b.as_slice().iter().all(|&v| v == 7.0));
    }

    #[test]
    #[should_panic(expected = "copy_from shape mismatch")]
    fn copy_from_shape_mismatch_panics() {
        let mut b = Matrix::<f64>::zeros(2, 3);
        b.copy_from(&Matrix::zeros(3, 2));
    }

    #[test]
    fn frobenius_norm_of_345() {
        let a = Matrix::from_rows(&[&[3.0], &[4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn row_and_col_access() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = Matrix::zeros(2, 2);
        assert!(a.is_finite());
        a[(1, 1)] = f64::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn map_applies_function() {
        let a = Matrix::from_rows(&[&[-1.0, 4.0]]);
        assert_eq!(a.map(f64::abs), Matrix::from_rows(&[&[1.0, 4.0]]));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
            proptest::collection::vec(-100.0f64..100.0, rows * cols)
                .prop_map(move |data| Matrix::from_vec(rows, cols, data))
        }

        fn close(a: &Matrix, b: &Matrix, tol: f64) -> bool {
            a.shape() == b.shape()
                && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| (x - y).abs() < tol)
        }

        proptest! {
            /// (AB)C == A(BC) on random small matrices.
            #[test]
            fn matmul_is_associative(
                a in matrix(3, 4),
                b in matrix(4, 2),
                c in matrix(2, 5),
            ) {
                let left = a.matmul(&b).matmul(&c);
                let right = a.matmul(&b.matmul(&c));
                prop_assert!(close(&left, &right, 1e-6));
            }

            /// (AB)^T == B^T A^T.
            #[test]
            fn transpose_reverses_products(a in matrix(3, 4), b in matrix(4, 2)) {
                let lhs = a.matmul(&b).transpose();
                let rhs = b.transpose().matmul(&a.transpose());
                prop_assert!(close(&lhs, &rhs, 1e-9));
            }

            /// A(x + y) == Ax + Ay (matvec distributes).
            #[test]
            fn matvec_is_linear(
                a in matrix(4, 3),
                x in proptest::collection::vec(-50.0f64..50.0, 3),
                y in proptest::collection::vec(-50.0f64..50.0, 3),
            ) {
                let sum: Vec<f64> = x.iter().zip(&y).map(|(p, q)| p + q).collect();
                let lhs = a.matvec(&sum);
                let ax = a.matvec(&x);
                let ay = a.matvec(&y);
                for (l, (p, q)) in lhs.iter().zip(ax.iter().zip(&ay)) {
                    prop_assert!((l - (p + q)).abs() < 1e-8);
                }
            }

            /// A^T·B via the rank-1 row-sweep kernel equals the
            /// transpose-then-multiply reference on random matrices.
            #[test]
            fn matmul_transpose_a_matches_reference(a in matrix(5, 3), b in matrix(5, 4)) {
                let fast = a.matmul_transpose_a(&b);
                let reference = a.transpose().matmul(&b);
                prop_assert!(close(&fast, &reference, 1e-9));
            }

            /// A·B^T via the row-dot kernel equals the reference.
            #[test]
            fn matmul_transpose_b_matches_reference(a in matrix(3, 5), b in matrix(4, 5)) {
                let fast = a.matmul_transpose_b(&b);
                let reference = a.matmul(&b.transpose());
                prop_assert!(close(&fast, &reference, 1e-9));
            }

            /// add/sub round-trips to the original matrix.
            #[test]
            fn add_then_sub_is_identity(a in matrix(3, 3), b in matrix(3, 3)) {
                let back = a.add(&b).sub(&b);
                prop_assert!(close(&back, &a, 1e-9));
            }
        }
    }
}
