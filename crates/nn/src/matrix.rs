//! Dense row-major f32 matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Matrix filled with a constant.
    #[must_use]
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Build from row slices.
    ///
    /// # Panics
    /// Panics on empty input or ragged rows.
    #[must_use]
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match dimensions");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data }
    }

    /// A 1×1 matrix.
    #[must_use]
    pub fn scalar(v: f32) -> Self {
        Matrix::from_vec(1, 1, vec![v])
    }

    /// A 1×n row vector.
    #[must_use]
    pub fn row(values: &[f32]) -> Self {
        Matrix::from_rows(&[values])
    }

    /// Number of rows.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major data.
    #[inline]
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    #[must_use]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Fill with a constant.
    #[inline]
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Reshape in place to `rows x cols`, zero-filling every element.
    /// Keeps the existing allocation when capacity suffices, which is
    /// what lets [`crate::infer::InferCtx`] reuse scratch matrices
    /// across forward passes without touching the allocator.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Become an element-wise copy of `src`, reusing the allocation.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix product `self x rhs`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.accumulate_matmul(rhs, &mut out);
        out
    }

    /// Matrix product `self x rhs` written into `out` (resized in
    /// place), so hot inference loops can avoid a fresh allocation per
    /// product. Bit-identical to [`Matrix::matmul`] — both run the same
    /// accumulation kernel.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        out.resize_to(self.rows, rhs.cols);
        self.accumulate_matmul(rhs, out);
    }

    /// The shared i-k-j accumulation kernel behind `matmul` /
    /// `matmul_into`. `out` must be zeroed and shaped `self.rows x
    /// rhs.cols`.
    ///
    /// Each output element accumulates its `k` contributions in
    /// ascending order with the same zero skip regardless of kernel
    /// kind. Under `Lanes8` the register-blocked columns fuse each
    /// product into its accumulation (`mul_add`, one rounding instead
    /// of two — see [`crate::simd::matmul_lanes8`]), so the two kinds
    /// can differ by that rounding; what the inference path pins on is
    /// that the tape and tape-free forwards share this one kernel, so
    /// they agree bitwise under whichever kind is active.
    fn accumulate_matmul(&self, rhs: &Matrix, out: &mut Matrix) {
        if rhs.cols == 1 {
            // Matvec (attention-score projections are the common case):
            // each output element is a single accumulation over one row
            // of `self` and the contiguous column vector — one fused
            // loop per row instead of one length-1 axpy call per
            // (row, k) pair. Accumulation order and the zero skip are
            // exactly those of the axpy loop below, so this stays
            // bit-identical under either kernel kind; the `Lanes8`
            // selection interleaves four rows' accumulator chains to
            // hide the add latency (see `simd::matvec_lanes8`).
            if matches!(crate::simd::kind(), crate::simd::SimdKind::Lanes8) {
                crate::simd::matvec_lanes8(&self.data, self.cols, &rhs.data, &mut out.data);
                return;
            }
            for i in 0..self.rows {
                let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
                let mut acc = out.data[i];
                for (&a, &b) in a_row.iter().zip(&rhs.data) {
                    if a != 0.0 {
                        acc += a * b;
                    }
                }
                out.data[i] = acc;
            }
            return;
        }
        // Resolve the kernel kind once: the per-call atomic load and
        // match inside `simd::axpy` are measurable at head-dim-sized
        // rows (thousands of 16-element calls per forward), and hoisting
        // lets LLVM unswitch the nested loop into two specialized
        // bodies with the kernel inlined.
        let kind = crate::simd::kind();
        match kind {
            crate::simd::SimdKind::Scalar => {
                for i in 0..self.rows {
                    for k in 0..self.cols {
                        let a = self.data[i * self.cols + k];
                        if a == 0.0 {
                            continue;
                        }
                        let lhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                        let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                        crate::simd::axpy_scalar(out_row, a, lhs_row);
                    }
                }
            }
            crate::simd::SimdKind::Lanes8 => {
                // Register-blocked fused accumulation in `simd` (one
                // AVX2+FMA dispatch for the whole product — see
                // `simd::matmul_lanes8` for the rounding contract).
                crate::simd::matmul_lanes8(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
            }
        }
    }

    /// Matrix product `self x rhsᵀ` without materializing the
    /// transpose: both operands are walked row-by-row (each output cell
    /// is a dot product of two contiguous rows), so the backward pass
    /// of `MatMul` stops allocating and striding a transposed copy.
    ///
    /// Accumulation runs over `k` in ascending order with the same
    /// skip of zero left-hand elements as `self.matmul(&rhs.transpose())`,
    /// with separate multiply-then-add per step — bit-identical to the
    /// explicit-transpose product for output widths below 8; on wider
    /// outputs the `Lanes8` matmul fuses its leading column blocks
    /// (see `simd::matmul_lanes8`), so the two agree only
    /// within one rounding per product there. Backward-pass use is
    /// tolerance-governed either way.
    ///
    /// # Panics
    /// Panics unless `self.cols == rhs.cols`.
    #[must_use]
    pub fn matmul_transposed(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_transposed dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * rhs.rows..(i + 1) * rhs.rows];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    if a == 0.0 {
                        continue;
                    }
                    acc += a * b;
                }
                *o = acc;
            }
        }
        out
    }

    /// Fused-order variant of [`Matrix::matmul_transposed`]: each
    /// output cell is one [`crate::simd::dot`] over two contiguous
    /// rows, using 8 parallel accumulators instead of the sequential
    /// zero-skipping scan. Matches the order-preserving form only
    /// within the kernel tolerance contract (≤1e-5 relative, pinned by
    /// the kernel proptests), so it is reserved for the matmul input
    /// gradient, which the tape and the tape-free backward
    /// ([`Matrix::matmul_transposed_fast_acc`]) share; the forward paths
    /// pinned by bit-equality tests must keep `matmul_transposed`.
    ///
    /// # Panics
    /// Panics unless `self.cols == rhs.cols`.
    #[must_use]
    pub fn matmul_transposed_fast(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_transposed dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * rhs.rows..(i + 1) * rhs.rows];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                *o = crate::simd::dot(a_row, b_row);
            }
        }
        out
    }

    /// `out += self x rhsᵀ` with each cell's product from the same
    /// [`crate::simd::dot`] as [`Matrix::matmul_transposed_fast`], so
    /// it is bit-identical to adding that product to `out` with
    /// [`Matrix::add_assign`] — the tape's `MatMul` input gradient —
    /// without the intermediate matrix.
    ///
    /// # Panics
    /// Panics unless `self.cols == rhs.cols` and `out` is
    /// `self.rows x rhs.rows`.
    pub fn matmul_transposed_fast_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.cols, "matmul_transposed dimension mismatch");
        assert_eq!((out.rows, out.cols), (self.rows, rhs.rows), "output shape mismatch");
        crate::simd::matmul_transposed_acc(&self.data, &rhs.data, self.cols, &mut out.data);
    }

    /// Matrix product `selfᵀ x rhs` without materializing the
    /// transpose: the accumulation walks `self` and `rhs` row-by-row
    /// and scatters into `out` rows, keeping every access contiguous.
    ///
    /// For each output cell the contributions arrive in the same
    /// (ascending-`i`) order with the same zero skip as
    /// `self.transpose().matmul(rhs)`, through the order-preserving
    /// [`crate::simd::axpy`] kernel (separate multiply-then-add) —
    /// bit-identical to the explicit-transpose product for output
    /// widths below 8; on wider outputs the `Lanes8` matmul fuses its
    /// leading column blocks (see `simd::matmul_lanes8`), so
    /// the two agree only within one rounding per product there.
    ///
    /// # Panics
    /// Panics unless `self.rows == rhs.rows`.
    #[must_use]
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::transpose_matmul`] written into `out` (resized in
    /// place); the same kernel, so the same bits.
    ///
    /// # Panics
    /// Panics unless `self.rows == rhs.rows`.
    pub fn transpose_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "transpose_matmul dimension mismatch");
        out.resize_to(self.cols, rhs.cols);
        crate::simd::transpose_matmul_acc(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Element-wise addition in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Scale every element in place.
    pub fn scale_assign(&mut self, k: f32) {
        for a in &mut self.data {
            *a *= k;
        }
    }

    /// Map every element.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Map every element in place — the allocation-free counterpart of
    /// [`Matrix::map`] for paths that own the matrix anyway.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Frobenius norm.
    #[must_use]
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| f64::from(*v) * f64::from(*v)).sum::<f64>().sqrt() as f32
    }

    /// Maximum absolute difference to another matrix (∞-norm of the
    /// difference); used by tests.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[must_use]
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols), "shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.add_assign(&b);
        a.scale_assign(0.5);
        assert_eq!(a, Matrix::filled(2, 2, 1.5));
    }

    #[test]
    fn norm_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[3.0, -4.0, 5.0]]);
        let b = Matrix::from_rows(&[&[0.5, 0.0, -1.0], &[2.0, 3.0, 4.0]]);
        assert_eq!(a.matmul_transposed(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_transposed_fast_matches_reference_within_tolerance() {
        let a = Matrix::from_vec(5, 19, (0..95).map(|i| ((i as f32) * 0.31).sin()).collect());
        let b = Matrix::from_vec(7, 19, (0..133).map(|i| ((i as f32) * 0.17).cos()).collect());
        let fast = a.matmul_transposed_fast(&b);
        let reference = a.matmul_transposed(&b);
        assert!(fast.max_abs_diff(&reference) <= 1e-5, "fused dot drifted past the contract");
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, -4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 3.0], &[0.0, 4.0]]);
        assert_eq!(a.transpose_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_into_matches_matmul_and_reuses_storage() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut out = Matrix::filled(4, 4, 9.0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn resize_to_zeroes_stale_data() {
        let mut m = Matrix::filled(3, 3, 7.0);
        m.resize_to(2, 2);
        assert_eq!(m, Matrix::zeros(2, 2));
    }

    #[test]
    fn map_assign_matches_map() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]);
        let mut b = a.clone();
        b.map_assign(|v| v.max(0.0));
        assert_eq!(b, a.map(|v| v.max(0.0)));
    }

    #[test]
    fn max_abs_diff_finds_largest() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.5, 1.0]]);
        assert!((a.max_abs_diff(&b) - 1.0).abs() < 1e-6);
    }
}
