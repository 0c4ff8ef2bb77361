//! Dense row-major `f32` matrices.
//!
//! All shapes in the DAAKG models are rank ≤ 2, so [`Tensor`] is a matrix;
//! a vector is represented as a `1×d` matrix. Storage is a single `Vec<f32>`
//! for cache-friendly iteration (per the perf-book guidance on flat storage).

use std::fmt;

/// A dense `rows × cols` matrix of `f32` in row-major order.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// A `rows × cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// A `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// A `1×1` scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self::full(1, 1, value)
    }

    /// Build from an explicit data vector; `data.len()` must be
    /// `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} != {rows}x{cols}",
            data.len()
        );
        Self { data, rows, cols }
    }

    /// Build from row slices; all rows must have equal length.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            data,
            rows: rows.len(),
            cols,
        }
    }

    /// A `1×d` row vector from a slice.
    pub fn row_vector(v: &[f32]) -> Self {
        Self::from_vec(1, v.len(), v.to_vec())
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1×1` tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() on non-scalar tensor");
        self.data[0]
    }

    /// Elementwise in-place addition.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self += scale * other` (axpy).
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Matrix product `self · other`.
    ///
    /// Dense cache-blocked kernel, row-band parallel above
    /// `PAR_MIN_FLOPS`. The inner loop is a branch-free axpy so it
    /// vectorizes.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(m, n);
        if m * k * n == 0 {
            return out;
        }
        let a = &self.data;
        let b = &other.data;
        let kernel = |first_row: usize, band: &mut [f32]| {
            let band_rows = band.len() / n;
            // j-panels keep the touched slice of each `b` row resident;
            // k-panels bound the number of `b` rows cycled per pass, so the
            // working set (KB × JB floats of `b`) stays cache-sized.
            for jb in (0..n).step_by(Self::MM_JB) {
                let je = (jb + Self::MM_JB).min(n);
                for kb in (0..k).step_by(Self::MM_KB) {
                    let ke = (kb + Self::MM_KB).min(k);
                    for bi in 0..band_rows {
                        let i = first_row + bi;
                        let a_row = &a[i * k + kb..i * k + ke];
                        let out_row = &mut band[bi * n + jb..bi * n + je];
                        for (kk, &av) in a_row.iter().enumerate() {
                            let b_row = &b[(kb + kk) * n + jb..(kb + kk) * n + je];
                            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                                *o += av * bv;
                            }
                        }
                    }
                }
            }
        };
        if m * k * n >= Self::PAR_MIN_FLOPS {
            daakg_parallel::par_row_chunks_mut(&mut out.data, n, kernel);
        } else {
            kernel(0, &mut out.data);
        }
        out
    }

    /// k-panel height of the blocked matmul kernel.
    const MM_KB: usize = 64;
    /// j-panel width of the blocked matmul kernel (`MM_KB × MM_JB` f32 of
    /// the right operand ≈ 64 KiB, within L2 on any target machine).
    const MM_JB: usize = 256;
    /// Minimum multiply-add count before a product is worth spreading over
    /// threads; below this the spawn cost dominates.
    const PAR_MIN_FLOPS: usize = 1 << 16;

    /// Fused `self · otherᵀ` without materializing the transpose.
    ///
    /// Both operands are walked row-wise — every output element is a dot
    /// product of two contiguous rows — so this is strictly more
    /// cache-friendly than `matmul(&other.transpose())` and allocates no
    /// intermediate. Used by the batched similarity engine (query block ·
    /// candidate matrixᵀ) and the backward pass of `MatMul`.
    pub fn matmul_transpose(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Tensor::zeros(m, n);
        if m * k * n == 0 {
            return out;
        }
        let a = &self.data;
        let b = &other.data;
        let kernel = |first_row: usize, band: &mut [f32]| {
            let band_rows = band.len() / n;
            for bi in 0..band_rows {
                let i = first_row + bi;
                let a_row = &a[i * k..(i + 1) * k];
                let out_row = &mut band[bi * n..(bi + 1) * n];
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b_row = &b[j * k..(j + 1) * k];
                    *o = dot_unrolled(a_row, b_row);
                }
            }
        };
        if m * k * n >= Self::PAR_MIN_FLOPS {
            daakg_parallel::par_row_chunks_mut(&mut out.data, n, kernel);
        } else {
            kernel(0, &mut out.data);
        }
        out
    }

    /// Fused `selfᵀ · other` without materializing the transpose.
    ///
    /// `self` is `m×k`, `other` is `m×n`, the result is `k×n`: the sum of
    /// rank-1 updates `selfᵀ[·,i] · other[i,·]`. Parallelism splits the
    /// *output* rows (columns of `self`), so bands write disjoint memory.
    /// Used by the backward pass of `MatMul` (`∇B = Aᵀ·g`).
    pub fn tr_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "tr_matmul shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(k, n);
        if m * k * n == 0 {
            return out;
        }
        let a = &self.data;
        let b = &other.data;
        let kernel = |first_row: usize, band: &mut [f32]| {
            let band_rows = band.len() / n;
            for i in 0..m {
                let b_row = &b[i * n..(i + 1) * n];
                for bk in 0..band_rows {
                    let kk = first_row + bk;
                    let av = a[i * k + kk];
                    let out_row = &mut band[bk * n..(bk + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
        };
        if m * k * n >= Self::PAR_MIN_FLOPS {
            daakg_parallel::par_row_chunks_mut(&mut out.data, n, kernel);
        } else {
            kernel(0, &mut out.data);
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Dot product of two tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Frobenius (flat L2) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Gather a new tensor whose rows are `self.row(i)` for each index.
    pub fn gather_rows(&self, indices: &[u32]) -> Tensor {
        let mut out = Tensor::zeros(indices.len(), self.cols);
        for (o, &i) in indices.iter().enumerate() {
            let i = i as usize;
            assert!(i < self.rows, "gather index {i} out of {} rows", self.rows);
            out.data[o * self.cols..(o + 1) * self.cols]
                .copy_from_slice(&self.data[i * self.cols..(i + 1) * self.cols]);
        }
        out
    }

    /// L2-normalize each row in place. Rows with norm below `eps` are left
    /// unchanged.
    pub fn normalize_rows(&mut self, eps: f32) {
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            let n = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            if n > eps {
                for x in row.iter_mut() {
                    *x /= n;
                }
            }
        }
    }
}

/// Dot product with an 8-lane unrolled accumulator: the strictly-sequential
/// `zip().sum()` reduction cannot be vectorized (FP addition is not
/// associative, so LLVM must preserve order); 8 independent partial sums
/// give the autovectorizer a SIMD-shaped reduction. Result differs from the
/// sequential sum only by fp reassociation.
#[inline]
pub fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..8 {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut s = (acc[0] + acc[4]) + (acc[1] + acc[5]) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        s += x * y;
    }
    s
}

/// Cosine similarity of two equal-length slices; `0.0` when either is a zero
/// vector (the conservative convention used throughout the paper pipeline).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    // Degenerate rows — (near-)zero norm, or any non-finite component —
    // score 0.0 against everything, so rankings over them are stable
    // instead of NaN-ordered.
    if !na.is_finite() || na <= f32::EPSILON || !nb.is_finite() || nb <= f32::EPSILON {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
        assert_eq!(Tensor::identity(2).as_slice(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_validates_shape() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    /// Reference triple-loop product used as the oracle for the blocked
    /// kernels.
    fn matmul_oracle(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = Tensor::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.get(i, kk) * b.get(kk, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_matmul_matches_oracle_on_random_shapes() {
        // Shapes straddling the k/j panel sizes and the parallel threshold.
        for (seed, (m, k, n)) in [(3, 7, 5), (65, 64, 63), (1, 300, 2), (130, 70, 260)]
            .into_iter()
            .enumerate()
        {
            let a = random_tensor(m, k, seed as u64);
            let b = random_tensor(k, n, seed as u64 + 100);
            let fast = a.matmul(&b);
            let slow = matmul_oracle(&a, &b);
            // Blocked summation reorders additions; allow fp slack scaled
            // by the reduction length.
            assert_close(&fast, &slow, 1e-4 * k as f32);
        }
    }

    #[test]
    fn matmul_transpose_matches_materialized_transpose() {
        for (seed, (m, k, n)) in [(2, 8, 3), (40, 33, 70), (1, 1, 1)].into_iter().enumerate() {
            let a = random_tensor(m, k, seed as u64 + 20);
            let b = random_tensor(n, k, seed as u64 + 40);
            let fused = a.matmul_transpose(&b);
            let slow = a.matmul(&b.transpose());
            assert_close(&fused, &slow, 1e-4 * k as f32);
        }
    }

    #[test]
    fn tr_matmul_matches_materialized_transpose() {
        for (seed, (m, k, n)) in [(5, 4, 6), (64, 50, 48), (1, 7, 1)].into_iter().enumerate() {
            let a = random_tensor(m, k, seed as u64 + 60);
            let b = random_tensor(m, n, seed as u64 + 80);
            let fused = a.tr_matmul(&b);
            let slow = a.transpose().matmul(&b);
            assert_close(&fused, &slow, 1e-4 * m as f32);
        }
    }

    #[test]
    fn fused_products_validate_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        // A·Bᵀ needs equal cols: fine. Aᵀ·B needs equal rows: fine.
        assert_eq!(a.matmul_transpose(&b).shape(), (2, 2));
        assert_eq!(a.tr_matmul(&b).shape(), (3, 3));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_rows(&[&[1.0, -2.0], &[0.5, 3.0]]);
        let i = Tensor::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let at = a.transpose();
        assert_eq!(at.shape(), (3, 2));
        assert_eq!(at.get(2, 1), 6.0);
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn gather_rows_copies_rows() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
        assert_eq!(g.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn normalize_rows_produces_unit_rows() {
        let mut a = Tensor::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        a.normalize_rows(1e-12);
        assert!((a.row(0)[0] - 0.6).abs() < 1e-6);
        assert!((a.row(0)[1] - 0.8).abs() < 1e-6);
        // Zero row untouched.
        assert_eq!(a.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn cosine_properties() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[10.0, 20.0]]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0]);
    }
}
