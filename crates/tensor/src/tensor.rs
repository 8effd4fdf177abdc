//! A minimal row-major `f32` matrix type.
//!
//! The transformer layers in `chimera-nn` only need 2-D tensors (token/batch
//! dimensions are flattened into rows), so `Tensor` is deliberately a dense
//! `rows × cols` matrix with the handful of BLAS-like kernels the forward
//! and backward passes require. The multiply variants dispatch to the tiled,
//! multi-threaded kernels in [`crate::kernels`]; backing stores are recycled
//! through [`crate::pool`] (a `Tensor` returns its buffer on drop and takes
//! a pooled one on creation).

use crate::kernels;
use crate::pool;
use crate::rng::Rng;

/// Dense row-major `f32` matrix.
#[derive(Debug, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = pool::take_spare(self.data.len());
        data.extend_from_slice(&self.data);
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clear();
        self.data.extend_from_slice(&source.data);
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        // Recycle the backing store; the pool drops buffers too small to be
        // worth keeping.
        pool::put(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: pool::take_zeroed(rows * cols),
        }
    }

    /// Build from a row-major vector (must have `rows * cols` elements).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization.
    pub fn xavier(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let mut data = pool::take_spare(rows * cols);
        data.extend((0..rows * cols).map(|_| rng.uniform_in(-bound, bound)));
        Tensor { rows, cols, data }
    }

    /// Normal(0, std) initialization.
    pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut Rng) -> Self {
        let mut data = pool::take_spare(rows * cols);
        data.extend((0..rows * cols).map(|_| rng.normal() * std));
        Tensor { rows, cols, data }
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

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// `self @ other` — `[m,k] x [k,n] -> [m,n]` via the tiled,
    /// multi-threaded kernel ([`kernels::matmul_into`]).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(m, n);
        kernels::matmul_into(&self.data, &other.data, &mut out.data, m, k, n);
        out
    }

    /// `selfᵀ @ other` — `[k,m]ᵀ x [k,n] -> [m,n]` without materializing the
    /// transpose (the `dW = Xᵀ dY` pattern of linear-layer backward).
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(m, n);
        kernels::t_matmul_into(&self.data, &other.data, &mut out.data, k, m, n);
        out
    }

    /// `out += selfᵀ @ other`, accumulating straight into a caller-owned
    /// slice (e.g. a gradient buffer) — skips the intermediate tensor of
    /// [`Tensor::t_matmul`] entirely.
    pub fn t_matmul_acc(&self, other: &Tensor, out: &mut [f32]) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        assert_eq!(out.len(), m * n, "t_matmul_acc output size mismatch");
        kernels::t_matmul_into(&self.data, &other.data, out, k, m, n);
    }

    /// `self @ otherᵀ` — `[m,k] x [n,k]ᵀ -> [m,n]` (the `dX = dY Wᵀ`
    /// pattern).
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Tensor::zeros(m, n);
        kernels::matmul_t_into(&self.data, &other.data, &mut out.data, m, k, n);
        out
    }

    /// Materialized transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise in-place add.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise add producing a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// In-place `self += scale * other` (AXPY).
    pub fn axpy(&mut self, scale: f32, other: &Tensor) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// In-place scalar multiply.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Add a row-vector bias to every row.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            for (a, b) in self.row_mut(r).iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// Map every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = pool::take_spare(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Combine every element with the matching element of `other`.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut data = pool::take_spare(self.data.len());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise product.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Copy a contiguous block of rows.
    pub fn rows_slice(&self, start: usize, count: usize) -> Tensor {
        assert!(start + count <= self.rows);
        let mut data = pool::take_spare(count * self.cols);
        data.extend_from_slice(&self.data[start * self.cols..(start + count) * self.cols]);
        Tensor {
            rows: count,
            cols: self.cols,
            data,
        }
    }

    /// Maximum absolute difference to another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Dot product of two equal-length slices.
///
/// Split over 8 independent fused-multiply-add accumulator lanes with a
/// **fixed** combine order: lanes 0..8 ascending, then a scalar `mul_add`
/// tail. `f32::mul_add` is exactly rounded, and hardware FMA computes the
/// identical bits, so this loop, vectorised or not, and the soft-float
/// fallback all produce the same sum on any CPU. (The matmul kernels do not
/// reduce in this order — they run one ascending chain per element, see
/// [`crate::kernels`]; `softmax_rows_backward` is the caller.)
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for c in 0..chunks {
        let av = &a[c * LANES..(c + 1) * LANES];
        let bv = &b[c * LANES..(c + 1) * LANES];
        for l in 0..LANES {
            acc[l] = av[l].mul_add(bv[l], acc[l]);
        }
    }
    let mut sum = 0.0;
    for &lane in &acc {
        sum += lane;
    }
    for i in chunks * LANES..a.len() {
        sum = a[i].mul_add(b[i], sum);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_known_values() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_matmul_variants_agree() {
        let mut rng = Rng::new(5);
        let a = Tensor::normal(4, 6, 1.0, &mut rng);
        let b = Tensor::normal(4, 3, 1.0, &mut rng);
        // aᵀ b via t_matmul == transpose().matmul().
        let direct = a.t_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        assert!(direct.max_abs_diff(&explicit) < 1e-5);
        let c = Tensor::normal(5, 6, 1.0, &mut rng);
        // a cᵀ via matmul_t == matmul(transpose).
        let direct = a.matmul_t(&c);
        let explicit = a.matmul(&c.transpose());
        assert!(direct.max_abs_diff(&explicit) < 1e-5);
    }

    #[test]
    fn acc_variants_match_allocating_ones() {
        let mut rng = Rng::new(23);
        let x = Tensor::normal(7, 4, 1.0, &mut rng);
        let dy = Tensor::normal(7, 5, 1.0, &mut rng);
        let mut acc = vec![0.0f32; 4 * 5];
        x.t_matmul_acc(&dy, &mut acc);
        assert_eq!(acc, x.t_matmul(&dy).data());
    }

    #[test]
    fn clone_preserves_contents() {
        let a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = a.clone();
        assert_eq!(a, b);
        let mut c = Tensor::zeros(1, 1);
        c.clone_from(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn bias_and_sums() {
        let mut a = t(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        a.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(a.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn axpy_scale_map_hadamard() {
        let mut a = t(1, 3, &[1.0, 2.0, 3.0]);
        let b = t(1, 3, &[1.0, 1.0, 1.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3.0, 4.0, 5.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5]);
        let m = a.map(|v| v * 2.0);
        assert_eq!(m.data(), &[3.0, 4.0, 5.0]);
        let h = a.hadamard(&b);
        assert_eq!(h.data(), a.data());
    }

    #[test]
    fn rows_slice_copies_block() {
        let a = t(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = a.rows_slice(1, 2);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn xavier_within_bound() {
        let mut rng = Rng::new(11);
        let w = Tensor::xavier(16, 64, &mut rng);
        let bound = (6.0 / 80.0f32).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= bound));
        // Not all zero.
        assert!(w.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn dot_matches_plain_sum_on_small_inputs() {
        // Below one lane-chunk the fast path reduces to the scalar loop.
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }
}
