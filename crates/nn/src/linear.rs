//! Fully-connected layer with explicit backward.

use chimera_tensor::kernels::{self, Product};
use chimera_tensor::{Rng, Tensor};

use crate::micros::{self, Micros};

/// `y = x W + b`, `W: [in, out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix `[in, out]`.
    pub w: Tensor,
    /// Bias `[out]`.
    pub b: Vec<f32>,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new(input: usize, output: usize, rng: &mut Rng) -> Self {
        Linear {
            w: Tensor::xavier(input, output, rng),
            b: vec![0.0; output],
        }
    }

    /// Number of parameters (`in·out + out`).
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass; the caller stashes `x` for the backward.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.w);
        y.add_row_broadcast(&self.b);
        y
    }

    /// Backward pass: returns `dx` and accumulates `[dW.., db..]` into
    /// `grad` (which must have length [`Linear::num_params`]).
    ///
    /// `dW` and `db` are accumulated straight into `grad` — no intermediate
    /// tensor or column-sum vector is materialized.
    pub fn backward(&self, x: &Tensor, dy: &Tensor, grad: &mut [f32]) -> Tensor {
        self.backward_stacked(x, dy, grad, Micros::ONE)
    }

    /// [`Linear::backward`] over `micros.count` stacked micro-batches: `dx`
    /// is one product over every row, `[dW.., db..]` one chain per
    /// micro-batch over its own rows, landed in `grad` in micro order — `dW`
    /// by the product's own epilogue, `db` summed aside on an `Add`.
    pub fn backward_stacked(
        &self,
        x: &Tensor,
        dy: &Tensor,
        grad: &mut [f32],
        micros: Micros,
    ) -> Tensor {
        assert_eq!(grad.len(), self.num_params());
        assert_eq!(x.rows(), dy.rows(), "t_matmul shape mismatch");
        let (input, output) = (self.w.rows(), self.w.cols());
        let rows = micros.rows_each(dy.rows());
        micros.fold(grad, |m, ep, g| {
            let (gw, gb) = g.split_at_mut(self.w.len());
            let dy = micros.rows_of(dy, m);
            let shape = (input, rows, output);
            kernels::gemm_into(Product::TransA, micros.rows_of(x, m), dy, gw, shape, ep);
            micros::small(ep, gb, |gb| {
                for row in dy.chunks_exact(output) {
                    for (o, &v) in gb.iter_mut().zip(row) {
                        *o += v;
                    }
                }
            });
        });
        dy.matmul_t(&self.w)
    }

    /// Visit each parameter slice in flat-layout order (`W`, then `b`).
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(self.w.data_mut());
        f(&mut self.b);
    }

    /// Append parameters to `out` in the canonical `[W.., b..]` order.
    pub fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.w.data());
        out.extend_from_slice(&self.b);
    }

    /// Load parameters from the canonical flat layout; returns the rest of
    /// the slice.
    pub fn read_params<'a>(&mut self, flat: &'a [f32]) -> &'a [f32] {
        let wlen = self.w.len();
        self.w.data_mut().copy_from_slice(&flat[..wlen]);
        let blen = self.b.len();
        self.b.copy_from_slice(&flat[wlen..wlen + blen]);
        &flat[wlen + blen..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let mut l = Linear::new(2, 2, &mut Rng::new(0));
        l.w = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        l.b = vec![0.5, -0.5];
        let x = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn backward_matches_numeric() {
        let mut rng = Rng::new(1);
        let l = Linear::new(4, 3, &mut rng);
        let x = Tensor::normal(5, 4, 1.0, &mut rng);
        let w = Tensor::normal(5, 3, 1.0, &mut rng); // dL/dy
        let mut grad = vec![0.0; l.num_params()];
        let dx = l.backward(&x, &w, &mut grad);

        // Numeric dx.
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 = l.forward(&xp).hadamard(&w).data().iter().sum();
            let lm: f32 = l.forward(&xm).hadamard(&w).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((dx.data()[i] - num).abs() < 2e-2, "dx[{i}]");
        }
        // Numeric dW for a few entries.
        for i in [0usize, 5, 11] {
            let mut lp = l.clone();
            lp.w.data_mut()[i] += eps;
            let mut lm = l.clone();
            lm.w.data_mut()[i] -= eps;
            let a: f32 = lp.forward(&x).hadamard(&w).data().iter().sum();
            let b: f32 = lm.forward(&x).hadamard(&w).data().iter().sum();
            let num = (a - b) / (2.0 * eps);
            assert!(
                (grad[i] - num).abs() < 2e-2,
                "dW[{i}]: {} vs {num}",
                grad[i]
            );
        }
    }

    #[test]
    fn param_roundtrip() {
        let mut rng = Rng::new(2);
        let l = Linear::new(3, 5, &mut rng);
        let mut flat = Vec::new();
        l.write_params(&mut flat);
        assert_eq!(flat.len(), l.num_params());
        let mut l2 = Linear::new(3, 5, &mut Rng::new(99));
        let rest = l2.read_params(&flat);
        assert!(rest.is_empty());
        assert_eq!(l2.w, l.w);
        assert_eq!(l2.b, l.b);
    }

    #[test]
    fn gradients_accumulate() {
        let mut rng = Rng::new(3);
        let l = Linear::new(2, 2, &mut rng);
        let x = Tensor::normal(3, 2, 1.0, &mut rng);
        let dy = Tensor::normal(3, 2, 1.0, &mut rng);
        let mut g1 = vec![0.0; l.num_params()];
        l.backward(&x, &dy, &mut g1);
        let mut g2 = g1.clone();
        l.backward(&x, &dy, &mut g2);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((2.0 * a - b).abs() < 1e-5);
        }
    }
}
