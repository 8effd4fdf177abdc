//! Multi-head self-attention with explicit backward.

use chimera_tensor::{scale_mask_softmax_rows, softmax_rows_backward, Rng, Tensor};

use crate::linear::Linear;

/// Multi-head self-attention: fused QKV projection, per-head scaled
/// dot-product attention (optionally causal), output projection.
#[derive(Debug, Clone)]
pub struct Attention {
    /// Fused `[h, 3h]` projection.
    pub wqkv: Linear,
    /// Output projection `[h, h]`.
    pub wo: Linear,
    /// Number of attention heads (must divide the hidden size).
    pub heads: usize,
    /// Sequence length (rows per sample).
    pub seq: usize,
    /// Causal (GPT-style) masking.
    pub causal: bool,
}

/// Stash for the attention backward.
#[derive(Debug, Clone)]
pub struct AttnStash {
    x: Tensor,
    qkv: Tensor,
    /// Per `(sample, head)` attention probabilities `[s, s]`.
    probs: Vec<Tensor>,
    ctx: Tensor,
}

impl AttnStash {
    /// Total `f32` elements held by this stash.
    pub fn elements(&self) -> usize {
        self.x.len()
            + self.qkv.len()
            + self.probs.iter().map(Tensor::len).sum::<usize>()
            + self.ctx.len()
    }

    /// Visit each pool-backed buffer's length.
    pub fn for_each_pooled(&self, f: &mut dyn FnMut(usize)) {
        f(self.x.len());
        f(self.qkv.len());
        for p in &self.probs {
            f(p.len());
        }
        f(self.ctx.len());
    }
}

impl Attention {
    /// New attention layer for hidden size `h`.
    pub fn new(h: usize, heads: usize, seq: usize, causal: bool, rng: &mut Rng) -> Self {
        assert_eq!(h % heads, 0, "heads must divide hidden size");
        Attention {
            wqkv: Linear::new(h, 3 * h, rng),
            wo: Linear::new(h, h, rng),
            heads,
            seq,
            causal,
        }
    }

    /// Parameter count.
    pub fn num_params(&self) -> usize {
        self.wqkv.num_params() + self.wo.num_params()
    }

    fn extract(&self, src: &Tensor, r0: usize, c0: usize, rows: usize, cols: usize) -> Tensor {
        let mut out = Tensor::zeros(rows, cols);
        for r in 0..rows {
            out.row_mut(r)
                .copy_from_slice(&src.row(r0 + r)[c0..c0 + cols]);
        }
        out
    }

    fn add_into(dst: &mut Tensor, src: &Tensor, r0: usize, c0: usize) {
        for r in 0..src.rows() {
            let drow = dst.row_mut(r0 + r);
            for (c, &v) in src.row(r).iter().enumerate() {
                drow[c0 + c] += v;
            }
        }
    }

    /// Forward over `[b·s, h]` rows (whole sequences).
    pub fn forward(&self, x: &Tensor) -> (Tensor, AttnStash) {
        let h = self.wo.w.rows();
        let s = self.seq;
        assert_eq!(x.rows() % s, 0, "rows must be whole sequences");
        let b = x.rows() / s;
        let dk = h / self.heads;
        let scale = 1.0 / (dk as f32).sqrt();
        let qkv = self.wqkv.forward(x);
        let mut ctx = Tensor::zeros(x.rows(), h);
        let mut probs = Vec::with_capacity(b * self.heads);
        for sample in 0..b {
            let r0 = sample * s;
            for head in 0..self.heads {
                let q = self.extract(&qkv, r0, head * dk, s, dk);
                let k = self.extract(&qkv, r0, h + head * dk, s, dk);
                let v = self.extract(&qkv, r0, 2 * h + head * dk, s, dk);
                let mut p = q.matmul_t(&k);
                scale_mask_softmax_rows(&mut p, scale, self.causal);
                let c = p.matmul(&v);
                Self::add_into(&mut ctx, &c, r0, head * dk);
                probs.push(p);
            }
        }
        let out = self.wo.forward(&ctx);
        (
            out,
            AttnStash {
                x: x.clone(),
                qkv,
                probs,
                ctx,
            },
        )
    }

    /// Backward: returns `dx`; accumulates `[d wqkv.., d wo..]` into `grad`.
    pub fn backward(&self, stash: &AttnStash, dy: &Tensor, grad: &mut [f32]) -> Tensor {
        assert_eq!(grad.len(), self.num_params());
        let h = self.wo.w.rows();
        let s = self.seq;
        let b = stash.x.rows() / s;
        let dk = h / self.heads;
        let scale = 1.0 / (dk as f32).sqrt();
        let (gqkv, gwo) = grad.split_at_mut(self.wqkv.num_params());
        let dctx = self.wo.backward(&stash.ctx, dy, gwo);
        let mut dqkv = Tensor::zeros(stash.x.rows(), 3 * h);
        for sample in 0..b {
            let r0 = sample * s;
            for head in 0..self.heads {
                let p = &stash.probs[sample * self.heads + head];
                let q = self.extract(&stash.qkv, r0, head * dk, s, dk);
                let k = self.extract(&stash.qkv, r0, h + head * dk, s, dk);
                let v = self.extract(&stash.qkv, r0, 2 * h + head * dk, s, dk);
                let dc = self.extract(&dctx, r0, head * dk, s, dk);
                let dp = dc.matmul_t(&v);
                let dv = p.t_matmul(&dc);
                let mut ds = softmax_rows_backward(p, &dp);
                ds.scale(scale);
                let dq = ds.matmul(&k);
                let dk_grad = ds.t_matmul(&q);
                Self::add_into(&mut dqkv, &dq, r0, head * dk);
                Self::add_into(&mut dqkv, &dk_grad, r0, h + head * dk);
                Self::add_into(&mut dqkv, &dv, r0, 2 * h + head * dk);
            }
        }
        self.wqkv.backward(&stash.x, &dqkv, gqkv)
    }

    /// Append parameters (`[wqkv.., wo..]`).
    pub fn write_params(&self, out: &mut Vec<f32>) {
        self.wqkv.write_params(out);
        self.wo.write_params(out);
    }

    /// Load parameters; returns the remaining slice.
    pub fn read_params<'a>(&mut self, flat: &'a [f32]) -> &'a [f32] {
        let rest = self.wqkv.read_params(flat);
        self.wo.read_params(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attn(causal: bool) -> (Attention, Tensor, Tensor) {
        let mut rng = Rng::new(7);
        let (h, heads, s, b) = (8, 2, 3, 2);
        let a = Attention::new(h, heads, s, causal, &mut rng);
        let x = Tensor::normal(b * s, h, 0.5, &mut rng);
        let w = Tensor::normal(b * s, h, 1.0, &mut rng);
        (a, x, w)
    }

    #[test]
    fn output_shape_matches_input() {
        let (a, x, _) = attn(false);
        let (y, stash) = a.forward(&x);
        assert_eq!((y.rows(), y.cols()), (x.rows(), x.cols()));
        assert_eq!(stash.probs.len(), 2 * 2); // b * heads
    }

    #[test]
    fn causal_probs_lower_triangular() {
        let (a, x, _) = attn(true);
        let (_, stash) = a.forward(&x);
        for p in &stash.probs {
            for i in 0..p.rows() {
                for j in (i + 1)..p.cols() {
                    assert_eq!(p.get(i, j).to_bits(), 0, "future position attended");
                }
            }
        }
    }

    #[test]
    fn backward_matches_numeric_dx() {
        for causal in [false, true] {
            let (a, x, w) = attn(causal);
            let (_, stash) = a.forward(&x);
            let mut grad = vec![0.0; a.num_params()];
            let dx = a.backward(&stash, &w, &mut grad);
            let eps = 1e-2f32;
            // Spot-check a spread of coordinates (full check is O(n²) slow).
            for i in (0..x.len()).step_by(7) {
                let mut xp = x.clone();
                xp.data_mut()[i] += eps;
                let mut xm = x.clone();
                xm.data_mut()[i] -= eps;
                let lp: f32 = a.forward(&xp).0.hadamard(&w).data().iter().sum();
                let lm: f32 = a.forward(&xm).0.hadamard(&w).data().iter().sum();
                let num = (lp - lm) / (2.0 * eps);
                assert!(
                    (dx.data()[i] - num).abs() < 5e-2,
                    "causal={causal} dx[{i}]: {} vs {num}",
                    dx.data()[i]
                );
            }
        }
    }

    #[test]
    fn backward_matches_numeric_weights() {
        let (a, x, w) = attn(false);
        let (_, stash) = a.forward(&x);
        let mut grad = vec![0.0; a.num_params()];
        a.backward(&stash, &w, &mut grad);
        let eps = 1e-2f32;
        for i in [0usize, 33, 101] {
            let mut ap = a.clone();
            ap.wqkv.w.data_mut()[i] += eps;
            let mut am = a.clone();
            am.wqkv.w.data_mut()[i] -= eps;
            let lp: f32 = ap.forward(&x).0.hadamard(&w).data().iter().sum();
            let lm: f32 = am.forward(&x).0.hadamard(&w).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (grad[i] - num).abs() < 5e-2,
                "dwqkv[{i}]: {} vs {num}",
                grad[i]
            );
        }
    }

    #[test]
    fn param_roundtrip() {
        let (a, _, _) = attn(false);
        let mut flat = Vec::new();
        a.write_params(&mut flat);
        assert_eq!(flat.len(), a.num_params());
        let mut a2 = Attention::new(8, 2, 3, false, &mut Rng::new(99));
        assert!(a2.read_params(&flat).is_empty());
        assert_eq!(a2.wqkv.w, a.wqkv.w);
        assert_eq!(a2.wo.b, a.wo.b);
    }
}
