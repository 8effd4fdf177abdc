//! Pre-norm transformer block: `x + Attn(LN(x))` then `x + MLP(LN(x))`.

use chimera_tensor::{
    gelu, gelu_backward, layernorm, layernorm_backward, pool, LayerNormStash, Rng, Tensor,
};

use crate::attention::{Attention, AttnStash};
use crate::linear::Linear;
use crate::micros::{self, Micros};

/// Learnable layer-norm parameters.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale γ.
    pub gamma: Vec<f32>,
    /// Shift β.
    pub beta: Vec<f32>,
}

impl LayerNorm {
    /// Identity-initialized layer norm of width `h`.
    pub fn new(h: usize) -> Self {
        LayerNorm {
            gamma: vec![1.0; h],
            beta: vec![0.0; h],
        }
    }

    /// Parameter count.
    pub fn num_params(&self) -> usize {
        self.gamma.len() + self.beta.len()
    }

    /// Forward.
    pub fn forward(&self, x: &Tensor) -> (Tensor, LayerNormStash) {
        layernorm(x, &self.gamma, &self.beta)
    }

    /// Backward; accumulates `[dγ.., dβ..]` into `grad`.
    pub fn backward(&self, stash: &LayerNormStash, dy: &Tensor, grad: &mut [f32]) -> Tensor {
        self.backward_stacked(stash, dy, grad, Micros::ONE)
    }

    /// [`LayerNorm::backward`] over `micros.count` stacked micro-batches:
    /// `dx` row by row, `[dγ.., dβ..]` one chain per micro-batch, landed in
    /// `grad` in micro order.
    pub fn backward_stacked(
        &self,
        stash: &LayerNormStash,
        dy: &Tensor,
        grad: &mut [f32],
        micros: Micros,
    ) -> Tensor {
        let rows = micros.rows_each(dy.rows());
        let mut dx = pool::take_spare(dy.len());
        micros.fold(grad, |m, ep, g| {
            micros::small(ep, g, |g| {
                layernorm_backward(stash, &self.gamma, dy, m * rows..(m + 1) * rows, &mut dx, g);
            });
        });
        Tensor::from_vec(dy.rows(), dy.cols(), dx)
    }

    /// Visit each parameter slice in flat-layout order (`γ`, then `β`).
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    /// Append parameters (`[γ.., β..]`).
    pub fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(&self.gamma);
        out.extend_from_slice(&self.beta);
    }

    /// Load parameters; returns the rest.
    pub fn read_params<'a>(&mut self, flat: &'a [f32]) -> &'a [f32] {
        let n = self.gamma.len();
        self.gamma.copy_from_slice(&flat[..n]);
        self.beta.copy_from_slice(&flat[n..2 * n]);
        &flat[2 * n..]
    }
}

/// One transformer layer.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    /// Pre-attention layer norm.
    pub ln1: LayerNorm,
    /// Self-attention.
    pub attn: Attention,
    /// Pre-MLP layer norm.
    pub ln2: LayerNorm,
    /// MLP expansion `[h, 4h]`.
    pub fc1: Linear,
    /// MLP contraction `[4h, h]`.
    pub fc2: Linear,
}

/// Stash for [`TransformerBlock::backward`].
#[derive(Debug, Clone)]
pub struct BlockStash {
    ln1: LayerNormStash,
    attn: AttnStash,
    ln2: LayerNormStash,
    ln2_out: Tensor,
    fc1_out: Tensor,
    gelu_out: Tensor,
}

impl BlockStash {
    /// Total `f32` elements held by this stash.
    pub fn elements(&self) -> usize {
        self.ln1.elements()
            + self.attn.elements()
            + self.ln2.elements()
            + self.ln2_out.len()
            + self.fc1_out.len()
            + self.gelu_out.len()
    }

    /// Visit each pool-backed buffer's length.
    pub fn for_each_pooled(&self, f: &mut dyn FnMut(usize)) {
        self.ln1.for_each_pooled(f);
        self.attn.for_each_pooled(f);
        self.ln2.for_each_pooled(f);
        f(self.ln2_out.len());
        f(self.fc1_out.len());
        f(self.gelu_out.len());
    }
}

impl TransformerBlock {
    /// New block of hidden size `h`.
    pub fn new(h: usize, heads: usize, seq: usize, causal: bool, rng: &mut Rng) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(h),
            attn: Attention::new(h, heads, seq, causal, rng),
            ln2: LayerNorm::new(h),
            fc1: Linear::new(h, 4 * h, rng),
            fc2: Linear::new(4 * h, h, rng),
        }
    }

    /// Parameter count.
    pub fn num_params(&self) -> usize {
        self.ln1.num_params()
            + self.attn.num_params()
            + self.ln2.num_params()
            + self.fc1.num_params()
            + self.fc2.num_params()
    }

    /// Forward.
    pub fn forward(&self, x: &Tensor) -> (Tensor, BlockStash) {
        let (n1, ln1_stash) = self.ln1.forward(x);
        let (a, attn_stash) = self.attn.forward(&n1);
        let after_attn = x.add(&a);
        let (n2, ln2_stash) = self.ln2.forward(&after_attn);
        let fc1_out = self.fc1.forward(&n2);
        let gelu_out = gelu(&fc1_out);
        let m = self.fc2.forward(&gelu_out);
        let y = after_attn.add(&m);
        (
            y,
            BlockStash {
                ln1: ln1_stash,
                attn: attn_stash,
                ln2: ln2_stash,
                ln2_out: n2,
                fc1_out,
                gelu_out,
            },
        )
    }

    /// Backward; accumulates the flat gradient
    /// (`[ln1, attn, ln2, fc1, fc2]` layout) into `grad` and returns `dx`.
    pub fn backward(&self, stash: &BlockStash, dy: &Tensor, grad: &mut [f32]) -> Tensor {
        self.backward_stacked(stash, dy, grad, Micros::ONE)
    }

    /// [`TransformerBlock::backward`] over `micros.count` stacked
    /// micro-batches (see [`Micros`]).
    pub fn backward_stacked(
        &self,
        stash: &BlockStash,
        dy: &Tensor,
        grad: &mut [f32],
        micros: Micros,
    ) -> Tensor {
        let (g_ln1, rest) = grad.split_at_mut(self.ln1.num_params());
        let (g_attn, rest) = rest.split_at_mut(self.attn.num_params());
        let (g_ln2, rest) = rest.split_at_mut(self.ln2.num_params());
        let (g_fc1, g_fc2) = rest.split_at_mut(self.fc1.num_params());

        // MLP branch.
        let d_gelu = self
            .fc2
            .backward_stacked(&stash.gelu_out, dy, g_fc2, micros);
        let d_fc1 = gelu_backward(&stash.fc1_out, &d_gelu);
        let d_n2 = self
            .fc1
            .backward_stacked(&stash.ln2_out, &d_fc1, g_fc1, micros);
        let mut d_after_attn = self.ln2.backward_stacked(&stash.ln2, &d_n2, g_ln2, micros);
        d_after_attn.add_assign(dy); // residual

        // Attention branch.
        let d_a = self
            .attn
            .backward_stacked(&stash.attn, &d_after_attn, g_attn, micros);
        let mut dx = self.ln1.backward_stacked(&stash.ln1, &d_a, g_ln1, micros);
        dx.add_assign(&d_after_attn); // residual
        dx
    }

    /// Visit each parameter slice in flat-layout order.
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.ln1.for_each_param_mut(f);
        self.attn.for_each_param_mut(f);
        self.ln2.for_each_param_mut(f);
        self.fc1.for_each_param_mut(f);
        self.fc2.for_each_param_mut(f);
    }

    /// Append parameters.
    pub fn write_params(&self, out: &mut Vec<f32>) {
        self.ln1.write_params(out);
        self.attn.write_params(out);
        self.ln2.write_params(out);
        self.fc1.write_params(out);
        self.fc2.write_params(out);
    }

    /// Load parameters; returns the rest.
    pub fn read_params<'a>(&mut self, flat: &'a [f32]) -> &'a [f32] {
        let rest = self.ln1.read_params(flat);
        let rest = self.attn.read_params(rest);
        let rest = self.ln2.read_params(rest);
        let rest = self.fc1.read_params(rest);
        self.fc2.read_params(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> (TransformerBlock, Tensor, Tensor) {
        let mut rng = Rng::new(13);
        let (h, heads, s, b) = (8, 2, 3, 2);
        let blk = TransformerBlock::new(h, heads, s, true, &mut rng);
        let x = Tensor::normal(b * s, h, 0.5, &mut rng);
        let w = Tensor::normal(b * s, h, 1.0, &mut rng);
        (blk, x, w)
    }

    #[test]
    fn forward_shape_preserved() {
        let (blk, x, _) = block();
        let (y, _) = blk.forward(&x);
        assert_eq!((y.rows(), y.cols()), (x.rows(), x.cols()));
    }

    #[test]
    fn backward_matches_numeric_dx() {
        let (blk, x, w) = block();
        let (_, stash) = blk.forward(&x);
        let mut grad = vec![0.0; blk.num_params()];
        let dx = blk.backward(&stash, &w, &mut grad);
        let eps = 1e-2f32;
        for i in (0..x.len()).step_by(9) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 = blk.forward(&xp).0.hadamard(&w).data().iter().sum();
            let lm: f32 = blk.forward(&xm).0.hadamard(&w).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.data()[i] - num).abs() < 8e-2,
                "dx[{i}]: {} vs {num}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn backward_matches_numeric_block_params() {
        let (blk, x, w) = block();
        let (_, stash) = blk.forward(&x);
        let mut grad = vec![0.0; blk.num_params()];
        blk.backward(&stash, &w, &mut grad);
        // Check a γ of ln2 and an fc2 weight numerically via the flat layout.
        let eps = 1e-2f32;
        let mut flat = Vec::new();
        blk.write_params(&mut flat);
        for idx in [3usize, blk.num_params() - 5] {
            let mut fp = flat.clone();
            fp[idx] += eps;
            let mut fm = flat.clone();
            fm[idx] -= eps;
            let mut bp = blk.clone();
            bp.read_params(&fp);
            let mut bm = blk.clone();
            bm.read_params(&fm);
            let lp: f32 = bp.forward(&x).0.hadamard(&w).data().iter().sum();
            let lm: f32 = bm.forward(&x).0.hadamard(&w).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (grad[idx] - num).abs() < 8e-2,
                "grad[{idx}]: {} vs {num}",
                grad[idx]
            );
        }
    }

    #[test]
    fn param_roundtrip_length() {
        let (blk, _, _) = block();
        let mut flat = Vec::new();
        blk.write_params(&mut flat);
        assert_eq!(flat.len(), blk.num_params());
        let mut b2 = TransformerBlock::new(8, 2, 3, true, &mut Rng::new(77));
        assert!(b2.read_params(&flat).is_empty());
        let mut flat2 = Vec::new();
        b2.write_params(&mut flat2);
        assert_eq!(flat, flat2);
    }
}
