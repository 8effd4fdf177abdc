//! Output head: final layer norm, vocabulary projection, and cross-entropy
//! loss with its exact gradient.

use chimera_tensor::{scale_mask_softmax_rows, Rng, Tensor};

use crate::block::LayerNorm;
use crate::linear::Linear;
use crate::micros::{self, Micros};

/// Language-model head.
#[derive(Debug, Clone)]
pub struct OutputHead {
    /// Final layer norm.
    pub ln: LayerNorm,
    /// `[h, vocab]` projection.
    pub proj: Linear,
}

/// Stash for [`OutputHead::backward`].
#[derive(Debug, Clone)]
pub struct HeadStash {
    ln: chimera_tensor::LayerNormStash,
    ln_out: Tensor,
    /// Softmax probabilities `[tokens, vocab]`.
    probs: Tensor,
    targets: Vec<u32>,
}

impl HeadStash {
    /// Total `f32` elements held by this stash (`targets` are `u32` and
    /// excluded from the float accounting).
    pub fn elements(&self) -> usize {
        self.ln.elements() + self.ln_out.len() + self.probs.len()
    }

    /// Visit each pool-backed buffer's length.
    pub fn for_each_pooled(&self, f: &mut dyn FnMut(usize)) {
        self.ln.for_each_pooled(f);
        f(self.ln_out.len());
        f(self.probs.len());
    }
}

impl OutputHead {
    /// New head for hidden size `h` and vocabulary `vocab`.
    pub fn new(h: usize, vocab: usize, rng: &mut Rng) -> Self {
        OutputHead {
            ln: LayerNorm::new(h),
            proj: Linear::new(h, vocab, rng),
        }
    }

    /// Parameter count.
    pub fn num_params(&self) -> usize {
        self.ln.num_params() + self.proj.num_params()
    }

    /// Forward + mean cross-entropy over the micro-batch's tokens.
    pub fn forward_loss(&self, x: &Tensor, targets: &[u32]) -> (f32, HeadStash) {
        let (losses, stash) = self.forward_losses(x, targets, 1);
        (losses[0], stash)
    }

    /// [`OutputHead::forward_loss`] over `micros` stacked micro-batches: one
    /// mean cross-entropy per micro-batch, each over its own rows in order.
    pub fn forward_losses(
        &self,
        x: &Tensor,
        targets: &[u32],
        micros: usize,
    ) -> (Vec<f32>, HeadStash) {
        assert_eq!(x.rows(), targets.len());
        let tokens = micros::rows_each(targets.len(), micros);
        let (n, ln_stash) = self.ln.forward(x);
        let mut probs = self.proj.forward(&n);
        scale_mask_softmax_rows(&mut probs, 1.0, None);
        let losses = (0..micros)
            .map(|m| {
                let mut loss = 0.0f64;
                let span = m * tokens..(m + 1) * tokens;
                #[allow(
                    clippy::disallowed_methods,
                    reason = "the one libm call on the training path: the f64 `ln` \
                              of the loss that is *reported*; backward starts from \
                              `probs`, so its last bits cannot reach a parameter"
                )]
                for (r, &t) in span.clone().zip(&targets[span]) {
                    loss -= (probs.get(r, t as usize).max(1e-12) as f64).ln();
                }
                (loss / tokens as f64) as f32
            })
            .collect();
        (
            losses,
            HeadStash {
                ln: ln_stash,
                ln_out: n,
                probs,
                targets: targets.to_vec(),
            },
        )
    }

    /// Backward from the loss: `d logits = (P - onehot) · scale / tokens`,
    /// then through the projection and layer norm. `scale` lets gradient
    /// accumulation over `N` micro-batches average (pass `1/N`).
    pub fn backward(&self, stash: &HeadStash, scale: f32, grad: &mut [f32]) -> Tensor {
        self.backward_stacked(stash, scale, grad, Micros::ONE)
    }

    /// [`OutputHead::backward`] over `micros.count` stacked micro-batches,
    /// `tokens` being one micro-batch's.
    pub fn backward_stacked(
        &self,
        stash: &HeadStash,
        scale: f32,
        grad: &mut [f32],
        micros: Micros,
    ) -> Tensor {
        assert_eq!(grad.len(), self.num_params());
        let tokens = micros.rows_each(stash.targets.len());
        let mut dlogits = stash.probs.clone();
        let s = scale / tokens as f32;
        for (r, &t) in stash.targets.iter().enumerate() {
            let row = dlogits.row_mut(r);
            for v in row.iter_mut() {
                *v *= s;
            }
            row[t as usize] -= s;
        }
        let (g_ln, g_proj) = grad.split_at_mut(self.ln.num_params());
        let d_n = self
            .proj
            .backward_stacked(&stash.ln_out, &dlogits, g_proj, micros);
        self.ln.backward_stacked(&stash.ln, &d_n, g_ln, micros)
    }

    /// Visit each parameter slice in flat-layout order.
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.ln.for_each_param_mut(f);
        self.proj.for_each_param_mut(f);
    }

    /// Append parameters (`[ln.., proj..]`).
    pub fn write_params(&self, out: &mut Vec<f32>) {
        self.ln.write_params(out);
        self.proj.write_params(out);
    }

    /// Load parameters; returns the rest.
    pub fn read_params<'a>(&mut self, flat: &'a [f32]) -> &'a [f32] {
        let rest = self.ln.read_params(flat);
        self.proj.read_params(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_positive_and_near_uniform_for_random_init() {
        let mut rng = Rng::new(21);
        let head = OutputHead::new(6, 11, &mut rng);
        let x = Tensor::normal(5, 6, 0.5, &mut rng);
        let targets = vec![0u32, 3, 7, 10, 2];
        let (loss, _) = head.forward_loss(&x, &targets);
        assert!(loss > 0.0);
        // Near-uniform prediction → loss ≈ ln(11).
        assert!((loss - (11f32).ln()).abs() < 0.5, "loss {loss}");
    }

    #[test]
    fn backward_matches_numeric() {
        let mut rng = Rng::new(22);
        let head = OutputHead::new(5, 7, &mut rng);
        let x = Tensor::normal(4, 5, 0.8, &mut rng);
        let targets = vec![1u32, 6, 3, 0];
        let (_, stash) = head.forward_loss(&x, &targets);
        let mut grad = vec![0.0; head.num_params()];
        let dx = head.backward(&stash, 1.0, &mut grad);

        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp = head.forward_loss(&xp, &targets).0;
            let lm = head.forward_loss(&xm, &targets).0;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.data()[i] - num).abs() < 5e-3,
                "dx[{i}]: {} vs {num}",
                dx.data()[i]
            );
        }
        // Spot-check projection weights through the flat layout.
        let mut flat = Vec::new();
        head.write_params(&mut flat);
        for idx in [head.ln.num_params() + 2, flat.len() - 1] {
            let mut fp = flat.clone();
            fp[idx] += eps;
            let mut fm = flat.clone();
            fm[idx] -= eps;
            let mut hp = head.clone();
            hp.read_params(&fp);
            let mut hm = head.clone();
            hm.read_params(&fm);
            let lp = hp.forward_loss(&x, &targets).0;
            let lm = hm.forward_loss(&x, &targets).0;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (grad[idx] - num).abs() < 5e-3,
                "grad[{idx}]: {} vs {num}",
                grad[idx]
            );
        }
    }

    #[test]
    fn scale_scales_gradient_linearly() {
        let mut rng = Rng::new(23);
        let head = OutputHead::new(4, 5, &mut rng);
        let x = Tensor::normal(3, 4, 0.5, &mut rng);
        let targets = vec![0u32, 1, 2];
        let (_, stash) = head.forward_loss(&x, &targets);
        let mut g1 = vec![0.0; head.num_params()];
        let dx1 = head.backward(&stash, 1.0, &mut g1);
        let mut g2 = vec![0.0; head.num_params()];
        let dx2 = head.backward(&stash, 0.5, &mut g2);
        assert!(dx1.map(|v| v * 0.5).max_abs_diff(&dx2) < 1e-7);
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a * 0.5 - b).abs() < 1e-7);
        }
    }
}
