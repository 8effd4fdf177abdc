//! Token + position embedding (the extra weights of pipeline stage 0 that
//! cause the memory imbalance discussed in §4.1).

use chimera_tensor::{Rng, Tensor};

use crate::micros::{self, Micros};

/// Token embedding table plus learned position embeddings.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// `[vocab, hidden]` token table.
    pub table: Tensor,
    /// `[seq, hidden]` position table.
    pub pos: Tensor,
}

impl Embedding {
    /// Normal(0, 0.02)-initialized embedding.
    pub fn new(vocab: usize, seq: usize, hidden: usize, rng: &mut Rng) -> Self {
        Embedding {
            table: Tensor::normal(vocab, hidden, 0.02, rng),
            pos: Tensor::normal(seq, hidden, 0.02, rng),
        }
    }

    /// Number of parameters.
    pub fn num_params(&self) -> usize {
        self.table.len() + self.pos.len()
    }

    /// Forward: `tokens` are `batch * seq` ids, row `i` of the output is
    /// `table[tokens[i]] + pos[i mod seq]`.
    pub fn forward(&self, tokens: &[u32], seq: usize) -> Tensor {
        assert_eq!(tokens.len() % seq, 0, "tokens must be whole sequences");
        let h = self.table.cols();
        let mut out = Tensor::zeros(tokens.len(), h);
        for (i, &t) in tokens.iter().enumerate() {
            let trow = self.table.row(t as usize);
            let prow = self.pos.row(i % seq);
            for ((o, &a), &b) in out.row_mut(i).iter_mut().zip(trow).zip(prow) {
                *o = a + b;
            }
        }
        out
    }

    /// Backward: scatter-add `dy` into the token/position tables' gradient
    /// (flat layout `[table.., pos..]`).
    pub fn backward(&self, tokens: &[u32], seq: usize, dy: &Tensor, grad: &mut [f32]) {
        self.backward_stacked(tokens, seq, dy, grad, Micros::ONE);
    }

    /// [`Embedding::backward`] over `micros.count` stacked micro-batches:
    /// one scatter-add chain per micro-batch over its own rows, landed in
    /// `grad` in micro order (a `Write` clears the tables first — whole
    /// sequences cover every position, but not every token).
    pub fn backward_stacked(
        &self,
        tokens: &[u32],
        seq: usize,
        dy: &Tensor,
        grad: &mut [f32],
        micros: Micros,
    ) {
        assert_eq!(grad.len(), self.num_params());
        let h = self.table.cols();
        let rows = micros.rows_each(tokens.len());
        micros.fold(grad, |m, ep, g| {
            micros::small(ep, g, |g| {
                let (tg, pg) = g.split_at_mut(self.table.len());
                let span = m * rows..(m + 1) * rows;
                for (i, &t) in span.clone().zip(&tokens[span]) {
                    let (t, dyr) = (t as usize, dy.row(i));
                    for (g, &v) in tg[t * h..(t + 1) * h].iter_mut().zip(dyr) {
                        *g += v;
                    }
                    let p = i % seq;
                    for (g, &v) in pg[p * h..(p + 1) * h].iter_mut().zip(dyr) {
                        *g += v;
                    }
                }
            });
        });
    }

    /// Visit each parameter slice in flat-layout order (`table`, then `pos`).
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        f(self.table.data_mut());
        f(self.pos.data_mut());
    }

    /// Append parameters (`[table.., pos..]`).
    pub fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.table.data());
        out.extend_from_slice(self.pos.data());
    }

    /// Load parameters; returns the remaining slice.
    pub fn read_params<'a>(&mut self, flat: &'a [f32]) -> &'a [f32] {
        let tl = self.table.len();
        self.table.data_mut().copy_from_slice(&flat[..tl]);
        let pl = self.pos.len();
        self.pos.data_mut().copy_from_slice(&flat[tl..tl + pl]);
        &flat[tl + pl..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_sums_token_and_pos() {
        let mut e = Embedding::new(4, 2, 3, &mut Rng::new(0));
        e.table = Tensor::from_vec(4, 3, (0..12).map(|v| v as f32).collect());
        e.pos = Tensor::from_vec(2, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let y = e.forward(&[2, 0], 2);
        // Row 0: table[2] + pos[0] = [6,7,8] + [0.1,0.2,0.3].
        assert_eq!(y.row(0), &[6.1, 7.2, 8.3]);
        // Row 1: table[0] + pos[1].
        assert_eq!(y.row(1), &[0.4, 1.5, 2.6]);
    }

    #[test]
    fn backward_scatter_adds() {
        let e = Embedding::new(4, 2, 2, &mut Rng::new(1));
        let tokens = vec![1u32, 1, 3, 0]; // two sequences of length 2
        let dy = Tensor::from_vec(4, 2, vec![1.0; 8]);
        let mut grad = vec![0.0; e.num_params()];
        e.backward(&tokens, 2, &dy, &mut grad);
        // Token 1 appears twice: its table-grad rows accumulate to 2.
        let h = 2;
        assert_eq!(&grad[h..2 * h], &[2.0, 2.0]);
        // Token 2 never appears.
        assert_eq!(&grad[2 * h..3 * h], &[0.0, 0.0]);
        // Position 0 appears twice (rows 0 and 2).
        let pg = &grad[e.table.len()..];
        assert_eq!(&pg[..h], &[2.0, 2.0]);
    }

    #[test]
    fn param_roundtrip() {
        let e = Embedding::new(5, 3, 4, &mut Rng::new(2));
        let mut flat = Vec::new();
        e.write_params(&mut flat);
        let mut e2 = Embedding::new(5, 3, 4, &mut Rng::new(9));
        assert!(e2.read_params(&flat).is_empty());
        assert_eq!(e2.table, e.table);
        assert_eq!(e2.pos, e.pos);
    }

    #[test]
    #[should_panic(expected = "whole sequences")]
    fn ragged_tokens_rejected() {
        let e = Embedding::new(4, 2, 2, &mut Rng::new(3));
        e.forward(&[0, 1, 2], 2);
    }
}
