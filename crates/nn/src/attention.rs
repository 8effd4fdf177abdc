//! Multi-head self-attention with explicit backward.
//!
//! Between the two projections the layer is six small products per
//! `(sample, head)` pair. Each is one [`gemm_batch`] call over all pairs,
//! reading its operands where they lie — `q`, `k`, `v` as column blocks of
//! the `[b·s, 3h]` projection `qkv`, `dc` as a column block of `dctx` —
//! and writing its result where it belongs: the probabilities of all pairs
//! in one `[b·heads·s, s]` tensor, `ctx` and `dqkv` column blocks in place.
//! With `s` the sequence length and `d = h / heads`:
//!
//! | product      | `m, k, n` | `a` (ld, stored)    | `b` (ld, stored)    | `out` (ld)    | causal     |
//! |--------------|-----------|---------------------|---------------------|---------------|------------|
//! | `p = q·kᵀ`   | `s, d, s` | `q` (`3h`, as is)   | `k` (`3h`, transp.) | `p` (`s`)     | `LowerOut` |
//! | `c = p·v`    | `s, s, d` | `p` (`s`, as is)    | `v` (`3h`, as is)   | `ctx` (`h`)   | `LowerA`   |
//! | `dp = dc·vᵀ` | `s, d, s` | `dc` (`h`, as is)   | `v` (`3h`, transp.) | `dp` (`s`)    | `LowerOut` |
//! | `dv = pᵀ·dc` | `s, s, d` | `p` (`s`, transp.)  | `dc` (`h`, as is)   | `dqkv` (`3h`) | `LowerA`   |
//! | `dq = ds·k`  | `s, s, d` | `ds` (`s`, as is)   | `k` (`3h`, as is)   | `dqkv` (`3h`) | `LowerA`   |
//! | `dk = dsᵀ·q` | `s, s, d` | `ds` (`s`, transp.) | `q` (`3h`, as is)   | `dqkv` (`3h`) | `LowerA`   |
//!
//! Under the causal mask `p` and `ds` are lower-triangular with exact
//! `+0.0` above the diagonal (the softmax ops write it), which is what lets
//! the last four skip the `k` steps above the diagonal without changing a
//! bit, while the first and third never compute what the mask discards.
//! Softmax runs over the stacked `p` in one pass, and its backward turns
//! `dp` into `ds = scale · p ⊙ (dp − p·dp)` in place.

use chimera_tensor::kernels::{gemm_batch, Operand, Triangle};
use chimera_tensor::{scale_mask_softmax_rows, softmax_rows_backward, Rng, Tensor};

use crate::linear::Linear;
use crate::micros::Micros;

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
    /// Attention probabilities of every `(sample, head)` pair, stacked:
    /// `[b·heads·s, s]`.
    probs: Tensor,
    ctx: Tensor,
}

impl AttnStash {
    fn buffers(&self) -> [&Tensor; 4] {
        [&self.x, &self.qkv, &self.probs, &self.ctx]
    }

    /// Total `f32` elements held by this stash.
    pub fn elements(&self) -> usize {
        self.buffers().iter().map(|t| t.len()).sum()
    }

    /// Visit each pool-backed buffer's length.
    pub fn for_each_pooled(&self, f: &mut dyn FnMut(usize)) {
        for t in self.buffers() {
            f(t.len());
        }
    }
}

/// Where one `(sample, head)` pair's blocks start in the layer's buffers.
#[derive(Clone, Copy)]
struct HeadAt {
    /// `q` in `qkv` (and `dq` in `dqkv`); `k` lies `h` further, `v` `2h`.
    q: usize,
    /// The pair's `[s, s]` block in `probs` (and in `dp`).
    p: usize,
    /// The pair's column block in `ctx` (and in `dctx`).
    c: usize,
}

/// Every pair's [`HeadAt`], computed once per pass over the layer, and the
/// offset triples of the product at hand derived from it: one allocation
/// holds both halves.
struct Offsets {
    /// `[q, p, c]` per pair, then as many slots for a product's triples.
    table: Vec<[usize; 3]>,
}

impl Offsets {
    /// The triples `item` makes of each pair's offsets, for
    /// [`gemm_batch`].
    fn batch(&mut self, item: impl Fn(HeadAt) -> [usize; 3]) -> &[[usize; 3]] {
        let pairs = self.table.len() / 2;
        let (heads, triples) = self.table.split_at_mut(pairs);
        for (triple, &[q, p, c]) in triples.iter_mut().zip(heads.iter()) {
            *triple = item(HeadAt { q, p, c });
        }
        triples
    }
}

/// `t`'s blocks, stored the way the product reads them or transposed.
fn operand(t: &Tensor, trans: bool) -> Operand<'_> {
    Operand {
        data: t.data(),
        ld: t.cols(),
        trans,
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

    /// Where the blocks of each `(sample, head)` pair of `b` samples lie.
    fn offsets(&self, b: usize) -> Offsets {
        let (h, s) = (self.wo.w.rows(), self.seq);
        let d = h / self.heads;
        let mut table = Vec::with_capacity(2 * b * self.heads);
        for sample in 0..b {
            for head in 0..self.heads {
                let pair = table.len();
                table.push([
                    sample * s * 3 * h + head * d,
                    pair * s * s,
                    sample * s * h + head * d,
                ]);
            }
        }
        table.resize(2 * table.len(), [0; 3]);
        Offsets { table }
    }

    /// What the causal mask lets the score-shaped products (`out` is
    /// `[s, s]`) and the probability-weighted ones (`a` is `[s, s]`) skip.
    fn triangles(&self) -> (Triangle, Triangle) {
        if self.causal {
            (Triangle::LowerOut, Triangle::LowerA)
        } else {
            (Triangle::Full, Triangle::Full)
        }
    }

    /// Forward over `[b·s, h]` rows (whole sequences).
    pub fn forward(&self, x: &Tensor) -> (Tensor, AttnStash) {
        assert_eq!(x.rows() % self.seq, 0, "rows must be whole sequences");
        let qkv = self.wqkv.forward(x);
        let (probs, ctx) = self.attend(&qkv);
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

    /// The layer between its projections: from `qkv` (`[b·s, 3h]`), every
    /// pair's probabilities `softmax(q·kᵀ/√d + mask)`, stacked
    /// `[b·heads·s, s]`, and the context `[b·s, h]` they weight `v` into.
    pub fn attend(&self, qkv: &Tensor) -> (Tensor, Tensor) {
        let (h, s) = (self.wo.w.rows(), self.seq);
        let b = qkv.rows() / s;
        let d = h / self.heads;
        let scale = 1.0 / (d as f32).sqrt();
        let (scores, weighted) = self.triangles();
        let mut at = self.offsets(b);
        let mut probs = Tensor::zeros(b * self.heads * s, s);
        gemm_batch(
            (s, d, s),
            operand(qkv, false),
            operand(qkv, true),
            probs.data_mut(),
            s,
            at.batch(|at| [at.q, at.q + h, at.p]),
            scores,
        );
        scale_mask_softmax_rows(&mut probs, scale, self.causal.then_some(s));
        let mut ctx = Tensor::zeros(qkv.rows(), h);
        gemm_batch(
            (s, s, d),
            operand(&probs, false),
            operand(qkv, false),
            ctx.data_mut(),
            h,
            at.batch(|at| [at.p, at.q + 2 * h, at.c]),
            weighted,
        );
        (probs, ctx)
    }

    /// Backward: returns `dx`; accumulates `[d wqkv.., d wo..]` into `grad`.
    pub fn backward(&self, stash: &AttnStash, dy: &Tensor, grad: &mut [f32]) -> Tensor {
        self.backward_stacked(stash, dy, grad, Micros::ONE)
    }

    /// [`Attention::backward`] over `micros.count` stacked micro-batches:
    /// the core runs over every `(sample, head)` pair at once, the
    /// projections' weight gradients one chain per micro-batch.
    pub fn backward_stacked(
        &self,
        stash: &AttnStash,
        dy: &Tensor,
        grad: &mut [f32],
        micros: Micros,
    ) -> Tensor {
        assert_eq!(grad.len(), self.num_params());
        let (gqkv, gwo) = grad.split_at_mut(self.wqkv.num_params());
        let dctx = self.wo.backward_stacked(&stash.ctx, dy, gwo, micros);
        let dqkv = self.attend_backward(&stash.qkv, &stash.probs, &dctx);
        self.wqkv.backward_stacked(&stash.x, &dqkv, gqkv, micros)
    }

    /// Backward of [`Attention::attend`]: `dqkv` from the gradient of the
    /// context.
    pub fn attend_backward(&self, qkv: &Tensor, probs: &Tensor, dctx: &Tensor) -> Tensor {
        let (h, s) = (self.wo.w.rows(), self.seq);
        let b = qkv.rows() / s;
        let d = h / self.heads;
        let scale = 1.0 / (d as f32).sqrt();
        let (scores, weighted) = self.triangles();
        let mut at = self.offsets(b);
        let mut dqkv = Tensor::zeros(qkv.rows(), 3 * h);
        // dv = pᵀ·dc
        gemm_batch(
            (s, s, d),
            operand(probs, true),
            operand(dctx, false),
            dqkv.data_mut(),
            3 * h,
            at.batch(|at| [at.p, at.c, at.q + 2 * h]),
            weighted,
        );
        // dp = dc·vᵀ, then ds in its place
        let mut ds = Tensor::zeros(probs.rows(), s);
        gemm_batch(
            (s, d, s),
            operand(dctx, false),
            operand(qkv, true),
            ds.data_mut(),
            s,
            at.batch(|at| [at.c, at.q + 2 * h, at.p]),
            scores,
        );
        softmax_rows_backward(probs, &mut ds, scale, self.causal.then_some(s));
        // dq = ds·k
        gemm_batch(
            (s, s, d),
            operand(&ds, false),
            operand(qkv, false),
            dqkv.data_mut(),
            3 * h,
            at.batch(|at| [at.p, at.q + h, at.q]),
            weighted,
        );
        // dk = dsᵀ·q
        gemm_batch(
            (s, s, d),
            operand(&ds, true),
            operand(qkv, false),
            dqkv.data_mut(),
            3 * h,
            at.batch(|at| [at.p, at.q, at.q + h]),
            weighted,
        );
        dqkv
    }

    /// Visit each parameter slice in flat-layout order.
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        self.wqkv.for_each_param_mut(f);
        self.wo.for_each_param_mut(f);
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

    /// [`Attention::attend`] and its backward one `(sample, head)` pair at
    /// a time, every operand copied out and every result added back: the
    /// composition this module replaced, kept as the numeric oracle.
    mod per_head {
        use super::*;

        fn extract(src: &Tensor, r0: usize, c0: usize, rows: usize, cols: usize) -> Tensor {
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

        pub fn attend(a: &Attention, qkv: &Tensor) -> (Vec<Tensor>, Tensor) {
            let (h, s) = (a.wo.w.rows(), a.seq);
            let d = h / a.heads;
            let scale = 1.0 / (d as f32).sqrt();
            let mut ctx = Tensor::zeros(qkv.rows(), h);
            let mut probs = Vec::new();
            for r0 in (0..qkv.rows()).step_by(s) {
                for head in 0..a.heads {
                    let q = extract(qkv, r0, head * d, s, d);
                    let k = extract(qkv, r0, h + head * d, s, d);
                    let v = extract(qkv, r0, 2 * h + head * d, s, d);
                    let mut p = q.matmul_t(&k);
                    scale_mask_softmax_rows(&mut p, scale, a.causal.then_some(s));
                    add_into(&mut ctx, &p.matmul(&v), r0, head * d);
                    probs.push(p);
                }
            }
            (probs, ctx)
        }

        pub fn attend_backward(
            a: &Attention,
            qkv: &Tensor,
            probs: &[Tensor],
            dctx: &Tensor,
        ) -> Tensor {
            let (h, s) = (a.wo.w.rows(), a.seq);
            let d = h / a.heads;
            let scale = 1.0 / (d as f32).sqrt();
            let mut dqkv = Tensor::zeros(qkv.rows(), 3 * h);
            let mut probs = probs.iter();
            for r0 in (0..qkv.rows()).step_by(s) {
                for head in 0..a.heads {
                    let p = probs.next().expect("one per pair");
                    let q = extract(qkv, r0, head * d, s, d);
                    let k = extract(qkv, r0, h + head * d, s, d);
                    let v = extract(qkv, r0, 2 * h + head * d, s, d);
                    let dc = extract(dctx, r0, head * d, s, d);
                    let mut ds = dc.matmul_t(&v);
                    softmax_rows_backward(p, &mut ds, scale, a.causal.then_some(s));
                    add_into(&mut dqkv, &ds.matmul(&k), r0, head * d);
                    add_into(&mut dqkv, &ds.t_matmul(&q), r0, h + head * d);
                    add_into(&mut dqkv, &p.t_matmul(&dc), r0, 2 * h + head * d);
                }
            }
            dqkv
        }
    }

    fn attn(causal: bool) -> (Attention, Tensor, Tensor) {
        sized(4, 3, 2, causal)
    }

    /// A two-head layer of head width `d` over `b` sequences of `s`, an
    /// input and a weighting of the output that makes the loss `Σ y ⊙ w`.
    fn sized(d: usize, s: usize, b: usize, causal: bool) -> (Attention, Tensor, Tensor) {
        let mut rng = Rng::new(7);
        let h = 2 * d;
        let a = Attention::new(h, 2, s, causal, &mut rng);
        let x = Tensor::normal(b * s, h, 0.5, &mut rng);
        let w = Tensor::normal(b * s, h, 1.0, &mut rng);
        (a, x, w)
    }

    /// Ragged row and column tiles, `d < LANES`, `d ≥ NR`, one and two
    /// samples, masked and not.
    fn grid() -> impl Iterator<Item = (Attention, Tensor, Tensor)> {
        [(1, 3), (4, 5), (8, 19), (16, 16), (64, 8)]
            .into_iter()
            .flat_map(|(d, s)| [(d, s, 1), (d, s, 2)])
            .flat_map(|(d, s, b)| [sized(d, s, b, false), sized(d, s, b, true)])
    }

    fn loss(a: &Attention, x: &Tensor, w: &Tensor) -> f64 {
        let y = a.forward(x).0;
        let terms = y.data().iter().zip(w.data());
        terms.map(|(&y, &w)| f64::from(y) * f64::from(w)).sum()
    }

    fn assert_close(got: f32, numeric: f64, what: &str) {
        let tol = 5e-2 * numeric.abs().max(1.0);
        assert!(
            (f64::from(got) - numeric).abs() < tol,
            "{what}: {got} vs {numeric}"
        );
    }

    #[test]
    fn output_shape_matches_input() {
        let (a, x, _) = attn(false);
        let (y, stash) = a.forward(&x);
        assert_eq!((y.rows(), y.cols()), (x.rows(), x.cols()));
        // One stacked `[b·heads·s, s]` tensor.
        assert_eq!((stash.probs.rows(), stash.probs.cols()), (2 * 2 * 3, 3));
    }

    #[test]
    fn stash_census_is_its_four_buffers() {
        let (a, x, _) = sized(8, 19, 2, true);
        let stash = a.forward(&x).1;
        let (rows, h) = (x.rows(), x.cols());
        let want = [rows * h, rows * 3 * h, 2 * 2 * 19 * 19, rows * h];
        let mut seen = Vec::new();
        stash.for_each_pooled(&mut |len| seen.push(len));
        assert_eq!(seen, want);
        assert_eq!(stash.elements(), want.iter().sum::<usize>());
    }

    /// After one warm-up cycle a forward + backward takes every buffer —
    /// tensors and the batched kernel's pack scratch — from the pool. The
    /// counters are this thread's own, so tests beside it cannot disturb
    /// them.
    #[test]
    fn steady_state_takes_nothing_from_the_allocator() {
        use chimera_tensor::pool;
        let (a, x, w) = sized(8, 19, 2, true);
        let mut grad = vec![0.0; a.num_params()];
        let mut cycle = || {
            let (_, stash) = a.forward(&x);
            a.backward(&stash, &w, &mut grad);
        };
        cycle();
        let before = pool::local_stats();
        cycle();
        let after = pool::local_stats();
        assert_eq!(after.misses, before.misses);
        assert!(after.hits > before.hits, "buffers must come from the pool");
    }

    #[test]
    fn causal_probs_lower_triangular() {
        let (a, x, _) = attn(true);
        let (_, stash) = a.forward(&x);
        let p = &stash.probs;
        for r in 0..p.rows() {
            for j in (r % a.seq + 1)..p.cols() {
                assert_eq!(p.get(r, j).to_bits(), 0, "future position attended");
            }
        }
    }

    #[test]
    fn backward_matches_numeric_dx() {
        for (a, x, w) in grid() {
            let (_, stash) = a.forward(&x);
            let mut grad = vec![0.0; a.num_params()];
            let dx = a.backward(&stash, &w, &mut grad);
            let eps = 1e-2f32;
            // Spot-check a spread of coordinates (full check is O(n²) slow).
            for i in (0..x.len()).step_by(x.len() / 6 + 1) {
                let mut xp = x.clone();
                xp.data_mut()[i] += eps;
                let mut xm = x.clone();
                xm.data_mut()[i] -= eps;
                let num = (loss(&a, &xp, &w) - loss(&a, &xm, &w)) / f64::from(2.0 * eps);
                let what = format!("d={} s={} causal={} dx[{i}]", x.cols() / 2, a.seq, a.causal);
                assert_close(dx.data()[i], num, &what);
            }
        }
    }

    /// One weight in each of the q, k and v column blocks of `wqkv`, one of
    /// its biases in the q and v blocks (the k bias shifts every score of a
    /// row alike, so its gradient is zero), one weight and one bias of `wo`.
    #[test]
    fn backward_matches_numeric_weights() {
        for (a, x, w) in grid() {
            let h = x.cols();
            let (_, stash) = a.forward(&x);
            let mut grad = vec![0.0; a.num_params()];
            a.backward(&stash, &w, &mut grad);
            let wqkv_b = h * 3 * h;
            let wo_w = wqkv_b + 3 * h;
            let probes = [
                ("wqkv.w q", (h - 1) * 3 * h + h - 1),
                ("wqkv.w k", 3 * h + h + h / 2),
                ("wqkv.w v", 2 * h),
                ("wqkv.b q", wqkv_b + h / 2),
                ("wqkv.b v", wqkv_b + 3 * h - 1),
                ("wo.w", wo_w + (h / 2) * h + h - 1),
                ("wo.b", wo_w + h * h),
            ];
            let mut flat = Vec::new();
            a.write_params(&mut flat);
            let eps = 1e-2f32;
            for (name, i) in probes {
                let at = |delta: f32| {
                    let mut shifted = flat.clone();
                    shifted[i] += delta;
                    let mut layer = a.clone();
                    layer.read_params(&shifted);
                    loss(&layer, &x, &w)
                };
                let num = (at(eps) - at(-eps)) / f64::from(2.0 * eps);
                let what = format!("d={} s={} causal={} {name}", h / 2, a.seq, a.causal);
                assert_close(grad[i], num, &what);
            }
        }
    }

    #[test]
    fn agrees_with_the_per_head_composition() {
        fn assert_rel(got: &[f32], want: &[f32], what: &str) {
            let scale = want.iter().fold(1.0f32, |m, v| m.max(v.abs()));
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert!((g - w).abs() <= 1e-5 * scale, "{what}[{i}]: {g} vs {w}");
            }
        }
        for (a, x, w) in grid() {
            let what = format!("d={} s={} causal={}", x.cols() / 2, a.seq, a.causal);
            let (out, stash) = a.forward(&x);
            let mut grad = vec![0.0; a.num_params()];
            let dx = a.backward(&stash, &w, &mut grad);
            // The same projections around the per-head core.
            let qkv = a.wqkv.forward(&x);
            let (probs, ctx) = per_head::attend(&a, &qkv);
            let want_out = a.wo.forward(&ctx);
            let mut want_grad = vec![0.0; a.num_params()];
            let (gqkv, gwo) = want_grad.split_at_mut(a.wqkv.num_params());
            let dctx = a.wo.backward(&ctx, &w, gwo);
            let dqkv = per_head::attend_backward(&a, &qkv, &probs, &dctx);
            let want_dx = a.wqkv.backward(&x, &dqkv, gqkv);
            assert_rel(out.data(), want_out.data(), &format!("{what} out"));
            assert_rel(dx.data(), want_dx.data(), &format!("{what} dx"));
            assert_rel(&grad, &want_grad, &format!("{what} grad"));
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
