//! The module walk: one training step of the sequential reference, made
//! from the public forwards and backwards of each nn module so that a span
//! can be put around every one of them.
//!
//! It repeats, call for call, what `ReferenceTrainer::train_iteration` →
//! `Stage::forward/backward` → `TransformerBlock::forward/backward` do —
//! the benchmark checks that its losses and parameters are bit-identical to
//! the reference's and that its step time is within 5 % of it — so the time
//! it attributes to a module is the time that module costs the program.

use chimera::nn::attention::AttnStash;
use chimera::nn::head::HeadStash;
use chimera::nn::{ModelConfig, Optimizer, OptimizerKind, Stage, SyntheticData};
use chimera::tensor::{gelu, gelu_backward, pool, LayerNormStash, Tensor};

use crate::spans::Spans;

/// What one block keeps between its forward and its backward.
struct BlockStash {
    ln1: LayerNormStash,
    attn: AttnStash,
    ln2: LayerNormStash,
    ln2_out: Tensor,
    fc1_out: Tensor,
    gelu_out: Tensor,
}

/// A one-stage model trained step by step through its modules.
pub struct WalkTrainer {
    stage: Stage,
    opt: Optimizer,
    data: SyntheticData,
    micro_batch: usize,
    lr: f32,
}

impl WalkTrainer {
    /// Same model, data, and update rule as
    /// `ReferenceTrainer::new(Stage::build_all(cfg, 1), data, micro_batch, lr, momentum)`.
    pub fn new(
        cfg: ModelConfig,
        data_seed: u64,
        micro_batch: usize,
        lr: f32,
        momentum: f32,
    ) -> Self {
        let stage = Stage::build(cfg, 0, 1);
        let opt = Optimizer::new(OptimizerKind::Sgd { momentum }, stage.num_params());
        WalkTrainer {
            stage,
            opt,
            data: SyntheticData::new(cfg, data_seed),
            micro_batch,
            lr,
        }
    }

    /// Flat parameters, comparable with `ReferenceTrainer::flat_params`.
    pub fn flat_params(&self) -> Vec<f32> {
        self.stage.params()
    }

    /// One training iteration over micro-batches `[first_micro, first_micro + n)`
    /// as operation `op`; returns the mean loss.
    pub fn step(&mut self, sp: &mut Spans, op: u64, first_micro: u64, n: u32) -> f32 {
        sp.op(op, "step", |sp| self.step_inner(sp, first_micro, n))
    }

    fn step_inner(&mut self, sp: &mut Spans, first_micro: u64, n: u32) -> f32 {
        let scale = 1.0 / n as f32;
        let mut grads = pool::take_zeroed(self.stage.num_params());
        let mut loss_sum = 0.0f64;
        for m in 0..u64::from(n) {
            let (tokens, targets) = sp.scope("nn.data", |_| {
                self.data.batch(first_micro + m, self.micro_batch)
            });
            let (loss, stashes, head_stash) = self.forward(sp, &tokens, &targets);
            loss_sum += f64::from(loss);
            let g = self.backward(sp, &tokens, &stashes, &head_stash, scale);
            sp.scope("nn.grad_accumulate", |_| {
                for (acc, v) in grads.iter_mut().zip(&g) {
                    *acc += v;
                }
                pool::put(g);
            });
        }
        let lr = self.lr;
        let mut p = sp.scope("nn.params_copy", |_| self.stage.params());
        sp.scope("nn.optimizer", |_| self.opt.step(&mut p, &grads, lr));
        sp.scope("nn.params_copy", |_| {
            self.stage.set_params(&p);
            pool::put(p);
            pool::put(grads);
        });
        (loss_sum / f64::from(n)) as f32
    }

    fn forward(
        &self,
        sp: &mut Spans,
        tokens: &[u32],
        targets: &[u32],
    ) -> (f32, Vec<BlockStash>, HeadStash) {
        let seq = self.stage.config().seq;
        let emb = self.stage.embedding.as_ref().expect("one-stage model");
        let head = self.stage.head.as_ref().expect("one-stage model");
        let mut cur = sp.scope("nn.embedding_fwd", |_| emb.forward(tokens, seq));
        let mut stashes = Vec::with_capacity(self.stage.blocks.len());
        for blk in &self.stage.blocks {
            let (n1, ln1) = sp.scope("nn.layernorm_fwd", |_| blk.ln1.forward(&cur));
            let (a, attn) = sp.scope("nn.attention_fwd", |_| blk.attn.forward(&n1));
            let after_attn = sp.scope("nn.residual", |_| cur.add(&a));
            let (ln2_out, ln2) = sp.scope("nn.layernorm_fwd", |_| blk.ln2.forward(&after_attn));
            let (fc1_out, gelu_out, m) = sp.scope("nn.mlp_fwd", |_| {
                let fc1_out = blk.fc1.forward(&ln2_out);
                let gelu_out = gelu(&fc1_out);
                let m = blk.fc2.forward(&gelu_out);
                (fc1_out, gelu_out, m)
            });
            cur = sp.scope("nn.residual", |_| after_attn.add(&m));
            stashes.push(BlockStash {
                ln1,
                attn,
                ln2,
                ln2_out,
                fc1_out,
                gelu_out,
            });
        }
        let (loss, hs) = sp.scope("nn.head_fwd", |_| head.forward_loss(&cur, targets));
        (loss, stashes, hs)
    }

    fn backward(
        &self,
        sp: &mut Spans,
        tokens: &[u32],
        stashes: &[BlockStash],
        head_stash: &HeadStash,
        loss_scale: f32,
    ) -> Vec<f32> {
        let seq = self.stage.config().seq;
        let emb = self.stage.embedding.as_ref().expect("one-stage model");
        let head = self.stage.head.as_ref().expect("one-stage model");
        let mut grad = pool::take_zeroed(self.stage.num_params());
        let emb_len = emb.num_params();
        let mut offset = grad.len() - head.num_params();
        let mut d = sp.scope("nn.head_bwd", |_| {
            head.backward(head_stash, loss_scale, &mut grad[offset..])
        });
        for (blk, st) in self.stage.blocks.iter().zip(stashes).rev() {
            let len = blk.num_params();
            offset -= len;
            let g = &mut grad[offset..offset + len];
            let (g_ln1, rest) = g.split_at_mut(blk.ln1.num_params());
            let (g_attn, rest) = rest.split_at_mut(blk.attn.num_params());
            let (g_ln2, rest) = rest.split_at_mut(blk.ln2.num_params());
            let (g_fc1, g_fc2) = rest.split_at_mut(blk.fc1.num_params());

            let d_n2 = sp.scope("nn.mlp_bwd", |_| {
                let d_gelu = blk.fc2.backward(&st.gelu_out, &d, g_fc2);
                let d_fc1 = gelu_backward(&st.fc1_out, &d_gelu);
                blk.fc1.backward(&st.ln2_out, &d_fc1, g_fc1)
            });
            let mut d_after_attn = sp.scope("nn.layernorm_bwd", |_| {
                blk.ln2.backward(&st.ln2, &d_n2, g_ln2)
            });
            sp.scope("nn.residual", |_| d_after_attn.add_assign(&d));
            let d_a = sp.scope("nn.attention_bwd", |_| {
                blk.attn.backward(&st.attn, &d_after_attn, g_attn)
            });
            let mut dx = sp.scope("nn.layernorm_bwd", |_| {
                blk.ln1.backward(&st.ln1, &d_a, g_ln1)
            });
            sp.scope("nn.residual", |_| dx.add_assign(&d_after_attn));
            d = dx;
        }
        debug_assert_eq!(offset, emb_len);
        sp.scope("nn.embedding_bwd", |_| {
            emb.backward(tokens, seq, &d, &mut grad[..emb_len]);
        });
        grad
    }
}
