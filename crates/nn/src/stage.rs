//! Pipeline stages: a contiguous slice of the model's layers, with
//! deterministic construction so any partitioning yields bit-identical
//! parameters.

use chimera_tensor::kernels::Epilogue;
use chimera_tensor::{pool, Rng, Tensor};

use crate::block::{BlockStash, TransformerBlock};
use crate::embedding::Embedding;
use crate::head::{HeadStash, OutputHead};
use crate::micros::Micros;
use crate::optim::Optimizer;

/// Global model description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Sequence length.
    pub seq: usize,
    /// Number of transformer layers (must be divisible by the pipeline
    /// depth used).
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// Causal (GPT-style) attention.
    pub causal: bool,
    /// Master seed; every layer derives its own deterministic sub-seed so
    /// partitioning does not change initialization.
    pub seed: u64,
}

impl ModelConfig {
    /// A laptop-scale GPT-style model used by the tests and examples.
    pub fn tiny() -> Self {
        ModelConfig {
            vocab: 31,
            hidden: 16,
            seq: 4,
            layers: 4,
            heads: 2,
            causal: true,
            seed: 42,
        }
    }

    /// Sub-seed for layer `l` (or the embedding/head pseudo-layers).
    fn layer_seed(&self, tag: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tag.wrapping_mul(0xD134_2543_DE82_EF95))
    }
}

/// One pipeline stage: `layers/D` consecutive blocks, with the embedding on
/// stage 0 and the output head on stage `D-1`.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage index in `0..D`.
    pub index: u32,
    /// Pipeline depth `D` this stage was partitioned for.
    pub depth: u32,
    /// Token/position embedding (stage 0 only).
    pub embedding: Option<Embedding>,
    /// The stage's transformer blocks.
    pub blocks: Vec<TransformerBlock>,
    /// Loss head (last stage only).
    pub head: Option<OutputHead>,
    cfg: ModelConfig,
}

/// Per-micro-batch activation stash of a stage (of every micro-batch a
/// stacked pass ran, see [`Stage::forward_stacked`]).
#[derive(Debug, Clone)]
pub struct MicroStash {
    tokens: Option<Vec<u32>>,
    /// Stage input (needed to re-run the forward under recomputation).
    input: Option<Tensor>,
    block_stashes: Vec<BlockStash>,
    head: Option<HeadStash>,
    /// Micro-batches stacked in the stash's rows.
    micros: usize,
}

impl MicroStash {
    /// Drop everything except the stage-boundary input (activation
    /// recomputation: the backward re-runs the forward from this).
    pub fn drop_to_boundary(&mut self) {
        self.block_stashes.clear();
        self.head = None;
    }

    /// Whether the full stash is present.
    pub fn is_full(&self) -> bool {
        !self.block_stashes.is_empty() || self.head.is_some()
    }

    /// Total `f32` elements held by this stash (`tokens` are `u32` and
    /// excluded from the float accounting).
    pub fn elements(&self) -> usize {
        self.input.as_ref().map_or(0, Tensor::len)
            + self
                .block_stashes
                .iter()
                .map(BlockStash::elements)
                .sum::<usize>()
            + self.head.as_ref().map_or(0, HeadStash::elements)
    }

    /// Visit each pool-backed buffer's length — the per-stash census the
    /// liveness-driven pool pre-sizing plan multiplies by the maximum number
    /// of concurrently-live stashes.
    pub fn for_each_pooled(&self, f: &mut dyn FnMut(usize)) {
        if let Some(input) = &self.input {
            f(input.len());
        }
        for b in &self.block_stashes {
            b.for_each_pooled(f);
        }
        if let Some(h) = &self.head {
            h.for_each_pooled(f);
        }
    }
}

/// Stage forward result.
#[derive(Debug, Clone)]
pub struct StageOutput {
    /// Boundary activation to send to the next stage (`None` on the last).
    pub activation: Option<Tensor>,
    /// Loss (last stage only).
    pub loss: Option<f32>,
}

impl Stage {
    /// Build stage `index` of a `depth`-stage partition of `cfg`.
    /// Layer `l`'s parameters depend only on `(cfg.seed, l)`.
    pub fn build(cfg: ModelConfig, index: u32, depth: u32) -> Stage {
        assert!(depth >= 1 && index < depth);
        assert_eq!(
            cfg.layers % depth as usize,
            0,
            "layers must divide evenly into stages"
        );
        let per = cfg.layers / depth as usize;
        let first = index as usize * per;
        let blocks = (first..first + per)
            .map(|l| {
                let mut rng = Rng::new(cfg.layer_seed(l as u64 + 1));
                TransformerBlock::new(cfg.hidden, cfg.heads, cfg.seq, cfg.causal, &mut rng)
            })
            .collect();
        let embedding = (index == 0).then(|| {
            let mut rng = Rng::new(cfg.layer_seed(0));
            Embedding::new(cfg.vocab, cfg.seq, cfg.hidden, &mut rng)
        });
        let head = (index == depth - 1).then(|| {
            let mut rng = Rng::new(cfg.layer_seed(u64::MAX));
            OutputHead::new(cfg.hidden, cfg.vocab, &mut rng)
        });
        Stage {
            index,
            depth,
            embedding,
            blocks,
            head,
            cfg,
        }
    }

    /// Build all `depth` stages.
    pub fn build_all(cfg: ModelConfig, depth: u32) -> Vec<Stage> {
        (0..depth).map(|i| Stage::build(cfg, i, depth)).collect()
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Total parameter count of the stage.
    pub fn num_params(&self) -> usize {
        self.embedding.as_ref().map_or(0, Embedding::num_params)
            + self
                .blocks
                .iter()
                .map(TransformerBlock::num_params)
                .sum::<usize>()
            + self.head.as_ref().map_or(0, OutputHead::num_params)
    }

    /// `f32` elements one micro-batch of `micro_batch` sequences leaves in
    /// this stage's full stash ([`MicroStash::elements`]): the boundary
    /// input (not on stage 0); per block sixteen `rows × h` activations, two
    /// rows of `1/σ` and every head's `[s, s]` probabilities; on the last
    /// stage the head's normalized input and its output, a row of `1/σ` and
    /// the `rows × vocab` probabilities.
    pub fn stash_elements(&self, micro_batch: usize) -> usize {
        let c = &self.cfg;
        let (h, s) = (c.hidden, c.seq);
        let rows = micro_batch * s;
        let input = if self.embedding.is_some() {
            0
        } else {
            rows * h
        };
        let block = 16 * rows * h + 2 * rows + micro_batch * c.heads * s * s;
        let head = self
            .head
            .as_ref()
            .map_or(0, |_| 2 * rows * h + rows + rows * c.vocab);
        input + self.blocks.len() * block + head
    }

    /// Forward one micro-batch. Stage 0 takes `tokens`; later stages take
    /// the previous boundary activation `x`. The last stage needs `targets`.
    pub fn forward(
        &self,
        x: Option<Tensor>,
        tokens: Option<&[u32]>,
        targets: Option<&[u32]>,
    ) -> (StageOutput, MicroStash) {
        let (activation, losses, stash) = self.forward_stacked(x, tokens, targets, 1);
        let loss = losses.first().copied();
        (StageOutput { activation, loss }, stash)
    }

    /// [`Stage::forward`] over `micros` micro-batches stacked in micro order
    /// (their `x` rows, `tokens` and `targets` concatenated): one pass, one
    /// stash, and on the last stage one loss per micro-batch. Every row
    /// comes out as the one-micro forward computes it.
    pub fn forward_stacked(
        &self,
        x: Option<Tensor>,
        tokens: Option<&[u32]>,
        targets: Option<&[u32]>,
        micros: usize,
    ) -> (Option<Tensor>, Vec<f32>, MicroStash) {
        let mut stash = MicroStash {
            tokens: tokens.map(<[u32]>::to_vec),
            input: None,
            block_stashes: Vec::with_capacity(self.blocks.len()),
            head: None,
            micros,
        };
        let mut cur = match (&self.embedding, x) {
            (Some(emb), None) => {
                let t = tokens.expect("stage 0 needs tokens");
                emb.forward(t, self.cfg.seq)
            }
            (None, Some(x)) => {
                stash.input = Some(x.clone());
                x
            }
            _ => panic!("stage input mismatch: embedding stages take tokens"),
        };
        for blk in &self.blocks {
            let (y, bs) = blk.forward(&cur);
            stash.block_stashes.push(bs);
            cur = y;
        }
        match &self.head {
            Some(head) => {
                let t = targets.expect("last stage needs targets");
                let (losses, hs) = head.forward_losses(&cur, t, micros);
                stash.head = Some(hs);
                (None, losses, stash)
            }
            None => (Some(cur), Vec::new(), stash),
        }
    }

    /// Re-run the forward from the boundary input to rebuild a full stash
    /// (activation recomputation). Only valid on stages with an input
    /// activation (not stage 0, whose "input" is the token ids — those are
    /// always kept, so recomputation works there too).
    pub fn recompute(&self, stash: &mut MicroStash, targets: Option<&[u32]>) {
        let tokens = stash.tokens.clone();
        let x = stash.input.clone();
        let (_, _, full) = self.forward_stacked(x, tokens.as_deref(), targets, stash.micros);
        stash.block_stashes = full.block_stashes;
        stash.head = full.head;
    }

    /// Backward one micro-batch. The last stage starts from the loss
    /// (`dy = None`, scaled by `loss_scale`, typically `1/N`); other stages
    /// take the boundary gradient. Returns the gradient to send upstream
    /// (`None` on stage 0) and the stage's flat parameter gradient, written
    /// into a pooled buffer that is not cleared first ([`pool::take_stale`]).
    pub fn backward(
        &self,
        stash: &MicroStash,
        dy: Option<Tensor>,
        loss_scale: f32,
    ) -> (Option<Tensor>, Vec<f32>) {
        let mut grad = pool::take_stale(self.num_params());
        let dx = self.backward_into(stash, dy, loss_scale, &mut grad, Epilogue::Write);
        (dx, grad)
    }

    /// The backward of a stash of any number of stacked micro-batches:
    /// `dX` over all their rows at once, and each micro-batch's parameter
    /// gradient one chain per weight, landed in `grad` (flat,
    /// [`Stage::params`] layout) in micro order, the first micro-batch's
    /// under `first` (see [`Micros::first`]) — under `Add`, bit for bit
    /// `ops::add_ordered(grad, &[g])` of each one-micro [`Stage::backward`]'s
    /// `g` in turn; under `Write`, the same on a `grad` of `+0.0`, whatever
    /// `grad` held: every element is written.
    pub fn backward_into(
        &self,
        stash: &MicroStash,
        dy: Option<Tensor>,
        loss_scale: f32,
        grad: &mut [f32],
        first: Epilogue,
    ) -> Option<Tensor> {
        assert!(stash.is_full(), "backward needs a full stash (recompute?)");
        assert_eq!(grad.len(), self.num_params());
        let micros = Micros {
            count: stash.micros,
            first,
        };
        let emb_len = self.embedding.as_ref().map_or(0, Embedding::num_params);
        let head_len = self.head.as_ref().map_or(0, OutputHead::num_params);
        let blocks_len = grad.len() - emb_len - head_len;

        let mut d = match (&self.head, dy) {
            (Some(head), None) => {
                let hs = stash.head.as_ref().expect("head stash");
                let g = &mut grad[emb_len + blocks_len..];
                head.backward_stacked(hs, loss_scale, g, micros)
            }
            (None, Some(dy)) => dy,
            _ => panic!("stage backward input mismatch"),
        };

        let mut offset = emb_len + blocks_len;
        for (blk, bs) in self.blocks.iter().zip(&stash.block_stashes).rev() {
            let len = blk.num_params();
            offset -= len;
            d = blk.backward_stacked(bs, &d, &mut grad[offset..offset + len], micros);
        }

        match &self.embedding {
            Some(emb) => {
                let tokens = stash.tokens.as_ref().expect("stage-0 stash has tokens");
                emb.backward_stacked(tokens, self.cfg.seq, &d, &mut grad[..emb_len], micros);
                None
            }
            None => Some(d),
        }
    }

    /// Flat parameters in the gradient's layout. The buffer comes from the
    /// [`pool`]; callers that drop it on the floor should `pool::put` it
    /// back when done (the optimizer update path does).
    pub fn params(&self) -> Vec<f32> {
        let mut out = pool::take_spare(self.num_params());
        self.write_params(&mut out);
        out
    }

    /// Append the flat parameters ([`Stage::params`] layout) to `out`.
    pub fn write_params(&self, out: &mut Vec<f32>) {
        out.reserve(self.num_params());
        if let Some(e) = &self.embedding {
            e.write_params(out);
        }
        for b in &self.blocks {
            b.write_params(out);
        }
        if let Some(h) = &self.head {
            h.write_params(out);
        }
    }

    /// The parameters of `stages`, in order, as one vector allocated once.
    pub fn flat_params<'a, I>(stages: I) -> Vec<f32>
    where
        I: IntoIterator<Item = &'a Stage>,
        I::IntoIter: Clone,
    {
        let stages = stages.into_iter();
        let mut flat = Vec::with_capacity(stages.clone().map(Stage::num_params).sum());
        for stage in stages {
            stage.write_params(&mut flat);
        }
        flat
    }

    /// One optimizer update applied where the parameters live: `grad` (flat,
    /// in [`Stage::params`] layout) is walked range by range alongside the
    /// parameter tensors, so nothing is flattened or loaded back. Bit for
    /// bit what `params` → [`Optimizer::step`] → `set_params` computes.
    pub fn step(&mut self, opt: &mut Optimizer, grad: &[f32], lr: f32) {
        assert_eq!(grad.len(), self.num_params());
        assert_eq!(opt.len(), grad.len());
        let mut update = opt.begin_step(lr);
        let mut at = 0;
        self.for_each_param_mut(&mut |p| {
            update.apply(at, p, &grad[at..at + p.len()]);
            at += p.len();
        });
        debug_assert_eq!(at, grad.len());
    }

    /// Visit every parameter slice in the flat layout's order.
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut [f32])) {
        if let Some(e) = &mut self.embedding {
            e.for_each_param_mut(f);
        }
        for b in &mut self.blocks {
            b.for_each_param_mut(f);
        }
        if let Some(h) = &mut self.head {
            h.for_each_param_mut(f);
        }
    }

    /// Load flat parameters (layout of [`Stage::params`]).
    pub fn set_params(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.num_params());
        let mut rest = flat;
        if let Some(e) = &mut self.embedding {
            rest = e.read_params(rest);
        }
        for b in &mut self.blocks {
            rest = b.read_params(rest);
        }
        if let Some(h) = &mut self.head {
            rest = h.read_params(rest);
        }
        debug_assert!(rest.is_empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticData;

    #[test]
    fn partitioning_preserves_initialization() {
        let cfg = ModelConfig::tiny();
        let d1 = Stage::build_all(cfg, 1);
        let d2 = Stage::build_all(cfg, 2);
        let d4 = Stage::build_all(cfg, 4);
        // Concatenated parameters are identical for every partitioning.
        let flat = |stages: &[Stage]| -> Vec<f32> {
            stages.iter().flat_map(super::Stage::params).collect()
        };
        assert_eq!(flat(&d1), flat(&d2));
        assert_eq!(flat(&d1), flat(&d4));
    }

    #[test]
    fn stage_roles() {
        let cfg = ModelConfig::tiny();
        let stages = Stage::build_all(cfg, 4);
        assert!(stages[0].embedding.is_some());
        assert!(stages[0].head.is_none());
        assert!(stages[3].head.is_some());
        assert!(stages[3].embedding.is_none());
        assert!(stages[1].embedding.is_none() && stages[1].head.is_none());
        for s in &stages {
            assert_eq!(s.blocks.len(), 1);
        }
        // Stage 0 carries the embedding surplus (§4.1).
        assert!(stages[0].num_params() > stages[1].num_params());
    }

    #[test]
    fn forward_backward_chain_through_stages() {
        let cfg = ModelConfig::tiny();
        let stages = Stage::build_all(cfg, 2);
        let data = SyntheticData::new(cfg, 7);
        let (tokens, targets) = data.batch(0, 2);
        let (o0, s0) = stages[0].forward(None, Some(&tokens), None);
        let (o1, s1) = stages[1].forward(o0.activation, None, Some(&targets));
        let loss = o1.loss.unwrap();
        assert!(loss.is_finite() && loss > 0.0);
        let (d1, g1) = stages[1].backward(&s1, None, 1.0);
        assert_eq!(g1.len(), stages[1].num_params());
        let (d0, g0) = stages[0].backward(&s0, d1, 1.0);
        assert!(d0.is_none());
        assert!(g0.iter().any(|&g| g != 0.0));
    }

    #[test]
    fn recompute_reproduces_full_stash_backward() {
        let cfg = ModelConfig::tiny();
        let stages = Stage::build_all(cfg, 2);
        let data = SyntheticData::new(cfg, 8);
        let (tokens, targets) = data.batch(0, 2);
        let (o0, _) = stages[0].forward(None, Some(&tokens), None);
        let (_, mut s1) = stages[1].forward(o0.activation, None, Some(&targets));
        let (_, g_full) = stages[1].backward(&s1, None, 1.0);
        s1.drop_to_boundary();
        assert!(!s1.is_full());
        stages[1].recompute(&mut s1, Some(&targets));
        let (_, g_re) = stages[1].backward(&s1, None, 1.0);
        assert_eq!(g_full, g_re, "recomputation must be bit-identical");
    }

    /// Pins the stash composition the liveness oracle and the pool
    /// pre-sizing census rely on: measured `elements()` must equal the
    /// closed-form per-stage footprint, and the pooled census must account
    /// for everything except the plain (non-pooled) `inv_std` vectors.
    #[test]
    fn stash_elements_match_closed_form() {
        let cfg = ModelConfig::tiny();
        let stages = Stage::build_all(cfg, 2);
        let data = SyntheticData::new(cfg, 9);
        let b = 2usize;
        let (tokens, targets) = data.batch(0, b);
        let (h, s, v) = (cfg.hidden, cfg.seq, cfg.vocab);
        let rows = b * s;
        // Per block, in units of rows×h: ln1.x̂ (1) + attn x/qkv/ctx (1+3+1)
        // + ln2.x̂ (1) + ln2_out (1) + fc1_out (4) + gelu_out (4) = 16, plus
        // two inv_std rows and the attention probability matrices.
        let per_block = 16 * rows * h + 2 * rows + b * cfg.heads * s * s;
        let head = 2 * rows * h + rows + rows * v;

        let (o0, s0) = stages[0].forward(None, Some(&tokens), None);
        let blocks0 = stages[0].blocks.len();
        assert_eq!(s0.elements(), blocks0 * per_block, "stage 0 (no input)");
        assert_eq!(stages[0].stash_elements(b), s0.elements());

        let (_, s1) = stages[1].forward(o0.activation.clone(), None, Some(&targets));
        let blocks1 = stages[1].blocks.len();
        assert_eq!(
            s1.elements(),
            rows * h + blocks1 * per_block + head,
            "stage 1 (boundary input + head)"
        );
        assert_eq!(stages[1].stash_elements(b), s1.elements());

        // A stacked pass holds one micro-batch's stash per micro-batch.
        let (_, _, s0x2) =
            stages[0].forward_stacked(None, Some(&[&tokens[..], &tokens].concat()), None, 2);
        assert_eq!(s0x2.elements(), 2 * s0.elements());
        let x = o0.activation.expect("stage 0 hands on an activation");
        let stacked = Tensor::from_vec(2 * x.rows(), x.cols(), [x.data(), x.data()].concat());
        let targets2 = [&targets[..], &targets].concat();
        let (_, losses, s1x2) = stages[1].forward_stacked(Some(stacked), None, Some(&targets2), 2);
        assert_eq!(s1x2.elements(), 2 * s1.elements());
        assert_eq!(losses.len(), 2);

        for (stash, blocks, has_head) in [(&s0, blocks0, false), (&s1, blocks1, true)] {
            let mut pooled = 0usize;
            stash.for_each_pooled(&mut |len| pooled += len);
            let inv_std = rows * (2 * blocks + usize::from(has_head));
            assert_eq!(pooled, stash.elements() - inv_std);
        }

        // The boundary stash is exactly the input tensor.
        let mut s1b = s1.clone();
        s1b.drop_to_boundary();
        assert_eq!(s1b.elements(), rows * h);
        let mut s0b = s0.clone();
        s0b.drop_to_boundary();
        assert_eq!(s0b.elements(), 0, "stage 0 boundary is tokens only");
    }

    #[test]
    fn params_roundtrip() {
        let cfg = ModelConfig::tiny();
        let mut s = Stage::build(cfg, 0, 2);
        let p = s.params();
        let mut modified = p.clone();
        modified[0] += 1.0;
        s.set_params(&modified);
        assert_eq!(s.params(), modified);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_partition_rejected() {
        Stage::build(ModelConfig::tiny(), 0, 3);
    }
}
