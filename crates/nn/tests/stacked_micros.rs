//! Stacked micro-batches against one micro-batch at a time, bit for bit.
//!
//! A stacked pass runs `k` micro-batches as one pass over their rows and
//! lands each one's weight gradient, a chain of its own, in the accumulator
//! in micro order, the first under the epilogue its caller names. It must
//! equal the one-micro calls with each micro-batch's gradient summed in by
//! `ops::add_ordered`: module by module here, for whole stages on buffers
//! that hold NaN before a `Write` (so an element nothing writes shows), and
//! for whole training iterations of the sequential reference against the
//! per-micro trainer it replaced, which this file keeps as the oracle. All
//! run at every SIMD level the host has.
//!
//! A binary of its own: the level cap is process-global.

use chimera_nn::{
    Attention, Embedding, LayerNorm, Linear, LrSchedule, MicroStash, Micros, ModelConfig,
    Optimizer, OptimizerKind, OutputHead, ReferenceTrainer, Stage, SyntheticData, TransformerBlock,
};
use chimera_tensor::kernels::{self, Epilogue, KC};
use chimera_tensor::{ops, pool, Rng, Tensor};

#[path = "../../tensor/tests/common/mod.rs"]
mod common;
use common::at_every_level;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The sequential reference as it was before it stacked micro-batches: one
/// forward and backward per micro-batch, each gradient in a stage-sized
/// buffer of its own, summed into the accumulator in micro order.
struct PerMicro {
    stages: Vec<Stage>,
    optimizers: Vec<Optimizer>,
    lr_schedule: LrSchedule,
    data: SyntheticData,
    micro_batch: usize,
}

impl PerMicro {
    fn new(
        stages: Vec<Stage>,
        data: SyntheticData,
        micro_batch: usize,
        optimizer: OptimizerKind,
        lr_schedule: LrSchedule,
    ) -> Self {
        let optimizers = stages
            .iter()
            .map(|s| Optimizer::new(optimizer, s.num_params()))
            .collect();
        PerMicro {
            stages,
            optimizers,
            lr_schedule,
            data,
            micro_batch,
        }
    }

    fn train_iteration(&mut self, first_micro: u64, n: u32) -> f32 {
        let scale = 1.0 / n as f32;
        let mut grads: Vec<Vec<f32>> = self
            .stages
            .iter()
            .map(|s| pool::take_zeroed(s.num_params()))
            .collect();
        let mut loss_sum = 0.0f64;
        for m in 0..u64::from(n) {
            let (tokens, targets) = self.data.batch(first_micro + m, self.micro_batch);
            let mut stashes = Vec::with_capacity(self.stages.len());
            let mut act = None;
            for (i, stage) in self.stages.iter().enumerate() {
                let last = i == self.stages.len() - 1;
                let (out, stash) = stage.forward(
                    act.take(),
                    (i == 0).then_some(tokens.as_slice()),
                    last.then_some(targets.as_slice()),
                );
                if let Some(l) = out.loss {
                    loss_sum += l as f64;
                }
                act = out.activation;
                stashes.push(stash);
            }
            let mut dy = None;
            for (i, stage) in self.stages.iter().enumerate().rev() {
                let (dx, g) = stage.backward(&stashes[i], dy.take(), scale);
                ops::add_ordered(&mut grads[i], &[&g]);
                pool::put(g);
                dy = dx;
            }
        }
        for ((stage, opt), g) in self.stages.iter_mut().zip(&mut self.optimizers).zip(grads) {
            let lr = self.lr_schedule.at(opt.steps());
            stage.step(opt, &g, lr);
            pool::put(g);
        }
        (loss_sum / n as f64) as f32
    }

    fn flat_params(&self) -> Vec<f32> {
        self.stages.iter().flat_map(Stage::params).collect()
    }
}

/// Micro-batch `m` of the `k` stacked in `t`'s rows.
fn micro(t: &Tensor, k: usize, m: usize) -> Tensor {
    let rows = t.rows() / k;
    t.rows_slice(m * rows, rows)
}

/// What an accumulator holds before a pass whose first micro-batch lands
/// under `first`, and what its sum starts from: `Continue` runs on zeros,
/// `Write` on NaN it must overwrite, `Add` on a sum already there.
fn start_for(first: Epilogue, held: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let zeros = vec![0.0; held.len()];
    match first {
        Epilogue::Continue => (zeros.clone(), zeros),
        Epilogue::Write => (vec![f32::NAN; held.len()], zeros),
        Epilogue::Add => (held.to_vec(), held.to_vec()),
    }
}

const EPILOGUES: [Epilogue; 3] = [Epilogue::Continue, Epilogue::Write, Epilogue::Add];

/// `stacked(micros, grad)` against `one(m, grad)` for each of `k`
/// micro-batches in turn: outputs part by part (the one-micro parts
/// concatenated in micro order), and the gradient — under every first
/// epilogue, see [`start_for`] — against each one-micro gradient, taken
/// from `+0.0`, summed in by `add_ordered`.
fn assert_stacked_is_one_micro_at_a_time(
    what: &str,
    params: usize,
    k: usize,
    stacked: impl Fn(Micros, &mut [f32]) -> Vec<Vec<f32>>,
    one: impl Fn(usize, &mut [f32]) -> Vec<Vec<f32>>,
) {
    let mut want: Vec<Vec<f32>> = Vec::new();
    let mut grads = Vec::new();
    for m in 0..k {
        let mut g = vec![0.0; params];
        let parts = one(m, &mut g);
        grads.push(g);
        want.resize(parts.len(), Vec::new());
        for (w, p) in want.iter_mut().zip(parts) {
            w.extend(p);
        }
    }
    let mut rng = Rng::new(params as u64);
    let held: Vec<f32> = (0..params).map(|_| rng.normal()).collect();
    for first in EPILOGUES {
        let (mut grad, mut want_grad) = start_for(first, &held);
        for g in &grads {
            ops::add_ordered(&mut want_grad, &[g]);
        }
        let micros = Micros { count: k, first };
        let got = stacked(micros, &mut grad);
        let what = format!("{what} k={k} first={first:?}");
        assert_eq!(got.len(), want.len(), "{what}");
        for (part, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(bits(g), bits(w), "{what}: output {part}");
        }
        assert_eq!(bits(&grad), bits(&want_grad), "{what}: gradient");
    }
}

/// Every module's stacked forward and backward on the shapes of
/// `simd_levels.rs`'s attention grid, two and three micro-batches of one
/// and two sequences each, masked and not, at every level. (The
/// long-sequence layer takes most of the time; a debug build runs it on the
/// first combination only.)
#[test]
fn every_module_stacked_is_one_micro_at_a_time() {
    let shapes = [
        (1, 3, 2),
        (4, 5, 2),
        (8, 19, 2),
        (16, 16, 2),
        (64, 8, 2),
        (8, 128, 8),
    ];
    let combinations = [(1, true, 2), (1, false, 3), (2, false, 3), (2, true, 2)];
    let vocab = 11;
    at_every_level(|level| {
        for (d, s, heads) in shapes {
            let trim = s >= 128 && cfg!(debug_assertions);
            let run = if trim {
                &combinations[..1]
            } else {
                &combinations
            };
            for &(b, causal, k) in run {
                let what = format!("{} d={d} s={s} b={b} causal={causal}", level.name());
                let mut rng = Rng::new(7);
                let h = heads * d;
                let rows = k * b * s;
                let x = Tensor::normal(rows, h, 0.5, &mut rng);
                let dy = Tensor::normal(rows, h, 1.0, &mut rng);
                let dy3 = Tensor::normal(rows, 3 * h, 1.0, &mut rng);
                let tokens: Vec<u32> = (0..rows).map(|_| rng.below(vocab)).collect();
                let micro_tokens = |m: usize| &tokens[m * b * s..(m + 1) * b * s];
                let flat = |t: &Tensor| t.data().to_vec();

                let lin = Linear::new(h, 3 * h, &mut rng);
                assert_stacked_is_one_micro_at_a_time(
                    &format!("linear {what}"),
                    lin.num_params(),
                    k,
                    |micros, g| {
                        let y = lin.forward(&x);
                        vec![flat(&y), flat(&lin.backward_stacked(&x, &dy3, g, micros))]
                    },
                    |m, g| {
                        let (x, dy3) = (micro(&x, k, m), micro(&dy3, k, m));
                        vec![flat(&lin.forward(&x)), flat(&lin.backward(&x, &dy3, g))]
                    },
                );

                let mut ln = LayerNorm::new(h);
                ln.gamma.iter_mut().for_each(|v| *v = rng.normal());
                ln.beta.iter_mut().for_each(|v| *v = rng.normal());
                assert_stacked_is_one_micro_at_a_time(
                    &format!("layernorm {what}"),
                    ln.num_params(),
                    k,
                    |micros, g| {
                        let (y, st) = ln.forward(&x);
                        vec![flat(&y), flat(&ln.backward_stacked(&st, &dy, g, micros))]
                    },
                    |m, g| {
                        let (y, st) = ln.forward(&micro(&x, k, m));
                        vec![flat(&y), flat(&ln.backward(&st, &micro(&dy, k, m), g))]
                    },
                );

                let attn = Attention::new(h, heads, s, causal, &mut rng);
                assert_stacked_is_one_micro_at_a_time(
                    &format!("attention {what}"),
                    attn.num_params(),
                    k,
                    |micros, g| {
                        let (y, st) = attn.forward(&x);
                        vec![flat(&y), flat(&attn.backward_stacked(&st, &dy, g, micros))]
                    },
                    |m, g| {
                        let (y, st) = attn.forward(&micro(&x, k, m));
                        vec![flat(&y), flat(&attn.backward(&st, &micro(&dy, k, m), g))]
                    },
                );

                let block = TransformerBlock::new(h, heads, s, causal, &mut rng);
                assert_stacked_is_one_micro_at_a_time(
                    &format!("block {what}"),
                    block.num_params(),
                    k,
                    |micros, g| {
                        let (y, st) = block.forward(&x);
                        vec![flat(&y), flat(&block.backward_stacked(&st, &dy, g, micros))]
                    },
                    |m, g| {
                        let (y, st) = block.forward(&micro(&x, k, m));
                        vec![flat(&y), flat(&block.backward(&st, &micro(&dy, k, m), g))]
                    },
                );

                let head = OutputHead::new(h, vocab as usize, &mut rng);
                assert_stacked_is_one_micro_at_a_time(
                    &format!("head {what}"),
                    head.num_params(),
                    k,
                    |micros, g| {
                        let (losses, st) = head.forward_losses(&x, &tokens, k);
                        vec![losses, flat(&head.backward_stacked(&st, 0.3, g, micros))]
                    },
                    |m, g| {
                        let (loss, st) = head.forward_loss(&micro(&x, k, m), micro_tokens(m));
                        vec![vec![loss], flat(&head.backward(&st, 0.3, g))]
                    },
                );

                let emb = Embedding::new(vocab as usize, s, h, &mut rng);
                assert_stacked_is_one_micro_at_a_time(
                    &format!("embedding {what}"),
                    emb.num_params(),
                    k,
                    |micros, g| {
                        emb.backward_stacked(&tokens, s, &dy, g, micros);
                        vec![flat(&emb.forward(&tokens, s))]
                    },
                    |m, g| {
                        emb.backward(micro_tokens(m), s, &micro(&dy, k, m), g);
                        vec![flat(&emb.forward(micro_tokens(m), s))]
                    },
                );
            }
        }
    });
}

/// One stage's backward over `k` stacked micro-batches of `micro_batch`
/// sequences each, from random inputs: the stacked pass against each
/// micro-batch's one-micro pass under `Continue` on a zeroed buffer — the
/// zeroed-buffer path the one-micro module calls keep — summed in by
/// `add_ordered`.
struct StageCase {
    stage: Stage,
    k: usize,
    x: Option<Tensor>,
    tokens: Vec<u32>,
    dy: Option<Tensor>,
}

impl StageCase {
    fn new(cfg: ModelConfig, index: u32, depth: u32, micro_batch: usize, k: usize) -> Self {
        let stage = Stage::build(cfg, index, depth);
        let rows = k * micro_batch * cfg.seq;
        let mut rng = Rng::new(u64::from(index) * 31 + k as u64);
        let tokens = (0..rows).map(|_| rng.below(cfg.vocab as u32)).collect();
        let x = (index > 0).then(|| Tensor::normal(rows, cfg.hidden, 0.5, &mut rng));
        let dy = (index + 1 < depth).then(|| Tensor::normal(rows, cfg.hidden, 1.0, &mut rng));
        StageCase {
            stage,
            k,
            x,
            tokens,
            dy,
        }
    }

    /// Micro-batch `m`'s rows of a stacked tensor, or all of them.
    fn part(&self, t: &Option<Tensor>, m: Option<usize>) -> Option<Tensor> {
        let t = t.as_ref()?;
        Some(m.map_or_else(|| t.clone(), |m| micro(t, self.k, m)))
    }

    /// `(dx, grad)` of one pass over micro-batch `m` (or all of them), its
    /// gradient landed by `land` on a stash of the pass.
    fn run(
        &self,
        m: Option<usize>,
        land: impl FnOnce(&Stage, &MicroStash, Option<Tensor>) -> (Option<Tensor>, Vec<f32>),
    ) -> (Option<Tensor>, Vec<f32>) {
        let span = m.map_or(0..self.tokens.len(), |m| {
            let each = self.tokens.len() / self.k;
            m * each..(m + 1) * each
        });
        let tokens = &self.tokens[span];
        let s = &self.stage;
        let first = self.x.is_none().then_some(tokens);
        let last = self.dy.is_none().then_some(tokens);
        let count = if m.is_some() { 1 } else { self.k };
        let (_, _, stash) = s.forward_stacked(self.part(&self.x, m), first, last, count);
        land(s, &stash, self.part(&self.dy, m))
    }

    /// The stacked pass's `dx` and gradient want, for an accumulator whose
    /// sum starts from `base`.
    fn oracle(&self, base: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let (mut dx, mut grad) = (Vec::new(), base.to_vec());
        for m in 0..self.k {
            let (d, g) = self.run(Some(m), |s, stash, dy| {
                let mut g = vec![0.0; s.num_params()];
                (
                    s.backward_into(stash, dy, 0.25, &mut g, Epilogue::Continue),
                    g,
                )
            });
            dx.extend(d.map(|d| d.data().to_vec()).unwrap_or_default());
            ops::add_ordered(&mut grad, &[&g]);
        }
        (dx, grad)
    }
}

/// Every element of a stage's gradient is written, whatever the buffer
/// held: `Stage::backward_into` under every first epilogue (a `Write` on a
/// buffer of NaN) and `Stage::backward` on a pooled buffer of NaN equal the
/// one-micro passes on zeroed buffers summed in order, bit for bit, for a
/// first, a middle and a last stage of a tiny and an S-shaped model, one to
/// three micro-batches, and once with a micro-batch deeper than the packed
/// GEMM's `KC` slab (so `Add` takes its write-aside path).
#[test]
fn every_gradient_element_is_written() {
    let small = ModelConfig {
        vocab: 64,
        hidden: 64,
        seq: 16,
        layers: 4,
        heads: 4,
        causal: true,
        seed: 9,
    };
    let deep = 17;
    assert!(deep * small.seq > KC, "a micro-batch past one slab");
    let mut cases = Vec::new();
    for (cfg, micro_batch) in [(ModelConfig::tiny(), 2), (small, 1)] {
        for index in [0, 1, 3] {
            for k in 1..=3 {
                cases.push((cfg, index, micro_batch, k));
            }
        }
    }
    for index in [0, 1, 3] {
        cases.push((small, index, deep, 2));
    }
    at_every_level(|level| {
        for &(cfg, index, micro_batch, k) in &cases {
            let what = format!(
                "{} {cfg:?} stage {index} B {micro_batch} k {k}",
                level.name()
            );
            let case = StageCase::new(cfg, index, 4, micro_batch, k);
            let params = case.stage.num_params();
            let mut rng = Rng::new(params as u64);
            let held: Vec<f32> = (0..params).map(|_| rng.normal()).collect();
            for first in EPILOGUES {
                let (start, base) = start_for(first, &held);
                let (want_dx, want) = case.oracle(&base);
                let (dx, got) = case.run(None, |s, stash, dy| {
                    let mut g = start;
                    (s.backward_into(stash, dy, 0.25, &mut g, first), g)
                });
                let dx = dx.map(|d| d.data().to_vec()).unwrap_or_default();
                assert_eq!(bits(&dx), bits(&want_dx), "{what} {first:?}: dx");
                assert_eq!(bits(&got), bits(&want), "{what} {first:?}: gradient");
            }
            // `Stage::backward` takes the buffer last put in its class.
            let (_, want) = case.oracle(&vec![0.0; params]);
            let class = pool::class_of_request(params).expect("a pooled size");
            let (_, got) = case.run(None, |s, stash, dy| {
                let mut poisoned = Vec::with_capacity(1 << class);
                poisoned.resize(params, f32::NAN);
                let at = poisoned.as_ptr();
                pool::put(poisoned);
                let (dx, g) = s.backward(stash, dy, 0.25);
                assert_eq!(g.as_ptr(), at, "{what}: the poisoned buffer");
                (dx, g)
            });
            assert_eq!(bits(&got), bits(&want), "{what}: Stage::backward");
        }
    });
}

/// One generated training configuration.
struct Case {
    cfg: ModelConfig,
    depth: u32,
    micro_batch: usize,
    n: u32,
    optimizer: OptimizerKind,
    data_seed: u64,
}

impl Case {
    fn draw(rng: &mut Rng) -> Case {
        let heads = 1usize << rng.below(3);
        let layers = [1, 2, 4][rng.below(3) as usize];
        let depths: Vec<u32> = [1, 2, 4].into_iter().filter(|d| layers % d == 0).collect();
        let cfg = ModelConfig {
            vocab: 3 + rng.below(30) as usize,
            hidden: heads * (1 + rng.below(6) as usize),
            seq: 1 + rng.below(6) as usize,
            layers: layers as usize,
            heads,
            causal: rng.below(2) == 0,
            seed: rng.next_u64(),
        };
        Case {
            cfg,
            depth: depths[rng.below(depths.len() as u32) as usize],
            micro_batch: 1 + rng.below(3) as usize,
            n: 1 + rng.below(7),
            optimizer: if rng.below(2) == 0 {
                OptimizerKind::Sgd { momentum: 0.9 }
            } else {
                OptimizerKind::adam()
            },
            data_seed: rng.next_u64(),
        }
    }

    /// Micro-batches per stacked pass, as the reference's rule gives it.
    fn stack(&self) -> u32 {
        let stages = Stage::build_all(self.cfg, self.depth);
        let params: usize = stages.iter().map(Stage::num_params).sum();
        let stash: usize = stages
            .iter()
            .map(|s| s.stash_elements(self.micro_batch))
            .sum();
        (1 + params / stash) as u32
    }
}

/// The reference's losses and parameters over three iterations equal the
/// per-micro oracle's, bit for bit, on seeded configurations: one to four
/// layers over one to four stages, one to three sequences per micro-batch,
/// one to seven micro-batches (so the last group is often ragged), SGD and
/// Adam under a warm-up-cosine schedule, at every level.
#[test]
fn reference_is_the_per_micro_oracle_on_generated_configs() {
    const CASES: u64 = 32;
    let schedule = LrSchedule::WarmupCosine {
        base: 0.05,
        warmup: 2,
        total: 6,
        min: 0.005,
    };
    let (mut stacked_cases, mut ragged_cases) = (0, 0);
    at_every_level(|level| {
        let mut rng = Rng::new(0x57AC);
        for case in 0..CASES {
            let c = Case::draw(&mut rng);
            let what = format!("{} case {case}: {c:?}", level.name());
            let stages = || Stage::build_all(c.cfg, c.depth);
            let data = SyntheticData::new(c.cfg, c.data_seed);
            let mut stacked = ReferenceTrainer::with_optimizer(
                stages(),
                data,
                c.micro_batch,
                c.optimizer,
                schedule,
            );
            let mut oracle = PerMicro::new(stages(), data, c.micro_batch, c.optimizer, schedule);
            for it in 0..3u64 {
                let first = it * u64::from(c.n);
                let got = stacked.train_iteration(first, c.n);
                let want = oracle.train_iteration(first, c.n);
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: loss {it}");
            }
            assert_eq!(
                bits(&stacked.flat_params()),
                bits(&oracle.flat_params()),
                "{what}: parameters"
            );
            let k = c.stack();
            stacked_cases += u32::from(k > 1 && c.n > 1);
            ragged_cases += u32::from(k > 1 && c.n > k && !c.n.is_multiple_of(c.n.div_ceil(k)));
        }
    });
    assert!(
        stacked_cases > 0 && ragged_cases > 0,
        "{stacked_cases} {ragged_cases}"
    );
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.cfg;
        write!(
            f,
            "vocab {} hidden {} heads {} seq {} layers {} causal {} depth {} B {} N {} k {} {:?}",
            c.vocab,
            c.hidden,
            c.heads,
            c.seq,
            c.layers,
            c.causal,
            self.depth,
            self.micro_batch,
            self.n,
            self.stack(),
            self.optimizer
        )
    }
}

/// A steady-state reference step takes every buffer from the pool, and of
/// the stage-gradient size class only its accumulator: the class holds one
/// buffer after a step, where the per-micro trainer also needed a second for
/// each micro-batch's gradient. The pool and its counters are this thread's.
/// (Four layers put the model past the packed products' scratch classes, so
/// nothing else draws from its class.)
#[test]
fn a_steady_step_allocates_nothing_and_holds_one_stage_gradient() {
    let cfg = ModelConfig {
        vocab: 64,
        hidden: 64,
        seq: 16,
        layers: 4,
        heads: 4,
        causal: true,
        seed: 3,
    };
    let data = SyntheticData::new(cfg, 4);
    let params = Stage::build(cfg, 0, 1).num_params();
    let class = pool::class_of_request(params).expect("a pooled size");
    let pack = kernels::pack_pool_classes().map(pool::class_of_request);
    assert!(
        !pack.contains(&Some(class)),
        "class {class} is a pack class"
    );
    let sgd = OptimizerKind::Sgd { momentum: 0.9 };
    let constant = LrSchedule::Constant(0.05);

    pool::clear_local();
    let mut per_micro = PerMicro::new(Stage::build_all(cfg, 1), data, 1, sgd, constant);
    per_micro.train_iteration(0, 4);
    assert_eq!(pool::spare_count(class), 2, "the per-micro trainer's two");

    pool::clear_local();
    let mut reference =
        ReferenceTrainer::with_optimizer(Stage::build_all(cfg, 1), data, 1, sgd, constant);
    reference.train_iteration(0, 4);
    assert_eq!(pool::spare_count(class), 1, "the accumulator alone");
    let before = pool::local_stats();
    reference.train_iteration(4, 4);
    let after = pool::local_stats();
    assert_eq!(after.misses, before.misses, "a steady step misses nothing");
    assert!(after.hits > before.hits);
    assert_eq!(pool::spare_count(class), 1);
}
