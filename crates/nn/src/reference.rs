//! Sequential reference trainer: standard mini-batch SGD with gradient
//! accumulation over micro-batches, executed on one thread in micro-batch
//! order. Synchronous pipeline schedules must reproduce its updates
//! *bit-for-bit* — this is the executable form of the paper's
//! "convergence friendly / no accuracy loss" claim (Table 2, §2).

use chimera_tensor::{kernels::Epilogue, pool};

use crate::data::SyntheticData;
use crate::optim::{LrSchedule, Optimizer, OptimizerKind};
use crate::stage::Stage;

/// The sizes of the stacked passes an iteration of `n` micro-batches runs,
/// in order: `⌈n / k⌉` groups differing by at most one (the larger first),
/// each of at most `k = 1 + ⌊params / stash⌋` micro-batches, where `params`
/// is the model's parameter count and `stash` one micro-batch's stash
/// elements ([`Stage::stash_elements`]).
///
/// A one-micro step holds the accumulator, one micro-batch's stash and a
/// per-micro gradient of the model's size; a stacked step holds the
/// accumulator, `k` stashes and at most a layer-sized scratch (a bias or the
/// embedding tables summed aside, or a weight's chains when a micro-batch
/// is deeper than one packed slab). `(k − 1) · stash ≤
/// params` makes the second never the larger: the group size is the memory
/// the per-micro gradient buffer freed, spent on stashes.
fn groups(n: u32, params: usize, stash: usize) -> impl Iterator<Item = u32> {
    let k = u32::try_from(1 + params / stash.max(1)).unwrap_or(u32::MAX);
    let count = n.div_ceil(k);
    let (each, larger) = (n / count.max(1), n % count.max(1));
    (0..count).map(move |i| each + u32::from(i < larger))
}

/// A sequential trainer over a stage-partitioned model.
pub struct ReferenceTrainer {
    /// The model as a chain of stages (any partitioning; parameters are
    /// partition-independent).
    pub stages: Vec<Stage>,
    optimizers: Vec<Optimizer>,
    lr_schedule: LrSchedule,
    data: SyntheticData,
    micro_batch: usize,
}

impl ReferenceTrainer {
    /// New trainer with momentum SGD at a constant learning rate.
    pub fn new(
        stages: Vec<Stage>,
        data: SyntheticData,
        micro_batch: usize,
        lr: f32,
        momentum: f32,
    ) -> Self {
        Self::with_optimizer(
            stages,
            data,
            micro_batch,
            OptimizerKind::Sgd { momentum },
            LrSchedule::Constant(lr),
        )
    }

    /// New trainer with an explicit optimizer and learning-rate schedule.
    pub fn with_optimizer(
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
        ReferenceTrainer {
            stages,
            optimizers,
            lr_schedule,
            data,
            micro_batch,
        }
    }

    /// One training iteration over micro-batches
    /// `[first_micro, first_micro + n)`. Returns the mean loss.
    ///
    /// Per-micro gradients are accumulated in micro order and averaged via
    /// the head's `1/n` loss scale, exactly like the pipelined runtime. The
    /// micro-batches run in groups, each one stacked pass
    /// ([`Stage::forward_stacked`], [`Stage::backward_into`]) that lands its
    /// micro-batches' chains straight in the one accumulator per stage — the
    /// first group writes it, so it is never cleared, and later groups add —
    /// bit for bit the one-micro gradients summed in order. The group size
    /// follows from the model's sizes alone, so that the grouped step never
    /// holds more memory than the one-micro step it replaced.
    pub fn train_iteration(&mut self, first_micro: u64, n: u32) -> f32 {
        assert!(n > 0, "train_iteration: n must be at least one micro-batch");
        let scale = 1.0 / n as f32;
        let mut grads: Vec<Vec<f32>> = self
            .stages
            .iter()
            .map(|s| pool::take_stale(s.num_params()))
            .collect();
        let params = self.stages.iter().map(Stage::num_params).sum();
        let stash = self
            .stages
            .iter()
            .map(|s| s.stash_elements(self.micro_batch))
            .sum();
        let mut loss_sum = 0.0f64;
        let mut next = first_micro;
        for (g, k) in groups(n, params, stash).enumerate() {
            let (mut tokens, mut targets) = (Vec::new(), Vec::new());
            for m in next..next + u64::from(k) {
                let (to, ta) = self.data.batch(m, self.micro_batch);
                tokens.extend(to);
                targets.extend(ta);
            }
            next += u64::from(k);
            // Forward through the chain.
            let mut stashes = Vec::with_capacity(self.stages.len());
            let mut act = None;
            for (i, stage) in self.stages.iter().enumerate() {
                let last = i == self.stages.len() - 1;
                let (y, losses, stash) = stage.forward_stacked(
                    act.take(),
                    (i == 0).then_some(tokens.as_slice()),
                    last.then_some(targets.as_slice()),
                    k as usize,
                );
                for l in losses {
                    loss_sum += l as f64;
                }
                act = y;
                stashes.push(stash);
            }
            // Backward in reverse.
            let mut dy = None;
            for ((stage, stash), grad) in self.stages.iter().zip(stashes).zip(&mut grads).rev() {
                let first = if g == 0 {
                    Epilogue::Write
                } else {
                    Epilogue::Add
                };
                dy = stage.backward_into(&stash, dy.take(), scale, grad, first);
            }
        }
        // Update: the learning rate follows the schedule by update step.
        for ((stage, opt), g) in self.stages.iter_mut().zip(&mut self.optimizers).zip(grads) {
            let lr = self.lr_schedule.at(opt.steps());
            stage.step(opt, &g, lr);
            pool::put(g);
        }
        (loss_sum / n as f64) as f32
    }

    /// Concatenated flat parameters of the whole model.
    pub fn flat_params(&self) -> Vec<f32> {
        Stage::flat_params(&self.stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::ModelConfig;

    fn trainer(depth: u32, lr: f32) -> ReferenceTrainer {
        let cfg = ModelConfig::tiny();
        ReferenceTrainer::new(
            Stage::build_all(cfg, depth),
            SyntheticData::new(cfg, 5),
            2,
            lr,
            0.9,
        )
    }

    #[test]
    fn loss_decreases_over_iterations() {
        let mut t = trainer(2, 0.05);
        let first = t.train_iteration(0, 4);
        let mut last = first;
        for it in 1..12 {
            last = t.train_iteration(it * 4, 4);
        }
        assert!(
            last < first,
            "training diverged: first {first}, last {last}"
        );
    }

    /// The reference is partition-invariant: training with the model split
    /// into 1, 2 or 4 stages produces bit-identical parameters.
    #[test]
    fn partition_invariance_bitexact() {
        let mut t1 = trainer(1, 0.05);
        let mut t2 = trainer(2, 0.05);
        let mut t4 = trainer(4, 0.05);
        for it in 0..3 {
            let l1 = t1.train_iteration(it * 4, 4);
            let l2 = t2.train_iteration(it * 4, 4);
            let l4 = t4.train_iteration(it * 4, 4);
            assert_eq!(l1, l2);
            assert_eq!(l1, l4);
        }
        assert_eq!(t1.flat_params(), t2.flat_params());
        assert_eq!(t1.flat_params(), t4.flat_params());
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = trainer(2, 0.05);
        let mut b = trainer(2, 0.05);
        a.train_iteration(0, 4);
        b.train_iteration(0, 4);
        assert_eq!(a.flat_params(), b.flat_params());
    }

    /// Zero micro-batches used to divide by zero into a NaN loss and still
    /// step the optimizer (and its schedule) on a zero gradient.
    #[test]
    #[should_panic(expected = "n must be at least one micro-batch")]
    fn zero_micro_batches_refused() {
        trainer(1, 0.05).train_iteration(0, 0);
    }

    /// Every group fits the memory the per-micro gradient freed, `(k − 1) ·
    /// stash ≤ params`, groups differ by at most one, the larger lead, and
    /// they cover `n` in as few groups as that allows.
    #[test]
    fn groups_spend_at_most_the_freed_gradient_on_stashes() {
        let sizes = [
            (1, 1),
            (100, 1),
            (1, 100),
            (1_859_072, 622_912),
            (224_768, 1_082_496),
        ];
        for (params, stash) in sizes {
            let k = 1 + params / stash;
            for n in 0..=40u32 {
                let got: Vec<u32> = groups(n, params, stash).collect();
                assert_eq!(got.iter().sum::<u32>(), n, "{params}/{stash} n={n}");
                assert_eq!(got.len(), n.div_ceil(k as u32) as usize);
                for &g in &got {
                    assert!(g >= 1 && (g as usize - 1) * stash <= params);
                }
                assert!(got.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
            }
        }
        // The benchmark's two sequential models: G stacks pairs, A runs
        // one micro-batch at a time.
        assert_eq!(groups(4, 1_859_072, 622_912).collect::<Vec<_>>(), [2, 2]);
        assert_eq!(groups(4, 224_768, 1_082_496).collect::<Vec<_>>(), [1; 4]);
    }
}
