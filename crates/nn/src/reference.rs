//! Sequential reference trainer: standard mini-batch SGD with gradient
//! accumulation over micro-batches, executed on one thread in micro-batch
//! order. Synchronous pipeline schedules must reproduce its updates
//! *bit-for-bit* — this is the executable form of the paper's
//! "convergence friendly / no accuracy loss" claim (Table 2, §2).

use chimera_tensor::{ops, pool};

use crate::data::SyntheticData;
use crate::optim::{LrSchedule, Optimizer, OptimizerKind};
use crate::stage::Stage;

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
    /// the head's `1/n` loss scale, exactly like the pipelined runtime.
    pub fn train_iteration(&mut self, first_micro: u64, n: u32) -> f32 {
        let scale = 1.0 / n as f32;
        let mut grads: Vec<Vec<f32>> = self
            .stages
            .iter()
            .map(|s| pool::take_zeroed(s.num_params()))
            .collect();
        let mut loss_sum = 0.0f64;
        for m in 0..n as u64 {
            let (tokens, targets) = self.data.batch(first_micro + m, self.micro_batch);
            // Forward through the chain.
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
            // Backward in reverse.
            let mut dy = None;
            for (i, stage) in self.stages.iter().enumerate().rev() {
                let (dx, g) = stage.backward(&stashes[i], dy.take(), scale);
                ops::add_ordered(&mut grads[i], &[&g]);
                pool::put(g);
                dy = dx;
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
        self.stages
            .iter()
            .flat_map(super::stage::Stage::params)
            .collect()
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
}
