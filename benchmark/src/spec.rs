//! The workloads: which model, batch and schedule each one runs, and why it
//! exists. Sizes were chosen on a 2-vCPU machine so that every workload
//! takes enough samples inside one `--seconds` window.

use chimera::core::baselines::dapple;
use chimera::core::chimera::{chimera, ChimeraConfig};
use chimera::core::schedule::Schedule;
use chimera::nn::ModelConfig;

/// Learning rate and momentum of every training workload.
pub const LR: f32 = 0.05;
/// See [`LR`].
pub const MOMENTUM: f32 = 0.9;

/// Which public entry point drives the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ReferenceTrainer::train_iteration`: one worker, no runtime.
    Sequential,
    /// `runtime::train` over in-process channels.
    Pipeline,
    /// `train_worker_process` on one thread per rank over loopback TCP.
    Tcp,
    /// `PlanEngine::submit_blocking` from one closed-loop client.
    Plan,
}

/// Which schedule a pipelined workload executes (always `D = 2`: the
/// machine has two cores, and a deeper pipeline would time its scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's bidirectional schedule.
    Chimera,
    /// 1F1B with flush, the paper's headline baseline.
    Dapple,
}

/// A model shape (`seed` is filled in from `--seed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Model {
    /// Vocabulary size.
    pub vocab: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Sequence length.
    pub seq: usize,
    /// Transformer layers.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
}

impl Model {
    /// GEMM-heavy: wide layers, short sequences, so the packed kernels
    /// carry the step.
    pub const G: Model = Model {
        vocab: 512,
        hidden: 256,
        seq: 64,
        layers: 2,
        heads: 4,
    };
    /// Attention-heavy: narrow layers, long sequences, many heads, so
    /// per-head small products, softmax and copies carry the step.
    pub const A: Model = Model {
        vocab: 128,
        hidden: 64,
        seq: 128,
        layers: 4,
        heads: 8,
    };
    /// Small: each pipeline op is well under a millisecond of compute, so
    /// what the runtime and the transport add per op is what is timed.
    pub const S: Model = Model {
        vocab: 64,
        hidden: 64,
        seq: 16,
        layers: 4,
        heads: 4,
    };

    /// The program's model description for this shape.
    pub fn config(self, seed: u64) -> ModelConfig {
        ModelConfig {
            vocab: self.vocab,
            hidden: self.hidden,
            seq: self.seq,
            layers: self.layers,
            heads: self.heads,
            causal: true,
            seed,
        }
    }
}

/// Shape of a training workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Training {
    /// Model shape.
    pub model: Model,
    /// Sequences per micro-batch (`B`).
    pub micro_batch: usize,
    /// Micro-batches per step (`N`).
    pub micros: u32,
    /// Schedule of the pipelined workloads.
    pub scheme: Scheme,
}

impl Training {
    /// Tokens one step consumes.
    pub fn tokens_per_step(&self) -> f64 {
        (self.micros as usize * self.micro_batch * self.model.seq) as f64
    }

    /// This workload's scheme at depth `d` (even) with `n` micro-batches.
    pub fn schedule_at(&self, d: u32, n: u32) -> Schedule {
        match self.scheme {
            Scheme::Chimera => chimera(&ChimeraConfig::new(d, n)).expect("an even depth"),
            Scheme::Dapple => dapple(d, n),
        }
    }

    /// The `D = 2` schedule this workload executes.
    pub fn schedule(&self) -> Schedule {
        self.schedule_at(2, self.micros)
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Why it exists, in one line (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Entry point driven.
    pub kind: Kind,
    /// Shape; `None` for the planning workload.
    pub training: Option<Training>,
    /// Whether `BENCHMARK.json` lists it, so that the driver runs it and
    /// gates on it. The others run by name and in the all-workload mode.
    pub gated: bool,
}

const fn training(
    model: Model,
    micro_batch: usize,
    micros: u32,
    scheme: Scheme,
) -> Option<Training> {
    Some(Training {
        model,
        micro_batch,
        micros,
        scheme,
    })
}

/// Every workload, in the order they are run and reported. Five are gated.
/// `pipe_dapple` and `tcp_small` are not: the driver's time limit buys five
/// workloads 22 s runs or seven 15 s runs, and 15 s runs were too noisy;
/// `pipe_dapple` repeats `pipe_chimera`'s exposure to the host with another
/// schedule, and `tcp_small` keeps four helper threads beside its two
/// busy ones on a machine that runs two.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "seq_gemm",
        why: "single-worker baseline on a wide model: packed GEMM and nn compute do all the work, runtime and comm none",
        kind: Kind::Sequential,
        training: training(Model::G, 1, 4, Scheme::Chimera),
        gated: true,
    },
    Workload {
        name: "seq_attn",
        why: "single worker on a long-sequence many-head model: small per-head products, softmax and copies, so a packed-GEMM gain shows nothing here",
        kind: Kind::Sequential,
        training: training(Model::A, 1, 4, Scheme::Chimera),
        gated: true,
    },
    Workload {
        name: "pipe_chimera",
        why: "the paper's scheme at D=2 with compute-bound ops: runtime, local transport and a real allreduce between stage replicas",
        kind: Kind::Pipeline,
        training: training(Model::G, 1, 4, Scheme::Chimera),
        gated: true,
    },
    Workload {
        name: "pipe_dapple",
        why: "the headline baseline on the same runtime: one stage per worker, no replica partner, so an allreduce change must not move it",
        kind: Kind::Pipeline,
        training: training(Model::G, 1, 4, Scheme::Dapple),
        gated: false,
    },
    Workload {
        name: "pipe_small",
        why: "many sub-millisecond ops per step: op dispatch, stash, pool and blocked receives dominate, so a runtime change shows here",
        kind: Kind::Pipeline,
        training: training(Model::S, 2, 16, Scheme::Chimera),
        gated: true,
    },
    Workload {
        name: "tcp_small",
        why: "pipe_small over loopback TCP with one thread per rank: framing, checksums, acks and the dist allreduce are the difference",
        kind: Kind::Tcp,
        training: training(Model::S, 2, 16, Scheme::Chimera),
        gated: false,
    },
    Workload {
        name: "plan_cold",
        why: "distinct plan queries against a cold cache: sim, perf, verify, core and serve do everything, tensor/nn/runtime nothing",
        kind: Kind::Plan,
        training: None,
        gated: true,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
