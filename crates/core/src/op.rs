//! Schedule operations.
//!
//! A schedule is, per worker, an ordered sequence of [`Op`]s. Timing is *not*
//! part of the IR: a real runtime (and our simulator) executes each worker's
//! ops in order, each op waiting for its data dependencies, so bubbles and
//! overlap emerge from the dependency structure — exactly as in the paper's
//! PyTorch implementation.

use crate::ids::{MicroId, ReplicaId, StageId};

/// How much of a micro-batch a compute op covers.
///
/// §3.5 introduces *forward doubling* (a forward pass covers two consecutive
/// micro-batches) and *backward halving* (a backward pass is split into two
/// chunks of half the micro-batch size each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Chunk {
    /// One full micro-batch.
    Full,
    /// Two consecutive micro-batches fused into one pass (forward doubling).
    /// `Op::micro` names the first; the op also covers `micro + 1`.
    Pair,
    /// Half of one micro-batch: chunk 0 or chunk 1 (backward halving).
    Half(u8),
}

impl Chunk {
    /// Number of whole micro-batches started/finished by this op, as a
    /// fraction numerator over 2 (Full = 2/2, Pair = 4/2, Half = 1/2).
    #[inline]
    pub fn half_micros(self) -> u32 {
        match self {
            Chunk::Full => 2,
            Chunk::Pair => 4,
            Chunk::Half(_) => 1,
        }
    }

    /// Micro ids covered by an op with this chunk starting at `first`.
    pub fn covered(self, first: MicroId) -> impl Iterator<Item = MicroId> {
        let n = match self {
            Chunk::Pair => 2,
            _ => 1,
        };
        (first.0..first.0 + n).map(MicroId)
    }
}

/// The kind of work an op performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Forward pass of `micro` (and possibly `micro+1`, see [`Chunk::Pair`])
    /// through the stage. Produces the output activation consumed by the next
    /// stage, and stashes the input/intermediate activations needed by the
    /// backward pass (unless the schedule recomputes them).
    Forward,
    /// Backward pass. If `recompute` is set the stage re-runs its forward
    /// from the stashed stage-input before back-propagating (activation
    /// recomputation, \[11\]; costs roughly one extra forward).
    Backward {
        /// Run the forward again before the backward (activation
        /// recomputation).
        recompute: bool,
    },
    /// Start a non-blocking allreduce of this stage's weight gradients across
    /// all replicas of the stage (within the pipeline group and across the
    /// `W` data-parallel groups). §3.2's "eager" synchronization.
    AllReduceLaunch,
    /// Block until the allreduce for this stage completes. Always the final
    /// ops of an iteration for synchronous schedules.
    AllReduceWait,
}

/// One operation in a worker's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Op {
    /// What to do.
    pub kind: OpKind,
    /// First micro-batch covered. Meaningless for allreduce ops (set to the
    /// first micro of the owning replica for determinism).
    pub micro: MicroId,
    /// Which pipeline stage's layers this op runs / synchronizes.
    pub stage: StageId,
    /// Which model replica (directional pipeline) owns the op.
    pub replica: ReplicaId,
    /// Micro-batch coverage of a compute op.
    pub chunk: Chunk,
}

impl Op {
    /// A full-micro forward.
    pub fn forward(micro: MicroId, stage: StageId, replica: ReplicaId) -> Self {
        Op {
            kind: OpKind::Forward,
            micro,
            stage,
            replica,
            chunk: Chunk::Full,
        }
    }

    /// A full-micro backward.
    pub fn backward(micro: MicroId, stage: StageId, replica: ReplicaId) -> Self {
        Op {
            kind: OpKind::Backward { recompute: false },
            micro,
            stage,
            replica,
            chunk: Chunk::Full,
        }
    }

    /// A full-micro backward with activation recomputation.
    pub fn backward_recompute(micro: MicroId, stage: StageId, replica: ReplicaId) -> Self {
        Op {
            kind: OpKind::Backward { recompute: true },
            micro,
            stage,
            replica,
            chunk: Chunk::Full,
        }
    }

    /// An allreduce launch for `stage` of `replica`.
    pub fn allreduce_launch(stage: StageId, replica: ReplicaId) -> Self {
        Op {
            kind: OpKind::AllReduceLaunch,
            micro: MicroId(0),
            stage,
            replica,
            chunk: Chunk::Full,
        }
    }

    /// An allreduce wait for `stage` of `replica`.
    pub fn allreduce_wait(stage: StageId, replica: ReplicaId) -> Self {
        Op {
            kind: OpKind::AllReduceWait,
            micro: MicroId(0),
            stage,
            replica,
            chunk: Chunk::Full,
        }
    }

    /// Whether this is a compute op (forward/backward) rather than a
    /// communication marker.
    #[inline]
    pub fn is_compute(&self) -> bool {
        matches!(self.kind, OpKind::Forward | OpKind::Backward { .. })
    }

    /// Whether this is a forward op.
    #[inline]
    pub fn is_forward(&self) -> bool {
        matches!(self.kind, OpKind::Forward)
    }

    /// Whether this is a backward op.
    #[inline]
    pub fn is_backward(&self) -> bool {
        matches!(self.kind, OpKind::Backward { .. })
    }

    /// Whether the backward op recomputes activations; `false` for non-backward ops.
    #[inline]
    pub fn recomputes(&self) -> bool {
        matches!(self.kind, OpKind::Backward { recompute: true })
    }

    /// Micro ids covered by this op.
    pub fn covered_micros(&self) -> impl Iterator<Item = MicroId> {
        self.chunk.covered(self.micro)
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = match self.kind {
            OpKind::Forward => "F",
            OpKind::Backward { recompute: false } => "B",
            OpKind::Backward { recompute: true } => "B~",
            OpKind::AllReduceLaunch => "AR+",
            OpKind::AllReduceWait => "AR?",
        };
        match self.kind {
            OpKind::AllReduceLaunch | OpKind::AllReduceWait => {
                write!(f, "{}({},{})", tag, self.stage, self.replica)
            }
            _ => {
                let c = match self.chunk {
                    Chunk::Full => String::new(),
                    Chunk::Pair => "+".to_string(),
                    Chunk::Half(h) => format!(".{h}"),
                };
                write!(
                    f,
                    "{}{}{}@{}/{}",
                    tag, self.micro, c, self.stage, self.replica
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_coverage() {
        let covered: Vec<_> = Chunk::Pair.covered(MicroId(4)).collect();
        assert_eq!(covered, vec![MicroId(4), MicroId(5)]);
        let covered: Vec<_> = Chunk::Full.covered(MicroId(4)).collect();
        assert_eq!(covered, vec![MicroId(4)]);
        let covered: Vec<_> = Chunk::Half(1).covered(MicroId(4)).collect();
        assert_eq!(covered, vec![MicroId(4)]);
    }

    #[test]
    fn op_predicates() {
        let f = Op::forward(MicroId(0), StageId(1), ReplicaId(0));
        assert!(f.is_compute() && f.is_forward() && !f.is_backward());
        let b = Op::backward_recompute(MicroId(0), StageId(1), ReplicaId(0));
        assert!(b.is_backward() && b.recomputes());
        let ar = Op::allreduce_launch(StageId(2), ReplicaId(1));
        assert!(!ar.is_compute());
    }

    #[test]
    fn display_round() {
        let f = Op::forward(MicroId(3), StageId(2), ReplicaId(1));
        assert_eq!(f.to_string(), "Fm3@s2/r1");
        let b = Op {
            kind: OpKind::Backward { recompute: true },
            micro: MicroId(0),
            stage: StageId(0),
            replica: ReplicaId(0),
            chunk: Chunk::Half(1),
        };
        assert_eq!(b.to_string(), "B~m0.1@s0/r0");
    }

    #[test]
    fn half_micro_accounting() {
        assert_eq!(Chunk::Full.half_micros(), 2);
        assert_eq!(Chunk::Pair.half_micros(), 4);
        assert_eq!(Chunk::Half(0).half_micros(), 1);
    }
}
