//! One-Forward-One-Backward (1F1B [38, 39]) op ordering for a single
//! directional pipeline.
//!
//! Chimera builds its bidirectional schedule by merging 2f of these (§3.1);
//! DAPPLE is exactly one of them with a flush.

use crate::chimera::ScaleMethod;
use crate::ids::{MicroId, ReplicaId, StageId};
use crate::op::{Chunk, Op, OpKind};

/// One directional pipeline: a contiguous block of micro-batches flowing
/// through `d` stages mapped to workers by the owning replica's placement.
#[derive(Debug, Clone, Copy)]
pub struct DirectionalPipeline {
    /// Pipeline depth `D`.
    pub d: u32,
    /// Replica (direction) these ops belong to.
    pub replica: ReplicaId,
    /// First micro-batch id assigned to this pipeline.
    pub first_micro: u32,
    /// Number of micro-batches assigned (must be even for
    /// [`ScaleMethod::ForwardDoubling`]).
    pub num_micros: u32,
    /// How micro-batches are chunked through the pipeline.
    pub mode: ScaleMethod,
}

impl DirectionalPipeline {
    /// Number of 1F1B *flow units*: pairs under doubling, micros otherwise.
    pub fn units(&self) -> u32 {
        match self.mode {
            ScaleMethod::ForwardDoubling => {
                assert!(
                    self.num_micros.is_multiple_of(2),
                    "forward doubling needs an even micro count per pipeline"
                );
                self.num_micros / 2
            }
            _ => self.num_micros,
        }
    }

    /// The forward op of flow unit `u` at `stage`.
    pub fn forward_op(&self, u: u32, stage: StageId) -> Op {
        match self.mode {
            ScaleMethod::ForwardDoubling => Op {
                kind: OpKind::Forward,
                micro: MicroId(self.first_micro + 2 * u),
                stage,
                replica: self.replica,
                chunk: Chunk::Pair,
            },
            _ => Op::forward(MicroId(self.first_micro + u), stage, self.replica),
        }
    }

    /// The backward ops of flow unit `u` at `stage`, in execution order.
    pub fn backward_ops(&self, u: u32, stage: StageId) -> Vec<Op> {
        match self.mode {
            ScaleMethod::Direct => vec![Op::backward(
                MicroId(self.first_micro + u),
                stage,
                self.replica,
            )],
            ScaleMethod::ForwardDoubling => {
                let mk = |m: u32| Op::backward_recompute(MicroId(m), stage, self.replica);
                vec![
                    mk(self.first_micro + 2 * u),
                    mk(self.first_micro + 2 * u + 1),
                ]
            }
            ScaleMethod::BackwardHalving => {
                let mk = |h: u8| Op {
                    kind: OpKind::Backward { recompute: false },
                    micro: MicroId(self.first_micro + u),
                    stage,
                    replica: self.replica,
                    chunk: Chunk::Half(h),
                };
                vec![mk(0), mk(1)]
            }
        }
    }

    /// 1F1B op order for `stage`: `min(D - s, units)` warmup forwards, then
    /// strict backward/forward alternation, then the backward drain.
    pub fn stage_ops(&self, stage: StageId) -> Vec<Op> {
        let n = self.units();
        let warmup = (self.d - stage.0).min(n);
        let mut ops = Vec::with_capacity(3 * n as usize);
        for u in 0..warmup {
            ops.push(self.forward_op(u, stage));
        }
        for i in 0..n.saturating_sub(warmup) {
            ops.extend(self.backward_ops(i, stage));
            ops.push(self.forward_op(warmup + i, stage));
        }
        for u in n.saturating_sub(warmup)..n {
            ops.extend(self.backward_ops(u, stage));
        }
        ops
    }

    /// All micro ids carried by this pipeline.
    pub fn micros(&self) -> impl Iterator<Item = MicroId> {
        (self.first_micro..self.first_micro + self.num_micros).map(MicroId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe(d: u32, n: u32, mode: ScaleMethod) -> DirectionalPipeline {
        DirectionalPipeline {
            d,
            replica: ReplicaId(0),
            first_micro: 0,
            num_micros: n,
            mode,
        }
    }

    fn render(ops: &[Op]) -> Vec<String> {
        ops.iter().map(Op::to_string).collect()
    }

    #[test]
    fn last_stage_alternates_strictly() {
        let p = pipe(4, 4, ScaleMethod::Direct);
        assert_eq!(
            render(&p.stage_ops(StageId(3))),
            vec![
                "Fm0@s3/r0",
                "Bm0@s3/r0",
                "Fm1@s3/r0",
                "Bm1@s3/r0",
                "Fm2@s3/r0",
                "Bm2@s3/r0",
                "Fm3@s3/r0",
                "Bm3@s3/r0"
            ]
        );
    }

    #[test]
    fn first_stage_warms_up_d_forwards() {
        let p = pipe(4, 6, ScaleMethod::Direct);
        let ops = p.stage_ops(StageId(0));
        // warmup = min(D, n) = 4 forwards.
        assert!(ops[..4].iter().all(Op::is_forward));
        assert_eq!(ops[4].to_string(), "Bm0@s0/r0");
        assert_eq!(ops[5].to_string(), "Fm4@s0/r0");
        // Total ops: 6 F + 6 B.
        assert_eq!(ops.len(), 12);
    }

    #[test]
    fn fewer_micros_than_depth_runs_all_forwards_first() {
        let p = pipe(4, 2, ScaleMethod::Direct);
        assert_eq!(
            render(&p.stage_ops(StageId(0))),
            vec!["Fm0@s0/r0", "Fm1@s0/r0", "Bm0@s0/r0", "Bm1@s0/r0"]
        );
        // At the last stage warmup = 1 regardless.
        assert_eq!(
            render(&p.stage_ops(StageId(3))),
            vec!["Fm0@s3/r0", "Bm0@s3/r0", "Fm1@s3/r0", "Bm1@s3/r0"]
        );
    }

    #[test]
    fn doubling_pairs_forwards_and_splits_backwards() {
        let p = pipe(4, 4, ScaleMethod::ForwardDoubling);
        assert_eq!(p.units(), 2);
        let ops = p.stage_ops(StageId(3));
        assert_eq!(
            render(&ops),
            vec![
                "Fm0+@s3/r0",
                "B~m0@s3/r0",
                "B~m1@s3/r0",
                "Fm2+@s3/r0",
                "B~m2@s3/r0",
                "B~m3@s3/r0"
            ]
        );
    }

    #[test]
    fn halving_emits_two_half_chunks() {
        let p = pipe(2, 2, ScaleMethod::BackwardHalving);
        let ops = p.stage_ops(StageId(1));
        assert_eq!(
            render(&ops),
            vec![
                "Fm0@s1/r0",
                "Bm0.0@s1/r0",
                "Bm0.1@s1/r0",
                "Fm1@s1/r0",
                "Bm1.0@s1/r0",
                "Bm1.1@s1/r0"
            ]
        );
    }

    #[test]
    fn micro_offsets_respected() {
        let p = DirectionalPipeline {
            d: 2,
            replica: ReplicaId(1),
            first_micro: 6,
            num_micros: 2,
            mode: ScaleMethod::Direct,
        };
        let micros: Vec<u32> = p.micros().map(|m| m.0).collect();
        assert_eq!(micros, vec![6, 7]);
        assert_eq!(p.stage_ops(StageId(0))[0].to_string(), "Fm6@s0/r1");
    }

    #[test]
    #[should_panic(expected = "even micro count")]
    fn doubling_rejects_odd_micro_count() {
        pipe(4, 3, ScaleMethod::ForwardDoubling).units();
    }
}
