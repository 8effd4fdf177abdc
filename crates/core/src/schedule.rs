//! The pipeline schedule IR.

use crate::ids::{MicroId, ReplicaId, StageId, WorkerId};
use crate::op::{Op, OpKind};
use crate::placement::Placement;

/// Which pipelining scheme produced a schedule. Carried for reporting and for
/// scheme-specific semantics (weight versioning of the async schemes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// This paper: bidirectional pipelines (§3).
    Chimera,
    /// GPipe \[26\]: inject all N micro-batches, then all backwards, flush.
    GPipe,
    /// DAPPLE \[16\]: 1F1B with periodic flushes.
    Dapple,
    /// GEMS \[28\]: two reversed replicas, at most two active micro-batches.
    Gems,
    /// PipeDream \[38\]: asynchronous 1F1B, weight stashing, update per micro.
    PipeDream,
    /// PipeDream-2BW \[39\]: asynchronous 1F1B, double-buffered weights,
    /// gradient accumulation over N micros.
    PipeDream2Bw,
}

impl Scheme {
    /// Human-readable name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Chimera => "Chimera",
            Scheme::GPipe => "GPipe",
            Scheme::Dapple => "DAPPLE",
            Scheme::Gems => "GEMS",
            Scheme::PipeDream => "PipeDream",
            Scheme::PipeDream2Bw => "PipeDream-2BW",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Gradient-synchronization placement strategy (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncStrategy {
    /// No allreduce ops in the schedule (pure pipeline study, W=1 and f such
    /// that no stage is replicated — or sync handled outside the schedule).
    None,
    /// Synchronize every stage after all local compute (Fig. 4(a)).
    PostHoc,
    /// Launch every stage's allreduce eagerly as soon as its last local
    /// backward finished ("eager-sync" in Fig. 12).
    Eager,
    /// Launch eagerly only for stage replicas whose completion is followed by
    /// a bubble that can hide the collective; middle stages synchronize
    /// post-hoc ("eager-sync-opt", Fig. 4(b) / Fig. 12).
    #[default]
    EagerOpt,
}

/// A complete per-iteration pipeline schedule for one pipeline-parallel group
/// of `D` workers.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Scheme that generated this schedule.
    pub scheme: Scheme,
    /// Number of pipeline stages `D` (== workers in the group).
    pub d: u32,
    /// Number of micro-batches per worker per iteration `N`.
    pub n: u32,
    /// Stage→worker map for every replica.
    pub placement: Placement,
    /// Ordered op sequence per worker; index = worker id.
    pub workers: Vec<Vec<Op>>,
    /// Whether the schedule ends with a pipeline flush (synchronous) or is
    /// meant to be run back-to-back across iterations (asynchronous).
    pub flushes: bool,
    /// Sync strategy the allreduce ops were placed with.
    pub sync: SyncStrategy,
}

impl Schedule {
    /// Number of workers in the pipeline group.
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Ops of one worker.
    #[inline]
    pub fn ops(&self, w: WorkerId) -> &[Op] {
        &self.workers[w.idx()]
    }

    /// Iterate over `(worker, op_index, op)` for all ops.
    pub fn iter_ops(&self) -> impl Iterator<Item = (WorkerId, usize, &Op)> {
        self.workers.iter().enumerate().flat_map(|(w, ops)| {
            ops.iter()
                .enumerate()
                .map(move |(i, op)| (WorkerId(w as u32), i, op))
        })
    }

    /// Total number of compute ops across all workers.
    pub fn num_compute_ops(&self) -> usize {
        self.iter_ops().filter(|(_, _, op)| op.is_compute()).count()
    }

    /// The worker that produces the input activation for `op` (the previous
    /// stage's holder), if the op consumes a cross-worker activation.
    /// Forward ops at stage 0 and allreduce ops return `None`; backward ops
    /// return the *next* stage's holder (they consume the gradient w.r.t.
    /// this stage's output).
    pub fn upstream_worker(&self, op: &Op) -> Option<WorkerId> {
        match op.kind {
            OpKind::Forward => {
                if op.stage.0 == 0 {
                    None
                } else {
                    Some(self.placement.worker(op.replica, StageId(op.stage.0 - 1)))
                }
            }
            OpKind::Backward { .. } => {
                if op.stage.0 + 1 == self.d {
                    None
                } else {
                    Some(self.placement.worker(op.replica, StageId(op.stage.0 + 1)))
                }
            }
            _ => None,
        }
    }

    /// Remove all allreduce ops (e.g. to re-place them with a different
    /// [`SyncStrategy`]).
    pub fn strip_sync(&mut self) {
        for ops in &mut self.workers {
            ops.retain(super::op::Op::is_compute);
        }
        self.sync = SyncStrategy::None;
    }

    /// All distinct `(replica, stage)` pairs that appear in compute ops of
    /// worker `w`, in order of their *last backward* op index. Used by sync
    /// placement.
    pub fn stage_replicas_by_last_backward(&self, w: WorkerId) -> Vec<(ReplicaId, StageId, usize)> {
        let mut last: Vec<(ReplicaId, StageId, usize)> = Vec::new();
        for (i, op) in self.workers[w.idx()].iter().enumerate() {
            if op.is_backward() {
                match last
                    .iter_mut()
                    .find(|(r, s, _)| *r == op.replica && *s == op.stage)
                {
                    Some(entry) => entry.2 = i,
                    None => last.push((op.replica, op.stage, i)),
                }
            }
        }
        last.sort_by_key(|&(_, _, i)| i);
        last
    }

    /// Sanity-check basic structural invariants; panics with a description on
    /// violation — a generator's self-check. [`crate::program::lower`] reports
    /// the same violations, and the semantic ones, as typed defects.
    pub fn assert_well_formed(&self) {
        assert_eq!(
            self.workers.len(),
            self.d as usize,
            "one op list per worker"
        );
        assert_eq!(self.placement.d(), self.d);
        for (w, ops) in self.workers.iter().enumerate() {
            for op in ops {
                assert!(op.stage.0 < self.d, "stage out of range in {op}");
                assert!(
                    op.replica.0 < self.placement.replicas(),
                    "replica out of range in {op}"
                );
                if op.is_compute() {
                    assert_eq!(
                        self.placement.worker(op.replica, op.stage),
                        WorkerId(w as u32),
                        "op {op} scheduled on worker {w} but placed elsewhere"
                    );
                    for m in op.covered_micros() {
                        assert!(m.0 < self.n, "micro out of range in {op}");
                    }
                }
            }
        }
    }

    /// Turn every backward into a recomputing backward (activation
    /// recomputation \[11\]: forwards stash only the stage-boundary input and
    /// the backward re-runs the forward, costing roughly one extra forward).
    pub fn with_recompute(mut self) -> Self {
        for ops in &mut self.workers {
            for op in ops.iter_mut() {
                if op.is_backward() {
                    op.kind = OpKind::Backward { recompute: true };
                }
            }
        }
        self
    }

    /// Count forward/backward ops per worker — useful in tests.
    pub fn compute_op_counts(&self, w: WorkerId) -> (usize, usize) {
        let fwd = self.workers[w.idx()]
            .iter()
            .filter(|o| o.is_forward())
            .count();
        let bwd = self.workers[w.idx()]
            .iter()
            .filter(|o| o.is_backward())
            .count();
        (fwd, bwd)
    }

    /// Every micro-batch id that appears in the schedule.
    pub fn micros(&self) -> Vec<MicroId> {
        let mut ms: Vec<MicroId> = self
            .iter_ops()
            .filter(|(_, _, op)| op.is_compute())
            .flat_map(|(_, _, op)| op.covered_micros().collect::<Vec<_>>())
            .collect();
        ms.sort_unstable();
        ms.dedup();
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    fn tiny() -> Schedule {
        // D=2, N=2, linear placement, trivial GPipe-like schedule.
        let placement = Placement::linear(2);
        let w0 = vec![
            Op::forward(MicroId(0), StageId(0), ReplicaId(0)),
            Op::forward(MicroId(1), StageId(0), ReplicaId(0)),
            Op::backward(MicroId(0), StageId(0), ReplicaId(0)),
            Op::backward(MicroId(1), StageId(0), ReplicaId(0)),
        ];
        let w1 = vec![
            Op::forward(MicroId(0), StageId(1), ReplicaId(0)),
            Op::forward(MicroId(1), StageId(1), ReplicaId(0)),
            Op::backward(MicroId(0), StageId(1), ReplicaId(0)),
            Op::backward(MicroId(1), StageId(1), ReplicaId(0)),
        ];
        Schedule {
            scheme: Scheme::GPipe,
            d: 2,
            n: 2,
            placement,
            workers: vec![w0, w1],
            flushes: true,
            sync: SyncStrategy::None,
        }
    }

    #[test]
    fn well_formedness_passes() {
        tiny().assert_well_formed();
    }

    #[test]
    fn upstream_workers() {
        let s = tiny();
        let f1 = Op::forward(MicroId(0), StageId(1), ReplicaId(0));
        assert_eq!(s.upstream_worker(&f1), Some(WorkerId(0)));
        let f0 = Op::forward(MicroId(0), StageId(0), ReplicaId(0));
        assert_eq!(s.upstream_worker(&f0), None);
        let b0 = Op::backward(MicroId(0), StageId(0), ReplicaId(0));
        assert_eq!(s.upstream_worker(&b0), Some(WorkerId(1)));
        let b1 = Op::backward(MicroId(0), StageId(1), ReplicaId(0));
        assert_eq!(s.upstream_worker(&b1), None);
    }

    #[test]
    fn counts_and_micros() {
        let s = tiny();
        assert_eq!(s.compute_op_counts(WorkerId(0)), (2, 2));
        assert_eq!(s.num_compute_ops(), 8);
        assert_eq!(s.micros(), vec![MicroId(0), MicroId(1)]);
    }

    #[test]
    fn strip_sync_removes_collectives() {
        let mut s = tiny();
        s.workers[0].push(Op::allreduce_launch(StageId(0), ReplicaId(0)));
        s.workers[0].push(Op::allreduce_wait(StageId(0), ReplicaId(0)));
        s.strip_sync();
        assert_eq!(s.workers[0].len(), 4);
        assert_eq!(s.sync, SyncStrategy::None);
    }

    #[test]
    fn scheme_properties() {
        assert_eq!(Scheme::PipeDream2Bw.name(), "PipeDream-2BW");
    }

    #[test]
    fn last_backward_ordering() {
        let s = tiny();
        let order = s.stage_replicas_by_last_backward(WorkerId(0));
        assert_eq!(order, vec![(ReplicaId(0), StageId(0), 3)]);
    }
}
