//! Typed failures of the supervised training runtime.
//!
//! Workers report [`WorkerError`]s through their rank to the in-process
//! supervisor, which either recovers (checkpoint-restart for worker deaths)
//! or surfaces a [`TrainError`] to the caller. Nothing in the runtime hangs or panics on a
//! lost peer: every blocking wait has a deadline, and every error names the
//! worker, iteration, and operation involved.

use std::time::Duration;

use chimera_nn::CheckpointError;

/// Why one worker stopped early: what the in-process supervisor classifies
/// into a death to recover from or a blocked wait to report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerError {
    /// An injected [`crate::KillFault`] fired on this worker.
    Killed {
        /// Data-parallel group.
        group: u32,
        /// Local worker id within the group.
        worker: u32,
        /// Global iteration at whose start the kill fired.
        iteration: u32,
        /// Trace-epoch timestamp of the kill, for detection-latency spans.
        at_ns: u64,
    },
    /// A p2p receive hit its deadline.
    RecvTimeout {
        /// Data-parallel group.
        group: u32,
        /// Local worker id within the group.
        worker: u32,
        /// Global iteration the worker was executing.
        iteration: u32,
        /// The blocked operation, e.g. `recv act m3@s1/r0`.
        op: String,
        /// How long the worker waited before giving up.
        waited: Duration,
    },
    /// An allreduce wait hit its deadline (a member of the group stopped
    /// contributing).
    AllReduceTimeout {
        /// Data-parallel group.
        group: u32,
        /// Local worker id within the group.
        worker: u32,
        /// Global iteration the worker was executing.
        iteration: u32,
        /// Stage whose gradient reduction never completed.
        stage: u32,
        /// How long the worker waited before giving up.
        waited: Duration,
    },
    /// A p2p send failed because the receiving worker is gone.
    PeerGone {
        /// Data-parallel group.
        group: u32,
        /// Local worker id within the group.
        worker: u32,
        /// Global iteration the worker was executing.
        iteration: u32,
        /// Local id of the dead receiver.
        to: u32,
    },
}

impl WorkerError {
    /// `(group, worker, iteration)` of the reporting worker.
    pub fn location(&self) -> (u32, u32, u32) {
        match *self {
            WorkerError::Killed {
                group,
                worker,
                iteration,
                ..
            }
            | WorkerError::RecvTimeout {
                group,
                worker,
                iteration,
                ..
            }
            | WorkerError::AllReduceTimeout {
                group,
                worker,
                iteration,
                ..
            }
            | WorkerError::PeerGone {
                group,
                worker,
                iteration,
                ..
            } => (group, worker, iteration),
        }
    }
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (group, worker, iteration) = self.location();
        write!(f, "worker g{group}-w{worker} ")?;
        match self {
            WorkerError::Killed { .. } => {
                write!(f, "killed by injected fault at iteration {iteration}")
            }
            WorkerError::RecvTimeout { op, waited, .. } => write!(
                f,
                "timed out after {waited:?} at iteration {iteration} waiting on {op}"
            ),
            WorkerError::AllReduceTimeout { stage, waited, .. } => write!(
                f,
                "timed out after {waited:?} at iteration {iteration} waiting on allreduce \
                 for stage {stage}"
            ),
            WorkerError::PeerGone { to, .. } => {
                write!(
                    f,
                    "failed to send to dead peer w{to} at iteration {iteration}"
                )
            }
        }
    }
}

impl std::error::Error for WorkerError {}

/// A training run failed in a way the supervisor could not (or was not
/// allowed to) recover from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// A worker died and the recovery budget
    /// ([`crate::TrainOptions::max_recoveries`]) was exhausted.
    WorkerLost {
        /// Data-parallel group of the last death.
        group: u32,
        /// Local worker id of the last death.
        worker: u32,
        /// Iteration the death was detected at.
        iteration: u32,
        /// Recoveries attempted before giving up.
        recoveries: u32,
    },
    /// An injected [`crate::KillFault`] fired on this rank of a per-process
    /// run. That entry point recovers nothing itself: its supervisor
    /// (`chimera-cli launch`) gang-restarts every rank from the committed
    /// checkpoint, so no recovery budget is involved.
    Killed {
        /// Data-parallel group of the killed worker.
        group: u32,
        /// Local worker id of the killed worker.
        worker: u32,
        /// Iteration at whose start the kill fired.
        iteration: u32,
    },
    /// A worker blocked past its deadline with no detected death to blame —
    /// a lost message or a genuine deadlock. Names the blocked op.
    Timeout {
        /// Data-parallel group of the blocked worker.
        group: u32,
        /// Local worker id of the blocked worker.
        worker: u32,
        /// Iteration the worker was executing.
        iteration: u32,
        /// The blocked operation, e.g. `recv act m3@s1/r0`.
        op: String,
        /// How long the worker waited before giving up.
        waited: Duration,
    },
    /// Two replica copies of a stage ended an iteration with different
    /// parameters — a schedule or synchronization bug.
    ReplicaDivergence {
        /// The diverged stage.
        stage: u32,
    },
    /// A stage came back from no worker — a placement bug.
    MissingStage {
        /// The missing stage.
        stage: u32,
    },
    /// Saving or restoring a recovery checkpoint failed.
    Checkpoint(CheckpointError),
    /// A run was asked for `W = 0` data-parallel groups, or handed a fabric
    /// whose size is not `W · D` ranks.
    FabricSize {
        /// Ranks in the fabric.
        world: u32,
        /// `W · D`, the ranks the run needs.
        expected: u32,
    },
    /// The schedule cannot be executed as written: lowering
    /// (`chimera_core::program::lower`) found a defect — an op on a worker
    /// that does not hold its `(replica, stage)`, a backward without its
    /// forward, unbalanced or premature gradient synchronization, a boundary
    /// message without a counterpart — or a row is chunked (§3.5's
    /// forward-doubling pairs and backward-halving halves lower, but the
    /// worker does not execute them yet). Found before any worker is spawned.
    UnsupportedSchedule {
        /// Worker whose program holds the op.
        worker: u32,
        /// The first such op, e.g. `F m0+1@s0/r0`.
        op: String,
        /// What about it cannot be executed.
        reason: &'static str,
    },
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::WorkerLost {
                group,
                worker,
                iteration,
                recoveries,
            } => write!(
                f,
                "worker g{group}-w{worker} lost at iteration {iteration} after \
                 {recoveries} recovery attempt(s); recovery budget exhausted"
            ),
            TrainError::Killed {
                group,
                worker,
                iteration,
            } => write!(
                f,
                "worker g{group}-w{worker} killed by injected fault at iteration {iteration}"
            ),
            TrainError::Timeout {
                group,
                worker,
                iteration,
                op,
                waited,
            } => write!(
                f,
                "worker g{group}-w{worker} blocked for {waited:?} at iteration \
                 {iteration} waiting on {op}; no worker death detected (lost message \
                 or deadlock)"
            ),
            TrainError::ReplicaDivergence { stage } => {
                write!(f, "replica copies of stage {stage} diverged")
            }
            TrainError::MissingStage { stage } => {
                write!(f, "no worker returned stage {stage}")
            }
            TrainError::Checkpoint(e) => write!(f, "recovery checkpoint failed: {e}"),
            TrainError::FabricSize { world, expected: 0 } => write!(
                f,
                "W = 0 data-parallel groups (the fabric has {world} ranks): a run needs at \
                 least one"
            ),
            TrainError::FabricSize { world, expected } => write!(
                f,
                "the fabric has {world} ranks, but W·D = {expected} workers need one each"
            ),
            TrainError::UnsupportedSchedule { worker, op, reason } => write!(
                f,
                "the runtime cannot execute schedule op {op} on worker w{worker}: {reason}"
            ),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

/// How a worker's failure reads to the caller of a worker process: a kill is
/// reported as a kill (`train_hybrid` absorbs its workers' kills and reports
/// only an exhausted budget, as [`TrainError::WorkerLost`]); any other stop
/// is a blocked wait, named by its op.
impl From<WorkerError> for TrainError {
    fn from(e: WorkerError) -> Self {
        let (group, worker, iteration) = e.location();
        let (op, waited) = match e {
            WorkerError::Killed { .. } => {
                return TrainError::Killed {
                    group,
                    worker,
                    iteration,
                }
            }
            WorkerError::RecvTimeout { op, waited, .. } => (op, waited),
            WorkerError::AllReduceTimeout { stage, waited, .. } => {
                (format!("allreduce wait for stage {stage}"), waited)
            }
            WorkerError::PeerGone { to, .. } => {
                (format!("send to dead peer w{to}"), Duration::ZERO)
            }
        };
        TrainError::Timeout {
            group,
            worker,
            iteration,
            op,
            waited,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_worker_iteration_and_op() {
        let e = TrainError::Timeout {
            group: 1,
            worker: 2,
            iteration: 7,
            op: "recv act m3@s1/r0".into(),
            waited: Duration::from_millis(250),
        };
        let s = e.to_string();
        assert!(s.contains("g1-w2"), "{s}");
        assert!(s.contains("iteration 7"), "{s}");
        assert!(s.contains("recv act m3@s1/r0"), "{s}");

        let w = WorkerError::AllReduceTimeout {
            group: 0,
            worker: 3,
            iteration: 2,
            stage: 1,
            waited: Duration::from_secs(1),
        };
        assert!(w.to_string().contains("allreduce for stage 1"));
        assert_eq!(w.location(), (0, 3, 2));
    }

    #[test]
    fn checkpoint_errors_convert() {
        let e: TrainError = CheckpointError::BadMagic.into();
        assert!(matches!(
            e,
            TrainError::Checkpoint(CheckpointError::BadMagic)
        ));
        assert!(std::error::Error::source(&e).is_some());
    }
}
