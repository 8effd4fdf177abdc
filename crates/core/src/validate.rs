//! Deep semantic validation of schedules and weight-version analysis.
//!
//! Beyond structural well-formedness, a schedule must (a) execute without
//! deadlock, (b) run every micro-batch forward and backward through every
//! stage exactly once, and (c) for synchronous schemes, keep a single weight
//! version per stage. For asynchronous schemes this module quantifies the
//! staleness and weight-stash requirements that Table 2 reports.

use std::collections::HashMap;

use crate::ids::{MicroId, ReplicaId, StageId, WorkerId};
use crate::op::{Chunk, OpKind};
use crate::schedule::Schedule;
use crate::unit_time::{execute_or_stall, BlockedOp, UnitCosts};

/// A semantic violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The schedule deadlocks under dependency-driven execution. Carries the
    /// full blocked `(worker, op index)` set so this dynamic path and the
    /// static `chimera-verify` analysis report comparable diagnostics.
    Deadlock {
        /// Every worker stuck at its next op when progress stopped.
        blocked: Vec<BlockedOp>,
    },
    /// A micro-batch's coverage at some stage is wrong (missing, duplicated,
    /// or inconsistent halves).
    Coverage {
        /// Offending micro.
        micro: MicroId,
        /// Offending stage.
        stage: StageId,
        /// Description of the problem.
        detail: String,
    },
    /// An allreduce launch precedes the last backward of its stage replica.
    PrematureSync {
        /// Worker on which the violation occurs.
        worker: WorkerId,
        /// Stage whose sync is premature.
        stage: StageId,
    },
    /// A launch without a matching wait or vice versa.
    UnbalancedSync {
        /// Worker on which the violation occurs.
        worker: WorkerId,
        /// Stage with unbalanced ops.
        stage: StageId,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::Deadlock { blocked } => {
                write!(f, "deadlock: {} worker(s) blocked (", blocked.len())?;
                for (i, b) in blocked.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{b}")?;
                }
                f.write_str(")")
            }
            ValidationError::Coverage {
                micro,
                stage,
                detail,
            } => {
                write!(f, "coverage error for {micro} at {stage}: {detail}")
            }
            ValidationError::PrematureSync { worker, stage } => {
                write!(
                    f,
                    "allreduce for {stage} launched before its last backward on {worker}"
                )
            }
            ValidationError::UnbalancedSync { worker, stage } => {
                write!(
                    f,
                    "unbalanced allreduce launch/wait for {stage} on {worker}"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validate `sched`; returns the executed timeline makespan (under equal
/// costs) on success.
pub fn validate(sched: &Schedule) -> Result<u64, ValidationError> {
    sched.assert_well_formed();
    coverage(sched)?;
    // Asynchronous schemes legitimately synchronize mid-stream (PipeDream
    // syncs after every micro-batch), so the launch-after-last-backward rule
    // only applies to flushing schedules; balance is checked for all.
    sync_placement(sched, sched.flushes)?;
    let tl = execute_or_stall(sched, &UnitCosts::equal()).map_err(|stall| {
        ValidationError::Deadlock {
            blocked: stall.blocked(sched),
        }
    })?;
    Ok(tl.makespan)
}

/// Every micro must be forwarded exactly once and backwarded exactly once
/// (or as two consistent halves) at every stage, within a single replica.
fn coverage(sched: &Schedule) -> Result<(), ValidationError> {
    // (micro, stage) -> (fwd half-units, bwd half-units, replica)
    let mut cover: HashMap<(MicroId, StageId), (u32, u32, Option<ReplicaId>)> = HashMap::new();
    for (_, _, op) in sched.iter_ops() {
        if !op.is_compute() {
            continue;
        }
        for m in op.covered_micros() {
            let entry = cover.entry((m, op.stage)).or_insert((0, 0, None));
            let units = match op.chunk {
                Chunk::Half(_) => 1,
                _ => 2,
            };
            match op.kind {
                OpKind::Forward => entry.0 += units,
                OpKind::Backward { .. } => entry.1 += units,
                _ => unreachable!(),
            }
            match entry.2 {
                None => entry.2 = Some(op.replica),
                Some(r) if r != op.replica => {
                    return Err(ValidationError::Coverage {
                        micro: m,
                        stage: op.stage,
                        detail: format!("processed by two replicas {r} and {}", op.replica),
                    })
                }
                _ => {}
            }
        }
    }
    let micros = sched.micros();
    for &m in &micros {
        for s in 0..sched.d {
            let stage = StageId(s);
            match cover.get(&(m, stage)) {
                None => {
                    return Err(ValidationError::Coverage {
                        micro: m,
                        stage,
                        detail: "never scheduled".into(),
                    })
                }
                Some(&(f, b, _)) => {
                    if f != 2 {
                        return Err(ValidationError::Coverage {
                            micro: m,
                            stage,
                            detail: format!("forward coverage {f}/2 half-units"),
                        });
                    }
                    if b != 2 {
                        return Err(ValidationError::Coverage {
                            micro: m,
                            stage,
                            detail: format!("backward coverage {b}/2 half-units"),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Launches must follow the last backward of their stage replica, and every
/// launch needs exactly one wait after it.
fn sync_placement(sched: &Schedule, check_premature: bool) -> Result<(), ValidationError> {
    for (w, ops) in sched.workers.iter().enumerate() {
        let worker = WorkerId(w as u32);
        let mut balance: HashMap<(StageId, ReplicaId), i64> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            match op.kind {
                OpKind::AllReduceLaunch => {
                    *balance.entry((op.stage, op.replica)).or_default() += 1;
                    if check_premature
                        && ops[i + 1..].iter().any(|o| {
                            o.is_backward() && o.stage == op.stage && o.replica == op.replica
                        })
                    {
                        return Err(ValidationError::PrematureSync {
                            worker,
                            stage: op.stage,
                        });
                    }
                }
                OpKind::AllReduceWait => {
                    *balance.entry((op.stage, op.replica)).or_default() -= 1;
                    if balance[&(op.stage, op.replica)] < 0 {
                        return Err(ValidationError::UnbalancedSync {
                            worker,
                            stage: op.stage,
                        });
                    }
                }
                _ => {}
            }
        }
        for ((stage, _), v) in balance {
            if v != 0 {
                return Err(ValidationError::UnbalancedSync { worker, stage });
            }
        }
    }
    Ok(())
}

/// When weights advance (the update rule of the scheme under analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateRule {
    /// PipeDream: the stage's weights advance after every micro-batch
    /// backward.
    PerMicro,
    /// Updates at iteration boundaries (every `micros_per_iter` backwards on
    /// a stage replica), becoming visible `delay` iterations later.
    /// Synchronous schemes are `delay = 0`; PipeDream-2BW is `delay = 1`.
    PerIteration {
        /// Micros per iteration per worker.
        micros_per_iter: u32,
        /// Iterations between gradient availability and weight visibility.
        delay: u32,
    },
}

/// Weight-version requirements and staleness of a schedule under an update
/// rule (Table 2's "weights memory" and "convergence friendly" columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightReport {
    /// Maximum weight versions simultaneously alive, per worker (in units of
    /// one stage replica's weights, summed over the replicas it holds).
    pub max_versions: Vec<u32>,
    /// Maximum staleness observed: number of updates that happened between
    /// the version a micro-batch's forward used and the version current when
    /// its gradient was applied. Zero iff the schedule is equivalent to
    /// mini-batch SGD.
    pub max_staleness: u32,
    /// `(worker, op index)` of the first backward (worker order, then
    /// program order) that observes nonzero staleness.
    pub first_stale: Option<(WorkerId, usize)>,
}

/// Analyze weight versions. The schedule is walked per worker in op order;
/// for a stage replica, forward `m` records the current version, backward `m`
/// requires it (stashed until then) and may trigger an update per `rule`.
pub fn weight_analysis(sched: &Schedule, rule: UpdateRule) -> WeightReport {
    let mut max_versions = Vec::with_capacity(sched.num_workers());
    let mut max_staleness = 0u32;
    let mut first_stale = None;
    for (w, ops) in sched.workers.iter().enumerate() {
        // Per (replica, stage): current version, pending-version activation,
        // per-micro used version, backward count.
        #[derive(Default)]
        struct StageState {
            version: u32,
            produced: u32,     // updates produced so far
            pending: Vec<u32>, // versions produced but not yet visible
            used: HashMap<MicroId, u32>,
            backwards: u32,
        }
        let mut states: HashMap<(ReplicaId, StageId), StageState> = HashMap::new();
        let mut worker_peak = 0u32;
        // Track halves so a micro's backward counts once.
        let mut half_seen: HashMap<(ReplicaId, StageId, MicroId), u32> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            if !op.is_compute() {
                continue;
            }
            let st = states.entry((op.replica, op.stage)).or_default();
            let mut observe = |staleness: u32| {
                if staleness > 0 && first_stale.is_none() {
                    first_stale = Some((WorkerId(w as u32), i));
                }
                max_staleness = max_staleness.max(staleness);
            };
            match op.kind {
                OpKind::Forward => {
                    for m in op.covered_micros() {
                        st.used.insert(m, st.version);
                    }
                }
                OpKind::Backward { .. } => {
                    let mut completed: Vec<MicroId> = Vec::new();
                    for m in op.covered_micros() {
                        match op.chunk {
                            Chunk::Half(_) => {
                                let seen = half_seen.entry((op.replica, op.stage, m)).or_insert(0);
                                *seen += 1;
                                if *seen == 2 {
                                    completed.push(m);
                                }
                            }
                            _ => completed.push(m),
                        }
                    }
                    for m in completed {
                        let used = st.used.remove(&m).unwrap_or(st.version);
                        observe(st.version - used);
                        st.backwards += 1;
                        match rule {
                            UpdateRule::PerMicro => {
                                st.version += 1;
                            }
                            UpdateRule::PerIteration {
                                micros_per_iter,
                                delay,
                            } => {
                                if st.backwards.is_multiple_of(micros_per_iter) {
                                    st.produced += 1;
                                    // Update `produced` creates version
                                    // `produced` from gradients computed at
                                    // the current version; SGD equivalence
                                    // requires them computed at `produced-1`.
                                    // The shortfall is the *application*
                                    // staleness (PipeDream-2BW: 1).
                                    observe((st.produced - 1).saturating_sub(st.version));
                                    st.pending.push(st.produced);
                                    if st.pending.len() > delay as usize {
                                        st.version = st.pending.remove(0).max(st.version);
                                    }
                                }
                            }
                        }
                    }
                }
                _ => unreachable!(),
            }
            // Versions alive on this worker right now: for each stage
            // replica, the current version plus each older version still
            // needed by an in-flight micro.
            let alive: u32 = states
                .values()
                .map(|s| {
                    let mut versions: Vec<u32> = s.used.values().copied().collect();
                    versions.push(s.version);
                    versions.sort_unstable();
                    versions.dedup();
                    versions.len() as u32
                })
                .sum();
            worker_peak = worker_peak.max(alive);
        }
        max_versions.push(worker_peak);
    }
    WeightReport {
        max_versions,
        max_staleness,
        first_stale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{dapple, gems, gpipe, pipedream, pipedream_2bw};
    use crate::chimera::{chimera, ChimeraConfig, ScaleMethod};
    use crate::repeat::concat_iterations;

    #[test]
    fn all_generators_validate() {
        validate(&gpipe(4, 8)).unwrap();
        validate(&dapple(4, 8)).unwrap();
        validate(&gems(4, 8)).unwrap();
        validate(&pipedream(4, 4)).unwrap();
        validate(&pipedream_2bw(4, 8)).unwrap();
        validate(&chimera(&ChimeraConfig::new(4, 4)).unwrap()).unwrap();
        validate(&chimera(&ChimeraConfig::new(8, 32)).unwrap()).unwrap();
        validate(
            &chimera(&ChimeraConfig {
                d: 8,
                n: 32,
                f: 2,
                scale: ScaleMethod::ForwardDoubling { recompute: true },
            })
            .unwrap(),
        )
        .unwrap();
        validate(
            &chimera(&ChimeraConfig {
                d: 8,
                n: 32,
                f: 1,
                scale: ScaleMethod::BackwardHalving,
            })
            .unwrap(),
        )
        .unwrap();
    }

    #[test]
    fn missing_backward_detected() {
        let mut s = gpipe(2, 2);
        // Drop the last backward on worker 1.
        let idx = s.workers[1]
            .iter()
            .rposition(super::super::op::Op::is_backward)
            .unwrap();
        s.workers[1].remove(idx);
        match validate(&s) {
            Err(ValidationError::Coverage { detail, .. }) => {
                assert!(detail.contains("backward coverage"));
            }
            other => panic!("expected coverage error, got {other:?}"),
        }
    }

    #[test]
    fn premature_sync_detected() {
        let mut s = dapple(2, 2);
        // Insert a launch before the backwards on worker 0.
        s.workers[0].insert(0, crate::op::Op::allreduce_launch(StageId(0), ReplicaId(0)));
        s.workers[0].push(crate::op::Op::allreduce_wait(StageId(0), ReplicaId(0)));
        assert!(matches!(
            validate(&s),
            Err(ValidationError::PrematureSync { .. })
        ));
    }

    #[test]
    fn synchronous_schemes_have_zero_staleness() {
        for sched in [
            gpipe(4, 8),
            dapple(4, 8),
            gems(4, 8),
            chimera(&ChimeraConfig::new(4, 8)).unwrap(),
        ] {
            let rep = weight_analysis(
                &sched,
                UpdateRule::PerIteration {
                    micros_per_iter: 8,
                    delay: 0,
                },
            );
            assert_eq!(rep.max_staleness, 0, "{:?}", sched.scheme);
        }
    }

    /// PipeDream stashes up to D weight versions at the first stage and 1 at
    /// the last (Table 2: [Mθ, D·Mθ]) and is stale.
    #[test]
    fn pipedream_weight_stash_matches_table2() {
        let d = 4;
        let s = concat_iterations(&pipedream(d, 8), 3, false);
        let rep = weight_analysis(&s, UpdateRule::PerMicro);
        assert_eq!(rep.max_versions[0], d, "first stage stashes D versions");
        assert_eq!(
            rep.max_versions[(d - 1) as usize],
            1,
            "last stage stashes 1"
        );
        assert!(rep.max_staleness > 0, "PipeDream is asynchronous");
        // Monotone decrease along the pipeline.
        for w in 1..d as usize {
            assert!(rep.max_versions[w] <= rep.max_versions[w - 1]);
        }
    }

    /// PipeDream-2BW's gradient accumulation + 1-delay double buffering needs
    /// exactly 2 versions everywhere (Table 2: 2Mθ) but stays stale.
    #[test]
    fn pipedream_2bw_double_buffering() {
        let d = 4;
        let n = 8;
        let s = concat_iterations(&pipedream_2bw(d, n), 4, true);
        let rep = weight_analysis(
            &s,
            UpdateRule::PerIteration {
                micros_per_iter: n,
                delay: 1,
            },
        );
        for (w, &v) in rep.max_versions.iter().enumerate() {
            assert!(v <= 2, "worker {w} needs {v} versions");
        }
        assert!(rep.max_staleness > 0, "2BW uses 1-stale weights");
    }

    /// Chimera over several iterations remains staleness-free.
    #[test]
    fn chimera_multi_iteration_synchronous() {
        let s = chimera(&ChimeraConfig::new(4, 8)).unwrap();
        let many = concat_iterations(&s, 3, false);
        let rep = weight_analysis(
            &many,
            UpdateRule::PerIteration {
                micros_per_iter: 8,
                delay: 0,
            },
        );
        assert_eq!(rep.max_staleness, 0);
        // One version per stage replica; each worker holds two replicas.
        for &v in &rep.max_versions {
            assert_eq!(v, 2);
        }
    }
}
