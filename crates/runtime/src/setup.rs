//! What a run is configured with, decided once: both drivers — the
//! in-process supervisor ([`crate::train_hybrid`]) and the per-process entry
//! point ([`crate::train_worker_process`]) — lower the schedule, set the
//! kernel and pool switches, price the pool pre-size plan, order reducer
//! members and assemble results through the functions here, so the same
//! `(schedule, TrainOptions)` is the same program under either. Where state
//! lives between segments (one canonical copy in the supervisor, a slice per
//! rank on disk) is theirs; nothing else is.

use std::borrow::Cow;
use std::sync::Arc;

use chimera_core::op::Chunk;
use chimera_core::program::{lower, Program};
use chimera_core::schedule::Schedule;
use chimera_core::StageId;
use chimera_nn::{ModelConfig, Stage};
use chimera_tensor::{kernels, pool};

use crate::error::TrainError;
use crate::mem::{plan_lowered, ModelFootprint};
use crate::worker::TrainOptions;

/// The runtime's front door: lower `sched` once for the whole run, or name
/// the first op that cannot be executed — any defect
/// [`chimera_core::program::lower`] finds, or a chunked row (§3.5's
/// forward-doubling pairs and backward-halving halves lower, but the worker
/// does not execute them yet). Returned before any thread exists that could
/// panic on the op or leave its peers to time out.
fn lower_for_run(sched: &Schedule) -> Result<Vec<Program>, TrainError> {
    let lowered = lower(sched, 1);
    let chunked = lowered.programs.iter().enumerate().find_map(|(w, p)| {
        let row = p.rows.iter().find(|row| row.op.chunk != Chunk::Full)?;
        let reason = "only full-micro chunks are executed, not forward-doubling pairs or \
                      backward-halving halves";
        Some((w, row.op_ix, reason))
    });
    let defect = lowered.defects.first();
    let defect = defect.map(|d| (d.worker as usize, d.op_ix, d.kind.reason()));
    match defect.or(chunked) {
        None => Ok(lowered.programs),
        Some((w, op_ix, reason)) => Err(TrainError::UnsupportedSchedule {
            worker: w as u32,
            op: (sched.workers.get(w).and_then(|ops| ops.get(op_ix)))
                .map_or("(none)".to_string(), ToString::to_string),
            reason,
        }),
    }
}

/// Kernel wall-clock timing, on for as long as a traced run holds this.
struct KernelTiming;

impl Drop for KernelTiming {
    fn drop(&mut self) {
        kernels::set_timing(false);
    }
}

/// One run's configuration, indexed by local worker id / stage id.
pub(crate) struct Run {
    /// The lowered program of every worker of one pipeline group.
    pub programs: Vec<Arc<Program>>,
    /// Per worker, its [`crate::mem::WorkerMemPlan::classes`] (empty when
    /// prewarming is off — the workers would ignore the plan anyway).
    pub pool_plans: Vec<Vec<(usize, usize)>>,
    /// The `D` stages at their partition-independent initialization.
    pub stages: Vec<Stage>,
    _timing: Option<KernelTiming>,
}

/// Configure a run of `sched` on `cfg`: refuse what cannot be executed, set
/// the process-wide kernel switches from `opts` (thread count only affects
/// wall clock — kernels are bit-identical at any setting — the pool only
/// allocation traffic, and tracing pays for kernel timing so untraced runs
/// skip the two clock reads per matmul), build the initial stages, and price
/// the programs just lowered into pool pre-sizing plans: one measured
/// footprint probe and one liveness pricing per run, shared by every segment
/// and replica group (all are schedule-identical, and sizes depend on shapes
/// only).
pub(crate) fn configure(
    sched: &Schedule,
    cfg: ModelConfig,
    opts: &TrainOptions,
) -> Result<Run, TrainError> {
    let programs = lower_for_run(sched)?;
    if let Some(t) = opts.threads {
        kernels::set_threads(t);
    }
    pool::set_enabled(opts.pool);
    let timing = opts.trace.is_some().then(|| {
        kernels::set_timing(true);
        KernelTiming
    });
    let stages = Stage::build_all(cfg, sched.d);
    let pool_plans = if opts.pool && opts.prewarm {
        let fp = ModelFootprint::probe(&stages, opts.micro_batch);
        let plans = plan_lowered(&programs, &fp);
        plans.into_iter().map(|plan| plan.classes).collect()
    } else {
        vec![Vec::new(); programs.len()]
    };
    Ok(Run {
        programs: programs.into_iter().map(Arc::new).collect(),
        pool_plans,
        stages,
        _timing: timing,
    })
}

/// The members of `stage`'s allreduce group as global ranks
/// (`group · D + holder`), in member order: every data-parallel group's
/// holders, ranked (group, holder). The keyed reduction sums in key order,
/// not member order, but member 0 is who reduces over a transport — so both
/// drivers must agree on it.
pub(crate) fn reducer_members(sched: &Schedule, stage: u32, w: u32) -> Vec<u32> {
    let per_group = sched.num_workers() as u32;
    let holders = sched.placement.stage_holders(StageId(stage));
    (0..w)
        .flat_map(|g| holders.iter().map(move |h| g * per_group + h.0))
        .collect()
}

/// Assemble what workers hand back: the per-iteration mean loss over
/// `per_iteration` (`N·W`) micro-batches, and one canonical copy per stage
/// `0..d` after verifying that all `2f·W` replica `copies` of it —
/// `(stage, copy)`, flattened by `flat` — agree bit for bit.
pub(crate) fn assemble<T>(
    d: u32,
    per_iteration: usize,
    mut losses: Vec<(u64, f32)>,
    copies: impl IntoIterator<Item = (u32, T)>,
    flat: impl for<'a> Fn(&'a T) -> Cow<'a, [f32]>,
) -> Result<(Vec<f32>, Vec<T>), TrainError> {
    losses.sort_unstable_by_key(|&(micro, _)| micro);
    let iteration_losses = losses
        .chunks_exact(per_iteration)
        .map(|it| (it.iter().map(|&(_, l)| l as f64).sum::<f64>() / per_iteration as f64) as f32)
        .collect();
    let mut by_stage: Vec<Vec<T>> = (0..d).map(|_| Vec::new()).collect();
    for (stage, copy) in copies {
        by_stage[stage as usize].push(copy);
    }
    let mut canonical = Vec::with_capacity(d as usize);
    for (stage, mut replicas) in (0..d).zip(by_stage) {
        let kept = replicas.pop().ok_or(TrainError::MissingStage { stage })?;
        let reference = flat(&kept);
        if replicas.iter().any(|copy| flat(copy) != reference) {
            return Err(TrainError::ReplicaDivergence { stage });
        }
        drop(reference);
        canonical.push(kept);
    }
    Ok((iteration_losses, canonical))
}
