//! What a run is configured with, decided once, for every rank of it: lower
//! the schedule, set the kernel and pool switches, build the state at
//! iteration 0 ([`initial_state`] — the one place it is made, so no driver
//! commits it), price the pool pre-size plan, refuse a fabric that is not
//! `W·D` ranks, order reducer members, hand the model to its holders
//! through [`hand_out`] — moved, not copied, so each stage exists once per
//! holder — and average the gathered losses.
//! The in-process supervisor ([`crate::train_hybrid`]) and a worker process
//! ([`crate::train_worker_process`]) both go through here and then run the
//! same per-rank loop ([`crate::dist`]).

use std::sync::Arc;

use chimera_core::op::{Chunk, OpKind};
use chimera_core::program::{lower, Program};
use chimera_core::schedule::Schedule;
use chimera_core::StageId;
use chimera_nn::{ModelConfig, Optimizer, OptimizerKind, Stage};
use chimera_tensor::{kernels, pool};

use crate::error::TrainError;
use crate::mem::{plan_lowered, ModelFootprint};
use crate::worker::TrainOptions;

/// The runtime's front door: lower `sched` once for the whole run, or name
/// the first op that cannot be executed — any defect
/// [`chimera_core::program::lower`] finds, a chunked row (§3.5's
/// forward-doubling pairs and backward-halving halves lower, but the worker
/// does not execute them yet), or a backward that would contribute its
/// gradient out of key order ([`unordered_backward`]). Returned before any
/// thread exists that could panic on the op or leave its peers to time out.
fn lower_for_run(sched: &Schedule) -> Result<Vec<Program>, TrainError> {
    let lowered = lower(sched, 1);
    let chunked = lowered.programs.iter().enumerate().find_map(|(w, p)| {
        let row = p.rows.iter().find(|row| row.op.chunk != Chunk::Full)?;
        let reason = "only full-micro chunks are executed, not forward-doubling pairs or \
                      backward-halving halves";
        Some((w, row.op_ix, reason))
    });
    let unordered = lowered.programs.iter().enumerate().find_map(|(w, p)| {
        let reason = "a worker's backwards for one stage must run in increasing micro-batch \
                      order between its launches: the stage's group folds their gradients in \
                      that order as they are made";
        Some((w, unordered_backward(p)?, reason))
    });
    let defect = lowered.defects.first();
    let defect = defect.map(|d| (d.worker as usize, d.op_ix, d.kind.reason()));
    match defect.or(chunked).or(unordered) {
        None => Ok(lowered.programs),
        Some((w, op_ix, reason)) => Err(TrainError::UnsupportedSchedule {
            worker: w as u32,
            op: (sched.workers.get(w).and_then(|ops| ops.get(op_ix)))
                .map_or("(none)".to_string(), ToString::to_string),
            reason,
        }),
    }
}

/// The op index of the first backward in `program` that does not follow
/// the previous one of its reducer in increasing micro order within a
/// round, if any. A round runs from one launch of the reducer to the next;
/// the one that wraps from an iteration's last launch into the next
/// iteration is in key order whatever the micros, since every global micro
/// id of the later iteration is larger.
fn unordered_backward(program: &Program) -> Option<usize> {
    let mut last = vec![None; program.reducer_stages.len()];
    for row in &program.rows {
        let last = &mut last[row.reducer as usize];
        match row.op.kind {
            OpKind::AllReduceLaunch => *last = None,
            OpKind::Backward { .. } => {
                if *last >= Some(row.op.micro.0) {
                    return Some(row.op_ix);
                }
                *last = Some(row.op.micro.0);
            }
            OpKind::Forward | OpKind::AllReduceWait => {}
        }
    }
    None
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
    /// The `D` stages at their partition-independent initialization, each
    /// with a fresh optimizer.
    pub stages: Vec<(Stage, Optimizer)>,
    _timing: Option<KernelTiming>,
}

/// Configure a run of `sched` on `cfg`: refuse what cannot be executed, set
/// the process-wide kernel switches from `opts` (thread count only affects
/// wall clock — kernels are bit-identical at any setting — the pool only
/// allocation traffic, and tracing pays for kernel timing so untraced runs
/// skip the two clock reads per matmul), build the initial stages with fresh
/// optimizers, and price
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
    let stages = initial_state(cfg, sched.d, opts.optimizer_kind());
    let pool_plans = if opts.pool && opts.prewarm {
        let fp = ModelFootprint::probe(stages.iter().map(|(stage, _)| stage), opts.micro_batch);
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

/// A run's state before its first update — commit zero: the `d` stages of
/// `cfg` at their partition-independent initialization ([`Stage::build`]),
/// each with a fresh optimizer of `kind`. It depends on nothing else, so no
/// driver serializes it: [`configure`] builds it for a run's first attempt,
/// and the in-process supervisor again for an attempt restarted before rank
/// 0's first commit.
pub(crate) fn initial_state(
    cfg: ModelConfig,
    d: u32,
    kind: OptimizerKind,
) -> Vec<(Stage, Optimizer)> {
    (Stage::build_all(cfg, d).into_iter())
        .map(|stage| {
            let opt = Optimizer::new(kind, stage.num_params());
            (stage, opt)
        })
        .collect()
}

/// Hand the per-stage `canon` state to its holders: `holders` lists, holder
/// by holder, the `(replica, stage)` slots each one holds
/// ([`Program::held`]), and each gets its slots back with the stage's state.
/// The first holder of a stage takes `canon`'s own value and later holders
/// clones of it, so a stage held `k` times costs `k − 1` copies; a stage
/// nobody holds is dropped here.
pub(crate) fn hand_out<T: Clone>(
    canon: Vec<T>,
    holders: &[&[(u32, u32)]],
) -> Vec<Vec<(u32, u32, T)>> {
    let mut left = vec![0usize; canon.len()];
    for &(_, s) in holders.iter().flat_map(|held| held.iter()) {
        left[s as usize] += 1;
    }
    let mut canon: Vec<Option<T>> = canon.into_iter().map(Some).collect();
    // Walked from the last holder back, so the clones are made while the
    // original is still here and the first holder is the one left to take it.
    let mut handed: Vec<Vec<_>> = (holders.iter().rev())
        .map(|held| {
            (held.iter())
                .map(|&(r, s)| {
                    let (left, slot) = (&mut left[s as usize], &mut canon[s as usize]);
                    *left -= 1;
                    let state = if *left == 0 {
                        slot.take()
                    } else {
                        slot.clone()
                    };
                    (r, s, state.expect("a stage outlives its first holder"))
                })
                .collect()
        })
        .collect();
    handed.reverse();
    handed
}

/// The members of `stage`'s allreduce group as global ranks
/// (`group · D + holder`), in member order: every data-parallel group's
/// holders, ranked (group, holder). The keyed reduction sums in key order,
/// not member order, but member 0 is who reduces over a transport — so
/// every fabric must agree on it.
pub(crate) fn reducer_members(sched: &Schedule, stage: u32, w: u32) -> Vec<u32> {
    let per_group = sched.num_workers() as u32;
    let holders = sched.placement.stage_holders(StageId(stage));
    (0..w)
        .flat_map(|g| holders.iter().map(move |h| g * per_group + h.0))
        .collect()
}

/// Refuse a fabric of `world` ranks for `w` replicated pipeline groups of
/// `sched` unless it is exactly `W·D` ranks with `W ≥ 1` — the same
/// [`TrainError::FabricSize`] under every fabric.
pub(crate) fn check_fabric(sched: &Schedule, w: u32, world: u32) -> Result<(), TrainError> {
    let expected = (sched.num_workers() as u32).saturating_mul(w);
    if w == 0 || world != expected {
        return Err(TrainError::FabricSize { world, expected });
    }
    Ok(())
}

/// The per-iteration mean loss over `per_iteration` (`N·W`) micro-batches
/// of gathered `(global_micro, loss)` pairs.
pub(crate) fn iteration_means(mut losses: Vec<(u64, f32)>, per_iteration: usize) -> Vec<f32> {
    losses.sort_unstable_by_key(|&(micro, _)| micro);
    (losses.chunks_exact(per_iteration))
        .map(|it| (it.iter().map(|&(_, l)| l as f64).sum::<f64>() / per_iteration as f64) as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use chimera_core::build_named;
    use chimera_nn::OptimizerKind;

    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Where the stage's first weight lives: equal only for the same buffer.
    fn wqkv_ptr(stage: &Stage) -> *const f32 {
        stage.blocks[0].attn.wqkv.w.data().as_ptr()
    }

    #[test]
    fn every_holder_gets_the_state_and_one_per_stage_the_original() {
        for (scheme, f, d, w) in [
            ("chimera", 1, 2, 1),
            ("chimera", 1, 2, 2),
            ("chimera", 1, 4, 1),
            ("chimera", 1, 4, 2),
            ("chimera-f2", 2, 4, 1),
        ] {
            let case = format!("{scheme} D={d} W={w}");
            let sched = build_named(scheme, d, d).unwrap();
            let cfg = ModelConfig {
                layers: d as usize,
                ..ModelConfig::tiny()
            };
            // Adam state that differs per stage and per element, so a slot
            // handed the wrong stage's optimizer shows.
            let canon: Vec<(Stage, Optimizer)> = (Stage::build_all(cfg, d).into_iter())
                .map(|stage| {
                    let n = stage.num_params();
                    let x = stage.index as f32;
                    let m = (0..n).map(|i| x + i as f32 * 0.25).collect();
                    let v = (0..n).map(|i| x * 0.5 + i as f32).collect();
                    let t = 3 + u64::from(stage.index);
                    (stage, Optimizer::from_state(OptimizerKind::adam(), m, v, t))
                })
                .collect();
            let expected: Vec<_> = (canon.iter())
                .map(|(stage, opt)| {
                    let (m, v, t) = opt.state();
                    (bits(&stage.params()), bits(m), bits(v), t, wqkv_ptr(stage))
                })
                .collect();
            let programs = lower(&sched, 1).programs;
            let holders: Vec<&[(u32, u32)]> = (0..w)
                .flat_map(|_| programs.iter().map(|p| p.held.as_slice()))
                .collect();

            let handed = hand_out(canon, &holders);
            assert_eq!(handed.len(), holders.len(), "{case}");
            let (mut slots, mut originals) = (vec![0; d as usize], vec![0; d as usize]);
            let mut first_holder: Vec<Option<usize>> = vec![None; d as usize];
            for (holder, (held, got)) in holders.iter().zip(&handed).enumerate() {
                let slots_got: Vec<(u32, u32)> = got.iter().map(|&(r, s, _)| (r, s)).collect();
                assert_eq!(&slots_got[..], *held, "{case}");
                for (_, s, (stage, opt)) in got {
                    let (params, m, v, t, ptr) = &expected[*s as usize];
                    let state = opt.state();
                    assert_eq!(&bits(&stage.params()), params, "{case} stage {s}");
                    assert_eq!(
                        (&bits(state.0), &bits(state.1), state.2),
                        (m, v, *t),
                        "{case} stage {s}"
                    );
                    let s = *s as usize;
                    slots[s] += 1;
                    let first = *first_holder[s].get_or_insert(holder);
                    if wqkv_ptr(stage) == *ptr {
                        originals[s] += 1;
                        assert_eq!(holder, first, "{case}: stage {s}'s original");
                    }
                }
            }
            // `2f·W` holders per stage: the first takes the original, the
            // other `2f·W − 1` clones.
            assert_eq!(slots, vec![2 * f * w as usize; d as usize], "{case}");
            assert_eq!(originals, vec![1; d as usize], "{case}");
        }
    }
}
