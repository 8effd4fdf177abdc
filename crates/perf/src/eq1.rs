//! The paper's performance model (§3.4, Equation 1):
//!
//! `T = (Ft + Comm_p2p)·Cf + (Bt + Comm_p2p)·Cb + max_i Comm_unoverlapped(i)`
//!
//! The model separates what a schedule *is* from what it *costs*.
//! [`critical_path`] is the first half: `Cf`/`Cb` — the number of
//! forward/backward passes on the critical path — derived by executing the
//! schedule twice under abstract costs with different forward:backward
//! ratios and solving the resulting linear system (the paper's critical-path
//! definition, exact for any schedule shape including §3.5's scaled
//! schedules), plus the free regions of Fig. 6 in ticks. [`price`] is the
//! second: `Ft`, `Bt` and `Comm` from a cost model. The planner computes the
//! first once per schedule shape and the second per candidate.

use chimera_core::op::Op;
use chimera_core::schedule::Schedule;
use chimera_core::sync::FreeRegions;
use chimera_core::unit_time::{execute, CostProvider, ExecError, UnitCosts};
use chimera_core::{MicroId, ReplicaId, StageId};
use chimera_sim::SimCostModel;

/// Output of the performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfPrediction {
    /// Predicted per-iteration time, seconds.
    pub t_iter_s: f64,
    /// Forward passes on the critical path.
    pub cf: f64,
    /// Backward passes on the critical path.
    pub cb: f64,
    /// Modelled p2p cost per transfer, seconds.
    pub comm_p2p_s: f64,
    /// The `max_i Comm_unoverlapped(i)` term, seconds.
    pub unoverlapped_s: f64,
}

/// Everything Eq. 1 reads off a schedule — no cost model involved.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Forward passes on the critical path.
    pub cf: f64,
    /// Backward passes on the critical path.
    pub cb: f64,
    /// Pipeline depth (the representative pass is a middle stage's).
    pub d: u32,
    /// Whether backward passes recompute activations.
    pub recomputes: bool,
    /// Idle time that can hide gradient synchronization, in ticks of
    /// [`UnitCosts::practical`] (a forward pass is two).
    pub regions: FreeRegions,
}

/// The critical path of `sched`. Allreduce markers are ignored: only compute
/// ops drive `Cf`/`Cb`, and the free regions are the compute schedule's.
pub fn critical_path(sched: &Schedule) -> Result<CriticalPath, ExecError> {
    let mut compute_only = sched.clone();
    compute_only.strip_sync();
    let tl = execute(&compute_only, UnitCosts::practical())?;
    let regions = FreeRegions::of(&compute_only, &tl);
    critical_path_with(&compute_only, regions)
}

/// [`critical_path`] of a schedule without sync ops whose free regions under
/// [`UnitCosts::practical`] are already known (eager-opt sync placement
/// derives the same ones).
pub fn critical_path_with(
    compute_only: &Schedule,
    regions: FreeRegions,
) -> Result<CriticalPath, ExecError> {
    // Solve mA = f·Cf + bA·Cb, mB = f·Cf + bB·Cb.
    let costs_a = UnitCosts {
        fwd: 4,
        bwd: 8,
        recompute_extra: 0,
        ..UnitCosts::equal()
    };
    let costs_b = UnitCosts { bwd: 12, ..costs_a };
    let ma = execute(compute_only, costs_a)?.makespan as f64;
    let mb = execute(compute_only, costs_b)?.makespan as f64;
    let cb = (mb - ma) / 4.0;
    Ok(CriticalPath {
        cf: (ma - 8.0 * cb) / 4.0,
        cb,
        d: compute_only.d,
        recomputes: compute_only.iter_ops().any(|(_, _, op)| op.recomputes()),
        regions,
    })
}

/// Eq. 1 for a schedule with critical path `path`, under `cost`.
pub fn price(path: &CriticalPath, cost: &SimCostModel) -> PerfPrediction {
    // --- Per-pass times, measured from the cost model exactly as §3.4
    // measures them with micro-benchmarks: a representative middle-stage
    // forward/backward including its host-side communication shares. ---
    let st = &cost.stages[0];
    let mid = StageId(path.d / 2);
    let probe_f = Op::forward(MicroId(0), mid, ReplicaId(0));
    let probe_b = if path.recomputes {
        Op::backward_recompute(MicroId(0), mid, ReplicaId(0))
    } else {
        Op::backward(MicroId(0), mid, ReplicaId(0))
    };
    let ft = cost.op_cost(&probe_f) as f64 / 1e9;
    let bt = cost.op_cost(&probe_b) as f64 / 1e9;
    let comm_p2p = cost.network.p2p_time(st.boundary_bytes, false);

    // --- Gradient-synchronization overlap (Fig. 6's free regions). ---
    let s_per_tick = ft / 2.0; // practical() uses fwd = 2 ticks
    let mut worst = 0.0f64;
    for (held, &tail) in path.regions.idle_after.iter().zip(&path.regions.tail) {
        // Walk the worker's stage replicas in completion order: each
        // collective can only hide in idle time *after* its gradients exist
        // (minus what earlier collectives already consumed — they share the
        // worker's communication resource). The last-finishing replica has
        // no bubble after it, so its collective and progression overhead are
        // exposed (this is why eager-opt leaves it post-hoc). Idle time is
        // summed in ticks — exactly — and scaled to seconds once.
        let mut consumed = 0.0f64;
        let mut unover = 0.0f64;
        for (idx, &(stage, idle)) in held.iter().enumerate() {
            let idle_after = (idle + tail) as f64 * s_per_tick;
            let available = (idle_after - consumed).max(0.0);
            let is_last = idx == held.len() - 1;
            let ar = cost.allreduce_s(stage);
            let charge = ar
                + cost.launch_overhead_s
                + if is_last {
                    cost.comm_compute_interference * ar
                } else {
                    0.0
                };
            let hidden = charge.min(available);
            consumed += hidden;
            unover += charge - hidden;
        }
        worst = worst.max(unover);
    }

    PerfPrediction {
        t_iter_s: (ft + comm_p2p) * path.cf + (bt + comm_p2p) * path.cb + worst,
        cf: path.cf,
        cb: path.cb,
        comm_p2p_s: comm_p2p,
        unoverlapped_s: worst,
    }
}

/// Predict the per-iteration time of `sched` under `cost` with Eq. 1:
/// [`price`] of its [`critical_path`].
///
/// # Panics
/// If `sched` does not execute (a deadlocked schedule has no critical path).
pub fn predict(sched: &Schedule, cost: &SimCostModel) -> PerfPrediction {
    price(&critical_path(sched).expect("schedule must execute"), cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{ClusterSpec, TrainConfig};
    use crate::model::ModelSpec;
    use chimera_core::chimera::{chimera, ChimeraConfig};
    use chimera_core::schedule::SyncStrategy;
    use chimera_core::sync::place_sync;
    use chimera_sim::simulate;

    fn cost(d: u32, w: u32, b: u32) -> SimCostModel {
        TrainConfig {
            model: ModelSpec::bert48(),
            cluster: ClusterSpec::piz_daint(),
            d,
            w,
            b,
            stage_replicas: 2,
        }
        .cost_model()
    }

    /// Cf and Cb match the paper's example: Fig. 6 has N=D=6 with Cf=6 and
    /// Cb=10... our derived values for the executed schedule.
    #[test]
    fn critical_path_counts_chimera() {
        for d in [4u32, 6, 8] {
            let s = chimera(&ChimeraConfig::new(d, d)).unwrap();
            let p = predict(&s, &cost(d, 1, 1));
            assert!((p.cf - d as f64).abs() < 1e-6, "D={d}: Cf={}", p.cf);
            assert!(
                (p.cb - (2.0 * d as f64 - 2.0)).abs() < 1e-6,
                "D={d}: Cb={}",
                p.cb
            );
        }
    }

    /// The model tracks the simulator within 10% (the paper's Fig. 13
    /// reports < 10% error of the model vs the machine).
    #[test]
    fn model_error_within_10_percent_of_simulator() {
        for (d, w, b) in [(4u32, 8u32, 8u32), (8, 4, 4), (8, 1, 8), (4, 2, 16)] {
            let c = cost(d, w, b);
            let sched = place_sync(
                chimera(&ChimeraConfig::new(d, d)).unwrap(),
                SyncStrategy::EagerOpt,
                UnitCosts::practical(),
            );
            let sim = simulate(&sched, &c).unwrap();
            let pred = predict(&sched, &c);
            let err = (pred.t_iter_s - sim.iter_time_s).abs() / sim.iter_time_s;
            assert!(
                err < 0.10,
                "D={d} W={w} B={b}: predicted {:.4}s vs simulated {:.4}s (err {:.3})",
                pred.t_iter_s,
                sim.iter_time_s,
                err
            );
        }
    }

    #[test]
    fn recompute_detected_in_bt() {
        let d = 4;
        let c = cost(d, 1, 4);
        let plain = chimera(&ChimeraConfig::new(d, d)).unwrap();
        let recomputed = plain.clone().with_recompute();
        let p1 = predict(&plain, &c);
        let p2 = predict(&recomputed, &c);
        assert!(p2.t_iter_s > p1.t_iter_s);
    }
}
