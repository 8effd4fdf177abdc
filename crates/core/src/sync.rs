//! Gradient-synchronization placement (§3.2, Fig. 4).
//!
//! After the compute schedule is fixed, allreduce launch/wait markers are
//! inserted per strategy:
//!
//! * **post-hoc** — all stages synchronize after local compute (Fig. 4(a));
//! * **eager** — every stage's allreduce launches right after its last local
//!   backward, exploiting non-blocking collectives (Fig. 4(b));
//! * **eager-opt** — eager only where a bubble follows the stage's last
//!   backward; middle stages, whose gradients finish last with no bubble to
//!   hide the collective, synchronize post-hoc. The paper shows this avoids
//!   the launch overhead extending the critical path (Fig. 12).

use crate::ids::{StageId, WorkerId};
use crate::op::Op;
use crate::schedule::{Schedule, SyncStrategy};
use crate::unit_time::{execute, Timeline, UnitCosts};

/// Insert allreduce ops into `sched` per `strategy`. Any existing sync ops
/// are removed first. `costs` drives the timing analysis used by
/// [`SyncStrategy::EagerOpt`].
pub fn place_sync(mut sched: Schedule, strategy: SyncStrategy, costs: UnitCosts) -> Schedule {
    sched.strip_sync();
    match strategy {
        SyncStrategy::None => {
            return sched;
        }
        SyncStrategy::PostHoc => {
            for w in 0..sched.num_workers() {
                let order = sync_order(&sched, w);
                let ops = &mut sched.workers[w];
                for &(r, s, _) in &order {
                    ops.push(Op::allreduce_launch(s, r));
                }
                for &(r, s, _) in &order {
                    ops.push(Op::allreduce_wait(s, r));
                }
            }
        }
        SyncStrategy::Eager => {
            for w in 0..sched.num_workers() {
                insert_eager(&mut sched, w, |_, _| true);
            }
        }
        SyncStrategy::EagerOpt => {
            let tl = execute(&sched, costs)
                .expect("compute schedule must execute before sync placement");
            let eager = FreeRegions::of(&sched, &tl).eager_mask();
            sched = place_eager_opt(sched, &eager);
        }
    }
    sched.sync = strategy;
    sched.assert_well_formed();
    sched
}

/// The free regions of a compute schedule on one unit-cost timeline (§3.4,
/// Fig. 6), in ticks: the idle time that can hide a stage replica's gradient
/// allreduce. Eager-opt placement and Eq. 1's overlap term both read these,
/// so one `execute` serves the two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeRegions {
    /// Per worker: ticks between its last compute op and the end of the
    /// iteration.
    pub tail: Vec<u64>,
    /// Per worker, per stage replica with local backwards in last-backward
    /// order: the stage and the worker's idle ticks between that replica's
    /// last backward and the worker's last compute op.
    pub idle_after: Vec<Vec<(StageId, u64)>>,
}

impl FreeRegions {
    /// The free regions of `sched` (compute ops only) as executed in `tl`.
    pub fn of(sched: &Schedule, tl: &Timeline) -> Self {
        let workers = 0..sched.num_workers();
        let ends: Vec<u64> = (workers.clone())
            .map(|w| tl.last_compute_finish(WorkerId(w as u32)))
            .collect();
        let idle_after = workers
            .map(|w| {
                let wid = WorkerId(w as u32);
                (sched.stage_replicas_by_last_backward(wid).iter())
                    .map(|&(r, s, _)| {
                        let t = (tl.last_backward_finish(wid, r, s))
                            .expect("a replica in last-backward order has a backward");
                        let busy_after: u64 = tl.spans[w]
                            .iter()
                            .filter(|sp| sp.op.is_compute() && sp.start >= t)
                            .map(|sp| sp.finish - sp.start)
                            .sum();
                        (s, ends[w] - t - busy_after)
                    })
                    .collect()
            })
            .collect();
        FreeRegions {
            tail: ends.iter().map(|&end| tl.makespan - end).collect(),
            idle_after,
        }
    }

    /// Eager-opt's choice per worker, per stage replica in sync order: eager
    /// only where idle time follows the replica's last backward. Replicas
    /// without local backwards (past the end of a worker's list) contribute
    /// nothing and sync post-hoc.
    pub fn eager_mask(&self) -> Vec<Vec<bool>> {
        (self.idle_after.iter())
            .map(|worker| worker.iter().map(|&(_, idle)| idle > 0).collect())
            .collect()
    }
}

/// [`SyncStrategy::EagerOpt`] placement from a mask already derived
/// ([`FreeRegions::eager_mask`]) — no execution. `sched` must carry no sync
/// ops; the result is not self-checked (`place_sync` does that, and the
/// verifier reports the same violations as typed defects).
pub fn place_eager_opt(mut sched: Schedule, eager: &[Vec<bool>]) -> Schedule {
    for (w, mask) in eager.iter().enumerate().take(sched.num_workers()) {
        let mut mask = mask.iter();
        insert_eager(&mut sched, w, |_, _| mask.next().is_some_and(|&e| e));
    }
    sched.sync = SyncStrategy::EagerOpt;
    sched
}

/// Stage replicas a worker holds in sync order: replicas with local
/// backwards in last-backward order, then (for completeness) held replicas
/// with no compute at all — e.g. the up pipeline's stages when `N = 1` runs
/// on the down pipeline only. Those must still join their stage's allreduce
/// (their weight copy has to stay synchronized), contributing nothing.
fn sync_order(
    sched: &Schedule,
    w: usize,
) -> Vec<(crate::ids::ReplicaId, crate::ids::StageId, usize)> {
    let wid = WorkerId(w as u32);
    let mut order = sched.stage_replicas_by_last_backward(wid);
    let tail_idx = sched.workers[w].len();
    for (r, s) in sched.placement.held_by(wid) {
        if !order.iter().any(|&(or, os, _)| or == r && os == s) {
            order.push((r, s, tail_idx));
        }
    }
    order
}

/// Insert eager launches (right after each stage replica's last backward)
/// where `eager(replica, stage)` says so — called once per stage replica in
/// last-backward order — and post-hoc launches plus all waits at the end.
fn insert_eager<F>(sched: &mut Schedule, w: usize, mut eager: F)
where
    F: FnMut(crate::ids::ReplicaId, crate::ids::StageId) -> bool,
{
    let order = sync_order(sched, w);
    let ops = &mut sched.workers[w];
    // Insert from the back so recorded indices stay valid.
    let mut post_hoc = Vec::new();
    let mut eager_inserts: Vec<(usize, Op)> = Vec::new();
    for &(r, s, last_idx) in &order {
        if eager(r, s) {
            eager_inserts.push((last_idx + 1, Op::allreduce_launch(s, r)));
        } else {
            post_hoc.push((r, s));
        }
    }
    eager_inserts.sort_by_key(|&(i, _)| std::cmp::Reverse(i));
    for (i, op) in eager_inserts {
        ops.insert(i, op);
    }
    for &(r, s) in &post_hoc {
        ops.push(Op::allreduce_launch(s, r));
    }
    // Waits at the very end, in last-backward order.
    for &(r, s, _) in &order {
        ops.push(Op::allreduce_wait(s, r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chimera::{chimera, ChimeraConfig};
    use crate::ids::{ReplicaId, StageId};
    use crate::op::OpKind;

    fn sched() -> Schedule {
        chimera(&ChimeraConfig::new(4, 4)).unwrap()
    }

    fn launches_and_waits(s: &Schedule, w: usize) -> (usize, usize) {
        let l = s.workers[w]
            .iter()
            .filter(|o| o.kind == OpKind::AllReduceLaunch)
            .count();
        let wt = s.workers[w]
            .iter()
            .filter(|o| o.kind == OpKind::AllReduceWait)
            .count();
        (l, wt)
    }

    #[test]
    fn post_hoc_places_all_sync_at_end() {
        let s = place_sync(sched(), SyncStrategy::PostHoc, UnitCosts::practical());
        for w in 0..4 {
            let (l, wt) = launches_and_waits(&s, w);
            assert_eq!((l, wt), (2, 2), "two stage replicas per worker");
            // The last 4 ops are exactly the sync ops.
            let tail = &s.workers[w][s.workers[w].len() - 4..];
            assert!(tail.iter().all(|o| !o.is_compute()));
        }
        execute(&s, UnitCosts::practical()).unwrap();
    }

    #[test]
    fn eager_launches_follow_last_backward() {
        let s = place_sync(sched(), SyncStrategy::Eager, UnitCosts::practical());
        for w in 0..4usize {
            let ops = &s.workers[w];
            for (i, op) in ops.iter().enumerate() {
                if op.kind == OpKind::AllReduceLaunch {
                    // No backward of the same (replica, stage) after the launch.
                    assert!(!ops[i + 1..].iter().any(|o| o.is_backward()
                        && o.stage == op.stage
                        && o.replica == op.replica));
                }
            }
        }
        execute(&s, UnitCosts::practical()).unwrap();
    }

    /// Fig. 5's sync pattern for D=4: on P0, stage 3 (the up replica) is
    /// synchronized eagerly — its backwards finish mid-schedule, followed by
    /// bubbles — while stage 0, which finishes last, is not.
    #[test]
    fn eager_opt_matches_figure5_pattern() {
        let s = place_sync(sched(), SyncStrategy::EagerOpt, UnitCosts::practical());
        let ops = &s.workers[0];
        let launch_s3 = ops
            .iter()
            .position(|o| o.kind == OpKind::AllReduceLaunch && o.stage == StageId(3))
            .unwrap();
        let launch_s0 = ops
            .iter()
            .position(|o| o.kind == OpKind::AllReduceLaunch && o.stage == StageId(0))
            .unwrap();
        // S3 launch is eager (before the final backwards), S0 post-hoc (after).
        let last_backward = ops
            .iter()
            .rposition(super::super::op::Op::is_backward)
            .unwrap();
        assert!(launch_s3 < last_backward, "stage3 synced eagerly");
        assert!(launch_s0 > last_backward, "stage0 synced post-hoc");
        execute(&s, UnitCosts::practical()).unwrap();
    }

    /// Middle workers (P1, P2) have no bubble after their stages' last
    /// backwards, so eager-opt must not launch eagerly there.
    #[test]
    fn eager_opt_leaves_middle_stages_post_hoc() {
        let s = place_sync(sched(), SyncStrategy::EagerOpt, UnitCosts::practical());
        for w in [1usize, 2] {
            let ops = &s.workers[w];
            let last_backward = ops
                .iter()
                .rposition(super::super::op::Op::is_backward)
                .unwrap();
            for (i, op) in ops.iter().enumerate() {
                if op.kind == OpKind::AllReduceLaunch {
                    assert!(
                        i > last_backward,
                        "worker {w}: middle stage launched eagerly at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_launch_has_matching_wait() {
        for strat in [
            SyncStrategy::PostHoc,
            SyncStrategy::Eager,
            SyncStrategy::EagerOpt,
        ] {
            let s = place_sync(sched(), strat, UnitCosts::practical());
            for w in 0..4 {
                let (l, wt) = launches_and_waits(&s, w);
                assert_eq!(l, wt, "strategy {strat:?} worker {w}");
            }
        }
    }

    #[test]
    fn replace_strategy_strips_previous_ops() {
        let s = place_sync(sched(), SyncStrategy::Eager, UnitCosts::practical());
        let s = place_sync(s, SyncStrategy::PostHoc, UnitCosts::practical());
        for w in 0..4 {
            let (l, wt) = launches_and_waits(&s, w);
            assert_eq!((l, wt), (2, 2));
        }
        let _ = (ReplicaId(0), StageId(0)); // silence unused-import lints in cfg(test)
    }
}
