//! Baseline pipeline schemes evaluated in the paper (Table 2):
//! GPipe \[26\], DAPPLE \[16\], GEMS \[28\], PipeDream \[38\], PipeDream-2BW \[39\].

use crate::chimera::ScaleMethod;
use crate::ids::{MicroId, ReplicaId, StageId};
use crate::onefb::DirectionalPipeline;
use crate::op::Op;
use crate::placement::Placement;
use crate::schedule::{Schedule, Scheme, SyncStrategy};

/// GPipe \[26\]: inject all `n` micro-batches, then run all backwards, then
/// flush. Bubbles: `D-1` in each phase; activations: `n * Ma` (Table 2).
pub fn gpipe(d: u32, n: u32) -> Schedule {
    assert!(d >= 1 && n >= 1);
    let placement = Placement::linear(d);
    let workers = (0..d)
        .map(|s| {
            let mut ops = Vec::with_capacity(2 * n as usize);
            for m in 0..n {
                ops.push(Op::forward(MicroId(m), StageId(s), ReplicaId(0)));
            }
            for m in 0..n {
                ops.push(Op::backward(MicroId(m), StageId(s), ReplicaId(0)));
            }
            ops
        })
        .collect();
    let sched = Schedule {
        scheme: Scheme::GPipe,
        d,
        n,
        placement,
        workers,
        flushes: true,
        sync: SyncStrategy::None,
    };
    sched.assert_well_formed();
    sched
}

/// DAPPLE \[16\]: 1F1B schedule with periodic flushes. Same bubble count as
/// GPipe but activations bounded by `min(D - s, n)` micro-batches per stage.
pub fn dapple(d: u32, n: u32) -> Schedule {
    assert!(d >= 1 && n >= 1);
    let placement = Placement::linear(d);
    let pipe = DirectionalPipeline {
        d,
        replica: ReplicaId(0),
        first_micro: 0,
        num_micros: n,
        mode: ScaleMethod::Direct,
    };
    let workers = (0..d).map(|s| pipe.stage_ops(StageId(s))).collect();
    let sched = Schedule {
        scheme: Scheme::Dapple,
        d,
        n,
        placement,
        workers,
        flushes: true,
        sync: SyncStrategy::None,
    };
    sched.assert_well_formed();
    sched
}

/// GEMS \[28\]: two model replicas in opposite directions; micro-batches are
/// processed in pairs with at most two concurrently active, so the second
/// replica's forward overlaps the first's backward. Designed for small
/// mini-batches; its bubble ratio (`≈ (D-1)/(D+1/2)`, Table 2) does not
/// shrink with `n`.
///
/// `n` must be even (pairs).
pub fn gems(d: u32, n: u32) -> Schedule {
    assert!(
        d >= 2 && d.is_multiple_of(2),
        "GEMS uses a reversed replica; even D"
    );
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "GEMS schedules micro-batch pairs"
    );
    let placement = Placement::bidirectional(d, 1);
    let mut workers: Vec<Vec<Op>> = vec![Vec::new(); d as usize];
    for pair in 0..n / 2 {
        let m_down = MicroId(2 * pair);
        let m_up = MicroId(2 * pair + 1);
        for w in 0..d {
            let down_stage = StageId(w); // down replica: stage w on worker w
            let up_stage = StageId(d - 1 - w); // up replica reversed
            let ops = &mut workers[w as usize];
            ops.push(Op::forward(m_down, down_stage, ReplicaId(0)));
            ops.push(Op::forward(m_up, up_stage, ReplicaId(1)));
            // The down backward reaches worker w (stage w) after 2(D-1-w)
            // backward slots; the up backward reaches it after the up
            // forward completes plus 2w slots. Earlier one first.
            let down_b = Op::backward(m_down, down_stage, ReplicaId(0));
            let up_b = Op::backward(m_up, up_stage, ReplicaId(1));
            if 4 * w >= d {
                ops.push(down_b);
                ops.push(up_b);
            } else {
                ops.push(up_b);
                ops.push(down_b);
            }
        }
    }
    let sched = Schedule {
        scheme: Scheme::Gems,
        d,
        n,
        placement,
        workers,
        flushes: true,
        sync: SyncStrategy::None,
    };
    sched.assert_well_formed();
    sched
}

/// PipeDream \[38\]: asynchronous 1F1B without flushes. The model is updated
/// after each micro-batch's backward, which requires stashing up to `D - s`
/// weight versions at stage `s`. Gradient synchronization (across the `W`
/// data-parallel replicas) happens per micro-batch: a blocking
/// launch + wait follows every backward.
pub fn pipedream(d: u32, n: u32) -> Schedule {
    let mut sched = dapple(d, n);
    sched.scheme = Scheme::PipeDream;
    sched.flushes = false;
    sched.sync = SyncStrategy::Eager;
    for ops in sched.workers.iter_mut() {
        let mut with_sync = Vec::with_capacity(ops.len() * 2);
        for op in ops.drain(..) {
            let is_bwd = op.is_backward();
            let (stage, replica) = (op.stage, op.replica);
            with_sync.push(op);
            if is_bwd {
                with_sync.push(Op::allreduce_launch(stage, replica));
                with_sync.push(Op::allreduce_wait(stage, replica));
            }
        }
        *ops = with_sync;
    }
    sched
}

/// PipeDream-2BW \[39\]: asynchronous 1F1B without flushes, gradient
/// accumulation over the `n` micro-batches and double-buffered weights
/// (2 versions). One gradient synchronization per iteration, overlapped with
/// the next iteration's compute (the wait is deferred; see
/// [`crate::repeat::concat_iterations`]).
pub fn pipedream_2bw(d: u32, n: u32) -> Schedule {
    let mut sched = dapple(d, n);
    sched.scheme = Scheme::PipeDream2Bw;
    sched.flushes = false;
    sched.sync = SyncStrategy::Eager;
    for ops in sched.workers.iter_mut() {
        let stage = ops[0].stage;
        ops.push(Op::allreduce_launch(stage, ReplicaId(0)));
        ops.push(Op::allreduce_wait(stage, ReplicaId(0)));
    }
    sched
}

/// PipeDream's no-flush steady state over `iters` logical iterations: a
/// single continuous 1F1B stream of `n * iters` micro-batches (stages never
/// drain between iterations) with per-micro gradient sync.
pub fn pipedream_steady(d: u32, n: u32, iters: u32) -> Schedule {
    pipedream(d, n * iters)
}

/// PipeDream-2BW's steady state: continuous 1F1B over `n * iters`
/// micro-batches; gradients are accumulated per `n`-micro block, each block's
/// allreduce launches right after its last backward and is awaited only at
/// the end of the *next* block (double-buffered weights let the sync overlap
/// a whole iteration of compute).
pub fn pipedream_2bw_steady(d: u32, n: u32, iters: u32) -> Schedule {
    let mut sched = dapple(d, n * iters);
    sched.scheme = Scheme::PipeDream2Bw;
    sched.flushes = false;
    sched.sync = SyncStrategy::Eager;
    for ops in sched.workers.iter_mut() {
        let stage = ops[0].stage;
        // Count backwards per block; a block ends after its n-th backward.
        let mut out = Vec::with_capacity(ops.len() + 2 * iters as usize);
        let mut backwards = 0u32;
        let mut owed_waits = 0u32;
        for op in ops.drain(..) {
            let is_bwd = op.is_backward();
            out.push(op);
            if is_bwd {
                backwards += 1;
                if backwards.is_multiple_of(n) {
                    if owed_waits > 0 {
                        out.push(Op::allreduce_wait(stage, ReplicaId(0)));
                        owed_waits -= 1;
                    }
                    out.push(Op::allreduce_launch(stage, ReplicaId(0)));
                    owed_waits += 1;
                }
            }
        }
        for _ in 0..owed_waits {
            out.push(Op::allreduce_wait(stage, ReplicaId(0)));
        }
        *ops = out;
    }
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use crate::program::lower;
    use crate::unit_time::{execute, UnitCosts};

    #[test]
    fn gpipe_structure_and_bubbles() {
        for (d, n) in [(4u32, 4u32), (4, 8), (8, 16)] {
            let s = gpipe(d, n);
            let tl = execute(&s, UnitCosts::practical()).unwrap();
            // Table 2: (D-1)/(N+D-1) with backward = 2 forward.
            let expected = (d as f64 - 1.0) / (n as f64 + d as f64 - 1.0);
            assert!(
                (tl.bubble_ratio() - expected).abs() < 1e-9,
                "D={d} N={n}: {} vs {}",
                tl.bubble_ratio(),
                expected
            );
            // Activations proportional to N on the first worker.
            assert_eq!(lower(&s, 1).programs[0].stash_slots, n as usize);
        }
    }

    #[test]
    fn dapple_same_bubbles_less_memory() {
        for (d, n) in [(4u32, 8u32), (8, 16)] {
            let g = execute(&gpipe(d, n), UnitCosts::practical()).unwrap();
            let a = execute(&dapple(d, n), UnitCosts::practical()).unwrap();
            assert_eq!(g.makespan, a.makespan, "same bubble overhead");
            // DAPPLE stashes at most min(D - s, n) micros (Table 2: [Ma, D*Ma]).
            let programs = lower(&dapple(d, n), 1).programs;
            for (s, p) in programs.iter().enumerate() {
                let bound = (d - s as u32).min(n) as usize;
                assert_eq!(p.stash_slots, bound, "stage {s}");
            }
            assert_eq!(programs.last().unwrap().stash_slots, 1);
        }
    }

    #[test]
    fn gems_executes_and_matches_table2_ratio() {
        for d in [4u32, 8, 16] {
            // Large n: GEMS's ratio should stay near (D-1)/(D+1/2) — it does
            // not improve with n (Table 2).
            let n = 16;
            let s = gems(d, n);
            let tl = execute(&s, UnitCosts::practical()).unwrap();
            let expected = (d as f64 - 1.0) / (d as f64 + 0.5);
            assert!(
                (tl.bubble_ratio() - expected).abs() < 0.10,
                "D={d}: measured {} vs Table-2 {}",
                tl.bubble_ratio(),
                expected
            );
        }
    }

    #[test]
    fn gems_bubble_ratio_does_not_improve_with_n() {
        let d = 8;
        let r4 = execute(&gems(d, 4), UnitCosts::practical())
            .unwrap()
            .bubble_ratio();
        let r32 = execute(&gems(d, 32), UnitCosts::practical())
            .unwrap()
            .bubble_ratio();
        assert!((r4 - r32).abs() < 0.05, "{r4} vs {r32}");
        assert!(r32 > 0.5, "GEMS stays bubble-dominated: {r32}");
    }

    #[test]
    fn gems_low_activation_memory() {
        // At most the two active micro-batches are stashed anywhere.
        for p in lower(&gems(8, 8), 1).programs {
            assert!(p.stash_slots <= 2);
        }
    }

    #[test]
    fn pipedream_inserts_sync_after_every_backward() {
        let s = pipedream(4, 4);
        assert!(!s.flushes);
        for ops in &s.workers {
            let waits = ops
                .iter()
                .filter(|o| o.kind == OpKind::AllReduceWait)
                .count();
            assert_eq!(waits, 4, "one wait per micro-batch backward");
        }
        execute(&s, UnitCosts::practical()).unwrap();
    }

    #[test]
    fn pipedream_2bw_single_sync_per_iteration() {
        let s = pipedream_2bw(4, 8);
        assert!(!s.flushes);
        for ops in &s.workers {
            let launches = ops
                .iter()
                .filter(|o| o.kind == OpKind::AllReduceLaunch)
                .count();
            assert_eq!(launches, 1);
        }
        execute(&s, UnitCosts::practical()).unwrap();
    }

    #[test]
    fn async_schemes_share_1f1b_compute_order() {
        let mut pd = pipedream(4, 6);
        pd.strip_sync();
        let mut bw = pipedream_2bw(4, 6);
        bw.strip_sync();
        let da = dapple(4, 6);
        assert_eq!(pd.workers, da.workers);
        assert_eq!(bw.workers, da.workers);
    }

    #[test]
    #[should_panic(expected = "pairs")]
    fn gems_rejects_odd_n() {
        gems(4, 3);
    }
}
