//! Happens-before analysis: does the schedule complete, and if not, *why* —
//! the actual waits-for cycle through worker frontiers, a dependency no op
//! produces, or a collective that can never gather all its participants.
//!
//! Whether the schedule completes is decided by the executor itself
//! (`chimera_core::unit_time::execute_or_stall` under unit costs; whether an
//! op *can* execute never depends on tick values, only on which dependencies
//! exist). This module only diagnoses the stalled state the executor hands
//! back, asking `chimera_core::dep::DepTracker` — the one statement of op
//! readiness — what each blocked frontier is waiting for.

use std::collections::HashMap;

use chimera_core::dep::{DepTracker, Need};
use chimera_core::ids::{StageId, WorkerId};
use chimera_core::op::{Chunk, Op, OpKind};
use chimera_core::schedule::Schedule;
use chimera_core::unit_time::{execute_or_stall, Stall, UnitCosts};

use crate::{Diagnostic, OpLoc, Severity};

/// Outcome of the happens-before analysis.
pub struct Analysis {
    /// The schedule cannot complete.
    pub deadlock: bool,
    /// Worker frontiers stuck when progress stopped (empty when not
    /// deadlocked). Matches `ExecError::Deadlock::blocked`.
    pub blocked: Vec<OpLoc>,
    /// `deadlock_cycle`, `missing_producer`, or `incomplete_collective`
    /// findings (empty when not deadlocked).
    pub diagnostics: Vec<Diagnostic>,
}

/// Run the happens-before analysis on `sched`.
pub fn analyze(sched: &Schedule) -> Analysis {
    match execute_or_stall(sched, &UnitCosts::equal()) {
        Ok(Err(stall)) => diagnose(sched, &stall),
        // It completes, or it names ids outside itself: nothing executes
        // that, and lowering reports it (`id_out_of_range`).
        Ok(Ok(_)) | Err(_) => Analysis {
            deadlock: false,
            blocked: Vec::new(),
            diagnostics: Vec::new(),
        },
    }
}

/// Build the deadlock diagnostics from the stalled state: the blocked
/// frontier set plus either the waits-for cycle, a missing producer, or an
/// incomplete collective.
fn diagnose(sched: &Schedule, stall: &Stall) -> Analysis {
    let Stall { next, deps } = stall;
    let blocked: Vec<OpLoc> = stall
        .blocked(sched)
        .into_iter()
        .map(|b| OpLoc {
            worker: b.worker.0,
            op_index: b.op_index,
            op: b.op,
        })
        .collect();

    let mut diagnostics = Vec::new();
    // Walk the waits-for graph from the first blocked worker. Every blocked
    // frontier has exactly one "first missing need"; the need's producer op
    // (if any) sits at-or-after the frontier of some worker, which is itself
    // blocked — so the walk either revisits a worker (a cycle) or dies at a
    // need nobody produces.
    let start = blocked[0].worker as usize;
    let mut chain: Vec<(usize, usize, String)> = Vec::new(); // (worker, frontier idx, need)
    let mut pos_of: HashMap<usize, usize> = HashMap::new();
    let mut w = start;
    loop {
        if let Some(&p) = pos_of.get(&w) {
            // Cycle found: chain[p..] waits on each other in a loop.
            let cycle = &chain[p..];
            let mut msg = String::from("waits-for cycle: ");
            for (i, (cw, ci, need)) in cycle.iter().enumerate() {
                if i > 0 {
                    msg.push_str(" -> ");
                }
                msg.push_str(&format!(
                    "P{cw} op #{ci} ({}) needs {need}",
                    sched.workers[*cw][*ci]
                ));
            }
            msg.push_str(&format!(" -> back to P{}", cycle[0].0));
            diagnostics.push(Diagnostic {
                code: "deadlock_cycle",
                severity: Severity::Error,
                message: msg,
                locations: cycle
                    .iter()
                    .map(|&(cw, ci, _)| OpLoc::of(sched, cw, ci))
                    .collect(),
            });
            break;
        }
        pos_of.insert(w, chain.len());
        let frontier = next[w];
        let op = &sched.workers[w][frontier];
        let need = deps
            .first_unmet(WorkerId(w as u32), op)
            .expect("blocked frontier has an unmet need");
        chain.push((w, frontier, need.to_string()));
        match producer_of(sched, next, deps, &need) {
            Producer::Op(pw, _pi) => w = pw,
            Producer::Missing => {
                diagnostics.push(Diagnostic {
                    code: "missing_producer",
                    severity: Severity::Error,
                    message: format!(
                        "P{w} op #{frontier} ({op}) needs {need}, which no remaining op produces"
                    ),
                    locations: vec![OpLoc::of(sched, w, frontier)],
                });
                break;
            }
            Producer::DeadCollective(stage, inst) => {
                diagnostics.push(Diagnostic {
                    code: "incomplete_collective",
                    severity: Severity::Error,
                    message: format!(
                        "P{w} op #{frontier} ({op}) waits for allreduce instance {inst} of \
                         {stage}, but no remaining launch can complete it"
                    ),
                    locations: vec![OpLoc::of(sched, w, frontier)],
                });
                break;
            }
        }
    }

    Analysis {
        deadlock: true,
        blocked,
        diagnostics,
    }
}

enum Producer {
    /// The unexecuted op that would satisfy the need.
    Op(usize, usize),
    /// Nothing in the remaining schedule produces the needed token.
    Missing,
    /// An allreduce wait whose instance can never gather all launches.
    DeadCollective(StageId, usize),
}

/// Find an unexecuted op that would produce `need`'s token.
fn producer_of(sched: &Schedule, next: &[usize], deps: &DepTracker, need: &Need) -> Producer {
    match *need {
        Need::Fwd(m, s, r) => {
            let w = sched.placement.worker(r, s).idx();
            find_from(sched, w, next[w], |op| {
                op.is_forward()
                    && op.stage == s
                    && op.replica == r
                    && op.covered_micros().any(|c| c == m)
            })
        }
        Need::Bwd(m, s, r, consumer) => {
            let w = sched.placement.worker(r, s).idx();
            find_from(sched, w, next[w], |op| {
                if !(op.is_backward() && op.stage == s && op.replica == r) {
                    return false;
                }
                if !op.covered_micros().any(|c| c == m) {
                    return false;
                }
                // The producer must contribute a tag the consumer still
                // lacks: a full producer always does; a half producer helps a
                // half consumer of the same half, or a full consumer missing
                // that half.
                match (consumer, op.chunk) {
                    (_, Chunk::Full | Chunk::Pair) => true,
                    (Chunk::Half(hc), Chunk::Half(hp)) => hc == hp,
                    (_, Chunk::Half(hp)) => !deps.bwd_half_done(m, s, r, hp),
                }
            })
        }
        Need::Ar(stage, inst) => {
            // A launch op on worker w' feeds instance `launch_count[w']` (its
            // per-worker launch sequence number). The instance completes when
            // `replicas` launches target it; find any worker whose next
            // unexecuted launch for this stage would land in `inst`.
            for (w, ops) in sched.workers.iter().enumerate() {
                let mut seq = deps.launches(WorkerId(w as u32), stage);
                for (i, op) in ops.iter().enumerate().skip(next[w]) {
                    if matches!(op.kind, OpKind::AllReduceLaunch) && op.stage == stage {
                        if seq == inst {
                            return Producer::Op(w, i);
                        }
                        seq += 1;
                    }
                }
            }
            Producer::DeadCollective(stage, inst)
        }
    }
}

fn find_from(sched: &Schedule, w: usize, from: usize, pred: impl Fn(&Op) -> bool) -> Producer {
    match sched.workers[w]
        .iter()
        .enumerate()
        .skip(from)
        .find(|(_, op)| pred(op))
    {
        Some((i, _)) => Producer::Op(w, i),
        None => Producer::Missing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_core::baselines::gpipe;
    use chimera_core::unit_time::{execute, UnitCosts};

    #[test]
    fn clean_schedule_has_no_deadlock() {
        let a = analyze(&gpipe(4, 8));
        assert!(!a.deadlock);
        assert!(a.blocked.is_empty());
    }

    #[test]
    fn reordered_backwards_agree_with_executor() {
        // Running stage-0's backwards out of order delays but does not
        // deadlock a GPipe schedule; the static verdict must agree.
        let mut s = gpipe(2, 2);
        let b0 = s.workers[0]
            .iter()
            .position(chimera_core::Op::is_backward)
            .unwrap();
        s.workers[0].swap(b0, b0 + 1);
        assert!(!analyze(&s).deadlock);
        assert!(execute(&s, UnitCosts::equal()).is_ok());
    }

    #[test]
    fn cross_worker_cycle_is_extracted() {
        // D=2, N=2, linear: worker 0 interleaves B(m0) before F(m1) while
        // worker 1 needs F(m1) before it reaches B(m0) — a genuine two-worker
        // waits-for cycle.
        use chimera_core::ids::{MicroId, ReplicaId, StageId};
        use chimera_core::placement::Placement;
        use chimera_core::schedule::{Schedule, Scheme, SyncStrategy};
        let f = |m, s| Op::forward(MicroId(m), StageId(s), ReplicaId(0));
        let b = |m, s| Op::backward(MicroId(m), StageId(s), ReplicaId(0));
        let s = Schedule {
            scheme: Scheme::GPipe,
            d: 2,
            n: 2,
            placement: Placement::linear(2),
            workers: vec![
                vec![f(0, 0), b(0, 0), f(1, 0), b(1, 0)],
                vec![f(0, 1), f(1, 1), b(0, 1), b(1, 1)],
            ],
            flushes: true,
            sync: SyncStrategy::None,
        };
        let a = analyze(&s);
        assert!(a.deadlock);
        assert_eq!(a.blocked.len(), 2, "both workers stuck");
        let cyc = a
            .diagnostics
            .iter()
            .find(|d| d.code == "deadlock_cycle")
            .expect("cycle diagnostic");
        assert_eq!(cyc.locations.len(), 2, "two-op cycle: {}", cyc.message);
        assert!(cyc.message.contains("needs"));
        // Dynamic executor agrees, with the same blocked set.
        let err = execute(&s, UnitCosts::equal()).unwrap_err();
        match err {
            chimera_core::unit_time::ExecError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), a.blocked.len());
                for (dynamic, stat) in blocked.iter().zip(&a.blocked) {
                    assert_eq!(dynamic.worker.0, stat.worker);
                    assert_eq!(dynamic.op_index, stat.op_index);
                }
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn dropped_forward_reports_missing_producer() {
        let mut s = gpipe(2, 2);
        // Remove F(m1) on worker 0: worker 1's F(m1)@s1 can never run.
        s.workers[0].remove(1);
        let a = analyze(&s);
        assert!(a.deadlock);
        assert!(a.diagnostics.iter().any(|d| d.code == "missing_producer"));
    }

    #[test]
    fn self_wait_is_a_cycle_of_one() {
        // A worker whose backward precedes its own forward waits on itself.
        let mut s = gpipe(2, 1);
        s.workers[1].swap(0, 1); // B(m0)@s1 before F(m0)@s1
        let a = analyze(&s);
        assert!(a.deadlock);
        let cyc = a
            .diagnostics
            .iter()
            .find(|d| d.code == "deadlock_cycle")
            .expect("cycle diagnostic");
        assert_eq!(cyc.locations.len(), 1);
        assert_eq!(cyc.locations[0].worker, 1);
    }
}
