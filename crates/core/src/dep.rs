//! Op readiness: the one statement of which dependencies an op has and
//! whether they are satisfied.
//!
//! The in-order executor ([`crate::unit_time`]), the work-conserving
//! compactor ([`crate::compact`]) and the static deadlock diagnosis in
//! `chimera-verify` all ask the same question: given what has already
//! executed, is an op ready — and if so at which tick, if not on what is it
//! waiting? This module owns the answer.
//!
//! Every key the tracker is asked about is a small bounded index, so what
//! has executed lives in dense tables that grow on demand, with a sentinel tick
//! standing for "not executed":
//!
//! | table | indexed by | holds |
//! |---|---|---|
//! | `fwd` | `[replica][stage][micro]` | forward finish tick |
//! | `bwd` | `[replica][stage][3 * micro + tag]`, tag 0/1 = half chunk, 2 = full | backward finish tick |
//! | `ar` | `[stage][instance]` | launches gathered, latest launch, completion tick |
//! | `launch_count`, `wait_count` | `[worker][stage]` | allreduce ops the worker has executed |
//!
//! Nothing is sized by the caller: micro ids past `N` (the asynchronous
//! schemes' unrolled spans, `concat_iterations`) extend a row when they are
//! first recorded.

use std::ops::ControlFlow;

use crate::ids::{MicroId, ReplicaId, StageId, WorkerId};
use crate::op::{Chunk, Op, OpKind};
use crate::placement::Placement;
use crate::unit_time::CostProvider;

/// Finish tick of an op that has not executed.
const NEVER: u64 = u64::MAX;

/// `v[i]`, first extending `v` with `fill` up to `i`.
pub(crate) fn slot<T: Clone>(v: &mut Vec<T>, i: usize, fill: T) -> &mut T {
    if i >= v.len() {
        v.resize(i + 1, fill);
    }
    &mut v[i]
}

/// Finish ticks indexed `[replica][stage][slot]`.
#[derive(Default)]
struct FinishTable(Vec<Vec<Vec<u64>>>);

impl FinishTable {
    fn get(&self, r: ReplicaId, s: StageId, slot: usize) -> Option<u64> {
        let t = *self.0.get(r.idx())?.get(s.idx())?.get(slot)?;
        (t != NEVER).then_some(t)
    }

    fn set(&mut self, r: ReplicaId, s: StageId, i: usize, finish: u64) {
        let row = slot(slot(&mut self.0, r.idx(), Vec::new()), s.idx(), Vec::new());
        *slot(row, i, NEVER) = finish;
    }
}

/// Slot of a backward's finish tick in its `(replica, stage)` row.
fn bwd_slot(m: MicroId, tag: usize) -> usize {
    3 * m.idx() + tag
}

/// Tag of a half chunk (any nonzero index is the second half, as in the
/// communication lint).
fn half_tag(h: u8) -> usize {
    usize::from(h != 0)
}

const FULL_TAG: usize = 2;

/// One allreduce instance of a stage.
#[derive(Clone)]
struct Collective {
    /// Launches gathered so far.
    launched: u32,
    /// Latest launch finish among them.
    latest: u64,
    /// Completion tick once every replica has launched.
    complete: u64,
}

/// One dependency of an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    /// The forward output of `(micro, stage, replica)`.
    Fwd(MicroId, StageId, ReplicaId),
    /// The backward output (gradient) of `(micro, stage, replica)`, as much
    /// of it as a consumer of the given chunk reads.
    Bwd(MicroId, StageId, ReplicaId, Chunk),
    /// Completion of allreduce instance `.1` of the stage: every replica has
    /// launched it.
    Ar(StageId, usize),
}

impl std::fmt::Display for Need {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Need::Fwd(m, s, r) => write!(f, "forward of {m}@{s}/{r}"),
            Need::Bwd(m, s, r, _) => write!(f, "backward of {m}@{s}/{r}"),
            Need::Ar(s, inst) => write!(f, "allreduce instance {inst} of {s}"),
        }
    }
}

/// Tracks finished ops and derives dependency-ready times.
pub struct DepTracker {
    d: u32,
    placement: Placement,
    fwd: FinishTable,
    bwd: FinishTable,
    /// Per stage: its allreduce instances, in launch order.
    ar: Vec<Vec<Collective>>,
    /// Per worker: when its communication resource frees up. Collectives
    /// sharing a participant serialize (one progress engine per process, as
    /// in GLOO), which is what makes eager launching (§3.2) pay off.
    comm_busy: Vec<u64>,
    launch_count: Vec<Vec<usize>>,
    wait_count: Vec<Vec<usize>>,
}

/// `counts[worker][stage]`, zero where nothing was counted yet.
fn count(counts: &[Vec<usize>], w: WorkerId, stage: StageId) -> usize {
    counts
        .get(w.idx())
        .and_then(|per_stage| per_stage.get(stage.idx()))
        .copied()
        .unwrap_or(0)
}

impl DepTracker {
    pub(crate) fn new(d: u32, placement: &Placement) -> Self {
        DepTracker {
            d,
            placement: placement.clone(),
            fwd: FinishTable::default(),
            bwd: FinishTable::default(),
            ar: Vec::new(),
            comm_busy: vec![0; d as usize],
            launch_count: Vec::new(),
            wait_count: Vec::new(),
        }
    }

    /// Whether the half-`h` backward of `(m, s, r)` has executed.
    pub fn bwd_half_done(&self, m: MicroId, s: StageId, r: ReplicaId, h: u8) -> bool {
        self.bwd.get(r, s, bwd_slot(m, half_tag(h))).is_some()
    }

    /// Allreduce launches of `stage` worker `w` has executed; its next
    /// launch feeds the instance of that index.
    pub fn launches(&self, w: WorkerId, stage: StageId) -> usize {
        count(&self.launch_count, w, stage)
    }

    /// Visit the dependencies of `op` on worker `w`, in the order they are
    /// checked, until `visit` breaks.
    fn try_needs<B>(
        &self,
        w: WorkerId,
        op: &Op,
        mut visit: impl FnMut(Need) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        match op.kind {
            OpKind::Forward => {
                if let Some(prev) = op.stage.0.checked_sub(1) {
                    for m in op.covered_micros() {
                        visit(Need::Fwd(m, StageId(prev), op.replica))?;
                    }
                }
            }
            OpKind::Backward { .. } => {
                // The local forward must have stashed activations; every
                // stage but the last also reads the next stage's gradient.
                for m in op.covered_micros() {
                    visit(Need::Fwd(m, op.stage, op.replica))?;
                }
                if op.stage.0 + 1 < self.d {
                    for m in op.covered_micros() {
                        visit(Need::Bwd(m, StageId(op.stage.0 + 1), op.replica, op.chunk))?;
                    }
                }
            }
            OpKind::AllReduceLaunch => {}
            OpKind::AllReduceWait => {
                visit(Need::Ar(op.stage, count(&self.wait_count, w, op.stage)))?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Tick at which `need` was satisfied, or `None` if it is not yet.
    fn done_at(&self, need: &Need) -> Option<u64> {
        match *need {
            Need::Fwd(m, s, r) => self.fwd.get(r, s, m.idx()),
            Need::Bwd(m, s, r, Chunk::Half(h)) => self
                .bwd
                .get(r, s, bwd_slot(m, half_tag(h)))
                .or_else(|| self.bwd.get(r, s, bwd_slot(m, FULL_TAG))),
            Need::Bwd(m, s, r, _) => self.bwd.get(r, s, bwd_slot(m, FULL_TAG)).or_else(|| {
                let h0 = self.bwd.get(r, s, bwd_slot(m, 0))?;
                let h1 = self.bwd.get(r, s, bwd_slot(m, 1))?;
                Some(h0.max(h1))
            }),
            Need::Ar(stage, inst) => {
                let complete = self.ar.get(stage.idx())?.get(inst)?.complete;
                (complete != NEVER).then_some(complete)
            }
        }
    }

    /// The first dependency of `op` on worker `w` that has not executed yet,
    /// or `None` if the op is ready.
    pub fn first_unmet(&self, w: WorkerId, op: &Op) -> Option<Need> {
        self.try_needs(w, op, |need| match self.done_at(&need) {
            Some(_) => ControlFlow::Continue(()),
            None => ControlFlow::Break(need),
        })
        .break_value()
    }

    /// Earliest tick at which `op`'s dependencies are satisfied, or `None`
    /// if a dependency has not executed yet.
    pub(crate) fn ready_time<C: CostProvider>(
        &self,
        costs: &C,
        w: WorkerId,
        op: &Op,
    ) -> Option<u64> {
        let mut t = 0;
        let unmet = self.try_needs(w, op, |need| {
            let Some(done) = self.done_at(&need) else {
                return ControlFlow::Break(());
            };
            // Outputs of a neighbouring stage arrive over the interconnect.
            let hop = match need {
                Need::Fwd(_, s, r) | Need::Bwd(_, s, r, _) if s != op.stage => {
                    costs.p2p_delay(self.placement.worker(r, s), w, op)
                }
                _ => 0,
            };
            t = t.max(done + hop);
            ControlFlow::Continue(())
        });
        unmet.is_continue().then_some(t)
    }

    /// Record completion of `op` at `finish`.
    pub(crate) fn record<C: CostProvider>(&mut self, costs: &C, w: WorkerId, op: &Op, finish: u64) {
        match op.kind {
            OpKind::Forward => {
                for m in op.covered_micros() {
                    self.fwd.set(op.replica, op.stage, m.idx(), finish);
                }
            }
            OpKind::Backward { .. } => {
                let tag = match op.chunk {
                    Chunk::Half(h) => half_tag(h),
                    _ => FULL_TAG,
                };
                for m in op.covered_micros() {
                    self.bwd.set(op.replica, op.stage, bwd_slot(m, tag), finish);
                }
            }
            OpKind::AllReduceLaunch => {
                let launches = slot(
                    slot(&mut self.launch_count, w.idx(), Vec::new()),
                    op.stage.idx(),
                    0,
                );
                let inst = *launches;
                *launches += 1;
                let collective = slot(
                    slot(&mut self.ar, op.stage.idx(), Vec::new()),
                    inst,
                    Collective {
                        launched: 0,
                        latest: 0,
                        complete: NEVER,
                    },
                );
                collective.launched += 1;
                collective.latest = collective.latest.max(finish);
                // Once every replica of the stage has launched, schedule the
                // collective on the participants' shared communication
                // resource (collectives on one worker serialize).
                if collective.launched == self.placement.replicas() {
                    let holders = self.placement.stage_holders(op.stage);
                    let mut start = collective.latest;
                    for h in &holders {
                        start = start.max(self.comm_busy[h.idx()]);
                    }
                    let complete = start + costs.allreduce_duration(op.stage);
                    for h in &holders {
                        self.comm_busy[h.idx()] = complete;
                    }
                    collective.complete = complete;
                }
            }
            OpKind::AllReduceWait => {
                *slot(
                    slot(&mut self.wait_count, w.idx(), Vec::new()),
                    op.stage.idx(),
                    0,
                ) += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit_time::UnitCosts;

    /// Nothing tells the tracker how many micro-batches, replicas or stages
    /// to expect: an id far past anything seen extends the tables, and ids
    /// in between stay "not executed".
    #[test]
    fn tables_grow_on_demand() {
        let costs = UnitCosts {
            p2p: 3,
            ..UnitCosts::equal()
        };
        let mut deps = DepTracker::new(2, &Placement::linear(2));
        let (w0, w1) = (WorkerId(0), WorkerId(1));
        let far = MicroId(5000);
        deps.record(&costs, w0, &Op::forward(far, StageId(0), ReplicaId(0)), 7);
        let next = Op::forward(far, StageId(1), ReplicaId(0));
        assert_eq!(deps.ready_time(&costs, w1, &next), Some(7 + 3));
        let gap = Op::forward(MicroId(4999), StageId(1), ReplicaId(0));
        assert_eq!(deps.ready_time(&costs, w1, &gap), None);
        assert_eq!(
            deps.first_unmet(w1, &gap),
            Some(Need::Fwd(MicroId(4999), StageId(0), ReplicaId(0)))
        );
        // A replica and a worker the placement does not know: not executed,
        // nothing counted — not a panic.
        let stray = Op::forward(MicroId(0), StageId(1), ReplicaId(9));
        assert_eq!(deps.ready_time(&costs, w1, &stray), None);
        assert_eq!(deps.launches(WorkerId(40), StageId(1)), 0);
    }

    /// A full backward's consumer is satisfied by one full producer or by
    /// both halves (at the later of the two); a half's consumer by its own
    /// half or by a full producer.
    #[test]
    fn halves_and_full_backwards_compose() {
        let costs = UnitCosts::equal();
        let mut deps = DepTracker::new(2, &Placement::linear(2));
        let (m, r) = (MicroId(3), ReplicaId(0));
        let half = |h, s| Op {
            chunk: Chunk::Half(h),
            ..Op::backward(m, StageId(s), r)
        };
        deps.record(&costs, WorkerId(0), &Op::forward(m, StageId(0), r), 1);
        let full_consumer = Op::backward(m, StageId(0), r);
        deps.record(&costs, WorkerId(1), &half(1, 1), 9);
        assert!(deps.bwd_half_done(m, StageId(1), r, 1));
        assert!(!deps.bwd_half_done(m, StageId(1), r, 0));
        assert_eq!(deps.ready_time(&costs, WorkerId(0), &half(1, 0)), Some(9));
        assert_eq!(deps.ready_time(&costs, WorkerId(0), &half(0, 0)), None);
        assert_eq!(deps.ready_time(&costs, WorkerId(0), &full_consumer), None);
        deps.record(&costs, WorkerId(1), &half(0, 1), 12);
        assert_eq!(
            deps.ready_time(&costs, WorkerId(0), &full_consumer),
            Some(12)
        );
        let other = MicroId(4);
        deps.record(&costs, WorkerId(0), &Op::forward(other, StageId(0), r), 2);
        deps.record(&costs, WorkerId(1), &Op::backward(other, StageId(1), r), 20);
        let half_consumer = Op {
            micro: other,
            ..half(0, 0)
        };
        assert_eq!(
            deps.ready_time(&costs, WorkerId(0), &half_consumer),
            Some(20)
        );
    }
}
