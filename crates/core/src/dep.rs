//! Op readiness: the one statement of which dependencies an op has and
//! whether they are satisfied.
//!
//! The in-order executor ([`crate::unit_time`]), Chimera's private
//! work-conserving merge (`compact`, inside [`crate::chimera::chimera`]) and
//! the static deadlock diagnosis in `chimera-verify` all ask the same
//! question: given what has already executed, is an op ready — and if so at
//! which tick, if not on what is it waiting? This module owns the answer.
//!
//! Every key the tracker is asked about is a small bounded index, so what
//! has executed lives in flat tables, sized by one pass over the ops before
//! the first of them executes, with a sentinel tick standing for "not
//! executed":
//!
//! | table | indexed by | holds |
//! |---|---|---|
//! | `ticks` | `4 · ((replica · D + stage) · M + micro) + tag` | finish tick: tag 0 = forward, 1/2 = half backward, 3 = full backward |
//! | `ar` | `stage · L + instance` | launches gathered, latest launch, completion tick |
//! | `synced` | `worker · D + stage` | allreduce launches and waits the worker has executed |
//!
//! `M` is one past the last micro-batch an op covers (an unrolled span of
//! the asynchronous schemes just has a larger one) and `L` the most launches
//! one worker makes of one stage. The same pass refuses an op naming a
//! stage, replica or micro-batch outside the schedule, so no table is ever
//! indexed out of its bounds.

use std::ops::ControlFlow;

use crate::ids::{MicroId, ReplicaId, StageId, WorkerId};
use crate::op::{Chunk, Op, OpKind};
use crate::placement::Placement;
use crate::schedule::Schedule;
use crate::unit_time::{BlockedOp, CostProvider, ExecError};

/// Finish tick of an op that has not executed.
const NEVER: u64 = u64::MAX;

/// `ticks`' tag of a full (or paired) backward.
const FULL: usize = 3;

/// `ticks`' tag of a backward half (any nonzero index is the second half, as
/// in the communication lint).
fn half_tag(h: u8) -> usize {
    1 + usize::from(h != 0)
}

/// `ticks`' tag of a compute op.
fn tag(op: &Op) -> usize {
    match (op.kind, op.chunk) {
        (OpKind::Forward, _) => 0,
        (_, Chunk::Half(h)) => half_tag(h),
        _ => FULL,
    }
}

/// One allreduce instance of a stage.
#[derive(Clone, Copy, Default)]
struct Collective {
    /// Launches gathered so far.
    launched: u32,
    /// Latest launch finish among them.
    latest: u64,
    /// Completion tick once every replica has launched.
    complete: Option<u64>,
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

/// Per stage, the half-micros its forwards and its backwards cover.
pub(crate) type Coverage = Vec<[u64; 2]>;

/// Tracks finished ops and derives dependency-ready times.
pub struct DepTracker {
    d: u32,
    /// `M`: one past the last micro-batch any op covers.
    micros: u32,
    placement: Placement,
    ticks: Vec<u64>,
    /// `L`: the most launches one worker makes of one stage.
    rounds: usize,
    ar: Vec<Collective>,
    /// Per worker: when its communication resource frees up. Collectives
    /// sharing a participant serialize (one progress engine per process, as
    /// in GLOO), which is what makes eager launching (§3.2) pay off.
    comm_busy: Vec<u64>,
    synced: Vec<[usize; 2]>,
}

impl DepTracker {
    /// The tables for `ops` — `(worker, index in its list, op)` over
    /// `workers` op lists of a depth-`d` schedule of `n` micro-batches placed
    /// by `placement` — sized in one pass over them, which also counts each
    /// stage's [`Coverage`]. The first op naming a stage, replica or
    /// micro-batch outside the schedule is refused.
    pub(crate) fn sized<'a>(
        d: u32,
        n: u32,
        placement: &Placement,
        workers: usize,
        ops: impl IntoIterator<Item = (usize, usize, &'a Op)>,
    ) -> Result<(Self, Coverage), ExecError> {
        let (du, replicas, stages) = (d as usize, placement.replicas(), d.min(placement.d()));
        let (mut micros, mut covered) = (0, vec![[0u64; 2]; du]);
        let mut synced = vec![[0usize; 2]; workers * du];
        for (w, op_index, op) in ops {
            let end = op.micro.0 as u64 + if op.chunk == Chunk::Pair { 2 } else { 1 };
            let outside = op.stage.0 >= stages || op.replica.0 >= replicas;
            if outside || (op.is_compute() && end > n as u64) {
                let (worker, op) = (WorkerId(w as u32), op.to_string());
                return Err(ExecError::OutOfRange(BlockedOp {
                    worker,
                    op_index,
                    op,
                }));
            }
            let s = op.stage.idx();
            match op.kind {
                OpKind::AllReduceLaunch => synced[w * du + s][0] += 1,
                OpKind::AllReduceWait => {}
                _ => {
                    micros = micros.max(end as u32);
                    covered[s][usize::from(op.is_backward())] += op.chunk.half_micros() as u64;
                }
            }
        }
        let rounds = synced.iter().map(|c| c[0]).max().unwrap_or(0);
        synced.fill([0; 2]);
        let deps = DepTracker {
            d,
            micros,
            placement: placement.clone(),
            ticks: vec![NEVER; 4 * replicas as usize * du * micros as usize],
            rounds,
            ar: vec![Collective::default(); du * rounds],
            comm_busy: vec![0; placement.d() as usize],
            synced,
        };
        Ok((deps, covered))
    }

    /// [`DepTracker::sized`] for the ops of `schedule`.
    pub(crate) fn of(schedule: &Schedule) -> Result<(Self, Coverage), ExecError> {
        let ops = schedule.iter_ops().map(|(w, i, op)| (w.idx(), i, op));
        let (d, n, workers) = (schedule.d, schedule.n, schedule.num_workers());
        DepTracker::sized(d, n, &schedule.placement, workers, ops)
    }

    /// Index of `(replica, stage, micro)`'s forward in `ticks` — past the end
    /// for a replica the placement lacks.
    fn slot(&self, r: ReplicaId, s: StageId, m: MicroId) -> Option<usize> {
        let (d, micros) = (self.d as usize, self.micros as usize);
        (s.idx() < d && m.idx() < micros).then(|| 4 * ((r.idx() * d + s.idx()) * micros + m.idx()))
    }

    /// The finish tick of `(replica, stage, micro)`'s op of `tag`, if it ran.
    fn tick(&self, m: MicroId, s: StageId, r: ReplicaId, tag: usize) -> Option<u64> {
        let tick = *self.ticks.get(self.slot(r, s, m)? + tag)?;
        (tick != NEVER).then_some(tick)
    }

    /// `M`: one past the last micro-batch any op covers.
    pub(crate) fn micros(&self) -> usize {
        self.micros as usize
    }

    /// Whether the half-`h` backward of `(m, s, r)` has executed.
    pub fn bwd_half_done(&self, m: MicroId, s: StageId, r: ReplicaId, h: u8) -> bool {
        self.tick(m, s, r, half_tag(h)).is_some()
    }

    /// Allreduce launches and waits of `stage` worker `w` has executed; its
    /// next launch feeds the instance of the first, its next wait waits for
    /// the instance of the second.
    fn synced(&self, w: WorkerId, stage: StageId) -> [usize; 2] {
        let d = self.d as usize;
        let at = (stage.idx() < d).then(|| w.idx() * d + stage.idx());
        at.and_then(|i| self.synced.get(i))
            .copied()
            .unwrap_or([0; 2])
    }

    /// Allreduce launches of `stage` worker `w` has executed; its next
    /// launch feeds the instance of that index.
    pub fn launches(&self, w: WorkerId, stage: StageId) -> usize {
        self.synced(w, stage)[0]
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
                visit(Need::Ar(op.stage, self.synced(w, op.stage)[1]))?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Tick at which `need` was satisfied, or `None` if it is not yet.
    fn done_at(&self, need: &Need) -> Option<u64> {
        match *need {
            Need::Fwd(m, s, r) => self.tick(m, s, r, 0),
            Need::Bwd(m, s, r, Chunk::Half(h)) => {
                (self.tick(m, s, r, half_tag(h))).or_else(|| self.tick(m, s, r, FULL))
            }
            Need::Bwd(m, s, r, _) => (self.tick(m, s, r, FULL))
                .or_else(|| Some(self.tick(m, s, r, 1)?.max(self.tick(m, s, r, 2)?))),
            Need::Ar(stage, inst) => {
                let at = (inst < self.rounds).then(|| stage.idx() * self.rounds + inst);
                self.ar.get(at?)?.complete
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
        // Outputs of a neighbouring stage arrive over the interconnect, all
        // of an op's from the one worker holding that stage: one hop per op.
        let (mut local, mut remote, mut from) = (0, None, op.stage);
        let unmet = self.try_needs(w, op, |need| {
            let Some(done) = self.done_at(&need) else {
                return ControlFlow::Break(());
            };
            match need {
                Need::Fwd(_, s, _) | Need::Bwd(_, s, _, _) if s != op.stage => {
                    (remote, from) = (remote.max(Some(done)), s);
                }
                _ => local = local.max(done),
            }
            ControlFlow::Continue(())
        });
        let hop = |t| t + costs.p2p_delay(self.placement.worker(op.replica, from), w, op);
        unmet
            .is_continue()
            .then(|| remote.map_or(local, |t| local.max(hop(t))))
    }

    /// Record completion of `op` at `finish`.
    pub(crate) fn record<C: CostProvider>(&mut self, costs: &C, w: WorkerId, op: &Op, finish: u64) {
        let (d, s) = (self.d as usize, op.stage.idx());
        match op.kind {
            OpKind::Forward | OpKind::Backward { .. } => {
                for m in op.covered_micros() {
                    let at = self.slot(op.replica, op.stage, m).expect("sized") + tag(op);
                    self.ticks[at] = finish;
                }
            }
            OpKind::AllReduceLaunch => {
                let launches = &mut self.synced[w.idx() * d + s][0];
                let c = &mut self.ar[s * self.rounds + *launches];
                *launches += 1;
                c.launched += 1;
                c.latest = c.latest.max(finish);
                // Once every replica of the stage has launched, schedule the
                // collective on its holders' shared communication resource
                // (collectives on one worker serialize). A worker holding
                // two replicas is visited twice, to the same effect.
                let replicas = self.placement.replicas();
                if c.launched == replicas {
                    let holders =
                        (0..replicas).map(|r| self.placement.worker(ReplicaId(r), op.stage).idx());
                    let start = (holders.clone()).fold(c.latest, |t, h| t.max(self.comm_busy[h]));
                    let complete = start + costs.allreduce_duration(op.stage);
                    c.complete = Some(complete);
                    holders.for_each(|h| self.comm_busy[h] = complete);
                }
            }
            OpKind::AllReduceWait => self.synced[w.idx() * d + s][1] += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit_time::UnitCosts;

    /// A tracker for `ops`, all listed on worker 0 of two.
    fn tracker(d: u32, placement: &Placement, ops: &[Op]) -> DepTracker {
        let ops = ops.iter().map(|op| (0, 0, op));
        DepTracker::sized(d, u32::MAX, placement, 2, ops).unwrap().0
    }

    /// The ops size the tables: a micro-batch far past anything else gets
    /// its row, ids in between stay "not executed", and ids no op names are
    /// not executed either — not a panic.
    #[test]
    fn tables_are_sized_by_the_ops() {
        let costs = UnitCosts {
            p2p: 3,
            ..UnitCosts::equal()
        };
        let (w0, w1) = (WorkerId(0), WorkerId(1));
        let far = MicroId(5000);
        let first = Op::forward(far, StageId(0), ReplicaId(0));
        let next = Op::forward(far, StageId(1), ReplicaId(0));
        let mut deps = tracker(2, &Placement::linear(2), &[first, next]);
        deps.record(&costs, w0, &first, 7);
        assert_eq!(deps.ready_time(&costs, w1, &next), Some(7 + 3));
        let gap = Op::forward(MicroId(4999), StageId(1), ReplicaId(0));
        assert_eq!(deps.ready_time(&costs, w1, &gap), None);
        assert_eq!(
            deps.first_unmet(w1, &gap),
            Some(Need::Fwd(MicroId(4999), StageId(0), ReplicaId(0)))
        );
        let stray = Op::forward(MicroId(0), StageId(1), ReplicaId(9));
        assert_eq!(deps.ready_time(&costs, w1, &stray), None);
        assert_eq!(deps.launches(WorkerId(40), StageId(1)), 0);
        assert!(!deps.bwd_half_done(MicroId(9000), StageId(7), ReplicaId(0), 1));
    }

    /// The sizing pass refuses what no table could hold, naming the op.
    #[test]
    fn ids_outside_the_schedule_are_refused() {
        let placement = Placement::linear(2);
        let fine = Op::forward(MicroId(1), StageId(1), ReplicaId(0));
        for bad in [
            Op::forward(MicroId(0), StageId(2), ReplicaId(0)),
            Op::forward(MicroId(0), StageId(0), ReplicaId(1)),
            Op::forward(MicroId(2), StageId(0), ReplicaId(0)),
            Op {
                chunk: Chunk::Pair,
                ..fine
            },
            Op::allreduce_launch(StageId(5), ReplicaId(0)),
        ] {
            let ops = [(1, 0, &fine), (1, 1, &bad)];
            let err = DepTracker::sized(2, 2, &placement, 2, ops).err();
            let (worker, op_index, op) = (WorkerId(1), 1, bad.to_string());
            let expected = ExecError::OutOfRange(BlockedOp {
                worker,
                op_index,
                op,
            });
            assert_eq!(err, Some(expected), "{bad}");
        }
    }

    /// A full backward's consumer is satisfied by one full producer or by
    /// both halves (at the later of the two); a half's consumer by its own
    /// half or by a full producer.
    #[test]
    fn halves_and_full_backwards_compose() {
        let costs = UnitCosts::equal();
        let (m, r) = (MicroId(3), ReplicaId(0));
        let half = |h, s| Op {
            chunk: Chunk::Half(h),
            ..Op::backward(m, StageId(s), r)
        };
        let other = MicroId(4);
        let mut deps = tracker(
            2,
            &Placement::linear(2),
            &[Op::forward(other, StageId(0), r)],
        );
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
