//! Op readiness: the one statement of which dependencies an op has and
//! whether they are satisfied.
//!
//! The in-order executor ([`crate::unit_time`]), the work-conserving
//! compactor ([`crate::compact`]) and the static deadlock diagnosis in
//! `chimera-verify` all ask the same question: given what has already
//! executed, is an op ready — and if so at which tick, if not on what is it
//! waiting? This module owns the answer.

use std::collections::HashMap;
use std::ops::ControlFlow;

use crate::ids::{MicroId, ReplicaId, StageId, WorkerId};
use crate::op::{Chunk, Op, OpKind};
use crate::placement::Placement;
use crate::unit_time::CostProvider;

type FwdKey = (MicroId, StageId, ReplicaId);
type BwdKey = (MicroId, StageId, ReplicaId, u8); // 0/1 = half chunk, 2 = full

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
    fwd_finish: HashMap<FwdKey, u64>,
    bwd_finish: HashMap<BwdKey, u64>,
    /// Per stage: launch finish times, grouped by allreduce instance.
    ar_launches: HashMap<StageId, Vec<Vec<u64>>>,
    /// Completion time of each fully-launched allreduce instance.
    ar_complete: HashMap<(StageId, usize), u64>,
    /// Per worker: when its communication resource frees up. Collectives
    /// sharing a participant serialize (one progress engine per process, as
    /// in GLOO), which is what makes eager launching (§3.2) pay off.
    comm_busy: Vec<u64>,
    launch_count: HashMap<(WorkerId, StageId), usize>,
    wait_count: HashMap<(WorkerId, StageId), usize>,
}

impl DepTracker {
    pub(crate) fn new(d: u32, placement: &Placement) -> Self {
        DepTracker {
            d,
            placement: placement.clone(),
            fwd_finish: HashMap::new(),
            bwd_finish: HashMap::new(),
            ar_launches: HashMap::new(),
            ar_complete: HashMap::new(),
            comm_busy: vec![0; d as usize],
            launch_count: HashMap::new(),
            wait_count: HashMap::new(),
        }
    }

    /// Whether the half-`h` backward of `(m, s, r)` has executed.
    pub fn bwd_half_done(&self, m: MicroId, s: StageId, r: ReplicaId, h: u8) -> bool {
        self.bwd_finish.contains_key(&(m, s, r, h))
    }

    /// Allreduce launches of `stage` worker `w` has executed; its next
    /// launch feeds the instance of that index.
    pub fn launches(&self, w: WorkerId, stage: StageId) -> usize {
        *self.launch_count.get(&(w, stage)).unwrap_or(&0)
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
                let inst = *self.wait_count.get(&(w, op.stage)).unwrap_or(&0);
                visit(Need::Ar(op.stage, inst))?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Tick at which `need` was satisfied, or `None` if it is not yet.
    fn done_at(&self, need: &Need) -> Option<u64> {
        match *need {
            Need::Fwd(m, s, r) => self.fwd_finish.get(&(m, s, r)).copied(),
            Need::Bwd(m, s, r, Chunk::Half(h)) => self
                .bwd_finish
                .get(&(m, s, r, h))
                .or_else(|| self.bwd_finish.get(&(m, s, r, 2)))
                .copied(),
            Need::Bwd(m, s, r, _) => self.bwd_finish.get(&(m, s, r, 2)).copied().or_else(|| {
                let h0 = self.bwd_finish.get(&(m, s, r, 0))?;
                let h1 = self.bwd_finish.get(&(m, s, r, 1))?;
                Some((*h0).max(*h1))
            }),
            Need::Ar(stage, inst) => self.ar_complete.get(&(stage, inst)).copied(),
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
                    self.fwd_finish.insert((m, op.stage, op.replica), finish);
                }
            }
            OpKind::Backward { .. } => {
                let tag = match op.chunk {
                    Chunk::Half(h) => h,
                    _ => 2,
                };
                for m in op.covered_micros() {
                    self.bwd_finish
                        .insert((m, op.stage, op.replica, tag), finish);
                }
            }
            OpKind::AllReduceLaunch => {
                let count = self.launch_count.entry((w, op.stage)).or_insert(0);
                let inst = *count;
                *count += 1;
                let slots = self.ar_launches.entry(op.stage).or_default();
                while slots.len() <= inst {
                    slots.push(Vec::new());
                }
                slots[inst].push(finish);
                // Once every replica of the stage has launched, schedule the
                // collective on the participants' shared communication
                // resource (collectives on one worker serialize).
                let expected = self.placement.replicas() as usize;
                if slots[inst].len() == expected {
                    let holders = self.placement.stage_holders(op.stage);
                    let mut start = slots[inst].iter().copied().max().unwrap_or(0);
                    for h in &holders {
                        start = start.max(self.comm_busy[h.idx()]);
                    }
                    let complete = start + costs.allreduce_duration(op.stage);
                    for h in &holders {
                        self.comm_busy[h.idx()] = complete;
                    }
                    self.ar_complete.insert((op.stage, inst), complete);
                }
            }
            OpKind::AllReduceWait => {
                *self.wait_count.entry((w, op.stage)).or_insert(0) += 1;
            }
        }
    }
}
