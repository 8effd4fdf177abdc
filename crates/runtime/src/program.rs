//! Lowering: `Schedule → Program`, once per training run.
//!
//! A [`Schedule`] says *what* each worker does, as ops naming a
//! `(replica, stage, micro)`. A [`Program`] says *where* everything an op
//! touches lives: one flat [`Row`] per op carrying indices into the worker's
//! dense tables — which held stage, which stash slot, which reducer, which
//! weight-version slot, which peer and message — plus its trace name, so
//! [`crate::worker::Worker`] executes rows by slice indexing and resolves
//! nothing per op. Schedules without explicit allreduce ops get their
//! post-hoc synchronization as trailing launch/wait rows, so the worker has
//! one loop.
//!
//! Lowering is also the runtime's front door: every shape it cannot execute
//! — a chunked op, an op on a `(replica, stage)` its worker does not hold, a
//! backward whose forward ran elsewhere, a forward nobody back-propagates, an
//! allreduce wait nothing launched, a boundary message with no counterpart
//! on the peer — is a [`TrainError::UnsupportedSchedule`] naming the op,
//! returned before any thread exists that could panic on it or leave its
//! peers to time out.

use chimera_comm::MsgKey;
use chimera_core::op::{Chunk, Op, OpKind};
use chimera_core::schedule::Schedule;
use chimera_core::{StageId, WorkerId};
use chimera_trace::SpanKind;

use crate::error::TrainError;

/// What a row does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowKind {
    Forward,
    Backward,
    /// Deposit the held stage's pending gradients with its reducer.
    Launch,
    /// Fetch the reduced gradient and step the held stage's parameters.
    Wait,
}

/// A boundary message's key minus the micro-batch, which the iteration
/// supplies: the schedule names micros `0..N`, the wire carries global ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct KeyTemplate {
    pub grad: bool,
    pub replica: u32,
    pub stage: u32,
}

impl KeyTemplate {
    pub fn at(self, micro: u64) -> MsgKey {
        let KeyTemplate {
            grad,
            replica,
            stage,
        } = self;
        if grad {
            MsgKey::Grad {
                replica,
                stage,
                micro,
            }
        } else {
            MsgKey::Act {
                replica,
                stage,
                micro,
            }
        }
    }
}

/// One op of one worker, lowered.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub kind: RowKind,
    /// Index into [`Program::held`] (and the worker's parallel tables).
    pub held: usize,
    /// Schedule-local micro-batch of a compute row.
    pub micro: u32,
    /// Where a forward leaves its stash and its backward finds it.
    pub stash_slot: usize,
    /// Forward of a stage whose backward recomputes: stash the boundary only.
    pub boundary_only: bool,
    /// Boundary tensor to wait for first: `(local peer, key)`.
    pub recv: Option<(u32, KeyTemplate)>,
    /// Boundary tensor to ship afterwards: `(local peer, key)`.
    pub send: Option<(u32, KeyTemplate)>,
    /// Index into [`Program::reducer_stages`] (sync rows).
    pub reducer: usize,
    /// Non-flushing schedules only. On a wait: the slot the parameters about
    /// to be overwritten are copied to, because an in-flight micro-batch
    /// still needs them. On a backward: the slot of the superseded version
    /// its forward read (`None`: the live parameters are that version).
    pub version_slot: Option<usize>,
    /// A backward holding the last reference to its `version_slot`.
    pub frees_version: bool,
    /// Position in the schedule's op list (what memory reports call the op);
    /// implicit rows all sit one past the end.
    pub op_ix: usize,
    /// `None` on the implicit post-hoc rows, which share one span.
    pub span: Option<SpanKind>,
    /// The op's schedule rendering, e.g. `F3@s2/r1`.
    pub name: String,
}

impl Row {
    pub fn is_compute(&self) -> bool {
        matches!(self.kind, RowKind::Forward | RowKind::Backward)
    }
}

/// One worker's schedule, lowered. Identical for every data-parallel group.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    /// Pipeline depth `D` of the schedule.
    pub d: u32,
    /// Micro-batches per iteration `N` of the schedule.
    pub n: u32,
    pub rows: Vec<Row>,
    /// `(replica, stage)` pairs this worker holds, ascending.
    pub held: Vec<(u32, u32)>,
    /// Distinct held stages, ascending: one allreduce group each.
    pub reducer_stages: Vec<u32>,
    pub stash_slots: usize,
    pub version_slots: usize,
    /// First implicit post-hoc row (`rows.len()` when sync is explicit).
    pub implicit_from: usize,
    /// Pool pre-sizing from the liveness plan: `(size class, extra spares)`.
    pub pool_plan: Vec<(usize, usize)>,
}

/// Slot allocator for one linear scan over program order: a new index only
/// when no freed one is left, so the count is the peak of live buffers.
#[derive(Default)]
struct Slots {
    free: Vec<usize>,
    count: usize,
}

impl Slots {
    fn take(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            self.count += 1;
            self.count - 1
        })
    }

    fn give(&mut self, slot: usize) {
        self.free.push(slot);
    }
}

/// A forward's stash until its backward consumes it.
struct OpenStash {
    held: usize,
    micro: u32,
    slot: usize,
    /// Weight version the forward read.
    version: u64,
    forward_ix: usize,
}

/// Copy-on-update weight versions of one held stage, walked statically (the
/// runtime twin of `chimera_verify::liveness`'s version model): a forward
/// reads the current version; the update that would overwrite a version some
/// in-flight micro still needs parks one copy of it in a slot, freed by the
/// last backward that reads it.
#[derive(Default)]
struct Versions {
    current: u64,
    current_refs: u32,
    /// Superseded versions still referenced: `(version, slot, refs)`.
    parked: Vec<(u64, usize, u32)>,
}

fn unsupported(worker: usize, op: String, reason: &'static str) -> TrainError {
    TrainError::UnsupportedSchedule {
        worker: worker as u32,
        op,
        reason,
    }
}

/// Lower one worker's op list. `Err` carries the offending op's index and why.
fn lower_worker(sched: &Schedule, w: usize) -> Result<Program, (usize, &'static str)> {
    let d = sched.d;
    let ops = &sched.workers[w];
    let held: Vec<(u32, u32)> = sched
        .placement
        .held_by(WorkerId(w as u32))
        .into_iter()
        .map(|(r, s)| (r.0, s.0))
        .collect();
    let mut reducer_stages: Vec<u32> = held.iter().map(|&(_, s)| s).collect();
    reducer_stages.sort_unstable();
    reducer_stages.dedup();
    let held_ix = |op: &Op| held.binary_search(&(op.replica.0, op.stage.0)).ok();

    // A row with nothing to receive, send, stash or park; `span` stays `None`
    // only on the implicit rows.
    let blank_row = |kind, h: usize, op_ix, name| Row {
        kind,
        held: h,
        micro: 0,
        stash_slot: 0,
        boundary_only: false,
        recv: None,
        send: None,
        reducer: reducer_stages
            .binary_search(&held[h].1)
            .expect("every held stage has a reducer"),
        version_slot: None,
        frees_version: false,
        op_ix,
        span: None,
        name,
    };

    let recomputes: Vec<bool> = held
        .iter()
        .map(|&(r, s)| {
            ops.iter()
                .any(|o| o.recomputes() && (o.replica.0, o.stage.0) == (r, s))
        })
        .collect();

    let mut rows = Vec::with_capacity(ops.len() + 2 * held.len());
    let mut stash = Slots::default();
    let mut open: Vec<OpenStash> = Vec::new();
    // Only schedules that update mid-stream keep old weight versions alive.
    let versioned = !sched.flushes;
    let mut version_slots = Slots::default();
    let mut versions: Vec<Versions> = held.iter().map(|_| Versions::default()).collect();
    // Per held stage: launches not yet waited for, and whether any was seen.
    let mut in_flight = vec![0u32; held.len()];
    let mut synced = vec![false; held.len()];

    for (i, op) in ops.iter().enumerate() {
        if op.chunk != Chunk::Full {
            return Err((
                i,
                "only full-micro chunks are lowered, not forward-doubling pairs or \
                 backward-halving halves",
            ));
        }
        let Some(h) = held_ix(op) else {
            return Err((
                i,
                if op.is_compute() {
                    "this worker does not hold the op's (replica, stage)"
                } else {
                    "this worker holds no replica of the stage, so it has no reducer for it"
                },
            ));
        };
        let (r, s) = held[h];
        let peer = |stage: u32| sched.placement.worker(op.replica, StageId(stage)).0;
        let key = |grad, stage| KeyTemplate {
            grad,
            replica: r,
            stage,
        };
        let mut row = blank_row(RowKind::Forward, h, i, op.to_string());
        let v = &mut versions[h];
        match op.kind {
            OpKind::Forward => {
                if open.iter().any(|o| (o.held, o.micro) == (h, op.micro.0)) {
                    return Err((i, "forward repeats a micro-batch whose stash is still live"));
                }
                row.span = Some(SpanKind::Forward);
                row.micro = op.micro.0;
                row.stash_slot = stash.take();
                row.boundary_only = recomputes[h];
                row.recv = (s > 0).then(|| (peer(s - 1), key(false, s - 1)));
                row.send = (s + 1 < d).then(|| (peer(s + 1), key(false, s)));
                open.push(OpenStash {
                    held: h,
                    micro: op.micro.0,
                    slot: row.stash_slot,
                    version: v.current,
                    forward_ix: i,
                });
                v.current_refs += 1;
            }
            OpKind::Backward { recompute } => {
                let Some(at) = open
                    .iter()
                    .position(|o| (o.held, o.micro) == (h, op.micro.0))
                else {
                    return Err((i, "backward without a stashed forward on this worker"));
                };
                let OpenStash { slot, version, .. } = open.swap_remove(at);
                row.kind = RowKind::Backward;
                row.micro = op.micro.0;
                row.span = Some(if recompute {
                    SpanKind::Recompute
                } else {
                    SpanKind::Backward
                });
                row.stash_slot = slot;
                stash.give(slot);
                row.recv = (s + 1 < d).then(|| (peer(s + 1), key(true, s + 1)));
                row.send = (s > 0).then(|| (peer(s - 1), key(true, s)));
                if version == v.current {
                    v.current_refs -= 1;
                } else if versioned {
                    let at = v
                        .parked
                        .iter()
                        .position(|&(ver, ..)| ver == version)
                        .expect("a superseded version with readers was parked");
                    let (_, vslot, refs) = &mut v.parked[at];
                    row.version_slot = Some(*vslot);
                    *refs -= 1;
                    if *refs == 0 {
                        row.frees_version = true;
                        version_slots.give(*vslot);
                        v.parked.swap_remove(at);
                    }
                }
            }
            OpKind::AllReduceLaunch => {
                row.kind = RowKind::Launch;
                row.span = Some(SpanKind::AllReduceLaunch);
                in_flight[h] += 1;
                synced[h] = true;
            }
            OpKind::AllReduceWait => {
                if in_flight[h] == 0 {
                    return Err((i, "allreduce wait with no launch before it"));
                }
                in_flight[h] -= 1;
                row.kind = RowKind::Wait;
                row.span = Some(SpanKind::AllReduce);
                if versioned && v.current_refs > 0 {
                    let slot = version_slots.take();
                    row.version_slot = Some(slot);
                    v.parked.push((v.current, slot, v.current_refs));
                }
                v.current += 1;
                v.current_refs = 0;
            }
        }
        rows.push(row);
    }
    if let Some(at) = open.iter().map(|o| o.forward_ix).min() {
        return Err((at, "forward whose backward is not on this worker"));
    }
    if let Some(h) = in_flight.iter().position(|&n| n > 0) {
        let at = ops
            .iter()
            .rposition(|o| o.kind == OpKind::AllReduceLaunch && held_ix(o) == Some(h))
            .expect("an unmatched launch exists");
        return Err((at, "allreduce launch with no wait after it"));
    }

    // Held stages the schedule never synchronizes do so post-hoc: launch
    // everything, then wait — partner workers may hold the same stages in a
    // different order, so blocking per-stage reduces could deadlock.
    let implicit_from = rows.len();
    for kind in [RowKind::Launch, RowKind::Wait] {
        for h in (0..held.len()).filter(|&h| !synced[h]) {
            rows.push(blank_row(kind, h, ops.len(), String::new()));
        }
    }
    Ok(Program {
        d,
        n: sched.n,
        rows,
        held,
        reducer_stages,
        stash_slots: stash.count,
        version_slots: version_slots.count,
        implicit_from,
        pool_plan: Vec::new(),
    })
}

/// One end of a boundary message as the pairing check sorts it:
/// `(from, to, key, micro)`, then where it was lowered from.
type WireEnd = ((u32, u32, KeyTemplate, u32), (usize, usize));

/// Lower every worker of `sched`, or name the first op the runtime cannot
/// execute. Beyond the per-worker checks of [`lower_worker`], every boundary
/// receive must have exactly one matching send on the peer (and vice versa),
/// and the holders of a stage must agree on its allreduce rounds per
/// iteration — either mismatch would park a worker until its deadline.
pub(crate) fn lower(sched: &Schedule) -> Result<Vec<Program>, TrainError> {
    let op_at = |w: usize, i: usize| sched.workers[w][i].to_string();
    let programs = (0..sched.num_workers())
        .map(|w| lower_worker(sched, w).map_err(|(i, why)| unsupported(w, op_at(w, i), why)))
        .collect::<Result<Vec<_>, _>>()?;

    let (mut sends, mut recvs): (Vec<WireEnd>, Vec<WireEnd>) = (Vec::new(), Vec::new());
    for (w, p) in programs.iter().enumerate() {
        for row in &p.rows {
            if let Some((to, key)) = row.send {
                sends.push(((w as u32, to, key, row.micro), (w, row.op_ix)));
            }
            if let Some((from, key)) = row.recv {
                recvs.push(((from, w as u32, key, row.micro), (w, row.op_ix)));
            }
        }
    }
    sends.sort_unstable();
    recvs.sort_unstable();
    // Sorted alike, the two lists agree entry for entry or part at the first
    // message with one end only.
    let at = (sends.iter().zip(&recvs))
        .position(|(a, b)| a.0 != b.0)
        .unwrap_or(sends.len().min(recvs.len()));
    let lone = match (sends.get(at), recvs.get(at)) {
        (None, None) => None,
        (Some(a), Some(b)) if b.0 < a.0 => Some((b.1, false)),
        (Some(a), _) => Some((a.1, true)),
        (None, Some(b)) => Some((b.1, false)),
    };
    if let Some(((w, i), sent)) = lone {
        return Err(unsupported(
            w,
            op_at(w, i),
            if sent {
                "no op on the peer receives the boundary tensor it sends"
            } else {
                "no op on the peer sends the boundary tensor it waits for"
            },
        ));
    }

    for s in 0..sched.d {
        let rounds = |w: WorkerId| {
            let p = &programs[w.idx()];
            let launches = p.rows.iter().filter(|row| row.kind == RowKind::Launch);
            launches
                .filter(|row| p.reducer_stages[row.reducer] == s)
                .count()
        };
        let holders = sched.placement.stage_holders(StageId(s));
        if let Some(h) = holders.iter().find(|&&h| rounds(h) != rounds(holders[0])) {
            return Err(unsupported(
                h.idx(),
                format!("allreduce of stage {s}"),
                "the stage's holders disagree on its rounds per iteration",
            ));
        }
    }
    Ok(programs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_core::baselines::{dapple, pipedream};
    use chimera_core::chimera::{chimera, ChimeraConfig};
    use chimera_core::schedule::SyncStrategy;
    use chimera_core::sync::place_sync;
    use chimera_core::unit_time::UnitCosts;

    #[test]
    fn bare_chimera_gets_trailing_launches_then_waits() {
        let sched = chimera(&ChimeraConfig::new(2, 4)).unwrap();
        let programs = lower(&sched).unwrap();
        for (w, p) in programs.iter().enumerate() {
            assert_eq!(p.held.len(), 2);
            assert_eq!(p.implicit_from, sched.workers[w].len());
            let tail: Vec<(RowKind, usize)> = p.rows[p.implicit_from..]
                .iter()
                .map(|r| (r.kind, r.held))
                .collect();
            assert_eq!(
                tail,
                [
                    (RowKind::Launch, 0),
                    (RowKind::Launch, 1),
                    (RowKind::Wait, 0),
                    (RowKind::Wait, 1)
                ]
            );
            assert!(p.rows[p.implicit_from..]
                .iter()
                .all(|r| r.op_ix == sched.workers[w].len() && r.span.is_none()));
            // Two micros per replica, each forward before its backward.
            assert!(p.stash_slots >= 1 && p.stash_slots <= 4);
            assert_eq!(p.version_slots, 0);
        }
    }

    #[test]
    fn explicit_sync_adds_no_rows_and_names_come_from_the_ops() {
        let sched = place_sync(
            chimera(&ChimeraConfig::new(4, 4)).unwrap(),
            SyncStrategy::Eager,
            UnitCosts::practical(),
        );
        for (w, p) in lower(&sched).unwrap().iter().enumerate() {
            assert_eq!(p.rows.len(), sched.workers[w].len());
            assert_eq!(p.implicit_from, p.rows.len());
            for (row, op) in p.rows.iter().zip(&sched.workers[w]) {
                assert_eq!(row.name, op.to_string());
                assert!(row.span.is_some());
            }
        }
    }

    #[test]
    fn stash_slots_equal_the_peak_of_live_stashes() {
        // 1F1B at stage 0 of D = 4 keeps four micro-batches in flight.
        let programs = lower(&dapple(4, 8)).unwrap();
        assert_eq!(programs[0].stash_slots, 4);
        assert_eq!(programs[3].stash_slots, 1);
        for p in &programs {
            for row in p.rows.iter().filter(|r| r.is_compute()) {
                assert!(row.stash_slot < p.stash_slots);
            }
        }
    }

    /// Defects every worker's own op list hides: a micro-batch dropped whole
    /// from one worker leaves its neighbours' messages without counterparts;
    /// an allreduce round repeated on one holder leaves the other a round
    /// short. Both would otherwise surface as deadline expiries.
    #[test]
    fn cross_worker_mismatches_are_refused() {
        let reason = |sched: &Schedule| match lower(sched) {
            Err(TrainError::UnsupportedSchedule { reason, .. }) => reason,
            other => panic!("expected a refusal, got {:?}", other.map(|p| p.len())),
        };
        let mut sched = dapple(4, 4);
        sched.workers[1].retain(|op| op.micro.0 != 2);
        assert!(
            reason(&sched).contains("boundary tensor"),
            "{}",
            reason(&sched)
        );

        let mut sched = place_sync(
            chimera(&ChimeraConfig::new(2, 2)).unwrap(),
            SyncStrategy::Eager,
            UnitCosts::practical(),
        );
        let sync: Vec<Op> = (sched.workers[0].iter().copied())
            .filter(|op| !op.is_compute() && op.stage.0 == 0)
            .collect();
        assert_eq!(sync.len(), 2, "one launch, one wait");
        sched.workers[0].extend(sync);
        assert!(
            reason(&sched).contains("rounds per iteration"),
            "{}",
            reason(&sched)
        );
    }

    #[test]
    fn async_schedules_park_superseded_versions_in_slots() {
        let sched = pipedream(4, 8);
        assert!(!sched.flushes);
        let programs = lower(&sched).unwrap();
        // Stage 0 updates while later micro-batches are still in flight.
        let p = &programs[0];
        assert!(p.version_slots >= 1);
        let parked = p
            .rows
            .iter()
            .filter(|r| r.kind == RowKind::Wait && r.version_slot.is_some())
            .count();
        let freed = p.rows.iter().filter(|r| r.frees_version).count();
        assert!(parked > 0);
        assert_eq!(
            parked, freed,
            "every parked version is freed in the iteration"
        );
        // The last stage backpropagates at once: nothing to park.
        assert_eq!(programs[3].version_slots, 0);
    }
}
