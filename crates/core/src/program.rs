//! Lowering: `Schedule → Program`, the one program-order walk of a schedule.
//!
//! A [`Schedule`] says *what* each worker does, as ops naming a
//! `(replica, stage, micro)`. A [`Program`] says *where* everything an op
//! touches lives and *when it is born and dies*: one flat [`Row`] per op
//! carrying indices into the worker's dense tables — which held stage, which
//! stash slot each covered micro-batch uses and which halves of it the row
//! defines or kills, which weight-version slot an update parks the old
//! parameters in and which backward frees it, which reducer, which peer and
//! message. Schedules without explicit allreduce ops get their post-hoc
//! synchronization as trailing launch/wait rows.
//!
//! The rows are facts; consumers attach numbers or behaviour to them.
//! `chimera-verify`'s liveness pass *prices* them under a size model;
//! `chimera-runtime`'s worker *executes* them by slice indexing. Neither
//! walks the schedule again, so the verifier checks the model the worker runs.
//!
//! [`lower`] is total: any `Schedule` value in, rows plus a list of typed
//! [`Defect`]s — whatever makes the schedule not executable as written — out,
//! never a panic. The verifier turns defects into diagnostics; the runtime
//! refuses to spawn a worker while one exists.
//!
//! All walk state is dense — open stashes by `(held, micro)`, parked weight
//! versions by version number, boundary messages by `(direction, replica,
//! stage, micro)` — so lowering is linear in the ops even for GPipe, which
//! keeps all `N` stashes open at once.

use std::cell::Cell;

use crate::ids::{StageId, WorkerId};
use crate::op::{Chunk, Op, OpKind};
use crate::schedule::Schedule;

/// A boundary message's key minus the micro-batch, which the iteration
/// supplies: the schedule names micros `0..N`, the wire carries global ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct KeyTemplate {
    /// An output gradient travelling upstream (else an activation travelling
    /// downstream).
    pub grad: bool,
    /// Replica (directional pipeline) the tensor belongs to.
    pub replica: u32,
    /// Stage that *produces* the tensor.
    pub stage: u32,
}

/// One micro-batch a compute row covers (a [`Chunk::Pair`] row covers two).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Covered {
    /// Schedule-local micro-batch id.
    pub micro: u32,
    /// Where the micro-batch's forward leaves its stash and its backward
    /// finds it: an index below [`Program::stash_slots`].
    pub stash_slot: u32,
    /// Halves of the stash this row defines (bit `h` = half `h`).
    pub defines: u8,
    /// Halves of the stash dead after this row: what a backward consumes,
    /// or — on a defective schedule — what a forward overwrites.
    pub kills: u8,
    /// Non-flushing schedules, on a backward: the slot holding the superseded
    /// weight version the micro-batch's forward read (`None`: the live
    /// parameters are still that version).
    pub version_slot: Option<u32>,
    /// A backward holding the last reference to its `version_slot`.
    pub frees_version: bool,
}

/// One op of one worker, lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The op (an implicit row: the sync op it stands for).
    pub op: Op,
    /// Index into [`Program::held`] (and the consumer's parallel tables).
    pub held: u32,
    /// Per covered micro-batch; read through [`Row::covered`].
    pub micros: [Covered; 2],
    /// Forward of a stage whose backward recomputes: stash the boundary only.
    pub boundary_only: bool,
    /// Boundary tensor to wait for first: `(local peer, key)`.
    pub recv: Option<(u32, KeyTemplate)>,
    /// Boundary tensor to ship afterwards: `(local peer, key)`.
    pub send: Option<(u32, KeyTemplate)>,
    /// Index into [`Program::reducer_stages`].
    pub reducer: u32,
    /// Non-flushing schedules, on a wait: the slot the parameters about to
    /// be overwritten are copied to, because an in-flight micro-batch still
    /// needs them (copy-on-update).
    pub parks_version: Option<u32>,
    /// Position in the schedule's op list (what memory reports call the op);
    /// implicit rows all sit one past the end.
    pub op_ix: usize,
}

impl Row {
    /// The micro-batches a compute row covers; empty on sync rows.
    pub fn covered(&self) -> &[Covered] {
        let n = match (self.op.is_compute(), self.op.chunk) {
            (false, _) => 0,
            (true, Chunk::Pair) => 2,
            (true, _) => 1,
        };
        &self.micros[..n]
    }
}

/// One worker's schedule, lowered. Identical for every data-parallel group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The worker, by its rank in the pipeline group, whose op list this is.
    pub worker: u32,
    /// Pipeline depth `D` of the schedule.
    pub d: u32,
    /// Micro-batches per iteration `N` of the schedule.
    pub n: u32,
    /// Ops in the worker's schedule list (defective ones get no row).
    pub ops: usize,
    /// One row per executable op, in program order, then the implicit rows.
    pub rows: Vec<Row>,
    /// `(replica, stage)` pairs this worker holds, ascending.
    pub held: Vec<(u32, u32)>,
    /// Distinct held stages, ascending: one allreduce group each.
    pub reducer_stages: Vec<u32>,
    /// Peak number of simultaneously live stashes.
    pub stash_slots: usize,
    /// Peak number of simultaneously parked weight versions: with one live
    /// copy per entry of `held`, Table 2's "weights memory" column.
    pub version_slots: usize,
    /// Per entry of `held`: the half-micro backwards that make one
    /// iteration's gradient, which a launch must have behind it. Zero where
    /// no such count exists: the schedule does not flush, or the stage's
    /// backwards do not divide into the span's iterations.
    pub quota: Vec<u32>,
    /// First implicit post-hoc row (`rows.len()` when sync is explicit).
    pub implicit_from: usize,
}

/// Why a schedule is not executable as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefectKind {
    /// The worker lists or the placement do not match the schedule's `D`.
    Shape,
    /// The op names a stage, replica or micro-batch outside the schedule.
    OutOfRange,
    /// The op sits on a worker that does not hold its `(replica, stage)`.
    NotHeld,
    /// A forward re-defines a stash half whose previous buffer is still live.
    OverwrittenStash {
        /// Op index that defined the earliest clobbered half.
        def: usize,
    },
    /// A backward over a micro-batch with no live stash on this worker.
    UseBeforeDef,
    /// A backward over a half already freed while the other half is live.
    DoubleFree,
    /// A forward whose stash no backward on this worker consumes.
    UnconsumedStash,
    /// An allreduce wait with no launch in flight.
    WaitWithoutLaunch,
    /// An allreduce launch nothing waits for.
    LaunchWithoutWait,
    /// Flushing schedules: a round launched before the last backward of the
    /// iteration whose gradients it carries — the rest ride into the next
    /// round and the update is no longer the mini-batch's.
    PrematureSync,
    /// A boundary tensor is sent and no op on the peer receives it.
    LoneSend,
    /// A boundary tensor is waited for and no op on the peer sends it.
    LoneRecv,
    /// The holders of the launch's stage launch different numbers of rounds.
    RoundsDisagree,
}

impl DefectKind {
    /// Stable machine-readable name.
    pub fn code(self) -> &'static str {
        use DefectKind::*;
        match self {
            Shape => "malformed_schedule",
            OutOfRange => "id_out_of_range",
            NotHeld => "misplaced_op",
            OverwrittenStash { .. } => "overwritten_stash",
            UseBeforeDef => "use_before_def",
            DoubleFree => "double_free",
            UnconsumedStash => "unconsumed_stash",
            WaitWithoutLaunch | LaunchWithoutWait => "unbalanced_sync",
            PrematureSync => "premature_sync",
            LoneSend => "lone_send",
            LoneRecv => "lone_recv",
            RoundsDisagree => "sync_rounds_mismatch",
        }
    }

    /// What about the op cannot be executed.
    pub fn reason(self) -> &'static str {
        use DefectKind::*;
        match self {
            Shape => "the worker lists or the placement do not match the schedule's depth",
            OutOfRange => "the op names a stage, replica or micro-batch outside the schedule",
            NotHeld => "this worker does not hold the op's (replica, stage)",
            OverwrittenStash { .. } => "forward repeats a micro-batch whose stash is still live",
            UseBeforeDef => "backward without a stashed forward on this worker",
            DoubleFree => "backward frees a stash half that was already freed",
            UnconsumedStash => "forward whose backward is not on this worker",
            WaitWithoutLaunch => "allreduce wait with no launch before it",
            LaunchWithoutWait => "allreduce launch with no wait after it",
            PrematureSync => "allreduce launch before the last backward whose gradient it carries",
            LoneSend => "no op on the peer receives the boundary tensor it sends",
            LoneRecv => "no op on the peer sends the boundary tensor it waits for",
            RoundsDisagree => "the stage's holders disagree on its rounds per iteration",
        }
    }
}

/// One reason `sched.workers[worker][op_ix]` cannot be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Defect {
    /// Worker whose op list holds the op.
    pub worker: u32,
    /// Index of the op in that list ([`DefectKind::Shape`] names no op:
    /// `usize::MAX`).
    pub op_ix: usize,
    /// What is wrong.
    pub kind: DefectKind,
}

fn defect_at(worker: u32, op_ix: usize, kind: DefectKind) -> Defect {
    Defect {
        worker,
        op_ix,
        kind,
    }
}

/// [`lower`]'s result: every worker's rows, and what is wrong with them.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// One program per worker (none under a [`DefectKind::Shape`] defect).
    pub programs: Vec<Program>,
    /// Per worker in worker order — defects found at an op in op order, then
    /// those only the end of the list reveals — then the cross-worker ones.
    pub defects: Vec<Defect>,
}

/// Whether a defect is of the schedule's shape rather than its order: passes
/// that index tables by stage, replica or placement cannot run over it.
pub fn structural(defects: &[Defect]) -> bool {
    use DefectKind::{NotHeld, OutOfRange, Shape};
    let mut kinds = defects.iter().map(|d| d.kind);
    kinds.any(|kind| matches!(kind, Shape | OutOfRange | NotHeld))
}

/// Slot allocator for one linear scan over program order: a new index only
/// when no freed one is left, so the count is the peak of live buffers.
#[derive(Default)]
struct Slots {
    free: Vec<u32>,
    count: u32,
}

impl Slots {
    fn take(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.count += 1;
            self.count - 1
        })
    }

    fn give(&mut self, slot: u32) {
        self.free.push(slot);
    }
}

/// One micro-batch's stash on one held stage, from the forward that opens it
/// until the backward that kills its last half. `live == 0`: closed.
#[derive(Clone, Copy, Default)]
struct OpenStash {
    slot: u32,
    /// Live halves, bit `h` = half `h`.
    live: u8,
    /// Op index that defined each half.
    def: [usize; 2],
    /// Weight version the opening forward read.
    version: u32,
}

/// Copy-on-update weight versions of one held stage: a forward reads the
/// current version; the update that would overwrite a version some in-flight
/// micro-batch still needs parks one copy of it in a slot, freed by the last
/// backward that reads it.
#[derive(Default)]
struct Versions {
    /// Current version: the number of updates so far.
    current: u32,
    /// Open stashes whose forward read the current version.
    current_refs: u32,
    /// Per superseded version, by version number: `(slot, refs)` of its
    /// parked copy; `refs == 0` when nothing needed it (or no longer does).
    parked: Vec<(u32, u32)>,
}

/// Halves of a micro-batch an op with this chunk touches, bit `h` = half `h`.
pub fn half_mask(chunk: Chunk) -> u8 {
    match chunk {
        Chunk::Half(h) => 1 << h.min(1),
        Chunk::Full | Chunk::Pair => 0b11,
    }
}

/// The halves set in a [`Covered`] mask.
pub fn halves_in(mask: u8) -> impl Iterator<Item = usize> + Clone {
    (0..2).filter(move |b| mask >> b & 1 == 1)
}

/// Lower one worker's op list, appending what is wrong with it to `defects`.
fn lower_worker(sched: &Schedule, w: usize, iterations: u32, defects: &mut Vec<Defect>) -> Program {
    use DefectKind::*;
    let (d, n) = (sched.d, sched.n);
    let ops = &sched.workers[w];
    let worker = w as u32;
    let held: Vec<(u32, u32)> = (sched.placement.held_by(WorkerId(worker)).into_iter())
        .map(|(r, s)| (r.0, s.0))
        .collect();
    let mut reducer_stages: Vec<u32> = held.iter().map(|&(_, s)| s).collect();
    reducer_stages.sort_unstable();
    reducer_stages.dedup();
    // Out-of-range ids are simply not found; the micro-batch range is what
    // the dense stash table below additionally relies on.
    let held_ix = |op: &Op| {
        let last = op.micro.0 as u64 + u64::from(op.chunk == Chunk::Pair);
        if op.is_compute() && last >= n as u64 {
            return None;
        }
        held.binary_search(&(op.replica.0, op.stage.0)).ok()
    };
    let blank_row = |op: Op, h: usize, op_ix| Row {
        op,
        held: h as u32,
        micros: [Covered::default(); 2],
        boundary_only: false,
        recv: None,
        send: None,
        reducer: reducer_stages.binary_search(&held[h].1).expect("held") as u32,
        parks_version: None,
        op_ix,
    };

    // Per held stage: does its backward recompute, and how many half-micro
    // backwards make one iteration's gradient (flushing schedules only: an
    // asynchronous scheme synchronizes mid-stream by design).
    let mut recomputes = vec![false; held.len()];
    let mut quota = vec![0u32; held.len()];
    for op in ops.iter().filter(|op| op.is_backward()) {
        if let Some(h) = held_ix(op) {
            recomputes[h] |= op.recomputes();
            quota[h] += op.chunk.half_micros();
        }
    }
    let iterations = iterations.max(1);
    for q in &mut quota {
        let whole = sched.flushes && q.is_multiple_of(iterations);
        *q = if whole { *q / iterations } else { 0 };
    }

    let mut rows = Vec::with_capacity(ops.len() + 2 * held.len());
    let mut stash = Slots::default();
    let mut open = vec![OpenStash::default(); held.len() * n as usize];
    // Only schedules that update mid-stream keep old weight versions alive.
    let versioned = !sched.flushes;
    let mut version_slots = Slots::default();
    let mut versions: Vec<Versions> = held.iter().map(|_| Versions::default()).collect();
    // Per held stage: half-micro backwards run, launches seen, launches not
    // yet waited for and the last of them.
    let mut bwd_done = vec![0u32; held.len()];
    let mut launches = vec![0u32; held.len()];
    let mut in_flight = vec![0u32; held.len()];
    let mut last_launch = vec![0usize; held.len()];

    for (op_ix, op) in ops.iter().enumerate() {
        let mut defect = |kind| defects.push(defect_at(worker, op_ix, kind));
        let Some(h) = held_ix(op) else {
            let in_range = op.stage.0 < d
                && op.replica.0 < sched.placement.replicas()
                && (!op.is_compute() || op.covered_micros().all(|m| m.0 < n));
            defect(if in_range { NotHeld } else { OutOfRange });
            continue;
        };
        let (replica, s) = held[h];
        let peer = |stage: u32| sched.placement.worker(op.replica, StageId(stage)).0;
        let key = |grad, stage| KeyTemplate {
            grad,
            replica,
            stage,
        };
        let mut row = blank_row(*op, h, op_ix);
        let halves = half_mask(op.chunk);
        let v = &mut versions[h];
        match op.kind {
            OpKind::Forward => {
                row.boundary_only = recomputes[h];
                row.recv = (s > 0).then(|| (peer(s - 1), key(false, s - 1)));
                row.send = (s + 1 < d).then(|| (peer(s + 1), key(false, s)));
                for (cov, m) in row.micros.iter_mut().zip(op.covered_micros()) {
                    let e = &mut open[h * n as usize + m.idx()];
                    let clobbered = e.live & halves;
                    if clobbered != 0 {
                        let def = halves_in(clobbered).map(|b| e.def[b]).min();
                        defect(OverwrittenStash {
                            def: def.expect("a clobbered half"),
                        });
                    }
                    if e.live == 0 {
                        e.slot = stash.take();
                        e.version = v.current;
                        v.current_refs += 1;
                    }
                    for b in halves_in(halves) {
                        e.def[b] = op_ix;
                    }
                    e.live |= halves;
                    *cov = Covered {
                        micro: m.0,
                        stash_slot: e.slot,
                        defines: halves,
                        kills: clobbered,
                        ..Covered::default()
                    };
                }
            }
            OpKind::Backward { .. } => {
                row.recv = (s + 1 < d).then(|| (peer(s + 1), key(true, s + 1)));
                row.send = (s > 0).then(|| (peer(s - 1), key(true, s)));
                bwd_done[h] += op.chunk.half_micros();
                for (cov, m) in row.micros.iter_mut().zip(op.covered_micros()) {
                    cov.micro = m.0;
                    let e = &mut open[h * n as usize + m.idx()];
                    if e.live == 0 {
                        defect(UseBeforeDef);
                        continue;
                    }
                    if e.live & halves != halves {
                        defect(DoubleFree);
                    }
                    cov.stash_slot = e.slot;
                    cov.kills = e.live & halves;
                    e.live &= !halves;
                    // Every half's backward runs against the version the
                    // forward read; the one that closes the stash drops the
                    // reference.
                    let closes = e.live == 0;
                    if closes {
                        stash.give(e.slot);
                    }
                    if e.version == v.current {
                        v.current_refs -= u32::from(closes);
                    } else if versioned {
                        let (slot, refs) = &mut v.parked[e.version as usize];
                        cov.version_slot = Some(*slot);
                        *refs -= u32::from(closes);
                        if closes && *refs == 0 {
                            cov.frees_version = true;
                            version_slots.give(*slot);
                        }
                    }
                }
            }
            OpKind::AllReduceLaunch => {
                launches[h] += 1;
                in_flight[h] += 1;
                last_launch[h] = op_ix;
                if bwd_done[h] < launches[h].min(iterations) * quota[h] {
                    defect(PrematureSync);
                }
            }
            OpKind::AllReduceWait => {
                if in_flight[h] == 0 {
                    defect(WaitWithoutLaunch);
                }
                in_flight[h] = in_flight[h].saturating_sub(1);
                let parks = versioned && v.current_refs > 0;
                row.parks_version = parks.then(|| version_slots.take());
                let slot = row.parks_version.unwrap_or(0);
                v.parked.push((slot, v.current_refs));
                v.current += 1;
                v.current_refs = 0;
            }
        }
        rows.push(row);
    }

    let mut unconsumed: Vec<usize> = (open.iter().filter(|e| e.live != 0))
        .map(|e| e.def[e.live.trailing_zeros() as usize])
        .collect();
    unconsumed.sort_unstable();
    defects.extend((unconsumed.into_iter()).map(|at| defect_at(worker, at, UnconsumedStash)));
    let unwaited = (0..held.len()).filter(|&h| in_flight[h] > 0);
    defects.extend(unwaited.map(|h| defect_at(worker, last_launch[h], LaunchWithoutWait)));

    // Held stages the schedule never synchronizes do so post-hoc: launch
    // everything, then wait — partner workers may hold the same stages in a
    // different order, so blocking per-stage reduces could deadlock.
    let implicit_from = rows.len();
    for sync in [Op::allreduce_launch, Op::allreduce_wait] {
        for h in (0..held.len()).filter(|&h| launches[h] == 0) {
            let op = sync(StageId(held[h].1), crate::ReplicaId(held[h].0));
            rows.push(blank_row(op, h, ops.len()));
        }
    }
    Program {
        worker,
        d,
        n,
        ops: ops.len(),
        rows,
        held,
        reducer_stages,
        stash_slots: stash.count as usize,
        version_slots: version_slots.count as usize,
        quota,
        implicit_from,
    }
}

/// [`Wire::count`]'s row for the end of a boundary tensor that ships it.
pub const SEND: usize = 0;
/// [`Wire::count`]'s row for the end that waits for it.
pub const RECV: usize = 1;

/// One half-message at one end of its wire: the op there, and its position
/// in its channel — among the half-messages the op's worker sends to
/// (receives from) the peer, in program order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct End {
    /// Index of the op in its worker's list.
    pub op: u32,
    /// Position in the channel.
    pub seq: u32,
}

/// One boundary tensor of one micro-batch, at both of its ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Wire {
    /// Per [`SEND`] / [`RECV`] end, per half: occurrences (saturating).
    /// Halves count apart, so a full producer may feed two half consumers.
    pub count: [[u8; 2]; 2],
    /// Per end, per half: the first occurrence.
    first: [[End; 2]; 2],
}

/// Both ends of every boundary tensor of a schedule, as lowering paired them
/// up: a [`Wire`] per `(direction, replica, producer stage, micro)`, in the
/// order of those keys. Rows exist only for ops on their placement worker, so
/// the key decides the worker at each end. Occurrences past an end's first
/// go to a side list: a schedule without duplicates allocates nothing per
/// message.
#[derive(Debug, Clone, Default)]
pub struct Wires {
    /// `(replicas, D, N)`.
    shape: (usize, usize, usize),
    wires: Vec<Wire>,
    /// `(4 · wire + 2 · end + half, occurrence)`, in that order once lowered.
    more: Vec<(usize, End)>,
}

impl Wires {
    /// Index of `key`'s wire for micro-batch 0; micro `m`'s is `m` past it.
    fn tensor(&self, key: KeyTemplate) -> usize {
        let (replicas, d, n) = self.shape;
        ((usize::from(key.grad) * replicas + key.replica as usize) * d + key.stage as usize) * n
    }

    /// Record the halves in `mask` of wire `at` at `end` from op `op`, the
    /// first at channel position `seq`; returns the position after them.
    #[inline(always)]
    fn add(&mut self, at: usize, end: usize, mask: u8, op: u32, mut seq: u32) -> u32 {
        let Wire { count, first } = &mut self.wires[at];
        if mask == 0b11 && count[end] == [0; 2] {
            // Both halves seen for the first time: one row per end, the rule.
            (count[end], first[end]) = ([1; 2], [End { op, seq }, End { op, seq: seq + 1 }]);
            return seq + 2;
        }
        for half in halves_in(mask) {
            match count[end][half] {
                0 => first[end][half] = End { op, seq },
                _ => self.more.push((4 * at + 2 * end + half, End { op, seq })),
            }
            count[end][half] = count[end][half].saturating_add(1);
            seq += 1;
        }
        seq
    }

    /// Every tensor in key order: its key, the index of its first wire, and
    /// its wires, one per micro-batch.
    pub fn tensors(&self) -> impl Iterator<Item = (KeyTemplate, usize, &[Wire])> {
        let (replicas, d, n) = self.shape;
        (self.wires.chunks(n.max(1)).enumerate()).map(move |(t, wires)| {
            let key = KeyTemplate {
                grad: t >= replicas * d,
                replica: (t / d % replicas) as u32,
                stage: (t % d) as u32,
            };
            (key, t * n, wires)
        })
    }

    /// Every occurrence of half `h` of wire `at` at `end`, in channel order.
    #[inline]
    pub fn ends(&self, at: usize, end: usize, h: usize) -> impl Iterator<Item = End> + Clone + '_ {
        let (wire, slot) = (&self.wires[at], 4 * at + 2 * end + h);
        let more = match wire.count[end][h] {
            0 | 1 => &[][..],
            _ => {
                let from = |slot| self.more.partition_point(|e| e.0 < slot);
                &self.more[from(slot)..from(slot + 1)]
            }
        };
        let first = (wire.count[end][h] > 0).then_some(wire.first[end][h]);
        first.into_iter().chain(more.iter().map(|e| e.1))
    }
}

/// Lower every worker of `sched`, a span of `iterations` training iterations
/// (1 for a schedule as generated; see `repeat::concat_iterations`), and
/// list everything that keeps it from being executed as written. Beyond the
/// per-worker discipline, every boundary receive must have exactly one
/// matching send on the peer (and vice versa), and the holders of a stage
/// must agree on its allreduce rounds — either mismatch would park a worker
/// until its deadline.
pub fn lower(sched: &Schedule, iterations: u32) -> Lowered {
    let mut programs = Vec::with_capacity(sched.workers.len());
    let (defects, _) = lower_each(sched, iterations, |program| programs.push(program));
    Lowered { programs, defects }
}

thread_local! {
    /// Schedules the thread has lowered: [`lowerings`].
    static LOWERINGS: Cell<u64> = const { Cell::new(0) };
}

/// How many schedules the calling thread has lowered so far ([`lower_each`]
/// calls, [`lower`]'s included): what a test reads to pin that a path prices
/// a schedule without reading its rows.
pub fn lowerings() -> u64 {
    LOWERINGS.with(Cell::get)
}

/// [`lower`], handing each worker's program to `each` in worker order as
/// soon as it is lowered instead of collecting them: a consumer that folds
/// the rows (the verifier pricing them) never holds more than one worker's.
/// Also returns the boundary tensors with both ends paired, each half-message
/// at its position in its channel: what the communication lint reads.
pub fn lower_each(
    sched: &Schedule,
    iterations: u32,
    mut each: impl FnMut(Program),
) -> (Vec<Defect>, Wires) {
    LOWERINGS.with(|n| n.set(n.get() + 1));
    let nw = sched.workers.len();
    let (d, n) = (sched.d as usize, sched.n as usize);
    if sched.placement.d() != sched.d || nw != d {
        // No worker can be lowered against a placement of another shape.
        let shape = defect_at(0, usize::MAX, DefectKind::Shape);
        return (vec![shape], Wires::default());
    }
    let mut defects = Vec::new();
    // Rows exist only for ops on their placement worker, so a message's key
    // and micro-batch determine the workers at both of its ends.
    let replicas = sched.placement.replicas() as usize;
    let mut wires = Wires {
        shape: (replicas, d, n),
        wires: vec![Wire::default(); 2 * replicas * d * n],
        more: Vec::new(),
    };
    // Rounds per stage as its first holder launches them, with that holder's
    // last launch; later holders must launch as many. Two holders that both
    // synchronize implicitly agree, so a disagreement has a launch op to name.
    let mut first: Vec<Option<(u32, Defect)>> = vec![None; d];
    let mut disagreeing = Vec::new();
    // Per peer, per end: the worker's half-messages so far, i.e. the next
    // one's position in its channel.
    let mut seq = vec![[0u32; 2]; d];
    for w in 0..nw {
        let p = lower_worker(sched, w, iterations, &mut defects);
        let implicit = p.ops;
        // Per reducer: launches the schedule states, and the op of the last
        // one. The trailing implicit rows are not rounds a partner's explicit
        // ops can pair with: the executor's collective never sees them.
        let mut rounds = vec![(0u32, implicit); p.reducer_stages.len()];
        seq.fill([0; 2]);
        for row in &p.rows[..p.implicit_from] {
            if row.op.kind == OpKind::AllReduceLaunch {
                let (count, at) = &mut rounds[row.reducer as usize];
                *count += 1;
                *at = row.op_ix;
            }
            for (end, tensor) in [(SEND, row.send), (RECV, row.recv)] {
                let Some((peer, key)) = tensor else {
                    continue;
                };
                let (seq, mask) = (&mut seq[peer as usize][end], half_mask(row.op.chunk));
                let tensor = wires.tensor(key);
                for cov in row.covered() {
                    let at = tensor + cov.micro as usize;
                    *seq = wires.add(at, end, mask, row.op_ix as u32, *seq);
                }
            }
        }
        for (&stage, (count, op_ix)) in p.reducer_stages.iter().zip(rounds) {
            let here = defect_at(w as u32, op_ix, DefectKind::RoundsDisagree);
            let (expected, there) = *first[stage as usize].get_or_insert((count, here));
            if count != expected {
                disagreeing.push(if op_ix < implicit { here } else { there });
            }
        }
        each(p);
    }
    wires.more.sort_by_key(|e| e.0);

    for (key, first, table) in wires.tensors() {
        let replica = crate::ReplicaId(key.replica);
        let worker_of = |stage| sched.placement.worker(replica, StageId(stage)).0;
        for (at, wire) in (first..).zip(table) {
            let [sent, received] = wire.count;
            // A lone end is named at its last op.
            let last = |end| {
                (0..2)
                    .flat_map(|h| wires.ends(at, end, h))
                    .map(|e| e.op)
                    .max()
            };
            let more = |a: [u8; 2], b: [u8; 2]| a[0] > b[0] || a[1] > b[1];
            if more(sent, received) {
                let at = last(SEND).expect("sent") as usize;
                defects.push(defect_at(worker_of(key.stage), at, DefectKind::LoneSend));
            }
            if more(received, sent) {
                let (consumer, at) = (key.stage + 1 - 2 * u32::from(key.grad), last(RECV));
                let at = at.expect("received") as usize;
                defects.push(defect_at(worker_of(consumer), at, DefectKind::LoneRecv));
            }
        }
    }
    defects.extend(disagreeing);
    (defects, wires)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{dapple, gems, gpipe, pipedream, pipedream_2bw};
    use crate::chimera::{chimera, ChimeraConfig, ScaleMethod};
    use crate::ids::{MicroId, ReplicaId};
    use crate::schedule::SyncStrategy;
    use crate::sync::place_sync;
    use crate::unit_time::{execute, UnitCosts};

    fn kinds(sched: &Schedule) -> Vec<DefectKind> {
        lower(sched, 1).defects.iter().map(|d| d.kind).collect()
    }

    fn chimera_scaled(d: u32, n: u32, f: u32, scale: ScaleMethod) -> Schedule {
        chimera(&ChimeraConfig { d, n, f, scale }).unwrap()
    }

    #[test]
    fn all_generators_lower_cleanly_and_execute() {
        for sched in [
            gpipe(4, 8),
            dapple(4, 8),
            gems(4, 8),
            pipedream(4, 4),
            pipedream_2bw(4, 8),
            chimera(&ChimeraConfig::new(4, 4)).unwrap(),
            chimera(&ChimeraConfig::new(8, 32)).unwrap(),
            chimera_scaled(8, 32, 2, ScaleMethod::ForwardDoubling),
            chimera_scaled(8, 32, 1, ScaleMethod::BackwardHalving),
        ] {
            assert_eq!(kinds(&sched), [], "{:?}", sched.scheme);
            execute(&sched, UnitCosts::equal()).unwrap();
        }
    }

    #[test]
    fn bare_chimera_gets_trailing_launches_then_waits() {
        let sched = chimera(&ChimeraConfig::new(2, 4)).unwrap();
        for (w, p) in lower(&sched, 1).programs.iter().enumerate() {
            assert_eq!(p.held.len(), 2);
            assert_eq!(p.implicit_from, sched.workers[w].len());
            let tail: Vec<(OpKind, u32)> = p.rows[p.implicit_from..]
                .iter()
                .map(|r| (r.op.kind, r.held))
                .collect();
            assert_eq!(
                tail,
                [
                    (OpKind::AllReduceLaunch, 0),
                    (OpKind::AllReduceLaunch, 1),
                    (OpKind::AllReduceWait, 0),
                    (OpKind::AllReduceWait, 1)
                ]
            );
            assert!(p.rows[p.implicit_from..]
                .iter()
                .all(|r| r.op_ix == sched.workers[w].len()));
            // Two micros per replica, each forward before its backward.
            assert!(p.stash_slots >= 1 && p.stash_slots <= 4);
            assert_eq!(p.version_slots, 0);
        }
    }

    #[test]
    fn explicit_sync_adds_no_rows_and_rows_carry_their_ops() {
        let sched = place_sync(
            chimera(&ChimeraConfig::new(4, 4)).unwrap(),
            SyncStrategy::Eager,
            UnitCosts::practical(),
        );
        for (w, p) in lower(&sched, 1).programs.iter().enumerate() {
            assert_eq!(p.rows.len(), sched.workers[w].len());
            assert_eq!(p.implicit_from, p.rows.len());
            for (row, op) in p.rows.iter().zip(&sched.workers[w]) {
                assert_eq!(row.op, *op);
            }
        }
    }

    #[test]
    fn stash_slots_equal_the_peak_of_live_stashes() {
        // 1F1B at stage 0 of D = 4 keeps four micro-batches in flight.
        let programs = lower(&dapple(4, 8), 1).programs;
        assert_eq!(programs[0].stash_slots, 4);
        assert_eq!(programs[3].stash_slots, 1);
        for p in &programs {
            for cov in p.rows.iter().flat_map(Row::covered) {
                assert!((cov.stash_slot as usize) < p.stash_slots);
            }
        }
    }

    /// A paired forward opens two stashes, each closed by its own backward;
    /// a halved backward kills one half at a time.
    #[test]
    fn rows_are_chunk_aware() {
        let doubling = chimera_scaled(4, 8, 1, ScaleMethod::ForwardDoubling);
        let programs = lower(&doubling, 1).programs;
        let pair = (programs[0].rows.iter())
            .find(|r| r.op.chunk == Chunk::Pair)
            .expect("doubling pairs its forwards");
        let [a, b] = pair.covered() else {
            panic!("a pair covers two micro-batches");
        };
        assert_eq!((a.micro + 1, a.defines, b.defines), (b.micro, 0b11, 0b11));
        assert_ne!(a.stash_slot, b.stash_slot);
        assert!(pair.boundary_only);

        let halving = chimera_scaled(4, 8, 1, ScaleMethod::BackwardHalving);
        let kills: Vec<u8> = (lower(&halving, 1).programs[0].rows.iter())
            .filter(|r| r.op.is_backward())
            .map(|r| r.covered()[0].kills)
            .collect();
        assert!(kills.contains(&0b01) && kills.contains(&0b10), "{kills:?}");
    }

    #[test]
    fn missing_backward_detected() {
        let mut s = gpipe(2, 2);
        // Drop the last backward on worker 1: its forward's stash is never
        // consumed, and worker 0's matching backward waits for nothing.
        let idx = s.workers[1].iter().rposition(Op::is_backward).unwrap();
        let dropped = s.workers[1].remove(idx);
        let defects = lower(&s, 1).defects;
        assert_eq!(
            defects[0],
            Defect {
                worker: 1,
                op_ix: dropped.micro.idx(),
                kind: DefectKind::UnconsumedStash,
            }
        );
        assert_eq!(defects[1].kind, DefectKind::LoneRecv);
        assert_eq!(defects.len(), 2);
    }

    #[test]
    fn premature_and_unbalanced_sync_detected() {
        let launch = Op::allreduce_launch(StageId(0), ReplicaId(0));
        let wait = Op::allreduce_wait(StageId(0), ReplicaId(0));
        // A launch before the backwards on worker 0 (worker 1 then syncs
        // implicitly, once: the rounds agree).
        let mut s = dapple(2, 2);
        s.workers[0].insert(0, launch);
        s.workers[0].push(wait);
        assert_eq!(kinds(&s), [DefectKind::PrematureSync]);
        // Asynchronous schemes synchronize mid-stream by design.
        s.flushes = false;
        assert_eq!(kinds(&s), []);

        let mut s = dapple(2, 2);
        s.workers[0].push(wait);
        s.workers[0].push(launch);
        assert_eq!(
            kinds(&s),
            [DefectKind::WaitWithoutLaunch, DefectKind::LaunchWithoutWait]
        );
    }

    /// A round per iteration of a span is on time; the same rounds in a
    /// schedule read as one iteration are early.
    #[test]
    fn premature_sync_is_judged_per_iteration_of_the_span() {
        let eager = place_sync(dapple(2, 2), SyncStrategy::Eager, UnitCosts::practical());
        let span = crate::repeat::concat_iterations(&eager, 2, false);
        assert_eq!(lower(&span, 2).defects, []);
        let early = lower(&span, 1).defects;
        assert_eq!(early.len(), 2, "the first round of each worker");
        assert!(early.iter().all(|d| d.kind == DefectKind::PrematureSync));
    }

    /// Defects every worker's own op list hides: a micro-batch dropped whole
    /// from one worker leaves its neighbours' messages without counterparts;
    /// an allreduce round repeated on one holder leaves the other a round
    /// short. Both would otherwise surface as deadline expiries.
    #[test]
    fn cross_worker_mismatches_are_named() {
        let mut sched = dapple(4, 4);
        sched.workers[1].retain(|op| op.micro.0 != 2);
        let lone = kinds(&sched);
        assert_eq!(lone.len(), 4, "{lone:?}");
        for kind in [DefectKind::LoneSend, DefectKind::LoneRecv] {
            assert_eq!(lone.iter().filter(|&&k| k == kind).count(), 2);
        }

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
        assert_eq!(
            lower(&sched, 1).defects,
            [Defect {
                worker: 1,
                op_ix: sched.workers[1]
                    .iter()
                    .position(|op| op.kind == OpKind::AllReduceLaunch && op.stage.0 == 0)
                    .unwrap(),
                kind: DefectKind::RoundsDisagree,
            }]
        );
    }

    /// A stage one holder synchronizes explicitly and its partner implicitly
    /// is refused at the explicit holder's last launch: the executor's
    /// collective waits for a launch op the partner's list does not have.
    #[test]
    fn mixed_explicit_and_implicit_sync_is_a_rounds_mismatch() {
        let eager = place_sync(
            chimera(&ChimeraConfig::new(4, 4)).unwrap(),
            SyncStrategy::Eager,
            UnitCosts::practical(),
        );
        assert_eq!(lower(&eager, 1).defects, []);
        let last_launch = |sched: &Schedule, w: usize, stage: u32| {
            let is_launch = |op: &Op| op.kind == OpKind::AllReduceLaunch && op.stage.0 == stage;
            sched.workers[w].iter().rposition(is_launch).unwrap()
        };
        // Stage 0 lives on P0 and P3; either may be the one left explicit.
        for (stripped, explicit) in [(0, 3), (3, 0)] {
            let mut sched = eager.clone();
            sched.workers[stripped].retain(|op| op.is_compute() || op.stage.0 != 0);
            assert_eq!(
                lower(&sched, 1).defects,
                [Defect {
                    worker: explicit as u32,
                    op_ix: last_launch(&sched, explicit, 0),
                    kind: DefectKind::RoundsDisagree,
                }]
            );
            assert!(execute(&sched, UnitCosts::equal()).is_err(), "deadlocks");
        }
    }

    /// Table 2, "weights memory": the copies of a stage's weights a worker
    /// keeps are the live one per held replica plus the parked versions.
    fn weight_copies(sched: &Schedule, iterations: u32) -> Vec<usize> {
        let lowered = lower(sched, iterations);
        assert_eq!(lowered.defects, [], "{:?}", sched.scheme);
        let copies = |p: &Program| p.held.len() + p.version_slots;
        lowered.programs.iter().map(copies).collect()
    }

    /// A backward that reads a parked version applies its gradient to weights
    /// updated since its forward: Table 2's "convergence friendly" column.
    fn has_stale_backward(sched: &Schedule, iterations: u32) -> bool {
        let programs = lower(sched, iterations).programs;
        let mut covered = programs
            .iter()
            .flat_map(|p| p.rows.iter().flat_map(Row::covered));
        covered.any(|cov| cov.version_slot.is_some())
    }

    /// Synchronous schemes keep one copy per held replica and no backward
    /// reads superseded weights, over several iterations too.
    #[test]
    fn synchronous_schemes_keep_one_weight_version() {
        let chimera_4_8 = chimera(&ChimeraConfig::new(4, 8)).unwrap();
        for sched in [gpipe(4, 8), dapple(4, 8), gems(4, 8), chimera_4_8.clone()] {
            let held = |w| sched.placement.held_by(WorkerId(w)).len();
            assert_eq!(
                weight_copies(&sched, 1),
                (0..4).map(held).collect::<Vec<_>>()
            );
            assert!(!has_stale_backward(&sched, 1), "{:?}", sched.scheme);
        }
        // One version per stage replica; each Chimera worker holds two.
        let many = crate::repeat::concat_iterations(&chimera_4_8, 3, false);
        assert_eq!(weight_copies(&many, 3), [2; 4]);
        assert!(!has_stale_backward(&many, 3));
    }

    /// PipeDream keeps up to D weight versions at the first stage and 1 at
    /// the last (Table 2: [Mθ, D·Mθ]) and is stale.
    #[test]
    fn pipedream_weight_stash_matches_table2() {
        let d = 4;
        let s = crate::repeat::concat_iterations(&pipedream(d, 8), 3, false);
        let copies = weight_copies(&s, 3);
        assert_eq!(copies[0], d as usize, "first stage keeps D versions");
        assert_eq!(copies[d as usize - 1], 1, "last stage keeps 1");
        assert!(copies.windows(2).all(|w| w[1] <= w[0]), "{copies:?}");
        assert!(has_stale_backward(&s, 3), "PipeDream is asynchronous");
    }

    /// PipeDream-2BW's gradient accumulation + 1-delay double buffering needs
    /// 2 versions wherever a micro-batch is in flight across an update, never
    /// more (Table 2: 2Mθ), and stays stale.
    #[test]
    fn pipedream_2bw_double_buffering() {
        let s = crate::baselines::pipedream_2bw_steady(4, 8, 4);
        let copies = weight_copies(&s, 4);
        assert_eq!(copies[0], 2, "the first stage double-buffers");
        assert!(copies.iter().all(|&v| v <= 2), "{copies:?}");
        assert!(has_stale_backward(&s, 4), "2BW uses 1-stale weights");
        // One iteration after another, no micro-batch spans an update.
        let drained = crate::repeat::concat_iterations(&pipedream_2bw(4, 8), 4, true);
        assert_eq!(weight_copies(&drained, 4), [1; 4]);
    }

    #[test]
    fn async_schedules_park_superseded_versions_in_slots() {
        let sched = pipedream(4, 8);
        assert!(!sched.flushes);
        let lowered = lower(&sched, 1);
        assert_eq!(lowered.defects, []);
        // Stage 0 updates while later micro-batches are still in flight.
        let p = &lowered.programs[0];
        assert!(p.version_slots >= 1);
        let parked = p.rows.iter().filter(|r| r.parks_version.is_some()).count();
        let freed = (p.rows.iter().flat_map(Row::covered))
            .filter(|cov| cov.frees_version)
            .count();
        assert!(parked > 0);
        assert_eq!(
            parked, freed,
            "every parked version is freed in the iteration"
        );
        // The last stage backpropagates at once: nothing to park.
        assert_eq!(lowered.programs[3].version_slots, 0);
    }

    /// What `Schedule::assert_well_formed` panics on comes back as defects.
    #[test]
    fn lowering_is_total() {
        let forward = |m, s, r| Op::forward(MicroId(m), StageId(s), ReplicaId(r));
        for bad in [forward(0, 9, 0), forward(0, 0, 9), forward(2, 0, 0)] {
            let mut sched = gpipe(2, 2);
            sched.workers[0].push(bad);
            assert_eq!(kinds(&sched), [DefectKind::OutOfRange], "{bad}");
        }
        let mut sched = gpipe(2, 2);
        sched.workers[1].push(forward(0, 0, 0));
        assert_eq!(kinds(&sched)[0], DefectKind::NotHeld);
        assert!(structural(&lower(&sched, 1).defects));

        let mut sched = gpipe(2, 2);
        sched.workers.push(Vec::new());
        assert_eq!(kinds(&sched), [DefectKind::Shape]);
        assert_eq!(lower(&sched, 1).programs, []);
        // A span of zero iterations is judged as one.
        assert_eq!(lower(&gpipe(2, 2), 0).defects, []);
    }
}
