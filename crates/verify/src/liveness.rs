//! Whole-schedule buffer liveness: exact live ranges and peaks for every
//! buffer a worker holds across ops, priced from the lowered rows.
//!
//! A worker's ops run sequentially, so its allocation events happen in program
//! order whatever the tick values. `chimera_core::program::lower` walks that
//! order once and records, per row, which buffers the op defines and kills;
//! [`price`] folds the rows under a [`BufferSizes`] model — it owns no walk of
//! its own, and the runtime's worker executes the very same rows. Four kinds
//! of buffer ([`BufferKind`]): stash halves (forward → the backward that
//! consumes the half), the rematerialization a recomputing backward carries
//! (def and kill the same op), superseded weight versions of non-flushing
//! schedules (the update that must park a still-referenced version → the
//! last backward that reads it; one buffer per version, not per micro) and
//! gradient contributions (def and kill the same backward: its stage's
//! keyed group folds each one as it is made, so none waits for a launch).
//!
//! Every buffer gets an exact live range `[def, kill]` (op indices, inclusive
//! on both ends: a buffer killed *by* op `i` is still resident while `i`
//! runs). From the ranges the fold derives:
//!
//! 1. an **exact peak** per worker — the max prefix sum of def/kill deltas in
//!    program order — and beside it the **activation-only** (stash + remat)
//!    peak, the activation term of the coarse Table-2 bound;
//! 2. the **memory cliff** — the op whose execution first reaches each peak,
//!    with a per-kind breakdown at that instant;
//! 3. **interference**: two buffers interfere iff their ranges overlap, and —
//!    intervals being an interval graph — a size class needs exactly
//!    [`max_overlap`] many slots (the pool pre-sizing number the runtime
//!    consumes); the fold counts the same number per class as the buffers
//!    come and go ([`WorkerPeaks::slots`]), so pricing sorts nothing.
//!
//! [`analyze`] adds lowering's stash-discipline defects as diagnostics
//! (`overwritten_stash`, `use_before_def`, `double_free`).
//!
//! A peak needs no live ranges, and no sizes until the end: [`count_states`]
//! walks a worker's rows once without a size model and records, at every
//! peak check, how many buffers of each kind are live ([`CountStates`]) —
//! for the schedule as lowered and for its `with_recompute` variant at once,
//! the two differing only in which halves a forward stashes and where a
//! rematerialization is checked. [`CountStates::price`] turns the few
//! states that can decide a peak into the numbers the fold above computes,
//! under any size model that prices gradient contributions at zero: what a
//! planner keeps per schedule shape and prices per candidate.

use chimera_core::op::{Chunk, Op, OpKind};
use chimera_core::program::{halves_in, lower_each, DefectKind, Program};
use chimera_core::schedule::Schedule;
use chimera_core::{MicroId, ReplicaId, StageId};
use chimera_sim::SimCostModel;

use crate::Diagnostic;

/// What a live buffer holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferKind {
    /// Stashed activations of one half-micro (full stash, or the boundary
    /// input under recomputation).
    Stash,
    /// Activations rematerialized by a recomputing backward; def == kill.
    Remat,
    /// A superseded-but-referenced parameter version (weight stashing).
    WeightVersion,
    /// One backward's flat gradient contribution, handed to its stage's
    /// allreduce group as the backward ends; def == kill.
    Grad,
}

/// One buffer's exact static lifetime on a worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferLife {
    /// What the buffer holds.
    pub kind: BufferKind,
    /// Owning replica.
    pub replica: u32,
    /// Owning stage.
    pub stage: u32,
    /// Disambiguator within `(kind, replica, stage)`: the half-micro id
    /// (`2·micro + h`) for stashes, the version id for weight versions, the
    /// defining op index for rematerializations and gradients.
    pub key: u64,
    /// Op index that defines (allocates) the buffer.
    pub def: usize,
    /// Op index at whose *end* the buffer is freed; a buffer never freed in
    /// the span gets the last op index (live through the whole tail).
    pub kill: usize,
    /// Buffer size in the size model's unit (abstract units or bytes).
    pub size: f64,
}

impl BufferLife {
    /// Whether two live ranges overlap (share at least one op). Ranges that
    /// abut at exactly one op — one killed by op `i`, the other defined at
    /// op `i` — DO interfere: the dying buffer is resident while `i` runs.
    pub fn interferes(&self, other: &BufferLife) -> bool {
        self.def.max(other.def) <= self.kill.min(other.kill)
    }
}

/// Buffer sizes for the four buffer kinds. Implementations choose the unit:
/// abstract activation units, simulator bytes, or measured runtime bytes.
///
/// A size is never negative (a rematerialization, full minus boundary stash,
/// aside), and it may depend on an op's stage, replica and chunk but not on
/// its micro-batch; one stash half of a stage has one size whatever the
/// chunk of the forward that defines it. [`CountStates::price`] sizes a
/// state's buffers by one probe op per held stage and chunk.
pub trait BufferSizes {
    /// Full activation stash of one compute op (all halves it covers).
    fn full_stash(&self, op: &Op) -> f64;
    /// Boundary-only stash of one compute op (recomputation).
    fn boundary_stash(&self, op: &Op) -> f64;
    /// One stashed parameter version of `stage`.
    fn weight_version(&self, stage: StageId) -> f64;
    /// One backward's flat gradient contribution.
    fn grad_contribution(&self, op: &Op) -> f64;
    /// The pool size class a buffer of `size` falls in, for the slot demand
    /// of [`WorkerPeaks::slots`]; `None` where the model has no classes or
    /// the buffer takes no slot.
    fn size_class(&self, _size: f64) -> Option<u32> {
        None
    }
}

/// One micro-batch's activations as the unit (`Ma`, Table 2), boundary
/// stashes, weight versions and gradient contributions 0: what
/// `VerifyReport::peak_activation_units` is priced in.
pub struct UnitMa;

impl BufferSizes for UnitMa {
    fn full_stash(&self, op: &Op) -> f64 {
        f64::from(op.chunk.half_micros()) / 2.0
    }
    fn boundary_stash(&self, _op: &Op) -> f64 {
        0.0
    }
    fn weight_version(&self, _stage: StageId) -> f64 {
        0.0
    }
    fn grad_contribution(&self, _op: &Op) -> f64 {
        0.0
    }
}

/// Simulator bytes: stashes in `act_bytes` (`boundary_bytes` under
/// recomputation), weight versions in `param_bytes`. Gradient contributions
/// are sized 0 — the paper's Table-2 memory model folds the gradient
/// accumulation buffer into the resident `grad_opt_bytes`, and the coarse
/// bound this analysis is cross-checked against does the same.
impl BufferSizes for SimCostModel {
    fn full_stash(&self, op: &Op) -> f64 {
        self.stages[op.stage.idx()].act_bytes as f64 * UnitMa.full_stash(op)
    }
    fn boundary_stash(&self, op: &Op) -> f64 {
        self.stages[op.stage.idx()].boundary_bytes as f64 * UnitMa.full_stash(op)
    }
    fn weight_version(&self, stage: StageId) -> f64 {
        self.stages[stage.idx()].param_bytes as f64
    }
    fn grad_contribution(&self, _op: &Op) -> f64 {
        0.0
    }
    /// `ceil(log2(f32 elements))`, the granularity of the runtime's pool; a
    /// buffer of no elements takes no slot.
    fn size_class(&self, size: f64) -> Option<u32> {
        let elems = (size / 4.0).round() as u64;
        (elems > 0).then(|| elems.next_power_of_two().trailing_zeros())
    }
}

/// Peak breakdown by buffer kind, in the size model's unit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindBreakdown {
    /// Stashed activation halves.
    pub stash: f64,
    /// Rematerialized activations.
    pub remat: f64,
    /// Stashed weight versions.
    pub weight_versions: f64,
    /// The gradient contribution of the backward running.
    pub grads: f64,
}

/// The dataflow engine's result for one schedule.
#[derive(Debug, Clone, Default)]
pub struct LivenessReport {
    /// Every buffer's exact live range, per worker, in def order.
    pub lives: Vec<Vec<BufferLife>>,
    /// Exact peak resident dynamic memory per worker (size-model units).
    pub peak: Vec<f64>,
    /// Op index whose execution first reaches the peak (the memory cliff);
    /// `None` for workers with no tracked buffers.
    pub cliff: Vec<Option<usize>>,
    /// Per-kind breakdown at the cliff, per worker.
    pub breakdown: Vec<KindBreakdown>,
    /// Peak of stash + rematerialization buffers alone, per worker.
    pub activation_peak: Vec<f64>,
    /// Op index whose execution first reaches the activation peak.
    pub activation_cliff: Vec<Option<usize>>,
    /// Slot demand per size class, per worker ([`WorkerPeaks::slots`]).
    pub slots: Vec<Vec<(u32, u32)>>,
    /// Stash-discipline findings: `overwritten_stash`, `use_before_def`,
    /// `double_free`.
    pub diagnostics: Vec<Diagnostic>,
}

/// A running maximum and the op index that first reached it.
#[derive(Default)]
struct Peak {
    value: f64,
    at: Option<usize>,
}

impl Peak {
    /// Whether `total` at op `i` is a new maximum.
    fn observe(&mut self, total: f64, i: usize) -> bool {
        let higher = total > self.value;
        if higher {
            self.value = total;
            self.at = Some(i);
        }
        higher
    }
}

/// Lower `sched` and price its rows under `sizes`: [`price`] plus lowering's
/// stash-discipline defects as diagnostics.
pub fn analyze<S: BufferSizes>(sched: &Schedule, sizes: &S) -> LivenessReport {
    let mut rep = LivenessReport::default();
    let (defects, _) = lower_each(sched, 1, |program| rep.push_priced(&program, sizes));
    let stash_defects = defects.iter().filter(|defect| {
        matches!(
            defect.kind,
            DefectKind::OverwrittenStash { .. } | DefectKind::UseBeforeDef | DefectKind::DoubleFree
        )
    });
    rep.diagnostics = stash_defects
        .map(|defect| Diagnostic::of_defect(sched, defect))
        .collect();
    rep
}

/// Price `programs` — a schedule lowered by `chimera_core::program::lower` —
/// under `sizes`, worker by worker ([`LivenessReport::push_priced`]).
pub fn price<S: BufferSizes>(programs: &[Program], sizes: &S) -> LivenessReport {
    let mut rep = LivenessReport::default();
    for program in programs {
        rep.push_priced(program, sizes);
    }
    rep
}

impl LivenessReport {
    /// Price the next worker's `program` under `sizes` and append the result,
    /// live ranges included.
    pub fn push_priced<S: BufferSizes>(&mut self, program: &Program, sizes: &S) {
        let mut lives = Vec::new();
        let priced = walk(program, sizes, &mut lives);
        self.lives.push(lives);
        self.peak.push(priced.peak);
        self.cliff.push(priced.cliff);
        self.breakdown.push(priced.breakdown);
        self.activation_peak.push(priced.activation_peak);
        self.activation_cliff.push(priced.activation_cliff);
        self.slots.push(priced.slots);
    }
}

/// One worker priced: what [`LivenessReport`] holds per worker, without the
/// live ranges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerPeaks {
    /// Exact peak resident dynamic memory (size-model units).
    pub peak: f64,
    /// Op index whose execution first reaches the peak.
    pub cliff: Option<usize>,
    /// Per-kind breakdown at the cliff.
    pub breakdown: KindBreakdown,
    /// Peak of stash + rematerialization buffers alone.
    pub activation_peak: f64,
    /// Op index whose execution first reaches the activation peak.
    pub activation_cliff: Option<usize>,
    /// Slot demand per size class ([`BufferSizes::size_class`]), ascending.
    pub slots: Vec<(u32, u32)>,
}

/// A live buffer as the walk remembers it between its def and its kill.
#[derive(Clone, Copy, Default)]
struct Held {
    size: f64,
    /// Its size class, worked out once.
    class: Option<u32>,
    /// Index of its [`BufferLife`], where live ranges are recorded.
    life: usize,
}

/// What the walk keeps per worker besides its running totals: slot demand
/// per size class, counted as the buffers come and go, and every buffer's
/// live range. A buffer killed by an op is resident while the op runs, so its
/// slot is given back once the op is over — an op's defs land on top of what
/// it kills, and the next op's do not: [`max_overlap`]'s order of events,
/// without the sort.
struct Buffers<'a> {
    live: [u32; 64],
    most: [u32; 64],
    /// Classes of the buffers the current op kills.
    dying: Vec<u32>,
    lives: &'a mut Vec<BufferLife>,
}

impl Buffers<'_> {
    fn def(&mut self, life: BufferLife, class: Option<u32>) -> Held {
        if let Some(c) = class {
            let c = c as usize;
            self.live[c] += 1;
            self.most[c] = self.most[c].max(self.live[c]);
        }
        let held = Held {
            size: life.size,
            class,
            life: self.lives.len(),
        };
        self.lives.push(life);
        held
    }

    fn kill(&mut self, held: Held, at: usize) {
        self.dying.extend(held.class);
        self.lives[held.life].kill = at;
    }

    fn end_op(&mut self) {
        for c in self.dying.drain(..) {
            self.live[c as usize] -= 1;
        }
    }
}

/// The fold behind [`LivenessReport::push_priced`]. The rows say which
/// buffers each op defines and kills; the walk attaches sizes and keeps the
/// running totals, remembering each live buffer in tables indexed by the
/// row's own slots (through which the kill of its live range in `lives` is
/// back-patched). The sync rows define nothing but the weight version a
/// wait parks, and the implicit post-hoc rows are not priced.
fn walk<S: BufferSizes>(program: &Program, sizes: &S, lives: &mut Vec<BufferLife>) -> WorkerPeaks {
    let mut buffers = Buffers {
        live: [0; 64],
        most: [0; 64],
        dying: Vec::new(),
        lives,
    };
    // The live buffer per stash slot and half, per version slot; per held
    // stage, the number of updates so far (the next parked version's id).
    let mut stash_live = vec![[Held::default(); 2]; program.stash_slots];
    let mut version_live = vec![Held::default(); program.version_slots];
    let mut updates = vec![0u64; program.held.len()];

    let mut cur = KindBreakdown::default();
    let mut peak = Peak::default();
    let mut at_peak = KindBreakdown::default();
    let mut activation_peak = Peak::default();
    let mut check_peak = |cur: &KindBreakdown, i: usize| {
        if peak.observe(cur.stash + cur.remat + cur.weight_versions + cur.grads, i) {
            at_peak = *cur;
        }
        activation_peak.observe(cur.stash + cur.remat, i);
    };

    for row in &program.rows[..program.implicit_from] {
        buffers.end_op();
        let (i, op, h) = (row.op_ix, &row.op, row.held as usize);
        let life = |kind, key, kill, size| BufferLife {
            kind,
            replica: op.replica.0,
            stage: op.stage.0,
            key,
            def: i,
            kill,
            size,
        };
        match op.kind {
            OpKind::Forward => {
                let total = if row.boundary_only {
                    sizes.boundary_stash(op)
                } else {
                    sizes.full_stash(op)
                };
                let per = total / f64::from(op.chunk.half_micros());
                let class = sizes.size_class(per);
                for cov in row.covered() {
                    let slot = &mut stash_live[cov.stash_slot as usize];
                    for b in halves_in(cov.defines) {
                        if cov.kills >> b & 1 == 1 {
                            // Close the clobbered buffer here so accounting
                            // stays bounded on broken schedules.
                            buffers.kill(slot[b], i);
                            cur.stash -= slot[b].size;
                        }
                        let key = 2 * u64::from(cov.micro) + b as u64;
                        slot[b] = buffers.def(life(BufferKind::Stash, key, usize::MAX, per), class);
                        cur.stash += per;
                    }
                }
                check_peak(&cur, i);
            }
            OpKind::Backward { recompute } => {
                // Defs first: the rematerialization and the gradient are
                // resident together with the stash they are computed from.
                let mut remat_size = 0.0;
                if recompute {
                    remat_size = sizes.full_stash(op) - sizes.boundary_stash(op);
                    let class = sizes.size_class(remat_size);
                    let remat =
                        buffers.def(life(BufferKind::Remat, i as u64, i, remat_size), class);
                    cur.remat += remat_size;
                    check_peak(&cur, i);
                    buffers.kill(remat, i);
                }
                let gsize = sizes.grad_contribution(op);
                if gsize > 0.0 {
                    let class = sizes.size_class(gsize);
                    let grad = buffers.def(life(BufferKind::Grad, i as u64, i, gsize), class);
                    cur.grads += gsize;
                    check_peak(&cur, i);
                    buffers.kill(grad, i);
                }
                // Kills: the consumed stash halves (and the transient
                // rematerialization and gradient) die at this op's end, and
                // with the last reader the weight version it read.
                cur.remat -= remat_size;
                cur.grads -= gsize;
                for cov in row.covered() {
                    for b in halves_in(cov.kills) {
                        let dead = stash_live[cov.stash_slot as usize][b];
                        buffers.kill(dead, i);
                        cur.stash -= dead.size;
                    }
                    if let (Some(slot), true) = (cov.version_slot, cov.frees_version) {
                        let dead = version_live[slot as usize];
                        buffers.kill(dead, i);
                        cur.weight_versions -= dead.size;
                    }
                }
            }
            OpKind::AllReduceLaunch => {}
            OpKind::AllReduceWait => {
                if let Some(slot) = row.parks_version {
                    // Copy-on-update: the superseded version is still
                    // referenced by in-flight micros and is materialized
                    // before the update overwrites it.
                    let size = sizes.weight_version(op.stage);
                    let version = life(BufferKind::WeightVersion, updates[h], usize::MAX, size);
                    version_live[slot as usize] = buffers.def(version, sizes.size_class(size));
                    cur.weight_versions += size;
                    check_peak(&cur, i);
                }
                updates[h] += 1;
            }
        }
    }

    // Buffers never killed in the span stay live through the tail.
    let last = program.ops.saturating_sub(1);
    for b in buffers.lives.iter_mut().filter(|b| b.kill == usize::MAX) {
        b.kill = last;
    }
    let in_use = (buffers.most.iter().enumerate()).filter(|(_, &most)| most > 0);
    WorkerPeaks {
        peak: peak.value,
        cliff: peak.at,
        breakdown: at_peak,
        activation_peak: activation_peak.value,
        activation_cliff: activation_peak.at,
        slots: in_use.map(|(class, &most)| (class as u32, most)).collect(),
    }
}

/// Live-buffer *count states* of a schedule's workers, in worker order and,
/// per worker, in program order: at a peak check of the pricing walk, how
/// many stash halves and parked weight versions each held stage has live,
/// and which rematerialization the op carries — numbers of buffers, no
/// sizes, and no placement: which stages a worker holds is its schedule's to
/// say. [`count_states`] records them, [`CountStates::price`] prices them.
///
/// Only the states that can decide a peak are kept. Under any size model of
/// the contract of [`BufferSizes`], a state that an earlier one covers
/// (at least as many of every buffer, the same rematerialization) never
/// reaches a peak first, so it is not recorded; and a kept state that a later
/// one exceeds (more of every buffer it has, neither rematerializing) either
/// prices below the later one or at zero, so it is dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountStates {
    /// Every worker's [`WorkerStates`] words back to back, in worker order.
    words: Vec<u32>,
    /// Where each worker's words end, in worker order.
    ends: Vec<usize>,
    /// States kept, the clobbering forwards' included.
    states: usize,
}

/// One worker's count states as [`count_states`] leaves them: the header
/// `[h, states, clobbered]` of a worker holding `h` stages, `⌈h / 32⌉` words
/// of flags (bit `i`: held stage `i`'s forwards stash the boundary only),
/// then its states — each the op index whose execution reaches it and `2h +
/// 1` counts — then its clobbered states, counts only. A state's counts are
/// the live stash halves per held stage, the parked weight versions per held
/// stage, and the live rematerialization: 0 for none, else `1 + 3i + k` for a
/// backward of held stage `i` covering half a micro-batch (`k = 0`), one (1)
/// or two (2). A clobbered state holds the counts as the pool sees them at a
/// forward that clobbers live halves (a defective schedule): the clobbered
/// halves stay resident while the op runs, so slot demand reads them and
/// peaks do not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStates {
    words: Vec<u32>,
}

impl WorkerStates {
    /// The states priced under `sizes`, the worker holding `held`
    /// ([`Program::held`]): the numbers the row walk of
    /// [`LivenessReport::push_priced`] computes — peak, cliff, breakdown at
    /// the cliff, activation peak and cliff, slot demand per size class — for
    /// a size model that prices gradient contributions at zero (the counts
    /// have none; `UnitMa` and `SimCostModel` are such models, the runtime's
    /// footprint is not and prices rows).
    pub fn price<S: BufferSizes>(&self, held: &[(u32, u32)], sizes: &S) -> WorkerPeaks {
        Worker::parse(&self.words).price(held, sizes)
    }
}

/// One worker's entries of a [`CountStates`].
struct Worker<'a> {
    /// Held stages.
    held: usize,
    boundary: &'a [u32],
    /// `2 · held + 2` words per state: the op, then the counts.
    states: &'a [u32],
    /// `2 · held + 1` counts per clobbered state.
    clobbered: &'a [u32],
}

impl<'a> Worker<'a> {
    /// The worker `words` holds, laid out as [`WorkerStates`] has them.
    fn parse(words: &'a [u32]) -> Worker<'a> {
        let [held, states] = [words[0], words[1]].map(|n| n as usize);
        let (boundary, rest) = words[3..].split_at(held.div_ceil(32));
        let (states, clobbered) = rest.split_at(states * (2 * held + 2));
        Worker {
            held,
            boundary,
            states,
            clobbered,
        }
    }

    /// Whether held stage `h`'s forwards stash the boundary only.
    fn boundary_only(&self, h: usize) -> bool {
        self.boundary[h / 32] >> (h % 32) & 1 == 1
    }

    /// The states priced under `sizes`, the worker holding `held`.
    fn price<S: BufferSizes>(&self, held: &[(u32, u32)], sizes: &S) -> WorkerPeaks {
        let nh = self.held;
        assert_eq!(held.len(), nh, "the states of a worker holding {nh} stages");
        let probe = |h: usize, chunk, backward| {
            let (replica, stage) = (ReplicaId(held[h].0), StageId(held[h].1));
            let op = match backward {
                true => Op::backward_recompute(MicroId(0), stage, replica),
                false => Op::forward(MicroId(0), stage, replica),
            };
            Op { chunk, ..op }
        };
        // One buffer of each counted kind: per held stage a stash half and a
        // weight version, per held stage and chunk a rematerialization. A
        // worker holds a few stages: their sizes stay on the stack.
        let (mut on_stack, mut on_heap) = ([0.0; 8], Vec::new());
        let size = match 2 * nh <= on_stack.len() {
            true => &mut on_stack[..2 * nh],
            false => {
                on_heap.resize(2 * nh, 0.0);
                &mut on_heap[..]
            }
        };
        for (h, &(_, stage)) in held.iter().enumerate() {
            let forward = probe(h, Chunk::Full, false);
            debug_assert_eq!(sizes.grad_contribution(&probe(h, Chunk::Full, true)), 0.0);
            let total = match self.boundary_only(h) {
                true => sizes.boundary_stash(&forward),
                false => sizes.full_stash(&forward),
            };
            size[h] = total / f64::from(Chunk::Full.half_micros());
            size[nh + h] = sizes.weight_version(StageId(stage));
        }
        let size = &*size;
        let remat = |code: u32| {
            code.checked_sub(1).map(|c| {
                let chunk = [Chunk::Half(0), Chunk::Full, Chunk::Pair][c as usize % 3];
                let backward = probe(c as usize / 3, chunk, true);
                sizes.full_stash(&backward) - sizes.boundary_stash(&backward)
            })
        };

        let (mut peak, mut activation_peak) = (Peak::default(), Peak::default());
        let mut at_peak = KindBreakdown::default();
        let sum = |counts: &[u32], sizes: &[f64]| {
            (counts.iter().zip(sizes)).fold(0.0, |sum, (&n, size)| sum + f64::from(n) * size)
        };
        for state in self.states.chunks_exact(2 * nh + 2) {
            let (at, counts) = (state[0] as usize, &state[1..]);
            let cur = KindBreakdown {
                stash: sum(&counts[..nh], &size[..nh]),
                remat: remat(counts[2 * nh]).unwrap_or(0.0),
                weight_versions: sum(&counts[nh..2 * nh], &size[nh..]),
                grads: 0.0,
            };
            if peak.observe(cur.stash + cur.remat + cur.weight_versions + cur.grads, at) {
                at_peak = cur;
            }
            activation_peak.observe(cur.stash + cur.remat, at);
        }

        // Slot demand: per size class, the most buffers of the class live in
        // any state, the clobbering forwards' included. `seen` marks the
        // classes a buffer took.
        let (mut live, mut most, mut seen) = ([0u32; 64], [0u32; 64], 0u64);
        let states = self
            .states
            .chunks_exact(2 * nh + 2)
            .map(|state| &state[1..]);
        for counts in states.chain(self.clobbered.chunks_exact(2 * nh + 1)) {
            let remat_class = remat(counts[2 * nh]).and_then(|size| sizes.size_class(size));
            let buffers = (size.iter().zip(counts)).map(|(&size, &n)| (sizes.size_class(size), n));
            let buffers = buffers.chain([(remat_class, 1)]);
            for (c, n) in buffers.clone() {
                if let (Some(c), true) = (c, n > 0) {
                    live[c as usize] += n;
                    seen |= 1 << c;
                }
            }
            for (c, _) in buffers {
                if let Some(c) = c {
                    most[c as usize] = most[c as usize].max(live[c as usize]);
                    live[c as usize] = 0;
                }
            }
        }
        let in_use = (0..64u32).filter(|&c| seen >> c & 1 == 1);
        WorkerPeaks {
            peak: peak.value,
            cliff: peak.at,
            breakdown: at_peak,
            activation_peak: activation_peak.value,
            activation_cliff: activation_peak.at,
            slots: in_use.map(|class| (class, most[class as usize])).collect(),
        }
    }
}

/// A rematerialization's chunk as a state counts it.
fn chunk_kind(chunk: Chunk) -> u32 {
    match chunk {
        Chunk::Half(_) => 0,
        Chunk::Full => 1,
        Chunk::Pair => 2,
    }
}

/// Whether counts `k` cover counts `s`: the same rematerialization and at
/// least as many of every other buffer.
fn covers(k: &[u32], s: &[u32]) -> bool {
    let (&remat, counts) = s.split_last().expect("a state has its remat count");
    k[counts.len()] == remat && k.iter().zip(counts).all(|(k, s)| k >= s)
}

/// Whether counts `s` exceed counts `k`: neither rematerializes, and `s` has
/// more of every buffer `k` has and at least as many of the others.
fn exceeds(s: &[u32], k: &[u32]) -> bool {
    let remat = s.len() - 1;
    s[remat] == 0
        && k[remat] == 0
        && (s[..remat].iter().zip(&k[..remat])).all(|(&s, &k)| k == 0 || s > k)
}

/// One worker's states of one kind as [`count_states`] records them: the
/// states without a live rematerialization, or those with one.
struct Recorder {
    /// Counts per state.
    width: usize,
    states: Vec<u32>,
    clobbered: Vec<u32>,
}

impl Recorder {
    fn new(width: usize) -> Self {
        Recorder {
            width,
            states: Vec::new(),
            clobbered: Vec::new(),
        }
    }

    /// Record `cur`, the counts at a peak check of op `at`, unless a kept
    /// state covers it; drop the kept states it exceeds.
    fn record(&mut self, cur: &[u32], at: u32) {
        let stride = self.width + 1;
        // Latest first: in a steady state the one that covers it.
        if (self.states.chunks_exact(stride).rev()).any(|k| covers(&k[1..], cur)) {
            return;
        }
        // Room for a few at once: most workers keep one or two of a kind.
        self.states.reserve(4 * stride);
        let mut kept = 0;
        for i in 0..self.states.len() / stride {
            let state = i * stride..(i + 1) * stride;
            if !exceeds(cur, &self.states[state.start + 1..state.end]) {
                self.states.copy_within(state, kept * stride);
                kept += 1;
            }
        }
        self.states.truncate(kept * stride);
        self.states.push(at);
        self.states.extend_from_slice(cur);
    }

    /// Record `cur` with `n` more halves of held stage `h` for slot demand
    /// only.
    fn record_clobbered(&mut self, cur: &[u32], h: usize, n: u32) {
        let from = self.clobbered.len();
        self.clobbered.extend_from_slice(cur);
        self.clobbered[from + h] += n;
    }

    /// The states of `self` and `other`, each in program order, in program
    /// order: an op is a check of one kind only.
    fn merged<'a>(&'a self, other: &'a Recorder) -> impl Iterator<Item = &'a [u32]> {
        let stride = self.width + 1;
        let mut a = self.states.chunks_exact(stride).peekable();
        let mut b = other.states.chunks_exact(stride).peekable();
        std::iter::from_fn(move || match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if y[0] < x[0] => b.next(),
            (Some(_), _) => a.next(),
            (None, _) => b.next(),
        })
    }

    /// A worker holding `held` stages with these flags (one `u32` per stage,
    /// 1: it stashes the boundary only): its states without a
    /// rematerialization (`self`, with the clobbering forwards') and with one.
    fn worker(&self, held: usize, boundary: &[u32], remat: &Recorder) -> WorkerStates {
        let states = (self.states.len() + remat.states.len()) / (self.width + 1);
        let clobbered = self.clobbered.len() / self.width;
        let flags = boundary
            .chunks(32)
            .map(|flags| (flags.iter().enumerate()).fold(0u32, |word, (i, &b)| word | b << i));
        let mut words = Vec::with_capacity(4 + self.states.len() + remat.states.len());
        words.extend([held, states, clobbered].map(|n| n as u32));
        words.extend(flags);
        words.extend(self.merged(remat).flatten());
        words.extend_from_slice(&self.clobbered);
        WorkerStates { words }
    }
}

impl CountStates {
    /// Workers recorded.
    pub fn workers(&self) -> usize {
        self.ends.len()
    }

    /// States kept over all workers, the clobbering forwards' included.
    pub fn len(&self) -> usize {
        self.states
    }

    /// Whether no worker keeps a state.
    pub fn is_empty(&self) -> bool {
        self.states == 0
    }

    /// Give back what the walk over-allocated: the states are kept.
    pub fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Append the next worker's states.
    pub fn push(&mut self, worker: &WorkerStates) {
        let parsed = Worker::parse(&worker.words);
        let stride = 2 * parsed.held + 2;
        self.states += parsed.states.len() / stride + parsed.clobbered.len() / (stride - 1);
        self.words.extend_from_slice(&worker.words);
        self.ends.push(self.words.len());
    }

    /// Every worker's states priced under `sizes`, with the `(replica,
    /// stage)` pairs it holds in `sched` — the schedule the states were
    /// walked from, or its `with_recompute` variant — in worker order.
    pub fn price<S: BufferSizes>(
        &self,
        sched: &Schedule,
        sizes: &S,
    ) -> Vec<(Vec<(u32, u32)>, WorkerPeaks)> {
        // What each worker holds, ascending, in one pass over the placement;
        // a placement of another shape (no worker recorded) adds nothing.
        let placement = &sched.placement;
        let mut held = vec![Vec::new(); self.workers()];
        for replica in 0..placement.replicas() {
            for stage in 0..placement.d() {
                let w = placement.worker(ReplicaId(replica), StageId(stage)).idx();
                if let Some(held) = held.get_mut(w) {
                    held.push((replica, stage));
                }
            }
        }
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        (held.into_iter().zip(starts.zip(&self.ends)))
            .map(|(held, (start, &end))| {
                let priced = Worker::parse(&self.words[start..end]).price(&held, sizes);
                (held, priced)
            })
            .collect()
    }
}

/// The size-free walk: one worker's states as `program` is lowered and,
/// with `retried`, from the same pass over its rows, as its schedule's
/// `with_recompute` variant would be. The two share every count and differ in
/// what they size: under the variant every held stage with a backward stashes
/// its boundary only, and every backward is a peak check with its
/// rematerialization live. The checks are [`LivenessReport::push_priced`]'s
/// — after a forward's defs (a clobbered half already gone), at a
/// recomputing backward with its stash still live, after an update parks a
/// weight version — minus the one a gradient contribution makes, which the
/// counts do not hold. A state without a rematerialization is neither
/// covered by nor exceeds one with, so the two kinds are pruned apart and
/// the first kind, the same under the variant, is recorded once.
pub fn count_states(program: &Program, retried: bool) -> (WorkerStates, Option<WorkerStates>) {
    let nh = program.held.len();
    let remat = 2 * nh;
    // The counts, then per held stage whether its forwards stash the
    // boundary only: as lowered, then under the retry. A worker holds a few
    // stages: they stay on the stack.
    let (mut on_stack, mut on_heap) = ([0u32; 25], Vec::new());
    let tables = match remat + 1 + 2 * nh <= on_stack.len() {
        true => &mut on_stack[..remat + 1 + 2 * nh],
        false => {
            on_heap.resize(remat + 1 + 2 * nh, 0);
            &mut on_heap[..]
        }
    };
    let (cur, boundary) = tables.split_at_mut(remat + 1);
    let mut plain = Recorder::new(remat + 1);
    let mut own_remat = Recorder::new(remat + 1);
    let mut retried_remat = retried.then(|| Recorder::new(remat + 1));
    for row in &program.rows[..program.implicit_from] {
        let (h, at) = (row.held as usize, row.op_ix as u32);
        match row.op.kind {
            OpKind::Forward => {
                boundary[h] = u32::from(row.boundary_only);
                let mut clobbered = 0;
                for cov in row.covered() {
                    clobbered += cov.kills.count_ones();
                    cur[h] = cur[h] - cov.kills.count_ones() + cov.defines.count_ones();
                }
                plain.record(cur, at);
                if clobbered > 0 {
                    plain.record_clobbered(cur, h, clobbered);
                }
            }
            OpKind::Backward { recompute } => {
                boundary[nh + h] = 1;
                cur[remat] = 1 + 3 * h as u32 + chunk_kind(row.op.chunk);
                if recompute {
                    own_remat.record(cur, at);
                }
                if let Some(states) = &mut retried_remat {
                    states.record(cur, at);
                }
                cur[remat] = 0;
                for cov in row.covered() {
                    cur[h] -= cov.kills.count_ones();
                    cur[nh + h] -= u32::from(cov.version_slot.is_some() && cov.frees_version);
                }
            }
            OpKind::AllReduceLaunch => {}
            OpKind::AllReduceWait => {
                if row.parks_version.is_some() {
                    cur[nh + h] += 1;
                    plain.record(cur, at);
                }
            }
        }
    }
    let own = plain.worker(nh, &boundary[..nh], &own_remat);
    let retried = retried_remat.map(|remat| plain.worker(nh, &boundary[nh..], &remat));
    (own, retried)
}

/// Largest number of simultaneously-live intervals (inclusive ranges) — the
/// max clique of the interference graph, and the exact slot demand.
pub fn max_overlap(intervals: &[(usize, usize)]) -> usize {
    // Sweep +1 at def, −1 after kill.
    let mut deltas: Vec<(usize, i64)> = Vec::with_capacity(intervals.len() * 2);
    for &(def, kill) in intervals {
        deltas.push((def, 1));
        deltas.push((kill + 1, -1));
    }
    deltas.sort_by_key(|&(at, d)| (at, d)); // kills (−1) before defs at same op
    let mut cur = 0i64;
    let mut peak = 0i64;
    for (_, d) in deltas {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_core::baselines::{dapple, gpipe, pipedream_steady};
    use chimera_core::program::lower;

    /// GPipe's forwards each exceed the one before, and 1F1B's steady state
    /// comes back to its warm-up peak: one state per worker decides it — two
    /// under recomputation, the peak and the first backward that
    /// rematerializes on top of it — and priced it is what the row walk
    /// computes.
    #[test]
    fn a_peak_needs_one_state_under_gpipe_and_1f1b() {
        for (s, kept) in [(gpipe(4, 16), 1), (dapple(4, 16), 1)] {
            let recomputing = s.clone().with_recompute();
            for (program, again) in lower(&s, 1)
                .programs
                .iter()
                .zip(lower(&recomputing, 1).programs)
            {
                let (own, retried) = count_states(program, true);
                let (recomputed, _) = count_states(&again, false);
                let retried = retried.expect("asked for");
                let kept_of = |worker: &WorkerStates| {
                    let mut states = CountStates::default();
                    states.push(worker);
                    states.len()
                };
                assert_eq!(kept_of(&own), kept, "{} P{}", s.scheme, program.worker);
                assert_eq!(
                    kept_of(&retried),
                    kept + 1,
                    "{} P{}",
                    s.scheme,
                    program.worker
                );
                assert_eq!(retried, recomputed);
                let walked = walk(&again, &UnitMa, &mut Vec::new());
                assert_eq!(recomputed.price(&again.held, &UnitMa), walked);
            }
        }
    }

    #[test]
    fn abutting_ranges_interfere_but_disjoint_do_not() {
        let a = BufferLife {
            kind: BufferKind::Stash,
            replica: 0,
            stage: 0,
            key: 0,
            def: 0,
            kill: 5,
            size: 1.0,
        };
        // B's def is exactly A's kill op: A is still resident while op 5
        // runs, so they interfere (the off-by-one case).
        let b = BufferLife {
            key: 1,
            def: 5,
            kill: 9,
            ..a
        };
        let c = BufferLife {
            key: 2,
            def: 6,
            kill: 9,
            ..a
        };
        assert!(a.interferes(&b) && b.interferes(&a));
        assert!(!a.interferes(&c) && !c.interferes(&a));
        assert_eq!(max_overlap(&[(0, 5), (5, 9)]), 2);
        assert_eq!(max_overlap(&[(0, 5), (6, 9)]), 1);
        assert_eq!(max_overlap(&[(0, 5), (5, 9), (6, 9)]), 2);
    }

    #[test]
    fn pipedream_versions_match_table2_steady_state() {
        // PipeDream at stage s keeps up to D−s weight versions (Table 2).
        // The copy-on-update walk materializes superseded versions only, so
        // extra buffers ≤ D−s per worker (the resident copy is not a
        // liveness buffer).
        let d = 4;
        let s = pipedream_steady(d, d, 4);
        let sizes = ProbeSizes;
        let rep = analyze(&s, &sizes);
        assert!(rep.diagnostics.is_empty());
        for (w, lives) in rep.lives.iter().enumerate() {
            let max_versions = max_overlap(
                &lives
                    .iter()
                    .filter(|b| b.kind == BufferKind::WeightVersion)
                    .map(|b| (b.def, b.kill))
                    .collect::<Vec<_>>(),
            );
            assert!(
                max_versions as u32 <= d - w as u32,
                "worker {w}: {max_versions} versions > D−s bound {}",
                d - w as u32
            );
        }
        // Stage 0 really does stash versions in steady state.
        assert!(rep.lives[0]
            .iter()
            .any(|b| b.kind == BufferKind::WeightVersion));
    }

    /// Unit sizes for version-walk tests: stash 0, version 1.
    struct ProbeSizes;
    impl BufferSizes for ProbeSizes {
        fn full_stash(&self, _op: &Op) -> f64 {
            0.0
        }
        fn boundary_stash(&self, _op: &Op) -> f64 {
            0.0
        }
        fn weight_version(&self, _stage: StageId) -> f64 {
            1.0
        }
        fn grad_contribution(&self, _op: &Op) -> f64 {
            0.0
        }
    }
}
