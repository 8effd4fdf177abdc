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
//! gradient contributions (backward → the next launch of its stage, or the
//! end of the span under post-hoc synchronization).
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

use chimera_core::op::{Op, OpKind};
use chimera_core::program::{halves_in, lower_each, DefectKind, Program};
use chimera_core::schedule::Schedule;
use chimera_core::StageId;
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
    /// One backward's flat gradient contribution awaiting its allreduce.
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
    /// Pending gradient contributions.
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
    /// Price the next worker's `program` under `sizes` ([`price_worker`]) and
    /// append the result, live ranges included.
    pub fn push_priced<S: BufferSizes>(&mut self, program: &Program, sizes: &S) {
        let mut lives = Vec::new();
        let priced = walk::<S, true>(program, sizes, &mut lives);
        self.lives.push(lives);
        self.peak.push(priced.peak);
        self.cliff.push(priced.cliff);
        self.breakdown.push(priced.breakdown);
        self.activation_peak.push(priced.activation_peak);
        self.activation_cliff.push(priced.activation_cliff);
        self.slots.push(priced.slots);
    }
}

/// One worker's program priced: what [`LivenessReport`] holds per worker,
/// without the live ranges.
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

/// Price one worker's `program` under `sizes` in one pass over its rows, a
/// constant amount of work per buffer defined or killed and no table of
/// live ranges: what a caller that folds workers as they stream out of
/// `lower_each` keeps of each.
pub fn price_worker<S: BufferSizes>(program: &Program, sizes: &S) -> WorkerPeaks {
    walk::<S, false>(program, sizes, &mut Vec::new())
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
/// per size class, counted as the buffers come and go, and, for a caller that
/// asked (`LIVES`), every buffer's live range. A buffer killed by an op is
/// resident while the op runs, so its slot is given back once the op is over
/// — an op's defs land on top of what it kills, and the next op's do not:
/// [`max_overlap`]'s order of events, without the sort.
struct Buffers<'a, const LIVES: bool> {
    live: [u32; 64],
    most: [u32; 64],
    /// Classes of the buffers the current op kills.
    dying: Vec<u32>,
    lives: &'a mut Vec<BufferLife>,
}

impl<const LIVES: bool> Buffers<'_, LIVES> {
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
        if LIVES {
            self.lives.push(life);
        }
        held
    }

    fn kill(&mut self, held: Held, at: usize) {
        self.dying.extend(held.class);
        if LIVES {
            self.lives[held.life].kill = at;
        }
    }

    fn end_op(&mut self) {
        for c in self.dying.drain(..) {
            self.live[c as usize] -= 1;
        }
    }
}

/// The fold behind [`price_worker`] and [`LivenessReport::push_priced`]. The
/// rows say which buffers each op defines and kills; the walk attaches sizes
/// and keeps the running totals, remembering each live buffer in tables
/// indexed by the row's own slots (through which, with `LIVES`, the kill of
/// its live range in `lives` is back-patched). The implicit post-hoc rows are
/// not priced: gradients a schedule never launches stay pending to the end
/// of the span.
fn walk<S: BufferSizes, const LIVES: bool>(
    program: &Program,
    sizes: &S,
    lives: &mut Vec<BufferLife>,
) -> WorkerPeaks {
    let mut buffers = Buffers::<LIVES> {
        live: [0; 64],
        most: [0; 64],
        dying: Vec::new(),
        lives,
    };
    // The live buffer per stash slot and half, per version slot; per held
    // stage, the pending gradient contributions and the number of updates so
    // far (the next parked version's id).
    let mut stash_live = vec![[Held::default(); 2]; program.stash_slots];
    let mut version_live = vec![Held::default(); program.version_slots];
    let mut pending_grads: Vec<Vec<Held>> = vec![Vec::new(); program.held.len()];
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
                    let grad = life(BufferKind::Grad, i as u64, usize::MAX, gsize);
                    pending_grads[h].push(buffers.def(grad, class));
                    cur.grads += gsize;
                    check_peak(&cur, i);
                }
                // Kills: the consumed stash halves (and the transient
                // rematerialization) die at this op's end, and with the
                // last reader the weight version it read.
                cur.remat -= remat_size;
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
            OpKind::AllReduceLaunch => {
                for dead in pending_grads[h].drain(..) {
                    buffers.kill(dead, i);
                    cur.grads -= dead.size;
                }
            }
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
    use chimera_core::baselines::pipedream_steady;

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
