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
//!    consumes).
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
    let defects = lower_each(sched, 1, |program| rep.push_priced(&program, sizes));
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
    /// Price the next worker's `program` under `sizes` and append the result.
    /// The rows say which buffers each op defines and kills; this fold
    /// attaches sizes, live ranges and the running peak, back-patching each
    /// buffer's kill through tables indexed by the row's own slots. The
    /// implicit post-hoc rows are not priced: gradients a schedule never
    /// launches stay pending to the end of the span.
    pub fn push_priced<S: BufferSizes>(&mut self, program: &Program, sizes: &S) {
        let mut wl: Vec<BufferLife> = Vec::new();
        // Index into `wl` of the live buffer: per stash slot and half, per
        // version slot; per held stage, the pending gradient contributions
        // and the number of updates so far (the next parked version's id).
        let mut stash_life = vec![[0usize; 2]; program.stash_slots];
        let mut version_life = vec![0usize; program.version_slots];
        let mut pending_grads: Vec<Vec<usize>> = vec![Vec::new(); program.held.len()];
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
                    for cov in row.covered() {
                        let slot = &mut stash_life[cov.stash_slot as usize];
                        for b in halves_in(cov.defines) {
                            if cov.kills >> b & 1 == 1 {
                                // Close the clobbered buffer here so accounting
                                // stays bounded on broken schedules.
                                let prev = &mut wl[slot[b]];
                                prev.kill = i;
                                cur.stash -= prev.size;
                            }
                            slot[b] = wl.len();
                            let key = 2 * u64::from(cov.micro) + b as u64;
                            wl.push(life(BufferKind::Stash, key, usize::MAX, per));
                            cur.stash += per;
                        }
                    }
                    check_peak(&cur, i);
                }
                OpKind::Backward { recompute } => {
                    // Defs first: the rematerialization and the gradient are
                    // resident together with the stash they are computed from.
                    let remat_size = if recompute {
                        sizes.full_stash(op) - sizes.boundary_stash(op)
                    } else {
                        0.0
                    };
                    if recompute {
                        wl.push(life(BufferKind::Remat, i as u64, i, remat_size));
                        cur.remat += remat_size;
                        check_peak(&cur, i);
                    }
                    let gsize = sizes.grad_contribution(op);
                    if gsize > 0.0 {
                        pending_grads[h].push(wl.len());
                        wl.push(life(BufferKind::Grad, i as u64, usize::MAX, gsize));
                        cur.grads += gsize;
                        check_peak(&cur, i);
                    }
                    // Kills: the consumed stash halves (and the transient
                    // rematerialization) die at this op's end, and with the
                    // last reader the weight version it read.
                    cur.remat -= remat_size;
                    for cov in row.covered() {
                        for b in halves_in(cov.kills) {
                            let dead = &mut wl[stash_life[cov.stash_slot as usize][b]];
                            dead.kill = i;
                            cur.stash -= dead.size;
                        }
                        if let (Some(slot), true) = (cov.version_slot, cov.frees_version) {
                            let dead = &mut wl[version_life[slot as usize]];
                            dead.kill = i;
                            cur.weight_versions -= dead.size;
                        }
                    }
                }
                OpKind::AllReduceLaunch => {
                    for idx in pending_grads[h].drain(..) {
                        wl[idx].kill = i;
                        cur.grads -= wl[idx].size;
                    }
                }
                OpKind::AllReduceWait => {
                    if let Some(slot) = row.parks_version {
                        // Copy-on-update: the superseded version is still
                        // referenced by in-flight micros and is materialized
                        // before the update overwrites it.
                        let size = sizes.weight_version(op.stage);
                        version_life[slot as usize] = wl.len();
                        wl.push(life(
                            BufferKind::WeightVersion,
                            updates[h],
                            usize::MAX,
                            size,
                        ));
                        cur.weight_versions += size;
                        check_peak(&cur, i);
                    }
                    updates[h] += 1;
                }
            }
        }

        // Buffers never killed in the span stay live through the tail.
        let last = program.ops.saturating_sub(1);
        for b in &mut wl {
            if b.kill == usize::MAX {
                b.kill = last;
            }
        }
        self.lives.push(wl);
        self.peak.push(peak.value);
        self.cliff.push(peak.at);
        self.breakdown.push(at_peak);
        self.activation_peak.push(activation_peak.value);
        self.activation_cliff.push(activation_peak.at);
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
