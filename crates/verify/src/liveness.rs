//! Whole-schedule buffer-liveness dataflow engine: the one program-order walk
//! behind everything static about a worker's buffers.
//!
//! A worker's ops run sequentially, so its allocation events happen in program
//! order whatever the tick values. One register-allocator-style pass over
//! **every buffer a worker holds across ops** therefore yields the exact
//! memory picture of a schedule without executing it:
//!
//! * **Stash halves** — a forward defines one buffer per half-micro it covers
//!   (forward doubling defines four, backward halving kills one at a time),
//!   killed by the backward that consumes the half. Under recomputation the
//!   stashed buffer shrinks to the stage-boundary input and the backward
//!   carries a **rematerialization** buffer whose def and kill are the same op.
//! * **Weight versions** — non-flushing schedules (PipeDream-family weight
//!   stashing) materialize a parameter copy *at the update that supersedes a
//!   still-referenced version* (copy-on-update, one buffer per distinct
//!   version — not one per in-flight micro), killed by the backward of the
//!   last micro that references it.
//! * **Gradient contributions** — each backward defines one flat gradient
//!   buffer, killed by the next allreduce launch of its `(replica, stage)`
//!   (or live to the end of the span under post-hoc synchronization).
//!
//! Every buffer gets an exact live range `[def, kill]` (op indices, inclusive
//! on both ends: a buffer killed *by* op `i` is still resident while `i`
//! runs). From the ranges the engine derives:
//!
//! 1. an **exact peak** per worker — the max prefix sum of def/kill deltas in
//!    program order — and beside it the **activation-only** (stash + remat)
//!    peak, which reproduces `Timeline::peak_activations` bit-for-bit for any
//!    positive-cost provider (property-tested) and is the activation term of
//!    the coarse Table-2 bound;
//! 2. the **memory cliff** — the op whose execution first reaches each peak,
//!    with a per-kind breakdown at that instant;
//! 3. **interference**: two buffers interfere iff their ranges overlap; a
//!    deterministic linear scan over the interval graph assigns buffers to
//!    size-classed slots, and — intervals being an interval graph — uses
//!    exactly max-clique many slots per class (also the pool pre-sizing
//!    number the runtime consumes);
//! 4. the **stash-discipline diagnostics**, one per defective `(op, micro)`:
//!    `overwritten_stash` (a forward re-defines a half whose previous buffer
//!    is still live — WAW, the earlier activations are clobbered before their
//!    backward read them; located def→def), `use_before_def` (a backward
//!    over a micro with no live stash at all) and `double_free` (a backward
//!    over a half that was already freed while the other is still live).

use std::collections::HashMap;

use chimera_core::op::{Chunk, Op, OpKind};
use chimera_core::schedule::Schedule;
use chimera_core::unit_time::CostProvider;
use chimera_core::{MicroId, ReplicaId, StageId};
use chimera_sim::SimCostModel;

use crate::{Diagnostic, OpLoc, Severity};

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

impl BufferKind {
    fn idx(self) -> usize {
        match self {
            BufferKind::Stash => 0,
            BufferKind::Remat => 1,
            BufferKind::WeightVersion => 2,
            BufferKind::Grad => 3,
        }
    }
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

/// Activation-only sizing over any [`CostProvider`]: weight versions and
/// gradient contributions are 0, so the liveness peak equals the executor's
/// `peak_activations` exactly.
pub struct ActivationSizes<'a, C: CostProvider>(pub &'a C);

impl<C: CostProvider> BufferSizes for ActivationSizes<'_, C> {
    fn full_stash(&self, op: &Op) -> f64 {
        self.0.full_stash(op)
    }
    fn boundary_stash(&self, op: &Op) -> f64 {
        self.0.boundary_stash(op)
    }
    fn weight_version(&self, _stage: StageId) -> f64 {
        0.0
    }
    fn grad_contribution(&self, _op: &Op) -> f64 {
        0.0
    }
}

/// Simulator-byte sizing: stashes in `act_bytes`, weight versions in
/// `param_bytes`. Gradient contributions are sized 0 — the paper's Table-2
/// memory model folds the gradient accumulation buffer into the resident
/// `grad_opt_bytes`, and the coarse bound this analysis is cross-checked
/// against does the same.
pub struct SimSizes<'a>(pub &'a SimCostModel);

impl BufferSizes for SimSizes<'_> {
    fn full_stash(&self, op: &Op) -> f64 {
        CostProvider::full_stash(self.0, op)
    }
    fn boundary_stash(&self, op: &Op) -> f64 {
        CostProvider::boundary_stash(self.0, op)
    }
    fn weight_version(&self, stage: StageId) -> f64 {
        self.0.stages[stage.idx()].param_bytes as f64
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

impl KindBreakdown {
    fn from_cur(cur: &[f64; 4]) -> Self {
        KindBreakdown {
            stash: cur[0],
            remat: cur[1],
            weight_versions: cur[2],
            grads: cur[3],
        }
    }
}

/// The dataflow engine's result for one schedule.
#[derive(Debug, Clone)]
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

/// Per-`(replica, stage)` weight-version walk state.
#[derive(Default)]
struct VersionState {
    /// Current (resident) version id.
    current: u64,
    /// In-flight micros referencing the current (unmaterialized) version.
    current_refs: u32,
    /// Version each in-flight micro's forward read.
    by_micro: HashMap<u64, u64>,
    /// Materialized superseded versions: id → (lives index, refs).
    open: HashMap<u64, (usize, u32)>,
}

/// Half-micro ids (`2·micro + h`) of micro `m` that compute op `op` covers.
fn halves(op: &Op, m: MicroId) -> std::ops::RangeInclusive<u64> {
    let base = 2 * m.0 as u64;
    match op.chunk {
        Chunk::Half(h) => {
            let half = base + u64::from(h.min(1));
            half..=half
        }
        _ => base..=base + 1,
    }
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

/// Run the dataflow analysis over every worker of `sched` under `sizes`.
pub fn analyze<S: BufferSizes>(sched: &Schedule, sizes: &S) -> LivenessReport {
    let recomputing = sched.recomputing();
    let stash_weights = !sched.flushes;
    let (stash, remat, version, grad) = (
        BufferKind::Stash.idx(),
        BufferKind::Remat.idx(),
        BufferKind::WeightVersion.idx(),
        BufferKind::Grad.idx(),
    );

    let nw = sched.num_workers();
    let mut rep = LivenessReport {
        lives: Vec::with_capacity(nw),
        peak: Vec::with_capacity(nw),
        cliff: Vec::with_capacity(nw),
        breakdown: Vec::with_capacity(nw),
        activation_peak: Vec::with_capacity(nw),
        activation_cliff: Vec::with_capacity(nw),
        diagnostics: Vec::new(),
    };

    for (w, ops) in sched.workers.iter().enumerate() {
        let mut wl: Vec<BufferLife> = Vec::new();
        // (replica, stage, half) → index into `wl` of the live stash buffer.
        let mut open_stash: HashMap<(ReplicaId, StageId, u64), usize> = HashMap::new();
        // Halves of a micro's stash already killed (half-backward schemes).
        let mut half_done: HashMap<(ReplicaId, StageId, MicroId), u32> = HashMap::new();
        let mut versions: HashMap<(ReplicaId, StageId), VersionState> = HashMap::new();
        // (replica, stage) → indices of pending gradient contributions.
        let mut pending_grads: HashMap<(ReplicaId, StageId), Vec<usize>> = HashMap::new();

        let mut cur = [0.0f64; 4];
        let mut peak = Peak::default();
        let mut at_peak = KindBreakdown::default();
        let mut activation_peak = Peak::default();
        let mut check_peak = |cur: &[f64; 4], i: usize| {
            if peak.observe(cur.iter().sum(), i) {
                at_peak = KindBreakdown::from_cur(cur);
            }
            activation_peak.observe(cur[stash] + cur[remat], i);
        };

        for (i, op) in ops.iter().enumerate() {
            let rs = (op.replica, op.stage);
            let life = |kind, key, kill, size| BufferLife {
                kind,
                replica: op.replica.0,
                stage: op.stage.0,
                key,
                def: i,
                kill,
                size,
            };
            let mut defect = |code, message: String, at: Vec<usize>| {
                rep.diagnostics.push(Diagnostic {
                    code,
                    severity: Severity::Error,
                    message,
                    locations: at.into_iter().map(|j| OpLoc::of(sched, w, j)).collect(),
                });
            };
            match op.kind {
                OpKind::Forward => {
                    let total = if recomputing.contains(&rs) {
                        sizes.boundary_stash(op)
                    } else {
                        sizes.full_stash(op)
                    };
                    let per = total / f64::from(op.chunk.half_micros());
                    for m in op.covered_micros() {
                        // Def of the earliest still-live buffer this forward
                        // clobbers.
                        let mut clobbered: Option<usize> = None;
                        for half in halves(op, m) {
                            if let Some(prev) = open_stash.insert((rs.0, rs.1, half), wl.len()) {
                                // Close the clobbered buffer here so accounting
                                // stays bounded on broken schedules.
                                let def = wl[prev].def;
                                clobbered = Some(clobbered.map_or(def, |c| c.min(def)));
                                wl[prev].kill = i;
                                cur[stash] -= wl[prev].size;
                            }
                            wl.push(life(BufferKind::Stash, half, usize::MAX, per));
                            cur[stash] += per;
                        }
                        half_done.remove(&(rs.0, rs.1, m));
                        if let Some(def) = clobbered {
                            defect(
                                "overwritten_stash",
                                format!(
                                    "P{w} forward re-stashes {m}@{}/{} at op #{i} while the \
                                     stash defined at op #{def} is still live (its backward \
                                     has not read it) — the earlier activations are lost",
                                    op.stage, op.replica
                                ),
                                vec![def, i],
                            );
                        }
                    }
                    if stash_weights {
                        let st = versions.entry(rs).or_default();
                        for m in op.covered_micros() {
                            st.by_micro.insert(m.0 as u64, st.current);
                            st.current_refs += 1;
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
                        cur[remat] += remat_size;
                        check_peak(&cur, i);
                    }
                    let gsize = sizes.grad_contribution(op);
                    if gsize > 0.0 {
                        pending_grads.entry(rs).or_default().push(wl.len());
                        wl.push(life(BufferKind::Grad, i as u64, usize::MAX, gsize));
                        cur[grad] += gsize;
                        check_peak(&cur, i);
                    }
                    // Kills: the consumed stash halves (and the transient
                    // rematerialization) die at this op's end.
                    cur[remat] -= remat_size;
                    for m in op.covered_micros() {
                        let base = 2 * m.0 as u64;
                        let micro_live =
                            (base..=base + 1).any(|h| open_stash.contains_key(&(rs.0, rs.1, h)));
                        let mut missing = false;
                        for half in halves(op, m) {
                            match open_stash.remove(&(rs.0, rs.1, half)) {
                                Some(idx) => {
                                    wl[idx].kill = i;
                                    cur[stash] -= wl[idx].size;
                                }
                                None => missing = true,
                            }
                        }
                        if missing && micro_live {
                            defect(
                                "double_free",
                                format!(
                                    "P{w} backward at op #{i} frees a half of {m}@{}/{} that \
                                     was already freed",
                                    op.stage, op.replica
                                ),
                                vec![i],
                            );
                        } else if missing {
                            defect(
                                "use_before_def",
                                format!(
                                    "P{w} backward at op #{i} reads the stash of {m}@{}/{} \
                                     with no live buffer (never stashed, or already freed)",
                                    op.stage, op.replica
                                ),
                                vec![i],
                            );
                        }
                    }
                    if stash_weights {
                        let st = versions.entry(rs).or_default();
                        for m in op.covered_micros() {
                            let complete = match op.chunk {
                                Chunk::Half(_) => {
                                    let done = half_done.entry((rs.0, rs.1, m)).or_insert(0);
                                    *done += 1;
                                    *done == 2
                                }
                                _ => true,
                            };
                            if !complete {
                                continue;
                            }
                            let Some(v) = st.by_micro.remove(&(m.0 as u64)) else {
                                continue;
                            };
                            if v == st.current {
                                st.current_refs = st.current_refs.saturating_sub(1);
                            } else if let Some((idx, refs)) = st.open.remove(&v) {
                                if refs > 1 {
                                    st.open.insert(v, (idx, refs - 1));
                                } else {
                                    wl[idx].kill = i;
                                    cur[version] -= wl[idx].size;
                                }
                            }
                        }
                    }
                }
                OpKind::AllReduceLaunch => {
                    for idx in pending_grads.remove(&rs).unwrap_or_default() {
                        wl[idx].kill = i;
                        cur[grad] -= wl[idx].size;
                    }
                }
                OpKind::AllReduceWait => {
                    if stash_weights {
                        let st = versions.entry(rs).or_default();
                        if st.current_refs > 0 {
                            // Copy-on-update: the superseded version is still
                            // referenced by in-flight micros and must be
                            // materialized before the update overwrites it.
                            let size = sizes.weight_version(op.stage);
                            st.open.insert(st.current, (wl.len(), st.current_refs));
                            wl.push(life(
                                BufferKind::WeightVersion,
                                st.current,
                                usize::MAX,
                                size,
                            ));
                            cur[version] += size;
                            check_peak(&cur, i);
                        }
                        st.current += 1;
                        st.current_refs = 0;
                    }
                }
            }
        }

        // Buffers never killed in the span stay live through the tail.
        let last = ops.len().saturating_sub(1);
        for b in &mut wl {
            if b.kill == usize::MAX {
                b.kill = last;
            }
        }
        rep.lives.push(wl);
        rep.peak.push(peak.value);
        rep.cliff.push(peak.at);
        rep.breakdown.push(at_peak);
        rep.activation_peak.push(activation_peak.value);
        rep.activation_cliff.push(activation_peak.at);
    }
    rep
}

/// Deterministic linear-scan slot assignment over one class of intervals.
///
/// Input intervals are inclusive `[def, kill]` ranges. Returns the slot index
/// per interval (parallel to the input). The scan sorts by
/// `(def, kill, input index)` — a pure function of the intervals, so the
/// assignment is identical across runs, machines, and thread counts — and
/// always reuses the lowest free slot. On interval graphs the linear scan is
/// optimal: the number of slots used equals [`max_overlap`], the size of the
/// largest set of simultaneously-live intervals.
pub fn assign_slots(intervals: &[(usize, usize)]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_by_key(|&i| (intervals[i].0, intervals[i].1, i));
    // Active = (kill, slot); free = min-heap of released slots.
    let mut active: Vec<(usize, u32)> = Vec::new();
    let mut free = std::collections::BinaryHeap::new();
    let mut next = 0u32;
    let mut slots = vec![0u32; intervals.len()];
    for i in order {
        let (def, kill) = intervals[i];
        active.retain(|&(k, s)| {
            if k < def {
                free.push(std::cmp::Reverse(s));
                false
            } else {
                true
            }
        });
        let slot = match free.pop() {
            Some(std::cmp::Reverse(s)) => s,
            None => {
                let s = next;
                next += 1;
                s
            }
        };
        active.push((kill, slot));
        slots[i] = slot;
    }
    slots
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
        let slots = assign_slots(&[(0, 5), (5, 9), (6, 9)]);
        assert_ne!(slots[0], slots[1], "abutting intervals share an op");
        assert_eq!(slots[0], slots[2], "disjoint interval reuses the slot");
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
