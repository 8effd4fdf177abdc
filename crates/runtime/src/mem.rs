//! Measured model footprints, the liveness-driven pool pre-sizing plan, and
//! the runtime's element-exact memory tracker.
//!
//! This is the runtime half of the static/dynamic memory contract:
//!
//! * [`ModelFootprint::probe`] measures each stage's real stash footprint
//!   (full and boundary-only) by running one probe forward — no formulas
//!   that can drift from the model code — and implements
//!   [`chimera_verify::liveness::BufferSizes`] in **f32 elements**, so the
//!   verifier's dataflow engine can price a schedule in exactly the units
//!   the runtime's [`MemTracker`] counts.
//! * [`plan`] prices the lowered programs — the rows the workers are about to
//!   execute — expands each statically-live buffer into its pool size-class
//!   census and takes the max-overlap per class: the number of same-class
//!   buffers ever held concurrently. Each worker pre-warms its
//!   thread-local pool to that plan, so even the cold first micro-batch
//!   allocates nothing.
//! * [`MemTracker`] measures the same buffers op for op inside the worker;
//!   `tests/mem_oracle.rs` pins the static peak equal to the tracked
//!   high-water mark, element-exact, across the scheme × depth matrix.

use std::collections::BTreeMap;

use chimera_core::op::Op;
use chimera_core::program::{lower, Program};
use chimera_core::schedule::Schedule;
use chimera_core::StageId;
use chimera_nn::{MicroStash, Stage};
use chimera_tensor::{pool, Tensor};
use chimera_verify::liveness::{self, BufferKind, BufferSizes};

/// Measured memory footprint of one pipeline stage, in f32 elements.
#[derive(Debug, Clone)]
pub struct StageFootprint {
    /// Elements of a full activation stash of one micro-batch.
    pub full_elems: usize,
    /// Elements of the boundary-only stash kept under recomputation.
    pub boundary_elems: usize,
    /// Pool size-class census of the full stash: `(class, buffer count)`.
    pub census_full: Vec<(usize, usize)>,
    /// Pool size-class census of the boundary stash.
    pub census_boundary: Vec<(usize, usize)>,
    /// Flat parameter count — the size of a weight version, a gradient
    /// contribution, and the allreduce round-trip buffers.
    pub params: usize,
}

/// Per-stage measured footprints of one model partitioning.
#[derive(Debug, Clone)]
pub struct ModelFootprint {
    /// Indexed by stage id.
    pub stages: Vec<StageFootprint>,
}

fn census(stash: &MicroStash) -> Vec<(usize, usize)> {
    let mut by_class: BTreeMap<usize, usize> = BTreeMap::new();
    stash.for_each_pooled(&mut |len| {
        if let Some(class) = pool::class_of_request(len) {
            *by_class.entry(class).or_insert(0) += 1;
        }
    });
    by_class.into_iter().collect()
}

impl ModelFootprint {
    /// Measure every stage's footprint (`stages` in stage order) by one
    /// probe forward per stage on synthetic shapes. Stash sizes depend only
    /// on shapes, never values, so the probe numbers are exactly what the
    /// training loop will stash.
    pub fn probe<'a>(stages: impl IntoIterator<Item = &'a Stage>, micro_batch: usize) -> Self {
        let fps = stages
            .into_iter()
            .map(|stage| {
                let cfg = stage.config();
                let rows = micro_batch * cfg.seq;
                let tokens = vec![0u32; rows];
                let targets = vec![0u32; rows];
                let (first, last) = (stage.index == 0, stage.index + 1 == stage.depth);
                let x = (!first).then(|| Tensor::zeros(rows, cfg.hidden));
                let (_, mut stash) = stage.forward(
                    x,
                    first.then_some(tokens.as_slice()),
                    last.then_some(targets.as_slice()),
                );
                let full_elems = stash.elements();
                let census_full = census(&stash);
                stash.drop_to_boundary();
                StageFootprint {
                    full_elems,
                    boundary_elems: stash.elements(),
                    census_boundary: census(&stash),
                    census_full,
                    params: stage.num_params(),
                }
            })
            .collect();
        ModelFootprint { stages: fps }
    }
}

impl BufferSizes for ModelFootprint {
    fn full_stash(&self, op: &Op) -> f64 {
        let covered = op.covered_micros().count() as f64;
        self.stages[op.stage.idx()].full_elems as f64 * covered
    }

    fn boundary_stash(&self, op: &Op) -> f64 {
        let covered = op.covered_micros().count() as f64;
        self.stages[op.stage.idx()].boundary_elems as f64 * covered
    }

    fn weight_version(&self, stage: StageId) -> f64 {
        self.stages[stage.idx()].params as f64
    }

    fn grad_contribution(&self, op: &Op) -> f64 {
        self.stages[op.stage.idx()].params as f64
    }
}

/// One worker's pool pre-sizing plan plus its static memory oracle.
#[derive(Debug, Clone)]
pub struct WorkerMemPlan {
    /// `(size class, max concurrently-held pooled buffers)` — how many spare
    /// buffers per class the worker's pool must hold, beyond one compute
    /// op's transient working set, for a zero-miss first iteration.
    pub classes: Vec<(usize, usize)>,
    /// Exact static peak of tracked dynamic memory (stashes, remats, weight
    /// versions, and the gradient a backward makes, which its stage's group
    /// takes before the next op), in f32 elements.
    pub static_peak_elems: u64,
    /// Op index whose execution first attains the peak.
    pub cliff: Option<usize>,
}

/// Price `sched`'s lowered programs with the verifier's liveness pass under
/// measured sizes and fold each worker's live buffers into a per-size-class
/// slot demand.
pub fn plan(sched: &Schedule, fp: &ModelFootprint) -> Vec<WorkerMemPlan> {
    plan_lowered(&lower(sched, 1).programs, fp)
}

/// [`plan`] over the programs a `train` call already lowered.
pub(crate) fn plan_lowered(programs: &[Program], fp: &ModelFootprint) -> Vec<WorkerMemPlan> {
    let rep = liveness::price(programs, fp);

    rep.lives
        .iter()
        .enumerate()
        .map(|(w, lives)| {
            let program = &programs[w];
            // Per held stage: whether its forwards stash the boundary only.
            let mut boundary_only = vec![false; program.held.len()];
            for row in &program.rows {
                boundary_only[row.held as usize] |= row.boundary_only;
            }
            let mut intervals: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
            let push = |intervals: &mut BTreeMap<usize, Vec<(usize, usize)>>,
                        class: usize,
                        count: usize,
                        range: (usize, usize)| {
                for _ in 0..count {
                    intervals.entry(class).or_default().push(range);
                }
            };
            // The engine tracks stashes at half-micro granularity; the pool
            // census is per whole stash, so merge halves back into one range
            // per (replica, stage, micro).
            let mut stash_ranges: BTreeMap<(u32, u32, u64), (usize, usize)> = BTreeMap::new();
            for b in lives {
                match b.kind {
                    BufferKind::Stash => {
                        let e = stash_ranges
                            .entry((b.replica, b.stage, b.key / 2))
                            .or_insert((b.def, b.kill));
                        e.0 = e.0.min(b.def);
                        e.1 = e.1.max(b.kill);
                    }
                    BufferKind::Remat => {
                        // Rematerialization rebuilds the full stash minus the
                        // boundary input that was already resident.
                        let st = &fp.stages[b.stage as usize];
                        let boundary: BTreeMap<usize, usize> =
                            st.census_boundary.iter().copied().collect();
                        for &(class, count) in &st.census_full {
                            let kept = boundary.get(&class).copied().unwrap_or(0);
                            push(
                                &mut intervals,
                                class,
                                count.saturating_sub(kept),
                                (b.def, b.kill),
                            );
                        }
                    }
                    // A backward's gradient is part of its own transient
                    // working set: the prewarm's dry backward warms it, and
                    // a folding group puts a buffer back in the same op (a
                    // wire member keeps it until the launch; no plan slot
                    // is kept for that).
                    BufferKind::Grad => {}
                    BufferKind::WeightVersion => {
                        if let Some(class) =
                            pool::class_of_request(fp.stages[b.stage as usize].params)
                        {
                            push(&mut intervals, class, 1, (b.def, b.kill));
                        }
                    }
                }
            }
            for ((replica, stage, _), range) in stash_ranges {
                let st = &fp.stages[stage as usize];
                let held = program.held.binary_search(&(replica, stage));
                let cen = if boundary_only[held.expect("a stash of a held stage")] {
                    &st.census_boundary
                } else {
                    &st.census_full
                };
                for &(class, count) in cen {
                    push(&mut intervals, class, count, range);
                }
            }
            let classes = intervals
                .into_iter()
                .map(|(c, iv)| (c, liveness::max_overlap(&iv)))
                .collect();
            WorkerMemPlan {
                classes,
                static_peak_elems: rep.peak[w].round() as u64,
                cliff: rep.cliff[w],
            }
        })
        .collect()
}

/// Element-exact accounting of the buffers a worker holds *across* ops:
/// activation stashes, rematerializations, copy-on-update weight versions,
/// and the gradient a backward makes until its stage's group takes it at
/// the end of the same op. Mirrors the event order of the static
/// fold in [`chimera_verify::liveness::price`] — defs (with a peak check)
/// before kills within one op — so the high-water mark is comparable to the
/// static peak, element for element.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemTracker {
    cur: u64,
    high: u64,
    high_at: Option<usize>,
}

impl MemTracker {
    /// A buffer of `elems` f32s becomes resident at op `at`.
    pub fn add(&mut self, elems: usize, at: usize) {
        self.cur += elems as u64;
        if self.cur > self.high {
            self.high = self.cur;
            self.high_at = Some(at);
        }
    }

    /// A buffer of `elems` f32s is freed.
    pub fn sub(&mut self, elems: usize) {
        self.cur = self.cur.saturating_sub(elems as u64);
    }

    /// Elements currently tracked as resident.
    pub fn current(&self) -> u64 {
        self.cur
    }

    /// The run's high-water mark in f32 elements.
    pub fn high_water(&self) -> u64 {
        self.high
    }

    /// Op index whose execution first attained the high-water mark.
    pub fn high_at(&self) -> Option<usize> {
        self.high_at
    }
}

/// Per-worker memory outcome of a training run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemReport {
    /// Observed high-water mark of tracked dynamic memory, f32 elements —
    /// the number the static oracle must equal exactly.
    pub high_water_elems: u64,
    /// Op index (within one iteration's schedule) that first attained it.
    pub high_at_op: Option<usize>,
    /// This worker thread's pool misses during its first executed compute
    /// op. Zero when pre-warming is on.
    pub first_micro_misses: u64,
    /// Pool misses across the whole first iteration.
    pub first_iter_misses: u64,
    /// Pool misses in every later iteration of the segment together. Zero
    /// once the pool is balanced: each iteration then puts back what it took.
    pub steady_misses: u64,
    /// Whether the worker pre-warmed its pool from the liveness plan.
    pub prewarmed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_core::named::build_named;
    use chimera_nn::ModelConfig;

    #[test]
    fn probe_matches_stage_measurements() {
        let cfg = ModelConfig::tiny();
        let stages = Stage::build_all(cfg, 4);
        let fp = ModelFootprint::probe(&stages, 2);
        assert_eq!(fp.stages.len(), 4);
        let rows = 2 * cfg.seq;
        // Stage 0: tokens only at the boundary; later stages keep the input.
        assert_eq!(fp.stages[0].boundary_elems, 0);
        assert_eq!(fp.stages[1].boundary_elems, rows * cfg.hidden);
        for (s, st) in fp.stages.iter().enumerate() {
            assert!(st.full_elems > st.boundary_elems, "stage {s}");
            assert_eq!(st.params, stages[s].num_params());
            let pooled: usize = st.census_full.iter().map(|&(_, c)| c).sum();
            assert!(pooled > 0, "stage {s} census empty");
        }
        // The last stage additionally stashes the head (probs are
        // rows × vocab — the largest single buffer).
        assert!(fp.stages[3].full_elems > fp.stages[1].full_elems);
    }

    #[test]
    fn plan_prices_async_versions_in_the_params_class() {
        let cfg = ModelConfig::tiny();
        let d = 4;
        let stages = Stage::build_all(cfg, d);
        let fp = ModelFootprint::probe(&stages, 2);
        let sched = build_named("pipedream", d, 2 * d).expect("pipedream schedule");
        let plans = plan(&sched, &fp);
        assert_eq!(plans.len(), sched.num_workers());
        // Stage 0 stashes weight versions in steady state: its plan must
        // provision more than one buffer in the params size class.
        let params_class = pool::class_of_request(fp.stages[0].params).expect("pooled");
        let w0 = &plans[0];
        let slots = w0
            .classes
            .iter()
            .find(|&&(c, _)| c == params_class)
            .map(|&(_, n)| n)
            .unwrap_or(0);
        assert!(slots >= 2, "stage-0 plan {slots} slots in params class");
        assert!(w0.static_peak_elems > 0);
        assert!(w0.cliff.is_some());
    }

    #[test]
    fn tracker_high_water_is_first_attained_max() {
        let mut t = MemTracker::default();
        t.add(10, 0);
        t.add(5, 1);
        t.sub(15);
        t.add(15, 3); // re-attains 15 — high_at stays at the first attainment
        assert_eq!(t.high_water(), 15);
        assert_eq!(t.high_at(), Some(1));
        assert_eq!(t.current(), 15);
        t.sub(100); // saturates
        assert_eq!(t.current(), 0);
    }
}
