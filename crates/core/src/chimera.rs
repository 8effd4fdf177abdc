//! The Chimera bidirectional pipeline schedule (§3, the paper's
//! contribution).
//!
//! `f` *down* pipelines and `f` *up* pipelines run through the same `D`
//! workers (§3.1, §3.6). Each directional pipeline schedules its share of the
//! `N` micro-batches with 1F1B; the per-worker sequences are then merged.
//! Merging is implemented as a work-conserving interleave driven by each
//! pipeline's stand-alone 1F1B slot times, which reproduces the paper's
//! hand-drawn schedules (Figs. 3, 5, 8) and generalizes to any even `D`,
//! any `f | D/2`, and any `N` — including the `N > D` scaling strategies of
//! §3.5 (*direct concatenation*, *forward doubling*, *backward halving*).

use crate::compact::{compact, Stream};
use crate::ids::{ReplicaId, StageId, WorkerId};
use crate::onefb::DirectionalPipeline;
use crate::op::Op;
use crate::placement::Placement;
use crate::schedule::{Schedule, Scheme, SyncStrategy};
use crate::unit_time::{execute, UnitCosts};

/// How Chimera scales to more micro-batches than pipeline stages (§3.5),
/// which is also how a [`DirectionalPipeline`] chunks its micro-batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScaleMethod {
    /// One full micro-batch per forward and per backward — a single 1F1B
    /// pipeline, as DAPPLE runs it. For Chimera: concatenate basic scheduling
    /// units of `D` micro-batches; the next unit's forwards occupy the
    /// previous unit's draining bubbles (Fig. 7(b)). Leaves intermediate
    /// bubbles because backward ≈ 2× forward.
    #[default]
    Direct,
    /// Equalize forward and backward slots by fusing two micro-batches per
    /// forward pass (Fig. 7(c,d)). Doubles activation pressure, so every
    /// backward recomputes its activations (§3.5).
    ForwardDoubling,
    /// Equalize slots by splitting each backward into two half-micro-batch
    /// chunks instead; no extra activation memory, but the halved batch may
    /// compute less efficiently.
    BackwardHalving,
}

/// Configuration of a Chimera schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChimeraConfig {
    /// Number of pipeline stages `D` (must be even).
    pub d: u32,
    /// Micro-batches per worker per iteration `N`.
    pub n: u32,
    /// Number of down/up pipeline *pairs* (`f` of §3.6; must divide `D/2`).
    /// The paper's default is `f = 1`.
    pub f: u32,
    /// Scaling strategy used when `N > D`.
    pub scale: ScaleMethod,
}

impl ChimeraConfig {
    /// The paper's default: two pipelines (`f = 1`), direct concatenation.
    pub fn new(d: u32, n: u32) -> Self {
        ChimeraConfig {
            d,
            n,
            f: 1,
            scale: ScaleMethod::Direct,
        }
    }
}

/// Schedule generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The configuration violates a structural requirement.
    InvalidConfig(String),
    /// Internal merge failure (should not happen for valid configs).
    Merge(String),
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::InvalidConfig(m) => write!(f, "invalid schedule config: {m}"),
            GenError::Merge(m) => write!(f, "Chimera merge failed: {m}"),
        }
    }
}

impl std::error::Error for GenError {}

/// One basic scheduling unit: a block of micro-batches distributed over the
/// `2f` pipelines.
struct Unit {
    first_micro: u32,
    num_micros: u32,
    mode: ScaleMethod,
}

/// Generate the Chimera schedule for `cfg`.
///
/// ```
/// use chimera_core::chimera::{chimera, ChimeraConfig};
/// use chimera_core::unit_time::{execute, UnitCosts};
///
/// // The paper's Figure-3 schedule: D = 4 stages, N = 4 micro-batches.
/// let sched = chimera(&ChimeraConfig::new(4, 4)).unwrap();
/// let tl = execute(&sched, UnitCosts::equal()).unwrap();
/// // D - 2 bubble slots per worker (Table 2), i.e. half of DAPPLE's.
/// assert_eq!(tl.per_worker_bubbles(), vec![4, 4, 4, 4]);
/// ```
pub fn chimera(cfg: &ChimeraConfig) -> Result<Schedule, GenError> {
    let (placement, streams, costs, micro_window) = merge_input(cfg)?;
    let (workers, _) = compact(cfg.d, &placement, &streams, costs, micro_window)?;
    let sched = Schedule {
        scheme: Scheme::Chimera,
        d: cfg.d,
        n: cfg.n,
        placement,
        workers,
        flushes: true,
        sync: SyncStrategy::None,
    };
    sched.assert_well_formed();
    Ok(sched)
}

/// Whether the backwards of [`chimera`]'s schedule for `cfg` recompute — some
/// basic unit is a forward-doubling one — answered from the unit plan alone,
/// for a caller that must name the schedule's shape without generating it.
pub fn recomputes(cfg: &ChimeraConfig) -> bool {
    let doubling = |unit: &Unit| unit.mode == ScaleMethod::ForwardDoubling;
    cfg.d > 0 && plan_units(cfg.d, cfg.n, cfg.scale).iter().any(doubling)
}

/// What [`compact`] merges into the schedule for `cfg`: the placement, the
/// per-worker streams, the merge costs and the micro window.
#[allow(clippy::type_complexity)]
pub(crate) fn merge_input(
    cfg: &ChimeraConfig,
) -> Result<(Placement, Vec<Vec<Stream>>, UnitCosts, u32), GenError> {
    let ChimeraConfig { d, n, f, scale } = *cfg;
    if d == 0 || d % 2 != 0 {
        return Err(GenError::InvalidConfig(format!("D must be even, got {d}")));
    }
    if f == 0 || (d / 2) % f != 0 {
        return Err(GenError::InvalidConfig(format!(
            "f must divide D/2 (D={d}, f={f})"
        )));
    }
    if n == 0 {
        return Err(GenError::InvalidConfig("N must be >= 1".into()));
    }

    let placement = Placement::bidirectional(d, f);
    let units = plan_units(d, n, scale);
    // Direct concatenation admits one D-micro unit's worth of run-ahead;
    // forward doubling and backward halving use 2D-micro basic units whose
    // down/up halves must be concurrently admissible.
    let micro_window = match scale {
        ScaleMethod::Direct => d,
        _ => 2 * d,
    };

    // Per worker, one stream per (directional pipeline, basic unit): within
    // a unit each pipeline's 1F1B order is mandatory, but consecutive units
    // are only coupled through data dependencies and the in-flight cap —
    // which is what lets the next unit's forwards occupy the previous
    // unit's draining bubbles (§3.5, Fig. 7(b)). Priorities derived from
    // each pipeline's stand-alone 1F1B slot times (offset per unit) keep the
    // interleaving deterministic and unit-ordered.
    let mut streams: Vec<Vec<Stream>> = (0..d).map(|_| Vec::new()).collect();

    let mut prio_offset = 0u64;
    for unit in &units {
        let pipelines = split_unit(d, f, unit);
        let mut unit_max_prio = prio_offset;
        for pipe in &pipelines {
            if pipe.num_micros == 0 {
                continue;
            }
            let costs = merge_costs(pipe.mode);
            let slots = standalone_slots(&placement, pipe, costs)
                .map_err(|e| GenError::Merge(format!("standalone 1F1B failed: {e}")))?;
            for (w, ops) in slots {
                let mut stream = Stream {
                    ops: Vec::with_capacity(ops.len()),
                    priority: Vec::with_capacity(ops.len()),
                };
                for (start, op) in ops {
                    let prio = prio_offset + start * (4 * d as u64) + tie_break(d, &op);
                    unit_max_prio = unit_max_prio.max(prio + 1);
                    stream.ops.push(op);
                    stream.priority.push(prio);
                }
                if !stream.ops.is_empty() {
                    streams[w.idx()].push(stream);
                }
            }
        }
        prio_offset = unit_max_prio;
    }
    Ok((placement, streams, merge_costs(scale), micro_window))
}

/// Equal-slot costs used to derive merge priorities for a mode: chosen so
/// every slot of the mode has the same duration, which is the regime in which
/// the paper's conflict-freedom guarantee holds.
fn merge_costs(mode: ScaleMethod) -> UnitCosts {
    match mode {
        // F = 2, B = 2.
        ScaleMethod::Direct => UnitCosts::equal(),
        // F(pair) = 4, B(full + recompute) = 2 + 2 = 4.
        ScaleMethod::ForwardDoubling => UnitCosts {
            fwd: 2,
            bwd: 2,
            recompute_extra: 2,
            ..UnitCosts::equal()
        },
        // F = 2, B(half) = 4 / 2 = 2.
        ScaleMethod::BackwardHalving => UnitCosts {
            fwd: 2,
            bwd: 4,
            ..UnitCosts::equal()
        },
    }
}

/// Merge tie-break (derived from the paper's Figs. 3/5/8): at equal slots,
/// backwards run before forwards, deeper-stage backwards drain last
/// (lower stage first), and deeper-stage forwards inject first.
fn tie_break(d: u32, op: &Op) -> u64 {
    if op.is_backward() {
        op.stage.0 as u64
    } else {
        (d + (d - op.stage.0)) as u64
    }
}

/// Split a unit's micro-batches across the `2f` pipelines "as evenly as
/// possible" (§3.1), contiguously in replica order; pairs stay intact under
/// forward doubling.
fn split_unit(d: u32, f: u32, unit: &Unit) -> Vec<DirectionalPipeline> {
    let replicas = 2 * f;
    let granularity = match unit.mode {
        ScaleMethod::ForwardDoubling => 2,
        _ => 1,
    };
    let blocks = unit.num_micros / granularity;
    let rem_micros = unit.num_micros % granularity;
    let base = blocks / replicas;
    let rem = blocks % replicas;
    let mut pipelines = Vec::with_capacity(replicas as usize);
    let mut next = unit.first_micro;
    for k in 0..replicas {
        let mut count = (base + u32::from(k < rem)) * granularity;
        // A stray odd micro under doubling falls to the first pipeline as a
        // normal (unpaired) micro — handled by planning units so this does
        // not occur; assert to be safe.
        if k == replicas - 1 {
            count += rem_micros;
            debug_assert_eq!(rem_micros, 0, "units must respect pairing granularity");
        }
        pipelines.push(DirectionalPipeline {
            d,
            replica: ReplicaId(k),
            first_micro: next,
            num_micros: count,
            mode: unit.mode,
        });
        next += count;
    }
    pipelines
}

/// Plan the sequence of basic scheduling units covering all `n` micros
/// (§3.5): direct concatenation uses `D`-micro units; forward doubling and
/// backward halving use `2D`-micro units plus a residual `D`-micro normal
/// unit when `K = N/D` is odd.
fn plan_units(d: u32, n: u32, scale: ScaleMethod) -> Vec<Unit> {
    let mut units = Vec::new();
    let mut first = 0u32;
    let mut left = n;
    let unit_size = match scale {
        ScaleMethod::Direct => d,
        _ => 2 * d,
    };
    while left >= unit_size {
        units.push(Unit {
            first_micro: first,
            num_micros: unit_size,
            mode: scale,
        });
        first += unit_size;
        left -= unit_size;
    }
    if left > 0 {
        // Residual: full-D residue keeps the scaling mode when it still fits
        // the mode's granularity; otherwise fall back to a normal unit.
        let residual_mode = match scale {
            ScaleMethod::ForwardDoubling if !left.is_multiple_of(2) => ScaleMethod::Direct,
            m => m,
        };
        units.push(Unit {
            first_micro: first,
            num_micros: left,
            mode: residual_mode,
        });
    }
    units
}

/// Execute one directional pipeline stand-alone and return, per worker, its
/// `(start_tick, op)` list.
#[allow(clippy::type_complexity)]
fn standalone_slots(
    placement: &Placement,
    pipe: &DirectionalPipeline,
    costs: UnitCosts,
) -> Result<Vec<(WorkerId, Vec<(u64, Op)>)>, crate::unit_time::ExecError> {
    let d = pipe.d;
    let mut workers: Vec<Vec<Op>> = vec![Vec::new(); d as usize];
    for s in 0..d {
        let w = placement.worker(pipe.replica, StageId(s));
        workers[w.idx()] = pipe.stage_ops(StageId(s));
    }
    let sched = Schedule {
        scheme: Scheme::Chimera,
        d,
        n: pipe.first_micro + pipe.num_micros,
        placement: placement.clone(),
        workers,
        flushes: true,
        sync: SyncStrategy::None,
    };
    let tl = execute(&sched, costs)?;
    Ok(tl
        .spans
        .iter()
        .enumerate()
        .map(|(w, spans)| {
            (
                WorkerId(w as u32),
                spans.iter().map(|sp| (sp.start, sp.op)).collect(),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use crate::program::lower;

    fn render(ops: &[Op]) -> String {
        ops.iter().map(Op::to_string).collect::<Vec<_>>().join(" ")
    }

    /// The D=4, N=4 schedule of Figures 3/5: exact per-worker op orders.
    #[test]
    fn d4_n4_matches_figure5() {
        let s = chimera(&ChimeraConfig::new(4, 4)).unwrap();
        // Micros 0,1 on the down pipeline (replica 0), 2,3 on up (replica 1).
        assert_eq!(
            render(&s.workers[0]),
            "Fm0@s0/r0 Fm1@s0/r0 Fm2@s3/r1 Bm2@s3/r1 Fm3@s3/r1 Bm3@s3/r1 Bm0@s0/r0 Bm1@s0/r0"
        );
        assert_eq!(
            render(&s.workers[1]),
            "Fm0@s1/r0 Fm2@s2/r1 Fm1@s1/r0 Fm3@s2/r1 Bm2@s2/r1 Bm0@s1/r0 Bm3@s2/r1 Bm1@s1/r0"
        );
        assert_eq!(
            render(&s.workers[2]),
            "Fm2@s1/r1 Fm0@s2/r0 Fm3@s1/r1 Fm1@s2/r0 Bm0@s2/r0 Bm2@s1/r1 Bm1@s2/r0 Bm3@s1/r1"
        );
        assert_eq!(
            render(&s.workers[3]),
            "Fm2@s0/r1 Fm3@s0/r1 Fm0@s3/r0 Bm0@s3/r0 Fm1@s3/r0 Bm1@s3/r0 Bm2@s0/r1 Bm3@s0/r1"
        );
    }

    /// Chimera with N = D incurs exactly D/f - 2 bubble slots per worker
    /// under equal forward/backward workloads (Table 3 ⇒ D - 2 for f = 1).
    #[test]
    fn bubbles_match_table_formula_equal_costs() {
        for (d, f) in [
            (4u32, 1u32),
            (6, 1),
            (8, 1),
            (8, 2),
            (12, 2),
            (16, 4),
            (32, 1),
        ] {
            let s = chimera(&ChimeraConfig {
                d,
                n: d,
                f,
                scale: ScaleMethod::Direct,
            })
            .unwrap();
            let tl = execute(&s, UnitCosts::equal()).unwrap();
            let tick = 2; // equal() uses 2 ticks per slot
            let expected_makespan = (2 * d + d / f - 2) as u64 * tick;
            assert_eq!(
                tl.makespan, expected_makespan,
                "D={d} f={f}: makespan {} != {}",
                tl.makespan, expected_makespan
            );
            for (w, b) in tl.per_worker_bubbles().iter().enumerate() {
                assert_eq!(
                    *b,
                    (d / f - 2) as u64 * tick,
                    "D={d} f={f} worker {w} bubbles"
                );
            }
        }
    }

    /// Bubble ratio under equal workloads matches Table 2/3:
    /// (D - 2f) / (2fN + D - 2f) ... expressed per worker with N micros.
    #[test]
    fn bubble_ratio_formula() {
        for (d, f) in [(8u32, 1u32), (8, 2), (16, 2)] {
            let s = chimera(&ChimeraConfig {
                d,
                n: d,
                f,
                scale: ScaleMethod::Direct,
            })
            .unwrap();
            let tl = execute(&s, UnitCosts::equal()).unwrap();
            let n = d as f64;
            let df = d as f64 / f as f64;
            let expected = (df - 2.0) / (2.0 * n + df - 2.0);
            assert!(
                (tl.bubble_ratio() - expected).abs() < 1e-9,
                "D={d} f={f}: {} vs {}",
                tl.bubble_ratio(),
                expected
            );
        }
    }

    /// Under practical workloads (B = 2F) the N=D schedule has ratio
    /// (D-2)/(3N/2 + D - 2) (Fig. 2 caption).
    #[test]
    fn practical_bubble_ratio_matches_fig2() {
        for d in [4u32, 8, 16] {
            let s = chimera(&ChimeraConfig::new(d, d)).unwrap();
            let tl = execute(&s, UnitCosts::practical()).unwrap();
            let n = d as f64;
            let expected = (d as f64 - 2.0) / (1.5 * n + d as f64 - 2.0);
            assert!(
                (tl.bubble_ratio() - expected).abs() < 1e-9,
                "D={d}: {} vs {}",
                tl.bubble_ratio(),
                expected
            );
        }
    }

    /// N < D still works, down pipeline taking the larger share.
    #[test]
    fn fewer_micros_than_stages() {
        for n in 1..4u32 {
            let s = chimera(&ChimeraConfig::new(4, n)).unwrap();
            let tl = execute(&s, UnitCosts::equal()).unwrap();
            assert!(tl.makespan > 0);
            assert_eq!(s.micros().len(), n as usize);
            // Every micro traverses all 4 stages forward and backward.
            assert_eq!(s.num_compute_ops(), (n * 4 * 2) as usize);
        }
    }

    /// N > D via direct concatenation executes everything and keeps
    /// activations bounded by D per worker.
    #[test]
    fn direct_concat_scales_and_bounds_memory() {
        for k in [2u32, 3, 4] {
            let d = 4;
            let n = k * d;
            let s = chimera(&ChimeraConfig::new(d, n)).unwrap();
            assert_eq!(s.num_compute_ops(), (n * d * 2) as usize);
            execute(&s, UnitCosts::practical()).unwrap();
            for p in lower(&s, 1).programs {
                assert!(p.stash_slots <= d as usize, "k={k} peak {}", p.stash_slots);
            }
        }
    }

    /// Forward doubling halves the number of forward slots and removes the
    /// intermediate bubbles of direct concatenation.
    #[test]
    fn forward_doubling_beats_direct_on_makespan_with_recompute_free() {
        // Compare under costs where recompute is free, isolating the bubble
        // structure: doubling should not be slower than direct.
        let d = 8;
        let n = 32;
        let direct = chimera(&ChimeraConfig::new(d, n)).unwrap();
        let doubling = chimera(&ChimeraConfig {
            d,
            n,
            f: 1,
            scale: ScaleMethod::ForwardDoubling,
        })
        .unwrap();
        let costs = UnitCosts {
            fwd: 2,
            bwd: 4,
            recompute_extra: 0,
            ..UnitCosts::equal()
        };
        let t_direct = execute(&direct, costs).unwrap();
        let t_doubling = execute(&doubling, costs).unwrap();
        assert!(
            t_doubling.makespan <= t_direct.makespan,
            "doubling {} vs direct {}",
            t_doubling.makespan,
            t_direct.makespan
        );
    }

    /// Backward halving covers every micro with two half chunks.
    #[test]
    fn backward_halving_structure() {
        let d = 4;
        let n = 8;
        let s = chimera(&ChimeraConfig {
            d,
            n,
            f: 1,
            scale: ScaleMethod::BackwardHalving,
        })
        .unwrap();
        // Forwards: n per worker; backwards: 2n halves per worker.
        for w in 0..d {
            let (fwd, bwd) = s.compute_op_counts(WorkerId(w));
            assert_eq!(fwd, n as usize);
            assert_eq!(bwd, 2 * n as usize);
        }
        execute(&s, UnitCosts::practical()).unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(matches!(
            chimera(&ChimeraConfig::new(3, 3)),
            Err(GenError::InvalidConfig(_))
        ));
        assert!(matches!(
            chimera(&ChimeraConfig {
                d: 8,
                n: 8,
                f: 3,
                scale: ScaleMethod::Direct
            }),
            Err(GenError::InvalidConfig(_))
        ));
        assert!(matches!(
            chimera(&ChimeraConfig::new(4, 0)),
            Err(GenError::InvalidConfig(_))
        ));
    }

    /// `recomputes` names what the generator does, on every shape it accepts.
    #[test]
    fn recomputes_says_what_the_generated_backwards_do() {
        let scales = [
            ScaleMethod::Direct,
            ScaleMethod::ForwardDoubling,
            ScaleMethod::BackwardHalving,
        ];
        let mut recomputing = 0;
        for (d, f) in [(2, 1), (4, 1), (4, 2), (8, 1), (8, 2)] {
            for n in (1..=4 * d).chain([5 * d, 8 * d]) {
                for scale in scales {
                    let cfg = ChimeraConfig { d, n, f, scale };
                    let Ok(s) = chimera(&cfg) else { continue };
                    let generated = s.iter_ops().any(|(_, _, op)| op.recomputes());
                    assert_eq!(recomputes(&cfg), generated, "{cfg:?}");
                    recomputing += usize::from(generated);
                }
            }
        }
        assert!(recomputing > 50, "{recomputing} recomputing shapes");
        assert!(!recomputes(&ChimeraConfig::new(0, 4)));
    }

    /// f = D/2 makes each pipeline a single stage deep... every worker hosts
    /// all stages; the schedule still executes (degenerates toward data
    /// parallelism).
    #[test]
    fn f_max_degenerates_cleanly() {
        let d = 4;
        let s = chimera(&ChimeraConfig {
            d,
            n: d,
            f: 2,
            scale: ScaleMethod::Direct,
        })
        .unwrap();
        let tl = execute(&s, UnitCosts::equal()).unwrap();
        // Table 3: bubbles = D/f - 2 = 0 — perfectly packed.
        assert_eq!(tl.per_worker_bubbles(), vec![0, 0, 0, 0]);
    }
}
