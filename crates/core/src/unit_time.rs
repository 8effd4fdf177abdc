//! Dependency-driven execution of a schedule under abstract integer costs.
//!
//! Schedules only fix each worker's op *order*; this module derives the
//! resulting timeline: every worker executes its ops strictly in order, each
//! op starting when the worker is free *and* its data dependencies have
//! arrived. Bubbles, overlap, and the "practical" shapes of Fig. 3/7 (where a
//! backward pass costs about twice a forward pass) all emerge from this
//! execution, exactly as they do in a real pipeline runtime.
//!
//! Costs are integer "ticks". Using `fwd = 2` keeps all derived costs (e.g.
//! half-micro backward chunks) integral.

use crate::dep::DepTracker;
use crate::ids::{ReplicaId, StageId, WorkerId};
use crate::op::{Chunk, Op, OpKind};
use crate::schedule::Schedule;

/// A cost model for dependency-driven execution.
///
/// Times are integer *ticks*; what a tick means is up to the provider
/// ([`UnitCosts`] uses abstract slots, the `chimera-sim` crate uses
/// nanoseconds).
pub trait CostProvider {
    /// Execution time of `op` on its worker.
    fn op_cost(&self, op: &Op) -> u64;
    /// Transfer delay for `op`'s input arriving from `from` on `to`
    /// (activation for forwards, output gradient for backwards). Called only
    /// when `from != to` never holds — providers should return 0 when
    /// `from == to`.
    fn p2p_delay(&self, from: WorkerId, to: WorkerId, op: &Op) -> u64;
    /// Duration of the gradient allreduce for `stage`, measured from the
    /// last participant's launch.
    fn allreduce_duration(&self, stage: StageId) -> u64;
}

/// Abstract op costs in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitCosts {
    /// Ticks for a full-micro forward pass.
    pub fwd: u64,
    /// Ticks for a full-micro backward pass (≈ `2 * fwd` in practice, §2).
    pub bwd: u64,
    /// Extra ticks a backward pays for activation recomputation (≈ one
    /// forward, \[11\]).
    pub recompute_extra: u64,
    /// Point-to-point transfer delay between dependent ops on different
    /// workers.
    pub p2p: u64,
    /// Duration of a gradient allreduce, measured from the last launch.
    pub allreduce: u64,
    /// Compute-time overhead a worker pays to launch a non-blocking
    /// allreduce (initialization/threading overheads of §3.2).
    pub launch_overhead: u64,
}

impl UnitCosts {
    /// Idealized equal forward/backward workloads (upper-right of Fig. 3).
    pub fn equal() -> Self {
        UnitCosts {
            fwd: 2,
            bwd: 2,
            recompute_extra: 2,
            p2p: 0,
            allreduce: 0,
            launch_overhead: 0,
        }
    }

    /// Practical workloads: backward ≈ 2× forward (bottom-right of Fig. 3).
    pub fn practical() -> Self {
        UnitCosts {
            bwd: 4,
            ..UnitCosts::equal()
        }
    }

    /// Costs with a **measured** backward/forward ratio, e.g. the
    /// `calibration.bwd_over_fwd` value `fig_kernels` measures: one
    /// transformer block's backward time over its forward time.
    ///
    /// Uses `fwd = 100` ticks so the rounded ratio keeps ~1% resolution and
    /// all derived costs (half-micro chunks = `fwd/2`) stay integral.
    /// Non-finite or absurd ratios are clamped to `[0.1, 10]` — a
    /// calibration artifact can be stale or truncated, and the simulator
    /// must stay well-defined.
    pub fn calibrated(bwd_over_fwd: f64) -> Self {
        let ratio = if bwd_over_fwd.is_finite() {
            bwd_over_fwd.clamp(0.1, 10.0)
        } else {
            2.0
        };
        let fwd = 100u64;
        UnitCosts {
            fwd,
            bwd: (fwd as f64 * ratio).round() as u64,
            recompute_extra: fwd,
            p2p: 0,
            allreduce: 0,
            launch_overhead: 0,
        }
    }

    /// Ticks for one op.
    pub fn cost(&self, op: &Op) -> u64 {
        match op.kind {
            OpKind::Forward => match op.chunk {
                Chunk::Full => self.fwd,
                Chunk::Pair => 2 * self.fwd,
                Chunk::Half(_) => self.fwd / 2,
            },
            OpKind::Backward { recompute } => {
                let full = self.bwd + if recompute { self.recompute_extra } else { 0 };
                match op.chunk {
                    Chunk::Full => full,
                    Chunk::Pair => 2 * full,
                    Chunk::Half(_) => full / 2,
                }
            }
            OpKind::AllReduceLaunch => self.launch_overhead,
            OpKind::AllReduceWait => 0,
        }
    }
}

impl CostProvider for UnitCosts {
    fn op_cost(&self, op: &Op) -> u64 {
        self.cost(op)
    }

    fn p2p_delay(&self, from: WorkerId, to: WorkerId, _op: &Op) -> u64 {
        if from == to {
            0
        } else {
            self.p2p
        }
    }

    fn allreduce_duration(&self, _stage: StageId) -> u64 {
        self.allreduce
    }
}

/// Start/finish of one executed op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpan {
    /// The op.
    pub op: Op,
    /// Tick at which execution started.
    pub start: u64,
    /// Tick at which execution finished (`start + cost`).
    pub finish: u64,
}

/// Result of executing a schedule.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Per worker, per op (in schedule order): its span.
    pub spans: Vec<Vec<OpSpan>>,
    /// Completion time of the whole iteration.
    pub makespan: u64,
    /// Compute ticks per worker (forward + backward, incl. recompute and
    /// launch overhead; excludes waiting).
    pub busy: Vec<u64>,
}

impl Timeline {
    /// `bubble overhead / overall runtime` (paper §2), averaged over workers.
    pub fn bubble_ratio(&self) -> f64 {
        if self.makespan == 0 || self.busy.is_empty() {
            return 0.0;
        }
        let total_idle: u64 = self.busy.iter().map(|&b| self.makespan - b).sum();
        total_idle as f64 / (self.makespan as f64 * self.busy.len() as f64)
    }

    /// Idle ticks within the makespan, per worker.
    pub fn per_worker_bubbles(&self) -> Vec<u64> {
        self.busy.iter().map(|&b| self.makespan - b).collect()
    }

    /// Finish tick of the last backward op of `(replica, stage)` on `worker`,
    /// if any.
    pub fn last_backward_finish(
        &self,
        worker: WorkerId,
        replica: ReplicaId,
        stage: StageId,
    ) -> Option<u64> {
        self.spans[worker.idx()]
            .iter()
            .filter(|s| s.op.is_backward() && s.op.replica == replica && s.op.stage == stage)
            .map(|s| s.finish)
            .max()
    }

    /// Finish tick of the last *compute* op on `worker`.
    pub fn last_compute_finish(&self, worker: WorkerId) -> u64 {
        self.spans[worker.idx()]
            .iter()
            .filter(|s| s.op.is_compute())
            .map(|s| s.finish)
            .max()
            .unwrap_or(0)
    }
}

/// One worker stuck at its next op when dependency-driven execution stops
/// making progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedOp {
    /// The stuck worker.
    pub worker: WorkerId,
    /// Index of the stuck op in the worker's sequence.
    pub op_index: usize,
    /// Textual rendering of the stuck op.
    pub op: String,
}

impl std::fmt::Display for BlockedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} op #{} ({})", self.worker, self.op_index, self.op)
    }
}

/// Why execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// No worker could make progress: a dependency is missing from the
    /// schedule or the per-worker orders form a cross-worker cycle. Carries
    /// every blocked `(worker, op index)` so static analysis
    /// (`chimera-verify`) and this dynamic path report comparable
    /// diagnostics.
    Deadlock {
        /// All workers stuck at their next op, in worker order.
        blocked: Vec<BlockedOp>,
    },
    /// The iteration count passed to `simulate_span` cannot describe the
    /// schedule: zero, or not a divisor of the schedule's total micro-batch
    /// count (an unrolled span must cover whole iterations).
    InvalidIterations {
        /// The offending iteration count.
        iterations: u32,
        /// The schedule's total micro-batches (`Schedule::n`).
        n: u32,
    },
    /// The schedule's op counts are inconsistent with the span it claims to
    /// cover: some stage does not forward/backward every micro-batch exactly
    /// once (counted in half-micro units so doubled/halved chunks compare).
    InconsistentSpan {
        /// First stage found with a mismatched op count.
        stage: StageId,
        /// Half-micros each direction must cover (`2 * Schedule::n`).
        expected_half_micros: u64,
        /// Half-micros covered by the stage's forward ops.
        forward_half_micros: u64,
        /// Half-micros covered by the stage's backward ops.
        backward_half_micros: u64,
    },
    /// The op names a stage or replica the placement does not have, or a
    /// micro-batch past the schedule's `N`: nothing is executed.
    OutOfRange(BlockedOp),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Deadlock { blocked } => {
                write!(f, "schedule deadlock: {} worker(s) stuck (", blocked.len())?;
                for (i, b) in blocked.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{b}")?;
                }
                f.write_str("); missing dependency or cyclic worker orders")
            }
            ExecError::InvalidIterations { iterations, n } => write!(
                f,
                "invalid span: {iterations} iteration(s) cannot cover a schedule \
                 of {n} micro-batches (need a positive divisor of N)"
            ),
            ExecError::InconsistentSpan {
                stage,
                expected_half_micros,
                forward_half_micros,
                backward_half_micros,
            } => write!(
                f,
                "inconsistent schedule span: {stage} covers {forward_half_micros} \
                 forward / {backward_half_micros} backward half-micros, expected \
                 {expected_half_micros} each"
            ),
            ExecError::OutOfRange(op) => write!(f, "{op} names ids outside the schedule"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Check that `sched`'s op counts are consistent with a span of `iterations`
/// training iterations: `iterations` must be a positive divisor of the
/// schedule's micro-batch total, and every stage must forward and backward
/// each micro-batch exactly once (counted in half-micro units, so §3.5's
/// doubled and halved chunks are weighted correctly). Ids outside the
/// schedule are refused first.
pub fn validate_span(sched: &Schedule, iterations: u32) -> Result<(), ExecError> {
    span_tracker(sched, iterations).map(drop)
}

/// The executor's tables for `sched`, once [`validate_span`] passes.
fn span_tracker(sched: &Schedule, iterations: u32) -> Result<DepTracker, ExecError> {
    let (deps, covered) = DepTracker::of(sched)?;
    if iterations == 0 || !sched.n.is_multiple_of(iterations) {
        return Err(ExecError::InvalidIterations {
            iterations,
            n: sched.n,
        });
    }
    let expected = 2 * sched.n as u64;
    match covered.iter().position(|&c| c != [expected; 2]) {
        Some(s) => Err(ExecError::InconsistentSpan {
            stage: StageId(s as u32),
            expected_half_micros: expected,
            forward_half_micros: covered[s][0],
            backward_half_micros: covered[s][1],
        }),
        None => Ok(deps),
    }
}

/// Execute `schedule` under [`UnitCosts`]; returns the timeline or a
/// deadlock error.
pub fn execute(schedule: &Schedule, costs: UnitCosts) -> Result<Timeline, ExecError> {
    execute_with(schedule, &costs)
}

/// Where dependency-driven execution stopped making progress: every
/// worker's frontier and the dependency state it is stuck against, so
/// `chimera-verify` can say *why* (cycle, missing producer, dead collective).
pub struct Stall {
    /// Per worker: index of its next unexecuted op (`== len` when done).
    pub next: Vec<usize>,
    /// What had executed when progress stopped.
    pub deps: DepTracker,
}

impl Stall {
    /// Every worker stuck at its next op, in worker order.
    pub fn blocked(&self, schedule: &Schedule) -> Vec<BlockedOp> {
        (0..schedule.num_workers())
            .filter(|&w| self.next[w] < schedule.workers[w].len())
            .map(|w| BlockedOp {
                worker: WorkerId(w as u32),
                op_index: self.next[w],
                op: schedule.workers[w][self.next[w]].to_string(),
            })
            .collect()
    }

    fn deadlock(&self, schedule: &Schedule) -> ExecError {
        ExecError::Deadlock {
            blocked: self.blocked(schedule),
        }
    }
}

/// Execute `schedule` under any [`CostProvider`].
pub fn execute_with<C: CostProvider>(
    schedule: &Schedule,
    costs: &C,
) -> Result<Timeline, ExecError> {
    execute_or_stall(schedule, costs)?.map_err(|stall| stall.deadlock(schedule))
}

/// [`execute_with`] on a span of `iterations` training iterations, refused
/// as [`validate_span`] refuses it: one pass over the ops both sizes the
/// tables and counts the span.
pub fn execute_span<C: CostProvider>(
    schedule: &Schedule,
    costs: &C,
    iterations: u32,
) -> Result<Timeline, ExecError> {
    let deps = span_tracker(schedule, iterations)?;
    run(schedule, costs, deps).map_err(|stall| stall.deadlock(schedule))
}

/// [`execute_with`], handing back the stalled state itself on deadlock.
pub fn execute_or_stall<C: CostProvider>(
    schedule: &Schedule,
    costs: &C,
) -> Result<Result<Timeline, Box<Stall>>, ExecError> {
    Ok(run(schedule, costs, DepTracker::of(schedule)?.0))
}

/// Execute `schedule` from `st`, its tracker with nothing recorded.
fn run<C: CostProvider>(
    schedule: &Schedule,
    costs: &C,
    mut st: DepTracker,
) -> Result<Timeline, Box<Stall>> {
    let nw = schedule.num_workers();
    let mut next = vec![0usize; nw];
    let mut free = vec![0u64; nw];
    let mut busy = vec![0u64; nw];
    let mut spans: Vec<Vec<OpSpan>> = (schedule.workers.iter())
        .map(|ops| Vec::with_capacity(ops.len()))
        .collect();

    let total: usize = schedule.workers.iter().map(Vec::len).sum();
    let mut done = 0usize;
    while done < total {
        let mut progressed = false;
        #[allow(clippy::needless_range_loop)] // w indexes several parallel arrays
        for w in 0..nw {
            while next[w] < schedule.workers[w].len() {
                let op = schedule.workers[w][next[w]];
                let Some(dep_t) = st.ready_time(costs, WorkerId(w as u32), &op) else {
                    break;
                };
                let start = free[w].max(dep_t);
                let cost = costs.op_cost(&op);
                let finish = start + cost;
                st.record(costs, WorkerId(w as u32), &op, finish);
                spans[w].push(OpSpan { op, start, finish });
                if op.is_compute() || matches!(op.kind, OpKind::AllReduceLaunch) {
                    busy[w] += cost;
                }
                free[w] = finish;
                next[w] += 1;
                done += 1;
                progressed = true;
            }
        }
        if !progressed {
            return Err(Box::new(Stall { next, deps: st }));
        }
    }

    let makespan = free.iter().copied().max().unwrap_or(0);
    Ok(Timeline {
        spans,
        makespan,
        busy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MicroId;
    use crate::placement::Placement;
    use crate::program::lower;
    use crate::schedule::{Scheme, SyncStrategy};

    /// D=2 GPipe-style schedule used across tests.
    fn gpipe2(n: u32) -> Schedule {
        let mut workers = vec![Vec::new(), Vec::new()];
        for s in 0..2u32 {
            for m in 0..n {
                workers[s as usize].push(Op::forward(MicroId(m), StageId(s), ReplicaId(0)));
            }
            for m in 0..n {
                workers[s as usize].push(Op::backward(MicroId(m), StageId(s), ReplicaId(0)));
            }
        }
        Schedule {
            scheme: Scheme::GPipe,
            d: 2,
            n,
            placement: Placement::linear(2),
            workers,
            flushes: true,
            sync: SyncStrategy::None,
        }
    }

    #[test]
    fn calibrated_costs_scale_and_clamp() {
        let c = UnitCosts::calibrated(2.25);
        assert_eq!((c.fwd, c.bwd), (100, 225));
        // Degenerate measurements fall back to sane costs.
        assert_eq!(UnitCosts::calibrated(f64::NAN).bwd, 200);
        assert_eq!(UnitCosts::calibrated(1000.0).bwd, 1000);
        assert_eq!(UnitCosts::calibrated(0.0).bwd, 10);
        // A calibrated schedule executes like any other cost model.
        let t = execute(&gpipe2(2), UnitCosts::calibrated(2.0)).unwrap();
        assert!(t.makespan > 0);
    }

    #[test]
    fn gpipe_makespan_equal_costs() {
        // D=2, N=2, fwd=bwd=2 ticks. Stage 1 runs F0@2, F1@4, B0@6, B1@8;
        // stage 0's B0 waits for stage 1's B0 => B0@8, B1@10 -> makespan 12.
        let t = execute(&gpipe2(2), UnitCosts::equal()).unwrap();
        assert_eq!(t.makespan, 12);
        // Each worker does 4 ops of 2 ticks.
        assert_eq!(t.busy, vec![8, 8]);
        // 2(D-1) = 2 bubble slots (4 ticks) per worker.
        assert_eq!(t.per_worker_bubbles(), vec![4, 4]);
    }

    #[test]
    fn gpipe_bubble_ratio_matches_table2() {
        // Table 2: GPipe bubble ratio (D-1)/(N+D-1) with bwd = 2 fwd.
        for n in [2u32, 4, 8, 16] {
            let t = execute(&gpipe2(n), UnitCosts::practical()).unwrap();
            let expected = (2.0 - 1.0) / (n as f64 + 2.0 - 1.0);
            assert!(
                (t.bubble_ratio() - expected).abs() < 1e-9,
                "n={n}: {} vs {}",
                t.bubble_ratio(),
                expected
            );
        }
    }

    #[test]
    fn deadlock_detected_for_reversed_order() {
        // Stage-1 forward scheduled before stage-0 produced anything on a
        // worker that also waits on itself -> cross dependency unsatisfied.
        let placement = Placement::linear(2);
        let workers = vec![
            vec![Op::backward(MicroId(0), StageId(0), ReplicaId(0))], // B before F
            vec![],
        ];
        let s = Schedule {
            scheme: Scheme::GPipe,
            d: 2,
            n: 1,
            placement,
            workers,
            flushes: true,
            sync: SyncStrategy::None,
        };
        let err = execute(&s, UnitCosts::equal()).unwrap_err();
        assert!(matches!(err, ExecError::Deadlock { .. }));
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn p2p_latency_shifts_start() {
        let mut c = UnitCosts::equal();
        c.p2p = 3;
        let t = execute(&gpipe2(1), c).unwrap();
        // F at stage1 starts at 2 (fwd) + 3 (p2p) = 5.
        let f1 = t.spans[1][0];
        assert_eq!(f1.start, 5);
    }

    #[test]
    fn activation_peak_gpipe_is_n() {
        // GPipe stashes all N micros (Table 2: N * Ma).
        for n in [2u32, 4, 8] {
            let programs = lower(&gpipe2(n), 1).programs;
            assert_eq!(programs[0].stash_slots, n as usize, "n={n}");
        }
    }

    #[test]
    fn recompute_costs_extra_and_stashes_the_boundary_only() {
        let mut s = gpipe2(2);
        for ops in &mut s.workers {
            for op in ops.iter_mut() {
                if op.is_backward() {
                    *op = Op {
                        kind: OpKind::Backward { recompute: true },
                        ..*op
                    };
                }
            }
        }
        let forwards = lower(&s, 1).programs.into_iter().flat_map(|p| p.rows);
        assert!(forwards
            .filter(|row| row.op.is_forward())
            .all(|row| row.boundary_only));
        let t = execute(&s, UnitCosts::practical()).unwrap();
        // Backward cost = 4 + 2 recompute ticks.
        let b = t.spans[0].iter().find(|sp| sp.op.is_backward()).unwrap();
        assert_eq!(b.finish - b.start, 6);
    }

    #[test]
    fn allreduce_wait_joins_all_participants() {
        // Two workers, each holding one replica of stage 0 (contrived
        // placement with D=2, replicas on both), synchronizing at the end.
        let placement = Placement::new(
            2,
            vec![
                vec![WorkerId(0), WorkerId(1)],
                vec![WorkerId(1), WorkerId(0)],
            ],
        );
        let mk = |m: u32, s: u32, r: u32| {
            (
                Op::forward(MicroId(m), StageId(s), ReplicaId(r)),
                Op::backward(MicroId(m), StageId(s), ReplicaId(r)),
            )
        };
        let (f00, b00) = mk(0, 0, 0);
        let (f01, b01) = mk(0, 1, 0);
        let (f10, b10) = mk(1, 0, 1);
        let (f11, b11) = mk(1, 1, 1);
        let workers = vec![
            vec![
                f00,
                b00,
                f11, // stage1 of replica 1 is on worker 0
                b11,
                Op::allreduce_launch(StageId(0), ReplicaId(0)),
                Op::allreduce_wait(StageId(0), ReplicaId(0)),
            ],
            vec![
                f10,
                f01,
                b01,
                b10,
                Op::allreduce_launch(StageId(0), ReplicaId(1)),
                Op::allreduce_wait(StageId(0), ReplicaId(1)),
            ],
        ];
        let s = Schedule {
            scheme: Scheme::Chimera,
            d: 2,
            n: 2,
            placement,
            workers,
            flushes: true,
            sync: SyncStrategy::PostHoc,
        };
        let mut c = UnitCosts::equal();
        c.allreduce = 5;
        let t = execute(&s, c).unwrap();
        // Both waits end at the same tick: max(launches) + 5.
        let w0 = t.spans[0].last().unwrap();
        let w1 = t.spans[1].last().unwrap();
        assert_eq!(w0.finish, w1.finish);
        assert!(w0.finish >= 5);
    }

    /// Empty schedule: every timeline statistic must stay finite and zero.
    #[test]
    fn empty_schedule_timeline_edges() {
        let s = Schedule {
            scheme: Scheme::GPipe,
            d: 2,
            n: 0,
            placement: Placement::linear(2),
            workers: vec![Vec::new(), Vec::new()],
            flushes: true,
            sync: SyncStrategy::None,
        };
        let t = execute(&s, UnitCosts::equal()).unwrap();
        assert_eq!(t.makespan, 0);
        assert_eq!(t.bubble_ratio(), 0.0);
        assert_eq!(t.per_worker_bubbles(), vec![0, 0]);
        assert_eq!(
            t.last_backward_finish(WorkerId(0), ReplicaId(0), StageId(0)),
            None
        );
        assert_eq!(t.last_compute_finish(WorkerId(1)), 0);
    }

    /// A timeline with no workers at all (constructed directly, since no
    /// generator emits one): `bubble_ratio` must not divide by zero.
    #[test]
    fn workerless_timeline_bubble_ratio_is_zero() {
        let t = Timeline {
            spans: Vec::new(),
            makespan: 7,
            busy: Vec::new(),
        };
        assert_eq!(t.bubble_ratio(), 0.0);
        assert!(t.per_worker_bubbles().is_empty());
    }

    /// Single worker, single stage: no pipeline, no bubbles.
    #[test]
    fn single_worker_has_no_bubbles() {
        let workers = vec![vec![
            Op::forward(MicroId(0), StageId(0), ReplicaId(0)),
            Op::forward(MicroId(1), StageId(0), ReplicaId(0)),
            Op::backward(MicroId(1), StageId(0), ReplicaId(0)),
            Op::backward(MicroId(0), StageId(0), ReplicaId(0)),
        ]];
        let s = Schedule {
            scheme: Scheme::GPipe,
            d: 1,
            n: 2,
            placement: Placement::linear(1),
            workers,
            flushes: true,
            sync: SyncStrategy::None,
        };
        let t = execute(&s, UnitCosts::practical()).unwrap();
        assert_eq!(t.bubble_ratio(), 0.0);
        assert_eq!(t.per_worker_bubbles(), vec![0]);
        assert_eq!(t.makespan, 2 * 2 + 2 * 4);
        assert_eq!(
            t.last_backward_finish(WorkerId(0), ReplicaId(0), StageId(0)),
            Some(t.makespan)
        );
    }

    /// A worker with no ops idles for the whole makespan.
    #[test]
    fn all_idle_worker_counts_as_full_bubble() {
        let placement = Placement::linear(2);
        let workers = vec![
            vec![
                Op::forward(MicroId(0), StageId(0), ReplicaId(0)),
                Op::backward(MicroId(0), StageId(0), ReplicaId(0)),
            ],
            Vec::new(),
        ];
        // Stage 1 never runs, so stage 0's backward must not depend on it:
        // d = 1 with a two-worker placement keeps worker 1 truly idle.
        let s = Schedule {
            scheme: Scheme::GPipe,
            d: 1,
            n: 1,
            placement,
            workers,
            flushes: true,
            sync: SyncStrategy::None,
        };
        let t = execute(&s, UnitCosts::equal()).unwrap();
        assert!(t.makespan > 0);
        assert_eq!(t.per_worker_bubbles()[1], t.makespan);
        assert_eq!(t.busy[1], 0);
        // Average of a fully-busy and a fully-idle worker.
        assert!((t.bubble_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(t.last_compute_finish(WorkerId(1)), 0);
    }

    #[test]
    fn validate_span_accepts_consistent_schedules() {
        assert_eq!(validate_span(&gpipe2(4), 1), Ok(()));
        assert_eq!(validate_span(&gpipe2(4), 2), Ok(()));
        assert_eq!(validate_span(&gpipe2(4), 4), Ok(()));
    }

    #[test]
    fn validate_span_rejects_bad_iteration_counts() {
        assert!(matches!(
            validate_span(&gpipe2(4), 0),
            Err(ExecError::InvalidIterations {
                iterations: 0,
                n: 4
            })
        ));
        assert!(matches!(
            validate_span(&gpipe2(4), 3),
            Err(ExecError::InvalidIterations {
                iterations: 3,
                n: 4
            })
        ));
        let msg = validate_span(&gpipe2(4), 0).unwrap_err().to_string();
        assert!(msg.contains("0 iteration"), "{msg}");
    }

    #[test]
    fn validate_span_detects_missing_ops() {
        let mut s = gpipe2(2);
        // Drop one backward on stage 1: the span no longer covers N micros.
        let removed = s.workers[1].pop().unwrap();
        assert!(removed.is_backward());
        let err = validate_span(&s, 1).unwrap_err();
        assert!(err.to_string().contains("inconsistent"));
        match err {
            ExecError::InconsistentSpan {
                stage,
                expected_half_micros,
                forward_half_micros,
                backward_half_micros,
            } => {
                assert_eq!(stage, StageId(1));
                assert_eq!(expected_half_micros, 4);
                assert_eq!(forward_half_micros, 4);
                assert_eq!(backward_half_micros, 2);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn last_backward_finish_lookup() {
        let t = execute(&gpipe2(2), UnitCosts::equal()).unwrap();
        let lb = t
            .last_backward_finish(WorkerId(0), ReplicaId(0), StageId(0))
            .unwrap();
        assert_eq!(lb, t.makespan);
        assert_eq!(
            t.last_backward_finish(WorkerId(0), ReplicaId(0), StageId(1)),
            None
        );
    }
}
