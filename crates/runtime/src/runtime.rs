//! Orchestration and supervision: spawn one thread per pipeline worker,
//! wire transport endpoints ([`chimera_comm::LocalFabric`]) and allreduce
//! groups, execute a schedule for several training iterations, and
//! reassemble the model.
//!
//! Supports the paper's hybrid of pipeline and data parallelism (§3.3): the
//! bidirectional pipeline group of `D` workers is replicated `W` times
//! (`P = W·D` threads); point-to-point communication stays within a group,
//! while each stage's gradient allreduce spans all `2f·W` replicas.
//!
//! # Supervised recovery
//!
//! Training proceeds in **segments** of [`TrainOptions::checkpoint_every`]
//! iterations. After each segment the supervisor verifies replica
//! agreement and snapshots parameters *and* optimizer state via
//! [`chimera_nn::checkpoint`]. When a worker dies mid-segment (an injected
//! [`crate::KillFault`] or a panic), its peers' deadlined waits unblock,
//! the supervisor restores every stage from the last checkpoint, and the
//! segment is replayed — deterministic data order and keyed-ordered
//! reduction make the recovered run **bit-identical** to a fault-free one.
//! With [`crate::RecoveryPolicy::Degrade`] and `W > 1`, the supervisor
//! instead drops one replica group and continues with `W-1` groups.
//! Blocked waits with no detected death (a lost message) surface as
//! [`TrainError::Timeout`] naming the blocked op.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use chimera_collectives::keyed_group;
use chimera_comm::{FaultInjection, KeyedReduce, LocalFabric, SendFault, Transport};
use chimera_core::op::Chunk;
use chimera_core::program::{lower, Program};
use chimera_core::schedule::Schedule;
use chimera_core::{StageId, WorkerId};
use chimera_nn::checkpoint;
use chimera_nn::{ModelConfig, Optimizer, Stage, SyntheticData};
use chimera_tensor::{kernels, pool};
use chimera_trace::{now_ns, CounterEvent, Event, MetricsRegistry, SpanEvent, SpanKind, TraceSink};

use crate::error::{TrainError, WorkerError};
use crate::fault::RecoveryPolicy;
use crate::mem::{MemReport, ModelFootprint};
use crate::worker::{SegmentSpec, TrainOptions, Worker};

/// Outcome of a pipelined training run.
pub struct TrainResult {
    /// Mean loss per iteration.
    pub iteration_losses: Vec<f32>,
    /// The final model as `D` stages (all `2f·W` replica copies verified
    /// identical and deduplicated).
    pub stages: Vec<Stage>,
    /// Checkpoint-restart recoveries the supervisor performed.
    pub recoveries: u32,
    /// Set when the run finished with fewer data-parallel groups than it
    /// started with ([`RecoveryPolicy::Degrade`]); holds the final `W`.
    pub degraded_to: Option<u32>,
    /// Per-worker tracked-memory reports for pipeline group 0 (ordered by
    /// local worker id), captured from the first — cold — segment. The
    /// high-water mark is comparable element-for-element with the static
    /// liveness analysis ([`crate::mem::plan`]).
    pub mem: Vec<MemReport>,
}

impl TrainResult {
    /// Concatenated flat parameters, comparable with
    /// [`chimera_nn::ReferenceTrainer::flat_params`].
    pub fn flat_params(&self) -> Vec<f32> {
        self.stages.iter().flat_map(Stage::params).collect()
    }
}

impl std::fmt::Debug for TrainResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainResult")
            .field("iterations", &self.iteration_losses.len())
            .field("stages", &self.stages.len())
            .field("recoveries", &self.recoveries)
            .field("degraded_to", &self.degraded_to)
            .finish()
    }
}

/// Execute `sched` on a real `cfg` model with one thread per worker
/// (`W = 1`; see [`train_hybrid`] for data parallelism).
///
/// ```
/// use chimera_core::chimera::{chimera, ChimeraConfig};
/// use chimera_nn::ModelConfig;
/// use chimera_runtime::{train, TrainOptions};
///
/// let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
/// let result = train(
///     &sched,
///     ModelConfig::tiny(),
///     TrainOptions {
///         micro_batch: 1,
///         iterations: 2,
///         ..TrainOptions::default()
///     },
/// )
/// .unwrap();
/// assert_eq!(result.iteration_losses.len(), 2);
/// assert_eq!(result.stages.len(), 2);
/// assert_eq!(result.recoveries, 0);
/// ```
pub fn train(
    sched: &Schedule,
    cfg: ModelConfig,
    opts: TrainOptions,
) -> Result<TrainResult, TrainError> {
    train_hybrid(sched, cfg, opts, 1)
}

/// The runtime's front door: lower `sched` once for the whole run, or name
/// the first op that cannot be executed — any defect
/// [`chimera_core::program::lower`] finds, or a chunked row (§3.5's
/// forward-doubling pairs and backward-halving halves lower, but the worker
/// does not execute them yet). Returned before any thread exists that could
/// panic on the op or leave its peers to time out.
pub(crate) fn lower_for_run(sched: &Schedule) -> Result<Vec<Program>, TrainError> {
    let lowered = lower(sched, 1);
    let chunked = lowered.programs.iter().enumerate().find_map(|(w, p)| {
        let row = p.rows.iter().find(|row| row.op.chunk != Chunk::Full)?;
        let reason = "only full-micro chunks are executed, not forward-doubling pairs or \
                      backward-halving halves";
        Some((w, row.op_ix, reason))
    });
    let defect = lowered.defects.first();
    let defect = defect.map(|d| (d.worker as usize, d.op_ix, d.kind.reason()));
    match defect.or(chunked) {
        None => Ok(lowered.programs),
        Some((w, op_ix, reason)) => Err(TrainError::UnsupportedSchedule {
            worker: w as u32,
            op: (sched.workers.get(w).and_then(|ops| ops.get(op_ix)))
                .map_or("(none)".to_string(), ToString::to_string),
            reason,
        }),
    }
}

/// The supervisor's own trace lane (track id = worker count at launch, so
/// it sits below the worker lanes in the Chrome view).
struct SupervisorTrace {
    sink: Arc<dyn TraceSink>,
    track: u32,
}

impl SupervisorTrace {
    fn span(&self, kind: SpanKind, name: String, start_ns: u64, end_ns: u64) {
        self.sink.record(Event::Span(SpanEvent {
            kind,
            name,
            pid: 0,
            track: self.track,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            stage: None,
            replica: None,
            micro: None,
            bytes: None,
        }));
    }

    fn counter(&self, name: &str, value: f64) {
        self.sink.record(Event::Counter(CounterEvent {
            name: name.to_string(),
            pid: 0,
            track: self.track,
            ts_ns: now_ns(),
            value,
        }));
    }
}

/// Execute `sched` replicated over `w` data-parallel pipeline groups
/// (`P = w·D` threads). Every stage replica starts from the
/// partition-independent deterministic initialization; gradient
/// synchronization across all `2f·w` replicas of a stage uses the
/// keyed-ordered allreduce, so the result is bit-identical to the sequential
/// reference (which accumulates the same `N·w` micro-batches in ascending
/// order) for synchronous schedules — including across checkpoint-restart
/// recoveries.
pub fn train_hybrid(
    sched: &Schedule,
    cfg: ModelConfig,
    opts: TrainOptions,
    w: u32,
) -> Result<TrainResult, TrainError> {
    assert!(w >= 1);
    let programs = lower_for_run(sched)?;
    let d = sched.d;
    let data = SyntheticData::new(cfg, opts.data_seed);

    // Kernel configuration for this run. Thread count only affects wall
    // clock — kernels are bit-identical at any setting — and the pool only
    // affects allocation traffic.
    if let Some(t) = opts.threads {
        kernels::set_threads(t);
    }
    pool::set_enabled(opts.pool);
    let pool_before = pool::stats();
    let kernels_before = kernels::stats();
    let pack_before = kernels::pack_stats();
    // Tracing pays for kernel wall-clock timing; untraced runs skip the two
    // clock reads per matmul.
    let time_kernels = opts.trace.is_some();
    if time_kernels {
        kernels::set_timing(true);
    }

    let reg = MetricsRegistry::global();
    let ckpt_saves = reg.counter("runtime.checkpoint.saves");
    let detected = reg.counter("runtime.recovery.detected_deaths");
    let restores = reg.counter("runtime.recovery.restores");
    let replayed = reg.counter("runtime.recovery.replayed_iterations");
    let degrades = reg.counter("runtime.recovery.degrades");

    let sup = opts.trace.clone().map(|sink| SupervisorTrace {
        sink,
        track: sched.num_workers() as u32 * w,
    });

    // Canonical state: `D` stages plus one optimizer per stage. All `2f·W`
    // replicas of a stage evolve identically, so one copy is enough; it is
    // cloned out to every (replica, stage) holder at each segment launch.
    let kind = opts.optimizer_kind();
    let mut canon_stages = Stage::build_all(cfg, d);
    let mut canon_opts: Vec<Optimizer> = canon_stages
        .iter()
        .map(|s| Optimizer::new(kind, s.num_params()))
        .collect();
    let mut checkpoint_bytes = checkpoint::save_state(&canon_stages, &canon_opts);
    ckpt_saves.inc();

    // Pool pre-sizing plans from the exact liveness analysis: one measured
    // footprint probe and one pricing of the programs just lowered per run,
    // shared by every segment and replica group (all are schedule-identical,
    // and sizes depend on shapes only). Skipped when prewarming is off — the
    // workers would ignore the plan anyway.
    let pool_plans: Vec<Vec<(usize, usize)>> = if opts.pool && opts.prewarm {
        let fp = ModelFootprint::probe(&canon_stages, opts.micro_batch);
        let plans = crate::mem::plan_lowered(sched, &programs, &fp);
        plans.into_iter().map(|plan| plan.classes).collect()
    } else {
        vec![Vec::new(); programs.len()]
    };
    let programs: Vec<Arc<Program>> = programs.into_iter().map(Arc::new).collect();

    let seg_len = opts
        .checkpoint_every
        .filter(|&c| c > 0)
        .unwrap_or(opts.iterations.max(1));
    let mut fault = opts.fault.clone().unwrap_or_default();
    let mut iteration_losses: Vec<f32> = Vec::with_capacity(opts.iterations as usize);
    let mut done = 0u32;
    let mut micro_base = 0u64;
    let mut w_active = w;
    let mut recoveries = 0u32;
    let mut replaying = false;
    let mut mem: Vec<MemReport> = Vec::new();

    while done < opts.iterations {
        let seg_iters = seg_len.min(opts.iterations - done);
        let seg = SegmentSpec {
            start_iter: done,
            iterations: seg_iters,
            micro_base,
        };
        let seg_start = sup.as_ref().map(|_| now_ns());
        let outcome = run_segment(
            sched,
            &programs,
            &pool_plans,
            &canon_stages,
            &canon_opts,
            seg,
            w_active,
            &opts,
            (!fault.is_empty()).then(|| fault.clone()),
            data,
        );
        match outcome {
            Ok(out) => {
                if replaying {
                    replaying = false;
                    replayed.add(seg_iters as u64);
                    if let (Some(sup), Some(start)) = (&sup, seg_start) {
                        sup.span(
                            SpanKind::Replay,
                            format!("replay i{}..i{}", done, done + seg_iters),
                            start,
                            now_ns(),
                        );
                    }
                }
                let per = sched.n as usize * w_active as usize;
                for i in 0..seg_iters as usize {
                    let slice = &out.losses[i * per..(i + 1) * per];
                    let mean = slice.iter().map(|&(_, l)| l as f64).sum::<f64>() / per as f64;
                    iteration_losses.push(mean as f32);
                }
                if mem.is_empty() {
                    mem = out.mem;
                }
                canon_stages = out.stages;
                canon_opts = out.optimizers;
                // The superseded checkpoint goes first: the two are never
                // needed together, and each is the size of the model.
                drop(std::mem::take(&mut checkpoint_bytes));
                checkpoint_bytes = checkpoint::save_state(&canon_stages, &canon_opts);
                ckpt_saves.inc();
                micro_base += seg_iters as u64 * sched.n as u64 * w_active as u64;
                done += seg_iters;
            }
            Err(SegmentFailure::Death {
                group,
                worker,
                iteration,
                at_ns,
            }) => {
                detected.inc();
                let detected_at = now_ns();
                if let Some(sup) = &sup {
                    sup.span(
                        SpanKind::Detect,
                        format!("detect death g{group}-w{worker} i{iteration}"),
                        at_ns.unwrap_or(detected_at),
                        detected_at,
                    );
                }
                recoveries += 1;
                if recoveries > opts.max_recoveries {
                    return Err(TrainError::WorkerLost {
                        group,
                        worker,
                        iteration,
                        recoveries: recoveries - 1,
                    });
                }
                // The kill fired (or the worker panicked); don't re-kill
                // during the replay.
                fault.kill = None;
                let restore_start = sup.as_ref().map(|_| now_ns());
                let (stages, optimizers) = checkpoint::load_state(&checkpoint_bytes, d)?;
                canon_stages = stages;
                canon_opts = optimizers;
                restores.inc();
                if let (Some(sup), Some(start)) = (&sup, restore_start) {
                    sup.span(
                        SpanKind::Restore,
                        format!("restore checkpoint @i{done}"),
                        start,
                        now_ns(),
                    );
                    sup.counter("runtime.recovery.restores", f64::from(recoveries));
                }
                if opts.on_worker_loss == RecoveryPolicy::Degrade && w_active > 1 {
                    w_active -= 1;
                    degrades.inc();
                    if let Some(sup) = &sup {
                        sup.counter("runtime.active_groups", f64::from(w_active));
                    }
                }
                replaying = true;
            }
            Err(SegmentFailure::Timeout {
                group,
                worker,
                iteration,
                op,
                waited,
            }) => {
                return Err(TrainError::Timeout {
                    group,
                    worker,
                    iteration,
                    op,
                    waited,
                });
            }
            Err(SegmentFailure::Divergence { stage }) => {
                return Err(TrainError::ReplicaDivergence { stage });
            }
            Err(SegmentFailure::Missing { stage }) => {
                return Err(TrainError::MissingStage { stage });
            }
        }
    }

    // A healthy traced run emits no supervisor events at all: recovery
    // spans/counters appear only when a recovery actually happened.
    if recoveries > 0 {
        if let Some(sup) = &sup {
            sup.counter("runtime.recovery.total", f64::from(recoveries));
        }
    }

    // Publish this run's kernel and pool activity: registry deltas always,
    // derived rates onto the trace when one is attached.
    let pd = {
        let now = pool::stats();
        PoolDelta {
            hits: now.hits - pool_before.hits,
            misses: now.misses - pool_before.misses,
        }
    };
    let kd = {
        let now = kernels::stats();
        KernelDelta {
            calls: now.calls - kernels_before.calls,
            flops: now.flops - kernels_before.flops,
            nanos: now.nanos - kernels_before.nanos,
        }
    };
    let pack_now = kernels::pack_stats();
    let pack_calls = pack_now.calls - pack_before.calls;
    let pack_elems = pack_now.elems - pack_before.elems;
    reg.counter("runtime.pool.hits").add(pd.hits);
    reg.counter("runtime.pool.misses").add(pd.misses);
    reg.counter("runtime.kernel.calls").add(kd.calls);
    reg.counter("runtime.kernel.flops").add(kd.flops);
    reg.counter("runtime.kernel.ns").add(kd.nanos);
    // Panel-copy traffic of the packed GEMM engine: elems/flops bounds the
    // pack overhead (a healthy large-GEMM run packs a tiny fraction of the
    // flops it executes; small-path-only runs report zero).
    reg.counter("runtime.kernel.pack.calls").add(pack_calls);
    reg.counter("runtime.kernel.pack.elems").add(pack_elems);
    if let Some(sup) = &sup {
        if pd.hits + pd.misses > 0 {
            sup.counter(
                "runtime.pool.hit_rate",
                pd.hits as f64 / (pd.hits + pd.misses) as f64,
            );
        }
        if kd.nanos > 0 {
            sup.counter("runtime.kernel.gflops", kd.flops as f64 / kd.nanos as f64);
            // Which tile produced that rate (16 / 8 / 1 lanes): a trace from
            // one host must not be read against another host's ceiling.
            let lanes = kernels::simd_level().lanes();
            sup.counter("runtime.kernel.simd_lanes", lanes as f64);
        }
    }
    if time_kernels {
        kernels::set_timing(false);
    }

    Ok(TrainResult {
        iteration_losses,
        stages: canon_stages,
        recoveries,
        degraded_to: (w_active < w).then_some(w_active),
        mem,
    })
}

/// Pool activity attributable to one training run.
struct PoolDelta {
    hits: u64,
    misses: u64,
}

/// Kernel activity attributable to one training run.
struct KernelDelta {
    calls: u64,
    flops: u64,
    nanos: u64,
}

struct SegmentOutcome {
    /// `(global_micro, loss)` sorted by micro id.
    losses: Vec<(u64, f32)>,
    /// Canonical stages, deduplicated from verified replica copies.
    stages: Vec<Stage>,
    /// Canonical per-stage optimizer state.
    optimizers: Vec<Optimizer>,
    /// Group-0 per-worker memory reports, ordered by local worker id.
    mem: Vec<MemReport>,
}

enum SegmentFailure {
    /// A worker died (injected kill or panic) — recoverable.
    Death {
        group: u32,
        worker: u32,
        iteration: u32,
        /// When the fault fired, if the worker reported it.
        at_ns: Option<u64>,
    },
    /// A worker blocked past its deadline with no death to blame — fatal.
    Timeout {
        group: u32,
        worker: u32,
        iteration: u32,
        op: String,
        waited: Duration,
    },
    Divergence {
        stage: u32,
    },
    Missing {
        stage: u32,
    },
}

/// A deadlined wait that expired: `(group, worker, iteration, op, waited)`.
type TimeoutInfo = (u32, u32, u32, String, Duration);

/// Launch `w` pipeline groups on the canonical state, run one segment, and
/// join. Classifies failures: a death outranks the timeouts it causes in
/// peers (they unblock via their deadlines and report errors too).
#[allow(clippy::too_many_arguments)]
fn run_segment(
    sched: &Schedule,
    programs: &[Arc<Program>],
    pool_plans: &[Vec<(usize, usize)>],
    canon_stages: &[Stage],
    canon_opts: &[Optimizer],
    seg: SegmentSpec,
    w: u32,
    opts: &TrainOptions,
    fault: Option<crate::fault::FaultSpec>,
    data: SyntheticData,
) -> Result<SegmentOutcome, SegmentFailure> {
    let d = sched.d;
    let per_group = sched.num_workers();
    let total_workers = per_group * w as usize;

    // Interconnect: one in-process fabric endpoint per global worker
    // (group-major layout). Injected message faults compile down to
    // transport-level send faults installed on the faulty sender's endpoint,
    // so the same injection path exercises every backend.
    let mut endpoints = LocalFabric::new(total_workers as u32);
    if let Some(f) = &fault {
        // Per-sender plan: (message to drop, message to delay + how long).
        type FaultPlan = (Option<SendFault>, Option<(SendFault, Duration)>);
        let mut plans: HashMap<usize, FaultPlan> = HashMap::new();
        if let Some(dm) = f.drop_msg {
            let global = dm.group as usize * per_group + dm.from_worker as usize;
            plans.entry(global).or_default().0 = Some(SendFault {
                grad: dm.grad,
                micro: dm.micro,
            });
        }
        if let Some((dm, delay)) = f.delay_msg {
            let global = dm.group as usize * per_group + dm.from_worker as usize;
            plans.entry(global).or_default().1 = Some((
                SendFault {
                    grad: dm.grad,
                    micro: dm.micro,
                },
                delay,
            ));
        }
        for (global, (drop_msg, delay_msg)) in plans {
            let mut inj = FaultInjection::new(drop_msg, delay_msg);
            if let Some(sink) = &opts.trace {
                inj = inj.with_trace(sink.clone(), global as u32);
            }
            endpoints[global].install_fault(inj);
        }
    }

    // Allreduce groups: one keyed group per stage spanning every group's
    // holders, ranked (group, holder) for determinism.
    let mut sync_per_worker: Vec<Vec<(u32, Box<dyn KeyedReduce>)>> =
        (0..total_workers).map(|_| Vec::new()).collect();
    for s in 0..d {
        let holders = sched.placement.stage_holders(StageId(s));
        let mut members = keyed_group(holders.len() * w as usize);
        members.reverse(); // pop from the front in rank order
        for g in 0..w {
            for h in &holders {
                let global = g as usize * per_group + h.idx();
                sync_per_worker[global]
                    .push((s, Box::new(members.pop().expect("member per holder")) as _));
            }
        }
    }

    // Spawn workers on clones of the canonical stage + optimizer state.
    let wopts = TrainOptions {
        fault,
        ..opts.clone()
    };
    let mut handles = Vec::with_capacity(total_workers);
    let mut sync_iter = sync_per_worker.into_iter();
    let mut ep_iter = endpoints.into_iter();
    for g in 0..w {
        for (lw, (program, pool_plan)) in programs.iter().zip(pool_plans).enumerate() {
            let wid = WorkerId(lw as u32);
            let ep: Arc<dyn Transport> = Arc::new(ep_iter.next().expect("endpoint per worker"));
            let sync = sync_iter.next().expect("sync map per worker");
            let stages: Vec<(u32, u32, Stage, Optimizer)> = sched
                .placement
                .held_by(wid)
                .into_iter()
                .map(|(r, s)| {
                    (
                        r.0,
                        s.0,
                        canon_stages[s.0 as usize].clone(),
                        canon_opts[s.0 as usize].clone(),
                    )
                })
                .collect();
            let worker = Worker::new(
                wid,
                program.clone(),
                pool_plan.clone(),
                g,
                w,
                stages,
                sync,
                ep,
                data,
                wopts.clone(),
                seg,
            );
            handles.push((
                g,
                lw as u32,
                thread::Builder::new()
                    .name(format!("chimera-g{g}-w{lw}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker"),
            ));
        }
    }

    // Join everyone, then classify. A kill makes its peers fail too (send
    // errors, deadlined waits), so a detected death takes precedence over
    // the secondary errors it causes; a timeout with *no* death anywhere is
    // a lost message or deadlock and is fatal.
    let mut death: Option<(u32, u32, u32, Option<u64>)> = None;
    let mut timeout: Option<(u32, TimeoutInfo)> = None;
    let mut results = Vec::with_capacity(total_workers);
    for (g, lw, h) in handles {
        match h.join() {
            Err(_) => {
                // Panicked thread: location known from the spawn loop.
                death.get_or_insert((g, lw, seg.start_iter, None));
            }
            Ok(Err(WorkerError::Killed {
                group,
                worker,
                iteration,
                at_ns,
            })) => {
                // A reported kill beats a bare panic: it carries the fault
                // timestamp for the detection-latency span.
                if death.is_none() || death.is_some_and(|(.., at)| at.is_none()) {
                    death = Some((group, worker, iteration, Some(at_ns)));
                }
            }
            Ok(Err(e)) => {
                let rank = match e {
                    WorkerError::RecvTimeout { .. } => 0,
                    WorkerError::AllReduceTimeout { .. } => 1,
                    _ => 2,
                };
                let (group, worker, iteration) = e.location();
                let (op, waited) = match e {
                    WorkerError::RecvTimeout { op, waited, .. } => (op, waited),
                    WorkerError::AllReduceTimeout { stage, waited, .. } => {
                        (format!("allreduce wait for stage {stage}"), waited)
                    }
                    WorkerError::PeerGone { to, .. } => {
                        (format!("send to dead peer w{to}"), Duration::ZERO)
                    }
                    WorkerError::Killed { .. } => unreachable!("handled above"),
                };
                if timeout.as_ref().is_none_or(|&(r, _)| rank < r) {
                    timeout = Some((rank, (group, worker, iteration, op, waited)));
                }
            }
            Ok(Ok(res)) => results.push((g, lw, res)),
        }
    }
    if let Some((group, worker, iteration, at_ns)) = death {
        return Err(SegmentFailure::Death {
            group,
            worker,
            iteration,
            at_ns,
        });
    }
    if let Some((_, (group, worker, iteration, op, waited))) = timeout {
        return Err(SegmentFailure::Timeout {
            group,
            worker,
            iteration,
            op,
            waited,
        });
    }

    // Verify all 2f·W replica copies of each stage agree bit-for-bit, then
    // deduplicate into the canonical per-stage state.
    let mut losses: Vec<(u64, f32)> = Vec::new();
    let mut replica_stages: HashMap<u32, Vec<(Stage, Optimizer)>> = HashMap::new();
    let mut mem_by_lw: Vec<(u32, MemReport)> = Vec::new();
    for (g, lw, res) in results {
        losses.extend(res.losses);
        if g == 0 {
            mem_by_lw.push((lw, res.mem));
        }
        for (_, s, stage, opt) in res.stages {
            replica_stages.entry(s).or_default().push((stage, opt));
        }
    }
    mem_by_lw.sort_unstable_by_key(|&(lw, _)| lw);
    let mem: Vec<MemReport> = mem_by_lw.into_iter().map(|(_, m)| m).collect();
    let mut stages = Vec::with_capacity(d as usize);
    let mut optimizers = Vec::with_capacity(d as usize);
    for s in 0..d {
        let mut copies = replica_stages
            .remove(&s)
            .ok_or(SegmentFailure::Missing { stage: s })?;
        let (canonical, opt) = copies.pop().expect("at least one replica");
        let reference = canonical.params();
        for (copy, _) in &copies {
            if copy.params() != reference {
                return Err(SegmentFailure::Divergence { stage: s });
            }
        }
        stages.push(canonical);
        optimizers.push(opt);
    }
    losses.sort_unstable_by_key(|&(g, _)| g);
    Ok(SegmentOutcome {
        losses,
        stages,
        optimizers,
        mem,
    })
}
