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
//! Blocked waits with no detected death (a lost message) surface as
//! [`TrainError::Timeout`] naming the blocked op.

use std::borrow::Cow;
use std::sync::Arc;
use std::thread;

use chimera_collectives::keyed_group;
use chimera_comm::{KeyedReduce, LocalFabric, Transport};
use chimera_core::program::Program;
use chimera_core::schedule::Schedule;
use chimera_core::WorkerId;
use chimera_nn::checkpoint;
use chimera_nn::{ModelConfig, Optimizer, Stage, SyntheticData};
use chimera_tensor::{kernels, pool};
use chimera_trace::{now_ns, CounterEvent, Event, MetricsRegistry, SpanEvent, SpanKind, TraceSink};

use crate::error::{TrainError, WorkerError};
use crate::mem::MemReport;
use crate::setup::{assemble, configure, hand_out, reducer_members};
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
    mut opts: TrainOptions,
    w: u32,
) -> Result<TrainResult, TrainError> {
    assert!(w >= 1);
    let pool_before = pool::stats();
    let kernels_before = kernels::stats();
    let pack_before = kernels::pack_stats();
    let run = configure(sched, cfg, &opts)?;
    let d = sched.d;
    let data = SyntheticData::new(cfg, opts.data_seed);

    let reg = MetricsRegistry::global();
    let ckpt_saves = reg.counter("runtime.checkpoint.saves");
    let detected = reg.counter("runtime.recovery.detected_deaths");
    let restores = reg.counter("runtime.recovery.restores");
    let replayed = reg.counter("runtime.recovery.replayed_iterations");

    let sup = opts.trace.clone().map(|sink| SupervisorTrace {
        sink,
        track: sched.num_workers() as u32 * w,
    });

    // Canonical state: `D` stages plus one optimizer per stage. All `2f·W`
    // replicas of a stage evolve identically, so one copy is enough; each
    // segment launch hands it to the stage's holders (the first one takes
    // it, the others clones), and while workers run the checkpoint is the
    // supervisor's only copy.
    let kind = opts.optimizer_kind();
    let mut canon_stages = run.stages;
    let mut canon_opts: Vec<Optimizer> = canon_stages
        .iter()
        .map(|s| Optimizer::new(kind, s.num_params()))
        .collect();
    let mut checkpoint_bytes = checkpoint::save_state(&canon_stages, &canon_opts);
    ckpt_saves.inc();

    let seg_len = opts
        .checkpoint_every
        .filter(|&c| c > 0)
        .unwrap_or(opts.iterations.max(1));
    let mut iteration_losses: Vec<f32> = Vec::with_capacity(opts.iterations as usize);
    let mut done = 0u32;
    let mut recoveries = 0u32;
    let mut replaying = false;
    let mut mem: Vec<MemReport> = Vec::new();

    while done < opts.iterations {
        let seg_iters = seg_len.min(opts.iterations - done);
        let seg = SegmentSpec {
            start_iter: done,
            iterations: seg_iters,
        };
        let seg_start = sup.as_ref().map(|_| now_ns());
        let outcome = run_segment(
            sched,
            &run.programs,
            &run.pool_plans,
            canon_stages,
            canon_opts,
            seg,
            w,
            &opts,
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
                iteration_losses.extend(out.iteration_losses);
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
                if let Some(fault) = &mut opts.fault {
                    fault.kill = None;
                }
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
                replaying = true;
            }
            Err(SegmentFailure::Fatal(e)) => return Err(e),
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
    let (pool_now, kernels_now, pack_now) =
        (pool::stats(), kernels::stats(), kernels::pack_stats());
    let hits = pool_now.hits - pool_before.hits;
    let misses = pool_now.misses - pool_before.misses;
    let flops = kernels_now.flops - kernels_before.flops;
    let nanos = kernels_now.nanos - kernels_before.nanos;
    reg.counter("runtime.pool.hits").add(hits);
    reg.counter("runtime.pool.misses").add(misses);
    reg.counter("runtime.kernel.calls")
        .add(kernels_now.calls - kernels_before.calls);
    reg.counter("runtime.kernel.flops").add(flops);
    reg.counter("runtime.kernel.ns").add(nanos);
    // Panel-copy traffic of the packed GEMM engine: elems/flops bounds the
    // pack overhead (a healthy large-GEMM run packs a tiny fraction of the
    // flops it executes; small-path-only runs report zero).
    reg.counter("runtime.kernel.pack.calls")
        .add(pack_now.calls - pack_before.calls);
    reg.counter("runtime.kernel.pack.elems")
        .add(pack_now.elems - pack_before.elems);
    if let Some(sup) = &sup {
        if hits + misses > 0 {
            sup.counter(
                "runtime.pool.hit_rate",
                hits as f64 / (hits + misses) as f64,
            );
        }
        if nanos > 0 {
            sup.counter("runtime.kernel.gflops", flops as f64 / nanos as f64);
            // Which tile produced that rate (16 / 8 / 1 lanes): a trace from
            // one host must not be read against another host's ceiling.
            let lanes = kernels::simd_level().lanes();
            sup.counter("runtime.kernel.simd_lanes", lanes as f64);
        }
    }

    Ok(TrainResult {
        iteration_losses,
        stages: canon_stages,
        recoveries,
        mem,
    })
}

struct SegmentOutcome {
    /// Mean loss of each iteration of the segment.
    iteration_losses: Vec<f32>,
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
    /// A worker blocked past its deadline with no death to blame, or the
    /// replicas it returned do not assemble.
    Fatal(TrainError),
}

/// Launch `w` pipeline groups on the canonical state, which their workers
/// take over ([`hand_out`]), run one segment, and join. Classifies failures:
/// a death outranks the timeouts it causes in peers (they unblock via their
/// deadlines and report errors too).
#[allow(clippy::too_many_arguments)]
fn run_segment(
    sched: &Schedule,
    programs: &[Arc<Program>],
    pool_plans: &[Vec<(usize, usize)>],
    canon_stages: Vec<Stage>,
    canon_opts: Vec<Optimizer>,
    seg: SegmentSpec,
    w: u32,
    opts: &TrainOptions,
    data: SyntheticData,
) -> Result<SegmentOutcome, SegmentFailure> {
    let d = sched.d;
    let per_group = sched.num_workers();
    let total_workers = per_group * w as usize;

    // Interconnect: one in-process fabric endpoint per global worker
    // (group-major layout), and one keyed allreduce group per stage.
    let endpoints = LocalFabric::new(total_workers as u32);
    let mut sync_per_worker: Vec<Vec<(u32, Box<dyn KeyedReduce>)>> =
        (0..total_workers).map(|_| Vec::new()).collect();
    for s in 0..d {
        let ranks = reducer_members(sched, s, w);
        for (member, rank) in keyed_group(ranks.len()).into_iter().zip(ranks) {
            sync_per_worker[rank as usize].push((s, Box::new(member) as _));
        }
    }

    // Spawn workers on the canonical stage + optimizer state, handed out in
    // spawn order (group-major).
    let holders: Vec<&[(u32, u32)]> = (0..w)
        .flat_map(|_| programs.iter().map(|p| p.held.as_slice()))
        .collect();
    let canon = canon_stages.into_iter().zip(canon_opts).collect();
    let mut held_iter = hand_out(canon, &holders).into_iter();
    let mut handles = Vec::with_capacity(total_workers);
    let mut sync_iter = sync_per_worker.into_iter();
    let mut ep_iter = endpoints.into_iter();
    for g in 0..w {
        for (lw, (program, pool_plan)) in programs.iter().zip(pool_plans).enumerate() {
            let ep: Arc<dyn Transport> = Arc::new(ep_iter.next().expect("endpoint per worker"));
            let sync = sync_iter.next().expect("sync map per worker");
            let stages = (held_iter.next().expect("held state per worker").into_iter())
                .map(|(r, s, (stage, opt))| (r, s, stage, opt))
                .collect();
            let worker = Worker::new(
                WorkerId(lw as u32),
                program.clone(),
                pool_plan.clone(),
                g,
                w,
                stages,
                sync,
                ep,
                data,
                opts.clone(),
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
    // the secondary errors it causes; a blocked wait with *no* death
    // anywhere is a lost message or deadlock and is fatal — the receive that
    // expired names it best, then an allreduce wait, then a failed send.
    let mut death: Option<(u32, u32, u32, Option<u64>)> = None;
    let mut blocked: Option<(u32, WorkerError)> = None;
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
                if death.is_none_or(|(.., at)| at.is_none()) {
                    death = Some((group, worker, iteration, Some(at_ns)));
                }
            }
            Ok(Err(e)) => {
                let rank = match e {
                    WorkerError::RecvTimeout { .. } => 0,
                    WorkerError::AllReduceTimeout { .. } => 1,
                    _ => 2,
                };
                if blocked.as_ref().is_none_or(|&(r, _)| rank < r) {
                    blocked = Some((rank, e));
                }
            }
            Ok(Ok(res)) => results.push((g, res)),
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
    if let Some((_, e)) = blocked {
        return Err(SegmentFailure::Fatal(e.into()));
    }

    let mut losses: Vec<(u64, f32)> = Vec::new();
    let mut copies: Vec<(u32, (Stage, Optimizer))> = Vec::new();
    // Joined in spawn order, so group 0's reports arrive by local worker id.
    let mut mem: Vec<MemReport> = Vec::new();
    for (g, res) in results {
        losses.extend(res.losses);
        if g == 0 {
            mem.push(res.mem);
        }
        copies.extend(res.stages.into_iter().map(|(_, s, st, opt)| (s, (st, opt))));
    }
    let (iteration_losses, canonical) = assemble(
        d,
        sched.n as usize * w as usize,
        losses,
        copies,
        |(stage, _)| Cow::Owned(stage.params()),
    )
    .map_err(SegmentFailure::Fatal)?;
    let (stages, optimizers) = canonical.into_iter().unzip();
    Ok(SegmentOutcome {
        iteration_losses,
        stages,
        optimizers,
        mem,
    })
}
