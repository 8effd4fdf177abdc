//! The in-process supervisor: a run's `W·D` ranks (§3.3) as threads of
//! this process over a [`chimera_comm::LocalFabric`], each running the one
//! per-rank loop ([`crate::dist`]) with in-process keyed allreduce members.
//! The bidirectional pipeline group of `D` workers is replicated `W` times;
//! point-to-point communication stays within a group, while each stage's
//! gradient allreduce spans all `2f·W` replicas.
//!
//! # Supervised recovery
//!
//! Rank 0 commits the run to the supervisor's memory after every segment of
//! [`TrainOptions::checkpoint_every`] iterations: the losses so far and the
//! model's parameters *and* optimizer state as [`chimera_nn::checkpoint`]
//! bytes. When a rank dies mid-run (an injected [`crate::KillFault`] or a
//! panic), its peers' deadlined waits unblock, and the supervisor restarts
//! every rank from the last commit — deterministic data order and
//! keyed-ordered reduction make the recovered run **bit-identical** to a
//! fault-free one. Blocked waits with no detected death (a lost message)
//! surface as [`TrainError::Timeout`] naming the blocked op.

use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, ScopedJoinHandle};

use chimera_collectives::keyed_group;
use chimera_comm::{KeyedReduce, LocalFabric, Transport};
use chimera_core::schedule::Schedule;
use chimera_nn::checkpoint;
use chimera_nn::{ModelConfig, Optimizer, Stage};
use chimera_tensor::{kernels, pool};
use chimera_trace::{now_ns, CounterEvent, Event, MetricsRegistry, SpanEvent, SpanKind, TraceSink};

use crate::dist::{run_rank, Job, Ranked, Stop, Store};
use crate::error::{TrainError, WorkerError};
use crate::mem::MemReport;
use crate::setup::{check_fabric, configure, hand_out, reducer_members};
use crate::worker::TrainOptions;

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
    /// local worker id), captured from the first — cold — segment of the
    /// attempt that finished. The high-water mark is comparable
    /// element-for-element with the static liveness analysis
    /// ([`crate::mem::plan`]).
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

/// The run's own trace lane (track id = the `W·D` rank count, so it sits
/// below the worker lanes in the Chrome view): the supervisor's detections
/// and restores, rank 0's replays.
pub(crate) struct SupervisorTrace {
    pub sink: Arc<dyn TraceSink>,
    pub track: u32,
}

impl SupervisorTrace {
    pub(crate) fn span(&self, kind: SpanKind, name: String, start_ns: u64, end_ns: u64) {
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
/// (`P = w·D` rank threads). Every stage replica starts from the
/// partition-independent deterministic initialization; gradient
/// synchronization across all `2f·w` replicas of a stage uses the
/// keyed-ordered allreduce, so the result is bit-identical to the sequential
/// reference (which accumulates the same `N·w` micro-batches in ascending
/// order) for synchronous schedules — including across checkpoint-restart
/// recoveries. `w = 0` is [`TrainError::FabricSize`], as for a worker process.
pub fn train_hybrid(
    sched: &Schedule,
    cfg: ModelConfig,
    mut opts: TrainOptions,
    w: u32,
) -> Result<TrainResult, TrainError> {
    let pool_before = pool::stats();
    let kernels_before = kernels::stats();
    let pack_before = kernels::pack_stats();
    let mut run = configure(sched, cfg, &opts)?;
    let per_group = sched.num_workers() as u32;
    let world = per_group.saturating_mul(w);
    check_fabric(sched, w, world)?;

    let reg = MetricsRegistry::global();
    let sup = (opts.trace.clone()).map(|sink| SupervisorTrace { sink, track: world });

    // Canonical state: `D` stages plus one optimizer per stage. All `2f·W`
    // replicas of a stage evolve identically, so one copy is enough; each
    // attempt hands it to the stage's holders (the first one takes it, the
    // others clones), and while ranks run the commit is the supervisor's
    // only copy. The first commit is the initial state.
    let mut canon = std::mem::take(&mut run.stages);
    let committed = Mutex::new(Some((Vec::new(), checkpoint::save_state(&canon))));
    reg.counter("runtime.checkpoint.saves").inc();

    let mut losses: Vec<f32> = Vec::new();
    let mut recoveries = 0u32;
    let (iteration_losses, stages, mem) = loop {
        let done = losses.len() as u32;
        if done == opts.iterations {
            let stages = canon.into_iter().map(|(stage, _)| stage).collect();
            break (losses, stages, Vec::new());
        }
        let job = Job {
            sched,
            cfg,
            opts: opts.clone(),
            w,
            run: &run,
            store: Store::Memory(&committed),
            replay: recoveries > 0,
        };
        // Join everyone, then classify: the most telling end (`severity`),
        // the first in rank order among equals.
        let joined = run_ranks(&job, canon, &losses);
        let worst = (0..joined.len())
            .min_by_key(|&rank| severity(&joined[rank]))
            .expect("a run has ranks");
        let mut ranks = joined.into_iter();
        let (g, lw) = (worst as u32 / per_group, worst as u32 % per_group);
        let (group, worker, iteration, at_ns) = match ranks.nth(worst).expect("joined") {
            Ok(Ok(rank0)) => {
                // Every rank finished: rank 0 returns the run, and group 0's
                // ranks their memory reports.
                let group0 = ranks.take(per_group as usize - 1);
                let rest = group0.filter_map(|joined| joined.ok()?.ok()?.mem);
                let mem = rank0.mem.into_iter().chain(rest).collect();
                let (losses, stages) = rank0.outcome.expect("rank 0 returns the run");
                break (losses, stages, mem);
            }
            Ok(Err(Stop::Worker(WorkerError::Killed {
                group,
                worker,
                iteration,
                at_ns,
            }))) => (group, worker, iteration, Some(at_ns)),
            // A panicked thread, located by its rank.
            Err(_) => (g, lw, done, None),
            Ok(Err(stop)) => return Err(stop.into()),
        };
        reg.counter("runtime.recovery.detected_deaths").inc();
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
        // The kill fired (or the worker panicked); don't re-kill during the
        // replay.
        if let Some(fault) = &mut opts.fault {
            fault.kill = None;
        }
        let restore_start = sup.as_ref().map(|_| now_ns());
        let slot = committed.lock().unwrap_or_else(PoisonError::into_inner);
        let (done, state) = slot.as_ref().expect("rank 0 leaves a whole commit");
        let (stages, optimizers) = checkpoint::load_state(state, sched.d)?;
        (losses, canon) = (done.clone(), stages.into_iter().zip(optimizers).collect());
        drop(slot);
        reg.counter("runtime.recovery.restores").inc();
        if let (Some(sup), Some(start)) = (&sup, restore_start) {
            sup.span(
                SpanKind::Restore,
                format!("restore checkpoint @i{}", losses.len()),
                start,
                now_ns(),
            );
            sup.counter("runtime.recovery.restores", f64::from(recoveries));
        }
    };

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
        stages,
        recoveries,
        mem,
    })
}

/// What one rank thread returns: its result, or the panic that ended it.
type Joined = thread::Result<Result<Ranked, Stop>>;

/// How telling a rank's end is, most first: a death (a reported kill, which
/// carries the fault's time, then a panic) outranks the errors it causes in
/// peers; with none, a lost message or deadlock is named best by an expired
/// receive, then an allreduce wait, a failed send, a failed gather or commit.
fn severity(joined: &Joined) -> u8 {
    match joined {
        Ok(Err(Stop::Worker(WorkerError::Killed { .. }))) => 0,
        Err(_) => 1,
        Ok(Err(Stop::Worker(WorkerError::RecvTimeout { .. }))) => 2,
        Ok(Err(Stop::Worker(WorkerError::AllReduceTimeout { .. }))) => 3,
        Ok(Err(Stop::Worker(WorkerError::PeerGone { .. }))) => 4,
        Ok(Err(Stop::Run(_))) => 5,
        Ok(Ok(_)) => 6,
    }
}

/// Run every rank of `job` as a thread over a fresh [`LocalFabric`], from
/// `losses.len()` committed iterations on: each takes its slice of `canon`
/// ([`hand_out`]) and one in-process keyed allreduce member per stage it
/// holds. Joined in rank order.
fn run_ranks(job: &Job<'_>, canon: Vec<(Stage, Optimizer)>, losses: &[f32]) -> Vec<Joined> {
    let (sched, w) = (job.sched, job.w);
    let per_group = sched.num_workers() as u32;
    let mut sync: Vec<Vec<(u32, Box<dyn KeyedReduce>)>> =
        (0..per_group * w).map(|_| Vec::new()).collect();
    for s in 0..sched.d {
        let ranks = reducer_members(sched, s, w);
        for (member, rank) in keyed_group(ranks.len()).into_iter().zip(ranks) {
            sync[rank as usize].push((s, Box::new(member)));
        }
    }
    let holders: Vec<&[(u32, u32)]> = (0..w)
        .flat_map(|_| job.run.programs.iter().map(|p| p.held.as_slice()))
        .collect();
    let held = hand_out(canon, &holders);
    let endpoints = LocalFabric::new(per_group * w);
    thread::scope(|scope| {
        let ranks: Vec<_> = (endpoints.into_iter().zip(sync).zip(held))
            .map(|((ep, sync), held)| {
                let (g, lw) = (ep.rank() / per_group, ep.rank() % per_group);
                thread::Builder::new()
                    .name(format!("chimera-g{g}-w{lw}"))
                    .spawn_scoped(scope, move || {
                        run_rank(job, Arc::new(ep), sync, held, losses.to_vec())
                    })
                    .expect("spawn rank")
            })
            .collect();
        ranks.into_iter().map(ScopedJoinHandle::join).collect()
    })
}
