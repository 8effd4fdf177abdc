//! One pipeline worker: a thread executing its schedule ops on real model
//! stages.
//!
//! Workers are generic over the interconnect: all point-to-point traffic
//! goes through a [`chimera_comm::Transport`] endpoint (crossbeam channels
//! in-process, TCP frames across processes) and gradient synchronization
//! through a [`chimera_comm::KeyedReduce`] member per held stage.
//!
//! Every blocking wait in a worker (p2p receive, allreduce completion) has
//! a deadline ([`TrainOptions::recv_timeout`]): instead of hanging on a dead
//! peer, a worker returns a [`WorkerError`] naming the worker, iteration,
//! and blocked op, and the supervisor in [`crate::runtime`] decides whether
//! to recover.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use chimera_comm::{KeyedReduce, MsgKey, Payload, Transport};
use chimera_core::op::{Chunk, Op, OpKind};
use chimera_core::placement::Placement;
use chimera_core::schedule::Schedule;
use chimera_core::{ReplicaId, StageId, WorkerId};
use chimera_nn::{LrSchedule, MicroStash, Optimizer, OptimizerKind, Stage, SyntheticData};
use chimera_tensor::{kernels, pool, Tensor};
use chimera_trace::{now_ns, Counter, Event, MetricsRegistry, SpanEvent, SpanKind, TraceSink};

use crate::error::WorkerError;
use crate::fault::{FaultSpec, RecoveryPolicy};
use crate::mem::{MemReport, MemTracker};

type StageKey = (u32, u32); // (replica, stage)

/// Training hyper-parameters shared by every worker.
#[derive(Debug, Clone)]
pub struct TrainOptions {
    /// Sequences per micro-batch (`B`).
    pub micro_batch: usize,
    /// Training iterations to run.
    pub iterations: u32,
    /// Learning rate (base of a constant schedule unless overridden).
    pub lr: f32,
    /// SGD momentum (ignored by [`OptimizerKind::Adam`]).
    pub momentum: f32,
    /// Data-stream seed.
    pub data_seed: u64,
    /// Update rule; `None` means momentum SGD from the fields above.
    pub optimizer: Option<OptimizerKind>,
    /// Learning-rate schedule; `None` means constant `lr`.
    pub lr_schedule: Option<LrSchedule>,
    /// Trace sink receiving wall-clock spans (forward/backward/p2p/allreduce)
    /// from every worker thread. `None` — the default — disables all
    /// instrumentation: no clock reads, no event construction.
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Injected faults for this run; `None` trains healthy.
    pub fault: Option<FaultSpec>,
    /// Checkpoint cadence in iterations: the supervisor snapshots params +
    /// optimizer state every this many iterations and can replay at most
    /// one cadence worth of work after a failure. `None` checkpoints only
    /// the initial state (a failure replays the whole run).
    pub checkpoint_every: Option<u32>,
    /// Deadline for any single blocking wait (p2p receive, allreduce
    /// completion). On expiry the worker reports a descriptive error
    /// instead of hanging.
    pub recv_timeout: Duration,
    /// How many checkpoint-restart recoveries the supervisor may perform
    /// before giving up with [`crate::TrainError::WorkerLost`].
    pub max_recoveries: u32,
    /// What the supervisor does on a detected worker death.
    pub on_worker_loss: RecoveryPolicy,
    /// Intra-op kernel threads per matmul. `None` defers to the
    /// `CHIMERA_THREADS` environment variable (default 1). Results are
    /// bit-identical at any thread count — see `chimera_tensor::kernels`.
    pub threads: Option<usize>,
    /// Recycle tensor backing stores through `chimera_tensor::pool`
    /// (default on; purely an allocation optimization, no numeric effect).
    pub pool: bool,
    /// Pre-warm each worker thread's pool before the first iteration: one
    /// dry forward/backward cycle per held stage warms every transient size
    /// class, then the liveness plan (see [`crate::mem::plan`]) tops each
    /// class up by the number of concurrently-held buffers, so the cold
    /// first micro-batch allocates nothing (default on; requires `pool`).
    pub prewarm: bool,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            micro_batch: 1,
            iterations: 1,
            lr: 0.05,
            momentum: 0.9,
            data_seed: 1,
            optimizer: None,
            lr_schedule: None,
            trace: None,
            fault: None,
            checkpoint_every: None,
            recv_timeout: Duration::from_secs(5),
            max_recoveries: 2,
            on_worker_loss: RecoveryPolicy::Restart,
            threads: None,
            pool: true,
            prewarm: true,
        }
    }
}

impl TrainOptions {
    /// The effective optimizer kind.
    pub fn optimizer_kind(&self) -> OptimizerKind {
        self.optimizer.unwrap_or(OptimizerKind::Sgd {
            momentum: self.momentum,
        })
    }

    /// The effective learning-rate schedule.
    pub fn schedule(&self) -> LrSchedule {
        self.lr_schedule.unwrap_or(LrSchedule::Constant(self.lr))
    }
}

/// Per-worker tracing state; only built when [`TrainOptions::trace`] holds a
/// sink, so a disabled trace costs one `Option` check per op.
struct Tracer {
    sink: Arc<dyn TraceSink>,
    /// Global track id: `group · D + local worker id`.
    track: u32,
    p2p_bytes: Arc<Counter>,
    p2p_wait_ns: Arc<Counter>,
    allreduce_launches: Arc<Counter>,
    /// Wall-clock compute nanoseconds per held stage.
    stage_compute_ns: HashMap<u32, Arc<Counter>>,
}

impl Tracer {
    #[allow(clippy::too_many_arguments)]
    fn span(
        &self,
        kind: SpanKind,
        name: String,
        start_ns: u64,
        end_ns: u64,
        stage: Option<u32>,
        replica: Option<u32>,
        micro: Option<u64>,
        bytes: Option<u64>,
    ) {
        self.sink.record(Event::Span(SpanEvent {
            kind,
            name,
            pid: 0,
            track: self.track,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            stage,
            replica,
            micro,
            bytes,
        }));
    }
}

/// What a worker thread returns on success.
pub struct WorkerResult {
    /// `(global_micro, loss)` for every micro-batch whose head this worker
    /// executed.
    pub losses: Vec<(u64, f32)>,
    /// Final stage replicas with their optimizer state,
    /// `(replica, stage, Stage, Optimizer)`.
    pub stages: Vec<(u32, u32, Stage, Optimizer)>,
    /// Tracked-memory high-water mark and first-iteration pool behavior.
    pub mem: MemReport,
}

/// The slice of the global training run one spawned worker executes. The
/// supervisor trains in segments of [`TrainOptions::checkpoint_every`]
/// iterations; after a failure it replays the current segment from the last
/// checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct SegmentSpec {
    /// Global (0-based) iteration the segment starts at.
    pub start_iter: u32,
    /// Iterations in this segment.
    pub iterations: u32,
    /// Global micro-batch id cursor at segment start (micros consumed by
    /// all committed segments — not derivable from `start_iter` once a run
    /// has degraded to fewer groups).
    pub micro_base: u64,
}

/// One worker's runtime state.
pub struct Worker {
    /// This worker's id within its pipeline group.
    pub id: WorkerId,
    d: u32,
    /// Data-parallel group this worker belongs to (`0..W`, §3.3).
    group: u32,
    /// Total number of replicated pipeline groups `W`.
    w_total: u32,
    n_per_iter: u32,
    ops: Vec<Op>,
    has_sync_ops: bool,
    placement: Placement,
    stages: HashMap<StageKey, Stage>,
    optimizers: HashMap<StageKey, Optimizer>,
    sync: HashMap<u32, Box<dyn KeyedReduce>>, // by stage
    /// This worker's interconnect endpoint; global rank `group · D + id`.
    ep: Arc<dyn Transport>,
    data: SyntheticData,
    opts: TrainOptions,
    seg: SegmentSpec,
    /// Global iteration currently executing (for fault matching and error
    /// diagnostics).
    cur_iter: u32,
    stashes: HashMap<(u32, u32, u64), MicroStash>,
    grads: HashMap<StageKey, Vec<(u64, Vec<f32>)>>,
    recomputing: Vec<(ReplicaId, StageId)>,
    losses: Vec<(u64, f32)>,
    /// Asynchronous schedules (PipeDream) update weights mid-stream; to keep
    /// forward/backward weight versions consistent, each in-flight
    /// micro-batch must run its backward against the parameter version its
    /// forward read (PipeDream's *weight stashing*).
    stash_weights: bool,
    /// Copy-on-update version store per held `(replica, stage)` — mirrors
    /// the static walk in `chimera_verify::liveness`.
    versions: HashMap<StageKey, VersionStore>,
    /// Liveness-derived pool pre-sizing plan: `(size class, extra spares)`.
    plan: Vec<(usize, usize)>,
    /// Element-exact accounting of held-across-op buffers.
    mem: MemTracker,
    /// Index of the op currently executing within one iteration's schedule.
    cur_op: usize,
    tracer: Option<Tracer>,
}

/// Copy-on-update weight versions of one `(replica, stage)`.
///
/// A forward merely records which version id it read; nothing is copied. The
/// update that would overwrite a still-referenced version materializes **one**
/// refcounted copy (not one per in-flight micro — PipeDream's Table-2 bound
/// of `D - s` resident versions at stage `s` is exactly what this attains in
/// steady state). The copy is freed when the last referencing micro's
/// backward completes.
#[derive(Default)]
struct VersionStore {
    /// Id of the live (in-`Stage`) parameter version.
    current: u64,
    /// In-flight micros whose forward read `current`.
    current_refs: u32,
    /// Global micro id → version id its forward read.
    by_micro: HashMap<u64, u64>,
    /// Materialized superseded versions: id → (params copy, refs).
    stashed: HashMap<u64, (Vec<f32>, u32)>,
}

impl Worker {
    /// Assemble a worker executing segment `seg`. Each `(replica, stage)`
    /// entry carries the stage parameters **and** the optimizer state it
    /// resumes from — fresh at iteration 0, restored from a checkpoint
    /// after a recovery.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: WorkerId,
        sched: &Schedule,
        group: u32,
        w_total: u32,
        stages: Vec<(u32, u32, Stage, Optimizer)>,
        sync: HashMap<u32, Box<dyn KeyedReduce>>,
        ep: Arc<dyn Transport>,
        data: SyntheticData,
        opts: TrainOptions,
        seg: SegmentSpec,
        plan: Vec<(usize, usize)>,
    ) -> Self {
        let d = sched.d;
        let ops = sched.ops(id).to_vec();
        let has_sync_ops = ops.iter().any(|o| o.kind == OpKind::AllReduceWait);
        let mut stage_map = HashMap::new();
        let mut optimizers = HashMap::new();
        for (r, s, stage, opt) in stages {
            debug_assert_eq!(opt.len(), stage.num_params());
            optimizers.insert((r, s), opt);
            stage_map.insert((r, s), stage);
        }
        let tracer = opts.trace.clone().map(|sink| {
            let reg = MetricsRegistry::global();
            let stage_compute_ns = stage_map
                .keys()
                .map(|&(_, s)| (s, reg.counter(&format!("runtime.stage.{s}.compute_ns"))))
                .collect();
            Tracer {
                sink,
                track: group * d + id.0,
                p2p_bytes: reg.counter("runtime.p2p.bytes"),
                p2p_wait_ns: reg.counter("runtime.p2p.wait_ns"),
                allreduce_launches: reg.counter("runtime.allreduce.launches"),
                stage_compute_ns,
            }
        });
        Worker {
            id,
            d,
            group,
            w_total,
            n_per_iter: sched.n,
            ops,
            has_sync_ops,
            placement: sched.placement.clone(),
            stages: stage_map,
            optimizers,
            sync,
            ep,
            data,
            opts,
            seg,
            cur_iter: seg.start_iter,
            stashes: HashMap::new(),
            grads: HashMap::new(),
            recomputing: sched.recomputing(),
            losses: Vec::new(),
            stash_weights: !sched.flushes,
            versions: HashMap::new(),
            plan,
            mem: MemTracker::default(),
            cur_op: 0,
            tracer,
        }
    }

    /// Run the segment's iterations; consumes the worker.
    ///
    /// Global micro-batch ids interleave data-parallel groups group-major:
    /// local iteration `i` consumes micros starting at
    /// `micro_base + i·N·W + group·N` — the same ordering the sequential
    /// reference uses, so keyed gradient reduction stays bit-exact across
    /// `W`.
    pub fn run(mut self) -> Result<WorkerResult, WorkerError> {
        let ops = std::mem::take(&mut self.ops);
        let prewarmed = self.opts.pool && self.opts.prewarm && pool::enabled();
        if prewarmed {
            self.prewarm();
        }
        // Pool counters are thread-local, so this worker's first-iteration
        // hit/miss behavior is measurable without races against siblings.
        let miss_base = pool::local_stats().misses;
        let mut first_micro_misses = None;
        let mut first_iter_misses = None;
        for iter in 0..self.seg.iterations {
            self.cur_iter = self.seg.start_iter + iter;
            self.maybe_kill()?;
            let offset = self.seg.micro_base
                + iter as u64 * self.n_per_iter as u64 * self.w_total as u64
                + self.group as u64 * self.n_per_iter as u64;
            for (i, op) in ops.iter().enumerate() {
                self.cur_op = i;
                self.exec(op, offset)?;
                if iter == 0 && first_micro_misses.is_none() && op.is_compute() {
                    first_micro_misses = Some(pool::local_stats().misses - miss_base);
                }
            }
            if !self.has_sync_ops {
                // Implicit post-hoc synchronization: launch everything, then
                // wait — partner workers may hold the same stages in a
                // different order, so blocking per-stage reduces could
                // deadlock.
                self.cur_op = ops.len();
                let t0 = self.tracer.as_ref().map(|_| now_ns());
                let mut held: Vec<StageKey> = self.stages.keys().copied().collect();
                held.sort_unstable();
                for &(r, s) in &held {
                    let contribution = self.grads.remove(&(r, s)).unwrap_or_default();
                    let drained: usize = contribution.iter().map(|(_, g)| g.len()).sum();
                    self.sync[&s].deposit(contribution);
                    self.mem.sub(drained);
                }
                for &(r, s) in &held {
                    let summed = self.fetch_reduced(s)?;
                    self.apply_update(r, s, &summed);
                    pool::put(summed);
                }
                if let (Some(tr), Some(start)) = (&self.tracer, t0) {
                    tr.allreduce_launches.add(held.len() as u64);
                    tr.span(
                        SpanKind::AllReduce,
                        format!("posthoc-sync i{}", self.cur_iter),
                        start,
                        now_ns(),
                        None,
                        None,
                        None,
                        None,
                    );
                }
            }
            if iter == 0 {
                first_iter_misses = Some(pool::local_stats().misses - miss_base);
            }
        }
        let mut stages: Vec<(u32, u32, Stage, Optimizer)> = Vec::new();
        for ((r, s), stage) in self.stages {
            let opt = self.optimizers.remove(&(r, s)).expect("optimizer held");
            stages.push((r, s, stage, opt));
        }
        stages.sort_by_key(|&(r, s, ..)| (r, s));
        Ok(WorkerResult {
            losses: self.losses,
            stages,
            mem: MemReport {
                high_water_elems: self.mem.high_water(),
                high_at_op: self.mem.high_at(),
                first_micro_misses: first_micro_misses.unwrap_or(0),
                first_iter_misses: first_iter_misses.unwrap_or(0),
                prewarmed,
            },
        })
    }

    /// Pre-warm this thread's pool: one dry forward/backward cycle per held
    /// stage covers every transient size class a compute op touches (plus
    /// two parameter-class spares for the optimizer and allreduce
    /// round-trips); the liveness plan then tops each class up by the
    /// maximum number of concurrently-held buffers (stashes, weight
    /// versions, pending gradients). Shapes — not values — determine
    /// allocation, so zeroed probe inputs warm exactly the classes training
    /// will request.
    fn prewarm(&mut self) {
        let mut held: Vec<StageKey> = self.stages.keys().copied().collect();
        held.sort_unstable();
        for &(r, s) in &held {
            let stage = &self.stages[&(r, s)];
            let last = s + 1 == self.d;
            let cfg = stage.config();
            let rows = self.opts.micro_batch * cfg.seq;
            let tokens = vec![0u32; rows];
            let targets = vec![0u32; rows];
            let x = (s > 0).then(|| Tensor::zeros(rows, cfg.hidden));
            let (out, stash) = stage.forward(
                x,
                (s == 0).then_some(tokens.as_slice()),
                last.then_some(targets.as_slice()),
            );
            // The boundary activation doubles as a shape-correct dy.
            let (dx, grad) = stage.backward(&stash, out.activation, 1.0);
            pool::put(grad);
            drop(dx);
            drop(stash);
            pool::put(stage.params());
            pool::put(stage.params());
        }
        for &(class, extra) in &self.plan {
            pool::prewarm(class, pool::spare_count(class) + extra);
        }
        // The packed GEMM engine draws per-grid-cell panel scratch from
        // this thread's pool. The dry cycle warms those classes only when a
        // held stage is big enough to take the packed path, so provision
        // them explicitly — one a-panel and one b-panel buffer per grid
        // cell this thread could run — keeping the first *large* product
        // allocation-free too.
        for class in kernels::pack_pool_classes() {
            pool::prewarm(class, kernels::hw_parallelism());
        }
    }

    /// Fire the injected kill fault if it targets this worker at the
    /// current iteration.
    fn maybe_kill(&self) -> Result<(), WorkerError> {
        let Some(kill) = self.opts.fault.as_ref().and_then(|f| f.kill) else {
            return Ok(());
        };
        if kill.group != self.group || kill.worker != self.id.0 || kill.iteration != self.cur_iter {
            return Ok(());
        }
        let at = now_ns();
        MetricsRegistry::global()
            .counter("runtime.fault.kills")
            .inc();
        if let Some(tr) = &self.tracer {
            tr.span(
                SpanKind::Fault,
                format!("kill g{}-w{} i{}", self.group, self.id.0, self.cur_iter),
                at,
                at,
                None,
                None,
                None,
                None,
            );
        }
        Err(WorkerError::Killed {
            group: self.group,
            worker: self.id.0,
            iteration: self.cur_iter,
            at_ns: at,
        })
    }

    /// Wait (with deadline) for this worker's next reduced gradient of
    /// stage `s`.
    fn fetch_reduced(&self, s: u32) -> Result<Vec<f32>, WorkerError> {
        self.sync[&s]
            .fetch_deadline(self.opts.recv_timeout)
            .ok_or(WorkerError::AllReduceTimeout {
                group: self.group,
                worker: self.id.0,
                iteration: self.cur_iter,
                stage: s,
                waited: self.opts.recv_timeout,
            })
    }

    fn exec(&mut self, op: &Op, offset: u64) -> Result<(), WorkerError> {
        if self.tracer.is_none() {
            return self.exec_op(op, offset);
        }
        let start = now_ns();
        self.exec_op(op, offset)?;
        let end = now_ns();
        let tr = self.tracer.as_ref().expect("tracer checked above");
        let kind = match op.kind {
            OpKind::Forward => SpanKind::Forward,
            OpKind::Backward { recompute: false } => SpanKind::Backward,
            OpKind::Backward { recompute: true } => SpanKind::Recompute,
            OpKind::AllReduceLaunch => SpanKind::AllReduceLaunch,
            OpKind::AllReduceWait => SpanKind::AllReduce,
        };
        if op.is_compute() {
            if let Some(c) = tr.stage_compute_ns.get(&op.stage.0) {
                c.add(end.saturating_sub(start));
            }
        }
        if op.kind == OpKind::AllReduceLaunch {
            tr.allreduce_launches.inc();
        }
        tr.span(
            kind,
            op.to_string(),
            start,
            end,
            Some(op.stage.0),
            Some(op.replica.0),
            op.is_compute().then(|| op.micro.0 as u64 + offset),
            None,
        );
        Ok(())
    }

    fn exec_op(&mut self, op: &Op, offset: u64) -> Result<(), WorkerError> {
        // `train*` reject anything else up front (`UnsupportedSchedule`).
        debug_assert_eq!(op.chunk, Chunk::Full, "runtime supports full-micro chunks");
        match op.kind {
            OpKind::Forward => self.forward(op, offset),
            OpKind::Backward { .. } => self.backward(op, offset),
            OpKind::AllReduceLaunch => {
                let contribution = self
                    .grads
                    .remove(&(op.replica.0, op.stage.0))
                    .unwrap_or_default();
                let drained: usize = contribution.iter().map(|(_, g)| g.len()).sum();
                self.sync[&op.stage.0].deposit(contribution);
                self.mem.sub(drained);
                Ok(())
            }
            OpKind::AllReduceWait => {
                self.note_update(op.replica.0, op.stage.0);
                let summed = self.fetch_reduced(op.stage.0)?;
                self.apply_update(op.replica.0, op.stage.0, &summed);
                pool::put(summed);
                Ok(())
            }
        }
    }

    fn forward(&mut self, op: &Op, offset: u64) -> Result<(), WorkerError> {
        let (r, s) = (op.replica.0, op.stage.0);
        let g = op.micro.0 as u64 + offset;
        let last = s + 1 == self.d;
        let (tokens, targets) = if s == 0 || last {
            self.data.batch(g, self.opts.micro_batch)
        } else {
            (Vec::new(), Vec::new())
        };
        let x = if s == 0 {
            None
        } else {
            Some(self.recv(false, r, s - 1, g)?)
        };
        let stage = &self.stages[&(r, s)];
        let (out, mut stash) = stage.forward(
            x,
            (s == 0).then_some(tokens.as_slice()),
            last.then_some(targets.as_slice()),
        );
        if self.recomputing.contains(&(op.replica, op.stage)) {
            stash.drop_to_boundary();
        }
        let stashed_elems = stash.elements();
        self.stashes.insert((r, s, g), stash);
        self.mem.add(stashed_elems, self.cur_op);
        if self.stash_weights {
            // Copy-on-update: record which version this forward read —
            // nothing is copied unless an update supersedes it while the
            // micro is still in flight (see `note_update`).
            let st = self.versions.entry((r, s)).or_default();
            st.by_micro.insert(g, st.current);
            st.current_refs += 1;
        }
        if let Some(act) = out.activation {
            let to = self.placement.worker(op.replica, StageId(s + 1));
            self.send(to, r, s, g, false, act)?;
        }
        if let Some(loss) = out.loss {
            self.losses.push((g, loss));
        }
        Ok(())
    }

    fn backward(&mut self, op: &Op, offset: u64) -> Result<(), WorkerError> {
        let (r, s) = (op.replica.0, op.stage.0);
        let g = op.micro.0 as u64 + offset;
        let last = s + 1 == self.d;
        let dy = if last {
            None
        } else {
            Some(self.recv(true, r, s + 1, g)?)
        };
        let mut stash = self
            .stashes
            .remove(&(r, s, g))
            .expect("backward without stashed forward");
        // PipeDream weight stashing (copy-on-update): the backward must use
        // the parameter version this micro's forward read. Micros on the
        // still-current version run in place — the values are identical, no
        // swap needed; micros on a superseded version swap in the shared
        // materialized copy and swap back after.
        let mut restore: Option<(u64, Vec<f32>)> = None;
        if self.stash_weights {
            let st = self.versions.entry((r, s)).or_default();
            if let Some(v) = st.by_micro.remove(&g) {
                if v == st.current {
                    st.current_refs = st.current_refs.saturating_sub(1);
                } else {
                    let stage = self.stages.get_mut(&(r, s)).expect("stage held");
                    let saved = stage.params();
                    let (version, _) = st.stashed.get(&v).expect("superseded version materialized");
                    stage.set_params(version);
                    restore = Some((v, saved));
                }
            }
        }
        let stage = &self.stages[&(r, s)];
        if !stash.is_full() {
            let boundary = stash.elements();
            let (_, targets) = self.data.batch(g, self.opts.micro_batch);
            stage.recompute(&mut stash, last.then_some(targets.as_slice()));
            self.mem.add(stash.elements() - boundary, self.cur_op);
        }
        let scale = 1.0 / (self.n_per_iter * self.w_total) as f32;
        let (dx, grad) = stage.backward(&stash, dy, scale);
        self.mem.add(grad.len(), self.cur_op);
        if let Some((v, saved)) = restore {
            self.stages
                .get_mut(&(r, s))
                .expect("stage held")
                .set_params(&saved);
            pool::put(saved);
            let st = self.versions.get_mut(&(r, s)).expect("version store");
            let (_, refs) = st.stashed.get_mut(&v).expect("version present");
            *refs -= 1;
            if *refs == 0 {
                let (buf, _) = st.stashed.remove(&v).expect("version present");
                let freed = buf.len();
                pool::put(buf);
                self.mem.sub(freed);
            }
        }
        let freed_stash = stash.elements();
        self.grads.entry((r, s)).or_default().push((g, grad));
        self.mem.sub(freed_stash);
        if let Some(dx) = dx {
            let to = self.placement.worker(op.replica, StageId(s - 1));
            self.send(to, r, s, g, true, dx)?;
        }
        Ok(())
    }

    fn apply_update(&mut self, r: u32, s: u32, summed: &[f32]) {
        if summed.is_empty() {
            return;
        }
        let stage = self.stages.get_mut(&(r, s)).expect("stage held");
        let opt = self.optimizers.get_mut(&(r, s)).expect("optimizer held");
        let lr = self.opts.schedule().at(opt.steps());
        let mut params = stage.params();
        opt.step(&mut params, summed, lr);
        stage.set_params(&params);
        pool::put(params);
    }

    /// Record that `(r, s)`'s weights are about to change: if any in-flight
    /// micro-batch still references the current version, materialize one
    /// refcounted copy of it (copy-on-update), then open a fresh version.
    ///
    /// Mirrors the static liveness walk's `AllReduceWait` handling exactly,
    /// so tracked memory matches the analyzer's byte for byte.
    fn note_update(&mut self, r: u32, s: u32) {
        if !self.stash_weights {
            return;
        }
        let st = self.versions.entry((r, s)).or_default();
        if st.current_refs > 0 {
            let params = self.stages.get(&(r, s)).expect("stage held").params();
            let n = params.len();
            st.stashed.insert(st.current, (params, st.current_refs));
            self.mem.add(n, self.cur_op);
        }
        st.current += 1;
        st.current_refs = 0;
    }

    /// Ship one pipeline boundary tensor to worker `to` in this group.
    ///
    /// p2p stays within the pipeline group (§3.3): transport ranks are
    /// global worker ids `group · D + local id`. Fault injection (message
    /// drop/delay) lives inside the transport, so it behaves identically
    /// across backends.
    fn send(
        &mut self,
        to: WorkerId,
        replica: u32,
        stage: u32,
        micro: u64,
        grad: bool,
        tensor: Tensor,
    ) -> Result<(), WorkerError> {
        let global = self.group * self.d + to.0;
        let key = if grad {
            MsgKey::Grad {
                replica,
                stage,
                micro,
            }
        } else {
            MsgKey::Act {
                replica,
                stage,
                micro,
            }
        };
        self.ep
            .send(global, key, Payload::Tensor(tensor))
            .map_err(|_| WorkerError::PeerGone {
                group: self.group,
                worker: self.id.0,
                iteration: self.cur_iter,
                to: to.0,
            })
    }

    fn recv(
        &mut self,
        grad: bool,
        replica: u32,
        stage: u32,
        micro: u64,
    ) -> Result<Tensor, WorkerError> {
        let key = if grad {
            MsgKey::Grad {
                replica,
                stage,
                micro,
            }
        } else {
            MsgKey::Act {
                replica,
                stage,
                micro,
            }
        };
        let start = self.tracer.as_ref().map(|_| now_ns());
        let tensor = match self.ep.recv_deadline(key, self.opts.recv_timeout) {
            Ok(payload) => payload.into_tensor(),
            Err(_) => {
                let dir = if grad { "grad" } else { "act" };
                return Err(WorkerError::RecvTimeout {
                    group: self.group,
                    worker: self.id.0,
                    iteration: self.cur_iter,
                    op: format!("recv {dir} m{micro}@s{stage}/r{replica}"),
                    waited: self.opts.recv_timeout,
                });
            }
        };
        if let (Some(tr), Some(start)) = (&self.tracer, start) {
            let end = now_ns();
            // Each boundary tensor is received exactly once, so counting on
            // the receive side totals all p2p traffic.
            tr.p2p_bytes.add(tensor.len() as u64 * 4);
            tr.p2p_wait_ns.add(end.saturating_sub(start));
            let dir = if grad { "grad" } else { "act" };
            tr.span(
                SpanKind::P2p,
                format!("recv {dir} m{micro}@s{stage}"),
                start,
                end,
                Some(stage),
                Some(replica),
                Some(micro),
                Some(tensor.len() as u64 * 4),
            );
        }
        Ok(tensor)
    }
}
