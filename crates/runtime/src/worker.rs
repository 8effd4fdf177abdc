//! One pipeline worker: a thread executing its lowered schedule (a
//! [`chimera_core::program::Program`] of flat rows — the same rows the
//! verifier prices) on real model stages. Everything a row touches — stage,
//! optimizer, stash, weight version, reducer — sits in a `Vec` the row
//! indexes; nothing is looked up by key. A backward hands its gradient to
//! the stage's reducer as it ends, so no row holds one past its own op.
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
//!
//! The worker is also where a [`FaultSpec`] is interpreted — all of it: the
//! kill at an iteration's start, a lost or stalled boundary message in
//! `send`. These are the faults *above* the session layer, which no
//! transport can heal; every rank runs this worker, so they behave the same
//! over every fabric. Faults beneath the session are the transport's
//! (`chimera_comm::NetChaos`).

use std::sync::Arc;
use std::time::Duration;

use chimera_comm::{KeyedReduce, MsgKey, Payload, Reduced, Transport};
use chimera_core::op::OpKind;
use chimera_core::program::{KeyTemplate, Program, Row};
use chimera_core::WorkerId;
use chimera_nn::{LrSchedule, MicroStash, Optimizer, OptimizerKind, Stage, SyntheticData};
use chimera_tensor::{kernels, pool, Tensor};
use chimera_trace::{now_ns, Counter, Event, MetricsRegistry, SpanEvent, SpanKind, TraceSink};

use crate::error::WorkerError;
use crate::fault::{FaultSpec, MsgFault};
use crate::mem::{MemReport, MemTracker};

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
    /// Checkpoint cadence in iterations, under every fabric: rank 0 commits
    /// params + optimizer state every this many iterations, so a restart
    /// replays at most one cadence worth of work. `None` (or zero) commits
    /// only at the end of the run — in-process, after the initial state.
    pub checkpoint_every: Option<u32>,
    /// Deadline for any single blocking wait (p2p receive, allreduce
    /// completion). On expiry the worker reports a descriptive error
    /// instead of hanging.
    pub recv_timeout: Duration,
    /// How many checkpoint-restart recoveries the supervisor may perform
    /// before giving up with [`crate::TrainError::WorkerLost`].
    pub max_recoveries: u32,
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
    /// Wall-clock compute nanoseconds per held stage, by held index.
    stage_compute_ns: Vec<Arc<Counter>>,
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

/// The wire key of a row's boundary tensor for global micro-batch `micro`.
fn msg_key(key: KeyTemplate, micro: u64) -> MsgKey {
    let KeyTemplate {
        grad,
        replica,
        stage,
    } = key;
    if grad {
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
    }
}

/// One `(replica, stage)` this worker holds, with everything that belongs
/// to it. Rows address it by its index in [`Worker::held`].
pub(crate) struct Held {
    pub replica: u32,
    pub stage_id: u32,
    pub stage: Stage,
    pub opt: Optimizer,
}

/// One worker's runtime state, kept across the segments of a run.
pub(crate) struct Worker {
    /// This worker's id within its pipeline group.
    id: WorkerId,
    /// Data-parallel group this worker belongs to (`0..W`, §3.3).
    group: u32,
    /// Total number of replicated pipeline groups `W`.
    w_total: u32,
    program: Arc<Program>,
    /// Pool pre-sizing from the liveness plan: `(size class, extra spares)`.
    pool_plan: Vec<(usize, usize)>,
    /// Parallel to [`Program::held`].
    held: Vec<Held>,
    /// Parallel to [`Program::reducer_stages`].
    reducers: Vec<Box<dyn KeyedReduce>>,
    /// This worker's interconnect endpoint; global rank `group · D + id`.
    ep: Arc<dyn Transport>,
    data: SyntheticData,
    opts: TrainOptions,
    /// Global iteration currently executing (for fault matching and error
    /// diagnostics).
    cur_iter: u32,
    /// Activation stashes of in-flight micro-batches, by the row's slot.
    stashes: Vec<Option<MicroStash>>,
    /// Asynchronous schedules (PipeDream) update weights mid-stream; to keep
    /// forward/backward weight versions consistent, each in-flight
    /// micro-batch must run its backward against the parameter version its
    /// forward read (PipeDream's *weight stashing*). Copy-on-update: the
    /// update that would overwrite a still-referenced version parks **one**
    /// copy here (not one per in-flight micro — PipeDream's Table-2 bound of
    /// `D - s` resident versions at stage `s` is exactly what this attains
    /// in steady state), in the slot lowering chose; the last backward that
    /// reads it frees it.
    versions: Vec<Option<Vec<f32>>>,
    losses: Vec<(u64, f32)>,
    /// Element-exact accounting of held-across-op buffers.
    mem: MemTracker,
    /// Tracked memory and pool behaviour of the first — cold — segment;
    /// `None` until it ran.
    pub(crate) report: Option<MemReport>,
    tracer: Option<Tracer>,
}

impl Worker {
    /// Assemble a worker executing `program`. Each
    /// `(replica, stage)` entry carries the stage parameters **and** the
    /// optimizer state it resumes from — fresh at iteration 0, restored from
    /// a checkpoint after a recovery; `sync` holds one `(stage, member)` per
    /// distinct held stage. Both must cover exactly what the program holds.
    /// `pool_plan` is this worker's [`crate::mem::WorkerMemPlan::classes`]
    /// (empty: pre-warm the transient classes only).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: WorkerId,
        program: Arc<Program>,
        pool_plan: Vec<(usize, usize)>,
        group: u32,
        w_total: u32,
        mut stages: Vec<(u32, u32, (Stage, Optimizer))>,
        mut sync: Vec<(u32, Box<dyn KeyedReduce>)>,
        ep: Arc<dyn Transport>,
        data: SyntheticData,
        opts: TrainOptions,
    ) -> Self {
        stages.sort_by_key(|&(r, s, ..)| (r, s));
        assert!(
            stages
                .iter()
                .map(|&(r, s, ..)| (r, s))
                .eq(program.held.iter().copied()),
            "worker {id:?} must be given exactly the stages its program holds"
        );
        sync.sort_by_key(|&(s, _)| s);
        assert!(
            sync.iter()
                .map(|&(s, _)| s)
                .eq(program.reducer_stages.iter().copied()),
            "worker {id:?} must be given one reducer per held stage"
        );
        let held: Vec<Held> = stages
            .into_iter()
            .map(|(replica, stage_id, (stage, opt))| {
                debug_assert_eq!(opt.len(), stage.num_params());
                Held {
                    replica,
                    stage_id,
                    stage,
                    opt,
                }
            })
            .collect();
        let tracer = opts.trace.clone().map(|sink| {
            let reg = MetricsRegistry::global();
            Tracer {
                sink,
                track: group * program.d + id.0,
                p2p_bytes: reg.counter("runtime.p2p.bytes"),
                p2p_wait_ns: reg.counter("runtime.p2p.wait_ns"),
                allreduce_launches: reg.counter("runtime.allreduce.launches"),
                stage_compute_ns: held
                    .iter()
                    .map(|h| reg.counter(&format!("runtime.stage.{}.compute_ns", h.stage_id)))
                    .collect(),
            }
        });
        Worker {
            id,
            group,
            w_total,
            held,
            reducers: sync.into_iter().map(|(_, member)| member).collect(),
            ep,
            data,
            opts,
            cur_iter: 0,
            stashes: (0..program.stash_slots).map(|_| None).collect(),
            versions: vec![None; program.version_slots],
            program,
            pool_plan,
            losses: Vec::new(),
            mem: MemTracker::default(),
            report: None,
            tracer,
        }
    }

    /// Run global iterations `start..start + iterations` and return the
    /// `(global_micro, loss)` of every micro-batch whose head ran here. The
    /// first call pre-warms the pool and records [`Worker::report`].
    ///
    /// Global micro-batch ids interleave data-parallel groups group-major:
    /// global iteration `i` consumes micros starting at `i·N·W + group·N` —
    /// the same ordering the sequential reference uses, so keyed gradient
    /// reduction stays bit-exact across `W`.
    pub(crate) fn run(
        &mut self,
        start: u32,
        iterations: u32,
    ) -> Result<Vec<(u64, f32)>, WorkerError> {
        let program = self.program.clone();
        let cold = self.report.is_none();
        let prewarmed = cold && self.opts.pool && self.opts.prewarm && pool::enabled();
        if prewarmed {
            self.prewarm();
        }
        // Pool counters are thread-local, so this worker's hit/miss behavior
        // is measurable without races against siblings.
        let miss_base = pool::local_stats().misses;
        let misses = || pool::local_stats().misses - miss_base;
        let mut first_micro_misses = None;
        let mut first_iter_misses = 0;
        for iter in 0..iterations {
            self.cur_iter = start + iter;
            self.maybe_kill()?;
            let n = self.program.n as u64;
            let offset = (self.cur_iter as u64 * self.w_total as u64 + self.group as u64) * n;
            let mut posthoc_start = None;
            for (i, row) in program.rows.iter().enumerate() {
                if i == program.implicit_from {
                    posthoc_start = self.tracer.as_ref().map(|_| now_ns());
                }
                self.exec(row, offset)?;
                if iter == 0 && first_micro_misses.is_none() && row.op.is_compute() {
                    first_micro_misses = Some(misses());
                }
            }
            // The implicit post-hoc rows trace as one allreduce span.
            if let (Some(tr), Some(start)) = (&self.tracer, posthoc_start) {
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
            if iter == 0 {
                first_iter_misses = misses();
            }
        }
        if cold {
            // Published per worker, so a run whose caller gathers no
            // `MemReport`s (one rank per process) can still state "the cold
            // start allocated nothing".
            let first_micro_misses = first_micro_misses.unwrap_or(0);
            MetricsRegistry::global()
                .counter("runtime.pool.first_micro_misses")
                .add(first_micro_misses);
            self.report = Some(MemReport {
                high_water_elems: self.mem.high_water(),
                high_at_op: self.mem.high_at(),
                first_micro_misses,
                first_iter_misses,
                steady_misses: misses() - first_iter_misses,
                prewarmed,
            });
        }
        Ok(std::mem::take(&mut self.losses))
    }

    /// The `(replica, stage)` copies this worker holds, with their optimizers.
    pub(crate) fn held(&self) -> &[Held] {
        &self.held
    }

    /// The held copies, moved out.
    pub(crate) fn into_held(self) -> Vec<Held> {
        self.held
    }

    /// Pre-warm this thread's pool: one dry forward/backward cycle per held
    /// stage covers every transient size class a compute op touches; the
    /// liveness plan then tops each class up by the maximum number of
    /// concurrently-held buffers (stashes, weight versions; a gradient is
    /// the dry backward's own, since its group puts one back in the same
    /// op). Shapes — not values — determine allocation, so zeroed probe
    /// inputs warm exactly the classes training will request.
    fn prewarm(&mut self) {
        for h in &self.held {
            let (s, stage) = (h.stage_id, &h.stage);
            let last = s + 1 == self.program.d;
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
            if self.program.version_slots > 0 {
                // A backward against a parked weight version swaps the live
                // parameters out through one transient flat copy. (Updates
                // and reduced gradients need none: parameters are stepped in
                // place and the reduce result is shared, not copied.)
                pool::put(stage.params());
            }
        }
        for &(class, extra) in &self.pool_plan {
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

    /// Execute one row, under a span named after its op when tracing (the
    /// implicit post-hoc rows share one span, recorded by [`Worker::run`]).
    fn exec(&mut self, row: &Row, offset: u64) -> Result<(), WorkerError> {
        let Some(tr) = &self.tracer else {
            return self.exec_row(row, offset);
        };
        if row.op.kind == OpKind::AllReduceLaunch {
            tr.allreduce_launches.inc();
        }
        if row.op_ix == self.program.ops {
            return self.exec_row(row, offset);
        }
        let kind = match row.op.kind {
            OpKind::Forward => SpanKind::Forward,
            OpKind::Backward { recompute: true } => SpanKind::Recompute,
            OpKind::Backward { recompute: false } => SpanKind::Backward,
            OpKind::AllReduceLaunch => SpanKind::AllReduceLaunch,
            OpKind::AllReduceWait => SpanKind::AllReduce,
        };
        let start = now_ns();
        self.exec_row(row, offset)?;
        let end = now_ns();
        let tr = self.tracer.as_ref().expect("tracer checked above");
        let h = row.held as usize;
        if row.op.is_compute() {
            tr.stage_compute_ns[h].add(end.saturating_sub(start));
        }
        tr.span(
            kind,
            row.op.to_string(),
            start,
            end,
            Some(row.op.stage.0),
            Some(row.op.replica.0),
            (row.op.is_compute()).then(|| u64::from(row.op.micro.0) + offset),
            None,
        );
        Ok(())
    }

    fn exec_row(&mut self, row: &Row, offset: u64) -> Result<(), WorkerError> {
        let h = row.held as usize;
        match row.op.kind {
            OpKind::Forward => self.forward(row, u64::from(row.op.micro.0) + offset),
            OpKind::Backward { .. } => self.backward(row, u64::from(row.op.micro.0) + offset),
            OpKind::AllReduceLaunch => {
                // The round's gradients were contributed as they were made.
                self.reducers[row.reducer as usize].deposit(Vec::new());
                Ok(())
            }
            OpKind::AllReduceWait => {
                self.park_version(row);
                let summed = self.fetch_reduced(row)?;
                if !summed.is_empty() {
                    let held = &mut self.held[h];
                    let lr = self.opts.schedule().at(held.opt.steps());
                    held.stage.step(&mut held.opt, &summed, lr);
                }
                Ok(())
            }
        }
    }

    /// Wait (with deadline) for the next reduced gradient of the row's stage.
    fn fetch_reduced(&self, row: &Row) -> Result<Reduced, WorkerError> {
        self.reducers[row.reducer as usize]
            .fetch_deadline(self.opts.recv_timeout)
            .ok_or(WorkerError::AllReduceTimeout {
                group: self.group,
                worker: self.id.0,
                iteration: self.cur_iter,
                stage: self.held[row.held as usize].stage_id,
                waited: self.opts.recv_timeout,
            })
    }

    fn forward(&mut self, row: &Row, g: u64) -> Result<(), WorkerError> {
        let h = row.held as usize;
        let s = self.held[h].stage_id;
        let last = s + 1 == self.program.d;
        let (tokens, targets) = if s == 0 || last {
            self.data.batch(g, self.opts.micro_batch)
        } else {
            (Vec::new(), Vec::new())
        };
        let x = match row.recv {
            Some((_, key)) => Some(self.recv(key, g)?),
            None => None,
        };
        let (out, mut stash) = self.held[h].stage.forward(
            x,
            (s == 0).then_some(tokens.as_slice()),
            last.then_some(targets.as_slice()),
        );
        if row.boundary_only {
            stash.drop_to_boundary();
        }
        self.mem.add(stash.elements(), row.op_ix);
        self.stashes[row.micros[0].stash_slot as usize] = Some(stash);
        if let (Some((to, key)), Some(act)) = (row.send, out.activation) {
            self.send(to, key, g, act)?;
        }
        if let Some(loss) = out.loss {
            self.losses.push((g, loss));
        }
        Ok(())
    }

    fn backward(&mut self, row: &Row, g: u64) -> Result<(), WorkerError> {
        let dy = match row.recv {
            Some((_, key)) => Some(self.recv(key, g)?),
            None => None,
        };
        let cov = row.micros[0];
        let mut stash = self.stashes[cov.stash_slot as usize]
            .take()
            .expect("lowering pairs every backward with its forward's slot");
        let held = &mut self.held[row.held as usize];
        let last = held.stage_id + 1 == self.program.d;
        // Weight stashing: the backward must use the parameter version this
        // micro's forward read. A micro on the still-current version runs in
        // place; one on a superseded version swaps in the shared parked copy
        // and swaps back after.
        let saved = cov.version_slot.map(|slot| {
            let saved = held.stage.params();
            let parked = self.versions[slot as usize]
                .as_ref()
                .expect("version parked");
            held.stage.set_params(parked);
            saved
        });
        if !stash.is_full() {
            let boundary = stash.elements();
            let (_, targets) = self.data.batch(g, self.opts.micro_batch);
            held.stage
                .recompute(&mut stash, last.then_some(targets.as_slice()));
            self.mem.add(stash.elements() - boundary, row.op_ix);
        }
        let scale = 1.0 / (self.program.n * self.w_total) as f32;
        let (dx, grad) = held.stage.backward(&stash, dy, scale);
        self.mem.add(grad.len(), row.op_ix);
        if let Some(saved) = saved {
            held.stage.set_params(&saved);
            pool::put(saved);
            if cov.frees_version {
                let slot = cov.version_slot.expect("a version was swapped in");
                let parked = self.versions[slot as usize].take().expect("version parked");
                self.mem.sub(parked.len());
                pool::put(parked);
            }
        }
        self.mem.sub(stash.elements());
        drop(stash);
        if let (Some((to, key)), Some(dx)) = (row.send, dx) {
            self.send(to, key, g, dx)?;
        }
        // The gradient joins its stage's round at once, after the boundary
        // gradient is on its way; a folding group puts a buffer back in
        // this thread's pool in its place.
        let len = grad.len();
        self.reducers[row.reducer as usize].contribute(g, grad);
        self.mem.sub(len);
        Ok(())
    }

    /// The row's stage is about to be updated: if lowering found an
    /// in-flight micro-batch still reading the current weights, park one
    /// copy of them in the row's version slot first (copy-on-update).
    ///
    /// The liveness pass prices the same row's `parks_version`, so tracked
    /// memory matches the analyzer's byte for byte.
    fn park_version(&mut self, row: &Row) {
        if let Some(slot) = row.parks_version {
            let params = self.held[row.held as usize].stage.params();
            self.mem.add(params.len(), row.op_ix);
            self.versions[slot as usize] = Some(params);
        }
    }

    /// Ship one pipeline boundary tensor to worker `to` in this group.
    ///
    /// p2p stays within the pipeline group (§3.3): transport ranks are
    /// global worker ids `group · D + local id`. An injected message fault
    /// is interpreted here, above the session, so it behaves identically
    /// over every backend and under either driver.
    fn send(
        &mut self,
        to: u32,
        key: KeyTemplate,
        micro: u64,
        tensor: Tensor,
    ) -> Result<(), WorkerError> {
        if self.lose_or_stall(key, micro) {
            return Ok(());
        }
        self.ep
            .send(
                self.group * self.program.d + to,
                msg_key(key, micro),
                Payload::Tensor(tensor),
            )
            .map_err(|_| WorkerError::PeerGone {
                group: self.group,
                worker: self.id.0,
                iteration: self.cur_iter,
                to,
            })
    }

    /// Fire the injected message faults aimed at this boundary tensor, each
    /// at most once per worker: `true` when the message is lost (the send
    /// must not happen); a stall sleeps here and lets it through. Only
    /// boundary tensors pass through [`Worker::send`], so collective and
    /// control traffic is never matched.
    fn lose_or_stall(&mut self, key: KeyTemplate, micro: u64) -> bool {
        let (group, id) = (self.group, self.id.0);
        let aimed = |m: &MsgFault| {
            (m.group, m.from_worker, m.grad, m.micro) == (group, id, key.grad, micro)
        };
        let Some(fault) = self.opts.fault.as_mut() else {
            return false;
        };
        let lost = fault.drop_msg.take_if(|m| aimed(m)).is_some();
        let stall = if lost {
            None
        } else {
            fault.delay_msg.take_if(|(m, _)| aimed(m))
        };
        let (verb, counter) = match (lost, stall) {
            (true, _) => ("drop", "runtime.fault.dropped_msgs"),
            (false, Some(_)) => ("delay", "runtime.fault.delayed_msgs"),
            (false, None) => return false,
        };
        MetricsRegistry::global().counter(counter).inc();
        let start = now_ns();
        let end = stall.map_or(start, |(_, stall)| {
            std::thread::sleep(stall);
            now_ns()
        });
        if let Some(tr) = &self.tracer {
            tr.span(
                SpanKind::Fault,
                format!("{verb} m{micro}@s{}", key.stage),
                start,
                end,
                Some(key.stage),
                Some(key.replica),
                Some(micro),
                None,
            );
        }
        lost
    }

    fn recv(&mut self, key: KeyTemplate, micro: u64) -> Result<Tensor, WorkerError> {
        let start = self.tracer.as_ref().map(|_| now_ns());
        let msg = msg_key(key, micro);
        let tensor = match self.ep.recv_deadline(msg, self.opts.recv_timeout) {
            Ok(payload) => payload.into_tensor(),
            Err(_) => {
                return Err(WorkerError::RecvTimeout {
                    group: self.group,
                    worker: self.id.0,
                    iteration: self.cur_iter,
                    op: format!("recv {}", msg.describe()),
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
            let dir = if key.grad { "grad" } else { "act" };
            tr.span(
                SpanKind::P2p,
                format!("recv {dir} m{micro}@s{}", key.stage),
                start,
                end,
                Some(key.stage),
                Some(key.replica),
                Some(micro),
                Some(tensor.len() as u64 * 4),
            );
        }
        Ok(tensor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::configure;
    use chimera_collectives::TransportKeyed;
    use chimera_comm::{LocalEndpoint, LocalFabric};
    use chimera_core::chimera::{chimera, ChimeraConfig};
    use chimera_nn::ModelConfig;
    use std::time::Instant;

    const ACT: KeyTemplate = KeyTemplate {
        grad: false,
        replica: 0,
        stage: 0,
    };
    const GRAD: KeyTemplate = KeyTemplate {
        grad: true,
        replica: 1,
        stage: 1,
    };

    /// Worker `g0-w0` of a Chimera D = 2 group on rank 0 of a two-rank
    /// fabric with `fault` armed (its reducers rooted at rank 1, so its
    /// deposits travel), plus rank 1's endpoint to observe what arrives.
    fn worker0(fault: FaultSpec) -> (Worker, LocalEndpoint) {
        let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
        let opts = TrainOptions {
            fault: Some(fault),
            ..TrainOptions::default()
        };
        let run = configure(&sched, ModelConfig::tiny(), &opts).expect("runs");
        let program = run.programs[0].clone();
        let mut eps = LocalFabric::new(2);
        let peer = eps.pop().expect("rank 1");
        let ep: Arc<dyn Transport> = Arc::new(eps.pop().expect("rank 0"));
        let stages = (program.held.iter())
            .map(|&(r, s)| {
                let stage = run.stages[s as usize].0.clone();
                let opt = Optimizer::new(opts.optimizer_kind(), stage.num_params());
                (r, s, (stage, opt))
            })
            .collect();
        let sync = (program.reducer_stages.iter())
            .map(|&s| {
                let member = TransportKeyed::new(ep.clone(), s, vec![1, 0]);
                (s, Box::new(member) as Box<dyn KeyedReduce>)
            })
            .collect();
        let data = SyntheticData::new(ModelConfig::tiny(), 1);
        let plan = run.pool_plans[0].clone();
        let worker = Worker::new(
            WorkerId(0),
            program,
            plan,
            0,
            1,
            stages,
            sync,
            ep,
            data,
            opts,
        );
        (worker, peer)
    }

    fn aimed(group: u32, from_worker: u32, key: KeyTemplate, micro: u64) -> MsgFault {
        MsgFault {
            group,
            from_worker,
            grad: key.grad,
            micro,
        }
    }

    /// Send one boundary tensor to rank 1 and say whether it arrived.
    fn arrives(w: &mut Worker, peer: &LocalEndpoint, key: KeyTemplate, micro: u64) -> bool {
        w.send(1, key, micro, Tensor::zeros(1, 1))
            .expect("peer alive");
        peer.try_recv(&msg_key(key, micro)).is_some()
    }

    #[test]
    fn drop_is_one_shot_and_direction_selective() {
        let (mut w, peer) = worker0(FaultSpec {
            drop_msg: Some(aimed(0, 0, ACT, 3)),
            ..FaultSpec::default()
        });
        assert!(arrives(&mut w, &peer, ACT, 2), "wrong micro passes");
        assert!(arrives(&mut w, &peer, GRAD, 3), "wrong direction passes");
        assert!(!arrives(&mut w, &peer, ACT, 3), "target is dropped");
        assert!(
            arrives(&mut w, &peer, ACT, 3),
            "second matching send passes"
        );
    }

    #[test]
    fn a_fault_aimed_at_another_sender_never_fires() {
        for (group, from) in [(1, 0), (0, 1)] {
            let (mut w, peer) = worker0(FaultSpec {
                drop_msg: Some(aimed(group, from, ACT, 3)),
                ..FaultSpec::default()
            });
            assert!(
                arrives(&mut w, &peer, ACT, 3),
                "g{group}-w{from} is not g0-w0"
            );
        }
    }

    #[test]
    fn delay_sleeps_then_delivers_once() {
        let (mut w, peer) = worker0(FaultSpec {
            delay_msg: Some((aimed(0, 0, GRAD, 1), Duration::from_millis(25))),
            ..FaultSpec::default()
        });
        let t0 = Instant::now();
        assert!(
            arrives(&mut w, &peer, GRAD, 1),
            "delayed message still delivers"
        );
        assert!(t0.elapsed() >= Duration::from_millis(25));
        let t1 = Instant::now();
        assert!(arrives(&mut w, &peer, GRAD, 1));
        assert!(
            t1.elapsed() < Duration::from_millis(20),
            "delay is one-shot"
        );
    }

    /// Gradient deposits and control messages leave through the worker's
    /// endpoint without passing `Worker::send`: a fault on micro 0 neither
    /// touches them nor is used up by them.
    #[test]
    fn collective_and_control_traffic_is_never_matched() {
        let (mut w, peer) = worker0(FaultSpec {
            drop_msg: Some(aimed(0, 0, ACT, 0)),
            ..FaultSpec::default()
        });
        let stage = w.program.reducer_stages[0];
        w.reducers[0].deposit(vec![(0, vec![1.0])]);
        let coll = MsgKey::Coll {
            tag: stage,
            round: 0,
            from: 0,
        };
        assert!(
            peer.try_recv(&coll).is_some(),
            "deposit of micro 0, round 0"
        );
        let ctrl = MsgKey::Ctrl { tag: 0, from: 0 };
        w.ep.send(1, ctrl, Payload::Flat(vec![0.0]))
            .expect("peer alive");
        assert!(peer.try_recv(&ctrl).is_some());
        assert!(!arrives(&mut w, &peer, ACT, 0), "the fault is still armed");
    }
}
