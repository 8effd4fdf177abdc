//! The per-rank entry point, and the one training loop behind every run.
//!
//! A run is `W·D` ranks (§3.3), one pipeline worker each, rank `group · D +
//! local worker id`. Every rank runs `run_rank`: train a segment of
//! [`TrainOptions::checkpoint_every`] iterations, ship rank 0 the losses and
//! the parameters of every `(replica, stage)` copy held — the optimizer
//! moments too from the copy that keeps its stage (its first holder in rank
//! order) — and go on. Rank 0 checks each copy against the kept one as it
//! arrives, then commits the losses so far and the canonical model with its
//! optimizer state as [`chimera_nn::checkpoint::save_state`] bytes. Only the
//! fabric differs: rank threads over a [`chimera_comm::LocalFabric`]
//! ([`crate::train_hybrid`]) reduce through in-process
//! [`chimera_collectives::keyed_group`] members and commit to the
//! supervisor's memory; rank processes ([`train_worker_process`]) reduce
//! through [`chimera_collectives::TransportKeyed`] and, with a
//! [`RecoverySpec`], commit `dir/run.ckpt` (written as `run.ckpt.tmp` and
//! renamed over it: the rename is the commit), else run one segment. Stage
//! initialization, data order and the keyed-ordered reduction are the same
//! under either, so the final parameters are **bit-identical** across
//! fabrics, and to sequential SGD.
//!
//! # Cross-process recovery
//!
//! On `resume`, every rank restores the committed file and takes its held
//! stages from it as the in-process supervisor does after a death, then
//! replays deterministically, bit-identically to an uninterrupted run. A
//! resume that finds every iteration committed runs no worker: rank 0
//! answers from the file. `chimera-cli launch` drives this: it detects a
//! dead rank via exit codes and the transport failure detector, kills the
//! stragglers, and gang-restarts every worker with `resume` set.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use chimera_collectives::TransportKeyed;
use chimera_comm::{KeyedReduce, MsgKey, Payload, Rank, Transport};
use chimera_core::program::Program;
use chimera_core::schedule::Schedule;
use chimera_core::WorkerId;
use chimera_nn::checkpoint::{self, get_f32s, put_f32s, take, Buf, BufMut, Bytes};
use chimera_nn::{CheckpointError, ModelConfig, Optimizer, OptimizerKind, Stage, SyntheticData};
use chimera_trace::{now_ns, MetricsRegistry, SpanKind};

use crate::error::{TrainError, WorkerError};
use crate::mem::MemReport;
use crate::runtime::SupervisorTrace;
use crate::setup::{check_fabric, configure, hand_out, iteration_means, reducer_members, Run};
use crate::worker::{Held, TrainOptions, Worker};

// The gather keys below are the same for every segment of a run. Inboxes are
// FIFO per key, so rank 0 reads each rank's segments in the order they were
// sent; and no rank can finish segment k + 1 before rank 0 has run it (rank
// 0 takes part in every iteration's pipeline and allreduces), so at most two
// segments' messages wait under one key.

/// Control-plane tag carrying a worker's `(micro, loss)` pairs to rank 0.
const LOSS_TAG: u32 = u32::MAX;

/// Control-plane tag for the parameters of one `(replica, stage)` copy.
/// Replica ids are far below 2^16 and stage ids below 2^15 in any runnable
/// config.
fn stage_tag(replica: u32, stage: u32) -> u32 {
    (replica << 16) | stage
}

/// Control-plane tag for the optimizer moments of one `(replica, stage)`
/// copy, shipped only by the copy that keeps its stage, and only when a
/// commit is due.
fn moments_tag(replica: u32, stage: u32) -> u32 {
    stage_tag(replica, stage) | 1 << 15
}

/// The committed checkpoint in a [`RecoverySpec::dir`].
const CHECKPOINT_FILE: &str = "run.ckpt";

/// What rank 0 assembles after a distributed run. Ranks other than 0 ship
/// their slice to rank 0 and get `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct DistOutcome {
    /// Mean loss per iteration, over all `N·W` micro-batches.
    pub iteration_losses: Vec<f32>,
    /// Concatenated final parameters of stages `0..D`, every replica copy
    /// verified bit-identical — comparable with
    /// [`crate::TrainResult::flat_params`] and
    /// [`chimera_nn::ReferenceTrainer::flat_params`].
    pub flat_params: Vec<f32>,
}

/// A length-prefixed run of `f32`s.
fn put_f32_vec(buf: &mut Vec<u8>, vals: &[f32]) {
    buf.put_u64_le(vals.len() as u64);
    put_f32s(buf, vals);
}

fn get_f32_vec(buf: &mut &[u8]) -> Result<Vec<f32>, CheckpointError> {
    let n = take(buf, 8)?.get_u64_le();
    get_f32s(
        buf,
        usize::try_from(n).map_err(|_| CheckpointError::Truncated)?,
    )
}

impl DistOutcome {
    /// The outcome as bytes — what rank 0 of `chimera-cli launch` leaves
    /// for its supervisor. Little-endian, each vector length-prefixed.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_f32_vec(&mut buf, &self.iteration_losses);
        put_f32_vec(&mut buf, &self.flat_params);
        buf
    }

    /// Inverse of [`DistOutcome::encode`]; a short, empty or over-long input
    /// is [`CheckpointError::Truncated`], never a panic.
    pub fn decode(mut bytes: &[u8]) -> Result<Self, CheckpointError> {
        let outcome = DistOutcome {
            iteration_losses: get_f32_vec(&mut bytes)?,
            flat_params: get_f32_vec(&mut bytes)?,
        };
        if !bytes.is_empty() {
            return Err(CheckpointError::Truncated);
        }
        Ok(outcome)
    }
}

/// Where a worker process commits — and what it resumes from after a
/// cross-process failure. The cadence is [`TrainOptions::checkpoint_every`];
/// see the module docs for the commit protocol.
#[derive(Debug, Clone)]
pub struct RecoverySpec {
    /// Directory shared by all ranks (same host or shared filesystem)
    /// holding the committed checkpoint, which rank 0 writes.
    pub dir: PathBuf,
    /// Restore the committed checkpoint in `dir` and replay from it. With
    /// no checkpoint there the run starts fresh.
    pub resume: bool,
}

/// Run this process's single pipeline worker of a `W·D` fabric and take
/// part in the final result gather.
///
/// The fabric must have exactly `W · sched.num_workers()` ranks laid out
/// group-major (rank = `group · D + local worker id`); `ep.rank()` decides
/// which worker this process executes. Rank 0 returns the assembled
/// [`DistOutcome`]; every other rank returns `Ok(None)` after shipping its
/// losses and stage copies to rank 0.
pub fn train_worker_process(
    ep: Arc<dyn Transport>,
    sched: &Schedule,
    cfg: ModelConfig,
    opts: TrainOptions,
    w: u32,
) -> Result<Option<DistOutcome>, TrainError> {
    train_worker_process_recoverable(ep, sched, cfg, opts, w, None)
}

/// [`train_worker_process`] with a committed checkpoint and resume — the
/// worker half of the cross-process recovery protocol.
pub fn train_worker_process_recoverable(
    ep: Arc<dyn Transport>,
    sched: &Schedule,
    cfg: ModelConfig,
    opts: TrainOptions,
    w: u32,
    recovery: Option<&RecoverySpec>,
) -> Result<Option<DistOutcome>, TrainError> {
    let mut run = configure(sched, cfg, &opts)?;
    check_fabric(sched, w, ep.world())?;
    let rank = ep.rank();
    let program = run.programs[(rank % sched.num_workers() as u32) as usize].clone();

    // The canonical state at iteration 0, or the one rank 0 last committed
    // (ranks that got further before the crash roll back with everyone).
    let resumed = match recovery.filter(|r| r.resume) {
        Some(rec) => read_checkpoint(&rec.dir, cfg, opts.optimizer_kind(), sched.d)?,
        None => None,
    };
    let replay = resumed.is_some();
    let built = std::mem::take(&mut run.stages);
    let (losses, canon) = resumed.unwrap_or_else(|| (Vec::new(), built));
    let done = losses.len() as u32;
    if done > opts.iterations {
        let longer = CheckpointError::NotThisRun("more iterations than this run has");
        return Err(longer.into());
    }
    if done == opts.iterations {
        // Every iteration is committed (or none asked for): nothing to run.
        let flat_params = canon.iter().flat_map(|(stage, _)| stage.params()).collect();
        return Ok((rank == 0).then_some(DistOutcome {
            iteration_losses: losses,
            flat_params,
        }));
    }
    // This worker's held stages, moved out of the `D` canonical ones; the
    // rest are dropped here.
    let held = hand_out(canon, &[&program.held]).pop().unwrap_or_default();
    let sync = (program.reducer_stages.iter())
        .map(|&s| {
            let member = TransportKeyed::new(ep.clone(), s, reducer_members(sched, s, w));
            (s, Box::new(member) as Box<dyn KeyedReduce>)
        })
        .collect();
    let job = Job {
        sched,
        cfg,
        opts,
        w,
        run: &run,
        store: recovery.map_or(Store::None, |rec| {
            Store::File(rec.dir.join(CHECKPOINT_FILE))
        }),
        replay,
    };
    let ranked = run_rank(&job, ep, sync, held, losses).map_err(TrainError::from)?;
    Ok(ranked
        .outcome
        .map(|(iteration_losses, stages)| DistOutcome {
            iteration_losses,
            flat_params: stages.iter().flat_map(Stage::params).collect(),
        }))
}

/// Where rank 0 commits after every segment.
pub(crate) enum Store<'a> {
    /// Nowhere: the run is one segment.
    None,
    /// The in-process supervisor's memory: the losses so far and the
    /// [`checkpoint::save_state`] bytes.
    Memory(&'a Mutex<Option<(Vec<f32>, Bytes)>>),
    /// A file, `dir/run.ckpt` of a [`RecoverySpec`].
    File(PathBuf),
}

/// What every rank of one attempt at a run shares.
pub(crate) struct Job<'a> {
    pub sched: &'a Schedule,
    pub cfg: ModelConfig,
    pub opts: TrainOptions,
    pub w: u32,
    pub run: &'a Run,
    pub store: Store<'a>,
    /// Restarted from a commit: rank 0 traces its first segment as a replay.
    pub replay: bool,
}

/// Why a rank stopped early.
pub(crate) enum Stop {
    /// Its worker's own report, which the in-process supervisor classifies.
    Worker(WorkerError),
    /// The gather or the commit around the worker failed.
    Run(TrainError),
}

impl From<Stop> for TrainError {
    fn from(stop: Stop) -> Self {
        match stop {
            Stop::Worker(e) => e.into(),
            Stop::Run(e) => e,
        }
    }
}

/// What a rank returns when the run is done.
pub(crate) struct Ranked {
    /// Rank 0's: the per-iteration losses and the `D` canonical stages.
    pub outcome: Option<(Vec<f32>, Vec<Stage>)>,
    /// The copies no outcome keeps, dropped by the caller: on the
    /// supervisor's thread, whose pool then serves the next run's
    /// [`hand_out`] clones.
    pub _spare: Vec<Stage>,
    /// The worker's tracked memory over its first segment.
    pub mem: Option<MemReport>,
}

/// One rank's share of a run, from `iteration_losses.len()` committed
/// iterations to the end: train a segment, ship rank 0 this rank's losses
/// and copies (rank 0 gathers, checks and commits them), repeat. `held` is
/// this rank's slice of the canonical state ([`hand_out`]), `sync` one
/// reducer member from the fabric per stage it holds.
pub(crate) fn run_rank(
    job: &Job<'_>,
    ep: Arc<dyn Transport>,
    sync: Vec<(u32, Box<dyn KeyedReduce>)>,
    held: Vec<(u32, u32, (Stage, Optimizer))>,
    iteration_losses: Vec<f32>,
) -> Result<Ranked, Stop> {
    let (sched, opts) = (job.sched, &job.opts);
    let per_group = sched.num_workers() as u32;
    let rank = ep.rank();
    let wid = WorkerId(rank % per_group);
    let mut worker = Worker::new(
        wid,
        job.run.programs[wid.idx()].clone(),
        job.run.pool_plans[wid.idx()].clone(),
        rank / per_group,
        job.w,
        held,
        sync,
        ep.clone(),
        SyntheticData::new(job.cfg, opts.data_seed),
        opts.clone(),
    );
    let mut gather = Gather {
        job,
        ep: ep.as_ref(),
        keepers: keepers(&job.run.programs, sched.d).map_err(Stop::Run)?,
        commits: !matches!(job.store, Store::None),
        iteration_losses,
        rebuilt: (0..sched.d).map(|_| None).collect(),
        replay: job.replay.then(now_ns),
    };
    let cadence = (opts.checkpoint_every)
        .filter(|&c| c > 0 && gather.commits)
        .unwrap_or(u32::MAX);
    let mut done = gather.iteration_losses.len() as u32;
    let (losses, len) = loop {
        let len = cadence.min(opts.iterations - done);
        let losses = worker.run(done, len).map_err(Stop::Worker)?;
        done += len;
        if done == opts.iterations {
            break (losses, len);
        }
        gather.segment_end(losses, worker.held(), done, len)?;
    };
    // The run is over: everything of the worker but its copies goes before
    // the last gather allocates, as an exited thread's would.
    let mem = worker.report;
    let mut held = worker.into_held();
    gather.segment_end(losses, &held, done, len)?;
    let outcome = (rank == 0).then(|| {
        let stages = (0..sched.d).zip(gather.rebuilt).map(|(s, rebuilt)| {
            let kept = |h: &Held| (0, h.replica) == gather.keepers[s as usize] && h.stage_id == s;
            match held.iter().position(kept) {
                Some(at) => held.swap_remove(at).stage,
                None => rebuilt.expect("rebuilt at the gather").0,
            }
        });
        (gather.iteration_losses, stages.collect())
    });
    let _spare = held.into_iter().map(|h| h.stage).collect();
    Ok(Ranked {
        outcome,
        _spare,
        mem,
    })
}

/// The end of a segment, on either side of the gather.
struct Gather<'a> {
    job: &'a Job<'a>,
    ep: &'a dyn Transport,
    /// Per stage, the `(rank, replica)` whose copy is canonical.
    keepers: Vec<(u32, u32)>,
    /// Whether rank 0 commits after every segment.
    commits: bool,
    /// Rank 0's: the run's per-iteration losses so far.
    iteration_losses: Vec<f32>,
    /// Rank 0's copy of each stage it does not keep (with its optimizer
    /// when commits are due), rebuilt from the keeper's.
    rebuilt: Vec<Option<(Stage, Option<Optimizer>)>>,
    /// When a replay started, until rank 0 commits it.
    replay: Option<u64>,
}

impl Gather<'_> {
    /// End segment `done − len..done` with this rank's `losses` and
    /// `copies`. A rank other than 0 ships them: the parameters of every
    /// copy, and the moments of the copies it keeps when a commit is due. A
    /// failed send means rank 0 is gone; there is nobody left to report to,
    /// and the next segment (if any) fails against the dead peer. Rank 0
    /// gathers every rank's, checks every copy of every stage against the
    /// kept one as it arrives, and commits.
    fn segment_end(
        &mut self,
        mut losses: Vec<(u64, f32)>,
        copies: &[Held],
        done: u32,
        len: u32,
    ) -> Result<(), Stop> {
        let (job, ep, opts) = (self.job, self.ep, &self.job.opts);
        let (d, per_group) = (job.sched.d, job.sched.num_workers() as u32);
        let rank = ep.rank();
        if rank != 0 {
            let send = |tag: u32, payload: Payload| {
                let _ = ep.send(0, MsgKey::Ctrl { tag, from: rank }, payload);
            };
            send(LOSS_TAG, Payload::Losses(losses));
            for h in copies {
                let (r, s) = (h.replica, h.stage_id);
                send(stage_tag(r, s), Payload::Flat(h.stage.params()));
                if self.commits && self.keepers[s as usize] == (rank, r) {
                    send(moments_tag(r, s), Payload::Flat(moments_of(&h.opt)));
                }
            }
            return Ok(());
        }
        // A gather that never completes is rank 0's own blocked wait.
        let gather = |tag: u32, from: Rank| {
            let key = MsgKey::Ctrl { tag, from };
            (ep.recv_deadline(key, opts.recv_timeout)).map_err(|_| {
                Stop::Run(TrainError::Timeout {
                    group: 0,
                    worker: 0,
                    iteration: done,
                    op: format!("gather {}", key.describe()),
                    waited: opts.recv_timeout,
                })
            })
        };
        for from in 1..ep.world() {
            losses.extend(gather(LOSS_TAG, from)?.into_losses());
        }
        let per_iteration = job.sched.n as usize * job.w as usize;
        (self.iteration_losses).extend(iteration_means(losses, per_iteration));
        // Every stage steps once per update, so rank 0's own count is every
        // stage's.
        let steps = copies.first().map_or(0, |h| h.opt.steps());
        let own = |r: u32, s: u32| {
            let mut copies = copies.iter();
            let h = copies.find(|h| (h.replica, h.stage_id) == (r, s));
            h.map(|h| (&h.stage, &h.opt))
                .expect("rank 0 holds what its program holds")
        };
        for s in 0..d {
            let (keeper, kept) = self.keepers[s as usize];
            let reference = if keeper == 0 {
                own(kept, s).0.params()
            } else {
                let params = gather(stage_tag(kept, s), keeper)?.into_flat();
                let (stage, opt) = self.rebuilt[s as usize]
                    .get_or_insert_with(|| (Stage::build(job.cfg, s, d), None));
                stage.set_params(&params);
                if self.commits {
                    let mut m = gather(moments_tag(kept, s), keeper)?.into_flat();
                    let v = m.split_off(stage.num_params());
                    *opt = Some(Optimizer::from_state(opts.optimizer_kind(), m, v, steps));
                }
                params
            };
            // Each other copy is checked as it arrives, then dropped.
            let holders = (0..ep.world()).flat_map(|from| {
                let held = &job.run.programs[(from % per_group) as usize].held;
                (held.iter())
                    .filter(move |&&(_, s2)| s2 == s)
                    .map(move |&(r, _)| (from, r))
            });
            for (from, r) in holders.filter(|&copy| copy != (keeper, kept)) {
                let copy = if from == 0 {
                    own(r, s).0.params()
                } else {
                    gather(stage_tag(r, s), from)?.into_flat()
                };
                if copy != reference {
                    return Err(Stop::Run(TrainError::ReplicaDivergence { stage: s }));
                }
            }
        }
        if !self.commits {
            return Ok(());
        }

        let model: Vec<(&Stage, &Optimizer)> = (0..d)
            .map(|s| match self.keepers[s as usize] {
                (0, kept) => own(kept, s),
                _ => {
                    let (stage, opt) = self.rebuilt[s as usize].as_ref().expect("rebuilt above");
                    (stage, opt.as_ref().expect("moments gathered above"))
                }
            })
            .collect();
        match &job.store {
            Store::Memory(slot) => {
                let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
                // The superseded commit goes first: the two are never needed
                // together, and each is the size of the model.
                *slot = None;
                let state = checkpoint::save_state(&model);
                *slot = Some((self.iteration_losses.clone(), state));
            }
            Store::File(path) => {
                let state = checkpoint::save_state(&model);
                commit(path, &self.iteration_losses, &state).map_err(|e| Stop::Run(e.into()))?;
            }
            Store::None => unreachable!("commits are due only with a store"),
        }
        let reg = MetricsRegistry::global();
        reg.counter("runtime.checkpoint.saves").inc();
        if let Some(start) = self.replay.take() {
            reg.counter("runtime.recovery.replayed_iterations")
                .add(u64::from(len));
            if let Some(sink) = &opts.trace {
                let lane = SupervisorTrace {
                    sink: sink.clone(),
                    track: ep.world(),
                };
                let name = format!("replay i{}..i{done}", done - len);
                lane.span(SpanKind::Replay, name, start, now_ns());
            }
        }
        Ok(())
    }
}

/// Per stage, the `(rank, replica)` whose copy is the run's canonical one:
/// the stage's first holder in rank order, always in group 0.
fn keepers(programs: &[Arc<Program>], d: u32) -> Result<Vec<(u32, u32)>, TrainError> {
    (0..d)
        .map(|stage| {
            (programs.iter().zip(0..))
                .find_map(|(p, rank)| {
                    let mut held = p.held.iter();
                    held.find(|&&(_, s)| s == stage).map(|&(r, _)| (rank, r))
                })
                .ok_or(TrainError::MissingStage { stage })
        })
        .collect()
}

/// An optimizer's moments as one flat vector: the first moment, then the
/// second (empty for SGD).
fn moments_of(opt: &Optimizer) -> Vec<f32> {
    let (m, v, _) = opt.state();
    [m, v].concat()
}

/// Atomically replace the committed checkpoint at `path`: the run's
/// per-iteration losses (length-prefixed), then `state`
/// ([`checkpoint::save_state`] bytes), written beside it and renamed over it.
fn commit(path: &Path, losses: &[f32], state: &[u8]) -> Result<(), CheckpointError> {
    let io = |e: std::io::Error| CheckpointError::Io(format!("{}: {e}", path.display()));
    let mut prefix = Vec::with_capacity(8 + 4 * losses.len());
    put_f32_vec(&mut prefix, losses);
    let tmp = path.with_extension("ckpt.tmp");
    let mut file = std::fs::File::create(&tmp).map_err(io)?;
    (file.write_all(&prefix))
        .and_then(|()| file.write_all(state))
        .map_err(io)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io)
}

/// A restored commit: per-iteration losses, and every stage with its
/// optimizer.
type Restored = (Vec<f32>, Vec<(Stage, Optimizer)>);

/// The state committed in `dir`, re-partitioned into `depth` stages, or
/// `None` when nothing is committed yet. A file that does not decode, or
/// that another model or optimizer wrote, is an error.
fn read_checkpoint(
    dir: &Path,
    cfg: ModelConfig,
    kind: OptimizerKind,
    depth: u32,
) -> Result<Option<Restored>, CheckpointError> {
    let path = dir.join(CHECKPOINT_FILE);
    let raw = match std::fs::read(&path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CheckpointError::Io(format!("{}: {e}", path.display()))),
    };
    let mut rd = raw.as_slice();
    let losses = get_f32_vec(&mut rd)?;
    let (stages, optimizers) = checkpoint::load_state(rd, depth)?;
    if *stages[0].config() != cfg {
        return Err(CheckpointError::NotThisRun("another model configuration"));
    }
    if optimizers[0].kind() != kind {
        return Err(CheckpointError::NotThisRun("another optimizer"));
    }
    Ok(Some((losses, stages.into_iter().zip(optimizers).collect())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::train_hybrid;
    use chimera_comm::LocalFabric;
    use chimera_core::build_named;
    use chimera_core::chimera::{chimera, ChimeraConfig};
    use std::thread;
    use std::time::Duration;

    fn opts(iterations: u32) -> TrainOptions {
        TrainOptions {
            micro_batch: 2,
            iterations,
            lr: 0.05,
            momentum: 0.9,
            data_seed: 11,
            ..TrainOptions::default()
        }
    }

    /// [`opts`] committing every `k` iterations.
    fn every(k: u32, iterations: u32) -> TrainOptions {
        TrainOptions {
            checkpoint_every: Some(k),
            ..opts(iterations)
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Every rank of a `world`-rank fabric as a thread running the
    /// per-process entry point; the results in rank order.
    fn run_ranks(
        sched: &Schedule,
        cfg: ModelConfig,
        opts: &TrainOptions,
        w: u32,
        world: u32,
        rec: Option<&RecoverySpec>,
    ) -> Vec<Result<Option<DistOutcome>, TrainError>> {
        thread::scope(|scope| {
            let ranks: Vec<_> = (LocalFabric::new(world).into_iter())
                .map(|ep| {
                    let opts = opts.clone();
                    scope.spawn(move || {
                        train_worker_process_recoverable(Arc::new(ep), sched, cfg, opts, w, rec)
                    })
                })
                .collect();
            ranks.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// A scratch directory of this test thread's own.
    fn scratch_dir(what: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "chimera-{what}-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The committed file's loss prefix and the `save_state` bytes behind it.
    fn split_committed(raw: &[u8]) -> (Vec<f32>, &[u8]) {
        let mut rd = raw;
        let losses = get_f32_vec(&mut rd).unwrap();
        (losses, rd)
    }

    /// The `launch` result file round-trips, and anything but a whole one —
    /// empty, cut anywhere, a length prefix promising more than is there,
    /// trailing bytes — is a typed error rather than a slice panic in the
    /// supervisor.
    #[test]
    fn result_file_roundtrips_and_rejects_truncation() {
        let outcome = DistOutcome {
            iteration_losses: vec![3.5, 3.25],
            flat_params: vec![0.1, -0.2, f32::MIN_POSITIVE],
        };
        let bytes = outcome.encode();
        assert_eq!(DistOutcome::decode(&bytes), Ok(outcome));
        for cut in 0..bytes.len() {
            assert_eq!(
                DistOutcome::decode(&bytes[..cut]),
                Err(CheckpointError::Truncated),
                "cut at {cut}"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(DistOutcome::decode(&long), Err(CheckpointError::Truncated));
        let huge = u64::MAX.to_le_bytes();
        assert_eq!(DistOutcome::decode(&huge), Err(CheckpointError::Truncated));
    }

    /// One checkpoint format for both drivers. For Chimera and DAPPLE at
    /// D = 2, W ∈ {1, 2}, checkpointing every iteration: the file rank 0
    /// commits after k iterations is `train_hybrid`'s losses and parameters
    /// after k iterations bit for bit, as `save_state` bytes that load at D
    /// and re-partitioned at D = 1; resuming from it finishes the run
    /// bit-identically (so the moments came back too), and resuming a
    /// finished run answers from the file. Any damage to it — every cut
    /// inside the loss prefix, cuts in the state, a flipped magic, a file
    /// another model configuration wrote — makes `resume` a
    /// `TrainError::Checkpoint` on every rank, never a panic.
    #[test]
    fn the_committed_file_is_the_supervisors_checkpoint() {
        let cfg = ModelConfig::tiny();
        for (scheme, w) in [("chimera", 1), ("chimera", 2), ("dapple", 1), ("dapple", 2)] {
            let case = format!("{scheme} W={w}");
            let sched = build_named(scheme, 2, 2).unwrap();
            let world = 2 * w;
            let dir = scratch_dir("one-format");
            let path = dir.join(CHECKPOINT_FILE);
            let rec = |resume| RecoverySpec {
                dir: dir.clone(),
                resume,
            };
            let full = train_hybrid(&sched, cfg, opts(3), w).unwrap();
            for k in [1, 3] {
                let got = run_ranks(&sched, cfg, &every(1, k), w, world, Some(&rec(false)));
                let outcome = got[0].clone().unwrap().expect("rank 0 assembles");
                let reference = train_hybrid(&sched, cfg, opts(k), w).unwrap();
                let raw = std::fs::read(&path).unwrap();
                let (losses, state) = split_committed(&raw);
                assert_eq!(
                    bits(&losses),
                    bits(&reference.iteration_losses),
                    "{case} k={k}"
                );
                assert_eq!(bits(&outcome.flat_params), bits(&reference.flat_params()));
                for depth in [2, 1] {
                    let (stages, optimizers) = checkpoint::load_state(state, depth).unwrap();
                    let flat: Vec<f32> = stages.iter().flat_map(Stage::params).collect();
                    assert_eq!(bits(&flat), bits(&reference.flat_params()), "{case} k={k}");
                    assert!(optimizers.iter().all(|o| o.steps() == u64::from(k)));
                }
            }

            // Resume after one committed iteration, then resume the finished run.
            for got in run_ranks(&sched, cfg, &every(1, 1), w, world, Some(&rec(false))) {
                got.unwrap();
            }
            for _ in 0..2 {
                let got = run_ranks(&sched, cfg, &every(1, 3), w, world, Some(&rec(true)));
                let mut got = got.into_iter().map(Result::unwrap);
                let resumed = got.next().unwrap().expect("rank 0 assembles");
                assert!(got.all(|o| o.is_none()), "{case}");
                assert_eq!(
                    bits(&resumed.flat_params),
                    bits(&full.flat_params()),
                    "{case}"
                );
                assert_eq!(
                    bits(&resumed.iteration_losses),
                    bits(&full.iteration_losses)
                );
            }

            let whole = std::fs::read(&path).unwrap();
            let prefix = 8 + 4 * 3;
            // (what, file, the error when it is not just any checkpoint error)
            let mut damaged: Vec<(String, Vec<u8>, Option<CheckpointError>)> = (0..prefix)
                .chain([prefix + 4, prefix + 40, whole.len() / 2, whole.len() - 1])
                .map(|cut| (format!("cut at {cut}"), whole[..cut].to_vec(), None))
                .collect();
            let mut flipped = whole.clone();
            flipped[prefix] ^= 0xFF;
            damaged.push((
                "flipped magic".into(),
                flipped,
                Some(CheckpointError::BadMagic),
            ));
            let other = ModelConfig {
                seed: cfg.seed + 1,
                ..cfg
            };
            let stages = Stage::build_all(other, 2);
            let kind = opts(3).optimizer_kind();
            let optimizers: Vec<_> = (stages.iter())
                .map(|s| Optimizer::new(kind, s.num_params()))
                .collect();
            let model: Vec<_> = stages.iter().zip(&optimizers).collect();
            commit(&path, &[3.5], &checkpoint::save_state(&model)).unwrap();
            let another = CheckpointError::NotThisRun("another model configuration");
            damaged.push((
                "another model".into(),
                std::fs::read(&path).unwrap(),
                Some(another),
            ));
            for (what, bytes, expected) in damaged {
                std::fs::write(&path, bytes).unwrap();
                for got in run_ranks(&sched, cfg, &every(1, 3), w, world, Some(&rec(true))) {
                    let Err(TrainError::Checkpoint(e)) = got else {
                        panic!("{case} {what}: {got:?}");
                    };
                    assert!(
                        expected.as_ref().is_none_or(|x| *x == e),
                        "{case} {what}: {e}"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// §3.5's chunked schedules are refused by every entry point with a typed
    /// error — before any worker exists that could panic on the op or leave
    /// its peers to time out.
    #[test]
    fn chunked_schedules_are_rejected_before_spawning() {
        use chimera_core::chimera::ScaleMethod;

        let sched = chimera(&ChimeraConfig {
            d: 4,
            n: 8,
            f: 1,
            scale: ScaleMethod::ForwardDoubling,
        })
        .unwrap();
        let cfg = ModelConfig::tiny();
        let rejected =
            |e: Option<TrainError>| matches!(e, Some(TrainError::UnsupportedSchedule { .. }));
        assert!(rejected(crate::train(&sched, cfg, opts(1)).err()));
        assert!(rejected(train_hybrid(&sched, cfg, opts(1), 2).err()));
        // The check precedes even the fabric-size check.
        let ep = LocalFabric::new(1).pop().expect("one endpoint");
        let err = train_worker_process(Arc::new(ep), &sched, cfg, opts(1), 1).err();
        assert!(
            err.as_ref().is_some_and(|e| e.to_string().contains("w0")),
            "{err:?}"
        );
        assert!(rejected(err));
    }

    /// `W = 0` is the same typed error under either fabric — rank threads of
    /// the in-process supervisor, or a worker process on its endpoint —
    /// before anything runs.
    #[test]
    fn no_data_parallel_group_is_refused_under_either_fabric() {
        let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
        let cfg = ModelConfig::tiny();
        let threads = train_hybrid(&sched, cfg, opts(1), 0).expect_err("W = 0");
        assert_eq!(
            threads,
            TrainError::FabricSize {
                world: 0,
                expected: 0
            }
        );
        for got in run_ranks(&sched, cfg, &opts(1), 0, 2, None) {
            let process = got.expect_err("W = 0");
            assert_eq!(
                process,
                TrainError::FabricSize {
                    world: 2,
                    expected: 0
                }
            );
            assert!(process.to_string().contains("W = 0"), "{process}");
        }
    }

    /// A fabric that is not `W·D` ranks is refused on every rank with an
    /// error naming both sizes, not a panic.
    #[test]
    fn a_fabric_of_the_wrong_size_is_refused_on_every_rank() {
        let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
        let cfg = ModelConfig::tiny();
        for got in run_ranks(&sched, cfg, &opts(1), 1, 3, None) {
            let err = got.expect_err("3 ranks for W·D = 2");
            assert_eq!(
                err,
                TrainError::FabricSize {
                    world: 3,
                    expected: 2
                }
            );
            let text = err.to_string();
            assert!(text.contains("3 ranks") && text.contains("= 2"), "{text}");
        }
    }

    /// The cross-process recovery protocol end to end, minus the process
    /// spawning: run 1 loses a rank mid-training (everyone else errors out
    /// against the dead peer), then the whole gang restarts with `resume`
    /// — exactly what `chimera-cli launch` does with real processes — and
    /// the recovered run's output is bit-identical to an undisturbed one.
    #[test]
    fn gang_restart_from_committed_segments_is_bitwise_identical() {
        use crate::fault::{FaultSpec, KillFault};

        let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
        let cfg = ModelConfig::tiny();
        let w = 2u32;
        let world = sched.num_workers() as u32 * w;
        let dir = scratch_dir("gang-restart");

        // Round 1: rank 0 (group 0, worker 0) dies at iteration 3 — inside
        // the second 2-iteration segment. Everyone fails fast.
        let mut round1 = every(2, 4);
        round1.recv_timeout = Duration::from_millis(300);
        round1.fault = Some(FaultSpec {
            kill: Some(KillFault {
                group: 0,
                worker: 0,
                iteration: 3,
            }),
            ..FaultSpec::default()
        });
        let rec = |resume| RecoverySpec {
            dir: dir.clone(),
            resume,
        };
        let round1 = run_ranks(&sched, cfg, &round1, w, world, Some(&rec(false)));
        for (rank, got) in round1.into_iter().enumerate() {
            let err = got.expect_err("round 1 must fail on every rank");
            if rank == 0 {
                // The launcher prints this, then respawns the gang: it names
                // the kill and claims no exhausted recovery budget.
                assert_eq!(
                    err.to_string(),
                    "worker g0-w0 killed by injected fault at iteration 3"
                );
            }
        }
        // The crash left the first segment (iterations 0..2) committed.
        let raw = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        assert_eq!(split_committed(&raw).0.len(), 2);

        // Round 2: gang restart, no fault, resume from the committed
        // segment — the supervisor's respawn path.
        let mut outcomes = run_ranks(&sched, cfg, &every(2, 4), w, world, Some(&rec(true)));
        let recovered = (outcomes.remove(0).unwrap()).expect("rank 0 assembles the outcome");
        assert!(outcomes.iter().all(|o| matches!(o, Ok(None))));

        let reference = train_hybrid(&sched, cfg, opts(4), w).unwrap();
        let rec_bits = bits(&recovered.flat_params);
        let ref_bits = bits(&reference.flat_params());
        assert_eq!(rec_bits, ref_bits, "recovered run diverged from reference");
        assert_eq!(recovered.iteration_losses.len(), 4);
        for (a, b) in recovered
            .iteration_losses
            .iter()
            .zip(&reference.iteration_losses)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
