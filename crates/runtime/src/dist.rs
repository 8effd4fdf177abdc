//! Multi-process training: the per-process worker entry point behind
//! `chimera-cli launch` / `chimera-cli worker`.
//!
//! Every OS process owns exactly one pipeline worker (one transport rank);
//! [`train_worker_process`] builds that worker against any
//! [`chimera_comm::Transport`] endpoint — the TCP backend for real
//! multi-process runs, the local backend in tests — wires its gradient
//! synchronization through [`chimera_collectives::TransportKeyed`], runs the
//! whole schedule, and gathers results at rank 0 over the control plane.
//!
//! Determinism is preserved end to end: stage initialization, data order,
//! and the keyed-ordered reduction are all identical to the in-process
//! [`crate::train_hybrid`] path, so a distributed run's final parameters are
//! **bit-identical** to the threaded run's (and therefore to sequential
//! SGD).
//!
//! # Cross-process recovery
//!
//! With a [`RecoverySpec`], training proceeds in **segments** of
//! `every` iterations. After each segment — whose closing allreduce is a
//! de-facto barrier, so no rank can be a full segment ahead — every rank
//! writes its slice of the model (held stage replicas, optimizer moments
//! and its loss log) to `rank{r}.seg{k}.ckpt` in a shared directory,
//! atomically (tmp + rename). A checkpoint is **committed** only when all
//! ranks have written it; on `resume`, every rank independently scans the
//! directory for the newest committed segment and replays from there —
//! deterministically, so the restarted run's final parameters are
//! bit-identical to an uninterrupted one. A cross-process supervisor
//! (`chimera-cli launch`) drives this: it detects a dead rank via exit
//! codes and the transport failure detector, kills the stragglers, and
//! gang-restarts every worker with `resume` set.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use chimera_collectives::TransportKeyed;
use chimera_comm::{KeyedReduce, MsgKey, Payload, Rank, Transport};
use chimera_core::schedule::Schedule;
use chimera_core::{StageId, WorkerId};
use chimera_nn::{CheckpointError, ModelConfig, Optimizer, Stage, SyntheticData};

use crate::error::{TrainError, WorkerError};
use crate::worker::{SegmentSpec, TrainOptions, Worker};

/// Control-plane tag carrying a worker's `(micro, loss)` pairs to rank 0.
const LOSS_TAG: u32 = u32::MAX;

/// Control-plane tag for the final parameters of one `(replica, stage)`
/// copy. Replica and stage ids are far below 2^16 in any runnable config.
fn stage_tag(replica: u32, stage: u32) -> u32 {
    (replica << 16) | stage
}

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

fn escalate(e: WorkerError) -> TrainError {
    let (group, worker, iteration) = e.location();
    match e {
        WorkerError::Killed { .. } => TrainError::WorkerLost {
            group,
            worker,
            iteration,
            recoveries: 0,
        },
        WorkerError::RecvTimeout { op, waited, .. } => TrainError::Timeout {
            group,
            worker,
            iteration,
            op,
            waited,
        },
        WorkerError::AllReduceTimeout { stage, waited, .. } => TrainError::Timeout {
            group,
            worker,
            iteration,
            op: format!("allreduce wait for stage {stage}"),
            waited,
        },
        WorkerError::PeerGone { to, .. } => TrainError::Timeout {
            group,
            worker,
            iteration,
            op: format!("send to dead peer w{to}"),
            waited: Duration::ZERO,
        },
    }
}

/// A gather at rank 0 that never completed.
fn gather_timeout(iterations: u32, key: MsgKey, waited: Duration) -> TrainError {
    TrainError::Timeout {
        group: 0,
        worker: 0,
        iteration: iterations,
        op: format!("gather {}", key.describe()),
        waited,
    }
}

/// How a worker process checkpoints for — and resumes after — a
/// cross-process failure. See the module docs for the commit protocol.
#[derive(Debug, Clone)]
pub struct RecoverySpec {
    /// Directory shared by all ranks (same host or shared filesystem)
    /// holding the per-rank segment checkpoints.
    pub dir: PathBuf,
    /// Segment length in iterations (a checkpoint after each). Zero means
    /// one segment for the whole run (checkpoint only at the end).
    pub every: u32,
    /// Scan `dir` for the newest committed segment and replay from it.
    /// With no committed checkpoint the run starts fresh.
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

/// [`train_worker_process`] with segment checkpointing and resume — the
/// worker half of the cross-process recovery protocol.
pub fn train_worker_process_recoverable(
    ep: Arc<dyn Transport>,
    sched: &Schedule,
    cfg: ModelConfig,
    opts: TrainOptions,
    w: u32,
    recovery: Option<&RecoverySpec>,
) -> Result<Option<DistOutcome>, TrainError> {
    let mut programs = crate::runtime::lower_for_run(sched)?;
    let d = sched.d;
    let per_group = sched.num_workers() as u32;
    assert_eq!(
        ep.world(),
        per_group * w,
        "fabric size must be W·D (group-major)"
    );
    let rank = ep.rank();
    let group = rank / per_group;
    let lw = rank % per_group;
    let wid = WorkerId(lw);
    let program = Arc::new(programs.swap_remove(lw as usize));

    let kind = opts.optimizer_kind();
    let canon_stages = Stage::build_all(cfg, d);

    // Fresh state at iteration 0…
    let mut stages: Vec<(u32, u32, Stage, Optimizer)> = sched
        .placement
        .held_by(wid)
        .into_iter()
        .map(|(r, s)| {
            let stage = canon_stages[s.0 as usize].clone();
            let opt = Optimizer::new(kind, stage.num_params());
            (r.0, s.0, stage, opt)
        })
        .collect();
    let mut losses: Vec<(u64, f32)> = Vec::new();
    let mut done: u32 = 0;

    // …unless resuming from the newest checkpoint committed by ALL ranks
    // (ranks that got further before the crash roll back with everyone).
    if let Some(rec) = recovery.filter(|r| r.resume) {
        if let Some(seg) = latest_committed(&rec.dir, ep.world()) {
            let (ck_losses, ck_stages) =
                load_rank_ckpt(&rank_ckpt_path(&rec.dir, rank, seg), kind, &stages)
                    .map_err(TrainError::Checkpoint)?;
            losses = ck_losses;
            stages = ck_stages;
            done = seg;
        }
    }

    let timeout = opts.recv_timeout;
    let iterations = opts.iterations;

    while done < iterations {
        let len = match recovery {
            Some(rec) if rec.every > 0 => rec.every.min(iterations - done),
            _ => iterations - done,
        };
        let seg = SegmentSpec {
            start_iter: done,
            iterations: len,
            // W never degrades across process boundaries (the supervisor
            // gang-restarts at full strength), so the cursor is derivable.
            micro_base: done as u64 * sched.n as u64 * w as u64,
        };
        // One keyed-ordered allreduce group per held stage, spanning every
        // data-parallel group's holders in (group, holder) member order —
        // the exact order the in-process runtime assigns, so the
        // key-ordered sum is bitwise identical. Rebuilt per segment so a
        // replayed segment restarts its rounds from zero on every rank.
        let mut sync: Vec<(u32, Box<dyn KeyedReduce>)> = Vec::new();
        for &s in &program.reducer_stages {
            let holders = sched.placement.stage_holders(StageId(s));
            let mut members: Vec<Rank> = Vec::with_capacity(holders.len() * w as usize);
            for g in 0..w {
                for h in &holders {
                    members.push(g * per_group + h.0);
                }
            }
            sync.push((
                s,
                Box::new(TransportKeyed::new(ep.clone(), s, members)) as _,
            ));
        }
        let worker = Worker::new(
            wid,
            program.clone(),
            Vec::new(),
            group,
            w,
            stages,
            sync,
            ep.clone(),
            SyntheticData::new(cfg, opts.data_seed),
            opts.clone(),
            seg,
        );
        let result = worker.run().map_err(escalate)?;
        losses.extend(result.losses);
        stages = result.stages;
        done += len;
        if let Some(rec) = recovery {
            save_rank_ckpt(
                &rank_ckpt_path(&rec.dir, rank, done),
                rank,
                &losses,
                &stages,
            )
            .map_err(TrainError::Checkpoint)?;
        }
    }
    let result_losses = losses;
    let result_stages = stages;

    if rank != 0 {
        // Ship this worker's slice to rank 0. A failed send means rank 0 is
        // gone; there is nobody left to report to, so exit quietly.
        let _ = ep.send(
            0,
            MsgKey::Ctrl {
                tag: LOSS_TAG,
                from: rank,
            },
            Payload::Losses(result_losses),
        );
        for (r, s, stage, _) in result_stages {
            let _ = ep.send(
                0,
                MsgKey::Ctrl {
                    tag: stage_tag(r, s),
                    from: rank,
                },
                Payload::Flat(stage.params()),
            );
        }
        return Ok(None);
    }

    // Rank 0: gather losses and every (replica, stage) parameter copy.
    let mut losses = result_losses;
    for from in 1..ep.world() {
        let key = MsgKey::Ctrl {
            tag: LOSS_TAG,
            from,
        };
        let payload = ep
            .recv_deadline(key, timeout)
            .map_err(|_| gather_timeout(iterations, key, timeout))?;
        losses.extend(payload.into_losses());
    }
    losses.sort_unstable_by_key(|&(g, _)| g);

    let mut replica_params: HashMap<u32, Vec<Vec<f32>>> = HashMap::new();
    for (_, s, stage, _) in &result_stages {
        replica_params.entry(*s).or_default().push(stage.params());
    }
    for from in 1..ep.world() {
        let peer = WorkerId(from % per_group);
        for (r, s) in sched.placement.held_by(peer) {
            let key = MsgKey::Ctrl {
                tag: stage_tag(r.0, s.0),
                from,
            };
            let payload = ep
                .recv_deadline(key, timeout)
                .map_err(|_| gather_timeout(iterations, key, timeout))?;
            replica_params
                .entry(s.0)
                .or_default()
                .push(payload.into_flat());
        }
    }

    // Verify all 2f·W replica copies of each stage agree bit-for-bit, then
    // deduplicate — same contract as the in-process supervisor.
    let mut flat_params = Vec::new();
    for s in 0..d {
        let copies = replica_params
            .remove(&s)
            .ok_or(TrainError::MissingStage { stage: s })?;
        let (canonical, rest) = copies.split_first().expect("at least one replica");
        if rest.iter().any(|c| c != canonical) {
            return Err(TrainError::ReplicaDivergence { stage: s });
        }
        flat_params.extend_from_slice(canonical);
    }

    let per = sched.n as usize * w as usize;
    let iteration_losses = (0..iterations as usize)
        .map(|i| {
            let slice = &losses[i * per..(i + 1) * per];
            (slice.iter().map(|&(_, l)| l as f64).sum::<f64>() / per as f64) as f32
        })
        .collect();
    Ok(Some(DistOutcome {
        iteration_losses,
        flat_params,
    }))
}

/// Magic for per-rank segment checkpoints (`b"CHPR"`, little-endian).
const RANK_CKPT_MAGIC: u32 = u32::from_le_bytes(*b"CHPR");
const RANK_CKPT_VERSION: u32 = 1;

/// `dir/rank{r}.seg{k}.ckpt` — rank `r`'s state after `k` committed
/// global iterations.
fn rank_ckpt_path(dir: &Path, rank: Rank, seg: u32) -> PathBuf {
    dir.join(format!("rank{rank}.seg{seg}.ckpt"))
}

/// Newest segment for which **every** rank's checkpoint exists — the
/// commit rule that keeps a gang-restart consistent when some ranks died
/// between finishing a segment and persisting it.
pub fn latest_committed(dir: &Path, world: u32) -> Option<u32> {
    let entries = std::fs::read_dir(dir).ok()?;
    // seg -> how many ranks have it
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("rank") else {
            continue;
        };
        let Some(rest) = rest.strip_suffix(".ckpt") else {
            continue;
        };
        let Some((r, s)) = rest.split_once(".seg") else {
            continue;
        };
        let (Ok(r), Ok(s)) = (r.parse::<u32>(), s.parse::<u32>()) else {
            continue;
        };
        if r < world {
            *counts.entry(s).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .filter(|&(_, n)| n >= world)
        .map(|(s, _)| s)
        .max()
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
    put_u64(buf, vs.len() as u64);
    for v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn bytes(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.0.len() < n {
            return Err(CheckpointError::Truncated);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f32s(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let n = self.u64()? as usize;
        let raw = self.bytes(n.checked_mul(4).ok_or(CheckpointError::Truncated)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

/// Atomically persist one rank's segment state: its loss log plus, per
/// held `(replica, stage)`: parameters and optimizer moments.
fn save_rank_ckpt(
    path: &Path,
    rank: Rank,
    losses: &[(u64, f32)],
    stages: &[(u32, u32, Stage, Optimizer)],
) -> Result<(), CheckpointError> {
    let mut buf = Vec::new();
    put_u32(&mut buf, RANK_CKPT_MAGIC);
    put_u32(&mut buf, RANK_CKPT_VERSION);
    put_u32(&mut buf, rank);
    put_u64(&mut buf, losses.len() as u64);
    for &(g, l) in losses {
        put_u64(&mut buf, g);
        put_u32(&mut buf, l.to_bits());
    }
    put_u32(&mut buf, stages.len() as u32);
    for (r, s, stage, opt) in stages {
        put_u32(&mut buf, *r);
        put_u32(&mut buf, *s);
        put_f32s(&mut buf, &stage.params());
        let (m, v, t) = opt.state();
        put_u64(&mut buf, t);
        put_f32s(&mut buf, m);
        put_f32s(&mut buf, v);
    }
    let io = |e: std::io::Error| CheckpointError::Io(format!("{}: {e}", path.display()));
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, &buf).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)
}

/// One rank's decoded segment checkpoint: the `(iteration, loss)` log plus
/// the rank's owned `(replica, stage)` entries with their optimizer state.
type RankCkpt = (Vec<(u64, f32)>, Vec<(u32, u32, Stage, Optimizer)>);

/// Restore one rank's segment state. `template` fixes which
/// `(replica, stage)` entries (and parameter shapes) this rank must hold;
/// a checkpoint disagreeing with it is rejected rather than trusted.
fn load_rank_ckpt(
    path: &Path,
    kind: chimera_nn::OptimizerKind,
    template: &[(u32, u32, Stage, Optimizer)],
) -> Result<RankCkpt, CheckpointError> {
    let raw =
        std::fs::read(path).map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
    let mut rd = Reader(&raw);
    if rd.u32()? != RANK_CKPT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = rd.u32()?;
    if version != RANK_CKPT_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let _rank = rd.u32()?;
    let n_losses = rd.u64()? as usize;
    let mut losses = Vec::with_capacity(n_losses);
    for _ in 0..n_losses {
        let g = rd.u64()?;
        let l = f32::from_bits(rd.u32()?);
        losses.push((g, l));
    }
    let n_stages = rd.u32()? as usize;
    if n_stages != template.len() {
        return Err(CheckpointError::ShapeMismatch {
            expected: template.len(),
            got: n_stages,
        });
    }
    let mut out = Vec::with_capacity(n_stages);
    for (er, es, estage, _) in template {
        let r = rd.u32()?;
        let s = rd.u32()?;
        if (r, s) != (*er, *es) {
            return Err(CheckpointError::BadMagic);
        }
        let params = rd.f32s()?;
        if params.len() != estage.num_params() {
            return Err(CheckpointError::ShapeMismatch {
                expected: estage.num_params(),
                got: params.len(),
            });
        }
        let t = rd.u64()?;
        let m = rd.f32s()?;
        let v = rd.f32s()?;
        let mut stage = estage.clone();
        stage.set_params(&params);
        out.push((r, s, stage, Optimizer::from_state(kind, m, v, t)));
    }
    if !rd.0.is_empty() {
        return Err(CheckpointError::Truncated);
    }
    Ok((losses, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::train_hybrid;
    use chimera_comm::LocalFabric;
    use chimera_core::chimera::{chimera, ChimeraConfig};
    use std::thread;

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

    /// Every rank in its own "process" (thread + its own endpoint of a
    /// local fabric, no shared state beyond the transport): the distributed
    /// path must be bit-identical to the in-process supervisor.
    #[test]
    fn distributed_run_matches_in_process_bitwise() {
        let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
        let cfg = ModelConfig::tiny();
        let w = 2u32;
        let world = sched.num_workers() as u32 * w;

        let handles: Vec<_> = LocalFabric::new(world)
            .into_iter()
            .map(|e| {
                let sched = sched.clone();
                thread::spawn(move || {
                    train_worker_process(Arc::new(e), &sched, cfg, opts(3), w).unwrap()
                })
            })
            .collect();
        let mut outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let dist = outcomes.remove(0).expect("rank 0 assembles the outcome");
        assert!(outcomes.iter().all(Option::is_none));

        let reference = train_hybrid(&sched, cfg, opts(3), w).unwrap();
        let dist_bits: Vec<u32> = dist.flat_params.iter().map(|f| f.to_bits()).collect();
        let ref_bits: Vec<u32> = reference
            .flat_params()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(dist_bits, ref_bits);
        assert_eq!(dist.iteration_losses.len(), 3);
        for (a, b) in dist
            .iteration_losses
            .iter()
            .zip(&reference.iteration_losses)
        {
            assert_eq!(a.to_bits(), b.to_bits());
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
            scale: ScaleMethod::ForwardDoubling { recompute: true },
        })
        .unwrap();
        let cfg = ModelConfig::tiny();
        let rejected =
            |e: Option<TrainError>| matches!(e, Some(TrainError::UnsupportedSchedule { .. }));
        assert!(rejected(crate::train(&sched, cfg, opts(1)).err()));
        assert!(rejected(train_hybrid(&sched, cfg, opts(1), 2).err()));
        // The check precedes even the fabric-size assertion.
        let ep = LocalFabric::new(1).pop().expect("one endpoint");
        let err = train_worker_process(Arc::new(ep), &sched, cfg, opts(1), 1).err();
        assert!(
            err.as_ref().is_some_and(|e| e.to_string().contains("w0")),
            "{err:?}"
        );
        assert!(rejected(err));
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
        let dir = std::env::temp_dir().join(format!(
            "chimera-gang-restart-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // Round 1: rank 0 (group 0, worker 0) dies at iteration 3 — inside
        // the second 2-iteration segment. Everyone fails fast.
        let mut round1 = opts(4);
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
            every: 2,
            resume,
        };
        let handles: Vec<_> = LocalFabric::new(world)
            .into_iter()
            .map(|e| {
                let sched = sched.clone();
                let opts = round1.clone();
                let rec = rec(false);
                let dying = e.rank() == 0;
                thread::spawn(move || {
                    let got = train_worker_process_recoverable(
                        Arc::new(e),
                        &sched,
                        cfg,
                        opts,
                        w,
                        Some(&rec),
                    );
                    (dying, got)
                })
            })
            .collect();
        for h in handles {
            let (dying, got) = h.join().unwrap();
            let err = got.expect_err("round 1 must fail on every rank");
            if dying {
                assert!(
                    matches!(err, TrainError::WorkerLost { .. }),
                    "killed rank reports itself lost, got {err}"
                );
            }
        }
        // The crash left segment 1 (iterations 0..2) committed by all ranks.
        assert_eq!(latest_committed(&dir, world), Some(2));

        // Round 2: gang restart, no fault, resume from the committed
        // segment — the supervisor's respawn path.
        let handles: Vec<_> = LocalFabric::new(world)
            .into_iter()
            .map(|e| {
                let sched = sched.clone();
                let rec = rec(true);
                thread::spawn(move || {
                    train_worker_process_recoverable(
                        Arc::new(e),
                        &sched,
                        cfg,
                        opts(4),
                        w,
                        Some(&rec),
                    )
                    .unwrap()
                })
            })
            .collect();
        let mut outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let recovered = outcomes.remove(0).expect("rank 0 assembles the outcome");

        let reference = train_hybrid(&sched, cfg, opts(4), w).unwrap();
        let rec_bits: Vec<u32> = recovered.flat_params.iter().map(|f| f.to_bits()).collect();
        let ref_bits: Vec<u32> = reference
            .flat_params()
            .iter()
            .map(|f| f.to_bits())
            .collect();
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
