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

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use chimera_collectives::TransportKeyed;
use chimera_comm::{KeyedReduce, MsgKey, Payload, Rank, Transport};
use chimera_core::schedule::Schedule;
use chimera_core::WorkerId;
use chimera_nn::checkpoint::{get_f32s, put_f32s, take, Buf, BufMut};
use chimera_nn::{CheckpointError, ModelConfig, Optimizer, Stage, SyntheticData};

use crate::error::TrainError;
use crate::setup::{assemble, configure, hand_out, reducer_members};
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
    let mut run = configure(sched, cfg, &opts)?;
    let per_group = sched.num_workers() as u32;
    assert_eq!(
        ep.world(),
        per_group * w,
        "fabric size must be W·D (group-major)"
    );
    let rank = ep.rank();
    let group = rank / per_group;
    let wid = WorkerId(rank % per_group);
    let program = &run.programs[wid.idx()];

    // Fresh state at iteration 0 — the held stages moved out of the `D` built
    // ones, the rest dropped here…
    let kind = opts.optimizer_kind();
    let mut stages: Vec<(u32, u32, Stage, Optimizer)> =
        (hand_out(std::mem::take(&mut run.stages), &[&program.held]).into_iter())
            .flatten()
            .map(|(r, s, stage)| {
                let opt = Optimizer::new(kind, stage.num_params());
                (r, s, stage, opt)
            })
            .collect();
    let mut losses: Vec<(u64, f32)> = Vec::new();
    let mut done: u32 = 0;

    // …unless resuming from the newest checkpoint committed by ALL ranks
    // (ranks that got further before the crash roll back with everyone).
    if let Some(rec) = recovery.filter(|r| r.resume) {
        if let Some(seg) = latest_committed(&rec.dir, ep.world()) {
            let path = rank_ckpt_path(&rec.dir, rank, seg);
            (losses, stages) = load_rank_ckpt(&path, rank, kind, &stages)?;
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
        // One keyed-ordered allreduce group per held stage, rebuilt per
        // segment so a replayed segment restarts its rounds from zero on
        // every rank.
        let sync = (program.reducer_stages.iter())
            .map(|&s| {
                let members = reducer_members(sched, s, w);
                (
                    s,
                    Box::new(TransportKeyed::new(ep.clone(), s, members)) as Box<dyn KeyedReduce>,
                )
            })
            .collect();
        let worker = Worker::new(
            wid,
            program.clone(),
            run.pool_plans[wid.idx()].clone(),
            group,
            w,
            stages,
            sync,
            ep.clone(),
            SyntheticData::new(cfg, opts.data_seed),
            opts.clone(),
            seg,
        );
        let result = worker.run()?;
        losses.extend(result.losses);
        stages = result.stages;
        done += len;
        if let Some(rec) = recovery {
            save_rank_ckpt(
                &rank_ckpt_path(&rec.dir, rank, done),
                rank,
                &losses,
                &stages,
            )?;
        }
    }

    if rank != 0 {
        // Ship this worker's slice to rank 0. A failed send means rank 0 is
        // gone; there is nobody left to report to, so exit quietly.
        let ship = |tag: u32, payload: Payload| {
            let _ = ep.send(0, MsgKey::Ctrl { tag, from: rank }, payload);
        };
        ship(LOSS_TAG, Payload::Losses(losses));
        for (r, s, stage, _) in stages {
            ship(stage_tag(r, s), Payload::Flat(stage.params()));
        }
        return Ok(None);
    }

    // Rank 0: gather losses and every (replica, stage) parameter copy. A
    // gather that never completes is rank 0's own blocked wait.
    let gather = |tag: u32, from: Rank| {
        let key = MsgKey::Ctrl { tag, from };
        ep.recv_deadline(key, timeout)
            .map_err(|_| TrainError::Timeout {
                group: 0,
                worker: 0,
                iteration: iterations,
                op: format!("gather {}", key.describe()),
                waited: timeout,
            })
    };
    let mut copies: Vec<(u32, Vec<f32>)> = stages
        .iter()
        .map(|(_, s, stage, _)| (*s, stage.params()))
        .collect();
    for from in 1..ep.world() {
        losses.extend(gather(LOSS_TAG, from)?.into_losses());
        for (r, s) in sched.placement.held_by(WorkerId(from % per_group)) {
            copies.push((s.0, gather(stage_tag(r.0, s.0), from)?.into_flat()));
        }
    }
    let per_iteration = sched.n as usize * w as usize;
    let (iteration_losses, canonical) =
        assemble(sched.d, per_iteration, losses, copies, |c| Cow::Borrowed(c))?;
    Ok(Some(DistOutcome {
        iteration_losses,
        flat_params: canonical.concat(),
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

/// Atomically persist one rank's segment state: its loss log plus, per
/// held `(replica, stage)`: parameters and optimizer moments.
fn save_rank_ckpt(
    path: &Path,
    rank: Rank,
    losses: &[(u64, f32)],
    stages: &[(u32, u32, Stage, Optimizer)],
) -> Result<(), CheckpointError> {
    let mut buf = Vec::new();
    buf.put_u32_le(RANK_CKPT_MAGIC);
    buf.put_u32_le(RANK_CKPT_VERSION);
    buf.put_u32_le(rank);
    buf.put_u64_le(losses.len() as u64);
    for &(g, l) in losses {
        buf.put_u64_le(g);
        buf.put_f32_le(l);
    }
    buf.put_u32_le(stages.len() as u32);
    for (r, s, stage, opt) in stages {
        buf.put_u32_le(*r);
        buf.put_u32_le(*s);
        put_f32_vec(&mut buf, &stage.params());
        let (m, v, t) = opt.state();
        buf.put_u64_le(t);
        put_f32_vec(&mut buf, m);
        put_f32_vec(&mut buf, v);
    }
    let io = |e: std::io::Error| CheckpointError::Io(format!("{}: {e}", path.display()));
    let tmp = path.with_extension("ckpt.tmp");
    std::fs::write(&tmp, &buf).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)
}

/// One rank's decoded segment checkpoint: the `(iteration, loss)` log plus
/// the rank's owned `(replica, stage)` entries with their optimizer state.
type RankCkpt = (Vec<(u64, f32)>, Vec<(u32, u32, Stage, Optimizer)>);

/// Restore `rank`'s segment state. `template` fixes which
/// `(replica, stage)` entries (and parameter shapes) this rank must hold;
/// a checkpoint disagreeing with it is rejected rather than trusted — as is
/// another rank's: every data-parallel group's worker `w` holds the same
/// template, so only the stored rank tells their files apart.
fn load_rank_ckpt(
    path: &Path,
    rank: Rank,
    kind: chimera_nn::OptimizerKind,
    template: &[(u32, u32, Stage, Optimizer)],
) -> Result<RankCkpt, CheckpointError> {
    let raw =
        std::fs::read(path).map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
    let mut rd = raw.as_slice();
    // magic, version, rank, loss count
    let mut head = take(&mut rd, 4 + 4 + 4 + 8)?;
    if head.get_u32_le() != RANK_CKPT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = head.get_u32_le();
    if version != RANK_CKPT_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let stored = head.get_u32_le();
    if stored != rank {
        return Err(CheckpointError::WrongRank {
            expected: rank,
            got: stored,
        });
    }
    let n_losses = usize::try_from(head.get_u64_le()).map_err(|_| CheckpointError::Truncated)?;
    let mut log = take(
        &mut rd,
        n_losses.checked_mul(12).ok_or(CheckpointError::Truncated)?,
    )?;
    let losses = (0..n_losses)
        .map(|_| (log.get_u64_le(), log.get_f32_le()))
        .collect();
    let n_stages = take(&mut rd, 4)?.get_u32_le() as usize;
    if n_stages != template.len() {
        return Err(CheckpointError::ShapeMismatch {
            expected: template.len(),
            got: n_stages,
        });
    }
    let mut out = Vec::with_capacity(n_stages);
    for (er, es, estage, _) in template {
        let mut id = take(&mut rd, 8)?;
        let (r, s) = (id.get_u32_le(), id.get_u32_le());
        if (r, s) != (*er, *es) {
            return Err(CheckpointError::BadMagic);
        }
        let params = get_f32_vec(&mut rd)?;
        if params.len() != estage.num_params() {
            return Err(CheckpointError::ShapeMismatch {
                expected: estage.num_params(),
                got: params.len(),
            });
        }
        let t = take(&mut rd, 8)?.get_u64_le();
        let m = get_f32_vec(&mut rd)?;
        let v = get_f32_vec(&mut rd)?;
        let mut stage = estage.clone();
        stage.set_params(&params);
        out.push((r, s, stage, Optimizer::from_state(kind, m, v, t)));
    }
    if !rd.is_empty() {
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

    /// A rank checkpoint cut short is `Truncated`, not a panic, at any cut;
    /// a whole one written by the rank's data-parallel twin is `WrongRank`.
    #[test]
    fn truncated_rank_checkpoint_is_rejected() {
        let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
        let kind = opts(1).optimizer_kind();
        let canon = Stage::build_all(ModelConfig::tiny(), 2);
        let stages: Vec<_> = (sched.placement.held_by(WorkerId(0)).into_iter())
            .map(|(r, s)| {
                let stage = canon[s.idx()].clone();
                let opt = Optimizer::new(kind, stage.num_params());
                (r.0, s.0, stage, opt)
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("chimera-rank-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = rank_ckpt_path(&dir, 0, 1);
        save_rank_ckpt(&path, 0, &[(0, 3.5), (1, 3.25)], &stages).unwrap();
        let whole = std::fs::read(&path).unwrap();
        let (losses, restored) = load_rank_ckpt(&path, 0, kind, &stages).unwrap();
        assert_eq!(losses, vec![(0, 3.5), (1, 3.25)]);
        assert_eq!(restored[0].2.params(), stages[0].2.params());
        // W = 2: rank D + 0 is worker 0 of the second group, same template.
        let twin_path = rank_ckpt_path(&dir, 2, 1);
        save_rank_ckpt(&twin_path, 2, &[(0, 3.5), (1, 3.25)], &stages).unwrap();
        let twin = std::fs::read(&twin_path).unwrap();
        let cuts = [0, 3, 19, 20, 44, 48, whole.len() / 2, whole.len() - 1];
        let cut_short = |cut| {
            (
                format!("cut at {cut}"),
                &whole[..cut],
                CheckpointError::Truncated,
            )
        };
        let mut cases: Vec<_> = cuts.into_iter().map(cut_short).collect();
        let (expected, got) = (0, 2);
        let wrong_rank = CheckpointError::WrongRank { expected, got };
        cases.push(("rank 2's file as rank 0's".into(), &twin, wrong_rank));
        for (what, bytes, error) in cases {
            std::fs::write(&path, bytes).unwrap();
            assert_eq!(
                load_rank_ckpt(&path, 0, kind, &stages).err(),
                Some(error),
                "{what}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
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
