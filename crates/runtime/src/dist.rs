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
//! With a [`RecoverySpec`], training proceeds in **segments** of `every`
//! iterations, and the gather that ends every run also ends every segment:
//! each rank ships rank 0 its segment losses and the parameters **and**
//! optimizer moments of every `(replica, stage)` copy it holds. Rank 0
//! checks that the copies agree, then writes one file, `dir/run.ckpt`: the
//! run's per-iteration losses so far, followed by the canonical model and its
//! optimizer state as [`chimera_nn::checkpoint::save_state`] bytes — the state
//! the in-process supervisor keeps. It writes `run.ckpt.tmp` and renames it
//! over the previous file; the rename is the commit. On `resume`, every rank
//! reads that file, restores it with [`chimera_nn::checkpoint::load_state`]
//! and takes its held stages from it the way the in-process supervisor does
//! after a death, then replays deterministically — so the restarted run's
//! final parameters are bit-identical to an uninterrupted one. A resume that
//! finds every iteration committed runs no worker: rank 0 answers from the
//! file. A cross-process supervisor (`chimera-cli launch`) drives this: it
//! detects a dead rank via exit codes and the transport failure detector,
//! kills the stragglers, and gang-restarts every worker with `resume` set.

use std::borrow::Cow;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use chimera_collectives::TransportKeyed;
use chimera_comm::{KeyedReduce, MsgKey, Payload, Rank, Transport};
use chimera_core::schedule::Schedule;
use chimera_core::WorkerId;
use chimera_nn::checkpoint::{self, get_f32s, put_f32s, take, Buf, BufMut};
use chimera_nn::{CheckpointError, ModelConfig, Optimizer, OptimizerKind, Stage, SyntheticData};

use crate::error::TrainError;
use crate::setup::{assemble, configure, hand_out, reducer_members};
use crate::worker::{SegmentSpec, TrainOptions, Worker};

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
/// copy, shipped only when a checkpoint is due.
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

/// How a worker process checkpoints for — and resumes after — a
/// cross-process failure. See the module docs for the commit protocol.
#[derive(Debug, Clone)]
pub struct RecoverySpec {
    /// Directory shared by all ranks (same host or shared filesystem)
    /// holding the committed checkpoint, which rank 0 writes.
    pub dir: PathBuf,
    /// Segment length in iterations (a checkpoint after each). Zero means
    /// one segment for the whole run (checkpoint only at the end).
    pub every: u32,
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
    if ep.world() != per_group * w {
        return Err(TrainError::FabricSize {
            world: ep.world(),
            expected: per_group * w,
        });
    }
    let rank = ep.rank();
    let group = rank / per_group;
    let wid = WorkerId(rank % per_group);
    let program = &run.programs[wid.idx()];
    let kind = opts.optimizer_kind();
    let iterations = opts.iterations;

    // The canonical state at iteration 0, or the one rank 0 last committed
    // (ranks that got further before the crash roll back with everyone).
    let resumed = match recovery.filter(|r| r.resume) {
        Some(rec) => read_checkpoint(&rec.dir.join(CHECKPOINT_FILE), cfg, kind, sched.d)?,
        None => None,
    };
    let built = std::mem::take(&mut run.stages);
    let (mut iteration_losses, canon): (Vec<f32>, Vec<(Stage, Optimizer)>) = match resumed {
        Some((losses, stages, optimizers)) => {
            drop(built);
            (losses, stages.into_iter().zip(optimizers).collect())
        }
        None => {
            let fresh = built.into_iter().map(|stage| {
                let opt = Optimizer::new(kind, stage.num_params());
                (stage, opt)
            });
            (Vec::new(), fresh.collect())
        }
    };
    let mut done = iteration_losses.len() as u32;
    if done > iterations {
        let longer = CheckpointError::NotThisRun("more iterations than this run has");
        return Err(longer.into());
    }
    if done == iterations {
        // Every iteration is committed (or none asked for): nothing to run.
        let flat_params = canon.iter().flat_map(|(stage, _)| stage.params()).collect();
        return Ok((rank == 0).then_some(DistOutcome {
            iteration_losses,
            flat_params,
        }));
    }
    // This worker's held stages, moved out of the `D` canonical ones; the
    // rest are dropped here.
    let mut stages: Vec<(u32, u32, Stage, Optimizer)> =
        (hand_out(canon, &[&program.held]).into_iter().flatten())
            .map(|(r, s, (stage, opt))| (r, s, stage, opt))
            .collect();

    // Rank 0's model to commit from, built at its first commit.
    let mut model: Option<Vec<Stage>> = None;
    let mut flat_params = Vec::new();
    while done < iterations {
        let len = match recovery {
            Some(rec) if rec.every > 0 => rec.every.min(iterations - done),
            _ => iterations - done,
        };
        let seg = SegmentSpec {
            start_iter: done,
            iterations: len,
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
        stages = result.stages;
        done += len;
        // A checkpoint is due after every segment of a recoverable run.
        let ckpt_due = recovery.is_some();

        if rank != 0 {
            // Ship this worker's slice to rank 0. A failed send means rank 0
            // is gone; there is nobody left to report to, and the next
            // segment (if any) fails against the dead peer.
            let ship = |tag: u32, payload: Payload| {
                let _ = ep.send(0, MsgKey::Ctrl { tag, from: rank }, payload);
            };
            ship(LOSS_TAG, Payload::Losses(result.losses));
            for (r, s, stage, opt) in &stages {
                ship(stage_tag(*r, *s), Payload::Flat(stage.params()));
                if ckpt_due {
                    ship(moments_tag(*r, *s), Payload::Flat(moments_of(opt)));
                }
            }
            continue;
        }

        // Rank 0: gather losses and every (replica, stage) copy. A gather
        // that never completes is rank 0's own blocked wait.
        let timeout = opts.recv_timeout;
        let gather = |tag: u32, from: Rank| {
            let key = MsgKey::Ctrl { tag, from };
            ep.recv_deadline(key, timeout)
                .map_err(|_| TrainError::Timeout {
                    group: 0,
                    worker: 0,
                    iteration: done,
                    op: format!("gather {}", key.describe()),
                    waited: timeout,
                })
        };
        let mut losses = result.losses;
        let mut copies: Vec<_> = (stages.iter())
            .map(|(_, s, stage, opt)| {
                let m = if ckpt_due {
                    moments_of(opt)
                } else {
                    Vec::new()
                };
                (*s, (stage.params(), m))
            })
            .collect();
        for from in 1..ep.world() {
            losses.extend(gather(LOSS_TAG, from)?.into_losses());
            for (r, s) in sched.placement.held_by(WorkerId(from % per_group)) {
                let params = gather(stage_tag(r.0, s.0), from)?.into_flat();
                let m = if ckpt_due {
                    gather(moments_tag(r.0, s.0), from)?.into_flat()
                } else {
                    Vec::new()
                };
                copies.push((s.0, (params, m)));
            }
        }
        let per_iteration = sched.n as usize * w as usize;
        let (seg_losses, canonical) = assemble(sched.d, per_iteration, losses, copies, |c| {
            Cow::Borrowed(&c.0)
        })?;
        iteration_losses.extend(seg_losses);
        let (params, moments): (Vec<_>, Vec<_>) = canonical.into_iter().unzip();
        if let Some(rec) = recovery {
            // Every stage steps once per update, so rank 0's own count is
            // every stage's.
            let t = stages.first().map_or(0, |(.., opt)| opt.steps());
            let model = model.get_or_insert_with(|| Stage::build_all(cfg, sched.d));
            let optimizers: Vec<Optimizer> = (model.iter_mut().zip(&params).zip(moments))
                .map(|((stage, p), mut m)| {
                    stage.set_params(p);
                    let v = m.split_off(stage.num_params());
                    Optimizer::from_state(kind, m, v, t)
                })
                .collect();
            let state = checkpoint::save_state(model, &optimizers);
            commit(&rec.dir.join(CHECKPOINT_FILE), &iteration_losses, &state)?;
        }
        if done == iterations {
            flat_params = params.concat();
        }
    }
    Ok((rank == 0).then_some(DistOutcome {
        iteration_losses,
        flat_params,
    }))
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

/// A committed checkpoint: per-iteration losses, stages and optimizers.
type Committed = (Vec<f32>, Vec<Stage>, Vec<Optimizer>);

/// The committed state at `path`, re-partitioned into `depth` stages, or
/// `None` when nothing is committed yet. A file that does not decode, or
/// that another model or optimizer wrote, is an error.
fn read_checkpoint(
    path: &Path,
    cfg: ModelConfig,
    kind: OptimizerKind,
    depth: u32,
) -> Result<Option<Committed>, CheckpointError> {
    let raw = match std::fs::read(path) {
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
    Ok(Some((losses, stages, optimizers)))
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
                every: 1,
                resume,
            };
            let full = train_hybrid(&sched, cfg, opts(3), w).unwrap();
            for k in [1, 3] {
                let got = run_ranks(&sched, cfg, &opts(k), w, world, Some(&rec(false)));
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
            for got in run_ranks(&sched, cfg, &opts(1), w, world, Some(&rec(false))) {
                got.unwrap();
            }
            for _ in 0..2 {
                let got = run_ranks(&sched, cfg, &opts(3), w, world, Some(&rec(true)));
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
            commit(&path, &[3.5], &checkpoint::save_state(&stages, &optimizers)).unwrap();
            let another = CheckpointError::NotThisRun("another model configuration");
            damaged.push((
                "another model".into(),
                std::fs::read(&path).unwrap(),
                Some(another),
            ));
            for (what, bytes, expected) in damaged {
                std::fs::write(&path, bytes).unwrap();
                for got in run_ranks(&sched, cfg, &opts(3), w, world, Some(&rec(true))) {
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
        let mut outcomes = run_ranks(&sched, cfg, &opts(4), w, world, Some(&rec(true)));
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
