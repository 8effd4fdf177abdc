//! An in-process run serializes only what a restart can use: rank 0 commits
//! after every segment but the last, and nothing at iteration 0, so a run
//! without a cadence calls `save_state` zero times. A worker process with a
//! `RecoverySpec` still commits every segment, the last included, because
//! `resume` reads it.
//!
//! `runtime.checkpoint.saves` is a process-wide counter, so this binary
//! holds one test and asserts exact deltas.

use std::sync::Arc;
use std::thread;

use chimera_comm::LocalFabric;
use chimera_core::chimera::{chimera, ChimeraConfig};
use chimera_nn::ModelConfig;
use chimera_runtime::{
    train, train_hybrid, train_worker_process_recoverable, RecoverySpec, TrainOptions,
};
use chimera_trace::MetricsRegistry;

fn opts(iterations: u32, checkpoint_every: Option<u32>) -> TrainOptions {
    TrainOptions {
        micro_batch: 1,
        iterations,
        lr: 0.05,
        momentum: 0.9,
        data_seed: 3,
        checkpoint_every,
        ..TrainOptions::default()
    }
}

#[test]
fn a_run_commits_only_what_a_restart_can_read() {
    let cfg = ModelConfig::tiny();
    let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
    let saves = MetricsRegistry::global().counter("runtime.checkpoint.saves");
    let added = |run: &dyn Fn()| {
        let before = saves.get();
        run();
        saves.get() - before
    };

    // No cadence: one segment, nothing committed.
    let none = added(&|| {
        train(&sched, cfg, opts(3, None)).unwrap();
    });
    assert_eq!(none, 0, "a run without a cadence serializes nothing");

    // Cadence `c` over `k` iterations: one commit per segment but the last.
    for (c, k) in [(1, 3), (2, 4), (3, 4), (2, 5), (4, 4), (5, 3)] {
        for w in [1, 2] {
            let got = added(&|| {
                train_hybrid(&sched, cfg, opts(k, Some(c)), w).unwrap();
            });
            assert_eq!(
                u64::from(k.div_ceil(c) - 1),
                got,
                "every {c} over {k}, W={w}"
            );
        }
    }

    // A worker process commits every segment to its file, the last included.
    let dir = std::env::temp_dir().join(format!("chimera-commit-count-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rec = RecoverySpec {
        dir: dir.clone(),
        resume: false,
    };
    for (c, k) in [(1, 3), (2, 3), (3, 3)] {
        let got = added(&|| {
            thread::scope(|scope| {
                let ranks: Vec<_> = (LocalFabric::new(2).into_iter())
                    .map(|ep| {
                        let (sched, rec) = (&sched, &rec);
                        scope.spawn(move || {
                            let o = opts(k, Some(c));
                            train_worker_process_recoverable(
                                Arc::new(ep),
                                sched,
                                cfg,
                                o,
                                1,
                                Some(rec),
                            )
                        })
                    })
                    .collect();
                for rank in ranks {
                    rank.join().unwrap().unwrap();
                }
            });
        });
        assert_eq!(
            u64::from(k.div_ceil(c)),
            got,
            "worker process, every {c} over {k}"
        );
        let raw = std::fs::read(dir.join("run.ckpt")).unwrap();
        let losses = u64::from_le_bytes(raw[..8].try_into().unwrap());
        assert_eq!(
            losses,
            u64::from(k),
            "the last commit holds every iteration"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
