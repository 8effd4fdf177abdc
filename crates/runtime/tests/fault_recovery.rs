//! Fault injection against the real threaded runtime: killed workers are
//! survived by checkpoint-restart (bit-identical to the fault-free run),
//! and lost messages surface as descriptive timeouts instead of hangs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chimera_core::chimera::{chimera, ChimeraConfig};
use chimera_nn::{LrSchedule, ModelConfig, OptimizerKind, ReferenceTrainer, Stage, SyntheticData};
use chimera_runtime::{train, train_hybrid, FaultSpec, MsgFault, TrainError, TrainOptions};
use chimera_trace::{BufferSink, Event, SpanKind};

fn opts(iterations: u32) -> TrainOptions {
    TrainOptions {
        micro_batch: 1,
        iterations,
        lr: 0.07,
        momentum: 0.9,
        data_seed: 11,
        // Tiny-model ops take microseconds; a short deadline keeps the
        // blocked peers of a killed worker from stalling the test.
        recv_timeout: Duration::from_millis(300),
        ..TrainOptions::default()
    }
}

/// [`opts`] under Adam with a warm-up schedule.
fn adam_opts(iterations: u32) -> TrainOptions {
    TrainOptions {
        optimizer: Some(OptimizerKind::adam()),
        lr_schedule: Some(LrSchedule::WarmupCosine {
            base: 2e-3,
            warmup: 2,
            total: 10,
            min: 1e-4,
        }),
        ..opts(iterations)
    }
}

/// A seeded kill mid-run recovers via checkpoint-restart to bit-identical
/// final parameters (W = 1).
#[test]
fn kill_recovers_bit_identical_w1() {
    let cfg = ModelConfig::tiny();
    let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
    let mut o = opts(4);
    o.checkpoint_every = Some(2);
    let healthy = train(&sched, cfg, o.clone()).expect("fault-free run");

    for iteration in [1, 2, 3] {
        let mut f = o.clone();
        f.fault = Some(FaultSpec::kill_at(0, 1, iteration));
        let recovered = train(&sched, cfg, f).expect("recovers from kill");
        assert_eq!(recovered.recoveries, 1, "kill at i{iteration}");
        assert_eq!(
            recovered.flat_params(),
            healthy.flat_params(),
            "kill at i{iteration}: recovery must be bit-identical"
        );
        assert_eq!(recovered.iteration_losses, healthy.iteration_losses);
    }
}

/// Adam's moments and step count come back from the checkpoint bytes too —
/// the supervisor keeps no other copy while a segment runs. A kill in the
/// first segment, before anything is committed, restarts from freshly
/// built initial stages with fresh optimizers; one in the second restores
/// the committed state after two warm-up steps (non-zero second moment).
/// Both replay to the fault-free run bit for bit.
#[test]
fn kill_recovers_adam_state_bit_identical() {
    let cfg = ModelConfig::tiny();
    let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
    let mut o = adam_opts(4);
    o.checkpoint_every = Some(2);
    let healthy = train(&sched, cfg, o.clone()).expect("fault-free run");

    for iteration in [1, 3] {
        let mut f = o.clone();
        f.fault = Some(FaultSpec::kill_at(0, 1, iteration));
        let recovered = train(&sched, cfg, f).expect("recovers from kill");
        assert_eq!(recovered.recoveries, 1, "kill at i{iteration}");
        assert_eq!(
            recovered.flat_params(),
            healthy.flat_params(),
            "kill at i{iteration}: Adam recovery must be bit-identical"
        );
        assert_eq!(recovered.iteration_losses, healthy.iteration_losses);
    }
}

/// Same under hybrid data parallelism: a kill in either group of a W = 2
/// run recovers bit-identically.
#[test]
fn kill_recovers_bit_identical_w2() {
    let cfg = ModelConfig::tiny();
    let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
    let mut o = opts(3);
    o.checkpoint_every = Some(1);
    let healthy = train_hybrid(&sched, cfg, o.clone(), 2).expect("fault-free run");

    let mut f = o.clone();
    f.fault = Some(FaultSpec::kill_at(1, 0, 1));
    let recovered = train_hybrid(&sched, cfg, f, 2).expect("recovers from kill");
    assert_eq!(recovered.recoveries, 1);
    assert_eq!(recovered.flat_params(), healthy.flat_params());
    assert_eq!(recovered.iteration_losses, healthy.iteration_losses);
}

/// The sequential trainer's parameters after `o.iterations` iterations of
/// `N·w` micro-batches, under `o`'s optimizer and learning-rate schedule.
fn sequential(cfg: ModelConfig, d: u32, n: u32, w: u32, o: &TrainOptions) -> Vec<f32> {
    let mut reference = ReferenceTrainer::with_optimizer(
        Stage::build_all(cfg, d),
        SyntheticData::new(cfg, o.data_seed),
        o.micro_batch,
        o.optimizer_kind(),
        o.schedule(),
    );
    let per_iteration = n * w;
    for it in 0..o.iterations {
        reference.train_iteration(u64::from(it * per_iteration), per_iteration);
    }
    reference.flat_params()
}

/// A kill before rank 0's first commit — in iteration 0 (worker 0, so at
/// W = 1 rank 0 itself) or 1 (worker 1), with no cadence, where the run
/// commits nothing, or a cadence of 3 over 4 iterations — restarts every
/// rank from initial stages built afresh from the configuration. Under
/// momentum SGD and Adam, W ∈ {1, 2}, the recovered run is bit-identical to
/// the fault-free one and to the sequential trainer.
#[test]
fn kill_before_the_first_commit_restarts_from_the_configuration() {
    let cfg = ModelConfig::tiny();
    let (d, n) = (2, 2);
    let sched = chimera(&ChimeraConfig::new(d, n)).unwrap();
    for (optimizer, base) in [("sgd", opts(4)), ("adam", adam_opts(4))] {
        for every in [None, Some(3)] {
            for w in [1, 2] {
                let case = format!("{optimizer} every {every:?} W={w}");
                let o = TrainOptions {
                    checkpoint_every: every,
                    ..base.clone()
                };
                let healthy = train_hybrid(&sched, cfg, o.clone(), w).expect("fault-free run");
                let reference = sequential(cfg, d, n, w, &o);
                assert_eq!(healthy.flat_params(), reference, "{case}");
                for iteration in [0, 1] {
                    let mut f = o.clone();
                    f.fault = Some(FaultSpec::kill_at(w - 1, iteration, iteration));
                    let recovered = train_hybrid(&sched, cfg, f, w)
                        .unwrap_or_else(|e| panic!("{case} kill at i{iteration}: {e}"));
                    let case = format!("{case} kill at i{iteration}");
                    assert_eq!(recovered.recoveries, 1, "{case}");
                    assert_eq!(recovered.flat_params(), reference, "{case}");
                    assert_eq!(
                        recovered.iteration_losses, healthy.iteration_losses,
                        "{case}"
                    );
                }
            }
        }
    }
}

/// The CI soak matrix: kill every (group, worker) id once mid-run; each
/// case must recover to the fault-free parameters.
#[test]
fn soak_kill_matrix_every_worker_recovers() {
    let cfg = ModelConfig::tiny();
    let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
    let w = 2;
    let mut o = opts(3);
    o.checkpoint_every = Some(1);
    let healthy = train_hybrid(&sched, cfg, o.clone(), w).expect("fault-free run");

    for group in 0..w {
        for worker in 0..sched.d {
            let mut f = o.clone();
            f.fault = Some(FaultSpec::kill_at(group, worker, 1));
            let recovered = train_hybrid(&sched, cfg, f, w)
                .unwrap_or_else(|e| panic!("kill g{group}-w{worker}: {e}"));
            assert_eq!(recovered.recoveries, 1, "kill g{group}-w{worker}");
            assert_eq!(
                recovered.flat_params(),
                healthy.flat_params(),
                "kill g{group}-w{worker}: not bit-identical after recovery"
            );
        }
    }
}

/// A dropped p2p message is a lost message, not a hang: the blocked
/// receiver hits its deadline and training fails with a descriptive
/// [`TrainError::Timeout`] naming the blocked op.
#[test]
fn dropped_message_times_out_with_diagnostic() {
    let cfg = ModelConfig::tiny();
    let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
    let mut o = opts(2);
    // Drop the micro-0 activation worker 0 sends to worker 1.
    o.fault = Some(FaultSpec {
        drop_msg: Some(MsgFault {
            group: 0,
            from_worker: 0,
            grad: false,
            micro: 0,
        }),
        ..FaultSpec::default()
    });
    let started = Instant::now();
    let err = train(&sched, cfg, o).expect_err("lost message must fail");
    // Well before any hang: one recv deadline plus scheduling slack.
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "timed out too slowly: {:?}",
        started.elapsed()
    );
    // The dropped activation stalls the whole micro-0 chain: worker 1 never
    // receives the activation, so worker 0 never receives the matching
    // gradient either. Whichever blocked wait the supervisor reports, it
    // must name micro 0's p2p receive.
    match &err {
        TrainError::Timeout {
            group,
            iteration,
            op,
            waited,
            ..
        } => {
            assert_eq!((*group, *iteration), (0, 0));
            assert!(
                op == "recv act m0@s0/r0" || op == "recv grad m0@s1/r0",
                "unexpected blocked op: {op}"
            );
            assert_eq!(*waited, Duration::from_millis(300));
        }
        other => panic!("expected Timeout, got {other}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("m0@s"), "undescriptive: {msg}");
    assert!(msg.contains("blocked for"), "no timeout wording: {msg}");
}

/// A delayed message only slows the run down — the result is still
/// bit-identical to the fault-free one with no recoveries.
#[test]
fn delayed_message_only_slows_training() {
    let cfg = ModelConfig::tiny();
    let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
    let o = opts(2);
    let healthy = train(&sched, cfg, o.clone()).expect("fault-free run");
    let mut f = o;
    f.fault = Some(FaultSpec {
        delay_msg: Some((
            MsgFault {
                group: 0,
                from_worker: 0,
                grad: false,
                micro: 0,
            },
            Duration::from_millis(50),
        )),
        ..FaultSpec::default()
    });
    let delayed = train(&sched, cfg, f).expect("delay is survivable");
    assert_eq!(delayed.recoveries, 0);
    assert_eq!(delayed.flat_params(), healthy.flat_params());
}

/// An exhausted recovery budget surfaces as [`TrainError::WorkerLost`].
#[test]
fn exhausted_recovery_budget_reports_worker_lost() {
    let cfg = ModelConfig::tiny();
    let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
    let mut o = opts(2);
    o.max_recoveries = 0;
    o.fault = Some(FaultSpec::kill_at(0, 1, 0));
    let err = train(&sched, cfg, o).expect_err("budget of zero cannot recover");
    assert!(
        err.to_string().ends_with("recovery budget exhausted"),
        "{err}"
    );
    match err {
        TrainError::WorkerLost {
            group,
            worker,
            iteration,
            recoveries,
        } => {
            assert_eq!((group, worker, iteration), (0, 1, 0));
            assert_eq!(recoveries, 0);
        }
        other => panic!("expected WorkerLost, got {other}"),
    }
}

/// Recovery is observable: the fault, its detection, the checkpoint
/// restore, and the replay all appear as spans (plus counters) in the
/// trace, and survive the Chrome export.
#[test]
fn recovery_emits_trace_spans_and_counters() {
    let cfg = ModelConfig::tiny();
    let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
    let sink = Arc::new(BufferSink::new());
    let mut o = opts(2);
    o.checkpoint_every = Some(1);
    o.trace = Some(sink.clone() as Arc<dyn chimera_trace::TraceSink>);
    o.fault = Some(FaultSpec::kill_at(0, 1, 1));
    let res = train(&sched, cfg, o).expect("recovers");
    assert_eq!(res.recoveries, 1);

    let events = sink.drain();
    let span_names = |kind: SpanKind| -> Vec<String> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) if s.kind == kind => Some(s.name.clone()),
                _ => None,
            })
            .collect()
    };
    let faults = span_names(SpanKind::Fault);
    assert_eq!(faults, vec!["kill g0-w1 i1"], "worker-side fault span");
    let detects = span_names(SpanKind::Detect);
    assert_eq!(detects, vec!["detect death g0-w1 i1"]);
    assert_eq!(span_names(SpanKind::Restore).len(), 1);
    let replays = span_names(SpanKind::Replay);
    assert_eq!(replays, vec!["replay i1..i2"]);
    // Supervisor counters record the recovery.
    let counters: Vec<(&str, f64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Counter(c) => Some((c.name.as_str(), c.value)),
            _ => None,
        })
        .collect();
    assert!(counters.contains(&("runtime.recovery.restores", 1.0)));
    assert!(counters.contains(&("runtime.recovery.total", 1.0)));
    // The supervisor track sits below the worker lanes.
    let sup_track = sched.num_workers() as u32;
    assert!(events.iter().any(
        |e| matches!(e, Event::Span(s) if s.kind == SpanKind::Detect && s.track == sup_track)
    ));
    // Chrome export carries the recovery categories through.
    let doc = chimera_trace::chrome_trace_json(&events, &[(0, "faulty run")]);
    let cats: Vec<&str> = doc["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|e| e["cat"].as_str())
        .collect();
    for cat in ["fault", "detect", "restore", "replay"] {
        assert!(cats.contains(&cat), "no {cat} events in Chrome export");
    }
}

/// Checkpoint cadence does not change the result: a fault-free run with
/// per-iteration checkpoints matches one with a single final segment.
#[test]
fn checkpoint_cadence_is_bit_transparent() {
    let cfg = ModelConfig::tiny();
    let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
    let base = train(&sched, cfg, opts(4)).expect("single segment");
    for every in [1, 2, 3] {
        let mut o = opts(4);
        o.checkpoint_every = Some(every);
        let seg = train(&sched, cfg, o).expect("segmented");
        assert_eq!(seg.flat_params(), base.flat_params(), "cadence {every}");
        assert_eq!(seg.iteration_losses, base.iteration_losses);
    }
}
