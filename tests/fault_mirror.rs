//! The kill fault and its analytic mirror restart from the same place.
//!
//! `runtime::FaultSpec::kill_at` and `sim::FaultPlan::crash_at` are written
//! by hand on either side of the runtime/simulator line; what they must
//! agree on is the checkpoint arithmetic: a worker lost in iteration `i`
//! under a cadence of `k` iterations resumes from iteration `⌊i/k⌋·k` in both
//! layers, and replays through `i`.

use std::sync::Arc;
use std::time::Duration;

use chimera::core::chimera::{chimera, ChimeraConfig};
use chimera::nn::ModelConfig;
use chimera::perf::{ClusterSpec, ModelSpec, TrainConfig};
use chimera::runtime::{train, FaultSpec, TrainOptions};
use chimera::sim::{simulate, simulate_faulty, FaultPlan, RecoveryModel};
use chimera::trace::{BufferSink, Event, MetricsRegistry, SpanKind, TraceSink};

#[test]
fn kill_and_simulated_crash_restart_from_the_same_iteration() {
    const ITERATIONS: u32 = 5;
    let (worker, epsilon_ns) = (1, 7);
    let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
    let cost = TrainConfig {
        model: ModelSpec::bert48(),
        cluster: ClusterSpec::piz_daint(),
        d: 2,
        w: 1,
        b: 1,
        stage_replicas: 2,
    }
    .cost_model();
    let iter_ns = simulate(&sched, &cost).unwrap().timeline.makespan;
    let replayed = MetricsRegistry::global().counter("runtime.recovery.replayed_iterations");

    for (i, k) in [(3u32, 2u32), (2, 2), (1, 4)] {
        let restart = i / k * k;

        let sink = Arc::new(BufferSink::new());
        let opts = TrainOptions {
            iterations: ITERATIONS,
            checkpoint_every: Some(k),
            fault: Some(FaultSpec::kill_at(0, worker, i)),
            trace: Some(sink.clone() as Arc<dyn TraceSink>),
            // Tiny-model ops take microseconds; the killed worker's peer
            // should not sit out the default deadline.
            recv_timeout: Duration::from_millis(300),
            ..TrainOptions::default()
        };
        let replayed_before = replayed.get();
        let run = train(&sched, ModelConfig::tiny(), opts).expect("recovers from the kill");
        assert_eq!(run.recoveries, 1, "kill at i{i}, every {k}");
        let restores: Vec<String> = (sink.drain().into_iter())
            .filter_map(|e| match e {
                Event::Span(s) if s.kind == SpanKind::Restore => Some(s.name),
                _ => None,
            })
            .collect();
        assert_eq!(restores, [format!("restore checkpoint @i{restart}")]);
        // One segment is replayed, and it is the one holding iteration `i`.
        let replayed_iterations = (replayed.get() - replayed_before) as u32;
        assert_eq!(replayed_iterations, k.min(ITERATIONS - restart));
        assert!(restart <= i && i < restart + replayed_iterations);

        let plan = FaultPlan::default().crash_at(worker, u64::from(i) * iter_ns + epsilon_ns);
        let recovery = RecoveryModel {
            detect_s: 1.0,
            restore_s: 1.0,
            checkpoint_s: 0.1,
            checkpoint_every: k,
        };
        let rep = simulate_faulty(&sched, &cost, &plan, &recovery, ITERATIONS).unwrap();
        let crashes = rep
            .recovery
            .expect("a faulty run accounts recovery")
            .crashes;
        assert_eq!(crashes.len(), 1, "crash in i{i}, every {k}");
        let crash = &crashes[0];
        assert_eq!((crash.worker, crash.iteration), (worker, i));
        // Lost work is everything since the checkpoint at `restart`.
        assert_eq!(
            crash.lost_ns,
            u64::from(i - restart) * iter_ns + epsilon_ns,
            "crash in i{i}, every {k}"
        );
    }
}
