//! Workers emit wall-clock spans and metrics when a sink is installed in
//! [`TrainOptions::trace`] — and none when it is left `None`.

use std::sync::Arc;

use chimera_core::chimera::{chimera, ChimeraConfig};
use chimera_core::schedule::SyncStrategy;
use chimera_core::sync::place_sync;
use chimera_core::unit_time::UnitCosts;
use chimera_nn::ModelConfig;
use chimera_runtime::{train, TrainOptions};
use chimera_trace::{BufferSink, Event, MetricsRegistry, SpanKind};

fn traced_opts(sink: &Arc<BufferSink>) -> TrainOptions {
    TrainOptions {
        micro_batch: 1,
        iterations: 2,
        trace: Some(sink.clone() as Arc<dyn chimera_trace::TraceSink>),
        ..TrainOptions::default()
    }
}

#[test]
fn workers_emit_spans_into_the_sink() {
    let sink = Arc::new(BufferSink::new());
    let d = 2;
    let sched = chimera(&ChimeraConfig::new(d, d)).unwrap();
    let result = train(&sched, ModelConfig::tiny(), traced_opts(&sink)).expect("trains");
    assert_eq!(result.iteration_losses.len(), 2);

    let events = sink.drain();
    assert!(!events.is_empty());
    let spans: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Span(s) => Some(s),
            Event::Counter(_) => None,
        })
        .collect();
    // The supervisor reports kernel-layer health as trace counters.
    let counters: Vec<(&str, f64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Counter(c) => Some((c.name.as_str(), c.value)),
            Event::Span(_) => None,
        })
        .collect();
    let counter = |name: &str| counters.iter().find(|c| c.0 == name).map(|c| c.1);
    assert!(counter("runtime.pool.hit_rate").is_some(), "{counters:?}");
    // The kernel rate comes with the vector width that produced it.
    assert!(counter("runtime.kernel.gflops").is_some(), "{counters:?}");
    let lanes = chimera_tensor::kernels::simd_level().lanes();
    assert_eq!(counter("runtime.kernel.simd_lanes"), Some(lanes as f64));
    // Every worker produced compute spans on its own track.
    let tracks: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.track).collect();
    assert_eq!(tracks.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    // Forward and backward spans carry stage/replica/micro; the bare chimera
    // schedule has no explicit sync ops, so the implicit post-hoc reduce
    // shows up as an allreduce span.
    for kind in [SpanKind::Forward, SpanKind::Backward, SpanKind::AllReduce] {
        assert!(
            spans.iter().any(|s| s.kind == kind),
            "no {kind:?} span emitted"
        );
    }
    let fwd = spans.iter().find(|s| s.kind == SpanKind::Forward).unwrap();
    assert!(fwd.stage.is_some() && fwd.replica.is_some() && fwd.micro.is_some());
    assert!(fwd.name.starts_with('F'));
    // Drained events come back in timestamp order.
    let ts: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn eager_schedules_trace_explicit_allreduce_ops() {
    let sink = Arc::new(BufferSink::new());
    let sched = place_sync(
        chimera(&ChimeraConfig::new(2, 2)).unwrap(),
        SyncStrategy::Eager,
        UnitCosts::practical(),
    );
    train(&sched, ModelConfig::tiny(), traced_opts(&sink)).expect("trains");
    let events = sink.drain();
    let launches = events
        .iter()
        .filter(|e| matches!(e, Event::Span(s) if s.kind == SpanKind::AllReduceLaunch))
        .count();
    let waits = events
        .iter()
        .filter(|e| matches!(e, Event::Span(s) if s.kind == SpanKind::AllReduce))
        .count();
    assert!(launches > 0, "eager schedule should trace launches");
    assert_eq!(launches, waits);
}

#[test]
fn metrics_registry_accumulates_runtime_counters() {
    let sink = Arc::new(BufferSink::new());
    let reg = MetricsRegistry::global();
    reg.reset();
    train(
        &chimera(&ChimeraConfig::new(2, 2)).unwrap(),
        ModelConfig::tiny(),
        traced_opts(&sink),
    )
    .expect("trains");
    assert!(reg.counter("runtime.stage.0.compute_ns").get() > 0);
    assert!(reg.counter("runtime.stage.1.compute_ns").get() > 0);
    // D=2 pipelines exchange boundary activations and gradients (f32 = 4B).
    assert!(reg.counter("runtime.p2p.bytes").get() > 0);
    assert_eq!(reg.counter("runtime.p2p.bytes").get() % 4, 0);
    // Post-hoc sync: every worker reduces each of its 2 held stage replicas,
    // once per iteration: 2 workers × 2 replicas × 2 iterations. Other tests
    // in this binary share the global registry and may run concurrently, so
    // only a lower bound is exact.
    assert!(reg.counter("runtime.allreduce.launches").get() >= 8);
    let snap = reg.snapshot();
    assert!(snap["counters"]["runtime.p2p.bytes"].as_u64().is_some());
}

#[test]
fn disabled_trace_emits_nothing() {
    let sink = Arc::new(BufferSink::new());
    let opts = TrainOptions {
        micro_batch: 1,
        iterations: 1,
        ..TrainOptions::default()
    };
    train(
        &chimera(&ChimeraConfig::new(2, 2)).unwrap(),
        ModelConfig::tiny(),
        opts,
    )
    .expect("trains");
    assert!(sink.is_empty());
}
