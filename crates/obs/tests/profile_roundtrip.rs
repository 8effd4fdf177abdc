//! End-to-end profiling: real threaded training runs traced through
//! [`BufferSink`], round-tripped through JSONL, and analyzed. The headline
//! guarantee under test is *exclusive exhaustive attribution*: every
//! nanosecond of every lane's wall clock lands in exactly one category, on
//! clean runs and fault-injected runs alike.

use std::sync::Arc;
use std::time::Duration;

use chimera_core::build_named;
use chimera_core::chimera::{chimera, ChimeraConfig};
use chimera_nn::ModelConfig;
use chimera_obs::{analyze, critical_path, drift, profile};
use chimera_runtime::{train, train_hybrid, FaultSpec, TrainOptions};
use chimera_trace::{read_jsonl, write_jsonl, BufferSink, Event};

fn traced_opts(iterations: u32, sink: &Arc<BufferSink>) -> TrainOptions {
    TrainOptions {
        micro_batch: 1,
        iterations,
        lr: 0.07,
        momentum: 0.9,
        data_seed: 11,
        recv_timeout: Duration::from_millis(300),
        trace: Some(sink.clone()),
        ..TrainOptions::default()
    }
}

/// Run one traced training and return the events after a JSONL round-trip
/// through disk — exactly what `chimera-cli profile` consumes.
fn run_traced(
    sched: &chimera_core::schedule::Schedule,
    opts: TrainOptions,
    sink: &Arc<BufferSink>,
    tag: &str,
) -> Vec<Event> {
    let cfg = ModelConfig {
        layers: sched.d as usize,
        ..ModelConfig::tiny()
    };
    train(sched, cfg, opts).expect("training succeeds");
    let events = sink.drain();
    let path = std::env::temp_dir().join(format!(
        "chimera-obs-roundtrip-{}-{tag}.jsonl",
        std::process::id()
    ));
    write_jsonl(&path, &events).expect("write trace");
    let back = read_jsonl(&path).expect("read trace");
    let _ = std::fs::remove_file(&path);
    assert_eq!(events.len(), back.len(), "JSONL round-trip is lossless");
    back
}

/// Clean D=4 run: categories sum to the wall clock on every lane, the
/// bubble ratio is sane, and the gating chain never exceeds the window.
#[test]
fn clean_d4_run_attributes_every_nanosecond() {
    let sched = chimera(&ChimeraConfig::new(4, 4)).unwrap();
    let sink = Arc::new(BufferSink::new());
    let events = run_traced(&sched, traced_opts(3, &sink), &sink, "clean-d4");

    let a = analyze(&events);
    assert_eq!(a.lanes.len(), 4, "one lane per pipeline worker");
    assert!(a.window_ns() > 0);
    for lane in &a.lanes {
        assert_eq!(
            lane.breakdown.total(),
            a.window_ns(),
            "lane {}:{} must attribute its whole window",
            lane.pid,
            lane.track
        );
    }
    // >= 99% attribution is the CI gate; by construction it is exact.
    assert!(a.attributed_fraction() >= 0.99);
    assert!((a.attributed_fraction() - 1.0).abs() < 1e-12);
    let bubble = a.bubble_ratio();
    assert!((0.0..1.0).contains(&bubble), "bubble {bubble} out of range");
    assert!(a.aggregate.compute() > 0, "compute must be observed");

    let cp = critical_path(&events);
    assert!(cp.total_ns > 0);
    assert!(cp.coverage(a.window_ns()) <= 1.0 + 1e-12);
    assert!(!cp.top_ops(5).is_empty());

    let report = profile(&events, Some(drift(&events, "chimera", 4, 4).unwrap()));
    let doc = report.to_json();
    assert_eq!(doc["schema"], serde_json::json!("chimera-obs/profile/v1"));
    assert!(doc["drift"]["classes"]["forward"]["drift"]
        .as_f64()
        .is_some());
}

/// A kill mid-run: the recovery machinery emits fault spans, and the
/// attribution invariant must survive them (recovery time is a category,
/// not a hole).
#[test]
fn fault_injected_run_attributes_every_nanosecond() {
    let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
    let sink = Arc::new(BufferSink::new());
    let mut opts = traced_opts(4, &sink);
    opts.checkpoint_every = Some(2);
    opts.fault = Some(FaultSpec::kill_at(0, 1, 1));
    let cfg = ModelConfig {
        layers: 2,
        ..ModelConfig::tiny()
    };
    let result = train(&sched, cfg, opts).expect("recovers from kill");
    assert_eq!(result.recoveries, 1, "the injected kill must fire");
    let events = sink.drain();

    let a = analyze(&events);
    for lane in &a.lanes {
        assert_eq!(lane.breakdown.total(), a.window_ns());
    }
    assert!((a.attributed_fraction() - 1.0).abs() < 1e-12);
    assert!(
        a.aggregate.recovery > 0,
        "fault handling must be attributed to the recovery category"
    );
    assert!(critical_path(&events).coverage(a.window_ns()) <= 1.0 + 1e-12);
}

/// Hybrid (W=2) traces keep the invariant too — more lanes, allreduce
/// traffic between replicas.
#[test]
fn hybrid_w2_run_attributes_every_nanosecond() {
    let sched = chimera(&ChimeraConfig::new(2, 2)).unwrap();
    let sink = Arc::new(BufferSink::new());
    let opts = traced_opts(2, &sink);
    let cfg = ModelConfig {
        layers: 2,
        ..ModelConfig::tiny()
    };
    train_hybrid(&sched, cfg, opts, 2).expect("hybrid training succeeds");
    let a = analyze(&sink.drain());
    assert_eq!(a.lanes.len(), 4, "2 groups x 2 workers");
    for lane in &a.lanes {
        assert_eq!(lane.breakdown.total(), a.window_ns());
    }
}

/// Drift mode works for chimera and dapple at D in {2, 4}: the measured
/// trace of each schedule aligns against its own unit-cost simulation.
#[test]
fn drift_aligns_chimera_and_dapple_at_d2_and_d4() {
    for scheme in ["chimera", "dapple"] {
        for d in [2u32, 4] {
            let n = d;
            let sched = build_named(scheme, d, n).expect("known scheme");
            let sink = Arc::new(BufferSink::new());
            let events = run_traced(
                &sched,
                traced_opts(2, &sink),
                &sink,
                &format!("{scheme}-d{d}"),
            );
            let r = drift(&events, scheme, d, n)
                .unwrap_or_else(|e| panic!("drift {scheme} D={d}: {e}"));
            assert_eq!(r.scheme, scheme);
            // Forward normalizes itself: always exactly 1.
            assert!((r.classes["forward"].drift - 1.0).abs() < 1e-9);
            let b = &r.classes["backward"];
            assert!(b.count > 0 && b.drift.is_finite() && b.drift > 0.0);
            assert!((0.0..1.0).contains(&r.measured_bubble));
            assert!((0.0..1.0).contains(&r.sim_bubble));
            assert!(r.bubble_delta.is_finite());
        }
    }
}

/// Simulator timelines (which carry explicit idle spans) satisfy the same
/// attribution invariant, and their bubble ratio matches the simulator's
/// own accounting.
#[test]
fn sim_timeline_trace_matches_sim_bubble_accounting() {
    use chimera_core::unit_time::{execute, UnitCosts};
    let sched = build_named("chimera", 4, 4).unwrap();
    let tl = execute(&sched, UnitCosts::practical()).unwrap();
    let events = chimera_sim::timeline_events(&tl, 0);
    let a = analyze(&events);
    for lane in &a.lanes {
        assert_eq!(lane.breakdown.total(), a.window_ns());
    }
    assert!(
        (a.bubble_ratio() - tl.bubble_ratio()).abs() < 1e-9,
        "obs bubble {} vs sim bubble {}",
        a.bubble_ratio(),
        tl.bubble_ratio()
    );
}
