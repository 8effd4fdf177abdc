//! Conversion of executed [`Timeline`]s into `chimera-trace` events.
//!
//! Simulator ticks are nanoseconds, so spans map directly onto the trace
//! event model: one track per worker, one span per executed op (named by its
//! schedule rendering, e.g. `Fm3@s2/r1`), plus explicit idle spans for the
//! pipeline bubbles so they are visible in Perfetto.

use chimera_core::op::OpKind;
use chimera_core::unit_time::Timeline;
use chimera_trace::{Event, SpanEvent, SpanKind};

/// Trace kind of a schedule op.
fn span_kind(kind: OpKind) -> SpanKind {
    match kind {
        OpKind::Forward => SpanKind::Forward,
        OpKind::Backward { recompute: false } => SpanKind::Backward,
        OpKind::Backward { recompute: true } => SpanKind::Recompute,
        OpKind::AllReduceLaunch => SpanKind::AllReduceLaunch,
        OpKind::AllReduceWait => SpanKind::AllReduce,
    }
}

/// Convert `timeline` into trace events under process group `pid`.
///
/// Emits one [`SpanEvent`] per executed op and one `Idle` span per gap
/// between consecutive ops on a worker (including the ramp-up gap before its
/// first op and the tail gap after its last). Zero-duration spans (e.g. an
/// allreduce wait that was already satisfied) are kept: Perfetto renders
/// them as instants.
pub fn timeline_events(timeline: &Timeline, pid: u32) -> Vec<Event> {
    let mut out = Vec::new();
    for (w, spans) in timeline.spans.iter().enumerate() {
        let track = w as u32;
        let mut cursor = 0u64;
        for s in spans {
            if s.start > cursor {
                out.push(Event::Span(SpanEvent {
                    kind: SpanKind::Idle,
                    name: "idle".to_string(),
                    pid,
                    track,
                    start_ns: cursor,
                    dur_ns: s.start - cursor,
                    stage: None,
                    replica: None,
                    micro: None,
                    bytes: None,
                }));
            }
            out.push(Event::Span(SpanEvent {
                kind: span_kind(s.op.kind),
                name: s.op.to_string(),
                pid,
                track,
                start_ns: s.start,
                dur_ns: s.finish - s.start,
                stage: Some(s.op.stage.0),
                replica: Some(s.op.replica.0),
                micro: s.op.is_compute().then_some(s.op.micro.0 as u64),
                bytes: None,
            }));
            cursor = cursor.max(s.finish);
        }
        if cursor < timeline.makespan && !spans.is_empty() {
            out.push(Event::Span(SpanEvent {
                kind: SpanKind::Idle,
                name: "idle".to_string(),
                pid,
                track,
                start_ns: cursor,
                dur_ns: timeline.makespan - cursor,
                stage: None,
                replica: None,
                micro: None,
                bytes: None,
            }));
        }
    }
    out.sort_by_key(Event::ts_ns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_core::baselines::dapple;
    use chimera_core::chimera::{chimera, ChimeraConfig};
    use chimera_core::schedule::SyncStrategy;
    use chimera_core::sync::place_sync;
    use chimera_core::unit_time::{execute, UnitCosts};
    use chimera_trace::chrome_trace_json;

    #[test]
    fn every_op_becomes_a_span_plus_idle_gaps() {
        let sched = dapple(4, 4);
        let t = execute(&sched, UnitCosts::practical()).unwrap();
        let total_ops: usize = t.spans.iter().map(Vec::len).sum();
        let events = timeline_events(&t, 0);
        let idle: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) if s.kind == SpanKind::Idle => Some(s.dur_ns),
                _ => None,
            })
            .collect();
        assert!(!idle.is_empty());
        assert_eq!(events.len(), total_ops + idle.len());
        // Idle time reconstructed from the events matches the timeline.
        let idle_ns: u64 = idle.iter().sum();
        // Busy excludes allreduce waits, whose spans are zero-width here, so
        // total bubbles == emitted idle.
        let bubbles: u64 = t.per_worker_bubbles().iter().sum();
        assert_eq!(idle_ns, bubbles);
    }

    /// The acceptance check of the trace pipeline: export a Chimera schedule
    /// to a Chrome trace file, parse it back, and verify one track per
    /// worker plus forward/backward/comm spans.
    #[test]
    fn chrome_export_round_trips_through_file() {
        let d = 4;
        let sched = place_sync(
            chimera(&ChimeraConfig::new(d, d)).unwrap(),
            SyncStrategy::EagerOpt,
            UnitCosts::practical(),
        );
        let t = execute(&sched, UnitCosts::practical()).unwrap();
        let events = timeline_events(&t, 0);
        let path = std::env::temp_dir().join("chimera_sim_trace_test.json");
        chimera_trace::write_chrome_trace(&path, &events, &[(0, "chimera d4 n4")]).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        let list = parsed["traceEvents"].as_array().unwrap().clone();
        let _ = std::fs::remove_file(&path);

        // One thread-name metadata record per worker.
        let tracks: Vec<_> = list
            .iter()
            .filter(|e| e["name"] == serde_json::json!("thread_name"))
            .collect();
        assert_eq!(tracks.len(), d as usize);
        // Forward, backward and allreduce spans all present and colored.
        for cat in ["forward", "backward", "allreduce"] {
            let span = list
                .iter()
                .find(|e| e["cat"] == serde_json::json!(cat))
                .unwrap_or_else(|| panic!("no {cat} span"));
            assert_eq!(span["ph"], serde_json::json!("X"));
            assert!(span["cname"].as_str().is_some());
            assert!(span["dur"].as_f64().is_some());
        }
        // Compute spans carry stage/replica/micro args.
        let fwd = list
            .iter()
            .find(|e| e["cat"] == serde_json::json!("forward"))
            .unwrap();
        assert!(fwd["args"]["stage"].as_u64().is_some());
        assert!(fwd["args"]["micro"].as_u64().is_some());
        // And the in-memory document agrees with the file.
        let doc = chrome_trace_json(&events, &[(0, "chimera d4 n4")]);
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), list.len());
    }

    #[test]
    fn recompute_and_chunked_ops_map_to_distinct_kinds() {
        use chimera_core::ids::{MicroId, ReplicaId, StageId};
        use chimera_core::op::Op;
        use chimera_core::unit_time::OpSpan;
        let t = Timeline {
            spans: vec![vec![
                OpSpan {
                    op: Op::backward_recompute(MicroId(0), StageId(0), ReplicaId(0)),
                    start: 0,
                    finish: 6,
                },
                OpSpan {
                    op: Op::allreduce_launch(StageId(0), ReplicaId(0)),
                    start: 6,
                    finish: 7,
                },
            ]],
            makespan: 7,
            busy: vec![7],
        };
        let events = timeline_events(&t, 3);
        let kinds: Vec<SpanKind> = events
            .iter()
            .map(|e| match e {
                Event::Span(s) => {
                    assert_eq!(s.pid, 3);
                    s.kind
                }
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kinds, vec![SpanKind::Recompute, SpanKind::AllReduceLaunch]);
        // Allreduce markers carry no micro id.
        let Event::Span(ar) = &events[1] else {
            unreachable!()
        };
        assert_eq!(ar.micro, None);
    }
}
