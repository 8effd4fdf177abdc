//! The metrics the benchmark reports — the same names, units and
//! directions as `BENCHMARK.json` (a unit test keeps the two in step) — and
//! the result line every run ends with.

use std::collections::BTreeMap;

use serde_json::Value;

/// Name, unit, better-direction and bound of an end-to-end metric.
/// An *op* is one training step, or one plan query on `plan_cold`; an
/// *item* is one token, or one plan.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("items_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// Name, unit and better-direction of every per-layer metric (layer =
/// crate). A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, &str); 83] = [
    // tensor: exact work counts, then where the step's time goes.
    ("tensor.gemm_calls_per_step", "count", "lower"),
    ("tensor.gemm_gflop_per_step", "GFLOP", "lower"),
    ("tensor.pack_calls_per_step", "count", "lower"),
    ("tensor.pack_melems_per_step", "Melem", "lower"),
    ("tensor.gemm_ms_per_step", "ms", "lower"),
    ("tensor.gemm_share", "ratio", "higher"),
    ("tensor.gemm_gflops", "GFLOP/s", "higher"),
    ("tensor.gemm_peak_gflops", "GFLOP/s", "higher"),
    ("tensor.gemm_mt_speedup", "ratio", "higher"),
    ("tensor.nonkernel_ms_per_step", "ms", "lower"),
    ("tensor.softmax_us", "us", "lower"),
    ("tensor.gelu_us", "us", "lower"),
    ("tensor.layernorm_us", "us", "lower"),
    ("tensor.pool_hit_rate", "ratio", "higher"),
    ("tensor.pool_misses_per_step", "count", "lower"),
    // nn: the module walk, milliseconds per step.
    ("nn.embedding_ms", "ms", "lower"),
    ("nn.layernorm_ms", "ms", "lower"),
    ("nn.attention_fwd_ms", "ms", "lower"),
    ("nn.attention_bwd_ms", "ms", "lower"),
    ("nn.mlp_fwd_ms", "ms", "lower"),
    ("nn.mlp_bwd_ms", "ms", "lower"),
    ("nn.head_ms", "ms", "lower"),
    ("nn.optimizer_ms", "ms", "lower"),
    ("nn.params_copy_ms", "ms", "lower"),
    ("nn.data_ms", "ms", "lower"),
    ("nn.other_ms", "ms", "lower"),
    ("nn.bwd_over_fwd", "ratio", "lower"),
    ("nn.attention_share", "ratio", "lower"),
    ("nn.loss_final", "nat", "lower"),
    ("nn.seq_step_ms", "ms", "lower"),
    // runtime: the schedule interpreter, from the program's own trace.
    ("runtime.ops_per_step", "count", "lower"),
    ("runtime.mean_op_ms", "ms", "lower"),
    ("runtime.first_iter_pool_misses", "count", "lower"),
    ("runtime.fwd_share", "ratio", "higher"),
    ("runtime.bwd_share", "ratio", "higher"),
    ("runtime.comm_wait_share", "ratio", "lower"),
    ("runtime.sync_share", "ratio", "lower"),
    ("runtime.idle_share", "ratio", "lower"),
    ("runtime.attributed_share", "ratio", "higher"),
    ("runtime.overhead_ms_per_step", "ms", "lower"),
    ("runtime.scaling_eff", "ratio", "higher"),
    ("runtime.peak_tracked_mb", "MB", "lower"),
    ("runtime.step_ms", "ms", "lower"),
    // comm: two endpoints, two threads, the workload's boundary payload.
    ("comm.local_send_us", "us", "lower"),
    ("comm.local_rtt_us", "us", "lower"),
    ("comm.tcp_send_us", "us", "lower"),
    ("comm.tcp_rtt_us", "us", "lower"),
    ("comm.tcp_mb_per_s", "MB/s", "higher"),
    ("comm.tcp_bytes_per_step", "B", "lower"),
    ("comm.msgs_per_step", "count", "lower"),
    // collectives
    ("collectives.keyed_allreduce_us", "us", "lower"),
    ("collectives.tcp_allreduce_ms", "ms", "lower"),
    ("collectives.reduce_elems_per_step", "count", "lower"),
    // core / verify / sim / perf: direct calls on the schedules in play.
    ("core.gen_us", "us", "lower"),
    ("core.ops_per_worker", "count", "lower"),
    ("core.bubble_ratio", "ratio", "lower"),
    ("core.bubble_ratio_d4", "ratio", "lower"),
    ("core.bubble_ratio_d8", "ratio", "lower"),
    ("verify.verify_ms", "ms", "lower"),
    ("verify.memory_v2_ms", "ms", "lower"),
    ("sim.simulate_ms", "ms", "lower"),
    ("sim.ops_per_s", "1/s", "higher"),
    ("perf.search_ms_p50", "ms", "lower"),
    ("perf.search_ms_p90", "ms", "lower"),
    // serve
    ("serve.self_ms_p50", "ms", "lower"),
    ("serve.hit_ms_p50", "ms", "lower"),
    ("serve.cache_hit_rate", "ratio", "lower"),
    ("serve.cache_hit_rate_hot", "ratio", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.errors", "count", "lower"),
    // trace / obs: what observing costs.
    ("trace.overhead_ratio", "ratio", "lower"),
    ("obs.analyze_ms", "ms", "lower"),
    // bench: the benchmark's own spans and its walk against the program.
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.walk_over_ref", "ratio", "lower"),
    ("bench.self_time_coverage", "ratio", "higher"),
    ("bench.traced_ops", "count", "higher"),
    ("bench.spans", "count", "lower"),
    // host: the machine, so a slow or shared host shows beside the numbers.
    ("host.parallelism", "count", "higher"),
    ("host.probe_ms", "ms", "lower"),
    ("host.steal_pct", "%", "lower"),
    // end-to-end numbers repeated from the traced run, for the ratios above.
    ("traced.op_ms_p50", "ms", "lower"),
    ("traced.items_per_s", "1/s", "higher"),
    ("traced.peak_rss_mb", "MB", "lower"),
];

/// Measured values by metric name. `None` means "could not be measured on
/// this machine" (a multi-thread ratio on one core).
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Option<f64>>);

impl Metrics {
    /// Record `value` for `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, Some(value));
    }

    /// Record that `name` could not be measured here.
    pub fn set_unmeasured(&mut self, name: &'static str) {
        self.0.insert(name, None);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied().flatten()
    }
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (steps, queries, checks) attempted.
    pub attempted: u64,
    /// Operations that erred or gave a wrong result.
    pub failed: u64,
    /// Why, one line per failure.
    pub failures: Vec<String>,
    /// The metrics of this run's mode.
    pub metrics: Metrics,
    /// Facts worth a line in the human-readable output (sample counts,
    /// percentile used).
    pub notes: Vec<String>,
    /// `[seconds as measured, the pacing probe's seconds around it,
    /// seconds normalised]` of each timed operation of an end-to-end run,
    /// for `--series-out`.
    pub series: Vec<[f64; 3]>,
}

impl Outcome {
    /// Count one attempted operation and, if `ok` is false, one failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// `(name, unit)` of every metric a run in this mode reports.
pub fn declared(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
    }
}

/// The result object: `correct`, `attempted`, `failed` and every declared
/// metric of the mode. `null_unmeasured` keeps `null` for what could not be
/// measured (committed results); the driver's result line needs numbers,
/// so there an unmeasured or unexercised metric reads 0.
pub fn result_json(out: &Outcome, traced: bool, null_unmeasured: bool) -> Value {
    let mut metrics = serde_json::Map::new();
    for (name, unit) in declared(traced) {
        let value = match out.metrics.0.get(name) {
            Some(Some(v)) => serde_json::json!(*v),
            Some(None) if null_unmeasured => Value::Null,
            _ => serde_json::json!(0.0),
        };
        metrics.insert(
            name.to_string(),
            serde_json::json!({"value": value, "unit": unit}),
        );
    }
    serde_json::json!({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": Value::Object(metrics),
    })
}

/// Print every metric by name with its unit, then failures and notes.
pub fn print_human(workload: &str, out: &Outcome, traced: bool) {
    println!(
        "== {workload} ({}) ==",
        if traced {
            "traced run: per-layer"
        } else {
            "end to end"
        }
    );
    for (name, unit) in declared(traced) {
        match out.metrics.0.get(name) {
            Some(Some(v)) => println!("{name:<36} {v:>16.4} {unit}"),
            Some(None) => println!("{name:<36} {:>16} {unit}", "null"),
            None => {}
        }
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    for failure in &out.failures {
        println!("FAILED: {failure}");
    }
    println!(
        "attempted {} failed {} fail_share {:.4}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// benchmark prints. They must name the same things.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        let doc = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("a list")
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(Value::as_str)
                        .expect("a string")
                        .to_string()
                })
                .collect()
        };
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|m| format!("{} {} {}", m.0, m.1, m.2))
            .collect();
        let doc_e2e: Vec<String> = doc["end_to_end"]
            .as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                format!(
                    "{} {} {}",
                    m["name"].as_str().expect("name"),
                    m["unit"].as_str().expect("unit"),
                    m["better"].as_str().expect("better"),
                )
            })
            .collect();
        assert_eq!(doc_e2e, e2e);
        for (m, decl) in doc["end_to_end"]
            .as_array()
            .expect("a list")
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m["bound"].as_f64(), Some(decl.3), "bound of {}", decl.0);
        }
        for (field, want) in [
            ("name", PER_LAYER.map(|m| m.0)),
            ("unit", PER_LAYER.map(|m| m.1)),
            ("better", PER_LAYER.map(|m| m.2)),
        ] {
            assert_eq!(listed("per_layer", field), want, "per_layer {field}");
        }
        let gated = || crate::spec::WORKLOADS.iter().filter(|w| w.gated);
        let workloads: Vec<String> = gated().map(|w| w.name.to_string()).collect();
        assert_eq!(listed("workloads", "name"), workloads);
        let whys: Vec<String> = gated().map(|w| w.why.to_string()).collect();
        assert_eq!(listed("workloads", "why"), whys);
        for why in whys {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn the_result_line_has_every_declared_metric_as_a_number() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.metrics.set("items_per_s", 12.5);
        out.metrics.set_unmeasured("op_ms_p50");
        let line = result_json(&out, false, false);
        assert_eq!(line["correct"], serde_json::json!(true));
        assert_eq!(line["attempted"].as_u64(), Some(1));
        let metrics = line["metrics"].as_object().expect("an object");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics.get("items_per_s").expect("set")["value"].as_f64(),
            Some(12.5)
        );
        assert_eq!(
            metrics.get("op_ms_p50").expect("unmeasured")["value"].as_f64(),
            Some(0.0)
        );
        let kept = result_json(&out, false, true);
        assert!(kept["metrics"]["op_ms_p50"]["value"].is_null());
    }
}
