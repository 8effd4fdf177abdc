//! Figure 1: the headline comparison — GPT-2 on 2,048 GPU nodes with
//! B̂ = 2,048: bubble ratio, memory cost (R = needs activation
//! recomputation), and best throughput per approach. Paper: Chimera improves
//! 1.16x–2.34x over the state of the art.

use chimera_bench::scaling::{best_per_scheme, chimera_speedups};
use chimera_bench::{arg_value, candidate_json, print_table, save_json};
use chimera_perf::planner::{rebuild, reopen};
use chimera_perf::{ClusterSpec, ModelSpec, StructureTable};
use chimera_sim::simulate_span;

fn main() {
    let model = ModelSpec::gpt2();
    let cluster = ClusterSpec::piz_daint();
    let p = 2048u32;
    let b_hat = 2048u64;
    let table = StructureTable::new();
    let results = best_per_scheme(&table, model, cluster, p, b_hat);
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (name, c) in &results {
        if let Some(c) = c {
            // Static verification gate: rebuild each winning candidate's
            // exact schedule and require its shape's report to be clean
            // before publishing its numbers.
            let opened = reopen(&table, c, model, cluster).expect("candidate rebuilds");
            let verdict = &opened.structure.report;
            assert!(
                verdict.is_clean(),
                "{name} best candidate fails static verification:\n{verdict}"
            );
            rows.push(vec![
                name.clone(),
                format!("D={} W={} B={}", c.d, c.w, c.b),
                format!("{:.3}", c.bubble_ratio),
                format!("{:.2} GiB", c.peak_mem as f64 / (1u64 << 30) as f64),
                if c.recompute { "R" } else { "-" }.to_string(),
                format!("{:.0}", c.throughput),
            ]);
            let mut j = candidate_json(c);
            j["label"] = serde_json::json!(name);
            json.push(j);
        } else {
            rows.push(vec![
                name.clone(),
                "-".into(),
                "-".into(),
                "-".into(),
                "OOM".into(),
                "0".into(),
            ]);
        }
    }
    print_table(
        "Fig. 1: GPT-2 on 2,048 nodes, B̂=2,048 — best configuration per approach",
        &[
            "approach",
            "best config",
            "bubble",
            "peak mem",
            "recompute",
            "samples/s",
        ],
        &rows,
    );
    println!();
    for (name, speedup) in chimera_speedups(&results) {
        println!("Chimera speedup over {name}: {speedup:.2}x (paper range: 1.16x-2.34x)");
    }
    save_json("fig01_headline", serde_json::json!(json.clone()));

    // `--trace <path>` / `--json <path>`: re-execute the winning Chimera
    // configuration and export its timeline / full report.
    let trace_path = arg_value("--trace");
    let json_path = arg_value("--json");
    if trace_path.is_none() && json_path.is_none() {
        return;
    }
    let c = results
        .last()
        .and_then(|(_, c)| c.as_ref())
        .expect("Chimera found a fitting configuration");
    let (sched, cost, iters) = rebuild(c, model, cluster).expect("winner rebuilds");
    let report = simulate_span(&sched, &cost, iters).expect("winner simulates");
    let label = format!("{} D={} W={} B={}", c.scheme.label(), c.d, c.w, c.b);
    if let Some(path) = trace_path {
        chimera_trace::write_chrome_trace(&path, &report.to_trace(), &[(0, &label)])
            .expect("write Chrome trace");
        println!("[trace saved to {path} — open in Perfetto or chrome://tracing]");
    }
    if let Some(path) = json_path {
        let report_json = serde_json::to_value(&report).expect("report serializes");
        let breakdown = serde_json::to_value(report.breakdown()).expect("breakdown serializes");
        let memory = serde_json::to_value(chimera_verify::memory_v2(&sched, &cost))
            .expect("memory serializes");
        let doc = serde_json::json!({
            "figure": "fig01_headline",
            "candidates": json,
            "chimera_label": label,
            "chimera_report": report_json,
            "chimera_breakdown": breakdown,
            "chimera_memory": memory,
        });
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serialize"),
        )
        .expect("write json");
        println!("[report saved to {path}]");
    }
}
