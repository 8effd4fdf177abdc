//! Figure 12: Chimera gradient-synchronization strategies (§3.2) — post-hoc
//! vs eager vs eager-opt for Bert-48, D = 4, B = 8, scaling P from 16 to 64
//! (B̂ from 256 to 1,024). Expected shape: eager-opt ≥ eager > post-hoc,
//! with the gap growing with P (more data-parallel replicas ⇒ costlier
//! allreduce to hide).

use chimera_bench::{arg_value, print_table, save_json};
use chimera_core::chimera::{chimera, ChimeraConfig};
use chimera_core::schedule::SyncStrategy;
use chimera_core::sync::place_sync;
use chimera_core::unit_time::UnitCosts;
use chimera_perf::{ClusterSpec, ModelSpec, TrainConfig};
use chimera_sim::{simulate, timeline_events};

fn main() {
    let model = ModelSpec::bert48();
    let cluster = ClusterSpec::piz_daint();
    let d = 4u32;
    let b = 8u32;
    let mut rows = Vec::new();
    let mut json = Vec::new();
    // `--trace <path>`: overlay the three strategies of the largest (P, B̂)
    // as one Chrome-trace process each, so Perfetto shows them stacked.
    let trace_path = arg_value("--trace");
    let mut trace_events = Vec::new();
    for (p, b_hat) in [(16u32, 256u64), (32, 512), (64, 1024)] {
        let w = p / d;
        let n = (b_hat / (w as u64 * b as u64)) as u32;
        let base = chimera(&ChimeraConfig::new(d, n)).unwrap();
        let cost = TrainConfig {
            model,
            cluster,
            d,
            w,
            b,
            stage_replicas: 2,
        }
        .cost_model();
        let mut per_strategy = Vec::new();
        for (idx, strat) in [
            SyncStrategy::PostHoc,
            SyncStrategy::Eager,
            SyncStrategy::EagerOpt,
        ]
        .into_iter()
        .enumerate()
        {
            let sched = place_sync(base.clone(), strat, UnitCosts::practical());
            let rep = simulate(&sched, &cost).expect("simulates");
            if trace_path.is_some() && p == 64 {
                trace_events.extend(timeline_events(&rep.timeline, idx as u32));
            }
            per_strategy.push((strat, rep.throughput(b_hat)));
        }
        let post = per_strategy[0].1;
        rows.push(vec![
            p.to_string(),
            b_hat.to_string(),
            n.to_string(),
            format!("{:.1}", per_strategy[0].1),
            format!("{:.1}", per_strategy[1].1),
            format!("{:.1}", per_strategy[2].1),
            format!("{:.3}x", per_strategy[2].1 / per_strategy[1].1),
            format!("{:.3}x", per_strategy[2].1 / post),
        ]);
        json.push(serde_json::json!({
            "p": p,
            "b_hat": b_hat,
            "post_hoc": per_strategy[0].1,
            "eager": per_strategy[1].1,
            "eager_opt": per_strategy[2].1,
        }));
    }
    print_table(
        "Fig. 12: Chimera sync strategies, Bert-48, D=4, B=8 (samples/s)",
        &[
            "P",
            "B̂",
            "N",
            "post-hoc",
            "eager",
            "eager-opt",
            "opt/eager",
            "opt/post",
        ],
        &rows,
    );
    save_json("fig12_sync_strategies", serde_json::json!(json));
    if let Some(path) = trace_path {
        chimera_trace::write_chrome_trace(
            &path,
            &trace_events,
            &[(0, "post-hoc"), (1, "eager"), (2, "eager-opt")],
        )
        .expect("write Chrome trace");
        println!("[trace saved to {path} — one process per sync strategy]");
    }
}
