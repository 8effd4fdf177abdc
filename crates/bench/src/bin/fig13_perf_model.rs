//! Figure 13: Eq. 1 performance-model predictions vs simulated throughput of
//! Chimera across (W, D) configurations — Bert-48 on 32 nodes (B̂ = 256) and
//! GPT-2 on 512 nodes (B̂ = 512). The paper reports < 10% model error.

use chimera_bench::{print_table, save_json};
use chimera_core::chimera::{chimera, ChimeraConfig};
use chimera_core::schedule::{Schedule, SyncStrategy};
use chimera_core::sync::place_sync;
use chimera_core::unit_time::UnitCosts;
use chimera_perf::planner::{batch_candidates, depth_candidates};
use chimera_perf::{predict, ClusterSpec, ModelSpec, TrainConfig};
use chimera_sim::simulate;
use chimera_verify::memory_v2;

fn main() {
    let cluster = ClusterSpec::piz_daint();
    let mut json = Vec::new();
    for (model, p, b_hat) in [
        (ModelSpec::bert48(), 32u32, 256u64),
        (ModelSpec::gpt2(), 512, 512),
    ] {
        let mut rows = Vec::new();
        let mut worst_err = 0.0f64;
        for d in depth_candidates(p, &model) {
            let w = p / d;
            // Greedy max B that fits memory (§3.4), like the planner.
            let mut picked = None;
            for b in batch_candidates(b_hat, w).into_iter().rev() {
                let denom = w as u64 * b as u64;
                if b_hat % denom != 0 {
                    continue;
                }
                let n = (b_hat / denom) as u32;
                let sched = place_sync(
                    chimera(&ChimeraConfig::new(d, n)).unwrap(),
                    SyncStrategy::EagerOpt,
                    UnitCosts::practical(),
                );
                let cost = TrainConfig {
                    model,
                    cluster,
                    d,
                    w,
                    b,
                    stage_replicas: 2,
                }
                .cost_model();
                let fits = |s: &Schedule| memory_v2(s, &cost).fits(cluster.usable_mem());
                let (sched, rec) = if fits(&sched) {
                    (sched, false)
                } else {
                    let recomputing = sched.with_recompute();
                    if !fits(&recomputing) {
                        continue;
                    }
                    (recomputing, true)
                };
                let rep = simulate(&sched, &cost).expect("simulates");
                picked = Some((b, n, sched, cost, rep, rec));
                break;
            }
            let Some((b, n, sched, cost, rep, rec)) = picked else {
                continue;
            };
            let pred = predict(&sched, &cost);
            let err = (pred.t_iter_s - rep.iter_time_s).abs() / rep.iter_time_s;
            worst_err = worst_err.max(err);
            rows.push(vec![
                w.to_string(),
                d.to_string(),
                b.to_string(),
                n.to_string(),
                if rec { "R" } else { "-" }.to_string(),
                format!("{:.1}", b_hat as f64 / rep.iter_time_s),
                format!("{:.1}", b_hat as f64 / pred.t_iter_s),
                format!("{:.1}%", err * 100.0),
            ]);
            json.push(serde_json::json!({
                "model": model.name,
                "p": p, "w": w, "d": d, "b": b, "n": n,
                "recompute": rec,
                "simulated_throughput": b_hat as f64 / rep.iter_time_s,
                "predicted_throughput": b_hat as f64 / pred.t_iter_s,
                "error": err,
            }));
        }
        print_table(
            &format!(
                "Fig. 13: {} on P={p}, B̂={b_hat}: simulated vs Eq.1-predicted throughput",
                model.name
            ),
            &["W", "D", "B", "N", "rec", "sim s/s", "model s/s", "err"],
            &rows,
        );
        println!("worst model error: {:.1}%", worst_err * 100.0);
    }
    save_json("fig13_perf_model", serde_json::json!(json));
}
