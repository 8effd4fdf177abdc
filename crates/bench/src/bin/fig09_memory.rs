//! Figure 9: per-worker memory-consumption distribution among 32 GPU nodes
//! of Piz Daint, for Bert-48 and GPT-2 in (W, D) ∈ {(8,4), (4,8), (2,16)}.
//!
//! Reported per scheme: min/max per-worker peak memory, OOM vs the P100's
//! 16 GB, and the imbalance ratio. Expected shapes: GPipe OOM everywhere,
//! PipeDream heaviest on stage 0 (D weight versions), DAPPLE/PipeDream-2BW
//! peak on worker 0 (activations + embedding), Chimera balanced and at or
//! below DAPPLE's peak despite holding two stage replicas.

use chimera_bench::{print_table, save_json};
use chimera_core::baselines::{dapple, gems, gpipe, pipedream, pipedream_2bw};
use chimera_core::chimera::{chimera, ChimeraConfig};
use chimera_core::schedule::{Schedule, Scheme};
use chimera_perf::{ClusterSpec, ModelSpec, TrainConfig};
use chimera_sim::{memory, SimCostModel};
use chimera_verify::memory_v2;

const GIB: f64 = (1u64 << 30) as f64;

fn build(scheme: Scheme, d: u32, n: u32) -> Schedule {
    match scheme {
        Scheme::GPipe => gpipe(d, n),
        Scheme::Dapple => dapple(d, n),
        Scheme::Gems => gems(d, n.max(2) & !1),
        Scheme::Chimera => chimera(&ChimeraConfig::new(d, n)).unwrap(),
        Scheme::PipeDream => pipedream(d, d),
        Scheme::PipeDream2Bw => pipedream_2bw(d, n),
    }
}

/// The paper's Fig. 9 is the Table-2 accounting: the coarse bound.
fn peaks(sched: &Schedule, cost: &SimCostModel) -> Vec<u64> {
    let workers = memory_v2(sched, cost).workers;
    workers.iter().map(|w| w.coarse_bound_bytes).collect()
}

fn main() {
    let cluster = ClusterSpec::piz_daint();
    let p = 32u32;
    let b_hat = 512u64;
    let capacity = cluster.usable_mem();
    let schemes = [
        Scheme::GPipe,
        Scheme::PipeDream,
        Scheme::PipeDream2Bw,
        Scheme::Gems,
        Scheme::Dapple,
        Scheme::Chimera,
    ];
    let mut all_json = Vec::new();
    for (model, b) in [(ModelSpec::bert48(), 16u32), (ModelSpec::gpt2(), 1)] {
        for (w, d) in [(8u32, 4u32), (4, 8), (2, 16)] {
            let n = (b_hat / (w as u64 * b as u64)) as u32;
            let mut rows = Vec::new();
            for scheme in schemes {
                let sched = build(scheme, d, n);
                let replicas = sched.placement.replicas();
                let cost = TrainConfig {
                    model,
                    cluster,
                    d,
                    w,
                    b,
                    stage_replicas: replicas,
                }
                .cost_model();
                let pk = peaks(&sched, &cost);
                let max = *pk.iter().max().unwrap();
                let min = *pk.iter().min().unwrap();
                let oom = max > capacity;
                rows.push(vec![
                    scheme.name().to_string(),
                    format!("{:.2}", min as f64 / GIB),
                    format!("{:.2}", max as f64 / GIB),
                    format!("{:.2}", memory::imbalance(&pk)),
                    if oom { "OOM" } else { "fits" }.to_string(),
                ]);
                all_json.push(serde_json::json!({
                    "model": model.name,
                    "w": w,
                    "d": d,
                    "scheme": scheme.name(),
                    "per_worker_gib": pk.iter().map(|&x| x as f64 / GIB).collect::<Vec<_>>(),
                    "min_gib": min as f64 / GIB,
                    "max_gib": max as f64 / GIB,
                    "imbalance": memory::imbalance(&pk),
                    "oom": oom,
                }));
            }
            print_table(
                &format!(
                    "Fig. 9: {} memory on {p} nodes, W={w} D={d} B={b} (usable 14.5 GiB of 16)",
                    model.name
                ),
                &["scheme", "minGiB", "maxGiB", "imbalance", "16GB?"],
                &rows,
            );
        }
    }
    save_json("fig09_memory", serde_json::json!(all_json));
}
