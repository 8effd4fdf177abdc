//! Table 3: Chimera with 2f pipelines — analytic vs measured bubble ratio,
//! weights memory and activation balance as f grows.

use chimera_bench::{print_table, save_json};
use chimera_core::analysis::table3;
use chimera_core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera_core::unit_time::{execute, UnitCosts};
use chimera_core::WorkerId;

fn main() {
    let d = 16u32;
    let n = d;
    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut f = 1u32;
    while (d / 2).is_multiple_of(f) && f <= d / 2 {
        let a = table3(d, n, f);
        let sched = chimera(&ChimeraConfig {
            d,
            n,
            f,
            scale: ScaleMethod::Direct,
        })
        .unwrap();
        let tl = execute(&sched, UnitCosts::equal()).unwrap();
        let acts = &chimera_verify::verify_span(&sched, 1).peak_activation_units;
        let act_min = acts.iter().copied().fold(f64::INFINITY, f64::min);
        let act_max = acts.iter().copied().fold(0.0f64, f64::max);
        // Weights replicas held per worker.
        let held = sched.placement.held_by(WorkerId(0)).len();
        rows.push(vec![
            format!("{}", 2 * f),
            format!("{:.4}", a.bubble_ratio),
            format!("{:.4}", tl.bubble_ratio()),
            format!("{}", held),
            format!(
                "[{:.0},{:.0}]",
                a.activations_memory.0, a.activations_memory.1
            ),
            format!("[{act_min:.0},{act_max:.0}]"),
        ]);
        json.push(serde_json::json!({
            "pipelines": 2 * f,
            "bubble_analytic": a.bubble_ratio,
            "bubble_measured": tl.bubble_ratio(),
            "weight_replicas_per_worker": held,
            "acts_analytic": a.activations_memory,
            "acts_measured": [act_min, act_max],
        }));
        f *= 2;
    }
    print_table(
        &format!("Table 3: Chimera with 2f pipelines (D={d}, N={n}, equal F/B workloads)"),
        &[
            "pipelines(2f)",
            "bubble(analytic)",
            "bubble(measured)",
            "weights[Mθ]",
            "acts[Ma](analytic)",
            "acts[Ma](measured)",
        ],
        &rows,
    );
    save_json(
        "table3",
        serde_json::json!({ "d": d, "n": n, "rows": json }),
    );
}
