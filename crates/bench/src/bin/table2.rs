//! Table 2: comparison between pipeline schemes — analytic formulas
//! cross-checked against measured executions of the generated schedules.

use chimera_bench::{print_table, save_json};
use chimera_core::analysis::table2;
use chimera_core::baselines::{dapple, gems, gpipe, pipedream_2bw_steady, pipedream_steady};
use chimera_core::chimera::{chimera, ChimeraConfig};
use chimera_core::schedule::{Schedule, Scheme};
use chimera_core::unit_time::{execute, UnitCosts};

fn build(scheme: Scheme, d: u32, n: u32) -> Schedule {
    match scheme {
        Scheme::GPipe => gpipe(d, n),
        Scheme::Dapple => dapple(d, n),
        Scheme::Gems => gems(d, n),
        Scheme::Chimera => chimera(&ChimeraConfig::new(d, n)).unwrap(),
        Scheme::PipeDream => {
            let mut s = pipedream_steady(d, n, 8);
            s.strip_sync();
            s
        }
        Scheme::PipeDream2Bw => {
            let mut s = pipedream_2bw_steady(d, n, 8);
            s.strip_sync();
            s
        }
    }
}

fn main() {
    let d = 8u32;
    let n = 8u32;
    let schemes = [
        Scheme::PipeDream,
        Scheme::PipeDream2Bw,
        Scheme::GPipe,
        Scheme::Gems,
        Scheme::Dapple,
        Scheme::Chimera,
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for scheme in schemes {
        let a = table2(scheme, d, n);
        let sched = build(scheme, d, n);
        // Static verification gate: a benchmark must never measure (and
        // publish numbers for) a schedule that deadlocks or has hazards.
        let span_iters = if sched.flushes { 1 } else { 8 };
        let verdict = chimera_verify::verify_span(&sched, span_iters);
        assert!(
            verdict.is_clean(),
            "{} fails static verification:\n{verdict}",
            scheme.name()
        );
        let tl = execute(&sched, UnitCosts::practical()).unwrap();
        let measured_bubble = tl.bubble_ratio();
        let acts = &verdict.peak_activation_units;
        let act_min = acts.iter().copied().fold(f64::INFINITY, f64::min);
        let act_max = acts.iter().copied().fold(0.0f64, f64::max);
        rows.push(vec![
            scheme.name().to_string(),
            format!("{:.3}", a.bubble_ratio),
            format!("{:.3}", measured_bubble),
            format!("[{:.0},{:.0}]", a.weights_memory.0, a.weights_memory.1),
            format!(
                "[{:.0},{:.0}]",
                a.activations_memory.0, a.activations_memory.1
            ),
            format!("[{:.1},{:.1}]", act_min, act_max),
            if a.synchronous { "sync" } else { "async" }.to_string(),
        ]);
        json.push(serde_json::json!({
            "scheme": scheme.name(),
            "bubble_analytic": a.bubble_ratio,
            "bubble_measured": measured_bubble,
            "weights_mem_mtheta": a.weights_memory,
            "acts_mem_ma_analytic": a.activations_memory,
            "acts_mem_ma_measured": [act_min, act_max],
            "synchronous": a.synchronous,
        }));
    }
    print_table(
        &format!("Table 2 (D={d}, N={n}; bubbles under backward = 2x forward)"),
        &[
            "scheme",
            "bubble(analytic)",
            "bubble(measured)",
            "weights[Mθ]",
            "acts[Ma](analytic)",
            "acts[Ma](measured)",
            "convergence",
        ],
        &rows,
    );
    println!(
        "\nNotes: async schemes measured over 8 unrolled iterations (flush-free);\n\
         their residual measured bubble is the pipeline fill amortized over the span.\n\
         GEMS's analytic activations (Ma) ignore its brief 2-micro overlap window.\n\
         Chimera's analytic column is Table 2's equal-workload form\n\
         (D-2)/(2N+D-2) = {:.3}; under backward = 2x forward the paper's Fig. 2\n\
         caption gives (D-2)/(3N/2+D-2) = {:.3}, which the measurement matches.",
        chimera_core::analysis::table2(Scheme::Chimera, d, n).bubble_ratio,
        chimera_core::analysis::chimera_practical_bubble_ratio(d, n),
    );
    save_json(
        "table2",
        serde_json::json!({ "d": d, "n": n, "rows": json }),
    );
}
