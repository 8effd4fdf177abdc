//! Configuration planning: given a model, a cluster and a mini-batch size,
//! find the best (W, D, B) for every pipeline scheme — the §4.2 workflow.
//!
//! ```sh
//! cargo run --release --example plan_cluster -- [workers] [mini_batch]
//! ```

use chimera::core::chimera::ScaleMethod;
use chimera::perf::planner::{best, plan_chimera, PlanScheme};
use chimera::perf::{ClusterSpec, ModelSpec};

fn main() {
    let mut args = std::env::args().skip(1);
    let p: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(32);
    let b_hat: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(512);
    let model = ModelSpec::bert48();
    let cluster = ClusterSpec::piz_daint();
    println!(
        "Planning {} on {} x {} (Piz Daint profile), B̂ = {b_hat}\n",
        model.name, p, cluster.device.name
    );

    println!(
        "{:<24} {:>4} {:>4} {:>4} {:>5} {:>4} {:>12} {:>8}",
        "scheme", "W", "D", "B", "N", "rec", "samples/s", "peakGiB"
    );
    for scheme in [
        PlanScheme::GPipe,
        PlanScheme::Dapple,
        PlanScheme::Gems,
        PlanScheme::PipeDream,
        PlanScheme::PipeDream2Bw,
    ] {
        match best(scheme, model, cluster, p, b_hat) {
            Some(c) => println!(
                "{:<24} {:>4} {:>4} {:>4} {:>5} {:>4} {:>12.1} {:>8.2}",
                scheme.label(),
                c.w,
                c.d,
                c.b,
                c.n,
                if c.recompute { "R" } else { "-" },
                c.throughput,
                c.peak_mem as f64 / (1u64 << 30) as f64
            ),
            None => println!("{:<24} (no feasible configuration)", scheme.label()),
        }
    }
    // Chimera: the §3.4 model picks the configuration — print its predicted
    // vs simulated iteration time too.
    for scale in [
        ScaleMethod::Direct,
        ScaleMethod::ForwardDoubling,
        ScaleMethod::BackwardHalving,
    ] {
        if let Some(c) = plan_chimera(1, scale, model, cluster, p, b_hat) {
            println!(
                "{:<24} {:>4} {:>4} {:>4} {:>5} {:>4} {:>12.1} {:>8.2}   (Eq.1 predicted {:.3}s, simulated {:.3}s)",
                c.scheme.label(),
                c.w,
                c.d,
                c.b,
                c.n,
                if c.recompute { "R" } else { "-" },
                c.throughput,
                c.peak_mem as f64 / (1u64 << 30) as f64,
                c.predicted_s.unwrap_or(f64::NAN),
                c.iter_time_s
            );
        }
    }
}
