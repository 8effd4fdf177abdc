//! Figure 15: weak scaling for GPT-2 on Piz Daint — P from 512 to 2,048, B̂
//! from 512 to 2,048. Paper headline at P=2,048: Chimera beats PipeDream
//! 2.01x, PipeDream-2BW 1.16x, GPipe 1.42x, GEMS 2.34x, DAPPLE 1.38x, with
//! 91.4% parallel efficiency from 512→2,048 nodes.

use chimera_bench::scaling::weak_scaling;
use chimera_perf::{ClusterSpec, ModelSpec};

fn main() {
    let chimera_throughputs = weak_scaling(
        "fig15_weak_gpt2",
        "Fig. 15: GPT-2 weak scaling",
        ModelSpec::gpt2(),
        ClusterSpec::piz_daint(),
        &[(512, 512), (1024, 1024), (2048, 2048)],
    );
    if let (Some(&(p0, t0)), Some(&(p1, t1))) =
        (chimera_throughputs.first(), chimera_throughputs.last())
    {
        let eff = (t1 / t0) / (p1 as f64 / p0 as f64);
        println!(
            "\nChimera weak-scaling parallel efficiency {p0}→{p1} nodes: {:.1}% (paper: 91.4%)",
            eff * 100.0
        );
    }
}
