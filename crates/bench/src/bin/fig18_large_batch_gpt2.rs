//! Figure 18: scaling to large mini-batches for GPT-2 on 512 GPU nodes
//! (B̂ from 512 to 8,192). Paper: *forward doubling* wins on GPT-2 (where
//! recomputation is required anyway), averaging 1.13x over PipeDream-2BW,
//! 1.18x over GPipe, 2.60x over GEMS, and 1.34x over DAPPLE.

use chimera_bench::scaling::large_batch;
use chimera_perf::{ClusterSpec, ModelSpec};

fn main() {
    large_batch(
        "fig18_large_batch_gpt2",
        "Fig. 18: GPT-2 on P=512",
        ModelSpec::gpt2(),
        ClusterSpec::piz_daint(),
        512,
    );
}
