//! Figure 17: scaling to large mini-batches for Bert-48 on 32 GPU nodes
//! (B̂ from 512 to 8,192), comparing Chimera's three §3.5 strategies —
//! *direct concatenation*, *forward doubling*, *backward halving* — against
//! the tuned baselines. Paper: direct wins on Bert-48; for B̂ ≥ 1,024
//! Chimera(direct) averages 1.13x over GPipe, 2.07x over GEMS, 1.06x over
//! DAPPLE, and tracks PipeDream-2BW.

use chimera_bench::scaling::large_batch;
use chimera_perf::{ClusterSpec, ModelSpec};

fn main() {
    large_batch(
        "fig17_large_batch_bert",
        "Fig. 17: Bert-48 on P=32",
        ModelSpec::bert48(),
        ClusterSpec::piz_daint(),
        32,
    );
}
