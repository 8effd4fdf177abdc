//! Figure 14: weak scaling for Bert-48 on Piz Daint — P from 16 to 64, B̂
//! from 256 to 1,024 (PipeDream's mini-batch is its W·B). Paper headline at
//! P=64: Chimera beats PipeDream 1.94x, PipeDream-2BW 1.17x, GPipe 1.32x,
//! GEMS 2.41x, DAPPLE 1.19x.

use chimera_bench::scaling::weak_scaling;
use chimera_perf::{ClusterSpec, ModelSpec};

fn main() {
    weak_scaling(
        "fig14_weak_bert",
        "Fig. 14: Bert-48 weak scaling",
        ModelSpec::bert48(),
        ClusterSpec::piz_daint(),
        &[(16, 256), (32, 512), (64, 1024)],
    );
}
