//! Figure 16: weak scaling for Bert-48 (sequence length 512) on the 32×V100
//! cluster — P from 16 to 32, B̂ from 128 to 256. Paper: Chimera improves
//! 1.10x–2.39x over synchronous and 1.05x–1.89x over asynchronous baselines.

use chimera_bench::scaling::weak_scaling;
use chimera_perf::{ClusterSpec, ModelSpec};

fn main() {
    weak_scaling(
        "fig16_v100",
        "Fig. 16: Bert-48/seq512 on V100 cluster",
        ModelSpec::bert48_seq512(),
        ClusterSpec::v100_cluster(),
        &[(16, 128), (32, 256)],
    );
}
