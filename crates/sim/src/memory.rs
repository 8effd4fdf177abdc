//! The weight term of the coarse Table-2 memory bound (§4.1, Fig. 9):
//! parameters × stashed versions + gradient and optimizer buffers, for every
//! stage replica a worker holds. `chimera_verify::memory_v2` adds the
//! activation peak to it (`coarse_bound_bytes`) beside the exact peak, and is
//! the one answer to "does it fit".

use chimera_core::schedule::{Schedule, Scheme};
use chimera_core::WorkerId;

use crate::cost::SimCostModel;

/// Static weight-related bytes per worker.
///
/// Weight-version multipliers follow Table 2: PipeDream stashes up to
/// `D - s` parameter versions at stage `s` (steady state of per-micro
/// updates), PipeDream-2BW double-buffers (2 versions), synchronous schemes
/// keep one version per stage replica. Gradient/optimizer buffers exist once
/// per stage replica regardless of stashed versions.
pub fn weights_bytes(sched: &Schedule, cost: &SimCostModel) -> Vec<u64> {
    let d = sched.d;
    (0..sched.num_workers())
        .map(|w| {
            sched
                .placement
                .held_by(WorkerId(w as u32))
                .into_iter()
                .map(|(_, stage)| {
                    let st = &cost.stages[stage.idx()];
                    let versions = match sched.scheme {
                        Scheme::PipeDream => (d - stage.0) as u64,
                        Scheme::PipeDream2Bw => 2,
                        _ => 1,
                    };
                    st.param_bytes * versions + st.grad_opt_bytes
                })
                .sum()
        })
        .collect()
}

/// Memory imbalance: `(max - min) / max` across workers; Chimera's schedule
/// yields a markedly lower value than DAPPLE/PipeDream-2BW (Fig. 9).
pub fn imbalance(peaks: &[u64]) -> f64 {
    let max = peaks.iter().copied().max().unwrap_or(0);
    let min = peaks.iter().copied().min().unwrap_or(0);
    if max == 0 {
        0.0
    } else {
        (max - min) as f64 / max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::AllReduceAlgo;
    use crate::cost::StageCosts;
    use crate::network::{NetworkModel, Topology};
    use chimera_core::baselines::{dapple, pipedream, pipedream_2bw};
    use chimera_core::chimera::{chimera, ChimeraConfig};

    fn cost(d: u32) -> SimCostModel {
        SimCostModel {
            stages: vec![
                StageCosts {
                    fwd_s: 1e-3,
                    bwd_s: 2e-3,
                    recompute_s: 1e-3,
                    boundary_bytes: 1 << 20,
                    act_bytes: 8 << 20,
                    param_bytes: 100 << 20,
                    grad_opt_bytes: 200 << 20,
                };
                d as usize
            ],
            network: NetworkModel::cray_aries(),
            topology: Topology::one_per_node(d),
            allreduce_participants: 2,
            allreduce_algo: AllReduceAlgo::Rabenseifner,
            allreduce_beta_factor: 1.0,
            launch_overhead_s: 0.0,
            half_chunk_penalty: 1.0,
            comm_compute_interference: 0.0,
            p2p_host_overhead_s: 0.0,
            p2p_host_s_per_byte: 0.0,
        }
    }

    #[test]
    fn pipedream_stashes_d_versions_at_stage0() {
        let d = 4;
        let s = pipedream(d, 4);
        let w = weights_bytes(&s, &cost(d));
        // Stage 0: 4 versions * 100M + 200M; stage 3: 1 * 100M + 200M.
        assert_eq!(w[0], 4 * (100 << 20) + (200 << 20));
        assert_eq!(w[3], (100 << 20) + (200 << 20));
        assert!(w[0] > w[3]);
    }

    #[test]
    fn chimera_holds_two_stage_replicas() {
        let d = 4;
        let s = chimera(&ChimeraConfig::new(d, d)).unwrap();
        let w = weights_bytes(&s, &cost(d));
        for &b in &w {
            assert_eq!(b, 2 * ((100 << 20) + (200 << 20)));
        }
    }

    #[test]
    fn dapple_weights_uniform_single_copy() {
        let d = 4;
        let w = weights_bytes(&dapple(d, 8), &cost(d));
        assert!(w.iter().all(|&b| b == (100 << 20) + (200 << 20)));
    }

    #[test]
    fn two_bw_double_buffers() {
        let d = 4;
        let w = weights_bytes(&pipedream_2bw(d, 8), &cost(d));
        assert!(w.iter().all(|&b| b == 2 * (100 << 20) + (200 << 20)));
    }

    #[test]
    fn imbalance_zero_for_uniform() {
        assert_eq!(imbalance(&[5, 5, 5]), 0.0);
        assert!((imbalance(&[10, 5]) - 0.5).abs() < 1e-12);
        assert_eq!(imbalance(&[]), 0.0);
    }
}
