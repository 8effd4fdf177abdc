//! Building simulator cost models from a model spec, device profile and
//! cluster description.

use chimera_sim::{AllReduceAlgo, NetScenario, NetworkModel, SimCostModel, StageCosts, Topology};

use crate::device::DeviceProfile;
use crate::model::ModelSpec;

/// A cluster: devices plus interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// GPU model.
    pub device: DeviceProfile,
    /// Network parameters.
    pub network: NetworkModel,
    /// GPUs per node (1 on Piz Daint, 8 on the V100 cluster).
    pub gpus_per_node: u32,
    /// Host overhead of launching a non-blocking collective (§3.2).
    pub launch_overhead_s: f64,
    /// Gradient-allreduce effective-bandwidth degradation vs the raw link
    /// (GLOO stages tensors through host memory; the paper's backend).
    pub allreduce_beta_factor: f64,
    /// Device memory unavailable to the model: CUDA context, framework and
    /// communication buffers, allocator fragmentation.
    pub reserved_mem_bytes: u64,
    /// Fraction of an async collective's duration that steals compute from
    /// the launching worker (§3.2 / \[24\]).
    pub comm_compute_interference: f64,
    /// Host-side cost per p2p message endpoint: fixed part.
    pub p2p_host_overhead_s: f64,
    /// Host-side cost per p2p message endpoint: per-byte CPU copy.
    pub p2p_host_s_per_byte: f64,
}

impl ClusterSpec {
    /// CSCS Piz Daint: Cray XC50, one P100 per node, Aries interconnect.
    pub fn piz_daint() -> Self {
        ClusterSpec {
            device: DeviceProfile::p100(),
            network: NetworkModel::cray_aries(),
            gpus_per_node: 1,
            launch_overhead_s: 3e-4,
            allreduce_beta_factor: 3.0,
            reserved_mem_bytes: 3 * (1 << 29), // 1.5 GiB
            comm_compute_interference: 0.6,
            p2p_host_overhead_s: 1.0e-3,
            p2p_host_s_per_byte: 1.0 / 5e9,
        }
    }

    /// The 32×V100 cluster of §4: 4 nodes × 8 GPUs, NVLink + InfiniBand.
    pub fn v100_cluster() -> Self {
        ClusterSpec {
            device: DeviceProfile::v100(),
            network: NetworkModel::nvlink_infiniband(),
            gpus_per_node: 8,
            launch_overhead_s: 2e-4,
            allreduce_beta_factor: 3.0,
            reserved_mem_bytes: 2 * (1 << 30), // 2 GiB
            comm_compute_interference: 0.6,
            p2p_host_overhead_s: 0.5e-3,
            p2p_host_s_per_byte: 1.0 / 8e9,
        }
    }

    /// Memory available to model state and activations on each device.
    pub fn usable_mem(&self) -> u64 {
        self.device.mem_bytes - self.reserved_mem_bytes
    }

    /// Build a cluster from a named network scenario. The interconnect and
    /// node packing come from the scenario; the device and host-side
    /// constants follow the closest paper cluster — the one-GPU-per-node
    /// Aries preset is the P100 machine, every dense-node preset runs the
    /// V100 profile.
    pub fn from_scenario(s: &NetScenario) -> Self {
        let base = if s.gpus_per_node == 1 {
            ClusterSpec::piz_daint()
        } else {
            ClusterSpec::v100_cluster()
        };
        ClusterSpec {
            network: s.network,
            gpus_per_node: s.gpus_per_node,
            ..base
        }
    }

    /// Cap the per-device memory available to the model at `budget` bytes
    /// (a tenant's quota). A budget at or above [`ClusterSpec::usable_mem`]
    /// is a no-op — the device cannot grow.
    pub fn with_mem_budget(mut self, budget: u64) -> Self {
        let usable = self.usable_mem().min(budget);
        self.reserved_mem_bytes = self.device.mem_bytes - usable;
        self
    }
}

/// One concrete parallel training configuration of a model on a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// The model.
    pub model: ModelSpec,
    /// The cluster.
    pub cluster: ClusterSpec,
    /// Pipeline stages `D`.
    pub d: u32,
    /// Replicated pipelines (data-parallel width) `W`.
    pub w: u32,
    /// Micro-batch size `B`.
    pub b: u32,
    /// Stage replicas within one pipeline group (`2f` for Chimera and GEMS,
    /// 1 for the linear-placement schemes).
    pub stage_replicas: u32,
}

impl TrainConfig {
    /// Workers in total (`P = W · D`).
    pub fn p(&self) -> u32 {
        self.w * self.d
    }

    /// Build the simulator cost model for this configuration.
    pub fn cost_model(&self) -> SimCostModel {
        let m = &self.model;
        let dev = &self.cluster.device;
        // Whole layers cannot be split: the largest stage gates the pipeline.
        let lps = m.layers_per_stage_padded(self.d) as f64;
        let tokens = self.b as u64 * m.seq as u64;
        let fwd_flops = m.flops_per_layer_per_sample() * lps * self.b as f64;
        let fwd_s = dev.compute_time(fwd_flops, tokens);
        let stages = (0..self.d)
            .map(|s| {
                let params = m.stage_params(s, self.d);
                StageCosts {
                    fwd_s,
                    bwd_s: 2.0 * fwd_s,
                    recompute_s: fwd_s,
                    boundary_bytes: m.boundary_bytes_per_sample() * self.b as u64,
                    act_bytes: (m.act_bytes_per_layer_per_sample() as f64 * lps * self.b as f64)
                        as u64,
                    param_bytes: params * m.bytes_per_value as u64,
                    // One gradient buffer + one SGD-momentum buffer.
                    grad_opt_bytes: 2 * params * m.bytes_per_value as u64,
                }
            })
            .collect();
        // Backward halving runs the backward at B/2: the efficiency ratio is
        // the penalty multiplier.
        let half_penalty = if self.b >= 2 {
            dev.efficiency(tokens) / dev.efficiency(tokens / 2)
        } else {
            1.0
        };
        SimCostModel {
            stages,
            network: self.cluster.network,
            topology: Topology::packed(self.d, self.cluster.gpus_per_node),
            allreduce_participants: self.stage_replicas * self.w,
            allreduce_algo: AllReduceAlgo::Rabenseifner,
            launch_overhead_s: self.cluster.launch_overhead_s,
            allreduce_beta_factor: self.cluster.allreduce_beta_factor,
            half_chunk_penalty: half_penalty,
            comm_compute_interference: self.cluster.comm_compute_interference,
            p2p_host_overhead_s: self.cluster.p2p_host_overhead_s,
            p2p_host_s_per_byte: self.cluster.p2p_host_s_per_byte,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TrainConfig {
        TrainConfig {
            model: ModelSpec::bert48(),
            cluster: ClusterSpec::piz_daint(),
            d: 4,
            w: 8,
            b: 8,
            stage_replicas: 2,
        }
    }

    #[test]
    fn stage0_has_embedding_surplus() {
        let c = cfg().cost_model();
        assert!(c.stages[0].param_bytes > c.stages[1].param_bytes);
        assert_eq!(c.stages[1].param_bytes, c.stages[3].param_bytes);
    }

    #[test]
    fn backward_twice_forward() {
        let c = cfg().cost_model();
        for st in &c.stages {
            assert!((st.bwd_s - 2.0 * st.fwd_s).abs() < 1e-12);
            assert!((st.recompute_s - st.fwd_s).abs() < 1e-12);
        }
    }

    #[test]
    fn bigger_micro_batch_more_efficient_per_sample() {
        let c1 = TrainConfig { b: 1, ..cfg() }.cost_model();
        let c8 = TrainConfig { b: 8, ..cfg() }.cost_model();
        let per_sample_1 = c1.stages[0].fwd_s / 1.0;
        let per_sample_8 = c8.stages[0].fwd_s / 8.0;
        assert!(per_sample_8 < per_sample_1);
    }

    #[test]
    fn allreduce_group_is_replicas_times_w() {
        let c = cfg().cost_model();
        assert_eq!(c.allreduce_participants, 16);
    }

    #[test]
    fn coarser_stages_cost_more_compute_less_p2p_relative() {
        let deep = TrainConfig {
            d: 16,
            w: 2,
            ..cfg()
        }
        .cost_model();
        let shallow = TrainConfig {
            d: 2,
            w: 16,
            ..cfg()
        }
        .cost_model();
        assert!(shallow.stages[0].fwd_s > deep.stages[0].fwd_s);
        // Boundary message size does not depend on D.
        assert_eq!(
            shallow.stages[0].boundary_bytes,
            deep.stages[0].boundary_bytes
        );
    }

    #[test]
    fn half_penalty_at_least_one() {
        for b in [1u32, 2, 4, 8, 32] {
            let c = TrainConfig { b, ..cfg() }.cost_model();
            assert!(c.half_chunk_penalty >= 1.0, "b={b}");
        }
    }

    #[test]
    fn scenario_clusters_and_mem_budget() {
        let rail = ClusterSpec::from_scenario(&NetScenario::rail_optimized());
        assert_eq!(rail.gpus_per_node, 8);
        assert_eq!(rail.device, crate::DeviceProfile::v100());
        let daint = ClusterSpec::from_scenario(&NetScenario::piz_daint());
        assert_eq!(daint.gpus_per_node, 1);
        assert_eq!(daint.network, NetworkModel::cray_aries());

        // A tighter budget caps usable memory exactly; a looser one is a
        // no-op.
        let tight = daint.with_mem_budget(1 << 30);
        assert_eq!(tight.usable_mem(), 1 << 30);
        let loose = daint.with_mem_budget(u64::MAX);
        assert_eq!(loose.usable_mem(), daint.usable_mem());
    }

    #[test]
    fn memory_footprint_plausible_for_bert48_d4() {
        // Bert-48 on 4 stages: ~167M params/stage * 12 bytes ≈ 2 GB weights
        // per stage replica — fits a 16 GB P100 with activations.
        let c = cfg().cost_model();
        let total: u64 = c.stages.iter().map(|s| s.param_bytes).sum();
        let expect = ModelSpec::bert48().total_params() * 4;
        let err = (total as f64 - expect as f64).abs() / expect as f64;
        assert!(err < 0.01, "stage params sum to the model: {err}");
    }
}
