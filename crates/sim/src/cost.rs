//! Byte- and second-accurate cost model implementing
//! [`chimera_core::unit_time::CostProvider`] (ticks = nanoseconds).

use chimera_core::op::{Chunk, Op, OpKind};
use chimera_core::unit_time::CostProvider;
use chimera_core::{StageId, WorkerId};

use crate::collective::{allreduce_time, AllReduceAlgo};
use crate::network::{NetworkModel, Topology};

/// Per-stage workload and footprint, for one micro-batch at the configured
/// micro-batch size `B`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCosts {
    /// Forward-pass seconds.
    pub fwd_s: f64,
    /// Backward-pass seconds (without recomputation; ≈ `2 * fwd_s`).
    pub bwd_s: f64,
    /// Extra seconds a recomputing backward pays (≈ `fwd_s`).
    pub recompute_s: f64,
    /// Bytes of the stage's *output* activation (the p2p message to the next
    /// stage; also what remains stashed under recomputation).
    pub boundary_bytes: u64,
    /// Bytes of all stashed activations of the stage for one micro-batch.
    pub act_bytes: u64,
    /// Parameter bytes of the stage (one weight version).
    pub param_bytes: u64,
    /// Gradient + optimizer-state bytes of the stage (allocated once
    /// regardless of stashed weight versions).
    pub grad_opt_bytes: u64,
}

/// Full simulator cost model for one pipeline-parallel group.
#[derive(Debug, Clone)]
pub struct SimCostModel {
    /// Per-stage costs (length `D`).
    pub stages: Vec<StageCosts>,
    /// Network parameters.
    pub network: NetworkModel,
    /// Worker→node mapping.
    pub topology: Topology,
    /// Total participants of each gradient allreduce: stage replicas within
    /// the group (`2f` for Chimera, 1 otherwise) times the data-parallel
    /// width `W`.
    pub allreduce_participants: u32,
    /// Collective algorithm to cost.
    pub allreduce_algo: AllReduceAlgo,
    /// Host-side overhead of launching a non-blocking collective (§3.2's
    /// initialization/threading cost), charged to the worker's compute time.
    pub launch_overhead_s: f64,
    /// Effective-bandwidth degradation of the gradient allreduce relative to
    /// the raw link (GLOO's host-based staging copies the tensors through
    /// CPU memory; ≥ 1, applied to β in the collective cost).
    pub allreduce_beta_factor: f64,
    /// Efficiency penalty multiplier for half-micro-batch backward chunks
    /// (backward halving runs at a sub-max batch size; ≥ 1).
    pub half_chunk_penalty: f64,
    /// Fraction of an asynchronous collective's duration charged to the
    /// launching worker's compute time: progressing a non-blocking
    /// allreduce under computation steals cycles (threading/progression
    /// overheads of §3.2 / \[24\]). This is what makes eager synchronization
    /// of the *middle* stages — which have no bubble to hide the collective
    /// in — a net loss (Fig. 12's eager-sync vs eager-sync-opt).
    pub comm_compute_interference: f64,
    /// Host-side cost per p2p message endpoint (GLOO stages sends/receives
    /// through CPU memory): fixed part per message.
    pub p2p_host_overhead_s: f64,
    /// Host-side cost per p2p message endpoint: per-byte part (CPU copy).
    pub p2p_host_s_per_byte: f64,
}

const NS: f64 = 1e9;

fn to_ns(seconds: f64) -> u64 {
    (seconds * NS).round().max(0.0) as u64
}

impl SimCostModel {
    /// Seconds → simulator tick count (1 tick = 1 ns).
    pub fn ticks(seconds: f64) -> u64 {
        to_ns(seconds)
    }

    /// Simulator ticks → seconds.
    pub fn seconds(ticks: u64) -> f64 {
        ticks as f64 / NS
    }

    /// Allreduce duration in seconds for `stage`'s gradients. Gradient
    /// synchronization crosses nodes, so the inter-node link is used.
    pub fn allreduce_s(&self, stage: StageId) -> f64 {
        let link = crate::network::LinkParams {
            alpha_s: self.network.inter.alpha_s,
            beta_s_per_byte: self.network.inter.beta_s_per_byte * self.allreduce_beta_factor,
        };
        allreduce_time(
            self.allreduce_algo,
            self.stages[stage.idx()].param_bytes,
            self.allreduce_participants,
            link,
        )
    }

    fn chunk_scale(op: &Op) -> f64 {
        match op.chunk {
            Chunk::Full => 1.0,
            Chunk::Pair => 2.0,
            Chunk::Half(_) => 0.5,
        }
    }

    /// Bytes moved by `op`'s input transfer (activations forward, gradients
    /// backward — symmetric sizes at a stage boundary).
    fn p2p_bytes(&self, op: &Op) -> u64 {
        let boundary = match op.kind {
            // Forward at stage s consumes stage s-1's output.
            OpKind::Forward => {
                if op.stage.0 == 0 {
                    return 0;
                }
                self.stages[op.stage.idx() - 1].boundary_bytes
            }
            // Backward at stage s consumes the gradient of its own output.
            OpKind::Backward { .. } => self.stages[op.stage.idx()].boundary_bytes,
            _ => return 0,
        };
        (boundary as f64 * Self::chunk_scale(op)) as u64
    }

    /// Host-side (CPU-staged) communication time a compute op pays for its
    /// boundary receive and send.
    fn p2p_host_s(&self, op: &Op) -> f64 {
        let d = self.stages.len() as u32;
        let scale = Self::chunk_scale(op);
        let (recv, send) = match op.kind {
            OpKind::Forward => (op.stage.0 > 0, op.stage.0 + 1 < d),
            OpKind::Backward { .. } => (op.stage.0 + 1 < d, op.stage.0 > 0),
            _ => (false, false),
        };
        let per_msg = |bytes: f64| self.p2p_host_overhead_s + bytes * self.p2p_host_s_per_byte;
        let mut cost = 0.0;
        if recv {
            let idx = match op.kind {
                OpKind::Forward => op.stage.idx() - 1,
                _ => op.stage.idx(),
            };
            cost += per_msg(self.stages[idx].boundary_bytes as f64 * scale);
        }
        if send {
            cost += per_msg(self.stages[op.stage.idx()].boundary_bytes as f64 * scale);
        }
        cost
    }
}

impl CostProvider for SimCostModel {
    fn op_cost(&self, op: &Op) -> u64 {
        let st = &self.stages[op.stage.idx()];
        let s = match op.kind {
            OpKind::Forward => st.fwd_s * Self::chunk_scale(op) + self.p2p_host_s(op),
            OpKind::Backward { recompute } => {
                let full = st.bwd_s + if recompute { st.recompute_s } else { 0.0 };
                let compute = match op.chunk {
                    Chunk::Full => full,
                    Chunk::Pair => 2.0 * full,
                    Chunk::Half(_) => 0.5 * full * self.half_chunk_penalty,
                };
                compute + self.p2p_host_s(op)
            }
            OpKind::AllReduceLaunch => {
                self.launch_overhead_s + self.comm_compute_interference * self.allreduce_s(op.stage)
            }
            OpKind::AllReduceWait => 0.0,
        };
        to_ns(s)
    }

    fn p2p_delay(&self, from: WorkerId, to: WorkerId, op: &Op) -> u64 {
        if from == to {
            return 0;
        }
        let bytes = self.p2p_bytes(op);
        if bytes == 0 {
            return 0;
        }
        to_ns(
            self.network
                .p2p_time(bytes, self.topology.same_node(from.idx(), to.idx())),
        )
    }

    fn allreduce_duration(&self, stage: StageId) -> u64 {
        to_ns(self.allreduce_s(stage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_core::{MicroId, ReplicaId};

    fn model(d: u32) -> SimCostModel {
        SimCostModel {
            stages: vec![
                StageCosts {
                    fwd_s: 1e-3,
                    bwd_s: 2e-3,
                    recompute_s: 1e-3,
                    boundary_bytes: 1_000_000,
                    act_bytes: 8_000_000,
                    param_bytes: 40_000_000,
                    grad_opt_bytes: 80_000_000,
                };
                d as usize
            ],
            network: NetworkModel::cray_aries(),
            topology: Topology::one_per_node(d),
            allreduce_participants: 8,
            allreduce_algo: AllReduceAlgo::Rabenseifner,
            allreduce_beta_factor: 1.0,
            launch_overhead_s: 1e-4,
            half_chunk_penalty: 1.2,
            comm_compute_interference: 0.0,
            p2p_host_overhead_s: 0.0,
            p2p_host_s_per_byte: 0.0,
        }
    }

    #[test]
    fn op_costs_scale_with_chunk() {
        let m = model(4);
        let f = Op::forward(MicroId(0), StageId(1), ReplicaId(0));
        assert_eq!(m.op_cost(&f), 1_000_000);
        let mut pair = f;
        pair.chunk = Chunk::Pair;
        assert_eq!(m.op_cost(&pair), 2_000_000);
        let b = Op::backward(MicroId(0), StageId(1), ReplicaId(0));
        assert_eq!(m.op_cost(&b), 2_000_000);
        let br = Op::backward_recompute(MicroId(0), StageId(1), ReplicaId(0));
        assert_eq!(m.op_cost(&br), 3_000_000);
        let mut half = b;
        half.chunk = Chunk::Half(0);
        // 0.5 * 2ms * 1.2 penalty = 1.2ms.
        assert_eq!(m.op_cost(&half), 1_200_000);
    }

    #[test]
    fn p2p_uses_boundary_of_producing_stage() {
        let m = model(4);
        let f1 = Op::forward(MicroId(0), StageId(1), ReplicaId(0));
        let d = m.p2p_delay(WorkerId(0), WorkerId(1), &f1);
        let expected = m.network.p2p_time(1_000_000, false);
        assert_eq!(d, SimCostModel::ticks(expected));
        // Stage-0 forward has no upstream transfer.
        let f0 = Op::forward(MicroId(0), StageId(0), ReplicaId(0));
        assert_eq!(m.p2p_delay(WorkerId(3), WorkerId(0), &f0), 0);
        // Same worker: free.
        assert_eq!(m.p2p_delay(WorkerId(1), WorkerId(1), &f1), 0);
    }

    #[test]
    fn allreduce_grows_with_participants() {
        let mut m = model(2);
        let a = m.allreduce_duration(StageId(0));
        m.allreduce_participants = 64;
        let b = m.allreduce_duration(StageId(0));
        assert!(b > a);
    }

    #[test]
    fn tick_roundtrip() {
        assert_eq!(SimCostModel::ticks(1.5e-3), 1_500_000);
        assert!((SimCostModel::seconds(1_500_000) - 1.5e-3).abs() < 1e-12);
    }
}
