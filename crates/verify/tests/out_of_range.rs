//! Ids outside the schedule: an op naming a stage past `D`, a replica the
//! placement lacks or a micro-batch past `N` comes back from the executor,
//! the simulator and the verifier as a typed refusal naming the op — never a
//! panic. The executor's and the simulator's come from the one pass that
//! sizes the readiness tables; the verifier's from lowering.

use chimera_core::baselines::{dapple, gpipe};
use chimera_core::ids::{MicroId, ReplicaId, StageId, WorkerId};
use chimera_core::op::Op;
use chimera_core::schedule::Schedule;
use chimera_core::unit_time::{execute, BlockedOp, ExecError, UnitCosts};
use chimera_sim::{simulate_span, AllReduceAlgo, NetworkModel, SimCostModel, StageCosts, Topology};
use chimera_verify::{verify_span, OpLoc};

fn cost(d: u32) -> SimCostModel {
    let stage = StageCosts {
        fwd_s: 1e-3,
        bwd_s: 2e-3,
        recompute_s: 1e-3,
        boundary_bytes: 1 << 20,
        act_bytes: 8 << 20,
        param_bytes: 100 << 20,
        grad_opt_bytes: 200 << 20,
    };
    SimCostModel {
        stages: vec![stage; d as usize],
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

/// `(what, schedule with the probe appended, worker, index of the probe)`.
fn probes() -> Vec<(&'static str, Schedule, usize, usize)> {
    let append = |mut s: Schedule, w: usize, op: Op| {
        s.workers[w].push(op);
        let at = s.workers[w].len() - 1;
        (s, w, at)
    };
    let forward = |m, s, r| Op::forward(MicroId(m), StageId(s), ReplicaId(r));
    let cases = [
        (
            "a forward at stage 7",
            append(gpipe(2, 2), 0, forward(0, 7, 0)),
        ),
        (
            "a stage-1 forward of replica 3",
            append(gpipe(2, 2), 1, forward(0, 1, 3)),
        ),
        (
            "an allreduce launch of stage 5",
            append(
                dapple(2, 2),
                0,
                Op::allreduce_launch(StageId(5), ReplicaId(0)),
            ),
        ),
        (
            "a forward of micro 900",
            append(gpipe(2, 2), 0, forward(900, 0, 0)),
        ),
    ];
    cases
        .into_iter()
        .map(|(what, (s, w, at))| (what, s, w, at))
        .collect()
}

#[test]
fn every_path_refuses_ids_outside_the_schedule() {
    for (what, sched, w, at) in probes() {
        let expected = ExecError::OutOfRange(BlockedOp {
            worker: WorkerId(w as u32),
            op_index: at,
            op: sched.workers[w][at].to_string(),
        });
        let executed = execute(&sched, UnitCosts::practical()).err();
        assert_eq!(executed.as_ref(), Some(&expected), "execute, {what}");
        assert!(expected.to_string().contains("outside the schedule"));
        let simulated = simulate_span(&sched, &cost(sched.d), 1).err();
        assert_eq!(simulated, Some(expected), "simulate_span, {what}");

        let report = verify_span(&sched, 1);
        let refusal = report.errors().find(|d| d.code == "id_out_of_range");
        let located = refusal.map(|d| d.locations.clone());
        assert_eq!(
            located,
            Some(vec![OpLoc::of(&sched, w, at)]),
            "verify_span, {what}:\n{report}"
        );
    }
}
