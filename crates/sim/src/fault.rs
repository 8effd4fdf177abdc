//! Crash and network-chaos modeling with checkpoint-restart recovery.
//!
//! The paper's evaluation assumes a healthy machine; at the scale Chimera
//! targets (thousands of nodes, multi-day runs) node failures and flaky
//! links are routine. A [`FaultPlan`] mirrors the two faults the runtime
//! injects: a worker crash ([`FaultPlan::crash_at`], the runtime's
//! `FaultSpec` kill) and the transport's seeded [`chimera_comm::NetChaos`]
//! plans ([`FaultPlan::net_chaos`]). [`simulate_faulty`] runs the schedule
//! with the chaos on its links and accounts for surviving the crashes via
//! periodic checkpoints ([`RecoveryModel`]): detect the failure, restore the
//! last checkpoint, replay the lost work.
//!
//! Everything is a pure function of the plan — two runs with the same plan
//! produce bit-identical reports, which is what makes fault scenarios usable
//! in regression tests.
//!
//! The chaos mirror is analytic: frame loss, duplication, reordering, slow
//! links, partition windows and socket breaks are mapped onto link delay
//! factors, expected retransmit stalls and one-time outage charges, so a
//! chaos scenario run on the real TCP backend has a simulated counterpart
//! to drift-check against.

use chimera_core::op::Op;
use chimera_core::schedule::Schedule;
use chimera_core::unit_time::{execute_span, CostProvider, ExecError};
use chimera_core::{StageId, WorkerId};
use chimera_trace::{Event, SpanEvent, SpanKind};

use crate::cost::SimCostModel;
use crate::engine::SimReport;

/// A deterministic fault scenario for one pipeline group: worker crashes
/// and mirrored network chaos, consumed by [`simulate_faulty`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Worker crashes: `(worker, tick)` into the training run.
    crashes: Vec<(u32, u64)>,
    /// Mirrored network chaos, one entry per [`FaultPlan::net_chaos`] call.
    links: Vec<LinkChaos>,
}

/// One [`FaultPlan::net_chaos`] call: what it does to the link `from → to`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LinkChaos {
    from: u32,
    to: u32,
    /// Multiplier on the p2p delay of every message on the link.
    factor: f64,
    /// Seconds added to every message on the link — expected retransmit and
    /// reorder stalls, chaos slow-link delays.
    delay_s: f64,
    /// One-time link outage in seconds charged to the whole run — partition
    /// windows and socket breaks healed by reconnect.
    outage_s: f64,
}

impl FaultPlan {
    /// Crash `worker` at absolute tick `at` (ns) into the training run.
    pub fn crash_at(mut self, worker: u32, at: u64) -> Self {
        self.crashes.push((worker, at));
        self
    }

    /// Mirror a transport-layer [`chimera_comm::NetChaos`] plan
    /// analytically on the link `from → to`, so a chaos scenario measured
    /// on the real TCP backend can be compared against its simulated
    /// counterpart. `rto_s` is the retransmit timeout of the session layer
    /// (`TcpConfig::retransmit_after`). The mapping matches how the
    /// self-healing transport absorbs each fault:
    ///
    /// - **flaky `p`** — every lost frame is retransmitted, so goodput
    ///   shrinks by `1/(1-p)` and each message waits an expected `p·rto`
    ///   for the timer;
    /// - **duplicate `p`** — the second copy burns bandwidth: `1+p`;
    /// - **reorder `p`** — a held frame waits for its successor or the
    ///   timer, an expected extra `p·rto/2`;
    /// - **slow** — fixed added delay;
    /// - **partition `(start, len)`** — every frame in the window is
    ///   dropped and recovered one RTO later: a `len·rto` outage;
    /// - **break** — one reconnect-plus-replay stall of about one RTO.
    pub fn net_chaos(
        mut self,
        from: u32,
        to: u32,
        chaos: &chimera_comm::NetChaos,
        rto_s: f64,
    ) -> Self {
        assert!(rto_s > 0.0, "retransmit timeout must be positive");
        let mut link = LinkChaos {
            from,
            to,
            factor: 1.0,
            delay_s: 0.0,
            outage_s: 0.0,
        };
        if chaos.flaky > 0.0 {
            assert!(chaos.flaky < 1.0, "a fully lossy link never converges");
            link.factor *= 1.0 / (1.0 - chaos.flaky);
            link.delay_s += chaos.flaky * rto_s;
        }
        if chaos.duplicate > 0.0 {
            link.factor *= 1.0 + chaos.duplicate;
        }
        if chaos.reorder > 0.0 {
            link.delay_s += chaos.reorder * rto_s / 2.0;
        }
        if let Some(d) = chaos.slow {
            link.delay_s += d.as_secs_f64();
        }
        if let Some((_, len)) = chaos.partition {
            link.outage_s += len as f64 * rto_s;
        }
        if chaos.break_at.is_some() {
            link.outage_s += rto_s;
        }
        self.links.push(link);
        self
    }

    /// The combined delay factor and added seconds of the link `from → to`.
    fn link(&self, from: u32, to: u32) -> (f64, f64) {
        let on_link = self.links.iter().filter(|l| l.from == from && l.to == to);
        on_link.fold((1.0, 0.0), |(factor, delay_s), l| {
            (factor * l.factor, delay_s + l.delay_s)
        })
    }

    /// Total one-time link-outage seconds charged to the run.
    fn outage_s(&self) -> f64 {
        self.links.iter().fold(0.0, |sum, l| sum + l.outage_s)
    }
}

/// Recovery cost model: how failures are survived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryModel {
    /// Seconds from crash to detection (heartbeat timeout).
    pub detect_s: f64,
    /// Seconds to restore the last checkpoint on all workers.
    pub restore_s: f64,
    /// Seconds to write one checkpoint (charged per save).
    pub checkpoint_s: f64,
    /// Checkpoint cadence in iterations (0 = only the initial checkpoint).
    pub checkpoint_every: u32,
}

impl RecoveryModel {
    /// Expected overhead seconds per failure: detection, restore, and the
    /// expected half-interval of lost work to replay.
    pub fn expected_failure_overhead_s(&self, iter_time_s: f64) -> f64 {
        let interval = self.checkpoint_every.max(1) as f64 * iter_time_s;
        self.detect_s + self.restore_s + interval / 2.0
    }
}

/// A [`CostProvider`] that puts a [`FaultPlan`]'s network chaos on a base
/// [`SimCostModel`]'s p2p delays; compute and allreduce costs are the base's.
/// Crashes are handled by [`simulate_faulty`], not here.
struct ChaoticLinks<'a> {
    base: &'a SimCostModel,
    plan: &'a FaultPlan,
}

impl CostProvider for ChaoticLinks<'_> {
    fn op_cost(&self, op: &Op) -> u64 {
        self.base.op_cost(op)
    }

    fn p2p_delay(&self, from: WorkerId, to: WorkerId, op: &Op) -> u64 {
        let base = self.base.p2p_delay(from, to, op);
        let (factor, delay_s) = self.plan.link(from.0, to.0);
        (base as f64 * factor).round() as u64 + SimCostModel::ticks(delay_s)
    }

    fn allreduce_duration(&self, stage: StageId) -> u64 {
        self.base.allreduce_duration(stage)
    }
}

/// One crash survived during a simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashRecord {
    /// Worker that crashed.
    pub worker: u32,
    /// Iteration the crash interrupted.
    pub iteration: u32,
    /// Crash tick (ns into the healthy run timeline).
    pub at_ns: u64,
    /// Work since the last checkpoint that must be replayed (ns).
    pub lost_ns: u64,
    /// Detection latency (ns).
    pub detect_ns: u64,
    /// Checkpoint-restore time (ns).
    pub restore_ns: u64,
}

impl CrashRecord {
    /// Total ns this crash added to the run: detect + restore + replay.
    pub fn overhead_ns(&self) -> u64 {
        self.detect_ns + self.restore_ns + self.lost_ns
    }
}

impl serde::Serialize for CrashRecord {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("CrashRecord", 6)?;
        st.serialize_field("worker", &self.worker)?;
        st.serialize_field("iteration", &self.iteration)?;
        st.serialize_field("at_s", &SimCostModel::seconds(self.at_ns))?;
        st.serialize_field("lost_work_s", &SimCostModel::seconds(self.lost_ns))?;
        st.serialize_field("detect_s", &SimCostModel::seconds(self.detect_ns))?;
        st.serialize_field("restore_s", &SimCostModel::seconds(self.restore_ns))?;
        st.end()
    }
}

/// Fault and recovery accounting for a simulated training run (attached to
/// [`SimReport::recovery`] by [`simulate_faulty`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryAccounting {
    /// Iterations in the modeled run.
    pub run_iterations: u32,
    /// Checkpoint cadence in iterations (0 = initial checkpoint only).
    pub checkpoint_every: u32,
    /// Checkpoints written during the run (excluding the initial one).
    pub checkpoints: u32,
    /// Crash-free run time under the plan's network chaos, seconds.
    pub healthy_run_s: f64,
    /// Seconds spent writing checkpoints.
    pub checkpoint_overhead_s: f64,
    /// Seconds of computed-then-discarded work replayed after crashes.
    pub lost_work_s: f64,
    /// Seconds spent detecting failures and restoring checkpoints.
    pub recovery_overhead_s: f64,
    /// One-time link-outage seconds (partition windows, reconnects) from
    /// the plan's mirrored network chaos.
    pub net_outage_s: f64,
    /// Total run time including all overheads, seconds.
    pub run_s: f64,
    /// Survived crashes, in tick order.
    pub crashes: Vec<CrashRecord>,
}

impl RecoveryAccounting {
    /// Amortized per-iteration time including fault overheads, seconds.
    pub fn effective_iter_time_s(&self) -> f64 {
        self.run_s / self.run_iterations.max(1) as f64
    }

    /// Run-time inflation relative to the fault-free run (`≥ 1`).
    pub fn slowdown(&self) -> f64 {
        self.run_s / self.healthy_run_s
    }

    /// Effective training throughput in samples/s given the mini-batch
    /// `b_hat` consumed per iteration.
    pub fn effective_throughput(&self, b_hat: u64) -> f64 {
        b_hat as f64 / self.effective_iter_time_s()
    }

    /// Fault timeline as trace events under process group `pid`: for every
    /// crash a `Fault` instant on the crashed worker's track followed by
    /// `Detect`, `Restore` and `Replay` spans — appended after the healthy
    /// timeline by [`SimReport::to_trace`].
    pub fn trace_events(&self, pid: u32) -> Vec<Event> {
        let mut out = Vec::new();
        let mut shift = 0u64;
        for c in &self.crashes {
            let track = c.worker;
            let at = c.at_ns + shift;
            let span = |kind, name: &str, start: u64, dur: u64| {
                Event::Span(SpanEvent {
                    kind,
                    name: name.to_string(),
                    pid,
                    track,
                    start_ns: start,
                    dur_ns: dur,
                    stage: None,
                    replica: None,
                    micro: None,
                    bytes: None,
                })
            };
            out.push(span(
                SpanKind::Fault,
                &format!("crash w{}", c.worker),
                at,
                0,
            ));
            out.push(span(SpanKind::Detect, "detect", at, c.detect_ns));
            out.push(span(
                SpanKind::Restore,
                "restore checkpoint",
                at + c.detect_ns,
                c.restore_ns,
            ));
            out.push(span(
                SpanKind::Replay,
                &format!("replay {:.3}s", SimCostModel::seconds(c.lost_ns)),
                at + c.detect_ns + c.restore_ns,
                c.lost_ns,
            ));
            shift += c.overhead_ns();
        }
        out
    }
}

impl serde::Serialize for RecoveryAccounting {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("RecoveryAccounting", 11)?;
        st.serialize_field("run_iterations", &self.run_iterations)?;
        st.serialize_field("checkpoint_every", &self.checkpoint_every)?;
        st.serialize_field("checkpoints", &self.checkpoints)?;
        st.serialize_field("healthy_run_s", &self.healthy_run_s)?;
        st.serialize_field("checkpoint_overhead_s", &self.checkpoint_overhead_s)?;
        st.serialize_field("lost_work_s", &self.lost_work_s)?;
        st.serialize_field("recovery_overhead_s", &self.recovery_overhead_s)?;
        st.serialize_field("net_outage_s", &self.net_outage_s)?;
        st.serialize_field("run_s", &self.run_s)?;
        st.serialize_field("effective_iter_time_s", &self.effective_iter_time_s())?;
        st.serialize_field("crashes", &self.crashes)?;
        st.end()
    }
}

/// Simulate `run_iterations` training iterations of `sched` under the faults
/// of `plan` and the recovery costs of `recovery`.
///
/// The schedule is executed once with the plan's network chaos on its links
/// to obtain the per-iteration time (a slowed link shifts the critical path
/// organically); crashes, checkpoints and link outages are then accounted
/// analytically on top: every crash costs detection + restore + replay of
/// all work since the last checkpoint. The returned report is the chaotic
/// single-iteration report with [`SimReport::recovery`] populated.
///
/// Deterministic: identical inputs produce bit-identical reports.
pub fn simulate_faulty(
    sched: &Schedule,
    cost: &SimCostModel,
    plan: &FaultPlan,
    recovery: &RecoveryModel,
    run_iterations: u32,
) -> Result<SimReport, ExecError> {
    let chaotic = ChaoticLinks { base: cost, plan };
    let timeline = execute_span(sched, &chaotic, 1)?;
    let mut rep = SimReport::from_timeline(timeline, 1);

    let iter_ns = rep.timeline.makespan.max(1);
    let healthy_ns = iter_ns * run_iterations as u64;
    let every = recovery.checkpoint_every;
    let checkpoints = run_iterations.checked_div(every).unwrap_or(0);
    let ckpt_overhead_ns = checkpoints as u64 * SimCostModel::ticks(recovery.checkpoint_s);

    let detect_ns = SimCostModel::ticks(recovery.detect_s);
    let restore_ns = SimCostModel::ticks(recovery.restore_s);
    let mut scheduled = plan.crashes.clone();
    scheduled.sort_by_key(|&(_, t)| t);
    let mut crashes = Vec::new();
    for (worker, at) in scheduled {
        // Clamp into the run; a crash scheduled past the end never fires.
        if at >= healthy_ns {
            continue;
        }
        let iteration = (at / iter_ns) as u32;
        let last_ckpt_iter = iteration.checked_div(every).map_or(0, |q| q * every);
        let lost_ns = at - last_ckpt_iter as u64 * iter_ns;
        crashes.push(CrashRecord {
            worker,
            iteration,
            at_ns: at,
            lost_ns,
            detect_ns,
            restore_ns,
        });
    }

    let lost_total: u64 = crashes.iter().map(|c| c.lost_ns).sum();
    let recover_total: u64 = crashes.iter().map(|c| c.detect_ns + c.restore_ns).sum();
    let outage_ns = SimCostModel::ticks(plan.outage_s());
    let run_ns = healthy_ns + ckpt_overhead_ns + lost_total + recover_total + outage_ns;
    rep.recovery = Some(RecoveryAccounting {
        run_iterations,
        checkpoint_every: every,
        checkpoints,
        healthy_run_s: SimCostModel::seconds(healthy_ns),
        checkpoint_overhead_s: SimCostModel::seconds(ckpt_overhead_ns),
        lost_work_s: SimCostModel::seconds(lost_total),
        recovery_overhead_s: SimCostModel::seconds(recover_total),
        net_outage_s: SimCostModel::seconds(outage_ns),
        run_s: SimCostModel::seconds(run_ns),
        crashes,
    });
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::AllReduceAlgo;
    use crate::cost::StageCosts;
    use crate::engine::simulate;
    use crate::network::{NetworkModel, Topology};
    use chimera_core::chimera::{chimera, ChimeraConfig};
    use chimera_core::ids::{MicroId, ReplicaId};

    fn cost(d: u32) -> SimCostModel {
        SimCostModel {
            stages: vec![
                StageCosts {
                    fwd_s: 10e-3,
                    bwd_s: 20e-3,
                    recompute_s: 10e-3,
                    boundary_bytes: 4 << 20,
                    act_bytes: 64 << 20,
                    param_bytes: 80 << 20,
                    grad_opt_bytes: 160 << 20,
                };
                d as usize
            ],
            network: NetworkModel::cray_aries(),
            topology: Topology::one_per_node(d),
            allreduce_participants: 16,
            allreduce_algo: AllReduceAlgo::Rabenseifner,
            allreduce_beta_factor: 1.0,
            launch_overhead_s: 0.2e-3,
            half_chunk_penalty: 1.15,
            comm_compute_interference: 0.0,
            p2p_host_overhead_s: 0.0,
            p2p_host_s_per_byte: 0.0,
        }
    }

    fn recovery(every: u32) -> RecoveryModel {
        RecoveryModel {
            detect_s: 0.5,
            restore_s: 2.0,
            checkpoint_s: 0.25,
            checkpoint_every: every,
        }
    }

    /// The chaos of the tests below on one link: every `NetChaos` knob the
    /// mirror reads.
    fn every_knob(rto_s: f64) -> FaultPlan {
        let chaos = chimera_comm::NetChaos::new(7)
            .with_flaky(0.2)
            .with_duplicate(0.1)
            .with_reorder(0.1)
            .with_slow(std::time::Duration::from_millis(1))
            .with_partition(30, 10)
            .with_break_at(50);
        FaultPlan::default().net_chaos(0, 1, &chaos, rto_s)
    }

    #[test]
    fn a_plan_simulates_bit_identically() {
        let d = 4;
        let sched = chimera(&ChimeraConfig::new(d, d)).unwrap();
        let c = cost(d);
        let plan = every_knob(0.1).crash_at(2, 300_000_000);
        let a = simulate_faulty(&sched, &c, &plan, &recovery(2), 16).unwrap();
        let b = simulate_faulty(&sched, &c, &plan, &recovery(2), 16).unwrap();
        let bits = |r: &SimReport| {
            let floats = [r.span_s, r.iter_time_s, r.bubble_ratio].into_iter();
            floats
                .chain(r.busy_s.iter().copied())
                .map(f64::to_bits)
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.timeline.spans, b.timeline.spans);
        let (ra, rb) = (a.recovery.unwrap(), b.recovery.unwrap());
        assert_eq!(ra, rb);
        assert_eq!(ra.run_s.to_bits(), rb.run_s.to_bits());
        assert_eq!(ra.crashes.len(), 1);
    }

    /// Chaos on `0 → 1` slows messages on that link only: the span
    /// stretches, no worker computes longer, and `1 → 0` keeps its delay.
    #[test]
    fn link_chaos_delays_messages_and_nothing_else() {
        let d = 4;
        let c = cost(d);
        let sched = chimera(&ChimeraConfig::new(d, d)).unwrap();
        let plan = every_knob(0.1);
        let healthy = simulate(&sched, &c).unwrap();
        let chaotic = simulate_faulty(&sched, &c, &plan, &recovery(0), 1).unwrap();
        assert!(
            chaotic.span_s > healthy.span_s,
            "chaos {} vs healthy {}",
            chaotic.span_s,
            healthy.span_s
        );
        assert_eq!(chaotic.timeline.busy, healthy.timeline.busy);
        let p = ChaoticLinks {
            base: &c,
            plan: &plan,
        };
        let fwd = Op::forward(MicroId(0), StageId(1), ReplicaId(0));
        assert!(
            p.p2p_delay(WorkerId(0), WorkerId(1), &fwd)
                > c.p2p_delay(WorkerId(0), WorkerId(1), &fwd)
        );
        let bwd = Op::backward(MicroId(0), StageId(0), ReplicaId(0));
        assert_eq!(
            p.p2p_delay(WorkerId(1), WorkerId(0), &bwd),
            c.p2p_delay(WorkerId(1), WorkerId(0), &bwd)
        );
    }

    #[test]
    fn crash_accounting_matches_the_cadence() {
        let d = 4;
        let c = cost(d);
        let sched = chimera(&ChimeraConfig::new(d, d)).unwrap();
        let healthy = simulate(&sched, &c).unwrap();
        let iter_ns = healthy.timeline.makespan;
        // Crash in the middle of iteration 5 with checkpoints every 2
        // iterations: the last checkpoint is at iteration 4.
        let at = 5 * iter_ns + iter_ns / 2;
        let plan = FaultPlan::default().crash_at(1, at);
        let rec = recovery(2);
        let rep = simulate_faulty(&sched, &c, &plan, &rec, 8).unwrap();
        let acc = rep.recovery.unwrap();
        assert_eq!(acc.crashes.len(), 1);
        let crash = &acc.crashes[0];
        assert_eq!(crash.worker, 1);
        assert_eq!(crash.iteration, 5);
        assert_eq!(crash.lost_ns, iter_ns + iter_ns / 2);
        assert_eq!(acc.checkpoints, 4);
        let expected_run = SimCostModel::seconds(
            8 * iter_ns + 4 * SimCostModel::ticks(rec.checkpoint_s) + crash.overhead_ns(),
        );
        assert!((acc.run_s - expected_run).abs() < 1e-12);
        assert!(acc.slowdown() > 1.0);
        assert!(acc.effective_throughput(512) < healthy.throughput(512));
    }

    #[test]
    fn denser_checkpoints_trade_lost_work_for_overhead() {
        let d = 4;
        let c = cost(d);
        let sched = chimera(&ChimeraConfig::new(d, d)).unwrap();
        let iter_ns = simulate(&sched, &c).unwrap().timeline.makespan;
        let plan = FaultPlan::default().crash_at(0, 7 * iter_ns + 1);
        let dense = simulate_faulty(&sched, &c, &plan, &recovery(1), 8)
            .unwrap()
            .recovery
            .unwrap();
        let sparse = simulate_faulty(&sched, &c, &plan, &recovery(4), 8)
            .unwrap()
            .recovery
            .unwrap();
        assert!(dense.lost_work_s < sparse.lost_work_s);
        assert!(dense.checkpoint_overhead_s > sparse.checkpoint_overhead_s);
    }

    /// The transport chaos mirror: bandwidth inflation from loss and
    /// duplication, expected RTO stalls from loss/reorder/slow links, and
    /// one-time outage charges for partition windows and socket breaks —
    /// only on the chaotic link, and visible in the run accounting.
    #[test]
    fn net_chaos_mirror_inflates_links_and_accounts_outages() {
        let d = 4;
        let c = cost(d);
        let sched = chimera(&ChimeraConfig::new(d, d)).unwrap();
        let rto = 0.1;
        let plan = every_knob(rto);
        let (factor, delay_s) = plan.link(0, 1);
        // Bandwidth inflation: retransmits 1/(1-p), duplicates 1+p.
        assert!((factor - 1.1 / 0.8).abs() < 1e-12);
        // Expected stalls: flaky p·rto, reorder p·rto/2, slow d.
        let want = 0.2 * rto + 0.1 * rto / 2.0 + 1e-3;
        assert!((delay_s - want).abs() < 1e-12);
        // The reverse link is untouched.
        assert_eq!(plan.link(1, 0), (1.0, 0.0));
        // Outages: the partition window plus one reconnect.
        assert!((plan.outage_s() - 11.0 * rto).abs() < 1e-12);
        // Mirrored chaos stretches both the iteration and the run.
        let healthy = simulate(&sched, &c).unwrap();
        let rep = simulate_faulty(&sched, &c, &plan, &recovery(2), 8).unwrap();
        assert!(
            rep.span_s > healthy.span_s,
            "chaotic link off critical path"
        );
        let acc = rep.recovery.unwrap();
        assert!((acc.net_outage_s - plan.outage_s()).abs() < 1e-9);
        assert!(acc.slowdown() > 1.0);
    }

    #[test]
    fn crash_past_the_run_never_fires() {
        let d = 4;
        let c = cost(d);
        let sched = chimera(&ChimeraConfig::new(d, d)).unwrap();
        let plan = FaultPlan::default().crash_at(3, u64::MAX);
        let acc = simulate_faulty(&sched, &c, &plan, &recovery(1), 2)
            .unwrap()
            .recovery
            .unwrap();
        assert!(acc.crashes.is_empty());
        assert_eq!(acc.lost_work_s, 0.0);
    }

    #[test]
    fn mtbf_throughput_is_monotonic_and_below_fault_free() {
        let d = 4;
        let c = cost(d);
        let sched = chimera(&ChimeraConfig::new(d, d)).unwrap();
        let rep = simulate(&sched, &c).unwrap();
        let rec = recovery(4);
        let t1 = rep.effective_throughput_under_mtbf(512, 3600.0, &rec);
        let t2 = rep.effective_throughput_under_mtbf(512, 36_000.0, &rec);
        let t3 = rep.effective_throughput_under_mtbf(512, 360_000.0, &rec);
        assert!(t1 < t2 && t2 < t3, "{t1} {t2} {t3}");
        assert!(t3 < rep.throughput(512));
    }

    #[test]
    fn recovery_spans_appear_in_the_trace() {
        let d = 4;
        let c = cost(d);
        let sched = chimera(&ChimeraConfig::new(d, d)).unwrap();
        let iter_ns = simulate(&sched, &c).unwrap().timeline.makespan;
        let plan = FaultPlan::default()
            .crash_at(2, iter_ns / 2)
            .crash_at(0, 3 * iter_ns);
        let rep = simulate_faulty(&sched, &c, &plan, &recovery(1), 4).unwrap();
        let events = rep.to_trace();
        for kind in [
            SpanKind::Fault,
            SpanKind::Detect,
            SpanKind::Restore,
            SpanKind::Replay,
        ] {
            assert_eq!(
                events
                    .iter()
                    .filter(|e| matches!(e, Event::Span(s) if s.kind == kind))
                    .count(),
                2,
                "expected two {kind:?} spans"
            );
        }
        // Fault instants sit on the crashed workers' tracks, and the Chrome
        // export carries them through.
        let faults: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span(s) if s.kind == SpanKind::Fault => Some(s.track),
                _ => None,
            })
            .collect();
        assert_eq!(faults, vec![2, 0]);
        let doc = chimera_trace::chrome_trace_json(&events, &[(0, "faulty")]);
        let cats: Vec<&str> = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|e| e["cat"].as_str())
            .collect();
        for cat in ["fault", "detect", "restore", "replay"] {
            assert!(cats.contains(&cat), "no {cat} events in Chrome export");
        }
    }

    #[test]
    fn report_serializes_recovery_section() {
        let d = 4;
        let c = cost(d);
        let sched = chimera(&ChimeraConfig::new(d, d)).unwrap();
        let iter_ns = simulate(&sched, &c).unwrap().timeline.makespan;
        let plan = FaultPlan::default().crash_at(1, 2 * iter_ns + 5);
        let rep = simulate_faulty(&sched, &c, &plan, &recovery(2), 4).unwrap();
        let v = serde_json::to_value(&rep).unwrap();
        assert_eq!(v["recovery"]["run_iterations"].as_u64().unwrap(), 4);
        assert_eq!(v["recovery"]["crashes"].as_array().unwrap().len(), 1);
        assert_eq!(v["recovery"]["crashes"][0]["worker"].as_u64().unwrap(), 1);
        assert!(v["recovery"]["effective_iter_time_s"].as_f64().unwrap() > 0.0);
        // Healthy reports keep the field null.
        let healthy = serde_json::to_value(simulate(&sched, &c).unwrap()).unwrap();
        assert!(healthy["recovery"].is_null());
    }
}
