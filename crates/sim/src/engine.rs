//! Top-level simulation entry points.

use chimera_core::op::OpKind;
use chimera_core::schedule::Schedule;
use chimera_core::unit_time::{execute_span, ExecError, Timeline};
use chimera_trace::Event;

use crate::cost::SimCostModel;
use crate::fault::{RecoveryAccounting, RecoveryModel};

/// Result of simulating one schedule under a cost model.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Wall-clock time of the simulated span, seconds.
    pub span_s: f64,
    /// Per-iteration time, seconds (`span_s / iterations`).
    pub iter_time_s: f64,
    /// Bubble ratio (idle fraction averaged over workers).
    pub bubble_ratio: f64,
    /// Compute-busy seconds per worker.
    pub busy_s: Vec<f64>,
    /// The executed timeline (tick = 1 ns).
    pub timeline: Timeline,
    /// Fault and recovery accounting, populated by
    /// [`crate::fault::simulate_faulty`] (`None` for fault-free runs).
    pub recovery: Option<RecoveryAccounting>,
}

impl SimReport {
    /// The fault-free report of an executed `timeline` (tick = 1 ns) covering
    /// `iterations` iterations.
    pub(crate) fn from_timeline(timeline: Timeline, iterations: u32) -> Self {
        let span_s = SimCostModel::seconds(timeline.makespan);
        SimReport {
            span_s,
            iter_time_s: span_s / iterations as f64,
            bubble_ratio: timeline.bubble_ratio(),
            busy_s: timeline
                .busy
                .iter()
                .map(|&b| SimCostModel::seconds(b))
                .collect(),
            timeline,
            recovery: None,
        }
    }

    /// Training throughput in samples/s for the whole job, given the
    /// mini-batch size `b_hat` consumed per iteration (across all `W`
    /// data-parallel groups).
    pub fn throughput(&self, b_hat: u64) -> f64 {
        b_hat as f64 / self.iter_time_s
    }

    /// The executed timeline as trace events: one track per worker, one span
    /// per op plus explicit idle spans, ready for
    /// [`chimera_trace::write_chrome_trace`] or [`chimera_trace::write_jsonl`].
    /// Faulty runs additionally carry crash/detect/restore/replay spans.
    pub fn to_trace(&self) -> Vec<Event> {
        let mut events = crate::trace::timeline_events(&self.timeline, 0);
        if let Some(acc) = &self.recovery {
            events.extend(acc.trace_events(0));
        }
        events
    }

    /// Expected training throughput in samples/s when workers fail with mean
    /// time between failures `mtbf_s`, surviving via the checkpoint-restart
    /// scheme of `recovery`: each iteration pays its share of the checkpoint
    /// cadence, and each failure costs detection, restore, and the expected
    /// half-interval of replayed work.
    pub fn effective_throughput_under_mtbf(
        &self,
        b_hat: u64,
        mtbf_s: f64,
        recovery: &RecoveryModel,
    ) -> f64 {
        assert!(mtbf_s > 0.0, "MTBF must be positive");
        let ckpt_frac =
            recovery.checkpoint_s / (recovery.checkpoint_every.max(1) as f64 * self.iter_time_s);
        let fail_frac = recovery.expected_failure_overhead_s(self.iter_time_s) / mtbf_s;
        self.throughput(b_hat) / (1.0 + ckpt_frac + fail_frac)
    }

    /// Where the span's time went, per worker and in total.
    pub fn breakdown(&self) -> Breakdown {
        let mut workers = Vec::with_capacity(self.timeline.spans.len());
        for (w, spans) in self.timeline.spans.iter().enumerate() {
            let mut wb = WorkerBreakdown {
                worker: w as u32,
                forward_s: 0.0,
                backward_s: 0.0,
                sync_s: 0.0,
                idle_s: 0.0,
            };
            let mut occupied = 0u64;
            for s in spans {
                let dur = s.finish - s.start;
                occupied += dur;
                let secs = SimCostModel::seconds(dur);
                match s.op.kind {
                    OpKind::Forward => wb.forward_s += secs,
                    OpKind::Backward { .. } => wb.backward_s += secs,
                    OpKind::AllReduceLaunch | OpKind::AllReduceWait => wb.sync_s += secs,
                }
            }
            wb.idle_s = SimCostModel::seconds(self.timeline.makespan - occupied);
            workers.push(wb);
        }
        Breakdown {
            makespan_s: self.span_s,
            workers,
        }
    }
}

/// Per-worker split of one worker's span time (seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerBreakdown {
    /// Worker index within the pipeline group.
    pub worker: u32,
    /// Seconds spent in forward passes.
    pub forward_s: f64,
    /// Seconds spent in backward passes (including recomputation).
    pub backward_s: f64,
    /// Seconds spent in gradient-sync ops (allreduce launches and waits).
    pub sync_s: f64,
    /// Seconds the worker sat idle within the makespan.
    pub idle_s: f64,
}

/// Where a simulated span's time went (see [`SimReport::breakdown`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Wall-clock span, seconds.
    pub makespan_s: f64,
    /// One entry per worker.
    pub workers: Vec<WorkerBreakdown>,
}

impl serde::Serialize for WorkerBreakdown {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("WorkerBreakdown", 5)?;
        st.serialize_field("worker", &self.worker)?;
        st.serialize_field("forward_s", &self.forward_s)?;
        st.serialize_field("backward_s", &self.backward_s)?;
        st.serialize_field("sync_s", &self.sync_s)?;
        st.serialize_field("idle_s", &self.idle_s)?;
        st.end()
    }
}

impl serde::Serialize for Breakdown {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("Breakdown", 2)?;
        st.serialize_field("makespan_s", &self.makespan_s)?;
        st.serialize_field("workers", &self.workers)?;
        st.end()
    }
}

/// Serializes every summary field; the raw `timeline` is deliberately
/// omitted (export it separately via [`SimReport::to_trace`]).
impl serde::Serialize for SimReport {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut st = serializer.serialize_struct("SimReport", 5)?;
        st.serialize_field("span_s", &self.span_s)?;
        st.serialize_field("iter_time_s", &self.iter_time_s)?;
        st.serialize_field("bubble_ratio", &self.bubble_ratio)?;
        st.serialize_field("busy_s", &self.busy_s)?;
        st.serialize_field("recovery", &self.recovery)?;
        st.end()
    }
}

/// Simulate a single iteration of `sched` under `cost`.
pub fn simulate(sched: &Schedule, cost: &SimCostModel) -> Result<SimReport, ExecError> {
    simulate_span(sched, cost, 1)
}

/// Simulate a schedule that covers `iterations` training iterations (e.g. an
/// unrolled steady-state schedule of an asynchronous scheme) and report the
/// amortized per-iteration time.
///
/// Fails with [`ExecError::InvalidIterations`] when `iterations` is zero or
/// does not divide the schedule's micro-batch total, and with
/// [`ExecError::InconsistentSpan`] when some stage's op count cannot cover
/// the claimed span, and with [`ExecError::OutOfRange`] when an op names ids
/// outside the schedule.
pub fn simulate_span(
    sched: &Schedule,
    cost: &SimCostModel,
    iterations: u32,
) -> Result<SimReport, ExecError> {
    let timeline = execute_span(sched, cost, iterations)?;
    Ok(SimReport::from_timeline(timeline, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::AllReduceAlgo;
    use crate::cost::StageCosts;
    use crate::network::{NetworkModel, Topology};
    use chimera_core::baselines::{dapple, gems, gpipe, pipedream_2bw_steady, pipedream_steady};
    use chimera_core::chimera::{chimera, ChimeraConfig};
    use chimera_core::schedule::SyncStrategy;
    use chimera_core::sync::place_sync;
    use chimera_core::unit_time::UnitCosts;

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

    /// Chimera beats DAPPLE and GPipe per iteration for N = D (the paper's
    /// central performance claim, driven by the halved bubble count).
    #[test]
    fn chimera_fastest_synchronous_at_n_eq_d() {
        let d = 8;
        let n = 8;
        let c = cost(d);
        let chim = simulate(
            &place_sync(
                chimera(&ChimeraConfig::new(d, n)).unwrap(),
                SyncStrategy::EagerOpt,
                UnitCosts::practical(),
            ),
            &c,
        )
        .unwrap();
        let dap = simulate(
            &place_sync(dapple(d, n), SyncStrategy::EagerOpt, UnitCosts::practical()),
            &c,
        )
        .unwrap();
        let gp = simulate(
            &place_sync(gpipe(d, n), SyncStrategy::EagerOpt, UnitCosts::practical()),
            &c,
        )
        .unwrap();
        let gm = simulate(
            &place_sync(gems(d, n), SyncStrategy::EagerOpt, UnitCosts::practical()),
            &c,
        )
        .unwrap();
        assert!(
            chim.iter_time_s < dap.iter_time_s,
            "{} vs DAPPLE {}",
            chim.iter_time_s,
            dap.iter_time_s
        );
        assert!(chim.iter_time_s < gp.iter_time_s);
        assert!(chim.iter_time_s < gm.iter_time_s);
        // GEMS is the slowest synchronous scheme (highest bubble ratio).
        assert!(gm.iter_time_s > dap.iter_time_s);
    }

    /// Asynchronous PipeDream-2BW approaches the bubble-free iteration time;
    /// Chimera comes close (Fig. 14/15 show them within ~1.2x).
    #[test]
    fn chimera_close_to_async_steady_state() {
        let d = 4;
        let n = 4;
        let iters = 8;
        let c = cost(d);
        let bw = simulate_span(&pipedream_2bw_steady(d, n, iters), &c, iters).unwrap();
        let chim = simulate(
            &place_sync(
                chimera(&ChimeraConfig::new(d, n)).unwrap(),
                SyncStrategy::EagerOpt,
                UnitCosts::practical(),
            ),
            &c,
        )
        .unwrap();
        assert!(chim.iter_time_s < 1.6 * bw.iter_time_s);
    }

    /// PipeDream's per-micro blocking sync makes it slower than 2BW.
    #[test]
    fn per_micro_sync_hurts_pipedream() {
        let d = 4;
        let n = 4;
        let iters = 8;
        let c = cost(d);
        let pd = simulate_span(&pipedream_steady(d, n, iters), &c, iters).unwrap();
        let bw = simulate_span(&pipedream_2bw_steady(d, n, iters), &c, iters).unwrap();
        assert!(pd.iter_time_s > bw.iter_time_s);
    }

    #[test]
    fn throughput_helper() {
        let d = 4;
        let c = cost(d);
        let rep = simulate(&dapple(d, 4), &c).unwrap();
        let thr = rep.throughput(512);
        assert!((thr - 512.0 / rep.iter_time_s).abs() < 1e-9);
    }

    /// The bare-assert panic path is gone: bad spans are descriptive errors.
    #[test]
    fn simulate_span_rejects_invalid_spans() {
        let d = 4;
        let c = cost(d);
        let sched = dapple(d, 4);
        assert!(matches!(
            simulate_span(&sched, &c, 0),
            Err(ExecError::InvalidIterations { iterations: 0, .. })
        ));
        assert!(matches!(
            simulate_span(&sched, &c, 3),
            Err(ExecError::InvalidIterations { iterations: 3, .. })
        ));
        // Truncating a worker's ops makes the span inconsistent.
        let mut broken = dapple(d, 4);
        broken.workers[0].pop();
        assert!(matches!(
            simulate_span(&broken, &c, 1),
            Err(ExecError::InconsistentSpan { .. })
        ));
        // All generator schedules pass the check.
        for iters in [1u32, 2, 4] {
            assert!(simulate_span(&pipedream_steady(d, 4, iters), &c, iters).is_ok());
        }
    }

    #[test]
    fn report_serializes_without_timeline() {
        let d = 4;
        let c = cost(d);
        let rep = simulate(&dapple(d, 4), &c).unwrap();
        let v = serde_json::to_value(&rep).unwrap();
        assert_eq!(v["span_s"].as_f64().unwrap(), rep.span_s);
        assert_eq!(v["busy_s"].as_array().unwrap().len(), rep.busy_s.len());
        assert!(v.get("timeline").is_none());
        // And round-trips through text.
        let text = serde_json::to_string(&v).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["bubble_ratio"].as_f64().unwrap(), rep.bubble_ratio);
    }

    #[test]
    fn breakdown_accounts_for_the_whole_span() {
        let d = 4;
        let c = cost(d);
        let rep = simulate(&dapple(d, 4), &c).unwrap();
        let bd = rep.breakdown();
        assert_eq!(bd.workers.len(), d as usize);
        for wb in &bd.workers {
            let total = wb.forward_s + wb.backward_s + wb.sync_s + wb.idle_s;
            assert!(
                (total - bd.makespan_s).abs() < 1e-9,
                "worker {}: {total} vs {}",
                wb.worker,
                bd.makespan_s
            );
        }
        // Serializes with per-worker entries.
        let v = serde_json::to_value(&bd).unwrap();
        assert_eq!(v["workers"].as_array().unwrap().len(), d as usize);
        assert!(v["workers"][0]["forward_s"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn trace_export_matches_timeline() {
        let d = 4;
        let c = cost(d);
        let rep = simulate(&dapple(d, 4), &c).unwrap();
        let events = rep.to_trace();
        let total_ops: usize = rep.timeline.spans.iter().map(Vec::len).sum();
        assert!(events.len() >= total_ops);
    }

    /// Eager-opt is at least as fast as plain eager (Fig. 12: middle-stage
    /// eager launches cost overhead without overlap benefit).
    #[test]
    fn eager_opt_not_slower_than_eager() {
        let d = 8;
        let c = cost(d);
        let base = chimera(&ChimeraConfig::new(d, d)).unwrap();
        let eager = simulate(
            &place_sync(base.clone(), SyncStrategy::Eager, UnitCosts::practical()),
            &c,
        )
        .unwrap();
        let opt = simulate(
            &place_sync(base, SyncStrategy::EagerOpt, UnitCosts::practical()),
            &c,
        )
        .unwrap();
        assert!(opt.iter_time_s <= eager.iter_time_s + 1e-9);
    }
}
