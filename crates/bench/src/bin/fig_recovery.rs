//! Recovery overhead vs checkpoint cadence: how much run time a mid-run
//! worker crash costs under checkpoint-restart, for Bert-48 pipelines of
//! D ∈ {4, 8}. Dense checkpoints shrink the replayed work but pay their
//! save cost every cadence; the sweep exposes the trade-off the runtime's
//! `checkpoint_every` knob controls. Also reports the expected sustained
//! throughput when failures arrive at a 6-hour MTBF.
//!
//! Also sweeps the self-healing transport's seeded network-chaos plans
//! through their analytic mirror ([`FaultPlan::net_chaos`]): flaky, slow,
//! partitioned and breaking links on the stage-0 → stage-1 boundary, with
//! the predicted reconnect/retransmit overhead written to
//! `results/chaos_overhead.json`.
//!
//! `--trace <path>` additionally writes a Chrome trace of the D = 4,
//! cadence-4 faulty run (crash, detect, restore and replay spans visible
//! on the crashed worker's track).

use std::time::Duration;

use chimera_bench::{arg_value, print_table, save_json};
use chimera_comm::NetChaos;
use chimera_core::chimera::{chimera, ChimeraConfig};
use chimera_core::schedule::SyncStrategy;
use chimera_core::sync::place_sync;
use chimera_core::unit_time::UnitCosts;
use chimera_perf::{ClusterSpec, ModelSpec, TrainConfig};
use chimera_sim::{simulate, simulate_faulty, FaultPlan, RecoveryModel};

fn main() {
    let model = ModelSpec::bert48();
    let cluster = ClusterSpec::piz_daint();
    let b = 8u32;
    let run_iterations = 32u32;
    let mtbf_s = 6.0 * 3600.0;
    let trace_path = arg_value("--trace");
    let mut trace_doc = None;
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for d in [4u32, 8] {
        let (p, b_hat) = (4 * d as u64, 256 * d as u64);
        let w = p as u32 / d;
        let n = (b_hat / (w as u64 * b as u64)) as u32;
        let sched = place_sync(
            chimera(&ChimeraConfig::new(d, n)).unwrap(),
            SyncStrategy::EagerOpt,
            UnitCosts::practical(),
        );
        let cost = TrainConfig {
            model,
            cluster,
            d,
            w,
            b,
            stage_replicas: 2,
        }
        .cost_model();
        let healthy = simulate(&sched, &cost).expect("simulates");
        let iter_ns = healthy.timeline.makespan;
        // One crash at ~60% of the run, landing mid-iteration.
        let crash_tick = (run_iterations as u64 * 6 / 10) * iter_ns + iter_ns / 3;
        let plan = FaultPlan::default().crash_at(1, crash_tick);
        for every in [1u32, 2, 4, 8] {
            let recovery = RecoveryModel {
                detect_s: 5.0,
                restore_s: 20.0,
                checkpoint_s: 2.0,
                checkpoint_every: every,
            };
            let rep = simulate_faulty(&sched, &cost, &plan, &recovery, run_iterations)
                .expect("simulates");
            if trace_path.is_some() && d == 4 && every == 4 {
                trace_doc = Some(rep.to_trace());
            }
            let mtbf_tput = rep.effective_throughput_under_mtbf(b_hat, mtbf_s, &recovery);
            let acc = rep.recovery.as_ref().expect("faulty run accounts recovery");
            rows.push(vec![
                d.to_string(),
                every.to_string(),
                format!("{:.2}", acc.healthy_run_s),
                format!("{:.2}", acc.checkpoint_overhead_s),
                format!("{:.2}", acc.lost_work_s),
                format!("{:.2}", acc.recovery_overhead_s),
                format!("{:.2}", acc.run_s),
                format!("{:.3}x", acc.slowdown()),
                format!("{:.1}", mtbf_tput),
            ]);
            json.push(serde_json::json!({
                "d": d,
                "checkpoint_every": every,
                "run_iterations": run_iterations,
                "healthy_run_s": acc.healthy_run_s,
                "checkpoint_overhead_s": acc.checkpoint_overhead_s,
                "lost_work_s": acc.lost_work_s,
                "recovery_overhead_s": acc.recovery_overhead_s,
                "run_s": acc.run_s,
                "slowdown": acc.slowdown(),
                "effective_throughput": acc.effective_throughput(b_hat),
                "throughput_at_6h_mtbf": mtbf_tput,
            }));
        }
    }
    print_table(
        "Recovery overhead vs checkpoint cadence, Bert-48, one crash at 60% of a 32-iteration run",
        &[
            "D",
            "ckpt every",
            "healthy s",
            "ckpt s",
            "lost s",
            "recover s",
            "total s",
            "slowdown",
            "tput@6h MTBF",
        ],
        &rows,
    );
    save_json("recovery_overhead", serde_json::json!(json));

    // Network-chaos overhead: each seeded transport plan, mirrored onto the
    // stage-0 → stage-1 link, vs the healthy run. `rto` matches the session
    // layer's default retransmit timeout.
    let rto_s = 0.1;
    let scenarios: Vec<(&str, NetChaos)> = vec![
        ("flaky-1pct", NetChaos::new(0xC2).with_flaky(0.01)),
        ("flaky-5pct", NetChaos::new(0xC2).with_flaky(0.05)),
        (
            "slow-1ms",
            NetChaos::new(0xC2).with_slow(Duration::from_millis(1)),
        ),
        ("partition-64", NetChaos::new(0xC2).with_partition(128, 64)),
        ("break-once", NetChaos::new(0xC2).with_break_at(256)),
        (
            "lossy-mix",
            NetChaos::new(0xC2)
                .with_flaky(0.02)
                .with_duplicate(0.02)
                .with_reorder(0.02),
        ),
    ];
    let mut chaos_rows = Vec::new();
    let mut chaos_json = Vec::new();
    for d in [4u32, 8] {
        let (p, b_hat) = (4 * d as u64, 256 * d as u64);
        let w = p as u32 / d;
        let n = (b_hat / (w as u64 * b as u64)) as u32;
        let sched = place_sync(
            chimera(&ChimeraConfig::new(d, n)).unwrap(),
            SyncStrategy::EagerOpt,
            UnitCosts::practical(),
        );
        let cost = TrainConfig {
            model,
            cluster,
            d,
            w,
            b,
            stage_replicas: 2,
        }
        .cost_model();
        let healthy = simulate(&sched, &cost).expect("simulates");
        let recovery = RecoveryModel {
            detect_s: 5.0,
            restore_s: 20.0,
            checkpoint_s: 2.0,
            checkpoint_every: 4,
        };
        for (name, chaos) in &scenarios {
            let plan = FaultPlan::default().net_chaos(0, 1, chaos, rto_s);
            let rep = simulate_faulty(&sched, &cost, &plan, &recovery, run_iterations)
                .expect("simulates");
            let acc = rep
                .recovery
                .as_ref()
                .expect("chaotic run accounts recovery");
            let iter_overhead = rep.iter_time_s / healthy.iter_time_s - 1.0;
            chaos_rows.push(vec![
                d.to_string(),
                (*name).to_string(),
                format!("{:.4}", healthy.iter_time_s),
                format!("{:.4}", rep.iter_time_s),
                format!("{:.2}%", 100.0 * iter_overhead),
                format!("{:.2}", acc.net_outage_s),
                format!(
                    "{:.3}x",
                    acc.run_s / (healthy.iter_time_s * run_iterations as f64)
                ),
            ]);
            chaos_json.push(serde_json::json!({
                "d": d,
                "scenario": name,
                "rto_s": rto_s,
                "healthy_iter_s": healthy.iter_time_s,
                "chaotic_iter_s": rep.iter_time_s,
                "iter_overhead_frac": iter_overhead,
                "net_outage_s": acc.net_outage_s,
                "run_slowdown": acc.run_s / (healthy.iter_time_s * run_iterations as f64),
            }));
        }
    }
    print_table(
        "Mirrored network-chaos overhead on the stage-0 → stage-1 link, Bert-48",
        &[
            "D",
            "scenario",
            "healthy iter s",
            "chaotic iter s",
            "iter overhead",
            "outage s",
            "run slowdown",
        ],
        &chaos_rows,
    );
    save_json("chaos_overhead", serde_json::json!(chaos_json));

    if let (Some(path), Some(events)) = (trace_path, trace_doc) {
        chimera_trace::write_chrome_trace(&path, &events, &[(0, "chimera d4, crash + recovery")])
            .expect("write Chrome trace");
        println!("[trace saved to {path} — crash/detect/restore/replay on worker 1's track]");
    }
}
