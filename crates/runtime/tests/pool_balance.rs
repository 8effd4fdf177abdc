//! Buffers go home: whichever worker happens to fold or complete a gradient
//! reduction, every worker's thread-local pool ends each iteration holding
//! what it held at the start, so after the first (warming) iteration nothing
//! misses — and tracked memory does not depend on the ordering either.
//!
//! Before the keyed allreduce returned contribution buffers to their
//! depositors, the member that ran the reduction kept them all, so the pools
//! drifted with thread timing (and resident memory with them). Since the
//! group folds gradients as they are made, each contribute puts one buffer
//! back at once; at `N = 4D` contributions really wait in the group for a
//! slower member's keys, and the pools must stay balanced all the same.

use std::time::Duration;

use chimera_core::chimera::{chimera, ChimeraConfig};
use chimera_core::schedule::Schedule;
use chimera_nn::ModelConfig;
use chimera_runtime::{train, FaultSpec, MsgFault, TrainOptions, TrainResult};

const ITERATIONS: u32 = 6;

fn cfg() -> ModelConfig {
    ModelConfig {
        layers: 8,
        ..ModelConfig::tiny()
    }
}

fn run(sched: &Schedule, fault: Option<FaultSpec>) -> TrainResult {
    let opts = TrainOptions {
        micro_batch: 2,
        iterations: ITERATIONS,
        fault,
        ..TrainOptions::default()
    };
    train(sched, cfg(), opts).expect("trains")
}

/// Hold back, in iteration 2, the last boundary tensor `worker` waits for:
/// it finishes that iteration's compute last, so its deposits complete the
/// rounds and it runs the reductions.
fn make_last(sched: &Schedule, worker: usize) -> FaultSpec {
    let (op, from) = sched.workers[worker]
        .iter()
        .rev()
        .find_map(|op| Some((op, sched.upstream_worker(op)?)))
        .expect("every worker of a pipeline waits for some boundary tensor");
    FaultSpec {
        delay_msg: Some((
            MsgFault {
                group: 0,
                from_worker: from.0,
                grad: op.is_backward(),
                micro: 2 * u64::from(sched.n) + u64::from(op.micro.0),
            },
            Duration::from_millis(40),
        )),
        ..FaultSpec::default()
    }
}

#[test]
fn pools_stay_balanced_whoever_reduces_last() {
    for (d, n) in [(2u32, 2u32), (4, 4), (2, 8), (4, 16)] {
        let sched = chimera(&ChimeraConfig::new(d, n)).expect("even depth");
        let undisturbed = run(&sched, None);
        let high_water =
            |r: &TrainResult| r.mem.iter().map(|m| m.high_water_elems).collect::<Vec<_>>();
        let assert_balanced = |what: &str, result: &TrainResult| {
            assert_eq!(result.iteration_losses.len(), ITERATIONS as usize);
            for (w, m) in result.mem.iter().enumerate() {
                assert_eq!(
                    m.steady_misses, 0,
                    "D={d} N={n}, {what}: worker {w}'s pool missed after the first iteration"
                );
            }
        };
        assert_balanced("undisturbed", &undisturbed);
        for w in 0..d as usize {
            let what = format!("w{w} last");
            let delayed = run(&sched, Some(make_last(&sched, w)));
            assert_balanced(&what, &delayed);
            assert_eq!(
                high_water(&delayed),
                high_water(&undisturbed),
                "D={d} N={n}, {what}"
            );
            assert_eq!(
                delayed.flat_params(),
                undisturbed.flat_params(),
                "D={d} N={n}, {what}"
            );
        }
    }
}
