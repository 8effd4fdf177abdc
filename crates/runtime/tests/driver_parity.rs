//! Driver parity, one table: the same `(schedule, TrainOptions)` through the
//! in-process supervisor (`train_hybrid`) and through the per-process entry
//! point (`train_worker_process`, every rank a thread with its own endpoint
//! of a `LocalFabric`) is the same program — same bits, same typed failure
//! for a lost message, same fault counters, same kernel and pool switches,
//! same cold-start pool behaviour.

use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use chimera_comm::LocalFabric;
use chimera_core::named::build_named;
use chimera_core::schedule::Schedule;
use chimera_nn::ModelConfig;
use chimera_runtime::{
    train_hybrid, train_worker_process, DistOutcome, FaultSpec, MsgFault, TrainError, TrainOptions,
};
use chimera_tensor::{kernels, pool};
use chimera_trace::MetricsRegistry;

/// `(scheme, W)` at D = 2, N = 2.
const CASES: [(&str, u32); 4] = [("chimera", 1), ("chimera", 2), ("dapple", 1), ("dapple", 2)];

/// The registry's counters, `kernels::threads()` and `pool::enabled()` are
/// process-wide and the harness runs tests on parallel threads: every test
/// here asserts exact values, so each holds this for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn each_case(mut body: impl FnMut(&str, &Schedule, u32)) {
    for (scheme, w) in CASES {
        let sched = build_named(scheme, 2, 2).expect("known scheme");
        body(&format!("{scheme} W={w}"), &sched, w);
    }
}

fn opts(iterations: u32) -> TrainOptions {
    TrainOptions {
        micro_batch: 2,
        iterations,
        data_seed: 11,
        recv_timeout: Duration::from_millis(400),
        ..TrainOptions::default()
    }
}

/// The activation of global micro-batch 0 that g0-w0 sends to g0-w1.
fn first_activation() -> MsgFault {
    MsgFault {
        group: 0,
        from_worker: 0,
        grad: false,
        micro: 0,
    }
}

/// Every rank of the `W·D` fabric as a thread; results by rank.
fn per_process(
    sched: &Schedule,
    opts: &TrainOptions,
    w: u32,
) -> Vec<Result<Option<DistOutcome>, TrainError>> {
    let world = sched.num_workers() as u32 * w;
    thread::scope(|s| {
        let ranks: Vec<_> = LocalFabric::new(world)
            .into_iter()
            .map(|ep| {
                let opts = opts.clone();
                s.spawn(move || {
                    train_worker_process(Arc::new(ep), sched, ModelConfig::tiny(), opts, w)
                })
            })
            .collect();
        ranks
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    })
}

/// Rank 0's assembled outcome of a per-process run that must succeed.
fn per_process_outcome(sched: &Schedule, opts: &TrainOptions, w: u32) -> DistOutcome {
    let mut ranks = per_process(sched, opts, w).into_iter();
    let outcome = ranks.next().expect("rank 0").expect("rank 0 trains");
    assert!(
        ranks.all(|r| matches!(r, Ok(None))),
        "only rank 0 assembles"
    );
    outcome.expect("rank 0 assembles the outcome")
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

fn counter(name: &str) -> u64 {
    MetricsRegistry::global().counter(name).get()
}

#[test]
fn parameters_and_losses_are_bit_identical() {
    let _serial = serial();
    each_case(|case, sched, w| {
        let reference = train_hybrid(sched, ModelConfig::tiny(), opts(3), w).expect("in-process");
        let dist = per_process_outcome(sched, &opts(3), w);
        assert_eq!(
            bits(&dist.flat_params),
            bits(&reference.flat_params()),
            "{case}"
        );
        assert_eq!(dist.iteration_losses.len(), 3, "{case}");
        assert_eq!(
            bits(&dist.iteration_losses),
            bits(&reference.iteration_losses),
            "{case}"
        );
    });
}

/// A message lost above the session is lost under either driver: both fail
/// with the typed `Timeout` naming micro 0's receive — the in-process error
/// is, field for field, one of the errors the ranks return — and every rank
/// returns instead of hanging.
#[test]
fn a_dropped_message_is_the_same_timeout() {
    let _serial = serial();
    each_case(|case, sched, w| {
        let mut o = opts(2);
        o.fault = Some(FaultSpec {
            drop_msg: Some(first_activation()),
            ..FaultSpec::default()
        });
        let dropped = counter("runtime.fault.dropped_msgs");
        let in_process =
            train_hybrid(sched, ModelConfig::tiny(), o.clone(), w).expect_err("lost message");
        assert_eq!(counter("runtime.fault.dropped_msgs"), dropped + 1, "{case}");
        match &in_process {
            TrainError::Timeout { group: 0, op, .. } => assert!(
                op.starts_with("recv ") && op.contains(" m0@s"),
                "{case}: blocked op {op}"
            ),
            other => panic!("{case}: expected Timeout in group 0, got {other}"),
        }
        let ranks: Vec<TrainError> = per_process(sched, &o, w)
            .into_iter()
            .map(|r| r.expect_err("every rank fails"))
            .collect();
        assert_eq!(counter("runtime.fault.dropped_msgs"), dropped + 2, "{case}");
        assert!(
            ranks.contains(&in_process),
            "{case}: in-process {in_process:?} is none of {ranks:?}"
        );
        for e in &ranks {
            assert!(matches!(e, TrainError::Timeout { .. }), "{case}: {e}");
        }
    });
}

#[test]
fn a_delayed_message_completes_and_is_counted_once() {
    let _serial = serial();
    each_case(|case, sched, w| {
        let healthy = train_hybrid(sched, ModelConfig::tiny(), opts(2), w).expect("healthy");
        let mut o = opts(2);
        o.fault = Some(FaultSpec {
            delay_msg: Some((first_activation(), Duration::from_millis(30))),
            ..FaultSpec::default()
        });
        let delayed = counter("runtime.fault.delayed_msgs");
        let in_process = train_hybrid(sched, ModelConfig::tiny(), o.clone(), w).expect("delay");
        assert_eq!(counter("runtime.fault.delayed_msgs"), delayed + 1, "{case}");
        let dist = per_process_outcome(sched, &o, w);
        assert_eq!(counter("runtime.fault.delayed_msgs"), delayed + 2, "{case}");
        assert_eq!(in_process.recoveries, 0, "{case}");
        assert_eq!(
            bits(&in_process.flat_params()),
            bits(&healthy.flat_params()),
            "{case}"
        );
        assert_eq!(
            bits(&dist.flat_params),
            bits(&healthy.flat_params()),
            "{case}"
        );
    });
}

#[test]
fn threads_and_pool_are_honoured() {
    let _serial = serial();
    let reset = || {
        kernels::set_threads(0);
        pool::set_enabled(true);
    };
    each_case(|case, sched, w| {
        let o = TrainOptions {
            threads: Some(2),
            pool: false,
            ..opts(1)
        };
        reset();
        train_hybrid(sched, ModelConfig::tiny(), o.clone(), w).expect("in-process");
        assert_eq!((kernels::threads(), pool::enabled()), (2, false), "{case}");
        reset();
        per_process_outcome(sched, &o, w);
        assert_eq!((kernels::threads(), pool::enabled()), (2, false), "{case}");
    });
    reset();
}

/// `mem_oracle`'s cold-start assertion, from both drivers: with prewarming
/// on, the liveness-planned pool makes every worker's first micro-batch
/// allocate nothing; with it off, the same counter moves under both.
#[test]
fn the_first_micro_batch_allocates_nothing() {
    let _serial = serial();
    let misses = || counter("runtime.pool.first_micro_misses");
    each_case(|case, sched, w| {
        let base = misses();
        let res = train_hybrid(sched, ModelConfig::tiny(), opts(1), w).expect("in-process");
        assert!(res.mem.iter().all(|m| m.prewarmed), "{case}");
        assert_eq!(misses(), base, "{case}: in-process cold start missed");
        per_process_outcome(sched, &opts(1), w);
        assert_eq!(misses(), base, "{case}: per-process cold start missed");

        let cold = TrainOptions {
            prewarm: false,
            ..opts(1)
        };
        train_hybrid(sched, ModelConfig::tiny(), cold.clone(), w).expect("in-process");
        let after_in_process = misses();
        assert!(
            after_in_process > base,
            "{case}: counter not wired in-process"
        );
        per_process_outcome(sched, &cold, w);
        assert!(
            misses() > after_in_process,
            "{case}: counter not wired per-process"
        );
    });
}
