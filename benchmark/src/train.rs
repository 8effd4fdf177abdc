//! The six training workloads, end to end: the sequential reference, the
//! in-process pipeline, and the pipeline over loopback TCP.
//!
//! Everything here goes through public entry points only. `seq_*` time each
//! `ReferenceTrainer::train_iteration` directly. `runtime::train` and
//! `train_worker_process` have no per-step hook, so the pipelined workloads
//! alternate a short and a long call and take the step time from the slope
//! between them and the set-up time from the intercept
//! ([`crate::stats::two_point`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use chimera::comm::{TcpFabric, Transport};
use chimera::core::schedule::Schedule;
use chimera::nn::{ModelConfig, ReferenceTrainer, Stage, SyntheticData};
use chimera::runtime::{train, train_worker_process, MemReport, TrainOptions};
use chimera::tensor::kernels;
use chimera::trace::TraceSink;

use crate::host::{self, Paced};
use crate::layers::reps;
use crate::report::Outcome;
use crate::spec::{Kind, Training, Workload, LR, MOMENTUM};
use crate::stats::{highest_percentile, median, percentile, two_point};

/// Iterations of the short call of a two-point pair.
pub const K_SHORT: u32 = 1;
/// Iterations of the long call of a two-point pair. A call's time varies
/// by tens of milliseconds whatever its length, and the slope divides that
/// by `K_LONG − K_SHORT`; five is where fewer pairs per window stop paying
/// for a longer lever.
pub const K_LONG: u32 = 5;
/// Fixed percentile reported as `op_ms_tail` on training workloads: the
/// highest with ten samples beyond it at 40 to 99 step samples, which is
/// what a `seq_*` run takes. A two-point run of 15 s yields fewer (one per
/// long call); its tail is still p75, with the count stated beside it.
pub const TAIL: f64 = 0.75;
/// Times the sequential set-up (build the model, run the first step) is
/// repeated so that `setup_s` is a median.
const SETUP_REPEATS: usize = 7;

/// Long calls whose peak resident set is taken, each from a trimmed heap.
const RSS_CALLS: usize = 7;

/// The sequential reference for `t`, as every workload compares against.
pub fn reference(t: &Training, cfg: ModelConfig, seed: u64, depth: u32) -> ReferenceTrainer {
    ReferenceTrainer::new(
        Stage::build_all(cfg, depth),
        SyntheticData::new(cfg, seed),
        t.micro_batch,
        LR,
        MOMENTUM,
    )
}

/// Options of one pipelined call: one kernel thread per worker, so that two
/// workers never run more than the machine's two cores.
pub fn options(
    t: &Training,
    seed: u64,
    iterations: u32,
    trace: Option<Arc<dyn TraceSink>>,
) -> TrainOptions {
    TrainOptions {
        micro_batch: t.micro_batch,
        iterations,
        lr: LR,
        momentum: MOMENTUM,
        data_seed: seed,
        threads: Some(1),
        trace,
        recv_timeout: Duration::from_secs(30),
        ..TrainOptions::default()
    }
}

/// What one pipelined call returns to the benchmark.
pub struct CallResult {
    /// Final parameters, comparable with `ReferenceTrainer::flat_params`.
    pub flat_params: Vec<f32>,
    /// Per-worker tracked memory (in-process pipeline only).
    pub mem: Vec<MemReport>,
    /// Payload bytes all endpoints sent (TCP only).
    pub bytes_sent: u64,
}

/// Train `iterations` steps of `t` through the workload's entry point.
pub fn call(
    kind: Kind,
    sched: &Schedule,
    t: &Training,
    cfg: ModelConfig,
    seed: u64,
    iterations: u32,
    trace: Option<Arc<dyn TraceSink>>,
) -> Result<CallResult, String> {
    let opts = options(t, seed, iterations, trace);
    match kind {
        Kind::Pipeline => {
            let r = train(sched, cfg, opts).map_err(|e| format!("train: {e}"))?;
            Ok(CallResult {
                flat_params: r.flat_params(),
                mem: r.mem,
                bytes_sent: 0,
            })
        }
        Kind::Tcp => {
            let endpoints: Vec<Arc<dyn Transport>> =
                TcpFabric::loopback(sched.num_workers() as u32)
                    .map_err(|e| format!("loopback fabric: {e}"))?
                    .into_iter()
                    .map(|ep| Arc::new(ep) as Arc<dyn Transport>)
                    .collect();
            let outcomes: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = endpoints
                    .iter()
                    .map(|ep| {
                        let (ep, opts) = (ep.clone(), opts.clone());
                        s.spawn(move || train_worker_process(ep, sched, cfg, opts, 1))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            let bytes_sent = endpoints.iter().map(|ep| ep.bytes_sent()).sum();
            let mut rank0 = None;
            for (rank, outcome) in outcomes.into_iter().enumerate() {
                let outcome = outcome
                    .map_err(|_| format!("rank {rank} panicked"))?
                    .map_err(|e| format!("rank {rank}: {e}"))?;
                if rank == 0 {
                    rank0 = outcome;
                }
            }
            let rank0 = rank0.ok_or("rank 0 assembled no outcome")?;
            Ok(CallResult {
                flat_params: rank0.flat_params,
                mem: Vec::new(),
                bytes_sent,
            })
        }
        Kind::Sequential | Kind::Plan => unreachable!("not a pipelined workload"),
    }
}

/// Whether two parameter vectors are the same bit for bit.
pub fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.iter()
        .map(|f| f.to_bits())
        .eq(b.iter().map(|f| f.to_bits()))
}

/// The end-to-end metrics from step samples and a set-up time, both
/// normalised to the nominal host; `paced` timed the steps.
fn set_end_to_end(
    out: &mut Outcome,
    t: &Training,
    step_samples_s: &[f64],
    setup_s: f64,
    paced: &Paced,
    raw_step_s: f64,
) {
    let step_s = median(step_samples_s);
    out.metrics.set("items_per_s", t.tokens_per_step() / step_s);
    out.metrics.set("op_ms_p50", step_s * 1e3);
    out.metrics
        .set("op_ms_tail", percentile(step_samples_s, TAIL) * 1e3);
    out.metrics.set("setup_s", setup_s);
    out.notes.push(format!(
        "op_ms_tail is p{:.0} of {} step samples; ten samples lie beyond p{:.0}",
        TAIL * 100.0,
        step_samples_s.len(),
        highest_percentile(step_samples_s.len()) * 100.0
    ));
    out.notes.push(format!(
        "{}; as measured the median step took {:.3} ms",
        paced.note(),
        raw_step_s * 1e3
    ));
    out.series = paced.series();
}

/// `seq_*`, tracing off: time every `train_iteration` for `seconds`.
pub fn sequential(t: &Training, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    kernels::set_threads(1);
    let cfg = t.model.config(seed);

    // Set-up is building the model and running the first step (which fills
    // the buffer pool); the first loss must not depend on the repeat.
    let mut setups = Paced::new(1, 0.0);
    let mut first_losses = Vec::new();
    let mut trainer = None;
    for _ in 0..SETUP_REPEATS {
        let (tr, loss) = setups.time(|| {
            let mut tr = reference(t, cfg, seed, 1);
            let loss = tr.train_iteration(0, t.micros);
            (tr, loss)
        });
        first_losses.push(loss.to_bits());
        trainer = Some(tr);
    }
    let mut trainer = trainer.expect("at least one set-up");
    out.check(first_losses.iter().all(|&l| l == first_losses[0]), || {
        "the first step's loss differs between identical set-ups".to_string()
    });
    let mut steps = Paced::new(1, 0.0);
    let mut it = 1u64;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < seconds {
        let loss = steps.time(|| trainer.train_iteration(it * u64::from(t.micros), t.micros));
        out.check(loss.is_finite(), || format!("step {it}: loss {loss}"));
        it += 1;
    }
    out.metrics.set("peak_rss_mb", host::peak_rss_mb());
    set_end_to_end(
        &mut out,
        t,
        &steps.normalised(),
        median(&setups.normalised()),
        &steps,
        median(&steps.raw()),
    );
    out
}

/// `pipe_*` and `tcp_small`, tracing off: alternate short and long calls
/// for `seconds`, then check the parameters bit for bit.
pub fn pipelined(w: &Workload, t: &Training, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    kernels::set_threads(1);
    let cfg = t.model.config(seed);
    let sched = t.schedule();

    let run = |out: &mut Outcome, iterations: u32| -> Option<CallResult> {
        let result = call(w.kind, &sched, t, cfg, seed, iterations, None);
        let ok = result.is_ok();
        out.check(ok, || {
            format!(
                "{iterations}-step call: {}",
                result.as_ref().err().expect("an error")
            )
        });
        result.ok()
    };

    // One untimed call lets lazy process-wide state settle.
    run(&mut out, K_SHORT);
    let window = Instant::now();

    // Peak memory of one long call, each started from a trimmed heap: what
    // the allocator happens to retain from earlier calls drifts by tens of
    // megabytes over a process's life, and which buffers of the two
    // workers are alive at once differs from call to call, hence a median.
    let mut peaks_mb = Vec::new();
    for _ in 0..reps(seconds, RSS_CALLS) {
        host::trim_heap();
        host::reset_peak_rss();
        run(&mut out, K_LONG);
        peaks_mb.push(host::peak_rss_mb());
    }
    out.metrics.set("peak_rss_mb", median(&peaks_mb));

    // Even operations are short calls, odd ones long.
    let mut calls = Paced::new(sched.num_workers(), 0.0);
    let mut last_long = None;
    while calls.is_empty() || window.elapsed().as_secs_f64() < seconds {
        calls.time(|| run(&mut out, K_SHORT));
        last_long = calls.time(|| run(&mut out, K_LONG)).or(last_long);
    }
    let estimate = |times: Vec<f64>| {
        let short: Vec<f64> = times.iter().copied().step_by(2).collect();
        let long: Vec<f64> = times.iter().copied().skip(1).step_by(2).collect();
        two_point(&short, &long, K_SHORT, K_LONG)
    };
    let est = estimate(calls.normalised());
    set_end_to_end(
        &mut out,
        t,
        &est.step_samples_s,
        est.setup_s,
        &calls,
        estimate(calls.raw()).step_s,
    );
    out.notes.push(format!(
        "two-point: {} pairs of {K_SHORT}- and {K_LONG}-step calls",
        est.step_samples_s.len()
    ));

    check_against_reference(&mut out, w, t, cfg, seed, &sched, last_long);
    out
}

/// The pipelined parameters after `K_LONG` steps must equal the sequential
/// reference's bit for bit; over TCP also the in-process pipeline's.
pub fn check_against_reference(
    out: &mut Outcome,
    w: &Workload,
    t: &Training,
    cfg: ModelConfig,
    seed: u64,
    sched: &Schedule,
    pipelined: Option<CallResult>,
) {
    let Some(pipelined) = pipelined else {
        out.check(false, || {
            "no long call succeeded, nothing to compare".to_string()
        });
        return;
    };
    let mut seq = reference(t, cfg, seed, sched.d);
    for it in 0..u64::from(K_LONG) {
        seq.train_iteration(it * u64::from(t.micros), t.micros);
    }
    out.check(
        bit_identical(&pipelined.flat_params, &seq.flat_params()),
        || format!("{}: parameters differ from sequential SGD", w.name),
    );
    if w.kind == Kind::Tcp {
        let local = call(Kind::Pipeline, sched, t, cfg, seed, K_LONG, None);
        out.check(
            local
                .as_ref()
                .is_ok_and(|l| bit_identical(&l.flat_params, &pipelined.flat_params)),
            || format!("{}: parameters differ from the in-process pipeline", w.name),
        );
    }
}
