//! Single-layer measurements taken beside a traced run: a layer's public
//! entry point alone, at the shape the workload gives it, so that its
//! number can be put next to its share of the step.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chimera::collectives::{keyed_group, TransportKeyed};
use chimera::comm::{KeyedReduce, LocalFabric, MsgKey, Payload, TcpFabric, Transport};
use chimera::core::schedule::Schedule;
use chimera::core::unit_time::{execute, UnitCosts};
use chimera::nn::block::LayerNorm;
use chimera::tensor::{gelu, kernels, softmax_rows, Rng, Tensor};

use crate::report::Metrics;
use crate::spec::Training;
use crate::stats::median;

/// Deadline of every receive in a microbenchmark; nothing here should wait
/// a hundredth of it.
const WAIT: Duration = Duration::from_secs(30);

/// `full` repetitions in a full run, one in a `--smoke` run (recognised by
/// its sub-second window), which only has to show that everything runs.
pub fn reps(seconds: f64, full: usize) -> usize {
    if seconds < 1.0 {
        1
    } else {
        full
    }
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Call `f` until `budget_s` is spent (at least `min_reps` times) and
/// return each call's seconds.
pub fn sample(budget_s: f64, min_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut samples = Vec::new();
    let window = Instant::now();
    while samples.len() < min_reps || window.elapsed().as_secs_f64() < budget_s {
        samples.push(timed(&mut f).0);
    }
    samples
}

fn random_tensor(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    Tensor::normal(rows, cols, 1.0, rng)
}

/// `tensor.*` ceilings and elementwise ops at the workload's shape.
pub fn tensor_layer(m: &mut Metrics, t: &Training, budget_s: f64) {
    let mut rng = Rng::new(17);
    // The headline GEMM class alone on one thread: the ceiling beside
    // `tensor.gemm_gflops`.
    let (rows, inner, cols) = (512, 1024, 1024);
    let a = random_tensor(rows, inner, &mut rng);
    let b = random_tensor(inner, cols, &mut rng);
    let mut out = vec![0.0f32; rows * cols];
    let flop = 2.0 * (rows * inner * cols) as f64;
    let one = median(&sample(budget_s / 4.0, 5, || {
        kernels::matmul_into_with_threads(a.data(), b.data(), &mut out, rows, inner, cols, 1);
    }));
    m.set("tensor.gemm_peak_gflops", flop / one / 1e9);
    if kernels::hw_parallelism() >= 2 {
        let two = median(&sample(budget_s / 4.0, 5, || {
            kernels::matmul_into_with_threads(a.data(), b.data(), &mut out, rows, inner, cols, 2);
        }));
        m.set("tensor.gemm_mt_speedup", one / two);
    } else {
        // One core cannot show a speed-up; a ratio near 1 would read as
        // "threading is broken" when it is only unmeasured.
        m.set_unmeasured("tensor.gemm_mt_speedup");
    }
    std::hint::black_box(&out);

    let tokens = t.micro_batch * t.model.seq;
    let scores = random_tensor(t.model.seq, t.model.seq, &mut rng);
    let us = |samples: Vec<f64>| median(&samples) * 1e6;
    m.set(
        "tensor.softmax_us",
        us(sample(budget_s / 6.0, 20, || {
            std::hint::black_box(softmax_rows(std::hint::black_box(&scores)));
        })),
    );
    let wide = random_tensor(tokens, 4 * t.model.hidden, &mut rng);
    m.set(
        "tensor.gelu_us",
        us(sample(budget_s / 6.0, 20, || {
            std::hint::black_box(gelu(std::hint::black_box(&wide)));
        })),
    );
    let x = random_tensor(tokens, t.model.hidden, &mut rng);
    let ln = LayerNorm::new(t.model.hidden);
    m.set(
        "tensor.layernorm_us",
        us(sample(budget_s / 6.0, 20, || {
            std::hint::black_box(ln.forward(std::hint::black_box(&x)));
        })),
    );
}

/// Elements of the activation that crosses a stage boundary.
fn boundary(t: &Training) -> (usize, usize) {
    (t.micro_batch * t.model.seq, t.model.hidden)
}

/// Ping-pong `rounds` boundary tensors between ranks 0 and 1, each on its
/// own thread: `(median send µs, median round-trip µs)`. The receiver is
/// blocked in `recv_deadline` when the message arrives, so the round trip
/// includes whatever the transport's wait loop adds.
fn ping_pong(
    a: Arc<dyn Transport>,
    b: Arc<dyn Transport>,
    shape: (usize, usize),
    rounds: u64,
) -> (f64, f64) {
    let ping = |micro| MsgKey::Act {
        replica: 0,
        stage: 0,
        micro,
    };
    let pong = |micro| MsgKey::Grad {
        replica: 0,
        stage: 1,
        micro,
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..rounds {
                let got = b.recv_deadline(ping(i), WAIT).expect("ping arrives");
                b.send(0, pong(i), got).expect("pong leaves");
            }
        });
        let (mut sends, mut trips) = (Vec::new(), Vec::new());
        for i in 0..rounds {
            let payload = Payload::Tensor(Tensor::zeros(shape.0, shape.1));
            let start = Instant::now();
            a.send(1, ping(i), payload).expect("ping leaves");
            sends.push(start.elapsed().as_secs_f64());
            std::hint::black_box(a.recv_deadline(pong(i), WAIT).expect("pong arrives"));
            trips.push(start.elapsed().as_secs_f64());
        }
        (median(&sends) * 1e6, median(&trips) * 1e6)
    })
}

fn pair<T: Transport + 'static>(endpoints: Vec<T>) -> (Arc<dyn Transport>, Arc<dyn Transport>) {
    let mut it = endpoints
        .into_iter()
        .map(|e| Arc::new(e) as Arc<dyn Transport>);
    let a = it.next().expect("rank 0");
    (a, it.next().expect("rank 1"))
}

/// `comm.local_*`: the in-process channel fabric.
pub fn comm_local(m: &mut Metrics, t: &Training) {
    let (a, b) = pair(LocalFabric::new(2));
    let (send_us, rtt_us) = ping_pong(a, b, boundary(t), 300);
    m.set("comm.local_send_us", send_us);
    m.set("comm.local_rtt_us", rtt_us);
}

/// `comm.tcp_*`: loopback sockets, plus bandwidth on 4 MiB payloads.
pub fn comm_tcp(m: &mut Metrics, t: &Training) -> Result<(), String> {
    let (a, b) = pair(TcpFabric::loopback(2).map_err(|e| format!("loopback fabric: {e}"))?);
    let (send_us, rtt_us) = ping_pong(a.clone(), b.clone(), boundary(t), 300);
    m.set("comm.tcp_send_us", send_us);
    m.set("comm.tcp_rtt_us", rtt_us);
    let big = (1024, 1024);
    let (_, big_rtt_us) = ping_pong(a, b, big, 12);
    // A round trip moves the payload twice.
    let mb = 2.0 * (big.0 * big.1 * 4) as f64 / 1e6;
    m.set("comm.tcp_mb_per_s", mb / (big_rtt_us / 1e6));
    Ok(())
}

/// Parameters of stage 0 of the `D = 2` split, the gradient an allreduce
/// between stage replicas carries.
fn stage_gradient_len(t: &Training) -> usize {
    chimera::nn::Stage::build(t.model.config(1), 0, 2).num_params()
}

/// Run `rounds` two-member allreduces, each member on its own thread;
/// median seconds of a round as member 0 sees it.
fn allreduce_rounds(members: Vec<Box<dyn KeyedReduce>>, len: usize, rounds: usize) -> f64 {
    let mut members = members.into_iter();
    let (m0, m1) = (
        members.next().expect("member 0"),
        members.next().expect("member 1"),
    );
    let contributions = |rank: u64| -> Vec<Vec<(u64, Vec<f32>)>> {
        (0..rounds)
            .map(|_| vec![(rank, vec![1.0f32; len])])
            .collect()
    };
    let (c0, c1) = (contributions(0), contributions(1));
    std::thread::scope(|s| {
        s.spawn(move || {
            for c in c1 {
                m1.deposit(c);
                std::hint::black_box(m1.fetch_deadline(WAIT).expect("round completes"));
            }
        });
        let mut times = Vec::new();
        for c in c0 {
            let start = Instant::now();
            m0.deposit(c);
            std::hint::black_box(m0.fetch_deadline(WAIT).expect("round completes"));
            times.push(start.elapsed().as_secs_f64());
        }
        median(&times)
    })
}

/// `collectives.keyed_allreduce_us`: the shared-memory keyed allreduce the
/// in-process pipeline uses between the two replicas of a stage.
pub fn allreduce_local(m: &mut Metrics, t: &Training) {
    let members = keyed_group(2)
        .into_iter()
        .map(|k| Box::new(k) as Box<dyn KeyedReduce>)
        .collect();
    let s = allreduce_rounds(members, stage_gradient_len(t), 12);
    m.set("collectives.keyed_allreduce_us", s * 1e6);
}

/// `collectives.tcp_allreduce_ms`: the same reduction through
/// `collectives::dist` over loopback TCP.
pub fn allreduce_tcp(m: &mut Metrics, t: &Training) -> Result<(), String> {
    let (a, b) = pair(TcpFabric::loopback(2).map_err(|e| format!("loopback fabric: {e}"))?);
    let members = [a, b]
        .into_iter()
        .map(|ep| Box::new(TransportKeyed::new(ep, 7, vec![0, 1])) as Box<dyn KeyedReduce>)
        .collect();
    let s = allreduce_rounds(members, stage_gradient_len(t), 12);
    m.set("collectives.tcp_allreduce_ms", s * 1e3);
    Ok(())
}

/// Exact per-step facts of `sched`: ops, messages, reduced elements, and
/// the `core` layer's view of it (generation time, unit-time bubble ratio,
/// also at the depths wall clock cannot reach on two cores).
pub fn schedule_facts(m: &mut Metrics, t: &Training, sched: &Schedule) {
    let ops: usize = sched.workers.iter().map(Vec::len).sum();
    m.set("runtime.ops_per_step", ops as f64);
    m.set(
        "core.ops_per_worker",
        ops as f64 / sched.num_workers() as f64,
    );
    // A compute op whose input is produced on another worker receives one
    // message.
    let msgs = sched
        .iter_ops()
        .filter(|(w, _, op)| sched.upstream_worker(op).is_some_and(|up| up != *w))
        .count();
    m.set("comm.msgs_per_step", msgs as f64);
    // Each replica of a stage contributes that stage's gradient once per
    // step; a stage held once has no partner and reduces nothing.
    let replicas = sched.placement.replicas() as usize;
    let params: usize = (0..sched.d)
        .map(|s| chimera::nn::Stage::build(t.model.config(1), s, sched.d).num_params())
        .sum();
    let reduced = if replicas > 1 { replicas * params } else { 0 };
    m.set("collectives.reduce_elems_per_step", reduced as f64);

    let gen = sample(0.02, 20, || {
        std::hint::black_box(t.schedule_at(sched.d, sched.n));
    });
    m.set("core.gen_us", median(&gen) * 1e6);
    m.set("core.bubble_ratio", unit_time_bubble(sched));
    for (name, d) in [("core.bubble_ratio_d4", 4), ("core.bubble_ratio_d8", 8)] {
        m.set(name, unit_time_bubble(&t.schedule_at(d, sched.n.max(d))));
    }
}

/// Bubble ratio of `sched` under the paper's practical unit costs: an exact
/// property of the schedule, available at depths wall clock cannot reach.
pub fn unit_time_bubble(sched: &Schedule) -> f64 {
    execute(sched, UnitCosts::practical())
        .expect("a generated schedule executes")
        .bubble_ratio()
}
