//! `chimera-cli` — command-line front end for the Chimera reproduction.
//!
//! ```text
//! chimera-cli render  <scheme> [D] [N]            ASCII schedule + analytics
//! chimera-cli plan    <bert48|gpt2> [P] [B̂] [--json]  best (W,D,B) per scheme
//! chimera-cli serve   [--addr a] [--http-addr a]  planning-as-a-service daemon
//! chimera-cli query   [--addr a] --model m --devices P  query a running server
//! chimera-cli simulate <scheme> <bert48|gpt2> <P> <D> <B> <B̂>
//! chimera-cli train   [D] [N] [iters] [--trace f] real pipelined training
//! chimera-cli launch  --workers P [--transport tcp|local] [--d D] [--n N]
//!                     [--iters I] [--trace dir]   multi-process training
//!                     [--metrics-every ms] [--metrics-out f] [--metrics-port p]
//! chimera-cli verify  [scheme [D] [N]] [--liveness] [--json]  static schedule verifier
//! chimera-cli profile <trace.jsonl>... [--sim scheme D N] [--json]
//! chimera-cli overhead-check [D] [N] [iters] [--repeats R]
//! ```
//!
//! `profile` reconstructs per-rank timelines from one or more trace files
//! (pass every `trace-rank*.jsonl` of a launch together — they share one
//! time axis), attributes every rank's wall clock exclusively (compute,
//! comm waits, gradient sync, recovery, bubble), extracts the critical
//! path, and — with `--sim` — reports per-class drift against the
//! unit-cost simulation of the same configuration. When
//! `results/comm_overhead.json` exists, sized communication spans are also
//! checked against its α-β fits.
//!
//! `overhead-check` measures tracing overhead: best-of-R wall clock of the
//! same training run with tracing off and on, printed as JSON (used by CI
//! to enforce the <5% overhead budget).
//!
//! `verify` runs the static analyses of `chimera-verify` (happens-before
//! deadlock detection, send/recv matching, buffer-hazard and memory lints)
//! on one schedule, or — with no scheme — on every built-in scheme for
//! D ∈ {2, 4, 8}. `--liveness` adds the exact buffer-liveness dataflow
//! analysis under the Bert-48/Piz-Daint byte model: per-worker exact peak
//! memory, the coarse-bound cross-check, the memory-cliff op, and the pool
//! pre-sizing plan land in the report (schema `memory/v2` under `--json`).
//! Exit status 1 when any diagnostic of error severity is found.
//!
//! Every command that builds a schedule by name (`render`, `simulate`,
//! `verify`, `profile --sim`) refuses a shape the scheme's generator rejects
//! — odd `D` for the bidirectional schemes, `f ∤ D/2`, odd `N` for GEMS, zero
//! `D`, `N` or `B` — with the violated constraint on stderr and exit status 2.
//! `simulate` also refuses, the same way, a `P` that `D` does not divide or
//! a `B̂` that is not a positive multiple of `W·B`, so the throughput it
//! prints is for the `B̂` samples it simulated.
//!
//! `launch` spawns `P` worker **processes** (one pipeline worker each, `W =
//! P/D` data-parallel groups) connected over the TCP transport, then re-runs
//! the identical configuration in-process and verifies the two parameter
//! sets are bit-identical. The hidden `worker` subcommand is what each
//! spawned process executes.
//!
//! `launch` is also a **supervisor**: after every segment
//! (`--ckpt-every`) rank 0 gathers the model and its optimizer state and
//! commits one checkpoint file to `--ckpt-dir`, and when any worker process
//! dies — e.g. an injected `--kill-rank R --kill-iter I` crash (rank 0, the
//! writer, included), or a rank that exits because the heartbeat failure
//! detector declared a peer dead — the supervisor kills the remaining ranks,
//! picks a fresh rendezvous port, and gang-restarts the job with `--resume`,
//! which replays from the last committed segment. Seeded network chaos
//! (`--chaos-seed/-flaky/-dup/-reorder/-partition/-break`) is forwarded to
//! every worker and healed below the transport by retransmit, receive-side
//! dedup and session-resuming reconnect, so the final parameters stay
//! bit-identical to the fault-free in-process run. Per-rank session
//! counters (reconnects, retransmits, duplicates dropped, chaos events)
//! land in `--stats-dir` and are aggregated into the printed `recoveries`
//! line.

use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use chimera::comm::{rendezvous_epoch, ClockSync};
use chimera::comm::{Liveness, NetChaos, TcpConfig, TcpFabric, Transport};
use chimera::core::analysis;
use chimera::core::render;
use chimera::core::schedule::{Schedule, Scheme, SyncStrategy};
use chimera::core::sync::place_sync;
use chimera::core::unit_time::{execute, UnitCosts};
use chimera::nn::{ModelConfig, ReferenceTrainer, Stage, SyntheticData};
use chimera::obs::{
    drift_with_costs, load_comm_fits, profile, MetricsAggregator, MetricsPublisher, MetricsServer,
};
use chimera::perf::{ClusterSpec, ModelSpec, TrainConfig};
use chimera::runtime::{
    train, train_hybrid, train_worker_process_recoverable, DistOutcome, FaultSpec, RecoverySpec,
    TrainOptions,
};
use chimera::serve::{
    load_measured_floor, HttpServer, PlanClient, PlanEngine, PlanQuery, PlanServer, QueryLimits,
    RealSearcher, Searcher, ServeConfig, ServeError,
};
use chimera::sim::simulate;
use chimera::trace::{events_to_jsonl, now_ns, read_jsonl, BufferSink, MetricsRegistry};
use chimera::verify::{memory_v2, verify_span, verify_with_memory, VerifyReport};
use serde_json::Value;

fn usage() -> ! {
    eprintln!(
        "usage:\n  chimera-cli render  <scheme> [D] [N]\n  chimera-cli plan    <bert48|gpt2> [P] [B_hat] [--json]\n  chimera-cli serve   [--addr a] [--http-addr a] [--workers n] [--queue-cap n]\n                      [--cache-cap n] [--no-floor]\n  chimera-cli query   [--addr a] [--model m --devices P] [--b-hat n] [--topology t]\n                      [--congestion-pct c] [--mem-budget-bytes b] [--schemes s,s]\n                      [--deadline-ms ms] [--stats] [--ping]\n  chimera-cli simulate <scheme> <bert48|gpt2> <P> <D> <B> <B_hat>\n  chimera-cli train   [D] [N] [iters] [--trace file.jsonl]\n  chimera-cli launch  --workers P [--transport tcp|local] [--d D] [--n N] [--iters I]\n                      [--trace dir] [--metrics-every ms] [--metrics-out file] [--metrics-port p]\n                      [--ckpt-dir dir] [--ckpt-every k] [--max-respawns r] [--stats-dir dir]\n                      [--kill-rank R --kill-iter I]\n                      [--chaos-seed s] [--chaos-flaky p] [--chaos-dup p] [--chaos-reorder p]\n                      [--chaos-partition start:len] [--chaos-break frame]\n  chimera-cli verify  [scheme [D] [N]] [--liveness] [--json]\n  chimera-cli profile <trace.jsonl>... [--sim scheme D N] [--calibration BENCH_kernels.json] [--json]\n  chimera-cli overhead-check [D] [N] [iters] [--repeats R]\n\nschemes: chimera | chimera-f2 | doubling | halving | dapple | gpipe | gems |\n         pipedream | pipedream-2bw"
    );
    std::process::exit(2);
}

/// The value `s` names, or `default` where it is absent; a value that is
/// present and does not parse is refused, never replaced by the default.
fn parse<T: std::str::FromStr>(s: Option<String>, default: T) -> T {
    match s {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| refuse(format_args!("malformed value {v:?}"))),
        None => default,
    }
}

/// A request the generators reject: the reason on stderr, exit status 2.
fn refuse(reason: impl std::fmt::Display) -> ! {
    eprintln!("chimera-cli: {reason}");
    std::process::exit(2);
}

/// A run that failed, or an output that cannot be written: what failed (the
/// run, or the path) and why on stderr, exit status 1 — never a panic.
fn fail(what: impl std::fmt::Display, why: impl std::fmt::Display) -> ! {
    eprintln!("chimera-cli: {what}: {why}");
    std::process::exit(1);
}

/// Create (or truncate) the output file at `path` before the work whose
/// result it will hold, so a path that cannot be written fails at once.
fn create_output(path: &str) -> std::fs::File {
    std::fs::File::create(path).unwrap_or_else(|e| fail(path, e))
}

/// Write `bytes` to `out`, the file [`create_output`] opened at `path`.
fn write_output(mut out: std::fs::File, path: &str, bytes: &[u8]) {
    out.write_all(bytes).unwrap_or_else(|e| fail(path, e));
}

/// Create the directory `dir` (and its parents), or fail.
fn create_dir(dir: &str) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(dir, e));
}

fn build_schedule(scheme: &str, d: u32, n: u32) -> Schedule {
    chimera::core::build_named(scheme, d, n)
        .unwrap_or_else(|e| refuse(format_args!("{scheme} D={d} N={n}: {e}")))
}

fn model_spec(name: &str) -> ModelSpec {
    match name {
        "bert48" => ModelSpec::bert48(),
        "gpt2" => ModelSpec::gpt2(),
        "gpt2-32" => ModelSpec::gpt2_32(),
        _ => usage(),
    }
}

fn cmd_render(mut args: std::env::Args) {
    let scheme = args.next().unwrap_or_else(|| usage());
    let d = parse(args.next(), 4u32);
    let n = parse(args.next(), d);
    let sched = build_schedule(&scheme, d, n);
    let tl = execute(&sched, UnitCosts::practical()).expect("executes");
    println!("{scheme} D={d} N={n} (backward = 2x forward):\n");
    println!("{}", render::render(&tl));
    let peak_act = verify_span(&sched, verify_iterations(&scheme)).peak_activation_units;
    println!("{}", render::summary(&tl, &peak_act));
    if matches!(
        sched.scheme,
        Scheme::Chimera | Scheme::Dapple | Scheme::GPipe | Scheme::Gems
    ) {
        let a = analysis::table2(sched.scheme, d, n);
        println!(
            "Table-2 analytics: bubble {:.3}, weights {:?} Mθ, activations {:?} Ma",
            a.bubble_ratio, a.weights_memory, a.activations_memory
        );
    }
}

fn cmd_plan(args: std::env::Args) {
    let mut rest: Vec<String> = args.collect();
    let json = if let Some(pos) = rest.iter().position(|a| a == "--json") {
        rest.remove(pos);
        true
    } else {
        false
    };
    let mut rest = rest.into_iter();
    let model_name = rest.next().unwrap_or_else(|| usage());
    let p = parse(rest.next(), 32u32);
    let b_hat = parse(rest.next(), 512u64);
    // One search for both outputs: the planning service's, with its query
    // validation and its verify gate. `--json` prints its response, byte
    // for byte what a `chimera-serve` plan response holds; the table prints
    // the same rows.
    let fail = |e: ServeError, status| -> ! {
        eprintln!("chimera-cli plan: {e}");
        std::process::exit(status);
    };
    let raw = serde_json::json!({"model": model_name, "devices": p, "b_hat": b_hat});
    let q = PlanQuery::parse(&raw, &QueryLimits::default()).unwrap_or_else(|e| fail(e, 2));
    let v = RealSearcher::default()
        .search(&q, None)
        .unwrap_or_else(|e| fail(e, 1));
    if json {
        let text = serde_json::to_string_pretty(&v).unwrap_or_else(|_| v.to_string());
        println!("{text}");
        return;
    }
    // The search resolved the model: an unknown one failed it.
    let model = chimera::serve::query::model_by_name(&q.model).map_or("", |m| m.name);
    println!("{model} on P={p} (Piz Daint profile), B̂={b_hat}:\n");
    println!(
        "{:<24} {:>4} {:>4} {:>4} {:>5} {:>4} {:>12} {:>8}",
        "scheme", "W", "D", "B", "N", "rec", "samples/s", "peakGiB"
    );
    let results = v.get("results").and_then(Value::as_array);
    for id in q.scheme_list() {
        let found = (results.into_iter().flatten())
            .find(|r| r.get("scheme_id").and_then(Value::as_str) == Some(id));
        let Some(r) = found else {
            println!("{id:<24} (no feasible configuration)");
            continue;
        };
        let int = |k: &str| r.get(k).and_then(Value::as_u64).unwrap_or(0);
        let recompute = r.get("recompute").and_then(Value::as_bool) == Some(true);
        println!(
            "{:<24} {:>4} {:>4} {:>4} {:>5} {:>4} {:>12.1} {:>8.2}",
            r.get("scheme").and_then(Value::as_str).unwrap_or(id),
            int("w"),
            int("d"),
            int("b"),
            int("n"),
            if recompute { "R" } else { "-" },
            r.get("throughput")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
            int("peak_mem_bytes") as f64 / (1u64 << 30) as f64
        );
    }
}

fn cmd_serve(args: std::env::Args) {
    let mut addr: SocketAddr = "127.0.0.1:7070".parse().unwrap();
    let mut http_addr: Option<SocketAddr> = None;
    let mut cfg = ServeConfig::default();
    let mut floor_path = Some("results/comm_overhead.json".to_string());
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => addr = parse(args.next(), addr),
            "--http-addr" => {
                http_addr = args.next().and_then(|s| s.parse().ok());
                if http_addr.is_none() {
                    usage();
                }
            }
            "--workers" => cfg.workers = parse(args.next(), cfg.workers),
            "--queue-cap" => cfg.queue_cap = parse(args.next(), cfg.queue_cap),
            "--cache-cap" => cfg.cache_cap = parse(args.next(), cfg.cache_cap),
            "--no-floor" => floor_path = None,
            _ => usage(),
        }
    }
    let measured_floor = floor_path.as_deref().and_then(load_measured_floor);
    match measured_floor {
        Some((a, b)) => println!(
            "chimera-serve: measured inter-node floor α={:.1}µs β={b:.3e} s/B (from {})",
            a * 1e6,
            floor_path.unwrap()
        ),
        None => println!("chimera-serve: no measured floor; topology presets stand as-is"),
    }
    let engine = PlanEngine::start(cfg, Box::new(RealSearcher { measured_floor }));
    let server = PlanServer::bind(addr, engine.clone()).unwrap_or_else(|e| {
        eprintln!("chimera-serve: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    println!("chimera-serve: framed protocol on {}", server.addr);
    let _http = http_addr.map(|a| {
        let s = HttpServer::serve(a, engine.clone()).unwrap_or_else(|e| {
            eprintln!("chimera-serve: cannot bind HTTP {a}: {e}");
            std::process::exit(1);
        });
        println!("chimera-serve: http on {}", s.addr);
        s
    });
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_query(args: std::env::Args) {
    let mut addr: SocketAddr = "127.0.0.1:7070".parse().unwrap();
    let mut q = serde_json::json!({});
    let obj = q.as_object_mut().unwrap();
    let mut op: Option<&str> = None;
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut set = |key: &str, v: serde_json::Value| {
            obj.insert(key.to_string(), v);
        };
        match flag.as_str() {
            "--addr" => addr = parse(args.next(), addr),
            "--stats" => op = Some("stats"),
            "--ping" => op = Some("ping"),
            "--model" => set("model", serde_json::json!(args.next().unwrap_or_default())),
            "--devices" => set("devices", serde_json::json!(parse(args.next(), 0u32))),
            "--b-hat" => set("b_hat", serde_json::json!(parse(args.next(), 0u64))),
            "--topology" => set(
                "topology",
                serde_json::json!(args.next().unwrap_or_default()),
            ),
            "--congestion-pct" => {
                set(
                    "congestion_pct",
                    serde_json::json!(parse(args.next(), 0u32)),
                );
            }
            "--mem-budget-bytes" => {
                set(
                    "mem_budget_bytes",
                    serde_json::json!(parse(args.next(), 0u64)),
                );
            }
            "--schemes" => set(
                "schemes",
                serde_json::json!(args
                    .next()
                    .unwrap_or_default()
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .collect::<Vec<_>>()),
            ),
            "--deadline-ms" => set("deadline_ms", serde_json::json!(parse(args.next(), 0u64))),
            _ => usage(),
        }
    }
    if let Some(op) = op {
        q = serde_json::json!({"op": op});
    }
    let mut client = PlanClient::connect(addr).unwrap_or_else(|e| {
        eprintln!("chimera-cli query: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    match client.query(q) {
        Ok(v) => {
            let ok = v["ok"].as_bool().unwrap_or(false);
            println!(
                "{}",
                serde_json::to_string_pretty(&v).unwrap_or_else(|_| v.to_string())
            );
            if !ok {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("chimera-cli query: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_simulate(mut args: std::env::Args) {
    let scheme = args.next().unwrap_or_else(|| usage());
    let model = model_spec(&args.next().unwrap_or_else(|| usage()));
    let p = parse(args.next(), 32u32);
    let d = parse(args.next(), 4u32);
    let b = parse(args.next(), 4u32);
    let b_hat = parse(args.next(), 512u64);
    if d == 0 || b == 0 || p < d {
        refuse(format_args!(
            "simulate needs D >= 1, B >= 1 and P >= D, got P={p} D={d} B={b}"
        ));
    }
    // The planner grid's rules: W·D = P, and N = B̂ / (W·B) micro-batches
    // make up exactly the B̂ samples the throughput is quoted for.
    if !p.is_multiple_of(d) {
        refuse(format_args!(
            "simulate needs P to be a multiple of D, got P={p} D={d}"
        ));
    }
    let w = p / d;
    let span = w as u64 * b as u64;
    let n = Some(b_hat / span)
        .filter(|&n| n > 0 && n * span == b_hat)
        .and_then(|n| u32::try_from(n).ok())
        .unwrap_or_else(|| {
            refuse(format_args!(
                "simulate needs B_hat to be a positive multiple of W*B = {span}, \
                 got B_hat={b_hat} (W={w} B={b})"
            ))
        });
    let base = build_schedule(&scheme, d, n);
    let replicas = base.placement.replicas();
    let sched = if base.flushes {
        place_sync(base, SyncStrategy::EagerOpt, UnitCosts::practical())
    } else {
        base
    };
    let cluster = ClusterSpec::piz_daint();
    let cost = TrainConfig {
        model,
        cluster,
        d,
        w,
        b,
        stage_replicas: replicas,
    }
    .cost_model();
    let rep = simulate(&sched, &cost).expect("simulates");
    let mem = memory_v2(&sched, &cost);
    println!(
        "{scheme} {} P={p} (W={w} D={d} B={b} N={n}):\n  iteration {:.4}s | {:.1} samples/s | bubble {:.3} | peak {:.2} GiB{}",
        model.name,
        rep.iter_time_s,
        rep.throughput(b_hat),
        rep.bubble_ratio,
        mem.max_exact_peak() as f64 / (1u64 << 30) as f64,
        if mem.fits(cluster.usable_mem()) { "" } else { "  [OOM]" }
    );
}

fn cmd_train(args: std::env::Args) {
    let mut positional = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut it = args;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => {
                trace_path = it.next();
                if trace_path.is_none() {
                    eprintln!("--trace needs a path");
                    usage();
                }
            }
            other if other.starts_with("--") => {
                eprintln!("unexpected flag: {other}");
                usage();
            }
            _ => positional.push(a),
        }
    }
    let mut positional = positional.into_iter();
    let d = parse(positional.next(), 4u32);
    let n = parse(positional.next(), d);
    let iterations = parse(positional.next(), 8u32);
    let cfg = ModelConfig {
        layers: d as usize,
        ..ModelConfig::tiny()
    };
    let sink = trace_path.as_ref().map(|_| Arc::new(BufferSink::new()));
    let opts = TrainOptions {
        micro_batch: 2,
        iterations,
        lr: 0.05,
        momentum: 0.9,
        data_seed: 7,
        trace: sink.clone().map(|s| s as _),
        ..TrainOptions::default()
    };
    let sched = build_schedule("chimera", d, n);
    let trace_out = trace_path.as_deref().map(|p| (p, create_output(p)));
    let result = train(&sched, cfg, opts.clone()).unwrap_or_else(|e| fail("training", e));
    if let (Some((path, out)), Some(sink)) = (trace_out, &sink) {
        let events = sink.drain();
        write_output(out, path, events_to_jsonl(&events).as_bytes());
        println!("trace: {} events -> {path}", events.len());
    }
    println!("Chimera D={d} N={n}, {iterations} iterations on {d} threads:");
    for (i, l) in result.iteration_losses.iter().enumerate() {
        println!("  iter {i:>3}: loss {l:.4}");
    }
    // Cross-check the last state against sequential SGD.
    let mut r = ReferenceTrainer::new(
        Stage::build_all(cfg, d),
        SyntheticData::new(cfg, opts.data_seed),
        opts.micro_batch,
        opts.lr,
        opts.momentum,
    );
    for it in 0..iterations {
        r.train_iteration(it as u64 * n as u64, n);
    }
    assert_eq!(result.flat_params(), r.flat_params());
    println!("✓ bit-identical to sequential mini-batch SGD");
}

/// Schemes swept by `verify` when no scheme is given. `chimera-f2` needs
/// `2 | D/2` and is skipped where that fails.
const VERIFY_SCHEMES: [&str; 9] = [
    "gpipe",
    "dapple",
    "gems",
    "pipedream",
    "pipedream-2bw",
    "chimera",
    "chimera-f2",
    "doubling",
    "halving",
];

/// Span iteration count matching what `build_schedule` generates: the
/// steady-state PipeDream schedules cover two iterations back to back.
fn verify_iterations(scheme: &str) -> u32 {
    if scheme.starts_with("pipedream") {
        2
    } else {
        1
    }
}

fn cmd_verify(args: std::env::Args) {
    let mut positional = Vec::new();
    let mut json = false;
    let mut liveness = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--liveness" => liveness = true,
            other if other.starts_with("--") => {
                eprintln!("unexpected flag: {other}");
                usage();
            }
            _ => positional.push(a),
        }
    }

    // `--liveness` prices the schedule with the Bert-48 byte model on the
    // Piz-Daint cluster spec — the same reference configuration the planner
    // and paper figures use — and checks the exact peak against its memory.
    let run_one = |sched: &Schedule, scheme: &str| -> VerifyReport {
        let iters = verify_iterations(scheme);
        if !liveness {
            return verify_span(sched, iters);
        }
        let cluster = ClusterSpec::piz_daint();
        let cfg = TrainConfig {
            model: ModelSpec::bert48(),
            cluster,
            d: sched.d,
            w: 1,
            b: 1,
            stage_replicas: sched.placement.replicas(),
        };
        verify_with_memory(sched, iters, &cfg.cost_model(), cluster.usable_mem())
    };

    let mut reports = Vec::new();
    match positional.first() {
        Some(scheme) => {
            let d = parse(positional.get(1).cloned(), 4u32);
            let n = parse(positional.get(2).cloned(), 2 * d);
            let sched = build_schedule(scheme, d, n);
            reports.push(run_one(&sched, scheme));
        }
        None => {
            for d in [2u32, 4, 8] {
                for scheme in VERIFY_SCHEMES {
                    if scheme == "chimera-f2" && (d / 2) % 2 != 0 {
                        continue;
                    }
                    let sched = build_schedule(scheme, d, 2 * d);
                    reports.push(run_one(&sched, scheme));
                }
            }
        }
    }

    let clean = reports.iter().all(chimera::verify::VerifyReport::is_clean);
    if json {
        let bodies: Vec<String> = reports
            .iter()
            .map(chimera::verify::VerifyReport::to_json)
            .collect();
        println!("[{}]", bodies.join(",\n"));
    } else {
        for r in &reports {
            println!("{r}");
        }
        println!(
            "{} schedule(s) verified: {}",
            reports.len(),
            if clean { "all clean" } else { "ERRORS FOUND" }
        );
    }
    if !clean {
        std::process::exit(1);
    }
}

/// `--flag value` pairs for the launch/worker subcommands.
fn parse_flags(args: std::env::Args) -> std::collections::HashMap<String, String> {
    let mut flags = std::collections::HashMap::new();
    let mut it = args.peekable();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            eprintln!("unexpected argument: {flag}");
            usage();
        };
        let Some(value) = it.next() else {
            eprintln!("--{name} needs a value");
            usage();
        };
        flags.insert(name.to_string(), value);
    }
    flags
}

fn flag<T: std::str::FromStr>(
    flags: &std::collections::HashMap<String, String>,
    name: &str,
    default: T,
) -> T {
    match flags.get(name) {
        Some(v) => v.parse().ok().unwrap_or_else(|| {
            eprintln!("bad value for --{name}");
            usage()
        }),
        None => default,
    }
}

/// The `--chaos-*` flags `launch` forwards verbatim to every worker.
const CHAOS_FLAGS: [&str; 6] = [
    "chaos-seed",
    "chaos-flaky",
    "chaos-dup",
    "chaos-reorder",
    "chaos-partition",
    "chaos-break",
];

/// Build the seeded network-chaos plan described by the `--chaos-*` flags.
/// With none present the plan is empty and `install_chaos` ignores it.
fn chaos_from_flags(flags: &std::collections::HashMap<String, String>) -> NetChaos {
    let mut plan = NetChaos::new(flag(flags, "chaos-seed", 1u64))
        .with_flaky(flag(flags, "chaos-flaky", 0.0))
        .with_duplicate(flag(flags, "chaos-dup", 0.0))
        .with_reorder(flag(flags, "chaos-reorder", 0.0));
    if let Some(win) = flags.get("chaos-partition") {
        let parsed = win
            .split_once(':')
            .and_then(|(s, l)| Some((s.parse().ok()?, l.parse().ok()?)));
        let Some((start, len)) = parsed else {
            eprintln!("--chaos-partition wants start:len (frame indices)");
            usage();
        };
        plan = plan.with_partition(start, len);
    }
    if flags.contains_key("chaos-break") {
        plan = plan.with_break_at(flag(flags, "chaos-break", 0u64));
    }
    plan
}

/// The fixed hyper-parameters `launch`/`worker` share — every process must
/// build the identical run for the bit-identity check to be meaningful.
fn launch_opts(iterations: u32) -> TrainOptions {
    TrainOptions {
        micro_batch: 2,
        iterations,
        lr: 0.05,
        momentum: 0.9,
        data_seed: 7,
        ..TrainOptions::default()
    }
}

fn launch_model(d: u32) -> ModelConfig {
    ModelConfig {
        layers: d as usize,
        ..ModelConfig::tiny()
    }
}

/// Spawn `P` worker processes over TCP, then verify the distributed result
/// is bit-identical to the in-process run of the same configuration.
fn cmd_launch(args: std::env::Args) {
    let flags = parse_flags(args);
    let workers: u32 = flag(&flags, "workers", 4);
    let d: u32 = flag(&flags, "d", workers);
    let n: u32 = flag(&flags, "n", d);
    let iterations: u32 = flag(&flags, "iters", 4);
    let transport = flags
        .get("transport")
        .map(String::as_str)
        .unwrap_or("tcp")
        .to_string();
    if workers == 0 || d == 0 || !workers.is_multiple_of(d) {
        eprintln!("--workers must be a positive multiple of --d (P = W·D)");
        std::process::exit(2);
    }
    let sched = build_schedule("chimera", d, n);
    let w = workers / d;
    let cfg = launch_model(d);
    let opts = launch_opts(iterations);
    let trace_dir = flags.get("trace").cloned();
    if let Some(dir) = &trace_dir {
        create_dir(dir);
    }

    let (dist_losses, dist_params) = match transport.as_str() {
        "local" => {
            let fault_flags = ["kill-rank", "kill-iter", "ckpt-dir", "stats-dir"];
            if fault_flags.iter().any(|f| flags.contains_key(*f))
                || CHAOS_FLAGS.iter().any(|f| flags.contains_key(*f))
            {
                eprintln!("fault-tolerance flags need --transport tcp");
                std::process::exit(2);
            }
            // One process, thread-per-worker over the in-process fabric —
            // the baseline the TCP path is checked against. All threads
            // share one trace clock, so no epoch rendezvous is needed.
            let sink = trace_dir.as_ref().map(|_| Arc::new(BufferSink::new()));
            let mut local_opts = opts.clone();
            local_opts.trace = sink.clone().map(|s| s as _);
            let trace_out = trace_dir.as_ref().map(|dir| {
                let path = format!("{dir}/trace.jsonl");
                let out = create_output(&path);
                (path, out)
            });
            let metrics_out = flags.get("metrics-out").map(|p| (p, create_output(p)));
            let result = train_hybrid(&sched, cfg, local_opts, w)
                .unwrap_or_else(|e| fail("in-process training", e));
            if let (Some((path, out)), Some(sink)) = (trace_out, &sink) {
                let events = sink.drain();
                write_output(out, &path, events_to_jsonl(&events).as_bytes());
                println!("trace: {} events -> {path}", events.len());
            }
            if let Some((path, out)) = metrics_out {
                // Single process: the "merged" view is just this process's
                // registry under rank 0.
                let snap = MetricsRegistry::global().snapshot();
                let totals = snap["counters"].clone();
                let merged = serde_json::json!({
                    "schema": "chimera-obs/metrics/v1",
                    "world": 1,
                    "ranks": {"0": snap},
                    "totals": totals,
                });
                write_output(out, path, merged.to_string().as_bytes());
                println!("metrics -> {path}");
            }
            (result.iteration_losses.clone(), result.flat_params())
        }
        "tcp" => {
            let exe = std::env::current_exe().expect("own executable path");
            let out_path =
                std::env::temp_dir().join(format!("chimera-launch-{}.bin", std::process::id()));

            // Fault-tolerance configuration. A requested kill (or an explicit
            // --ckpt-dir) turns on segment checkpointing so the gang restart
            // has a committed state to resume from; the checkpoint and stats
            // directories default to per-launch temp dirs.
            let kill_requested = flags.contains_key("kill-rank") || flags.contains_key("kill-iter");
            if flags.contains_key("kill-rank") != flags.contains_key("kill-iter") {
                eprintln!("--kill-rank and --kill-iter go together");
                std::process::exit(2);
            }
            let ckpt_dir_tmp = kill_requested && !flags.contains_key("ckpt-dir");
            let ckpt_dir = flags.get("ckpt-dir").cloned().or_else(|| {
                kill_requested.then(|| {
                    std::env::temp_dir()
                        .join(format!("chimera-ckpt-{}", std::process::id()))
                        .display()
                        .to_string()
                })
            });
            let ckpt_every: u32 = flag(&flags, "ckpt-every", 1);
            let max_respawns: u32 = flag(&flags, "max-respawns", 3);
            if let Some(dir) = &ckpt_dir {
                create_dir(dir);
            }
            let stats_dir_tmp = !flags.contains_key("stats-dir");
            let stats_dir = flags.get("stats-dir").cloned().unwrap_or_else(|| {
                std::env::temp_dir()
                    .join(format!("chimera-stats-{}", std::process::id()))
                    .display()
                    .to_string()
            });
            create_dir(&stats_dir);
            // Rank 0 writes the merged metrics; a path it could not write
            // fails here, before any worker is spawned.
            let metrics_out = flags.get("metrics-out");
            if let Some(out) = metrics_out.filter(|_| flags.contains_key("metrics-every")) {
                create_output(out);
            }

            // A free rendezvous port: bind ephemeral, remember, release.
            // Rank 0 rebinds it immediately, so reuse races are negligible.
            // Every gang restart picks a fresh one — the old port lingers
            // in TIME_WAIT.
            let fresh_coordinator = || -> SocketAddr {
                let l = TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral port");
                l.local_addr().expect("local addr")
            };
            let spawn_all = |coordinator: SocketAddr,
                             resume: bool,
                             arm_kill: bool|
             -> Vec<std::process::Child> {
                (0..workers)
                    .map(|rank| {
                        let mut cmd = std::process::Command::new(&exe);
                        cmd.arg("worker")
                            .args(["--rank", &rank.to_string()])
                            .args(["--workers", &workers.to_string()])
                            .args(["--d", &d.to_string()])
                            .args(["--n", &n.to_string()])
                            .args(["--iters", &iterations.to_string()])
                            .args(["--coordinator", &coordinator.to_string()])
                            .args(["--stats", &format!("{stats_dir}/stats-rank{rank}.json")]);
                        if rank == 0 {
                            cmd.args(["--out", &out_path.display().to_string()]);
                        }
                        if let Some(dir) = &ckpt_dir {
                            cmd.args(["--ckpt-dir", dir])
                                .args(["--ckpt-every", &ckpt_every.to_string()]);
                        }
                        if resume {
                            cmd.args(["--resume", "1"]);
                        }
                        if arm_kill {
                            if let (Some(r), Some(i)) =
                                (flags.get("kill-rank"), flags.get("kill-iter"))
                            {
                                cmd.args(["--kill-rank", r]).args(["--kill-iter", i]);
                            }
                        }
                        for f in CHAOS_FLAGS {
                            if let Some(v) = flags.get(f) {
                                cmd.args([&format!("--{f}"), v]);
                            }
                        }
                        if let Some(dir) = &trace_dir {
                            cmd.args(["--trace", &format!("{dir}/trace-rank{rank}.jsonl")]);
                        }
                        if let Some(every) = flags.get("metrics-every") {
                            cmd.args(["--metrics-every", every]);
                            if rank == 0 {
                                if let Some(out) = flags.get("metrics-out") {
                                    cmd.args(["--metrics-out", out]);
                                }
                                if let Some(port) = flags.get("metrics-port") {
                                    cmd.args(["--metrics-port", port]);
                                }
                            }
                        }
                        cmd.spawn().expect("spawn worker process")
                    })
                    .collect()
            };

            // Supervisor loop: poll the gang; on any non-zero exit (a killed
            // rank, or a rank that exited because the failure detector
            // declared a peer dead), kill the survivors and gang-restart
            // from the newest committed segment. The kill fault is armed
            // only on the first incarnation so it cannot re-fire on replay.
            let mut respawns = 0u32;
            let mut children = spawn_all(fresh_coordinator(), false, true);
            loop {
                std::thread::sleep(std::time::Duration::from_millis(30));
                let mut dead: Option<(usize, std::process::ExitStatus)> = None;
                let mut running = 0u32;
                for (rank, child) in children.iter_mut().enumerate() {
                    match child.try_wait().expect("poll worker") {
                        Some(status) if !status.success() => {
                            dead = Some((rank, status));
                            break;
                        }
                        Some(_) => {}
                        None => running += 1,
                    }
                }
                if let Some((rank, status)) = dead {
                    eprintln!("supervisor: rank {rank} died ({status}); gang-restarting");
                    for child in &mut children {
                        let _ = child.kill();
                    }
                    for child in &mut children {
                        let _ = child.wait();
                    }
                    respawns += 1;
                    if respawns > max_respawns {
                        eprintln!("supervisor: gave up after {max_respawns} respawns");
                        std::process::exit(1);
                    }
                    if ckpt_dir.is_none() {
                        eprintln!("supervisor: no --ckpt-dir, restarting from scratch");
                    }
                    children = spawn_all(fresh_coordinator(), ckpt_dir.is_some(), false);
                    continue;
                }
                if running == 0 {
                    break;
                }
            }

            let outcome = std::fs::read(&out_path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| DistOutcome::decode(&bytes).map_err(|e| e.to_string()));
            let _ = std::fs::remove_file(&out_path);
            let outcome = outcome.unwrap_or_else(|e| {
                eprintln!("✗ rank 0 result file {}: {e}", out_path.display());
                std::process::exit(1);
            });
            if let Some(dir) = &trace_dir {
                println!("trace: per-rank files in {dir}/trace-rank*.jsonl (shared time axis)");
            }

            // Aggregate the per-rank session counters into one recovery line.
            let mut total = [0u64; 4]; // reconnects, retransmits, dup_dropped, chaos_events
            for rank in 0..workers {
                let path = format!("{stats_dir}/stats-rank{rank}.json");
                let Ok(body) = std::fs::read_to_string(&path) else {
                    continue;
                };
                if let Ok(v) = serde_json::from_str(&body) {
                    for (slot, field) in
                        ["reconnects", "retransmits", "dup_dropped", "chaos_events"]
                            .iter()
                            .enumerate()
                    {
                        total[slot] += v
                            .get(field)
                            .and_then(serde_json::Value::as_u64)
                            .unwrap_or(0);
                    }
                }
            }
            let recoveries = respawns as u64 + total[0];
            println!(
                "recoveries: {recoveries} (respawns {respawns}, reconnects {}, retransmits {}, \
                 dup_dropped {}, chaos_events {})",
                total[0], total[1], total[2], total[3]
            );
            if kill_requested && respawns == 0 {
                eprintln!("✗ --kill-rank was requested but no worker died");
                std::process::exit(1);
            }
            if ckpt_dir_tmp {
                if let Some(dir) = &ckpt_dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
            if stats_dir_tmp {
                let _ = std::fs::remove_dir_all(&stats_dir);
            }

            (outcome.iteration_losses, outcome.flat_params)
        }
        other => {
            eprintln!("unknown transport {other:?} (use tcp or local)");
            std::process::exit(2);
        }
    };

    println!("chimera launch: {workers} {transport} workers (W={w} D={d} N={n}), {iterations} iterations:");
    for (i, l) in dist_losses.iter().enumerate() {
        println!("  iter {i:>3}: loss {l:.4}");
    }

    // Re-run the identical configuration in-process and demand bitwise
    // agreement.
    let reference =
        train_hybrid(&sched, cfg, opts, w).unwrap_or_else(|e| fail("in-process training", e));
    let ref_params = reference.flat_params();
    let params_match = dist_params.len() == ref_params.len()
        && dist_params
            .iter()
            .zip(&ref_params)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let losses_match = dist_losses.len() == reference.iteration_losses.len()
        && dist_losses
            .iter()
            .zip(&reference.iteration_losses)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !params_match || !losses_match {
        eprintln!(
            "✗ {transport} run diverged from the in-process run (params match: \
             {params_match}, losses match: {losses_match})"
        );
        std::process::exit(1);
    }
    println!(
        "✓ bit-identical to the in-process run ({} parameters)",
        ref_params.len()
    );
}

/// One spawned worker process (hidden subcommand used by `launch`).
fn cmd_worker(args: std::env::Args) {
    let flags = parse_flags(args);
    let rank: u32 = flag(&flags, "rank", 0);
    let workers: u32 = flag(&flags, "workers", 1);
    let d: u32 = flag(&flags, "d", workers);
    let n: u32 = flag(&flags, "n", d);
    let iterations: u32 = flag(&flags, "iters", 4);
    let coordinator: SocketAddr = match flags.get("coordinator").map(|s| s.parse()) {
        Some(Ok(a)) => a,
        _ => {
            eprintln!("worker needs --coordinator <addr>");
            std::process::exit(2);
        }
    };
    let sched = build_schedule("chimera", d, n);
    let w = workers / d;
    let mut tcp_ep = match TcpFabric::connect(TcpConfig::new(rank, workers, coordinator)) {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("rank {rank}: joining fabric failed: {e}");
            std::process::exit(1);
        }
    };
    // Arm the seeded chaos plan before the endpoint is shared; an empty
    // plan (no --chaos-* flags) is ignored.
    tcp_ep.install_chaos(chaos_from_flags(&flags));
    let tcp_ep = Arc::new(tcp_ep);
    let ep = tcp_ep.clone() as Arc<dyn Transport>;
    // Failure-detector watchdog: when the heartbeat detector declares a
    // previously-heard peer dead, exit with a distinctive status instead of
    // blocking until the recv deadline — the supervisor reads any non-zero
    // exit as "gang-restart now". Disarmed once training finishes, so ranks
    // draining final results at slightly different times don't misfire.
    let training_done = Arc::new(AtomicBool::new(false));
    {
        let done = training_done.clone();
        let tep = tcp_ep.clone();
        std::thread::spawn(move || loop {
            if done.load(Ordering::Relaxed) {
                return;
            }
            for peer in 0..workers {
                if peer != rank && tep.liveness(peer) == Liveness::Dead {
                    eprintln!("rank {rank}: failure detector declared rank {peer} dead");
                    std::process::exit(17);
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }
    // Live metrics: non-zero ranks publish registry snapshots to rank 0
    // over the fabric; rank 0 aggregates, optionally serves them over
    // HTTP during the run, and writes the final merged view at exit.
    let metrics_every_ms: u64 = flag(&flags, "metrics-every", 0u64);
    let mut publisher = None;
    let mut aggregator: Option<Arc<MetricsAggregator>> = None;
    let mut server = None;
    if metrics_every_ms > 0 {
        if rank == 0 {
            let agg = Arc::new(MetricsAggregator::spawn(
                ep.clone(),
                MetricsRegistry::global(),
            ));
            if let Some(port) = flags.get("metrics-port") {
                let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap_or_else(|_| {
                    eprintln!("bad value for --metrics-port");
                    std::process::exit(2);
                });
                let agg2 = agg.clone();
                match MetricsServer::serve(addr, move || agg2.merged()) {
                    Ok(s) => {
                        eprintln!("rank 0: serving metrics on http://{}", s.addr);
                        server = Some(s);
                    }
                    Err(e) => eprintln!("rank 0: metrics server bind failed: {e}"),
                }
            }
            aggregator = Some(agg);
        } else {
            publisher = Some(MetricsPublisher::spawn(
                ep.clone(),
                MetricsRegistry::global(),
                std::time::Duration::from_millis(metrics_every_ms),
            ));
        }
    }
    let trace_path = flags.get("trace").cloned();
    let mut opts = launch_opts(iterations);
    // An injected crash: map the victim's global rank onto its (group,
    // local worker) coordinates. Only the targeted worker fires; `launch`
    // omits these flags on respawn so the kill cannot recur on replay.
    if let (Some(kr), Some(ki)) = (flags.get("kill-rank"), flags.get("kill-iter")) {
        let (Ok(kr), Ok(ki)) = (kr.parse::<u32>(), ki.parse::<u32>()) else {
            eprintln!("bad value for --kill-rank/--kill-iter");
            usage();
        };
        let per_group = sched.num_workers() as u32;
        opts.fault = Some(FaultSpec::kill_at(kr / per_group, kr % per_group, ki));
    }
    // Segment checkpointing + resume (the worker half of the supervisor's
    // gang-restart protocol).
    let recovery = flags.get("ckpt-dir").map(|dir| RecoverySpec {
        dir: PathBuf::from(dir),
        every: flag(&flags, "ckpt-every", 1u32),
        resume: flag(&flags, "resume", 0u32) != 0,
    });
    let sink = trace_path.as_ref().map(|_| Arc::new(BufferSink::new()));
    // Every output this rank writes after training, opened before it.
    let output = |name: &str| flags.get(name).map(|p| (p.as_str(), create_output(p)));
    let result_out = output("out");
    let stats_out = output("stats");
    let trace_out = output("trace");
    let metrics_out = aggregator.as_ref().and_then(|_| output("metrics-out"));
    let mut clock = ClockSync::identity();
    if let Some(s) = &sink {
        opts.trace = Some(s.clone());
        // Agree on a shared trace epoch before training. This is a
        // collective over the whole fabric: `launch` passes --trace to
        // every rank or to none. Pin this process's local epoch first so
        // the offset measured here is the one events are stamped against.
        let _ = now_ns();
        clock = match rendezvous_epoch(ep.as_ref(), &now_ns, opts.recv_timeout) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("rank {rank}: trace clock rendezvous failed: {e}");
                std::process::exit(1);
            }
        };
    }
    match train_worker_process_recoverable(ep, &sched, launch_model(d), opts, w, recovery.as_ref())
    {
        Ok(Some(outcome)) => {
            if let Some((path, out)) = result_out {
                write_output(out, path, &outcome.encode());
            }
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("rank {rank}: training failed: {e}");
            std::process::exit(1);
        }
    }
    training_done.store(true, Ordering::Relaxed);
    // Land every still-unacknowledged frame (final gather results, last
    // pipeline messages) before this process exits — a dead process can
    // never retransmit, and that is the one loss the session cannot heal.
    if !tcp_ep.drain_unacked(std::time::Duration::from_secs(5)) {
        eprintln!("rank {rank}: exiting with unacknowledged frames (peer gone?)");
    }
    if let Some((path, out)) = stats_out {
        let s = tcp_ep.session_stats();
        let stats = serde_json::json!({
            "schema": "chimera-comm/session/v1",
            "rank": rank,
            "reconnects": s.reconnects,
            "retransmits": s.retransmits,
            "dup_dropped": s.dup_dropped,
            "chaos_events": s.chaos_events,
            "heartbeats_sent": s.heartbeats_sent,
        });
        write_output(out, path, stats.to_string().as_bytes());
    }
    if let (Some((path, out)), Some(sink)) = (trace_out, &sink) {
        // Export on the shared time axis: shift every event by this rank's
        // measured clock offset and stamp the rank as the process group, so
        // per-rank files overlay coherently in one viewer.
        let mut events = sink.drain();
        for ev in &mut events {
            ev.shift_ns(clock.offset_ns);
            match ev {
                chimera::trace::Event::Span(s) => s.pid = rank,
                chimera::trace::Event::Counter(c) => c.pid = rank,
            }
        }
        write_output(out, path, events_to_jsonl(&events).as_bytes());
    }
    if let Some(p) = publisher {
        p.stop(); // sends the final snapshot
    }
    if let Some(agg) = aggregator {
        // Give the other ranks' final snapshots a moment to arrive.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let merged = agg.stop();
        if let Some((path, out)) = metrics_out {
            write_output(out, path, merged.to_string().as_bytes());
            eprintln!("rank 0: metrics -> {path}");
        } else {
            println!("{merged}");
        }
    }
    drop(server);
}

/// Read `calibration.bwd_over_fwd` from a `fig_kernels` results artifact
/// (`BENCH_kernels.json`) and build the matching unit costs.
fn load_calibrated_costs(path: &str) -> Result<UnitCosts, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc: serde_json::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let ratio = doc["calibration"]["bwd_over_fwd"]
        .as_f64()
        .ok_or("missing calibration.bwd_over_fwd (regenerate with fig_kernels)")?;
    Ok(UnitCosts::calibrated(ratio))
}

/// Profile one or more trace files: exclusive bubble attribution, critical
/// path, optional drift against the unit-cost simulation (optionally under
/// kernel-calibrated costs), and α-β comm residuals when the comm-overhead
/// benchmark results are on disk.
fn cmd_profile(args: std::env::Args) {
    let mut paths = Vec::new();
    let mut json = false;
    let mut sim: Option<(String, u32, u32)> = None;
    let mut calibration: Option<String> = None;
    let mut it = args;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--sim" => {
                let scheme = it.next().unwrap_or_else(|| usage());
                let d = parse(it.next(), 0u32);
                let n = parse(it.next(), 0u32);
                if d == 0 || n == 0 {
                    eprintln!("--sim needs <scheme> <D> <N>");
                    usage();
                }
                // A shape the generator rejects is refused before any trace is read.
                build_schedule(&scheme, d, n);
                sim = Some((scheme, d, n));
            }
            "--calibration" => {
                calibration = Some(it.next().unwrap_or_else(|| usage()));
            }
            other if other.starts_with("--") => {
                eprintln!("unexpected flag: {other}");
                usage();
            }
            _ => paths.push(a),
        }
    }
    if paths.is_empty() {
        eprintln!("profile needs at least one trace file");
        usage();
    }
    let mut events = Vec::new();
    for p in &paths {
        match read_jsonl(p) {
            Ok(mut ev) => events.append(&mut ev),
            Err(e) => {
                eprintln!("{p}: {e}");
                std::process::exit(1);
            }
        }
    }
    // A kernel-bench artifact (BENCH_kernels.json) carries the measured
    // bwd/fwd ratio of the packed kernels; drifting against calibrated
    // costs asks "does the pipeline behave as *this machine's* kernels
    // predict" instead of assuming the textbook 2x backward.
    let costs = match &calibration {
        Some(path) => match load_calibrated_costs(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("--calibration {path}: {e}");
                std::process::exit(1);
            }
        },
        None => UnitCosts::practical(),
    };
    let drift_report = sim.map(|(scheme, d, n)| {
        drift_with_costs(&events, &scheme, d, n, costs).unwrap_or_else(|e| {
            eprintln!("drift: {e}");
            std::process::exit(1);
        })
    });
    let mut report = profile(&events, drift_report);
    if let Ok(fits) = load_comm_fits("results/comm_overhead.json") {
        report = report.with_residuals(&events, &fits);
    }
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{report}");
    }
}

/// Measure tracing overhead: best-of-R wall clock of the same in-process
/// training run with the trace sink off and on.
fn cmd_overhead(args: std::env::Args) {
    let mut positional = Vec::new();
    let mut repeats = 3u32;
    let mut it = args;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--repeats" => repeats = parse(it.next(), 3u32),
            other if other.starts_with("--") => {
                eprintln!("unexpected flag: {other}");
                usage();
            }
            _ => positional.push(a),
        }
    }
    let mut positional = positional.into_iter();
    let d = parse(positional.next(), 4u32);
    let n = parse(positional.next(), d);
    let iterations = parse(positional.next(), 8u32);
    // A heavier-than-tiny model so per-op compute dominates fixed costs:
    // the overhead fraction then reflects real workloads instead of the
    // clock-read/event-construction floor of microsecond toy ops.
    let cfg = ModelConfig {
        layers: d as usize,
        hidden: 64,
        seq: 16,
        vocab: 64,
        heads: 4,
        ..ModelConfig::tiny()
    };
    let sched = build_schedule("chimera", d, n);
    let mut events_captured = 0usize;
    let mut run = |traced: bool| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..repeats.max(1) {
            let sink = traced.then(|| Arc::new(BufferSink::new()));
            let opts = TrainOptions {
                micro_batch: 2,
                iterations,
                lr: 0.05,
                momentum: 0.9,
                data_seed: 7,
                trace: sink.clone().map(|s| s as _),
                ..TrainOptions::default()
            };
            let t0 = std::time::Instant::now();
            train(&sched, cfg, opts).unwrap_or_else(|e| fail("training", e));
            best = best.min(t0.elapsed().as_secs_f64());
            if let Some(s) = &sink {
                events_captured = s.drain().len();
            }
        }
        best
    };
    let baseline_s = run(false);
    let traced_s = run(true);
    let overhead_frac = traced_s / baseline_s - 1.0;
    println!(
        "{}",
        serde_json::json!({
            "schema": "chimera-obs/overhead/v1",
            "d": d,
            "n": n,
            "iterations": iterations,
            "repeats": repeats,
            "events": events_captured,
            "baseline_s": baseline_s,
            "traced_s": traced_s,
            "overhead_frac": overhead_frac,
        })
    );
}

fn main() {
    let mut args = std::env::args();
    let _ = args.next();
    match args.next().as_deref() {
        Some("render") => cmd_render(args),
        Some("plan") => cmd_plan(args),
        Some("serve") => cmd_serve(args),
        Some("query") => cmd_query(args),
        Some("simulate") => cmd_simulate(args),
        Some("train") => cmd_train(args),
        Some("launch") => cmd_launch(args),
        Some("worker") => cmd_worker(args),
        Some("verify") => cmd_verify(args),
        Some("profile") => cmd_profile(args),
        Some("overhead-check") => cmd_overhead(args),
        _ => usage(),
    }
}
