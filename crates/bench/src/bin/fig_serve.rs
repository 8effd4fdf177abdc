//! Load generator for the planning service (`results/serve_load.json`; a
//! `--smoke` run writes `target/smoke/results/serve_load.json` instead,
//! because committed results are full runs only).
//!
//! Drives a `chimera-serve` plan server — an in-process one on an ephemeral
//! port by default, or an already-running one via `--addr` (the CI smoke
//! job uses that) — through two phases:
//!
//! 1. **warm**: every query in the working set once, sequentially, so each
//!    distinct cache key runs its search exactly once;
//! 2. **load**: many client connections, each pipelining a batch of queries
//!    drawn deterministically from the working set, all in flight
//!    concurrently. This is the cache + coalescing + admission-control path
//!    the service exists for.
//!
//! Reported: sustained throughput, client-observed p50/p90/p99 latency,
//! server cache hit rate, and a verification sweep (every response must be
//! `ok` with only `verified: true` schedules). `--check` turns violations
//! (or a cold cache, or a blown p99 bound) into exit status 1.
//!
//! ```text
//! fig_serve [--smoke] [--check] [--addr host:port] [--conns N]
//!           [--per-conn N] [--p99-ms MS]
//! ```

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use chimera_bench::{arg_value, output_root, print_table, write_json};
use chimera_serve::engine::{PlanEngine, ServeConfig};
use chimera_serve::search::RealSearcher;
use chimera_serve::server::PlanServer;
use chimera_serve::PlanClient;
use serde_json::Value;

/// The working set: small-`P` queries (fast to search even on one core)
/// spread over topologies and scheme filters, so the warm phase is cheap
/// and the load phase exercises a realistically mixed cache.
fn working_set() -> Vec<Value> {
    let mut qs = Vec::new();
    for topology in [
        "piz-daint",
        "fat-tree",
        "dragonfly",
        "rail-optimized",
        "v100",
    ] {
        for schemes in [["chimera"], ["gpipe"], ["dapple"], ["pipedream-2bw"]] {
            for devices in [4u32, 8] {
                qs.push(serde_json::json!({
                    "model": "bert48",
                    "devices": devices,
                    "b_hat": 32,
                    "topology": topology,
                    "schemes": schemes,
                }));
            }
        }
    }
    qs
}

/// Deterministic index stream (LCG) so runs are reproducible.
fn pick(seed: u64, n: usize) -> usize {
    let x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((x >> 33) as usize) % n
}

fn check_response(v: &Value) -> Result<(), String> {
    if v["ok"] != serde_json::json!(true) {
        return Err(format!("response not ok: {v}"));
    }
    if v["schema"].as_str() != Some("chimera-serve/plan/v1") {
        return Err(format!("bad schema: {:?}", v["schema"]));
    }
    let results = v["results"].as_array().ok_or("results not an array")?;
    if results.is_empty() {
        return Err("no feasible schedule in response".into());
    }
    for r in results {
        if r["verified"] != serde_json::json!(true) {
            return Err(format!("unverified schedule served: {r}"));
        }
        // Every served plan carries its exact liveness peak.
        if r["memory"]["schema"].as_str() != Some("memory/v2") {
            return Err(format!("missing memory/v2 summary: {r}"));
        }
        let exact = r["memory"]["exact_peak_bytes"].as_u64().unwrap_or(0);
        let coarse_slack = r["memory"]["min_slack_ratio"].as_f64().unwrap_or(0.0);
        if exact == 0 || coarse_slack < 1.0 {
            return Err(format!("implausible memory/v2 summary: {r}"));
        }
    }
    Ok(())
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx] as f64 / 1000.0
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let check = std::env::args().any(|a| a == "--check");
    let external: Option<SocketAddr> = arg_value("--addr").and_then(|s| s.parse().ok());
    let conns: usize = arg_value("--conns")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 8 } else { 20 });
    let per_conn: usize = arg_value("--per-conn")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 25 } else { 50 });
    let p99_bound_ms: f64 = arg_value("--p99-ms")
        .and_then(|s| s.parse().ok())
        .unwrap_or(5000.0);

    // In-process server unless --addr points at a running one. The queue
    // must admit the whole blast: this bench measures sustained concurrent
    // load, not admission control (the engine tests cover shedding).
    let queue_cap = (conns * per_conn).max(256);
    let local = external.map_or_else(
        || {
            let engine = PlanEngine::start(
                ServeConfig {
                    queue_cap,
                    ..ServeConfig::default()
                },
                Box::new(RealSearcher {
                    measured_floor: chimera_serve::load_measured_floor(
                        "results/comm_overhead.json",
                    ),
                }),
            );
            let server =
                PlanServer::bind("127.0.0.1:0".parse().unwrap(), engine.clone()).expect("bind");
            Some((engine, server))
        },
        |_| None,
    );
    let addr = external.unwrap_or_else(|| local.as_ref().unwrap().1.addr);
    let mode = if external.is_some() {
        "external"
    } else {
        "in-process"
    };

    let set = working_set();

    // Phase 1: warm every key once, sequentially.
    let mut client = PlanClient::connect(addr).expect("connect");
    let t0 = Instant::now();
    let mut warm_errors = 0usize;
    for q in &set {
        let v = client.query(q.clone()).expect("warm query");
        if let Err(e) = check_response(&v) {
            eprintln!("warm: {e}");
            warm_errors += 1;
        }
    }
    let warm_s = t0.elapsed().as_secs_f64();

    // Phase 2: concurrent pipelined load.
    let set = Arc::new(set);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let set = set.clone();
            std::thread::spawn(move || {
                let mut client = PlanClient::connect(addr).expect("connect");
                let mut sent = Vec::with_capacity(per_conn);
                for i in 0..per_conn {
                    let q = set[pick((c * per_conn + i + 1) as u64, set.len())].clone();
                    let id = client.send(q).expect("send");
                    sent.push((id, Instant::now()));
                }
                let mut latencies_us = Vec::with_capacity(per_conn);
                let mut errors = 0usize;
                let mut hits = 0usize;
                for (id, sent_at) in sent {
                    let v = client.recv(id).expect("recv");
                    latencies_us.push(sent_at.elapsed().as_micros() as u64);
                    if check_response(&v).is_err() {
                        errors += 1;
                    }
                    if v["cached"] == serde_json::json!(true) {
                        hits += 1;
                    }
                }
                (latencies_us, errors, hits)
            })
        })
        .collect();
    let mut latencies_us: Vec<u64> = Vec::with_capacity(conns * per_conn);
    let mut load_errors = 0usize;
    let mut client_hits = 0usize;
    for h in handles {
        let (lat, errors, hits) = h.join().expect("load thread");
        latencies_us.extend(lat);
        load_errors += errors;
        client_hits += hits;
    }
    let load_s = t0.elapsed().as_secs_f64();
    let total = conns * per_conn;
    let throughput = total as f64 / load_s;
    latencies_us.sort_unstable();
    let p50 = percentile(&latencies_us, 0.50);
    let p90 = percentile(&latencies_us, 0.90);
    let p99 = percentile(&latencies_us, 0.99);
    let mean_ms =
        latencies_us.iter().sum::<u64>() as f64 / latencies_us.len().max(1) as f64 / 1000.0;

    let stats = client.stats().expect("stats");
    let hit_rate = stats["hit_rate"].as_f64().unwrap_or(0.0);

    print_table(
        &format!("serve load ({mode}, {conns} conns x {per_conn} queries)"),
        &["phase", "queries", "seconds", "qps", "p50 ms", "p99 ms"],
        &[
            vec![
                "warm".into(),
                set.len().to_string(),
                format!("{warm_s:.2}"),
                format!("{:.1}", set.len() as f64 / warm_s),
                "-".into(),
                "-".into(),
            ],
            vec![
                "load".into(),
                total.to_string(),
                format!("{load_s:.2}"),
                format!("{throughput:.1}"),
                format!("{p50:.2}"),
                format!("{p99:.2}"),
            ],
        ],
    );
    println!(
        "server: hit_rate {:.3}, hits {} / coalesced {} / misses {}, shed {}, errors {}",
        hit_rate,
        stats["hits"],
        stats["coalesced"],
        stats["misses"],
        stats["shed"],
        stats["errors"],
    );

    let mut checks: Vec<(String, bool)> = vec![
        (
            format!(
                "all {total} load + {} warm responses ok & verified",
                set.len()
            ),
            warm_errors == 0 && load_errors == 0,
        ),
        (format!("cache hit rate {hit_rate:.3} > 0"), hit_rate > 0.0),
        (
            format!("p99 {p99:.1} ms <= {p99_bound_ms:.0} ms"),
            p99 <= p99_bound_ms,
        ),
    ];
    if !smoke {
        checks.push((
            format!("sustained {total} concurrent queries >= 1000"),
            total >= 1000,
        ));
    }

    write_json(
        &output_root(smoke).join("results"),
        "serve_load",
        &serde_json::json!({
            "mode": mode,
            "config": {
                "connections": conns,
                "queries_per_conn": per_conn,
                "total": total,
                "working_set": set.len(),
                "smoke": smoke,
            },
            "warm": {"queries": set.len(), "seconds": warm_s, "errors": warm_errors},
            "load": {
                "total": total,
                "errors": load_errors,
                "seconds": load_s,
                "throughput_qps": throughput,
                "client_observed_hits": client_hits,
                "latency_ms": {"mean": mean_ms, "p50": p50, "p90": p90, "p99": p99},
            },
            "server_stats": stats,
            "checks_ok": checks.iter().all(|(_, ok)| *ok),
        }),
    );

    if let Some((engine, server)) = local {
        server.stop();
        engine.shutdown();
    }

    let mut failed = false;
    for (what, ok) in checks {
        println!("[{}] {what}", if ok { "ok" } else { "FAIL" });
        failed |= !ok;
    }
    if check && failed {
        std::process::exit(1);
    }
}
