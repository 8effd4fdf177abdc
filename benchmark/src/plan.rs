//! `plan_cold`: one closed-loop client asking a cold planning service for
//! distinct plans.
//!
//! A *pass* starts a fresh `PlanEngine` (one search worker, so the client
//! and the search never use more than the machine's two cores), warms it
//! with one query that is not part of the set, and then submits the 30
//! queries of one network preset — every scheme filter × every shape — in
//! an order drawn from the seed. All queries of a pass are distinct, so
//! every one misses the cache and runs the full sim + perf + verify + core
//! path. Passes cycle through the five presets until the `--seconds` window
//! is used up; five passes make the whole set of 150 distinct queries. The
//! presets cost the same to plan for (within 4 % of each other), so where
//! the window ends does not change the latency distribution.

use std::sync::atomic::Ordering;
use std::time::Instant;

use chimera::core::baselines::{dapple, gpipe};
use chimera::core::chimera::{chimera, ChimeraConfig, ScaleMethod};
use chimera::core::schedule::Schedule;
use chimera::perf::planner::rebuild;
use chimera::perf::{best, plan_chimera, PlanScheme};
use chimera::serve::search::resolve_cluster;
use chimera::serve::{PlanEngine, PlanQuery, QueryLimits, RealSearcher, Searcher, ServeConfig};
use chimera::sim::simulate_span;
use chimera::tensor::Rng;
use chimera::verify::{memory_v2, verify_with_memory};
use serde_json::Value;

use crate::host::{self, Paced};
use crate::layers::{reps, sample, timed, unit_time_bubble};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{highest_percentile, median, percentile};

/// Network presets a query may name (all the service knows).
pub const TOPOLOGIES: [&str; 5] = [
    "piz-daint",
    "v100",
    "fat-tree",
    "dragonfly",
    "rail-optimized",
];
/// Scheme filters: the paper's scheme, its baselines, and a two-scheme
/// comparison.
pub const FILTERS: [&[&str]; 5] = [
    &["chimera"],
    &["dapple"],
    &["gpipe"],
    &["pipedream-2bw"],
    &["chimera", "dapple"],
];
/// `(model, devices, mini-batch)` of a query.
pub const SHAPES: [(&str, u32, u64); 6] = [
    ("bert48", 4, 32),
    ("bert48", 8, 64),
    ("bert48", 16, 128),
    ("gpt2", 8, 32),
    ("gpt2-32", 16, 64),
    ("gpt2-32", 8, 32),
];
/// Fixed percentile reported as `op_ms_tail` here: a run of a few seconds
/// takes well over the 100 queries that leave ten beyond p90.
pub const TAIL: f64 = 0.90;

/// One plan query, before it becomes JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Index into [`TOPOLOGIES`].
    pub topology: usize,
    /// Index into [`FILTERS`].
    pub filter: usize,
    /// Index into [`SHAPES`].
    pub shape: usize,
}

impl Query {
    /// The JSON the service parses.
    pub fn to_json(&self, id: u64) -> Value {
        let (model, devices, b_hat) = SHAPES[self.shape];
        serde_json::json!({
            "id": id,
            "model": model,
            "devices": devices,
            "b_hat": b_hat,
            "topology": TOPOLOGIES[self.topology],
            "schemes": FILTERS[self.filter].to_vec(),
        })
    }
}

/// The queries of pass `pass`: every filter × shape on one preset, in the
/// order `(seed, pass)` draws (Fisher–Yates over the program's own seeded
/// generator). Presets rotate from a seed-drawn start, so any five
/// consecutive passes hold each of the 150 distinct queries once.
pub fn queries(seed: u64, pass: u64) -> Vec<Query> {
    let topology = ((seed + pass) % TOPOLOGIES.len() as u64) as usize;
    let mut all = Vec::with_capacity(FILTERS.len() * SHAPES.len());
    for filter in 0..FILTERS.len() {
        for shape in 0..SHAPES.len() {
            all.push(Query {
                topology,
                filter,
                shape,
            });
        }
    }
    let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ pass);
    for i in (1..all.len()).rev() {
        all.swap(i, rng.below(i as u32 + 1) as usize);
    }
    all
}

/// The warm-up query of every pass: a scheme no filter of the set names, so
/// it fills no cache entry a measured query could hit.
fn warm_up_query() -> Value {
    serde_json::json!({
        "id": "warm-up",
        "model": "bert48",
        "devices": 8,
        "b_hat": 32,
        "schemes": ["gems"],
    })
}

/// Set-up of a pass: a cold service with one search worker that has
/// answered its warm-up query.
pub fn start_engine(out: &mut Outcome) -> std::sync::Arc<PlanEngine> {
    let engine = PlanEngine::start(
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
        Box::new(RealSearcher {
            measured_floor: None,
        }),
    );
    let warm = engine.submit_blocking(warm_up_query());
    out.check(warm.is_ok(), || format!("warm-up query: {warm:?}"));
    engine
}

/// Whether `response` is a served plan: `ok`, at least one result, every
/// result verified, and from the cache exactly when `want_cached`.
pub fn plan_is_good(response: &Value, want_cached: bool) -> Result<(), String> {
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err("response is not ok".to_string());
    }
    if response.get("cached").and_then(Value::as_bool) != Some(want_cached) {
        return Err(format!("cached is not {want_cached}"));
    }
    let results = response
        .get("results")
        .and_then(Value::as_array)
        .ok_or("no results list")?;
    if results.is_empty() {
        return Err("no feasible plan".to_string());
    }
    if results
        .iter()
        .any(|r| r.get("verified").and_then(Value::as_bool) != Some(true))
    {
        return Err("a served plan is not verified".to_string());
    }
    Ok(())
}

/// Submit `query`; a failure is counted in `out`.
pub fn checked_query(
    engine: &PlanEngine,
    query: &Query,
    id: u64,
    want_cached: bool,
    out: &mut Outcome,
) {
    let response = engine.submit_blocking(query.to_json(id));
    let verdict = match &response {
        Ok(v) => plan_is_good(v, want_cached),
        Err(e) => Err(e.to_string()),
    };
    out.check(verdict.is_ok(), || {
        format!("query {id} {query:?}: {}", verdict.expect_err("a failure"))
    });
}

/// Submit `query` and time it.
pub fn timed_query(
    engine: &PlanEngine,
    query: &Query,
    id: u64,
    want_cached: bool,
    out: &mut Outcome,
) -> f64 {
    timed(|| checked_query(engine, query, id, want_cached, out)).0
}

/// Operation time between two pacing probes: the median query takes a
/// tenth of this, so the probe is not run after every one.
const PROBE_GAP_S: f64 = 0.05;

/// `plan_cold`, tracing off.
pub fn end_to_end(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    // The search runs on the engine's one worker while the client waits.
    let mut queries_timed = Paced::new(1, PROBE_GAP_S);
    let mut setups = Paced::new(1, 0.0);
    let mut pass = 0u64;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < seconds {
        let engine = setups.time(|| start_engine(&mut out));
        for (i, q) in queries(seed, pass).iter().enumerate() {
            queries_timed
                .time(|| checked_query(&engine, q, pass * 1000 + i as u64, false, &mut out));
        }
        engine.shutdown();
        pass += 1;
    }
    let latencies = queries_timed.normalised();
    out.metrics.set(
        "items_per_s",
        latencies.len() as f64 / latencies.iter().sum::<f64>(),
    );
    out.metrics.set("op_ms_p50", median(&latencies) * 1e3);
    out.metrics
        .set("op_ms_tail", percentile(&latencies, TAIL) * 1e3);
    out.metrics.set("setup_s", median(&setups.normalised()));
    out.metrics.set("peak_rss_mb", host::peak_rss_mb());
    out.notes.push(format!(
        "op_ms_tail is p{:.0} of {} queries in {pass} cold passes; ten samples lie beyond p{:.0}",
        TAIL * 100.0,
        latencies.len(),
        highest_percentile(latencies.len()) * 100.0
    ));
    out.notes.push(format!(
        "{}; as measured the median query took {:.3} ms",
        queries_timed.note(),
        median(&queries_timed.raw()) * 1e3
    ));
    out.series = queries_timed.series();
    out
}

/// The planner's layers called directly, on the schedule each
/// single-scheme query on the default preset resolves to: `perf` (the
/// search), then `core` (generating the winner's schedule), `verify`, and
/// `sim` on that schedule.
fn direct_layers(out: &mut Outcome) {
    let (mut search, mut gen, mut verify, mut mem, mut sim) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ops_per_s, mut ops_per_worker, mut bubbles) = (Vec::new(), Vec::new(), Vec::new());
    for (filter, schemes) in FILTERS.iter().enumerate().filter(|(_, f)| f.len() == 1) {
        for shape in 0..SHAPES.len() {
            let q = Query {
                topology: 0,
                filter,
                shape,
            };
            let parsed =
                PlanQuery::parse(&q.to_json(0), &QueryLimits::default()).expect("a valid query");
            let model = chimera::serve::query::model_by_name(&parsed.model).expect("a known model");
            let cluster = resolve_cluster(&parsed, None).expect("a known preset");
            let (p, b_hat) = (parsed.devices, parsed.b_hat);
            let start = Instant::now();
            let candidate = match schemes[0] {
                "chimera" => plan_chimera(1, ScaleMethod::Direct, model, cluster, p, b_hat),
                "dapple" => best(PlanScheme::Dapple, model, cluster, p, b_hat),
                "gpipe" => best(PlanScheme::GPipe, model, cluster, p, b_hat),
                "pipedream-2bw" => best(PlanScheme::PipeDream2Bw, model, cluster, p, b_hat),
                other => unreachable!("no direct entry point for filter {other}"),
            };
            search.push(start.elapsed().as_secs_f64());
            let rebuilt = candidate.and_then(|c| rebuild(&c, model, cluster).map(|r| (c, r)));
            out.check(rebuilt.is_some(), || {
                format!("{q:?}: no candidate rebuilds")
            });
            let Some((c, (sched, cost, iters))) = rebuilt else {
                continue;
            };
            let generate = |d: u32, n: u32| -> Option<Schedule> {
                match schemes[0] {
                    "chimera" => chimera(&ChimeraConfig::new(d, n)).ok(),
                    "dapple" => Some(dapple(d, n)),
                    "gpipe" => Some(gpipe(d, n)),
                    _ => None,
                }
            };
            if generate(c.d, c.n).is_some() {
                gen.push(median(&sample(0.0, 5, || {
                    std::hint::black_box(generate(c.d, c.n));
                })));
            }
            let start = Instant::now();
            let report = verify_with_memory(&sched, iters, &cost, cluster.usable_mem());
            verify.push(start.elapsed().as_secs_f64());
            out.check(report.is_clean(), || {
                format!("{q:?}: the planned schedule does not verify")
            });
            mem.push(median(&sample(0.0, 3, || {
                std::hint::black_box(memory_v2(&sched, &cost));
            })));
            let start = Instant::now();
            let simulated = simulate_span(&sched, &cost, iters);
            sim.push(start.elapsed().as_secs_f64());
            out.check(simulated.is_ok(), || {
                format!("{q:?}: the planned schedule does not simulate")
            });
            let ops: usize = sched.workers.iter().map(Vec::len).sum();
            ops_per_s.push(ops as f64 / sim.last().expect("just pushed"));
            ops_per_worker.push(ops as f64 / sched.num_workers() as f64);
            bubbles.push(unit_time_bubble(&sched));
        }
    }
    let m = &mut out.metrics;
    m.set("perf.search_ms_p50", median(&search) * 1e3);
    m.set("perf.search_ms_p90", percentile(&search, 0.9) * 1e3);
    m.set("core.gen_us", median(&gen) * 1e6);
    m.set("core.ops_per_worker", median(&ops_per_worker));
    m.set("core.bubble_ratio", median(&bubbles));
    for (name, d) in [("core.bubble_ratio_d4", 4), ("core.bubble_ratio_d8", 8)] {
        let sched = chimera(&ChimeraConfig::new(d, d)).expect("even depth");
        m.set(name, unit_time_bubble(&sched));
    }
    m.set("verify.verify_ms", median(&verify) * 1e3);
    m.set("verify.memory_v2_ms", median(&mem) * 1e3);
    m.set("sim.simulate_ms", median(&sim) * 1e3);
    m.set("sim.ops_per_s", median(&ops_per_s));
}

/// `plan_cold` with tracing on: cold passes with a span around every query
/// and, beside each, the same search called directly (what the service adds
/// is the difference); then the same queries again, hot; then the planner's
/// layers one by one.
pub fn traced(seed: u64, seconds: f64) -> (Outcome, Spans) {
    let mut out = Outcome::default();
    let steal = host::StealMeter::new();
    let mut rec = Spans::new(true);
    let mut no_rec = Spans::new(false);
    let searcher = RealSearcher {
        measured_floor: None,
    };
    let (mut on_s, mut off_s, mut self_s, mut probes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut pacer = host::Pacer::new(1);
    // Hits and submissions are read after each cold pass; sheds and errors
    // once per engine, when it is retired.
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let (mut submitted, mut hits, mut shed, mut errors) = (0, 0, 0, 0);
    let mut retire = |engine: &PlanEngine| {
        shed += load(&engine.stats().shed);
        errors += load(&engine.stats().errors);
        engine.shutdown();
    };
    let mut pass = 0u64;
    let mut hot = None;
    let window = Instant::now();
    // Passes alternate between recorded and unrecorded spans, so that what
    // the benchmark's own tracing costs is measured on the same work.
    while pass < reps(seconds, 2) as u64 || window.elapsed().as_secs_f64() < seconds * 0.55 {
        probes.push(pacer.probe() * 1e3);
        let recording = pass.is_multiple_of(2);
        let engine = start_engine(&mut out);
        let set = queries(seed, pass);
        for (i, q) in set.iter().enumerate() {
            let id = pass * 1000 + i as u64;
            let sp = if recording { &mut rec } else { &mut no_rec };
            sp.op(id, "plan.query", |sp| {
                let served = sp.scope("serve.submit_blocking", |_| {
                    timed_query(&engine, q, id, false, &mut out)
                });
                if recording { &mut on_s } else { &mut off_s }.push(served);
                let parsed = PlanQuery::parse(&q.to_json(id), &QueryLimits::default())
                    .expect("a valid query");
                let start = Instant::now();
                let direct = sp.scope("perf.search+verify", |_| searcher.search(&parsed, None));
                self_s.push(served - start.elapsed().as_secs_f64());
                out.check(direct.is_ok(), || {
                    format!("direct search {q:?}: {direct:?}")
                });
            });
        }
        submitted += load(&engine.stats().submitted);
        hits += load(&engine.stats().hits);
        if let Some((old, _)) = hot.replace((engine, set)) {
            retire(&old);
        }
        pass += 1;
    }
    let cold_hit_rate = hits as f64 / submitted.max(1) as f64;

    // The last cold engine, asked the same questions again.
    let (engine, set) = hot.expect("at least one pass");
    let before = (load(&engine.stats().hits), load(&engine.stats().submitted));
    let hot_s: Vec<f64> = set
        .iter()
        .enumerate()
        .map(|(i, q)| timed_query(&engine, q, 900_000 + i as u64, true, &mut out))
        .collect();
    let hot_hits = load(&engine.stats().hits) - before.0;
    let hot_submitted = load(&engine.stats().submitted) - before.1;
    retire(&engine);

    direct_layers(&mut out);

    let m = &mut out.metrics;
    m.set("serve.self_ms_p50", median(&self_s) * 1e3);
    m.set("serve.hit_ms_p50", median(&hot_s) * 1e3);
    m.set("serve.cache_hit_rate", cold_hit_rate);
    m.set(
        "serve.cache_hit_rate_hot",
        hot_hits as f64 / hot_submitted.max(1) as f64,
    );
    m.set("serve.shed", shed as f64);
    m.set("serve.errors", errors as f64);
    if !off_s.is_empty() {
        m.set("bench.trace_overhead_ratio", median(&on_s) / median(&off_s));
    }
    let ops = rec.spans().iter().filter(|s| s.parent.is_none()).count();
    m.set("bench.traced_ops", ops as f64);
    m.set("bench.spans", rec.spans().len() as f64);
    m.set("bench.self_time_coverage", 1.0);
    let all: Vec<f64> = on_s.iter().chain(&off_s).copied().collect();
    m.set("traced.op_ms_p50", median(&all) * 1e3);
    m.set(
        "traced.items_per_s",
        all.len() as f64 / all.iter().sum::<f64>(),
    );
    m.set("host.probe_ms", median(&probes));
    host::set_metrics(m, &steal);
    out.check(crate::spans::is_exhaustive(rec.spans()), || {
        "query self times do not sum to the queries".to_string()
    });
    (out, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_query_order_is_a_function_of_seed_and_pass() {
        assert_eq!(queries(7, 0), queries(7, 0));
        assert_ne!(queries(7, 0), queries(8, 0));
        assert_ne!(queries(7, 0), queries(7, 1));
    }

    #[test]
    fn five_consecutive_passes_hold_every_distinct_query_once() {
        let mut all: Vec<Query> = (3..8).flat_map(|pass| queries(11, pass)).collect();
        assert_eq!(all.len(), 150);
        all.sort_by_key(|q| (q.topology, q.filter, q.shape));
        all.dedup();
        assert_eq!(all.len(), 150);
        assert!(queries(11, 3)
            .iter()
            .all(|q| q.topology == queries(11, 3)[0].topology));
    }
}
