//! The engine's structure table: it changes no answer, it survives a search
//! that dies, two workers may race on it, the ops it holds are bounded, and
//! its counters are on the stats endpoint.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use chimera_perf::{plan_until, ClusterSpec, ModelSpec, PlanScheme, StructureTable};
use chimera_serve::engine::{PlanEngine, ServeConfig};
use chimera_serve::search::{RealSearcher, Searcher};
use chimera_serve::{PlanQuery, ServeError};
use chimera_trace::MetricsRegistry;
use serde_json::Value;

/// The serve benchmark's `plan_cold` query set: 5 presets × 5 scheme
/// filters × 6 shapes = 150 distinct queries.
const TOPOLOGIES: [&str; 5] = [
    "piz-daint",
    "v100",
    "fat-tree",
    "dragonfly",
    "rail-optimized",
];
const FILTERS: [&[&str]; 5] = [
    &["chimera"],
    &["dapple"],
    &["gpipe"],
    &["pipedream-2bw"],
    &["chimera", "dapple"],
];
const SHAPES: [(&str, u32, u64); 6] = [
    ("bert48", 4, 32),
    ("bert48", 8, 64),
    ("bert48", 16, 128),
    ("gpt2", 8, 32),
    ("gpt2-32", 16, 64),
    ("gpt2-32", 8, 32),
];

fn query(topology: &str, schemes: &[&str], shape: (&str, u32, u64)) -> Value {
    let (model, devices, b_hat) = shape;
    serde_json::json!({
        "model": model,
        "devices": devices,
        "b_hat": b_hat,
        "topology": topology,
        "schemes": schemes.to_vec(),
    })
}

fn engine_with(workers: usize, searcher: Box<dyn Searcher>) -> Arc<PlanEngine> {
    PlanEngine::start(
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
        searcher,
    )
}

fn engine(workers: usize) -> Arc<PlanEngine> {
    engine_with(workers, Box::new(RealSearcher::default()))
}

/// What a new engine, with an empty table, answers to `q`.
fn fresh_answer(q: &Value) -> String {
    let fresh = engine(1);
    let answer = fresh.submit_blocking(q.clone()).expect("a served plan");
    fresh.shutdown();
    answer.to_string()
}

/// `(hits, misses, entries)` of the engine's table, from the stats endpoint.
fn structures(engine: &PlanEngine) -> (u64, u64, u64) {
    let stats = engine.stats_json();
    let get = |name: &str| stats["structures"][name].as_u64().expect("a counter");
    (get("hits"), get("misses"), get("entries"))
}

/// (b) The benchmark's queries served by one engine per preset are byte for
/// byte what the same queries get from an engine each — the table an engine
/// fills over its lifetime is in no answer. A debug run takes one preset.
#[test]
fn a_lived_in_engine_answers_what_a_new_one_answers() {
    let presets = if cfg!(debug_assertions) { 1 } else { 5 };
    for topology in &TOPOLOGIES[..presets] {
        let lived_in = engine(1);
        for schemes in FILTERS {
            for shape in SHAPES {
                let q = query(topology, schemes, shape);
                let answer = lived_in.submit_blocking(q.clone()).expect("a served plan");
                assert_eq!(answer["cached"], serde_json::json!(false));
                assert_eq!(answer.to_string(), fresh_answer(&q), "{q}");
            }
        }
        // One cold pass: three quarters or more of its candidates map to a
        // shape an earlier candidate already had analysed.
        let (hits, misses, entries) = structures(&lived_in);
        let rate = hits as f64 / (hits + misses) as f64;
        assert!(rate > 0.7 && rate < 0.95, "{topology}: hit rate {rate:.3}");
        assert_eq!(misses, entries, "one worker: every miss adds its shape");
        lived_in.shutdown();
    }
}

/// Plans like [`RealSearcher`], except that a `gpt2` query dies after its
/// search has put shapes into the engine's table.
struct DiesMidSearch(RealSearcher);

impl Searcher for DiesMidSearch {
    fn search(&self, q: &PlanQuery, deadline: Option<Instant>) -> Result<Value, ServeError> {
        self.0.search(q, deadline)
    }

    fn search_with(
        &self,
        q: &PlanQuery,
        deadline: Option<Instant>,
        structures: &StructureTable,
    ) -> Result<Value, ServeError> {
        if q.model == "gpt2" {
            let (model, cluster) = (ModelSpec::gpt2(), ClusterSpec::piz_daint());
            let found = plan_until(structures, PlanScheme::Dapple, model, cluster, 8, 32, None);
            assert!(found.is_ok_and(|c| c.is_some()));
            panic!("dying mid-search, as the test asks");
        }
        self.0.search_with(q, deadline, structures)
    }
}

/// A search that panics with the table half filled is one failed query; the
/// engine keeps answering, from the shapes the dead search left behind too.
#[test]
fn a_search_that_dies_leaves_the_engine_answering() {
    let engine = engine_with(1, Box::new(DiesMidSearch(RealSearcher::default())));
    let doomed = query("piz-daint", &["dapple"], ("gpt2", 8, 32));
    assert_eq!(
        engine.submit_blocking(doomed),
        Err(ServeError::Internal("search panicked".into()))
    );
    let (_, left_behind, entries) = structures(&engine);
    assert!(left_behind > 0 && entries == left_behind);

    // Same (scheme, D, N) lattice as the dead search: every candidate of this
    // query finds its shape in the table.
    let q = query("piz-daint", &["dapple"], ("bert48", 8, 32));
    let answer = engine.submit_blocking(q.clone()).expect("a served plan");
    assert_eq!(answer.to_string(), fresh_answer(&q));
    let (hits, misses, _) = structures(&engine);
    assert!(hits > 0);
    // At most the winner's retried variant is new.
    assert!(
        misses <= left_behind + 1,
        "{misses} misses after {left_behind}"
    );
    engine.shutdown();
}

/// Two search workers, ten distinct queries that all map to one set of
/// shapes, released together: whoever analyses a shape first, every answer
/// is the one a new engine gives, and each shape is held once.
#[test]
fn two_workers_racing_on_one_shape_agree() {
    let queries: Vec<Value> = (TOPOLOGIES.iter())
        .flat_map(|t| [100u32, 250].map(|pct| (t, pct)))
        .map(|(topology, pct)| {
            let mut q = query(topology, &["chimera"], ("bert48", 8, 64));
            let fields = q.as_object_mut().expect("an object");
            fields.insert("congestion_pct".into(), serde_json::json!(pct));
            q
        })
        .collect();

    // One worker, one query at a time: how many shapes and lookups there are.
    let alone = engine(1);
    for q in &queries {
        alone.submit_blocking(q.clone()).expect("a served plan");
    }
    let (hits_alone, misses_alone, shapes) = structures(&alone);
    alone.shutdown();
    assert_eq!(misses_alone, shapes);

    let shared = engine(2);
    let start = Arc::new(Barrier::new(queries.len()));
    let clients: Vec<_> = (queries.iter().cloned())
        .map(|q| {
            let (engine, start) = (shared.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                engine
                    .submit_blocking(q)
                    .expect("a served plan")
                    .to_string()
            })
        })
        .collect();
    for (client, q) in clients.into_iter().zip(&queries) {
        assert_eq!(
            client.join().expect("a client thread"),
            fresh_answer(q),
            "{q}"
        );
    }
    let (hits, misses, entries) = structures(&shared);
    assert_eq!(entries, shapes, "a shape analysed twice is still held once");
    // Two workers can each miss a shape once before either has inserted it.
    assert!((shapes..=2 * shapes).contains(&misses), "{misses} misses");
    assert_eq!(hits + misses, hits_alone + misses_alone);
    shared.shutdown();
}

/// Schedule ops the engine's table holds now, from the stats endpoint.
fn held_ops(engine: &PlanEngine) -> u64 {
    engine.stats_json()["structures"]["ops"]
        .as_u64()
        .expect("a counter")
}

/// Live-buffer count states the engine's table holds now.
fn held_states(engine: &PlanEngine) -> u64 {
    engine.stats_json()["structures"]["states"]
        .as_u64()
        .expect("a counter")
}

/// Distinct mini-batch sizes inside `QueryLimits` walk the table past its
/// op bound: what it holds never exceeds the bound — in ops, and so in count
/// states, at most one per op of a clean schedule for each of the two a
/// shape keeps — and the queries around the emptying are answered as a new
/// engine answers them.
#[test]
fn the_table_never_outgrows_its_op_bound() {
    let cap = StructureTable::OP_CAP as u64;
    let engine = engine(1);
    let (mut most, mut before, mut after_emptying) = (0, 0, 0);
    for k in (1u64..200).step_by(2) {
        // 32·k for odd k: every power-of-two micro-batch size divides it, and
        // no N repeats an earlier query's — every shape is new, and longer.
        let q = query("piz-daint", &["dapple", "gpipe"], ("bert48", 4, 32 * k));
        let answer = engine.submit_blocking(q.clone()).expect("a served plan");
        let (ops, states) = (held_ops(&engine), held_states(&engine));
        assert!(ops <= cap, "{ops} ops held");
        assert!(
            0 < states && states <= 2 * ops,
            "{states} states in {ops} ops"
        );
        most = most.max(ops);
        after_emptying += u64::from(after_emptying > 0 || ops < before);
        before = ops;
        if after_emptying > 0 {
            assert_eq!(answer.to_string(), fresh_answer(&q), "{q}");
        }
        if after_emptying == 2 {
            break;
        }
    }
    assert_eq!(after_emptying, 2, "{most} ops never filled the table");
    assert!(most > cap / 2, "emptied at {most} ops");
    assert_eq!(engine.stats().structure_ops.load(Ordering::Relaxed), most);
    engine.shutdown();
}

/// The structure counters sit next to the plan-cache counters: in
/// `ServeStats`, in the stats snapshot, and mirrored into the one registry;
/// the snapshot's `simulated` shows the grid searches pruned.
#[test]
fn structure_counters_are_served_with_the_cache_counters() {
    let registry = MetricsRegistry::global();
    let mirrored = |name: &str| registry.counter(name).get();
    let before = (
        mirrored("serve.structures.hits"),
        mirrored("serve.structures.misses"),
        mirrored("serve.structures.entries"),
        mirrored("serve.structures.ops"),
    );
    let engine = engine(1);
    let empty = engine.stats_json();
    assert_eq!(empty["structures"]["entries"].as_u64(), Some(0));
    assert_eq!(empty["structures"]["ops"].as_u64(), Some(0));
    assert_eq!(empty["structures"]["simulated"].as_u64(), Some(0));
    assert_eq!(empty["cache_entries"].as_u64(), Some(0));

    let q = query("piz-daint", &["chimera", "dapple"], ("bert48", 8, 64));
    engine.submit_blocking(q).expect("a served plan");
    let (hits, misses, entries) = structures(&engine);
    assert!(hits > 0 && misses > 0 && entries == misses);
    // A cold pass simulates Chimera's winner and the grid candidates that can
    // still win — fewer than it priced.
    let simulated = engine.stats_json()["structures"]["simulated"]
        .as_u64()
        .expect("a counter");
    assert!(
        simulated > 0 && simulated < hits + misses,
        "{simulated} simulated of {} priced",
        hits + misses
    );
    let stats = engine.stats();
    assert_eq!(stats.structure_hits.load(Ordering::Relaxed), hits);
    assert_eq!(stats.structure_misses.load(Ordering::Relaxed), misses);
    assert_eq!(stats.structure_entries.load(Ordering::Relaxed), entries);
    let ops = held_ops(&engine);
    assert!(ops > entries, "{entries} schedules of {ops} ops");
    assert_eq!(stats.structure_ops.load(Ordering::Relaxed), ops);
    // Tests of this binary share the registry: lower bounds only.
    assert!(mirrored("serve.structures.hits") >= before.0 + hits);
    assert!(mirrored("serve.structures.misses") >= before.1 + misses);
    assert!(mirrored("serve.structures.entries") >= before.2 + entries);
    assert!(mirrored("serve.structures.ops") >= before.3 + ops);
    engine.shutdown();
}
