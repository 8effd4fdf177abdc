//! The planning engine: a bounded worker pool pulling queries off an
//! admission-controlled queue, answering through the single-flight plan
//! cache, and handing each result to the [`Responder`] callback its caller
//! passed. The engine knows no wire format; the front doors in
//! [`crate::server`] encode what the callback receives.
//!
//! Control flow per query (all inside a worker thread):
//!
//! 1. parse + validate → typed [`ServeError`] on failure;
//! 2. deadline check — a query whose budget already passed never searches;
//! 3. cache claim — `Hit` answers immediately, `Wait` attaches to the
//!    in-flight identical search, `Owner` runs the search (under the
//!    query's deadline) and then answers itself *and* every coalesced
//!    waiter;
//! 4. delivery — a responder whose own deadline passed gets
//!    [`ServeError::DeadlineExceeded`] even when the shared result arrived
//!    (late answers are worthless to a deadline-bound tenant).
//!
//! Admission control is at the queue: when `queue_cap` requests are already
//! waiting, new ones are shed immediately with a retryable error instead of
//! growing an unbounded backlog.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use chimera_perf::structure::TableStats;
use chimera_perf::StructureTable;
use chimera_trace::{Counter, Histogram, MetricsRegistry};
use parking_lot::{Condvar, Mutex};
use serde_json::Value;

use crate::cache::{Claim, Outcome, PlanCache};
use crate::error::ServeError;
use crate::query::{PlanQuery, QueryLimits};
use crate::search::Searcher;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads running searches (bounds search concurrency).
    pub workers: usize,
    /// Queued-but-unstarted request bound; beyond it requests are shed.
    pub queue_cap: usize,
    /// Ready plan-cache entries held (LRU beyond this).
    pub cache_cap: usize,
    /// Per-query admission limits.
    pub limits: QueryLimits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map_or(2, std::num::NonZeroUsize::get)
                .clamp(2, 8),
            queue_cap: 256,
            cache_cap: 128,
            limits: QueryLimits::default(),
        }
    }
}

/// Where a finished answer goes: called once, on whichever thread finishes
/// the query, with the plan (`cached` set) or the typed failure.
pub type Responder = Box<dyn FnOnce(Result<Value, ServeError>) + Send>;

/// A request attached to an in-flight search.
struct Waiter {
    responder: Responder,
    deadline: Option<Instant>,
    submitted: Instant,
}

struct Job {
    raw: Value,
    responder: Responder,
    submitted: Instant,
}

/// Engine counters. Each engine owns its numbers (so tests and `/stats`
/// are isolated) and mirrors them into the global
/// [`MetricsRegistry`] under `serve.*` for trace/metrics export.
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: AtomicU64,
    /// Ready-cache answers.
    pub hits: AtomicU64,
    /// Searches actually run (cache misses).
    pub misses: AtomicU64,
    /// Requests coalesced onto an identical in-flight search.
    pub coalesced: AtomicU64,
    /// Requests rejected by admission control.
    pub shed: AtomicU64,
    /// Error responses delivered (any variant).
    pub errors: AtomicU64,
    /// Total nanoseconds spent inside searches.
    pub search_ns: AtomicU64,
    /// Candidates whose schedule shape the engine's structure table already
    /// held (as of the last finished search, like the two below).
    pub structure_hits: AtomicU64,
    /// Candidates whose shape was analysed at that sight.
    pub structure_misses: AtomicU64,
    /// Most shapes the table has held (it is emptied at its op bound; the
    /// live count is in [`PlanEngine::stats_json`]).
    pub structure_entries: AtomicU64,
    /// Most schedule ops the table has held, over all its shapes — never
    /// above `StructureTable::OP_CAP`.
    pub structure_ops: AtomicU64,
    latency_us: Histogram,
    mirror: Mirror,
}

struct Mirror {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    coalesced: Arc<Counter>,
    shed: Arc<Counter>,
    errors: Arc<Counter>,
    search_ns: Arc<Counter>,
    structure_hits: Arc<Counter>,
    structure_misses: Arc<Counter>,
    structure_entries: Arc<Counter>,
    structure_ops: Arc<Counter>,
    latency_us: Arc<Histogram>,
}

impl ServeStats {
    fn new() -> Self {
        let reg = MetricsRegistry::global();
        ServeStats {
            submitted: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            search_ns: AtomicU64::new(0),
            structure_hits: AtomicU64::new(0),
            structure_misses: AtomicU64::new(0),
            structure_entries: AtomicU64::new(0),
            structure_ops: AtomicU64::new(0),
            latency_us: Histogram::default(),
            mirror: Mirror {
                hits: reg.counter("serve.cache_hits"),
                misses: reg.counter("serve.cache_misses"),
                coalesced: reg.counter("serve.coalesced"),
                shed: reg.counter("serve.shed"),
                errors: reg.counter("serve.errors"),
                search_ns: reg.counter("serve.search_ns"),
                structure_hits: reg.counter("serve.structures.hits"),
                structure_misses: reg.counter("serve.structures.misses"),
                structure_entries: reg.counter("serve.structures.entries"),
                structure_ops: reg.counter("serve.structures.ops"),
                latency_us: reg.histogram("serve.latency_us"),
            },
        }
    }

    /// Bring the structure-table counters up to `now`, the table's snapshot
    /// after a search. Workers finish searches in any order, so each counter
    /// only moves forward (`fetch_max`) and the mirror gets what it moved by.
    fn record_structures(&self, now: TableStats) {
        for (seen, mirror, now) in [
            (&self.structure_hits, &self.mirror.structure_hits, now.hits),
            (
                &self.structure_misses,
                &self.mirror.structure_misses,
                now.misses,
            ),
            (
                &self.structure_entries,
                &self.mirror.structure_entries,
                now.entries,
            ),
            (&self.structure_ops, &self.mirror.structure_ops, now.ops),
        ] {
            mirror.add(now.saturating_sub(seen.fetch_max(now, Ordering::Relaxed)));
        }
    }

    /// Cache effectiveness: fraction of answered plan queries that did not
    /// run their own search (ready hits + coalesced).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        let coalesced = self.coalesced.load(Ordering::Relaxed);
        let total = hits + misses + coalesced;
        if total == 0 {
            0.0
        } else {
            (hits + coalesced) as f64 / total as f64
        }
    }
}

/// The planning engine: worker pool + queue + plan cache.
pub struct PlanEngine {
    cfg: ServeConfig,
    cache: PlanCache<Waiter>,
    /// The planner's per-shape analyses, kept across this engine's queries
    /// and shared by its search workers. Owned here — not global — so an
    /// engine starts empty, its counters are its own, and it dies with it.
    structures: StructureTable,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stop: AtomicBool,
    stats: ServeStats,
    searcher: Box<dyn Searcher>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl PlanEngine {
    /// Start the engine: spawns `cfg.workers` worker threads.
    pub fn start(cfg: ServeConfig, searcher: Box<dyn Searcher>) -> Arc<PlanEngine> {
        let engine = Arc::new(PlanEngine {
            cache: PlanCache::new(cfg.cache_cap),
            structures: StructureTable::new(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            stats: ServeStats::new(),
            searcher,
            handles: Mutex::new(Vec::new()),
            cfg,
        });
        let mut handles = engine.handles.lock();
        for i in 0..engine.cfg.workers.max(1) {
            let eng = engine.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || eng.worker_loop())
                    .expect("spawn serve worker"),
            );
        }
        drop(handles);
        engine
    }

    /// Engine counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Submit a raw query for asynchronous processing. Admission control
    /// happens here: a full queue sheds the request straight back through
    /// its responder.
    pub fn submit(&self, raw: Value, responder: Responder) {
        let submitted = Instant::now();
        if self.stop.load(Ordering::Acquire) {
            self.respond(
                responder,
                Err(ServeError::Internal("service shutting down".into())),
                submitted,
                None,
            );
            return;
        }
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        {
            let mut q = self.queue.lock();
            if q.len() < self.cfg.queue_cap {
                q.push_back(Job {
                    raw,
                    responder,
                    submitted,
                });
                self.available.notify_one();
                return;
            }
        }
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        self.stats.mirror.shed.inc();
        self.respond(responder, Err(ServeError::Shed), submitted, None);
    }

    /// Submit and wait for the finalized response JSON (used by the
    /// benchmark and tests).
    pub fn submit_blocking(&self, raw: Value) -> Result<Value, ServeError> {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        self.submit(
            raw,
            Box::new(move |r| {
                let _ = tx.try_send(r);
            }),
        );
        match rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServeError::Internal("response channel closed".into())),
        }
    }

    /// Stats snapshot (`chimera-serve/stats/v1`).
    pub fn stats_json(&self) -> Value {
        let s = &self.stats;
        let table = self.structures.stats();
        let structures = serde_json::json!({
            "hits": table.hits,
            "misses": table.misses,
            "simulated": table.simulated,
            "entries": table.entries,
            "ops": table.ops,
            "states": table.states,
        });
        serde_json::json!({
            "ok": true,
            "schema": "chimera-serve/stats/v1",
            "submitted": s.submitted.load(Ordering::Relaxed),
            "hits": s.hits.load(Ordering::Relaxed),
            "misses": s.misses.load(Ordering::Relaxed),
            "coalesced": s.coalesced.load(Ordering::Relaxed),
            "shed": s.shed.load(Ordering::Relaxed),
            "errors": s.errors.load(Ordering::Relaxed),
            "hit_rate": s.hit_rate(),
            "search_ms_total": s.search_ns.load(Ordering::Relaxed) / 1_000_000,
            "latency_us": {
                "count": s.latency_us.count(),
                "mean": s.latency_us.mean(),
                "p50": s.latency_us.p50(),
                "p90": s.latency_us.p90(),
                "p99": s.latency_us.p99(),
            },
            "cache_entries": self.cache.len(),
            "structures": structures,
            "queue_cap": self.cfg.queue_cap,
            "workers": self.cfg.workers,
        })
    }

    /// Stop the workers and join them. Queued jobs are drained first;
    /// in-flight searches finish.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.available.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock();
                loop {
                    if let Some(j) = q.pop_front() {
                        break j;
                    }
                    if self.stop.load(Ordering::Acquire) {
                        return;
                    }
                    self.available.wait(&mut q);
                }
            };
            self.handle(job);
        }
    }

    /// Deliver `delivery`, enforcing the responder's deadline and recording
    /// latency/error counters. All responses leave through here.
    fn respond(
        &self,
        responder: Responder,
        delivery: Result<(Arc<Value>, bool), ServeError>,
        submitted: Instant,
        deadline: Option<Instant>,
    ) {
        let delivery = match delivery {
            Ok(_) if deadline.is_some_and(|d| Instant::now() >= d) => {
                Err(ServeError::DeadlineExceeded)
            }
            other => other,
        };
        if delivery.is_err() {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            self.stats.mirror.errors.inc();
        }
        let us = submitted.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.stats.latency_us.record(us);
        self.stats.mirror.latency_us.record(us);
        responder(delivery.map(|(v, cached)| {
            let mut out = Value::clone(&v);
            if let Some(obj) = out.as_object_mut() {
                obj.insert("cached".into(), Value::Bool(cached));
            }
            out
        }));
    }

    fn handle(&self, job: Job) {
        let q = match PlanQuery::parse(&job.raw, &self.cfg.limits) {
            Ok(q) => q,
            Err(e) => {
                self.respond(job.responder, Err(e), job.submitted, None);
                return;
            }
        };
        let deadline = q.deadline_from(job.submitted);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.respond(
                job.responder,
                Err(ServeError::DeadlineExceeded),
                job.submitted,
                deadline,
            );
            return;
        }
        let key = q.key();
        match self.cache.lookup_or_claim(&key) {
            Claim::Hit(v) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats.mirror.hits.inc();
                self.respond(job.responder, Ok((v, true)), job.submitted, deadline);
            }
            Claim::Wait(flight) => {
                self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                self.stats.mirror.coalesced.inc();
                let waiter = Waiter {
                    responder: job.responder,
                    deadline,
                    submitted: job.submitted,
                };
                if let Err((w, outcome)) = flight.attach(waiter) {
                    // The owner finished between claim and attach: answer
                    // with the completed outcome right here.
                    self.respond(
                        w.responder,
                        outcome.map(|v| (v, true)),
                        w.submitted,
                        w.deadline,
                    );
                }
            }
            Claim::Owner => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                self.stats.mirror.misses.inc();
                let t0 = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    self.searcher.search_with(&q, deadline, &self.structures)
                }))
                .unwrap_or_else(|_| Err(ServeError::Internal("search panicked".into())));
                self.stats.record_structures(self.structures.stats());
                let spent = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                self.stats.search_ns.fetch_add(spent, Ordering::Relaxed);
                self.stats.mirror.search_ns.add(spent);
                let outcome: Outcome = result.map(Arc::new);
                let waiters = self.cache.fulfill(&key, outcome.clone());
                self.respond(
                    job.responder,
                    outcome.clone().map(|v| (v, false)),
                    job.submitted,
                    deadline,
                );
                for w in waiters {
                    self.respond(
                        w.responder,
                        outcome.clone().map(|v| (v, false)),
                        w.submitted,
                        w.deadline,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Searcher that counts invocations and can be stalled on a gate, so
    /// coalescing and shedding are deterministic.
    struct GatedSearcher {
        started: AtomicU64,
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl GatedSearcher {
        fn new(open: bool) -> Arc<Self> {
            Arc::new(GatedSearcher {
                started: AtomicU64::new(0),
                open: Mutex::new(open),
                cv: Condvar::new(),
            })
        }

        fn release(&self) {
            *self.open.lock() = true;
            self.cv.notify_all();
        }

        fn wait_started(&self, n: u64) {
            let t0 = Instant::now();
            while self.started.load(Ordering::Acquire) < n {
                assert!(t0.elapsed().as_secs() < 10, "searcher never started");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
    }

    struct SearchFacade(Arc<GatedSearcher>);

    impl Searcher for SearchFacade {
        fn search(&self, q: &PlanQuery, _deadline: Option<Instant>) -> Result<Value, ServeError> {
            self.0.started.fetch_add(1, Ordering::Release);
            let mut open = self.0.open.lock();
            while !*open {
                self.0.cv.wait(&mut open);
            }
            Ok(serde_json::json!({"ok": true, "answered": q.key()}))
        }
    }

    fn query(devices: u32) -> Value {
        serde_json::json!({"model": "bert48", "devices": devices, "b_hat": 16})
    }

    fn engine_with(gate: &Arc<GatedSearcher>, cfg: ServeConfig) -> Arc<PlanEngine> {
        PlanEngine::start(cfg, Box::new(SearchFacade(gate.clone())))
    }

    #[test]
    fn identical_concurrent_queries_run_exactly_one_search() {
        let gate = GatedSearcher::new(false);
        let engine = engine_with(
            &gate,
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        );
        // First query claims the search and stalls on the gate...
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let eng = engine.clone();
                std::thread::spawn(move || eng.submit_blocking(query(8)))
            })
            .collect();
        gate.wait_started(1);
        // ...while the identical other 7 coalesce. Give the second worker
        // time to drain them onto the flight, then open the gate.
        let t0 = Instant::now();
        while engine.stats().coalesced.load(Ordering::Relaxed)
            + engine.stats().hits.load(Ordering::Relaxed)
            < 7
        {
            assert!(t0.elapsed().as_secs() < 10, "waiters never attached");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        gate.release();
        for c in clients {
            let v = c.join().unwrap().expect("coalesced query answered");
            assert_eq!(v["ok"], serde_json::json!(true));
        }
        // The invariant under test: 8 clients, exactly 1 search.
        assert_eq!(gate.started.load(Ordering::Relaxed), 1);
        assert_eq!(engine.stats().misses.load(Ordering::Relaxed), 1);
        assert_eq!(
            engine.stats().coalesced.load(Ordering::Relaxed)
                + engine.stats().hits.load(Ordering::Relaxed),
            7
        );
        // And afterwards the answer is a plain cache hit.
        let v = engine.submit_blocking(query(8)).unwrap();
        assert_eq!(v["cached"], serde_json::json!(true));
        assert_eq!(gate.started.load(Ordering::Relaxed), 1);
        engine.shutdown();
    }

    #[test]
    fn admission_control_sheds_past_the_queue_cap() {
        let gate = GatedSearcher::new(false);
        let engine = engine_with(
            &gate,
            ServeConfig {
                workers: 1,
                queue_cap: 2,
                ..ServeConfig::default()
            },
        );
        // Occupy the single worker (distinct key so nothing coalesces).
        let eng = engine.clone();
        let busy = std::thread::spawn(move || eng.submit_blocking(query(4)));
        gate.wait_started(1);
        // Fill the queue to its cap with pending (never-answered-yet) jobs.
        let pending: Vec<_> = [8u32, 16]
            .into_iter()
            .map(|d| {
                let (tx, rx) = std::sync::mpsc::sync_channel(1);
                engine.submit(
                    query(d),
                    Box::new(move |r| {
                        let _ = tx.try_send(r);
                    }),
                );
                rx
            })
            .collect();
        // The next request must be shed immediately, typed, not dropped.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        engine.submit(
            query(32),
            Box::new(move |r| {
                let _ = tx.try_send(r);
            }),
        );
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap(),
            Err(ServeError::Shed)
        );
        assert_eq!(engine.stats().shed.load(Ordering::Relaxed), 1);
        gate.release();
        assert!(busy.join().unwrap().is_ok());
        for rx in pending {
            assert!(rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap()
                .is_ok());
        }
        engine.shutdown();
    }

    #[test]
    fn expired_deadline_never_searches() {
        let gate = GatedSearcher::new(true);
        let engine = engine_with(&gate, ServeConfig::default());
        let mut q = query(8);
        q.as_object_mut()
            .unwrap()
            .insert("deadline_ms".into(), serde_json::json!(0));
        assert_eq!(engine.submit_blocking(q), Err(ServeError::DeadlineExceeded));
        assert_eq!(gate.started.load(Ordering::Relaxed), 0);
        engine.shutdown();
    }

    #[test]
    fn malformed_queries_answer_typed_errors() {
        let gate = GatedSearcher::new(true);
        let engine = engine_with(&gate, ServeConfig::default());
        let err = engine
            .submit_blocking(serde_json::json!({"devices": 8}))
            .unwrap_err();
        assert_eq!(err.code(), "malformed_query");
        let err = engine
            .submit_blocking(serde_json::json!({"model": "bert48", "devices": 100_000}))
            .unwrap_err();
        assert_eq!(err.code(), "over_budget");
        assert_eq!(engine.stats().errors.load(Ordering::Relaxed), 2);
        engine.shutdown();
    }
}
