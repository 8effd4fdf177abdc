//! Live cross-rank metrics aggregation.
//!
//! Every non-zero rank runs a [`MetricsPublisher`]: a background thread
//! that snapshots its process's [`MetricsRegistry`] at a configurable
//! cadence and ships the JSON over the training fabric itself — a
//! [`MsgKey::Ctrl`] message tagged [`METRICS_TAG`], so no extra sockets or
//! discovery are needed. Rank 0 runs a [`MetricsAggregator`] that drains
//! those messages concurrently with training (the keyed inboxes are
//! thread-safe), keeps the latest snapshot per rank, and exposes the
//! merged view three ways: a JSON document, Prometheus-style exposition
//! text, and an HTTP endpoint on `chimera_comm::listen` serving both.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use chimera_comm::{Listener, MsgKey, Payload, Transport};
use chimera_trace::MetricsRegistry;
use parking_lot::Mutex;

/// Control-plane tag for metrics snapshots. Sits between the runtime's
/// loss-gather tag (`u32::MAX`) and the clock-rendezvous tag
/// (`u32::MAX - 2`).
pub const METRICS_TAG: u32 = u32::MAX - 1;

/// Ships this rank's registry snapshots to rank 0 at a fixed cadence.
pub struct MetricsPublisher {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsPublisher {
    /// Start publishing `registry` snapshots over `ep` every `every`.
    ///
    /// A final snapshot is always sent when the publisher is stopped, so
    /// short runs still report complete totals. Send failures are ignored
    /// — rank 0 exiting first is a normal shutdown order, not an error.
    pub fn spawn(
        ep: Arc<dyn Transport>,
        registry: &'static MetricsRegistry,
        every: Duration,
    ) -> MetricsPublisher {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            let publish = |ep: &dyn Transport| {
                let body = registry.snapshot().to_string().into_bytes();
                let _ = ep.send(
                    0,
                    MsgKey::Ctrl {
                        tag: METRICS_TAG,
                        from: ep.rank(),
                    },
                    Payload::Bytes(body),
                );
            };
            while !stop2.load(Ordering::Relaxed) {
                publish(ep.as_ref());
                // Sleep in small slices so stop() returns promptly.
                let mut left = every;
                while !left.is_zero() && !stop2.load(Ordering::Relaxed) {
                    let step = left.min(Duration::from_millis(20));
                    std::thread::sleep(step);
                    left = left.saturating_sub(step);
                }
            }
            publish(ep.as_ref());
        });
        MetricsPublisher {
            stop,
            handle: Some(handle),
        }
    }

    /// Send one final snapshot and stop the background thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsPublisher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The merged state rank 0 accumulates: latest snapshot per rank.
#[derive(Default)]
struct AggState {
    snapshots: Mutex<Vec<Option<serde_json::Value>>>,
}

/// Collects per-rank snapshots on rank 0 and merges them.
pub struct MetricsAggregator {
    state: Arc<AggState>,
    registry: &'static MetricsRegistry,
    world: u32,
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl MetricsAggregator {
    /// Start collecting snapshots from every other rank of `ep`'s fabric.
    /// Must run on rank 0. `registry` provides rank 0's own slice.
    pub fn spawn(ep: Arc<dyn Transport>, registry: &'static MetricsRegistry) -> MetricsAggregator {
        assert_eq!(ep.rank(), 0, "the aggregator runs on rank 0");
        let world = ep.world();
        let state = Arc::new(AggState {
            snapshots: Mutex::new(vec![None; world as usize]),
        });
        let state2 = state.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            let poll = Duration::from_millis(10);
            loop {
                let stopping = stop2.load(Ordering::Relaxed);
                for from in 1..world {
                    // Drain everything queued for this rank, keep the last.
                    let key = MsgKey::Ctrl {
                        tag: METRICS_TAG,
                        from,
                    };
                    let mut latest: Option<Payload> = None;
                    while let Ok(p) = ep.recv_deadline(key, poll) {
                        latest = Some(p);
                    }
                    if let Some(Payload::Bytes(bytes)) = latest {
                        if let Ok(text) = String::from_utf8(bytes) {
                            if let Ok(v) = serde_json::from_str(&text) {
                                state2.snapshots.lock()[from as usize] = Some(v);
                            }
                        }
                    }
                }
                if stopping {
                    // One final sweep ran with `stopping` set; exit.
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        MetricsAggregator {
            state,
            registry,
            world,
            stop,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// The merged cross-rank view:
    /// `{"schema": "chimera-obs/metrics/v1", "world": W,
    ///   "ranks": {"0": snapshot, ...}, "totals": {counter: sum}}`.
    /// Ranks whose snapshot has not arrived yet are absent from `ranks`.
    pub fn merged(&self) -> serde_json::Value {
        let mut ranks = serde_json::Map::new();
        let mut totals: std::collections::BTreeMap<String, u64> = Default::default();
        let mut tally = |rank: u32, snap: &serde_json::Value| {
            if let Some(counters) = snap["counters"].as_object() {
                for (name, v) in counters.iter() {
                    if let Some(x) = v.as_u64() {
                        *totals.entry(name.clone()).or_default() += x;
                    }
                }
            }
            ranks.insert(rank.to_string(), snap.clone());
        };
        let own = self.registry.snapshot();
        tally(0, &own);
        for (rank, snap) in self.state.snapshots.lock().iter().enumerate() {
            if let Some(snap) = snap {
                tally(rank as u32, snap);
            }
        }
        let mut totals_map = serde_json::Map::new();
        for (name, v) in totals {
            totals_map.insert(name, serde_json::json!(v));
        }
        serde_json::json!({
            "schema": "chimera-obs/metrics/v1",
            "world": self.world,
            "ranks": serde_json::Value::Object(ranks),
            "totals": serde_json::Value::Object(totals_map),
        })
    }

    /// Prometheus-style exposition of [`MetricsAggregator::merged`].
    pub fn prometheus_text(&self) -> String {
        prometheus_text(&self.merged())
    }

    /// Run one final collection sweep, stop the thread, and return the
    /// final merged view. Takes `&self` so an aggregator shared with a
    /// [`MetricsServer`] closure (behind an `Arc`) can still be stopped.
    pub fn stop(&self) -> serde_json::Value {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
        self.merged()
    }
}

impl Drop for MetricsAggregator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.get_mut().take() {
            let _ = h.join();
        }
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Render a merged metrics document as Prometheus exposition text:
/// summed counters as `chimera_<name>`, per-rank counters with a `rank`
/// label, histogram count/sum/percentiles as labeled gauges.
pub fn prometheus_text(merged: &serde_json::Value) -> String {
    let mut out = String::new();
    if let Some(totals) = merged["totals"].as_object() {
        for (name, v) in totals.iter() {
            let Some(x) = v.as_u64() else { continue };
            let m = sanitize(name);
            out.push_str(&format!("# TYPE chimera_{m} counter\nchimera_{m} {x}\n"));
        }
    }
    if let Some(ranks) = merged["ranks"].as_object() {
        for (rank, snap) in ranks.iter() {
            if let Some(counters) = snap["counters"].as_object() {
                for (name, v) in counters.iter() {
                    if let Some(x) = v.as_u64() {
                        let m = sanitize(name);
                        out.push_str(&format!("chimera_{m}{{rank=\"{rank}\"}} {x}\n"));
                    }
                }
            }
            if let Some(hists) = snap["histograms"].as_object() {
                for (name, h) in hists.iter() {
                    let m = sanitize(name);
                    for field in ["count", "sum", "p50", "p90", "p99"] {
                        if let Some(x) = h[field].as_u64() {
                            out.push_str(&format!("chimera_{m}_{field}{{rank=\"{rank}\"}} {x}\n"));
                        }
                    }
                }
            }
        }
    }
    out
}

/// A minimal HTTP endpoint serving a merged-metrics provider.
pub struct MetricsServer {
    /// The bound address (useful when the caller asked for port 0).
    pub addr: SocketAddr,
    listener: Listener,
}

impl MetricsServer {
    /// Serve `provider`'s documents on `addr`. `GET /metrics.json` returns
    /// the merged JSON; every other path returns Prometheus text. The
    /// provider is polled per request, so responses are always current.
    pub fn serve(
        addr: SocketAddr,
        provider: impl Fn() -> serde_json::Value + Send + Sync + 'static,
    ) -> std::io::Result<MetricsServer> {
        let listener = Listener::http(addr, move |request, conn| match request {
            Err(refusal) => conn.send(400, "text/plain", refusal.as_bytes()),
            Ok(request) if request.path.contains("/metrics.json") => {
                conn.send(200, "application/json", provider().to_string().as_bytes());
            }
            Ok(_) => conn.send(
                200,
                "text/plain; version=0.0.4",
                prometheus_text(&provider()).as_bytes(),
            ),
        })?;
        Ok(MetricsServer {
            addr: listener.addr,
            listener,
        })
    }

    /// Stop accepting and join the server thread.
    pub fn stop(self) {
        self.listener.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chimera_comm::LocalFabric;
    use std::io::{Read, Write};

    #[test]
    fn publisher_ships_snapshots_to_rank0_aggregator() {
        let reg = MetricsRegistry::global();
        reg.counter("obs.live.test.items").add(5);
        let mut eps = LocalFabric::new(2);
        let e1 = Arc::new(eps.remove(1)) as Arc<dyn Transport>;
        let e0 = Arc::new(eps.remove(0)) as Arc<dyn Transport>;

        let agg = MetricsAggregator::spawn(e0, reg);
        let publisher = MetricsPublisher::spawn(e1, reg, Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(60));
        publisher.stop();
        let merged = agg.stop();

        assert_eq!(
            merged["schema"],
            serde_json::json!("chimera-obs/metrics/v1")
        );
        assert_eq!(merged["world"], serde_json::json!(2));
        // Both ranks publish the same process-global registry here, so the
        // counter appears under both ranks and doubles in the totals.
        let per_rank = merged["ranks"]["1"]["counters"]["obs.live.test.items"]
            .as_u64()
            .expect("rank 1 snapshot arrived");
        assert!(per_rank >= 5);
        let total = merged["totals"]["obs.live.test.items"].as_u64().unwrap();
        assert_eq!(
            total,
            per_rank
                + merged["ranks"]["0"]["counters"]["obs.live.test.items"]
                    .as_u64()
                    .unwrap()
        );

        let text = prometheus_text(&merged);
        assert!(text.contains("# TYPE chimera_obs_live_test_items counter"));
        assert!(text.contains("chimera_obs_live_test_items{rank=\"1\"}"));
    }

    #[test]
    fn http_server_serves_both_formats() {
        let reg = MetricsRegistry::global();
        reg.counter("obs.live.http.hits").add(3);
        let server = MetricsServer::serve("127.0.0.1:0".parse().unwrap(), move || {
            serde_json::json!({
                "totals": {"obs.live.http.hits": reg.counter("obs.live.http.hits").get()},
                "ranks": {},
            })
        })
        .unwrap();
        let addr = server.addr;

        let fetch = |path: &str| {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
            let mut body = String::new();
            s.read_to_string(&mut body).unwrap();
            body
        };
        let prom = fetch("/metrics");
        assert!(prom.contains("200 OK"), "{prom}");
        assert!(prom.contains("chimera_obs_live_http_hits"));
        let json = fetch("/metrics.json");
        assert!(json.contains("application/json"));
        assert!(json.contains("obs.live.http.hits"));

        // A request line split across two writes is still one request.
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /metri").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        s.write_all(b"cs.json HTTP/1.0\r\n\r\n").unwrap();
        let mut split = String::new();
        s.read_to_string(&mut split).unwrap();
        assert!(split.contains("application/json"), "{split}");
        server.stop();
    }
}
