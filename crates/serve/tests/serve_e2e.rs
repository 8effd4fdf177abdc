//! End-to-end tests for the planning service: a real engine behind both
//! front doors on ephemeral ports, exercised through real sockets.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use chimera_serve::engine::{PlanEngine, ServeConfig};
use chimera_serve::search::RealSearcher;
use chimera_serve::server::{HttpServer, PlanServer};
use chimera_serve::PlanClient;
use serde_json::Value;

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

fn small_engine() -> Arc<PlanEngine> {
    PlanEngine::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Box::new(RealSearcher::default()),
    )
}

#[test]
fn framed_protocol_end_to_end() {
    let engine = small_engine();
    let server = PlanServer::bind(loopback(), engine.clone()).unwrap();
    let mut client = PlanClient::connect(server.addr).unwrap();

    // Liveness.
    let pong = client.ping().unwrap();
    assert_eq!(pong["op"].as_str(), Some("pong"));

    // A real plan query, answered with verified schedules.
    let resp = client
        .query(serde_json::json!({
            "model": "bert48", "devices": 4, "b_hat": 16,
            "schemes": ["chimera", "gpipe"],
        }))
        .unwrap();
    assert_eq!(resp["ok"], serde_json::json!(true));
    assert_eq!(resp["schema"].as_str(), Some("chimera-serve/plan/v1"));
    assert_eq!(resp["cached"], serde_json::json!(false));
    let results = resp["results"].as_array().unwrap();
    assert!(!results.is_empty());
    for r in results {
        assert_eq!(r["verified"], serde_json::json!(true));
    }

    // The identical query again is a cache hit.
    let resp2 = client
        .query(serde_json::json!({
            // Same query, different spellings: canonicalization collapses
            // them onto one cache key.
            "model": "BERT48", "devices": 4, "b_hat": 16,
            "schemes": ["gpipe", "chimera"],
        }))
        .unwrap();
    assert_eq!(resp2["cached"], serde_json::json!(true));

    // Pipelining: several queries in flight at once on one connection,
    // answers matched by id.
    let ids: Vec<u64> = (0..4)
        .map(|_| {
            client
                .send(serde_json::json!({
                    "model": "bert48", "devices": 4, "b_hat": 16,
                    "schemes": ["gpipe"],
                }))
                .unwrap()
        })
        .collect();
    for id in ids {
        let v = client.recv(id).unwrap();
        assert_eq!(v["ok"], serde_json::json!(true));
        assert_eq!(v["id"].as_u64(), Some(id));
    }

    // Typed errors travel the wire.
    let err = client
        .query(serde_json::json!({"model": "no-such-model", "devices": 4}))
        .unwrap();
    assert_eq!(err["ok"], serde_json::json!(false));
    assert_eq!(err["error"]["code"].as_str(), Some("unknown_model"));

    // Stats reflect the traffic.
    let stats = client.stats().unwrap();
    assert_eq!(stats["schema"].as_str(), Some("chimera-serve/stats/v1"));
    assert!(stats["hits"].as_u64().unwrap() >= 1);
    assert!(stats["misses"].as_u64().unwrap() >= 1);

    server.stop();
    engine.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_not_hangups() {
    let engine = small_engine();
    let server = PlanServer::bind(loopback(), engine.clone()).unwrap();

    let mut raw = TcpStream::connect(server.addr).unwrap();
    // Not JSON at all.
    chimera_comm::write_raw_frame(&mut raw, b"this is not json").unwrap();
    let body = chimera_comm::read_raw_frame(&mut raw).unwrap().unwrap();
    let v: Value = serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
    assert_eq!(v["error"]["code"].as_str(), Some("malformed_query"));

    // Unknown op, id echoed — also when the op is not a string, even on an
    // otherwise valid plan query.
    for (frame, id) in [
        (&br#"{"op": "launder", "id": 7}"#[..], 7),
        (br#"{"op": 7, "id": 8, "model": "bert48", "devices": 4}"#, 8),
    ] {
        chimera_comm::write_raw_frame(&mut raw, frame).unwrap();
        let body = chimera_comm::read_raw_frame(&mut raw).unwrap().unwrap();
        let v: Value = serde_json::from_str(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(v["error"]["code"].as_str(), Some("malformed_query"));
        assert_eq!(v["id"].as_u64(), Some(id));
    }

    // The connection survived them all; a valid query still works.
    drop(raw);
    let mut client = PlanClient::connect(server.addr).unwrap();
    assert_eq!(client.ping().unwrap()["op"].as_str(), Some("pong"));

    server.stop();
    engine.shutdown();
}

fn http_request(addr: SocketAddr, request: &str) -> (u16, Value) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .unwrap();
    let body = text.split("\r\n\r\n").nth(1).expect("body");
    (status, serde_json::from_str(body).unwrap())
}

#[test]
fn http_front_door_end_to_end() {
    let engine = small_engine();
    let server = HttpServer::serve(loopback(), engine.clone()).unwrap();
    let addr = server.addr;

    let (status, body) = http_request(addr, "GET /healthz HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(body["ok"], serde_json::json!(true));

    let q = r#"{"model": "bert48", "devices": 4, "b_hat": 16, "schemes": ["gpipe"]}"#;
    let req = format!(
        "POST /plan HTTP/1.0\r\nContent-Length: {}\r\n\r\n{q}",
        q.len()
    );
    let (status, body) = http_request(addr, &req);
    assert_eq!(status, 200);
    assert_eq!(body["schema"].as_str(), Some("chimera-serve/plan/v1"));
    assert!(!body["results"].as_array().unwrap().is_empty());

    // The body is exactly Content-Length bytes: what follows it on the
    // connection is not parsed with it.
    let (status, body) = http_request(addr, &format!("{req}\r\n\r\nGET /stats HTTP/1.0"));
    assert_eq!(status, 200);
    assert_eq!(body["schema"].as_str(), Some("chimera-serve/plan/v1"));

    // Error mapping: unknown model → 404 with the typed code.
    let q = r#"{"model": "nope", "devices": 4}"#;
    let req = format!(
        "POST /plan HTTP/1.0\r\nContent-Length: {}\r\n\r\n{q}",
        q.len()
    );
    let (status, body) = http_request(addr, &req);
    assert_eq!(status, 404);
    assert_eq!(body["error"]["code"].as_str(), Some("unknown_model"));

    // Malformed body → 400.
    let req = "POST /plan HTTP/1.0\r\nContent-Length: 3\r\n\r\n{{{";
    let (status, body) = http_request(addr, req);
    assert_eq!(status, 400);
    assert_eq!(body["error"]["code"].as_str(), Some("malformed_query"));

    // Unknown route → 404.
    let (status, _) = http_request(addr, "GET /nope HTTP/1.0\r\n\r\n");
    assert_eq!(status, 404);

    let (status, body) = http_request(addr, "GET /stats HTTP/1.0\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body["submitted"].as_u64().unwrap() >= 2);

    server.stop();
    engine.shutdown();
}
