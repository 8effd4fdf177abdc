//! Network front doors for the planning engine, both on
//! `chimera_comm::Listener`:
//!
//! * [`PlanServer`] — `u32`-LE length-prefixed JSON frames, **pipelined**:
//!   many queries may be outstanding on one connection, and replies carry
//!   the client's `id` in completion order. `{"op": "stats"}` and
//!   `{"op": "ping"}` are answered inline; any other `op` is a
//!   `malformed_query`.
//! * [`HttpServer`] — `POST /plan`, `GET /stats`, `GET /healthz`; any other
//!   route is `404 not_found`.
//!
//! A door only decodes bytes into a `Request` and encodes the reply:
//! `answer` answers every request, and `reply` builds the body (the `id`
//! echoed on the framed door) and the status ([`ServeError::http_status`]).

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use chimera_comm::{read_raw_frame, write_raw_frame, HttpRequest, HttpResponder, Listener};
use parking_lot::Mutex;
use serde_json::Value;

use crate::engine::{PlanEngine, Responder};
use crate::error::ServeError;

/// What a client asked, whichever door it came through.
enum Request {
    /// Framed `{"op": "ping"}`.
    Ping,
    /// `GET /healthz`.
    Health,
    /// Framed `{"op": "stats"}`, `GET /stats`.
    Stats,
    /// A frame without `op`, the body of `POST /plan`.
    Plan(Value),
}

/// Answer `request` — or the error decoding it — through `respond`.
fn answer(engine: &PlanEngine, request: Result<Request, ServeError>, respond: Responder) {
    match request {
        Ok(Request::Ping) => respond(Ok(serde_json::json!({"ok": true, "op": "pong"}))),
        Ok(Request::Health) => respond(Ok(serde_json::json!({"ok": true}))),
        Ok(Request::Stats) => respond(Ok(engine.stats_json())),
        Ok(Request::Plan(raw)) => engine.submit(raw, respond),
        Err(e) => respond(Err(e)),
    }
}

/// The reply to `result`: its HTTP status and its body, with `id` echoed
/// when the framed door passes one.
fn reply(result: Result<Value, ServeError>, id: Option<Value>) -> (u16, Value) {
    let (status, mut body) = match result {
        Ok(v) => (200, v),
        Err(e) => (e.http_status(), e.to_json()),
    };
    if let (Some(id), Some(obj)) = (id, body.as_object_mut()) {
        obj.insert("id".into(), id);
    }
    (status, body)
}

/// Request bytes as JSON.
fn parse(bytes: &[u8]) -> Result<Value, ServeError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| ServeError::MalformedQuery(format!("invalid UTF-8 body: {e}")))?;
    serde_json::from_str(text).map_err(|e| ServeError::MalformedQuery(format!("invalid JSON: {e}")))
}

/// The framed-protocol server.
pub struct PlanServer {
    /// Bound address (useful when the caller asked for port 0).
    pub addr: SocketAddr,
    listener: Listener,
}

impl PlanServer {
    /// Bind `addr` and serve framed plan queries against `engine`.
    pub fn bind(addr: SocketAddr, engine: Arc<PlanEngine>) -> std::io::Result<PlanServer> {
        let listener = Listener::bind(addr, move |stream, stop| {
            serve_frames(stream, &engine, stop);
        })?;
        Ok(PlanServer {
            addr: listener.addr,
            listener,
        })
    }

    /// Stop accepting connections and join the acceptor thread. An
    /// established connection closes at its next frame.
    pub fn stop(self) {
        self.listener.stop();
    }
}

/// One framed connection: decode frames until EOF or stop; every reply is
/// framed onto the shared write half, by whichever thread has it.
fn serve_frames(stream: TcpStream, engine: &PlanEngine, stop: &AtomicBool) {
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(stream));
    while !stop.load(Ordering::Relaxed) {
        let Ok(Some(frame)) = read_raw_frame(&mut reader) else {
            return;
        };
        let (id, request) = match parse(&frame) {
            // Unparseable bytes still get a typed reply; no id is recoverable.
            Err(e) => (Value::Null, Err(e)),
            Ok(raw) => (
                raw.get("id").cloned().unwrap_or(Value::Null),
                decode_op(raw),
            ),
        };
        let writer = writer.clone();
        let respond: Responder = Box::new(move |result| {
            let (_, body) = reply(result, Some(id));
            // A client that vanished mid-response is not an error here;
            // the reader observes the close.
            let _ = write_raw_frame(&mut *writer.lock(), body.to_string().as_bytes());
        });
        answer(engine, request, respond);
    }
}

/// A frame's request: a plan query unless it names an `op`.
fn decode_op(raw: Value) -> Result<Request, ServeError> {
    let Some(op) = raw.get("op") else {
        return Ok(Request::Plan(raw));
    };
    match op.as_str() {
        Some("ping") => Ok(Request::Ping),
        Some("stats") => Ok(Request::Stats),
        Some(other) => Err(ServeError::MalformedQuery(format!("unknown op {other:?}"))),
        None => Err(ServeError::MalformedQuery(format!("unknown op {op}"))),
    }
}

/// The JSON-over-HTTP front door.
pub struct HttpServer {
    /// Bound address.
    pub addr: SocketAddr,
    listener: Listener,
}

impl HttpServer {
    /// Serve `POST /plan`, `GET /stats`, `GET /healthz` on `addr`.
    pub fn serve(addr: SocketAddr, engine: Arc<PlanEngine>) -> std::io::Result<HttpServer> {
        let listener = Listener::http(addr, move |request, conn| route(&engine, request, conn))?;
        Ok(HttpServer {
            addr: listener.addr,
            listener,
        })
    }

    /// Stop accepting and join the acceptor thread.
    pub fn stop(self) {
        self.listener.stop();
    }
}

/// Route one HTTP request; the reply goes out when its answer is ready.
fn route(engine: &PlanEngine, request: Result<HttpRequest, &str>, conn: HttpResponder) {
    let send = move |status, body: Value| {
        conn.send(status, "application/json", body.to_string().as_bytes());
    };
    let request = match request {
        Err(refusal) => Err(ServeError::MalformedQuery(refusal.into())),
        Ok(r) => match (r.method.as_str(), r.path.as_str()) {
            ("GET", "/healthz") => Ok(Request::Health),
            ("GET", "/stats") => Ok(Request::Stats),
            ("POST", "/plan") => parse(&r.body).map(Request::Plan),
            (method, path) => {
                let message = format!("no route {method} {path}");
                return send(
                    404,
                    serde_json::json!({
                        "ok": false,
                        "error": {"code": "not_found", "message": message},
                    }),
                );
            }
        },
    };
    answer(
        engine,
        request,
        Box::new(move |result| {
            let (status, body) = reply(result, None);
            send(status, body);
        }),
    );
}
