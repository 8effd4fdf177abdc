//! The accept loop and HTTP/1.0 codec every control-plane server shares:
//! the planning service's two front doors and the live metrics endpoint.
//!
//! A [`Listener`] runs each accepted connection on a thread of its own;
//! stopping or dropping it joins the acceptor, and a connection thread ends
//! when its client hangs up. [`Listener::http`] reads each connection's one
//! request — headers bounded at 64 KiB, the body exactly its
//! `Content-Length`, at most 1 MiB — and the reply goes out through an
//! [`HttpResponder`].

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const MAX_HEADER: usize = 64 * 1024;
const MAX_BODY: usize = 1 << 20;
/// How long an HTTP client may stay silent before it is dropped unanswered.
const HTTP_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// An accept loop with a thread per connection.
pub struct Listener {
    /// The bound address (useful when the caller asked for port 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Listener {
    /// Bind `addr` and run `conn` on its own thread for every connection
    /// accepted until the listener stops. `conn` also gets the stop flag.
    pub fn bind(
        addr: SocketAddr,
        conn: impl Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let conn = Arc::new(conn);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let conn = conn.clone();
                        let stop = stop2.clone();
                        std::thread::spawn(move || conn(stream, &stop));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(Listener {
            addr: bound,
            stop,
            handle: Some(handle),
        })
    }

    /// Bind `addr` and answer every connection as one HTTP/1.0 exchange:
    /// `answer` gets the request, or why it was refused unread, and the
    /// responder for its reply.
    pub fn http(
        addr: SocketAddr,
        answer: impl Fn(Result<HttpRequest, &'static str>, HttpResponder) + Send + Sync + 'static,
    ) -> std::io::Result<Listener> {
        Listener::bind(addr, move |mut stream, _| {
            if stream.set_read_timeout(Some(HTTP_READ_TIMEOUT)).is_err() {
                return;
            }
            if let Ok(request) = read_request(&mut stream) {
                answer(request, HttpResponder(stream));
            }
        })
    }

    /// Stop accepting and join the acceptor thread.
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

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One HTTP request, read whole.
#[derive(Debug, PartialEq, Eq)]
pub struct HttpRequest {
    /// The method, upper-cased.
    pub method: String,
    /// The request target as sent.
    pub path: String,
    /// Exactly `Content-Length` bytes, fewer if the client hung up first.
    pub body: Vec<u8>,
}

/// The answering half of one HTTP exchange.
pub struct HttpResponder(TcpStream);

impl HttpResponder {
    /// Write the response and close. A client that left meanwhile is
    /// nobody's error, so a failed write is dropped.
    pub fn send(mut self, status: u16, content_type: &str, body: &[u8]) {
        let _ = write_response(&mut self.0, status, content_type, body);
    }
}

/// Read one request. The outer error is a failed read or a hang-up before
/// the headers ended; the inner one a size bound the request broke.
fn read_request(r: &mut impl Read) -> std::io::Result<Result<HttpRequest, &'static str>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > MAX_HEADER {
            return Ok(Err("request headers too large"));
        }
        let n = r.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]);
    let mut lines = head.lines();
    let mut request_line = lines.next().unwrap_or_default().split_whitespace();
    let method = request_line.next().unwrap_or_default().to_ascii_uppercase();
    let path = request_line.next().unwrap_or_default().to_string();
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Ok(Err("request body too large"));
    }
    let mut body = buf.split_off(header_end + 4);
    while body.len() < content_length {
        let n = r.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Ok(HttpRequest { method, path, body }))
}

fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    };
    let mut out = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    w.write_all(&out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(bytes: &[u8]) -> std::io::Result<Result<HttpRequest, &'static str>> {
        read_request(&mut &bytes[..])
    }

    #[test]
    fn a_request_is_its_line_headers_and_exactly_its_body() {
        let req = read(b"post /plan HTTP/1.0\r\ncontent-LENGTH: 4\r\n\r\nbodyextra")
            .unwrap()
            .unwrap();
        assert_eq!(
            req,
            HttpRequest {
                method: "POST".into(),
                path: "/plan".into(),
                body: b"body".to_vec(),
            }
        );
        let req = read(b"GET /stats HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn bounds_are_refused_and_hangups_are_errors() {
        let mut huge = b"GET / HTTP/1.0\r\n".to_vec();
        huge.resize(MAX_HEADER + 4096, b'x');
        assert_eq!(read(&huge).unwrap(), Err("request headers too large"));
        let body = format!(
            "POST /plan HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(
            read(body.as_bytes()).unwrap(),
            Err("request body too large")
        );
        assert!(read(b"GET /stats HTTP/1.0\r\n").is_err());
    }

    #[test]
    fn a_response_is_one_status_line_and_its_body() {
        let mut out = Vec::new();
        write_response(&mut out, 404, "application/json", b"{}").unwrap();
        assert_eq!(
            out,
            b"HTTP/1.0 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}"
        );
    }
}
