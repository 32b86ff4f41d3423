//! Minimal std-only HTTP endpoint for live observability.
//!
//! Serves the registry's Prometheus exposition on `/metrics` and the
//! timeline-so-far on `/timeline.json`, so an operator (or the CI
//! smoke test) can scrape a long-running simulation the way the
//! paper's measurement hosts were scraped over SNMP.
//!
//! Deliberately tiny: HTTP/1.0 semantics, request line only,
//! `Connection: close` on every response, one thread per connection so
//! a stalled client never delays another scrape. Wall-clock use
//! (socket timeouts, the accept loop) is confined to this telemetry
//! module — nothing here feeds back into simulation state, which is
//! the determinism boundary `gvc-tidy` enforces.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use crate::metrics::Registry;
use crate::timeline::TimelineHandle;

/// How long a single request may take to arrive before the
/// connection is dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the accept loop waits for an answer before polling for the
/// next connection again.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// A bound scrape endpoint.
pub struct MetricsServer {
    listener: TcpListener,
    registry: Arc<Registry>,
    timeline: Option<TimelineHandle>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// returns a server ready to accept scrapes of `registry` and,
    /// when present, `timeline`.
    pub fn bind(
        addr: &str,
        registry: Arc<Registry>,
        timeline: Option<TimelineHandle>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(MetricsServer { listener, registry, timeline })
    }

    /// The actually-bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections on the calling thread and answers each on
    /// a thread of its own. With `max_requests` set, returns once that
    /// many requests have been answered — the deterministic-exit mode
    /// the CI smoke test uses; with `None` it loops until the process
    /// exits.
    pub fn serve_requests(&self, max_requests: Option<u64>) -> std::io::Result<u64> {
        // Non-blocking accepts let the loop notice answers while no
        // client is connecting.
        self.listener.set_nonblocking(true)?;
        let (answered_tx, answered) = mpsc::channel::<bool>();
        let mut served = 0u64;
        loop {
            if max_requests.is_some_and(|m| served >= m) {
                return Ok(served);
            }
            // One answer at a time, so the count stops at the limit.
            if let Ok(ok) = answered.try_recv() {
                served += u64::from(ok);
                continue;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    // A stalled client must not wedge its thread.
                    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
                    let registry = Arc::clone(&self.registry);
                    let timeline = self.timeline.clone();
                    let answered_tx = answered_tx.clone();
                    std::thread::spawn(move || {
                        let ok = handle(stream, &registry, timeline.as_ref()).is_ok();
                        let _ = answered_tx.send(ok);
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if let Ok(ok) = answered.recv_timeout(ACCEPT_POLL) {
                        served += u64::from(ok);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Serves forever on a detached background thread (the `--listen`
    /// mode alongside a running command).
    pub fn spawn(self) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let _ = self.serve_requests(None);
        })
    }
}

/// Answers one connection: reads the request head and routes on its
/// request line.
fn handle(
    mut stream: TcpStream,
    registry: &Registry,
    timeline: Option<&TimelineHandle>,
) -> std::io::Result<()> {
    let mut buf = [0u8; 4096];
    let mut len = 0usize;
    // Read until the end of the request head (or buffer full):
    // the request line is all we route on.
    loop {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") || len == buf.len() {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain; charset=utf-8", "method not allowed\n".to_string())
    } else {
        match path {
            "/metrics" => ("200 OK", "text/plain; version=0.0.4; charset=utf-8", registry.render()),
            "/timeline.json" => match timeline {
                Some(t) => ("200 OK", "application/json; charset=utf-8", t.to_json()),
                None => (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "no timeline recorder attached (run with --timeline)\n".to_string(),
                ),
            },
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "try /metrics or /timeline.json\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::DEFAULT_WIDTH_US;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes()).expect("write request");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    #[test]
    fn serves_metrics_timeline_and_404() {
        let registry = Arc::new(Registry::new());
        registry.counter("demo_total", &[]).inc();
        let timeline = TimelineHandle::new(DEFAULT_WIDTH_US);
        timeline.add("driver.transfers", 0, 3.0);

        let server = MetricsServer::bind("127.0.0.1:0", registry, Some(timeline))
            .expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || server.serve_requests(Some(4)));

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"), "{metrics}");
        assert!(metrics.contains("# TYPE demo_total counter"), "{metrics}");
        assert!(metrics.contains("demo_total 1"), "{metrics}");

        let tl = get(addr, "/timeline.json");
        assert!(tl.contains("application/json"), "{tl}");
        assert!(tl.contains("\"driver.transfers\""), "{tl}");

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        let post = {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").expect("write");
            let mut out = String::new();
            stream.read_to_string(&mut out).expect("read");
            out
        };
        assert!(post.starts_with("HTTP/1.0 405"), "{post}");

        let served = handle.join().expect("join").expect("serve");
        assert_eq!(served, 4);
    }

    #[test]
    fn stalled_client_does_not_delay_scrapes() {
        let registry = Arc::new(Registry::new());
        registry.counter("demo_total", &[]).inc();
        let server = MetricsServer::bind("127.0.0.1:0", registry, None).expect("bind");
        let addr = server.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || server.serve_requests(Some(2)));

        // Connects and sends nothing: its handler waits out READ_TIMEOUT.
        let silent = TcpStream::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        let metrics = get(addr, "/metrics");
        let waited = started.elapsed();
        assert!(metrics.contains("demo_total 1"), "{metrics}");
        assert!(waited < READ_TIMEOUT / 5, "scrape waited {waited:?} behind a silent client");

        // `max_requests` counts answered requests: the silent client
        // is still pending, so a second scrape is what stops the server.
        assert!(get(addr, "/metrics").contains("demo_total 1"));
        let served = handle.join().expect("join").expect("serve");
        assert_eq!(served, 2);
        drop(silent);
    }
}
