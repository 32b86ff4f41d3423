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

/// What a request asks for, decided from its request line alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Metrics,
    Timeline,
    NotFound,
    MethodNotAllowed,
}

impl Route {
    /// Routes the request head received so far. Total over any bytes:
    /// a truncated head, garbage or non-UTF-8 input routes to 404/405,
    /// never to a panic.
    fn of(head: &[u8]) -> Route {
        let line = head.split(|&b| b == b'\n').next().unwrap_or_default();
        let mut parts = line.split(u8::is_ascii_whitespace).filter(|p| !p.is_empty());
        if parts.next() != Some(b"GET".as_slice()) {
            return Route::MethodNotAllowed;
        }
        match parts.next() {
            Some(b"/metrics") => Route::Metrics,
            Some(b"/timeline.json") => Route::Timeline,
            _ => Route::NotFound,
        }
    }

    /// Status line, content type and body of the answer.
    fn respond(
        self,
        registry: &Registry,
        timeline: Option<&TimelineHandle>,
    ) -> (&'static str, &'static str, String) {
        const TEXT: &str = "text/plain; charset=utf-8";
        match (self, timeline) {
            (Route::Metrics, _) => {
                ("200 OK", "text/plain; version=0.0.4; charset=utf-8", registry.render())
            }
            (Route::Timeline, Some(t)) => {
                ("200 OK", "application/json; charset=utf-8", t.to_json())
            }
            (Route::Timeline, None) => (
                "404 Not Found",
                TEXT,
                "no timeline recorder attached (run with --timeline)\n".to_string(),
            ),
            (Route::NotFound, _) => {
                ("404 Not Found", TEXT, "try /metrics or /timeline.json\n".to_string())
            }
            (Route::MethodNotAllowed, _) => {
                ("405 Method Not Allowed", TEXT, "method not allowed\n".to_string())
            }
        }
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
    let (status, content_type, body) = Route::of(&buf[..len]).respond(registry, timeline);
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

    #[test]
    fn routes_on_the_request_line() {
        for (head, want) in [
            (&b"GET /metrics HTTP/1.0\r\n\r\n"[..], Route::Metrics),
            (b"GET /timeline.json HTTP/1.1\r\nHost: x\r\n\r\n", Route::Timeline),
            (b"GET   /metrics", Route::Metrics),
            (b"GET /nope HTTP/1.0\r\n", Route::NotFound),
            (b"GET", Route::NotFound),
            (b"POST /metrics HTTP/1.0\r\n", Route::MethodNotAllowed),
            (b"", Route::MethodNotAllowed),
            (b"\xff\xfe /metrics", Route::MethodNotAllowed),
        ] {
            assert_eq!(Route::of(head), want, "{:?}", String::from_utf8_lossy(head));
        }
    }

    fn status_code(head: &[u8], timeline: Option<&TimelineHandle>) -> u16 {
        let registry = Registry::new();
        let (status, _, _) = Route::of(head).respond(&registry, timeline);
        status.split(' ').next().and_then(|c| c.parse().ok()).unwrap_or(0)
    }

    /// Request-line prefixes the generators build on, so arbitrary
    /// tails land on every route and not only on 405.
    const PREFIXES: [&str; 5] =
        ["", "GET ", "GET /metrics", "GET /timeline.json ", "POST /metrics "];

    proptest::proptest! {
        #[test]
        fn routing_is_total_over_arbitrary_bytes(
            prefix in 0usize..PREFIXES.len(),
            tail in proptest::collection::vec(0u16..256, 0..128),
        ) {
            let mut bytes = PREFIXES[prefix].as_bytes().to_vec();
            bytes.extend(tail.iter().map(|&b| b as u8));
            let timeline = TimelineHandle::new(DEFAULT_WIDTH_US);
            for tl in [None, Some(&timeline)] {
                let code = status_code(&bytes, tl);
                proptest::prop_assert!([200, 404, 405].contains(&code), "status {}", code);
            }
        }

        #[test]
        fn truncated_and_mangled_requests_route_totally(
            prefix in 0usize..PREFIXES.len(),
            cut in 0usize..64,
            flip in (proptest::prelude::any::<bool>(), 0usize..64, 0u16..256),
        ) {
            let mut head = format!("{} HTTP/1.0\r\nHost: h\r\n\r\n", PREFIXES[prefix]).into_bytes();
            let (flipped, at, byte) = flip;
            if flipped {
                let at = at % head.len();
                head[at] = byte as u8;
            }
            head.truncate(cut.min(head.len()));
            let code = status_code(&head, None);
            proptest::prop_assert!([200, 404, 405].contains(&code), "status {}", code);
            // An intact, untruncated GET of /metrics is always answered.
            if !flipped && prefix == 2 && cut >= 12 {
                proptest::prop_assert_eq!(code, 200);
            }
        }
    }
}
