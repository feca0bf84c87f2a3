//! The shared multiplexed HTTP/1.1 server core: keep-alive connections,
//! pipelined request framing, and concurrent dispatch — used by both the
//! telemetry endpoint ([`crate::serve::TelemetryServer`]) and the
//! `lp-farm` front door.
//!
//! One reactor drives the handler: a single nonblocking readiness loop
//! over `poll(2)` owns every socket (unix is the supported platform).
//! Complete requests parsed off a connection are dispatched *in order* to
//! a bounded handler thread pool; responses flow back through a completion
//! channel and a loopback wakeup byte, and the reactor writes them out.
//! One slow or idle client costs one pollfd, not a blocked thread.
//!
//! It enforces a max-connections guard, per-connection idle timeouts, and
//! honors `Connection: close`. The `unsafe` `poll(2)` shim is confined to
//! the tiny [`sys`] module; everything else is safe code on the std
//! networking types.

use crate::http::{encode_response, HttpError, Request, RequestParser, Response};
use crate::names;
use crate::Observer;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for an [`HttpServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-request body cap in bytes.
    pub max_body: usize,
    /// Connections held open at once; excess connections wait in the
    /// accept backlog instead of being serviced.
    pub max_connections: usize,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// Handler pool width (concurrent request dispatch).
    pub handler_threads: usize,
    /// Base name for the server's threads (shows up in panics/debuggers).
    pub thread_name: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_body: crate::http::DEFAULT_MAX_BODY_BYTES,
            max_connections: 128,
            idle_timeout: Duration::from_secs(5),
            handler_threads: 4,
            thread_name: "lp-httpd".to_string(),
        }
    }
}

/// The request handler: called on a pool thread, once per request, in
/// arrival order within each connection (pipelining never reorders).
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running multiplexed HTTP server; dropping (or [`HttpServer::stop`])
/// shuts it down and joins every thread it owns.
#[must_use = "dropping the server handle shuts it down"]
pub struct HttpServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The write end of the loopback wakeup pair.
    waker: Mutex<TcpStream>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HttpServer({})", self.local_addr)
    }
}

impl HttpServer {
    /// Binds `addr` (port `0` picks an ephemeral port) and starts
    /// serving `handler`.
    ///
    /// # Errors
    /// Bind/spawn failures.
    pub fn start(
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
        handler: Handler,
        obs: Observer,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        // A connected loopback pair is the std-only wakeup channel: pool
        // threads (and stop) write one byte, the reactor polls the read
        // end.
        let wake_listener = TcpListener::bind("127.0.0.1:0")?;
        let wake_tx = TcpStream::connect(wake_listener.local_addr()?)?;
        let (wake_rx, _) = wake_listener.accept()?;
        wake_rx.set_nonblocking(true)?;
        listener.set_nonblocking(true)?;
        let pool_wake = wake_tx.try_clone()?;
        let loop_stop = Arc::clone(&stop);
        let name = cfg.thread_name.clone();
        let handle = std::thread::Builder::new().name(name).spawn(move || {
            poll_reactor::run(
                listener, wake_rx, pool_wake, &cfg, &handler, &obs, &loop_stop,
            );
        })?;
        Ok(HttpServer {
            local_addr,
            stop,
            waker: Mutex::new(wake_tx),
            handle: Some(handle),
        })
    }

    /// The bound address (relevant with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shuts the server down and joins its threads.
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = self.waker.lock().expect("waker lock").write_all(&[1]);
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The response sent when framing fails before a request ever reaches
/// the handler.
fn error_response(e: &HttpError) -> Response {
    match e {
        HttpError::BodyTooLarge { declared, limit } => Response::new(
            "413 Payload Too Large",
            "application/json",
            format!("{{\"error\":\"body {declared} B exceeds limit {limit} B\"}}"),
        ),
        HttpError::Malformed(what) => Response::bad_request(what),
        HttpError::Io(_) => Response::bad_request("bad request"),
    }
}

mod sys {
    //! The one `unsafe` corner: a direct `poll(2)` declaration (std
    //! already links libc on unix). Everything above talks to the safe
    //! [`poll_fds`] wrapper and the [`PollFd`] struct only.
    #![allow(unsafe_code)]

    use std::os::raw::{c_int, c_short, c_ulong};

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    /// Readable (or a pending connection on a listener).
    pub const POLLIN: c_short = 0x001;
    /// Writable without blocking.
    pub const POLLOUT: c_short = 0x004;
    /// Error / hangup / invalid-fd bits (output only).
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Blocks until a registered fd is ready or `timeout_ms` elapses.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd structs; the length is passed alongside.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(rc as usize)
        }
    }
}

mod poll_reactor {
    use super::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
    use super::*;
    use std::os::unix::io::AsRawFd;

    struct Conn {
        stream: TcpStream,
        parser: RequestParser,
        /// Parsed requests not yet dispatched to the pool.
        pending: VecDeque<Request>,
        write_buf: Vec<u8>,
        /// A handler batch is in flight for this connection.
        busy: bool,
        close_after_flush: bool,
        eof: bool,
        /// Requests parsed on this connection (for keep-alive accounting).
        seen: u64,
        last_activity: Instant,
    }

    impl Conn {
        fn new(stream: TcpStream) -> Conn {
            Conn {
                stream,
                parser: RequestParser::new(),
                pending: VecDeque::new(),
                write_buf: Vec::new(),
                busy: false,
                close_after_flush: false,
                eof: false,
                seen: 0,
                last_activity: Instant::now(),
            }
        }
    }

    struct Batch {
        conn: u64,
        requests: Vec<Request>,
    }

    struct Done {
        conn: u64,
        bytes: Vec<u8>,
        close: bool,
    }

    #[allow(clippy::too_many_lines)]
    pub(super) fn run(
        listener: TcpListener,
        wake_rx: TcpStream,
        wake_tx: TcpStream,
        cfg: &ServerConfig,
        handler: &Handler,
        obs: &Observer,
        stop: &AtomicBool,
    ) {
        let (task_tx, task_rx) = mpsc::channel::<Batch>();
        let task_rx = Arc::new(Mutex::new(task_rx));
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let wake_tx = Arc::new(Mutex::new(wake_tx));
        let mut pool = Vec::new();
        for i in 0..cfg.handler_threads.max(1) {
            let rx = Arc::clone(&task_rx);
            let tx = done_tx.clone();
            let handler = Arc::clone(handler);
            let obs = obs.clone();
            let wake = Arc::clone(&wake_tx);
            pool.push(
                std::thread::Builder::new()
                    .name(format!("{}-h{i}", cfg.thread_name))
                    .spawn(move || loop {
                        let batch = {
                            let guard = rx.lock().expect("handler task lock");
                            guard.recv()
                        };
                        let Ok(batch) = batch else { break };
                        let mut bytes = Vec::new();
                        let mut close = false;
                        for req in &batch.requests {
                            obs.counter(names::SERVE_REQUESTS).inc();
                            let resp = handler(req);
                            bytes.extend_from_slice(&encode_response(&resp, !req.close));
                            if req.close {
                                close = true;
                                break;
                            }
                        }
                        let _ = tx.send(Done {
                            conn: batch.conn,
                            bytes,
                            close,
                        });
                        let _ = wake.lock().expect("wake lock").write_all(&[1]);
                    })
                    .expect("spawn http handler thread"),
            );
        }
        drop(done_tx);

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_id: u64 = 0;
        let mut fds: Vec<PollFd> = Vec::new();
        let mut idx: Vec<u64> = Vec::new();
        let ready = POLLIN | POLLERR | POLLHUP | POLLNVAL;

        while !stop.load(Ordering::SeqCst) {
            fds.clear();
            idx.clear();
            fds.push(PollFd {
                fd: wake_rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            // Max-connections guard: at capacity, stop polling the
            // listener — excess connections sit in the accept backlog.
            let accepting = conns.len() < cfg.max_connections;
            if accepting {
                fds.push(PollFd {
                    fd: listener.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
            }
            let base = fds.len();
            for (&id, c) in &conns {
                let mut events = POLLIN;
                if !c.write_buf.is_empty() {
                    events |= POLLOUT;
                }
                fds.push(PollFd {
                    fd: c.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                idx.push(id);
            }
            let _ = sys::poll_fds(&mut fds, 250);
            if stop.load(Ordering::SeqCst) {
                break;
            }

            // Drain wakeup bytes (level-triggered; content is meaningless).
            if fds[0].revents != 0 {
                let mut sink = [0u8; 64];
                while let Ok(n) = (&wake_rx).read(&mut sink) {
                    if n == 0 {
                        break;
                    }
                }
            }
            // Handler completions: append response bytes, free the
            // connection for its next batch.
            while let Ok(done) = done_rx.try_recv() {
                if let Some(c) = conns.get_mut(&done.conn) {
                    c.write_buf.extend_from_slice(&done.bytes);
                    c.busy = false;
                    if done.close {
                        c.close_after_flush = true;
                        c.pending.clear();
                    }
                    c.last_activity = Instant::now();
                }
            }
            // New connections.
            if accepting && fds.len() > 1 && fds[1].revents != 0 {
                loop {
                    match listener.accept() {
                        Ok((s, _)) => {
                            if conns.len() >= cfg.max_connections {
                                drop(s);
                                break;
                            }
                            let _ = s.set_nonblocking(true);
                            let _ = s.set_nodelay(true);
                            next_id += 1;
                            conns.insert(next_id, Conn::new(s));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
            }
            // Per-connection I/O.
            let mut to_close: Vec<u64> = Vec::new();
            for (i, &id) in idx.iter().enumerate() {
                let revents = fds[base + i].revents;
                let Some(c) = conns.get_mut(&id) else {
                    continue;
                };
                let mut dead = false;
                if revents & ready != 0 && !c.eof {
                    let mut chunk = [0u8; 16 * 1024];
                    loop {
                        match c.stream.read(&mut chunk) {
                            Ok(0) => {
                                c.eof = true;
                                c.parser.mark_eof();
                                break;
                            }
                            Ok(n) => {
                                c.parser.feed(&chunk[..n]);
                                c.last_activity = Instant::now();
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(_) => {
                                dead = true;
                                break;
                            }
                        }
                    }
                    if !dead && !c.close_after_flush {
                        loop {
                            match c.parser.take_next(cfg.max_body) {
                                Ok(Some(req)) => {
                                    c.seen += 1;
                                    if c.seen > 1 {
                                        obs.counter(names::SERVE_KEEPALIVE_REUSES).inc();
                                    }
                                    let last = req.close;
                                    c.pending.push_back(req);
                                    if last {
                                        break;
                                    }
                                }
                                Ok(None) => break,
                                Err(e) => {
                                    // Framing failure: answer inline and
                                    // hang up; nothing after it is
                                    // trustworthy.
                                    c.write_buf.extend_from_slice(&encode_response(
                                        &error_response(&e),
                                        false,
                                    ));
                                    obs.counter(names::SERVE_ERRORS).inc();
                                    c.close_after_flush = true;
                                    c.pending.clear();
                                    break;
                                }
                            }
                        }
                    }
                }
                // Dispatch the buffered batch (in order, one batch in
                // flight per connection).
                if !dead && !c.busy && !c.close_after_flush && !c.pending.is_empty() {
                    let requests: Vec<Request> = c.pending.drain(..).collect();
                    c.busy = true;
                    let _ = task_tx.send(Batch { conn: id, requests });
                }
                // Flush whatever is writable.
                if !dead && !c.write_buf.is_empty() {
                    loop {
                        match c.stream.write(&c.write_buf) {
                            Ok(0) => {
                                dead = true;
                                break;
                            }
                            Ok(n) => {
                                c.write_buf.drain(..n);
                                if c.write_buf.is_empty() {
                                    break;
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(_) => {
                                dead = true;
                                break;
                            }
                        }
                    }
                    if !c.write_buf.is_empty() {
                        c.last_activity = Instant::now();
                    }
                }
                let flushed = c.write_buf.is_empty() && !c.busy;
                let finished = c.close_after_flush || (c.eof && c.pending.is_empty());
                let idle =
                    flushed && c.pending.is_empty() && c.last_activity.elapsed() > cfg.idle_timeout;
                if dead || (flushed && finished) || idle {
                    to_close.push(id);
                }
            }
            for id in to_close {
                conns.remove(&id);
            }
            obs.gauge(names::SERVE_OPEN_CONNECTIONS)
                .set(conns.len() as f64);
        }
        drop(task_tx);
        drop(conns);
        for h in pool {
            let _ = h.join();
        }
        obs.gauge(names::SERVE_OPEN_CONNECTIONS).set(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HttpClient;

    fn echo_server() -> HttpServer {
        let handler: Handler = Arc::new(|req: &Request| {
            Response::json_ok(format!(
                "{{\"path\":{},\"len\":{}}}",
                crate::json::Value::Str(req.path.clone()),
                req.body.len()
            ))
        });
        HttpServer::start(
            "127.0.0.1:0",
            ServerConfig::default(),
            handler,
            Observer::enabled(),
        )
        .unwrap()
    }

    #[test]
    fn serves_keepalive_requests_on_one_connection() {
        let server = echo_server();
        let addr = server.local_addr().to_string();
        let mut client = HttpClient::new(&addr);
        for i in 0..5 {
            let (status, body) = client
                .request("POST", &format!("/echo/{i}"), "payload")
                .unwrap();
            assert_eq!(status, 200, "{body}");
            assert!(body.contains(&format!("/echo/{i}")), "{body}");
            assert!(body.contains("\"len\":7"), "{body}");
        }
        assert_eq!(client.reuses(), 4, "five requests, one connection");
        server.stop();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Two requests in one write; the second asks to close so the
        // read loop below terminates.
        let burst = "GET /a HTTP/1.1\r\nContent-Length: 0\r\n\r\n\
                     GET /b HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        stream.write_all(burst.as_bytes()).unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        let a = buf.find("/a").expect("first response present");
        let b = buf.find("/b").expect("second response present");
        assert!(a < b, "pipelined responses must keep request order: {buf}");
        server.stop();
    }

    #[test]
    fn connection_close_is_honored() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(b"GET /one HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
            .unwrap();
        // Reading to EOF only returns if the server hangs up after the
        // one response.
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
        assert!(buf.contains("Connection: close\r\n"), "{buf}");
        server.stop();
    }

    #[test]
    fn oversized_body_rejected_inline() {
        let server = HttpServer::start(
            "127.0.0.1:0",
            ServerConfig {
                max_body: 16,
                ..ServerConfig::default()
            },
            Arc::new(|_req: &Request| Response::json_ok("{}".to_string())),
            Observer::enabled(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let big = "x".repeat(64);
        let mut client = HttpClient::new(&addr);
        let (status, _) = client.request("POST", "/jobs", &big).unwrap();
        assert_eq!(status, 413);
        // Nothing after a framing failure is trustworthy: the server hung
        // up, so the next request rides a fresh connection.
        let (status, _) = client.request("GET", "/jobs", "").unwrap();
        assert_eq!(status, 200);
        assert_eq!(client.reuses(), 0, "413 must close the connection");
        server.stop();
    }
}
