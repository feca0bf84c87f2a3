//! Minimal HTTP/1.1 request parsing and response writing, shared by the
//! [`crate::serve::TelemetryServer`] and the `lp-farm` analysis service.
//!
//! This is deliberately *not* a web framework: bounded header and body
//! sizes, `Content-Length` framing only, and just the features the
//! in-tree servers need. The [`RequestParser`] is *incremental* — it is
//! fed raw bytes and yields complete requests as they become available —
//! which is what the nonblocking multiplexed event loop in
//! [`crate::httpd`] needs for HTTP/1.1 keep-alive with pipelined
//! requests. [`HttpClient`] is the matching reusable keep-alive client.
//! Keeping it in one place means the telemetry endpoint and the farm
//! daemon cannot drift apart on protocol details — and both inherit
//! fixes (timeouts, caps, framing) at once.

use crate::tracectx::{TraceContext, TRACEPARENT_HEADER};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum accepted size of the request line plus all headers.
pub const MAX_HEAD_BYTES: u64 = 16 * 1024;
/// Default cap on request body sizes (submitters batching thousands of
/// jobs should split their batches).
pub const DEFAULT_MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request: the request line plus an optional body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Path component, query string stripped.
    pub path: String,
    /// Query string (text after `?`), if any.
    pub query: Option<String>,
    /// Request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
    /// All request headers as `(name, value)` pairs, names lowercased
    /// and values trimmed, in arrival order. `Content-Length`,
    /// `traceparent`, and `Connection` are additionally parsed into the
    /// dedicated fields; everything else (e.g. the `x-lp-proto`
    /// negotiation or `x-lp-forwarded` loop-prevention headers) is only
    /// available here.
    pub headers: Vec<(String, String)>,
    /// Distributed trace context from a `traceparent` header, if the
    /// client sent a well-formed one (malformed headers parse to `None`,
    /// never an error — the server falls back to a fresh root context).
    pub trace: Option<TraceContext>,
    /// Whether the client asked for `Connection: close` (HTTP/1.1
    /// defaults to keep-alive; servers must close after responding to a
    /// request with this set).
    pub close: bool,
}

impl Request {
    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// First value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Errors from [`RequestParser::take_next`].
#[derive(Debug)]
pub enum HttpError {
    /// Underlying socket I/O failed (including timeouts).
    Io(io::Error),
    /// The request was malformed (bad request line, bad `Content-Length`).
    Malformed(&'static str),
    /// The declared body exceeds the caller's cap.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The cap that was exceeded.
        limit: usize,
    },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "http i/o: {e}"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "request body {declared} B exceeds limit {limit} B")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// Incremental HTTP/1.1 request parser: feed it raw bytes (in whatever
/// chunks the socket delivers), pull complete [`Request`]s out. Multiple
/// pipelined requests in one buffer parse as successive [`take_next`]
/// calls; a partial request stays buffered until more bytes arrive.
///
/// [`take_next`]: RequestParser::take_next
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    eof: bool,
}

impl RequestParser {
    /// An empty parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends raw bytes from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Marks end-of-stream: a head without its terminating blank line is
    /// then parsed as-is (tolerated, body empty); an incomplete declared
    /// body becomes an error.
    pub fn mark_eof(&mut self) {
        self.eof = true;
    }

    /// Parses the next complete request out of the buffer, if one is
    /// there. `Ok(None)` means "need more bytes" (or, at EOF, "stream
    /// ended cleanly between requests").
    ///
    /// # Errors
    /// Malformed framing, an oversized head or body, or a body truncated
    /// by EOF.
    pub fn take_next(&mut self, max_body: usize) -> Result<Option<Request>, HttpError> {
        let (head_end, body_start) = match find_head_end(&self.buf) {
            Some(pair) => pair,
            None if self.buf.len() as u64 > MAX_HEAD_BYTES => {
                return Err(HttpError::Malformed("request head too large"));
            }
            None if self.eof && !self.buf.is_empty() => (self.buf.len(), self.buf.len()),
            None => return Ok(None),
        };
        if head_end as u64 > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("request head too large"));
        }
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or(HttpError::Malformed("empty request line"))?
            .to_string();
        let target = parts
            .next()
            .ok_or(HttpError::Malformed("missing request target"))?;
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (target.to_string(), None),
        };
        let mut content_length: usize = 0;
        let mut trace: Option<TraceContext> = None;
        let mut close = false;
        let mut headers: Vec<(String, String)> = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim();
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| HttpError::Malformed("bad content-length"))?;
                } else if name.eq_ignore_ascii_case(TRACEPARENT_HEADER) {
                    // A malformed traceparent must not fail the request:
                    // tracing is best-effort, the payload is what matters.
                    trace = TraceContext::parse_traceparent(value);
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        if content_length > max_body {
            return Err(HttpError::BodyTooLarge {
                declared: content_length,
                limit: max_body,
            });
        }
        let body_end = body_start + content_length;
        if self.buf.len() < body_end {
            if self.eof {
                return Err(HttpError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                )));
            }
            return Ok(None);
        }
        let body = self.buf[body_start..body_end].to_vec();
        self.buf.drain(..body_end);
        Ok(Some(Request {
            method,
            path,
            query,
            body,
            headers,
            trace,
            close,
        }))
    }
}

/// Finds the head terminator: returns `(head_len, body_start)` for the
/// first `\r\n\r\n` (or bare `\n\n`) in `buf`.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let mut i = 0;
    while let Some(off) = buf[i..].iter().position(|&b| b == b'\n') {
        let at = i + off;
        if buf[at + 1..].starts_with(b"\r\n") {
            return Some((at + 1, at + 3));
        }
        if buf[at + 1..].starts_with(b"\n") {
            return Some((at + 1, at + 2));
        }
        i = at + 1;
        if i >= buf.len() {
            break;
        }
    }
    None
}

/// An HTTP response ready to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status line text after `HTTP/1.1 ` (e.g. `"200 OK"`).
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (name, value) written verbatim.
    pub extra_headers: Vec<(String, String)>,
    /// Response body. Raw bytes: artifact transfer between cluster
    /// nodes ships LPAC payloads, which are not UTF-8.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with no extra headers. `body` accepts both `String`
    /// (JSON/text routes) and `Vec<u8>` (binary artifact routes).
    pub fn new(
        status: &'static str,
        content_type: &'static str,
        body: impl Into<Vec<u8>>,
    ) -> Response {
        Response {
            status,
            content_type,
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// `200 OK` with raw bytes (`application/octet-stream`).
    pub fn bytes_ok(body: Vec<u8>) -> Response {
        Response::new("200 OK", "application/octet-stream", body)
    }

    /// `200 OK` with `application/json`.
    pub fn json_ok(body: String) -> Response {
        Response::new("200 OK", "application/json", body)
    }

    /// `200 OK` with plain text.
    pub fn text_ok(body: String) -> Response {
        Response::new("200 OK", "text/plain; charset=utf-8", body)
    }

    /// `404 Not Found` with a JSON error object.
    pub fn not_found(msg: &str) -> Response {
        Response::new(
            "404 Not Found",
            "application/json",
            format!("{{\"error\":{}}}", crate::json::Value::Str(msg.to_string())),
        )
    }

    /// `400 Bad Request` with a JSON error object.
    pub fn bad_request(msg: &str) -> Response {
        Response::new(
            "400 Bad Request",
            "application/json",
            format!("{{\"error\":{}}}", crate::json::Value::Str(msg.to_string())),
        )
    }

    /// Adds a header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl std::fmt::Display) -> Response {
        self.extra_headers
            .push((name.to_string(), value.to_string()));
        self
    }
}

/// Serializes `response` with `Content-Length` framing and an explicit
/// `Connection: keep-alive` / `close` header, ready to write to a
/// socket. This is the one response encoder.
pub fn encode_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    for (name, value) in &response.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(&response.body);
    out
}

/// A response as seen by [`HttpClient`]: status code, headers (names
/// lowercased), and the raw body bytes.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (binary-clean; artifact transfers are not UTF-8).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Whether an I/O error carries the signature of a *stale keep-alive
/// connection* — the peer's idle reaper closed it between requests, so
/// the request provably never reached a handler (EOF/RST before any
/// response byte, or the write itself bounced). Distinct from a timeout
/// mid-exchange, where the server may already be acting on the request.
fn is_stale_connection(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
    )
}

/// A reusable keep-alive HTTP client: one TCP connection serves many
/// requests back to back, reconnecting transparently when the server
/// closed the idle connection in between. This is what the
/// `run-looppoint` client subcommands, the farm bench, and the cluster
/// inter-node paths drive — against the multiplexed server a burst of
/// requests costs one TCP + no per-request connection setup.
///
/// ## Stale keep-alive handling
///
/// A reused connection may have been idle-closed by the server between
/// requests. When that happens the request is transparently re-sent
/// once on a fresh connection: idempotent requests (`GET`/`HEAD`, or
/// any request sent through [`HttpClient::send`] with
/// `idempotent = true`) retry on *any* reused-connection failure, while
/// non-idempotent ones retry only when the error is an unambiguous
/// stale-connection signature (reset/EOF/broken pipe) — a timeout
/// mid-exchange could mean the server already acted on the request.
#[derive(Debug)]
pub struct HttpClient {
    addr: String,
    stream: Option<TcpStream>,
    reuses: u64,
    reconnects: u64,
    timeout: Duration,
    headers: Vec<(String, String)>,
}

impl HttpClient {
    /// A client for `addr` (`host:port`); connects lazily on the first
    /// request.
    pub fn new(addr: impl Into<String>) -> HttpClient {
        HttpClient {
            addr: addr.into(),
            stream: None,
            reuses: 0,
            reconnects: 0,
            timeout: Duration::from_secs(10),
            headers: Vec::new(),
        }
    }

    /// How many requests were served on an already-open connection
    /// (the first request after each connect does not count).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// How many transparent reconnect-and-retry cycles this client has
    /// performed after a stale keep-alive connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Sets the per-request read/write timeout (default 10 s).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Adds a header sent with every request (e.g. protocol-version
    /// negotiation). Later pushes of the same name are sent as repeats.
    pub fn push_default_header(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.headers.push((name.into(), value.into()));
    }

    /// Sends one request, reusing the open connection when possible.
    ///
    /// # Errors
    /// Connect/read/write failures (after one transparent reconnect
    /// attempt when a reused connection turned out stale), or an
    /// unparseable response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        self.request_traced(method, path, body, None)
    }

    /// [`HttpClient::request`] with an optional propagated [`TraceContext`].
    ///
    /// # Errors
    /// Connect/read/write failures or an unparseable response.
    pub fn request_traced(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        trace: Option<&TraceContext>,
    ) -> io::Result<(u16, String)> {
        let idempotent = matches!(method, "GET" | "HEAD");
        let resp = self.send(method, path, &[], body.as_bytes(), trace, idempotent)?;
        Ok((resp.status, resp.text()))
    }

    /// Full-control request: per-call extra headers, raw body bytes,
    /// optional trace propagation, and an explicit idempotency claim
    /// governing the stale keep-alive retry policy (see the type docs).
    /// Content-keyed submissions are safe to mark idempotent even as
    /// `POST`s: re-sending them dedups server-side.
    ///
    /// # Errors
    /// Connect/read/write failures or an unparseable response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(String, String)],
        body: &[u8],
        trace: Option<&TraceContext>,
        idempotent: bool,
    ) -> io::Result<ClientResponse> {
        let reused = self.stream.is_some();
        match self.try_send(method, path, headers, body, trace) {
            Ok(out) => {
                if reused {
                    self.reuses += 1;
                }
                Ok(out)
            }
            Err(e) => {
                self.stream = None;
                if reused && (idempotent || is_stale_connection(&e)) {
                    self.reconnects += 1;
                    let retry = self.try_send(method, path, headers, body, trace);
                    if retry.is_err() {
                        self.stream = None;
                    }
                    retry
                } else {
                    Err(e)
                }
            }
        }
    }

    fn try_send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(String, String)],
        body: &[u8],
        trace: Option<&TraceContext>,
    ) -> io::Result<ClientResponse> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true).ok();
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("stream just ensured");
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        if let Some(ctx) = trace {
            head.push_str(&format!(
                "{TRACEPARENT_HEADER}: {}\r\n",
                ctx.to_traceparent()
            ));
        }
        for (name, value) in self.headers.iter().chain(headers.iter()) {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(&format!(
            "Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        ));
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        let (resp, close) = read_client_response(stream)?;
        if close {
            self.stream = None;
        }
        Ok(resp)
    }
}

/// Reads one `Content-Length`-framed response; returns
/// `(response, server_asked_to_close)`.
fn read_client_response(stream: &mut TcpStream) -> io::Result<(ClientResponse, bool)> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let (head_end, body_start) = loop {
        if let Some(pair) = find_head_end(&buf) {
            break pair;
        }
        if buf.len() as u64 > MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response head too large",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before response head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let status: u16 = lines
        .next()
        .unwrap_or("")
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length: usize = 0;
    let mut close = false;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.trim().eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = buf[body_start..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok((
        ClientResponse {
            status,
            headers,
            body,
        },
        close,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::httpd::{HttpServer, ServerConfig};
    use std::sync::Arc;

    /// Parses `raw` as one complete request with a 1 KiB body cap.
    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut parser = RequestParser::new();
        parser.feed(raw);
        parser.take_next(1024)
    }

    /// A server answering every request with what it parsed, one field
    /// per line: method, path, query, body, trace context.
    fn describing_server() -> HttpServer {
        let handler = Arc::new(|req: &Request| {
            Response::text_ok(format!(
                "{}\n{}\n{:?}\n{:?}\n{:?}",
                req.method,
                req.path,
                req.query,
                req.body_text(),
                req.trace.map(|t| (t.trace_id, t.span_id)),
            ))
        });
        let obs = crate::Observer::disabled();
        HttpServer::start("127.0.0.1:0", ServerConfig::default(), handler, obs).unwrap()
    }

    #[test]
    fn roundtrips_get_with_query() {
        let server = describing_server();
        let mut client = HttpClient::new(server.local_addr().to_string());
        let (status, body) = client.request("GET", "/jobs?state=queued", "").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "GET\n/jobs\nSome(\"state=queued\")\n\"\"\nNone");
    }

    #[test]
    fn roundtrips_post_body() {
        let server = describing_server();
        let mut client = HttpClient::new(server.local_addr().to_string());
        let (status, body) = client
            .request("POST", "/jobs", "line one\nline two\n")
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "POST\n/jobs\nNone\n\"line one\\nline two\\n\"\nNone");
    }

    #[test]
    fn traceparent_header_roundtrips() {
        let ctx = TraceContext::new_root();
        let server = describing_server();
        let mut client = HttpClient::new(server.local_addr().to_string());
        let (status, body) = client.request_traced("GET", "/x", "", Some(&ctx)).unwrap();
        assert_eq!(status, 200);
        let seen = format!("{:?}", Some((ctx.trace_id, ctx.span_id)));
        assert_eq!(body.lines().last(), Some(seen.as_str()), "{body}");
    }

    #[test]
    fn malformed_traceparent_is_ignored() {
        let req = parse(b"GET /x HTTP/1.1\r\ntraceparent: not-a-context\r\n\r\n")
            .unwrap()
            .expect("a complete request");
        assert_eq!(
            req.trace, None,
            "garbage header must not poison the request"
        );
        // ... and over the wire the request is still served.
        let server = describing_server();
        let mut client = HttpClient::new(server.local_addr().to_string());
        let garbage = [(TRACEPARENT_HEADER.to_string(), "not-a-context".to_string())];
        let resp = client.send("GET", "/x", &garbage, b"", None, true).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text().lines().last(), Some("None"));
    }

    #[test]
    fn oversized_body_is_rejected() {
        let head = b"POST /jobs HTTP/1.1\r\nContent-Length: 4096\r\n\r\n";
        match parse(head) {
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                assert_eq!((declared, limit), (4096, 1024));
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn extra_headers_and_retry_after() {
        let busy = || {
            Response::new(
                "503 Service Unavailable",
                "application/json",
                "{\"error\":\"queue full\"}".to_string(),
            )
            .with_header("Retry-After", 2)
        };
        let wire = String::from_utf8(encode_response(&busy(), false)).unwrap();
        assert!(wire.starts_with("HTTP/1.1 503"), "{wire}");
        assert!(wire.contains("Retry-After: 2\r\n"), "{wire}");

        let obs = crate::Observer::disabled();
        let handler = Arc::new(move |_: &Request| busy());
        let server =
            HttpServer::start("127.0.0.1:0", ServerConfig::default(), handler, obs).unwrap();
        let mut client = HttpClient::new(server.local_addr().to_string());
        let resp = client.send("GET", "/", &[], b"", None, true).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("2"));
        assert_eq!(resp.text(), "{\"error\":\"queue full\"}");
    }

    #[test]
    fn malformed_request_line_is_an_error() {
        match parse(b"\r\n\r\n") {
            Err(HttpError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
