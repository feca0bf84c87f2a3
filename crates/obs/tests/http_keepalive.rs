//! Regression tests for [`lp_obs::http::HttpClient`] stale keep-alive
//! handling: a server whose idle reaper closes connections between
//! requests must never surface an error to the caller — the client
//! reconnects transparently and re-sends the request once.

use lp_obs::http::{HttpClient, Response};
use lp_obs::httpd::{HttpServer, ServerConfig};
use lp_obs::Observer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An echo server with a *tiny* idle timeout, so every request after a
/// short pause lands on a connection the reaper already closed.
fn reaper_server(idle_ms: u64) -> (HttpServer, Arc<AtomicU64>) {
    let hits = Arc::new(AtomicU64::new(0));
    let handler_hits = Arc::clone(&hits);
    let server = HttpServer::start(
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Duration::from_millis(idle_ms),
            thread_name: "reaper-test".to_string(),
            ..ServerConfig::default()
        },
        Arc::new(move |req: &lp_obs::http::Request| {
            handler_hits.fetch_add(1, Ordering::SeqCst);
            Response::json_ok(format!(
                "{{\"method\":\"{}\",\"len\":{}}}",
                req.method,
                req.body.len()
            ))
        }),
        Observer::disabled(),
    )
    .expect("bind reaper server");
    (server, hits)
}

#[test]
fn idle_reaped_connection_is_transparently_retried() {
    let (server, hits) = reaper_server(50);
    let addr = server.local_addr().to_string();
    let mut client = HttpClient::new(addr);
    // First request opens the connection; each later one arrives well
    // past the idle timeout, so the server has closed the socket in
    // between every time. All of them must still succeed.
    for i in 0..6 {
        let (status, body) = client
            .request("GET", "/ping", "")
            .unwrap_or_else(|e| panic!("request {i} surfaced a stale-connection error: {e}"));
        assert_eq!(status, 200, "request {i}: {body}");
        std::thread::sleep(Duration::from_millis(400));
    }
    assert_eq!(hits.load(Ordering::SeqCst), 6, "every request was served");
    assert!(
        client.reconnects() >= 1,
        "the stale keep-alive path must actually have been exercised \
         (reconnects = {})",
        client.reconnects()
    );
    server.stop();
}

#[test]
fn stale_posts_retry_on_connection_signatures() {
    // POSTs are not idempotent in general, but a reaped idle connection
    // is an unambiguous "never reached a handler" signature (EOF/RST
    // before any response byte) — those must retry too.
    let (server, hits) = reaper_server(50);
    let addr = server.local_addr().to_string();
    let mut client = HttpClient::new(addr);
    for i in 0..4 {
        let (status, _) = client
            .request("POST", "/jobs", "{\"p\":1}\n")
            .unwrap_or_else(|e| panic!("POST {i} surfaced a stale-connection error: {e}"));
        assert_eq!(status, 200);
        std::thread::sleep(Duration::from_millis(400));
    }
    assert_eq!(
        hits.load(Ordering::SeqCst),
        4,
        "each POST executed exactly once — the retry replaces the lost \
         request instead of duplicating a served one"
    );
    server.stop();
}

#[test]
fn send_roundtrips_binary_bodies_and_headers() {
    let server = HttpServer::start(
        "127.0.0.1:0",
        ServerConfig::default(),
        Arc::new(|req: &lp_obs::http::Request| {
            // Echo the body bytes back, tagged with a custom header the
            // client must be able to read.
            let mut resp = Response::new("200 OK", "application/octet-stream", req.body.clone());
            if let Some(v) = req.header("x-lp-proto") {
                resp = resp.with_header("x-lp-proto", v.to_string());
            }
            resp
        }),
        Observer::disabled(),
    )
    .expect("bind echo server");
    let addr = server.local_addr().to_string();
    let mut client = HttpClient::new(addr);
    // Bytes that are deliberately not valid UTF-8.
    let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
    let headers = vec![("x-lp-proto".to_string(), "1".to_string())];
    let resp = client
        .send("POST", "/echo", &headers, &payload, None, true)
        .expect("binary round trip");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, payload, "body must be binary-clean");
    assert_eq!(resp.header("x-lp-proto"), Some("1"));
    server.stop();
}
